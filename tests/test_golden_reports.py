"""Byte guard: the oils benchmark invocations reproduce their recorded reports.

Replays the ``oils-cli`` invocations of ``bench/workloads.py`` in-process and
compares every file written with its SHA-256 in ``bench/golden.json``, so a
change in any printed digit fails here before it reaches the benchmark.
Only reads ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from eigensens.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")
reports = _bench_module("reports")
OILS = workloads.WORKLOADS["oils-cli"]


@pytest.fixture(scope="module")
def oils_input(tmp_path_factory):
    root = Path(__file__).resolve().parents[1]
    return workloads.write_input(OILS, 0, tmp_path_factory.mktemp("oils"), root)


@pytest.mark.parametrize("inv", OILS.invocations, ids=lambda inv: inv.name)
def test_oils_report_matches_recorded_digest(inv, oils_input, tmp_path):
    want = reports.expected(reports.load_golden(), OILS.name, 0, inv.name)
    assert want, f"no recorded digests for {inv.name}"
    assert main(inv.argv(oils_input, tmp_path)) == 0
    problems, _ = reports.check(tmp_path, want)
    assert not problems, problems
