"""Replay one workload in-process through ``eigensens.cli.main``.

Run by ``run.py`` in a fresh interpreter, once untraced and once traced, so
that the ratio of the two walls is the tracing overhead.  The traced replay
also compares exact-layer outputs with the reference path
``eigh(estimate_loo(...))`` on the workload's sample rows.  Prints one JSON
object on its last line of output.

    python bench/replay.py --workload NAME --seed N --input CSV --work DIR --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import reports
from tracer import Tracer
from workloads import WORKLOADS, check_properties

# Reports carry 6 significant digits; on top of that rounding, an exact
# value may differ from the reference by float noise relative to the scale
# of the spectrum.
SIF_RTOL = 1e-5
SIF_ATOL_SCALE = 1e-8
# Reference aligned values this close (relative to the top eigenvalue) to
# the verdict's threshold make the verdict a coin toss; they are skipped.
VERDICT_MARGIN = 1e-9


def _count_events(counts, report, args) -> None:
    counts["builds"] += 1
    counts["flagged"] += len({ev.obs_index for ev in report.events})
    counts["rows"] += args[0].n
    for ev in report.events:
        counts[f"events.{ev.kind}"] += 1


def _count_verified(counts, events, args) -> None:
    counts["verified"] += len(events)
    counts["confirmed"] += sum(bool(ev.verified_exact) for ev in events)


HOOKS = {
    "switching.build_switch_report": _count_events,
    "switching.verify_exact": _count_verified,
}


def _spec(inv):
    from eigensens.dataset import CORRELATION, COVARIANCE, EstimatorSpec
    kind = CORRELATION if "cor" in inv.args else COVARIANCE
    return EstimatorSpec(kind)


def _descending(matrix):
    values, vectors = np.linalg.eigh(matrix)
    return values[::-1], vectors[:, ::-1]


def reference_checks(workload, input_csv: Path, out_root: Path) -> dict:
    """Exact sif_eigen vectors and verify_exact verdicts against the reference."""
    from scipy.optimize import linear_sum_assignment

    from eigensens.dataset import estimate, estimate_loo, load_csv

    label = "oil_type" if "--label-col" in workload.invocations[0].args else None
    X = load_csv(input_csv, label_col=label)
    n = X.n
    result = {"compared": 0, "skipped_near_threshold": 0, "mismatches": [],
              "max_sif_abs_err": 0.0}
    for inv in workload.invocations:
        if "exact" not in inv.args or inv.out.endswith(".csv"):
            continue
        spec = _spec(inv)
        full_values, full_vectors = _descending(estimate(X, spec).matrix)
        scale = abs(float(full_values[0]))
        try:
            doc = json.loads((out_root / inv.name / inv.out).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            result["mismatches"].append(f"{inv.name}: unreadable report ({exc})")
            continue
        if inv.command == "influence":
            for i in workload.sample_rows:
                loo_values, _ = _descending(estimate_loo(X, spec, i).matrix)
                ref = -(n - 1) * (loo_values - full_values)
                got = np.asarray(doc["observations"][i - 1]["sif_eigen"], dtype=float)
                err = np.abs(got - ref)
                result["max_sif_abs_err"] = max(result["max_sif_abs_err"], float(err.max()))
                result["compared"] += 1
                if np.any(err > SIF_RTOL * np.abs(ref) + SIF_ATOL_SCALE * (n - 1) * scale):
                    result["mismatches"].append(f"{inv.name}: sif_eigen of obs {i}")
            continue
        rows = set(workload.sample_rows)
        reduced = {}
        for ev in doc["events"]:
            i = ev["obs"]
            if i not in rows:
                continue
            if i not in reduced:
                loo_values, loo_vectors = _descending(estimate_loo(X, spec, i).matrix)
                r, c = linear_sum_assignment(-np.abs(full_vectors.T @ loo_vectors))
                where = np.empty(len(full_values), dtype=int)
                where[r] = c
                reduced[i] = loo_values[where]
            j, k = ev["pair"]
            lo, hi = reduced[i][j - 1], reduced[i][k - 1]
            if ev["kind"] == "switch":
                want, margin = lo < hi, abs(lo - hi)
            else:
                want, margin = abs(lo - hi) < doc["delta"], abs(abs(lo - hi) - doc["delta"])
            if margin < VERDICT_MARGIN * scale:
                result["skipped_near_threshold"] += 1
                continue
            result["compared"] += 1
            if ev["verified_exact"] != want:
                result["mismatches"].append(
                    f"{inv.name}: verified_exact of obs {i} pair {ev['pair']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    import eigensens.cli
    from eigensens.eigen import count_decompositions

    workload = WORKLOADS[args.workload]
    golden = reports.load_golden()
    pool = workload.pool_index(args.seed)
    tracer = Tracer(HOOKS) if args.trace else None
    installed = tracer.install() if tracer else []

    out_root = args.work / "out"
    runs = []
    decompositions = 0
    report_bytes = 0
    wall = 0.0
    for run_id, inv in enumerate(workload.invocations):
        out_dir = reports.fresh_dir(out_root / inv.name)
        start = time.perf_counter()
        with count_decompositions() as window:
            if tracer:
                tracer.run_id = run_id
            try:
                code = eigensens.cli.main(inv.argv(args.input, out_dir))
            except SystemExit as exc:
                code = exc.code
            finally:
                if tracer:
                    tracer.run_id = None
        wall += time.perf_counter() - start
        decompositions += window.total
        problems, size = reports.check(out_dir, reports.expected(
            golden, workload.name, pool, inv.name))
        if code != 0:
            problems.insert(0, f"exit code {code}")
        report_bytes += size
        runs.append({"name": inv.name, "problems": problems})

    result = {"replay_wall_s": wall, "decompositions": decompositions,
              "report_bytes": report_bytes, "runs": runs}
    if tracer:
        tracer.uninstall()
        result["installed_spans"] = len(installed)
        result["trace"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        result["properties"] = check_properties(workload, out_root)
        result["reference"] = reference_checks(workload, args.input, out_root)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
