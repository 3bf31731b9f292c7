"""Outside-in benchmark of the eigensens command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One driver starts one child at a time (a closed loop with one
client).

``--trace 0`` times real CLI processes from start to exit with their reports
written.  After one discarded warm-up invocation it runs the workload's
invocation list once, then keeps sampling the subcommand whose metric is
least certain while an invocation still fits in ``--seconds``.  Every timed
child is followed by a fixed host probe, and each wall is scaled by the
probes around it (see ``HOST_PROBE``); a metric keeps each invocation's
median scaled wall.  ``setup_s`` is the median of several fresh imports
spread over the same window, scaled the same way.  Every report is checked
byte for byte against ``golden.json``.

``--trace 1`` measures the import stage with ``python -X importtime`` and
replays the same invocations in-process through ``eigensens.cli.main``,
untraced and then traced, in fresh interpreters (see ``replay.py``), and
reports per-layer metrics.

Every metric is printed with its unit; the last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
results, with the environment, go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reports
from workloads import WORKLOADS, check_properties, write_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# every child must end well inside the 180 s a run may take
RUN_BUDGET_S = 170.0

IMPORT_CLI = "import eigensens.cli"
# what the ``eigensens`` console script runs
CONSOLE_SCRIPT = "import sys; from eigensens.cli import main; sys.exit(main())"

COMMANDS = ("analyze", "influence", "switching")
SETUP = "setup"

# A fixed piece of work that does not touch eigensens: interpreter start, the
# numpy import, a Python loop, small ``eigh`` calls and JSON, as the CLI
# does.  It runs in a fresh interpreter after every timed child, so that its
# wall tracks the speed the shared host gives at that moment.
HOST_PROBE = """\
import json
import numpy as np
a = np.random.default_rng(0).standard_normal((400, 30))
c = a.T @ a
s = 0
for i in range(200_000):
    s += i * i
for _ in range(300):
    np.linalg.eigh(c)
json.dumps(a.tolist())
"""
# A fixed reference speed, near the probe's median wall on a 2-vCPU x86-64
# host.  Timed metrics are given in seconds on a host where the probe takes
# this long.
PROBE_REF_S = 0.25


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def child_env() -> dict:
    """The caller's environment without EIGENSENS_JOBS, importing ``src/``."""
    env = dict(os.environ)
    env.pop("EIGENSENS_JOBS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, budget: Budget, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to exit: (wall seconds, exit code, max RSS in MB).

    The wall runs from just before the process is started until ``wait4``
    reaps it.  A child still running when the budget is spent is killed.
    """
    timeout = budget.left()
    if timeout <= 0:
        raise TimeoutError("run budget spent")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= timeout:
        raise TimeoutError(f"{argv[1:3]} still running after {timeout:.0f} s")
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def environment() -> dict:
    """Versions, BLAS and its thread count, CPU count and git revision."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _openblas_threads():
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or "unknown"


def _next_invocation(workload, walls: dict, time_left: float):
    """The invocation to sample next, or None when none fits in ``time_left``.

    Each sample is taken to scatter by the same share of its invocation's
    typical wall, so the relative standard error of a command's summed
    medians is sqrt(sum m_i^2 / n_i) / sum m_i over its invocations (median
    m_i, n_i samples).  The command with the largest one goes first, and in
    it the invocation whose next sample narrows it most per second spent,
    m_i / (n_i (n_i + 1)).  A cheap ``analyze`` is thus sampled more often
    than a long ``influence``, and every per-command metric ends up about
    equally sure.
    """
    typical = {name: statistics.median(w) for name, w in walls.items()}

    def rse(command):
        names = [inv.name for inv in workload.invocations if inv.command == command]
        return (math.sqrt(sum(typical[n] ** 2 / len(walls[n]) for n in names))
                / sum(typical[n] for n in names))

    def priority(inv):
        n = len(walls[inv.name])
        return rse(inv.command), typical[inv.name] / (n * (n + 1))

    for inv in sorted(workload.invocations, key=priority, reverse=True):
        if max(walls[inv.name]) <= time_left:
            return inv
    return None


def timed_run(workload, seed, seconds, input_csv, work, budget) -> dict:
    golden = reports.load_golden()
    pool = workload.pool_index(seed)
    out_root = work / "out"
    log = (work / "stderr.log").open("wb")
    python = sys.executable

    def invoke(inv):
        out_dir = reports.fresh_dir(out_root / inv.name)
        argv = [python, "-c", CONSOLE_SCRIPT, *inv.argv(input_csv, out_dir)]
        wall, code, rss = run_child(argv, budget, stderr=log)
        problems, _ = reports.check(out_dir, reports.expected(golden, workload.name, pool, inv.name))
        if code != 0:
            problems.insert(0, f"exit code {code}")
        return wall, rss, problems

    def probe():
        wall, code, _ = run_child([python, "-c", HOST_PROBE], budget, stderr=log)
        if code != 0:
            raise RuntimeError(f"host probe exited with {code}")
        probes.append(wall)

    def setup_sample():
        samples.append((SETUP, run_child([python, "-c", IMPORT_CLI], budget)[0]))
        probe()

    # every timed child is followed by a probe, so sample k sits between
    # probes k and k + 1
    samples: list[tuple[str, float]] = []
    probes: list[float] = []
    walls = {inv.name: [] for inv in workload.invocations}
    peak_rss = 0.0
    failures = []
    try:
        invoke(workload.invocations[0])  # warm-up, discarded
        probe()
        start = time.perf_counter()
        # one full pass first, then the least certain subcommand, until no
        # invocation fits in what is left of ``seconds``; the setup samples
        # are spread evenly over the same window
        pending = list(workload.invocations)
        n_setup = 0
        while True:
            elapsed = time.perf_counter() - start
            if n_setup < SETUP_REPEATS and elapsed >= n_setup * seconds / SETUP_REPEATS:
                setup_sample()
                n_setup += 1
                continue
            if pending:
                inv = pending.pop(0)
            else:
                left = seconds - elapsed - statistics.median(probes)
                inv = _next_invocation(workload, walls, left)
                if inv is None:
                    break
            wall, rss, problems = invoke(inv)
            walls[inv.name].append(wall)
            samples.append((inv.name, wall))
            probe()
            peak_rss = max(peak_rss, rss)
            if problems:
                failures.append({"sample": len(samples) - 1, "invocation": inv.name,
                                 "problems": problems})
        while n_setup < SETUP_REPEATS:
            setup_sample()
            n_setup += 1
    finally:
        log.close()

    # The host's speed drifts by up to 1.5x over tens of seconds, and the
    # probe drifts with it.  Each sample is scaled by PROBE_REF_S over the
    # mean of the probes just before and after it; an invocation's typical
    # time is the median of its scaled samples.
    scaled: dict[str, list[float]] = {SETUP: [], **{name: [] for name in walls}}
    for k, (name, wall) in enumerate(samples):
        scaled[name].append(wall * PROBE_REF_S / ((probes[k] + probes[k + 1]) / 2))
    typical = {name: statistics.median(v) for name, v in scaled.items() if name != SETUP}
    raw = {name: statistics.median(w) for name, w in walls.items()}

    def by_command(times):
        out = {"wall_s": sum(times.values())}
        for command in COMMANDS:
            out[f"{command}_wall_s"] = sum(
                times[inv.name] for inv in workload.invocations if inv.command == command)
        return out

    metrics = {"setup_s": (statistics.median(scaled[SETUP]), "s")}
    metrics.update({k: (v, "s") for k, v in by_command(typical).items()})
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    unscaled = {"setup_s": statistics.median(w for n, w in samples if n == SETUP),
                **by_command(raw)}
    attempted = len(samples) - SETUP_REPEATS
    return {
        "metrics": metrics,
        "unscaled": unscaled,
        "attempted": attempted,
        "failures": failures,
        "properties": check_properties(workload, out_root),
        "detail": {"order": [n for n, _ in samples], "walls_s": [w for _, w in samples],
                   "probe_walls_s": probes, "probe_ref_s": PROBE_REF_S,
                   "unscaled_s": unscaled, "error_rate": len(failures) / attempted},
    }


def _importtime(budget: Budget, work: Path) -> tuple[float, float]:
    """(whole import of eigensens.cli, scipy.optimize inside it) in seconds."""
    path = work / "importtime.log"
    with path.open("wb") as fh:
        _, code, _ = run_child([sys.executable, "-X", "importtime", "-c", IMPORT_CLI],
                               budget, stderr=fh)
    if code != 0:
        raise RuntimeError(f"import of eigensens.cli failed with exit code {code}")
    total = scipy_opt = 0.0
    for line in path.read_text(encoding="utf-8").splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|(\s*)(\S+)$", line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(1)) / 1e6, len(m.group(2)), m.group(3)
        if name == "eigensens.cli" and indent == 1:
            total = cumulative
        elif name == "scipy.optimize":
            scipy_opt += cumulative
    return total, scipy_opt


def traced_run(workload, seed, input_csv, work, budget) -> dict:
    imports = [_importtime(budget, work) for _ in range(IMPORTTIME_REPEATS)]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    replays = {}
    for trace in (0, 1):
        out = work / f"replay{trace}.json"
        argv = [sys.executable, str(BENCH / "replay.py"), "--workload", workload.name,
                "--seed", str(seed), "--input", str(input_csv), "--work", str(work),
                "--trace", str(trace)]
        if trace:
            argv += ["--spans", str(WORK / "results" / f"spans-{workload.name}.jsonl")]
        with out.open("wb") as fh, (work / f"replay{trace}.err").open("wb") as err:
            _, code, _ = run_child(argv, budget, stdout=fh, stderr=err)
        if code != 0:
            raise RuntimeError(f"replay (trace {trace}) exited with {code}; see {err.name}")
        replays[trace] = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
    plain, traced = replays[0], replays[1]
    summary, counts, calls = traced["trace"], traced["counts"], traced["trace"]["calls"]
    incl = summary["inclusive_s"]

    def self_s(layer):
        return (summary["self_s"].get(layer, 0.0), "s")

    def inclusive(name):
        return (incl.get(name, 0.0), "s")

    def count(name):
        return (calls.get(name, 0), "count")

    metrics = {
        "setup.import_s": (statistics.median(t for t, _ in imports), "s"),
        "setup.scipy_optimize_import_s": (statistics.median(s for _, s in imports), "s"),
        "dataset.self_s": self_s("dataset"),
        "dataset.load_csv_s": inclusive("dataset.load_csv"),
        "dataset.LooEstimator.calls": count("dataset.LooEstimator"),
        "dataset.estimate_loo.calls": count("dataset.estimate_loo"),
        "eigen.self_s": self_s("eigen"),
        "eigen.eigh_s": inclusive("eigen.eigh"),
        "eigen.decompositions": (traced["decompositions"], "count"),
        "influence.self_s": self_s("influence"),
        "influence.loo_eigenvalue_table_s": inclusive("influence.loo_eigenvalue_table"),
        "influence.eigen_influence_s": inclusive("influence.eigen_influence"),
        "influence.approx_eigenvalues_loo.calls": count("influence.approx_eigenvalues_loo"),
        "subspace_diag.self_s": self_s("subspace_diag"),
        "subspace_diag.influence_records_s": inclusive("subspace_diag.influence_records"),
        "subspace_diag.eif_b_series_s": inclusive("subspace_diag.eif_b_series"),
        "subspace_diag.sif_b.calls": count("subspace_diag.sif_b"),
        "subspace_diag.sci.calls": count("subspace_diag.sci"),
        "switching.self_s": self_s("switching"),
        "switching.build_switch_report_s": inclusive("switching.build_switch_report"),
        "switching.verify_exact_s": inclusive("switching.verify_exact"),
        "switching.hybrid_influence_s": inclusive("switching.hybrid_influence"),
        "switching.events.switch": (counts.get("events.switch", 0), "count"),
        "switching.events.near_switch": (counts.get("events.near_switch", 0), "count"),
        "switching.verify_confirmed_ratio": (
            counts.get("confirmed", 0) / max(counts.get("verified", 0), 1), "ratio"),
        "switching.flagged_share": (
            counts.get("flagged", 0) / max(counts.get("rows", 0), 1), "ratio"),
        "cli.self_s": self_s("cli"),
        "cli.report_bytes": (traced["report_bytes"], "B"),
        "trace.overhead_ratio": (traced["replay_wall_s"] / plain["replay_wall_s"], "ratio"),
    }
    failures = [
        {"replay": trace, "invocation": r["name"], "problems": r["problems"]}
        for trace, rep in replays.items() for r in rep["runs"] if r["problems"]
    ]
    mismatches = traced["reference"]["mismatches"]
    if mismatches:
        failures.append({"replay": 1, "invocation": "reference", "problems": mismatches})
    attempted = len(plain["runs"]) + len(traced["runs"])
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "properties": traced["properties"],
        "detail": {"reference": traced["reference"], "counts": counts,
                   "spans": summary["spans"], "installed_spans": traced["installed_spans"],
                   "inclusive_s": incl, "calls": calls,
                   "replay_wall_s": {"untraced": plain["replay_wall_s"],
                                     "traced": traced["replay_wall_s"]},
                   "error_rate": len(failures) / attempted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "eigensens" / "cli.py").is_file():
        print(f"error: no eigensens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    budget = Budget(RUN_BUDGET_S)
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    input_csv = write_input(workload, args.seed, work, ROOT)
    if args.trace:
        result = traced_run(workload, args.seed, input_csv, work, budget)
    else:
        result = timed_run(workload, args.seed, args.seconds, input_csv, work, budget)
    props = result["properties"]
    failed = len(result["failures"])
    correct = failed == 0 and props["ok"]
    # a failed run keeps its inputs, reports and logs for inspection
    if correct:
        shutil.rmtree(work)
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for problem in props["problems"]:
        print(f"PROPERTY FAILED {workload.name}: {problem}", file=sys.stderr)

    record = {"workload": workload.name, "seed": args.seed,
              "pool_index": workload.pool_index(args.seed), "trace": args.trace,
              "seconds": args.seconds, "correct": correct, "attempted": result["attempted"],
              "failed": failed, "environment": environment(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
              "properties": props, "failures": result["failures"], "detail": result["detail"]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed} (input pool {record['pool_index']}) "
          f"trace {args.trace}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for name, value in result.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled)':40s} {value:.6g} s")
    print(f"  {'error_rate':40s} {result['detail']['error_rate']:.6g} "
          f"({failed} failed / {result['attempted']} attempted)")
    print(f"  {'properties':40s} {'hold' if props['ok'] else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
