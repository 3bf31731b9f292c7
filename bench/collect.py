"""Summarise per-run results into medians, quartiles and spreads.

    python3 bench/collect.py [--results DIR ...] [--out BENCH_x.json]

Reads the run records that ``run.py`` writes (``.bench_work/results/`` by
default).  Each results directory is one set of runs.  Within a set, runs are
grouped by workload and trace mode, and each metric's median, quartiles and
spread (interquartile distance over the median) is printed next to the bound
``BENCHMARK.json`` gives it; a spread at or above a third of the bound is
marked.  With several sets, each later set's end-to-end medians are compared
with the first set's, and counts are compared seed by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def summarise(results: Path, bounds: dict) -> dict:
    groups: dict = defaultdict(list)
    for path in sorted(results.glob("*-trace[01]-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        groups[(record["workload"], record["trace"])].append(record)

    workloads: dict = {}
    for (workload, trace), records in sorted(groups.items()):
        records.sort(key=lambda r: r["seed"])
        block = {
            "runs": len(records),
            "seeds": [r["seed"] for r in records],
            "all_correct": all(r["correct"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "metrics": {},
            "per_seed": {name: {str(r["seed"]): r["metrics"][name]["value"] for r in records}
                         for name in records[0]["metrics"]},
        }
        print(f"{results.name} {workload} trace {trace}: {len(records)} runs, "
              f"seeds {block['seeds']}, correct {block['all_correct']}, "
              f"failed {block['failed']}/{block['attempted']}")
        for name, by_seed in block["per_seed"].items():
            s = stats(list(by_seed.values()))
            s["unit"] = records[0]["metrics"][name]["unit"]
            bound = bounds.get(name) if trace == 0 else None
            mark = ""
            if bound is not None:
                s["bound"] = bound
                mark = f" bound {bound}" + ("  <-- spread >= bound/3" if s["spread"] >= bound / 3 else "")
            block["metrics"][name] = s
            print(f"  {name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}{mark}")
        block["environment"] = records[-1]["environment"]
        block["properties_hold"] = all(r["properties"]["ok"] for r in records)
        if trace:
            block["reference"] = [r["detail"]["reference"] for r in records]
        workloads.setdefault(workload, {})[f"trace{trace}"] = block
    return workloads


def compare(first: dict, later: dict, name: str) -> dict:
    """Median ratio per end-to-end metric, and whether counts repeat."""
    out: dict = {}
    for workload, modes in later.items():
        base = first.get(workload, {})
        for mode, block in modes.items():
            if mode not in base:
                continue
            for metric, s in block["metrics"].items():
                if mode == "trace0":
                    ratio = s["median"] / base[mode]["metrics"][metric]["median"]
                    out[f"{workload}/{metric}/median_ratio"] = ratio
                    print(f"{name} {workload:24s} {metric:20s} median / first set {ratio:.3f}")
                elif s["unit"] == "count":
                    same = block["per_seed"][metric] == base[mode]["per_seed"][metric]
                    out[f"{workload}/{metric}/counts_repeat"] = same
                    if not same:
                        print(f"{name} {workload} {metric}: counts differ from the first set")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--results", type=Path, nargs="+",
                        default=[ROOT / ".bench_work" / "results"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = {results.name: summarise(results, bounds) for results in args.results}
    summary: dict = {"sets": sets}
    names = list(sets)
    if len(names) > 1:
        summary["comparison"] = {name: compare(sets[names[0]], sets[name], name)
                                 for name in names[1:]}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
