"""Record ``golden.json``: the SHA-256 of every report on every pooled input.

    PYTHONPATH=src python3 bench/record_golden.py [--workload NAME ...]

Run only at a commit whose reports are known to be right: every later run of
the benchmark is checked against these digests.  Inputs whose defining
property does not hold are refused, never replaced by other seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import reports
from workloads import POOL, WORKLOADS, check_properties, write_input

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    import eigensens.cli

    golden = reports.load_golden()
    work = ROOT / ".bench_work" / "record"
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entry = {}
        for index in range(POOL if workload.make else 1):
            input_csv = write_input(workload, index, work, ROOT)
            runs = {}
            for inv in workload.invocations:
                out_dir = reports.fresh_dir(work / "out" / inv.name)
                code = eigensens.cli.main(inv.argv(input_csv, out_dir))
                if code != 0:
                    print(f"{name} {index} {inv.name}: exit code {code}", file=sys.stderr)
                    return 1
                runs[inv.name] = reports.digests(out_dir)
            props = check_properties(workload, work / "out")
            if not props["ok"]:
                print(f"{name} {index}: {props['problems']}", file=sys.stderr)
                return 1
            entry[str(index)] = runs
            print(f"{name} {index}: {sum(len(r) for r in runs.values())} files", flush=True)
        golden[name] = entry
        reports.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
