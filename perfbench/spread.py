"""Run-to-run spread of the benchmark over several seeds, per workload.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--json runs.json] [--compare earlier.json]
                                [--baseline perfbench/baseline.json]

Runs ``bench.py`` once per workload of ``BENCHMARK.json`` and seed 1-10,
with the settings of ``BENCHMARK.json``, and prints, for each end-to-end
metric, the median and the distance between the first and third quartile
as a share of the median, next to the metric's bound. A spread below a third of the bound
counts as steady. ``--compare`` also checks that no median is worse than
the one in an earlier ``--json`` file by more than the bound.
``--baseline`` records the medians and quartiles, one traced run per
workload at the default seed, and the machine they came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_baseline(path: Path, runs: dict[str, list[dict]]) -> None:
    import numpy

    default_seed = json.loads(Path("perfbench/digests.json").read_text())["default_seed"]
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    why = {w["name"]: w["why"] for w in BENCH["workloads"]}
    baseline = {
        "commit": commit or "unknown",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "run_seconds": BENCH["run_seconds"],
        "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
        "workloads": {},
    }
    for workload, results in runs.items():
        end_to_end = {}
        for metric in BENCH["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                          "runs": len(values), "unit": metric["unit"]}
        traced = run_once(workload, default_seed, 1)
        baseline["workloads"][workload] = {
            "why": why[workload],
            "end_to_end": end_to_end,
            "per_layer_at_default_seed": traced["metrics"],
        }
    path.write_text(json.dumps(baseline, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", help="write every run's result here")
    parser.add_argument("--compare", help="earlier --json file to compare medians with")
    parser.add_argument("--baseline", help="write medians, quartiles and the machine here")
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs[workload] = []
        for seed in SEEDS:
            result = run_once(workload, seed, 0)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}

    if args.baseline:
        write_baseline(Path(args.baseline), runs)
    ok = True
    for workload, results in runs.items():
        ok &= all(r["correct"] and r["failed"] == 0 for r in results)
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"{workload:13s} {name:18s} median {median:12.6g}  spread {spread:7.4f}"
                    f"  bound {bound:.2f}  {'steady' if spread < bound / 3 else 'UNSTEADY'}")
            if workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                change = (median - before) / before
                worse = change > bound if metric["better"] == "lower" else -change > bound
                ok &= not worse
                line += f"  vs earlier {change:+.4f} {'WORSE' if worse else 'ok'}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
