"""Pin the sha256 digests of every output for the default and held-out seeds.

Usage, from the root of a checkout: python3 perfbench/pin.py

Only for a change that alters the outputs on purpose. Each workload runs
once per program seed of each pinned seed; nothing is written if any
output fails the oracle.
"""

from __future__ import annotations

import json
import shutil
import sys

import bench


def main() -> int:
    pinned = json.loads(bench.DIGESTS.read_text())
    for workload in bench.WORKLOADS:
        per_seed = {}
        for seed in (pinned["default_seed"], pinned["held_out_seed"]):
            spec = bench.prepare(workload, seed)
            per_seed[str(seed)] = []
            for k in range(len(spec.program_seeds)):
                result, problems = bench.invoke(spec, "plain", k)
                if result is not None:
                    problems += bench.oracle_problems(spec, k)
                if problems:
                    print(f"{workload} seed {seed}, program seed {k}: {problems}",
                          file=sys.stderr)
                    return 1
                per_seed[str(seed)].append(bench.output_digests(spec.out))
            shutil.rmtree(bench.WORK)
        pinned["workloads"][workload] = per_seed
    bench.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
