#!/usr/bin/env python3
"""Wall time and peak memory of hub-and-ring runs by population count, each in a fresh process.

Every size is a hub linked to a ring of ``pops - 1`` populations, each ring
population also linked to its ring successor: the shape of perfbench's
star_ring workload. Ring names sort before the hub's, so every ring
population follows the hub. ``coocsim gen-matrix --kind extended`` writes the
rules and matrix, and ``coocsim run`` runs them through ``coocsim.cli.main``
with 20 agents per population on a 101 x 101 lattice for 8 ticks, reports at
ticks 0, 4 and 8 around the hub and no snapshots, in its own Python process.
Prints one table row per size: the wall time of ``cli.main`` in s and the
process's peak resident memory (``VmHWM`` of ``/proc/self/status``, so Linux
only, in MB of 2**20 bytes). ``coocsim`` comes from ``PYTHONPATH``, so the
same script measures another checkout's ``src``:

    PYTHONPATH=src python3 scripts/pop_sweep.py
    PYTHONPATH=src python3 scripts/pop_sweep.py --pops 401 1601
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

POPS = (401, 1601, 6401)
HUB = "zhub"

#: One run in a fresh process, ``sys.argv[1:]`` being its ``coocsim`` arguments:
#: prints its exit code, the wall time of ``cli.main`` and its ``VmHWM`` as JSON.
CHILD = """
import json, sys, time
from coocsim import cli
start = time.perf_counter()
rc = cli.main(sys.argv[1:])
wall = time.perf_counter() - start
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"rc": rc, "wall_s": wall, "vmhwm_mb": kb / 1024}))
"""


def edges(pops: int) -> str:
    """The hub-and-ring edge list of ``pops`` populations, ring names first in sort order."""
    ring = [f"r{i:05d}" for i in range(pops - 1)]
    lines = [f"{name} {HUB}" for name in ring]
    lines += [f"{name} {ring[(i + 1) % len(ring)]}" for i, name in enumerate(ring)]
    return "\n".join(lines) + "\n"


def measure(pops: int, work: Path) -> dict:
    """The hub-and-ring run of ``pops`` populations in a fresh process, writing under ``work``."""
    work.mkdir(parents=True)
    (work / "edges.txt").write_text(edges(pops))
    rules, matrix = work / "rules.txt", work / "matrix.txt"
    subprocess.run([sys.executable, "-m", "coocsim.cli", "gen-matrix", str(work / "edges.txt"),
                    "--target", HUB, "--kind", "extended", "--rules-out", str(rules),
                    "--matrix-out", str(matrix)], check=True, capture_output=True)
    argv = ["run", "--rules", str(rules), "--matrix", str(matrix), "--side", "101",
            "--size", "20", "--steps", "8", "--report-ticks", "0,4,8", "--target", HUB,
            "--out", str(work / "out")]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    if got["rc"]:
        raise SystemExit(f"error: {pops} populations: coocsim run returned {got['rc']}: "
                         f"{proc.stderr}")
    return got


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pops", type=int, nargs="+", default=POPS,
                    help="population counts, the hub included (at least 4)")
    args = ap.parse_args()
    if min(args.pops) < 4:
        ap.error("a hub and ring needs at least 4 populations")
    print("| populations | agents | `cli.main` (s) | `VmHWM` (MB) |")
    print("|-------------|--------|----------------|--------------|")
    with tempfile.TemporaryDirectory() as tmp:
        for pops in args.pops:
            got = measure(pops, Path(tmp) / str(pops))
            print(f"| {pops} | {20 * pops} | {got['wall_s']:.3f} | {got['vmhwm_mb']:.1f} |")


if __name__ == "__main__":
    main()
