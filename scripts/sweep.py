#!/usr/bin/env python3
"""Wall time and peak memory of one model at growing sizes, each size in a fresh process.

Two sweeps, one per option, each run through ``coocsim.cli.main`` with no
snapshots in its own Python process:

* ``--sides`` (the default sweep): the toy run of ``data/rules.txt`` and
  ``data/matrix_toy.txt`` with 500 walkers and 500 particles, 3 ticks and the
  default report (the final tick), by lattice side.
* ``--pops``: a hub linked to a ring of ``pops - 1`` populations, each ring
  population also linked to its ring successor: the shape of perfbench's
  star_ring workload. Ring names sort before the hub's, so every ring
  population follows the hub. ``coocsim gen-matrix --kind extended`` writes
  the rules and matrix, and the run has 20 agents per population on a
  101 x 101 lattice for 8 ticks, with reports at ticks 0, 4 and 8 around the hub.

Each size runs ``RUNS`` times, each run in a fresh process, as single runs of
the same code vary by a fifth. Prints one table row per size: the side,
populations and agents of the run, the median wall time of ``cli.main`` in s,
the largest peak resident memory of the runs (``VmHWM`` of
``/proc/self/status``, so Linux only, in MB of 2**20 bytes) and the pads of
the wrap tables the runs built (``lattice._wrap_table``). Either
option alone sweeps its default sizes. ``coocsim`` comes from ``PYTHONPATH``,
so the same script measures another checkout's ``src``:

    PYTHONPATH=src python3 scripts/sweep.py --sides 301 1000
    PYTHONPATH=src python3 scripts/sweep.py --pops
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "data"
SIDES = (301, 1000, 2000, 3000)
POPS = (401, 1601, 6401)
RUNS = 3
HUB = "zhub"

#: One run in a fresh process, ``sys.argv[1:]`` being its ``coocsim`` arguments: prints its
#: exit code, the wall time of ``cli.main``, the wrap-table pads it built and its ``VmHWM``
#: in kB (``null`` where ``/proc/self/status`` has no such line) as JSON.
CHILD = """
import json, sys, time
from coocsim import cli, lattice
pads, table = set(), lattice._wrap_table
lattice._wrap_table = lambda side, pad: pads.add(pad) or table(side, pad)
start = time.perf_counter()
rc = cli.main(sys.argv[1:])
wall = time.perf_counter() - start
try:
    with open("/proc/self/status") as status:
        kb = next((int(line.split()[1]) for line in status if line.startswith("VmHWM:")), None)
except OSError:
    kb = None
print(json.dumps({"rc": rc, "wall_s": wall, "pads": sorted(pads), "vmhwm_kb": kb}))
"""


def toy_run(side: int, work: Path) -> tuple[tuple[int, int, int], list[str]]:
    """(side, populations, agents) and ``coocsim`` arguments of the toy run at ``side``."""
    return (side, 2, 1000), [
        "run", "--rules", str(DATA / "rules.txt"), "--matrix", str(DATA / "matrix_toy.txt"),
        "--side", str(side), "--size", "500", "--steps", "3", "--target", "walkers",
        "--out", str(work)]


def hub_run(pops: int, work: Path) -> tuple[tuple[int, int, int], list[str]]:
    """(side, populations, agents) and ``coocsim`` arguments of the hub and ring of ``pops``
    populations, writing its edge list, rules and matrix under ``work``."""
    work.mkdir(parents=True)
    ring = [f"r{i:05d}" for i in range(pops - 1)]
    lines = [f"{name} {HUB}" for name in ring]
    lines += [f"{name} {ring[(i + 1) % len(ring)]}" for i, name in enumerate(ring)]
    (work / "edges.txt").write_text("\n".join(lines) + "\n")
    rules, matrix = work / "rules.txt", work / "matrix.txt"
    subprocess.run([sys.executable, "-m", "coocsim.cli", "gen-matrix", str(work / "edges.txt"),
                    "--target", HUB, "--kind", "extended", "--rules-out", str(rules),
                    "--matrix-out", str(matrix)], check=True, capture_output=True)
    return (101, pops, 20 * pops), [
        "run", "--rules", str(rules), "--matrix", str(matrix), "--side", "101", "--size", "20",
        "--steps", "8", "--report-ticks", "0,4,8", "--target", HUB, "--out", str(work / "out")]


def measure(argv: list[str]) -> dict:
    """The run of ``coocsim`` arguments ``argv`` in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    if got["rc"]:
        raise SystemExit(f"error: coocsim {' '.join(argv)} returned {got['rc']}: {proc.stderr}")
    if got["vmhwm_kb"] is None:
        raise SystemExit("error: /proc/self/status has no VmHWM line, so peak memory is unknown")
    return got


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sweep = ap.add_mutually_exclusive_group()
    sweep.add_argument("--sides", type=int, nargs="*", help=f"toy run sides (default {SIDES})")
    sweep.add_argument("--pops", type=int, nargs="*",
                       help=f"hub-and-ring population counts, at least 4 (default {POPS})")
    args = ap.parse_args()
    sizes, build = args.sides or SIDES, toy_run
    if args.pops is not None:
        sizes, build = args.pops or POPS, hub_run
        if min(sizes) < 4:
            ap.error("a hub and ring needs at least 4 populations")
    print("| side | populations | agents | median `cli.main` (s) | largest `VmHWM` (MB) "
          "| wrap-table pads |")
    print("|------|-------------|--------|-----------------------|----------------------"
          "|-----------------|")
    with tempfile.TemporaryDirectory() as tmp:
        for size in sizes:
            (side, pops, agents), argv = build(size, Path(tmp) / str(size))
            runs = [measure(argv) for _ in range(RUNS)]
            wall = statistics.median(got["wall_s"] for got in runs)
            kb = max(got["vmhwm_kb"] for got in runs)
            pads = sorted({pad for got in runs for pad in got["pads"]})
            print(f"| {side} | {pops} | {agents} | {wall:.3f} | {kb / 1024:.1f} | "
                  f"{', '.join(map(str, pads))} |")


if __name__ == "__main__":
    main()
