#!/usr/bin/env python3
"""Peak memory of the toy run by lattice side, each side in a fresh process.

Runs ``coocsim run`` through ``coocsim.cli.main`` on ``data/rules.txt`` and
``data/matrix_toy.txt`` with 500 walkers and 500 particles, 3 ticks, the
default report (the final tick) and no snapshots, once per side, each in its
own Python process. Prints one table row per side: the process's peak
resident memory (``VmHWM`` of ``/proc/self/status``, so Linux only, in MB of
2**20 bytes) and the pads of the wrap tables the run built
(``lattice._wrap_table``). ``coocsim`` comes from ``PYTHONPATH``, so the same
script measures another checkout's ``src``:

    PYTHONPATH=src python3 scripts/side_sweep.py
    PYTHONPATH=src python3 scripts/side_sweep.py --sides 301 1000
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "data"
SIDES = (301, 1000, 2000, 3000)

#: One run in a fresh process, ``sys.argv[1:]`` being its ``coocsim`` arguments:
#: prints its exit code, the wrap-table pads it built and its ``VmHWM`` as JSON.
CHILD = """
import json, sys
from coocsim import cli, lattice
pads, table = set(), lattice._wrap_table
lattice._wrap_table = lambda side, pad: pads.add(pad) or table(side, pad)
rc = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"rc": rc, "pads": sorted(pads), "vmhwm_mb": kb / 1024}))
"""


def measure(side: int, out: Path) -> dict:
    """The toy run at ``side`` in a fresh process, writing under ``out``."""
    argv = ["run", "--rules", str(DATA / "rules.txt"), "--matrix", str(DATA / "matrix_toy.txt"),
            "--side", str(side), "--size", "500", "--steps", "3", "--target", "walkers",
            "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    if got["rc"]:
        raise SystemExit(f"error: side {side}: coocsim run returned {got['rc']}: {proc.stderr}")
    return got


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sides", type=int, nargs="+", default=SIDES)
    args = ap.parse_args()
    print("| side | `VmHWM` (MB) | wrap-table pads |")
    print("|------|--------------|-----------------|")
    with tempfile.TemporaryDirectory() as tmp:
        for side in args.sides:
            got = measure(side, Path(tmp) / str(side))
            print(f"| {side} | {got['vmhwm_mb']:.1f} | {', '.join(map(str, got['pads']))} |")


if __name__ == "__main__":
    main()
