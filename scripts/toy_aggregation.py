#!/usr/bin/env python3
"""Two-population aggregation demo.

Runs the particles-follow-walkers model for the three classic size splits
and prints how the fraction of particles within the interaction distance of
a walker evolves, next to the uniform-placement chance level. Optionally
dumps P6 snapshots of one run per split.
"""

import argparse
from pathlib import Path

import numpy as np

from coocsim import build_model, neighborhood_counts, run
from coocsim.io import parse_matrix, parse_rules, render_snapshot
from coocsim.lattice import disk_offsets

DATA = Path(__file__).resolve().parents[1] / "data"
SPLITS = ((200, 800), (500, 500), (800, 200))  # (walkers, particles)


def chance_level(side, walkers, d):
    """Chance that a uniformly placed particle lies within ``d`` of one of
    ``walkers`` uniformly placed walkers: 1 - (1 - k/A)^n, with k the patches
    of one disk and A the patches of the world."""
    return 1 - (1 - len(disk_offsets(side, d)) / (side * side)) ** walkers


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--side", type=int, default=51)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--distance", type=float, default=2.0)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--ticks", type=int, nargs="+", default=[0, 3, 10])
    ap.add_argument("--snapshots", type=Path, help="directory for P6 snapshots")
    args = ap.parse_args()

    rules = parse_rules((DATA / "rules.txt").read_text())
    matrix = parse_matrix((DATA / "matrix_toy.txt").read_text())

    for walkers, particles in SPLITS:
        base = chance_level(args.side, walkers, args.distance)
        fractions = {t: [] for t in args.ticks}
        for seed in range(args.seeds):
            model = build_model(rules, matrix, side=args.side,
                                sizes={"walkers": walkers, "particles": particles},
                                beta=args.beta, seed=seed, max_ticks=max(args.ticks))
            observers = [lambda s, m: neighborhood_counts(s, "walkers", args.distance)]
            if args.snapshots and seed == 0:
                out = args.snapshots / f"w{walkers}_p{particles}"
                out.mkdir(parents=True, exist_ok=True)

                def snap(state, _model, out=out):
                    with open(out / f"snapshot_t{state.tick}.ppm", "wb") as sink:
                        render_snapshot(state, sink)
                    return None

                observers.append(snap)
            res = run(model, report_ticks=args.ticks, observers=observers)
            for t in args.ticks:
                fractions[t].append(res.observations[t][0].counts["particles"] / particles)
        cells = "  ".join(f"t={t}: {np.mean(v):.3f}" for t, v in fractions.items())
        print(f"walkers={walkers:>3} particles={particles:>3}  chance={base:.3f}  {cells}")


if __name__ == "__main__":
    main()
