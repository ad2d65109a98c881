#!/usr/bin/env python3
"""Where the time of ``step()`` goes on the dense_freeze configuration.

Runs the 100k-agent toy model (side 301, 60 ticks, no observers) a few
times and splits each tick's ``dynamics.step`` time into stages by timing
the kernel's helpers from the outside:

* ``uniforms``: the ``agent_uniforms`` call (the tick's move draws);
* ``field``: the ``_linked_counts`` call with probe offsets (the 8 probes
  of every following agent);
* ``deactivation``: the ``_linked_counts`` call without;
* ``move_apply``: from the return of ``_sample_rows`` to the start of the
  deactivation call (writing the moved positions);
* ``other``: the rest of the step (finding the active rows, selection,
  walk draws, move sampling).

A stage the step skipped counts as 0 s. Ticks are grouped as tick 0
(every agent active), ticks 1-6 (particles freezing) and walk-only ticks
(no field call). Each number is the median over the repeats of the
group's summed seconds. Prints JSON. The defaults are the first program
seed of the benchmark's dense_freeze workload at workload seed 1 and its
walker count.

    PYTHONPATH=src python3 scripts/stage_split.py --repeats 7
"""

import argparse
import json
import statistics
import time
from pathlib import Path

from coocsim import build_model, dynamics
from coocsim.io import parse_matrix, parse_rules

DATA = Path(__file__).resolve().parents[1] / "data"
STAGES = ("uniforms", "field", "deactivation", "move_apply", "other")
#: The functions of ``dynamics`` that the split wraps.
WRAPPED = ("step", "agent_uniforms", "_linked_counts", "_sample_rows")


def _instrument(ticks: list[dict]) -> None:
    """Wrap the ``WRAPPED`` functions of ``dynamics`` so that every step
    appends its per-stage seconds to ``ticks``."""
    step, uniforms, linked_counts, sample_rows = (getattr(dynamics, name) for name in WRAPPED)
    now = time.perf_counter
    marks: dict = {}

    def timed_uniforms(*args):
        start = now()
        out = uniforms(*args)
        marks["uniforms"] = now() - start
        return out

    def timed_linked_counts(side, starts, xy, links, probes=None):
        start = now()
        stage = "deactivation" if probes is None else "field"
        if stage == "deactivation" and "sampled" in marks:
            marks["move_apply"] = start - marks.pop("sampled")
        out = linked_counts(side, starts, xy, links, probes)
        marks[stage] = now() - start
        return out

    def timed_sample_rows(probs, u):
        out = sample_rows(probs, u)
        marks["sampled"] = now()
        return out

    def timed_step(state, *args, **kwargs):
        marks.clear()
        start = now()
        out = step(state, *args, **kwargs)
        total = now() - start
        row = {name: marks.get(name, 0.0) for name in STAGES[:-1]}
        row["other"] = total - sum(row.values())
        ticks.append(dict(row, tick=state.tick, total=total, walk_only="field" not in marks))
        return out

    _install((timed_step, timed_uniforms, timed_linked_counts, timed_sample_rows))


def _install(functions) -> None:
    for name, function in zip(WRAPPED, functions):
        setattr(dynamics, name, function)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=3620304598)
    ap.add_argument("--walkers", type=int, default=19622)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    rules = parse_rules((DATA / "rules.txt").read_text())
    matrix = parse_matrix((DATA / "matrix_toy.txt").read_text())
    sizes = {"walkers": args.walkers, "particles": 100_000 - args.walkers}
    model = build_model(rules, matrix, side=301, sizes=sizes, seed=args.seed, max_ticks=60)
    groups = {
        "tick_0": lambda t: t["tick"] == 0,
        "ticks_1_6": lambda t: 1 <= t["tick"] <= 6,
        "walk_only_ticks": lambda t: t["walk_only"],
        "all_ticks": lambda t: True,
    }
    original = tuple(getattr(dynamics, name) for name in WRAPPED)
    runs = []
    for _ in range(args.repeats):
        ticks: list[dict] = []
        _instrument(ticks)
        try:
            dynamics.run(model)
        finally:
            _install(original)
        runs.append(ticks)
    out = {"seed": args.seed, "walkers": args.walkers, "repeats": args.repeats,
           "walk_only_tick_count": sum(t["walk_only"] for t in runs[0])}
    for name, member in groups.items():
        out[name] = {
            stage: round(statistics.median(sum(t[stage] for t in ticks if member(t))
                                           for ticks in runs), 5)
            for stage in STAGES + ("total",)
        }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
