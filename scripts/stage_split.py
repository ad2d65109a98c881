#!/usr/bin/env python3
"""Where the time of ``step()`` goes on a benchmark configuration.

Runs one of two configurations a few times, without observers, and splits
each tick's ``dynamics.step`` time into stages by timing the kernel's
helpers from the outside:

* ``dense_freeze`` (the default): the 100k-agent toy model, side 301,
  60 ticks;
* ``star_ring``: a hub and a ring of 400 populations, built in-process with
  ``build_relation_model(..., kind="extended")``; ring names sort before
  the hub, so every ring population follows it. 20 agents each, side 101,
  8 ticks.

The stages:

* ``uniforms``: the ``agent_uniforms`` call (the tick's move draws);
* ``field``: the ``_linked_counts`` call with probe offsets (the 8 probes
  of every following agent);
* ``deactivation``: the ``_linked_counts`` call without;
* ``move_apply``: from the return of the last ``_sample_rows`` call (the
  move draw runs in blocks of followers) to the start of the deactivation
  call (writing the moved positions);
* ``other``: the rest of the step (finding the active rows, selection,
  walk draws, move sampling).

A stage the step skipped counts as 0 s. dense_freeze's ticks are grouped
as tick 0 (every agent active), ticks 1-6 (particles freezing) and
walk-only ticks (no field call); star_ring's as tick 0 and ticks 1-7.
Each number is the median over the repeats of the group's summed seconds.
Prints JSON. The default seeds are the first program seeds of the
benchmark's workloads at workload seed 1; the default walker count is
dense_freeze's. The benchmark's star_ring draws random ring names, so its
populations come in another order than here.

    PYTHONPATH=src python3 scripts/stage_split.py --repeats 7
    PYTHONPATH=src python3 scripts/stage_split.py --workload star_ring --repeats 7
"""

import argparse
import contextlib
import json
import statistics
import time
from pathlib import Path
from unittest import mock

from coocsim import build_model, dynamics
from coocsim.io import build_relation_model, parse_edge_list, parse_matrix, parse_rules

DATA = Path(__file__).resolve().parents[1] / "data"
STAGES = ("uniforms", "field", "deactivation", "move_apply", "other")
#: The functions of ``dynamics`` that the split wraps.
WRAPPED = ("step", "agent_uniforms", "_linked_counts", "_sample_rows")


def _instrument(ticks: list[dict]) -> contextlib.ExitStack:
    """Wrap the ``WRAPPED`` functions of ``dynamics`` until the returned
    stack closes, so that every step appends its per-stage seconds to ``ticks``."""
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

    stack = contextlib.ExitStack()
    for name, function in zip(WRAPPED, (timed_step, timed_uniforms, timed_linked_counts,
                                        timed_sample_rows)):
        stack.enter_context(mock.patch.object(dynamics, name, function))
    return stack


def _dense_freeze(args):
    rules = parse_rules((DATA / "rules.txt").read_text())
    matrix = parse_matrix((DATA / "matrix_toy.txt").read_text())
    sizes = {"walkers": args.walkers, "particles": 100_000 - args.walkers}
    model = build_model(rules, matrix, side=301, sizes=sizes, seed=args.seed, max_ticks=60)
    return model, {
        "tick_0": lambda t: t["tick"] == 0,
        "ticks_1_6": lambda t: 1 <= t["tick"] <= 6,
        "walk_only_ticks": lambda t: t["walk_only"],
        "all_ticks": lambda t: True,
    }


def _star_ring(args):
    ring = [f"r{i:03d}" for i in range(400)]
    text = "".join(f"{name} zhub\n{name} {ring[(i + 1) % len(ring)]}\n"
                   for i, name in enumerate(ring))
    relation = build_relation_model(parse_edge_list(text), "zhub", kind="extended")
    model = build_model(relation.rules, relation.matrix, side=101, sizes=20, seed=args.seed,
                        max_ticks=8)
    return model, {
        "tick_0": lambda t: t["tick"] == 0,
        "ticks_1_7": lambda t: t["tick"] >= 1,
        "all_ticks": lambda t: True,
    }


WORKLOADS = {"dense_freeze": (_dense_freeze, 3620304598), "star_ring": (_star_ring, 3566578055)}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="dense_freeze")
    ap.add_argument("--seed", type=int, help="program seed (default: the workload's)")
    ap.add_argument("--walkers", type=int, default=19622, help="dense_freeze only")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    build, default_seed = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = default_seed
    model, groups = build(args)
    runs = []
    for _ in range(args.repeats):
        ticks: list[dict] = []
        with _instrument(ticks):
            dynamics.run(model)
        runs.append(ticks)
    out = {"workload": args.workload, "seed": args.seed, "repeats": args.repeats,
           "walk_only_tick_count": sum(t["walk_only"] for t in runs[0])}
    if args.workload == "dense_freeze":
        out["walkers"] = args.walkers
    for name, member in groups.items():
        out[name] = {
            stage: round(statistics.median(sum(t[stage] for t in ticks if member(t))
                                           for ticks in runs), 5)
            for stage in STAGES + ("total",)
        }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
