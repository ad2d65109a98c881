#!/usr/bin/env python3
"""Where the time of ``step()`` goes on a benchmark workload.

Runs the invocation that ``perfbench/bench.py`` times: ``bench.prepare``
writes the inputs of ``--workload`` for the workload seed ``--seed``, and
``coocsim.cli.main`` runs them with the workload's first program seed,
``--repeats`` times. Every workload of ``BENCHMARK.json`` works. ``coocsim``
comes from ``PYTHONPATH``, so the same script times another checkout's
``src``. Run it from the root of a checkout: the inputs are written under
``.perfbench_work``, and star_ring's are generated with ``src``.

Each tick's ``dynamics.step`` time is split into stages by timing the
kernel's helpers from the outside:

* ``uniforms``: the ``agent_uniforms`` call (the tick's move draws);
* ``field``: the ``_linked_counts`` call that returns 2-D counts (the 8
  probes of every following agent);
* ``deactivation``: the ``_linked_counts`` call that returns 1-D counts;
* ``move_apply``: from the return of the last ``_sample_rows`` call (the
  move draw runs in blocks of followers) to the start of the deactivation
  call (writing the moved positions);
* ``other``: the rest of the step (finding the active rows, selection,
  walk draws, move sampling; at tick 0 also building ``model.layout``).

A stage the step skipped counts as 0 s. Ticks are grouped as ``tick_0``
(every agent active), ``follow_ticks`` (tick 1 on, with a field call),
``walk_only_ticks`` (no field call) and ``all_ticks``, all of them stepped
ticks; a group with no tick reads 0 s. Each group also has
``minor_faults``, the process's minor page faults (``ru_minflt``) taken
inside its steps: a fault costs a few microseconds, so the count tells
fresh memory from compute. Repeats after the first reuse the memory the
first one freed, so ``--repeats 1`` gives the faults of a fresh process,
as perfbench runs it. Each number is the median over the repeats of the
group's summed seconds or faults.

Once a step's plan has neither field nor freeze links, ``run`` advances to
each report tick in one ``_walk`` stretch instead of stepping. The
``walk_stretches`` group sums those: ``ticks`` advanced, ``total`` seconds,
``uniforms`` (the stretches' draw seconds) and ``minor_faults``; stepped and
stretched ticks together make the run. Prints JSON.

    PYTHONPATH=src python3 scripts/stage_split.py --repeats 7
    PYTHONPATH=src python3 scripts/stage_split.py --workload star_ring --repeats 7
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

from coocsim import cli, dynamics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench  # noqa: E402

STAGES = ("uniforms", "field", "deactivation", "move_apply", "other")
#: The functions of ``dynamics`` that the split wraps.
WRAPPED = ("step", "agent_uniforms", "_linked_counts", "_sample_rows", "_walk")
#: What the ``walk_stretches`` group sums over the stretches of a run.
STRETCH_KEYS = ("ticks", "total", "uniforms", "minor_faults")
GROUPS = {
    "tick_0": lambda t: t["tick"] == 0,
    "follow_ticks": lambda t: t["tick"] >= 1 and not t["walk_only"],
    "walk_only_ticks": lambda t: t["walk_only"],
    "all_ticks": lambda t: True,
}


def _instrument(ticks: list[dict], stretches: list[dict]) -> contextlib.ExitStack:
    """Wrap the ``WRAPPED`` functions of ``dynamics`` until the returned
    stack closes, so that every step appends its per-stage seconds to ``ticks``
    and every walk stretch its ``STRETCH_KEYS`` to ``stretches``."""
    step, uniforms, linked_counts, sample_rows, walk = (getattr(dynamics, name)
                                                        for name in WRAPPED)
    now = time.perf_counter
    marks: dict = {}

    def timed_uniforms(*args):
        start = now()
        out = uniforms(*args)
        marks["uniforms"] = marks.get("uniforms", 0.0) + now() - start  # a stretch draws per tick
        return out

    def timed_linked_counts(starts, xy, links):
        start = now()
        out = linked_counts(starts, xy, links)
        stage = "field" if out[2].ndim == 2 else "deactivation"  # (rows, 8) or per row
        marks[stage] = now() - start
        if stage == "deactivation" and "sampled" in marks:
            marks["move_apply"] = start - marks.pop("sampled")
        return out

    def timed_sample_rows(probs, u):
        out = sample_rows(probs, u)
        marks["sampled"] = now()
        return out

    def measured(function, *args, **kwargs):
        """``function``'s result, seconds and minor faults, its marks fresh."""
        marks.clear()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = now()
        out = function(*args, **kwargs)
        total = now() - start
        return out, total, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    def timed_step(state, *args, **kwargs):
        out, total, faults = measured(step, state, *args, **kwargs)
        row = {name: marks.get(name, 0.0) for name in STAGES[:-1]}
        row["other"] = total - sum(row.values())
        ticks.append(dict(row, tick=state.tick, total=total, minor_faults=faults,
                          walk_only="field" not in marks))
        return out

    def timed_walk(state, seed, n_ticks):
        out, total, faults = measured(walk, state, seed, n_ticks)
        stretches.append({"ticks": n_ticks, "total": total,
                          "uniforms": marks.get("uniforms", 0.0), "minor_faults": faults})
        return out

    stack = contextlib.ExitStack()
    for name, function in zip(WRAPPED, (timed_step, timed_uniforms, timed_linked_counts,
                                        timed_sample_rows, timed_walk)):
        stack.enter_context(mock.patch.object(dynamics, name, function))
    return stack


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(bench.WORKLOADS), default="dense_freeze")
    ap.add_argument("--seed", type=int, default=1, help="workload seed, as in bench.py")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    spec = bench.prepare(args.workload, args.seed)
    runs, stretch_runs = [], []
    for _ in range(args.repeats):
        ticks: list[dict] = []
        stretches: list[dict] = []
        with _instrument(ticks, stretches):
            if cli.main(spec.argv(0)) != 0:
                raise SystemExit(f"coocsim run failed on {args.workload}")
        runs.append(ticks)
        stretch_runs.append(stretches)
    out = {"workload": args.workload, "seed": args.seed, "program_seed": spec.program_seeds[0],
           "repeats": args.repeats, "stepped_tick_count": len(runs[0]),
           "walk_only_tick_count": sum(t["walk_only"] for t in runs[0])}
    for name, member in GROUPS.items():
        out[name] = {
            stage: round(statistics.median(sum(t[stage] for t in ticks if member(t))
                                           for ticks in runs), 5)
            for stage in STAGES + ("total", "minor_faults")
        }
    out["walk_stretches"] = {
        key: round(statistics.median(sum(s[key] for s in run) for run in stretch_runs), 5)
        for key in STRETCH_KEYS
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
