"""One `coocsim run` invocation in a fresh process, timed from outside.

Usage: python3 perfbench/child.py plain|traced -- <coocsim cli arguments>

Run from the root of a checkout; coocsim is imported from its ``src``.
Prints one JSON object on stdout, with the time of a fixed calibration
workload taken right after the invocation. ``plain`` times ``cli.main``
and the end of its set-up only (see ``run_plain``). ``traced`` wraps the
public functions of every layer (see ``SPANS``) and afterwards replays the
first tick under tracemalloc to measure its peak allocation.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from tracer import Tracer, rebind, unbind


def _count_step(tracer, args, kwargs):
    state = args[0] if args else kwargs["state"]
    tracer.counts["agent_ticks"] += int(state.active.shape[0])
    tracer.counts["active_agent_ticks"] += int(np.count_nonzero(state.active))


@functools.lru_cache(maxsize=None)
def disk_patches(side: int, radius: float) -> int:
    """Patches within wrapped Euclidean distance ``radius`` of a patch."""
    ring = np.arange(side)
    w = np.minimum(ring, side - ring) ** 2
    return int(np.count_nonzero(w[:, None] + w[None, :] <= radius * radius))


def _count_disk_sum(tracer, args, kwargs):
    side = int(args[1] if len(args) > 1 else kwargs["side"])
    radius = float(args[2] if len(args) > 2 else kwargs["radius"])
    tracer.counts["disk_sum_cell_adds"] += disk_patches(side, radius) * side * side


def _count_uniforms(tracer, args, kwargs):
    tracer.counts["agent_uniforms_draws"] += int(args[2] if len(args) > 2 else kwargs["n_agents"])


#: (module, function, span, count hook): the layer boundaries timed in a
#: traced invocation.
SPANS = (
    ("coocsim.cli", "main", "cli.main", None),
    ("coocsim.io", "parse_rules", "io.parse_rules", None),
    ("coocsim.io", "parse_matrix", "io.parse_matrix", None),
    ("coocsim.model", "build_model", "model.build_model", None),
    ("coocsim.model", "validate", "model.validate", None),
    ("coocsim.model", "initialize", "model.initialize", None),
    ("coocsim.dynamics", "run", "dynamics.run", None),
    ("coocsim.dynamics", "step", "dynamics.step", _count_step),
    ("coocsim.lattice", "disk_sum", "lattice.disk_sum", _count_disk_sum),
    ("coocsim.world", "agent_uniforms", "world.agent_uniforms", _count_uniforms),
    ("coocsim.metrics", "neighborhood_counts", "metrics.neighborhood_counts", None),
    ("coocsim.io", "write_report_csv", "io.write_report_csv", None),
    ("coocsim.io", "render_snapshot", "io.render_snapshot", None),
)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array and large-array work.

    Run twice right after each invocation, so the parent can express times
    at a reference speed of the host; see ``bench.CALIBRATION_REF_S``. Not
    before it: the program's own first use of numpy and its peak resident
    memory must not include the calibration. The large-array part, shaped
    like a step over 100k agents on a 301 x 301 lattice, tracks slowdowns
    that the small parts miss.
    """
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i
    grid = np.arange(101 * 101, dtype=np.int64).reshape(101, 101)
    acc = np.zeros_like(grid)
    for i in range(600):
        acc += np.roll(grid, (i % 7, i % 5), axis=(0, 1))
    # Fixed scrambled positions, about one in five on a shared patch.
    agents = np.arange(100_000, dtype=np.int64)
    cells = 301 * 301
    where = agents * 7919 % cells
    draws = agents * 40503 % 65536 / 65536.0
    for i in range(12):
        crowded = np.bincount(where, minlength=cells)[where] > 1
        where = np.where(crowded & (draws < 0.5), (where + 301 * (i % 3) + 1) % cells, where)
        if i % 4 == 0:
            draws = draws[np.argsort(where, kind="stable")]
    return time.perf_counter() - start


def _import_program(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import coocsim.cli

    if src not in Path(coocsim.__file__).resolve().parents:
        raise SystemExit(f"coocsim was imported from {coocsim.__file__}, not from {src}")
    return coocsim


def run_plain(coocsim, argv: list[str]) -> dict:
    """Time ``cli.main``; set-up ends when ``initialize`` returns.

    Set-up then covers parsing, model building, validation and placement,
    not the tick-0 report and snapshot. Should ``initialize`` be gone, it
    ends at the first ``dynamics.step`` call instead. The hooks take
    themselves out once set-up has ended.
    """
    marks: dict[str, float] = {}
    undo: list = []

    def end_setup():
        marks.setdefault("setup_end", time.perf_counter())
        unbind(undo)

    initialize = getattr(coocsim.model, "initialize", None)
    step = getattr(coocsim.dynamics, "step", None)
    if initialize is not None:
        def initialize_then_mark(*args, **kwargs):
            state = initialize(*args, **kwargs)
            end_setup()
            return state
        undo.extend(rebind(initialize, initialize_then_mark))
    if step is not None:
        def mark_then_step(*args, **kwargs):
            end_setup()
            return step(*args, **kwargs)
        undo.extend(rebind(step, mark_then_step))
    start = time.perf_counter()
    rc = coocsim.cli.main(argv)
    wall = time.perf_counter() - start
    unbind(undo)
    setup = marks["setup_end"] - start if "setup_end" in marks else None
    return {"rc": rc, "wall_s": wall, "setup_s": setup}


def run_traced(coocsim, argv: list[str]) -> dict:
    first_step: list[tuple[tuple, dict]] = []

    def count_step(tracer, args, kwargs):
        _count_step(tracer, args, kwargs)
        if not first_step:
            first_step.append((args, kwargs))

    tracer = Tracer()
    with tracer:
        for module, attr, span, hook in SPANS:
            tracer.wrap(module, attr, span, count_step if hook is _count_step else hook)
        start = time.perf_counter()
        rc = coocsim.cli.main(argv)
        wall = time.perf_counter() - start
    peak = None
    if first_step and rc == 0:
        args, kwargs = first_step[0]
        tracemalloc.start()
        coocsim.dynamics.step(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {
        "rc": rc,
        "wall_s": wall,
        "total": tracer.total,
        "self": tracer.self_time,
        "calls": tracer.calls,
        "counts": tracer.counts,
        "missing": sorted(tracer.missing),
        "broken_counts": sorted(tracer.broken_counts),
        "step_peak_alloc_bytes": peak,
    }


def main() -> None:
    mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "traced"):
        raise SystemExit(__doc__)
    coocsim = _import_program(Path.cwd())
    result = (run_plain if mode == "plain" else run_traced)(coocsim, argv)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calibration_s"] = (calibrate() + calibrate()) / 2
    print(json.dumps(result))


if __name__ == "__main__":
    main()
