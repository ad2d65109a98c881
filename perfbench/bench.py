"""Benchmark of `coocsim run`: end-to-end time and memory, per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/bench.py --workload small_set --seed 1 --seconds 35 --trace 0

Each invocation of ``coocsim.cli.main`` runs in a fresh single-threaded
process (``child.py``), so its peak resident memory is its own. The inputs
(a generated edge list or sizes file, and a list of program seeds) come
from ``--seed``; the program only receives the files and its ``--seed``.
After one warm-up, invocations repeat for about ``--seconds``.

Every invocation's outputs are checked. The first outputs for a program
seed must pass an independent oracle (``oracle.py``). For the seeds in
``digests.json`` every output must match the pinned sha256 digests;
otherwise it must match the first outputs for its program seed.

``--trace 0`` goes through the program seeds in whole cycles, so every
seed weighs the same whatever the program's speed, and reports the
end-to-end metrics, medians over the invocations:

* ``wall_s``: ``cli.main`` from entry to return.
* ``setup_s``: ``cli.main`` entry to the return of ``initialize``: parsing,
  model building, validation and placement. The tick-0 report and
  snapshot come after it.
* ``agent_ticks_per_s``: agents x ticks / (``wall_s`` - ``setup_s``).
* ``peak_rss_mb``: peak resident memory of the invocation's process.

Times are given at a reference speed of the host: each invocation's times
are multiplied by ``CALIBRATION_REF_S`` over the time of a fixed
calibration workload run in the same process right after it.
On a shared host the speed of identical work drifts by a third for tens of
seconds at a time, which left raw medians of 35 s runs 15-26% apart; the
human-readable lines also give the raw median.

``--trace 1`` alternates plain and traced invocations on the first program
seed and reports the per-layer metrics of the traced ones (``child.SPANS``)
and the tracing overhead. Counts must repeat exactly between invocations.
A metric whose function no longer exists is reported as null.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
WORK = Path(".perfbench_work")

#: A traced run makes at least this many pairs of invocations.
MIN_ROUNDS = 3
#: No round starts after this many seconds and no invocation may take
#: longer than the timeout, so a run ends within three minutes even when
#: the program has become slow.
START_LIMIT_S = 100.0
INVOKE_TIMEOUT_S = 35.0

CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


#: Program seeds per workload seed; one cycle through them fits in a run at
#: the seed commit's speed. A plain run goes through them in whole cycles,
#: so its median covers many placements, each with the same weight; a
#: traced run repeats the first one. ``small_set`` has the most because the
#: work of one seed varies most there.
PROGRAM_SEEDS = {"small_set": 24, "dense_freeze": 8, "star_ring": 8}

#: Time of ``child.calibrate`` at the reference speed of the host. Every
#: end-to-end time is scaled by this over the calibration time measured
#: right after the same invocation.
CALIBRATION_REF_S = 0.09


@dataclass(frozen=True)
class Spec:
    """One workload instance: the CLI arguments and what they must produce."""

    cfg: dict
    out: Path
    names: tuple[str, ...]
    sizes: tuple[int, ...]
    program_seeds: tuple[int, ...]

    @property
    def agent_ticks(self) -> int:
        return sum(self.sizes) * self.cfg["steps"]

    def argv(self, k: int) -> list[str]:
        cfg = self.cfg
        argv = ["run", "--rules", cfg["rules"], "--matrix", cfg["matrix"],
                "--side", str(cfg["side"]), "--size", str(cfg["size"]),
                "--steps", str(cfg["steps"]), "--seed", str(self.program_seeds[k]),
                "--report-ticks", ",".join(map(str, cfg["ticks"])),
                "--target", cfg["target"], "--distance", "2", "--out", str(self.out),
                "--snapshots"]
        return argv + (["--sizes", cfg["sizes_file"]] if cfg["sizes"] else [])

    def meta(self, k: int) -> dict:
        cfg = self.cfg
        return {
            "rules_path": cfg["rules"], "matrix_path": cfg["matrix"],
            "lattice_side": cfg["side"], "steps": cfg["steps"],
            "seed": self.program_seeds[k], "report_ticks": list(cfg["ticks"]),
            "target": cfg["target"], "distance": 2.0, "snapshots": True,
            "sizes": dict(zip(self.names, self.sizes)),
        }


SMALL_STEPS = 100


def _small_set(rng: random.Random, wdir: Path) -> dict:
    # The README run cut to 100 ticks: disk_sum dominates the start, and by
    # tick ~80 most of the 13 populations froze, leaving the fixed per-tick
    # and per-population overhead. At 1000 ticks the cost of one program
    # seed ranged 1.1-3.5 s (cv 0.27) against cv 0.15 at 100 ticks, and
    # too few seeds fitted in a run for a steady median.
    return dict(rules="data/rules.txt", matrix="data/matrix_small_set.txt", sizes=None,
                size=100, side=31, steps=SMALL_STEPS, ticks=(0, 20, SMALL_STEPS),
                target="walkers")


DENSE_STEPS = 60


def _dense_freeze(rng: random.Random, wdir: Path) -> dict:
    # 100k agents; the particles freeze within ~10 ticks, after which the
    # walkers keep every per-agent vector of the step busy.
    walkers = 20000 + rng.randrange(-500, 501)
    sizes = {"walkers": walkers, "particles": 100000 - walkers}
    return dict(rules="data/rules.txt", matrix="data/matrix_toy.txt", sizes=sizes,
                size=100, side=301, steps=DENSE_STEPS, ticks=(0, 10, DENSE_STEPS),
                target="walkers")


RING = 400
STAR_STEPS = 8
_RING_LETTERS = "abcdefghijklmnopqrstuvwxy"


def _star_ring(rng: random.Random, wdir: Path) -> dict:
    # A hub linked to 400 ring populations, each also linked to its ring
    # successor. Ring names sort before the hub name, so every ring
    # population follows the hub: 401 populations, 1201 matrix entries.
    ring: set[str] = set()
    while len(ring) < RING:
        ring.add("".join(rng.choice(_RING_LETTERS) for _ in range(8)))
    ordered = sorted(ring)
    hub = "z" + "".join(rng.choice(_RING_LETTERS) for _ in range(7))
    edges = [(name, hub) for name in ordered]
    edges += [(ordered[i], ordered[(i + 1) % RING]) for i in range(RING)]
    rng.shuffle(edges)
    lines = [f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}" for a, b in edges]
    edge_file = wdir / "edges.txt"
    edge_file.write_text("# generated hub and ring\n" + "\n".join(lines) + "\n")
    rules, matrix = wdir / "rules.txt", wdir / "matrix.txt"
    subprocess.run(
        [sys.executable, "-m", "coocsim.cli", "gen-matrix", str(edge_file), "--target", hub,
         "--kind", "extended", "--rules-out", str(rules), "--matrix-out", str(matrix)],
        env={**CHILD_ENV, "PYTHONPATH": "src"}, check=True, capture_output=True, timeout=60,
    )
    return dict(rules=str(rules), matrix=str(matrix), sizes=None, size=20, side=101,
                steps=STAR_STEPS, ticks=(0, STAR_STEPS // 2, STAR_STEPS), target=hub)


WORKLOADS = {"small_set": _small_set, "dense_freeze": _dense_freeze, "star_ring": _star_ring}


def prepare(workload: str, seed: int) -> Spec:
    """Write the workload's inputs for ``seed`` and return the run's spec."""
    wdir = WORK / workload
    if wdir.exists():
        shutil.rmtree(wdir)
    wdir.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    program_seeds = tuple(rng.randrange(2**32) for _ in range(PROGRAM_SEEDS[workload]))
    cfg = WORKLOADS[workload](rng, wdir)
    names = tuple(oracle.matrix_populations(Path(cfg["matrix"]).read_text()))
    overrides = cfg["sizes"] or {}
    if overrides:
        cfg["sizes_file"] = str(wdir / "sizes.txt")
        Path(cfg["sizes_file"]).write_text(
            "# generated sizes\n" + "".join(f"{n} {k}\n" for n, k in overrides.items()))
    sizes = tuple(overrides.get(name, cfg["size"]) for name in names)
    return Spec(cfg, wdir / "out", names, sizes, program_seeds)


def invoke(spec: Spec, mode: str, k: int) -> tuple[dict | None, list[str]]:
    """Run one invocation with program seed ``k`` in a child process.

    Returns its result, or None, and the problems found.
    """
    if spec.out.exists():
        shutil.rmtree(spec.out)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, "--", *spec.argv(k)],
            env=CHILD_ENV, capture_output=True, text=True, timeout=INVOKE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, [f"{mode} invocation exceeded {INVOKE_TIMEOUT_S:.0f} s"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, [f"{mode} invocation exited with {proc.returncode}: {tail[0]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["rc"] != 0:
        return None, [f"coocsim run returned {result['rc']}"]
    return result, []


def output_digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def digest_problems(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    problems = []
    for name in sorted(actual.keys() | expected.keys()):
        if name not in actual:
            problems.append(f"{name} missing")
        elif name not in expected:
            problems.append(f"{name} not expected")
        elif actual[name] != expected[name]:
            problems.append(f"{name} digest differs")
    return problems


def oracle_problems(spec: Spec, k: int) -> list[str]:
    """Check outputs against the model itself: tick 0 exactly, later ticks by shape."""
    cfg = spec.cfg
    ticks = cfg["ticks"]
    expected = ({f"report_t{t}.csv" for t in ticks} | {f"snapshot_t{t}.ppm" for t in ticks}
                | {"run_meta.json"})
    present = set(output_digests(spec.out))
    if present != expected:
        return [f"output files {sorted(present)} differ from {sorted(expected)}"]
    read = lambda name: (spec.out / name).read_bytes()
    side, target = cfg["side"], cfg["target"]
    pop_index, xs, ys = oracle.initial_placement(spec.program_seeds[k], list(spec.sizes), side)
    problems = []
    if read("report_t0.csv") != oracle.report_csv(
            list(spec.names), pop_index, xs, ys, side, target, 2.0):
        problems.append("report_t0.csv differs from the oracle")
    if read("snapshot_t0.ppm") != oracle.snapshot_ppm(pop_index, xs, ys, side):
        problems.append("snapshot_t0.ppm differs from the oracle")
    for t in ticks:
        problems += oracle.report_problems(read(f"report_t{t}.csv"), spec.names, spec.sizes,
                                           target)
        problems += oracle.snapshot_problems(read(f"snapshot_t{t}.ppm"), side)
    return problems + oracle.meta_problems(read("run_meta.json"), spec.meta(k))


def pinned_digests(workload: str, seed: int) -> list[dict[str, str]] | None:
    """Digests per program seed, for the workload seeds that have them."""
    pinned = json.loads(DIGESTS.read_text())
    return pinned["workloads"].get(workload, {}).get(str(seed))


class Session:
    """Invocations of one run, with the outputs of each checked."""

    def __init__(self, spec: Spec, pinned: list[dict[str, str]] | None):
        self.spec = spec
        self.pinned = pinned
        self.reference: dict[int, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, mode: str, k: int) -> dict | None:
        """Invoke once; return the result, or None if it failed or its outputs are wrong.

        The first outputs for each program seed go through the oracle; every
        output must match the pinned digests, or else the first outputs.
        """
        self.attempted += 1
        result, problems = invoke(self.spec, mode, k)
        if result is not None:
            digests = output_digests(self.spec.out)
            if k not in self.reference:
                problems = oracle_problems(self.spec, k)
                self.reference[k] = self.pinned[k] if self.pinned else digests
            problems += digest_problems(digests, self.reference[k])
        if problems:
            self.failed += 1
            self.problems += [f"{mode} invocation, program seed {k}: {p}" for p in problems]
            return None
        if mode == "traced":
            result["output_bytes"] = sum(p.stat().st_size for p in self.spec.out.iterdir())
        return result


# Per-layer metrics of one traced invocation: name -> (unit, kind, value).
# A "median" metric is the median over invocations; an "exact" one must
# repeat exactly from one invocation to the next.
def layer_values(r: dict) -> dict[str, tuple[str, str, float | int | None]]:
    missing = set(r["missing"])
    broken = missing | set(r["broken_counts"])

    def total(*spans):
        present = [r["total"].get(s, 0.0) for s in spans if s not in missing]
        return sum(present) if present else None

    def own(span):
        return None if span in missing else r["self"].get(span, 0.0)

    def calls(span):
        return None if span in missing else r["calls"].get(span, 0)

    def count(span, key):
        return None if span in broken else r["counts"].get(key, 0)

    active = count("dynamics.step", "active_agent_ticks")
    all_ticks = count("dynamics.step", "agent_ticks")
    peak = r["step_peak_alloc_bytes"]
    return {
        "lattice.disk_sum_s": ("s", "median", total("lattice.disk_sum")),
        "lattice.disk_sum_calls": ("count", "exact", calls("lattice.disk_sum")),
        "lattice.disk_sum_cell_adds": ("count", "exact", count("lattice.disk_sum", "disk_sum_cell_adds")),
        "dynamics.step_s": ("s", "median", total("dynamics.step")),
        "dynamics.step_self_s": ("s", "median", own("dynamics.step")),
        "dynamics.step_calls": ("count", "exact", calls("dynamics.step")),
        "dynamics.active_agent_ticks": ("count", "exact", active),
        "dynamics.active_frac": ("ratio", "exact", active / all_ticks if all_ticks else None),
        "dynamics.step_peak_alloc_mb": ("MB", "median", None if peak is None else peak / 2**20),
        "world.agent_uniforms_s": ("s", "median", total("world.agent_uniforms")),
        "world.agent_uniforms_draws": ("count", "exact", count("world.agent_uniforms", "agent_uniforms_draws")),
        "io.render_snapshot_s": ("s", "median", total("io.render_snapshot")),
        "io.render_snapshot_calls": ("count", "exact", calls("io.render_snapshot")),
        "io.parse_s": ("s", "median", total("io.parse_rules", "io.parse_matrix")),
        "model.build_s": ("s", "median", total("model.build_model")),
        "model.validate_s": ("s", "median", total("model.validate")),
        "model.initialize_s": ("s", "median", total("model.initialize")),
        "io.write_report_csv_s": ("s", "median", total("io.write_report_csv")),
        "io.output_bytes": ("count", "exact", r["output_bytes"]),
        "metrics.neighborhood_counts_s": ("s", "median", total("metrics.neighborhood_counts")),
        "metrics.neighborhood_counts_calls": ("count", "exact", calls("metrics.neighborhood_counts")),
        "cli.self_s": ("s", "median", own("cli.main")),
    }


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, range {min(values):.6g}..{max(values):.6g}"


def _at_reference_speed(r: dict, key: str) -> float:
    return r[key] * CALIBRATION_REF_S / r["calibration_s"]


def end_to_end(spec: Spec, plain: list[dict]) -> dict:
    walls = [_at_reference_speed(r, "wall_s") for r in plain]
    setups = [_at_reference_speed(r, "setup_s") for r in plain if r["setup_s"] is not None]
    wall = statistics.median(walls)
    setup = statistics.median(setups) if setups else None
    raw = statistics.median(r["wall_s"] for r in plain)
    calibration = statistics.median(r["calibration_s"] for r in plain)
    rss = [r["peak_rss_mb"] for r in plain]
    return {
        "wall_s": (wall, "s", _spread(walls) + f"; raw median {raw:.6g} s, "
                   f"calibration median {calibration:.6g} s"),
        "setup_s": (setup, "s", _spread(setups) if setups else "unmeasured"),
        "agent_ticks_per_s": (
            spec.agent_ticks / (wall - setup) if setup is not None else None, "1/s",
            f"{spec.agent_ticks} agent-ticks / (wall_s - setup_s)"),
        "peak_rss_mb": (statistics.median(rss), "MB", _spread(rss)),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    rows = [layer_values(r) for r in traced]
    metrics, problems = {}, []
    for name, (unit, kind, _) in rows[0].items():
        values = [row[name][2] for row in rows]
        if any(v is None for v in values):
            metrics[name] = (None, unit, "unmeasured: the traced function is gone")
        elif kind == "exact":
            if len(set(values)) != 1:
                problems.append(f"{name} did not repeat exactly: {sorted(set(values))}")
            metrics[name] = (values[0], unit, f"exact, {len(values)} invocations")
        else:
            metrics[name] = (statistics.median(values), unit, _spread(values))
    untraced = statistics.median(_at_reference_speed(r, "wall_s") for r in plain)
    traced_wall = statistics.median(_at_reference_speed(r, "wall_s") for r in traced)
    metrics["trace.overhead_frac"] = (
        traced_wall / untraced - 1.0, "ratio",
        f"traced wall_s {traced_wall:.6g} s over untraced {untraced:.6g} s")
    return metrics, problems


def measure_pairs(session: Session, seconds: float, started: float) -> dict[str, list[dict]]:
    """Alternate plain and traced invocations of program seed 0 for ``seconds``."""
    samples: dict[str, list[dict]] = {"plain": [], "traced": []}
    deadline = time.monotonic() + seconds
    rounds = 0
    while ((time.monotonic() < deadline or rounds < MIN_ROUNDS)
           and time.monotonic() - started < START_LIMIT_S):
        rounds += 1
        for mode in samples:
            result = session.attempt(mode, 0)
            if result is not None:
                samples[mode].append(result)
    return samples


def measure_cycles(session: Session, seconds: float, started: float) -> tuple[list[dict], str]:
    """Invoke every program seed once per cycle, in whole cycles.

    The first cycle always runs; another starts only if, as long as the last
    one, it still ends within ``seconds``. Only ``START_LIMIT_S`` cuts a cycle
    short, and then its results are dropped unless it is the first.
    Returns the results and how many cycles they cover.
    """
    results: list[dict] = []
    begin = time.monotonic()
    cycles = 0
    while True:
        cycle_start = time.monotonic()
        cycle = []
        for k in range(len(session.spec.program_seeds)):
            if time.monotonic() - started > START_LIMIT_S:
                if cycles:
                    return results, str(cycles)
                return cycle, f"part of one ({len(cycle)} seeds, cut at {START_LIMIT_S:.0f} s)"
            result = session.attempt("plain", k)
            if result is not None:
                cycle.append(result)
        results += cycle
        cycles += 1
        now = time.monotonic()
        if now + (now - cycle_start) > begin + seconds:
            return results, str(cycles)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/coocsim/cli.py").is_file():
        print("error: run from the root of a coocsim checkout (src/coocsim/cli.py not found)",
              file=sys.stderr)
        return 2
    started = time.monotonic()

    spec = prepare(args.workload, args.seed)
    pinned = pinned_digests(args.workload, args.seed)
    session = Session(spec, pinned)
    session.attempt("plain", 0)  # warm-up, not measured

    if args.trace:
        samples = measure_pairs(session, args.seconds, started)
        measured = "program seed 0 repeated"
    else:
        plain, cycles = measure_cycles(session, args.seconds, started)
        samples = {"plain": plain}
        measured = f"{cycles} cycle(s) of {len(spec.program_seeds)} program seeds"
    shutil.rmtree(WORK)

    metrics: dict = {}
    problems = session.problems
    if all(samples.values()):
        if args.trace:
            metrics, errors = per_layer(samples["plain"], samples["traced"])
            problems += errors
        else:
            metrics = end_to_end(spec, samples["plain"])
    for problem in dict.fromkeys(problems):
        print(f"problem: {problem}", file=sys.stderr)

    cfg = spec.cfg
    print(f"workload {args.workload}, seed {args.seed}: {sum(spec.sizes)} agents x "
          f"{cfg['steps']} ticks, side {cfg['side']}, {measured}, outputs checked "
          f"against {'pinned digests' if pinned else 'the oracle and the first outputs'}")
    print(f"failed_frac {session.failed / session.attempted:.4f} "
          f"({session.failed} of {session.attempted} invocations)")
    for name, (value, unit, how) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {unit:6s} {how}")
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
