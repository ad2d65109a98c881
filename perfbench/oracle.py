"""Independent checks of `coocsim run` outputs for seeds without pinned digests.

The tick-0 report and snapshot are recomputed here from the documented
model: populations in order of first appearance in the matrix, placement
from the Philox stream ``SeedSequence((seed, 0))`` (all x, then all y), a
report counting each agent near any target agent once, and a snapshot
showing the highest agent id on each patch. Later ticks, which only the
simulator can produce, get structural checks. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

#: Snapshot colours by population index, as the README specifies them.
PALETTE = np.array([
    (230, 25, 75), (0, 130, 200), (60, 180, 75), (255, 225, 25),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
], dtype=np.uint8)

SCALE = 8


def matrix_populations(text: str) -> list[str]:
    """Population names in order of first appearance, source before target."""
    names: list[str] = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith(";"):
            continue
        for name in (tokens[0], tokens[4] if len(tokens) == 6 else None):
            if name is not None and name not in names:
                names.append(name)
    return names


def initial_placement(seed: int, sizes: list[int], side: int):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0))))
    n = sum(sizes)
    xs = gen.integers(0, side, size=n, dtype=np.int64)
    ys = gen.integers(0, side, size=n, dtype=np.int64)
    pop_index = np.repeat(np.arange(len(sizes)), sizes)
    return pop_index, xs, ys


def _disk_shifts(side: int, radius: float) -> set[tuple[int, int]]:
    reach = int(radius) + 1
    return {
        (dx % side, dy % side)
        for dx in range(-reach, reach + 1)
        for dy in range(-reach, reach + 1)
        if dx * dx + dy * dy <= radius * radius
    }


def report_csv(names, pop_index, xs, ys, side: int, target: str, radius: float) -> bytes:
    t = names.index(target)
    occupied = np.zeros((side, side), dtype=bool)
    occupied[xs[pop_index == t], ys[pop_index == t]] = True
    covered = np.zeros_like(occupied)
    for shift in _disk_shifts(side, radius):
        covered |= np.roll(occupied, shift, axis=(0, 1))
    per_pop = np.bincount(pop_index[covered[xs, ys]], minlength=len(names))
    counts = {name: int(per_pop[i]) for i, name in enumerate(names) if i != t}
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    average = sum(counts.values()) / len(counts) if counts else 0.0
    text = "population,count\n" + "".join(f"{n},{c}\n" for n, c in rows)
    return (text + f"_average,{average:.1f}\n").encode("utf-8")


def snapshot_ppm(pop_index, xs, ys, side: int) -> bytes:
    top = np.full((side, side), -1, dtype=np.int64)
    np.maximum.at(top, (ys, xs), np.arange(len(xs)))
    patch = np.zeros((side, side, 3), dtype=np.uint8)
    shown = top >= 0
    patch[shown] = PALETTE[pop_index[top[shown]] % len(PALETTE)]
    image = np.repeat(np.repeat(patch, SCALE, axis=0), SCALE, axis=1)
    return f"P6\n{side * SCALE} {side * SCALE}\n255\n".encode("ascii") + image.tobytes()


def report_problems(data: bytes, names, sizes, target: str) -> list[str]:
    """Shape of a report at any tick: every other population once, in order."""
    lines = data.decode("utf-8", errors="replace").split("\n")
    if lines[:1] != ["population,count"] or lines[-1] != "":
        return ["report header or final newline wrong"]
    rows = [line.rpartition(",") for line in lines[1:-1]]
    if not rows or rows[-1][0] != "_average":
        return ["report lacks a final _average row"]
    try:
        counts = [(name, int(value)) for name, _, value in rows[:-1]]
    except ValueError:
        return ["report count is not an integer"]
    size_of = dict(zip(names, sizes))
    expected = sorted(n for n in names if n != target)
    problems = []
    if sorted(n for n, _ in counts) != expected:
        problems.append("report rows do not list every non-target population once")
    if counts != sorted(counts, key=lambda kv: (-kv[1], kv[0])):
        problems.append("report rows are not sorted by count, then name")
    if any(not 0 <= c <= size_of.get(n, -1) for n, c in counts):
        problems.append("report count outside [0, population size]")
    average = sum(c for _, c in counts) / len(counts) if counts else 0.0
    if rows[-1][2] != f"{average:.1f}":
        problems.append("report _average does not match its rows")
    return problems


def snapshot_problems(data: bytes, side: int) -> list[str]:
    header = f"P6\n{side * SCALE} {side * SCALE}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + (side * SCALE) ** 2 * 3:
        return ["snapshot header or size wrong"]
    return []


def meta_problems(data: bytes, expected: dict) -> list[str]:
    try:
        meta = json.loads(data)
    except ValueError:
        return ["run_meta.json is not JSON"]
    return [f"run_meta.json {key} is {meta.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if meta.get(key) != value]
