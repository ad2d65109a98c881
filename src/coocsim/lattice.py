"""Toroidal square-lattice geometry: Moore offsets, wrapping, disks and disk counts."""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: The 8 single-step displacements of the Moore neighbourhood, row-major.
#: The offset at index k is the negation of the offset at index 7 - k;
#: the stepping kernel relies on that pairing to read opposite probes.
MOORE_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1),
)

OFFSET_ARRAY = np.array(MOORE_OFFSETS, dtype=np.int64)
OFFSET_ARRAY.setflags(write=False)

#: Euclidean length of each offset: 1 for axis moves, sqrt(2) for diagonals.
OFFSET_LENGTHS = np.hypot(OFFSET_ARRAY[:, 0], OFFSET_ARRAY[:, 1])
OFFSET_LENGTHS.setflags(write=False)


@dataclass(frozen=True)
class Lattice:
    """Square world of ``side`` x ``side`` unit patches with wrapped edges.

    Sides below 3 are rejected: there the 8-neighbourhood would overlap
    itself and single steps would not be well defined.
    """

    side: int

    def __post_init__(self) -> None:
        if self.side < 3:
            raise ValueError(f"lattice side must be >= 3, got {self.side}")

    @property
    def patch_count(self) -> int:
        return self.side * self.side


def wrap(pos, lattice: Lattice) -> tuple[int, int]:
    """Reduce an integer coordinate pair into [0, side) on both axes."""
    x, y = pos
    return int(x) % lattice.side, int(y) % lattice.side


@lru_cache(maxsize=None)
def disk_offsets(side: int, radius: float) -> np.ndarray:
    """Patch offsets within toroidal distance ``radius`` of a patch.

    Returned as an (k, 2) array of signed shifts of at most ``side // 2``
    per axis; each reachable patch appears exactly once even when the disk
    wraps around the world. Rows come in row-major order of the shifts, and
    only the square of shifts within ``radius`` is built, not side x side.
    """
    ring = np.arange(side, dtype=np.int64) - side // 2  # every shift once, toroidal length |shift|
    near = ring[ring * ring <= radius * radius]  # a run of shifts: the disk's rows and columns
    out = near[np.argwhere(near[:, None] ** 2 + near ** 2 <= radius * radius)]
    out.setflags(write=False)
    return out


#: Cells of one stamp grid, keys of one stamp chunk and of one read chunk: the memory
#: bounds of :func:`compile_disk_counts`, whatever the number of groups, points or radius.
#: Every stamp chunk is read whole, so only the read side can shrink without repeating reads.
_GRID_CELLS = 1 << 20
_CHUNK_KEYS = 1 << 20
_READ_KEYS = 1 << 16
#: A batch with a point per ``_CROWDED`` grid cells sums its disks; that broke even at 4 to 25.
_CROWDED = 8


def compile_disk_counts(side: int, radii, probed: bool = False):
    """``count(point_group, point_xy, query_group, query_xy)``: per query, the points of
    the query's group within the group's radius.

    Group g has radius ``radii[g]``; points and queries are arrays of int64
    group indices and (x, y) patches. When ``probed``, the result is (Q, 8), a
    transposed view of probe-major counts: the count around each query's patch
    moved by each of the 8 ``OFFSET_ARRAY`` steps. Otherwise it is 1-D, per
    query.

    Every radius is finite and > 0, checked here; points and queries each come
    grouped, in nondecreasing group index in [0, len(radii)), checked per call
    (``ValueError`` otherwise), as the callers send them. A batch, G <=
    ``_GRID_CELLS // side**2`` consecutive groups of one radius, takes its rows as
    slices; its grids are keyed ``((group - first) * side + x) * side + y``. With P
    points, Q·J probed patches (J = 8 or 1) and k-patch disks, when P > Q·J it stamps
    each point once on a reused int32 grid of at most ``_GRID_CELLS`` cells (4 MB; a
    cell counts fewer than 2**31 points) and sums each probe's disk (P + Q·J·k).
    Else, if P·``_CROWDED`` >= G·side², it bincounts the occupancy, sums every cell's
    disk with one int32 :func:`disk_sum` of the (G, side, side) stack (G·side²·k), wrap-pads
    the sums by 1 and reads a cell per probe (Q·J); if not, it stamps every point's
    disk on the grid and reads a cell per probe (P·k + Q·J). Keys are built
    ``_CHUNK_KEYS`` (points) or ``_READ_KEYS`` (reads) at a time and only stamped cells
    are zeroed again, so memory stays bounded; counts are exact int64. Compiling
    builds each batch's bounds, disk and keys once, all keyed through one wrap table
    padded by the widest disk shift plus one; a call checks its rows and counts.
    """
    probes = OFFSET_ARRAY if probed else _ORIGIN  # each step lies within +-1
    cells, wide = side * side, side + 2
    n, per_batch = len(radii), max(1, _GRID_CELLS // cells)  # groups one grid holds
    radii = np.asarray(radii, dtype=float)
    if n and not 0 < radii.min() <= radii.max() < math.inf:  # NaN fails both
        bad = radii[~((radii > 0) & (radii < math.inf))]
        raise ValueError(f"radii must be finite and > 0, got {bad[0]}")
    runs = [0, *(np.flatnonzero(radii[1:] != radii[:-1]) + 1).tolist(), n]
    bounds = [g for lo, hi in zip(runs, runs[1:]) for g in range(lo, hi, per_batch)] + [n]
    disks = [disk_offsets(side, float(radii[first])) for first in bounds[:-1]]
    pad = 1 + max((int(np.abs(disk).max()) for disk in disks), default=0)  # fits probe + disk
    cell, origin = _keys(side, pad, probes, _READ_KEYS), _keys(side, pad, _ORIGIN, _CHUNK_KEYS)
    steps = (probes[:, 0] * wide + probes[:, 1]).tolist()  # each probe's key step in the padded sums
    batches = []  # per batch: first group, radius, then (stamp, read) by disks and by patches
    for first, disk in zip(bounds[:-1], disks):
        summed = (probes[:, None] + disk).reshape(-1, 2)
        batches.append((first, float(radii[first]), (_keys(side, pad, disk, _CHUNK_KEYS), cell),
                        (origin, _keys(side, pad, summed, _READ_KEYS))))

    def count(point_group, point_xy, query_group, query_xy) -> np.ndarray:
        counts = np.zeros((len(probes), len(query_group)), dtype=np.int64)  # probe-major
        point_group, query_group = np.asarray(point_group), np.asarray(query_group)
        if (point_group[1:] < point_group[:-1]).any() or (query_group[1:] < query_group[:-1]).any():
            raise ValueError("points and queries must each come in nondecreasing group order")
        if any(len(r) and (r[0] < 0 or r[-1] >= n) for r in (point_group, query_group)):
            raise ValueError(f"group indices must lie in [0, {n}), one per radius")
        point_at, query_at = (np.searchsorted(r, bounds).tolist() if len(bounds) > 2 else [0, len(r)]
                              for r in (point_group, query_group))  # one batch: all rows
        grid = np.zeros(min(n, per_batch) * cells, dtype=np.int32)
        for b, (first, radius, *ways) in enumerate(batches):
            (p0, p1), (q0, q1) = point_at[b:b + 2], query_at[b:b + 2]
            by_patches, size = p1 - p0 > (q1 - q0) * len(probes), (bounds[b + 1] - first) * cells
            if not by_patches and (p1 - p0) * _CROWDED >= size:
                (at_origin, point_chunk), (_, query_chunk) = origin, cell
                near = np.zeros(size, dtype=np.int32)  # the occupancy, then its padded disk sums
                for lo in range(p0, p1, point_chunk):
                    pts = slice(lo, min(lo + point_chunk, p1))
                    keys = at_origin(point_group[pts] - first, point_xy[pts])[0]
                    near += np.bincount(keys, minlength=size)
                near = disk_sum(near.reshape(-1, side, side), side, radius)
                near = np.pad(near, ((0, 0), (1, 1), (1, 1)), mode="wrap").ravel()
                for qlo in range(q0, q1, query_chunk):
                    qs = slice(qlo, min(qlo + query_chunk, q1))
                    row = (query_group[qs] - first) * wide + query_xy[qs, 0] + 1
                    base = row * wide + query_xy[qs, 1] + 1
                    for j, step in enumerate(steps):  # one probe at a time: no (J, chunk) keys
                        counts[j, qs] = near.take(base + step)
                continue
            (stamp, point_chunk), (read, query_chunk) = ways[by_patches]
            # Each chunk of points is stamped, read by every query and unstamped.
            for lo in range(p0, p1, point_chunk):
                pts = slice(lo, min(lo + point_chunk, p1))
                keys = stamp(point_group[pts] - first, point_xy[pts]).ravel()  # 1-D scatters
                np.add.at(grid, keys, np.int32(1))
                for qlo in range(q0, q1, query_chunk):
                    qs = slice(qlo, min(qlo + query_chunk, q1))
                    at = read(query_group[qs] - first, query_xy[qs])
                    got = grid.take(at) if len(at) == len(probes) else (  # a cell or a disk per probe
                        grid.take(at).reshape(len(probes), -1, at.shape[1]).sum(axis=1))
                    counts[:, qs] += got
                grid[keys] = 0
        return counts.T if probed else counts[0]

    return count


_ORIGIN = np.zeros((1, 2), dtype=np.int64)
_ORIGIN.setflags(write=False)


@lru_cache(maxsize=16)
def _wrap_table(side: int, pad: int) -> np.ndarray:
    """Grid key of each patch of the world padded by ``pad`` on every side, in mapped
    memory: a long-lived table in the heap splits the space big temporaries reuse."""
    ring = np.arange(-pad, side + pad, dtype=np.int64) % side
    table = np.frombuffer(mmap.mmap(-1, 8 * len(ring) ** 2), dtype=np.int64)
    np.add(ring[:, None] * side, ring, out=table.reshape(len(ring), -1))
    table.setflags(write=False)
    return table


def _keys(side: int, pad: int, shift, budget: int):
    """``keys(slot, xy)``, the (len(shift), len(xy)) grid keys of ``xy + shift`` in grid slot
    ``slot`` from the wrap table padded by ``pad``, at least the largest shift (no table when
    that is 0), and the rows per chunk of at most ``budget`` keys (one row at least)."""
    if not shift.any():  # unshifted keys need no table
        return (lambda slot, xy: ((slot * side + xy[:, 0]) * side + xy[:, 1])[None]), budget
    width, table, cells = side + 2 * pad, _wrap_table(side, pad), side * side
    column = shift[:, :1] * width + (shift[:, 1:] + pad * (width + 1))

    def keys(slot, xy) -> np.ndarray:
        out = table.take(column + (xy[:, 0] * width + xy[:, 1]))
        out += slot * cells
        return out

    return keys, budget // len(shift) or 1


def disk_sum(grid: np.ndarray, side: int, radius: float) -> np.ndarray:
    """out[..., p] = sum of ``grid`` over the toroidal disk of ``radius`` at p, per (side, side)
    grid of a stack, an or if boolean: the disk's shifted slices, wrap-padded by its widest shift."""
    disk = disk_offsets(side, radius)
    pad = int(np.abs(disk).max())
    padded = np.pad(grid, [(0, 0)] * (grid.ndim - 2) + [(pad, pad)] * 2, mode="wrap")
    out = np.zeros_like(grid)
    for dx, dy in pad - disk:  # the disk is symmetric, so the shift direction does not matter
        out += padded[..., dx:dx + side, dy:dy + side]
    return out
