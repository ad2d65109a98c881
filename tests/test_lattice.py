import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coocsim import Lattice, wrap
from coocsim import lattice
from coocsim.lattice import MOORE_OFFSETS, compile_disk_counts, disk_offsets, disk_sum
from coocsim.lattice import OFFSET_ARRAY

from reference import wrapped_dist_sq

MOORE = {(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)}


def test_offsets_are_the_eight_moore_displacements():
    offs = MOORE_OFFSETS
    assert len(offs) == 8
    assert set(offs) == MOORE
    assert (0, 0) not in offs


def test_offsets_sum_to_zero():
    sx = sum(dx for dx, _ in MOORE_OFFSETS)
    sy = sum(dy for _, dy in MOORE_OFFSETS)
    assert (sx, sy) == (0, 0)


def test_mean_squared_offset_length_is_one_and_a_half():
    # enumerate the full direction set: 4 axis moves of length^2 1,
    # 4 diagonal moves of length^2 2
    lengths_sq = [dx * dx + dy * dy for dx, dy in MOORE_OFFSETS]
    assert sum(lengths_sq) / 8 == pytest.approx(1.5, abs=0)


def test_opposite_offset_pairing():
    offs = MOORE_OFFSETS
    for k in range(8):
        assert offs[k][0] == -offs[7 - k][0]
        assert offs[k][1] == -offs[7 - k][1]


def test_lattice_rejects_tiny_worlds():
    with pytest.raises(ValueError):
        Lattice(2)
    assert Lattice(3).patch_count == 9


def test_wrap_examples():
    lat = Lattice(31)
    assert wrap((31, 0), lat) == (0, 0)
    assert wrap((-1, 5), lat) == (30, 5)
    assert wrap((15, 15), lat) == (15, 15)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9), st.integers(3, 200))
def test_wrap_is_total(x, y, side):
    wx, wy = wrap((x, y), Lattice(side))
    assert 0 <= wx < side
    assert 0 <= wy < side


def _distance(a, b, side):
    """The oracle's toroidal distance, which every kernel test judges against."""
    return math.sqrt(wrapped_dist_sq(a, b, side))


def test_distance_examples():
    assert _distance((0, 0), (0, 0), 31) == 0.0
    assert _distance((0, 0), (30, 0), 31) == 1.0
    assert _distance((0, 0), (3, 4), 31) == 5.0


def test_distance_symmetric_and_zero_iff_equal():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = tuple(rng.integers(0, 17, 2))
        b = tuple(rng.integers(0, 17, 2))
        assert _distance(a, b, 17) == _distance(b, a, 17)
        assert (_distance(a, b, 17) == 0.0) == (a == b)


def test_triangle_inequality_on_sampled_triples():
    rng = np.random.default_rng(11)
    pts = rng.integers(0, 31, size=(10_000, 3, 2))
    for a, b, c in pts:
        ab = _distance(a, b, 31)
        bc = _distance(b, c, 31)
        ac = _distance(a, c, 31)
        assert ac <= ab + bc + 1e-12


@given(st.integers(3, 60))
def test_distance_bounded_by_half_diagonal(side):
    bound = side * math.sqrt(2) / 2
    rng = np.random.default_rng(side)
    pts = rng.integers(0, side, size=(300, 2, 2))
    for a, b in pts:
        assert _distance(a, b, side) <= bound + 1e-12


def test_disk_offsets_radius_two_has_thirteen_patches():
    offs = disk_offsets(31, 2.0)
    assert len(offs) == 13


def test_disk_offsets_wrap_without_double_counting():
    # radius larger than half the world: the disk is the whole board, once
    offs = disk_offsets(5, 4.0)
    assert len(offs) == 25
    grid = np.zeros((5, 5), dtype=np.int64)
    grid[2, 2] = 1
    assert (disk_sum(grid, 5, 4.0) == 1).all()


@pytest.mark.parametrize("side", [3, 4, 7, 8, 31, 32])
def test_disk_offsets_equal_the_full_ring_formula(side):
    """Building only the shifts within the radius keeps every row and its
    order: on even sides -side/2 is a shift and +side/2 is not."""
    ring = np.arange(side, dtype=np.int64) - side // 2
    half = side / 2
    for radius in (0.5, 1.0, 1.5, 2.0, half - 0.5, half, half + 0.5, side - 1.0, 2.0 * side):
        full = np.argwhere(ring[:, None] ** 2 + ring ** 2 <= radius * radius) - side // 2
        got = disk_offsets.__wrapped__(side, radius)
        assert got.dtype == full.dtype and np.array_equal(got, full), (side, radius)


def test_disk_offsets_of_a_small_disk_on_a_large_side_stay_small():
    """The 13-patch disk on side 3001 needs no side x side temporary."""
    tracemalloc.start()
    try:
        assert len(disk_offsets.__wrapped__(3001, 2.0)) == 13
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_disk_sum_counts_neighbours():
    grid = np.zeros((9, 9), dtype=np.int64)
    grid[4, 4] = 2
    grid[0, 0] = 1
    out = disk_sum(grid, 9, 2.0)
    assert out[4, 4] == 2
    assert out[4, 6] == 2   # distance 2 inclusive
    assert out[4, 7] == 0
    assert out[8, 8] == 1   # wraps around the corner


def _rolled_disk_sum(grid, side, radius):
    out = np.zeros_like(grid)
    for dx, dy in disk_offsets(side, radius):
        out += np.roll(grid, (dx, dy), axis=(0, 1))
    return out


@pytest.mark.parametrize("side", [3, 4, 9])
def test_disk_sum_of_a_stack_sums_each_grid_as_rolls_do(side):
    """A (G, side, side) stack sums grid by grid, each grid as the sum of
    its rolls by every disk shift, also for radii that wrap the disk."""
    rng = np.random.default_rng(side)
    stack = rng.integers(0, 5, (3, side, side))
    for radius in (0.5, 1.0, 1.5, side / 2, side - 1.0, 2.0 * side):
        got = disk_sum(stack, side, radius)
        assert got.dtype == stack.dtype and got.shape == stack.shape
        for grid, summed in zip(stack, got):
            assert np.array_equal(summed, disk_sum(grid, side, radius)), radius
            assert np.array_equal(summed, _rolled_disk_sum(grid, side, radius)), radius


@pytest.mark.parametrize("side", [3, 4, 9])
def test_disk_sum_of_a_boolean_grid_or_stack_marks_the_covered_cells(side):
    """A boolean grid or (3, side, side) stack sums with numpy's boolean add,
    an or, so its disk sum is the integer grid's disk sum tested for > 0; the
    neighbourhood report relies on it."""
    rng = np.random.default_rng(side)
    stack = rng.integers(0, 2, (3, side, side)) * rng.integers(0, 2, (3, side, side))
    for radius in (0.5, 1.0, 1.5, side / 2, side - 1.0, 2.0 * side):
        want = disk_sum(stack, side, radius) > 0
        got = disk_sum(stack.astype(bool), side, radius)
        assert got.dtype == bool and np.array_equal(got, want), radius
        for grid, covered in zip(stack, want):
            assert np.array_equal(disk_sum(grid.astype(bool), side, radius), covered), radius


def _brute_disk_counts(side, radii, point_group, point_xy, query_group, query_xy):
    return [
        sum(1 for g, p in zip(point_group, point_xy)
            if g == qg and wrapped_dist_sq(p, q, side) <= radii[qg] * radii[qg])
        for qg, q in zip(query_group, query_xy)
    ]


@pytest.mark.parametrize("grid_cells,chunk_keys,read_keys",
                         [(1 << 20, 1 << 20, 1 << 16), (1, 5, 3)], ids=["1048576-1048576", "1-5"])
def test_disk_counts_match_pairwise_counting(monkeypatch, grid_cells, chunk_keys, read_keys):
    # The small budgets force one group per grid, a few stamps per chunk and
    # reads of three cells, or of one query's disk, per chunk.
    monkeypatch.setattr(lattice, "_GRID_CELLS", grid_cells)
    monkeypatch.setattr(lattice, "_CHUNK_KEYS", chunk_keys)
    monkeypatch.setattr(lattice, "_READ_KEYS", read_keys)
    rng = np.random.default_rng(17)
    side = 9
    radii = [2.0, 1.0, 2.0, 7.0, 1.5]   # 7 covers the whole 9 x 9 torus
    point_group = np.sort(rng.integers(0, len(radii), 60))   # rows come grouped
    point_xy = rng.integers(0, side, (60, 2))
    query_group = np.sort(rng.integers(0, len(radii), 200))
    query_xy = rng.integers(0, side, (200, 2))
    got = compile_disk_counts(side, radii)(point_group, point_xy, query_group, query_xy)
    assert got.dtype == np.int64
    assert got.tolist() == _brute_disk_counts(side, radii, point_group, point_xy,
                                              query_group, query_xy)


def test_disk_counts_without_points_or_queries():
    no_xy, no_group = np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    one_xy, one_group = np.array([(3, 3)]), np.array([0])
    assert compile_disk_counts(7, [2.0])(no_group, no_xy, one_group, one_xy).tolist() == [0]
    assert compile_disk_counts(7, [2.0])(one_group, one_xy, no_group, no_xy).tolist() == []
    assert compile_disk_counts(7, [])(no_group, no_xy, no_group, no_xy).tolist() == []


def _brute_probe_counts(side, radii, point_group, point_xy, query_group, query_xy, probes):
    return [list(row) for row in zip(*(
        _brute_disk_counts(side, radii, point_group, point_xy, query_group, query_xy + probe)
        for probe in probes))]


@pytest.mark.parametrize("grid_cells,chunk_keys,read_keys",
                         [(1 << 20, 1 << 20, 1 << 16), (1, 5, 100)], ids=["1048576-1048576", "1-5"])
@pytest.mark.parametrize("n_points,n_queries", [(600, 10), (20, 100)])
def test_disk_counts_with_probes_match_pairwise_counting(monkeypatch, grid_cells, chunk_keys,
                                                         read_keys, n_points, n_queries):
    # 600 points against 10 queries stamps point occupancy and sums each
    # probe's disk; 20 against 100 stamps point disks and reads one cell per
    # probe. The small budgets put one group in each grid, so batches reuse
    # a grid whose stamped cells were zeroed, split the stamps into chunks of
    # a few keys and the reads into chunks of 100 keys: 12 queries' probe
    # cells, 7 queries' radius-2 disks without probes, one query's probed disks.
    monkeypatch.setattr(lattice, "_GRID_CELLS", grid_cells)
    monkeypatch.setattr(lattice, "_CHUNK_KEYS", chunk_keys)
    monkeypatch.setattr(lattice, "_READ_KEYS", read_keys)
    rng = np.random.default_rng(n_points)
    side = 9
    radii = [2.0, 1.0, 2.0, 7.0, 1.5]   # 7 covers the whole 9 x 9 torus
    point_group = np.sort(np.arange(n_points) % len(radii))   # rows come grouped
    point_xy = rng.integers(0, side, (n_points, 2))
    query_group = np.sort(np.arange(n_queries) % len(radii))
    query_xy = rng.integers(0, side, (n_queries, 2))
    points_per_group = np.bincount(point_group, minlength=len(radii))
    probed_per_group = np.bincount(query_group, minlength=len(radii)) * len(OFFSET_ARRAY)
    assert ((points_per_group > probed_per_group).all()
            or (points_per_group <= probed_per_group).all())
    got = compile_disk_counts(side, radii, True)(point_group, point_xy, query_group, query_xy)
    assert got.dtype == np.int64
    assert got.shape == (n_queries, len(OFFSET_ARRAY))
    assert got.tolist() == _brute_probe_counts(side, radii, point_group, point_xy,
                                               query_group, query_xy, OFFSET_ARRAY)
    # The 1-D result is the count at the zero probe, either way round.
    flat = compile_disk_counts(side, radii)(point_group, point_xy, query_group, query_xy)
    assert flat.tolist() == _brute_disk_counts(side, radii, point_group, point_xy,
                                               query_group, query_xy)


@pytest.mark.parametrize("chunk_keys,read_keys", [(1 << 20, 1 << 16), (5, 100)],
                         ids=["1048576", "5"])
@pytest.mark.parametrize("groups_per_grid", [1, 2, 7], ids=["one", "two", "all"])
def test_disk_counts_of_many_groups_match_pairwise_counting(monkeypatch, groups_per_grid,
                                                           chunk_keys, read_keys):
    """Consecutive groups of one radius share a grid in batches: the grid
    holds one group, two or all seven. Points and queries come grouped; the
    radii 2.0 (groups 0, 2, 6) and 1.0 (groups 1, 5) recur after other radii,
    so each recurrence opens a new batch. Group 6 has points but no queries
    and group 5 queries but no points. Group 3's 150 points outnumber its
    probed patches, so both ways of stamping run."""
    side = 9
    monkeypatch.setattr(lattice, "_GRID_CELLS", groups_per_grid * side * side)
    monkeypatch.setattr(lattice, "_CHUNK_KEYS", chunk_keys)
    monkeypatch.setattr(lattice, "_READ_KEYS", read_keys)
    rng = np.random.default_rng(groups_per_grid)
    radii = [2.0, 1.0, 2.0, 7.0, 1.5, 1.0, 2.0]
    point_group = np.sort(np.r_[np.full(150, 3), rng.choice([0, 1, 2, 4, 6], 60)])
    point_xy = rng.integers(0, side, (len(point_group), 2))
    query_group = np.sort(rng.choice([0, 1, 2, 3, 4, 5], 40))
    query_xy = rng.integers(0, side, (len(query_group), 2))
    assert {0, 1, 2, 4, 6} <= set(point_group) and {0, 1, 2} <= set(query_group)
    assert {5, 6} - set(query_group) == {6} and {5, 6} - set(point_group) == {5}
    probed = compile_disk_counts(side, radii, True)(point_group, point_xy, query_group, query_xy)
    flat = compile_disk_counts(side, radii)(point_group, point_xy, query_group, query_xy)
    assert probed.dtype == flat.dtype == np.int64
    assert probed.tolist() == _brute_probe_counts(side, radii, point_group, point_xy,
                                                  query_group, query_xy, OFFSET_ARRAY)
    assert flat.tolist() == _brute_disk_counts(side, radii, point_group, point_xy,
                                               query_group, query_xy)
    assert flat[query_group == 3].min() > 0 and not flat[query_group == 5].any()


@pytest.mark.parametrize("grid_cells,chunk_keys,read_keys",
                         [(1 << 20, 1 << 20, 1 << 16), (2 * 81, 5, 1)],
                         ids=["one_batch", "batches_and_chunks"])
def test_a_compiled_count_serves_many_rows_as_disk_counts_does(monkeypatch, grid_cells,
                                                               chunk_keys, read_keys):
    """One compiled count, run on one set of rows after another, counts as a
    count compiled for each set of rows and pairwise counting do. The small budgets split the
    groups into batches of at most two groups and the rows into chunks of a
    few keys and the reads into chunks of one query (a budget below one query's
    keys still reads a query per chunk); 600 points against 10 queries stamp
    points and sum each probe's disk, 20 against 100 stamp disks and read a
    cell per probe, so one compiled count runs both ways in turn on a grid the
    last call left clean."""
    monkeypatch.setattr(lattice, "_GRID_CELLS", grid_cells)
    monkeypatch.setattr(lattice, "_CHUNK_KEYS", chunk_keys)
    monkeypatch.setattr(lattice, "_READ_KEYS", read_keys)
    side, radii = 9, [2.0, 1.0, 1.0, 2.0, 7.0, 7.0, 1.5]   # 7 covers the whole 9 x 9 torus
    flat = lattice.compile_disk_counts(side, radii)
    probed = lattice.compile_disk_counts(side, radii, True)
    rng = np.random.default_rng(29)
    for n_points, n_queries in [(600, 10), (20, 100), (600, 10), (0, 12), (30, 0)]:
        point_group = np.sort(rng.integers(0, len(radii), n_points))   # rows come grouped
        query_group = np.sort(rng.integers(0, len(radii), n_queries))
        point_xy, query_xy = rng.integers(0, side, (n_points, 2)), rng.integers(0, side, (n_queries, 2))
        rows = (point_group, point_xy, query_group, query_xy)
        got, got_probed = flat(*rows), probed(*rows)
        assert got.dtype == got_probed.dtype == np.int64
        assert got.tolist() == compile_disk_counts(side, radii)(*rows).tolist() == (
            _brute_disk_counts(side, radii, *rows))
        assert got_probed.tolist() == compile_disk_counts(side, radii, True)(*rows).tolist() == (
            _brute_probe_counts(side, radii, *rows, OFFSET_ARRAY))


def test_a_compiled_count_keys_every_disk_and_probe_through_one_wrap_table(monkeypatch):
    """Radii 2, 1 and 7 (whole-torus disks on side 9, shifts up to 4) give key
    sets of shifts 0 to 5 with the probes; a flat and a probed count each
    build one wrap table, padded by the widest disk shift plus one, and
    count as pairwise counting does."""
    pads, wrap_table = [], lattice._wrap_table
    monkeypatch.setattr(lattice, "_wrap_table", lambda side, pad: pads[-1].add(pad)
                        or wrap_table(side, pad))
    side, radii = 9, [2.0, 1.0, 7.0]
    rng = np.random.default_rng(31)
    rows = (np.sort(rng.integers(0, 3, 40)), rng.integers(0, side, (40, 2)),
            np.sort(rng.integers(0, 3, 30)), rng.integers(0, side, (30, 2)))
    for probed in (False, True):
        pads.append(set())
        got = compile_disk_counts(side, radii, probed)(*rows)
        assert got.tolist() == (_brute_probe_counts(side, radii, *rows, OFFSET_ARRAY) if probed
                                else _brute_disk_counts(side, radii, *rows))
    assert pads == [{5}, {5}]


def test_a_compiled_count_checks_radii_and_probes_once_and_rows_on_every_run():
    """The radii are refused when the count compiles, before any rows; rows
    out of group order or range are refused on each run."""
    with pytest.raises(ValueError, match="finite and > 0"):
        lattice.compile_disk_counts(7, [2.0, float("nan")])
    count = lattice.compile_disk_counts(7, [1.0, 2.0], True)
    xy = np.array([(1, 1), (2, 2)])
    with pytest.raises(ValueError, match="nondecreasing group order"):
        count(np.array([1, 0]), xy, np.array([0, 1]), xy)
    with pytest.raises(ValueError, match="group indices"):
        count(np.array([0, 2]), xy, np.array([0, 1]), xy)
    assert count(np.array([0, 1]), xy, np.array([0, 1]), xy)[:, 0].tolist() == [0, 1]


@pytest.mark.parametrize("ungrouped", ["points", "queries"])
def test_disk_counts_rejects_rows_out_of_group_order(ungrouped):
    """Rows come in nondecreasing group order; a row of a lower group after
    a higher one is refused rather than counted."""
    grouped, xy = np.array([0, 0, 1, 1]), np.array([(1, 1), (2, 2), (3, 3), (4, 4)])
    shuffled = np.array([0, 1, 0, 1])
    point_group, query_group = (shuffled, grouped) if ungrouped == "points" else (grouped, shuffled)
    for probed in (False, True):
        with pytest.raises(ValueError, match="nondecreasing group order"):
            compile_disk_counts(7, [1.0, 2.0], probed)(point_group, xy, query_group, xy)


def test_disk_counts_rejects_group_indices_outside_the_radii():
    """A group index names one radius: a row of group 5 under two radii, or
    of group -1, is refused rather than dropped or sent to the grid."""
    xy = np.array([(1, 1), (2, 2)])
    for radii, groups in (([1.0, 2.0], [0, 5]), ([1.0], [0, 5]), ([1.0, 2.0], [-1, 0])):
        for point_group, query_group in ((groups, [0, 0]), ([0, 0], groups)):
            for probed in (False, True):
                with pytest.raises(ValueError, match="group indices"):
                    compile_disk_counts(7, radii, probed)(point_group, xy, query_group, xy)


@pytest.mark.parametrize("radius", [float("nan"), -1.0, 0.0, float("inf")])
def test_disk_counts_rejects_radii_that_are_not_finite_and_positive(radius):
    """A NaN radius would give an empty disk and divide by zero, and -1
    would count a point one patch away (radii compare squared); both are
    refused, as 0 and inf are."""
    xy, groups = np.array([(1, 1), (2, 1)]), np.array([0, 1])
    for probed in (False, True):
        with pytest.raises(ValueError, match="finite and > 0"):
            compile_disk_counts(7, [2.0, radius], probed)(groups, xy, groups, xy)


@pytest.mark.parametrize("probed", [False, True], ids=["flat", "probed"])
@pytest.mark.parametrize("groups_per_grid,chunk_keys,read_keys", [(1, 1 << 20, 1 << 16), (3, 7, 9)],
                         ids=["one", "three_in_chunks"])
def test_crowded_batches_sum_their_disks_and_match_pairwise_counting(monkeypatch, probed,
                                                                     groups_per_grid,
                                                                     chunk_keys, read_keys):
    """A batch with a point per 8 cells of its grids, and no more points than
    probed patches, sums its disks with one ``disk_sum`` of its stack; any
    other batch stamps. Groups 0-2 (radius 2) and 3-5 (radius 7, past half
    the 9 x 9 side, so the disk is the whole torus) are crowded; group 6
    (radius 0.5, its own patch) has a point per 81 cells and group 7 more
    points than probed patches. The small budgets count the occupancy 7
    points and read one query (or 9 flat ones) at a time."""
    side = 9
    monkeypatch.setattr(lattice, "_GRID_CELLS", groups_per_grid * side * side)
    monkeypatch.setattr(lattice, "_CHUNK_KEYS", chunk_keys)
    monkeypatch.setattr(lattice, "_READ_KEYS", read_keys)
    sums = []
    disk_sum = lattice.disk_sum
    monkeypatch.setattr(lattice, "disk_sum", lambda grid, *args: sums.append(grid.shape)
                        or disk_sum(grid, *args))
    rng = np.random.default_rng(groups_per_grid)
    radii = [2.0, 2.0, 2.0, 7.0, 7.0, 7.0, 0.5, 4.5]
    point_group = np.repeat(np.arange(8), [20, 11, 15, 30, 12, 11, 1, 40])
    query_group = np.repeat(np.arange(8), [30, 25, 30, 35, 40, 15, 30, 2])
    point_xy = rng.integers(0, side, (len(point_group), 2))
    query_xy = rng.integers(0, side, (len(query_group), 2))
    rows = (point_group, point_xy, query_group, query_xy)
    got = compile_disk_counts(side, radii, probed)(*rows)
    if probed:
        assert got.tolist() == _brute_probe_counts(side, radii, *rows, OFFSET_ARRAY)
    else:
        assert got.tolist() == _brute_disk_counts(side, radii, *rows)
    assert sums == [(groups_per_grid, side, side)] * (6 // groups_per_grid)
