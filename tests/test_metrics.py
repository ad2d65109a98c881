from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coocsim import (
    Lattice,
    crowding_indices,
    estimate_drift_diffusion,
    neighborhood_counts,
    overlap_report,
    run,
    significant_populations,
)
from coocsim.metrics import NeighborhoodReport, significant_from_counts

from reference import (
    make_state,
    make_toy_model,
    make_walk_model,
    oracle_neighborhood_counts,
)

TEST_DATA = Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------------------
# crowding

def test_crowding_matches_both_reference_grids():
    big = crowding_indices(Lattice(51), 800)
    assert big.patch_count == 2601
    assert big.critical_count == 650
    small = crowding_indices(Lattice(31), 1300)
    assert small.patch_count == 961
    assert small.critical_count == 240


def test_critical_density_direct_substitution():
    got = crowding_indices(Lattice(31), 100).critical_density
    assert got == pytest.approx(25 / 961, rel=1e-12)


@given(st.integers(3, 500), st.integers(0, 10**6))
def test_crowding_closed_forms(side, n):
    idx = crowding_indices(Lattice(side), n)
    assert idx.patch_count == side * side
    assert idx.critical_count == (side * side) // 4
    assert idx.critical_density == pytest.approx(0.25 * n / (side * side), rel=1e-12)


def test_crowding_rejects_negative_counts():
    with pytest.raises(ValueError):
        crowding_indices(Lattice(9), -1)


# ---------------------------------------------------------------------------
# neighbourhood counts

def _random_state(rng, side=17, pops=4, per_pop=20):
    names = tuple(f"pop{i}" for i in range(pops))
    rows = []
    for name in names:
        for _ in range(per_pop):
            rows.append((name, tuple(rng.integers(0, side, 2)), bool(rng.random() < 0.9)))
    return make_state(side, names, rows)


def test_boundary_inclusion_at_exact_distance():
    state = make_state(31, ("t", "other"), [
        ("t", (5, 5), True),
        ("other", (5, 8), True),   # distance exactly 3
    ])
    report = neighborhood_counts(state, "t", 3.0)
    assert report.counts == {"other": 1}
    assert report.global_average == 1.0


def test_all_far_gives_empty_neighbourhood():
    state = make_state(31, ("t", "a", "b"), [
        ("t", (0, 0), True),
        ("a", (15, 15), True),
        ("b", (10, 20), True),
    ])
    report = neighborhood_counts(state, "t", 2.0)
    assert report.counts == {"a": 0, "b": 0}
    assert report.global_average == 0.0


def test_each_agent_counts_once_despite_many_targets():
    state = make_state(31, ("t", "other"), [
        ("t", (5, 5), True),
        ("t", (6, 5), True),
        ("t", (5, 6), True),
        ("other", (5, 5), True),
    ])
    report = neighborhood_counts(state, "t", 2.0)
    assert report.counts == {"other": 1}


def test_matches_pairwise_oracle_on_random_states():
    rng = np.random.default_rng(77)
    for _ in range(10):
        state = _random_state(rng)
        report = neighborhood_counts(state, "pop0", 2.0)
        counts, average = oracle_neighborhood_counts(state, "pop0", 2.0)
        assert report.counts == counts
        assert report.global_average == pytest.approx(average, abs=1e-9)


def test_counts_include_inactive_agents_on_both_sides():
    state = make_state(31, ("t", "other"), [
        ("t", (5, 5), False),
        ("other", (6, 5), False),
    ])
    report = neighborhood_counts(state, "t", 2.0)
    assert report.counts == {"other": 1}


def test_unknown_target_raises():
    state = make_state(9, ("a",), [("a", (1, 1), True)])
    with pytest.raises(ValueError, match="ghost"):
        neighborhood_counts(state, "ghost", 2.0)


@pytest.mark.parametrize("d", [0.0, -1.0, float("nan"), float("inf")])
def test_non_positive_or_nan_distance_raises(d):
    state = make_state(9, ("t", "a"), [("t", (1, 1), True), ("a", (1, 2), True)])
    with pytest.raises(ValueError, match="positive"):
        neighborhood_counts(state, "t", d)


def test_average_over_non_target_populations():
    state = make_state(31, ("t", "a", "b"), [
        ("t", (5, 5), True),
        ("a", (6, 5), True),
        ("a", (5, 4), True),
        ("b", (20, 20), True),
    ])
    report = neighborhood_counts(state, "t", 2.0)
    assert report.counts == {"a": 2, "b": 0}
    assert report.global_average == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# drift / diffusion estimation

def _trajectories(model, ticks):
    result = run(model, report_ticks=range(ticks + 1),
                 observers=[lambda s, m: s.positions.copy()])
    return np.stack([result.observations[t][0] for t in range(ticks + 1)])


def test_pure_walk_moments():
    model = make_walk_model(n_agents=1500, side=31, seed=33, max_ticks=4)
    est = estimate_drift_diffusion(_trajectories(model, 4), model.lattice)
    assert est.samples == 6000
    assert abs(est.mean_step[0]) <= 3 * est.mean_step_se[0]
    assert abs(est.mean_step[1]) <= 3 * est.mean_step_se[1]
    assert abs(est.mean_square_step - 1.5) / 1.5 < 0.05


def test_insufficient_samples_fault():
    model = make_walk_model(n_agents=100, side=31, seed=3, max_ticks=2)
    with pytest.raises(ValueError, match="1000"):
        estimate_drift_diffusion(_trajectories(model, 2), model.lattice)


def test_biased_trajectories_show_eastward_drift():
    # drift measured on the sampling law itself lives in test_dynamics; here
    # the estimator is pointed at synthetic trajectories with a known pull
    rng = np.random.default_rng(4)
    steps = rng.choice([-1, 0, 1], size=(10, 200, 2), p=[0.2, 0.3, 0.5])
    traj = np.cumsum(np.concatenate([np.zeros((1, 200, 2), dtype=int), steps]), axis=0) % 21
    est = estimate_drift_diffusion(traj, Lattice(21))
    assert est.mean_step[0] > 3 * est.mean_step_se[0]


# ---------------------------------------------------------------------------
# overlap

def test_overlap_simple_intersection():
    report = overlap_report(["cdc25", "map2"], ["map2", "xyz"])
    assert report.intersection == ("map2",)
    assert report.hits_count == 2
    assert report.reference_count == 2
    assert report.common_count == 1


def test_overlap_disjoint():
    assert overlap_report(["a"], ["b"]).intersection == ()


def test_overlap_is_case_insensitive():
    report = overlap_report(["CDC25", "Map2"], ["cdc25", "MAP2"])
    assert report.intersection == ("cdc25", "map2")


def test_gene_list_fixtures_share_eleven_names():
    tor_hits = (TEST_DATA / "tor_hits.txt").read_text().split()
    tor_ref = (TEST_DATA / "tor_reference.txt").read_text().split()
    actb_hits = (TEST_DATA / "actb_hits.txt").read_text().split()
    actb_ref = (TEST_DATA / "actb_reference.txt").read_text().split()
    assert overlap_report(tor_hits, tor_ref).common_count == 11
    assert overlap_report(actb_hits, actb_ref).common_count == 11
    assert "pkc1" in overlap_report(tor_hits, tor_ref).intersection
    assert "plc1" in overlap_report(tor_hits, tor_ref).intersection
    assert "cdc25" in overlap_report(tor_hits, tor_ref).intersection


# ---------------------------------------------------------------------------
# significance

SMALL_SET_T1000 = {
    "ab_initio_calculations": 45,
    "abductor_digiti_minimi": 19,
    "abductor_pollicis_brevis": 28,
    "aberrant_activation": 27,
    "aberrant_methylation": 21,
    "aberrant_regulation": 17,
    "abnormal_magnetic": 16,
    "abnormal_representation": 15,
    "absolute_expression": 16,
    "abundance_proteins": 17,
    "abundant_transcripts": 16,
    "particles": 55,
}


def test_published_table_with_its_stated_average():
    # the table ships with average 21; both linked populations clear 2x
    got = significant_from_counts(SMALL_SET_T1000, 21.0, 2.0)
    assert got == ["particles", "ab_initio_calculations"]


def test_published_table_with_recomputed_average():
    # recomputing the mean of the printed counts gives 24.33, which drops
    # the weaker of the two at factor 2 but keeps both at 1.5
    average = sum(SMALL_SET_T1000.values()) / len(SMALL_SET_T1000)
    assert average == pytest.approx(292 / 12)
    assert significant_from_counts(SMALL_SET_T1000, average, 2.0) == ["particles"]
    assert significant_from_counts(SMALL_SET_T1000, average, 1.5) == [
        "particles", "ab_initio_calculations",
    ]


def test_uniform_counts_all_or_nothing():
    report = NeighborhoodReport("t", 2.0, 0, {"a": 4, "b": 4, "c": 4}, 4.0)
    assert significant_populations(report, 1.0) == ["a", "b", "c"]
    assert significant_populations(report, 1.5) == []


def test_threshold_strictness_by_hand():
    report = NeighborhoodReport("t", 2.0, 0, {"a": 3, "b": 2, "c": 1}, 2.0)
    assert significant_populations(report, 2.0) == []


def test_an_all_zero_report_flags_nothing():
    report = NeighborhoodReport("t", 2.0, 0, {"a": 0, "b": 0, "c": 0}, 0.0)
    assert significant_populations(report, 2.0) == []


def test_factor_must_be_positive():
    report = NeighborhoodReport("t", 2.0, 0, {"a": 1}, 1.0)
    for factor in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite positive"):
            significant_populations(report, factor)


@given(st.integers(1, 50))
@settings(max_examples=30)
def test_significance_invariant_under_uniform_scaling(scale):
    counts = {"a": 6, "b": 3, "c": 1}
    base_avg = sum(counts.values()) / 3
    scaled = {k: v * scale for k, v in counts.items()}
    assert (significant_from_counts(counts, base_avg, 1.5)
            == significant_from_counts(scaled, base_avg * scale, 1.5))


def test_report_from_simulation_feeds_significance():
    model = make_toy_model(walkers=20, particles=20, side=21, seed=3, max_ticks=3)
    state = run(model).final_state
    report = neighborhood_counts(state, "walkers", 2.0)
    names = significant_populations(report, 0.5)
    assert set(names) <= set(report.counts)
