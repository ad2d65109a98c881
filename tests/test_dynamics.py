import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coocsim import (
    ConfigurationFault,
    TransitionDistribution,
    WorldState,
    agent_uniforms,
    bias_weights,
    build_model,
    initialize,
    potential_at,
    run,
    select_rule,
    step,
    transition_distribution,
)
from coocsim import dynamics, lattice, model as model_module
from coocsim.io import build_relation_model, parse_edge_list, parse_rules
from coocsim.lattice import OFFSET_ARRAY
from coocsim.model import InteractionMatrixEntry, validate

from reference import (
    make_small_set_model,
    make_state,
    make_toy_model,
    make_walk_model,
    oracle_potential,
    oracle_select,
    oracle_step,
)

CHASE_RULES = """
interaction walk
actions random-walk deactivate-none
end

interaction chase
actions follow-path deactivate-none
end
"""


def chase_model(distance=2.5, beta=1.0, side=15, seed=3):
    """Two populations: chaser is drawn toward beacon, nobody freezes."""
    matrix = [
        InteractionMatrixEntry("chaser", "walk", 0, 0),
        InteractionMatrixEntry("beacon", "walk", 0, 0),
        InteractionMatrixEntry("chaser", "chase", 1, 1, "beacon", distance),
    ]
    return build_model(parse_rules(CHASE_RULES), matrix, side=side, sizes=1,
                       beta=beta, seed=seed, max_ticks=10)


# ---------------------------------------------------------------------------
# potential field

def test_potential_zero_without_follow_entries():
    model = make_walk_model(n_agents=20, side=9)
    state = initialize(model, 1)
    for x in range(9):
        assert potential_at((x, 4), 0, state, model) == 0


def test_potential_counts_one_walker_within_entry_distance():
    model = make_toy_model(walkers=1, particles=1, side=31)
    state = make_state(31, model.population_names,
                       [("particles", (10, 10), True), ("walkers", (14, 15), True)])
    particle = 0
    # candidate one patch away from the walker, entry distance 2
    assert potential_at((14, 14), particle, state, model) == 1
    assert potential_at((5, 5), particle, state, model) == 0


def test_potential_counts_two_targets_in_range():
    model = make_toy_model(walkers=2, particles=1, side=31)
    state = make_state(31, model.population_names, [
        ("particles", (10, 10), True),
        ("walkers", (11, 11), True),
        ("walkers", (9, 10), True),
    ])
    got = potential_at((10, 10), 0, state, model)
    assert got == oracle_potential((10, 10), 0, state, model) == 2


def test_potential_ignores_inactive_targets():
    model = make_toy_model(walkers=1, particles=1, side=31)
    state = make_state(31, model.population_names, [
        ("particles", (10, 10), True),
        ("walkers", (11, 10), False),
    ])
    assert potential_at((10, 10), 0, state, model) == 0


def test_potential_excludes_the_probing_agent_on_self_links():
    rules = parse_rules(CHASE_RULES)
    matrix = [
        InteractionMatrixEntry("flock", "walk", 0, 0),
        InteractionMatrixEntry("flock", "chase", 1, 1, "flock", 2.0),
    ]
    model = build_model(rules, matrix, side=15, sizes=2)
    state = make_state(15, model.population_names, [
        ("flock", (5, 5), True),
        ("flock", (6, 5), True),
    ])
    # each agent sees only the other one, not itself
    assert potential_at((5, 5), 0, state, model) == 1
    assert potential_at((5, 5), 1, state, model) == 1


def test_potential_unions_entries_by_widest_distance():
    rules = parse_rules(CHASE_RULES)
    matrix = [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "walk", 0, 0),
        InteractionMatrixEntry("a", "chase", 1, 1, "b", 1.0),
        InteractionMatrixEntry("a", "chase", 2, 1, "b", 3.0),
    ]
    model = build_model(rules, matrix, side=15, sizes=1)
    state = make_state(15, model.population_names, [
        ("a", (5, 5), True),
        ("b", (8, 5), True),   # within 3, outside 1: counts once
    ])
    assert potential_at((5, 5), 0, state, model) == 1
    assert potential_at((5, 5), 0, state, model) == oracle_potential((5, 5), 0, state, model)


def test_potential_matches_oracle_on_random_states():
    model = make_toy_model(walkers=30, particles=30, side=19)
    rng = np.random.default_rng(42)
    for trial in range(20):
        rows = []
        for _ in range(30):
            rows.append(("particles", tuple(rng.integers(0, 19, 2)), bool(rng.random() < 0.8)))
        for _ in range(30):
            rows.append(("walkers", tuple(rng.integers(0, 19, 2)), bool(rng.random() < 0.8)))
        state = make_state(19, model.population_names, rows)
        cand = tuple(rng.integers(0, 19, 2))
        agent = int(rng.integers(0, 60))
        assert potential_at(cand, agent, state, model) == oracle_potential(cand, agent, state, model)


# ---------------------------------------------------------------------------
# transition distribution

def test_vanishing_gradient_gives_exact_uniform():
    model = make_toy_model(walkers=1, particles=1, side=31)
    state = make_state(31, model.population_names, [
        ("particles", (5, 5), True),
        ("walkers", (20, 20), True),   # far outside every probe
    ])
    dist = transition_distribution(0, state, model)
    assert (dist.probabilities == 0.125).all()


def test_beta_zero_is_exactly_uniform_under_any_field():
    model = make_toy_model(walkers=3, particles=1, side=31, beta=0.0)
    state = make_state(31, model.population_names, [
        ("particles", (5, 5), True),
        ("walkers", (6, 5), True),
        ("walkers", (4, 5), True),
        ("walkers", (5, 7), True),
    ])
    dist = transition_distribution(0, state, model)
    assert (dist.probabilities == 0.125).all()


def test_single_target_two_east_matches_hand_computation():
    """Expected row computed by probing all 16 positions by hand."""
    model = make_toy_model(walkers=1, particles=1, side=31)
    state = make_state(31, model.population_names, [
        ("particles", (10, 10), True),
        ("walkers", (12, 10), True),
    ])
    dist = transition_distribution(0, state, model).probabilities
    diag_toward = 0.16919417382415922   # 0.125 * (1 + 1 / (2 sqrt 2))
    diag_away = 0.08080582617584078     # 0.125 * (1 - 1 / (2 sqrt 2))
    expected = np.array([
        diag_away, 0.0625, diag_away, 0.125, 0.125, diag_toward, 0.1875, diag_toward,
    ])
    assert np.allclose(dist, expected, atol=1e-14)
    # eastward offsets strictly beat their westward mirrors
    assert dist[6] > dist[1]
    assert dist[5] > dist[2]
    assert dist[7] > dist[0]


@given(
    st.integers(0, 10**6),
    st.floats(0.0, 10.0, allow_nan=False),
)
@settings(max_examples=200)
def test_bias_weights_always_a_distribution(seed, beta):
    rng = np.random.default_rng(seed)
    h_plus = rng.integers(0, 60, size=(16, 8))
    h_minus = rng.integers(0, 60, size=(16, 8))
    probs = bias_weights(h_plus, h_minus, beta)
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-12


def _row_major_bias_weights(h_plus, h_minus, beta):
    """The move law as first written, on rows: ``sum(axis=-1)`` takes
    numpy's pairwise order on a contiguous row of 8."""
    raw = np.subtract(h_plus, h_minus, dtype=float)
    raw *= beta
    raw *= 1.0 / (2.0 * np.hypot(OFFSET_ARRAY[:, 0], OFFSET_ARRAY[:, 1]))
    raw += 1.0
    raw *= 0.125
    np.maximum(raw, 0.0, out=raw)
    total = np.ascontiguousarray(raw).sum(axis=-1, keepdims=True)
    raw /= np.where(total > 0.0, total, 1.0)
    np.copyto(raw, 0.125, where=~(total > 0.0))
    return raw


def _row_major_sample_rows(probs, u):
    cum = np.cumsum(probs, axis=-1)
    return np.minimum((cum < u[..., None]).sum(axis=-1), 7)


def _assert_same_move_law(h_plus, h_minus, beta, u):
    got = bias_weights(h_plus, h_minus, beta)
    want = _row_major_bias_weights(np.ascontiguousarray(h_plus), np.ascontiguousarray(h_minus), beta)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    rows = dynamics._sample_rows(got, u)
    assert rows.tolist() == _row_major_sample_rows(want, u).tolist()
    return got


@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0, 60.0])
def test_move_law_bytes_do_not_depend_on_the_memory_layout(beta):
    """``bias_weights`` and ``_sample_rows`` give the bytes of the row-major
    formulas on C-order rows, on the probe-major views ``step`` passes and
    on single 8-vectors, including clamped and all-zero rows."""
    rng = np.random.default_rng(int(beta * 10) + 1)
    n = 4000
    h_plus = rng.integers(0, 40, size=(n, 8))
    h_minus = rng.integers(0, 40, size=(n, 8))
    h_plus[:50], h_minus[:50] = 0, 90  # every weight clamps: the uniform fallback
    u = rng.random(n)
    probs = _assert_same_move_law(h_plus, h_minus, beta, u)
    # Draws that land exactly on a running sum, and past the last one.
    u[100:200] = np.cumsum(probs[100:200], axis=-1)[np.arange(100), rng.integers(0, 8, 100)]
    u[200:210] = np.nextafter(1.0, 0.0)
    _assert_same_move_law(h_plus, h_minus, beta, u)
    probe_major = np.ascontiguousarray(h_plus.T)  # (8, F), as in ``step``
    _assert_same_move_law(probe_major.T, probe_major[::-1].T, beta, u)
    for row in (0, 7, 500):
        _assert_same_move_law(h_plus[row], h_plus[row][::-1], beta, u[row:row + 1])
        _assert_same_move_law(h_plus[row], h_minus[row], beta, u[row:row + 1])
    if beta:
        assert (probs[:50] == 0.125).all()
        assert (probs == 0.0).any()


def test_move_law_bytes_with_an_array_beta():
    """``beta`` may be an array that broadcasts against the rows."""
    rng = np.random.default_rng(12)
    h_plus = rng.integers(0, 80, size=(3000, 8))
    h_minus = rng.integers(0, 80, size=(3000, 8))
    beta = rng.uniform(0.0, 10.0, size=(3000, 1))
    u = rng.random(3000)
    _assert_same_move_law(h_plus, h_minus, beta, u)
    probe_major = np.ascontiguousarray(h_plus.T)
    _assert_same_move_law(probe_major.T, probe_major[::-1].T, beta, u)


def test_transition_distribution_type_rejects_bad_rows():
    with pytest.raises(ValueError):
        TransitionDistribution(np.array([1.0] * 8))
    with pytest.raises(ValueError):
        TransitionDistribution(np.array([-0.1, 1.1] + [0.0] * 6))


# ---------------------------------------------------------------------------
# rule selection

def test_toy_particles_select_cooc_when_walkers_exist():
    model = make_toy_model(walkers=5, particles=5, side=31)
    state = initialize(model, 2)
    particle = int(np.nonzero(state.population_index == model.population_names.index("particles"))[0][0])
    entry = select_rule(particle, state, model)
    assert entry.interaction_name == "cooc"


def test_fallback_to_walk_when_no_active_targets():
    model = make_toy_model(walkers=2, particles=1, side=31)
    state = make_state(31, model.population_names, [
        ("particles", (3, 3), True),
        ("walkers", (9, 9), False),
        ("walkers", (1, 1), False),
    ])
    entry = select_rule(0, state, model)
    assert entry.interaction_name == "walk"


def test_priority_ties_break_by_matrix_order():
    rules = parse_rules(CHASE_RULES)
    matrix = [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "walk", 0, 0),
        InteractionMatrixEntry("c", "walk", 0, 0),
        InteractionMatrixEntry("a", "chase", 1, 1, "b", 2.0),
        InteractionMatrixEntry("a", "chase", 1, 1, "c", 2.0),
    ]
    model = build_model(rules, matrix, side=15, sizes=2)
    state = initialize(model, 4)
    a0 = int(np.nonzero(state.population_index == model.population_names.index("a"))[0][0])
    entry = select_rule(a0, state, model)
    assert entry.target_family == "b"
    assert entry is model.matrix[3]


def test_priorities_beyond_int64_keep_their_order():
    """Priorities need not fit in int64: ``a`` chases ``b`` at 2**64 + 1 over
    its walk at 2**64, and ``b`` walks at 2**63 over its chase at 2**63 - 1."""
    matrix = [
        InteractionMatrixEntry("a", "walk", 2**64, 0),
        InteractionMatrixEntry("b", "walk", 2**63, 0),
        InteractionMatrixEntry("a", "chase", 2**64 + 1, 1, "b", 2.0),
        InteractionMatrixEntry("b", "chase", 2**63 - 1, 1, "a", 2.0),
    ]
    model = build_model(parse_rules(CHASE_RULES), matrix, side=15, sizes=2)
    state = initialize(model, 4)
    assert [select_rule(agent, state, model) for agent in range(4)] == [
        matrix[2], matrix[2], matrix[1], matrix[1]]
    _assert_steps_match_oracle(model, 4, 2)


def test_no_applicable_entry_faults():
    rules = parse_rules(CHASE_RULES)
    bare = build_model(rules, [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "chase", 1, 1, "a", 2.0),
    ], side=9, sizes=2)
    lone = make_state(9, ("a", "b"), [("a", (1, 1), False), ("b", (2, 2), True)])
    with pytest.raises(ConfigurationFault):
        select_rule(1, lone, bare)  # b's only entry needs an active a


def test_the_run_time_refusal_names_the_population():
    bare = build_model(parse_rules(CHASE_RULES), [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "chase", 1, 1, "a", 2.0),
    ], side=9, sizes=2)
    lone = make_state(9, ("a", "b"), [("a", (1, 1), False), ("b", (2, 2), True)])
    with pytest.raises(ConfigurationFault, match="no applicable matrix entry for population 'b'$"):
        step(lone, bare, 1)


def test_unresolved_references_fault_before_stepping():
    rules = parse_rules(CHASE_RULES)
    dangling = build_model(rules, [InteractionMatrixEntry("a", "nosuch", 0, 0)], side=9, sizes=2)
    state = initialize(dangling, 1)
    with pytest.raises(ConfigurationFault, match="unresolved"):
        step(state, dangling, 1)


def _teleport_model():
    model = chase_model()
    rules = tuple(dataclasses.replace(r, movement_action="teleport") if r.name == "walk" else r
                  for r in model.rules)
    return dataclasses.replace(model, rules=rules)


def _distanceless_model():
    model = chase_model()
    chase = dataclasses.replace(model.matrix[2], distance=None)
    return dataclasses.replace(model, matrix=model.matrix[:2] + (chase,))


@pytest.mark.parametrize("make, first_error", [
    (lambda: chase_model(distance=-1.0), "distance must be a finite positive number"),
    (_teleport_model, "unknown movement action 'teleport'"),
    (lambda: chase_model(beta=-5.0), "beta must be a finite nonnegative number"),
    (lambda: chase_model(distance=float("nan")), "distance must be a finite positive number"),
    (_distanceless_model, "target family and distance must be given together"),
], ids=["distance_-1", "teleport", "beta_-5", "distance_nan", "no_distance"])
def test_every_entry_point_refuses_a_model_validate_rejects(monkeypatch, make, first_error):
    """``run``, ``step``, ``select_rule``, ``potential_at`` and
    ``transition_distribution`` raise validate's first error before any tick."""
    model = make()
    assert first_error in [d.message for d in validate(model) if d.is_error][0]
    state = initialize(model, 1)
    ticks = []
    monkeypatch.setattr(dynamics, "agent_uniforms", lambda *args: ticks.append(args))
    calls = [
        lambda: run(model, report_ticks=[0], observers=[lambda s, m: ticks.append(s.tick)]),
        lambda: step(state, model, 1),
        lambda: select_rule(0, state, model),
        lambda: potential_at((0, 0), 0, state, model),
        lambda: transition_distribution(0, state, model),
    ]
    for call in calls:
        with pytest.raises(ConfigurationFault, match=first_error):
            call()
    assert ticks == []


@pytest.mark.parametrize("size, seed, first_error", [
    (-1, 3, "population 'chaser' must have size >= 1, got -1"),
    (1, -1, "seed must fit in 64 unsigned bits, got -1"),
], ids=["size_-1", "seed_-1"])
def test_run_names_validates_first_error_for_a_model_it_cannot_place(size, seed, first_error):
    """Placement fails first on these models, yet ``run`` raises validate's
    first error; a valid model with a seed placement refuses keeps its error."""
    model = build_model(parse_rules(CHASE_RULES), chase_model().matrix, side=15, sizes=size,
                        seed=seed)
    with pytest.raises(ConfigurationFault, match=first_error):
        run(model)
    with pytest.raises(ValueError):
        run(chase_model(), seed=-1)


@pytest.mark.parametrize("seed", [2**64, -1])
@pytest.mark.parametrize("call", ["run", "initialize", "step"])
def test_a_seed_argument_obeys_validates_seed_rule(monkeypatch, call, seed):
    """A seed ``validate`` refuses in ``SimParams`` is refused as an argument
    too, before any draw, where it ran (2**64) or failed inside numpy (-1)."""
    model = chase_model()
    state = initialize(model, 1)
    draws = []
    monkeypatch.setattr(dynamics, "agent_uniforms", lambda *args: draws.append(args))
    monkeypatch.setattr(model_module, "placement_generator", lambda *args: draws.append(args))
    calls = {"run": lambda: run(model, seed=seed), "initialize": lambda: initialize(model, seed),
             "step": lambda: step(state, model, seed)}
    with pytest.raises(ValueError, match=f"seed must fit in 64 unsigned bits, got {seed}$"):
        calls[call]()
    assert draws == []


def test_a_model_is_validated_and_compiled_once_across_entry_points(validate_calls, monkeypatch):
    """``run``, ``step`` and the per-agent queries share one verdict and one
    rule layout per model; a replaced model gets its own."""
    built = []

    class CountedLayout(model_module._Layout):
        def __init__(self, model):
            built.append(model)
            super().__init__(model)

    monkeypatch.setattr(model_module, "_Layout", CountedLayout)
    model = hub_and_ring_model(seed=5, max_ticks=2)
    run(model, report_ticks=[2])
    state = initialize(model, 5)
    for _ in range(3):
        state = step(state, model)
    agent = int(np.flatnonzero(state.active)[0])
    select_rule(agent, state, model)
    potential_at((0, 0), agent, state, model)
    transition_distribution(agent, state, model)
    assert validate_calls == [model] and built == [model]

    refused = dataclasses.replace(model, params=dataclasses.replace(model.params, beta=-1.0))
    with pytest.raises(ConfigurationFault, match="beta must be a finite nonnegative number"):
        step(state, refused)
    assert validate_calls == [model, refused] and built == [model, refused]


@pytest.mark.parametrize("make_state_of", [
    lambda model: initialize(chase_model(side=31), 1),
    lambda model: initialize(chase_model(side=11), 1),
    lambda model: dataclasses.replace(initialize(model, 1),
                                      population_names=model.population_names[::-1]),
], ids=["wider", "narrower", "population_order"])
def test_every_entry_point_refuses_a_state_of_another_model(make_state_of):
    """A state whose side or population names are not the model's is refused
    with an error naming both, instead of an IndexError, a successor of the
    wrong side or another population's entry."""
    model = chase_model(side=15)
    state = make_state_of(model)
    calls = [
        lambda: step(state, model, 1),
        lambda: select_rule(0, state, model),
        lambda: potential_at((0, 0), 0, state, model),
        lambda: transition_distribution(0, state, model),
    ]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        for value in (state.side, state.population_names, 15, model.population_names):
            assert str(value) in str(refused.value)


@pytest.mark.parametrize("index", [2, 5, -1, 2**32, np.int32(-1), np.int32(2)], ids=repr)
def test_world_state_refuses_a_population_index_out_of_range(index):
    """An int64 index of 2**32 would wrap to population 0 under the int32 cast;
    an int32 index (the dtype ``initialize`` builds) takes the same check."""
    with pytest.raises(ValueError, match=r"population index out of range \[0, 2\)"):
        dataclasses.replace(make_state(9, ("a", "b"), [("a", (1, 1), True), ("b", (2, 2), True)]),
                            population_index=np.array([0, index],
                                                      dtype=getattr(index, "dtype", np.int64)))


@pytest.mark.parametrize("field, values", [
    ("positions", [[1, 1], [0.9, 4.7]]),
    ("population_index", [0, 0.5]),
    ("active", [1, 2]),
], ids=["float_positions", "float_index", "int_active"])
def test_world_state_refuses_values_the_cast_would_change(field, values):
    """Positions would truncate to [0, 4], an index to population 0 and an
    activity flag of 2 to True; each is refused rather than silently cast."""
    state = make_state(9, ("a", "b"), [("a", (1, 1), True), ("b", (2, 2), True)])
    with pytest.raises(ValueError, match="changes when cast to"):
        dataclasses.replace(state, **{field: np.array(values)})


@pytest.mark.parametrize("index", [np.array(["0", "1"]), np.array([0, 1], dtype=object)],
                         ids=["str", "object"])
def test_world_state_refuses_a_population_index_that_is_not_numeric(index):
    """Refused by dtype, before the range check compares strings or objects with ints."""
    state = make_state(9, ("a", "b"), [("a", (1, 1), True), ("b", (2, 2), True)])
    with pytest.raises(ValueError, match="population index must be numeric, got dtype"):
        dataclasses.replace(state, population_index=index)


def test_world_state_accepts_values_the_cast_keeps():
    state = dataclasses.replace(
        make_state(9, ("a", "b"), [("a", (1, 1), True), ("b", (2, 2), True)]),
        population_index=[0, 1.0], positions=np.array([[1, 1], [0.0, 4.0]]), active=[1, 0])
    assert state.population_index.dtype == np.int32 and state.population_index.tolist() == [0, 1]
    assert state.positions.dtype == np.int64 and state.positions.tolist() == [[1, 1], [0, 4]]
    assert state.active.tolist() == [True, False]
    assert not any(a.flags.writeable for a in (state.population_index, state.positions, state.active))


# ---------------------------------------------------------------------------
# stepping

def test_every_active_agent_moves_by_one_offset():
    model = make_walk_model(n_agents=500, side=31, seed=9)
    state = initialize(model, 9)
    after = step(state, model, 9)
    delta = after.positions - state.positions
    delta = ((delta + 15) % 31) - 15
    lengths = (delta ** 2).sum(axis=1)
    assert set(np.unique(lengths)) <= {1, 2}
    assert after.tick == 1


def test_step_is_deterministic():
    model = make_toy_model(walkers=50, particles=50, side=21, seed=5)
    state = initialize(model, 5)
    a = step(state, model, 5)
    b = step(state, model, 5)
    assert (a.positions == b.positions).all()
    assert (a.active == b.active).all()


def test_step_matches_reference_in_any_iteration_order():
    model = make_toy_model(walkers=12, particles=12, side=13, seed=11)
    state = initialize(model, 11)
    for _ in range(3):
        fast = step(state, model, 11)
        slow = oracle_step(state, model, 11)
        shuffled = oracle_step(state, model, 11, order=list(reversed(range(state.n_agents))))
        assert (fast.positions == slow.positions).all()
        assert (fast.active == slow.active).all()
        assert (slow.positions == shuffled.positions).all()
        assert (slow.active == shuffled.active).all()
        state = fast


def test_step_matches_reference_on_random_models():
    """Bitwise agreement with the per-agent oracle across random
    configurations: mixed priorities, cardinalities, self-links, frozen
    agents and varying bias strengths."""
    rng = np.random.default_rng(1234)
    rules = parse_rules("""
interaction walk
actions random-walk deactivate-none
end

interaction pull
actions follow-path deactivate-none
end

interaction glue
actions follow-path deactivate-source
end
""")
    for trial in range(6):
        n_pops = int(rng.integers(2, 5))
        names = [f"p{i}" for i in range(n_pops)]
        matrix = [InteractionMatrixEntry(name, "walk", 0, 0) for name in names]
        for _ in range(int(rng.integers(1, 2 * n_pops))):
            source = names[rng.integers(0, n_pops)]
            target = names[rng.integers(0, n_pops)]  # self-links allowed
            rule = "pull" if rng.random() < 0.5 else "glue"
            matrix.append(InteractionMatrixEntry(
                source, rule,
                int(rng.integers(1, 4)), int(rng.integers(0, 3)),
                target, float(rng.choice([1.0, 2.0, 3.0])),
            ))
        model = build_model(rules, matrix, side=11,
                            sizes={n: int(rng.integers(3, 9)) for n in names},
                            beta=float(rng.choice([0.0, 1.0, 4.0])), seed=trial)
        state = initialize(model, trial)
        # freeze a few agents by hand to exercise the inactive paths
        active = state.active.copy()
        active[rng.integers(0, state.n_agents, size=2)] = False
        state = make_state(
            11, model.population_names,
            [(model.population_names[state.population_index[i]],
              tuple(state.positions[i]), bool(active[i]))
             for i in range(state.n_agents)],
        )
        for _ in range(2):
            fast = step(state, model, trial)
            slow = oracle_step(state, model, trial)
            assert (fast.positions == slow.positions).all(), f"trial {trial}"
            assert (fast.active == slow.active).all(), f"trial {trial}"
            state = fast


def _assert_steps_match_oracle(model, seed, ticks):
    state = initialize(model, seed)
    for tick in range(ticks):
        fast = step(state, model, seed)
        slow = oracle_step(state, model, seed)
        assert (fast.positions == slow.positions).all(), f"tick {tick}"
        assert (fast.active == slow.active).all(), f"tick {tick}"
        state = fast
    return state


def test_a_crowded_toy_run_sums_its_first_counts_and_matches_reference(monkeypatch):
    """30 walkers on 15 x 15 patches are a point per 7.5 cells, so tick 0's
    field and freeze counts each sum the walkers' disks with one
    ``disk_sum``, and the steps still equal the loop oracle. Both counts
    have radius 2, so the run builds one wrap table, padded by 2 + 1 for its
    probed disks, and none of pad 0: unshifted keys are computed."""
    sums, pads = [], set()
    disk_sum, wrap_table = lattice.disk_sum, lattice._wrap_table
    monkeypatch.setattr(lattice, "disk_sum", lambda grid, *args: sums.append(grid.shape)
                        or disk_sum(grid, *args))
    monkeypatch.setattr(lattice, "_wrap_table", lambda side, pad: pads.add(pad)
                        or wrap_table(side, pad))
    model = make_toy_model(walkers=30, particles=120, side=15, seed=5)
    last = _assert_steps_match_oracle(model, 5, 4)
    assert sums[:2] == [(1, 15, 15)] * 2 and pads == {3}
    assert 0 < last.active.sum() < last.n_agents


def hub_and_ring_model(side=13, sizes=2, **kwargs):
    """The gen-matrix shape of a real network: every ring population follows
    the hub and its ring neighbours, so field groups are shared between
    many populations."""
    ring = [f"r{i:02d}" for i in range(32)]
    text = "".join(f"{name} zhub\n{name} {ring[(i + 1) % len(ring)]}\n"
                   for i, name in enumerate(ring))
    relation = build_relation_model(parse_edge_list(text), "zhub", kind="extended")
    assert len(relation.populations) == 33
    return build_model(relation.rules, relation.matrix, side=side, sizes=sizes, **kwargs)


def test_step_matches_reference_on_an_extended_hub_and_ring():
    model = hub_and_ring_model(seed=21)
    last = _assert_steps_match_oracle(model, 21, 3)
    assert 0 < last.active.sum() < last.n_agents


def test_run_equals_a_hand_loop_of_step_on_the_hub_and_ring():
    """``run`` and a hand loop of ``step`` read the same rule layout; both
    must give the same observations and final state."""
    model = hub_and_ring_model(seed=5, max_ticks=6)
    observe = [lambda s, m: s.positions.copy(), lambda s, m: s.active.copy()]
    result = run(model, report_ticks=[0, 2, 6], observers=observe, seed=5)
    states = [initialize(model, 5)]
    for _ in range(6):
        states.append(step(states[-1], model, 5))
    for tick in (0, 2, 6):
        positions, active = result.observations[tick]
        assert (positions == states[tick].positions).all(), f"tick {tick}"
        assert (active == states[tick].active).all(), f"tick {tick}"
    state = states[-1]
    assert state.tick == result.final_state.tick == 6
    assert (state.positions == result.final_state.positions).all()
    assert (state.active == result.final_state.active).all()
    assert 0 < state.active.sum() < state.n_agents


def test_transition_distribution_probes_match_the_oracle_on_the_hub_and_ring():
    """One compiled count answers the 8 probes of an agent; each probe
    count equals the loop oracle at that offset, and the distribution is the
    one the oracle's counts give."""
    model = hub_and_ring_model(seed=9, beta=2.0)
    state = initialize(model, 9)
    seen = 0
    for agent in range(state.n_agents):
        r = state.positions[agent]
        h = np.array([oracle_potential((r[0] + dx, r[1] + dy), agent, state, model)
                      for dx, dy in OFFSET_ARRAY], dtype=np.int64)
        assert dynamics._field(r, agent, state, model, True).tolist() == h.tolist()
        probs = transition_distribution(agent, state, model).probabilities
        assert np.array_equal(probs, bias_weights(h, h[::-1], model.params.beta))
        seen += int(h.sum())
    assert seen > 0


def test_step_matches_reference_on_shared_targets_and_whole_torus_disks(monkeypatch):
    """One population follows the same target at two distances, another
    population's distance covers the whole torus. Tiny grid and chunk
    budgets force one group per grid, many stamp chunks and read chunks of
    two followers' probes, so the field stamps disks and reads cells and the
    freeze check stamps points and sums disks across chunk boundaries."""
    monkeypatch.setattr(lattice, "_GRID_CELLS", 1)
    monkeypatch.setattr(lattice, "_CHUNK_KEYS", 7)
    monkeypatch.setattr(lattice, "_READ_KEYS", 20)
    rules = parse_rules("""
interaction walk
actions random-walk deactivate-none
end

interaction pull
actions follow-path deactivate-none
end

interaction glue
actions follow-path deactivate-source
end
""")
    matrix = [InteractionMatrixEntry(name, "walk", 0, 0) for name in "abcd"]
    matrix += [
        InteractionMatrixEntry("a", "glue", 2, 1, "b", 1.5),
        InteractionMatrixEntry("a", "pull", 1, 1, "b", 3.0),
        InteractionMatrixEntry("d", "pull", 1, 1, "b", 1.5),
        InteractionMatrixEntry("d", "pull", 1, 1, "c", 2.0),
        InteractionMatrixEntry("b", "pull", 1, 1, "b", 20.0),
        InteractionMatrixEntry("c", "glue", 1, 5, "a", 20.0),
    ]
    model = build_model(rules, matrix, side=9, beta=2.0, seed=5,
                        sizes={"a": 5, "b": 4, "c": 3, "d": 3})
    _assert_steps_match_oracle(model, 5, 4)


def test_step_adds_a_followers_field_groups_as_the_oracle_does():
    """Population ``a`` follows three field groups: ``b`` and ``c`` (one
    target each, as a population's entries to one target merge into one group),
    at distances 1.5 and 3, and itself. ``d`` follows ``b`` at 3 as well, so
    ``b`` is the target of groups at both distances. ``step`` adds ``a``'s
    three counts per probe in the several-groups branch and matches the oracle."""
    rules = parse_rules(CHASE_RULES)
    matrix = [InteractionMatrixEntry(name, "walk", 0, 0) for name in "abcd"]
    matrix += [
        InteractionMatrixEntry("a", "chase", 1, 1, "b", 1.5),
        InteractionMatrixEntry("a", "chase", 1, 1, "c", 3.0),
        InteractionMatrixEntry("a", "chase", 1, 1, "a", 2.0),
        InteractionMatrixEntry("d", "chase", 1, 1, "b", 3.0),
    ]
    model = build_model(rules, matrix, side=11, beta=3.0, seed=7,
                        sizes={"a": 9, "b": 6, "c": 5, "d": 4})
    layout = model.layout
    groups = layout.group_source == 0
    assert list(zip(layout.group_target[groups].tolist(), layout.group_distance[groups].tolist())) \
        == [(0, 2.0), (1, 1.5), (2, 3.0)]
    _assert_steps_match_oracle(model, 7, 3)
    plan = model.layout._last[1]
    assert plan.follow.tolist() == [0, 3]
    assert len(plan.field.sources) > len(plan.follow)


def test_step_matches_reference_when_the_active_ids_start_inside_a_counter_block():
    """Agents 0-5 and the last 3 are frozen, so step draws uniforms over an
    id span whose first agent is not the first of a Philox counter block."""
    model = make_toy_model(walkers=10, particles=14, side=11, seed=1)
    active = np.ones(24, dtype=bool)
    active[:6] = active[-3:] = False
    state = dataclasses.replace(initialize(model, 1), active=active)
    for tick in range(4):
        assert np.flatnonzero(state.active)[0] % 4 != 0
        fast = step(state, model, 1)
        slow = oracle_step(state, model, 1)
        assert (fast.positions == slow.positions).all(), f"tick {tick}"
        assert (fast.active == slow.active).all(), f"tick {tick}"
        state = fast


def test_step_matches_reference_on_rows_out_of_population_order():
    """Agent rows in a random permutation of population order, some frozen:
    ``step`` sorts the active ids by population and still matches the
    oracle."""
    model = make_toy_model(walkers=20, particles=30, side=13, seed=4)
    start = initialize(model, 4)
    rng = np.random.default_rng(8)
    order = rng.permutation(start.n_agents)
    active = start.active[order].copy()
    active[rng.choice(start.n_agents, size=8, replace=False)] = False
    state = dataclasses.replace(start, population_index=start.population_index[order],
                                positions=start.positions[order], active=active)
    pops = state.population_index[state.active]
    assert (pops[1:] < pops[:-1]).any()
    for tick in range(3):
        fast = step(state, model, 4)
        slow = oracle_step(state, model, 4)
        assert (fast.positions == slow.positions).all(), f"tick {tick}"
        assert (fast.active == slow.active).all(), f"tick {tick}"
        state = fast


def _spy_by_population(monkeypatch):
    """Count the calls ``step`` makes to the general active-set path."""
    calls = []
    by_population = dynamics._by_population

    def spy(*args):
        calls.append(1)
        return by_population(*args)

    monkeypatch.setattr(dynamics, "_by_population", spy)
    return calls


def _is_run_in_population_order(state):
    ids = np.flatnonzero(state.active)
    pops = state.population_index[ids]
    return (len(ids) == 0 or ids[-1] - ids[0] + 1 == len(ids)) and (pops[1:] >= pops[:-1]).all()


@pytest.mark.parametrize("first,last", [(0, 18), (5, 20), (10, 24), (9, 10), (0, 0)],
                         ids=["start", "middle", "end", "single", "none"])
def test_step_on_a_run_of_active_ids_matches_the_oracle(monkeypatch, first, last):
    """Active ids [first, last) in population order take the slice path;
    once a freeze breaks the run, the general path. Both match the oracle."""
    calls = _spy_by_population(monkeypatch)
    model = make_toy_model(walkers=10, particles=14, side=7, seed=2)
    active = np.zeros(24, dtype=bool)
    active[first:last] = True
    state = dataclasses.replace(initialize(model, 2), active=active)
    run_ticks = 0
    for tick in range(3):
        run = _is_run_in_population_order(state)
        run_ticks += run
        calls.clear()
        fast = step(state, model, 2)
        slow = oracle_step(state, model, 2)
        assert (fast.positions == slow.positions).all(), f"tick {tick}"
        assert (fast.active == slow.active).all(), f"tick {tick}"
        assert len(calls) == (0 if run else 1), f"tick {tick}"
        state = fast
    assert run_ticks >= 1


def test_a_run_with_a_freeze_on_the_slice_path_matches_the_oracle(monkeypatch):
    """Particles freeze in the first tick of a run that starts inside the
    ids, so frozen rows map back to ids through the run's first id."""
    calls = _spy_by_population(monkeypatch)
    model = make_toy_model(walkers=10, particles=14, side=7, seed=2)
    active = np.zeros(24, dtype=bool)
    active[5:20] = True
    state = dataclasses.replace(initialize(model, 2), active=active)
    fast = step(state, model, 2)
    slow = oracle_step(state, model, 2)
    assert calls == []
    assert (fast.positions == slow.positions).all()
    assert (fast.active == slow.active).all()
    assert 0 < (state.active & ~fast.active).sum()


def test_a_run_out_of_population_order_takes_the_general_path(monkeypatch):
    """Active ids that are one run but not in population order (a permuted
    ``population_index``) go through ``_by_population``."""
    calls = _spy_by_population(monkeypatch)
    model = make_toy_model(walkers=10, particles=14, side=7, seed=3)
    start = initialize(model, 3)
    order = np.random.default_rng(5).permutation(start.n_agents)
    active = np.zeros(24, dtype=bool)
    active[4:20] = True
    state = dataclasses.replace(start, population_index=start.population_index[order],
                                positions=start.positions[order], active=active)
    assert not _is_run_in_population_order(state)
    for tick in range(3):
        calls.clear()
        fast = step(state, model, 3)
        slow = oracle_step(state, model, 3)
        assert (fast.positions == slow.positions).all(), f"tick {tick}"
        assert (fast.active == slow.active).all(), f"tick {tick}"
        assert len(calls) == (0 if _is_run_in_population_order(state) else 1), f"tick {tick}"
        state = fast


def _spy_linked_counts(monkeypatch):
    """Record the links as given and whether they were compiled probed, of every
    ``_linked_counts`` call that ``step`` makes. The links are recorded when the
    layout compiles them, keyed by the compiled object."""
    calls, given = [], {}
    compile_links, linked_counts = model_module._compile_links, dynamics._linked_counts

    def compile_spy(sources, targets, radii, side, probed=False):
        compiled = compile_links(sources, targets, radii, side, probed)
        links = zip(sources.tolist(), zip(targets.tolist(), radii.tolist()))
        given[id(compiled)] = list(links), probed
        return compiled

    def spy(starts, xy, links):
        calls.append(given[id(links)])
        return linked_counts(starts, xy, links)

    monkeypatch.setattr(model_module, "_compile_links", compile_spy)
    monkeypatch.setattr(dynamics, "_linked_counts", spy)
    return calls


def test_a_walk_only_tick_counts_no_field_and_no_freeze(monkeypatch):
    calls = _spy_linked_counts(monkeypatch)
    model = make_walk_model(n_agents=50, side=11, seed=2)
    state = step(initialize(model, 2), model, 2)
    assert calls == []
    assert state.active.all()


def test_a_walk_draw_of_eight_times_u_truncates_as_exact_arithmetic_does():
    """``step`` takes a walk move as ``(u * 8.0).astype(np.int64)`` with no clamp
    to 7: u < 1, and scaling by a power of two rounds nothing, so the largest
    draw below 1 gives 7, and each k / 8 and the doubles either side of it
    give floor(8 u)."""
    assert (np.nextafter(1.0, 0.0) * 8.0).astype(np.int64) == 7
    edges = np.arange(9) / 8.0
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = (u * 8.0).astype(np.int64)
    assert got.tolist() == [math.floor(Fraction(x) * 8) for x in u.tolist()]


def test_a_walk_only_tick_hands_on_its_active_array():
    """With no freeze count the successor keeps the predecessor's read-only
    ``active``, values and all."""
    model = make_walk_model(n_agents=50, side=11, seed=2)
    state = initialize(model, 2)
    after = step(state, model, 2)
    assert after.active is state.active and not after.active.flags.writeable
    assert after.active.all()


def test_a_freezing_tick_leaves_its_predecessors_active_unchanged():
    """A tick that freezes agents writes a new read-only ``active``; the state
    it stepped from still reads as before."""
    model = make_toy_model(walkers=10, particles=14, side=7, seed=2)
    state = initialize(model, 2)
    before = state.active.copy()
    after = step(state, model, 2)
    assert np.array_equal(state.active, before) and not state.active.flags.writeable
    assert not after.active.flags.writeable and 0 < (before & ~after.active).sum()


def test_a_follow_tick_without_a_freezing_entry_counts_only_the_field(monkeypatch):
    calls = _spy_linked_counts(monkeypatch)
    model = chase_model(seed=6)
    step(initialize(model, 6), model, 6)
    chaser, beacon = (model.population_names.index(name) for name in ("chaser", "beacon"))
    assert calls == [([(chaser, (beacon, 2.5))], True)]


@pytest.mark.parametrize("several_groups", [True, False])
def test_both_ways_of_building_the_field_rows_match_the_oracle(monkeypatch, several_groups):
    """On the hub and ring a ring population follows up to three field
    groups, so each follower's rows are added up; in the toy model each
    follower has one group, and the counts are the field rows as they come."""
    calls = _spy_linked_counts(monkeypatch)
    if several_groups:
        model, seed = hub_and_ring_model(seed=21), 21
    else:
        model, seed = make_toy_model(walkers=30, particles=40, side=15, seed=3), 3
    _assert_steps_match_oracle(model, seed, 3)
    fields = [links for links, probed in calls if probed]
    assert len(fields) == 3
    for links in fields:
        followers = {pop for pop, _ in links}
        assert (len(links) > len(followers)) == several_groups


@pytest.mark.parametrize("block", [1, 7, "default"])
def test_the_move_draw_in_blocks_of_followers_moves_as_all_rows_at_once(monkeypatch, block):
    """The move law and the CDF inversion work row by row, so any block of
    follower rows gives the moves of one block over all followers. At tick 0
    every particle follows (the slice path): the followers span several
    blocks of each size and end in a partial one. The second step starts
    after freezes, on the general path."""
    default = dynamics._MOVE_ROWS
    followers = default + 1058
    model = make_toy_model(walkers=300, particles=followers, side=101, seed=5)
    start = initialize(model, 5)
    assert start.active.all() and followers % 7 and followers % default

    def two_steps(rows):
        monkeypatch.setattr(dynamics, "_MOVE_ROWS", rows)
        states = [start]
        for _ in range(2):
            states.append(step(states[-1], model, 5))
        return states[1:]

    whole = two_steps(start.n_agents)
    assert not whole[0].active.all()  # the second step starts from a freeze
    for want, got in zip(whole, two_steps(default if block == "default" else block)):
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.active, want.active)


def test_freeze_thresholds_follow_the_link_order_not_the_group_order(monkeypatch):
    """``a`` and ``c`` freeze next to ``d`` within 2 (cardinalities 1 and 3),
    ``b`` next to three other ``b`` within 1 (a self-link). ``a`` and ``c``
    share a group, so the rows go out as a, c, b: the returned link slots
    must still index the links as given, and the field rows, one group per
    follower, come back in that order."""
    calls = _spy_linked_counts(monkeypatch)
    rules = parse_rules("""
interaction walk
actions random-walk deactivate-none
end

interaction glue
actions follow-path deactivate-source
end
""")
    matrix = [InteractionMatrixEntry(name, "walk", 0, 0) for name in "abcd"]
    matrix += [InteractionMatrixEntry("a", "glue", 1, 1, "d", 2.0),
               InteractionMatrixEntry("b", "glue", 1, 3, "b", 1.0),
               InteractionMatrixEntry("c", "glue", 1, 3, "d", 2.0)]
    model = build_model(rules, matrix, side=9, seed=7,
                        sizes={"a": 12, "b": 30, "c": 12, "d": 10})
    last = _assert_steps_match_oracle(model, 7, 3)
    freeze_links = [(0, (3, 2.0)), (1, (1, 1.0)), (2, (3, 2.0))]
    assert [links for links, probed in calls if not probed][0] == freeze_links
    frozen = np.bincount(last.population_index[~last.active], minlength=4)
    assert frozen[:3].all() and frozen[3] == 0


INVARIANT_RULES = parse_rules("""
interaction walk
actions random-walk deactivate-none
end

interaction pull
actions follow-path deactivate-none
end

interaction glue
actions follow-path deactivate-source
end
""")


def _spy_plans(monkeypatch):
    """The plan each ``step`` reads, in tick order, and the populations
    ``layout.select`` was asked about."""
    plans, selects = [], []
    plan, select = model_module._Layout.plan, model_module._Layout.select

    def plan_spy(layout, counts):
        plans.append(plan(layout, counts))
        return plans[-1]

    def select_spy(layout, counts, pops):
        selects.extend(pops.tolist())
        return select(layout, counts, pops)

    monkeypatch.setattr(model_module._Layout, "plan", plan_spy)
    monkeypatch.setattr(model_module._Layout, "select", select_spy)
    return plans, selects


def _compiled(plans):
    return 1 + sum(a is not b for a, b in zip(plans, plans[1:])) if plans else 0


def test_a_hub_and_ring_run_whose_selection_holds_compiles_one_plan(monkeypatch):
    """No population empties and every target keeps its cardinality, so the
    first tick's plan serves all ticks: each population is selected once."""
    plans, selects = _spy_plans(monkeypatch)
    model = hub_and_ring_model(side=61, sizes=10, seed=5, max_ticks=8)
    final = run(model).final_state
    assert np.bincount(final.population_index[final.active], minlength=33).all()
    assert not final.active.all()  # agents froze, yet no selection changed
    assert len(plans) == 8 and _compiled(plans) == 1
    assert sorted(selects) == list(range(33))


def test_a_small_set_run_compiles_its_counts_only_when_the_plan_does(monkeypatch):
    """The layout compiles a plan's field count (probed) and freeze count
    (flat) once with the plan; a tick that reuses the plan compiles nothing,
    and ``step`` never compiles a count of its own."""
    compiled = []
    compile_counts = model_module.compile_disk_counts

    def compile_spy(side, radii, probed=False):
        compiled.append("field" if probed else "freeze")
        return compile_counts(side, radii, probed)

    def refuse(*args, **kwargs):
        raise AssertionError("step counted without the plan's compiled count")

    monkeypatch.setattr(model_module, "compile_disk_counts", compile_spy)
    monkeypatch.setattr(dynamics, "compile_disk_counts", refuse)
    plans, _ = _spy_plans(monkeypatch)
    model = make_small_set_model(max_ticks=100)
    final = run(model).final_state
    assert len(plans) == 100 and not final.active.all()
    new = [plan for k, plan in enumerate(plans) if k == 0 or plan is not plans[k - 1]]
    assert 2 <= len(new) == _compiled(plans) <= 10
    assert compiled == [kind for plan in new for kind, links in
                        (("field", plan.field), ("freeze", plan.freeze)) if links is not None]


def test_a_target_population_that_freezes_out_rebuilds_the_plan(monkeypatch):
    """``b`` freezes next to ``c`` and ``a`` follows ``b`` while any ``b`` is
    active: once every ``b`` froze, ``a`` walks and nobody follows. Every
    tick matches the oracle, across the rebuild."""
    matrix = [InteractionMatrixEntry(name, "walk", 0, 0) for name in "abc"]
    matrix += [InteractionMatrixEntry("a", "pull", 1, 1, "b", 3.0),
               InteractionMatrixEntry("b", "glue", 1, 1, "c", 2.0)]
    model = build_model(INVARIANT_RULES, matrix, side=9, seed=4, sizes={"a": 6, "b": 3, "c": 20})
    plans, _ = _spy_plans(monkeypatch)
    last = _assert_steps_match_oracle(model, 4, 6)
    assert not last.active[last.population_index == 1].any()
    assert plans[0].follow.tolist() == [0, 1] and plans[-1].follow.tolist() == []
    assert plans[-1].field is None and plans[-1].freeze is None
    assert 2 <= _compiled(plans) < len(plans)


def test_a_selection_with_no_applicable_entry_faults_on_every_step_and_caches_nothing():
    bare = build_model(parse_rules(CHASE_RULES), [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "chase", 1, 1, "a", 2.0),
    ], side=9, sizes=2)
    lone = make_state(9, ("a", "b"), [("a", (1, 1), False), ("b", (2, 2), True)])
    for _ in range(2):
        with pytest.raises(ConfigurationFault, match="no applicable matrix entry"):
            step(lone, bare, 1)
        assert bare.layout._last is None
    step(initialize(bare, 1), bare, 1)
    assert bare.layout._last is not None


@st.composite
def small_worlds(draw):
    """A random model that ``validate`` accepts, and its initial state with
    some agents frozen. Populations of 1 to 3 agents beside ones of 40 make
    the field and the freeze check stamp either the points or the queries."""
    names = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    matrix = [InteractionMatrixEntry(name, "walk", 0, 0) for name in names]
    for _ in range(draw(st.integers(0, 2 * len(names)))):
        matrix.append(InteractionMatrixEntry(
            draw(st.sampled_from(names)), draw(st.sampled_from(["pull", "glue"])),
            draw(st.integers(1, 3)), draw(st.integers(0, 2)),
            draw(st.sampled_from(names)), draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 20.0])),
        ))
    model = build_model(INVARIANT_RULES, matrix, side=draw(st.integers(3, 12)),
                        sizes={name: draw(st.sampled_from([1, 2, 3, 40])) for name in names},
                        beta=draw(st.sampled_from([0.0, 1.0, 4.0])),
                        seed=draw(st.integers(0, 2**32 - 1)))
    assert not [d for d in validate(model) if d.is_error]
    state = initialize(model, model.params.seed)
    frozen = draw(st.lists(st.booleans(), min_size=state.n_agents, max_size=state.n_agents))
    return model, dataclasses.replace(state, active=state.active & ~np.array(frozen, dtype=bool))


@st.composite
def selection_worlds(draw):
    """A random model that ``validate`` accepts, each population with a walk at
    any priority, and a state of it with some populations frozen out and some
    agents frozen. Priorities tie, and reach past int64; cardinalities reach past
    the targets' sizes; one source may follow one target at several distances."""
    names = [f"p{i}" for i in range(draw(st.integers(1, 5)))]
    priorities = st.sampled_from([0, 1, 2, 2**64])
    matrix = [InteractionMatrixEntry(name, "walk", draw(priorities), 0) for name in names]
    for _ in range(draw(st.integers(0, 3 * len(names)))):
        matrix.append(InteractionMatrixEntry(
            draw(st.sampled_from(names)), draw(st.sampled_from(["pull", "glue"])),
            draw(priorities), draw(st.sampled_from([0, 1, 2, 3, 41, 2**64])),
            draw(st.sampled_from(names)), draw(st.sampled_from([1.0, 2.0, 3.0])),
        ))
    model = build_model(INVARIANT_RULES, draw(st.permutations(matrix)), side=7,
                        sizes={name: draw(st.sampled_from([1, 2, 3, 40])) for name in names})
    assert not [d for d in validate(model) if d.is_error]
    state = initialize(model, 0)
    out = draw(st.sets(st.integers(0, len(names) - 1)))
    frozen = draw(st.lists(st.booleans(), min_size=state.n_agents, max_size=state.n_agents))
    frozen |= np.isin(state.population_index, list(out))
    return model, dataclasses.replace(state, active=state.active & ~frozen)


@settings(max_examples=150, deadline=None)
@given(selection_worlds())
def test_selection_and_field_groups_match_a_per_population_regrouping(world):
    """``select_rule`` picks the oracle's entry for every agent, and the plan's
    field and freeze links are those of a regrouping done population by
    population: per active follower, one link per target at the widest distance
    of its entries to that target; per active population whose entry freezes,
    that entry, at its cardinality plus one on a self-link."""
    model, state = world
    names, pops = model.population_names, state.population_index
    for agent in range(state.n_agents):
        assert select_rule(agent, state, model) is oracle_select(names[pops[agent]], state, model)

    counts = np.bincount(pops[state.active], minlength=len(names))
    field, freeze = [], []
    for p in np.flatnonzero(counts).tolist():
        entry = oracle_select(names[p], state, model)
        if entry.target_family is None:
            continue
        widest = {}
        for e in model.matrix:
            if e.source_family == names[p] and e.target_family is not None:
                t = names.index(e.target_family)
                widest[t] = max(e.distance, widest.get(t, 0.0))
        field += [(p, t, d) for t, d in sorted(widest.items())]
        if entry.interaction_name == "glue":
            t = names.index(entry.target_family)
            freeze.append((p, t, entry.distance, entry.cardinality + (p == t)))

    given, compile_links = {}, model_module._compile_links

    def spy(sources, targets, radii, side, probed=False):
        links = compile_links(sources, targets, radii, side, probed)
        given[probed] = list(zip(sources.tolist(), targets.tolist(), radii.tolist()))
        if links is not None:  # the groups and the link order resolve the links as given
            assert np.array_equal(links.targets[links.group], targets[links.order])
            assert np.array_equal(links.sources, sources[links.order])
        return links

    with mock.patch.object(model_module, "_compile_links", spy):
        plan = model.layout.plan(counts)
    assert plan.follow.tolist() == sorted({p for p, _, _ in field})
    assert given[True] == field
    assert [link + (k,) for link, k in zip(given[False], plan.threshold.tolist())] == freeze


@settings(max_examples=80, deadline=None)
@given(small_worlds(), st.integers(0, 2**32 - 1), st.data())
def test_step_commutes_with_translation(world, seed, data):
    """Moving every agent by v (mod side) moves the successor by v: the
    field, the moves and the freezes see only wrapped differences."""
    model, state = world
    side = model.lattice.side
    v = np.array([data.draw(st.integers(0, side - 1)) for _ in range(2)])
    moved = dataclasses.replace(state, positions=(state.positions + v) % side)
    for _ in range(2):
        after, after_moved = step(state, model, seed), step(moved, model, seed)
        assert np.array_equal(after_moved.positions, (after.positions + v) % side)
        assert np.array_equal(after_moved.active, after.active)
        state, moved = after, after_moved


@settings(max_examples=80, deadline=None)
@given(small_worlds(), st.integers(0, 2**32 - 1))
def test_step_matches_the_oracle_with_tiny_grids_and_chunks(world, seed):
    """A grid of 2 * 9 cells and chunks of 5 stamped and 3 read keys put at
    most two groups in a grid and split every stamp and read, so 3 ticks of
    ``step`` cross every way of the count and every batch and chunk boundary,
    and disks of radius 20 cover the whole torus through the one wrap table;
    each tick equals the loop oracle."""
    model, state = world
    with mock.patch.multiple(lattice, _GRID_CELLS=18, _CHUNK_KEYS=5, _READ_KEYS=3):
        for tick in range(3):
            fast, slow = step(state, model, seed), oracle_step(state, model, seed)
            assert (fast.positions == slow.positions).all(), f"tick {tick}"
            assert (fast.active == slow.active).all(), f"tick {tick}"
            state = fast


@settings(max_examples=80, deadline=None)
@given(small_worlds(), st.integers(0, 2**32 - 1))
def test_step_conserves_populations_and_only_freezes(world, seed):
    model, state = world
    sizes = np.bincount(state.population_index, minlength=len(model.population_names))
    for _ in range(3):
        after = step(state, model, seed)
        assert np.array_equal(
            np.bincount(after.population_index, minlength=len(sizes)), sizes)
        assert not (after.active & ~state.active).any()
        frozen = ~state.active
        assert np.array_equal(after.positions[frozen], state.positions[frozen])
        state = after


@settings(max_examples=80, deadline=None)
@given(small_worlds(), st.integers(0, 2**32 - 1),
       st.sampled_from(["run_past_first_id", "run_before_last_id", "scattered", "none"]), st.data())
def test_every_successor_rebuilds_through_the_checked_constructor(world, seed, kind, data):
    """``step`` builds its successor without ``WorldState``'s checks, so each
    successor must pass them: rebuilt through the public constructor it has
    equal, read-only arrays of the same dtypes. The active sets are one run
    of ids that starts past id 0 or ends before the last id (the run test's
    ``first + n``), scattered ids, or no id at all; exactly the active agents
    move, as a Moore step always changes the patch."""
    model, state = world
    n, ids = state.n_agents, np.arange(state.n_agents)
    if kind.startswith("run"):
        assume(n >= 2)
        past_first = kind == "run_past_first_id"
        lo = data.draw(st.integers(1, n - 1) if past_first else st.integers(0, n - 2))
        hi = data.draw(st.integers(lo + 1, n if past_first else n - 1))
        state = dataclasses.replace(state, active=(ids >= lo) & (ids < hi))
    elif kind == "none":
        state = dataclasses.replace(state, active=np.zeros(n, dtype=bool))
    for _ in range(3):
        after = step(state, model, seed)
        rebuilt = WorldState(tick=after.tick, side=after.side,
                             population_names=after.population_names,
                             population_index=after.population_index,
                             positions=after.positions, active=after.active)
        assert after.tick == state.tick + 1 and after.side == state.side
        assert after.population_index is state.population_index
        moved = (after.positions != state.positions).any(axis=1)
        assert np.array_equal(moved, state.active)
        for name in ("population_index", "positions", "active"):
            got, want = getattr(after, name), getattr(rebuilt, name)
            assert got.dtype == want.dtype == getattr(state, name).dtype, name
            assert got.shape == want.shape and np.array_equal(got, want), name
            assert not got.flags.writeable and not want.flags.writeable, name
        state = after


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 50), st.integers(0, 70), st.integers(0, 40))
@example(seed=3, tick=0, first=4, k=9)
@example(seed=3, tick=0, first=5, k=9)
@example(seed=3, tick=0, first=6, k=9)
@example(seed=3, tick=0, first=7, k=9)
@example(seed=3, tick=1, first=6, k=0)
@example(seed=3, tick=1, first=99, k=1)  # the last of 100 agents
def test_ranged_uniforms_are_the_slice_of_the_full_draw(seed, tick, first, k):
    ranged = agent_uniforms(seed, tick, k, first)
    assert ranged.shape == (k,)
    assert np.array_equal(ranged, agent_uniforms(seed, tick, first + k)[first:])


def test_inactive_agents_stay_put():
    model = make_toy_model(walkers=1, particles=1, side=9)
    state = make_state(9, model.population_names, [
        ("particles", (4, 4), False),
        ("walkers", (1, 1), True),
    ])
    after = step(state, model, 3)
    assert tuple(after.positions[0]) == (4, 4)
    assert not after.active[0]


def test_cardinality_zero_freeze_triggers_unconditionally():
    rules = parse_rules("""
interaction walk
actions random-walk deactivate-none
end

interaction grab
actions follow-path deactivate-source
end
""")
    matrix = [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "walk", 0, 0),
        InteractionMatrixEntry("a", "grab", 1, 0, "b", 2.0),
    ]
    model = build_model(rules, matrix, side=15, sizes=1)
    state = make_state(15, model.population_names, [
        ("a", (2, 2), True),
        ("b", (12, 12), True),   # far away; threshold of zero still fires
    ])
    after = step(state, model, 1)
    assert not after.active[0]
    assert after.active[1]


def test_simultaneous_mutual_freeze_uses_snapshot_activity():
    rules = parse_rules("""
interaction walk
actions random-walk deactivate-none
end

interaction stick
actions follow-path deactivate-source
end
""")
    matrix = [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "walk", 0, 0),
        InteractionMatrixEntry("a", "stick", 1, 1, "b", 2.0),
        InteractionMatrixEntry("b", "stick", 1, 1, "a", 2.0),
    ]
    model = build_model(rules, matrix, side=15, sizes=1)
    state = make_state(15, model.population_names, [
        ("a", (5, 5), True),
        ("b", (5, 5), True),
    ])
    # scan for a seed where both land within range; both must freeze,
    # because each still sees the other as active in the tick snapshot
    for seed in range(50):
        after = step(state, model, seed)
        a_pos, b_pos = after.positions
        d2 = ((a_pos - b_pos) ** 2).sum()
        if d2 <= 4:
            assert not after.active[0]
            assert not after.active[1]
            return
    raise AssertionError("no seed landed the two agents within range")


def test_particle_near_walkers_freezes():
    """A chaser starting inside a dense cluster of its targets freezes fast."""
    model = make_toy_model(walkers=49, particles=1, side=21, seed=0)
    rows = [("walkers", (7 + i % 7, 7 + i // 7), True) for i in range(49)]
    rows.append(("particles", (10, 10), True))
    state = make_state(21, model.population_names, rows)
    frozen = False
    for tick in range(3):
        state = step(state, model, 123)
        if not state.active[49]:
            frozen = True
            break
    assert frozen


def test_step_samples_exactly_the_published_distribution():
    """The kernel's move for a biased agent is the one obtained by sampling
    transition_distribution with that agent's per-tick uniform."""
    model = make_toy_model(walkers=15, particles=15, side=13, seed=19)
    state = initialize(model, 19)
    seed = 19
    u = agent_uniforms(seed, state.tick, state.n_agents)
    after = step(state, model, seed)
    offsets = {off: k for k, off in enumerate(
        [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)])}
    particles_ix = model.population_names.index("particles")
    walkers_ix = model.population_names.index("walkers")
    for i in range(state.n_agents):
        delta = tuple((((after.positions[i] - state.positions[i]) + 6) % 13) - 6)
        took = offsets[delta]
        if state.population_index[i] == particles_ix:
            probs = transition_distribution(i, state, model).probabilities
            want = int(dynamics._sample_rows(probs[None, :], u[i:i + 1])[0])
        else:
            assert state.population_index[i] == walkers_ix
            want = min(int(u[i] * 8.0), 7)
        assert took == want


def test_agent_counts_conserved_over_a_run():
    model = make_toy_model(walkers=30, particles=70, side=21, seed=6, max_ticks=15)
    result = run(model, report_ticks=range(16),
                 observers=[lambda s, m: np.bincount(s.population_index, minlength=2)])
    for counts, in result.observations.values():
        assert sorted(counts.tolist()) == [30, 70]


def test_run_reports_requested_ticks():
    model = make_toy_model(walkers=20, particles=20, side=21, seed=8, max_ticks=10)
    result = run(model, report_ticks=[0, 3, 10], observers=[lambda s, m: s.tick])
    assert sorted(result.observations) == [0, 3, 10]
    assert result.observations[3] == (3,)
    assert result.final_state.tick == 10


@pytest.mark.parametrize("tick", [1.5, 0.25, float("inf"), float("-inf"), float("nan")])
def test_run_refuses_a_report_tick_that_is_not_integral(tick):
    """``int(1.5)`` would observe tick 1 in place of the tick asked for;
    ``int`` of an infinity or of NaN raises an error of its own."""
    model = make_toy_model(walkers=10, particles=10, side=21, seed=8, max_ticks=5)
    with pytest.raises(ValueError, match="report ticks must be integers"):
        run(model, report_ticks=[0, tick], observers=[lambda s, m: s.tick])
    assert sorted(run(model, report_ticks=[1.0, np.int64(3)]).observations) == [1, 3]


def test_run_without_report_ticks_returns_final_state_only():
    model = make_toy_model(walkers=10, particles=10, side=21, seed=8, max_ticks=5)
    result = run(model, report_ticks=[], observers=[lambda s, m: s.tick])
    assert result.observations == {}
    assert result.final_state.tick == 5


def test_run_is_reproducible_end_to_end():
    model = make_toy_model(walkers=30, particles=30, side=21, seed=14, max_ticks=8)
    a = run(model, seed=14)
    b = run(model, seed=14)
    assert (a.final_state.positions == b.final_state.positions).all()
    assert (a.final_state.active == b.final_state.active).all()


# ---------------------------------------------------------------------------
# walk-only stretches

@st.composite
def walk_only_worlds(draw):
    """A model of 1 to 3 populations that only walk, and its state at some
    tick with the active ids one run, one run whose first id lies inside a
    Philox counter block, or scattered."""
    names = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    model = build_model(INVARIANT_RULES, [InteractionMatrixEntry(name, "walk", 0, 0)
                                          for name in names],
                        side=draw(st.integers(3, 12)),
                        sizes={name: draw(st.integers(1, 12)) for name in names})
    state = initialize(model, draw(st.integers(0, 2**32 - 1)))
    n, ids = state.n_agents, np.arange(state.n_agents)
    kind = draw(st.sampled_from(["run", "run_inside_block", "scattered"]))
    if kind == "scattered":
        active = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        firsts = [k for k in range(n) if k % 4 or kind == "run"]
        assume(firsts)
        lo = draw(st.sampled_from(firsts))
        active = (ids >= lo) & (ids < draw(st.integers(lo + 1, n)))
    return model, dataclasses.replace(state, tick=draw(st.integers(0, 50)), active=active)


@settings(max_examples=80, deadline=None)
@given(walk_only_worlds(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_a_walk_stretch_equals_a_step_per_tick(world, ticks, seed):
    """One stretch of K ticks sums the walk draws of K ``step`` calls and
    wraps once: the same tick, positions and active set, read-only."""
    model, state = world
    stretched = dynamics._walk(state, seed, ticks)
    for _ in range(ticks):
        state = step(state, model, seed)
    assert stretched.tick == state.tick
    assert np.array_equal(stretched.positions, state.positions)
    assert stretched.active is state.active
    assert stretched.positions.dtype == np.int64 and not stretched.positions.flags.writeable


def _freeze_out_model():
    """Toy particles that all freeze within a few ticks; walkers walk on."""
    return make_toy_model(walkers=30, particles=60, side=11, seed=3, max_ticks=40)


def test_run_through_walk_stretches_equals_a_hand_loop_of_step(monkeypatch):
    """Once the toy particles froze out, nobody follows: the step that finds
    that is the run's last, and stretches carry it to each report tick and
    to ``max_ticks``. Observations and final state are a hand loop's."""
    model = _freeze_out_model()
    states = [initialize(model, 3)]
    for _ in range(40):
        states.append(step(states[-1], model, 3))
    particles = states[0].population_index == 0
    frozen_out = next(t for t, s in enumerate(states) if not s.active[particles].any())
    assert frozen_out + 10 < 40
    stretches, walk = [], dynamics._walk
    monkeypatch.setattr(dynamics, "_walk", lambda state, seed, ticks: stretches.append(
        (state.tick, ticks)) or walk(state, seed, ticks))
    observe = [lambda s, m: s.positions.copy(), lambda s, m: s.active.copy()]
    wanted = [0, frozen_out + 4, frozen_out + 9, 40]
    result = run(model, report_ticks=wanted, observers=observe, seed=3)
    walk_from = frozen_out + 1  # the step out of ``frozen_out`` is the first walk-only one
    assert stretches == [(walk_from, 3), (walk_from + 3, 5), (walk_from + 8, 40 - walk_from - 8)]
    for tick in wanted:
        positions, active = result.observations[tick]
        assert np.array_equal(positions, states[tick].positions), f"tick {tick}"
        assert np.array_equal(active, states[tick].active), f"tick {tick}"
    assert result.final_state.tick == 40
    assert np.array_equal(result.final_state.positions, states[40].positions)


def test_a_second_run_does_not_reuse_the_walk_only_plan_the_first_left():
    """The first run ends walk-only and leaves that plan in ``model.layout``.
    The second run of the same model must still follow and freeze from tick
    0, as a run of a fresh copy of the model does."""
    model = _freeze_out_model()
    observe = [lambda s, m: s.positions.copy(), lambda s, m: s.active.copy()]
    runs = [run(model, report_ticks=[0, 1, 2, 40], observers=observe, seed=3)]
    plan = model.layout._last[1]
    assert plan.field is None and plan.freeze is None
    for again in (model, dataclasses.replace(model)):
        runs.append(run(again, report_ticks=[0, 1, 2, 40], observers=observe, seed=3))
    for tick in (1, 2, 40):
        for got in runs[1:]:
            for a, b in zip(runs[0].observations[tick], got.observations[tick]):
                assert np.array_equal(a, b), f"tick {tick}"


def test_a_stretch_with_no_active_agent_draws_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a stretch of no active agent drew uniforms")

    model = make_walk_model(n_agents=10, side=9, seed=2)
    state = dataclasses.replace(initialize(model, 2), tick=3, active=np.zeros(10, dtype=bool))
    monkeypatch.setattr(dynamics, "agent_uniforms", refuse)
    after = dynamics._walk(state, 2, 7)
    assert after.tick == 10 and after.active is state.active
    assert np.array_equal(after.positions, state.positions)


# ---------------------------------------------------------------------------
# kernel moments

def test_pure_walk_mean_square_step_near_one_and_a_half():
    model = make_walk_model(n_agents=2000, side=31, seed=21, max_ticks=5)
    result = run(model, report_ticks=range(6), observers=[lambda s, m: s.positions.copy()])
    traj = np.stack([result.observations[t][0] for t in range(6)])
    steps = ((traj[1:] - traj[:-1] + 15) % 31) - 15
    msd = (steps ** 2).sum(axis=2).mean()
    assert abs(msd - 1.5) / 1.5 < 0.05


def test_expected_displacement_points_at_the_target():
    model = chase_model(distance=2.5, beta=1.0)
    state = make_state(15, model.population_names, [
        ("chaser", (5, 5), True),
        ("beacon", (7, 5), True),
    ])
    dist = transition_distribution(0, state, model).probabilities
    offsets = np.array([(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)])
    expected_step = dist @ offsets
    assert expected_step[0] > 0       # exact drift of the sampling law
    assert abs(expected_step[1]) < 1e-12

    # Monte Carlo through the full kernel: mean displacement over fresh
    # draws must beat three standard errors along the target direction
    trials = 10_000
    xs = np.empty(trials)
    for k in range(trials):
        after = step(state, model, k)
        xs[k] = ((after.positions[0, 0] - 5 + 7) % 15) - 7
    se = xs.std(ddof=1) / np.sqrt(trials)
    assert xs.mean() > 3 * se
