import dataclasses

import numpy as np
import pytest

from coocsim import ConfigurationFault, build_model, initialize, run, step, validate
from coocsim.io import EdgeList, build_relation_model, parse_edge_list, parse_matrix, parse_rules
from coocsim.model import (
    InteractionMatrixEntry,
    InteractionRule,
    Model,
    PopulationSpec,
    SimParams,
)
from coocsim.lattice import Lattice

from reference import make_small_set_model, make_toy_model


def errors(diags):
    return [d for d in diags if d.is_error]


def warnings(diags):
    return [d for d in diags if not d.is_error]


def test_toy_model_validates_clean(rules_text, matrix_toy_text):
    model = build_model(parse_rules(rules_text), parse_matrix(matrix_toy_text),
                        side=51, sizes={"walkers": 200, "particles": 800})
    assert errors(validate(model)) == []


def test_unknown_population_reference_is_an_error(rules_text):
    model = Model(
        lattice=Lattice(31),
        populations=(PopulationSpec("particles", 10),),
        rules=tuple(parse_rules(rules_text)),
        matrix=(
            InteractionMatrixEntry("particles", "walk", 0, 0),
            InteractionMatrixEntry("particles", "cooc", 1, 1, "ghost", 2.0),
        ),
        params=SimParams(),
    )
    msgs = [d.message for d in errors(validate(model))]
    assert any("ghost" in m for m in msgs)


def test_crowding_warning_above_critical_count():
    model = make_small_set_model(size=100, side=31)  # 1300 agents, threshold 240
    warns = [d.message for d in warnings(validate(model))]
    assert any("240" in m and "1300" in m for m in warns)


def test_population_without_entry_is_an_error(rules_text):
    """No entry can move a population that no entry is sourced at, and
    ``step`` would refuse it on the first tick, so ``validate`` refuses it."""
    model = Model(
        lattice=Lattice(9),
        populations=(PopulationSpec("a", 5), PopulationSpec("b", 5)),
        rules=tuple(parse_rules(rules_text)),
        matrix=(InteractionMatrixEntry("a", "walk", 0, 0),),
        params=SimParams(),
    )
    msgs = [d.message for d in errors(validate(model))]
    assert msgs == ["population 'b' has no matrix entry, so no entry can move it"]


def test_population_no_entry_applies_to_with_every_agent_active_is_an_error(rules_text):
    """``a``'s only entry follows ``b`` from 6 active ``b`` agents, and ``b``
    has 5: no entry applies on the first tick, and active counts only fall.
    At a cardinality of 5, or on a self-link (an agent counts itself), it applies."""
    rules = parse_rules(rules_text)
    matrix = [InteractionMatrixEntry("a", "cooc", 1, 6, "b", 2.0),
              InteractionMatrixEntry("b", "walk", 0, 0)]
    model = build_model(rules, matrix, side=9, sizes=5)
    assert [d.message for d in errors(validate(model))] == [
        "population 'a' has no matrix entry that applies with every agent active, "
        "so no entry can move it"]
    for entry in (dataclasses.replace(matrix[0], cardinality=5),
                  InteractionMatrixEntry("a", "cooc", 1, 5, "a", 2.0)):
        runnable = build_model(rules, [entry, matrix[1]], side=9, sizes=5)
        assert errors(validate(runnable)) == []
        step(initialize(runnable, 1), runnable, 1)


def test_a_population_whose_targets_can_all_freeze_out_is_an_error(rules_text):
    """Active counts fall only as agents freeze. ``b``'s one entry follows ``a``,
    which freezes next to ``c``, so ``b`` can be left with no entry; a walk
    entry, a target that cannot freeze, or a cardinality of 0 keeps it
    runnable. On a self-link an agent counts itself: 5 ``a`` agents at
    cardinality 4 can freeze (two at once leave 3 < 4 active), at cardinality
    5 none ever does."""
    rules = parse_rules(rules_text)
    walk = {name: InteractionMatrixEntry(name, "walk", 0, 0) for name in "abc"}
    a_freezes, b_follows = (InteractionMatrixEntry("a", "cooc", 1, 1, "c", 2.0),
                            InteractionMatrixEntry("b", "cooc", 1, 1, "a", 2.0))
    sizes = {"a": 3, "b": 5, "c": 300}
    model = build_model(rules, [walk["a"], a_freezes, b_follows, walk["c"]], side=21, sizes=sizes)
    assert [d.message for d in errors(validate(model))] == [
        "population 'b' may find no entry once its targets freeze; add a walk entry"]
    never_applies = dataclasses.replace(a_freezes, cardinality=301)  # so ``a`` never freezes
    needs_none = dataclasses.replace(b_follows, cardinality=0)  # applies with no ``a`` active
    for matrix in ([walk["a"], a_freezes, b_follows, walk["b"], walk["c"]],
                   [walk["a"], never_applies, b_follows, walk["c"]],
                   [walk["a"], a_freezes, needs_none, walk["c"]]):
        assert errors(validate(build_model(rules, matrix, side=21, sizes=sizes))) == []
    self_link = InteractionMatrixEntry("a", "cooc", 1, 4, "a", 2.0)
    model = build_model(rules, [self_link, walk["b"]], side=9, sizes=5)
    assert [d.message for d in errors(validate(model))] == [
        "population 'a' may find no entry once its targets freeze; add a walk entry"]
    model = build_model(rules, [dataclasses.replace(self_link, cardinality=5), walk["b"]],
                        side=9, sizes=5, max_ticks=300)
    assert errors(validate(model)) == []
    assert run(model, seed=3).final_state.active.all()


@pytest.mark.parametrize("name", ["", "a b", ";x", "#x", "_average"])
def test_one_rule_for_population_names(rules_text, name):
    """A name the file formats would read back as a comment or as the
    report's average row is refused by ``validate`` and by the generator."""
    matrix = [InteractionMatrixEntry(name, "walk", 0, 0)]
    model = build_model(parse_rules(rules_text), matrix, side=9, sizes=5)
    assert [repr(name) in m for m in map(str, errors(validate(model)))] == [True]
    with pytest.raises(ValueError, match="population name"):
        build_relation_model(EdgeList((("t", name),)), "t")


def test_total_agent_count_must_fit_in_int64(rules_text):
    matrix = [InteractionMatrixEntry("a", "walk", 0, 0), InteractionMatrixEntry("b", "walk", 0, 0)]
    model = build_model(parse_rules(rules_text), matrix, side=9, sizes={"a": 2**62, "b": 2**62})
    assert [d.message for d in validate(model)] == [
        f"{2**63} agents in all are too many to place; the total must be below 2**63"]
    model = build_model(parse_rules(rules_text), matrix, side=9, sizes={"a": 2**62, "b": 2**62 - 1})
    assert errors(validate(model)) == []


def test_a_model_with_no_matrix_entry_is_an_error(rules_text):
    """With no entry there is no population to run, so ``run`` and ``step``
    refuse the model by ``validate``'s error rather than stepping an empty world."""
    model = build_model(parse_rules(rules_text), [], side=9, sizes=5)
    assert [d.message for d in validate(model)] == [
        "the matrix has no entries, so the model has no population to run"]
    for call in (lambda: run(model), lambda: step(initialize(model), model)):
        with pytest.raises(ConfigurationFault, match="the matrix has no entries"):
            call()


def test_duplicate_names_and_bad_sizes_are_errors(rules_text):
    model = Model(
        lattice=Lattice(9),
        populations=(PopulationSpec("a", 5), PopulationSpec("a", 0)),
        rules=tuple(parse_rules(rules_text)),
        matrix=(InteractionMatrixEntry("a", "walk", 0, 0),),
        params=SimParams(),
    )
    msgs = [d.message for d in errors(validate(model))]
    assert any("duplicate population" in m for m in msgs)
    assert any("size >= 1" in m for m in msgs)


def test_target_and_distance_must_travel_together(rules_text):
    model = Model(
        lattice=Lattice(9),
        populations=(PopulationSpec("a", 5), PopulationSpec("b", 5)),
        rules=tuple(parse_rules(rules_text)),
        matrix=(
            InteractionMatrixEntry("a", "cooc", 1, 1, "b", None),
            InteractionMatrixEntry("b", "walk", 0, 0),
        ),
        params=SimParams(),
    )
    msgs = [d.message for d in errors(validate(model))]
    assert any("together" in m for m in msgs)


def test_entry_movement_compatibility(rules_text):
    rules = parse_rules(rules_text)
    model = Model(
        lattice=Lattice(9),
        populations=(PopulationSpec("a", 5), PopulationSpec("b", 5)),
        rules=tuple(rules),
        matrix=(
            InteractionMatrixEntry("a", "walk", 0, 0, "b", 2.0),   # walk with target
            InteractionMatrixEntry("b", "cooc", 1, 1),              # cooc without target
        ),
        params=SimParams(),
    )
    msgs = [d.message for d in errors(validate(model))]
    assert any("targeted entries" in m for m in msgs)
    assert any("targetless entries" in m for m in msgs)


def test_cardinality_above_one_warns(rules_text):
    matrix = [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "walk", 0, 0),
        InteractionMatrixEntry("a", "cooc", 1, 3, "b", 2.0),
    ]
    model = build_model(parse_rules(rules_text), matrix, side=9, sizes=5)
    warns = [d.message for d in warnings(validate(model))]
    assert any("cardinality 3" in m for m in warns)


def test_bad_params_are_errors(rules_text):
    matrix = [InteractionMatrixEntry("a", "walk", 0, 0)]
    model = Model(
        lattice=Lattice(9),
        populations=(PopulationSpec("a", 5),),
        rules=tuple(parse_rules(rules_text)),
        matrix=tuple(matrix),
        params=SimParams(beta=-1.0, seed=2**64, max_ticks=-1),
    )
    msgs = [d.message for d in errors(validate(model))]
    assert any("beta" in m for m in msgs)
    assert any("seed" in m for m in msgs)
    assert any("max_ticks" in m for m in msgs)


def test_non_finite_beta_is_an_error(rules_text):
    matrix = [InteractionMatrixEntry("a", "walk", 0, 0)]
    for beta in (float("nan"), float("inf")):
        model = build_model(parse_rules(rules_text), matrix, side=9, sizes=5, beta=beta)
        msgs = [d.message for d in errors(validate(model))]
        assert any("beta" in m for m in msgs), beta


@pytest.mark.parametrize("distance", [-1.0, 0.0, float("nan"), float("inf")])
def test_one_rule_for_interaction_distances(rules_text, distance):
    """A distance is finite and > 0 wherever it enters: a generated relation
    model refuses it and a validated matrix entry reports it as an error."""
    with pytest.raises(ValueError, match="finite positive"):
        build_relation_model(parse_edge_list("t a\n"), "t", distance=distance)
    matrix = [
        InteractionMatrixEntry("a", "walk", 0, 0),
        InteractionMatrixEntry("b", "walk", 0, 0),
        InteractionMatrixEntry("a", "cooc", 1, 1, "b", distance),
    ]
    model = build_model(parse_rules(rules_text), matrix, side=9, sizes=5)
    msgs = [d.message for d in errors(validate(model))]
    assert any("finite positive" in m for m in msgs), distance
    matrix[2] = InteractionMatrixEntry("a", "cooc", 1, 1, "b", 2.0)
    model = build_model(parse_rules(rules_text), matrix, side=9, sizes=5)
    assert errors(validate(model)) == []


def test_initialize_is_reproducible():
    model = make_toy_model(seed=123)
    a = initialize(model, 123)
    b = initialize(model, 123)
    assert a.tick == 0
    assert (a.positions == b.positions).all()
    assert (a.population_index == b.population_index).all()
    assert a.active.all() and b.active.all()


def test_initialize_differs_across_seeds():
    model = make_toy_model()
    a = initialize(model, 1)
    b = initialize(model, 2)
    assert (a.positions != b.positions).any()


def test_initialize_places_everyone_in_range():
    model = make_toy_model(walkers=200, particles=800, side=31)
    state = initialize(model, 5)
    assert state.n_agents == 1000
    assert state.positions.min() >= 0
    assert state.positions.max() < 31


def test_population_counts_match_spec_sizes():
    model = make_toy_model(walkers=200, particles=800)
    state = initialize(model, 5)
    counts = np.bincount(state.population_index, minlength=2)
    sizes = {p.name: p.size for p in model.populations}
    names = model.population_names
    assert counts[names.index("walkers")] == sizes["walkers"]
    assert counts[names.index("particles")] == sizes["particles"]
