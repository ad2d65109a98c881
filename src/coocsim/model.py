"""Model configuration: populations, rules, matrix entries, run parameters.

A model is immutable once built; :func:`validate` reports problems as a list
of diagnostics instead of raising, so callers can show everything at once.
A model computes its verdict (``diagnostics``) and its compiled rule layout
(``layout``) once, on first use.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lattice import Lattice, compile_disk_counts
from .metrics import crowding_indices
from .world import WorldState, placement_generator

RANDOM_WALK = "random-walk"
FOLLOW_PATH = "follow-path"
DEACTIVATE_NONE = "deactivate-none"
DEACTIVATE_SOURCE = "deactivate-source"

MOVEMENT_ACTIONS = frozenset({RANDOM_WALK, FOLLOW_PATH})
DEACTIVATION_ACTIONS = frozenset({DEACTIVATE_NONE, DEACTIVATE_SOURCE})

#: Default root seed. A fixed constant rather than wall clock, so that runs
#: with no explicit seed are still reproducible.
DEFAULT_SEED = 1729


def population_name_error(name: str) -> str | None:
    """Why ``name`` cannot name a population, or ``None``: a name is one token that starts
    with neither comment marker (``;``, ``#``) and is not the report's ``_average`` row."""
    if not name or any(c.isspace() for c in name):
        return f"population name {name!r} must be a non-empty token without whitespace"
    if name[0] in ";#":
        return f"population name {name!r} must not start with ';' or '#', which begin comments"
    if name == "_average":
        return "population name '_average' is reserved for the report's average row"
    return None


def seed_error(seed: int) -> str | None:
    """Why ``seed`` cannot seed a run, or ``None``: a seed fits in 64 unsigned bits."""
    return None if 0 <= seed < 2**64 else f"seed must fit in 64 unsigned bits, got {seed}"


class ConfigurationFault(RuntimeError):
    """Raised for a model that :func:`validate` rejects, or when no matrix
    entry applies to a population at run time."""


@dataclass(frozen=True)
class PopulationSpec:
    """A named family of agents, all obeying the same matrix entries."""

    name: str
    size: int


@dataclass(frozen=True)
class InteractionRule:
    """Named pairing of one movement action with one deactivation action."""

    name: str
    movement_action: str
    deactivation_action: str


@dataclass(frozen=True)
class InteractionMatrixEntry:
    """One line of a matrix file.

    ``target_family`` and ``distance`` are both present (follow-path entries)
    or both absent (plain walk entries).
    """

    source_family: str
    interaction_name: str
    priority: int
    cardinality: int
    target_family: str | None = None
    distance: float | None = None


@dataclass(frozen=True)
class SimParams:
    beta: float = 1.0          # bias strength of the field-following walk
    seed: int = DEFAULT_SEED
    max_ticks: int = 1000


@dataclass(frozen=True)
class Model:
    lattice: Lattice
    populations: tuple[PopulationSpec, ...]
    rules: tuple[InteractionRule, ...]
    matrix: tuple[InteractionMatrixEntry, ...]
    params: SimParams

    @property
    def population_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.populations)

    def population_sizes(self) -> dict[str, int]:
        return {p.name: p.size for p in self.populations}

    def rules_by_name(self) -> dict[str, InteractionRule]:
        return {r.name: r for r in self.rules}

    # A frozen model cannot change, so neither cache goes stale;
    # ``dataclasses.replace`` makes a new model with empty caches.
    @functools.cached_property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        """What :func:`validate` reports for this model."""
        return tuple(validate(self))

    @functools.cached_property
    def layout(self) -> _Layout:
        """The compiled rules that ``step`` reads; refuses an invalid model."""
        return _Layout(self)

    def require_valid(self) -> None:
        """Raise :class:`ConfigurationFault` naming the first error, if any."""
        errors = [d.message for d in self.diagnostics if d.is_error]
        if errors:
            raise ConfigurationFault(
                f"model has {len(errors)} unresolved error(s), first: {errors[0]}")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


def build_model(
    rules,
    matrix,
    side: int,
    sizes: int | Mapping[str, int],
    beta: float = 1.0,
    seed: int = DEFAULT_SEED,
    max_ticks: int = 1000,
) -> Model:
    """Assemble a model from parsed rules and matrix entries.

    Populations are inferred from the matrix in order of first appearance
    (sources before targets, line by line). ``sizes`` is either one uniform
    agent count or a name -> count mapping; mappings may omit names, which
    then fall back to 100.
    """
    names = list(dict.fromkeys(name for entry in matrix
                               for name in (entry.source_family, entry.target_family)
                               if name is not None))
    if isinstance(sizes, int):
        size_of = {name: sizes for name in names}
    else:
        size_of = {name: int(sizes.get(name, 100)) for name in names}
    populations = tuple(PopulationSpec(name, size_of[name]) for name in names)
    return Model(
        lattice=Lattice(side),
        populations=populations,
        rules=tuple(rules),
        matrix=tuple(matrix),
        params=SimParams(beta=beta, seed=seed, max_ticks=max_ticks),
    )


def validate(model: Model) -> list[Diagnostic]:
    """Check every invariant and cross-reference of a model.

    Returns an empty error list iff the model is runnable; warnings flag
    suspicious but legal configurations (crowding, cardinalities above 1).
    """
    out: list[Diagnostic] = []
    err = lambda msg: out.append(Diagnostic("error", msg))
    warn = lambda msg: out.append(Diagnostic("warning", msg))

    pop_names = set()
    for pop in model.populations:
        if problem := population_name_error(pop.name):
            err(problem)
        if pop.name in pop_names:
            err(f"duplicate population name {pop.name!r}")
        pop_names.add(pop.name)
        if pop.size < 1:
            err(f"population {pop.name!r} must have size >= 1, got {pop.size}")

    rule_names = set()
    for rule in model.rules:
        if rule.name in rule_names:
            err(f"duplicate rule name {rule.name!r}")
        rule_names.add(rule.name)
        if rule.movement_action not in MOVEMENT_ACTIONS:
            err(f"rule {rule.name!r}: unknown movement action {rule.movement_action!r}")
        if rule.deactivation_action not in DEACTIVATION_ACTIONS:
            err(f"rule {rule.name!r}: unknown deactivation action {rule.deactivation_action!r}")

    rules = model.rules_by_name()
    sizes = model.population_sizes()
    applies: dict[str, set] = {}  # per source: targets of entries applying at tick 0, None for good
    freezes = set()  # sources of entries that can freeze, so whose active counts can fall
    # The label of the entry checked below, built only for an entry with a diagnostic.
    where = lambda: f"matrix entry {i} ({entry.source_family} {entry.interaction_name})"
    for i, entry in enumerate(model.matrix):
        if entry.source_family not in pop_names:
            err(f"{where()}: unknown source population {entry.source_family!r}")
        rule = rules.get(entry.interaction_name)
        if rule is None:
            err(f"{where()}: unknown rule {entry.interaction_name!r}")
        if entry.priority < 0:
            err(f"{where()}: priority must be nonnegative, got {entry.priority}")
        if entry.cardinality < 0:
            err(f"{where()}: cardinality must be nonnegative, got {entry.cardinality}")
        elif entry.cardinality > 1:
            warn(f"{where()}: cardinality {entry.cardinality} has no special meaning beyond a count threshold")
        has_target = entry.target_family is not None
        has_distance = entry.distance is not None
        if has_target != has_distance:
            err(f"{where()}: target family and distance must be given together")
        if has_target and entry.target_family not in pop_names:
            err(f"{where()}: unknown target population {entry.target_family!r}")
        if has_distance and not 0 < entry.distance < float("inf"):
            err(f"{where()}: distance must be a finite positive number, got {entry.distance}")
        size, targets = sizes.get(entry.target_family, 0), applies.setdefault(entry.source_family, set())
        if not has_target or entry.cardinality <= size:  # None: a walk, or cardinality 0, lasts
            targets.add(entry.target_family if entry.cardinality else None)
        if rule is not None:
            if has_target and rule.deactivation_action == DEACTIVATE_SOURCE and (
                    entry.cardinality <= size - (entry.target_family == entry.source_family)):
                freezes.add(entry.source_family)  # a self-linked agent counts itself too
            if has_target and rule.movement_action != FOLLOW_PATH:
                err(f"{where()}: targeted entries must use a {FOLLOW_PATH} rule")
            if not has_target and rule.movement_action != RANDOM_WALK:
                err(f"{where()}: targetless entries must use a {RANDOM_WALK} rule")
            if not has_target and rule.deactivation_action == DEACTIVATE_SOURCE:
                warn(f"{where()}: {DEACTIVATE_SOURCE} without a target never triggers")

    if not model.matrix:
        err("the matrix has no entries, so the model has no population to run")
    # Counts fall only by freezing: what fails at tick 0 never applies; what holds may not last.
    for pop in model.populations:
        if not applies.get(pop.name):
            how = "" if pop.name not in applies else " that applies with every agent active"
            err(f"population {pop.name!r} has no matrix entry{how}, so no entry can move it")
        elif applies[pop.name] <= freezes:
            err(f"population {pop.name!r} may find no entry once its targets freeze; add a walk entry")

    p = model.params
    if not (np.isfinite(p.beta) and p.beta >= 0):
        err(f"beta must be a finite nonnegative number, got {p.beta}")
    if problem := seed_error(p.seed):
        err(problem)
    if p.max_ticks < 0:
        err(f"max_ticks must be nonnegative, got {p.max_ticks}")

    total = sum(pop.size for pop in model.populations)
    crowding = crowding_indices(model.lattice, max(total, 0))  # negative sizes are errors above
    if total >= 2**63:  # agent ids are int64
        err(f"{total} agents in all are too many to place; the total must be below 2**63")
    elif total > crowding.critical_count:
        warn(
            f"{total} agents exceed the crowding threshold of {crowding.critical_count} "
            f"for {crowding.patch_count} patches; movement may freeze"
        )
    return out


#: (population, target, radius) links compiled for ``step``'s counts: per group (numbered by
#: first appearance of its target and radius) its target; per link, in group order, its
#: population, group and place among the links as given; and ``compile_disk_counts``'s ``count``.
_Links = namedtuple("_Links", "targets sources group order count")


def _compile_links(sources, targets, radii, side: int, probed: bool = False) -> _Links | None:
    if not len(sources):
        return None
    groups: dict[tuple[int, float], int] = {}
    link_group = np.array([groups.setdefault(key, len(groups))
                           for key in zip(targets.tolist(), radii.tolist())])
    order = np.argsort(link_group, kind="stable")
    keys = np.array(list(groups), dtype=float)  # (target, radius) per group
    return _Links(keys[:, 0].astype(np.int64), sources[order], link_group[order], order,
                  compile_disk_counts(side, keys[:, 1], probed))


#: What ``step`` reads of one selection: the following populations, their
#: field links, the freeze links (``None`` when there are none) and, per
#: freeze link, the count of targets nearby that freezes an agent: the
#: cardinality, plus one on a self-link, where the agent counts itself.
_Plan = namedtuple("_Plan", "follow field freeze threshold")


class _Layout:
    """Index-resolved rules of a model, built once per model as ``model.layout``: per matrix
    entry, sorted by source, then priority (highest first), then file order, its ``source``,
    ``target`` (-1 for a walk), ``cardinality`` (0 for a walk), ``distance``, ``deactivates``
    and ``order`` in the file; per (source, target) of the targeted entries, one field group
    at their widest distance: ``group_source``, ``group_target`` and ``group_distance``. A model
    that :func:`validate` rejects raises :class:`ConfigurationFault` naming its first error.
    """

    def __init__(self, model: Model):
        model.require_valid()
        names = model.population_names
        self.n_pops = len(names)
        self.world = (model.lattice.side, names)  # what a state of this model carries
        pop_of = {name: i for i, name in enumerate(names)}
        rules = model.rules_by_name()
        # Neither need fit in int64: priorities sort by rank, cardinalities stop at ``never``.
        rank = {p: r for r, p in enumerate(sorted({e.priority for e in model.matrix}))}
        never = sum(pop.size for pop in model.populations) + 1  # more active agents than exist
        source, target, priority, *columns = map(np.array, zip(*[
            (pop_of[e.source_family], pop_of.get(e.target_family, -1), -rank[e.priority],
             0 if e.target_family is None else min(e.cardinality, never), float(e.distance or 0),
             rules[e.interaction_name].deactivation_action == DEACTIVATE_SOURCE)
            for e in model.matrix]))
        self.order = np.lexsort((priority, source))  # stable, so file order breaks ties
        self.source, self.target, self.cardinality, self.distance, self.deactivates = (
            column[self.order] for column in (source, target, *columns))
        linked = np.flatnonzero(self.target >= 0)
        pair = self.source[linked] * self.n_pops + self.target[linked]
        by_pair = np.argsort(pair)
        pairs, first = np.unique(pair[by_pair], return_index=True)
        self.group_source, self.group_target = np.divmod(pairs, self.n_pops)
        self.group_distance = np.maximum.reduceat(self.distance[linked[by_pair]], first)
        self._last: tuple[bytes, _Plan] | None = None

    def check(self, state: WorldState) -> None:
        """Refuse a state whose side or population names are not the model's."""
        if (state.side, state.population_names) != self.world:
            raise ValueError(
                f"state (side {state.side}, populations {state.population_names}) is not of "
                f"the model (side {self.world[0]}, populations {self.world[1]})")

    def select(self, counts: np.ndarray, pops: np.ndarray) -> np.ndarray:
        """The row of each listed population's first entry that applies at these active
        counts per population: a walk always, a follow-path entry while its target has
        at least ``cardinality`` active agents."""
        rows = np.flatnonzero(counts[self.target] >= self.cardinality)
        first = rows[np.diff(self.source[rows], prepend=-1) != 0]  # the first row of each source
        chosen = np.full(self.n_pops, -1)
        chosen[self.source[first]] = first
        if (chosen[pops] < 0).any():
            name = self.world[1][pops[chosen[pops].argmin()]]
            raise ConfigurationFault(f"no applicable matrix entry for population {name!r}")
        return chosen[pops]

    def plan(self, counts: np.ndarray) -> _Plan:
        """The compiled selection at these active counts per population. The last one is
        kept as one (key, plan) tuple, and reused while the same populations are active
        and the same entries apply, so no population's selection changes."""
        key = (counts > 0).tobytes() + (counts[self.target] >= self.cardinality).tobytes()
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        pops = np.flatnonzero(counts)
        rows = self.select(counts, pops)
        follows = self.target[rows] >= 0
        freeze = rows[follows & self.deactivates[rows]]
        field = np.isin(self.group_source, pops[follows])  # the group rows whose source follows
        groups = [c[field] for c in (self.group_source, self.group_target, self.group_distance)]
        source, target, side = self.source[freeze], self.target[freeze], self.world[0]
        plan = _Plan(pops[follows], _compile_links(*groups, side, True),
                     _compile_links(source, target, self.distance[freeze], side),
                     self.cardinality[freeze] + (source == target))
        self._last = key, plan
        return plan


def initialize(model: Model, seed: int | None = None) -> WorldState:
    """Scatter every agent uniformly at random and mark all of them active.

    Placement is a pure function of (model, seed): agents are numbered in
    population order and both coordinate arrays come from one counter-based
    stream. Several agents may share a patch.
    """
    if seed is None:
        seed = model.params.seed
    if problem := seed_error(seed):
        raise ValueError(problem)
    sizes = [pop.size for pop in model.populations]
    n = sum(sizes)
    pop_index = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    gen = placement_generator(seed)
    side = model.lattice.side
    xs = gen.integers(0, side, size=n, dtype=np.int64)
    ys = gen.integers(0, side, size=n, dtype=np.int64)
    return WorldState(
        tick=0,
        side=side,
        population_names=model.population_names,
        population_index=pop_index,
        positions=np.column_stack([xs, ys]),
        active=np.ones(n, dtype=bool),
    )
