"""Synchronous stepping kernel for interacting agent populations.

Every active agent computes its move from the tick-t snapshot and all moves
apply simultaneously. Movement is either a uniform walk over the 8 lattice
directions or a walk biased by the discrete gradient of an interaction
field: the count of matrix-linked neighbour agents within an entry's
distance. Per-agent randomness is indexed by (seed, tick, agent id), so the
successor state does not depend on iteration order.

Deactivation is evaluated after the synchronous move: an agent whose
selected entry carries the deactivate-source action freezes in place when
enough target agents (active as of tick t) surround its new position.
Frozen agents keep their patch for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import OFFSET_ARRAY, OFFSET_LENGTHS, compile_disk_counts, wrap
from .model import ConfigurationFault, Model, initialize, seed_error
from .world import WorldState, _owned, agent_uniforms

__all__ = [
    "ConfigurationFault", "TransitionDistribution", "RunResult", "bias_weights", "potential_at",
    "transition_distribution", "select_rule", "step", "run",
]

#: 1 / |2 * offset| per direction, the denominator of the discrete gradient.
_INV_TWO_LEN = 1.0 / (2.0 * OFFSET_LENGTHS)
_INV_TWO_LEN.setflags(write=False)

#: Follower rows per block of the move draw: the law and the CDF inversion
#: work row by row, so blocks bound their (rows, 8) temporaries and change no move.
_MOVE_ROWS = 1 << 13


def bias_weights(h_plus: np.ndarray, h_minus: np.ndarray, beta: float) -> np.ndarray:
    """Transition probabilities from field probes at r + d and r - d.

    Raw weight per direction is (1/8) * (1 + beta * (h+ - h-) / |2d|).
    Negative raw weights (large beta against a steep field) clamp to zero
    and the row renormalises; an all-zero row falls back to uniform.
    Accepts a single 8-vector pair or batches with a trailing axis of 8, in any layout.
    """
    # In place on one float array, in the order of the formula above.
    raw = np.subtract(h_plus, h_minus, dtype=float)
    raw *= beta
    raw *= _INV_TWO_LEN
    raw += 1.0
    raw *= 0.125
    np.maximum(raw, 0.0, out=raw)
    # numpy's pairwise order for a row of 8, ((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7)), in any layout.
    total = raw[..., 0::2] + raw[..., 1::2]
    total = total[..., 0::2] + total[..., 1::2]
    total = total[..., :1] + total[..., 1:]
    raw /= np.where(total > 0.0, total, 1.0)
    np.copyto(raw, 0.125, where=~(total > 0.0))
    return raw


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Invert each row's CDF at its draw: how many of the first 7 running sums are below it."""
    cum = np.empty((7,) + np.shape(u))
    cum[0] = probs[..., 0]
    for k in range(1, 7):
        np.add(cum[k - 1], probs[..., k], out=cum[k])
    return (cum < u).sum(axis=0)


@dataclass(frozen=True)
class TransitionDistribution:
    """Probability over the 8 canonical offsets for one agent and tick."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = _owned(self.probabilities, float)
        if probs.shape != (8,):
            raise ValueError("expected 8 probabilities, one per direction")
        if (probs < 0).any():
            raise ValueError("negative transition probability")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("transition probabilities must sum to 1")
        object.__setattr__(self, "probabilities", probs)


def _by_population(mask: np.ndarray, pop_index: np.ndarray, n_pops: int):
    """Masked agent ids in population order, and each population's start.
    Ids from ``initialize`` already are; only others are sorted."""
    agents = np.flatnonzero(mask)
    pops = pop_index[agents]
    if (pops[1:] < pops[:-1]).any():
        order = np.argsort(pops, kind="stable")
        agents, pops = agents[order], pops[order]
    return agents, pops.searchsorted(np.arange(n_pops + 1))


def _members(starts: np.ndarray, pops) -> tuple[np.ndarray, np.ndarray]:
    """Place in ``pops`` and row (in population order) of every agent of the
    listed populations."""
    pops = np.asarray(pops, dtype=np.int64)
    lengths = starts[pops + 1] - starts[pops]
    slot = np.arange(len(pops)).repeat(lengths)
    first = (starts[pops] + lengths - lengths.cumsum()).repeat(lengths)
    return slot, first + np.arange(len(slot))


def _linked_counts(starts, xy, links):
    """For links compiled by the layout's plan: link slot, row and the count
    of target agents within distance of each agent of the link's population,
    per Moore step if the links were compiled probed: ``links.count``.
    ``xy`` holds one position per row, rows in population order."""
    point_group, points = _members(starts, links.targets)
    slot, probed = _members(starts, links.sources)
    counts = links.count(point_group, xy.take(points, 0), links.group[slot], xy.take(probed, 0))
    return links.order[slot], probed, counts


def _field(center, agent_id: int, state: WorldState, model: Model, probed: bool) -> np.ndarray:
    """The matrix-linked active neighbours of ``agent_id`` around ``center``, moved by
    each Moore step if ``probed``; the agent itself never counts."""
    layout = model.layout
    layout.check(state)
    groups = np.flatnonzero(layout.group_source == state.population_index[agent_id])
    others = state.active & (np.arange(state.n_agents) != agent_id)
    agents, starts = _by_population(others, state.population_index, layout.n_pops)
    point_group, points = _members(starts, layout.group_target[groups])
    count = compile_disk_counts(model.lattice.side, layout.group_distance[groups], probed)
    counts = count(point_group, state.positions[agents[points]],
                   np.arange(len(groups)), np.full((len(groups), 2), center))
    return counts.sum(axis=0)


def potential_at(candidate, agent_id: int, state: WorldState, model: Model) -> int:
    """Count matrix-linked active neighbours of ``agent_id`` around a patch.

    An agent b of population T counts once when some follow-path entry links
    the agent's population to T and b lies within that entry's distance of
    ``candidate``. The probing agent itself never counts.
    """
    return int(_field(wrap(candidate, model.lattice), agent_id, state, model, False))


def transition_distribution(agent_id: int, state: WorldState, model: Model) -> TransitionDistribution:
    """Biased-walk law for one active agent, probing the field at r +- d."""
    h = _field(state.positions[agent_id], agent_id, state, model, True)
    # The probe at r - d is the probe at the paired opposite offset.
    probs = bias_weights(h, h[::-1], model.params.beta)
    return TransitionDistribution(probs)


def select_rule(agent_id: int, state: WorldState, model: Model):
    """Highest-priority applicable matrix entry for the agent's population.

    A follow-path entry applies when at least ``cardinality`` active agents
    of its target family exist anywhere; a walk entry always applies. Ties
    break by matrix file order.
    """
    layout = model.layout
    layout.check(state)
    counts = np.bincount(state.population_index[state.active], minlength=layout.n_pops)
    [row] = layout.select(counts, state.population_index[agent_id:agent_id + 1])
    return model.matrix[layout.order[row]]


def step(state: WorldState, model: Model, rng_root: int | None = None) -> WorldState:
    """Advance the world by one tick.

    Stateless with respect to randomness: the same (state, model, rng_root)
    always yields the same successor. The first step of a model builds its
    ``model.layout``, and a tick reuses the plan of the last tick's selection if it
    holds. A state of another side or population order, or a refused seed, raises ``ValueError``.
    """
    if rng_root is None:
        rng_root = model.params.seed
    if problem := seed_error(rng_root):
        raise ValueError(problem)
    layout = model.layout
    layout.check(state)
    n_pops = layout.n_pops
    pos = state.positions
    pop_index = state.population_index
    active = state.active

    # Per-tick work arrays have one row per active agent, in population order.
    n, first = int(np.count_nonzero(active)), int(active.argmax())
    last = first + n if active[first:first + n].all() else len(active) - int(active[::-1].argmax())
    u = agent_uniforms(rng_root, state.tick, last - first, first)
    pops = pop_index[first:last]
    run_path = last - first == n and not (pops[1:] < pops[:-1]).any()
    if run_path:  # the active ids are the run [first, last) in population order
        agents, xy = slice(first, last), pos[first:last]
        starts = pops.searchsorted(np.arange(n_pops + 1))
    else:
        agents, starts = _by_population(active, pop_index, n_pops)
        u, xy = u.take(agents - first), pos.take(agents, 0)
    counts = np.diff(starts)

    plan = layout.plan(counts)  # the selection's links, compiled once while it holds
    # Every row gets the walk draw; the rows of followers are overwritten.
    # u < 1, so u * 8 < 8 exactly: scaling by a power of two rounds nothing.
    move_idx = (u * 8.0).astype(np.int64)

    # Interaction field at the 8 probes of every following agent: the sum,
    # over its population's field groups, of the tick-t active agents of the
    # group's target within the group's distance. ``h``'s memory is probe-major.
    if plan.field is not None:
        _, probed, h = _linked_counts(starts, xy, plan.field)
        # With one group per follower, h's rows are the probed rows, in group order.
        follow = probed
        if len(plan.field.sources) > len(plan.follow):  # several groups per follower: add them
            follow = _members(starts, plan.follow)[1]
            rank = np.empty(n, dtype=np.int64)  # row of each follower in h
            rank[follow] = np.arange(len(follow))
            at, total = rank[probed], np.zeros((8, len(follow)), dtype=np.int64)
            for j in range(8):  # exact int64 adds, one 1-D scatter per direction
                np.add.at(total[j], at, h[:, j])
            h = total.T
        # Self-contributions of a self-linking entry cancel between the +d and
        # -d probes, so the raw counts are already correct.
        for lo in range(0, len(follow), _MOVE_ROWS):
            rows, hi = follow[lo:lo + _MOVE_ROWS], lo + _MOVE_ROWS
            probs = bias_weights(h[lo:hi], h[lo:hi, ::-1], model.params.beta)
            move_idx[rows] = _sample_rows(probs, u[rows])
        del h  # before the freeze count's keys

    moved = xy + OFFSET_ARRAY.take(move_idx, 0)  # unwrapped until the remainder by the side
    if run_path:  # the moved rows are written once, into the successor; only the rest is copied
        new_pos = np.empty_like(pos)
        new_pos[:first], new_pos[last:] = pos[:first], pos[last:]
        moved = np.remainder(moved, state.side, out=new_pos[first:last])
    else:  # two 1-D column scatters cost about half of one 2-D row scatter
        new_pos, moved = pos.copy(), np.remainder(moved, state.side, out=moved)
        new_pos[agents, 0], new_pos[agents, 1] = moved.T

    # Deactivation: thresholds are checked against the post-move positions
    # of targets but their tick-t activity flags, so simultaneous freezes do
    # not shadow one another.
    new_active = active  # read-only, so a tick with no freeze count hands it on
    if plan.freeze is not None:
        slot, probed, near = _linked_counts(starts, moved, plan.freeze)
        rows = probed[near >= plan.threshold[slot]]
        new_active = active.copy()
        new_active[first + rows if run_path else agents[rows]] = False
        new_active.setflags(write=False)

    new_pos.setflags(write=False)
    return state._next(new_pos, new_active)  # wrapped by the remainder, so unchecked


def _walk(state: WorldState, seed: int, ticks: int) -> WorldState:
    """The state ``ticks`` ticks on under a walk-only plan: with no freeze link the
    active set, and so the plan, holds. Each tick's walk draws, taken as ``step``
    takes them, are summed per active agent in int64 and wrapped once."""
    active, pos = state.active, state.positions
    n, first = int(np.count_nonzero(active)), int(active.argmax())
    last = first + n if active[first:first + n].all() else len(active) - int(active[::-1].argmax())
    rows = np.flatnonzero(active[first:last]) if last - first > n else slice(None)
    total = np.zeros((n, 2), dtype=np.int64)
    for tick in range(state.tick, state.tick + ticks) if n else ():
        u = agent_uniforms(seed, tick, last - first, first)[rows]
        total += OFFSET_ARRAY.take((u * 8.0).astype(np.int64), 0)
    new_pos = pos.copy()
    new_pos[first:last][rows] = (new_pos[first:last][rows] + total) % state.side
    new_pos.setflags(write=False)
    return state._next(new_pos, active, ticks)


@dataclass(frozen=True)
class RunResult:
    final_state: WorldState
    observations: dict[int, tuple]


def run(
    model: Model,
    report_ticks: Sequence[int] = (),
    observers: Sequence[Callable[[WorldState, Model], object]] = (),
    seed: int | None = None,
) -> RunResult:
    """Initialize and step to ``max_ticks``, sampling observers on the way.

    Observers are called with (state, model) at each requested tick; their
    return values are collected per tick in observer order. After a step whose
    plan has no field or freeze link, each stretch to the next report tick is one
    ``_walk``, equal to stepping. The whole run is reproducible from (model, seed).
    A model that :func:`validate` rejects raises :class:`ConfigurationFault`, and a
    seed it would reject ``ValueError``, before any draw.
    """
    if seed is None:
        seed = model.params.seed
    try:  # int(inf) and int(nan) raise, and int(1.5) would observe tick 1
        wanted = sorted({int(t) for t in report_ticks})
        if set(report_ticks) != set(wanted):
            raise ValueError
    except (OverflowError, ValueError):
        raise ValueError("report ticks must be integers") from None
    if wanted and (wanted[0] < 0 or wanted[-1] > model.params.max_ticks):
        raise ValueError("report ticks must lie within [0, max_ticks]")
    model.require_valid()
    state = initialize(model, seed)
    observations: dict[int, tuple] = {}
    if wanted and wanted[0] == 0:
        observations[0] = tuple(obs(state, model) for obs in observers)
    remaining = [t for t in wanted if t > 0]
    walk_only = False
    while state.tick < model.params.max_ticks:
        if walk_only:  # with no freeze link nothing freezes, so the plan holds to the end
            state = _walk(state, seed, (remaining or [model.params.max_ticks])[0] - state.tick)
        else:
            state = step(state, model, seed)
            plan = model.layout._last[1]  # the plan this step just used
            walk_only = plan.field is None and plan.freeze is None
        if remaining and remaining[0] == state.tick:
            remaining.pop(0)
            observations[state.tick] = tuple(obs(state, model) for obs in observers)
    return RunResult(final_state=state, observations=observations)
