"""Independent oracles and model builders shared by the test modules.

The oracles deliberately re-derive geometry, counting, rule selection and
deactivation with plain loops and their own wrapped-distance arithmetic.
Only the floating-point weight formula and the per-agent uniforms are taken
from the package, so that bitwise comparisons against the production kernel
stay meaningful.
"""

from pathlib import Path

import numpy as np

from coocsim import WorldState, agent_uniforms, bias_weights, build_model
from coocsim.io import parse_matrix, parse_rules
from coocsim.model import FOLLOW_PATH, DEACTIVATE_SOURCE

DATA = Path(__file__).resolve().parents[1] / "data"


# ---------------------------------------------------------------------------
# model builders

def make_toy_model(walkers=200, particles=800, side=51, beta=1.0, seed=7, max_ticks=10):
    rules = parse_rules((DATA / "rules.txt").read_text())
    matrix = parse_matrix((DATA / "matrix_toy.txt").read_text())
    sizes = {"walkers": walkers, "particles": particles}
    return build_model(rules, matrix, side=side, sizes=sizes,
                       beta=beta, seed=seed, max_ticks=max_ticks)


def make_small_set_model(size=100, side=31, beta=1.0, seed=7, max_ticks=1000):
    rules = parse_rules((DATA / "rules.txt").read_text())
    matrix = parse_matrix((DATA / "matrix_small_set.txt").read_text())
    return build_model(rules, matrix, side=side, sizes=size,
                       beta=beta, seed=seed, max_ticks=max_ticks)


def make_walk_model(n_agents=1000, side=31, seed=7, max_ticks=10):
    rules = parse_rules((DATA / "rules.txt").read_text())
    matrix = parse_matrix("solo walk 0 0\n")
    return build_model(rules, matrix, side=side, sizes=n_agents,
                       seed=seed, max_ticks=max_ticks)


def make_state(side, names, rows, tick=0):
    """Hand-built snapshot from (population, (x, y), active) rows."""
    index = {name: i for i, name in enumerate(names)}
    return WorldState(
        tick=tick,
        side=side,
        population_names=tuple(names),
        population_index=np.array([index[pop] for pop, _, _ in rows], dtype=np.int32),
        positions=np.array([pos for _, pos, _ in rows], dtype=np.int64).reshape(-1, 2),
        active=np.array([act for _, _, act in rows], dtype=bool),
    )


# ---------------------------------------------------------------------------
# wrapped geometry, re-derived

def wrapped_dist_sq(a, b, side):
    dx = abs(int(a[0]) - int(b[0])) % side
    dx = min(dx, side - dx)
    dy = abs(int(a[1]) - int(b[1])) % side
    dy = min(dy, side - dy)
    return dx * dx + dy * dy


def _follow_entries(model, pop_name):
    rules = {r.name: r for r in model.rules}
    return [
        e for e in model.matrix
        if e.source_family == pop_name
        and rules[e.interaction_name].movement_action == FOLLOW_PATH
    ]


# ---------------------------------------------------------------------------
# O(N^2) oracles

def oracle_neighborhood_counts(state, target, d):
    """Literal definition: an agent counts when some target agent is near."""
    side = state.side
    populations = [state.population_names[p] for p in state.population_index]
    target_rows = [state.positions[i] for i, pop in enumerate(populations) if pop == target]
    counts = {}
    for name in state.population_names:
        if name == target:
            continue
        counts[name] = 0
    for i, population in enumerate(populations):
        if population == target:
            continue
        if any(wrapped_dist_sq(state.positions[i], t, side) <= d * d
               for t in target_rows):
            counts[population] += 1
    average = sum(counts.values()) / len(counts) if counts else 0.0
    return counts, average


def oracle_potential(candidate, agent_id, state, model):
    """Count agents linked by any follow-path entry in range of candidate."""
    side, names, index = state.side, state.population_names, state.population_index
    entries = _follow_entries(model, names[index[agent_id]])
    total = 0
    for other in range(state.n_agents):
        if other == agent_id or not state.active[other]:
            continue
        for entry in entries:
            if entry.target_family != names[index[other]]:
                continue
            if wrapped_dist_sq(candidate, state.positions[other], side) <= entry.distance ** 2:
                total += 1
                break
    return total


def oracle_select(pop_name, state, model):
    """Highest priority applicable entry, matrix order breaking ties."""
    rules = {r.name: r for r in model.rules}
    candidates = [
        (-(e.priority), i, e) for i, e in enumerate(model.matrix)
        if e.source_family == pop_name
    ]
    active_counts = {}
    for i in range(state.n_agents):
        if state.active[i]:
            name = state.population_names[state.population_index[i]]
            active_counts[name] = active_counts.get(name, 0) + 1
    for _, _, entry in sorted(candidates, key=lambda t: (t[0], t[1])):
        movement = rules[entry.interaction_name].movement_action
        if movement != FOLLOW_PATH:
            return entry
        if active_counts.get(entry.target_family, 0) >= entry.cardinality:
            return entry
    raise AssertionError(f"no applicable entry for {pop_name}")


OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def oracle_step(state, model, seed, order=None):
    """Per-agent reference step; ``order`` permutes the iteration order."""
    side = state.side
    rules = {r.name: r for r in model.rules}
    n = state.n_agents
    u = agent_uniforms(seed, state.tick, n)
    populations = [state.population_names[p] for p in state.population_index]
    positions = [(int(x), int(y)) for x, y in state.positions]
    active = state.active.tolist()
    new_pos = list(positions)
    selected = {}
    for name in state.population_names:
        if any(act and pop == name for act, pop in zip(active, populations)):
            selected[name] = oracle_select(name, state, model)

    for i in (order if order is not None else range(n)):
        if not active[i]:
            continue
        entry = selected[populations[i]]
        movement = rules[entry.interaction_name].movement_action
        if movement != FOLLOW_PATH:
            k = min(int(u[i] * 8.0), 7)
        else:
            h = np.array(
                [oracle_potential(((positions[i][0] + dx), (positions[i][1] + dy)), i, state, model)
                 for dx, dy in OFFSETS],
                dtype=np.int64,
            )
            probs = bias_weights(h, h[::-1], model.params.beta)
            cum = np.cumsum(probs)
            k = min(int((cum < u[i]).sum()), 7)
        dx, dy = OFFSETS[k]
        new_pos[i] = ((positions[i][0] + dx) % side, (positions[i][1] + dy) % side)

    new_active = list(active)
    for i in range(n):
        if not active[i]:
            continue
        entry = selected[populations[i]]
        rule = rules[entry.interaction_name]
        if rule.deactivation_action != DEACTIVATE_SOURCE or entry.target_family is None:
            continue
        near = 0
        for j in range(n):
            if j == i or not active[j] or populations[j] != entry.target_family:
                continue
            if wrapped_dist_sq(new_pos[i], new_pos[j], side) <= entry.distance ** 2:
                near += 1
        if near >= entry.cardinality:
            new_active[i] = False

    return WorldState(
        tick=state.tick + 1,
        side=side,
        population_names=state.population_names,
        population_index=state.population_index,
        positions=np.array(new_pos, dtype=np.int64),
        active=np.array(new_active, dtype=bool),
    )


def uniform_placement_fraction(side, n_targets, n_sources, d, placements, seed):
    """Monte Carlo baseline: fraction of sources near any target when both
    populations are scattered uniformly at random."""
    rng = np.random.default_rng(seed)
    d2 = d * d
    total = 0.0
    for _ in range(placements):
        tx = rng.integers(0, side, n_targets)
        ty = rng.integers(0, side, n_targets)
        sx = rng.integers(0, side, n_sources)
        sy = rng.integers(0, side, n_sources)
        dx = np.abs(sx[:, None] - tx[None, :])
        dx = np.minimum(dx, side - dx)
        dy = np.abs(sy[:, None] - ty[None, :])
        dy = np.minimum(dy, side - dy)
        near = ((dx * dx + dy * dy) <= d2).any(axis=1)
        total += near.mean()
    return total / placements
