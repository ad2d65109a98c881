"""Immutable per-tick world snapshots and the seeded randomness streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Domain tags keeping the placement stream and the per-tick move streams
# disjoint for a given root seed.
_PLACEMENT_STREAM = 0
_TICK_STREAM = 1


def _owned(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only ``dtype`` array, copied unless it is one already;
    ``ValueError`` if the cast to ``dtype`` would change a value."""
    given = np.asarray(arr)
    out = given.astype(dtype) if given.dtype != dtype or given.flags.writeable else given
    if out.dtype != given.dtype and (out != given).any():
        raise ValueError(f"{given[out != given][0]} changes when cast to {out.dtype}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class WorldState:
    """Snapshot of every agent at one tick.

    Agent ids are row indices into the arrays and stay stable for the whole
    run; agents are never created or destroyed, only deactivated. The side
    of the wrapped world travels with the snapshot so reports need no extra
    context. All arrays are read-only so a snapshot can be shared freely
    across threads.
    """

    tick: int
    side: int
    population_names: tuple[str, ...]
    population_index: np.ndarray  # (n,) int32 in [0, len(population_names)), static across ticks
    positions: np.ndarray         # (n, 2) int64, wrapped into [0, side)
    active: np.ndarray            # (n,) bool

    def __post_init__(self) -> None:
        index, k = np.asarray(self.population_index), len(self.population_names)
        if index.dtype.kind not in "biuf":
            raise ValueError(f"population index must be numeric, got dtype {index.dtype}")
        # Before the cast, which would wrap 2**32 to 0.
        if index.size and not 0 <= index.min() <= index.max() < k:
            raise ValueError(f"population index out of range [0, {k})")
        object.__setattr__(self, "population_index", _owned(index, np.int32))
        object.__setattr__(self, "positions", _owned(self.positions, np.int64))
        object.__setattr__(self, "active", _owned(self.active, bool))
        n = self.population_index.shape[0]
        if self.positions.shape != (n, 2) or self.active.shape != (n,):
            raise ValueError("inconsistent agent array shapes")
        if self.tick < 0:
            raise ValueError("tick must be nonnegative")
        if n and (self.positions.min() < 0 or self.positions.max() >= self.side):
            raise ValueError("positions out of lattice range")

    def _next(self, positions: np.ndarray, active: np.ndarray, ticks: int = 1) -> WorldState:
        """The state ``ticks`` ticks on, unchecked: the caller passes read-only arrays of
        this state's shapes and dtypes, positions already wrapped into [0, side)."""
        state = object.__new__(type(self))
        state.__dict__.update(vars(self), tick=self.tick + ticks, positions=positions,
                              active=active)
        return state

    @property
    def n_agents(self) -> int:
        return int(self.population_index.shape[0])


def placement_generator(seed: int) -> np.random.Generator:
    """Generator used once per run to scatter agents at tick 0."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, _PLACEMENT_STREAM)))
    )


def agent_uniforms(seed: int, tick: int, n_agents: int, first: int = 0) -> np.ndarray:
    """Uniform doubles of agents ``first`` to ``first + n_agents - 1`` for the
    move out of ``tick``. Agent i's value is a pure function of (seed, tick,
    i), so stepping does not depend on iteration order.
    """
    bits = np.random.Philox(np.random.SeedSequence((seed, _TICK_STREAM, tick)))
    bits.advance(first // 4)  # Philox yields 4 doubles per counter step
    return np.random.Generator(bits).random(n_agents + first % 4)[first % 4:]
