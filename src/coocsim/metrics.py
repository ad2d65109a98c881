"""Aggregation diagnostics: crowding, neighbourhoods, drift/diffusion, overlap."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .lattice import Lattice, disk_sum
from .world import WorldState


@dataclass(frozen=True)
class CrowdingIndices:
    """Density thresholds beyond which near interactions freeze movement.

    ``critical_density`` is a quarter of the agent count per patch,
    0.25 * n / patch_count; ``critical_count`` is the count at which that
    density reaches one, patch_count // 4.
    """

    patch_count: int
    critical_density: float
    critical_count: int


def crowding_indices(lattice: Lattice, n: int) -> CrowdingIndices:
    if n < 0:
        raise ValueError("agent count must be nonnegative")
    patches = lattice.patch_count
    return CrowdingIndices(
        patch_count=patches,
        critical_density=(0.25 * n) / patches,
        critical_count=patches // 4,
    )


@dataclass(frozen=True)
class NeighborhoodReport:
    """Per-population counts of agents near any agent of a target population.

    ``counts`` never includes the target itself; ``global_average`` is the
    mean count over the non-target populations.
    """

    target_population: str
    distance: float
    tick: int
    counts: dict[str, int]
    global_average: float


def neighborhood_counts(state: WorldState, target: str, d: float) -> NeighborhoodReport:
    """Count, per other population, agents within ``d`` of the target.

    An agent counts at most once no matter how many target agents surround
    it. Inactive agents keep occupying their patch and are counted on both
    sides.
    """
    if not 0 < d < math.inf:
        raise ValueError(f"neighbourhood distance must be a finite positive number, got {d}")
    names = state.population_names
    try:
        target_ix = names.index(target)
    except ValueError:
        raise ValueError(f"target population {target!r} not present") from None
    side = state.side
    patch = state.positions[:, 0] * side + state.positions[:, 1]
    marked = np.zeros(side * side, dtype=bool)  # patches of the target's agents
    marked[patch[state.population_index == target_ix]] = True
    covered = disk_sum(marked.reshape(side, side), side, d)  # a boolean sum is an or
    at_agent = covered.take(patch)
    per_pop = np.bincount(state.population_index[at_agent], minlength=len(names))
    counts = {name: int(per_pop[i]) for i, name in enumerate(names) if i != target_ix}
    average = sum(counts.values()) / len(counts) if counts else 0.0
    return NeighborhoodReport(
        target_population=target,
        distance=float(d),
        tick=state.tick,
        counts=counts,
        global_average=average,
    )


@dataclass(frozen=True)
class DriftDiffusionEstimate:
    """First and second displacement moments of recorded trajectories."""

    mean_step: tuple[float, float]
    mean_step_se: tuple[float, float]
    mean_square_step: float
    mean_square_step_se: float
    samples: int


def estimate_drift_diffusion(trajectories, lattice: Lattice) -> DriftDiffusionEstimate:
    """Moments of single-tick displacements from a (ticks+1, agents, 2) series.

    Positions are wrapped, so steps are recovered by minimum-image
    differencing; with unit steps that is exact. Standard errors assume
    independent samples, which holds for unbiased walks.
    """
    traj = np.asarray(trajectories, dtype=np.int64)
    if traj.ndim != 3 or traj.shape[2] != 2 or traj.shape[0] < 2:
        raise ValueError("expected positions shaped (ticks + 1, agents, 2)")
    side = lattice.side
    steps = traj[1:] - traj[:-1]
    steps = ((steps + side // 2) % side) - side // 2
    flat = steps.reshape(-1, 2).astype(float)
    n = flat.shape[0]
    if n < 1000:
        raise ValueError(f"need at least 1000 single-tick displacements, got {n}")
    mean = flat.mean(axis=0)
    mean_se = flat.std(axis=0, ddof=1) / math.sqrt(n)
    sq = (flat ** 2).sum(axis=1)
    return DriftDiffusionEstimate(
        mean_step=(float(mean[0]), float(mean[1])),
        mean_step_se=(float(mean_se[0]), float(mean_se[1])),
        mean_square_step=float(sq.mean()),
        mean_square_step_se=float(sq.std(ddof=1) / math.sqrt(n)),
        samples=n,
    )


@dataclass(frozen=True)
class OverlapReport:
    intersection: tuple[str, ...]
    hits_count: int
    reference_count: int

    @property
    def common_count(self) -> int:
        return len(self.intersection)


def overlap_report(model_hits: Iterable[str], reference: Iterable[str]) -> OverlapReport:
    """Case-insensitive exact-token intersection of two name lists."""
    hits = {name.casefold() for name in model_hits}
    ref = {name.casefold() for name in reference}
    return OverlapReport(
        intersection=tuple(sorted(hits & ref)),
        hits_count=len(hits),
        reference_count=len(ref),
    )


def significant_from_counts(counts: Mapping[str, int], average: float, factor: float) -> list[str]:
    """Names whose count reaches factor * average, busiest first. A count of 0
    never stands out, even against an average of 0."""
    if not 0 < factor < math.inf:
        raise ValueError(f"factor must be a finite positive number, got {factor}")
    hits = [(name, c) for name, c in counts.items() if c > 0 and c >= factor * average]
    hits.sort(key=lambda item: (-item[1], item[0]))
    return [name for name, _ in hits]


def significant_populations(report: NeighborhoodReport, factor: float = 2.0) -> list[str]:
    """Populations standing out of a report by at least ``factor`` times."""
    return significant_from_counts(report.counts, report.global_average, factor)
