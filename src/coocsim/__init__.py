"""Seed-reproducible multi-agent aggregation on a toroidal lattice.

Named populations of agents walk a wrapped square grid of unit patches.
Entries of an interaction matrix bias selected populations toward linked
populations and freeze them on contact; neighbourhood frequency reports
then show which populations pack around a chosen target.
"""

__version__ = "0.1.0"

from .lattice import Lattice, wrap
from .model import (
    DEFAULT_SEED,
    Diagnostic,
    InteractionMatrixEntry,
    InteractionRule,
    Model,
    PopulationSpec,
    SimParams,
    build_model,
    initialize,
    validate,
)
from .world import WorldState, agent_uniforms
from .dynamics import (
    ConfigurationFault,
    RunResult,
    TransitionDistribution,
    bias_weights,
    potential_at,
    run,
    select_rule,
    step,
    transition_distribution,
)
from .metrics import (
    CrowdingIndices,
    DriftDiffusionEstimate,
    NeighborhoodReport,
    OverlapReport,
    crowding_indices,
    estimate_drift_diffusion,
    neighborhood_counts,
    overlap_report,
    significant_populations,
)
from .io import (
    EdgeList,
    ParseError,
    RelationModel,
    build_relation_model,
    parse_edge_list,
    parse_matrix,
    parse_rules,
    read_report_csv,
    render_snapshot,
    write_report_csv,
)

__all__ = [
    "__version__",
    "Lattice", "wrap",
    "DEFAULT_SEED", "Diagnostic", "InteractionMatrixEntry", "InteractionRule",
    "Model", "PopulationSpec", "SimParams", "build_model", "initialize", "validate",
    "WorldState", "agent_uniforms",
    "ConfigurationFault", "RunResult", "TransitionDistribution", "bias_weights",
    "potential_at", "run", "select_rule", "step", "transition_distribution",
    "CrowdingIndices", "DriftDiffusionEstimate", "NeighborhoodReport", "OverlapReport",
    "crowding_indices", "estimate_drift_diffusion",
    "neighborhood_counts", "overlap_report", "significant_populations",
    "EdgeList", "ParseError", "RelationModel", "build_relation_model",
    "parse_edge_list", "parse_matrix", "parse_rules", "read_report_csv",
    "render_snapshot", "write_report_csv",
]
