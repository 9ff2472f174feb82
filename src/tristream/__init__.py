"""tristream: triangle estimation from a single pass over an edge stream.

The package pairs two bounded-memory streaming estimators with an exact
oracle, analytic variance/RSE predictors, and a seeded experiment harness,
so every estimate can be checked against ground truth and theory.
"""

from .analysis import (
    CalibrationResult,
    PesParams,
    VarianceBreakdown,
    calibrate_nes,
    calibrate_pes,
    calibrate_pes_pool,
    nes_pes_ratio,
    observed_rse,
    pes_rse_full,
    pes_rse_simple,
    pes_variance,
)
from .edgelist import (
    Edge,
    EdgeList,
    ParseError,
    load_edge_list,
    make_edge,
    normalize_edges,
    parse_edge_text,
    serialize_edge_list,
    shuffle_stream,
)
from .estimators import (
    EstimateResult,
    WedgePool,
    nes_run,
    pes_run,
)
from .generators import barabasi_albert, complete_graph, cycle_graph, erdos_renyi
from .harness import (
    ExperimentConfig,
    InfeasibleError,
    RatioReport,
    RunSummary,
    SweepRow,
    ratio_experiment,
    run_experiment,
    rse_sweep,
    single_run,
    write_summary_csv,
)
from .oracle import (
    AdjacencyGraph,
    GraphStats,
    build_adjacency,
    compute_stats,
)
from .randomness import RandomSource, ScriptedSource, SeededSource, mix_seed

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "CalibrationResult",
    "Edge",
    "EdgeList",
    "EstimateResult",
    "ExperimentConfig",
    "GraphStats",
    "InfeasibleError",
    "ParseError",
    "PesParams",
    "RandomSource",
    "RatioReport",
    "RunSummary",
    "ScriptedSource",
    "SeededSource",
    "SweepRow",
    "VarianceBreakdown",
    "WedgePool",
    "barabasi_albert",
    "build_adjacency",
    "calibrate_nes",
    "calibrate_pes",
    "calibrate_pes_pool",
    "complete_graph",
    "compute_stats",
    "cycle_graph",
    "erdos_renyi",
    "load_edge_list",
    "make_edge",
    "mix_seed",
    "nes_pes_ratio",
    "nes_run",
    "normalize_edges",
    "observed_rse",
    "parse_edge_text",
    "pes_rse_full",
    "pes_rse_simple",
    "pes_run",
    "pes_variance",
    "ratio_experiment",
    "rse_sweep",
    "run_experiment",
    "serialize_edge_list",
    "shuffle_stream",
    "single_run",
    "write_summary_csv",
]
