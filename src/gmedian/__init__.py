"""Median graphs of attributed-graph collections under graph edit distance.

The library covers three layers: graph and transformation primitives with
edit cost models (:mod:`gmedian.graphs`, :mod:`gmedian.costs`), a stack of
edit-distance solvers from exact enumeration to multistart quadratic
refinement (:mod:`gmedian.solvers`), and an alternating descent that
improves a set median into a generalized median together with experiment
drivers (:mod:`gmedian.median`, :mod:`gmedian.harness`). File formats live
in :mod:`gmedian.datasets`; the ``gmedian`` console script exposes the
whole pipeline.
"""

from .costs import (
    CostModel,
    CostModelError,
    LabelDelta,
    SquaredEuclidean,
    ZeroCost,
    edge_cost,
    make_cost_model,
    transformation_cost,
    vertex_cost,
)
from .datasets import (
    DatasetDescriptor,
    DatasetError,
    GraphRecord,
    LabelCodec,
    ModeHints,
    load_collection,
    load_graph,
    parse_collection,
    parse_gxl,
    read_graph,
    save_graph,
    write_graph,
)
from .graphs import (
    LABEL,
    NO_EDGE_ATTRS,
    VECTOR,
    AttributedGraph,
    GraphError,
    Transformation,
    build_graph,
    classify_edges,
    graphs_equal,
    identity_transformation,
    transformation_from_forward,
)
from .harness import (
    ClassificationReport,
    ExperimentConfig,
    HarnessError,
    SodReport,
    run_classification,
    run_sod_experiment,
)
from .lsap import LsapError, build_assignment_problem, solve_lsap
from .median import (
    DescentConfig,
    MedianResult,
    SetMedianResult,
    compute_median,
    set_median,
)
from .solvers import (
    METHODS,
    GedResult,
    GedSolverConfig,
    SolverError,
    ged_bipartite,
    ged_exact,
    ged_ipfp,
    solve_ged,
)

__version__ = "0.1.0"

__all__ = [
    "AttributedGraph",
    "ClassificationReport",
    "CostModel",
    "CostModelError",
    "DatasetDescriptor",
    "DatasetError",
    "DescentConfig",
    "ExperimentConfig",
    "GedResult",
    "GedSolverConfig",
    "GraphError",
    "GraphRecord",
    "HarnessError",
    "LABEL",
    "LabelCodec",
    "LabelDelta",
    "LsapError",
    "METHODS",
    "MedianResult",
    "ModeHints",
    "NO_EDGE_ATTRS",
    "SetMedianResult",
    "SodReport",
    "SolverError",
    "SquaredEuclidean",
    "Transformation",
    "VECTOR",
    "ZeroCost",
    "build_assignment_problem",
    "build_graph",
    "classify_edges",
    "compute_median",
    "edge_cost",
    "ged_bipartite",
    "ged_exact",
    "ged_ipfp",
    "graphs_equal",
    "identity_transformation",
    "load_collection",
    "load_graph",
    "make_cost_model",
    "parse_collection",
    "parse_gxl",
    "read_graph",
    "run_classification",
    "run_sod_experiment",
    "save_graph",
    "set_median",
    "solve_ged",
    "solve_lsap",
    "transformation_cost",
    "transformation_from_forward",
    "vertex_cost",
    "write_graph",
]
