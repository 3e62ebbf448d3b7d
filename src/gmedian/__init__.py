"""Median graphs of attributed-graph collections under graph edit distance.

The library covers three layers: graph and transformation primitives with
edit cost models (:mod:`gmedian.graphs`, :mod:`gmedian.costs`), a stack of
edit-distance solvers from exact enumeration to multistart quadratic
refinement (:mod:`gmedian.solvers`), and an alternating descent that
improves a set median into a generalized median together with experiment
drivers (:mod:`gmedian.median`, :mod:`gmedian.harness`). File formats live
in :mod:`gmedian.datasets`; the ``gmedian`` console script exposes the
whole pipeline.

Each public name is imported from its defining module on first use, so
``import gmedian`` loads no submodule, and a distance solve loads the
graph, cost, assignment and solver layers only.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "costs": (
        "CostModel",
        "CostModelError",
        "LabelDelta",
        "SquaredEuclidean",
        "ZeroCost",
        "make_cost_model",
        "transformation_cost",
    ),
    "datasets": (
        "DatasetDescriptor",
        "DatasetError",
        "GraphRecord",
        "LabelCodec",
        "ModeHints",
        "load_collection",
        "load_graph",
        "parse_collection",
        "parse_gxl",
        "read_graph",
        "save_graph",
        "write_graph",
    ),
    "graphs": (
        "LABEL",
        "NO_EDGE_ATTRS",
        "VECTOR",
        "AttributedGraph",
        "GraphError",
        "Transformation",
        "build_graph",
        "graphs_equal",
        "identity_transformation",
        "transformation_from_forward",
    ),
    "harness": (
        "ClassificationReport",
        "ExperimentConfig",
        "HarnessError",
        "SodReport",
        "run_classification",
        "run_sod_experiment",
    ),
    "lsap": ("LsapError", "build_assignment_problem", "solve_lsap"),
    "median": ("DescentConfig", "MedianResult", "SetMedianResult", "compute_median", "set_median"),
    "solvers": (
        "METHODS",
        "GedResult",
        "GedSolverConfig",
        "SolverError",
        "ged_bipartite",
        "ged_exact",
        "solve_ged",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # not kept here: a module that rebinds a name (say, to trace it) is seen on the next access
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _EXPORTS:  # a layer module not imported yet
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
