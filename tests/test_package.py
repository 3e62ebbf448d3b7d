"""The package surface: each public name loads its defining module on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmedian

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names and the modules that define them, as the package exported them when it imported eagerly
EXPORTS = {
    "costs": "CostModel CostModelError LabelDelta SquaredEuclidean ZeroCost make_cost_model transformation_cost",
    "datasets": "DatasetDescriptor DatasetError GraphRecord LabelCodec ModeHints load_collection load_graph "
    "parse_collection parse_gxl read_graph save_graph write_graph",
    "graphs": "LABEL NO_EDGE_ATTRS VECTOR AttributedGraph GraphError Transformation build_graph graphs_equal "
    "identity_transformation transformation_from_forward",
    "harness": "ClassificationReport ExperimentConfig HarnessError SodReport run_classification run_sod_experiment",
    "lsap": "LsapError build_assignment_problem solve_lsap",
    "median": "DescentConfig MedianResult SetMedianResult compute_median set_median",
    "solvers": "METHODS GedResult GedSolverConfig SolverError ged_bipartite ged_exact solve_ged",
}


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


SURFACE = f"""
import importlib
import sys

import gmedian

loaded = sorted(m for m in sys.modules if m.startswith("gmedian."))
assert not loaded, loaded

EXPORTS = {EXPORTS!r}
names = sorted(name for line in EXPORTS.values() for name in line.split())
assert len(names) == 50 and gmedian.__all__ == names, gmedian.__all__
for module, line in EXPORTS.items():
    defining = importlib.import_module("gmedian." + module)
    for name in line.split():
        assert getattr(gmedian, name) is getattr(defining, name), name
        assert name in dir(gmedian), name

star = {{}}
exec("from gmedian import *", star)
assert set(star) - {{"__builtins__"}} == set(names)

try:
    gmedian.no_such_name
except AttributeError as exc:
    assert "gmedian" in str(exc) and "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown name resolved")

# the package keeps no copy: a rebinding in the defining module shows at the next access
import gmedian.solvers

original = gmedian.solvers.solve_ged


def traced(*args, **kwargs):
    return original(*args, **kwargs)


gmedian.solvers.solve_ged = traced
assert gmedian.solve_ged is traced
from gmedian import solve_ged

assert solve_ged is traced
gmedian.solvers.solve_ged = original
assert gmedian.solve_ged is original
"""


def test_names_resolve_to_their_defining_module_on_first_use():
    _run_python(SURFACE)


SOLVE_LOADS = """
import sys

import gmedian

g = gmedian.build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
g2 = gmedian.build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)])
config = gmedian.GedSolverConfig(method="mipfp", multistart_count=3)
assert gmedian.solve_ged(gmedian.make_cost_model(), g, g2, config).cost > 0

loaded = sorted(m for m in sys.modules if m.startswith("gmedian."))
assert loaded == ["gmedian.costs", "gmedian.graphs", "gmedian.lsap", "gmedian.solvers"], loaded
for name in ("xml.etree", "csv", "logging", "scipy.optimize"):
    assert name not in sys.modules, name
# scipy's package set-up runs only where its compiled LSAP module cannot load without it
assert not sys.platform.startswith("linux") or "scipy" not in sys.modules
"""


def test_a_solve_loads_only_the_layers_it_uses():
    _run_python(SOLVE_LOADS)


def test_an_unknown_name_raises_and_dir_lists_every_export():
    # the same checks in this process: a line trace does not follow the subprocesses above
    with pytest.raises(AttributeError, match="'gmedian' has no attribute 'no_such_name'"):
        gmedian.no_such_name
    assert set(gmedian.__all__) <= set(dir(gmedian))
