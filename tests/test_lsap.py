"""Linear assignment solving and the augmented square layout."""

import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from gmedian import LsapError, build_assignment_problem, lsap, solve_lsap
from gmedian.lsap import solve_partial

from oracles import brute_lsap

SRC = Path(__file__).resolve().parent.parent / "src"


def test_tiny_examples():
    assignment, objective = solve_lsap(np.array([[4.0]]))
    assert assignment.tolist() == [0] and objective == 4.0
    assignment, objective = solve_lsap(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert assignment.tolist() == [1, 0]
    assert objective == 3.0
    # an empty matrix goes through the same kernel call
    assignment, objective = solve_lsap(np.zeros((0, 0)))
    assert assignment.dtype == np.int64 and assignment.shape == (0,) and objective == 0.0


def test_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        cost = rng.uniform(0, 10, size=(n, n))
        _, objective = solve_lsap(cost)
        assert objective == pytest.approx(brute_lsap(cost))


def test_row_shift_invariance():
    rng = np.random.default_rng(6)
    cost = rng.uniform(0, 5, size=(5, 5))
    a1, o1 = solve_lsap(cost)
    shifted = cost + rng.uniform(1, 3, size=(5, 1))
    a2, o2 = solve_lsap(shifted)
    # shifting a whole row never changes which assignment is optimal
    assert sum(cost[i, a2[i]] for i in range(5)) == pytest.approx(o1)


def test_rejects_bad_input():
    with pytest.raises(LsapError):
        solve_lsap(np.zeros((2, 3)))
    with pytest.raises(LsapError):
        solve_lsap(np.array([[np.nan, 1.0], [1.0, 2.0]]))
    with pytest.raises(LsapError):
        solve_lsap(np.array([[np.inf]]))


def test_overflowing_objective_rejected_without_warning():
    # every entry is finite, but the optimal sum is beyond float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LsapError, match="objective overflows"):
            solve_lsap(np.full((2, 2), 1e308))
        assignment, objective = solve_lsap(np.array([[1e308, 0.0], [0.0, 1e308]]))
    assert assignment.tolist() == [1, 0] and objective == 0.0


def test_augmented_layout():
    subst = np.array([[1.0, 2.0], [3.0, 4.0]])
    removal = np.array([5.0, 6.0])
    insertion = np.array([7.0, 8.0])
    c = build_assignment_problem(subst, removal, insertion)
    assert c.shape == (4, 4)
    assert np.array_equal(c[:2, :2], subst)
    assert c[0, 2] == 5.0 and c[1, 3] == 6.0
    assert c[0, 3] == np.inf and c[1, 2] == np.inf
    assert c[2, 0] == 7.0 and c[3, 1] == 8.0
    assert c[3, 0] == np.inf and c[2, 1] == np.inf
    assert np.all(c[2:, 2:] == 0.0)


def test_augmented_solution_never_picks_sentinel():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c = build_assignment_problem(
            rng.uniform(0, 4, size=(n, n2)),
            rng.uniform(0, 4, size=n),
            rng.uniform(0, 4, size=n2),
        )
        assignment, objective = solve_lsap(c)
        assert assignment.shape == (n + n2,)
        assert np.isfinite(objective)
        for i in range(n + n2):
            assert c[i, assignment[i]] < np.inf


def test_augmented_solution_avoids_forbidden_cells_beyond_any_finite_cost():
    # finite costs this large must not be mistaken for the +inf of a forbidden cell
    c = build_assignment_problem(np.full((3, 1), 1e16), np.full(3, 1e16), np.array([1e17]))
    assignment, objective = solve_lsap(c)
    assert np.isfinite(c[np.arange(4), assignment]).all()
    # one substitution and two removals beat three removals and the insertion
    assert objective == 3e16
    assert sorted(assignment[:3].tolist()) == [0, 2, 3]


def test_all_sentinel_matrix_rejected():
    # +inf marks a forbidden cell, so a matrix of them has no assignment
    with pytest.raises(LsapError, match="avoids the \\+inf cells"):
        solve_lsap(np.full((2, 2), np.inf))
    with pytest.raises(LsapError, match="avoids the \\+inf cells"):
        solve_lsap(np.array([[1.0, np.inf], [2.0, np.inf]]))
    with pytest.raises(LsapError, match="NaN or -inf"):
        solve_lsap(np.array([[1.0, -np.inf], [2.0, 3.0]]))


def test_rectangular_subst_shapes():
    c = build_assignment_problem(np.zeros((1, 3)), np.array([2.0]), np.array([1.0, 1.0, 1.0]))
    assert c.shape == (4, 4)
    with pytest.raises(LsapError):
        build_assignment_problem(np.zeros((2, 2)), np.array([1.0]), np.array([1.0, 1.0]))


def _partial_injections(n, n2):
    """Every forward map of n rows into n2 columns, n2 standing for no column, injective on columns."""
    for forward in itertools.product(range(n2 + 1), repeat=n):
        paired = [k for k in forward if k < n2]
        if len(paired) == len(set(paired)):
            yield forward


def test_partial_matching_matches_brute_force():
    rng = np.random.default_rng(11)
    for n in range(6):
        for n2 in range(6):
            for _ in range(3):
                cost = rng.integers(-4, 4, size=(n, n2)).astype(np.float64)
                forward = solve_partial(cost)
                assert forward.shape == (n,) and forward.dtype == np.int64
                paired = forward[forward < n2]
                assert len(set(paired.tolist())) == len(paired)
                objective = sum(cost[i, k] for i, k in enumerate(forward) if k < n2)
                best = min(
                    sum(cost[i, k] for i, k in enumerate(f) if k < n2) for f in _partial_injections(n, n2)
                )
                assert objective == best, (cost, forward)
                # only negative entries are paired
                assert all(cost[i, k] < 0 for i, k in enumerate(forward) if k < n2)


def test_partial_matching_leaves_zero_ties_unpaired():
    assert solve_partial(np.zeros((3, 2))).tolist() == [2, 2, 2]
    assert solve_partial(np.array([[0.0, -1.0], [0.0, 0.0]])).tolist() == [1, 2]
    assert solve_partial(np.array([[1.0, 2.0]])).tolist() == [2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partial_matching_rejects_non_finite(bad):
    cost = np.array([[-1.0, 0.0], [0.0, bad]])
    with pytest.raises(LsapError, match="non-finite"):
        solve_partial(cost)


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_leaves_scipy_optimize_unloaded():
    _run_python("import gmedian, sys; assert 'scipy.optimize' not in sys.modules, sorted(sys.modules)")


KERNEL_MATCH = """
import sys

import numpy as np

from gmedian import build_assignment_problem, lsap

# gmedian comes first, and scipy.optimize is still unloaded: the kernel came from the loader's own load
assert "scipy.optimize" not in sys.modules
import scipy.optimize


def cases():
    rng = np.random.default_rng(13)
    for shape in [(1, 1), (4, 4), (6, 6), (3, 5), (5, 3), (0, 0), (0, 2)]:
        for _ in range(4):
            # few distinct values, so most optima are tied
            cost = rng.integers(0, 3, size=shape).astype(np.float64)
            yield cost
            if cost.size:
                forbidden = cost.copy()
                forbidden[rng.random(shape) < 0.2] = np.inf
                yield forbidden
    yield build_assignment_problem(np.zeros((2, 3)), np.zeros(2), np.zeros(3))


checked = infeasible = 0
for cost in cases():
    try:
        expected = scipy.optimize.linear_sum_assignment(cost)
    except ValueError:  # no assignment avoids the +inf cells
        try:
            lsap.linear_sum_assignment(cost)
        except ValueError:
            infeasible += 1
            continue
        raise AssertionError(f"loaded kernel solved an infeasible matrix: {cost}")
    rows, cols = lsap.linear_sum_assignment(cost)
    assert rows.tolist() == expected[0].tolist() and cols.tolist() == expected[1].tolist(), cost
    checked += 1
assert checked > 40 and infeasible > 0, (checked, infeasible)
"""


def test_loaded_kernel_matches_scipy_public_function():
    _run_python(KERNEL_MATCH)


def test_loader_reuses_an_imported_scipy_optimize():
    # scipy.optimize is imported above; its extension module must stay registered
    extension = sys.modules["scipy.optimize._lsap"]
    assert lsap._load_linear_sum_assignment() is scipy.optimize.linear_sum_assignment
    assert sys.modules["scipy.optimize._lsap"] is extension


FALLBACK = """
import importlib.machinery

real = importlib.machinery.PathFinder.find_spec
hidden = []


def find_spec(name, path=None, target=None):
    # the loader's lookup finds no extension module; scipy's own import later does
    if name == "scipy.optimize._lsap" and not hidden:
        hidden.append(name)
        return None
    return real(name, path, target)


importlib.machinery.PathFinder.find_spec = find_spec
from gmedian import lsap
import scipy.optimize

assert hidden and lsap.linear_sum_assignment is scipy.optimize.linear_sum_assignment
"""


def test_loader_falls_back_to_public_function():
    _run_python(FALLBACK)


FAILED_LOAD = """
import importlib.machinery
import sys

real = importlib.machinery.ExtensionFileLoader.exec_module
failed = []


def exec_module(self, module):
    # the loader's own load fails, as a missing shared library would make it; scipy's import later does not
    if module.__name__ == "scipy.optimize._lsap" and not failed:
        failed.append(module.__name__)
        raise ImportError("DLL load failed")
    return real(self, module)


importlib.machinery.ExtensionFileLoader.exec_module = exec_module
from gmedian import lsap
import scipy.optimize

assert failed and lsap.linear_sum_assignment is scipy.optimize.linear_sum_assignment
assert scipy.optimize._lsap is sys.modules["scipy.optimize._lsap"]
"""


def test_loader_falls_back_when_the_extension_fails_to_load():
    _run_python(FAILED_LOAD)


RETRIED_LOAD = """
import importlib.machinery
import sys

import numpy as np

real = importlib.machinery.ExtensionFileLoader.exec_module
failed = []


def exec_module(self, module):
    # the first bare load fails, as where the kernel's shared libraries are found only after scipy's set-up
    if module.__name__ == "scipy.optimize._lsap" and not failed:
        failed.append(module.__name__)
        raise ImportError("DLL load failed")
    return real(self, module)


importlib.machinery.ExtensionFileLoader.exec_module = exec_module
from gmedian import lsap

# the second load, after scipy's own set-up, still skips scipy.optimize
assert failed and "scipy" in sys.modules and "scipy.optimize" not in sys.modules, failed
assignment, objective = lsap.solve_lsap(np.array([[4.0, 1.0], [2.0, 3.0]]))
assert assignment.tolist() == [1, 0] and objective == 3.0
"""


def test_loader_retries_after_scipy_set_up():
    _run_python(RETRIED_LOAD)


TWICE_FAILED_LOAD = """
import importlib.machinery

real = importlib.machinery.ExtensionFileLoader.exec_module
failed = []


def exec_module(self, module):
    # both bare loads fail; the one inside scipy.optimize's import does not
    if module.__name__ == "scipy.optimize._lsap" and len(failed) < 2:
        failed.append(module.__name__)
        raise ImportError("DLL load failed")
    return real(self, module)


importlib.machinery.ExtensionFileLoader.exec_module = exec_module
from gmedian import lsap
import scipy.optimize

assert len(failed) == 2 and lsap.linear_sum_assignment is scipy.optimize.linear_sum_assignment
"""


def test_loader_falls_back_when_the_retry_fails_too():
    _run_python(TWICE_FAILED_LOAD)


RETRY_BRANCH = """
import sys

import numpy as np

from gmedian import lsap

real = lsap._load_kernel


def failing(times):
    calls = []

    def load():
        calls.append(None)
        if len(calls) <= times:
            raise ImportError("DLL load failed")
        return real()

    return calls, load


def solves_two_by_two(fn):
    rows, cols = fn(np.array([[4.0, 1.0], [2.0, 3.0]]))
    return rows.tolist() == [0, 1] and cols.tolist() == [1, 0]


# one failed load: scipy's set-up runs and the retry returns the kernel, still without scipy.optimize
calls, lsap._load_kernel = failing(1)
found = lsap._load_linear_sum_assignment()
assert len(calls) == 2 and "scipy" in sys.modules and "scipy.optimize" not in sys.modules
assert solves_two_by_two(found)

# two failed loads: the public function
calls, lsap._load_kernel = failing(2)
found = lsap._load_linear_sum_assignment()
import scipy.optimize

assert len(calls) == 2 and found is scipy.optimize.linear_sum_assignment
assert solves_two_by_two(found)
"""


def test_loader_retry_returns_the_kernel_then_the_public_function():
    _run_python(RETRY_BRANCH)
