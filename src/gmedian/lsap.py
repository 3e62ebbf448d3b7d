"""Exact linear sum assignment on the augmented substitution layout.

The augmented matrix for matching n source against n2 target vertices is
(n + n2) x (n2 + n): a substitution block, an n x n removal block that is
diagonal (off-diagonal cells hold +inf, which marks a forbidden cell), an
n2 x n2 diagonal insertion block, and an all-zero slack block. A solution
never selects a forbidden cell, however large the finite costs are.

:func:`solve_partial` solves the same problem on the substitution block
alone, once the removal and insertion costs are folded into it: a row is
paired with a column only where that pays, else removed.

Both call scipy's ``linear_sum_assignment`` (Crouse 2016). It is loaded
straight from its compiled module, ``scipy.optimize._lsap``, found through
scipy's directory, because importing ``scipy.optimize`` would also load
linprog, ``scipy.linalg`` and the rest of the package: several times the
import time and memory of this library. Nor does ``scipy/__init__.py``
run, unless the module fails to load without it: then scipy's package
set-up runs (on Windows wheels, it puts ``scipy.libs`` on the DLL search
path) and the load is tried once more. Where scipy lays out no such
module, or it still fails to load, the public function is used.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

__all__ = ["LsapError", "build_assignment_problem", "solve_lsap", "solve_partial"]


class LsapError(ValueError):
    """Malformed assignment problem or infeasible solve."""


def _load_kernel():
    """``linear_sum_assignment`` from ``scipy.optimize._lsap`` alone, or None where there is no such module.

    Raises ImportError or OSError where the module is found but fails to load.
    """
    scipy_spec = importlib.util.find_spec("scipy")  # finds the package, runs none of it
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    path = [os.path.join(p, "optimize") for p in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("scipy.optimize._lsap", path)
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        # a single-phase extension registers itself; a submodule without its package would
        # stop a later ``import scipy.optimize`` from binding it as an attribute
        sys.modules.pop(spec.name, None)
    return getattr(module, "linear_sum_assignment", None)


def _load_linear_sum_assignment():
    """scipy's ``linear_sum_assignment``, without running ``scipy/optimize/__init__.py``."""
    # once scipy.optimize is imported, its function costs nothing more
    if "scipy.optimize" not in sys.modules:
        try:
            found = _load_kernel()
        except (ImportError, OSError):  # say, a shared library it links is not found
            import scipy  # noqa: F401  its set-up only (on Windows wheels, the DLL search path)

            try:
                found = _load_kernel()
            except (ImportError, OSError):
                found = None
        if found is not None:
            return found
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


linear_sum_assignment = _load_linear_sum_assignment()


def build_assignment_problem(
    subst: np.ndarray, removal: np.ndarray, insertion: np.ndarray
) -> np.ndarray:
    """Assemble the square augmented matrix from per-block costs.

    ``subst`` is (n, n2); ``removal`` and ``insertion`` hold the diagonal
    entries of their blocks.
    """
    subst = np.asarray(subst, dtype=np.float64)
    if subst.ndim != 2:
        raise LsapError("substitution block must be a matrix")
    n, n2 = subst.shape
    removal = np.asarray(removal, dtype=np.float64)
    insertion = np.asarray(insertion, dtype=np.float64)
    if removal.shape != (n,) or insertion.shape != (n2,):
        raise LsapError("removal/insertion cost vectors do not match block sizes")
    c = np.zeros((n + n2, n2 + n))
    c[:n, :n2] = subst
    c[:n, n2:] = np.inf
    c[np.arange(n), n2 + np.arange(n)] = removal
    c[n:, :n2] = np.inf
    c[n + np.arange(n2), np.arange(n2)] = insertion
    return c


def solve_lsap(problem: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching: row i is assigned column assignment[i].

    ``problem`` is a square cost matrix, such as the one
    :func:`build_assignment_problem` returns; a +inf entry is a forbidden
    cell. The objective is the sum of the selected entries.
    """
    cost = np.asarray(problem, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise LsapError("cost matrix must be square")
    assignment = _assignment(cost)
    with np.errstate(over="ignore"):
        objective = float(cost[np.arange(len(assignment)), assignment].sum())
    if not math.isfinite(objective):  # no +inf cell is selected, so the sum overflowed
        raise LsapError("the optimal objective overflows float64")
    return assignment, objective


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The assignment of :func:`solve_lsap` for a square float64 ``cost``, without its objective."""
    if not (cost > -np.inf).all():  # false for NaN and -inf
        raise LsapError("cost matrix contains NaN or -inf entries")
    try:
        # for square input the rows come back as arange(n), so cols is the assignment
        _, cols = linear_sum_assignment(cost)
    except ValueError:  # scipy's "cost matrix is infeasible"
        raise LsapError("no feasible assignment avoids the +inf cells") from None
    return cols


def solve_partial(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost partial matching of the rows of an (n, n2) matrix to its columns.

    Row i is paired with column ``forward[i]``, or with none (``forward[i]
    == n2``); the objective is the sum of the paired entries, so a pair is
    kept only where its entry is negative, and a zero entry stays unpaired.
    """
    if not np.isfinite(cost).all():
        raise LsapError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(np.minimum(cost, 0.0))
    keep = cost[rows, cols] < 0
    if len(rows) == cost.shape[0]:  # n <= n2: scipy assigns every row, in order
        return np.where(keep, cols, cost.shape[1])
    forward = np.full(cost.shape[0], cost.shape[1], dtype=np.int64)
    forward[rows[keep]] = cols[keep]
    return forward
