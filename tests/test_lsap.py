"""Linear assignment solving and the augmented square layout."""

import itertools

import numpy as np
import pytest

from gmedian import LsapError, build_assignment_problem, solve_lsap
from gmedian.lsap import solve_partial

from oracles import brute_lsap


def test_tiny_examples():
    assignment, objective = solve_lsap(np.array([[4.0]]))
    assert assignment.tolist() == [0] and objective == 4.0
    assignment, objective = solve_lsap(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert assignment.tolist() == [1, 0]
    assert objective == 3.0


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
