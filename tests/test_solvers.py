"""Edit-distance solvers: exact enumeration, assignment bound, refinement."""

import copy
import itertools
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gmedian import (
    METHODS,
    CostModelError,
    GedSolverConfig,
    GraphError,
    SolverError,
    build_assignment_problem,
    build_graph,
    ged_bipartite,
    ged_exact,
    make_cost_model,
    solve_ged,
    transformation_cost,
    transformation_from_forward,
)
from gmedian import solvers
from gmedian.costs import _map_cost, _stack_costs, forward_cost
from gmedian.solvers import _incident_edge_matrix, _ipfp_refine, _QapForm, _random_maximal_forward

from oracles import (
    all_forwards,
    brute_lsap,
    dense_quad,
    direct_transformation_cost,
    oracle_ged,
    random_forward,
    random_graph,
    start_matrix,
)


@pytest.fixture
def pair():
    g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
    g2 = build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)])
    return g, g2


def test_exact_on_example(pair):
    g, g2 = pair
    model = make_cost_model()
    result = ged_exact(model, g, g2)
    expected_cost, expected_forward = oracle_ged(model, g, g2)
    assert result.cost == pytest.approx(expected_cost)
    assert tuple(result.transformation.forward.tolist()) == expected_forward
    assert result.is_exact


def test_exact_matches_oracle_random():
    rng = np.random.default_rng(21)
    model = make_cost_model()
    for _ in range(60):
        n, n2 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        g = random_graph(rng, n)
        g2 = random_graph(rng, n2)
        result = ged_exact(model, g, g2)
        expected_cost, expected_forward = oracle_ged(model, g, g2)
        assert result.cost == pytest.approx(expected_cost)
        assert tuple(result.transformation.forward.tolist()) == expected_forward


def _vector_model():
    with pytest.warns(RuntimeWarning):
        return make_cost_model("vector", "none", c_vr=0.9, c_vi=0.9, c_er=1.7, c_ei=1.7)


def _ranking_settings():
    """(model, graph kwargs) for the default label model, a non-dyadic label model and a vector model."""
    # constants with no exact binary form: summing them in another order moves costs by an ulp
    non_dyadic = make_cost_model(c_vs=0.1, c_es=0.1, c_vr=0.3, c_vi=0.2, c_er=0.3, c_ei=0.7)
    vector = {"vertex_mode": "vector", "edge_mode": "none"}
    return [(make_cost_model(), {}), (non_dyadic, {}), (_vector_model(), vector)]


def test_exact_ranks_maps_by_forward_cost():
    for model, kwargs in _ranking_settings():
        rng = np.random.default_rng(0)
        for _ in range(150):
            n, n2 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            g = random_graph(rng, n, **kwargs)
            g2 = random_graph(rng, n2, **kwargs)
            result = ged_exact(model, g, g2)
            expected = min(
                (forward_cost(model, np.asarray(f, dtype=np.int64), g, g2), tuple(f)) for f in all_forwards(n, n2)
            )
            assert (result.cost, tuple(result.transformation.forward.tolist())) == expected


def test_stack_costs_equal_forward_cost_bit_for_bit():
    for model, kwargs in _ranking_settings():
        rng = np.random.default_rng(30)
        for n, n2 in itertools.product(range(5), repeat=2):
            # vectors of width 3 put up to 12 coordinates in one map's sum
            g = random_graph(rng, n, **kwargs, dim=3)
            g2 = random_graph(rng, n2, **kwargs, dim=3)
            for k in range(min(n, n2) + 1):
                for subset in itertools.combinations(range(n), k):
                    sources = np.array(subset, dtype=np.int64)
                    stack = list(itertools.permutations(range(n2), k))
                    images = np.array(stack, dtype=np.int64).reshape(len(stack), k)
                    for row, cost in zip(images, _stack_costs(model, sources, images, g, g2)):
                        forward = np.full(n, n2, dtype=np.int64)
                        forward[sources] = row
                        assert cost == forward_cost(model, forward, g, g2), (model, forward)


def test_exact_vector_cost_is_its_maps_forward_cost():
    # by forward_cost, [0, 1, 2] costs 1 ulp more than [2, 1, 0]; summed per vertex first, it did not
    model = _vector_model()
    g = build_graph(3, [[0.1, 0.0], [0.0, 0.0], [0.1, 0.0]], [(0, 1), (1, 2)], edge_labels=False)
    h = build_graph(3, [[0.0, 0.2], [0.2, 0.2], [0.0, 0.1]], [(0, 1), (1, 2)], edge_labels=False)
    assert forward_cost(model, np.array([0, 1, 2]), g, h) == 0.15000000000000005
    result = ged_exact(model, g, h)
    assert result.cost == forward_cost(model, np.array([2, 1, 0]), g, h) == 0.15000000000000002
    assert result.transformation.forward.tolist() == [2, 1, 0]
    assert result.is_exact


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("widths", [(1, 2), (2, 1), (2, 3)], ids=["1-2", "2-1", "2-3"])
def test_every_method_rejects_vectors_of_unequal_width(widths, method):
    model = _vector_model()
    g = build_graph(2, np.zeros((2, widths[0])), [(0, 1)], edge_labels=False)
    g2 = build_graph(3, np.ones((3, widths[1])), [(1, 2)], edge_labels=False)
    with pytest.raises(CostModelError, match="vector substitution needs two equal-length vectors"):
        solve_ged(model, g, g2, GedSolverConfig(method=method, multistart_count=2))


@pytest.mark.parametrize("method", METHODS)
def test_every_method_names_one_overflowing_vertex_pair(method):
    # finite coordinates whose squared distance, 4e400, is beyond float64
    model = _vector_model()
    g = build_graph(2, [[1e200, 0.0], [0.0, 0.0]], edge_labels=False)
    g2 = build_graph(2, [[-1e200, 0.0], [0.0, 0.0]], edge_labels=False)
    message = "squared distance between vertex vectors [1e+200, 0.0] and [-1e+200, 0.0] overflows"
    with pytest.raises(GraphError, match=re.escape(message)):
        solve_ged(model, g, g2, GedSolverConfig(method=method, multistart_count=2))


def test_exact_runs_in_bounded_memory():
    rng = np.random.default_rng(29)
    g = random_graph(rng, 7)
    g2 = random_graph(rng, 7)
    model = make_cost_model()
    tracemalloc.start()
    try:
        result = ged_exact(model, g, g2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 130,922 maps of order 7 scored in one pass would take over 50 MB
    assert peak < 8 * 2**20
    assert result.cost == pytest.approx(direct_transformation_cost(model, result.transformation, g, g2))


def test_exact_self_distance_is_zero():
    rng = np.random.default_rng(22)
    model = make_cost_model()
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(1, 5)))
        r = ged_exact(model, g, g)
        assert r.cost == 0.0
        assert r.transformation.forward.tolist() == list(range(g.order))


def test_exact_order_cap(pair):
    g, _ = pair
    big = random_graph(np.random.default_rng(0), 9)
    model = make_cost_model()
    with pytest.raises(SolverError, match="cap"):
        ged_exact(model, g, big)


def _map_value(form, forward):
    """Relaxed objective of ``form`` at the map ``forward``."""
    x = form.rows[forward]
    return form.c0 + float(np.vdot(form.linear, x) + 0.5 * np.vdot(x, form.product(forward)))


def test_quadratic_form_matches_direct_cost():
    rng = np.random.default_rng(23)
    model = make_cost_model(c_vs=2.0, c_es=1.5, c_vr=2.5, c_vi=3.0, c_er=2.0, c_ei=3.5)
    for _ in range(80):
        n, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = random_graph(rng, n)
        g2 = random_graph(rng, n2)
        form = _QapForm(model, g, g2)
        for _ in range(4):
            forward = np.asarray(random_forward(rng, n, n2), dtype=np.int64)
            t = transformation_from_forward(forward, n, n2)
            # dyadic constants: every term is exact
            assert _map_value(form, forward) == direct_transformation_cost(model, t, g, g2), forward


def test_quadratic_form_unlabeled_edges():
    rng = np.random.default_rng(24)
    model = make_cost_model(edge_mode="none", c_er=2.0, c_ei=1.0)
    for _ in range(40):
        n, n2 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        g = random_graph(rng, n, edge_mode="none")
        g2 = random_graph(rng, n2, edge_mode="none")
        form = _QapForm(model, g, g2)
        forward = np.asarray(random_forward(rng, n, n2), dtype=np.int64)
        t = transformation_from_forward(forward, n, n2)
        assert _map_value(form, forward) == direct_transformation_cost(model, t, g, g2)


def _model_and_graph_kwargs(setting):
    if setting == "default":
        return make_cost_model(), {"edge_values": (1, 2, 3)}
    if setting == "non-dyadic":
        # constants with no exact binary form: relaxed values and true costs differ by rounding
        model = make_cost_model(c_vs=0.1, c_es=0.1, c_vr=0.3, c_vi=0.2, c_er=0.3, c_ei=0.7)
        return model, {"edge_values": (1, 2, 3)}
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none")
    return model, {"vertex_mode": "vector", "edge_mode": "none"}


@pytest.mark.parametrize("setting", ["default", "non-dyadic", "vector"])
def test_reduced_form_matches_dense_augmented_oracle(setting):
    """Value and gradient over the substitution block equal the augmented (n + n2)^2 relaxation's."""
    model, kwargs = _model_and_graph_kwargs(setting)
    rng = np.random.default_rng(28)
    for n in range(6):
        for n2 in range(6):
            g = random_graph(rng, n, **kwargs)
            g2 = random_graph(rng, n2, **kwargs)
            form = _QapForm(model, g, g2)
            q = dense_quad(model, g, g2)
            assert np.array_equal(q, q.T)
            linear = build_assignment_problem(
                form.subst, np.full(n, model.c_vr), np.full(n2, model.c_vi)
            )
            linear[np.isinf(linear)] = 0.0  # forbidden cells, where no point of the relaxation has mass
            N = n + n2
            maps = [np.asarray(random_forward(rng, n, n2), dtype=np.int64) for _ in range(3)]
            weights = rng.dirichlet(np.ones(len(maps)))
            x_aug = sum(w * start_matrix(transformation_from_forward(f, n, n2)) for w, f in zip(weights, maps))
            grad_aug = linear + (q @ x_aug.ravel()).reshape(N, N)
            value_aug = float(np.vdot(linear, x_aug) + 0.5 * np.vdot(x_aug, grad_aug - linear))
            # the reduced form at the same point, its product carried by linearity as IPFP does
            x = sum(w * form.rows[f] for w, f in zip(weights, maps))
            hx = sum(w * form.product(f) for w, f in zip(weights, maps))
            grad = form.linear + hx
            value = form.c0 + float(np.vdot(form.linear, x) + 0.5 * np.vdot(x, hx))
            assert value == pytest.approx(value_aug, rel=1e-12, abs=1e-12)
            # the slack block carries no gradient; a substitution cell moves mass off its removal and insertion cells
            assert not grad_aug[n:, n2:].any()
            rows, cols = np.arange(n), np.arange(n2)
            reduced_aug = grad_aug[:n, :n2] - grad_aug[rows, n2 + rows][:, None] - grad_aug[n + cols, cols][None, :]
            np.testing.assert_allclose(grad, reduced_aug, rtol=1e-12, atol=1e-12)


def test_ipfp_takes_one_permutation_product_per_step(monkeypatch):
    calls = {"product": 0, "lsap": 0, "partial": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_QapForm, "product", counted("product", _QapForm.product))
    monkeypatch.setattr(solvers.lsap, "_assignment", counted("lsap", solvers.lsap._assignment))
    monkeypatch.setattr(solvers.lsap, "solve_partial", counted("partial", solvers.lsap.solve_partial))
    model, pairs = _pinned_pairs("label")
    # of the 7 starts of this pair, the last begins at a map an earlier start landed on and walked on
    # from; 3 others land on such a map and stop there; the other 3 stop on the gap before the
    # iteration cap, 2 of them off a map
    g, g2 = pairs[2]
    r = solve_ged(model, g, g2, GedSolverConfig(method="mipfp", multistart_count=6, rng_seed=5))
    assert (r.cost, tuple(r.transformation.forward.tolist())) == PINNED["label", "mipfp"][2][:2]
    walked, explored_stops, off_map = 1 + 6 - 1, 3, 2
    # one augmented LSAP for the bipartite start; per walked start, one product and one partial
    # matching per step; one more matching finding no descent for a start that stops on the gap,
    # and a projection only for a start that ends off a map
    steps = calls["partial"] - (walked - explored_stops) - off_map
    assert calls["product"] == walked + steps
    assert calls == {"product": 21, "lsap": 1, "partial": 20}


def test_ipfp_stops_before_the_cap(monkeypatch):
    products = [0]
    product = _QapForm.product

    def counted(form, forward):
        products[0] += 1
        return product(form, forward)

    monkeypatch.setattr(_QapForm, "product", counted)
    model, pairs = _pinned_pairs("label")
    config = GedSolverConfig(method="mipfp", multistart_count=6, rng_seed=5)
    for (g, g2), pinned, expected in zip(pairs, PINNED["label", "mipfp"], (88, 132)):
        counts = []
        for cap in (50, 100_000):
            products[0] = 0
            monkeypatch.setattr(solvers, "_IPFP_MAX_ITERS", cap)
            r = solve_ged(model, g, g2, config)
            assert (r.cost, tuple(r.transformation.forward.tolist())) == pinned[:2]
            counts.append(products[0])
        # the relative stop ends every start before either cap
        assert counts == [expected, expected]


def test_mipfp_memory_does_not_grow_with_the_start_count():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 12)
    g2 = random_graph(rng, 12)
    model = make_cost_model()
    peaks = []
    for starts in (200, 1000):
        tracemalloc.start()
        try:
            solve_ged(model, g, g2, GedSolverConfig(method="mipfp", multistart_count=starts))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # keeping every visited map would add about 2.4 KB per start
    assert peaks[1] < peaks[0] + 2**17, peaks


def test_selection_prices_few_maps(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _map_cost(*args)

    monkeypatch.setattr(solvers, "_map_cost", counted)
    model, pairs = _pinned_pairs("label")
    g, g2 = pairs[2]
    r = solve_ged(model, g, g2, GedSolverConfig(method="mipfp", multistart_count=6, rng_seed=5))
    assert (r.cost, tuple(r.transformation.forward.tolist())) == PINNED["label", "mipfp"][2][:2]
    # maps whose relaxed value is beyond the lowest one, or beyond the best cost once the maps near
    # the lowest are priced, and the best map again, are not priced; pricing every distinct visited
    # map once would take 13 calls
    assert calls[0] == 5


def test_gap_stop_on_the_current_map_yields_it_once(pair):
    g, _ = pair
    form = _QapForm(make_cost_model(), g, g)
    # the identity is a strict local optimum of a graph against itself: the first matching is the
    # start again, and the gap stop finds no descent from it
    visited = [(forward.tolist(), value) for forward, value in _ipfp_refine(form, np.arange(g.order))]
    assert visited == [([0, 1, 2, 3], 0.0)]


def test_ipfp_yields_every_map_its_matchings_reach(monkeypatch):
    reached = []
    solve_partial = solvers.lsap.solve_partial

    def recorded(cost):
        forward = solve_partial(cost)
        reached.append(tuple(forward.tolist()))
        return forward

    monkeypatch.setattr(solvers.lsap, "solve_partial", recorded)
    model = make_cost_model()
    rng = np.random.default_rng(3)
    for _ in range(20):
        g, g2 = (random_graph(rng, int(rng.integers(3, 8)), edge_values=(1, 2, 3)) for _ in range(2))
        form = _QapForm(model, g, g2)
        for _ in range(5):
            reached.clear()
            refine = _ipfp_refine(form, _random_maximal_forward(rng, g.order, g2.order))
            visited = {tuple(forward.tolist()) for forward, _ in refine}
            # a gap stop on a new map yields it even after a full step
            assert set(reached) <= visited


NUMPY_MA_STAYS_UNLOADED = """
import sys

import numpy.random  # random starts draw from it

if "numpy.ma" in sys.modules:  # an older numpy loads it at import
    sys.exit(3)

from gmedian import DescentConfig, GedSolverConfig, build_graph, compute_median, make_cost_model, solve_ged

model = make_cost_model()
g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
g2 = build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)])
g3 = build_graph(3, [1, 3, 2], [(0, 1, 1), (1, 2, 3)])
for method in ("ipfp", "mipfp"):
    solve_ged(model, g, g2, GedSolverConfig(method=method, multistart_count=3))
config = DescentConfig(GedSolverConfig("mbipartite", 2), GedSolverConfig("mipfp", 2))
compute_median(model, [g, g2, g3], config)
loaded = sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"])
assert not loaded, loaded
"""


def test_solves_and_medians_load_no_numpy_ma():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_STAYS_UNLOADED], env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode == 3:
        pytest.skip("this numpy loads numpy.ma at import")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("setting", ["default", "non-dyadic", "vector"])
def test_screened_selection_equals_pricing_every_visited_map(setting):
    model, kwargs = _model_and_graph_kwargs(setting)
    # under the non-dyadic model this stream holds a tie that a zero margin would select wrongly
    rng = np.random.default_rng(37)
    for i in range(60):
        g = random_graph(rng, int(rng.integers(0, 8)), **kwargs)
        g2 = g if i % 4 == 0 else random_graph(rng, int(rng.integers(0, 8)), **kwargs)
        form = _QapForm(model, g, g2)
        starts = [solvers._bipartite_forward(form)]
        starts += [_random_maximal_forward(rng, g.order, g2.order) for _ in range(4)]
        visited = [v for f in starts for v in solvers._ipfp_refine(form, f)]
        for forward, value in visited:
            if value is not None and setting == "default":
                # integer constants: every term of the relaxed value is exact
                assert value == forward_cost(model, forward, g, g2)
            elif value is not None:
                assert value == pytest.approx(forward_cost(model, forward, g, g2), rel=1e-12, abs=1e-12)
        every = min((forward_cost(model, forward, g, g2), tuple(forward.tolist())) for forward, _ in visited)
        assert form.cheapest(visited) == every
        assert form.cheapest((forward, None) for forward in starts) == min(
            (forward_cost(model, forward, g, g2), tuple(forward.tolist())) for forward in starts
        )
    # a relaxed value that overflowed says nothing of its map's cost: neither an infinite value that
    # would screen out the cheapest map nor a -inf that would screen out every other map hides it
    g = random_graph(rng, 6, **kwargs)
    g2 = random_graph(rng, 5, **kwargs)
    form = _QapForm(model, g, g2)
    maps = [_random_maximal_forward(rng, g.order, g2.order) for _ in range(8)]
    priced = sorted((forward_cost(model, forward, g, g2), tuple(forward.tolist()), k) for k, forward in enumerate(maps))
    first, second = priced[0][2], priced[1][2]
    for overflowed in ({first: np.inf}, {second: -np.inf}, {first: np.inf, second: -np.inf}):
        visited = [(maps[k], overflowed.get(k, cost)) for cost, _, k in priced]
        assert form.cheapest(visited) == priced[0][:2]
    # the screen's margin follows the pair's scale: at c0 = 1.38e9 both tied maps' relaxed values read
    # 2.1457672119140625e-06, 1.46e-7 above their cost of 2e-6, and the tie rule picks [2, 1, 3, 0]
    g = build_graph(4, [2, 1, 2, 1], [(0, 3, 1), (1, 2, 1), (1, 3, 1)])
    g2 = build_graph(4, [1, 2, 1, 2], [(0, 1, 1), (0, 2, 1), (1, 3, 1)])
    big = 98765432.1
    model = make_cost_model(c_vs=1e-6, c_es=1e-6, c_vr=big, c_vi=big, c_er=big, c_ei=big)
    for count in (6, 40):
        result = solve_ged(model, g, g2, GedSolverConfig(method="mipfp", multistart_count=count, rng_seed=0))
        assert result.transformation.forward.tolist() == [2, 1, 3, 0]
        assert result.cost == forward_cost(model, np.array([3, 0, 2, 1]), g, g2) == 2e-6
    # the visits of the 6-start solve, whose starts share their explored maps
    form, rng, explored = _QapForm(model, g, g2), np.random.default_rng(0), set()
    starts = [solvers._bipartite_forward(form)] + [_random_maximal_forward(rng, 4, 4) for _ in range(6)]
    visited = [v for f in starts for v in _ipfp_refine(form, f, explored)]
    every = min((forward_cost(model, f, g, g2), tuple(f.tolist())) for f, _ in visited)
    assert form.cheapest(visited) == every


def test_explored_maps_stay_within_the_cap_and_select_what_fresh_sets_select(monkeypatch):
    model = make_cost_model()
    rng = np.random.default_rng(39)
    capped = 0  # pairs whose starts would have explored more maps than the cap
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(2, 9)))
        g2 = random_graph(rng, int(rng.integers(2, 9)))
        form = _QapForm(model, g, g2)
        starts = [_random_maximal_forward(rng, g.order, g2.order) for _ in range(8)]
        uncapped = set()
        for f in starts:
            list(_ipfp_refine(form, f, uncapped))
        capped += len(uncapped) > 3
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_EXPLORED_MAPS", 3)
            explored, shared = set(), []
            for f in starts:
                shared += _ipfp_refine(form, f, explored)
                assert len(explored) <= 3
            assert form.cheapest(shared) == form.cheapest(v for f in starts for v in _ipfp_refine(form, f))
    assert capped


@pytest.mark.parametrize("setting", ["default", "non-dyadic", "vector"])
def test_starts_sharing_explored_maps_select_the_same_map_for_fewer_products(setting, monkeypatch):
    products = [0]
    product = _QapForm.product

    def counted(form, forward):
        products[0] += 1
        return product(form, forward)

    monkeypatch.setattr(_QapForm, "product", counted)
    model, kwargs = _model_and_graph_kwargs(setting)
    rng = np.random.default_rng(38)
    totals = {"shared": 0, "fresh": 0}
    for _ in range(300):
        g = random_graph(rng, int(rng.integers(0, 9)), **kwargs)
        g2 = random_graph(rng, int(rng.integers(0, 9)), **kwargs)
        form = _QapForm(model, g, g2)
        starts = [_random_maximal_forward(rng, g.order, g2.order) for _ in range(6)]
        counts = {}
        for run in totals:
            products[0] = 0
            explored = set() if run == "shared" else None  # None: each start walks with a fresh set
            best = form.cheapest(v for f in starts for v in _ipfp_refine(form, f, explored))
            counts[run] = (best, products[0])
            totals[run] += products[0]
        assert counts["shared"][0] == counts["fresh"][0]
        assert counts["shared"][1] <= counts["fresh"][1]
    # starts do meet on walked maps, so the set is exercised
    assert totals["shared"] < totals["fresh"], totals


def test_mipfp_order_50_runs_in_bounded_memory():
    rng = np.random.default_rng(27)
    g = random_graph(rng, 50, p_edge=0.1)
    g2 = random_graph(rng, 50, p_edge=0.1)
    model = make_cost_model()
    tracemalloc.start()
    try:
        result = solve_ged(model, g, g2, GedSolverConfig(method="mipfp", multistart_count=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense (N^2 x N^2) form alone would take 800 MB at N = 100
    assert peak < 50 * 2**20
    assert result.cost <= ged_bipartite(model, g, g2).cost
    assert result.cost == pytest.approx(direct_transformation_cost(model, result.transformation, g, g2))


def test_random_starts_are_drawn_as_they_are_used():
    rng = np.random.default_rng(28)
    g = random_graph(rng, 3)
    g2 = random_graph(rng, 3)
    model = make_cost_model()
    tracemalloc.start()
    try:
        result = solve_ged(model, g, g2, GedSolverConfig(method="mbipartite", multistart_count=20_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a list of every start would hold about 150 B per start
    assert peak < 2**20
    assert result.cost == ged_exact(model, g, g2).cost


def test_bipartite_upper_bound(pair):
    g, g2 = pair
    model = make_cost_model()
    exact = ged_exact(model, g, g2)
    upper = ged_bipartite(model, g, g2)
    assert upper.cost >= exact.cost - 1e-12
    # the reported cost is the true cost of the returned map
    assert upper.cost == pytest.approx(
        transformation_cost(model, upper.transformation, g, g2)
    )


@pytest.mark.parametrize(
    "c_es, c_er, c_ei",
    [(0.0, 2.0, 3.0), (5.0, 2.0, 3.0), (1.5, 1.0, 3.5)],
    ids=["c_es=0", "c_es=c_er+c_ei", "c_er!=c_ei"],
)
def test_bipartite_edge_matrix_matches_brute_force(c_es, c_er, c_ei):
    """Each closed-form cell equals the optimal assignment of the incident edges."""
    rng = np.random.default_rng(28)
    model = make_cost_model(c_es=c_es, c_er=c_er, c_ei=c_ei)
    for _ in range(12):
        g = random_graph(rng, int(rng.integers(0, 5)), edge_values=(1, 2, 3))
        g2 = random_graph(rng, int(rng.integers(0, 5)), edge_values=(1, 2, 3))
        matrix = _incident_edge_matrix(model, g, g2)
        assert matrix.shape == (g.order, g2.order)
        for i in range(g.order):
            l1 = np.array([g.edge_attrs[i, j] for j in range(g.order) if g.adjacency[i, j]])
            for k in range(g2.order):
                l2 = np.array([g2.edge_attrs[k, l] for l in range(g2.order) if g2.adjacency[k, l]])
                subst = c_es * (l1.reshape(-1, 1) != l2.reshape(1, -1))
                c = build_assignment_problem(subst, np.full(len(l1), c_er), np.full(len(l2), c_ei))
                assert matrix[i, k] == brute_lsap(c), (i, k)


def test_ipfp_never_worse_than_init():
    rng = np.random.default_rng(25)
    model = make_cost_model()
    for _ in range(30):
        n, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = random_graph(rng, n)
        g2 = random_graph(rng, n2)
        init = transformation_from_forward(random_forward(rng, n, n2), n, n2)
        init_cost = transformation_cost(model, init, g, g2)
        form = _QapForm(model, g, g2)
        cost, forward = form.cheapest(_ipfp_refine(form, init.forward))
        assert cost <= init_cost + 1e-9
        assert cost == pytest.approx(transformation_cost(model, transformation_from_forward(forward, n, n2), g, g2))


def test_solver_chain_ordering():
    rng = np.random.default_rng(26)
    model = make_cost_model()
    config = GedSolverConfig(multistart_count=8, rng_seed=3)
    for _ in range(25):
        n, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = random_graph(rng, n)
        g2 = random_graph(rng, n2)
        costs = {
            m: solve_ged(model, g, g2, GedSolverConfig(method=m, multistart_count=8, rng_seed=3)).cost
            for m in ("exact", "bipartite", "ipfp", "mbipartite", "mipfp")
        }
        assert costs["exact"] <= costs["mipfp"] + 1e-12
        assert costs["mipfp"] <= costs["ipfp"] + 1e-12
        assert costs["ipfp"] <= costs["bipartite"] + 1e-12
        assert costs["exact"] <= costs["mbipartite"] + 1e-12
        assert costs["mbipartite"] <= costs["bipartite"] + 1e-12


def test_multistart_deterministic(pair):
    g, g2 = pair
    model = make_cost_model()
    config = GedSolverConfig(method="mipfp", multistart_count=12, rng_seed=11)
    a = solve_ged(model, g, g2, config)
    b = solve_ged(model, g, g2, config)
    assert a.cost == b.cost
    assert a.transformation.forward.tolist() == b.transformation.forward.tolist()


def test_random_maximal_forward_shape():
    rng = np.random.default_rng(1)
    for n, n2 in [(0, 3), (3, 0), (4, 2), (2, 4), (3, 3)]:
        f = _random_maximal_forward(rng, n, n2)
        assert f.shape == (n,)
        sub = f[f < n2]
        assert len(set(sub.tolist())) == len(sub) == min(n, n2)


def test_solver_config_validation():
    with pytest.raises(SolverError):
        GedSolverConfig(method="nope")
    with pytest.raises(SolverError):
        GedSolverConfig(multistart_count=0)


@pytest.mark.parametrize(
    "field, value", [("multistart_count", 2.5), ("multistart_count", True), ("rng_seed", 1.5), ("rng_seed", False)]
)
def test_solver_config_rejects_a_setting_that_is_not_an_integer(field, value):
    with pytest.raises(SolverError, match=f"{field} must be an integer, got {value!r}"):
        GedSolverConfig(**{field: value})


def test_solver_config_takes_numpy_integers():
    config = GedSolverConfig(method="mipfp", multistart_count=np.int32(2), rng_seed=np.uint64(7))
    g, g2 = random_graph(np.random.default_rng(3), 4), random_graph(np.random.default_rng(4), 3)
    assert solve_ged(make_cost_model(), g, g2, config).cost >= 0


def test_result_and_its_map_survive_pickle_and_deepcopy():
    g, g2 = random_graph(np.random.default_rng(5), 5), random_graph(np.random.default_rng(6), 4)
    result = solve_ged(make_cost_model(), g, g2, GedSolverConfig(multistart_count=3))
    assert not hasattr(result, "__dict__") and not hasattr(result.transformation, "__dict__")
    t = result.transformation
    for read_reverse in (False, True):
        if read_reverse:
            t.reverse
        for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
            for u in (copy_of(t), copy_of(result).transformation):
                assert u is not t
                assert (u.source_order, u.target_order) == (5, 4)
                assert u.forward.tolist() == t.forward.tolist()
                assert u.reverse.tolist() == t.reverse.tolist()
                assert not u.forward.flags.writeable and not u.reverse.flags.writeable
            back = copy_of(result)
            assert (back.cost, back.is_exact) == (result.cost, result.is_exact)


def test_solver_config_rejects_a_negative_seed():
    with pytest.raises(SolverError, match="rng_seed must be non-negative, got -1"):
        GedSolverConfig(method="bipartite", rng_seed=-1)


def test_edge_constants_summing_beyond_float_range_on_an_edgeless_pair():
    # c_er + c_ei overflows, but no edge can be kept when one graph has none
    model = make_cost_model(c_er=1e308, c_ei=1e308)
    g = build_graph(3, [1, 2, 2], [(0, 1, 1)])
    g2 = build_graph(2, [1, 2], [], edge_labels=True)
    for a, b in ((g, g2), (g2, g)):
        forward = _random_maximal_forward(np.random.default_rng(0), a.order, b.order)
        form = _QapForm(model, a, b)
        assert form.cheapest(_ipfp_refine(form, forward))[0] == ged_exact(model, a, b).cost == 1e308


@pytest.mark.parametrize("method", METHODS)
def test_maps_whose_vertex_distances_overflow_in_sum_lose_without_warning(method):
    # every squared distance is 1.44e308: one substitution is finite, two overflow
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none")
    g = build_graph(2, [[0.0], [0.0]], edge_labels=False)
    g2 = build_graph(2, [[1.2e154], [-1.2e154]], edge_labels=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_ged(model, g, g2, GedSolverConfig(method=method))
    # removing and inserting every vertex, at 3 each
    assert result.cost == 12.0
    assert result.transformation.forward.tolist() == [2, 2]


def _label_pair_with_removal_cost_1e16():
    # removing two vertices at 1e16 each is cheaper than any other map
    return make_cost_model(c_vr=1e16), build_graph(3, [1, 2, 1], [(0, 1, 1)]), build_graph(1, [1], edge_labels=True)


def _vector_pair_at_distance_1e16():
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none", c_vr=1e17, c_vi=1e17)
    # squared distance 1e16: substituting beats removing and inserting
    return model, build_graph(1, [[0.0]]), build_graph(1, [[1e8]])


@pytest.mark.parametrize("pair", [_label_pair_with_removal_cost_1e16, _vector_pair_at_distance_1e16])
@pytest.mark.parametrize("method", ["bipartite", "mipfp"])
def test_bipartite_start_with_costs_above_1e15(pair, method):
    model, g, g2 = pair()
    exact = ged_exact(model, g, g2)
    # finite costs this large must not be mistaken for forbidden cells of the bipartite matrix
    assert exact.cost >= 1e16
    result = solve_ged(model, g, g2, GedSolverConfig(method=method, multistart_count=2))
    assert result.cost == exact.cost


def _bipartite_objective(form, forward):
    """The bipartite assignment objective of a map: paired cells plus unpaired removals and insertions."""
    model, g, g2, n2 = form.model, form.g, form.g2, form.n2
    subst = form.subst + 0.5 * _incident_edge_matrix(model, g, g2)
    removal = model.c_vr + 0.5 * model.c_er * g.degrees
    insertion = model.c_vi + 0.5 * model.c_ei * g2.degrees
    paired = [(i, k) for i, k in enumerate(forward) if k < n2]
    images = {k for _, k in paired}
    return (
        sum(subst[i, k] for i, k in paired)
        + sum(removal[i] for i, k in enumerate(forward) if k == n2)
        + sum(insertion[k] for k in range(n2) if k not in images)
    )


@pytest.mark.parametrize("setting", ["default", "non-dyadic"])
def test_bipartite_start_is_an_optimal_assignment(setting):
    model, kwargs = _model_and_graph_kwargs(setting)
    rng = np.random.default_rng(41)
    for n in range(6):
        for n2 in range(6):
            form = _QapForm(model, random_graph(rng, n, **kwargs), random_graph(rng, n2, **kwargs))
            got = _bipartite_objective(form, solvers._bipartite_forward(form).tolist())
            best = min(_bipartite_objective(form, f) for f in all_forwards(n, n2))
            if setting == "default":
                # integer constants and halves of them: every sum is exact
                assert got == best
            else:
                assert got == pytest.approx(best, rel=1e-12)


def test_empty_graph_pairs():
    model = make_cost_model()
    empty = build_graph(0, [], edge_labels=True)
    g = build_graph(2, [1, 2], [(0, 1, 1)])
    for method in ("exact", "bipartite", "ipfp", "mbipartite", "mipfp"):
        r = solve_ged(model, empty, g, GedSolverConfig(method=method, multistart_count=2))
        assert r.cost == pytest.approx(2 * 3.0 + 3.0)
        r = solve_ged(model, g, empty, GedSolverConfig(method=method, multistart_count=2))
        assert r.cost == pytest.approx(2 * 3.0 + 3.0)
        r = solve_ged(model, empty, empty, GedSolverConfig(method=method, multistart_count=2))
        assert r.cost == 0.0


# (cost, forward, is_exact) per pair, recorded from the per-method solvers that preceded the shared pipeline;
# every method reports a pair with an empty side, which has one map, as exact
PINNED = {
    ("label", "exact"): [(12.5, (4, 5, 1, 0, 3, 2), True), (25.5, (0, 2, 3, 5, 4), True), (27.0, (2, 3, 0), True)],
    ("label", "bipartite"): [(19.5, (4, 0, 5, 3, 2, 1), False), (33.0, (3, 1, 2, 4, 5), False), (31.0, (1, 3, 0), False)],
    ("label", "ipfp"): [(13.5, (2, 0, 5, 3, 4, 1), False), (27.0, (3, 2, 0, 4, 5), False), (27.0, (2, 3, 0), False)],
    ("label", "mbipartite"): [(18.5, (2, 4, 3, 1, 5, 0), False), (33.0, (3, 1, 2, 4, 5), False), (27.0, (2, 3, 0), False)],
    ("label", "mipfp"): [(12.5, (4, 5, 1, 0, 3, 2), False), (25.5, (0, 2, 3, 5, 4), False), (27.0, (2, 3, 0), False)],
    ("vector", "exact"): [(23.24634, (2, 5, 1, 0, 4), True), (19.464163, (4, 2, 4, 3, 1, 0), True)],
    ("vector", "bipartite"): [(34.456042, (1, 2, 3, 0, 4), False), (24.769405, (4, 0, 4, 3, 1, 2), False)],
    ("vector", "ipfp"): [(24.520598, (1, 5, 0, 2, 4), False), (19.464163, (4, 2, 4, 3, 1, 0), False)],
    ("vector", "mbipartite"): [(32.300757, (0, 3, 1, 5, 2), False), (24.769405, (4, 0, 4, 3, 1, 2), False)],
    ("vector", "mipfp"): [(23.429388000000003, (4, 5, 1, 0, 2), False), (19.464163, (4, 2, 4, 3, 1, 0), False)],
    ("empty", "exact"): [(15.0, (), True), (15.0, (0, 0, 0), True), (0.0, (), True)],
    ("empty", "bipartite"): [(15.0, (), True), (15.0, (0, 0, 0), True), (0.0, (), True)],
    ("empty", "ipfp"): [(15.0, (), True), (15.0, (0, 0, 0), True), (0.0, (), True)],
    ("empty", "mbipartite"): [(15.0, (), True), (15.0, (0, 0, 0), True), (0.0, (), True)],
    ("empty", "mipfp"): [(15.0, (), True), (15.0, (0, 0, 0), True), (0.0, (), True)],
}


def _pinned_pairs(setting):
    if setting == "label":
        model = make_cost_model(c_vs=2.0, c_es=1.5, c_vr=2.5, c_vi=3.0, c_er=1.0, c_ei=3.5)
        rng = np.random.default_rng(35)
        sizes = ((6, 5), (5, 6), (3, 6))
        return model, [
            (random_graph(rng, n, edge_values=(1, 2, 3)), random_graph(rng, n2, edge_values=(1, 2, 3)))
            for n, n2 in sizes
        ]
    if setting == "vector":
        with pytest.warns(RuntimeWarning):
            model = make_cost_model(vertex_mode="vector", edge_mode="none")
        rng = np.random.default_rng(33)
        sizes = ((5, 6), (6, 4))
        return model, [
            (
                random_graph(rng, n, vertex_mode="vector", edge_mode="none"),
                random_graph(rng, n2, vertex_mode="vector", edge_mode="none"),
            )
            for n, n2 in sizes
        ]
    empty = build_graph(0, [], edge_labels=True)
    g = build_graph(3, [1, 2, 2], [(0, 1, 1), (1, 2, 2)])
    return make_cost_model(), [(empty, g), (g, empty), (empty, empty)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("setting", ["label", "vector", "empty"])
def test_solver_results_pinned(setting, method):
    """Costs and maps compare with ``==``; random starts and IPFP each change some result here."""
    model, pairs = _pinned_pairs(setting)
    config = GedSolverConfig(method=method, multistart_count=6, rng_seed=5)
    got = []
    for g, g2 in pairs:
        r = solve_ged(model, g, g2, config)
        got.append((r.cost, tuple(r.transformation.forward.tolist()), r.is_exact))
    assert got == PINNED[setting, method]


@pytest.mark.parametrize("method", ["bipartite", "ipfp", "mbipartite", "mipfp"])
def test_one_solve_builds_one_transformation(monkeypatch, method):
    calls = {"transformation": 0, "subst": 0, "check": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        solvers, "transformation_from_forward", counted("transformation", transformation_from_forward)
    )
    monkeypatch.setattr(solvers, "_vertex_subst_matrix", counted("subst", solvers._vertex_subst_matrix))
    monkeypatch.setattr(solvers, "check_model_compatible", counted("check", solvers.check_model_compatible))
    model, pairs = _pinned_pairs("label")
    g, g2 = pairs[0]
    solve_ged(model, g, g2, GedSolverConfig(method=method, multistart_count=6))
    assert calls == {"transformation": 1, "subst": 1, "check": 1}


def test_vector_mode_solvers():
    rng = np.random.default_rng(27)
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none")
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(1, 4)), vertex_mode="vector", edge_mode="none")
        g2 = random_graph(rng, int(rng.integers(1, 4)), vertex_mode="vector", edge_mode="none")
        exact = ged_exact(model, g, g2)
        expected_cost, _ = oracle_ged(model, g, g2)
        assert exact.cost == pytest.approx(expected_cost)
        upper = ged_bipartite(model, g, g2)
        assert upper.cost >= exact.cost - 1e-9
