"""Edit cost models and transformation cost evaluation."""

import re
import warnings

import numpy as np
import pytest

from gmedian import (
    CostModel,
    CostModelError,
    GedSolverConfig,
    GraphError,
    LabelDelta,
    SolverError,
    SquaredEuclidean,
    ZeroCost,
    build_graph,
    compute_median,
    make_cost_model,
    solve_ged,
    transformation_cost,
    transformation_from_forward,
)
from gmedian import median
from gmedian.costs import check_model_compatible, forward_cost

from oracles import (
    direct_edge_cost,
    direct_transformation_cost,
    direct_vertex_cost,
    random_forward,
    random_graph,
)


@pytest.fixture
def pair():
    g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
    g2 = build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)])
    return g, g2


def test_example_costs(pair):
    g, g2 = pair
    t = transformation_from_forward([0, 2, 1, 3], 4, 3)
    model = make_cost_model()
    assert transformation_cost(model, t, g, g2) == 15.0


def test_example_costs_match_oracle(pair):
    g, g2 = pair
    t = transformation_from_forward([0, 2, 1, 3], 4, 3)
    model = make_cost_model()
    assert direct_vertex_cost(model, t, g.vertex_attrs, g2.vertex_attrs) == 3.0
    assert direct_edge_cost(model, t, g, g2) == 24.0
    assert direct_transformation_cost(model, t, g, g2) == 15.0


def test_default_constants():
    model = make_cost_model()
    assert isinstance(model.vertex_subst, LabelDelta) and model.vertex_subst.cost == 1.0
    assert isinstance(model.edge_subst, LabelDelta) and model.edge_subst.cost == 1.0
    assert (model.c_vr, model.c_vi, model.c_er, model.c_ei) == (3.0, 3.0, 3.0, 3.0)


def test_triangle_guard():
    with pytest.raises(CostModelError, match="exceeds"):
        make_cost_model(c_vs=7.0, c_vr=3.0, c_vi=3.0)
    with pytest.raises(CostModelError, match="exceeds"):
        make_cost_model(c_es=10.0, c_er=3.0, c_ei=3.0)
    with pytest.raises(CostModelError, match="negative"):
        make_cost_model(c_vr=-1.0)
    # boundary: equality is allowed
    make_cost_model(c_vs=6.0, c_vr=3.0, c_vi=3.0)
    # the bound holds in exact arithmetic: 0.1 + 0.2 rounds to 0.30000000000000004 but is below it
    with pytest.raises(CostModelError, match="exceeds"):
        make_cost_model(c_es=0.30000000000000004, c_er=0.1, c_ei=0.2)
    with pytest.raises(CostModelError, match="exceeds"):
        make_cost_model(c_vs=0.30000000000000004, c_vr=0.1, c_vi=0.2)
    make_cost_model(c_es=0.3, c_er=0.1, c_ei=0.2)
    make_cost_model(c_vs=1.1, c_es=0.3, c_vr=0.7, c_vi=0.7, c_er=0.1, c_ei=0.2)
    make_cost_model(c_es=6, c_er=3, c_ei=3)


def test_squared_euclidean_warns():
    # the warning names the line that built the model
    with pytest.warns(RuntimeWarning) as record:
        make_cost_model(vertex_mode="vector")
    assert record[0].filename == __file__
    with pytest.warns(RuntimeWarning) as record:
        CostModel(1.0, 1.0, 1.0, 1.0, SquaredEuclidean(), ZeroCost())
    assert record[0].filename == __file__


def test_insertion_only_example():
    g = build_graph(0, [], edge_labels=True)
    g2 = build_graph(2, [1, 2], [(0, 1, 5)])
    t = transformation_from_forward([], 0, 2)
    model = make_cost_model()
    assert transformation_cost(model, t, g, g2) == 2 * 3.0 + 3.0  # two vertices, one edge


def test_removal_only_example():
    g = build_graph(2, [1, 2], [(0, 1, 5)])
    g2 = build_graph(0, [], edge_labels=True)
    t = transformation_from_forward([0, 0], 2, 0)
    model = make_cost_model()
    assert transformation_cost(model, t, g, g2) == 2 * 3.0 + 3.0


def test_cost_symmetry_under_symmetric_constants(pair):
    g, g2 = pair
    model = make_cost_model()
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = transformation_from_forward(random_forward(rng, g.order, g2.order), g.order, g2.order)
        fwd = transformation_cost(model, t, g, g2)
        back = transformation_cost(model, t.inverse(), g2, g)
        assert fwd == pytest.approx(back)


def test_cost_asymmetry_with_unequal_constants(pair):
    g, g2 = pair
    model = make_cost_model(c_vr=5.0, c_vi=1.0)
    t = transformation_from_forward([0, 1, 2, 3], 4, 3)  # one removal, no insertion
    back = transformation_cost(model, t.inverse(), g2, g)
    assert transformation_cost(model, t, g, g2) != back


def test_vectorized_costs_match_oracle_labels():
    rng = np.random.default_rng(7)
    model = make_cost_model(c_vs=2.0, c_es=1.5, c_vr=2.5, c_vi=3.0, c_er=2.0, c_ei=3.5)
    orders = [(int(rng.integers(0, 6)), int(rng.integers(0, 6))) for _ in range(150)]
    for n, n2 in orders + [(0, 0), (0, 4), (4, 0)]:
        g = random_graph(rng, n)
        g2 = random_graph(rng, n2)
        t = transformation_from_forward(random_forward(rng, n, n2), n, n2)
        # label costs are sums of multiples of the constants: exact equality
        assert transformation_cost(model, t, g, g2) == direct_transformation_cost(model, t, g, g2)
        assert forward_cost(model, t.forward, g, g2) == direct_transformation_cost(model, t, g, g2)


def test_vectorized_costs_match_oracle_vectors():
    rng = np.random.default_rng(8)
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none")
    for _ in range(100):
        n, n2 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        g = random_graph(rng, n, vertex_mode="vector", edge_mode="none")
        g2 = random_graph(rng, n2, vertex_mode="vector", edge_mode="none")
        t = transformation_from_forward(random_forward(rng, n, n2), n, n2)
        assert transformation_cost(model, t, g, g2) == pytest.approx(
            direct_transformation_cost(model, t, g, g2)
        )


def test_unattributed_edge_substitution_is_free():
    g = build_graph(2, [1, 1], [(0, 1)])
    g2 = build_graph(2, [1, 1], [(0, 1)])
    t = transformation_from_forward([0, 1], 2, 2)
    model = make_cost_model(edge_mode="none")
    assert transformation_cost(model, t, g, g2) == 0.0


def test_check_model_compatible():
    model = make_cost_model()
    check_model_compatible(model, build_graph(2, [1, 2], [(0, 1, 1)]))
    with pytest.raises(CostModelError):
        check_model_compatible(model, build_graph(1, [[1.0, 2.0]]))
    with pytest.raises(CostModelError):
        check_model_compatible(model, build_graph(2, [1, 2], [(0, 1)]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", ["c_vr", "c_vi", "c_er", "c_ei", "c_vs", "c_es"])
def test_non_finite_constants_are_rejected_by_name(name, value):
    with pytest.raises(CostModelError, match=f"{name} must be finite"):
        make_cost_model(**{name: value})


def test_non_finite_substitution_costs_are_rejected_on_direct_construction():
    with pytest.raises(CostModelError, match="vertex substitution cost"):
        CostModel(1.0, 1.0, 1.0, 1.0, LabelDelta(float("nan")), ZeroCost())
    with pytest.raises(CostModelError, match="edge substitution cost"):
        CostModel(1.0, 1.0, 1.0, 1.0, LabelDelta(0.5), LabelDelta(float("nan")))


@pytest.mark.parametrize("value", ["3", None, 1j, 10**400])
def test_a_constant_that_is_no_real_number_or_fits_no_float_is_rejected_by_name(value):
    for name in ("c_vr", "c_vi", "c_er", "c_ei", "c_vs", "c_es"):
        with pytest.raises(CostModelError, match=name):
            make_cost_model(**{name: value})


# in int64, this pair's costs under constants near 2**61 wrap; its exact map substitutes every vertex at cost 4
WRAP_PAIR = (build_graph(3, [1, 2, 3], [(0, 1, 1), (1, 2, 2)]), build_graph(3, [1, 2, 2], [(0, 1, 1)]))


def test_constants_are_stored_as_floats():
    g, g2 = WRAP_PAIR
    constants = dict(c_vs=1, c_es=True, c_vr=2**61, c_vi=np.int64(2**61), c_er=np.float32(3), c_ei=3)
    model = make_cost_model(**constants)
    stored = (model.vertex_subst.cost, model.edge_subst.cost, model.c_vr, model.c_vi, model.c_er, model.c_ei)
    assert [type(c) for c in stored] == [float] * 6
    assert stored == (1.0, 1.0, 2.0**61, 2.0**61, 3.0, 3.0)
    # integer constants price in float64, as float ones do, instead of wrapping in int64
    for model in (model, make_cost_model(**{key: float(value) for key, value in constants.items()})):
        result = solve_ged(model, g, g2, GedSolverConfig(method="exact"))
        assert result.cost == 4.0 and result.transformation.forward.tolist() == [0, 1, 2]


def test_integer_constants_that_overflow_in_sum_are_rejected_as_float_ones_are():
    g, g2 = WRAP_PAIR
    model = make_cost_model(c_vr=10**308, c_vi=10**308)
    for method in ("mipfp", "exact"):
        with pytest.raises(SolverError, match="overflows"):
            solve_ged(model, g, g2, GedSolverConfig(method=method))
    with pytest.raises(CostModelError, match="edit cost of the map overflows"):
        forward_cost(model, np.array([3, 3, 3]), g, g2)


def test_float32_constants_price_in_float64_without_warning():
    g, g2 = WRAP_PAIR
    tenths = dict(c_vs=0.1, c_es=0.1, c_vr=0.7, c_vi=0.7, c_er=0.3, c_ei=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = make_cost_model(**{key: np.float32(value) for key, value in tenths.items()})
        result = solve_ged(model, g, g2, GedSolverConfig(method="exact"))
        assert result.cost == forward_cost(model, result.transformation.forward, g, g2)


def test_cost_model_requires_known_modes():
    with pytest.raises(CostModelError):
        make_cost_model(vertex_mode="bogus")
    with pytest.raises(CostModelError):
        make_cost_model(edge_mode="bogus")


def test_direct_model_construction():
    model = CostModel(1.0, 1.0, 1.0, 1.0, LabelDelta(0.5), ZeroCost())
    assert model.vertex_mode == "label"
    assert model.edge_mode == "none"
    with pytest.raises(CostModelError):
        CostModel(1.0, 1.0, 1.0, 1.0, LabelDelta(0.5), SquaredEuclidean())
    with pytest.warns(RuntimeWarning):
        vec = CostModel(1.0, 1.0, 1.0, 1.0, SquaredEuclidean(), ZeroCost())
    assert vec.vertex_mode == "vector"


def test_overflowing_vector_distance_is_rejected_by_every_cost_function():
    # finite coordinates whose squared distance, 4e400, is beyond float64
    g = build_graph(2, [[1e200, 0.0], [0.0, 0.0]], edge_labels=False)
    g2 = build_graph(2, [[-1e200, 0.0], [0.0, 0.0]], edge_labels=False)
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none")
    t = transformation_from_forward([0, 1], 2, 2)
    message = r"squared distance between vertex vectors \[1e\+200, 0\.0\] and \[-1e\+200, 0\.0\] overflows"
    with pytest.raises(GraphError, match=message):
        transformation_cost(model, t, g, g2)
    with pytest.raises(GraphError, match=message):
        forward_cost(model, t.forward, g, g2)
    # a map that keeps the two far vertices apart still has a finite cost
    assert forward_cost(model, np.array([2, 1]), g, g2) == 6.0


def test_vector_distances_overflowing_in_sum_are_rejected_without_warning():
    # each squared distance, 1.44e308, is finite; their sum over the map [0, 1] is not
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none")
    g = build_graph(2, [[0.0], [0.0]], edge_labels=False)
    g2 = build_graph(2, [[1.2e154], [-1.2e154]], edge_labels=False)
    t = transformation_from_forward([0, 1], 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphError, match="sum of the squared vertex distances of the map overflows"):
            forward_cost(model, t.forward, g, g2)
        with pytest.raises(GraphError, match="sum of the squared vertex distances of the map overflows"):
            transformation_cost(model, t, g, g2)
        # one substitution alone stays finite
        assert forward_cost(model, np.array([0, 2]), g, g2) == pytest.approx(1.44e308 + 3.0 + 3.0)


def test_overflowing_constants_are_rejected_by_every_pricing_function():
    model = make_cost_model(c_vr=1e308)
    g = build_graph(2, [1, 2], [(0, 1, 1)])
    h = build_graph(0, [], edge_labels=True)
    t = transformation_from_forward([0, 0], 2, 0)  # removes both vertices: 2e308
    message = r"edit cost of the map overflows under CostModel\(c_vr=1e\+308, c_vi=3\.0, c_er=3\.0, c_ei=3\.0, "
    with pytest.raises(CostModelError, match=message):
        forward_cost(model, np.array([0, 0]), g, h)
    with pytest.raises(CostModelError, match=message):
        transformation_cost(model, t, g, h)
    # one removed edge at c_er = 1e308 still has a finite cost
    model = make_cost_model(c_er=1e308)
    assert transformation_cost(model, t, g, h) == forward_cost(model, t.forward, g, h) == 1e308
    # finite terms whose sum overflows: a vertex and an edge insertion, a relabelling and an insertion
    one = build_graph(1, [1], [], edge_labels=True)
    for constants, forward in ((dict(c_vi=1e308, c_ei=1e308), [0]), (dict(c_vs=1e308, c_vi=1e308), [1])):
        model = make_cost_model(**constants)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CostModelError, match="edit cost of the map overflows"):
                forward_cost(model, np.array(forward), one, g)


def test_vectors_of_unequal_width_are_a_cost_model_error():
    with pytest.warns(RuntimeWarning):
        model = make_cost_model("vector", "none")
    a = np.zeros((2, 2))
    b = np.zeros((2, 3))
    g, g2 = build_graph(2, a, edge_labels=False), build_graph(2, b, edge_labels=False)
    t = transformation_from_forward([0, 1], 2, 2)
    with pytest.raises(CostModelError, match="vector substitution needs two equal-length vectors"):
        transformation_cost(model, t, g, g2)
    # without vertices on one side there is no width to compare
    empty = build_graph(0, np.zeros((0, 3)), edge_labels=False)
    assert transformation_cost(model, transformation_from_forward([0, 0], 2, 0), g, empty) == 6.0


def test_forward_cost_and_compute_median_reject_vectors_of_unequal_width(monkeypatch):
    with pytest.warns(RuntimeWarning):
        model = make_cost_model("vector", "none")
    g = build_graph(2, np.zeros((2, 1)), edge_labels=False, graph_id="narrow")
    g2 = build_graph(2, np.zeros((2, 3)), edge_labels=False, graph_id="wide")
    with pytest.raises(CostModelError, match="vector substitution needs two equal-length vectors"):
        forward_cost(model, np.array([0, 1]), g, g2)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the widths were checked")

    monkeypatch.setattr(median, "solve_ged", no_solve)
    with pytest.raises(CostModelError, match="vector substitution needs two equal-length vectors"):
        compute_median(model, [g, g2])


LABELLED = build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)])
VECTORS = build_graph(3, [[0.0], [1.0], [2.0]], [(0, 1)])


@pytest.mark.parametrize(
    "edge_mode, graph, forward",
    [("none", LABELLED, [0, 1, 2]), ("none", VECTORS, [0, 1, 2]), ("label", LABELLED, [0, 1])],
    ids=["unlabelled-edge-model-on-labelled-edges", "label-model-on-vectors", "orders-do-not-match"],
)
def test_transformation_cost_rejects_what_solve_ged_rejects(edge_mode, graph, forward):
    model = make_cost_model(edge_mode=edge_mode)
    t = transformation_from_forward(forward, len(forward), 3)
    with pytest.raises(CostModelError) as caught:
        transformation_cost(model, t, graph, graph)
    if t.source_order == graph.order:  # a solver takes no map, so the model is all it checks
        with pytest.raises(CostModelError, match=re.escape(str(caught.value))):
            solve_ged(model, graph, graph, GedSolverConfig(method="bipartite"))
