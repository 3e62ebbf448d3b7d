"""Graph containers and transformations."""

import copy
import pickle

import numpy as np
import pytest

from gmedian import (
    LABEL,
    NO_EDGE_ATTRS,
    VECTOR,
    AttributedGraph,
    GraphError,
    Transformation,
    build_graph,
    graphs_equal,
    identity_transformation,
    transformation_from_forward,
)


@pytest.fixture
def pair():
    g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)], graph_id="g")
    g2 = build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)], graph_id="g2")
    return g, g2


def test_build_labeled_graph(pair):
    g, g2 = pair
    assert g.order == 4
    assert g.vertex_mode == LABEL
    assert g.edge_mode == LABEL
    assert g.vertex_attrs.tolist() == [1, 2, 2, 3]
    assert g.edge_list == [(0, 3), (1, 2), (1, 3), (2, 3)]
    assert g.n_edges == 4
    assert g.degrees.tolist() == [1, 2, 2, 3]
    assert g.degrees is g.degrees and not g.degrees.flags.writeable  # computed once, read-only
    assert g.edge_attrs[1, 2] == g.edge_attrs[2, 1] == 1
    assert g.edge_attrs[0, 3] == 3
    assert g2.order == 3
    assert g2.edge_list == [(0, 2), (1, 2)]


def test_build_vector_graph():
    g = build_graph(3, [[0.5, 1.0], [2.0, -1.5], [0.0, 0.0]], [(0, 1), (1, 2)])
    assert g.vertex_mode == VECTOR
    assert g.vector_dim == 2
    assert g.edge_mode == NO_EDGE_ATTRS
    assert g.edge_attrs is None
    assert g.vertex_attrs.dtype == np.float64


def test_empty_graph():
    g = build_graph(0, [])
    assert g.order == 0
    assert g.n_edges == 0
    assert g.edge_list == []
    assert g.vertex_mode == "label"
    # an empty (0, m) array keeps its width
    gv = build_graph(0, np.zeros((0, 3)))
    assert (gv.vertex_mode, gv.vector_dim, gv.vertex_attrs.shape) == ("vector", 3, (0, 3))


def test_graph_arrays_are_frozen(pair):
    g, _ = pair
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 1
    with pytest.raises(ValueError):
        g.vertex_attrs[0] = 9


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError, match="expected 3 vertex attributes"):
        build_graph(3, [1, 2])
    with pytest.raises(GraphError, match="mix labels and vectors"):
        build_graph(2, [1, [1.0, 2.0]])
    with pytest.raises(GraphError, match="share one dimension"):
        build_graph(2, [[1.0], [1.0, 2.0]])
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(2, [1, 2], [(0, 0)])
    with pytest.raises(GraphError, match="duplicate edge"):
        build_graph(2, [1, 2], [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="out of range"):
        build_graph(2, [1, 2], [(0, 2)])
    with pytest.raises(GraphError, match="mix labelled and unlabelled"):
        build_graph(3, [1, 2, 3], [(0, 1, 5), (1, 2)])
    with pytest.raises(GraphError, match="disagree with edge_labels"):
        build_graph(2, [1, 2], [(0, 1)], edge_labels=True)
    with pytest.raises(GraphError, match="finite"):
        build_graph(2, [[np.nan, 0.0], [np.inf, 1.0]], [(0, 1)])
    with pytest.raises(GraphError, match="finite"):
        build_graph(1, [[-np.inf]])


def test_attributed_graph_validation():
    adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
    with pytest.raises(GraphError):
        AttributedGraph(np.array([1, 2]), np.array([[0, 1], [0, 0]], dtype=np.int8), None)
    with pytest.raises(GraphError):
        AttributedGraph(np.array([1, 2]), np.array([[1, 1], [1, 0]], dtype=np.int8), None)
    with pytest.raises(GraphError):
        AttributedGraph(np.array([1, 2]), np.array([[0, 2], [2, 0]], dtype=np.int8), None)
    with pytest.raises(GraphError):
        AttributedGraph(np.array([1]), adj, None)
    asym = np.zeros((2, 2), dtype=np.int64)
    asym[0, 1] = 5
    with pytest.raises(GraphError):
        AttributedGraph(np.array([1, 2]), adj, asym)


def test_forward_reverse_roundtrip(pair):
    t = transformation_from_forward([0, 2, 1, 3], 4, 3)
    assert t.forward.tolist() == [0, 2, 1, 3]
    assert t.reverse.tolist() == [0, 2, 1]
    assert t.substituted.tolist() == [True, True, True, False]
    inv = t.inverse()
    assert inv.forward.tolist() == [0, 2, 1]
    assert inv.inverse().forward.tolist() == t.forward.tolist()


def test_identity_transformation():
    t = identity_transformation(3)
    assert t.forward.tolist() == [0, 1, 2]


def test_transformation_validation():
    for build in (transformation_from_forward, Transformation):
        with pytest.raises(GraphError, match="must have length 3"):
            build([0, 1], 3, 3)
        with pytest.raises(GraphError, match="must lie in"):
            build([0, 4], 2, 3)
        with pytest.raises(GraphError, match="substitutes one target vertex twice"):
            build([1, 1], 2, 3)
        with pytest.raises(GraphError, match="must lie in"):
            build([-1, 0], 2, 3)
    # the reverse map is derived, never passed in
    with pytest.raises(TypeError):
        Transformation(np.array([0, 1]), np.array([1, 0]), 2, 2)


def test_transformation_from_forward_matches_checked_construction():
    forward = np.array([3, 0, 4, 1], dtype=np.int64)
    t = Transformation(forward, 4, 4)
    built = transformation_from_forward(forward, 4, 4)
    for u in (t, built):
        assert u.forward.tolist() == [3, 0, 4, 1]
        assert u.reverse.tolist() == [1, 3, 4, 0]
        assert (u.source_order, u.target_order) == (4, 4)
        assert not u.forward.flags.writeable and not u.reverse.flags.writeable
    with pytest.raises(ValueError):
        t.reverse[0] = 2
    forward[0] = 2  # the transformation keeps its own copy
    assert t.forward.tolist() == [3, 0, 4, 1]
    inv = t.inverse()
    assert (inv.forward.tolist(), inv.reverse.tolist()) == ([1, 3, 4, 0], [3, 0, 4, 1])
    assert not np.shares_memory(inv.forward, t.reverse)
    back = inv.inverse()
    assert (back.forward.tolist(), back.reverse.tolist()) == ([3, 0, 4, 1], [1, 3, 4, 0])
    assert (back.source_order, back.target_order) == (4, 4)


def test_transformation_keeps_one_frozen_map():
    t = transformation_from_forward([3, 0, 4, 1], 4, 4)
    assert not hasattr(t, "__dict__")
    assert t.reverse.tolist() == [1, 3, 4, 0]
    assert t.reverse is t.reverse  # derived on first read, then kept
    assert not t.reverse.flags.writeable
    with pytest.raises(AttributeError):
        t.reverse = np.array([1, 3, 4, 0])
    with pytest.raises(AttributeError):
        t.extra = 1
    # the constructor still checks the map, though it keeps no reverse
    with pytest.raises(GraphError, match="substitutes one target vertex twice"):
        Transformation([1, 1], 2, 3)
    with pytest.raises(GraphError, match="must lie in"):
        Transformation([0, 4], 2, 3)


def test_graph_survives_pickle_and_deepcopy(pair):
    vector = build_graph(2, [[0.5, 1.0], [2.0, -1.0]], [(0, 1)], graph_id="v")
    for g in (*pair, vector):
        g.degrees  # a cached property is recomputed, not copied
        for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert graphs_equal(h, g) and h.graph_id == g.graph_id
            assert h.degrees.tolist() == g.degrees.tolist()
            arrays = (h.vertex_attrs, h.adjacency, h.degrees) + (() if h.edge_attrs is None else (h.edge_attrs,))
            assert not any(a.flags.writeable for a in arrays)


def test_graphs_equal(pair):
    g, _ = pair
    same = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)], graph_id="x")
    assert graphs_equal(g, same)  # ids do not matter
    other = build_graph(4, [1, 2, 2, 3], [(1, 2, 2), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
    assert not graphs_equal(g, other)
    relabelled = build_graph(4, [1, 2, 2, 4], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
    assert not graphs_equal(g, relabelled)
    gv = build_graph(2, [[1.0, 0.0], [0.0, 1.0]], [(0, 1)])
    gv2 = build_graph(2, [[1.0, 1e-12], [0.0, 1.0]], [(0, 1)])
    assert not graphs_equal(gv, gv2)
    assert not graphs_equal(gv, build_graph(2, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [(0, 1)]))
    # another order, or the same labels read as vectors or without edge labels
    assert not graphs_equal(g, build_graph(3, [1, 2, 2], [(1, 2, 1)]))
    assert not graphs_equal(gv, build_graph(2, [1, 1], [(0, 1)]))
    assert not graphs_equal(gv, build_graph(2, [[1.0, 0.0], [0.0, 1.0]], [(0, 1, 1)]))


def test_graphs_equal_ignores_offedge_attrs():
    adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
    a = AttributedGraph(np.array([1, 1]), adj, np.array([[0, 5], [5, 0]], dtype=np.int64))
    b = AttributedGraph(np.array([1, 1]), adj, np.array([[7, 5], [5, 7]], dtype=np.int64))
    assert graphs_equal(a, b)


def test_attributed_graph_rejects_non_integer_edge_labels():
    adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
    # 1.5 and 1.7 were both stored as 1, and the two graphs compared equal
    for label in (1.5, 1.7, 2.0):
        with pytest.raises(GraphError, match="edge labels must be integers"):
            AttributedGraph(np.array([1, 2]), adj, np.array([[0, label], [label, 0]]))
    with pytest.raises(GraphError, match="edge labels must be integers"):
        AttributedGraph(np.array([1, 2]), adj, np.array([[False, True], [True, False]]))
    g = AttributedGraph(np.array([1, 2]), adj, np.array([[0, 3], [3, 0]], dtype=np.int16))
    assert g.edge_attrs.dtype == np.int64 and g.edge_attrs.tolist() == [[0, 3], [3, 0]]


def test_build_graph_rejects_non_integer_edge_labels():
    for label in (2.5, 2.0, np.float64(2.0), "2", True):
        with pytest.raises(GraphError, match="is not an integer"):
            build_graph(2, [1, 2], [(0, 1, label)])
    for label in (2, np.int8(2), np.uint64(2)):
        g = build_graph(2, [1, 2], [(0, 1, label)])
        assert g.edge_attrs.dtype == np.int64 and g.edge_attrs[0, 1] == 2


@pytest.mark.parametrize("label", [np.uint64(2**64 - 1), np.uint64(2**63), 2**63, -(2**63) - 1])
def test_build_graph_rejects_labels_beyond_int64(label):
    # uint64 labels used to wrap: 2**64 - 1 was stored as -1
    with pytest.raises(GraphError, match="vertex label .* does not fit in 64 bits"):
        build_graph(2, [label, np.uint64(5)])
    with pytest.raises(GraphError, match="edge label .* does not fit in 64 bits"):
        build_graph(2, [1, 2], [(0, 1, label)])


def test_build_graph_keeps_every_int64_label_whatever_its_type():
    g = build_graph(3, [np.uint64(2**63 - 1), -(2**63), np.int8(-1)], [(0, 1, np.uint64(2**63 - 1))])
    assert g.vertex_attrs.tolist() == [2**63 - 1, -(2**63), -1]
    assert g.edge_attrs[0, 1] == 2**63 - 1
    # numpy alone would promote uint64 and a negative int to float
    assert build_graph(2, [np.uint64(5), -1]).vertex_attrs.tolist() == [5, -1]


def test_attributed_graph_rejects_uint64_labels_beyond_int64():
    adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
    with pytest.raises(GraphError, match="vertex labels do not fit in 64 bits"):
        AttributedGraph(np.array([2**64 - 1, 5], dtype=np.uint64), adj)
    with pytest.raises(GraphError, match="edge labels do not fit in 64 bits"):
        AttributedGraph(np.array([1, 2]), adj, np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64))
    top = 2**63 - 1
    g = AttributedGraph(np.array([top, 5], dtype=np.uint64), adj, np.array([[0, top], [top, 0]], dtype=np.uint64))
    assert g.vertex_attrs.tolist() == [top, 5] and g.edge_attrs[0, 1] == top
