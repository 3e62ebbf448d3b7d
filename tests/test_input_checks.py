"""Malformed input is refused where it enters, each with its own error."""

import numpy as np
import pytest

from gmedian import (
    AttributedGraph,
    CostModel,
    CostModelError,
    DatasetError,
    GraphError,
    LsapError,
    ZeroCost,
    build_assignment_problem,
    build_graph,
    parse_gxl,
)

LABELS = np.zeros(2, dtype=np.int64)
NODES = b"".join(b'<node id="%s"><attr name="l"><int>1</int></attr></node>' % v for v in (b"a", b"b", b"c"))


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: AttributedGraph(LABELS, np.zeros((2, 3))), GraphError, "adjacency must be a square matrix"),
        (
            lambda: AttributedGraph(np.array([1, [1.0]], dtype=object), np.zeros((2, 2))),
            GraphError,
            "vertex attributes mix labels and vectors",
        ),
        (
            lambda: AttributedGraph(np.zeros((2, 1, 1)), np.zeros((2, 2))),
            GraphError,
            "vertex attributes must have shape (n,) or (n, m)",
        ),
        (
            lambda: AttributedGraph(LABELS, np.zeros((2, 2)), np.zeros((3, 3))),
            GraphError,
            "edge attributes must be an n x n matrix",
        ),
        (lambda: build_graph(2, [1, 2], [(0, 1, 1, 1)]), GraphError, "edges must be (i, j) or (i, j, label) tuples"),
        (lambda: build_graph(2, [1.5, 2.0]), GraphError, "vertex labels must be integers"),
        (
            lambda: CostModel(3.0, 3.0, 3.0, 3.0, ZeroCost(), ZeroCost()),
            CostModelError,
            "unsupported vertex substitution function",
        ),
        (
            lambda: parse_gxl(b'<gxl><graph><node id="a"><attr name="l"></attr></node></graph></gxl>'),
            DatasetError,
            "attr 'l' has no value element",
        ),
        (
            lambda: parse_gxl(
                b"<gxl><graph>" + NODES + b'<edge from="a" to="b"><attr name="v"><int>1</int></attr></edge>'
                b'<edge from="b" to="c"><attr name="v"><float>1.5</float></attr></edge></graph></gxl>'
            ),
            DatasetError,
            "label attr of edge ('b', 'c') is a float",
        ),
        (
            lambda: build_assignment_problem(np.zeros(2), np.zeros(2), np.zeros(0)),
            LsapError,
            "substitution block must be a matrix",
        ),
    ],
    ids=[
        "non-square-adjacency",
        "object-attributes",
        "3d-attributes",
        "edge-attributes-shape",
        "4-tuple-edge",
        "float-vertex-labels",
        "zero-cost-vertex-substitution",
        "gxl-attr-without-value",
        "gxl-float-label-on-a-later-edge",
        "1d-substitution-block",
    ],
)
def test_malformed_input_is_refused(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == message
