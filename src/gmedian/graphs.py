"""Simple undirected attributed graphs and vertex transformations.

A graph of order ``n`` is stored as a triplet: per-vertex attributes, an
``n x n`` symmetric binary adjacency matrix with zero diagonal, and an
``n x n`` matrix of edge attributes. Vertex attributes are either integer
labels (array of shape ``(n,)``) or real vectors (shape ``(n, m)``); edge
attributes are integer labels, or absent for unattributed edges. Entries of
the edge-attribute matrix at non-adjacent positions are never read.

A :class:`Transformation` maps the vertices of a source graph onto a target
graph: every source vertex is either substituted to a distinct target vertex
or removed, and every target vertex not hit by a substitution is inserted.
``forward[i] == target_order`` marks removal of source vertex ``i``;
``reverse[k] == source_order`` marks insertion of target vertex ``k``. An
edge of either graph whose endpoints are substituted onto an edge of the
other is substituted; any other edge is removed or inserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LABEL",
    "VECTOR",
    "NO_EDGE_ATTRS",
    "GraphError",
    "AttributedGraph",
    "Transformation",
    "build_graph",
    "transformation_from_forward",
    "identity_transformation",
    "graphs_equal",
]

LABEL = "label"
VECTOR = "vector"
NO_EDGE_ATTRS = "none"


class GraphError(ValueError):
    """Malformed graph or transformation."""


def _int64_labels(a: np.ndarray, what: str) -> np.ndarray:
    """An integer label array as int64; any other dtype, or a value beyond int64, is an error."""
    if not np.issubdtype(a.dtype, np.integer):
        raise GraphError(f"{what} must be integers")
    if a.dtype.kind == "u" and a.size and a.max() > np.iinfo(np.int64).max:
        raise GraphError(f"{what} do not fit in 64 bits")
    return a.astype(np.int64)


def _int64_label(value, what: str) -> int:
    """One integer label (not a bool) as an int that fits in int64."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GraphError(f"{what} {value!r} is not an integer")
    if not -(2**63) <= int(value) < 2**63:
        raise GraphError(f"{what} {value} does not fit in 64 bits")
    return int(value)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class AttributedGraph:
    """Immutable simple undirected graph with vertex and edge attributes."""

    vertex_attrs: np.ndarray
    adjacency: np.ndarray
    edge_attrs: np.ndarray | None = None
    graph_id: str = ""

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise GraphError("adjacency must be a square matrix")
        n = adj.shape[0]
        if not np.array_equal(adj, adj.T):
            raise GraphError("adjacency must be symmetric")
        if n and np.any(np.diag(adj) != 0):
            raise GraphError("self-loops are not allowed")
        if not np.isin(adj, (0, 1)).all():
            raise GraphError("adjacency entries must be 0 or 1")
        va = np.asarray(self.vertex_attrs)
        if va.dtype == object:
            raise GraphError("vertex attributes mix labels and vectors")
        if va.ndim == 1:
            va = _int64_labels(va, "vertex labels")
        elif va.ndim == 2:
            va = va.astype(np.float64)
            if not np.isfinite(va).all():
                raise GraphError("vector attributes must be finite")
        else:
            raise GraphError("vertex attributes must have shape (n,) or (n, m)")
        if va.shape[0] != n:
            raise GraphError(f"expected {n} vertex attributes, got {va.shape[0]}")
        self.vertex_attrs = _frozen(va)
        self.adjacency = _frozen(adj.astype(np.int8))
        if self.edge_attrs is not None:
            ea = np.asarray(self.edge_attrs)
            if ea.shape != (n, n):
                raise GraphError("edge attributes must be an n x n matrix")
            ea = _int64_labels(ea, "edge labels")
            mask = self.adjacency == 1
            if not np.array_equal(ea[mask], ea.T[mask]):
                raise GraphError("edge attributes must be symmetric on edges")
            self.edge_attrs = _frozen(ea)

    @property
    def order(self) -> int:
        return self.adjacency.shape[0]

    @property
    def vertex_mode(self) -> str:
        return LABEL if self.vertex_attrs.ndim == 1 else VECTOR

    @property
    def vector_dim(self) -> int:
        return 0 if self.vertex_attrs.ndim == 1 else self.vertex_attrs.shape[1]

    @property
    def edge_mode(self) -> str:
        return NO_EDGE_ATTRS if self.edge_attrs is None else LABEL

    @cached_property
    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (i, j) pairs with i < j, in row-major order."""
        iu = np.argwhere(np.triu(self.adjacency, 1))
        return [(int(i), int(j)) for i, j in iu]

    @property
    def n_edges(self) -> int:
        return len(self.edge_list)

    @cached_property
    def degrees(self) -> np.ndarray:
        return _frozen(self.adjacency.sum(axis=1, dtype=np.int64))

    def __reduce__(self):
        # a copy or an unpickled graph goes through the constructor's checks and is read-only again
        return (AttributedGraph, (self.vertex_attrs, self.adjacency, self.edge_attrs, self.graph_id))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AttributedGraph(order={self.order}, edges={self.n_edges}, "
            f"vertex_mode={self.vertex_mode!r}, edge_mode={self.edge_mode!r}, "
            f"graph_id={self.graph_id!r})"
        )


def build_graph(
    order: int,
    vertex_attrs: Sequence,
    edges: Iterable[tuple] = (),
    *,
    edge_labels: bool | None = None,
    graph_id: str = "",
) -> AttributedGraph:
    """Construct a graph from an attribute sequence and an edge list.

    ``vertex_attrs`` is a sequence of ``order`` integer labels or of
    equal-length real vectors (an empty ``(0, m)`` array gives width ``m``).
    Each edge is ``(i, j)`` or ``(i, j, label)`` with distinct endpoints in
    ``range(order)``; at most one edge per vertex pair in either orientation.
    A label of any integer type is kept if it fits in int64; any other label
    is a :class:`GraphError`.
    ``edge_labels`` forces the edge-attribute mode; by default it is inferred
    from the first edge tuple (an empty edge list yields unattributed edges
    unless ``edge_labels=True``).
    """
    attrs = list(vertex_attrs)
    if len(attrs) != order:
        raise GraphError(f"expected {order} vertex attributes, got {len(attrs)}")
    scalar = [np.isscalar(a) or (isinstance(a, np.ndarray) and a.ndim == 0) for a in attrs]
    if attrs and any(scalar) and not all(scalar):
        raise GraphError("vertex attributes mix labels and vectors")
    if attrs and not all(scalar) and len({len(a) for a in attrs}) > 1:
        raise GraphError("vector attributes must share one dimension")
    if attrs and all(scalar):
        if all(isinstance(a, (int, np.integer)) and not isinstance(a, bool) for a in attrs):
            # one int64 array whatever the integer types: numpy would promote uint64 and int to float
            va = np.array([_int64_label(a, "vertex label") for a in attrs], dtype=np.int64)
        else:
            va = np.asarray(attrs)  # the graph rejects labels that are not integers
    elif attrs:
        va = np.asarray(attrs, dtype=np.float64)
    else:
        va = np.zeros(np.shape(vertex_attrs)) if np.ndim(vertex_attrs) == 2 else np.zeros(0, dtype=np.int64)

    edge_items = [tuple(e) for e in edges]
    widths = {len(e) for e in edge_items}
    if widths - {2, 3}:
        raise GraphError("edges must be (i, j) or (i, j, label) tuples")
    if len(widths) > 1:
        raise GraphError("edges mix labelled and unlabelled tuples")
    has_attr = widths == {3}
    if edge_labels is None:
        edge_labels = has_attr
    elif edge_items and has_attr != edge_labels:
        raise GraphError("edge tuples disagree with edge_labels")

    adjacency = np.zeros((order, order), dtype=np.int8)
    edge_attrs = np.zeros((order, order), dtype=np.int64) if edge_labels else None
    for item in edge_items:
        i, j = int(item[0]), int(item[1])
        if not (0 <= i < order and 0 <= j < order):
            raise GraphError(f"edge ({i}, {j}) out of range for order {order}")
        if i == j:
            raise GraphError(f"self-loop at vertex {i}")
        if adjacency[i, j]:
            raise GraphError(f"duplicate edge ({i}, {j})")
        adjacency[i, j] = adjacency[j, i] = 1
        if edge_labels:
            edge_attrs[i, j] = edge_attrs[j, i] = _int64_label(item[2], "edge label")
    return AttributedGraph(va, adjacency, edge_attrs, graph_id)


def _derive_reverse(forward: np.ndarray, source_order: int, target_order: int) -> np.ndarray:
    if forward.shape != (source_order,):
        raise GraphError(f"forward map must have length {source_order}")
    if forward.size and (forward.min() < 0 or forward.max() > target_order):
        raise GraphError("forward entries must lie in [0, target_order]")
    substituted = np.flatnonzero(forward < target_order)
    reverse = np.full(target_order, source_order, dtype=np.int64)
    reverse[forward[substituted]] = substituted
    # a target hit twice keeps one source, so fewer targets than sources are marked
    if np.count_nonzero(reverse < source_order) != len(substituted):
        raise GraphError("forward map substitutes one target vertex twice")
    return reverse


@dataclass(eq=False, slots=True)
class Transformation:
    """Vertex map between two graphs, stored as its read-only ``forward`` array.

    The constructor checks that ``forward`` is a valid map; ``reverse`` is
    derived from it on first read and then kept, read-only.
    """

    forward: np.ndarray
    source_order: int
    target_order: int
    _reverse: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.forward = _frozen(np.asarray(self.forward, dtype=np.int64))
        _derive_reverse(self.forward, self.source_order, self.target_order)

    @property
    def reverse(self) -> np.ndarray:
        if self._reverse is None:
            self._reverse = _frozen(_derive_reverse(self.forward, self.source_order, self.target_order))
        return self._reverse

    def __reduce__(self):
        # a copy or an unpickled map goes through the constructor's checks and is read-only again
        return (Transformation, (self.forward, self.source_order, self.target_order))

    @property
    def substituted(self) -> np.ndarray:
        """Boolean mask over source vertices that are substituted."""
        return self.forward < self.target_order

    def inverse(self) -> "Transformation":
        return Transformation(self.reverse, self.target_order, self.source_order)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Transformation({self.forward.tolist()}, {self.source_order}->{self.target_order})"


def transformation_from_forward(
    forward: Sequence[int] | np.ndarray, source_order: int, target_order: int
) -> Transformation:
    """Build a transformation from its forward map alone."""
    return Transformation(forward, source_order, target_order)


def identity_transformation(order: int) -> Transformation:
    return transformation_from_forward(np.arange(order), order, order)


def _projected(a2: np.ndarray, forward: np.ndarray) -> np.ndarray:
    """``a2[forward][:, forward]`` per map of a stack ``forward`` of shape (..., n).

    Index ``len(a2)``, the image of a removed vertex, reads 0.
    """
    n2 = a2.shape[0]
    a2pad = np.zeros((n2 + 1, n2 + 1), dtype=a2.dtype)
    a2pad[:n2, :n2] = a2
    return a2pad[forward[..., :, None], forward[..., None, :]]


def graphs_equal(a: AttributedGraph, b: AttributedGraph) -> bool:
    """Exact structural equality: vertex attributes, adjacency and edge labels on edges.

    Graph ids are ignored, as are edge-attribute entries at non-adjacent
    positions and the vector width of a graph without vertices.
    """
    if a.order != b.order or a.vertex_mode != b.vertex_mode or a.edge_mode != b.edge_mode:
        return False
    if a.order and not np.array_equal(a.vertex_attrs, b.vertex_attrs):
        return False
    if not np.array_equal(a.adjacency, b.adjacency):
        return False
    if a.edge_attrs is not None:
        mask = a.adjacency == 1
        if not np.array_equal(a.edge_attrs[mask], b.edge_attrs[mask]):
            return False
    return True
