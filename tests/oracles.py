"""Independent reference implementations used to pin down expected values.

Everything here is written as plain loops over Python scalars, deliberately
avoiding the vectorized code paths in the package: costs as literal double
sums over ordered vertex pairs, distances by enumerating every vertex map,
assignments by trying every permutation, the median's closed-form updates
median coordinate by coordinate. Slow on purpose; used only on small inputs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np

from gmedian.costs import CostModel, LabelDelta
from gmedian.graphs import (
    LABEL,
    VECTOR,
    AttributedGraph,
    Transformation,
    build_graph,
    transformation_from_forward,
)
from gmedian.solvers import ged_exact


def subst_cost(model: CostModel, kind: str, a, b) -> float:
    fn = model.vertex_subst if kind == "vertex" else model.edge_subst
    name = type(fn).__name__
    if name == "LabelDelta":
        return fn.cost if int(a) != int(b) else 0.0
    if name == "SquaredEuclidean":
        return float(sum((float(x) - float(y)) ** 2 for x, y in zip(np.atleast_1d(a), np.atleast_1d(b))))
    if name == "ZeroCost":
        return 0.0
    raise AssertionError(f"unknown substitution cost {name}")


def direct_vertex_cost(model: CostModel, t: Transformation, phi, phi2) -> float:
    n, n2 = t.source_order, t.target_order
    total = 0.0
    for i in range(n):
        k = int(t.forward[i])
        if k == n2:
            total += model.c_vr
        else:
            total += subst_cost(model, "vertex", phi[i], phi2[k])
    for k in range(n2):
        if int(t.reverse[k]) == n:
            total += model.c_vi
    return total


def direct_edge_cost(
    model: CostModel, t: Transformation, g: AttributedGraph, g2: AttributedGraph
) -> float:
    """Ordered-pair double sum: every undirected edge contributes twice."""
    n, n2 = t.source_order, t.target_order
    f, r = t.forward, t.reverse
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or not g.adjacency[i, j]:
                continue
            ki, kj = int(f[i]), int(f[j])
            if ki < n2 and kj < n2 and g2.adjacency[ki, kj]:
                if g.edge_mode == LABEL:
                    total += subst_cost(model, "edge", g.edge_attrs[i, j], g2.edge_attrs[ki, kj])
            else:
                total += model.c_er
    for k in range(n2):
        for l in range(n2):
            if k == l or not g2.adjacency[k, l]:
                continue
            ik, il = int(r[k]), int(r[l])
            if not (ik < n and il < n and g.adjacency[ik, il]):
                total += model.c_ei
    return total


def direct_transformation_cost(
    model: CostModel, t: Transformation, g: AttributedGraph, g2: AttributedGraph
) -> float:
    return direct_vertex_cost(model, t, g.vertex_attrs, g2.vertex_attrs) + 0.5 * direct_edge_cost(
        model, t, g, g2
    )


def all_forwards(n: int, n2: int):
    """Every vertex map: substituted subset, image subset, bijection."""
    for k in range(min(n, n2) + 1):
        for sources in itertools.combinations(range(n), k):
            for images in itertools.permutations(range(n2), k):
                forward = [n2] * n
                for i, target in zip(sources, images):
                    forward[i] = target
                yield forward


def oracle_ged(
    model: CostModel, g: AttributedGraph, g2: AttributedGraph
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive minimum over every vertex map; ties to the smallest map."""
    best = None
    best_forward = None
    for forward in all_forwards(g.order, g2.order):
        t = transformation_from_forward(forward, g.order, g2.order)
        cost = direct_transformation_cost(model, t, g, g2)
        key = tuple(forward)
        if best is None or cost < best - 1e-12 or (abs(cost - best) <= 1e-12 and key < best_forward):
            best, best_forward = cost, key
    return float(best), best_forward


def dense_quad(model: CostModel, g: AttributedGraph, g2: AttributedGraph) -> np.ndarray:
    """The (N^2 x N^2) Hessian of the edit cost over the augmented layout, N = n + n2.

    Entry ``[i*N + k, j*N + l]`` prices assigning row i to column k together
    with row j to column l, written cell block by cell block as a dense array.
    """
    n, n2 = g.order, g2.order
    N = n + n2
    a = g.adjacency.astype(np.float64)
    a2 = g2.adjacency.astype(np.float64)
    cer, cei = model.c_er, model.c_ei
    q = np.zeros((N, N, N, N))
    if n and n2:
        if isinstance(model.edge_subst, LabelDelta):
            # es[i, k, j, l] = substitution cost between edge (i, j) and (k, l)
            es = model.edge_subst.cost * (
                g.edge_attrs[:, None, :, None] != g2.edge_attrs[None, :, None, :]
            ).astype(np.float64)
        else:
            es = 0.0
        a_ = a[:, None, :, None]
        a2_ = a2[None, :, None, :]
        q[:n, :n2, :n, :n2] = a_ * (a2_ * es + cer * (1.0 - a2_)) + cei * (1.0 - a_) * a2_
    if n:
        q[:n, n2:, :n, :] = cer * a[:, None, :, None]
        q[:n, :n2, :n, n2:] = cer * a[:, None, :, None]
    if n2:
        ins = cei * a2[None, :, None, :]
        q[n:, :n2, :, :n2] = ins
        q[:n, :n2, n:, :n2] = ins
    rr = np.arange(N)
    q[rr, :, rr, :] = 0.0
    return q.reshape(N * N, N * N)


def start_matrix(t: Transformation) -> np.ndarray:
    """Permutation matrix of ``t`` over the augmented layout, by loops."""
    n, n2 = t.source_order, t.target_order
    x = np.zeros((n + n2, n + n2))
    for i in range(n):
        v = int(t.forward[i])
        x[i, v if v < n2 else n2 + i] = 1.0
    for k in range(n2):
        if t.reverse[k] >= n:
            x[n + k, k] = 1.0
    slack_rows = [n + k for k in range(n2) if t.reverse[k] < n]
    slack_cols = [n2 + i for i in range(n) if t.forward[i] < n2]
    for r, c in zip(slack_rows, slack_cols):
        x[r, c] = 1.0
    return x


def brute_lsap(cost: np.ndarray) -> float:
    n = cost.shape[0]
    assert cost.shape == (n, n)
    return min(sum(float(cost[i, p[i]]) for i in range(n)) for p in itertools.permutations(range(n)))


def fixed_maps_sod(
    model: CostModel,
    median: AttributedGraph,
    collection: list[AttributedGraph],
    transformations: list[Transformation],
) -> float:
    return sum(
        direct_transformation_cost(model, t, median, gp)
        for t, gp in zip(transformations, collection)
    )


def random_graph(
    rng: np.random.Generator,
    order: int,
    *,
    vertex_mode: str = LABEL,
    edge_mode: str = LABEL,
    label_values: tuple[int, ...] = (1, 2, 3),
    edge_values: tuple[int, ...] = (1, 2),
    dim: int = 2,
    p_edge: float = 0.5,
    graph_id: str = "",
) -> AttributedGraph:
    if vertex_mode == VECTOR:
        if order == 0:
            # build_graph cannot see the mode of an empty attribute list
            ea = np.zeros((0, 0), dtype=np.int64) if edge_mode == LABEL else None
            return AttributedGraph(
                np.zeros((0, dim)), np.zeros((0, 0), dtype=np.int8), ea, graph_id
            )
        attrs = [rng.normal(size=dim).round(3).tolist() for _ in range(order)]
    else:
        attrs = [int(rng.choice(label_values)) for _ in range(order)]
    edges = []
    for i in range(order):
        for j in range(i + 1, order):
            if rng.random() < p_edge:
                if edge_mode == LABEL:
                    edges.append((i, j, int(rng.choice(edge_values))))
                else:
                    edges.append((i, j))
    return build_graph(
        order, attrs, edges, edge_labels=(edge_mode == LABEL), graph_id=graph_id
    )


def random_forward(rng: np.random.Generator, n: int, n2: int) -> list[int]:
    k = int(rng.integers(0, min(n, n2) + 1))
    forward = [n2] * n
    sources = rng.choice(n, size=k, replace=False)
    images = rng.choice(n2, size=k, replace=False)
    for i, target in zip(sources, images):
        forward[int(i)] = int(target)
    return forward


def loop_substitution_sets(state, collection: list[AttributedGraph]):
    """``(vertex_sets, edge_sets)`` of a descent state, entry by entry.

    ``vertex_sets[i]`` lists ``(p, k)``: median vertex i is substituted to
    vertex k of member p. ``edge_sets[(i, j)]`` (i < j, present only when
    non-empty) lists ``(p, (k, l))`` where both endpoints are substituted and
    ``(k, l)`` is an edge of member p.
    """
    n = state.median.order
    vertex_sets: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    edge_sets: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}
    for p, (t, gp) in enumerate(zip(state.transformations, collection)):
        f = t.forward
        np_ = t.target_order
        ap = gp.adjacency
        sub = [int(f[i]) if f[i] < np_ else -1 for i in range(n)]
        for i in range(n):
            if sub[i] >= 0:
                vertex_sets[i].append((p, sub[i]))
        for i in range(n):
            ki = sub[i]
            if ki < 0:
                continue
            for j in range(i + 1, n):
                kj = sub[j]
                if kj >= 0 and ap[ki, kj]:
                    edge_sets.setdefault((i, j), []).append((p, (ki, kj)))
    return vertex_sets, edge_sets


def loop_member_values(state, collection: list[AttributedGraph]):
    """``(values, labels)`` of a descent state, entry by entry.

    ``values[p, i]`` is the attribute of the vertex of member p that median
    vertex i is substituted to, 0 where i is removed. ``labels[p, i, j]`` is
    member p's edge-attribute entry at the images of i and j, 0 where either
    is removed; ``labels`` is None unless the median and every member have
    labelled edges.
    """
    median = state.median
    n = median.order
    values = np.zeros((len(collection), *median.vertex_attrs.shape), median.vertex_attrs.dtype)
    labelled = median.edge_mode == LABEL and all(gp.edge_mode == LABEL for gp in collection)
    labels = np.zeros((len(collection), n, n), dtype=np.int64) if labelled else None
    for p, (t, gp) in enumerate(zip(state.transformations, collection)):
        for i in range(n):
            k = int(t.forward[i])
            if k == t.target_order:
                continue
            values[p, i] = gp.vertex_attrs[k]
            if labels is None:
                continue
            for j in range(n):
                l = int(t.forward[j])
                if l < t.target_order:
                    labels[p, i, j] = gp.edge_attrs[k, l]
    return values, labels


def _loop_majority(counts: Counter) -> tuple[int, int]:
    top = max(counts.values())
    label = min(lab for lab, c in counts.items() if c == top)
    return label, top


def loop_vertex_labels(median: AttributedGraph, vertex_sets, collection) -> np.ndarray:
    """Majority label over the substituted positions; unchanged when none."""
    phi = median.vertex_attrs.copy()
    for i, entries in enumerate(vertex_sets):
        if not entries:
            continue
        counts = Counter(int(collection[p].vertex_attrs[k]) for p, k in entries)
        phi[i], _ = _loop_majority(counts)
    return phi


def loop_vertex_vectors(median: AttributedGraph, vertex_sets, collection) -> np.ndarray:
    """Mean of the substituted attribute vectors; unchanged when none."""
    phi = median.vertex_attrs.copy()
    for i, entries in enumerate(vertex_sets):
        if not entries:
            continue
        phi[i] = np.mean([collection[p].vertex_attrs[k] for p, k in entries], axis=0)
    return phi


def _loop_keeps(model: CostModel, ces, m: int, s: int, top: int) -> bool:
    """Keeping the edge costs less than dropping it, in rationals: ``c_es (s - top) + c_er (m - s) < c_ei s``."""
    ces, cer, cei = Fraction(ces), Fraction(model.c_er), Fraction(model.c_ei)
    return ces * (s - top) + cer * (m - s) < cei * s


def loop_edges_labeled(median: AttributedGraph, edge_sets, collection, model: CostModel):
    """Majority edge label and the keep-or-drop rule, vertex pair by vertex pair."""
    n = median.order
    m = len(collection)
    adjacency = np.zeros((n, n), dtype=np.int8)
    attrs = median.edge_attrs.copy()
    for i in range(n):
        for j in range(i + 1, n):
            entries = edge_sets.get((i, j), [])
            s = len(entries)
            if entries:
                counts = Counter(int(collection[p].edge_attrs[k, l]) for p, (k, l) in entries)
                label, top = _loop_majority(counts)
                attrs[i, j] = attrs[j, i] = label
            else:
                top = 0
            if _loop_keeps(model, model.edge_subst.cost, m, s, top):
                adjacency[i, j] = adjacency[j, i] = 1
    return adjacency, attrs


def loop_edges_unlabeled(median: AttributedGraph, edge_sets, collection, model: CostModel) -> np.ndarray:
    """The keep-or-drop rule with ``c_es = 0`` and ``top = s``, vertex pair by vertex pair."""
    n = median.order
    m = len(collection)
    adjacency = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            s = len(edge_sets.get((i, j), []))
            if _loop_keeps(model, 0, m, s, s):
                adjacency[i, j] = adjacency[j, i] = 1
    return adjacency


def oracle_median(model: CostModel, collection: list[AttributedGraph]) -> tuple[float, AttributedGraph]:
    """Least sum of exact distances to the members over every labelled graph up to their largest order.

    The candidates carry the members' vertex labels in sorted order, which is complete up to
    isomorphism, and each vertex pair is either empty or carries one of the members' edge labels.
    Each candidate is priced by ``ged_exact``, which criterion 1 checks against :func:`oracle_ged`,
    and its sum stops once it reaches the best. Ties go to the first candidate, by order.
    """
    vertex_labels = sorted({int(x) for g in collection for x in g.vertex_attrs})
    edge_labels = sorted({int(x) for g in collection for x in g.edge_attrs[np.triu(g.adjacency, 1) == 1]})
    best, best_graph = np.inf, None
    for n in range(max(g.order for g in collection) + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for labels in itertools.combinations_with_replacement(vertex_labels, n):
            for states in itertools.product([None, *edge_labels], repeat=len(pairs)):
                edges = [(i, j, e) for (i, j), e in zip(pairs, states) if e is not None]
                candidate = build_graph(n, list(labels), edges, edge_labels=True)
                sod = 0.0
                for gp in collection:
                    sod += ged_exact(model, candidate, gp).cost
                    if sod >= best:
                        break
                if sod < best:
                    best, best_graph = sod, candidate
    return best, best_graph
