"""Seeded input generators for the benchmark workloads.

Graphs are produced as plain Python structures, ``(attrs, edges)`` with
``attrs`` a list of vertex labels or 2-D points and ``edges`` a dict mapping
``(i, j)`` (i < j) to an edge label, or to ``None`` for unlabeled edges. The
workloads turn them into library graphs. Every perturbation applies a fixed
number of each operation, so the edit effort, and with it the run time and
the objectives, varies little from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

INSERT_DEGREE = 2  # edges that join an inserted vertex to the rest
LETTER_JITTER = 0.3  # standard deviation of the point noise, in canvas units
LETTER_DROPPED = 1  # strokes removed per distorted letter
LETTER_SPLIT = 1  # strokes split in two at a new point per distorted letter


@dataclass(frozen=True)
class Perturbation:
    """How many of each edit one noisy copy receives."""

    relabel_vertices: int
    relabel_edges: int
    drop_edges: int
    add_edges: int
    delete_vertices: int
    insert_vertices: int


def random_labeled_graph(rng, order, n_edges, vertex_labels, edge_labels):
    """Connected labeled graph: a random spanning tree plus random extra edges."""
    attrs = [int(rng.integers(1, vertex_labels + 1)) for _ in range(order)]
    perm = [int(v) for v in rng.permutation(order)]
    edges = {}
    for pos in range(1, order):
        u, v = perm[pos], perm[int(rng.integers(0, pos))]
        edges[(min(u, v), max(u, v))] = int(rng.integers(1, edge_labels + 1))
    absent = [(i, j) for i in range(order) for j in range(i + 1, order) if (i, j) not in edges]
    extra = max(0, min(n_edges - len(edges), len(absent)))
    for k in rng.permutation(len(absent))[:extra]:
        edges[absent[int(k)]] = int(rng.integers(1, edge_labels + 1))
    return attrs, edges


def _pick(rng, items, k):
    return [items[int(i)] for i in rng.permutation(len(items))[: min(k, len(items))]]


def _other_label(rng, label, n_labels):
    new = int(rng.integers(1, n_labels))
    return new + 1 if new >= label else new


def perturb(rng, graph, spec, vertex_labels, edge_labels):
    """Noisy copy of a labeled graph, with its vertices shuffled."""
    attrs, edges = list(graph[0]), dict(graph[1])
    for i in _pick(rng, list(range(len(attrs))), spec.relabel_vertices):
        attrs[i] = _other_label(rng, attrs[i], vertex_labels)
    for e in _pick(rng, sorted(edges), spec.relabel_edges):
        edges[e] = _other_label(rng, edges[e], edge_labels)
    for e in _pick(rng, sorted(edges), spec.drop_edges):
        del edges[e]
    n = len(attrs)
    absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    for e in _pick(rng, absent, spec.add_edges):
        edges[e] = int(rng.integers(1, edge_labels + 1))

    gone = set(_pick(rng, list(range(n)), spec.delete_vertices))
    keep = [i for i in range(n) if i not in gone]
    new_index = {old: new for new, old in enumerate(keep)}
    attrs = [attrs[i] for i in keep]
    edges = {
        (new_index[i], new_index[j]): lab
        for (i, j), lab in edges.items()
        if i in new_index and j in new_index
    }
    for _ in range(spec.insert_vertices):
        v = len(attrs)
        attrs.append(int(rng.integers(1, vertex_labels + 1)))
        for u in _pick(rng, list(range(v)), INSERT_DEGREE):
            edges[(u, v)] = int(rng.integers(1, edge_labels + 1))
    return shuffle(rng, (attrs, edges))


def shuffle(rng, graph):
    """Same graph under a random vertex numbering."""
    attrs, edges = graph
    perm = [int(v) for v in rng.permutation(len(attrs))]  # old vertex -> new vertex
    new_attrs = [None] * len(attrs)
    for old, new in enumerate(perm):
        new_attrs[new] = attrs[old]
    new_edges = {}
    for (i, j), lab in edges.items():
        a, b = perm[i], perm[j]
        new_edges[(min(a, b), max(a, b))] = lab
    return new_attrs, new_edges


# Capital letters drawn with straight strokes on a 4 x 4 canvas, as in the
# IAM Letter database: vertices are stroke ends and junctions, edges strokes.
LETTERS = {
    "A": ([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 2.0), (4.0, 0.0)],
          [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]),
    "E": ([(3.0, 4.0), (0.0, 4.0), (0.0, 2.0), (2.5, 2.0), (0.0, 0.0), (3.0, 0.0)],
          [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)]),
    "H": ([(0.0, 4.0), (0.0, 2.0), (0.0, 0.0), (4.0, 4.0), (4.0, 2.0), (4.0, 0.0)],
          [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4)]),
    "K": ([(0.0, 4.0), (0.0, 2.0), (0.0, 0.0), (3.0, 4.0), (3.0, 0.0)],
          [(0, 1), (1, 2), (1, 3), (1, 4)]),
    "T": ([(0.0, 4.0), (2.0, 4.0), (4.0, 4.0), (2.0, 0.0)], [(0, 1), (1, 2), (1, 3)]),
}


def distorted_letter(rng, letter):
    """Letter drawing with jittered points, dropped and split strokes, shuffled."""
    points, strokes = LETTERS[letter]
    attrs = [
        (x + float(rng.normal(0.0, LETTER_JITTER)), y + float(rng.normal(0.0, LETTER_JITTER)))
        for x, y in points
    ]
    edges = {(min(i, j), max(i, j)): None for i, j in strokes}
    for e in _pick(rng, sorted(edges), LETTER_DROPPED):
        del edges[e]
    for i, j in _pick(rng, sorted(edges), LETTER_SPLIT):
        del edges[(i, j)]
        t = float(rng.uniform(0.3, 0.7))
        (xi, yi), (xj, yj) = attrs[i], attrs[j]
        w = len(attrs)
        attrs.append((xi + t * (xj - xi), yi + t * (yj - yi)))
        edges[(i, w)] = None
        edges[(j, w)] = None
    return shuffle(rng, (attrs, edges))

