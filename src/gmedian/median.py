"""Median graphs of a collection under edit distance, by alternating descent.

The median search alternates two blocks until a fixed point: with the
per-graph transformations held fixed, every attribute and adjacency
coordinate of the candidate median has a closed-form optimum (majority
label, attribute mean, or an exact edge rule); with the median held
fixed, each transformation is re-optimized by a configured solver and the
new map is adopted only when it is strictly cheaper, with no tolerance,
than the previous one re-evaluated against the updated median. The sum
of the transformation costs (an upper bound on the sum of distances,
``sod_upper``) therefore never increases: a step whose rounded sum would
come out higher (a median move at a tie, under constants such as 0.1) is
undone, and the descent stops there. The candidate order is fixed by the
initializer, the collection member minimizing the sum of estimated
distances (set median).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostModel, LabelDelta, _integers, check_model_compatible, forward_cost
from .graphs import (
    LABEL,
    AttributedGraph,
    Transformation,
    _projected,
    graphs_equal,
    identity_transformation,
)
from .solvers import GedResult, GedSolverConfig, solve_ged

__all__ = [
    "DescentConfig",
    "IterationRecord",
    "MedianState",
    "SubstitutionSets",
    "SetMedianResult",
    "MedianResult",
    "set_median",
    "collect_substitution_sets",
    "update_vertex_labels",
    "update_vertex_vectors",
    "update_edges_labeled",
    "update_edges_unlabeled",
    "update_transformations",
    "compute_median",
]

log = logging.getLogger("gmedian.median")

_MAX_ITERS = 100  # descent steps; no descent of the tests or benchmarks reaches it


@dataclass(frozen=True)
class DescentConfig:
    """Solvers for the two phases of the median search."""

    ged_phase1: GedSolverConfig = GedSolverConfig(method="mbipartite")
    ged_phase2: GedSolverConfig = GedSolverConfig(method="mipfp")


@dataclass
class IterationRecord:
    """One descent step: upper bound on the sum of distances and churn."""

    iteration: int
    sod_upper: float
    changed: int
    seconds: float


@dataclass
class MedianState:
    """Candidate median with the transformations onto every member."""

    median: AttributedGraph
    transformations: list[Transformation]
    sod_upper: float
    iteration: int


@dataclass
class SubstitutionSets:
    """The collection members read through their maps onto the median's vertices.

    ``targets`` has shape (m, n): ``targets[p, i]`` is the vertex of member
    ``p`` that median vertex ``i`` is substituted to, or -1 when ``i`` is
    removed. ``edges`` has shape (m, n, n): ``edges[p, i, j]`` is 1 when
    both endpoints are substituted and their images are adjacent in member
    ``p``. The same entries by median coordinate: ``vertex_sets[i]`` lists
    ``(p, k)``, median vertex ``i`` substituted to vertex ``k`` of member
    ``p``; ``edge_sets[(i, j)]`` (i < j, present only when non-empty) lists
    ``(p, (k, l))``, the pair mapped onto the edge ``(k, l)`` of member ``p``.

    ``values`` has shape (m, n) for labels or (m, n, d) for vectors:
    ``values[p, i]`` is the attribute of the vertex of member ``p`` that
    median vertex ``i`` is substituted to, 0 where ``i`` is removed.
    ``labels`` has shape (m, n, n): ``labels[p, i, j]`` is the entry of
    member ``p``'s edge-attribute matrix at the images of ``i`` and ``j``,
    0 where either is removed; it is ``None`` unless the median and every
    member have labelled edges.
    """

    targets: np.ndarray
    edges: np.ndarray
    values: np.ndarray
    labels: np.ndarray | None

    @property
    def vertex_sets(self) -> list[list[tuple[int, int]]]:
        return [[(p, int(k)) for p, k in enumerate(column) if k >= 0] for column in self.targets.T]

    @property
    def edge_sets(self) -> dict[tuple[int, int], list[tuple[int, tuple[int, int]]]]:
        sets: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}
        for p, i, j in zip(*np.triu(self.edges, 1).nonzero()):
            k, l = self.targets[p, i], self.targets[p, j]
            sets.setdefault((int(i), int(j)), []).append((int(p), (int(k), int(l))))
        return sets


@dataclass
class SetMedianResult:
    """Index of the best member, all ordered-pair results, and its SOD."""

    index: int
    results: list[list[GedResult]]
    sod: float

    @property
    def transformations(self) -> list[Transformation]:
        return [r.transformation for r in self.results[self.index]]


@dataclass
class MedianResult:
    """The median, its maps and the descent trace, which holds every SOD.

    ``converged``: the last step changed neither the median nor any map.
    ``iterations`` counts the kept steps; below the cap of ``_MAX_ITERS``
    without ``converged``, the descent stopped at a step it undid.
    """

    median: AttributedGraph
    transformations: list[Transformation]
    trace: list[IterationRecord]
    set_median_index: int
    converged: bool
    t_phase1: float
    t_phase2: float

    @property
    def sod(self) -> float:
        return self.trace[-1].sod_upper

    @property
    def set_median_sod(self) -> float:
        return self.trace[0].sod_upper

    @property
    def iterations(self) -> int:
        return self.trace[-1].iteration


def _child_seed(base: int, *tags: int) -> int:
    return int(np.random.SeedSequence([base, *tags]).generate_state(1)[0])


def _seeded(config: GedSolverConfig, *tags: int) -> GedSolverConfig:
    """``config`` with a seed drawn from its own seed and ``tags``."""
    return replace(config, rng_seed=_child_seed(config.rng_seed, *tags))


def set_median(
    model: CostModel, collection: list[AttributedGraph], config: GedSolverConfig
) -> SetMedianResult:
    """Collection member minimizing the sum of estimated distances.

    Solves every ordered pair (the diagonal is the zero-cost identity),
    ranks members by row sum, and breaks ties towards the smallest index.
    Each pair solve draws its own seed from ``config.rng_seed`` and
    ``(p, q)``, so the outcome does not depend on evaluation order.
    """
    if not collection:
        raise ValueError("collection must be non-empty")
    m = len(collection)

    def solve_pair(p: int, q: int) -> GedResult:
        if p == q:
            return GedResult(identity_transformation(collection[p].order), 0.0, True)
        return solve_ged(model, collection[p], collection[q], _seeded(config, p, q))

    results = [[solve_pair(p, q) for q in range(m)] for p in range(m)]
    row_sums = np.array([sum(r.cost for r in row) for row in results])
    index = int(np.argmin(row_sums))
    return SetMedianResult(index, results, float(row_sums[index]))


def collect_substitution_sets(
    state: MedianState, collection: list[AttributedGraph]
) -> SubstitutionSets:
    """Read every member through its map onto the median's vertices, once per member."""
    median = state.median
    m, n = len(collection), median.order
    targets = np.full((m, n), -1, dtype=np.int64)
    edges = np.zeros((m, n, n), dtype=np.int8)
    values = np.zeros((m, *median.vertex_attrs.shape), median.vertex_attrs.dtype)
    labelled = median.edge_mode == LABEL and all(gp.edge_mode == LABEL for gp in collection)
    labels = np.zeros((m, n, n), dtype=np.int64) if labelled else None
    for p, (t, gp) in enumerate(zip(state.transformations, collection)):
        sub = t.substituted
        targets[p] = np.where(sub, t.forward, -1)
        if sub.any():  # an empty member may state a vector width of its own
            values[p, sub] = gp.vertex_attrs[t.forward[sub]]
        edges[p] = _projected(gp.adjacency, t.forward)
        if labels is not None:
            labels[p] = _projected(gp.edge_attrs, t.forward)
    return SubstitutionSets(targets, edges, values, labels)


def _majority(filled: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most frequent value per slot over the members that fill it, and its count.

    ``filled`` (bool) and ``values`` have shape (m, ...), one row per member.
    Ties go to the smallest value; a slot no member fills gets count 0.
    """
    label, top = np.zeros((2, *filled.shape[1:]), dtype=np.int64)
    # ascending, and only a strictly higher count wins; a set, as np.unique would import numpy.ma
    for value in sorted(set(values[filled].tolist())):
        count = (filled & (values == value)).sum(axis=0)
        better = count > top
        label[better], top[better] = value, count[better]
    return label, top


def update_vertex_labels(
    median: AttributedGraph, sets: SubstitutionSets, collection: list[AttributedGraph]
) -> np.ndarray:
    """Majority label over the substituted positions; unchanged when none."""
    label, top = _majority(sets.targets >= 0, sets.values)
    return np.where(top > 0, label, median.vertex_attrs)


def update_vertex_vectors(
    median: AttributedGraph, sets: SubstitutionSets, collection: list[AttributedGraph]
) -> np.ndarray:
    """Mean of the substituted attribute vectors; unchanged when none.

    One sum over the members, divided by the substitution counts. At widths
    of 2 or more numpy adds the members in order, as ``np.mean`` adds one
    vertex's vectors, so the mean has those bits wherever they are finite.
    Vectors that overflow in sum are summed again scaled by 2^-bitlen(m),
    which is exact, so the mean of finite vectors is finite.
    """
    sub = (sets.targets >= 0)[..., None]
    count = np.maximum(sub.sum(axis=0), 1)  # a vertex no member fills keeps its vector below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = sets.values.sum(axis=0) / count
    if not np.isfinite(mean).all():
        b = len(collection).bit_length()
        mean = np.where(np.isfinite(mean), mean, np.ldexp(np.ldexp(sets.values, -b).sum(axis=0) / count, b))
    return np.where(sub.any(axis=0), mean, median.vertex_attrs)


def _kept(model: CostModel, ces: float, m: int, s: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Adjacency by ``c_es (s - top) + c_er (m - s) < c_ei s``, decided exactly.

    The three constants are written as integers over one power of two and the
    rule is compared in Python integers, so no term rounds or overflows.
    """
    es, er, ei = _integers(ces, model.c_er, model.c_ei)
    s = s.astype(object)
    return (es * (s - top) + er * (m - s) < ei * s).astype(np.int8)


def update_edges_labeled(
    median: AttributedGraph,
    sets: SubstitutionSets,
    collection: list[AttributedGraph],
    model: CostModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal adjacency and edge labels for fixed transformations.

    Per vertex pair the best label is the majority label over the mapped
    edges, of count ``top``. Of the ``m`` members, ``s`` map an edge onto
    the pair; the edge exists iff keeping it costs less than dropping it,
    ``c_es (s - top) + c_er (m - s) < c_ei s``, decided exactly. Ties drop
    the edge; the label is kept unchanged where no edge is mapped.
    """
    if not isinstance(model.edge_subst, LabelDelta):
        raise ValueError("labeled edge update needs a label-delta edge cost")
    if sets.labels is None:
        raise ValueError("labeled edge update needs labelled edges on the median and every member")
    mapped = sets.edges == 1
    top_label, top = _majority(mapped, sets.labels)
    s = mapped.sum(axis=0)
    adjacency = _kept(model, model.edge_subst.cost, len(collection), s, top)
    return adjacency, np.where(s > 0, top_label, median.edge_attrs)


def update_edges_unlabeled(
    median: AttributedGraph,
    sets: SubstitutionSets,
    collection: list[AttributedGraph],
    model: CostModel,
) -> np.ndarray:
    """Optimal adjacency for fixed transformations, attribute-free edges.

    The labelled rule with ``c_es = 0`` and ``top = s``: the edge exists iff
    ``c_er (m - s) < c_ei s``, decided exactly; ties drop the edge.
    """
    s = sets.edges.sum(axis=0)
    return _kept(model, 0.0, len(collection), s, s)


def _updated_median(
    state: MedianState, collection: list[AttributedGraph], model: CostModel
) -> AttributedGraph:
    sets = collect_substitution_sets(state, collection)
    if state.median.vertex_mode == LABEL:
        phi = update_vertex_labels(state.median, sets, collection)
    else:
        phi = update_vertex_vectors(state.median, sets, collection)
    if state.median.edge_mode == LABEL:
        adjacency, attrs = update_edges_labeled(state.median, sets, collection, model)
    else:
        adjacency = update_edges_unlabeled(state.median, sets, collection, model)
        attrs = None
    return AttributedGraph(phi, adjacency, attrs, state.median.graph_id)


def update_transformations(
    median: AttributedGraph,
    transformations: list[Transformation],
    collection: list[AttributedGraph],
    model: CostModel,
    config: GedSolverConfig,
    iteration: int = 0,
) -> tuple[list[Transformation], float, int]:
    """Re-optimize every transformation against ``median``, keep-if-better.

    A solver candidate replaces the previous map only when its cost is
    strictly below the previous map's cost against the updated median, with
    no tolerance: the floats compared are those summed, so the summed cost
    never increases. Returns the new maps, their summed cost, and how many
    were replaced.
    """
    new_ts: list[Transformation] = []
    costs: list[float] = []
    changed = 0
    for p, gp in enumerate(collection):
        t = transformations[p]
        cost = forward_cost(model, t.forward, median, gp)
        cand = solve_ged(model, median, gp, _seeded(config, iteration, p))
        if cand.cost < cost:
            t, cost = cand.transformation, cand.cost
            changed += 1
        new_ts.append(t)
        costs.append(cost)
    return new_ts, float(sum(costs)), changed


def _descend(
    model: CostModel,
    collection: list[AttributedGraph],
    state: MedianState,
    config: GedSolverConfig,
) -> tuple[MedianState, list[IterationRecord], bool]:
    """Phase 2 from ``state``, up to step ``_MAX_ITERS``; step ``it`` seeds its solves by ``(it, p)``.

    A step whose ``sod_upper`` exceeds the previous one is undone, left out
    of the trace, and ends the descent. Returns the final state, the trace
    from ``state`` on, and whether the last kept step was a fixed point.
    """
    trace = [IterationRecord(state.iteration, state.sod_upper, 0, 0.0)]
    log.info("iteration=%d sod_upper=%.12g changed=0", state.iteration, state.sod_upper)
    converged = False
    for it in range(state.iteration + 1, _MAX_ITERS + 1):
        tick = time.perf_counter()
        median = _updated_median(state, collection, model)
        maps, sod_upper, changed = update_transformations(
            median, state.transformations, collection, model, config, iteration=it
        )
        if sod_upper > state.sod_upper:
            log.info("iteration=%d sod_upper=%.12g rose, step undone", it, sod_upper)
            break
        # a map is replaced only by a strictly cheaper, hence different, one
        converged = changed == 0 and graphs_equal(median, state.median)
        state = MedianState(median, maps, sod_upper, it)
        seconds = time.perf_counter() - tick
        trace.append(IterationRecord(it, sod_upper, changed, seconds))
        log.info(
            "iteration=%d sod_upper=%.12g changed=%d seconds=%.4f", it, sod_upper, changed, seconds
        )
        if converged:
            break
    return state, trace, converged


def compute_median(
    model: CostModel, collection: list[AttributedGraph], config: DescentConfig = DescentConfig()
) -> MedianResult:
    """Generalized median search: set-median init, then alternating descent.

    Phase 1 picks the set median with ``config.ged_phase1``. Phase 2
    alternates the closed-form median update with the keep-if-better
    transformation update using ``config.ged_phase2``, until a step changes
    neither the median (compared exactly) nor any forward map, step
    ``_MAX_ITERS`` (100) is done, or a step would raise ``sod_upper`` (that
    step is undone). The trace starts with the set median as iteration 0,
    and its ``sod_upper`` values never increase.
    """
    if not collection:
        raise ValueError("collection must be non-empty")
    check_model_compatible(model, *collection)

    t0 = time.perf_counter()
    sm = set_median(model, collection, config.ged_phase1)
    t1 = time.perf_counter()
    # a copy of the set median, so its maps' costs and their row sum are already known
    start = MedianState(replace(collection[sm.index], graph_id="median"), sm.transformations, sm.sod, 0)
    state, trace, converged = _descend(model, collection, start, config.ged_phase2)
    t2 = time.perf_counter()
    return MedianResult(state.median, state.transformations, trace, sm.index, converged, t1 - t0, t2 - t1)
