"""Edit-distance solvers between two attributed graphs.

:func:`ged_exact` enumerates every transformation, exact but exponential:
stacks of maps are scored in :func:`costs.forward_cost`'s own arithmetic, so
under every model the lexicographically smallest of the maps that cost
least wins.
Every other method runs one pipeline per pair of graphs, and every method
checks a pair as its step 1 does:

1. check the model against both graphs, that removing one graph and
   inserting the other whole has a finite cost, and that every vertex
   substitution cost is finite, by building the quadratic form of the edit
   cost over the substitution block of a map (:class:`_QapForm`) once; its
   edge terms are built only if IPFP runs;
2. take the bipartite start, one linear assignment over vertices enriched
   with their incident edges (:func:`ged_bipartite`);
3. for ``mbipartite`` and ``mipfp``, add ``multistart_count`` seeded random
   maximal maps;
4. for ``ipfp`` and ``mipfp``, refine every start by iterated linear
   approximation of the quadratic cost (:func:`_ipfp_refine`), else score it.
   The relaxed point x is an n x n2 substitution block; removal and
   insertion are what its rows and columns leave, so each step's linear
   problem is a partial matching on the n x n2 gradient, pairing a vertex
   only where that lowers the objective (:func:`lsap.solve_partial`). Each
   step takes one Hessian product, on that step's map b: ``hb = H b`` is a
   row gather and one GEMM, O(B n^2 n2) for the B = 1 + L edge terms.
   ``H x`` is carried by linearity, ``H x' = H x + alpha (hb - H x)``. A
   full step (alpha = 1) lands exactly on b and resets the whole state to
   b's own, as a start from b holds it: ``x = b``, ``H x = hb`` and the
   relaxed value of b, so rounding does not accumulate across full steps.
   A start stops once the linear gap or one step's decrease of the relaxed
   objective is at most ``_IPFP_TOL`` times its value (Bougleux et al.
   2017), or at ``_IPFP_MAX_ITERS`` steps. A start that ends off a map is
   projected back to one by one more partial matching. Every map visited is
   yielded, with its relaxed value where a product gives it; a gap stop on
   the map the iterate already sits on does not yield that map again.
   As the rest of a start depends on its current map alone, the starts of
   a solve share up to ``_EXPLORED_MAPS`` explored maps: the maps they
   began at or landed on by a full step and walked on from. A start that
   begins at or lands on one stops there, because an earlier start has
   yielded the rest of its walk. A landing where the drop stop ends its
   start is not explored, nor is any map of a start that the step cap cuts
   (the cap counts from each start; no start of the tests or benchmarks
   reaches it);
5. keep the cheapest map, ties to the lexicographically smaller one, and
   build its :class:`Transformation`. A relaxed value is its map's cost up
   to rounding, so :func:`costs.forward_cost`'s rule prices a map without a
   finite one at once, keeps the others only while their value is within
   ``_SCREEN_MARGIN`` of the lowest so far, and prices those in ascending
   value until one is beyond the margin of the best cost: no other can win.

Every result carries a concrete transformation whose true cost is the
reported value, so heuristic outputs are always valid upper bounds. A pair
with an empty side has one map, which every method returns and reports as
exact.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lsap
from .costs import (
    CostModel,
    LabelDelta,
    _map_cost,
    _stack_costs,
    _vertex_subst_matrix,
    check_model_compatible,
)
from .graphs import AttributedGraph, Transformation, transformation_from_forward

__all__ = [
    "SolverError",
    "GedSolverConfig",
    "GedResult",
    "METHODS",
    "ged_exact",
    "ged_bipartite",
    "solve_ged",
]

METHODS = ("exact", "bipartite", "ipfp", "mbipartite", "mipfp")


class SolverError(ValueError):
    """Unusable solver configuration or input."""


def _check_whole(error: type[Exception], **settings) -> None:
    """Raise ``error`` naming the first setting that is not an integer; a bool is none."""
    for name, value in settings.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise error(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GedSolverConfig:
    """The method, and the count and seed of the random starts of ``mbipartite`` and ``mipfp``."""

    method: str = "mipfp"
    multistart_count: int = 40
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise SolverError(f"unknown method {self.method!r}, expected one of {METHODS}")
        _check_whole(SolverError, multistart_count=self.multistart_count, rng_seed=self.rng_seed)
        if self.multistart_count < 1:
            raise SolverError("multistart_count must be at least 1")
        if self.rng_seed < 0:
            raise SolverError(f"rng_seed must be non-negative, got {self.rng_seed!r}")


@dataclass(slots=True)
class GedResult:
    """A transformation, its cost, and whether the cost is provably minimal."""

    transformation: Transformation
    cost: float
    is_exact: bool


_EXACT_ORDER_CAP = 8  # larger orders are refused; two graphs of order 8 have 1,441,729 maps
_EXACT_STACK = 4096  # maps scored per array pass; bounds memory whatever the order cap
_IPFP_TOL = 1e-4  # relative stop of an IPFP start, see the module docstring
_IPFP_MAX_ITERS = 50  # steps per IPFP start
_SCREEN_MARGIN = 1e-9  # relative; a relaxed value this far above the best cost is no rounding error
_EXPLORED_MAPS = 256  # maps per solve whose IPFP walk later starts skip, see _ipfp_refine


def _within_margin(value: float, bound: float) -> bool:
    """Whether ``value`` is at most ``bound`` up to the rounding that ``_SCREEN_MARGIN`` allows."""
    return value <= bound + _SCREEN_MARGIN * max(1.0, abs(bound))


def ged_exact(model: CostModel, g: AttributedGraph, g2: AttributedGraph) -> GedResult:
    """Exact edit distance by full enumeration of transformations.

    Enumeration is exponential; graphs larger than ``_EXACT_ORDER_CAP`` are
    rejected. For each number k of substitutions and each k-subset of
    source vertices, the images run through every k-permutation of target
    vertices in lexicographic order, scored in stacks of at most
    ``_EXACT_STACK`` maps by :func:`costs._stack_costs`, which prices the
    stack's edit counts by ``costs._price`` as :func:`costs.forward_cost`
    prices one map's. So under every model the result is the least
    ``(forward_cost, forward map)`` pair: among cost ties the
    lexicographically smallest forward map wins. The pair is checked as
    every method checks it, by building its :class:`_QapForm`.
    """
    if max(g.order, g2.order) > _EXACT_ORDER_CAP:
        raise SolverError(
            f"orders ({g.order}, {g2.order}) exceed the exact enumeration cap {_EXACT_ORDER_CAP}"
        )
    _QapForm(model, g, g2)  # the pair check of every method; the form itself is not used
    n, n2 = g.order, g2.order
    best: tuple[float, tuple[int, ...]] = (np.inf, ())
    for k in range(min(n, n2) + 1):
        for subset in itertools.combinations(range(n), k):
            sources = np.array(subset, dtype=np.int64)
            images = itertools.permutations(range(n2), k)
            while batch := list(itertools.islice(images, _EXACT_STACK)):
                stack = np.array(batch, dtype=np.int64).reshape(len(batch), k)
                costs = _stack_costs(model, sources, stack, g, g2)
                # the stack is in lexicographic order, so argmin takes the smallest tied map
                i = int(np.argmin(costs))
                forward = np.full(n, n2, dtype=np.int64)
                forward[sources] = stack[i]
                best = min(best, (float(costs[i]), tuple(forward.tolist())))
    # the removal of every vertex, among the first maps scored, has a finite cost, so best holds a map
    f = np.asarray(best[1], dtype=np.int64)
    return GedResult(transformation_from_forward(f, n, n2), best[0], True)


def _edge_labels(g: AttributedGraph) -> set[int]:
    """Labels on the edges of ``g``, as a set: np.union1d and np.intersect1d would import numpy.ma."""
    return set(g.edge_attrs[g.adjacency == 1].tolist())


def _incident_edge_matrix(model: CostModel, g: AttributedGraph, g2: AttributedGraph) -> np.ndarray:
    """Optimal matching cost between the incident edges of every vertex pair.

    As :class:`CostModel` enforces ``c_es <= c_er + c_ei``, a best matching
    substitutes ``min(d1, d2)`` edges, pairing equal labels first.
    """
    d1 = g.degrees[:, None]
    d2 = g2.degrees[None, :]
    cost = model.c_er * np.maximum(d1 - d2, 0) + model.c_ei * np.maximum(d2 - d1, 0)
    if isinstance(model.edge_subst, LabelDelta):
        labels = np.array(sorted(_edge_labels(g) | _edge_labels(g2)), dtype=np.int64)
        # h[lab, i]: edges with label labels[lab] incident to vertex i
        h1 = ((g.edge_attrs == labels[:, None, None]) & (g.adjacency == 1)).sum(axis=2)
        h2 = ((g2.edge_attrs == labels[:, None, None]) & (g2.adjacency == 1)).sum(axis=2)
        common = np.minimum(h1[:, :, None], h2[:, None, :]).sum(axis=0)
        cost = cost + model.edge_subst.cost * (np.minimum(d1, d2) - common)
    return cost


def ged_bipartite(model: CostModel, g: AttributedGraph, g2: AttributedGraph) -> GedResult:
    """Assignment-based upper bound on the edit distance.

    The bipartite cost of Riesen and Bunke (2009): a substitution cell adds
    to the vertex cost half of ``c_es*(min(d1, d2) - common) +
    c_er*max(0, d1 - d2) + c_ei*max(0, d2 - d1)``, with ``d1``, ``d2`` the
    degrees and ``common = sum(min(h1, h2))`` over incident edge label
    histograms; removal and insertion cells charge the vertex constant plus
    half of the incident edge removals or insertions. One linear assignment
    yields a vertex map, and the reported cost is the true cost of the
    induced transformation (not the assignment objective).
    """
    return _solve(model, g, g2, GedSolverConfig(method="bipartite"))


class _QapForm:
    """Quadratic form of the edit cost over the substitution block of a map.

    A map from ``g`` (order n) to ``g2`` (order n2) is an n x n2 partial
    permutation matrix S; IPFP relaxes it to ``S >= 0`` with row and column
    sums at most 1. Over the augmented (n + n2) x (n2 + n) assignment layout
    (Bougleux et al., "Graph edit distance as a quadratic assignment
    problem", 2017) the removal and insertion cells hold ``1 - S.sum(1)``
    and ``1 - S.sum(0)``, and the slack block carries no cost and no
    gradient, so the augmented relaxed objective is exactly

        ``c0 + <W, S> + 0.5 <S, H S>``, with
        ``c0 = n c_vr + n2 c_vi + c_er |E| + c_ei |E2|``,
        ``W = C_sub - c_vr - c_vi``,
        ``H S = -(c_er + c_ei - c_es) A S A2 - c_ei S A2 - c_es sum_l A_l S A2_l``,

    for the vertex substitution costs C_sub, the adjacency matrices A, A2
    and their edges labelled l, A_l and A2_l. The ``-c_ei S A2`` term is
    zero on maps; it stays so that fractional points follow the augmented
    relaxation. On a map ``S @ M = M[forward]`` for M padded with
    a zero row n2 (the image of a removed vertex), so :meth:`product` is a
    row gather of the (B, n2 + 1, n2) stack of right factors and of
    ``c_ei A2``, and one (n, B*n) x (B*n, n2) GEMM, B = 1 + L.
    """

    def __init__(self, model: CostModel, g: AttributedGraph, g2: AttributedGraph):
        check_model_compatible(model, g, g2)
        self.model, self.g, self.g2 = model, g, g2
        self.n, self.n2 = n, n2 = g.order, g2.order
        e, e2 = g.n_edges, g2.n_edges
        # removing g and inserting g2 whole: under label costs no map costs more, so every solver cost is finite
        self.c0 = n * model.c_vr + n2 * model.c_vi + e * model.c_er + e2 * model.c_ei
        if not math.isfinite(self.c0):
            raise SolverError(
                f"{n}*c_vr + {n2}*c_vi + {e}*c_er + {e2}*c_ei overflows with c_vr={model.c_vr!r}, "
                f"c_vi={model.c_vi!r}, c_er={model.c_er!r}, c_ei={model.c_ei!r}"
            )
        # names a vertex pair whose squared distance overflows, which ged_exact's stacks only sum to inf
        self.subst = _vertex_subst_matrix(model, g.vertex_attrs, g2.vertex_attrs)
        self.linear = self.subst - model.c_vr - model.c_vi
        # rows[forward] is the partial permutation matrix of a map
        self.rows = np.eye(self.n2 + 1)[:, : self.n2]

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lcat, right, inserted)`` with ``H S = lcat @ vstack_b(S right_b) - S inserted`` and
        ``inserted = c_ei right_0``; built on first use."""
        g, g2, n, n2 = self.g, self.g2, self.n, self.n2
        cer, cei = self.model.c_er, self.model.c_ei
        ces = self.model.edge_subst.cost if isinstance(self.model.edge_subst, LabelDelta) else 0.0
        # a kept edge needs an edge in each graph (c_er + c_ei can overflow only when one has none),
        # and only a label on edges of both can be kept unchanged
        both = g.n_edges and g2.n_edges
        labels = []
        if both and ces:
            labels = sorted(_edge_labels(g) & _edge_labels(g2))
        B = 1 + len(labels)
        lcat = np.zeros((n, B, n))
        right = np.zeros((B, n2 + 1, n2))
        right[0, :n2] = g2.adjacency
        if both:
            lcat[:, 0] = -(cer + cei - ces) * g.adjacency
        for b, label in enumerate(labels, 1):
            lcat[:, b] = -ces * g.adjacency * (g.edge_attrs == label)
            right[b, :n2] = g2.adjacency * (g2.edge_attrs == label)
        return lcat.reshape(n, B * n), right, cei * right[0]

    def product(self, forward: np.ndarray) -> np.ndarray:
        """``H S`` for the partial permutation matrix S of ``forward``."""
        lcat, right, inserted = self._factors
        gathered = right.take(forward, axis=1).reshape(lcat.shape[1], self.n2)
        return lcat @ gathered - inserted.take(forward, axis=0)

    def cheapest(self, visited: Iterable[tuple[np.ndarray, float | None]]) -> tuple[float, tuple[int, ...]]:
        """(true cost, forward tuple) of the cheapest of (forward, relaxed value or None), ties to the smaller map.

        A map without a finite relaxed value is priced at once. A valued map is kept, once, while its
        value is within ``_SCREEN_MARGIN`` of the lowest value so far; at the end the kept maps are
        priced in ascending value until one is beyond the margin of the best cost: no later one can win.
        """
        best: tuple[float, tuple[int, ...] | None] = (np.inf, None)
        low, kept = np.inf, {}  # the lowest relaxed value; key -> (value, forward) of the maps near it
        for forward, value in visited:
            key = tuple(forward.tolist())
            if value is None or not math.isfinite(value):
                best = self._priced(best, forward, key)
            elif _within_margin(value, low):
                if value < low:
                    low = value
                    kept = {k: kv for k, kv in kept.items() if _within_margin(kv[0], low)}
                kept[key] = (value, forward)
        for key, (value, forward) in sorted(kept.items(), key=lambda item: item[1][0]):
            if not _within_margin(value, best[0]):
                break
            best = self._priced(best, forward, key)
        return best

    def _priced(
        self, best: tuple[float, tuple[int, ...] | None], forward: np.ndarray, key: tuple[int, ...]
    ) -> tuple[float, tuple[int, ...]]:
        """``best`` or (cost, key) of ``forward``, whichever is smaller; the best map is not priced again."""
        if key == best[1]:
            return best
        # unchecked: a map whose distances overflow only in sum costs inf, as in ged_exact
        cost = _map_cost(self.model, forward, self.g, self.g2)
        return (cost, key) if best[1] is None else min(best, (cost, key))


def _ipfp_refine(
    form: _QapForm, init_forward: np.ndarray, explored: set[tuple[int, ...]] | None = None
) -> Iterator[tuple[np.ndarray, float | None]]:
    """Run the refinement from one initial map; yields every map it visits with its relaxed value,
    but not again the map the iterate sits on when the gap stop finds it.

    A full step resets the state to its map's own, as a start from that map would hold it, so the
    rest of the walk depends on that map alone. ``explored`` holds the maps that earlier starts of
    the solve began at or landed on by a full step and walked on from: this start stops, yielding
    nothing more, once it begins at or lands on one of them. Its own such maps join the set when it
    ends, unless the step cap cut it short, up to ``_EXPLORED_MAPS`` in all.
    """
    explored = set() if explored is None else explored
    key = tuple(init_forward.tolist())
    if key in explored:
        return
    walked = [key]
    x = form.rows[init_forward]
    hx = form.product(init_forward)
    # the relaxed objective at x, lowered by each partial step's exact decrease
    f = form.c0 + float(np.vdot(form.linear, x) + 0.5 * np.vdot(x, hx))
    yield init_forward, f
    alpha = 1.0
    for _ in range(_IPFP_MAX_ITERS):
        grad = form.linear + hx
        forward = lsap.solve_partial(grad)
        b = form.rows[forward]
        d = b - x
        gap = float(np.vdot(grad, d))
        if gap >= -_IPFP_TOL * abs(f):
            if alpha != 1.0 or d.any():  # else b is the map x sits on, already yielded
                yield forward, None
            break
        hb = form.product(forward)
        value = form.c0 + float(np.vdot(form.linear, b) + 0.5 * np.vdot(b, hb))
        yield forward, value
        hd = hb - hx
        curvature = float(np.vdot(d, hd))
        alpha = 1.0 if curvature <= 0 else min(1.0, -gap / curvature)
        drop = -(alpha * gap + 0.5 * alpha**2 * curvature)
        if alpha == 1.0:  # the step lands exactly on b
            x, hx = b, hb
        else:
            x, hx = x + alpha * d, hx + alpha * hd
        if drop <= _IPFP_TOL * abs(f):
            break
        if alpha != 1.0:
            f -= drop
        elif (key := tuple(forward.tolist())) in explored:  # an earlier start has walked on from b
            break
        else:  # the state is b's own, as a start from b holds it, so rounding does not accumulate
            walked.append(key)
            f = value
    else:
        walked = []  # the cap cut the walk, so a later start reaching these maps walks on
    explored.update(walked[: _EXPLORED_MAPS - len(explored)])
    if alpha != 1.0:  # else x is the start or the last step's map, already yielded
        # the map sharing most mass with x, removal and insertion cells included
        removed, inserted = 1.0 - x.sum(axis=1), 1.0 - x.sum(axis=0)
        yield lsap.solve_partial(removed[:, None] + inserted[None, :] - x), None


def _random_maximal_forward(rng: np.random.Generator, n: int, n2: int) -> np.ndarray:
    k = min(n, n2)
    forward = np.full(n, n2, dtype=np.int64)
    forward[rng.permutation(n)[:k]] = rng.permutation(n2)[:k]
    return forward


def _bipartite_forward(form: _QapForm) -> np.ndarray:
    """Map of the bipartite bound: the vertex costs plus half the incident edge costs, on the augmented layout."""
    model, g, g2 = form.model, form.g, form.g2
    cost = lsap.build_assignment_problem(
        form.subst + 0.5 * _incident_edge_matrix(model, g, g2),
        model.c_vr + 0.5 * model.c_er * g.degrees,
        model.c_vi + 0.5 * model.c_ei * g2.degrees,
    )
    return np.minimum(lsap._assignment(cost)[: form.n], form.n2)


def _solve(model: CostModel, g: AttributedGraph, g2: AttributedGraph, config: GedSolverConfig) -> GedResult:
    """The pipeline of the module docstring, for every method but ``exact``."""
    n, n2 = g.order, g2.order
    form = _QapForm(model, g, g2)
    starts = [_bipartite_forward(form)]
    if config.method in ("mbipartite", "mipfp"):
        # drawn one at a time as they are refined, so memory does not grow with the count
        rng = np.random.default_rng(config.rng_seed)
        randoms = (_random_maximal_forward(rng, n, n2) for _ in range(config.multistart_count))
        starts = itertools.chain(starts, randoms)
    refine, explored = config.method in ("ipfp", "mipfp"), set()
    visited = (_ipfp_refine(form, f, explored) if refine else [(f, None)] for f in starts)
    cost, forward = form.cheapest(itertools.chain.from_iterable(visited))
    return GedResult(transformation_from_forward(forward, n, n2), cost, min(n, n2) == 0)


def solve_ged(
    model: CostModel, g: AttributedGraph, g2: AttributedGraph, config: GedSolverConfig
) -> GedResult:
    """Dispatch on ``config.method``.

    ``ipfp`` initializes from the bipartite solution; the multistart methods
    add ``multistart_count`` random starts on top of it. Candidates are
    ranked by true cost, ties by lexicographic forward map, so the outcome
    is deterministic for a given seed.
    """
    if config.method == "exact":
        return ged_exact(model, g, g2)
    return _solve(model, g, g2, config)
