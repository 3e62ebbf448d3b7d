"""Edit-cost model and cost evaluation of vertex transformations.

A map that substitutes ``k`` vertices at substitution cost ``subst`` and keeps
``kept`` undirected edges, ``relabelled`` of them under a new label, costs
``subst + c_vr*(n - k) + c_vi*(n2 - k)`` plus ``c_er*(|E| - kept) +
c_ei*(|E2| - kept) + c_es*relabelled`` (no ``c_es`` term for unattributed
edges). ``_price`` is that rule, for one map or a stack of maps alike.
:func:`forward_cost` prices a raw forward map, :func:`transformation_cost` a
checked :class:`Transformation`. Constants are compared exactly (``_integers``).
A total that overflows raises GraphError where squared vector distances
overflow, CostModelError where the constants do.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import LABEL, NO_EDGE_ATTRS, VECTOR, AttributedGraph, GraphError, Transformation, _projected

__all__ = [
    "CostModelError",
    "LabelDelta",
    "SquaredEuclidean",
    "ZeroCost",
    "CostModel",
    "make_cost_model",
    "check_model_compatible",
    "forward_cost",
    "transformation_cost",
]


class CostModelError(ValueError):
    """Invalid cost model or attribute-variant mismatch."""


@dataclass(frozen=True)
class LabelDelta:
    """Constant cost charged when two labels differ, zero otherwise."""

    cost: float


@dataclass(frozen=True)
class SquaredEuclidean:
    """Squared Euclidean distance between vector attributes."""


@dataclass(frozen=True)
class ZeroCost:
    """Free substitution, for edges that carry no attributes."""


def _constant(name: str, value: float) -> float:
    """``value`` as a float; CostModelError unless it is a finite, non-negative real number."""
    if not isinstance(value, numbers.Real):
        raise CostModelError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer or fraction beyond the float range
        raise CostModelError(f"{name} does not fit in a float") from None
    if not 0 <= value <= sys.float_info.max:  # also false for NaN
        raise CostModelError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def _integers(*constants: float) -> list[int]:
    """The constants as integers over one power of two, their common denominator: exact to add and compare."""
    ratios = [float(c).as_integer_ratio() for c in constants]
    den = max(d for _, d in ratios)
    return [num * (den // d) for num, d in ratios]


@dataclass(frozen=True)
class CostModel:
    """Removal/insertion constants plus substitution cost functions.

    Constants must be finite, non-negative real numbers, stored as floats
    so that every price is float64. A label substitution cost above the
    exact removal + insertion total is rejected: such a model never prefers
    substitution and breaks the minimal-transformation reading of the
    distance. Squared-distance vertex substitution cannot be bounded
    statically and only triggers a RuntimeWarning.
    """

    c_vr: float
    c_vi: float
    c_er: float
    c_ei: float
    vertex_subst: LabelDelta | SquaredEuclidean
    edge_subst: LabelDelta | ZeroCost

    def __post_init__(self) -> None:
        for name in ("c_vr", "c_vi", "c_er", "c_ei"):
            object.__setattr__(self, name, _constant(name, getattr(self, name)))
        if isinstance(self.vertex_subst, LabelDelta):
            c_vs = _constant("vertex substitution cost c_vs", self.vertex_subst.cost)
            object.__setattr__(self, "vertex_subst", LabelDelta(c_vs))
            vs, vr, vi = _integers(c_vs, self.c_vr, self.c_vi)
            if vs > vr + vi:
                raise CostModelError(
                    "vertex substitution cost exceeds removal + insertion"
                )
        elif isinstance(self.vertex_subst, SquaredEuclidean):
            # name the line calling CostModel(...) or make_cost_model(...), not the dataclass __init__
            factory = sys._getframe(2).f_code.co_filename == __file__
            warnings.warn(
                "squared-distance vertex substitution is unbounded and may exceed "
                "removal + insertion for distant attributes",
                RuntimeWarning,
                stacklevel=4 if factory else 3,
            )
        else:
            raise CostModelError("unsupported vertex substitution function")
        if isinstance(self.edge_subst, LabelDelta):
            c_es = _constant("edge substitution cost c_es", self.edge_subst.cost)
            object.__setattr__(self, "edge_subst", LabelDelta(c_es))
            es, er, ei = _integers(c_es, self.c_er, self.c_ei)
            if es > er + ei:
                raise CostModelError("edge substitution cost exceeds removal + insertion")
        elif not isinstance(self.edge_subst, ZeroCost):
            raise CostModelError("unsupported edge substitution function")

    @property
    def vertex_mode(self) -> str:
        return LABEL if isinstance(self.vertex_subst, LabelDelta) else VECTOR

    @property
    def edge_mode(self) -> str:
        return LABEL if isinstance(self.edge_subst, LabelDelta) else NO_EDGE_ATTRS


def make_cost_model(
    vertex_mode: str = LABEL,
    edge_mode: str = LABEL,
    *,
    c_vs: float = 1.0,
    c_es: float = 1.0,
    c_vr: float = 3.0,
    c_vi: float = 3.0,
    c_er: float = 3.0,
    c_ei: float = 3.0,
) -> CostModel:
    """Cost model for the given attribute modes with the usual defaults."""
    if vertex_mode == LABEL:
        vs: LabelDelta | SquaredEuclidean = LabelDelta(c_vs)
    elif vertex_mode == VECTOR:
        vs = SquaredEuclidean()
    else:
        raise CostModelError(f"unknown vertex mode {vertex_mode!r}")
    if edge_mode == LABEL:
        es: LabelDelta | ZeroCost = LabelDelta(c_es)
    elif edge_mode == NO_EDGE_ATTRS:
        es = ZeroCost()
    else:
        raise CostModelError(f"unknown edge mode {edge_mode!r}")
    return CostModel(c_vr, c_vi, c_er, c_ei, vs, es)


def check_model_compatible(model: CostModel, *graphs: AttributedGraph) -> None:
    """CostModelError unless each graph has the model's vertex and edge modes and the graphs with
    vertices share one vector width: the rule under which the model prices maps among them."""
    for g in graphs:
        modes = (("vertex", model.vertex_mode, g.vertex_mode), ("edge", model.edge_mode, g.edge_mode))
        for kind, expected, got in modes:
            if got != expected:
                raise CostModelError(
                    f"cost model expects {expected} {kind} attributes, graph {g.graph_id!r} has {got}"
                )
    if len({g.vector_dim for g in graphs if g.order}) > 1:  # zero vertices show no vector width
        raise CostModelError("vector substitution needs two equal-length vectors")


def _vertex_subst_matrix(model: CostModel, phi: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """Substitution costs between every vertex of one graph and every vertex of another."""
    n, n2 = len(phi), len(phi2)
    if not (n and n2):
        return np.zeros((n, n2))
    if isinstance(model.vertex_subst, LabelDelta):
        return model.vertex_subst.cost * (phi[:, None] != phi2[None, :])
    return _squared_distances(phi[:, None, :], phi2[None, :, :])


def _squared_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared distances between broadcast vectors; GraphError if one pair's overflows."""
    with np.errstate(over="ignore"):
        d = u - v
        dist = (d * d).sum(axis=-1)
    if not np.isfinite(dist).all():  # finite coordinates can still overflow
        at = tuple(np.argwhere(~np.isfinite(dist))[0])
        a, b = np.broadcast_to(u, d.shape)[at], np.broadcast_to(v, d.shape)[at]
        raise GraphError(f"squared distance between vertex vectors {a.tolist()} and {b.tolist()} overflows")
    return dist


def _vector_subst(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Summed squared distances of paired vectors, of one map (k, d) or a stack (K, k, d); ``inf`` on overflow."""
    if not len(u):  # no pairs, so the two widths need not agree
        return 0.0
    with np.errstate(over="ignore"):
        d = u - v
        return (d * d).sum(axis=(-2, -1))


def _price(model: CostModel, g: AttributedGraph, g2: AttributedGraph, k, subst, kept, relabelled):
    """Cost of ``k`` substituted vertices whose substitutions cost ``subst`` and ``kept`` substituted
    edges of which ``relabelled`` change label, for one map (scalars) or a stack of maps (arrays)."""
    vertex = subst + model.c_vr * (g.order - k) + model.c_vi * (g2.order - k)
    edge = model.c_er * (g.n_edges - kept) + model.c_ei * (g2.n_edges - kept)
    if isinstance(model.edge_subst, LabelDelta):
        edge = edge + model.edge_subst.cost * relabelled
    return vertex + edge


def _map_cost(model: CostModel, f: np.ndarray, g: AttributedGraph, g2: AttributedGraph) -> float:
    """Unchecked cost of the forward map ``f``; ``inf`` where it overflows."""
    # counts and sums as Python scalars, so a total that overflows is inf without a numpy warning
    sub = f < g2.order
    targets = f[sub]
    if isinstance(model.vertex_subst, LabelDelta):
        subst = model.vertex_subst.cost * int(np.count_nonzero(g.vertex_attrs[sub] != g2.vertex_attrs[targets]))
    else:
        subst = float(_vector_subst(g.vertex_attrs[sub], g2.vertex_attrs[targets]))
    rows, cols = np.nonzero(g.adjacency & _projected(g2.adjacency, f))
    relabelled = 0
    if isinstance(model.edge_subst, LabelDelta):
        relabelled = int(np.count_nonzero(g.edge_attrs[rows, cols] != g2.edge_attrs[f[rows], f[cols]])) // 2
    return float(_price(model, g, g2, len(targets), subst, len(rows) // 2, relabelled))


def _checked(model: CostModel, total: float, f: np.ndarray, g: AttributedGraph, g2: AttributedGraph) -> float:
    """``total`` if finite; else GraphError if vector distances under ``f`` overflow, CostModelError if not."""
    if math.isfinite(total):
        return total
    if isinstance(model.vertex_subst, SquaredEuclidean):
        sub = f < g2.order
        u, v = g.vertex_attrs[sub], g2.vertex_attrs[f[sub]]
        _squared_distances(u, v)  # names the pair if one overflows alone
        if not math.isfinite(_vector_subst(u, v)):
            raise GraphError("sum of the squared vertex distances of the map overflows")
    raise CostModelError(f"edit cost of the map overflows under {model}")


def forward_cost(model: CostModel, forward: np.ndarray, g: AttributedGraph, g2: AttributedGraph) -> float:
    """Cost of the raw forward map ``forward`` from ``g`` to ``g2``.

    The map is not validated and no :class:`Transformation` is built; a
    model incompatible with the graphs is a CostModelError.
    """
    check_model_compatible(model, g, g2)
    f = np.asarray(forward, dtype=np.int64)
    return _checked(model, _map_cost(model, f, g, g2), f, g, g2)


def _stack_costs(
    model: CostModel, sources: np.ndarray, images: np.ndarray, g: AttributedGraph, g2: AttributedGraph
) -> np.ndarray:
    """:func:`forward_cost` of every map that substitutes the ascending ``sources`` by a row of the
    (K, k) stack ``images`` and removes every other vertex of ``g``; ``inf`` where it overflows.

    The counts are taken for the whole stack at once and priced by
    ``_price``, as a single map's are, so under every model each entry
    equals the per-map cost bit for bit.
    """
    if isinstance(model.vertex_subst, LabelDelta):
        mismatched = np.count_nonzero(g.vertex_attrs[sources] != g2.vertex_attrs[images], axis=-1)
        subst = model.vertex_subst.cost * mismatched
    else:
        subst = _vector_subst(g.vertex_attrs[sources], g2.vertex_attrs[images])
    pairs = np.ix_(sources, sources)
    image_pairs = images[:, :, None], images[:, None, :]
    kept_edges = g.adjacency[pairs] & g2.adjacency[image_pairs]
    kept = np.count_nonzero(kept_edges, axis=(-2, -1)) // 2
    relabelled = 0
    if isinstance(model.edge_subst, LabelDelta):
        changed = kept_edges & (g.edge_attrs[pairs] != g2.edge_attrs[image_pairs])
        relabelled = np.count_nonzero(changed, axis=(-2, -1)) // 2
    return _price(model, g, g2, len(sources), subst, kept, relabelled)


def transformation_cost(
    model: CostModel, t: Transformation, g: AttributedGraph, g2: AttributedGraph
) -> float:
    """Cost of ``t`` from ``g`` to ``g2``: :func:`forward_cost` of its map, once its orders match the graphs."""
    if t.source_order != g.order or t.target_order != g2.order:
        raise CostModelError("transformation orders do not match the graphs")
    return forward_cost(model, t.forward, g, g2)
