"""Output checks that do not rely on the library's own cost code.

:func:`edit_cost` recomputes the cost of a vertex map with plain loops over
Python lists, straight from the definition: vertex substitutions, removals
and insertions, then every edge of either graph once. Label costs are sums
of integer multiples of the cost constants, so they must match the
library's figure exactly; squared-distance vertex costs are summed in
another order and are compared within a relative tolerance.
"""

from __future__ import annotations

import hashlib
import json

VECTOR_RTOL = 1e-9


class CheckError(Exception):
    """An output failed an independent check."""


def _constants(model):
    vs = getattr(model.vertex_subst, "cost", None)  # None: squared Euclidean
    es = getattr(model.edge_subst, "cost", None)  # None: free (unlabeled edges)
    return vs, es, model.c_vr, model.c_vi, model.c_er, model.c_ei


def forward_list(forward, n, n2):
    """The forward map as a list, after checking it is a valid injection."""
    fwd = [int(v) for v in forward]
    if len(fwd) != n:
        raise CheckError(f"forward map has length {len(fwd)}, expected {n}")
    if any(v < 0 or v > n2 for v in fwd):
        raise CheckError("forward map entry out of range")
    sub = [v for v in fwd if v < n2]
    if len(set(sub)) != len(sub):
        raise CheckError("forward map substitutes one target vertex twice")
    return fwd


def edit_cost(model, g, g2, forward):
    """Cost of the transformation of ``g`` into ``g2`` given by ``forward``."""
    vs, es, cvr, cvi, cer, cei = _constants(model)
    n, n2 = g.order, g2.order
    fwd = forward_list(forward, n, n2)
    phi, phi2 = g.vertex_attrs.tolist(), g2.vertex_attrs.tolist()
    cost = 0.0
    for i, k in enumerate(fwd):
        if k == n2:
            cost += cvr
        elif vs is not None:
            cost += vs if phi[i] != phi2[k] else 0.0
        else:
            cost += sum((a - b) * (a - b) for a, b in zip(phi[i], phi2[k]))
    cost += cvi * (n2 - sum(1 for k in fwd if k < n2))

    adj, adj2 = g.adjacency.tolist(), g2.adjacency.tolist()
    lab = g.edge_attrs.tolist() if g.edge_attrs is not None else None
    lab2 = g2.edge_attrs.tolist() if g2.edge_attrs is not None else None
    back = {k: i for i, k in enumerate(fwd) if k < n2}
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i][j]:
                continue
            fi, fj = fwd[i], fwd[j]
            if fi < n2 and fj < n2 and adj2[fi][fj]:
                if es is not None and lab[i][j] != lab2[fi][fj]:
                    cost += es
            else:
                cost += cer
    for k in range(n2):
        for l in range(k + 1, n2):
            if adj2[k][l] and not (k in back and l in back and adj[back[k]][back[l]]):
                cost += cei
    return cost


def same_cost(model, expected, got):
    if getattr(model.vertex_subst, "cost", None) is not None:
        return expected == got
    return abs(expected - got) <= VECTOR_RTOL * max(1.0, abs(expected))


def check_cost(model, g, g2, forward, reported, what):
    recomputed = edit_cost(model, g, g2, forward)
    if not same_cost(model, recomputed, reported):
        raise CheckError(f"{what}: reported cost {reported!r}, recomputed {recomputed!r}")


def check_median(model, collection, result, what):
    """SOD recomputed from the returned maps; monotone descent; no worse than the set median."""
    if len(result.transformations) != len(collection):
        raise CheckError(f"{what}: {len(result.transformations)} maps for {len(collection)} graphs")
    sod = sum(
        edit_cost(model, result.median, gp, t.forward)
        for t, gp in zip(result.transformations, collection)
    )
    if not same_cost(model, sod, result.sod):
        raise CheckError(f"{what}: reported SOD {result.sod!r}, recomputed {sod!r}")
    bounds = [r.sod_upper for r in result.trace]
    if any(b > a for a, b in zip(bounds, bounds[1:])):
        raise CheckError(f"{what}: descent trace increases: {bounds}")
    if result.sod > result.set_median_sod:
        raise CheckError(f"{what}: SOD {result.sod} exceeds set-median SOD {result.set_median_sod}")


def graph_payload(g):
    """Canonical, JSON-ready form of a graph for output digests."""
    edges = g.edge_list
    labels = [int(g.edge_attrs[i, j]) for i, j in edges] if g.edge_attrs is not None else None
    return [g.vertex_attrs.tolist(), edges, labels]


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
