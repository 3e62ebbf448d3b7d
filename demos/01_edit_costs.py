"""
Editing one attributed graph into another
=========================================

Walks through a single vertex map between two small labeled graphs: which
edit operations it implies, what they cost, and how far that is from the
cheapest map overall.
"""

from gmedian import (
    build_graph,
    ged_exact,
    make_cost_model,
    transformation_cost,
    transformation_from_forward,
)

# A 4-vertex graph and a 3-vertex graph, integer labels on both vertices
# and edges.
g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
h = build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)])

# Substituting a vertex with an equal label is free, relabeling costs 1,
# and removing or inserting a vertex or an edge costs 3.
model = make_cost_model()

# A vertex map is an array with one entry per vertex of g. Vertex 0 goes to
# vertex 0 of h, vertex 1 to vertex 2, vertex 2 to vertex 1; the sentinel
# value 3 == h.order marks vertex 3 for removal.
t = transformation_from_forward([0, 2, 1, 3], 4, 3)
print("forward map:", t.forward)
print("reverse map:", t.reverse)

# Every edge of g is either carried over (both endpoints substituted onto
# adjacent vertices of h) or removed; an edge of h is inserted unless both
# its endpoints come from adjacent vertices of g.
f, r = t.forward, t.reverse
substituted = [(i, j) for i, j in g.edge_list if f[i] < h.order and f[j] < h.order and h.adjacency[f[i], f[j]]]
removed = [e for e in g.edge_list if e not in substituted]
inserted = [(k, l) for k, l in h.edge_list if not (r[k] < g.order and r[l] < g.order and g.adjacency[r[k], r[l]])]
print("substituted edges:", substituted)
print("removed edges:    ", removed)
print("inserted edges:   ", inserted)

# Relabeling a substituted vertex or edge costs c_vs or c_es; removing or
# inserting one costs c_vr, c_vi, c_er or c_ei. transformation_cost prices
# the whole map in one call, and the two parts add up to it.
kept = f < h.order
n_kept = int(kept.sum())
relabelled_vertices = int((g.vertex_attrs[kept] != h.vertex_attrs[f[kept]]).sum())
relabelled_edges = sum(int(g.edge_attrs[i, j] != h.edge_attrs[f[i], f[j]]) for i, j in substituted)
vc = model.vertex_subst.cost * relabelled_vertices + model.c_vr * (g.order - n_kept) + model.c_vi * (h.order - n_kept)
ec = model.edge_subst.cost * relabelled_edges + model.c_er * len(removed) + model.c_ei * len(inserted)
print(f"vertex operations: {vc}")
print(f"edge operations: {ec}")
print(f"total: {vc} + {ec} = {transformation_cost(model, t, g, h)}")

# That map is not optimal. Enumerating every vertex map gives the edit
# distance itself.
best = ged_exact(model, g, h)
print(f"exact edit distance: {best.cost} via {best.transformation.forward}")
