"""The descent against an exhaustive median on tiny collections."""

import numpy as np

from gmedian import DescentConfig, GedSolverConfig, compute_median, make_cost_model

from oracles import oracle_median, random_graph

EXACT = DescentConfig(ged_phase1=GedSolverConfig(method="exact"), ged_phase2=GedSolverConfig(method="exact"))


def tiny_collection(seed):
    """4 graphs of order 2-3 over two vertex labels, each pair joined with chance 0.5 by an edge labelled 1 or 2."""
    rng = np.random.default_rng(seed)
    return [random_graph(rng, int(rng.integers(2, 4)), label_values=(1, 2), edge_values=(1, 2)) for _ in range(4)]


def test_no_exact_descent_beats_the_oracle_median():
    # The oracle searches orders up to the members' largest, here 3. That bounds the search and is not
    # a theorem: a median of a larger order could be cheaper still, and the oracle would not see it.
    # The descent's median never exceeds its set median's order, so it lies inside the search.
    model = make_cost_model()
    missed = []
    for seed in range(20):
        collection = tiny_collection(seed)
        best, _ = oracle_median(model, collection)
        result = compute_median(model, collection, EXACT)
        assert result.sod >= best, (seed, result.sod, best)  # a descent below the oracle is a bug in one
        if result.sod > best:
            missed.append((seed, result.sod - best))
    # 18 of 20 reach it; the other two descents end at their set median's SOD, one unit above
    assert missed == [(5, 1.0), (15, 1.0)]
