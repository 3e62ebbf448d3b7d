"""Set median, closed-form coordinate updates, and the descent loop."""

import copy
import pickle
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gmedian import (
    DescentConfig,
    GedSolverConfig,
    build_graph,
    compute_median,
    graphs_equal,
    identity_transformation,
    make_cost_model,
    read_graph,
    set_median,
    transformation_cost,
    transformation_from_forward,
)
from gmedian import median
from gmedian.costs import forward_cost
from gmedian.graphs import AttributedGraph
from gmedian.median import (
    MedianState,
    collect_substitution_sets,
    update_edges_labeled,
    update_edges_unlabeled,
    update_transformations,
    update_vertex_labels,
    update_vertex_vectors,
)

from oracles import (
    fixed_maps_sod,
    loop_edges_labeled,
    loop_edges_unlabeled,
    loop_member_values,
    loop_substitution_sets,
    loop_vertex_labels,
    loop_vertex_vectors,
    random_forward,
    random_graph,
)

EXACT = GedSolverConfig(method="exact")
FAST = GedSolverConfig(method="mipfp", multistart_count=6)
DESCENT = DescentConfig(ged_phase1=FAST, ged_phase2=FAST)


def path_graph(labels, edge_label=1):
    edges = [(i, i + 1, edge_label) for i in range(len(labels) - 1)]
    return build_graph(len(labels), labels, edges)


def test_set_median_picks_center():
    model = make_cost_model()
    collection = [path_graph([1, 1]), path_graph([1, 2]), path_graph([2, 2])]
    result = set_median(model, collection, EXACT)
    assert result.index == 1
    assert result.sod == pytest.approx(2.0)
    assert len(result.transformations) == 3
    assert result.transformations[1].forward.tolist() == [0, 1]


def test_set_median_identical_ties_to_first():
    model = make_cost_model()
    g = path_graph([1, 2, 3])
    result = set_median(model, [g, g, g], EXACT)
    assert result.index == 0
    assert result.sod == 0.0


def test_set_median_empty_collection():
    with pytest.raises(ValueError):
        set_median(make_cost_model(), [], EXACT)


def test_collect_substitution_sets_example():
    g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
    g2 = build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)])
    t = transformation_from_forward([0, 2, 1, 3], 4, 3)
    state = MedianState(g, [t], 15.0, 0)
    sets = collect_substitution_sets(state, [g2])
    assert sets.vertex_sets == [[(0, 0)], [(0, 2)], [(0, 1)], []]
    assert sets.edge_sets == {(0, 1): [(0, (0, 2))], (1, 2): [(0, (2, 1))]}


def test_update_vertex_labels_majority():
    median = path_graph([9, 9, 9])
    members = [
        path_graph([1, 2, 5]),
        path_graph([1, 2, 5]),
        path_graph([2, 3, 5]),
        path_graph([2, 3, 7]),
    ]
    ts = [identity_transformation(3)] * 4
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), members)
    phi = update_vertex_labels(median, sets, members)
    # vertex 0: {1: 2, 2: 2} ties to 1; vertex 1: {2: 2, 3: 2} ties to 2;
    # vertex 2: {5: 3, 7: 1} majority
    assert phi.tolist() == [1, 2, 5]


def test_update_vertex_labels_unmapped_unchanged():
    median = path_graph([9, 8])
    member = build_graph(1, [5])
    t = transformation_from_forward([0, 1], 2, 1)  # vertex 1 removed
    sets = collect_substitution_sets(MedianState(median, [t], 0.0, 0), [member])
    phi = update_vertex_labels(median, sets, [member])
    assert phi.tolist() == [5, 8]


def test_update_vertex_vectors_mean():
    median = build_graph(2, [[0.0, 0.0], [9.0, 9.0]], [(0, 1)])
    members = [
        build_graph(2, [[1.0, 2.0], [0.0, 0.0]], [(0, 1)]),
        build_graph(2, [[3.0, 4.0], [0.0, 0.0]], [(0, 1)]),
    ]
    ts = [identity_transformation(2)] * 2
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), members)
    phi = update_vertex_vectors(median, sets, members)
    assert phi[0].tolist() == [2.0, 3.0]
    assert phi[1].tolist() == [0.0, 0.0]


def test_update_edges_labeled_worked_example():
    # ten members, seven mapped edges with label counts {1: 4, 2: 2, 3: 1}:
    # majority 4 beats the keep threshold 10*3/1 + 7*(1 - 6/1) = -5
    model = make_cost_model()
    median = build_graph(2, [1, 1], [(0, 1, 9)])
    with_edge = [build_graph(2, [1, 1], [(0, 1, lab)]) for lab in (1, 1, 1, 1, 2, 2, 3)]
    without = [build_graph(2, [1, 1], edge_labels=True) for _ in range(3)]
    members = with_edge + without
    ts = [identity_transformation(2)] * 10
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), members)
    assert len(sets.edge_sets[(0, 1)]) == 7
    adjacency, attrs = update_edges_labeled(median, sets, members, model)
    assert adjacency[0, 1] == 1
    assert attrs[0, 1] == 1


def test_update_edges_labeled_tie_drops():
    # m=4, c_es=1, c_er=c_ei=1: threshold 4 - s; s=2, majority 2 ties and drops
    model = make_cost_model(c_es=1.0, c_er=1.0, c_ei=1.0)
    median = build_graph(2, [1, 1], [(0, 1, 1)])
    members = [
        build_graph(2, [1, 1], [(0, 1, 1)]),
        build_graph(2, [1, 1], [(0, 1, 1)]),
        build_graph(2, [1, 1], edge_labels=True),
        build_graph(2, [1, 1], edge_labels=True),
    ]
    ts = [identity_transformation(2)] * 4
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), members)
    adjacency, _ = update_edges_labeled(median, sets, members, model)
    assert adjacency[0, 1] == 0
    # one more mapped edge flips the balance
    members[2] = build_graph(2, [1, 1], [(0, 1, 1)])
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), members)
    adjacency, attrs = update_edges_labeled(median, sets, members, model)
    assert adjacency[0, 1] == 1 and attrs[0, 1] == 1


def test_update_edges_unlabeled_threshold():
    # m=2, c_er=c_ei=3: keep needs count > 1
    model = make_cost_model(edge_mode="none")
    median = build_graph(2, [1, 1], [(0, 1)])
    one = [build_graph(2, [1, 1], [(0, 1)]), build_graph(2, [1, 1])]
    ts = [identity_transformation(2)] * 2
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), one)
    assert update_edges_unlabeled(median, sets, one, model)[0, 1] == 0
    both = [build_graph(2, [1, 1], [(0, 1)]), build_graph(2, [1, 1], [(0, 1)])]
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), both)
    assert update_edges_unlabeled(median, sets, both, model)[0, 1] == 1


def test_update_edges_free_operations_drop_everything():
    model = make_cost_model(edge_mode="none", c_er=0.0, c_ei=0.0)
    median = build_graph(2, [1, 1], [(0, 1)])
    members = [build_graph(2, [1, 1], [(0, 1)])] * 3
    ts = [identity_transformation(2)] * 3
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), members)
    assert update_edges_unlabeled(median, sets, members, model).sum() == 0


def _random_state(rng, model, m=4, vertex_mode="label", edge_mode="label"):
    n = int(rng.integers(2, 5))
    median = random_graph(rng, n, vertex_mode=vertex_mode, edge_mode=edge_mode)
    members, ts = [], []
    for _ in range(m):
        n2 = int(rng.integers(1, 5))
        members.append(random_graph(rng, n2, vertex_mode=vertex_mode, edge_mode=edge_mode))
        ts.append(transformation_from_forward(random_forward(rng, n, n2), n, n2))
    return median, members, ts


def _apply_update(model, median, members, ts):
    sets = collect_substitution_sets(MedianState(median, ts, 0.0, 0), members)
    if median.vertex_mode == "label":
        phi = update_vertex_labels(median, sets, members)
    else:
        phi = update_vertex_vectors(median, sets, members)
    if median.edge_mode == "label":
        adjacency, attrs = update_edges_labeled(median, sets, members, model)
    else:
        adjacency = update_edges_unlabeled(median, sets, members, model)
        attrs = None
    return AttributedGraph(phi, adjacency, attrs)


def test_graph_update_never_increases_fixed_map_cost():
    rng = np.random.default_rng(33)
    model = make_cost_model()
    for _ in range(40):
        median, members, ts = _random_state(rng, model)
        before = fixed_maps_sod(model, median, members, ts)
        after = fixed_maps_sod(model, _apply_update(model, median, members, ts), members, ts)
        assert after <= before + 1e-9


def test_label_update_beats_single_coordinate_probes():
    rng = np.random.default_rng(34)
    model = make_cost_model()
    for _ in range(20):
        median, members, ts = _random_state(rng, model)
        updated = _apply_update(model, median, members, ts)
        base = fixed_maps_sod(model, updated, members, ts)
        n = median.order
        # vertex label probes
        for i in range(n):
            for lab in (1, 2, 3, 4):
                phi = updated.vertex_attrs.copy()
                phi[i] = lab
                probe = AttributedGraph(phi, updated.adjacency, updated.edge_attrs)
                assert base <= fixed_maps_sod(model, probe, members, ts) + 1e-9
        # edge state probes
        for i in range(n):
            for j in range(i + 1, n):
                for lab in (0, 1, 2, 3):
                    adj = np.array(updated.adjacency)
                    ea = np.array(updated.edge_attrs)
                    adj[i, j] = adj[j, i] = 1 if lab else 0
                    if lab:
                        ea[i, j] = ea[j, i] = lab
                    probe = AttributedGraph(updated.vertex_attrs, adj, ea)
                    assert base <= fixed_maps_sod(model, probe, members, ts) + 1e-9


def test_vector_update_beats_random_probes():
    rng = np.random.default_rng(35)
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none")
    for _ in range(10):
        median, members, ts = _random_state(rng, model, vertex_mode="vector", edge_mode="none")
        updated = _apply_update(model, median, members, ts)
        base = fixed_maps_sod(model, updated, members, ts)
        for i in range(median.order):
            for _ in range(40):
                phi = np.array(updated.vertex_attrs)
                phi[i] = updated.vertex_attrs[i] + rng.normal(scale=0.5, size=phi.shape[1])
                probe = AttributedGraph(phi, updated.adjacency, None)
                assert base <= fixed_maps_sod(model, probe, members, ts) + 1e-9


def _identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_updates_match_loop_reference():
    """Array reductions give the same bits as the vertex-by-vertex, pair-by-pair loops."""
    rng = np.random.default_rng(39)
    models = (
        {},
        {"c_es": 0.0},
        {"c_es": 0.3, "c_er": 0.1, "c_ei": 0.2},
        {"c_es": 0.0, "c_er": 0.0, "c_ei": 0.0},
    )
    states = 0
    for costs in models:
        for vertex_mode in ("label", "vector"):
            for edge_mode in ("label", "none"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    model = make_cost_model(vertex_mode, edge_mode, **costs)
                for _ in range(40):
                    kinds = {
                        "vertex_mode": vertex_mode,
                        "edge_mode": edge_mode,
                        "label_values": tuple(range(1, int(rng.integers(1, 6)) + 1)),
                        "edge_values": tuple(range(1, int(rng.integers(1, 6)) + 1)),
                        "p_edge": float(rng.uniform(0.2, 0.9)),
                    }
                    n = int(rng.integers(0, 7))
                    median = random_graph(rng, n, **kinds)
                    members, ts = [], []
                    for _ in range(int(rng.integers(0, 13))):
                        n2 = int(rng.integers(0, 7))
                        members.append(random_graph(rng, n2, **kinds))
                        ts.append(transformation_from_forward(random_forward(rng, n, n2), n, n2))
                    state = MedianState(median, ts, 0.0, 0)
                    sets = collect_substitution_sets(state, members)
                    vertex_sets, edge_sets = loop_substitution_sets(state, members)
                    assert sets.vertex_sets == vertex_sets
                    assert list(sets.edge_sets.items()) == list(edge_sets.items())
                    values, labels = loop_member_values(state, members)
                    assert _identical(sets.values, values)
                    assert (sets.labels is None) == (labels is None) == (edge_mode == "none")
                    if labels is not None:
                        assert _identical(sets.labels, labels)
                    if vertex_mode == "label":
                        got = update_vertex_labels(median, sets, members)
                        assert _identical(got, loop_vertex_labels(median, vertex_sets, members))
                    else:
                        got = update_vertex_vectors(median, sets, members)
                        assert _identical(got, loop_vertex_vectors(median, vertex_sets, members))
                    if edge_mode == "label":
                        adjacency, attrs = update_edges_labeled(median, sets, members, model)
                        want_adjacency, want_attrs = loop_edges_labeled(median, edge_sets, members, model)
                        assert _identical(adjacency, want_adjacency)
                        assert _identical(attrs, want_attrs)
                    else:
                        got = update_edges_unlabeled(median, sets, members, model)
                        assert _identical(got, loop_edges_unlabeled(median, edge_sets, members, model))
                    states += 1
    assert states == 640


# compute_median results recorded before the updates became array reductions (the label one
# re-recorded when IPFP moved to the substitution block, where an LSAP tie goes the other way):
# seed, median vertex attributes, median edges, final SOD, trace of (sod_upper, changed)
PINNED_MEDIANS = {
    "label": (
        66,
        [3, 3, 2, 3],
        [(0, 1, 2), (0, 2, 1), (0, 3, 2)],
        70.0,
        [(71.0, 0), (70.0, 0), (70.0, 0)],
    ),
    "vector": (
        70,
        [
            [1.0495999999999999, 0.002599999999999991],
            [0.5936666666666667, -0.7565000000000001],
            [-0.10528571428571429, -0.9702857142857144],
            [-0.47900000000000004, 0.6822857142857143],
        ],
        [(1, 2), (2, 3)],
        99.06499951904763,
        [
            (112.283354, 0),
            (102.47512279988662, 3),
            (99.65663660000001, 1),
            (99.06499951904763, 0),
            (99.06499951904763, 0),
        ],
    ),
}


@pytest.mark.parametrize("vertex_mode", ["label", "vector"])
def test_compute_median_pinned(vertex_mode):
    seed, attrs, edges, sod, trace = PINNED_MEDIANS[vertex_mode]
    edge_mode = "label" if vertex_mode == "label" else "none"
    rng = np.random.default_rng(seed)
    collection = [
        random_graph(rng, order, vertex_mode=vertex_mode, edge_mode=edge_mode)
        for order in (3, 5, 4, 6, 2, 5, 4)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = make_cost_model(vertex_mode, edge_mode)
    result = compute_median(model, collection, DESCENT)
    median = result.median
    assert median.vertex_attrs.tolist() == attrs
    labeled = median.edge_attrs is not None
    got = [(i, j, int(median.edge_attrs[i, j])) if labeled else (i, j) for i, j in median.edge_list]
    assert got == edges
    assert result.sod == sod
    assert [(r.sod_upper, r.changed) for r in result.trace] == trace


def test_update_transformations_keeps_optimal_map():
    model = make_cost_model()
    g = path_graph([1, 2, 3])
    old = [identity_transformation(3)]
    new_ts, sod, changed = update_transformations(g, old, [g], model, FAST)
    assert changed == 0
    assert sod == 0.0
    assert new_ts[0] is old[0]


def test_update_transformations_adopts_improvement():
    model = make_cost_model()
    g = path_graph([1, 2, 3])
    bad = transformation_from_forward([3, 3, 3], 3, 3)  # remove and reinsert everything
    assert transformation_cost(model, bad, g, g) == pytest.approx(3 * 3 + 3 * 3 + 2 * 3 + 2 * 3)
    new_ts, sod, changed = update_transformations(g, [bad], [g], model, EXACT)
    assert changed == 1
    assert sod == 0.0
    assert new_ts[0].forward.tolist() == [0, 1, 2]


def test_compute_median_singleton():
    model = make_cost_model()
    g = path_graph([1, 2, 3])
    result = compute_median(model, [g], DESCENT)
    assert result.sod == 0.0
    assert result.converged
    assert result.iterations == 1
    assert graphs_equal(result.median, g)


@pytest.mark.parametrize("value", [2.5, True])
def test_descent_config_rejects_an_iteration_cap_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match=f"max_iters must be an integer, got {value!r}"):
        DescentConfig(max_iters=value)


def test_descent_config_rejects_a_zero_iteration_cap():
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        DescentConfig(max_iters=0)


def test_labeled_edge_update_rejects_an_unlabelled_edge_model():
    median = build_graph(2, [1, 1], [(0, 1, 1)])
    members = [build_graph(2, [1, 2], [(0, 1, 2)])]
    sets = collect_substitution_sets(MedianState(median, [identity_transformation(2)], 0.0, 0), members)
    with pytest.raises(ValueError, match="labeled edge update needs a label-delta edge cost"):
        update_edges_labeled(median, sets, members, make_cost_model(edge_mode="none"))


def test_labeled_edge_update_rejects_a_member_without_edge_labels():
    median = build_graph(2, [1, 1], [(0, 1, 1)])
    members = [build_graph(2, [1, 2], [(0, 1, 2)]), build_graph(2, [1, 2], [(0, 1)])]
    state = MedianState(median, [identity_transformation(2)] * 2, 0.0, 0)
    sets = collect_substitution_sets(state, members)
    assert sets.labels is None
    with pytest.raises(ValueError, match="labelled edges on the median and every member"):
        update_edges_labeled(median, sets, members, make_cost_model())


def test_median_result_survives_pickle_and_deepcopy():
    model = make_cost_model()
    result = compute_median(model, [path_graph([1, 2, 3]), path_graph([1, 2]), path_graph([2, 2, 3])], DESCENT)
    maps = lambda r: [(t.forward.tolist(), t.reverse.tolist()) for t in r.transformations]
    for back in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert graphs_equal(back.median, result.median)
        assert not back.median.adjacency.flags.writeable and not back.median.vertex_attrs.flags.writeable
        assert maps(back) == maps(result)
        for name in ("trace", "sod", "set_median_index", "set_median_sod", "iterations", "converged"):
            assert getattr(back, name) == getattr(result, name)


def test_compute_median_identical_members():
    model = make_cost_model()
    g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
    config = DescentConfig(ged_phase1=EXACT, ged_phase2=EXACT)
    result = compute_median(model, [g, g, g], config)
    assert result.sod == 0.0
    assert result.set_median_sod == 0.0
    assert result.converged
    assert result.iterations == 1
    assert graphs_equal(result.median, g)


def test_compute_median_monotone_and_consistent():
    rng = np.random.default_rng(36)
    model = make_cost_model()
    for trial in range(6):
        collection = [
            random_graph(rng, int(rng.integers(2, 5)), graph_id=f"m{trial}_{i}") for i in range(5)
        ]
        result = compute_median(model, collection, DESCENT)
        sods = [r.sod_upper for r in result.trace]
        assert all(b <= a + 1e-9 for a, b in zip(sods, sods[1:]))
        assert result.sod <= result.set_median_sod + 1e-9
        assert result.iterations <= DESCENT.max_iters
        # reported SOD equals the summed cost of the final maps, recomputed
        recomputed = fixed_maps_sod(model, result.median, collection, result.transformations)
        assert result.sod == pytest.approx(recomputed)


def test_compute_median_vector_mode():
    rng = np.random.default_rng(37)
    with pytest.warns(RuntimeWarning):
        model = make_cost_model(vertex_mode="vector", edge_mode="none")
    collection = [
        random_graph(rng, int(rng.integers(2, 4)), vertex_mode="vector", edge_mode="none")
        for _ in range(4)
    ]
    result = compute_median(model, collection, DESCENT)
    sods = [r.sod_upper for r in result.trace]
    assert all(b <= a + 1e-9 for a, b in zip(sods, sods[1:]))
    assert result.median.vertex_mode == "vector"


def test_compute_median_empty_collection():
    with pytest.raises(ValueError):
        compute_median(make_cost_model(), [])


def test_compute_median_mixed_modes_rejected():
    model = make_cost_model()
    g = path_graph([1, 2])
    gv = build_graph(2, [[1.0], [2.0]], [(0, 1)])
    with pytest.raises(ValueError):
        compute_median(model, [g, gv])


def _random_collection(vertex_mode, seed, m=5):
    edge_mode = "label" if vertex_mode == "label" else "none"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # squared distances are unbounded
        model = make_cost_model(vertex_mode=vertex_mode, edge_mode=edge_mode)
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 6, size=m)
    return model, [random_graph(rng, int(n), vertex_mode=vertex_mode, edge_mode=edge_mode) for n in sizes]


@pytest.mark.parametrize("vertex_mode", ["label", "vector"])
def test_trace_starts_at_the_set_median_sod(vertex_mode):
    for seed in range(4):
        model, collection = _random_collection(vertex_mode, seed)
        result = compute_median(model, collection, DESCENT)
        sm = set_median(model, collection, DESCENT.ged_phase1)
        assert result.trace[0].sod_upper == sm.sod == result.set_median_sod
        assert result.set_median_index == sm.index
        # the set median's maps, priced against their own source, sum to its row sum
        source = collection[sm.index]
        priced = sum(forward_cost(model, t.forward, source, gp) for t, gp in zip(sm.transformations, collection))
        assert priced == sm.sod


@pytest.mark.parametrize("vertex_mode", ["label", "vector"])
def test_converged_exactly_when_the_last_step_changes_nothing(vertex_mode):
    outcomes = set()
    for seed in range(4):
        model, collection = _random_collection(vertex_mode, seed, m=6)
        for max_iters in (1, 2, 100):
            result = compute_median(model, collection, replace(DESCENT, max_iters=max_iters))
            last = result.trace[-1]
            if result.iterations < max_iters:  # no step of these runs is undone, so an early stop is a fixed point
                assert result.converged and last.changed == 0
            if last.changed:
                assert not result.converged and result.iterations == max_iters
            outcomes.add((result.converged, last.changed > 0))
    # both sides are exercised: a fixed point, and a cut run whose last step moved a map
    assert {(True, False), (False, True)} <= outcomes


def test_convergence_needs_a_median_that_the_update_leaves_unchanged(monkeypatch):
    # coordinates whose means and squared distances are exact in binary; no member is the mean
    collection = [
        build_graph(3, [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [(0, 1), (1, 2)]),
        build_graph(3, [[0.25, 0.0], [2.0, 0.25], [1.0, 2.0]], [(0, 1), (1, 2)]),
        build_graph(3, [[1.25, 0.0], [2.0, 1.25], [0.5, 2.0]], [(0, 1), (1, 2)]),
    ]
    with pytest.warns(RuntimeWarning):
        model = make_cost_model("vector", "none")
    real_update, calls = median._updated_median, []

    def nudged_update(state, members, model):
        updated = real_update(state, members, model)
        calls.append(state)
        if len(calls) != 2:
            return updated
        # the second step's median lands 1e-12 off the mean: no fixed point of the update
        coords = updated.vertex_attrs.copy()
        coords[0, 0] += 1e-12
        return AttributedGraph(coords, updated.adjacency, updated.edge_attrs, updated.graph_id)

    monkeypatch.setattr(median, "_updated_median", nudged_update)
    result = compute_median(model, collection, DescentConfig(ged_phase1=EXACT, ged_phase2=EXACT))
    assert result.converged and result.iterations == 4
    assert [r.sod_upper for r in result.trace] == [3.375, 2.25, 2.25, 2.25, 2.25]
    final = MedianState(result.median, result.transformations, result.sod, result.iterations)
    assert graphs_equal(real_update(final, collection, model), result.median)


def _non_dyadic_descent(seed):
    """A collection whose tenth-valued costs round, descended at 3 starts per phase."""
    model = make_cost_model(c_vs=1.1, c_es=0.3, c_vr=0.7, c_vi=0.7, c_er=0.1, c_ei=0.2)
    rng = np.random.default_rng(seed)
    collection = [random_graph(rng, int(rng.integers(2, 7)), edge_values=(1, 2)) for _ in range(int(rng.integers(3, 12)))]
    config = DescentConfig(
        ged_phase1=GedSolverConfig(method="mbipartite", multistart_count=3, rng_seed=seed),
        ged_phase2=GedSolverConfig(method="mipfp", multistart_count=3, rng_seed=seed),
    )
    return compute_median(model, collection, config)


@pytest.mark.parametrize("seed", [47, 60, 69, 100, 107])
def test_a_step_that_rounds_the_sod_up_is_undone(seed):
    # without the guard each of these traces rises by a rounding step, and all but seed 100 end above
    # the set median's SOD: a median move at a tie changes the per-member costs but not their exact sum
    result = _non_dyadic_descent(seed)
    sods = [r.sod_upper for r in result.trace]
    assert all(b <= a for a, b in zip(sods, sods[1:]))
    assert result.sod <= result.set_median_sod


def test_an_undone_step_stops_the_descent_unconverged():
    # seed 47 used to read [3.4, 3.4000000000000004, 3.4000000000000004]: its first step is undone
    first = _non_dyadic_descent(47)
    assert [r.sod_upper for r in first.trace] == [3.4]
    assert not first.converged and first.iterations == 0
    # seed 100's second step would have risen to 21.500000000000004
    second = _non_dyadic_descent(100)
    assert [r.sod_upper for r in second.trace] == [23.900000000000002, 21.5]
    assert not second.converged and second.iterations == 1


def test_compute_median_of_an_empty_vector_graph_of_another_width():
    # an order-0 graph states its own vector width; it has no vertex to compare
    with pytest.warns(RuntimeWarning):
        model = make_cost_model("vector", "none")
    empty = read_graph("gmg 1 0 vector none\n")
    points = build_graph(3, [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    assert empty.vertex_attrs.shape == (0, 1)
    result = compute_median(model, [empty, points], DESCENT)
    assert result.sod == 9.0
    assert result.median.order == 0
    assert result.converged


def test_vector_mean_of_finite_vectors_is_finite():
    # the members' sum of 2e308 used to overflow, and the median failed as a non-finite vector
    with pytest.warns(RuntimeWarning):
        model = make_cost_model("vector", "none")
    g = build_graph(2, [[1e308, 0.0], [1e308, 1.0]], [(0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = compute_median(model, [g, g], DescentConfig(ged_phase1=EXACT, ged_phase2=EXACT))
    assert result.sod == 0.0 and result.converged
    assert graphs_equal(result.median, g)


def test_vector_mean_rescales_only_the_coordinates_that_overflow():
    coords = [[1e308, 0.1], [1.7e308, 0.2], [1.7e308, 0.4]]
    members = [build_graph(1, [c]) for c in coords]
    median = build_graph(1, [[0.0, 0.0]])
    sets = collect_substitution_sets(MedianState(median, [identity_transformation(1)] * 3, 0.0, 0), members)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        phi = update_vertex_vectors(median, sets, members)
    assert _identical(phi[0, 1], np.mean([0.1, 0.2, 0.4]))
    assert phi[0, 0] == pytest.approx(1e308 / 3 + 2 * (1.7e308 / 3), rel=1e-15)


def _one_pair_sets(m, s, top):
    """Sets of ``m`` members, ``s`` with an edge mapped onto median pair (0, 1): ``top`` labelled 1, the
    others each with a label of its own, so that 1 is the majority label, of count ``top``."""
    median = build_graph(2, [1, 1], [(0, 1, 1)])
    members = [build_graph(2, [1, 1], [(0, 1, 1 if p < top else p + 2)] if p < s else [], edge_labels=True)
               for p in range(m)]
    state = MedianState(median, [identity_transformation(2)] * m, 0.0, 0)
    return median, members, collect_substitution_sets(state, members)


@pytest.mark.parametrize(
    "costs",
    [
        {"c_es": 1e-320},
        {"c_es": 5e-324, "c_er": 0.1, "c_ei": 0.2},
        {"c_es": 1e308, "c_er": 1e308, "c_ei": 1e308},
        {"c_es": 1e-320, "c_er": 1e300, "c_ei": 1e-30},
        {"c_es": 1e-320, "c_er": 1e-300, "c_ei": 1e-300},
    ],
    ids=["tiny-c_es", "least-c_es", "near-float-limit", "underflowing-ratio", "all-tiny"],
)
def test_labeled_edge_update_decides_an_overflowing_threshold_exactly(costs):
    # the threshold used to overflow to NaN or -inf: every edge was dropped, or every mapped one kept
    model = make_cost_model(**costs)
    ces, cer, cei = Fraction(model.edge_subst.cost), Fraction(model.c_er), Fraction(model.c_ei)
    for m in range(1, 7):
        for s in range(m + 1):
            for top in range(min(s, 1), s + 1):
                median, members, sets = _one_pair_sets(m, s, top)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    adjacency, _ = update_edges_labeled(median, sets, members, model)
                keep = ces * top + (cer + cei - ces) * s > m * cer
                assert adjacency[0, 1] == keep, (m, s, top)


def test_identical_members_fix_immediately_under_a_tiny_edge_substitution_cost():
    model = make_cost_model(c_es=1e-320)
    g = build_graph(3, [1, 2, 2], [(0, 1, 1), (1, 2, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = compute_median(model, [g, g, g], DESCENT)
    assert result.sod == 0.0 and result.converged and result.iterations == 1
    assert graphs_equal(result.median, g)
    # an inf threshold, a ratio that underflows to 0 and a threshold that rounds to m each kept no edge;
    # one bond, as a second c_er = 1e308 would overflow the cost of removing the graph whole
    bonded = build_graph(2, [1, 2], [(0, 1)])
    for costs, member in (
        ({"edge_mode": "none", "c_er": 1e308, "c_ei": 1.0}, bonded),
        ({"c_es": 1e-320, "c_er": 1e300, "c_ei": 1e-30}, g),
        ({"edge_mode": "none", "c_er": 1.0, "c_ei": 1e-30}, bonded),
    ):
        model = make_cost_model(**costs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = compute_median(model, [member] * 3, DESCENT)
        assert result.sod == 0.0 and result.converged and result.iterations == 1, costs
        assert graphs_equal(result.median, member), costs


def _one_unlabelled_pair_sets(m, s):
    """Sets of ``m`` unlabelled members, ``s`` of them with an edge mapped onto median pair (0, 1)."""
    median = build_graph(2, [1, 1], [(0, 1)])
    members = [build_graph(2, [1, 1], [(0, 1)] if p < s else []) for p in range(m)]
    state = MedianState(median, [identity_transformation(2)] * m, 0.0, 0)
    return median, members, collect_substitution_sets(state, members)


@pytest.mark.parametrize(
    "costs",
    [{"c_er": 1e308, "c_ei": 1.0}, {"c_er": 1.0, "c_ei": 1e-30}, {"c_er": 0.0, "c_ei": 0.0}],
    ids=["overflowing-threshold", "rounding-threshold", "free"],
)
def test_unlabeled_edge_update_decides_every_cell_exactly(costs):
    # m * c_er overflowed to inf, or m * c_er / (c_er + c_ei) rounded to m: an edge every member maps was dropped
    model = make_cost_model(edge_mode="none", **costs)
    cer, cei = Fraction(model.c_er), Fraction(model.c_ei)
    for m in range(1, 7):
        for s in range(m + 1):
            median, members, sets = _one_unlabelled_pair_sets(m, s)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                adjacency = update_edges_unlabeled(median, sets, members, model)
            assert adjacency[0, 1] == (cer * (m - s) < cei * s), (m, s)


@pytest.mark.parametrize("m", [9, 15, 30, 60])
def test_edge_updates_drop_a_tie_under_tenth_valued_costs(m):
    # with s = top = m / 3, keeping costs 0.1 * 2m/3 and dropping 0.2 * m/3, equal in binary too; the float
    # thresholds (2.9999999999999996 at m = 9) kept the edge
    median, members, sets = _one_pair_sets(m, m // 3, m // 3)
    adjacency, _ = update_edges_labeled(median, sets, members, make_cost_model(c_es=0.3, c_er=0.1, c_ei=0.2))
    assert adjacency[0, 1] == 0
    median, members, sets = _one_unlabelled_pair_sets(m, m // 3)
    adjacency = update_edges_unlabeled(median, sets, members, make_cost_model(edge_mode="none", c_er=0.1, c_ei=0.2))
    assert adjacency[0, 1] == 0
