"""SOD and classification experiment drivers."""

import numpy as np
import pytest

from gmedian import (
    DescentConfig,
    ExperimentConfig,
    GedSolverConfig,
    HarnessError,
    build_graph,
    make_cost_model,
    run_classification,
    run_sod_experiment,
)
from gmedian.datasets import DatasetDescriptor, GraphRecord

FAST_DESCENT = DescentConfig(
    ged_phase1=GedSolverConfig(method="mbipartite", multistart_count=4),
    ged_phase2=GedSolverConfig(method="mipfp", multistart_count=4),
)
EXACT_DESCENT = DescentConfig(
    ged_phase1=GedSolverConfig(method="exact"),
    ged_phase2=GedSolverConfig(method="exact"),
)


def _class_graph(label_value, order, rng, gid):
    labels = [label_value] * order
    edges = [(i, i + 1, 1) for i in range(order - 1)]
    if order > 2 and rng.random() < 0.5:
        edges.append((0, order - 1, 1))
    return build_graph(order, labels, edges, graph_id=gid)


def separated_dataset(per_class=5, seed=0):
    """Two classes whose label alphabets never overlap.

    Every graph has the same order, so any cross-class map pays one vertex
    substitution per vertex while within-class graphs differ by at most one
    edge: prototypes always sit strictly closer to their own class.
    """
    rng = np.random.default_rng(seed)
    records = []
    for ci, label_value in enumerate((1, 9)):
        for k in range(per_class):
            order = 4
            g = _class_graph(label_value, order, rng, f"c{ci}_{k}")
            records.append(GraphRecord(f"c{ci}_{k}", f"class{ci}", g))
    return DatasetDescriptor("synth", "label", 0, "label", records, None, None)


def test_sample_size_semantics():
    config = ExperimentConfig(model=make_cost_model(), per_class_sample=0.5)
    assert config.sample_size(10) == 5
    assert config.sample_size(1) == 1  # fraction rounds but never reaches zero
    count = ExperimentConfig(model=make_cost_model(), per_class_sample=3)
    assert count.sample_size(10) == 3


def test_experiment_config_validation():
    with pytest.raises(HarnessError):
        ExperimentConfig(model=make_cost_model(), per_class_sample=0)
    with pytest.raises(HarnessError):
        ExperimentConfig(model=make_cost_model(), repeats=0)


@pytest.mark.parametrize("field, value", [("repeats", 1.5), ("repeats", True), ("rng_seed", 2.5), ("rng_seed", False)])
def test_experiment_config_rejects_a_setting_that_is_not_an_integer(field, value):
    with pytest.raises(HarnessError, match=f"{field} must be an integer, got {value!r}"):
        ExperimentConfig(model=make_cost_model(), **{field: value})


def test_experiment_config_rejects_a_negative_seed():
    with pytest.raises(HarnessError, match="rng_seed must be non-negative, got -1"):
        ExperimentConfig(model=make_cost_model(), rng_seed=-1)


@pytest.mark.parametrize("sample", [float("inf"), float("nan")])
def test_non_finite_sample_is_rejected(sample):
    with pytest.raises(HarnessError, match="per_class_sample must be finite"):
        ExperimentConfig(model=make_cost_model(), per_class_sample=sample)


@pytest.mark.parametrize("sample", [True, False])
def test_bool_sample_is_rejected(sample):
    # True would otherwise pass as a count of one
    with pytest.raises(HarnessError, match=f"per_class_sample must be a number, got {sample!r}"):
        ExperimentConfig(model=make_cost_model(), per_class_sample=sample)


@pytest.mark.parametrize("sample", [2.5, 1.5, 10.000001])
def test_fractional_sample_count_is_rejected(sample):
    with pytest.raises(HarnessError, match=f"whole count, got {sample!r}"):
        ExperimentConfig(model=make_cost_model(), per_class_sample=sample)


def test_whole_sample_count_given_as_float_is_accepted():
    assert ExperimentConfig(model=make_cost_model(), per_class_sample=3.0).sample_size(10) == 3
    assert ExperimentConfig(model=make_cost_model(), per_class_sample=1.0).sample_size(10) == 1


def test_sod_experiment_rows_and_bound():
    dataset = separated_dataset()
    config = ExperimentConfig(
        model=make_cost_model(), descent=FAST_DESCENT, per_class_sample=4, repeats=2, rng_seed=3
    )
    report = run_sod_experiment(dataset, config)
    assert len(report.rows) == 2 * 2
    for row in report.rows:
        assert row.sod_gm <= row.sod_sm + 1e-9
        assert row.t_sm >= 0.0 and row.t_gm >= 0.0
    assert report.mean_sod_gm <= report.mean_sod_sm + 1e-9
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "class,repeat,sod_sm,t_sm,sod_gm,t_gm"
    assert len(csv_text.splitlines()) == 5
    assert "class0" in report.to_table()


def test_sod_experiment_deterministic():
    dataset = separated_dataset()
    config = ExperimentConfig(
        model=make_cost_model(), descent=FAST_DESCENT, per_class_sample=3, repeats=2, rng_seed=7
    )
    a = run_sod_experiment(dataset, config)
    b = run_sod_experiment(dataset, config)
    assert [(r.class_label, r.repeat, r.sod_sm, r.sod_gm) for r in a.rows] == [
        (r.class_label, r.repeat, r.sod_sm, r.sod_gm) for r in b.rows
    ]


def test_sod_experiment_oversampling_rejected():
    dataset = separated_dataset(per_class=3)
    config = ExperimentConfig(model=make_cost_model(), per_class_sample=10)
    with pytest.raises(HarnessError, match="cannot sample"):
        run_sod_experiment(dataset, config)


def test_sod_experiment_rejects_a_dataset_without_graphs():
    dataset = DatasetDescriptor("none", "label", 0, "label", [], None, None)
    with pytest.raises(HarnessError, match="dataset 'none' has no graphs"):
        run_sod_experiment(dataset, ExperimentConfig(model=make_cost_model()))


def test_classification_separated_classes():
    dataset = separated_dataset()
    config = ExperimentConfig(
        model=make_cost_model(), descent=FAST_DESCENT, per_class_sample=3, repeats=1, rng_seed=2
    )
    report = run_classification(dataset, config)
    for mode in ("sm", "gm", "ts"):
        assert report.per_mode[mode].accuracy_pct == 100.0
    n_test = 2 * (5 - 3)
    assert report.per_mode["sm"].n_distance_evals == n_test * 2
    assert report.per_mode["gm"].n_distance_evals == n_test * 2
    assert report.per_mode["ts"].n_distance_evals == n_test * 6
    assert report.pt > 0.0
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "mode,accuracy_pct,time_s,pt"
    assert [ln.split(",")[0] for ln in csv_text.splitlines()[1:]] == ["sm", "gm", "ts"]


def test_classification_eval_counts_scale_with_repeats():
    dataset = separated_dataset()
    config = ExperimentConfig(
        model=make_cost_model(), descent=FAST_DESCENT, per_class_sample=3, repeats=2, rng_seed=2
    )
    report = run_classification(dataset, config)
    n_test = 2 * (5 - 3)
    assert report.per_mode["gm"].n_distance_evals == 2 * n_test * 2
    assert report.repeats == 2


def test_classification_tie_goes_to_first_class():
    # both classes hold identical graphs, so every distance ties and the
    # smallest class index wins: exactly the class-0 share of the test set
    g = build_graph(2, [1, 1], [(0, 1, 1)])
    records = [GraphRecord(f"a{i}", "A", g) for i in range(4)]
    records += [GraphRecord(f"b{i}", "B", g) for i in range(4)]
    dataset = DatasetDescriptor("tie", "label", 0, "label", records, None, None)
    config = ExperimentConfig(
        model=make_cost_model(), descent=EXACT_DESCENT, per_class_sample=2, rng_seed=0
    )
    report = run_classification(dataset, config)
    assert report.per_mode["sm"].accuracy_pct == 50.0
    assert report.per_mode["gm"].accuracy_pct == 50.0


def test_classification_needs_two_classes():
    g = build_graph(1, [1])
    records = [GraphRecord(f"g{i}", "only", g) for i in range(4)]
    dataset = DatasetDescriptor("one", "label", 0, "label", records, None, None)
    config = ExperimentConfig(model=make_cost_model(), per_class_sample=2)
    with pytest.raises(HarnessError, match="two classes"):
        run_classification(dataset, config)


def test_classification_rejects_empty_test_split():
    dataset = separated_dataset(per_class=3)
    config = ExperimentConfig(model=make_cost_model(), per_class_sample=3)
    with pytest.raises(HarnessError, match="leaves no test set"):
        run_classification(dataset, config)


def test_classification_deterministic():
    dataset = separated_dataset()
    config = ExperimentConfig(
        model=make_cost_model(), descent=FAST_DESCENT, per_class_sample=3, rng_seed=4
    )
    a = run_classification(dataset, config)
    b = run_classification(dataset, config)
    for mode in ("sm", "gm", "ts"):
        assert a.per_mode[mode].accuracy_pct == b.per_mode[mode].accuracy_pct
        assert a.per_mode[mode].n_distance_evals == b.per_mode[mode].n_distance_evals


def overlapping_dataset(per_class=6, seed=11):
    """Three classes of random labeled graphs over overlapping label alphabets: not separable."""
    rng = np.random.default_rng(seed)
    records = []
    for ci, alphabet in enumerate(((1, 2, 3), (2, 3, 4), (1, 3, 4))):
        for k in range(per_class):
            order = int(rng.integers(3, 7))
            labels = [int(rng.choice(alphabet)) for _ in range(order)]
            edges = [
                (i, j, int(rng.integers(1, 3)))
                for i in range(order)
                for j in range(i + 1, order)
                if rng.random() < 0.4
            ]
            g = build_graph(order, labels, edges, edge_labels=True, graph_id=f"c{ci}_{k}")
            records.append(GraphRecord(f"c{ci}_{k}", f"class{ci}", g))
    return DatasetDescriptor("overlap", "label", 0, "label", records, None, None)


def test_harness_outputs_pinned():
    # every solve seed, sample and median of both experiments feeds these numbers
    two_starts = GedSolverConfig(method="mipfp", multistart_count=2)
    config = ExperimentConfig(
        model=make_cost_model(),
        descent=DescentConfig(ged_phase1=two_starts, ged_phase2=two_starts),
        per_class_sample=3,
        repeats=2,
        rng_seed=1,
    )
    dataset = overlapping_dataset()
    report = run_classification(dataset, config)
    assert {mode: (r.accuracy_pct, r.n_distance_evals) for mode, r in report.per_mode.items()} == {
        "sm": (61.11111111111111, 54),
        "gm": (55.55555555555556, 54),
        "ts": (55.55555555555556, 162),
    }
    rows = run_sod_experiment(dataset, config).rows
    assert [(r.class_label, r.repeat, r.sod_sm, r.sod_gm) for r in rows] == [
        ("class0", 0, 13.0, 12.0),
        ("class0", 1, 14.0, 13.0),
        ("class1", 0, 31.0, 28.0),
        ("class1", 1, 30.0, 27.0),
        ("class2", 0, 31.0, 28.0),
        ("class2", 1, 32.0, 29.0),
    ]
