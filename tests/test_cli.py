"""Command-line interface: subcommands, exit codes, deterministic outputs."""

import json
import warnings

import numpy as np
import pytest

from gmedian import (
    DescentConfig,
    ExperimentConfig,
    GedSolverConfig,
    ModeHints,
    build_graph,
    make_cost_model,
    read_graph,
    save_graph,
)
from gmedian.cli import DEFAULTS, main

GXL_TEMPLATE = """<?xml version="1.0"?>
<gxl><graph id="{gid}" edgemode="undirected">
{nodes}
{edges}
</graph></gxl>"""


@pytest.fixture
def graph_files(tmp_path):
    g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
    g2 = build_graph(3, [1, 2, 2], [(1, 2, 1), (0, 2, 4)])
    a, b = tmp_path / "a.gmg", tmp_path / "b.gmg"
    save_graph(g, a)
    save_graph(g2, b)
    return str(a), str(b)


def _write_gxl(path, gid, labels, edges):
    nodes = "\n".join(
        f'<node id="n{i}"><attr name="lab"><int>{lab}</int></attr></node>'
        for i, lab in enumerate(labels)
    )
    edge_lines = "\n".join(
        f'<edge from="n{i}" to="n{j}"><attr name="bond"><int>{lab}</int></attr></edge>'
        for i, j, lab in edges
    )
    path.write_text(GXL_TEMPLATE.format(gid=gid, nodes=nodes, edges=edge_lines))


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(17)
    entries = []
    for ci, label_value in enumerate((1, 9)):
        for k in range(4):
            # same order everywhere: cross-class maps pay 4 substitutions,
            # within-class graphs differ by at most one edge label
            order = 4
            labels = [label_value] * order
            edges = [(i, i + 1, 1) for i in range(order - 1)]
            if rng.random() < 0.5:
                edges[-1] = (order - 2, order - 1, 2)
            name = f"c{ci}_{k}.gxl"
            _write_gxl(tmp_path / name, f"c{ci}_{k}", labels, edges)
            entries.append(f'<print file="{name}" class="class{ci}"/>')
    index = tmp_path / "index.cxl"
    index.write_text(
        '<?xml version="1.0"?><GraphCollection><prints>'
        + "".join(entries)
        + "</prints></GraphCollection>"
    )
    return str(index)


def test_ged_exact(graph_files, capsys):
    a, b = graph_files
    assert main(["ged", a, b, "--method", "exact"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "cost 11"
    assert "exact yes" in out
    assert out.splitlines()[2].startswith("map ")


def test_ged_with_an_empty_side_is_exact_under_the_default_method(tmp_path, capsys):
    """Removing one graph whole is the pair's one map, so a heuristic reports it as exact."""
    g, empty = tmp_path / "g.gmg", tmp_path / "empty.gmg"
    save_graph(build_graph(3, [1, 2, 2], [(0, 1, 1), (1, 2, 2)]), g)
    save_graph(build_graph(0, [], edge_labels=True), empty)
    assert main(["ged", str(g), str(empty)]) == 0
    assert capsys.readouterr().out.splitlines() == ["cost 15", "exact yes", "map 0->x 1->x 2->x"]


def test_ged_respects_cost_flag(graph_files, capsys):
    a, _ = graph_files
    assert main(["ged", a, a, "--method", "exact", "--cost", "c_vs=2,c_es=0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cost 0"


def test_usage_errors(graph_files, capsys):
    a, b = graph_files
    assert main(["ged", a]) == 1
    assert main(["ged", a, b, "--bogus"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["ged", a, b, "--cost", "c_zz=1"]) == 1
    assert main(["ged", a, b, "--cost", "c_vs=abc"]) == 1
    assert main(["sod-table"]) == 1  # --dataset is required
    capsys.readouterr()


def test_data_errors(tmp_path, graph_files, capsys):
    a, _ = graph_files
    assert main(["ged", a, str(tmp_path / "missing.gmg")]) == 2
    bad = tmp_path / "bad.gmg"
    bad.write_text("gmg 9 1 label label\nv 0 1\n")
    assert main(["ged", a, str(bad)]) == 2
    bad.write_text("gmg 1 1 label label\nv 0 x\n")
    assert main(["ged", a, str(bad)]) == 2
    assert main(["median", "--dataset", str(tmp_path / "no_index.cxl")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


def test_cost_guard_is_usage_error(graph_files, capsys):
    a, b = graph_files
    assert main(["ged", a, b, "--cost", "c_vs=100"]) == 1
    assert "error" in capsys.readouterr().err


def test_cost_item_without_a_value_is_usage_error(graph_files, capsys):
    a, b = graph_files
    assert main(["ged", a, b, "--cost", "c_vs"]) == 1
    assert "bad --cost item 'c_vs', expected name=value" in capsys.readouterr().err


@pytest.mark.parametrize("spec, name", [("c_er=nan", "c_er"), ("c_er=inf", "c_er"), ("c_vs=nan", "c_vs")])
def test_non_finite_cost_constant_is_usage_error(spec, name, graph_files, capsys):
    a, b = graph_files
    assert main(["ged", a, b, "--cost", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{name} must be finite" in err


@pytest.mark.parametrize("method", ["exact", "bipartite", "mipfp"])
def test_overflowing_total_cost_is_usage_error(method, tmp_path, capsys):
    # each constant is finite, but removing three vertices at 1e308 each is not
    a, b = tmp_path / "l3.gmg", tmp_path / "l0.gmg"
    save_graph(build_graph(3, [1, 2, 1], [(0, 1, 1)]), a)
    save_graph(build_graph(0, [], edge_labels=True), b)
    assert main(["ged", str(a), str(b), "--method", method, "--cost", "c_vr=1e308"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 3*c_vr + 0*c_vi + 1*c_er + 0*c_ei overflows with c_vr=1e+308"), err


def test_ipfp_tol_from_config_is_validated(graph_files, tmp_path, capsys):
    # the IPFP stop, the IPFP step cap and the exact order cap are constants of the solver, not settings
    a, b = graph_files
    cfg = tmp_path / "cfg.json"
    for key, value in (("ipfp_tol", 1e-4), ("ipfp_max_iters", 50), ("exact_cap", 8)):
        cfg.write_text(json.dumps({"ged": {key: value}}))
        assert main(["ged", a, b, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key ged.{key}\n"


@pytest.mark.parametrize("method", ["exact", "bipartite", "ipfp", "mbipartite", "mipfp"])
def test_negative_seed_is_usage_error(method, graph_files, capsys):
    a, b = graph_files
    assert main(["ged", a, b, "--method", method, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: rng_seed must be non-negative, got -1\n"


def test_integer_cost_constants_in_a_config_file_price_as_floats(tmp_path, capsys):
    a, b = tmp_path / "a.gmg", tmp_path / "b.gmg"
    save_graph(build_graph(3, [1, 2, 3], [(0, 1, 1), (1, 2, 2)]), a)
    save_graph(build_graph(3, [1, 2, 2], [(0, 1, 1)]), b)
    outputs = []
    for kind in (int, float):
        cfg = tmp_path / f"{kind.__name__}.json"
        constants = dict(c_vs=1, c_es=1, c_vr=2**61, c_vi=2**61, c_er=3, c_ei=3)
        cfg.write_text(json.dumps({"cost": {key: kind(value) for key, value in constants.items()}}))
        assert main(["ged", str(a), str(b), "--method", "exact", "--config", str(cfg)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].splitlines()[0] == "cost 4"
    # integers near the float limit overflow in sum, as their float values do
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"cost": {"c_vr": 10**308, "c_vi": 10**308}}))
    assert main(["ged", str(a), str(b), "--method", "exact", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
    assert err.endswith(" overflows with c_vr=1e+308, c_vi=1e+308, c_er=3.0, c_ei=3.0\n"), err


@pytest.mark.parametrize("method", ["exact", "bipartite", "mipfp"])
def test_removal_cost_above_1e15(method, tmp_path, capsys):
    a, b = tmp_path / "l3.gmg", tmp_path / "l1.gmg"
    save_graph(build_graph(3, [1, 2, 1], [(0, 1, 1)]), a)
    save_graph(build_graph(1, [1], edge_labels=True), b)
    assert main(["ged", str(a), str(b), "--method", method, "--cost", "c_vr=1e16"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cost 2e+16"


def test_median_writes_deterministic_file(dataset, tmp_path, capsys):
    out1 = tmp_path / "m1.gmg"
    out2 = tmp_path / "m2.gmg"
    args = ["median", "--dataset", dataset, "--multistart", "4", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--out", str(out2), "--threads", "2"]) == 0
    second = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    # stdout traces carry no timings, so they are reproducible too
    trace1 = [ln for ln in first.splitlines() if ln.startswith("iter")]
    trace2 = [ln for ln in second.splitlines() if ln.startswith("iter")]
    assert trace1 == trace2
    median = read_graph(out1.read_text())
    assert median.order > 0


def test_set_median_subcommand(dataset, tmp_path, capsys):
    out = tmp_path / "sm.gmg"
    assert main(["set-median", "--dataset", dataset, "--multistart", "4", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "set-median index" in stdout
    assert out.exists()
    read_graph(out.read_text())


def test_sod_table_csv(dataset, tmp_path, capsys):
    out = tmp_path / "sod.csv"
    code = main(
        ["sod-table", "--dataset", dataset, "--sample", "3", "--multistart", "4",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "class,repeat,sod_sm,t_sm,sod_gm,t_gm"
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[4]) <= float(parts[2]) + 1e-9
    capsys.readouterr()


def test_classify_csv(dataset, tmp_path, capsys):
    out = tmp_path / "cls.csv"
    code = main(
        ["classify", "--dataset", dataset, "--sample", "2", "--multistart", "4",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,accuracy_pct,time_s,pt"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"sm", "gm", "ts"}
    # disjoint label alphabets classify perfectly
    assert float(rows["gm"][1]) == 100.0
    capsys.readouterr()


LETTER_STROKES = {
    "L": ([(0.0, 2.0), (0.0, 0.0), (1.0, 0.0)], [(0, 1), (1, 2)]),
    "T": ([(0.0, 2.0), (1.0, 2.0), (2.0, 2.0), (1.0, 0.0)], [(0, 1), (1, 2), (1, 3)]),
    "V": ([(0.0, 2.0), (1.0, 0.0), (2.0, 2.0)], [(0, 1), (1, 2)]),
}


@pytest.fixture
def letter_dataset(tmp_path):
    """IAM-Letter-shaped files: x/y float vertices, unattributed edges, a CXL index."""
    rng = np.random.default_rng(5)
    prints = []
    for letter, (points, edges) in LETTER_STROKES.items():
        for k in range(4):
            gid = f"{letter}{k}"
            nodes = "\n".join(
                f'<node id="_{v}"><attr name="x"><float>{x + rng.normal(0, 0.2)!r}</float></attr>'
                f'<attr name="y"><float>{y + rng.normal(0, 0.2)!r}</float></attr></node>'
                for v, (x, y) in enumerate(points)
            )
            edge_lines = "\n".join(f'<edge from="_{i}" to="_{j}"/>' for i, j in edges)
            (tmp_path / f"{gid}.gxl").write_text(GXL_TEMPLATE.format(gid=gid, nodes=nodes, edges=edge_lines))
            prints.append(f'<print file="{gid}.gxl" class="{letter}"/>')
    index = tmp_path / "letter.cxl"
    index.write_text(
        '<?xml version="1.0"?><GraphCollection><fingerprints>' + "".join(prints) + "</fingerprints></GraphCollection>"
    )
    return str(index)


def test_letter_shaped_sod_table_and_classify(letter_dataset, tmp_path, capsys):
    common = ["--dataset", letter_dataset, "--multistart", "2", "--seed", "3",
              "--cost", "c_vr=0.9,c_vi=0.9,c_er=1.7,c_ei=1.7"]
    sod, cls = tmp_path / "sod.csv", tmp_path / "cls.csv"
    with pytest.warns(RuntimeWarning, match="squared-distance"):
        assert main(["sod-table", *common, "--sample", "3", "--repeats", "2", "--out", str(sod)]) == 0
    with pytest.warns(RuntimeWarning, match="squared-distance"):
        assert main(["classify", *common, "--sample", "2", "--out", str(cls)]) == 0
    lines = sod.read_text().splitlines()
    assert lines[0] == "class,repeat,sod_sm,t_sm,sod_gm,t_gm"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [(c, rep) for c in "LTV" for rep in "01"]
    for r in rows:
        assert len(r) == 6 and 0.0 <= float(r[4]) <= float(r[2])
    lines = cls.read_text().splitlines()
    assert lines[0] == "mode,accuracy_pct,time_s,pt"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["sm", "gm", "ts"]
    for r in rows:
        assert len(r) == 4 and 0.0 <= float(r[1]) <= 100.0
    capsys.readouterr()


def test_dump_config_and_overrides(dataset, capsys):
    assert main(["median", "--dataset", dataset, "--dump-config", "--cost", "c_vs=2",
                 "--phase1", "bipartite", "--sample", "0.5"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert config["cost"]["c_vs"] == 2.0
    assert config["cost"]["c_er"] == 3.0
    assert config["ged"]["phase1"] == "bipartite"
    assert config["run"]["sample"] == 0.5


def test_config_file_precedence(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cost": {"c_vs": 2.0}, "ged": {"multistart": 9}}))
    assert main(["median", "--dataset", dataset, "--dump-config", "--config", str(cfg),
                 "--cost", "c_vs=0.5"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert config["cost"]["c_vs"] == 0.5  # flag beats the config file
    assert config["ged"]["multistart"] == 9


def test_cost_spec_skips_an_empty_item(dataset, capsys):
    assert main(["median", "--dataset", dataset, "--dump-config", "--cost", "c_vs=2,,c_vr=4"]) == 0
    cost = json.loads(capsys.readouterr().out)["cost"]
    assert cost == {**DEFAULT_CONFIG["cost"], "c_vs": 2.0, "c_vr": 4.0}


def test_config_file_sets_node_attrs_to_a_list_of_names(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"node_attrs": ["x", "y"]}}))
    assert main(["median", "--dataset", dataset, "--dump-config", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["node_attrs"] == ["x", "y"]


def test_config_file_errors(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["median", "--dataset", dataset, "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps({"wrong_section": {}}))
    assert main(["median", "--dataset", dataset, "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps({"ged": {"wrong_key": 1}}))
    assert main(["median", "--dataset", dataset, "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps({"cost": 3}))
    assert main(["median", "--dataset", dataset, "--config", str(cfg)]) == 1
    assert "config section 'cost' must be an object" in capsys.readouterr().err
    assert main(["median", "--dataset", dataset, "--config", str(tmp_path / "none.json")]) == 2
    capsys.readouterr()


def test_gxl_input_for_ged(tmp_path, capsys):
    _write_gxl(tmp_path / "x.gxl", "x", [1, 2], [(0, 1, 1)])
    _write_gxl(tmp_path / "y.gxl", "y", [1, 2], [(0, 1, 2)])
    assert main(["ged", str(tmp_path / "x.gxl"), str(tmp_path / "y.gxl"),
                 "--method", "exact"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cost 1"


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("median", "cost", "c_vs", None),
        ("classify", "run", "sample", None),
        ("ged", "cost", "c_vr", "x"),
        ("ged", "ged", "multistart", 2.7),
        ("ged", "run", "max_iters", 1.9),
        ("median", "data", "node_attrs", "x"),
        ("median", "data", "node_attrs", ["x", 1]),
    ],
)
def test_config_value_of_wrong_type(command, section, key, value, graph_files, dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    inputs = list(graph_files) if command == "ged" else ["--dataset", dataset]
    assert main([command, *inputs, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{section}.{key}" in err
    assert err.strip().endswith(f"has the wrong type: {json.dumps(value)}")


@pytest.mark.parametrize(
    "section, key, value",
    [("data", "edge_kind", "nones"), ("data", "node_kind", "vectr"), ("ged", "phase1", "bogus")],
)
def test_config_value_outside_its_flag_choices(section, key, value, tmp_path, capsys):
    # a flag refuses these values, so a config file must too, not read the data another way
    _write_gxl(tmp_path / "x.gxl", "x", [1, 2], [(0, 1, 1)])
    _write_gxl(tmp_path / "y.gxl", "y", [1, 2], [(0, 1, 2)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    assert main(["ged", str(tmp_path / "x.gxl"), str(tmp_path / "y.gxl"), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"config key {section}.{key} must be one of" in err
    assert err.strip().endswith(f"got {json.dumps(value)}")


@pytest.mark.parametrize(
    "section, key, literal",
    [
        ("ged", "multistart", "1e400"),
        ("cost", "c_vi", "-1e400"),
        ("cost", "c_er", "NaN"),
        ("ged", "seed", "1" + "0" * 400),
    ],
    ids=["float-overflow", "negative-overflow", "nan", "integer-beyond-float"],
)
def test_config_number_beyond_float_range(section, key, literal, graph_files, tmp_path, capsys):
    a, _ = graph_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{section}": {{"{key}": {literal}}}}}')
    assert main(["ged", a, a, "--config", str(cfg)]) == 1
    assert f"config key {section}.{key} has the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_sample_is_usage_error(value, dataset, capsys):
    assert main(["classify", "--dataset", dataset, "--sample", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "per_class_sample must be finite" in err


def test_fractional_sample_count_is_usage_error(dataset, capsys):
    assert main(["classify", "--dataset", dataset, "--sample", "2.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be a whole count, got 2.5" in err


@pytest.mark.parametrize("method", ["exact", "bipartite", "ipfp", "mbipartite", "mipfp"])
def test_overflowing_vector_distance_is_data_error(method, tmp_path, capsys):
    # finite coordinates whose squared distance, 4e400, is beyond float64
    a, b = tmp_path / "a.gmg", tmp_path / "b.gmg"
    a.write_text("gmg 1 2 vector none\nv 0 1e200 0\nv 1 0 0\n")
    b.write_text("gmg 1 2 vector none\nv 0 -1e200 0\nv 1 0 0\n")
    with pytest.warns(RuntimeWarning, match="unbounded"):
        assert main(["ged", str(a), str(b), "--method", method]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: squared distance between vertex vectors [1e+200, 0.0] and [-1e+200, 0.0]")


def test_ged_reads_both_gxl_files_with_one_label_codec(tmp_path, capsys):
    for name, label in (("c", "C"), ("o", "O")):
        node = f'<node id="n0"><attr name="chem"><string>{label}</string></attr></node>'
        (tmp_path / f"{name}.gxl").write_text(GXL_TEMPLATE.format(gid=name, nodes=node, edges=""))
    assert main(["ged", str(tmp_path / "c.gxl"), str(tmp_path / "o.gxl"), "--method", "exact"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cost 1"


def test_ged_decides_one_layout_from_both_gxl_files(tmp_path, capsys):
    _write_gxl(tmp_path / "edgeless.gxl", "edgeless", [1, 2], [])
    _write_gxl(tmp_path / "bonded.gxl", "bonded", [1, 2], [(0, 1, 3)])
    point = '<node id="n0"><attr name="x"><float>0.5</float></attr><attr name="y"><float>1.5</float></attr></node>'
    (tmp_path / "vector.gxl").write_text(GXL_TEMPLATE.format(gid="vector", nodes=point, edges=""))
    (tmp_path / "empty.gxl").write_text(GXL_TEMPLATE.format(gid="empty", nodes="", edges=""))
    for pair in (("edgeless", "bonded"), ("vector", "empty"), ("bonded", "edgeless"), ("empty", "vector")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the vector model's unbounded-cost note
            assert main(["ged", *(str(tmp_path / f"{name}.gxl") for name in pair), "--method", "exact"]) == 0
        # one edge or one point at the default insertion and removal cost 3
        assert capsys.readouterr().out.splitlines()[0] == "cost 3"
    # files that really differ still fail: labels against vectors, and a missing attr
    mixed = ["ged", str(tmp_path / "bonded.gxl"), str(tmp_path / "vector.gxl")]
    assert main(mixed) == 2
    assert capsys.readouterr().err.endswith("vector.gxl: node 'n0' lacks attr 'lab'\n")
    assert main(mixed + ["--node-kind", "vector", "--node-attrs", "x,y"]) == 2
    assert capsys.readouterr().err.endswith("bonded.gxl: node 'n0' lacks attr 'x'\n")


def test_log_env(monkeypatch, graph_files, capsys):
    a, b = graph_files
    monkeypatch.setenv("GMG_LOG", "info")
    assert main(["ged", a, b, "--method", "exact"]) == 0
    capsys.readouterr()


def test_ged_on_files_of_different_vertex_modes_is_data_error(tmp_path, capsys):
    a, b = tmp_path / "label.gmg", tmp_path / "vector.gmg"
    save_graph(build_graph(2, [1, 2], [(0, 1, 1)]), a)
    b.write_text("gmg 1 2 vector none\nv 0 0 0\nv 1 1 1\n")
    assert main(["ged", str(a), str(b), "--method", "exact"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(a) in err and str(b) in err


def test_ged_on_vectors_of_different_widths_is_data_error(tmp_path, capsys):
    a, b, empty = tmp_path / "w2.gmg", tmp_path / "w3.gmg", tmp_path / "empty.gmg"
    a.write_text("gmg 1 2 vector none\nv 0 0 0\nv 1 1 1\n")
    b.write_text("gmg 1 1 vector none\nv 0 0 0 0\n")
    empty.write_text("gmg 1 0 vector none\n")
    assert main(["ged", str(a), str(b), "--method", "exact"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(a) in err and str(b) in err
    # a graph without vertices shows no width, so it pairs with any vector graph
    with pytest.warns(RuntimeWarning, match="unbounded"):
        assert main(["ged", str(empty), str(b), "--method", "exact"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cost 3"


# the resolved configuration without flags, as every subcommand prints it
DEFAULT_CONFIG = {
    "cost": {"c_ei": 3.0, "c_er": 3.0, "c_es": 1.0, "c_vi": 3.0, "c_vr": 3.0, "c_vs": 1.0},
    "data": {"edge_attr": None, "edge_kind": None, "node_attrs": None, "node_kind": None},
    "ged": {"method": "mipfp", "multistart": 40, "phase1": "mbipartite", "phase2": "mipfp", "seed": 0},
    "run": {"max_iters": 100, "out": None, "repeats": 1, "sample": 10.0, "threads": 1},
}
COMMANDS = ["ged", "set-median", "median", "sod-table", "classify"]


def _inputs(command):
    return ["a.gmg", "b.gmg"] if command == "ged" else ["--dataset", "unused.cxl"]


@pytest.mark.parametrize("command", COMMANDS)
def test_dump_config_defaults(command, capsys):
    # --dump-config returns before any input file is read
    assert main([command, *_inputs(command), "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == DEFAULT_CONFIG
    assert out == json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True) + "\n"


# flag, value on the command line, section, key, value in the resolved config
SETTING_FLAGS = [
    ("--method", "exact", "ged", "method", "exact"),
    ("--phase1", "bipartite", "ged", "phase1", "bipartite"),
    ("--phase2", "ipfp", "ged", "phase2", "ipfp"),
    ("--multistart", "7", "ged", "multistart", 7),
    ("--seed", "11", "ged", "seed", 11),
    ("--threads", "4", "run", "threads", 4),
    ("--sample", "0.25", "run", "sample", 0.25),
    ("--repeats", "3", "run", "repeats", 3),
    ("--out", "o.csv", "run", "out", "o.csv"),
    ("--max-iters", "5", "run", "max_iters", 5),
    ("--node-kind", "vector", "data", "node_kind", "vector"),
    ("--node-attrs", "x,y", "data", "node_attrs", ["x", "y"]),
    ("--edge-kind", "none", "data", "edge_kind", "none"),
    ("--edge-attr", "bond", "data", "edge_attr", "bond"),
]


@pytest.mark.parametrize("flag, text, section, key, value", SETTING_FLAGS, ids=[f[0] for f in SETTING_FLAGS])
def test_each_flag_sets_its_config_key(flag, text, section, key, value, capsys):
    command = "ged" if flag == "--method" else "median"
    assert main([command, *_inputs(command), flag, text, "--dump-config"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert config[section][key] == value
    config[section][key] = DEFAULT_CONFIG[section][key]
    assert config == DEFAULT_CONFIG  # no other setting moved


@pytest.mark.parametrize("command", COMMANDS)
def test_help_names_every_flag(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    flags = ["--config", "--dump-config", "--cost"] + [f[0] for f in SETTING_FLAGS if f[0] != "--method"]
    flags += ["--method"] if command == "ged" else ["--dataset"]
    for flag in flags:
        assert f"{flag} " in out or f"{flag}\n" in out, flag


def test_cli_defaults_are_the_library_defaults():
    model, solver, descent = make_cost_model(), GedSolverConfig(), DescentConfig()
    experiment = ExperimentConfig(model)
    assert DEFAULTS["cost"] == {
        "c_vs": model.vertex_subst.cost, "c_es": model.edge_subst.cost,
        "c_vr": model.c_vr, "c_vi": model.c_vi, "c_er": model.c_er, "c_ei": model.c_ei,
    }
    assert DEFAULTS["ged"] == {
        "method": solver.method, "phase1": descent.ged_phase1.method, "phase2": descent.ged_phase2.method,
        "multistart": solver.multistart_count, "seed": solver.rng_seed,
    }
    assert DEFAULTS["data"] == vars(ModeHints())
    assert DEFAULTS["run"]["sample"] == experiment.per_class_sample
    assert type(DEFAULTS["run"]["sample"]) is type(experiment.per_class_sample) is float
    assert DEFAULTS["run"]["repeats"] == experiment.repeats
    assert DEFAULTS["run"]["max_iters"] == descent.max_iters
