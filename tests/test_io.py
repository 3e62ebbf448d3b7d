"""Native graph format, GXL parsing, and collection indexes."""

import re
import time
import tracemalloc

import numpy as np
import pytest

from gmedian import (
    DatasetError,
    LabelCodec,
    ModeHints,
    build_graph,
    graphs_equal,
    load_collection,
    load_graph,
    parse_collection,
    parse_gxl,
    read_graph,
    save_graph,
    write_graph,
)
from gmedian import datasets
from gmedian.cli import main

from oracles import random_graph

MOL = b"""<?xml version="1.0"?>
<gxl><graph id="mol" edgemode="undirected">
<node id="a"><attr name="chem"><string>C</string></attr></node>
<node id="b"><attr name="chem"><string>O</string></attr></node>
<node id="c"><attr name="chem"><string>C</string></attr></node>
<edge from="a" to="b"><attr name="valence"><int>1</int></attr></edge>
<edge from="b" to="c"><attr name="valence"><int>2</int></attr></edge>
</graph></gxl>"""

POINTS = b"""<?xml version="1.0"?>
<gxl><graph id="pts" edgemode="undirected">
<node id="n0"><attr name="x"><float>0.5</float></attr><attr name="y"><float>1.5</float></attr></node>
<node id="n1"><attr name="x"><float>2.0</float></attr><attr name="y"><float>0.0</float></attr></node>
<edge from="n0" to="n1"/>
</graph></gxl>"""

# MOL's nodes without any edge, and a GXL graph without nodes
EDGELESS = MOL.split(b"<edge")[0] + b"</graph></gxl>"
EMPTY = b'<gxl><graph id="e" edgemode="undirected"></graph></gxl>'


def test_native_roundtrip_label_graph():
    g = build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2), (2, 3, 3)])
    text = write_graph(g)
    assert text == (
        "gmg 1 4 label label\n"
        "v 0 1\nv 1 2\nv 2 2\nv 3 3\n"
        "e 0 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n"
    )
    assert graphs_equal(g, read_graph(text))


def test_native_roundtrip_vector_graph():
    g = build_graph(3, [[0.5, -1.25], [1e-7, 3.0], [2.0, 2.0]], [(0, 2)])
    back = read_graph(write_graph(g))
    assert graphs_equal(g, back)  # repr precision keeps coordinates exact
    assert back.vertex_attrs.tolist() == g.vertex_attrs.tolist()


def test_native_roundtrip_random():
    rng = np.random.default_rng(40)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(0, 6)))
        assert graphs_equal(g, read_graph(write_graph(g)))
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(0, 5)), vertex_mode="vector", edge_mode="none")
        assert graphs_equal(g, read_graph(write_graph(g)))


def test_native_format_is_deterministic():
    g = build_graph(3, [1, 2, 3], [(0, 2, 1), (0, 1, 2)])
    assert write_graph(g) == write_graph(read_graph(write_graph(g)))


def test_read_graph_errors():
    with pytest.raises(DatasetError, match="empty"):
        read_graph("")
    with pytest.raises(DatasetError, match="header"):
        read_graph("nope 1 2 label label\nv 0 1\nv 1 1\n")
    with pytest.raises(DatasetError, match="version"):
        read_graph("gmg 2 1 label label\nv 0 1\n")
    with pytest.raises(DatasetError, match="modes"):
        read_graph("gmg 1 1 colour label\nv 0 1\n")
    with pytest.raises(DatasetError, match="duplicate vertex"):
        read_graph("gmg 1 2 label none\nv 0 1\nv 0 2\n")
    with pytest.raises(DatasetError, match="missing vertex"):
        read_graph("gmg 1 2 label none\nv 0 1\n")
    # enough lines follow the header, but no vertex line for vertex 1
    with pytest.raises(DatasetError, match=re.escape("missing vertex lines for [1]")):
        read_graph("gmg 1 2 label none\nv 0 1\ne 0 1\n")
    with pytest.raises(DatasetError, match="out of range"):
        read_graph("gmg 1 1 label none\nv 3 1\n")
    with pytest.raises(DatasetError, match="dimension"):
        read_graph("gmg 1 2 vector none\nv 0 1.0\nv 1 1.0 2.0\n")
    with pytest.raises(DatasetError, match="bad edge line"):
        read_graph("gmg 1 2 label label\nv 0 1\nv 1 1\ne 0 1\n")
    with pytest.raises(DatasetError, match="duplicate edge"):
        read_graph("gmg 1 2 label none\nv 0 1\nv 1 1\ne 0 1\ne 1 0\n")
    with pytest.raises(DatasetError, match="unknown line"):
        read_graph("gmg 1 1 label none\nv 0 1\nq 1 2\n")
    with pytest.raises(DatasetError, match="bad number"):
        read_graph("gmg 1 1 label none\nv 0 x\n")
    with pytest.raises(DatasetError, match="bad number"):
        read_graph("gmg 1 1 vector none\nv 0 1.0 y\n")
    with pytest.raises(DatasetError, match="bad number"):
        read_graph("gmg 1 2 label label\nv 0 1\nv 1 1\ne 0 1 z\n")
    with pytest.raises(DatasetError, match="finite"):
        read_graph("gmg 1 1 vector none\nv 0 nan 1.0\n")


@pytest.mark.parametrize("text", ["gmg 1 -1 label none\n", "gmg 1 -2 vector none\nv 0 1.0\n"])
def test_read_graph_rejects_negative_order(text):
    with pytest.raises(DatasetError, match="negative order"):
        read_graph(text)


def test_read_graph_huge_order_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(DatasetError, match="missing vertex"):
            read_graph("gmg 1 10000000 label label\nv 0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_readers_reject_edge_labels_beyond_int64():
    with pytest.raises(DatasetError, match="64 bits"):
        read_graph("gmg 1 2 label label\nv 0 1\nv 1 1\ne 0 1 99999999999999999999\n")
    big = MOL.replace(b"<int>2</int>", b"<int>99999999999999999999</int>")
    with pytest.raises(DatasetError, match="64 bits"):
        parse_gxl(big)


def test_readers_reject_vertex_labels_beyond_int64(tmp_path):
    text = "gmg 1 2 label label\nv 0 99999999999999999999\nv 1 1\n"
    with pytest.raises(DatasetError, match="64 bits"):
        read_graph(text)
    big = MOL.replace(b"<string>O</string>", b"<int>99999999999999999999</int>")
    big = big.replace(b"<string>C</string>", b"<int>1</int>")
    with pytest.raises(DatasetError, match="64 bits"):
        parse_gxl(big)
    path = tmp_path / "big.gmg"
    path.write_text(text)
    assert main(["ged", str(path), str(path)]) == 2


def test_read_graph_empty_order():
    for header, shape in (("gmg 1 0 label label", (0,)), ("gmg 1 0 vector none", (0, 1))):
        g = read_graph(header + "\n")
        assert g.order == 0
        assert g.vertex_attrs.shape == shape  # the header states no vector width
        assert graphs_equal(g, read_graph(write_graph(g)))


def test_save_load_roundtrip(tmp_path):
    g = build_graph(2, [4, 5], [(0, 1, 7)], graph_id="ignored")
    path = tmp_path / "sample.gmg"
    save_graph(g, path)
    back = load_graph(path)
    assert graphs_equal(g, back)
    assert back.graph_id == "sample"
    with pytest.raises(DatasetError, match="cannot read"):
        load_graph(tmp_path / "missing.gmg")


def test_parse_gxl_string_labels():
    g = parse_gxl(MOL, graph_id="mol")
    # first-occurrence numbering: C -> 1, O -> 2
    assert g.vertex_attrs.tolist() == [1, 2, 1]
    assert g.edge_list == [(0, 1), (1, 2)]
    assert g.edge_attrs[0, 1] == 1 and g.edge_attrs[1, 2] == 2
    assert g.graph_id == "mol"


def test_parse_gxl_shared_codec():
    codec = LabelCodec()
    g1 = parse_gxl(MOL, vertex_codec=codec)
    flipped = MOL.replace(b"<string>C</string>", b"<string>N</string>", 1)
    g2 = parse_gxl(flipped, vertex_codec=codec)
    # N is new and gets the next code, O keeps its old one
    assert g1.vertex_attrs.tolist() == [1, 2, 1]
    assert g2.vertex_attrs.tolist() == [3, 2, 1]


def test_parse_gxl_vector_nodes():
    g = parse_gxl(POINTS)
    assert g.vertex_mode == "vector"
    assert g.vertex_attrs.tolist() == [[0.5, 1.5], [2.0, 0.0]]
    assert g.edge_mode == "none"
    assert g.edge_list == [(0, 1)]


def test_parse_gxl_hint_selects_attrs():
    doc = b"""<gxl><graph>
    <node id="a"><attr name="x"><float>1.0</float></attr><attr name="t"><int>4</int></attr></node>
    <node id="b"><attr name="x"><float>2.0</float></attr><attr name="t"><int>5</int></attr></node>
    </graph></gxl>"""
    for hints in (
        ModeHints(node_kind="label", node_attrs=["t"], edge_kind="none"),
        ModeHints(node_kind="label", node_attrs=["t"]),  # only the unset fields are inferred
        ModeHints(node_attrs=["t"]),
    ):
        g = parse_gxl(doc, hints)
        assert g.vertex_attrs.tolist() == [4, 5]
        assert g.edge_mode == "none"
    gv = parse_gxl(doc, ModeHints(node_kind="vector", node_attrs=["x"], edge_kind="none"))
    assert gv.vertex_attrs.tolist() == [[1.0], [2.0]]


def test_parse_gxl_errors():
    with pytest.raises(DatasetError, match="malformed XML"):
        parse_gxl(b"<gxl><graph>")
    with pytest.raises(DatasetError, match="not a node id"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="l"><int>1</int></attr></node>'
            b'<edge from="a" to="zz"/></graph></gxl>'
        )
    with pytest.raises(DatasetError, match="duplicate"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="l"><int>1</int></attr></node>'
            b'<node id="a"><attr name="l"><int>2</int></attr></node></graph></gxl>'
        )
    with pytest.raises(DatasetError, match="duplicate edge"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="l"><int>1</int></attr></node>'
            b'<node id="b"><attr name="l"><int>2</int></attr></node>'
            b'<edge from="a" to="b"/><edge from="b" to="a"/></graph></gxl>'
        )
    with pytest.raises(DatasetError, match="is a float"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="l"><float>1.5</float></attr></node>'
            b"</graph></gxl>",
            ModeHints(node_kind="label", node_attrs=["l"], edge_kind="none"),
        )
    with pytest.raises(DatasetError, match="unsupported attr value"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="l"><blob>x</blob></attr></node></graph></gxl>'
        )
    for bad in (b"nan", b"inf", b"-inf"):
        with pytest.raises(DatasetError, match="finite"):
            parse_gxl(
                b'<gxl><graph><node id="a"><attr name="x"><float>' + bad
                + b"</float></attr></node></graph></gxl>"
            )
    with pytest.raises(DatasetError, match="one label or one vector"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="l"><int>1</int></attr>'
            b'<attr name="m"><int>2</int></attr></node></graph></gxl>'
        )
    with pytest.raises(DatasetError, match="one label or one vector"):
        parse_gxl(b'<gxl><graph><node id="a"/></graph></gxl>')
    with pytest.raises(DatasetError, match="first edge has no attr"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="l"><int>1</int></attr></node>'
            b'<node id="b"><attr name="l"><int>2</int></attr></node>'
            b'<edge from="a" to="b"/></graph></gxl>',
            ModeHints(edge_kind="label"),
        )
    with pytest.raises(DatasetError, match="non-numeric"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="x"><string>east</string></attr></node>'
            b"</graph></gxl>",
            ModeHints(node_kind="vector", node_attrs=["x"], edge_kind="none"),
        )


def test_parse_gxl_self_loop_rejected():
    with pytest.raises(DatasetError, match="self-loop"):
        parse_gxl(
            b'<gxl><graph><node id="a"><attr name="l"><int>1</int></attr></node>'
            b'<edge from="a" to="a"/></graph></gxl>'
        )


def _write_dataset(tmp_path, docs, classes):
    entries = []
    for i, (doc, cls) in enumerate(zip(docs, classes)):
        (tmp_path / f"g{i}.gxl").write_bytes(doc)
        entries.append(f'<print file="g{i}.gxl" class="{cls}"/>')
    index = "<?xml version=\"1.0\"?><GraphCollection><prints>" + "".join(entries) + "</prints></GraphCollection>"
    (tmp_path / "index.cxl").write_text(index)
    return tmp_path / "index.cxl"


def test_parse_collection(tmp_path):
    flipped = MOL.replace(b"<string>C</string>", b"<string>N</string>", 1)
    index = _write_dataset(tmp_path, [MOL, flipped], ["alpha", "beta"])
    ds = load_collection(index)
    assert ds.name == "index"
    assert ds.vertex_mode == "label" and ds.edge_mode == "label"
    assert [r.class_label for r in ds.records] == ["alpha", "beta"]
    assert [r.graph_id for r in ds.records] == ["g0", "g1"]
    assert ds.classes == ["alpha", "beta"]
    # codec is shared across files: O means the same integer everywhere
    assert ds.records[0].graph.vertex_attrs[1] == ds.records[1].graph.vertex_attrs[1]


def test_parse_collection_missing_file(tmp_path):
    (tmp_path / "index.cxl").write_text('<x><e file="gone.gxl" class="a"/></x>')
    with pytest.raises(DatasetError, match="gone.gxl"):
        load_collection(tmp_path / "index.cxl")


def test_parse_collection_empty_index():
    with pytest.raises(DatasetError, match="no graphs"):
        parse_collection("<x></x>", ".")


def test_parse_collection_mode_mismatch(tmp_path):
    index = _write_dataset(tmp_path, [MOL, POINTS], ["a", "b"])
    with pytest.raises(DatasetError):
        load_collection(index)


@pytest.mark.parametrize(
    "docs, modes",
    [
        ((EDGELESS, MOL), ("label", 0, "label")),
        ((POINTS, EMPTY), ("vector", 2, "none")),
    ],
    ids=["edgeless-labelled", "vector-empty"],
)
def test_parse_collection_layout_ignores_index_order(tmp_path, docs, modes):
    loads = []
    for order in (docs, docs[::-1]):
        folder = tmp_path / str(len(loads))
        folder.mkdir()
        ds = load_collection(_write_dataset(folder, order, ["a", "b"]))
        assert (ds.vertex_mode, ds.vector_dim, ds.edge_mode) == modes
        for rec in ds.records:
            assert (rec.graph.vertex_mode, rec.graph.vector_dim, rec.graph.edge_mode) == modes
        loads.append({doc: rec.graph for doc, rec in zip(order, ds.records)})
    for doc in docs:
        assert graphs_equal(loads[0][doc], loads[1][doc])
    if docs[1] is MOL:  # the labelled edge survives behind the edgeless file
        assert loads[0][MOL].edge_attrs[1, 2] == 2
    else:  # the graph without nodes keeps the collection's vector width
        assert loads[0][EMPTY].vertex_attrs.shape == (0, 2)


def test_parse_collection_hints_leave_the_rest_to_inference(tmp_path):
    ds = load_collection(_write_dataset(tmp_path, [EDGELESS, MOL], ["a", "b"]), ModeHints(edge_kind="label"))
    assert ds.edge_mode == "label"
    assert ds.records[1].graph.edge_attrs[1, 2] == 2
    hints = ModeHints("vector", ["x", "y"], "none", None)
    ds = load_collection(_write_dataset(tmp_path, [EMPTY, POINTS], ["a", "b"]), hints)
    assert ds.records[0].graph.vertex_attrs.shape == (0, 2)


def test_parse_collection_parses_only_the_first_file_twice(tmp_path, monkeypatch):
    calls = []
    fromstring = datasets.ET.fromstring

    def counting(data, *args, **kwargs):
        calls.append(data)
        return fromstring(data, *args, **kwargs)

    index = _write_dataset(tmp_path, [MOL, EDGELESS, MOL], ["a", "b", "c"])
    monkeypatch.setattr(datasets.ET, "fromstring", counting)
    load_collection(index)
    # the index, each file once, and the first file once more for the layout
    assert len(calls) == 1 + 3 + 1
    assert calls[1] == calls[2] == MOL


@pytest.mark.parametrize("element", ["node", "edge"])
def test_parse_collection_names_the_file_of_a_bad_first_attr(tmp_path, element):
    blob = '<attr name="l"><blob>1</blob></attr>'
    node, edge = (blob, "") if element == "node" else ('<attr name="l"><int>1</int></attr>', blob)
    nodes = f'<node id="a">{node}</node><node id="b">{node}</node>'
    doc = f'<gxl><graph>{nodes}<edge from="a" to="b">{edge}</edge></graph></gxl>'
    index = _write_dataset(tmp_path, [doc.encode()], ["a"])
    with pytest.raises(DatasetError, match=r"g0\.gxl: unsupported attr value type 'blob'$"):
        load_collection(index)


NODES = b"".join(b'<node id="%s"><attr name="chem"><string>C</string></attr></node>' % v for v in (b"a", b"b"))
BARE = b"<gxl><graph>" + NODES + b'<edge from="a" to="b"/></graph></gxl>'
WEIGHTED = b"<gxl><graph>" + NODES + b'<edge from="a" to="b"><attr name="w"><int>2</int></attr></edge></graph></gxl>'


@pytest.mark.parametrize("docs", [(BARE, WEIGHTED), (WEIGHTED, BARE)], ids=["bare-first", "weighted-first"])
def test_parse_collection_first_edge_without_attrs_fails_in_either_order(tmp_path, monkeypatch, docs):
    index = _write_dataset(tmp_path, docs, ["a", "b"])
    # the second file breaks the rule the first file's edge set
    fault = "has an attr but the first edge of the load has none" if docs[0] is BARE else "lacks attr 'w'"
    with pytest.raises(DatasetError, match=re.escape(f"g1.gxl: edge ('a', 'b') {fault}")):
        load_collection(index)
    # an explicit edge kind of none ignores the attr, in either order, and reads no file more often
    calls = []
    fromstring = datasets.ET.fromstring
    monkeypatch.setattr(datasets.ET, "fromstring", lambda data: calls.append(data) or fromstring(data))
    ds = load_collection(index, ModeHints(edge_kind="none"))
    assert ds.edge_mode == "none"
    assert [rec.graph.edge_list for rec in ds.records] == [[(0, 1)], [(0, 1)]]
    # the index, each file once, and the first file once more for the node layout
    assert len(calls) == 1 + 2 + 1


def test_collection_missing_index():
    with pytest.raises(DatasetError, match="cannot read collection index"):
        load_collection("/nonexistent/index.cxl")


def test_label_codec_rejects_mixed_kinds():
    codec = LabelCodec()
    codec.encode("A")
    with pytest.raises(DatasetError, match="mixes"):
        codec.encode(3)


_FUZZ_ALPHABET = "0123456789 -.exvgmlabnonlt<>/=\"\n"


def _mutate(rng: np.random.Generator, text: str) -> str:
    """Replace, insert or delete one to three characters."""
    chars = list(text)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(chars) + 1))
        kind = int(rng.integers(0, 3))
        new = _FUZZ_ALPHABET[int(rng.integers(0, len(_FUZZ_ALPHABET)))]
        if kind == 0 and pos < len(chars):
            chars[pos] = new
        elif kind == 1:
            chars.insert(pos, new)
        elif pos < len(chars):
            del chars[pos]
    return "".join(chars)


def test_readers_raise_only_dataset_error_on_mutated_input():
    rng = np.random.default_rng(77)
    label = write_graph(build_graph(4, [1, 2, 2, 3], [(1, 2, 1), (0, 3, 3), (1, 3, 2)]))
    vector = write_graph(build_graph(3, [[0.5, -1.25], [1e-7, 3.0], [2.0, 2.0]], [(0, 2)]))
    cases = [
        (read_graph, label),
        (read_graph, vector),
        (parse_gxl, MOL.decode()),
        (parse_gxl, POINTS.decode()),
    ]
    start = time.perf_counter()
    parsed = rejected = 0
    for reader, text in cases:
        for _ in range(600):
            try:
                reader(_mutate(rng, text))
                parsed += 1
            except DatasetError:
                rejected += 1
    assert parsed > 0 and rejected > 0  # the mutations reach both outcomes
    assert time.perf_counter() - start < 5.0
