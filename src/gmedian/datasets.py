"""Dataset loading: GXL graphs, XML collection indexes, native text format.

Supported GXL subset: one ``<graph>`` with ``<node>`` and ``<edge>``
children; attributes are ``<attr name="..."><int|float|double|string>``
values. Node ids map to 0..n-1 in document order; edge direction is
ignored and duplicate vertex pairs (either orientation) are rejected.
String labels are mapped to integers starting at 1 in first-occurrence
order across one dataset load. One attribute layout (vertex labels or
vectors of one width, edge labels or none) is decided per load from the
first node and the first edge across its files in index order, so every
graph of a load, empty ones too, has the same modes.

The native format is line-based and round-trips exactly::

    gmg 1 <n> <label|vector> <label|none>
    v <i> <attr...>
    e <i> <j> [<label>]

with 0-based vertex indices, one ``v`` line per vertex, edges listed once
as ``i < j``. Vector coordinates are written with full (repr) precision.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import LABEL, NO_EDGE_ATTRS, VECTOR, AttributedGraph, GraphError, build_graph

__all__ = [
    "DatasetError",
    "ModeHints",
    "LabelCodec",
    "GraphRecord",
    "DatasetDescriptor",
    "parse_gxl",
    "parse_collection",
    "load_collection",
    "write_graph",
    "read_graph",
    "save_graph",
    "load_graph",
]


class DatasetError(ValueError):
    """Malformed dataset file or index."""


class LabelCodec:
    """Deterministic value-to-integer mapping for one attribute space.

    Integer values pass through unchanged; strings are numbered from 1 in
    first-occurrence order. One codec never mixes the two.
    """

    def __init__(self) -> None:
        self.mapping: dict[str, int] = {}
        self._kind: str | None = None

    def encode(self, value: int | str) -> int:
        kind = "int" if isinstance(value, int) else "str"
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise DatasetError("dataset mixes integer and string labels")
        if kind == "int":
            return int(value)
        if value not in self.mapping:
            self.mapping[value] = len(self.mapping) + 1
        return self.mapping[value]


@dataclass
class ModeHints:
    """How to read GXL attributes; ``None`` fields are inferred, each on its own.

    ``node_kind`` is ``"label"`` or ``"vector"``; ``node_attrs`` lists the
    attribute names to read (one for a label, the ordered coordinate names
    for a vector). ``edge_kind`` is ``"label"`` or ``"none"`` with
    ``edge_attr`` naming the label attribute. Inferred means read off the
    first node and the first edge of the load, as set out in ``_layout``.
    """

    node_kind: str | None = None
    node_attrs: list[str] | None = None
    edge_kind: str | None = None
    edge_attr: str | None = None


@dataclass
class GraphRecord:
    graph_id: str
    class_label: str
    graph: AttributedGraph


@dataclass
class DatasetDescriptor:
    """A named, homogeneous collection of class-tagged graphs."""

    name: str
    vertex_mode: str
    vector_dim: int
    edge_mode: str
    records: list[GraphRecord] = field(default_factory=list)
    vertex_codec: LabelCodec | None = None
    edge_codec: LabelCodec | None = None

    @property
    def graphs(self) -> list[AttributedGraph]:
        return [r.graph for r in self.records]

    @property
    def classes(self) -> list[str]:
        return sorted({r.class_label for r in self.records})


_VALUE_TAGS = {"int": int, "integer": int, "float": float, "double": float, "string": str}


def _attr_values(element: ET.Element, where: str = "") -> dict[str, int | float | str]:
    values: dict[str, int | float | str] = {}
    for attr in element.findall("attr"):
        name = attr.get("name")
        if name is None:
            raise DatasetError(f"{where}attr element without a name")
        child = next(iter(attr), None)
        if child is None:
            raise DatasetError(f"{where}attr {name!r} has no value element")
        tag = child.tag.lower()
        if tag not in _VALUE_TAGS:
            raise DatasetError(f"{where}unsupported attr value type {child.tag!r}")
        text = (child.text or "").strip()
        try:
            values[name] = _VALUE_TAGS[tag](text)
        except ValueError as exc:
            raise DatasetError(f"{where}bad {tag} value {text!r} for attr {name!r}") from exc
    return values


def _xml(data: str | bytes, what: str = "XML") -> ET.Element:
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise DatasetError(f"malformed {what}: {exc}") from exc


def _layout(hints: ModeHints | None, docs: Iterable[tuple[str, ET.Element]]) -> ModeHints:
    """Complete ``hints`` field by field from the first node and the first edge found
    across ``docs``, (where, GXL root) pairs read in order only while needed; an error
    about that node or edge starts with its ``where``.

    Unset node attrs are the first node's attr names: all floats make a vector,
    a single other attr a label, and with no node anywhere vertices are labels.
    Unset edges take the first edge's first attr as their label; with no edge
    anywhere, or a first edge without attrs, edges carry none, and then no
    edge of the load may carry one (an ``edge_kind`` of none in the hints ignores them).
    """
    given = hints if hints is not None else ModeHints()
    need_node = given.node_kind is None or not given.node_attrs
    need_edge = given.edge_kind is None or (given.edge_kind == LABEL and given.edge_attr is None)
    node = edge = None
    node_at = edge_at = ""
    for where, root in docs if need_node or need_edge else ():
        node, node_at = (root.find(".//node"), where) if need_node and node is None else (node, node_at)
        edge, edge_at = (root.find(".//edge"), where) if need_edge and edge is None else (edge, edge_at)
        if (node is not None or not need_node) and (edge is not None or not need_edge):
            break
    values = _attr_values(node, node_at) if node is not None else {}
    node_attrs = given.node_attrs or list(values)
    node_kind = given.node_kind or (
        VECTOR if node_attrs and all(isinstance(values.get(k), float) for k in node_attrs) else LABEL
    )
    if (node is not None and not node_attrs) or (node_kind == LABEL and len(node_attrs) > 1):
        raise DatasetError(f"{node_at}cannot read one label or one vector from node attrs {node_attrs}")
    edge_values = _attr_values(edge, edge_at) if edge is not None else {}
    edge_kind = given.edge_kind or (LABEL if edge_values else NO_EDGE_ATTRS)
    edge_attr = given.edge_attr or next(iter(edge_values), None)
    if edge_kind == LABEL and edge is not None and edge_attr is None:
        raise DatasetError(f"{edge_at}edge labels requested but the first edge has no attr")
    return ModeHints(node_kind, node_attrs, edge_kind, edge_attr)


def parse_gxl(
    data: str | bytes,
    hints: ModeHints | None = None,
    *,
    vertex_codec: LabelCodec | None = None,
    edge_codec: LabelCodec | None = None,
    graph_id: str = "",
) -> AttributedGraph:
    """Parse one GXL document into a graph.

    ``hints`` selects which attributes to read; fields left unset are
    inferred from this document's first node and first edge. Codecs carry
    string-label dictionaries across the files of one dataset.
    """
    root = _xml(data)
    codecs = vertex_codec or LabelCodec(), edge_codec or LabelCodec()
    return _gxl_graph(root, _layout(hints, [("", root)]), hints, *codecs, graph_id)


def _gxl_graph(
    root: ET.Element, layout: ModeHints, hints: ModeHints | None, vertex_codec: LabelCodec,
    edge_codec: LabelCodec, graph_id: str,
) -> AttributedGraph:
    """The graph of a GXL root read to a complete ``layout``, which was decided from ``hints``."""
    nodes = root.findall(".//node")
    index_of: dict[str, int] = {}
    attrs: list = []
    for pos, node in enumerate(nodes):
        node_id = node.get("id")
        if node_id is None or node_id in index_of:
            raise DatasetError(f"missing or duplicate node id {node_id!r}")
        index_of[node_id] = pos
        values = _attr_values(node)
        if layout.node_kind == VECTOR:
            try:
                attrs.append([float(values[name]) for name in layout.node_attrs])
            except KeyError as exc:
                raise DatasetError(f"node {node_id!r} lacks attr {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise DatasetError(f"node {node_id!r} has a non-numeric coordinate") from exc
        else:
            name = layout.node_attrs[0]
            if name not in values:
                raise DatasetError(f"node {node_id!r} lacks attr {name!r}")
            if isinstance(values[name], float):
                raise DatasetError(f"label attr of node {node_id!r} is a float")
            attrs.append(vertex_codec.encode(values[name]))

    edges: list[tuple] = []
    for edge in root.findall(".//edge"):
        src, dst = edge.get("from"), edge.get("to")
        if src not in index_of or dst not in index_of:
            raise DatasetError(f"edge endpoint {src!r} or {dst!r} is not a node id")
        i, j = index_of[src], index_of[dst]
        if layout.edge_kind == LABEL:
            values = _attr_values(edge)
            if layout.edge_attr not in values:
                raise DatasetError(f"edge ({src!r}, {dst!r}) lacks attr {layout.edge_attr!r}")
            value = values[layout.edge_attr]
            if isinstance(value, float):
                raise DatasetError(f"label attr of edge ({src!r}, {dst!r}) is a float")
            edges.append((i, j, edge_codec.encode(value)))
        elif (hints is None or hints.edge_kind is None) and edge.find("attr") is not None:
            raise DatasetError(f"edge ({src!r}, {dst!r}) has an attr but the first edge of the load has none")
        else:
            edges.append((i, j))
    if not nodes and layout.node_kind == VECTOR:
        attrs = np.zeros((0, len(layout.node_attrs)))  # keeps the layout's width
    try:
        return build_graph(
            len(nodes),
            attrs,
            edges,
            edge_labels=layout.edge_kind == LABEL,
            graph_id=graph_id,
        )
    except GraphError as exc:
        raise DatasetError(str(exc)) from exc


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read graph file {path}: {exc}") from exc


def _parse_gxl_files(
    paths: list[Path],
    hints: ModeHints | None,
    vertex_codec: LabelCodec,
    edge_codec: LabelCodec,
) -> tuple[ModeHints, list[AttributedGraph]]:
    """Parse GXL files to the one layout decided from all of them in order;
    a file is parsed a second time only while the layout lacks a node or an edge."""
    layout = _layout(hints, ((f"{path}: ", _xml(_read_bytes(path), f"XML in {path}")) for path in paths))
    graphs = []
    for path in paths:
        try:
            graphs.append(_gxl_graph(_xml(_read_bytes(path)), layout, hints, vertex_codec, edge_codec, path.stem))
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from exc
    return layout, graphs


def parse_collection(
    index_data: str | bytes,
    base_path: str | Path,
    hints: ModeHints | None = None,
    name: str = "",
) -> DatasetDescriptor:
    """Load a dataset from an XML index listing ``file``/``class`` entries.

    Every element carrying both a ``file`` and a ``class`` attribute counts
    as one entry; files are resolved against ``base_path``. One attribute
    layout, from ``hints`` and the first node and first edge across the
    files in index order, is applied to every file.
    """
    root = _xml(index_data, "XML index")
    entries = [
        (el.get("file"), el.get("class"))
        for el in root.iter()
        if el.get("file") is not None and el.get("class") is not None
    ]
    if not entries:
        raise DatasetError("collection index lists no graphs")
    base = Path(base_path)
    vertex_codec = LabelCodec()
    edge_codec = LabelCodec()
    layout, graphs = _parse_gxl_files([base / f for f, _ in entries], hints, vertex_codec, edge_codec)
    return DatasetDescriptor(
        name=name,
        vertex_mode=layout.node_kind,
        vector_dim=len(layout.node_attrs) if layout.node_kind == VECTOR else 0,
        edge_mode=layout.edge_kind,
        records=[GraphRecord(g.graph_id, class_label, g) for g, (_, class_label) in zip(graphs, entries)],
        vertex_codec=vertex_codec,
        edge_codec=edge_codec,
    )


def load_collection(
    index_path: str | Path, hints: ModeHints | None = None, name: str | None = None
) -> DatasetDescriptor:
    """:func:`parse_collection` reading the index from disk."""
    index_path = Path(index_path)
    try:
        data = index_path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read collection index {index_path}: {exc}") from exc
    return parse_collection(
        data, index_path.parent, hints, name if name is not None else index_path.stem
    )


def write_graph(g: AttributedGraph) -> str:
    """Serialize to the native line format (deterministic bytes)."""
    lines = [f"gmg 1 {g.order} {g.vertex_mode} {g.edge_mode}"]
    for i in range(g.order):
        if g.vertex_mode == LABEL:
            lines.append(f"v {i} {int(g.vertex_attrs[i])}")
        else:
            coords = " ".join(repr(float(x)) for x in g.vertex_attrs[i])
            lines.append(f"v {i} {coords}")
    for i, j in g.edge_list:
        if g.edge_mode == LABEL:
            lines.append(f"e {i} {j} {int(g.edge_attrs[i, j])}")
        else:
            lines.append(f"e {i} {j}")
    return "\n".join(lines) + "\n"


def _number(parse, text: str, line: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise DatasetError(f"bad number {text!r} in line {line!r}") from exc


def read_graph(text: str, graph_id: str = "") -> AttributedGraph:
    """Parse the native line format; inverse of :func:`write_graph`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DatasetError("empty graph file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "gmg":
        raise DatasetError("bad header, expected 'gmg 1 <n> <mode> <edge_mode>'")
    if header[1] != "1":
        raise DatasetError(f"unsupported format version {header[1]!r}")
    order = _number(int, header[2], lines[0])
    vmode, emode = header[3], header[4]
    if vmode not in (LABEL, VECTOR) or emode not in (LABEL, NO_EDGE_ATTRS):
        raise DatasetError(f"unknown modes {vmode!r}/{emode!r}")
    if order < 0:
        raise DatasetError(f"negative order {order} in header {lines[0]!r}")
    if order > len(lines) - 1:  # every vertex needs a line; checked before allocating
        raise DatasetError(f"missing vertex lines: order {order} but {len(lines) - 1} lines follow")
    attrs: list = [None] * order
    edges: list[tuple] = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "v":
            if (vmode == LABEL and len(parts) != 3) or (vmode == VECTOR and len(parts) < 3):
                raise DatasetError(f"bad vertex line {line!r}")
            i = _number(int, parts[1], line)
            if not 0 <= i < order:
                raise DatasetError(f"vertex index {i} out of range")
            if attrs[i] is not None:
                raise DatasetError(f"duplicate vertex line for {i}")
            if vmode == LABEL:
                attrs[i] = _number(int, parts[2], line)
            else:
                attrs[i] = [_number(float, x, line) for x in parts[2:]]
        elif parts[0] == "e":
            expected = 4 if emode == LABEL else 3
            if len(parts) != expected:
                raise DatasetError(f"bad edge line {line!r}")
            edges.append(tuple(_number(int, x, line) for x in parts[1:]))
        else:
            raise DatasetError(f"unknown line type {parts[0]!r}")
    missing = [i for i, a in enumerate(attrs) if a is None]
    if missing:
        raise DatasetError(f"missing vertex lines for {missing}")
    if vmode == VECTOR and len({len(a) for a in attrs}) > 1:
        raise DatasetError("vector lines disagree on dimension")
    if order == 0 and vmode == VECTOR:
        attrs = np.zeros((0, 1))  # the header states no width
    try:
        return build_graph(order, attrs, edges, edge_labels=emode == LABEL, graph_id=graph_id)
    except GraphError as exc:
        raise DatasetError(str(exc)) from exc


def save_graph(g: AttributedGraph, path: str | Path) -> None:
    Path(path).write_text(write_graph(g), encoding="ascii")


def load_graph(path: str | Path) -> AttributedGraph:
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise DatasetError(f"cannot read graph file {path}: {exc}") from exc
    return read_graph(text, graph_id=path.stem)
