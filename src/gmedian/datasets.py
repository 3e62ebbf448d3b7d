"""Dataset loading: GXL graphs, XML collection indexes, native text format.

Supported GXL subset: one ``<graph>`` with ``<node>`` and ``<edge>``
children; attributes are ``<attr name="..."><int|float|double|string>``
values. Node ids map to 0..n-1 in document order; edge direction is
ignored and duplicate vertex pairs (either orientation) are rejected.
String labels are mapped to integers starting at 1 in first-occurrence
order across one dataset load.

The native format is line-based and round-trips exactly::

    gmg 1 <n> <label|vector> <label|none>
    v <i> <attr...>
    e <i> <j> [<label>]

with 0-based vertex indices, one ``v`` line per vertex, edges listed once
as ``i < j``. Vector coordinates are written with full (repr) precision.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
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
    """How to read GXL attributes; ``None`` fields are inferred.

    ``node_kind`` is ``"label"`` or ``"vector"``; ``node_attrs`` lists the
    attribute names to read (one for a label, the ordered coordinate names
    for a vector). ``edge_kind`` is ``"label"`` or ``"none"`` with
    ``edge_attr`` naming the label attribute.
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

    def by_class(self, label: str) -> list[AttributedGraph]:
        return [r.graph for r in self.records if r.class_label == label]


_VALUE_TAGS = {"int": int, "integer": int, "float": float, "double": float, "string": str}


def _attr_values(element: ET.Element) -> dict[str, int | float | str]:
    values: dict[str, int | float | str] = {}
    for attr in element.findall("attr"):
        name = attr.get("name")
        if name is None:
            raise DatasetError("attr element without a name")
        child = next(iter(attr), None)
        if child is None:
            raise DatasetError(f"attr {name!r} has no value element")
        tag = child.tag.lower()
        if tag not in _VALUE_TAGS:
            raise DatasetError(f"unsupported attr value type {child.tag!r}")
        text = (child.text or "").strip()
        try:
            values[name] = _VALUE_TAGS[tag](text)
        except ValueError as exc:
            raise DatasetError(f"bad {tag} value {text!r} for attr {name!r}") from exc
    return values


def _infer_hints(node_values: dict, edge_values: dict) -> ModeHints:
    names = list(node_values)
    if not names:
        raise DatasetError("cannot infer attribute modes from a node without attrs")
    if all(isinstance(node_values[k], float) for k in names):
        node_kind, node_attrs = VECTOR, names
    elif len(names) == 1:
        node_kind, node_attrs = LABEL, names
    else:
        raise DatasetError("cannot infer a single label among several node attrs")
    if edge_values:
        edge_kind, edge_attr = LABEL, next(iter(edge_values))
    else:
        edge_kind, edge_attr = NO_EDGE_ATTRS, None
    return ModeHints(node_kind, node_attrs, edge_kind, edge_attr)


def _complete_hints(hints: ModeHints | None, root: ET.Element) -> ModeHints:
    nodes = root.findall(".//node")
    first_node = _attr_values(nodes[0]) if nodes else {}
    edges = root.findall(".//edge")
    first_edge = _attr_values(edges[0]) if edges else {}
    given = hints if hints is not None else ModeHints()
    if given.node_kind is None or given.edge_kind is None or given.node_attrs is None:
        inferred = _infer_hints(first_node, first_edge) if nodes else ModeHints(LABEL, [], NO_EDGE_ATTRS)
    else:
        inferred = given
    out = ModeHints(
        given.node_kind or inferred.node_kind,
        given.node_attrs if given.node_attrs is not None else inferred.node_attrs,
        given.edge_kind or inferred.edge_kind,
        given.edge_attr or inferred.edge_attr,
    )
    if out.edge_kind == LABEL and out.edge_attr is None:
        if not first_edge:
            raise DatasetError("edge labels requested but no edge attr name given")
        out.edge_attr = next(iter(first_edge))
    return out


def parse_gxl(
    data: str | bytes,
    hints: ModeHints | None = None,
    *,
    vertex_codec: LabelCodec | None = None,
    edge_codec: LabelCodec | None = None,
    graph_id: str = "",
) -> AttributedGraph:
    """Parse one GXL document into a graph.

    ``hints`` selects which attributes to read (inferred from the first
    node/edge when omitted); codecs carry string-label dictionaries across
    the files of one dataset.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise DatasetError(f"malformed XML: {exc}") from exc
    hints = _complete_hints(hints, root)
    vertex_codec = vertex_codec if vertex_codec is not None else LabelCodec()
    edge_codec = edge_codec if edge_codec is not None else LabelCodec()

    nodes = root.findall(".//node")
    index_of: dict[str, int] = {}
    attrs: list = []
    for pos, node in enumerate(nodes):
        node_id = node.get("id")
        if node_id is None or node_id in index_of:
            raise DatasetError(f"missing or duplicate node id {node_id!r}")
        index_of[node_id] = pos
        values = _attr_values(node)
        if hints.node_kind == VECTOR:
            try:
                attrs.append([float(values[name]) for name in hints.node_attrs])
            except KeyError as exc:
                raise DatasetError(f"node {node_id!r} lacks attr {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise DatasetError(f"node {node_id!r} has a non-numeric coordinate") from exc
        else:
            if hints.node_attrs:
                name = hints.node_attrs[0]
                if name not in values:
                    raise DatasetError(f"node {node_id!r} lacks attr {name!r}")
                value = values[name]
            elif len(values) == 1:
                value = next(iter(values.values()))
            else:
                raise DatasetError(f"node {node_id!r} needs exactly one label attr")
            if isinstance(value, float):
                raise DatasetError(f"label attr of node {node_id!r} is a float")
            attrs.append(vertex_codec.encode(value))

    edges: list[tuple] = []
    for edge in root.findall(".//edge"):
        src, dst = edge.get("from"), edge.get("to")
        if src not in index_of or dst not in index_of:
            raise DatasetError(f"edge endpoint {src!r} or {dst!r} is not a node id")
        i, j = index_of[src], index_of[dst]
        if hints.edge_kind == LABEL:
            values = _attr_values(edge)
            if hints.edge_attr not in values:
                raise DatasetError(f"edge ({src!r}, {dst!r}) lacks attr {hints.edge_attr!r}")
            value = values[hints.edge_attr]
            if isinstance(value, float):
                raise DatasetError(f"label attr of edge ({src!r}, {dst!r}) is a float")
            edges.append((i, j, edge_codec.encode(value)))
        else:
            edges.append((i, j))
    try:
        return build_graph(
            len(nodes),
            attrs,
            edges,
            edge_labels=hints.edge_kind == LABEL,
            graph_id=graph_id,
        )
    except GraphError as exc:
        raise DatasetError(str(exc)) from exc


def parse_collection(
    index_data: str | bytes,
    base_path: str | Path,
    hints: ModeHints | None = None,
    name: str = "",
) -> DatasetDescriptor:
    """Load a dataset from an XML index listing ``file``/``class`` entries.

    Every element carrying both a ``file`` and a ``class`` attribute counts
    as one entry; files are resolved against ``base_path``. Attribute modes
    are taken from ``hints`` or inferred from the first file and then
    enforced over the whole collection.
    """
    try:
        root = ET.fromstring(index_data)
    except ET.ParseError as exc:
        raise DatasetError(f"malformed XML index: {exc}") from exc
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
    records: list[GraphRecord] = []
    resolved: ModeHints | None = hints
    for file_name, class_label in entries:
        path = base / file_name
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise DatasetError(f"cannot read graph file {path}: {exc}") from exc
        if resolved is None or resolved.node_kind is None or resolved.edge_kind is None:
            try:
                resolved = _complete_hints(resolved, ET.fromstring(data))
            except ET.ParseError as exc:
                raise DatasetError(f"malformed XML in {path}: {exc}") from exc
        try:
            graph = parse_gxl(
                data,
                resolved,
                vertex_codec=vertex_codec,
                edge_codec=edge_codec,
                graph_id=Path(file_name).stem,
            )
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from exc
        records.append(GraphRecord(Path(file_name).stem, class_label, graph))

    first = records[0].graph
    for rec in records:
        if rec.graph.vertex_mode != first.vertex_mode or rec.graph.edge_mode != first.edge_mode:
            raise DatasetError(f"graph {rec.graph_id!r} breaks the collection's attribute modes")
        if rec.graph.vertex_mode == VECTOR and rec.graph.vector_dim != first.vector_dim:
            raise DatasetError(f"graph {rec.graph_id!r} has a different vector dimension")
    return DatasetDescriptor(
        name=name,
        vertex_mode=first.vertex_mode,
        vector_dim=first.vector_dim,
        edge_mode=first.edge_mode,
        records=records,
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
    if order == 0:
        va = np.zeros(0, dtype=np.int64) if vmode == LABEL else np.zeros((0, 1))
        ea = np.zeros((0, 0), dtype=np.int64) if emode == LABEL else None
        return AttributedGraph(va, np.zeros((0, 0), dtype=np.int8), ea, graph_id)
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
