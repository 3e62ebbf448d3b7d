"""Minimal GXL graph and CXL index writer for point graphs.

Writes the subset the IAM Letter database uses: one undirected graph per
file, nodes with float ``x``/``y`` attributes, unattributed edges, and a
``GraphCollection`` index of ``<print file=... class=...>`` entries.
Coordinates are written with ``repr`` so they load back bit for bit.
"""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import quoteattr


def gxl_document(graph_id, points, edges):
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<gxl>",
        f'<graph id={quoteattr(graph_id)} edgeids="false" edgemode="undirected">',
    ]
    for v, (x, y) in enumerate(points):
        lines.append(
            f'<node id="_{v}"><attr name="x"><float>{x!r}</float></attr>'
            f'<attr name="y"><float>{y!r}</float></attr></node>'
        )
    for i, j in sorted(edges):
        lines.append(f'<edge from="_{i}" to="_{j}"/>')
    lines += ["</graph>", "</gxl>", ""]
    return "\n".join(lines)


def write_dataset(directory, name, entries):
    """Write ``(graph_id, class_label, (points, edges))`` entries; return the index path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    prints = []
    for graph_id, class_label, (points, edges) in entries:
        file_name = f"{graph_id}.gxl"
        (directory / file_name).write_text(gxl_document(graph_id, points, edges))
        prints.append(f"<print file={quoteattr(file_name)} class={quoteattr(class_label)}/>")
    index = "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            "<GraphCollection>",
            f'<fingerprints count="{len(prints)}">',
            *prints,
            "</fingerprints>",
            "</GraphCollection>",
            "",
        ]
    )
    index_path = directory / f"{name}.cxl"
    index_path.write_text(index)
    return index_path
