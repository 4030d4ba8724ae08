"""The row writer that ``kgrag.graph.save_graph`` once used, kept as a test
oracle: one ``json.JSONEncoder(ensure_ascii=False, sort_keys=True)`` encodes
each record as a dict. ``save_graph`` writes each row from a format string
instead and must give the same bytes, row for row. Also a node lookup by
label for the tests."""

from __future__ import annotations

import json

from kgrag.graph import EdgeRecord, KnowledgeGraph, NodeRecord, normalize_label

_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def node_row(node: NodeRecord) -> str:
    return _ROW_ENCODER.encode(
        {"type": "node", "id": node.id, "label": node.label,
         "canonical": node.canonical, "kind": node.kind}) + "\n"


def edge_row(edge: EdgeRecord) -> str:
    return _ROW_ENCODER.encode(
        {"type": "edge", "id": edge.id, "source": edge.source,
         "target": edge.target, "label": edge.label,
         "structural": edge.structural}) + "\n"


def find_node(graph: KnowledgeGraph, label: str) -> NodeRecord | None:
    """The node whose label is ``label``, compared canonically, if any."""
    canonical = normalize_label(label)
    return next((node for node in graph.nodes if node.canonical == canonical), None)


def saved_text(graph: KnowledgeGraph) -> str:
    """The whole file, in the order ``save_graph`` writes it."""
    nodes = sorted(graph.nodes, key=lambda n: (n.kind, n.canonical))
    edges = sorted(graph.edges, key=lambda e: (e.canonical, e.source, e.target))
    return "".join(map(node_row, nodes)) + "".join(map(edge_row, edges))
