"""The row writer that ``kgrag.graph.save_graph`` once used, kept as a test
oracle: one ``json.JSONEncoder(ensure_ascii=False, sort_keys=True)`` encodes
each record as a dict. ``save_graph`` writes each row from a format string
instead and must give the same bytes, row for row. Also a node lookup by
label for the tests, and the per-field reader ``load_graph`` once was
(:func:`oracle_load_error`): ``load_graph`` judges a good row by one test
and must refuse every other row with this reader's message and line."""

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


# --------------------------------------------------------- load refusals

_NODE_FIELDS = ("type", "id", "label", "canonical", "kind")
_EDGE_FIELDS = ("type", "id", "source", "target", "label", "structural")


def oracle_load_error(text: str) -> tuple[str, int] | None:
    """The refusal ``load_graph`` gives the graph file ``text``, as
    ``(message, line)``, or ``None`` if it loads. This is the per-field
    reader ``load_graph`` once was: each line parsed on its own, then
    checked field by field in a fixed order, the first fault reported."""
    nodes: set[str] = set()
    canonicals: set[str] = set()
    edges: set[tuple[str, str, str]] = set()
    edge_ids: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return f"invalid JSON: {exc}", lineno
        fault = _record_fault(record, nodes, canonicals, edges, edge_ids)
        if fault is not None:
            return fault, lineno
    return None


def _record_fault(record, nodes: set[str], canonicals: set[str],
                  edges: set[tuple[str, str, str]], edge_ids: set[str]) -> str | None:
    """The fault of one parsed line, given the rows before it, which the
    sets hold; a good row is added to them."""
    if not isinstance(record, dict):
        return "record is not an object"
    for name, value in record.items():
        if isinstance(value, str) and not _encodable(value):
            return f"field {name!r} holds a lone surrogate"
    kind = record.get("type")
    if kind == "node":
        fault = _missing_or_not_a_string(record, _NODE_FIELDS[1:])
        if fault is not None:
            return fault
        if len(record) != len(_NODE_FIELDS):
            return _extra_field(record, _NODE_FIELDS)
        if record["kind"] not in ("entity", "hypernode"):
            return f"bad node kind {record['kind']!r}"
        canonical = record["canonical"]
        if canonical != normalize_label(record["label"]):
            return "canonical does not match label"
        if canonical in canonicals:
            return f"duplicate canonical label {canonical!r}"
        if record["id"] in nodes:
            return f"duplicate node id {record['id']!r}"
        nodes.add(record["id"])
        canonicals.add(canonical)
        return None
    if kind == "edge":
        fault = _missing_or_not_a_string(record, _EDGE_FIELDS[1:5])
        if fault is not None:
            return fault
        if "structural" not in record:
            return "missing field 'structural'"
        if type(record["structural"]) is not bool:
            return "field 'structural' is not a boolean"
        if len(record) != len(_EDGE_FIELDS):
            return _extra_field(record, _EDGE_FIELDS)
        if record["source"] not in nodes or record["target"] not in nodes:
            return "edge references an unknown node"
        canonical = normalize_label(record["label"])
        if record["structural"] != (canonical in ("_subject", "_object")):
            return "structural flag does not match label"
        key = (record["source"], canonical, record["target"])
        if key in edges:
            return "duplicate edge"
        if record["id"] in edge_ids:
            return f"duplicate edge id {record['id']!r}"
        edges.add(key)
        edge_ids.add(record["id"])
        return None
    return f"unknown record type {kind!r}"


def _encodable(text: str) -> bool:
    """``json.loads`` joins an escaped surrogate pair into one character,
    so a string UTF-8 cannot encode holds a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _missing_or_not_a_string(record: dict, names: tuple[str, ...]) -> str | None:
    for name in names:
        if record.get(name) is None:
            return f"missing field {name!r}"
        if type(record[name]) is not str:
            return f"field {name!r} is not a string"
    return None


def _extra_field(record: dict, names: tuple[str, ...]) -> str:
    """The fault of a record holding every field of ``names`` and more."""
    return f"unexpected field {next(name for name in record if name not in names)!r}"
