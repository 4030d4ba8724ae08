"""Row writers and a per-field reader for ``graph.jsonl``, kept as test
oracles.

:func:`node_row` and :func:`edge_row` encode each record as a list with one
``json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))``.
``kgrag.graph.save_graph`` writes each row from a format string instead and
must give the same bytes, row for row. :func:`v1_node_row` and
:func:`v1_edge_row` are the writer of the older format, one JSON object per
row with its keys sorted, which ``load_graph`` still reads.

:func:`oracle_load_error` is the per-field reader ``load_graph`` once was,
for both formats: ``load_graph`` judges a good row by one test and must
refuse every other row with this reader's message and line. Also a node
lookup by label for the tests."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from kgrag.graph import EdgeRecord, KnowledgeGraph, NodeRecord, normalize_label

_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))
_V1_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
_KIND_CODES = {"entity": "e", "hypernode": "h"}


def node_row(node: NodeRecord) -> str:
    return _ROW_ENCODER.encode([_KIND_CODES[node.kind], node.id, node.label]) + "\n"


def edge_row(edge: EdgeRecord) -> str:
    return _ROW_ENCODER.encode([edge.source, edge.label, edge.target, edge.id]) + "\n"


def v1_node_row(node: NodeRecord) -> str:
    return _V1_ROW_ENCODER.encode(
        {"type": "node", "id": node.id, "label": node.label,
         "canonical": node.canonical, "kind": node.kind}) + "\n"


def v1_edge_row(edge: EdgeRecord) -> str:
    return _V1_ROW_ENCODER.encode(
        {"type": "edge", "id": edge.id, "source": edge.source,
         "target": edge.target, "label": edge.label,
         "structural": edge.structural}) + "\n"


def find_node(graph: KnowledgeGraph, label: str) -> NodeRecord | None:
    """The node whose label is ``label``, compared canonically, if any."""
    canonical = normalize_label(label)
    return next((node for node in graph.nodes if node.canonical == canonical), None)


def _sorted_records(graph: KnowledgeGraph) -> tuple[list[NodeRecord], list[EdgeRecord]]:
    """Nodes and edges in the order ``save_graph`` writes them."""
    nodes = sorted(graph.nodes, key=lambda n: (n.kind, n.canonical))
    edges = sorted(graph.edges, key=lambda e: (e.canonical, e.source, e.target))
    return nodes, edges


def saved_text(graph: KnowledgeGraph) -> str:
    """The whole file, as ``save_graph`` writes it."""
    nodes, edges = _sorted_records(graph)
    return "".join(map(node_row, nodes)) + "".join(map(edge_row, edges))


def v1_text(graph: KnowledgeGraph) -> str:
    """The whole file, as the writer of the older format wrote it."""
    nodes, edges = _sorted_records(graph)
    return "".join(map(v1_node_row, nodes)) + "".join(map(v1_edge_row, edges))


# --------------------------------------------------------- load refusals

_NODE_FIELDS = ("type", "id", "label", "canonical", "kind")
_EDGE_FIELDS = ("type", "id", "source", "target", "label", "structural")
# The names of an array row's items, by its length.
_ROW_FIELDS = {3: ("kind", "id", "label"), 4: ("source", "label", "target", "id")}


def oracle_load_error(text: str) -> tuple[str, int] | None:
    """The refusal ``load_graph`` gives the graph file ``text``, as
    ``(message, line)``, or ``None`` if it loads. This is the per-field
    reader ``load_graph`` once was: each line parsed on its own, then
    checked field by field in a fixed order, the first fault reported. An
    array is judged as a row of the current format, an object as a row of
    the older one."""
    seen = _Seen()
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return f"invalid JSON: {exc}", lineno
        if isinstance(record, list):
            fault = _row_fault(record, seen)
        elif isinstance(record, dict):
            fault = _record_fault(record, seen)
        else:
            fault = "record is not an array and not an object"
        if fault is not None:
            return fault, lineno
    return None


@dataclass
class _Seen:
    """The rows before a line: node ids, canonicals, edges as (source,
    canonical, target), and edge ids. A good row is added to them."""

    nodes: set[str] = field(default_factory=set)
    canonicals: set[str] = field(default_factory=set)
    edges: set[tuple[str, str, str]] = field(default_factory=set)
    edge_ids: set[str] = field(default_factory=set)

    def node_fault(self, node_id: str, canonical: str) -> str | None:
        if canonical in self.canonicals:
            return f"duplicate canonical label {canonical!r}"
        if node_id in self.nodes:
            return f"duplicate node id {node_id!r}"
        self.nodes.add(node_id)
        self.canonicals.add(canonical)
        return None

    def edge_fault(self, edge_id: str, key: tuple[str, str, str]) -> str | None:
        if key in self.edges:
            return "duplicate edge"
        if edge_id in self.edge_ids:
            return f"duplicate edge id {edge_id!r}"
        self.edges.add(key)
        self.edge_ids.add(edge_id)
        return None


def _row_fault(row: list, seen: _Seen) -> str | None:
    """The fault of one line parsed as an array: ``["e"|"h",id,label]`` or
    ``[source,label,target,id]``."""
    names = _ROW_FIELDS.get(len(row))
    if names is None:
        return f"row has {len(row)} items, not 3 (a node) or 4 (an edge)"
    for name, item in zip(names, row):
        if not isinstance(item, str):
            return f"field {name!r} is not a string"
        if not _encodable(item):
            return f"field {name!r} holds a lone surrogate"
    if len(row) == 3:
        kind, node_id, label = row
        if kind not in ("e", "h"):
            return f"bad node kind {kind!r}"
        return seen.node_fault(node_id, normalize_label(label))
    source, label, target, edge_id = row
    if source not in seen.nodes or target not in seen.nodes:
        return "edge references an unknown node"
    return seen.edge_fault(edge_id, (source, normalize_label(label), target))


def _record_fault(record: dict, seen: _Seen) -> str | None:
    """The fault of one line parsed as an object, a row of the older
    format."""
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
        return seen.node_fault(record["id"], canonical)
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
        if record["source"] not in seen.nodes or record["target"] not in seen.nodes:
            return "edge references an unknown node"
        canonical = normalize_label(record["label"])
        if record["structural"] != (canonical in ("_subject", "_object")):
            return "structural flag does not match label"
        return seen.edge_fault(record["id"], (record["source"], canonical, record["target"]))
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
