"""Homogeneous knowledge graph with hypernode storage and JSONL persistence.

Nested statements are stored per the dual representation: the inner relation
is kept as a normal edge between its terms, and a hypernode (label = the
flattened sentence of the inner statement) carries ``_subject``/``_object``
structural edges plus any relations of the statement as a whole.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

from .triples import Entity, TripleStatement, TripleTerm, statement_depth

logger = logging.getLogger(__name__)

KIND_ENTITY = "entity"
KIND_HYPERNODE = "hypernode"

STRUCTURAL_SUBJECT = "_subject"
STRUCTURAL_OBJECT = "_object"
RESERVED_EDGE_LABELS = frozenset({STRUCTURAL_SUBJECT, STRUCTURAL_OBJECT})

_DIRECTIONS = ("out", "in", "both")


class GraphError(Exception):
    pass


class DepthError(GraphError):
    """Statement nesting exceeds the store's maximum depth."""


class UnknownNodeError(GraphError):
    """A node id was referenced that the graph does not contain."""


class GraphIntegrityError(GraphError):
    """An internal invariant does not hold; raised by :meth:`KnowledgeGraph.audit`."""


class GraphFormatError(GraphError):
    """A persisted graph file is malformed. Carries the offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def normalize_label(text: str) -> str:
    """Dedup key: NFC, whitespace collapsed to single spaces, trimmed, casefolded."""
    text = unicodedata.normalize("NFC", text)
    return " ".join(text.split()).casefold()


def flatten_label(statement: TripleStatement) -> str:
    """Depth-first reading of a statement as one sentence-like label."""

    def term_text(term: TripleTerm) -> str:
        if isinstance(term, Entity):
            return term.label.strip()
        return flatten_label(term)

    return " ".join(
        (term_text(statement.subject), statement.predicate.strip(), term_text(statement.object))
    )


@dataclass(frozen=True)
class NodeRecord:
    id: str
    label: str          # display text, first seen
    canonical: str      # normalize_label(label), unique per graph
    kind: str           # entity | hypernode


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    id: str
    source: str
    target: str
    label: str          # display text, first seen
    canonical: str      # normalize_label(label); not persisted
    structural: bool


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    entity_count: int
    hypernode_count: int
    edge_count: int
    distinct_relationship_labels: int

    def to_dict(self) -> dict:
        return {
            "node_count": self.node_count,
            "entity_count": self.entity_count,
            "hypernode_count": self.hypernode_count,
            "edge_count": self.edge_count,
            "distinct_relationship_labels": self.distinct_relationship_labels,
        }


@dataclass
class UpsertOutcome:
    """Ids touched by one upsert, split by whether they were newly created."""

    created: list[str]
    reused: list[str]

    @property
    def created_any(self) -> bool:
        return bool(self.created)


def _node_id(kind: str, canonical: str) -> str:
    digest = hashlib.sha256(f"node\x00{kind}\x00{canonical}".encode("utf-8"))
    return digest.hexdigest()[:16]


def _edge_id(source: str, canonical_label: str, target: str) -> str:
    digest = hashlib.sha256(f"edge\x00{source}\x00{canonical_label}\x00{target}".encode("utf-8"))
    return digest.hexdigest()[:16]


class KnowledgeGraph:
    """In-memory graph. Mutations serialize through a single writer lock;
    concurrent readers are safe once a mutation has returned."""

    def __init__(self, max_depth: int = 4):
        self.max_depth = max_depth
        self._nodes: dict[str, NodeRecord] = {}
        self._edges: dict[str, EdgeRecord] = {}
        self._by_canonical: dict[str, str] = {}
        self._edge_by_key: dict[tuple[str, str, str], str] = {}
        self._out: dict[str, list[str]] = {}
        self._in: dict[str, list[str]] = {}
        self._write_lock = threading.Lock()

    # ------------------------------------------------------------- access

    @property
    def nodes(self) -> Iterator[NodeRecord]:
        return iter(self._nodes.values())

    @property
    def edges(self) -> Iterator[EdgeRecord]:
        return iter(self._edges.values())

    def node(self, node_id: str) -> NodeRecord:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def find_node(self, label: str) -> NodeRecord | None:
        """Look a node up by its label (compared canonically)."""
        node_id = self._by_canonical.get(normalize_label(label))
        return self._nodes.get(node_id) if node_id else None

    # ------------------------------------------------------------- upsert

    def upsert_triple(self, statement: TripleStatement) -> UpsertOutcome:
        """Idempotently store a statement, materializing hypernodes for
        nested terms. Returns the created/reused node and edge ids."""
        depth = statement_depth(statement)
        if depth > self.max_depth:
            raise DepthError(f"statement depth {depth} exceeds max {self.max_depth}")
        _reject_reserved(statement)
        outcome = UpsertOutcome(created=[], reused=[])
        with self._write_lock:
            self._upsert_statement(statement, outcome)
        return outcome

    def _upsert_statement(self, statement: TripleStatement, outcome: UpsertOutcome) -> tuple[str, str]:
        subject_id = self._materialize_term(statement.subject, outcome)
        object_id = self._materialize_term(statement.object, outcome)
        self._upsert_edge(subject_id, statement.predicate, object_id, False, outcome)
        return subject_id, object_id

    def _materialize_term(self, term: TripleTerm, outcome: UpsertOutcome) -> str:
        if isinstance(term, Entity):
            return self._upsert_node(term.label, KIND_ENTITY, outcome)
        subject_id, object_id = self._upsert_statement(term, outcome)
        hyper_id = self._upsert_node(flatten_label(term), KIND_HYPERNODE, outcome)
        if self._nodes[hyper_id].kind == KIND_HYPERNODE:
            self._upsert_edge(hyper_id, STRUCTURAL_SUBJECT, subject_id, True, outcome)
            self._upsert_edge(hyper_id, STRUCTURAL_OBJECT, object_id, True, outcome)
        else:
            # Canonical collision with an existing entity label; reuse the
            # node as-is so structural edges stay exclusive to hypernodes.
            logger.warning("hypernode label collides with entity %r; reusing entity node",
                           self._nodes[hyper_id].label)
        return hyper_id

    def _upsert_node(self, label: str, kind: str, outcome: UpsertOutcome) -> str:
        display = label.strip()
        canonical = normalize_label(display)
        if not canonical:
            raise ValueError("node label is empty after normalization")
        existing = self._by_canonical.get(canonical)
        if existing is not None:
            outcome.reused.append(existing)
            return existing
        node_id = _node_id(kind, canonical)
        self._nodes[node_id] = NodeRecord(node_id, display, canonical, kind)
        self._by_canonical[canonical] = node_id
        self._out.setdefault(node_id, [])
        self._in.setdefault(node_id, [])
        outcome.created.append(node_id)
        return node_id

    def _upsert_edge(self, source: str, label: str, target: str,
                     structural: bool, outcome: UpsertOutcome) -> str:
        display = label.strip()
        canonical = normalize_label(display)
        if not canonical:
            raise ValueError("edge label is empty after normalization")
        key = (source, canonical, target)
        existing = self._edge_by_key.get(key)
        if existing is not None:
            outcome.reused.append(existing)
            return existing
        edge_id = _edge_id(source, canonical, target)
        self._edges[edge_id] = EdgeRecord(edge_id, source, target, display, canonical,
                                          structural)
        self._edge_by_key[key] = edge_id
        self._out[source].append(edge_id)
        self._in[target].append(edge_id)
        outcome.created.append(edge_id)
        return edge_id

    # ---------------------------------------------------------- traversal

    def neighbors(self, node_ids: Iterable[str], direction: str = "out",
                  include_structural: bool = False) -> list[EdgeRecord]:
        """Deduplicated edges incident to the id set, deterministically
        ordered by (canonical label, source, target)."""
        if direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
        ids = list(node_ids)
        for node_id in ids:
            if node_id not in self._nodes:
                raise UnknownNodeError(f"unknown node id {node_id!r}")
        edge_ids: set[str] = set()
        for node_id in ids:
            if direction in ("out", "both"):
                edge_ids.update(self._out.get(node_id, ()))
            if direction in ("in", "both"):
                edge_ids.update(self._in.get(node_id, ()))
        edges = [self._edges[e] for e in edge_ids]
        if not include_structural:
            edges = [e for e in edges if not e.structural]
        edges.sort(key=lambda e: (e.canonical, e.source, e.target))
        return edges

    # -------------------------------------------------------------- stats

    def stats(self) -> GraphStats:
        entity_count = sum(1 for n in self._nodes.values() if n.kind == KIND_ENTITY)
        hypernode_count = len(self._nodes) - entity_count
        labels = {e.canonical for e in self._edges.values() if not e.structural}
        return GraphStats(
            node_count=len(self._nodes),
            entity_count=entity_count,
            hypernode_count=hypernode_count,
            edge_count=len(self._edges),
            distinct_relationship_labels=len(labels),
        )

    # -------------------------------------------------------------- audit

    def audit(self) -> None:
        """Verify structural invariants; raises :class:`GraphIntegrityError`."""
        seen_canonical: set[str] = set()
        for node in self._nodes.values():
            if node.canonical != normalize_label(node.label):
                raise GraphIntegrityError(f"node {node.id}: canonical does not match label")
            if node.canonical in seen_canonical:
                raise GraphIntegrityError(f"duplicate canonical label {node.canonical!r}")
            seen_canonical.add(node.canonical)
            if node.kind not in (KIND_ENTITY, KIND_HYPERNODE):
                raise GraphIntegrityError(f"node {node.id}: bad kind {node.kind!r}")
        seen_keys: set[tuple[str, str, str]] = set()
        for edge in self._edges.values():
            if edge.source not in self._nodes or edge.target not in self._nodes:
                raise GraphIntegrityError(f"edge {edge.id}: dangling endpoint")
            if edge.canonical != normalize_label(edge.label):
                raise GraphIntegrityError(f"edge {edge.id}: canonical does not match label")
            if edge.structural != (edge.canonical in RESERVED_EDGE_LABELS):
                raise GraphIntegrityError(f"edge {edge.id}: structural flag does not match label")
            key = (edge.source, edge.canonical, edge.target)
            if key in seen_keys:
                raise GraphIntegrityError(f"duplicate edge {key!r}")
            seen_keys.add(key)
            if edge.id not in self._out.get(edge.source, ()):
                raise GraphIntegrityError(f"edge {edge.id} missing from out-adjacency")
            if edge.id not in self._in.get(edge.target, ()):
                raise GraphIntegrityError(f"edge {edge.id} missing from in-adjacency")
        for node_id, edge_ids in list(self._out.items()) + list(self._in.items()):
            for edge_id in edge_ids:
                if edge_id not in self._edges:
                    raise GraphIntegrityError(f"adjacency references unknown edge {edge_id!r}")
            if node_id not in self._nodes:
                raise GraphIntegrityError(f"adjacency references unknown node {node_id!r}")
        for node in self._nodes.values():
            if node.kind != KIND_HYPERNODE:
                continue
            structural = [self._edges[e] for e in self._out[node.id] if self._edges[e].structural]
            subjects = [e for e in structural if e.label == STRUCTURAL_SUBJECT]
            objects = [e for e in structural if e.label == STRUCTURAL_OBJECT]
            if len(subjects) != 1 or len(objects) != 1:
                raise GraphIntegrityError(
                    f"hypernode {node.label!r} has {len(subjects)} _subject and "
                    f"{len(objects)} _object edges; expected exactly one of each"
                )


def _reject_reserved(statement: TripleStatement) -> None:
    if normalize_label(statement.predicate) in RESERVED_EDGE_LABELS:
        raise ValueError(f"predicate {statement.predicate!r} is reserved for structural edges")
    for term in (statement.subject, statement.object):
        if isinstance(term, TripleStatement):
            _reject_reserved(term)


# ------------------------------------------------------------- persistence

@contextmanager
def _maybe_open(source):
    """Read from ``source``, a stream or a path."""
    if hasattr(source, "read"):
        yield source
        return
    handle: IO[str] = open(Path(source), "r", encoding="utf-8")
    try:
        yield handle
    finally:
        handle.close()


@contextmanager
def _open_for_write(sink):
    """Write to ``sink``, a stream or a path. A path is written through a
    temporary file in its directory, flushed, fsynced and renamed over the
    target, so an interrupted write leaves the previous file intact."""
    if hasattr(sink, "write"):
        yield sink
        return
    path = Path(sink)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_graph(graph: KnowledgeGraph, sink) -> None:
    """Write nodes then edges as JSONL, deterministically ordered so the
    same graph always produces byte-identical files."""
    with _open_for_write(sink) as f:
        for node in sorted(graph.nodes, key=lambda n: (n.kind, n.canonical)):
            f.write(json.dumps(
                {"type": "node", "id": node.id, "label": node.label,
                 "canonical": node.canonical, "kind": node.kind},
                ensure_ascii=False, sort_keys=True) + "\n")
        for edge in sorted(graph.edges, key=lambda e: (e.canonical, e.source, e.target)):
            f.write(json.dumps(
                {"type": "edge", "id": edge.id, "source": edge.source,
                 "target": edge.target, "label": edge.label, "structural": edge.structural},
                ensure_ascii=False, sort_keys=True) + "\n")


def load_graph(source, max_depth: int = 4) -> KnowledgeGraph:
    """Rebuild a graph from JSONL; any malformed or inconsistent line raises
    :class:`GraphFormatError` with its line number."""
    graph = KnowledgeGraph(max_depth=max_depth)
    with _maybe_open(source) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraphFormatError(f"invalid JSON: {exc}", lineno) from None
            if not isinstance(record, dict):
                raise GraphFormatError("record is not an object", lineno)
            kind = record.get("type")
            if kind == "node":
                _load_node(graph, record, lineno)
            elif kind == "edge":
                _load_edge(graph, record, lineno)
            else:
                raise GraphFormatError(f"unknown record type {kind!r}", lineno)
    return graph


def _require(record: dict, fields: tuple[str, ...], lineno: int) -> None:
    for name in fields:
        if name not in record:
            raise GraphFormatError(f"missing field {name!r}", lineno)


def _load_node(graph: KnowledgeGraph, record: dict, lineno: int) -> None:
    _require(record, ("id", "label", "canonical", "kind"), lineno)
    if record["kind"] not in (KIND_ENTITY, KIND_HYPERNODE):
        raise GraphFormatError(f"bad node kind {record['kind']!r}", lineno)
    canonical = record["canonical"]
    if canonical != normalize_label(record["label"]):
        raise GraphFormatError("canonical does not match label", lineno)
    if canonical in graph._by_canonical:
        raise GraphFormatError(f"duplicate canonical label {canonical!r}", lineno)
    if record["id"] in graph._nodes:
        raise GraphFormatError(f"duplicate node id {record['id']!r}", lineno)
    node = NodeRecord(record["id"], record["label"], canonical, record["kind"])
    graph._nodes[node.id] = node
    graph._by_canonical[canonical] = node.id
    graph._out.setdefault(node.id, [])
    graph._in.setdefault(node.id, [])


def _load_edge(graph: KnowledgeGraph, record: dict, lineno: int) -> None:
    _require(record, ("id", "source", "target", "label", "structural"), lineno)
    if record["source"] not in graph._nodes or record["target"] not in graph._nodes:
        raise GraphFormatError("edge references an unknown node", lineno)
    canonical = normalize_label(record["label"])
    if bool(record["structural"]) != (canonical in RESERVED_EDGE_LABELS):
        raise GraphFormatError("structural flag does not match label", lineno)
    key = (record["source"], canonical, record["target"])
    if key in graph._edge_by_key:
        raise GraphFormatError("duplicate edge", lineno)
    edge = EdgeRecord(record["id"], record["source"], record["target"],
                      record["label"], canonical, bool(record["structural"]))
    graph._edges[edge.id] = edge
    graph._edge_by_key[key] = edge.id
    graph._out[edge.source].append(edge.id)
    graph._in[edge.target].append(edge.id)
