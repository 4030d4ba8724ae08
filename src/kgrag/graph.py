"""Homogeneous knowledge graph with hypernode storage and JSONL persistence.

Nested statements are stored per the dual representation: the inner relation
is kept as a normal edge between its terms, and a hypernode (label = the
flattened sentence of the inner statement) carries ``_subject``/``_object``
structural edges plus any relations of the statement as a whole.

Node and edge records are named tuples: immutable, hashable, equal by
fields, and cheap to build. ``save_graph`` writes each record as a compact
JSON array of the fields that cannot be derived: a node's kind code, id and
label, an edge's source, label, target and id. ``load_graph`` reads rows in
that shape by one match per chunk of lines, and any other line by
``json.loads``, a row of the older one-object-a-row format included; it
judges each row by one test and names the fault of a row that fails it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import unicodedata
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, NoReturn

from .triples import DEFAULT_MAX_DEPTH, Entity, TripleStatement, TripleTerm

logger = logging.getLogger(__name__)

KIND_ENTITY = "entity"
KIND_HYPERNODE = "hypernode"

STRUCTURAL_SUBJECT = "_subject"
STRUCTURAL_OBJECT = "_object"
RESERVED_EDGE_LABELS = frozenset({STRUCTURAL_SUBJECT, STRUCTURAL_OBJECT})


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


class NodeRecord(NamedTuple):
    id: str
    label: str          # display text, first seen
    canonical: str      # normalize_label(label), unique per graph; not persisted
    kind: str           # entity | hypernode


class EdgeRecord(NamedTuple):
    id: str
    source: str
    target: str
    label: str          # display text, first seen
    canonical: str      # normalize_label(label); not persisted
    structural: bool    # canonical in RESERVED_EDGE_LABELS; not persisted


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
    """Ids of the nodes and edges one upsert created."""

    created: list[str]

    @property
    def created_any(self) -> bool:
        return bool(self.created)


def _node_id(kind: str, canonical: str) -> str:
    digest = hashlib.sha256(f"node\x00{kind}\x00{canonical}".encode("utf-8"))
    return digest.hexdigest()[:16]


def _edge_id(source: str, canonical_label: str, target: str) -> str:
    digest = hashlib.sha256(f"edge\x00{source}\x00{canonical_label}\x00{target}".encode("utf-8"))
    return digest.hexdigest()[:16]


# A surrogate code point, which UTF-8 cannot encode: no id can be hashed
# from a label that holds one. ``json.loads`` joins an escaped pair into one
# character, so one left in a loaded string is a lone surrogate.
_SURROGATE = re.compile("[\ud800-\udfff]")

_target_of = attrgetter("target")


class KnowledgeGraph:
    """In-memory graph. Mutations serialize through a single writer lock;
    concurrent readers are safe once a mutation has returned.

    Each edge is held once: in its source's out-group for its canonical
    label (``_out[source][canonical]``, in target order). A node has no
    out-groups until it is the source of an edge.

    Node and edge labels share one cache, ``_labels``: each distinct label
    text that an upsert has stored or matched maps to the text and its
    canonical form, so a text is normalized once, and the records that
    carry it share both strings. A refused statement adds nothing. It is
    written only under the writer lock."""

    def __init__(self):
        self._nodes: dict[str, NodeRecord] = {}
        self._by_canonical: dict[str, str] = {}
        self._out: dict[str, dict[str, list[EdgeRecord]]] = {}
        self._labels: dict[str, tuple[str, str]] = {}
        self._write_lock = threading.Lock()

    # ------------------------------------------------------------- access

    @property
    def nodes(self) -> Iterator[NodeRecord]:
        return iter(self._nodes.values())

    @property
    def edges(self) -> Iterator[EdgeRecord]:
        return (edge for groups in self._out.values()
                for group in groups.values() for edge in group)

    @property
    def groups(self) -> Iterator[tuple[str, list[EdgeRecord]]]:
        """Each out-group as ``(canonical, edges)``: the edges of one source
        and label, in target order. The lists are the graph's own."""
        return chain.from_iterable(map(dict.items, self._out.values()))

    def node(self, node_id: str) -> NodeRecord:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id!r}") from None

    # ------------------------------------------------------------- upsert

    def upsert_triple(self, statement: TripleStatement) -> UpsertOutcome:
        """Idempotently store a statement, materializing hypernodes for
        nested terms. Returns the ids of the nodes and edges it created.
        A statement the graph refuses raises before any of it is stored."""
        outcome = UpsertOutcome(created=[])
        with self._write_lock:
            found: list = [None, None, None]
            depth = self._walk(statement, found)
            reserved, empty, unencodable = found
            if depth > DEFAULT_MAX_DEPTH:
                raise DepthError(f"statement depth {depth} exceeds max {DEFAULT_MAX_DEPTH}")
            if reserved is not None:
                raise ValueError(
                    f"predicate {reserved.predicate!r} is reserved for structural edges")
            if empty is not None:
                raise ValueError(f"{empty} label is empty after normalization")
            if unencodable is not None:
                raise ValueError(f"{unencodable} label holds a lone surrogate")
            self._upsert_statement(statement, outcome)
        return outcome

    def _walk(self, statement: TripleStatement, found: list) -> int:
        """The nesting depth of ``statement``. Sets ``found[0]`` to the first
        statement, in pre-order, whose predicate is reserved, ``found[1]``
        to the kind ("node" or "edge") of the first label, in the order
        :meth:`_upsert_statement` stores them, that is empty, and
        ``found[2]`` to that of the first that holds a lone surrogate (its
        id could not be hashed)."""
        predicate = statement.predicate.strip()
        # Looked up, not cached: a text enters the cache when a record stores it.
        known = self._labels.get(predicate)
        canonical = known[1] if known else normalize_label(predicate)
        if found[0] is None and canonical in RESERVED_EDGE_LABELS:
            found[0] = statement
        depth = 0
        for term in (statement.subject, statement.object):
            if isinstance(term, Entity):
                label = term.label
                if found[1] is None and not label.strip():
                    found[1] = "node"
                if found[2] is None and not label.isascii() and _SURROGATE.search(label):
                    found[2] = "node"
            else:
                depth = max(depth, self._walk(term, found))
        if found[1] is None and not canonical:
            found[1] = "edge"
        if found[2] is None and not predicate.isascii() and _SURROGATE.search(predicate):
            found[2] = "edge"
        return depth + 1

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
        if self._nodes[hyper_id].kind != KIND_HYPERNODE:
            # Canonical collision with an existing entity label; reuse the
            # node as-is so structural edges stay exclusive to hypernodes.
            logger.warning("hypernode label collides with entity %r; reusing entity node",
                           self._nodes[hyper_id].label)
        elif STRUCTURAL_SUBJECT not in self._out.get(hyper_id, ()):
            # A hypernode is anchored once. Another statement that flattens
            # to the same label reuses it as it is: it keeps one subject and
            # one object, the first statement's.
            self._upsert_edge(hyper_id, STRUCTURAL_SUBJECT, subject_id, True, outcome)
            self._upsert_edge(hyper_id, STRUCTURAL_OBJECT, object_id, True, outcome)
        return hyper_id

    def _upsert_node(self, label: str, kind: str, outcome: UpsertOutcome) -> str:
        display = label.strip()
        display, canonical = self._labels.get(display) or self._label(display)
        existing = self._by_canonical.get(canonical)
        if existing is not None:
            return existing
        node_id = _node_id(kind, canonical)
        self._nodes[node_id] = NodeRecord(node_id, display, canonical, kind)
        self._by_canonical[canonical] = node_id
        outcome.created.append(node_id)
        return node_id

    def _upsert_edge(self, source: str, label: str, target: str,
                     structural: bool, outcome: UpsertOutcome) -> str:
        display = label.strip()
        display, canonical = self._labels.get(display) or self._label(display)
        group, at, existing = self._slot(source, canonical, target)
        if existing is not None:
            return existing.id
        edge = EdgeRecord(_edge_id(source, canonical, target), source, target, display,
                          canonical, structural)
        self._add(group, at, edge)
        outcome.created.append(edge.id)
        return edge.id

    def _slot(self, source: str, canonical: str, target: str
              ) -> tuple[list[EdgeRecord] | None, int, EdgeRecord | None]:
        """The out-group of ``source`` for ``canonical`` (None if it has no
        edge yet), where an edge to ``target`` is or belongs in it (groups
        are kept in target order), and that edge if it exists. The last
        place needs no search: it is where each edge goes as ``graph.jsonl``
        is read, and where a repeated upsert finds the one edge of most
        groups."""
        groups = self._out.get(source)
        group = groups.get(canonical) if groups else None
        if not group:
            return None, 0, None
        last = group[-1].target
        if last < target:
            return group, len(group), None
        at = len(group) - 1 if last == target else bisect_left(group, target, key=_target_of)
        return group, at, (group[at] if group[at].target == target else None)

    def _label(self, text: str) -> tuple[str, str]:
        """``text`` and ``normalize_label(text)``, as the string objects
        that every node and edge labelled ``text`` shares. The upsert path
        looks ``text`` up in ``_labels`` itself and calls this on a miss."""
        known = self._labels.get(text)
        if known is None:
            known = self._labels[text] = (text, normalize_label(text))
        return known

    def _add(self, group: list[EdgeRecord] | None, at: int, edge: EdgeRecord) -> None:
        """Put ``edge`` at ``at`` in ``group`` as given by :meth:`_slot`. A
        new list holds exactly its one edge: on a sparse graph most groups
        never grow."""
        if group is not None:
            group.insert(at, edge)
        elif edge.source in self._out:
            self._out[edge.source][edge.canonical] = [edge]
        else:
            self._out[edge.source] = {edge.canonical: [edge]}

    # ---------------------------------------------------------- traversal

    def label_groups(self, node_ids: Iterable[str]) -> dict[str, list[EdgeRecord]]:
        """The non-structural out-edges of the id set, grouped by canonical
        label, each group in (source, target) order; the keys come in no
        set order. A group may be the graph's own list: do not change it.

        Merges each node's dict of groups in with dict operations, in id
        order: a label only that node has keeps its list, and only the
        labels it shares with the nodes before it are concatenated."""
        groups: dict[str, list[EdgeRecord]] = {}
        for node_id in sorted(set(node_ids)):
            if node_id not in self._nodes:
                raise UnknownNodeError(f"unknown node id {node_id!r}")
            out = self._out.get(node_id)
            if out:
                shared = {canonical: groups[canonical] + out[canonical]
                          for canonical in groups.keys() & out.keys()}
                groups.update(out)
                groups.update(shared)
        for canonical in RESERVED_EDGE_LABELS:
            groups.pop(canonical, None)
        return groups

    # -------------------------------------------------------------- stats

    def stats(self) -> GraphStats:
        entity_count = sum(1 for n in self._nodes.values() if n.kind == KIND_ENTITY)
        hypernode_count = len(self._nodes) - entity_count
        labels = {canonical for groups in self._out.values() for canonical in groups
                  if canonical not in RESERVED_EDGE_LABELS}
        return GraphStats(
            node_count=len(self._nodes),
            entity_count=entity_count,
            hypernode_count=hypernode_count,
            edge_count=sum(len(group) for groups in self._out.values()
                           for group in groups.values()),
            distinct_relationship_labels=len(labels),
        )

    # -------------------------------------------------------------- audit

    def audit(self) -> None:
        """Verify structural invariants; raises :class:`GraphIntegrityError`.

        Every id must be the hash of its record's content. Each edge must sit
        in the out-group of its source and label, in target order; each
        hypernode must have exactly one ``_subject`` and one ``_object``
        edge. One pass over the nodes and the out-groups; each distinct edge
        label text is normalized once."""
        seen_canonical: set[str] = set()
        edge_canonicals: dict[str, str] = {}
        for node_id, label, canonical, kind in self._nodes.values():
            if canonical != normalize_label(label):
                raise GraphIntegrityError(f"node {node_id}: canonical does not match label")
            if canonical in seen_canonical:
                raise GraphIntegrityError(f"duplicate canonical label {canonical!r}")
            seen_canonical.add(canonical)
            if kind not in (KIND_ENTITY, KIND_HYPERNODE):
                raise GraphIntegrityError(f"node {node_id}: bad kind {kind!r}")
            if node_id != _node_id(kind, canonical):
                raise GraphIntegrityError(f"node {node_id}: id is not the hash of its content")
        for source, groups in self._out.items():
            if source not in self._nodes:
                raise GraphIntegrityError(f"adjacency references unknown node {source!r}")
            for canonical, group in groups.items():
                if not group:
                    raise GraphIntegrityError(
                        f"empty out-adjacency group {canonical!r} of node {source}")
                structural = canonical in RESERVED_EDGE_LABELS
                previous = None
                for edge_id, edge_source, target, label, edge_canonical, edge_structural in group:
                    if target not in self._nodes:
                        raise GraphIntegrityError(f"edge {edge_id}: dangling endpoint")
                    expected = edge_canonicals.get(label)
                    if expected is None:
                        expected = edge_canonicals[label] = normalize_label(label)
                    if edge_canonical != expected:
                        raise GraphIntegrityError(
                            f"edge {edge_id}: canonical does not match label")
                    if edge_source != source or edge_canonical != canonical:
                        raise GraphIntegrityError(
                            f"edge {edge_id} is in the out-adjacency of another node or label")
                    if edge_structural != structural:
                        raise GraphIntegrityError(
                            f"edge {edge_id}: structural flag does not match label")
                    if previous is not None and target <= previous:
                        raise GraphIntegrityError(
                            f"duplicate or unordered edge {(source, canonical, target)!r}")
                    previous = target
                    if edge_id != _edge_id(source, canonical, target):
                        raise GraphIntegrityError(
                            f"edge {edge_id}: id is not the hash of its content")
        for node in self._nodes.values():
            if node.kind != KIND_HYPERNODE:
                continue
            groups = self._out.get(node.id, {})
            subjects = len(groups.get(STRUCTURAL_SUBJECT, ()))
            objects = len(groups.get(STRUCTURAL_OBJECT, ()))
            if subjects != 1 or objects != 1:
                raise GraphIntegrityError(
                    f"hypernode {node.label!r} has {subjects} _subject and "
                    f"{objects} _object edges; expected exactly one of each"
                )


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
def _open_for_write(sink, binary: bool = False):
    """Write to ``sink``, a stream or a path (as UTF-8 text, or as bytes
    when ``binary``). A path is written through a temporary file in its
    directory, flushed, fsynced and renamed over the target, so an
    interrupted write leaves the previous file intact."""
    if hasattr(sink, "write"):
        yield sink
        return
    path = Path(sink)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with (open(temp, "wb") if binary else open(temp, "w", encoding="utf-8")) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# Each node kind's code in a row, and back: loaded nodes share the module
# constants.
_KIND_CODES = {"e": KIND_ENTITY, "h": KIND_HYPERNODE}
_CODE_OF_KIND = {kind: code for code, kind in _KIND_CODES.items()}


def save_graph(graph: KnowledgeGraph, sink) -> None:
    """Write nodes then edges as JSONL, deterministically ordered so the
    same graph always produces byte-identical files: nodes by kind and
    canonical, edges by canonical label, source and target.

    Each row is a compact JSON array: a node is ``["e"|"h",id,label]``
    (entity or hypernode), an edge ``[source,label,target,id]``. A row is
    one format string, in the bytes that ``json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":"))`` gives for the list, each
    string escaped by the same escaper that encoder uses. Canonicals and
    structural flags are not written: load derives both from the label.

    Each label's out-groups are collected with their sources, and only
    the distinct labels and each label's sources are sorted: a group is
    already in target order."""
    escape = json.encoder.encode_basestring
    by_label: dict[str, list[tuple[str, list[EdgeRecord]]]] = {}
    for source, groups in graph._out.items():
        for canonical, group in groups.items():
            pairs = by_label.get(canonical)
            if pairs is None:
                by_label[canonical] = [(source, group)]
            else:
                pairs.append((source, group))
    with _open_for_write(sink) as f:
        f.writelines(
            f'["{_CODE_OF_KIND[n.kind]}",{escape(n.id)},{escape(n.label)}]\n'
            for n in sorted(graph.nodes, key=attrgetter("kind", "canonical")))
        # Sources are distinct within a label, so no two groups are compared.
        f.writelines(
            f'[{escape(e.source)},{escape(e.label)},{escape(e.target)},{escape(e.id)}]\n'
            for canonical in sorted(by_label) for _, group in sorted(by_label[canonical])
            for e in group)


# Lines read by one match in load_graph; a whole file at once would raise
# the peak memory of a load.
_CHUNK_LINES = 256

# A string as save_graph writes one that needs no escape. A lone surrogate,
# which a text stream may hold as itself, is kept out too.
_STR = r'"([^"\\\x00-\x1f\ud800-\udfff]*)"'
# A whole line of either row shape save_graph writes. A node row fills the
# first three groups, its kind code never empty; an edge row the other four.
_ROW = re.compile(
    f'^\\[(?:"([eh])",{_STR},{_STR}|{_STR},{_STR},{_STR},{_STR})\\]\n', re.MULTILINE)


def load_graph(source) -> KnowledgeGraph:
    """Rebuild a graph from JSONL; any malformed or inconsistent line raises
    :class:`GraphFormatError` with its line number. Ids are not checked
    against their content here; :meth:`KnowledgeGraph.audit` does that.

    A row stores no canonical: each is derived from its label, so a label
    edited by hand still loads. ``kgrag index`` refuses such a file, as
    the audit finds that the node's or edge's id is not the hash of its
    content; ``kgrag query`` and ``eval`` refuse an index built before the
    edit, which no longer matches the graph.

    A chunk of lines all in ``save_graph``'s row shape, strings with no
    escape, is read by one match, each row straight into its fields. Any
    other chunk is read line by line, each line by ``json.loads``. An
    object is a row of the older format (keys ``type``, ``id``, ``label``,
    ``canonical`` and ``kind``, or ``type``, ``id``, ``source``,
    ``target``, ``label`` and ``structural``): it is checked for the faults
    only such a row can have, a canonical or structural flag that does not
    match its label among them, and read on as its array row. Either way
    each row is judged by one test, which adds a good row; only a row that
    fails it is checked field by field, to name its fault."""
    graph = KnowledgeGraph()
    edge_ids: set[str] = set()
    lineno = 0
    with _maybe_open(source) as f:
        while chunk := list(islice(f, _CHUNK_LINES)):
            first = lineno + 1
            rows = _ROW.findall("".join(chunk))
            if len(rows) != len(chunk):
                for lineno, line in enumerate(chunk, first):
                    if line := line.strip():
                        _load_line(graph, line, lineno, edge_ids)
                continue
            for lineno, (code, node_id, label, source, edge_label, target,
                         edge_id) in enumerate(rows, first):
                if code:
                    added = _add_node(graph, code, node_id, label)
                else:
                    added = _add_edge(graph, source, edge_label, target, edge_id, edge_ids)
                if not added:
                    # Read again as any other line, the row fails the same
                    # test and is refused with its fault.
                    _load_line(graph, chunk[lineno - first].strip(), lineno, edge_ids)
    return graph


def _load_line(graph: KnowledgeGraph, line: str, lineno: int, edge_ids: set[str]) -> None:
    """Add the row of one stripped line, or raise its fault."""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}", lineno) from None
    if type(record) is dict:
        record = _older_row(graph, record, lineno)
    elif type(record) is not list:
        raise GraphFormatError("record is not an array and not an object", lineno)
    if all(type(item) is str and (item.isascii() or not _SURROGATE.search(item))
           for item in record):
        if len(record) == 3:
            if _add_node(graph, *record):
                return
        elif len(record) == 4 and _add_edge(graph, *record, edge_ids):
            return
    _refuse_row(graph, record, lineno)


def _add_node(graph: KnowledgeGraph, code: str, node_id: str, label: str) -> bool:
    """Add the node of a good row and return True; return False for any
    other. A good row has a known kind code, and a canonical and an id
    that no node has yet."""
    kind = _KIND_CODES.get(code)
    canonical = normalize_label(label)
    if not (kind and canonical not in graph._by_canonical and node_id not in graph._nodes):
        return False
    graph._nodes[node_id] = NodeRecord(node_id, label, canonical, kind)
    graph._by_canonical[canonical] = node_id
    return True


def _add_edge(graph: KnowledgeGraph, source: str, label: str, target: str, edge_id: str,
              edge_ids: set[str]) -> bool:
    """Add the edge of a good row and return True; return False for any
    other. A good row has known endpoints, and an id and a (source, label,
    target) that no edge has yet. In a saved file each edge goes at the
    end of its group."""
    nodes = graph._nodes
    source_node, target_node = nodes.get(source), nodes.get(target)
    if source_node is None or target_node is None or edge_id in edge_ids:
        return False
    # The edge shares its nodes' id strings, as upserted edges do.
    source, target = source_node.id, target_node.id
    label, canonical = graph._labels.get(label) or graph._label(label)
    group, at, existing = graph._slot(source, canonical, target)
    if existing is not None:
        return False
    edge_ids.add(edge_id)
    graph._add(group, at, EdgeRecord(edge_id, source, target, label, canonical,
                                     canonical in RESERVED_EDGE_LABELS))
    return True


# The names of a row's items, by its length: a node's, an edge's.
_ROW_FIELDS = {3: ("kind", "id", "label"), 4: ("source", "label", "target", "id")}


def _refuse_row(graph: KnowledgeGraph, row: list, lineno: int) -> NoReturn:
    """Raise the error of a row that :func:`_add_node` or :func:`_add_edge`
    refused, or that is no node or edge row: that of the first check it
    fails, in the order below. The last check of each kind is the one
    fault left."""
    names = _ROW_FIELDS.get(len(row))
    if names is None:
        raise GraphFormatError(
            f"row has {len(row)} items, not 3 (a node) or 4 (an edge)", lineno)
    for name, item in zip(names, row):
        if type(item) is not str:
            raise GraphFormatError(f"field {name!r} is not a string", lineno)
        if _SURROGATE.search(item):
            raise GraphFormatError(f"field {name!r} holds a lone surrogate", lineno)
    if len(row) == 3:
        code, node_id, label = row
        if code not in _KIND_CODES:
            raise GraphFormatError(f"bad node kind {code!r}", lineno)
        canonical = normalize_label(label)
        if canonical in graph._by_canonical:
            raise GraphFormatError(f"duplicate canonical label {canonical!r}", lineno)
        raise GraphFormatError(f"duplicate node id {node_id!r}", lineno)
    source, label, target, edge_id = row
    if source not in graph._nodes or target not in graph._nodes:
        raise GraphFormatError("edge references an unknown node", lineno)
    if graph._slot(source, normalize_label(label), target)[2] is not None:
        raise GraphFormatError("duplicate edge", lineno)
    raise GraphFormatError(f"duplicate edge id {edge_id!r}", lineno)


# ------------------------------------------------- the older row format

_NODE_FIELDS = ("type", "id", "label", "canonical", "kind")
_EDGE_FIELDS = ("type", "id", "source", "target", "label", "structural")


def _older_row(graph: KnowledgeGraph, record: dict, lineno: int) -> list[str]:
    """The row of an object row of the older format, once it is clear of
    the faults only such a row can have, which are raised in the order
    below: a lone surrogate, a missing or non-string field, an extra
    field, an unknown kind, a canonical or structural flag that does not
    match its label. Its other faults are a row's."""
    for name, value in record.items():
        if type(value) is str and not value.isascii() and _SURROGATE.search(value):
            raise GraphFormatError(f"field {name!r} holds a lone surrogate", lineno)
    kind = record.get("type")
    if kind == "node":
        _require(record, _NODE_FIELDS[1:], lineno)
        if len(record) != len(_NODE_FIELDS):
            raise _extra_field(record, _NODE_FIELDS, lineno)
        if record["kind"] not in _CODE_OF_KIND:
            raise GraphFormatError(f"bad node kind {record['kind']!r}", lineno)
        if record["canonical"] != normalize_label(record["label"]):
            raise GraphFormatError("canonical does not match label", lineno)
        return [_CODE_OF_KIND[record["kind"]], record["id"], record["label"]]
    if kind != "edge":
        raise GraphFormatError(f"unknown record type {kind!r}", lineno)
    _require(record, _EDGE_FIELDS[1:5], lineno)
    if "structural" not in record:
        raise GraphFormatError("missing field 'structural'", lineno)
    structural = record["structural"]
    if type(structural) is not bool:
        raise GraphFormatError("field 'structural' is not a boolean", lineno)
    if len(record) != len(_EDGE_FIELDS):
        raise _extra_field(record, _EDGE_FIELDS, lineno)
    if record["source"] not in graph._nodes or record["target"] not in graph._nodes:
        raise GraphFormatError("edge references an unknown node", lineno)
    if structural != (normalize_label(record["label"]) in RESERVED_EDGE_LABELS):
        raise GraphFormatError("structural flag does not match label", lineno)
    return [record["source"], record["label"], record["target"], record["id"]]


def _require(record: dict, fields: tuple[str, ...], lineno: int) -> None:
    for name in fields:
        value = record.get(name)
        if value is None:
            raise GraphFormatError(f"missing field {name!r}", lineno)
        if type(value) is not str:
            raise GraphFormatError(f"field {name!r} is not a string", lineno)


def _extra_field(record: dict, fields: tuple[str, ...], lineno: int) -> GraphFormatError:
    """The error for a ``record`` that holds every field of ``fields`` and more."""
    name = next(name for name in record if name not in fields)
    return GraphFormatError(f"unexpected field {name!r}", lineno)
