"""Storage-law, dedup, traversal, audit, and persistence tests for the graph."""

from __future__ import annotations

import io
import json
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import (
    edge_row,
    find_node,
    node_row,
    oracle_load_error,
    saved_text,
    v1_text,
)
from kgrag import (
    DepthError,
    Entity,
    GraphFormatError,
    GraphIntegrityError,
    KnowledgeGraph,
    TripleStatement,
    UnknownNodeError,
    flatten_label,
    load_graph,
    normalize_label,
    parse_triple,
    save_graph,
)
import kgrag.graph
from kgrag.graph import (
    KIND_ENTITY,
    KIND_HYPERNODE,
    STRUCTURAL_OBJECT,
    STRUCTURAL_SUBJECT,
    RESERVED_EDGE_LABELS,
    EdgeRecord,
    NodeRecord,
    _edge_id,
    _node_id,
)
from kgrag.triples import statement_depth

NESTED_LINE = "((Seth MacFarlane)-[created]->(Family Guy))-[in]->(1999)"
FLAT_LINE = "(Seth MacFarlane)-[is creator of]->(Family Guy)"


def build(*lines: str) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for line in lines:
        graph.upsert_triple(parse_triple(line))
    return graph


def targets(graph: KnowledgeGraph, node_ids: list[str], label: str) -> list[str]:
    """Ids of the distinct targets of the out-edges, structural ones
    included, whose label canonically matches ``label``."""
    return sorted({e.target for e in graph.edges
                   if e.source in node_ids and e.canonical == normalize_label(label)},
                  key=lambda node_id: graph.node(node_id).canonical)


# -------------------------------------------------------------- labels

def test_normalize_label():
    assert normalize_label("  Family   Guy ") == "family guy"
    assert normalize_label("STRASSE") == "strasse"
    assert normalize_label("straße") == "strasse"   # casefold, not lower
    assert normalize_label("a\tb\nc") == "a b c"


def test_flatten_label_flat():
    t = parse_triple("(Seth MacFarlane)-[created]->(Family Guy)")
    assert flatten_label(t) == "Seth MacFarlane created Family Guy"


def test_flatten_label_nested():
    t = parse_triple(NESTED_LINE)
    assert flatten_label(t) == "Seth MacFarlane created Family Guy in 1999"


# -------------------------------------------- hypernode storage law

def test_nested_statement_materializes_hypernode():
    graph = build(NESTED_LINE)
    stats = graph.stats()
    assert stats.node_count == 4
    assert stats.entity_count == 3
    assert stats.hypernode_count == 1
    assert stats.edge_count == 4
    assert stats.distinct_relationship_labels == 2

    hyper = find_node(graph, "Seth MacFarlane created Family Guy")
    assert hyper is not None and hyper.kind == KIND_HYPERNODE

    seth = find_node(graph, "Seth MacFarlane")
    family_guy = find_node(graph, "Family Guy")
    year = find_node(graph, "1999")
    assert {n.kind for n in (seth, family_guy, year)} == {KIND_ENTITY}

    # inner relation is an ordinary edge between the original terms
    inner = [e for e in graph.edges if e.source == seth.id and e.label == "created"]
    assert len(inner) == 1 and inner[0].target == family_guy.id

    # the hypernode carries the statement-level relation and both anchors
    assert targets(graph, [hyper.id], "in") == [year.id]
    assert targets(graph, [hyper.id], STRUCTURAL_SUBJECT) == [seth.id]
    assert targets(graph, [hyper.id], STRUCTURAL_OBJECT) == [family_guy.id]

    structural = [e for e in graph.edges if e.structural]
    assert len(structural) == 2
    assert all(e.source == hyper.id for e in structural)
    graph.audit()


def test_flat_and_nested_lines_share_entity_nodes():
    graph = build(FLAT_LINE, NESTED_LINE)
    stats = graph.stats()
    assert stats.node_count == 4
    assert stats.edge_count == 5
    assert stats.distinct_relationship_labels == 3
    graph.audit()


def test_double_nesting_builds_hypernode_of_hypernode():
    graph = build("(((a)-[r]->(b))-[s]->(c))-[t]->(d)")
    stats = graph.stats()
    assert stats.node_count == 6          # a, b, c, d + two hypernodes
    assert stats.hypernode_count == 2
    assert stats.edge_count == 7          # r, s, t + four structural
    outer = find_node(graph, "a r b s c")
    inner = find_node(graph, "a r b")
    assert outer.kind == KIND_HYPERNODE and inner.kind == KIND_HYPERNODE
    assert targets(graph, [outer.id], STRUCTURAL_SUBJECT) == [inner.id]
    graph.audit()


def test_hypernode_label_collision_reuses_entity():
    graph = build("(x)-[holds]->(a r b)",        # entity whose label equals the flattening
                  "((a)-[r]->(b))-[in]->(1999)")
    node = find_node(graph, "a r b")
    assert node.kind == KIND_ENTITY
    # no structural edges may hang off an entity node
    assert all(not e.structural for e in graph.edges if node.id in (e.source, e.target))
    graph.audit()


def test_statements_that_flatten_alike_share_the_first_hypernode():
    """Two statements of another structure whose labels flatten to the same
    text share one hypernode, anchored to the first one's subject and
    object, so the graph passes its audit."""
    graph = build("((a)-[b]->(c d))-[x]->(y)", "((a b)-[c]->(d))-[z]->(w)",
                  "((a)-[b c]->(d))-[x]->(y)")
    node = find_node(graph, "a b c d")
    assert node.kind == KIND_HYPERNODE
    assert targets(graph, [node.id], STRUCTURAL_SUBJECT) == [find_node(graph, "a").id]
    assert targets(graph, [node.id], STRUCTURAL_OBJECT) == [find_node(graph, "c d").id]
    assert sorted(targets(graph, [node.id], "x") + targets(graph, [node.id], "z")) == sorted(
        [find_node(graph, "y").id, find_node(graph, "w").id])
    graph.audit()


# ------------------------------------------------------ dedup, idempotence

def test_upsert_is_idempotent():
    graph = build(NESTED_LINE)
    before = graph.stats()
    outcome = graph.upsert_triple(parse_triple(NESTED_LINE))
    assert not outcome.created_any
    assert outcome.created == []
    assert graph.stats() == before
    graph.audit()


def test_first_upsert_reports_created():
    graph = KnowledgeGraph()
    outcome = graph.upsert_triple(parse_triple(FLAT_LINE))
    assert outcome.created_any
    assert len(outcome.created) == 3      # two nodes and one edge


def test_nodes_dedup_by_canonical_label():
    graph = build("(Family Guy)-[aired on]->(Fox)",
                  "(FAMILY    guy)-[created by]->(Seth MacFarlane)")
    assert graph.stats().node_count == 3
    node = find_node(graph, "family guy")
    assert node.label == "Family Guy"     # first-seen display text wins


def test_edges_dedup_by_canonical_label():
    graph = build("(a)-[works AS]->(b)", "(a)-[works as]->(b)")
    assert graph.stats().edge_count == 1


def test_ids_are_content_derived():
    g1 = build(NESTED_LINE, FLAT_LINE)
    g2 = build(FLAT_LINE, NESTED_LINE)
    assert {n.id for n in g1.nodes} == {n.id for n in g2.nodes}
    assert {e.id for e in g1.edges} == {e.id for e in g2.edges}


# ------------------------------------------------------------- rejections

def test_reserved_predicate_rejected():
    graph = KnowledgeGraph()
    with pytest.raises(ValueError, match="reserved"):
        graph.upsert_triple(parse_triple("(a)-[_subject]->(b)"))
    with pytest.raises(ValueError, match="reserved"):
        graph.upsert_triple(parse_triple("((a)-[_OBJECT]->(b))-[r]->(c)"))
    assert graph.stats().node_count == 0


def test_depth_cap_enforced():
    deep = parse_triple(
        "(((((a)-[r]->(b))-[s]->(c))-[t]->(d))-[u]->(e))-[v]->(f)", max_depth=5)
    graph = KnowledgeGraph()
    with pytest.raises(DepthError):
        graph.upsert_triple(deep)
    assert graph.upsert_triple(deep.subject).created_any    # depth 4 is the cap


def test_whitespace_only_label_rejected():
    from kgrag import Entity, TripleStatement
    graph = KnowledgeGraph()
    with pytest.raises(ValueError, match="empty"):
        graph.upsert_triple(TripleStatement(Entity(" "), "r", Entity("b")))


@pytest.mark.parametrize("statement, message", [
    (TripleStatement(Entity("a"), "r", Entity(" ")), "node label is empty after normalization"),
    (TripleStatement(Entity("a"), "\u3000", Entity("b")), "edge label is empty after normalization"),
    (TripleStatement(TripleStatement(Entity("a"), " ", Entity("b")), "r", Entity(" ")),
     "edge label is empty after normalization"),
    # A label UTF-8 cannot encode has no id; it is checked after the others.
    (TripleStatement(Entity("a"), "r", Entity("B\ud800")), "node label holds a lone surrogate"),
    (TripleStatement(Entity("a"), "r\ud800", Entity("B")), "edge label holds a lone surrogate"),
    (TripleStatement(TripleStatement(Entity("a"), "r", Entity("b\udc00")), "s", Entity("c")),
     "node label holds a lone surrogate"),
    (TripleStatement(Entity("a\ud800"), "r", Entity(" ")),
     "node label is empty after normalization"),
])
def test_empty_label_refused_before_anything_is_stored(statement, message):
    graph = build(FLAT_LINE)
    before = _saved(graph)
    with pytest.raises(ValueError, match=message):
        graph.upsert_triple(statement)
    assert _saved(graph) == before


def test_too_deep_statement_with_a_reserved_predicate_raises_depth_error():
    deep = parse_triple(
        "(((((a)-[_subject]->(b))-[s]->(c))-[t]->(d))-[u]->(e))-[_object]->(f)", max_depth=5)
    graph = KnowledgeGraph()
    with pytest.raises(DepthError, match="statement depth 5 exceeds max 4"):
        graph.upsert_triple(deep)
    assert _saved(graph) == ""


# ------------------------------------------------------------ label cache

# Label texts that differ in case, whitespace and Unicode composition, so
# that several texts share one canonical form.
_VARIANT_TEXTS = st.sampled_from([
    "Family Guy", "family guy", "FAMILY GUY", " Family  Guy ", "Family\u3000Guy", "Family\tGuy",
    "C\u00e9ligny", "Ce\u0301ligny", "CE\u0301LIGNY", "c\u00e9ligny ", "\u212bngstr\u00f6m",
    "\u00c5ngstr\u00f6m", "r", "R", " r", "r s", "R  S", "Stra\u00dfe", "STRASSE",
])
_RESERVED_TEXTS = st.sampled_from(["_subject", " _Object "])


def _variant_statements(predicates):
    entities = _VARIANT_TEXTS.map(Entity)
    return st.recursive(
        st.builds(TripleStatement, entities, predicates, entities),
        lambda inner: st.builds(TripleStatement, entities | inner, predicates, entities | inner),
        max_leaves=8,
    )


_STORABLE = _variant_statements(_VARIANT_TEXTS).filter(lambda s: statement_depth(s) <= 4)


def _label_texts(statement: TripleStatement) -> set[str]:
    """Each label text an upsert of ``statement`` reads, as it is stored:
    its entities', predicates' and hypernodes'."""
    texts = {statement.predicate.strip()}
    for term in (statement.subject, statement.object):
        if isinstance(term, Entity):
            texts.add(term.label.strip())
        else:
            texts |= _label_texts(term) | {flatten_label(term).strip()}
    return texts


@settings(max_examples=200, deadline=None)
@given(st.lists(_variant_statements(_VARIANT_TEXTS | _RESERVED_TEXTS), min_size=1, max_size=8))
def test_label_cache_holds_each_text_and_its_canonical(statements):
    """Each cached text maps to itself and its canonical form, and is a
    text of a statement the graph took (a refused one adds none); every
    record carries the cached strings and ids hashed from them, and the
    graph is the one built with the cache emptied before each upsert."""
    graph, uncached = KnowledgeGraph(), KnowledgeGraph()
    taken = {STRUCTURAL_SUBJECT, STRUCTURAL_OBJECT}
    for statement in statements:
        uncached._labels.clear()
        try:
            graph.upsert_triple(statement)
        except (DepthError, ValueError) as exc:
            with pytest.raises(type(exc)):
                uncached.upsert_triple(statement)
            continue
        uncached.upsert_triple(statement)
        taken |= _label_texts(statement)
    assert set(graph._labels) <= taken
    for text, (display, canonical) in graph._labels.items():
        assert (display, canonical) == (text, normalize_label(text))
    for node in graph.nodes:
        display, canonical = graph._labels[node.label]
        assert node.label is display and node.canonical is canonical
        assert node.id == _node_id(node.kind, canonical)
    for edge in graph.edges:
        display, canonical = graph._labels[edge.label]
        assert edge.label is display and edge.canonical is canonical
        assert edge.id == _edge_id(edge.source, canonical, edge.target)
    graph.audit()
    assert _saved(graph) == _saved(uncached)


def test_refused_statements_leave_no_label_in_the_cache():
    graph = KnowledgeGraph()
    for predicate in ("r\ud800", "_subject"):
        with pytest.raises(ValueError):
            graph.upsert_triple(TripleStatement(Entity("a"), predicate, Entity("B")))
    assert graph._labels == {}
    assert _saved(graph) == ""


def _first_reserved(statement: TripleStatement) -> TripleStatement | None:
    """The first statement, in pre-order, whose predicate is reserved."""
    if normalize_label(statement.predicate) in RESERVED_EDGE_LABELS:
        return statement
    for term in (statement.subject, statement.object):
        if isinstance(term, TripleStatement) and (found := _first_reserved(term)):
            return found
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(_STORABLE, max_size=4), _variant_statements(_VARIANT_TEXTS | _RESERVED_TEXTS))
def test_refused_statement_stores_nothing(stored, statement):
    """A statement too deep raises DepthError, whatever its predicates;
    else one with a reserved predicate names the first in pre-order. A
    refused statement leaves the saved graph as it was."""
    graph = _graph_of(stored)
    before = _saved(graph)
    depth, reserved = statement_depth(statement), _first_reserved(statement)
    if depth > 4:
        with pytest.raises(DepthError) as refused:
            graph.upsert_triple(statement)
        assert str(refused.value) == f"statement depth {depth} exceeds max 4"
    elif reserved is not None:
        with pytest.raises(ValueError) as refused:
            graph.upsert_triple(statement)
        assert str(refused.value) == \
            f"predicate {reserved.predicate!r} is reserved for structural edges"
    else:
        graph.upsert_triple(statement)
        return
    assert _saved(graph) == before


# -------------------------------------------------------------- traversal

def chain_graph() -> KnowledgeGraph:
    return build("(a)-[r]->(b)", "(b)-[s]->(c)", "(a)-[q]->(c)")


def test_label_groups_group_out_edges_by_canonical_label():
    graph = build("(hub)-[LINKS  to]->(beta)", "(hub)-[links to]->(alpha)",
                  "(hub)-[other]->(gamma)", "(spoke)-[links to]->(alpha)", NESTED_LINE)
    hub, spoke = find_node(graph, "hub").id, find_node(graph, "spoke").id
    groups = graph.label_groups([spoke, hub, hub])
    assert sorted(groups) == ["links to", "other"]
    assert [(e.source, e.target) for e in groups["links to"]] == sorted(
        (e.source, e.target) for e in graph.edges if e.canonical == "links to")
    hyper = find_node(graph, "Seth MacFarlane created Family Guy").id
    assert list(graph.label_groups([hyper])) == ["in"]    # structural groups left out
    assert graph.label_groups([find_node(graph, "gamma").id]) == {}
    with pytest.raises(UnknownNodeError):
        graph.label_groups([hub, "no-such-id"])


def test_label_groups_match_labels_canonically():
    graph = build("(hub)-[LINKS  to]->(beta)", "(hub)-[links to]->(alpha)",
                  "(hub)-[other]->(gamma)")
    hub = find_node(graph, "hub").id
    groups = graph.label_groups([hub])
    assert {canonical: [(e.label, graph.node(e.target).label) for e in group]
            for canonical, group in groups.items()} == {
        "links to": [("links to", "alpha"), ("LINKS  to", "beta")],
        "other": [("other", "gamma")]}
    assert [graph.node(t).label for t in targets(graph, [hub], "links TO")] == ["alpha", "beta"]
    assert targets(graph, [hub], "missing") == []


# Few words and labels, with case and space variants, so that nodes share
# labels; nesting makes hypernodes with structural groups.
_FEW_ENTITIES = st.sampled_from(["a", "A", "b", " c", "C "]).map(Entity)
_FEW_LABELS = st.sampled_from(["r", "R", "s", "r  s", "R s", "t"])
_FEW_STATEMENTS = st.recursive(
    st.builds(TripleStatement, _FEW_ENTITIES, _FEW_LABELS, _FEW_ENTITIES),
    lambda inner: st.builds(TripleStatement, _FEW_ENTITIES | inner, _FEW_LABELS,
                            _FEW_ENTITIES | inner),
    max_leaves=3)


def _grouped_by_brute_force(graph: KnowledgeGraph, node_ids: set[str]) -> dict:
    groups: dict[str, list[EdgeRecord]] = {}
    for edge in sorted(graph.edges, key=lambda e: (e.source, e.target)):
        if edge.source in node_ids and not edge.structural:
            groups.setdefault(edge.canonical, []).append(edge)
    return groups


@settings(max_examples=300, deadline=None)
@given(st.lists(_FEW_STATEMENTS, min_size=1, max_size=8), st.data())
def test_label_groups_match_grouping_by_brute_force(statements, data):
    graph = KnowledgeGraph()
    for statement in statements:
        graph.upsert_triple(statement)
    ids = sorted(node.id for node in graph.nodes)
    node_ids = data.draw(st.lists(st.sampled_from(ids), max_size=12), label="node_ids")
    before = [(canonical, list(group)) for canonical, group in graph.groups]
    assert graph.label_groups(node_ids) == _grouped_by_brute_force(graph, set(node_ids))
    if data.draw(st.booleans(), label="unknown"):
        at = data.draw(st.integers(0, len(node_ids)), label="at")
        with pytest.raises(UnknownNodeError, match="no-such-id"):
            graph.label_groups(node_ids[:at] + ["no-such-id"] + node_ids[at:])
    assert [(canonical, list(group)) for canonical, group in graph.groups] == before


def test_node_lookup_errors():
    graph = chain_graph()
    with pytest.raises(UnknownNodeError):
        graph.node("absent")
    assert find_node(graph, "no such label") is None


# ------------------------------------------------------------------ audit

def replace_edge(graph: KnowledgeGraph, edge, **changes) -> None:
    """Swap ``edge`` for a changed copy in its out-group."""
    group = graph._out[edge.source][edge.canonical]
    group[group.index(edge)] = edge._replace(**changes)


def test_audit_passes_on_clean_graph():
    build(NESTED_LINE, FLAT_LINE, "(Family Guy)-[aired on]->(Fox)").audit()


def test_audit_detects_duplicate_canonical():
    graph = chain_graph()
    node = find_node(graph, "a")
    clone = type(node)("deadbeef00000000", "A", "a", KIND_ENTITY)
    graph._nodes[clone.id] = clone
    with pytest.raises(GraphIntegrityError, match="duplicate canonical"):
        graph.audit()


def test_audit_detects_structural_flag_mismatch():
    graph = build(NESTED_LINE)
    edge = next(e for e in graph.edges if e.structural)
    replace_edge(graph, edge, structural=False)
    with pytest.raises(GraphIntegrityError, match="structural"):
        graph.audit()


def test_audit_detects_edge_canonical_mismatch():
    graph = chain_graph()
    edge = next(iter(graph.edges))
    replace_edge(graph, edge, canonical=edge.canonical + "x")
    with pytest.raises(GraphIntegrityError, match="canonical does not match"):
        graph.audit()


def test_audit_detects_broken_adjacency():
    graph = chain_graph()
    edge = next(iter(graph.edges))
    graph._out[edge.source][edge.canonical].remove(edge)
    with pytest.raises(GraphIntegrityError, match="adjacency"):
        graph.audit()


def test_audit_enforces_hypernode_anchor_law():
    graph = build(NESTED_LINE)
    edge = next(e for e in graph.edges if e.label == STRUCTURAL_SUBJECT)
    del graph._out[edge.source][STRUCTURAL_SUBJECT]
    with pytest.raises(GraphIntegrityError, match="hypernode"):
        graph.audit()


def test_audit_refuses_ids_that_are_not_content_hashes():
    graph = chain_graph()
    node = find_node(graph, "c")
    del graph._nodes[node.id]
    graph._nodes["not-a-hash"] = node._replace(id="not-a-hash")
    with pytest.raises(GraphIntegrityError, match="node not-a-hash: id is not the hash"):
        graph.audit()
    graph = chain_graph()
    edge = next(iter(graph.edges))
    replace_edge(graph, edge, id="not-a-hash")
    with pytest.raises(GraphIntegrityError, match="edge not-a-hash: id is not the hash"):
        graph.audit()


def _rename_node_label(graph, node):
    graph._nodes[node.id] = node._replace(label=node.label + " x")


def _give_node_a_bad_kind(graph, node):
    graph._nodes[node.id] = node._replace(kind="blob")


def _drop_target_node(graph, node):
    del graph._nodes[node.id]         # b: the target of a-[r]->b, source of none


def _add_unknown_source(graph, node):
    edge = next(iter(graph.edges))
    graph._out["no-such-node"] = {edge.canonical: [edge]}


def _move_edge_to_another_label(graph, node):
    a = find_node(graph, "a").id
    graph._out[a]["elsewhere"] = graph._out[a].pop("r")


@pytest.mark.parametrize("damage, message", [
    (_rename_node_label, "canonical does not match label"),
    (_give_node_a_bad_kind, "bad kind"),
    (_drop_target_node, "dangling endpoint"),
    (_add_unknown_source, "unknown node 'no-such-node'"),
    (_move_edge_to_another_label, "another node or label"),
])
def test_audit_detects_damage_to_a_node_or_group(damage, message):
    graph = build("(a)-[r]->(b)")
    damage(graph, find_node(graph, "b"))
    with pytest.raises(GraphIntegrityError, match=message):
        graph.audit()


def test_audit_detects_unordered_out_group():
    # Reversed, and one record held twice in its group.
    for damage in (list.reverse, lambda group: group.append(group[-1])):
        graph = build("(a)-[r]->(b)", "(a)-[r]->(c)")
        damage(graph._out[find_node(graph, "a").id]["r"])
        with pytest.raises(GraphIntegrityError, match="duplicate or unordered"):
            graph.audit()


def test_audit_is_linear_in_out_degree():
    graph = KnowledgeGraph()
    for i in range(16_000):
        graph.upsert_triple(TripleStatement(Entity("hub"), f"label {i % 400}",
                                            Entity(f"target {i}")))
    start = time.perf_counter()
    graph.audit()
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------ persistence

def test_save_load_roundtrip(tmp_path):
    graph = build(NESTED_LINE, FLAT_LINE, "(Family Guy)-[aired on]->(Fox)")
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    loaded = load_graph(path)
    loaded.audit()
    assert loaded.stats() == graph.stats()
    assert {n for n in loaded.nodes} == {n for n in graph.nodes}
    assert {e for e in loaded.edges} == {e for e in graph.edges}


def test_save_is_deterministic(tmp_path):
    g1 = build(NESTED_LINE, FLAT_LINE)
    g2 = build(FLAT_LINE, NESTED_LINE)    # different insertion order
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    save_graph(g1, p1)
    save_graph(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_save_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "graph.jsonl"
    save_graph(build(FLAT_LINE), path)
    before = path.read_bytes()
    escape = json.encoder.encode_basestring
    escaped = []

    def escape_then_fail(text):
        escaped.append(text)
        if len(escaped) == 10:   # the 4 node rows take 8 calls: fail in the first edge row
            raise OSError("disk full")
        return escape(text)

    monkeypatch.setattr(json.encoder, "encode_basestring", escape_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_graph(build(NESTED_LINE, FLAT_LINE), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.jsonl"]


def test_save_load_file_like():
    graph = build(FLAT_LINE)
    buffer = io.StringIO()
    save_graph(graph, buffer)
    loaded = load_graph(io.StringIO(buffer.getvalue()))
    assert loaded.stats() == graph.stats()


def test_save_preserves_non_ascii(tmp_path):
    graph = build("(Céligny)-[lies in]->(Switzerland)")
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    assert "Céligny" in path.read_text(encoding="utf-8")
    assert find_node(load_graph(path), "céligny") is not None


# Characters a row writer can get wrong: JSON's own escapes, the C0 controls,
# DEL, the JavaScript line separators, NBSP, combining marks, non-BMP
# characters, and a few that make labels collide canonically.
_TRICKY_CHARS = st.sampled_from(
    ['"', "\\", "/", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "\xa0",
     "\u0301", "\u0327", "\U0001f600", "\U00020000", "\u00e9", "\u4e2d", "a", "A", " "])
_TEXT = st.text(st.one_of(_TRICKY_CHARS, st.characters(blacklist_categories=("Cs",))),
                min_size=1, max_size=6)
_LABEL = _TEXT.filter(
    lambda text: normalize_label(text) not in ("", STRUCTURAL_SUBJECT, STRUCTURAL_OBJECT))
_ENTITY = _LABEL.map(Entity)
_STATEMENT = st.recursive(
    st.builds(TripleStatement, _ENTITY, _LABEL, _ENTITY),
    lambda inner: st.builds(TripleStatement, _ENTITY | inner, _LABEL, _ENTITY | inner),
    max_leaves=4,
).filter(lambda statement: statement_depth(statement) <= 4)


def _graph_of(statements: list[TripleStatement]) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for statement in statements:
        graph.upsert_triple(statement)
    return graph


_GRAPHS = st.lists(_STATEMENT, min_size=1, max_size=6).map(_graph_of)


def _saved(graph: KnowledgeGraph) -> str:
    buffer = io.StringIO()
    save_graph(graph, buffer)
    return buffer.getvalue()


@settings(max_examples=200, deadline=None)
@given(_GRAPHS)
def test_saved_rows_match_the_encoder_oracle(graph):
    text = _saved(graph)
    assert text.encode("utf-8") == saved_text(graph).encode("utf-8")
    assert _saved(load_graph(io.StringIO(text))) == text


@settings(max_examples=100, deadline=None)
@given(_GRAPHS, st.data())
def test_saved_rows_match_the_encoder_oracle_for_any_ids(graph, data):
    """A loaded graph keeps the ids its file gave, whatever their text
    (only the audit checks them), so ids, sources and targets are escaped
    like labels."""
    nodes, edges = list(graph.nodes), list(graph.edges)
    names = data.draw(st.lists(_TEXT, min_size=len(nodes) + len(edges),
                               max_size=len(nodes) + len(edges), unique=True))
    node_ids = {node.id: name for node, name in zip(nodes, names)}
    rows = [node_row(node._replace(id=node_ids[node.id])) for node in nodes]
    rows += [edge_row(edge._replace(id=name, source=node_ids[edge.source],
                                    target=node_ids[edge.target]))
             for edge, name in zip(edges, names[len(nodes):])]
    loaded = load_graph(io.StringIO("".join(rows)))
    assert sorted(node.id for node in loaded.nodes) == sorted(node_ids.values())
    assert _saved(loaded).encode("utf-8") == saved_text(loaded).encode("utf-8")


def test_saved_file_bytes_match_the_encoder_oracle(tmp_path):
    graph = build(NESTED_LINE, FLAT_LINE, '(Céligny "\\\\" \t\x01)-[lies\u2028in]->(中 \U0001f600)')
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    assert path.read_bytes() == saved_text(graph).encode("utf-8")
    assert b',"_subject",' in path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(_STATEMENT, max_size=6), st.lists(_STATEMENT, max_size=6))
def test_stats_match_the_saved_rows(first, more):
    """Upserts, a save and load, then more upserts: ``stats()`` equals the
    counts taken from the rows of the saved file, the audit passes, and
    each non-structural edge is once in its source's label group."""
    graph = load_graph(io.StringIO(_saved(_graph_of(first))))
    for statement in more:
        graph.upsert_triple(statement)
    graph.audit()
    # Rows end in "\n"; splitlines would also split inside a label.
    rows = [json.loads(line) for line in _saved(graph).split("\n")[:-1]]
    kinds = [row[0] for row in rows if len(row) == 3]
    edge_labels = [normalize_label(row[1]) for row in rows if len(row) == 4]
    assert graph.stats().to_dict() == {
        "node_count": len(kinds),
        "entity_count": kinds.count("e"),
        "hypernode_count": kinds.count("h"),
        "edge_count": len(edge_labels),
        "distinct_relationship_labels": len(set(edge_labels) - RESERVED_EDGE_LABELS),
    }
    for edge in graph.edges:
        if not edge.structural:
            assert graph.label_groups([edge.source])[edge.canonical].count(edge) == 1


@pytest.mark.parametrize("lines, line_no, message", [
    (["{not json"], 1, "invalid JSON"),
    (['"just a string"'], 1, "not an object"),
    (['{"type": "mystery"}'], 1, "unknown record type"),
    (['{"type": "node", "id": "n1", "label": "a", "kind": "entity"}'], 1, "missing field"),
    (['{"type": "node", "id": "n1", "label": "a", "canonical": "b", "kind": "entity"}'],
     1, "canonical does not match"),
    (['{"type": "node", "id": "n1", "label": "a", "canonical": "a", "kind": "blob"}'],
     1, "bad node kind"),
    (['{"type": "edge", "id": "e1", "source": "x", "target": "y", '
      '"label": "r", "structural": false}'], 1, "unknown node"),
    (['{"type": "node", "id": "n1", "label": 5, "canonical": "a", "kind": "entity"}'],
     1, "'label' is not a string"),
    (['{"type": "node", "id": ["n1"], "label": "a", "canonical": "a", "kind": "entity"}'],
     1, "'id' is not a string"),
    (['{"type": "node", "id": "n1", "label": "a", "canonical": "a", "kind": "entity"}',
      '{"type": "node", "id": "n2", "label": "b", "canonical": "b", "kind": "entity"}',
      '{"type": "edge", "id": "e1", "source": "n1", "target": "n2", '
      '"label": "r", "structural": false}',
      '{"type": "edge", "id": "e1", "source": "n1", "target": "n2", '
      '"label": "s", "structural": false}'], 4, "duplicate edge id 'e1'"),
    (['{"type": "node", "id": "n1", "label": "a", "canonical": "a", "kind": "entity"}',
      '{"type": "node", "id": "n2", "label": "b", "canonical": "b", "kind": "entity"}',
      '{"type": "edge", "id": "e1", "source": "n1", "target": "n2", '
      '"label": "_subject", "structural": "false"}'], 3, "'structural' is not a boolean"),
])
def test_load_rejects_malformed_lines(lines, line_no, message, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match=message) as exc_info:
        load_graph(path)
    assert exc_info.value.line == line_no


def test_load_reports_correct_line_number(tmp_path):
    graph = build(FLAT_LINE)
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    text = path.read_text(encoding="utf-8") + '{"type": "edge", "id": "e9",' \
        ' "source": "x", "target": "y", "label": "r", "structural": false}\n'
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GraphFormatError) as exc_info:
        load_graph(path)
    assert exc_info.value.line == 4        # 2 nodes + 1 edge precede it


def test_load_rejects_duplicate_nodes(tmp_path):
    path = tmp_path / "dup.jsonl"
    node = '{"type": "node", "id": "n1", "label": "a", "canonical": "a", "kind": "entity"}'
    path.write_text(node + "\n" + node + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="duplicate"):
        load_graph(path)


def test_load_rejects_structural_mismatch(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"type": "node", "id": "n1", "label": "a", "canonical": "a", "kind": "entity"}\n'
        '{"type": "node", "id": "n2", "label": "b", "canonical": "b", "kind": "entity"}\n'
        '{"type": "edge", "id": "e1", "source": "n1", "target": "n2", '
        '"label": "_subject", "structural": false}\n',
        encoding="utf-8",
    )
    with pytest.raises(GraphFormatError, match="structural") as exc_info:
        load_graph(path)
    assert exc_info.value.line == 3


def test_loaded_edges_share_node_ids_and_label_texts():
    buffer = io.StringIO()
    save_graph(build("(a)-[Links To]->(b)", "(b)-[Links To]->(c)", "(c)-[links  to]->(a)"),
                buffer)
    graph = load_graph(io.StringIO(buffer.getvalue()))
    edges = sorted(graph.edges, key=lambda e: e.label)
    assert all(e.source is graph.node(e.source).id and e.target is graph.node(e.target).id
               for e in edges)
    assert edges[0].label is edges[1].label
    assert edges[0].canonical is edges[1].canonical


def test_rows_in_the_saved_shape_are_read_without_json_loads(monkeypatch):
    """A saved file whose strings need no escape is read by the row match
    alone; an escaped row sends only its own chunk through ``json.loads``."""
    text = _saved(build(*(f"(a{i:03d})-[r]->(b{i:03d})" for i in range(200)), NESTED_LINE))
    lines = text.splitlines(keepends=True)
    assert "\\" not in text and len(lines) > 2 * 256
    parsed = []
    loads = json.loads

    def counting_loads(line, *args, **kwargs):
        parsed.append(line)
        return loads(line, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    assert _saved(load_graph(io.StringIO(text))) == text
    assert parsed == []
    at = next(at for at in range(300, 512) if ',"r",' in lines[at])
    lines[at] = lines[at].replace(',"r",', ',"\\u0072",')
    assert _saved(load_graph(io.StringIO("".join(lines)))) == text
    assert parsed == [line.strip() for line in lines[256:512]]


@pytest.mark.parametrize("change", [
    lambda row: " " + row, lambda row: row[:-1] + "\t\n", lambda row: row[:-1] + "\r\n",
    lambda row: "\n" + row, lambda row: row[:-1], lambda row: row.replace('", "', '","'),
    lambda row: "x" + row, lambda row: row[:-1] + "x\n", lambda row: row[:-1] + row,
    lambda row: row[:-3] + "\ud800" + row[-3:], lambda row: row[:-3] + "\t" + row[-3:],
], ids=["leading-space", "trailing-tab", "crlf", "blank-line-before", "no-newline",
        "no-space", "leading-junk", "trailing-junk", "two-records", "raw-lone-surrogate",
        "raw-control-character"])
def test_load_reads_a_line_out_of_the_saved_shape_as_the_oracle_does(change):
    """A line that is not a whole saved row (its last line may lack its
    newline), in either format, is read on its own: it loads as the row,
    or is refused as the oracle refuses it. The last string of a row takes
    the raw lone surrogate or control character."""
    graph = build(NESTED_LINE)
    saved = _saved(graph)
    for text in (saved, v1_text(graph)):
        rows = text.splitlines(keepends=True)
        for at in range(len(rows)):
            changed = "".join(rows[:at] + [change(rows[at])] + rows[at + 1:])
            expected = oracle_load_error(changed)
            if expected is None:
                assert _saved(load_graph(io.StringIO(changed))) == saved
                continue
            with pytest.raises(GraphFormatError) as exc_info:
                load_graph(io.StringIO(changed))
            assert (str(exc_info.value), exc_info.value.line) == \
                (f"line {expected[1]}: {expected[0]}", expected[1])


def _many_lines_graph(tmp_path) -> tuple:
    """A saved graph of 600 lines, two chunks and more, with a blank line 3."""
    graph = build(*(f"(a{i:03d})-[r]->(b{i:03d})" for i in range(200)))
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    return graph, path, lines[:2] + [""] + lines[2:]


def test_load_in_chunks_matches_the_saved_graph(tmp_path):
    graph, path, lines = _many_lines_graph(tmp_path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_graph(path)
    loaded.audit()
    assert set(loaded.nodes) == set(graph.nodes)
    assert set(loaded.edges) == set(graph.edges)


def test_load_names_a_bad_line_in_a_later_chunk(tmp_path):
    _, path, lines = _many_lines_graph(tmp_path)
    lines[450] = lines[450][:-1]           # line 451: an object left open
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="invalid JSON") as exc_info:
        load_graph(path)
    assert exc_info.value.line == 451


def test_load_reports_the_first_bad_line_of_a_chunk(tmp_path):
    _, path, lines = _many_lines_graph(tmp_path)
    edge = json.loads(lines[420])
    edge[0] = "no-such-node"                # the source
    lines[420] = json.dumps(edge)           # line 421: a record fault
    lines[430] = "{not json"                # line 431: a JSON fault
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="unknown node") as exc_info:
        load_graph(path)
    assert exc_info.value.line == 421


_NODE = '"type": "node", "id": "n{0}", "label": "a{0}", "canonical": "a{0}", "kind": "entity"'


@pytest.mark.parametrize("first, second", [
    ("{" + _NODE.format(1) + ', "x": [{"y": 1}', '{"z": 2}]}'),      # a list left open
    ("{" + _NODE.format(1).rsplit(",", 1)[0], '"kind": "entity"}'),  # an object left open
    ("{" + _NODE.format(1) + ', "x": "y', '{z"}'),                    # a string left open
])
def test_load_refuses_lines_that_parse_only_together(first, second, tmp_path):
    """Each pair of lines is one record when joined; with a line holding two
    records after them, a chunk has as many values as lines."""
    two_records = "{" + _NODE.format(2) + "},{" + _NODE.format(3) + "}"
    path = tmp_path / "graph.jsonl"
    path.write_text("\n".join([first, second, two_records]) + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="invalid JSON") as exc_info:
        load_graph(path)
    assert exc_info.value.line == 1


_PAIR = ('{"type": "node", "id": "n1", "label": "a", "canonical": "a", "kind": "entity"}\n'
         '{"type": "node", "id": "n2", "label": "b", "canonical": "b", "kind": "entity"}\n')


@pytest.mark.parametrize("text, line_no, field", [
    ('{"type": "node", "id": "n1", "label": "A\\ud800", "canonical": "a\\ud800", '
     '"kind": "entity"}\n', 1, "label"),
    ('{"type": "node", "id": "n1", "label": "\\uDC00", "canonical": "\\udc00", '
     '"kind": "entity"}\n', 1, "label"),
    ('{"type": "node", "id": "n\\udfff", "label": "a", "canonical": "a", "kind": "entity"}\n',
     1, "id"),
    ('{"type": "node", "id": "n1", "label": "\\ude00\\ud83d", "canonical": "\\ude00\\ud83d", '
     '"kind": "entity"}\n', 1, "label"),
    (_PAIR + '{"type": "edge", "id": "e1", "source": "n1", "target": "n2", '
     '"label": "r\\ud83d", "structural": false}\n', 3, "label"),
    (_PAIR + '{"type": "edge", "id": "e\\ud800", "source": "n1", "target": "n2", '
     '"label": "r", "structural": false}\n', 3, "id"),
], ids=["high", "low-upper-case", "node-id", "pair-reversed", "edge-label", "edge-id"])
def test_load_refuses_a_lone_surrogate(text, line_no, field, tmp_path):
    """UTF-8 cannot encode a lone surrogate, so a graph holding one could
    not be audited, indexed or saved."""
    path = tmp_path / "graph.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GraphFormatError, match=f"field '{field}' holds a lone surrogate") \
            as exc_info:
        load_graph(path)
    assert exc_info.value.line == line_no


def test_load_refuses_a_lone_surrogate_in_a_text_stream():
    stream = io.StringIO(_PAIR.replace('"label": "b", "canonical": "b"',
                                       '"label": "b\ud800", "canonical": "b\ud800"'))
    with pytest.raises(GraphFormatError, match="'label' holds a lone surrogate") as exc_info:
        load_graph(stream)
    assert exc_info.value.line == 2


def test_load_refuses_a_lone_surrogate_in_a_later_chunk(tmp_path):
    _, path, lines = _many_lines_graph(tmp_path)
    edge = json.loads(lines[500])
    edge[3] += "\ud800"                      # the id
    lines[500] = json.dumps(edge)           # line 501, escaped by ensure_ascii
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="'id' holds a lone surrogate") as exc_info:
        load_graph(path)
    assert exc_info.value.line == 501


def test_load_reads_escaped_surrogate_pairs(tmp_path):
    graph = build("(\U0001f600 Smile)-[is \U00010348]->(\U00020000)")
    text = _saved(graph)
    escaped = "".join(json.dumps(json.loads(line), sort_keys=True) + "\n"
                      for line in text.splitlines())
    assert "\\ud83d\\ude00" in escaped
    loaded = load_graph(io.StringIO(escaped))
    loaded.audit()
    assert _saved(loaded) == text


@pytest.mark.parametrize("line_no", [1, 3], ids=["node", "edge"])
def test_load_refuses_an_extra_field(line_no, tmp_path):
    """A field the graph does not keep would be lost by the next save."""
    lines = v1_text(build("(a)-[r]->(b)")).splitlines()
    record = json.loads(lines[line_no - 1])
    lines[line_no - 1] = json.dumps({"note": "kept?", **record})
    path = tmp_path / "graph.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="unexpected field 'note'") as exc_info:
        load_graph(path)
    assert exc_info.value.line == line_no


# ------------------------------------------- load refusals, by the oracle

_ODD_VALUES = (None, 1, True, 1.5, [], {})


_KIND_OF_CODE = {"e": KIND_ENTITY, "h": KIND_HYPERNODE}


def _rows(graph: KnowledgeGraph) -> list[list]:
    return [json.loads(line) for line in _saved(graph).split("\n")[:-1]]


def _v1_rows(graph: KnowledgeGraph) -> list[dict]:
    return [json.loads(line) for line in v1_text(graph).split("\n")[:-1]]


def _file(rows: list, ensure_ascii: bool = True) -> str:
    """Each row on its own line: an array as compact as ``save_graph``
    writes one, an object as ``json.dumps`` writes it."""
    return "".join(json.dumps(row, ensure_ascii=ensure_ascii,
                              separators=(",", ":") if isinstance(row, list) else None) + "\n"
                   for row in rows)


def _loads_as_the_oracle_says(text: str) -> None:
    """``load_graph`` refuses ``text`` with the oracle's message and line,
    or, when the oracle finds no fault, loads every row as it is."""
    expected = oracle_load_error(text)
    if expected is not None:
        message, line = expected
        with pytest.raises(GraphFormatError) as exc_info:
            load_graph(io.StringIO(text))
        assert (str(exc_info.value), exc_info.value.line) == (f"line {line}: {message}", line)
        return
    graph = load_graph(io.StringIO(text))
    nodes, edges = set(), set()
    for row in map(json.loads, text.split("\n")[:-1]):
        if isinstance(row, dict):
            if row["type"] == "node":
                nodes.add(NodeRecord(row["id"], row["label"], row["canonical"], row["kind"]))
            else:
                edges.add(EdgeRecord(row["id"], row["source"], row["target"], row["label"],
                                     normalize_label(row["label"]), row["structural"]))
        elif len(row) == 3:
            nodes.add(NodeRecord(row[1], row[2], normalize_label(row[2]), _KIND_OF_CODE[row[0]]))
        else:
            canonical = normalize_label(row[1])
            edges.add(EdgeRecord(row[3], row[0], row[2], row[1], canonical,
                                 canonical in RESERVED_EDGE_LABELS))
    assert set(graph.nodes) == nodes
    assert set(graph.edges) == edges


# Mutations of an object row, in the older format.

def _drop_field(draw, rows, at):
    del rows[at][draw(st.sampled_from(sorted(rows[at])))]


def _add_field(draw, rows, at):
    items = list(rows[at].items())
    items.insert(draw(st.integers(0, len(items))),
                 (draw(st.sampled_from(["note", "Type", ""])), "x"))
    rows[at] = dict(items)


def _odd_value(draw, rows, at):
    rows[at][draw(st.sampled_from(sorted(rows[at])))] = draw(st.sampled_from(_ODD_VALUES))


def _bad_kind(draw, rows, at):
    """A bad type, node kind, or ``structural`` flag that is not a boolean."""
    field = draw(st.sampled_from(["type", "kind" if "kind" in rows[at] else "structural"]))
    rows[at][field] = draw(st.sampled_from(["mystery", "Node", "Entity", "", "false", 0, 1]))


def _break_canonical(draw, rows, at):
    row = rows[at]
    name = "canonical" if "canonical" in row else "label"
    row[name] = draw(st.sampled_from([row[name] + "x", row[name].upper(), " " + row[name],
                                      row["label"]]))


def _duplicate_id(draw, rows, at):
    rows[at]["id"] = draw(st.sampled_from(rows))["id"]


def _take_another_nodes_label(draw, rows, at):
    other = draw(st.sampled_from(rows))
    if "canonical" in rows[at] and "canonical" in other:
        rows[at]["label"], rows[at]["canonical"] = other["label"], other["canonical"]


def _repeat_row(draw, rows, at):
    """A second node or edge, under its id or another."""
    copy = {**rows[at], "id": draw(st.sampled_from([rows[at]["id"], "fresh"]))}
    rows.insert(draw(st.integers(at + 1, len(rows))), copy)


def _unknown_endpoint(draw, rows, at):
    """An edge from or to no node, or a node renamed under its edges."""
    name = draw(st.sampled_from(["source", "target"])) if "source" in rows[at] else "id"
    rows[at][name] = "nowhere"


def _flip_flag(draw, rows, at):
    row = rows[at]
    if "structural" in row:
        row["structural"] = not row["structural"]
    else:
        row["kind"] = KIND_ENTITY if row["kind"] == KIND_HYPERNODE else KIND_HYPERNODE


def _lone_surrogate(draw, rows, at):
    row = rows[at]
    name = draw(st.sampled_from(sorted(k for k, v in row.items() if isinstance(v, str))))
    place = draw(st.integers(0, len(row[name])))
    row[name] = (row[name][:place] + draw(st.sampled_from(["\ud800", "\udbff", "\udfff"]))
                 + row[name][place:])


def _swap_rows(draw, rows, at):
    other = draw(st.integers(0, len(rows) - 1))
    rows[at], rows[other] = rows[other], rows[at]


_MUTATIONS = (_drop_field, _add_field, _odd_value, _bad_kind, _break_canonical,
              _duplicate_id, _take_another_nodes_label, _repeat_row, _unknown_endpoint,
              _flip_flag, _lone_surrogate, _swap_rows)


# Where an array row holds its id and its label, by its length: a node's
# row, an edge's.
_ID_AT = {3: 1, 4: 3}
_LABEL_AT = {3: 2, 4: 1}


def _drop_item(draw, rows, at):
    del rows[at][draw(st.integers(0, len(rows[at]) - 1))]


def _add_item(draw, rows, at):
    rows[at].insert(draw(st.integers(0, len(rows[at]))), draw(st.sampled_from(["x", "e", ""])))


def _odd_item(draw, rows, at):
    rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(st.sampled_from(_ODD_VALUES))


def _bad_code(draw, rows, at):
    """A node kind that is no code, or another kind; an edge from a code."""
    rows[at][0] = draw(st.sampled_from(["x", "E", "entity", "hypernode", "", "e", "h"]))


def _change_label(draw, rows, at):
    """A label edited by hand, or another row's: with no canonical to
    compare, only a canonical that is taken is refused."""
    row, other = rows[at], draw(st.sampled_from(rows))
    label = row[_LABEL_AT[len(row)]]
    row[_LABEL_AT[len(row)]] = draw(st.sampled_from(
        [label + "x", label.upper(), " " + label, other[_LABEL_AT[len(other)]],
         STRUCTURAL_SUBJECT]))


def _duplicate_row_id(draw, rows, at):
    other = draw(st.sampled_from(rows))
    rows[at][_ID_AT[len(rows[at])]] = other[_ID_AT[len(other)]]


def _repeat_array_row(draw, rows, at):
    """A second node or edge, under its id or another."""
    copy = list(rows[at])
    copy[_ID_AT[len(copy)]] = draw(st.sampled_from([copy[_ID_AT[len(copy)]], "fresh"]))
    rows.insert(draw(st.integers(at + 1, len(rows))), copy)


def _unknown_item(draw, rows, at):
    """An edge from or to no node, or a node renamed under its edges."""
    row = rows[at]
    row[draw(st.sampled_from([0, 2])) if len(row) == 4 else 1] = "nowhere"


def _flip_row(draw, rows, at):
    """A node of the other kind, or an edge the other way round."""
    row = rows[at]
    if len(row) == 3:
        row[0] = "h" if row[0] == "e" else "e"
    else:
        row[0], row[2] = row[2], row[0]


def _array_lone_surrogate(draw, rows, at):
    row = rows[at]
    at_item = draw(st.integers(0, len(row) - 1))
    place = draw(st.integers(0, len(row[at_item])))
    row[at_item] = (row[at_item][:place] + draw(st.sampled_from(["\ud800", "\udbff", "\udfff"]))
                    + row[at_item][place:])


def _as_object(draw, rows, at):
    """The row as the older format wrote it, among arrays."""
    row = rows[at]
    if len(row) == 3:
        kind, node_id, label = row
        rows[at] = {"type": "node", "id": node_id, "label": label,
                    "canonical": normalize_label(label), "kind": _KIND_OF_CODE[kind]}
    else:
        source, label, target, edge_id = row
        rows[at] = {"type": "edge", "id": edge_id, "source": source, "target": target,
                    "label": label,
                    "structural": normalize_label(label) in RESERVED_EDGE_LABELS}


_ARRAY_MUTATIONS = (_drop_item, _add_item, _odd_item, _bad_code, _change_label,
                    _duplicate_row_id, _repeat_array_row, _unknown_item, _flip_row,
                    _array_lone_surrogate, _as_object, _swap_rows)


@st.composite
def _mutated_files(draw, arrays: bool = False) -> str:
    """A saved graph's file, as ``save_graph`` writes it (``arrays``) or
    in the older format, with one row changed, repeated or moved, each row
    written with ASCII escapes or without."""
    graph = draw(_GRAPHS)
    rows = _rows(graph) if arrays else _v1_rows(graph)
    at = draw(st.integers(0, len(rows) - 1))
    draw(st.sampled_from(_ARRAY_MUTATIONS if arrays else _MUTATIONS))(draw, rows, at)
    return _file(rows, draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(_mutated_files())
def test_load_refuses_a_mutated_row_as_the_oracle_does(text):
    _loads_as_the_oracle_says(text)


@settings(max_examples=400, deadline=None)
@given(_mutated_files(arrays=True))
def test_load_refuses_a_mutated_array_row_as_the_oracle_does(text):
    _loads_as_the_oracle_says(text)


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(_mutated_files), st.integers(1, 4))
def test_load_refuses_a_mutated_row_across_chunk_boundaries(text, chunk_lines):
    """Chunks of one to four lines, in either format: a matched row
    refused mid-chunk, nodes and edges in one chunk, and chunks read by one
    match next to chunks read line by line (an escaped row, a raw lone
    surrogate, an object row)."""
    with mock.patch.object(kgrag.graph, "_CHUNK_LINES", chunk_lines):
        _loads_as_the_oracle_says(text)


def _loaded_records_share_strings(loaded: KnowledgeGraph) -> None:
    """Kinds are the module constants, and edges share their nodes' id
    strings and their label texts, as upserted records do."""
    for node in loaded.nodes:
        assert node.kind is KIND_ENTITY or node.kind is KIND_HYPERNODE
    for edge in loaded.edges:
        assert edge.source is loaded.node(edge.source).id
        assert edge.target is loaded.node(edge.target).id
        label, canonical = loaded._labels[edge.label]
        assert edge.label is label and edge.canonical is canonical


@settings(max_examples=150, deadline=None)
@given(_GRAPHS, st.integers(1, 4))
def test_load_round_trips_across_chunk_boundaries(graph, chunk_lines):
    """A saved file, and the same graph in the older format, load back to
    the saved bytes in chunks of one to four lines, and the loaded records
    share strings as upserted ones do."""
    text = _saved(graph)
    for source in (text, v1_text(graph)):
        with mock.patch.object(kgrag.graph, "_CHUNK_LINES", chunk_lines):
            loaded = load_graph(io.StringIO(source))
        assert _saved(loaded).encode("utf-8") == text.encode("utf-8")
        _loaded_records_share_strings(loaded)


@settings(max_examples=150, deadline=None)
@given(_GRAPHS)
def test_v1_and_v2_files_load_to_the_same_records(graph):
    """A file in the older format (v1) and one as ``save_graph`` writes it
    (v2) load to the upserted graph's records. Either loaded graph audits,
    saves as v2, and gives the v1 file back under the older writer."""
    v2, v1 = _saved(graph), v1_text(graph)
    for text in (v2, v1):
        loaded = load_graph(io.StringIO(text))
        loaded.audit()
        assert set(loaded.nodes) == set(graph.nodes)
        assert set(loaded.edges) == set(graph.edges)
        _loaded_records_share_strings(loaded)
        assert _saved(loaded) == v2
        assert v1_text(loaded) == v1


def test_load_refuses_each_odd_value_in_each_field_as_the_oracle_does():
    graph = build(NESTED_LINE)
    rows = _v1_rows(graph)
    for at, row in enumerate(rows):
        for name in row:
            for value in _ODD_VALUES:
                changed = [dict(row) for row in rows]
                changed[at][name] = value
                _loads_as_the_oracle_says(_file(changed))
    rows = _rows(graph)
    for at, row in enumerate(rows):
        for item in range(len(row)):
            for value in _ODD_VALUES:
                changed = [list(row) for row in rows]
                changed[at][item] = value
                _loads_as_the_oracle_says(_file(changed))


def test_records_are_immutable_hashable_and_equal_by_fields():
    graph = build(NESTED_LINE)
    for record in [*graph.nodes, *graph.edges]:
        with pytest.raises(AttributeError):
            record.id = "changed"
        same = type(record)(**record._asdict())
        assert same == record and same is not record
        assert hash(same) == hash(record)
        assert {record: "found"}[same] == "found"
