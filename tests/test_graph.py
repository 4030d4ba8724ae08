"""Storage-law, dedup, traversal, audit, and persistence tests for the graph."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from kgrag import (
    DepthError,
    GraphFormatError,
    GraphIntegrityError,
    KnowledgeGraph,
    UnknownNodeError,
    flatten_label,
    load_graph,
    normalize_label,
    parse_triple,
    save_graph,
)
from kgrag.graph import (
    KIND_ENTITY,
    KIND_HYPERNODE,
    STRUCTURAL_OBJECT,
    STRUCTURAL_SUBJECT,
)

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
    edges = graph.neighbors(node_ids, "out", include_structural=True)
    return sorted({e.target for e in edges if e.canonical == normalize_label(label)},
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

    hyper = graph.find_node("Seth MacFarlane created Family Guy")
    assert hyper is not None and hyper.kind == KIND_HYPERNODE

    seth = graph.find_node("Seth MacFarlane")
    family_guy = graph.find_node("Family Guy")
    year = graph.find_node("1999")
    assert {n.kind for n in (seth, family_guy, year)} == {KIND_ENTITY}

    # inner relation is an ordinary edge between the original terms
    inner = [e for e in graph.neighbors([seth.id], "out") if e.label == "created"]
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
    outer = graph.find_node("a r b s c")
    inner = graph.find_node("a r b")
    assert outer.kind == KIND_HYPERNODE and inner.kind == KIND_HYPERNODE
    assert targets(graph, [outer.id], STRUCTURAL_SUBJECT) == [inner.id]
    graph.audit()


def test_hypernode_label_collision_reuses_entity():
    graph = build("(x)-[holds]->(a r b)",        # entity whose label equals the flattening
                  "((a)-[r]->(b))-[in]->(1999)")
    node = graph.find_node("a r b")
    assert node.kind == KIND_ENTITY
    # no structural edges may hang off an entity node
    assert all(not e.structural for e in graph.neighbors([node.id], "both",
                                                         include_structural=True))
    graph.audit()


# ------------------------------------------------------ dedup, idempotence

def test_upsert_is_idempotent():
    graph = build(NESTED_LINE)
    before = graph.stats()
    outcome = graph.upsert_triple(parse_triple(NESTED_LINE))
    assert not outcome.created_any
    assert outcome.created == []
    assert outcome.reused
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
    node = graph.find_node("family guy")
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
    assert KnowledgeGraph(max_depth=5).upsert_triple(deep).created_any


def test_whitespace_only_label_rejected():
    from kgrag import Entity, TripleStatement
    graph = KnowledgeGraph()
    with pytest.raises(ValueError, match="empty"):
        graph.upsert_triple(TripleStatement(Entity(" "), "r", Entity("b")))


# -------------------------------------------------------------- traversal

def chain_graph() -> KnowledgeGraph:
    return build("(a)-[r]->(b)", "(b)-[s]->(c)", "(a)-[q]->(c)")


def test_neighbors_directions():
    graph = chain_graph()
    b = graph.find_node("b").id
    assert [e.label for e in graph.neighbors([b], "out")] == ["s"]
    assert [e.label for e in graph.neighbors([b], "in")] == ["r"]
    assert [e.label for e in graph.neighbors([b], "both")] == ["r", "s"]


def test_neighbors_deduplicates_and_sorts():
    graph = chain_graph()
    ids = [graph.find_node("a").id, graph.find_node("b").id, graph.find_node("c").id]
    labels = [e.label for e in graph.neighbors(ids, "both")]
    assert labels == ["q", "r", "s"]      # each edge once, label-sorted


def test_neighbors_excludes_structural_by_default():
    graph = build(NESTED_LINE)
    hyper = graph.find_node("Seth MacFarlane created Family Guy").id
    assert [e.label for e in graph.neighbors([hyper], "out")] == ["in"]
    with_structural = graph.neighbors([hyper], "out", include_structural=True)
    assert [e.label for e in with_structural] == [STRUCTURAL_OBJECT, STRUCTURAL_SUBJECT, "in"]


def test_neighbors_validates_input():
    graph = chain_graph()
    with pytest.raises(UnknownNodeError):
        graph.neighbors(["no-such-id"], "out")
    with pytest.raises(ValueError):
        graph.neighbors([graph.find_node("a").id], "sideways")


def test_target_nodes_matches_labels_canonically():
    graph = build("(hub)-[LINKS  to]->(beta)", "(hub)-[links to]->(alpha)",
                  "(hub)-[other]->(gamma)")
    hub = graph.find_node("hub").id
    edges = graph.neighbors([hub], "out")
    assert [(e.label, e.canonical) for e in edges] == [
        ("links to", "links to"), ("LINKS  to", "links to"), ("other", "other")]
    assert [graph.node(t).label for t in targets(graph, [hub], "links TO")] == ["alpha", "beta"]
    assert targets(graph, [hub], "missing") == []


def test_node_lookup_errors():
    graph = chain_graph()
    with pytest.raises(UnknownNodeError):
        graph.node("absent")
    assert graph.find_node("no such label") is None
    assert graph.has_node(graph.find_node("a").id)


# ------------------------------------------------------------------ audit

def test_audit_passes_on_clean_graph():
    build(NESTED_LINE, FLAT_LINE, "(Family Guy)-[aired on]->(Fox)").audit()


def test_audit_detects_duplicate_canonical():
    graph = chain_graph()
    node = graph.find_node("a")
    clone = type(node)("deadbeef00000000", "A", "a", KIND_ENTITY)
    graph._nodes[clone.id] = clone
    with pytest.raises(GraphIntegrityError, match="duplicate canonical"):
        graph.audit()


def test_audit_detects_structural_flag_mismatch():
    graph = build(NESTED_LINE)
    edge = next(e for e in graph.edges if e.structural)
    graph._edges[edge.id] = dataclasses.replace(edge, structural=False)
    with pytest.raises(GraphIntegrityError, match="structural"):
        graph.audit()


def test_audit_detects_edge_canonical_mismatch():
    graph = chain_graph()
    edge = next(iter(graph.edges))
    graph._edges[edge.id] = dataclasses.replace(edge, canonical=edge.canonical + "x")
    with pytest.raises(GraphIntegrityError, match="canonical does not match"):
        graph.audit()


def test_audit_detects_broken_adjacency():
    graph = chain_graph()
    edge = next(iter(graph.edges))
    graph._out[edge.source].remove(edge.id)
    with pytest.raises(GraphIntegrityError, match="adjacency"):
        graph.audit()


def test_audit_enforces_hypernode_anchor_law():
    graph = build(NESTED_LINE)
    edge = next(e for e in graph.edges if e.label == STRUCTURAL_SUBJECT)
    del graph._edges[edge.id]
    graph._out[edge.source].remove(edge.id)
    graph._in[edge.target].remove(edge.id)
    del graph._edge_by_key[(edge.source, STRUCTURAL_SUBJECT, edge.target)]
    with pytest.raises(GraphIntegrityError, match="hypernode"):
        graph.audit()


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
    dumps = json.dumps
    written = []

    def dumps_then_fail(*args, **kwargs):
        written.append(args)
        if len(written) == 4:
            raise OSError("disk full")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps_then_fail)
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
    assert load_graph(path).find_node("céligny") is not None


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
