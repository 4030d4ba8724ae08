"""Storage-law, dedup, traversal, audit, and persistence tests for the graph."""

from __future__ import annotations

import dataclasses
import io
import json
import time

import pytest

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


def test_label_groups_group_out_edges_by_canonical_label():
    graph = build("(hub)-[LINKS  to]->(beta)", "(hub)-[links to]->(alpha)",
                  "(hub)-[other]->(gamma)", "(spoke)-[links to]->(alpha)", NESTED_LINE)
    hub, spoke = graph.find_node("hub").id, graph.find_node("spoke").id
    groups = graph.label_groups([spoke, hub, hub])
    assert sorted(groups) == ["links to", "other"]
    assert [(e.source, e.target) for e in groups["links to"]] == sorted(
        (e.source, e.target) for e in graph.neighbors([hub, spoke], "out")
        if e.canonical == "links to")
    hyper = graph.find_node("Seth MacFarlane created Family Guy").id
    assert list(graph.label_groups([hyper])) == ["in"]    # structural groups left out
    assert graph.label_groups([graph.find_node("gamma").id]) == {}
    with pytest.raises(UnknownNodeError):
        graph.label_groups([hub, "no-such-id"])


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

def replace_edge(graph: KnowledgeGraph, edge, **changes) -> None:
    """Swap ``edge`` for a changed copy in its out-group and its in-list."""
    changed = dataclasses.replace(edge, **changes)
    for edges in (graph._out[edge.source][edge.canonical], graph._in[edge.target]):
        edges[edges.index(edge)] = changed


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


def _drop_from_in_list(graph, edge):
    graph._in[edge.target].remove(edge)


def _copy_in_in_list(graph, edge):
    edges = graph._in[edge.target]
    edges[edges.index(edge)] = dataclasses.replace(edge)


def _twice_in_in_list(graph, edge):
    graph._in[edge.target].append(edge)


def _drop_from_out_group(graph, edge):
    graph._out[edge.source][edge.canonical].remove(edge)


@pytest.mark.parametrize("damage", [_drop_from_in_list, _copy_in_in_list, _twice_in_in_list,
                                    _drop_from_out_group])
def test_audit_detects_each_record_not_held_once_by_each_store(damage):
    graph = build("(a)-[r]->(b)", "(a)-[r]->(c)", "(c)-[s]->(b)")
    damage(graph, graph.label_groups([graph.find_node("a").id])["r"][0])
    with pytest.raises(GraphIntegrityError, match="adjacency"):
        graph.audit()


def test_audit_enforces_hypernode_anchor_law():
    graph = build(NESTED_LINE)
    edge = next(e for e in graph.edges if e.label == STRUCTURAL_SUBJECT)
    del graph._out[edge.source][STRUCTURAL_SUBJECT]
    graph._in[edge.target].remove(edge)
    with pytest.raises(GraphIntegrityError, match="hypernode"):
        graph.audit()


def test_audit_refuses_ids_that_are_not_content_hashes():
    graph = chain_graph()
    node = graph.find_node("c")
    del graph._nodes[node.id]
    graph._nodes["not-a-hash"] = dataclasses.replace(node, id="not-a-hash")
    with pytest.raises(GraphIntegrityError, match="node not-a-hash: id is not the hash"):
        graph.audit()
    graph = chain_graph()
    edge = next(iter(graph.edges))
    replace_edge(graph, edge, id="not-a-hash")
    with pytest.raises(GraphIntegrityError, match="edge not-a-hash: id is not the hash"):
        graph.audit()


def test_audit_detects_unordered_out_group():
    graph = build("(a)-[r]->(b)", "(a)-[r]->(c)")
    graph._out[graph.find_node("a").id]["r"].reverse()
    with pytest.raises(GraphIntegrityError, match="unordered"):
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
    encode = json.JSONEncoder.encode
    written = []

    def encode_then_fail(*args, **kwargs):
        written.append(args)
        if len(written) == 4:
            raise OSError("disk full")
        return encode(*args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "encode", encode_then_fail)
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
    edge["source"] = "no-such-node"
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
