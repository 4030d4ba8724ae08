"""Chunking arithmetic, prompt shape, and the extract-parse-upsert loop."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag import (
    ExtractionHalted,
    KnowledgeGraph,
    ScriptRule,
    ScriptedProvider,
    build_extraction_prompt,
    chunk_text,
    extract_and_store,
)
from kgrag.extraction import TextChunk
from kgrag.triples import parse_extraction_block
from kgrag.prompts import EXTRACTION_EXAMPLES
from graph_oracle import find_node

SENTENCE = "Seth MacFarlane created Family Guy in 1999."
TWO_LINE_OUTPUT = (
    "(Seth MacFarlane)-[is creator of]->(Family Guy)\n"
    "((Seth MacFarlane)-[created]->(Family Guy))-[in]->(1999)"
)


# --------------------------------------------------------------- chunking

def test_chunks_without_whitespace_use_raw_arithmetic():
    text = "x" * 5000
    chunks = chunk_text("doc", text, chunk_chars=2000, overlap_chars=200)
    assert [c.char_span for c in chunks] == [(0, 2000), (1800, 3800), (3600, 5000)]
    assert [c.seq for c in chunks] == [0, 1, 2]
    assert all(c.doc_id == "doc" for c in chunks)


def test_short_text_is_one_chunk():
    chunks = chunk_text("doc", SENTENCE)
    assert len(chunks) == 1
    assert chunks[0].text == SENTENCE
    assert chunks[0].char_span == (0, len(SENTENCE))


def test_empty_text_gives_no_chunks():
    assert chunk_text("doc", "") == []


def test_boundaries_snap_to_whitespace():
    text = ("word " * 1000).strip()       # 4999 chars of 5-char cadence
    chunks = chunk_text("doc", text, chunk_chars=2000, overlap_chars=200)
    for chunk in chunks[:-1]:
        end = chunk.char_span[1]
        assert text[end - 1] == " "       # cut lands just after whitespace
        assert not chunk.text.endswith(" w")
    for chunk in chunks[1:]:
        start = chunk.char_span[0]
        assert text[start - 1] == " "     # next chunk starts on a word


def test_chunk_parameter_validation():
    with pytest.raises(ValueError):
        chunk_text("doc", "abc", chunk_chars=10, overlap_chars=-1)
    with pytest.raises(ValueError):
        chunk_text("doc", "abc", chunk_chars=100, overlap_chars=100)


@settings(max_examples=150, deadline=None)
@given(
    st.text(alphabet="ab \n", min_size=0, max_size=400),
    st.integers(8, 40),
    st.integers(0, 7),
)
def test_chunking_invariants(text, chunk_chars, overlap_chars):
    chunks = chunk_text("doc", text, chunk_chars, overlap_chars)
    if not text:
        assert chunks == []
        return
    assert chunks[0].char_span[0] == 0
    assert chunks[-1].char_span[1] == len(text)
    for chunk in chunks:
        start, end = chunk.char_span
        assert start < end
        assert chunk.text == text[start:end]
    for left, right in zip(chunks, chunks[1:]):
        assert right.char_span[0] > left.char_span[0]       # forward progress
        assert right.char_span[0] <= left.char_span[1]      # no gaps
    assert [c.seq for c in chunks] == list(range(len(chunks)))


# ----------------------------------------------------------------- prompt

def test_prompt_carries_fixed_examples_and_chunk():
    chunk = TextChunk("doc", 0, SENTENCE, (0, len(SENTENCE)))
    request = build_extraction_prompt(chunk)
    assert request.tag == "extract"
    assert request.messages[0].role == "system"
    assert len(request.messages) == 2 + 2 * len(EXTRACTION_EXAMPLES)
    assert len(EXTRACTION_EXAMPLES) == 6
    assert request.messages[-1].role == "user"
    assert request.messages[-1].content == SENTENCE
    roles = [m.role for m in request.messages[1:-1]]
    assert roles == ["user", "assistant"] * 6


def test_prompt_includes_nested_example():
    chunk = TextChunk("doc", 0, "anything", (0, 8))
    text = build_extraction_prompt(chunk).text()
    assert "(Seth MacFarlane)-[is creator of]->(Family Guy)" in text
    assert "((Seth MacFarlane)-[created]->(Family Guy))-[in]->(1999)" in text


def test_prompt_is_byte_stable():
    chunk = TextChunk("doc", 0, SENTENCE, (0, len(SENTENCE)))
    assert build_extraction_prompt(chunk).text() == build_extraction_prompt(chunk).text()


def test_prompt_has_negative_example():
    # at least one example teaches that some text yields no triples
    assert any(response == "" for _, response in EXTRACTION_EXAMPLES)


# ------------------------------------------------------- extract and store

def scripted(*rules: tuple[str, str]) -> ScriptedProvider:
    return ScriptedProvider([ScriptRule("extract", match, response)
                             for match, response in rules])


def test_extract_and_store_builds_graph():
    graph = KnowledgeGraph()
    provider = scripted((SENTENCE, TWO_LINE_OUTPUT))
    report = extract_and_store(graph, provider, "doc", SENTENCE)
    assert report.chunks_processed == 1
    assert report.triples_extracted == 2
    assert report.triples_upserted == 2
    assert report.parse_errors == []
    stats = graph.stats()
    assert stats.node_count == 4
    assert stats.hypernode_count == 1
    assert stats.edge_count == 5
    graph.audit()


def test_extract_and_store_is_idempotent():
    graph = KnowledgeGraph()
    provider = scripted((SENTENCE, TWO_LINE_OUTPUT))
    extract_and_store(graph, provider, "doc", SENTENCE)
    before = graph.stats()
    report = extract_and_store(graph, provider, "doc", SENTENCE)
    assert report.triples_extracted == 2
    assert report.triples_upserted == 0
    assert graph.stats() == before


def test_extract_and_store_records_parse_errors():
    graph = KnowledgeGraph()
    provider = scripted((SENTENCE, "(a)-[r]->(b)\ngarbled line\n(c)-[s]->(d)"))
    report = extract_and_store(graph, provider, "doc", SENTENCE)
    assert report.triples_extracted == 2
    assert report.triples_upserted == 2
    assert len(report.parse_errors) == 1
    error = report.parse_errors[0]
    assert error["doc_id"] == "doc"
    assert error["chunk_seq"] == 0
    assert error["line"] == 2
    assert "offset" in error and "message" in error
    assert graph.stats().node_count == 4     # good lines still land


def test_parse_errors_keep_no_frames():
    """A kept parse error holds no traceback and no context: through the
    parser's frames they would reach the caller's."""
    _, errors = parse_extraction_block("garbled\n(a\\x)-[r]->(b)\n((a)-[r]->(b)")
    assert len(errors) == 3
    for error in errors:
        assert error.__traceback__ is None and error.__context__ is None


def test_a_parse_error_does_not_keep_the_graph_alive():
    """With the collector off, a graph that took malformed lines is freed
    when its last name goes."""
    provider = scripted((SENTENCE, "(a)-[r]->(b)\n(a\\x)-[r]->(b)\ngarbled line"))
    graph = KnowledgeGraph()
    alive = weakref.ref(graph)
    gc.disable()
    try:
        report = extract_and_store(graph, provider, "doc", SENTENCE)
        del graph
        assert alive() is None
    finally:
        gc.enable()
    assert [error["line"] for error in report.parse_errors] == [2, 3]


def test_extract_and_store_drops_reserved_predicates():
    graph = KnowledgeGraph()
    provider = scripted((SENTENCE, "(a)-[_subject]->(b)\n(c)-[s]->(d)"))
    report = extract_and_store(graph, provider, "doc", SENTENCE)
    assert report.triples_extracted == 2      # parsed fine, rejected at upsert
    assert report.triples_upserted == 1
    assert find_node(graph, "a") is None
    assert find_node(graph, "c") is not None


def test_extract_and_store_reports_refused_triples():
    graph = KnowledgeGraph()
    provider = scripted((SENTENCE, "(A\ud800)-[r]->(B)\n(C)-[s]->(D)\n(E)-[_subject]->(F)"))
    report = extract_and_store(graph, provider, "doc", SENTENCE)
    assert report.triples_extracted == 3
    assert report.triples_upserted == 1
    assert report.parse_errors == []
    assert [(r["doc_id"], r["chunk_seq"]) for r in report.rejected] == [("doc", 0), ("doc", 0)]
    assert report.rejected[0]["message"] == "node label holds a lone surrogate"
    assert report.rejected[1]["message"] == "predicate '_subject' is reserved for structural edges"
    assert report.to_dict()["rejected"] == report.rejected
    assert [node.label for node in graph.nodes] == ["C", "D"]


def test_extract_and_store_empty_response():
    graph = KnowledgeGraph()
    provider = scripted((SENTENCE, ""))
    report = extract_and_store(graph, provider, "doc", SENTENCE)
    assert report.triples_extracted == 0
    assert report.parse_errors == []
    assert graph.stats().node_count == 0


def test_provider_failure_halts_with_partial_report():
    first = "alpha " * 40       # two chunks with these sizes
    second = "omega " * 40
    text = first + second
    graph = KnowledgeGraph()
    provider = scripted(("alpha", "(a)-[r]->(b)"))   # no rule covers chunk 2
    with pytest.raises(ExtractionHalted) as exc_info:
        extract_and_store(graph, provider, "doc", text,
                          chunk_chars=260, overlap_chars=10)
    report = exc_info.value.report
    assert report.chunks_processed >= 1
    assert report.triples_upserted >= 1
    assert find_node(graph, "a") is not None   # partial progress is kept


def test_report_merge_accumulates():
    from kgrag import ExtractionReport
    a = ExtractionReport(chunks_processed=1, triples_extracted=2,
                         triples_upserted=2, parse_errors=[{"line": 1}],
                         rejected=[{"message": "first"}])
    b = ExtractionReport(chunks_processed=2, triples_extracted=3,
                         triples_upserted=0, parse_errors=[], rejected=[{"message": "second"}])
    a.merge(b)
    assert a.chunks_processed == 3
    assert a.triples_extracted == 5
    assert a.triples_upserted == 2
    assert a.to_dict()["parse_errors"] == [{"line": 1}]
    assert a.to_dict()["rejected"] == [{"message": "first"}, {"message": "second"}]
