"""Embedder determinism, exact-search oracle checks, and index persistence."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag import (
    EmbeddingIndex,
    HashingEmbedder,
    HttpEmbeddingProvider,
    IndexEntry,
    IndexFormatError,
    KnowledgeGraph,
    ProviderError,
    index_graph,
    load_index,
    parse_triple,
    save_index,
)
from kgrag.embedding import (
    DEFAULT_DIM,
    KIND_HYPERNODE_ENTRY,
    KIND_NODE,
    KIND_RELATIONSHIP,
    NODE_KINDS,
)
from http_stub import stub_server

EMBEDDER = HashingEmbedder()


# --------------------------------------------------------------- embedder

def test_embed_deterministic():
    a = EMBEDDER.embed("Elizabeth Taylor")
    b = EMBEDDER.embed("Elizabeth Taylor")
    assert np.array_equal(a, b)
    assert a.shape == (DEFAULT_DIM,)


def test_embed_unit_norm():
    for text in ["a", "ab", "married", "Chichester, West Sussex", "日本語"]:
        assert np.linalg.norm(EMBEDDER.embed(text)) == pytest.approx(1.0, abs=1e-12)


def test_embed_case_insensitive():
    assert np.array_equal(EMBEDDER.embed("Family Guy"), EMBEDDER.embed("family guy"))


def test_embed_rejects_empty():
    with pytest.raises(ValueError):
        EMBEDDER.embed("")
    with pytest.raises(ValueError):
        EMBEDDER.embed("   ")


def test_embed_similarity_ordering():
    married = EMBEDDER.embed("married")
    married_to = EMBEDDER.embed("married to")
    zebra = EMBEDDER.embed("zebra")
    assert float(married @ married_to) > float(married @ zebra)
    assert float(married @ married) == pytest.approx(1.0)


def test_embed_batch_matches_single():
    texts = ["alpha", "beta", "gamma ray"]
    batch = EMBEDDER.embed_batch(texts)
    assert batch.shape == (3, DEFAULT_DIM)
    for row, text in zip(batch, texts):
        assert np.array_equal(row, EMBEDDER.embed(text))
    assert EMBEDDER.embed_batch([]).shape == (0, DEFAULT_DIM)


def test_custom_dim():
    small = HashingEmbedder(dim=16)
    assert small.embed("anything").shape == (16,)
    with pytest.raises(ValueError):
        HashingEmbedder(dim=0)


# ------------------------------------------------------------------ index

def sample_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for line in [
        "(Seth MacFarlane)-[is creator of]->(Family Guy)",
        "((Seth MacFarlane)-[created]->(Family Guy))-[in]->(1999)",
    ]:
        graph.upsert_triple(parse_triple(line))
    return graph


def test_index_graph_covers_nodes_and_labels():
    index = index_graph(sample_graph(), EMBEDDER)
    # 4 nodes (one of them the hypernode) + 3 distinct relationship labels
    assert len(index) == 7
    kinds = sorted(e.kind for e in index.entries)
    assert kinds.count("node") == 3
    assert kinds.count("hypernode") == 1
    assert kinds.count("relationship_label") == 3
    rel_texts = {e.text for e in index.entries if e.kind == KIND_RELATIONSHIP}
    assert rel_texts == {"is creator of", "created", "in"}
    # structural edge labels are never indexed
    assert not any(e.text.startswith("_") for e in index.entries)


def test_index_entry_validation():
    with pytest.raises(ValueError):
        IndexEntry("x", "mystery", "text", np.zeros(4))


def test_search_returns_scored_entries():
    index = index_graph(sample_graph(), EMBEDDER)
    results = index.search("Seth MacFarlane", k=3)
    assert results[0][0].text == "Seth MacFarlane"
    assert results[0][1] == pytest.approx(1.0)
    scores = [score for _, score in results]
    assert scores == sorted(scores, reverse=True)


def test_search_kind_filter():
    index = index_graph(sample_graph(), EMBEDDER)
    only_nodes = index.search("created", k=10, kinds=NODE_KINDS)
    assert all(e.kind in NODE_KINDS for e, _ in only_nodes)
    only_rels = index.search("created", k=10, kinds=[KIND_RELATIONSHIP])
    assert only_rels[0][0].text == "created"
    assert index.search("created", k=5, kinds=["no_such_kind"]) == []


def test_search_k_bounds():
    index = index_graph(sample_graph(), EMBEDDER)
    assert len(index.search("anything", k=100)) == len(index)
    assert len(index.search("anything", k=1)) == 1
    with pytest.raises(ValueError):
        index.search("anything", k=0)


def test_search_tie_break_is_canonical_ascending():
    vector = HashingEmbedder(dim=8).embed("shared")
    entries = [
        IndexEntry("n3", KIND_NODE, "delta", vector),
        IndexEntry("n1", KIND_NODE, "beta", vector),
        IndexEntry("n2", KIND_NODE, "alpha", vector),
    ]
    index = EmbeddingIndex(entries, HashingEmbedder(dim=8))
    results = index.search("shared", k=3)
    assert [e.text for e, _ in results] == ["alpha", "beta", "delta"]
    assert len({score for _, score in results}) == 1


def test_search_matches_brute_force_oracle():
    rng = random.Random(7)
    alphabet = "abcdefghij "
    labels = sorted({"".join(rng.choice(alphabet) for _ in range(rng.randint(3, 12))).strip()
                     for _ in range(80)} - {""})
    entries = [IndexEntry(f"id{i}", KIND_NODE, label, EMBEDDER.embed(label))
               for i, label in enumerate(labels)]
    index = EmbeddingIndex(entries, EMBEDDER)
    for _ in range(25):
        query = "".join(rng.choice(alphabet) for _ in range(6)).strip() or "abc"
        k = rng.randint(1, 12)
        got = [(e.ref_id, score) for e, score in index.search(query, k)]
        qv = EMBEDDER.embed(query)
        scored = sorted(
            ((float(e.vector @ qv), e.canonical, e.ref_id) for e in entries),
            key=lambda t: (-t[0], t[1]),
        )
        expected = [(ref_id, score) for score, _, ref_id in scored[:k]]
        assert [r for r, _ in got] == [r for r, _ in expected]
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert got_score == pytest.approx(want_score, abs=1e-12)


def test_search_keeps_ties_at_the_cutoff():
    small = HashingEmbedder(dim=8)
    tied = small.embed("shared")
    entries = [IndexEntry("top", KIND_NODE, "shared", tied)] + [
        IndexEntry(f"t{i}", KIND_NODE, label, tied)
        for i, label in enumerate(["echo", "Delta", "bravo", "charlie", "alpha"])
    ] + [IndexEntry("far", KIND_NODE, "zzzz", small.embed("zzzz"))]
    index = EmbeddingIndex(entries, small)
    # six rows tie for first; the cut at k=3 falls inside the tie
    got = [e.text for e, _ in index.search("shared", k=3)]
    assert got == ["alpha", "bravo", "charlie"]


_SEARCH_BASES = ["shared", "alpha", "beta gamma", "married to", "zz", "q"]
_SEARCH_KINDS = (KIND_NODE, KIND_HYPERNODE_ENTRY, KIND_RELATIONSHIP)
_SMALL = HashingEmbedder(dim=8)


_SEARCH_REFS = ["r0", "r1", "r2", "r3", "r4"]


@st.composite
def _tied_entries(draw) -> list[IndexEntry]:
    """Groups of entries sharing one vector under distinct labels; labels
    from a tiny alphabet, so canonical texts also collide across groups.
    Ref_ids come from a small pool, so one ref_id can name several rows of
    several kinds."""
    labels = st.text(alphabet="abAB ", min_size=1, max_size=3).filter(str.strip)
    entries = []
    for base in draw(st.lists(st.sampled_from(_SEARCH_BASES), max_size=8)):
        vector = _SMALL.embed(base)
        for label in draw(st.lists(labels, min_size=1, max_size=4, unique=True)):
            kind = draw(st.sampled_from(_SEARCH_KINDS))
            ref_id = draw(st.sampled_from(_SEARCH_REFS))
            entries.append(IndexEntry(ref_id, kind, label, vector))
    return entries


@settings(max_examples=300, deadline=None)
@given(_tied_entries(), st.sampled_from(_SEARCH_BASES + ["abba"]),
       st.one_of(st.none(), st.lists(st.sampled_from(_SEARCH_KINDS + ("unknown",)),
                                     max_size=4)),
       st.one_of(st.none(), st.lists(st.sampled_from(_SEARCH_REFS + ["unknown"]),
                                     max_size=4)),
       st.data())
def test_search_matches_sorting_every_row(entries, query, kinds, ref_ids, data):
    k = data.draw(st.integers(1, len(entries) + 2), label="k")
    index = EmbeddingIndex(entries, _SMALL)
    # Oracle: keep the rows of the wanted kinds (and ref_ids), score them
    # all, sort them all.
    wanted = set(_SEARCH_KINDS) if kinds is None else set(kinds)
    rows = [i for i, e in enumerate(entries) if e.kind in wanted]
    if ref_ids is not None:
        if not set(ref_ids) <= {entries[i].ref_id for i in rows}:
            with pytest.raises(ValueError, match="ref_id"):
                index.search(query, k, kinds=kinds, ref_ids=ref_ids)
            return
        rows = [i for i in rows if entries[i].ref_id in ref_ids]
    got = index.search(query, k, kinds=kinds, ref_ids=ref_ids)
    # Only ref_id rows are multiplied on their own; their scores may differ
    # in the last bit from those of the full product.
    product_rows = range(len(entries)) if ref_ids is None else rows
    scores = dict(zip(product_rows, (np.stack([entries[i].vector for i in product_rows])
                                     @ _SMALL.embed(query)).tolist())) if product_rows else {}
    rows.sort(key=lambda i: (-scores[i], entries[i].canonical))
    assert [e for e, _ in got] == [entries[i] for i in rows[:k]]
    for (entry, score), i in zip(got, rows):
        assert score == pytest.approx(float(entry.vector @ _SMALL.embed(query)), abs=1e-12)
        assert score == scores[i]


def test_search_ref_ids_restrict_within_kinds():
    index = index_graph(sample_graph(), EMBEDDER)
    got = index.search("created", k=10, kinds=[KIND_RELATIONSHIP], ref_ids=["in", "created"])
    assert [e.text for e, _ in got] == ["created", "in"]
    assert index.search("created", k=10, kinds=[KIND_RELATIONSHIP], ref_ids=[]) == []
    node_id = next(e.ref_id for e in index.entries if e.kind == KIND_NODE)
    with pytest.raises(ValueError, match="ref_id"):
        index.search("created", k=10, kinds=[KIND_RELATIONSHIP], ref_ids=[node_id])
    with pytest.raises(ValueError, match="ref_id"):
        index.search("created", k=10, kinds=[KIND_RELATIONSHIP], ref_ids=["is created of"])


def test_search_ref_ids_ties_keep_entry_order():
    small = HashingEmbedder(dim=8)
    vector = small.embed("same")
    entries = [IndexEntry(f"r{i}", KIND_RELATIONSHIP, text, vector)
               for i, text in enumerate(["same", "SAME", "Same", "sAme", "saMe", "samE"])]
    index = EmbeddingIndex(entries, small)
    got = index.search("same", k=6, ref_ids=[f"r{i}" for i in reversed(range(6))])
    assert [e.ref_id for e, _ in got] == [f"r{i}" for i in range(6)]


def test_empty_index_searches_empty():
    index = EmbeddingIndex([], EMBEDDER)
    assert index.search("anything", k=5) == []
    assert len(index) == 0


# ------------------------------------------------------------ persistence

def test_save_load_roundtrip(tmp_path):
    index = index_graph(sample_graph(), EMBEDDER)
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    loaded = load_index(path, EMBEDDER)
    assert len(loaded) == len(index)
    for original, restored in zip(index.entries, loaded.entries):
        assert (original.ref_id, original.kind, original.text) == \
            (restored.ref_id, restored.kind, restored.text)
        assert np.allclose(original.vector, restored.vector)
    query = "Family Guy"
    assert [(e.ref_id, pytest.approx(s)) for e, s in index.search(query, 5)] == \
        [(e.ref_id, s) for e, s in loaded.search(query, 5)]


def test_load_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(IndexFormatError) as exc_info:
        load_index(path, EMBEDDER)
    assert exc_info.value.line == 1


def test_load_rejects_non_unit_vector(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"ref_id": "x", "kind": "node", "text": "a", "vector": [1.0, 1.0]}\n',
        encoding="utf-8",
    )
    with pytest.raises(IndexFormatError, match="unit"):
        load_index(path, EMBEDDER)


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"ref_id": "x", "kind": "mystery", "text": "a", "vector": [1.0, 0.0]}\n',
        encoding="utf-8",
    )
    with pytest.raises(IndexFormatError):
        load_index(path, EMBEDDER)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ref_id": "x", "kind": "node", "text": "a"}\n', encoding="utf-8")
    with pytest.raises(IndexFormatError):
        load_index(path, EMBEDDER)


# ----------------------------------------------------------- HTTP backend

def _unit(vector):
    arr = np.asarray(vector, dtype=np.float64)
    return (arr / np.linalg.norm(arr)).tolist()


def test_http_embedder_posts_texts_and_normalizes():
    def responder(payload, headers):
        vectors = [[2.0, 0.0] if "alpha" in t else [0.0, 5.0] for t in payload["texts"]]
        return 200, {"vectors": vectors}

    with stub_server(responder) as (url, captured):
        provider = HttpEmbeddingProvider(url, api_key="secret-key")
        matrix = provider.embed_batch(["alpha", "beta"])
        assert matrix.shape == (2, 2)
        assert np.allclose(matrix[0], [1.0, 0.0])
        assert np.allclose(matrix[1], [0.0, 1.0])
        assert captured[0]["payload"] == {"texts": ["alpha", "beta"]}
        assert captured[0]["headers"]["authorization"] == "Bearer secret-key"
        single = provider.embed("alpha")
        assert np.allclose(single, [1.0, 0.0])


def test_http_embedder_batches_requests():
    def responder(payload, headers):
        return 200, {"vectors": [_unit([i + 1.0, 1.0]) for i, _ in enumerate(payload["texts"])]}

    with stub_server(responder) as (url, captured):
        provider = HttpEmbeddingProvider(url, batch_size=2)
        matrix = provider.embed_batch(["a", "b", "c", "d", "e"])
        assert matrix.shape == (5, 2)
        assert len(captured) == 3
        assert [len(c["payload"]["texts"]) for c in captured] == [2, 2, 1]


def test_http_embedder_error_paths():
    with stub_server(lambda payload, headers: (500, {"error": "down"})) as (url, _):
        with pytest.raises(ProviderError):
            HttpEmbeddingProvider(url).embed("x")

    with stub_server(lambda payload, headers: (200, {"wrong": []})) as (url, _):
        with pytest.raises(ProviderError):
            HttpEmbeddingProvider(url).embed("x")

    def wrong_shape(payload, headers):
        return 200, {"vectors": [[1.0, 0.0]] * (len(payload["texts"]) + 1)}

    with stub_server(wrong_shape) as (url, _):
        with pytest.raises(ProviderError, match="wrong-shaped"):
            HttpEmbeddingProvider(url).embed("x")

    with stub_server(lambda payload, headers: (200, {"vectors": [[0.0, 0.0]]})) as (url, _):
        with pytest.raises(ProviderError):
            HttpEmbeddingProvider(url).embed("x")


def test_http_embedder_locks_dimension():
    calls = {"n": 0}

    def responder(payload, headers):
        calls["n"] += 1
        width = 2 if calls["n"] == 1 else 3
        return 200, {"vectors": [_unit([1.0] * width) for _ in payload["texts"]]}

    with stub_server(responder) as (url, _):
        provider = HttpEmbeddingProvider(url)
        provider.embed("first")
        with pytest.raises(ProviderError, match="dimension"):
            provider.embed("second")


def test_index_graph_reports_partial_progress_on_failure():
    class FlakyEmbedder:
        def __init__(self):
            self.calls = 0

        def embed(self, text):
            return EMBEDDER.embed(text)

        def embed_batch(self, texts):
            self.calls += 1
            if self.calls > 1:
                raise ProviderError("backend went away")
            return EMBEDDER.embed_batch(texts)

    graph = KnowledgeGraph()
    for i in range(150):   # two batches of 128
        graph.upsert_triple(parse_triple(f"(node {i:03d})-[points at]->(node {i + 1:03d})"))
    with pytest.raises(ProviderError) as exc_info:
        index_graph(graph, FlakyEmbedder())
    assert exc_info.value.entries_built == 128
