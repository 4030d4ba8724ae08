"""Embedder determinism, exact-search oracle checks, and index persistence."""

from __future__ import annotations

import gc
import io
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgrag import (
    EmbeddingIndex,
    HashingEmbedder,
    HttpEmbeddingProvider,
    IndexEntry,
    IndexFormatError,
    KnowledgeGraph,
    ProviderError,
    StaleIndexError,
    index_graph,
    load_index,
    normalize_label,
    parse_triple,
    save_index,
)
from kgrag.embedding import DEFAULT_DIM, INDEX_FORMAT
from kgrag.llm import RETRY_BASE_DELAY_S
from embedding_oracle import (
    index_entries,
    index_from_matrix,
    index_matrix,
    older_index_file,
    oracle_embed,
    oracle_embed_batch,
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
    for dim in (1, 7, DEFAULT_DIM):
        empty = HashingEmbedder(dim).embed_batch([])
        assert (empty.shape, empty.dtype) == ((0, dim), np.float64)


def test_custom_dim():
    small = HashingEmbedder(dim=16)
    assert small.embed("anything").shape == (16,)
    with pytest.raises(ValueError):
        HashingEmbedder(dim=0)


# "İ" lowercases to two characters, "e\u0301" is a combining mark, and the
# letters past U+FFFF take four UTF-8 bytes each.
_ODD_LETTERS = "aZ -İıße\u0301\u0308日本😀𝔸\U0001f1fa\U0001f1f8"
_TEXTS = st.one_of(
    st.text(min_size=1, max_size=2),
    st.text(st.sampled_from(_ODD_LETTERS), min_size=1, max_size=12),
    st.text(max_size=40),
).filter(str.strip)
_BLANKS = st.text(st.sampled_from(" \t\n\r\x0b\x0c\u3000\u2028"), max_size=3)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 7, 256]), st.sampled_from([0, 1, 127, 128, 129]), st.data())
def test_embedder_matches_the_per_text_loop_byte_for_byte(dim, size, data):
    texts = data.draw(st.lists(_TEXTS, min_size=size, max_size=size), label="texts")
    embedder = HashingEmbedder(dim)
    expected = oracle_embed_batch(texts, dim)
    batch = embedder.embed_batch(texts)
    assert (batch.shape, batch.dtype) == ((size, dim), np.float64)
    assert batch.tobytes() == expected.tobytes()
    for text in texts[:3] + texts[-2:]:
        single = embedder.embed(text)
        assert (single.shape, single.dtype) == ((dim,), np.float64)
        assert single.tobytes() == oracle_embed(text, dim).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 7, 256]), st.lists(_TEXTS, max_size=129), _BLANKS, st.data())
def test_a_blank_text_anywhere_in_a_batch_is_refused(dim, texts, blank, data):
    texts.insert(data.draw(st.integers(0, len(texts)), label="position"), blank)
    with pytest.raises(ValueError, match="cannot embed empty text"):
        oracle_embed_batch(texts, dim)
    with pytest.raises(ValueError, match="cannot embed empty text"):
        HashingEmbedder(dim).embed_batch(texts)
    with pytest.raises(ValueError, match="cannot embed empty text"):
        HashingEmbedder(dim).embed(blank)


@pytest.mark.parametrize("text", ["\ud800", "ab\udfffc", "日本\udc00", "\ud83d"])
def test_a_lone_surrogate_is_refused_by_both_paths(text):
    """UTF-8 cannot encode a lone surrogate; ``st.text`` never draws one."""
    with pytest.raises(UnicodeEncodeError):
        oracle_embed(text, 7)
    with pytest.raises(UnicodeEncodeError):
        EMBEDDER.embed(text)
    for texts in ([text], ["alpha", text], ["日本", text, "beta"]):
        with pytest.raises(UnicodeEncodeError):
            EMBEDDER.embed_batch(texts)


def test_a_long_text_matches_the_per_text_loop():
    text = "a" * 100_000
    for dim in (1, 7, 256):
        assert HashingEmbedder(dim).embed(text).tobytes() == oracle_embed(text, dim).tobytes()


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
    graph = sample_graph()
    index = index_graph(graph, EMBEDDER)
    # 4 nodes (one of them the hypernode), then 3 distinct relationship labels
    assert (len(index), index.nodes) == (7, 4)
    assert [node.kind for node in graph.nodes].count("hypernode") == 1
    entries = index_entries(index)
    assert {e.ref_id for e in entries[:4]} == {node.id for node in graph.nodes}
    assert {e.text for e in entries[4:]} == {"is creator of", "created", "in"}
    # structural edge labels are never indexed
    assert not any(e.text.startswith("_") for e in entries)


# A row's kind in the tests' own rows: the index keeps no kind, only how
# many of its entries, the first ones, are nodes.
_NODE, _LABEL = "node", "label"


def _index(rows, embedder) -> EmbeddingIndex:
    """An index over ``(ref_id, kind, text, vector)`` rows, the node rows
    before the label rows."""
    nodes = [row[1] for row in rows].count(_NODE)
    assert all(row[1] == _NODE for row in rows[:nodes])
    matrix = np.array([vector for *_, vector in rows]).reshape(len(rows), embedder.dim)
    return index_from_matrix([row[0] for row in rows], [row[2] for row in rows], nodes, matrix,
                             embedder)


def _nodes_first(rows: list[tuple]) -> list[tuple]:
    """``rows`` with the node rows before the label rows, each in its order."""
    return sorted(rows, key=lambda row: row[1] == _LABEL)


def test_an_index_entry_is_its_id_and_text():
    entry = IndexEntry("x", "Some  Text")
    assert entry == IndexEntry("x", "Some  Text")
    assert hash(entry) == hash(IndexEntry("x", "Some  Text"))
    assert entry not in (IndexEntry("x", "some text"), IndexEntry("y", "Some  Text"))
    with pytest.raises(TypeError):
        IndexEntry("x", "node", "text")


def test_index_entry_canonical_is_computed_once_when_read(monkeypatch):
    calls = []
    monkeypatch.setattr("kgrag.embedding.normalize_label",
                        lambda text: calls.append(text) or text.lower())
    entry = IndexEntry("n1", "Alpha  Beta")
    assert calls == []
    assert entry.canonical == entry.canonical == "alpha  beta"
    assert calls == ["Alpha  Beta"]


def test_search_returns_scored_entries():
    index = index_graph(sample_graph(), EMBEDDER)
    results = index.search("Seth MacFarlane", k=3)
    assert results[0][0].text == "Seth MacFarlane"
    assert results[0][1] == pytest.approx(1.0)
    scores = [score for _, score in results]
    assert scores == sorted(scores, reverse=True)


def test_search_kind_filter():
    graph = sample_graph()
    index = index_graph(graph, EMBEDDER)
    only_nodes = index.search("created", k=10)
    assert sorted(e.ref_id for e, _ in only_nodes) == sorted(node.id for node in graph.nodes)
    only_rels = index.search("created", k=10, labels=["in", "is creator of", "created"])
    assert only_rels[0][0].text == "created"
    assert {e.ref_id for e, _ in only_rels} == {"in", "is creator of", "created"}


def test_search_k_bounds():
    index = index_graph(sample_graph(), EMBEDDER)
    assert len(index.search("anything", k=100)) == 4
    assert len(index.search("anything", k=1)) == 1
    with pytest.raises(ValueError):
        index.search("anything", k=0)


def test_search_tie_break_is_canonical_ascending():
    vector = HashingEmbedder(dim=8).embed("shared")
    rows = [
        ("n3", _NODE, "delta", vector),
        ("n1", _NODE, "beta", vector),
        ("n2", _NODE, "alpha", vector),
    ]
    index = _index(rows, HashingEmbedder(dim=8))
    results = index.search("shared", k=3)
    assert [e.text for e, _ in results] == ["alpha", "beta", "delta"]
    assert len({score for _, score in results}) == 1


def test_search_matches_brute_force_oracle():
    rng = random.Random(7)
    alphabet = "abcdefghij "
    labels = sorted({"".join(rng.choice(alphabet) for _ in range(rng.randint(3, 12))).strip()
                     for _ in range(80)} - {""})
    vectors = [EMBEDDER.embed(label) for label in labels]
    index = _index([(f"id{i}", _NODE, label, vector)
                    for i, (label, vector) in enumerate(zip(labels, vectors))], EMBEDDER)
    entries = index_entries(index)
    for _ in range(25):
        query = "".join(rng.choice(alphabet) for _ in range(6)).strip() or "abc"
        k = rng.randint(1, 12)
        got = [(e.ref_id, score) for e, score in index.search(query, k)]
        qv = EMBEDDER.embed(query)
        scored = sorted(
            ((float(vector @ qv), e.canonical, e.ref_id)
             for e, vector in zip(entries, vectors)),
            key=lambda t: (-t[0], t[1]),
        )
        expected = [(ref_id, score) for score, _, ref_id in scored[:k]]
        assert [r for r, _ in got] == [r for r, _ in expected]
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert got_score == pytest.approx(want_score, abs=1e-12)


def test_search_keeps_ties_at_the_cutoff():
    small = HashingEmbedder(dim=8)
    tied = small.embed("shared")
    rows = [("top", _NODE, "shared", tied)] + [
        (f"t{i}", _NODE, label, tied)
        for i, label in enumerate(["echo", "Delta", "bravo", "charlie", "alpha"])
    ] + [("far", _NODE, "zzzz", small.embed("zzzz"))]
    index = _index(rows, small)
    # six rows tie for first; the cut at k=3 falls inside the tie
    got = [e.text for e, _ in index.search("shared", k=3)]
    assert got == ["alpha", "bravo", "charlie"]


_SEARCH_BASES = ["shared", "alpha", "beta gamma", "married to", "zz", "q"]
_SEARCH_KINDS = (_NODE, _LABEL)
_SMALL = HashingEmbedder(dim=8)


# A query text that ``_ZeroQueryEmbedder`` embeds to the zero vector.
_ZERO_QUERY = "\x00"
_SEARCH_QUERIES = _SEARCH_BASES + ["abba", _ZERO_QUERY]


class _ZeroQueryEmbedder(HashingEmbedder):
    """An embedder that, as a custom one may, gives a query vector with no
    non-zero component."""

    def embed(self, text: str) -> np.ndarray:
        return np.zeros(self.dim) if text == _ZERO_QUERY else super().embed(text)


def _left_sum(vector: np.ndarray, query: np.ndarray) -> float:
    """A row's score as the index defines it: the query's non-zero
    components times the row's, added left to right in ascending component
    order; 0.0 when the query has none."""
    total = None
    for c in np.flatnonzero(query).tolist():
        term = float(vector[c]) * float(query[c])
        total = term if total is None else total + term
    return 0.0 if total is None else total


@st.composite
def _tied_rows(draw) -> list[tuple]:
    """Groups of ``(ref_id, kind, text, vector)`` rows sharing one vector
    under distinct labels; labels from a tiny alphabet, so canonical texts
    also collide across groups. Each row has its own ref_id, as each
    relationship label has one entry. The node rows come first."""
    labels = st.text(alphabet="abAB ", min_size=1, max_size=3).filter(str.strip)
    rows = []
    for base in draw(st.lists(st.sampled_from(_SEARCH_BASES), max_size=8)):
        vector = _SMALL.embed(base)
        for label in draw(st.lists(labels, min_size=1, max_size=4, unique=True)):
            kind = draw(st.sampled_from(_SEARCH_KINDS))
            rows.append((f"r{len(rows)}", kind, label, vector))
    return _nodes_first(rows)


def _check_ranking(index, tied_rows, query, k, rows, got, whole) -> None:
    """``got``, a search's top k among ``rows``, against scoring them all
    and sorting them all. ``whole``, the same search over more rows, must
    give each entry the same score to the bit."""
    entries = index_entries(index)
    qv = index.embedder.embed(query)
    scores = {i: _left_sum(tied_rows[i][3], qv) for i in rows}
    rows = sorted(rows, key=lambda i: (-scores[i], entries[i].canonical))
    assert [e for e, _ in got] == [entries[i] for i in rows[:k]]
    for (entry, score), i in zip(got, rows):
        assert score == pytest.approx(float(tied_rows[i][3] @ qv), abs=1e-12)
        assert score == scores[i]
        assert score == whole[entry]


@settings(max_examples=300, deadline=None)
@given(_tied_rows(), st.sampled_from(_SEARCH_QUERIES), st.data())
def test_search_matches_sorting_every_row(tied_rows, query, data):
    k = data.draw(st.integers(1, len(tied_rows) + 2), label="k")
    index = _index(tied_rows, _ZeroQueryEmbedder(dim=8))
    rows = [i for i, row in enumerate(tied_rows) if row[1] == _NODE]
    got = index.search(query, k)
    whole = dict(index.search(query, len(tied_rows) + 1))
    _check_ranking(index, tied_rows, query, k, rows, got, whole)


@settings(max_examples=300, deadline=None)
@given(_tied_rows(), st.sampled_from(_SEARCH_QUERIES), st.data())
def test_label_search_matches_sorting_every_row(tied_rows, query, data):
    index = _index(tied_rows, _ZeroQueryEmbedder(dim=8))
    label_rows = {row[0]: i for i, row in enumerate(tied_rows) if row[1] == _LABEL}
    labels = data.draw(st.lists(st.sampled_from(sorted(label_rows)), min_size=1, max_size=6)
                       if label_rows else st.just([]), label="labels")
    if data.draw(st.integers(0, 3), label="stray") == 0:
        # A node's id is not a label: the search refuses it as it refuses "unknown".
        stray = data.draw(st.sampled_from([row[0] for row in tied_rows] + ["unknown"]))
        labels.insert(data.draw(st.integers(0, len(labels)), label="at"), stray)
    k = data.draw(st.integers(1, len(set(labels)) + 1), label="k")
    if not set(labels) <= label_rows.keys():
        with pytest.raises(StaleIndexError, match="no index entry for relationship label"):
            index.search(query, k, labels=labels)
        return
    got = index.search(query, k, labels=labels)
    whole = dict(index.search(query, len(tied_rows) + 1, labels=label_rows))
    rows = sorted({label_rows[label] for label in labels})
    _check_ranking(index, tied_rows, query, k, rows, got, whole)


# Signed zeros, negative weights, exact cancellations (0.5 - 0.5), and
# values whose products underflow to a zero of either sign.
_SIGNED_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 1e-300, -1e-300]),
    st.floats(-1.0, 1.0))


class _TableEmbedder:
    """Embeds every text to one given query vector."""

    def __init__(self, query: np.ndarray):
        self.query, self.dim = query, len(query)

    def embed(self, text: str) -> np.ndarray:
        return self.query


def _bits(score: float) -> bytes:
    return np.float64(score).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data())
def test_scores_are_the_left_sum_to_the_bit(dim, data):
    """Node and label search, on a built index and on its saved and loaded
    copy, against ``_left_sum`` and sorting every row: each score has the
    left sum's bits, but that a zero sum is +0.0 on every path."""
    vectors = st.lists(_SIGNED_VALUES, min_size=dim, max_size=dim).map(np.array)
    rows = []
    for i in range(data.draw(st.integers(1, 10), label="rows")):
        vector = data.draw(vectors, label="vector")
        # One large component, so the row normalizes to a unit vector.
        vector[data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from([1.0, -1.0]))
        kind = data.draw(st.sampled_from(_SEARCH_KINDS), label="kind")
        text = data.draw(st.text(alphabet="abAB ", min_size=1, max_size=3).filter(str.strip))
        rows.append((f"r{i}", kind, text, vector / np.linalg.norm(vector)))
    rows = _nodes_first(rows)
    query = data.draw(vectors, label="query")
    embedder = _TableEmbedder(query)
    built = _index(rows, embedder)
    saved = io.BytesIO()
    save_index(built, saved)
    loaded = load_index(io.BytesIO(saved.getvalue()), embedder)

    def ranked(among: list[int]) -> list[tuple[str, bytes]]:
        scores = {i: _left_sum(rows[i][3], query) + 0.0 for i in among}
        order = sorted(among, key=lambda i: (-scores[i], normalize_label(rows[i][2])))
        return [(rows[i][0], _bits(scores[i])) for i in order]

    def searched(index, k, labels=None) -> list[tuple[str, bytes]]:
        return [(entry.ref_id, _bits(score)) for entry, score in index.search("q", k, labels)]

    nodes = [i for i, row in enumerate(rows) if row[1] == _NODE]
    labels = [i for i, row in enumerate(rows) if row[1] == _LABEL]
    k = data.draw(st.integers(1, len(rows)), label="k")
    wanted = data.draw(st.lists(st.sampled_from(labels), min_size=1) if labels
                       else st.just([]), label="wanted")
    for index in (built, loaded):
        assert searched(index, len(rows)) == ranked(nodes)
        assert searched(index, k) == ranked(nodes)[:k]
        assert searched(index, k, [rows[i][0] for i in wanted]) == ranked(sorted(set(wanted)))[:k]


def test_label_search_ranks_only_the_given_labels():
    index = index_graph(sample_graph(), EMBEDDER)
    got = index.search("created", k=10, labels=["in", "created"])
    assert [e.text for e, _ in got] == ["created", "in"]
    assert index.search("created", k=10, labels=["in", "in"]) == got[1:]
    assert index.search("created", k=10, labels=[]) == []
    node_id = index.ref_ids[0]
    with pytest.raises(StaleIndexError, match=repr(node_id)):
        index.search("created", k=10, labels=[node_id])
    with pytest.raises(StaleIndexError, match="'is created of'"):
        index.search("created", k=10, labels=["created", "is created of"])


def test_label_search_ties_keep_entry_order():
    small = HashingEmbedder(dim=8)
    vector = small.embed("same")
    texts = ["same", "SAME", "Same", "sAme", "saMe", "samE"] * 3
    index = _index([(f"r{i}", _LABEL, text, vector) for i, text in enumerate(texts)],
                   small)
    # Rows 16 and 14 lie in a Python set in that order.
    for rows in (list(reversed(range(6))), [16, 14], [17, 9, 1]):
        got = index.search("same", k=6, labels=[f"r{i}" for i in rows])
        assert [e.ref_id for e, _ in got] == [f"r{i}" for i in sorted(rows)]


def test_index_refuses_a_second_entry_for_one_label():
    """A node may share a label's id, and a label its text; two labels may
    not share an id."""
    rows = [(ref_id, kind, text, _SMALL.embed(text))
            for ref_id, kind, text in [("in", _NODE, "in"), ("in", _LABEL, "in"),
                                       ("in", _LABEL, "IN")]]
    with pytest.raises(ValueError, match="entry 3: second entry for relationship label 'in'"):
        _index(rows, _SMALL)
    assert len(_index(rows[:2], _SMALL)) == 2


def test_index_refuses_a_matrix_without_one_row_per_entry():
    """The tests' dense builder refuses a matrix whose rows are not the
    entries'."""
    for matrix in (np.zeros((3, 8)), np.zeros((0, 8)), np.zeros(2), np.zeros((2, 8, 1))):
        with pytest.raises(ValueError, match="matrix of shape"):
            index_from_matrix(["a", "b"], ["a", "b"], 2, matrix, _SMALL)


def test_index_searches_the_matrix_it_was_given():
    matrix = np.stack([_SMALL.embed("alpha"), _SMALL.embed("beta")])
    for given in (matrix, np.asfortranarray(matrix)):
        index = index_from_matrix(["a", "b"], ["alpha", "beta"], 2, given, _SMALL)
        assert index_matrix(index).tobytes() == matrix.tobytes()
        assert [e.ref_id for e, _ in index.search("beta", k=1)] == ["b"]


def test_search_refuses_a_query_of_another_width():
    index = index_graph(sample_graph(), HashingEmbedder(dim=8))
    other = EmbeddingIndex(index.ref_ids, index.texts, index.nodes, index.dim, *index.stored(),
                           HashingEmbedder(dim=4))
    with pytest.raises(StaleIndexError, match=r"shape \(4,\) .* dim 8"):
        other.search("Family Guy", k=3)
    with pytest.raises(StaleIndexError):
        other.search("created", k=3, labels=["created"])


def test_empty_index_searches_empty():
    index = index_from_matrix([], [], 0, np.zeros((0, DEFAULT_DIM)), EMBEDDER)
    assert index.search("anything", k=5) == []
    assert index.search("anything", k=5, labels=[]) == []
    assert len(index) == 0


def test_empty_graph_and_empty_file_give_empty_indexes(tmp_path):
    index = index_graph(KnowledgeGraph(), EMBEDDER)
    assert len(index) == 0 and index_matrix(index).shape[0] == 0
    assert index.search("anything", k=5) == []
    path = tmp_path / "index.bin"
    save_index(index, path)
    assert path.read_bytes() == b""
    loaded = load_index(path, EMBEDDER)
    assert len(loaded) == 0 and index_matrix(loaded).shape[0] == 0
    assert loaded.search("anything", k=5) == []


# ------------------------------------------------------------ persistence

def test_save_load_roundtrip(tmp_path):
    index = index_graph(sample_graph(), EMBEDDER)
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded = load_index(path, EMBEDDER)
    assert len(loaded) == len(index)
    assert loaded.nodes == index.nodes == 4
    assert index_entries(loaded) == index_entries(index)
    assert np.allclose(index_matrix(index), index_matrix(loaded))
    query = "Family Guy"
    assert [(e.ref_id, pytest.approx(s)) for e, s in index.search(query, 5)] == \
        [(e.ref_id, s) for e, s in loaded.search(query, 5)]


def test_a_loaded_index_keeps_its_node_count(tmp_path):
    """A loaded index has the entries and the node count of the index it
    was saved from; its file and its searches, of nodes and of labels, are
    that index's."""
    index = index_graph(sample_graph(), EMBEDDER)
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded = load_index(path, EMBEDDER)
    assert (loaded.ref_ids, loaded.texts, loaded.nodes) == (index.ref_ids, index.texts, 4)
    again = io.BytesIO()
    save_index(loaded, again)
    assert again.getvalue() == path.read_bytes()
    for query in ("Family Guy", "created", "Seth"):
        assert loaded.search(query, 5) == index.search(query, 5)
        assert loaded.search(query, 5, labels=index.ref_ids[4:]) == \
            index.search(query, 5, labels=index.ref_ids[4:])


def _width(bound: int) -> np.dtype:
    """The narrowest little-endian unsigned integer that holds ``bound``."""
    return np.dtype(f"<u{next(n for n in (1, 2, 4, 8) if bound < 256 ** n)}")


def _read_saved(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the arrays of a saved index by name, each array's
    width and length taken from the header, and the values decoded from the
    table when there is one."""
    line, rest = data.split(b"\n", 1)
    header = json.loads(line)
    dim, size, table = header["dim"], header["size"], header["table"]
    layout = [("sizes", _width(min(dim, size)), len(header["ids"])),
              ("columns", _width(dim - 1), size)]
    layout += ([("values", np.dtype("<f8"), size)] if table is None else
               [("table", np.dtype("<u8"), table), ("codes", _width(max(table - 1, 0)), size)])
    arrays, at = {}, 0
    for name, dtype, count in layout:
        arrays[name] = np.frombuffer(rest, dtype, count, at)
        at += arrays[name].nbytes
    assert len(rest) == at
    if table is not None:
        arrays["values"] = arrays["table"].view("<f8")[arrays["codes"]]
    return header, arrays


def test_saved_rows_are_sparse():
    index = index_graph(sample_graph(), EMBEDDER)
    buffer = io.BytesIO()
    save_index(index, buffer)
    header, arrays = _read_saved(buffer.getvalue())
    assert list(header) == ["dim", "embedder", "format", "ids", "nodes", "size", "table",
                            "texts"]
    assert header["dim"] == DEFAULT_DIM and header["format"] == INDEX_FORMAT
    assert header["embedder"] == "hashing/256" == EMBEDDER.identity
    entries = index_entries(index)
    assert header["ids"] == [e.ref_id for e in entries]
    assert header["nodes"] == index.nodes == 4
    assert header["texts"] == [e.text for e in entries]
    sizes, columns, values = arrays["sizes"], arrays["columns"], arrays["values"]
    assert header["size"] == len(columns) == sum(sizes)
    # Fewer than 256 stored components: a row size takes one byte, as a
    # column does at 256 components.
    assert header["size"] < 256
    assert [arrays[name].dtype.str for name in ("sizes", "columns", "codes")] == ["|u1"] * 3
    table = arrays["table"]
    assert header["table"] == len(table) and np.all(table[1:] > table[:-1])
    offsets = [0, *np.cumsum(sizes).tolist()]
    for lo, hi, vector in zip(offsets, offsets[1:], index_matrix(index)):
        assert columns[lo:hi].tolist() == np.flatnonzero(vector).tolist()
        assert values[lo:hi].tobytes() == vector[columns[lo:hi]].tobytes()


_UNIT_VECTOR_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


@st.composite
def _unit_rows(draw) -> tuple[int, list[tuple]]:
    dim = draw(st.integers(1, 12))
    rows = []
    for i in range(draw(st.integers(0, 6))):
        vector = np.array(draw(st.lists(_UNIT_VECTOR_COMPONENTS, min_size=dim,
                                        max_size=dim)))
        norm = np.linalg.norm(vector)
        assume(norm > 1e-6)
        kind = draw(st.sampled_from(_SEARCH_KINDS))
        text = draw(st.text(min_size=1, max_size=6).filter(str.strip))
        rows.append((f"id{i}", kind, text, vector / norm))
    return dim, _nodes_first(rows)


@settings(max_examples=200, deadline=None)
@given(_unit_rows())
def test_save_load_reproduces_rows_and_matrix(dim_and_rows):
    dim, rows = dim_and_rows
    embedder = HashingEmbedder(dim=dim)
    index = _index(rows, embedder)
    entries = index_entries(index)
    first = io.BytesIO()
    save_index(index, first)
    loaded = load_index(io.BytesIO(first.getvalue()), embedder)
    assert index_entries(loaded) == entries
    assert loaded.nodes == index.nodes
    if entries:
        # Bytes, not ``np.array_equal``, so that -0.0 and 0.0 differ.
        assert index_matrix(loaded).tobytes() == index_matrix(index).tobytes()
    again = io.BytesIO()
    save_index(loaded, again)
    assert again.getvalue() == first.getvalue()


def test_load_reproduces_the_built_matrix_bit_for_bit(tmp_path):
    index = index_graph(sample_graph(), EMBEDDER)
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded = load_index(path, EMBEDDER)
    assert index_matrix(loaded).shape == index_matrix(index).shape
    assert index_matrix(loaded).tobytes() == index_matrix(index).tobytes()


def _traced(build):
    """What ``build()`` returns, the bytes it leaves allocated, and the
    most bytes it held at once."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        return result, current - before, peak - before
    finally:
        tracemalloc.stop()


def test_index_holds_each_vector_once(tmp_path):
    """Built or loaded, the index holds each stored value once: what it
    retains, its entry lists and their strings aside, stays well under two
    copies of its inverted files, a value and a position per stored
    component, plus one small array object per column of each. Building
    never holds a dense ``n × dim`` matrix."""
    graph = KnowledgeGraph()
    for i in range(1000):
        graph.upsert_triple(parse_triple(f"(entity {i})-[relation {i % 50}]->(value {i})"))
    index, built, built_peak = _traced(lambda: index_graph(graph, EMBEDDER))
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded, read, _ = _traced(lambda: load_index(path, EMBEDDER))
    matrix = index_matrix(loaded)
    assert matrix.shape == (2050, DEFAULT_DIM)
    assert matrix.tobytes() == index_matrix(index).tobytes()
    one_copy = 16 * np.count_nonzero(matrix)
    # Each stored column of the node and of the label inverted file is a
    # view of its positions and one of its values: at most 4 × dim views.
    views = 4 * DEFAULT_DIM * sys.getsizeof(np.zeros(2)[:1])
    lists = (loaded.ref_ids, loaded.texts)
    list_bytes = sum(map(sys.getsizeof, lists))
    # The built index shares its strings with the graph; the loaded one
    # decoded its own.
    string_bytes = sum(sys.getsizeof(text) for strings in lists for text in strings)
    assert built - list_bytes < 1.5 * one_copy + views
    assert read - list_bytes - string_bytes < 1.5 * one_copy + views
    assert built_peak < matrix.nbytes


def test_index_graph_embeds_in_the_same_batches():
    graph = KnowledgeGraph()
    for i in range(150):
        graph.upsert_triple(parse_triple(f"(entity {i})-[relation {i % 7}]->(value {i})"))
    sizes = []

    class Recording(HashingEmbedder):
        def embed_batch(self, texts):
            sizes.append(len(texts))
            return super().embed_batch(texts)

    index = index_graph(graph, Recording())
    assert sizes == [128, 128, 51]
    assert index_matrix(index).tobytes() == EMBEDDER.embed_batch(index.texts).tobytes()


def test_save_load_keeps_negative_zero():
    embedder = HashingEmbedder(dim=3)
    index = _index([("a", _NODE, "a", np.array([-0.0, 1.0, 0.0]))], embedder)
    buffer = io.BytesIO()
    save_index(index, buffer)
    _, arrays = _read_saved(buffer.getvalue())
    assert arrays["columns"].tolist() == [0, 1]
    vector = index_matrix(load_index(io.BytesIO(buffer.getvalue()), embedder))[0]
    assert np.signbit(vector).tolist() == [True, False, False]


def _row(ref_id="x", kind=_NODE, text="a", columns=(0,), values=(1.0,)) -> tuple:
    return ref_id, kind, text, list(columns), list(values)


def _index_file(rows: list[tuple], header: dict | None = None, arrays: dict | None = None,
                tail: bytes = b"", table: bool = False) -> bytes:
    """An index file at dim 2 holding ``rows`` of :func:`_row`, its
    ``nodes`` the number of node rows, with raw values or, with ``table``,
    a table of the distinct values and codes.
    ``header`` fields and whole ``arrays`` (by name, as an array, written
    as its own bytes whatever its dtype, or as raw bytes) replace the ones
    built from the rows; an array's width follows the header's ``dim``,
    ``size`` and ``table``. ``tail`` follows the arrays."""
    values = np.array([v for row in rows for v in row[4]], dtype="<f8")
    patterns = np.unique(values.view("<u8"))
    fields = {"dim": 2, "embedder": None, "format": INDEX_FORMAT,
              "ids": [row[0] for row in rows], "nodes": [row[1] for row in rows].count(_NODE),
              "size": len(values), "table": len(patterns) if table else None,
              "texts": [row[2] for row in rows], **(header or {})}

    def count(name: str, default: int) -> int:
        value = fields[name]
        return value if type(value) is int and 0 <= value < 2 ** 64 else default

    dim, size = max(count("dim", 2), 1), count("size", len(values))
    built = {"sizes": np.array([len(row[3]) for row in rows]).astype(_width(min(dim, size))),
             "columns": np.array([c for row in rows for c in row[3]], dtype=np.int64)
             .astype(_width(dim - 1))}
    if table:
        built["table"] = patterns.astype("<u8")
        built["codes"] = np.searchsorted(patterns, values.view("<u8")).astype(
            _width(max(count("table", len(patterns)) - 1, 0)))
    else:
        built["values"] = values
    built.update(arrays or {})
    names = ["sizes", "columns"] + (["table", "codes"] if table else ["values"])
    data = b"".join(built[name] if isinstance(built[name], bytes) else built[name].tobytes()
                    for name in names)
    return json.dumps(fields).encode("utf-8") + b"\n" + data + tail


def _around(bad: tuple = _row(), **changes) -> bytes:
    """An index file whose entry 2 of 3 is ``bad``, between two good ones."""
    return _index_file([_row("g1"), bad, _row("g2", columns=[1])], **changes)


def _load_bytes(data: bytes, dim: int = 2) -> EmbeddingIndex:
    return load_index(io.BytesIO(data), HashingEmbedder(dim=dim))


def test_hand_built_index_files_load():
    for table in (False, True):
        index = _load_bytes(_around(table=table))
        assert [e.ref_id for e in index_entries(index)] == ["g1", "x", "g2"]
        assert index_matrix(index).tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        saved = io.BytesIO()
        save_index(index, saved)
        assert index_matrix(_load_bytes(saved.getvalue())).tobytes() == \
            index_matrix(index).tobytes()


def test_load_rejects_bad_lines():
    with pytest.raises(IndexFormatError, match="header is not JSON") as exc_info:
        _load_bytes(b"not json\n")
    assert exc_info.value.entry is None


def test_load_rejects_non_unit_vector():
    with pytest.raises(IndexFormatError, match="unit") as exc_info:
        _load_bytes(_index_file([_row(columns=[0, 1], values=[1.0, 1.0])]))
    assert exc_info.value.entry == 1


def test_load_refuses_a_second_entry_for_one_label():
    label = _row("in", kind=_LABEL)
    with pytest.raises(IndexFormatError,
                       match="second entry for relationship label 'in'") as exc_info:
        _load_bytes(_index_file([_row("g1"), label, label]))
    assert exc_info.value.entry == 3
    assert len(_load_bytes(_index_file([_row("in"), label]))) == 2


def test_load_splits_the_entries_at_nodes():
    """The first ``nodes`` entries are searched as nodes and the rest as
    labels, for any count from none to all of them; one more is refused."""
    rows = [_row("a"), _row("b", columns=[1]), _row("c")]
    for nodes in range(len(rows) + 1):
        index = _load_bytes(_index_file(rows, header={"nodes": nodes}))
        assert index.nodes == nodes
        assert {e.ref_id for e, _ in index.search("a", k=3)} == set("abc"[:nodes])
        labels = list("abc"[nodes:])
        assert {e.ref_id for e, _ in index.search("a", k=3, labels=labels)} == set(labels)
        if nodes:
            with pytest.raises(StaleIndexError, match="no index entry for relationship label"):
                index.search("a", k=3, labels=["a"])
    with pytest.raises(IndexFormatError, match="^nodes 4 is more than the 3 entries$") as exc_info:
        _load_bytes(_index_file(rows, header={"nodes": 4}))
    assert exc_info.value.entry is None


def test_load_rejects_missing_field():
    complete = _index_file([_row()])
    header = json.loads(complete.split(b"\n", 1)[0])
    for field, message in [("dim", "dim None"), ("ids", "ids is not a list"),
                           ("nodes", "nodes None is not a count"),
                           ("texts", "texts is not a list"),
                           ("size", "size None is not a count"),
                           ("table", "table None is not a count"),
                           ("format", "older index format")]:
        line = json.dumps({k: v for k, v in header.items() if k != field}).encode("utf-8")
        with pytest.raises(IndexFormatError, match=message):
            _load_bytes(line + b"\n" + complete.split(b"\n", 1)[1])
    with pytest.raises(IndexFormatError, match="values array is truncated"):
        _load_bytes(complete[:-8])
    # A header that names no embedder is an index of an unknown one.
    line = json.dumps({k: v for k, v in header.items() if k != "embedder"}).encode("utf-8")
    assert len(_load_bytes(line + b"\n" + complete.split(b"\n", 1)[1])) == 1


_DENSE = b'{"kind": "node", "ref_id": "y", "text": "b", "vector": [0.0, 1.0]}\n'


# The counterparts of the faults a JSONL row could have. A fault in one
# entry's data names entry 2; one in the header or a whole array names none.
# The header fixes each array's width, so an array written in another is
# only bytes of another length, refused as trailing or truncated; a
# negative column, written unsigned, is one past the last.
@pytest.mark.parametrize("data, message, entry", [
    (_DENSE, "older index format", None),
    (_around(_row(columns=[1, 0], values=[0.6, 0.8])), "rise strictly", 2),
    (_around(_row(columns=[1, 1], values=[0.6, 0.8])), "rise strictly", 2),
    (_around(_row(columns=[2])), "outside", 2),
    (_around(_row(columns=[-1])), "outside", 2),
    (_around(arrays={"values": np.ones(4)}), "^8 trailing byte\\(s\\) after the arrays$", None),
    (_around(_row(values=[float("inf")])), "finite", 2),
    (_around(_row(values=[float("nan")])), "finite", 2),
    (_around(_row(columns=[0, 1], values=[0.6, 0.6])), "unit", 2),
    (_around(header={"dim": 3}), "index dim 3 does not match the embedder's dim 2", None),
    (_around(header={"dim": 0}), "positive", None),
    (_around(header={"dim": 2.0}), "positive", None),
    (_around(arrays={"columns": np.array([0.0, 0.0, 1.0])}), "^21 trailing byte", None),
    (_around(arrays={"columns": np.array([False, True])}), "values array is truncated", None),
    (_around(arrays={"columns": np.array([0, 2 ** 40, 1])}), "^21 trailing byte", None),
    (_around(arrays={"values": np.array(["1.0"] * 3)}), "^12 trailing byte", None),
    # A null (zero) vector has no unit norm.
    (_around(_row(values=[0.0])), "unit", 2),
    # The square of a value past 1e154 is infinite, so its norm is too.
    (_around(_row(values=[1e300])), "unit", 2),
    (b'["a", "list"]\n', "object", None),
    (_around(_row(values=[float("inf")]), table=True), "finite", 2),
    (_around(_row(columns=[0, 1], values=[0.6, 0.6]), table=True), "unit", 2),
    (_around(_row(values=[0.5]), table=True, arrays={"codes": np.array([1, 2, 1], "u1")}),
     "value code outside the table", 2),
    (_around(_row(values=[0.5]), table=True, arrays={"codes": np.array([1, 0, 255], "u1")}),
     "value code outside the table", 3),
    (_around(_row(columns=[2]), table=True), "outside", 2),
], ids=["dense", "unsorted", "duplicate", "above-dim", "negative", "length-mismatch",
        "infinite", "nan", "non-unit", "mixed-dim", "zero-dim", "float-dim",
        "float-index", "bool-index", "huge-index", "string-value", "null-value",
        "huge-value", "not-object", "table-infinite", "table-non-unit", "code-past-table",
        "code-far-past-table", "table-above-dim"])
def test_load_refuses_bad_row_at_its_line(data, message, entry):
    with pytest.raises(IndexFormatError, match=message) as exc_info:
        _load_bytes(data)
    assert exc_info.value.entry == entry
    assert str(exc_info.value).startswith("entry ") == (entry is not None)
    assert str(exc_info.value).startswith(f"entry {entry}: ") == (entry is not None)


def _utf16_header(data: bytes) -> bytes:
    """``data`` with its header line in UTF-16, which ``json.loads`` reads
    from bytes as readily as UTF-8."""
    header, arrays = data.split(b"\n", 1)
    return (header + b"\n").decode("utf-8").encode("utf-16-be") + arrays


def _with_entry_2(ref_id="x", text="a") -> dict:
    return {"ids": ["g1", ref_id, "g2"], "texts": ["a", text, "a"]}


def _without(field: str) -> bytes:
    """A good index file whose header lacks ``field``."""
    line, arrays = _around().split(b"\n", 1)
    header = json.loads(line)
    del header[field]
    return json.dumps(header).encode("utf-8") + b"\n" + arrays


@pytest.mark.parametrize("data, message, entry", [
    (b"\xff\xfe not UTF-8\n", "header is not UTF-8", None),
    # UTF-16 of ASCII is UTF-8 too, with a NUL byte before each character.
    (_utf16_header(_around()), "header is not JSON", None),
    (b'{"dim": 2, "indices": [0], "kind": "node", "ref_id": "x", "text": "a", '
     b'"values": [1.0]}\n', "older index format \\(run index again\\)", None),
    (_around(header={"format": "kgrag-index/1"}), "unknown index format 'kgrag-index/1'", None),
    (_around(header={"format": "kgrag-index/4"}),
     "unknown index format 'kgrag-index/4' \\(run index again\\)$", None),
    (_around(header={"dim": True}), "positive", None),
    (_around(header={"dim": "2"}), "positive", None),
    (_around(header={"ids": {"x": 1}}), "ids is not a list", None),
    (_around(header=_with_entry_2(ref_id=7)), "id or text is not a string", 2),
    (_around(header=_with_entry_2(text=None)), "id or text is not a string", 2),
    (_around(header={"texts": ["a", "a"]}), "^3 ids and 2 texts$", None),
    (_around(header={"texts": ["a", "a", "a", "b"]}), "^3 ids and 4 texts$", None),
    (_around(header={"ids": "g1 x g2"}), "^ids is not a list$", None),
    (_without("nodes"), "^nodes None is not a count$", None),
    (_around(header={"nodes": -1}), "^nodes -1 is not a count$", None),
    (_around(header={"nodes": True}), "^nodes True is not a count$", None),
    (_around(header={"nodes": 2.0}), "^nodes 2.0 is not a count$", None),
    (_around(header={"nodes": "3"}), "^nodes '3' is not a count$", None),
    (_around(header={"nodes": 4}), "^nodes 4 is more than the 3 entries$", None),
    (b"[" * 100_000 + b"\n", "header is not JSON", None),
    (_around(header={"format": "kgrag-index/2"}),
     "unknown index format 'kgrag-index/2' \\(run index again\\)$", None),
    (_around(header={"embedder": 2}), "embedder 2 is not a string", None),
    (_around(header={"embedder": "hashing/3"}),
     "^index embedder 'hashing/3' does not match the embedder 'hashing/2' "
     "\\(run index again\\)$", None),
    (_around(header={"size": -1}), "size -1 is not a count", None),
    (_around(header={"size": True}), "size True is not a count", None),
    (_around(header={"table": 1.5}), "table 1.5 is not a count", None),
    (_around(header={"texts": "aaa"}), "texts is not a list", None),
], ids=["not-utf8", "utf16", "older-sparse", "unknown-format", "previous-format",
        "bool-dim", "string-dim", "entries-not-list", "number-ref-id", "null-text",
        "two-strings", "four-strings", "string-entry", "missing-nodes", "negative-nodes",
        "bool-nodes", "float-nodes", "string-nodes", "nodes-above-entries", "deep-nesting",
        "format-2", "number-embedder", "other-embedder", "negative-size", "bool-size",
        "float-table", "string-texts"])
def test_load_refuses_a_bad_header(data, message, entry):
    with pytest.raises(IndexFormatError, match=message) as exc_info:
        _load_bytes(data)
    assert exc_info.value.entry == entry


_COLUMNS = np.array([0, 0, 1], dtype="<u1")
_GOOD_FILE = _around()
_VALUES_AT = len(_GOOD_FILE) - 3 * 8
_COLUMNS_AT = _VALUES_AT - 3
_TABLE_FILE = _around(_row(values=[-1.0]), table=True)
_CODES_AT = len(_TABLE_FILE) - 3


# The ids name the /3 faults whose counterparts these are: row sizes stand
# where the offsets stood.
@pytest.mark.parametrize("data, message", [
    (_around(arrays={"sizes": np.array([2, 1, 1], "u1")}), "^row sizes do not add up to 3$"),
    (_around(arrays={"sizes": np.array([1, 255, 1], "u1")}), "row sizes do not add up"),
    # 254 + 2 + 3 wraps around to 3 in one byte.
    (_around(arrays={"sizes": np.array([254, 2, 3], "u1")}), "row sizes do not add up"),
    # Two sizes for three entries: every later array starts a byte early.
    (_around(arrays={"sizes": np.array([1, 1], "u1")}), "values array is truncated"),
    (_around(arrays={"sizes": np.array([1, 1, 2], "u1")}), "row sizes do not add up"),
    (_around(arrays={"columns": np.array([0, 0, 1, 1], dtype="<u1")}), "^1 trailing byte"),
    (_around(arrays={"columns": _COLUMNS.tobytes()[:-1]}), "values array is truncated"),
    (_GOOD_FILE[:_GOOD_FILE.index(b"\n") + 1], "sizes array is truncated"),
    (_GOOD_FILE[:_COLUMNS_AT - 1], "sizes array is truncated"),
    (_GOOD_FILE[:_COLUMNS_AT + 2], "columns array is truncated"),
    # The next two are cut 4 bytes into the values and where they start.
    (_GOOD_FILE[:_VALUES_AT + 4], "values array is truncated"),
    (_GOOD_FILE[:_VALUES_AT], "values array is truncated"),
    (_GOOD_FILE[:-1], "values array is truncated"),
    (_GOOD_FILE[:-8], "values array is truncated"),
    (_around(tail=b"\0"), "^1 trailing byte\\(s\\) after the arrays$"),
    (_around(tail=_COLUMNS.tobytes()), "^3 trailing byte"),
    (_TABLE_FILE[:_CODES_AT - 1], "value table is truncated"),
    (_TABLE_FILE[:-1], "values array is truncated"),
    (_around(table=True, header={"table": 2}, arrays={"table": np.array([2, 1], "<u8")}),
     "^value table does not rise strictly$"),
    (_around(table=True, header={"table": 2},
             arrays={"table": np.ones(2, "<f8").view("<u8")}), "value table does not rise"),
    (_around(table=True, header={"table": 2}), "value table is truncated"),
    (_around(header={"size": 10 ** 30}), "columns array is truncated"),
    (_around(header={"table": 10 ** 30}), "value table is truncated"),
], ids=["offsets-not-from-0", "offsets-falling", "offsets-wrapping", "offsets-short",
        "offsets-end", "columns-overlong", "columns-short", "no-arrays", "offsets-cut",
        "columns-cut", "cut-in-magic", "cut-in-header", "values-short", "values-missing-item",
        "trailing-byte", "trailing-array", "table-cut", "codes-cut", "table-falling",
        "table-repeated", "table-short", "huge-size", "huge-table"])
def test_load_refuses_a_bad_array(data, message):
    with pytest.raises(IndexFormatError, match=message) as exc_info:
        _load_bytes(data)
    assert exc_info.value.entry is None


def test_load_refuses_dim_unlike_the_embedders(tmp_path):
    path = tmp_path / "index.bin"
    path.write_bytes(_index_file([_row("a"), _row("b", columns=[1])]))
    with pytest.raises(IndexFormatError, match="dim 2 .* embedder's dim 256") as exc_info:
        load_index(path, HashingEmbedder())
    assert exc_info.value.entry is None
    assert "\n" not in str(exc_info.value)
    # An embedder whose dim is not known yet takes the index's.
    http = HttpEmbeddingProvider("http://127.0.0.1:9/unused")
    assert len(load_index(path, http)) == 2
    assert http.dim is None


@pytest.mark.parametrize("dim", [10 ** 13, 2 ** 62, 2 ** 63, 10 ** 30])
def test_load_refuses_a_dim_too_large_to_hold(dim):
    """With an embedder of unknown width only an allocation of ``dim``
    counts, one per component, can refuse a huge ``dim``: 10**13 of them
    are 80 TB, and 2**62 do not fit a 64-bit size. From 2**63 on, a column
    would not fit a signed 64-bit integer, and the header is refused."""
    data = _index_file([_row("g1"), _row("g2"), _row("g3"), _row("g4")],
                       header={"dim": dim})
    http = HttpEmbeddingProvider("http://127.0.0.1:9/unused")
    with pytest.raises(IndexFormatError, match=f"^dim {dim} is too large") as exc_info:
        load_index(io.BytesIO(data), http)
    assert exc_info.value.entry is None


def test_a_large_dim_holds_nothing_per_component():
    """An index keeps no object per component: three entries at ``dim``
    10**6 load holding less than their dense matrix would, and search."""
    dim = 10 ** 6
    rows = [_row("g1"), _row("g2", columns=[dim - 1]),
            _row("in", kind=_LABEL, text="in", columns=[5])]
    data = _index_file(rows, header={"dim": dim})
    index, held, _ = _traced(lambda: load_index(io.BytesIO(data), HashingEmbedder(dim)))
    assert held < 3 * dim * 8
    assert index_matrix(index)[:, [0, 5, dim - 1]].tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert [e.ref_id for e, _ in index.search("a", k=2)] == ["g1", "g2"]
    assert [e.ref_id for e, _ in index.search("a", k=1, labels=["in"])] == ["in"]


def _dense(index: EmbeddingIndex, seed: int = 0) -> EmbeddingIndex:
    """``index``'s entries with its vectors turned by a seeded random
    rotation: dense unit rows of many distinct values, as from an HTTP
    embedder."""
    rotation = np.linalg.qr(np.random.default_rng(seed).standard_normal((index.dim,) * 2))[0]
    return index_from_matrix(index.ref_ids, index.texts, index.nodes,
                             index_matrix(index) @ rotation, index.embedder)


def _small_saved_index(dense: bool = False) -> tuple[bytes, HashingEmbedder]:
    """The sample graph's index at dim 8, its values in a table or, when
    ``dense``, rotated and raw."""
    embedder = HashingEmbedder(dim=8)
    index = index_graph(sample_graph(), embedder)
    buffer = io.BytesIO()
    save_index(_dense(index) if dense else index, buffer)
    assert (json.loads(buffer.getvalue().split(b"\n", 1)[0])["table"] is None) == dense
    return buffer.getvalue(), embedder


def _assert_sound(index: EmbeddingIndex, embedder: HashingEmbedder) -> None:
    """``index`` passes every check :func:`load_index` makes."""
    matrix, entries = index_matrix(index), index_entries(index)
    assert matrix.shape == (len(index), embedder.dim)
    assert all(type(f) is str for e in entries for f in (e.ref_id, e.text))
    assert 0 <= index.nodes <= len(index)
    assert np.isfinite(matrix).all()
    assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0, rtol=0, atol=1e-6)


def test_every_truncation_is_refused():
    """In both layouts: the value table and codes, and raw values."""
    for dense in (False, True):
        data, embedder = _small_saved_index(dense)
        assert len(load_index(io.BytesIO(data), embedder)) == 7
        for cut in range(1, len(data)):
            with pytest.raises(IndexFormatError):
                load_index(io.BytesIO(data[:cut]), embedder)


_SMALL_SAVED = [_small_saved_index(dense) for dense in (False, True)]
_SMALL_EMBEDDER = _SMALL_SAVED[0][1]


# Twice the examples of one file, as there are two.
@settings(max_examples=800, deadline=None)
@given(st.sampled_from([data for data, _ in _SMALL_SAVED]), st.data(), st.integers(1, 255))
def test_a_flipped_byte_is_refused_or_loads_sound(saved, data, flip):
    flipped = bytearray(saved)
    flipped[data.draw(st.integers(0, len(saved) - 1), label="position")] ^= flip
    try:
        index = load_index(io.BytesIO(bytes(flipped)), _SMALL_EMBEDDER)
    except IndexFormatError:
        return
    _assert_sound(index, _SMALL_EMBEDDER)


_NEGATIVE_ZEROS = st.lists(st.integers(0, 7), max_size=3)


@st.composite
def _drawn_index(draw) -> EmbeddingIndex:
    """Hashing rows of drawn texts, or those rows densely rotated; either
    with some zero components drawn as -0.0. Any number of the entries,
    from none to all, are nodes."""
    embedder = HashingEmbedder(dim=draw(st.sampled_from([1, 2, 8, 16])))
    texts = draw(st.lists(st.text(alphabet="abcde ()-\u00e9", min_size=1, max_size=12)
                          .filter(str.strip), min_size=1, max_size=40))
    nodes = draw(st.integers(0, len(texts)), label="nodes")
    matrix = embedder.embed_batch(texts)
    if draw(st.booleans()):
        rotation = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 99)))
                                .standard_normal((embedder.dim,) * 2))[0]
        matrix = matrix @ rotation
    for row, column in zip(draw(_NEGATIVE_ZEROS), draw(_NEGATIVE_ZEROS)):
        if row < len(matrix) and column < embedder.dim and matrix[row, column] == 0.0:
            matrix[row, column] = -0.0
    return index_from_matrix([f"id{i}" for i in range(len(texts))], texts, nodes, matrix,
                             embedder)


@settings(max_examples=300, deadline=None)
@given(_drawn_index())
def test_save_load_save_is_byte_identical(index):
    """A saved index loads to the same stored components, to the bit, and
    saves to the same bytes. Its values take the table when that is the
    smaller of the two layouts."""
    first = io.BytesIO()
    save_index(index, first)
    loaded = load_index(io.BytesIO(first.getvalue()), index.embedder)
    assert (loaded.ref_ids, loaded.texts, loaded.nodes) == (index.ref_ids, index.texts,
                                                            index.nodes)
    for got, want in zip(loaded.stored(), index.stored()):
        assert got.tolist() == want.tolist()
    assert loaded.stored()[2].tobytes() == index.stored()[2].tobytes()
    again = io.BytesIO()
    save_index(loaded, again)
    assert again.getvalue() == first.getvalue()
    header, arrays = _read_saved(first.getvalue())
    values = index.stored()[2]
    distinct = len({value.tobytes() for value in values})
    table_bytes = 8 * distinct + _width(max(distinct - 1, 0)).itemsize * len(values)
    assert (header["table"] is not None) == (table_bytes < 8 * len(values))
    assert header["table"] in (None, distinct)


def test_a_dense_index_file_is_no_larger_than_at_format_3():
    """Dense rows take the raw values, and their file is no larger than at
    ``/3``; hashing rows take the table, at under half their ``/3`` size."""
    graph = KnowledgeGraph()
    for i in range(200):
        graph.upsert_triple(parse_triple(f"(entity {i})-[relation {i % 20}]->(value {i})"))
    hashing = index_graph(graph, EMBEDDER)
    for index, table, most in ((hashing, True, 0.5), (_dense(hashing), False, 1.0)):
        saved = io.BytesIO()
        save_index(index, saved)
        assert (_read_saved(saved.getvalue())[0]["table"] is not None) == table
        assert len(saved.getvalue()) <= most * len(older_index_file(index, "kgrag-index/3"))


def test_a_format_3_file_is_refused_with_run_index_again():
    index = index_graph(sample_graph(), EMBEDDER)
    with pytest.raises(IndexFormatError, match="^unknown index format 'kgrag-index/3' "
                                               "\\(run index again\\)$") as exc_info:
        load_index(io.BytesIO(older_index_file(index, "kgrag-index/3")), EMBEDDER)
    assert exc_info.value.entry is None


class _NamedEmbedder(HashingEmbedder):
    """Hashing vectors under another name."""

    identity = "another/256"


class _UnnamedEmbedder:
    """An embedder that names nothing, as a wrapper that passes on only
    ``dim`` does."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim

    def embed(self, text):
        return self.inner.embed(text)

    def embed_batch(self, texts):
        return self.inner.embed_batch(texts)


def test_the_header_names_the_embedder_and_load_checks_it():
    """A known name must match a known name; when either is unknown the
    index loads, and an unnamed embedder's index records null."""
    saved = {}
    for embedder in (EMBEDDER, _NamedEmbedder(), _UnnamedEmbedder(EMBEDDER)):
        buffer = io.BytesIO()
        save_index(index_graph(sample_graph(), embedder), buffer)
        saved[embedder] = buffer.getvalue()
        assert json.loads(buffer.getvalue().split(b"\n", 1)[0])["embedder"] == \
            getattr(embedder, "identity", None)
    hashing, named, unnamed = saved.values()
    assert len(load_index(io.BytesIO(hashing), EMBEDDER)) == 7
    with pytest.raises(IndexFormatError, match="^index embedder 'another/256' does not match "
                                               "the embedder 'hashing/256' "
                                               "\\(run index again\\)$") as exc_info:
        load_index(io.BytesIO(named), EMBEDDER)
    assert exc_info.value.entry is None
    with pytest.raises(IndexFormatError, match="'hashing/256' does not match the embedder "
                                               "'another/256'"):
        load_index(io.BytesIO(hashing), _NamedEmbedder())
    for data in (hashing, named, unnamed):
        assert len(load_index(io.BytesIO(data), _UnnamedEmbedder(EMBEDDER))) == 7
    for embedder in (EMBEDDER, _NamedEmbedder()):
        assert len(load_index(io.BytesIO(unnamed), embedder)) == 7


def test_an_http_embedder_is_named_by_its_endpoint_not_its_key():
    http = HttpEmbeddingProvider("http://127.0.0.1:9/embed", api_key="secret-key")
    assert http.identity == "http://127.0.0.1:9/embed"
    index = index_graph(sample_graph(), HashingEmbedder(dim=8))
    index.embedder = http
    buffer = io.BytesIO()
    save_index(index, buffer)
    assert json.loads(buffer.getvalue().split(b"\n", 1)[0])["embedder"] == http.identity
    assert b"secret-key" not in buffer.getvalue()
    assert len(load_index(io.BytesIO(buffer.getvalue()), http)) == 7
    with pytest.raises(IndexFormatError, match="^index embedder 'http://127.0.0.1:9/embed' "
                                               "does not match the embedder "
                                               "'http://127.0.0.1:9/other'"):
        load_index(io.BytesIO(buffer.getvalue()),
                   HttpEmbeddingProvider("http://127.0.0.1:9/other"))
    assert http.dim is None


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
            HttpEmbeddingProvider(url, sleep=lambda seconds: None).embed("x")

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


# JSON as Python's json module reads it: NaN and Infinity are accepted, and
# two values of 1e308 are finite but their norm overflows.
_NOT_FINITE = [b"[NaN, 1.0]", b"[Infinity, 1.0]", b"[-Infinity, 0.0]", b"[1e308, 1e308]"]


@pytest.mark.parametrize("bad", _NOT_FINITE)
def test_http_embedder_refuses_a_vector_that_is_not_finite(bad):
    body = b'{"vectors": [[1.0, 0.0], ' + bad + b']}'
    with stub_server(lambda payload, headers: (200, body)) as (url, captured):
        provider = HttpEmbeddingProvider(url, sleep=lambda seconds: None)
        with pytest.raises(ProviderError, match="norm is not finite"):
            provider.embed_batch(["fine", "bad"])
    assert len(captured) == 1
    assert provider.dim is None


def _fails_once(*failure):
    """A responder that sends ``failure`` to the first call and vectors after."""
    state = {"calls": 0}

    def responder(payload, headers):
        state["calls"] += 1
        if state["calls"] == 1:
            return failure
        return 200, {"vectors": [[1.0, 0.0] for _ in payload["texts"]]}

    return responder


@pytest.mark.parametrize("failure, delay", [
    ((503, {"error": "busy"}), RETRY_BASE_DELAY_S),
    ((429, {"error": "slow down"}, {"Retry-After": "3"}), 3.0),
])
def test_http_embedder_retries_a_transient_failure_after_a_wait(failure, delay):
    delays = []
    with stub_server(_fails_once(*failure)) as (url, captured):
        provider = HttpEmbeddingProvider(url, sleep=delays.append)
        assert np.array_equal(provider.embed("x"), [1.0, 0.0])
    assert len(captured) == 2
    assert delays == [delay]


def test_http_embedder_gives_up_like_the_chat_provider():
    delays = []
    with stub_server(lambda payload, headers: (503, {"error": "down"})) as (url, captured):
        with pytest.raises(ProviderError, match="after 2 attempts"):
            HttpEmbeddingProvider(url, sleep=delays.append).embed("x")
    assert len(captured) == 2
    assert delays == [RETRY_BASE_DELAY_S]
    with stub_server(lambda payload, headers: (400, {"error": "bad"})) as (url, captured):
        with pytest.raises(ProviderError, match="after 1 attempt:"):
            HttpEmbeddingProvider(url, sleep=delays.append).embed("x")
    assert len(captured) == 1
    assert delays == [RETRY_BASE_DELAY_S]
    with stub_server(lambda payload, headers: (200, {"vectors": [[1.0], [1.0, 2.0]]})) as (url, _):
        with pytest.raises(ProviderError, match="unreadable vectors"):
            HttpEmbeddingProvider(url).embed_batch(["x", "y"])


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
