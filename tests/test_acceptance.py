"""Acceptance gate: one test per core behavior guarantee.

Each test prints a single ``criterion N PASS``/``FAIL`` line so a
``pytest -s tests/test_acceptance.py`` run reads as a checklist. The
checks here are deliberately end to end and use independent oracles
rather than re-deriving expectations from package internals.
"""

from __future__ import annotations

import collections
import io
import json
import random
import string
import time
import unicodedata
from contextlib import contextmanager

import numpy as np

from kgrag import (
    FAILURE_MESSAGE,
    CoEngine,
    Entity,
    Failure,
    HashingEmbedder,
    IndexEntry,
    KnowledgeGraph,
    Paths,
    ScriptRule,
    ScriptedProvider,
    TraceRecorder,
    TripleStatement,
    TripleSyntaxError,
    evaluate_dataset,
    exact_match,
    extract_and_store,
    f1_score,
    format_paths,
    generate_answer,
    hallucination,
    index_graph,
    normalize_label,
    overlap_accuracy,
    parse_triple,
    save_graph,
    save_index,
    score_example,
    serialize_triple,
    statement_depth,
)
from coe_fixtures import (
    REFINE_ANSWER,
    REFINE_QUESTION,
    TAYLOR_ANSWER,
    TAYLOR_PATH,
    TAYLOR_QUESTION,
    benchmark_fixture,
    refinement_fixture,
    taylor_fixture,
)
from embedding_oracle import index_from_matrix
from graph_oracle import find_node

SENTENCE = "Seth MacFarlane created Family Guy in 1999."
NESTED_LINE = "((Seth MacFarlane)-[created]->(Family Guy))-[in]->(1999)"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL - {title}")
        raise
    print(f"criterion {number} PASS - {title}")


# ------------------------------------------------------------ criterion 1

def test_criterion_1_multi_hop_question():
    with criterion(1, "multi-hop question answered with the exact supporting path"):
        graph, index, rules = taylor_fixture()
        provider = ScriptedProvider(rules)
        engine = CoEngine(graph, index, provider)
        start = time.perf_counter()
        result = engine.run(TAYLOR_QUESTION)
        answer = generate_answer(provider, TAYLOR_QUESTION, result)
        elapsed = time.perf_counter() - start
        assert isinstance(result, Paths)
        assert result.steps_taken == 4
        assert format_paths(result.chains) == TAYLOR_PATH
        assert answer.answer == TAYLOR_ANSWER
        assert answer.grounded
        assert elapsed < 1.0


# ------------------------------------------------------------ criterion 2

def test_criterion_2_benchmark_accuracy_and_abstention():
    with criterion(2, "benchmark at 100% exact match, zero hallucination, clean abstention"):
        graph, index, rules, examples, absent = benchmark_fixture()
        provider = ScriptedProvider(rules)
        engine = CoEngine(graph, index, provider)

        def pipeline(question: str) -> str:
            return generate_answer(provider, question, engine.run(question)).answer

        start = time.perf_counter()
        report = evaluate_dataset(pipeline, examples)
        assert report.n == 20
        assert report.em_pct == 100.0
        assert report.f1_pct == 100.0
        assert report.hallucination_pct == 0.0
        assert len(absent) == 5
        for example in absent:
            answer = pipeline(example.question)
            assert answer == FAILURE_MESSAGE
            assert score_example(example, answer).hallucination == 0
        assert time.perf_counter() - start < 10.0


# ------------------------------------------------------------ criterion 3

def _oracle_f1(prediction: str, golds) -> float:
    def tokens(text):
        cleaned = text.lower().translate(str.maketrans("", "", string.punctuation))
        return [t for t in cleaned.split() if t not in {"a", "an", "the"}]

    def pair(pred, gold):
        p, g = tokens(pred), tokens(gold)
        if not p and not g:
            return 1.0
        if not p or not g:
            return 0.0
        overlap = sum((collections.Counter(p) & collections.Counter(g)).values())
        if overlap == 0:
            return 0.0
        precision, recall = overlap / len(p), overlap / len(g)
        return 2 * precision * recall / (precision + recall)

    return max(pair(prediction, gold) for gold in golds)


def test_criterion_3_metric_fidelity():
    with criterion(3, "qa metrics agree with an independent oracle"):
        worked = f1_score("Michael Wilding died in Chichester", ["Michael Wilding"])
        assert abs(worked - 4 / 7) < 1e-9

        rng = random.Random(20260825)
        vocab = ["alpha", "beta", "Gamma", "the", "a", "an", "delta,",
                 "EPSILON!", "zeta's", "42", "...", "eta", ""]

        def sample() -> str:
            return " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))

        for _ in range(200):
            pred = sample()
            golds = [sample() for _ in range(rng.randint(1, 3))]
            assert abs(f1_score(pred, golds) - _oracle_f1(pred, golds)) < 1e-9

        exact_hits = 0
        for _ in range(1000):
            golds = [sample() for _ in range(rng.randint(1, 3))]
            pred = rng.choice(golds) if rng.random() < 0.5 else sample()
            if exact_match(pred, golds) == 1:
                exact_hits += 1
                assert f1_score(pred, golds) == 1.0
                assert overlap_accuracy(pred, golds) == 1
                assert hallucination(pred, golds) == 0
        assert exact_hits >= 200


# ------------------------------------------------------------ criterion 4

def test_criterion_4_nested_fact_storage():
    with criterion(4, "nested fact stored as a hypernode with structural edges"):
        graph = KnowledgeGraph()
        provider = ScriptedProvider([ScriptRule("extract", SENTENCE, NESTED_LINE)])
        report = extract_and_store(graph, provider, "doc-1", SENTENCE)
        assert report.triples_extracted == 1
        stats = graph.stats()
        assert stats.node_count == 4
        assert stats.edge_count == 4
        assert stats.hypernode_count == 1

        hyper = find_node(graph, "Seth MacFarlane created Family Guy")
        assert hyper is not None and hyper.kind == "hypernode"
        structural = [e for e in graph.edges if e.structural]
        assert sorted(e.label for e in structural) == ["_object", "_subject"]
        assert all(e.source == hyper.id for e in structural)

        inner = [e for e in graph.edges if e.label == "created"]
        assert len(inner) == 1
        assert inner[0].source == find_node(graph, "Seth MacFarlane").id
        assert inner[0].target == find_node(graph, "Family Guy").id

        outer = [e for e in graph.edges if e.label == "in"]
        assert len(outer) == 1
        assert outer[0].source == hyper.id
        assert graph.node(outer[0].target).label == "1999"
        graph.audit()


# ------------------------------------------------------------ criterion 5

def test_criterion_5_search_exactness():
    with criterion(5, "index search matches brute-force top-k exactly"):
        rng = random.Random(977)
        alphabet = string.ascii_letters + string.digits + "  -'"
        embedder = HashingEmbedder()

        labels, seen = [], set()
        while len(labels) < 1300:
            label = "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 12)))
            canonical = normalize_label(label)
            if canonical and canonical not in seen:
                seen.add(canonical)
                labels.append(label)
        # 1000 nodes, then 300 relationship labels keyed by their canonical.
        entries = [IndexEntry(f"n{i:04d}", label) for i, label in enumerate(labels[:1000])]
        entries += [IndexEntry(normalize_label(label), label) for label in labels[1000:]]
        matrix = np.stack([embedder.embed(label) for label in labels])
        index = index_from_matrix([e.ref_id for e in entries], [e.text for e in entries], 1000,
                                  matrix, embedder)

        def brute_force(query: str, k: int, rows: list[int]) -> list[tuple[str, float]]:
            # Rank by the score as the index defines it, each row's terms
            # added left to right in ascending component order; a BLAS
            # product may round a near-tie the other way. Report the
            # product's score, which the index's must match within 1e-12.
            vector = embedder.embed(query)
            exact = np.zeros(len(entries))
            for c in np.flatnonzero(vector):
                exact = exact + matrix[:, c] * vector[c]
            scores = matrix @ vector
            order = sorted(rows, key=lambda i: (-exact[i], entries[i].canonical))
            return [(entries[i].ref_id, float(scores[i])) for i in order[:k]]

        def check(got, want) -> None:
            assert [e.ref_id for e, _ in got] == [ref_id for ref_id, _ in want]
            for (_, got_score), (_, want_score) in zip(got, want):
                assert abs(got_score - want_score) < 1e-12

        for _ in range(100):
            query = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 10)))
            k = rng.randint(1, 12)
            check(index.search(query, k), brute_force(query, k, list(range(1000))))
            rows = rng.sample(range(1000, 1300), rng.randint(1, 300))
            check(index.search(query, k, labels=[entries[i].ref_id for i in rows]),
                  brute_force(query, k, sorted(rows)))


# ------------------------------------------------------------ criterion 6

_LABEL_ALPHABET = "ab xY()[]-\\.é−→'"
_MUTATION_CHARS = "()[]->\\x −→"


def _random_label(rng: random.Random) -> str:
    while True:
        raw = "".join(rng.choice(_LABEL_ALPHABET) for _ in range(rng.randint(1, 10)))
        label = unicodedata.normalize("NFC", raw).strip()
        if label:
            return label


def _random_statement(rng: random.Random, depth: int) -> TripleStatement:
    def term(budget: int):
        if budget > 1 and rng.random() < 0.35:
            return statement(budget - 1)
        return Entity(_random_label(rng))

    def statement(budget: int) -> TripleStatement:
        return TripleStatement(term(budget), _random_label(rng), term(budget))

    return statement(depth)


def test_criterion_6_grammar_roundtrip_and_fuzz():
    with criterion(6, "triple grammar round-trips and rejects malformed input safely"):
        rng = random.Random(424242)
        for i in range(10000):
            statement = _random_statement(rng, 4)
            assert statement_depth(statement) <= 4
            text = serialize_triple(statement)
            assert parse_triple(text) == statement

            if i % 5 == 0:
                chars = list(text)
                op = rng.randrange(3)
                pos = rng.randrange(len(chars))
                if op == 0:
                    del chars[pos]
                elif op == 1:
                    chars.insert(pos, rng.choice(_MUTATION_CHARS))
                else:
                    chars[pos] = rng.choice(_MUTATION_CHARS)
                try:
                    parse_triple("".join(chars))
                except TripleSyntaxError:
                    pass


# ------------------------------------------------------------ criterion 7

def _refined_events(stream: io.StringIO) -> list[dict]:
    events = [json.loads(line) for line in stream.getvalue().splitlines()]
    return [e for e in events if e["event"] == "refined"]


def test_criterion_7_refinement_recovery_and_give_up():
    with criterion(7, "dead-end exploration recovers by refining, then gives up cleanly"):
        graph, index, rules = refinement_fixture(dead_ends=2)
        provider = ScriptedProvider(rules)
        stream = io.StringIO()
        engine = CoEngine(graph, index, provider, trace=TraceRecorder(stream))
        result = engine.run(REFINE_QUESTION)
        assert isinstance(result, Paths)
        answer = generate_answer(provider, REFINE_QUESTION, result)
        assert answer.answer == REFINE_ANSWER
        refined = _refined_events(stream)
        assert [e["failed_tries"] for e in refined] == [1, 2]
        assert all(e["current_step"] == 1 for e in refined)
        assert all(e["path_len"] == 0 for e in refined)

        graph, index, rules = refinement_fixture(dead_ends=3)
        provider = ScriptedProvider(rules)
        stream = io.StringIO()
        engine = CoEngine(graph, index, provider, trace=TraceRecorder(stream))
        result = engine.run(REFINE_QUESTION)
        assert isinstance(result, Failure)
        answer = generate_answer(provider, REFINE_QUESTION, result)
        assert answer.answer == FAILURE_MESSAGE
        assert not answer.grounded
        assert len(_refined_events(stream)) == 3


# ------------------------------------------------------------ criterion 8

def test_criterion_8_determinism():
    with criterion(8, "end-to-end runs are byte-for-byte deterministic"):
        ingest_blobs = []
        for _ in range(2):
            graph = KnowledgeGraph()
            provider = ScriptedProvider([ScriptRule("extract", SENTENCE, NESTED_LINE)])
            extract_and_store(graph, provider, "doc-1", SENTENCE)
            graph_buf, index_buf = io.StringIO(), io.BytesIO()
            save_graph(graph, graph_buf)
            save_index(index_graph(graph, HashingEmbedder()), index_buf)
            ingest_blobs.append((graph_buf.getvalue(), index_buf.getvalue()))
        assert ingest_blobs[0] == ingest_blobs[1]

        query_runs = []
        for _ in range(2):
            graph, index, rules = taylor_fixture()
            provider = ScriptedProvider(rules)
            stream = io.StringIO()
            engine = CoEngine(graph, index, provider, trace=TraceRecorder(stream))
            result = engine.run(TAYLOR_QUESTION)
            answer = generate_answer(provider, TAYLOR_QUESTION, result)
            query_runs.append((answer.answer, format_paths(result.chains),
                               stream.getvalue()))
        assert query_runs[0] == query_runs[1]

        eval_reports = []
        for _ in range(2):
            graph, index, rules, examples, _absent = benchmark_fixture()
            provider = ScriptedProvider(rules)
            engine = CoEngine(graph, index, provider)

            def pipeline(question: str) -> str:
                return generate_answer(provider, question, engine.run(question)).answer

            report = evaluate_dataset(pipeline, examples)
            eval_reports.append(json.dumps(report.to_dict(), sort_keys=True))
        assert eval_reports[0] == eval_reports[1]
