"""QA metric oracles: worked examples, a brute-force F1 cross-check, and
invariants that must hold for any prediction/gold pair."""

from __future__ import annotations

import collections
import json
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag import (
    FAILURE_MESSAGE,
    QaExample,
    evaluate_dataset,
    exact_match,
    f1_score,
    hallucination,
    load_dataset,
    normalize_answer,
    overlap_accuracy,
    score_example,
)


# ------------------------------------------------------- normalization

def test_normalize_lowercases_and_splits():
    assert normalize_answer("Michael Wilding") == ["michael", "wilding"]


def test_normalize_strips_punctuation():
    assert normalize_answer("Chichester, West Sussex!") == ["chichester", "west", "sussex"]


def test_normalize_drops_articles():
    assert normalize_answer("The Sound of Music") == ["sound", "of", "music"]
    assert normalize_answer("an apple a day") == ["apple", "day"]


def test_normalize_collapses_whitespace():
    assert normalize_answer("  a\tb \n c  ") == ["b", "c"]


def test_normalize_empty_and_punctuation_only():
    assert normalize_answer("") == []
    assert normalize_answer("...!?") == []
    assert normalize_answer("the") == []


# ----------------------------------------------------- worked examples

def test_exact_match_examples():
    assert exact_match("Michael Wilding", ["Michael Wilding"]) == 1
    assert exact_match("The Michael Wilding.", ["michael wilding"]) == 1
    assert exact_match("Michael Wilding died", ["Michael Wilding"]) == 0
    assert exact_match("Richard Burton", ["Michael Wilding", "Richard Burton"]) == 1


def test_f1_worked_example():
    # prediction has 5 tokens, gold 2, overlap 2: P=2/5, R=1, F1=4/7
    value = f1_score("Michael Wilding died in Chichester", ["Michael Wilding"])
    assert value == pytest.approx(4 / 7, abs=1e-12)


def test_f1_multiset_counts_duplicates():
    # overlap is min(count) per token: "a" once, "b" once
    value = f1_score("a a b", ["a b b"])
    assert value == pytest.approx(2 / 3, abs=1e-12)


def test_f1_empty_cases():
    assert f1_score("", [""]) == 1.0
    assert f1_score("something", [""]) == 0.0
    assert f1_score("", ["something"]) == 0.0


def test_f1_takes_best_gold():
    assert f1_score("Richard Burton", ["Michael Wilding", "Richard Burton"]) == 1.0


def test_overlap_accuracy_examples():
    assert overlap_accuracy("Michael Wilding died in Chichester", ["Michael Wilding"]) == 1
    assert overlap_accuracy("Richard Burton", ["Michael Wilding"]) == 0
    assert overlap_accuracy("", [""]) == 1
    assert overlap_accuracy("", ["Michael Wilding"]) == 0


def test_hallucination_examples():
    assert hallucination("Michael Wilding", ["Michael Wilding"]) == 0
    assert hallucination("Richard Burton", ["Michael Wilding"]) == 1
    # extra unsupported tokens make the answer hallucinated
    assert hallucination("Michael Wilding the actor", ["Michael Wilding"]) == 1
    # supported subset is not hallucinated
    assert hallucination("Wilding", ["Michael Wilding"]) == 0


def test_abstention_is_not_hallucination():
    assert hallucination(FAILURE_MESSAGE, ["Michael Wilding"]) == 0
    assert hallucination("I don't know.", ["Michael Wilding"]) == 0
    assert hallucination("I cannot find that in the graph", ["Michael Wilding"]) == 0
    assert hallucination("", ["Michael Wilding"]) == 0


def test_metrics_require_gold_answers():
    for fn in (exact_match, f1_score, overlap_accuracy, hallucination):
        with pytest.raises(ValueError):
            fn("x", [])


# ---------------------------------------------------- brute-force oracle

def _oracle_f1(prediction: str, golds) -> float:
    """Independent recomputation from first principles."""

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
        precision = overlap / len(p)
        recall = overlap / len(g)
        return 2 * precision * recall / (precision + recall)

    return max(pair(prediction, gold) for gold in golds)


_VOCAB = ["alpha", "beta", "Gamma", "the", "a", "an", "delta,", "EPSILON!",
          "zeta's", "42", "...", "eta", "theta", "iota-kappa", ""]


def _random_text(rng: random.Random) -> str:
    return " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(0, 6)))


def test_f1_agrees_with_oracle_on_random_pairs():
    rng = random.Random(20260825)
    for _ in range(200):
        pred = _random_text(rng)
        golds = [_random_text(rng) for _ in range(rng.randint(1, 3))]
        assert f1_score(pred, golds) == pytest.approx(_oracle_f1(pred, golds), abs=1e-9)


# ------------------------------------------------------------ invariants

_answers = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(_answers, st.lists(_answers, min_size=1, max_size=3))
def test_exact_match_implies_perfect_scores(pred, golds):
    if exact_match(pred, golds) == 1:
        assert f1_score(pred, golds) == 1.0
        assert overlap_accuracy(pred, golds) == 1
        assert hallucination(pred, golds) == 0


@settings(max_examples=300, deadline=None)
@given(_answers, st.lists(_answers, min_size=1, max_size=3))
def test_score_ranges(pred, golds):
    assert exact_match(pred, golds) in (0, 1)
    assert 0.0 <= f1_score(pred, golds) <= 1.0
    assert overlap_accuracy(pred, golds) in (0, 1)
    assert hallucination(pred, golds) in (0, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                min_size=1, max_size=5))
def test_scores_invariant_under_articles_case_and_punctuation(words):
    gold = " ".join(words)
    dressed = "The " + " ".join(w.upper() for w in words) + "."
    assert exact_match(dressed, [gold]) == 1
    assert f1_score(dressed, [gold]) == 1.0
    assert hallucination(dressed, [gold]) == 0


@settings(max_examples=200, deadline=None)
@given(_answers, st.lists(_answers, min_size=1, max_size=3))
def test_em_never_exceeds_accuracy(pred, golds):
    assert exact_match(pred, golds) <= overlap_accuracy(pred, golds)


def test_self_comparison_is_perfect():
    for text in ["Michael Wilding", "a", "", "42!", "the the the"]:
        assert exact_match(text, [text]) == 1
        assert f1_score(text, [text]) == 1.0


# ----------------------------------------------------- dataset plumbing

def _examples():
    return [
        QaExample(id="q2", question="Who?", gold_answers=("Michael Wilding",)),
        QaExample(id="q1", question="Where?", gold_answers=("Chichester",)),
        QaExample(id="q3", question="When?", gold_answers=("1952",)),
    ]


def test_score_example_fields():
    ex = _examples()[0]
    score = score_example(ex, "Michael Wilding died in Chichester")
    assert score.example_id == "q2"
    assert score.em == 0
    assert score.f1 == pytest.approx(4 / 7)
    assert score.accuracy == 1
    assert score.hallucination == 1
    assert score.answer == "Michael Wilding died in Chichester"


def test_evaluate_dataset_aggregates_and_sorts():
    answers = {"Who?": "Michael Wilding", "Where?": "in Chichester", "When?": "1600"}
    report = evaluate_dataset(lambda q: answers[q], _examples())
    assert [s.example_id for s in report.per_example] == ["q1", "q2", "q3"]
    agg = report.to_dict()["aggregate"]
    assert agg["n"] == 3
    assert agg["em_pct"] == pytest.approx(100 * 1 / 3)
    assert agg["accuracy_pct"] == pytest.approx(100 * 2 / 3)
    assert agg["hallucination_pct"] == pytest.approx(100 * 2 / 3)


def test_evaluate_dataset_parallel_matches_serial():
    answers = {"Who?": "Michael Wilding", "Where?": "Chichester", "When?": "1952"}
    pipeline = lambda q: answers[q]  # noqa: E731
    serial = evaluate_dataset(pipeline, _examples(), jobs=1)
    parallel = evaluate_dataset(pipeline, _examples(), jobs=3)
    assert serial.to_dict() == parallel.to_dict()


def test_evaluate_dataset_records_pipeline_crashes():
    def pipeline(question):
        if question == "Where?":
            raise RuntimeError("boom")
        return "Michael Wilding"

    report = evaluate_dataset(pipeline, _examples())
    by_id = {s.example_id: s for s in report.per_example}
    assert by_id["q1"].answer == FAILURE_MESSAGE
    assert by_id["q1"].hallucination == 0
    assert by_id["q2"].em == 1


@pytest.mark.parametrize("jobs", [1, 3])
def test_evaluate_dataset_marks_and_counts_errors(jobs):
    def pipeline(question):
        if question == "Where?":
            raise RuntimeError("boom")
        return "Michael Wilding"

    report = evaluate_dataset(pipeline, _examples(), jobs=jobs)
    rows = {row["id"]: row for row in report.to_dict()["per_example"]}
    assert rows["q1"]["error"] == "RuntimeError: boom"
    assert rows["q1"]["answer"] == FAILURE_MESSAGE
    assert rows["q2"]["error"] is None and rows["q3"]["error"] is None
    assert report.errors == 1
    assert report.to_dict()["aggregate"]["errors"] == 1
    assert report.to_dict() == evaluate_dataset(pipeline, _examples(), jobs=1).to_dict()


@pytest.mark.parametrize("jobs", [1, 3])
def test_evaluate_dataset_counts_a_fault_on_every_question(jobs):
    def pipeline(question):
        raise ValueError("k must be at least 1")

    report = evaluate_dataset(pipeline, _examples(), jobs=jobs)
    assert report.n == 3 and report.errors == 3
    assert {s.error for s in report.per_example} == {"ValueError: k must be at least 1"}
    assert report.em_pct == 0.0 and report.hallucination_pct == 0.0


def test_evaluate_dataset_without_faults_counts_no_errors():
    report = evaluate_dataset(lambda q: "Michael Wilding", _examples())
    assert report.errors == 0
    assert all(row["error"] is None for row in report.to_dict()["per_example"])


def test_evaluate_dataset_empty():
    report = evaluate_dataset(lambda q: "x", [])
    agg = report.to_dict()["aggregate"]
    assert agg["n"] == 0
    assert agg["em_pct"] == 0.0


def test_metric_report_roundtrips_to_dict():
    report = evaluate_dataset(lambda q: "Michael Wilding", _examples()[:1])
    payload = report.to_dict()
    assert isinstance(payload["per_example"], list)
    assert payload["per_example"][0]["id"] == "q2"


def test_qa_example_requires_gold_answers():
    with pytest.raises(ValueError):
        QaExample(id="x", question="q", gold_answers=())


def test_load_dataset_skips_bad_lines(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(
        '{"id": "q1", "question": "Who?", "answers": ["Michael Wilding"]}\n'
        "not json\n"
        '{"question": "missing id"}\n'
        '{"id": "q2", "question": "Where?", "answers": ["Chichester"],'
        ' "snippets": ["He died in Chichester."]}\n',
        encoding="utf-8",
    )
    examples, problems = load_dataset(path)
    assert [e.id for e in examples] == ["q1", "q2"]
    assert len(problems) == 2
    assert problems[0].startswith("line 2")
    assert problems[1].startswith("line 3")


def test_load_dataset_skips_a_line_with_a_lone_surrogate(tmp_path):
    """A line whose id, question or answer holds an escaped lone surrogate
    is skipped as a problem; an escaped pair is one character and loads."""
    good = {"id": "q1", "question": "Who? \U0001f600", "answers": ["Michael Wilding"]}
    lines = [good, {**good, "id": "q\ud800"}, {**good, "question": "Who\udc80?"},
             {**good, "answers": ["x", "Mich\udfffael"]}]
    path = tmp_path / "dataset.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    examples, problems = load_dataset(path)
    assert [(e.id, e.question) for e in examples] == [("q1", "Who? \U0001f600")]
    assert problems == [f"line {n}: id, question or an answer holds a lone surrogate"
                        for n in (2, 3, 4)]
