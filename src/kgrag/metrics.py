"""Question-answering metrics and dataset evaluation.

Normalization follows the usual reading-comprehension convention: lowercase,
strip punctuation, drop the articles a/an/the, split on whitespace. F1 is
token-multiset overlap, taken as the max over gold answers.
"""

from __future__ import annotations

import json
import logging
import string
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .explore import FAILURE_MESSAGE
from .graph import _SURROGATE

logger = logging.getLogger(__name__)

_ARTICLES = frozenset({"a", "an", "the"})
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

# Substrings (checked on the lowercased raw prediction) that mark an honest
# abstention; abstentions are never counted as hallucinations.
ABSTENTION_PHRASES = (
    "i don't know",
    "i am sorry",
    "cannot find",
    "no information",
)


def normalize_answer(text: str) -> list[str]:
    """Lowercase, strip punctuation, drop articles, split on whitespace."""
    text = text.lower().translate(_PUNCT_TABLE)
    return [token for token in text.split() if token not in _ARTICLES]


def _require_golds(golds: Sequence[str]) -> None:
    if not golds:
        raise ValueError("at least one gold answer is required")


def exact_match(pred: str, golds: Sequence[str]) -> int:
    _require_golds(golds)
    pred_tokens = normalize_answer(pred)
    return int(any(pred_tokens == normalize_answer(g) for g in golds))


def _pair_f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if common == 0:
        return 0.0
    precision = common / len(pred_tokens)
    recall = common / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1_score(pred: str, golds: Sequence[str]) -> float:
    _require_golds(golds)
    pred_tokens = normalize_answer(pred)
    return max(_pair_f1(pred_tokens, normalize_answer(g)) for g in golds)


def overlap_accuracy(pred: str, golds: Sequence[str]) -> int:
    """1 iff the prediction shares at least one token with some gold (two
    empty token lists also count as agreement, keeping EM an accuracy
    lower bound)."""
    _require_golds(golds)
    pred_tokens = set(normalize_answer(pred))
    for gold in golds:
        gold_tokens = set(normalize_answer(gold))
        if not pred_tokens and not gold_tokens:
            return 1
        if pred_tokens & gold_tokens:
            return 1
    return 0


def hallucination(pred: str, golds: Sequence[str]) -> int:
    """1 iff the prediction asserts tokens found in no gold answer.
    Abstentions score 0: refusing to answer is not hallucinating."""
    _require_golds(golds)
    lowered = pred.lower()
    if any(phrase in lowered for phrase in ABSTENTION_PHRASES):
        return 0
    pred_counts = Counter(normalize_answer(pred))
    total = sum(pred_counts.values())
    if total == 0:
        return 0
    best_precision = max(
        sum((pred_counts & Counter(normalize_answer(g))).values()) / total
        for g in golds
    )
    return int(best_precision < 1.0)


@dataclass(frozen=True)
class QaExample:
    id: str
    question: str
    gold_answers: tuple[str, ...]

    def __post_init__(self):
        if not self.gold_answers:
            raise ValueError(f"example {self.id!r} has no gold answers")


@dataclass(frozen=True)
class ExampleScore:
    example_id: str
    question: str
    answer: str
    em: int
    f1: float
    accuracy: int
    hallucination: int
    # What the pipeline raised on this question ("Type: message"), else None.
    # Such a row is scored as the failure message, but it is not an answer.
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.example_id,
            "question": self.question,
            "answer": self.answer,
            "em": self.em,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "hallucination": self.hallucination,
            "error": self.error,
        }


@dataclass(frozen=True)
class MetricReport:
    n: int
    em_pct: float
    f1_pct: float
    accuracy_pct: float
    hallucination_pct: float
    per_example: tuple[ExampleScore, ...]
    errors: int = 0         # questions whose pipeline raised

    def to_dict(self) -> dict:
        return {
            "aggregate": {
                "n": self.n,
                "errors": self.errors,
                "em_pct": self.em_pct,
                "f1_pct": self.f1_pct,
                "accuracy_pct": self.accuracy_pct,
                "hallucination_pct": self.hallucination_pct,
            },
            "per_example": [score.to_dict() for score in self.per_example],
        }


def score_example(example: QaExample, answer: str) -> ExampleScore:
    return ExampleScore(
        example_id=example.id,
        question=example.question,
        answer=answer,
        em=exact_match(answer, example.gold_answers),
        f1=f1_score(answer, example.gold_answers),
        accuracy=overlap_accuracy(answer, example.gold_answers),
        hallucination=hallucination(answer, example.gold_answers),
    )


def evaluate_dataset(pipeline: Callable[[str], str], examples: Sequence[QaExample],
                     jobs: int = 1) -> MetricReport:
    """Run the pipeline over every example. A crashing example is scored
    as the standard failure message and marked with its error, never
    aborting the run; ``errors`` counts such rows. Per-example rows are
    sorted by id so job count cannot change the report."""

    def run_one(example: QaExample) -> ExampleScore:
        try:
            answer = pipeline(example.question)
        except Exception as exc:
            logger.exception("pipeline failed on example %r", example.id)
            return replace(score_example(example, FAILURE_MESSAGE),
                           error=f"{type(exc).__name__}: {exc}")
        return score_example(example, answer)

    if jobs > 1 and len(examples) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            scores = list(pool.map(run_one, examples))
    else:
        scores = [run_one(e) for e in examples]
    scores.sort(key=lambda s: str(s.example_id))
    n = len(scores)

    def pct(values) -> float:
        return 100.0 * sum(values) / n if n else 0.0

    return MetricReport(
        n=n,
        em_pct=pct(s.em for s in scores),
        f1_pct=pct(s.f1 for s in scores),
        accuracy_pct=pct(s.accuracy for s in scores),
        hallucination_pct=pct(s.hallucination for s in scores),
        per_example=tuple(scores),
        errors=sum(s.error is not None for s in scores),
    )


def load_dataset(source) -> tuple[list[QaExample], list[str]]:
    """Read JSONL examples; malformed lines are skipped and reported as
    warning strings alongside the parsed examples."""
    examples: list[QaExample] = []
    problems: list[str] = []
    with open(Path(source), encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                answers = record["answers"]
                if not isinstance(answers, list) or not answers:
                    raise ValueError("answers must be a non-empty list")
                example = QaExample(
                    id=str(record["id"]),
                    question=str(record["question"]),
                    gold_answers=tuple(str(a) for a in answers),
                )
                if any(not text.isascii() and _SURROGATE.search(text)
                       for text in (example.id, example.question, *example.gold_answers)):
                    raise ValueError("id, question or an answer holds a lone surrogate")
            except (ValueError, RecursionError, KeyError, TypeError) as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
            examples.append(example)
    return examples, problems
