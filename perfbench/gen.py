"""Seeded input generator and ranking oracle for the kgrag benchmark.

The generator writes only what a kgrag user would hand the program:
documents, a scripted-provider rule file per phase (extraction replies are
the triple lists), and a question dataset. Everything it expects back
(report counts, graph statistics, answers, chains, model-call counts) is
derived here from its own model of the graph.

Nothing here imports kgrag. The ordinals in the ``select_nodes`` and
``select_rels`` replies come from this file's own copy of the 3-gram CRC-32
hashing embedder, exact scan and canonical tie-break, so a ranking change
in the code under test shows up as failed checks instead of being absorbed
into regenerated fixtures. A path is rejected when the
wanted candidate, or any candidate above it, lies within ``NEAR_TIE`` of the
next score down, so the ordinals cannot hinge on floating-point summation
order.
"""

from __future__ import annotations

import hashlib
import json
import random
import unicodedata
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIM = 256              # HashingEmbedder default dimension
TOP_K = 10             # node and relationship candidates shown per step
MAX_CURRENT = 25       # Limits.max_current_nodes default
NEAR_TIE = 1e-9
HUB_LABELS = 50        # a node with this many distinct out-labels is a hub
DEPTH = 3              # plan shape NODE -> REL -> REL
ANSWERABLE_CALLS = 8   # plan, 3 x (select + evaluate), answer
ABSENT_CALLS = 7       # plan, 3 x (select_nodes "none" + refine)

_SYLLABLES = ("ka", "lo", "mi", "ra", "ten", "vor", "shi", "pel", "dun", "quo",
              "zar", "bel", "nix", "tor", "ae", "gri", "sul", "fen", "om", "tak",
              "wy", "rud", "cas", "ish")
_ABSENT_SYLLABLES = ("xo", "jub", "yev", "hux", "ozz", "qim")


# ------------------------------------------------------------ oracle

def canonical(text: str) -> str:
    """Same dedup key as the graph: NFC, collapsed whitespace, casefold."""
    return " ".join(unicodedata.normalize("NFC", text).split()).casefold()


def embed(text: str) -> np.ndarray:
    """Character 3-grams of ``<text>`` lowercased, CRC-32 into DIM buckets,
    L2-normalized."""
    padded = "<" + text.lower() + ">"
    vector = np.zeros(DIM, dtype=np.float64)
    for i in range(len(padded) - 2):
        vector[zlib.crc32(padded[i:i + 3].encode("utf-8")) % DIM] += 1.0
    return vector / np.linalg.norm(vector)


def ordinal(matrix: np.ndarray, keys: list[str], query: str, wanted: int) -> int | None:
    """1-based position of row ``wanted`` in the top TOP_K by (-score, key),
    or None when it is not shown or its score, or any score above it, lies
    within NEAR_TIE of the next one down."""
    scores = matrix @ embed(query)
    head = min(len(keys), TOP_K + 1)
    part = np.argpartition(-scores, head - 1)[:head] if len(keys) > head else range(len(keys))
    order = sorted(part, key=lambda i: (-scores[i], keys[i]))
    if wanted not in order[:TOP_K]:
        return None
    position = order.index(wanted)
    top = [float(scores[i]) for i in order[:position + 2]]
    if any(a - b < NEAR_TIE for a, b in zip(top, top[1:])):
        return None
    return position + 1


# ------------------------------------------------------------- graph model

def serialize(term) -> str:
    if isinstance(term, str):
        return term
    subject, predicate, obj = term
    return f"({serialize(subject)})-[{predicate}]->({serialize(obj)})"


def flatten(statement) -> str:
    def text(term):
        return term if isinstance(term, str) else flatten(term)
    subject, predicate, obj = statement
    return " ".join((text(subject), predicate, text(obj)))


@dataclass
class GraphModel:
    """What upserting the statements in order must produce."""

    labels: dict[str, str] = field(default_factory=dict)      # canonical -> display
    hypernodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str, str]] = field(default_factory=set)
    rel_labels: set[str] = field(default_factory=set)
    out: dict[str, dict[str, list[str]]] = field(default_factory=dict)  # src -> label -> targets
    upserted: int = 0

    def upsert(self, statement) -> None:
        touched: list[tuple] = []
        self._statement(statement, touched)
        created = False
        for item in touched:
            if item[0] == "node":
                _, key, display, hyper = item
                if key not in self.labels:
                    created = True
                    self.labels[key] = display
                    if hyper:
                        self.hypernodes.add(key)
            elif item[1] not in self.edges:
                created = True
                edge = item[1]
                self.edges.add(edge)
                if not edge[1].startswith("_"):
                    self.rel_labels.add(edge[1])
                    self.out.setdefault(edge[0], {}).setdefault(edge[1], []).append(edge[2])
        self.upserted += created

    def _statement(self, statement, touched) -> tuple[str, str]:
        subject, predicate, obj = statement
        s = self._term(subject, touched)
        o = self._term(obj, touched)
        touched.append(("edge", (s, canonical(predicate), o)))
        return s, o

    def _term(self, term, touched) -> str:
        if isinstance(term, str):
            touched.append(("node", canonical(term), term, False))
            return canonical(term)
        s, o = self._statement(term, touched)
        key = canonical(flatten(term))
        touched.append(("node", key, flatten(term), True))
        touched.append(("edge", (key, "_subject", s)))
        touched.append(("edge", (key, "_object", o)))
        return key

    def stats(self) -> dict:
        return {"node_count": len(self.labels),
                "hypernode_count": len(self.hypernodes),
                "edge_count": len(self.edges),
                "distinct_relationship_labels": len(self.rel_labels)}


# ------------------------------------------------------------- corpora

def _word(rng: random.Random, syllables=_SYLLABLES) -> str:
    return "".join(rng.choice(syllables) for _ in range(rng.randint(2, 3)))


def _names(rng: random.Random, count: int) -> list[str]:
    names: dict[str, str] = {}
    while len(names) < count:
        name = f"{_word(rng).capitalize()} {_word(rng).capitalize()}"
        names.setdefault(canonical(name), name)
    return list(names.values())


def _rel_labels(rng: random.Random, count: int) -> list[str]:
    labels: set[str] = set()
    while len(labels) < count:
        labels.add(" ".join(_word(rng) for _ in range(rng.randint(1, 2))))
    return sorted(labels)


def _malformed(rng: random.Random, a: str, r: str, b: str) -> str:
    return rng.choice((f"({a})-[{r}]-({b})",        # arrow without head
                       f"({a})-[{r}]->({b}",        # unterminated object
                       f"{a} -[{r}]-> ({b})",       # bare subject
                       f"({a})-[]->({b})"))         # empty predicate


def wide_corpus(rng: random.Random, spec: dict) -> list[list]:
    """Many sparse facts: subjects from a source pool (mean out-degree about
    3), objects from every entity, a share nested to depth 2 or 3."""
    entities = _names(rng, spec["entities"])
    sources = entities[: spec["sources"]]
    labels = _rel_labels(rng, spec["labels"])
    docs = []
    for _ in range(spec["docs"]):
        lines = []
        for _ in range(spec["triples_per_doc"]):
            a, b = rng.choice(sources), rng.choice(entities)
            r = rng.choice(labels)
            if rng.random() < spec["malformed"]:
                lines.append(_malformed(rng, a, r, b))
                continue
            statement = (a, r, b)
            if rng.random() < spec["nested"]:
                statement = (statement, rng.choice(labels), rng.choice(entities))
                if rng.random() < spec["depth3"]:
                    statement = (statement, rng.choice(labels), rng.choice(entities))
            lines.append(statement)
        docs.append(lines)
    return docs


def hub_corpus(rng: random.Random, spec: dict) -> list[list]:
    """A few hubs, each with about ``hub_edges`` out-edges over hundreds of
    distinct labels; a share of each hub's edges lead to other hubs, so a
    question's first-hop targets are hubs too."""
    names = _names(rng, spec["hubs"] + spec["leaves"])
    hubs, leaves = names[: spec["hubs"]], names[spec["hubs"]:]
    labels = _rel_labels(rng, spec["labels"])
    statements = []
    for hub in hubs:
        own = rng.sample(labels, spec["labels_per_hub"])
        others = [h for h in hubs if h != hub]
        for _ in range(spec["hub_edges"]):
            target = (rng.choice(others) if rng.random() < spec["hub_target"]
                      else rng.choice(leaves))
            statement = (hub, rng.choice(own), target)
            if rng.random() < spec["nested"]:
                statement = (statement, rng.choice(labels), rng.choice(leaves))
            statements.append(statement)
    rng.shuffle(statements)
    per_doc = spec["triples_per_doc"]
    return [statements[i:i + per_doc] for i in range(0, len(statements), per_doc)]


# ----------------------------------------------------------- questions

@dataclass
class _Ranker:
    """Node-search oracle over every node of the model graph."""

    keys: list[str]
    matrix: np.ndarray
    position: dict[str, int]
    label_vectors: dict[str, np.ndarray]

    @classmethod
    def build(cls, model: GraphModel) -> "_Ranker":
        keys = sorted(model.labels)
        matrix = np.stack([embed(model.labels[key]) for key in keys])
        return cls(keys, matrix, {key: i for i, key in enumerate(keys)},
                   {label: embed(label) for label in model.rel_labels})


def _rel_step(model: GraphModel, vectors: dict[str, np.ndarray], current: list[str],
              instruction: str, wanted: str) -> tuple[int, list[str]] | None:
    """Ordinal of ``wanted`` among the ranked outgoing labels of the current
    nodes, and the kept target set; None when the step is not clean."""
    candidates = sorted({label for node in current for label in model.out.get(node, {})})
    matrix = np.stack([vectors[label] for label in candidates])
    pick = ordinal(matrix, candidates, instruction, candidates.index(wanted))
    if pick is None:
        return None
    targets = sorted({t for node in current for t in model.out.get(node, {}).get(wanted, ())})
    return pick, targets[:MAX_CURRENT]


def _question_text(number: int, start: str, r1: str, r2: str) -> str:
    return f"Q{number:04d}: starting from {start}, what does {r1} then {r2} lead to?"


def _plan(start: str, r1: str, r2: str) -> tuple[str, list[str]]:
    steps = [f"find {start}", f"follow {r1}", f"follow {r2}"]
    return f"NODE: {steps[0]}\nREL: {steps[1]}\nREL: {steps[2]}", steps


def _answerable(model: GraphModel, ranker: _Ranker, rng: random.Random,
                starts: list[str], number: int) -> tuple[dict, list[dict]] | None:
    start = rng.choice(starts)
    hops = sorted((r1, mid) for r1, targets in model.out[start].items()
                  for mid in targets if mid in model.out)
    if not hops:
        return None
    r1, mid = rng.choice(hops)
    r2 = rng.choice(sorted(model.out[mid]))
    if r2 == r1:
        return None
    end = rng.choice(sorted(model.out[mid][r2]))
    if len({start, mid, end}) < 3:      # chains never revisit a node
        return None
    plan, steps = _plan(model.labels[start], r1, r2)
    node_pick = ordinal(ranker.matrix, ranker.keys, steps[0], ranker.position[start])
    if node_pick is None:
        return None
    first = _rel_step(model, ranker.label_vectors, [start], steps[1], r1)
    if first is None or mid not in first[1]:
        return None
    # The second step starts from at most one hub, so every question does
    # about the same relationship work and p95 does not hinge on how many
    # questions a seed happens to give two hubs.
    if sum(len(model.out.get(node, ())) >= HUB_LABELS for node in first[1]) > 1:
        return None
    second = _rel_step(model, ranker.label_vectors, first[1], steps[2], r2)
    if second is None or end not in second[1]:
        return None
    question = _question_text(number, model.labels[start], r1, r2)
    gold = model.labels[end]
    rules = [
        {"tag": "plan", "match_substring": f"Question: {question}", "response": plan},
        {"tag": "select_nodes", "match_substring": f"Question: {question}\nStep: {steps[0]}\n",
         "response": str(node_pick)},
        {"tag": "select_rels", "match_substring": f"Question: {question}\nStep: {steps[1]}\n",
         "response": str(first[0])},
        {"tag": "select_rels", "match_substring": f"Question: {question}\nStep: {steps[2]}\n",
         "response": str(second[0])},
        {"tag": "answer", "match_substring": f"Question: {question}\nPaths:", "response": gold},
    ]
    chain = (f"({model.labels[start]})-[{r1}]->({model.labels[mid]})"
             f"-[{r2}]->({gold})")
    expect = {"question": question, "gold": gold, "chain": chain,
              "calls": ANSWERABLE_CALLS, "absent": False}
    return expect, rules


def _absent(model: GraphModel, rng: random.Random, number: int,
            labels: list[str]) -> tuple[dict, list[dict]]:
    while True:
        name = " ".join(_word(rng, _ABSENT_SYLLABLES).capitalize() for _ in range(2))
        if canonical(name) not in model.labels:
            break
    r1, r2 = rng.choice(labels), rng.choice(labels)
    plan, steps = _plan(name, r1, r2)
    question = _question_text(number, name, r1, r2)
    rules = [
        {"tag": "plan", "match_substring": f"Question: {question}", "response": plan},
        {"tag": "select_nodes", "match_substring": f"Question: {question}\nStep: {steps[0]}\n",
         "response": "none"},
    ]
    expect = {"question": question, "gold": None, "chain": None,
              "calls": ABSENT_CALLS, "absent": True}
    return expect, rules


def questions(model: GraphModel, rng: random.Random, starts: list[str],
              count: int, absent_every: int) -> tuple[list[dict], list[dict], int]:
    """``count`` questions, every ``absent_every``-th about an entity the
    graph lacks. Returns expectations, script rules and the number of
    candidate paths rejected by the oracle."""
    ranker = _Ranker.build(model)
    starts = [s for s in starts if s in model.out]
    labels = sorted(model.rel_labels)
    expects: list[dict] = []
    rules = [{"tag": "evaluate", "match_substring": "", "response": "CONTINUE"},
             {"tag": "evaluate", "match_substring": f"Current step: {DEPTH} of {DEPTH}",
              "response": "RESPOND"}]
    rejected = 0
    while len(expects) < count:
        number = len(expects) + 1
        if number % absent_every == 0:
            made = _absent(model, rng, number, labels)
        else:
            made = _answerable(model, ranker, rng, starts, number)
            if made is None:
                rejected += 1
                if rejected > 50 * count:
                    raise RuntimeError("generator cannot find clean question paths")
                continue
        expect, question_rules = made
        expect["id"] = f"q{number:04d}"
        expects.append(expect)
        rules.extend(question_rules)
    return expects, rules, rejected


# ------------------------------------------------------------- inputs

def _doc_text(number: int, lines: list) -> str:
    named = sorted({line[0] for line in lines
                    if isinstance(line, tuple) and isinstance(line[0], str)})[:8]
    return (f"Field report {number:05d}.\n"
            f"This report records facts about {', '.join(named) or 'nothing named'}.\n")


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def generate(spec: dict, seed: int, out_dir: Path) -> dict:
    """Write the inputs for one workload into ``out_dir``; return what the
    program must produce from them, plus a digest of the written files."""
    rng = random.Random(f"{spec['shape']}:{seed}")
    docs = wide_corpus(rng, spec) if spec["shape"] == "wide" else hub_corpus(rng, spec)
    model = GraphModel()
    documents, extract_rules = [], []
    statements = malformed = 0
    for number, lines in enumerate(docs, 1):
        text = _doc_text(number, lines)
        reply = []
        for line in lines:
            if isinstance(line, str):
                malformed += 1
                reply.append(line)
            else:
                statements += 1
                model.upsert(line)
                reply.append(serialize(line))
        documents.append({"doc_id": f"d{number:05d}", "text": text})
        extract_rules.append({"tag": "extract", "match_substring": f"Field report {number:05d}.",
                              "response": "\n".join(reply)})
    starts = sorted({canonical(line[0]) for lines in docs for line in lines
                     if isinstance(line, tuple) and isinstance(line[0], str)})
    expects, qa_rules, rejected = questions(model, rng, starts, spec["questions"],
                                            spec["absent_every"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out_dir / "documents.jsonl", documents)
    _write_jsonl(out_dir / "extract_script.jsonl", extract_rules)
    _write_jsonl(out_dir / "qa_script.jsonl", qa_rules)
    _write_jsonl(out_dir / "dataset.jsonl",
                 [{"id": e["id"], "question": e["question"],
                   "answers": [e["gold"] or "unknown"]} for e in expects])
    digest = hashlib.sha256()
    for name in ("documents.jsonl", "extract_script.jsonl", "qa_script.jsonl", "dataset.jsonl"):
        digest.update((out_dir / name).read_bytes())
    return {
        "digest": digest.hexdigest()[:16],
        "documents": len(documents),
        "statements": statements,
        "malformed": malformed,
        "upserted": model.upserted,
        "stats": model.stats(),
        "index_entries": len(model.labels) + len(model.rel_labels),
        "questions": {e["id"]: e for e in expects},
        "rejected_paths": rejected,
    }
