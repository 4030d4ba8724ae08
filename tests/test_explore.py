"""Plan parsing, state transitions, refinement control flow, and full runs."""

from __future__ import annotations

import hashlib
import io
import json
import re
import time
from collections import Counter
from itertools import islice, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag import (
    CoEngine,
    FAILURE_MESSAGE,
    Failure,
    EmbeddingIndex,
    Entity,
    HashingEmbedder,
    HttpEmbeddingProvider,
    KnowledgeGraph,
    Limits,
    LmResponse,
    Paths,
    ProviderError,
    ScriptRule,
    ScriptedProvider,
    TraceRecorder,
    TripleStatement,
    generate_answer,
    index_graph,
    load_graph,
    load_index,
    normalize_label,
    parse_triple,
    save_graph,
    save_index,
)
import kgrag.explore
from kgrag.prompts import EVALUATE_SYSTEM, PLAN_SYSTEM, REFINE_PREAMBLE
from kgrag.explore import (
    EmptySelection,
    ExplorationPlan,
    ExplorationStep,
    HopElement,
    NodeElement,
    MAX_CHAINS,
    MAX_CHAIN_HOPS,
    MAX_FAILED_TRIES,
    MAX_PLAN_STEPS,
    PlanParseError,
    StepKind,
    StepRecord,
    TraversalState,
    Verdict,
    format_steps,
    iter_chains,
    parse_ordinals,
    parse_plan,
    parse_verdict,
    relationship_candidates,
)
from coe_fixtures import (
    CapturingProvider,
    REFINE_QUESTION,
    TAYLOR_PLAN,
    TAYLOR_QUESTION,
    TAYLOR_TRIPLES,
    _STEP1,
    _STEP2,
    build_graph,
    refinement_fixture,
    taylor_fixture,
)
from graph_oracle import find_node
from http_stub import stub_server

NODE = StepKind.NODE_EXPLORATION
REL = StepKind.RELATIONSHIP_EXPLORATION


# ------------------------------------------------------------ plan parsing

def test_parse_plan_basic():
    plan = parse_plan("NODE: find the start\nREL: follow married")
    assert [s.kind for s in plan.steps] == [NODE, REL]
    assert plan.steps[0].instruction == "find the start"
    assert plan.steps[0].ordinal == 1
    assert plan.steps[1].ordinal == 2


def test_parse_plan_tolerates_numbering_and_case():
    raw = "1. node: find them\nStep 2) REL: follow it\n3 - Rel: and again"
    plan = parse_plan(raw)
    assert [s.kind for s in plan.steps] == [NODE, REL, REL]
    assert plan.steps[2].instruction == "and again"


def test_parse_plan_ignores_prose_lines():
    plan = parse_plan("Here is my plan:\nNODE: start\nthat should do it\nREL: hop")
    assert len(plan.steps) == 2


def test_parse_plan_rejects_empty():
    with pytest.raises(PlanParseError):
        parse_plan("no usable lines at all")
    with pytest.raises(PlanParseError):
        parse_plan("")


def test_parse_plan_rejects_relationship_first():
    with pytest.raises(PlanParseError, match="NODE"):
        parse_plan("REL: follow something\nNODE: then locate")


def test_parse_plan_step_limit():
    longest = "\n".join(["NODE: start"] + ["REL: hop"] * (MAX_PLAN_STEPS - 1))
    assert len(parse_plan(longest).steps) == MAX_PLAN_STEPS
    with pytest.raises(PlanParseError, match="more than"):
        parse_plan(longest + "\nREL: one hop too many")


def test_plan_text_reconstructs_lines():
    plan = parse_plan("2. NODE: start here\nREL: then hop")
    assert plan.text() == "NODE: start here\nREL: then hop"


# The plan-line pattern as first written, whose adjacent whitespace
# quantifiers backtrack polynomially: the reference for the lines it accepts.
_OLD_PLAN_LINE = re.compile(r"^(?:step\s+)?\d*\s*[-.):*]*\s*(NODE|REL)\s*:\s*(.+)$",
                            re.IGNORECASE)
_PLAN_TOKENS = st.sampled_from([" ", "\t", "  ", "1", "42", "-", ".", ")", ":", "*",
                                "s", "t", "e", "p", "step", "Step", "N", "O", "D", "E",
                                "NODE", "node", "R", "L", "REL", "rel"])
_PLAN_LINES = st.lists(_PLAN_TOKENS, max_size=8).map("".join)


def _plan_outcome(text: str):
    try:
        return parse_plan(text).steps
    except PlanParseError as exc:
        return str(exc)


@given(lines=st.lists(_PLAN_LINES, min_size=1, max_size=4))
def test_plan_line_pattern_agrees_with_the_old_one(lines):
    for line in lines:
        old = _OLD_PLAN_LINE.match(line.strip())
        new = kgrag.explore._PLAN_LINE.match(line.strip())
        assert (old and old.groups()) == (new and new.groups())
    text = "\n".join(lines)
    with patch.object(kgrag.explore, "_PLAN_LINE", _OLD_PLAN_LINE):
        expected = _plan_outcome(text)
    assert _plan_outcome(text) == expected


_RUN = " " * 100_000


@pytest.mark.parametrize("line", [
    "1" + _RUN + "x",
    "step" + _RUN + "x",
    "step" + _RUN + "1" + _RUN + "x",
    "1" + _RUN + "-" + _RUN + "x",
    "NODE" + _RUN + "x",
], ids=["digit", "step", "step-digit", "digit-dash", "node"])
def test_parse_plan_time_is_linear_in_a_whitespace_run(line):
    start = time.perf_counter()
    with pytest.raises(PlanParseError):
        parse_plan(line)
    assert time.perf_counter() - start < 0.5


# -------------------------------------------------------- reply parsing

def test_parse_ordinals():
    assert parse_ordinals("1,3", 5) == [1, 3]
    assert parse_ordinals("2 and 4, maybe 99", 5) == [2, 4]
    assert parse_ordinals("3, 3, 1", 5) == [3, 1]
    assert parse_ordinals("none", 5) == []
    assert parse_ordinals("", 5) == []
    assert parse_ordinals("0 and 6", 5) == []
    assert parse_ordinals("003", 5) == [3]
    assert parse_ordinals("\u0660\u0663", 5) == [3]
    # Runs too long for ``int``.
    assert parse_ordinals("1" * 5000, 5) == []
    assert parse_ordinals("1" * 5000 + " then 2", 5) == [2]
    assert parse_ordinals("0" * 5000 + "3", 5) == [3]


def _parse_ordinals_by_int(text: str, count: int) -> list[int]:
    """The oracle: ``int`` of every digit run, which raises on a run of
    more than 4,300 digits."""
    picks: list[int] = []
    for token in re.findall(r"\d+", text):
        value = int(token)
        if 1 <= value <= count and value not in picks:
            picks.append(value)
    return picks


# ASCII digits, and zeros and threes of the Arabic-Indic and Devanagari scripts.
_DIGITS = "0123456789\u0660\u0663\u0966\u0969"
_ZEROS = "0\u0660\u0966"
_SHORT_RUNS = st.text(st.sampled_from(_DIGITS), min_size=1, max_size=6)
_DIGIT_RUNS = st.one_of(
    _SHORT_RUNS,
    st.builds(lambda zeros, run: zeros + run,
              st.text(st.sampled_from(_ZEROS), max_size=4294), _SHORT_RUNS),
    st.builds(lambda digit, n: digit * n, st.sampled_from(_DIGITS), st.integers(1, 4300)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_DIGIT_RUNS, st.sampled_from([" ", ", ", " and ", "\n", "x"])),
                max_size=6),
       st.one_of(st.integers(0, 30), st.integers(0, 10 ** 12)))
def test_parse_ordinals_matches_int_of_every_run(pieces, count):
    text = "".join(run + separator for run, separator in pieces)
    assert parse_ordinals(text, count) == _parse_ordinals_by_int(text, count)


def test_parse_verdict():
    assert parse_verdict("CONTINUE") is Verdict.CONTINUE
    assert parse_verdict("refine the plan") is Verdict.NEEDS_REFINEMENT
    assert parse_verdict("Respond now.") is Verdict.RESPOND
    assert parse_verdict("we should respond, not continue") is Verdict.RESPOND
    assert parse_verdict("continue, do not respond yet") is Verdict.CONTINUE
    assert parse_verdict("no idea") is None
    assert parse_verdict("") is None


def test_format_steps():
    steps = [
        StepRecord(1, (), (), (NodeElement("n1", "Elizabeth Taylor"),
                               NodeElement("n4", "Liz Taylor"))),
        StepRecord(2, ("married", "was married to"),
                   (HopElement("n1", "married", "n2"), HopElement("n1", "married", "n3"),
                    HopElement("n4", "was married to", "n2")),
                   (NodeElement("n2", "Michael Wilding"), NodeElement("n3", "Eddie Fisher"))),
        StepRecord(4, (), (), (NodeElement("n3", "Eddie Fisher"),)),
    ]
    assert format_steps(steps) == (
        "1. NODE: Elizabeth Taylor; Liz Taylor\n"
        "2. REL married, was married to -> Michael Wilding; Eddie Fisher\n"
        "4. NODE: Eddie Fisher"
    )
    assert format_steps([]) == "(nothing traveled)"


# ------------------------------------------------------------- candidates

def test_node_candidates_rank_matching_label_first():
    graph, index, _ = taylor_fixture()
    results = index.search(_STEP1, 10)
    assert results[0][0].text == "Elizabeth Taylor"
    assert len(results) == 10
    assert {entry.ref_id for entry, _ in results} <= set(index.ref_ids[:index.nodes])


def test_relationship_candidates_are_distinct_outgoing_labels():
    graph, index, _ = taylor_fixture()
    liz = find_node(graph, "Elizabeth Taylor").id
    ranked = relationship_candidates(index, graph.label_groups([liz]), _STEP2, 10)
    labels = [edge.label for edge, _ in ranked]
    assert set(labels) >= {"married", "married to", "co-starred with"}
    assert len(labels) == len(set(labels))
    # structural labels stay hidden even for ids with hypernode involvement
    assert all(not label.startswith("_") for label in labels)
    hyper = find_node(graph, "Elizabeth Taylor married Michael Wilding").id
    ranked = relationship_candidates(index, graph.label_groups([hyper]), _STEP2, 10)
    assert [edge.label for edge, _ in ranked] == ["in"]


def test_relationship_candidates_truncate_to_m():
    graph, index, _ = taylor_fixture()
    liz = find_node(graph, "Elizabeth Taylor").id
    assert len(relationship_candidates(index, graph.label_groups([liz]), _STEP2, 2)) == 2


def test_relationship_candidates_empty_for_leaf():
    graph, index, _ = taylor_fixture()
    leaf = find_node(graph, "Chichester, West Sussex").id
    assert relationship_candidates(index, graph.label_groups([leaf]), "anything", 10) == []


_REL_WORDS = ["married to", "died in", "born in", "works as", "in"]
_REL_STEPS = ["List the former husbands", "where did they die", "occupation", "in"]


@st.composite
def _variant_label(draw) -> str:
    """One of a few labels, with its letters' case and its spaces varied."""
    word = draw(st.sampled_from(_REL_WORDS))
    cased = "".join(c.upper() if draw(st.booleans()) else c for c in word)
    return draw(st.sampled_from(["", " "])) + cased.replace(
        " ", draw(st.sampled_from([" ", "  ", "\t"])))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), _variant_label(), st.sampled_from("wxyza")),
                min_size=1, max_size=12),
       st.sampled_from(_REL_STEPS), st.integers(1, 6), st.data())
def test_relationship_candidates_match_brute_force(facts, instruction, m, data):
    graph = KnowledgeGraph()
    for source, label, target in facts:
        graph.upsert_triple(TripleStatement(Entity(source), label, Entity(target)))
    embedder = HashingEmbedder()
    index = index_graph(graph, embedder)
    sources = data.draw(st.lists(st.sampled_from(sorted({s for s, _, _ in facts})),
                                 min_size=1, unique=True), label="sources")
    source_ids = {find_node(graph, s).id for s in sources}
    got = [(edge.label, score) for edge, score in
           relationship_candidates(index, graph.label_groups(source_ids), instruction, m)]
    # Oracle: embed each candidate canonical's indexed text, score it
    # against the instruction and sort by (-score, canonical); show the
    # label of the first edge that carries it, in (source, target) order.
    edges = sorted((e for e in graph.edges if e.source in source_ids and not e.structural),
                   key=lambda e: (e.canonical, e.source, e.target))
    shown: dict[str, str] = {}
    for edge in edges:
        shown.setdefault(normalize_label(edge.label), edge.label)
    indexed = dict(zip(index.ref_ids[index.nodes:], index.texts[index.nodes:]))
    canonicals = sorted(shown)
    scores = embedder.embed_batch([indexed[c] for c in canonicals]) @ embedder.embed(instruction)
    order = sorted(range(len(canonicals)), key=lambda i: (-scores[i], canonicals[i]))
    assert got == [(shown[canonicals[i]], float(scores[i])) for i in order[:m]]


@st.composite
def _statement(draw, depth: int = 0) -> TripleStatement:
    """A fact over a few entities whose labels vary in case; a term may
    itself be a fact, one level deep."""
    def term():
        if depth < 1 and draw(st.integers(0, 4)) == 0:
            return draw(_statement(depth + 1))
        return Entity(draw(st.sampled_from(["a", "A", "b", "c d", "C  D", "e"])))
    return TripleStatement(term(), draw(_variant_label()), term())


class _Picks:
    """A provider that answers a selection with fixed ordinals."""

    def __init__(self, ordinals: list[int]):
        self.content = ",".join(map(str, ordinals)) or "none"

    def complete(self, request):
        return LmResponse(self.content)


@settings(max_examples=150, deadline=None)
@given(st.lists(_statement(), max_size=8), st.lists(_statement(), max_size=8),
       st.sampled_from(_REL_STEPS), st.data())
def test_relationship_step_matches_sorted_out_edges(first, more, instruction, data):
    """Upserts, a save and load, then more upserts, so that labels and
    targets arrive out of order. The label groups, their first edges and the
    followed edges equal a sort of all out-edges by (canonical, source,
    target)."""
    graph = KnowledgeGraph()
    for statement in first:
        graph.upsert_triple(statement)
    buffer = io.StringIO()
    save_graph(graph, buffer)
    graph = load_graph(io.StringIO(buffer.getvalue()))
    for statement in more:
        graph.upsert_triple(statement)
    graph.audit()
    fresh = KnowledgeGraph()
    for statement in first + more:
        fresh.upsert_triple(statement)
    saved, saved_fresh = io.StringIO(), io.StringIO()
    save_graph(graph, saved)
    save_graph(fresh, saved_fresh)
    assert saved.getvalue() == saved_fresh.getvalue()
    node_ids = sorted(node.id for node in graph.nodes)
    if not node_ids:
        return
    current = data.draw(st.lists(st.sampled_from(node_ids), min_size=1, max_size=5),
                        label="current")
    everything = sorted((e for e in graph.edges if e.source in current and not e.structural),
                        key=lambda e: (e.canonical, e.source, e.target))
    by_label: dict[str, list] = {}
    for edge in everything:
        by_label.setdefault(edge.canonical, []).append(edge)
    assert graph.label_groups(current) == by_label

    # The step itself: candidates shown as each label's first edge, and
    # the hops of the picked labels in sorted order.
    index = index_graph(graph, HashingEmbedder())
    ranked = relationship_candidates(index, by_label, instruction, 100)
    picks = data.draw(st.lists(st.integers(1, max(len(ranked), 1)), unique=True),
                      label="picks") if ranked else []
    trace = TraceRecorder()
    engine = CoEngine(graph, index, _Picks(picks), Limits(10, 100, 1000), trace)
    state = TraversalState(current_nodes=list(current))
    step = ExplorationStep(2, REL, instruction)
    if not ranked or not picks:
        with pytest.raises(EmptySelection):
            engine.explore_relationships(state, step, "q")
        return
    engine.explore_relationships(state, step, "q")
    assert trace.events[0]["labels"] == [{"label": edge.label, "score": round(score, 6)}
                                         for edge, score in ranked]
    wanted = {ranked[i - 1][0].canonical for i in picks}
    assert [h for step in state.steps for h in step.hops] == [
        HopElement(e.source, e.label, e.target) for e in everything if e.canonical in wanted]


# ------------------------------------------------- single-step transitions

def taylor_engine(trace: TraceRecorder | None = None) -> tuple[CoEngine, KnowledgeGraph]:
    graph, index, rules = taylor_fixture()
    return CoEngine(graph, index, ScriptedProvider(rules), trace=trace), graph


def test_explore_nodes_sets_current_nodes():
    engine, graph = taylor_engine()
    state = TraversalState()
    engine.explore_nodes(state, ExplorationStep(1, NODE, _STEP1), TAYLOR_QUESTION)
    labels = [graph.node(i).label for i in state.current_nodes]
    assert labels == ["Elizabeth Taylor", "Liz Taylor"]
    assert [e.label for step in state.steps for e in step.nodes] == [
        "Elizabeth Taylor", "Liz Taylor"]


def test_explore_relationships_moves_to_targets():
    engine, graph = taylor_engine()
    state = TraversalState()
    engine.explore_nodes(state, ExplorationStep(1, NODE, _STEP1), TAYLOR_QUESTION)
    engine.explore_relationships(state, ExplorationStep(2, REL, _STEP2), TAYLOR_QUESTION)
    labels = [graph.node(i).label for i in state.current_nodes]
    # the three husbands, canonical order
    assert labels == ["Conrad Nicky Hilton Jr", "Eddie Fisher", "Michael Wilding"]
    hops = [h for step in state.steps for h in step.hops]
    assert {(h.label,) for h in hops} == {("married",), ("married to",), ("was married to",)}
    # The last step's nodes are the current nodes, so its prompt line names them.
    assert [n.node_id for n in state.steps[-1].nodes] == state.current_nodes


class CountingEmbedder:
    def __init__(self):
        self.inner = HashingEmbedder()
        self.calls: Counter[str] = Counter()

    def embed(self, text):
        self.calls["embed"] += 1
        return self.inner.embed(text)

    def embed_batch(self, texts):
        self.calls["embed_batch"] += 1
        return self.inner.embed_batch(texts)


def test_relationship_step_embeds_once_and_scans_once(monkeypatch):
    graph, index, rules = taylor_fixture()
    embedder = CountingEmbedder()
    engine = CoEngine(graph, EmbeddingIndex(index.ref_ids, index.texts, index.nodes, index.dim,
                                            *index.stored(), embedder),
                      ScriptedProvider(rules))
    state = TraversalState()
    engine.explore_nodes(state, ExplorationStep(1, NODE, _STEP1), TAYLOR_QUESTION)
    embedder.calls.clear()
    reads = Counter()
    label_groups, edges = graph.label_groups, KnowledgeGraph.edges
    monkeypatch.setattr(graph, "label_groups", lambda *args: reads.update(["label_groups"])
                        or label_groups(*args))
    monkeypatch.setattr(KnowledgeGraph, "edges", property(
        lambda self: reads.update(["edges"]) or edges.fget(self)))
    engine.explore_relationships(state, ExplorationStep(2, REL, _STEP2), TAYLOR_QUESTION)
    assert len(state.current_nodes) == 3
    assert embedder.calls == Counter(embed=1)
    assert reads == Counter(label_groups=1)


def test_explore_relationships_requires_current_nodes():
    engine, _ = taylor_engine()
    with pytest.raises(EmptySelection):
        engine.explore_relationships(TraversalState(),
                                     ExplorationStep(2, REL, _STEP2), TAYLOR_QUESTION)


def test_explore_relationships_dead_end_raises_empty_selection():
    engine, graph = taylor_engine()
    leaf = find_node(graph, "Chichester, West Sussex").id
    state = TraversalState(current_nodes=[leaf])
    with pytest.raises(EmptySelection, match="no outgoing"):
        engine.explore_relationships(state, ExplorationStep(2, REL, _STEP2),
                                     TAYLOR_QUESTION)


def test_none_selection_raises_empty_selection():
    graph, index, _ = taylor_fixture()
    provider = ScriptedProvider([ScriptRule("select_nodes", "", "none")])
    engine = CoEngine(graph, index, provider)
    with pytest.raises(EmptySelection, match="selected no node"):
        engine.explore_nodes(TraversalState(), ExplorationStep(1, NODE, _STEP1),
                             TAYLOR_QUESTION)


def test_current_nodes_capped():
    graph = KnowledgeGraph()
    for i in range(1, 31):
        graph.upsert_triple(parse_triple(f"(hub)-[links to]->(item {i:02d})"))
    index = index_graph(graph, HashingEmbedder())
    provider = ScriptedProvider([ScriptRule("select_rels", "", "1")])
    engine = CoEngine(graph, index, provider)
    state = TraversalState(current_nodes=[find_node(graph, "hub").id])
    engine.explore_relationships(state, ExplorationStep(2, REL, "follow the links"),
                                 "which items hang off the hub?")
    assert len(state.current_nodes) == 25
    labels = [graph.node(i).label for i in state.current_nodes]
    assert labels[0] == "item 01" and labels[-1] == "item 25"


def test_evaluate_parses_scripted_verdict():
    engine, graph = taylor_engine()
    state = TraversalState(current_nodes=[find_node(graph, "Elizabeth Taylor").id])
    plan = parse_plan(TAYLOR_PLAN)
    outcome = engine.evaluate(state, TAYLOR_QUESTION, plan)
    assert outcome.verdict is Verdict.CONTINUE


def test_evaluate_unparseable_means_refine():
    graph, index, _ = taylor_fixture()
    provider = ScriptedProvider([ScriptRule("evaluate", "", "hmm, unclear")])
    engine = CoEngine(graph, index, provider)
    state = TraversalState(current_nodes=[find_node(graph, "Elizabeth Taylor").id])
    outcome = engine.evaluate(state, TAYLOR_QUESTION, parse_plan(TAYLOR_PLAN))
    assert outcome.verdict is Verdict.NEEDS_REFINEMENT
    assert "unparseable" in outcome.rationale


# --------------------------------------------------------------- full runs

def test_full_run_returns_connected_chains():
    trace = TraceRecorder()
    engine, _ = taylor_engine(trace)
    result = engine.run(TAYLOR_QUESTION)
    assert isinstance(result, Paths)
    assert result.steps_taken == 4
    assert len(result.chains) == 1
    chain = result.chains[0]
    assert [e.label for e in chain] == [
        "Elizabeth Taylor", "married", "Michael Wilding",
        "died in", "Chichester, West Sussex",
    ]
    assert isinstance(chain[0], NodeElement)
    assert isinstance(chain[1], HopElement)
    events = [e["event"] for e in trace.events]
    assert events[0] == "plan"
    assert events[-1] == "result"
    assert trace.events[-1]["type"] == "paths"


def test_full_run_tag_sequence():
    graph, index, rules = taylor_fixture()
    provider = CapturingProvider(ScriptedProvider(rules))
    result = CoEngine(graph, index, provider).run(TAYLOR_QUESTION)
    assert isinstance(result, Paths)
    tags = [r.tag for r in provider.requests]
    assert tags == [
        "plan",
        "select_nodes", "evaluate",
        "select_rels", "evaluate",
        "select_rels", "evaluate",
        "select_nodes", "evaluate",
    ]


# sha256 of every request a fixture run sends: its tag, the temperature 1.0
# that the HTTP provider sends, then each message's role and content. The
# scripted rules match substrings, so a prompt that drifted could still pass
# every other test.
PINNED_REQUESTS = {
    "taylor": (9, "84ed3584db32eb34b8fd18f7afc2b4549690bafa96cd0807d53c833274db6ae7"),
    "refinement": (13, "09d14310b9d0ce73aa2d2eeb0f47f0570b57dde6ea7aa0e96e9a1aea22cb2b87"),
}


def _request_digest(requests) -> str:
    text = "\x00".join(
        f"{r.tag}\x01{1.0}\x01"
        + "\x01".join(f"{m.role}\x02{m.content}" for m in r.messages)
        for r in requests)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, fixture, question", [
    ("taylor", taylor_fixture, TAYLOR_QUESTION),
    ("refinement", lambda: refinement_fixture(dead_ends=2), REFINE_QUESTION),
])
def test_engine_requests_are_pinned(name, fixture, question):
    graph, index, rules = fixture()
    provider = CapturingProvider(ScriptedProvider(rules))
    assert isinstance(CoEngine(graph, index, provider).run(question), Paths)
    assert (len(provider.requests), _request_digest(provider.requests)) == \
        PINNED_REQUESTS[name]


def test_run_is_stateless_across_questions():
    engine, _ = taylor_engine()
    first = engine.run(TAYLOR_QUESTION)
    second = engine.run(TAYLOR_QUESTION)
    assert isinstance(first, Paths) and isinstance(second, Paths)
    assert first == second


def test_limits_are_respected_in_run():
    graph, index, rules = taylor_fixture()
    trace = TraceRecorder()
    engine = CoEngine(graph, index, ScriptedProvider(rules),
                      limits=Limits(node_candidates=10, relationship_candidates=10,
                                    max_current_nodes=25), trace=trace)
    engine.run(TAYLOR_QUESTION)
    listings = [e for e in trace.events if e["event"] == "node_candidates"]
    assert all(len(e["candidates"]) <= 10 for e in listings)


# -------------------------------------------------------------- refinement

def test_refinement_recovers_after_dead_ends():
    graph, index, rules = refinement_fixture(2)
    trace = TraceRecorder()
    engine = CoEngine(graph, index, ScriptedProvider(rules), trace=trace)
    result = engine.run(REFINE_QUESTION)
    assert isinstance(result, Paths)
    assert result.steps_taken == 2
    refined = [e for e in trace.events if e["event"] == "refined"]
    assert len(refined) == 2
    for event in refined:
        assert event["current_step"] == 1       # traversal restarts
        assert event["path_len"] == 0           # with an empty path
    assert [e["failed_tries"] for e in refined] == [1, 2]


@pytest.mark.parametrize("tag", ["select_nodes", "select_rels"])
def test_a_selection_of_a_long_digit_run_refines_and_then_fails(tag):
    graph, index, rules = taylor_fixture()
    rules = [r for r in rules if r.tag != tag] + [ScriptRule(tag, "", "1" * 5000)]
    trace = TraceRecorder()
    result = CoEngine(graph, index, ScriptedProvider(rules), trace=trace).run(TAYLOR_QUESTION)
    assert result == Failure()
    refines = [e for e in trace.events
               if e["event"] == "verdict" and e["verdict"] == "needs_refinement"]
    assert len(refines) == MAX_FAILED_TRIES
    assert all(v["rationale"].startswith("empty selection: model selected no ") for v in refines)
    assert sum(1 for e in trace.events if e["event"] == "refined") == MAX_FAILED_TRIES
    assert trace.events[-1] == {"event": "result", "type": "failure",
                                "cause": "plan exhausted or too many failed tries"}


def test_refinement_exhaustion_fails_with_fixed_message():
    graph, index, rules = refinement_fixture(3)
    trace = TraceRecorder()
    engine = CoEngine(graph, index, ScriptedProvider(rules), trace=trace)
    result = engine.run(REFINE_QUESTION)
    assert isinstance(result, Failure)
    assert result.message == FAILURE_MESSAGE
    assert sum(1 for e in trace.events if e["event"] == "refined") == 3
    assert trace.events[-1]["type"] == "failure"


def test_unusable_initial_plans_fail_after_three_tries():
    graph, index, _ = taylor_fixture()
    provider = ScriptedProvider([ScriptRule("plan", "", "no plan lines here")])
    trace = TraceRecorder()
    result = CoEngine(graph, index, provider, trace=trace).run(TAYLOR_QUESTION)
    assert isinstance(result, Failure)
    rejected = [e for e in trace.events if e["event"] == "plan_rejected"]
    assert len(rejected) == 3
    assert trace.events[-1]["cause"] == "no usable plan"


def test_relationship_first_plan_is_rejected():
    graph, index, _ = taylor_fixture()
    provider = ScriptedProvider([ScriptRule("plan", "", "REL: hop somewhere first")])
    result = CoEngine(graph, index, provider).run(TAYLOR_QUESTION)
    assert isinstance(result, Failure)


def test_garbage_refinement_keeps_old_plan_and_counts_the_try():
    graph, index, rules = refinement_fixture(3)
    # replace the refinement response with unparseable text
    rules = [r for r in rules if not (r.tag == "plan" and "previous exploration"
                                      in r.match_substring)]
    from kgrag.prompts import REFINE_PREAMBLE
    rules.append(ScriptRule("plan", REFINE_PREAMBLE, "that did not work, sorry"))
    trace = TraceRecorder()
    result = CoEngine(graph, index, ScriptedProvider(rules), trace=trace).run(REFINE_QUESTION)
    assert isinstance(result, Failure)
    rejected = [e for e in trace.events if e["event"] == "plan_rejected"]
    assert len(rejected) == 3
    assert sum(1 for e in trace.events if e["event"] == "refined") == 3


def test_provider_error_mid_run_degrades_to_failure():
    graph, index, rules = taylor_fixture()
    without_evaluate = [r for r in rules if r.tag != "evaluate"]
    trace = TraceRecorder()
    result = CoEngine(graph, index, ScriptedProvider(without_evaluate),
                      trace=trace).run(TAYLOR_QUESTION)
    assert isinstance(result, Failure)
    assert result.message == FAILURE_MESSAGE
    assert trace.events[-1]["cause"].startswith("provider error")


def test_stale_index_degrades_to_failure():
    graph, index, rules = taylor_fixture()
    # A label added after indexing has no relationship row in the index.
    graph.upsert_triple(parse_triple("(Elizabeth Taylor)-[adopted]->(Maria Burton)"))
    trace = TraceRecorder()
    result = CoEngine(graph, index, ScriptedProvider(rules), trace=trace).run(TAYLOR_QUESTION)
    assert result == Failure()
    assert trace.events[-1]["type"] == "failure"
    assert trace.events[-1]["cause"].startswith("stale index:")
    assert "'adopted'" in trace.events[-1]["cause"]


def test_index_naming_a_missing_node_degrades_to_failure():
    _, index, rules = taylor_fixture()
    # The index still has "Liz Taylor", which step 1 selects; this graph does not.
    graph = build_graph([t for t in TAYLOR_TRIPLES if "Liz Taylor" not in t])
    trace = TraceRecorder()
    result = CoEngine(graph, index, ScriptedProvider(rules), trace=trace).run(TAYLOR_QUESTION)
    assert result == Failure()
    assert trace.events[-1]["cause"].startswith("stale index: unknown node id")


def test_index_naming_a_missing_node_fails_at_the_node_step():
    """A plan of one NODE step that would respond next: the node the graph
    lacks ends the run before any evaluation."""
    _, index, rules = taylor_fixture()
    graph = build_graph([t for t in TAYLOR_TRIPLES if "Liz Taylor" not in t])
    rules = [r for r in rules if r.tag not in ("plan", "evaluate")] + [
        ScriptRule("plan", TAYLOR_QUESTION, f"NODE: {_STEP1}"),
        ScriptRule("evaluate", "", "RESPOND")]
    provider = CapturingProvider(ScriptedProvider(rules))
    trace = TraceRecorder()
    result = CoEngine(graph, index, provider, trace=trace).run(TAYLOR_QUESTION)
    assert result == Failure()
    assert trace.events[-1]["cause"].startswith("stale index: unknown node id")
    assert [r.tag for r in provider.requests] == ["plan", "select_nodes"]


def test_embedder_of_another_width_degrades_to_failure(tmp_path):
    graph, index, rules = taylor_fixture()
    path = tmp_path / "index.bin"
    save_index(index, path)

    def responder(payload, headers):
        return 200, {"vectors": [[1.0, 2.0, 2.0] for _ in payload["texts"]]}

    with stub_server(responder) as (url, captured):
        # The index names the endpoint, as if it had built it at 256 wide.
        header, arrays = path.read_bytes().split(b"\n", 1)
        header = json.dumps({**json.loads(header), "embedder": url})
        path.write_bytes(header.encode("utf-8") + b"\n" + arrays)
        # The HTTP embedder learns its width only on its first call, so
        # loading cannot refuse the 256-d index; the first search does.
        loaded = load_index(path, HttpEmbeddingProvider(url))
        assert loaded.dim == 256
        trace = TraceRecorder()
        result = CoEngine(graph, loaded, ScriptedProvider(rules), trace=trace).run(
            TAYLOR_QUESTION)
    assert result == Failure()
    assert len(captured) == 1
    assert trace.events[-1]["type"] == "failure"
    assert trace.events[-1]["cause"].startswith(
        "stale index: query vector of shape (3,) does not fit the index's dim 256")


def test_empty_provider_degrades_to_failure():
    graph, index, _ = taylor_fixture()
    result = CoEngine(graph, index, ScriptedProvider()).run(TAYLOR_QUESTION)
    assert result == Failure()


def test_overlong_plans_count_as_failed_tries():
    graph, index, _ = taylor_fixture()
    overlong = "\n".join(["NODE: start"] * (MAX_PLAN_STEPS + 1))
    provider = CapturingProvider(ScriptedProvider([ScriptRule("plan", "", overlong)]))
    trace = TraceRecorder()
    result = CoEngine(graph, index, provider, trace=trace).run(TAYLOR_QUESTION)
    assert isinstance(result, Failure)
    assert len(provider.requests) == MAX_FAILED_TRIES
    assert trace.events[-1]["cause"] == "no usable plan"


def test_default_engine_retains_no_events():
    engine, _ = taylor_engine()
    for _ in range(3):
        assert isinstance(engine.run(TAYLOR_QUESTION), Paths)
    assert engine.trace.events == []


def test_stream_recorder_writes_events_and_keeps_none():
    kept, stream = TraceRecorder(), io.StringIO()
    for trace in (kept, TraceRecorder(stream)):
        engine, _ = taylor_engine(trace)
        assert isinstance(engine.run(TAYLOR_QUESTION), Paths)
    assert engine.trace.events == []
    assert [json.loads(line) for line in stream.getvalue().splitlines()] == kept.events
    assert kept.events[-1]["type"] == "paths"


def test_call_budget_is_reached_by_the_longest_refused_plans():
    graph, index, _ = taylor_fixture()
    longest = "\n".join([f"NODE: {_STEP1}"] * MAX_PLAN_STEPS)
    provider = CapturingProvider(ScriptedProvider([
        ScriptRule("plan", "", longest),
        ScriptRule("select_nodes", "", "1"),
        ScriptRule("evaluate", "", "continue"),
        ScriptRule("evaluate", f"Current step: {MAX_PLAN_STEPS} of", "refine"),
    ]))
    result = CoEngine(graph, index, provider).run(TAYLOR_QUESTION)
    assert isinstance(result, Failure)
    assert len(provider.requests) == CALL_BUDGET


# Plan or refinement calls: one per failed try plus the one that ends the
# run. Every traversal pass ends in a failed try or the result, and runs at
# most MAX_PLAN_STEPS steps of one selection and one evaluation call each.
CALL_BUDGET = (MAX_FAILED_TRIES + 1) + MAX_FAILED_TRIES * MAX_PLAN_STEPS * 2

_TAYLOR = taylor_fixture()

_REPLIES = {
    "plan": st.lists(st.sampled_from(["NODE: " + _STEP1, "REL: " + _STEP2, "NODE: x",
                                      "REL: y", "prose"]),
                     max_size=MAX_PLAN_STEPS + 3).map("\n".join),
    "select_nodes": st.lists(st.integers(0, 12), max_size=4).map(
        lambda picks: ", ".join(map(str, picks)) or "none"),
    "evaluate": st.sampled_from(["continue", "CONTINUE", "respond", "refine", "hmm", ""]),
}
_REPLIES["select_rels"] = _REPLIES["select_nodes"]


class _DrawnProvider:
    """Draws every reply as the engine asks for it: from ``replies`` by tag,
    ``shaped`` times as often as any text and as a provider error."""

    def __init__(self, data, replies=_REPLIES, shaped: int = 3):
        self.data = data
        self.replies = replies
        # ``st.one_of`` would draw a repeated branch no more often than
        # another, so the odds are drawn from a list.
        self.kinds = st.sampled_from(["shaped"] * shaped + ["text", "error"])
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        kind = self.data.draw(self.kinds, label=f"{request.tag} kind")
        if kind == "error":
            raise ProviderError("drawn failure")
        shaped = self.replies[request.tag] if kind == "shaped" else st.text(max_size=40)
        return LmResponse(self.data.draw(shaped, label=request.tag))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_replies_end_in_paths_or_failure_within_budget(data):
    graph, index, _ = _TAYLOR
    provider = _DrawnProvider(data)
    result = CoEngine(graph, index, provider).run(TAYLOR_QUESTION)
    assert isinstance(result, (Paths, Failure))
    assert provider.calls <= CALL_BUDGET


class _CountingIndex:
    """Passes the engine's searches to ``index``, counting each kind and
    noting the widest ``k`` asked for and returned."""

    def __init__(self, index: EmbeddingIndex):
        self.index = index
        self.searches: Counter[str] = Counter()
        self.widest: Counter[str] = Counter()

    def search(self, query_text, k, labels=None):
        kind = "node" if labels is None else "label"
        results = self.index.search(query_text, k, labels)
        self.searches[kind] += 1
        self.widest[kind] = max(self.widest[kind], k, len(results))
        return results


class _HopMeter(int):
    """Stands in for MAX_CHAIN_HOPS. The walk compares its count of hops
    with the bound after each hop it counts, and once as it ends, so the
    largest count compared is the number of hops the walk counted."""

    def __new__(cls, value: int):
        meter = super().__new__(cls, value)
        meter.compared = meter.most = 0
        return meter

    def __lt__(self, examined):      # ``examined > MAX_CHAIN_HOPS``
        self.compared += 1
        self.most = max(self.most, examined)
        return int(self) < examined


@st.composite
def _work_graph(draw) -> KnowledgeGraph:
    """A hub pointing at members who all know each other and the hub, a
    ring of "next" edges and a few nested facts: cycles everywhere."""
    graph = KnowledgeGraph()
    members = [f"m{i}" for i in range(draw(st.integers(1, 6), label="members"))]
    facts = [("hub", "links", name) for name in members]
    facts += [(name, "knows", other) for name in members
              for other in members + ["hub"] if other != name]
    ring = ["r0", "r1", "r2"][:draw(st.integers(0, 3), label="ring")]
    facts += [(name, "next", ring[(i + 1) % len(ring)]) for i, name in enumerate(ring)]
    for source, label, target in facts:
        graph.upsert_triple(TripleStatement(Entity(source), label, Entity(target)))
    for statement in draw(st.lists(_statement(), max_size=5), label="facts"):
        graph.upsert_triple(statement)
    return graph


# Plans over the labels of _work_graph, and picks within small limits, so
# that many runs travel far and respond.
_WORK_PICKS = st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True).map(
    lambda picks: ", ".join(map(str, picks)))
_WORK_REPLIES = {
    "plan": st.tuples(
        st.sampled_from(["NODE: hub", "NODE: m0", "NODE: r0"]),
        st.lists(st.sampled_from(["REL: knows", "REL: next", "REL: links", "REL: in",
                                  "NODE: m1", "prose"]), min_size=3, max_size=MAX_PLAN_STEPS),
    ).map(lambda plan: "\n".join([plan[0], *plan[1]])),
    "select_nodes": _WORK_PICKS,
    "select_rels": _WORK_PICKS,
    "evaluate": st.sampled_from(["continue"] * 4 + ["respond", "refine"]),
}


def exploration_prompt_bound(limits: Limits, question: str, plan_chars: int,
                             longest_label: int) -> int:
    """Most characters an evaluate or refine request can take, given the
    longest plan text it quotes. No term grows with the hops traveled: a
    pass records at most MAX_PLAN_STEPS steps, one line each, and a line
    holds at most ``relationship_candidates`` labels and ``max_current_nodes``
    nodes, each with its separator."""
    line = (len(f"{MAX_PLAN_STEPS}. REL  -> \n")
            + limits.relationship_candidates * (longest_label + len(", "))
            + limits.max_current_nodes * (longest_label + len("; ")))
    steps = max(MAX_PLAN_STEPS * line, len("(nothing traveled)"))
    evaluate = len(EVALUATE_SYSTEM) + len(f"Question: {question}\nPlan:\n\nCurrent step: "
                                          f"{MAX_PLAN_STEPS} of {MAX_PLAN_STEPS}\nPath traveled:\n")
    refine = len(PLAN_SYSTEM) + len(f"{REFINE_PREAMBLE}\n\nQuestion: {question}\n"
                                    "Failed plan:\n\nPath traveled before failing:\n")
    return max(evaluate, refine) + plan_chars + steps


def _exploration_prompt_sizes(requests) -> list[int]:
    """The characters of each evaluate and refine request, in call order."""
    return [sum(len(m.content) for m in r.messages) for r in requests
            if r.tag == "evaluate" or REFINE_PREAMBLE in r.messages[-1].content]


def _longest_plan_text(trace: TraceRecorder) -> int:
    """The length of the longest plan text a run quoted: its plans, as the
    trace records them."""
    return max((len(ExplorationPlan(tuple(
        ExplorationStep(i, StepKind(s["kind"]), s["instruction"])
        for i, s in enumerate(event["steps"], 1))).text())
        for event in trace.events if event["event"] == "plan"), default=0)


def _longest_label(graph: KnowledgeGraph) -> int:
    return max(len(label) for label in [n.label for n in graph.nodes]
               + [e.label for e in graph.edges])


@settings(max_examples=300, deadline=None)
@given(_work_graph(), st.builds(Limits, st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
       st.sampled_from([0, 1, 2, 5, MAX_CHAIN_HOPS]), st.data())
def test_work_per_question_is_bounded(graph, limits, hop_budget, data):
    index = _CountingIndex(index_graph(graph, HashingEmbedder()))
    provider = _DrawnProvider(data, _WORK_REPLIES, shaped=12)
    requests = CapturingProvider(provider)
    meter = _HopMeter(hop_budget)
    trace = TraceRecorder()
    with patch.object(kgrag.explore, "MAX_CHAIN_HOPS", meter):
        result = CoEngine(graph, index, requests, limits, trace).run(TAYLOR_QUESTION)
    assert isinstance(result, (Paths, Failure))
    assert provider.calls <= CALL_BUDGET
    # Every evaluate and refine request fits a bound with no term for the
    # path traveled.
    bound = exploration_prompt_bound(limits, TAYLOR_QUESTION, _longest_plan_text(trace),
                                     _longest_label(graph))
    assert all(size <= bound for size in _exploration_prompt_sizes(requests.requests))
    # Each failed try ends one pass over at most MAX_PLAN_STEPS steps, and
    # each step runs one search.
    assert sum(index.searches.values()) <= MAX_FAILED_TRIES * MAX_PLAN_STEPS
    assert index.widest["node"] <= limits.node_candidates
    assert index.widest["label"] <= limits.relationship_candidates
    # One walk, and only for a run that responds with paths. The walk counts
    # a hop before it compares the count with the bound, and once past it,
    # each level of its recursion counts one more hop on its way out without
    # looking where it leads. A level is a REL step since the last refinement.
    assert (meter.compared > 0) == isinstance(result, Paths)
    levels = 0
    for event in trace.events:
        levels = 0 if event["event"] == "refined" else levels + (
            event["event"] == "relationship_selection")
    assert meter.most <= hop_budget + levels <= MAX_CHAIN_HOPS + MAX_PLAN_STEPS


# ---------------------------------------------------------- chain assembly

def _node_step(ordinal: int, *ids: str) -> StepRecord:
    """A NODE step that picked ``ids``; a node's label is its id in capitals."""
    return StepRecord(ordinal, (), (), tuple(NodeElement(i, i.upper()) for i in ids))


def _rel_step(ordinal: int, hops, *ids: str) -> StepRecord:
    """A REL step that traveled ``hops`` to the targets ``ids``."""
    return StepRecord(ordinal, tuple(dict.fromkeys(hop.label for hop in hops)), tuple(hops),
                      tuple(NodeElement(i, i.upper()) for i in ids))


def test_assemble_chains_single_path():
    steps = [_node_step(1, "a"), _rel_step(2, [HopElement("a", "r", "b")], "b")]
    chains = tuple(islice(iter_chains(steps, ["b"]), MAX_CHAINS))
    assert len(chains) == 1
    assert [e.label for e in chains[0]] == ["A", "r", "B"]


def test_assemble_chains_only_reaches_current_nodes():
    steps = [
        _node_step(1, "a"),
        _rel_step(2, [HopElement("a", "r", "b"), HopElement("a", "r", "c")], "b", "c"),
    ]
    chains = tuple(islice(iter_chains(steps, ["c"]), MAX_CHAINS))
    assert len(chains) == 1
    assert chains[0][-1].label == "C"


def test_assemble_chains_branching_emits_every_route():
    steps = [
        _node_step(1, "a"),
        _rel_step(2, [HopElement("a", "r", "b"), HopElement("a", "s", "c")], "b", "c"),
    ]
    chains = tuple(islice(iter_chains(steps, ["b", "c"]), MAX_CHAINS))
    assert len(chains) == 2
    endings = {chain[-1].label for chain in chains}
    assert endings == {"B", "C"}


def test_assemble_chains_handles_intermediate_current_node():
    # a current node can sit mid-path when the traversal stops early
    steps = [
        _node_step(1, "a"),
        _rel_step(2, [HopElement("a", "r", "b")], "b"),
        _rel_step(3, [HopElement("b", "s", "c")], "c"),
    ]
    chains = tuple(islice(iter_chains(steps, ["b"]), MAX_CHAINS))
    assert len(chains) == 1
    assert [e.label for e in chains[0]] == ["A", "r", "B"]


def test_assemble_chains_no_connection_gives_empty():
    steps = [_node_step(1, "a"), _rel_step(2, [HopElement("a", "r", "b")], "b")]
    assert tuple(islice(iter_chains(steps, ["zzz"]), MAX_CHAINS)) == ()
    assert tuple(islice(iter_chains([], []), MAX_CHAINS)) == ()


def test_assemble_chains_ignores_cycles():
    # The second REL step leads back to the start as well as on to C; a
    # last NODE step then picks C.
    steps = [
        _node_step(1, "a"),
        _rel_step(2, [HopElement("a", "r", "b")], "b"),
        _rel_step(3, [HopElement("b", "s", "a"), HopElement("b", "t", "c")], "a", "c"),
        _node_step(4, "c"),
    ]
    chains = tuple(islice(iter_chains(steps, ["c"]), MAX_CHAINS))
    assert len(chains) == 1
    assert [e.label for e in chains[0]] == ["A", "r", "B", "t", "C"]


def test_assemble_chains_single_node_start_is_also_end():
    steps = [_node_step(1, "a")]
    chains = tuple(islice(iter_chains(steps, ["a"]), MAX_CHAINS))
    assert chains == ((NodeElement("a", "A"),),)


def _recursive_chains(steps, current_nodes):
    """The older search, over every simple path through the traveled hops
    whatever their steps, recursive and uncut. Where no node is in two
    steps, it finds the chains the layered walk finds, in the same order.
    It reads the steps as the flat path the engine once kept: each step's
    hops, then its nodes."""
    labels, starts, hops, seen = {}, [], [], set()
    before_first_hop = True
    for element in (e for step in steps for e in (*step.hops, *step.nodes)):
        if isinstance(element, NodeElement):
            labels[element.node_id] = element.label
            if before_first_hop and element.node_id not in starts:
                starts.append(element.node_id)
        else:
            before_first_hop = False
            key = (element.source, element.label, element.target)
            if key not in seen and element.source in labels:
                seen.add(key)
                hops.append(element)
    adjacency = {}
    for hop in hops:
        if hop.target in labels:
            adjacency.setdefault(hop.source, []).append(hop)
    ends = set(current_nodes)
    chains, emitted = [], set()

    def extend(node_id, trail, visited):
        if node_id in ends and tuple(trail) not in emitted:
            emitted.add(tuple(trail))
            chains.append(tuple(trail))
        for hop in adjacency.get(node_id, ()):
            if hop.target not in visited:
                extend(hop.target, trail + [hop, NodeElement(hop.target, labels[hop.target])],
                       visited | {hop.target})

    for start in starts:
        extend(start, [NodeElement(start, labels[start])], {start})
    return chains


@st.composite
def _traveled(draw):
    """Step records as the engine makes them, with their parts: the steps'
    node sets, the starts, the hop layers and the current nodes. A NODE step
    picks nodes; a REL step travels hops from the current nodes, and their
    targets become the current nodes. Steps share six node ids, or in half
    the draws each step has three ids of its own."""
    apart = draw(st.booleans())

    def ids(step: int):
        return st.sampled_from([f"{c}{step}" for c in "abc"] if apart else list("abcdef"))

    current = draw(st.lists(ids(0), min_size=1, max_size=3, unique=True))
    records = [_node_step(1, *current)]
    steps, starts, layers = [set(current)], list(current), []
    for step, kind in enumerate(draw(st.lists(st.sampled_from([NODE, REL, REL]), max_size=4)), 1):
        if kind is NODE:
            current = draw(st.lists(ids(step), min_size=1, max_size=3, unique=True))
            if not layers:
                starts += current
            records.append(_node_step(step + 1, *current))
        else:
            hops = draw(st.lists(st.builds(HopElement, st.sampled_from(current),
                                           st.sampled_from("rs"), ids(step)),
                                 min_size=1, max_size=6, unique=True))
            current = sorted({hop.target for hop in hops})
            layers.append(hops)
            records.append(_rel_step(step + 1, hops, *current))
        steps.append(set(current))
    return records, steps, list(dict.fromkeys(starts)), layers, current


def _product_chains(starts, layers, current_nodes):
    """Every chain by brute force: a start and one hop from each of the first
    j layers, for every j, kept when the hops link up, revisit no node and
    end at a current node; sorted by the positions of their elements."""
    found = []
    for position, start in enumerate(starts):
        for depth in range(len(layers) + 1):
            for picks in product(*(enumerate(layer) for layer in layers[:depth])):
                hops = [hop for _, hop in picks]
                nodes = [start] + [hop.target for hop in hops]
                if (all(hop.source == node for hop, node in zip(hops, nodes))
                        and len(set(nodes)) == len(nodes) and nodes[-1] in current_nodes):
                    chain = [NodeElement(start, start.upper())]
                    for hop in hops:
                        chain += (hop, NodeElement(hop.target, hop.target.upper()))
                    found.append(((position, *(i for i, _ in picks)), tuple(chain)))
    return [chain for _, chain in sorted(found)]


def _drain(walk):
    """All of a chain walk's chains, and what it returned."""
    chains = []
    while True:
        try:
            chains.append(next(walk))
        except StopIteration as stop:
            return chains, stop.value


@settings(max_examples=300, deadline=None)
@given(_traveled())
def test_chains_come_lazily_in_depth_first_order(traveled):
    records, steps, starts, layers, current_nodes = traveled
    expected = _product_chains(starts, layers, current_nodes)
    assert _drain(iter_chains(records, current_nodes)) == (expected, False)
    assert (tuple(islice(iter_chains(records, current_nodes), MAX_CHAINS))
            == tuple(expected[:MAX_CHAINS]))
    # With no node in two steps, every simple path over the traveled hops
    # takes one hop per step, so the older search finds the same chains.
    if sum(map(len, steps)) == len(set().union(*steps)):
        assert _recursive_chains(records, current_nodes) == expected


def _layered_path(width: int, layers: int) -> list[StepRecord]:
    """Every node of a layer linked to every node of the next: width ** layers
    start-to-end chains."""
    def nodes(layer: int):
        return tuple(NodeElement(f"{layer}-{j}", f"N{layer}-{j}") for j in range(width))

    return [StepRecord(1, (), (), nodes(0))] + [
        StepRecord(layer + 1, ("r",), tuple(HopElement(f"{layer - 1}-{i}", "r", f"{layer}-{j}")
                                            for i in range(width) for j in range(width)),
                   nodes(layer))
        for layer in range(1, layers + 1)]


def test_assemble_chains_stops_at_the_cap():
    steps = _layered_path(10, 6)           # a million chains in full
    ends = [f"6-{j}" for j in range(10)]
    chains = tuple(islice(iter_chains(steps, ends), MAX_CHAINS))
    assert len(chains) == MAX_CHAINS
    assert chains[0] == tuple(_recursive_chains(_layered_path(1, 6), ["6-0"])[0])
    assert [chain[-1].node_id for chain in chains[:10]] == ends


def test_assemble_chains_skips_dead_ends_quickly():
    """The first starts fan out into a million routes that reach no current
    node; the one chain comes from the last start, whose hop the first REL
    step travels last, and a NODE step at the end picks its target."""
    steps = _layered_path(10, 6)    # 10 starts, then each step's 100 hops and 10 targets
    first, layer = steps[0], steps[1]
    steps[0] = StepRecord(1, (), (), first.nodes + (NodeElement("s", "S"),))
    steps[1] = StepRecord(2, layer.labels, layer.hops + (HopElement("s", "r", "e"),),
                          layer.nodes + (NodeElement("e", "E"),))
    steps.append(_node_step(8, "e"))
    started = time.perf_counter()
    chains = tuple(islice(iter_chains(steps, ["e"]), MAX_CHAINS))
    assert time.perf_counter() - started < 1.0
    assert chains == ((NodeElement("s", "S"), HopElement("s", "r", "e"), NodeElement("e", "E")),)


def test_run_records_a_cut_chain_list_in_the_trace(monkeypatch):
    width, steps = 4, 4                  # 4 ** 5 = 1024 chains in full
    graph = KnowledgeGraph()
    for layer in range(steps):
        for i in range(width):
            for j in range(width):
                graph.upsert_triple(TripleStatement(
                    Entity(f"layer{layer} node{i}"), "next", Entity(f"layer{layer + 1} node{j}")))
    index = index_graph(graph, HashingEmbedder())
    plan = "\n".join(["NODE: layer0 node"] + ["REL: next"] * steps)
    everything = " ".join(map(str, range(1, 11)))
    provider = ScriptedProvider([
        ScriptRule("plan", "", plan),
        ScriptRule("select_nodes", "", everything),
        ScriptRule("select_rels", "", "1"),
        ScriptRule("evaluate", "", "continue"),
        ScriptRule("evaluate", f"Current step: {steps + 1} of", "respond"),
    ])
    consumed = []

    def counted_chains(steps, current_nodes):
        for chain in iter_chains(steps, current_nodes):
            consumed.append(chain)
            yield chain

    monkeypatch.setattr("kgrag.explore.iter_chains", counted_chains)
    trace = TraceRecorder()
    limits = Limits(node_candidates=width, relationship_candidates=10, max_current_nodes=width)
    result = CoEngine(graph, index, provider, limits, trace).run("from layer0 to layer4?")
    assert isinstance(result, Paths)
    assert len(result.chains) == MAX_CHAINS
    assert len(consumed) == MAX_CHAINS + 1      # enough to tell that the list was cut
    assert {"event": "chains_cut", "kept": MAX_CHAINS} in trace.events
    assert trace.events[-1]["chains"] == MAX_CHAINS


class _PlanFollower:
    """An honest model: it sends ``plan``, picks the candidate that reads as
    the step's instruction, continues, and responds at the last step."""

    def __init__(self, plan: str):
        self.plan = plan
        self.tags = []

    def complete(self, request):
        self.tags.append(request.tag)
        user = request.messages[-1].content
        if request.tag == "plan":
            return LmResponse(self.plan)
        if request.tag == "evaluate":
            step, of = re.search(r"Current step: (\d+) of (\d+)", user).groups()
            return LmResponse("respond" if step == of else "continue")
        instruction = re.search(r"^Step: (.*)$", user, re.MULTILINE).group(1)
        listing = user.split("Candidates:\n", 1)[1].splitlines()
        return LmResponse(next((line.split(". ", 1)[0] for line in listing
                                if line.split(". ", 1)[1] == instruction), "none"))


def _clique_graph(members: int) -> KnowledgeGraph:
    """Gate manages the members, who all know each other and Gate; Alpha
    reports to Gate, and Gate is located in Omega."""
    names = [f"member {i}" for i in range(members)]
    triples = ["(Alpha)-[reports to]->(Gate)", "(Gate)-[located in]->(Omega)"]
    triples += [f"(Gate)-[manages]->({name})" for name in names]
    triples += [f"({name})-[knows]->({other})"
                for name in names for other in names + ["Gate"] if other != name]
    return build_graph(triples)


def _run_plan(graph: KnowledgeGraph, plan: list[str]):
    provider = _PlanFollower("\n".join(plan))
    trace = TraceRecorder()
    engine = CoEngine(graph, index_graph(graph, HashingEmbedder()), provider, trace=trace)
    started = time.perf_counter()
    result = engine.run("Where is the office?")
    return result, time.perf_counter() - started, trace, provider


def test_clique_question_ends_quickly():
    """Every chain from Alpha must come back through Gate before it can take
    the last step, so none exists; the walk finds that without listing the
    members' routes."""
    result, seconds, trace, _ = _run_plan(_clique_graph(24), [
        "NODE: Alpha", "REL: reports to", "REL: manages", "REL: knows", "REL: located in"])
    assert seconds < 1.0
    assert result == Paths((), steps_taken=5)
    assert [e for e in trace.events if e["event"] == "chains_cut"] == []


def test_hop_budget_ends_a_walk_with_no_chain():
    """From Gate through the members, the only way to Omega runs back
    through Gate, the start; every route of ten "knows" steps is walked
    until the hop budget ends the walk."""
    result, seconds, trace, provider = _run_plan(_clique_graph(24), [
        "NODE: Gate", "REL: manages", *["REL: knows"] * 10, "REL: located in"])
    assert seconds < 1.0
    assert result == Paths((), steps_taken=13)
    assert {"event": "chains_cut", "kept": 0, "cause": "hop budget"} in trace.events
    assert trace.events[-1] == {"event": "result", "type": "paths", "steps_taken": 13,
                                "chains": 0}
    answer = generate_answer(provider, "Where is the office?", result)
    assert answer.answer == FAILURE_MESSAGE and not answer.grounded
    assert "answer" not in provider.tags


def test_return_to_start_prompts_stay_within_bound():
    """The plan from Gate through ten "knows" steps travels hundreds of hops
    per step among 24 members; each step adds one prompt line of at most 25
    nodes."""
    plan = "\n".join(["NODE: Gate", "REL: manages", *["REL: knows"] * 10, "REL: located in"])
    graph = _clique_graph(24)
    provider = CapturingProvider(_PlanFollower(plan))
    engine = CoEngine(graph, index_graph(graph, HashingEmbedder()), provider)
    assert engine.run("Where is the office?") == Paths((), steps_taken=13)
    sizes = _exploration_prompt_sizes(provider.requests)
    assert len(sizes) == 13
    bound = exploration_prompt_bound(Limits(), "Where is the office?",
                                     len(parse_plan(plan).text()), _longest_label(graph))
    assert max(sizes) <= bound
    assert sum(sizes) < 30_000


_CLIQUE = _clique_graph(6)
_CLIQUE_INDEX = index_graph(_CLIQUE, HashingEmbedder())
_FAN_OUT = st.sampled_from([" ".join(map(str, range(1, 11)))] * 3 + ["2, 1", "3", "none"])
# Plans that walk the clique over and over, with most candidates selected,
# so that the traveled hops multiply with every step.
_CLIQUE_REPLIES = {
    "plan": st.lists(st.sampled_from(["REL: knows", "REL: knows", "REL: manages",
                                      "REL: located in", "NODE: member", "prose"]),
                     min_size=1, max_size=MAX_PLAN_STEPS - 1).map(
        lambda lines: "\n".join(["NODE: Gate member"] + lines)),
    "select_nodes": _FAN_OUT,
    "select_rels": _FAN_OUT,
    "evaluate": st.sampled_from(["continue"] * 6 + ["respond", "refine", "hmm"]),
}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.builds(Limits, st.integers(1, 10), st.integers(1, 4), st.integers(1, 10)))
def test_exploration_prompts_stay_within_bound(data, limits):
    provider = CapturingProvider(_DrawnProvider(data, _CLIQUE_REPLIES, shaped=9))
    trace = TraceRecorder()
    question = "Whom do the members know?"
    CoEngine(_CLIQUE, _CLIQUE_INDEX, provider, limits, trace).run(question)
    bound = exploration_prompt_bound(limits, question, _longest_plan_text(trace),
                                     _longest_label(_CLIQUE))
    assert all(size <= bound for size in _exploration_prompt_sizes(provider.requests))


# _layered_path(2, 3) has 16 chains to its last layer and a walk over it
# looks at 28 hops: 14 from each start, 2 + 4 + 8 over its three layers. The
# start 0-1 is also an end, which makes a 17th chain; a walk cut within the
# first start's hops does not reach it.
@pytest.mark.parametrize("budget, found, cut", [(28, 17, False), (27, 16, True), (9, 4, True)])
def test_hop_budget_keeps_the_chains_found_before_it(monkeypatch, budget, found, cut):
    monkeypatch.setattr(kgrag.explore, "MAX_CHAIN_HOPS", budget)
    steps, ends = _layered_path(2, 3), ["3-0", "3-1", "0-1"]
    chains, was_cut = _drain(iter_chains(steps, ends))
    assert (len(chains), was_cut) == (found, cut)
    assert chains == _recursive_chains(steps, ends)[:found]
