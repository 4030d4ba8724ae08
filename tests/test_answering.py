"""Path rendering and grounded answer generation."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag import (
    FAILURE_MESSAGE,
    Entity,
    Failure,
    HashingEmbedder,
    KnowledgeGraph,
    Limits,
    LmResponse,
    Paths,
    ScriptRule,
    ScriptedProvider,
    TripleStatement,
    format_paths,
    generate_answer,
    index_graph,
)
from kgrag.explore import MAX_CHAINS, MAX_PLAN_STEPS, HopElement, NodeElement
from kgrag.prompts import ANSWER_SYSTEM
from coe_fixtures import TAYLOR_ANSWER, TAYLOR_PATH, TAYLOR_QUESTION, taylor_fixture
from kgrag import CoEngine


def chain(*labels: str):
    """Alternating node/hop chain from label strings."""
    elements = []
    for i, label in enumerate(labels):
        if i % 2 == 0:
            elements.append(NodeElement(f"n{i}", label))
        else:
            elements.append(HopElement(f"n{i-1}", label, f"n{i+1}"))
    return tuple(elements)


class _Sentinel:
    """Provider that records whether it was called at all."""

    def __init__(self):
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        raise AssertionError("provider must not be called")


# ------------------------------------------------------------ format_paths

def test_format_single_chain():
    text = format_paths([chain("Elizabeth Taylor", "married", "Michael Wilding",
                               "died in", "Chichester, West Sussex")])
    assert text == TAYLOR_PATH


def test_format_multiple_chains_one_per_line():
    chains = [chain("A", "r", "B"), chain("C", "s", "D")]
    assert format_paths(chains) == "(A)-[r]->(B)\n(C)-[s]->(D)"


def test_format_single_node_chain():
    assert format_paths([chain("Lonely")]) == "(Lonely)"


def test_format_escapes_structural_characters():
    text = format_paths([chain("Family (Guy)", "has [episode]", "Pilot")])
    assert text == r"(Family \(Guy\))-[has \[episode\]]->(Pilot)"


def test_format_rejects_empty():
    with pytest.raises(ValueError):
        format_paths([])


# -------------------------------------------------------- generate_answer

def test_failure_passes_through_without_llm_call():
    provider = _Sentinel()
    context = generate_answer(provider, "any question?", Failure())
    assert context.answer == FAILURE_MESSAGE
    assert context.grounded is False
    assert context.paths == ""
    assert provider.calls == 0


def test_custom_failure_message_preserved():
    context = generate_answer(_Sentinel(), "q?", Failure(message="nope"))
    assert context.answer == "nope"


def test_empty_chains_degrade_to_failure_without_llm_call():
    provider = _Sentinel()
    context = generate_answer(provider, "q?", Paths(chains=(), steps_taken=3))
    assert context.answer == FAILURE_MESSAGE
    assert context.grounded is False
    assert provider.calls == 0


def test_grounded_answer_includes_paths_in_prompt():
    provider = ScriptedProvider([ScriptRule("answer", TAYLOR_PATH, "  Michael Wilding \n")])
    paths = Paths(chains=(chain("Elizabeth Taylor", "married", "Michael Wilding",
                                "died in", "Chichester, West Sussex"),), steps_taken=4)
    context = generate_answer(provider, TAYLOR_QUESTION, paths)
    assert context.answer == "Michael Wilding"     # stripped
    assert context.grounded is True
    assert context.paths == TAYLOR_PATH
    assert context.question == TAYLOR_QUESTION


def test_provider_error_during_answering_degrades():
    provider = ScriptedProvider()                  # no rules: every call misses
    paths = Paths(chains=(chain("A", "r", "B"),), steps_taken=2)
    context = generate_answer(provider, "q?", paths)
    assert context.answer == FAILURE_MESSAGE
    assert context.grounded is False
    assert context.paths == "(A)-[r]->(B)"         # retrieval is still reported


def test_end_to_end_with_retrieval():
    graph, index, rules = taylor_fixture()
    provider = ScriptedProvider(rules)
    result = CoEngine(graph, index, provider).run(TAYLOR_QUESTION)
    context = generate_answer(provider, TAYLOR_QUESTION, result)
    assert context.answer == TAYLOR_ANSWER
    assert context.grounded is True
    assert context.paths == TAYLOR_PATH


# ------------------------------------------------- answer prompt size bound

def answer_prompt_bound(limits: Limits, question: str, longest_label_bytes: int) -> int:
    """Most bytes an answer prompt can take. A pass of a plan runs at most
    MAX_PLAN_STEPS steps and keeps at most ``max_current_nodes`` nodes per
    step, and a chain visits a node once; so a chain line holds at most that
    many nodes and one hop fewer, and at most MAX_CHAINS lines are written.
    Escaping at most doubles a label."""
    nodes = limits.max_current_nodes * MAX_PLAN_STEPS
    label = 2 * longest_label_bytes
    line = nodes * (label + len("()")) + (nodes - 1) * (label + len("-[]->")) + len("\n")
    header = len(ANSWER_SYSTEM.encode()) + len(f"Question: {question}\nPaths:\n".encode())
    return header + MAX_CHAINS * line


def _layered_graph(width: int, layers: int):
    """Each node of a layer linked to each node of the next by two labels."""
    graph = KnowledgeGraph()
    for layer in range(layers):
        for i in range(width):
            for j in range(width):
                for label in ("next", "then"):
                    graph.upsert_triple(TripleStatement(
                        Entity(f"layer{layer} node{i}"), label,
                        Entity(f"layer{layer + 1} node{j}")))
    return graph, index_graph(graph, HashingEmbedder())


_LAYERED = _layered_graph(4, 6)
_LONGEST_LABEL = max(len(label.encode()) for label in
                     [n.label for n in _LAYERED[0].nodes] + [e.label for e in _LAYERED[0].edges])
_EVERYTHING = " ".join(map(str, range(1, 13)))
_SELECTIONS = st.sampled_from([_EVERYTHING] * 4 + ["2 1", "3", "none"])
# Mostly replies that make the traversal fan out: long plans of REL steps,
# everything selected, "continue" until the last step and "respond" there.
_ANSWER_REPLIES = {
    "plan": st.lists(st.sampled_from(["REL: next", "REL: then", "REL: next", "NODE: layer3",
                                      "prose"]),
                     min_size=1, max_size=MAX_PLAN_STEPS - 1).map(
        lambda lines: "\n".join(["NODE: layer0 node"] + lines)),
    "select_nodes": _SELECTIONS,
    "select_rels": _SELECTIONS,
    "evaluate": st.sampled_from(["continue"] * 6 + ["respond", "refine", "hmm"]),
    "last evaluate": st.sampled_from(["respond"] * 3 + ["refine", "hmm"]),
}
_LAST_STEP = re.compile(r"Current step: (\d+) of \1\n")


class _DrawnRecordingProvider:
    """Draws every reply as the engine asks for it and keeps the answer
    prompt it is sent."""

    def __init__(self, data):
        self.data = data
        self.answer_bytes: int | None = None

    def complete(self, request):
        if request.tag == "answer":
            self.answer_bytes = sum(len(m.content.encode()) for m in request.messages)
            return LmResponse("an answer")
        kind = request.tag
        if kind == "evaluate" and _LAST_STEP.search(request.messages[-1].content):
            kind = "last evaluate"
        shaped = self.data.draw(st.sampled_from([True] * 9 + [False]), label="shaped")
        replies = _ANSWER_REPLIES[kind] if shaped else st.text(max_size=20)
        return LmResponse(self.data.draw(replies, label=kind))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 3), st.integers(1, 5))
def test_answer_prompt_stays_within_bound(data, node_k, rel_k, max_current):
    graph, index = _LAYERED
    limits = Limits(node_k, rel_k, max_current)
    provider = _DrawnRecordingProvider(data)
    question = "Which node of layer 6 follows layer0?"
    result = CoEngine(graph, index, provider, limits).run(question)
    generate_answer(provider, question, result)
    if isinstance(result, Paths):
        assert len(result.chains) <= MAX_CHAINS
    if provider.answer_bytes is not None:
        assert provider.answer_bytes <= answer_prompt_bound(limits, question, _LONGEST_LABEL)


def test_answer_prompt_of_a_cut_chain_list_stays_within_bound():
    """Select everything at every step of a six-step plan: 4 * 8 ** 6 chains
    in full, MAX_CHAINS of them in the prompt."""
    graph, index = _LAYERED
    limits = Limits(4, 2, 4)
    plan = "\n".join(["NODE: layer0 node"] + ["REL: next"] * 6)
    provider = ScriptedProvider([
        ScriptRule("plan", "", plan),
        ScriptRule("select_nodes", "", _EVERYTHING),
        ScriptRule("select_rels", "", _EVERYTHING),
        ScriptRule("evaluate", "", "continue"),
        ScriptRule("evaluate", "Current step: 7 of", "respond"),
        ScriptRule("answer", "", "layer6 node0"),
    ])
    question = "Which node of layer 6 follows layer0?"
    result = CoEngine(graph, index, provider, limits).run(question)
    context = generate_answer(provider, question, result)
    assert context.grounded
    assert len(context.paths.splitlines()) == MAX_CHAINS
    prompt = len(ANSWER_SYSTEM.encode()) + len(f"Question: {question}\nPaths:\n".encode()) \
        + len(context.paths.encode())
    assert prompt <= answer_prompt_bound(limits, question, _LONGEST_LABEL)
