"""Plan parsing, state transitions, refinement control flow, and full runs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag import (
    CoEngine,
    FAILURE_MESSAGE,
    Failure,
    HashingEmbedder,
    KnowledgeGraph,
    Limits,
    LmResponse,
    Paths,
    ProviderError,
    RecordingProvider,
    ScriptRule,
    ScriptedProvider,
    TraceRecorder,
    index_graph,
    parse_triple,
    run_coe,
)
from kgrag.explore import (
    EmptySelection,
    ExplorationStep,
    HopElement,
    NodeElement,
    MAX_FAILED_TRIES,
    MAX_PLAN_STEPS,
    PlanParseError,
    StepKind,
    TraversalState,
    Verdict,
    assemble_chains,
    format_path_elements,
    node_candidates,
    parse_ordinals,
    parse_plan,
    parse_verdict,
    relationship_candidates,
)
from coe_fixtures import (
    REFINE_QUESTION,
    TAYLOR_PLAN,
    TAYLOR_QUESTION,
    _STEP1,
    _STEP2,
    refinement_fixture,
    taylor_fixture,
)

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
    assert plan.raw == raw


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


# -------------------------------------------------------- reply parsing

def test_parse_ordinals():
    assert parse_ordinals("1,3", 5) == [1, 3]
    assert parse_ordinals("2 and 4, maybe 99", 5) == [2, 4]
    assert parse_ordinals("3, 3, 1", 5) == [3, 1]
    assert parse_ordinals("none", 5) == []
    assert parse_ordinals("", 5) == []
    assert parse_ordinals("0 and 6", 5) == []


def test_parse_verdict():
    assert parse_verdict("CONTINUE") is Verdict.CONTINUE
    assert parse_verdict("refine the plan") is Verdict.NEEDS_REFINEMENT
    assert parse_verdict("Respond now.") is Verdict.RESPOND
    assert parse_verdict("we should respond, not continue") is Verdict.RESPOND
    assert parse_verdict("continue, do not respond yet") is Verdict.CONTINUE
    assert parse_verdict("no idea") is None
    assert parse_verdict("") is None


def test_format_path_elements():
    elements = [
        NodeElement("n1", "Elizabeth Taylor"),
        HopElement("n1", "married", "n2"),
        NodeElement("n2", "Michael Wilding"),
    ]
    assert format_path_elements(elements) == (
        "node: Elizabeth Taylor\n"
        "hop: (Elizabeth Taylor)-[married]->(Michael Wilding)\n"
        "node: Michael Wilding"
    )
    assert format_path_elements([]) == ""


# ------------------------------------------------------------- candidates

def test_node_candidates_rank_matching_label_first():
    graph, index, _ = taylor_fixture()
    results = node_candidates(index, _STEP1, 10)
    assert results[0][0].text == "Elizabeth Taylor"
    assert len(results) == 10
    assert all(entry.kind in ("node", "hypernode") for entry, _ in results)


def test_relationship_candidates_are_distinct_outgoing_labels():
    graph, index, _ = taylor_fixture()
    liz = graph.find_node("Elizabeth Taylor").id
    ranked = relationship_candidates(graph, index.embedder, [liz], _STEP2, 10)
    labels = [label for label, _ in ranked]
    assert set(labels) >= {"married", "married to", "co-starred with"}
    assert len(labels) == len(set(labels))
    # structural labels stay hidden even for ids with hypernode involvement
    assert all(not label.startswith("_") for label in labels)


def test_relationship_candidates_truncate_to_m():
    graph, index, _ = taylor_fixture()
    liz = graph.find_node("Elizabeth Taylor").id
    assert len(relationship_candidates(graph, index.embedder, [liz], _STEP2, 2)) == 2


def test_relationship_candidates_empty_for_leaf():
    graph, index, _ = taylor_fixture()
    leaf = graph.find_node("Chichester, West Sussex").id
    assert relationship_candidates(graph, index.embedder, [leaf], "anything", 10) == []


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
    assert [e.label for e in state.path_traveled] == ["Elizabeth Taylor", "Liz Taylor"]


def test_explore_relationships_moves_to_targets():
    engine, graph = taylor_engine()
    state = TraversalState()
    engine.explore_nodes(state, ExplorationStep(1, NODE, _STEP1), TAYLOR_QUESTION)
    engine.explore_relationships(state, ExplorationStep(2, REL, _STEP2), TAYLOR_QUESTION)
    labels = [graph.node(i).label for i in state.current_nodes]
    # the three husbands, canonical order
    assert labels == ["Conrad Nicky Hilton Jr", "Eddie Fisher", "Michael Wilding"]
    hops = [e for e in state.path_traveled if isinstance(e, HopElement)]
    assert {(h.label,) for h in hops} == {("married",), ("married to",), ("was married to",)}


def test_explore_relationships_requires_current_nodes():
    engine, _ = taylor_engine()
    with pytest.raises(EmptySelection):
        engine.explore_relationships(TraversalState(),
                                     ExplorationStep(2, REL, _STEP2), TAYLOR_QUESTION)


def test_explore_relationships_dead_end_raises_empty_selection():
    engine, graph = taylor_engine()
    leaf = graph.find_node("Chichester, West Sussex").id
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
    state = TraversalState(current_nodes=[graph.find_node("hub").id])
    engine.explore_relationships(state, ExplorationStep(2, REL, "follow the links"),
                                 "which items hang off the hub?")
    assert len(state.current_nodes) == 25
    labels = [graph.node(i).label for i in state.current_nodes]
    assert labels[0] == "item 01" and labels[-1] == "item 25"


def test_evaluate_parses_scripted_verdict():
    engine, graph = taylor_engine()
    state = TraversalState(current_nodes=[graph.find_node("Elizabeth Taylor").id])
    plan = parse_plan(TAYLOR_PLAN)
    outcome = engine.evaluate(state, TAYLOR_QUESTION, plan)
    assert outcome.verdict is Verdict.CONTINUE


def test_evaluate_unparseable_means_refine():
    graph, index, _ = taylor_fixture()
    provider = ScriptedProvider([ScriptRule("evaluate", "", "hmm, unclear")])
    engine = CoEngine(graph, index, provider)
    state = TraversalState(current_nodes=[graph.find_node("Elizabeth Taylor").id])
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
    provider = RecordingProvider(ScriptedProvider(rules))
    result = CoEngine(graph, index, provider).run(TAYLOR_QUESTION)
    assert isinstance(result, Paths)
    tags = [r["tag"] for r in provider.records]
    assert tags == [
        "plan",
        "select_nodes", "evaluate",
        "select_rels", "evaluate",
        "select_rels", "evaluate",
        "select_nodes", "evaluate",
    ]


def test_run_is_stateless_across_questions():
    engine, _ = taylor_engine()
    first = engine.run(TAYLOR_QUESTION)
    second = engine.run(TAYLOR_QUESTION)
    assert isinstance(first, Paths) and isinstance(second, Paths)
    assert first == second


def test_run_convenience_wrapper():
    graph, index, rules = taylor_fixture()
    result = run_coe(ScriptedProvider(rules), graph, index, TAYLOR_QUESTION)
    assert isinstance(result, Paths)


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


def test_empty_provider_degrades_to_failure():
    graph, index, _ = taylor_fixture()
    result = CoEngine(graph, index, ScriptedProvider()).run(TAYLOR_QUESTION)
    assert result == Failure()


def test_overlong_plans_count_as_failed_tries():
    graph, index, _ = taylor_fixture()
    overlong = "\n".join(["NODE: start"] * (MAX_PLAN_STEPS + 1))
    provider = RecordingProvider(ScriptedProvider([ScriptRule("plan", "", overlong)]))
    trace = TraceRecorder()
    result = CoEngine(graph, index, provider, trace=trace).run(TAYLOR_QUESTION)
    assert isinstance(result, Failure)
    assert len(provider.records) == MAX_FAILED_TRIES
    assert trace.events[-1]["cause"] == "no usable plan"


def test_default_engine_retains_no_events():
    engine, _ = taylor_engine()
    for _ in range(3):
        assert isinstance(engine.run(TAYLOR_QUESTION), Paths)
    assert engine.trace.events == []


def test_call_budget_is_reached_by_the_longest_refused_plans():
    graph, index, _ = taylor_fixture()
    longest = "\n".join([f"NODE: {_STEP1}"] * MAX_PLAN_STEPS)
    provider = RecordingProvider(ScriptedProvider([
        ScriptRule("plan", "", longest),
        ScriptRule("select_nodes", "", "1"),
        ScriptRule("evaluate", "", "continue"),
        ScriptRule("evaluate", f"Current step: {MAX_PLAN_STEPS} of", "refine"),
    ]))
    result = CoEngine(graph, index, provider).run(TAYLOR_QUESTION)
    assert isinstance(result, Failure)
    assert len(provider.records) == CALL_BUDGET


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
    """Draws every reply as the engine asks for it; ``None`` is a provider error."""

    def __init__(self, data):
        self.data = data
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        shaped = _REPLIES[request.tag]
        reply = self.data.draw(st.one_of(shaped, shaped, shaped, st.text(max_size=40),
                                         st.none()), label=request.tag)
        if reply is None:
            raise ProviderError("drawn failure")
        return LmResponse(reply)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_replies_end_in_paths_or_failure_within_budget(data):
    graph, index, _ = _TAYLOR
    provider = _DrawnProvider(data)
    result = CoEngine(graph, index, provider).run(TAYLOR_QUESTION)
    assert isinstance(result, (Paths, Failure))
    assert provider.calls <= CALL_BUDGET


# ---------------------------------------------------------- chain assembly

def test_assemble_chains_single_path():
    path = [
        NodeElement("a", "A"),
        HopElement("a", "r", "b"),
        NodeElement("b", "B"),
    ]
    chains = assemble_chains(path, ["b"])
    assert len(chains) == 1
    assert [e.label for e in chains[0]] == ["A", "r", "B"]


def test_assemble_chains_only_reaches_current_nodes():
    path = [
        NodeElement("a", "A"),
        HopElement("a", "r", "b"),
        NodeElement("b", "B"),
        HopElement("a", "r", "c"),
        NodeElement("c", "C"),
    ]
    chains = assemble_chains(path, ["c"])
    assert len(chains) == 1
    assert chains[0][-1].label == "C"


def test_assemble_chains_branching_emits_every_route():
    path = [
        NodeElement("a", "A"),
        HopElement("a", "r", "b"),
        NodeElement("b", "B"),
        HopElement("a", "s", "c"),
        NodeElement("c", "C"),
    ]
    chains = assemble_chains(path, ["b", "c"])
    assert len(chains) == 2
    endings = {chain[-1].label for chain in chains}
    assert endings == {"B", "C"}


def test_assemble_chains_handles_intermediate_current_node():
    # a current node can sit mid-path when the traversal stops early
    path = [
        NodeElement("a", "A"),
        HopElement("a", "r", "b"),
        NodeElement("b", "B"),
        HopElement("b", "s", "c"),
        NodeElement("c", "C"),
    ]
    chains = assemble_chains(path, ["b"])
    assert len(chains) == 1
    assert [e.label for e in chains[0]] == ["A", "r", "B"]


def test_assemble_chains_no_connection_gives_empty():
    path = [
        NodeElement("a", "A"),
        HopElement("a", "r", "b"),
        NodeElement("b", "B"),
    ]
    assert assemble_chains(path, ["zzz"]) == ()
    assert assemble_chains([], []) == ()


def test_assemble_chains_ignores_cycles():
    path = [
        NodeElement("a", "A"),
        HopElement("a", "r", "b"),
        NodeElement("b", "B"),
        HopElement("b", "s", "a"),
        NodeElement("a", "A"),
        HopElement("b", "t", "c"),
        NodeElement("c", "C"),
    ]
    chains = assemble_chains(path, ["c"])
    assert len(chains) == 1
    assert [e.label for e in chains[0]] == ["A", "r", "B", "t", "C"]


def test_assemble_chains_single_node_start_is_also_end():
    path = [NodeElement("a", "A")]
    chains = assemble_chains(path, ["a"])
    assert chains == ((NodeElement("a", "A"),),)
