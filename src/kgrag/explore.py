"""LM-guided chain-of-explorations traversal over the knowledge graph.

One run plans exploration steps, alternates node and relationship
exploration under LM selection, and after every step asks the LM whether to
continue, refine the plan, or respond. Refinement restarts the traversal
from step 1 with an empty path; three failed tries end the run with the
fixed failure message.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence, Union

from .embedding import NODE_KINDS, EmbeddingIndex, rank_labels
from .graph import KnowledgeGraph, normalize_label
from .llm import (
    TAG_EVALUATE,
    TAG_PLAN,
    TAG_SELECT_NODES,
    TAG_SELECT_RELS,
    ChatMessage,
    LmRequest,
    ProviderError,
)
from .prompts import (
    EVALUATE_SYSTEM,
    PLAN_EXAMPLES,
    PLAN_SYSTEM,
    REFINE_PREAMBLE,
    SELECT_NODES_SYSTEM,
    SELECT_RELS_SYSTEM,
)

logger = logging.getLogger(__name__)

FAILURE_MESSAGE = "I am sorry, I could not find an answer to your question."
MAX_FAILED_TRIES = 3
# Longest plan accepted; with MAX_FAILED_TRIES it bounds the model calls per run.
MAX_PLAN_STEPS = 16


class StepKind(Enum):
    NODE_EXPLORATION = "node_exploration"
    RELATIONSHIP_EXPLORATION = "relationship_exploration"


class Verdict(Enum):
    CONTINUE = "continue"
    NEEDS_REFINEMENT = "needs_refinement"
    RESPOND = "respond"


class PlanParseError(Exception):
    """The LM output could not be read as a valid exploration plan."""


class EmptySelection(Exception):
    """A step produced no usable candidates or selections; treated as an
    evaluation trigger (needs refinement), never as a crash."""


@dataclass(frozen=True)
class ExplorationStep:
    ordinal: int            # 1-based position in the plan
    kind: StepKind
    instruction: str


@dataclass(frozen=True)
class ExplorationPlan:
    steps: tuple[ExplorationStep, ...]
    raw: str

    def text(self) -> str:
        prefixes = {StepKind.NODE_EXPLORATION: "NODE", StepKind.RELATIONSHIP_EXPLORATION: "REL"}
        return "\n".join(f"{prefixes[s.kind]}: {s.instruction}" for s in self.steps)


@dataclass(frozen=True)
class NodeElement:
    node_id: str
    label: str


@dataclass(frozen=True)
class HopElement:
    source: str
    label: str
    target: str


PathElement = Union[NodeElement, HopElement]


@dataclass(frozen=True)
class EvalOutcome:
    verdict: Verdict
    rationale: str = ""


@dataclass
class TraversalState:
    current_nodes: list[str] = field(default_factory=list)
    path_traveled: list[PathElement] = field(default_factory=list)
    current_step: int = 1
    failed_tries: int = 0


@dataclass(frozen=True)
class Paths:
    """Successful retrieval: chains alternate NodeElement and HopElement,
    each running from a step-1 node to one of the final current nodes."""

    chains: tuple[tuple[PathElement, ...], ...]
    steps_taken: int


@dataclass(frozen=True)
class Failure:
    message: str = FAILURE_MESSAGE


RetrievalResult = Union[Paths, Failure]


@dataclass(frozen=True)
class Limits:
    node_candidates: int = 10
    relationship_candidates: int = 10
    max_current_nodes: int = 25


class TraceRecorder:
    """Collects run events; optionally mirrors them to a JSONL stream."""

    def __init__(self, stream=None):
        self.events: list[dict] = []
        self._stream = stream

    def emit(self, event: dict) -> None:
        self.events.append(event)
        if self._stream is not None:
            self._stream.write(json.dumps(event, ensure_ascii=False, sort_keys=True) + "\n")


class _DiscardingRecorder(TraceRecorder):
    """The engine's recorder when none is given: keeps no events, so a
    long-lived engine does not grow with every question it answers."""

    def emit(self, event: dict) -> None:
        pass


_PLAN_LINE = re.compile(r"^(?:step\s+)?\d*\s*[-.):*]*\s*(NODE|REL)\s*:\s*(.+)$", re.IGNORECASE)


def parse_plan(raw: str) -> ExplorationPlan:
    """Read NODE:/REL: lines; anything else is ignored. No usable line, more
    than :data:`MAX_PLAN_STEPS` of them, or a first step that is not node
    exploration raises :class:`PlanParseError`."""
    steps: list[ExplorationStep] = []
    for line in raw.splitlines():
        match = _PLAN_LINE.match(line.strip())
        if not match:
            continue
        kind = (StepKind.NODE_EXPLORATION if match.group(1).upper() == "NODE"
                else StepKind.RELATIONSHIP_EXPLORATION)
        instruction = match.group(2).strip()
        if not instruction:
            continue
        if len(steps) == MAX_PLAN_STEPS:
            raise PlanParseError(f"plan has more than {MAX_PLAN_STEPS} steps")
        steps.append(ExplorationStep(len(steps) + 1, kind, instruction))
    if not steps:
        raise PlanParseError("no NODE:/REL: plan lines found")
    if steps[0].kind is not StepKind.NODE_EXPLORATION:
        raise PlanParseError("plan must begin with a NODE: step")
    return ExplorationPlan(tuple(steps), raw)


def parse_ordinals(text: str, count: int) -> list[int]:
    """Integers found in the reply, filtered to 1..count, deduplicated in
    reply order. A reply like "none" yields an empty list."""
    picks: list[int] = []
    for token in re.findall(r"\d+", text):
        value = int(token)
        if 1 <= value <= count and value not in picks:
            picks.append(value)
    return picks


def parse_verdict(text: str) -> Verdict | None:
    """Earliest verdict keyword wins; None when no keyword is present."""
    lowered = text.lower()
    hits = []
    for keyword, verdict in (("respond", Verdict.RESPOND),
                             ("continue", Verdict.CONTINUE),
                             ("refine", Verdict.NEEDS_REFINEMENT)):
        position = lowered.find(keyword)
        if position != -1:
            hits.append((position, verdict))
    if not hits:
        return None
    return min(hits)[1]


def format_path_elements(elements: Sequence[PathElement]) -> str:
    """Human- and script-readable rendering of the traveled path, one
    element per line."""
    labels = {e.node_id: e.label for e in elements if isinstance(e, NodeElement)}
    lines: list[str] = []
    for element in elements:
        if isinstance(element, NodeElement):
            lines.append(f"node: {element.label}")
        else:
            source = labels.get(element.source, element.source)
            target = labels.get(element.target, element.target)
            lines.append(f"hop: ({source})-[{element.label}]->({target})")
    return "\n".join(lines)


def node_candidates(index: EmbeddingIndex, instruction: str, k: int):
    """Node and hypernode entries ranked against a step instruction."""
    return index.search(instruction, k, kinds=NODE_KINDS)


def relationship_candidates(graph: KnowledgeGraph, embedder, node_ids: Sequence[str],
                            instruction: str, m: int) -> list[tuple[str, float]]:
    """Distinct outgoing non-structural labels of the id set, ranked against
    a step instruction, truncated to the top m."""
    display_by_canonical: dict[str, str] = {}
    for edge in graph.neighbors(node_ids, "out", include_structural=False):
        display_by_canonical.setdefault(normalize_label(edge.label), edge.label)
    if not display_by_canonical:
        return []
    labels = [display_by_canonical[c] for c in sorted(display_by_canonical)]
    return rank_labels(embedder, labels, instruction)[:m]


class CoEngine:
    """One engine per (graph, index, provider); ``run`` is stateless across
    calls, so a single engine may serve many questions."""

    def __init__(self, graph: KnowledgeGraph, index: EmbeddingIndex, provider,
                 limits: Limits | None = None, trace: TraceRecorder | None = None):
        self.graph = graph
        self.index = index
        self.provider = provider
        self.limits = limits or Limits()
        self.trace = trace if trace is not None else _DiscardingRecorder()

    # ------------------------------------------------------------ planning

    def plan(self, question: str) -> ExplorationPlan:
        request = LmRequest(
            [ChatMessage("system", PLAN_SYSTEM + "\n" + PLAN_EXAMPLES),
             ChatMessage("user", f"Question: {question}")],
            tag=TAG_PLAN,
        )
        response = self.provider.complete(request)
        return parse_plan(response.content)

    def refine(self, plan: ExplorationPlan, question: str,
               state: TraversalState) -> ExplorationPlan:
        path_text = format_path_elements(state.path_traveled) or "(nothing traveled)"
        request = LmRequest(
            [ChatMessage("system", PLAN_SYSTEM),
             ChatMessage("user",
                         f"{REFINE_PREAMBLE}\n\nQuestion: {question}\n"
                         f"Failed plan:\n{plan.text()}\n"
                         f"Path traveled before failing:\n{path_text}")],
            tag=TAG_PLAN,
        )
        response = self.provider.complete(request)
        return parse_plan(response.content)

    # ------------------------------------------------------- exploration

    def explore_nodes(self, state: TraversalState, step: ExplorationStep,
                      question: str) -> None:
        results = node_candidates(self.index, step.instruction, self.limits.node_candidates)
        if not results:
            raise EmptySelection("vector search returned no node candidates")
        self.trace.emit({
            "event": "node_candidates", "step": step.ordinal,
            "candidates": [{"label": e.text, "score": round(s, 6)} for e, s in results],
        })
        listing = "\n".join(f"{i}. {entry.text}" for i, (entry, _) in enumerate(results, 1))
        request = LmRequest(
            [ChatMessage("system", SELECT_NODES_SYSTEM),
             ChatMessage("user",
                         f"Question: {question}\nStep: {step.instruction}\n"
                         f"Candidates:\n{listing}")],
            tag=TAG_SELECT_NODES,
        )
        response = self.provider.complete(request)
        picks = parse_ordinals(response.content, len(results))
        if not picks:
            raise EmptySelection("model selected no node candidates")
        selected = [results[i - 1][0] for i in picks]
        if len(selected) > self.limits.max_current_nodes:
            logger.warning("truncating node selection from %d to %d",
                           len(selected), self.limits.max_current_nodes)
            selected = selected[: self.limits.max_current_nodes]
        state.current_nodes = [entry.ref_id for entry in selected]
        state.path_traveled.extend(NodeElement(e.ref_id, e.text) for e in selected)
        self.trace.emit({
            "event": "node_selection", "step": step.ordinal,
            "selected": [e.text for e in selected],
        })

    def explore_relationships(self, state: TraversalState, step: ExplorationStep,
                              question: str) -> None:
        if not state.current_nodes:
            raise EmptySelection("no current nodes to explore from")
        ranked = relationship_candidates(self.graph, self.index.embedder,
                                         state.current_nodes, step.instruction,
                                         self.limits.relationship_candidates)
        if not ranked:
            raise EmptySelection("current nodes have no outgoing relationships")
        self.trace.emit({
            "event": "relationship_candidates", "step": step.ordinal,
            "labels": [{"label": l, "score": round(s, 6)} for l, s in ranked],
        })
        listing = "\n".join(f"{i}. {label}" for i, (label, _) in enumerate(ranked, 1))
        request = LmRequest(
            [ChatMessage("system", SELECT_RELS_SYSTEM),
             ChatMessage("user",
                         f"Question: {question}\nStep: {step.instruction}\n"
                         f"Candidates:\n{listing}")],
            tag=TAG_SELECT_RELS,
        )
        response = self.provider.complete(request)
        picks = parse_ordinals(response.content, len(ranked))
        if not picks:
            raise EmptySelection("model selected no relationship labels")
        selected_labels = [ranked[i - 1][0] for i in picks]
        wanted = {normalize_label(l) for l in selected_labels}
        targets = self.graph.target_nodes(state.current_nodes, selected_labels)
        if not targets:
            raise EmptySelection("selected relationships lead nowhere")
        if len(targets) > self.limits.max_current_nodes:
            logger.warning("truncating target set from %d to %d",
                           len(targets), self.limits.max_current_nodes)
            targets = targets[: self.limits.max_current_nodes]
        kept_ids = {n.id for n in targets}
        hops = [
            HopElement(edge.source, edge.label, edge.target)
            for edge in self.graph.neighbors(state.current_nodes, "out",
                                             include_structural=False)
            if normalize_label(edge.label) in wanted and edge.target in kept_ids
        ]
        state.path_traveled.extend(hops)
        state.path_traveled.extend(NodeElement(n.id, n.label) for n in targets)
        state.current_nodes = [n.id for n in targets]
        self.trace.emit({
            "event": "relationship_selection", "step": step.ordinal,
            "selected": selected_labels, "targets": [n.label for n in targets],
        })

    # -------------------------------------------------------- evaluation

    def evaluate(self, state: TraversalState, question: str,
                 plan: ExplorationPlan) -> EvalOutcome:
        path_text = format_path_elements(state.path_traveled) or "(nothing traveled)"
        current_labels = [self.graph.node(i).label for i in state.current_nodes]
        request = LmRequest(
            [ChatMessage("system", EVALUATE_SYSTEM),
             ChatMessage("user",
                         f"Question: {question}\n"
                         f"Plan:\n{plan.text()}\n"
                         f"Current step: {state.current_step} of {len(plan.steps)}\n"
                         f"Path traveled:\n{path_text}\n"
                         f"Current nodes: {', '.join(current_labels)}")],
            tag=TAG_EVALUATE,
        )
        response = self.provider.complete(request)
        verdict = parse_verdict(response.content)
        if verdict is None:
            # Unreadable judgment: treat as a failed direction, not a crash.
            return EvalOutcome(Verdict.NEEDS_REFINEMENT,
                               f"unparseable evaluation: {response.content.strip()!r}")
        return EvalOutcome(verdict, response.content.strip())

    # --------------------------------------------------------------- run

    def run(self, question: str) -> RetrievalResult:
        try:
            return self._run(question)
        except ProviderError as exc:
            logger.error("provider failure during exploration: %s", exc)
            self.trace.emit({"event": "result", "type": "failure",
                             "cause": f"provider error: {exc}"})
            return Failure()

    def _run(self, question: str) -> RetrievalResult:
        failed_tries = 0
        plan: ExplorationPlan | None = None
        while plan is None and failed_tries < MAX_FAILED_TRIES:
            try:
                plan = self.plan(question)
            except PlanParseError as exc:
                failed_tries += 1
                logger.warning("rejecting plan (%s); failed tries now %d", exc, failed_tries)
                self.trace.emit({"event": "plan_rejected", "reason": str(exc),
                                 "failed_tries": failed_tries})
        if plan is None:
            self.trace.emit({"event": "result", "type": "failure",
                             "cause": "no usable plan"})
            return Failure()
        self.trace.emit({"event": "plan", "failed_tries": failed_tries,
                         "steps": [{"kind": s.kind.value, "instruction": s.instruction}
                                   for s in plan.steps]})

        state = TraversalState(failed_tries=failed_tries)
        while state.current_step <= len(plan.steps) and state.failed_tries < MAX_FAILED_TRIES:
            step = plan.steps[state.current_step - 1]
            try:
                if step.kind is StepKind.NODE_EXPLORATION:
                    self.explore_nodes(state, step, question)
                else:
                    self.explore_relationships(state, step, question)
                outcome = self.evaluate(state, question, plan)
            except EmptySelection as exc:
                outcome = EvalOutcome(Verdict.NEEDS_REFINEMENT, f"empty selection: {exc}")
            self.trace.emit({"event": "verdict", "step": step.ordinal,
                             "verdict": outcome.verdict.value,
                             "rationale": outcome.rationale})
            if outcome.verdict is Verdict.NEEDS_REFINEMENT:
                try:
                    plan = self.refine(plan, question, state)
                    self.trace.emit({"event": "plan",
                                     "failed_tries": state.failed_tries + 1,
                                     "steps": [{"kind": s.kind.value,
                                                "instruction": s.instruction}
                                               for s in plan.steps]})
                except PlanParseError as exc:
                    logger.warning("refinement produced no usable plan (%s); keeping "
                                   "the previous plan", exc)
                    self.trace.emit({"event": "plan_rejected", "reason": str(exc),
                                     "failed_tries": state.failed_tries + 1})
                state.current_nodes = []
                state.path_traveled = []
                state.current_step = 1
                state.failed_tries += 1
                self.trace.emit({"event": "refined",
                                 "failed_tries": state.failed_tries,
                                 "current_step": state.current_step,
                                 "path_len": len(state.path_traveled)})
            elif outcome.verdict is Verdict.CONTINUE:
                state.current_step += 1
            else:  # RESPOND
                chains = assemble_chains(state.path_traveled, state.current_nodes)
                result = Paths(chains, steps_taken=state.current_step)
                self.trace.emit({"event": "result", "type": "paths",
                                 "steps_taken": result.steps_taken,
                                 "chains": len(result.chains)})
                return result
        self.trace.emit({"event": "result", "type": "failure",
                         "cause": "plan exhausted or too many failed tries"})
        return Failure()


def assemble_chains(path: Sequence[PathElement],
                    current_nodes: Sequence[str]) -> tuple[tuple[PathElement, ...], ...]:
    """Connected chains from a step-1 node to a current node, using only the
    hops actually traveled. Chains alternate NodeElement and HopElement."""
    labels: dict[str, str] = {}
    starts: list[str] = []
    before_first_hop = True
    hops: list[HopElement] = []
    seen_hops: set[tuple[str, str, str]] = set()
    for element in path:
        if isinstance(element, NodeElement):
            labels[element.node_id] = element.label
            if before_first_hop and element.node_id not in starts:
                starts.append(element.node_id)
        else:
            before_first_hop = False
            key = (element.source, element.label, element.target)
            if key not in seen_hops and element.source in labels:
                seen_hops.add(key)
                hops.append(element)
    adjacency: dict[str, list[HopElement]] = {}
    for hop in hops:
        if hop.target in labels:
            adjacency.setdefault(hop.source, []).append(hop)
    ends = set(current_nodes)
    chains: list[tuple[PathElement, ...]] = []
    emitted: set[tuple] = set()

    def extend(node_id: str, trail: list[PathElement], visited: set[str]) -> None:
        if node_id in ends:
            chain = tuple(trail)
            if chain not in emitted:
                emitted.add(chain)
                chains.append(chain)
        for hop in adjacency.get(node_id, ()):
            if hop.target in visited:
                continue
            trail.append(hop)
            trail.append(NodeElement(hop.target, labels[hop.target]))
            visited.add(hop.target)
            extend(hop.target, trail, visited)
            visited.discard(hop.target)
            trail.pop()
            trail.pop()

    for start in starts:
        extend(start, [NodeElement(start, labels[start])], {start})
    return tuple(chains)


def run_coe(provider, graph: KnowledgeGraph, index: EmbeddingIndex, question: str,
            limits: Limits | None = None,
            trace: TraceRecorder | None = None) -> RetrievalResult:
    """Convenience wrapper over :class:`CoEngine` for one-shot runs."""
    return CoEngine(graph, index, provider, limits, trace).run(question)
