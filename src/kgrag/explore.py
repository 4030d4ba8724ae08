"""LM-guided chain-of-explorations traversal over the knowledge graph.

One run plans exploration steps, alternates node and relationship
exploration under LM selection, and after every step asks the LM whether to
continue, refine the plan, or respond. Each explored step leaves one
:class:`StepRecord`; the evaluate and refine prompts show one bounded line
per record, and the chains are walked from the records' hops. Refinement
restarts the traversal from step 1 with no records; three failed tries end
the run with the fixed failure message.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from itertools import takewhile
from typing import Generator, Sequence, Union

from .embedding import EmbeddingIndex, StaleIndexError
from .graph import EdgeRecord, KnowledgeGraph, UnknownNodeError
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
# Most chains a run returns, so the answer prompt stays bounded however
# many start-to-end routes the traveled hops allow.
MAX_CHAINS = 100
# Most hops the chain walk looks at in a run. A node that two steps reach can
# block every branch beneath it, so the walk is not bounded by its output.
MAX_CHAIN_HOPS = 100_000


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
class StepRecord:
    """One explored step: its plan ordinal, the relationship labels it chose
    (none for a NODE step), the hops it traveled, and the nodes it picked or
    reached, which became the current nodes."""

    ordinal: int
    labels: tuple[str, ...]
    hops: tuple[HopElement, ...]
    nodes: tuple[NodeElement, ...]


@dataclass(frozen=True)
class EvalOutcome:
    verdict: Verdict
    rationale: str = ""


@dataclass
class TraversalState:
    current_nodes: list[str] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)
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
    """Collects run events in ``events``, or, given a stream, writes each as
    one JSONL line and keeps none, so a long ``eval --trace`` holds no events
    in memory. Safe to share between the threads of ``eval --jobs N``: each
    event is kept or written whole, one at a time."""

    def __init__(self, stream=None):
        self.events: list[dict] = []
        self._stream = stream
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        with self._lock:
            if self._stream is None:
                self.events.append(event)
            else:
                self._stream.write(json.dumps(event, ensure_ascii=False, sort_keys=True) + "\n")


class _DiscardingRecorder(TraceRecorder):
    """The engine's recorder when none is given: keeps no events, so a
    long-lived engine does not grow with every question it answers."""

    def emit(self, event: dict) -> None:
        pass


# An optional "step N", numbering and punctuation, then NODE: or REL:. No
# two whitespace quantifiers meet, so a whitespace run matches one way only:
# a run that two quantifiers could split backtracks polynomially in its length.
_PLAN_LINE = re.compile(r"^(?:step\s+(?:\d+\s*)?|\d*\s*)(?:[-.):*]+\s*)?(NODE|REL)\s*:\s*(.+)$",
                        re.IGNORECASE)


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
    return ExplorationPlan(tuple(steps))


def _significant(run: str) -> str:
    """A run of decimal digits, of any script, without its leading zeros."""
    for at, digit in enumerate(run):
        if unicodedata.decimal(digit):
            return run[at:]
    return ""


def parse_ordinals(text: str, count: int) -> list[int]:
    """Integers found in the reply, filtered to 1..count, deduplicated in
    reply order. A reply like "none" yields an empty list. A run with more
    significant digits than ``count`` is out of range and is skipped
    unread, so no run is too long for ``int``."""
    picks: list[int] = []
    most = len(str(count))
    for token in re.findall(r"\d+", text):
        token = _significant(token)
        if not token or len(token) > most:
            continue
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


def format_steps(steps: Sequence[StepRecord]) -> str:
    """One line per step: ``N. NODE: A; B`` or ``N. REL r1, r2 -> T1; T2``.
    A line holds at most ``relationship_candidates`` labels and
    ``max_current_nodes`` nodes, so its length does not grow with the hops."""
    lines = []
    for step in steps:
        nodes = "; ".join(node.label for node in step.nodes)
        lines.append(f"{step.ordinal}. REL {', '.join(step.labels)} -> {nodes}" if step.labels
                     else f"{step.ordinal}. NODE: {nodes}")
    return "\n".join(lines) or "(nothing traveled)"


def relationship_candidates(index: EmbeddingIndex, groups: dict[str, list[EdgeRecord]],
                            instruction: str, m: int) -> list[tuple[EdgeRecord, float]]:
    """The labels of ``groups``, as :meth:`KnowledgeGraph.label_groups`
    gives them, each shown as its group's first edge, ranked against a step
    instruction by the label's indexed vector and truncated to the top m."""
    ranked = index.search(instruction, m, labels=groups)
    return [(groups[entry.ref_id][0], score) for entry, score in ranked]


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

    # ------------------------------------------------------ asking the model

    def _ask(self, tag: str, system: str, user: str) -> str:
        """The model's reply to one system + user request; every request the
        engine sends is built here."""
        request = LmRequest([ChatMessage("system", system), ChatMessage("user", user)],
                            tag=tag)
        return self.provider.complete(request).content

    def _select(self, tag: str, system: str, step: ExplorationStep, question: str,
                candidate_texts: Sequence[str], what: str) -> list[int]:
        """0-based positions of the candidates the model picks from the
        numbered listing, in reply order; no pick raises EmptySelection."""
        listing = "\n".join(f"{i}. {text}" for i, text in enumerate(candidate_texts, 1))
        reply = self._ask(tag, system, f"Question: {question}\nStep: {step.instruction}\n"
                                       f"Candidates:\n{listing}")
        picks = parse_ordinals(reply, len(candidate_texts))
        if not picks:
            raise EmptySelection(f"model selected no {what}")
        return [i - 1 for i in picks]

    def _cut(self, items: list, what: str) -> list:
        """At most ``max_current_nodes`` of ``items``, warning when some go."""
        limit = self.limits.max_current_nodes
        if len(items) > limit:
            logger.warning("truncating %s from %d to %d", what, len(items), limit)
        return items[:limit]

    # ------------------------------------------------------------ planning

    def plan(self, question: str) -> ExplorationPlan:
        return parse_plan(self._ask(TAG_PLAN, PLAN_SYSTEM + "\n" + PLAN_EXAMPLES,
                                    f"Question: {question}"))

    def refine(self, plan: ExplorationPlan, question: str,
               state: TraversalState) -> ExplorationPlan:
        return parse_plan(self._ask(TAG_PLAN, PLAN_SYSTEM,
                                    f"{REFINE_PREAMBLE}\n\nQuestion: {question}\n"
                                    f"Failed plan:\n{plan.text()}\n"
                                    f"Path traveled before failing:\n{format_steps(state.steps)}"))

    # ------------------------------------------------------- exploration

    def explore_nodes(self, state: TraversalState, step: ExplorationStep,
                      question: str) -> None:
        results = self.index.search(step.instruction, self.limits.node_candidates)
        if not results:
            raise EmptySelection("vector search returned no node candidates")
        self.trace.emit({
            "event": "node_candidates", "step": step.ordinal,
            "candidates": [{"label": e.text, "score": round(s, 6)} for e, s in results],
        })
        picks = self._select(TAG_SELECT_NODES, SELECT_NODES_SYSTEM, step, question,
                             [entry.text for entry, _ in results], "node candidates")
        selected = self._cut([results[i][0] for i in picks], "node selection")
        state.current_nodes = [entry.ref_id for entry in selected]
        state.steps.append(StepRecord(step.ordinal, (), (),
                                      tuple(NodeElement(e.ref_id, e.text) for e in selected)))
        self.trace.emit({
            "event": "node_selection", "step": step.ordinal,
            "selected": [e.text for e in selected],
        })
        for entry in selected:      # a stale index ends the run before evaluation
            self.graph.node(entry.ref_id)

    def explore_relationships(self, state: TraversalState, step: ExplorationStep,
                              question: str) -> None:
        if not state.current_nodes:
            raise EmptySelection("no current nodes to explore from")
        groups = self.graph.label_groups(state.current_nodes)
        ranked = relationship_candidates(self.index, groups, step.instruction,
                                         self.limits.relationship_candidates)
        if not ranked:
            raise EmptySelection("current nodes have no outgoing relationships")
        self.trace.emit({
            "event": "relationship_candidates", "step": step.ordinal,
            "labels": [{"label": e.label, "score": round(s, 6)} for e, s in ranked],
        })
        picks = self._select(TAG_SELECT_RELS, SELECT_RELS_SYSTEM, step, question,
                             [edge.label for edge, _ in ranked], "relationship labels")
        selected = [ranked[i][0] for i in picks]
        wanted = sorted({edge.canonical for edge in selected})
        followed = [edge for canonical in wanted for edge in groups[canonical]]
        targets = self._cut(sorted(map(self.graph.node, {edge.target for edge in followed}),
                                   key=lambda n: n.canonical), "target set")
        kept_ids = {n.id for n in targets}
        state.steps.append(StepRecord(
            step.ordinal, tuple(edge.label for edge in selected),
            tuple(HopElement(edge.source, edge.label, edge.target)
                  for edge in followed if edge.target in kept_ids),
            tuple(NodeElement(n.id, n.label) for n in targets)))
        state.current_nodes = [n.id for n in targets]
        self.trace.emit({
            "event": "relationship_selection", "step": step.ordinal,
            "selected": [edge.label for edge in selected],
            "targets": [n.label for n in targets],
        })

    # -------------------------------------------------------- evaluation

    def evaluate(self, state: TraversalState, question: str,
                 plan: ExplorationPlan) -> EvalOutcome:
        reply = self._ask(TAG_EVALUATE, EVALUATE_SYSTEM,
                          f"Question: {question}\n"
                          f"Plan:\n{plan.text()}\n"
                          f"Current step: {state.current_step} of {len(plan.steps)}\n"
                          f"Path traveled:\n{format_steps(state.steps)}")
        verdict = parse_verdict(reply)
        if verdict is None:
            # Unreadable judgment: treat as a failed direction, not a crash.
            return EvalOutcome(Verdict.NEEDS_REFINEMENT,
                               f"unparseable evaluation: {reply.strip()!r}")
        return EvalOutcome(verdict, reply.strip())

    # --------------------------------------------------------------- run

    def run(self, question: str) -> RetrievalResult:
        try:
            return self._run(question)
        except ProviderError as exc:
            logger.error("provider failure during exploration: %s", exc)
            self.trace.emit({"event": "result", "type": "failure",
                             "cause": f"provider error: {exc}"})
            return Failure()
        except (StaleIndexError, UnknownNodeError) as exc:
            # The index names a label or a node the graph does not have, or
            # has another width than the embedder's vectors.
            logger.error("index does not match graph: %s", exc)
            self.trace.emit({"event": "result", "type": "failure",
                             "cause": f"stale index: {exc} (run index again)"})
            return Failure()

    def _trace_plan(self, plan: ExplorationPlan, failed_tries: int) -> None:
        self.trace.emit({"event": "plan", "failed_tries": failed_tries,
                         "steps": [{"kind": s.kind.value, "instruction": s.instruction}
                                   for s in plan.steps]})

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
        self._trace_plan(plan, failed_tries)

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
                    self._trace_plan(plan, state.failed_tries + 1)
                except PlanParseError as exc:
                    logger.warning("refinement produced no usable plan (%s); keeping "
                                   "the previous plan", exc)
                    self.trace.emit({"event": "plan_rejected", "reason": str(exc),
                                     "failed_tries": state.failed_tries + 1})
                state = TraversalState(failed_tries=state.failed_tries + 1)
                self.trace.emit({"event": "refined",
                                 "failed_tries": state.failed_tries,
                                 "current_step": state.current_step,
                                 "path_len": len(state.steps)})
            elif outcome.verdict is Verdict.CONTINUE:
                state.current_step += 1
            else:  # RESPOND
                walk = iter_chains(state.steps, state.current_nodes)
                chains: list[tuple[PathElement, ...]] = []
                try:
                    while len(chains) <= MAX_CHAINS:
                        chains.append(next(walk))
                except StopIteration as stop:
                    if stop.value:
                        self.trace.emit({"event": "chains_cut", "kept": len(chains),
                                         "cause": "hop budget"})
                else:
                    chains.pop()
                    self.trace.emit({"event": "chains_cut", "kept": MAX_CHAINS})
                result = Paths(tuple(chains), steps_taken=state.current_step)
                self.trace.emit({"event": "result", "type": "paths",
                                 "steps_taken": result.steps_taken,
                                 "chains": len(result.chains)})
                return result
        self.trace.emit({"event": "result", "type": "failure",
                         "cause": "plan exhausted or too many failed tries"})
        return Failure()


def iter_chains(steps: Sequence[StepRecord], current_nodes: Sequence[str]
                ) -> Generator[tuple[PathElement, ...], None, bool]:
    """Chains that follow the plan: a node picked before the first REL step,
    then one traveled hop from each later REL step, in step order, ending at
    any current node they reach. Chains alternate NodeElement and HopElement,
    none visits a node twice, and they come lazily in depth-first order: by
    start, then by the order the hops were traveled. Returns True when the
    walk stopped at :data:`MAX_CHAIN_HOPS` hops, keeping the chains found."""
    layers = [step for step in steps if step.hops]
    starts = {node.node_id: node for step in takewhile(lambda step: not step.hops, steps)
              for node in step.nodes}
    ends = set(current_nodes)
    # Backward over the layers: each keeps, by source, only the hops into a
    # node from which the later layers reach an end, each with that node.
    # The last entry stands for the hops after the last layer: none.
    onward: list[dict[str, list[tuple[HopElement, NodeElement]]]] = [{}]
    reach = ends
    for layer in reversed(layers):
        targets = {node.node_id: node for node in layer.nodes}
        by_source: dict[str, list[tuple[HopElement, NodeElement]]] = {}
        for hop in layer.hops:
            if hop.target in reach:
                by_source.setdefault(hop.source, []).append((hop, targets[hop.target]))
        onward.insert(0, by_source)
        reach = ends | by_source.keys()
    examined = 0

    # One level per layer, so the recursion is at most MAX_PLAN_STEPS deep.
    def extend(trail: tuple[PathElement, ...], visited: set[str], depth: int):
        nonlocal examined
        if trail[-1].node_id in ends:
            yield trail
        for hop, node in onward[depth].get(trail[-1].node_id, ()):
            examined += 1
            if examined > MAX_CHAIN_HOPS:
                return
            if hop.target not in visited:
                yield from extend(trail + (hop, node), visited | {hop.target}, depth + 1)

    for start in starts.values():
        if examined > MAX_CHAIN_HOPS:
            break
        yield from extend((start,), {start.node_id}, 0)
    return examined > MAX_CHAIN_HOPS
