"""Shared deterministic fixtures: a marriage/death-place graph with a
scripted traversal, and a 20+5 question occupation benchmark.

Ordinal responses for the scripted provider are computed from the live
ranking at build time, so a ranking change shows up as a loud build error
instead of a silently wrong selection.
"""

from __future__ import annotations

import json

from kgrag import (
    HashingEmbedder,
    KnowledgeGraph,
    QaExample,
    ScriptRule,
    index_graph,
    parse_triple,
)
from kgrag.embedding import EmbeddingIndex
from kgrag.explore import (
    MAX_FAILED_TRIES,
    Limits,
    relationship_candidates,
)
from kgrag.prompts import REFINE_PREAMBLE
from graph_oracle import find_node

LIMITS = Limits()

TAYLOR_TRIPLES = [
    "(Elizabeth Taylor)-[married]->(Michael Wilding)",
    "(Elizabeth Taylor)-[married to]->(Conrad Nicky Hilton Jr)",
    "(Liz Taylor)-[was married to]->(Eddie Fisher)",
    "(Michael Wilding)-[died in]->(Chichester, West Sussex)",
    "(Michael Wilding)-[died in]->(hospital near his home in Sussex town of Chichester)",
    "(Eddie Fisher)-[died in]->(Berkeley, California)",
    "(Conrad Nicky Hilton Jr)-[died in]->(Los Angeles)",
    "(Elizabeth Taylor)-[co-starred with]->(Richard Burton)",
    "(Richard Burton)-[died in]->(Celigny)",
    "(Elizabeth Taylor)-[born in]->(London)",
    "(Elizabeth Taylor)-[occupation]->(actress)",
    "(Michael Wilding)-[born in]->(Westcliff-on-Sea)",
    "(Eddie Fisher)-[occupation]->(singer)",
    "(Liz Taylor)-[also known as]->(Elizabeth Taylor)",
    "((Elizabeth Taylor)-[married]->(Michael Wilding))-[in]->(1952)",
]

TAYLOR_QUESTION = "Which former husband of Elizabeth Taylor died in Chichester?"
TAYLOR_ANSWER = "Michael Wilding"
TAYLOR_PATH = ("(Elizabeth Taylor)-[married]->(Michael Wilding)"
               "-[died in]->(Chichester, West Sussex)")

_STEP1 = "Start at the target entity Elizabeth Taylor"
_STEP2 = "List the former husbands of Elizabeth Taylor"
_STEP3 = "Identify the place of death of each husband"
_STEP4 = "Isolate the husband who died in Chichester"

TAYLOR_PLAN = f"NODE: {_STEP1}\nREL: {_STEP2}\nREL: {_STEP3}\nNODE: {_STEP4}"


class CapturingProvider:
    """Answers through ``inner`` and keeps every request, in call order."""

    def __init__(self, inner):
        self.inner, self.requests = inner, []

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)


def save_script(rules: list[ScriptRule], sink) -> None:
    """Write ``rules`` as the JSONL rule file ``ScriptedProvider.from_jsonl``
    reads."""
    with open(sink, "w", encoding="utf-8") as f:
        for rule in rules:
            f.write(json.dumps(
                {"tag": rule.tag, "match_substring": rule.match_substring,
                 "response": rule.response},
                ensure_ascii=False, sort_keys=True) + "\n")


def build_graph(triples: list[str]) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for line in triples:
        graph.upsert_triple(parse_triple(line))
    return graph


def node_pick(index: EmbeddingIndex, instruction: str, wanted: list[str],
              k: int = LIMITS.node_candidates) -> str:
    """Ordinal reply selecting exactly the wanted labels among the live
    candidate listing for this instruction."""
    results = index.search(instruction, k)
    shown = [entry.text for entry, _ in results]
    picks = []
    for label in wanted:
        if label not in shown:
            raise AssertionError(f"{label!r} not in candidates for {instruction!r}: {shown}")
        picks.append(shown.index(label) + 1)
    return ",".join(str(p) for p in picks)


def rel_pick(graph: KnowledgeGraph, index: EmbeddingIndex, current_labels: list[str],
             instruction: str, wanted: list[str],
             m: int = LIMITS.relationship_candidates) -> str:
    node_ids = [find_node(graph, label).id for label in current_labels]
    ranked = relationship_candidates(index, graph.label_groups(node_ids), instruction, m)
    shown = [edge.label for edge, _ in ranked]
    picks = []
    for label in wanted:
        if label not in shown:
            raise AssertionError(f"{label!r} not in labels for {instruction!r}: {shown}")
        picks.append(shown.index(label) + 1)
    return ",".join(str(p) for p in picks)


def taylor_fixture() -> tuple[KnowledgeGraph, EmbeddingIndex, list[ScriptRule]]:
    graph = build_graph(TAYLOR_TRIPLES)
    index = index_graph(graph, HashingEmbedder())
    rules = [
        ScriptRule("plan", TAYLOR_QUESTION, TAYLOR_PLAN),
        ScriptRule("select_nodes", _STEP1,
                   node_pick(index, _STEP1, ["Elizabeth Taylor", "Liz Taylor"])),
        ScriptRule("select_rels", _STEP2,
                   rel_pick(graph, index, ["Elizabeth Taylor", "Liz Taylor"], _STEP2,
                            ["married to", "married", "was married to"])),
        ScriptRule("select_rels", _STEP3,
                   rel_pick(graph, index,
                            ["Michael Wilding", "Conrad Nicky Hilton Jr", "Eddie Fisher"],
                            _STEP3, ["died in"])),
        ScriptRule("select_nodes", _STEP4,
                   node_pick(index, _STEP4, ["Chichester, West Sussex"])),
        ScriptRule("evaluate", "", "CONTINUE"),
        ScriptRule("evaluate", "Current step: 4 of 4", "RESPOND"),
        ScriptRule("answer", TAYLOR_QUESTION, TAYLOR_ANSWER),
    ]
    return graph, index, rules


# ----------------------------------------------------------- benchmark

_PEOPLE = [
    ("Alice Moreau", "architect"),
    ("Boris Tanaka", "botanist"),
    ("Clara Obuya", "cartographer"),
    ("Declan Voss", "drummer"),
    ("Elena Marsh", "engraver"),
    ("Farid Kowalski", "falconer"),
    ("Greta Lindqvist", "glassblower"),
    ("Hugo Abara", "historian"),
    ("Imre Castellanos", "illustrator"),
    ("Jonas Whitfield", "jeweler"),
    ("Katya Brennan", "locksmith"),
    ("Lorenzo Achebe", "milliner"),
    ("Maeve Okafor", "novelist"),
    ("Nadia Sorensen", "oboist"),
    ("Oskar Delacroix", "printmaker"),
    ("Priya Vandenberg", "quarryman"),
    ("Quentin Ferreira", "roofer"),
    ("Rosa Lindgren", "sailmaker"),
    ("Stefan Okonkwo", "tanner"),
    ("Tamsin Veldhuis", "upholsterer"),
]

_ABSENT = [
    "Zorblatt Henkins",
    "Quixilver Montague",
    "Vexley Tarrowmere",
    "Umbrielle Fastolfe",
    "Yorvand Pellucid",
]

_MISSING_STEP = "locate the missing person"


def _question(name: str) -> str:
    return f"What is the occupation of {name}?"


def benchmark_fixture() -> tuple[
    KnowledgeGraph, EmbeddingIndex, list[ScriptRule],
    list[QaExample], list[QaExample],
]:
    """Graph of 20 occupation facts plus scripted rules answering all 20
    questions and dead-ending 5 questions about absent people."""
    triples = [f"({name})-[works as]->({job})" for name, job in _PEOPLE]
    graph = build_graph(triples)
    index = index_graph(graph, HashingEmbedder())

    rules = [
        ScriptRule("evaluate", "", "CONTINUE"),
        ScriptRule("evaluate", "Current step: 2 of 2", "RESPOND"),
        ScriptRule("select_rels", "follow the works-as relation", "1"),
        ScriptRule("select_nodes", _MISSING_STEP, "none"),
        ScriptRule("plan", REFINE_PREAMBLE,
                   f"NODE: {_MISSING_STEP} again\nREL: follow the works-as relation"),
    ]
    examples: list[QaExample] = []
    for i, (name, job) in enumerate(_PEOPLE, 1):
        question = _question(name)
        step1 = f"locate the person named {name}"
        rules.append(ScriptRule(
            "plan", question,
            f"NODE: {step1}\nREL: follow the works-as relation of {name}"))
        rules.append(ScriptRule("select_nodes", step1, node_pick(index, step1, [name])))
        rules.append(ScriptRule("answer", question, job))
        examples.append(QaExample(id=f"q{i:02d}", question=question, gold_answers=(job,)))

    absent_examples: list[QaExample] = []
    for i, name in enumerate(_ABSENT, 1):
        question = _question(name)
        rules.append(ScriptRule(
            "plan", question,
            f"NODE: {_MISSING_STEP} {name}\nREL: follow the works-as relation"))
        absent_examples.append(
            QaExample(id=f"a{i:02d}", question=question, gold_answers=("unknown",)))
    return graph, index, rules, examples, absent_examples


# ----------------------------------------------------- refinement control

REFINE_QUESTION = "Which node does the alpha relation reach?"
REFINE_ANSWER = "omega node"

_FIND_STEP = "find the alpha node"
_DEAD_STEPS = ["follow the first dead end", "follow the second dead end"]
_REAL_STEP = "follow the real relation"


def _refine_plan(rel_step: str) -> str:
    return f"NODE: {_FIND_STEP}\nREL: {rel_step}"


def refinement_fixture(dead_ends: int) -> tuple[
    KnowledgeGraph, EmbeddingIndex, list[ScriptRule],
]:
    """Scripted run that dead-ends ``dead_ends`` times before a working plan.

    With ``dead_ends`` of 2 the run succeeds on the third attempt; at 3 or
    more the script keeps handing back a dead plan, so the run exhausts its
    tries and fails.
    """
    graph = build_graph(["(alpha node)-[real relation]->(omega node)",
                         "(beta node)-[side relation]->(gamma node)"])
    index = index_graph(graph, HashingEmbedder())
    rules = [
        ScriptRule("select_nodes", _FIND_STEP,
                   node_pick(index, _FIND_STEP, ["alpha node"])),
        ScriptRule("select_rels", _REAL_STEP,
                   rel_pick(graph, index, ["alpha node"], _REAL_STEP,
                            ["real relation"])),
        ScriptRule("evaluate", "", "CONTINUE"),
        ScriptRule("evaluate", "Current step: 2 of 2", "RESPOND"),
        ScriptRule("answer", REFINE_QUESTION, REFINE_ANSWER),
    ]
    for step in _DEAD_STEPS:
        rules.append(ScriptRule("select_rels", step, "none"))
    if dead_ends >= MAX_FAILED_TRIES:
        # never recover: every plan and every refinement is the same dead end
        rules.append(ScriptRule("plan", REFINE_QUESTION, _refine_plan(_DEAD_STEPS[0])))
        rules.append(ScriptRule("plan", REFINE_PREAMBLE, _refine_plan(_DEAD_STEPS[0])))
        return graph, index, rules
    plans = [_refine_plan(step) for step in _DEAD_STEPS[:dead_ends]] + \
        [_refine_plan(_REAL_STEP)]
    rules.append(ScriptRule("plan", REFINE_QUESTION, plans[0]))
    for failed, replacement in zip(plans, plans[1:]):
        # key each refinement on the failed plan quoted back in the prompt
        rules.append(ScriptRule("plan", f"Failed plan:\n{failed}", replacement))
    return graph, index, rules
