"""In-memory span recorder and the hooks that feed it.

Spans are recorded from the benchmark's side only: by wrapping functions and
methods of kgrag's modules at the layer boundaries, and by the provider and
embedder wrappers the workers inject. Each span is
``[name, start, end, parent, phase, request_id, count]``; ``count`` is a
per-layer work count taken from the call's result. A hook whose target no
longer exists is listed in ``Tracer.missing`` and otherwise ignored.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (span name, "module:qualname", work count taken from the result)
HOOKS = (
    ("triples.parse", "kgrag.extraction:parse_extraction_block", lambda r: len(r[0])),
    ("graph.upsert", "kgrag.graph:KnowledgeGraph.upsert_triple", lambda r: int(r.created_any)),
    ("graph.neighbors", "kgrag.graph:KnowledgeGraph.neighbors", len),
    ("graph.target_nodes", "kgrag.graph:KnowledgeGraph.target_nodes", len),
    ("graph.audit", "kgrag:KnowledgeGraph.audit", None),
    ("graph.save", "kgrag:save_graph", None),
    ("graph.load", "kgrag:load_graph", None),
    ("embedding.build", "kgrag:index_graph", None),
    ("embedding.save", "kgrag:save_index", None),
    ("embedding.load", "kgrag:load_index", None),
    ("embedding.search", "kgrag:EmbeddingIndex.search", None),
    ("explore.run", "kgrag:CoEngine.run", None),
    ("explore.plan", "kgrag:CoEngine.plan", None),
    ("explore.refine", "kgrag:CoEngine.refine", None),
    ("explore.node_step", "kgrag:CoEngine.explore_nodes", None),
    ("explore.rel_step", "kgrag:CoEngine.explore_relationships", None),
    ("explore.evaluate", "kgrag:CoEngine.evaluate", None),
    ("answering.generate", "kgrag:generate_answer", None),
)

# Spans of the engine itself; their self time is engine overhead.
ENGINE_SPANS = ("explore.run", "explore.plan", "explore.refine", "explore.node_step",
                "explore.rel_step", "explore.evaluate")

# Durations are kept per span name only up to this many spans; beyond it a
# summary carries totals alone.
_KEEP_DURATIONS = 20000


class Tracer:
    """Records spans while ``active``; ``install`` swaps the hooks in."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.phase = ""
        self.request_id: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------- recording

    def call(self, name: str, fn, args, kwargs, counter=None):
        if not self.active:
            return fn(*args, **kwargs)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.phase, self.request_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        if counter is not None:
            record[6] = counter(result)
        return result

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    # ------------------------------------------------------------ hooking

    def install(self) -> None:
        """Swap every resolvable hook target for a tracing wrapper."""
        self.missing = []
        for name, target, counter in HOOKS:
            module_name, qualname = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            own = attr in vars(owner)
            self._patched.append((owner, attr, original, own))
            setattr(owner, attr, self.wrap(name, original, counter))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched = []

    # ----------------------------------------------------------- summary

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Per ``phase:name``: span count, total and self seconds, work count,
        and the durations and self times themselves when not too many."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        groups: dict[str, dict] = {}
        for i, (name, start, end, _, phase, _, count) in enumerate(self.spans):
            group = groups.setdefault(f"{phase}:{name}", {
                "n": 0, "total": 0.0, "self_total": 0.0, "count": 0,
                "durations": [], "selfs": []})
            duration = end - start
            group["n"] += 1
            group["total"] += duration
            group["self_total"] += duration - child_time[i]
            group["count"] += count
            if group["n"] <= _KEEP_DURATIONS:
                group["durations"].append(duration)
                group["selfs"].append(duration - child_time[i])
        return groups
