"""One benchmark phase of kgrag in a fresh process.

``build`` does what ``kgrag ingest`` (twice) and ``kgrag index`` do: extract
the documents into an empty graph and save it, extract them again into the
saved graph, then load, audit, index and save the index. ``query`` does what
``kgrag query`` does: load the script, dataset, graph and index, build a
``CoEngine``, then answer questions one at a time in a closed loop.

Both run from the root of a checkout with ``PYTHONPATH=src``; run.py starts
them. The result, written as JSON to ``--out``, holds timings and what the
program returned; run.py checks and aggregates it. ``--spawned`` is the
CLOCK_MONOTONIC time at which run.py started this process, so ``setup_s``
covers interpreter start and imports.

The host this runs on changes speed by up to 1.7x for minutes at a time, so
a worker also times a fixed reference loop (``probe``) before every document
and every question, outside the timed work, and returns those probe times;
run.py scales the run's timings by them (see ``run.pace``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

import kgrag

from spans import Tracer

TOP_K = 10   # candidates per step; the generator's oracle ranks with the same k

# ----------------------------------------------------------- host pace

_scratch: dict[str, int] = {}
_floats = [i / 7 for i in range(64)]
PROBES: list[float] = []


def _reference_loop() -> int:
    """Fixed work of the kinds kgrag does: string formatting, dict updates
    and integer arithmetic in Python, and JSON encoding of floats in C. It
    allocates no object the garbage collector tracks, so it does not move
    the collector's schedule in the code under test."""
    _scratch.clear()
    acc = 0
    for i in range(300):
        key = "k%05d" % (i * 7919 % 1000)
        _scratch[key] = _scratch.get(key, 0) + len(key)
        acc = (acc * 31 + i) & 0xFFFFF
    return acc + len(json.dumps(_floats))


def probe() -> None:
    """Time the reference loop once, outside any timed step."""
    start = perf_counter()
    _reference_loop()
    PROBES.append(perf_counter() - start)


class MeteredProvider:
    """Counts model calls, prompt and reply characters per tag, and records
    an ``llm.complete`` span while tracing."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.calls = 0
        self.prompt_chars = 0
        self.by_tag: dict[str, dict[str, list[int]]] = {"traced": {}, "untraced": {}}

    def complete(self, request):
        response = self.tracer.call("llm.complete", self.inner.complete, (request,), {})
        prompt = sum(len(m.content) for m in request.messages)
        self.calls += 1
        self.prompt_chars += prompt
        mode = "traced" if self.tracer.active else "untraced"
        counts = self.by_tag[mode].setdefault(request.tag, [0, 0, 0])
        counts[0] += 1
        counts[1] += prompt
        counts[2] += len(response.content)
        return response


class MeteredEmbedder:
    """Records an ``embedding.embed`` span per call, counting texts."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.dim = getattr(inner, "dim", None)

    def embed(self, text):
        return self.tracer.call("embedding.embed", self.inner.embed, (text,), {}, lambda _: 1)

    def embed_batch(self, texts):
        return self.tracer.call("embedding.embed", self.inner.embed_batch, (texts,), {}, len)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


def _load_script(tracer: Tracer, path: Path) -> MeteredProvider:
    scripted = tracer.call("llm.script_load", kgrag.ScriptedProvider.from_jsonl, (path,), {})
    return MeteredProvider(scripted, tracer)


# --------------------------------------------------------------- build

def _extract_all(graph, provider, documents) -> tuple[dict, float]:
    """Extract every document into ``graph``; return the report counts and
    the seconds spent, not counting the probe taken before each document."""
    report = kgrag.ExtractionReport()
    spent = 0.0
    for doc_id, text in documents:
        probe()
        start = perf_counter()
        report.merge(kgrag.extract_and_store(graph, provider, doc_id, text))
        spent += perf_counter() - start
    counts = {"chunks": report.chunks_processed, "extracted": report.triples_extracted,
              "upserted": report.triples_upserted, "parse_errors": len(report.parse_errors)}
    return counts, spent


def _timed(fn, *args) -> tuple[object, float]:
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def build_cycle(documents, provider, tracer: Tracer, work: Path) -> dict:
    graph_dir = _fresh_dir(work / "graph")
    index_dir = _fresh_dir(work / "index")
    graph_path, index_path = graph_dir / "graph.jsonl", index_dir / "index.jsonl"
    embedder = MeteredEmbedder(kgrag.HashingEmbedder(), tracer)

    tracer.phase = "ingest"
    graph = kgrag.KnowledgeGraph()
    first, extract_s = _extract_all(graph, provider, documents)
    _, save_s = _timed(kgrag.save_graph, graph, graph_path)
    ingest_s = extract_s + save_s
    saved = _dir_digest(graph_dir)

    tracer.phase = "reingest"
    graph, load_s = _timed(kgrag.load_graph, graph_path)
    second, extract_s = _extract_all(graph, provider, documents)
    _, save_s = _timed(kgrag.save_graph, graph, graph_path)
    reingest_s = load_s + extract_s + save_s
    resaved = _dir_digest(graph_dir)

    tracer.phase = "index"
    start = perf_counter()
    graph = kgrag.load_graph(graph_path)
    try:
        graph.audit()
        audit_error = None
    except kgrag.GraphIntegrityError as exc:
        audit_error = str(exc)
    index = kgrag.index_graph(graph, embedder)
    kgrag.save_index(index, index_path)
    index_s = perf_counter() - start

    return {"traced": tracer.active, "ingest_s": ingest_s, "reingest_s": reingest_s,
            "index_s": index_s, "first": first, "second": second,
            "graph_digest": saved, "reingest_identical": saved == resaved,
            "stats": graph.stats().to_dict(), "audit_error": audit_error,
            "index_entries": len(index), "graph_bytes": _dir_bytes(graph_dir),
            "index_bytes": _dir_bytes(index_dir)}


def build(args, tracer: Tracer) -> dict:
    inputs = args.dir / "inputs"
    tracer.phase = "build-setup"
    tracer.active = args.trace
    provider = _load_script(tracer, inputs / "extract_script.jsonl")
    with open(inputs / "documents.jsonl", encoding="utf-8") as f:
        documents = [(r["doc_id"], r["text"]) for r in map(json.loads, f)]
    result = {"setup_s": time.monotonic() - args.spawned}
    tracer.active = False
    if args.setup_only:
        return result
    cycles = []
    while len(cycles) < args.cycles:
        # A traced run alternates untraced and traced cycles, for overhead.
        traced = args.trace and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        cycles.append(build_cycle(documents, provider, tracer, args.dir))
        if traced:
            tracer.uninstall()
    result["cycles"] = cycles
    result["llm"] = provider.by_tag
    result["documents"] = len(documents)
    return result


# --------------------------------------------------------------- query

def ask(engine, provider: MeteredProvider, example) -> dict:
    calls, chars = provider.calls, provider.prompt_chars
    probe()
    start = perf_counter()
    result = engine.run(example.question)
    answer = kgrag.generate_answer(provider, example.question, result)
    latency = perf_counter() - start
    return {"id": example.id, "latency": latency, "answer": answer.answer,
            "paths": answer.paths, "failure": answer.answer == kgrag.FAILURE_MESSAGE,
            "calls": provider.calls - calls, "prompt_chars": provider.prompt_chars - chars}


def query(args, tracer: Tracer) -> dict:
    inputs = args.dir / "inputs"
    tracer.phase = "query-setup"
    if args.trace:
        tracer.install()
    examples, problems = kgrag.load_dataset(inputs / "dataset.jsonl")
    provider = _load_script(tracer, inputs / "qa_script.jsonl")
    graph = kgrag.load_graph(args.dir / "graph" / "graph.jsonl")
    embedder = MeteredEmbedder(kgrag.HashingEmbedder(), tracer)
    index = kgrag.load_index(args.dir / "index" / "index.jsonl", embedder)
    engine = kgrag.CoEngine(graph, index, provider,
                            limits=kgrag.Limits(node_candidates=TOP_K,
                                                relationship_candidates=TOP_K))
    result = {"setup_s": time.monotonic() - args.spawned,
              "examples": len(examples), "dataset_problems": len(problems)}
    tracer.uninstall()
    if args.setup_only:
        return result
    tracer.phase = "query"
    records = []
    for asked, example in enumerate(examples[:args.count]):
        if not args.trace:
            records.append(ask(engine, provider, example))
            continue
        # Each question runs untraced and traced, in alternating order.
        for traced in ((False, True) if asked % 2 else (True, False)):
            tracer.request_id = example.id
            if traced:
                tracer.install()
            record = ask(engine, provider, example)
            if traced:
                tracer.uninstall()
            record["traced"] = traced
            records.append(record)
    result["records"] = records
    result["llm"] = provider.by_tag
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("build", "query"))
    parser.add_argument("--dir", type=Path, required=True, help="workload directory")
    parser.add_argument("--out", type=Path, required=True, help="result JSON path")
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC time the process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cycles", type=int, default=1, help="build cycles")
    parser.add_argument("--count", type=int, default=None,
                        help="ask only the first COUNT questions")
    args = parser.parse_args()
    tracer = Tracer()
    result = (build if args.mode == "build" else query)(args, tracer)
    result["probes"] = PROBES
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace and not args.setup_only:
        tracer.dump(args.dir / f"spans-{args.mode}.jsonl")
        result["spans"] = tracer.summary()
        result["hooks_missing"] = tracer.missing
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
