"""Command-line interface: ingest documents, build the index, query, eval.

Exit code 0 means the pipeline completed (a no-answer reply included);
exit code 1 means a configuration, IO, or provider fault, or an ``eval``
in which some question's pipeline raised.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .answering import generate_answer
from .embedding import (
    HashingEmbedder,
    HttpEmbeddingProvider,
    IndexFormatError,
    index_graph,
    load_index,
    plan_index,
    save_index,
)
from .explore import CoEngine, Limits, TraceRecorder
from .extraction import (
    DEFAULT_CHUNK_CHARS,
    DEFAULT_OVERLAP_CHARS,
    ExtractionHalted,
    ExtractionReport,
    extract_and_store,
)
from .graph import (
    GraphFormatError,
    GraphIntegrityError,
    KnowledgeGraph,
    _SURROGATE,
    _open_for_write,
    load_graph,
    save_graph,
)
from .llm import HttpChatProvider, ProviderError, ScriptedProvider
from .metrics import evaluate_dataset, load_dataset

logger = logging.getLogger(__name__)

ENV_LM_KEY = "KGRAG_LM_KEY"
ENV_LM_ENDPOINT = "KGRAG_LM_ENDPOINT"
ENV_EMBED_ENDPOINT = "KGRAG_EMBED_ENDPOINT"
ENV_EMBED_KEY = "KGRAG_EMBED_KEY"


class ConfigError(Exception):
    pass


def build_provider(args) -> ScriptedProvider | HttpChatProvider:
    if args.provider == "scripted":
        if not args.script:
            raise ConfigError("--provider scripted requires --script")
        if not Path(args.script).exists():
            raise ConfigError(f"script file not found: {args.script}")
        try:
            return ScriptedProvider.from_jsonl(args.script)
        except ValueError as exc:
            raise ConfigError(f"unreadable script file {args.script}: {exc}") from None
    endpoint = args.endpoint or os.environ.get(ENV_LM_ENDPOINT)
    if not endpoint:
        raise ConfigError(f"--provider http requires --endpoint or ${ENV_LM_ENDPOINT}")
    return HttpChatProvider(endpoint, api_key=os.environ.get(ENV_LM_KEY))


def build_embedder(args):
    endpoint = getattr(args, "embed_endpoint", None) or os.environ.get(ENV_EMBED_ENDPOINT)
    if endpoint:
        return HttpEmbeddingProvider(endpoint, api_key=os.environ.get(ENV_EMBED_KEY))
    return HashingEmbedder()


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True))


def _load_graph_or_fail(path: str) -> KnowledgeGraph:
    if not Path(path).exists():
        raise ConfigError(f"graph file not found: {path} (run ingest first)")
    try:
        return load_graph(path)
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise ConfigError(f"unreadable graph file {path}: {exc}") from exc


def _load_audited_graph(path: str) -> KnowledgeGraph:
    graph = _load_graph_or_fail(path)
    try:
        graph.audit()
    except GraphIntegrityError as exc:
        raise ConfigError(f"graph file {path} fails its audit: {exc}") from None
    return graph


def _read_documents(paths: list[str]) -> list[tuple[str, str]]:
    documents: list[tuple[str, str]] = []
    for path_text in paths:
        path = Path(path_text)
        if not path.exists():
            raise ConfigError(f"input file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"unreadable input file {path}: {exc}") from None
        if path.suffix != ".jsonl":
            documents.append((path.name, text))
            continue
        for lineno, raw in enumerate(text.split("\n"), 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                document = str(record["doc_id"]), str(record["text"])
            except (ValueError, RecursionError, KeyError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad document record: {exc}") from None
            if any(not field.isascii() and _SURROGATE.search(field) for field in document):
                raise ConfigError(f"{path}:{lineno}: bad document record: "
                                  "doc_id or text holds a lone surrogate")
            documents.append(document)
    return documents


def cmd_ingest(args) -> int:
    provider = build_provider(args)
    documents = _read_documents(args.inputs)
    graph_path = Path(args.graph)
    graph = _load_audited_graph(args.graph) if graph_path.exists() else KnowledgeGraph()
    report = ExtractionReport()
    halted: ExtractionHalted | None = None
    for doc_id, text in documents:
        try:
            report.merge(extract_and_store(graph, provider, doc_id, text,
                                           args.chunk_chars, args.overlap_chars))
        except ExtractionHalted as exc:
            report.merge(exc.report)
            halted = exc
            break
    save_graph(graph, graph_path)
    _print_json(report.to_dict())
    if halted is not None:
        print(f"error: {halted}", file=sys.stderr)
        return 1
    return 0


def cmd_index(args) -> int:
    graph = _load_audited_graph(args.graph)
    embedder = build_embedder(args)
    try:
        index = index_graph(graph, embedder)
    except ProviderError as exc:
        built = getattr(exc, "entries_built", 0)
        print(f"error: indexing aborted after {built} entries: {exc}", file=sys.stderr)
        return 1
    save_index(index, args.index)
    _print_json({"entries": len(index)})
    return 0


def _build_engine(args, trace_stream=None) -> CoEngine:
    graph = _load_graph_or_fail(args.graph)
    if not Path(args.index).exists():
        raise ConfigError(f"index file not found: {args.index} (run index first)")
    try:
        index = load_index(args.index, build_embedder(args))
    except IndexFormatError as exc:
        raise ConfigError(f"unreadable index file {args.index}: {exc}") from exc
    if (index.ref_ids, index.texts, index.nodes) != plan_index(graph):
        raise ConfigError("index does not match graph (run index again)")
    provider = build_provider(args)
    limits = Limits(node_candidates=args.topk, relationship_candidates=args.topk)
    trace = TraceRecorder(trace_stream) if trace_stream is not None else None
    return CoEngine(graph, index, provider, limits=limits, trace=trace)


def _with_trace(args, run):
    if args.trace:
        with _open_for_write(args.trace) as stream:
            return run(stream)
    return run(None)


def cmd_query(args) -> int:
    def run(stream) -> int:
        engine = _build_engine(args, stream)
        result = engine.run(args.question)
        answer = generate_answer(engine.provider, args.question, result)
        print(answer.answer)
        return 0

    return _with_trace(args, run)


def cmd_eval(args) -> int:
    if not Path(args.dataset).exists():
        raise ConfigError(f"dataset not found: {args.dataset}")
    try:
        examples, problems = load_dataset(args.dataset)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"unreadable dataset {args.dataset}: {exc}") from None
    for problem in problems:
        logger.warning("skipping dataset %s", problem)

    def run(stream) -> int:
        engine = _build_engine(args, stream)

        def pipeline(question: str) -> str:
            result = engine.run(question)
            return generate_answer(engine.provider, question, result).answer

        report = evaluate_dataset(pipeline, examples, jobs=args.jobs)
        payload = report.to_dict()
        payload["skipped_lines"] = len(problems)
        text = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)
        if args.out:
            with _open_for_write(args.out) as f:
                f.write(text + "\n")
        print(text)
        if report.errors:
            print(f"error: {report.errors} of {report.n} questions raised", file=sys.stderr)
            return 1
        return 0

    return _with_trace(args, run)


def cmd_stats(args) -> int:
    graph = _load_graph_or_fail(args.graph)
    _print_json(graph.stats().to_dict())
    return 0


def _check_numbers(args) -> None:
    """Refuse numeric options that no command can run with."""
    if args.command in ("query", "eval") and args.topk < 1:
        raise ConfigError(f"--topk must be at least 1, not {args.topk}")
    if args.command == "eval" and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, not {args.jobs}")
    if args.command == "ingest":
        if args.overlap_chars < 0:
            raise ConfigError(f"--overlap-chars must not be negative, not {args.overlap_chars}")
        if args.chunk_chars <= args.overlap_chars:
            raise ConfigError(f"--chunk-chars ({args.chunk_chars}) must exceed "
                              f"--overlap-chars ({args.overlap_chars})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgrag",
        description="Knowledge-graph RAG: extract triples, index, and answer "
                    "questions by graph exploration.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO instead of WARNING")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", default="graph.jsonl", help="graph JSONL path")
    common.add_argument("--index", default="index.bin", help="index file path")
    common.add_argument("--provider", choices=("scripted", "http"), default="scripted",
                        help="LM backend (default: scripted)")
    common.add_argument("--script", help="JSONL rule file for the scripted provider")
    common.add_argument("--endpoint", help=f"chat endpoint URL (or ${ENV_LM_ENDPOINT})")
    common.add_argument("--embed-endpoint",
                        help=f"embedding endpoint URL (or ${ENV_EMBED_ENDPOINT}); "
                             "defaults to the offline hashing embedder")
    # The options of the two commands that run the engine.
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--topk", type=int, default=10,
                        help="candidates shown to the model per step")
    engine.add_argument("--trace", help="write a JSONL event trace to this path")

    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", parents=[common],
                              help="extract triples from documents into the graph")
    p_ingest.add_argument("inputs", nargs="+",
                          help="text files, or .jsonl files of {doc_id, text} records")
    p_ingest.add_argument("--chunk-chars", type=int, default=DEFAULT_CHUNK_CHARS)
    p_ingest.add_argument("--overlap-chars", type=int, default=DEFAULT_OVERLAP_CHARS)
    p_ingest.set_defaults(func=cmd_ingest)

    p_index = sub.add_parser("index", parents=[common],
                             help="embed graph content into the search index")
    p_index.set_defaults(func=cmd_index)

    p_query = sub.add_parser("query", parents=[common, engine],
                             help="answer one question against the graph")
    p_query.add_argument("question")
    p_query.set_defaults(func=cmd_query)

    p_eval = sub.add_parser("eval", parents=[common, engine],
                            help="score the pipeline over a JSONL dataset")
    p_eval.add_argument("dataset")
    p_eval.add_argument("--jobs", type=int, default=1,
                        help="evaluate examples in parallel")
    p_eval.add_argument("--out", help="also write the report JSON to this path")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", parents=[common], help="print graph statistics")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        _check_numbers(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ProviderError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
