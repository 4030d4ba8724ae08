"""End-to-end command-line tests: ingest, index, stats, query, eval."""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from kgrag import (
    HashingEmbedder,
    IndexFormatError,
    ScriptRule,
    index_graph,
    load_graph,
    load_index,
    save_graph,
    save_index,
)
from kgrag.cli import main
from coe_fixtures import (
    TAYLOR_ANSWER,
    TAYLOR_QUESTION,
    benchmark_fixture,
    save_script,
    taylor_fixture,
)
from embedding_oracle import index_entries, index_matrix, older_index_file
from graph_oracle import v1_text
from http_stub import stub_server

SENTENCE = "Seth MacFarlane created Family Guy in 1999."
TWO_LINE_OUTPUT = (
    "(Seth MacFarlane)-[is creator of]->(Family Guy)\n"
    "((Seth MacFarlane)-[created]->(Family Guy))-[in]->(1999)"
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("KGRAG_LM_KEY", "KGRAG_LM_ENDPOINT",
                 "KGRAG_EMBED_ENDPOINT", "KGRAG_EMBED_KEY"):
        monkeypatch.delenv(name, raising=False)


def write_script(path, rules):
    save_script(rules, path)
    return str(path)


def ingest_setup(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(SENTENCE, encoding="utf-8")
    script = write_script(tmp_path / "extract.jsonl",
                          [ScriptRule("extract", SENTENCE, TWO_LINE_OUTPUT)])
    graph_path = tmp_path / "graph.jsonl"
    return doc, script, graph_path


# ---------------------------------------------------------------- pipeline

def test_ingest_builds_graph(tmp_path, capsys):
    doc, script, graph_path = ingest_setup(tmp_path)
    code = main(["ingest", str(doc), "--graph", str(graph_path), "--script", script])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chunks_processed"] == 1
    assert report["triples_extracted"] == 2
    assert report["triples_upserted"] == 2
    assert report["parse_errors"] == []
    graph = load_graph(graph_path)
    assert graph.stats().node_count == 4
    assert graph.stats().edge_count == 5


def test_ingest_is_idempotent_and_deterministic(tmp_path, capsys):
    doc, script, graph_path = ingest_setup(tmp_path)
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    first_bytes = graph_path.read_bytes()
    capsys.readouterr()
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["triples_upserted"] == 0
    assert graph_path.read_bytes() == first_bytes


def test_ingest_jsonl_documents(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(json.dumps({"doc_id": "d1", "text": SENTENCE}) + "\n",
                    encoding="utf-8")
    script = write_script(tmp_path / "extract.jsonl",
                          [ScriptRule("extract", SENTENCE, TWO_LINE_OUTPUT)])
    graph_path = tmp_path / "graph.jsonl"
    assert main(["ingest", str(docs), "--graph", str(graph_path), "--script", script]) == 0
    assert load_graph(graph_path).stats().node_count == 4


def test_stats_reports_counts(tmp_path, capsys):
    doc, script, graph_path = ingest_setup(tmp_path)
    main(["ingest", str(doc), "--graph", str(graph_path), "--script", script])
    capsys.readouterr()
    assert main(["stats", "--graph", str(graph_path)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["node_count"] == 4
    assert stats["hypernode_count"] == 1
    assert stats["distinct_relationship_labels"] == 3


def test_index_writes_entry_count(tmp_path, capsys):
    doc, script, graph_path = ingest_setup(tmp_path)
    main(["ingest", str(doc), "--graph", str(graph_path), "--script", script])
    capsys.readouterr()
    index_path = tmp_path / "index.bin"
    code = main(["index", "--graph", str(graph_path), "--index", str(index_path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"entries": 7}
    assert index_path.exists()


def taylor_setup(tmp_path):
    graph, index, rules = taylor_fixture()
    graph_path = tmp_path / "graph.jsonl"
    index_path = tmp_path / "index.bin"
    script_path = tmp_path / "script.jsonl"
    save_graph(graph, graph_path)
    save_index(index, index_path)
    save_script(rules, script_path)
    return str(graph_path), str(index_path), str(script_path)


def test_query_answers_question(tmp_path, capsys):
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    code = main(["query", TAYLOR_QUESTION, "--graph", graph_path,
                 "--index", index_path, "--script", script_path,
                 "--trace", str(trace_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == TAYLOR_ANSWER
    events = [json.loads(line) for line in
              trace_path.read_text(encoding="utf-8").splitlines()]
    assert events[0]["event"] == "plan"
    assert events[-1] == {"event": "result", "type": "paths",
                          "steps_taken": 4, "chains": 1}


def test_query_is_deterministic(tmp_path, capsys):
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    outputs, traces = [], []
    for name in ("t1.jsonl", "t2.jsonl"):
        trace_path = tmp_path / name
        assert main(["query", TAYLOR_QUESTION, "--graph", graph_path,
                     "--index", index_path, "--script", script_path,
                     "--trace", str(trace_path)]) == 0
        outputs.append(capsys.readouterr().out)
        traces.append(trace_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert traces[0] == traces[1]


def test_eval_scores_dataset(tmp_path, capsys):
    graph, index, rules, examples, _ = benchmark_fixture()
    graph_path = tmp_path / "graph.jsonl"
    index_path = tmp_path / "index.bin"
    script_path = tmp_path / "script.jsonl"
    save_graph(graph, graph_path)
    save_index(index, index_path)
    save_script(rules, script_path)
    dataset = tmp_path / "dataset.jsonl"
    lines = [json.dumps({"id": e.id, "question": e.question,
                         "answers": list(e.gold_answers)})
             for e in examples[:3]]
    lines.append("this line is broken")
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = main(["eval", str(dataset), "--graph", str(graph_path),
                 "--index", str(index_path), "--script", str(script_path),
                 "--out", str(out_path), "--jobs", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    assert report["aggregate"]["n"] == 3
    assert report["aggregate"]["em_pct"] == 100.0
    assert report["aggregate"]["hallucination_pct"] == 0.0
    assert report["skipped_lines"] == 1
    assert [row["id"] for row in report["per_example"]] == ["q01", "q02", "q03"]
    assert json.loads(out_path.read_text(encoding="utf-8")) == report


def test_eval_trace_lines_stay_whole_under_jobs(tmp_path, capsys):
    """The pool threads share one trace stream: at --jobs 4 every line is
    one whole event, and the lines are those of --jobs 1 in another order."""
    graph, index, rules, examples, absent = benchmark_fixture()
    save_graph(graph, tmp_path / "graph.jsonl")
    save_index(index, tmp_path / "index.bin")
    save_script(rules, tmp_path / "script.jsonl")
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(
        json.dumps({"id": f"{e.id}-{n}", "question": e.question,
                    "answers": list(e.gold_answers)}) + "\n"
        for n in range(40) for e in examples + absent), encoding="utf-8")
    traces = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, so writes interleave
    try:
        for jobs in ("1", "4"):
            trace_path = tmp_path / f"trace-{jobs}.jsonl"
            assert main(["eval", str(dataset), "--jobs", jobs,
                         "--graph", str(tmp_path / "graph.jsonl"),
                         "--index", str(tmp_path / "index.bin"),
                         "--script", str(tmp_path / "script.jsonl"),
                         "--trace", str(trace_path)]) == 0
            traces.append(trace_path.read_text(encoding="utf-8").splitlines())
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    for line in traces[1]:
        json.loads(line)
    assert sorted(traces[1]) == sorted(traces[0])


def _three_question_dataset(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(
        json.dumps({"id": f"q{i}", "question": f"{TAYLOR_QUESTION} ({i})",
                    "answers": [TAYLOR_ANSWER]}) + "\n" for i in (1, 2, 3)),
        encoding="utf-8")
    return str(dataset)


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("failing, expected_errors", [("(2)", 1), ("", 3)])
def test_eval_exits_1_when_a_question_raises(tmp_path, capsys, monkeypatch, jobs,
                                             failing, expected_errors):
    """A pipeline that raises is an error, not an abstention: the report is
    still written, with the rows marked, and eval says so and exits 1."""
    import kgrag.cli

    answer = kgrag.cli.generate_answer

    def generate_or_raise(provider, question, result):
        if failing in question:
            raise RuntimeError("fault in answering")
        return answer(provider, question, result)

    monkeypatch.setattr(kgrag.cli, "generate_answer", generate_or_raise)
    out_path = tmp_path / "report.json"
    code = main(["eval", _three_question_dataset(tmp_path), "--jobs", jobs,
                 "--out", str(out_path)] + _query_args(tmp_path))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {expected_errors} of 3 questions raised"]
    report = json.loads(captured.out)
    assert json.loads(out_path.read_text(encoding="utf-8")) == report
    assert report["aggregate"]["errors"] == expected_errors
    errors = {row["id"]: row["error"] for row in report["per_example"]}
    assert sum(e == "RuntimeError: fault in answering" for e in errors.values()) == \
        expected_errors
    if expected_errors == 1:
        assert errors == {"q1": None, "q2": "RuntimeError: fault in answering", "q3": None}


def test_interrupted_eval_report_write_leaves_the_previous_report(tmp_path, capsys,
                                                                 monkeypatch):
    import builtins

    import kgrag.graph

    out_path = tmp_path / "report.json"
    argv = ["eval", _dataset(tmp_path), "--out", str(out_path)] + _query_args(tmp_path)
    assert main(argv) == 0
    previous = out_path.read_bytes()

    class HalfWrite:
        """A file that writes half of what it is given, then fails."""

        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            self.handle.write(text[:len(text) // 2])
            raise OSError("No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

    def open_for_half_writes(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        return HalfWrite(handle) if "w" in mode else handle

    monkeypatch.setattr(kgrag.graph, "open", open_for_half_writes, raising=False)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert out_path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["dataset.jsonl", "graph.jsonl", "index.bin", "report.json", "script.jsonl"]


def test_eval_report_bytes_do_not_depend_on_jobs(tmp_path, capsys, monkeypatch):
    import kgrag.cli

    answer = kgrag.cli.generate_answer

    def generate_or_raise(provider, question, result):
        if "(2)" in question:
            raise RuntimeError("fault in answering")
        return answer(provider, question, result)

    monkeypatch.setattr(kgrag.cli, "generate_answer", generate_or_raise)
    dataset = _three_question_dataset(tmp_path)
    args = _query_args(tmp_path)
    outputs = []
    for jobs in ("1", "3"):
        assert main(["eval", dataset, "--jobs", jobs] + args) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# -------------------------------------------------------------- http paths

def test_ingest_through_http_provider(tmp_path, capsys, monkeypatch):
    def responder(payload, headers):
        return 200, {"choices": [{"message": {"content": TWO_LINE_OUTPUT}}]}

    doc = tmp_path / "doc.txt"
    doc.write_text(SENTENCE, encoding="utf-8")
    graph_path = tmp_path / "graph.jsonl"
    with stub_server(responder) as (url, captured):
        monkeypatch.setenv("KGRAG_LM_ENDPOINT", url)
        monkeypatch.setenv("KGRAG_LM_KEY", "sekrit")
        code = main(["ingest", str(doc), "--graph", str(graph_path),
                     "--provider", "http"])
    assert code == 0
    assert load_graph(graph_path).stats().node_count == 4
    assert captured[0]["headers"]["authorization"] == "Bearer sekrit"


def test_index_through_http_embedder(tmp_path, capsys):
    doc, script, graph_path = ingest_setup(tmp_path)
    main(["ingest", str(doc), "--graph", str(graph_path), "--script", script])
    capsys.readouterr()

    def responder(payload, headers):
        return 200, {"vectors": [[1.0, float(len(t))] for t in payload["texts"]]}

    index_path = tmp_path / "index.bin"
    with stub_server(responder) as (url, _):
        code = main(["index", "--graph", str(graph_path),
                     "--index", str(index_path), "--embed-endpoint", url])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"entries": 7}


@pytest.mark.parametrize("bad", [b"[NaN, 1.0]", b"[Infinity, 1.0]", b"[1e308, 1e308]"])
def test_index_refuses_vectors_that_are_not_finite(tmp_path, capsys, bad):
    doc, script, graph_path = ingest_setup(tmp_path)
    main(["ingest", str(doc), "--graph", str(graph_path), "--script", script])
    capsys.readouterr()

    def responder(payload, headers):
        rows = [b"[1.0, 2.0]"] * (len(payload["texts"]) - 1) + [bad]
        return 200, b'{"vectors": [' + b", ".join(rows) + b"]}"

    index_path = tmp_path / "index.bin"
    with stub_server(responder) as (url, _):
        code = main(["index", "--graph", str(graph_path),
                     "--index", str(index_path), "--embed-endpoint", url])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: indexing aborted after 0 entries: ")
    assert "norm is not finite" in err
    assert not index_path.exists()


# ------------------------------------------------------------- fault paths

def test_query_without_graph_fails(tmp_path, capsys):
    code = main(["query", "who?", "--graph", str(tmp_path / "missing.jsonl"),
                 "--script", str(tmp_path / "missing-script.jsonl")])
    assert code == 1
    assert "graph file not found" in capsys.readouterr().err


def test_query_without_index_fails(tmp_path, capsys):
    graph_path, _, script_path = taylor_setup(tmp_path)
    code = main(["query", "who?", "--graph", graph_path,
                 "--index", str(tmp_path / "missing-index.bin"),
                 "--script", script_path])
    assert code == 1
    assert "index file not found" in capsys.readouterr().err


MISMATCH = "error: index does not match graph (run index again)\n"


def test_query_with_another_graphs_index_fails(tmp_path, capsys):
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    _, other_index, _, _, _ = benchmark_fixture()
    save_index(other_index, index_path)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({"id": "q1", "question": TAYLOR_QUESTION,
                                   "answers": [TAYLOR_ANSWER]}) + "\n", encoding="utf-8")
    for command in (["query", TAYLOR_QUESTION], ["eval", str(dataset)]):
        code = main(command + ["--graph", graph_path, "--index", index_path,
                               "--script", script_path])
        assert code == 1
        assert capsys.readouterr().err == MISMATCH


@pytest.mark.parametrize("change", [-1, 1])
def test_query_refuses_an_index_whose_node_count_was_edited(tmp_path, capsys, change):
    """Entries and arrays unchanged, one node searched as a label or one
    label as a node: the file loads, and the match with the graph refuses
    it."""
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    line, arrays = Path(index_path).read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["nodes"] += change
    Path(index_path).write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    assert load_index(index_path, HashingEmbedder()).nodes == header["nodes"]
    assert main(["query", TAYLOR_QUESTION, "--graph", graph_path, "--index", index_path,
                 "--script", script_path]) == 1
    assert capsys.readouterr().err == MISMATCH


@pytest.mark.parametrize("command", ["query", "eval"])
def test_failed_setup_leaves_the_previous_trace(tmp_path, capsys, command):
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    argv = [command, TAYLOR_QUESTION if command == "query" else _dataset(tmp_path),
            "--script", script_path, "--trace", str(trace_path)]
    assert main(argv + ["--graph", graph_path, "--index", index_path]) == 0
    previous = trace_path.read_bytes()
    assert previous
    unreadable = tmp_path / "unreadable.bin"
    unreadable.write_bytes(b"not an index\n")
    other_index = tmp_path / "other.bin"
    save_index(benchmark_fixture()[1], other_index)
    for graph, index, error in [
        (str(tmp_path / "missing.jsonl"), index_path, "graph file not found"),
        (graph_path, str(unreadable), "unreadable index file"),
        (graph_path, str(other_index), "index does not match graph"),
    ]:
        capsys.readouterr()
        assert main(argv + ["--graph", graph, "--index", index]) == 1
        assert error in capsys.readouterr().err
        assert trace_path.read_bytes() == previous
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_query_with_an_older_dense_index_fails(tmp_path, capsys):
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    index = load_index(index_path, HashingEmbedder())
    dense, sparse = [], []
    for row, (entry, vector) in enumerate(zip(index_entries(index), index_matrix(index))):
        kind = "node" if row < index.nodes else "relationship_label"
        fields = {"kind": kind, "ref_id": entry.ref_id, "text": entry.text}
        dense.append({**fields, "vector": vector.tolist()})
        columns = np.flatnonzero(vector)
        sparse.append({**fields, "dim": len(vector), "indices": columns.tolist(),
                       "values": vector[columns].tolist()})
    # The two JSONL layouts of older versions: dense vectors, and sparse rows.
    for rows in (dense, sparse):
        with open(index_path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        code = main(["query", TAYLOR_QUESTION, "--graph", graph_path, "--index", index_path,
                     "--script", script_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable index file ")
        assert err.endswith(": older index format (run index again)\n")
    assert main(["index", "--graph", graph_path, "--index", index_path]) == 0
    capsys.readouterr()
    assert main(["query", TAYLOR_QUESTION, "--graph", graph_path, "--index", index_path,
                 "--script", script_path]) == 0
    assert capsys.readouterr().out == TAYLOR_ANSWER + "\n"


def test_query_with_a_kgrag_index_2_file_fails(tmp_path, capsys):
    """An index in either older binary layout, ``/2`` or ``/3``, is
    refused until ``kgrag index`` runs again."""
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    index = load_index(index_path, HashingEmbedder())
    argv = ["query", TAYLOR_QUESTION, "--graph", graph_path, "--index", index_path,
            "--script", script_path]
    for older in ("kgrag-index/2", "kgrag-index/3"):
        Path(index_path).write_bytes(older_index_file(index, older))
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: unreadable index file {index_path}: unknown "
                                           f"index format '{older}' (run index again)\n")
    assert main(["index", "--graph", graph_path, "--index", index_path]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == TAYLOR_ANSWER + "\n"


def test_a_format_4_file_is_refused_with_run_index_again(tmp_path, capsys):
    """A ``kgrag-index/4`` file, the same arrays under a header with a
    ``kinds`` string in place of ``nodes``, is refused by ``load_index``
    and by ``kgrag query`` until ``kgrag index`` runs again, which writes
    the same arrays under a ``/5`` header."""
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    saved = Path(index_path).read_bytes()
    index = load_index(index_path, HashingEmbedder())
    older = older_index_file(index, "kgrag-index/4")
    line, arrays = older.split(b"\n", 1)
    assert arrays == saved.split(b"\n", 1)[1]
    assert set(json.loads(line)) - set(json.loads(saved.split(b"\n", 1)[0])) == {"kinds"}
    message = "unknown index format 'kgrag-index/4' (run index again)"
    with pytest.raises(IndexFormatError) as exc_info:
        load_index(io.BytesIO(older), HashingEmbedder())
    assert str(exc_info.value) == message and exc_info.value.entry is None
    Path(index_path).write_bytes(older)
    argv = ["query", TAYLOR_QUESTION, "--graph", graph_path, "--index", index_path,
            "--script", script_path]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: unreadable index file {index_path}: {message}\n"
    assert main(["index", "--graph", graph_path, "--index", index_path]) == 0
    assert Path(index_path).read_bytes() == saved
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == TAYLOR_ANSWER + "\n"


class _RandomEmbedder:
    """Seeded random unit vectors, 256 wide as the default embedder's, under
    a name of its own."""

    identity = "random/256"
    dim = 256

    def embed_batch(self, texts):
        matrix = np.random.default_rng(26).standard_normal((len(texts), self.dim))
        return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)

    def embed(self, text):
        return self.embed_batch([text])[0]


def test_query_with_another_embedders_index_fails(tmp_path, capsys):
    """An index that another embedder of the same width built is refused,
    not searched with unrelated vectors."""
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    save_index(index_graph(load_graph(graph_path), _RandomEmbedder()), index_path)
    argv = ["query", TAYLOR_QUESTION, "--graph", graph_path, "--index", index_path,
            "--script", script_path]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: unreadable index file {index_path}: index embedder 'random/256' does not "
        f"match the embedder 'hashing/256' (run index again)\n")
    assert main(["index", "--graph", graph_path, "--index", index_path]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == TAYLOR_ANSWER + "\n"


@pytest.mark.parametrize("command", ["ingest", "index", "stats"])
@pytest.mark.parametrize("option", ["--trace", "--topk"])
def test_engine_options_are_refused_by_the_other_commands(tmp_path, capsys, command, option):
    """Only ``query`` and ``eval`` take ``--trace`` and ``--topk``; any
    other command refuses them as unknown options and writes nothing."""
    doc, script, graph_path = ingest_setup(tmp_path)
    argv = {"ingest": ["ingest", str(doc), "--graph", str(graph_path), "--script", script],
            "index": ["index", "--graph", str(graph_path),
                      "--index", str(tmp_path / "index.bin")],
            "stats": ["stats", "--graph", str(graph_path)]}[command]
    value = str(tmp_path / "t.jsonl") if option == "--trace" else "3"
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc_info:
        main(argv + [option, value])
    assert exc_info.value.code == 2
    assert f"error: unrecognized arguments: {option} {value}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_query_after_reingest_needs_index_again(tmp_path, capsys):
    doc, _, graph_path = ingest_setup(tmp_path)
    more = tmp_path / "more.txt"
    # longer than SENTENCE, which every extraction prompt quotes as its example
    more_text = "Family Guy was created by the animator Seth MacFarlane."
    more.write_text(more_text, encoding="utf-8")
    script = write_script(tmp_path / "extract.jsonl", [
        ScriptRule("extract", SENTENCE, TWO_LINE_OUTPUT),
        ScriptRule("extract", more_text, "(Family Guy)-[created by]->(Seth MacFarlane)")])
    index_path = tmp_path / "index.bin"
    paths = ["--graph", str(graph_path), "--index", str(index_path), "--script", script]
    assert main(["ingest", str(doc)] + paths) == 0
    assert main(["index"] + paths) == 0
    assert main(["ingest", str(more)] + paths) == 0
    capsys.readouterr()
    # the new relationship connects two nodes the index already has
    assert main(["query", "Who created Family Guy?"] + paths) == 1
    assert capsys.readouterr().err == MISMATCH
    assert main(["index"] + paths) == 0
    assert json.loads(capsys.readouterr().out) == {"entries": 8}
    assert main(["query", "Who created Family Guy?"] + paths) == 0


def test_scripted_provider_requires_script(tmp_path, capsys):
    graph_path, index_path, _ = taylor_setup(tmp_path)
    code = main(["query", "who?", "--graph", graph_path, "--index", index_path])
    assert code == 1
    assert "requires --script" in capsys.readouterr().err


def test_missing_script_file_fails(tmp_path, capsys):
    graph_path, index_path, _ = taylor_setup(tmp_path)
    code = main(["query", "who?", "--graph", graph_path, "--index", index_path,
                 "--script", str(tmp_path / "nope.jsonl")])
    assert code == 1
    assert "script file not found" in capsys.readouterr().err


def test_http_provider_requires_endpoint(tmp_path, capsys):
    graph_path, index_path, _ = taylor_setup(tmp_path)
    code = main(["query", "who?", "--graph", graph_path, "--index", index_path,
                 "--provider", "http"])
    assert code == 1
    assert "endpoint" in capsys.readouterr().err


def test_ingest_missing_input_fails(tmp_path, capsys):
    script = write_script(tmp_path / "s.jsonl", [ScriptRule("extract", "", "")])
    code = main(["ingest", str(tmp_path / "absent.txt"),
                 "--graph", str(tmp_path / "g.jsonl"), "--script", script])
    assert code == 1
    assert "input file not found" in capsys.readouterr().err


def test_ingest_halt_saves_partial_graph(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(SENTENCE, encoding="utf-8")
    # a script whose only rule cannot match the extraction prompt tag
    script = write_script(tmp_path / "s.jsonl", [ScriptRule("plan", "", "unused")])
    graph_path = tmp_path / "graph.jsonl"
    code = main(["ingest", str(doc), "--graph", str(graph_path), "--script", script])
    assert code == 1
    captured = capsys.readouterr()
    assert "extraction halted" in captured.err
    report = json.loads(captured.out)
    assert report["chunks_processed"] == 0
    assert graph_path.exists()


def test_stats_with_corrupt_graph_fails(tmp_path, capsys):
    bad = tmp_path / "graph.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    assert main(["stats", "--graph", str(bad)]) == 1
    assert "unreadable graph file" in capsys.readouterr().err


def test_eval_missing_dataset_fails(tmp_path, capsys):
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    code = main(["eval", str(tmp_path / "missing.jsonl"), "--graph", graph_path,
                 "--index", index_path, "--script", script_path])
    assert code == 1
    assert "dataset not found" in capsys.readouterr().err


def test_ingest_rejects_bad_jsonl_document(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"text": "no doc id"}\n', encoding="utf-8")
    script = write_script(tmp_path / "s.jsonl", [ScriptRule("extract", "", "")])
    code = main(["ingest", str(docs), "--graph", str(tmp_path / "g.jsonl"),
                 "--script", script])
    assert code == 1
    assert "bad document record" in capsys.readouterr().err


def _dataset(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({"id": "q1", "question": TAYLOR_QUESTION,
                                   "answers": [TAYLOR_ANSWER]}) + "\n", encoding="utf-8")
    return str(dataset)


def _query_args(tmp_path):
    graph_path, index_path, script_path = taylor_setup(tmp_path)
    return ["--graph", graph_path, "--index", index_path, "--script", script_path]


def _ingest_args(tmp_path):
    doc, script, graph_path = ingest_setup(tmp_path)
    return [str(doc), "--graph", str(graph_path), "--script", script]


def _non_utf8(path):
    path.write_bytes(b"\xff\xfe not UTF-8\n")
    return str(path)


def _graph_without_subject_edge(tmp_path):
    doc, script, graph_path = ingest_setup(tmp_path)
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    lines = graph_path.read_text(encoding="utf-8").splitlines(keepends=True)
    subject_edges = [line for line in lines if ',"_subject",' in line]
    assert len(subject_edges) == 1
    graph_path.write_text("".join(line for line in lines if line not in subject_edges),
                          encoding="utf-8")
    load_graph(graph_path)  # still loads; only the audit refuses it
    return ["index", "--graph", str(graph_path), "--index", str(tmp_path / "index.bin")]


def _graph_with_edited_edge(tmp_path, edit):
    """``index`` over an ingested graph whose last edge line ``edit`` changed;
    an edge row is ``[source,label,target,id]``."""
    doc, script, graph_path = ingest_setup(tmp_path)
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    lines = graph_path.read_text(encoding="utf-8").splitlines()
    edges = [row for row in map(json.loads, lines) if len(row) == 4]
    lines[-1] = json.dumps(edit(edges[-1], edges[0]))
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["index", "--graph", str(graph_path), "--index", str(tmp_path / "index.bin")]


def _graph_with_duplicate_edge_id(tmp_path):
    return _graph_with_edited_edge(tmp_path, lambda edge, first: edge[:3] + first[3:])


def _graph_with_wrong_edge_id(tmp_path):
    argv = _graph_with_edited_edge(tmp_path, lambda edge, _: edge[:3] + ["not-a-hash"])
    load_graph(argv[2])  # still loads; only the audit refuses it
    return argv


def _as_v1(graph_path):
    """Rewrite the graph file in the older format, one JSON object a row."""
    graph_path.write_text(v1_text(load_graph(graph_path)), encoding="utf-8")


def _graph_with_string_structural_flag(tmp_path):
    """``stats`` over an ingested graph, in the older format, whose first
    structural edge says ``"false"``: a string, which ``bool()`` would read
    as true."""
    doc, script, graph_path = ingest_setup(tmp_path)
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    _as_v1(graph_path)
    text = graph_path.read_text(encoding="utf-8")
    assert '"structural": true' in text
    graph_path.write_text(text.replace('"structural": true', '"structural": "false"', 1),
                          encoding="utf-8")
    return ["stats", "--graph", str(graph_path)]


def _with_lone_surrogate(graph_path):
    """Rewrite the graph file in the older format and give its first node a
    label and canonical ending in an escaped lone surrogate, which UTF-8
    cannot encode."""
    _as_v1(graph_path)
    lines = graph_path.read_text(encoding="utf-8").splitlines()
    node = json.loads(lines[0])
    node["label"] += "\ud800"
    node["canonical"] += "\ud800"
    lines[0] = json.dumps(node, sort_keys=True)
    assert "\\ud800" in lines[0]
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _index_graph_with_lone_surrogate(tmp_path):
    doc, script, graph_path = ingest_setup(tmp_path)
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    _with_lone_surrogate(graph_path)
    return ["index", "--graph", str(graph_path), "--index", str(tmp_path / "index.bin")]


def _query_graph_with_lone_surrogate(tmp_path):
    argv = ["query", TAYLOR_QUESTION] + _query_args(tmp_path)
    _with_lone_surrogate(Path(argv[argv.index("--graph") + 1]))
    return argv


def _eval_graph_with_lone_surrogate(tmp_path):
    argv = ["eval", _dataset(tmp_path)] + _query_args(tmp_path)
    _with_lone_surrogate(Path(argv[argv.index("--graph") + 1]))
    return argv


def _truncated_index(tmp_path):
    """``query`` with an index file cut short inside its values array (the
    values' codes into the value table)."""
    argv = ["query", TAYLOR_QUESTION] + _query_args(tmp_path)
    index_path = Path(argv[argv.index("--index") + 1])
    index_path.write_bytes(index_path.read_bytes()[:-100])
    return argv


def _index_with_a_huge_dim(tmp_path):
    """``query`` through an embedding endpoint, whose width is unknown until
    it replies, with an index whose header claims a ``dim`` of 10**13."""
    argv = ["query", TAYLOR_QUESTION] + _query_args(tmp_path)
    index_path = Path(argv[argv.index("--index") + 1])
    header_line, arrays = index_path.read_bytes().split(b"\n", 1)
    header = {**json.loads(header_line), "dim": 10 ** 13}
    index_path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    return argv + ["--embed-endpoint", "http://127.0.0.1:9/unused"]


def _index_with_a_duplicate_label(tmp_path):
    """``eval`` with an index whose last relationship entry carries the
    label of the one before it."""
    argv = ["eval", _dataset(tmp_path)] + _query_args(tmp_path)
    index_path = Path(argv[argv.index("--index") + 1])
    header_line, arrays = index_path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    labels = range(header["nodes"], len(header["ids"]))
    header["ids"][labels[-1]] = header["ids"][labels[-2]]
    index_path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    return argv


def _malformed_script(tmp_path):
    paths = _query_args(tmp_path)[:4]
    script = tmp_path / "bad-script.jsonl"
    script.write_text('{"tag": "extract"}\n', encoding="utf-8")
    return ["query", TAYLOR_QUESTION] + paths + ["--script", str(script)]


def _script_with_a_number_substring(tmp_path):
    """``ingest`` with a script rule whose ``match_substring`` is a number."""
    doc, _, graph_path = ingest_setup(tmp_path)
    script = tmp_path / "bad-script.jsonl"
    script.write_text('{"tag": "extract", "match_substring": 5, "response": ""}\n',
                      encoding="utf-8")
    return ["ingest", str(doc), "--graph", str(graph_path), "--script", str(script)]


# A JSON line nested this deep overflows the parser's recursion limit.
_DEEP_LINES = {"array": "[" * 200_000, "object": '{"a": ' * 200_000}
# Lines no reader can parse: too deep, or holding an integer of more digits
# than ``int`` converts (4,300), which ``json.loads`` refuses with a plain
# ``ValueError``.
_UNREADABLE_LINES = {**{f"deep-{opener}": line for opener, line in _DEEP_LINES.items()},
                     "huge-integer": '{"type": "node", "id": ' + "1" * 5000 + "}"}


def _insert_second_line(path: Path, line: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(1, line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _graph_with_a_bad_line(tmp_path, kind):
    """``stats`` over an ingested graph whose second line cannot be parsed."""
    doc, script, graph_path = ingest_setup(tmp_path)
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    _insert_second_line(graph_path, _UNREADABLE_LINES[kind])
    return ["stats", "--graph", str(graph_path)]


def _script_with_a_bad_line(tmp_path, kind):
    doc, _, graph_path = ingest_setup(tmp_path)
    script = tmp_path / "bad-script.jsonl"
    script.write_text(_UNREADABLE_LINES[kind] + "\n", encoding="utf-8")
    return ["ingest", str(doc), "--graph", str(graph_path), "--script", str(script)]


def _script_with_a_lone_surrogate(tmp_path):
    """``query`` with a script whose second rule's response holds an
    escaped lone surrogate, which UTF-8 cannot encode."""
    argv = ["query", TAYLOR_QUESTION] + _query_args(tmp_path)
    script = tmp_path / "bad-script.jsonl"
    rule = {"tag": "select_nodes", "match_substring": "", "response": "NODE: Alice"}
    bad = {**rule, "response": "NODE: Alice\ud800"}
    script.write_text(json.dumps(rule) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    argv[argv.index("--script") + 1] = str(script)
    return argv


def _document_with_a_lone_surrogate(tmp_path):
    """``ingest`` of a ``.jsonl`` document whose ``doc_id`` holds an
    escaped lone surrogate."""
    _, script, graph_path = ingest_setup(tmp_path)
    doc = tmp_path / "surrogate-doc.jsonl"
    doc.write_text(json.dumps({"doc_id": "d\ud800", "text": SENTENCE}) + "\n", encoding="utf-8")
    return ["ingest", str(doc), "--graph", str(graph_path), "--script", script]


def _ingest_into_a_graph_with_an_edited_label(tmp_path):
    """``ingest`` into a graph file whose first node's label was edited by
    hand after an earlier ingest."""
    doc, script, graph_path = ingest_setup(tmp_path)
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    _edit_first_node_label(graph_path)
    return ["ingest", str(doc), "--graph", str(graph_path), "--script", script]


def _document_with_a_bad_line(tmp_path, kind):
    _, script, graph_path = ingest_setup(tmp_path)
    doc = tmp_path / "deep-doc.jsonl"
    doc.write_text(_UNREADABLE_LINES[kind] + "\n", encoding="utf-8")
    return ["ingest", str(doc), "--graph", str(graph_path), "--script", script]


# Array rows the loader refuses, each made from the first node row and the
# last edge row of an ingested graph of 9 rows and added as its line 10; a
# node row is ``["e"|"h",id,label]``, an edge row ``[source,label,target,id]``.
_BAD_ROWS = {
    "2-items": lambda node, edge: '["e","n1"]',
    "5-items": lambda node, edge: '["e","n1","a","b","c"]',
    "non-string": lambda node, edge: '["e",7,"label"]',
    "kind-x": lambda node, edge: '["x","n1","label"]',
    "nested-array": lambda node, edge: '["e",["n1"],"label"]',
    "huge-integer": lambda node, edge: '["e",' + "1" * 5000 + ',"label"]',
    "lone-surrogate": lambda node, edge: '["e","n1","label\\ud800"]',
    "scalar": lambda node, edge: "42",
    "unknown-endpoint": lambda node, edge: json.dumps([edge[0], "r", "nowhere", "e1"]),
    "duplicate-node-id": lambda node, edge: json.dumps(["e", node[1], "a new label"]),
    "duplicate-canonical": lambda node, edge: json.dumps(["e", "n1", f" {node[2].upper()} "]),
    "duplicate-edge": lambda node, edge: json.dumps(edge[:3] + ["e1"]),
    "duplicate-edge-id": lambda node, edge: json.dumps([edge[0], "a new label", *edge[2:]]),
}
_BAD_ROW_MESSAGES = {
    "2-items": "line 10: row has 2 items, not 3 (a node) or 4 (an edge)",
    "5-items": "line 10: row has 5 items, not 3 (a node) or 4 (an edge)",
    "non-string": "line 10: field 'id' is not a string",
    "kind-x": "line 10: bad node kind 'x'",
    "nested-array": "line 10: field 'id' is not a string",
    "huge-integer": "line 10: invalid JSON: Exceeds the limit (4300 digits)",
    "lone-surrogate": "line 10: field 'label' holds a lone surrogate",
    "scalar": "line 10: record is not an array and not an object",
    "unknown-endpoint": "line 10: edge references an unknown node",
    "duplicate-node-id": "line 10: duplicate node id ",
    "duplicate-canonical": "line 10: duplicate canonical label ",
    "duplicate-edge": "line 10: duplicate edge",
    "duplicate-edge-id": "line 10: duplicate edge id ",
}


def _ingest_into_a_graph_with_a_bad_row(tmp_path, kind):
    """``ingest`` into an ingested graph that has one bad row added."""
    doc, script, graph_path = ingest_setup(tmp_path)
    argv = ["ingest", str(doc), "--graph", str(graph_path), "--script", script]
    assert main(argv) == 0
    lines = graph_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 9
    lines.append(_BAD_ROWS[kind](json.loads(lines[0]), json.loads(lines[-1])))
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return argv


BAD_INPUTS = {
    "query-topk-0": lambda tmp: ["query", TAYLOR_QUESTION, "--topk", "0"] + _query_args(tmp),
    "eval-topk-0": lambda tmp: ["eval", _dataset(tmp), "--topk", "0"] + _query_args(tmp),
    "eval-jobs-0": lambda tmp: ["eval", _dataset(tmp), "--jobs", "0"] + _query_args(tmp),
    "eval-jobs-negative": lambda tmp: ["eval", _dataset(tmp), "--jobs", "-2"] + _query_args(tmp),
    "ingest-chunk-0": lambda tmp: ["ingest", "--chunk-chars", "0"] + _ingest_args(tmp),
    "ingest-negative-overlap": lambda tmp: ["ingest", "--overlap-chars", "-1"]
    + _ingest_args(tmp),
    "ingest-chunk-not-above-overlap": lambda tmp: [
        "ingest", "--chunk-chars", "50", "--overlap-chars", "50"] + _ingest_args(tmp),
    "malformed-script": _malformed_script,
    "script-number-substring": _script_with_a_number_substring,
    "non-utf8-document": lambda tmp: ["ingest", _non_utf8(tmp / "bad-doc.txt"),
                                      "--graph", str(tmp / "graph.jsonl"),
                                      "--script", ingest_setup(tmp)[1]],
    "non-utf8-dataset": lambda tmp: ["eval", _non_utf8(tmp / "dataset.jsonl")]
    + _query_args(tmp),
    "non-utf8-graph": lambda tmp: ["stats", "--graph", _non_utf8(tmp / "graph.jsonl")],
    "non-utf8-index": lambda tmp: ["query", TAYLOR_QUESTION] + _query_args(tmp)[:2]
    + ["--index", _non_utf8(tmp / "bad-index.bin"), "--script", str(tmp / "script.jsonl")],
    "truncated-index": _truncated_index,
    "index-duplicate-label": _index_with_a_duplicate_label,
    "index-huge-dim": _index_with_a_huge_dim,
    "graph-fails-audit": _graph_without_subject_edge,
    "graph-duplicate-edge-id": _graph_with_duplicate_edge_id,
    "graph-wrong-edge-id": _graph_with_wrong_edge_id,
    "graph-string-structural-flag": _graph_with_string_structural_flag,
    "index-graph-lone-surrogate": _index_graph_with_lone_surrogate,
    "query-graph-lone-surrogate": _query_graph_with_lone_surrogate,
    "eval-graph-lone-surrogate": _eval_graph_with_lone_surrogate,
    "script-lone-surrogate": _script_with_a_lone_surrogate,
    "document-lone-surrogate": _document_with_a_lone_surrogate,
    "ingest-graph-edited-label": _ingest_into_a_graph_with_an_edited_label,
    **{f"{what}-{kind}": lambda tmp, make=make, kind=kind: make(tmp, kind)
       for what, make in (("graph", _graph_with_a_bad_line),
                          ("script", _script_with_a_bad_line),
                          ("document", _document_with_a_bad_line))
       for kind in _UNREADABLE_LINES},
    **{f"graph-row-{kind}": lambda tmp, kind=kind: _ingest_into_a_graph_with_a_bad_row(tmp, kind)
       for kind in _BAD_ROWS},
}

# What the one error line must name: the bad option or file.
BAD_INPUT_NAMES = {
    "query-topk-0": "--topk", "eval-topk-0": "--topk", "ingest-chunk-0": "--chunk-chars",
    "eval-jobs-0": "--jobs", "eval-jobs-negative": "--jobs",
    "ingest-negative-overlap": "--overlap-chars",
    "ingest-chunk-not-above-overlap": "--chunk-chars", "malformed-script": "bad-script.jsonl",
    "script-number-substring": "bad-script.jsonl",
    "non-utf8-document": "bad-doc.txt", "non-utf8-dataset": "dataset.jsonl",
    "non-utf8-graph": "graph.jsonl", "non-utf8-index": "bad-index.bin",
    "graph-fails-audit": "graph.jsonl", "graph-duplicate-edge-id": "graph.jsonl",
    "graph-wrong-edge-id": "graph.jsonl", "graph-string-structural-flag": "graph.jsonl",
    "truncated-index": "index.bin", "index-duplicate-label": "index.bin",
    "index-huge-dim": "index.bin",
    "index-graph-lone-surrogate": "graph.jsonl",
    "query-graph-lone-surrogate": "graph.jsonl", "eval-graph-lone-surrogate": "graph.jsonl",
    "script-lone-surrogate": "bad-script.jsonl", "document-lone-surrogate": "surrogate-doc.jsonl",
    "ingest-graph-edited-label": "graph.jsonl",
    **{f"{what}-{kind}": name
       for what, name in (("graph", "graph.jsonl"), ("script", "bad-script.jsonl"),
                          ("document", "deep-doc.jsonl"))
       for kind in _UNREADABLE_LINES},
    **{f"graph-row-{kind}": "graph.jsonl" for kind in _BAD_ROWS},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, case):
    argv = BAD_INPUTS[case](tmp_path)
    capsys.readouterr()
    graph_files = sorted(tmp_path.glob("*graph*"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert BAD_INPUT_NAMES[case] in err
    assert "Traceback" not in err
    # refused before any work: no graph file written, none removed
    assert sorted(tmp_path.glob("*graph*")) == graph_files


@pytest.mark.parametrize("case, message", [
    ("graph-duplicate-edge-id", "line 9: duplicate edge id"),
    ("graph-wrong-edge-id", "id is not the hash of its content"),
    ("graph-string-structural-flag", "field 'structural' is not a boolean"),
    ("truncated-index", "values array is truncated"),
    ("index-duplicate-label", ": second entry for relationship label "),
    ("index-graph-lone-surrogate", "line 1: field 'canonical' holds a lone surrogate"),
    ("script-number-substring",
     "bad script rule on line 1: field 'match_substring' is not a string"),
    ("graph-deep-array", "line 2: invalid JSON: maximum recursion depth exceeded"),
    ("graph-deep-object", "line 2: invalid JSON: maximum recursion depth exceeded"),
    ("script-deep-array", "bad script rule on line 1: maximum recursion depth exceeded"),
    ("script-deep-object", "bad script rule on line 1: maximum recursion depth exceeded"),
    ("document-deep-array", "deep-doc.jsonl:1: bad document record: maximum recursion"),
    ("document-deep-object", "deep-doc.jsonl:1: bad document record: maximum recursion"),
    ("graph-huge-integer", "line 2: invalid JSON: Exceeds the limit (4300 digits)"),
    ("script-huge-integer", "bad script rule on line 1: Exceeds the limit (4300 digits)"),
    ("document-huge-integer", "deep-doc.jsonl:1: bad document record: Exceeds the limit"),
    ("script-lone-surrogate",
     "bad script rule on line 2: field 'response' holds a lone surrogate"),
    ("document-lone-surrogate",
     "surrogate-doc.jsonl:1: bad document record: doc_id or text holds a lone surrogate"),
    ("ingest-graph-edited-label", "graph.jsonl fails its audit: "),
    *((f"graph-row-{kind}", message) for kind, message in _BAD_ROW_MESSAGES.items()),
])
def test_bad_edge_ids_are_named(tmp_path, capsys, case, message):
    argv = BAD_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def _edit_first_node_label(graph_path):
    """Edit by hand the label of the graph file's first node, a row
    ``["e"|"h",id,label]``, to one of another canonical."""
    lines = graph_path.read_text(encoding="utf-8").splitlines()
    kind, node_id, label = json.loads(lines[0])
    lines[0] = json.dumps([kind, node_id, label + " (edited)"])
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_refuses_a_graph_with_a_label_edited_by_hand(tmp_path, capsys):
    """Upserting the original label would hash to the edited node's id and
    silently revert the edit; ``ingest`` audits the graph it loads, as
    ``index`` does, and writes nothing."""
    argv = _ingest_into_a_graph_with_an_edited_label(tmp_path)
    graph_path = Path(argv[argv.index("--graph") + 1])
    edited = graph_path.read_bytes()
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: graph file {graph_path} fails its audit: "
                   f"{err.split(': ', 2)[2]}")
    assert len(err.splitlines()) == 1 and "id is not the hash of its content" in err
    assert graph_path.read_bytes() == edited
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("graph")) == \
        ["graph.jsonl"]


def test_eval_skips_a_dataset_line_with_a_lone_surrogate(tmp_path, capsys):
    """A question holding an escaped lone surrogate is skipped as a
    malformed line; the other questions are scored."""
    argv = ["eval", _dataset(tmp_path)] + _query_args(tmp_path)
    with open(argv[1], "a", encoding="utf-8") as f:
        f.write(json.dumps({"id": "q2", "question": "Who\ud800?", "answers": ["x"]}) + "\n")
    capsys.readouterr()
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["aggregate"]["n"], report["skipped_lines"]) == (1, 1)


def test_index_refuses_a_label_edited_by_hand(tmp_path, capsys):
    """A row stores no canonical to compare its label with, so the edited
    file loads; the audit finds that the node's id is not the hash of its
    content."""
    doc, script, graph_path = ingest_setup(tmp_path)
    assert main(["ingest", str(doc), "--graph", str(graph_path), "--script", script]) == 0
    _edit_first_node_label(graph_path)
    load_graph(graph_path)
    capsys.readouterr()
    index_path = tmp_path / "index.bin"
    assert main(["index", "--graph", str(graph_path), "--index", str(index_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "graph.jsonl fails its audit" in err
    assert "id is not the hash of its content" in err
    assert not index_path.exists()


def test_query_refuses_an_index_built_before_a_label_edit(tmp_path, capsys):
    argv = ["query", TAYLOR_QUESTION] + _query_args(tmp_path)
    _edit_first_node_label(Path(argv[argv.index("--graph") + 1]))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: index does not match graph (run index again)\n"


def test_reingest_rewrites_a_graph_file_of_the_older_format_once(tmp_path, capsys):
    """A graph file of the older format, one JSON object a row, is read as
    it is: re-ingesting the document it came from upserts nothing and
    rewrites it as ``save_graph`` writes it, with the same stats, and
    ``index`` writes the same index from either file."""
    doc, script, graph_path = ingest_setup(tmp_path)
    ingest = ["ingest", str(doc), "--graph", str(graph_path), "--script", script]
    assert main(ingest) == 0
    saved = graph_path.read_bytes()
    _as_v1(graph_path)
    assert graph_path.read_bytes().startswith(b'{"canonical": ')
    capsys.readouterr()
    assert main(["stats", "--graph", str(graph_path)]) == 0
    stats = capsys.readouterr().out
    assert main(["index", "--graph", str(graph_path), "--index", str(tmp_path / "v1.bin")]) == 0
    capsys.readouterr()
    assert main(ingest) == 0
    assert json.loads(capsys.readouterr().out)["triples_upserted"] == 0
    assert graph_path.read_bytes() == saved
    assert main(["stats", "--graph", str(graph_path)]) == 0
    assert capsys.readouterr().out == stats
    assert main(["index", "--graph", str(graph_path), "--index", str(tmp_path / "v2.bin")]) == 0
    assert (tmp_path / "v2.bin").read_bytes() == (tmp_path / "v1.bin").read_bytes()


@pytest.mark.parametrize("command", ["stats", "index", "query", "eval", "ingest"])
def test_every_graph_reader_names_a_line_with_a_huge_integer(tmp_path, capsys, command):
    args = _query_args(tmp_path)
    graph_path = Path(args[1])
    _insert_second_line(graph_path, _UNREADABLE_LINES["huge-integer"])
    doc, extract_script, _ = ingest_setup(tmp_path)
    argv = {"stats": ["stats"] + args[:2], "index": ["index"] + args[:4],
            "query": ["query", TAYLOR_QUESTION] + args,
            "eval": ["eval", _dataset(tmp_path)] + args,
            "ingest": ["ingest", str(doc), "--graph", str(graph_path),
                       "--script", extract_script]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "graph.jsonl" in err
    assert "line 2: invalid JSON: Exceeds the limit (4300 digits)" in err


def test_eval_skips_and_counts_deeply_nested_dataset_lines(tmp_path, capsys):
    argv = ["eval", _dataset(tmp_path)] + _query_args(tmp_path)
    with open(argv[1], "a", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in _DEEP_LINES.values()))
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["aggregate"]["n"] == 1
    assert report["skipped_lines"] == 2


def test_script_rule_without_a_field_names_it(tmp_path, capsys):
    assert main(_malformed_script(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "bad script rule on line 1: missing field 'match_substring'" in err
