"""kgrag benchmark: generate seeded inputs, run one workload, check the
outputs, and print every metric by name and unit.

Run from the root of a kgrag checkout::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 50 --trace 0

Every workload runs the pipeline a kgrag user runs: ``ingest`` (twice, the
second a reingest of the same documents), ``index``, then questions. Each
phase runs in a fresh process (worker.py) with ``PYTHONPATH=src``, as one
client in a closed loop. Build and query processes alternate until about
``--seconds`` have passed; workloads differ in input shape. Timings are
medians over the run, scaled to a reference host speed by the run's median
time of a fixed reference loop (see ``pace``). See METRICS.md.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` they are the per-layer
metrics, taken from spans recorded around kgrag's layer boundaries.
``attempted`` and ``failed`` count output checks, so failed_frac is
``failed / attempted``. ``--size smoke`` runs a tiny version of a workload
in seconds.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from spans import ENGINE_SPANS

HERE = Path(__file__).resolve().parent

_WIDE = {"shape": "wide", "docs": 100, "triples_per_doc": 100, "entities": 4800,
         "sources": 3000, "labels": 200, "nested": 0.2, "depth3": 0.1,
         "malformed": 0.01}
_HUB = {"shape": "hub", "hubs": 12, "hub_edges": 1000, "labels": 400,
        "labels_per_hub": 300, "leaves": 2000, "hub_target": 0.05, "nested": 0.05,
        "triples_per_doc": 100}

# A run alternates a build process that runs ``cycles`` build cycles with a
# query process that asks every question once, so the samples of every
# metric spread over the whole run. 200 questions keep ten samples beyond
# p95.
WORKLOADS = {
    "wide": {**_WIDE, "questions": 200, "absent_every": 10, "cycles": 1},
    "hub": {**_HUB, "questions": 200, "absent_every": 10, "cycles": 2},
}
SMOKE = {"docs": 6, "triples_per_doc": 20, "entities": 150, "sources": 60, "labels": 40,
         "hubs": 3, "hub_edges": 60, "labels_per_hub": 30, "leaves": 60,
         "questions": 10}
TRACE_QUESTIONS = 60  # a full-size traced run asks these, each twice
REFERENCE_S = 400e-6  # worker.probe's reference loop at the reference host speed
PAIRS = 2            # B+Q process pairs a run makes at least
SETUPS = 3           # setup_s is a median of this many processes

QUERY_TAGS = ("plan", "select_nodes", "select_rels", "evaluate", "answer")

END_TO_END = {
    "setup_s": "s", "ingest_s": "s", "reingest_s": "s", "index_s": "s",
    "graph_bytes": "B", "index_bytes": "B", "query_p50_ms": "ms", "query_p95_ms": "ms",
    "questions_per_s": "1/s", "lm_calls_per_question": "count",
    "prompt_chars_per_question": "chars", "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def median(values) -> float:
    return statistics.median(values) if values else 0.0




def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


RUN_LIMIT_S = 170    # the whole run, so it ends within three minutes


class Runner:
    def __init__(self, root: Path, work: Path, trace: bool):
        self.root = root
        self.work = work
        self.trace = trace
        self.spawned = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def worker(self, mode: str, *extra: str, setup_only: bool = False) -> dict:
        self.spawned += 1
        out = self.work / f"{mode}-{self.spawned}.json"
        # One client and no threads: BLAS worker threads would spin on the
        # shared cores without speeding up the matrix-vector products.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p)
        command = [sys.executable, str(HERE / "worker.py"), mode, "--dir", str(self.work),
                   "--out", str(out), *extra]
        if setup_only:
            command.append("--setup-only")
        if self.trace:
            command.append("--trace")
        started = time.monotonic()
        proc = subprocess.run(command + ["--spawned", repr(started)], env=env,
                              cwd=self.root, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, self.deadline - started))
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))


# -------------------------------------------------------------- checks

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def equal(self, got, want, what: str) -> None:
        self.expect(got == want, f"{what}: got {got!r}, want {want!r}")


def check_build(checks: Checks, build: dict, expect: dict) -> None:
    digests = {c["graph_digest"] for c in build["cycles"]}
    checks.equal(len(digests), 1, "graph file identical across cycles")
    for n, cycle in enumerate(build["cycles"], 1):
        for name in ("first", "second"):
            report = cycle[name]
            checks.equal(report["chunks"], expect["documents"], f"cycle {n} {name} chunks")
            checks.equal(report["extracted"], expect["statements"], f"cycle {n} {name} triples")
            checks.equal(report["parse_errors"], expect["malformed"],
                         f"cycle {n} {name} malformed lines")
        checks.equal(cycle["first"]["upserted"], expect["upserted"], f"cycle {n} upserted")
        checks.equal(cycle["second"]["upserted"], 0, f"cycle {n} reingest upserted")
        checks.expect(cycle["reingest_identical"], f"cycle {n} reingest changed the graph file")
        for key, value in expect["stats"].items():
            checks.equal(cycle["stats"][key], value, f"cycle {n} stats {key}")
        checks.equal(cycle["audit_error"], None, f"cycle {n} audit")
        checks.equal(cycle["index_entries"], expect["index_entries"], f"cycle {n} index entries")


def check_query(checks: Checks, query: dict, expect: dict) -> None:
    questions = expect["questions"]
    checks.equal(query["examples"], len(questions), "dataset examples")
    checks.equal(query["dataset_problems"], 0, "dataset problems")
    for record in query["records"]:
        want = questions[record["id"]]
        if want["absent"]:
            checks.expect(record["failure"], f"{record['id']} should fail, answered "
                                             f"{record['answer']!r}")
        else:
            checks.expect(record["answer"] == want["gold"]
                          and want["chain"] in record["paths"].splitlines(),
                          f"{record['id']} answered {record['answer']!r} over "
                          f"{record['paths']!r}, want {want['gold']!r} over {want['chain']!r}")
        checks.equal(record["calls"], want["calls"], f"{record['id']} model calls")


# ------------------------------------------------------------- metrics

def merge(results: list[dict]) -> dict:
    """Pool the results of several processes of one kind."""
    merged = dict(results[0])
    for key in ("cycles", "records"):
        if key in merged:
            merged[key] = [item for r in results for item in r[key]]
    return merged


def pace(results: list[dict]) -> float:
    """The factor that scales this run's timings to the reference host speed:
    REFERENCE_S over the median time of the reference loop, which the workers
    ran before every document and question of the run (worker.probe)."""
    return REFERENCE_S / median([p for r in results for p in r["probes"]])


def timings(setup_runs: list[dict], cycles: list[dict], records: list[dict],
            scale: float) -> dict:
    """Build timings are medians over the run's build cycles and setup_s over
    its query processes; question latencies are pooled over every round.
    Every time is multiplied by ``scale``."""
    latencies = [r["latency"] * scale for r in records]
    return {
        "setup_s": median([r["setup_s"] for r in setup_runs]) * scale,
        "ingest_s": median([c["ingest_s"] for c in cycles]) * scale,
        "reingest_s": median([c["reingest_s"] for c in cycles]) * scale,
        "index_s": median([c["index_s"] for c in cycles]) * scale,
        "query_p50_ms": percentile(latencies, 0.50) * 1e3,
        "query_p95_ms": percentile(latencies, 0.95) * 1e3,
        "questions_per_s": len(latencies) / sum(latencies),
    }


def end_to_end(setup_runs: list[dict], peak_rss_mb: float, build: dict,
               query: dict, scale: float) -> dict:
    cycles = build["cycles"]
    records = query["records"]
    last = cycles[-1]
    values = {
        **timings(setup_runs, cycles, records, scale),
        "graph_bytes": last["graph_bytes"],
        "index_bytes": last["index_bytes"],
        "lm_calls_per_question": sum(r["calls"] for r in records) / len(records),
        "prompt_chars_per_question": sum(r["prompt_chars"] for r in records) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(build: dict, query: dict) -> dict:
    groups: dict[str, dict] = {}
    for result in (build, query):
        for key, group in result["spans"].items():
            groups[key] = group

    def spans(name: str, *phases: str) -> list[dict]:
        return [g for key, g in groups.items()
                if key.split(":", 1)[1] == name and (not phases or key.split(":")[0] in phases)]

    def total(field: str, name: str, *phases: str) -> float:
        return sum(g[field] for g in spans(name, *phases))

    def durations(name: str, *phases: str, field: str = "durations") -> list[float]:
        return [d for g in spans(name, *phases) for d in g[field]]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    traced = [r for r in query["records"] if r["traced"]]
    untraced = [r for r in query["records"] if not r["traced"]]
    questions = len(traced)
    question_time = sum(r["latency"] for r in traced)
    steps = total("n", "explore.node_step", "query") + total("n", "explore.rel_step", "query")
    builds = [c for c in build["cycles"] if c["traced"]]
    plain = [c for c in build["cycles"] if not c["traced"]]

    def cycle_time(cycle):
        return cycle["ingest_s"] + cycle["reingest_s"] + cycle["index_s"]

    values = {
        "triples.parse_us_per_triple": (1e6 * ratio(
            total("total", "triples.parse"), total("count", "triples.parse")), "us"),
        "graph.upsert_us_per_triple": (1e6 * ratio(
            total("total", "graph.upsert"), total("n", "graph.upsert")), "us"),
        "graph.created_frac": (ratio(total("count", "graph.upsert", "ingest"),
                                     total("n", "graph.upsert", "ingest")), "ratio"),
        "graph.save_s": (median(durations("graph.save")), "s"),
        "graph.load_s": (median(durations("graph.load")), "s"),
        "graph.audit_s": (median(durations("graph.audit")), "s"),
        "embedding.load_s": (median(durations("embedding.load")), "s"),
        "embedding.build_s": (median(durations("embedding.build")), "s"),
        "embedding.save_s": (median(durations("embedding.save")), "s"),
        "embedding.embed_texts": (ratio(total("count", "embedding.embed", "index"),
                                        total("n", "embedding.build")), "count"),
        "embedding.search_ms_p50": (1e3 * median(durations("embedding.search", "query")), "ms"),
        "embedding.search_calls_per_question": (
            ratio(total("n", "embedding.search", "query"), questions), "count"),
        "embedding.search_share": (
            ratio(total("total", "embedding.search", "query"), question_time), "ratio"),
        "embedding.embed_texts_per_question": (
            ratio(total("count", "embedding.embed", "query"), questions), "count"),
        "graph.neighbors_ms": (1e3 * median(durations("graph.neighbors", "query")), "ms"),
        "graph.target_nodes_ms": (1e3 * median(durations("graph.target_nodes", "query")), "ms"),
        "graph.edges_scanned_per_question": (
            ratio(total("count", "graph.neighbors", "query"), questions), "count"),
        "explore.node_step_ms": (1e3 * median(durations("explore.node_step", "query")), "ms"),
        "explore.rel_step_ms": (1e3 * median(durations("explore.rel_step", "query")), "ms"),
        "explore.rel_step_share": (
            ratio(total("total", "explore.rel_step", "query"), question_time), "ratio"),
        "explore.self_ms_per_step": (1e3 * ratio(
            sum(total("self_total", name, "query") for name in ENGINE_SPANS), steps), "ms"),
        "explore.steps_per_question": (ratio(steps, questions), "count"),
        "explore.refinements_per_question": (
            ratio(total("n", "explore.refine", "query"), questions), "count"),
        "answering.generate_ms": (1e3 * median(
            durations("answering.generate", "query", field="selfs")), "ms"),
        "llm.complete_ms": (1e3 * ratio(total("total", "llm.complete"),
                                        total("n", "llm.complete")), "ms"),
        "llm.script_load_s": (median(durations("llm.script_load")), "s"),
    }
    documents = build["documents"] * 2 * len(builds)
    for tag in ("extract",) + QUERY_TAGS:
        source, per = (build, documents) if tag == "extract" else (query, questions)
        calls, prompt, reply = source["llm"]["traced"].get(tag, (0, 0, 0))
        values[f"llm.calls.{tag}"] = (ratio(calls, per), "count")
        values[f"llm.prompt_chars.{tag}"] = (ratio(prompt, per), "chars")
        values[f"llm.reply_chars.{tag}"] = (ratio(reply, per), "chars")
    values["trace.overhead_query_frac"] = (ratio(
        sum(r["latency"] for r in traced), sum(r["latency"] for r in untraced)) - 1, "ratio")
    values["trace.overhead_build_frac"] = (ratio(
        sum(map(cycle_time, builds)) / max(1, len(builds)),
        sum(map(cycle_time, plain)) / max(1, len(plain))) - 1, "ratio")
    return values


# ---------------------------------------------------------------- main

def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "kgrag" / "__init__.py").is_file():
        print("error: src/kgrag not found; run from the root of a kgrag checkout",
              file=sys.stderr)
        return 2
    spec = dict(WORKLOADS[args.workload])
    if args.size == "smoke":
        spec.update(SMOKE)
    # One directory per workload, replaced by each run, keeps disk use flat;
    # the last run's inputs, results and spans stay there for inspection.
    work = root / ".perfbench_work" / f"{args.workload}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expect = gen.generate(spec, args.seed, work / "inputs")
    print(f"workload {args.workload} size {args.size} seed {args.seed} "
          f"inputs sha256:{expect['digest']} documents {expect['documents']} "
          f"triples {expect['statements']} malformed {expect['malformed']} "
          f"questions {len(expect['questions'])} (oracle rejected {expect['rejected_paths']} "
          f"paths) stats {json.dumps(expect['stats'])}")
    # Byte-compile once so no timed import pays for compilation.
    compileall.compile_dir(root / "src" / "kgrag", quiet=1)

    trace = bool(args.trace)
    runner = Runner(root, work, trace)
    # A traced run makes one pair: a build process with an untraced and a
    # traced cycle, then a query process asking each question twice, once
    # traced. Otherwise pairs repeat while the next one should end within
    # --seconds; each query process is one round over the questions.
    count = spec["questions"]
    if trace and args.size == "full":
        count = TRACE_QUESTIONS
    results: dict[str, list[dict]] = {"B": [], "Q": []}
    start = time.monotonic()
    while True:
        results["B"].append(runner.worker(
            "build", "--cycles", str(2 if trace else spec["cycles"])))
        results["Q"].append(runner.worker("query", "--count", str(count)))
        pairs = len(results["Q"])
        if trace or (pairs >= PAIRS
                     and (time.monotonic() - start) * (pairs + 1) / pairs > args.seconds):
            break
    setup_runs = list(results["Q"])
    while not trace and len(setup_runs) < SETUPS:
        setup_runs.append(runner.worker("query", setup_only=True))
    peak_rss_mb = max(r["peak_rss_mb"] for r in results["B"] + setup_runs)
    build, query = merge(results["B"]), merge(results["Q"])

    checks = Checks()
    check_build(checks, build, expect)
    check_query(checks, query, expect)
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}")
    failed = len(checks.failures)
    if trace:
        missing = sorted(set(build["hooks_missing"]) | set(query["hooks_missing"]))
        print(f"hooks missing: {', '.join(missing) or 'none'}")
        metrics = per_layer(build, query)
    else:
        scale = pace(results["B"] + results["Q"])
        metrics = end_to_end(setup_runs, peak_rss_mb, build, query, scale)
        measured = timings(setup_runs, build["cycles"], query["records"], 1.0)
        print(f"host pace {scale!r} (reference loop {REFERENCE_S * 1e6:.0f} us over its "
              f"median in this run)")
        print("as measured: " + ", ".join(f"{name} {value:.6g}" for name, value in measured.items()))
        print(f"build+query pairs {len(results['Q'])}, setups {len(setup_runs)}, "
              f"build cycles {len(build['cycles'])}, questions asked {len(query['records'])}, "
              f"measured {time.monotonic() - start:.1f} s")
    print(f"failed_frac {failed / checks.attempted!r} ratio "
          f"({failed} of {checks.attempted} checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgrag benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="about how long to keep repeating build and query processes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
