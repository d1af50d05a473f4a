"""The three benchmark workloads.  Each makes its inputs from the seed,
drives the program's public entry points in whole rounds until the run's
seconds are spent, checks every round's outputs, and returns its end-to-end
metrics, the operations attempted and those failed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.parse
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import checks, gen, trace
from perfbench.procmem import PeakSampler

NUM_CPUS = 4  # Ray's logical CPU count, the same on every run
OBJECT_STORE_MB = 256
IDLE_WORKER_MS = 600_000

MIN_ROUNDS = 3  # per batch run

PROSE_DOCS = 200  # documents per prose_kg round
PROSE_BLOCKS = 4  # input blocks handed to Ray Data
ORACLE_DOCS = 12  # prose_kg documents also tagged by the single-process oracle

BOIL_DOCS = 2000  # documents per boilerplate_ckpt round
BOIL_FILES = 4  # Parquet files of the input
BOIL_SHARDS = 1
BOIL_POOL = 40  # distinct sentences the documents draw from

SERVE_ROUND = 250  # requests per serve_ner round
SERVE_MIN_SAMPLES = 1000  # so that ten latencies lie beyond the p99 (a multiple of SERVE_ROUND)
SERVE_REPEAT_SHARE = 0.25  # requests repeating one of the hot sentences
SERVE_HOT = 8
SERVE_SAMPLE = 24  # unique replies compared byte for byte


def config(**kw):
    from unsupervised_ner_ray.config import PipelineConfig

    return PipelineConfig(scorer_backend="fixture_mlm", **kw)


@dataclass
class Run:
    root: str  # checkout root, also the working directory
    work: str  # this run's scratch directory
    seed: int
    seconds: float
    t_start: float  # perf_counter() at process start
    trace_dir: str | None = None
    procs: list = field(default_factory=list)  # subprocesses to stop


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int = 0
    busy_s: float = 0.0  # time spent in the measured operations


def batch_result(setup_s: float, n_docs: int, times: list[float], out_bytes: list[int],
                 peak_mb: float) -> Result:
    """End-to-end metrics of a batch workload: one request is one pipeline
    run over the round's documents, from input to complete result."""
    return Result(
        metrics={
            "setup_s": setup_s,
            "docs_per_s": statistics.median(n_docs / t for t in times),
            "requests_per_s": statistics.median(1.0 / t for t in times),
            "latency_p50_ms": statistics.median(times) * 1000.0,
            "output_mb": statistics.median(out_bytes) / 1e6,
            "peak_mem_mb": peak_mb,
        },
        attempted=n_docs * len(times),
        busy_s=sum(times),
    )


# ------------------------------------------------------------------ Ray


def start_ray(run: Run) -> float:
    """Start a local Ray cluster and wait until a task has run on it.
    Returns seconds from process start until then."""
    import ray

    pythonpath = os.pathsep.join(p for p in (run.root, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYTHONPATH"] = pythonpath
    runtime_env = {"env_vars": {"PYTHONPATH": pythonpath}}
    if run.trace_dir:
        runtime_env["env_vars"][trace.TRACE_DIR_ENV] = run.trace_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.worker_setup"
    # Ray's socket paths must stay under 108 bytes: reach the checkout
    # through this process's /proc cwd link, whatever the checkout's path
    temp = f"/proc/{os.getpid()}/cwd/{os.path.relpath(run.work, run.root)}/ray"
    ray.init(
        address="local",  # a fresh cluster, never one already running here
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_MB << 20,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        runtime_env=runtime_env,
        _temp_dir=temp,
        # keep idle worker processes alive between rounds, as on a
        # long-lived cluster that runs job after job; Ray's default (1 s)
        # makes each round start a random number of them afresh
        _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_MS},
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False

    # ready = one task per logical CPU has imported the program's pipeline
    # modules on its worker (this fails here if workers cannot import them)
    @ray.remote(num_cpus=1)
    def import_program() -> bool:
        from unsupervised_ner_ray.pipelines import flagship  # noqa: F401
        from unsupervised_ner_ray.stages import kg, ner  # noqa: F401

        return True

    ray.get([import_program.remote() for _ in range(NUM_CPUS)])
    return time.perf_counter() - run.t_start


def _rows(ds) -> list[dict]:
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tables, promote_options="permissive").to_pylist() if tables else []


def _frame(ds):
    import pandas as pd

    return ds.to_pandas() if ds.count() else pd.DataFrame()


def _rounds(run: Run, one_round) -> list[float]:
    """Call ``one_round(k) -> seconds measured`` until the measured seconds
    reach the run's seconds (checks between rounds are not counted), and at
    least ``MIN_ROUNDS`` times, so that the median is not the first, cold
    round."""
    times: list[float] = []
    while sum(times) < run.seconds or len(times) < MIN_ROUNDS:
        times.append(one_round(len(times)))
    print("rounds (s):", " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    return times


# ------------------------------------------------------------- prose_kg


def prose_kg(run: Run, setup_s: float) -> Result:
    import ray.data as rd

    from unsupervised_ner_ray.oracle import oracle_tag_corpus
    from unsupervised_ner_ray.pipelines.flagship import run_kg_from_tagged, run_tagging

    cfg = config()
    docs = gen.prose_documents(run.seed, PROSE_DOCS)
    inputs = docs.to_pylist()
    per = -(-len(docs) // PROSE_BLOCKS)
    blocks = [docs.slice(i, per) for i in range(0, len(docs), per)]
    last: dict = {}
    out_bytes = []

    def one_round(k: int) -> float:
        t0 = time.perf_counter()
        tagged = run_tagging(rd.from_arrow(blocks), cfg).materialize()
        kg = {name: ds.materialize() for name, ds in run_kg_from_tagged(tagged, cfg).items()}
        dt = time.perf_counter() - t0
        out_bytes.append(tagged.size_bytes() + sum(ds.size_bytes() for ds in kg.values()))
        trace.pause(True)
        rows = _rows(tagged)
        checks.check_documents(inputs, rows)
        checks.check_tagging(rows)
        checks.check_triples(rows)
        mentions, triples = _frame(kg["mentions"]), _frame(kg["triples"])
        if len(mentions) != sum(len(r["mentions"]) for r in rows):
            raise checks.CheckError("mentions table rows != mentions of the tagged documents")
        if len(triples) != sum(len(r["triples"]) for r in rows):
            raise checks.CheckError("triples table rows != triples of the tagged documents")
        checks.check_entities(mentions, _frame(kg["entities"]))
        checks.check_adjacency(triples, _frame(kg["adjacency"]))
        trace.pause(False)
        last["rows"] = rows
        return dt

    with PeakSampler() as mem:
        times = _rounds(run, one_round)
    # tags and triples of a seeded sample against the single-process oracle
    trace.pause(True)
    pick = sorted(np.random.default_rng([run.seed, 6]).choice(len(docs), ORACLE_DOCS, replace=False))
    sample = docs.take(pa.array(pick))
    ids = set(sample.column("doc_id").to_pylist())
    checks.check_against_oracle([r for r in last["rows"] if r["doc_id"] in ids],
                                oracle_tag_corpus(sample, cfg))
    trace.pause(False)
    return batch_result(setup_s, len(docs), times, out_bytes, mem.peak_mb)


# ----------------------------------------------------- boilerplate_ckpt


def _file_hashes(path: str) -> dict[str, str]:
    out = {}
    for r, _, fs in os.walk(path):
        for f in fs:
            p = os.path.join(r, f)
            with open(p, "rb") as fp:
                out[os.path.relpath(p, path)] = hashlib.sha256(fp.read()).hexdigest()
    return out


def _read_manifest(out_dir: str) -> dict[int, dict]:
    with open(os.path.join(out_dir, "_manifest.jsonl")) as fp:
        recs = [json.loads(line) for line in fp if line.strip()]
    return {r["shard"]: r for r in recs}


def _shard_tables(out_dir: str, table: str) -> dict[str, pa.Table]:
    base = os.path.join(out_dir, table)
    return {d: pq.read_table(os.path.join(base, d)) for d in sorted(os.listdir(base))
            if d.startswith("shard=")}


def boilerplate_ckpt(run: Run, setup_s: float) -> Result:
    from unsupervised_ner_ray.pipelines.flagship import run_flagship_checkpointed
    from unsupervised_ner_ray.stages.ner import NerTagger

    cfg = config()
    pool = gen.boilerplate_pool(run.seed, BOIL_POOL)
    docs = gen.boilerplate_documents(run.seed, BOIL_DOCS, pool)
    inputs = docs.to_pylist()
    in_dir = os.path.join(run.work, "boil_input")
    os.makedirs(in_dir)
    per = -(-len(docs) // BOIL_FILES)
    for i in range(BOIL_FILES):
        pq.write_table(docs.slice(i * per, per), os.path.join(in_dir, f"part-{i:04d}.parquet"))
    trace.pause(True)
    uncached = NerTagger(config(sentence_cache_size=0))
    trace.pause(False)
    out_bytes = []

    def one_round(k: int) -> float:
        out_dir = os.path.join(run.work, f"boil_out_{k}")
        t0 = time.perf_counter()
        run_flagship_checkpointed(in_dir, out_dir, cfg, num_shards=BOIL_SHARDS)
        dt = time.perf_counter() - t0
        out_bytes.append(trace.dir_bytes(out_dir))
        before = _file_hashes(out_dir)
        again = run_flagship_checkpointed(in_dir, out_dir, cfg, num_shards=BOIL_SHARDS)
        trace.pause(True)
        checks.check_resume(again, BOIL_SHARDS, before, _file_hashes(out_dir))
        rows = [r for t in _shard_tables(out_dir, "tagged").values() for r in t.to_pylist()]
        checks.check_documents(inputs, rows)
        checks.check_tagging(rows)
        checks.check_triples(rows)
        checks.check_manifest_sentences(_read_manifest(out_dir), inputs)
        entities = {s: t.to_pandas() for s, t in _shard_tables(out_dir, "entities").items()}
        checks.check_shard_entities(entities, sum(len(r["mentions"]) for r in rows))
        checks.check_cached_tags(rows, lambda text: uncached.tag_text(text)["ensembled_tags"])
        trace.pause(False)
        shutil.rmtree(out_dir)
        return dt

    with PeakSampler() as mem:
        times = _rounds(run, one_round)
    return batch_result(setup_s, len(docs), times, out_bytes, mem.peak_mb)


# ------------------------------------------------------------ serve_ner


def _start_server(run: Run) -> tuple[subprocess.Popen, int, float]:
    """Start the server process; returns it, its port and the seconds from
    its start to its first successful reply."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (run.root, env.get("PYTHONPATH")) if p)
    if run.trace_dir:
        env[trace.TRACE_DIR_ENV] = run.trace_dir
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.serve_main"], cwd=run.root,
                            env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    run.procs.append(proc)
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else b""
    if not line.strip().isdigit():
        raise RuntimeError(f"server did not start (exit code {proc.poll()})")
    port = int(line)
    status, _ = _get(port, "/favicon.ico")
    if status != 200:
        raise RuntimeError(f"server's first reply has status {status}")
    return proc, port, time.perf_counter() - t0


def _get(port: int, path: str) -> tuple[int, bytes]:
    # the server speaks HTTP/1.0 and closes every connection after a reply
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)
    if proc.stdout:
        proc.stdout.close()


def serve_ner(run: Run) -> Result:
    from unsupervised_ner_ray.stages.ner import NerTagger

    proc, port, setup_s = _start_server(run)
    seen: set[str] = set()
    hot = gen.serve_hot(run.seed, SERVE_HOT, seen)
    replies: list[tuple[str, int, bytes]] = []
    latencies: list[float] = []
    round_s: list[float] = []
    round_bytes: list[int] = []
    with PeakSampler(proc.pid) as mem:
        while not round_s or len(latencies) < SERVE_MIN_SAMPLES or sum(round_s) < run.seconds:
            nbytes = 0
            t_round = time.perf_counter()
            for s in gen.serve_requests(run.seed, len(round_s), SERVE_ROUND, hot,
                                        SERVE_REPEAT_SHARE, seen):
                path = "/ensemble/" + urllib.parse.quote(s)
                t0 = time.perf_counter()
                status, body = _get(port, path)
                latencies.append(time.perf_counter() - t0)
                replies.append((s, status, body))
                nbytes += len(body)
            round_s.append(time.perf_counter() - t_round)
            round_bytes.append(nbytes)
            if len(latencies) == SERVE_MIN_SAMPLES:
                # the sentence cache grows with every unique request, so
                # memory is compared over the same number of requests
                peak_mb = mem.sample()
    stop_server(proc)
    trace.pause(True)
    for s, status, body in replies:
        checks.check_reply(s, status, body)
    uncached = NerTagger(config(sentence_cache_size=0))
    unique = [r for r in replies if r[0] not in hot]
    pick = np.random.default_rng([run.seed, 7]).choice(len(unique), SERVE_SAMPLE, replace=False)
    sample = [r for r in replies if r[0] in hot] + [unique[int(i)] for i in pick]
    checks.check_replies_identical(
        [(s, body) for s, _, body in sample],
        lambda s: json.dumps(uncached.tag_text(s)["ensembled"], indent=5).encode())
    trace.pause(False)
    lat_ms = [x * 1000.0 for x in latencies]
    p99 = statistics.quantiles(lat_ms, n=100, method="inclusive")[98]
    print(f"serve_ner: latency p99 {p99:.3f} ms over {len(lat_ms)} requests "
          f"({sum(x > p99 for x in lat_ms)} beyond it)", file=sys.stderr)
    # each request carries a one-sentence document
    rate = statistics.median(SERVE_ROUND / t for t in round_s)
    return Result(
        metrics={
            "setup_s": setup_s,
            "docs_per_s": rate,
            "requests_per_s": rate,
            "latency_p50_ms": statistics.median(lat_ms),
            "output_mb": statistics.median(round_bytes) / 1e6,
            "peak_mem_mb": peak_mb,
        },
        attempted=len(latencies),
        busy_s=sum(round_s),
    )
