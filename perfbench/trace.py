"""Span tracing of the program's layers, installed from the benchmark.

``install()`` wraps the public functions and methods of each layer module in
place (module attributes and class attributes), so no program file changes.
It runs in the benchmark process, in the server process and, through Ray's
``worker_process_setup_hook``, in every Ray worker.  A span records name,
start, end, its own id, its parent's id, the process id and up to two
counts.  Spans stay in memory and are appended to ``spans-<pid>.jsonl`` in
the trace directory whenever a process's outermost span ends (Ray kills
actor processes without running exit handlers, so a worker cannot wait for
its own exit to write); the server process writes once, when it stops.  ``summarize()`` turns the files into per-layer self
times and counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_rec = None  # this process's Recorder, made by the first traced call
_paused = False  # set while the benchmark runs its own checks in-process


class Recorder:
    def __init__(self, trace_dir: str):
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        self.spans: list[list] = []
        self.ids = itertools.count(1)
        self._local = threading.local()  # one span stack per thread
        # write whenever an outermost span ends: Ray worker processes can
        # be killed at any time.  A process that flushes at its own exit
        # (the server) turns this off.
        self.autoflush = True

    @property
    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def flush(self) -> None:
        spans, self.spans = self.spans, []
        if spans:
            with open(self.path, "a") as fp:
                fp.write("".join(json.dumps(s) + "\n" for s in spans))


def pause(flag: bool) -> None:
    global _paused
    _paused = flag


def recorder() -> Recorder | None:
    global _rec
    if _rec is None and os.environ.get(TRACE_DIR_ENV):
        _rec = Recorder(os.environ[TRACE_DIR_ENV])
    return _rec


def record(name, fn, args, kwargs, count=None):
    rec = recorder()
    if rec is None or _paused:
        return fn(*args, **kwargs)
    sid = next(rec.ids)
    stack = rec.stack
    parent = stack[-1] if stack else 0
    stack.append(sid)
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        t1 = time.perf_counter()
        stack.pop()
    n, m = count(args, out) if count else (None, None)
    rec.spans.append([name, t0, t1, sid, parent, os.getpid(), n, m])
    if not stack and rec.autoflush:
        rec.flush()
    return out


def _wrap(fn, name, count=None):
    """``fn`` recording a span per call.  The wrapper keeps fn's name (Ray
    Data names operators after their UDF), and a wrapped UDF closure is
    pickled by value, so its spans are recorded in the worker that runs it."""
    if getattr(fn, "__perfbench__", False):
        return fn

    @functools.wraps(fn)
    def w(*args, **kwargs):
        return record(name, fn, args, kwargs, count)

    w.__perfbench__ = True
    return w


def _patch(owner, attr, name, count=None):
    setattr(owner, attr, _wrap(getattr(owner, attr), name, count))


def _rows_in_out(args, out):
    return len(args[0]), len(out)


def _rows_in(args, out):
    return len(args[0]), None


def _n_first_arg(args, out):
    return len(args[1]), None


# Ray Data UDF closures (by qualified name) that get their own span
_MAP_UDFS = {
    "explode_triples.<locals>._explode": "ner.explode",
    "explode_mentions.<locals>._explode": "ner.explode",
    "entity_count_partials.<locals>._combine": "kg.combine",
}
# partitioned_apply per-partition functions -> span name
_GROUP_FNS = {
    "entity_count_partials.<locals>._merge_bucket": "grouping.canon",
    "finalize_entity_partials.<locals>._finalize": "grouping.canon",
    "build_adjacency.<locals>._adj_part": "grouping.adjacency",
}


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(path) for f in fs)


def install() -> None:
    """Wrap every traced layer of the program in this process."""
    import ray.data

    from unsupervised_ner_ray import backends, serving
    from unsupervised_ner_ray.functions import aggregation, emission, masking, tagger
    from unsupervised_ner_ray.pipelines import checkpoint
    from unsupervised_ner_ray.stages import grouping, kg, ner

    for f in ("detect_terms", "generate_masked_sentences", "filter_common_noun_spans",
              "span_phrases", "gen_ci_sentences", "is_blank_entity_sentence"):
        _patch(masking, f, "masking")
    for f in ("aggregate_entities", "aggregate_entities_v1", "pool_confidences",
              "fill_detected_entities", "pack_confidences"):
        _patch(aggregation, f, "aggregation")
    for f in ("emit_bio", "build_model_result"):
        _patch(emission, f, "emission")
    _patch(tagger, "ensemble_processing", "ensemble")
    _patch(ner, "extract_triples", "extract")
    _patch(ner, "extract_entity_spans", "extract")
    base = backends._BatchedMLMBackend
    _patch(base, "predict_batch", "backend.predict", _n_first_arg)
    _patch(backends.FixtureMLMBackend, "_forward_numpy", "backend.forward",
           lambda a, o: (len(a[1]["input_ids"]), None))
    # cache accounting: every tag_text call, and the calls that miss the
    # sentence cache and reach the tagging core
    _patch(ner.NerTagger, "tag_text", "ner.tag_text")
    _patch(ner, "ensemble_tag_sentence", "ner.miss")
    _patch(ner.NerTagger, "__call__", "ner.batch", _n_first_arg)
    _patch(kg.EntityLinker, "__call__", "kg.link", _n_first_arg)

    if not getattr(grouping.partitioned_apply, "__perfbench__", False):
        orig_pa = grouping.partitioned_apply

        def partitioned_apply(ds, keys, fn, num_parts=64):
            name = _GROUP_FNS.get(getattr(fn, "__qualname__", ""), "grouping.other")
            return orig_pa(ds, keys, _wrap(fn, name, _rows_in), num_parts)

        partitioned_apply.__perfbench__ = True
        grouping.partitioned_apply = partitioned_apply

    if not getattr(checkpoint.run_checkpointed, "__perfbench__", False):
        orig_rc = checkpoint.run_checkpointed

        def run_checkpointed(input_path, out_dir, run_shard_fn, *a, **kw):
            return orig_rc(input_path, out_dir,
                           _wrap(run_shard_fn, "checkpoint.shard"), *a, **kw)

        run_checkpointed.__perfbench__ = True
        checkpoint.run_checkpointed = run_checkpointed
    _patch(checkpoint, "atomic_write_parquet", "checkpoint.write",
           lambda a, o: (dir_bytes(a[1]), None))

    _patch(serving.NerService, "respond", "serve.respond")
    if not isinstance(serving.json, _JsonShim):
        serving.json = _JsonShim(serving.json)

    ds_cls = ray.data.Dataset
    if not getattr(ds_cls.map_batches, "__perfbench__", False):
        orig_mb = ds_cls.map_batches

        @functools.wraps(orig_mb)
        def map_batches(self, fn, *a, **kw):
            name = _MAP_UDFS.get(getattr(fn, "__qualname__", ""))
            if name:
                fn = _wrap(fn, name, _rows_in_out)
            return orig_mb(self, fn, *a, **kw)

        map_batches.__perfbench__ = True
        ds_cls.map_batches = map_batches

        orig_mat = ds_cls.materialize

        @functools.wraps(orig_mat)
        def materialize(self):
            out = orig_mat(self)
            rec = recorder()
            if rec is not None and not _paused:
                rec.spans.append(["raydata"] + _op_stats(out))
                if not rec.stack:
                    rec.flush()
            return out

        ds_cls.materialize = materialize


class _JsonShim:
    """Stands in for the ``json`` module inside ``serving`` so that response
    encoding is its own span."""

    def __init__(self, mod):
        self._mod = mod
        self.dumps = _wrap(mod.dumps, "serve.encode")

    def __getattr__(self, attr):
        return getattr(self._mod, attr)


def _op_stats(ds) -> list:
    """Per-operator Ray Data stats of one executed Dataset, parents
    included: [[name, earliest_start, wall_s_sum, rows_out_sum], ...]."""
    out, todo = [], [ds._plan.stats().to_summary()]
    while todo:
        s = todo.pop()
        for o in s.operators_stats:
            out.append([o.operator_name, o.earliest_start_time,
                        (o.wall_time or {}).get("sum", 0.0),
                        (o.output_num_rows or {}).get("sum", 0)])
        todo.extend(s.parents)
    return out


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker too."""
    install()


# ---------------------------------------------------------------- summary

# Ray Data operators grouped by what they run
_OP_CLASSES = (
    ("NerTagger", "tagger"), ("EntityLinker", "link"), ("Write", "write"),
    ("ReadParquet", "read"), ("Sort", "shuffle"), ("Repartition", "shuffle"),
    ("MapBatches", "map"),
)
OP_CLASSES = sorted({c for _, c in _OP_CLASSES})


def _op_class(name: str) -> str | None:
    for key, cls in _OP_CLASSES:
        if key in name:
            return cls
    return None


def load_spans(trace_dir: str) -> tuple[list[list], list[list]]:
    spans, ops = [], []
    for f in sorted(os.listdir(trace_dir)):
        if f.startswith("spans-"):
            with open(os.path.join(trace_dir, f)) as fp:
                for line in fp:
                    s = json.loads(line)
                    (ops if s[0] == "raydata" else spans).append(s)
    return spans, ops


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover
    (spans nest within one process, so children never overlap)."""
    child = {}
    for s in spans:
        key = (s[5], s[4])
        child[key] = child.get(key, 0.0) + (s[2] - s[1])
    return [(s[2] - s[1]) - child.get((s[5], s[3]), 0.0) for s in spans]


def summarize(trace_dir: str) -> tuple[dict[str, float], dict]:
    """Per-layer metrics (name -> value) and the detail written to the
    trace report."""
    spans, ops = load_spans(trace_dir)
    selfs = self_times(spans)
    cnt: dict[str, int] = {}
    st: dict[str, float] = {}
    dur: dict[str, float] = {}
    n1: dict[str, int] = {}
    n2: dict[str, int] = {}
    empty: dict[str, int] = {}
    for s, sf in zip(spans, selfs):
        name = s[0]
        cnt[name] = cnt.get(name, 0) + 1
        st[name] = st.get(name, 0.0) + sf
        dur[name] = dur.get(name, 0.0) + (s[2] - s[1])
        n1[name] = n1.get(name, 0) + (s[6] or 0)
        n2[name] = n2.get(name, 0) + (s[7] or 0)
        if s[6] == 0:
            empty[name] = empty.get(name, 0) + 1

    def total(d, *names):
        return sum(d.get(n, 0) for n in names)

    groups = ("grouping.canon", "grouping.adjacency", "grouping.other")
    m = {
        "masking.calls": total(cnt, "masking"),
        "masking.s": total(st, "masking"),
        "backend.masked_sentences": total(n1, "backend.predict"),
        "backend.forward_calls": total(cnt, "backend.forward"),
        "backend.s": total(st, "backend.predict", "backend.forward"),
        "aggregation.s": total(st, "aggregation"),
        "ensemble.s": total(st, "ensemble"),
        "emission.s": total(st, "emission"),
        "extract.s": total(st, "extract"),
        "ner.batches": total(cnt, "ner.batch"),
        "ner.text_spans": total(cnt, "ner.tag_text"),
        "ner.batch_self_s": total(st, "ner.batch"),
        "ner.explode_s": total(st, "ner.explode"),
        "ner.cache_hits": total(cnt, "ner.tag_text") - total(cnt, "ner.miss"),
        "ner.cache_misses": total(cnt, "ner.miss"),
        "kg.link_s": total(st, "kg.link"),
        "kg.link_rows": total(n1, "kg.link"),
        "kg.combine_rows_in": total(n1, "kg.combine"),
        "kg.combine_rows_out": total(n2, "kg.combine"),
        "kg.canon_s": total(st, "kg.combine", "grouping.canon"),
        "kg.adjacency_s": total(st, "grouping.adjacency"),
        "grouping.partitions": total(cnt, *groups),
        "grouping.empty_partitions": total(empty, *groups),
        "grouping.rows": total(n1, *groups),
        "grouping.fn_s": total(st, *groups),
        "checkpoint.shards": total(cnt, "checkpoint.shard"),
        "checkpoint.shard_s": total(dur, "checkpoint.shard"),
        "checkpoint.write_s": total(dur, "checkpoint.write"),
        "checkpoint.bytes_written": total(n1, "checkpoint.write"),
        "serve.respond_s": total(st, "serve.respond"),
        "serve.encode_s": total(st, "serve.encode"),
    }
    # Ray Data operator stats, each executed operator once (a Dataset's
    # stats repeat those of the Datasets it was built from)
    seen = set()
    per_op: dict[str, list] = {}
    for rec in ops:
        for name, start, wall, rows in rec[1:]:
            if (name, start) in seen:
                continue
            seen.add((name, start))
            agg = per_op.setdefault(name, [0.0, 0])
            agg[0] += wall
            agg[1] += rows
    for c in OP_CLASSES:
        m[f"raydata.{c}.wall_s"] = 0.0
        m[f"raydata.{c}.rows_out"] = 0
    for name, (wall, rows) in per_op.items():
        c = _op_class(name)
        if c:
            m[f"raydata.{c}.wall_s"] += wall
            m[f"raydata.{c}.rows_out"] += rows
    m["trace.spans"] = len(spans)
    detail = {"ray_data_operators": per_op,
              "spans_by_name": {k: {"count": cnt[k], "self_s": st[k], "total_s": dur[k]}
                                for k in sorted(cnt)}}
    return m, detail


def per_span_cost(n: int = 20000) -> float:
    """Seconds one traced call adds, recording and writing included,
    measured here on an empty function."""
    global _rec
    import tempfile

    def f():
        return None

    w = _wrap(f, "calibrate")
    saved = _rec
    with tempfile.TemporaryDirectory(dir=os.environ.get(TRACE_DIR_ENV)) as d:
        _rec = Recorder(d)
        _rec.stack.append(0)  # keep spans in memory, as inside a batch
        t0 = time.perf_counter()
        for _ in range(n):
            w()
        _rec.flush()
        t1 = time.perf_counter()
        for _ in range(n):
            f()
        t2 = time.perf_counter()
    _rec = saved
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)
