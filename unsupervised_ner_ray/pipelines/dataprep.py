"""Composite training-data preparation pipeline (driver mandate: what a
100 TB corpus actually runs end to end) — quality filter -> PII/URL scrub ->
near-dup resolution -> token-budget cut — composed entirely from the
engine's stages and hash-checked END TO END by one DuckDB oracle
(q_dataprep): every stage here is SQL-expressible, so the driver certifies
the whole composition, not just its pieces.

The token-budget cut is a distributed SEGMENTED PREFIX SUM
(:func:`token_budget_filter`): per-bucket partial sums (a few scalars per
id-range bucket) come to the driver, the bucket offsets are cumsummed there
(scalars only, never rows) and broadcast back, then each bucket resolves its
local running total independently — the classic two-phase scan, so a global
"take docs in id order until N tokens" needs one tiny driver vector instead
of a serial pass over the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def _with_running_sum(
    ds,
    order_col: str,
    weight_col: str,
    bucket: int,
    finish,
):
    """Distributed two-phase prefix sum shared by :func:`token_budget_filter`
    and :func:`pack_sequences`: bucket ids by ``order_col // bucket``, reduce
    per-bucket totals (driver sees one scalar per bucket), cumsum the offsets
    on the driver, broadcast, then each bucket computes its exact local
    running totals in one partition-local vectorized pass.  ``finish(g)``
    receives each partition frame with the inclusive running sum in
    ``cum_tokens`` and returns the partition's output rows."""
    from ray.data.aggregate import Sum

    from ..stages.grouping import partitioned_apply

    _B = "__bucket"

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[_B] = (df[order_col].to_numpy() // bucket).astype(np.int64)
        return df

    tagged = ds.map_batches(_tag, batch_format="pandas").materialize()
    part = (
        tagged.groupby(_B)
        .aggregate(Sum(weight_col, alias_name="_w"))
        .to_pandas()
        .sort_values(_B)
    )
    offsets = dict(
        zip(part[_B], np.concatenate([[0], part["_w"].to_numpy().cumsum()[:-1]]))
    )
    off_ref = ray.put(offsets)

    def _resolve(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = g.sort_values(order_col, kind="mergesort").copy()
        base = np.array([off[b] for b in g[_B]], dtype=np.int64)
        # ray.get is cheap (plasma-shared); per-bucket local cumsum + offset
        local = g.groupby(_B, sort=False)[weight_col].cumsum().to_numpy()
        g["cum_tokens"] = (base + local).astype(np.int64)
        return finish(g).drop(columns=[_B])

    return partitioned_apply(tagged, _B, _resolve)


def token_budget_filter(
    ds,
    budget: int,
    order_col: str = "doc_id",
    weight_col: str = "n_tokens",
    bucket: int = 1024,
):
    """Keep rows, in ascending ``order_col`` order, while the running sum of
    ``weight_col`` stays <= ``budget`` (SQL: SUM(w) OVER (ORDER BY id) <= b).
    Adds a ``cum_tokens`` column (the inclusive running sum)."""
    return _with_running_sum(
        ds, order_col, weight_col, bucket, lambda g: g[g["cum_tokens"] <= budget]
    )


def pack_sequences(
    ds,
    pack_budget: int = 512,
    order_col: str = "doc_id",
    weight_col: str = "n_tokens",
    bucket: int = 1024,
):
    """Fixed-boundary sequence packing: assign every doc, in ascending
    ``order_col`` order, to the training pack (context-window bin) its
    running token offset falls in — ``pack_id = (exclusive_prefix_sum //
    pack_budget)`` (SQL: (SUM(w) OVER (ORDER BY id) - w) // budget).  Docs
    may straddle a boundary (the loader truncates/continues); what matters
    at 100 TB is that pack assignment is a two-phase prefix sum — per-bucket
    scalar totals to the driver, offsets broadcast back — never a serial
    scan.  Adds ``cum_tokens`` (inclusive) and ``pack_id``."""

    def _assign(g: pd.DataFrame) -> pd.DataFrame:
        w = g[weight_col].to_numpy().astype(np.int64)
        g["pack_id"] = (g["cum_tokens"].to_numpy() - w) // pack_budget
        return g

    return _with_running_sum(ds, order_col, weight_col, bucket, _assign)


def _survivors(docs, min_tokens: int):
    """Stage 1 of the composite: quality >= ``min_tokens`` whitespace
    tokens, emails/URLs scrubbed, near-dup losers (same-lang
    consecutive-run components) dropped.  Output: doc_id, lang, n_tokens,
    clean_text.

    Quality and scrub are one row-local pass over each doc (doc_id is the
    corpus key, so joining their per-doc outputs back on it would only pay
    two shuffles for the same rows); the losers leave through one
    anti-join (left join + null filter)."""
    from ..stages.dedup import dedup_resolve_runs
    from ..stages.joins import hash_join
    from ..stages.textstats import quality_table, scrub_table

    def _doc_cols(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "n_tokens": quality_table(batch).column("n_tokens"),
                "clean_text": scrub_table(batch).column("clean_text"),
            }
        )

    def _dup_rows(df: pd.DataFrame) -> pd.DataFrame:
        lost = df[~df["keep"]]
        return pd.DataFrame(
            {"doc_id": lost["doc_id"].to_numpy().astype(np.int64), "_dup": np.int8(1)}
        )

    base = docs.map_batches(_doc_cols, batch_format="pyarrow")
    dropped = dedup_resolve_runs(docs).map_batches(_dup_rows, batch_format="pandas")
    survivors = hash_join(
        base, dropped, join_type="left_outer", num_partitions=8, on=("doc_id",)
    )

    def _filter(df: pd.DataFrame) -> pd.DataFrame:
        out = df[(df["_dup"].isna()) & (df["n_tokens"] >= min_tokens)].copy()
        out = out.drop(columns=["_dup"])
        out["n_tokens"] = out["n_tokens"].astype(np.int64)
        return out

    return survivors.map_batches(_filter, batch_format="pandas")


def run_dataprep(
    docs,
    min_tokens: int = 5,
    budget: int = 5_000,
):
    """quality filter (>= min_tokens whitespace tokens) -> scrub emails/URLs
    -> drop near-dup non-survivors (same-lang consecutive-run components;
    the SQL-checkable face of dedup resolution) -> token-budget cut in
    doc_id order.  Output: doc_id, lang, clean_text, n_tokens, cum_tokens,
    sorted by doc_id."""
    cut = token_budget_filter(_survivors(docs, min_tokens), budget=budget)
    return cut.sort("doc_id").select_columns(
        ["doc_id", "lang", "clean_text", "n_tokens", "cum_tokens"]
    )


def run_dataprep_checkpointed(
    docs_path: str,
    out_root: str,
    min_tokens: int = 5,
    budget: int = 5_000,
):
    """STAGE-level checkpointed form of :func:`run_dataprep` — the resume
    shape for CORPUS-WIDE pipelines, complementing the flagship's per-SHARD
    manifest (`checkpoint.run_checkpointed`, which needs row-local work):
    dedup components and the budget prefix-sum are global, so the unit of
    resume is the completed STAGE, not an input shard.

    Each stage writes its full output as parquet via the same atomic
    tmp-dir + rename used by the shard manifest, then records a
    ``_stage_<name>.json`` marker (rows, seconds).  On restart, completed
    stages are SKIPPED and their outputs re-read from parquet — the stage
    boundary is a real durability point (downstream work never re-runs
    upstream compute), exactly how a killed `ray job submit` resumes a
    multi-stage 100 TB run.

    Stages: (1) ``survivors``  — quality >= min_tokens, PII/URL scrub,
    near-dup losers dropped; (2) ``dataprep`` — token-budget prefix-sum cut
    over the survivors.  Returns {"completed": [...], "skipped": [...],
    "seconds": total}; final output parquet at ``<out_root>/dataprep``."""
    import json
    import os
    import time

    import ray.data as rd

    from .checkpoint import atomic_write_parquet, clean_tmp_dirs

    os.makedirs(out_root, exist_ok=True)
    clean_tmp_dirs(out_root)

    def _marker(name: str) -> str:
        return os.path.join(out_root, f"_stage_{name}.json")

    def _done(name: str) -> bool:
        return os.path.exists(_marker(name)) and os.path.isdir(
            os.path.join(out_root, name)
        )

    def _commit(name: str, ds) -> int:
        t0 = time.time()
        rows = atomic_write_parquet(ds, os.path.join(out_root, name))
        with open(_marker(name), "w") as f:
            json.dump(
                {"stage": name, "rows": rows, "seconds": round(time.time() - t0, 3)},
                f,
            )
        return rows

    completed, skipped = [], []
    t_start = time.time()

    # stage 1: survivors (quality + scrub + dedup-loss filter)
    if _done("survivors"):
        skipped.append("survivors")
    else:
        _commit("survivors", _survivors(rd.read_parquet(docs_path), min_tokens))
        completed.append("survivors")

    # stage 2: budget cut, READ FROM the stage-1 parquet (the checkpoint)
    if _done("dataprep"):
        skipped.append("dataprep")
    else:
        kept = rd.read_parquet(os.path.join(out_root, "survivors"))
        cut = token_budget_filter(kept, budget=budget).sort("doc_id").select_columns(
            ["doc_id", "lang", "clean_text", "n_tokens", "cum_tokens"]
        )
        _commit("dataprep", cut)
        completed.append("dataprep")

    return {
        "completed": completed,
        "skipped": skipped,
        "seconds": round(time.time() - t_start, 3),
    }


def _hashed_ngram_counts(batch: pd.DataFrame, n_buckets: int):
    """Per-doc hashed unigram+bigram bucket counts, one vectorized pass.
    Returns (doc_idx, bucket, count) arrays with (doc, bucket) pairs unique
    and bucket-sorted within each doc — so any later per-doc reduce visits
    buckets in a batching-independent order (float determinism)."""
    import hashlib as _hl

    texts = batch["text"].to_numpy()
    toks = [t.split() for t in texts]
    grams: list[str] = []
    doc_idx_l: list[int] = []
    for i, w in enumerate(toks):
        w = [x for x in w if x]
        g = w + [w[j] + " " + w[j + 1] for j in range(len(w) - 1)]
        grams.extend(g)
        doc_idx_l.extend([i] * len(g))
    if not grams:
        z = np.array([], dtype=np.int64)
        return z, z, z
    doc_idx = np.asarray(doc_idx_l, dtype=np.int64)
    codes, uniq = pd.factorize(np.asarray(grams, dtype=object), sort=False)
    bucket_of = np.array(
        [
            int.from_bytes(
                _hl.blake2b(u.encode(), digest_size=8).digest(), "big"
            )
            % n_buckets
            for u in uniq
        ],
        dtype=np.int64,
    )
    key = doc_idx * n_buckets + bucket_of[codes]
    uk, cnt = np.unique(key, return_counts=True)
    return uk // n_buckets, uk % n_buckets, cnt.astype(np.int64)


def _hashed_ngram_lm(docs, n_buckets: int):
    """Corpus-level hashed-ngram bucket counts: per-batch bincount partials
    (B-bounded payload regardless of corpus size) + one C-path Sum groupby.
    Returns a dense (n_buckets,) int64 vector on the driver."""
    from ray.data.aggregate import Sum

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        _, bk, ct = _hashed_ngram_counts(b, n_buckets)
        acc = np.bincount(bk, weights=ct, minlength=n_buckets).astype(np.int64)
        nz = np.flatnonzero(acc)
        return pd.DataFrame({"bucket": nz, "n": acc[nz]})

    agg = (
        docs.map_batches(_partial, batch_format="pandas")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    dense = np.zeros(n_buckets, dtype=np.int64)
    dense[agg["bucket"].to_numpy()] = agg["n"].to_numpy()
    return dense


def dsir_select(
    source,
    target,
    frac: float = 0.2,
    k: int | None = None,
    n_buckets: int = 16_384,
    alpha: float = 0.1,
    seed: int = 17,
):
    """DSIR — Data Selection via Importance Resampling (Xie et al., 2023,
    arXiv:2302.03169), the standard recipe for carving domain-targeted
    training data out of a raw web corpus: fit bag-of-hashed-ngram unigram
    LMs on the TARGET (the domain you want more of) and on the raw SOURCE,
    score every source doc with the log importance weight
    ``log p_target(x) - log p_source(x)``, then sample without replacement
    proportionally to the weights via deterministic Gumbel-top-k.

    Scale shape: both LMs reduce to ONE ``n_buckets``-bounded count vector
    (per-batch bincount partials + C-path Sum groupby — the corpus never
    shuffles); the smoothed log-ratio vector broadcasts once via
    ``ray.put``; scoring is a pure map (per-doc buckets visited in sorted
    order so float summation is batching-independent); the top-k is the
    distributed sort+limit.  Driver state is O(n_buckets) floats.

    Gumbel keys are hash-seeded (splitmix64 of doc_id, the
    q_bootstrap_mean recipe) — reproducible across runs, nodes and
    engines; Gumbel-top-k over ``logw + G`` IS sampling w/o replacement
    proportional to ``exp(logw)``.  Output: the selected (doc_id, logw)
    rows sorted by doc_id.  Not SQL-expressible (float log LM) ->
    rows-only; pinned by enrichment/determinism tests.

    Sizing rule: keep TARGET corpus ngram tokens >> ``alpha * n_buckets``,
    else the add-alpha mass drowns the target LM and scores degenerate to
    doc-length noise (measured on the fixture corpus: B=16384/alpha=1 gives
    base-rate selection; B=2048/alpha=0.1 gives 4x target enrichment).
    """
    from ..stages.grouping import partitioned_apply  # noqa: F401  (doc link)

    n_src = source.count()
    sel_k = int(k) if k is not None else max(1, int(frac * n_src))

    tgt = _hashed_ngram_lm(target, n_buckets)
    src = _hashed_ngram_lm(source, n_buckets)
    B = float(n_buckets)
    log_ratio = np.log((tgt + alpha) / (tgt.sum() + alpha * B)) - np.log(
        (src + alpha) / (src.sum() + alpha * B)
    )
    lr_ref = ray.put(log_ratio)

    def _splitmix(z: np.ndarray) -> np.ndarray:
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(
            0xFFFFFFFFFFFFFFFF
        )
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(
            0xFFFFFFFFFFFFFFFF
        )
        return z ^ (z >> np.uint64(31))

    def _score(b: pd.DataFrame) -> pd.DataFrame:
        lr = ray.get(lr_ref)
        di, bk, ct = _hashed_ngram_counts(b, len(lr))
        ids = b["doc_id"].to_numpy().astype(np.int64)
        logw = np.zeros(len(b), dtype=np.float64)
        # buckets are sorted within each doc: batching-independent sums
        np.add.at(logw, di, ct * lr[bk])
        u = (
            _splitmix(
                ids.astype(np.uint64) ^ (np.uint64(seed) * np.uint64(0x100000001B3))
            ).astype(np.float64)
            + 0.5
        ) / float(1 << 64)
        gumbel = -np.log(-np.log(u))
        return pd.DataFrame(
            {"doc_id": ids, "logw": logw, "gkey": logw + gumbel}
        )

    scored = source.map_batches(_score, batch_format="pandas")
    return (
        scored.sort("gkey", descending=True)
        .limit(sel_k)
        .select_columns(["doc_id", "logw"])
        .sort("doc_id")
    )
