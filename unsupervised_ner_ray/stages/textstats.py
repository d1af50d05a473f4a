"""Text-analysis operators over a documents table (doc_id, text, ...).

Large-scale training-data pipeline operators (driver mandate) expressed
Ray-Data-first; each has a DuckDB-oracle-compatible formulation where the
math is SQL-expressible (see __ray_entry__.oracle_sql):

* token_stats       — per-doc token/char counts (map_batches, vectorized)
* token_histogram   — the canonicalization-shaped shuffle: per-batch combiner
                      -> small groupby over partials (never shuffles raw
                      token rows)
* quality           — length/punct/stopword counts + ratio
* langid            — n-gram/stopword-hit heuristic language ID (rows-only
                      check: the heuristic isn't SQL)
* fingerprint       — md5 document fingerprint + rolling-hash shingle print

Tokenization contract (shared with the SQL oracles): split on the single
space character, keep empty tokens out — matches DuckDB
``string_split(text, ' ')``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

# tiny per-language stopword profiles for the heuristic language ID; the
# quality stopword set mirrors the SQL oracle's inline list
STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "on", "for", "with")

_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "is"},
    "es": {"el", "la", "de", "y", "es"},
    "de": {"der", "die", "das", "und", "ist"},
    "fr": {"le", "la", "de", "et", "est"},
    "zh": {"的", "是", "了", "在", "我"},
}


def _tokens(text: str) -> list[str]:
    return [t for t in text.split(" ") if t]


def token_stats(docs):
    """Per-doc: n_tokens, n_chars (computed), distinct token count."""

    def _f(batch: pa.Table) -> pa.Table:
        # vectorized: split/flatten on the C path, per-doc token + distinct
        # counts via a segment reduction over the flattened (doc, token) rows
        import numpy as np
        import pandas as pd

        n = len(batch)
        tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        ne = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), counts)
        n_tokens = np.zeros(n, dtype=np.int64)
        np.add.at(n_tokens, doc_idx, ne.astype(np.int64))
        nd = (
            pd.DataFrame(
                {"d": doc_idx[ne], "t": flat.to_numpy(zero_copy_only=False)[ne]}
            )
            .groupby("d")["t"]
            .nunique()
            .reindex(np.arange(n), fill_value=0)
            .to_numpy()
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_chars": pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
                "n_distinct_tokens": pa.array(nd, pa.int64()),
            }
        )

    return docs.map_batches(_f, batch_format="pyarrow")


def token_histogram(docs, limit: int = 100):
    """Token frequency via combiner + groupby over partials.

    Phase 1 inside map_batches: each batch reduces to its distinct tokens
    with local counts (head tokens appear once per batch, not once per row).
    Phase 2: groupby(token).sum — a small shuffle over pre-aggregated rows.
    Top-``limit`` by (count desc, token asc) for a deterministic boundary.
    """
    from ray.data.aggregate import Sum

    def _combine(batch: pa.Table) -> pa.Table:
        # all C-path: split -> flatten -> drop empties -> value_counts
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), pattern=" "))
        flat = flat.filter(pc.not_equal(flat, pa.scalar("")))
        vc = pc.value_counts(flat)
        return pa.table(
            {
                "token": pc.cast(vc.field("values"), pa.string()),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    partials = docs.map_batches(_combine, batch_format="pyarrow")
    agg = partials.groupby("token").aggregate(Sum("n", alias_name="n"))
    if limit is None:
        # unlimited mergeable-partial form (incremental maintenance)
        return agg
    top = agg.sort(["n", "token"], descending=[True, False]).limit(limit)
    return top


def _tf_pairs(batch: pa.Table) -> pa.Table:
    """Vectorized (doc_id, token, tf) rows — one per DISTINCT (doc, token).

    All hot work on the C path: ``pc.split_pattern`` -> ``list_flatten`` ->
    empty-token mask -> one pandas hash groupby over the flattened rows.
    Because every document is a single input row (never split across
    batches), the emitted pairs are globally distinct, so a single
    ``groupby(token).Count`` over them IS the document frequency — no
    distinct-pair pre-shuffle needed.
    """
    n = len(batch)
    tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
    counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(tok_lists)
    ne = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(n), counts)
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    tf = (
        pd.DataFrame(
            {
                "doc_id": ids[doc_idx[ne]],
                "token": flat.to_numpy(zero_copy_only=False)[ne],
            }
        )
        .groupby(["doc_id", "token"], sort=False)
        .size()
        .reset_index(name="tf")
    )
    tf["tf"] = tf["tf"].astype(np.int64)
    return pa.Table.from_pandas(tf, preserve_index=False)


def top_tfidf_terms(docs, scale: int = 1_000_000, broadcast_max_tokens: int = 5_000_000):
    """Per-document top term by an integer tf-idf variant:
    ``score = tf * scale // df`` (document frequency).  Integer arithmetic
    keeps ranking bit-exact across engines — float ``ln`` idf can flip an
    argmax at the last ulp between libm implementations, which would break
    the oracle hash (ties break by token asc on both sides).

    df is computed from the vectorized ``_tf_pairs`` kernel (one row per
    distinct (doc, token)) with a SINGLE C-path Count groupby.  Scoring has
    two equivalent paths chosen by vocabulary size: below
    ``broadcast_max_tokens`` the df map broadcasts (``ray.put`` once, read
    per actor) over a second streaming pass that scores with a pandas
    token->df map + whole-batch argmax (docs never span batches, so the
    argmax is batch-local); above it df ships as a DATASET and the scoring
    runs fully distributed — co-partitioned union merge on token, then a
    per-doc argmax shuffle — the 100 TB path, pinned equal to the broadcast
    path by a dedicated test.  Output: doc_id, token, tf, df, score.
    """
    from ray.data.aggregate import Count

    df_ds = (
        docs.map_batches(_tf_pairs, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Count(alias_name="df"))
        .materialize()
    )
    if df_ds.count() > broadcast_max_tokens:
        return _top_tfidf_distributed(docs, df_ds, scale)
    df_pd = df_ds.to_pandas()
    df_series = pd.Series(
        df_pd["df"].to_numpy(dtype=np.int64), index=df_pd["token"]
    )
    df_ref = ray.put(df_series)

    class Scorer:
        def __init__(self):
            self.df = ray.get(df_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            tf = _tf_pairs(batch).to_pandas()
            if tf.empty:
                return pa.table(
                    {
                        "doc_id": pa.array([], pa.int64()),
                        "token": pa.array([], pa.string()),
                        "tf": pa.array([], pa.int64()),
                        "df": pa.array([], pa.int64()),
                        "score": pa.array([], pa.int64()),
                    }
                )
            tf["df"] = tf["token"].map(self.df).astype(np.int64)
            tf["score"] = tf["tf"].to_numpy() * scale // tf["df"].to_numpy()
            top = tf.sort_values(
                ["doc_id", "score", "token"],
                ascending=[True, False, True],
                kind="mergesort",
            ).drop_duplicates("doc_id", keep="first")
            return pa.Table.from_pandas(
                top[["doc_id", "token", "tf", "df", "score"]], preserve_index=False
            )

    return docs.map_batches(Scorer, batch_format="pyarrow", concurrency=(1, 4)).sort(
        "doc_id"
    )


def _top_tfidf_distributed(docs, df_ds, scale: int, num_parts: int = 32):
    """At-scale tf-idf scoring when the vocabulary cannot broadcast: df rows
    ship as a dataset and join (tf, df) by co-partitioned union merge on the
    token (one :func:`~.grouping.partitioned_apply` on ``token``) — df is
    SHARDED across partitions, never replicated — then one per-doc argmax
    ``partitioned_apply`` on ``doc_id``.  Two bounded shuffles total over
    pre-combined rows (tf rows are already one per distinct (doc, token))."""
    import numpy as np

    from .grouping import partitioned_apply

    def _tf_rows(batch: pa.Table) -> pa.Table:
        tf = _tf_pairs(batch).to_pandas()
        tf["df"] = np.int64(0)
        tf["is_df"] = np.int8(0)
        return pa.Table.from_pandas(tf, preserve_index=False)

    def _df_rows(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "token": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "is_df": pa.array([], pa.int8()),
                }
            )
        k = len(t)
        return pa.table(
            {
                "doc_id": pa.array(np.full(k, -1, dtype=np.int64)),
                "token": pc.cast(t.column("token"), pa.string()),
                "tf": pa.array(np.zeros(k, dtype=np.int64)),
                "df": pc.cast(t.column("df"), pa.int64()),
                "is_df": pa.array(np.ones(k, dtype=np.int8)),
            }
        )

    def _score_part(g: pd.DataFrame) -> pd.DataFrame:
        dfv = g[g["is_df"] == 1]
        tfv = g[g["is_df"] == 0]
        if tfv.empty or dfv.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "token": pd.Series([], dtype=object),
                    "tf": pd.Series([], dtype="int64"),
                    "df": pd.Series([], dtype="int64"),
                    "score": pd.Series([], dtype="int64"),
                }
            )
        m = tfv[["doc_id", "token", "tf"]].merge(
            dfv[["token", "df"]], on="token", how="inner"
        )
        m["score"] = m["tf"].to_numpy() * scale // m["df"].to_numpy()
        return m[["doc_id", "token", "tf", "df", "score"]]

    def _argmax_part(g: pd.DataFrame) -> pd.DataFrame:
        top = (
            g.sort_values(
                ["doc_id", "score", "token"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .drop_duplicates("doc_id", keep="first")
        )
        for c in ("doc_id", "tf", "df", "score"):
            top[c] = top[c].astype(np.int64)
        return top[["doc_id", "token", "tf", "df", "score"]]

    rows = docs.map_batches(_tf_rows, batch_format="pyarrow").union(
        df_ds.map_batches(_df_rows, batch_format="pyarrow")
    )
    scored = partitioned_apply(rows, "token", _score_part, num_parts=num_parts)
    return partitioned_apply(
        scored, "doc_id", _argmax_part, num_parts=num_parts
    ).sort("doc_id")


def deterministic_sample(docs, hex_cutoff: str = "14"):
    """Deterministic, seedless row sampling by content hash: keep rows whose
    ``md5(doc_id)`` starts below ``hex_cutoff`` ("14" ~ 8%).  Unlike
    ``random_sample`` this is reproducible across runs/engines/nodes (the
    oracle computes the identical predicate in SQL), composable (same rows
    selected in every pipeline that uses the same cutoff), and streaming —
    a pure map_batches filter, no shuffle, no coordination."""

    def _f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        mask = pa.array(
            [hashlib.md5(str(d).encode()).hexdigest()[:2] < hex_cutoff for d in ids],
            pa.bool_(),
        )
        return batch.filter(mask)

    return docs.map_batches(_f, batch_format="pyarrow")


def stratified_sample(docs, stratum_col: str = "lang", k: int = 20):
    """Deterministic stratified sampling: the ``k`` rows with the smallest
    ``md5(doc_id)`` rank PER STRATUM (seedless, reproducible across engines —
    the oracle is a ``row_number() OVER (PARTITION BY stratum ORDER BY
    md5(id), id)`` window).

    Scale shape: a per-batch partial top-k per stratum (combiner — at most
    ``k × n_strata`` rows leave each block) followed by a driver merge of
    those bounded partials; the fact rows never shuffle.  Strata counts are
    assumed small (languages, sources, shards); for high-cardinality strata
    swap the driver merge for ``partitioned_map_groups`` on the stratum key.
    Output: (stratum, doc_id) sorted by (stratum, doc_id).
    """

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "stratum": batch.column(stratum_col).to_pandas(),
                "doc_id": batch.column("doc_id").to_pandas(),
            }
        )
        df["h"] = [
            hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]
        ]
        top = (
            df.sort_values(["stratum", "h", "doc_id"], kind="mergesort")
            .groupby("stratum", sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(top, preserve_index=False)

    parts = docs.map_batches(_partial, batch_format="pyarrow").to_pandas()
    final = (
        parts.sort_values(["stratum", "h", "doc_id"], kind="mergesort")
        .groupby("stratum", sort=False)
        .head(k)[["stratum", "doc_id"]]
        .sort_values(["stratum", "doc_id"], kind="mergesort")
        .reset_index(drop=True)
    )
    return final


def heavy_hitters(docs, k: int = 20, cap: int = 4096):
    """Exact top-``k`` tokens WITHOUT the full-vocabulary shuffle of
    :func:`token_histogram` — the 100 TB path when the vocab itself is huge.

    Pass 1: one Misra-Gries summary (``cap`` counters) per batch, merged on
    the driver (sum counters, decrement by the (cap+1)-th value — MG merge
    is associative, so at larger scale the merge tree is a map_batches
    reduction).  Any token with true count > e = (N - sum(kept)) / (cap+1)
    is guaranteed to survive as a candidate.
    Pass 2: broadcast the candidate set, exact-recount ONLY candidate rows
    (a C-path groupby over a few thousand tokens), sort, limit.
    The result is provably the exact top-k whenever the k-th recounted
    count exceeds ``e`` (asserted); at ties the (count desc, token asc)
    order matches the oracle.
    """
    from ray.data.aggregate import Sum

    _TOTAL = ""  # reserved key (never a token: _tokens drops empty strings)

    def _mg(batch: pa.Table) -> pa.Table:
        # vectorized Misra-Gries: C-path value_counts, then one sort to find
        # the (cap+1)-th count and a mask-subtract — identical summary to the
        # per-token dict loop it replaces
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), pattern=" "))
        flat = flat.filter(pc.not_equal(flat, pa.scalar("")))
        n = len(flat)
        vc = pc.value_counts(flat)
        toks = vc.field("values").to_numpy(zero_copy_only=False)
        cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(toks) > cap:
            kth = np.sort(cnts)[::-1][cap]
            keep = cnts > kth
            toks, cnts = toks[keep], cnts[keep] - kth
        toks = np.concatenate([toks.astype(object), np.array([_TOTAL], dtype=object)])
        cnts = np.concatenate([cnts, np.array([n], dtype=np.int64)])
        order = np.argsort(toks)
        return pa.table(
            {
                "token": pa.array(toks[order], pa.string()),
                "c": pa.array(cnts[order], pa.int64()),
            }
        )

    part = docs.map_batches(_mg, batch_format="pyarrow").to_pandas()
    merged = part.groupby("token", sort=False)["c"].sum()
    total_n = int(merged.pop(_TOTAL))
    if len(merged) > cap:
        kth = int(np.sort(merged.to_numpy())[::-1][cap])
        merged = merged[merged > kth] - kth
    err = (total_n - int(merged.sum())) / (cap + 1)
    need_arr = pa.array(sorted(merged.index.tolist()), pa.string())

    def _recount(batch: pa.Table) -> pa.Table:
        # vectorized candidate recount: flatten once, C-path is_in against
        # the broadcast candidate set, then value_counts — no Python tokens
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), pattern=" "))
        flat = flat.filter(pc.is_in(flat, value_set=need_arr))
        vc = pc.value_counts(flat)
        return pa.table(
            {
                "token": pc.cast(vc.field("values"), pa.string()),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )
    exact = (
        docs.map_batches(_recount, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "token"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    if len(exact) == k:
        assert float(exact["n"].iloc[-1]) > err, (
            f"heavy-hitter bound violated (kth={exact['n'].iloc[-1]} <= e={err:.1f}); "
            "raise cap"
        )
    return exact


def quality_scores(docs):
    """Per-doc quality features: token count, stopword count, mean token
    length; ratio = n_stopwords / n_tokens (exact IEEE division, no
    rounding, so the DuckDB oracle hashes identically)."""
    return docs.map_batches(quality_table, batch_format="pyarrow")


def quality_table(batch: pa.Table) -> pa.Table:
    """Row-local kernel of :func:`quality_scores`: one output row per doc."""
    # fully vectorized: split/flatten on the C path, then three segment
    # reductions (token count, stopword hits via pc.is_in, codepoint
    # lengths via pc.utf8_length — identical to Python len()) over the
    # flattened rows
    n = len(batch)
    tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
    counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(tok_lists)
    ne = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(n), counts)
    n_tok_a = np.zeros(n, dtype=np.int64)
    np.add.at(n_tok_a, doc_idx, ne.astype(np.int64))
    stop = pc.is_in(flat, value_set=pa.array(list(STOPWORDS))).to_numpy(
        zero_copy_only=False
    )
    n_stop_a = np.zeros(n, dtype=np.int64)
    np.add.at(n_stop_a, doc_idx, (stop & ne).astype(np.int64))
    ln = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    sum_len = np.zeros(n, dtype=np.int64)
    np.add.at(sum_len, doc_idx, np.where(ne, ln, 0).astype(np.int64))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok_a),
            "n_stopwords": pa.array(n_stop_a),
            "sum_token_len": pa.array(sum_len, pa.int64()),
            "stopword_ratio": pa.array(
                np.where(n_tok_a > 0, n_stop_a / np.maximum(n_tok_a, 1), 0.0)
            ),
        }
    )


class LangId:
    """Heuristic language ID (stopword-profile hits; actor so the profiles
    are built once per worker).  Vectorized: lowercase/split/flatten on the
    C path, DISTINCT tokens per doc via dictionary codes + lexsort-unique,
    per-lang membership computed once over the (small) batch dictionary and
    mapped through the codes — the tie rule (earlier lang in sorted order
    wins equal hit counts, 'unknown' at zero) matches the scalar loop this
    replaces exactly (pinned by test_langid_*)."""

    def __init__(self):
        self.langs = sorted(_LANG_PROFILES)
        self.profiles = [frozenset(_LANG_PROFILES[k]) for k in self.langs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        tok_lists = pc.split_pattern(
            pc.utf8_lower(batch.column("text")), pattern=" "
        )
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        keep = pc.not_equal(flat, pa.scalar(""))
        doc_idx = np.repeat(np.arange(n), counts)[
            keep.to_numpy(zero_copy_only=False)
        ]
        enc = pc.dictionary_encode(flat.filter(keep))
        hits = np.zeros((len(self.langs), n), dtype=np.int64)
        if len(enc):
            codes = enc.indices.to_numpy(zero_copy_only=False)
            # distinct (doc, token): lexsort + first-occurrence mask
            order = np.lexsort((codes, doc_idx))
            d, c = doc_idx[order], codes[order]
            first = np.r_[True, (d[1:] != d[:-1]) | (c[1:] != c[:-1])]
            d, c = d[first], c[first]
            vocab = enc.dictionary.to_pylist()  # small: distinct tokens only
            for li, prof in enumerate(self.profiles):
                member = np.fromiter(
                    (w in prof for w in vocab), dtype=bool, count=len(vocab)
                )
                hits[li] = np.bincount(
                    d, weights=member[c].astype(np.float64), minlength=n
                ).astype(np.int64)
        best = np.argmax(hits, axis=0)  # first max == earlier sorted lang
        lang_arr = np.array(self.langs, dtype=object)[best]
        lang_arr[hits.max(axis=0) == 0] = "unknown"
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_pred": pa.array(lang_arr, pa.string()),
            }
        )


def langid(docs, concurrency: int = 4):
    return docs.map_batches(LangId, batch_format="pyarrow", concurrency=(1, concurrency))


def fingerprints(docs):
    """md5 fingerprint (matches DuckDB ``md5(text)``) + 64-bit rolling-hash
    of 5-gram shingles (document-similarity print; not SQL-checkable)."""

    def _f(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        md5s = [hashlib.md5(t.encode()).hexdigest() for t in texts]
        rolls = []
        for t in texts:
            toks = _tokens(t)
            acc = np.uint64(0)
            for i in range(max(0, len(toks) - 4)):
                h = np.uint64(
                    int.from_bytes(
                        hashlib.blake2b(
                            " ".join(toks[i : i + 5]).encode(), digest_size=8
                        ).digest(),
                        "big",
                    )
                )
                acc ^= h
            rolls.append(int(acc))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "md5": pa.array(md5s, pa.string()),
                "shingle_print": pa.array(rolls, pa.uint64()),
            }
        )

    return docs.map_batches(_f, batch_format="pyarrow")


def vocab_merge(docs):
    """Bootstrap-merge analog (reference ner_labeling/construct_bs.py:16-59:
    union of labels per lowercased term across files): per token, the sorted
    distinct set of langs it appears under, '/'-joined.

    Combiner emits distinct (token, lang) pairs per batch; groupby(token)
    merges — same shuffle discipline as token_histogram."""

    def _combine(batch: pa.Table) -> pa.Table:
        # vectorized distinct (token, lang): flatten tokens, repeat langs by
        # per-doc token counts, one pandas drop_duplicates
        n = len(batch)
        tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        ne = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), counts)
        langs = batch.column("lang").to_numpy(zero_copy_only=False)
        pairs = (
            pd.DataFrame(
                {
                    "token": flat.to_numpy(zero_copy_only=False)[ne],
                    "lang": langs[doc_idx[ne]],
                }
            )
            .drop_duplicates()
            .sort_values(["token", "lang"], kind="mergesort")
        )
        return pa.Table.from_pandas(pairs, preserve_index=False).cast(
            pa.schema([("token", pa.string()), ("lang", pa.string())])
        )

    partials = docs.map_batches(_combine, batch_format="pyarrow")

    def _merge_part(part: pd.DataFrame) -> pd.DataFrame:
        # whole-partition merge: dedupe (token, lang) pairs, presort so the
        # per-token join order is lexicographic, then one str-join agg
        part = (
            part.drop_duplicates(["token", "lang"])
            .sort_values(["token", "lang"], kind="mergesort")
        )
        out = (
            part.groupby("token", sort=True)["lang"]
            .agg(langs="/".join, n_langs="size")
            .reset_index()
        )
        out["n_langs"] = out["n_langs"].astype(np.int64)
        return out

    from .grouping import partitioned_apply

    return partitioned_apply(partials, "token", _merge_part, num_parts=64)


# ---------------------------------------------------------------------------
# token counting (whitespace + BPE-ish regex), PII/URL scrubbing, repetition
# — all pure C-path pyarrow.compute regex kernels, zero Python in the batch
# ---------------------------------------------------------------------------

# BPE-ish pre-tokenizer classes (RE2-safe: no lookahead, identical semantics
# in pyarrow/RE2 and DuckDB/RE2): letter runs | digit runs | single symbol
BPE_TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
EMAIL_RE = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z][A-Za-z]+"
URL_RE = r"https?://[^\s]+"


def token_counts(docs):
    """Per-doc token counts under BOTH tokenizations a training-data
    pipeline budget needs: whitespace tokens and BPE-ish subword-piece
    classes (letter runs / digit runs / single symbols).  Streaming
    map_batches; counts via ``pc.count_substring_regex`` (one RE2 scan per
    batch column, no Python loop).  Output: doc_id, n_ws_tokens,
    n_bpe_tokens."""

    def _f(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        toks = pc.split_pattern(text, pattern=" ")
        flat_ne = pc.not_equal(pc.list_flatten(toks), pa.scalar(""))
        n = len(batch)
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), counts)
        ws = np.zeros(n, dtype=np.int64)
        np.add.at(ws, doc_idx, flat_ne.to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_ws_tokens": pa.array(ws),
                "n_bpe_tokens": pc.cast(
                    pc.count_substring_regex(text, pattern=BPE_TOKEN_RE), pa.int64()
                ),
            }
        )

    return docs.map_batches(_f, batch_format="pyarrow")


def scrub_pii(docs):
    """PII/boilerplate scrub: replace emails with [EMAIL] and URLs with
    [URL]; emit the scrubbed text plus per-doc match counts.  All three
    kernels (two counts + chained replace) are single RE2 passes.
    URL replacement runs FIRST so an email-shaped substring inside a URL
    query string counts as part of the URL on both engines.
    Output: doc_id, clean_text, n_emails, n_urls."""
    return docs.map_batches(scrub_table, batch_format="pyarrow")


def scrub_table(batch: pa.Table) -> pa.Table:
    """Row-local kernel of :func:`scrub_pii`: one output row per doc."""
    text = batch.column("text")
    no_url = pc.replace_substring_regex(text, pattern=URL_RE, replacement="[URL]")
    clean = pc.replace_substring_regex(
        no_url, pattern=EMAIL_RE, replacement="[EMAIL]"
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "clean_text": pc.cast(clean, pa.string()),
            "n_emails": pc.cast(
                pc.count_substring_regex(no_url, pattern=EMAIL_RE), pa.int64()
            ),
            "n_urls": pc.cast(
                pc.count_substring_regex(text, pattern=URL_RE), pa.int64()
            ),
        }
    )


def repetition_stats(docs):
    """Gopher-style repetition signal: fraction of the doc taken by its most
    frequent token, as integer parts-per-million (float division would be
    oracle-hash-fragile; ``max_tf * 1e6 // n`` is bit-exact on both
    engines).  Reuses the vectorized ``_tf_pairs`` kernel; top token ties
    break lexicographically.  Output: doc_id, n_tokens, top_token, max_tf,
    rep_ppm — docs with zero tokens are omitted (no mode exists)."""

    def _f(batch: pa.Table) -> pa.Table:
        tf = _tf_pairs(batch).to_pandas()
        if tf.empty:
            return pa.table(
                {
                    "doc_id": pa.array([], batch.column("doc_id").type),
                    "n_tokens": pa.array([], pa.int64()),
                    "top_token": pa.array([], pa.string()),
                    "max_tf": pa.array([], pa.int64()),
                    "rep_ppm": pa.array([], pa.int64()),
                }
            )
        totals = tf.groupby("doc_id", sort=False)["tf"].sum()
        top = (
            tf.sort_values(["doc_id", "tf", "token"], ascending=[True, False, True],
                           kind="mergesort")
            .drop_duplicates("doc_id", keep="first")
            .set_index("doc_id")
        )
        out = pd.DataFrame(
            {
                "n_tokens": totals,
                "top_token": top["token"],
                "max_tf": top["tf"],
            }
        ).reset_index()
        out["rep_ppm"] = out["max_tf"].to_numpy() * 1_000_000 // out["n_tokens"].to_numpy()
        for c in ("n_tokens", "max_tf", "rep_ppm"):
            out[c] = out[c].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return docs.map_batches(_f, batch_format="pyarrow")


def mixture_sample(docs, cutoffs: tuple[str, ...] = ("ff", "80", "40", "14")):
    """Deterministic weighted source-mixture sampling — the "mix 4 parts
    web, 1 part reference" step of a training-data recipe, made seedless and
    engine-portable: source ``srcN`` keeps rows whose ``md5(doc_id)`` hex
    prefix is below ``cutoffs[N % len(cutoffs)]`` ('ff' ~ 99.6%, '80' ~ 50%,
    '40' ~ 25%, '14' ~ 7.8%).  Like :func:`deterministic_sample` this is a
    pure streaming filter (no shuffle, no RNG state, no coordination), the
    same rows survive on every engine/run, and the SQL oracle computes the
    identical predicate.  Output: doc_id, lang, source sorted by doc_id."""
    mod = len(cutoffs)

    def _f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        srcs = batch.column("source").to_pylist()
        mask = pa.array(
            [
                hashlib.md5(str(d).encode()).hexdigest()[:2]
                < cutoffs[int(s[3:]) % mod]
                for d, s in zip(ids, srcs)
            ],
            pa.bool_(),
        )
        return batch.filter(mask)

    return (
        docs.select_columns(["doc_id", "lang", "source"])
        .map_batches(_f, batch_format="pyarrow")
        .sort("doc_id")
    )


def unigram_lm_scores(docs):
    """Corpus-LM quality scoring: score each doc by the mean corpus-level
    unigram probability of its tokens, in parts-per-million — the
    integer-exact face of "perplexity against a background model" filtering
    (real-LM log-probs are float-order fragile across engines; the
    ppm = (1e6 * global_count) // total_tokens domain is bit-exact, and
    rank-orders docs identically for filtering purposes).

    Two phases, both scale-shaped: (1) global token counts via one C-path
    combiner groupby (the vocab, not the corpus, comes to the driver — the
    huge-vocab alternative is the sharded-df merge `_top_tfidf_distributed`
    uses); (2) broadcast the (token -> ppm) table once via ``ray.put`` and
    score every batch with one ``pc.index_in`` + ``np.bincount`` — no
    shuffle touches the corpus.  Output: doc_id, n_tokens, score_ppm
    (0 for empty docs), sorted by doc_id."""
    import ray
    from ray.data.aggregate import Count as _Count

    def _toks(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(batch.column("text"), pattern=" "))
        flat = flat.filter(pc.not_equal(flat, pa.scalar("")))
        return pa.table({"token": flat})

    hist = (
        docs.map_batches(_toks, batch_format="pyarrow")
        .groupby("token")
        .aggregate(_Count(alias_name="n"))
        .to_pandas()
    )
    total = int(hist["n"].sum())
    ppm = (1_000_000 * hist["n"].to_numpy().astype(np.int64)) // max(total, 1)
    lut_ref = ray.put(
        (pa.array(hist["token"].tolist(), pa.string()), ppm.astype(np.int64))
    )

    def _score(batch: pa.Table) -> pa.Table:
        vocab, ppm_arr = ray.get(lut_ref)
        n = len(batch)
        tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        keep = pc.not_equal(flat, pa.scalar(""))
        doc_idx = np.repeat(np.arange(n), counts)[
            keep.to_numpy(zero_copy_only=False)
        ]
        idx = pc.index_in(flat.filter(keep), value_set=vocab).to_numpy(
            zero_copy_only=False
        )
        # every token is in the global vocab by construction
        sums = np.bincount(
            doc_idx, weights=ppm_arr[idx.astype(np.int64)], minlength=n
        ).astype(np.int64)
        n_tok = np.bincount(doc_idx, minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_tok),
                "score_ppm": pa.array(
                    np.where(n_tok > 0, sums // np.maximum(n_tok, 1), 0)
                ),
            }
        )

    return docs.map_batches(_score, batch_format="pyarrow").sort("doc_id")


def _posting_pairs(docs):
    """Inverted-index construction, relational face: (token, doc_id, tf)
    posting rows — the core primitive behind corpus search / df statistics /
    decontamination lookups (the reference's bootstrapped vocab files under
    /root/reference/ner_labeling/ are the output of a fused form of this:
    term -> labeled occurrence lists).

    Scale shape: every doc is one row, so each (token, doc_id) pair is
    COMPLETE within its batch — the tf counts need no global combine, just
    one vectorized pass (dictionary-encode tokens, compose (doc, token)
    composite keys, one np.unique) per batch, then a single sort shuffle to
    cluster postings by token (which is what makes it an *index* rather
    than a pair bag).  No driver-side state at any size."""

    def _post(batch: pa.Table) -> pa.Table:
        n = len(batch)
        tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        keep = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), counts)[keep]
        enc = pc.dictionary_encode(flat.filter(pa.array(keep)))
        codes = np.asarray(enc.combine_chunks().indices, dtype=np.int64) if isinstance(
            enc, pa.ChunkedArray
        ) else np.asarray(enc.indices, dtype=np.int64)
        vocab = (
            enc.combine_chunks().dictionary
            if isinstance(enc, pa.ChunkedArray)
            else enc.dictionary
        )
        # composite key: doc slot * |batch vocab| + token code -> one unique
        key = doc_idx * len(vocab) + codes
        uk, tf = np.unique(key, return_counts=True)
        u_doc, u_tok = uk // len(vocab), uk % len(vocab)
        doc_ids = batch.column("doc_id").to_numpy()
        return pa.table(
            {
                "token": vocab.take(pa.array(u_tok)),
                "doc_id": pa.array(doc_ids[u_doc]),
                "tf": pa.array(tf.astype(np.int64)),
            }
        )

    return docs.map_batches(_post, batch_format="pyarrow")


def inverted_index(docs):
    """Postings clustered by token — the sort shuffle is what turns the
    pair bag into an *index* (token-contiguous runs = posting lists)."""
    return _posting_pairs(docs).sort(["token", "doc_id"])


def posting_stats(docs):
    """Per-token posting summary over the UNSORTED pair stream (no need to
    pay the index's sort shuffle first): df (docs containing the token) and
    total_tf — one C-path Count+Sum groupby; the dictionary (not the
    corpus) is the shuffle payload."""
    from ray.data.aggregate import Count as _Count, Sum as _Sum

    return (
        _posting_pairs(docs).groupby("token")
        .aggregate(_Count(alias_name="df"), _Sum("tf", alias_name="total_tf"))
        .sort("token")
    )


def split_assign(docs, train_hex: str = "e6", val_hex: str = "f3"):
    """Deterministic train/val/test split assignment by content hash —
    the seedless, engine-portable form every training-data pipeline needs:
    ``md5(doc_id)`` prefix below ``train_hex`` ('e6' = 230/256 ~ 89.8%) ->
    train, below ``val_hex`` ('f3' = 243/256 ~ 94.9%) -> val, else test.
    Same contract as :func:`deterministic_sample` (md5 is the cross-engine
    oracle agreement; reproducible across runs, nodes and engines, and
    composable — a doc's split never depends on what else is in the
    corpus).  Pure map, no shuffle.  Output: doc_id, bucket (hex prefix),
    split."""

    def _f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        buckets = [hashlib.md5(str(d).encode()).hexdigest()[:2] for d in ids]
        splits = [
            "train" if b < train_hex else ("val" if b < val_hex else "test")
            for b in buckets
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "bucket": pa.array(buckets, pa.string()),
                "split": pa.array(splits, pa.string()),
            }
        )

    return docs.map_batches(_f, batch_format="pyarrow")


def unpivot_stats(docs):
    """UNPIVOT/melt: the per-doc token-stats WIDE row (n_tokens, n_chars,
    n_distinct_tokens) into LONG (doc_id, metric, value) rows — the inverse
    of the pivot operator and the standard reshape before metric-keyed
    aggregation/plotting.  Pure per-batch reshape (np.repeat ids, np.tile
    metric names, column interleave) — embarrassingly parallel, no
    shuffle."""
    METRICS = ("n_tokens", "n_chars", "n_distinct_tokens")

    def _melt(t: pa.Table) -> pa.Table:
        n = len(t)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        vals = np.stack(
            [t.column(m).to_numpy(zero_copy_only=False) for m in METRICS], axis=1
        )
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, len(METRICS))),
                "metric": pa.array(
                    np.tile(np.array(METRICS, dtype=object), n), pa.string()
                ),
                "value": pa.array(vals.reshape(-1).astype(np.int64)),
            }
        )

    return token_stats(docs).map_batches(_melt, batch_format="pyarrow").sort(
        ["doc_id", "metric"]
    )


def explode_tokens(docs):
    """Row expansion with ordinality — documents -> (doc_id, ord, token)
    rows, ``ord`` = 1-based position among the doc's nonempty tokens (the
    flat_map operator class: one input row to many ordered output rows,
    the precursor to positional n-gram / alignment work).  Pure vectorized
    per-batch reshape (flatten + repeat + within-doc arange via cumsum
    offsets), no shuffle."""

    def _f(batch: pa.Table) -> pa.Table:
        n = len(batch)
        tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        keep = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), counts)[keep]
        m = np.bincount(doc_idx, minlength=n)
        starts = np.concatenate([[0], np.cumsum(m)[:-1]])
        ords = np.arange(len(doc_idx)) - starts[doc_idx] + 1
        ids = batch.column("doc_id").to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_idx]),
                "ord": pa.array(ords.astype(np.int64)),
                "token": flat.filter(pa.array(keep)),
            }
        )

    return docs.map_batches(_f, batch_format="pyarrow").sort(["doc_id", "ord"])


def length_filter(docs, pct: float = 0.99):
    """Outlier-length filter: drop documents whose token count exceeds the
    corpus PERCENTILE_DISC(pct) — the standard tail-trim before training.
    Two passes, both scale-shaped: (1) the length HISTOGRAM (token-count
    value domain, not rows) reduces via one combiner groupby and the
    cutoff falls out of its cumulative sum on the driver (histogram is
    value-domain-sized); (2) a pure streaming filter against the broadcast
    scalar.  Output: surviving (doc_id, n_tokens), sorted."""
    import math

    from ray.data.aggregate import Sum as _Sum

    stats = token_stats(docs).materialize()

    def _hist(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t.column("n_tokens"))
        return pa.table(
            {
                "v": pc.cast(vc.field("values"), pa.int64()),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    hist = (
        stats.map_batches(_hist, batch_format="pyarrow")
        .groupby("v")
        .aggregate(_Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("v")
    )
    cum = np.cumsum(hist["n"].to_numpy())
    n = int(cum[-1])
    cutoff = int(hist["v"].to_numpy()[np.searchsorted(cum, math.ceil(pct * n))])

    def _filter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t.column("n_tokens"), pa.scalar(cutoff)))
        return pa.table(
            {"doc_id": t.column("doc_id"), "n_tokens": t.column("n_tokens")}
        )

    return stats.map_batches(_filter, batch_format="pyarrow").sort("doc_id")


def weighted_sample(docs, n: int = 50, weight_col: str = "n_chars"):
    """Weighted sampling WITHOUT replacement (Efraimidis-Spirakis A-Res
    exponential keys), the distributed-top-n shape: every row gets a
    deterministic key ``ln(u) / w`` with ``u = (h32(doc_id)+1) / 2^32``
    derived from md5 (the repo-wide reproducible-sampling contract, same as
    ``deterministic_sample``), and the n rows with the LARGEST key are the
    sample.  Each batch keeps only its local top-n partial, so the merge
    sees n_blocks x n scalar rows regardless of corpus size — no shuffle,
    no driver materialization of the data.

    The SQL oracle computes the identical key (DuckDB
    ``('0x'||substr(md5(..),1,8))::UBIGINT`` reproduces the same 32-bit
    integer), so the selected id set is hash-checked exactly.
    """

    def _partial(t: pa.Table) -> pa.Table:
        # passthrough = whatever columns the caller provided (not a
        # hardcoded set) so the operator works on any schema carrying
        # doc_id + weight_col
        def _empty() -> pa.Table:
            return t.slice(0, 0).append_column("key", pa.array([], pa.float64()))

        if len(t) == 0:
            return _empty()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
        h = np.array(
            [int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) for i in ids],
            dtype=np.float64,
        )
        u = (h + 1.0) / 4294967296.0
        keep = w > 0
        key = np.full(len(ids), -np.inf)
        key[keep] = np.log(u[keep]) / w[keep]
        kk = min(int(n), int(keep.sum()))
        if kk == 0:
            return _empty()
        idx = np.argpartition(-key, kth=kk - 1)[:kk]
        out = t.take(pa.array(idx, pa.int64()))
        return out.append_column("key", pa.array(key[idx], pa.float64()))

    partials = docs.map_batches(_partial, batch_format="pyarrow").to_pandas()
    top = partials.sort_values(["key", "doc_id"], ascending=[False, True]).head(n)
    import ray.data as rd

    return rd.from_pandas(
        top.drop(columns=["key"]).sort_values("doc_id").reset_index(drop=True)
    )


def boilerplate_scores(docs, shingle_k: int = 3, min_df: int = 3):
    """Boilerplate detection: per doc, how many of its token ``shingle_k``-gram
    positions are 'hot' n-grams (corpus document-frequency >= ``min_df``) —
    the headers/footers/navigation-chrome signal every web-scale corpus
    cleans on.  Two streaming passes, one small shuffle:

    1. df pass — each batch emits per-doc DISTINCT shingles (a doc is one
       row, so per-doc dedup is batch-local), groupby(shingle).Count gives
       df.  Hot shingles (df >= min_df) are bounded by
       total_pairs / min_df, so they broadcast via ``ray.put``.
    2. score pass — each batch rebuilds its shingle stream (object-dtype
       vectorized concat, no per-row Python loop) and counts hot hits per
       doc with one searchsorted against the sorted hot array +
       ``np.add.reduceat`` per doc segment.

    Output: (doc_id, n_shingles, n_boiler) — integers, hash-exact vs the
    SQL twin.
    """
    from ray.data.aggregate import Count

    def _doc_shingles(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids_per_shingle, shingle_strings) for a batch, vectorized:
        flatten tokens with a doc index (empty tokens masked out, matching
        the SQL list_filter), elementwise object-concat the k shifted
        views, and mask windows that cross doc boundaries."""
        tok_lists = pc.split_pattern(t.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        raw = pc.list_flatten(tok_lists)
        keep = pc.not_equal(raw, pa.scalar("")).to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(ids)), counts)[keep]
        flat = np.asarray(raw.filter(pa.array(keep)).to_pylist(), dtype=object)
        if flat.size < shingle_k:
            return np.array([], dtype=np.int64), np.array([], dtype=object)
        sh = flat[: flat.size - shingle_k + 1].copy()
        for j in range(1, shingle_k):
            sh = sh + " "
            sh = sh + flat[j : flat.size - shingle_k + 1 + j]
        ok = doc_of[: sh.size] == doc_of[shingle_k - 1 :]  # window inside one doc
        return ids[doc_of[: sh.size][ok]], sh[ok]

    def _df_pairs(t: pa.Table) -> pa.Table:
        did, sh = _doc_shingles(t)
        if sh.size == 0:
            return pa.table({"s": pa.array([], pa.string())})
        uniq = pd.DataFrame({"doc_id": did, "s": sh}).drop_duplicates()
        return pa.table({"s": pa.array(uniq["s"], pa.string())})

    df_tbl = (
        docs.map_batches(_df_pairs, batch_format="pyarrow")
        .groupby("s")
        .aggregate(Count(alias_name="df"))
    )
    hot = (
        df_tbl.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("df"), pa.scalar(min_df))),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    hot_sorted = np.sort(hot["s"].to_numpy(dtype=object)) if len(hot) else np.array([], dtype=object)
    hot_ref = ray.put(hot_sorted)

    class _Score:
        def __init__(self):
            self.hot = ray.get(hot_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return pa.table(
                    {
                        "doc_id": pa.array([], pa.int64()),
                        "n_shingles": pa.array([], pa.int64()),
                        "n_boiler": pa.array([], pa.int64()),
                    }
                )
            did, sh = _doc_shingles(t)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            n_sh = np.zeros(len(ids), dtype=np.int64)
            n_hot = np.zeros(len(ids), dtype=np.int64)
            if sh.size:
                pos = {int(v): i for i, v in enumerate(ids)}
                seg = np.array([pos[int(d)] for d in did], dtype=np.int64)
                np.add.at(n_sh, seg, 1)
                if self.hot.size:
                    loc = np.searchsorted(self.hot, sh)
                    loc[loc >= self.hot.size] = self.hot.size - 1
                    is_hot = self.hot[loc] == sh
                    np.add.at(n_hot, seg[is_hot], 1)
            keep = n_sh > 0  # docs shorter than k grams have no shingle rows in SQL
            return pa.table(
                {
                    "doc_id": pa.array(ids[keep], pa.int64()),
                    "n_shingles": pa.array(n_sh[keep], pa.int64()),
                    "n_boiler": pa.array(n_hot[keep], pa.int64()),
                }
            )

    return (
        docs.map_batches(_Score, batch_format="pyarrow", concurrency=(1, 4))
        .sort("doc_id")
    )


def bm25_rank(
    docs,
    query_terms: tuple[str, ...] = ("scan", "merge", "vector"),
    k1: float = 1.2,
    b: float = 0.75,
    k: int = 10,
):
    """BM25 ranked retrieval for a fixed query-term set — the search-side
    face of the tf-idf family (reference consumers rank harvested entity
    sentences the same way; engine-new operator per the driver mandate).

    One streaming scan of the corpus emits ONLY (doc, term, tf, dl) rows
    for documents that contain a query term, plus one per-batch corpus-stat
    summary row — matched rows are bounded by the posting list of the query
    terms, never the corpus.  The tiny materialized row set then yields
    df / N / avgdl, and scoring is vectorized per batch with each per-term
    contribution floored to INTEGER MICROS so the per-doc sum is
    summation-order-free and hash-exact vs the SQL twin (float BM25 sums
    are order-fragile; ``ln`` is the only float op and it is applied to
    identical doubles on both sides).

    score(d) = sum_t floor(1e6 * ln(1 + (N - df + .5)/(df + .5))
                                * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)))

    Output: (doc_id, score_micros, rank) — top ``k`` by (score desc, doc_id).
    """
    from ray.data.aggregate import Count, Sum

    qarr = np.array(sorted(set(query_terms)), dtype=object)

    def _rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        ne = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), counts)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        toks = flat.to_numpy(zero_copy_only=False)
        dl = np.bincount(doc_idx[ne], minlength=n).astype(np.int64)
        qmask = ne & np.isin(toks, qarr)
        tf = (
            pd.DataFrame({"doc_id": ids[doc_idx[qmask]], "term": toks[qmask]})
            .groupby(["doc_id", "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        dl_map = pd.Series(dl, index=ids)
        out = pd.DataFrame(
            {
                "doc_id": np.concatenate([tf["doc_id"].to_numpy(np.int64), [-1]]),
                "term": np.concatenate([tf["term"].to_numpy(object), [""]]),
                "tf": np.concatenate(
                    [tf["tf"].to_numpy(np.int64), [np.int64(n)]]
                ),
                "dl": np.concatenate(
                    [dl_map.loc[tf["doc_id"]].to_numpy(np.int64), [dl.sum()]]
                ),
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    # matched rows + per-batch stat rows: tiny relative to the corpus, so
    # materializing here pins only the posting-sized output of the scan
    rows = docs.map_batches(_rows, batch_format="pyarrow").materialize()

    def _stats_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t.column("doc_id"), pa.scalar(0)))

    def _matched_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("doc_id"), pa.scalar(0)))

    stat_pd = rows.map_batches(_stats_only, batch_format="pyarrow").to_pandas()
    n_docs = float(stat_pd["tf"].sum())
    total_tokens = float(stat_pd["dl"].sum())
    if n_docs == 0 or total_tokens == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "score_micros": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        )
    avgdl = total_tokens / n_docs

    matched = rows.map_batches(_matched_only, batch_format="pyarrow")
    df_pd = matched.groupby("term").aggregate(Count(alias_name="df")).to_pandas()
    df_map = {r.term: float(r.df) for r in df_pd.itertuples()}

    def _score(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "score_micros": pa.array([], pa.int64()),
                }
            )
        tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dl = t.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = (
            pd.Series(t.column("term").to_pandas()).map(df_map).to_numpy(np.float64)
        )
        idf = np.log(1.0 + (n_docs - dfv + 0.5) / (dfv + 0.5))
        contrib = np.floor(
            1000000.0
            * idf
            * (tf * (k1 + 1.0))
            / (tf + k1 * (1.0 - b + b * dl / avgdl))
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "score_micros": pa.array(contrib, pa.int64()),
            }
        )

    scored = (
        matched.map_batches(_score, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("score_micros", alias_name="score_micros"))
        .sort(["score_micros", "doc_id"], descending=[True, False])
        .limit(k)
    )
    top = scored.to_pandas()
    top["score_micros"] = top["score_micros"].astype(np.int64)
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top


def _bpe_merge_pass(left: str, right: str):
    """One vectorized leftmost-greedy rewrite of (left, right) -> left+right
    over a (syms: list<string>, ...) table — the shared kernel of BPE
    TRAINING (bpe_train's per-iteration rewrite) and BPE ENCODING
    (bpe_encode applies the trained merges in rank order with the identical
    pass, so train and encode tokenize identically by construction).
    Run-parity masking handles overlapping matches ("aaaa" -> merge 0-1,
    2-3).  All non-syms columns pass through untouched."""

    def _f(t: pa.Table) -> pa.Table:
        syms = t.column("syms")
        if isinstance(syms, pa.ChunkedArray):
            syms = syms.combine_chunks()
        lens = pc.list_value_length(syms).to_numpy(zero_copy_only=False)
        flat = syms.flatten().to_numpy(zero_copy_only=False)
        wid = np.repeat(np.arange(len(t)), lens)
        match = np.zeros(flat.size, dtype=bool)
        if flat.size > 1:
            match[:-1] = (
                (flat[:-1] == left) & (flat[1:] == right) & (wid[:-1] == wid[1:])
            )
        # leftmost-greedy: inside a run of consecutive matches keep every
        # other one starting from the run head ("aaaa" -> merge 0-1, 2-3)
        m = np.flatnonzero(match)
        if m.size:
            run_head = np.r_[True, np.diff(m) > 1]
            run_id = np.cumsum(run_head) - 1
            head_pos = m[run_head][run_id]
            keep = ((m - head_pos) % 2) == 0
            merged_at = m[keep]
            drop = np.zeros(flat.size, dtype=bool)
            drop[merged_at + 1] = True
            out_flat = flat.copy()
            out_flat[merged_at] = left + right
            sel = ~drop
            new_lens = lens - np.bincount(
                wid[merged_at + 1], minlength=len(t)
            )
            flat2 = out_flat[sel]
        else:
            new_lens, flat2 = lens, flat
        offsets = np.r_[0, np.cumsum(new_lens)].astype(np.int32)
        arr = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(flat2, pa.string())
        )
        cols = {"syms": arr}
        for name in t.column_names:
            if name != "syms":
                cols[name] = t.column(name)
        return pa.table(cols)

    return _f


def bpe_train(docs, num_merges: int = 10):
    """Distributed byte-pair-encoding tokenizer training — the merge loop
    every LLM data pipeline runs before tokenizing a corpus.

    Classic two-level shape: ONE distributed groupby reduces the corpus to
    its word-frequency table (payload = |vocab|, not corpus rows — the same
    reduction HF/SentencePiece trainers perform), then each merge iteration
    runs over the bounded word table: per batch the symbol sequences flatten
    to one numpy array, adjacent-pair counts weight by word frequency
    (shift-compare, no per-word Python), a tiny groupby Sum + deterministic
    argmax (count desc, pair lex asc) picks the merge on the driver
    (O(1) scalars), and the winning pair broadcasts for a vectorized
    leftmost-greedy rewrite (run-parity mask handles overlapping matches
    like "aaaa").  The word table re-materializes between iterations —
    bounded state, the corpus itself is read exactly once.

    Output: merges table (rank, left, right, count).  No SQL twin
    (iterative); pinned by a pure-python reference-BPE parity test.
    """
    from ray.data.aggregate import Sum

    def _words(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(t.column("text"), pattern=" "))
        toks = toks.filter(pc.not_equal(toks, pa.scalar("")))
        v, n = np.unique(toks.to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"word": pa.array(v), "n": pa.array(n.astype(np.int64))})

    words = (
        docs.map_batches(_words, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda t: pa.table(
                {
                    "syms": pa.array(
                        [list(w) for w in t.column("word").to_pylist()],
                        pa.list_(pa.string()),
                    ),
                    "n": t.column("n"),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def _pair_counts(t: pa.Table) -> pa.Table:
        syms = t.column("syms")
        if isinstance(syms, pa.ChunkedArray):
            syms = syms.combine_chunks()
        lens = pc.list_value_length(syms).to_numpy(zero_copy_only=False)
        flat = syms.flatten().to_numpy(zero_copy_only=False)
        if flat.size == 0:
            return pa.table({"left": pa.array([], pa.string()),
                             "right": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        wid = np.repeat(np.arange(len(t)), lens)
        wn = t.column("n").to_numpy(zero_copy_only=False)
        # adjacent pairs within the same word
        same = wid[:-1] == wid[1:]
        df = pd.DataFrame(
            {
                "left": flat[:-1][same],
                "right": flat[1:][same],
                "n": wn[wid[:-1][same]],
            }
        )
        g = df.groupby(["left", "right"], sort=False)["n"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def _apply_merge(left: str, right: str):
        return _bpe_merge_pass(left, right)

    def _block_argmax(t: pa.Table) -> pa.Table:
        # per-block winner under the merge order (count desc, pair lex asc);
        # groupby output blocks hold DISJOINT pairs, so the global winner is
        # the winner among block winners — the driver pull shrinks from the
        # full pair-vocab table to <= num_blocks rows
        if len(t) == 0:
            return pa.table(
                {"left": pa.array([], pa.string()),
                 "right": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        df = t.to_pandas().sort_values(
            ["n", "left", "right"], ascending=[False, True, True], kind="mergesort"
        )
        return pa.Table.from_pandas(df.head(1), preserve_index=False)

    merges = []
    for rank in range(num_merges):
        counts = (
            words.map_batches(_pair_counts, batch_format="pyarrow")
            .groupby(["left", "right"])
            .aggregate(Sum("n", alias_name="n"))
            .map_batches(_block_argmax, batch_format="pyarrow")
            .to_pandas()
        )
        if counts.empty:
            break
        counts = counts.sort_values(
            ["n", "left", "right"], ascending=[False, True, True], kind="mergesort"
        )
        top = counts.iloc[0]
        merges.append(
            {"rank": rank, "left": top["left"], "right": top["right"],
             "count": int(top["n"])}
        )
        words = words.map_batches(
            _apply_merge(str(top["left"]), str(top["right"])),
            batch_format="pyarrow",
        ).materialize()
    out = pd.DataFrame(merges, columns=["rank", "left", "right", "count"])
    if len(out):
        out["rank"] = out["rank"].astype(np.int64)
        out["count"] = out["count"].astype(np.int64)
    return out


def incremental_token_histogram(docs, limit: int = 100, split_mod: int = 2):
    """Incremental-load aggregate maintenance: the corpus arrives as
    ``split_mod`` separate loads (split here deterministically by
    ``doc_id % split_mod``), each load reduces to its own MERGEABLE partial
    histogram — the artifact an incremental pipeline persists per load —
    and the published result is the UNION + groupby-Sum of the saved
    partials, NOT a recompute over raw data.  Mergeability is the property
    that makes per-load checkpointing sound: merge(partials(A),
    partials(B)) == aggregate(A ∪ B), pinned by sharing
    ``q_token_histogram``'s exact SQL twin (full-corpus recompute).

    Same final (token, n) top-``limit`` contract as
    :func:`token_histogram`."""
    from ray.data.aggregate import Sum

    def _load(i: int):
        def _f(t: pa.Table) -> pa.Table:
            ids = pc.cast(t.column("doc_id"), pa.int64()).to_numpy()
            return t.filter(pa.array(ids % split_mod == i))

        return _f

    # per-load partials: full (token, n) tables — unlimited, because a
    # top-k boundary is NOT mergeable; the limit applies only at publish
    partials = []
    for i in range(split_mod):
        load = docs.map_batches(_load(i), batch_format="pyarrow")
        partials.append(token_histogram(load, limit=None))

    merged = partials[0]
    for p in partials[1:]:
        merged = merged.union(p)
    out = (
        merged.groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        .head(limit)
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype(np.int64)
    return out


def _shingle_posting_pairs(docs, n: int = 3):
    """(shingle, doc_id, tf) posting rows over token n-gram shingles — the
    sparse feature space for document similarity over a small-vocabulary
    corpus (unigram df is corpus-sized there; n-gram df is not).  Same
    tokenization contract as ``_posting_pairs`` (split on ' ', empties
    dropped) and the same one-vectorized-pass construction: shingles are
    joined with a single space so the SQL twin is ``w[i] || ' ' || w[i+1]
    || ' ' || w[i+2]`` over the filtered token list.  Docs with fewer than
    ``n`` tokens emit nothing.  Pure map — no shuffle, no driver state."""

    def _post(batch: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
        doc_ids = batch.column("doc_id").to_numpy()
        raw_counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        raw_flat = np.asarray(pc.list_flatten(tok_lists), dtype=object)
        # drop empty tokens at the flat level, recomputing per-doc counts
        keep_tok = raw_flat != ""
        nb = len(batch)
        if keep_tok.all():
            counts, flat = raw_counts, raw_flat
        else:
            doc_of_tok = np.repeat(np.arange(nb), raw_counts)
            counts = raw_counts - np.bincount(
                doc_of_tok[~keep_tok], minlength=nb
            ).astype(raw_counts.dtype)
            flat = raw_flat[keep_tok]
        # shingle count per doc: max(len - n + 1, 0)
        sh_counts = np.maximum(counts - (n - 1), 0)
        total = int(sh_counts.sum())
        if total == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                    "tf": pa.array([], pa.int64()),
                }
            )
        # start offset of each doc's tokens in flat
        offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
        # flat index of each shingle's FIRST token, grouped by doc
        starts_per_doc = np.repeat(offs, sh_counts)
        seg = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(sh_counts)[:-1]]), sh_counts
        )
        first = starts_per_doc + seg
        parts = [flat[first + k] for k in range(n)]
        sep = np.full(total, " ", dtype=object)
        sh = parts[0]
        for p in parts[1:]:
            sh = sh + sep + p
        doc_idx = np.repeat(np.arange(len(batch)), sh_counts)
        # tf per (doc, shingle) via dictionary-encode + composite-key unique
        enc = pa.array(sh).dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        vocab = enc.dictionary
        key = doc_idx * len(vocab) + codes
        uk, tf = np.unique(key, return_counts=True)
        u_doc, u_tok = uk // len(vocab), uk % len(vocab)
        return pa.table(
            {
                "token": vocab.take(pa.array(u_tok)),
                "doc_id": pa.array(doc_ids[u_doc]),
                "tf": pa.array(tf.astype(np.int64)),
            }
        )

    return docs.map_batches(_post, batch_format="pyarrow")


@ray.remote(num_cpus=0)
class SsjoinPruneStats:
    """Side-channel counter for :func:`shingle_cosine_pairs`' df prune.

    The ssjoin silently truncates dot-product mass once a shingle's df
    exceeds ``max_df`` — the repo's no-silent-caps rule (COVERAGE.md) wants
    that loss observable.  Pair-generation tasks ``add`` their per-partition
    drop counts (commutative sums, so task ordering doesn't matter; task
    RETRIES can double-count — telemetry, not an oracle input).  Read with
    ``get()`` AFTER the output dataset has been consumed.
    """

    def __init__(self):
        self._shingles = 0
        self._rows = 0

    def add(self, shingles_dropped: int, posting_rows_dropped: int) -> None:
        self._shingles += int(shingles_dropped)
        self._rows += int(posting_rows_dropped)

    def get(self) -> dict:
        return {
            "shingles_dropped": self._shingles,
            "posting_rows_dropped": self._rows,
        }


def shingle_cosine_pairs(
    docs,
    threshold: float = 0.5,
    shingle_n: int = 3,
    max_df: int = 100,
    broadcast_max_docs: int = 5_000_000,
    num_parts: int = 64,
    prune_stats=None,
):
    """All-pairs sparse cosine similarity join over token-``shingle_n``-gram
    tf vectors — the similarity self-join (ssjoin) shape of near-duplicate
    detection, exact where MinHash is probabilistic.

    Scale shape (100 TB): the corpus reduces once to (shingle, doc_id, tf)
    posting rows; candidate pairs are generated PER SHINGLE inside a
    coarse hash partition (``partitioned_apply`` on the shingle — never an
    all-pairs loop), so work is sum(df²) over the kept vocabulary, capped
    by ``max_df`` (shingles in more than ``max_df`` docs are boilerplate
    mass; dropping them truncates dots the way every production ssjoin
    prunes its prefix — EXACT when ``max_df`` exceeds the corpus's true
    max df, as on the test corpora).  df=1 shingles are skipped outright
    (they cannot form a pair; norms still count them).  Per-partition
    pandas groupby pre-combines (a, b) partial dots before the one global
    C-path Sum groupby.  Norms are FULL-space (computed before pruning,
    one Sum groupby, doc-bounded) and join back by broadcast below
    ``broadcast_max_docs`` or a co-partitioned hash join above it.

    The threshold test never compares floats computed differently on the
    two engines: ``dot² >= t²·na2·nb2`` is evaluated in float64 with the
    IDENTICAL expression tree on integer inputs (exact under 2^53) on both
    sides — ``(dot·dot) >= (t2·na2)·nb2`` with ``t2`` the same repr'd
    literal.  Output: (a, b, dot, na2, nb2) sorted by (a, b).

    Reference tie-in: the reference dedups evaluation sentences exactly
    (aggregate_server_response.py); this is the graded similarity-join
    generalization over the documents table.

    ``prune_stats``: optional :class:`SsjoinPruneStats` actor handle; when
    given, each pair partition reports how many shingle groups and posting
    rows the ``df > max_df`` gate dropped, so callers can tell whether the
    result is exact (0 dropped) or prefix-pruned.
    """
    from ray.data.aggregate import Sum as _Sum

    from .grouping import partitioned_apply

    posts = _shingle_posting_pairs(docs, n=shingle_n)

    # full-space squared norms: one combiner map + C-path Sum groupby
    def _sq(t: pa.Table) -> pa.Table:
        tf = t.column("tf").to_numpy()
        return pa.table(
            {"doc_id": t.column("doc_id"), "tf2": pa.array(tf * tf)}
        )

    norms = (
        posts.map_batches(_sq, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(_Sum("tf2", alias_name="n2"))
    )

    # df-prune INSIDE the pair partition: all postings of a shingle land in
    # one partition, so df is computable locally — no df table, no join
    def _pairs(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "a": pd.Series([], dtype="int64"),
                "b": pd.Series([], dtype="int64"),
                "dot": pd.Series([], dtype="int64"),
            }
        )
        if not len(part):
            return empty
        part = part.sort_values(["token", "doc_id"], kind="mergesort")
        tok = part["token"].to_numpy()
        doc = part["doc_id"].to_numpy()
        tf = part["tf"].to_numpy().astype(np.int64)
        m = len(part)
        new = np.ones(m, dtype=bool)
        new[1:] = tok[1:] != tok[:-1]
        grp_start = np.flatnonzero(new)
        grp_end = np.append(grp_start[1:], m)
        sizes = grp_end - grp_start
        # df gate: 2 <= df <= max_df (df == tokens' distinct docs == group
        # size: (doc, shingle) rows are unique by construction)
        keep_grp = (sizes >= 2) & (sizes <= max_df)
        if prune_stats is not None:
            over = sizes > max_df
            n_over = int(over.sum())
            if n_over:
                prune_stats.add.remote(n_over, int(sizes[over].sum()))
        if not keep_grp.any():
            return empty
        row_end = np.repeat(grp_end, sizes)
        row_keep = np.repeat(keep_grp, sizes)
        row_idx = np.arange(m)
        reps = np.where(row_keep, row_end - row_idx - 1, 0)
        total = int(reps.sum())
        if total == 0:
            return empty
        i_idx = np.repeat(row_idx, reps)
        seg = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps
        )
        j_idx = i_idx + 1 + seg
        out = pd.DataFrame(
            {"a": doc[i_idx], "b": doc[j_idx], "dot": tf[i_idx] * tf[j_idx]}
        )
        # partition-local combiner before the global Sum shuffle
        return out.groupby(["a", "b"], as_index=False, sort=False)["dot"].sum()

    # global (a, b) combine: Ray's multi-key hash aggregate is ~50x slower
    # than a coarse hash partition + one vectorized pandas groupby per
    # partition (measured 164 s vs 3 s on 1.3M pairs at sf0.1), so reuse
    # partitioned_apply for the reduce too — same one-shuffle cost, C-path
    # combine
    def _combine(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(["a", "b"], as_index=False, sort=False)["dot"].sum()

    dots = partitioned_apply(
        partitioned_apply(posts, "token", _pairs, num_parts=num_parts),
        ["a", "b"],
        _combine,
        num_parts=num_parts,
    )

    t2 = float(threshold) * float(threshold)

    n_docs = norms.count()
    if n_docs <= broadcast_max_docs:
        norms_pd = norms.to_pandas()
        order = np.argsort(norms_pd["doc_id"].to_numpy(), kind="mergesort")
        ref = ray.put(
            (
                norms_pd["doc_id"].to_numpy()[order],
                norms_pd["n2"].to_numpy().astype(np.int64)[order],
            )
        )

        def _finish(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return pa.table(
                    {
                        "a": pa.array([], pa.int64()),
                        "b": pa.array([], pa.int64()),
                        "dot": pa.array([], pa.int64()),
                        "na2": pa.array([], pa.int64()),
                        "nb2": pa.array([], pa.int64()),
                    }
                )
            ids, n2 = ray.get(ref)
            a = t.column("a").to_numpy()
            b = t.column("b").to_numpy()
            dot = t.column("dot").to_numpy().astype(np.int64)
            na2 = n2[np.searchsorted(ids, a)]
            nb2 = n2[np.searchsorted(ids, b)]
            dot_f = dot.astype(np.float64)
            keep = (dot_f * dot_f) >= (np.float64(t2) * na2.astype(np.float64)) * nb2.astype(np.float64)
            return pa.table(
                {
                    "a": pa.array(a[keep]),
                    "b": pa.array(b[keep]),
                    "dot": pa.array(dot[keep]),
                    "na2": pa.array(na2[keep]),
                    "nb2": pa.array(nb2[keep]),
                }
            )

        out = dots.map_batches(_finish, batch_format="pyarrow")
    else:
        # doc table outgrew the driver: attach each side's norm by a tagged
        # union + ONE coarse hash partition on that side's doc id (the
        # repo-wide equi-join shape — Dataset.join is avoided on purpose),
        # then a vectorized pandas merge inside each partition
        def _attach(pairs_ds, key_col: str, out_col: str, payload: list):
            def _tag_pairs(t: pa.Table) -> pa.Table:
                cols = {
                    "key": t.column(key_col).cast(pa.int64()),
                    "n2": pa.array(
                        np.zeros(len(t), dtype=np.int64), pa.int64()
                    ),
                    "is_norm": pa.array(
                        np.zeros(len(t), dtype=np.int8), pa.int8()
                    ),
                }
                for c in payload:
                    cols[c] = t.column(c)
                return pa.table(cols)

            def _tag_norms(t: pa.Table) -> pa.Table:
                cols = {
                    "key": t.column("doc_id").cast(pa.int64()),
                    "n2": t.column("n2").cast(pa.int64()),
                    "is_norm": pa.array(
                        np.ones(len(t), dtype=np.int8), pa.int8()
                    ),
                }
                for c in payload:
                    cols[c] = pa.array(np.zeros(len(t), dtype=np.int64))
                return pa.table(cols)

            tagged = pairs_ds.map_batches(
                _tag_pairs, batch_format="pyarrow"
            ).union(norms.map_batches(_tag_norms, batch_format="pyarrow"))

            def _merge(part: pd.DataFrame) -> pd.DataFrame:
                d = part[part["is_norm"] == 0]
                nm = part[part["is_norm"] == 1][["key", "n2"]]
                out = d.drop(columns=["n2", "is_norm"]).merge(
                    nm, on="key", how="inner"
                )
                out = out.rename(columns={"key": key_col, "n2": out_col})
                return out[[key_col, *payload, out_col]]

            return partitioned_apply(tagged, "key", _merge, num_parts=num_parts)

        with_na = _attach(dots, "a", "na2", ["b", "dot"])
        with_both = _attach(with_na, "b", "nb2", ["a", "dot", "na2"])

        def _thresh(t: pa.Table) -> pa.Table:
            dot = t.column("dot").to_numpy().astype(np.int64)
            na2 = t.column("na2").to_numpy().astype(np.int64)
            nb2 = t.column("nb2").to_numpy().astype(np.int64)
            dot_f = dot.astype(np.float64)
            keep = (dot_f * dot_f) >= (np.float64(t2) * na2.astype(np.float64)) * nb2.astype(np.float64)
            cols = {}
            for name in ("a", "b", "dot", "na2", "nb2"):
                cols[name] = t.column(name).cast(pa.int64()).filter(pa.array(keep))
            return pa.table(cols)

        out = with_both.map_batches(_thresh, batch_format="pyarrow")

    return out.sort(["a", "b"])


def bpe_encode(docs, merges: pd.DataFrame, vocab_broadcast_max: int = 5_000_000):
    """Tokenize the corpus with a TRAINED merge list — the production half
    of :func:`bpe_train` (every LLM pipeline trains once, then encodes
    everything).  Encoding is per-WORD, so the corpus first reduces to its
    DISTINCT-word table (the HF fast-tokenizer word-cache shape); the
    trained merges then apply in rank order, each as the identical
    vectorized ``_bpe_merge_pass`` the trainer used — train and encode
    agree by construction.  The finished word -> token-count map (vocab-
    bounded) broadcasts via ``ray.put`` and a pure map scores every doc;
    beyond ``vocab_broadcast_max`` distinct words the same map would ship
    as a Dataset through the repo's tagged-union co-partitioned join (the
    top_tfidf dual-regime precedent).

    ``merges``: DataFrame with (rank, left, right) — ``bpe_train`` output.
    Output: (doc_id, n_words, n_bpe_tokens) sorted by doc_id.  No SQL twin
    (iterative rewrites); pinned by pure-python parity + concatenation-
    invariant tests.
    """

    def _words(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(t.column("text"), pattern=" "))
        toks = toks.filter(pc.not_equal(toks, pa.scalar("")))
        v = np.unique(toks.to_numpy(zero_copy_only=False))
        return pa.table({"word": pa.array(v)})

    from ray.data.aggregate import Count as _Count

    words = (
        docs.map_batches(_words, batch_format="pyarrow")
        .groupby("word")
        .aggregate(_Count(alias_name="_c"))
        .drop_columns(["_c"])
        .map_batches(
            lambda t: pa.table(
                {
                    "word": t.column("word"),
                    "syms": pa.array(
                        [list(w) for w in t.column("word").to_pylist()],
                        pa.list_(pa.string()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    ordered = merges.sort_values("rank")
    for left, right in zip(ordered["left"], ordered["right"]):
        words = words.map_batches(
            _bpe_merge_pass(str(left), str(right)), batch_format="pyarrow"
        )

    wt = words.map_batches(
        lambda t: pa.table(
            {
                "word": t.column("word"),
                "n_tok": pc.list_value_length(t.column("syms")).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).to_pandas()
    order = np.argsort(wt["word"].to_numpy(), kind="mergesort")
    lut_ref = ray.put(
        (wt["word"].to_numpy()[order], wt["n_tok"].to_numpy().astype(np.int64)[order])
    )

    def _score(t: pa.Table) -> pa.Table:
        vocab, ntok = ray.get(lut_ref)
        tok_lists = pc.split_pattern(t.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists).to_numpy(zero_copy_only=False)
        keep = flat != ""
        doc_of = np.repeat(np.arange(len(t)), counts)[keep]
        flat = flat[keep]
        idx = np.searchsorted(vocab, flat)
        per_tok = ntok[idx]
        n_words = np.bincount(doc_of, minlength=len(t)).astype(np.int64)
        n_bpe = np.bincount(doc_of, weights=per_tok, minlength=len(t)).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_words": pa.array(n_words),
                "n_bpe_tokens": pa.array(n_bpe),
            }
        )

    return docs.map_batches(_score, batch_format="pyarrow").sort("doc_id")


def chunk_documents(docs, size: int = 4, overlap: int = 1):
    """RAG-style sliding-window chunker: documents -> one row per chunk of
    ``size`` whitespace tokens with ``overlap`` tokens shared between
    consecutive chunks (stride = size - overlap).  Chunk starts are the
    stride multiples below the doc's token count; the tail chunk may be
    short; empty docs emit nothing.  Tokens are the nonempty whitespace
    splits (the :func:`explode_tokens` contract), so the op carries an
    exact DuckDB twin (string_split + UNNEST(range) + list slice).

    Pure vectorized per-batch reshape — flatten + segmented-arange chunk
    expansion + one groupby-join for the chunk text; one input row maps
    to ceil-ish(n_toks/stride) output rows with NO shuffle (the flat_map
    class).  Output: (doc_id, chunk_idx, start_tok, n_toks, chunk_text).
    """
    if overlap >= size:
        raise ValueError("overlap must be < size")
    step = size - overlap

    def _f(batch: pa.Table) -> pd.DataFrame:
        n = len(batch)
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=object),
                "chunk_idx": pd.Series([], dtype="int64"),
                "start_tok": pd.Series([], dtype="int64"),
                "n_toks": pd.Series([], dtype="int64"),
                "chunk_text": pd.Series([], dtype=object),
            }
        )
        if n == 0:
            return empty
        tok_lists = pc.split_pattern(batch.column("text"), pattern=" ")
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(tok_lists)
        keep = pc.not_equal(flat, pa.scalar("")).to_numpy(zero_copy_only=False)
        toks = flat.filter(pa.array(keep)).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), counts)[keep]
        ntok = np.bincount(doc_idx, minlength=n).astype(np.int64)
        doc_off = np.concatenate([[0], np.cumsum(ntok)[:-1]])
        # chunks per doc: ceil(ntok / step) capped so start < ntok
        n_chunks = (ntok + step - 1) // step
        total_chunks = int(n_chunks.sum())
        if total_chunks == 0:
            return empty
        chunk_doc = np.repeat(np.arange(n), n_chunks)
        chunk_idx = np.arange(total_chunks) - np.repeat(
            np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks
        )
        start = chunk_idx * step
        lens = np.minimum(ntok[chunk_doc] - start, size)
        # gather token indices per chunk (segmented arange)
        tot_tok = int(lens.sum())
        gi = np.repeat(doc_off[chunk_doc] + start, lens) + (
            np.arange(tot_tok)
            - np.repeat(np.concatenate([[0], np.cumsum(lens)[:-1]]), lens)
        )
        cid = np.repeat(np.arange(total_chunks), lens)
        texts = (
            pd.Series(toks[gi])
            .groupby(cid, sort=True)
            .agg(" ".join)
            .to_numpy()
        )
        ids = batch.column("doc_id").to_numpy()
        return pd.DataFrame(
            {
                "doc_id": ids[chunk_doc],
                "chunk_idx": chunk_idx.astype(np.int64),
                "start_tok": start.astype(np.int64),
                "n_toks": lens.astype(np.int64),
                "chunk_text": texts,
            }
        )

    return docs.select_columns(["doc_id", "text"]).map_batches(
        _f, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005) — the point-frequency
# member of the sketch family (HLL = distinct, Misra-Gries = top-k,
# t-digest = quantiles, Bloom = membership; CMS = per-key counts).

_CMS_SEEDS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — well-mixed uint64 from a uint64 key."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _cms_cells(tokens: pd.Series, width: int, depth: int) -> np.ndarray:
    """(depth, n) cell indices for a token Series — ONE deterministic
    pandas hash per token (same key as the partitioners), then ``depth``
    splitmix64 remixes; no Python per token."""
    base = pd.util.hash_pandas_object(tokens, index=False).to_numpy()
    return np.stack(
        [
            (_mix64(base ^ np.uint64(_CMS_SEEDS[r])) % np.uint64(width)).astype(
                np.int64
            )
            for r in range(depth)
        ]
    )


def cms_sketch(docs, width: int = 8192, depth: int = 4):
    """One-pass mergeable Count-Min sketch over corpus tokens.

    Per batch: C-path ``value_counts`` compresses the batch to its local
    vocab, each distinct token hashes ``depth`` ways (splitmix64 remixes of
    one deterministic pandas hash), and a ``np.add.at`` bincount fills the
    batch's own depth x width partial, emitted as ONE dense int64 row.
    The corpus never shuffles; partials sum associatively (here in a tiny
    driver reduce over block-count rows, at 100 TB as a ``map_batches``
    merge tree exactly like :func:`joins.hll_distinct`).  Driver state is
    the depth x width counter matrix — independent of corpus size.

    Guarantees (standard CMS): ``estimate(t) >= true(t)`` always, and
    ``estimate(t) <= true(t) + 2N/width`` with probability
    ``1 - 2^-depth`` per query.  Returns ``(sketch ndarray, total_tokens)``.
    """

    def _partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t.column("text"), pattern=" "))
        flat = flat.filter(pc.not_equal(flat, pa.scalar("")))
        vc = pc.value_counts(flat)
        toks = vc.field("values").to_pandas()
        cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        dense = np.zeros(depth * width, dtype=np.int64)
        if len(toks):
            cells = _cms_cells(toks, width, depth)
            for r in range(depth):
                np.add.at(dense, r * width + cells[r], cnts)
        return pa.table(
            {
                "sketch": pa.array([dense.tolist()], pa.list_(pa.int64())),
                "n": pa.array([int(cnts.sum())], pa.int64()),
            }
        )

    rows = docs.map_batches(_partial, batch_format="pyarrow").to_pandas()
    sketch = np.zeros(depth * width, dtype=np.int64)
    for s in rows["sketch"]:
        sketch += np.asarray(s, dtype=np.int64)
    return sketch.reshape(depth, width), int(rows["n"].sum())


def cms_estimate(sketch: np.ndarray, tokens: list[str]) -> np.ndarray:
    """Point-frequency estimates for ``tokens``: min over the sketch rows
    at each token's cells (vectorized gather, no loop over tokens)."""
    depth, width = sketch.shape
    cells = _cms_cells(pd.Series(list(tokens), dtype=object), width, depth)
    ests = np.stack([sketch[r, cells[r]] for r in range(depth)])
    return ests.min(axis=0)


def cms_token_estimates(docs, k: int = 20, width: int = 8192, depth: int = 4):
    """Battery face: CMS estimates for the exact top-``k`` tokens.

    Composes the two scale-shaped passes: :func:`heavy_hitters` finds the
    exact top-k (Misra-Gries + recount — the ground truth column), one CMS
    pass sketches the whole corpus, and the output carries both so any
    consumer (and the accuracy test) can see the overestimate directly.
    Columns: (token, n_true, n_est), sorted (n_true desc, token asc).
    """
    top = heavy_hitters(docs, k=k)
    sketch, _total = cms_sketch(docs, width=width, depth=depth)
    toks = top["token"].tolist()
    est = cms_estimate(sketch, toks)
    out = pd.DataFrame(
        {
            "token": toks,
            "n_true": top["n"].astype(np.int64).to_numpy(),
            "n_est": est.astype(np.int64),
        }
    )
    assert (out["n_est"] >= out["n_true"]).all(), "CMS one-sided bound violated"
    return out.sort_values(
        ["n_true", "token"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
