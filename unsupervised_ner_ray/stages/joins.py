"""Join-family operators beyond the broadcast lookups in relational.py.

* ``q_order_lineitem_join`` — LARGE-LARGE hash join: per-order lineitem
  aggregate (combiner groupby) joined to orders with ``Dataset.join``
  (hash-partitioned on the key; num_partitions bounds per-partition memory).
* ``q_asof_last_order`` — AS-OF join: for each event, the latest order of
  the same user at or before the event time.  The right side here is
  dimension-sized, so it is broadcast as per-key sorted date arrays and
  resolved with ``np.searchsorted`` per batch (no shuffle).  For a
  large-large as-of, bucket both sides by key hash and ``pd.merge_asof``
  per bucket inside ``map_groups`` — same semantics, documented seam.
* ``q_window_rank`` — top-2 orders per customer (whole-partition windowed
  rank: one sort + C-path cumcount per coarse hash partition).
* ``q_range_join`` / ``q_range_join_bucketed`` — RANGE (interval) join: per
  event, count of the same user's orders in the trailing 30-day window.
  Broadcast variant ships per-key sorted date arrays once (``ray.put``) and
  answers each batch with two vectorized ``np.searchsorted`` calls; the
  bucketed variant is the large-large scale path — bucket width == window
  width, each right row replicated to exactly 2 buckets (bounded 2×, no
  broadcast), then one co-partitioned ``groupby(key, bucket).map_groups``.
  Both are hash-exact against the same DuckDB oracle.
* ``q_distinct_users`` — exact COUNT DISTINCT via two-level groupby
  (pairs first, then count — no full-row shuffle of duplicates).
* ``q_quantiles`` — per-group quantiles (numpy linear interpolation ==
  DuckDB percentile_cont).
* ``hll_distinct`` — mergeable HyperLogLog sketch (approximate distinct;
  rows-only check: approximation is not SQL-equal by construction).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Sum

from ..sources.io import read_sf
from .relational import _to_cents


def hash_join(left, right, join_type: str, num_partitions: int, on, right_on=None):
    """``Dataset.join`` whose hash-shuffle aggregators fit the cluster.

    Ray 2.49 reserves ``memory`` for every join aggregator from a default
    estimate of 128 MiB per partition, whatever the data size: ~0.9 GiB per
    aggregator, held until the plan finishes.  A 16-partition join then
    asks for 14 GiB and never starts on a node with less, and joins chained
    in one plan add up their reservations (three 8-partition joins: 21 GiB).
    Ray's CPU rule (half the cluster, at most one CPU per aggregator) lets
    a 2-partition join hold 2 of 4 CPUs for the whole plan; with two actor
    pools feeding it, no CPU is left for the plan's tasks.  Here one join's
    aggregators together reserve at most a quarter of the cluster's memory
    and a quarter of its CPUs.
    """
    from ray.data import DataContext

    ctx = DataContext.get_current()
    n_aggs = min(
        num_partitions,
        ctx.max_hash_shuffle_aggregators or ctx.default_hash_shuffle_parallelism,
    )
    res = ray.cluster_resources()
    args = {
        "num_cpus": min(1.0, res.get("CPU", 1) / 4 / n_aggs),
        "memory": int(res.get("memory", 0) / 4 / n_aggs),
        "scheduling_strategy": "SPREAD",
    }
    return left.join(
        right,
        join_type=join_type,
        num_partitions=num_partitions,
        on=on,
        right_on=right_on,
        aggregator_ray_remote_args=args,
    )


def q_order_lineitem_join(sf_dir: str, num_partitions: int = 16):
    """Per-order revenue vs order header: combiner groupby on lineitem,
    then a hash-partitioned inner join to orders."""
    li = read_sf(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def _prep(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), t.column("l_discount")),
        )
        return pa.table(
            {"l_orderkey": t.column("l_orderkey"), "rev_cents": _to_cents(rev)}
        )

    per_order = (
        li.map_batches(_prep, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("rev_cents", alias_name="rev_cents"), Count(alias_name="n_items"))
    )
    orders = read_sf(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "total_cents": _to_cents(t.column("o_totalprice")),
            }
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(
        per_order,
        orders,
        join_type="inner",
        num_partitions=num_partitions,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    return joined.select_columns(["l_orderkey", "rev_cents", "n_items", "total_cents"]).sort("l_orderkey")


_UT_DT = np.dtype([("u", "i8"), ("t", "i8")])


def _broadcast_sorted_orders(sf_dir: str):
    """ray.put one structured (user, ts_us) array of all orders, sorted
    lexicographically.  Timestamps are cast to int64 microseconds on the
    ARROW side (``pc.cast``) — a pandas datetime64 ``.astype('int64')``
    follows the frame's resolution (ns vs us), which would silently compare
    nanoseconds against the probe side's microseconds."""
    odf = (
        read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
        .map_batches(
            lambda t: pa.table(
                {
                    "u": t.column("o_custkey"),
                    "t": pc.cast(t.column("o_orderdate"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    A = np.empty(len(odf), dtype=_UT_DT)
    A["u"] = odf["u"].to_numpy()
    A["t"] = odf["t"].to_numpy()
    A.sort()
    return ray.put(A)


def q_asof_last_order(sf_dir: str):
    """For each event: the latest o_orderdate of the same user at or before
    the event ts (broadcast as-of).  The whole batch is resolved with ONE
    lexicographic ``np.searchsorted`` over the broadcast (user, ts) array —
    the same vectorized form as the shuffled variant, no Python per row."""
    ref = _broadcast_sorted_orders(sf_dir)

    class AsOf:
        def __init__(self):
            self.A = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            q = np.empty(len(t), dtype=_UT_DT)
            q["u"] = t.column("user_id").to_numpy()
            q["t"] = pc.cast(t.column("ts"), pa.int64()).to_numpy()
            idx = np.searchsorted(self.A, q, side="right")
            has_prev = idx > 0
            prev = np.maximum(idx - 1, 0)
            same_user = has_prev & (self.A["u"][prev] == q["u"])
            last = self.A["t"][prev]
            return pa.table(
                {
                    "event_id": t.column("event_id"),
                    "user_id": t.column("user_id"),
                    "last_order_us": pa.array(last, mask=~same_user),
                }
            )

    ev = read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return ev.map_batches(AsOf, batch_format="pyarrow", concurrency=(1, 4)).sort("event_id")


def q_asof_last_order_shuffled(sf_dir: str, num_parts: int = 64):
    """Same as-of semantics as :func:`q_asof_last_order`, but for
    LARGE-LARGE sides: no broadcast.  Both sides hash-shuffle ONCE on a
    coarse ``part = hash(user) % num_parts`` key (per-user groups would pay
    a Python call per almost-singleton group); each partition then resolves
    ALL its events in one vectorized pass — orders sorted by the (user, ts)
    pair, every event answered by one lexicographic ``np.searchsorted`` on
    a structured dtype, taking the predecessor only if it belongs to the
    same user."""

    def _orders_tag(t: pa.Table) -> pa.Table:
        n = len(t)
        u = t.column("o_custkey").to_numpy()
        return pa.table(
            {
                "user_id": t.column("o_custkey"),
                "part": pa.array(((u * 2654435761) % num_parts).astype(np.int32)),
                "ts_us": pc.cast(t.column("o_orderdate"), pa.int64()),
                "event_id": pa.nulls(n, pa.int64()),
                "is_order": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    def _events_tag(t: pa.Table) -> pa.Table:
        n = len(t)
        u = t.column("user_id").to_numpy()
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "part": pa.array(((u * 2654435761) % num_parts).astype(np.int32)),
                "ts_us": pc.cast(t.column("ts"), pa.int64()),
                "event_id": t.column("event_id"),
                "is_order": pa.array(np.zeros(n, dtype=np.int8)),
            }
        )

    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderdate"]).map_batches(
        _orders_tag, batch_format="pyarrow"
    )
    events = read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts"]).map_batches(
        _events_tag, batch_format="pyarrow"
    )

    def _asof_part(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["is_order"] == 0]
        if ev.empty:
            return pd.DataFrame(
                {"event_id": pd.Series([], dtype="int64"),
                 "user_id": pd.Series([], dtype="int64"),
                 "last_order_us": pd.Series([], dtype="float64")}
            )
        od = g[g["is_order"] == 1]
        A = np.empty(len(od), dtype=_UT_DT)
        A["u"] = od["user_id"].to_numpy()
        A["t"] = od["ts_us"].to_numpy()
        A.sort()
        q = np.empty(len(ev), dtype=_UT_DT)
        q["u"] = ev["user_id"].to_numpy()
        q["t"] = ev["ts_us"].to_numpy()
        last = np.full(len(ev), np.nan)
        if len(A):
            idx = np.searchsorted(A, q, side="right")
            has_prev = idx > 0
            prev = np.maximum(idx - 1, 0)
            same_user = has_prev & (A["u"][prev] == q["u"])
            last[same_user] = A["t"][prev[same_user]].astype(np.float64)
        return pd.DataFrame(
            {
                "event_id": ev["event_id"].to_numpy().astype(np.int64),
                "user_id": ev["user_id"].to_numpy().astype(np.int64),
                "last_order_us": last,
            }
        )

    def _to_int64(t: pa.Table) -> pa.Table:
        col = t.column("last_order_us")
        col = pc.if_else(pc.is_nan(col), pa.scalar(None, pa.float64()), col)
        return t.set_column(
            t.schema.get_field_index("last_order_us"),
            "last_order_us",
            pc.cast(col, pa.int64()),
        )

    return (
        events.union(orders)
        .groupby("part")
        .map_groups(_asof_part, batch_format="pandas")
        .sort("event_id")
        .map_batches(_to_int64, batch_format="pyarrow")
    )


_RANGE_WINDOW_US = 30 * 86400 * 1_000_000  # trailing 30 days


def q_range_join(sf_dir: str, window_us: int = _RANGE_WINDOW_US):
    """Per event: COUNT of the same user's orders with
    ``o_orderdate in (ts - window, ts]`` — a keyed interval/range join.

    Orders is dimension-sized here, so the right side is broadcast ONCE as
    a single (user, ts) structured array sorted lexicographically (int64 us,
    cast Arrow-side); each batch is answered with TWO vectorized
    ``np.searchsorted`` calls total — no Python per row, no shuffle.  For
    the large-large case use :func:`q_range_join_bucketed`.
    """
    ref = _broadcast_sorted_orders(sf_dir)

    class RangeCount:
        def __init__(self):
            self.A = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            hi = np.empty(len(t), dtype=_UT_DT)
            hi["u"] = t.column("user_id").to_numpy()
            hi["t"] = pc.cast(t.column("ts"), pa.int64()).to_numpy()
            lo = hi.copy()
            lo["t"] = hi["t"] - window_us
            out = np.searchsorted(self.A, hi, side="right") - np.searchsorted(
                self.A, lo, side="right"
            )
            return pa.table(
                {
                    "event_id": t.column("event_id"),
                    "user_id": t.column("user_id"),
                    "n_orders_30d": pa.array(out.astype(np.int64), pa.int64()),
                }
            )

    ev = read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return ev.map_batches(RangeCount, batch_format="pyarrow", concurrency=(1, 4)).sort("event_id")


def q_range_join_bucketed(
    sf_dir: str, window_us: int = _RANGE_WINDOW_US, num_parts: int = 64
):
    """Same range join semantics as :func:`q_range_join`, built for
    LARGE-LARGE sides: no broadcast, no per-event right scan.

    Bucket width == window width, so every order can only affect events in
    its own time bucket or the next one — replicate each order to exactly
    those 2 buckets (bounded 2× blow-up).  The shuffle key is a COARSE
    ``part = hash(user, bucket) % num_parts`` (a (user, bucket) group never
    splits): grouping by the raw (user, bucket) key would pay a Python/
    pandas call per group with almost-singleton groups, so instead each of
    the ``num_parts`` partitions is answered in ONE vectorized pass — sort
    the partition's orders by the (user, bucket, ts) triple and resolve
    every event with two lexicographic ``np.searchsorted`` calls on a
    structured dtype.  One hash shuffle total, O(log) per event after it.
    """

    def _orders_rep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column("o_orderdate"), pa.int64()).to_numpy()
        keys = t.column("o_custkey").to_numpy()
        b0 = ts // window_us
        u2 = np.concatenate([keys, keys])
        b2 = np.concatenate([b0, b0 + 1])
        return pa.table(
            {
                "user_id": pa.array(u2, pa.int64()),
                "bucket": pa.array(b2, pa.int64()),
                "part": pa.array(
                    ((u2 * 2654435761 + b2) % num_parts).astype(np.int32)
                ),
                "ts_us": pa.array(np.concatenate([ts, ts]), pa.int64()),
                "event_id": pa.nulls(2 * len(ts), pa.int64()),
                "is_order": pa.array(np.ones(2 * len(ts), dtype=np.int8)),
            }
        )

    def _events_tag(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        u = t.column("user_id").to_numpy()
        b = ts // window_us
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "bucket": pa.array(b, pa.int64()),
                "part": pa.array(((u * 2654435761 + b) % num_parts).astype(np.int32)),
                "ts_us": pa.array(ts, pa.int64()),
                "event_id": t.column("event_id"),
                "is_order": pa.array(np.zeros(len(ts), dtype=np.int8)),
            }
        )

    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderdate"]).map_batches(
        _orders_rep, batch_format="pyarrow"
    )
    events = read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts"]).map_batches(
        _events_tag, batch_format="pyarrow"
    )

    _KEY_DT = np.dtype([("u", "i8"), ("b", "i8"), ("t", "i8")])

    def _count_part(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["is_order"] == 0]
        if ev.empty:
            return pd.DataFrame(
                {"event_id": pd.Series([], dtype="int64"),
                 "user_id": pd.Series([], dtype="int64"),
                 "n_orders_30d": pd.Series([], dtype="int64")}
            )
        od = g[g["is_order"] == 1]
        A = np.empty(len(od), dtype=_KEY_DT)
        A["u"] = od["user_id"].to_numpy()
        A["b"] = od["bucket"].to_numpy()
        A["t"] = od["ts_us"].to_numpy()
        A.sort()
        hi = np.empty(len(ev), dtype=_KEY_DT)
        hi["u"] = ev["user_id"].to_numpy()
        hi["b"] = ev["bucket"].to_numpy()
        hi["t"] = ev["ts_us"].to_numpy()
        lo = hi.copy()
        lo["t"] = hi["t"] - window_us
        n = np.searchsorted(A, hi, side="right") - np.searchsorted(A, lo, side="right")
        return pd.DataFrame(
            {
                "event_id": ev["event_id"].to_numpy().astype(np.int64),
                "user_id": ev["user_id"].to_numpy().astype(np.int64),
                "n_orders_30d": n.astype(np.int64),
            }
        )

    return (
        events.union(orders)
        .groupby("part")
        .map_groups(_count_part, batch_format="pandas")
        .sort("event_id")
    )


def q_window_rank(sf_dir: str, k: int = 2):
    """Top-k orders per customer by (totalprice desc, orderkey asc) with a
    rank column — one coarse hash shuffle, then the whole partition is
    ranked with a single sort + C-path groupby cumcount."""
    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "o_orderkey": t.column("o_orderkey"),
                "total_cents": _to_cents(t.column("o_totalprice")),
            }
        )

    def _rank_part(part: pd.DataFrame) -> pd.DataFrame:
        # whole-partition window: ONE sort ranks every customer at once,
        # rank = groupby cumcount (C path), then the top-k filter — no
        # per-group Python dispatch
        part = part.sort_values(
            ["o_custkey", "total_cents", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        part["rank"] = part.groupby("o_custkey", sort=False).cumcount().to_numpy() + 1
        part = part[part["rank"] <= k].reset_index(drop=True)
        part["rank"] = part["rank"].astype(np.int64)
        return part

    from .grouping import partitioned_apply

    return partitioned_apply(
        orders.map_batches(_prep, batch_format="pyarrow"), "o_custkey", _rank_part
    ).sort(["o_custkey", "rank"])


def q_lag_delta(sf_dir: str):
    """LAG window function: per user, each event's value minus the previous
    event's value in time order (ties broken by event_id).  One hash shuffle
    on the partition key, then a vectorized diff per group — the standard
    windowed-analytic shape (PARTITION BY user ORDER BY ts)."""
    ev = read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": pc.cast(t.column("ts"), pa.int64()),
                "value_micro": pc.cast(
                    pc.floor(pc.multiply(t.column("value"), pa.scalar(1e6))), pa.int64()
                ),
            }
        )

    def _delta_part(part: pd.DataFrame) -> pd.DataFrame:
        # whole-partition LAG: one sort over (user, ts, event); the delta is
        # a single shifted subtraction and rows whose predecessor belongs to
        # a different user are dropped (a user's first event has no
        # predecessor -> not emitted, matching the oracle's WHERE delta IS
        # NOT NULL and avoiding nullable-float hashing)
        part = part.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = part["user_id"].to_numpy()
        v = part["value_micro"].to_numpy()
        same_user = np.zeros(len(part), dtype=bool)
        if len(part) > 1:
            same_user[1:] = u[1:] == u[:-1]
        delta = np.empty(len(part), dtype=np.int64)
        if len(part):
            delta[0] = 0
            delta[1:] = v[1:] - v[:-1]
        return pd.DataFrame(
            {
                "event_id": part["event_id"].to_numpy()[same_user],
                "user_id": u[same_user],
                "delta_micro": delta[same_user],
            }
        )

    from .grouping import partitioned_apply

    return partitioned_apply(
        ev.map_batches(_prep, batch_format="pyarrow"), "user_id", _delta_part
    ).sort("event_id")


def q_distinct_users(sf_dir: str):
    """Exact distinct users per event_type: distinct pairs per batch
    (combiner) -> groupby pair -> count per type.  Duplicates collapse
    before the shuffle."""
    ev = read_sf(sf_dir, "events", columns=["event_type", "user_id"])

    def _pairs(t: pa.Table) -> pa.Table:
        # C-path per-batch distinct (Arrow group_by with no aggregates)
        return t.group_by(["event_type", "user_id"]).aggregate([])

    # both levels are C-path aggregates (no per-group Python): Count over
    # (type, user) collapses duplicates, Count over its output counts users
    pairs = (
        ev.map_batches(_pairs, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="_n"))
    )
    return (
        pairs.groupby("event_type")
        .aggregate(Count(alias_name="n_users"))
        .sort("event_type")
    )


def q_quantiles(sf_dir: str):
    """Per returnflag: median and p90 of l_quantity (numpy 'linear'
    interpolation matches DuckDB percentile_cont)."""
    li = read_sf(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])

    def _q(g: pd.DataFrame) -> pd.DataFrame:
        vals = g["l_quantity"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "p50": [float(np.percentile(vals, 50))],
                "p90": [float(np.percentile(vals, 90))],
                "n_rows": [len(vals)],
            }
        )

    return li.groupby("l_returnflag").map_groups(_q, batch_format="pandas").sort("l_returnflag")


def tdigest_quantiles(ds, col: str, qs=(0.5, 0.9, 0.99), delta: int = 256):
    """Approximate quantiles via a mergeable centroid sketch (t-digest
    family).  Per batch (vectorized): sort, cut into <=``delta`` equal-weight
    chunks, emit (mean, count) centroids with ``np.add.reduceat`` — one tiny
    sketch row per batch.  The driver merges all centroid rows (a few KB per
    input block) with one t-digest compression pass (size cap
    ``4*n*q*(1-q)/delta``) and interpolates the quantiles over cumulative
    weights.  Rank error is O(1/delta) — this is the 100 TB path where the
    exact ``q_quantiles`` sort/groupby would shuffle every row.

    Returns {"q": {q: estimate}, "n": total_count, "n_centroids": int}.
    """

    def _sketch(t: pa.Table) -> pa.Table:
        v = np.sort(
            pc.drop_null(t.column(col)).to_numpy(zero_copy_only=False).astype(np.float64)
        )
        n = len(v)
        if n == 0:
            return pa.table(
                {"means": pa.array([], pa.list_(pa.float64())),
                 "counts": pa.array([], pa.list_(pa.int64()))}
            )
        k = min(delta, n)
        cuts = (np.arange(k, dtype=np.int64) * n) // k
        sums = np.add.reduceat(v, cuts)
        counts = np.diff(np.append(cuts, n))
        return pa.table(
            {
                "means": pa.array([(sums / counts).tolist()], pa.list_(pa.float64())),
                "counts": pa.array([counts.tolist()], pa.list_(pa.int64())),
            }
        )

    rows = ds.map_batches(_sketch, batch_format="pyarrow").to_pandas()
    if not len(rows):
        return {"q": {q: None for q in qs}, "n": 0, "n_centroids": 0}
    means = np.concatenate([np.asarray(m, dtype=np.float64) for m in rows["means"]])
    weights = np.concatenate([np.asarray(c, dtype=np.float64) for c in rows["counts"]])
    order = np.argsort(means, kind="mergesort")
    means, weights = means[order], weights[order]
    total = float(weights.sum())
    # single merge/compression pass over the (small) concatenated centroids
    out_m: list[float] = []
    out_w: list[float] = []
    cur_m, cur_w, cum = means[0], weights[0], 0.0
    for m, w in zip(means[1:], weights[1:]):
        q_mid = (cum + cur_w / 2.0) / total
        if cur_w + w <= 4.0 * total * q_mid * (1.0 - q_mid) / delta:
            cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
            cur_w += w
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            cum += cur_w
            cur_m, cur_w = m, w
    out_m.append(cur_m)
    out_w.append(cur_w)
    cm = np.asarray(out_m)
    cw = np.asarray(out_w)
    # centroid midpoints in cumulative-rank space
    mid = np.cumsum(cw) - cw / 2.0
    est = {}
    for q in qs:
        r = q * total
        est[q] = float(np.interp(r, mid, cm))
    return {"q": est, "n": int(total), "n_centroids": len(cm)}


_HLL_P = 12  # 4096 registers
_HLL_HASH_KEY = "unsup-ner-hll-16"  # fixed -> deterministic across processes;
# MUST be exactly 16 bytes: pandas ignores the key for numeric columns but
# the string/object hash path rejects any other length


def _hll_register_updates(values: pd.Series) -> np.ndarray:
    """Fully vectorized register update: ONE keyed C-path hash call over the
    whole column (``pd.util.hash_pandas_object`` with a fixed key — the
    builtin ``hash()`` is process-salted, per the repo's distributed-hash
    rule), then numpy shifts for the register index and ``np.frexp`` for the
    exact bit length of the remaining 52 bits (52 <= float64's 53-bit
    significand, so the exponent is exact), ``np.maximum.at`` for the
    per-register max.  No Python per row."""
    h = pd.util.hash_pandas_object(values, index=False, hash_key=_HLL_HASH_KEY).to_numpy()
    regs = np.zeros(1 << _HLL_P, dtype=np.int8)
    if not len(h):
        return regs
    idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rest = (h & np.uint64((1 << (64 - _HLL_P)) - 1)).astype(np.float64)
    bl = np.frexp(rest)[1]  # exact bit_length; 0 for rest == 0
    rho = ((64 - _HLL_P) - bl + 1).astype(np.int8)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_distinct(ds, col: str):
    """Approximate COUNT DISTINCT via mergeable HLL: one sketch row per
    batch (map_batches), registers max-merged in a tiny driver-side reduce.
    Returns {"estimate": float, "n_sketches": int}."""

    def _sketch(t: pa.Table) -> pa.Table:
        regs = _hll_register_updates(t.column(col).to_pandas())
        return pa.table({"registers": pa.array([regs.tolist()], pa.list_(pa.int8()))})

    sketches = ds.map_batches(_sketch, batch_format="pyarrow").to_pandas()
    merged = np.zeros(1 << _HLL_P, dtype=np.int8)
    for r in sketches["registers"]:
        merged = np.maximum(merged, np.array(r, dtype=np.int8))
    m = float(1 << _HLL_P)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / float(np.sum(np.exp2(-merged.astype(np.float64))))
    zeros = int(np.sum(merged == 0))
    if est <= 2.5 * m and zeros:
        est = m * float(np.log(m / zeros))
    return {"estimate": est, "n_sketches": len(sketches)}


def hll_distinct_by_group(ds, group_col: str, col: str, num_parts: int = 16):
    """Approximate COUNT(DISTINCT col) PER GROUP via mergeable HLL sketches —
    the grouped face of :func:`hll_distinct`, for cardinalities/groups too
    large for an exact distinct shuffle.

    Per batch: ONE keyed vectorized hash over the value column, then every
    group's registers update in a single ``np.maximum.at`` over a composite
    (group, register) index — no Python per row or per group.  One sketch
    row (2^p bytes) per group per batch leaves each block; sketches merge
    per group with a register max (associative + idempotent) under one
    coarse hash shuffle.  Output: (group, estimate float64).
    """
    from .grouping import partitioned_map_groups

    m = 1 << _HLL_P

    def _sketch(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pandas()
        groups = t.column(group_col).to_pandas()
        if not len(vals):
            return pa.table(
                {
                    "group": pa.array([], pa.string()),
                    "registers": pa.array([], pa.list_(pa.int8())),
                }
            )
        h = pd.util.hash_pandas_object(
            vals, index=False, hash_key=_HLL_HASH_KEY
        ).to_numpy()
        idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
        rest = (h & np.uint64((1 << (64 - _HLL_P)) - 1)).astype(np.float64)
        bl = np.frexp(rest)[1]
        rho = ((64 - _HLL_P) - bl + 1).astype(np.int8)
        codes, uniques = pd.factorize(groups)
        regs = np.zeros(len(uniques) * m, dtype=np.int8)
        np.maximum.at(regs, codes * m + idx, rho)
        regs2d = regs.reshape(len(uniques), m)
        return pa.table(
            {
                "group": pa.array([str(u) for u in uniques], pa.string()),
                "registers": pa.array([r.tolist() for r in regs2d], pa.list_(pa.int8())),
            }
        )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        merged = np.maximum.reduce(
            np.stack([np.asarray(r, dtype=np.int8) for r in g["registers"]])
        )
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / float(np.sum(np.exp2(-merged.astype(np.float64))))
        zeros = int(np.sum(merged == 0))
        if est <= 2.5 * m and zeros:
            est = m * float(np.log(m / zeros))
        return pd.DataFrame({"group": [g["group"].iloc[0]], "estimate": [est]})

    sketches = ds.map_batches(_sketch, batch_format="pyarrow")
    return partitioned_map_groups(sketches, "group", _merge, num_parts=num_parts).sort(
        "group"
    )


def q_quantiles_disc(sf_dir: str, qs=(0.25, 0.5, 0.9)):
    """Exact PERCENTILE_DISC per group WITHOUT a full sort shuffle: quantity
    has a bounded integer domain, so each batch combines to (flag, value,
    count) partials, one C-path groupby sums them, and the discrete quantile
    falls out of the tiny per-group cumulative histogram (idx = ceil(q*n)-1,
    the SQL PERCENTILE_DISC / DuckDB quantile_disc index).  At 100 TB the
    shuffled payload is |groups| x |value domain| rows — independent of row
    count.  Output per flag: n_rows + one column per requested quantile."""
    import math

    from ray.data.aggregate import Sum as _Sum

    li = read_sf(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])

    def _combine(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "l_returnflag": t.column("l_returnflag").to_pandas(),
                "v": t.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        g = df.groupby(["l_returnflag", "v"], sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = (
        li.map_batches(_combine, batch_format="pyarrow")
        .groupby(["l_returnflag", "v"])
        .aggregate(_Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values(["l_returnflag", "v"], kind="mergesort")
    )
    rows = []
    for flag, g in hist.groupby("l_returnflag", sort=True):
        counts = g["n"].to_numpy()
        vals = g["v"].to_numpy()
        cum = np.cumsum(counts)
        n = int(cum[-1])
        row = {"l_returnflag": flag, "n_rows": n}
        for q in qs:
            idx = math.ceil(q * n) - 1
            row[f"p{int(q*100)}"] = int(vals[np.searchsorted(cum, idx + 1)])
        rows.append(row)
    out = pd.DataFrame(rows)
    for c in out.columns:
        if c != "l_returnflag":
            out[c] = out[c].astype(np.int64)
    return out.reset_index(drop=True)


def q_asof_next_order(sf_dir: str):
    """FORWARD as-of: for each event, the EARLIEST o_orderdate of the same
    user at or after the event ts — the mirror of
    :func:`q_asof_last_order` (backward), completing the as-of direction
    pair (SQL: ``ASOF LEFT JOIN ... ON e.ts <= o.o_orderdate``).  Same
    broadcast shape: one lexicographic ``np.searchsorted(side='left')``
    answers the whole batch, taking the successor only when it belongs to
    the same user."""
    ref = _broadcast_sorted_orders(sf_dir)

    class AsOfFwd:
        def __init__(self):
            self.A = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            q = np.empty(len(t), dtype=_UT_DT)
            q["u"] = t.column("user_id").to_numpy()
            q["t"] = pc.cast(t.column("ts"), pa.int64()).to_numpy()
            idx = np.searchsorted(self.A, q, side="left")
            has_next = idx < len(self.A)
            nxt = np.minimum(idx, len(self.A) - 1)
            same_user = has_next & (self.A["u"][nxt] == q["u"])
            # -1 sentinel instead of null: events with no later order exist
            # at every scale here, and nullable int -> NaN float breaks
            # NaN != NaN value comparison (oracle COALESCEs identically)
            first = np.where(same_user, self.A["t"][nxt], np.int64(-1))
            return pa.table(
                {
                    "event_id": t.column("event_id"),
                    "user_id": t.column("user_id"),
                    "next_order_us": pa.array(first, pa.int64()),
                }
            )

    ev = read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return ev.map_batches(
        AsOfFwd, batch_format="pyarrow", concurrency=(1, 4)
    ).sort("event_id")


def q_quantiles_by_nation(sf_dir: str, qs=(0.25, 0.5, 0.75), num_parts: int = 8):
    """Exact PERCENTILE_DISC of customer balance (in cents) per NATION,
    fully distributed: the many-group face of :func:`q_quantiles_disc`
    (whose 3-group finalize runs on the driver).  Per-batch (nation, cents)
    partial counts -> one C-path Sum groupby -> ``partitioned_apply`` on
    the nation key, where each partition resolves all its nations from the
    tiny cumulative histograms (idx = ceil(q*n)-1).  Shuffled payload is
    |groups| x |value domain| partials — row-count independent."""
    import math

    from ray.data.aggregate import Sum as _Sum

    from .grouping import partitioned_apply

    cust = read_sf(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])

    def _combine(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.multiply(t.column("c_acctbal"), pa.scalar(100.0))),
            pa.int64(),
        )
        df = (
            pd.DataFrame(
                {
                    "c_nationkey": t.column("c_nationkey").to_numpy(),
                    "v": cents.to_numpy(zero_copy_only=False),
                }
            )
            .groupby(["c_nationkey", "v"], sort=False)
            .size()
            .reset_index(name="n")
        )
        df["n"] = df["n"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    hist = (
        cust.map_batches(_combine, batch_format="pyarrow")
        .groupby(["c_nationkey", "v"])
        .aggregate(_Sum("n", alias_name="n"))
    )

    def _resolve(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for nat, g in part.sort_values(["c_nationkey", "v"]).groupby(
            "c_nationkey", sort=False
        ):
            cum = np.cumsum(g["n"].to_numpy())
            vals = g["v"].to_numpy()
            n = int(cum[-1])
            row = {"c_nationkey": np.int32(nat), "n_rows": np.int64(n)}
            for q in qs:
                idx = math.ceil(q * n) - 1
                row[f"p{int(q*100)}_cents"] = np.int64(
                    vals[np.searchsorted(cum, idx + 1)]
                )
            rows.append(row)
        if not rows:
            return pd.DataFrame(
                {
                    "c_nationkey": pd.Series([], dtype=np.int32),
                    "n_rows": pd.Series([], dtype=np.int64),
                    **{
                        f"p{int(q*100)}_cents": pd.Series([], dtype=np.int64)
                        for q in qs
                    },
                }
            )
        return pd.DataFrame(rows)

    return partitioned_apply(hist, "c_nationkey", _resolve, num_parts=num_parts).sort(
        "c_nationkey"
    )


def _tdigest_finalize(means: np.ndarray, weights: np.ndarray, qs, delta: int):
    """Merge + compress concatenated centroids and interpolate quantiles —
    shared finalize for the global and per-group t-digest forms."""
    order = np.argsort(means, kind="mergesort")
    means, weights = means[order], weights[order]
    total = float(weights.sum())
    out_m: list[float] = []
    out_w: list[float] = []
    cur_m, cur_w, cum = means[0], weights[0], 0.0
    for m, w in zip(means[1:], weights[1:]):
        q_mid = (cum + cur_w / 2.0) / total
        if cur_w + w <= 4.0 * total * q_mid * (1.0 - q_mid) / delta:
            cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
            cur_w += w
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            cum += cur_w
            cur_m, cur_w = m, w
    out_m.append(cur_m)
    out_w.append(cur_w)
    cm, cw = np.asarray(out_m), np.asarray(out_w)
    mid = np.cumsum(cw) - cw / 2.0
    return {q: float(np.interp(q * total, mid, cm)) for q in qs}, int(total)


def tdigest_quantiles_by_group(
    ds, group_col: str, col: str, qs=(0.5, 0.9), delta: int = 128,
    num_parts: int = 16,
):
    """Approximate quantiles PER GROUP via mergeable centroid sketches —
    the grouped face of :func:`tdigest_quantiles`, for group counts /
    cardinalities where the exact per-group sort would shuffle every row.

    Per batch: each group present in the batch reduces to <= ``delta``
    equal-weight centroids (sort + ``np.add.reduceat``) — a per-GROUP
    combiner loop bounded by groups-per-batch, not rows.  One coarse hash
    shuffle moves only (group, means, counts) sketch rows;
    ``partitioned_map_groups`` merges each group's centroids with the
    shared compression pass and interpolates.  Output: (group,
    p<q> columns, n) — approximate by construction (rows-only check)."""
    from .grouping import partitioned_map_groups

    def _sketch(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": t.column(group_col).to_pandas(),
                "v": t.column(col).to_numpy(zero_copy_only=False).astype(
                    np.float64
                ),
            }
        ).dropna()
        gs, means, counts = [], [], []
        for g, grp in df.groupby("g", sort=False):
            v = np.sort(grp["v"].to_numpy())
            n = len(v)
            k = min(delta, n)
            cuts = (np.arange(k, dtype=np.int64) * n) // k
            sums = np.add.reduceat(v, cuts)
            cnts = np.diff(np.append(cuts, n))
            gs.append(g)
            means.append((sums / cnts).tolist())
            counts.append(cnts.tolist())
        return pa.table(
            {
                "group": pa.array(gs),
                "means": pa.array(means, pa.list_(pa.float64())),
                "counts": pa.array(counts, pa.list_(pa.int64())),
            }
        )

    sketches = ds.map_batches(_sketch, batch_format="pyarrow")

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        means = np.concatenate(
            [np.asarray(m, dtype=np.float64) for m in df["means"]]
        )
        weights = np.concatenate(
            [np.asarray(c, dtype=np.float64) for c in df["counts"]]
        )
        est, n = _tdigest_finalize(means, weights, qs, delta)
        row = {"group": df["group"].iloc[0], "n": np.int64(n)}
        for q in qs:
            row[f"p{int(q * 100)}"] = est[q]
        return pd.DataFrame([row])

    return partitioned_map_groups(
        sketches, "group", _merge, num_parts=num_parts
    ).sort("group")


def q_equidepth_bins(sf_dir: str, qs=(0.25, 0.5, 0.75)):
    """Quantile discretization (equi-depth binning) of lineitem price — the
    feature-bucketing step tabular ML prep pipelines run before hashing /
    embedding.  Two streaming passes: pass 1 reduces the corpus to a
    (value, count) domain histogram exactly like :func:`q_quantiles_disc`
    (shuffled payload = |value domain|, independent of row count) and takes
    the PERCENTILE_DISC boundaries from the cumulative counts; pass 2
    broadcasts the (len(qs))-element boundary array and assigns each row its
    bin with one ``searchsorted`` — bin = #{boundary : value > boundary},
    identical tie semantics to the SQL twin's ``(v > b1)+(v > b2)+...``.
    All integer cents, so hash-exact.  Output: one row per lineitem
    (l_orderkey, l_linenumber, bin)."""
    import math

    from ray.data.aggregate import Sum as _Sum

    li = read_sf(
        sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_extendedprice"]
    )

    def _hist(t: pa.Table) -> pa.Table:
        cents = _to_cents(t.column("l_extendedprice")).to_numpy(zero_copy_only=False)
        v, n = np.unique(cents, return_counts=True)
        return pa.table({"v": pa.array(v, pa.int64()), "n": pa.array(n, pa.int64())})

    hist = (
        li.map_batches(_hist, batch_format="pyarrow")
        .groupby("v")
        .aggregate(_Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("v", kind="mergesort")
    )
    cum = np.cumsum(hist["n"].to_numpy(np.int64))
    vals = hist["v"].to_numpy(np.int64)
    n = int(cum[-1])
    bounds = np.array(
        [vals[np.searchsorted(cum, math.ceil(q * n))] for q in qs], dtype=np.int64
    )
    ref = ray.put(bounds)

    class _Assign:
        def __init__(self):
            self.bounds = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            cents = _to_cents(t.column("l_extendedprice")).to_numpy(zero_copy_only=False)
            bins = np.searchsorted(self.bounds, cents, side="left")
            return pa.table(
                {
                    "l_orderkey": pc.cast(t.column("l_orderkey"), pa.int64()),
                    "l_linenumber": pc.cast(t.column("l_linenumber"), pa.int64()),
                    "bin": pa.array(bins.astype(np.int64), pa.int64()),
                }
            )

    return li.map_batches(_Assign, batch_format="pyarrow", concurrency=(1, 4)).sort(
        ["l_orderkey", "l_linenumber"]
    )


def q_mad_value(sf_dir: str):
    """Per-event-type robust statistics: median and MAD (median absolute
    deviation) of the value column — the outlier-resistant companion of
    :func:`q_group_stats`'s mean/stddev, standard in data-quality screens.

    ONE streaming pass reduces the corpus to a (event_type, cents, count)
    value-domain histogram (payload = |types| x |value domain|, independent
    of row count).  Both medians then fall out of the tiny histogram on the
    driver: the deviation histogram |v - median| is REGROUPED from the value
    histogram itself — no second corpus scan, the classic advantage of
    holding the domain distribution rather than per-row samples.  Integer
    cents end-to-end; the discrete-quantile index (ceil(q*n)-1) matches
    DuckDB's quantile_disc exactly (same contract as q_quantiles_disc)."""
    import math

    from ray.data.aggregate import Sum as _Sum

    ev = read_sf(sf_dir, "events", columns=["event_type", "value"])

    def _hist(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": t.column("event_type").to_pandas(),
                "v": np.floor(
                    t.column("value").to_numpy(zero_copy_only=False) * 100.0
                ).astype(np.int64),
            }
        )
        g = df.groupby(["event_type", "v"], sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = (
        ev.map_batches(_hist, batch_format="pyarrow")
        .groupby(["event_type", "v"])
        .aggregate(_Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values(["event_type", "v"], kind="mergesort")
    )

    def _disc_median(vals: np.ndarray, counts: np.ndarray) -> int:
        cum = np.cumsum(counts)
        idx = math.ceil(0.5 * int(cum[-1])) - 1
        return int(vals[np.searchsorted(cum, idx + 1)])

    rows = []
    for etype, g in hist.groupby("event_type", sort=True):
        vals = g["v"].to_numpy(np.int64)
        counts = g["n"].to_numpy(np.int64)
        med = _disc_median(vals, counts)
        dev = pd.DataFrame({"d": np.abs(vals - med), "n": counts})
        dg = dev.groupby("d", sort=True)["n"].sum().reset_index()
        mad = _disc_median(dg["d"].to_numpy(np.int64), dg["n"].to_numpy(np.int64))
        rows.append({"event_type": etype, "median_cents": med, "mad_cents": mad})
    out = pd.DataFrame(rows)
    out["median_cents"] = out["median_cents"].astype(np.int64)
    out["mad_cents"] = out["mad_cents"].astype(np.int64)
    return out.reset_index(drop=True)


def skew_join(
    probe,
    build,
    probe_key: str,
    build_key: str,
    sample_mod: int = 64,
    hot_frac: float = 0.01,
    num_partitions: int = 16,
):
    """Skew-aware hybrid equi-join: hash-shuffle joins die on hot keys (one
    partition receives a key's entire row mass), so the probe side's hot
    keys are detected up front and routed around the shuffle.

    1. HOT-KEY DETECTION — one streaming pass over a deterministic
       1/``sample_mod`` systematic ROW sample of probe keys (every
       ``sample_mod``-th row per batch; payload bounded by sampled distinct
       keys, no full-key histogram).  Row-level sampling is essential: a
       key-hash sample would keep or drop each KEY wholesale, missing a hot
       key (mod-1)/mod of the time — row sampling sees every key at a rate
       proportional to its frequency, so the Zipf head is exactly what it
       detects reliably.  Keys whose sampled share exceeds ``hot_frac`` are
       declared hot; misclassified tail keys only cost a slightly bigger
       broadcast.
    2. HOT PATH — build rows for hot keys (tiny: |hot| rows) broadcast via
       ``ray.put``; hot probe rows join by vectorized searchsorted lookup
       inside ``map_batches`` — the hot mass never shuffles at all.
    3. COLD PATH — everything else takes the ordinary hash-partitioned
       ``Dataset.join``; with the head removed, partitions are balanced.

    Inner-join semantics, result = union of both paths.  Columns: probe
    columns + build columns (minus ``build_key``).
    """
    from ray.data.aggregate import Sum as _Sum

    def _sampled_counts(t: pa.Table) -> pa.Table:
        keys = pc.cast(t.column(probe_key), pa.int64()).to_numpy()
        sampled = keys[::sample_mod]
        if sampled.size == 0:
            return pa.table({"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
        v, n = np.unique(sampled, return_counts=True)
        return pa.table({"k": pa.array(v, pa.int64()), "n": pa.array(n.astype(np.int64))})

    sampled = (
        # key-only projection: Ray pushes select_columns into the read, so
        # the detection pass never deserializes probe payload columns
        probe.select_columns([probe_key])
        .map_batches(_sampled_counts, batch_format="pyarrow")
        .groupby("k")
        .aggregate(_Sum("n", alias_name="n"))
        .to_pandas()
    )
    total = float(sampled["n"].sum())
    hot_keys = (
        np.sort(sampled.loc[sampled["n"] >= max(1.0, hot_frac * total), "k"].to_numpy(np.int64))
        if total > 0
        else np.array([], dtype=np.int64)
    )

    build_cols = [c for c in build.schema().names if c != build_key]

    def _plain_join():
        return hash_join(
            probe,
            build,
            join_type="inner",
            num_partitions=num_partitions,
            on=(probe_key,),
            right_on=(build_key,),
        )

    if hot_keys.size == 0:
        # no head detected — the hybrid degenerates to the plain hash join
        return _plain_join()

    def _build_hot(t: pa.Table) -> pa.Table:
        k = pc.cast(t.column(build_key), pa.int64()).to_numpy()
        sel = np.isin(k, hot_keys)
        out = {build_key: pa.array(k[sel], pa.int64())}
        for c in build_cols:
            out[c] = t.column(c).filter(pa.array(sel))
        return pa.table(out)

    hot_build = build.map_batches(_build_hot, batch_format="pyarrow").to_pandas()
    if hot_build.empty:
        # hot probe keys have NO build rows at all — inner-join semantics
        # already drop them in the plain join, so route everything cold
        # (a fully-empty hot side would also lose its schema via to_pandas)
        return _plain_join()
    hot_build = hot_build.sort_values(build_key, kind="mergesort")
    hb_keys = hot_build[build_key].to_numpy(np.int64)
    hb_ref = ray.put((hb_keys, {c: hot_build[c].to_numpy() for c in build_cols}))
    hot_ref = ray.put(hot_keys)

    class _HotJoin:
        def __init__(self):
            self.keys, self.vals = ray.get(hb_ref)
            # keys arrive sorted; uniqueness decided once per actor picks the
            # single-lookup fast path (2x the span-expansion kernel when each
            # hot key has exactly one build row — the common dimension-table
            # case, measured 43 vs 93 ms per 1M-row batch)
            self.unique = bool(np.all(self.keys[1:] != self.keys[:-1]))

        def __call__(self, t: pa.Table) -> pa.Table:
            # hot_build is guaranteed non-empty here (empty routes cold above).
            k = pc.cast(t.column(probe_key), pa.int64()).to_numpy()
            if self.unique:
                idx = np.searchsorted(self.keys, k)
                idx_c = np.minimum(idx, len(self.keys) - 1)
                ok = self.keys[idx_c] == k
                out = {c: t.column(c).filter(pa.array(ok)) for c in t.schema.names}
                for c, arr in self.vals.items():
                    out[c] = pa.array(arr[idx_c[ok]])
                return pa.table(out)
            # Build keys DUPLICATED (the generic inner join must emit one row
            # per matching build row): each probe row expands to its full
            # [lo, hi) span in the sorted build-key array.
            lo = np.searchsorted(self.keys, k, side="left")
            hi = np.searchsorted(self.keys, k, side="right")
            cnt = hi - lo  # 0 -> probe row has no build match (dropped)
            probe_idx = np.repeat(np.arange(len(k)), cnt)
            # per-expanded-row offset within its span: global position minus
            # the span start, shifted by the span's base index in build
            span_starts = np.cumsum(cnt) - cnt
            build_idx = (
                np.arange(int(cnt.sum())) - np.repeat(span_starts, cnt)
                + np.repeat(lo, cnt)
            )
            taken = t.take(pa.array(probe_idx, pa.int64()))
            out = {c: taken.column(c) for c in t.schema.names}
            for c, arr in self.vals.items():
                out[c] = pa.array(arr[build_idx])
            return pa.table(out)

    import functools

    hot_out = probe.map_batches(
        functools.partial(_split_filter, hot_ref, True, probe_key),
        batch_format="pyarrow",
    ).map_batches(_HotJoin, batch_format="pyarrow", concurrency=(1, 4))
    cold_probe = probe.map_batches(
        functools.partial(_split_filter, hot_ref, False, probe_key),
        batch_format="pyarrow",
    )

    def _build_cold(t: pa.Table) -> pa.Table:
        k = pc.cast(t.column(build_key), pa.int64()).to_numpy()
        sel = ~np.isin(k, hot_keys)
        return t.filter(pa.array(sel))

    cold_out = hash_join(
        cold_probe,
        build.map_batches(_build_cold, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=num_partitions,
        on=(probe_key,),
        right_on=(build_key,),
    )
    # Dataset.join drops the right-side key; the hot path keeps only probe
    # columns + build payload, so both sides line up
    return hot_out.union(cold_out)


def _split_filter(hot_ref, want_hot: bool, key: str, t: pa.Table) -> pa.Table:
    hot = ray.get(hot_ref)
    k = pc.cast(t.column(key), pa.int64()).to_numpy()
    m = np.isin(k, hot)
    return t.filter(pa.array(m if want_hot else ~m))


def q_skew_join_events(sf_dir: str):
    """Events joined to customer nation through the skew-aware hybrid join
    (user_id = c_custkey) — same result as a plain hash join, pinned by the
    SQL twin; the hybrid routing is what changes at scale."""
    probe = read_sf(sf_dir, "events", columns=["event_id", "user_id"])
    build = read_sf(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def _nk(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(t.column("c_custkey"), pa.int64()),
                "c_nationkey": pc.cast(t.column("c_nationkey"), pa.int64()),
            }
        )

    out = skew_join(
        probe, build.map_batches(_nk, batch_format="pyarrow"),
        probe_key="user_id", build_key="c_custkey",
    )

    def _fix(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": pc.cast(t.column("event_id"), pa.int64()),
                "user_id": pc.cast(t.column("user_id"), pa.int64()),
                "c_nationkey": pc.cast(t.column("c_nationkey"), pa.int64()),
            }
        )

    return out.map_batches(_fix, batch_format="pyarrow").sort("event_id")


_KMV_HASH_KEY = "kmv-sketch-hash-key-0000000000ab"


def kmv_sketch(ds, col: str, k: int = 1024):
    """KMV / bottom-k theta sketch (Beyer et al. 2007; the Apache
    DataSketches theta-sketch core) over a column's DISTINCT values — the
    set-operation member of the sketch family (HLL estimates one
    cardinality; KMV sketches COMPOSE: union/intersection estimates come
    from combining the retained samples).

    Per batch: ONE keyed vectorized hash, local distinct, keep the k
    smallest (np.partition).  Sketch rows merge by keeping the k smallest
    of the union — associative + idempotent, so the driver reduce here
    becomes a map_batches merge tree at 100 TB (the hll_distinct shape).
    Returns the sorted uint64 sample (len <= k) as an ndarray.

    Estimate: with the k-th smallest hash at theta = h_k / 2^64, the
    distinct count is (k - 1) / theta (unbiased); below k distinct values
    the sketch is EXACT (len(sample)).
    """

    def _sketch(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pandas()
        h = np.unique(
            pd.util.hash_pandas_object(
                vals, index=False, hash_key=_KMV_HASH_KEY
            ).to_numpy()
        )
        if len(h) > k:
            h = np.partition(h, k - 1)[:k]
        return pa.table(
            {"sample": pa.array([np.sort(h).tolist()], pa.list_(pa.uint64()))}
        )

    rows = ds.map_batches(_sketch, batch_format="pyarrow").to_pandas()
    merged = np.unique(
        np.concatenate([np.asarray(s, dtype=np.uint64) for s in rows["sample"]])
    )
    if len(merged) > k:
        merged = np.sort(np.partition(merged, k - 1)[:k])
    return merged


def kmv_estimate(sample: np.ndarray, k: int = 1024) -> float:
    """Distinct-count estimate from a KMV sample (exact below k)."""
    if len(sample) < k:
        return float(len(sample))
    theta = float(sample[k - 1]) / float(1 << 64)
    return (k - 1) / theta


def kmv_set_estimates(a, b, col: str, k: int = 1024):
    """Distinct |A|, |B|, |A∩B|, |A∪B| estimates from two KMV sketches —
    the theta-sketch intersection rule: cut both samples at the SMALLER
    theta, count shared hashes in the cut, scale by 1/theta.  One
    streaming pass per side, sketch-sized driver state.

    Returns a one-row DataFrame (n_a, n_b, n_intersect, n_union floats).
    """
    sa, sb = kmv_sketch(a, col, k), kmv_sketch(b, col, k)
    ea, eb = kmv_estimate(sa, k), kmv_estimate(sb, k)
    if len(sa) < k and len(sb) < k:
        # both exact: set ops are exact too
        inter = float(len(np.intersect1d(sa, sb)))
        union = float(len(np.union1d(sa, sb)))
    else:
        theta_a = float(sa[k - 1]) / float(1 << 64) if len(sa) >= k else 1.0
        theta_b = float(sb[k - 1]) / float(1 << 64) if len(sb) >= k else 1.0
        theta = min(theta_a, theta_b)
        cut = np.uint64(int(theta * (1 << 64)))
        ca, cb = sa[sa <= cut], sb[sb <= cut]
        inter = len(np.intersect1d(ca, cb)) / theta
        union = ea + eb - inter
    return pd.DataFrame(
        {
            "n_a": [ea],
            "n_b": [eb],
            "n_intersect": [inter],
            "n_union": [union],
        }
    )
