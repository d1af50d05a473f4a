"""Relational / windowed operators over the TPC-H-ish testdata tables.

These exercise the engine's general query surface (scan+filter+project,
partial-aggregate groupbys, broadcast joins, anti-join, top-k, union/distinct,
tumbling windows, sessionization) with DuckDB-oracle-exact results.

Float determinism contract with the oracles: money/value sums are computed in
the integer domain (``floor(x * scale)`` summed as int64) on BOTH sides, so
summation order cannot perturb the hash; quantities in this dataset are
integral doubles (exact under summation) and are summed directly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Sum

from ..sources.io import read_sf

CENTS = 100
MICRO = 1_000_000


def _to_cents(col: pa.ChunkedArray | pa.Array, scale: int = CENTS) -> pa.Array:
    return pc.cast(pc.floor(pc.multiply(col, pa.scalar(float(scale)))), pa.int64())


def q1_lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped aggregate: pruned read -> per-batch cents conversion ->
    groupby(returnflag, linestatus)."""
    ds = read_sf(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        price_c = _to_cents(t.column("l_extendedprice"))
        disc_micro = _to_cents(t.column("l_discount"), MICRO)
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "qty": pc.cast(t.column("l_quantity"), pa.int64()),
                "price_cents": price_c,
                "disc_micro": disc_micro,
            }
        )

    out = (
        ds.map_batches(_prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty", alias_name="sum_qty"),
            Sum("price_cents", alias_name="sum_price_cents"),
            Sum("disc_micro", alias_name="sum_disc_micro"),
            Count(alias_name="n_rows"),
        )
    )
    return out.sort(["l_returnflag", "l_linestatus"])


def q_filter_project(sf_dir: str, cutoff: str = "1998-01-01"):
    """Filtered scan with row-group pushdown + small aggregate."""
    import pyarrow.dataset as pds

    ds = read_sf(
        sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_shipdate"]
    )
    cutoff_ts = pa.scalar(np.datetime64(cutoff + "T00:00:00", "us"))

    def _f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t.column("l_shipdate"), cutoff_ts))
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "qty": pc.cast(t.column("l_quantity"), pa.int64()),
            }
        )

    return (
        ds.map_batches(_f, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("qty", alias_name="sum_qty"), Count(alias_name="n_rows"))
        .sort("l_returnflag")
    )


def _broadcast_cust_nation(sf_dir: str):
    """ray.put a vectorized custkey -> nation-name lookup: a dense int32
    index array (TPC-H custkeys are 1..N) plus the 25-name Arrow array —
    per-batch resolution is one numpy fancy-index + one ``pc.take``, no
    Python per row."""
    cust = read_sf(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = read_sf(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    nation = nation.sort_values("n_nationkey")
    assert (nation["n_nationkey"].to_numpy() == np.arange(len(nation))).all()
    ckeys = cust["c_custkey"].to_numpy()
    c2n_idx = np.full(int(ckeys.max()) + 1, -1, dtype=np.int32)
    c2n_idx[ckeys] = cust["c_nationkey"].to_numpy().astype(np.int32)
    names = pa.array(nation["n_name"].tolist(), pa.string())
    return ray.put((c2n_idx, names))


def q_revenue_by_nation(sf_dir: str):
    """orders |x| customer |x| nation via BROADCAST join (both dim tables are
    ray.put once; orders stream through map_batches), then a partial-agg
    groupby on nation name."""
    lookup_ref = _broadcast_cust_nation(sf_dir)

    class Joiner:
        def __init__(self):
            self.c2n_idx, self.names = ray.get(lookup_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = t.column("o_custkey").to_numpy()
            return pa.table(
                {
                    "n_name": pc.take(self.names, pa.array(self.c2n_idx[keys])),
                    "price_cents": _to_cents(t.column("o_totalprice")),
                }
            )

    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    return (
        orders.map_batches(Joiner, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("n_name")
        .aggregate(Sum("price_cents", alias_name="revenue_cents"), Count(alias_name="n_orders"))
        .sort("n_name")
    )


def q_rollup_revenue(sf_dir: str):
    """ROLLUP(n_name, o_orderpriority) over order revenue: ONE shuffle at the
    finest grain (nation × priority — a few hundred groups), then the
    subtotal and grand-total levels are rolled up locally from that tiny
    aggregate on the driver.  At 100 TB the shuffled payload is still only
    the finest-grain partials (combiner groupby), never the fact rows."""
    lookup_ref = _broadcast_cust_nation(sf_dir)

    class Joiner:
        def __init__(self):
            self.c2n_idx, self.names = ray.get(lookup_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = t.column("o_custkey").to_numpy()
            return pa.table(
                {
                    "n_name": pc.take(self.names, pa.array(self.c2n_idx[keys])),
                    "o_orderpriority": t.column("o_orderpriority"),
                    "price_cents": _to_cents(t.column("o_totalprice")),
                }
            )

    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderpriority", "o_totalprice"])
    fine = (
        orders.map_batches(Joiner, batch_format="pyarrow", concurrency=(1, 4))
        .groupby(["n_name", "o_orderpriority"])
        .aggregate(Sum("price_cents", alias_name="revenue_cents"), Count(alias_name="n_orders"))
        .to_pandas()
    )
    lvl1 = (
        fine.groupby("n_name", as_index=False)[["revenue_cents", "n_orders"]]
        .sum()
        .assign(o_orderpriority=None)
    )
    lvl0 = pd.DataFrame(
        {
            "n_name": [None],
            "o_orderpriority": [None],
            "revenue_cents": [fine["revenue_cents"].sum()],
            "n_orders": [fine["n_orders"].sum()],
        }
    )
    out = pd.concat([fine, lvl1, lvl0], ignore_index=True)[
        ["n_name", "o_orderpriority", "revenue_cents", "n_orders"]
    ]
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values(
        ["n_name", "o_orderpriority"], na_position="last", kind="mergesort"
    ).reset_index(drop=True)


def q_cube_revenue(sf_dir: str):
    """CUBE(n_name, o_orderpriority) over order revenue — all four grouping
    sets.  Same shuffle discipline as ROLLUP (`q_rollup_revenue`): ONE
    combiner groupby at the finest grain moves only pre-aggregated partials;
    the three coarser sets (by nation, by priority, grand total) are derived
    locally from that tiny aggregate, so the fact rows shuffle exactly once
    regardless of how many grouping sets the cube has."""
    lookup_ref = _broadcast_cust_nation(sf_dir)

    class Joiner:
        def __init__(self):
            self.c2n_idx, self.names = ray.get(lookup_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = t.column("o_custkey").to_numpy()
            return pa.table(
                {
                    "n_name": pc.take(self.names, pa.array(self.c2n_idx[keys])),
                    "o_orderpriority": t.column("o_orderpriority"),
                    "price_cents": _to_cents(t.column("o_totalprice")),
                }
            )

    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderpriority", "o_totalprice"])
    fine = (
        orders.map_batches(Joiner, batch_format="pyarrow", concurrency=(1, 4))
        .groupby(["n_name", "o_orderpriority"])
        .aggregate(Sum("price_cents", alias_name="revenue_cents"), Count(alias_name="n_orders"))
        .to_pandas()
    )
    by_nation = (
        fine.groupby("n_name", as_index=False)[["revenue_cents", "n_orders"]]
        .sum()
        .assign(o_orderpriority=None)
    )
    by_prio = (
        fine.groupby("o_orderpriority", as_index=False)[["revenue_cents", "n_orders"]]
        .sum()
        .assign(n_name=None)
    )
    grand = pd.DataFrame(
        {
            "n_name": [None],
            "o_orderpriority": [None],
            "revenue_cents": [fine["revenue_cents"].sum()],
            "n_orders": [fine["n_orders"].sum()],
        }
    )
    out = pd.concat([fine, by_nation, by_prio, grand], ignore_index=True)[
        ["n_name", "o_orderpriority", "revenue_cents", "n_orders"]
    ]
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values(
        ["n_name", "o_orderpriority"], na_position="last", kind="mergesort"
    ).reset_index(drop=True)


def q_pivot_status(sf_dir: str):
    """PIVOT (wide reshape): order counts by priority × status.  One C-path
    groupby over both keys (a few dozen cells), then the reshape is a local
    pivot of that tiny aggregate — the fact rows never move twice."""
    orders = read_sf(sf_dir, "orders", columns=["o_orderpriority", "o_orderstatus"])
    cells = (
        orders.groupby(["o_orderpriority", "o_orderstatus"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    statuses = ["F", "O", "P"]
    wide = (
        cells.pivot_table(
            index="o_orderpriority", columns="o_orderstatus", values="n", fill_value=0
        )
        .reindex(columns=statuses, fill_value=0)
        .reset_index()
    )
    wide.columns.name = None
    for s in statuses:
        if s not in wide.columns:
            wide[s] = 0
        wide[s] = wide[s].astype("int64")
    return wide[["o_orderpriority", *statuses]].sort_values(
        "o_orderpriority"
    ).reset_index(drop=True)


def q_topk_customers(sf_dir: str, k: int = 10):
    """Top-k customers by total order value: groupby-sum then global sort +
    limit (ties broken by custkey for a deterministic boundary)."""
    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "price_cents": _to_cents(t.column("o_totalprice")),
            }
        )

    agg = (
        orders.map_batches(_prep, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("price_cents", alias_name="total_cents"))
    )
    return agg.sort(["total_cents", "o_custkey"], descending=[True, False]).limit(k)


def q_anti_join_customers(sf_dir: str, since: str = "2000-01-01"):
    """Customers with no orders since ``since``: broadcast the qualifying
    order custkey set, filter inside map_batches (semi/anti joins never
    shuffle the big side)."""
    odf = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderdate"]).to_pandas()
    keys = set(odf.loc[odf["o_orderdate"] >= np.datetime64(since), "o_custkey"])
    keys_ref = ray.put(keys)

    class AntiFilter:
        def __init__(self):
            self.keys = pa.array(sorted(ray.get(keys_ref)))

        def __call__(self, t: pa.Table) -> pa.Table:
            return t.filter(
                pc.invert(pc.is_in(t.column("c_custkey"), value_set=self.keys))
            )

    cust = read_sf(sf_dir, "customer", columns=["c_custkey", "c_name"])
    return cust.map_batches(AntiFilter, batch_format="pyarrow", concurrency=(1, 2)).sort("c_custkey")


def q_semi_join_customers(sf_dir: str, status: str = "P"):
    """SEMI join: customers that HAVE at least one order with the given
    status — broadcast the qualifying key set (pc.is_in, vectorized), never
    shuffling or widening the big side."""
    odf = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"]).to_pandas()
    keys = np.sort(odf.loc[odf["o_orderstatus"] == status, "o_custkey"].unique())
    keys_ref = ray.put(keys)

    class SemiFilter:
        def __init__(self):
            self.keys = pa.array(ray.get(keys_ref))

        def __call__(self, t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t.column("c_custkey"), value_set=self.keys))

    cust = read_sf(sf_dir, "customer", columns=["c_custkey", "c_name"])
    return cust.map_batches(
        SemiFilter, batch_format="pyarrow", concurrency=(1, 2)
    ).sort("c_custkey")


_BLOOM_BITS = 1 << 20  # 128 KiB of filter for ~65k keys at k=4 -> fp ~1e-4


def _bloom_positions(keys: np.ndarray, m: int = _BLOOM_BITS, k: int = 4) -> np.ndarray:
    """Vectorized double-hashed bit positions, shape (k, n): pure uint64
    arithmetic — deterministic across processes, no Python per key."""
    def _splitmix(z: np.ndarray) -> np.ndarray:  # well-mixed low bits
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    x = keys.astype(np.uint64)
    with np.errstate(over="ignore"):
        h1 = _splitmix(x)
        h2 = _splitmix(x ^ np.uint64(0xDEADBEEFCAFEF00D)) | np.uint64(1)
        return np.stack(
            [((h1 + np.uint64(i) * h2) % np.uint64(m)).astype(np.int64) for i in range(k)]
        )


def q_semi_join_bloom(sf_dir: str, status: str = "P"):
    """Semi join via a BLOOM pre-filter — the pattern for a build side too
    large to broadcast as an exact set: per-batch bit arrays OR-merge into a
    128 KiB filter (mergeable, so at scale the merge is a tree reduce), the
    probe side streams through a vectorized membership test, and only the
    tiny surviving candidate set pays exact verification (here a broadcast
    is_in; at scale a hash join of survivors).  False positives are removed
    by the verify step, so the result is exact — same oracle as the
    broadcast semi join."""
    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])

    def _build(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.equal(t.column("o_orderstatus"), pa.scalar(status)))
        bits = np.zeros(_BLOOM_BITS, dtype=bool)
        keys = keep.column("o_custkey").to_numpy()
        if len(keys):
            bits[_bloom_positions(np.unique(keys)).reshape(-1)] = True
        packed = np.packbits(bits)
        return pa.table({"bits": pa.array([packed.tobytes()], pa.binary())})

    parts = orders.map_batches(_build, batch_format="pyarrow").to_pandas()
    merged = np.zeros(_BLOOM_BITS // 8, dtype=np.uint8)
    for b in parts["bits"]:
        merged |= np.frombuffer(b, dtype=np.uint8)
    bloom_bits = np.unpackbits(merged).astype(bool)
    bloom_ref = ray.put(bloom_bits)

    class BloomFilterStage:
        def __init__(self):
            self.bits = ray.get(bloom_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = t.column("c_custkey").to_numpy()
            pos = _bloom_positions(keys)
            mask = self.bits[pos].all(axis=0)
            return t.filter(pa.array(mask))

    cust = read_sf(sf_dir, "customer", columns=["c_custkey", "c_name"])
    candidates = cust.map_batches(
        BloomFilterStage, batch_format="pyarrow", concurrency=(1, 2)
    )

    # exact verification of the (rare) false positives: hash-join the tiny
    # surviving candidate set against the distinct build-side keys.  The
    # build side never touches the driver (that is the too-big-to-broadcast
    # case the Bloom filter exists for) — distinct keys collapse per block
    # first, then a C-path groupby, then a shuffle join whose left side is
    # only the Bloom survivors.
    def _status_keys(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.equal(t.column("o_orderstatus"), pa.scalar(status)))
        return pa.table({"o_custkey": keep.column("o_custkey").unique()})

    matched_keys = (
        read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])
        .map_batches(_status_keys, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["o_custkey"])
    )
    from .joins import hash_join

    verified = hash_join(
        candidates,
        matched_keys,
        join_type="inner",
        num_partitions=8,
        on=("c_custkey",),
        right_on=("o_custkey",),
    )
    return verified.select_columns(["c_custkey", "c_name"]).sort("c_custkey")


def q3_shipping_priority(sf_dir: str, segment_cut: int = 500, num_partitions: int = 16):
    """TPC-H Q3-shaped multi-way join: revenue of each order placed by a
    'small' customer (custkey < cut), per order + priority, top-10 by
    revenue.  Composition: broadcast customer filter on orders (semi join)
    -> hash join to the per-order lineitem combiner aggregate -> sort+limit.
    The lineitem fact table is touched exactly once."""
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
        .aggregate(Sum("rev_cents", alias_name="revenue_cents"))
    )

    cust = read_sf(sf_dir, "customer", columns=["c_custkey"]).to_pandas()
    small = pa.array(np.sort(cust.loc[cust["c_custkey"] < segment_cut, "c_custkey"].to_numpy()))
    small_ref = ray.put(small)

    class OrderFilter:
        def __init__(self):
            self.keys = ray.get(small_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keep = t.filter(pc.is_in(t.column("o_custkey"), value_set=self.keys))
            return pa.table(
                {
                    "o_orderkey": keep.column("o_orderkey"),
                    "o_orderpriority": keep.column("o_orderpriority"),
                }
            )

    orders = read_sf(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderpriority"]
    ).map_batches(OrderFilter, batch_format="pyarrow", concurrency=(1, 2))

    from .joins import hash_join

    joined = hash_join(
        orders,
        per_order,
        join_type="inner",
        num_partitions=num_partitions,
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )
    return (
        joined.select_columns(["o_orderkey", "o_orderpriority", "revenue_cents"])
        .sort(["revenue_cents", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


def q_union_distinct_names(sf_dir: str):
    """region names UNION nation names, distinct, sorted."""
    r = read_sf(sf_dir, "region", columns=["r_name"]).map_batches(
        lambda t: pa.table({"name": t.column("r_name")}), batch_format="pyarrow"
    )
    n = read_sf(sf_dir, "nation", columns=["n_name"]).map_batches(
        lambda t: pa.table({"name": t.column("n_name")}), batch_format="pyarrow"
    )
    u = r.union(n)
    # C-path distinct: Count per name collapses duplicates with no Python
    # per group; the count column is then projected away
    return (
        u.groupby("name")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["name"])
        .sort("name")
    )


def q_intersect_users(sf_dir: str):
    """INTERSECT set op: ids that appear both as an order customer and an
    events user.  Each side dedups with a C-path Count groupby (duplicates
    collapse per block before the shuffle); the smaller distinct set then
    broadcast-filters the other — no join shuffle."""
    o = (
        read_sf(sf_dir, "orders", columns=["o_custkey"])
        .map_batches(
            lambda t: pa.table({"id": t.column("o_custkey").unique()}),
            batch_format="pyarrow",
        )
        .groupby("id")
        .aggregate(Count(alias_name="_n"))
    )
    ev_ids = (
        read_sf(sf_dir, "events", columns=["user_id"])
        .map_batches(
            lambda t: pa.table({"id": t.column("user_id").unique()}),
            batch_format="pyarrow",
        )
        .groupby("id")
        .aggregate(Count(alias_name="_n"))
        .to_pandas()
    )
    ev_set = pa.array(np.sort(ev_ids["id"].to_numpy()))
    ref = ray.put(ev_set)

    class Keep:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            return pa.table(
                {"id": t.filter(pc.is_in(t.column("id"), value_set=self.keys)).column("id")}
            )

    return o.map_batches(Keep, batch_format="pyarrow", concurrency=(1, 2)).sort("id")


def q_events_tumbling_window(sf_dir: str, window_s: int = 3600):
    """Tumbling-window aggregate on the events stream table: the window index
    is computed per batch (epoch_us // window), partial sums in the integer
    domain, then groupby(window, event_type)."""
    ev = read_sf(sf_dir, "events", columns=["ts", "event_type", "value"])
    win_us = window_s * 1_000_000

    def _prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64())
        return pa.table(
            {
                "window_id": pc.cast(pc.floor(pc.divide(us, pa.scalar(float(win_us)))), pa.int64()),
                "event_type": t.column("event_type"),
                "value_micro": _to_cents(t.column("value"), MICRO),
            }
        )

    return (
        ev.map_batches(_prep, batch_format="pyarrow")
        .groupby(["window_id", "event_type"])
        .aggregate(Count(alias_name="n_events"), Sum("value_micro", alias_name="sum_value_micro"))
        .sort(["window_id", "event_type"])
    )


def q_events_sliding_window(sf_dir: str, window_s: int = 3600, slide_s: int = 1800):
    """Sliding-window aggregate: each event is exploded into the
    ``window_s/slide_s`` windows containing it (window id = start/slide),
    then the same combiner groupby as the tumbling case.  Requires
    window_s % slide_s == 0."""
    assert window_s % slide_s == 0
    k = window_s // slide_s
    ev = read_sf(sf_dir, "events", columns=["ts", "event_type", "value"])
    slide_us = slide_s * 1_000_000

    def _explode(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        base = np.floor(us / float(slide_us)).astype(np.int64)
        etypes = t.column("event_type").to_pylist()
        micro = _to_cents(t.column("value"), MICRO).to_numpy()
        win, typ, val = [], [], []
        for j in range(k):
            win.append(base - j)
            typ.extend(etypes)
            val.append(micro)
        return pa.table(
            {
                "window_id": pa.array(np.concatenate(win)),
                "event_type": pa.array(typ, pa.string()),
                "value_micro": pa.array(np.concatenate(val)),
            }
        )

    return (
        ev.map_batches(_explode, batch_format="pyarrow")
        .groupby(["window_id", "event_type"])
        .aggregate(Count(alias_name="n_events"), Sum("value_micro", alias_name="sum_value_micro"))
        .sort(["window_id", "event_type"])
    )


def q_sessionize(sf_dir: str, gap_s: int = 1800):
    """Per-user sessionization: groupby(user) -> sort by ts within the group
    -> count gaps > gap_s.  Output per user: n_events, n_sessions.

    Ordering assumption: all events of one user fit one group (holds at any
    scale where per-user event counts are bounded; hot users would be chunked
    by time range first)."""
    # cast to int64 microseconds on the ARROW side: a pandas datetime64
    # column's .astype('int64') unit follows the frame's resolution (ns under
    # pandas 1.x), which would compare nanoseconds against a microsecond gap
    ev = read_sf(sf_dir, "events", columns=["user_id", "ts"]).map_batches(
        lambda t: pa.table(
            {"user_id": t.column("user_id"), "ts_us": pc.cast(t.column("ts"), pa.int64())}
        ),
        batch_format="pyarrow",
    )

    def _sess_part(part: pd.DataFrame) -> pd.DataFrame:
        # whole-partition sessionize in the microsecond domain end-to-end
        # (the SQL oracle uses epoch_us): one sort over (user, ts), gaps via
        # a single shifted diff masked at user boundaries, session counts as
        # a groupby sum of gap-break flags — no per-user Python dispatch
        part = part.sort_values(["user_id", "ts_us"], kind="mergesort")
        u = part["user_id"].to_numpy()
        ts = part["ts_us"].to_numpy()
        brk = np.zeros(len(part), dtype=np.int64)
        if len(part) > 1:
            same = u[1:] == u[:-1]
            brk[1:] = (same & ((ts[1:] - ts[:-1]) > gap_s * 1_000_000)).astype(np.int64)
        part = part.assign(_brk=brk)
        out = (
            part.groupby("user_id", sort=True)
            .agg(n_events=("ts_us", "size"), _breaks=("_brk", "sum"))
            .reset_index()
        )
        out["n_sessions"] = (out["_breaks"] + 1).astype(np.int64)
        out["n_events"] = out["n_events"].astype(np.int64)
        return out[["user_id", "n_events", "n_sessions"]]

    from .grouping import partitioned_apply

    return partitioned_apply(ev, "user_id", _sess_part, num_parts=64).sort("user_id")


def q_part_revenue_by_brand(sf_dir: str):
    """lineitem |x| part broadcast join -> revenue by brand (revenue =
    floor(price*(1-disc)) in cents, computed identically in the oracle).

    The small side ships once as a dense int32 index (partkeys are 1..N) plus
    the distinct-brand dictionary array; per-batch resolution is one numpy
    fancy-index + one ``pc.take`` — no Python per row, and an unmatched
    partkey maps to null (index -1) instead of raising."""
    part = read_sf(sf_dir, "part", columns=["p_partkey", "p_brand"]).to_pandas()
    brands_dict, brand_codes = np.unique(part["p_brand"].to_numpy(), return_inverse=True)
    pkeys = part["p_partkey"].to_numpy()
    p2b_idx = np.full(int(pkeys.max()) + 2, -1, dtype=np.int32)
    p2b_idx[pkeys] = brand_codes.astype(np.int32)
    ref = ray.put((p2b_idx, pa.array(brands_dict, pa.string())))

    class Joiner:
        def __init__(self):
            self.p2b_idx, self.brands = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = np.minimum(t.column("l_partkey").to_numpy(), len(self.p2b_idx) - 1)
            idx = self.p2b_idx[keys]
            codes = pa.array(idx, mask=idx < 0)
            rev = pc.multiply(
                t.column("l_extendedprice"),
                pc.subtract(pa.scalar(1.0), t.column("l_discount")),
            )
            return pa.table(
                {
                    "p_brand": pc.take(self.brands, codes),
                    "rev_cents": _to_cents(rev),
                }
            )

    li = read_sf(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"])
    return (
        li.map_batches(Joiner, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("p_brand")
        .aggregate(Sum("rev_cents", alias_name="revenue_cents"), Count(alias_name="n_items"))
        .sort("p_brand")
    )


def q_left_join_customer_orders(sf_dir: str):
    """LEFT OUTER join: every customer row survives, order-side aggregates
    fill with zero when absent (the ~hundred order-less customers).

    Scale shape: the orders side is pre-aggregated to one row per custkey
    with a combiner groupby (the only shuffle — over partials, not fact
    rows), and that aggregate — orders of magnitude smaller than the order
    table — broadcasts into a streaming pass over customer.  The unmatched
    side is detected by lookup miss, never by a shuffled outer join."""
    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "price_cents": _to_cents(t.column("o_totalprice")),
            }
        )

    agg = (
        orders.map_batches(_prep, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("price_cents", alias_name="total_cents"), Count(alias_name="n_orders"))
        .to_pandas()
    )
    max_key = int(agg["o_custkey"].max()) if len(agg) else 0
    totals = np.zeros(max_key + 1, dtype=np.int64)
    counts = np.zeros(max_key + 1, dtype=np.int64)
    totals[agg["o_custkey"].to_numpy()] = agg["total_cents"].to_numpy()
    counts[agg["o_custkey"].to_numpy()] = agg["n_orders"].to_numpy()
    lookup_ref = ray.put((totals, counts))

    class LeftJoiner:
        def __init__(self):
            self.totals, self.counts = ray.get(lookup_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = t.column("c_custkey").to_numpy()
            safe = np.where(keys < len(self.totals), keys, 0)
            in_range = keys < len(self.totals)
            return pa.table(
                {
                    "c_custkey": t.column("c_custkey"),
                    "c_name": t.column("c_name"),
                    "n_orders": pa.array(
                        np.where(in_range, self.counts[safe], 0), pa.int64()
                    ),
                    "total_cents": pa.array(
                        np.where(in_range, self.totals[safe], 0), pa.int64()
                    ),
                }
            )

    cust = read_sf(sf_dir, "customer", columns=["c_custkey", "c_name"])
    return cust.map_batches(
        LeftJoiner, batch_format="pyarrow", concurrency=(1, 4)
    ).sort("c_custkey")


def q_topk_orders_per_customer(sf_dir: str, k: int = 3, num_parts: int = 32):
    """Top-``k`` rows PER GROUP (each customer's k priciest orders) — the
    grouped-top-k pattern: one coarse hash shuffle on the group key, then a
    vectorized per-partition sort + head(k) per group; no global sort of the
    fact table.  Ties break (o_totalprice desc, o_orderkey asc) so the
    boundary is deterministic.  Output: custkey, rank, orderkey, cents."""
    from .grouping import partitioned_map_groups

    orders = read_sf(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "o_orderkey": t.column("o_orderkey"),
                "price_cents": _to_cents(t.column("o_totalprice")),
            }
        )

    def _topk_part(part: pd.DataFrame) -> pd.DataFrame:
        # whole-partition grouped top-k: one sort, rank via C-path cumcount,
        # filter — no per-customer Python dispatch
        part = part.sort_values(
            ["o_custkey", "price_cents", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        part["rank"] = part.groupby("o_custkey", sort=False).cumcount().to_numpy() + 1
        part = part[part["rank"] <= k].reset_index(drop=True)
        part["rank"] = part["rank"].astype(np.int64)
        return part[["o_custkey", "rank", "o_orderkey", "price_cents"]]

    prepped = orders.map_batches(_prep, batch_format="pyarrow")
    from .grouping import partitioned_apply

    return partitioned_apply(prepped, "o_custkey", _topk_part, num_parts=num_parts).sort(
        ["o_custkey", "rank"]
    )


def q_ntile_customers(sf_dir: str, tiles: int = 4, num_parts: int = 16):
    """NTILE(``tiles``) per nation over customer account balance — the
    quantile-bucket window.  Same shape as the other window ops: one coarse
    hash shuffle on the partition key, then each nation's tile assignment is
    pure vectorized index math (SQL NTILE semantics: the first n % tiles
    buckets get the extra row).  Ties break (c_acctbal desc, c_custkey asc)
    to pin bucket boundaries.  Output: nationkey, custkey, bal_cents, tile."""
    from .grouping import partitioned_map_groups

    cust = read_sf(sf_dir, "customer", columns=["c_nationkey", "c_custkey", "c_acctbal"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_nationkey": t.column("c_nationkey"),
                "c_custkey": t.column("c_custkey"),
                "bal_cents": _to_cents(t.column("c_acctbal")),
            }
        )

    def _ntile(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["bal_cents", "c_custkey"], ascending=[False, True], kind="mergesort"
        ).reset_index(drop=True)
        n = len(g)
        base, rem = divmod(n, tiles)
        sizes = np.full(tiles, base, dtype=np.int64)
        sizes[:rem] += 1
        g["tile"] = np.repeat(np.arange(1, tiles + 1, dtype=np.int64), sizes)[:n]
        return g[["c_nationkey", "c_custkey", "bal_cents", "tile"]]

    prepped = cust.map_batches(_prep, batch_format="pyarrow")
    return partitioned_map_groups(prepped, "c_nationkey", _ntile, num_parts=num_parts).sort(
        ["c_nationkey", "c_custkey"]
    )


def q_revenue_by_month(sf_dir: str):
    """Temporal bucketing: order revenue per calendar month.  The month key
    is derived per batch with Arrow's C-path ``strftime`` (no Python dates),
    then one combiner groupby over ~tens of month keys."""
    orders = read_sf(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "month": pc.strftime(t.column("o_orderdate"), format="%Y-%m"),
                "price_cents": _to_cents(t.column("o_totalprice")),
            }
        )

    return (
        orders.map_batches(_prep, batch_format="pyarrow")
        .groupby("month")
        .aggregate(Sum("price_cents", alias_name="revenue_cents"), Count(alias_name="n_orders"))
        .sort("month")
    )


def q_except_users(sf_dir: str):
    """EXCEPT set op: customers who placed orders but have NO events.  Both
    sides reduce to distinct keys with C-path groupbys; the (smaller) event
    side broadcasts as a numpy membership mask — the big side streams, the
    same shape as the anti joins."""
    from ray.data.aggregate import Count as _Count

    ev_users = (
        read_sf(sf_dir, "events", columns=["user_id"])
        .groupby("user_id")
        .aggregate(_Count(alias_name="_n"))
        .to_pandas()["user_id"]
        .to_numpy()
    )
    max_u = int(ev_users.max()) if len(ev_users) else 0
    mask = np.zeros(max_u + 1, dtype=bool)
    mask[ev_users] = True
    mask_ref = ray.put(mask)

    class ExceptFilter:
        def __init__(self):
            self.mask = ray.get(mask_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = t.column("o_custkey").to_numpy()
            in_events = (keys < len(self.mask)) & self.mask[
                np.minimum(keys, len(self.mask) - 1)
            ]
            return pa.table({"user_id": pa.array(keys[~in_events], pa.int64())})

    return (
        read_sf(sf_dir, "orders", columns=["o_custkey"])
        .map_batches(ExceptFilter, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("user_id")
        .aggregate(_Count(alias_name="_n"))
        .select_columns(["user_id"])
        .sort("user_id")
    )


def q_above_avg_orders(sf_dir: str):
    """Correlated-subquery shape (each order vs ITS customer's average):
    one combiner groupby builds the per-customer (n, sum) table, which
    broadcasts as two dense arrays; the comparison streams over orders as
    pure integer math — ``price > sum/n`` is evaluated as
    ``price * n > sum`` so no float division can perturb the oracle hash."""
    orders = read_sf(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "price_cents": _to_cents(t.column("o_totalprice")),
            }
        )

    prepped = orders.map_batches(_prep, batch_format="pyarrow")
    agg = (
        prepped.groupby("o_custkey")
        .aggregate(Sum("price_cents", alias_name="s"), Count(alias_name="n"))
        .to_pandas()
    )
    size = int(agg["o_custkey"].max()) + 1 if len(agg) else 1
    s_arr = np.zeros(size, dtype=np.int64)
    n_arr = np.ones(size, dtype=np.int64)
    s_arr[agg["o_custkey"].to_numpy()] = agg["s"].to_numpy()
    n_arr[agg["o_custkey"].to_numpy()] = agg["n"].to_numpy()
    ref = ray.put((s_arr, n_arr))

    class AboveAvg:
        def __init__(self):
            self.s, self.n = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = t.column("o_custkey").to_numpy()
            price = t.column("price_cents").to_numpy()
            keep = price * self.n[keys] > self.s[keys]
            return t.filter(pa.array(keep))

    return prepped.map_batches(AboveAvg, batch_format="pyarrow", concurrency=(1, 4)).sort(
        "o_orderkey"
    )


def q_string_funcs(sf_dir: str):
    """Scan-level string kernels, all Arrow C-path: upper-cased head slice,
    codeunit length, vowel count via regex-strip length delta."""
    docs = read_sf(sf_dir, "documents", columns=["doc_id", "text"])

    def _f(t: pa.Table) -> pa.Table:
        text = t.column("text")
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        stripped = pc.replace_substring_regex(text, pattern="[aeiou]", replacement="")
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "head5": pc.utf8_upper(pc.utf8_slice_codeunits(text, 0, 5)),
                "n_chars": n_chars,
                "n_vowels": pc.subtract(
                    n_chars, pc.cast(pc.utf8_length(stripped), pa.int64())
                ),
            }
        )

    return docs.map_batches(_f, batch_format="pyarrow").sort("doc_id")


def q_regex_extract(sf_dir: str):
    """Scan-level regex extraction: first number in each document, C-path
    ``pc.extract_regex`` (missing matches normalized to '' to align with
    SQL regexp_extract's empty-string convention)."""
    docs = read_sf(sf_dir, "documents", columns=["doc_id", "text"])

    def _f(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t.column("text"), pattern="(?P<num>[0-9]+)")
        num = pc.coalesce(pc.struct_field(m, "num"), pa.scalar(""))
        return pa.table({"doc_id": t.column("doc_id"), "first_num": num})

    return docs.map_batches(_f, batch_format="pyarrow").sort("doc_id")


def q_first_last_value(sf_dir: str, num_parts: int = 32):
    """FIRST_VALUE / LAST_VALUE window per user over event time (ties by
    event_id): one coarse hash shuffle, then each partition resolves every
    user with a single sort + two drop_duplicates — no per-group Python."""
    from .grouping import partitioned_apply

    ev = read_sf(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]).map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("user_id"),
                "event_id": t.column("event_id"),
                "ts_us": pc.cast(t.column("ts"), pa.int64()),
                "value_micro": pc.cast(
                    pc.floor(pc.multiply(t.column("value"), pa.scalar(1e6))), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def _fl(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        first = part.drop_duplicates("user_id", keep="first")
        last = part.drop_duplicates("user_id", keep="last")
        out = first[["user_id"]].copy()
        out["first_value_micro"] = first["value_micro"].to_numpy()
        out["last_value_micro"] = last["value_micro"].to_numpy()
        out["n_events"] = part.groupby("user_id", sort=True).size().to_numpy().astype(np.int64)
        return out

    return partitioned_apply(ev, "user_id", _fl, num_parts=num_parts).sort("user_id")


def q_full_outer_join(sf_dir: str):
    """FULL OUTER join: per-customer order counts against per-user event
    counts on the shared id domain — ids that only ever ordered and ids that
    only ever clicked both survive with a zero on the missing side.

    Shape: because both sides are first reduced to one row per distinct id
    by C-path combiner groupbys, FULL OUTER is algebraically a tagged union
    + one more groupby-Sum — (id, n, 0) ∪ (id, 0, m) → Sum per id.  That is
    strictly cheaper than a hash join (the union needs no build side, ships
    exactly one row per id per side, and reuses the same C-path Sum
    aggregate) and sidesteps the separate join-operator shuffle entirely —
    the preferred full-outer form whenever both sides are already keyed
    aggregates.  Output: id, n_orders, n_events (0-coalesced), sorted."""

    def _tag(old: str, this: str, other: str):
        def f(t: pa.Table) -> pa.Table:
            if old not in t.column_names:  # empty block lost its schema
                return pa.table(
                    {
                        "id": pa.array([], pa.int64()),
                        "n_orders": pa.array([], pa.int64()),
                        "n_events": pa.array([], pa.int64()),
                    }
                )
            cols = {
                this: pc.cast(t.column("n"), pa.int64()),
                other: pa.array(np.zeros(t.num_rows, dtype=np.int64), pa.int64()),
            }
            return pa.table(
                {
                    "id": pc.cast(t.column(old), pa.int64()),
                    "n_orders": cols["n_orders"],  # fixed order: union needs
                    "n_events": cols["n_events"],  # schema-identical sides
                }
            )

        return f

    a = (
        read_sf(sf_dir, "orders", columns=["o_custkey"])
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n"))
        .map_batches(_tag("o_custkey", "n_orders", "n_events"), batch_format="pyarrow")
    )
    b = (
        read_sf(sf_dir, "events", columns=["user_id"])
        .groupby("user_id")
        .aggregate(Count(alias_name="n"))
        .map_batches(_tag("user_id", "n_events", "n_orders"), batch_format="pyarrow")
    )
    return (
        a.union(b)
        .groupby("id")
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("n_events", alias_name="n_events"))
        .sort("id")
    )


def q_running_revenue(sf_dir: str):
    """Per-customer RUNNING revenue total — SUM(cents) OVER (PARTITION BY
    custkey ORDER BY orderdate, orderkey).  One coarse hash shuffle on the
    customer key, then each partition resolves every customer's cumsum in
    one vectorized sort + groupby-cumsum pass (no per-group Python); the
    (date, orderkey) sort key makes ties impossible, so the running sums
    are order-deterministic and hash-exact."""
    from .grouping import partitioned_apply

    orders = read_sf(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                # timestamps cast on the Arrow side (resolution-safe)
                "_ts": pc.cast(t.column("o_orderdate"), pa.int64()),
                "price_cents": _to_cents(t.column("o_totalprice")),
            }
        )

    def _cum(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(
            ["o_custkey", "_ts", "o_orderkey"], kind="mergesort"
        ).copy()
        part["cum_cents"] = (
            part.groupby("o_custkey", sort=False)["price_cents"].cumsum().astype(np.int64)
        )
        return part[["o_orderkey", "o_custkey", "cum_cents"]]

    return partitioned_apply(
        orders.map_batches(_prep, batch_format="pyarrow"), "o_custkey", _cum
    ).sort("o_orderkey")


def q_funnel_stages(sf_dir: str):
    """Conversion-funnel analysis: per user, how far through
    signup -> click -> purchase they progressed, where each stage must occur
    STRICTLY AFTER the previous stage's first occurrence (the classic
    product-analytics windowed funnel).  One coarse hash shuffle on
    user_id, then each partition resolves every user with three vectorized
    groupby-min passes (no per-user Python); timestamps are cast to int64
    micros on the Arrow side before grouping (resolution-safe).  Output:
    user_id, funnel_stage (0-3), sorted."""
    from .grouping import partitioned_apply

    ev = read_sf(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "_ts": pc.cast(t.column("ts"), pa.int64()),
                "event_type": t.column("event_type"),
            }
        )

    def _stages(part: pd.DataFrame) -> pd.DataFrame:
        users = part["user_id"].unique()
        s1 = (
            part[part["event_type"] == "signup"].groupby("user_id")["_ts"].min()
        )
        c = part[part["event_type"] == "click"]
        s2 = c[c["_ts"] > c["user_id"].map(s1)].groupby("user_id")["_ts"].min()
        p = part[part["event_type"] == "purchase"]
        s3 = p[p["_ts"] > p["user_id"].map(s2)].groupby("user_id")["_ts"].min()
        stage = pd.Series(np.int64(0), index=users)
        stage[stage.index.isin(s1.index)] = 1
        stage[stage.index.isin(s2.index)] = 2
        stage[stage.index.isin(s3.index)] = 3
        return pd.DataFrame(
            {
                "user_id": stage.index.to_numpy().astype(np.int64),
                "funnel_stage": stage.to_numpy().astype(np.int64),
            }
        )

    return partitioned_apply(
        ev.map_batches(_prep, batch_format="pyarrow"), "user_id", _stages
    ).sort("user_id")


def q_percent_rank(sf_dir: str, num_parts: int = 16):
    """PERCENT_RANK + CUME_DIST over customers partitioned by nation,
    ordered by account balance — emitted as their INTEGER faces
    (pr_num = RANK()-1, cd_num = the count of peers-or-lower rows, n = the
    partition size) because the ratios are the fragile-across-engines part
    (pr = pr_num/(n-1), cd = cd_num/n are derivable exactly by any
    consumer, and DuckDB computes the same integers natively).

    Shape: one coarse hash shuffle on the nation key via
    ``partitioned_apply``, then every nation inside a partition is resolved
    in ONE vectorized pass (pandas min-rank + a per-group cumulative
    count over the sorted frame) — no per-group Python dispatch."""
    from .grouping import partitioned_apply

    cust = read_sf(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def _ranks(part: pd.DataFrame) -> pd.DataFrame:
        df = part.sort_values(["c_nationkey", "c_acctbal", "c_custkey"]).reset_index(
            drop=True
        )
        g = df.groupby("c_nationkey", sort=False)["c_acctbal"]
        # RANK() - 1: min rank among equal values
        pr_num = (g.rank(method="min").to_numpy() - 1).astype(np.int64)
        # CUME_DIST numerator: rows with value <= current = max rank
        cd_num = g.rank(method="max").to_numpy().astype(np.int64)
        n = g.transform("size").to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "c_custkey": df["c_custkey"].to_numpy(np.int64),
                "c_nationkey": df["c_nationkey"].to_numpy(np.int32),
                "pr_num": pr_num,
                "cd_num": cd_num,
                "n": n,
            }
        )

    return partitioned_apply(cust, "c_nationkey", _ranks, num_parts=num_parts).sort(
        "c_custkey"
    )


def q_gap_fill(sf_dir: str, num_parts: int = 16):
    """Time-series gap fill: per-user DAILY event counts on a DENSE day
    spine from each user's first to last active day, zero-filled — the
    resample/forward-spine primitive every metrics pipeline needs before
    window math (a missing day must be a 0 row, not an absent row).

    Shape: per-batch (user, day) partial counts (combiner — the shuffle
    ships active days, not events), one C-path Sum groupby, then
    ``partitioned_apply`` on user_id where each partition builds ALL its
    users' spines in one vectorized pass: per-user [min, max] day spans ->
    ``np.repeat`` + offset arithmetic for the spine rows, counts merged
    back by a single ``pd.merge`` — no per-user Python.  Output: user_id,
    day (date32), n_events."""
    from .grouping import partitioned_apply

    ev = read_sf(sf_dir, "events", columns=["user_id", "ts"])

    def _daily(t: pa.Table) -> pa.Table:
        days = pc.cast(pc.floor_temporal(t.column("ts"), unit="day"), pa.date32())
        df = (
            pd.DataFrame(
                {
                    "user_id": t.column("user_id").to_numpy(),
                    "day": np.asarray(days.combine_chunks(), dtype=np.int32)
                    if isinstance(days, pa.ChunkedArray)
                    else np.asarray(days, dtype=np.int32),
                }
            )
            .groupby(["user_id", "day"], sort=False)
            .size()
            .reset_index(name="n")
        )
        df["n"] = df["n"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    daily = (
        ev.map_batches(_daily, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def _spine(part: pd.DataFrame) -> pd.DataFrame:
        span = part.groupby("user_id")["day"].agg(["min", "max"])
        lengths = (span["max"] - span["min"] + 1).to_numpy(np.int64)
        users = np.repeat(span.index.to_numpy(), lengths)
        starts = np.repeat(span["min"].to_numpy(np.int64), lengths)
        offs = np.arange(lengths.sum()) - np.repeat(
            np.concatenate([[0], np.cumsum(lengths)[:-1]]), lengths
        )
        spine = pd.DataFrame({"user_id": users, "day": starts + offs})
        out = spine.merge(part, on=["user_id", "day"], how="left")
        out["n_events"] = out["n"].fillna(0).astype(np.int64)
        return out[["user_id", "day", "n_events"]]

    filled = partitioned_apply(daily, "user_id", _spine, num_parts=num_parts)

    def _to_date(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(t.column("user_id"), pa.int64()),
                "day": pc.cast(
                    pc.cast(t.column("day"), pa.int32()), pa.date32()
                ),
                "n_events": t.column("n_events"),
            }
        )

    return filled.map_batches(_to_date, batch_format="pyarrow").sort(
        ["user_id", "day"]
    )


def q_cross_join(sf_dir: str):
    """CROSS JOIN via broadcast cartesian: the small side (region) is
    ``ray.put`` once; every nation batch emits |batch| x |small| rows with
    ``np.repeat``/``np.tile`` index arithmetic — the only sane shape for a
    cartesian product at scale (a shuffle cross join ships every row to
    every partition).  Output: r_name, n_name."""
    region = read_sf(sf_dir, "region", columns=["r_name"]).to_pandas()
    small_ref = ray.put(pa.array(region["r_name"].tolist(), pa.string()))

    def _cart(t: pa.Table) -> pa.Table:
        small = ray.get(small_ref)
        n, m = len(t), len(small)
        return pa.table(
            {
                "r_name": pc.take(small, pa.array(np.tile(np.arange(m), n))),
                "n_name": pc.take(
                    t.column("n_name"), pa.array(np.repeat(np.arange(n), m))
                ),
            }
        )

    nation = read_sf(sf_dir, "nation", columns=["n_name"])
    return nation.map_batches(_cart, batch_format="pyarrow").sort(
        ["r_name", "n_name"]
    )


def q_moving_sum(sf_dir: str, window: int = 3, num_parts: int = 16):
    """ROWS-frame window: per-customer moving revenue sum over the current
    + 2 preceding orders (``ROWS BETWEEN 2 PRECEDING AND CURRENT ROW``) —
    completes the frame family (RANGE/unbounded running totals and
    time-sliding windows exist; this is the bounded-row-count frame).

    One coarse customer-key shuffle, then every customer in a partition is
    resolved in a single vectorized pass: global cumsum minus the
    window-shifted cumsum, with per-customer starts handled by clamping the
    shifted index to each group's first row (no per-group Python).  Integer
    cents -> hash-exact.  Output: o_orderkey, o_custkey, moving_cents."""
    from .grouping import partitioned_apply

    orders = read_sf(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "date_us": pc.cast(t.column("o_orderdate"), pa.int64()),
                "cents": _to_cents(t.column("o_totalprice")),
            }
        )

    def _win(part: pd.DataFrame) -> pd.DataFrame:
        df = part.sort_values(["o_custkey", "date_us", "o_orderkey"]).reset_index(
            drop=True
        )
        cents = df["cents"].to_numpy(np.int64)
        cum = np.concatenate([[0], np.cumsum(cents)])
        pos = np.arange(len(df))
        # first row index of each customer's run, broadcast to its rows
        new_grp = np.concatenate(
            [[True], df["o_custkey"].to_numpy()[1:] != df["o_custkey"].to_numpy()[:-1]]
        )
        grp_start = np.maximum.accumulate(np.where(new_grp, pos, 0))
        lo = np.maximum(pos - (window - 1), grp_start)
        moving = cum[pos + 1] - cum[lo]
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].to_numpy(np.int64),
                "o_custkey": df["o_custkey"].to_numpy(np.int64),
                "moving_cents": moving.astype(np.int64),
            }
        )

    prepped = orders.map_batches(_prep, batch_format="pyarrow")
    return partitioned_apply(prepped, "o_custkey", _win, num_parts=num_parts).sort(
        "o_orderkey"
    )


def q_group_stats(sf_dir: str):
    """Exact statistical-aggregate partials per nation: n, sum and sum of
    squares of customer balances in WHOLE DOLLARS (floor) — the integer
    faces from which mean/variance/stddev are exactly derivable by any
    consumer (emitting float variance directly would be summation-order
    fragile; dollar-scaled squares keep sumsq far from int64 overflow even
    at 10^9 rows x 10^4-dollar balances ~ 1e17).  One combiner per batch +
    one C-path Sum groupby — the canonical algebraic-aggregate shape."""

    cust = read_sf(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])

    def _partials(t: pa.Table) -> pa.Table:
        dollars = pc.cast(pc.floor(t.column("c_acctbal")), pa.int64())
        df = pd.DataFrame(
            {
                "c_nationkey": t.column("c_nationkey").to_numpy(),
                "d": dollars.to_numpy(zero_copy_only=False),
            }
        )
        df["d2"] = df["d"] * df["d"]
        g = df.groupby("c_nationkey", sort=False).agg(
            n=("d", "size"), sum_dollars=("d", "sum"), sumsq_dollars=("d2", "sum")
        ).reset_index()
        for c in ("n", "sum_dollars", "sumsq_dollars"):
            g[c] = g[c].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def _key_dtype(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("c_nationkey"),
            "c_nationkey",
            pc.cast(t.column("c_nationkey"), pa.int32()),
        )

    return (
        cust.map_batches(_partials, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_dollars", alias_name="sum_dollars"),
            Sum("sumsq_dollars", alias_name="sumsq_dollars"),
        )
        .map_batches(_key_dtype, batch_format="pyarrow")
        .sort("c_nationkey")
    )


def q_corr_partials(sf_dir: str):
    """Bivariate statistics partials per event_type: the exact integer
    moments (n, sx, sy, sxx, syy, sxy) between event value (cents) and
    hour-of-day from which Pearson correlation / covariance / regression
    slope are exactly derivable by any consumer — the distributed
    CORR/COVAR face without float summation-order fragility.  Combiner per
    batch + one C-path Sum groupby; scales like any algebraic aggregate."""
    ev = read_sf(sf_dir, "events", columns=["event_type", "ts", "value"])

    def _partials(t: pa.Table) -> pa.Table:
        x = _to_cents(t.column("value")).to_numpy(zero_copy_only=False)
        hours = pc.hour(t.column("ts")).to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                "event_type": t.column("event_type").to_pandas(),
                "x": x,
                "y": hours,
            }
        )
        df["xx"] = df["x"] * df["x"]
        df["yy"] = df["y"] * df["y"]
        df["xy"] = df["x"] * df["y"]
        g = (
            df.groupby("event_type", sort=False)
            .agg(
                n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
                sxx=("xx", "sum"), syy=("yy", "sum"), sxy=("xy", "sum"),
            )
            .reset_index()
        )
        for c in ("n", "sx", "sy", "sxx", "syy", "sxy"):
            g[c] = g[c].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ev.map_batches(_partials, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"),
            Sum("sxy", alias_name="sxy"),
        )
        .sort("event_type")
    )


def q_event_paths(sf_dir: str, k: int = 20, num_parts: int = 16):
    """Sequential path mining: the top-``k`` most frequent 3-event
    event_type paths (consecutive by time within a user) — the classic
    clickstream/journey primitive behind funnel discovery.

    Shape: one coarse user-key shuffle, then each partition extracts ALL
    its users' trigrams in one vectorized pass (sort by (user, ts, id),
    shift-compare the user column for 3-row runs, string-join the type
    columns) and pre-counts them (combiner); a small groupby Sum over
    distinct paths + deterministic (count desc, path asc) top-k.  The
    corpus never shuffles twice — only (path, partial-count) rows do.
    Output: path, n."""
    from ray.data.aggregate import Sum as _Sum

    from .grouping import partitioned_apply

    ev = read_sf(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "ts_us": pc.cast(t.column("ts"), pa.int64()),
                "event_id": t.column("event_id"),
                "event_type": t.column("event_type"),
            }
        )

    def _tri(part: pd.DataFrame) -> pd.DataFrame:
        df = part.sort_values(["user_id", "ts_us", "event_id"]).reset_index(drop=True)
        u = df["user_id"].to_numpy()
        if len(df) < 3:
            return pd.DataFrame({"path": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        same3 = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        et = df["event_type"].to_numpy(dtype=object)
        paths = (et[:-2] + ">" + et[1:-1] + ">" + et[2:])[same3]
        vc = pd.Series(paths).value_counts()
        return pd.DataFrame(
            {"path": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(np.int64)}
        )

    counted = (
        partitioned_apply(
            ev.map_batches(_prep, batch_format="pyarrow"), "user_id", _tri,
            num_parts=num_parts,
        )
        .groupby("path")
        .aggregate(_Sum("n", alias_name="n"))
    )
    return counted.sort(["n", "path"], descending=[True, False]).limit(k)


def _pareto_max(df: pd.DataFrame, xcol: str, ycol: str) -> pd.DataFrame:
    """Rows not dominated under (x bigger-better, y bigger-better):
    sort by (x desc, y desc) then keep rows whose y strictly exceeds the
    running max of all strictly-larger-x rows — one vectorized pass."""
    d = df.sort_values([xcol, ycol], ascending=False, kind="mergesort").reset_index(
        drop=True
    )
    x = d[xcol].to_numpy()
    y = d[ycol].to_numpy()
    lo = np.iinfo(np.int64).min
    # same-x rows form contiguous blocks (sorted y desc within); a survivor
    # must (a) tie its block's max y — any same-x row with larger y strictly
    # dominates — and (b) strictly exceed the best y among all larger-x rows
    # (a larger-x row with >= y dominates via the strict x)
    best = np.maximum.accumulate(y)
    prev_best = np.concatenate([[lo], best[:-1]])
    new_x = np.concatenate([[True], x[1:] != x[:-1]])
    block_start = np.maximum.accumulate(np.where(new_x, np.arange(len(d)), 0))
    before_block = np.where(block_start > 0, prev_best[block_start], lo)
    block_max = y[block_start]
    keep = (y == block_max) & (y > before_block)
    return d[keep]


def q_skyline(sf_dir: str):
    """SKYLINE (Pareto frontier): customers not dominated on (account
    balance, order count) — no other customer has >= both with > in at
    least one.  The classic multi-criteria operator.

    Distribution is combiner-first and provably safe: the skyline of a
    union is a subset of the union of per-block skylines, so each batch
    prunes to its local frontier (tiny), and a single final pass over the
    concatenated survivors computes the global frontier — the raw table
    never shuffles, survivors are frontier-sized.  Balances compare in
    integer cents.  Output: c_custkey, bal_cents, n_orders, sorted."""
    cust = read_sf(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])
    orders = read_sf(sf_dir, "orders", columns=["o_custkey"])
    counts = (
        orders.groupby("o_custkey").aggregate(Count(alias_name="n_orders"))
    )

    def _cnt_carrier(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.table(
                {"c_custkey": pa.array([], pa.int64()),
                 "bal_cents": pa.array([], pa.int64()),
                 "n_orders": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "c_custkey": pc.cast(t.column("o_custkey"), pa.int64()),
                "bal_cents": pa.array(np.zeros(len(t), dtype=np.int64)),
                "n_orders": pc.cast(t.column("n_orders"), pa.int64()),
            }
        )

    def _cust_carrier(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(t.column("c_custkey"), pa.int64()),
                "bal_cents": _to_cents(t.column("c_acctbal")),
                "n_orders": pa.array(np.zeros(len(t), dtype=np.int64)),
            }
        )

    merged = (
        cust.map_batches(_cust_carrier, batch_format="pyarrow")
        .union(counts.map_batches(_cnt_carrier, batch_format="pyarrow"))
        .groupby("c_custkey")
        .aggregate(
            Sum("bal_cents", alias_name="bal_cents"),
            Sum("n_orders", alias_name="n_orders"),
        )
    )

    def _local_frontier(df: pd.DataFrame) -> pd.DataFrame:
        return _pareto_max(
            df[["c_custkey", "bal_cents", "n_orders"]], "bal_cents", "n_orders"
        )

    survivors = merged.map_batches(_local_frontier, batch_format="pandas").to_pandas()
    out = _pareto_max(survivors, "bal_cents", "n_orders").copy()
    for c in ("c_custkey", "bal_cents", "n_orders"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("c_custkey").reset_index(drop=True)


def q_value_histogram(sf_dir: str, bin_cents: int = 5000):
    """Equi-width value histogram of event values — bin = floor(cents / w):
    the one-pass analytics primitive behind distribution dashboards.  Pure
    combiner + one tiny C-path Sum groupby over (bin, count) partials; the
    value stream never shuffles.  Output: bin, lo_cents, n."""
    from ray.data.aggregate import Sum as _Sum

    ev = read_sf(sf_dir, "events", columns=["value"])

    def _bins(t: pa.Table) -> pa.Table:
        cents = _to_cents(t.column("value")).to_numpy(zero_copy_only=False)
        b = cents // bin_cents
        ub, n = np.unique(b, return_counts=True)
        return pa.table(
            {"bin": pa.array(ub.astype(np.int64)), "n": pa.array(n.astype(np.int64))}
        )

    agg = (
        ev.map_batches(_bins, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(_Sum("n", alias_name="n"))
    )

    def _lo(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy(zero_copy_only=False)
        return t.append_column(
            "lo_cents", pa.array((b * bin_cents).astype(np.int64))
        )

    return agg.map_batches(_lo, batch_format="pyarrow").sort("bin")


def q_profile_orders(sf_dir: str):
    """One-pass data profiling of the orders table: per numeric column the
    row/null counts and integer-domain min/max (dates as epoch-us, money as
    cents) — the schema-sanity stage every ingest pipeline runs first.
    Per-batch partials (one tiny row per column per batch) merge under a
    Min/Max/Sum groupby; the table streams once.  Output: col_name, n,
    n_null, min_v, max_v."""
    from ray.data.aggregate import Max, Min
    from ray.data.aggregate import Sum as _Sum

    orders = read_sf(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )

    def _partials(t: pa.Table) -> pa.Table:
        cols = {
            "o_orderkey": pc.cast(t.column("o_orderkey"), pa.int64()),
            "o_custkey": pc.cast(t.column("o_custkey"), pa.int64()),
            "o_totalprice_cents": _to_cents(t.column("o_totalprice")),
            "o_orderdate_us": pc.cast(t.column("o_orderdate"), pa.int64()),
        }
        names, ns, nulls, mins, maxs = [], [], [], [], []
        for name, arr in cols.items():
            names.append(name)
            ns.append(len(arr))
            nulls.append(arr.null_count)
            v = arr.to_numpy(zero_copy_only=False)
            v = v[~pd.isna(v)] if arr.null_count else v
            mins.append(int(v.min()) if len(v) else np.iinfo(np.int64).max)
            maxs.append(int(v.max()) if len(v) else np.iinfo(np.int64).min)
        return pa.table(
            {
                "col_name": pa.array(names, pa.string()),
                "n": pa.array(ns, pa.int64()),
                "n_null": pa.array(nulls, pa.int64()),
                "min_v": pa.array(mins, pa.int64()),
                "max_v": pa.array(maxs, pa.int64()),
            }
        )

    return (
        orders.map_batches(_partials, batch_format="pyarrow")
        .groupby("col_name")
        .aggregate(
            _Sum("n", alias_name="n"),
            _Sum("n_null", alias_name="n_null"),
            Min("min_v", alias_name="min_v"),
            Max("max_v", alias_name="max_v"),
        )
        .sort("col_name")
    )


def q_zscore_balance(sf_dir: str):
    """Per-nation z-score standardization of customer balances — the
    feature-normalization face every ML data-prep pipeline needs.  Classic
    two-pass broadcast shape: pass 1 reduces the corpus to ONE integer
    partial row per nation (n, sum cents, sum of squared cents — exact,
    summation-order-free), the tiny moment table broadcasts to pass 2
    which standardizes each row vectorized.  No shuffle ever carries fact
    rows; both passes stream.  Floats appear only in the final per-row
    (x - mean)/std, computed identically to the SQL twin and rounded to 6
    places on both sides."""
    cust = read_sf(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def _partials(t: pa.Table) -> pa.Table:
        cents = _to_cents(t.column("c_acctbal"))
        df = pd.DataFrame(
            {
                "c_nationkey": t.column("c_nationkey").to_numpy(zero_copy_only=False),
                "c": cents.to_numpy(zero_copy_only=False),
            }
        )
        df["c2"] = df["c"] * df["c"]
        g = (
            df.groupby("c_nationkey", sort=False)
            .agg(n=("c", "size"), s=("c", "sum"), ss=("c2", "sum"))
            .reset_index()
        )
        for col in ("n", "s", "ss"):
            g[col] = g[col].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    moments = (
        cust.map_batches(_partials, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Sum("ss", alias_name="ss"),
        )
        .to_pandas()
    )
    mean = {}
    std = {}
    for r in moments.itertuples():
        m = float(r.s) / float(r.n)
        var = float(r.ss) / float(r.n) - m * m
        mean[int(r.c_nationkey)] = m
        std[int(r.c_nationkey)] = float(np.sqrt(var))

    def _standardize(t: pa.Table) -> pa.Table:
        cents = (
            _to_cents(t.column("c_acctbal"))
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        nk = t.column("c_nationkey").to_numpy(zero_copy_only=False)
        mu = pd.Series(nk).map(mean).to_numpy(np.float64)
        sd = pd.Series(nk).map(std).to_numpy(np.float64)
        z = (cents - mu) / sd
        return pa.table(
            {
                "c_custkey": t.column("c_custkey"),
                "c_nationkey": pc.cast(t.column("c_nationkey"), pa.int32()),
                "zscore": pa.array(np.round(z, 6), pa.float64()),
            }
        )

    return cust.map_batches(_standardize, batch_format="pyarrow").sort("c_custkey")


def q_cohort_retention(sf_dir: str, num_parts: int = 32):
    """Cohort retention over the event stream: users are cohorted by their
    FIRST active calendar day; the output counts how many of each cohort
    were active again ``offset_days`` later — the standard growth-analytics
    triangle.

    ONE coarse user-hash shuffle resolves everything: each batch first
    collapses to its distinct (user, day) pairs (days as int64 epoch days —
    pure integer math), the pairs co-partition by user so a partition holds
    every day of its users, and the per-partition finalize is fully
    vectorized (drop_duplicates -> per-user transform('min') cohort ->
    offset -> local (cohort, offset) counts).  A final tiny groupby sums the
    per-partition cells.  Rows entering the local count are distinct
    user-days, so the count IS count-distinct-users; no cohort table is
    ever broadcast or driver-resident."""
    from ray.data.aggregate import Sum as _Sum

    from .grouping import partitioned_apply

    ev = read_sf(sf_dir, "events", columns=["user_id", "ts"])

    def _days(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": t.column("user_id").to_numpy(zero_copy_only=False),
                "day": pc.cast(t.column("ts"), pa.int64()).to_numpy() // 86_400_000_000,
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def _cells(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates(["user_id", "day"])
        cohort = part.groupby("user_id", sort=False)["day"].transform("min")
        out = (
            pd.DataFrame(
                {
                    "cohort_day": cohort.to_numpy(np.int64),
                    "offset_days": part["day"].to_numpy(np.int64) - cohort.to_numpy(np.int64),
                }
            )
            .groupby(["cohort_day", "offset_days"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        return out

    out = (
        partitioned_apply(
            ev.map_batches(_days, batch_format="pyarrow"), "user_id", _cells,
            num_parts=num_parts,
        )
        .groupby(["cohort_day", "offset_days"])
        .aggregate(_Sum("n_users", alias_name="n_users"))
        .to_pandas()
        .sort_values(["cohort_day", "offset_days"], kind="mergesort")
        .reset_index(drop=True)
    )
    # render the cohort key as a calendar date only at the output edge
    out["cohort_day"] = (
        out["cohort_day"].to_numpy(np.int64).astype("datetime64[D]").astype(str)
    )
    out["n_users"] = out["n_users"].astype(np.int64)
    return out


def q_snapshot_diff(sf_dir: str, num_parts: int = 32):
    """Snapshot diff / change-data-capture: given OLD and NEW versions of a
    keyed table, classify every key as added / removed / changed /
    unchanged — the MERGE-style reconciliation every incremental warehouse
    load runs.  Both snapshots derive deterministically from the orders
    table (old = keys not divisible by 101; new = keys not divisible by 97
    with price bumped by 1.00 where divisible by 89 — so added, removed AND
    changed keys all occur), and the operator runs on driver testdata with
    no synthetic inputs.

    Scale shape: the two snapshots stream through cheap side-tagging maps
    into ONE tagged union, a single coarse key-hash shuffle co-locates the
    <=2 rows per key, and the per-partition classify is fully vectorized
    (sort by key, side-count + value-compare via groupby-agg — no per-key
    Python).  Output is one row per non-unchanged key plus is-unchanged
    counts folded in as a summary-free detail table: (o_orderkey, change,
    old_cents, new_cents), sorted."""
    from .grouping import partitioned_apply

    orders = read_sf(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def _tag(side: str):
        def _f(t: pa.Table) -> pa.Table:
            k = pc.cast(t.column("o_orderkey"), pa.int64()).to_numpy()
            cents = _to_cents(t.column("o_totalprice")).to_numpy(zero_copy_only=False)
            if side == "old":
                sel = (k % 101) != 0
                k, cents = k[sel], cents[sel]
            else:
                sel = (k % 97) != 0
                k, cents = k[sel], cents[sel]
                cents = cents + np.where(k % 89 == 0, 100, 0)
            return pa.table(
                {
                    "o_orderkey": pa.array(k, pa.int64()),
                    "cents": pa.array(cents, pa.int64()),
                    "is_new": pa.array(np.full(len(k), side == "new"), pa.bool_()),
                }
            )

        return _f

    tagged = orders.map_batches(_tag("old"), batch_format="pyarrow").union(
        orders.map_batches(_tag("new"), batch_format="pyarrow")
    )

    def _classify(part: pd.DataFrame) -> pd.DataFrame:
        g = (
            part.assign(
                old_cents=np.where(part["is_new"], np.int64(-1), part["cents"]),
                new_cents=np.where(part["is_new"], part["cents"], np.int64(-1)),
            )
            .groupby("o_orderkey", sort=False)
            .agg(
                n=("is_new", "size"),
                old_cents=("old_cents", "max"),
                new_cents=("new_cents", "max"),
            )
            .reset_index()
        )
        change = np.where(
            g["n"] == 1,
            np.where(g["new_cents"] >= 0, "added", "removed"),
            np.where(g["old_cents"] != g["new_cents"], "changed", "unchanged"),
        )
        keep = change != "unchanged"
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].to_numpy(np.int64)[keep],
                "change": change[keep],
                "old_cents": g["old_cents"].to_numpy(np.int64)[keep],
                "new_cents": g["new_cents"].to_numpy(np.int64)[keep],
            }
        )

    return partitioned_apply(tagged, "o_orderkey", _classify, num_parts=num_parts).sort(
        "o_orderkey"
    )


def q_constraint_checks(sf_dir: str):
    """Declarative data-quality constraint suite over orders — the
    Deequ/dbt-test face every production pipeline runs before publishing a
    table.  Five constraint classes in ONE streaming pass + one combiner
    groupby, violations only ever counted, never materialized:

    * ``pk_unique``      — duplicate o_orderkey rows (total - distinct via a
                           key-count groupby; payload = distinct keys)
    * ``fk_customer``    — o_custkey missing from customer (build side
                           broadcast as a sorted key array, vectorized
                           searchsorted membership per batch)
    * ``nonnull_date``   — NULL o_orderdate (per-batch null_count partials)
    * ``range_price``    — o_totalprice <= 0
    * ``enum_status``    — o_orderstatus outside {F, O, P}

    Output: (rule, violations), sorted — a table the pipeline gate
    can assert against; identical aggregation shape at 100 TB."""
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Sum as _Sum

    cust_keys = np.sort(
        read_sf(sf_dir, "customer", columns=["c_custkey"])
        .to_pandas()["c_custkey"]
        .to_numpy(np.int64)
    )
    ref = ray.put(cust_keys)

    orders = read_sf(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice", "o_orderstatus"],
    )

    class _Partials:
        def __init__(self):
            self.cust = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ck = t.column("o_custkey").to_numpy(zero_copy_only=False)
            idx = np.searchsorted(self.cust, ck)
            idx_c = np.minimum(idx, len(self.cust) - 1)
            fk_bad = int((self.cust[idx_c] != ck).sum()) if len(self.cust) else len(ck)
            null_date = t.column("o_orderdate").null_count
            price_bad = int(
                pc.sum(
                    pc.cast(
                        pc.less_equal(t.column("o_totalprice"), pa.scalar(0.0)),
                        pa.int64(),
                    )
                ).as_py()
                or 0
            )
            # NOT IN ('F','O','P') is NULL for NULL status in SQL — exclude
            # nulls from the violation count so engine and oracle agree
            status_bad = int(
                len(t)
                - t.column("o_orderstatus").null_count
                - (
                    pc.sum(
                        pc.cast(
                            pc.is_in(
                                t.column("o_orderstatus"),
                                value_set=pa.array(["F", "O", "P"]),
                            ),
                            pa.int64(),
                        )
                    ).as_py()
                    or 0
                )
            )
            return pa.table(
                {
                    "rule": pa.array(
                        ["fk_customer", "nonnull_date", "range_price", "enum_status"]
                    ),
                    "violations": pa.array(
                        [fk_bad, null_date, price_bad, status_bad], pa.int64()
                    ),
                }
            )

    scalar = (
        orders.map_batches(_Partials, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("rule")
        .aggregate(_Sum("violations", alias_name="violations"))
        .to_pandas()
    )

    # pk_unique: duplicates = total - distinct keys (distinct via groupby)
    key_counts = (
        orders.select_columns(["o_orderkey"])
        .groupby("o_orderkey")
        .aggregate(_Count(alias_name="n"))
    )
    n_total = orders.count()
    n_distinct = key_counts.count()
    out = pd.concat(
        [
            scalar,
            pd.DataFrame(
                [{"rule": "pk_unique", "violations": n_total - n_distinct}]
            ),
        ],
        ignore_index=True,
    ).sort_values("rule", kind="mergesort").reset_index(drop=True)
    out["violations"] = out["violations"].astype(np.int64)
    return out


def q_group_regression(sf_dir: str):
    """Per-group OLS regression (value cents ~ hour-of-day per event_type) —
    the many-small-model trend-feature fit tabular prep pipelines run per
    segment.  Same exact-integer-moment shape as :func:`q_corr_partials`
    (combiner per batch + one C-path Sum groupby — the distributed payload
    is |groups| x 6 integers, never rows), but this operator FINISHES the
    fit: slope = (n*sxy - sx*sy) / (n*syy - sy^2) and intercept =
    (sx - slope*sy) / n, computed from the exact moments with the same
    expression tree as the SQL twin (DuckDB regr_slope/regr_intercept with
    x<->y roles: we regress value on hour) and rounded to 6 places on both
    sides.  Float appears only in this final O(|groups|) step."""
    moments = q_corr_partials(sf_dir).to_pandas()
    n = moments["n"].to_numpy(np.float64)
    sx = moments["sx"].to_numpy(np.float64)   # sum value cents (dependent)
    sy = moments["sy"].to_numpy(np.float64)   # sum hour (independent)
    syy = moments["syy"].to_numpy(np.float64)
    sxy = moments["sxy"].to_numpy(np.float64)
    slope = (n * sxy - sx * sy) / (n * syy - sy * sy)
    intercept = (sx - slope * sy) / n
    out = pd.DataFrame(
        {
            "event_type": moments["event_type"],
            "n": moments["n"].astype(np.int64),
            "slope": np.round(slope, 6),
            "intercept": np.round(intercept, 6),
        }
    )
    return out.sort_values("event_type", kind="mergesort").reset_index(drop=True)


def q_bootstrap_mean(sf_dir: str, reps: int = 200, seed: int = 5, alpha: float = 0.05):
    """Poisson-bootstrap confidence interval for the mean event value — the
    uncertainty-quantification primitive that classic resampling cannot do
    distributed (a true resample needs global coordination; the Poisson
    approximation gives each ROW an independent Poisson(1) weight per
    replicate, exact in distribution as n grows — the standard streaming
    bootstrap).

    Fully combiner-shaped: per batch, a deterministic splitmix64 hash of
    (event_id, replicate, seed) becomes a uniform, inverted through the
    Poisson(1) CDF table to a weight; the batch contributes one
    (replicate, sum_wx, sum_w) partial row per replicate — 2 x ``reps``
    numbers regardless of batch size — and one C-path groupby Sum merges
    them.  The driver finishes with the percentile interval over ``reps``
    replicate means.  Deterministic end to end (seeded hash, fixed reps).

    Output: one row (n, mean_cents, ci_lo_cents, ci_hi_cents).  No SQL twin
    (randomized estimator) — pinned by coverage + determinism tests."""
    # Poisson(1) CDF, k = 0..9 (1 - tail beyond 1e-7; weights cap at 10)
    _CDF = np.cumsum(np.exp(-1.0) / np.cumprod(np.r_[1.0, np.arange(1.0, 10.0)]))

    ev = read_sf(sf_dir, "events", columns=["event_id", "value"])

    def _splitmix(z: np.ndarray) -> np.ndarray:
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        return z ^ (z >> np.uint64(31))

    def _partials(t: pa.Table) -> pa.Table:
        x = _to_cents(t.column("value")).to_numpy(zero_copy_only=False).astype(np.float64)
        ids = pc.cast(t.column("event_id"), pa.int64()).to_numpy().astype(np.uint64)
        r = np.arange(reps, dtype=np.uint64)
        # (rows, reps) uniforms from one vectorized hash
        h = _splitmix(
            ids[:, None] * np.uint64(reps) + r[None, :] + np.uint64(seed) * np.uint64(0x1000003)
        )
        u = h.astype(np.float64) / float(1 << 64)
        w = np.searchsorted(_CDF, u).astype(np.float64)  # Poisson(1) draws
        out = pd.DataFrame(
            {
                "rep": np.arange(reps, dtype=np.int64),
                "swx": (w * x[:, None]).sum(axis=0),
                "sw": w.sum(axis=0),
                "n": np.full(reps, len(x), dtype=np.int64),
                "sx": np.full(reps, x.sum()),
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        ev.map_batches(_partials, batch_format="pyarrow")
        .groupby("rep")
        .aggregate(
            Sum("swx", alias_name="swx"),
            Sum("sw", alias_name="sw"),
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
        )
        .to_pandas()
        .sort_values("rep", kind="mergesort")
    )
    means = (agg["swx"] / agg["sw"]).to_numpy(np.float64)
    n_rows = int(agg["n"].iloc[0])
    mean = float(agg["sx"].iloc[0]) / n_rows
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return pd.DataFrame(
        [
            {
                "n": np.int64(n_rows),
                "mean_cents": round(mean, 4),
                "ci_lo_cents": round(float(lo), 4),
                "ci_hi_cents": round(float(hi), 4),
            }
        ]
    )


def late_event_flags(
    events,
    arrival_col: str = "akey",
    ts_col: str = "ts_us",
    allowed_lateness_us: int = 6 * 3600 * 1_000_000,
    bucket_hex: int = 2,
):
    """Watermark / late-data detection — the bounded-out-of-orderness
    semantics of a streaming engine (Flink's
    ``BoundedOutOfOrdernessWatermarks``), evaluated over a replayable log:
    processing events in ``arrival_col`` order, the watermark after each
    event is ``max(event time so far) - allowed_lateness``; an event is
    LATE when its event time is below the watermark established by the
    events STRICTLY before it (first arrival is never late).

    Scale shape: the running max over arrival order is the same two-phase
    prefix scan as the token-budget prefix SUM (`pipelines.dataprep`):
    bucket rows by the leading ``bucket_hex`` hex chars of the arrival key
    (lexicographic prefix => bucket order == key order), reduce one max
    scalar per bucket (driver holds 16^bucket_hex scalars), exclusive
    prefix-max on the driver, broadcast, then each bucket resolves its
    exact local running max in one vectorized partition pass.  The event
    log never collects anywhere; raise ``bucket_hex`` to keep buckets
    worker-sized at larger scales.

    ``arrival_col`` must be a string key with a total order and no
    duplicates (a real pipeline passes its ingestion sequence; the battery
    query derives a deterministic md5 permutation of event_id so the
    simulated arrival is engine/oracle-portable).  ``ts_col`` is int64
    event-time micros.  Output: (event_id, late 0/1) sorted by event_id.
    """
    from ray.data.aggregate import Max

    from .grouping import partitioned_apply

    _B = "__bucket"
    _SENTINEL = -(1 << 62)

    _lut = {format(i, f"0{bucket_hex}x"): i for i in range(16**bucket_hex)}

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[_B] = (
            df[arrival_col].str.slice(0, bucket_hex).map(_lut).astype(np.int64)
        )
        return df

    tagged = events.map_batches(_tag, batch_format="pandas").materialize()
    part = (
        tagged.groupby(_B)
        .aggregate(Max(ts_col, alias_name="_mx"))
        .to_pandas()
        .sort_values(_B)
    )
    mx = part["_mx"].to_numpy().astype(np.int64)
    carry = dict(
        zip(
            part[_B],
            np.concatenate(
                [[_SENTINEL], np.maximum.accumulate(mx)[:-1]]
            ).astype(np.int64),
        )
    )
    carry_ref = ray.put(carry)

    def _resolve(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(carry_ref)
        g = g.sort_values(arrival_col, kind="mergesort")
        ts = g[ts_col].to_numpy().astype(np.int64)
        out_rows = []
        for b, idx in g.groupby(_B, sort=True).indices.items():
            t = ts[idx]
            # watermark basis for row i: max(bucket carry, local rows < i)
            prev = np.concatenate([[off[b]], np.maximum.accumulate(t)[:-1]])
            basis = np.maximum(prev, off[b])
            late = (
                (basis != _SENTINEL)
                & (t < basis - allowed_lateness_us)
            ).astype(np.int64)
            out_rows.append(
                pd.DataFrame(
                    {
                        "event_id": g["event_id"].to_numpy()[idx],
                        "late": late,
                    }
                )
            )
        return pd.concat(out_rows, ignore_index=True)

    return partitioned_apply(tagged, _B, _resolve).sort("event_id")


def exact_group_quantiles(
    ds,
    key_col: str,
    val_col: str,
    qs=(0.5, 0.9),
    num_buckets: int = 1024,
    collect_threshold: int = 8192,
    max_passes: int = 8,
    rank_of=None,
):
    """EXACT per-group order-statistic quantiles by distributed selection —
    the exact twin of the mergeable t-digest sketch (q_tdigest_*): where
    the sketch trades accuracy for one pass, this finds the true element
    in a handful of passes and ZERO shuffles.

    Semantics are DuckDB's ``quantile_disc``: the answer is the element at
    0-indexed rank ``ceil(q*n) - 1`` of the sorted group, with the rank
    computed in EXACT integer arithmetic (q as a decimal Fraction — DuckDB
    treats the quantile literal as DECIMAL, so float rounding of q*n must
    never shift the rank; pinned by a 300-case randomized parity test).

    Scale shape (100 TB): iterative bucket refinement (the classic
    distributed k-th selection).  Each pass is ONE streaming map over the
    data emitting per-(group, q, bucket) count partials, pre-combined by a
    tiny groupby Sum; the driver holds only groups x len(qs) x num_buckets
    counters and narrows each (group, q) interval to the bucket containing
    its rank — log_B(n / collect_threshold) passes (2-3 at 10^12 rows),
    then one final pass collects the <= collect_threshold candidate values
    per survivor and picks the exact element.  The data NEVER shuffles and
    nothing row-sized ever reaches the driver.  Groups are assumed
    result-bounded (one output row per group — the q_constraint_checks
    contract); ranks recount "below interval" from scratch each pass, so
    no incremental bookkeeping can drift.  All-equal tails converge via
    lo == hi regardless of duplicate mass.  NaN/null values are dropped
    (the SQL aggregate contract).  int64 columns beyond 2^53 may tie-break
    differently under the float64 bucket comparisons (documented caveat;
    values themselves are returned exactly).

    Returns one row per group: (grp, n_rows, p<Q>...) with p-columns named
    from the decimal (0.5 -> p50, 0.99 -> p99, 0.999 -> p99_9).
    """
    from fractions import Fraction

    import ray.data as rd

    qs = list(qs)
    fracs = [Fraction(str(q)) for q in qs]

    def _pname(q) -> str:
        s = ("%g" % float(q)).split(".")
        if len(s) == 1:
            return f"p{int(s[0]) * 100}"
        digits = s[1]
        return "p" + (digits[:2].ljust(2, "0")) + (
            "_" + digits[2:] if len(digits) > 2 else ""
        )

    pnames = [_pname(q) for q in qs]

    base = ds.select_columns([key_col, val_col]).materialize()

    # ---- pass 0: per-group n / min / max (combiner partials) ----
    def _stats(df: pd.DataFrame) -> pd.DataFrame:
        v = pd.to_numeric(df[val_col], errors="coerce")
        d = pd.DataFrame({"g": df[key_col], "v": v}).dropna()
        g = d.groupby("g", sort=False)["v"]
        out = g.agg(n="count", lo="min", hi="max").reset_index()
        out["n"] = out["n"].astype(np.int64)
        return out

    st = (
        base.map_batches(_stats, batch_format="pandas")
        .to_pandas()
        .groupby("g", sort=False)
        .agg(n=("n", "sum"), lo=("lo", "min"), hi=("hi", "max"))
        .reset_index()
    )
    if not len(st):
        return rd.from_pandas(
            pd.DataFrame(
                {"grp": pd.Series([], dtype=object),
                 "n_rows": pd.Series([], dtype="int64"),
                 **{p: pd.Series([], dtype="float64") for p in pnames}}
            )
        )

    # state per (group, q): global 1-indexed rank k, interval [lo, hi]
    state = {}
    answers = {}
    for row in st.itertuples():
        for qi, f in enumerate(fracs):
            n = int(row.n)
            # default = DuckDB quantile_disc: 1-indexed rank ceil(q*n);
            # rank_of(n, Fraction) overrides (the quantile_cont wrapper's
            # floor/ceil-of-(n-1)q ranks ride the same machinery)
            if rank_of is None:
                k = -(-f.numerator * n // f.denominator)
            else:
                k = rank_of(n, f)
            k = max(1, min(n, k))
            if row.lo == row.hi:
                answers[(row.g, qi)] = row.lo
            else:
                state[(row.g, qi)] = (k, float(row.lo), float(row.hi))

    B = int(num_buckets)

    def _refine_pass(active: dict):
        """One streaming count pass; returns {(g, qi): (below, counts[B])}.

        The combine key packs (state_id, bucket) into ONE int64 and the
        reduce is a coarse partitioned_apply + local pandas combine — a
        Ray groupby aggregate over these few-thousand-key partials costs
        ~30 s of pure scheduling at sf0.1 (the q_doc_cosine cliff, single
        key or not; measured 29.9 s -> 4.5 s for this exact pass); total
        distinct keys are bounded by active x (num_buckets + 1), so the
        combined result is driver-small by construction."""
        order = list(active)
        act_ref = ray.put((order, active))

        def _counts(df: pd.DataFrame) -> pd.DataFrame:
            order_, act = ray.get(act_ref)
            v_all = pd.to_numeric(df[val_col], errors="coerce").to_numpy(
                np.float64
            )
            g_all = df[key_col].to_numpy()
            keys, cnts = [], []
            for sid, (g, qi) in enumerate(order_):
                _k, lo, hi = act[(g, qi)]
                sel = g_all == g
                v = v_all[sel]
                v = v[~np.isnan(v)]
                if not len(v):
                    continue
                below = int((v < lo).sum())
                ins = v[(v >= lo) & (v <= hi)]
                base_key = sid * (B + 1)
                if below:
                    keys.append(base_key)
                    cnts.append(below)
                if len(ins):
                    bnds = np.linspace(lo, hi, B + 1)
                    idx = np.searchsorted(bnds[1:-1], ins, side="right")
                    cnt = np.bincount(idx, minlength=B)
                    nz = np.flatnonzero(cnt)
                    keys.extend((base_key + 1 + nz).tolist())
                    cnts.extend(cnt[nz].tolist())
            return pd.DataFrame(
                {"k": pd.Series(keys, dtype="int64"),
                 "c": pd.Series(cnts, dtype="int64")}
            )

        from .grouping import partitioned_apply

        def _comb(part: pd.DataFrame) -> pd.DataFrame:
            return part.groupby("k", as_index=False, sort=False)["c"].sum()

        parts = partitioned_apply(
            base.map_batches(_counts, batch_format="pandas"),
            "k", _comb, num_parts=8,
        ).to_pandas()
        kk = parts["k"].to_numpy()
        cc = parts["c"].to_numpy()
        sids = kk // (B + 1)
        buckets = kk % (B + 1)  # 0 = below, 1..B = bucket+1
        out = {}
        for sid, (g, qi) in enumerate(order):
            m = sids == sid
            kb, kc = buckets[m], cc[m]
            below = int(kc[kb == 0].sum())
            counts = np.zeros(B, dtype=np.int64)
            inb = kb > 0
            counts[kb[inb] - 1] = kc[inb]
            out[(g, qi)] = (below, counts)
        return out

    def _collect(ready: dict):
        """Final pass for survivors: pull the <= collect_threshold in-range
        ORIGINAL values per (group, q) plus the exact below-count, sort on
        the driver, pick rank k - below."""
        ready_ref = ray.put(ready)

        def _gather(df: pd.DataFrame) -> pd.DataFrame:
            act = ray.get(ready_ref)
            raw = df[val_col].to_numpy()
            v_all = pd.to_numeric(df[val_col], errors="coerce").to_numpy(
                np.float64
            )
            g_all = df[key_col].to_numpy()
            rg, rq, rb, rv = [], [], [], []
            for (g, qi), (_k, lo, hi) in act.items():
                sel = g_all == g
                v = v_all[sel]
                ok = ~np.isnan(v)
                v = v[ok]
                below = int((v < lo).sum())
                ins_mask = (v >= lo) & (v <= hi)
                vals = raw[sel][ok][ins_mask]
                rg.append(g)
                rq.append(qi)
                rb.append(below)
                rv.append(list(vals))
            return pd.DataFrame(
                {"g": pd.Series(rg, dtype=df[key_col].dtype if rg else object),
                 "qi": pd.Series(rq, dtype="int64"),
                 "below": pd.Series(rb, dtype="int64"),
                 "vals": pd.Series(rv, dtype=object)}
            )

        parts = base.map_batches(_gather, batch_format="pandas").to_pandas()
        for (g, qi), grp in parts.groupby(["g", "qi"], sort=False):
            k = ready[(g, qi)][0]
            below = int(grp["below"].sum())
            chunks = [np.asarray(x) for x in grp["vals"] if len(x)]
            vals = np.sort(np.concatenate(chunks))
            answers[(g, qi)] = vals[k - below - 1]

    passes = 0
    while state and passes < max_passes:
        passes += 1
        res = _refine_pass(state)
        nxt, ready = {}, {}
        for (g, qi), (k, lo, hi) in state.items():
            below, counts = res.get((g, qi), (0, np.zeros(B, dtype=np.int64)))
            target = k - below  # rank within [lo, hi]
            cum = np.cumsum(counts)
            j = int(np.searchsorted(cum, target))
            bnds = np.linspace(lo, hi, B + 1)
            nlo = float(bnds[j]) if j > 0 else lo
            nhi = float(bnds[j + 1]) if j < B - 1 else hi
            inside = int(counts[j])
            if nlo == nhi:
                answers[(g, qi)] = nlo
            elif inside <= collect_threshold:
                ready[(g, qi)] = (k, nlo, nhi)
            else:
                nxt[(g, qi)] = (k, nlo, nhi)
        if ready:
            _collect(ready)
        state = nxt
    if state:  # max_passes fallback: collect whatever remains
        _collect(state)

    # ---- assemble: one row per group, original group order sorted ----
    st_sorted = st.sort_values("g").reset_index(drop=True)
    out = {"grp": st_sorted["g"], "n_rows": st_sorted["n"].astype(np.int64)}
    for qi, p in enumerate(pnames):
        out[p] = [answers[(g, qi)] for g in st_sorted["g"]]
    return rd.from_pandas(pd.DataFrame(out))


def _grouping_sets_aggregate(
    ds,
    keys: list[str],
    sets: list[tuple],
    sum_cols: list[str],
    all_label: str = "ALL",
    count_alias: str = "n_rows",
):
    """Shared kernel for :func:`rollup_aggregate` / :func:`cube_aggregate`
    (GROUPING SETS): the DATA aggregates exactly ONCE at the finest level
    (per-batch int64 combiner groupby); every other grouping set
    re-aggregates the FINEST RESULT — bounded by distinct key combos,
    orders of magnitude smaller than the data (the classic rollup/cube
    optimization; |sets|-1 tiny shuffles + one scalar pass for the empty
    set, never a second data scan).  Measures must be int64-exact
    (cents/micro domain), so aggregating aggregates is bit-identical to
    aggregating rows.  ``sets`` must include the full key tuple; rolled-up
    key columns fill ``all_label`` (the COALESCE sentinel contract —
    ``keys`` are string columns with no NULLs and no ``all_label``
    values).  Returns (keys..., sum_cols..., count_alias); unsorted."""
    import ray.data as rd

    full = tuple(keys)
    sets = [tuple(s) for s in sets]
    if full not in sets:
        raise ValueError("grouping sets must include the full key tuple")

    aggs = [Sum(c, alias_name=c) for c in sum_cols]
    finest = (
        ds.groupby(keys)
        .aggregate(*aggs, Count(alias_name=count_alias))
        .materialize()
    )
    meas = [*sum_cols, count_alias]
    out_cols = [*keys, *meas]

    def _norm(filled: tuple):
        """Normalize a level block: fill rolled-up keys, fix column order,
        absorb the zero-column empty blocks hash-shuffle groupbys emit."""

        def _f(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.schema(
                    [(k, pa.string()) for k in keys]
                    + [(m, pa.int64()) for m in meas]
                ).empty_table()
            cols = {}
            for k in keys:
                if k in filled:
                    cols[k] = pa.array([all_label] * len(t), pa.string())
                else:
                    cols[k] = pc.cast(t.column(k), pa.string())
            for m in meas:
                cols[m] = pc.cast(t.column(m), pa.int64())
            return pa.table({c: cols[c] for c in out_cols})

        return _f

    levels = [finest.map_batches(_norm(()), batch_format="pyarrow")]
    need_grand = False
    for s in sets:
        if s == full:
            continue
        if not s:
            need_grand = True
            continue
        filled = tuple(k for k in keys if k not in s)
        lvl = (
            finest.groupby(list(s))
            .aggregate(*[Sum(m, alias_name=m) for m in meas])
            .map_batches(_norm(filled), batch_format="pyarrow")
        )
        levels.append(lvl)

    if need_grand:
        # grand total: per-block partial sums -> one driver add (scalars)
        def _block_tot(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.table(
                    {m: pa.array([0], pa.int64()) for m in meas}
                )
            return pa.table(
                {m: pa.array([pc.sum(t.column(m)).as_py() or 0], pa.int64())
                 for m in meas}
            )

        tot = finest.map_batches(_block_tot, batch_format="pyarrow").to_pandas()
        grand = pa.table(
            {
                **{k: pa.array([all_label], pa.string()) for k in keys},
                **{m: pa.array([int(tot[m].sum())], pa.int64())
                   for m in meas},
            }
        ).select(out_cols)
        levels.append(rd.from_arrow(grand))

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def rollup_aggregate(
    ds,
    keys: list[str],
    sum_cols: list[str],
    all_label: str = "ALL",
    count_alias: str = "n_rows",
):
    """GROUP BY ROLLUP(keys...) — hierarchical subtotals (the OLAP
    drill-down face): one row per finest group, per prefix-level
    subtotal, and the grand total.  Thin wrapper over
    :func:`_grouping_sets_aggregate` (see its docstring for the
    one-data-pass scale shape and the int64/'ALL'-sentinel contracts)."""
    sets = [tuple(keys[:i]) for i in range(len(keys), -1, -1)]
    return _grouping_sets_aggregate(
        ds, keys, sets, sum_cols, all_label, count_alias
    )


def cube_aggregate(
    ds,
    keys: list[str],
    sum_cols: list[str],
    all_label: str = "ALL",
    count_alias: str = "n_rows",
):
    """GROUP BY CUBE(keys...) — every one of the 2^k grouping sets (the
    full OLAP cross-tab).  Same one-data-pass shape as
    :func:`rollup_aggregate`: the 2^k - 1 coarser sets all re-aggregate
    the finest result, so the data cost is independent of k."""
    from itertools import combinations

    sets = [
        tuple(c)
        for r in range(len(keys), -1, -1)
        for c in combinations(keys, r)
    ]
    return _grouping_sets_aggregate(
        ds, keys, sets, sum_cols, all_label, count_alias
    )




def pivot_aggregate(
    ds,
    index_col: str,
    pivot_col: str,
    val_col: str,
    categories: list[str] | None = None,
):
    """Long -> wide pivot with int64 Sum cells — the reshape twin of
    ``textstats.unpivot_stats``: one output row per ``index_col`` value,
    one int64 column per ``pivot_col`` category (sorted), cells are the
    exact sums of ``val_col`` (0 where the combination is absent), plus
    ``n_rows``.

    Scale shape (100 TB): the long table aggregates ONCE by the packed
    (index, category) pair (per-batch int64 combiner partials + one
    groupby Sum); the widen step is a partition-local pandas pivot inside
    ONE coarse hash partition on the index key (every category cell of an
    index row is already co-located because the groupby keyed on index
    first) — categories are column-bounded by contract (the pivot width
    IS the output schema), discovered with one tiny distinct pass when
    not given.  Category values must be strings usable as column names;
    ``n_rows`` counts the long rows per index (collision with a category
    named 'n_rows' is rejected)."""
    from .grouping import partitioned_apply

    if categories is None:
        cats_pd = (
            ds.select_columns([pivot_col])
            .groupby(pivot_col)
            .aggregate(Count(alias_name="_c"))
            .to_pandas()
        )
        categories = sorted(str(c) for c in cats_pd[pivot_col])
    else:
        categories = sorted(str(c) for c in categories)
    if "n_rows" in categories or index_col == "n_rows":
        raise ValueError("'n_rows' collides with the count column")

    def _prep(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "idx": t.column(index_col).to_pandas(),
                "cat": t.column(pivot_col).to_pandas().astype(str),
                "v": pd.to_numeric(
                    t.column(val_col).to_pandas(), errors="coerce"
                ).fillna(0).astype(np.int64),
            }
        )
        g = df.groupby(["idx", "cat"], sort=False, as_index=False).agg(
            v=("v", "sum"), n=("v", "size")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    long = (
        ds.select_columns([index_col, pivot_col, val_col])
        .map_batches(_prep, batch_format="pyarrow")
    )

    cats = list(categories)

    def _widen(part: pd.DataFrame) -> pd.DataFrame:
        if not len(part):
            out = pd.DataFrame(
                {index_col: pd.Series([], dtype=object),
                 **{c: pd.Series([], dtype="int64") for c in cats},
                 "n_rows": pd.Series([], dtype="int64")}
            )
            return out
        comb = part.groupby(["idx", "cat"], sort=False, as_index=False).agg(
            v=("v", "sum"), n=("n", "sum")
        )
        wide = (
            comb.pivot_table(
                index="idx", columns="cat", values="v",
                aggfunc="sum", fill_value=0,
            )
            .reindex(columns=cats, fill_value=0)
            .astype(np.int64)
        )
        nr = comb.groupby("idx", sort=False)["n"].sum().astype(np.int64)
        wide["n_rows"] = nr
        wide.index.name = index_col
        out = wide.reset_index()
        out.columns = [index_col, *cats, "n_rows"]
        return out

    return partitioned_apply(long, "idx", _widen, num_parts=64)


def q_string_agg_names(sf_dir: str, num_parts: int = 16):
    """Ordered string aggregation (SQL LISTAGG / string_agg): per nation,
    the name-sorted comma-joined list of its customer names.

    Shape: ONE coarse hash shuffle of only the two needed columns (a key's
    rows never split), then a single vectorized sort + groupby-join per
    partition — no per-group Python dispatch.  LISTAGG's output row is
    group-sized BY DEFINITION, so the operator's scale contract is the
    standard one: groups must individually fit a worker (the same contract
    every SQL engine's LISTAGG carries); the corpus-wide state is never
    driver-resident and partitions bound reducer memory via ``num_parts``.
    Reference analog: the ordered line-joins of the CoNLL/NER sinks
    (/root/reference/batched_main_NER.py:543-550) lifted to a grouped
    aggregate."""
    from .grouping import partitioned_apply

    cust = read_sf(sf_dir, "customer", columns=["c_nationkey", "c_name"])

    def _agg(part: pd.DataFrame) -> pd.DataFrame:
        if not len(part):
            return pd.DataFrame(
                {
                    "c_nationkey": pd.Series([], dtype="int32"),
                    "names": pd.Series([], dtype=object),
                }
            )
        part = part.sort_values(["c_nationkey", "c_name"], kind="mergesort")
        g = (
            part.groupby("c_nationkey", sort=True)["c_name"]
            .agg(",".join)
            .rename("names")
            .reset_index()
        )
        g["c_nationkey"] = g["c_nationkey"].astype(np.int32)
        return g

    return partitioned_apply(cust, "c_nationkey", _agg, num_parts=num_parts).sort(
        "c_nationkey"
    )


def quantile_cont_by_group(ds, key_col: str, val_col: str, qs=(0.5, 0.9), **kw):
    """Interpolated per-group quantiles (SQL ``quantile_cont`` /
    PERCENTILE_CONT): ``v[floor(r)] + (r - floor(r)) * (v[ceil(r)] -
    v[floor(r)])`` at ``r = q * (n - 1)`` — the continuous twin of
    :func:`exact_group_quantiles` (which is ``quantile_disc``).

    Rides the SAME distributed-selection machinery twice (floor and ceil
    ranks via ``rank_of``): the data still never shuffles and nothing
    row-sized reaches the driver; pass count simply doubles.  ``r`` and
    the interpolation run in float64 exactly as DuckDB computes them
    (``r = (double)q * (n-1)``, ``lo + frac * (hi - lo)``), so results
    hash-match the oracle after its ROUND.

    Returns one row per group: (grp, n_rows, p<Q>... float64).
    """
    import math

    qs = list(qs)

    def _rank_lo(n: int, f) -> int:
        return int(math.floor(float(f) * (n - 1))) + 1

    def _rank_hi(n: int, f) -> int:
        return int(math.ceil(float(f) * (n - 1))) + 1

    lo = (
        exact_group_quantiles(ds, key_col, val_col, qs, rank_of=_rank_lo, **kw)
        .to_pandas()
        .sort_values("grp")
        .reset_index(drop=True)
    )
    hi = (
        exact_group_quantiles(ds, key_col, val_col, qs, rank_of=_rank_hi, **kw)
        .to_pandas()
        .sort_values("grp")
        .reset_index(drop=True)
    )
    import ray.data as rd

    out = lo[["grp", "n_rows"]].copy()
    pnames = [c for c in lo.columns if c not in ("grp", "n_rows")]
    n_arr = lo["n_rows"].to_numpy(np.int64)
    for q, p in zip(qs, pnames):
        r = np.float64(q) * (n_arr - 1).astype(np.float64)
        frac = r - np.floor(r)
        a = lo[p].to_numpy(np.float64)
        b = hi[p].to_numpy(np.float64)
        out[p] = a + frac * (b - a)
    return rd.from_pandas(out)


def q_ohlc_events(sf_dir: str, num_parts: int = 16):
    """OHLC time-bucket resampling (the financial downsample face of the
    window family): per (event_type, hour bucket) — open (value at the
    earliest event), high, low, close (value at the latest event), count.

    Shape: integer cent values PACK with the within-bucket microsecond
    offset into ONE int64 ((off_us << 16) | cents — off < 2^32, cents <
    2^16 on this domain, asserted), so open/close become plain Min/Max
    aggregates (the :func:`dedup.keep_best` packing idiom): per-batch
    pandas combiner partials, ONE coarse key shuffle, vectorized
    per-partition merge — the stream never sorts and nothing row-sized
    reaches the driver.  Tie rule (same timestamp): MIN cents for open /
    MAX cents for close — deterministic on both engines by construction
    (DuckDB's bare arg_min/arg_max tie choice is engine-internal, the
    packed form is not).
    """
    from .grouping import partitioned_apply

    ev = read_sf(sf_dir, "events", columns=["event_type", "ts", "value"])

    def _partials(t: pa.Table) -> pd.DataFrame:
        # normalize to µs precision (parquet may carry ns) so the offset
        # fits the 32-bit pack budget
        ts_col = pc.cast(t.column("ts"), pa.timestamp("us"))
        ts_us = pc.cast(ts_col, pa.int64())
        bucket = pc.floor_temporal(ts_col, unit="hour")
        bucket_us = pc.cast(bucket, pa.int64())
        off = pc.subtract(ts_us, bucket_us).to_numpy(zero_copy_only=False)
        cents = (
            pc.cast(pc.floor(pc.multiply(t.column("value"), 100.0)), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        assert (off < (1 << 32)).all() and (cents < (1 << 16)).all() and (
            cents >= 0
        ).all(), "OHLC packing domain exceeded"
        pack = (off << 16) | cents
        df = pd.DataFrame(
            {
                "event_type": t.column("event_type").to_numpy(
                    zero_copy_only=False
                ),
                "bucket": pc.strftime(bucket, format="%Y-%m-%d %H:00:00")
                .to_numpy(zero_copy_only=False),
                "pack": pack,
                "cents": cents,
            }
        )
        g = df.groupby(["event_type", "bucket"], sort=False).agg(
            op=("pack", "min"),
            cp=("pack", "max"),
            low_cents=("cents", "min"),
            high_cents=("cents", "max"),
            n_rows=("cents", "size"),
        ).reset_index()
        g["n_rows"] = g["n_rows"].astype(np.int64)
        return g

    def _merge(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["event_type", "bucket"], sort=True).agg(
            op=("op", "min"),
            cp=("cp", "max"),
            low_cents=("low_cents", "min"),
            high_cents=("high_cents", "max"),
            n_rows=("n_rows", "sum"),
        ).reset_index()
        out = pd.DataFrame(
            {
                "event_type": g["event_type"],
                "bucket": g["bucket"],
                "open_cents": (g["op"] & 0xFFFF).astype(np.int64),
                "high_cents": g["high_cents"].astype(np.int64),
                "low_cents": g["low_cents"].astype(np.int64),
                "close_cents": (g["cp"] & 0xFFFF).astype(np.int64),
                "n_rows": g["n_rows"].astype(np.int64),
            }
        )
        return out

    return partitioned_apply(
        ev.map_batches(_partials, batch_format="pyarrow"),
        ["event_type", "bucket"],
        _merge,
        num_parts=num_parts,
    ).sort(["event_type", "bucket"])


def q_merge_upsert(sf_dir: str, num_parts: int = 32):
    """MERGE INTO / upsert apply — the lakehouse write path (Delta/Iceberg
    MERGE, Hudi upsert): apply a change set of UPDATE / DELETE / INSERT
    rows to a keyed base table in one reconciling pass.

    The change set derives deterministically from the orders table so the
    operator runs on driver testdata (the :func:`q_snapshot_diff` recipe):
    key%10==3 -> UPDATE (price + 1000.00), key%10==7 -> DELETE,
    key%10==1 -> INSERT of a fresh key (key + 10^9, price + 0.50).

    Scale shape: base and changes stream through cheap side-tagging maps
    into ONE tagged union; a single coarse key-hash shuffle co-locates the
    <= 2 rows per key; the per-partition resolve is fully vectorized
    (stable sort by (key, is_change), keep-last per key, drop deletes) —
    no per-key Python, nothing table-sized on the driver.  Output:
    (o_orderkey, cents, src in {base, update, insert}), sorted by key.
    """
    from .grouping import partitioned_apply

    orders = read_sf(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def _tag_base(t: pa.Table) -> pd.DataFrame:
        k = pc.cast(t.column("o_orderkey"), pa.int64()).to_numpy()
        cents = _to_cents(t.column("o_totalprice")).to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {"k": k, "cents": cents, "op": np.int8(0)}  # 0 = base
        )

    def _tag_changes(t: pa.Table) -> pd.DataFrame:
        k = pc.cast(t.column("o_orderkey"), pa.int64()).to_numpy()
        cents = _to_cents(t.column("o_totalprice")).to_numpy(zero_copy_only=False)
        upd = k % 10 == 3
        dele = k % 10 == 7
        ins = k % 10 == 1
        return pd.DataFrame(
            {
                "k": np.concatenate([k[upd], k[dele], k[ins] + 1_000_000_000]),
                "cents": np.concatenate(
                    [cents[upd] + 100_000, cents[dele], cents[ins] + 50]
                ),
                "op": np.concatenate(
                    [
                        np.full(int(upd.sum()), 1, dtype=np.int8),   # update
                        np.full(int(dele.sum()), 2, dtype=np.int8),  # delete
                        np.full(int(ins.sum()), 3, dtype=np.int8),   # insert
                    ]
                ),
            }
        )

    tagged = orders.map_batches(_tag_base, batch_format="pyarrow").union(
        orders.map_batches(_tag_changes, batch_format="pyarrow")
    )

    _SRC = {0: "base", 1: "update", 3: "insert"}

    def _resolve(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["k", "op"], kind="mergesort")
        # change rows (op > 0) sort after base -> keep-last applies them
        part = part.drop_duplicates("k", keep="last")
        part = part[part["op"] != 2]
        return pd.DataFrame(
            {
                "o_orderkey": part["k"].to_numpy(np.int64),
                "cents": part["cents"].to_numpy(np.int64),
                "src": part["op"].map(_SRC).to_numpy(object),
            }
        )

    return partitioned_apply(tagged, "k", _resolve, num_parts=num_parts).sort(
        "o_orderkey"
    )
