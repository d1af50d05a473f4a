"""Distributed KG stages: entity linking, canonicalization, adjacency.

Shuffle discipline (SURVEY.md §7):
* entity linking  — BROADCAST join in stateless map tasks: each worker
                    process builds (or ray.get's) the descriptor vocabulary
                    once and caches it per vocab_ref; no shuffle, no actor
                    pool to start per run.
* canonicalization— two-phase salted aggregate: a per-batch combiner reduces
                    each batch to distinct (surface_norm, etype) partial
                    counts, a salt column splits head surfaces across
                    reducers, then a small groupby merges partials.  The raw
                    mention stream is never shuffled.
* adjacency       — one coarse hash shuffle on subj_id (the only
                    unavoidable wide op); each partition is resolved with a
                    single sort + groupby-agg emitting one adjacency row per
                    entity, neighbors sorted deterministically.

The canonicalization shuffles use, and the adjacency shuffle defaults to,
one partition per logical CPU of the cluster (:func:`cluster_cpus`): a fixed
64-way fan-out costs ~64 reducer calls per shuffle whatever the input size.
"""

from __future__ import annotations

import uuid
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import DEFAULT_CONFIG, PipelineConfig


class EntityLinker:
    """Broadcast-join mentions against the descriptor vocabulary (engine
    analog of the reference's labeled-vocab lookup, D15 + main_NER.py:640-642;
    unlinked mentions mirror the CI-harvest side channel,
    batched_main_NER.py:147-153)."""

    def __init__(self, vocab_ref=None):
        from ..assets import build_vocab

        self.vocab = ray.get(vocab_ref) if vocab_ref is not None else build_vocab()

    def __call__(self, batch: pa.Table) -> pa.Table:
        # vectorized on the common path: ONE dict lookup per DISTINCT surface
        # in the batch (mention streams repeat surfaces heavily), broadcast
        # back through the dictionary codes; the multi-word fallback loop
        # only ever touches distinct misses that contain a space.
        import pyarrow.compute as pc

        enc = pc.dictionary_encode(batch.column("surface_norm").combine_chunks())
        uniq = enc.dictionary.to_pylist()
        vocab = self.vocab
        u_types: list[list[str]] = []
        u_linked = np.zeros(len(uniq), dtype=bool)
        for i, s in enumerate(uniq):
            hit = vocab.get(s)
            if hit is None and " " in s:
                for w in s.split():
                    hit = vocab.get(w)
                    if hit is not None:
                        break
            if hit is None:
                u_types.append([])
            else:
                u_types.append(hit[0])
                u_linked[i] = True
        codes = enc.indices.to_numpy(zero_copy_only=False)
        linked_types = [u_types[c] for c in codes]
        return batch.append_column(
            "linked_types", pa.array(linked_types, pa.list_(pa.string()))
        ).append_column("linked", pa.array(u_linked[codes]))


# per-process EntityLinker cache: None (built-in vocabulary) or the
# vocab_ref's object id -> linker.  Ray keeps idle workers, so a later run's
# link tasks skip the vocabulary build.
_LINKERS: dict = {}


def _linker(vocab_ref=None) -> EntityLinker:
    key = None if vocab_ref is None else vocab_ref.binary()
    if key not in _LINKERS:
        _LINKERS[key] = EntityLinker(vocab_ref)
    return _LINKERS[key]


def _link_batch(batch: pa.Table, vocab_ref=None) -> pa.Table:
    return _linker(vocab_ref)(batch)


def link_mentions(mentions, vocab_ref=None):
    """mentions Dataset -> + linked_types/linked columns (broadcast join in
    stateless tasks, which fuse with the upstream mention explode)."""
    return mentions.map_batches(
        _link_batch, fn_kwargs={"vocab_ref": vocab_ref}, batch_format="pyarrow"
    )


def cluster_cpus() -> int:
    """Logical CPUs of the connected Ray cluster, at least 1 — the default
    partition count of the KG shuffles."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def pagerank(
    triples,
    damping: float = 0.85,
    iters: int = 20,
    tol: float = 1e-12,
    num_partitions: int = 16,
    broadcast_threshold: int = 2_000_000,
    personalization: dict | None = None,
):
    """Distributed PageRank by power iteration with two regimes chosen by
    node count — neither keeps a dense per-batch vector or an id dict, and
    the at-scale path keeps NO node-sized state on the driver at all (the
    north_rule's 10^12-doc graph has >=10^8 entities).

    * ``n <= broadcast_threshold`` (node table is a classic SMALL side):
      the (node_id, outdeg) table and rank vector live with the driver, the
      per-source weight series is ``ray.put`` once per iteration, and each
      iteration is ONE streaming map over the edge dataset whose per-batch
      output is already pre-summed per destination (np-free combiner via
      pandas groupby) — no shuffle at all.
    * above the threshold: node ids stay a Dataset end-to-end — the
      edges-x-weights pairing is a co-partitioned union merge (one hash
      shuffle on the source key, vectorized pandas merge per partition;
      Dataset.join/Acero is avoided because a sparse-key join partition can
      receive rows on only one side, which Ray 2.49 hands to pyarrow as a
      schema-less empty table), the reduce is ``groupby("node_id")`` Sum
      over pre-combined partials, and the rank update union-merges back
      onto the node table.  Only scalars (n, dangling mass, L1 delta) ever
      reach the driver.

    Both regimes are the same algorithm — a forced-path equivalence test
    pins them equal bit-for-bit.  Dangling mass redistributes uniformly
    (or over the teleport set when personalized).

    ``personalization`` makes this PERSONALIZED PageRank — the entity-
    relatedness ranking KGs run around seed entities: teleport mass
    concentrates on the given ``{node_id: weight}`` seed set (normalized
    here) instead of 1/n.  A seed set is small by definition, so it
    broadcasts via ``ray.put`` into both regimes — the at-scale path still
    keeps no node-sized driver state.  Returns a Dataset (node_id, rank);
    ranks sum to 1.
    """
    import pyarrow.compute as pc
    import ray.data as rd

    from ray.data.aggregate import Count, Sum

    # Ray's hash-shuffle groupby emits ZERO-COLUMN empty blocks for
    # partitions that received no keys (common when the key count is below
    # num_partitions); every UDF consuming a groupby/join output must
    # normalize them to its real schema or downstream union/join breaks.
    _CARRIER = pa.schema(
        [("node_id", pa.string()), ("v", pa.float64()),
         ("outdeg", pa.int64()), ("old", pa.float64())]
    )

    edges = triples.map_batches(
        lambda t: pa.table({"s": t.column("subj_id"), "o": t.column("obj_id")}),
        batch_format="pyarrow",
    ).materialize()
    edges = _coalesce_for_iteration(edges, num_partitions)

    def _outdeg_carrier(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _CARRIER.empty_table()
        return pa.table(
            {
                "node_id": pc.cast(t.column("s"), pa.string()),
                "v": pa.array(np.zeros(len(t)), pa.float64()),
                "outdeg": pc.cast(t.column("outdeg"), pa.int64()),
                "old": pa.array(np.zeros(len(t)), pa.float64()),
            }
        )

    def _node_carrier(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _CARRIER.empty_table()
        return pa.table(
            {
                "node_id": pc.cast(t.column("node_id"), pa.string()),
                "v": pa.array(np.zeros(len(t)), pa.float64()),
                "outdeg": pa.array(np.zeros(len(t), dtype=np.int64)),
                "old": pa.array(np.zeros(len(t)), pa.float64()),
            }
        )

    outdeg_rows = (
        edges.groupby("s")
        .aggregate(Count(alias_name="outdeg"))
        .map_batches(_outdeg_carrier, batch_format="pyarrow")
    )
    node_rows = (
        edges.map_batches(
            lambda t: pa.table(
                {
                    "node_id": pa.concat_arrays(
                        [t.column("s").combine_chunks(), t.column("o").combine_chunks()]
                    ).unique()
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("node_id")
        .aggregate(Count(alias_name="_n"))
        .map_batches(_node_carrier, batch_format="pyarrow")
    )
    # node table (node_id, outdeg) via a union + Sum merge (zero rows give
    # every node a row; outdeg rows add the true degree)
    nodes = (
        node_rows.union(outdeg_rows)
        .groupby("node_id")
        .aggregate(Sum("outdeg", alias_name="outdeg"))
        .materialize()
    )
    nodes = _coalesce_for_iteration(nodes, num_partitions)
    n = nodes.count()
    if n == 0:
        return rd.from_pandas(pd.DataFrame({"node_id": [], "rank": []}))

    seeds = None
    if personalization:
        # normalize over seeds actually PRESENT in the graph — absent seeds
        # would silently drop their teleport mass and ranks would no longer
        # sum to 1.  Membership check is bounded by |seeds| rows: filter the
        # node table to the seed keys (streaming pass, tiny result).
        seed_keys = [str(k) for k in personalization]
        seed_set = pa.array(seed_keys, pa.string())

        def _seed_hits(t: pa.Table) -> pa.Table:
            # hash-shuffle groupbys emit ZERO-COLUMN blocks for empty
            # partitions — normalize before selecting
            if "node_id" not in t.column_names:
                return pa.table({"node_id": pa.array([], pa.string())})
            return t.select(["node_id"]).filter(
                pc.is_in(t.column("node_id"), value_set=seed_set)
            )

        hits_df = nodes.map_batches(_seed_hits, batch_format="pyarrow").to_pandas()
        # an all-empty result can come back column-less from to_pandas
        present = set(hits_df["node_id"]) if "node_id" in hits_df.columns else set()
        live = {str(k): float(v) for k, v in personalization.items() if str(k) in present}
        if not live:
            raise ValueError("no personalization seed is present in the graph")
        total_w = float(sum(live.values()))
        if total_w <= 0:
            raise ValueError("personalization weights must sum to > 0")
        seeds = {k: v / total_w for k, v in live.items()}

    if n <= broadcast_threshold:
        return _pagerank_broadcast_regime(edges, nodes, n, damping, iters, tol, seeds)
    return _pagerank_shuffle_regime(
        edges, nodes, n, damping, iters, tol, num_partitions, _CARRIER, seeds
    )


def _coalesce_for_iteration(ds, min_blocks: int, target_block_bytes: int = 128 << 20):
    """Bound the block count of a Dataset that an ITERATIVE loop will re-scan
    every round.  Inherited micro-blocking (e.g. ``from_items`` emitting one
    block per handful of rows) multiplies per-iteration task overhead by the
    block count — a 300-edge graph arrived here as 200 blocks and each power
    iteration's two groupbys fanned into ~1000 near-empty tasks (~3 min/iter
    on one core).  Target ~``target_block_bytes`` blocks with a floor of
    ``min_blocks`` so real 100 TB inputs (thousands of already-full blocks)
    are left untouched — coalescing those would serialize the cluster."""
    nb = ds.num_blocks()
    size = ds.size_bytes() or 0
    target = max(min_blocks, -(-size // target_block_bytes))
    if nb > target * 2:
        return ds.repartition(target).materialize()
    return ds


def _pagerank_broadcast_regime(edges, nodes, n, damping, iters, tol, seeds=None):
    """Small-node-count regime: rank vector with the driver (same bound as
    broadcasting it), ONE shuffle-free edges pass per iteration, per-batch
    partial sums as the combiner."""
    import ray.data as rd

    nd = nodes.to_pandas()
    node_index = pd.Index(nd["node_id"])
    outdeg = nd["outdeg"].to_numpy().astype(np.float64)
    active = outdeg > 0
    if seeds is None:
        tele = np.full(n, 1.0 / n)
    else:
        tele = node_index.map(seeds).fillna(0.0).to_numpy(np.float64)
    r = tele.copy()
    _P = pa.schema([("node_id", pa.string()), ("v", pa.float64())])
    for _ in range(iters):
        w_ser = pd.Series(r[active] / outdeg[active], index=node_index[active])
        w_ref = ray.put(w_ser)

        def _bc_contrib(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return _P.empty_table()
            ws = ray.get(w_ref)
            sv = ws.reindex(t.column("s").to_pandas()).to_numpy()
            df = pd.DataFrame({"node_id": t.column("o").to_pandas(), "v": sv})
            df = df[~np.isnan(df["v"])]
            p = df.groupby("node_id", sort=False)["v"].sum().reset_index()
            return pa.table(
                {
                    "node_id": pa.array(p["node_id"], pa.string()),
                    "v": pa.array(p["v"].to_numpy(), pa.float64()),
                }
            )

        parts = edges.map_batches(_bc_contrib, batch_format="pyarrow").to_pandas()
        c = (
            parts.groupby("node_id", sort=False)["v"].sum()
            .reindex(node_index).fillna(0.0).to_numpy()
        )
        dangling = float(r[~active].sum())
        if seeds is None:
            # keep the scalar form — bit-identical to the shuffle regime
            new = (1.0 - damping) / n + damping * (c + dangling / n)
        else:
            new = (1.0 - damping) * tele + damping * (c + dangling * tele)
        delta = float(np.abs(new - r).sum())
        r = new
        if delta < tol:
            break
    return rd.from_pandas(pd.DataFrame({"node_id": nd["node_id"], "rank": r}))


def _pagerank_shuffle_regime(
    edges, nodes, n, damping, iters, tol, num_partitions, _CARRIER, seeds=None
):
    """At-scale regime: no node-sized driver state; 2 bounded shuffles per
    iteration over pre-combined partials.  ``seeds`` (personalized teleport,
    already normalized) rides along as a small broadcast dict — looked up
    vectorized in the init and update maps, never a node-sized column."""
    import ray

    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .grouping import partitioned_apply

    seeds_ref = ray.put(seeds)

    _RANKS = pa.schema(
        [("node_id", pa.string()), ("rank", pa.float64()), ("outdeg", pa.int64())]
    )
    _MERGE = pa.schema(
        [("key", pa.string()), ("o", pa.string()),
         ("w", pa.float64()), ("is_w", pa.int8())]
    )

    def _init_ranks(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _RANKS.empty_table()
        sd = ray.get(seeds_ref)
        if sd is None:
            init = np.full(len(t), 1.0 / n)
        else:
            init = (
                t.column("node_id").to_pandas().map(sd).fillna(0.0).to_numpy(np.float64)
            )
        return pa.table(
            {
                "node_id": pc.cast(t.column("node_id"), pa.string()),
                "rank": pa.array(init, pa.float64()),
                "outdeg": pc.cast(t.column("outdeg"), pa.int64()),
            }
        )

    ranks = nodes.map_batches(_init_ranks, batch_format="pyarrow").materialize()

    def _block_sums(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.table({"dangling": pa.array([0.0], pa.float64())})
        dang = t.filter(pc.equal(t.column("outdeg"), pa.scalar(0, pa.int64())))
        return pa.table(
            {"dangling": pa.array([pc.sum(dang.column("rank")).as_py() or 0.0])}
        )

    def _weight_rows(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _MERGE.empty_table()
        keep = t.filter(pc.greater(t.column("outdeg"), pa.scalar(0, pa.int64())))
        k = len(keep)
        return pa.table(
            {
                "key": pc.cast(keep.column("node_id"), pa.string()),
                "o": pa.array([""] * k, pa.string()),
                "w": pc.divide(
                    keep.column("rank"), pc.cast(keep.column("outdeg"), pa.float64())
                ),
                "is_w": pa.array(np.ones(k, dtype=np.int8)),
            }
        )

    def _edge_rows(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _MERGE.empty_table()
        return pa.table(
            {
                "key": pc.cast(t.column("s"), pa.string()),
                "o": pc.cast(t.column("o"), pa.string()),
                "w": pa.array(np.zeros(len(t)), pa.float64()),
                "is_w": pa.array(np.zeros(len(t), dtype=np.int8)),
            }
        )

    def _merge_part(g: pd.DataFrame) -> pd.DataFrame:
        voc = g[g["is_w"] == 1]
        men = g[g["is_w"] == 0]
        if men.empty or voc.empty:
            return pd.DataFrame(
                {"node_id": pd.Series([], dtype=object),
                 "v": pd.Series([], dtype="float64"),
                 "outdeg": pd.Series([], dtype="int64"),
                 "old": pd.Series([], dtype="float64")}
            )
        m = men[["key", "o"]].merge(voc[["key", "w"]], on="key", how="inner")
        p = m.groupby("o", sort=False)["w"].sum().reset_index()
        return pd.DataFrame(
            {
                "node_id": p["o"].to_numpy(),
                "v": p["w"].to_numpy(),
                "outdeg": np.zeros(len(p), dtype=np.int64),
                "old": np.zeros(len(p)),
            }
        )

    def _to_carrier(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _CARRIER.empty_table()
        return pa.table(
            {
                "node_id": pc.cast(t.column("node_id"), pa.string()),
                "v": pc.cast(t.column("v"), pa.float64()),
                "outdeg": pc.cast(t.column("outdeg"), pa.int64()),
                "old": pc.cast(t.column("old"), pa.float64()),
            }
        )

    def _carrier_rows(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _CARRIER.empty_table()
        return pa.table(
            {
                "node_id": t.column("node_id"),
                "v": pa.array(np.zeros(len(t)), pa.float64()),
                "outdeg": t.column("outdeg"),
                "old": t.column("rank"),
            }
        )

    def _delta_part(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.table(
                {"d": pa.array([0.0], pa.float64()),
                 "dangling": pa.array([0.0], pa.float64())}
            )
        dang = t.filter(pc.equal(t.column("outdeg"), pa.scalar(0, pa.int64())))
        return pa.table(
            {
                "d": pa.array([pc.sum(t.column("absdiff")).as_py() or 0.0]),
                "dangling": pa.array([pc.sum(dang.column("rank")).as_py() or 0.0]),
            }
        )

    # initial dangling mass; inside the loop it is folded into the delta
    # pass over new_ranks so each iteration scans the node table once
    dangling = float(
        ranks.map_batches(_block_sums, batch_format="pyarrow")
        .to_pandas()["dangling"]
        .sum()
    )
    for _ in range(iters):
        w = ranks.map_batches(_weight_rows, batch_format="pyarrow")
        e_rows = edges.map_batches(_edge_rows, batch_format="pyarrow")
        contrib = partitioned_apply(
            e_rows.union(w), "key", _merge_part, num_parts=num_partitions
        ).map_batches(_to_carrier, batch_format="pyarrow")
        carrier = ranks.map_batches(_carrier_rows, batch_format="pyarrow")
        merged = (
            carrier.union(contrib)
            .groupby("node_id")
            .aggregate(
                Sum("v", alias_name="v"),
                Sum("outdeg", alias_name="outdeg"),
                Sum("old", alias_name="old"),
            )
        )

        dang_now = dangling

        def _update(t: pa.Table, _dang=dang_now) -> pa.Table:
            if t.num_columns == 0:
                return pa.schema(
                    [("node_id", pa.string()), ("rank", pa.float64()),
                     ("outdeg", pa.int64()), ("absdiff", pa.float64())]
                ).empty_table()
            v = t.column("v").to_numpy(zero_copy_only=False)
            old = t.column("old").to_numpy(zero_copy_only=False)
            sd = ray.get(seeds_ref)
            if sd is None:
                new = (1.0 - damping) / n + damping * (v + _dang / n)
            else:
                tele = (
                    t.column("node_id").to_pandas().map(sd).fillna(0.0)
                    .to_numpy(np.float64)
                )
                new = (1.0 - damping) * tele + damping * (v + _dang * tele)
            return pa.table(
                {
                    "node_id": t.column("node_id"),
                    "rank": pa.array(new, pa.float64()),
                    "outdeg": pc.cast(t.column("outdeg"), pa.int64()),
                    "absdiff": pa.array(np.abs(new - old), pa.float64()),
                }
            )

        new_ranks = merged.map_batches(_update, batch_format="pyarrow").materialize()
        stats = new_ranks.map_batches(_delta_part, batch_format="pyarrow").to_pandas()
        delta = float(stats["d"].sum())
        dangling = float(stats["dangling"].sum())
        # next iteration reads node_id/rank/outdeg straight off new_ranks
        # (the extra absdiff column is ignored) — no second materialize
        ranks = new_ranks
        if delta < tol:
            break
    return ranks.select_columns(["node_id", "rank"])



def link_mentions_shuffled(mentions, vocab: dict | None = None, num_parts: int = 64):
    """Entity linking for a vocabulary too large to broadcast: the SURVEY
    §2.4 "hash shuffle join keyed on normalized surface" path, semantically
    identical to the broadcast :class:`EntityLinker` (exact surface first,
    then the first whitespace word that hits).

    Plan: (1) collapse duplicate mention rows with a C-path Count (identical
    rows link identically); (2) explode each distinct mention into its
    lookup keys with a precedence index (surface_norm=0, word_i=i+1);
    (3) co-partition key rows AND vocab rows on hash(key) and resolve each
    partition with a local dict — vocab is sharded across partitions, never
    replicated; (4) regroup per mention, take the lowest-precedence hit, and
    re-expand the duplicate multiplicity.  Three bounded shuffles, no
    driver-side vocab.
    """
    import numpy as np

    from ray.data.aggregate import Count

    from .grouping import partitioned_apply

    if vocab is None:
        from ..assets import build_vocab

        vocab = build_vocab()

    ident = ["doc_id", "span_idx", "surface", "etype", "surface_norm", "eid"]
    distinct = mentions.groupby(ident).aggregate(Count(alias_name="n_copies"))

    def _explode_keys(t: pa.Table) -> pa.Table:
        # vectorized 1->N key expansion: base row (key=surface_norm, prio=0)
        # for every mention, plus one row per whitespace word (prio=i+1) for
        # multi-word surfaces — pandas str.split + explode, no per-row loop
        df = t.to_pandas()
        cols = [*ident, "n_copies"]
        base = df[cols].assign(key=df["surface_norm"], prio=np.int64(0))
        multi = df[df["surface_norm"].str.contains(" ", regex=False)]
        if len(multi):
            words = multi[cols].assign(key=multi["surface_norm"].str.split()).explode("key")
            words["prio"] = (words.groupby(level=0).cumcount() + 1).astype(np.int64)
            out = pd.concat([base, words], ignore_index=True)
        else:
            out = base
        out["prio"] = out["prio"].astype(np.int64)
        return pa.Table.from_pandas(out[[*cols, "key", "prio"]], preserve_index=False)

    keyrows = distinct.map_batches(_explode_keys, batch_format="pyarrow")

    import ray.data as rd

    vocab_df = pd.DataFrame(
        {
            "key": list(vocab.keys()),
            "types_joined": ["/".join(v[0]) for v in vocab.values()],
        }
    )
    vocab_ds = rd.from_pandas(vocab_df)

    def _vocab_shape(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        for c in ident:
            out[c] = "" if c != "span_idx" else 0
        out["n_copies"] = 0  # marks a vocab row
        out["prio"] = -1
        return out[[*ident, "n_copies", "key", "prio", "types_joined"]]

    km = keyrows.map_batches(
        lambda df: df.assign(types_joined=""), batch_format="pandas"
    )
    vm = vocab_ds.map_batches(_vocab_shape, batch_format="pandas")

    def _resolve(part: pd.DataFrame) -> pd.DataFrame:
        voc = part[part["n_copies"] == 0]
        men = part[part["n_copies"] > 0]
        if men.empty:
            return pd.DataFrame(
                columns=[*ident, "n_copies", "prio", "types_joined", "hit"]
            ).astype({"span_idx": "int64", "n_copies": "int64", "prio": "int64", "hit": "bool"})
        lut = dict(zip(voc["key"], voc["types_joined"]))
        men = men.copy()
        men["types_joined"] = men["key"].map(lut)  # dict map: C-level lookup
        men["hit"] = men["types_joined"].notna()
        return men[[*ident, "n_copies", "prio", "types_joined", "hit"]]

    resolved = partitioned_apply(km.union(vm), "key", _resolve, num_parts=num_parts)

    def _pick_part(part: pd.DataFrame) -> pd.DataFrame:
        # whole-partition pick: lowest-prio hit per mention via ONE sort +
        # drop_duplicates, no-hit mentions kept by a left merge onto the
        # distinct-mention base, duplicate multiplicity re-expanded with a
        # single index.repeat — no per-mention Python dispatch
        if part.empty:
            base = {c: pd.Series([], dtype=object) for c in ident}
            base["span_idx"] = pd.Series([], dtype="int64")
            base["linked_types"] = pd.Series([], dtype=object)
            base["linked"] = pd.Series([], dtype=bool)
            return pd.DataFrame(base)
        first_hit = (
            part[part["hit"]]
            .sort_values([*ident, "prio"], kind="mergesort")
            .drop_duplicates(ident, keep="first")[[*ident, "types_joined"]]
        )
        base = part[[*ident, "n_copies"]].drop_duplicates(ident)
        merged = base.merge(first_hit, on=ident, how="left")
        merged["linked"] = merged["types_joined"].notna()
        merged["linked_types"] = [
            (tj.split("/") if tj else []) if isinstance(tj, str) else []
            for tj in merged["types_joined"]
        ]
        out = merged.loc[
            merged.index.repeat(merged["n_copies"].to_numpy())
        ].reset_index(drop=True)
        return out[[*ident, "linked_types", "linked"]]

    return partitioned_apply(resolved, ident, _pick_part, num_parts=num_parts)


def entity_count_partials(
    mentions, config: PipelineConfig = DEFAULT_CONFIG
):
    """Mentions -> MERGEABLE canonicalization partials: one row per
    (surface_norm, etype, surface) with its mention count ``n``.

    These are the sufficient statistics of :func:`canonicalize_mentions`'
    majority votes — partials from disjoint corpora (shards, incremental
    append generations) merge by concatenation, and
    :func:`finalize_entity_partials` over the union equals a full
    recompute.  The checkpointed flagship persists them per shard so
    appended corpora update the entity table WITHOUT re-tagging old docs
    (pipelines/incremental.py).

    Phase 1 (combiner, inside map_batches — no shuffle): per-batch counts per
    (surface_norm, etype); a ``salt`` column hash-splits head keys so no
    single reducer sees all partials of a hot surface.
    Phase 2: groupby(surface_norm, salt) merges within salt buckets — a
    small shuffle over pre-aggregated data, one reducer per cluster CPU.
    """
    salt_buckets = config.canon_salt_buckets

    def _combine(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "surface_norm": batch.column("surface_norm").to_pylist(),
                "surface": batch.column("surface").to_pylist(),
                "etype": batch.column("etype").to_pylist(),
            }
        )
        g = (
            df.groupby(["surface_norm", "etype", "surface"], sort=True)
            .size()
            .reset_index(name="n")
        )
        # salt must NOT be a pure function of the key (that would send every
        # partial of a hot surface to the same reducer anyway): it varies per
        # BATCH, so a head surface's partials from different batches land in
        # different (key, salt) buckets and merge in two steps.  Which bucket
        # a partial lands in never affects the final sums.  A fresh uuid per
        # batch keeps the distribution uniform even when Ray re-deserializes
        # the function per task or reuses one long-lived worker pid (a pickled
        # counter would reset per task and narrow the salt range).
        g["salt"] = np.int32(zlib.crc32(uuid.uuid4().bytes) % salt_buckets)
        return pa.Table.from_pandas(g, preserve_index=False)

    # partials are pre-aggregated (distinct keys per batch) and therefore
    # small; coalesce before the shuffle so the reduce stage doesn't fan out
    # into per-key micro-tasks (at 100 TB the combiner output is still ~the
    # distinct-key count per batch, orders of magnitude below the input)
    partials = mentions.map_batches(_combine, batch_format="pyarrow").repartition(
        max(2, salt_buckets // 2)
    )

    def _merge_bucket(part: pd.DataFrame) -> pd.DataFrame:
        # whole-partition merge: one pandas groupby collapses EVERY
        # (norm, etype, surface) key in the partition at once — merging
        # across salt buckets that hash-landed together is harmless (they
        # would merge at finalize anyway) and the hash partition on
        # (norm, salt) still bounds reducer skew for hot surfaces
        return (
            part.groupby(["surface_norm", "etype", "surface"], sort=True)["n"]
            .sum()
            .reset_index()
        )

    from .grouping import partitioned_apply

    return partitioned_apply(
        partials, ["surface_norm", "salt"], _merge_bucket, num_parts=cluster_cpus()
    )


def finalize_entity_partials(bucketed):
    """(surface_norm, etype, surface, n) partials -> canonical entity table.

    Safe over MERGED partials (same key appearing in many rows — e.g. the
    union of per-shard partial tables): every vote and total sums the
    partition's rows per key before deciding, so
    ``finalize(concat(partials_a, partials_b)) == finalize(partials(a ∪ b))``
    exactly (pinned by tests/test_incremental.py).

    Output: eid, surface_norm, surface (most frequent raw form), etype
    (majority vote), n_mentions — deterministic at ties by
    (count desc, value asc).  One reducer per cluster CPU.
    """
    from .grouping import partitioned_apply

    def _finalize(part: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL surface groups in the partition (a per-group
        # Python fn paid ~ms × tens of thousands of groups — the old
        # flagship bottleneck): majority votes via sort + drop_duplicates,
        # deterministic at ties by (count desc, value asc)
        from ..functions.kg import entity_id

        if part.empty:
            return pd.DataFrame(
                {
                    "eid": pd.Series([], dtype=object),
                    "surface_norm": pd.Series([], dtype=object),
                    "surface": pd.Series([], dtype=object),
                    "etype": pd.Series([], dtype=object),
                    "n_mentions": pd.Series([], dtype="int64"),
                }
            )
        et = (
            part.groupby(["surface_norm", "etype"], sort=False)["n"].sum().reset_index()
            .sort_values(["surface_norm", "n", "etype"], ascending=[True, False, True],
                         kind="mergesort")
            .drop_duplicates("surface_norm", keep="first")
        )
        sf = (
            part.groupby(["surface_norm", "surface"], sort=False)["n"].sum().reset_index()
            .sort_values(["surface_norm", "n", "surface"], ascending=[True, False, True],
                         kind="mergesort")
            .drop_duplicates("surface_norm", keep="first")
        )
        tot = part.groupby("surface_norm", sort=True)["n"].sum().reset_index(name="n_mentions")
        out = (
            tot.merge(et[["surface_norm", "etype"]], on="surface_norm")
            .merge(sf[["surface_norm", "surface"]], on="surface_norm")
        )
        out["eid"] = [entity_id(s) for s in out["surface_norm"]]
        out["n_mentions"] = out["n_mentions"].astype(np.int64)
        return out[["eid", "surface_norm", "surface", "etype", "n_mentions"]]

    return partitioned_apply(bucketed, "surface_norm", _finalize, num_parts=cluster_cpus())


def canonicalize_mentions(
    mentions, config: PipelineConfig = DEFAULT_CONFIG
):
    """Mentions -> canonical entity table (north_rule canonicalization).

    Composition of :func:`entity_count_partials` (combiner + salted
    2-phase merge) and :func:`finalize_entity_partials` (per-key majority
    votes); split so incremental appends can persist and later re-merge the
    partials.  Output: eid, surface_norm, surface (most frequent raw
    form), etype (majority vote), n_mentions.
    """
    return finalize_entity_partials(entity_count_partials(mentions, config))


def token_mentions(docs):
    """documents(doc_id, text, lang) -> mention rows (surface, surface_norm,
    etype=lang) — one per token occurrence.  A SQL-expressible mention source
    that lets :func:`canonicalize_mentions` (the salted two-phase shuffle) be
    checked against an exact DuckDB oracle; the NER-derived mention stream
    exercises the same operator rows-only."""
    import pyarrow.compute as pc

    from ..functions.kg import normalize_surface

    def _explode(t: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern(t.column("text"), pattern=" ")
        flat = pc.list_flatten(tok_lists)
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        langs = t.column("lang").take(
            pa.array(np.repeat(np.arange(len(t)), counts), pa.int64())
        )
        keep = pc.not_equal(flat, pa.scalar(""))
        flat, langs = flat.filter(keep), langs.filter(keep)
        toks = flat.to_numpy(zero_copy_only=False)
        # normalize per UNIQUE token, then broadcast back (vectorized map)
        uniq, inv = np.unique(toks, return_inverse=True)
        norm_u = np.array([normalize_surface(w) for w in uniq], dtype=object)
        return pa.table(
            {
                "surface": pa.array(toks, pa.string()),
                "surface_norm": pa.array(norm_u[inv], pa.string()),
                "etype": pc.cast(langs, pa.string()),
            }
        )

    return docs.map_batches(_explode, batch_format="pyarrow")


def bigram_triples(docs):
    """documents(doc_id, text) -> consecutive-token 'bigram' edges shaped
    like the triples table (subj/obj + content-addressed ids, pred='next') —
    a SQL-expressible edge source so :func:`build_adjacency`'s groupby path
    has an exact DuckDB oracle."""
    import pyarrow.compute as pc

    from ..functions.kg import entity_id

    def _edges(t: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern(t.column("text"), pattern=" ")
        flat = pc.list_flatten(tok_lists).to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        doc_ids = t.column("doc_id").to_numpy()
        doc_of = np.repeat(doc_ids, counts)
        # drop empty tokens first (bigrams run over consecutive NON-EMPTY
        # tokens, matching list_filter-then-pair in the SQL oracle)
        nonempty = flat != ""
        flat, doc_of = flat[nonempty], doc_of[nonempty]
        if len(flat) < 2:
            keep = np.zeros(max(len(flat) - 1, 0), dtype=bool)
        else:
            keep = doc_of[:-1] == doc_of[1:]
        s, o = flat[:-1][keep], flat[1:][keep]
        d = doc_of[:-1][keep]
        uniq, inv = np.unique(np.concatenate([s, o]), return_inverse=True)
        ids = np.array([entity_id(w) for w in uniq], dtype=object)
        sid, oid = ids[inv[: len(s)]], ids[inv[len(s):]]
        return pa.table(
            {
                "doc_id": pa.array(d),
                "subj_id": pa.array(sid, pa.string()),
                "subj_norm": pa.array(s, pa.string()),
                "pred": pa.array(["next"] * len(s), pa.string()),
                "obj_id": pa.array(oid, pa.string()),
                "obj_norm": pa.array(o, pa.string()),
            }
        )

    return docs.map_batches(_edges, batch_format="pyarrow")


def build_adjacency(triples, reduce_partitions: int | None = None):
    """Triples -> adjacency-list graph partitions.

    groupby(subj_id) is the one real all-to-all here; neighbor lists are
    sorted (pred, obj_id) for determinism.  Output one row per subject
    entity: subj_id, subj_norm, degree, neighbors list<struct>.
    ``reduce_partitions`` bounds the shuffle fan-out; it follows the
    cluster (default: :func:`cluster_cpus`), not the tiny per-run block
    count.
    """
    reduce_partitions = reduce_partitions or cluster_cpus()

    def _adj_part(part: pd.DataFrame) -> pd.DataFrame:
        # whole-partition resolution: ONE sort orders every subject's
        # neighbors at once, the struct rows are built in a single pass,
        # and pandas' internal groupby-agg collects the lists — no
        # per-group Python fn dispatch (the subject count is corpus-scale)
        if part.empty:
            return pd.DataFrame(
                {
                    "subj_id": pd.Series([], dtype=object),
                    "subj_norm": pd.Series([], dtype=object),
                    "degree": pd.Series([], dtype="int64"),
                    "neighbors": pd.Series([], dtype=object),
                }
            )
        part = part.sort_values(
            ["subj_id", "pred", "obj_id"], kind="mergesort"
        ).reset_index(drop=True)
        part["_n"] = [
            {"pred": p, "obj_id": oi, "obj_norm": on}
            for p, oi, on in zip(part["pred"], part["obj_id"], part["obj_norm"])
        ]
        out = (
            part.groupby("subj_id", sort=True)
            .agg(
                subj_norm=("subj_norm", "first"),
                degree=("pred", "size"),
                neighbors=("_n", list),
            )
            .reset_index()
        )
        out["degree"] = out["degree"].astype(np.int64)
        return out[["subj_id", "subj_norm", "degree", "neighbors"]]

    from .grouping import partitioned_apply

    return partitioned_apply(
        triples, "subj_id", _adj_part, num_parts=reduce_partitions
    )


def edge_lift(docs):
    """PMI-style edge weighting over the bigram graph — the KG edge-
    confidence primitive (weight co-occurrence edges by how much more often
    the pair occurs than independence predicts).  Integer face of PMI: we
    emit the LIFT ratio in parts-per-million,

        lift_ppm = (1e6 * N_tokens * c_ab) // (c_a * c_b)

    (PMI = log2 of that ratio; the log is rank-monotonic, so filtering /
    ranking edges on lift is equivalent, and the integer domain is bit-exact
    across engines where float log is not — same rationale as the tf-idf
    and unigram-LM integer scores).

    Scale shape: (1) unigram counts via one C-path combiner groupby —
    vocab-sized, broadcast once with ``ray.put``; (2) directed bigram counts
    via per-batch vectorized pair extraction + one combiner groupby (the
    shuffle ships distinct pairs, not token instances); (3) scoring is a
    pure map over the pair table with two ``pc.index_in`` lookups.  Nothing
    corpus-sized ever reaches the driver; the huge-vocab alternative is the
    sharded-df co-partitioned merge used by `_top_tfidf_distributed`.
    Output: s, o, n_ab, lift_ppm (sorted by s, o)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _unigrams(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t.column("text"), pattern=" "))
        flat = flat.filter(pc.not_equal(flat, pa.scalar("")))
        vc = pc.value_counts(flat)
        return pa.table(
            {
                "token": pc.cast(vc.field("values"), pa.string()),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    uni = (
        docs.map_batches(_unigrams, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    n_tokens = int(uni["n"].sum())
    uni_ref = ray.put(
        (pa.array(uni["token"].tolist(), pa.string()), uni["n"].to_numpy(np.int64))
    )

    def _pairs(t: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern(t.column("text"), pattern=" ")
        flat = pc.list_flatten(tok_lists).to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(t)), counts)
        ne = flat != ""
        flat, doc_of = flat[ne], doc_of[ne]
        keep = (
            doc_of[:-1] == doc_of[1:] if len(flat) > 1 else np.zeros(0, dtype=bool)
        )
        s, o = flat[:-1][keep], flat[1:][keep]
        pairs = (
            pd.DataFrame({"s": s, "o": o})
            .groupby(["s", "o"], sort=False)
            .size()
            .reset_index(name="n_ab")
        )
        pairs["n_ab"] = pairs["n_ab"].astype(np.int64)
        return pa.Table.from_pandas(pairs, preserve_index=False)

    agg = (
        docs.map_batches(_pairs, batch_format="pyarrow")
        .groupby(["s", "o"])
        .aggregate(Sum("n_ab", alias_name="n_ab"))
    )

    def _score(t: pa.Table) -> pa.Table:
        vocab, counts = ray.get(uni_ref)
        cs = counts[
            pc.index_in(t.column("s"), value_set=vocab).to_numpy(zero_copy_only=False)
        ]
        co = counts[
            pc.index_in(t.column("o"), value_set=vocab).to_numpy(zero_copy_only=False)
        ]
        n_ab = t.column("n_ab").to_numpy(zero_copy_only=False).astype(np.int64)
        lift = (1_000_000 * n_tokens * n_ab) // (cs * co)
        return pa.table(
            {
                "s": t.column("s"),
                "o": t.column("o"),
                "n_ab": pa.array(n_ab),
                "lift_ppm": pa.array(lift.astype(np.int64)),
            }
        )

    return agg.map_batches(_score, batch_format="pyarrow").sort(["s", "o"])


def _sorted_member(sorted_keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``probes`` in a PRE-SORTED key array via one
    ``np.searchsorted`` — O(p log k) per call.  (``np.isin`` re-sorts the key
    array on EVERY call; invoked once per wedge center that cost O(k log k)
    x centers and dominated the skewed-graph smoke.)"""
    idx = np.searchsorted(sorted_keys, probes)
    ok = idx < len(sorted_keys)
    out = np.zeros(len(probes), dtype=bool)
    if ok.any():
        out[ok] = sorted_keys[idx[ok]] == probes[ok]
    return out


def _pair_membership_filter(
    cands,
    edges,
    left_col: str,
    right_col: str,
    keep: bool,
    num_parts: int = 64,
):
    """At-scale twin of the broadcast edge-key membership test used by the
    graph statistics operators: hash-CO-PARTITION candidate pairs and the
    distinct edge table on the pair key, then test membership inside each
    partition (sorted-array ``searchsorted``), so the full edge set never
    leaves the cluster and never lands on the driver.  ``keep=True`` keeps
    candidates that ARE edges (semi-join, triangle closure); ``keep=False``
    keeps those that are NOT (anti-join, 2-hop distance filter).  Candidate
    payload columns pass through untouched; edge rows are consumed by the
    filter and never emitted."""
    from .grouping import partitioned_apply

    _SIDE = "__is_edge"
    payload = [c for c in cands.schema().names if c not in (left_col, right_col)]

    def _tag_edges(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({left_col: df["a"], right_col: df["b"]})
        for c in payload:
            out[c] = None
        out[_SIDE] = np.int8(1)
        return out

    def _tag_cands(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[_SIDE] = np.int8(0)
        # explicit column order matching _tag_edges' output so the union
        # never relies on Ray/Arrow aligning blocks by name (candidate
        # tables with payload would otherwise emit a different order)
        return df[[left_col, right_col, *payload, _SIDE]]

    both = edges.map_batches(_tag_edges, batch_format="pandas").union(
        cands.map_batches(_tag_cands, batch_format="pandas")
    )

    def _filter(part: pd.DataFrame) -> pd.DataFrame:
        is_e = part[_SIDE].to_numpy() == 1
        keys = (
            part[left_col].astype(object) + "\x00" + part[right_col].astype(object)
        ).to_numpy(dtype=object)
        ekeys = np.sort(keys[is_e])
        cand = part[~is_e]
        hit = _sorted_member(ekeys, keys[~is_e])
        out = cand[hit] if keep else cand[~hit]
        return out.drop(columns=[_SIDE])

    return partitioned_apply(both, [left_col, right_col], _filter, num_parts=num_parts)


def undirected_bigram_edges(docs):
    """documents -> DISTINCT undirected bigram edges (a < b), materialized.
    Per-batch vectorized pair extraction + local dedup, then one combiner
    groupby over distinct pairs (the shuffle ships the graph, never the
    corpus).  Shared edge source for the graph statistics operators
    (:func:`triangle_counts`, :func:`two_hop_counts`)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count as _Count

    def _edges(t: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern(t.column("text"), pattern=" ")
        flat = pc.list_flatten(tok_lists).to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(t)), counts)
        ne = flat != ""
        flat, doc_of = flat[ne], doc_of[ne]
        keep = (
            doc_of[:-1] == doc_of[1:] if len(flat) > 1 else np.zeros(0, dtype=bool)
        )
        s, o = flat[:-1][keep], flat[1:][keep]
        loop = s != o
        s, o = s[loop], o[loop]
        a, b = np.minimum(s, o), np.maximum(s, o)  # undirect: a < b
        df = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        docs.map_batches(_edges, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))  # distinct (a, b)
        .select_columns(["a", "b"])
        .materialize()
    )


def triangle_counts(docs, broadcast_threshold: int = 2_000_000):
    """Per-node triangle participation counts over the undirected bigram
    graph — the classic KG/graph-quality statistic (clustering structure;
    a node in many triangles is a hub of mutually-related terms).

    Algorithm (compact-forward / node-iterator with DEGREE orientation):
    undirect + dedup edges, then orient every edge from its lower-(degree,
    name) endpoint to the higher one.  Every triangle is found exactly once,
    at its minimum node under that total order, as a wedge (y, z) drawn
    from the node's out-neighbor list that is itself an edge.  Degree
    ordering is the load-bearing choice at scale: it bounds total wedge
    work to O(m^1.5) regardless of skew, where lexicographic orientation
    degrades to O(sum deg^2) — quadratic in the hottest hub's degree (a
    'the'-like token in a bigram graph).

    Distribution (SIZE-GATED dual regime, like the other broadcast ops):
    the distinct-edge table is built by one combiner groupby (pairs, not
    instances, shuffle); degrees by one more Count groupby.  The degree LUT
    (node-bounded — orders of magnitude smaller than the edge set)
    broadcasts once via ``ray.put`` in both regimes.  The edge-key
    MEMBERSHIP test that closes each wedge is the size-gated part: at or
    below ``broadcast_threshold`` edges the sorted key set broadcasts once
    and each wedge batch probes it locally; ABOVE the threshold no edge
    list ever reaches the driver — wedge rows (center, y, z) stream into
    :func:`_pair_membership_filter`, a co-partitioned hash SEMI-join
    against the edge table (both regimes pinned equal by a forced-path
    test).  Wedge generation runs inside ``partitioned_apply`` on the
    wedge center: per center, ``np.triu_indices`` pairs its sorted
    out-neighbors.
    Output: node, n_triangles (nodes in >= 1 triangle, sorted)."""
    from ray.data.aggregate import Sum

    from .grouping import partitioned_apply

    edges = undirected_bigram_edges(docs)
    from ray.data.aggregate import Count as _Count
    # vocab-bounded degree table -> (sorted node array, degree array) LUT
    deg_pd = (
        edges.map_batches(
            lambda t: pa.table(
                {
                    "node": pa.concat_arrays(
                        [
                            t.column("a").combine_chunks(),
                            t.column("b").combine_chunks(),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(_Count(alias_name="deg"))
        .to_pandas()
        .sort_values("node")
    )
    deg_ref = ray.put(
        (
            deg_pd["node"].to_numpy(dtype=object),
            deg_pd["deg"].to_numpy(np.int64),
        )
    )
    distributed = edges.count() > broadcast_threshold  # metadata: materialized

    def _orient(t: pa.Table) -> pa.Table:
        nodes, degs = ray.get(deg_ref)
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        da = degs[np.searchsorted(nodes, a)]
        db = degs[np.searchsorted(nodes, b)]
        # src = the lower endpoint under the (degree, name) total order
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table(
            {
                "src": pa.array(np.where(a_first, a, b), pa.string()),
                "dst": pa.array(np.where(a_first, b, a), pa.string()),
            }
        )

    oriented = edges.map_batches(_orient, batch_format="pyarrow")

    def _contrib(part: pd.DataFrame) -> pd.DataFrame:
        """Closed wedges -> per-batch partial (node, n_triangles) counts."""
        if not len(part):
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "n_triangles": pd.Series([], dtype=np.int64)})
        tri_nodes, tri_counts = np.unique(
            np.concatenate(
                [
                    part["center"].to_numpy(dtype=object),
                    part["y"].to_numpy(dtype=object),
                    part["z"].to_numpy(dtype=object),
                ]
            ),
            return_counts=True,
        )
        return pd.DataFrame(
            {"node": tri_nodes, "n_triangles": tri_counts.astype(np.int64)}
        )

    if distributed:
        # wedge rows stream to a co-partitioned semi-join; the driver never
        # sees an edge list
        def _wedge_rows(part: pd.DataFrame) -> pd.DataFrame:
            cs, ys, zs = [], [], []
            for center, grp in part.groupby("src", sort=False):
                nbrs = np.sort(grp["dst"].to_numpy(dtype=object))
                if len(nbrs) < 2:
                    continue
                i, j = np.triu_indices(len(nbrs), k=1)
                cs.append(np.repeat(center, len(i)))
                ys.append(nbrs[i])
                zs.append(nbrs[j])
            if not cs:
                return pd.DataFrame({"center": pd.Series([], dtype=object),
                                     "y": pd.Series([], dtype=object),
                                     "z": pd.Series([], dtype=object)})
            return pd.DataFrame(
                {
                    "center": np.concatenate(cs),
                    "y": np.concatenate(ys),
                    "z": np.concatenate(zs),
                }
            )

        wedges = partitioned_apply(oriented, "src", _wedge_rows, num_parts=32)
        closed = _pair_membership_filter(wedges, edges, "y", "z", keep=True)
        partials = closed.map_batches(_contrib, batch_format="pandas")
    else:
        ekeys = edges.to_pandas()
        key_ref = ray.put(
            np.sort((ekeys["a"] + "\x00" + ekeys["b"]).to_numpy(dtype=object))
        )

        def _wedges(part: pd.DataFrame) -> pd.DataFrame:
            keys = ray.get(key_ref)
            nodes, counts = [], []
            for center, grp in part.groupby("src", sort=False):
                nbrs = np.sort(grp["dst"].to_numpy(dtype=object))
                if len(nbrs) < 2:
                    continue
                i, j = np.triu_indices(len(nbrs), k=1)
                wy, wz = nbrs[i], nbrs[j]
                hit = _sorted_member(keys, wy + "\x00" + wz)
                if not hit.any():
                    continue
                wy, wz = wy[hit], wz[hit]
                tri_nodes, tri_counts = np.unique(
                    np.concatenate([np.repeat(center, len(wy)), wy, wz]),
                    return_counts=True,
                )
                nodes.append(tri_nodes)
                counts.append(tri_counts)
            if not nodes:
                return pd.DataFrame({"node": pd.Series([], dtype=object),
                                     "n_triangles": pd.Series([], dtype=np.int64)})
            return pd.DataFrame(
                {
                    "node": np.concatenate(nodes),
                    "n_triangles": np.concatenate(counts).astype(np.int64),
                }
            )

        partials = partitioned_apply(oriented, "src", _wedges, num_parts=32)

    return (
        partials.groupby("node")
        .aggregate(Sum("n_triangles", alias_name="n_triangles"))
        .sort("node")
    )


def two_hop_counts(docs, broadcast_threshold: int = 2_000_000):
    """Per-node count of DISTINCT nodes exactly two hops away (reachable
    through a neighbor, not a neighbor itself, not the node) over the
    undirected bigram graph — the KG neighborhood-expansion statistic
    (entity-linking candidate pools, query expansion fan-out sizing).

    Shape: symmetric edge table (2 rows per undirected edge), wedge
    generation via ``partitioned_apply`` on the MID node — for each mid,
    ``np.triu_indices`` pairs its sorted neighbor list, so every 2-path
    endpoint pair {u, w} is emitted where its mid lives; per-partition
    dedup shrinks the stream before one global distinct groupby.  Direct
    edges (distance 1, not 2) are excluded by a SIZE-GATED membership
    test: at or below ``broadcast_threshold`` edges, vectorized
    sorted-array probes against the broadcast edge-key set; above it, the
    candidate pair stream anti-joins the edge table co-partitioned on the
    pair key (:func:`_pair_membership_filter`) — no edge list on the
    driver, both regimes pinned equal by a forced-path test.  The wedge
    bound is O(sum deg^2) inherent to exact 2-hop enumeration — at
    billion-edge scale the per-mid pair stream is capped (sampled
    neighborhoods) or replaced by sketched distinct counts
    (:func:`two_hop_counts_approx`); both alternatives keep this exact
    operator's shuffle shape.
    Output: node, n_two_hop (sorted)."""
    from ray.data.aggregate import Count as _Count

    from .grouping import partitioned_apply

    edges = undirected_bigram_edges(docs)
    distributed = edges.count() > broadcast_threshold
    key_ref = None
    if not distributed:
        ekeys = edges.to_pandas()
        key_ref = ray.put(
            np.sort((ekeys["a"] + "\x00" + ekeys["b"]).to_numpy(dtype=object))
        )

    def _sym(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "mid": pa.array(np.concatenate([a, b]), pa.string()),
                "nbr": pa.array(np.concatenate([b, a]), pa.string()),
            }
        )

    sym = edges.map_batches(_sym, batch_format="pyarrow")

    def _pairs(part: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(key_ref) if key_ref is not None else None
        us, ws = [], []
        for _mid, grp in part.groupby("mid", sort=False):
            nbrs = np.sort(grp["nbr"].to_numpy(dtype=object))
            if len(nbrs) < 2:
                continue
            i, j = np.triu_indices(len(nbrs), k=1)
            u, w = nbrs[i], nbrs[j]
            if keys is not None:
                # drop pairs that are themselves edges (distance 1, not 2)
                far = ~_sorted_member(keys, u + "\x00" + w)
                u, w = u[far], w[far]
            us.append(u)
            ws.append(w)
        if not us:
            return pd.DataFrame({"u": pd.Series([], dtype=object),
                                 "w": pd.Series([], dtype=object)})
        return (
            pd.DataFrame({"u": np.concatenate(us), "w": np.concatenate(ws)})
            .drop_duplicates()  # per-partition combiner before the shuffle
        )

    cands = partitioned_apply(sym, "mid", _pairs, num_parts=32)
    if distributed:
        # co-partitioned anti-join drops the distance-1 pairs at scale
        cands = _pair_membership_filter(cands, edges, "u", "w", keep=False)
    pairs = (
        cands.groupby(["u", "w"])
        .aggregate(_Count(alias_name="_n"))  # global distinct {u, w}
        .select_columns(["u", "w"])
    )

    def _both_dirs(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        w = t.column("w").to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([u, w]), pa.string())}
        )

    return (
        pairs.map_batches(_both_dirs, batch_format="pyarrow")
        .groupby("node")
        .aggregate(_Count(alias_name="n_two_hop"))
        .sort("node")
    )


def two_hop_counts_approx(
    docs,
    max_mid_neighbors: int | None = None,
    broadcast_threshold: int = 2_000_000,
):
    """Sketched variant of :func:`two_hop_counts` — per-node HLL distinct
    counts over the SAME wedge stream, the at-scale path named in the exact
    operator's docstring made real: the global distinct-pair groupby (the
    exact form's widest shuffle — pair rows) is replaced by mergeable
    2^p-byte HLL sketches per node, so the reduce payload is node-bounded
    regardless of how many 2-hop pairs exist.  Per-partition pair dedup and
    the direct-edge exclusion (same size-gated broadcast-vs-co-partitioned
    anti-join dual regime) are shared with the exact path.

    ``max_mid_neighbors`` additionally bounds WEDGE GENERATION (the part
    the sketch cannot bound — inherently sum-deg² around hub mids): a mid
    with more neighbors contributes wedges from a deterministic
    lexicographic-prefix sample of them, capping per-mid work at
    O(cap²).  This is a documented RECALL knob (estimates become lower
    bounds around hubs), not an unbiased estimator — the right trade on
    hub-heavy graphs where the hub's 2-hop set is near-global anyway.
    Output: node, n_two_hop (float64 estimate), sorted; accuracy pinned
    ~3% (uncapped) by test."""
    from .grouping import partitioned_apply
    from .joins import hll_distinct_by_group

    edges = undirected_bigram_edges(docs)
    distributed = edges.count() > broadcast_threshold
    key_ref = None
    if not distributed:
        ekeys = edges.to_pandas()
        key_ref = ray.put(
            np.sort((ekeys["a"] + "\x00" + ekeys["b"]).to_numpy(dtype=object))
        )

    def _sym(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "mid": pa.array(np.concatenate([a, b]), pa.string()),
                "nbr": pa.array(np.concatenate([b, a]), pa.string()),
            }
        )

    def _pair_rows(part: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(key_ref) if key_ref is not None else None
        us, ws = [], []
        for _mid, grp in part.groupby("mid", sort=False):
            nbrs = np.sort(grp["nbr"].to_numpy(dtype=object))
            if max_mid_neighbors is not None and len(nbrs) > max_mid_neighbors:
                nbrs = nbrs[:max_mid_neighbors]  # deterministic prefix sample
            if len(nbrs) < 2:
                continue
            i, j = np.triu_indices(len(nbrs), k=1)
            u, w = nbrs[i], nbrs[j]
            if keys is not None:
                far = ~_sorted_member(keys, u + "\x00" + w)
                u, w = u[far], w[far]
            us.append(u)
            ws.append(w)
        if not us:
            return pd.DataFrame({"u": pd.Series([], dtype=object),
                                 "w": pd.Series([], dtype=object)})
        return pd.DataFrame(
            {"u": np.concatenate(us), "w": np.concatenate(ws)}
        ).drop_duplicates()

    cands = partitioned_apply(
        edges.map_batches(_sym, batch_format="pyarrow"), "mid", _pair_rows,
        num_parts=32,
    )
    if distributed:
        cands = _pair_membership_filter(cands, edges, "u", "w", keep=False)

    def _expand(t: pa.Table) -> pa.Table:
        # {u, w} -> both directed (node, other) rows for the per-node sketch
        import pyarrow.compute as pc

        u = pc.cast(t.column("u"), pa.string()).combine_chunks()
        w = pc.cast(t.column("w"), pa.string()).combine_chunks()
        return pa.table(
            {
                "node": pa.concat_arrays([u, w]),
                "other": pa.concat_arrays([w, u]),
            }
        )

    rows = cands.map_batches(_expand, batch_format="pyarrow")
    est = hll_distinct_by_group(rows, "node", "other")

    def _ren(df: pd.DataFrame) -> pd.DataFrame:
        # map_batches rename: Dataset.rename_columns projects via Arrow and
        # rejects the pandas-format blocks the HLL reducer emits
        return df.rename(columns={"group": "node", "estimate": "n_two_hop"})

    return est.map_batches(_ren, batch_format="pandas").sort("node")


def bfs_hops(
    edges,
    seeds,
    max_hops: int = 4,
    broadcast_threshold: int = 2_000_000,
    num_parts: int = 64,
):
    """Multi-source BFS shortest-hop distances over an UNDIRECTED edge
    Dataset (columns ``s``, ``o``) — the KG-expansion traversal (seed
    entities -> k-hop neighborhood with exact hop counts), SQL-expressible
    as a recursive CTE so it carries an exact DuckDB oracle.

    Two regimes, like :func:`pagerank`:

    * edge count <= ``broadcast_threshold``: the visited map (node -> dist)
      is driver-resident and each hop is ONE broadcast-filter pass over the
      edge Dataset (frontier set via ``ray.put``; per-batch vectorized
      sorted-``searchsorted`` membership; new nodes reduce through
      ``unique`` so only the node-bounded frontier returns to the driver).
      Edges never leave their blocks.
    * above it: frontier and visited stay Datasets; each hop co-partitions
      (edges keyed on s) with the frontier by a tagged union +
      ``partitioned_apply`` (the repo-wide equi-join shape), then
      anti-joins the visited set the same way.  Driver state is O(1).

    Both regimes are pinned byte-equal by a forced-path test.  Seeds absent
    from the graph are reported at distance 0 anyway (they ARE the seed
    set; matches the SQL twin's anchor row).  Output: (node, dist) sorted
    by node, dist = min hops from any seed, capped at ``max_hops``.
    """
    import pyarrow.compute as pc

    from .grouping import partitioned_apply

    seeds = sorted(set(seeds))

    # undirect once: (s, o) + (o, s), distinct
    def _undirect(t: pa.Table) -> pa.Table:
        s = t.column("s")
        o = t.column("o")
        return pa.table(
            {
                "s": pa.concat_arrays(
                    [s.combine_chunks(), o.combine_chunks()]
                ),
                "o": pa.concat_arrays(
                    [o.combine_chunks(), s.combine_chunks()]
                ),
            }
        )

    und = edges.map_batches(_undirect, batch_format="pyarrow").materialize()

    # regime gate on EDGE count (one metadata read) — counting distinct
    # nodes would itself materialize the node set on the driver
    if und.count() <= broadcast_threshold:
        visited = {n: 0 for n in seeds}
        frontier = list(seeds)
        for hop in range(1, max_hops + 1):
            f_ref = ray.put(np.array(sorted(frontier), dtype=object))

            def _neigh(t: pa.Table) -> pa.Table:
                f = ray.get(f_ref)
                s = t.column("s").to_numpy(zero_copy_only=False)
                o = t.column("o").to_numpy(zero_copy_only=False)
                idx = np.searchsorted(f, s)
                idx[idx >= len(f)] = 0
                hit = f[idx] == s
                return pa.table(
                    {"node": pa.array(np.unique(o[hit]), pa.string())}
                )

            # per-batch unique -> global unique: only the node-bounded
            # frontier ever reaches the driver
            got = (
                und.map_batches(_neigh, batch_format="pyarrow")
                .unique("node")
            )
            frontier = [n for n in got if n not in visited]
            if not frontier:
                break
            for n in frontier:
                visited[n] = hop
        out = pd.DataFrame(
            {"node": list(visited), "dist": list(visited.values())}
        ).sort_values("node", kind="mergesort")
        out["dist"] = out["dist"].astype(np.int64)
        import ray.data as _rd

        return _rd.from_pandas(out.reset_index(drop=True))

    # ---- distributed regime: frontier/visited stay Datasets ----
    import ray.data as _rd

    visited_ds = _rd.from_items(
        [{"node": n, "dist": 0} for n in seeds]
    )
    frontier_ds = visited_ds
    for hop in range(1, max_hops + 1):
        # neighbors of the frontier: co-partition edges (key=s) with the
        # frontier (key=node) via tagged union, emit o per local hit
        def _tag_e(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": t.column("s"),
                    "o": t.column("o"),
                    "is_f": pa.array(
                        np.zeros(len(t), dtype=np.int8), pa.int8()
                    ),
                }
            )

        def _tag_f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": t.column("node"),
                    "o": pa.array([""] * len(t), pa.string()),
                    "is_f": pa.array(
                        np.ones(len(t), dtype=np.int8), pa.int8()
                    ),
                }
            )

        tagged = und.map_batches(_tag_e, batch_format="pyarrow").union(
            frontier_ds.map_batches(_tag_f, batch_format="pyarrow")
        )

        def _emit(part: pd.DataFrame) -> pd.DataFrame:
            fset = set(part.loc[part["is_f"] == 1, "key"])
            if not fset:
                return pd.DataFrame({"node": pd.Series([], dtype=object)})
            e = part[part["is_f"] == 0]
            hit = e[e["key"].isin(fset)]
            return pd.DataFrame({"node": hit["o"].unique()})

        cand = partitioned_apply(tagged, "key", _emit, num_parts=num_parts)

        # anti-join visited: keep candidates not yet assigned a distance
        def _tag_c(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": t.column("node"),
                    "is_v": pa.array(np.zeros(len(t), dtype=np.int8), pa.int8()),
                }
            )

        def _tag_v(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": t.column("node"),
                    "is_v": pa.array(np.ones(len(t), dtype=np.int8), pa.int8()),
                }
            )

        tagged2 = cand.map_batches(_tag_c, batch_format="pyarrow").union(
            visited_ds.select_columns(["node"]).map_batches(
                _tag_v, batch_format="pyarrow"
            )
        )

        def _anti(part: pd.DataFrame) -> pd.DataFrame:
            vset = set(part.loc[part["is_v"] == 1, "key"])
            new = part.loc[part["is_v"] == 0, "key"]
            new = new[~new.isin(vset)].unique()
            return pd.DataFrame({"node": new})

        new_frontier = partitioned_apply(
            tagged2, "key", _anti, num_parts=num_parts
        ).materialize()
        if new_frontier.count() == 0:
            break

        def _with_dist(t: pa.Table, h=hop) -> pa.Table:
            return t.append_column(
                "dist", pa.array(np.full(len(t), h, dtype=np.int64))
            )

        frontier_ds = new_frontier.map_batches(
            _with_dist, batch_format="pyarrow"
        ).materialize()
        visited_ds = visited_ds.union(frontier_ds).materialize()

    return visited_ds.sort("node")


def label_propagation(
    edges,
    max_iters: int = 10,
    broadcast_threshold: int = 2_000_000,
    num_parts: int = 64,
):
    """Community detection by synchronous label propagation (Raghavan et
    al. 2007) over an UNDIRECTED edge Dataset (columns ``s``, ``o``) —
    made fully deterministic: every node starts labeled with itself; each
    iteration relabels every node with the most frequent label among its
    DISTINCT neighbors (the input is dedup'd and self-loops dropped inside
    the operator, so per-occurrence edge feeds like ``bigram_triples``
    rows do not weight votes), ties broken by the lexicographically
    smallest label;
    isolated relabel-stability or ``max_iters`` stops the loop
    (synchronous LPA can 2-cycle on bipartite structure — the cap is the
    standard remedy and keeps the result deterministic).

    Regimes, gated on edge count like :func:`bfs_hops`:

    * small: the label map is driver-resident (node-bounded) and each
      iteration is one broadcast pass over the edges — per batch the
      neighbor labels resolve by sorted-``searchsorted`` lookup and reduce
      to (dst, label, n) partials; a coarse hash partition on dst does the
      count + argmax locally (pandas, vectorized across nodes).  Edges
      never move; the driver holds one label array.
    * at-scale: labels stay a Dataset; each iteration co-partitions the
      edges with the labels on the SOURCE node (tagged union +
      ``partitioned_apply`` — the repo's equi-join shape) to attach the
      neighbor label, then partitions on the destination for the local
      count/argmax.  Driver state: one changed-row scalar per iteration.

    Both regimes are pinned byte-equal by a forced-path test.  Output:
    (node, community) sorted by node, where community is the converged
    label (a member node's name).  Rows-only (iterative; no SQL twin).
    """
    from .grouping import partitioned_apply

    def _undirect(t: pa.Table) -> pa.Table:
        s = t.column("s").combine_chunks() if isinstance(
            t.column("s"), pa.ChunkedArray
        ) else t.column("s")
        o = t.column("o").combine_chunks() if isinstance(
            t.column("o"), pa.ChunkedArray
        ) else t.column("o")
        # classic LPA votes over DISTINCT neighbors with no self-votes:
        # drop self-loops and local duplicates here (shrinks the dedup
        # shuffle below); per-occurrence inputs (e.g. bigram_triples rows)
        # would otherwise weight votes by occurrence count
        sv = np.concatenate(
            [s.to_numpy(zero_copy_only=False), o.to_numpy(zero_copy_only=False)]
        )
        ov = np.concatenate(
            [o.to_numpy(zero_copy_only=False), s.to_numpy(zero_copy_only=False)]
        )
        ne = sv != ov
        df = pd.DataFrame({"s": sv[ne], "o": ov[ne]}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def _dedup_pairs(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates(["s", "o"])

    # global distinct: co-partition on s (all (s, *) rows land together),
    # dedup inside each partition — avoids the multi-key Dataset groupby
    und = partitioned_apply(
        edges.map_batches(_undirect, batch_format="pyarrow"),
        "s",
        _dedup_pairs,
        num_parts=num_parts,
    ).materialize()

    def _argmax(part: pd.DataFrame) -> pd.DataFrame:
        """(dst, label, n) partials -> per-dst winning label (count desc,
        label asc) — vectorized: one sort + first-row-per-dst."""
        g = (
            part.groupby(["dst", "label"], as_index=False, sort=False)["n"]
            .sum()
            .sort_values(
                ["dst", "n", "label"],
                ascending=[True, False, True],
                kind="mergesort",
            )
        )
        win = g[~g["dst"].duplicated()]
        return pd.DataFrame(
            {"node": win["dst"].to_numpy(), "label": win["label"].to_numpy()}
        )

    if und.count() <= broadcast_threshold:
        # node set + initial labels (driver-resident, node-bounded)
        nodes = np.array(sorted(set(und.unique("s"))), dtype=object)
        labels = nodes.copy()
        for _ in range(max_iters):
            ref = ray.put((nodes, labels))

            def _partials(t: pa.Table) -> pd.DataFrame:
                nd, lb = ray.get(ref)
                s = t.column("s").to_numpy(zero_copy_only=False)
                o = t.column("o").to_numpy(zero_copy_only=False)
                src_lab = lb[np.searchsorted(nd, s)]
                df = pd.DataFrame({"dst": o, "label": src_lab})
                out = df.groupby(["dst", "label"], as_index=False, sort=False)
                out = out.size().rename(columns={"size": "n"})
                out["n"] = out["n"].astype(np.int64)
                return out

            won = partitioned_apply(
                und.map_batches(_partials, batch_format="pyarrow"),
                "dst",
                _argmax,
                num_parts=num_parts,
            ).to_pandas()
            new = labels.copy()
            idx = np.searchsorted(nodes, won["node"].to_numpy())
            new[idx] = won["label"].to_numpy()
            if (new == labels).all():
                break
            labels = new
        out = pd.DataFrame({"node": nodes, "community": labels})
        import ray.data as _rd

        return _rd.from_pandas(out)

    # ---- at-scale regime: labels stay a Dataset ----
    import ray.data as _rd

    def _init_labels(t: pa.Table) -> pd.DataFrame:
        u = np.unique(t.column("s").to_numpy(zero_copy_only=False))
        return pd.DataFrame({"node": u, "label": u})

    def _dedup_nodes(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates("node")

    labels_ds = partitioned_apply(
        und.map_batches(_init_labels, batch_format="pyarrow"),
        "node",
        _dedup_nodes,
        num_parts=num_parts,
    ).materialize()

    for _ in range(max_iters):
        # attach src labels: co-partition edges (key=s) with labels
        def _tag_e(t: pa.Table) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": t.column("s").to_numpy(zero_copy_only=False),
                    "dst": t.column("o").to_numpy(zero_copy_only=False),
                    "label": np.full(len(t), "", dtype=object),
                    "is_l": np.zeros(len(t), dtype=np.int8),
                }
            )

        def _tag_l(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": df["node"].to_numpy(),
                    "dst": np.full(len(df), "", dtype=object),
                    "label": df["label"].to_numpy(),
                    "is_l": np.ones(len(df), dtype=np.int8),
                }
            )

        tagged = und.map_batches(_tag_e, batch_format="pyarrow").union(
            labels_ds.map_batches(_tag_l, batch_format="pandas")
        )

        def _attach(part: pd.DataFrame) -> pd.DataFrame:
            lmap = part[part["is_l"] == 1][["key", "label"]]
            e = part[part["is_l"] == 0][["key", "dst"]]
            j = e.merge(lmap, on="key", how="inner")
            out = j.groupby(["dst", "label"], as_index=False, sort=False)
            out = out.size().rename(columns={"size": "n"})
            out["n"] = out["n"].astype(np.int64)
            return out

        partials = partitioned_apply(tagged, "key", _attach, num_parts=num_parts)
        # _argmax already emits (node, label)
        new_labels = partitioned_apply(
            partials, "dst", _argmax, num_parts=num_parts
        ).materialize()

        # changed count + carry forward isolated nodes: co-partition old/new
        def _tag_old(df: pd.DataFrame) -> pd.DataFrame:
            d = df[["node", "label"]].copy()
            d["is_new"] = np.int8(0)
            return d

        def _tag_new(df: pd.DataFrame) -> pd.DataFrame:
            d = df[["node", "label"]].copy()
            d["is_new"] = np.int8(1)
            return d

        both = labels_ds.map_batches(_tag_old, batch_format="pandas").union(
            new_labels.map_batches(_tag_new, batch_format="pandas")
        )

        def _merge_lab(part: pd.DataFrame) -> pd.DataFrame:
            old = part[part["is_new"] == 0].set_index("node")["label"]
            new = part[part["is_new"] == 1].set_index("node")["label"]
            merged = new.combine_first(old)  # isolated nodes keep old
            changed = int((merged.reindex(old.index) != old).sum())
            out = merged.reset_index()
            out.columns = ["node", "label"]
            out["_changed"] = np.int64(0)
            if len(out):
                out.loc[out.index[0], "_changed"] = changed
            return out

        merged = partitioned_apply(
            both, "node", _merge_lab, num_parts=num_parts
        ).materialize()
        n_changed = int(merged.sum("_changed") or 0)
        labels_ds = merged.drop_columns(["_changed"]).materialize()
        if n_changed == 0:
            break

    return labels_ds.map_batches(
        lambda df: df.rename(columns={"label": "community"}),
        batch_format="pandas",
    ).sort("node")


def _node_membership_filter(cands, nodes, col, keep=True, num_parts: int = 64):
    """Single-key sibling of :func:`_pair_membership_filter`: keep (or
    drop) candidate rows whose ``col`` value appears in the ``nodes``
    Dataset (column ``node``) — a co-partitioned hash SEMI/ANTI-join on one
    key, tagged-union shape, no node set on the driver."""
    from .grouping import partitioned_apply

    _SIDE = "__is_node"
    payload = [c for c in cands.schema().names if c != col]

    def _tag_nodes(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({col: df["node"]})
        for c in payload:
            out[c] = None
        out[_SIDE] = np.int8(1)
        return out[[col, *payload, _SIDE]]

    def _tag_cands(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[_SIDE] = np.int8(0)
        return df[[col, *payload, _SIDE]]

    both = nodes.map_batches(_tag_nodes, batch_format="pandas").union(
        cands.map_batches(_tag_cands, batch_format="pandas")
    )

    def _filter(part: pd.DataFrame) -> pd.DataFrame:
        is_n = part[_SIDE].to_numpy() == 1
        keys = part[col].to_numpy(dtype=object)
        nkeys = np.sort(keys[is_n])
        cand = part[~is_n]
        hit = _sorted_member(nkeys, keys[~is_n])
        out = cand[hit] if keep else cand[~hit]
        return out.drop(columns=[_SIDE])

    return partitioned_apply(both, col, _filter, num_parts=num_parts)


def k_core(
    edges,
    k: int = 3,
    max_iters: int = 1000,
    broadcast_threshold: int = 2_000_000,
    removed_broadcast_threshold: int = 1_000_000,
    num_parts: int = 64,
):
    """k-core decomposition membership over an UNDIRECTED simple graph —
    the classic KG-cleaning primitive (keep the densely-interconnected
    core, peel hubs' one-shot satellites): iteratively remove every node
    whose degree among REMAINING nodes is < ``k`` until fixpoint.  The
    k-core is unique, so the result is deterministic regardless of peel
    order.  Input: edge Dataset (columns ``s``, ``o``); per-occurrence
    feeds dedup and self-loops drop inside the operator (same contract as
    :func:`label_propagation`).

    Regimes, gated on distinct edge count like :func:`bfs_hops`:

    * small: the active-node set is driver-resident (node-bounded).  Each
      iteration is ONE broadcast pass over the (never-moving) edge blocks —
      per batch, rows with both endpoints active reduce to (node, deg)
      value-count partials; a coarse hash partition sums them; only the
      node-bounded degree table returns to the driver.
    * at-scale: DELTA peeling — the live edge set stays a Dataset; each
      iteration computes degrees (per-batch combiner + one coarse hash
      partition sum), finds the nodes that fell below ``k`` (the REMOVED
      delta — typically tiny after the first peel), and drops only edges
      incident to that delta: a pure broadcast map filter (no shuffle)
      while the delta fits ``removed_broadcast_threshold``, else a
      co-partitioned anti-join on ``s`` then ``o``
      (:func:`_node_membership_filter`).  The full edge set is never
      semi-joined against the full active set; driver state per iteration
      is one count scalar (plus the delta array only on the broadcast
      path).

    Both regimes are pinned byte-equal by a forced-path test.  Iterations
    are bounded by the peel depth (<= node count; ``max_iters`` is a
    backstop, not a tuning knob).  Output: (node, core_deg) sorted by node
    for every node in the k-core, core_deg = its degree WITHIN the core
    (>= k by construction).  Rows-only (iterative; no SQL twin — recursive
    CTEs grow monotone sets, peeling shrinks one).
    """
    from .grouping import partitioned_apply

    # undirect + global distinct + self-loop drop (label_propagation's
    # input contract, same kernels)
    def _undirect(t: pa.Table) -> pa.Table:
        s = t.column("s").combine_chunks() if isinstance(
            t.column("s"), pa.ChunkedArray
        ) else t.column("s")
        o = t.column("o").combine_chunks() if isinstance(
            t.column("o"), pa.ChunkedArray
        ) else t.column("o")
        sv = np.concatenate(
            [s.to_numpy(zero_copy_only=False), o.to_numpy(zero_copy_only=False)]
        )
        ov = np.concatenate(
            [o.to_numpy(zero_copy_only=False), s.to_numpy(zero_copy_only=False)]
        )
        ne = sv != ov
        df = pd.DataFrame({"s": sv[ne], "o": ov[ne]}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def _dedup_pairs(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates(["s", "o"])

    und = partitioned_apply(
        edges.map_batches(_undirect, batch_format="pyarrow"),
        "s",
        _dedup_pairs,
        num_parts=num_parts,
    ).materialize()

    def _deg_sum(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("node", as_index=False, sort=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    _EMPTY = pd.DataFrame(
        {"node": pd.Series([], dtype=object), "core_deg": pd.Series([], dtype="int64")}
    )

    n_edges = und.count()
    if n_edges == 0:
        import ray.data as rd

        return rd.from_pandas(_EMPTY)

    if n_edges <= broadcast_threshold:
        # driver-resident active set (node-bounded); edges never move.
        # Per-batch (node, deg) partials come straight to the driver and
        # sum there — the partial table is node-bounded per batch and the
        # whole regime is already gated on edge count, so no per-iteration
        # shuffle is needed (the at-scale regime below keeps everything
        # distributed)
        active = np.array(sorted(set(und.unique("s"))), dtype=object)
        deg = None
        for _ in range(max_iters):
            a_ref = ray.put(active)

            def _partials(t: pa.Table) -> pd.DataFrame:
                a = ray.get(a_ref)
                s = t.column("s").to_numpy(zero_copy_only=False)
                o = t.column("o").to_numpy(zero_copy_only=False)
                live = _sorted_member(a, s) & _sorted_member(a, o)
                vals, cnts = np.unique(s[live], return_counts=True)
                return pd.DataFrame({"node": vals, "n": cnts.astype(np.int64)})

            degs = _deg_sum(
                und.map_batches(_partials, batch_format="pyarrow").to_pandas()
            )
            keep_nodes = degs.loc[degs["n"] >= k, "node"].to_numpy(dtype=object)
            keep_nodes = np.sort(keep_nodes)
            if len(keep_nodes) == len(active):
                deg = degs
                break
            active = keep_nodes
            deg = degs
            if len(active) == 0:
                break
        if deg is None or len(active) == 0:
            import ray.data as rd

            return rd.from_pandas(_EMPTY)
        out = deg[deg["node"].isin(active)].rename(columns={"n": "core_deg"})
        out = out.sort_values("node").reset_index(drop=True)
        import ray.data as rd

        return rd.from_pandas(out[["node", "core_deg"]]).sort("node")

    # at-scale: delta peeling.  The live edge set is the only big state;
    # per iteration: one degree reduce (combiner + coarse partition sum),
    # then drop edges incident to the nodes that just fell below k.  The
    # removed DELTA is what shrinks per peel (usually tiny after the first
    # iteration), so the incident-edge drop is a broadcast pure-map filter
    # while the delta fits the threshold; the co-partitioned anti-join
    # covers the worst case (one peel removing a node-scale delta).
    def _edge_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("s", as_index=False, sort=False).size()
        return pd.DataFrame({"node": g["s"], "n": g["size"].astype(np.int64)})

    live = und
    deg_ds = None
    for _ in range(max_iters):
        deg_ds = partitioned_apply(
            live.map_batches(_edge_partials, batch_format="pandas"),
            "node",
            _deg_sum,
            num_parts=num_parts,
        ).materialize()
        bad = (
            deg_ds.filter(expr=f"n < {int(k)}").select_columns(["node"]).materialize()
        )
        n_bad = bad.count()
        if n_bad == 0:
            break
        if n_bad <= removed_broadcast_threshold:
            bad_arr = np.sort(bad.to_pandas()["node"].to_numpy(dtype=object))
            b_ref = ray.put(bad_arr)

            def _drop(t: pa.Table) -> pa.Table:
                b = ray.get(b_ref)
                s = t.column("s").to_numpy(zero_copy_only=False)
                o = t.column("o").to_numpy(zero_copy_only=False)
                keep_m = ~_sorted_member(b, s) & ~_sorted_member(b, o)
                return t.filter(pa.array(keep_m))

            live = live.map_batches(_drop, batch_format="pyarrow").materialize()
        else:
            live = _node_membership_filter(
                live, bad, "s", keep=False, num_parts=num_parts
            )
            live = _node_membership_filter(
                live, bad, "o", keep=False, num_parts=num_parts
            ).materialize()
        if live.count() == 0:
            import ray.data as rd

            return rd.from_pandas(_EMPTY)

    if deg_ds is None:
        import ray.data as rd

        return rd.from_pandas(_EMPTY)

    def _fin(df: pd.DataFrame) -> pd.DataFrame:
        out = df.loc[df["n"] >= k].rename(columns={"n": "core_deg"})
        return out[["node", "core_deg"]]

    return deg_ds.map_batches(_fin, batch_format="pandas").sort("node")


def cooccurrence_edges(items, group_col: str, item_col: str, num_parts: int = 64):
    """Bipartite -> unipartite co-occurrence projection: two items sharing
    a group become an undirected weighted edge (a < b), weight = number of
    DISTINCT groups containing both.  The KG edge-construction primitive
    over relational logs (co-purchased parts, co-cited entities,
    co-session users) — the reference's bigram edge lift
    (/root/reference/batched_main_NER.py builds entity pairs from token
    adjacency; this generalizes adjacency to set co-membership).

    Scale shape (100 TB): ONE hash shuffle on the group key brings every
    (group, item) row of a group into a coarse partition
    (:func:`...grouping.partitioned_apply`); inside, distinct
    (group, item) dedup, a mergesort by (group, item) and the
    segmented-arange i<j expansion (the
    :func:`...textstats.shingle_cosine_pairs` kernel) emit each group's
    pairs fully vectorized, pre-combined locally before the one global
    (a, b) combine (coarse hash partition + vectorized pandas groupby —
    the repo's multi-key-aggregate shape; Ray's native multi-key hash
    aggregate measured ~50x slower at 1M+ groups).  Work is sum(basket²)
    over groups — bounded by the max basket size, never all-pairs over
    items.

    Output: (a, b, weight) with a < b, unsorted (callers sort)."""
    from .grouping import partitioned_apply

    def _pairs(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "a": part[item_col].iloc[:0],
                "b": part[item_col].iloc[:0],
                "weight": pd.Series([], dtype="int64"),
            }
        )
        if not len(part):
            return empty
        part = part.drop_duplicates([group_col, item_col]).sort_values(
            [group_col, item_col], kind="mergesort"
        )
        g = part[group_col].to_numpy()
        it = part[item_col].to_numpy()
        m = len(part)
        new = np.ones(m, dtype=bool)
        new[1:] = g[1:] != g[:-1]
        grp_start = np.flatnonzero(new)
        grp_end = np.append(grp_start[1:], m)
        sizes = grp_end - grp_start
        row_end = np.repeat(grp_end, sizes)
        row_idx = np.arange(m)
        reps = row_end - row_idx - 1
        total = int(reps.sum())
        if total == 0:
            return empty
        i_idx = np.repeat(row_idx, reps)
        seg = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps
        )
        j_idx = i_idx + 1 + seg
        out = pd.DataFrame(
            {
                "a": it[i_idx],
                "b": it[j_idx],
                "weight": np.ones(total, dtype=np.int64),
            }
        )
        # partition-local combiner before the global (a, b) combine
        return out.groupby(["a", "b"], as_index=False, sort=False)["weight"].sum()

    def _combine(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(["a", "b"], as_index=False, sort=False)["weight"].sum()

    return partitioned_apply(
        partitioned_apply(
            items.select_columns([group_col, item_col]),
            group_col,
            _pairs,
            num_parts=num_parts,
        ),
        ["a", "b"],
        _combine,
        num_parts=num_parts,
    )


def _node_jaccard_csr(und, deg, tau: int, node_pd_dtype, num_parts: int = 64):
    """Broadcast-CSR intersection kernel for :func:`node_jaccard` (regime 1
    in its docstring).  ``und`` is the deduped both-directions (n, m) view,
    ``deg`` the (node, d) table; both materialized by the caller.  The
    adjacency CSR is assembled in ONE remote task from ``und``'s own block
    refs (the driver touches only node-bounded arrays) and shared via the
    object store; cum-degree-balanced node ranges then each count their
    nodes' neighbor-of-neighbor multisets by gather + sort + run-length —
    O(deg(a)·avg_deg) per node, independent of the node-id universe — and
    emit only the pairs passing the int64 threshold.  No pair row ever
    materializes, nothing shuffles."""
    dp = deg.to_pandas()
    order = np.argsort(dp["node"].to_numpy(), kind="mergesort")
    ids = dp["node"].to_numpy()[order].astype(np.int64)
    dvec = dp["d"].to_numpy()[order].astype(np.int64)
    n_nodes = len(ids)

    @ray.remote
    def _build_csr(ids_, *tbls):
        # empty partitions surface as 0-field tables — skip them
        tbls = [t for t in tbls if "n" in t.schema.names and t.num_rows]
        if not len(tbls):
            return np.zeros(len(ids_) + 1, dtype=np.int64), np.zeros(
                0, dtype=np.int64
            )
        n_all = np.concatenate(
            [t.column("n").to_numpy(zero_copy_only=False) for t in tbls]
        ).astype(np.int64)
        m_all = np.concatenate(
            [t.column("m").to_numpy(zero_copy_only=False) for t in tbls]
        ).astype(np.int64)
        nd = np.searchsorted(ids_, n_all)
        md = np.searchsorted(ids_, m_all)
        counts = np.bincount(nd, minlength=len(ids_))
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return indptr, md[np.argsort(nd, kind="stable")]

    csr_ref = _build_csr.remote(ids, *und.to_arrow_refs())

    # cum-degree-balanced contiguous dense-id ranges (degree skew safe)
    n_ranges = max(num_parts, 1)
    cum = np.concatenate([[0], np.cumsum(dvec)])
    cuts = np.searchsorted(
        cum, np.linspace(0, cum[-1], n_ranges + 1), side="left"
    )
    cuts[0], cuts[-1] = 0, n_nodes
    cuts = np.unique(cuts)
    ranges = [
        {"lo": int(lo), "hi": int(hi)}
        for lo, hi in zip(cuts[:-1], cuts[1:])
        if hi > lo
    ]
    if not ranges:
        ranges = [{"lo": 0, "hi": 0}]
    ids_ref = ray.put((ids, dvec))

    def _empty_out() -> pd.DataFrame:
        return pd.DataFrame(
            {
                "a": pd.Series([], dtype=node_pd_dtype),
                "b": pd.Series([], dtype=node_pd_dtype),
                "inter": pd.Series([], dtype="int64"),
                "un": pd.Series([], dtype="int64"),
                "jaccard": pd.Series([], dtype="float64"),
            }
        )

    def _score(batch: pd.DataFrame) -> pd.DataFrame:
        indptr, dst = ray.get(csr_ref)
        ids_, d_ = ray.get(ids_ref)
        oa, ob, oi, ou = [], [], [], []
        for lo, hi in zip(batch["lo"].to_numpy(), batch["hi"].to_numpy()):
            for a in range(int(lo), int(hi)):
                s, e = indptr[a], indptr[a + 1]
                if e == s:
                    continue
                neigh = dst[s:e]
                st = indptr[neigh]
                ln = indptr[neigh + 1] - st
                tot = int(ln.sum())
                if tot == 0:
                    continue
                gi = np.repeat(st, ln) + (
                    np.arange(tot)
                    - np.repeat(
                        np.concatenate([[0], np.cumsum(ln)[:-1]]), ln
                    )
                )
                g = dst[gi]
                g.sort()
                runs = np.ones(tot, dtype=bool)
                runs[1:] = g[1:] != g[:-1]
                starts = np.flatnonzero(runs)
                ub = g[starts]
                keep_b = ub > a  # a < b in dense == original order
                if not keep_b.any():
                    continue
                cnts = np.diff(np.append(starts, tot)).astype(np.int64)
                ub, cnts = ub[keep_b], cnts[keep_b]
                un = d_[a] + d_[ub] - cnts
                keep = 100 * cnts >= tau * un
                if not keep.any():
                    continue
                ub, cnts, un = ub[keep], cnts[keep], un[keep]
                oa.append(np.full(len(ub), a, dtype=np.int64))
                ob.append(ub)
                oi.append(cnts)
                ou.append(un)
        if not oa:
            return _empty_out()
        aarr = ids_[np.concatenate(oa)]
        barr = ids_[np.concatenate(ob)]
        iv = np.concatenate(oi)
        un = np.concatenate(ou)
        return pd.DataFrame(
            {
                "a": aarr.astype(node_pd_dtype),
                "b": barr.astype(node_pd_dtype),
                "inter": iv,
                "un": un,
                "jaccard": iv.astype(np.float64) / un.astype(np.float64),
            }
        )

    import ray.data as _rd

    return _rd.from_items(
        ranges, override_num_blocks=len(ranges)
    ).map_batches(_score, batch_format="pandas", batch_size=1)


def node_jaccard(
    edges,
    tau_pct: int = 10,
    max_deg: int | None = None,
    broadcast_max_nodes: int = 5_000_000,
    num_parts: int = 64,
    csr_max_edges: int = 30_000_000,
):
    """Exact neighbor-set Jaccard similarity over an undirected simple
    graph — the node-similarity face of KG entity linking / link
    prediction: J(a, b) = |N(a) ∩ N(b)| / |N(a) ∪ N(b)| for every node
    pair sharing at least one neighbor, kept when J >= tau_pct / 100.

    Float-parity contract (the :func:`...textstats.shingle_cosine_pairs`
    rule): the threshold is pure int64 on both engines —
    ``100 * inter >= tau_pct * (da + db - inter)`` — and the reported
    ``jaccard`` is ONE float64 division of the same two int64s (IEEE
    division is correctly rounded, so DuckDB and numpy agree
    bit-for-bit).  Input ``edges`` (columns a, b): undirected; self-loops
    and duplicate rows are dropped inside (the :func:`k_core` contract).

    Scale shape (100 TB): degrees are a per-batch value-count combiner +
    one coarse partition sum (node-bounded, never the edge list on the
    driver); intersection counts generate PER SHARED NEIGHBOR inside
    coarse hash partitions (sum(deg²) work — the ssjoin kernel, never
    all-pairs over nodes), pre-combined locally before the one global
    (a, b) combine; degrees attach back by broadcast
    (sorted-searchsorted) below ``broadcast_max_nodes`` or the
    tagged-union co-partitioned merge above it (forced-path test pins the
    regimes equal).  THREE intersection kernels, fastest-applicable wins:

    1. **Broadcast-CSR** (integer ids, nodes ≤ ``broadcast_max_nodes``
       AND directed adjacency rows ≤ ``csr_max_edges``): the adjacency is
       built ONCE in a remote task from the dataset's own block refs
       (the edge list never lands on the driver — the driver holds only
       the node-bounded id/degree arrays) and broadcast; node-range tasks
       (cum-degree balanced) count each node's neighbor-of-neighbor
       multiset by gather + sort + run-length and emit ONLY threshold
       survivors — no pair row is ever materialized.  sum(deg²) work,
       zero shuffle.  Measured 124 s -> 5 s on the sf0.1 co-purchase
       graph (20k nodes, mean degree 120, sum(deg²) ≈ 3·10⁸ pairs whose
       final survivor count is 1).
    2. **Packed-key shuffle** (integer ids above the CSR gate): the pair
       key packs into ONE int64 ``(a << 32) | b`` and both combines run
       as sort + run-length ``reduceat`` on that single column instead of
       a two-key pandas groupby, with the broadcast-regime threshold
       applied INSIDE the global combine task so the combined pair table
       never leaves it.
    3. **Generic frame path** (string / out-of-range ids): the original
       two-key groupby pipeline.

    The hand / string / forced-path tests pin all kernels equal.
    ``max_deg`` is the hub gate for dense co-occurrence
    graphs: nodes with more than ``max_deg`` neighbors are REMOVED from
    the graph before pair generation and degrees recomputed on the
    filtered graph — hub-REMOVAL semantics (a defined operator parameter),
    not silent truncation; the hub list is driver-resident but counting
    bounds it at 2|E| / max_deg rows, an edge-fraction the caller sizes.

    Output: (a, b, inter, un, jaccard) with a < b, unsorted."""
    from .grouping import partitioned_apply

    # both-directions view; global distinct via one co-partition on n
    def _both(t: pa.Table) -> pd.DataFrame:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        ne = a != b
        a, b = a[ne], b[ne]
        return pd.DataFrame(
            {"n": np.concatenate([a, b]), "m": np.concatenate([b, a])}
        )

    und = partitioned_apply(
        edges.select_columns(["a", "b"]).map_batches(
            _both, batch_format="pyarrow"
        ),
        "n",
        lambda part: part.drop_duplicates(["n", "m"]),
        num_parts=num_parts,
    ).materialize()

    def _vc(df: pd.DataFrame) -> pd.DataFrame:
        vals, cnts = np.unique(df["n"].to_numpy(), return_counts=True)
        return pd.DataFrame({"node": vals, "d": cnts.astype(np.int64)})

    def _dsum(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("node", as_index=False, sort=False)["d"].sum()
        g["d"] = g["d"].astype(np.int64)
        return g

    def _degrees(u):
        return partitioned_apply(
            u.map_batches(_vc, batch_format="pandas"),
            "node",
            _dsum,
            num_parts=num_parts,
        ).materialize()

    deg = _degrees(und)

    if max_deg is not None:
        hubs_pd = deg.map_batches(
            lambda df: df[df["d"].to_numpy() > max_deg][["node"]],
            batch_format="pandas",
        ).to_pandas()
        if len(hubs_pd):
            hubs = np.sort(hubs_pd["node"].to_numpy())
            href = ray.put(hubs)

            def _drop_hubs(df: pd.DataFrame) -> pd.DataFrame:
                h = ray.get(href)
                keep = ~_sorted_member(h, df["n"].to_numpy()) & ~_sorted_member(
                    h, df["m"].to_numpy()
                )
                return df[keep]

            und = und.map_batches(
                _drop_hubs, batch_format="pandas"
            ).materialize()
            deg = _degrees(und)

    def _pairs(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "a": part["n"].iloc[:0],
                "b": part["n"].iloc[:0],
                "inter": pd.Series([], dtype="int64"),
            }
        )
        if not len(part):
            return empty
        part = part.sort_values(["m", "n"], kind="mergesort")
        mm = part["m"].to_numpy()
        nn = part["n"].to_numpy()
        k = len(part)
        new = np.ones(k, dtype=bool)
        new[1:] = mm[1:] != mm[:-1]
        grp_start = np.flatnonzero(new)
        grp_end = np.append(grp_start[1:], k)
        sizes = grp_end - grp_start
        row_end = np.repeat(grp_end, sizes)
        row_idx = np.arange(k)
        reps = row_end - row_idx - 1
        total = int(reps.sum())
        if total == 0:
            return empty
        i_idx = np.repeat(row_idx, reps)
        seg = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps
        )
        j_idx = i_idx + 1 + seg
        # n sorted within each m-group -> a < b by construction
        out = pd.DataFrame(
            {
                "a": nn[i_idx],
                "b": nn[j_idx],
                "inter": np.ones(total, dtype=np.int64),
            }
        )
        return out.groupby(["a", "b"], as_index=False, sort=False)["inter"].sum()

    def _icombine(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(["a", "b"], as_index=False, sort=False)["inter"].sum()

    tau = int(tau_pct)

    # packed-key fast path detection: non-negative integer ids < 2**31
    # (one Min/Max pass over the node-bounded degree table)
    packable = False
    node_pd_dtype = None
    try:
        sch = deg.schema()
        node_t = dict(zip(sch.names, sch.types))["node"]
        node_pd_dtype = np.dtype(node_t.to_pandas_dtype())
        if np.issubdtype(node_pd_dtype, np.integer):
            from ray.data.aggregate import Max as _Max, Min as _Min

            mm = deg.aggregate(_Min("node"), _Max("node"))
            packable = (
                mm is not None
                and mm.get("min(node)") is not None
                and mm["min(node)"] >= 0
                and mm["max(node)"] < 2**31
            )
    except Exception:
        packable = False

    if (
        packable
        and deg.count() <= broadcast_max_nodes
        and und.count() <= csr_max_edges
    ):
        return _node_jaccard_csr(
            und, deg, tau, node_pd_dtype, num_parts=num_parts
        )

    def _pairs_packed(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "k": pd.Series([], dtype="int64"),
                "inter": pd.Series([], dtype="int64"),
            }
        )
        if not len(part):
            return empty
        part = part.sort_values(["m", "n"], kind="mergesort")
        mvals = part["m"].to_numpy()
        nn = part["n"].to_numpy().astype(np.int64)
        k = len(part)
        new = np.ones(k, dtype=bool)
        new[1:] = mvals[1:] != mvals[:-1]
        grp_start = np.flatnonzero(new)
        grp_end = np.append(grp_start[1:], k)
        sizes = grp_end - grp_start
        row_end = np.repeat(grp_end, sizes)
        row_idx = np.arange(k)
        reps = row_end - row_idx - 1
        total = int(reps.sum())
        if total == 0:
            return empty
        i_idx = np.repeat(row_idx, reps)
        seg = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps
        )
        j_idx = i_idx + 1 + seg
        # n sorted within each m-group -> a < b by construction
        key = (nn[i_idx] << np.int64(32)) | nn[j_idx]
        key.sort(kind="stable")
        runs = np.ones(total, dtype=bool)
        runs[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(runs)
        cnts = np.diff(np.append(starts, total)).astype(np.int64)
        return pd.DataFrame({"k": key[starts], "inter": cnts})

    def _packed_sums(part: pd.DataFrame):
        k = part["k"].to_numpy()
        iv = part["inter"].to_numpy()
        if not len(k):
            return k, iv
        order = np.argsort(k, kind="mergesort")
        k = k[order]
        iv = iv[order]
        runs = np.ones(len(k), dtype=bool)
        runs[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(runs)
        return k[starts], np.add.reduceat(iv, starts)

    if packable:

        def _unpack_ab(kk):
            return (
                (kk >> np.int64(32)).astype(node_pd_dtype),
                (kk & np.int64(0xFFFFFFFF)).astype(node_pd_dtype),
            )

        packed = partitioned_apply(
            und.select_columns(["n", "m"]), "m", _pairs_packed,
            num_parts=num_parts,
        )
        if deg.count() <= broadcast_max_nodes:
            dp = deg.to_pandas()
            order = np.argsort(dp["node"].to_numpy(), kind="mergesort")
            ref = ray.put(
                (
                    dp["node"].to_numpy()[order],
                    dp["d"].to_numpy().astype(np.int64)[order],
                )
            )

            def _empty_out() -> pd.DataFrame:
                return pd.DataFrame(
                    {
                        "a": pd.Series([], dtype=node_pd_dtype),
                        "b": pd.Series([], dtype=node_pd_dtype),
                        "inter": pd.Series([], dtype="int64"),
                        "un": pd.Series([], dtype="int64"),
                        "jaccard": pd.Series([], dtype="float64"),
                    }
                )

            # threshold fused into the global combine: the combined pair
            # table never leaves this task; survivors only are emitted
            def _combine_finish(part: pd.DataFrame) -> pd.DataFrame:
                kk, sums = _packed_sums(part)
                if not len(kk):
                    return _empty_out()
                a, b = _unpack_ab(kk)
                ids, dd = ray.get(ref)
                da = dd[np.searchsorted(ids, a)]
                db = dd[np.searchsorted(ids, b)]
                un = da + db - sums
                keep = 100 * sums >= tau * un
                out = pd.DataFrame(
                    {
                        "a": a[keep],
                        "b": b[keep],
                        "inter": sums[keep],
                        "un": un[keep],
                    }
                )
                out["jaccard"] = out["inter"].to_numpy().astype(
                    np.float64
                ) / out["un"].to_numpy().astype(np.float64)
                return out

            return partitioned_apply(
                packed, "k", _combine_finish, num_parts=num_parts
            )

        def _combine_unpack(part: pd.DataFrame) -> pd.DataFrame:
            kk, sums = _packed_sums(part)
            a, b = _unpack_ab(kk)
            return pd.DataFrame(
                {"a": a, "b": b, "inter": sums.astype(np.int64)}
            )

        inter = partitioned_apply(
            packed, "k", _combine_unpack, num_parts=num_parts
        )
    else:
        inter = partitioned_apply(
            partitioned_apply(und, "m", _pairs, num_parts=num_parts),
            ["a", "b"],
            _icombine,
            num_parts=num_parts,
        )

    def _threshold(df: pd.DataFrame) -> pd.DataFrame:
        iv = df["inter"].to_numpy().astype(np.int64)
        un = (
            df["da"].to_numpy().astype(np.int64)
            + df["db"].to_numpy().astype(np.int64)
            - iv
        )
        keep = 100 * iv >= tau * un
        out = pd.DataFrame(
            {
                "a": df["a"].to_numpy()[keep],
                "b": df["b"].to_numpy()[keep],
                "inter": iv[keep],
                "un": un[keep],
            }
        )
        out["jaccard"] = out["inter"].to_numpy().astype(
            np.float64
        ) / out["un"].to_numpy().astype(np.float64)
        return out

    if deg.count() <= broadcast_max_nodes:
        dp = deg.to_pandas()
        order = np.argsort(dp["node"].to_numpy(), kind="mergesort")
        ref = ray.put(
            (
                dp["node"].to_numpy()[order],
                dp["d"].to_numpy().astype(np.int64)[order],
            )
        )

        def _finish(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame(
                    {
                        "a": df["a"],
                        "b": df["b"],
                        "inter": pd.Series([], dtype="int64"),
                        "un": pd.Series([], dtype="int64"),
                        "jaccard": pd.Series([], dtype="float64"),
                    }
                )
            ids, dd = ray.get(ref)
            df = df.copy()
            df["da"] = dd[np.searchsorted(ids, df["a"].to_numpy())]
            df["db"] = dd[np.searchsorted(ids, df["b"].to_numpy())]
            return _threshold(df)

        return inter.map_batches(_finish, batch_format="pandas")

    # at-scale: degrees outgrew the driver — attach each side by a tagged
    # union + one coarse hash partition on that side (the repo-wide
    # equi-join shape), explicit column order on both union branches
    def _attach(ds, key: str, out_col: str):
        sch = ds.schema()
        payload = [c for c in sch.names if c != key]
        # placeholder fills MUST keep each column's dtype: an object-dtype
        # fill would flip the frame's key hash (hash_pandas_object hashes
        # int64 and object values differently), scattering the two union
        # sides across different partitions in the NEXT attach.  Schema
        # types are pyarrow DataTypes for arrow blocks but raw numpy
        # dtypes (or the bare ``object`` type for string columns) when the
        # upstream blocks are pandas — normalize both spellings.
        def _as_np_dtype(t):
            try:
                return np.dtype(t.to_pandas_dtype())
            except AttributeError:
                return np.dtype(t)

        pd_dtypes = {
            n: _as_np_dtype(t) for n, t in zip(sch.names, sch.types)
        }

        def _tag_pairs(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["__d"] = np.int64(-1)
            df["__isd"] = np.int8(0)
            return df[[key, *payload, "__d", "__isd"]]

        def _tag_deg(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({key: df["node"]})
            for c in payload:
                out[c] = np.zeros(len(df), dtype=pd_dtypes[c])
            out["__d"] = df["d"].to_numpy().astype(np.int64)
            out["__isd"] = np.int8(1)
            return out[[key, *payload, "__d", "__isd"]]

        both = ds.map_batches(_tag_pairs, batch_format="pandas").union(
            deg.map_batches(_tag_deg, batch_format="pandas")
        )

        def _merge(part: pd.DataFrame) -> pd.DataFrame:
            dd = part[part["__isd"] == 1][[key, "__d"]]
            pr = part[part["__isd"] == 0].drop(columns=["__d", "__isd"])
            m = pr.merge(dd, on=key, how="inner")
            return m.rename(columns={"__d": out_col})

        return partitioned_apply(both, key, _merge, num_parts=num_parts)

    withd = _attach(_attach(inter, "a", "da"), "b", "db")
    return withd.map_batches(
        lambda df: _threshold(df)
        if len(df)
        else pd.DataFrame(
            {
                "a": df["a"],
                "b": df["b"],
                "inter": pd.Series([], dtype="int64"),
                "un": pd.Series([], dtype="int64"),
                "jaccard": pd.Series([], dtype="float64"),
            }
        ),
        batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# Deterministic random-walk corpus (DeepWalk sampling stage)
# ---------------------------------------------------------------------------

_WALK_C_R = np.uint64(0x9E3779B97F4A7C15)  # walk-replica mixing constant
_WALK_C_T = np.uint64(0xC2B2AE3D27D4EB4F)  # step mixing constant
_WALK_C_S = np.uint64(0x100000001B3)  # seed mixing constant (FNV prime)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (the q_bootstrap_mean /
    dsir_select recipe) — wraparound multiplies ARE the modulus."""
    z = (z + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(
        0xFFFFFFFFFFFFFFFF
    )
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(
        0xFFFFFFFFFFFFFFFF
    )
    return z ^ (z >> np.uint64(31))


def _node_hash64(arr: np.ndarray) -> np.ndarray:
    """Vectorized blake2b-64 of a string array: hash only the DISTINCT
    values (np.unique codes — the dictionary_encode trick the dedup stages
    use), then gather.  Matches dedup._stable_hash64 bit-for-bit so a
    pure-python reference walker can reproduce the engine's choices."""
    import hashlib

    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    uniq, inv = np.unique(arr, return_inverse=True)
    h = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(str(x).encode(), digest_size=8).digest(), "big"
            )
            for x in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return h[inv]


def _walk_ids(starts: np.ndarray, r: np.ndarray) -> pd.Series:
    return pd.Series(starts, dtype=object).str.cat(
        pd.Series(r.astype(np.int64)).astype(str), sep="#"
    )


def random_walks(
    edges,
    walk_len: int = 5,
    walks_per_node: int = 1,
    seed: int = 11,
    max_start_nodes: int | None = None,
    broadcast_threshold: int = 2_000_000,
    num_parts: int = 64,
):
    """DeepWalk-style random-walk corpus over an undirected edge Dataset
    (columns ``s``, ``o``, DISTINCT pairs) — the sampling half of graph
    embedding training (Perozzi et al. 2014, arXiv:1403.6652): emit
    ``walks_per_node`` fixed-length walks from every node; downstream a
    skip-gram/unigram LM treats each walk as a sentence.  Engine-new
    (the reference has no graph-embedding face; this extends the KG stack
    the way bfs_hops/label_propagation do).

    DETERMINISM CONTRACT (what makes a "random" walk testable and
    engine-independent): from node ``cur`` at step ``t`` on walk replica
    ``r`` started at ``start``, the next node is

        sorted_neighbors(cur)[ mix(wkey ^ t*C_T ^ H(cur)) % deg(cur) ]
        with wkey = mix(H(start) ^ r*C_R ^ seed*C_S)

    where ``H`` is blake2b-64 of the node string and ``mix`` is
    splitmix64 — a pure function of strings, so both regimes below, a
    re-run, and a pure-python reference produce byte-identical walks
    regardless of batching or partitioning.

    Two regimes, gated on the symmetrized edge count like :func:`bfs_hops`:

    * ``<= broadcast_threshold``: build the CSR adjacency (sorted node
      array + indptr + neighbor-index array + node hashes) ONCE, broadcast
      via ``ray.put``; each task then walks its start-node batch to
      completion locally in index space — ``walk_len - 1`` vectorized
      gathers, ZERO shuffles after the one build.
    * above it: walker state (walk_id, wkey, cur) stays a Dataset; each
      step co-partitions walkers (key=cur) with the edges (key=s) by the
      repo-wide tagged-union + ``partitioned_apply`` shape and picks the
      next neighbor inside the partition from the locally-sorted,
      deduplicated neighbor run (same sorted order as the CSR, hence the
      same pick).  Driver state is O(1); per-step traffic is
      O(#walkers + edges), the walkers never collapse to the driver.

    Output: (walk_id = "{start}#{r}", step 0..walk_len-1, node), sorted by
    (walk_id, step).  ``max_start_nodes`` takes the FIRST n sorted nodes
    (deterministic subsetting for bounded query output).  Isolated nodes
    (absent from ``edges``) start no walks; every emitted step is an edge
    of the input graph by construction.
    """
    import ray.data as _rd

    from .grouping import partitioned_apply

    if walk_len < 1:
        raise ValueError("walk_len must be >= 1")
    if walks_per_node < 1:
        raise ValueError("walks_per_node must be >= 1")

    def _sym(t: pa.Table) -> pa.Table:
        s = t.column("s").combine_chunks()
        o = t.column("o").combine_chunks()
        return pa.table(
            {
                "s": pa.concat_arrays([s, o]),
                "o": pa.concat_arrays([o, s]),
            }
        )

    und = edges.map_batches(_sym, batch_format="pyarrow").materialize()
    n_sym = und.count()
    seed_key = np.uint64(seed) * _WALK_C_S

    if n_sym <= broadcast_threshold:
        # ---- broadcast regime: one CSR build, walk locally per task ----
        pdf = und.to_pandas()
        s = pdf["s"].to_numpy().astype(object)
        o = pdf["o"].to_numpy().astype(object)
        order = np.lexsort((o, s))
        s, o = s[order], o[order]
        if len(s) > 1:  # defensive consecutive dedup (input contract: distinct)
            keep = np.ones(len(s), dtype=bool)
            keep[1:] = (s[1:] != s[:-1]) | (o[1:] != o[:-1])
            s, o = s[keep], o[keep]
        nodes, first = np.unique(s, return_index=True)
        indptr = np.append(first, len(s)).astype(np.int64)
        neigh = np.searchsorted(nodes, o).astype(np.int64)
        h_nodes = _node_hash64(nodes)
        starts = nodes if max_start_nodes is None else nodes[:max_start_nodes]
        csr_ref = ray.put((nodes, indptr, neigh, h_nodes))

        def _walk(df: pd.DataFrame) -> pd.DataFrame:
            nodes_, indptr_, neigh_, h_ = ray.get(csr_ref)
            st = df["start"].to_numpy().astype(object)
            sidx = np.searchsorted(nodes_, st)
            sidx = np.repeat(sidx, walks_per_node)
            r = np.tile(
                np.arange(walks_per_node, dtype=np.uint64), len(df)
            )
            wid = _walk_ids(nodes_[sidx], r)
            wkey = _mix64(h_[sidx] ^ (r * _WALK_C_R) ^ seed_key)
            cur = sidx.copy()
            frames = [
                pd.DataFrame(
                    {"walk_id": wid, "step": np.int64(0), "node": nodes_[cur]}
                )
            ]
            for t in range(1, walk_len):
                deg = (indptr_[cur + 1] - indptr_[cur]).astype(np.uint64)
                k = _mix64(
                    wkey
                    ^ (np.full(len(cur), t, dtype=np.uint64) * _WALK_C_T)
                    ^ h_[cur]
                )
                cur = neigh_[indptr_[cur] + (k % deg).astype(np.int64)]
                frames.append(
                    pd.DataFrame(
                        {"walk_id": wid, "step": np.int64(t), "node": nodes_[cur]}
                    )
                )
            out = pd.concat(frames, ignore_index=True)
            out["step"] = out["step"].astype(np.int64)
            return out

        starts_ds = _rd.from_pandas(
            pd.DataFrame({"start": starts})
        ).repartition(8)
        return starts_ds.map_batches(_walk, batch_format="pandas").sort(
            ["walk_id", "step"]
        )

    # ---- distributed regime: walker Dataset, per-step co-partition ----
    from ray.data.aggregate import Count as _Count

    starts_ds = (
        und.groupby("s")
        .aggregate(_Count(alias_name="_n"))
        .select_columns(["s"])
        .sort("s")
    )
    if max_start_nodes is not None:
        starts_ds = starts_ds.limit(max_start_nodes)

    def _init(df: pd.DataFrame) -> pd.DataFrame:
        st = np.repeat(df["s"].to_numpy().astype(object), walks_per_node)
        r = np.tile(np.arange(walks_per_node, dtype=np.uint64), len(df))
        h = _node_hash64(st)
        return pd.DataFrame(
            {
                "walk_id": _walk_ids(st, r),
                "wkey": _mix64(h ^ (r * _WALK_C_R) ^ seed_key),
                "cur": st,
            }
        )

    walkers = starts_ds.map_batches(_init, batch_format="pandas").materialize()

    def _record(step: int):
        def _f(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "walk_id": df["walk_id"],
                    "step": np.full(len(df), step, dtype=np.int64),
                    "node": df["cur"],
                }
            )

        return _f

    outs = [walkers.map_batches(_record(0), batch_format="pandas")]

    def _tag_e(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["s"],
                "nxt": df["o"],
                "walk_id": "",
                "wkey": np.zeros(len(df), dtype=np.uint64),
                "is_e": np.int8(1),
            }
        )

    edges_tagged = und.map_batches(_tag_e, batch_format="pandas")

    for t in range(1, walk_len):

        def _tag_w(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": df["cur"],
                    "nxt": "",
                    "walk_id": df["walk_id"],
                    "wkey": df["wkey"].to_numpy().astype(np.uint64),
                    "is_e": np.int8(0),
                }
            )

        tagged = edges_tagged.union(
            walkers.map_batches(_tag_w, batch_format="pandas")
        )

        def _step(part: pd.DataFrame, _t=t) -> pd.DataFrame:
            empty = pd.DataFrame(
                {
                    "walk_id": pd.Series([], dtype=object),
                    "wkey": pd.Series([], dtype=np.uint64),
                    "cur": pd.Series([], dtype=object),
                }
            )
            w = part[part["is_e"] == 0]
            if not len(w):
                return empty
            e = part[part["is_e"] == 1]
            ek = e["key"].to_numpy().astype(object)
            en = e["nxt"].to_numpy().astype(object)
            order = np.lexsort((en, ek))
            ek, en = ek[order], en[order]
            if len(ek) > 1:  # same defensive dedup as the CSR build
                keep = np.ones(len(ek), dtype=bool)
                keep[1:] = (ek[1:] != ek[:-1]) | (en[1:] != en[:-1])
                ek, en = ek[keep], en[keep]
            node_u, first = np.unique(ek, return_index=True)
            indptr = np.append(first, len(ek)).astype(np.int64)
            cur = w["key"].to_numpy().astype(object)
            pos = np.searchsorted(node_u, cur)
            pos_c = np.minimum(pos, max(len(node_u) - 1, 0))
            present = (
                (node_u[pos_c] == cur) if len(node_u) else np.zeros(len(cur), bool)
            )
            if not present.all():
                # contract: starts come from the graph and every hop lands
                # on a graph node, so a miss means malformed input — drop
                w = w[present]
                cur = cur[present]
                pos_c = pos_c[present]
                if not len(w):
                    return empty
            deg = (indptr[pos_c + 1] - indptr[pos_c]).astype(np.uint64)
            wkey = w["wkey"].to_numpy().astype(np.uint64)
            k = _mix64(
                wkey
                ^ (np.full(len(w), _t, dtype=np.uint64) * _WALK_C_T)
                ^ _node_hash64(cur)
            )
            nxt = en[indptr[pos_c] + (k % deg).astype(np.int64)]
            return pd.DataFrame(
                {
                    "walk_id": w["walk_id"].to_numpy(),
                    "wkey": wkey,
                    "cur": nxt,
                }
            )

        walkers = partitioned_apply(
            tagged, "key", _step, num_parts=num_parts
        ).materialize()
        outs.append(walkers.map_batches(_record(t), batch_format="pandas"))

    out = outs[0]
    for ds in outs[1:]:
        out = out.union(ds)
    return out.sort(["walk_id", "step"])


def walk_skipgram_pairs(walks, window: int = 2, num_parts: int = 64):
    """Random-walk corpus -> skip-gram training-pair counts: for every walk
    row, each node within ``±window`` steps in the SAME walk becomes a
    (center, context) pair; output is the global pair count table — the
    second half of DeepWalk preprocessing (walks are sentences, these are
    the word2vec pairs; Perozzi et al. 2014 §4.2).

    Scale shape: ONE hash shuffle on walk_id (a walk is tiny, its rows
    co-locate), then per-partition vectorized pair generation by
    shifted-array alignment — after the (walk_id, step) sort, offset ``d``
    pairs row i with row i+d iff both belong to the same walk (steps are
    dense within a walk, so the step distance IS d); both directions
    emitted, partition-local combine, then one (center, context) combine
    over the already-collapsed partials.  No per-row Python anywhere.

    SQL-expressible (self-join on walk_id with |step delta| in [1, window])
    -> carries an exact DuckDB twin over the walks dump.
    Output: (center, context, n) sorted.
    """
    from .grouping import partitioned_apply

    if window < 1:
        raise ValueError("window must be >= 1")

    def _pairs(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "center": pd.Series([], dtype=object),
                "context": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
            }
        )
        if not len(part):
            return empty
        part = part.sort_values(["walk_id", "step"], kind="mergesort")
        w = part["walk_id"].to_numpy().astype(object)
        nd = part["node"].to_numpy().astype(object)
        cs, xs = [], []
        for d in range(1, window + 1):
            if d >= len(part):
                break
            same = w[d:] == w[:-d]
            a, b = nd[:-d][same], nd[d:][same]
            cs.append(a)
            xs.append(b)
            cs.append(b)  # both directions: skip-gram is symmetric
            xs.append(a)
        if not cs:
            return empty
        out = pd.DataFrame(
            {"center": np.concatenate(cs), "context": np.concatenate(xs)}
        )
        out["n"] = np.int64(1)
        return out.groupby(
            ["center", "context"], as_index=False, sort=False
        )["n"].sum()

    def _combine(part: pd.DataFrame) -> pd.DataFrame:
        if not len(part):
            return part
        out = part.groupby(
            ["center", "context"], as_index=False, sort=False
        )["n"].sum()
        out["n"] = out["n"].astype(np.int64)
        return out

    parts = partitioned_apply(walks, "walk_id", _pairs, num_parts=num_parts)
    return partitioned_apply(
        parts, ["center", "context"], _combine, num_parts=num_parts
    ).sort(["center", "context"])


def graph_embed_spectral(
    pairs,
    k: int = 4,
    iters: int = 20,
    num_parts: int = 64,
):
    """Spectral graph embeddings from skip-gram pair counts — the third
    and final DeepWalk stage (walks -> pairs -> embeddings): factorize the
    symmetric PPMI matrix of the (center, context, n) counts, which is the
    closed-form equivalent of skip-gram/negative-sampling training (Levy &
    Goldberg 2014, "Neural word embedding as implicit matrix
    factorization").  Output: the top-k (by |eigenvalue|) eigenvectors of
    PPMI as (node, dim, weight) rows; the k eigenvalues are emitted once
    under the sentinel node '' (dim j's eigenvalue), mirroring pca_top's
    leading-eigenvalue row.

    Scale shape: counts reduce to ONE vocab-bounded marginal vector
    (groupby Sum); the PPMI weight is a pure map over pair rows with the
    broadcast marginals (searchsorted lookup); each subspace-iteration
    step is ONE streaming pass over the pair rows emitting per-batch
    (center, k-vector) partials that collapse through a C-path groupby Sum
    — the pair table itself never shuffles after the initial id encoding.
    Driver/broadcast state is O(V x k) (the basis) + O(V) (marginals),
    the same vocab-bounded class as the BPE vocab broadcast; document
    V*k <= ~10^8 floats for a 256-node cluster driver.

    Deterministic: hash-seeded start basis (splitmix64 of blake2b node
    hash ^ column), fixed iteration count, QR re-orthonormalization and a
    final Rayleigh-Ritz rotation with sign-fixed columns (largest-|w|
    component positive).  No SQL twin (iterative spectral op) — pinned by
    dense numpy-eigh subspace parity + orthonormality + determinism tests.
    """
    from ray.data.aggregate import Sum

    if k < 1:
        raise ValueError("k must be >= 1")

    # ---- vocab-bounded marginals + node id table ----
    marg = (
        pairs.groupby("center")
        .aggregate(Sum("n", alias_name="nc"))
        .to_pandas()
        .sort_values("center", kind="mergesort")
    )
    nodes = marg["center"].to_numpy().astype(object)
    cnt = marg["nc"].to_numpy().astype(np.float64)
    V = len(nodes)
    total = float(cnt.sum())
    if V == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "node": pd.Series([], dtype=object),
                    "dim": pd.Series([], dtype=np.int64),
                    "weight": pd.Series([], dtype=np.float64),
                }
            )
        )
    k = min(k, V)
    marg_ref = ray.put((nodes, cnt, total))

    # ---- PPMI rows with integer node ids (one map, materialized) ----
    def _ppmi(t: pa.Table) -> pa.Table:
        nd, cn, tt = ray.get(marg_ref)
        c = t.column("center").to_numpy(zero_copy_only=False).astype(object)
        x = t.column("context").to_numpy(zero_copy_only=False).astype(object)
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        ci = np.searchsorted(nd, c)
        xi = np.searchsorted(nd, x)
        w = np.log((n * tt) / (cn[ci] * cn[xi]))
        keep = w > 0.0
        return pa.table(
            {
                "ci": pa.array(ci[keep].astype(np.int64)),
                "xi": pa.array(xi[keep].astype(np.int64)),
                "w": pa.array(w[keep], pa.float64()),
            }
        )

    M = pairs.map_batches(_ppmi, batch_format="pyarrow").materialize()

    # ---- deterministic start basis, orthonormalized ----
    h = _node_hash64(nodes)
    Y = np.empty((V, k), dtype=np.float64)
    for j in range(k):
        z = _mix64(h ^ np.full(V, j + 1, dtype=np.uint64) * _WALK_C_T)
        Y[:, j] = (z.astype(np.float64) / float(1 << 64)) - 0.5
    Y, _ = np.linalg.qr(Y)

    def _matvec(Yb) -> np.ndarray:
        """One streaming pass: Z = PPMI @ Y (symmetric matrix, both
        directions already present in the pair rows)."""
        y_ref = ray.put(Yb)

        def _part(t: pa.Table) -> pa.Table:
            Yl = ray.get(y_ref)
            ci = t.column("ci").to_numpy(zero_copy_only=False)
            xi = t.column("xi").to_numpy(zero_copy_only=False)
            w = t.column("w").to_numpy(zero_copy_only=False)
            u, inv = np.unique(ci, return_inverse=True)
            Z = np.zeros((len(u), Yl.shape[1]), dtype=np.float64)
            np.add.at(Z, inv, w[:, None] * Yl[xi])
            cols = {"ci": pa.array(u.astype(np.int64))}
            for j in range(Yl.shape[1]):
                cols[f"v{j}"] = pa.array(Z[:, j], pa.float64())
            return pa.table(cols)

        agg = (
            M.map_batches(_part, batch_format="pyarrow")
            .groupby("ci")
            .aggregate(*[Sum(f"v{j}", alias_name=f"v{j}") for j in range(k)])
            .to_pandas()
        )
        Z = np.zeros((V, k), dtype=np.float64)
        idx = agg["ci"].to_numpy().astype(np.int64)
        for j in range(k):
            Z[idx, j] = agg[f"v{j}"].to_numpy(np.float64)
        return Z

    for _ in range(iters):
        Z = _matvec(Y)
        Y, R = np.linalg.qr(Z)
        # sign-fix Q columns via R's diagonal so iteration is deterministic
        sgn = np.sign(np.diag(R))
        sgn[sgn == 0] = 1.0
        Y = Y * sgn

    # ---- Rayleigh-Ritz: rotate the basis to eigenvector estimates ----
    Z = _matvec(Y)
    T_small = Y.T @ Z
    T_small = (T_small + T_small.T) / 2.0
    evals, Q = np.linalg.eigh(T_small)
    order = np.argsort(-np.abs(evals))
    evals, Q = evals[order], Q[:, order]
    E = Y @ Q
    for j in range(k):  # largest-|w| component positive
        col = E[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            E[:, j] = -col
    out = pd.DataFrame(
        {
            "node": np.repeat(nodes, k),
            "dim": np.tile(np.arange(k, dtype=np.int64), V),
            "weight": E.ravel(),
        }
    )
    evrows = pd.DataFrame(
        {
            "node": np.array([""] * k, dtype=object),
            "dim": np.arange(k, dtype=np.int64),
            "weight": evals,
        }
    )
    return ray.data.from_pandas(
        pd.concat([evrows, out], ignore_index=True)
    ).sort(["node", "dim"])


def link_prediction_scores(
    edges,
    min_cn: int = 1,
    max_shared_deg: int | None = None,
    num_parts: int = 64,
    csr_max_edges: int = 30_000_000,
):
    """Classic shared-neighborhood link-prediction indices over an
    undirected simple graph — for every node pair (a, b) with at least
    ``min_cn`` common neighbors: the common-neighbor count CN, Adamic-Adar
    AA = sum_z 1/ln(deg z) and Resource Allocation RA = sum_z 1/deg z
    (Adamic & Adar 2003; Zhou, Lu & Zhang 2009).  This is the "which
    entities should be linked next" face of KG construction, complementing
    :func:`node_jaccard`: Jaccard scores overlap relative to the union
    size, these score the raw shared-neighborhood evidence with
    hub-discounted weights.

    Exactness contract (the repo's float-parity rule): a shared neighbor
    z contributes integer NANOUNITS ``floor(1e9 / ln(deg z))`` /
    ``floor(1e9 / deg z)``, quantized ONCE per z from its exact int64
    degree (deg z >= 2 whenever z is shared, so ln > 0); the per-pair
    scores are order-independent int64 Sums, and the float ``aa`` /
    ``ra`` columns are ONE correctly-rounded float64 division each of
    those sums by 1e9 — bit-equal to the DuckDB twin by construction
    (libm log + IEEE floor/division on both engines; parity asserted
    over deg in [2, 2e5] by test).

    Scale shape (100 TB): ONE hash shuffle of the both-direction
    adjacency on the shared-neighbor key m; inside each coarse partition
    every m-group is complete after the partition-local distinct, so
    deg(m) IS the m-group size — the per-neighbor weight needs NO degree
    attach, no broadcast, no second shuffle (contrast node_jaccard,
    whose union-size denominator forces the endpoint-degree attach).
    Pair generation is the segmented-arange i<j kernel (sum(deg^2) work,
    never all-pairs over nodes) with a partition-local (a, b) combine
    before the one global combine; the ``min_cn`` filter runs inside the
    global combine task so only survivors ever leave it.
    ``max_shared_deg`` is the hub gate for dense co-occurrence graphs:
    shared neighbors with degree above it are SKIPPED as evidence
    (defined operator semantics — standard AA practice, their 1/ln(deg)
    weight is negligible while their deg^2 pair cost dominates); it is
    partition-local group-size masking, zero extra passes.  Input
    ``edges`` (columns a, b): undirected; self-loops and duplicate rows
    are dropped inside (the :func:`k_core` contract).

    Output: (a, b, cn, aa_nano, ra_nano, aa, ra) with a < b, unsorted.
    """
    from .grouping import partitioned_apply

    min_cn = int(min_cn)
    hub_cap = None if max_shared_deg is None else int(max_shared_deg)

    # consumed several times below (schema probe, min/max aggregate,
    # count gate, both-directions view) — materialize once so a lazy
    # upstream (e.g. the co-purchase projection) never re-executes
    edges = edges.select_columns(["a", "b"]).materialize()

    def _both(t: pa.Table) -> pd.DataFrame:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        ne = a != b
        a, b = a[ne], b[ne]
        return pd.DataFrame(
            {"n": np.concatenate([a, b]), "m": np.concatenate([b, a])}
        )

    both = edges.map_batches(_both, batch_format="pyarrow")

    # TWO kernels (the node_jaccard routing): broadcast-CSR for integer
    # ids under the edge gate — sum(deg^2) gather work, zero shuffle,
    # no pair row ever materialized (300.7 s -> ~5 s at sf0.1); the
    # generic partitioned frame path for strings / at-scale edge counts
    try:
        sch = edges.schema()
        node_t = dict(zip(sch.names, sch.types))["a"]
        node_pd_dtype = np.dtype(node_t.to_pandas_dtype())
        packable = np.issubdtype(node_pd_dtype, np.integer)
        if packable:
            from ray.data.aggregate import Max as _Max, Min as _Min

            mm = edges.aggregate(
                _Min("a"), _Max("a"), _Min("b"), _Max("b")
            )
            packable = (
                mm is not None
                and mm.get("min(a)") is not None
                and min(mm["min(a)"], mm["min(b)"]) >= 0
                and max(mm["max(a)"], mm["max(b)"]) < 2**31
            )
    except Exception:
        packable = False
    if packable and edges.count() * 2 <= csr_max_edges:
        return _link_prediction_csr(
            both.materialize(), min_cn, hub_cap, node_pd_dtype,
            num_parts=num_parts,
        )

    def _pairs(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "a": part["n"].iloc[:0],
                "b": part["n"].iloc[:0],
                "cn": pd.Series([], dtype="int64"),
                "aa_nano": pd.Series([], dtype="int64"),
                "ra_nano": pd.Series([], dtype="int64"),
            }
        )
        if not len(part):
            return empty
        # partitioned by m -> every (n, m) copy of a given m is here, so
        # the local distinct is the global distinct and the m-group size
        # is exactly deg(m) in the undirected simple graph
        part = part.drop_duplicates(["n", "m"]).sort_values(
            ["m", "n"], kind="mergesort"
        )
        mm = part["m"].to_numpy()
        nn = part["n"].to_numpy()
        k = len(part)
        new = np.ones(k, dtype=bool)
        new[1:] = mm[1:] != mm[:-1]
        grp_start = np.flatnonzero(new)
        grp_end = np.append(grp_start[1:], k)
        sizes = (grp_end - grp_start).astype(np.int64)
        if hub_cap is not None:
            live = sizes <= hub_cap
            if not live.all():
                keep_rows = np.repeat(live, sizes)
                part = part[keep_rows]
                if not len(part):
                    return empty
                mm, nn = part["m"].to_numpy(), part["n"].to_numpy()
                k = len(part)
                new = np.ones(k, dtype=bool)
                new[1:] = mm[1:] != mm[:-1]
                grp_start = np.flatnonzero(new)
                grp_end = np.append(grp_start[1:], k)
                sizes = (grp_end - grp_start).astype(np.int64)
        # nanounit weights per m-group; size-1 groups emit no pairs —
        # mask them out of the ln so the kernel stays warning-free
        s = np.maximum(sizes, 2).astype(np.float64)
        w_aa = np.floor(1e9 / np.log(s)).astype(np.int64)
        w_ra = np.floor(1e9 / s).astype(np.int64)
        row_end = np.repeat(grp_end, sizes)
        row_idx = np.arange(k)
        reps = row_end - row_idx - 1
        total = int(reps.sum())
        if total == 0:
            return empty
        i_idx = np.repeat(row_idx, reps)
        seg = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps
        )
        j_idx = i_idx + 1 + seg
        w_aa_row = np.repeat(w_aa, sizes)
        w_ra_row = np.repeat(w_ra, sizes)
        # n sorted within each m-group -> a < b by construction
        out = pd.DataFrame(
            {
                "a": nn[i_idx],
                "b": nn[j_idx],
                "cn": np.ones(total, dtype=np.int64),
                "aa_nano": w_aa_row[i_idx],
                "ra_nano": w_ra_row[i_idx],
            }
        )
        return out.groupby(["a", "b"], as_index=False, sort=False)[
            ["cn", "aa_nano", "ra_nano"]
        ].sum()

    pairs = partitioned_apply(both, "m", _pairs, num_parts=num_parts)

    def _combine(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["a", "b"], as_index=False, sort=False)[
            ["cn", "aa_nano", "ra_nano"]
        ].sum()
        g = g[g["cn"].to_numpy().astype(np.int64) >= min_cn].copy()
        g["aa"] = g["aa_nano"].to_numpy().astype(np.float64) / 1e9
        g["ra"] = g["ra_nano"].to_numpy().astype(np.float64) / 1e9
        return g

    # key (a, b) co-locates under a hash partition on a alone
    return partitioned_apply(pairs, "a", _combine, num_parts=num_parts)


def hits(
    edges,
    iters: int = 30,
    tol: float = 1e-12,
    num_partitions: int = 16,
    broadcast_threshold: int = 2_000_000,
):
    """HITS hubs-and-authorities (Kleinberg 1999) over a directed simple
    graph — the KG face of "which entities aggregate links (hubs) and
    which attract them (authorities)", complementing :func:`pagerank`'s
    single-score ranking.  Per iteration: ``a = A'h; a /= ||a||2`` then
    ``h = A a; h /= ||h||2`` (the new ``a`` — the classic Gauss-Seidel
    ordering), init ``h = 1/sqrt(n)``.

    Input ``edges`` (columns s, o): directed; duplicate rows and
    self-loops are dropped inside (the :func:`k_core` contract, directed
    flavor: (s, o) distinct, s != o).  Returns (node_id, hub, auth) over
    every node appearing on either side; sink nodes get hub 0, source
    nodes auth 0.

    Two regimes by node count, the :func:`pagerank` shape exactly
    (forced-path test pins them equal):

    * ``n <= broadcast_threshold``: the hub/auth vectors live with the
      driver (same bound as broadcasting them); each half-iteration is
      ONE shuffle-free streaming pass over the edge dataset — the
      current vector is ``ray.put`` once, per-batch output is pre-summed
      per destination (pandas-groupby combiner), the driver reindex-sums
      the node-bounded partials and normalizes with one scalar.
    * above: the vectors stay a Dataset (node_id, h, a) end-to-end;
      each half-iteration = one tagged-union co-partitioned merge of
      edge rows with the source-side weights (coarse hash on the key —
      Dataset.join avoided for the schema-less-empty-block reason
      documented on pagerank), a groupby-Sum over pre-combined partials,
      and a carrier union back onto the node table; the L2 norm and the
      L1 delta are per-block scalars summed on the driver — nothing
      node-sized ever leaves the cluster.

    Iterative and float-normalized, so rows-only in the battery (the
    q_pca_top / q_kg_ppr class); pinned by a dense numpy parity test and
    the forced-path equivalence test.
    """
    import pyarrow.compute as pc
    import ray.data as rd

    from ray.data.aggregate import Count as _RdCount

    from .grouping import partitioned_apply

    # distinct directed edges, self-loops dropped — partition on s so the
    # local distinct is global
    def _clean(t: pa.Table) -> pd.DataFrame:
        s = t.column("s").to_numpy(zero_copy_only=False)
        o = t.column("o").to_numpy(zero_copy_only=False)
        ne = s != o
        return pd.DataFrame({"s": s[ne], "o": o[ne]})

    edges = partitioned_apply(
        edges.select_columns(["s", "o"]).map_batches(
            _clean, batch_format="pyarrow"
        ),
        "s",
        lambda part: part.drop_duplicates(["s", "o"]),
        num_parts=num_partitions,
    ).materialize()
    edges = _coalesce_for_iteration(edges, num_partitions)

    nodes = (
        edges.map_batches(
            lambda t: pa.table(
                {
                    "node_id": pa.concat_arrays(
                        [
                            pc.cast(t.column("s"), pa.string()).combine_chunks(),
                            pc.cast(t.column("o"), pa.string()).combine_chunks(),
                        ]
                    ).unique()
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("node_id")
        .aggregate(_RdCount(alias_name="_n"))
        .materialize()
    )
    n = nodes.count()
    if n == 0:
        return rd.from_pandas(
            pd.DataFrame({"node_id": [], "hub": [], "auth": []})
        )

    if n <= broadcast_threshold:
        return _hits_broadcast_regime(edges, nodes, n, iters, tol)
    return _hits_shuffle_regime(edges, nodes, n, iters, tol, num_partitions)


def _hits_broadcast_regime(edges, nodes, n, iters, tol):
    """Driver-resident vectors; one shuffle-free edges pass per half-step."""
    import ray.data as rd

    nd = nodes.to_pandas()
    node_index = pd.Index(nd["node_id"].astype(str))
    _P = pa.schema([("node_id", pa.string()), ("v", pa.float64())])

    def _propagate(vec: np.ndarray, src_col: str, dst_col: str) -> np.ndarray:
        w_ref = ray.put(pd.Series(vec, index=node_index))

        def _contrib(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return _P.empty_table()
            ws = ray.get(w_ref)
            sv = ws.reindex(
                t.column(src_col).to_pandas().astype(str)
            ).to_numpy()
            df = pd.DataFrame(
                {"node_id": t.column(dst_col).to_pandas().astype(str), "v": sv}
            )
            p = df.groupby("node_id", sort=False)["v"].sum().reset_index()
            return pa.table(
                {
                    "node_id": pa.array(p["node_id"], pa.string()),
                    "v": pa.array(p["v"].to_numpy(), pa.float64()),
                }
            )

        parts = edges.map_batches(_contrib, batch_format="pyarrow").to_pandas()
        return (
            parts.groupby("node_id", sort=False)["v"].sum()
            .reindex(node_index).fillna(0.0).to_numpy()
        )

    h = np.full(n, 1.0 / np.sqrt(n))
    a = np.zeros(n)
    for _ in range(iters):
        a_raw = _propagate(h, "s", "o")
        a_norm = float(np.sqrt((a_raw * a_raw).sum()))
        a_new = a_raw / a_norm if a_norm > 0 else a_raw
        h_raw = _propagate(a_new, "o", "s")
        h_norm = float(np.sqrt((h_raw * h_raw).sum()))
        h_new = h_raw / h_norm if h_norm > 0 else h_raw
        delta = float(np.abs(a_new - a).sum() + np.abs(h_new - h).sum())
        a, h = a_new, h_new
        if delta < tol:
            break
    return rd.from_pandas(
        pd.DataFrame({"node_id": node_index.to_numpy(), "hub": h, "auth": a})
    )


def _hits_shuffle_regime(edges, nodes, n, iters, tol, num_partitions):
    """At-scale regime: vectors stay a Dataset; per half-step one
    co-partitioned tagged-union merge + one groupby Sum + one carrier
    union; only scalars (norm, delta) reach the driver."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .grouping import partitioned_apply

    _VEC = pa.schema(
        [("node_id", pa.string()), ("h", pa.float64()), ("a", pa.float64())]
    )
    _MERGE = pa.schema(
        [("key", pa.string()), ("dst", pa.string()),
         ("w", pa.float64()), ("is_w", pa.int8())]
    )
    _CAR = pa.schema(
        [("node_id", pa.string()), ("v", pa.float64()),
         ("h", pa.float64()), ("a", pa.float64())]
    )

    def _init_vec(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _VEC.empty_table()
        k = len(t)
        return pa.table(
            {
                "node_id": pc.cast(t.column("node_id"), pa.string()),
                "h": pa.array(np.full(k, 1.0 / np.sqrt(n)), pa.float64()),
                "a": pa.array(np.zeros(k), pa.float64()),
            }
        )

    vec = nodes.map_batches(_init_vec, batch_format="pyarrow").materialize()

    def _merge_part(g: pd.DataFrame) -> pd.DataFrame:
        voc = g[g["is_w"] == 1]
        men = g[g["is_w"] == 0]
        if men.empty or voc.empty:
            return pd.DataFrame(
                {"node_id": pd.Series([], dtype=object),
                 "v": pd.Series([], dtype="float64")}
            )
        m = men[["key", "dst"]].merge(voc[["key", "w"]], on="key", how="inner")
        p = m.groupby("dst", sort=False)["w"].sum().reset_index()
        return pd.DataFrame({"node_id": p["dst"], "v": p["w"]})

    def _propagate(vcol: str, src_col: str, dst_col: str):
        """raw[dst] = sum over edges of vec[vcol][src] — returns a Dataset
        (node_id, v) of pre-combined partial sums fully reduced."""

        def _weight_rows(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return _MERGE.empty_table()
            k = len(t)
            return pa.table(
                {
                    "key": pc.cast(t.column("node_id"), pa.string()),
                    "dst": pa.array([""] * k, pa.string()),
                    "w": pc.cast(t.column(vcol), pa.float64()),
                    "is_w": pa.array(np.ones(k, dtype=np.int8)),
                }
            )

        def _edge_rows(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return _MERGE.empty_table()
            return pa.table(
                {
                    "key": pc.cast(t.column(src_col), pa.string()),
                    "dst": pc.cast(t.column(dst_col), pa.string()),
                    "w": pa.array(np.zeros(len(t)), pa.float64()),
                    "is_w": pa.array(np.zeros(len(t), dtype=np.int8)),
                }
            )

        def _raw_carrier(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.schema(
                    [("node_id", pa.string()), ("v", pa.float64())]
                ).empty_table()
            return pa.table(
                {
                    "node_id": pc.cast(t.column("node_id"), pa.string()),
                    "v": pc.cast(t.column("v"), pa.float64()),
                }
            )

        rows = edges.map_batches(_edge_rows, batch_format="pyarrow").union(
            vec.map_batches(_weight_rows, batch_format="pyarrow")
        )
        return (
            partitioned_apply(rows, "key", _merge_part, num_parts=num_partitions)
            .map_batches(_raw_carrier, batch_format="pyarrow")
            .groupby("node_id")
            .aggregate(Sum("v", alias_name="v"))
        )

    def _sumsq(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"ss": pa.array([0.0], pa.float64())})
        v = t.column("v").to_numpy(zero_copy_only=False)
        return pa.table({"ss": pa.array([float((v * v).sum())], pa.float64())})

    def _attach(raw, col: str, norm: float):
        """vec[col] <- raw/norm via a carrier union + groupby Sum; emits
        per-block L1-delta scalars as a side column consumed by _delta."""

        def _vec_carrier(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return _CAR.empty_table()
            return pa.table(
                {
                    "node_id": pc.cast(t.column("node_id"), pa.string()),
                    "v": pa.array(np.zeros(len(t)), pa.float64()),
                    "h": pc.cast(t.column("h"), pa.float64()),
                    "a": pc.cast(t.column("a"), pa.float64()),
                }
            )

        def _raw_as_car(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _CAR.empty_table()
            k = len(t)
            return pa.table(
                {
                    "node_id": pc.cast(t.column("node_id"), pa.string()),
                    "v": pc.cast(t.column("v"), pa.float64()),
                    "h": pa.array(np.zeros(k), pa.float64()),
                    "a": pa.array(np.zeros(k), pa.float64()),
                }
            )

        merged = (
            vec.map_batches(_vec_carrier, batch_format="pyarrow")
            .union(raw.map_batches(_raw_as_car, batch_format="pyarrow"))
            .groupby("node_id")
            .aggregate(
                Sum("v", alias_name="v"),
                Sum("h", alias_name="h"),
                Sum("a", alias_name="a"),
            )
        )

        def _scale(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                sch = pa.schema(
                    [("node_id", pa.string()), ("h", pa.float64()),
                     ("a", pa.float64()), ("absdiff", pa.float64())]
                )
                return sch.empty_table()
            v = t.column("v").to_numpy(zero_copy_only=False)
            new = v / norm if norm > 0 else v
            old = t.column(col).to_numpy(zero_copy_only=False)
            out = {
                "node_id": t.column("node_id"),
                "h": t.column("h"),
                "a": t.column("a"),
            }
            out[col] = pa.array(new, pa.float64())
            out["absdiff"] = pa.array(np.abs(new - old), pa.float64())
            return pa.table(out)

        return merged.map_batches(_scale, batch_format="pyarrow").materialize()

    def _delta(ds) -> float:
        def _block(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.table({"d": pa.array([0.0], pa.float64())})
            return pa.table(
                {"d": pa.array([pc.sum(t.column("absdiff")).as_py() or 0.0])}
            )

        return float(ds.map_batches(_block, batch_format="pyarrow").to_pandas()["d"].sum())

    for _ in range(iters):
        a_raw = _propagate("h", "s", "o").materialize()
        a_norm = float(
            np.sqrt(
                a_raw.map_batches(_sumsq, batch_format="pyarrow")
                .to_pandas()["ss"].sum()
            )
        )
        vec = _attach(a_raw, "a", a_norm)
        d_a = _delta(vec)
        h_raw = _propagate("a", "o", "s").materialize()
        h_norm = float(
            np.sqrt(
                h_raw.map_batches(_sumsq, batch_format="pyarrow")
                .to_pandas()["ss"].sum()
            )
        )
        vec = _attach(h_raw, "h", h_norm)
        delta = d_a + _delta(vec)
        if delta < tol:
            break

    def _final(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.schema(
                [("node_id", pa.string()), ("hub", pa.float64()),
                 ("auth", pa.float64())]
            ).empty_table()
        return pa.table(
            {
                "node_id": t.column("node_id"),
                "hub": t.column("h"),
                "auth": t.column("a"),
            }
        )

    return vec.map_batches(_final, batch_format="pyarrow")


def _link_prediction_csr(
    both, min_cn: int, hub_cap, node_pd_dtype, num_parts: int = 64
):
    """Broadcast-CSR kernel for :func:`link_prediction_scores` (the
    :func:`_node_jaccard_csr` shape): the deduped adjacency is assembled
    in ONE remote task from the both-directions view's own block refs —
    the driver receives only the node-bounded (ids, indptr) pair — and
    cum-degree-balanced node ranges each score their nodes'
    neighbor-of-neighbor multisets by gather + argsort + run-length
    reduceat, with the per-neighbor nanounit weights computed from the
    CSR degrees in-task.  No pair row ever materializes, nothing
    shuffles.  Measured 300.7 s -> single-digit seconds on the sf0.1
    co-purchase graph (sum(deg^2) ~ 3*10^8 virtual pairs)."""

    @ray.remote
    def _build(*tbls):
        tbls = [t for t in tbls if "n" in t.schema.names and t.num_rows]
        if not tbls:
            z = np.zeros(0, dtype=np.int64)
            return z, np.zeros(1, dtype=np.int64), z
        n_all = np.concatenate(
            [t.column("n").to_numpy(zero_copy_only=False) for t in tbls]
        ).astype(np.int64)
        m_all = np.concatenate(
            [t.column("m").to_numpy(zero_copy_only=False) for t in tbls]
        ).astype(np.int64)
        packed = np.unique((n_all << np.int64(32)) | m_all)
        nd_ids = np.unique(n_all)
        n_dense = np.searchsorted(nd_ids, packed >> np.int64(32))
        m_dense = np.searchsorted(
            nd_ids, packed & np.int64(0xFFFFFFFF)
        )
        counts = np.bincount(n_dense, minlength=len(nd_ids))
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # packed sort order == (n, m) order, so m_dense is already grouped
        return nd_ids, indptr, m_dense

    csr_ref = _build.remote(*both.to_arrow_refs())
    ids, indptr, _ = ray.get(csr_ref)  # node-bounded driver state only
    n_nodes = len(ids)
    if n_nodes == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "a": pd.Series([], dtype=node_pd_dtype),
                    "b": pd.Series([], dtype=node_pd_dtype),
                    "cn": pd.Series([], dtype="int64"),
                    "aa_nano": pd.Series([], dtype="int64"),
                    "ra_nano": pd.Series([], dtype="int64"),
                    "aa": pd.Series([], dtype="float64"),
                    "ra": pd.Series([], dtype="float64"),
                }
            )
        )
    cum = indptr
    n_ranges = max(num_parts, 1)
    cuts = np.searchsorted(
        cum, np.linspace(0, cum[-1], n_ranges + 1), side="left"
    )
    cuts[0], cuts[-1] = 0, n_nodes
    cuts = np.unique(cuts)
    ranges = [
        {"lo": int(lo), "hi": int(hi)}
        for lo, hi in zip(cuts[:-1], cuts[1:])
        if hi > lo
    ]

    def _empty_out() -> pd.DataFrame:
        return pd.DataFrame(
            {
                "a": pd.Series([], dtype=node_pd_dtype),
                "b": pd.Series([], dtype=node_pd_dtype),
                "cn": pd.Series([], dtype="int64"),
                "aa_nano": pd.Series([], dtype="int64"),
                "ra_nano": pd.Series([], dtype="int64"),
                "aa": pd.Series([], dtype="float64"),
                "ra": pd.Series([], dtype="float64"),
            }
        )

    mc = int(min_cn)
    cap = hub_cap

    def _score(batch: pd.DataFrame) -> pd.DataFrame:
        ids_, indptr_, dst = ray.get(csr_ref)
        degs = np.diff(indptr_)
        s_deg = np.maximum(degs, 2).astype(np.float64)
        w_aa_all = np.floor(1e9 / np.log(s_deg)).astype(np.int64)
        w_ra_all = np.floor(1e9 / s_deg).astype(np.int64)
        live = (
            degs <= cap if cap is not None
            else np.ones(len(degs), dtype=bool)
        )
        oa, ob, oc, owa, owr = [], [], [], [], []
        for lo, hi in zip(batch["lo"].to_numpy(), batch["hi"].to_numpy()):
            for a in range(int(lo), int(hi)):
                neigh = dst[indptr_[a]:indptr_[a + 1]]
                if cap is not None:
                    neigh = neigh[live[neigh]]
                if not len(neigh):
                    continue
                st = indptr_[neigh]
                ln = indptr_[neigh + 1] - st
                tot = int(ln.sum())
                if tot == 0:
                    continue
                gi = np.repeat(st, ln) + (
                    np.arange(tot)
                    - np.repeat(
                        np.concatenate([[0], np.cumsum(ln)[:-1]]), ln
                    )
                )
                g = dst[gi]
                w1 = np.repeat(w_aa_all[neigh], ln)
                w2 = np.repeat(w_ra_all[neigh], ln)
                o = np.argsort(g, kind="stable")
                g, w1, w2 = g[o], w1[o], w2[o]
                runs = np.ones(tot, dtype=bool)
                runs[1:] = g[1:] != g[:-1]
                starts = np.flatnonzero(runs)
                ub = g[starts]
                keep_b = ub > a  # one direction + drops b == a
                if not keep_b.any():
                    continue
                cnts = np.diff(np.append(starts, tot)).astype(np.int64)
                aas = np.add.reduceat(w1, starts)
                ras = np.add.reduceat(w2, starts)
                cnts, aas, ras, ub = (
                    cnts[keep_b], aas[keep_b], ras[keep_b], ub[keep_b]
                )
                keep = cnts >= mc
                if not keep.any():
                    continue
                oa.append(np.full(int(keep.sum()), a, dtype=np.int64))
                ob.append(ub[keep])
                oc.append(cnts[keep])
                owa.append(aas[keep])
                owr.append(ras[keep])
        if not oa:
            return _empty_out()
        aarr = ids_[np.concatenate(oa)]
        barr = ids_[np.concatenate(ob)]
        cn = np.concatenate(oc)
        aan = np.concatenate(owa)
        ran = np.concatenate(owr)
        return pd.DataFrame(
            {
                "a": aarr.astype(node_pd_dtype),
                "b": barr.astype(node_pd_dtype),
                "cn": cn,
                "aa_nano": aan,
                "ra_nano": ran,
                "aa": aan.astype(np.float64) / 1e9,
                "ra": ran.astype(np.float64) / 1e9,
            }
        )

    import ray.data as _rd

    return _rd.from_items(
        ranges, override_num_blocks=max(len(ranges), 1)
    ).map_batches(_score, batch_format="pandas", batch_size=1)


def harmonic_centrality(
    edges,
    sample: int = 8,
    max_hops: int = 4,
    broadcast_threshold: int = 2_000_000,
    num_parts: int = 64,
):
    """Sampled harmonic closeness centrality (Boldi & Vigna 2014) over an
    undirected edge Dataset (columns s, o) — "which entities sit near the
    middle of the KG", the standard sampled approximation: centrality(v)
    = (1/|S|) * sum over sampled sources u of 1 / d(u, v), with
    unreachable pairs contributing 0 (harmonic handles disconnected
    graphs where classic closeness does not).

    Sources are DETERMINISTIC: the ``sample`` nodes with the smallest
    blake2b64 of their string id (partitioning/regime can never change
    the sample).  Each source runs one :func:`bfs_hops` sweep (certified
    dual-regime traversal; hop distances capped at ``max_hops``, the
    sampled-centrality horizon), contributions union + groupby-Sum, and
    nodes no source reaches keep centrality 0 via a carrier union with
    the node table.  Cost is ``sample`` independent BFS sweeps — the
    knob that makes centrality tractable at 10^12 edges; exactness
    improves as O(1/sqrt(sample)) like any Monte Carlo estimate.

    Output: (node, harmonic, reached) — reached = number of sampled
    sources with a finite path; ``harmonic`` is one float64 division of
    the nanounit-exact int sum (floor(1e9/d) per source) by
    sample * 1e9, so results are bit-deterministic."""
    import hashlib as _hl

    import ray.data as rd

    from ray.data.aggregate import Count as _RdHCCount, Sum as _Sum

    def _as_str(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "s": pc.cast(t.column("s"), pa.string()),
                "o": pc.cast(t.column("o"), pa.string()),
            }
        )

    # the whole op runs in string node space (the hash sample and the
    # bfs seeds must share the edge dtype)
    edges = (
        edges.select_columns(["s", "o"])
        .map_batches(_as_str, batch_format="pyarrow")
        .materialize()
    )

    def _nodes(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        t.column("s").combine_chunks(),
                        t.column("o").combine_chunks(),
                    ]
                ).unique()
            }
        )

    def _hkey(df: pd.DataFrame) -> pd.DataFrame:
        ks = [
            int.from_bytes(
                _hl.blake2b(str(v).encode(), digest_size=8).digest(), "big"
            )
            for v in df["node"]
        ]
        return pd.DataFrame({"node": df["node"], "hk": ks})

    nodes = (
        edges.map_batches(_nodes, batch_format="pyarrow")
        .groupby("node")
        .aggregate(_RdHCCount(alias_name="_n"))
        .materialize()
    )
    # deterministic sample: globally smallest hash keys (tiny sort+limit)
    src_pd = (
        nodes.map_batches(
            lambda df: _hkey(df[["node"]]), batch_format="pandas"
        )
        .sort("hk")
        .limit(int(sample))
        .to_pandas()
    )
    sources = [str(v) for v in src_pd["node"]]
    if not sources:
        return rd.from_pandas(
            pd.DataFrame({"node": [], "harmonic": [], "reached": []})
        )

    parts = []
    for src in sources:
        d = bfs_hops(
            edges, [src], max_hops=max_hops,
            broadcast_threshold=broadcast_threshold, num_parts=num_parts,
        )

        def _contrib(df: pd.DataFrame) -> pd.DataFrame:
            dist = df["dist"].to_numpy().astype(np.int64)
            pos = dist >= 1
            return pd.DataFrame(
                {
                    "node": df["node"].to_numpy()[pos],
                    "h_nano": (1_000_000_000 // dist[pos]).astype(np.int64),
                    "reached": np.ones(int(pos.sum()), dtype=np.int64),
                }
            )

        parts.append(d.map_batches(_contrib, batch_format="pandas"))

    def _carrier(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": df["node"],
                "h_nano": np.zeros(len(df), dtype=np.int64),
                "reached": np.zeros(len(df), dtype=np.int64),
            }
        )

    allc = nodes.map_batches(
        lambda df: _carrier(df[["node"]]), batch_format="pandas"
    )
    for p in parts:
        allc = allc.union(p)
    summed = allc.groupby("node").aggregate(
        _Sum("h_nano", alias_name="h_nano"),
        _Sum("reached", alias_name="reached"),
    )
    denom = float(int(sample)) * 1e9

    def _finish(df: pd.DataFrame) -> pd.DataFrame:
        if "node" not in df.columns:
            return pd.DataFrame(
                {"node": pd.Series([], dtype=object),
                 "harmonic": pd.Series([], dtype="float64"),
                 "reached": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {
                "node": df["node"],
                "harmonic": df["h_nano"].to_numpy().astype(np.float64)
                / denom,
                "reached": df["reached"].to_numpy().astype(np.int64),
            }
        )

    return summed.map_batches(_finish, batch_format="pandas")


def skipgram_negatives(
    pairs,
    k: int = 3,
    power: float = 0.75,
    seed: int = 0,
    vocab_broadcast_max: int = 5_000_000,
):
    """Word2vec-style negative sampling over the skip-gram pair table —
    the third DeepWalk preprocessing stage (after :func:`random_walks`
    and :func:`walk_skipgram_pairs`): each (center, context, n) positive
    gains ``k`` negatives drawn from the context unigram distribution
    raised to ``power`` (0.75, the Mikolov et al. 2013 smoothing), so
    the output is the full SGNS training set (center, context, label, n).

    DETERMINISTIC (the :func:`random_walks` contract): negative j of a
    pair is ``vocab[searchsorted(cdf, u)]`` with u =
    splitmix64(blake2b64(center) ^ blake2b64(context) ^ (j+1)·C ^
    seed·C') / 2^64 — a pure function of the node STRINGS, so batching,
    partitioning and retries can never change a sample.

    Scale shape: the context marginal reduces to ONE vocab-bounded count
    table (groupby Sum — the BPE-vocab broadcast class, gated by
    ``vocab_broadcast_max``); sampling is then a pure map over the pair
    table with a broadcast (vocab, cdf) pair — no shuffle beyond the
    marginal reduce.  Output is unsorted; positives pass through
    value-exact."""
    import ray.data as rd

    from ray.data.aggregate import Sum as _Sum

    if k < 1:
        raise ValueError("k must be >= 1")

    marg = (
        pairs.groupby("context")
        .aggregate(_Sum("n", alias_name="cnt"))
        .to_pandas()
    )
    if len(marg) > vocab_broadcast_max:
        raise ValueError(
            f"context vocabulary {len(marg)} exceeds vocab_broadcast_max "
            f"({vocab_broadcast_max}); shard the vocab or raise the gate"
        )
    marg = marg.sort_values("context").reset_index(drop=True)
    w = marg["cnt"].to_numpy().astype(np.float64) ** float(power)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    vocab = marg["context"].to_numpy()
    dist_ref = ray.put((vocab, cdf))
    kk = int(k)
    seed_mix = np.uint64(seed) * _WALK_C_S

    def _expand(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "center": pd.Series([], dtype=object),
                "context": pd.Series([], dtype=object),
                "label": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
            }
        )
        if not len(df):
            return empty
        voc, cdf_ = ray.get(dist_ref)
        c_h = _node_hash64(df["center"].to_numpy())
        x_h = _node_hash64(df["context"].to_numpy())
        negs = []
        for j in range(kk):
            u = _mix64(
                c_h ^ x_h ^ (np.uint64(j + 1) * _WALK_C_T) ^ seed_mix
            ).astype(np.float64) / float(2**64)
            idx = np.searchsorted(cdf_, u, side="right")
            negs.append(voc[np.minimum(idx, len(voc) - 1)])
        pos = pd.DataFrame(
            {
                "center": df["center"].to_numpy(),
                "context": df["context"].to_numpy(),
                "label": np.ones(len(df), dtype=np.int64),
                "n": df["n"].to_numpy().astype(np.int64),
            }
        )
        neg = pd.DataFrame(
            {
                "center": np.tile(df["center"].to_numpy(), kk),
                "context": np.concatenate(negs),
                "label": np.zeros(len(df) * kk, dtype=np.int64),
                "n": np.tile(df["n"].to_numpy().astype(np.int64), kk),
            }
        )
        return pd.concat([pos, neg], ignore_index=True)

    return pairs.map_batches(_expand, batch_format="pandas")


_WALK_C_P = np.uint64(0x2545F4914F6CDD1D)  # prev-node mixing constant (node2vec)


def node2vec_walks(
    edges,
    walk_len: int = 5,
    walks_per_node: int = 1,
    p: float = 4.0,
    q: float = 0.25,
    seed: int = 11,
    max_start_nodes: int | None = None,
    csr_max_sym_edges: int = 50_000_000,
):
    """node2vec biased second-order random walks (Grover & Leskovec 2016,
    arXiv:1607.00653) — the return-parameter/in-out-parameter face of
    :func:`random_walks`.  From node ``cur`` with previous node ``prev``,
    each sorted neighbor ``x`` of ``cur`` weighs

        1/p  if x == prev              (return)
        1    if (prev, x) is an edge   (BFS-ish, stays local)
        1/q  otherwise                 (DFS-ish, explores outward)

    and the next hop is the weighted pick at
    ``k = mix(wkey ^ t*C_T ^ H(cur) ^ H(prev)*C_P)`` on the weight vector
    in sorted-neighbor order — weights quantize ONCE to int64 nanounits
    (``round(1e9/p)``, ``1e9``, ``round(1e9/q)`` — the link-prediction
    precedent), the cumulative sum is integer-exact, and the pick is
    ``k mod total_weight``, so the choice is a pure function of the node
    STRINGS (the :func:`random_walks` determinism contract): a re-run, any
    batching, and the pure-python reference agree byte-for-byte with no
    float-accumulation hazard.  The first hop (no ``prev``) is uniform,
    per the paper.

    SCALE SHAPE / PARTITIONING ASSUMPTION (documented, gated): second-order
    walks need ``N(cur)`` and the ``N(prev)`` membership test at every
    step, so each walking task holds the CSR adjacency + a packed sorted
    edge-key array, built ONCE in this job and shared via ``ray.put``
    (~24 bytes per symmetrized edge); start nodes fan out across tasks and
    walk to completion locally with zero shuffles — the layout every
    production node2vec (PBG/GraphVite shards, Spark broadcast) uses,
    because the per-step co-partition alternative must ship candidate rows
    keyed by (prev, cand) — sum(deg) rows and TWO shuffles per step.
    Graphs whose symmetrized edge count exceeds ``csr_max_sym_edges``
    (object-store bound, ~1.2 GB at the default) raise NotImplementedError
    naming the assumption rather than silently thrashing; the scale path is
    component/METIS-partitioned per-shard CSRs, which this operator's
    task-local walker already expresses within each shard.

    Output: (walk_id = "{start}#{r}", step, node) sorted by (walk_id,
    step); isolated nodes start no walks; every consecutive pair is an
    input edge by construction.
    """
    import ray.data as _rd

    if walk_len < 1:
        raise ValueError("walk_len must be >= 1")
    if walks_per_node < 1:
        raise ValueError("walks_per_node must be >= 1")
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be > 0")

    def _sym(t: pa.Table) -> pa.Table:
        s = t.column("s").combine_chunks()
        o = t.column("o").combine_chunks()
        return pa.table(
            {"s": pa.concat_arrays([s, o]), "o": pa.concat_arrays([o, s])}
        )

    und = edges.map_batches(_sym, batch_format="pyarrow").materialize()
    n_sym = und.count()
    if n_sym > csr_max_sym_edges:
        raise NotImplementedError(
            "node2vec_walks holds the CSR + packed edge set per task "
            f"(symmetrized edges {n_sym} > csr_max_sym_edges "
            f"{csr_max_sym_edges}); partition the graph (per-component / "
            "balanced shards) and run per shard — second-order bias needs "
            "N(cur) x N(prev) joint locality"
        )
    seed_key = np.uint64(seed) * _WALK_C_S

    pdf = und.to_pandas()
    s = pdf["s"].to_numpy().astype(object)
    o = pdf["o"].to_numpy().astype(object)
    order = np.lexsort((o, s))
    s, o = s[order], o[order]
    if len(s) > 1:  # defensive consecutive dedup (input contract: distinct)
        keep = np.ones(len(s), dtype=bool)
        keep[1:] = (s[1:] != s[:-1]) | (o[1:] != o[:-1])
        s, o = s[keep], o[keep]
    nodes, first = np.unique(s, return_index=True)
    indptr = np.append(first, len(s)).astype(np.int64)
    neigh = np.searchsorted(nodes, o).astype(np.int64)
    h_nodes = _node_hash64(nodes)
    n_nodes = len(nodes)
    packed = np.sort(
        np.searchsorted(nodes, s).astype(np.int64) * n_nodes + neigh
    )
    starts = nodes if max_start_nodes is None else nodes[:max_start_nodes]
    csr_ref = ray.put((nodes, indptr, neigh, h_nodes, packed))
    # nanounit integer weights: exact int64 cumsums, no float accumulation
    w_p = np.int64(round(1e9 / float(p)))
    w_q = np.int64(round(1e9 / float(q)))
    w_edge = np.int64(1_000_000_000)

    def _walk(df: pd.DataFrame) -> pd.DataFrame:
        nodes_, indptr_, neigh_, h_, packed_ = ray.get(csr_ref)
        n_ = len(nodes_)
        sidx = np.repeat(
            np.searchsorted(nodes_, df["start"].to_numpy().astype(object)),
            walks_per_node,
        )
        r = np.tile(np.arange(walks_per_node, dtype=np.uint64), len(df))
        wid = _walk_ids(nodes_[sidx], r)
        wkey = _mix64(h_[sidx] ^ (r * _WALK_C_R) ^ seed_key)
        cur = sidx.copy()
        prev = np.full(len(cur), -1, dtype=np.int64)  # -1 = no prev (t=1)
        frames = [
            pd.DataFrame({"walk_id": wid, "step": np.int64(0), "node": nodes_[cur]})
        ]
        for t in range(1, walk_len):
            deg = (indptr_[cur + 1] - indptr_[cur]).astype(np.int64)
            total = int(deg.sum())
            seg_start = np.zeros(len(cur) + 1, dtype=np.int64)
            np.cumsum(deg, out=seg_start[1:])
            # flat candidate array: neighbors of every walker's cur, in CSR
            # (sorted) order
            flat_pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(seg_start[:-1], deg)
                + np.repeat(indptr_[cur], deg)
            )
            cand = neigh_[flat_pos]
            prev_rep = np.repeat(prev, deg)
            w = np.full(total, w_q, dtype=np.int64)
            # distance-1: (prev, cand) is an edge
            has_prev = prev_rep >= 0
            key = prev_rep * n_ + cand
            is_edge = np.zeros(total, dtype=bool)
            if has_prev.any():
                loc = np.searchsorted(packed_, key[has_prev])
                loc_ok = loc < len(packed_)
                hit = np.zeros(int(has_prev.sum()), dtype=bool)
                hit[loc_ok] = packed_[loc[loc_ok]] == key[has_prev][loc_ok]
                is_edge[has_prev] = hit
            w[is_edge] = w_edge
            w[cand == prev_rep] = w_p
            w[~has_prev] = np.int64(1)  # first hop: uniform
            cs = np.cumsum(w)  # int64-exact: global - base == local cumsum
            base = cs[seg_start[:-1]] - w[seg_start[:-1]]
            tot = (cs[seg_start[1:] - 1] - base).astype(np.uint64)
            k = _mix64(
                wkey
                ^ (np.full(len(cur), t, dtype=np.uint64) * _WALK_C_T)
                ^ h_[cur]
                ^ (np.where(prev >= 0, h_[np.maximum(prev, 0)], 0).astype(np.uint64)
                   * _WALK_C_P)
            )
            target = base + (k % tot).astype(np.int64)
            pos = np.searchsorted(cs, target, side="right")
            pos = np.minimum(pos, seg_start[1:] - 1)
            prev = cur
            cur = cand[pos]
            frames.append(
                pd.DataFrame(
                    {"walk_id": wid, "step": np.int64(t), "node": nodes_[cur]}
                )
            )
        out = pd.concat(frames, ignore_index=True)
        out["step"] = out["step"].astype(np.int64)
        return out

    starts_ds = _rd.from_pandas(pd.DataFrame({"start": starts})).repartition(8)
    return starts_ds.map_batches(_walk, batch_format="pandas").sort(
        ["walk_id", "step"]
    )
