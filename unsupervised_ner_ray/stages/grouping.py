"""Coarse-partition grouped execution.

``ds.groupby(keys).map_groups(fn)`` pays one Ray-level Python call per
GROUP — ruinous when groups are numerous and small (per-token vocab merges,
per-user windows, per-surface canonicalization: the common case at corpus
scale).  ``partitioned_map_groups`` keeps the exact same per-group semantics
but shuffles ONCE on a coarse deterministic hash of the key (a key's group
never splits across partitions) and iterates the real groups locally in
pandas inside each partition, which is orders of magnitude cheaper per
group.  ``num_parts`` bounds per-reducer memory: raise it for bigger data,
exactly like choosing the number of reducers.

The partition hash is ``pd.util.hash_pandas_object`` with its fixed default
key — deterministic across processes and nodes (builtin ``hash`` is NOT).
"""

from __future__ import annotations

import pandas as pd

_PART_COL = "__part"


def partitioned_map_groups(ds, keys, fn, num_parts: int = 64):
    """Semantics of ``ds.groupby(keys).map_groups(fn, batch_format="pandas")``
    with one coarse hash shuffle instead of per-group task dispatch: a
    per-group loop inside :func:`partitioned_apply`.

    ``fn`` receives each group as a DataFrame (grouping columns included,
    like map_groups) and returns a DataFrame.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def _apply(part: pd.DataFrame) -> pd.DataFrame:
        out = [fn(g) for _, g in part.groupby(keys, sort=True)]
        out = [o for o in out if o is not None and len(o)]
        if not out:
            # every group produced nothing: emit a 0-row frame with fn's
            # output schema when fn tolerates empty input, else nothing
            try:
                return fn(part.iloc[0:0])
            except Exception:  # noqa: BLE001
                return pd.DataFrame()
        return pd.concat(out, ignore_index=True)

    return partitioned_apply(ds, keys, _apply, num_parts)


def partitioned_apply(ds, keys, fn, num_parts: int = 64):
    """Hash-partition on ``keys`` and call ``fn`` ONCE per partition with the
    whole partition frame (all rows of a key land in one partition; ``fn``
    does not see the partition column).  The engine's one pandas-hash
    shuffle: every hash-partitioned stage goes through here, so the
    partition hash and column are decided in one place.

    ``fn`` should be vectorized across groups, e.g. groupby-aggregate /
    sort + drop_duplicates: ``partitioned_map_groups`` still pays ~ms of
    pandas slicing per group, which dominates once groups number in the
    tens of thousands (observed: canonicalization finalize 30 s -> 3 s on
    17k surface groups)."""
    if isinstance(keys, str):
        keys = [keys]
    keys = list(keys)

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[keys], index=False)
        df = df.copy()
        df[_PART_COL] = (h % num_parts).astype("int32")
        return df

    def _apply(part: pd.DataFrame) -> pd.DataFrame:
        return fn(part.drop(columns=[_PART_COL]))

    return (
        ds.map_batches(_tag, batch_format="pandas")
        .groupby(_PART_COL)
        .map_groups(_apply, batch_format="pandas")
    )


_POPCNT16 = None


def _popcnt16():
    """65536-entry popcount LUT for uint16 chunks, built once per worker."""
    global _POPCNT16
    if _POPCNT16 is None:
        import numpy as np

        _POPCNT16 = (
            np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8))
            .reshape(-1, 16)
            .sum(axis=1)
            .astype(np.uint8)
        )
    return _POPCNT16


def hamming_pairs_frame(g, id_col, sig_col, max_hamming):
    """Bucket-local near-dup verify shared by the SimHash / pHash / aHash /
    vHash stacks: all pairs (a, b, hamming) within one LSH bucket whose
    64-bit signatures differ in <= ``max_hamming`` bits, a < b by sorted
    ``id_col`` position, equal-id pairs dropped.

    Vectorized: pairwise XOR matrix (row-chunked to ~4M cells so a hot
    bucket never blows a worker's heap) + uint16 popcount LUT — replaces
    the interpreted O(m^2) ``bin(x ^ y).count("1")`` loop, which at a
    2k-row bucket costs minutes vs milliseconds here.
    """
    import numpy as np

    g = g.sort_values(id_col)
    ids = g[id_col].to_numpy()
    sims = np.ascontiguousarray(
        g[sig_col].to_numpy().astype(np.int64)
    ).view(np.uint64)
    m = len(ids)
    empty = pd.DataFrame(
        {
            "a": pd.Series([], dtype=object),
            "b": pd.Series([], dtype=object),
            "hamming": pd.Series([], dtype="int64"),
        }
    )
    if m < 2:
        return empty
    lut = _popcnt16()
    out_a, out_b, out_h = [], [], []
    chunk = max(1, 4_000_000 // m)
    for s in range(0, m, chunk):
        x = sims[s : s + chunk, None] ^ sims[None, :]
        h = lut[(x & np.uint64(0xFFFF)).astype(np.uint16)].astype(np.uint16)
        h += lut[((x >> np.uint64(16)) & np.uint64(0xFFFF)).astype(np.uint16)]
        h += lut[((x >> np.uint64(32)) & np.uint64(0xFFFF)).astype(np.uint16)]
        h += lut[(x >> np.uint64(48)).astype(np.uint16)]
        ii, jj = np.nonzero(h <= max_hamming)
        gi = ii + s
        keep = gi < jj
        gi, jj_k, ii_k = gi[keep], jj[keep], ii[keep]
        if not len(gi):
            continue
        a, b = ids[gi], ids[jj_k]
        neq = a != b
        out_a.append(a[neq])
        out_b.append(b[neq])
        out_h.append(h[ii_k, jj_k][neq].astype(np.int64))
    if not out_a:
        return empty
    return pd.DataFrame(
        {
            "a": np.concatenate(out_a),
            "b": np.concatenate(out_b),
            "hamming": np.concatenate(out_h),
        }
    )
