"""Incremental corpus append for the flagship NER->KG pipeline.

The reference reruns its whole input file on any change
(/root/reference/batched_main_NER.py:800-811).  At 100 TB a corpus grows by
shards, and re-tagging the old corpus to refresh the KG is the one cost the
engine must never pay.  Design (VERDICT r4 item 9):

* The initial run is ``run_flagship_checkpointed(input, out_dir)`` —
  generation 0, living at the ``out_dir`` root.
* ``append_flagship(out_dir, new_input)`` tags ONLY the new docs, writing a
  fresh generation directory ``out_dir/gen=NNNN/`` with the same
  per-shard atomic-parquet + manifest layout (so an append is itself
  resumable mid-run, and re-appending the SAME input path is a no-op
  resume, not a double count).
* Every generation persists the canonicalization partials
  (``entity_partials``: surface_norm, etype, surface, n — the mergeable
  sufficient statistics of the entity table) alongside tagged / entities /
  triples / adjacency.
* Merged views never touch the corpus:
  - :func:`merged_entities` = ``finalize_entity_partials`` over the UNION
    of all generations' partials (key-bounded, tiny next to the corpus);
  - :func:`merged_adjacency` flattens the stored per-generation neighbor
    lists back into edge rows and rebuilds them with
    ``stages.kg.build_adjacency`` (neighbor lists ship, the corpus does
    not);
  - :func:`merged_table` unions any row-level output (triples, tagged)
    by reading every generation's parquet shards.

``incremental == full recompute`` is pinned exactly by
tests/test_incremental.py (entities byte-equal, adjacency byte-equal,
triples multiset-equal vs one run over the concatenated corpus).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..stages.kg import build_adjacency, finalize_entity_partials


def _gen_dirs(out_dir: str) -> list[str]:
    """All completed-or-in-progress generation roots, gen 0 (= out_dir)
    first, then gen=NNNN in order."""
    gens = [out_dir]
    if os.path.isdir(out_dir):
        gens += sorted(
            os.path.join(out_dir, d)
            for d in os.listdir(out_dir)
            if d.startswith("gen=") and os.path.isdir(os.path.join(out_dir, d))
        )
    return gens


def _table_dirs(out_dir: str, table: str) -> list[str]:
    """Every parquet file of ``table`` across all generations' shard dirs
    (expanded to files: read_parquet takes lists of FILES, not dirs)."""
    found = []
    for gen in _gen_dirs(out_dir):
        root = os.path.join(gen, table)
        if os.path.isdir(root):
            for d in sorted(os.listdir(root)):
                shard = os.path.join(root, d)
                if d.startswith("shard=") and os.path.isdir(shard):
                    found += sorted(
                        os.path.join(shard, f)
                        for f in os.listdir(shard)
                        if f.endswith(".parquet")
                    )
    return found


def append_flagship(
    out_dir: str,
    new_input: str,
    config: PipelineConfig = DEFAULT_CONFIG,
    num_shards: int = 16,
) -> dict:
    """Tag + KG ONLY the docs at ``new_input``, as a new generation under
    ``out_dir``.  Idempotent on input path: if a generation for this input
    already exists, the call RESUMES it (skipping committed shards) instead
    of appending the same docs twice."""
    from .flagship import run_flagship_checkpointed

    os.makedirs(out_dir, exist_ok=True)
    gen_dir = None
    existing = [g for g in _gen_dirs(out_dir)[1:]]
    for g in existing:
        meta = os.path.join(g, "_meta.json")
        if os.path.exists(meta):
            with open(meta) as fp:
                if json.load(fp).get("input") == new_input:
                    gen_dir = g
                    break
    if gen_dir is None:
        nxt = 1 + max(
            (int(os.path.basename(g).split("=")[1]) for g in existing),
            default=0,
        )
        gen_dir = os.path.join(out_dir, f"gen={nxt:04d}")
        os.makedirs(gen_dir, exist_ok=True)
        with open(os.path.join(gen_dir, "_meta.json"), "w") as fp:
            json.dump({"input": new_input}, fp)

    r = run_flagship_checkpointed(
        new_input, gen_dir, config=config, num_shards=num_shards
    )
    r["generation_dir"] = gen_dir
    return r


def merged_table(out_dir: str, table: str):
    """Union view of a row-level output table across all generations."""
    dirs = _table_dirs(out_dir, table)
    if not dirs:
        raise FileNotFoundError(f"no {table!r} shards under {out_dir}")
    return rd.read_parquet(dirs)


def merged_entities(out_dir: str):
    """Entity table over EVERY generation, equal to a full recompute: the
    stored per-shard partials concatenate (mergeable by construction) and
    finalize once.  Cost is bounded by distinct (norm, etype, surface)
    keys — the corpus is never re-read."""
    return finalize_entity_partials(merged_table(out_dir, "entity_partials"))


def merged_adjacency(out_dir: str):
    """Adjacency over EVERY generation: the stored per-generation neighbor
    lists flatten back into (subj_id, subj_norm, pred, obj_id, obj_norm)
    rows and go through :func:`~..stages.kg.build_adjacency` — the same
    kernel and output contract as the flagship over the union triple set
    (neighbors sorted by (pred, obj_id); duplicates across generations
    kept, exactly as duplicate triples within one run are kept)."""

    def _flatten(t: pa.Table) -> pa.Table:
        nb = t.column("neighbors").combine_chunks()
        parent = pc.list_parent_indices(nb)
        flat = pc.list_flatten(nb)
        return pa.table(
            {
                "subj_id": t.column("subj_id").take(parent),
                "subj_norm": t.column("subj_norm").take(parent),
                "pred": pc.struct_field(flat, "pred"),
                "obj_id": pc.struct_field(flat, "obj_id"),
                "obj_norm": pc.struct_field(flat, "obj_norm"),
            }
        )

    adj = merged_table(out_dir, "adjacency")
    return build_adjacency(adj.map_batches(_flatten, batch_format="pyarrow"))
