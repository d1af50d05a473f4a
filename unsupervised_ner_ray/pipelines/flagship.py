"""Flagship pipeline: interleaved documents -> tagged docs -> knowledge graph.

Engine lifecycle (SURVEY.md §3):

    read_documents -> NerTagger in stateless tasks, one batch per CPU
    (per-process tagger cache; tag + triples + mentions, all row-local)
                -> [tagged-docs sink]
                -> explode_mentions + link (broadcast join in stateless
                   tasks, per-process vocabulary cache) -> [materialized]
                -> canonicalize (combiner + salted 2-phase groupby)
                -> explode_triples -> [materialized]
                -> adjacency (groupby subj_id)
                -> [entities / triples / adjacency sinks]

The KG shuffles use one partition per logical CPU of the cluster.

The checkpointed variant shards by doc_id hash and commits per shard with
lineage + metrics (pipelines/checkpoint.py).
"""

from __future__ import annotations

import pyarrow.compute as pc
import ray.data as rd

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..corpus import make_documents
from ..sources.io import read_documents
from ..stages.kg import (
    build_adjacency,
    canonicalize_mentions,
    entity_count_partials,
    finalize_entity_partials,
    link_mentions,
)
from ..stages.ner import explode_mentions, explode_triples, tag_documents


def docs_dataset_synthetic(n_docs: int, seed: int = 42, parallelism: int = 0):
    table = make_documents(n_docs, seed)
    ds = rd.from_arrow(table)
    if parallelism:
        ds = ds.repartition(parallelism)
    return ds


def run_tagging(docs, config: PipelineConfig = DEFAULT_CONFIG):
    """documents -> tagged documents Dataset (lazy)."""
    return tag_documents(docs, config)


def run_kg_from_tagged(tagged, config: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """tagged docs -> {mentions, entities, triples, adjacency} Datasets.

    ``mentions`` and ``triples`` are materialized here: each feeds two
    consumers (the caller's sink and entities / adjacency), and a lazy one
    would explode (and link) the tagged docs once per consumer.  Entities
    and adjacency stay lazy."""
    mentions = link_mentions(explode_mentions(tagged)).materialize()
    triples = explode_triples(tagged).materialize()
    return {
        "mentions": mentions,
        "entities": canonicalize_mentions(mentions, config),
        "triples": triples,
        "adjacency": build_adjacency(triples),
    }


def run_flagship(docs, config: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """Full pipeline over an in-memory/lazy documents Dataset.

    The tagged dataset is materialized ONCE (it feeds four consumers: the
    tagged sink, mentions, triples and adjacency — without pinning it each
    consumer would re-run the expensive tagger).  At real scale the
    checkpointed variant writes tagged docs to the output layout instead and
    reads them back, so nothing large is pinned in the object store.
    """
    tagged = run_tagging(docs, config).materialize()
    out = {"tagged": tagged}
    out.update(run_kg_from_tagged(tagged, config))
    return out


def _shard_filter(shard: int, num_shards: int):
    """Batch predicate keeping only this shard's documents
    (``checkpoint.shard_of``: stable crc32 of doc_id)."""
    from .checkpoint import shard_of

    def _f(batch):
        ids = batch.column("doc_id").to_pylist()
        return batch.filter([shard_of(d, num_shards) == shard for d in ids])

    return _f


def _shard_input_files(input_path: str, num_shards: int) -> list[list[str]] | None:
    """Partition a multi-file input across shards so each shard READS ONLY
    its own files (no re-read+filter amplification — at 100 TB a shard must
    map to input fragments, not a predicate over the whole corpus).
    Returns None for a single-file input (caller falls back to the
    hash-filter path)."""
    import os

    from .checkpoint import input_files

    names = input_files(input_path)
    if names is None or len(names) < 2:
        return None
    files = [os.path.join(input_path, f) for f in names]
    return [files[i::num_shards] for i in range(num_shards)]


def run_flagship_checkpointed(
    input_path: str,
    out_dir: str,
    config: PipelineConfig = DEFAULT_CONFIG,
    num_shards: int = 16,
) -> dict:
    """Resumable flagship run: shard -> tag+KG -> atomic write + manifest.

    Sharding strategy: input directories with multiple parquet files are
    split by FILE (each shard reads only its fragment set); a single-file
    input falls back to a stable doc_id-hash predicate (read amplification
    acceptable only at test scale — production layouts are multi-file)."""
    from .checkpoint import run_checkpointed

    file_shards = _shard_input_files(input_path, num_shards)

    def _run_shard(path: str, shard: int, n: int) -> dict:
        if file_shards is not None:
            paths = file_shards[shard]
            if not paths:
                return {}  # empty shard: manifest records it, nothing written
            docs = read_documents(paths)
        else:
            docs = read_documents(path).map_batches(
                _shard_filter(shard, n), batch_format="pyarrow"
            )
        tagged = run_tagging(docs, config).materialize()
        # entities via persisted MERGEABLE partials: the shard writes its
        # (surface_norm, etype, surface, n) sufficient statistics so a
        # later corpus append can refresh the global entity table without
        # re-tagging this shard (pipelines/incremental.py).  The partials
        # are key-bounded — materializing them pins a table orders of
        # magnitude smaller than the corpus — and entities finalize FROM
        # them, so the mention pipeline still runs exactly once.  Partials
        # read only surface_norm, surface and etype, so the shard's
        # mentions are not linked.  Triples feed both their sink and
        # adjacency: materialized once, so the tagged docs are exploded once.
        partials = entity_count_partials(explode_mentions(tagged), config).materialize()
        triples = explode_triples(tagged).materialize()

        # operational metrics for the shard's manifest record (lineage +
        # metrics per partition, north_rule)
        import pyarrow.compute as _pc

        def _counts(batch):
            import pyarrow as _pa

            return _pa.table(
                {
                    "sentences": [
                        int(_pc.sum(_pc.list_value_length(batch.column("ner"))).as_py() or 0)
                    ],
                    "quarantined": [
                        int(_pc.sum(_pc.list_value_length(batch.column("quarantine"))).as_py() or 0)
                    ],
                    "harvested": [
                        int(_pc.sum(_pc.list_value_length(batch.column("harvest"))).as_py() or 0)
                    ],
                }
            )

        cnt = tagged.map_batches(_counts, batch_format="pyarrow").to_pandas().sum()
        return {
            "tagged": tagged,
            "entities": finalize_entity_partials(partials),
            "entity_partials": partials,
            "triples": triples,
            "adjacency": build_adjacency(triples),
            "__metrics__": {
                "sentences": int(cnt["sentences"]),
                "quarantined": int(cnt["quarantined"]),
                "harvested": int(cnt["harvested"]),
            },
        }

    return run_checkpointed(
        input_path, out_dir, _run_shard, num_shards=num_shards
    )
