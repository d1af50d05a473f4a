"""End-to-end Ray pipeline tests: engine vs single-process oracle, the
per-row span-sequence invariant, KG stages, and checkpoint/resume."""

import os
from dataclasses import replace

import pytest

from unsupervised_ner_ray.config import PipelineConfig
from unsupervised_ner_ray.corpus import make_documents

CFG = PipelineConfig(tagger_batch_size=32, canon_salt_buckets=4)


@pytest.fixture(scope="module")
def flagship_out(ray_session):
    from unsupervised_ner_ray.pipelines.flagship import (
        docs_dataset_synthetic,
        run_flagship,
    )

    docs = docs_dataset_synthetic(60, seed=42, parallelism=4)
    return run_flagship(docs, CFG)


@pytest.fixture(scope="module")
def golden():
    from unsupervised_ner_ray.oracle import oracle_tag_corpus

    return oracle_tag_corpus(make_documents(60, seed=42))


def test_span_sequence_invariant(flagship_out):
    eng = flagship_out["tagged"].sort("doc_id").to_pandas()
    orig = make_documents(60, seed=42).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(eng) == len(orig)
    for i in range(len(eng)):
        a, b = list(orig["spans"][i]), list(eng["spans"][i])
        assert [
            (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in a
        ] == [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in b]


def test_tags_match_oracle(flagship_out, golden):
    eng = flagship_out["tagged"].sort("doc_id").to_pandas()
    gold_tags = {
        (r.doc_id, r.span_idx): (list(r.tokens), list(r.tags))
        for r in golden["tags"].itertuples()
    }
    n_checked = 0
    for _, row in eng.iterrows():
        for sent in row["ner"]:
            key = (row["doc_id"], sent["span_idx"])
            assert key in gold_tags
            gt_tokens, gt_tags = gold_tags[key]
            assert list(sent["tokens"]) == gt_tokens
            assert list(sent["tags"]) == gt_tags
            n_checked += 1
    assert n_checked == len(gold_tags)


def test_triples_match_oracle(flagship_out, golden):
    from unsupervised_ner_ray.oracle import triple_prf

    trip = flagship_out["triples"].to_pandas()
    prf = triple_prf(trip, golden["triples"])
    assert prf["precision"] >= 0.95 and prf["recall"] >= 0.95, prf


def test_entities_canonicalization(flagship_out, golden):
    ents = flagship_out["entities"].to_pandas()
    assert len(ents) > 0
    # counts: n_mentions across entities equals total mention count
    mentions = flagship_out["mentions"].to_pandas()
    assert ents["n_mentions"].sum() == len(mentions)
    # eids are unique and content-addressed
    assert ents["eid"].is_unique
    from unsupervised_ner_ray.functions.kg import entity_id

    for _, r in ents.head(10).iterrows():
        assert entity_id(r["surface_norm"]) == r["eid"]


def test_entity_linking(flagship_out):
    m = flagship_out["mentions"].to_pandas()
    assert "linked" in m.columns
    # the synthetic corpus is built from vocabulary terms: most mentions link
    assert m["linked"].mean() > 0.5


def test_adjacency(flagship_out):
    adj = flagship_out["adjacency"].to_pandas()
    trip = flagship_out["triples"].to_pandas()
    assert adj["degree"].sum() == len(trip)
    assert adj["subj_id"].is_unique


def _sorted_rows(ds, key) -> list[dict]:
    import pyarrow as pa
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    rows = pa.concat_tables(tables, promote_options="permissive").to_pylist()
    return sorted(rows, key=key)


def test_kg_shuffle_sizing_keeps_output(flagship_out, monkeypatch):
    """Entities and adjacency from the cluster-sized shuffles equal those of
    the former fixed 64-way canonicalization and 8-way adjacency shuffles."""
    from unsupervised_ner_ray.stages import kg

    # the partition count is read on the driver when the plan is built
    monkeypatch.setattr(kg, "cluster_cpus", lambda: 64)
    by_eid = lambda r: r["eid"]  # noqa: E731
    assert _sorted_rows(flagship_out["entities"], by_eid) == _sorted_rows(
        kg.canonicalize_mentions(flagship_out["mentions"], CFG), by_eid
    )
    by_subj = lambda r: r["subj_id"]  # noqa: E731
    assert _sorted_rows(flagship_out["adjacency"], by_subj) == _sorted_rows(
        kg.build_adjacency(flagship_out["triples"], reduce_partitions=8), by_subj
    )


def test_link_mentions_vocab_ref(flagship_out):
    """An explicit vocab_ref links exactly like the built-in vocabulary, and
    each process builds one linker per vocabulary."""
    import ray

    from unsupervised_ner_ray.assets import build_vocab
    from unsupervised_ner_ray.stages import kg

    ref = ray.put(build_vocab())
    key = lambda r: (r["doc_id"], r["span_idx"], r["surface"], r["etype"])  # noqa: E731
    unlinked = flagship_out["mentions"].drop_columns(["linked_types", "linked"])
    assert _sorted_rows(kg.link_mentions(unlinked, vocab_ref=ref), key) == _sorted_rows(
        flagship_out["mentions"], key
    )
    assert kg._linker(ref) is kg._linker(ref)
    assert kg._linker(None) is kg._linker(None) is not kg._linker(ref)


def test_kg_mentions_and_triples_materialized(flagship_out):
    """run_kg_from_tagged pins mentions and triples, so entities and
    adjacency reuse them instead of re-exploding (and re-linking)."""
    from ray.data.dataset import MaterializedDataset

    assert isinstance(flagship_out["mentions"], MaterializedDataset)
    assert isinstance(flagship_out["triples"], MaterializedDataset)


def test_checkpoint_resume(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from unsupervised_ner_ray.corpus import write_corpus
    from unsupervised_ner_ray.pipelines.checkpoint import load_manifest
    from unsupervised_ner_ray.pipelines.flagship import run_flagship_checkpointed

    inp = str(tmp_path / "docs.parquet")
    write_corpus(inp, 40, seed=1)
    out_dir = str(tmp_path / "out")
    r1 = run_flagship_checkpointed(inp, out_dir, CFG, num_shards=3)
    assert r1["completed"] == [0, 1, 2]
    man = load_manifest(out_dir)
    assert set(man.keys()) == {0, 1, 2}
    assert all("rows" in m and "seconds" in m for m in man.values())
    # total tagged rows across shards == docs
    total = sum(m["rows"]["tagged"] for m in man.values())
    assert total == 40
    # resume: nothing to do
    r2 = run_flagship_checkpointed(inp, out_dir, CFG, num_shards=3)
    assert r2["completed"] == [] and r2["skipped"] == [0, 1, 2]
    # simulate partial failure: drop shard 1 from manifest -> only it reruns
    man_path = os.path.join(out_dir, "_manifest.jsonl")
    lines = [l for l in open(man_path) if '"shard": 1' not in l]
    with open(man_path, "w") as fp:
        fp.writelines(lines)
    r3 = run_flagship_checkpointed(inp, out_dir, CFG, num_shards=3)
    assert r3["completed"] == [1] and sorted(r3["skipped"]) == [0, 2]
    # output readable as one dataset
    t = pq.read_table(os.path.join(out_dir, "triples"))
    assert t.num_rows > 0


def test_checkpoint_fragment_sharding(ray_session, tmp_path):
    """Multi-file input: each shard reads only its fragment files (no
    re-read amplification), union of shards covers every doc."""
    from unsupervised_ner_ray.corpus import write_corpus
    from unsupervised_ner_ray.pipelines.checkpoint import load_manifest
    from unsupervised_ner_ray.pipelines.flagship import run_flagship_checkpointed

    inp = str(tmp_path / "docs_dir")
    write_corpus(inp, 60, seed=8, n_files=6)
    out_dir = str(tmp_path / "out")
    r = run_flagship_checkpointed(inp, out_dir, CFG, num_shards=3)
    assert r["completed"] == [0, 1, 2]
    man = load_manifest(out_dir)
    assert sum(m["rows"].get("tagged", 0) for m in man.values()) == 60
    import pyarrow.dataset as pds

    t = pds.dataset(f"{out_dir}/tagged", partitioning="hive").to_table()
    assert t.column("doc_id").to_pylist().__len__() == 60
    assert len(set(t.column("doc_id").to_pylist())) == 60


def test_tagger_honours_max_predicate_tokens():
    """NerTagger passes a non-default predicate window through to triple
    extraction: its triples equal the oracle's under that config, and some
    predicate differs from the default-config run."""
    from unsupervised_ner_ray.oracle import oracle_tag_corpus
    from unsupervised_ner_ray.stages.ner import NerTagger

    docs = make_documents(30, seed=13)

    def triples(cfg):
        out = NerTagger(cfg)(docs)
        return [
            (doc_id, t["span_idx"], t["subj"], t["pred"], t["obj"])
            for doc_id, ts in zip(
                out.column("doc_id").to_pylist(), out.column("triples").to_pylist()
            )
            for t in ts
        ]

    narrow_cfg = replace(CFG, max_predicate_tokens=1)
    narrow = triples(narrow_cfg)
    gold = oracle_tag_corpus(docs, narrow_cfg)["triples"]
    assert narrow == list(
        zip(gold["doc_id"], gold["span_idx"], gold["subj"], gold["pred"], gold["obj"])
    )
    default = triples(CFG)
    assert len(default) == len(narrow)
    assert any(d[3] != n[3] for d, n in zip(default, narrow))


def test_dataprep_stage_checkpoint_resume(ray_session, tmp_path):
    """Stage-level checkpoint for the corpus-wide dataprep composite:
    output equals the uncheckpointed pipeline, completed stages are skipped
    on resume, and a lost stage-2 checkpoint reruns ONLY stage 2 (stage 1
    is read back from its parquet, not recomputed)."""
    import json

    import pandas as pd
    import pyarrow.parquet as pq

    from unsupervised_ner_ray.pipelines.dataprep import (
        run_dataprep,
        run_dataprep_checkpointed,
    )
    from unsupervised_ner_ray.sources.io import read_sf

    sf = "/root/testdata/sf0.001"
    docs_path = os.path.join(sf, "documents.parquet")
    out_root = str(tmp_path / "prep")
    r1 = run_dataprep_checkpointed(docs_path, out_root)
    assert r1["completed"] == ["survivors", "dataprep"] and r1["skipped"] == []
    # marker bookkeeping
    m = json.load(open(os.path.join(out_root, "_stage_survivors.json")))
    assert m["rows"] > 0 and m["seconds"] >= 0
    # equivalence with the single-pass pipeline
    got = (
        pq.read_table(os.path.join(out_root, "dataprep"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = read_sf(sf, "documents", columns=["doc_id", "text", "lang"])
    want = (
        run_dataprep(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[want.columns], want)
    # full resume: everything skipped
    r2 = run_dataprep_checkpointed(docs_path, out_root)
    assert r2["completed"] == [] and r2["skipped"] == ["survivors", "dataprep"]
    # lose stage 2 -> only stage 2 reruns, result identical
    os.remove(os.path.join(out_root, "_stage_dataprep.json"))
    r3 = run_dataprep_checkpointed(docs_path, out_root)
    assert r3["completed"] == ["dataprep"] and r3["skipped"] == ["survivors"]
    got2 = (
        pq.read_table(os.path.join(out_root, "dataprep"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got2[want.columns], want)
