"""Tagging as stateless tasks: the per-process tagger cache, the per-call
sentence cache scope, and batches sized so that every CPU gets one."""

from collections import OrderedDict
from dataclasses import replace

import pyarrow.parquet as pq
import pytest

from unsupervised_ner_ray.config import PipelineConfig
from unsupervised_ner_ray.corpus import make_documents
from unsupervised_ner_ray.stages import ner


@pytest.fixture
def fresh_taggers(monkeypatch):
    monkeypatch.setattr(ner, "_TAGGERS", OrderedDict())


def test_new_run_id_never_hits_the_sentence_cache(fresh_taggers, monkeypatch):
    calls = []
    real = ner.ensemble_tag_sentence

    def counting(text, *args, **kwargs):
        calls.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(ner, "ensemble_tag_sentence", counting)
    docs = make_documents(20, seed=3)
    cfg = PipelineConfig()

    first = ner._tag_batch(docs, cfg, "run-a")
    n_first = len(calls)
    assert n_first > 0
    # the same call again: every sentence is a cache hit
    assert ner._tag_batch(docs, cfg, "run-a").equals(first)
    assert len(calls) == n_first
    # a new tag_documents call misses every sentence again
    assert ner._tag_batch(docs, cfg, "run-b").equals(first)
    assert len(calls) == 2 * n_first


def test_one_tagger_per_config_per_process(fresh_taggers):
    cfg = PipelineConfig()
    tagger = ner._tagger(cfg, "run-a")
    assert ner._tagger(cfg, "run-b") is tagger
    assert ner._tagger(replace(cfg), "run-c") is tagger  # equal config, same tagger
    other = ner._tagger(replace(cfg, max_predicate_tokens=1), "run-a")
    assert other is not tagger and other.config.max_predicate_tokens == 1
    for k in range(ner._MAX_TAGGERS + 2):
        ner._tagger(replace(cfg, top_k_descs=3 + k), "run-a")
    assert len(ner._TAGGERS) == ner._MAX_TAGGERS


def _assert_matches_oracle(tagged, docs, cfg):
    from unsupervised_ner_ray.oracle import oracle_tag_corpus

    gold = oracle_tag_corpus(docs, cfg)
    rows = tagged.to_pandas()
    assert sorted(rows["doc_id"]) == sorted(docs.column("doc_id").to_pylist())
    tags = sorted(
        (d, s["span_idx"], tuple(s["tokens"]), tuple(s["tags"]))
        for d, ner_col in zip(rows["doc_id"], rows["ner"])
        for s in ner_col
    )
    assert tags == sorted(
        (r.doc_id, r.span_idx, tuple(r.tokens), tuple(r.tags))
        for r in gold["tags"].itertuples()
    )
    triples = sorted(
        (d, t["span_idx"], t["subj"], t["pred"], t["obj"])
        for d, ts in zip(rows["doc_id"], rows["triples"])
        for t in ts
    )
    assert triples == sorted(
        zip(gold["triples"]["doc_id"], gold["triples"]["span_idx"],
            gold["triples"]["subj"], gold["triples"]["pred"], gold["triples"]["obj"])
    )


def test_in_memory_blocks_tag_one_batch_per_cpu(ray_session):
    import ray.data as rd

    cfg = PipelineConfig()
    docs = make_documents(200, seed=21)
    tagged = ner.tag_documents(
        rd.from_arrow([docs.slice(i, 50) for i in range(0, 200, 50)]), cfg
    ).materialize()
    assert tagged.num_blocks() == 4
    _assert_matches_oracle(tagged, docs, cfg)


def test_parquet_files_tag_one_batch_per_cpu(ray_session, tmp_path):
    from unsupervised_ner_ray.sources.io import read_documents

    cfg = PipelineConfig()
    docs = make_documents(2000, seed=22)
    for i in range(4):
        pq.write_table(docs.slice(i * 500, 500), str(tmp_path / f"part-{i}.parquet"))
    tagged = ner.tag_documents(read_documents(str(tmp_path)), cfg).materialize()
    assert tagged.num_blocks() == 4
    _assert_matches_oracle(tagged, docs, cfg)
