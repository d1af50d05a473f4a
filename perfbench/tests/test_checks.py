"""Each benchmark check passes on a correct output and fails on a
deliberately corrupted one.  Runs without Ray: the tagger stage is called
in-process.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench import checks, gen  # noqa: E402
from perfbench.workloads import _file_hashes, config  # noqa: E402


@pytest.fixture(scope="module")
def tagger():
    from unsupervised_ner_ray.stages.ner import NerTagger

    return NerTagger(config())


@pytest.fixture(scope="module")
def uncached():
    from unsupervised_ner_ray.stages.ner import NerTagger

    return NerTagger(config(sentence_cache_size=0))


@pytest.fixture(scope="module")
def prose(tagger):
    docs = gen.prose_documents(3, 8)
    return docs, docs.to_pylist(), tagger(docs).to_pylist()


@pytest.fixture(scope="module")
def boiler(tagger):
    docs = gen.boilerplate_documents(3, 30, gen.boilerplate_pool(3, 6))
    return docs.to_pylist(), tagger(docs).to_pylist()


def test_generator_is_seeded_and_prose_is_distinct():
    a, b = gen.prose_documents(5, 20), gen.prose_documents(5, 20)
    assert a.equals(b)
    assert not a.equals(gen.prose_documents(6, 20))
    texts = [s["text"] for r in a.to_pylist() for s in r["spans"] if s["kind"] == "text"]
    assert len(texts) == len(set(texts))


def test_documents_pass(prose):
    _, inputs, rows = prose
    checks.check_documents(inputs, rows)


def test_dropped_document_fails(prose):
    _, inputs, rows = prose
    with pytest.raises(checks.CheckError, match="missing"):
        checks.check_documents(inputs, rows[1:])


def test_duplicated_document_fails(prose):
    _, inputs, rows = prose
    with pytest.raises(checks.CheckError, match="more than once"):
        checks.check_documents(inputs, rows + [rows[0]])


def test_reordered_spans_fail(prose):
    _, inputs, rows = prose
    bad = copy.deepcopy(rows)
    r = next(r for r in bad if len(r["spans"]) > 1)
    r["spans"][0], r["spans"][1] = r["spans"][1], r["spans"][0]
    with pytest.raises(checks.CheckError, match="span sequence"):
        checks.check_documents(inputs, bad)


def test_tagging_and_triples_pass(prose, boiler):
    for _, rows in (prose[1:], boiler):
        checks.check_tagging(rows)
        checks.check_triples(rows)


def test_missing_tag_fails(prose):
    bad = copy.deepcopy(prose[2])
    bad[0]["ner"][0]["tags"] = bad[0]["ner"][0]["tags"][:-1]
    with pytest.raises(checks.CheckError, match="tags for"):
        checks.check_tagging(bad)


def test_dropped_triple_fails(prose):
    bad = copy.deepcopy(prose[2])
    r = next(r for r in bad if r["triples"])
    r["triples"] = r["triples"][:-1]
    with pytest.raises(checks.CheckError, match="triples"):
        checks.check_triples(bad)


MENTIONS = pd.DataFrame(
    {"surface_norm": ["a", "a", "a", "b", "c", "c"],
     "etype": ["GENE", "GENE", "DISEASE", "PERSON", "X", "Y"]})


def _entities(**changes):
    e = pd.DataFrame({"surface_norm": ["a", "b", "c"], "etype": ["GENE", "PERSON", "X"],
                      "n_mentions": [3, 1, 2]})
    for col, (row, value) in changes.items():
        e.loc[row, col] = value
    return e


def test_entities_pass():
    checks.check_entities(MENTIONS, _entities())


def test_entity_count_off_by_one_fails():
    with pytest.raises(checks.CheckError, match="n_mentions sum"):
        checks.check_entities(MENTIONS, _entities(n_mentions=(0, 4)))
    # off by one on two entities that cancel in the sum
    e = _entities(n_mentions=(0, 4))
    e.loc[2, "n_mentions"] = 1
    with pytest.raises(checks.CheckError, match="mention count"):
        checks.check_entities(MENTIONS, e)


def test_wrong_majority_type_fails():
    with pytest.raises(checks.CheckError, match="majority"):
        checks.check_entities(MENTIONS, _entities(etype=(0, "DISEASE")))
    # a tie goes to the name that sorts first
    with pytest.raises(checks.CheckError, match="majority"):
        checks.check_entities(MENTIONS, _entities(etype=(2, "Y")))


def test_adjacency():
    triples = pd.DataFrame({"subj_id": ["s1", "s1", "s2"]})
    adj = pd.DataFrame({"subj_id": ["s1", "s2"], "degree": [2, 1],
                        "neighbors": [[{"p": 1}, {"p": 2}], [{"p": 3}]]})
    checks.check_adjacency(triples, adj)
    bad = adj.copy()
    bad.loc[1, "degree"] = 2
    with pytest.raises(checks.CheckError):
        checks.check_adjacency(triples, bad)


def test_oracle(prose):
    from unsupervised_ner_ray.oracle import oracle_tag_corpus

    docs, _, rows = prose
    oracle = oracle_tag_corpus(docs, config())
    checks.check_against_oracle(rows, oracle)
    bad = copy.deepcopy(rows)
    tags = bad[0]["ner"][0]["tags"]
    tags[0] = "O" if tags[0] != "O" else "B_GENE"
    with pytest.raises(checks.CheckError, match="oracle"):
        checks.check_against_oracle(bad, oracle)


def test_cached_tags(boiler, uncached):
    _, rows = boiler
    recompute = lambda text: uncached.tag_text(text)["ensembled_tags"]  # noqa: E731
    assert checks.check_cached_tags(rows, recompute) > 0
    bad = copy.deepcopy(rows)
    e = next(e for r in bad for e in r["ner"])
    e["tags"] = ["O"] * len(e["tags"]) if set(e["tags"]) != {"O"} else ["B_GENE"] * len(e["tags"])
    with pytest.raises(checks.CheckError, match="uncached"):
        checks.check_cached_tags(bad, recompute)


def test_manifest_and_shard_entities(boiler):
    inputs, rows = boiler
    n = sum(len(checks.text_span_indices(r["spans"])) for r in inputs)
    manifest = {0: {"metrics": {"sentences": n - 2}}, 1: {"metrics": {"sentences": 2}}}
    checks.check_manifest_sentences(manifest, inputs)
    manifest[1]["metrics"]["sentences"] = 3
    with pytest.raises(checks.CheckError, match="manifest"):
        checks.check_manifest_sentences(manifest, inputs)
    ents = {"shard=0000": pd.DataFrame({"n_mentions": [2, 3]}),
            "shard=0001": pd.DataFrame({"n_mentions": [1]})}
    checks.check_shard_entities(ents, 6)
    with pytest.raises(checks.CheckError):
        checks.check_shard_entities(ents, 7)


def test_resume_that_rewrites_a_shard_fails(tmp_path):
    for shard in ("shard=0000", "shard=0001"):
        d = tmp_path / "tagged" / shard
        d.mkdir(parents=True)
        (d / "part.parquet").write_bytes(shard.encode())
    before = _file_hashes(str(tmp_path))
    skipped = {"completed": [], "skipped": [0, 1], "seconds": 0.0}
    checks.check_resume(skipped, 2, before, _file_hashes(str(tmp_path)))
    with pytest.raises(checks.CheckError, match="skip"):
        checks.check_resume({"completed": [1], "skipped": [0], "seconds": 1.0}, 2, before, before)
    (tmp_path / "tagged" / "shard=0001" / "part.parquet").write_bytes(b"rewritten")
    with pytest.raises(checks.CheckError, match="rewrote"):
        checks.check_resume(skipped, 2, before, _file_hashes(str(tmp_path)))


def test_served_replies(uncached):
    from unsupervised_ner_ray.serving import NerService

    service = NerService(config())
    recompute = lambda s: json.dumps(uncached.tag_text(s)["ensembled"], indent=5).encode()  # noqa: E731
    sentences = gen.serve_hot(4, 3, set())
    # the second reply of each sentence comes from the server's cache
    replies = [(s, service.ensemble_json(s).encode()) for s in sentences + sentences]
    for s, body in replies:
        checks.check_reply(s, 200, body)
    checks.check_replies_identical(replies, recompute)
    bad = replies[:-1] + [(replies[-1][0], replies[-1][1].replace(b'"', b"'", 1))]
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_replies_identical(bad, recompute)
    with pytest.raises(checks.CheckError, match="status"):
        checks.check_reply(sentences[0], 500, replies[0][1])
    with pytest.raises(checks.CheckError, match="entries"):
        checks.check_reply(sentences[0] + " extra", 200, replies[0][1])
