"""FixtureMLMBackend: the in-sandbox execution of the REAL model-backend
code path (shared _BatchedMLMBackend base — batched padded forward,
first-mask-position logits, softmax top-k, signature attach, numeric
short-circuit).  The HF backend differs only in the literal torch calls
(tokenizer encode + no-grad forward), so these tests pin the entire
post-forward surface the production backend runs.

Reference contract being exercised: the descriptor-service response shape
consumed at /root/reference/batched_main_NER.py:264-269 and 380-386.
"""

from collections import Counter

import numpy as np
import pytest

from unsupervised_ner_ray.assets import build_entity_map, build_vocab
from unsupervised_ner_ray.backends import (
    DUMMY_DESC_TERM,
    DUMMY_DESCS,
    FixtureMLMBackend,
    default_backends,
)


@pytest.fixture(scope="module")
def bio():
    return FixtureMLMBackend("bio")


def _grp(e: str, em) -> str:
    st = e.split("/")[0]
    return em.get(st, st)


def test_contract_shape(bio):
    """predict returns exactly top_k ordered dicts with the service fields;
    v is softmax prob (descending, 4 dp) and every desc is a vocab term."""
    r = bio.predict("patients received __entity__ for pain", "x", "cs")
    assert len(r) == DUMMY_DESCS
    vs = [d["v"] for d in r]
    assert vs == sorted(vs, reverse=True)
    assert all(set(d) == {"desc", "v", "e", "e_count"} for d in r)
    vocab = build_vocab()
    assert all(d["desc"] in vocab for d in r)
    assert all(0.0 < d["v"] <= 1.0 for d in r)


def test_padding_invariance(bio):
    """A sentence's descriptors must not depend on what it is batched with:
    the padded batch forward masks padded keys, so batched == single."""
    sents = [
        "the __entity__ was administered",
        "a much longer sentence about __entity__ with many extra trailing "
        "words to force substantial padding of the first row",
        "__entity__",
    ]
    batched = bio.predict_many(sents)
    single = [bio.predict_many([s])[0] for s in sents]
    assert batched == single


def test_predict_batch_short_circuit_parity(bio):
    """predict_batch == per-item predict, including the ci-numeric
    short-circuit interleaved mid-batch."""
    sents = [
        "dose of __entity__ given",
        "count was __entity__ today",
        "__entity__ improved outcomes",
    ]
    phrases = ["aspirin", "1,234", "therapy"]
    modes = ["cs", "ci", "ci"]
    batched = bio.predict_batch(sents, phrases, modes)
    single = [bio.predict(s, p, m) for s, p, m in zip(sents, phrases, modes)]
    assert batched == single
    assert batched[1][0]["desc"] == DUMMY_DESC_TERM
    assert batched[1][0]["v"] == 0.0


def test_deterministic_and_pair_diverges(bio):
    s = "clinical __entity__ study"
    again = FixtureMLMBackend("bio").predict(s, "x", "cs")
    assert bio.predict(s, "x", "cs") == again
    phi = FixtureMLMBackend("phi").predict(s, "x", "cs")
    assert phi != again  # the two-model ensemble genuinely disagrees


def test_context_group_preference(bio):
    """The mask position's top descriptors come from the CONTEXT's entity
    group (subtype-structured embeddings + near-identity value path): a
    masked slot surrounded by GENE terms predicts GENE descriptors, not the
    same terms a DISEASE context yields — i.e. the model is genuinely
    context-sensitive, unlike the hash mock."""
    vocab = build_vocab()
    em = build_entity_map()
    for g in ["GENE", "DISEASE", "MEASURE", "ORGANIZATION"]:
        ts = [t for t, (st, _) in vocab.items() if _grp(st[0], em) == g][:4]
        assert len(ts) == 4
        s = f"{ts[0]} {ts[1]} __entity__ {ts[2]} {ts[3]}"
        r = bio.predict(s, "x", "cs")
        top = Counter(_grp(d["e"], em) for d in r).most_common(1)[0]
        assert top[0] == g, (g, top)


def test_mask_truncated_degrades_empty():
    """Mask beyond max_length -> [] (the HF path's truncation contract)."""
    b = FixtureMLMBackend("bio", max_length=8)
    long_prefix = " ".join(["word"] * 20)
    assert b.predict_many([f"{long_prefix} __entity__"]) == [[]]


def test_logits_shape_and_special_suppression(bio):
    """The forward emits (B, L, V) logits with specials suppressed — no
    [PAD]/[MASK]/[UNK] descriptor can ever surface."""
    enc = bio._encode_batch(["one __entity__ two", "__entity__"])
    logits = bio._forward_numpy(enc)
    assert logits.shape == (2, enc["input_ids"].shape[1], len(bio.itos))
    assert np.all(logits[:, :, :3] <= -1e8)


def test_default_backends_selector():
    pair = default_backends(scorer_backend="fixture_mlm")
    assert [b.name for b in pair] == ["bio", "phi"]
    assert all(isinstance(b, FixtureMLMBackend) for b in pair)
    with pytest.raises(ValueError):
        default_backends(scorer_backend="hf")
    with pytest.raises(ValueError):
        default_backends(scorer_backend="nope")


def test_fixture_e2e_oracle_parity(ray_session):
    """Distributed run_tagging with scorer_backend='fixture_mlm' matches the
    sequential single-process oracle tag-for-tag — the same conformance
    gate the mock path has, now over the REAL backend code shape."""
    import ray.data as rd

    from unsupervised_ner_ray.config import PipelineConfig
    from unsupervised_ner_ray.corpus import make_documents
    from unsupervised_ner_ray.oracle import oracle_tag_corpus
    from unsupervised_ner_ray.pipelines.flagship import run_tagging

    docs_tbl = make_documents(30, seed=11)
    cfg = PipelineConfig(
        scorer_backend="fixture_mlm", tagger_batch_size=8
    )
    tagged = run_tagging(rd.from_arrow(docs_tbl), cfg).to_pandas()
    eng = sorted(
        (row["doc_id"], s["span_idx"], tuple(s["tags"]))
        for _, row in tagged.iterrows()
        for s in row["ner"]
    )
    ot = oracle_tag_corpus(docs_tbl, cfg)["tags"]
    ora = sorted((r.doc_id, r.span_idx, tuple(r.tags)) for r in ot.itertuples())
    assert eng == ora
    assert len(eng) > 0
    # the pipeline extracts real mentions/triples from fixture-MLM tags
    assert sum(len(m) for m in tagged["mentions"]) > 0
