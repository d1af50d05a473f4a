"""FixtureMLMBackend: the in-sandbox execution of the REAL model-backend
code path (shared _BatchedMLMBackend base — masked-row selection, one
padded forward over the rows that hold a mask token, logits at the first
mask position only, softmax top-k, signature attach, numeric
short-circuit).  The HF backend differs only in the literal torch calls
(tokenizer encode + no-grad forward + mask-position gather), so these tests
pin the entire surface around the forward that the production backend runs.

The mask-position forward and the partition-based top-k are pinned against
a verbatim copy of the earlier full (B, L, V) forward and full-lexsort
top-k (``_full_forward`` / ``_reference_predict_many`` below).

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


def _forward_enc(b, texts):
    """The forward's input for ``texts``, each holding a mask token."""
    enc = b._encode_batch([t.replace("__entity__", b.mask_token) for t in texts])
    is_mask = enc["input_ids"] == b.mask_token_id
    assert is_mask.any(axis=1).all()
    return dict(enc, rows=np.arange(len(texts)), mask_pos=is_mask.argmax(axis=1))


def test_logits_shape_and_special_suppression(bio):
    """The forward emits (B, V) logits at the mask position with specials
    suppressed — no [PAD]/[MASK]/[UNK] descriptor can ever surface."""
    enc = _forward_enc(bio, ["one __entity__ two", "__entity__"])
    logits = bio._forward_numpy(enc)
    assert logits.shape == (2, len(bio.itos))
    assert np.all(logits[:, :3] <= -1e8)


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


# --- reference: the earlier full forward and full-lexsort top-k, verbatim ---


def _full_forward(self, enc: dict) -> np.ndarray:
    ids = enc["input_ids"]
    B, L = ids.shape
    d = self.dim
    pad = ids == self.pad_token_id  # (B, L) key mask
    h0 = self.E[ids] + self.P[:L]
    q, k, v = h0 @ self.Wq, h0 @ self.Wk, h0 @ self.Wv
    att = (q @ k.transpose(0, 2, 1)) / np.sqrt(d)  # (B, L, L)
    att = np.where(pad[:, None, :], -1e9, att)  # padded keys never attend
    att = att - att.max(axis=-1, keepdims=True)
    a = np.exp(att)
    a = a / a.sum(axis=-1, keepdims=True)
    h1 = self._ln(h0 + (a @ v) @ self.Wo)
    h2 = self._ln(h1 + np.maximum(h1 @ self.W1, 0.0) @ self.W2)
    logits = h2 @ self.E.T  # tied embeddings
    logits[:, :, : self.unk_token_id + 1] = -1e9  # never emit specials
    return logits


def _lexsort_descs(self, probs: np.ndarray) -> list[dict]:
    k = min(self.top_k, len(probs))
    # prob desc, token-id asc on ties — deterministic across runs
    order = np.lexsort((np.arange(len(probs)), -probs))[:k]
    out = []
    for i in order:
        term = self._decode_token(int(i))
        e, e_count = self._signature(term)
        out.append(
            {
                "desc": term,
                "v": round(float(probs[i]), 4),
                "e": e,
                "e_count": e_count,
            }
        )
    return out


def _reference_predict_many(self, masked_sentences: list[str]) -> list[list[dict]]:
    texts = [
        s.replace("__entity__", self.mask_token) for s in masked_sentences
    ]
    enc = self._encode_batch(texts)
    logits = _full_forward(self, enc)
    ids = enc["input_ids"]
    results: list[list[dict]] = []
    for row in range(len(texts)):
        pos = np.nonzero(ids[row] == self.mask_token_id)[0]
        if len(pos) == 0:  # mask truncated away -> degraded empty result
            results.append([])
            continue
        lr = logits[row, int(pos[0])].astype(np.float64)
        ex = np.exp(lr - lr.max())
        results.append(_lexsort_descs(self, ex / ex.sum()))
    return results


def _reference_predict_batch(self, masked_sentences, phrases, modes):
    out: list = [None] * len(masked_sentences)
    todo = []
    for i, (p, m) in enumerate(zip(phrases, modes)):
        if m == "ci" and self._is_numeric(p):
            out[i] = self._dummy_descs()
        else:
            todo.append(i)
    if todo:
        res = _reference_predict_many(self, [masked_sentences[i] for i in todo])
        for i, r in zip(todo, res):
            out[i] = r
    return out


_FILLER = ["the", "was", "given", "of", "and", "patients", "in", "[MASK]", "1,234"]


def _seeded_rows(seed: int, n_spans: int, vocab_terms: list[str]):
    """One sentence's predict_batch input, shaped like the tagging core's:
    a ci copy (``"<Phrase> is a entity"``, no mask) and a cs copy (the
    sentence with the phrase replaced by ``__entity__``) per span.  Words
    mix vocabulary terms, filler, numbers and the literal ``[MASK]``."""
    rng = np.random.default_rng(seed)
    pool = vocab_terms + 3 * _FILLER
    words = [pool[int(i)] for i in rng.integers(0, len(pool), int(rng.integers(3, 30)))]
    sents, phrases, modes = [], [], []
    for _ in range(n_spans):
        at = int(rng.integers(0, len(words)))
        width = int(rng.integers(1, 3))
        if rng.random() < 0.2:  # a bare-number phrase
            words[at], width = str(int(rng.integers(1, 10**6))), 1
        phrase = " ".join(words[at : at + width])
        masked = words[:at] + ["__entity__"] + words[at + width :]
        sents += [f"{phrase[:1].upper()}{phrase[1:]} is a entity", " ".join(masked)]
        phrases += [phrase, phrase]
        modes += ["ci", "cs"]
    return sents, phrases, modes


@pytest.fixture(scope="module")
def vocab_terms():
    return sorted(build_vocab())[::20]


@pytest.mark.parametrize("max_length", [48, 12])
def test_predict_batch_matches_full_forward_reference(vocab_terms, max_length):
    """Seeded tagging-core batches: ci rows without a mask, numeric ci
    phrases, literal [MASK] words (in ci and cs copies alike, so skipping
    rows by mode or text would be wrong) and, at max_length=12, masks
    truncated away — descriptor lists equal the full-forward reference."""
    b = FixtureMLMBackend("phi", max_length=max_length)
    seen = Counter()
    for seed in range(60):
        sents, phrases, modes = _seeded_rows(seed, 1 + seed % 5, vocab_terms)
        got = b.predict_batch(sents, phrases, modes)
        assert got == _reference_predict_batch(b, sents, phrases, modes)
        for s, p, m, r in zip(sents, phrases, modes, got):
            ids = b._encode_batch([s.replace("__entity__", b.mask_token)])["input_ids"]
            if m == "ci" and b._is_numeric(p):
                seen["numeric"] += 1
            elif (ids == b.mask_token_id).any():
                seen["ci_mask" if m == "ci" else "cs"] += 1
                assert len(r) == b.top_k
            else:
                seen["no_mask_" + m] += 1
                assert r == []
    assert seen["numeric"] and seen["ci_mask"] and seen["no_mask_ci"]
    if max_length < 48:
        assert seen["no_mask_cs"]  # masks truncated past max_length


def test_mask_position_logits_match_full_forward(vocab_terms):
    """The mask-position forward equals the full forward read at each row's
    first mask position, to 1e-12, across padding and literal [MASK]s."""
    b = FixtureMLMBackend("bio")
    for seed in range(20):
        sents, _, modes = _seeded_rows(100 + seed, 4, vocab_terms)
        texts = [s for s, m in zip(sents, modes) if m == "cs"]
        enc = _forward_enc(b, texts)
        full = _full_forward(b, enc)[np.arange(len(texts)), enc["mask_pos"]]
        np.testing.assert_allclose(b._forward_numpy(enc), full, rtol=0, atol=1e-12)


def test_top_k_at_least_vocab_matches_reference(vocab_terms):
    """top_k >= V: every token is returned, the suppressed specials tied at
    probability 0 last, in token-id order."""
    b = FixtureMLMBackend("bio", top_k=5000)
    sents, phrases, modes = _seeded_rows(7, 3, vocab_terms)
    got = b.predict_batch(sents, phrases, modes)
    assert got == _reference_predict_batch(b, sents, phrases, modes)
    full = [r for r in got if len(r) > DUMMY_DESCS]
    assert full and all(len(r) == len(b.itos) for r in full)
    assert [d["desc"] for d in full[0][-3:]] == ["[PAD]", "[MASK]", "[UNK]"]


def test_forced_ties_at_top_k_boundary_match_reference():
    """Tokens with identical embedding rows get identical probabilities; a
    tie straddling the k-th place keeps the lowest token ids, as the full
    lexsort does."""
    b = FixtureMLMBackend("bio")
    sent = "patients given __entity__ daily"
    ref = _reference_predict_many(b, [sent])[0]
    kth = b.stoi[ref[-1]["desc"]]
    others = [i for i in range(3, len(b.itos)) if b.itos[i] not in {d["desc"] for d in ref}]
    twins = [others[0], others[len(others) // 2], others[-1]]
    b.E[twins] = b.E[kth]  # the k-th token and three twins tie
    logits = b._forward_numpy(_forward_enc(b, [sent]))[0]
    assert (logits[twins] == logits[kth]).all()
    got = b.predict_many([sent])[0]
    assert got == _reference_predict_many(b, [sent])[0]
    tied = sorted([kth, *twins])
    assert got[-1]["desc"] == b.itos[tied[0]]
