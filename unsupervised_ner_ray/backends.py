"""Descriptor-scorer backends.

The reference treats the masked-LM descriptor model as an opaque service
(dispatched per sentence, /root/reference/batched_main_NER.py:264-269,
564-577); the engine's contract is therefore the *descriptor interface*:

    predict(masked_sentence, phrase, mode) -> ordered top-k list of
        {"desc": str, "v": float, "e": "SUB1/SUB2/...", "e_count": "10/4/..."}

mirroring the batched service response consumed at batched_main_NER.py:380-386
and 426-432.  Two backends:

* ``MockDescriptorBackend`` — deterministic (md5-seeded) selection from the
  synthetic vocabulary; the fast default in this sandbox (no torch/network).
  Known phrases surface their own vocabulary types (so BC5CDR-style labeled
  terms are recovered); unknown phrases get hash-picked descriptors biased to
  the backend's affinity groups, which makes the bio/phi pair genuinely
  disagree and exercises every ensemble-resolution branch.
* ``FixtureMLMBackend`` — a REAL (numpy-only) masked-LM: a tiny fixed-weight
  bidirectional transformer over the labeled vocabulary.  It runs the exact
  masked-rows-only padded forward / first-mask-position logits /
  softmax-top-k / signature-attach code path of the production backend
  in-sandbox, because that path lives in the shared ``_BatchedMLMBackend``
  base.
* ``HFDescriptorBackend`` — optional HuggingFace masked-LM path, import-gated
  (torch absent in this sandbox).  Only the literal tokenizer/forward calls
  are torch-specific; everything after the forward is the shared base.

All are loaded once per tagger (``NerTagger.__init__``, once per worker
process), never per batch.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Protocol

import numpy as np

from .assets import (
    BIO_PRECEDENCE,
    PHI_PRECEDENCE,
    build_entity_map,
    build_vocab,
    vocab_types_by_subtype,
)

# reference main_NER.py:20 — numeric short-circuit emits 10 dummy descriptors
DUMMY_DESCS = 10
DUMMY_DESC_TERM = "two"


class ScorerBackend(Protocol):
    name: str

    def predict_batch(
        self, masked_sentences: list[str], phrases: list[str], modes: list[str]
    ) -> list[list[dict]]:
        ...


def _stable_int(*parts: str) -> int:
    h = hashlib.md5("|".join(parts).encode("utf-8", "surrogatepass")).hexdigest()
    return int(h[:12], 16)


class MockDescriptorBackend:
    """Deterministic mock of the frozen-BERT descriptor service."""

    def __init__(
        self,
        name: str,
        vocab: dict[str, tuple[list[str], list[int]]] | None = None,
        top_k: int = DUMMY_DESCS,
    ):
        self.name = name
        self.vocab = vocab if vocab is not None else build_vocab()
        self.by_subtype = vocab_types_by_subtype(self.vocab)
        self.terms = list(self.vocab.keys())
        self.top_k = top_k
        self._entry_cache: dict = {}
        # affinity: which consolidated groups this model "knows" — drives
        # filler-descriptor choice for unknown phrases
        affinity = set(BIO_PRECEDENCE if name == "bio" else PHI_PRECEDENCE)
        emap = build_entity_map()
        self.affinity_terms = [
            t for t in self.terms
            if any(emap.get(st, st) in affinity for st in self.vocab[t][0])
        ] or self.terms

    def _desc_entry(self, term: str, v: float) -> dict:
        # per-(term, v) entries are immutable downstream; cache them (the
        # v schedule has ~top_k distinct values, so the cache is small)
        key = (term, v)
        hit = self._entry_cache.get(key)
        if hit is not None:
            return hit
        subtypes, counts = self.vocab.get(term, (["UNTAGGED_ENTITY"], [1]))
        entry = {
            "desc": term,
            "v": round(v, 4),
            "e": "/".join(subtypes),
            "e_count": "/".join(str(c) for c in counts),
        }
        self._entry_cache[key] = entry
        return entry

    def predict(self, masked_sentence: str, phrase: str, mode: str) -> list[dict]:
        # numeric short-circuit (reference main_NER.py:486-496, DUMMY_DESCS):
        # a bare-number CI phrase gets 10 dummy descriptors at weight 0.
        if mode == "ci" and phrase.replace(",", "").replace(".", "").isdigit():
            return [self._desc_entry(DUMMY_DESC_TERM, 0.0) for _ in range(DUMMY_DESCS)]
        h = _stable_int(self.name, mode, masked_sentence)
        picked: list[str] = []
        # the model "recognizes" the phrase (or one of its words): its own
        # vocabulary types anchor the prediction
        known = None
        for cand in [phrase.lower()] + [w.lower() for w in phrase.split()]:
            if cand in self.vocab:
                known = cand
                break
        pool: list[str]
        if known is not None:
            primary = self.vocab[known][0][0]
            neighbors = self.by_subtype.get(primary, [])
            picked.append(known)
            pool = neighbors + self.affinity_terms
        else:
            pool = self.affinity_terms
        seen = set(picked)
        idx = h % max(1, len(pool))
        step = 1 + h % 7
        while len(picked) < self.top_k and len(seen) < len(pool):
            t = pool[idx % len(pool)]
            idx += step
            if t in seen:
                idx += 1
                continue
            seen.add(t)
            picked.append(t)
        while len(picked) < self.top_k and self.terms:
            picked.append(self.terms[(h + len(picked)) % len(self.terms)])
        descs = [
            self._desc_entry(t, 0.6 * (0.8 ** i)) for i, t in enumerate(picked)
        ]
        # occasionally surface an untagged descriptor to exercise suppression
        if h % 5 == 0 and len(descs) > 3:
            descs[3] = {
                "desc": "oov_" + str(h % 97),
                "v": descs[3]["v"],
                "e": "UNTAGGED_ENTITY",
                "e_count": "7",
            }
        return descs

    def predict_batch(
        self, masked_sentences: list[str], phrases: list[str], modes: list[str]
    ) -> list[list[dict]]:
        return [
            self.predict(s, p, m)
            for s, p, m in zip(masked_sentences, phrases, modes)
        ]


class _BatchedMLMBackend:
    """Shared real-masked-LM backend logic — the service contract the
    reference consumes from its external bert_descriptors repo
    (/root/reference/batched_main_NER.py:264-269, 557-562): the
    ``__entity__`` mask slot becomes the model's mask token, ONE padded
    forward pass per batch — over only the rows whose encoding still holds
    a mask token — yields each row's logits at its FIRST mask position (the
    reference masks exactly one span per sentence copy), the top-k
    vocabulary tokens become the ordered descriptors (``v`` = softmax
    probability rounded to 4 dp, the reference's score rounding), and each
    descriptor term is annotated with its entity signature from the labeled
    vocabulary (``e``/``e_count``, D15) — the fused entity-server lookup.
    A row without a mask token (every CI row, or a mask truncated away)
    gets ``[]`` and costs no forward work.

    Subclasses supply ONLY tokenization and the forward:

    * attributes ``mask_token`` (str), ``mask_token_id`` (int)
    * ``_encode_batch(texts) -> enc`` where ``enc["input_ids"]`` is an
      int (B, L) numpy array (subclasses may stash framework tensors too)
    * ``_forward_numpy(enc) -> (B', V)`` float numpy logits at the mask
      position, where ``enc`` holds the B' masked rows: ``input_ids``
      (B', L), ``mask_pos`` (B',) each row's first mask position, and
      ``rows`` (B',) their indices in the encoded batch
    * ``_decode_token(token_id) -> str``

    Everything after the forward (softmax, top-k with deterministic index
    tie-break, signature attach, the numeric short-circuit, single/batched
    predict) is numpy and SHARED — the in-sandbox
    :class:`FixtureMLMBackend` therefore executes the identical code path
    the torch-backed :class:`HFDescriptorBackend` uses; only the literal
    tokenizer/forward calls differ.
    """

    name: str
    top_k: int
    vocab: dict

    def _signature(self, term: str) -> tuple[str, str]:
        subtypes, counts = self.vocab.get(term, (["UNTAGGED_ENTITY"], [1]))
        return "/".join(subtypes), "/".join(str(c) for c in counts)

    @functools.cached_property
    def _token_info(self) -> dict[int, tuple[str, str, str]]:
        """token id -> (term, e, e_count), filled as ids are first emitted.
        Serving threads share it; two that miss the same id store equal
        values, so no lock is needed."""
        return {}

    def _descs_from_probs(self, probs: np.ndarray) -> list[list[dict]]:
        """(B, V) probabilities -> each row's top-k descriptors, ordered by
        probability descending, token id ascending on ties."""
        B, V = probs.shape
        k = min(self.top_k, V)
        if k == 0:
            return [[] for _ in range(B)]
        # every token at or above its row's k-th largest probability is a
        # candidate, ties at the boundary included, so the exact order
        # below picks the same k tokens a full sort would
        kth = np.partition(probs, V - k, axis=1)[:, V - k]
        rows, ids = np.nonzero(probs >= kth[:, None])
        p = probs[rows, ids]
        order = np.lexsort((ids, -p, rows))
        counts = np.bincount(rows, minlength=B)
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = order[rank < k]
        info = self._token_info
        descs = []
        for t, v in zip(ids[keep].tolist(), p[keep].tolist()):
            hit = info.get(t)
            if hit is None:
                term = self._decode_token(t)
                hit = info[t] = (term, *self._signature(term))
            descs.append({"desc": hit[0], "v": round(v, 4), "e": hit[1], "e_count": hit[2]})
        return [descs[i : i + k] for i in range(0, B * k, k)]

    def predict_many(self, masked_sentences: list[str]) -> list[list[dict]]:
        """One padded forward pass over the masked rows of a batch."""
        texts = [
            s.replace("__entity__", self.mask_token) for s in masked_sentences
        ]
        enc = self._encode_batch(texts)
        ids = enc["input_ids"]
        is_mask = ids == self.mask_token_id
        rows = np.flatnonzero(is_mask.any(axis=1))
        results: list[list[dict]] = [[] for _ in texts]
        if len(rows) == 0:
            return results
        logits = self._forward_numpy(
            dict(enc, input_ids=ids[rows], rows=rows,
                 mask_pos=is_mask[rows].argmax(axis=1))
        ).astype(np.float64)
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = ex / ex.sum(axis=1, keepdims=True)
        for row, descs in zip(rows.tolist(), self._descs_from_probs(probs)):
            results[row] = descs
        return results

    def _dummy_descs(self) -> list[dict]:
        # numeric short-circuit payload (reference main_NER.py:486-496)
        sig = self._signature(DUMMY_DESC_TERM)
        return [
            {"desc": DUMMY_DESC_TERM, "v": 0.0, "e": sig[0], "e_count": sig[1]}
            for _ in range(DUMMY_DESCS)
        ]

    @staticmethod
    def _is_numeric(phrase: str) -> bool:
        return phrase.replace(",", "").replace(".", "").isdigit()

    def predict(self, masked_sentence: str, phrase: str, mode: str) -> list[dict]:
        if mode == "ci" and self._is_numeric(phrase):
            return self._dummy_descs()
        return self.predict_many([masked_sentence])[0]

    def predict_batch(
        self, masked_sentences: list[str], phrases: list[str], modes: list[str]
    ) -> list[list[dict]]:
        """Batched predict with the per-item numeric short-circuit applied
        first; all remaining items share ONE padded forward pass.  The
        tagging core scores every sentence through this."""
        out: list = [None] * len(masked_sentences)
        todo = []
        for i, (p, m) in enumerate(zip(phrases, modes)):
            if m == "ci" and self._is_numeric(p):
                out[i] = self._dummy_descs()
            else:
                todo.append(i)
        if todo:
            res = self.predict_many([masked_sentences[i] for i in todo])
            for i, r in zip(todo, res):
                out[i] = r
        return out


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else v


class FixtureMLMBackend(_BatchedMLMBackend):
    """Numpy-only fixture masked LM: a tiny fixed-weight bidirectional
    transformer (word-level tokenizer over the labeled vocabulary, one
    self-attention layer + FFN with layer norms, tied input/output
    embeddings) that executes the FULL production-backend code shape
    in-sandbox — batched padded forward over the masked rows, logits at
    the first mask position, softmax top-k, signature attach — via the shared
    :class:`_BatchedMLMBackend` base.  No torch.

    The embedding table is subtype-structured: each vocab term's row is its
    consolidated group's base direction plus a per-(model, term)
    perturbation, so the mask position's logits — context vectors mixed in
    by the bidirectional attention layer — genuinely prefer terms sharing
    the context's entity group: context-sensitive predictions, not hash
    noise.  All weights are deterministic functions of (name, seed), so
    outputs are stable across runs/processes and the bio/phi pair disagree
    like the reference's two models do.
    """

    def __init__(
        self,
        name: str,
        vocab: dict | None = None,
        top_k: int = DUMMY_DESCS,
        dim: int = 32,
        max_length: int = 48,
        seed: int = 0,
    ):
        from .assets import build_entity_map as _bem

        self.name = name
        self.top_k = top_k
        self.dim = dim
        self.max_length = max_length
        self.vocab = vocab if vocab is not None else build_vocab()
        terms = sorted(self.vocab)
        self.itos = ["[PAD]", "[MASK]", "[UNK]", *terms]
        self.stoi = {t: i for i, t in enumerate(self.itos)}
        self.mask_token = "[MASK]"
        self.mask_token_id = 1
        self.pad_token_id = 0
        self.unk_token_id = 2
        emap = _bem()
        V, d = len(self.itos), dim
        # group base directions: hash-seeded, model-independent (the
        # SUBTYPE GEOMETRY is shared; the per-term view of it is not)
        gdirs: dict[str, np.ndarray] = {}

        def _gvec(group: str) -> np.ndarray:
            v = gdirs.get(group)
            if v is None:
                g_rng = np.random.default_rng(_stable_int("group", group, str(seed)))
                v = _unit(g_rng.standard_normal(d))
                gdirs[group] = v
            return v

        E = np.zeros((V, d))
        for t in terms:
            primary = self.vocab[t][0][0]
            group = emap.get(primary, primary)
            t_rng = np.random.default_rng(_stable_int("term", name, t, str(seed)))
            E[self.stoi[t]] = _unit(_gvec(group) + 0.5 * _unit(t_rng.standard_normal(d)))
        u_rng = np.random.default_rng(_stable_int("unk", name, str(seed)))
        E[self.unk_token_id] = _unit(u_rng.standard_normal(d))
        self.E = E
        w_rng = np.random.default_rng(_stable_int("weights", name, str(seed)))
        s = 1.0 / np.sqrt(d)
        self.P = 0.05 * w_rng.standard_normal((max_length, d))
        self.Wq = s * w_rng.standard_normal((d, d))
        self.Wk = s * w_rng.standard_normal((d, d))
        # value/output projections are NEAR-IDENTITY (identity + small
        # model-specific noise): the attention output then carries the mean
        # CONTEXT DIRECTION into the mask position's residual stream, so
        # tied-embedding logits prefer the context's entity group — the
        # fixture behaves like a (very small) trained MLM rather than a
        # random rotation, while still executing a full transformer forward
        self.Wv = np.eye(d) + 0.1 * s * w_rng.standard_normal((d, d))
        self.Wo = np.eye(d) + 0.1 * s * w_rng.standard_normal((d, d))
        self.W1 = s * w_rng.standard_normal((d, 4 * d))
        self.W2 = (0.1 / np.sqrt(4 * d)) * w_rng.standard_normal((4 * d, d))

    _PUNCT = ".,;:!?()[]\"'"

    def _tokenize(self, text: str) -> list[int]:
        out = []
        for w in text.split():
            if w == self.mask_token:
                out.append(self.mask_token_id)
                continue
            wn = w.strip(self._PUNCT).lower()
            out.append(self.stoi.get(wn, self.unk_token_id))
        return out[: self.max_length]

    def _encode_batch(self, texts: list[str]) -> dict:
        rows = [self._tokenize(t) for t in texts]
        L = max(1, max((len(r) for r in rows), default=1))
        ids = np.full((len(rows), L), self.pad_token_id, dtype=np.int64)
        for i, r in enumerate(rows):
            ids[i, : len(r)] = r
        return {"input_ids": ids}

    def _decode_token(self, token_id: int) -> str:
        return self.itos[token_id]

    @staticmethod
    def _ln(x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        sd = x.std(axis=-1, keepdims=True)
        return (x - mu) / (sd + 1e-6)

    def _forward_numpy(self, enc: dict) -> np.ndarray:
        ids = enc["input_ids"]
        B, L = ids.shape
        d = self.dim
        pad = ids == self.pad_token_id  # (B, L) key mask
        h0 = self.E[ids] + self.P[:L]
        # keys/values span the whole row; everything else is needed only at
        # the mask position, the one position whose logits are read
        k, v = h0 @ self.Wk, h0 @ self.Wv
        hm = h0[np.arange(B), enc["mask_pos"]]  # (B, d)
        q = hm @ self.Wq
        att = (q[:, None, :] @ k.transpose(0, 2, 1))[:, 0] / np.sqrt(d)  # (B, L)
        att = np.where(pad, -1e9, att)  # padded keys never attend
        att = att - att.max(axis=-1, keepdims=True)
        a = np.exp(att)
        a = a / a.sum(axis=-1, keepdims=True)
        h1 = self._ln(hm + (a[:, None, :] @ v)[:, 0] @ self.Wo)
        h2 = self._ln(h1 + np.maximum(h1 @ self.W1, 0.0) @ self.W2)
        logits = h2 @ self.E.T  # tied embeddings, (B, V)
        logits[:, : self.unk_token_id + 1] = -1e9  # never emit specials
        return logits


class HFDescriptorBackend(_BatchedMLMBackend):
    """HuggingFace masked-LM backend (requires transformers+torch — absent
    in this sandbox, so construction raises NotImplementedError here and
    the tests for it are ``pytest.importorskip``-gated).

    All logic around the forward (masked-row selection, softmax top-k,
    signature attach, numeric short-circuit, batched predict) is the shared
    :class:`_BatchedMLMBackend` base — exercised in-sandbox through
    :class:`FixtureMLMBackend`.  This subclass contains ONLY the literal
    torch/transformers calls: tokenizer encode and the no-grad forward.

    Model + tokenizer + vocab are loaded ONCE in ``__init__``; the class
    lives inside a worker process's cached ``NerTagger`` (built once per
    process, never per batch).
    """

    def __init__(
        self,
        name: str,
        model_name: str,
        vocab=None,
        top_k: int = DUMMY_DESCS,
        device: str = "cpu",
        max_length: int = 128,
    ):
        try:
            import torch
            from transformers import AutoModelForMaskedLM, AutoTokenizer
        except ImportError as exc:  # pragma: no cover
            raise NotImplementedError(
                "HFDescriptorBackend needs torch+transformers; use "
                "FixtureMLMBackend or MockDescriptorBackend in this "
                "environment"
            ) from exc
        self.name = name
        self.top_k = top_k
        self.max_length = max_length
        self.vocab = vocab if vocab is not None else build_vocab()
        self._torch = torch
        self.device = device
        self.tokenizer = AutoTokenizer.from_pretrained(model_name)
        self.model = AutoModelForMaskedLM.from_pretrained(model_name)
        self.model.to(device)
        self.model.eval()
        self.mask_token = self.tokenizer.mask_token
        self.mask_token_id = self.tokenizer.mask_token_id

    def _encode_batch(self, texts: list[str]) -> dict:  # pragma: no cover
        enc = self.tokenizer(
            texts, return_tensors="pt", padding=True,
            truncation=True, max_length=self.max_length,
        ).to(self.device)
        return {"input_ids": enc["input_ids"].cpu().numpy(), "_pt": enc}

    def _forward_numpy(self, enc: dict):  # pragma: no cover
        torch = self._torch
        rows = torch.as_tensor(enc["rows"], device=self.device)
        with torch.no_grad():
            logits = self.model(**{n: t[rows] for n, t in enc["_pt"].items()}).logits
        pos = torch.as_tensor(enc["mask_pos"], device=self.device)
        return logits[torch.arange(len(rows), device=self.device), pos].cpu().numpy()

    def _decode_token(self, token_id: int) -> str:  # pragma: no cover
        return self.tokenizer.decode([token_id]).strip().lower()


def default_backends(
    top_k: int = DUMMY_DESCS, scorer_backend: str = "mock"
) -> list:
    """The two-model ensemble (bio + phi), mirroring the reference's paired
    NER servers (ensemble/config.json actions_arr).  ``scorer_backend``
    picks the model class: "mock" (hash mock, fastest), "fixture_mlm" (real
    numpy MLM forward — the production code shape), or "hf" (torch; raise
    here, construct :class:`HFDescriptorBackend` directly with model
    names)."""
    vocab = build_vocab()
    if scorer_backend == "mock":
        return [
            MockDescriptorBackend("bio", vocab, top_k),
            MockDescriptorBackend("phi", vocab, top_k),
        ]
    if scorer_backend == "fixture_mlm":
        return [
            FixtureMLMBackend("bio", vocab, top_k),
            FixtureMLMBackend("phi", vocab, top_k),
        ]
    if scorer_backend == "hf":
        raise ValueError(
            "scorer_backend='hf' needs explicit model names: construct "
            "HFDescriptorBackend('bio', model_name=...) directly"
        )
    raise ValueError(f"unknown scorer_backend {scorer_backend!r}")
