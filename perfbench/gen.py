"""Seeded input generator for the benchmark workloads.

Inputs are made here, not by the program's ``corpus``/``entry_corpus``
helpers, so a change to those helpers cannot change a workload.  Entity
words come from the program's public labelled vocabulary
(``assets.build_vocab``) so that tagged mentions link; every other word is a
fixed list in this file.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MARK = ":__entity__"

_FUNCTION = (
    "the a of in at with from to and was is by for on after before during "
    "near while has had into over under between about"
).split()
_NOUNS = (
    "patient clinic report sample trial dose network station harbor market "
    "engine valley river council archive program signal device protein "
    "method result season village museum library theory surface contract "
    "journey garden factory vessel battery lecture company hospital pathway "
    "symptom therapy study review window bridge tower school kitchen studio"
).split()
_ADJS = (
    "early late severe mild rapid quiet bright northern southern chronic "
    "acute modern ancient local remote steady major minor rare common"
).split()
_VERBS = (
    "reported studied visited described measured opened launched treated "
    "observed recorded published joined moved crossed noted built"
).split()

SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.large_string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
DOCS_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(SPAN_TYPE))])


def entity_words() -> list[str]:
    """Single-word, letters-only surfaces of the program's vocabulary."""
    from unsupervised_ner_ray.assets import build_vocab

    return sorted(w for w in build_vocab() if w.isalpha() and w.isascii())


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _pick(rng: np.random.Generator, words: list[str]) -> str:
    return words[int(rng.integers(len(words)))]


def _balanced(rng: np.random.Generator, values: list, n: int) -> list:
    """``n`` draws in which every value appears equally often (up to the
    remainder), in seeded order.  Seeds then change which document gets
    what, but not how much of it a round holds, which keeps the work per
    round steady across seeds."""
    out = values * (n // len(values)) + [values[int(i)] for i in rng.permutation(len(values))[: n % len(values)]]
    return [out[int(i)] for i in rng.permutation(n)]


def _flags(rng: np.random.Generator, share: float, n: int) -> list[bool]:
    k = int(round(share * n))
    return _balanced(rng, [True] * k + [False] * (n - k), n) if n else []


def prose_sentence(rng: np.random.Generator, ents: list[str], clauses: int) -> str:
    """One unmarked sentence of ``clauses`` clauses, 2 to 4 words each."""
    words: list[str] = []
    for _ in range(clauses):
        words.append(_pick(rng, _FUNCTION))
        if rng.random() < 0.4:
            words.append(_pick(rng, _ADJS))
        if rng.random() < 0.45:
            e = _pick(rng, ents)
            words.append(e.capitalize() if rng.random() < 0.5 else e)
        else:
            words.append(_pick(rng, _NOUNS))
        if rng.random() < 0.35:
            words.append(_pick(rng, _VERBS))
    words[0] = words[0].capitalize()
    return " ".join(words)


def unique_prose(rng, ents, n: int, seen: set[str]) -> list[str]:
    """``n`` prose sentences of 3 to 5 clauses (equally many of each), none
    of them in ``seen`` (which is updated)."""
    out = []
    for clauses in _balanced(rng, [3, 4, 5], n):
        s = prose_sentence(rng, ents, clauses)
        while s in seen:
            s = prose_sentence(rng, ents, clauses)
        seen.add(s)
        out.append(s)
    return out


def _media_span(doc_id: str, j: int, offset: int) -> dict:
    ref = "media://" + hashlib.sha1(f"{doc_id}/{j}".encode()).hexdigest()[:20]
    kind = ("image", "audio", "video")[int(ref[-1], 16) % 3]
    return {"kind": kind, "text": "", "media_ref": ref, "offset": offset}


def _docs_table(doc_ids: list[str], spans: list[list[dict]]) -> pa.Table:
    return pa.table(
        {"doc_id": pa.array(doc_ids, pa.string()),
         "spans": pa.array(spans, pa.list_(SPAN_TYPE))},
        schema=DOCS_SCHEMA,
    )


def _layout(rng: np.random.Generator, n_docs: int, media_share: float) -> list[list[bool]]:
    """Per document, one flag per span: True for a media span.  Documents
    have 1 to 5 spans, equally many of each length; ``media_share`` of the
    spans of multi-span documents are media."""
    lengths = _balanced(rng, [1, 2, 3, 4, 5], n_docs)
    flags = iter(_flags(rng, media_share, sum(n for n in lengths if n > 1)))
    return [[False] if n == 1 else [next(flags) for _ in range(n)] for n in lengths]


def prose_documents(seed: int, n_docs: int) -> pa.Table:
    """Interleaved text+media documents; every text span is distinct prose."""
    rng = _rng(seed, 1)
    layout = _layout(rng, n_docs, 0.3)
    texts = iter(unique_prose(rng, entity_words(), sum(f.count(False) for f in layout), set()))
    doc_ids, spans_col = [], []
    for i, flags in enumerate(layout):
        doc_id = f"p{seed}-{i:06d}"
        spans, offset = [], 0
        for j, media in enumerate(flags):
            if media:
                spans.append(_media_span(doc_id, j, offset))
                offset += 1
            else:
                text = next(texts)
                spans.append({"kind": "text", "text": text, "media_ref": "", "offset": offset})
                offset += len(text.split())
        doc_ids.append(doc_id)
        spans_col.append(spans)
    return _docs_table(doc_ids, spans_col)


def _weighted(rng: np.random.Generator, n_values: int, exponent: float, n: int) -> list[int]:
    """``n`` indices into ``n_values`` values with Zipf-like shares
    ``1 / (rank + 1) ** exponent``; each index appears its share of ``n``
    times (rounded down, the rest going to the first ranks), in seeded order."""
    w = 1.0 / np.arange(1, n_values + 1) ** exponent
    counts = np.floor(w / w.sum() * n).astype(int)
    counts[: n - counts.sum()] += 1
    return _balanced(rng, [int(i) for i in np.repeat(np.arange(n_values), counts)], n)


# the three clause shapes of a boilerplate sentence; E is a marked entity
_CLAUSES = (("F", "N", "E"), ("F", "E", "E"), ("F", "E", "V"))


def boilerplate_pool(seed: int, n_sentences: int) -> list[str]:
    """Distinct ``:__entity__``-marked sentences, each made of the three
    clause shapes in seeded order (9 words, 4 entity words).  Entity words
    are drawn Zipf-like from 24 surfaces, so a few are hot keys."""
    rng = _rng(seed, 2)
    ents = entity_words()
    hot = [ents[int(k)] for k in rng.permutation(len(ents))[:24]]
    slots = iter(_weighted(rng, len(hot), 1.3, 8 * 4 * n_sentences))
    fill = {"F": lambda: _pick(rng, _FUNCTION), "N": lambda: _pick(rng, _NOUNS),
            "V": lambda: _pick(rng, _VERBS), "E": lambda: hot[next(slots)] + MARK}
    pool: list[str] = []
    while len(pool) < n_sentences:
        s = " ".join(fill[k]() for c in rng.permutation(len(_CLAUSES)) for k in _CLAUSES[int(c)])
        if s not in pool:
            pool.append(s)
    return pool


def boilerplate_documents(seed: int, n_docs: int, pool: list[str]) -> pa.Table:
    """Documents drawn from ``pool`` with a skewed sentence distribution
    (Zipf-like, exponent 0.8), plus media spans and some blank text spans."""
    rng = _rng(seed, 3)
    layout = _layout(rng, n_docs, 0.25)
    n_text = sum(f.count(False) for f in layout)
    blank = iter(_flags(rng, 0.05, n_text))
    picks = iter(_weighted(rng, len(pool), 0.8, n_text))
    doc_ids, spans_col = [], []
    for i, flags in enumerate(layout):
        doc_id = f"b{seed}-{i:06d}"
        spans, offset = [], 0
        for j, media in enumerate(flags):
            if media:
                spans.append(_media_span(doc_id, j, offset))
                offset += 1
                continue
            text = pool[next(picks)]
            if next(blank):
                text = " " * int(rng.integers(0, 3))
            spans.append({"kind": "text", "text": text, "media_ref": "", "offset": offset})
            offset += len(text.split())
        doc_ids.append(doc_id)
        spans_col.append(spans)
    return _docs_table(doc_ids, spans_col)


def serve_requests(
    seed: int, round_idx: int, n: int, hot: list[str], repeat_share: float,
    seen: set[str],
) -> list[str]:
    """One round of ``n`` sentences: ``repeat_share`` of them drawn from the
    ``hot`` list, the rest unique prose never used before (``seen``)."""
    rng = _rng(seed, 4, round_idx)
    n_rep = int(round(n * repeat_share))
    out = unique_prose(rng, entity_words(), n - n_rep, seen)
    out += _balanced(rng, hot, n_rep)
    return [out[int(k)] for k in rng.permutation(n)]


def serve_hot(seed: int, n: int, seen: set[str]) -> list[str]:
    return unique_prose(_rng(seed, 5), entity_words(), n, seen)
