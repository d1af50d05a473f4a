"""Output checks.  Each check recomputes a property the method must have from
the benchmark's own input, or compares against a computation made apart
from the Ray pipeline; none compares against a stored copy of an output.
Every check raises :class:`CheckError` naming what is wrong.
"""

from __future__ import annotations

import json
from collections import Counter

import pandas as pd

MARK = ":__entity__"


class CheckError(AssertionError):
    pass


def _fail(msg: str):
    raise CheckError(msg)


def _span_key(span: dict) -> tuple:
    return (span["kind"], span["text"], span["media_ref"], span["offset"])


def text_span_indices(spans: list[dict]) -> list[int]:
    """Indices of the non-blank text spans: the ones the tagger tags."""
    return [i for i, s in enumerate(spans) if s["kind"] == "text" and s["text"] and s["text"].strip()]


def expected_tokens(text: str) -> list[str]:
    return [w[: -len(MARK)] if w.endswith(MARK) else w for w in text.split()]


def tag_runs(tokens: list[str], tags: list[str]) -> list[tuple[str, str]]:
    """Maximal entity runs as (surface, base type): a run starts at any
    non-O tag and takes the ``I_`` tags that follow it."""
    runs, i = [], 0
    while i < len(tags):
        if tags[i] == "O":
            i += 1
            continue
        start, i = i, i + 1
        while i < len(tags) and tags[i].startswith("I_"):
            i += 1
        base = tags[start][2:] if tags[start][:2] in ("B_", "I_") else tags[start]
        runs.append((" ".join(tokens[start:i]), base.split("/")[0].split("[")[0]))
    return runs


def check_documents(inputs: list[dict], outputs: list[dict]) -> None:
    """Every input document appears exactly once with its span sequence
    (kind, text, media_ref, offset, order) unchanged."""
    counts = Counter(r["doc_id"] for r in outputs)
    dup = [d for d, c in counts.items() if c > 1]
    if dup:
        _fail(f"{len(dup)} documents appear more than once, e.g. {dup[0]}")
    want = {r["doc_id"]: r for r in inputs}
    missing = set(want) - set(counts)
    if missing:
        _fail(f"{len(missing)} input documents missing, e.g. {sorted(missing)[0]}")
    extra = set(counts) - set(want)
    if extra:
        _fail(f"{len(extra)} unknown documents, e.g. {sorted(extra)[0]}")
    for r in outputs:
        a = [_span_key(s) for s in want[r["doc_id"]]["spans"]]
        b = [_span_key(s) for s in r["spans"]]
        if a != b:
            _fail(f"document {r['doc_id']}: span sequence differs from the input")


def check_tagging(outputs: list[dict]) -> None:
    """One ner entry per non-blank text span, tokens equal to the
    whitespace split with the entity marker stripped, one valid BIO tag per
    token, and mentions equal to the maximal tag runs."""
    for r in outputs:
        spans = r["spans"]
        idx = [e["span_idx"] for e in r["ner"]]
        if idx != text_span_indices(spans):
            _fail(f"document {r['doc_id']}: tagged span indices {idx} != text spans")
        for e in r["ner"]:
            toks = expected_tokens(spans[e["span_idx"]]["text"])
            if list(e["tokens"]) != toks:
                _fail(f"document {r['doc_id']} span {e['span_idx']}: tokens differ from the text")
            tags = list(e["tags"])
            if len(tags) != len(toks):
                _fail(f"document {r['doc_id']} span {e['span_idx']}: {len(tags)} tags for {len(toks)} tokens")
            bad = [t for t in tags if not (t == "O" or t.startswith("B_") or t.startswith("I_"))]
            if bad:
                _fail(f"document {r['doc_id']}: invalid tag {bad[0]!r}")
        got = [(m["span_idx"], m["surface"], m["etype"]) for m in r["mentions"]]
        want = [(e["span_idx"], s, t) for e in r["ner"] for s, t in tag_runs(list(e["tokens"]), list(e["tags"]))]
        if got != want:
            _fail(f"document {r['doc_id']}: mentions are not the maximal tag runs")


def check_triples(outputs: list[dict]) -> None:
    """The triples of each span are exactly its consecutive mention pairs."""
    for r in outputs:
        by_span: dict[int, list] = {}
        for m in r["mentions"]:
            by_span.setdefault(m["span_idx"], []).append((m["surface"], m["etype"]))
        got: dict[int, list] = {}
        for t in r["triples"]:
            got.setdefault(t["span_idx"], []).append(
                ((t["subj"], t["subj_type"]), (t["obj"], t["obj_type"])))
        for s in set(by_span) | set(got):
            ms = by_span.get(s, [])
            if got.get(s, []) != list(zip(ms, ms[1:])):
                _fail(f"document {r['doc_id']} span {s}: {len(got.get(s, []))} triples "
                      f"for {len(ms)} mentions")


def majority_types(mentions: pd.DataFrame) -> pd.Series:
    """surface_norm -> most frequent etype, ties broken by name ascending."""
    c = mentions.groupby(["surface_norm", "etype"]).size().reset_index(name="n")
    c = c.sort_values(["surface_norm", "n", "etype"], ascending=[True, False, True])
    return c.drop_duplicates("surface_norm").set_index("surface_norm")["etype"]


def check_entities(mentions: pd.DataFrame, entities: pd.DataFrame) -> None:
    """n_mentions sum to the mention rows, one entity per distinct
    surface_norm, and each type is the recomputed majority vote."""
    total = int(entities["n_mentions"].sum())
    if total != len(mentions):
        _fail(f"entity n_mentions sum {total} != {len(mentions)} mention rows")
    if entities["surface_norm"].duplicated().any():
        _fail("an entity surface_norm appears more than once")
    if set(entities["surface_norm"]) != set(mentions["surface_norm"]):
        _fail("entity surface_norms differ from the mentions' distinct surface_norms")
    counts = mentions["surface_norm"].value_counts()
    ent = entities.set_index("surface_norm")
    off = ent.index[ent["n_mentions"].to_numpy() != counts.reindex(ent.index).to_numpy()]
    if len(off):
        _fail(f"entity {off[0]!r}: n_mentions differs from its mention count")
    maj = majority_types(mentions).reindex(ent.index)
    wrong = ent.index[ent["etype"].to_numpy() != maj.to_numpy()]
    if len(wrong):
        _fail(f"entity {wrong[0]!r}: type {ent.loc[wrong[0], 'etype']!r} is not the majority {maj[wrong[0]]!r}")


def check_adjacency(triples: pd.DataFrame, adjacency: pd.DataFrame) -> None:
    """Degrees sum to the triple rows and len(neighbors) == degree."""
    total = int(adjacency["degree"].sum())
    if total != len(triples):
        _fail(f"adjacency degrees sum {total} != {len(triples)} triple rows")
    lens = adjacency["neighbors"].map(len).to_numpy()
    if (lens != adjacency["degree"].to_numpy()).any():
        _fail("an adjacency row has len(neighbors) != degree")
    if adjacency["subj_id"].duplicated().any():
        _fail("an adjacency subject appears more than once")


def check_against_oracle(outputs: list[dict], oracle: dict) -> None:
    """Tags and triples of the sampled documents equal the single-process
    oracle's (no Ray, no cache)."""
    tags = oracle["tags"]
    want = {(d, int(s)): (list(t), list(g)) for d, s, t, g in
            zip(tags["doc_id"], tags["span_idx"], tags["tokens"], tags["tags"])} if len(tags) else {}
    got = {(r["doc_id"], int(e["span_idx"])): (list(e["tokens"]), list(e["tags"]))
           for r in outputs for e in r["ner"]}
    if got != want:
        diff = sorted(set(got) ^ set(want)) or [k for k in got if got[k] != want.get(k)]
        _fail(f"tags differ from the oracle at {diff[0]}")
    tri = oracle["triples"]
    cols = ["doc_id", "span_idx", "subj", "subj_type", "pred", "obj", "obj_type"]
    want_t = sorted(map(tuple, tri[cols].astype({"span_idx": int}).itertuples(index=False))) if len(tri) else []
    got_t = sorted((r["doc_id"], int(t["span_idx"]), t["subj"], t["subj_type"], t["pred"],
                    t["obj"], t["obj_type"]) for r in outputs for t in r["triples"])
    if got_t != want_t:
        _fail(f"triples differ from the oracle ({len(got_t)} vs {len(want_t)})")


def check_manifest_sentences(manifest: dict[int, dict], inputs: list[dict]) -> None:
    got = sum(int(rec["metrics"].get("sentences", 0)) for rec in manifest.values())
    want = sum(len(text_span_indices(r["spans"])) for r in inputs)
    if got != want:
        _fail(f"manifest sentences {got} != {want} non-blank text spans in the input")


def check_shard_entities(entities_by_shard: dict, total_mentions: int) -> None:
    got = sum(int(e["n_mentions"].sum()) for e in entities_by_shard.values())
    if got != total_mentions:
        _fail(f"per-shard entity n_mentions sum {got} != {total_mentions} mentions")


def check_resume(result: dict, num_shards: int, before: dict, after: dict) -> None:
    """A repeated call skips every shard and rewrites no output file."""
    if result["completed"] or sorted(result["skipped"]) != list(range(num_shards)):
        _fail(f"repeated call did not skip every shard: {result}")
    if set(before) != set(after):
        _fail(f"repeated call changed the output file set: {sorted(set(before) ^ set(after))[:3]}")
    changed = [p for p in before if before[p] != after[p]]
    if changed:
        _fail(f"repeated call rewrote {changed[0]}")


def check_cached_tags(outputs: list[dict], recompute) -> int:
    """Every tagged span equals an uncached recomputation of its sentence
    (``recompute(text) -> tags``).  Returns the number of spans compared."""
    fresh: dict[str, list] = {}
    n = 0
    for r in outputs:
        for e in r["ner"]:
            text = r["spans"][e["span_idx"]]["text"]
            if text not in fresh:
                fresh[text] = list(recompute(text))
            if list(e["tags"]) != fresh[text]:
                _fail(f"document {r['doc_id']} span {e['span_idx']}: tags differ from an uncached recomputation")
            n += 1
    return n


def check_reply(sentence: str, status: int, body: bytes) -> None:
    if status != 200:
        _fail(f"reply status {status} for {sentence!r}")
    try:
        reply = json.loads(body)
    except ValueError:
        _fail(f"reply for {sentence!r} is not JSON: {body[:80]!r}")
    n = len(reply.get("ensembled_ner", {})) if isinstance(reply, dict) else -1
    if n != len(expected_tokens(sentence)):
        _fail(f"reply for {sentence!r} has {n} ensembled_ner entries for {len(expected_tokens(sentence))} tokens")


def check_replies_identical(replies: list[tuple[str, bytes]], recompute) -> None:
    """Each (sentence, body) equals ``recompute(sentence)`` byte for byte."""
    fresh: dict[str, bytes] = {}
    for sentence, body in replies:
        if sentence not in fresh:
            fresh[sentence] = recompute(sentence)
        if body != fresh[sentence]:
            _fail(f"reply for {sentence!r} differs from an uncached in-process recomputation")
