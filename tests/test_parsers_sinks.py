"""Tests for the sinks, the JSONL / Lance sources and the v1 aggregation
variant (SURVEY.md §2.2 parity)."""

from unsupervised_ner_ray.assets import build_entity_map
from unsupervised_ner_ray.functions.aggregation import aggregate_entities_v1

EMAP = build_entity_map()
T = "THERAPEUTIC_OR_PREVENTIVE_PROCEDURE"


def test_aggregate_entities_v1_fraction_weighting():
    descs = [{"desc": "d", "v": 0.5, "e": "DRUG/DISEASE", "e_count": "10/5"}]
    entities, confidences, subtypes = aggregate_entities_v1(descs, EMAP)
    # weights: (10/15)*0.5 vs (5/15)*0.5 -> dist [2/3, 1/3] rounded
    assert entities == [f"{T}[DRUG]", "DISEASE[DISEASE]"]
    assert confidences == [round(2 / 3, 4), round(1 / 3, 4)]
    # v1 subtype accumulation counts occurrences, not cluster counts
    assert subtypes == {T: {"DRUG": 1}, "DISEASE": {"DISEASE": 1}}


def test_aggregate_entities_v1_untagged_fallback():
    descs = [{"desc": "x", "v": 1.0, "e": "UNTAGGED_ENTITY", "e_count": "3"}]
    entities, confidences, _ = aggregate_entities_v1(descs, EMAP)
    assert entities == ["OTHER[OTHER]"] and confidences == [1.0]


def test_variant_threads_through_tagger():
    from unsupervised_ner_ray.backends import default_backends
    from unsupervised_ner_ray.functions.tagger import ensemble_tag_sentence

    backends = default_backends()
    s = "Imatinib:__entity__ treats nsclc:__entity__"
    a = ensemble_tag_sentence(s, backends, EMAP, aggregation_variant="softmax")
    b = ensemble_tag_sentence(s, backends, EMAP, aggregation_variant="v1")
    assert len(a["ensembled_tags"]) == len(b["ensembled_tags"])
    # both deterministic
    a2 = ensemble_tag_sentence(s, backends, EMAP, aggregation_variant="softmax")
    assert a["ensembled_tags"] == a2["ensembled_tags"]


def test_sinks_and_harvest(ray_session, tmp_path):
    from unsupervised_ner_ray.config import PipelineConfig
    from unsupervised_ner_ray.pipelines.flagship import (
        docs_dataset_synthetic,
        run_tagging,
    )
    from unsupervised_ner_ray.sources.io import (
        explode_harvest,
        unique_lines,
        write_conll,
    )

    cfg = PipelineConfig(tagger_batch_size=32)
    tagged = run_tagging(docs_dataset_synthetic(10, seed=2, parallelism=2), cfg).materialize()
    conll = tmp_path / "out.conll"
    write_conll(tagged, str(conll))
    body = conll.read_text()
    assert body.endswith("\n\n")
    line = body.splitlines()[0]
    assert len(line.split(" ", 1)) == 2  # "token TAG"
    h = explode_harvest(tagged).to_pandas()
    # the tiny corpus has no blank-context probes -> empty is fine; when
    # rows exist the schema must match
    if len(h):
        assert set(h.columns) == {"doc_id", "term", "label"}
    # unique_lines preserves first-seen order
    src = tmp_path / "lines.txt"
    src.write_text("b\na\nb\nc\na\n")
    n = unique_lines(str(src), str(tmp_path / "uniq.txt"))
    assert n == 3
    assert (tmp_path / "uniq.txt").read_text() == "b\na\nc\n"


def test_jsonl_roundtrip(ray_session, tmp_path):
    """JSONL sink/source round-trips the interleaved documents schema with
    span order preserved (the per-row invariant)."""
    from unsupervised_ner_ray.pipelines.flagship import docs_dataset_synthetic
    from unsupervised_ner_ray.sources.io import read_documents_jsonl, write_jsonl

    docs = docs_dataset_synthetic(20, seed=11)
    before = docs.to_pandas().sort_values("doc_id").reset_index(drop=True)
    out = tmp_path / "docs_jsonl"
    write_jsonl(docs, str(out))
    after = (
        read_documents_jsonl(str(out))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert set(after.columns) == set(before.columns)
    assert len(before) == len(after)
    for a, b in zip(before["spans"], after["spans"]):
        sa = [(s["kind"], s["text"], s.get("media_ref"), s["offset"]) for s in a]
        sb = [(s["kind"], s["text"], s.get("media_ref"), s["offset"]) for s in b]
        assert sa == sb


def test_lance_routing_seam(monkeypatch, tmp_path):
    """The Lance/Parquet dispatch in read/write_documents: a ``.lance``
    path routes to Ray's lance reader/writer when pylance imports, and
    falls back to Parquet otherwise.  pylance is absent in this sandbox, so
    the lance arm is exercised with a stub module + patched rd hooks (the
    routing is the testable seam; Ray's own lance IO is upstream code)."""
    import sys
    import types

    import ray.data as rd

    from unsupervised_ner_ray.sources import io

    calls = {}
    monkeypatch.setitem(sys.modules, "lance", types.ModuleType("lance"))
    monkeypatch.setattr(
        rd, "read_lance", lambda path, **kw: calls.setdefault("read", path), raising=False
    )

    class _FakeDs:
        def write_lance(self, path, **kw):
            calls["write"] = path

        def write_parquet(self, path, **kw):
            calls["write_parquet"] = path

    io.read_documents("/tmp/x.lance")
    io.write_documents(_FakeDs(), "/tmp/y.lance")
    assert calls == {"read": "/tmp/x.lance", "write": "/tmp/y.lance"}

    # non-.lance path ignores the lance module entirely
    io.write_documents(_FakeDs(), str(tmp_path / "plain_dir"))
    assert calls["write_parquet"] == str(tmp_path / "plain_dir")

    # without pylance, a .lance suffix falls back to Parquet (format-agnostic
    # logical schema) rather than erroring
    monkeypatch.delitem(sys.modules, "lance")
    import builtins

    real_import = builtins.__import__

    def _no_lance(name, *a, **k):
        if name == "lance":
            raise ImportError("no pylance")
        return real_import(name, *a, **k)

    monkeypatch.setattr(builtins, "__import__", _no_lance)
    io.write_documents(_FakeDs(), "/tmp/z.lance")
    assert calls["write_parquet"] == "/tmp/z.lance"
