"""HTTP serving smoke — reference entry-point parity (batched_p3_server.py,
ensemble/p3_server_json.py).

Pins: (1) GET /dummy/<sentence> responds with BYTE-identical JSON to
``json.dumps(tag_sentence(...)['result'], indent=5)`` computed directly —
the D13 per-model wire shape the reference's JSON servers emit; (2) the
/ensemble endpoint matches ensemble_tag_sentence; (3) the reference's
path-mangling contract (API segment stripped, URL unquote, favicon skip,
empty -> "0").  No Ray session needed: serving state is the same
in-process NerTagger each tagging worker process builds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from collections import OrderedDict
import urllib.parse
import urllib.request

import pytest

from unsupervised_ner_ray.config import PipelineConfig
from unsupervised_ner_ray.corpus import SENTENCE_POOL
from unsupervised_ner_ray.functions.tagger import tag_sentence
from unsupervised_ner_ray.serving import NerService, make_server
from unsupervised_ner_ray.stages.ner import NerTagger


@pytest.fixture(scope="module")
def served():
    httpd = make_server(port=0)
    t = threading.Thread(target=httpd.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


def _get(base: str, path: str) -> bytes:
    with urllib.request.urlopen(base + path, timeout=30) as r:
        return r.read()


def test_dummy_endpoint_byte_parity(served):
    """Response bytes == json.dumps(build_model_result, indent=5) for every
    canned sentence (reference: one model server's JSON answer)."""
    ref = NerTagger(PipelineConfig())
    for sent in SENTENCE_POOL[:6]:
        expected = json.dumps(
            tag_sentence(
                sent,
                ref.backends[0],
                ref.emap,
                ref.config.suppress_untagged,
                ref.config.common_descs,
                ref.config.aggregation_variant,
                pos_backend=ref.pos_backend,
            )["result"],
            indent=5,
        ).encode()
        got = _get(served, "/dummy/" + urllib.parse.quote(sent))
        assert got == expected, sent


def test_ensemble_endpoint_parity(served):
    sent = SENTENCE_POOL[0]
    got = json.loads(_get(served, "/ensemble/" + urllib.parse.quote(sent)))
    expected = NerTagger(PipelineConfig()).tag_text(sent)["ensembled"]
    assert got == json.loads(json.dumps(expected))  # tuple->list normalize


def test_path_contract(served):
    # favicon skip path: 200, no body
    assert _get(served, "/favicon.ico") == b""
    # API name segment is stripped whatever it is; empty sentence -> "0"
    assert _get(served, "/dummy/") == b"0"
    # a sentence containing '/' survives: reference rejoins split('/')[1:]
    svc = NerService()
    assert svc.respond("/dummy/a%2Fb") == svc.single_model_json("a/b")


def test_dummy_result_is_d13_shaped(served):
    got = json.loads(
        _get(served, "/dummy/" + urllib.parse.quote(SENTENCE_POOL[1]))
    )
    for key in (
        "total_terms_count",
        "detected_entity_phrases_count",
        "ner",
        "entity_distribution",
        "cs_prediction_details",
        "ci_prediction_details",
        "orig_cs_prediction_details",
        "orig_ci_prediction_details",
    ):
        assert key in got
    assert got["detected_entity_phrases_count"] >= 1


def test_serving_fixture_mlm_backend():
    """The serve path also runs the REAL model code shape (numpy fixture
    MLM), not just the hash mock."""
    svc = NerService(PipelineConfig(scorer_backend="fixture_mlm"))
    out = json.loads(svc.single_model_json(SENTENCE_POOL[0]))
    assert out["detected_entity_phrases_count"] >= 1
    # repeat through the cache-backed ensemble path too
    ens = json.loads(svc.ensemble_json(SENTENCE_POOL[0]))
    assert "ensembled_ner" in ens


class _EvictOnGet(OrderedDict):
    """A sentence cache whose ``get`` is followed at once by another request
    thread evicting the same key — the interleaving that reaches the hit
    path's ``move_to_end`` with the key already gone."""

    def get(self, key, default=None):
        hit = super().get(key, default)
        self.pop(key, None)
        return hit


def test_tag_text_hit_survives_concurrent_eviction():
    tagger = NerTagger(PipelineConfig())
    sent = "Aspirin treats pain ."
    first = tagger.tag_text(sent)
    tagger._cache = _EvictOnGet(tagger._cache)
    assert tagger.tag_text(sent) is first


def test_serving_import_does_not_load_pyarrow():
    """The server builds no Arrow table, so importing it leaves pyarrow
    unloaded (it costs start-up time)."""
    code = "import sys, unsupervised_ner_ray.serving; print('pyarrow' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
