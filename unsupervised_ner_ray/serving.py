"""HTTP serving layer — the reference's last entry point, ported.

The reference exposes NER over stdlib ``http.server`` GETs whose path is
``/<api-name>/<url-quoted sentence>`` (batched_p3_server.py:12-50 routes to
BatchedNerServer.handler:23-46; the ensemble variant
ensemble/p3_server_json.py + EnsembleServer_json.py:21-40 answers with
``json.dumps(out, indent=5)`` and Content-type ``text/plain``).  This module
reproduces that wire contract on top of the engine's own tagging core:

* ``GET /dummy/<sentence>``    -> single-model D13 JSON — byte-identical to
  ``json.dumps(functions.tagger.tag_sentence(...)['result'], indent=5)``
  (the shape EnsembleServer_json writes per model; "dummy" is the
  reference's API-name segment, stripped exactly as the reference strips it).
* ``GET /ensemble/<sentence>`` -> two-model ensemble dict
  (functions/ensemble.ensemble_processing output) as ``indent=5`` JSON.
* ``GET /favicon.ico``         -> 200 with no body (reference skip path,
  batched_p3_server.py:25-27).
* anything else                -> ``"0"`` like the reference's empty-result
  branch (BatchedNerServer.py:42-43).

Serving state is one in-process :class:`~.stages.ner.NerTagger` built once
at server start — the same backends/emap/POS state each tagging worker
process builds once in ``NerTagger.__init__`` — so a served response is byte-identical to what the
batch pipeline computes for the same sentence (pinned by
tests/test_serving.py).  For a real deployment this handler would sit
behind a pool of replicas (Ray Serve's deployment shape); the sandbox has no
Serve dependency, so the smoke uses the threaded stdlib server the
reference itself uses.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .config import PipelineConfig
from .functions.tagger import tag_sentence
from .stages.ner import NerTagger


class NerService:
    """Tagging state + the path -> JSON-string mapping, HTTP-free.

    Separated from the handler so tests can pin response bytes without a
    socket, and so the same object could back a Ray Serve deployment.
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.tagger = NerTagger(config or PipelineConfig())

    def single_model_json(self, sentence: str) -> str:
        """D13 result for model 0 — the per-model dict the reference's JSON
        ensemble fetches from each model server (EnsembleServer_json)."""
        t = self.tagger
        out = tag_sentence(
            sentence,
            t.backends[0],
            t.emap,
            t.config.suppress_untagged,
            t.config.common_descs,
            t.config.aggregation_variant,
            pos_backend=t.pos_backend,
        )["result"]
        return json.dumps(out, indent=5)

    def ensemble_json(self, sentence: str) -> str:
        """Two-model ensembled dict (aggregate_server_json fetch_all shape)."""
        return json.dumps(self.tagger.tag_text(sentence)["ensembled"], indent=5)

    def respond(self, path: str) -> str:
        """Reference path contract: strip the leading '/', drop the first
        segment (the API name), unquote the rest as the sentence
        (EnsembleServer_json.py:26-30)."""
        param = path[1:]
        api = param.split("/")[0]
        sentence = urllib.parse.unquote("/".join(param.split("/")[1:]))
        if not sentence:
            return "0"
        if api == "ensemble":
            return self.ensemble_json(sentence)
        # every other API name serves the single-model result — the
        # reference runs one server process per model behind fixed ports,
        # differing only in config; "dummy" is the documented name
        return self.single_model_json(sentence)


class _Handler(BaseHTTPRequestHandler):
    service: NerService  # set by make_server

    def do_HEAD(self):  # noqa: N802 (stdlib casing)
        self.send_response(200)
        self.send_header("Content-type", "text/plain")
        self.end_headers()

    def do_GET(self):  # noqa: N802
        if self.path == "/favicon.ico":
            self.send_response(200)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-type", "text/plain")
        self.end_headers()
        out = self.service.respond(self.path)
        self.wfile.write(out.encode() if out else b"0")

    def log_message(self, fmt, *args):  # quiet: no stderr chatter per GET
        pass


def make_server(
    port: int = 0, config: PipelineConfig | None = None
) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server (port 0 = ephemeral) sharing ONE
    NerService across request threads; NerTagger.tag_text's LRU makes
    repeat sentences O(1) like the reference's singleton."""
    service = NerService(config)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


def serve_forever(port: int, config: PipelineConfig | None = None) -> None:
    httpd = make_server(port, config)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
