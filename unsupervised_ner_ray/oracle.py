"""Single-process conformance oracle (SURVEY.md §5).

Runs the reference-shaped sequential flow — one sentence at a time, exactly
like run_test (/root/reference/batched_main_NER.py:800-811) driving
tag_sentence + the ensemble — over a corpus table, using the same pure
functions as the Ray stages.  The Ray pipeline's outputs must match this
oracle row for row (span-sequence equality; sentence-level tags; triple
P/R >= 0.95 per BASELINE.json).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .assets import build_entity_map
from .backends import default_backends
from .config import DEFAULT_CONFIG, PipelineConfig
from .functions.kg import entity_id, extract_triples, normalize_surface
from .functions.tagger import ensemble_tag_sentence, pos_backend_for


def oracle_tag_corpus(
    documents: pa.Table, config: PipelineConfig = DEFAULT_CONFIG
) -> dict[str, pd.DataFrame]:
    """Sequentially tag every text span of every document.

    Returns {"tags": df(doc_id, span_idx, tokens, tags),
             "triples": df(doc_id, span_idx, subj, subj_type, pred, obj,
                           obj_type, subj_id, obj_id)}.
    """
    emap = build_entity_map()
    backends = default_backends(config.top_k_descs, config.scorer_backend)
    pos_backend = pos_backend_for(config.pos_backend)
    tag_rows = []
    triple_rows = []
    for row in documents.to_pylist():
        doc_id = row["doc_id"]
        for span_idx, span in enumerate(row["spans"]):
            if span["kind"] != "text":
                continue
            # blank lines skipped at the source (batched_main_NER.py:806)
            if not span["text"] or not span["text"].strip():
                continue
            res = ensemble_tag_sentence(
                span["text"], backends, emap,
                config.suppress_untagged, config.common_descs,
                aggregation_variant=config.aggregation_variant,
                pos_backend=pos_backend,
            )
            tag_rows.append(
                {
                    "doc_id": doc_id,
                    "span_idx": span_idx,
                    "tokens": res["tokens"],
                    "tags": res["ensembled_tags"],
                }
            )
            for t in extract_triples(
                res["tokens"], res["ensembled_tags"], config.max_predicate_tokens
            ):
                subj_n = normalize_surface(t["subj"])
                obj_n = normalize_surface(t["obj"])
                triple_rows.append(
                    {
                        "doc_id": doc_id,
                        "span_idx": span_idx,
                        **t,
                        "subj_id": entity_id(subj_n),
                        "obj_id": entity_id(obj_n),
                    }
                )
    return {
        "tags": pd.DataFrame(tag_rows),
        "triples": pd.DataFrame(triple_rows),
    }


def triple_prf(
    engine: pd.DataFrame, golden: pd.DataFrame
) -> dict[str, float]:
    """Precision/recall/F1 of engine triples vs the oracle's, on the
    (doc_id, span_idx, subj, pred, obj) key set."""
    key_cols = ["doc_id", "span_idx", "subj", "pred", "obj"]
    e = set(map(tuple, engine[key_cols].itertuples(index=False))) if len(engine) else set()
    g = set(map(tuple, golden[key_cols].itertuples(index=False))) if len(golden) else set()
    tp = len(e & g)
    p = tp / len(e) if e else 1.0
    r = tp / len(g) if g else 1.0
    f1 = 2 * p * r / (p + r) if (p + r) else 0.0
    return {"precision": p, "recall": r, "f1": f1, "engine": len(e), "golden": len(g)}
