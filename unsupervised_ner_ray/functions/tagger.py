"""Sentence-level tagging core: mask -> score -> aggregate -> pool -> emit.

Pure per-sentence composition of the reference pipeline
(/root/reference/batched_main_NER.py tag_sentence flow :258-325 with
find_ci_entities :376-393 and find_cs_entities :417-454), plus the two-model
ensemble wrapper (ensemble/aggregate_server_json.py:398-411).

Everything here is row-local — it is called from inside ``map_batches``
wrappers (stages/ner.py) and from the single-process conformance oracle
(oracle.py), guaranteeing both paths share one implementation of the math.
"""

from __future__ import annotations

from ..assets import SERVERS_CONFIG
from . import aggregation as agg
from . import emission, masking
from .ensemble import ensemble_processing


def pos_backend_for(name: str):
    """``PipelineConfig.pos_backend`` -> the ``pos_backend`` callable of
    :func:`tag_sentence`: ``None`` for "heuristic" (``detect_terms`` falls
    back to POS-lite), the trained averaged perceptron for "perceptron"."""
    if name == "perceptron":
        from .pos_perceptron import perceptron_pos_terms

        return perceptron_pos_terms
    if name == "heuristic":
        return None
    raise ValueError(f"unknown pos_backend {name!r}")


def tag_sentence(
    text: str,
    backend,
    emap: dict[str, str],
    suppress_untagged: bool = True,
    common_descs: frozenset[str] = frozenset(),
    aggregation_variant: str = "softmax",
    pos_backend=None,
) -> dict:
    """Tag one sentence with one model.

    Mention detection follows the reference's mode switch
    (main_NER.py:225-230): ``:__entity__``-marked sentences use the marker
    parser; plain sentences fall back to ``pos_backend`` (default: the
    deterministic POS-lite heuristic) so unmarked corpora tag end-to-end.

    Returns a dict with tokens, span_arr, phrases, per-span detail, BIO tags
    and the service-shaped ``result`` (functions/emission.build_model_result)
    consumed by the ensemble.
    """
    terms = masking.detect_terms(text, pos_backend)
    masked_sent_arr, span_arr = masking.generate_masked_sentences(terms)
    masked_sent_arr, span_arr = masking.filter_common_noun_spans(
        span_arr, masked_sent_arr, terms, common_descs
    )
    tokens = [w for w, _ in terms]
    phrases = masking.span_phrases(terms, span_arr)
    ci_sents = masking.gen_ci_sentences(terms, span_arr)
    is_blank = masking.is_blank_entity_sentence(text)

    detected: list[str] = []
    pooled_per_span: list[dict] = []
    orig_cs_per_span: list[list[dict]] = []
    orig_ci_per_span: list[list[dict]] = []
    ci_descs_per_span: list[list[dict]] = []
    cs_descs_per_span: list[list[dict]] = []

    # aggregation variant: "softmax" = batched reference math
    # (batched_main_NER.py:602-657), "v1" = fraction-of-sum weighting
    # (main_NER.py:541-590)
    agg_fn = (
        agg.aggregate_entities_v1 if aggregation_variant == "v1"
        else agg.aggregate_entities
    )
    # ALL of this sentence's masked copies (ci + cs per span) go to the
    # backend in one predict_batch call, the reference's batched-service
    # shape (batched_main_NER.py:264-269).  Model backends run one padded
    # forward pass over the copies whose encoding holds a mask token (the
    # cs copies; a ci copy has none) and read logits only at the mask
    # position.  A sentence with no masked spans makes no call, so no
    # empty forward pass runs.
    batched: list[list[dict]] = []
    if masked_sent_arr:
        sents, phs, modes = [], [], []
        for i, masked in enumerate(masked_sent_arr):
            sents += [ci_sents[i], " ".join(masked)]
            phs += [phrases[i], phrases[i]]
            modes += ["ci", "cs"]
        batched = backend.predict_batch(sents, phs, modes)
    for i in range(len(masked_sent_arr)):
        ci_descs = batched[2 * i]
        cs_descs = batched[2 * i + 1]
        ci_agg = agg_fn(ci_descs, emap, suppress_untagged)
        if len(cs_descs) > 0:
            cs_agg = agg_fn(cs_descs, emap, suppress_untagged)
        else:
            cs_agg = ([], [], {})
        pooled = agg.pool_confidences(ci_agg, cs_agg, is_blank)
        detected.append(agg.fill_detected_entities(pooled))
        pooled_per_span.append(pooled)
        orig_cs_per_span.append(agg.pack_confidences(cs_agg[0], cs_agg[1]))
        orig_ci_per_span.append(agg.pack_confidences(ci_agg[0], ci_agg[1]))
        ci_descs_per_span.append(ci_descs)
        cs_descs_per_span.append(cs_descs)

    tags = emission.emit_bio(tokens, span_arr, detected)
    result = emission.build_model_result(
        tags, detected, pooled_per_span, orig_cs_per_span, orig_ci_per_span,
        cs_descs_per_span, ci_descs_per_span,
    )
    return {
        "tokens": tokens,
        "span_arr": span_arr,
        "phrases": phrases,
        "detected": detected,
        "tags": tags,
        "result": result,
    }


def ensemble_tag_sentence(
    text: str,
    backends: list,
    emap: dict[str, str],
    suppress_untagged: bool = True,
    common_descs: frozenset[str] = frozenset(),
    servers_config: list[dict] = SERVERS_CONFIG,
    aggregation_variant: str = "softmax",
    pos_backend=None,
) -> dict:
    """Tag one sentence with both models and resolve conflicts.

    Mirrors the ensemble service flow (one fetch per model then
    ensemble_processing, aggregate_server_json.py:48-74) without the HTTP hop.
    Returns tokens, per-model tags, the ensembled per-token tag list (ordered
    by position), and the inferred-entity harvest pairs.
    """
    per_model = [
        tag_sentence(
            text, b, emap, suppress_untagged, common_descs,
            aggregation_variant, pos_backend,
        )
        for b in backends
    ]
    results = [m["result"] for m in per_model]
    ens = ensemble_processing(results, servers_config)
    tokens = per_model[0]["tokens"]
    n = len(ens["ensembled_ner"])
    ensembled_tags = [
        ens["ensembled_ner"][str(i + 1)]["e"] for i in range(n)
    ]
    return {
        "tokens": tokens,
        "span_arr": per_model[0]["span_arr"],
        "per_model": per_model,
        "ensembled": ens,
        "ensembled_tags": ensembled_tags,
        "inferred_entities": ens["inferred_entities"],
        "harvest": results[0].get("harvest", []),
    }
