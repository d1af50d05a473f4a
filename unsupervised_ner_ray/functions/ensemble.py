"""Two-model ensemble conflict resolution (pure functions, no Ray, no HTTP).

Faithful re-implementation of the reference ensemble semantics
(/root/reference/ensemble/aggregate_server_json.py):

* prefix_strip / strip_prefixes          — :461-477
* flip_category                          — :481-491
* extract_main_entity                    — :494-497
* get_span_info                          — :500-517
* is_included_in_server_entities         — :519-535
* get_predictions_above_threshold        — :204-228 (above-mean prefix of the
                                           reverse-sorted distribution)
* get_conflict_resolved_entity           — :77-108
* pick_single_server_if_possible         — :110-191 (only the live branch:
                                           the single-prediction counters are
                                           dead code in the reference — the
                                           increments at :126-128 are
                                           commented out — so control always
                                           reaches the "multiple predictions
                                           above mean" arm at :159-191)
* gen_resolved_entity                    — :236-328
* get_ensembled_entities / processing    — :351-411 (including the reference's
                                           ``second_server = 1`` quirk at
                                           :385 — preserved for parity)

Inputs are two per-sentence result dicts in the reference JSON service shape
(see functions/emission.build_model_result); ``servers_arr`` carries each
model's precedence/common lists (assets.SERVERS_CONFIG).
"""

from __future__ import annotations


def prefix_strip(term: str) -> tuple[str, str]:
    if term.startswith("B_") or term.startswith("I_"):
        return term[2:], term[:2]
    return term, ""


def strip_prefixes(term: str) -> str:
    parts = term.split("/")
    if len(parts) == 2:
        return prefix_strip(parts[0])[0] + "/" + prefix_strip(parts[1])[0]
    assert len(parts) == 1
    return prefix_strip(parts[0])[0]


def flip_category(obj: dict) -> dict:
    """Swap class and top subtype for display: ``B_GENE[PROTEIN]`` ->
    ``B_PROTEIN[GENE]`` (reference :481-491)."""
    new_obj = dict(obj)
    arr = obj["e"].split("[")
    if len(arr) > 1:
        term = arr[0]
        if term.startswith("B_") or term.startswith("I_"):
            new_obj["e"] = term[:2] + arr[1].rstrip("]") + "[" + term[2:] + "]"
        else:
            new_obj["e"] = arr[1].rstrip("]") + "[" + arr[0] + "]"
    return new_obj


def extract_main_entity(results: list[dict], server_index: int, pos_index: str) -> str:
    main = results[server_index]["ner"][pos_index]["e"].split("[")[0]
    return prefix_strip(main)[0]


def get_span_info(
    results: list[dict], server_index: int, term_index: int, terms_count: int
) -> int:
    """Length of the B_/I_ run starting at term_index; bare I_ counts as 1
    (reference :500-517)."""
    pos_index = str(term_index + 1)
    entity = results[server_index]["ner"][pos_index]["e"]
    span_count = 1
    if entity.startswith("I_"):
        return span_count
    if entity.startswith("B_"):
        term_index += 1
        while term_index < terms_count:
            entity = results[server_index]["ner"][str(term_index + 1)]["e"]
            if entity == "O":
                break
            span_count += 1
            term_index += 1
    return span_count


def is_included_in_server_entities(
    predictions: list[dict], s_arr: dict, check_first_only: bool = False
) -> bool:
    """All (or first) predicted base classes fall in the server's
    precedence+common lists (reference :519-526)."""
    for entity in predictions:
        e = entity["e"].split("[")[0]
        if e not in s_arr["precedence"] and e not in s_arr["common"]:
            return False
        if check_first_only:
            return True
    return True


def get_predictions_above_threshold(predictions: dict) -> list[dict]:
    """Prefix of the reverse-sorted distribution with confidence >= mean
    (= 1/len for a probability distribution) (reference :204-228)."""
    dist = predictions["cs_distribution"]
    ret = []
    mean_score = 1.0 / len(dist) if len(dist) != 0 else 0.0
    for node in dist:
        if node["confidence"] >= mean_score:
            ret.append({"e": node["e"], "conf": node["confidence"]})
        else:
            break
    if len(dist) > 0:
        assert len(ret) > 0
    return ret


def check_if_entity_in_arr(entity: str, arr: list[dict]) -> bool:
    return any(entity == node["e"] for node in arr)


def pick_top_server_prediction(predictions_dict: dict[int, list[dict]]) -> int:
    if len(predictions_dict) != 2:
        return 0
    return 0 if predictions_dict[0][0]["conf"] >= predictions_dict[1][0]["conf"] else 1


def pick_single_server_if_possible(
    results: list[dict], term_index: int, servers_arr: list[dict]
) -> tuple[int, int]:
    """Live branch of reference :110-191: compute above-mean predictions and
    cross-prediction flags per server from the ORIGINAL CS distributions;
    0 or 2 cross-predictors -> higher-confidence server + flag 2 (emit both),
    exactly 1 -> the non-cross-predicting server + flag -1."""
    pos_index = str(term_index + 1)
    predictions_dict: dict[int, list[dict]] = {}
    orig_cs_predictions_dict: dict[int, list[dict]] = {}
    for server_index in range(len(results)):
        if pos_index in results[server_index]["entity_distribution"]:
            predictions_dict[server_index] = get_predictions_above_threshold(
                results[server_index]["entity_distribution"][pos_index]
            )
            orig_cs_predictions_dict[server_index] = get_predictions_above_threshold(
                results[server_index]["orig_cs_prediction_details"][pos_index]
            )
    cross_predictions: dict[int, bool] = {}
    cross_prediction_count = 0
    for server_index in range(len(results)):
        if pos_index in results[server_index]["entity_distribution"]:
            is_included = is_included_in_server_entities(
                orig_cs_predictions_dict[server_index], servers_arr[server_index], False
            )
            cross_predictions[server_index] = not is_included
            cross_prediction_count += 1 if not is_included else 0
    if cross_prediction_count == 2:
        return pick_top_server_prediction(predictions_dict), 2
    elif cross_prediction_count == 0:
        return pick_top_server_prediction(predictions_dict), 2
    else:
        ret_index = 1 if (0 not in cross_predictions or cross_predictions[0] is True) else 0
        return ret_index, -1


def get_conflict_resolved_entity(
    results: list[dict], term_index: int, terms_count: int, servers_arr: list[dict]
) -> tuple[int, int, int]:
    """reference :77-108.  Returns (server_index, span_count,
    cross_prediction_count)."""
    pos_index = str(term_index + 1)
    s1_entity = extract_main_entity(results, 0, pos_index)
    s2_entity = extract_main_entity(results, 1, pos_index)
    span_count1 = get_span_info(results, 0, term_index, terms_count)
    span_count2 = get_span_info(results, 1, term_index, terms_count)
    if span_count1 != span_count2:
        span_count1 = min(span_count1, span_count2)
    if s1_entity == s2_entity:
        server_index = 0 if s1_entity in servers_arr[0]["precedence"] else 1
        return server_index, span_count1, -1
    if s2_entity == "O":
        return 0, span_count1, -1
    if s1_entity == "O":
        return 1, span_count2, -1
    picked, cross_count = pick_single_server_if_possible(results, term_index, servers_arr)
    return picked, span_count1, cross_count


def gen_resolved_entity(
    results: list[dict],
    server_index: int,
    pivot_index: str,
    run_index: str,
    cross_prediction_count: int,
    servers_arr: list[dict],
) -> dict:
    """reference :236-328 — emit the resolved (possibly composite ``A/B``)
    tag object for one token position."""
    if cross_prediction_count == 1 or cross_prediction_count == -1:
        if pivot_index in results[server_index]["orig_cs_prediction_details"]:
            ocs = results[server_index]["orig_cs_prediction_details"][pivot_index]
            oci = results[server_index]["orig_ci_prediction_details"][pivot_index]
            if len(ocs["cs_distribution"]) == 0:
                orig_cs_entity = oci["cs_distribution"][0]
            else:
                orig_cs_entity = ocs["cs_distribution"][0]
            orig_ci_entity = oci["cs_distribution"][0]
            m1 = orig_cs_entity["e"].split("[")[0]
            m1_ci = orig_ci_entity["e"].split("[")[0]
            is_ci_included = m1_ci in servers_arr[server_index]["precedence"]
            consolidated_entity = results[server_index]["ner"][pivot_index]
            m2, _ = prefix_strip(consolidated_entity["e"].split("[")[0])
            if m1 != m2:
                # consolidated != cs prediction: emit both
                ret_obj = dict(results[server_index]["ner"][run_index])
                _, prefix = prefix_strip(ret_obj["e"])
                n1 = flip_category(orig_cs_entity)
                n1["e"] = prefix + n1["e"]
                n2 = flip_category(consolidated_entity)
                ret_obj["e"] = n2["e"] + "/" + n1["e"]
                return ret_obj
            if m1 != m1_ci:
                if is_ci_included:
                    # emit both CS and CI
                    ret_obj = dict(results[server_index]["ner"][run_index])
                    _, prefix = prefix_strip(ret_obj["e"])
                    n1 = flip_category(orig_cs_entity)
                    n1["e"] = prefix + n1["e"]
                    n2 = flip_category(orig_ci_entity)
                    n2["e"] = prefix + n2["e"]
                    ret_obj["e"] = n1["e"] + "/" + n2["e"]
                    return ret_obj
                return _second_cs_or_consolidated(results, server_index, pivot_index, run_index, m1)
            return _second_cs_or_consolidated(results, server_index, pivot_index, run_index, m1)
        return flip_category(results[server_index]["ner"][run_index])
    # both servers disagree: emit picked server's tag then the other's
    ret_obj = dict(results[server_index]["ner"][run_index])
    index2 = 1 if server_index == 0 else 0
    n1 = flip_category(results[server_index]["ner"][run_index])
    n2 = flip_category(results[index2]["ner"][run_index])
    ret_obj["e"] = n1["e"] + "/" + n2["e"]
    return ret_obj


def _second_cs_or_consolidated(
    results: list[dict], server_index: int, pivot_index: str, run_index: str, m1: str
) -> dict:
    """Shared tail of gen_resolved_entity (:276-317): use the second CS
    prediction if it is above the mean threshold, else the consolidated tag.
    The reference disables the precedence check on the second CS (:281,:303).
    """
    ocs = results[server_index]["orig_cs_prediction_details"][pivot_index]
    if len(ocs["cs_distribution"]) >= 2:
        ret_arr = get_predictions_above_threshold(ocs)
        orig_cs_second_entity = ocs["cs_distribution"][1]
        m2_cs = orig_cs_second_entity["e"].split("[")[0]
        assert m2_cs != m1
        if check_if_entity_in_arr(m2_cs, ret_arr):
            orig_cs_entity = ocs["cs_distribution"][0]
            ret_obj = dict(results[server_index]["ner"][run_index])
            _, prefix = prefix_strip(ret_obj["e"])
            n1 = flip_category(orig_cs_second_entity)
            n1["e"] = prefix + n1["e"]
            n2 = flip_category(orig_cs_entity)
            n2["e"] = prefix + n2["e"]
            ret_obj["e"] = n2["e"] + "/" + n1["e"]
            return ret_obj
        return flip_category(results[server_index]["ner"][run_index])
    return flip_category(results[server_index]["ner"][run_index])


def confirm_same_size_responses(results: list[dict]) -> int:
    """Min ner length across servers; 0 if any response invalid
    (reference :331-348)."""
    count = 0
    for r in results:
        if "ner" not in r:
            return 0
        ner = r["ner"]
        if count == 0:
            assert len(ner) > 0
            count = len(ner)
        else:
            count = min(count, len(ner))
    return count


def get_ensembled_entities(
    results: list[dict], servers_arr: list[dict]
) -> dict:
    """Walk token positions, resolve per-span, assemble the 9 output maps
    (reference :351-394).  Also returns the inferred-entities harvest
    (term, resolved tag) pairs the reference appends to
    inferred_entities_log.txt (:390-391)."""
    ensembled_ner: dict[str, dict] = {}
    orig_cs_predictions: dict[str, dict] = {}
    orig_ci_predictions: dict[str, dict] = {}
    ensembled_conf: dict[str, dict] = {}
    ambig_ensembled_conf: dict[str, dict] = {}
    ensembled_ci: dict[str, dict] = {}
    ensembled_cs: dict[str, dict] = {}
    ambig_ensembled_ci: dict[str, dict] = {}
    ambig_ensembled_cs: dict[str, dict] = {}
    inferred: list[tuple[str, str]] = []
    terms_count = confirm_same_size_responses(results)
    out = {
        "ensembled_ner": ensembled_ner,
        "ensembled_prediction_details": ensembled_conf,
        "ci_prediction_details": ensembled_ci,
        "cs_prediction_details": ensembled_cs,
        "ambig_prediction_details_conf": ambig_ensembled_conf,
        "ambig_prediction_details_ci": ambig_ensembled_ci,
        "ambig_prediction_details_cs": ambig_ensembled_cs,
        "orig_cs_prediction_details": orig_cs_predictions,
        "orig_ci_prediction_details": orig_ci_predictions,
        "inferred_entities": inferred,
    }
    if terms_count == 0:
        return out
    assert len(servers_arr) == len(results) == 2
    term_index = 0
    while term_index < terms_count:
        server_index, span_count, cross_prediction_count = get_conflict_resolved_entity(
            results, term_index, terms_count, servers_arr
        )
        pivot_index = str(term_index + 1)
        for span_index in range(span_count):
            run_index = str(term_index + 1 + span_index)
            ensembled_ner[run_index] = gen_resolved_entity(
                results, server_index, pivot_index, run_index,
                cross_prediction_count, servers_arr,
            )
            if run_index in results[server_index]["entity_distribution"]:
                ensembled_conf[run_index] = dict(
                    results[server_index]["entity_distribution"][run_index]
                )
                ensembled_conf[run_index]["e"] = strip_prefixes(
                    ensembled_ner[run_index]["e"]
                )
                ensembled_ci[run_index] = results[server_index]["ci_prediction_details"][run_index]
                ensembled_cs[run_index] = results[server_index]["cs_prediction_details"][run_index]
                orig_cs_predictions[run_index] = results[server_index]["orig_cs_prediction_details"][run_index]
                orig_ci_predictions[run_index] = results[server_index]["orig_ci_prediction_details"][run_index]
                if cross_prediction_count == 0 or cross_prediction_count == 2:
                    # reference :385 picks index 1 in both arms; preserved.
                    second_server = 1 if server_index == 0 else 1
                    if run_index in results[second_server]["entity_distribution"]:
                        ambig_ensembled_conf[run_index] = dict(
                            results[second_server]["entity_distribution"][run_index]
                        )
                        ambig_ensembled_conf[run_index]["e"] = ensembled_ner[run_index]["e"]
                        ambig_ensembled_ci[run_index] = results[second_server]["ci_prediction_details"][run_index]
            if ensembled_ner[run_index]["e"] != "O":
                inferred.append(
                    (results[0]["ner"][run_index]["term"], ensembled_ner[run_index]["e"])
                )
        term_index += span_count
    return out


def ensemble_processing(results: list[dict], servers_arr: list[dict]) -> dict:
    """reference :398-411 — the full ensembled response for one sentence."""
    return get_ensembled_entities(results, servers_arr)
