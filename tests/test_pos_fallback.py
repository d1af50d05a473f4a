"""Unmarked-text tagging via the POS-lite fallback (reference mode switch
main_NER.py:225-230: marker parsing when ``:__entity__`` is present, POS
detection otherwise) and the HF backend seam."""

import pytest

from unsupervised_ner_ray.functions import masking

# the reference's own plain-sentence batch file (/root/reference/sample_test.txt)
SAMPLE_TEST_SENTENCES = [
    "The myocardial infarction is routinely diagnosed by ECG",
    "Her hypohysitis secondary to ipilimumab was well managed with supplemental hormones",
    "She suffered from acute arthritis",
    "cats and dogs are pets",
    "Ajit Rajasekharan is an engineer",
    "engineer",
    "they flew from Boston to Rio De Janiro and had a mocha",
    "Imatinib mesylate is a drug and is used to treat nsclc",
]


def test_detect_terms_marker_switch():
    marked = "Imatinib:__entity__ is a drug"
    terms = masking.detect_terms(marked)
    assert terms[0] == ("Imatinib", masking.NOUN_TAGS[0])
    assert terms[1] == ("is", masking.RESET_POS_TAG)
    # unmarked -> heuristic path, function words RESET, content words nouned
    terms2 = masking.detect_terms("cats and dogs are pets")
    assert [t for _, t in terms2] == ["NN", "RESET", "NN", "RESET", "NN"]


def test_heuristic_pos_numbers_and_punct():
    terms = masking.heuristic_pos_terms("eGFR below 60 , really !")
    assert dict(terms)["60"] == "CD"
    assert dict(terms)[","] == masking.RESET_POS_TAG
    assert dict(terms)["!"] == masking.RESET_POS_TAG
    assert dict(terms)["eGFR"] == "NN"


def test_unmarked_sentences_tag_end_to_end():
    """Golden: every reference sample_test.txt sentence produces aligned
    tokens/tags and the expected span phrases under the POS-lite heuristic."""
    from unsupervised_ner_ray.assets import build_entity_map
    from unsupervised_ner_ray.backends import default_backends
    from unsupervised_ner_ray.functions.tagger import ensemble_tag_sentence

    emap = build_entity_map()
    backends = default_backends()

    expected_spans = {
        # content-word runs under the closed-class heuristic (pinned)
        "cats and dogs are pets": ["cats", "dogs", "pets"],
        "engineer": ["engineer"],
        "She suffered from acute arthritis": ["suffered", "acute arthritis"],
        "Ajit Rajasekharan is an engineer": ["Ajit Rajasekharan", "engineer"],
    }
    for sent in SAMPLE_TEST_SENTENCES:
        res = ensemble_tag_sentence(sent, backends, emap)
        assert len(res["tokens"]) == len(sent.split())
        assert len(res["ensembled_tags"]) == len(res["tokens"])
        # spans exist for every sentence with content words
        assert sum(res["span_arr"]) > 0
        phrases = masking.span_phrases(
            [(w, "NN") for w in res["tokens"]], res["span_arr"]
        )
        if sent in expected_spans:
            assert phrases == expected_spans[sent], (sent, phrases)
        # at least one span got a non-O ensembled tag
        assert any(t != "O" for t in res["ensembled_tags"]), (sent, res["ensembled_tags"])


def test_marked_sentences_unchanged_by_fallback():
    """The fallback must not disturb the marker path: a marked sentence tags
    identically whether or not a pos_backend is supplied."""
    from unsupervised_ner_ray.assets import build_entity_map
    from unsupervised_ner_ray.backends import default_backends
    from unsupervised_ner_ray.functions.tagger import ensemble_tag_sentence

    emap = build_entity_map()
    backends = default_backends()
    sent = "Imatinib:__entity__ mesylate:__entity__ is a drug and is used to treat nsclc:__entity__"
    a = ensemble_tag_sentence(sent, backends, emap)
    b = ensemble_tag_sentence(sent, backends, emap, pos_backend=masking.heuristic_pos_terms)
    assert a["ensembled_tags"] == b["ensembled_tags"]
    assert a["tokens"] == b["tokens"]


def test_hf_backend_gated_without_torch():
    """Without torch the HF backend must fail fast with NotImplementedError
    (the mock path is the tested one in this sandbox)."""
    try:
        import torch  # noqa: F401

        pytest.skip("torch present; the real-backend test below covers this")
    except ImportError:
        pass
    from unsupervised_ner_ray.backends import HFDescriptorBackend

    with pytest.raises(NotImplementedError):
        HFDescriptorBackend("bio", "bert-base-cased")


def test_hf_backend_predicts_with_torch():
    """Real-model smoke (runs only where torch+transformers are installed):
    descriptors come back ordered, scored, and signature-annotated."""
    pytest.importorskip("torch")
    pytest.importorskip("transformers")
    from unsupervised_ner_ray.backends import HFDescriptorBackend

    be = HFDescriptorBackend("bio", "bert-base-cased", top_k=5)
    descs = be.predict("Imatinib is a __entity__", "drug", "cs")
    assert len(descs) == 5
    assert all(set(d) == {"desc", "v", "e", "e_count"} for d in descs)
    vs = [d["v"] for d in descs]
    assert vs == sorted(vs, reverse=True)


def test_perceptron_pos_backend_spans_and_parity():
    """The trained averaged-perceptron backend: (1) marked text bypasses it
    entirely (parity with the no-backend path); (2) on plain prose it
    splits verb-separated entity spans the closed-class heuristic glues
    together; (3) deterministic across processes (fixed training order)."""
    from unsupervised_ner_ray.functions.pos_perceptron import (
        AveragedPerceptronPOS,
        _parse_train,
        perceptron_pos_terms,
    )

    marked = "Imatinib:__entity__ treats cancer:__entity__"
    assert masking.detect_terms(marked, perceptron_pos_terms) == masking.detect_terms(
        marked
    )

    # unseen sentence, unseen verb: heuristic NN-tags 'treats' -> ONE glued
    # span; the model's VBZ splits subject from object
    sent = "Imatinib mesylate treats chronic leukemia"
    model_terms = masking.detect_terms(sent, perceptron_pos_terms)
    heur_terms = masking.detect_terms(sent)
    m_sents, _ = masking.generate_masked_sentences(model_terms)
    h_sents, _ = masking.generate_masked_sentences(heur_terms)
    assert len(h_sents) == 1  # the heuristic failure mode being fixed
    assert len(m_sents) == 2
    assert dict(model_terms)["treats"] == "VBZ"

    # determinism: an independently trained model produces identical tags
    m2 = AveragedPerceptronPOS()
    m2.train(_parse_train())
    words = sent.split()
    assert m2.tag(words) == [t for _, t in model_terms]


def test_perceptron_vs_heuristic_on_sample_test():
    """Span-level P/R on the reference's sample_test.txt sentences against
    hand-gold entity spans (the BASELINE.md row).  The heuristic can only
    RESET closed-class words, so verbs/adverbs become junk candidate spans
    ('routinely diagnosed', 'used', 'treat nsclc') that feed the expensive
    MLM stage; the trained model must deliver strictly better span
    PRECISION at comparable F1."""
    from unsupervised_ner_ray.functions.pos_perceptron import perceptron_pos_terms

    gold = {
        SAMPLE_TEST_SENTENCES[0]: ["myocardial infarction", "ECG"],
        SAMPLE_TEST_SENTENCES[1]: [
            "hypohysitis",
            "ipilimumab",
            "supplemental hormones",
        ],
        SAMPLE_TEST_SENTENCES[2]: ["acute arthritis"],
        SAMPLE_TEST_SENTENCES[3]: ["cats", "dogs", "pets"],
        SAMPLE_TEST_SENTENCES[4]: ["Ajit Rajasekharan", "engineer"],
        SAMPLE_TEST_SENTENCES[5]: ["engineer"],
        SAMPLE_TEST_SENTENCES[6]: ["Boston", "Rio De Janiro", "mocha"],
        SAMPLE_TEST_SENTENCES[7]: ["Imatinib mesylate", "drug", "nsclc"],
    }

    def prf(backend):
        tp = fp = fn = 0
        for sent, g_spans in gold.items():
            terms = masking.detect_terms(sent, backend)
            _, span_arr = masking.generate_masked_sentences(terms)
            got = masking.span_phrases(terms, span_arr)
            remaining = list(g_spans)
            for p in got:
                if p in remaining:
                    tp += 1
                    remaining.remove(p)
                else:
                    fp += 1
            fn += len(remaining)
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        return precision, recall, 2 * precision * recall / (precision + recall)

    mp, mr, mf1 = prf(perceptron_pos_terms)
    hp, hr, hf1 = prf(None)
    assert mp > hp, (mp, hp)  # strictly better precision
    assert mf1 >= hf1 - 0.05, (mf1, hf1)  # no meaningful F1 cost


def test_perceptron_backend_through_tagger():
    """The backend plugs into the full tag_sentence flow (the seam the
    reference fills with jPTDP, main_NER.py:225-230)."""
    from unsupervised_ner_ray.assets import build_entity_map
    from unsupervised_ner_ray.backends import default_backends
    from unsupervised_ner_ray.functions.pos_perceptron import perceptron_pos_terms
    from unsupervised_ner_ray.functions.tagger import ensemble_tag_sentence

    res = ensemble_tag_sentence(
        "Imatinib mesylate treats chronic leukemia",
        default_backends(10),
        build_entity_map(),
        pos_backend=perceptron_pos_terms,
    )
    assert res["ensembled_tags"], res
    assert any(t.startswith("B_") for t in res["ensembled_tags"])
    # the model-split spans: subject and object tagged as separate entities
    assert sum(1 for t in res["ensembled_tags"] if t.startswith("B_")) >= 2


def test_perceptron_config_through_actor_stage(ray_session):
    """pos_backend='perceptron' flows through PipelineConfig into the
    NerTagger tagging tasks (model trained once per worker process in
    __init__); marked corpora produce byte-identical output to the default
    config, since markers bypass the POS backend."""
    from unsupervised_ner_ray.config import PipelineConfig
    from unsupervised_ner_ray.pipelines.flagship import (
        docs_dataset_synthetic,
        run_tagging,
    )

    docs = docs_dataset_synthetic(20, seed=6)
    base = run_tagging(
        docs, PipelineConfig()
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    perc = run_tagging(
        docs_dataset_synthetic(20, seed=6),
        PipelineConfig(pos_backend="perceptron"),
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # marked/pool corpus: POS backend never consulted -> identical tags
    for a, b in zip(base["ner"], perc["ner"]):
        assert [list(s["tags"]) for s in a] == [list(s["tags"]) for s in b]

    import pytest as _pytest

    with _pytest.raises(ValueError):
        from unsupervised_ner_ray.stages.ner import NerTagger

        NerTagger(PipelineConfig(pos_backend="nope"))


def test_oracle_honours_pos_backend():
    """The single-process oracle tags with the configured POS backend, like
    NerTagger: under pos_backend='perceptron' their tags agree sentence for
    sentence on unmarked text, where the perceptron changes some tags."""
    import pyarrow as pa

    from unsupervised_ner_ray.config import PipelineConfig
    from unsupervised_ner_ray.oracle import oracle_tag_corpus
    from unsupervised_ner_ray.stages.ner import NerTagger

    docs = pa.Table.from_pylist(
        [
            {
                "doc_id": f"d{i}",
                "spans": [{"kind": "text", "text": s, "media_ref": "", "offset": 0}],
            }
            for i, s in enumerate(SAMPLE_TEST_SENTENCES)
        ]
    )

    def tagger_tags(cfg):
        return [
            list(sent["tags"])
            for ner in NerTagger(cfg)(docs).column("ner").to_pylist()
            for sent in ner
        ]

    perc = PipelineConfig(pos_backend="perceptron")
    assert list(oracle_tag_corpus(docs, perc)["tags"]["tags"]) == tagger_tags(perc)
    assert tagger_tags(perc) != tagger_tags(PipelineConfig())
