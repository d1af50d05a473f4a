"""Row-level poison-pill capture: a failing sentence quarantines, the job
and the rest of the document survive."""

import pyarrow as pa
import pytest


class _BoomBackend:
    name = "bio"

    def predict(self, masked_sentence, phrase, mode):
        if "boom" in masked_sentence.lower() or "boom" in phrase.lower():
            raise RuntimeError("synthetic backend failure")
        return [
            {"desc": "imatinib", "v": 0.5, "e": "DRUG", "e_count": "3"}
            for _ in range(3)
        ]

    def predict_batch(self, masked_sentences, phrases, modes):
        return [
            self.predict(s, p, m)
            for s, p, m in zip(masked_sentences, phrases, modes)
        ]


def test_quarantine_captures_bad_rows(ray_session):
    import ray.data as rd

    from unsupervised_ner_ray.config import PipelineConfig
    from unsupervised_ner_ray.stages.ner import NerTagger

    span_t = pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.large_string()),
            ("media_ref", pa.string()),
            ("offset", pa.int32()),
        ]
    )
    table = pa.table(
        {
            "doc_id": pa.array(["d0"], pa.string()),
            "spans": pa.array(
                [
                    [
                        {"kind": "text", "text": "good:__entity__ sentence", "media_ref": "", "offset": 0},
                        {"kind": "text", "text": "boom:__entity__ here", "media_ref": "", "offset": 2},
                    ]
                ],
                pa.list_(span_t),
            ),
        }
    )
    tagger = NerTagger(PipelineConfig())
    tagger.backends = [_BoomBackend(), _BoomBackend()]
    out = tagger(table)
    row = out.to_pylist()[0]
    # the good sentence tagged, the bad one quarantined, spans untouched
    assert len(row["ner"]) == 1 and row["ner"][0]["span_idx"] == 0
    assert len(row["quarantine"]) == 1
    assert row["quarantine"][0]["span_idx"] == 1
    assert "RuntimeError" in row["quarantine"][0]["error"]
    assert len(row["spans"]) == 2


def test_sentence_cache_is_transparent():
    """Cache on vs off produce byte-identical output on a batch with heavy
    sentence repetition, and repeats actually hit the cache."""
    import pyarrow as pa

    from unsupervised_ner_ray.config import PipelineConfig
    from unsupervised_ner_ray.stages.ner import NerTagger

    span_t = pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.large_string()),
            ("media_ref", pa.string()),
            ("offset", pa.int32()),
        ]
    )
    sents = [
        "Imatinib:__entity__ is a drug",
        "cats and dogs are pets",  # unmarked -> POS fallback path
        "Imatinib:__entity__ is a drug",  # repeat
    ]
    table = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(6)], pa.string()),
            "spans": pa.array(
                [
                    [{"kind": "text", "text": sents[i % 3], "media_ref": "", "offset": 0}]
                    for i in range(6)
                ],
                pa.list_(span_t),
            ),
        }
    )
    cold = NerTagger(PipelineConfig(sentence_cache_size=0))(table)
    warm_tagger = NerTagger(PipelineConfig(sentence_cache_size=100))
    warm = warm_tagger(table)
    assert cold.equals(warm)
    # 6 spans but only 2 distinct sentences -> 2 cache entries, hits occurred
    assert len(warm_tagger._cache) == 2
