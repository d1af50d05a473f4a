"""Pipeline configuration (engine counterpart of the reference config.json +
ensemble/config.json; loader semantics /root/reference/config_utils.py:11-19).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PipelineConfig:
    # reference config.json:6 SUPPRESS_UNTAGGED="1"
    suppress_untagged: bool = True
    # top-k descriptors per masked position (reference DUMMY_DESCS,
    # main_NER.py:20, and the descriptor service's typical k)
    top_k_descs: int = 10
    # stoplist (reference COMMON_DESCS_FILE untagged_terms.txt — empty)
    common_descs: frozenset[str] = frozenset()
    # "softmax" = batched reference math (batched_main_NER.py:602-657);
    # "v1" = fraction-of-sum weighting (main_NER.py:541-590)
    aggregation_variant: str = "softmax"
    # KG construction
    max_predicate_tokens: int = 5
    canon_salt_buckets: int = 16
    # largest tagging batch (documents); tag_documents takes the per-CPU
    # share of the input's rows when that is smaller
    tagger_batch_size: int = 256
    # descriptor-scorer backend: "mock" (hash mock — fastest, the default
    # benchmark path), "fixture_mlm" (real numpy masked-LM forward: the
    # production backend's exact batched/top-k/signature code shape,
    # backends.FixtureMLMBackend), or "hf" (torch, explicit construction)
    scorer_backend: str = "mock"
    # POS backend for unmarked sentences: "heuristic" (closed-class
    # POS-lite, zero setup) or "perceptron" (averaged-perceptron tagger
    # trained once per tagger from the in-package fixture — better span
    # precision on plain prose; functions/pos_perceptron.py)
    pos_backend: str = "heuristic"
    # per-tagger LRU over tag_text results, emptied at the start of each
    # tag_documents call: tagging is a pure function of the sentence text,
    # and web-scale corpora repeat boilerplate sentences heavily — a hit
    # skips the full mask/score/ensemble pipeline.  Entries are ~1 KB;
    # 0 disables.
    sentence_cache_size: int = 65536


DEFAULT_CONFIG = PipelineConfig()
