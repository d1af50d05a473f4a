"""unsupervised_ner_ray — a Ray-Data-native knowledge-graph construction engine.

A from-scratch re-expression of the query/data-processing capabilities of
ajitrajasekharan/unsupervised_NER (reference at /root/reference, studied for
semantics only) on top of ``ray.data.Dataset`` pipelines:

* masked-sentence mention detection (marker-driven, reference
  ensemble/utils/common.py:15-79 semantics),
* descriptor->entity-signature aggregation with CI/CS confidence pooling
  (reference batched_main_NER.py:165-233, 602-657),
* BIO tag emission (batched_main_NER.py:520-551),
* two-model ensemble conflict resolution
  (ensemble/aggregate_server_json.py:77-394),
* KG stages: triple extraction, entity linking, salted canonicalization,
  adjacency-list graph materialization,
* large-scale training-data operators: exact/MinHash/SimHash dedup,
  similarity search, language ID, quality scoring, token stats.

Everything runs as batch transforms over zero-copy Arrow blocks.  The
tagging and entity-linking stages are stateless tasks that build their model
state once per worker process; some operator stages (text statistics,
dedup, relational joins, media decode) are actor pools.  The only shuffles
are the documented groupbys in the KG/dedup stages.
"""

__version__ = "0.1.0"
