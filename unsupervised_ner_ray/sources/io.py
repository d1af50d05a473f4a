"""Sources and sinks.

* ``read_documents``/``write_documents`` — Lance when pylance is available
  (the north_rule's storage format), Parquet with the identical logical
  schema otherwise (this sandbox has no pylance; the abstraction seam keeps
  call sites format-agnostic).
* ``write_conll`` — byte-exact reference CoNLL sink (``token TAG`` lines +
  blank separator, /root/reference/batched_main_NER.py:543-550) for
  conformance diffs.
* ``sf_path`` — helper for the driver-generated /root/testdata tables.
"""

from __future__ import annotations

import os

import ray.data as rd


def _have_lance() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def read_documents(path: str | list[str], **kwargs):
    """Read an interleaved-documents table (Lance dataset dir or Parquet);
    accepts a single path or a fragment list (checkpoint shards)."""
    if isinstance(path, str) and path.endswith(".lance") and _have_lance():
        return rd.read_lance(path, **kwargs)
    return rd.read_parquet(path, **kwargs)


def write_documents(ds, path: str, **kwargs):
    if path.endswith(".lance") and _have_lance():
        return ds.write_lance(path, **kwargs)
    return ds.write_parquet(path, **kwargs)


def read_documents_jsonl(path: str | list[str], **kwargs):
    """JSONL ingest for the documents schema (doc_id + spans list).  Ray's
    ``read_json`` streams files as Arrow blocks; nested span structs come in
    as list<struct> exactly like the Parquet/Lance path, so everything
    downstream is format-agnostic."""
    return rd.read_json(path, **kwargs)


def write_jsonl(ds, path: str, **kwargs):
    """Line-delimited JSON sink (one file per block — resumable like the
    Parquet layout; for interchange with line-oriented tools)."""
    return ds.write_json(path, **kwargs)


def sf_path(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def read_sf(sf_dir: str, table: str, columns: list[str] | None = None):
    """Column-pruned read of one /root/testdata table."""
    return rd.read_parquet(sf_path(sf_dir, table), columns=columns)


def unique_lines(path: str, out_path: str) -> int:
    """Exact line dedup preserving first-seen order (reference
    ensemble/pick_unique_lines.py:17-31).

    A build-time vocabulary utility: order sensitivity forces ordered,
    driver-side streaming consumption (iter_batches with preserve_order);
    the distributed order-insensitive variant is stages/dedup.exact_dedup.
    """
    import ray
    from ray.data import DataContext

    ds = rd.read_text(path)
    ctx = DataContext.get_current()
    prev = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    seen: dict[str, int] = {}
    try:
        for batch in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
            for line in batch.column("text").to_pylist():
                if line not in seen:
                    seen[line] = 1
    finally:
        ctx.execution_options.preserve_order = prev
    with open(out_path, "w") as fp:
        for line in seen:
            fp.write(line + "\n")
    return len(seen)


def explode_harvest(tagged_ds):
    """CI-label harvest side output as its own Dataset (term, label) —
    engine analog of algorthimic_ci_tags.txt
    (reference batched_main_NER.py:147-153)."""
    import pyarrow as pa

    def _f(batch: pa.Table) -> pa.Table:
        terms, labels, docs = [], [], []
        for doc_id, harvest in zip(
            batch.column("doc_id").to_pylist(), batch.column("harvest").to_pylist()
        ):
            for h in harvest or []:
                docs.append(doc_id)
                terms.append(h["term"])
                labels.append(h["label"])
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.string()),
                "term": pa.array(terms, pa.string()),
                "label": pa.array(labels, pa.string()),
            }
        )

    return tagged_ds.map_batches(_f, batch_format="pyarrow")


def write_conll(tagged_ds, path: str) -> None:
    """Render tagged docs to the reference's exact CoNLL byte format.

    Driver-side streaming consumption (iter_batches) — the output is a single
    ordered text file, which is inherently a serial sink; used only for
    small conformance dumps, sorted by (doc_id, span_idx).  Each sentence
    renders through ``emission.to_conll``, like the ``tag-file`` CLI.
    """
    from ..functions.emission import to_conll

    with open(path, "w") as fp:
        for batch in tagged_ds.sort("doc_id").iter_batches(
            batch_size=1024, batch_format="pyarrow"
        ):
            for ner in batch.column("ner").to_pylist():
                for sent in ner or []:
                    fp.write(to_conll(list(zip(sent["tokens"], sent["tags"]))))
