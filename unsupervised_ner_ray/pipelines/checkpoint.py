"""Checkpointed, resumable pipeline runs with per-partition lineage + metrics.

The reference has no checkpointing (crash = rerun the whole file,
/root/reference/batched_main_NER.py:800-811); the north_rule requires a
killed ``ray job submit`` run to resume mid-extraction.  Design:

* The input is split into ``num_shards`` coarse shards by a stable hash of
  ``doc_id`` (at 100 TB: one shard per input directory / key range).
* Each shard runs the full streaming pipeline and writes to
  ``out/<table>/shard=NNNN/`` — written ATOMICALLY: to a ``.tmp-`` dir first,
  renamed on success.
* After a shard commits, one JSON line is appended to ``out/_manifest.jsonl``
  with lineage (shard id, input fingerprint, row counts per output table,
  wall seconds, engine version).  Writing the line's newline is the commit
  point: a torn last line (a kill during the append) is ignored, and its
  shard re-runs.
* Resume = read the manifest, skip completed shards.  A killed run leaves at
  most one ``.tmp-`` dir, which is removed on restart.  A resume refuses to
  run under another input fingerprint (input path, ``num_shards``, and the
  Parquet file names of a directory input): its shards would hold other
  documents than the committed ones.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib


def shard_of(doc_id: str, num_shards: int) -> int:
    return zlib.crc32(str(doc_id).encode()) % num_shards


def input_files(input_path: str) -> list[str] | None:
    """Sorted Parquet file names of a directory input; None for a file."""
    if os.path.isdir(input_path):
        return sorted(f for f in os.listdir(input_path) if f.endswith(".parquet"))
    return None


def load_manifest(out_dir: str) -> dict[int, dict]:
    """shard -> its manifest record.  A last line without its newline is
    torn (a kill during ``append_manifest``) and is ignored."""
    path = os.path.join(out_dir, "_manifest.jsonl")
    done: dict[int, dict] = {}
    if os.path.exists(path):
        with open(path) as fp:
            lines = fp.read().split("\n")[:-1]  # [:-1]: the torn tail, or ""
        for line in lines:
            if line.strip():
                rec = json.loads(line)
                done[rec["shard"]] = rec
    return done


def append_manifest(out_dir: str, record: dict) -> None:
    path = os.path.join(out_dir, "_manifest.jsonl")
    with open(path, "a+b") as fp:
        # cut a torn last line, so this record starts a line of its own
        fp.seek(0)
        fp.truncate(fp.read().rfind(b"\n") + 1)
        fp.write((json.dumps(record, sort_keys=True) + "\n").encode())
        fp.flush()
        os.fsync(fp.fileno())


def clean_tmp_dirs(out_dir: str) -> None:
    for root, dirs, _ in os.walk(out_dir):
        for d in list(dirs):
            if d.startswith(".tmp-"):
                shutil.rmtree(os.path.join(root, d), ignore_errors=True)
                dirs.remove(d)


def atomic_write_parquet(ds, final_dir: str) -> int:
    """Write a Dataset to ``final_dir`` atomically; returns row count."""
    parent = os.path.dirname(final_dir)
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, ".tmp-" + os.path.basename(final_dir))
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp)
    # row count read back cheaply from parquet footers
    import pyarrow.parquet as pq

    n = sum(
        pq.read_metadata(os.path.join(tmp, f)).num_rows
        for f in os.listdir(tmp)
        if f.endswith(".parquet")
    )
    shutil.rmtree(final_dir, ignore_errors=True)
    os.replace(tmp, final_dir)
    return n


def run_checkpointed(
    input_path: str,
    out_dir: str,
    run_shard_fn,
    num_shards: int = 16,
    version: str = "0.1.0",
) -> dict:
    """Run ``run_shard_fn(input_path, shard, num_shards) -> {table: Dataset}``
    per shard, skipping shards already in the manifest.  Raises ValueError
    when the manifest was written under another input fingerprint.

    Returns {"completed": [...], "skipped": [...], "seconds": total}.
    """
    os.makedirs(out_dir, exist_ok=True)
    fingerprint = {
        "input": input_path,
        "num_shards": num_shards,
        "input_files": input_files(input_path),
    }
    done = load_manifest(out_dir)
    for rec in done.values():
        recorded = {k: rec.get(k) for k in fingerprint}
        if recorded != fingerprint:
            raise ValueError(
                f"{out_dir} holds shards of another input: its manifest has "
                f"{recorded}, this run has {fingerprint}"
            )
    clean_tmp_dirs(out_dir)
    completed, skipped = [], []
    t_start = time.time()
    for shard in range(num_shards):
        if shard in done:
            skipped.append(shard)
            continue
        t0 = time.time()
        outputs = run_shard_fn(input_path, shard, num_shards)
        metrics = outputs.pop("__metrics__", {})
        rows = {}
        for table, ds in outputs.items():
            final = os.path.join(out_dir, table, f"shard={shard:04d}")
            rows[table] = atomic_write_parquet(ds, final)
        append_manifest(
            out_dir,
            {
                "shard": shard,
                **fingerprint,
                "rows": rows,
                "metrics": metrics,
                "seconds": round(time.time() - t0, 3),
                "engine_version": version,
            },
        )
        completed.append(shard)
    return {
        "completed": completed,
        "skipped": skipped,
        "seconds": round(time.time() - t_start, 3),
    }
