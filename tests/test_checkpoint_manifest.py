"""Checkpoint manifest robustness, without Ray: a torn last manifest line
re-runs its shard, and a resume under another input fingerprint is refused."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from unsupervised_ner_ray.pipelines.checkpoint import load_manifest, run_checkpointed


def _run(input_path, out_dir, num_shards):
    ran = []

    def shard_fn(path, shard, n):
        ran.append(shard)
        return {}  # an empty shard: recorded in the manifest, nothing written

    result = run_checkpointed(input_path, out_dir, shard_fn, num_shards=num_shards)
    assert result["completed"] == ran
    return result


def test_torn_last_manifest_line_reruns_its_shard(tmp_path):
    inp, out = str(tmp_path / "docs.parquet"), str(tmp_path / "out")
    assert _run(inp, out, 3)["completed"] == [0, 1, 2]
    man = os.path.join(out, "_manifest.jsonl")
    with open(man, "rb") as fp:
        data = fp.read()
    with open(man, "wb") as fp:  # a kill in the middle of shard 2's append
        fp.write(data[: data.rstrip(b"\n").rfind(b"\n") + 20])
    assert sorted(load_manifest(out)) == [0, 1]

    again = _run(inp, out, 3)
    assert again["completed"] == [2] and again["skipped"] == [0, 1]
    assert sorted(load_manifest(out)) == [0, 1, 2]
    with open(man) as fp:
        assert len(fp.read().splitlines()) == 3
    assert _run(inp, out, 3)["skipped"] == [0, 1, 2]


def test_resume_with_other_num_shards_is_refused(tmp_path):
    inp, out = str(tmp_path / "docs.parquet"), str(tmp_path / "out")
    _run(inp, out, 4)
    with pytest.raises(ValueError, match="num_shards"):
        _run(inp, out, 2)
    assert _run(inp, out, 4)["skipped"] == [0, 1, 2, 3]


def test_resume_with_other_input_path_is_refused(tmp_path):
    out = str(tmp_path / "out")
    _run(str(tmp_path / "a.parquet"), out, 2)
    with pytest.raises(ValueError, match="another input"):
        _run(str(tmp_path / "b.parquet"), out, 2)


def test_resume_after_an_input_file_is_added_is_refused(tmp_path):
    inp, out = tmp_path / "docs", str(tmp_path / "out")
    inp.mkdir()
    part = pa.table({"doc_id": ["d"]})
    for i in range(2):
        pq.write_table(part, str(inp / f"part-{i}.parquet"))
    _run(str(inp), out, 2)
    assert _run(str(inp), out, 2)["skipped"] == [0, 1]
    pq.write_table(part, str(inp / "part-2.parquet"))
    with pytest.raises(ValueError, match="input_files"):
        _run(str(inp), out, 2)
