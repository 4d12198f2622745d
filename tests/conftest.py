"""Shared fixtures: one Ray session per pytest run, one generated changelog."""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def gen_small():
    """Cached small changelog (full images) + its segment paths + full table."""
    from olrx.gen import GenConfig, ensure_changelog

    cfg = GenConfig(scale=0.001)
    d = ensure_changelog(cfg)
    paths = sorted(glob.glob(d + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    return cfg, d, paths, full


@pytest.fixture(scope="session")
def mixed_schema_dir(tmp_path_factory):
    """The small changelog with its pre-DDL segments rewritten WITHOUT the
    tool_meta struct field (a narrow physical schema); (that directory,
    the source directory)."""
    import json

    import pyarrow.compute as pc
    from olrx.gen import GenConfig, ensure_changelog

    src = ensure_changelog(GenConfig(scale=0.001))
    dst = tmp_path_factory.mktemp("mixed")
    with open(os.path.join(src, "_COMPLETE")) as f:
        ddl_scn = json.load(f)["ddl_scn"]
    for p in sorted(glob.glob(src + "/*.parquet")):
        t = pq.read_table(p)
        max_scn = pc.max(t["scn"]).as_py()
        if max_scn < ddl_scn:  # fully pre-DDL segment → narrow physical schema
            for col in ("before", "after"):
                arr = t[col].combine_chunks()
                names = [f.name for f in arr.type if f.name != "tool_meta"]
                children = [pc.struct_field(arr, nm) for nm in names]
                narrow = pa.StructArray.from_arrays(
                    children, names=names,
                    mask=pc.is_null(arr))
                t = t.set_column(t.schema.get_field_index(col), col, narrow)
        pq.write_table(t, str(dst / os.path.basename(p)))
    return str(dst), src


@pytest.fixture(scope="session")
def expected_small(gen_small):
    from olrx.oracle import apply_naive

    _, _, _, full = gen_small
    return apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])


def sorted_table(obj, schema=None) -> pa.Table:
    """Normalize a Dataset/DataFrame/Table to a (conv_id, turn_idx)-sorted table."""
    import pandas as pd
    import ray.data as rd

    if isinstance(obj, rd.Dataset):
        obj = pa.Table.from_pandas(obj.to_pandas(), preserve_index=False)
    elif isinstance(obj, pd.DataFrame):
        obj = pa.Table.from_pandas(obj, preserve_index=False)
    keys = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    if "table_name" in obj.schema.names:
        keys = [("table_name", "ascending")] + keys
    t = obj.sort_by(keys)
    return t.cast(schema) if schema is not None else t


def fresh_copy(paths, tmp_path):
    """A checkpoint-free copy of the segments ``paths`` and their sidecars;
    the copied paths."""
    d = tmp_path / f"fresh-{len(os.listdir(tmp_path))}"
    os.makedirs(d / "_ctl")
    for p in paths:
        name = os.path.basename(p)
        shutil.copy(p, d / name)
        shutil.copy(os.path.join(os.path.dirname(p), "_ctl", name),
                    d / "_ctl" / name)
    return [str(d / os.path.basename(p)) for p in paths]


def fresh_scan(paths, tmp_path):
    """``load_control`` over a checkpoint-free copy of ``paths``."""
    from olrx.stages.decode import load_control

    return load_control(fresh_copy(paths, tmp_path))


def fresh_hot_partials(paths, tmp_path):
    """``hot_partials`` over a checkpoint-free copy of ``paths``."""
    from olrx.stages.decode import hot_partials

    return hot_partials(fresh_copy(paths, tmp_path))


def assert_same_partials(got, want):
    """Equal heavy-hitter partials, segments compared by file name."""
    def norm(t):
        seg = pa.array([os.path.basename(s) for s in t["seg"].to_pylist()],
                       pa.string())
        return t.set_column(0, "seg", seg).sort_by(
            [("seg", "ascending"), ("conv_id", "ascending")])

    assert norm(got).equals(norm(want))


def assert_same_control(got, want):
    """Every ControlInfo fact equal, and the broadcast each builds from its
    segments; segment ranges compared by file name. The commit lookup is
    sorted by hash, so it compares positionally."""
    for a, b in zip(got.decode_broadcast(), want.decode_broadcast()):
        np.testing.assert_array_equal(a, b)
    assert got.ddl_scns == want.ddl_scns
    assert got.dropped_columns == want.dropped_columns
    assert got.drop_scns == want.drop_scns
    assert got.rename_ops == want.rename_ops
    assert got.shard_watermarks == want.shard_watermarks
    assert got.max_commit_scn == want.max_commit_scn
    assert got.max_txn_span == want.max_txn_span

    def ranges(info):
        return {os.path.basename(p): r for p, r in info.segments.items()}

    assert ranges(got) == ranges(want)


class ControlReads:
    """The segments whose control rows were read, by kind: ``fold`` (the
    fold of ``load_control``) and ``broadcast`` (commit rows: a replay's
    broadcast, ``capped``, or the commit of a DDL row that folds late)."""

    def __init__(self) -> None:
        self.fold: list[str] = []
        self.broadcast: list[str] = []

    def clear(self) -> None:
        self.fold.clear()
        self.broadcast.clear()


@pytest.fixture
def sidecar_reads(monkeypatch):
    """Records every read of the one control-row reader."""
    from olrx.stages import decode

    seen = ControlReads()
    read = decode._control_rows

    def spy(paths, commits=False):
        (seen.broadcast if commits else seen.fold).extend(paths)
        return read(paths, commits)

    monkeypatch.setattr(decode, "_control_rows", spy)
    return seen
