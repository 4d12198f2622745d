"""The lake reads (`read_lake`, `read_lake_asof`): plain Ray tasks over the
manifests' (or the as-of) file list, run when called, with no Ray Data read
execution behind them."""

from __future__ import annotations

import gc
import glob
import re

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from olrx.gen import GenConfig, ensure_changelog
from olrx.oracle import apply_naive
from olrx.pipelines.replay import ReplayConfig, read_lake, replay_to_lake
from olrx.pipelines.timetravel import (q_cdc_time_travel, read_lake_asof,
                                       sql_cdc_time_travel)
from tests.conftest import sorted_table
from tests.test_timetravel import SF


def _seq(path: str) -> int:
    return int(re.search(r"seg(\d+)\.parquet$", path).group(1))


@pytest.fixture(scope="module")
def cut_stream():
    """An 8-segments-a-shard changelog; (every segment, the ones with
    sequence < 4)."""
    d = ensure_changelog(GenConfig(seed=3, scale=0.002, segments_per_shard=8))
    paths = sorted(glob.glob(d + "/*.parquet"))
    return paths, [p for p in paths if _seq(p) < 4]


def _table(ds: rd.Dataset) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_reads_keep_their_state_after_a_later_commit_gc(cut_stream, tmp_path):
    """A read returns the state as of the call: a resume whose GC deletes
    the snapshots it read (``snapshot_keep=1``) before it is consumed
    leaves both reads whole (a lazy plan over the files would raise
    ``FileNotFoundError`` at consumption)."""
    paths, first = cut_stream
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, snapshot_keep=1)
    res = replay_to_lake(first, lake, cfg, resume=False)
    now = read_lake(lake)
    asof = read_lake_asof(lake, res.control.max_commit_scn)
    replay_to_lake(paths, lake, cfg, resume=True)

    want = apply_naive(pa.concat_tables(
        [pq.read_table(p) for p in first]))
    assert want.num_rows == 4843
    for ds in (now, asof):
        assert sorted_table(ds, want.schema).equals(
            sorted_table(want, want.schema))


def test_reads_start_no_ray_data_read(cut_stream, tmp_path, monkeypatch):
    """``read_lake``, ``read_lake_asof`` and ``q_cdc_time_travel`` equal
    their oracles with ``ray.data.read_parquet`` raising."""
    paths, _ = cut_stream
    lake = str(tmp_path / "lake")
    res = replay_to_lake(paths, lake, ReplayConfig(num_partitions=8),
                         resume=False)

    def no_read(*a, **k):
        raise AssertionError("a lake read started a Ray Data read")

    monkeypatch.setattr(rd, "read_parquet", no_read)
    want = apply_naive(pa.concat_tables(
        [pq.read_table(p) for p in paths]))
    want = sorted_table(want, want.schema)
    assert sorted_table(read_lake(lake), want.schema).equals(want)
    assert sorted_table(read_lake_asof(lake, res.control.max_commit_scn),
                        want.schema).equals(want)

    key = ["conv_id", "turn_idx"]
    got = q_cdc_time_travel(SF).to_pandas()
    oracle = duckdb.sql(sql_cdc_time_travel(SF)).df()
    got = got.sort_values(key).reset_index(drop=True)[sorted(got.columns)]
    oracle = oracle.sort_values(key).reset_index(drop=True)[
        sorted(oracle.columns)]
    assert got.equals(oracle)


def test_blocks_are_capped_at_the_target_block_size(cut_stream, tmp_path):
    """With a small ``target_max_block_size`` a read yields one block per
    snapshot, with the same rows in the same order."""
    paths, _ = cut_stream
    lake = str(tmp_path / "lake")
    replay_to_lake(paths, lake, ReplayConfig(num_partitions=8), resume=False)
    whole = read_lake(lake)
    ctx = rd.DataContext.get_current()
    before = ctx.target_max_block_size
    ctx.target_max_block_size = 1
    try:
        small = read_lake(lake)
    finally:
        ctx.target_max_block_size = before
    assert whole.num_blocks() < small.num_blocks() == 8
    assert _table(small).equals(_table(whole))


def test_dropped_read_leaves_the_object_store(cut_stream, tmp_path):
    """Once the caller drops the Dataset and the tables it took, no
    reference to the read's blocks is left, without a garbage
    collection: consuming the read starts no executor whose reference
    cycles would pin them."""
    paths, _ = cut_stream
    lake = str(tmp_path / "lake")
    replay_to_lake(paths, lake, ReplayConfig(num_partitions=8), resume=False)
    core = ray._private.worker.global_worker.core_worker
    gc.collect()
    gc.disable()
    try:
        ds = read_lake(lake)
        refs = ds.to_arrow_refs()
        ids = {r.hex() for r in refs}
        tables = ray.get(refs)
        assert sum(t.num_rows for t in tables) == ds.count() > 0
        assert ids <= {k.decode() for k in core.get_all_reference_counts()}
        del ds, refs, tables
        assert not ids & {k.decode()
                          for k in core.get_all_reference_counts()}
    finally:
        gc.enable()
