"""SCN time travel: snapshot retention (`snapshot_keep`), the
`end_commit_scn` stop position, and `read_lake_asof` — the lake-sink analog
of the reference's checkpoint retention (`keep-checkpoints`,
/root/reference/documentation/user-manual/8.checkpointing.adoc:15-24)."""

from __future__ import annotations

import dataclasses
import glob
import os
import shutil

import duckdb
import pytest

from olrx.pipelines.replay import ReplayConfig, read_lake, replay_to_lake
from olrx.pipelines.timetravel import (q_cdc_time_travel, read_lake_asof,
                                       _split_scn, sql_cdc_time_travel)
from olrx.state import manifest as MF
from tests.conftest import sorted_table

SF = "/root/testdata/sf0.001"

#: a snapshot name above any watermark the test streams reach: the leftover
#: of a crashed run with a higher cut, never published by a manifest
ORPHAN = "data-w999999999.parquet"


def snapshot_watermarks(lake: str) -> dict[int, list[int]]:
    """Published partition → its retained snapshot watermarks."""
    return {p: MF.retained_snapshots(lake, p)
            for p in MF.read_all(MF.manifest_dir(lake))}


def _cfg(**kw) -> ReplayConfig:
    return dataclasses.replace(ReplayConfig(num_partitions=8), **kw)


def test_time_travel_matches_oracle():
    got = q_cdc_time_travel(SF).to_pandas()
    want = duckdb.sql(sql_cdc_time_travel(SF)).df()
    key = ["conv_id", "turn_idx"]
    got = got.sort_values(key).reset_index(drop=True)[sorted(got.columns)]
    want = want.sort_values(key).reset_index(drop=True)[sorted(want.columns)]
    assert len(got) == len(want) and list(got.columns) == list(want.columns)
    # per-turn text equality under stable ordering — the north-rule invariant
    assert got["text"].equals(want["text"])
    assert got.equals(want)


def test_snapshot_retention_and_prune_error(gen_small, tmp_path):
    _, _, paths, _ = gen_small
    split = _split_scn(paths)
    lake = str(tmp_path / "lake")

    # snapshot_keep=1 (default): the superseded checkpoint is GC'd and
    # time travel past the prune point must REFUSE, not silently answer new
    replay_to_lake(paths, lake, _cfg(end_commit_scn=split), resume=False)
    replay_to_lake(paths, lake, _cfg(), resume=True)
    per_part = snapshot_watermarks(lake)
    assert all(len(w) == 1 for w in per_part.values())
    with pytest.raises(ValueError, match="pruned"):
        read_lake_asof(lake, split).count()

    # snapshot_keep=2: both checkpoints retained, as-of read works at both
    lake2 = str(tmp_path / "lake2")
    replay_to_lake(paths, lake2, _cfg(end_commit_scn=split, snapshot_keep=2),
                   resume=False)
    r = replay_to_lake(paths, lake2, _cfg(snapshot_keep=2), resume=True)
    wms = sorted({w for ws in snapshot_watermarks(lake2).values() for w in ws})
    assert len(wms) >= 2
    full_now = read_lake_asof(lake2, wms[-1]).count()
    assert full_now == r.stats.to_pandas()["rows"].sum()


def test_asof_data_birth_semantics(gen_small, tmp_path):
    """A lake built by ONE full replay checkpoints only at the end: an as-of
    read at any mid-stream SCN must REFUSE (committed state existed then but
    no snapshot is retained), while an SCN before any data was born is
    legitimately empty (ADVICE r4 #1 — `first_watermark` is checkpoint time,
    not data birth; `first_data_scn` is)."""
    _, _, paths, _ = gen_small
    lake = str(tmp_path / "lake")
    replay_to_lake(paths, lake, _cfg(snapshot_keep=2), resume=False)
    ms = MF.read_all(lake + "/_manifest")
    births = [m.first_data_scn for m in ms.values()]
    assert births and all(b >= 0 for b in births)
    # before ANY partition's data birth: provably empty, not an error
    assert read_lake_asof(lake, min(births) - 1).count() == 0
    # mid-stream, after data existed but before the only checkpoint: refuse
    first_ckpt = min(w for ws in snapshot_watermarks(lake).values() for w in ws)
    assert min(births) < first_ckpt
    with pytest.raises(ValueError, match="pruned or was never checkpointed"):
        read_lake_asof(lake, first_ckpt - 1).count()


def test_end_commit_scn_stops_replay(gen_small, tmp_path):
    import pyarrow.parquet as pq

    _, _, paths, _ = gen_small
    split = _split_scn(paths)
    lake = str(tmp_path / "lake")
    replay_to_lake(paths, lake, _cfg(end_commit_scn=split), resume=False)
    # no snapshot may carry a watermark beyond the stop position
    assert all(w <= split
               for ws in snapshot_watermarks(lake).values() for w in ws)
    # and the state equals the oracle's cut at the split
    files = sorted(glob.glob(lake + "/part-*/data-w*.parquet"))
    import pyarrow as pa
    got = pa.concat_tables([pq.read_table(f) for f in files])
    want = duckdb.sql(sql_cdc_time_travel(SF)).arrow()
    assert got.num_rows == want.num_rows


def _first_segments(paths):
    return [p for p in paths if "seg0000" in p or "seg0001" in p]


def test_gc_keeps_the_published_snapshot(gen_small, expected_small, tmp_path):
    """A resume's GC keeps the snapshot its manifest just published and
    deletes an unpublished one above the watermark, however high its
    name."""
    _, _, paths, _ = gen_small
    lake = str(tmp_path / "lake")
    replay_to_lake(_first_segments(paths), lake, _cfg(num_partitions=4),
                   resume=False)
    (snap,) = glob.glob(lake + "/part-00000/data-w*.parquet")
    orphan = os.path.join(lake, "part-00000", ORPHAN)
    shutil.copy(snap, orphan)
    replay_to_lake(paths, lake, _cfg(num_partitions=4))
    assert not os.path.exists(orphan)
    assert sorted_table(read_lake(lake),
                        expected_small.schema).equals(expected_small)


def test_asof_skips_unpublished_snapshot(gen_small, expected_small, tmp_path):
    """An as-of read never picks a snapshot above its partition's manifest
    watermark, nor one of a partition no manifest published: it reads what
    ``read_lake`` reads."""
    _, _, paths, _ = gen_small
    lake = str(tmp_path / "lake")
    replay_to_lake(paths, lake, _cfg(num_partitions=4), resume=False)
    (other,) = glob.glob(lake + "/part-00001/data-w*.parquet")
    shutil.copy(other, os.path.join(lake, "part-00000", ORPHAN))
    got = read_lake_asof(lake, 999999999)
    assert sorted_table(got, expected_small.schema).equals(expected_small)
    os.remove(MF.manifest_path(MF.manifest_dir(lake), 3))
    want = sorted_table(read_lake(lake), expected_small.schema)
    assert 0 < want.num_rows < expected_small.num_rows
    got = read_lake_asof(lake, 999999999)
    assert sorted_table(got, expected_small.schema).equals(want)


def test_resume_onto_missing_snapshot_raises(gen_small, tmp_path):
    """A resume whose manifest names a snapshot the disk lacks fails,
    naming the partition and the file, instead of merging onto an empty
    base and dropping the partition's history."""
    _, _, paths, _ = gen_small
    lake = str(tmp_path / "lake")
    replay_to_lake(_first_segments(paths), lake, _cfg(num_partitions=4),
                   resume=False)
    # every partition but the lowest: a resume reads its footer first to
    # check the lake's layout
    for snap in sorted(glob.glob(lake + "/part-*/data-w*.parquet"))[1:]:
        os.remove(snap)
    with pytest.raises(FileNotFoundError,
                       match=r"partition \d+: .*data-w\d+\.parquet.*missing"):
        replay_to_lake(paths, lake, _cfg(num_partitions=4))
