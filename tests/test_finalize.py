"""Applier finalize in lake mode: the partition split, the folds that run
while the route does, the durable snapshot publish, the finalize profile,
and a partition commit failing inside an applier's commit pool."""

import os
import time

import numpy as np
import pyarrow as pa
import pytest

import ray

from olrx.pipelines.replay import (ReplayConfig, read_lake, replay_dataset,
                                   replay_to_lake)
from olrx.stages.exchange import (ApplierFleet, partition_order,
                                  partition_slices)
from olrx.state import manifest as MF
from tests.conftest import sorted_table
from tests.test_fleet import _alive_appliers

#: one applier: every partition goes through one commit pool
CFG1 = ReplayConfig(num_partitions=16, num_appliers=1)


def test_partition_slices_of_one_stable_gather():
    rng = np.random.default_rng(7)
    chunks = []
    for c in range(9):
        n = int(rng.integers(5, 40))
        chunks.append(pa.table({
            "part": pa.array(rng.integers(0, 6, n), pa.int32()),
            "seq": pa.array(np.arange(n) + 1000 * c, pa.int64()),
            "v_text": pa.array([f"c{c}-r{i}" * 3 for i in range(n)]),
        }))
    events = pa.concat_tables(chunks)
    assert events["v_text"].num_chunks == 9
    groups = partition_slices(partition_order(events))

    ids = [p for p, _ in groups]
    assert ids == sorted(set(ids)) and len(ids) >= 5
    assert sum(g.num_rows for _, g in groups) == events.num_rows
    seq = events["seq"].to_numpy()
    part = events["part"].to_numpy()
    for p, g in groups:
        assert set(g["part"].to_pylist()) == {p}
        # stable: the partition's rows in their original order
        assert g["seq"].to_pylist() == seq[part == p].tolist()
        assert g["v_text"].to_pylist() == [
            t for t, q in zip(events["v_text"].to_pylist(), part) if q == p]
    # every slice is a view of ONE gathered table, not its own copy
    data = {g["v_text"].chunk(0).buffers()[2].address for _, g in groups}
    assert len(data) == 1
    assert all(g["v_text"].num_chunks == 1 for _, g in groups)


@pytest.fixture
def one_block_per_segment(gen_small, monkeypatch):
    """One read block per segment, so each segment reaches the appliers
    as its own shards while the route runs."""
    _, _, paths, _ = gen_small
    monkeypatch.setattr("olrx.pipelines.replay.route_group_count",
                        lambda nbytes, num_files, cpus: len(paths))
    return paths


def test_default_lake_replay_folds_while_routing(tmp_path,
                                                 one_block_per_segment,
                                                 expected_small):
    """At the default config the appliers fold from the first shard: the
    profile shows off-path folds, the lake equals the oracle, and the
    counters equal those of a replay that folds only at finalize."""
    paths = one_block_per_segment
    res = replay_to_lake(paths, str(tmp_path / "lake"), ReplayConfig(),
                         resume=False)
    assert res.timings["folds"] >= 1 and res.timings["fold"] > 0, res.timings
    assert sorted_table(read_lake(str(tmp_path / "lake")),
                        expected_small.schema).equals(expected_small)
    late = replay_to_lake(paths, str(tmp_path / "late"),
                          ReplayConfig(applier_compact_threshold=0),
                          resume=False)
    assert late.timings["folds"] == 0, late.timings
    assert res.stats.sort_by("partition").equals(
        late.stats.sort_by("partition"))


def test_default_dataset_replay_folds_while_routing(one_block_per_segment,
                                                    expected_small):
    res = replay_dataset(one_block_per_segment, ReplayConfig())
    assert res.timings["folds"] >= 1 and res.timings["fold"] > 0, res.timings
    assert sorted_table(res.dataset,
                        expected_small.schema).equals(expected_small)


def test_every_applier_folds_at_the_smallest_threshold():
    """The ±25% stagger never rounds a threshold of 1 down to 0 (off)."""
    fleet = ApplierFleet()
    try:
        appliers, ready = fleet.begin(4, 0, num_partitions=4,
                                      compact_threshold=1)
        ray.get(ready)
        got = ray.get([a.__ray_call__.remote(lambda s: s.compact_threshold)
                       for a in appliers])
    finally:
        fleet.close()
    assert got == [1, 1, 1, 1], got


def test_snapshot_is_fsynced_before_it_is_published(tmp_path, gen_small,
                                                    monkeypatch):
    """The snapshot's own descriptor is fsynced before its rename, and the
    snapshot is renamed into place before the manifest is written."""
    import olrx.stages.commit as C
    from olrx.pipelines.replay import _decoded_events
    from olrx.stages.decode import load_control

    _, _, paths, _ = gen_small
    control = load_control(paths)
    batch = _decoded_events(paths, ReplayConfig(num_partitions=8),
                            control).take_batch(2000, batch_format="pyarrow")
    part = batch.filter(pa.compute.equal(batch["part"], batch["part"][0]))

    log: list[tuple] = []
    fsync, replace, write_manifest = (C.os.fsync, C.os.replace,
                                      C.MF.write_manifest)

    # files are identified by inode: an fsync names a descriptor, a rename
    # a path
    def spy_fsync(fd):
        log.append(("fsync", os.fstat(fd).st_ino))
        return fsync(fd)

    def spy_replace(src, dst):
        log.append(("replace", os.stat(src).st_ino, str(dst)))
        return replace(src, dst)

    def spy_manifest(mdir, m):
        log.append(("manifest", m.partition))
        return write_manifest(mdir, m)

    monkeypatch.setattr(C.os, "fsync", spy_fsync)
    monkeypatch.setattr(C.os, "replace", spy_replace)
    monkeypatch.setattr(C.MF, "write_manifest", spy_manifest)
    C.apply_and_commit(part, str(tmp_path), control.schema_version,
                       control.max_commit_scn, control.max_commit_scn, 0,
                       counters={})

    snap = [i for i, e in enumerate(log)
            if e[0] == "replace" and e[2].endswith(".parquet")]
    assert len(snap) == 1, log
    inode = log[snap[0]][1]
    synced = [i for i, e in enumerate(log) if e == ("fsync", inode)]
    assert synced and synced[0] < snap[0], log
    manifest = [i for i, e in enumerate(log) if e[0] == "manifest"]
    assert manifest and snap[0] < manifest[0], log


@pytest.fixture(scope="module")
def undisturbed(tmp_path_factory, gen_small):
    _, _, paths, _ = gen_small
    out = str(tmp_path_factory.mktemp("undisturbed") / "lake")
    return out, replay_to_lake(paths, out, CFG1)


def _manifests(out: str) -> dict:
    return {p: (m.counters, m.rows, m.first_data_scn, m.watermark_commit_scn)
            for p, m in MF.read_all(os.path.join(out, "_manifest")).items()}


def test_finalize_profile_in_timings(undisturbed):
    """Lake replays report the slowest applier's finalize split; both parts
    run inside the fence+finalize window."""
    t = undisturbed[1].timings
    for k in ("finalize_gather", "finalize_commit"):
        assert 0 <= t[k] <= t["fence"] + t["finalize"] + 0.05, t


def test_partition_commit_failure_in_pool(tmp_path, gen_small,
                                          expected_small, undisturbed):
    """One partition's commit fails inside the applier's commit pool: the
    replay raises promptly, naming the cause, and leaves no applier alive.
    A resume rerun heals the lake to the oracle with the manifests of an
    undisturbed replay."""
    _, _, paths, _ = gen_small
    want = _manifests(undisturbed[0])
    assert 5 in want, "partition 5 must receive events"
    out = tmp_path / "lake"
    out.mkdir()
    blocker = out / "part-00005"
    blocker.write_text("not a directory")

    t0 = time.monotonic()
    with pytest.raises(Exception, match=r"File exists: '[^']*part-00005'"):
        replay_to_lake(paths, str(out), CFG1, resume=True)
    assert time.monotonic() - t0 < 120, "failure surfaced only at a timeout"
    assert _alive_appliers() == []

    blocker.unlink()
    replay_to_lake(paths, str(out), CFG1, resume=True)
    assert sorted_table(read_lake(str(out)),
                        expected_small.schema).equals(expected_small)
    assert _manifests(str(out)) == want
