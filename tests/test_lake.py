"""Lake sink: manifests, exactly-once, resume, incremental, shard gating."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from olrx.pipelines.replay import ReplayConfig, read_lake, replay_to_lake
from olrx.state import manifest as MF
from tests.conftest import sorted_table

CFG = ReplayConfig(num_partitions=16)


def _lake_table(out, schema):
    return sorted_table(read_lake(out), schema)


def test_incremental_then_full(tmp_path, gen_small, expected_small):
    _, _, paths, _ = gen_small
    out = str(tmp_path / "lake")
    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    replay_to_lake(first, out, CFG)
    replay_to_lake(paths, out, CFG)
    assert _lake_table(out, expected_small.schema).equals(expected_small)


def test_idempotent_rerun(tmp_path, gen_small, expected_small):
    _, _, paths, _ = gen_small
    out = str(tmp_path / "lake")
    replay_to_lake(paths, out, CFG)
    r2 = replay_to_lake(paths, out, CFG)
    st = r2.stats.to_pandas()
    assert bool(st.skipped.all()), "rerun must be a confirmed no-op"
    assert _lake_table(out, expected_small.schema).equals(expected_small)


def test_resume_after_partial_manifest_loss(tmp_path, gen_small, expected_small):
    """Kill-mid-run analog: some partitions confirmed, some not → rerun heals."""
    _, _, paths, _ = gen_small
    out = str(tmp_path / "lake")
    replay_to_lake(paths, out, CFG)
    mdir = os.path.join(out, "_manifest")
    victims = sorted(os.listdir(mdir))[:7]
    for f in victims:
        os.remove(os.path.join(mdir, f))
        # also drop the data dir for half of the victims (full partition loss)
        if f < victims[3]:
            shutil.rmtree(os.path.join(out, f.replace(".json", "")), ignore_errors=True)
    replay_to_lake(paths, out, CFG)
    assert _lake_table(out, expected_small.schema).equals(expected_small)


def test_shard_split_tail_mode(tmp_path, gen_small, expected_small):
    """RAC analog: replaying one shard first must not lose the other shard's
    transactions (min-over-shards watermark, Replicator.cpp:1142-1210)."""
    _, _, paths, _ = gen_small
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=16, assume_complete_input=False,
                       expected_shards=(0, 1))
    shard0 = [p for p in paths if "shard00" in p]
    r1 = replay_to_lake(shard0, out, cfg)
    # nothing may be *confirmed* while shard 1 is missing
    ms = MF.read_all(os.path.join(out, "_manifest"))
    assert all(m.watermark_commit_scn == -1 for m in ms.values())
    replay_to_lake(paths, out, cfg)
    assert _lake_table(out, expected_small.schema).equals(expected_small)


def test_manifest_atomicity(tmp_path):
    m = MF.PartitionManifest(partition=3, watermark_commit_scn=10,
                             schema_version=1, files=["part-00003/x.parquet"],
                             rows=5)
    p = MF.write_manifest(str(tmp_path), m)
    assert MF.read_manifest(str(tmp_path), 3).watermark_commit_scn == 10
    assert not [f for f in os.listdir(tmp_path) if ".tmp" in f]
    assert os.path.basename(p) == "part-00003.json"


def test_resume_reads_manifests_once(tmp_path, gen_small, expected_small,
                                     monkeypatch):
    """A resume replay lists ``_manifest/`` once: the floor, the txn span,
    the fences and the per-partition watermarks all come from one read.
    So does a ``read_lake``: its files and its schema epoch."""
    _, _, paths, _ = gen_small
    out = str(tmp_path / "lake")
    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    replay_to_lake(first, out, CFG, resume=False)
    calls = []
    read_all = MF.read_all

    def spy(mdir):
        calls.append(mdir)
        return read_all(mdir)

    monkeypatch.setattr(MF, "read_all", spy)
    replay_to_lake(paths, out, CFG, resume=True)
    assert calls == [os.path.join(out, "_manifest")]
    got = _lake_table(out, expected_small.schema)
    assert calls == [os.path.join(out, "_manifest")] * 2
    monkeypatch.undo()
    assert got.equals(expected_small)


def _files(out: str) -> dict:
    """relative path → (size, mtime_ns) of every file under ``out``."""
    return {os.path.relpath(os.path.join(d, f), out):
            (os.stat(os.path.join(d, f)).st_size,
             os.stat(os.path.join(d, f)).st_mtime_ns)
            for d, _, fs in os.walk(out) for f in fs}


@pytest.mark.parametrize("before,after", [(8, 4), (4, 8)])
def test_resume_with_another_partition_count_raises(tmp_path, gen_small,
                                                    before, after):
    """A key's partition depends on the partition count, so a resume with
    another count would commit keys a second time in another partition.
    It raises before any write, naming both counts."""
    _, _, paths, _ = gen_small
    out = str(tmp_path / "lake")
    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    replay_to_lake(first, out, ReplayConfig(num_partitions=before))
    snap = _files(out)
    with pytest.raises(ValueError,
                       match=rf"num_partitions changed \({before} → {after}\)"
                             r".*rebuild"):
        replay_to_lake(paths, out, ReplayConfig(num_partitions=after))
    assert _files(out) == snap
    ms = MF.read_all(os.path.join(out, "_manifest"))
    assert {m.num_partitions for m in ms.values()} == {before}


def test_resume_over_manifests_without_partition_count(tmp_path, gen_small):
    """Manifests written before they recorded the partition count are
    bounded by their partition ids: a count below the highest id raises."""
    _, _, paths, _ = gen_small
    out = str(tmp_path / "lake")
    first = [p for p in paths if "seg0000" in p]
    replay_to_lake(first, out, ReplayConfig(num_partitions=8))
    mdir = os.path.join(out, "_manifest")
    for name in os.listdir(mdir):
        if name.startswith("part-"):
            with open(os.path.join(mdir, name)) as f:
                d = json.load(f)
            del d["num_partitions"]
            with open(os.path.join(mdir, name), "w") as f:
                json.dump(d, f)
    top = max(MF.read_all(mdir))
    with pytest.raises(ValueError, match=rf"\(at least {top + 1} → 4\)"):
        replay_to_lake(paths, out, ReplayConfig(num_partitions=4))


def _events(ds) -> pa.Table:
    """A decoded event dataset's meta columns as one table, in a fixed
    row order."""
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow",
                                              batch_size=None)))
    t = t.select([c for c in t.column_names if not c.startswith("v_")])
    return t.sort_by([(c, "ascending") for c in t.column_names])


def test_resume_floors_cut_decode_per_partition(tmp_path, gen_small):
    """On a lake whose manifests sit at two watermarks and that has no
    lake-level watermark file, decode with the resume floors emits no event
    at or below its partition's floor and every committed event above it."""
    from olrx.pipelines.replay import _decoded_events
    from olrx.stages.decode import load_control

    _, _, paths, _ = gen_small
    cfg = ReplayConfig(num_partitions=8)
    out = str(tmp_path / "lake")
    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    replay_to_lake(first, out, cfg)
    mdir = os.path.join(out, "_manifest")
    os.remove(os.path.join(mdir, "_lake.json"))
    ms = MF.read_all(mdir)
    assert sorted(ms) == list(range(8))
    hi = ms[0].watermark_commit_scn
    control = load_control(paths)
    every = _events(_decoded_events(paths, cfg, control))
    cscn = every["commit_scn"].to_numpy()
    lo = int(np.median(cscn[cscn <= hi]))
    for p in (0, 2, 4, 6):
        ms[p].watermark_commit_scn = lo
        MF.write_manifest(mdir, ms[p])

    floors = MF.read_lake_state(out).resume_floors(cfg.num_partitions)
    assert floors.tolist() == [lo, hi] * 4
    got = _events(_decoded_events(paths, cfg, control, floors=floors))
    part = got["part"].to_numpy()
    assert (got["commit_scn"].to_numpy() > floors[part]).all()
    above = cscn > floors[every["part"].to_numpy()]
    assert got.num_rows and above.sum() < len(above)
    assert got.equals(every.filter(pa.array(above)))
