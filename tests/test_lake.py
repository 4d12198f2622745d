"""Lake sink: manifests, exactly-once, resume, incremental, shard gating."""

import os
import shutil

import pyarrow as pa

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
    the fences and the per-partition watermarks all come from one read."""
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
    monkeypatch.undo()
    assert _lake_table(out, expected_small.schema).equals(expected_small)
