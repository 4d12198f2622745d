"""Distributed replay vs the naive oracle (dataset mode)."""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from olrx.gen import GenConfig, ensure_changelog
from olrx.oracle import apply_naive
from olrx.pipelines.replay import ReplayConfig, replay_dataset
from tests.conftest import sorted_table


def _check(cfg: GenConfig, rcfg: ReplayConfig):
    d = ensure_changelog(cfg)
    paths = sorted(glob.glob(d + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    got = sorted_table(replay_dataset(paths, rcfg).dataset, exp.schema)
    assert got.equals(exp), "replay != oracle"
    return exp


def test_full_images(gen_small, expected_small):
    _, _, paths, _ = gen_small
    got = sorted_table(replay_dataset(paths, ReplayConfig(num_partitions=16)).dataset,
                       expected_small.schema)
    assert got.equals(expected_small)


def test_partial_images():
    """Changed-column merge semantics (Builder.cpp:1467-1542 analog)."""
    _check(GenConfig(scale=0.001, partial_images=True),
           ReplayConfig(num_partitions=16))


def test_hot_conversation_salted():
    """Skewed hot key + salted repartition stays correct (north rule)."""
    cfg = GenConfig(scale=0.001, hot_conv_factor=200)
    rcfg = ReplayConfig(num_partitions=16, salt_hot=True,
                        hot_frac_threshold=0.02, salt_block=32)
    _check(cfg, rcfg)


def test_hot_key_actually_spreads():
    """The hot conversation must land in >1 partition when salted."""
    import numpy as np
    from olrx.stages.partition import partition_ids

    conv = pa.array(["hot"] * 1000)
    turns = pa.array(np.arange(1000, dtype=np.int32))
    cold = partition_ids(conv, turns, 16)
    hot = partition_ids(conv, turns, 16, hot=frozenset(["hot"]), salt_block=64)
    assert len(set(cold.tolist())) == 1
    assert len(set(hot.tolist())) > 4


def test_detect_hot_keys_threshold_and_task_count(tmp_path):
    """A key above ``frac_threshold`` is found and one below is not, and
    the partials are the same whether one call computes them all or the
    Ray pass splits them over one task per CPU. Every segment holds more
    distinct keys than the per-segment top list, so the partials really
    are truncated."""
    import ray

    from olrx.stages.partition import (HOT_TOP, _partials_of,
                                       detect_hot_keys, hot_set,
                                       segment_partials)

    paths = []
    for i in range(12):
        # per segment: 60 of 500 rows "hot" (12%), 10 "warm" (2%), the
        # rest spread over 430 cold keys
        keys = (["hot"] * 60 + ["warm"] * 10
                + [f"cold-{i}-{j}" for j in range(430)])
        p = str(tmp_path / f"part-{i:02d}.parquet")
        pq.write_table(pa.table({"conv_id": keys}), p)
        paths.append(p)
    keys = [("seg", "ascending"), ("conv_id", "ascending")]
    assert ray.cluster_resources()["CPU"] > 1
    one = _partials_of(paths).sort_by(keys)
    many = segment_partials(paths).sort_by(keys)
    assert one.equals(many)
    assert one.num_rows == len(paths) * (HOT_TOP + 1)
    assert hot_set(one, 0.05) == frozenset({"hot"})
    assert detect_hot_keys(paths, frac_threshold=0.05) == frozenset({"hot"})


def test_hot_json_is_fsynced_before_replace(tmp_path, monkeypatch):
    """The pinned hot set reaches the disk before it is renamed into
    place, as the manifests do, and reads back under its salt block."""
    import os

    from olrx.state import manifest as MF

    synced: list[str] = []
    fsync = os.fsync

    def spy(fd):
        synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    lake = MF.read_lake_state(str(tmp_path / "lake"))
    assert lake.hot_keys(64, lambda: frozenset({"a"})) == frozenset({"a"})
    mdir = MF.manifest_dir(lake.root)
    hp = os.path.join(mdir, "hot.json")
    assert any(s.startswith(hp + ".tmp.") for s in synced), synced
    assert os.listdir(mdir) == ["hot.json"]
    assert lake.hot_keys(64, frozenset) == frozenset({"a"})
    with pytest.raises(ValueError, match=r"salt_block changed \(64 → 8\)"):
        lake.hot_keys(8, frozenset)


def test_no_ddl_narrow_schema():
    """Without DDL the output schema stays at version 0 (no tool_meta)."""
    cfg = GenConfig(scale=0.001, ddl=False)
    d = ensure_changelog(cfg)
    paths = sorted(glob.glob(d + "/*.parquet"))
    res = replay_dataset(paths, ReplayConfig(num_partitions=8))
    got = sorted_table(res.dataset)
    assert "tool_meta" not in got.schema.names
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.cast(exp.schema).equals(exp)


def test_partial_rollback_drops_only_undone_ops():
    """Savepoint rollback (reference 0x0506): PR-targeted ops vanish, the
    rest of the same txn commits (Transaction.cpp:73-148)."""
    import numpy as np

    cfg = GenConfig(scale=0.001, partial_rollback_frac=0.2)
    d = ensure_changelog(cfg)
    paths = sorted(glob.glob(d + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    ops = full["op"].to_pylist()
    assert "PR" in ops, "generator must emit PR records at this frac"
    # every PR names an existing DML op of the same txn
    import pandas as pd
    df = full.select(["xid", "op", "scn", "scn_idx", "undo_scn",
                      "undo_scn_idx"]).to_pandas()
    pr = df[df.op == "PR"]
    dml_keys = set(zip(df[df.op.isin(["I", "U"])]["xid"],
                       df[df.op.isin(["I", "U"])]["scn"],
                       df[df.op.isin(["I", "U"])]["scn_idx"]))
    for r in pr.itertuples():
        assert (r.xid, int(r.undo_scn), int(r.undo_scn_idx)) in dml_keys
    # distributed replay == naive oracle (which drops PR-targeted ops)
    _check(cfg, ReplayConfig(num_partitions=16))
    # and the PR stream is non-trivial: state differs from ignoring PRs
    no_pr = full.filter(pa.compute.invert(
        pa.compute.equal(full["op"], "PR")))
    wrong = apply_naive(no_pr.drop_columns(["undo_scn", "undo_scn_idx"]))
    right = apply_naive(full)
    assert not wrong.equals(right)


def test_pr_anti_join_drops_exactly_the_named_ops(gen_small):
    """The partial-rollback anti-join is a membership test on 64-bit mixed
    keys (``mix_pr_keys``). On a generated stream, the committed DML rows
    the commit join drops as undone are exactly those an exact Arrow join
    on the PR rows' (xid, undo_scn, undo_scn_idx) names: no other committed
    DML row collides."""
    import numpy as np
    import pyarrow.compute as pc

    from olrx.schema import xid_codes
    from olrx.stages.decode import commit_join, commits_only, load_control

    _, _, paths, full = gen_small
    broadcast = load_control(paths).decode_broadcast()
    pr = broadcast[2]
    assert len(pr), "the default generator mix has partial rollbacks"
    dml = full.filter(pc.is_in(full["op"], value_set=pa.array(["I", "U", "D"])))
    dml = dml.select(["xid", "scn", "scn_idx"]).append_column(
        "row", pa.array(np.arange(dml.num_rows)))
    args = (*xid_codes(dml["xid"]), dml["scn"].to_numpy(),
            dml["scn_idx"].to_numpy())
    committed, _ = commit_join(*args, commits_only(broadcast))
    keep, _ = commit_join(*args, broadcast)
    named = dml.join(
        full.filter(pc.equal(full["op"], "PR")).select(
            ["xid", "undo_scn", "undo_scn_idx"]),
        keys=["xid", "scn", "scn_idx"],
        right_keys=["xid", "undo_scn", "undo_scn_idx"], join_type="inner")
    want = sorted(r for r in named["row"].to_pylist() if committed[r])
    assert want, "some PR must undo an op of a committed transaction"
    assert np.flatnonzero(committed & ~keep).tolist() == want


def _per_row_decode(batch: pa.Table, broadcast, skip_xids=(), conv_regex=None
                    ) -> pa.Table:
    """What the resolver keeps of ``batch``, joined row by row: DML rows
    not skipped, matching ``conv_regex``, of a committed transaction, and
    whose own (xid, scn, scn_idx) key no PR names."""
    import pyarrow.compute as pc

    from olrx.schema import xid_hash
    from olrx.stages.decode import mix_pr_keys

    hashes, cscns, pr = broadcast[:3]
    keep = pc.is_in(batch["op"], value_set=pa.array(["I", "U", "D"]))
    if skip_xids:
        keep = pc.and_(keep, pc.invert(pc.is_in(
            batch["xid"], value_set=pa.array(list(skip_xids)))))
    if conv_regex:
        keep = pc.and_(keep, pc.match_substring_regex(batch["conv_id"],
                                                      conv_regex))
    dml = batch.filter(keep)
    h = xid_hash(dml["xid"])
    pos = np.clip(np.searchsorted(hashes, h), 0, len(hashes) - 1)
    keys = mix_pr_keys(h, dml["scn"].to_numpy(), dml["scn_idx"].to_numpy())
    mask = (hashes[pos] == h) & ~np.isin(keys, pr)
    return dml.filter(pa.array(mask)).select(
        ["conv_id", "turn_idx", "scn", "scn_idx"]).append_column(
        "commit_scn", pa.array(cscns[pos][mask], pa.int64()))


@pytest.mark.parametrize("filters", [{}, {"skip_xids": True,
                                          "conv_regex": "[0-7]$"}])
@pytest.mark.parametrize("pr_heavy", [False, True])
def test_distinct_xid_join_is_the_per_row_join(gen_small, filters, pr_heavy):
    """The resolver joins each distinct transaction once and probes the PR
    anti-join only for transactions with a PR row; what it keeps, with
    which commit SCN, is exactly the row-by-row join's, on the default mix
    and on a PR-heavy one, with and without ``skip_xids`` and
    ``conv_regex``."""
    import ray

    from olrx.stages.decode import (EVENT_COLUMNS, CommitResolver,
                                    commits_only, load_control)

    if pr_heavy:
        paths = sorted(glob.glob(ensure_changelog(GenConfig(
            seed=11, scale=0.001, partial_rollback_frac=0.6)) + "/*.parquet"))
    else:
        paths = gen_small[2]
    broadcast = load_control(paths).decode_broadcast()
    assert len(broadcast[2]) and len(broadcast[3]) < len(broadcast[0])
    batches = [pq.read_table(p, columns=EVENT_COLUMNS) for p in paths]
    skip = ()
    if filters.get("skip_xids"):
        xids = pa.concat_tables(batches)["xid"].unique()
        skip = tuple(xids.to_pylist()[::7])
    resolver = CommitResolver(ray.put(broadcast), 8, skip_xids=skip,
                              conv_regex=filters.get("conv_regex"))
    undone = 0
    for batch in batches:
        got = resolver(batch).select(
            ["conv_id", "turn_idx", "scn", "scn_idx", "commit_scn"])
        want = _per_row_decode(batch, broadcast, skip,
                               filters.get("conv_regex"))
        assert got.equals(want)
        undone += _per_row_decode(batch, commits_only(broadcast), skip,
                                  filters.get("conv_regex")).num_rows \
            - want.num_rows
    assert undone > 0, "some committed DML row is undone by a PR"


def test_dropped_replay_dataset_leaves_the_object_store(gen_small):
    """Once the caller drops ``replay_dataset``'s Dataset and the tables it
    took, no reference to its blocks is left, without a garbage
    collection: the result is materialized, so consuming it starts no
    executor whose reference cycles would pin them."""
    import gc

    import ray

    _, _, paths, _ = gen_small
    core = ray._private.worker.global_worker.core_worker
    gc.collect()
    gc.disable()
    try:
        ds = replay_dataset(paths, ReplayConfig(num_partitions=8)).dataset
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


def test_multitable_twin_keys_stay_separate(tmp_path):
    """Two-table stream with twin (conv, turn) keys in both tables: replay
    keys state per (table, conv, turn) (Schema.h:119-129 analog), in both
    dataset and lake mode."""
    cfg = GenConfig(scale=0.001, n_tables=2)
    d = ensure_changelog(cfg)
    paths = sorted(glob.glob(d + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    from olrx.oracle import apply_naive as nv
    exp = nv(full, include_table=True).sort_by(
        [("table_name", "ascending"), ("conv_id", "ascending"),
         ("turn_idx", "ascending")])
    # the stream really contains twin keys (same conv/turn, two tables)
    import pandas as pd
    kdf = exp.select(["table_name", "conv_id", "turn_idx"]).to_pandas()
    dupes = kdf.duplicated(subset=["conv_id", "turn_idx"], keep=False)
    assert dupes.any(), "generator must plant twin keys across tables"
    rcfg = ReplayConfig(num_partitions=16, multi_table=True)
    got = sorted_table(replay_dataset(paths, rcfg).dataset, exp.schema)
    assert got.equals(exp)
    # lake mode round-trip
    from olrx.pipelines.replay import read_lake, replay_to_lake
    out = str(tmp_path / "mt_lake")
    replay_to_lake(paths, out, rcfg, resume=False)
    lk = sorted_table(read_lake(out), exp.schema)
    assert lk.equals(exp)
    # table filter: only t0 rows
    fcfg = ReplayConfig(num_partitions=16, multi_table=True, table_regex="^t0$")
    got0 = replay_dataset(paths, fcfg).dataset.to_pandas()
    assert set(got0["table_name"]) == {"t0"}


def test_start_time_rel_matches_absolute(gen_small):
    """start-time-rel resolves to head-ts − rel and then behaves exactly like
    the absolute start-time position (reference start-time-rel,
    OpenLogReplicator.cpp:533-558)."""
    from olrx.pipelines.replay import resolve_start_time_rel

    _, _, paths, _ = gen_small
    head_us = resolve_start_time_rel(paths, 0)
    rel = 3_600_000_000  # last hour of the stream
    rcfg_rel = ReplayConfig(num_partitions=8, start_time_rel_us=rel)
    rcfg_abs = ReplayConfig(num_partitions=8, start_time_us=head_us - rel)
    got_rel = sorted_table(replay_dataset(paths, rcfg_rel).dataset)
    got_abs = sorted_table(replay_dataset(paths, rcfg_abs).dataset)
    assert got_rel.equals(got_abs)
    # a window covering the whole stream reduces to the full replay
    full_win = ReplayConfig(num_partitions=8,
                            start_time_rel_us=10**15)
    got_all = sorted_table(replay_dataset(paths, full_win).dataset)
    got_plain = sorted_table(
        replay_dataset(paths, ReplayConfig(num_partitions=8)).dataset)
    assert got_all.equals(got_plain)


def test_plan_step_callers_agree_at_a_stop_position(tmp_path, gen_small):
    """Both callers of the replay plan step, with salting on and a stop
    position mid-stream, equal the oracle over the transactions committed
    at or below the cut."""
    import json
    import os

    import pyarrow.compute as pc

    from olrx.pipelines.replay import read_lake, replay_to_lake

    _, _, paths, full = gen_small
    is_commit = pc.equal(full["op"], "C")
    commits = sorted(full.filter(is_commit)["scn"].to_pylist())
    cut = commits[len(commits) // 2]
    # a transaction whose commit record is beyond the cut is still open
    head = full.filter(pc.invert(pc.and_(is_commit,
                                         pc.greater(full["scn"], cut))))
    exp = apply_naive(head).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert 0 < exp.num_rows < apply_naive(full).num_rows
    cfg = ReplayConfig(num_partitions=16, salt_hot=True,
                       hot_frac_threshold=0.005, salt_block=4,
                       end_commit_scn=cut)
    got = sorted_table(replay_dataset(paths, cfg).dataset, exp.schema)
    assert got.equals(exp), "dataset mode != oracle at the cut"
    lake = str(tmp_path / "lake")
    replay_to_lake(paths, lake, cfg, resume=False)
    with open(os.path.join(lake, "_manifest", "hot.json")) as f:
        assert json.load(f)["hot"], "the test must salt some key"
    assert sorted_table(read_lake(lake), exp.schema).equals(exp), \
        "lake mode != oracle at the cut"


@pytest.mark.parametrize("chunks", [
    [["a", "b", "a", "a", "c"]],                     # repeats
    [["x", None, "y", None, "x"]],                   # nulls
    [[]],                                            # empty
    [["p", None, "q"], [], ["q", "p", "r", None]],   # chunked, empty chunk
    [[None, None]],                                  # nulls only
])
def test_string_hash_is_hash_array_over_objects(chunks):
    """The dictionary-coded hashes equal ``pd.util.hash_array`` over the
    rows as Python objects, bit for bit: partition ids and ``_ctl``
    ``xid_h`` are persisted."""
    import pandas as pd

    from olrx.schema import string_hash, xid_codes, xid_hash

    rows = [v for c in chunks for v in c]
    want = pd.util.hash_array(np.asarray(rows, dtype=object))
    arrays = [pa.array(c, pa.string()) for c in chunks]
    for strings in (pa.chunked_array(arrays, pa.string()),
                    pa.concat_arrays(arrays)):
        assert np.array_equal(string_hash(strings), want)
        assert np.array_equal(xid_hash(strings), want)
        hashes, codes = xid_codes(strings)
        assert np.array_equal(hashes[codes], want)
        assert len(hashes) == len(set(rows))
        assert string_hash(strings).dtype == np.uint64


def test_partition_ids_hash_each_row_as_an_object():
    """``partition_ids`` equals the per-row object hash it replaced, with
    and without a table column and hot keys."""
    import pandas as pd

    from olrx.stages.partition import _SALT_MULT, partition_ids

    rng = np.random.default_rng(11)
    conv = pa.array([f"c{i}" for i in rng.integers(0, 40, 3000)])
    turn = pa.array(rng.integers(0, 300, 3000).astype(np.int32))
    table = pa.array([f"t{i}" for i in rng.integers(0, 3, 3000)])
    hot = frozenset(["c3", "c7", "absent"])

    def objects(a):
        return pd.util.hash_array(np.asarray(
            a.to_numpy(zero_copy_only=False), dtype=object))

    for tbl in (None, table):
        h = objects(conv)
        if tbl is not None:
            h = h ^ (objects(tbl) * _SALT_MULT)
        assert np.array_equal(partition_ids(conv, turn, 16, table=tbl),
                              (h % np.uint64(16)).astype(np.int32))
        is_hot = np.isin(np.asarray(conv.to_pylist(), object), list(hot))
        salt = (turn.to_numpy().astype(np.int64) // 64).astype(np.uint64)
        salted = np.where(is_hot, h ^ ((salt + np.uint64(1)) * _SALT_MULT), h)
        assert np.array_equal(
            partition_ids(conv, turn, 16, hot=hot, salt_block=64, table=tbl),
            (salted % np.uint64(16)).astype(np.int32))
