"""Incremental control checkpoint and per-segment SCN pruning: the folded
control equals a full scan for any landing order, a tail iteration's cost
follows the new segments, and pruning never loses a transaction."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from olrx import schema as S
from olrx.gen import GenConfig, ensure_changelog, write_control_sidecars
from olrx.oracle import apply_naive
from olrx.pipelines.replay import (ReplayConfig, read_lake, replay_dataset,
                                   replay_to_lake)
from olrx.schema import xid_hash
from olrx.stages import partition
from olrx.stages.decode import (CHECKPOINT_NAME, ControlInfo, _ControlState,
                                hot_partials, load_control)
from olrx.state import manifest as MF
from tests.conftest import (assert_same_control, assert_same_partials,
                            fresh_hot_partials, fresh_scan, sorted_table)

TAIL = ReplayConfig(num_partitions=8, assume_complete_input=False,
                    expected_shards=(0, 1))


def _land(paths, land_dir):
    """Copy segments into ``land_dir``, sidecar first; the landed paths."""
    out = []
    for p in paths:
        name = os.path.basename(p)
        os.makedirs(os.path.join(land_dir, "_ctl"), exist_ok=True)
        shutil.copy(os.path.join(os.path.dirname(p), "_ctl", name),
                    os.path.join(land_dir, "_ctl", name))
        shutil.copy(p, os.path.join(land_dir, name))
        out.append(os.path.join(land_dir, name))
    return out


def _pairs(paths):
    """Segments grouped by sequence, in landing order."""
    by_seq: dict[str, list[str]] = {}
    for p in paths:
        by_seq.setdefault(os.path.basename(p).split("-")[1], []).append(p)
    return [sorted(v) for _, v in sorted(by_seq.items())]


def _orders(paths):
    """Two landing orders: pair by pair, and shard 1 three segments behind
    shard 0."""
    s0 = [p for p in paths if "shard00" in p]
    s1 = [p for p in paths if "shard01" in p]
    lagged = []
    for i in range(len(s0) + 3):
        lagged += s0[i:i + 1] + (s1[i - 3:i - 2] if i >= 3 else [])
    by_pair = [p for pr in _pairs(paths) for p in pr]
    return (("pairs", by_pair), ("lagged", lagged))


def test_fold_equals_full_scan(tmp_path):
    """Landed pair by pair, and again with shard 1 three segments behind
    shard 0, the folded control equals a full scan of a checkpoint-free
    copy at every prefix — on a stream with add/drop/rename DDL,
    rollbacks, partial rollbacks and open transactions."""
    d = ensure_changelog(GenConfig(scale=0.002, segments_per_shard=8,
                                   ddl_drop=True, ddl_rename=True))
    paths = sorted(glob.glob(d + "/*.parquet"))
    for name, order in _orders(paths):
        land = str(tmp_path / name)
        landed: list[str] = []
        for p in order:
            landed += _land([p], land)
            got = load_control(sorted(landed))
            assert_same_control(got, fresh_scan(sorted(landed), tmp_path))
        # the stream exercises every fact the fold carries
        assert (got.dropped_columns and got.rename_ops
                and len(got.decode_broadcast()[2]))
        st = _ControlState.read(os.path.join(land, "_ctl", CHECKPOINT_NAME))
        flags = st.open_txns.to_pydict()
        assert any(b and not c and not r for b, c, r
                   in zip(flags["b"], flags["c"], flags["r"])), "open txns"
        side = pa.concat_tables(pq.read_table(
            os.path.join(d, "_ctl", os.path.basename(p)), columns=["op"])
            for p in paths)
        assert pc.sum(pc.equal(side["op"], "R")).as_py() > 0


def test_tail_iteration_cost_follows_new_segments(tmp_path, sidecar_reads,
                                                  monkeypatch):
    """One new pair after 10 committed pairs and one after 100: both
    iterations fold the same number of sidecars (the new pair's), read the
    commit rows of the same number of segments for their broadcast, hand
    the event read the same number of segments, and ship broadcasts whose
    bytes are within 20% of each other."""
    shipped: list[int] = []
    build = ControlInfo.decode_broadcast

    def spy(self, paths=None):
        out = build(self, paths)
        shipped.append(sum(a.nbytes for a in out))
        return out

    monkeypatch.setattr(ControlInfo, "decode_broadcast", spy)
    d = ensure_changelog(GenConfig(scale=0.01, segments_per_shard=110))
    pairs = _pairs(sorted(glob.glob(d + "/*.parquet")))
    assert len(pairs) > 101
    land, lake = str(tmp_path / "land"), str(tmp_path / "lake")
    landed: list[str] = []
    seen, sent = {}, {}
    for k in (10, 100):
        landed += _land([p for pr in pairs[len(landed) // 2:k] for p in pr],
                        land)
        replay_to_lake(sorted(landed), lake, TAIL)
        landed += _land(pairs[k], land)
        sidecar_reads.clear()
        shipped.clear()
        res = replay_to_lake(sorted(landed), lake, TAIL)
        seen[k] = (len(sidecar_reads.fold), len(sidecar_reads.broadcast),
                   len(res.segments_read))
        sent[k], = shipped
    assert seen[10] == seen[100], seen
    assert seen[100][0] == 2
    assert seen[100][1] < 10 and seen[100][2] < 10
    assert abs(sent[100] - sent[10]) <= 0.2 * sent[10], sent


def test_hot_partials_fold_equals_fresh_scan(tmp_path):
    """At every landing prefix, pairwise and lagged, the heavy-hitter
    partials from the checkpoint equal those of a checkpoint-free copy, so
    the hot set does too; the same after covered segments are touched,
    rewritten without their hot-key rows, and removed. The pairwise
    landing runs ``load_control`` first, as a replay does; the lagged one
    leaves the fold to ``hot_partials``."""
    d = ensure_changelog(GenConfig(scale=0.002, segments_per_shard=8,
                                   hot_conv_factor=100))
    paths = sorted(glob.glob(d + "/*.parquet"))
    for name, order in _orders(paths):
        land = str(tmp_path / name)
        landed: list[str] = []
        for p in order:
            landed += _land([p], land)
            if name == "pairs":
                load_control(sorted(landed))
            got = hot_partials(sorted(landed))
            assert_same_partials(got, fresh_hot_partials(sorted(landed),
                                                          tmp_path))
        hot = partition.hot_set(got, 0.05)
        assert hot, "the stream must have a hot key"
    touched, rewritten, removed = (sorted(landed)[i] for i in (2, 3, 5))
    st = os.stat(touched)
    os.utime(touched, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    t = pq.read_table(rewritten)
    pq.write_table(t.filter(pc.invert(pc.fill_null(pc.is_in(
        t["conv_id"], value_set=pa.array(sorted(hot))), False))), rewritten)
    os.remove(removed)
    os.remove(os.path.join(land, "_ctl", os.path.basename(removed)))
    rest = sorted(p for p in landed if p != removed)
    assert_same_partials(hot_partials(rest), fresh_hot_partials(rest, tmp_path))


def test_hot_partials_cost_follows_new_segments(tmp_path, monkeypatch):
    """A salting replay after k new segments computes partials for exactly
    those k; a replay that does not salt computes none and leaves none in
    the checkpoint."""
    d = ensure_changelog(GenConfig(scale=0.002, segments_per_shard=8))
    pairs = _pairs(sorted(glob.glob(d + "/*.parquet")))
    computed: list[str] = []
    compute = partition.segment_partials

    def spy(paths):
        computed.extend(paths)
        return compute(paths)

    monkeypatch.setattr(partition, "segment_partials", spy)
    plain = str(tmp_path / "plain")
    replay_to_lake(sorted(_land([p for pr in pairs[:4] for p in pr], plain)),
                   str(tmp_path / "lake"), TAIL)
    assert computed == []
    st = _ControlState.read(os.path.join(plain, "_ctl", CHECKPOINT_NAME))
    assert len(st.segments) == 8 and st.partials.num_rows == 0
    salt = ReplayConfig(num_partitions=8, salt_hot=True)
    land = str(tmp_path / "land")
    landed = _land([p for pr in pairs[:4] for p in pr], land)
    replay_dataset(sorted(landed), salt)
    assert sorted(computed) == sorted(landed)
    for lo, hi in ((4, 5), (5, 7)):    # k = 2, then k = 4 new segments
        new = _land([p for pr in pairs[lo:hi] for p in pr], land)
        landed += new
        computed.clear()
        replay_dataset(sorted(landed), salt)
        assert sorted(computed) == sorted(new)
    # a replay without salting keeps the partials a salting one stored
    replay_dataset(sorted(landed), ReplayConfig(num_partitions=8))
    st = _ControlState.read(os.path.join(land, "_ctl", CHECKPOINT_NAME))
    assert set(st.partials["seg"].to_pylist()) == set(landed)


def _with(row: pa.Table, **cols) -> pa.Table:
    """A one-row table with the named columns replaced."""
    for k, v in cols.items():
        i = row.schema.get_field_index(k)
        row = row.set_column(i, k, pa.array([v], row.schema.field(k).type))
    return row


def _late_txn_stream(tmp_path, b_seq: int, c_seq: int):
    """A copy of a generated stream plus one shard-0 transaction that
    begins and inserts three fresh rows in segment ``b_seq`` and commits
    in segment ``c_seq``. Returns (segment paths, its xid, its begin SCN,
    the stream, the stream without its commit)."""
    d = ensure_changelog(GenConfig(scale=0.002, segments_per_shard=8))
    src = str(tmp_path / "src")
    for p in sorted(glob.glob(d + "/*.parquet")):
        _land([p], src)
    early = os.path.join(src, f"shard00-seg{b_seq:04d}.parquet")
    late = os.path.join(src, f"shard00-seg{c_seq:04d}.parquet")
    xid = "xlate"
    t, lt = pq.read_table(early), pq.read_table(late)

    def like(table, op):
        return table.filter(pc.equal(table["op"], op)).slice(0, 1)

    begin = pc.min(t["scn"]).as_py() + 1
    mid = (pc.min(lt["scn"]).as_py() + pc.max(lt["scn"]).as_py()) // 2
    mid += (6 - (mid - 1000)) % 13      # no other commit shares this SCN
    ins = [_with(like(t, "I"), xid=xid, scn=begin + j, scn_idx=j,
                 turn_idx=5_000_000 + j) for j in (1, 2, 3)]
    for path, table, rows in (
            (early, t, [_with(like(t, "B"), xid=xid, scn=begin, scn_idx=0)]
             + ins),
            (late, lt, [_with(like(lt, "C"), xid=xid, scn=mid,
                              scn_idx=1 << 20)])):
        pq.write_table(pa.concat_tables([table] + rows).sort_by(
            [("scn", "ascending"), ("scn_idx", "ascending")]), path)
        os.remove(os.path.join(src, "_ctl", os.path.basename(path)))
    write_control_sidecars([early, late])
    paths = sorted(glob.glob(src + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    without = full.filter(pc.invert(pc.and_(pc.equal(full["op"], "C"),
                                            pc.equal(full["xid"], xid))))
    return paths, xid, begin, full, without


def _expected(table):
    return apply_naive(table).sort_by([("conv_id", "ascending"),
                                       ("turn_idx", "ascending")])


def _committed(res, xid: str) -> bool:
    """Whether the replay's broadcast commit lookup, built from the
    segments its event read got, holds ``xid``."""
    return bool(np.isin(xid_hash(pa.array([xid])),
                        res.control.decode_broadcast(res.segments_read)[0]))


def test_late_commit_below_floor_is_applied(tmp_path):
    """A transaction begins in a segment that lies more than the prior
    span below the floor and commits in a newly landed segment: the span
    widens in that iteration, its old segment comes back into the read,
    and the lake equals the oracle."""
    paths, xid, begin, full, without = _late_txn_stream(tmp_path, 1, 6)
    want = _expected(full)
    assert not _expected(without).equals(want), "the txn must be visible"
    pairs = _pairs(paths)
    early = os.path.join(os.path.dirname(paths[0]), "shard00-seg0001.parquet")
    land, lake = str(tmp_path / "land"), str(tmp_path / "lake")
    landed = _land([p for pr in pairs[:5] for p in pr], land)
    replay_to_lake(sorted(landed), lake, TAIL)
    landed += _land(pairs[5], land)
    floor = MF.global_watermark(MF.read_lake_state(lake), TAIL.num_partitions)
    res = replay_to_lake(sorted(landed), lake, TAIL)
    assert not _committed(res, xid)
    assert begin <= floor - res.control.max_txn_span
    read = {os.path.basename(p) for p in res.segments_read}
    assert os.path.basename(early) not in read
    landed += _land([p for pr in pairs[6:] for p in pr], land)
    res = replay_to_lake(sorted(landed), lake, TAIL)
    assert _committed(res, xid)
    assert os.path.basename(early) in {os.path.basename(p)
                                       for p in res.segments_read}
    assert sorted_table(read_lake(lake), want.schema).equals(want)


def test_txn_open_across_iterations_is_applied(tmp_path):
    """A transaction stays open across two iterations and commits in the
    third: it is applied once, and the lake equals the oracle."""
    paths, xid, _, full, without = _late_txn_stream(tmp_path, 4, 6)
    want = _expected(full)
    assert not _expected(without).equals(want), "the txn must be visible"
    pairs = _pairs(paths)
    land, lake = str(tmp_path / "land"), str(tmp_path / "lake")
    landed: list[str] = []
    for upto in (5, 6, len(pairs)):
        landed += _land([p for pr in pairs[len(landed) // 2:upto]
                         for p in pr], land)
        res = replay_to_lake(sorted(landed), lake, TAIL)
        committed = _committed(res, xid)
        assert committed == (upto == len(pairs))
    assert sorted_table(read_lake(lake), want.schema).equals(want)


def test_txn_max_events_resume_equals_one_shot(tmp_path, gen_small):
    """With ``txn_max_events`` set, a replay resumed over two increments
    (the second reading a pruned segment list) equals the one-shot replay
    over all segments."""
    import dataclasses

    from olrx.pipelines.replay import oversized_xids

    _, _, paths, _ = gen_small
    cfg = dataclasses.replace(TAIL, txn_max_events=15)
    assert oversized_xids(paths, cfg.txn_max_events)
    one = str(tmp_path / "one")
    replay_to_lake(paths, one, cfg)
    two = str(tmp_path / "two")
    replay_to_lake([p for p in paths if "seg0000" in p or "seg0001" in p],
                   two, cfg)
    res = replay_to_lake(paths, two, cfg)
    assert set(res.segments_read) < set(paths), "the resume must prune"
    assert sorted_table(read_lake(two)).equals(sorted_table(read_lake(one)))


def test_control_without_sidecars_equals_sidecars(tmp_path, gen_small):
    """Segments without ``_ctl`` sidecars fold the control rows derived
    from the segments themselves: every control fact, segment ranges
    included, equals the sidecar fold, and no ``_ctl`` directory is
    created."""
    _, _, paths, _ = gen_small
    (tmp_path / "bare").mkdir()
    bare = [shutil.copy(p, tmp_path / "bare") for p in paths]
    assert_same_control(load_control(bare), load_control(paths))
    assert not os.path.exists(tmp_path / "bare" / "_ctl")


def test_sidecar_landing_late_folds_from_empty(tmp_path, gen_small,
                                              sidecar_reads):
    """A segment folded without its sidecar is recorded as such: when the
    sidecar lands, the next call folds from empty and still equals the
    sidecar fold."""
    _, _, paths, _ = gen_small
    landed = _land(paths, str(tmp_path / "land"))
    late = landed[-2:]
    for p in late:
        os.remove(os.path.join(os.path.dirname(p), "_ctl", os.path.basename(p)))
    want = load_control(paths)
    assert_same_control(load_control(landed), want)
    write_control_sidecars(late)
    sidecar_reads.clear()
    assert_same_control(load_control(landed), want)
    assert len(sidecar_reads.fold) == len(landed), "must fold from empty"


def _control_segment(path, rows):
    """A segment holding only the control rows ``rows`` (op, xid, scn[,
    ddl]) on shard ``path``'s shard, and its sidecar."""
    shard = int(os.path.basename(path)[5:7])
    pq.write_table(pa.Table.from_pylist(
        [dict(op=op, xid=xid, scn=scn, scn_idx=i, shard=shard, seq=0,
              ddl=ddl[0] if ddl else None)
         for i, (op, xid, scn, *ddl) in enumerate(rows)],
        schema=S.changelog_schema()), path)
    write_control_sidecars([path])
    return path


def _ddl_segments(src):
    """Synthetic segments: ``early`` commits an unrelated txn (scn 1-5);
    ``ddl`` begins an add-column and a rename txn and holds their DDL rows
    (scn 10-14); ``commit``, on the other shard, commits both (scn 20-21)."""
    os.makedirs(src)
    add = json.dumps({"add_columns": [{"name": "tool_meta",
                                       "type": "string"}]})
    rename = json.dumps({"rename_columns": {"tool": "tool_label"}})
    early = _control_segment(os.path.join(src, "shard00-seg0000.parquet"),
                             [("B", "x0", 1), ("C", "x0", 5)])
    ddl = _control_segment(os.path.join(src, "shard00-seg0001.parquet"),
                           [("B", "xa", 10), ("DDL", "xa", 11, add),
                            ("B", "xr", 12), ("DDL", "xr", 14, rename)])
    commit = _control_segment(os.path.join(src, "shard01-seg0001.parquet"),
                              [("C", "xa", 20), ("C", "xr", 21)])
    return early, ddl, commit


def test_ddl_commit_folding_later_or_earlier(tmp_path, sidecar_reads):
    """A DDL transaction whose C row folds in a later call than its DDL
    rows, and one whose C row folds in an earlier call: at every landing
    the DDL facts equal a fresh scan. A DDL row that folds after its C row
    reads the commit rows only of the covered segments whose scn range
    reaches the row's scn."""
    early, ddl, commit = _ddl_segments(str(tmp_path / "src"))
    for name, order in (("later", (early, ddl, commit)),
                        ("earlier", (early, commit, ddl))):
        land = str(tmp_path / name)
        landed: list[str] = []
        for p in order:
            landed += _land([p], land)
            sidecar_reads.clear()
            got = load_control(sorted(landed))
            reads = [os.path.basename(p) for p in sidecar_reads.broadcast]
            assert_same_control(got, fresh_scan(sorted(landed), tmp_path))
            folded = {os.path.basename(p) for p in landed}
            if os.path.basename(commit) not in folded:
                assert got.ddl_scns == [] and got.rename_ops == ()
            if name == "earlier" and p == ddl:
                assert reads == [os.path.basename(commit)], reads
            else:
                assert reads == []
        assert got.ddl_scns == [20]
        assert got.rename_ops == ((21, "tool", "tool_label"),)


def test_capped_max_commit_scn_on_resumed_input(tmp_path, gen_small):
    """On an input folded in two calls, ``capped(e).max_commit_scn`` is the
    largest C-row SCN at or below ``e``, and the capped broadcast holds
    exactly the commits at or below it."""
    _, _, paths, full = gen_small
    landed = _land(paths, str(tmp_path / "land"))
    load_control(landed[:4])
    control = load_control(landed)
    scns = np.sort(full.filter(pc.equal(full["op"], "C"))["scn"].to_numpy())
    for e in (scns[0] - 1, scns[0], scns[len(scns) // 2] + 1,
              scns[-1] - 1, scns[-1]):
        below = scns[scns <= e]
        capped = control.capped(int(e))
        assert capped.max_commit_scn == (below[-1] if len(below) else -1)
        assert len(capped.decode_broadcast()[0]) == len(below)
