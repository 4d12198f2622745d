"""Schema evolution: physically-mixed segment schemas (pre/post-DDL files).

The reference applies dictionary DML at the DDL's SCN and serializes the
evolved schema into checkpoints (SystemTransaction.cpp:729,
SerializerJson.cpp:805-820). Here: early log segments genuinely LACK the
additive column in their ``after`` struct; the reader must unify and the
replay must produce the full-width table with nulls for pre-DDL rows.
"""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from olrx.gen import GenConfig, ensure_changelog
from olrx.oracle import apply_naive
from olrx.pipelines.replay import ReplayConfig, replay_dataset
from tests.conftest import sorted_table


def test_mixed_schema_replay(mixed_schema_dir):
    dst, src = mixed_schema_dir
    paths = sorted(glob.glob(dst + "/*.parquet"))
    full = pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(src + "/*.parquet"))])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    res = replay_dataset(paths, ReplayConfig(num_partitions=8))
    got = sorted_table(res.dataset, exp.schema)
    assert got.equals(exp)


def test_mixed_schemas_in_one_read_group(mixed_schema_dir, tmp_path,
                                         monkeypatch):
    """Every segment in ONE read group, opening with a narrow pre-DDL file
    and holding wide ones after it: each file is read under its own
    schema, so neither the wide files' ``tool_meta`` values are dropped nor
    the narrow files fail, and both replay modes equal the oracle."""
    from olrx.pipelines.replay import read_lake, replay_to_lake

    dst, src = mixed_schema_dir
    paths = sorted(glob.glob(dst + "/*.parquet"))
    widths = [len(pq.read_schema(p).field("after").type) for p in paths]
    assert widths[0] < max(widths), "the group must open with a narrow file"
    monkeypatch.setattr("olrx.pipelines.replay.route_group_count",
                        lambda nbytes, num_files, cpus: 1)
    full = pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(src + "/*.parquet"))])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert pc.sum(pc.is_valid(exp["tool_meta"])).as_py() > 0
    cfg = ReplayConfig(num_partitions=8)
    res = replay_dataset(paths, cfg)
    assert sorted_table(res.dataset, exp.schema).equals(exp)
    lake = str(tmp_path / "lake")
    replay_to_lake(paths, lake, cfg, resume=False)
    assert sorted_table(read_lake(lake), exp.schema).equals(exp)


def test_drop_column_mid_stream():
    """Non-additive evolution (reference SystemTransaction::processDelete,
    /root/reference/src/builder/SystemTransaction.cpp:640): tool_meta is
    added at ddl_scn and DROPPED again at drop_scn. The final table must
    lack the column entirely; pre-drop rows (whose images carry it) stay
    replayable. Engine vs the independent naive oracle, row-for-row."""
    import json

    d = ensure_changelog(GenConfig(scale=0.001, ddl_drop=True))
    meta = json.load(open(os.path.join(d, "_COMPLETE")))
    assert meta["drop_scn"] > meta["ddl_scn"] > 0
    paths = sorted(glob.glob(d + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert "tool_meta" not in exp.schema.names  # oracle models the drop
    res = replay_dataset(paths, ReplayConfig(num_partitions=8))
    got = sorted_table(res.dataset, exp.schema)
    assert got.equals(exp)


def test_drop_column_lake_fence_and_resume(tmp_path):
    """The lake manifests record the dropped column (the version fence) and
    an incremental replay across the drop boundary converges to the same
    dropped-schema state: partitions written pre-drop carry tool_meta in
    their snapshots, the resumed run removes it."""
    import json

    from olrx.pipelines.replay import read_lake, replay_to_lake
    from olrx.state import manifest as MF

    d = ensure_changelog(GenConfig(scale=0.001, ddl_drop=True))
    paths = sorted(glob.glob(d + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8)
    # leg 1: only the first segments (the drop DDL commits late in the
    # stream, so this lake may still carry tool_meta)
    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    replay_to_lake(first, out, cfg)
    # leg 2: full stream resumes over the same lake — crosses the drop
    replay_to_lake(paths, out, cfg)
    got = sorted_table(read_lake(out), exp.schema)
    assert got.equals(exp)
    ms = MF.read_all(os.path.join(out, "_manifest"))
    assert ms and all(m.dropped_columns == ["tool_meta"] for m in ms.values())


def test_rename_column_mid_stream():
    """Dictionary-row UPDATE (reference SystemTransaction::processUpdate,
    /root/reference/src/builder/SystemTransaction.cpp:525): `tool` is renamed
    to `tool_label` at rename_scn. Data and column identity are untouched —
    the final table carries the NEW name over all rows (pre- and post-rename
    values alike). Engine vs the independent naive oracle, row-for-row."""
    import json

    d = ensure_changelog(GenConfig(scale=0.001, ddl_rename=True))
    meta = json.load(open(os.path.join(d, "_COMPLETE")))
    assert meta["rename_scn"] > 0
    paths = sorted(glob.glob(d + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert "tool_label" in exp.schema.names and "tool" not in exp.schema.names
    res = replay_dataset(paths, ReplayConfig(num_partitions=8))
    got = sorted_table(res.dataset, exp.schema)
    assert got.equals(exp)


def test_rename_column_lake_fence_and_resume(tmp_path):
    """The lake manifests record the rename mapping (version fence) and an
    incremental replay across the rename boundary converges: partitions
    checkpointed pre-rename store `tool`, the resumed run re-labels the same
    physical data `tool_label` without orphaning it."""
    import json

    from olrx.pipelines.replay import read_lake, replay_to_lake
    from olrx.state import manifest as MF

    from olrx.pipelines.timetravel import read_lake_asof

    d = ensure_changelog(GenConfig(scale=0.001, ddl_rename=True))
    meta = json.load(open(os.path.join(d, "_COMPLETE")))
    paths = sorted(glob.glob(d + "/*.parquet"))
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, snapshot_keep=2)
    # leg 1: stop BEFORE the rename commits — the lake snapshot stores `tool`
    import dataclasses
    cfg1 = dataclasses.replace(cfg, end_commit_scn=meta["rename_scn"] - 1)
    replay_to_lake(paths, out, cfg1)
    ms1 = MF.read_all(os.path.join(out, "_manifest"))
    assert ms1 and all(m.renamed_columns == {} for m in ms1.values())
    # leg 2: full stream resumes over the same lake — crosses the rename
    replay_to_lake(paths, out, cfg)
    got = sorted_table(read_lake(out), exp.schema)
    assert got.equals(exp)
    ms = MF.read_all(os.path.join(out, "_manifest"))
    assert ms and all(m.renamed_columns == {"tool": "tool_label"}
                      for m in ms.values())
    # snapshots store the physical name; the rename lives in footers only
    for m in ms.values():
        names = pq.read_schema(os.path.join(out, m.files[0])).names
        assert "tool" in names and "tool_label" not in names
    # the pre-rename snapshots' footer mapping keeps their epoch's label
    cut = meta["rename_scn"] - 1
    late = full.filter(pc.and_(pc.equal(full["op"], "C"),
                               pc.greater(full["scn"], cut)))["xid"]
    exp_cut = apply_naive(full.filter(pc.invert(
        pc.is_in(full["xid"], value_set=late.combine_chunks())))).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert "tool" in exp_cut.schema.names
    asof = sorted_table(read_lake_asof(out, cut), exp_cut.schema)
    assert asof.equals(exp_cut)


def _synthetic_ddl_segment(src_dir: str, dst_dir: str, *, seq: int,
                           scn: int, xid: str, payload: str) -> str:
    """Clone the generator's 3-row committed DDL txn shape (B / DDL / C —
    see olrx/gen.py ddl_txns) into a fresh segment file with the given
    commit position, so tests can extend a cached changelog with extra DDLs
    without regenerating (the cache dir itself is never touched)."""
    import json as _json

    src = pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(src_dir + "/*.parquet"))])
    proto = src.filter(pc.equal(src["xid"], "xrename"))
    assert proto.num_rows == 3, "generator DDL txn shape changed"
    order = pc.sort_indices(proto, sort_keys=[("scn_idx", "ascending")])
    proto = proto.take(order)   # B, DDL, C
    edits = {
        "scn": pa.array([scn - 1, scn, scn], pa.int64()),
        "scn_idx": proto["scn_idx"],
        "seq": pa.array([seq] * 3, pa.int32()),
        "xid": pa.array([xid] * 3, pa.string()),
        "ddl": pa.array([None, payload, None], pa.string()),
    }
    t = proto
    for name, col in edits.items():
        t = t.set_column(t.schema.get_field_index(name), name, col)
    _json.loads(payload)    # payload must be valid JSON
    out = os.path.join(dst_dir, f"shard00-seg{seq:04d}.parquet")
    pq.write_table(t, out)
    return out


@pytest.fixture(scope="module")
def chained_rename_dir(tmp_path_factory):
    """The ddl_rename changelog (tool → tool_label) plus a SECOND committed
    rename (tool_label → tool_tag) appended after the stream's max SCN."""
    src = ensure_changelog(GenConfig(scale=0.001, ddl_rename=True))
    dst = tmp_path_factory.mktemp("chain")
    import shutil

    for p in sorted(glob.glob(src + "/*.parquet")):
        shutil.copy(p, str(dst / os.path.basename(p)))
    _synthetic_ddl_segment(
        src, str(dst), seq=4, scn=9001, xid="xrename2",
        payload='{"rename_columns": {"tool_label": "tool_tag"}}')
    return str(dst)


def test_rename_chain_resolves_to_last(chained_rename_dir):
    """A rename CHAIN (tool → tool_label → tool_tag, two committed
    dictionary-row UPDATEs) resolves to the last display name over one
    stable physical identity: the control pass maps physical `tool` straight
    to `tool_tag`, and the replayed table carries only the final name —
    engine vs the independent naive oracle (which resolves chains with its
    own reverse lookup), row-for-row."""
    from olrx.stages.decode import load_control

    paths = sorted(glob.glob(chained_rename_dir + "/*.parquet"))
    info = load_control(paths)
    assert info.renamed_columns == {"tool": "tool_tag"}
    assert [(p, n) for _, p, n in info.rename_ops] == \
        [("tool", "tool_label"), ("tool", "tool_tag")]
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert "tool_tag" in exp.schema.names
    assert not {"tool", "tool_label"} & set(exp.schema.names)
    res = replay_dataset(paths, ReplayConfig(num_partitions=8))
    got = sorted_table(res.dataset, exp.schema)
    assert got.equals(exp)


def test_rename_then_drop_by_new_name(chained_rename_dir, tmp_path):
    """A DROP that names the post-rename display name must resolve through
    the rename chain to the physical column (reference SystemTransaction
    applies dictionary UPDATEs and DELETEs in commit order): dropping
    `tool_tag` removes physical `tool`, and the final table carries none of
    the three names."""
    import shutil

    from olrx.stages.decode import load_control

    d = str(tmp_path / "chain_drop")
    os.makedirs(d)
    for p in sorted(glob.glob(chained_rename_dir + "/*.parquet")):
        shutil.copy(p, os.path.join(d, os.path.basename(p)))
    src = ensure_changelog(GenConfig(scale=0.001, ddl_rename=True))
    _synthetic_ddl_segment(
        src, d, seq=5, scn=9101, xid="xdrop2",
        payload='{"drop_columns": ["tool_tag"]}')
    paths = sorted(glob.glob(d + "/*.parquet"))
    info = load_control(paths)
    assert info.dropped_columns == ("tool",)
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    exp = apply_naive(full).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert not {"tool", "tool_label", "tool_tag"} & set(exp.schema.names)
    res = replay_dataset(paths, ReplayConfig(num_partitions=8))
    got = sorted_table(res.dataset, exp.schema)
    assert got.equals(exp)


def _copy_stream(tmp_path, **gen) -> str:
    import shutil

    src = ensure_changelog(GenConfig(scale=0.001, **gen))
    d = str(tmp_path / "stream")
    os.makedirs(d)
    for p in sorted(glob.glob(src + "/*.parquet")):
        shutil.copy(p, os.path.join(d, os.path.basename(p)))
    return d


def _rename_increment(d: str, seq: int, scn: int, rename: str,
                      conv_id: str) -> str:
    return _ddl_increment(d, seq, scn, '{"rename_columns": %s}' % rename,
                          conv_id)


def _ddl_increment(d: str, seq: int, scn: int, ddl: "str | None",
                   conv_id: "str | None") -> str:
    """Append segment ``seq``: one committed DDL ``ddl`` at ``scn + 1`` plus
    one committed single-row INSERT of the brand-new conversation
    ``conv_id`` at ``scn + 50`` — exactly one partition sees fresh events.
    A None ``ddl`` or ``conv_id`` leaves that transaction out. Returns the
    segment's path."""
    full = pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(d + "/*.parquet"))])
    donor_i = full.filter(pc.equal(full["op"], "I")).slice(0, 1).to_pylist()[0]
    donor_b = full.filter(pc.equal(full["op"], "B")).slice(0, 1).to_pylist()[0]
    donor_c = full.filter(pc.equal(full["op"], "C")).slice(0, 1).to_pylist()[0]

    def _row(donor, **kw):
        r = dict(donor)
        r.update(shard=0, seq=seq, **kw)
        return r

    xr, xn = f"xddl{seq}", f"xnew{seq}"
    rows = [
        _row(donor_b, xid=xr, scn=scn, scn_idx=0),
        _row(donor_b, xid=xr, op="DDL", scn=scn + 1, scn_idx=1, ddl=ddl),
        _row(donor_c, xid=xr, scn=scn + 1, scn_idx=1048576),
    ] * (ddl is not None) + [
        _row(donor_b, xid=xn, scn=scn + 49, scn_idx=0),
        _row(donor_i, xid=xn, scn=scn + 50, scn_idx=0,
             conv_id=conv_id, turn_idx=0),
        _row(donor_c, xid=xn, scn=scn + 50, scn_idx=1048576),
    ] * (conv_id is not None)
    seg = pa.Table.from_pylist(rows, schema=full.schema)
    out = os.path.join(d, f"shard00-seg{seq:04d}.parquet")
    pq.write_table(seg, out)
    return out


def _naive(paths: list[str]) -> pa.Table:
    return apply_naive(
        pa.concat_tables([pq.read_table(p) for p in paths])).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])


def test_rename_with_stale_partitions(tmp_path):
    """A rename increment that routes events to only ONE partition must not
    corrupt the others. Parquet schema projection matches by NAME, so before
    this round's fix `read_lake` silently NULLed the `tool` data of every
    partition whose snapshot predated the rename (its manifest — and file —
    still said `tool` while the unified schema asked for `tool_label`), and
    `read_lake_asof` unioned both names as separate half-null columns. Both
    reads must relabel per epoch: renames change display only, physical
    identity is stable (SystemTransaction.cpp:525)."""
    from olrx.pipelines.replay import read_lake, replay_to_lake
    from olrx.pipelines.timetravel import read_lake_asof
    from olrx.state import manifest as MF

    d = _copy_stream(tmp_path)
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, snapshot_keep=4)
    # leg 1: full replay of the original stream — every snapshot says `tool`
    replay_to_lake(sorted(glob.glob(d + "/*.parquet")), out, cfg)

    # leg 2: incremental replay — only zz-new-conv's partition rewrites
    _rename_increment(d, 4, 9000, '{"tool": "tool_label"}', "zz-new-conv")
    paths = sorted(glob.glob(d + "/*.parquet"))
    replay_to_lake(paths, out, cfg)
    ms = MF.read_all(os.path.join(out, "_manifest"))
    epochs = {tuple(sorted(m.renamed_columns.items())) for m in ms.values()}
    assert epochs == {(), (("tool", "tool_label"),)}, \
        "test premise: the lake must hold BOTH rename epochs"

    exp = _naive(paths)
    assert "tool_label" in exp.schema.names
    got = sorted_table(read_lake(out), exp.schema)
    assert got.equals(exp)   # stale partitions' tool values NOT nulled

    # as-of at the final commit straddles the rename across partitions
    asof = sorted_table(read_lake_asof(out, 9050), exp.schema)
    assert asof.equals(exp)


def test_rename_epochs_resolve_to_the_newest(tmp_path, monkeypatch):
    """Two non-empty rename epochs side by side: a stale partition still at
    {tool: tool_label} next to a fresh one at {tool: tool_tag} (plus the
    untouched pre-rename partitions). The current display name is the one
    of the manifest with the greatest watermark, so both reads label the
    column `tool_tag` whatever order the manifests are listed in."""
    from olrx.pipelines.replay import read_lake, replay_to_lake
    from olrx.pipelines.timetravel import read_lake_asof
    from olrx.stages.partition import partition_ids
    from olrx.state import manifest as MF

    conv_a = "zz-new-conv"
    part_a = partition_ids(pa.array([conv_a]), pa.array([0]), 8)[0]
    conv_b = next(c for c in (f"zz-new-conv-{k}" for k in range(100))
                  if partition_ids(pa.array([c]), pa.array([0]), 8)[0]
                  != part_a)
    d = _copy_stream(tmp_path)
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, snapshot_keep=4)
    replay_to_lake(sorted(glob.glob(d + "/*.parquet")), out, cfg)
    _rename_increment(d, 4, 9000, '{"tool": "tool_label"}', conv_a)
    replay_to_lake(sorted(glob.glob(d + "/*.parquet")), out, cfg)
    _rename_increment(d, 5, 9100, '{"tool_label": "tool_tag"}', conv_b)
    paths = sorted(glob.glob(d + "/*.parquet"))
    replay_to_lake(paths, out, cfg)
    ms = MF.read_all(os.path.join(out, "_manifest"))
    epochs = {tuple(sorted(m.renamed_columns.items())) for m in ms.values()}
    assert epochs == {(), (("tool", "tool_label"),),
                      (("tool", "tool_tag"),)}, \
        "test premise: the lake must hold both non-empty rename epochs"

    exp = _naive(paths)
    assert "tool_tag" in exp.schema.names
    assert not {"tool", "tool_label"} & set(exp.schema.names)
    read_all = MF.read_all
    for reverse in (False, True):
        monkeypatch.setattr(MF, "read_all", lambda mdir: dict(
            sorted(read_all(mdir).items(), reverse=reverse)))
        assert MF.read_lake_state(out).epoch.renamed == {"tool": "tool_tag"}
        assert sorted_table(read_lake(out), exp.schema).equals(exp), reverse
        asof = sorted_table(read_lake_asof(out, 9150), exp.schema)
        assert asof.equals(exp), reverse


def test_drop_by_prior_display_name(tmp_path):
    """An increment passed without its earlier segments names columns by
    the prior run's display names. Its DROP of `tool_label` must resolve
    through the prior rename to physical `tool`, as its renames do — not be
    recorded under the display name and silently ignored."""
    from olrx.pipelines.replay import read_lake, replay_to_lake
    from olrx.state import manifest as MF

    d = _copy_stream(tmp_path, ddl_rename=True)
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8)
    replay_to_lake(sorted(glob.glob(d + "/*.parquet")), out, cfg)
    seg = _ddl_increment(d, 4, 9000, '{"drop_columns": ["tool_label"]}',
                         "zz-new-conv")
    replay_to_lake([seg], out, cfg, resume=True)
    ms = MF.read_all(os.path.join(out, "_manifest"))
    assert {tuple(m.dropped_columns) for m in ms.values()} == {(), ("tool",)}
    exp = _naive(sorted(glob.glob(d + "/*.parquet")))
    assert not {"tool", "tool_label"} & set(exp.schema.names)
    got = sorted_table(read_lake(out), exp.schema)
    assert got.equals(exp)


def test_asof_across_drop(tmp_path):
    """An as-of read whose chosen snapshots straddle a committed DROP: the
    partitions the drop increment did not touch still store `tool_meta`,
    the rewritten one does not. The newest snapshot's schema projects the
    column away from the older ones."""
    from olrx.pipelines.replay import read_lake, replay_to_lake
    from olrx.pipelines.timetravel import read_lake_asof

    d = _copy_stream(tmp_path)
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, snapshot_keep=4)
    replay_to_lake(sorted(glob.glob(d + "/*.parquet")), out, cfg)
    _ddl_increment(d, 4, 9000, '{"drop_columns": ["tool_meta"]}',
                   "zz-new-conv")
    paths = sorted(glob.glob(d + "/*.parquet"))
    res = replay_to_lake(paths, out, cfg)
    exp = _naive(paths)
    assert "tool_meta" not in exp.schema.names
    stale = [f for f in glob.glob(out + "/part-*/data-w*.parquet")
             if "tool_meta" in pq.read_schema(f).names]
    assert stale, "test premise: untouched snapshots still store tool_meta"
    assert sorted_table(read_lake(out), exp.schema).equals(exp)
    asof = read_lake_asof(out, res.control.max_commit_scn)
    assert sorted_table(asof, exp.schema).equals(exp)


@pytest.mark.parametrize("ddl,gen,shown", [
    ('{"drop_columns": ["tool_meta"]}', {}, False),
    ('{"add_columns": [{"name": "tool_meta", "type": "string"}]}',
     {"ddl": False}, True),
], ids=["drop", "add"])
def test_ddl_only_increment_shows_in_read_lake(tmp_path, ddl, gen, shown):
    """A resume whose only new committed change is a DDL routes no events,
    so it commits no partition. ``read_lake``'s columns still show the DDL
    at once (the lake record carries the replay's epoch), and the next
    resume that carries events, given only its new segment, stays
    oracle-equal: its plan starts from the same epoch."""
    from olrx.pipelines.replay import read_lake, replay_to_lake

    d = _copy_stream(tmp_path, **gen)
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8)
    replay_to_lake(sorted(glob.glob(d + "/*.parquet")), out, cfg)
    assert ("tool_meta" in read_lake(out).schema().names) != shown
    _ddl_increment(d, 4, 9000, ddl, None)
    paths = sorted(glob.glob(d + "/*.parquet"))
    res = replay_to_lake(paths, out, cfg)
    assert not res.stats.num_rows or res.stats["skipped"].to_pylist() == [
        True] * res.stats.num_rows, "test premise: no partition commits"
    exp = _naive(paths)
    assert ("tool_meta" in exp.schema.names) == shown
    got = read_lake(out)
    assert got.schema().names == exp.schema.names
    assert sorted_table(got, exp.schema).equals(exp)
    seg = _ddl_increment(d, 5, 9100, None, "zz-new-conv")
    replay_to_lake([seg], out, cfg)
    exp = _naive(sorted(glob.glob(d + "/*.parquet")))
    got = read_lake(out)
    assert got.schema().names == exp.schema.names
    assert sorted_table(got, exp.schema).equals(exp)


def test_old_layout_lake_fails_fast(tmp_path):
    """A snapshot without the footer display mapping was written before
    snapshots stored physical names. Every entry point refuses such a lake
    with a rebuild hint instead of nulling renamed columns, and a resume
    refuses before writing anything."""
    from olrx.pipelines.replay import read_lake, replay_to_lake
    from olrx.pipelines.timetravel import read_lake_asof
    from olrx.state.manifest import retained_snapshots

    paths = sorted(glob.glob(
        ensure_changelog(GenConfig(scale=0.001)) + "/*.parquet"))
    out = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=1)
    replay_to_lake(paths, out, cfg)
    (snap,) = glob.glob(out + "/part-*/data-w*.parquet")
    pq.write_table(pq.read_table(snap).replace_schema_metadata(None), snap)
    mpath = os.path.join(out, "_manifest", "part-00000.json")
    before = open(mpath).read(), os.path.getmtime(snap)
    msg = "lake written before physical column names"
    with pytest.raises(ValueError, match=msg):
        read_lake(out)
    (wm,) = retained_snapshots(out, 0)
    with pytest.raises(ValueError, match=msg):
        read_lake_asof(out, wm)
    with pytest.raises(ValueError, match=msg):
        replay_to_lake(paths, out, cfg, resume=True)
    assert (open(mpath).read(), os.path.getmtime(snap)) == before
