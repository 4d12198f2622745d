"""Validation stage, metrics report, message-stream emitter, job specs."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from olrx.pipelines.replay import ReplayConfig, replay_to_lake
from olrx.stages.validate import SegmentValidator, validate_segments
from olrx.state.metrics import lake_metrics
from tests.test_ops import SF


def test_validate_clean_segments(gen_small):
    _, _, paths, full = gen_small
    out = validate_segments(paths, strict=True)
    assert out["rows_ok"] == full.num_rows


def test_validate_catches_corruption(gen_small):
    _, _, paths, _ = gen_small
    t = pq.read_table(paths[0])
    # corrupt: null out conv_id on DML rows
    import pyarrow.compute as pc
    conv = pc.if_else(pc.equal(t["op"], "I"),
                      pa.nulls(t.num_rows, pa.string()), t["conv_id"])
    bad = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", conv)
    v = SegmentValidator(strict=True)
    with pytest.raises(ValueError, match="null row key"):
        v(bad)
    # permissive mode drops the bad rows instead
    cleaned = SegmentValidator(strict=False)(bad)
    n_bad = pc.sum(pc.equal(bad["op"], "I")).as_py()
    assert cleaned.num_rows == bad.num_rows - n_bad


def test_lake_metrics(tmp_path, gen_small):
    _, _, paths, _ = gen_small
    out = str(tmp_path / "lake")
    replay_to_lake(paths, out, ReplayConfig(num_partitions=16))
    m = lake_metrics(out)
    assert m.partitions == 16
    assert m.rows > 0
    assert m.watermark_min == m.watermark_max  # batch mode: all confirmed equal
    assert m.counters["events"] > 0
    assert m.lag_partitions == 0


def test_message_stream_order_and_shape(gen_small):
    from olrx.pipelines.emit import message_stream

    _, _, paths, _ = gen_small
    df = message_stream(paths, ReplayConfig(num_partitions=8),
                        scn_buckets=8).to_pandas()
    assert len(df) > 0
    # within each bucket the stream is commit-ordered
    for _, g in df.groupby("scn_bucket"):
        key = list(zip(g["c_scn"], g["order_idx"]))
        assert key == sorted(key)
    msg = json.loads(df.iloc[0]["msg"])
    assert {"c_scn", "c_idx", "payload"} <= set(msg)
    assert msg["payload"][0]["op"] == "begin"   # every txn opens with begin


def test_job_spec_validation(tmp_path):
    from olrx.pipelines.job import run_job

    with pytest.raises(ValueError, match="source"):
        run_job({"target": {"uri": str(tmp_path)}})
    with pytest.raises(ValueError, match="unknown mode"):
        run_job({"source": {"paths": ["/x"]},
                 "target": {"uri": str(tmp_path)}, "mode": "stream"})
    with pytest.raises(ValueError, match="target.uri"):
        run_job({"source": {"paths": [__file__]}, "target": {}})


def test_job_spec_full_filter_surface():
    """Every reference §2.6 config field reaches the ReplayConfig — the
    start positions and big-txn guard are settable from the job spec, not
    only from Python."""
    from olrx.pipelines.job import _build_config

    cfg = _build_config({
        "source": {"paths": ["/x"]},
        "filter": {"skip_xids": ["x1"], "conv_regex": "^c", "condition": "op == 'I'",
                   "start_commit_scn": 7, "start_time_us": 123, "start_seq": 2,
                   "txn_max_events": 500, "table_regex": "^t0$"},
        "target": {"uri": "/lake", "multi_table": True, "output_codec": "snappy"},
    })
    assert cfg.skip_xids == ("x1",) and cfg.conv_regex == "^c"
    assert cfg.start_commit_scn == 7 and cfg.start_time_us == 123
    assert cfg.start_seq == 2 and cfg.txn_max_events == 500
    assert cfg.table_regex == "^t0$" and cfg.multi_table
    assert cfg.output_codec == "snappy"
    rel = _build_config({"source": {"paths": ["/x"]},
                         "filter": {"start_time_rel_us": 10_000},
                         "target": {"uri": "/lake"}})
    assert rel.start_time_rel_us == 10_000 and rel.start_time_us is None


def test_message_stream_envelope_shape(tmp_path):
    """Reference-shaped envelopes (example-free-23/output.json): begin/commit
    bracket each txn, u/d carry before images, i/u carry after, chkpt closes
    buckets."""
    import glob
    import json

    from olrx.gen import GenConfig, ensure_changelog
    from olrx.pipelines.emit import message_stream
    from olrx.pipelines.replay import ReplayConfig

    d = ensure_changelog(GenConfig(scale=0.001, partial_images=True))
    paths = sorted(glob.glob(d + "/*.parquet"))
    msgs = [json.loads(m) for m in
            message_stream(paths, ReplayConfig()).to_pandas()["msg"]]
    ops = [m["payload"][0]["op"] for m in msgs]
    assert ops.count("begin") == ops.count("commit") > 0
    assert ops.count("chkpt") > 0
    assert ops.count("ddl") == 1
    saw_u_before = saw_d_before = False
    for m in msgs:
        p = m["payload"][0]
        if p["op"] in ("c", "u", "d"):
            assert "schema" in p and "rid" in p
        if p["op"] == "u":
            assert "before" in p and "after" in p
            saw_u_before = True
        if p["op"] == "d":
            assert "before" in p and "after" not in p
            saw_d_before = True
        if p["op"] == "c":
            assert "after" in p and "before" not in p
    assert saw_u_before and saw_d_before
    # begin/commit bracket per xid within the ordered stream
    by_xid = {}
    for m in msgs:
        if "xid" in m:
            by_xid.setdefault(m["xid"], []).append(m["payload"][0]["op"])
    for xid, seq in by_xid.items():
        assert seq[0] == "begin" and seq[-1] == "commit", (xid, seq[:3])


def test_scn_buckets_scale_with_input(gen_small):
    """Bucket count is input-sized (WriterFile max-file-size rotation analog,
    reference WriterFile.cpp:203-300): fixed 64 buckets would mean bucket
    size — one map_groups task's materialization — grows linearly with the
    stream."""
    from olrx.pipelines.emit import TXNS_PER_BUCKET, derived_scn_buckets, \
        message_stream

    # formula: grows linearly with committed-txn count
    assert derived_scn_buckets(1) == 1
    assert derived_scn_buckets(TXNS_PER_BUCKET) == 1
    assert derived_scn_buckets(TXNS_PER_BUCKET + 1) == 2
    assert derived_scn_buckets(100 * TXNS_PER_BUCKET) == 100
    # integration: a small per-bucket target yields multiple buckets, each
    # closed by its own chkpt record
    _, _, paths, _ = gen_small
    df = message_stream(paths, ReplayConfig(num_partitions=8),
                        txns_per_bucket=10).to_pandas()
    n_buckets = df["scn_bucket"].nunique()
    assert n_buckets > 1
    chkpts = df[df["msg"].str.contains('"op": "chkpt"')]
    assert len(chkpts) == n_buckets


def test_cdc_corpus_stats_vs_naive(expected_small):
    """Composed CDC→corpus query equals a pandas recount over the naive
    oracle's final table state."""
    from olrx.pipelines.queries import q_cdc_corpus_stats

    out = (q_cdc_corpus_stats("/root/testdata/sf0.001").to_pandas()
           .sort_values("conv_id").reset_index(drop=True))
    rep = expected_small.to_pandas()
    want = (rep.assign(total_chars=rep["text"].fillna("").str.len(),
                       n_tool_calls=rep["tool"].notna().astype(int),
                       n_user=(rep["role"] == "user").astype(int),
                       n_assistant=(rep["role"] == "assistant").astype(int),
                       n_turns=1)
            .groupby("conv_id", as_index=False)
            [["n_turns", "total_chars", "n_tool_calls", "n_user", "n_assistant"]]
            .sum().sort_values("conv_id").reset_index(drop=True))
    assert len(out) == len(want)
    for c in ["n_turns", "total_chars", "n_tool_calls", "n_user", "n_assistant"]:
        assert (out[c].to_numpy() == want[c].to_numpy()).all(), c
    assert (out["conv_id"].to_numpy() == want["conv_id"].to_numpy()).all()


def test_message_stream_roundtrip_replay(gen_small, expected_small):
    """Golden-output fidelity, consumer side: a client that replays the
    NDJSON message stream (reference strategy: line-by-line golden compare,
    tests/README.md) reconstructs the exact final table state. Full-image
    input (the gen_small fixture), so update = whole-row replace; stream
    order (c_scn, order_idx) IS commit order because commit SCNs are
    per-txn unique."""
    from olrx.pipelines.emit import message_stream

    _, _, paths, _ = gen_small
    df = (message_stream(paths, ReplayConfig(num_partitions=8), scn_buckets=8)
          .to_pandas().sort_values(["c_scn", "order_idx"]))
    state = {}
    for line in df["msg"]:
        m = json.loads(line)
        p = m["payload"][0]
        if p["op"] not in ("c", "u", "d"):
            continue
        conv, turn = p["rid"].rsplit("/", 1)
        key = (conv, int(turn))
        if p["op"] == "d":
            state.pop(key, None)
        else:
            state[key] = p["after"]
    exp = expected_small.to_pandas()
    assert len(state) == len(exp)
    for row in exp.itertuples():
        got = state[(row.conv_id, row.turn_idx)]
        assert got["role"] == row.role
        assert got["text"] == row.text
        assert got["tool"] == (None if row.tool is None or
                               (isinstance(row.tool, float)) else row.tool)


def test_stream_ingest_roundtrip(tmp_path, gen_small, expected_small):
    """write_message_stream → read_message_stream → replay_message_stream
    reproduces the naive oracle's exact final state (full-image stream)."""
    from olrx.pipelines.emit import replay_message_stream, write_message_stream

    _, _, paths, _ = gen_small
    out = str(tmp_path / "stream")
    n = write_message_stream(paths, out, ReplayConfig(num_partitions=8))
    assert n > 0
    got = (replay_message_stream(out, ReplayConfig(num_partitions=8))
           .to_pandas().sort_values(["conv_id", "turn_idx"])
           .reset_index(drop=True))
    exp = expected_small.to_pandas()
    assert len(got) == len(exp)
    for c in ["conv_id", "turn_idx", "role", "text", "tool", "ts", "tool_meta"]:
        a, b = got[c], exp[c]
        if a.dtype == object:
            assert (a.fillna("~") == b.fillna("~")).all(), c
        else:
            assert (a.to_numpy() == b.to_numpy()).all(), c


def test_message_stream_writer_deterministic(tmp_path, gen_small):
    """Two independent writes produce byte-identical file sets — the
    ordered-NDJSON reproducibility the r2 advisory asked for
    (maintain_order=True in the bucket sort), now at the file level."""
    import hashlib

    from olrx.pipelines.emit import write_message_stream

    _, _, paths, _ = gen_small
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    na = write_message_stream(paths, a, ReplayConfig(num_partitions=8))
    nb = write_message_stream(paths, b, ReplayConfig(num_partitions=8))
    assert na == nb

    def digest(d):
        return {f: hashlib.sha256(open(os.path.join(d, f), "rb").read())
                .hexdigest() for f in sorted(os.listdir(d))}

    da, db = digest(a), digest(b)
    assert da == db and len(da) > 0


def test_stream_filenames_in_range_order(tmp_path, gen_small):
    """Lexicographic filename order must equal (c_scn, order_idx) range
    order (zero-padded names), and every file holds exactly one bucket's
    lines — the consumer total-order contract in the emit docstring."""
    import json as _json

    from olrx.pipelines.emit import write_message_stream

    _, _, paths, _ = gen_small
    out = str(tmp_path / "stream")
    write_message_stream(paths, out, ReplayConfig(num_partitions=8))
    names = sorted(f for f in os.listdir(out) if f.endswith(".ndjson"))
    assert names
    firsts, lasts, buckets = [], [], []
    for f in names:
        lines = open(os.path.join(out, f)).read().splitlines()
        recs = [_json.loads(ln) for ln in lines]
        firsts.append(recs[0]["c_scn"])
        lasts.append(recs[-1]["c_scn"])
        buckets.append(int(f.split("-")[1]))
    # filename sort order == c_scn range order, files non-overlapping
    for i in range(1, len(names)):
        assert lasts[i - 1] <= firsts[i], (names[i - 1], names[i])
    # one bucket per file and bucket ids non-decreasing in name order
    assert buckets == sorted(buckets)


def test_cdc_net_changes_vs_oracle():
    """Net change set (lo, hi]: LWW-final upsert/delete per key — the
    consumer-facing merge feed between two confirmed positions. Ray result
    vs the DuckDB oracle over the same changelog bytes at sf0.001."""
    import duckdb

    from olrx.pipelines.queries import q_cdc_net_changes, sql_cdc_net_changes

    sf = "/root/testdata/sf0.001"
    got = q_cdc_net_changes(sf).to_pandas()
    want = duckdb.sql(sql_cdc_net_changes(sf)).df()
    key = ["conv_id", "turn_idx"]
    got = got.sort_values(key).reset_index(drop=True)[sorted(got.columns)]
    want = want.sort_values(key).reset_index(drop=True)[sorted(want.columns)]
    assert len(got) == len(want) and list(got.columns) == list(want.columns)
    assert set(got["change_op"]) == {"upsert", "delete"}
    assert got.equals(want)


def test_cdc_rollback_audit_vs_oracle():
    """DML ops of transactions without a commit, counted per op: the hash
    commit lookup vs the DuckDB anti-join on xid strings at sf0.001."""
    import duckdb

    from olrx.pipelines.queries import (q_cdc_rollback_audit,
                                        sql_cdc_rollback_audit)

    got = q_cdc_rollback_audit(SF).to_pandas().sort_values("op")
    want = duckdb.sql(sql_cdc_rollback_audit(SF)).df().sort_values("op")
    assert len(got) and (got["n"] > 0).all()
    assert got["op"].tolist() == want["op"].tolist()
    assert got["n"].tolist() == want["n"].tolist()


def test_cdc_replay_filtered_vs_oracle():
    """Skip-xid, conv-regex and start-position filters: the replay vs the
    DuckDB SQL at sf0.001, both cut at the start SCN ``_filter_params``
    picks from the commit lookup."""
    import duckdb

    from olrx.pipelines.queries import (_filter_params, q_cdc_replay_filtered,
                                        sql_cdc_replay_filtered)

    assert _filter_params(SF)["start_commit_scn"] > 0
    got = q_cdc_replay_filtered(SF).to_pandas()
    want = duckdb.sql(sql_cdc_replay_filtered(SF)).df()
    key = ["conv_id", "turn_idx"]
    got = got.sort_values(key).reset_index(drop=True)[sorted(got.columns)]
    want = want.sort_values(key).reset_index(drop=True)[sorted(want.columns)]
    assert len(got) > 0 and list(got.columns) == list(want.columns)
    assert got.equals(want)


def test_cdc_net_changes_rejects_partial_images():
    """A partial UPDATE image carries only its changed columns, so emitting
    it as a key's net change would null the rest: the winner pick raises,
    naming the full-image requirement. Full images pass."""
    import glob

    from olrx.gen import GenConfig, ensure_changelog
    from olrx.pipelines.queries import last_per_key
    from olrx.pipelines.replay import ReplayConfig, _decoded_events
    from olrx.stages.decode import load_control

    for partial in (False, True):
        d = ensure_changelog(GenConfig(scale=0.001, partial_images=partial))
        paths = sorted(glob.glob(d + "/*.parquet"))
        control = load_control(paths)
        batch = _decoded_events(paths, ReplayConfig(num_partitions=4),
                                control).take_batch(100_000,
                                                    batch_format="pyarrow")
        kw = dict(ddl_scns=tuple(control.ddl_scns),
                  drops=tuple(zip(control.drop_scns,
                                  control.dropped_columns)))
        if partial:
            with pytest.raises(ValueError, match="needs full row images"):
                last_per_key(batch, **kw)
        else:
            out = last_per_key(batch, **kw)
            assert out.num_rows == len(set(zip(
                batch["conv_id"].to_pylist(), batch["turn_idx"].to_pylist())))


def test_cdc_core_reads_no_environment():
    """Configuration of the CDC core enters through ``ReplayConfig`` or the
    job spec only: no module under stages/, pipelines/ or state/ reads an
    environment variable."""
    import re

    root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "olrx")
    pat = re.compile(r"\b(environ|getenv)\b")
    hits = []
    for sub in ("stages", "pipelines", "state"):
        for dirpath, _, names in os.walk(os.path.join(root, sub)):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    for i, line in enumerate(f, 1):
                        if pat.search(line):
                            hits.append(f"{os.path.relpath(path, root)}:{i}")
    assert not hits, f"environment reads in the CDC core: {hits}"
