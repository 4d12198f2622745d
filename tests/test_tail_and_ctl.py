"""Round-3 surfaces: tail-mode live config reload, control-summary
checkpoint pruning + safe (non-pickle) serialization, retry-deduped
exchange shards, and resume-exact lineage counters."""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from olrx.pipelines.replay import ReplayConfig, read_lake, replay_to_lake
from olrx.state import manifest as MF
from tests.conftest import assert_same_control, fresh_scan, sorted_table

CFG = ReplayConfig(num_partitions=16)


# ---------------------------------------------------------------------------
# tail-mode live config reload (reference Checkpoint.cpp:59-271)
# ---------------------------------------------------------------------------

def test_tail_config_live_reload(tmp_path, gen_small):
    """Editing the job spec between tail iterations must take effect at the
    next iteration without a job restart, and manifests stay consistent."""
    from olrx.pipelines.job import TailSession

    _, _, paths, _ = gen_small
    src = tmp_path / "segments"
    src.mkdir()
    lake = str(tmp_path / "lake")
    spec_path = str(tmp_path / "job.json")
    spec = {"source": {"directory": str(src)},
            "target": {"uri": lake, "num_partitions": 16},
            "mode": "tail"}
    with open(spec_path, "w") as f:
        json.dump(spec, f)

    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    for p in first:
        shutil.copy(p, src / os.path.basename(p))

    with TailSession(spec_path) as sess:
        sess.run_once()
        assert sess.reloads == 1
        t1 = sorted_table(read_lake(lake))
        assert t1.num_rows > 0

        # config edit mid-tail: track nothing; new segments arrive
        spec["filter"] = {"conv_regex": "^no-conversation-matches-this$"}
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        st = os.stat(spec_path)
        os.utime(spec_path, ns=(st.st_atime_ns, st.st_mtime_ns + 10_000_000))
        for p in paths:
            if p not in first:
                shutil.copy(p, src / os.path.basename(p))

        sess.run_once()
        assert sess.reloads == 2, "mtime change must trigger a config rebuild"
        assert sess.cfg.conv_regex == "^no-conversation-matches-this$"
    t2 = sorted_table(read_lake(lake))
    # the new segments' events were all dropped by the NEW filter
    assert t2.equals(t1)
    # manifests stayed readable and consistent
    ms = MF.read_all(os.path.join(lake, "_manifest"))
    assert all(m.rows >= 0 for m in ms.values())


def test_tail_session_rejects_batch_spec(tmp_path):
    from olrx.pipelines.job import TailSession

    spec_path = str(tmp_path / "job.json")
    with open(spec_path, "w") as f:
        json.dump({"source": {"directory": "/x"}, "target": {"uri": "/y"},
                   "mode": "batch"}, f)
    with pytest.raises(ValueError, match="mode='tail'"):
        TailSession(spec_path)


# ---------------------------------------------------------------------------
# control-summary checkpoints: pruning + non-executable serialization
# ---------------------------------------------------------------------------

def _copied_changelog(tmp_path, gen_small):
    _, d, paths, _ = gen_small
    dst = tmp_path / "log"
    shutil.copytree(d, dst)
    return sorted(glob.glob(str(dst / "*.parquet")))


def test_summary_checkpoint_pruning(tmp_path, gen_small):
    """Bounded disk use: a growing tail sequence (a new file set per call)
    leaves exactly one checkpoint file in ``_ctl/`` after every load."""
    from olrx.stages.decode import CHECKPOINT_NAME, load_control

    paths = _copied_changelog(tmp_path, gen_small)
    assert len(paths) > 2
    ctl_dir = os.path.join(os.path.dirname(paths[0]), "_ctl")
    for i in range(1, len(paths) + 1):
        load_control(paths[:i])
        kept = [f for f in os.listdir(ctl_dir) if not f.endswith(".parquet")]
        assert kept == [CHECKPOINT_NAME], kept


@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_checkpoint_corrupt_falls_back(tmp_path, gen_small, damage,
                                       sidecar_reads):
    """A truncated or corrupt checkpoint reads as absent: the load folds
    every sidecar again, equals a fresh scan, and rewrites a good one."""
    from olrx.stages.decode import CHECKPOINT_NAME, load_control

    paths = _copied_changelog(tmp_path, gen_small)
    load_control(paths)
    cp = os.path.join(os.path.dirname(paths[0]), "_ctl", CHECKPOINT_NAME)
    raw = open(cp, "rb").read()
    with open(cp, "wb") as f:
        f.write(raw[: len(raw) // 2] if damage == "truncated"
                else b"\x00garbage" + raw[::-1])
    sidecar_reads.clear()
    got = load_control(paths)
    assert len(sidecar_reads.fold) == len(paths)
    assert_same_control(got, fresh_scan(paths, tmp_path))
    sidecar_reads.clear()
    assert_same_control(load_control(paths), got)
    assert sidecar_reads.fold == [], "the rewritten checkpoint must load"
    # and it round-trips through the file, not only through this process
    from olrx.stages.decode import _ControlState
    assert_same_control(_ControlState.read(cp).info(paths), got)


@pytest.mark.parametrize("change", ["touched", "rewritten", "removed"])
def test_checkpoint_changed_segment_full_fold(tmp_path, gen_small, change,
                                              sidecar_reads):
    """A covered segment rewritten in place (new mtime, or new content and
    size) or removed forces a fold from empty that equals a fresh scan."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from olrx.gen import write_control_sidecars
    from olrx.stages.decode import load_control

    paths = _copied_changelog(tmp_path, gen_small)
    load_control(paths)
    victim = paths[2]
    side = os.path.join(os.path.dirname(victim), "_ctl",
                        os.path.basename(victim))
    if change == "touched":
        st = os.stat(victim)
        os.utime(victim, ns=(st.st_atime_ns, st.st_mtime_ns + 10_000_000))
    elif change == "rewritten":
        # drop the segment's commit records: its txns become open
        t = pq.read_table(victim)
        pq.write_table(t.filter(pc.not_equal(t["op"], "C")), victim)
        os.remove(side)
        write_control_sidecars([victim])
    else:
        os.remove(victim)
        os.remove(side)
        paths = [p for p in paths if p != victim]
    sidecar_reads.clear()
    got = load_control(paths)
    assert len(sidecar_reads.fold) == len(paths), "must fold from empty"
    assert_same_control(got, fresh_scan(paths, tmp_path))


def test_checkpoint_read_only_dir(tmp_path, gen_small, monkeypatch):
    """A read-only ``_ctl`` directory still loads correctly and nothing is
    written into it."""
    import builtins

    from olrx.stages import decode

    paths = _copied_changelog(tmp_path, gen_small)
    ctl_dir = os.path.join(os.path.dirname(paths[0]), "_ctl")
    for f in os.listdir(ctl_dir):
        if not f.endswith(".parquet"):
            os.remove(os.path.join(ctl_dir, f))
    before = sorted(os.listdir(ctl_dir))
    # the mode bits alone do not stop a superuser: refuse writes there too
    real_open = builtins.open

    def ro_open(file, mode="r", *a, **kw):
        if (str(file).startswith(ctl_dir)
                and any(c in mode for c in "wax+")):
            raise PermissionError(13, "Read-only directory", file)
        return real_open(file, mode, *a, **kw)

    monkeypatch.setattr(decode, "open", ro_open, raising=False)
    os.chmod(ctl_dir, 0o555)
    try:
        first = decode.load_control(paths[:4])
        got = decode.load_control(paths)
        assert sorted(os.listdir(ctl_dir)) == before
    finally:
        os.chmod(ctl_dir, 0o755)
    assert_same_control(got, fresh_scan(paths, tmp_path))
    assert_same_control(first, fresh_scan(paths[:4], tmp_path))


def test_checkpoint_subset_keeps_superset(tmp_path, gen_small, sidecar_reads):
    """A subset call after a superset call equals a fresh scan of the
    subset and leaves the superset checkpoint in place: the next superset
    call reads no sidecar."""
    from olrx.stages.decode import CHECKPOINT_NAME, load_control

    paths = _copied_changelog(tmp_path, gen_small)
    full = load_control(paths)
    cp = os.path.join(os.path.dirname(paths[0]), "_ctl", CHECKPOINT_NAME)
    raw, st = open(cp, "rb").read(), os.stat(cp)
    subset = paths[:3]
    assert_same_control(load_control(subset), fresh_scan(subset, tmp_path))
    assert open(cp, "rb").read() == raw
    assert os.stat(cp).st_mtime_ns == st.st_mtime_ns
    sidecar_reads.clear()
    assert_same_control(load_control(paths), full)
    assert sidecar_reads.fold == []


def test_checkpoint_bytes_per_transaction(tmp_path, gen_small):
    """The checkpoint carries no copy of the commits or PR keys (they stay
    in the sidecars): under 6 B per committed transaction on the small
    stream."""
    import pyarrow.compute as pc

    from olrx.stages.decode import CHECKPOINT_NAME, load_control

    _, _, _, full = gen_small
    paths = _copied_changelog(tmp_path, gen_small)
    load_control(paths)
    cp = os.path.join(os.path.dirname(paths[0]), "_ctl", CHECKPOINT_NAME)
    txns = pc.sum(pc.equal(full["op"], "C")).as_py()
    assert txns > 500
    assert os.path.getsize(cp) < 6 * txns, os.path.getsize(cp) / txns


def _folded_state(paths):
    """A control state folded from empty over ``paths``, in memory."""
    from olrx.stages.decode import _ControlState, _file_stats

    st = _ControlState()
    st.fold_segments(paths, _file_stats(paths))
    return st


def _assert_same_state(got, want):
    """Every field of two control states equal."""
    for name in ("segments", "shard_watermarks", "max_commit_scn",
                 "span_done"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("open_txns", "ddl_rows", "partials"):
        assert getattr(got, name).equals(getattr(want, name)), name


def test_checkpoint_concurrent_writers(tmp_path, gen_small, monkeypatch):
    """Threads of one process that load the same ``_ctl`` directory at
    once — two over all but the last two segments, two over all of them,
    with a 1 µs switch interval — leave a checkpoint that reads back and
    equals a fold of the segments its header names. Every writer
    opens its file before any of them writes, sleeps a random while before
    each write and flushes it, so their writes reach the files interleaved
    in changing orders."""
    import builtins
    import random
    import sys
    import threading
    import time

    from olrx.stages import decode

    paths = _copied_changelog(tmp_path, gen_small)
    cp = os.path.join(os.path.dirname(paths[0]), "_ctl",
                      decode.CHECKPOINT_NAME)
    sets = (paths[:-2], paths)
    gate: list = []
    errors: list = []
    rng = random.Random(0)
    real_open = builtins.open

    class Yielding:
        def __init__(self, f):
            self.f = f

        def __getattr__(self, name):
            return getattr(self.f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, b):
            time.sleep(rng.random() * 0.002)
            n = self.f.write(b)
            self.f.flush()
            return n

    def gated_open(file, mode="r", *a, **kw):
        f = real_open(file, mode, *a, **kw)
        if "w" not in mode:
            return f
        try:
            gate[-1].wait()
        except threading.BrokenBarrierError:
            pass
        return Yielding(f)

    def load(s):
        try:
            decode.load_control(s)
        except Exception as e:      # surfaced in the main thread below
            errors.append(e)

    monkeypatch.setattr(decode, "open", gated_open, raising=False)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            if os.path.exists(cp):
                os.remove(cp)
            gate.append(threading.Barrier(4, timeout=5))
            threads = [threading.Thread(target=load, args=(s,))
                       for s in sets * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            st = decode._ControlState.read(cp)
            assert st is not None, "the checkpoint must read back"
            assert len(st.segments) in (len(s) for s in sets)
            _assert_same_state(st, _folded_state(sorted(st.segments)))
    finally:
        sys.setswitchinterval(old)


def test_control_summary_roundtrip(tmp_path, gen_small):
    """The Arrow-IPC checkpoint (non-executable — r2 advisory replaced
    pickle) must reload equal control state: the header facts, the DDL
    rows with their commit SCNs and the open-transaction table equal those
    of an in-memory fold, and the broadcast built from the reloaded state
    is sorted by hash."""
    from olrx.stages.decode import (CHECKPOINT_NAME, _ControlState,
                                    load_control)

    paths = _copied_changelog(tmp_path, gen_small)
    fresh = load_control(paths)          # computes + writes the checkpoint
    cached = load_control(paths)         # loads the checkpoint
    assert_same_control(cached, fresh)
    cp = os.path.join(os.path.dirname(paths[0]), "_ctl", CHECKPOINT_NAME)
    read = _ControlState.read(cp)
    _assert_same_state(read, _folded_state(paths))
    assert pa.compute.count(read.ddl_rows["cscn"]).as_py() > 0
    h, scn = cached.decode_broadcast()[:2]
    assert len(h) == len(scn) > 0
    assert (h[1:] >= h[:-1]).all(), "sorted by hash"
    # and no pickle anywhere near the checkpoint
    ctl_dir = os.path.join(os.path.dirname(paths[0]), "_ctl")
    assert not [f for f in os.listdir(ctl_dir) if f.endswith(".pkl")]


# ---------------------------------------------------------------------------
# exchange: retried router blocks must not inflate state or counters
# ---------------------------------------------------------------------------

def test_exchange_retry_dedupe(tmp_path, gen_small):
    """A retried router block re-ships identical rows under a fresh blob id;
    the applier must drop the duplicate by content digest: merged rows AND
    lineage counters equal the single-delivery run."""
    from olrx.stages.decode import load_control
    from olrx.pipelines.replay import _decoded_events
    from olrx.stages.exchange import ApplierFleet, from_ipc, make_router

    _, _, paths, _ = gen_small
    control = load_control(paths)
    cfg = ReplayConfig(num_partitions=8)
    batch = _decoded_events(paths, cfg, control).take_batch(
        4000, batch_format="pyarrow")
    sv = control.schema_version

    def run(n_deliveries: int) -> pa.Table:
        fleet = ApplierFleet()
        appliers, ready = fleet.begin(1, sv, num_partitions=cfg.num_partitions)
        ray.get(ready)
        for _ in range(n_deliveries):
            # a fresh router per delivery = a retried task's fresh blob-id
            # space; the shard CONTENT digests are identical
            make_router(appliers, 1)(batch)
        # an actor runs one caller's calls in order, so this poll follows
        # every delivery; the fence counts distinct shards, so a duplicate
        # can never stand in for a shard still on its way
        assert ray.get(appliers[0].received.remote()) == 1
        out = str(tmp_path / f"lake-{n_deliveries}")
        stats, _ = ray.get(appliers[0].finalize_commit.remote(
            out_dir=out, safe_watermark=control.max_commit_scn,
            max_commit_scn=control.max_commit_scn, max_txn_span=0))
        fleet.close()
        return from_ipc(stats)

    once = run(1).sort_by("partition")
    twice = run(2).sort_by("partition")
    assert twice.equals(once), \
        "duplicate delivery changed rows or lineage counters"
    assert int(pa.compute.sum(once["events"]).as_py()) == batch.num_rows


def test_duplicate_input_block_is_fenced_once(tmp_path, gen_small,
                                              expected_small):
    """A segment listed twice, as given or through another spelling of its
    path, is read once: the replay neither hangs at the fence nor changes
    the table, and its lineage counters equal those of the plain list."""
    _, _, paths, _ = gen_small
    alias = os.path.join(os.path.dirname(paths[1]), ".",
                         os.path.basename(paths[1]))
    events = []
    for i, ps in enumerate((paths, paths + paths[:1] + [alias])):
        out = str(tmp_path / f"lake{i}")
        res = replay_to_lake(ps, out, ReplayConfig(num_partitions=8),
                             resume=False)
        events.append(sum(res.stats["events"].to_pylist()))
        assert sorted_table(read_lake(out),
                            expected_small.schema).equals(expected_small)
    assert events == [7220, 7220]


# ---------------------------------------------------------------------------
# resume-exact lineage counters (r2 advisory: watermark-filtered recount)
# ---------------------------------------------------------------------------

def _counters_by_part(out: str) -> dict[int, int]:
    return {p: m.counters.get("events", 0)
            for p, m in MF.read_all(os.path.join(out, "_manifest")).items()}


def test_counters_stream_exact_on_resume(tmp_path, gen_small, expected_small):
    """Heterogeneous resume (some partitions confirmed, some lost): the
    healing run's counters must be STREAM counts of exactly the events each
    partition newly applies — full history for lost partitions, only
    post-watermark events for surviving ones — not folded winner counts."""
    _, _, paths, _ = gen_small
    first = [p for p in paths if "seg0000" in p or "seg0001" in p]

    full_lake = str(tmp_path / "full")
    replay_to_lake(paths, full_lake, CFG)
    c_full = _counters_by_part(full_lake)

    out = str(tmp_path / "healing")
    replay_to_lake(first, out, CFG)
    c_first = _counters_by_part(out)

    # lose a few manifests (plus the lake-level watermark, as a crash before
    # the lake write leaves it) → those partitions recover from scratch while
    # the survivors' watermarks stay ahead of the global resume floor
    mdir = os.path.join(out, "_manifest")
    victims = {int(f.split("-")[1].split(".")[0])
               for f in sorted(os.listdir(mdir))[:5] if f.startswith("part-")}
    for p in victims:
        os.remove(os.path.join(mdir, f"part-{p:05d}.json"))
    os.remove(os.path.join(mdir, "_lake.json"))

    replay_to_lake(paths, out, CFG)
    c_heal = _counters_by_part(out)

    for p, full_n in c_full.items():
        if p in victims or p not in c_first:
            assert c_heal[p] == full_n, f"lost partition {p} must recount all"
        else:
            assert c_heal[p] == full_n - c_first[p], \
                f"survivor {p}: counters must be stream-exact above its watermark"
    # and the healed lake still matches the oracle
    assert sorted_table(read_lake(out), expected_small.schema).equals(expected_small)


def test_fold_materialize_path(tmp_path, gen_small, expected_small):
    """Force constant off-path folds (tiny compact threshold): winner
    materialization + blob release during routing must produce the same
    lake as the no-fold path, including across a resume."""
    _, _, paths, _ = gen_small
    cfg = ReplayConfig(num_partitions=16, applier_compact_threshold=50)
    out = str(tmp_path / "lake")
    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    replay_to_lake(first, out, cfg)
    replay_to_lake(paths, out, cfg)
    got = sorted_table(read_lake(out), expected_small.schema)
    assert got.equals(expected_small)
    # lineage counters survive the fold path (winner counts would be lower)
    ms = MF.read_all(os.path.join(out, "_manifest"))
    assert sum(m.counters.get("events", 0) for m in ms.values()) > 0


# ---------------------------------------------------------------------------
# live metrics surface (reference MetricsPrometheus.cpp analog)
# ---------------------------------------------------------------------------

def test_tail_live_metrics_surface(tmp_path, gen_small):
    """Counters advance across tail iterations, match the manifest totals,
    and both live surfaces (JSON snapshot file + HTTP /metrics endpoint)
    serve them while the session runs."""
    import urllib.request

    from olrx.pipelines.job import TailSession
    from olrx.state.metrics import lake_metrics

    _, _, paths, _ = gen_small
    src = tmp_path / "segments"
    src.mkdir()
    lake = str(tmp_path / "lake")
    spec_path = str(tmp_path / "job.json")
    with open(spec_path, "w") as f:
        json.dump({"source": {"directory": str(src)},
                   "target": {"uri": lake, "num_partitions": 16},
                   "mode": "tail"}, f)

    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    for p in first:
        shutil.copy(p, src / os.path.basename(p))

    sess = TailSession(spec_path, metrics_port=0)
    try:
        sess.run_once()
        snap1 = sess.metrics.snapshot()
        assert snap1["counters"]["olrx_iterations_total"] == 1
        ev1 = snap1["counters"]["olrx_events_applied_total"]
        assert ev1 > 0
        # fresh lake: live counters equal the manifest totals exactly (two
        # independent paths — stats rows folded on the driver vs counters
        # the appliers wrote into manifests)
        m1 = lake_metrics(lake)
        assert ev1 == m1.counters["events"]
        for op, nm in (("insert", "inserts"), ("update", "updates"),
                       ("delete", "deletes")):
            assert (snap1["counters"][f'olrx_dml_ops_total{{op="{op}"}}']
                    == m1.counters[nm]), nm

        wm1 = {p: m.watermark_commit_scn
               for p, m in MF.read_all(os.path.join(lake, "_manifest")).items()}

        # second iteration: the rest of the stream arrives
        for p in paths:
            if p not in first:
                shutil.copy(p, src / os.path.basename(p))
        res2 = sess.run_once()
        snap2 = sess.metrics.snapshot()
        assert snap2["counters"]["olrx_iterations_total"] == 2
        ev2 = snap2["counters"]["olrx_events_applied_total"]
        assert ev2 > ev1, "counters must advance across iterations"
        # iteration-2 delta == the manifest deltas of the partitions that
        # advanced (manifest counters are per-run stream counts; untouched
        # partitions keep their iteration-1 manifests)
        ms2 = MF.read_all(os.path.join(lake, "_manifest"))
        delta2 = sum(m.counters.get("events", 0) for p, m in ms2.items()
                     if m.watermark_commit_scn > wm1.get(p, -1))
        assert ev2 - ev1 == delta2
        m = lake_metrics(lake)
        assert snap2["gauges"]["olrx_lake_rows"] == m.rows
        assert snap2["gauges"]["olrx_checkpoint_lag"] == \
            m.watermark_max - m.watermark_min

        # JSON snapshot file written next to the manifests
        live = json.load(open(os.path.join(lake, "_metrics", "live.json")))
        assert live["counters"]["olrx_events_applied_total"] == ev2

        # HTTP endpoint serves Prometheus text + JSON live
        base = f"http://127.0.0.1:{sess.metrics_server.port}"
        prom = urllib.request.urlopen(f"{base}/metrics").read().decode()
        assert f"olrx_events_applied_total {ev2}" in prom
        # the event read's input is visible next to the landed input (no
        # sidecars landed here: the segments are indexed and pruned all the
        # same)
        typed, samples = _parse_exposition(prom)
        assert typed["olrx_segments_read"] == "gauge"
        assert typed["olrx_segments_landed"] == "gauge"
        assert samples["olrx_segments_landed"] == [float(len(paths))]
        assert samples["olrx_segments_read"] == [
            float(len(res2.segments_read))]
        assert len(res2.segments_read) < len(paths)
        via_http = json.loads(
            urllib.request.urlopen(f"{base}/metrics.json").read())
        assert via_http["counters"]["olrx_iterations_total"] == 2
    finally:
        sess.close()


def test_metrics_endpoint_is_valid_exposition():
    """``GET /metrics`` parses as Prometheus text format 0.0.4, line by
    line: every family has exactly one ``# HELP`` then one ``# TYPE`` line
    before its samples, its samples are contiguous, and every sample line is
    ``name{labels} value`` with a float value."""
    import urllib.request

    from olrx.state.metrics import LiveMetrics, MetricsServer

    reg = LiveMetrics()
    reg.counters['olrx_dml_ops_total{op="insert"}'] = 5
    reg.gauges["olrx_lake_rows"] = 12.0
    reg.gauges['olrx_stage_seconds{stage="route"}'] = 0.5
    reg.gauges['olrx_stage_seconds{stage="fence"}'] = 0.25
    srv = MetricsServer(reg)
    try:
        resp = urllib.request.urlopen(f"http://127.0.0.1:{srv.port}/metrics")
        ctype = resp.headers["Content-Type"]
        text = resp.read().decode()
    finally:
        srv.close()
    assert ctype.startswith("text/plain") and "version=0.0.4" in ctype
    typed, samples = _parse_exposition(text)
    assert typed["olrx_dml_ops_total"] == "counter"
    assert typed["olrx_stage_seconds"] == "gauge"
    assert sorted(samples["olrx_stage_seconds"]) == [0.25, 0.5]
    assert samples["olrx_lake_rows"] == [12.0]


def _parse_exposition(text: str):
    """Check ``text`` line by line as Prometheus text format 0.0.4 and
    return (family → type, family → sample values)."""
    import re

    assert text.endswith("\n")
    name_re = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
    label_re = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
    sample_re = re.compile(
        rf"({name_re})(?:\{{{label_re}(?:,{label_re})*\}})? (\S+)")
    helped, typed, closed = set(), {}, set()
    current = None
    samples: dict[str, list[float]] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            assert re.fullmatch(name_re, name), line
            assert name not in helped and name not in typed, line
            helped.add(name)
            if current is not None:
                closed.add(current)
            current = name
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert name == current and name not in typed, line
            assert kind in ("counter", "gauge"), line
            typed[name] = kind
        else:
            m = sample_re.fullmatch(line)
            assert m, f"not a sample line: {line!r}"
            name = m.group(1)
            assert name == current and name in typed, \
                f"sample outside its family block: {line!r}"
            assert name not in closed
            samples.setdefault(name, []).append(float(m.group(2)))
    assert helped == set(typed) == set(samples)
    return typed, samples


# ---------------------------------------------------------------------------
# a tail iteration's plan costs O(new segments), not O(landed history)
# ---------------------------------------------------------------------------

def _tail_pairs():
    """(shard-0, shard-1) segment pairs of a 101-pair changelog."""
    from olrx.gen import GenConfig, ensure_changelog

    src = ensure_changelog(GenConfig(seed=7, scale=0.002,
                                     segments_per_shard=101))
    return [tuple(os.path.join(src, f"shard{s:02d}-seg{k:04d}.parquet")
                  for s in (0, 1)) for k in range(101)]


def _land(pairs, land):
    """Copy each segment in, its sidecar first, as a log shipper would."""
    for pair in pairs:
        for p in pair:
            name = os.path.basename(p)
            shutil.copy(os.path.join(os.path.dirname(p), "_ctl", name),
                        os.path.join(land, "_ctl", name))
            shutil.copy(p, os.path.join(land, name))


def _tail_spec(tmp_path):
    land = tmp_path / "land"
    os.makedirs(land / "_ctl")
    spec_path = str(tmp_path / "job.json")
    with open(spec_path, "w") as f:
        json.dump({"source": {"directory": str(land),
                              "expected_shards": [0, 1]},
                   "target": {"uri": str(tmp_path / "lake"),
                              "num_partitions": 8},
                   "mode": "tail"}, f)
    return str(land), spec_path


def test_tail_plan_work_does_not_grow_with_history(tmp_path, monkeypatch):
    """The ``os.stat`` and ``os.path.realpath`` calls on landed files in one
    ``run_once`` that picks up one new pair are the same at 10 and at 100
    landed pairs: the session stats and resolves only the new segments."""
    from olrx.pipelines.job import TailSession

    pairs = _tail_pairs()
    land, spec_path = _tail_spec(tmp_path)
    stat, realpath = os.stat, os.path.realpath
    seen: dict[str, list] = {"stat": [], "realpath": []}

    def counted(kind, fn):
        def call(path, *args, **kwargs):
            if str(path).startswith(land):
                seen[kind].append(str(path))
            return fn(path, *args, **kwargs)
        return call

    counts = {}
    with TailSession(spec_path) as sess:
        landed = 0
        for n in (10, 100):
            _land(pairs[landed:n], land)
            sess.run_once()       # catches up; the first one checks all
            _land(pairs[n:n + 1], land)
            landed = n + 1
            seen["stat"].clear()
            seen["realpath"].clear()
            with monkeypatch.context() as m:
                m.setattr(os, "stat", counted("stat", stat))
                m.setattr(os.path, "realpath", counted("realpath", realpath))
                res = sess.run_once()
            counts[n] = {k: len(v) for k, v in seen.items()}
            assert res.control.shard_watermarks == fresh_scan(
                sorted(glob.glob(land + "/*.parquet")),
                tmp_path).shard_watermarks
    # the new pair: its two segments and their sidecars
    assert counts[10]["realpath"] == 2 and counts[10]["stat"] >= 4, counts
    assert counts[10] == counts[100], counts


def test_tail_session_start_rechecks_covered_segments(tmp_path):
    """A segment rewritten in place between two sessions: the new session's
    first iteration checks every segment, so its control is the fold of the
    files as they are now, not the checkpoint's."""
    from olrx.pipelines.job import TailSession
    from olrx.schema import control_rows

    pairs = _tail_pairs()
    land, spec_path = _tail_spec(tmp_path)
    _land(pairs[:6], land)
    with TailSession(spec_path) as sess:
        before = sess.run_once().control
    # the newest shard-0 segment loses its second half, sidecar too
    seg = os.path.join(land, os.path.basename(pairs[5][0]))
    side = os.path.join(land, "_ctl", os.path.basename(seg))
    t = pq.read_table(seg)
    pq.write_table(t.slice(0, t.num_rows // 2), seg + ".tmp")
    os.replace(seg + ".tmp", seg)
    pq.write_table(control_rows([seg]), side + ".tmp")
    os.replace(side + ".tmp", side)
    paths = sorted(glob.glob(land + "/*.parquet"))
    want = fresh_scan(paths, tmp_path)
    assert want.shard_watermarks[0] < before.shard_watermarks[0]
    with TailSession(spec_path) as sess:
        got = sess.run_once().control
    assert_same_control(got, want)
