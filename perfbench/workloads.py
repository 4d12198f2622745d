"""The three workloads: set-up, measured loop and metrics.

Every workload drives only olrx's public entry points (``replay_to_lake``,
``TailSession.run_once``, ``read_lake``, ``read_lake_asof``) on segment
files generated from the run's seed, and checks every lake it reads with the
oracle gate. A *cycle* is one commit call followed by a full ``read_lake``
and one ``read_lake_asof``, each read into Arrow and digested.

In a traced run cycles alternate untraced / traced; per-layer numbers come
from the traced cycles, ``tracing_overhead_frac`` from comparing the two.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import statistics
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import gate as G
import host
import inputs
import spans

now = time.perf_counter

#: :func:`host.probe` reps before set-up and before each cycle (~0.05 s each)
SETUP_PROBE_REPS = 10
PROBE_REPS = 3


def median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def quantile(xs: list[float], q: float) -> float:
    """Linear-interpolated quantile (q in 0..1)."""
    return float(np.quantile(np.asarray(xs, float), q)) if xs else float("nan")


def read_arrow(ds) -> pa.Table:
    """Materialize a Ray Dataset into one Arrow table in this process."""
    import ray

    tables = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tables, promote_options="default")


def dir_files(d: str) -> dict[str, int]:
    out = {}
    for base, _, files in os.walk(d):
        for f in files:
            if f.endswith(".parquet"):
                p = os.path.join(base, f)
                out[p] = os.path.getsize(p)
    return out


@dataclasses.dataclass
class Run:
    """One benchmark run: workload, seed, budget and the shared ledgers."""

    root: str
    work: str
    workload: str
    seed: int
    seconds: float
    gate: G.Gate = dataclasses.field(default_factory=G.Gate)
    ray_tmp: "str | None" = None
    tracer: "spans.Tracer | None" = None
    record: dict = dataclasses.field(default_factory=dict)
    cycles: list[dict] = dataclasses.field(default_factory=list)
    probes: list[float] = dataclasses.field(default_factory=list)
    read_end: float = 0.0

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def begin_cycle(self, i: int) -> bool:
        """Probe the host's speed, then arm tracing for odd cycles of a
        traced run; returns whether this cycle is traced."""
        self.probes += host.probe(PROBE_REPS)
        traced = self.tracer is not None and i % 2 == 1
        if self.tracer is not None:
            self.tracer.active = traced
            self.tracer.cycle = i
        return traced

    def read_checked(self, span: str, fn, *args):
        """Read a lake into Arrow and digest it, as two spans. Returns
        ``(digest, rows)``, or None when the read raised; ``read_end`` is
        when the read itself returned."""
        with self.span(span):
            tbl = self.gate.run(span, lambda: read_arrow(fn(*args)))
        self.read_end = now()
        if tbl is None:
            return None
        with self.span("check.digest"):
            return G.table_digest(tbl)


# ---------------------------------------------------------------------------
# shared set-up
# ---------------------------------------------------------------------------

def _warm_up(run: Run, paths: list[str], rcfg) -> None:
    """One replay of the run's own segments into a scratch lake, then a
    read and an as-of read: starts and imports the Ray workers and grows
    the pools to full size, so the first measured cycle does not pay it
    (with a smaller warm-up replay it ran ~20% slower than the rest)."""
    from olrx.pipelines.replay import read_lake, replay_to_lake
    from olrx.pipelines.timetravel import read_lake_asof

    lake = os.path.join(run.work, "warm-lake")
    res = replay_to_lake(paths, lake, rcfg, resume=False)
    read_arrow(read_lake(lake))
    read_arrow(read_lake_asof(lake, res.control.max_commit_scn))


def _non_default(cfg) -> dict:
    """The ``ReplayConfig`` fields a workload runs with that differ from the
    defaults."""
    from olrx.pipelines.replay import ReplayConfig

    default = dataclasses.asdict(ReplayConfig())
    return {k: v for k, v in dataclasses.asdict(cfg).items() if v != default[k]}


# ---------------------------------------------------------------------------
# bulk_replay / hot_updates
# ---------------------------------------------------------------------------

def setup_replay(run: Run) -> dict:
    from olrx.pipelines.replay import ReplayConfig
    from olrx.stages.decode import load_control

    spec = inputs.WORKLOADS[run.workload]
    t0 = now()
    cfg = inputs.gen_config(run.workload, run.seed, run.seconds)
    paths = inputs.generate(cfg, os.path.join(run.work, "segments"))
    oracle = G.OracleJob([paths])
    try:
        t_gen = now()
        run.ray_tmp = host.start_ray(run.root)
        t_ray = now()
        rcfg = ReplayConfig(**spec["replay"])
        if "fold_events" in spec:
            appliers = rcfg.resolved_num_appliers(
                sum(os.path.getsize(p) for p in paths))
            rcfg = dataclasses.replace(
                rcfg, applier_compact_threshold=spec["fold_events"] // appliers)
        _warm_up(run, paths, rcfg)
        load_control(paths)     # fills the engine's control checkpoint
        t_warm = now()
        want, = oracle.result()
    finally:
        oracle.stop()
    run.record["setup"] = {"generate_s": t_gen - t0, "ray_start_s": t_ray - t_gen,
                           "warm_up_s": t_warm - t_ray,
                           "oracle_wait_s": now() - t_warm}
    run.record["generator"] = dataclasses.asdict(cfg)
    run.record["replay_config"] = _non_default(rcfg)
    run.record["input"] = {"segments": len(paths),
                           "segment_bytes": sum(os.path.getsize(p) for p in paths),
                           "oracle_rows": want[1]}
    return {"paths": paths, "want": want, "rcfg": rcfg}


def measure_replay(run: Run, prep: dict) -> None:
    from olrx.pipelines import replay
    from olrx.pipelines.timetravel import read_lake_asof

    paths, want, rcfg = prep["paths"], prep["want"], prep["rcfg"]
    lake = os.path.join(run.work, "lake")
    in_bytes = sum(os.path.getsize(p) for p in paths)
    deadline = now() + run.seconds
    i = 0
    while i < 2 or now() < deadline:
        traced = run.begin_cycle(i)
        c: dict = {"cycle": i, "traced": traced}
        t0 = now()
        # looked up per call: a traced run wraps the module attribute
        res = run.gate.run("replay_to_lake", replay.replay_to_lake,
                           paths, lake, rcfg, resume=False)
        t1 = now()
        c["commit_s"] = t1 - t0
        if res is not None:
            c["timings"] = dict(res.timings)
            ev = res.stats["events"].to_numpy()
            c["events"] = int(ev.sum())
            c["partitions"] = int(res.stats.num_rows)
            c["partition_skew"] = float(ev.max() / max(1.0, np.median(ev)))
            c["write_amplification"] = sum(dir_files(lake).values()) / in_bytes
            wm = res.control.max_commit_scn
        t_read = now()
        got = run.read_checked("replay.read_lake", replay.read_lake, lake)
        run.gate.expect("read_lake", got, want)
        t2 = now()
        c["read_s"] = t2 - t_read
        c["freshness_s"] = [run.read_end - t0]
        if res is not None:
            asof = run.read_checked("timetravel.read_lake_asof", read_lake_asof, lake, wm)
            run.gate.expect("read_lake_asof", asof, want)
        t3 = now()
        c["asof_s"] = t3 - t2
        c["wall_s"] = t3 - t0
        if got is not None:
            c["rows"] = got[1]
        run.cycles.append(c)
        i += 1


# ---------------------------------------------------------------------------
# tail_ingest
# ---------------------------------------------------------------------------

def _pair_index(paths: list[str]) -> list[list[str]]:
    """Segments grouped by sequence, ``[[shard00 path, shard01 path], ...]``
    in landing order."""
    by_seq: dict[str, list[str]] = {}
    for p in paths:
        _, seq = os.path.basename(p)[:-len(".parquet")].split("-")
        by_seq.setdefault(seq, []).append(p)
    return [sorted(v) for _, v in sorted(by_seq.items())]


def _pair_max_scn(pair: list[str]) -> dict[int, int]:
    """Per shard, the highest control SCN a pair carries — the point at
    which ``ControlInfo.shard_watermarks`` proves the pair was read."""
    out = {}
    for p in pair:
        ctl = os.path.join(os.path.dirname(p), "_ctl", os.path.basename(p))
        t = pq.read_table(ctl, columns=["scn", "shard"])
        if t.num_rows:
            out[int(t["shard"][0].as_py())] = int(max(t["scn"].to_pylist()))
    return out


def _land(pair: list[str], land: str) -> None:
    """Hard-link a pair into the tail directory: sidecar first, so a
    segment is never visible without its control index."""
    for p in pair:
        name = os.path.basename(p)
        os.link(os.path.join(os.path.dirname(p), "_ctl", name),
                os.path.join(land, "_ctl", name))
        os.link(p, os.path.join(land, name))


def setup_tail(run: Run) -> dict:
    from olrx.pipelines.job import TailSession
    from olrx.pipelines.replay import read_lake
    from olrx.pipelines.timetravel import read_lake_asof

    spec = inputs.WORKLOADS[run.workload]
    t0 = now()
    cfg = inputs.gen_config(run.workload, run.seed, run.seconds)
    src = os.path.join(run.work, "segments")
    paths = inputs.generate(cfg, src)
    pairs = _pair_index(paths)
    half = len(pairs) // 2
    oracle = G.OracleJob([paths, [p for pr in pairs[:half] for p in pr]])
    try:
        t_gen = now()
        run.ray_tmp = host.start_ray(run.root)
        t_ray = now()
        land = os.path.join(run.work, "land")
        lake = os.path.join(run.work, "lake")
        os.makedirs(os.path.join(land, "_ctl"))
        for pr in pairs[:half]:
            _land(pr, land)
        job = {"source": {"directory": land, "expected_shards": [0, 1]},
               "target": {"uri": lake,
                          "num_partitions": spec["replay"]["num_partitions"]},
               "mode": "tail"}
        spec_path = os.path.join(run.work, "job.json")
        with open(spec_path, "w") as f:
            json.dump(job, f)
        sess = TailSession(spec_path)
        # retention is not a job-spec key; the session's config is public
        sess.cfg = dataclasses.replace(
            sess.cfg, snapshot_keep=spec["replay"]["snapshot_keep"])
        res = run.gate.run("run_once(seed)", sess.run_once)
        t_seed = now()
        want, want_seed = oracle.result()
    finally:
        oracle.stop()
    t_oracle = now()
    seed_read = run.read_checked("replay.read_lake", read_lake, lake)
    run.gate.expect("read_lake(seed)", seed_read, want_seed)
    wm0 = sess.cfg.safe_watermark(res.control) if res is not None else -1
    asof = run.read_checked("timetravel.read_lake_asof", read_lake_asof, lake, wm0)
    run.gate.expect("read_lake_asof(seed)", asof, want_seed)
    run.record["setup"] = {"generate_s": t_gen - t0, "ray_start_s": t_ray - t_gen,
                           "seed_lake_s": t_seed - t_ray,
                           "oracle_wait_s": t_oracle - t_seed,
                           "seed_reads_s": now() - t_oracle}
    run.record["generator"] = dataclasses.asdict(cfg)
    run.record["replay_config"] = _non_default(sess.cfg)
    run.record["input"] = {"segments": len(paths), "pairs_seeded": half,
                           "pairs_landed": len(pairs) - half,
                           "pairs_per_s": spec["pairs_per_s"],
                           "oracle_rows": want[1]}
    return {"sess": sess,
            "pairs": pairs[half:], "want": want, "land": land, "lake": lake,
            "seed": (wm0, seed_read)}


class Lander(threading.Thread):
    """Open-loop generator: lands pair k at ``start + (k + 1) / rate``
    whatever the tail loop is doing, and records how late it ran."""

    def __init__(self, pairs: list[list[str]], land: str, rate: float) -> None:
        super().__init__(daemon=True)
        self.pairs, self.land = pairs, land
        start = now()
        self.due = [start + (k + 1) / rate for k in range(len(pairs))]
        self.late: list[float] = []
        self.landed = 0
        self.cond = threading.Condition()
        self.stop_flag = False

    def run(self) -> None:
        for k, pair in enumerate(self.pairs):
            wait = self.due[k] - now()
            if wait > 0 and self._sleep(wait):
                return
            _land(pair, self.land)
            self.late.append(now() - self.due[k])
            with self.cond:
                self.landed = k + 1
                self.cond.notify_all()

    def _sleep(self, s: float) -> bool:
        with self.cond:
            self.cond.wait_for(lambda: self.stop_flag, timeout=s)
            return self.stop_flag

    def wait_beyond(self, n: int) -> int:
        """Block until more than ``n`` pairs have landed (or all have)."""
        with self.cond:
            self.cond.wait_for(lambda: self.landed > n
                               or self.landed == len(self.pairs))
            return self.landed

    def stop(self) -> None:
        with self.cond:
            self.stop_flag = True
            self.cond.notify_all()
        self.join()


#: seconds past the last scheduled landing after which an unfinished tail
#: loop is reported as failed
TAIL_GRACE_S = 60.0


def measure_tail(run: Run, prep: dict) -> None:
    from olrx.pipelines.replay import read_lake
    from olrx.pipelines.timetravel import read_lake_asof

    sess, lake, want = prep["sess"], prep["lake"], prep["want"]
    pairs = prep["pairs"]
    pair_max = [_pair_max_scn(pr) for pr in pairs]
    pair_bytes = [sum(os.path.getsize(p) for p in pr) for pr in pairs]
    prev_wm, prev_read = prep["seed"]
    n = len(pairs)
    lander = Lander(pairs, prep["land"], inputs.WORKLOADS[run.workload]["pairs_per_s"])
    # a loop that stops picking pairs up fails the run instead of spinning
    give_up = lander.due[-1] + TAIL_GRACE_S
    included = 0
    i = 0
    lander.start()
    try:
        while included < n and now() < give_up:
            traced = run.begin_cycle(i)
            c: dict = {"cycle": i, "traced": traced}
            t_idle = now()
            landed = lander.wait_beyond(included)
            c["lag_segments"] = 2 * (landed - included)
            before = dir_files(lake)
            t0 = now()
            res = run.gate.run("run_once", sess.run_once)
            t1 = now()
            if res is None:
                break
            c["idle_s"] = t0 - t_idle
            c["commit_s"] = t1 - t0
            c["timings"] = dict(res.timings)
            c["events"] = int(res.stats["events"].to_numpy().sum())
            c["partitions"] = int((~res.stats["skipped"].to_numpy()).sum())
            ev = res.stats["events"].to_numpy()
            c["partition_skew"] = (float(ev.max() / max(1.0, np.median(ev)))
                                   if len(ev) else 0.0)
            sw = res.control.shard_watermarks
            now_in = included
            while now_in < n and all(sw.get(s, -1) >= m
                                     for s, m in pair_max[now_in].items()):
                now_in += 1
            after = dir_files(lake)
            new_bytes = sum(sz for p, sz in after.items() if before.get(p) != sz)
            landed_bytes = sum(pair_bytes[included:now_in])
            c["write_amplification"] = new_bytes / max(1, landed_bytes)
            t_read = now()
            got = run.read_checked("replay.read_lake", read_lake, lake)
            t2 = now()
            if now_in == n:
                run.gate.expect("read_lake(final)", got, want)
            c["read_s"] = t2 - t_read
            c["freshness_s"] = [run.read_end - lander.due[k]
                                for k in range(included, now_in)]
            asof = run.read_checked("timetravel.read_lake_asof", read_lake_asof, lake, prev_wm)
            run.gate.expect("read_lake_asof", asof, prev_read)
            t3 = now()
            c["asof_s"] = t3 - t2
            c["wall_s"] = t3 - t_idle
            if got is not None:
                c["rows"] = got[1]
            run.cycles.append(c)
            prev_wm = max(prev_wm, sess.cfg.safe_watermark(res.control))
            prev_read = got
            included = now_in
            i += 1
    finally:
        lander.stop()
        sess.close()
    if included < n:
        run.gate.attempted += 1
        run.gate.failed += 1
        run.gate.errors.append(f"tail stopped with {n - included} pairs unread")
    run.record["land_late_s"] = {"max": max(lander.late, default=0.0),
                                 "median": median(lander.late)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(run: Run, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics as measured, and the same at the reference
    host speed (times times ``host.PROBE_NOMINAL_S / median probe``, rates
    divided by it): the reported ones."""
    cs = [c for c in run.cycles if "commit_s" in c]
    fresh = [f for c in cs for f in c.get("freshness_s", [])]
    raw = {
        "setup_s": setup_s,
        "replay_events_per_s": median([c["events"] / c["commit_s"]
                                       for c in cs if "events" in c]),
        "commit_s.p50": median([c["commit_s"] for c in cs]),
        "freshness_s.p50": quantile(fresh, 0.5),
        "freshness_s.p90": quantile(fresh, 0.9),
        "peak_rss_mb": rss_mb,
    }
    scale = host.PROBE_NOMINAL_S / median(run.probes)
    ref = {k: v * scale for k, v in raw.items()}
    ref["peak_rss_mb"] = rss_mb
    # on tail_ingest the landing schedule sets the events per call, so
    # the rate follows the host only through commit_s: reported as measured
    ref["replay_events_per_s"] = (raw["replay_events_per_s"]
                                  if run.workload == "tail_ingest"
                                  else raw["replay_events_per_s"] / scale)
    return raw, ref


def per_layer(run: Run, kernels: dict) -> dict:
    traced = [c for c in run.cycles if c["traced"] and "commit_s" in c]
    plain = [c for c in run.cycles if not c["traced"] and "commit_s" in c]
    n = max(1, len(traced))
    ids = {c["cycle"] for c in traced}
    layers = run.tracer.self_times(ids)
    out = {k: layers[k] / n for k in spans.LAYER_METRICS}
    out["exchange.run_actor_exchange_s"] = (
        run.tracer.inclusive("exchange.run_actor_exchange", ids) / n)

    def busy(c):
        return c["wall_s"] - c.get("idle_s", 0.0)

    busy_total = sum(busy(c) for c in traced)
    out["trace.layer_sum_frac"] = (sum(layers.values()) / busy_total
                                   if busy_total else 0.0)
    out["tracing_overhead_frac"] = (median([busy(c) for c in traced])
                                    / median([busy(c) for c in plain]) - 1.0)
    rows = [c["events"] / c["rows"] for c in run.cycles if c.get("rows")]
    out["apply.events_per_row"] = median(rows)

    def per_cycle(key):
        return median([c[key] for c in run.cycles if key in c])

    out["exchange.partition_skew"] = per_cycle("partition_skew")
    out["replay.write_amplification"] = per_cycle("write_amplification")
    out["replay.partitions_committed"] = per_cycle("partitions")
    out["tail.lag_segments_max"] = float(max((c.get("lag_segments", 0)
                                              for c in run.cycles), default=0))
    out.update(kernels)
    return out


def kernel_pass(paths: list[str], rcfg, cap_rows: int = 400_000) -> dict:
    """Timings of the layer kernels on the workload's own segments: one
    ``detect_hot_keys`` pass over all of them, and in-process decode,
    compaction and merge over the first ``cap_rows`` changelog rows."""
    import ray

    from olrx.stages.apply import compact_events, merge_apply
    from olrx.stages.decode import EVENT_COLUMNS, CommitResolver, load_control
    from olrx.stages.partition import detect_hot_keys

    t0 = now()
    detect_hot_keys(paths, frac_threshold=rcfg.hot_frac_threshold)
    t_hot = now() - t0
    control = load_control(paths)
    resolver = CommitResolver(ray.put(control.decode_broadcast()),
                              rcfg.num_partitions)
    rows_in, outs, t_res = 0, [], 0.0
    for p in paths:
        for batch in pq.read_table(p, columns=EVENT_COLUMNS).to_batches(
                max_chunksize=rcfg.batch_size):
            tb = pa.Table.from_batches([batch])
            t0 = now()
            outs.append(resolver(tb))
            t_res += now() - t0
            rows_in += tb.num_rows
            if rows_in >= cap_rows:
                break
        if rows_in >= cap_rows:
            break
    events = pa.concat_tables(outs, promote_options="default")
    m = events.num_rows / 1e6
    meta = events.drop_columns([c for c in events.column_names
                                if c.startswith("v_")])
    t0 = now()
    compact_events(meta)
    t_compact = now() - t0
    t0 = now()
    merge_apply(events, control.schema_version, control.dropped_columns,
                control.renamed_columns)
    t_merge = now() - t0
    return {
        "partition.detect_hot_keys_s": t_hot,
        "decode.resolve_s_per_mevent": t_res / max(1e-9, rows_in / 1e6),
        "decode.keep_ratio": events.num_rows / max(1, rows_in),
        "apply.compact_s_per_mevent": t_compact / max(1e-9, m),
        "apply.merge_s_per_mevent": t_merge / max(1e-9, m),
    }
