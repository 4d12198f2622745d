"""Benchmark harness: headline CDC replay + per-stage query timings.

Prints ONE JSON line:
  {"metric": "cdc_replay_sec", "value": <sec>, "unit": "sec",
   "queries": {...}, "sf": <sf>, "num_cpus": N, "events": M,
   "events_per_sec": ...}

Modes:
  python bench.py               # single run over $GRAFT_SF_DIR at $RAY_GRAFT_CPUS
  python bench.py --scaling     # same pipeline at N and 4N CPUs in fresh
                                # processes; reports both + scaling efficiency
                                # (default legs 1,4 — see run_scaling docstring)
  python bench.py --ops         # representative training-data ops suite over
                                # $GRAFT_SF_DIR (reproduces the BASELINE.md
                                # ops table)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
#: input scale for --scaling runs: large enough that per-run fixed overhead
#: (worker/actor spawn ~2-5 s) is amortized and both runs are compute-bound.
#: Generation streams to disk (olrx.gen.generate_segments: peak RAM is one
#: 4M-row assembly chunk + the integer backbone, not the whole payload), so
#: scale is bounded by disk, not driver memory — the old eager path aborted
#: at scale 32 / >83 GB; the streamed writer lifted that ceiling (r4).
SCALING_SCALE = float(os.environ.get("OLRX_SCALING_SCALE", "8.0"))


def run_bench() -> dict:
    import ray

    import pyarrow as pa

    # the driver simulates a node of the "cluster size" under test: pin its
    # Arrow thread pool to the same CPU budget the Ray session gets (the
    # default pool sizes to ALL machine cores, which would let the low-CPU
    # scaling run do driver-side control scans at full-machine speed)
    pa.set_cpu_count(max(2, NUM_CPUS))
    pa.set_io_thread_count(max(2, NUM_CPUS // 2))
    # size the object store to ~55% of RAM (Ray's default ~30% is undersized
    # for this workload: payload blobs parked in plasma until finalize push
    # store usage past the streaming executor's budget and it THROTTLES task
    # scheduling — measured 1.8× route wall at 4 CPUs; Ray Data itself warns
    # to raise the store to ≥50%). Deployment knob: size the store to the
    # replay window's payload share per node; an undersized store degrades
    # (spills/throttles), it does not fail.
    if not os.environ.get("OLRX_OBJECT_STORE_BYTES"):
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        store = int(total * 0.55)
    else:
        store = int(os.environ["OLRX_OBJECT_STORE_BYTES"])
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             object_store_memory=store)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import glob

    from olrx.gen import GenConfig, ensure_changelog, scale_for_sf_dir
    from olrx.pipelines.replay import ReplayConfig, replay_to_lake

    _override = os.environ.get("OLRX_BENCH_SCALE", "").strip()
    sf = float(_override) if _override else scale_for_sf_dir(SF_DIR)
    # more log segments at bench scale: read parallelism is file-granular,
    # and a real deployment has many archived segments, not 8
    segs = max(4, int(16 * sf))
    gen_cfg = GenConfig(scale=sf, segments_per_shard=segs)
    d = ensure_changelog(gen_cfg)          # cached; generation not timed
    paths = sorted(glob.glob(d + "/*.parquet"))

    # warm page cache so we measure compute+shuffle, not first disk read
    for p in paths:
        with open(p, "rb") as f:
            while f.read(1 << 22):
                pass

    cfg_kw = {}
    if os.environ.get("OLRX_COMPACT_THRESHOLD", "").strip():
        cfg_kw["applier_compact_threshold"] = int(os.environ["OLRX_COMPACT_THRESHOLD"])
    cfg = ReplayConfig(num_partitions=max(64, NUM_CPUS * 4), **cfg_kw)
    out_dir = f"/tmp/olrx_bench/lake-{NUM_CPUS}"

    # warm the Ray worker/actor pool with an untimed mini-run (first pipeline
    # execution in a session pays multi-second process-spawn costs that a
    # long-lived cluster would not)
    from olrx.gen import GenConfig as GC
    warm_paths = sorted(glob.glob(ensure_changelog(GC(scale=0.001)) + "/*.parquet"))
    shutil.rmtree(out_dir + "-warm", ignore_errors=True)
    replay_to_lake(warm_paths, out_dir + "-warm", cfg, resume=False)

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    res = replay_to_lake(paths, out_dir, cfg, resume=False)
    headline = time.perf_counter() - t0
    timings = dict(res.timings)
    st = res.stats.to_pandas()
    events = int(st["events"].sum())
    rows = int(st["rows"].sum())

    queries: dict[str, float] = {"cdc_replay": round(headline, 3)}

    from olrx.pipelines import queries as Q
    for name in ("cdc_committed_events", "cdc_txn_stats", "cdc_shard_watermarks"):
        t0 = time.perf_counter()
        r = Q.CDC_QUERIES[name](SF_DIR)
        if hasattr(r, "count"):
            r.count()  # force execution for lazy datasets
        queries[name] = round(time.perf_counter() - t0, 3)

    ray.shutdown()
    return {
        "metric": "cdc_replay_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "events": events,
        "rows": rows,
        "events_per_sec": round(events / headline, 1) if headline > 0 else None,
        "timings": timings,
    }


def run_scaling() -> dict:
    """Two-parallelism-level scaling evidence, drift-robust.

    This VM's wall clock drifts ±20-50% over tens of minutes (shared host).
    Running all lo-CPU reps then all hi-CPU reps lets that drift bias the
    throughput ratio directly (measured the same commit at 0.60 and 0.85).
    So: run temporally-ADJACENT (lo, hi) pairs, alternating the order per
    pair, compute efficiency per pair (drift ~cancels within a pair), and
    report the MEDIAN pair efficiency plus every pair for transparency.

    Default legs are 1 -> 4 CPUs: the host's aggregate memory bandwidth
    scales linearly only up to ~4 concurrent workers (measured median
    17.8 / 32.7 / 65.9 / 75.3 / 77.1 GB/s at 1/2/4/8/16 procs —
    `tools/membw.py`), so 1->4 is the one leg pair where the single host
    can actually hand the hi leg 4x of EVERY resource, matching the north
    rule's N -> 4N *nodes* setting (per-node bandwidth constant). Leg
    pairs above 4 CPUs measure the host's DRAM ceiling, not the pipeline:
    their pure-bandwidth efficiency caps are 0.58 (2->8) and 0.29 (4->16).
    Override with OLRX_SCALING_LEVELS=4,16 etc.; BENCH/BASELINE.md records
    all three."""
    levels = os.environ.get("OLRX_SCALING_LEVELS", "1,4").split(",")
    lo, hi = int(levels[0]), int(levels[1])
    reps = int(os.environ.get("OLRX_SCALING_REPS", "2"))

    def once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   OLRX_BENCH_SCALE=str(SCALING_SCALE))
        out = subprocess.run([sys.executable, os.path.join(REPO, "bench.py")],
                             env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    pairs = []
    for r in range(reps):
        order = (lo, hi) if r % 2 == 0 else (hi, lo)
        res = {n: once(n) for n in order}
        pairs.append((res[lo], res[hi]))
    effs = sorted((p[1]["events_per_sec"] / p[0]["events_per_sec"]) / (hi / lo)
                  for p in pairs)
    med_eff = effs[len(effs) // 2] if reps % 2 else \
        (effs[reps // 2 - 1] + effs[reps // 2]) / 2
    iqr = None
    if len(effs) >= 4:
        import statistics
        q1, _, q3 = statistics.quantiles(effs, n=4)
        iqr = round(q3 - q1, 3)
    r_lo = min((p[0] for p in pairs), key=lambda r: r["value"])
    r_hi = min((p[1] for p in pairs), key=lambda r: r["value"])
    return {
        "metric": "scaling_efficiency",
        "value": round(med_eff, 3),
        "unit": "ratio",
        "sf": r_lo["sf"],
        "sec_lo": r_lo["value"], "sec_hi": r_hi["value"],
        "cpus_lo": lo, "cpus_hi": hi, "cpu_ratio": hi / lo,
        "events_per_sec_lo": r_lo["events_per_sec"],
        "events_per_sec_hi": r_hi["events_per_sec"],
        "pair_efficiencies": [round(e, 3) for e in effs],
        "pair_iqr": iqr,
        "pair_walls": [[p[0]["value"], p[1]["value"]] for p in pairs],
        # every run's phase breakdown — slow-mode runs (this host shows a
        # rare ~2× wall mode) are diagnosable after the fact
        "pair_timings": [[p[0].get("timings", {}), p[1].get("timings", {})]
                         for p in pairs],
        "timings_lo": r_lo.get("timings", {}),
        "timings_hi": r_hi.get("timings", {}),
    }


def run_ops() -> dict:
    """Representative training-data ops over $GRAFT_SF_DIR — the suite the
    BASELINE.md ops table records: near-dup dedup (MinHash verify + banding),
    SimHash, embedding LSH, the composed curation pipeline, sessionization,
    TF-IDF rollup, and exact quantiles. One timing per query, executed to
    completion (count() forces lazy datasets)."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from olrx.ops.registry import OPS_QUERIES

    suite = ("dedup_minhash_pairs", "dedup_simhash", "embedding_neardup_lsh",
             "curation_pipeline", "events_sessions", "tfidf_sources",
             "source_stats", "events_value_quantiles",
             "token_length_quantiles")
    queries: dict[str, float] = {}
    for name in suite:
        t0 = time.perf_counter()
        r = OPS_QUERIES[name](SF_DIR)
        if hasattr(r, "count"):
            r.count()
        queries[name] = round(time.perf_counter() - t0, 3)
    ray.shutdown()
    return {
        "metric": "ops_suite_sec",
        "value": round(sum(queries.values()), 3),
        "unit": "sec",
        "queries": queries,
        "sf": scale_for_sf_dir_safe(SF_DIR),
        "num_cpus": NUM_CPUS,
    }


def scale_for_sf_dir_safe(sf_dir: str) -> float:
    from olrx.gen import scale_for_sf_dir
    try:
        return scale_for_sf_dir(sf_dir)
    except Exception:
        return -1.0


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        result = run_scaling()
    elif "--ops" in sys.argv:
        result = run_ops()
    else:
        result = run_bench()
    print(json.dumps(result))
