"""olrx benchmark: one command per workload, checked against the oracle.

    python3 perfbench/run.py --workload bulk_replay --seed 1 --seconds 20 --trace 0

Workloads (see ``inputs.WORKLOADS`` and ``BENCHMARK.json``):

- ``bulk_replay``: full ``replay_to_lake`` of the default generator mix
  into an empty lake.
- ``hot_updates``: update-heavy skewed stream with partial images and
  rename/drop DDL, replayed with hot-key salting.
- ``tail_ingest``: a seeded lake, then segment pairs landing open-loop
  while ``TailSession.run_once``, ``read_lake`` and ``read_lake_asof`` run.

Run from the root of a checkout; everything the run writes lives under
``.perfbench/`` there. The last stdout line is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``): end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. The line before
it is the full run record (host, generator parameters, every sample,
``error_rate``), also kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {
    "setup_s": "s",
    "replay_events_per_s": "ev/s",
    "commit_s.p50": "s",
    "freshness_s.p50": "s",
    "freshness_s.p90": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_mevent"):
        return "s/Mev"
    if name.endswith("_s") or name.endswith("_s_max"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def workload_why(name: str) -> str:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return next(w["why"] for w in json.load(f)["workloads"]
                    if w["name"] == name)


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk_replay", "hot_updates", "tail_ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "olrx")):
        print(f"olrx sources not found next to {HERE}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import host
    import inputs
    import spans
    import workloads as W

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{uuid.uuid4().hex[:8]}"
    base = os.path.join(ROOT, ".perfbench")
    run = W.Run(root=ROOT, work=os.path.join(base, "work", run_id),
                workload=args.workload, seed=args.seed, seconds=args.seconds)
    os.makedirs(run.work)
    tail = args.workload == "tail_ingest"
    host.exit_on_sigterm()
    host.become_subreaper()
    host.pin_arrow()
    run.probes += host.probe(W.SETUP_PROBE_REPS)
    t0 = time.perf_counter()
    try:
        prep = (W.setup_tail if tail else W.setup_replay)(run)
        setup_s = time.perf_counter() - t0
        host.reset_peak_rss()
        if args.trace:
            run.tracer = spans.Tracer(run_id)
            spans.install(run.tracer)
        (W.measure_tail if tail else W.measure_replay)(run, prep)
        if run.tracer is not None:
            run.tracer.active = False
        rss = host.peak_rss_by_process()
        run.record["peak_rss_mb_by_process"] = rss
        raw, e2e = W.end_to_end(run, setup_s, sum(rss.values()))
        record = {"run_id": run_id, "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "host": host.host_record(ROOT),
                  "why": workload_why(args.workload), **run.record,
                  "probe_s": run.probes, "end_to_end_measured": raw,
                  "end_to_end": e2e}
        if args.trace:
            run.tracer.unwrap_all()
            paths = inputs.segment_paths(os.path.join(run.work, "segments"))
            rcfg = prep["sess"].cfg if tail else prep["rcfg"]
            kernels = W.kernel_pass(paths, rcfg)
            layers = W.per_layer(run, kernels)
            record["per_layer"] = layers
            run.tracer.dump(os.path.join(base, "results", f"{run_id}.spans.json"),
                            {"workload": args.workload, "seed": args.seed})
            metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                       for k, v in sorted(layers.items())}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in e2e.items()}
    finally:
        if run.ray_tmp is not None:
            host.stop_ray(run.ray_tmp)
        host.stop_children()
        shutil.rmtree(run.work, ignore_errors=True)
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            run.gate.failed += 1
            run.gate.errors.append(f"{name}: no samples")
            m["value"] = 0.0
    record.update(attempted=run.gate.attempted, failed=run.gate.failed,
                  error_rate=run.gate.error_rate, errors=run.gate.errors[:5],
                  cycles=run.cycles)
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    with open(os.path.join(base, "results", f"{run_id}.json"), "w") as f:
        json.dump(record, f)
    print(json.dumps(record))
    print(json.dumps({"correct": run.gate.failed == 0,
                      "attempted": run.gate.attempted,
                      "failed": run.gate.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
