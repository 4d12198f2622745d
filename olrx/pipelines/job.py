"""Config-driven replay jobs — the `OpenLogReplicator.json` analog (§2.9).

A job spec is a small JSON document:

    {
      "source": {"paths": ["/logs/*.parquet"],          // or "directory"
                 "expected_shards": [0, 1]},
      "filter": {"skip_xids": ["x10"], "conv_regex": "^conv1",
                 "condition": "op == 'I'", "start_commit_scn": -1,
                 // optional: start_time_us | start_time_rel_us | start_seq
                 //           (mutually exclusive), txn_max_events
                 "table_regex": "^table_0$"},
      "target": {"uri": "/lake/transcripts",
                 "num_partitions": 128, "salt_hot": true},
      "mode":   "batch" | "tail"                        // tail = incremental
    }

``batch``  = ReplicatorBatch (/root/reference/src/replicator/ReplicatorBatch.cpp:30-61):
one shot over an explicit closed file set, confirm to max commit SCN.
``tail``   = offline directory mode (/root/reference/src/replicator/Replicator.cpp:468-557):
re-scan the directory, replay whatever is new past the manifests' watermarks;
safe watermark is min-over-shards. Run it from cron/driver — each invocation
is idempotent.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any

from olrx.pipelines.replay import ReplayConfig, ReplayResult, replay_to_lake


def load_job(path_or_dict: "str | dict") -> dict:
    if isinstance(path_or_dict, dict):
        return path_or_dict
    with open(path_or_dict) as f:
        return json.load(f)


def _resolve_paths(source: dict) -> list[str]:
    if "paths" in source:
        out: list[str] = []
        for p in source["paths"]:
            out.extend(sorted(glob.glob(p)) if any(c in p for c in "*?[") else [p])
        return out
    if "directory" in source:
        return sorted(glob.glob(os.path.join(source["directory"], "*.parquet")))
    raise ValueError("job.source needs 'paths' or 'directory'")


def _build_config(job: dict) -> ReplayConfig:
    source = job.get("source", {})
    filt = job.get("filter", {})
    target = job.get("target", {})
    mode = job.get("mode", "batch")
    return ReplayConfig(
        num_partitions=int(target.get("num_partitions", 64)),
        salt_hot=bool(target.get("salt_hot", False)),
        skip_xids=tuple(filt.get("skip_xids", ())),
        conv_regex=filt.get("conv_regex"),
        condition=filt.get("condition"),
        start_commit_scn=int(filt.get("start_commit_scn", -1)),
        # remaining start positions + big-txn guard (reference config
        # surface, OpenLogReplicator.cpp:533-558 / Parser.cpp:717-726);
        # mutually-exclusive use is the caller's contract, as in the reference
        start_time_us=(int(filt["start_time_us"])
                       if "start_time_us" in filt else None),
        start_time_rel_us=(int(filt["start_time_rel_us"])
                           if "start_time_rel_us" in filt else None),
        start_seq=(int(filt["start_seq"]) if "start_seq" in filt else None),
        txn_max_events=(int(filt["txn_max_events"])
                        if "txn_max_events" in filt else None),
        table_regex=filt.get("table_regex"),
        multi_table=bool(target.get("multi_table", False)),
        output_codec=target.get("output_codec", "zstd"),
        assume_complete_input=(mode == "batch"),
        expected_shards=(tuple(source["expected_shards"])
                         if "expected_shards" in source else None),
    )


def run_job(spec: "str | dict") -> ReplayResult:
    job = load_job(spec)
    mode = job.get("mode", "batch")
    if mode not in ("batch", "tail"):
        raise ValueError(f"unknown mode {mode!r}")
    paths = _resolve_paths(job.get("source", {}))
    if not paths:
        raise ValueError("no input segments matched the job source")
    uri = job.get("target", {}).get("uri")
    if not uri:
        raise ValueError("job.target.uri is required")
    return replay_to_lake(paths, uri, _build_config(job), resume=True)


class TailSession:
    """Long-running tail loop with LIVE config reload — the reference
    watches the config file's mtime and rebuilds its filter maps without a
    restart (/root/reference/src/metadata/Checkpoint.cpp:59-271); here each
    tail iteration re-stats the spec file and rebuilds the ReplayConfig when
    it changed, so a filter edit (table_regex, skip_xids, condition, …)
    takes effect at the next iteration with no job bounce. Manifests keep
    the iterations idempotent regardless of when the config flips: decode
    drops what each partition already confirmed, only new/now-tracked data
    is applied.

    Live metrics (reference MetricsPrometheus analog,
    /root/reference/src/common/metrics/MetricsPrometheus.cpp): every
    iteration folds its stats into a :class:`LiveMetrics` registry, writes
    an atomic JSON snapshot at ``<target.uri>/_metrics/live.json``, and —
    with ``metrics_port`` set (0 = ephemeral) — serves Prometheus text at
    ``http://127.0.0.1:<port>/metrics`` from a stdlib daemon thread.

    The session owns one ``ApplierFleet`` for its whole life: iterations
    reuse the same applier actors instead of spawning a fleet per call
    (the paper's tail mode keeps its readers and buffers alive between
    checkpoints, too). ``close()`` — or leaving a ``with`` block — kills
    the fleet and stops the metrics server; an iteration that raises
    discards the fleet, and the next one starts from fresh actors.

    It also keeps one ``decode.ControlSession``: the resolved paths and
    the folded control of every segment it has listed. A segment it has
    folded is treated as immutable, as archived redo logs are, so an
    iteration resolves, stats and folds only the segments new in the
    directory listing. Every segment is checked again at the first
    iteration, after an iteration that raised, and when a listed segment
    leaves the directory."""

    def __init__(self, spec_path: str,
                 metrics_port: "int | None" = None) -> None:
        from olrx.stages.decode import ControlSession
        from olrx.stages.exchange import ApplierFleet
        from olrx.state.metrics import LiveMetrics, MetricsServer

        self.spec_path = spec_path
        self._mtime_ns: int | None = None
        self.job: dict = {}
        self.cfg: ReplayConfig | None = None
        self.reloads = 0
        self.metrics = LiveMetrics()
        self.fleet = ApplierFleet()
        self.control = ControlSession()
        self.metrics_server = (MetricsServer(self.metrics, metrics_port)
                               if metrics_port is not None else None)
        try:
            self._reload_if_changed()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Kill the applier fleet (returns once its actors are dead) and
        stop the metrics server. Idempotent."""
        self.fleet.close()
        if self.metrics_server is not None:
            self.metrics_server.close()
            self.metrics_server = None

    def __enter__(self) -> "TailSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _reload_if_changed(self) -> bool:
        st = os.stat(self.spec_path)
        if st.st_mtime_ns == self._mtime_ns:
            return False
        job = load_job(self.spec_path)
        if job.get("mode", "tail") != "tail":
            raise ValueError("TailSession requires a job spec with mode='tail'")
        job["mode"] = "tail"
        if not job.get("target", {}).get("uri"):
            raise ValueError("job.target.uri is required")
        self.job, self.cfg = job, _build_config(job)
        self._mtime_ns = st.st_mtime_ns
        self.reloads += 1
        return True

    def run_once(self) -> ReplayResult:
        """One tail iteration: pick up config edits, re-scan the source
        directory (new segments appear between iterations), replay whatever
        is past the manifests' watermarks."""
        self._reload_if_changed()
        paths = _resolve_paths(self.job.get("source", {}))
        if not paths:
            raise ValueError("no input segments matched the job source")
        try:
            res = replay_to_lake(paths, self.job["target"]["uri"], self.cfg,
                                 resume=True, fleet=self.fleet,
                                 control_session=self.control)
        except BaseException:
            self.control.reset()   # the next iteration checks every segment
            raise
        self.metrics.record_iteration(res, dict(res.timings), self.reloads,
                                      segments_landed=len(paths))
        try:
            self.metrics.write_json(self.job["target"]["uri"])
        except OSError:
            pass   # read-only lake target: the HTTP surface still serves
        return res


def run_tail(spec_path: str, iterations: int | None = None,
             poll_interval_s: float = 5.0) -> list[ReplayResult]:
    """Drive a TailSession: ``iterations=None`` loops until interrupted
    (deployment form — run under a supervisor); a finite count is the
    test/cron form. Sleeps between iterations; config edits and new
    segments are picked up at each turn."""
    import time

    out: list[ReplayResult] = []
    i = 0
    with TailSession(spec_path) as sess:
        while iterations is None or i < iterations:
            out.append(sess.run_once())
            i += 1
            if iterations is None or i < iterations:
                time.sleep(poll_interval_s)
    return out


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m olrx.pipelines.job spec.json`` (owns the Ray session)."""
    import sys

    import ray

    argv = argv if argv is not None else sys.argv[1:]
    if not argv:
        print("usage: python -m olrx.pipelines.job <job-spec.json>", file=sys.stderr)
        return 2
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    try:
        res = run_job(argv[0])
        st = res.stats.to_pandas() if res.stats is not None else None
        summary: dict[str, Any] = {
            "out_dir": res.out_dir,
            "partitions": 0 if st is None else len(st),
            "rows": 0 if st is None else int(st["rows"].sum()),
            "events_applied": 0 if st is None else int(st["events"].sum()),
            "max_commit_scn": res.control.max_commit_scn,
        }
        print(json.dumps(summary))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
