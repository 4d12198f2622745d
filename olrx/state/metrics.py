"""Lineage metrics over the lake's commit manifests.

Reference analog: the Prometheus counter surface — bytes/messages/dml_ops/
transactions/checkpoint_lag (/root/reference/src/common/metrics/Metrics.h,
/root/reference/documentation/metrics/metrics.adoc:23-100). Here every apply
task already records its counters into the partition manifest; this module
aggregates them into one report without touching data files.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

from olrx.state import manifest as MF


@dataclass
class LakeMetrics:
    partitions: int
    rows: int
    watermark_min: int           # confirmed floor (safe resume point)
    watermark_max: int
    schema_version: int
    counters: dict[str, int] = field(default_factory=dict)
    lag_partitions: int = 0      # partitions below the max watermark


def lake_metrics(out_dir: str) -> LakeMetrics:
    lake = MF.read_lake_state(out_dir)
    ms = lake.manifests.values()
    counters: Counter = Counter()
    for m in ms:
        counters.update(m.counters or {})
    wms = [m.watermark_commit_scn for m in ms] or [-1]
    return LakeMetrics(
        partitions=len(ms), rows=sum(m.rows for m in ms),
        watermark_min=min(wms), watermark_max=max(wms),
        schema_version=lake.epoch.schema_version, counters=dict(counters),
        lag_partitions=sum(1 for w in wms if w < max(wms)))


# ---------------------------------------------------------------------------
# Live metrics surface for tail mode (reference MetricsPrometheus analog)
# ---------------------------------------------------------------------------

class LiveMetrics:
    """In-memory counter registry a long-running tail job updates each
    iteration and exposes live — the analog of the reference's Prometheus
    counters (/root/reference/src/common/metrics/MetricsPrometheus.cpp,
    documentation/metrics/metrics.adoc:23-100). Two surfaces:

    - a JSON snapshot file written atomically next to the lake manifests
      (``<lake>/_metrics/live.json``) that any poller can read, and
    - an optional stdlib HTTP endpoint (:class:`MetricsServer`) serving
      Prometheus text exposition at ``/metrics`` and the JSON at
      ``/metrics.json`` (deployment would sit this behind the cluster's
      scrape config; no third-party dependency needed).

    Counter names mirror the reference where a 1:1 analog exists
    (``olrx_dml_ops_total`` ~ dml_ops_*, ``olrx_checkpoint_lag`` ~
    checkpoint_lag); gauges carry the per-iteration stage timings the
    engine already collects (ReplayResult.timings)."""

    #: ``# HELP`` text per metric family (the name before any ``{labels}``)
    HELP = {
        "olrx_iterations_total": "Tail iterations run.",
        "olrx_events_applied_total": "Change events applied to the lake.",
        "olrx_dml_ops_total": "Applied DML events by operation.",
        "olrx_config_reloads_total": "Job spec reloads seen by the tail loop.",
        "olrx_lake_rows": "Rows in the lake table.",
        "olrx_watermark_min": "Lowest partition watermark (commit SCN).",
        "olrx_watermark_max": "Highest partition watermark (commit SCN).",
        "olrx_checkpoint_lag":
            "Commit SCNs between the lowest and highest partition watermark.",
        "olrx_lag_partitions": "Partitions below the highest watermark.",
        "olrx_stage_seconds": "Wall seconds of the last iteration's stages.",
        "olrx_segments_landed":
            "Segments in the source directory at the last iteration.",
        "olrx_segments_read":
            "Segments the last iteration's event read opened.",
    }

    def __init__(self) -> None:
        import threading
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {
            "olrx_iterations_total": 0,
            "olrx_events_applied_total": 0,
            "olrx_dml_ops_total{op=\"insert\"}": 0,
            "olrx_dml_ops_total{op=\"update\"}": 0,
            "olrx_dml_ops_total{op=\"delete\"}": 0,
            "olrx_config_reloads_total": 0,
        }
        self.gauges: dict[str, float] = {}

    def record_iteration(self, result, timings: dict, reloads: int,
                         segments_landed: int | None = None) -> None:
        """Fold one tail iteration's ReplayResult into the registry.
        Per-iteration deltas come from the stats table (already
        retry-deduped by the exchange); absolute gauges from the lake.
        ``segments_landed``: the input's segment count, next to the count
        the event read opened after pruning."""
        st = result.stats.to_pandas() if result.stats is not None else None
        with self._lock:
            c = self.counters
            c["olrx_iterations_total"] += 1
            c["olrx_config_reloads_total"] = int(reloads)
            if st is not None and len(st):
                c["olrx_events_applied_total"] += int(st["events"].sum())
                c["olrx_dml_ops_total{op=\"insert\"}"] += int(st["inserts"].sum())
                c["olrx_dml_ops_total{op=\"update\"}"] += int(st["updates"].sum())
                c["olrx_dml_ops_total{op=\"delete\"}"] += int(st["deletes"].sum())
            m = lake_metrics(result.out_dir) if result.out_dir else None
            if m is not None:
                self.gauges["olrx_lake_rows"] = float(m.rows)
                self.gauges["olrx_watermark_min"] = float(m.watermark_min)
                self.gauges["olrx_watermark_max"] = float(m.watermark_max)
                # checkpoint/confirm lag: how far the slowest partition
                # trails the fastest (metrics.adoc checkpoint_lag analog)
                self.gauges["olrx_checkpoint_lag"] = float(
                    m.watermark_max - m.watermark_min)
                self.gauges["olrx_lag_partitions"] = float(m.lag_partitions)
            self.gauges["olrx_segments_read"] = float(
                len(result.segments_read))
            if segments_landed is not None:
                self.gauges["olrx_segments_landed"] = float(segments_landed)
            for k, v in (timings or {}).items():
                self.gauges[f"olrx_stage_seconds{{stage=\"{k}\"}}"] = float(v)

    def snapshot(self) -> dict:
        with self._lock:
            return {"counters": dict(self.counters),
                    "gauges": dict(self.gauges)}

    def to_prom_text(self) -> str:
        """Prometheus text exposition (format 0.0.4): each family's samples
        sit together under one ``# HELP`` and one ``# TYPE`` line."""
        snap = self.snapshot()
        lines = []
        for kind, samples in (("counter", snap["counters"]),
                              ("gauge", snap["gauges"])):
            family = None
            for k, v in sorted(samples.items()):
                name = k.split("{", 1)[0]
                if name != family:
                    family = name
                    lines.append(f"# HELP {name} {self.HELP.get(name, name)}")
                    lines.append(f"# TYPE {name} {kind}")
                lines.append(f"{k} {v}")
        return "\n".join(lines) + "\n"

    def write_json(self, lake_dir: str) -> str:
        """Atomic JSON snapshot at ``<lake>/_metrics/live.json``."""
        import json
        import time
        d = os.path.join(lake_dir, "_metrics")
        os.makedirs(d, exist_ok=True)
        p = os.path.join(d, "live.json")
        snap = self.snapshot()
        snap["updated_unix"] = time.time()
        tmp = p + f".tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(snap, f)
        os.replace(tmp, p)
        return p


class MetricsServer:
    """Tiny stdlib HTTP endpoint serving a :class:`LiveMetrics` registry —
    ``GET /metrics`` → Prometheus text exposition, ``GET /metrics.json`` →
    JSON. ``port=0`` binds an ephemeral port (read it back from ``.port``).
    Runs on a daemon thread; ``close()`` shuts it down."""

    def __init__(self, metrics: LiveMetrics, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        import http.server
        import json
        import threading

        reg = metrics

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):           # noqa: N802 (stdlib API name)
                if self.path == "/metrics":
                    body = reg.to_prom_text().encode()
                    ctype = "text/plain; version=0.0.4"
                elif self.path == "/metrics.json":
                    body = json.dumps(reg.snapshot()).encode()
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):  # silence per-request stderr noise
                pass

        self._srv = http.server.ThreadingHTTPServer((host, port), Handler)
        self.port = self._srv.server_address[1]
        self._thread = threading.Thread(target=self._srv.serve_forever,
                                        daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._srv.shutdown()
        self._srv.server_close()
