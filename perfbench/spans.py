"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the calls the benchmark makes into each olrx
layer, plus the library functions those calls reach in this process,
wrapped at the module attribute they are looked up by (``olrx.pipelines.replay
.load_control`` and so on). Nothing inside Ray worker processes is wrapped:
those layers show up through the exchange phase timings that every
``ReplayResult`` carries.

A span is ``(id, name, start, end, parent, cycle)``. ``cycle`` groups the
spans of one measured cycle (one replay or one tail iteration with its
reads), the way spans of one request share a trace id. Spans stay in
memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time

#: the salting workload's per-cycle hot-key pass: part of the layer sum, but
#: reported through the kernel pass, which every workload runs
IN_REPLAY_HOT_KEYS = "partition.detect_hot_keys_in_replay_s"

#: layer metric each recorded span's self time counts towards. The
#: exchange's own self time (applier spawn calls before routing) counts as
#: fence: together they are the exchange wall that route and finalize do
#: not cover.
LAYER_OF = {
    "decode.load_control": "decode.load_control_s",
    "partition.detect_hot_keys": IN_REPLAY_HOT_KEYS,
    "exchange.run_actor_exchange": "exchange.fence_s",
    "exchange.route": "exchange.route_s",
    "exchange.fence": "exchange.fence_s",
    "exchange.finalize": "exchange.finalize_s",
    "manifest.read_all": "manifest.io_s",
    "manifest.read_manifest": "manifest.io_s",
    "manifest.global_watermark": "manifest.io_s",
    "manifest.write_lake_watermark": "manifest.io_s",
    "replay.run_once": "replay.other_s",
    "replay.replay_to_lake": "replay.other_s",
    "replay.read_lake": "replay.read_lake_s",
    "timetravel.read_lake_asof": "timetravel.read_lake_asof_s",
    "check.digest": "check.digest_s",
}

#: self-time metrics the rollup reports: every workload reaches each of
#: these layers, so none is a constant zero
LAYER_METRICS = sorted(set(LAYER_OF.values()) - {IN_REPLAY_HOT_KEYS})


class Tracer:
    """Records spans from the main thread while ``active`` is set."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.active = False
        self.cycle = -1
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int | None:
        if not self.active or threading.get_ident() != self._main:
            return None
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "run_id": self.run_id,
                           "cycle": self.cycle,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter() - self.t0,
                           "end": None})
        self._stack.append(sid)
        return sid

    def _close(self, sid: int | None) -> None:
        if sid is None:
            return
        self._stack.pop()
        self.spans[sid]["end"] = time.perf_counter() - self.t0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def add_child(self, parent: int, name: str, start: float, end: float) -> None:
        """A span measured by the program itself (exchange phase timings)."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "run_id": self.run_id,
                           "cycle": self.spans[parent]["cycle"],
                           "parent": parent, "start": start, "end": end})

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper; ``after(sid,
        result)`` runs once the call returns, inside the span's lifetime."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None and sid is not None:
                    after(sid, out)
                return out
            finally:
                self._close(sid)

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def attach_exchange_phases(self, replay_sid: int, timings: dict) -> None:
        """Turn ``ReplayResult.timings`` route/fence/finalize durations into
        child spans of the replay's exchange span. The phases run back to
        back and end where ``run_actor_exchange`` returns, so they are laid
        out backwards from the exchange span's end; what precedes them
        (applier spawn calls) stays exchange self time."""
        ex = [s for s in self.spans
              if s["parent"] == replay_sid
              and s["name"] == "exchange.run_actor_exchange"]
        if not ex:
            return
        end = ex[-1]["end"] if ex[-1]["end"] is not None else \
            time.perf_counter() - self.t0
        for phase in ("finalize", "fence", "route"):
            d = float(timings.get(phase, 0.0))
            start = max(ex[-1]["start"], end - d)
            self.add_child(ex[-1]["id"], f"exchange.{phase}", start, end)
            end = start

    # -- rollup ----------------------------------------------------------------

    def self_times(self, cycles: set[int]) -> dict[str, float]:
        """Seconds of self time per layer metric over the given cycles: a
        span's duration minus the part its children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        out = {m: 0.0 for m in LAYER_OF.values()}
        for s in self.spans:
            if s["cycle"] not in cycles or s["end"] is None:
                continue
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[LAYER_OF[s["name"]]] += max(0.0, own)
        return out

    def inclusive(self, name: str, cycles: set[int]) -> float:
        """Total seconds of the spans called ``name`` over the cycles."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["cycle"] in cycles
                   and s["end"] is not None)

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"run_id": self.run_id, **extra, "spans": self.spans}, f)
        os.replace(tmp, path)


def install(tracer: Tracer) -> None:
    """Wrap the in-process layer entry points at the names olrx and the
    benchmark call them by: ``replay_to_lake`` both in its own module and
    where ``TailSession`` imported it."""
    from olrx.pipelines import job, replay
    from olrx.stages import exchange
    from olrx.state import manifest

    tracer.wrap(replay, "load_control", "decode.load_control")
    tracer.wrap(replay, "detect_hot_keys", "partition.detect_hot_keys")
    tracer.wrap(exchange, "run_actor_exchange", "exchange.run_actor_exchange")
    for attr in ("read_all", "read_manifest", "global_watermark",
                 "write_lake_watermark"):
        tracer.wrap(manifest, attr, f"manifest.{attr}")
    for module in (replay, job):
        tracer.wrap(module, "replay_to_lake", "replay.replay_to_lake",
                    after=lambda sid, res: tracer.attach_exchange_phases(
                        sid, res.timings))
    tracer.wrap(job.TailSession, "run_once", "replay.run_once")
