"""Host pinning, the Ray session, and the host record every run carries."""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

#: fixed plasma store size: the benchmark inputs need well under this, and a
#: fixed figure keeps Ray from sizing the store off whatever RAM the host has
OBJECT_STORE_BYTES = 512 * 2**20

#: how long an idle Ray worker above the ``num_cpus`` soft limit lives. At
#: Ray's default (1 s) the pool kills and respawns Python workers between
#: calls, and about one read in four pays a ~0.7 s worker start; a run
#: keeps the workers it has started instead
IDLE_WORKER_KEEP_MS = 600_000

#: AF_UNIX socket paths are capped at 107 bytes; Ray appends up to ~65
#: bytes of session and socket names to its temp dir
_MAX_RAY_TEMP = 42


def nproc() -> int:
    """CPUs as ``nproc`` reports them: the affinity set, narrowed by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when those are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def pin_arrow() -> None:
    """Size this process's Arrow CPU and IO pools to ``nproc``."""
    import pyarrow as pa

    pa.set_cpu_count(nproc())
    pa.set_io_thread_count(nproc())


def start_ray(root: str) -> str:
    """Start a private local Ray session sized to this host: ``num_cpus =
    nproc``, a fixed object store, no dashboard, no progress bars, worker
    logs kept off stdout. Returns the Ray temp dir: ``.perfbench/ray`` in
    the checkout unless that path is too long for a Unix socket, in which
    case a short private dir is made. :func:`stop_ray` removes it."""
    import ray

    # workers import olrx from the checkout, not from an installed copy
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    tmp = os.path.join(root, ".perfbench", "ray")
    if len(tmp) > _MAX_RAY_TEMP:
        tmp = tempfile.mkdtemp(prefix="pb")
    os.makedirs(tmp, exist_ok=True)
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=tmp,
             logging_level="ERROR", log_to_driver=False,
             _system_config={"idle_worker_killing_time_threshold_ms":
                             IDLE_WORKER_KEEP_MS})
    exit_on_sigterm()       # ray.init installs a SIGTERM handler of its own
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return tmp


def stop_ray(tmp: str) -> None:
    """Shut the Ray session down and wait until every process it started
    has ended (``ray.shutdown`` signals them but does not wait)."""
    import ray

    ray.shutdown()
    stop_children()
    shutil.rmtree(tmp, ignore_errors=True)


# -- processes ---------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants, so a Ray
    worker whose raylet exits first stays visible to :func:`stop_children`
    instead of moving under init."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit``, so the run unwinds through its
    ``finally`` and stops the processes it started."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children(grace_s: float = 5.0, term_s: float = 3.0) -> None:
    """Wait until this process has no descendants left: they get
    ``grace_s`` to exit on their own, then SIGTERM, then after ``term_s``
    more SIGKILL. Exited children are reaped as they go."""
    start = time.monotonic()
    signalled = None
    while True:
        _reap()
        live = [p for p in session_pids() if p != os.getpid()]
        if not live:
            return
        waited = time.monotonic() - start
        sig = (signal.SIGKILL if waited > grace_s + term_s
               else signal.SIGTERM if waited > grace_s else None)
        if waited > grace_s + term_s + 20.0:
            raise RuntimeError(f"processes {live} outlived SIGKILL")
        if sig is not None and sig != signalled:
            for p in live:
                try:
                    os.kill(p, sig)
                except ProcessLookupError:
                    pass
            signalled = sig
        time.sleep(0.02)


# -- host speed --------------------------------------------------------------

#: median seconds of one :func:`probe` rep on the reference host (4-vCPU
#: shared VM, ``nproc`` 1); end-to-end times are reported at this speed
PROBE_NOMINAL_S = 0.05

_probe_table = None


def probe(reps: int) -> list[float]:
    """Seconds of each of ``reps`` runs of a fixed task that runs no olrx
    code: an Arrow sort and group-by, a Parquet round trip in memory and a
    Python loop, the mix the engine's own work is made of. A shared host
    drifts in speed by some 15% over minutes; the run's probe median
    measures where it stood, and end-to-end times are scaled by it."""
    global _probe_table
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    if _probe_table is None:
        rng = np.random.default_rng(0)
        n = 100_000
        _probe_table = pa.table({
            "k": rng.integers(0, 20_000, n), "v": rng.random(n),
            "s": pa.array([f"row-{i % 7919}" for i in range(n)])})
    tbl = _probe_table
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        tbl.take(pc.sort_indices(tbl, [("k", "ascending")]))
        tbl.group_by("s").aggregate([("v", "sum")])
        buf = pa.BufferOutputStream()
        pq.write_table(tbl, buf)
        pq.read_table(pa.BufferReader(buf.getvalue()))
        acc = 0
        for i in range(100_000):
            acc += i * i
        out.append(time.perf_counter() - t0)
    return out


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "olrx")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_rev(root: str) -> "str | None":
    """HEAD of the checkout when it is a git work tree of its own (a parent
    directory's repository would name the wrong revision)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_record(root: str) -> dict:
    import pyarrow as pa
    import ray

    return {
        "git_rev": _git_rev(root),
        "olrx_source_digest": _source_digest(root),
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "ray": ray.__version__,
        "pyarrow": pa.__version__,
        "object_store_mb": OBJECT_STORE_BYTES // 2**20,
    }


# -- memory ------------------------------------------------------------------

def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def session_pids() -> list[int]:
    """This process and every live descendant (Ray's GCS, raylet, agents
    and workers are all started beneath it)."""
    kids = _children()
    out, todo = [], [os.getpid()]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def reset_peak_rss() -> None:
    """Reset VmHWM to current RSS for the session's processes, so the peak
    read at the end covers the measured phase only (Linux clear_refs 5)."""
    for p in session_pids():
        try:
            with open(f"/proc/{p}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_by_process() -> dict[str, float]:
    """VmHWM in MB of this process and each live Ray session process, keyed
    ``<pid>:<name>``; their sum is the run's ``peak_rss_mb``."""
    out = {}
    for p in session_pids():
        try:
            with open(f"/proc/{p}/status") as f:
                fields = dict(line.split(":", 1) for line in f if ":" in line)
        except OSError:
            continue
        if "VmHWM" in fields:
            out[f"{p}:{fields['Name'].strip()}"] = int(fields["VmHWM"].split()[0]) / 1024.0
    return out
