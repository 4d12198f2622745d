"""The driver's standby of warm spare appliers: call-scoped replays take
spares instead of spawning cold actors, the first call of a session starts
none, concurrent takes never share an actor, idle spares die at the
timeout, dead or stale spares are never used."""

import dataclasses
import os
import subprocess
import sys
import threading
import time

import pytest
import ray
from ray._private import state as gcs

from olrx.pipelines.replay import ReplayConfig, read_lake, replay_to_lake
from olrx.stages import exchange
from olrx.stages.exchange import ApplierFleet
from tests.conftest import fresh_copy, sorted_table
from tests.test_finalize import _manifests
from tests.test_fleet import _alive_appliers, _kill_and_wait

CFG = ReplayConfig(num_partitions=16)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ids(actors: list) -> list[str]:
    return [a._actor_id.hex() for a in actors]


def _state(actor_id: str) -> "str | None":
    return (gcs.actors(actor_id=actor_id) or {}).get("State")


@pytest.fixture
def standby(monkeypatch):
    """A standby that has seen no call-scoped exchange yet, as in a new
    process; drained at the end. The session-wide standby is drained first,
    so only this test's spares are alive."""
    exchange.STANDBY.drain()
    fresh = exchange._Standby()
    monkeypatch.setattr(exchange, "STANDBY", fresh)
    yield fresh
    fresh.drain()


@pytest.fixture
def begun(monkeypatch):
    """``(thread id, actor ids)`` of every ``ApplierFleet.begin``, in order."""
    seen: list[tuple[int, list[str]]] = []
    begin = ApplierFleet.begin

    def spy(self, *a, **kw):
        appliers, refs = begin(self, *a, **kw)
        seen.append((threading.get_ident(), _ids(appliers)))
        return appliers, refs

    monkeypatch.setattr(ApplierFleet, "begin", spy)
    return seen


def _replay(paths, lake, cfg=CFG):
    return replay_to_lake(paths, str(lake), cfg, resume=False)


def test_first_call_scoped_exchange_starts_no_spare(tmp_path, gen_small,
                                                    standby):
    _, _, paths, _ = gen_small
    _replay(paths, tmp_path / "lake")
    assert standby._spares == []
    assert _alive_appliers() == []


def test_next_call_runs_on_warm_spares(tmp_path, gen_small, expected_small,
                                       standby, begun):
    """The call after the one that topped the standby up runs on the spares
    spawned meanwhile: its fence finds a warm actor, and its lake and
    manifest counters equal a cold replay's."""
    _, _, paths, _ = gen_small
    lake = tmp_path / "lake"
    one = dataclasses.replace(CFG, num_appliers=1)
    cold = _replay(paths, lake, one)
    want = (cold.stats.sort_by("partition"), _manifests(str(lake)))
    _replay(paths, lake, one)
    spares = _ids(standby._spares)
    assert len(spares) == 1, "the standby holds the last call's size"
    # back to back on a busy host, a spare may still be starting (its
    # placement waits for a free CPU); a caller that reads its lake between
    # calls gives it that time
    ray.get([a.__ray_ready__.remote() for a in standby._spares])
    warm = _replay(paths, lake, one)
    assert begun[-1][1] == spares
    assert warm.timings["fence"] <= 0.02, warm.timings
    assert warm.stats.sort_by("partition").equals(want[0])
    assert _manifests(str(lake)) == want[1]
    assert sorted_table(read_lake(str(lake)),
                        expected_small.schema).equals(expected_small)


def test_concurrent_replays_never_share_an_actor(tmp_path, gen_small,
                                                 expected_small, standby,
                                                 begun):
    """Two threads replay at once, each taking half of the standby's four
    spares: their actor sets are disjoint and both lakes oracle-equal."""
    _, _, paths, _ = gen_small
    for i in range(2):
        _replay(paths, tmp_path / f"prime{i}")
    spares = set(_ids(standby._spares))
    assert len(spares) == 4
    two = dataclasses.replace(CFG, num_appliers=2)
    inputs = [fresh_copy(paths, tmp_path) for _ in range(2)]
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            _replay(inputs[i], tmp_path / f"lake{i}", two)
        except BaseException as e:   # re-raised by the assert below
            errors.append(e)

    del begun[:]
    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert len(begun) == 2 and begun[0][0] != begun[1][0]
    a, b = (set(ids) for _, ids in begun)
    assert not a & b
    assert a | b == spares, "both calls took their actors from the standby"
    for i in range(2):
        assert sorted_table(read_lake(str(tmp_path / f"lake{i}")),
                            expected_small.schema).equals(expected_small)


def test_http_filesystem_check_is_thread_safe():
    """Ray Data asks on every read whether the filesystem is fsspec's HTTP
    one, importing that module each time; where the import fails, 8
    threads asking at once all get a plain False and none an ImportError
    (``olrx/__init__.py`` makes the failure final at import)."""
    from pyarrow.fs import LocalFileSystem
    from ray.data.datasource.path_util import _is_http_filesystem

    gate = threading.Barrier(8)
    got: list = []

    def ask() -> None:
        gate.wait()
        for _ in range(20):
            try:
                got.append(_is_http_filesystem(LocalFileSystem()))
            except BaseException as e:   # reported by the assert below
                got.append(e)

    threads = [threading.Thread(target=ask) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert got == [False] * 160, [g for g in got if g is not False][:3]


def test_takes_under_contention_are_disjoint(monkeypatch):
    """Many threads take from one standby at once, with a short switch
    interval: every spare goes to exactly one taker."""
    sb = exchange._Standby()
    monkeypatch.setattr(exchange, "_session_key", lambda: ("job", "node"))
    monkeypatch.setattr(exchange, "_actor_state", lambda a: "ALIVE")
    monkeypatch.setattr(sb, "_arm", lambda: None)     # no idle timers
    sb._sync()
    sb._spares = list(range(400))
    got: list[list] = [[] for _ in range(16)]

    def taker(i: int) -> None:
        while True:
            part = sb.take(3)
            if not part:
                return
            got[i].extend(part)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=taker, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    taken = [x for g in got for x in g]
    assert sorted(taken) == list(range(400))


def test_idle_spares_die_after_the_timeout(standby, monkeypatch):
    """Spares nobody takes die at the idle timeout; a top-up never keeps
    more than ``STANDBY_MAX``."""
    monkeypatch.setattr(exchange, "STANDBY_IDLE_S", 1.0)
    monkeypatch.setattr(exchange, "STANDBY_MAX", 2)
    standby.top_up(3)       # the session's first call: no spare
    standby.top_up(3)
    ids = _ids(standby._spares)
    assert len(ids) == 2
    deadline = time.monotonic() + 30
    while not all(_state(aid) == "DEAD" for aid in ids):
        assert time.monotonic() < deadline, "spares outlived the idle timeout"
        time.sleep(0.2)
    assert standby._spares == [] and _alive_appliers() == []


def test_spare_killed_while_idle_is_skipped(tmp_path, gen_small,
                                            expected_small, standby, begun):
    _, _, paths, _ = gen_small
    for i in range(2):
        _replay(paths, tmp_path / f"prime{i}")
    spares = list(standby._spares)
    _kill_and_wait(spares[0])
    lake = tmp_path / "lake"
    _replay(paths, lake)
    used = begun[-1][1]
    assert spares[0]._actor_id.hex() not in used
    assert set(_ids(spares[1:])) <= set(used)
    assert sorted_table(read_lake(str(lake)),
                        expected_small.schema).equals(expected_small)


_NEW_SESSION = """
import glob, sys
import ray
from olrx.gen import GenConfig, ensure_changelog
from olrx.pipelines.replay import ReplayConfig, replay_to_lake
from olrx.stages import exchange

def init():
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)

out = sys.argv[1]
paths = sorted(glob.glob(ensure_changelog(GenConfig(scale=0.001))
                         + "/*.parquet"))
cfg = ReplayConfig(num_partitions=8)
init()
want = replay_to_lake(paths, out + "/a", cfg, resume=False).stats
replay_to_lake(paths, out + "/b", cfg, resume=False)
stale = {a._actor_id.hex() for a in exchange.STANDBY._spares}
assert stale, "the second call leaves spares"
ray.shutdown()
init()
used = []
begin = exchange.ApplierFleet.begin

def spy(self, *a, **kw):
    appliers, refs = begin(self, *a, **kw)
    used.extend(x._actor_id.hex() for x in appliers)
    return appliers, refs

exchange.ApplierFleet.begin = spy
got = replay_to_lake(paths, out + "/c", cfg, resume=False).stats
assert used and not stale & set(used), (stale, used)
assert got.sort_by("partition").equals(want.sort_by("partition"))
assert exchange.STANDBY._spares == [], "a new session starts without spares"
ray.shutdown()
print("ok")
"""


def test_new_ray_session_drops_stale_spares(tmp_path):
    """After ``ray.shutdown()`` and ``ray.init()`` in one process, a replay
    runs on fresh actors and its result equals the first session's; the
    earlier session's spare handles are never used."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _NEW_SESSION, str(tmp_path)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0 and out.stdout.strip().endswith("ok"), \
        out.stdout[-2000:] + out.stderr[-4000:]
