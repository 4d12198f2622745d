"""Applier fleet lifetime: reuse across runs without state bleed, recovery
from a dead actor, teardown on close, and the applier's slim import
closure."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
import ray
from ray._private import state as gcs

from olrx.pipelines.replay import ReplayConfig, read_lake, replay_to_lake
from olrx.stages.exchange import ApplierFleet
from tests.conftest import sorted_table

CFG = ReplayConfig(num_partitions=16)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _actor_ids(fleet: ApplierFleet) -> list[str]:
    return [a._actor_id.hex() for a in fleet.appliers]


def _alive_appliers() -> list[str]:
    return [aid for aid, info in gcs.actors().items()
            if info["ActorClassName"] == "PartitionApplier"
            and info["State"] != "DEAD"]


def _kill_and_wait(actor) -> None:
    ray.kill(actor)
    deadline = time.monotonic() + 30
    while True:
        try:
            ray.get(actor.__ray_ready__.remote())
        except ray.exceptions.RayActorError:
            return
        assert time.monotonic() < deadline, "killed actor still answers"
        time.sleep(0.05)


def test_applier_imports_stay_slim():
    """Every applier process imports the exchange module and the commit
    path it calls; importing neither may pull in pandas or Ray Data (both
    cost spawn time on every replay). pandas still arrives at run time:
    pyarrow imports it on the first ``to_numpy`` or ``pa.array`` from
    numpy, which is why standby spares run ``PartitionApplier.warm``."""
    code = ("import sys, olrx.stages.exchange, olrx.stages.commit\n"
            "bad = [m for m in ('pandas', 'ray.data') if m in sys.modules]\n"
            "print(bad)\n"
            "sys.exit(1 if bad else 0)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr


def test_lake_replay_keeps_ray_data_out_of_appliers(tmp_path, gen_small):
    """Tables cross the applier boundary as IPC buffers both ways, so a
    lake-mode replay never runs Ray's Arrow reducer inside an applier,
    whose import of ``ray.air`` drags in ``ray.data``."""
    _, _, paths, _ = gen_small

    def ray_data_modules(_applier):
        import sys
        return sorted(m for m in sys.modules
                      if m.split(".")[:2] in (["ray", "data"], ["ray", "air"]))

    fleet = ApplierFleet()
    try:
        replay_to_lake(paths, str(tmp_path / "lake"), CFG, resume=False,
                       fleet=fleet)
        got = ray.get([a.__ray_call__.remote(ray_data_modules)
                       for a in fleet.appliers])
    finally:
        fleet.close()
    assert got and all(m == [] for m in got), got


def test_applier_count_follows_who_pays_the_spawn():
    """In the 4-CPU test session: below the per-applier byte budget a
    call-scoped fleet spawns one applier per CPU and a kept fleet 2× CPUs;
    large inputs get the 2× CPUs cap either way; ``num_appliers`` wins."""
    small, medium, large = 2**20, 5 * 24 * 2**20, 2**30
    assert CFG.resolved_num_appliers(small) == 4
    assert CFG.resolved_num_appliers(small, kept_fleet=True) == 8
    assert CFG.resolved_num_appliers(medium) == 6
    assert CFG.resolved_num_appliers(medium, kept_fleet=True) == 8
    assert CFG.resolved_num_appliers(large) == 8
    assert CFG.resolved_num_appliers(large, kept_fleet=True) == 8
    pinned = dataclasses.replace(CFG, num_appliers=3)
    for nbytes in (small, large):
        for kept in (False, True):
            assert pinned.resolved_num_appliers(nbytes, kept_fleet=kept) == 3


def test_call_scoped_replay_spawns_one_applier_per_cpu(tmp_path, gen_small,
                                                       monkeypatch):
    """``replay_to_lake`` without a fleet sizes its own fleet as call-scoped
    (the kept-fleet size is checked on ``TailSession`` below)."""
    _, _, paths, _ = gen_small
    seen = []
    begin = ApplierFleet.begin

    def spy(self, num_appliers, *a, **kw):
        seen.append(num_appliers)
        return begin(self, num_appliers, *a, **kw)

    monkeypatch.setattr(ApplierFleet, "begin", spy)
    replay_to_lake(paths, str(tmp_path / "lake"), CFG, resume=False)
    assert seen == [4]


def test_fleet_reuse_has_no_state_bleed(tmp_path, gen_small, expected_small,
                                        monkeypatch):
    """Two back-to-back fresh replays of the same input through one fleet:
    both lakes are oracle-equal and both runs' counters equal a call-scoped
    replay's. A content digest carried over from run one would make run two
    drop every re-read shard as a retry duplicate."""
    _, _, paths, _ = gen_small
    # one read block per segment and one decode batch per block: the shards,
    # and so their digests, are the same in both runs (a batch bundling
    # several blocks concatenates them in arrival order)
    monkeypatch.setattr("olrx.pipelines.replay.route_group_count",
                        lambda nbytes, num_files, cpus: len(paths))
    cfg = dataclasses.replace(CFG, batch_size=None)
    ref = replay_to_lake(paths, str(tmp_path / "ref"), cfg, resume=False)
    want_stats = ref.stats.sort_by("partition")
    lake = str(tmp_path / "lake")
    fleet = ApplierFleet()
    try:
        ids = []
        for _ in range(2):
            res = replay_to_lake(paths, lake, cfg, resume=False, fleet=fleet)
            ids.append(_actor_ids(fleet))
            assert res.stats.sort_by("partition").equals(want_stats)
            assert sorted_table(read_lake(lake),
                                expected_small.schema).equals(expected_small)
        assert ids[0] == ids[1], "the second run must reuse the fleet"
    finally:
        fleet.close()


def test_failed_exchange_discards_fleet():
    """An exception inside an exchange kills the caller's fleet before it
    propagates: the actors' per-run state is unknown, so the next run must
    start from fresh ones."""
    from olrx.stages.decode import DecodePlan
    from olrx.stages.exchange import run_actor_exchange

    def boom(group, profile=None):
        raise RuntimeError("injected router failure")

    fleet = ApplierFleet()
    _, ready = fleet.begin(2, 0, num_partitions=1)
    ray.get(ready)
    ids = _actor_ids(fleet)
    events = DecodePlan([["x"]], boom)
    with pytest.raises(Exception, match="injected router failure"):
        run_actor_exchange(events, 2, 0, fleet=fleet)
    assert fleet.appliers == []
    assert {gcs.actors(actor_id=aid)["State"] for aid in ids} == {"DEAD"}


def test_failed_group_cancels_its_siblings(tmp_path):
    """When one group task raises, the exchange cancels the group tasks
    still running before the error propagates: a sibling that would write
    a marker after 2 s never writes it."""
    from olrx.stages.decode import DecodePlan
    from olrx.stages.exchange import run_actor_exchange

    marker = str(tmp_path / "late")

    def decode(group, profile=None):
        if group == ["boom"]:
            raise RuntimeError("injected group failure")
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            time.sleep(0.01)
        open(marker, "w").close()
        return []

    with pytest.raises(Exception, match="injected group failure"):
        run_actor_exchange(DecodePlan([["slow"], ["boom"]], decode), 2, 0,
                           fleet=ApplierFleet())
    time.sleep(3)
    assert not os.path.exists(marker), "a sibling group kept running"


def test_group_task_retried_after_its_worker_dies(tmp_path, gen_small,
                                                  expected_small,
                                                  monkeypatch):
    """A group task's worker exits right after shipping its first shards;
    Ray retries the task, which re-ships them. The appliers drop the
    duplicates by content digest, so the lake equals the oracle and the
    manifests count every event exactly once."""
    from olrx.stages import exchange
    from olrx.state import manifest as MF

    _, _, paths, _ = gen_small
    marker = str(tmp_path / "died")
    make = exchange.make_router

    def dying_router(appliers, num_appliers, ready_refs=None):
        route = make(appliers, num_appliers, ready_refs)

        def fn(batch):
            out = route(batch)
            if out[0] and not os.path.exists(marker):   # first attempt only
                open(marker, "w").close()
                os._exit(1)
            return out

        return fn

    monkeypatch.setattr(exchange, "make_router", dying_router)
    cfg = dataclasses.replace(CFG, num_partitions=8, batch_size=1000,
                              num_appliers=2)
    lake = str(tmp_path / "lake")
    res = replay_to_lake(paths, lake, cfg, resume=False)
    assert os.path.exists(marker), "a group task's worker must die"
    ms = MF.read_all(os.path.join(lake, "_manifest")).values()
    assert sum(m.counters["events"] for m in ms) == 7220
    assert sum(res.stats["events"].to_pylist()) == 7220
    assert sorted_table(read_lake(lake),
                        expected_small.schema).equals(expected_small)


def _tail_job(tmp_path, paths):
    """A tail job spec over an initially empty directory, and a callable
    landing the segments of the given sequence numbers there."""
    src = tmp_path / "segments"
    src.mkdir(parents=True)
    spec_path = str(tmp_path / "job.json")
    with open(spec_path, "w") as f:
        json.dump({"source": {"directory": str(src)},
                   "target": {"uri": str(tmp_path / "lake"),
                              "num_partitions": 16},
                   "mode": "tail"}, f)

    def land(*seqs: int) -> None:
        for p in paths:
            if any(f"seg{s:04d}" in p for s in seqs):
                shutil.copy(p, src / os.path.basename(p))

    return spec_path, land


def _two_waves(tmp_path, paths, between=None):
    """Run a tail session over two landing waves, calling ``between(sess)``
    after the first iteration. Returns per-iteration (stats, actor ids);
    the session is closed."""
    from olrx.pipelines.job import TailSession

    spec_path, land = _tail_job(tmp_path, paths)
    out = []
    with TailSession(spec_path) as sess:
        land(0, 1)
        out.append((sess.run_once().stats.sort_by("partition"),
                    _actor_ids(sess.fleet)))
        if between is not None:
            between(sess)
        land(2, 3)
        out.append((sess.run_once().stats.sort_by("partition"),
                    _actor_ids(sess.fleet)))
    return out


def test_tail_session_keeps_its_fleet(tmp_path, gen_small, expected_small):
    """Iterations reuse the same applier actors; close() returns only once
    they are dead, leaving no applier alive."""
    _, _, paths, _ = gen_small
    (_, ids1), (_, ids2) = _two_waves(tmp_path, paths)
    assert ids1 and ids1 == ids2, "run_once respawned the fleet"
    assert len(ids1) == 8, "a kept fleet keeps 2× CPUs appliers"
    assert sorted_table(read_lake(str(tmp_path / "lake")),
                        expected_small.schema).equals(expected_small)
    states = {aid: gcs.actors(actor_id=aid)["State"] for aid in ids2}
    assert set(states.values()) == {"DEAD"}, states
    assert _alive_appliers() == []


def test_tail_session_recovers_killed_applier(tmp_path, gen_small,
                                              expected_small):
    """An applier killed between iterations is respawned at the next
    run_once, whose lake is oracle-equal and whose counters equal those of
    an undisturbed session over the same waves."""
    _, _, paths, _ = gen_small
    want = _two_waves(tmp_path / "plain", paths)

    def kill_first(sess):
        _kill_and_wait(sess.fleet.appliers[0])

    (_, ids1), (stats2, ids2) = _two_waves(tmp_path / "killed", paths,
                                           between=kill_first)
    assert ids2[0] != ids1[0] and ids2[1:] == ids1[1:], \
        "only the dead actor is replaced"
    assert stats2.equals(want[1][0])
    assert sorted_table(read_lake(str(tmp_path / "killed" / "lake")),
                        expected_small.schema).equals(expected_small)
    assert _alive_appliers() == []


def test_run_tail_closes_its_session(tmp_path, gen_small):
    from olrx.pipelines.job import run_tail

    _, _, paths, _ = gen_small
    spec_path, land = _tail_job(tmp_path, paths)
    land(0, 1)
    out = run_tail(spec_path, iterations=1)
    assert len(out) == 1 and out[0].stats.num_rows > 0
    assert _alive_appliers() == []


def test_applier_killed_mid_route_fails_fast_then_resumes(
        tmp_path, gen_small, expected_small, monkeypatch):
    """``ray.kill`` of one applier after the first block is routed makes
    the replay raise within 30 s, not at the fence timeout; a
    ``resume=True`` rerun then equals the oracle, and its lineage counters
    add up with the partitions the failed call committed to exactly the
    stream's events."""
    from olrx.stages import exchange
    from olrx.state import manifest as MF

    _, _, paths, _ = gen_small
    marker = str(tmp_path / "killed")
    make = exchange.make_router

    def killing_router(appliers, num_appliers, ready_refs=None):
        route, victim = make(appliers, num_appliers, ready_refs), appliers[0]

        def fn(batch):
            out = route(batch)
            if not os.path.exists(marker):     # once, after the first block
                open(marker, "w").close()
                ray.kill(victim)
            return out

        return fn

    monkeypatch.setattr(exchange, "make_router", killing_router)
    cfg = dataclasses.replace(CFG, num_partitions=8, batch_size=1000,
                              num_appliers=2)
    lake = str(tmp_path / "lake")
    t0 = time.monotonic()
    with pytest.raises(Exception):
        replay_to_lake(paths, lake, cfg, resume=False)
    assert time.monotonic() - t0 < 30
    assert os.path.exists(marker), "the applier must die mid-route"
    monkeypatch.undo()
    committed = sum(m.counters.get("events", 0) for m in
                    MF.read_all(os.path.join(lake, "_manifest")).values())
    res = replay_to_lake(paths, lake, cfg, resume=True)
    assert sum(res.stats["events"].to_pylist()) + committed == 7220
    assert sorted_table(read_lake(lake),
                        expected_small.schema).equals(expected_small)


def test_applier_killed_inside_finalize_then_resumes(
        tmp_path, gen_small, expected_small, monkeypatch):
    """Once the first applier's ``finalize_commit`` has returned, the other
    applier is killed before its finalize launches: the replay raises with
    half the partitions committed. A resume over all segments then starts
    from partitions at two watermarks; it equals the oracle, and its
    lineage counters add up with the failed call's commits to exactly the
    stream's events."""
    from olrx.stages import exchange
    from olrx.state import manifest as MF

    _, _, paths, _ = gen_small
    fence = exchange._fence_and_launch
    killed: list[int] = []

    def killing_fence(appliers, totals, launch, timeout_s=600.0):
        def launch_then_kill(i):
            ref = launch(i)
            if not killed:
                ray.get(ref)
                killed.append(1 - i)
                _kill_and_wait(appliers[1 - i])
            return ref

        return fence(appliers, totals, launch_then_kill, timeout_s)

    monkeypatch.setattr(exchange, "_fence_and_launch", killing_fence)
    cfg = dataclasses.replace(CFG, num_appliers=2)
    lake = str(tmp_path / "lake")
    first = [p for p in paths if "seg0000" in p or "seg0001" in p]
    with pytest.raises(Exception):
        replay_to_lake(first, lake, cfg, resume=False)
    assert killed, "an applier must die inside finalize"
    monkeypatch.undo()
    ms = MF.read_all(os.path.join(lake, "_manifest"))
    assert ms and {p % 2 for p in ms} == {1 - killed[0]}
    committed = sum(m.counters.get("events", 0) for m in ms.values())
    res = replay_to_lake(paths, lake, cfg, resume=True)
    assert sum(res.stats["events"].to_pylist()) + committed == 7220
    assert sorted_table(read_lake(lake),
                        expected_small.schema).equals(expected_small)
