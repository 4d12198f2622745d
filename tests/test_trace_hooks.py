"""The traced benchmark (``perfbench/spans.py``) wraps olrx functions at
the module attributes olrx calls them by. Moving or renaming one must fail
here, not silently drop its span from every ``--trace 1`` run."""

from olrx.pipelines import job, replay
from olrx.stages import decode, exchange, partition
from olrx.state import manifest


def _targets():
    return [(replay, "load_control"), (replay, "detect_hot_keys"),
            (exchange, "run_actor_exchange"),
            (manifest, "read_all"), (manifest, "read_manifest"),
            (manifest, "global_watermark"), (manifest, "write_lake_watermark"),
            (replay, "replay_to_lake"), (job, "replay_to_lake"),
            (job.TailSession, "run_once")]


def test_trace_hooks_resolve_and_unwrap():
    from perfbench import spans

    # the attributes the replay looks up are the library functions
    assert replay.load_control is decode.load_control
    assert replay.detect_hot_keys is partition.detect_hot_keys
    assert job.replay_to_lake is replay.replay_to_lake
    before = {(id(m), a): getattr(m, a) for m, a in _targets()}
    tracer = spans.Tracer("hooks")
    spans.install(tracer)
    try:
        assert {(id(m), a) for m, a, _ in tracer._patched} == set(before)
        for m, a in _targets():
            orig = before[(id(m), a)]
            assert getattr(m, a) is not orig
            assert getattr(m, a).__wrapped__ is orig
    finally:
        tracer.unwrap_all()
    for m, a in _targets():
        assert getattr(m, a) is before[(id(m), a)]
