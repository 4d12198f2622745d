"""Self-test of the benchmark's oracle gate.

    python3 perfbench/selftest.py

Builds a small lake with ``replay_to_lake`` and reads it back through the
same check the workloads use, three times: as built, with one ``text``
value altered in one partition snapshot, and with one partition manifest
deleted. Passes (exit 0) when the intact lake reports ``error_rate`` 0 and
both corrupted lakes report ``error_rate > 0``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _alter_text(lake: str) -> str:
    """Append one character to the first ``text`` value of the first
    partition snapshot a manifest references."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    mdir = os.path.join(lake, "_manifest")
    first = sorted(f for f in os.listdir(mdir) if f.startswith("part-"))[0]
    with open(os.path.join(mdir, first)) as f:
        snap = os.path.join(lake, json.load(f)["files"][0])
    t = pq.read_table(snap)
    text = t["text"].to_pylist()
    text[0] = (text[0] or "") + "!"
    t = t.set_column(t.schema.get_field_index("text"), "text",
                     pa.array(text, t.schema.field("text").type))
    pq.write_table(t, snap)
    return snap


def _drop_manifest(lake: str) -> str:
    mdir = os.path.join(lake, "_manifest")
    victim = sorted(f for f in os.listdir(mdir) if f.startswith("part-"))[0]
    os.remove(os.path.join(mdir, victim))
    return victim


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "olrx")):
        print(f"olrx sources not found next to {HERE}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import gate as G
    import host
    import inputs
    import workloads as W
    from olrx.gen import GenConfig
    from olrx.pipelines.replay import ReplayConfig, read_lake, replay_to_lake

    work = os.path.join(ROOT, ".perfbench", "work", f"selftest-{uuid.uuid4().hex[:8]}")
    os.makedirs(work)
    host.pin_arrow()
    ray_tmp = None
    try:
        ray_tmp = host.start_ray(ROOT)
        paths = inputs.generate(GenConfig(scale=0.002, seed=7),
                                os.path.join(work, "segments"))
        want, = G.oracle_digests([paths])
        lake = os.path.join(work, "lake")
        replay_to_lake(paths, lake, ReplayConfig(num_partitions=8), resume=False)
        cases = {"intact": lambda d: "unchanged",
                 "altered_text": _alter_text,
                 "deleted_manifest": _drop_manifest}
        report = {}
        for name, corrupt in cases.items():
            copy = os.path.join(work, name)
            shutil.copytree(lake, copy)
            what = corrupt(copy)
            run = W.Run(root=ROOT, work=work, workload="selftest", seed=7,
                        seconds=0)
            got = run.read_checked("replay.read_lake", read_lake, copy)
            run.gate.expect("read_lake", got, want)
            report[name] = {"corruption": os.path.basename(what),
                            "error_rate": run.gate.error_rate,
                            "errors": run.gate.errors}
    finally:
        if ray_tmp is not None:
            host.stop_ray(ray_tmp)
        shutil.rmtree(work, ignore_errors=True)
    ok = (report["intact"]["error_rate"] == 0
          and report["altered_text"]["error_rate"] > 0
          and report["deleted_manifest"]["error_rate"] > 0)
    print(json.dumps({"passed": ok, **report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
