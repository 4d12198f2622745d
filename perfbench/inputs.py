"""Workload inputs: seeded changelogs from ``olrx.gen``.

The engine only ever sees the generated segment files; the generator
config and its seed are printed with every run.
"""

from __future__ import annotations

import glob
import os

#: Per workload: generator knobs (``olrx.gen.GenConfig``) and replay knobs
#: (``ReplayConfig``); why each workload exists is in BENCHMARK.json.
WORKLOADS: dict[str, dict] = {
    "bulk_replay": {
        "gen": {"scale": 0.03, "segments_per_shard": 16},
        "replay": {},
    },
    "hot_updates": {
        "gen": {"scale": 0.006, "segments_per_shard": 16,
                "update_lambda": 8.0, "hot_conv_factor": 100,
                "partial_images": True, "ddl_drop": True,
                "ddl_rename": True},
        "replay": {"salt_hot": True},
        # applier compaction trigger = this / number of appliers, so every
        # applier folds at least once on an input the run's time budget
        # allows (the default 1M-row trigger needs ~3M events at 1 CPU)
        "fold_events": 80_000,
    },
    "tail_ingest": {
        "gen": {"scale": 0.02},
        "replay": {"num_partitions": 16, "snapshot_keep": 2},
        # segment pairs landed per second; the first half of the segments
        # seeds the lake in set-up, the second half lands during the run
        "pairs_per_s": 5.0,
    },
}


def gen_config(workload: str, seed: int, seconds: float):
    from olrx.gen import GenConfig

    spec = WORKLOADS[workload]
    kw = dict(spec["gen"])
    if workload == "tail_ingest":
        # enough pairs for the landing schedule to last the whole run
        kw["segments_per_shard"] = 2 * max(2, round(spec["pairs_per_s"] * seconds))
    return GenConfig(seed=seed, **kw)


def segment_paths(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def generate(cfg, out_dir: str) -> list[str]:
    """Write the changelog segments and their ``_ctl`` sidecars."""
    from olrx.gen import generate_segments

    generate_segments(cfg, out_dir)
    return segment_paths(out_dir)
