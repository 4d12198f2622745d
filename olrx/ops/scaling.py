"""Cluster-sized actor pools, bucket counts and read block counts.

A hardcoded ``concurrency=2`` (round-2 state) pins the most CPU-hungry
stages — minhash/simhash signatures, text scoring, media kernels — to two
workers on a 32-CPU node and on any larger cluster. Pools are sized from the
live cluster instead: an autoscaling ``(min, max)`` pool lets small inputs
spawn one actor while large inputs grow to the CPU budget (same philosophy
as ReplayConfig.resolved_num_appliers on the CDC path, replay.py).
"""

from __future__ import annotations

import ray


def actor_pool(frac: float = 1.0, floor: int = 1) -> tuple[int, int]:
    """``(min, max)`` for ``map_batches(Cls, concurrency=...)``: autoscale up
    to ``frac`` × cluster CPUs (min 2 so a busy stage never serializes)."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return (floor, max(2, int(cpus * frac)))


def coarse_buckets(per_cpu: int = 4, floor: int = 32) -> int:
    """Bucket count for coarse-bucket `groupby().map_groups` stages: enough
    groups to feed the cluster (4× CPUs), few enough that each map_groups
    UDF call processes MANY fine-grained key segments vectorized. Calling
    the UDF once per fine key (e.g. per LSH bucket) costs one Python/pandas
    round-trip per key — measured 27 s for ~80k keys vs ~1 s coarse."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(floor, per_cpu * cpus)


def coarse_read_blocks(num_files: int | None = None) -> int:
    """Read blocks for a parquet read: 3× CPUs, and never more blocks than
    files. Ray's default block count splits a few dozen small files into
    ms-scale tasks, and the driver becomes the scheduling bottleneck. Used
    by ``emit.message_stream``'s segment read; the replay and the lake
    reads group their files by bytes (``replay.route_group_count``)."""
    blocks = 3 * int(ray.cluster_resources().get("CPU", 8))
    return max(1, min(blocks, num_files)) if num_files is not None else blocks
