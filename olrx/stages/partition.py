"""Hash partitioning by conv_id with salted hot-key handling.

The reference is a single totally-ordered stream and needs no key
partitioning; its skew analog is big-transaction splitting
(/root/reference/src/parser/Transaction.cpp:519-538). At cluster scale the
north rule requires explicit skew handling: a hot conversation (one key
holding a large fraction of events) would serialize one apply actor.

Salting scheme: normally ``part = H(conv_id) % P``. For conversations in the
hot set, ``part = H(conv_id, turn_idx // salt_block) % P`` — turn-range salting
keeps every ``(conv_id, turn_idx)`` row key in exactly one partition, so
per-row LWW ordering (the only ordering upserts need, SURVEY §4.1) is
preserved while one conversation spreads over many partitions.

Hashes are stable across processes (pandas siphash with its fixed default
key), a requirement for resume: the same key must land in the same partition
in every run.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from olrx.ops.scaling import coarse_read_blocks

_SALT_MULT = np.uint64(0x9E3779B97F4A7C15)


def _stable_hash(strings: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hash of an object array of strings."""
    return pd.util.hash_array(strings, categorize=True)


def partition_ids(conv_id, turn_idx, num_partitions: int,
                  hot: frozenset = frozenset(), salt_block: int = 64,
                  table=None) -> np.ndarray:
    """Vectorized partition id for each row; hot conv_ids are turn-salted.
    ``table`` (multi-table streams) mixes the table identity into the hash so
    the same conv_id in two tables co-locates per (table, conv)."""
    conv = np.asarray(conv_id.to_numpy(zero_copy_only=False), dtype=object)
    h = _stable_hash(conv)
    if table is not None:
        h = h ^ (_stable_hash(np.asarray(table.to_numpy(zero_copy_only=False),
                                         dtype=object)) * _SALT_MULT)
    if hot:
        hot_mask = np.isin(conv, list(hot))
        if hot_mask.any():
            turns = np.asarray(turn_idx.to_numpy(zero_copy_only=False), dtype=np.int64)
            salt = (turns // salt_block).astype(np.uint64)
            h = np.where(hot_mask, h ^ ((salt + np.uint64(1)) * _SALT_MULT), h)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def detect_hot_keys(paths: list[str], key_column: str = "conv_id",
                    frac_threshold: float = 0.01, top_per_batch: int = 50,
                    num_blocks: int | None = None) -> frozenset:
    """Approximate heavy-hitter detection with one pruned-column pass.

    Per batch, emit only the ``top_per_batch`` most frequent keys (partial
    counts) plus the batch's row count; aggregate the small partials on the
    driver. A key holding ≥ ``frac_threshold`` of all rows appears in the
    top of nearly every batch, so its global count is recovered (slightly
    under-estimated); cold keys never leave the workers. This is the
    pre-aggregation pattern for groupby at scale — the full exact count
    would itself be a shuffle. ``num_blocks``: read blocks (one batch
    each); None → ``scaling.coarse_read_blocks``.
    """
    ds = rd.read_parquet(paths, columns=[key_column],
                         override_num_blocks=num_blocks or coarse_read_blocks())

    def partial_counts(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t[key_column].drop_null())
        top = pa.table({key_column: vc.field("values"),
                        "n": vc.field("counts").cast(pa.int64())})
        if top.num_rows > top_per_batch:
            top = top.take(pc.select_k_unstable(
                top, top_per_batch, [("n", "descending")]))
        # the batch's row count rides along under a null key
        rows = pa.table({key_column: pa.nulls(1, top.schema[0].type),
                         "n": pa.array([t.num_rows], pa.int64())})
        return pa.concat_tables([top, rows])

    refs = ds.map_batches(partial_counts, batch_format="pyarrow").to_arrow_refs()
    parts = pa.concat_tables(ray.get(refs)) if refs else None
    if parts is None or parts.num_rows == 0:
        return frozenset()
    total = pc.sum(parts.filter(pc.is_null(parts[key_column]))["n"]).as_py()
    counts = parts.drop_null().group_by(key_column).aggregate([("n", "sum")])
    hot = counts.filter(pc.greater_equal(counts["n_sum"],
                                         frac_threshold * total))
    return frozenset(hot[key_column].to_pylist())
