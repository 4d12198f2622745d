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

Hashes are stable across processes (``schema.hash_values``: pandas siphash
with its fixed default key), a requirement for resume: the same key must
land in the same partition in every run.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from olrx import schema as S

_SALT_MULT = np.uint64(0x9E3779B97F4A7C15)


def partition_ids(conv_id, turn_idx, num_partitions: int,
                  hot: frozenset = frozenset(), salt_block: int = 64,
                  table=None) -> np.ndarray:
    """Vectorized partition id for each row; hot conv_ids are turn-salted.
    ``table`` (multi-table streams) mixes the table identity into the hash so
    the same conv_id in two tables co-locates per (table, conv). Hashing
    and the hot test run once per distinct conv_id."""
    codes, convs = S.dictionary_codes(conv_id)
    h = S.hash_values(convs)[codes]
    if table is not None:
        h = h ^ (S.string_hash(table) * _SALT_MULT)
    if hot:
        hot_mask = pc.is_in(convs, value_set=pa.array(list(hot), convs.type))
        hot_mask = hot_mask.to_numpy(zero_copy_only=False)[codes]
        if hot_mask.any():
            turns = np.asarray(turn_idx.to_numpy(zero_copy_only=False), dtype=np.int64)
            salt = (turns // salt_block).astype(np.uint64)
            h = np.where(hot_mask, h ^ ((salt + np.uint64(1)) * _SALT_MULT), h)
    return (h % np.uint64(num_partitions)).astype(np.int32)


#: keys kept per segment in a heavy-hitter partial
HOT_TOP = 50

PARTIALS_SCHEMA = pa.schema([("seg", pa.string()), ("conv_id", pa.string()),
                              ("n", pa.int64())])


def _partials_of(paths: list[str]) -> pa.Table:
    """The heavy-hitter partial of each segment: its ``HOT_TOP`` most
    frequent ``conv_id`` counts (ties broken by key, so the kept set
    depends only on the file) plus its row count under a null key."""
    out = [PARTIALS_SCHEMA.empty_table()]
    for p in paths:
        keys = pq.read_table(p, columns=["conv_id"])["conv_id"]
        vc = pc.value_counts(keys.combine_chunks().cast(pa.string()))
        top = pa.table({"conv_id": vc.field("values"),
                        "n": vc.field("counts").cast(pa.int64())}).drop_null()
        if top.num_rows > HOT_TOP:
            top = top.take(pc.select_k_unstable(
                top, HOT_TOP, [("n", "descending"), ("conv_id", "ascending")]))
        top = pa.concat_tables([top, pa.table(
            {"conv_id": pa.nulls(1, pa.string()),
             "n": pa.array([len(keys)], pa.int64())})])
        out.append(top.add_column(0, "seg", pa.array([p] * top.num_rows,
                                                     pa.string())))
    return pa.concat_tables(out)


_partials_task = ray.remote(_partials_of)


def segment_partials(paths: list[str]) -> pa.Table:
    """Per-segment heavy-hitter partials of ``paths`` as ``(seg, conv_id,
    n)`` rows, in one Ray pass of one task per CPU (never more than
    segments). A segment is always one unit, so the result does not depend
    on the task count."""
    if not paths:
        return PARTIALS_SCHEMA.empty_table()
    n = min(int(ray.cluster_resources().get("CPU", 8)), len(paths))
    chunks = np.array_split(np.arange(len(paths)), n)
    return pa.concat_tables(ray.get([
        _partials_task.remote([paths[i] for i in c]) for c in chunks]))


def hot_set(partials: pa.Table, frac_threshold: float) -> frozenset:
    """The keys whose summed partial counts reach ``frac_threshold`` of the
    summed row counts."""
    total = pc.sum(partials.filter(pc.is_null(partials["conv_id"]))["n"]).as_py()
    if not total:
        return frozenset()
    counts = partials.drop_null().group_by("conv_id").aggregate([("n", "sum")])
    hot = counts.filter(pc.greater_equal(counts["n_sum"],
                                         frac_threshold * total))
    return frozenset(hot["conv_id"].to_pylist())


def detect_hot_keys(paths: list[str], frac_threshold: float = 0.01
                    ) -> frozenset:
    """Approximate heavy-hitter detection from per-segment partials.

    Each segment contributes only its ``HOT_TOP`` most frequent keys plus
    its row count; the partials are summed on the driver. A key holding
    ≥ ``frac_threshold`` of all rows appears in the top of nearly every
    segment, so its global count is recovered (slightly under-estimated);
    cold keys never leave the workers. The partials live in the control
    checkpoint next to the segments they describe
    (``decode.hot_partials``), so a call computes them only for segments
    it has not seen."""
    if not paths:
        return frozenset()
    from olrx.stages.decode import hot_partials
    return hot_set(hot_partials(paths), frac_threshold)
