"""Lake-mode commit of one hash partition: merge its events with the
partition's current snapshot, write the new snapshot durably (fsync) and
atomically (rename), publish the manifest, and return the one-row stats
table.

Runs inside ``PartitionApplier.finalize_commit`` (stages/exchange.py), on a
thread pool when the applier holds several partitions: a call reads and
writes only its own partition's files (its snapshots and its manifest),
so concurrent calls for different partitions need no lock. Importing it
deliberately imports neither pandas nor Ray Data: it is on the import path
of every applier process, whose spawn time is part of each replay's wall
time. pandas still arrives at run time: pyarrow imports it on the first
``to_numpy`` or ``pa.array`` from numpy, which is why standby spares run
``PartitionApplier.warm`` before they are taken.

The lake's one snapshot reader lives here too (:func:`read_snapshot_group`):
a plain Ray task that reads files under a pinned physical schema and
reports its blocks' rows and bytes, so a lake read runs no Ray Data task.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from olrx import schema as S
from olrx.stages.apply import apply_stats, merge_apply
from olrx.state import manifest as MF

#: snapshot footer key: the display mapping (physical → display name) of the
#: rename epoch that wrote the snapshot, as JSON; ``{}`` when none. Written
#: on every snapshot, so its absence marks a lake written before snapshots
#: stored physical column names.
RENAMES_KEY = b"olrx.renames"


def apply_and_commit(group: pa.Table, out_dir: str, schema_version: int,
                     safe_watermark: int, max_commit_scn: int,
                     max_txn_span: int, counters: dict[str, int],
                     output_codec: str = "zstd",
                     dropped: tuple = (),
                     renamed: "dict[str, str] | None" = None,
                     snapshot_keep: int = 1,
                     num_partitions: int = -1) -> pa.Table:
    """Lake-mode per-partition apply: merge with base state, write parquet
    atomically, then publish the manifest (which records ``num_partitions``,
    the lake's partition count). Idempotent under task retries: a retry
    re-reads the (old) manifest, recomputes the same bytes and re-publishes
    the same files/manifest — a no-op replacement.

    ``counters``: exact pre-compaction stream counts from the exchange (the
    in-``group`` events may already be folded to winners). Decode already
    dropped every event at or below the partition's watermark
    (``LakeState.resume_floors``), so the counts are the applied stream's. The
    watermark filter below is a safety net for a manifest that moved since
    the replay read it: when it drops a row, the counters are recounted
    from the folded winners. ``_min_scn`` is the receive-time min commit
    SCN (folded winners would over-state birth)."""
    part = int(group["part"][0].as_py())
    prev = MF.read_manifest(MF.manifest_dir(out_dir), part)
    counters = dict(counters)
    fm = counters.pop("_min_scn", -1)   # min commit SCN applied THIS run
    target_watermark = max(safe_watermark, prev.watermark_commit_scn if prev else -1)

    if prev is not None:
        if prev.watermark_commit_scn >= max_commit_scn:
            # everything in this input already confirmed — exactly-once skip
            # (Metadata::isNewData, /root/reference/src/metadata/Metadata.cpp:716-727)
            return stats_row(part, prev.rows, prev.watermark_commit_scn, True, counters)
        # drop events at or below the partition's confirmed watermark
        n_before = group.num_rows
        group = group.filter(pc.greater(group["commit_scn"],
                                        prev.watermark_commit_scn))
        if group.num_rows != n_before:
            counters = apply_stats(group)
        base = _read_base(out_dir, prev)
        if base is not None and base.num_rows:
            group = pa.concat_tables([_base_as_events(base, prev), group],
                                     promote_options="default")

    # physical payload names on disk: a rename rewrites no data and leaves
    # every snapshot readable under one schema; only the footer mapping
    # carries the epoch's display names
    final = merge_apply(group, schema_version, dropped).replace_schema_metadata(
        {RENAMES_KEY: json.dumps(renamed or {}, sort_keys=True)})

    rel = MF.snapshot_file(part, target_watermark)
    # zstd-1 snapshots: ~3× fewer disk/storage bytes than snappy on text —
    # the write leg shares one storage backend across all appliers, while
    # finalize CPUs have headroom (measured: the hi-CPU leg is write-bound).
    # Only the low-cardinality columns are dictionary-encoded: a dictionary
    # of per-row-unique text or timestamps costs time and bytes (a 3.5k-row
    # tail snapshot: write 1.58 → 1.29 ms, read 1.02 → 0.68 ms, 62.4 →
    # 52.4 KB). Durable BEFORE it is published: the manifest written below
    # must never point at snapshot bytes a host crash can lose
    MF.write_durably(os.path.join(out_dir, rel), lambda f: pq.write_table(
        final, f, compression=output_codec,
        compression_level=1 if output_codec == "zstd" else None,
        use_dictionary=list(S.SNAPSHOT_DICTIONARY_COLUMNS)))

    first_wm = target_watermark
    if prev is not None:
        first_wm = (prev.first_watermark if prev.first_watermark >= 0
                    else prev.watermark_commit_scn)
    # data birth: min commit SCN EVER applied to this partition. An
    # old-format prev manifest (-1) keeps birth unknown — claiming a later
    # birth than the truth would let as-of reads silently answer "empty"
    # for SCNs where committed state existed (ADVICE r4 #1).
    first_data = fm if prev is None else prev.first_data_scn
    if fm >= 0 and first_data >= 0:
        first_data = min(first_data, fm)
    m = MF.PartitionManifest(
        partition=part,
        watermark_commit_scn=target_watermark,
        schema_version=schema_version,
        dropped_columns=sorted(dropped),
        renamed_columns=dict(renamed or {}),
        files=[rel],
        rows=final.num_rows,
        counters=counters,
        max_txn_span=max_txn_span,
        first_watermark=first_wm,
        first_data_scn=first_data,
        num_partitions=num_partitions,
    )
    MF.write_manifest(MF.manifest_dir(out_dir), m)
    # GC superseded snapshots, keeping the newest `snapshot_keep` at or
    # below the watermark just published (reference keep-checkpoints; >1
    # enables SCN time travel). One above it was never published (the
    # leftover of a crashed run with a higher cut) and goes too. Best-effort
    # and idempotent under task retries: a retry recomputes the same file
    # set and the same survivors.
    snaps = MF.retained_snapshots(out_dir, part)[::-1]
    published = [w for w in snaps if w <= target_watermark]
    for w in ([w for w in snaps if w > target_watermark]
              + published[max(1, snapshot_keep):]):
        try:
            os.remove(os.path.join(out_dir, MF.snapshot_file(part, w)))
        except OSError:
            pass
    return stats_row(part, final.num_rows, target_watermark, False, counters)


def snapshot_footer(path: str) -> "tuple[pa.Schema, dict[str, str]]":
    """One snapshot's schema (physical names) and its footer's display
    mapping. A snapshot without the mapping predates physical names on
    disk; reading it under physical names would silently null every
    renamed column, so this raises instead."""
    schema = pq.read_schema(path)
    raw = (schema.metadata or {}).get(RENAMES_KEY)
    if raw is None:
        raise ValueError(
            f"{path}: lake written before physical column names; rebuild "
            "with replay_to_lake(..., resume=False)")
    return schema.remove_metadata(), json.loads(raw)


def read_snapshot(path: str, schema: pa.Schema) -> pa.Table:
    """One snapshot under the pinned physical ``schema``: a column added
    after the file was written reads as nulls, and one dropped since is
    not read. The read stays on the calling thread, as a segment's does."""
    with pq.ParquetFile(path) as f:
        have = set(f.schema_arrow.names)
        t = f.read([n for n in schema.names if n in have], use_threads=False)
    cols = [t[fl.name] if fl.name in have else pa.nulls(t.num_rows, fl.type)
            for fl in schema]
    return pa.Table.from_arrays(cols, names=schema.names).cast(schema)


@ray.remote(num_returns="streaming", max_retries=-1,
            retry_exceptions=[ray.exceptions.RaySystemError],
            scheduling_strategy="SPREAD")
def read_snapshot_group(files: list[str], schema: pa.Schema,
                        names: list[str], max_bytes: int):
    """One task of a lake read (``replay.read_snapshots``): the snapshots
    ``files`` in order (:func:`read_snapshot`), relabelled to the display
    ``names`` (positional, in ``schema``'s order), yielded as one-chunk
    blocks owned by the caller: consecutive files under ``max_bytes``
    bytes, a larger file alone (``decode.read_runs``' rule); then each
    block's ``(num_rows, size_bytes, schema)``. Retried like a route group
    task (``exchange._route_group``); a retry re-reads the same blocks."""
    run: list[pa.Table] = []
    size, metas = 0, []
    for p in [*files, None]:  # None: flush the last run
        t = read_snapshot(p, schema).rename_columns(names) if p else None
        if run and (t is None or size + t.nbytes > max_bytes):
            block = pa.concat_tables(run).combine_chunks()
            metas.append((block.num_rows, block.nbytes, block.schema))
            yield block
            run, size = [], 0
        if t is not None:
            run.append(t)
            size += t.nbytes
    yield metas


def _read_base(out_dir: str, m: MF.PartitionManifest) -> pa.Table | None:
    """The partition's published snapshot. A snapshot its manifest names
    but the disk lacks raises: merging onto an empty base instead would
    silently drop the partition's history."""
    tables = []
    for rel in m.files:
        p = os.path.join(out_dir, rel)
        if not os.path.exists(p):
            raise FileNotFoundError(
                f"partition {m.partition}: its manifest names the snapshot "
                f"{p}, which is missing; rebuild the lake with "
                "replay_to_lake(..., resume=False)")
        # no dataset layer, and no Arrow pool: commits already run one
        # partition a pool thread
        with pq.ParquetFile(p) as f:
            tables.append(f.read(use_threads=False))
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="default")


def _base_as_events(base: pa.Table, m: MF.PartitionManifest) -> pa.Table:
    """Existing partition snapshot re-expressed as synthetic full-image
    inserts at the manifest watermark, so the same merge kernel handles
    incremental upserts (events > watermark win by LWW). The snapshot
    stores physical payload names, so each maps straight to its
    ``v_<name>`` event column whatever was renamed since; a column added
    after the snapshot was written reads as nulls."""
    n = base.num_rows
    cols: dict[str, object] = {}
    if "table_name" in base.schema.names:
        cols["table_name"] = base["table_name"]
    cols |= {
        "conv_id": base["conv_id"],
        "turn_idx": base["turn_idx"],
        "op_code": pa.array(np.full(n, S.OP_I, np.int8)),
        "commit_scn": pa.array(np.full(n, m.watermark_commit_scn, np.int64)),
        "scn": pa.array(np.full(n, -1, np.int64)),
        "scn_idx": pa.array(np.full(n, -1, np.int32)),
        "changed_mask": pa.array(np.full(n, S.full_mask(m.schema_version),
                                         np.int32)),
    }
    for nm, t in S.payload_columns(S.MAX_SCHEMA_VERSION):
        cols[f"v_{nm}"] = (base[nm] if nm in base.schema.names
                           else pa.nulls(n, t))
    return pa.table(cols)


def stats_row(part: int, rows: int, watermark: int, skipped: bool,
              counters: dict[str, int]) -> pa.Table:
    d = {
        "partition": pa.array([part], pa.int32()),
        "rows": pa.array([rows], pa.int64()),
        "watermark_commit_scn": pa.array([watermark], pa.int64()),
        "skipped": pa.array([skipped], pa.bool_()),
    }
    for k in ("events", "inserts", "updates", "deletes"):
        d[k] = pa.array([counters.get(k, 0)], pa.int64())
    return pa.table(d)
