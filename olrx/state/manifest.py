"""Per-partition commit manifests — the exactly-once confirm protocol.

Re-expresses the reference's writer checkpoint
(``Writer::writeCheckpoint`` persisting confirmed ``(scn, idx)``,
/root/reference/src/writer/Writer.cpp:362-448) and the re-emission filter
(``Metadata::isNewData``, /root/reference/src/metadata/Metadata.cpp:716-727)
for a partitioned lake sink:

- one manifest JSON per partition, written via temp-file + ``os.replace``
  (atomic on POSIX) *after* the partition's parquet is durably written;
- manifest records the applied watermark (max commit SCN), schema version,
  output files, row count and lineage counters;
- on resume, decode drops every event at or below its partition's
  manifest watermark (``replay.resume_floors``), so a partition whose
  watermark already covers the input receives nothing — re-running a
  failed/duplicate task is a no-op (idempotent upsert).

Watermark granularity is the commit SCN: a transaction is applied atomically
(all its events share one commit_scn), so "everything ≤ W" is always a
transaction-consistent cut — the same invariant the reference maintains by
only checkpointing at LWN boundaries
(/root/reference/documentation/user-manual/8.checkpointing.adoc:15-24).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field


@dataclass
class PartitionManifest:
    partition: int
    watermark_commit_scn: int
    schema_version: int
    files: list[str]
    rows: int
    counters: dict[str, int] = field(default_factory=dict)
    #: payload columns removed by committed DROP DDLs — the non-additive
    #: half of the version fence (adds advance schema_version, drops land
    #: here; reference SystemTransaction.cpp:640)
    dropped_columns: list[str] = field(default_factory=list)
    #: physical → current display name from committed RENAME DDLs (the
    #: other non-additive dictionary mutation — reference
    #: SystemTransaction::processUpdate, SystemTransaction.cpp:525). Display
    #: only: snapshots store physical names, and readers relabel them with
    #: the newest epoch's mapping (``current_renames``).
    renamed_columns: dict = field(default_factory=dict)
    #: max observed (commit_scn - begin_scn): the scan-pruning bound for
    #: incremental re-reads (events of unconfirmed txns have scn > W - span)
    max_txn_span: int = 0
    #: watermark of this partition's FIRST-ever checkpoint — lineage only.
    #: NOTE: this is checkpoint time, not data birth (a single full replay
    #: stamps it at the final watermark even though the partition held
    #: committed rows long before); time travel must use first_data_scn.
    #: -1 on manifests written before the field existed.
    first_watermark: int = -1
    #: minimum commit SCN of any event EVER applied to this partition — the
    #: partition's data birth. Time travel uses it to distinguish "partition
    #: provably had no committed events at the as-of SCN" (legitimately
    #: empty) from "history existed but is not retained" (error). -1 on
    #: manifests written before the field existed (treated as unknown:
    #: as-of reads below the oldest retained snapshot then refuse).
    first_data_scn: int = -1
    #: the lake's partition count, which a resume must keep (a key's
    #: partition depends on it); -1 on manifests written before the field.
    num_partitions: int = -1
    updated_unix: float = 0.0

    def path(self, manifest_dir: str) -> str:
        return manifest_path(manifest_dir, self.partition)


def manifest_path(manifest_dir: str, partition: int) -> str:
    return os.path.join(manifest_dir, f"part-{partition:05d}.json")


def read_manifest(manifest_dir: str, partition: int) -> PartitionManifest | None:
    p = manifest_path(manifest_dir, partition)
    try:
        with open(p) as f:
            d = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    return PartitionManifest(**d)


def write_manifest(manifest_dir: str, m: PartitionManifest) -> str:
    os.makedirs(manifest_dir, exist_ok=True)
    m.updated_unix = time.time()
    p = m.path(manifest_dir)
    tmp = f"{p}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(asdict(m), f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, p)
    return p


def read_all(manifest_dir: str) -> dict[int, PartitionManifest]:
    if not os.path.isdir(manifest_dir):
        return {}
    out: dict[int, PartitionManifest] = {}
    for name in os.listdir(manifest_dir):
        if name.startswith("part-") and name.endswith(".json"):
            part = int(name[5:10])
            m = read_manifest(manifest_dir, part)
            if m is not None:
                out[part] = m
    return out


def current_renames(ms: dict[int, PartitionManifest]) -> dict[str, str]:
    """physical → display name of the newest rename epoch in ``ms``.

    Partitions can sit at different rename epochs (a partition with no
    events in a rename-carrying increment keeps its older mapping). Merging
    in ascending ``(watermark_commit_scn, partition)`` order lets the
    manifest with the greatest watermark win for each physical column,
    whatever order the directory lists the manifests in."""
    out: dict[str, str] = {}
    for m in sorted(ms.values(),
                    key=lambda m: (m.watermark_commit_scn, m.partition)):
        out.update(m.renamed_columns or {})
    return out


def write_lake_watermark(manifest_dir: str, watermark_commit_scn: int,
                         schema_version: int = 0) -> None:
    """Lake-level confirmed floor, written by the driver after EVERY
    partition's commit succeeded. Partitions that received no events never
    write a per-partition manifest (both exchange modes), so a sparse lake's
    min-over-manifests floor would stay pinned at -1 forever and every tail
    run would re-read all history; the lake watermark closes that gap. Crash
    before this write falls back to the per-partition floor — re-application
    is idempotent, so that is a performance regression, never a correctness
    one."""
    if watermark_commit_scn < 0:
        return
    os.makedirs(manifest_dir, exist_ok=True)
    p = os.path.join(manifest_dir, "_lake.json")
    prev = read_lake_watermark(manifest_dir)
    wm = max(prev, watermark_commit_scn)
    tmp = f"{p}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"watermark_commit_scn": wm,
                   "schema_version": schema_version,
                   "updated_unix": time.time()}, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, p)


def read_lake_watermark(manifest_dir: str) -> int:
    try:
        with open(os.path.join(manifest_dir, "_lake.json")) as f:
            return int(json.load(f)["watermark_commit_scn"])
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError):
        return -1


def global_watermark(manifest_dir: str, ms: dict[int, PartitionManifest],
                     num_partitions: int) -> int:
    """The safe resume floor: everything ≤ it is applied+durable in every
    partition (analog of the min-open-txn restart position,
    /root/reference/src/parser/TransactionBuffer.cpp:274-286). Two sources:
    the lake-level watermark (covers event-less partitions), and — when every
    partition has a manifest in ``ms`` (the caller's ``read_all``) — the min
    per-partition watermark, which can be ahead of the lake file after a
    crash between partition commits and the lake write."""
    lake = read_lake_watermark(manifest_dir)
    if len(ms) >= num_partitions:
        return max(lake, min(m.watermark_commit_scn for m in ms.values()))
    return lake
