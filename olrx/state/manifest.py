"""The lake's on-disk layout and table metadata; per-partition commit
manifests — the exactly-once confirm protocol.

The only module that spells a lake's layout, and derives its metadata:

    _manifest/part-NNNNN.json     partition NNNNN's manifest
    _manifest/_lake.json          the lake record: confirmed floor + epoch
    _manifest/hot.json            the pinned hot set and its salt_block
    part-NNNNN/data-w{W}.parquet  partition NNNNN's snapshot at watermark W

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
  manifest watermark (``LakeState.resume_floors``), so a partition whose
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
import re
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

_MANIFEST = re.compile(r"part-(\d+)\.json")
_SNAPSHOT = re.compile(r"data-w(\d+)\.parquet")


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
    #: physical → current display name from committed RENAME DDLs
    #: (reference SystemTransaction.cpp:525). Display only: snapshots store
    #: physical names, relabelled at read time (``LakeState.epoch``).
    renamed_columns: dict = field(default_factory=dict)
    #: max observed (commit_scn - begin_scn): the scan-pruning bound for
    #: incremental re-reads (events of unconfirmed txns have scn > W - span)
    max_txn_span: int = 0
    #: watermark of this partition's FIRST-ever checkpoint — lineage only:
    #: checkpoint time, not data birth (time travel uses first_data_scn).
    #: -1 on manifests written before the field existed.
    first_watermark: int = -1
    #: minimum commit SCN of any event EVER applied to this partition — its
    #: data birth: an as-of read below it is legitimately empty, one above
    #: it without a retained snapshot refuses. -1 (unknown: refuse) on
    #: manifests written before the field existed.
    first_data_scn: int = -1
    #: the lake's partition count, which a resume must keep (a key's
    #: partition depends on it); -1 on manifests written before the field.
    num_partitions: int = -1
    updated_unix: float = 0.0


def manifest_dir(lake: str) -> str:
    return os.path.join(lake, "_manifest")


def manifest_path(manifest_dir: str, partition: int) -> str:
    return os.path.join(manifest_dir, f"part-{partition:05d}.json")


def snapshot_file(partition: int, watermark: int) -> str:
    """A snapshot's path relative to its lake, as manifests list it."""
    return os.path.join(f"part-{partition:05d}", f"data-w{watermark}.parquet")


def _numbered(directory: str, pattern: re.Pattern) -> list[int]:
    """The numbers ``pattern`` captures from the names in ``directory``
    (none of a temp file), ascending, from one ``listdir``."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(int(m[1]) for n in names if (m := pattern.fullmatch(n)))


def retained_snapshots(lake: str, partition: int) -> list[int]:
    """A partition's snapshot watermarks on disk, ascending: what the
    commit's GC and time travel choose from."""
    return _numbered(os.path.join(lake, f"part-{partition:05d}"), _SNAPSHOT)


def write_durably(path: str, write) -> None:
    """Replace ``path`` with what ``write(binary file)`` writes, durably
    (fsync) and atomically (rename): readers see old bytes or new ones."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        write(f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _write_json(path: str, obj: dict) -> None:
    write_durably(path, lambda f: f.write(json.dumps(obj).encode()))


def _read_json(path: str, absent=(FileNotFoundError, json.JSONDecodeError)
               ) -> dict | None:
    """``path``'s JSON; None on an ``absent`` error (missing or corrupt)."""
    try:
        with open(path) as f:
            return json.load(f)
    except absent:
        return None


def read_manifest(manifest_dir: str, partition: int) -> PartitionManifest | None:
    d = _read_json(manifest_path(manifest_dir, partition))
    return None if d is None else PartitionManifest(**d)


def write_manifest(manifest_dir: str, m: PartitionManifest) -> str:
    m.updated_unix = time.time()
    p = manifest_path(manifest_dir, m.partition)
    _write_json(p, asdict(m))
    return p


def read_all(manifest_dir: str) -> dict[int, PartitionManifest]:
    """partition → manifest, in partition order."""
    ms = (read_manifest(manifest_dir, p)
          for p in _numbered(manifest_dir, _MANIFEST))
    return {m.partition: m for m in ms if m is not None}


class Epoch(NamedTuple):
    """A schema epoch: version, dropped physical payload columns, and
    physical → display name of the renamed ones."""
    schema_version: int
    dropped: tuple
    renamed: dict

    def then(self, ddl) -> "Epoch":
        """Extended by an input's committed DDL (a ``decode.ControlInfo``),
        which may name a column by this epoch's display name (an increment
        passed without its earlier segments): it resolves through the
        inverse mapping."""
        inv = {v: k for k, v in self.renamed.items()}
        dropped = {inv.get(c, c) for c in ddl.dropped_columns}
        renamed = {inv.get(p, p): n for p, n in ddl.renamed_columns.items()}
        return Epoch(max(self.schema_version, ddl.schema_version),
                     tuple(sorted({*self.dropped, *dropped})),
                     {**self.renamed, **renamed})


@dataclass
class LakeState:
    """One read of a lake's table metadata (:func:`read_lake_state`): its
    manifests and, on first use, its lake record. ``root`` None is no lake
    (dataset mode): nothing is read, pinned or persisted."""
    root: str | None
    manifests: dict[int, PartitionManifest] = field(default_factory=dict)

    @cached_property
    def record(self) -> dict:
        """The lake record (:func:`write_lake_watermark`); {} when none."""
        return self.root and _read_json(
            os.path.join(manifest_dir(self.root), "_lake.json")) or {}

    @property
    def files(self) -> list[str]:
        """The published snapshots, in partition order."""
        return [os.path.join(self.root, rel)
                for _, m in sorted(self.manifests.items()) for rel in m.files]

    @property
    def max_txn_span(self) -> int:
        return max([m.max_txn_span for m in self.manifests.values()] or [0])

    @property
    def epoch(self) -> Epoch:
        """Every manifest's epoch and the lake record's: the largest
        version, every drop, and the renames merged in ascending watermark
        order, so the newest mapping wins for each physical column whatever
        order the manifests are listed in. A partition with no events in a
        DDL-carrying increment keeps its older epoch, and a DDL-only
        increment commits no partition: the record, written after every
        partition commit of a replay, goes last at an equal watermark."""
        layers = [d for _, d in sorted(
            [((m.watermark_commit_scn, 0, p), vars(m))
             for p, m in self.manifests.items()]
            + [((r["watermark_commit_scn"], 1, 0), r) for r in [self.record]
               if r], key=lambda layer: layer[0])]
        renamed: dict[str, str] = {}
        for d in layers:
            renamed.update(d.get("renamed_columns") or {})
        return Epoch(max([d.get("schema_version", 0) for d in layers] or [0]),
                     tuple(sorted({c for d in layers
                                   for c in d.get("dropped_columns", ())})),
                     renamed)

    def resume_floors(self, num_partitions: int) -> np.ndarray:
        """Per-partition resume cut: the partition's confirmed watermark, at
        least :func:`global_watermark`. A lake partitioned differently
        raises ``ValueError``: a key would hash to another partition, and a
        resume would commit it twice."""
        ms = self.manifests
        had = {m.num_partitions for m in ms.values()} - {-1}
        if had - {num_partitions} or max(ms, default=-1) >= num_partitions:
            was = "/".join(map(str, sorted(had))) or f"at least {max(ms) + 1}"
            raise ValueError(
                f"num_partitions changed ({was} → {num_partitions}); the "
                "partitioning is pinned at first commit — rebuild the lake "
                "(resume=False) to change it")
        floors = np.full(num_partitions,
                         global_watermark(self, num_partitions), np.int64)
        for p, m in ms.items():
            floors[p] = max(floors[p], m.watermark_commit_scn)
        return floors

    def hot_keys(self, salt_block: int, detect) -> frozenset:
        """The hot set pinned by the lake's first salting replay, else
        ``detect()``'s, pinned now (no lake: not pinned). Re-detecting
        would move a key crossing the threshold to another partition,
        orphaning its rows, so another ``salt_block`` raises."""
        path = self.root and os.path.join(manifest_dir(self.root), "hot.json")
        if (d := path and _read_json(path, FileNotFoundError)) is None:
            hot = detect()
            if path:
                _write_json(path, dict(hot=sorted(hot), salt_block=salt_block))
            return hot
        if d.get("salt_block") != salt_block:
            raise ValueError(
                f"salt_block changed ({d.get('salt_block')} → {salt_block}); "
                "hot-key partitioning is pinned at first commit — rebuild the "
                "lake (resume=False) to change it")
        return frozenset(d["hot"])


def read_lake_state(lake: str) -> LakeState:
    """One :func:`read_all`, then the lake record when first asked for."""
    return LakeState(lake, read_all(manifest_dir(lake)))


def write_lake_watermark(lake: LakeState, watermark_commit_scn: int,
                         epoch: Epoch) -> None:
    """The lake record: the confirmed floor and ``epoch``, written by the
    driver after EVERY partition's commit succeeded. A partition that
    received no events writes no manifest, so the record advances a sparse
    lake's floor, and shows a DDL-only increment's epoch. A crash before
    this write falls back to the per-partition floor: re-application is
    idempotent, so that costs time, never correctness."""
    if watermark_commit_scn < 0:
        return
    p = os.path.join(manifest_dir(lake.root), "_lake.json")
    prev = lake.record.get("watermark_commit_scn", -1)
    _write_json(p, {"watermark_commit_scn": max(prev, watermark_commit_scn),
                    "schema_version": epoch.schema_version,
                    "dropped_columns": list(epoch.dropped),
                    "renamed_columns": epoch.renamed,
                    "updated_unix": time.time()})


def global_watermark(lake: LakeState, num_partitions: int) -> int:
    """The safe resume floor: everything ≤ it is applied+durable in every
    partition (analog of the min-open-txn restart position,
    /root/reference/src/parser/TransactionBuffer.cpp:274-286). Two sources:
    the lake record's watermark (covers event-less partitions), and — when
    every partition has a manifest — the min per-partition watermark, which
    can be ahead of the record after a crash before the record's write."""
    wm = lake.record.get("watermark_commit_scn", -1)
    if len(lake.manifests) >= num_partitions:
        return max(wm, min(m.watermark_commit_scn
                           for m in lake.manifests.values()))
    return wm
