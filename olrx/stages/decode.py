"""Decode / commit-resolution stages (vectorized, zero-copy Arrow).

Replaces the reference's record parser + transaction buffer for the batch
case where whole transactions are present in the input (SURVEY §2.2-2.3):

- ``load_control``  — folds the control rows (the analog of scanning redo
  for 0x0502/0x0504/0x1801 vectors, the reference's
  ``src/parser/Parser.cpp:213-576``) into a small state: the DDL facts,
  the shard watermarks, ``max_commit_scn``, the txn span and each
  segment's scn range, which the event read uses to skip segments that
  cannot contribute. It is incremental: one checkpoint per ``_ctl``
  directory carries the state and the segments it covers, so a call reads
  only the sidecars and footers it has not seen. The fold is exact — a
  full scan is the same fold from an empty state. A ``ControlSession``
  (a tail loop's) keeps the state in memory and treats folded segments
  as immutable, so a call stats only the new ones. Commits are not copied
  into it: ``ControlInfo.decode_broadcast`` reads the commit lookup and
  the partial-rollback keys of the segments a replay reads.
- ``_control_rows`` — the one reader of a segment's control rows, for the
  fold and the broadcast: its ``_ctl`` sidecar, or, for a segment without
  one, the same rows derived from the segment (``schema.control_rows``);
  sidecars are read file by file, with no dataset layer.
- ``hot_partials`` — the per-segment hot-key counts a salting replay sums,
  kept in the same checkpoint and computed only for segments it lacks.
- ``segment_groups`` / ``read_runs`` / ``make_segment_decoder`` /
  ``DecodePlan`` — the replay's event read, the analog of the reference's
  reader going block after block through the log files it already tracks:
  the segment list from the control's index is split into consecutive,
  byte-balanced groups, one Ray task a group. A task reads its files one
  by one under each file's own schema (pruned columns, the row groups
  whose footer scn range meets the scn filter, then the filter) and
  decodes each run of same-schema files at once, so no Parquet datasource
  rediscovers the files and the resolver runs once per run.
- ``CommitResolver`` — the decode function (``make_resolver``): joins each
  event batch against the broadcast commit
  lookup (drops rolled-back / open txns — the reference's
  ``src/parser/Transaction.cpp:207-210``), flattens the ``after``
  struct image into payload columns, attaches the hash partition id. Its
  commit lookup and partial-rollback anti-join are ``commit_join``, which
  every consumer of the broadcast (``emit``, the DDL facts, the rollback
  audit) calls too, once per distinct transaction of a batch.

Scale note: the checkpoint is O(segments + open txns + DDL rows). The
broadcast is 16 B a transaction (hash + commit SCN) of the segments read,
shared zero-copy by every decode worker on a node: O(window) in a tail
replay, every commit in a full replay — ~11 GB per node at 10^10 events
(~7×10^8 txns). Chunking it by commit-SCN range, so a decode task fetches
only the chunks its read group can reference, is the way past that.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from olrx import schema as S
from olrx.schema import OP_D, OP_I, OP_U
from olrx.stages import partition
from olrx.stages.partition import partition_ids

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)


def mix_pr_keys(xid_h: np.ndarray, scn: np.ndarray, scn_idx: np.ndarray
                ) -> np.ndarray:
    """64-bit mix of (xid-hash, scn, scn_idx) — the partial-rollback
    anti-join key. Collision odds at 10^9 targeted ops ~ 10^18/2^64 ≈ 5e-2…
    per full corpus pair-space, but the join is membership (not pairing), so
    a false positive needs a colliding DML row in the SAME stream: ~n·m/2^64
    (checked exactly on a generated stream: tests/test_replay.py)."""
    return (xid_h ^ (scn.astype(np.uint64) * _MIX1)
            ^ ((scn_idx.astype(np.int64).astype(np.uint64) + np.uint64(1)) * _MIX2))


def commit_join(xid_h: np.ndarray, codes: np.ndarray,
                scn: "np.ndarray | None", scn_idx: "np.ndarray | None",
                broadcast: "tuple[np.ndarray, ...]"
                ) -> tuple[np.ndarray, np.ndarray]:
    """The commit join of events (transaction hashes ``xid_h``, each
    distinct one once, and each event's index ``codes`` into them:
    ``schema.xid_codes``) against the broadcast
    (``ControlInfo.decode_broadcast``): ``(keep, commit_scn)``, aligned
    with the events. ``keep`` is True for an event of a committed
    transaction that no partial rollback undid, and ``commit_scn`` holds
    its transaction's commit SCN (undefined where ``keep`` is False).
    ``scn`` and ``scn_idx`` are read only for events of a transaction with
    a PR row.

    Each transaction is looked up once, as the reference resolves one by
    its Xid (``TransactionBuffer.h:54-109``): a binary search into the
    sorted hash array, with zero per-batch build cost — an Acero hash join
    rebuilds its O(#txns) hash table for EVERY batch, which measured 16×
    the probe cost. The anti-join drops DML ops named by a PR undo vector
    (the reference's rollbackLastOp removing the op from the txn buffer,
    ``Transaction.cpp:73-148``); it probes only the events of the
    transactions with a PR row."""
    hashes, cscns, pr, pr_xids = broadcast
    if not len(hashes):
        return np.zeros(len(codes), bool), np.zeros(len(codes), np.int64)
    pos = np.clip(np.searchsorted(hashes, xid_h), 0, len(hashes) - 1)
    keep = (hashes[pos] == xid_h)[codes]
    if len(pr_xids):
        at = np.clip(np.searchsorted(pr_xids, xid_h), 0, len(pr_xids) - 1)
        rows = np.flatnonzero(keep & (pr_xids[at] == xid_h)[codes])
        keys = mix_pr_keys(xid_h[codes[rows]], scn[rows], scn_idx[rows])
        ppos = np.clip(np.searchsorted(pr, keys), 0, len(pr) - 1)
        keep[rows[pr[ppos] == keys]] = False
    return keep, cscns[pos][codes]


def commits_only(broadcast: tuple) -> tuple:
    """``broadcast``'s commit lookup alone, without partial rollbacks."""
    return (*broadcast[:2], np.zeros(0, np.uint64), np.zeros(0, np.uint64))


#: columns the decode pass reads (no ``before`` image — apply never needs it)
EVENT_COLUMNS = ["scn", "scn_idx", "xid", "op", "conv_id", "turn_idx",
                 "after", "changed_mask"]

OP_LETTER = pa.array(["I", "U", "D"])


@dataclass
class ControlInfo:
    ddl_scns: list[int]           # commit SCNs of committed ADD-column DDLs
    #: high-water mark of this input (watermark); in a ``capped`` view the
    #: largest commit SCN at or below the cut. Caps ``decode_broadcast``.
    max_commit_scn: int
    shard_watermarks: dict[int, int]  # shard → max control scn seen (RAC analog)
    max_txn_span: int = 0         # max (commit_scn - begin_scn) observed
    #: payload columns removed by committed DROP DDLs (non-additive
    #: evolution — reference SystemTransaction::processDelete,
    #: /root/reference/src/builder/SystemTransaction.cpp:640). Applied after
    #: adds; the final lake schema simply lacks these columns.
    dropped_columns: tuple = ()
    #: commit SCNs aligned 1:1 with ``dropped_columns`` — lets a stop
    #: position (``capped``) un-apply drops committed after the cut
    drop_scns: tuple = ()
    #: committed RENAME DDL ops in commit order: (commit_scn, physical
    #: column, new display name). The reference's SystemTransaction
    #: intercepts dictionary-row UPDATE too (SystemTransaction.cpp:525) —
    #: a rename changes the name mapping only, never the data or the
    #: column id; here physical identity (mask bit, ``v_<physical>``)
    #: likewise never changes, and the op list replays to the current
    #: mapping (chains a→b→c resolve by last op per physical).
    rename_ops: tuple = ()
    #: segment path → (bytes, min scn, max scn) from the footer statistics
    #: (min and max None without them): prunes the event read
    #: (``segments_to_read``) and names where the commits are read from.
    segments: dict[str, tuple] = field(default_factory=dict)

    @property
    def schema_version(self) -> int:
        return min(len(self.ddl_scns), S.MAX_SCHEMA_VERSION)

    @property
    def renamed_columns(self) -> dict[str, str]:
        """physical → current display name (last committed rename wins)."""
        out: dict[str, str] = {}
        for _, phys, new in self.rename_ops:
            out[phys] = new
        return {p: n for p, n in out.items() if n != p}

    def capped(self, end_commit_scn: int) -> "ControlInfo":
        """Stop-position view (``ReplayConfig.end_commit_scn``): transactions
        committed after the cut vanish from the commit lookup, so their events
        decode as uncommitted and drop — the same transaction-consistent
        boundary the reference's shutdown/checkpoint positions use (commit
        granularity; /root/reference/documentation/user-manual/
        8.checkpointing.adoc:15-24). DDLs (adds AND drops) committed after
        the cut are likewise un-applied. ``max_commit_scn`` becomes the
        largest commit SCN at or below the cut, read from the C rows."""
        e = int(end_commit_scn)
        top = self.max_commit_scn
        if top > e:
            reach = self.segments_to_read(list(self.segments), None, e)
            scn = _commits(_control_rows(reach, commits=True), e)[1]
            top = int(scn.max(initial=-1))
        kept_drops = [(s, c) for s, c in zip(self.drop_scns, self.dropped_columns)
                      if s <= e]
        return ControlInfo(
            ddl_scns=[s for s in self.ddl_scns if s <= e],
            max_commit_scn=top,
            shard_watermarks={s: min(w, e)
                              for s, w in self.shard_watermarks.items()},
            max_txn_span=self.max_txn_span,
            dropped_columns=tuple(c for _, c in kept_drops),
            drop_scns=tuple(s for s, _ in kept_drops),
            rename_ops=tuple(op for op in self.rename_ops if op[0] <= e),
            segments=self.segments,
        )

    def segments_to_read(self, paths: list[str], above: "int | None",
                         at_most: "int | None") -> list[str]:
        """The segments of ``paths`` that can hold an event with
        ``above < scn <= at_most`` (None: unbounded). A segment without a
        known range is always read. When none qualifies (an idle resume),
        the newest segment, so the read keeps one input whose rows the same
        scn filter drops."""
        def meets(p: str) -> bool:
            _, lo, hi = self.segments.get(p, (0, None, None))
            return hi is None or ((above is None or hi > above)
                                  and (at_most is None or lo <= at_most))

        keep = [p for p in paths if meets(p)]
        return keep or sorted(paths, key=lambda p: self.segments[p][2])[-1:]

    def commit_scns(self) -> np.ndarray:
        """The commit SCNs at or below ``max_commit_scn`` of every segment
        of this control, unordered: one read of their C rows, with none of
        ``decode_broadcast``'s PR keys and hash sort."""
        rows = _control_rows(list(self.segments), commits=True)
        return rows.filter(pc.and_(
            pc.equal(rows["op"], "C"),
            pc.less_equal(rows["scn"], self.max_commit_scn)))["scn"].to_numpy()

    def decode_broadcast(self, paths: "list[str] | None" = None
                         ) -> tuple[np.ndarray, ...]:
        """(sorted xid-hashes, aligned commit_scns, sorted PR keys, sorted
        distinct xid-hashes of the PR rows) of the segments ``paths`` (None:
        all of this control's) — the one broadcast value every decode task
        reads (``commit_join``). Commits above ``max_commit_scn`` are left
        out; a PR key past it names an op of a txn the lookup lacks. 64-bit
        xid hashes: collision odds at 10^8 txns are ~(10^8)²/2^64 ≈ 5e-4
        per run; widen the hash if ever not."""
        rows = _control_rows(list(self.segments) if paths is None else paths,
                             commits=True)
        pr = rows.filter(pc.equal(rows["op"], "PR"))
        pr_h = pr["xid_h"].to_numpy()
        keys = mix_pr_keys(pr_h,
                           pr["undo_scn"].cast(pa.int64()).to_numpy(),
                           pr["undo_scn_idx"].cast(pa.int64()).to_numpy())
        return (*_commits(rows, self.max_commit_scn), np.sort(keys),
                np.unique(pr_h))


#: bump when the checkpoint layout or the ControlInfo derivation changes —
#: an older checkpoint then reads as absent
_CTL_SUMMARY_VERSION = 9

#: the one control checkpoint of a ``_ctl`` directory
CHECKPOINT_NAME = "_control.arrowctl"

#: the control-row columns the fold reads: a sidecar's ``xid`` strings are
#: never needed, their hash ``xid_h`` is the key
_FOLD_COLUMNS = ["xid_h", "op", "scn", "shard", "ddl"]

#: the columns of the C and PR rows a commit lookup reads
_COMMIT_COLUMNS = ["xid_h", "op", "scn", "undo_scn", "undo_scn_idx"]
_COMMIT_OPS = pa.array(["C", "PR"])

_OPEN_SCHEMA = pa.schema([("xid_h", pa.uint64()), ("scn_min", pa.int64()),
                          ("scn_max", pa.int64()), ("b", pa.int8()),
                          ("c", pa.int8()), ("r", pa.int8())])

#: a DDL row with its transaction's commit SCN (null: no C row folded yet)
_DDL_SCHEMA = pa.schema([("xid_h", pa.uint64()), ("ddl", pa.string()),
                         ("cscn", pa.int64())])


def _sidecar(path: str) -> str:
    return os.path.join(os.path.dirname(path), "_ctl", os.path.basename(path))


def _file_stats(paths: list[str]) -> dict[str, tuple]:
    """path → (segment size, mtime_ns, sidecar size, mtime_ns); the sidecar
    pair is (None, None) for a segment without one, so a sidecar that lands
    later changes the stats."""
    out = {}
    for p in paths:
        ss = os.stat(p)
        try:
            cs = os.stat(_sidecar(p))
            side = (cs.st_size, cs.st_mtime_ns)
        except FileNotFoundError:
            side = (None, None)
        out[p] = (ss.st_size, ss.st_mtime_ns) + side
    return out


def _scn_stats(md: "pq.FileMetaData") -> "list[tuple[int, int] | None]":
    """Per row group of a parquet file (its footer ``md``), the (min, max)
    ``scn`` of its statistics; None for a row group without them or a file
    without the column."""
    j = next((j for j in range(md.num_columns)
              if md.schema.column(j).path == "scn"), None)
    out = []
    for i in range(md.num_row_groups):
        st = None if j is None else md.row_group(i).column(j).statistics
        out.append((int(st.min), int(st.max))
                   if st is not None and st.has_min_max else None)
    return out


def _scn_range(path: str) -> tuple[int | None, int | None]:
    """(min, max) ``scn`` of a segment from the row-group statistics in its
    footer; (None, None) when a row group has none."""
    st = _scn_stats(pq.read_metadata(path))
    if not st or None in st:
        return None, None
    return min(lo for lo, _ in st), max(hi for _, hi in st)


def _control_rows(paths: list[str], commits: bool = False) -> pa.Table:
    """The control rows of the segments ``paths``, each one's ``_ctl``
    sidecar or, for a segment without one, the same rows derived from the
    segment (``schema.control_rows``): with ``commits``, the C and PR rows'
    ``_COMMIT_COLUMNS``, else every row's ``_FOLD_COLUMNS``. The one reader
    of control rows, for the fold and every commit lookup.

    Each sidecar is read on its own and on the calling thread, with no
    dataset layer over them (one ``pyarrow.dataset`` costs ~0.25-0.3 ms a
    file however small), and the C/PR filter runs once over all of them.
    On a 1-CPU host that reads ``tail_ingest``'s 400 sidecars in 41 ms
    against the dataset's 56 ms, and a tail window's 6 in 0.7 ms against
    1.7 ms."""
    cols = _COMMIT_COLUMNS if commits else _FOLD_COLUMNS
    parts, bare = [], []
    for p in paths:
        try:
            with pq.ParquetFile(_sidecar(p)) as f:
                parts.append(f.read(cols, use_threads=False))
        except FileNotFoundError:
            bare.append(p)
    if bare:
        parts.append(S.control_rows(bare).select(cols))
    rows = pa.concat_tables(parts, promote_options="default").combine_chunks()
    if commits:
        rows = rows.filter(pc.is_in(rows["op"], value_set=_COMMIT_OPS))
    return rows


def _commits(rows: pa.Table, cap: "int | None" = None) -> tuple:
    """(sorted xid hashes, aligned commit SCNs) of the C rows of the control
    rows ``rows`` at or below ``cap`` (None: all)."""
    c = rows.filter(pc.equal(rows["op"], "C"))
    if cap is not None:
        c = c.filter(pc.less_equal(c["scn"], cap))
    h = c["xid_h"].to_numpy()
    order = np.argsort(h, kind="stable")
    return h[order], c["scn"].to_numpy()[order]


def _with_commits(ddl: pa.Table, lookup: tuple) -> pa.Table:
    """``ddl`` (``_DDL_SCHEMA``) with each missing commit SCN taken from the
    commit lookup ``lookup`` where its transaction is there."""
    found, cscn = commit_join(ddl["xid_h"].to_numpy(),
                              np.arange(ddl.num_rows), None, None,
                              commits_only(lookup))
    return ddl.set_column(2, "cscn", pc.coalesce(
        ddl["cscn"], pa.array(cscn, pa.int64(), mask=~found)))


def _ddl_facts(ddl_rows: pa.Table):
    """(add-DDL commit SCNs, dropped physical columns, their drop SCNs,
    rename ops) from the committed DDL rows (``_DDL_SCHEMA``), replayed in
    commit order, so their landing order does not matter. Payloads name
    columns by their CURRENT display name at commit time; ``cur``
    (physical → current) resolves them back to physical."""
    ddl_scns, dropped, drop_scns, rename_ops = [], [], [], []
    committed = sorted((c, raw or "") for c, raw in zip(
        ddl_rows["cscn"].to_pylist(), ddl_rows["ddl"].to_pylist())
        if c is not None)
    cur: dict[str, str] = {}

    def _phys(name: str) -> str:
        return next((k for k, v in cur.items() if v == name), name)

    for scn_i, raw in committed:
        try:
            p = json.loads(raw) if raw else {}
        except ValueError:
            p = {}
        if p.get("drop_columns"):
            for c in p["drop_columns"]:
                ph = _phys(c)
                if ph not in dropped:
                    dropped.append(ph)
                    drop_scns.append(scn_i)
        elif p.get("rename_columns"):
            # reference SystemTransaction::processUpdate of a dictionary
            # row (SystemTransaction.cpp:525): name mapping change only
            for old, new in sorted(p["rename_columns"].items()):
                ph = _phys(old)
                rename_ops.append((scn_i, ph, new))
                cur[ph] = new
        else:
            ddl_scns.append(scn_i)
    return ddl_scns, dropped, drop_scns, rename_ops


class _ControlState:
    """What ``load_control`` carries from one call to the next: the index
    of the segments folded so far and the control facts they add up to.

    Every fact folds exactly, whatever order the segments land in: shard
    watermarks and ``max_commit_scn`` take maxima, and DDL rows append with
    their commit SCN. Commits and partial rollbacks stay in the segments'
    control rows. ``max_txn_span`` needs both ends of a transaction, so the
    state keeps, per ``xid_h``, the min/max B/C SCN and the B, C and R flags
    of every transaction still missing its B row or its C/R row (the
    reference's min-open-transaction restart state,
    ``TransactionBuffer.cpp:274-286``). A transaction leaves that set once
    it has B and C (its span is final and joins ``span_done``) or B and R
    (rolled back).

    ``partials`` holds the heavy-hitter partial of every covered segment a
    salting call has asked for (``partition.segment_partials`` layout).
    It is per segment, not folded, so a segment whose stats are unchanged
    keeps its partial across a fold from empty."""

    def __init__(self) -> None:
        #: path as passed in → (segment size, mtime_ns, sidecar size,
        #: mtime_ns, footer scn min, max); min and max None without
        #: statistics. A path resolves against the same directory the
        #: checkpoint was found through, and every entry is re-stat'ed.
        self.segments: dict[str, tuple] = {}
        self.shard_watermarks: dict[int, int] = {}
        self.max_commit_scn = -1
        self.span_done = 0
        self.open_txns = _OPEN_SCHEMA.empty_table()
        self.ddl_rows = _DDL_SCHEMA.empty_table()
        self.partials = partition.PARTIALS_SCHEMA.empty_table()

    def fold_segments(self, paths: list[str],
                      stats: dict[str, tuple]) -> None:
        """Fold the control rows of the segments ``paths`` in and index
        their ``stats`` and footer scn ranges. DDL rows append with their
        commit SCN, resolved by the C rows folded with them; a new one whose
        C row folded earlier finds it in the covered segments whose range
        reaches the row's scn (a commit never precedes its DDL). The rest
        stay pending until their C row folds in."""
        ctl = _control_rows(paths)
        op = ctl["op"]
        commits = _commits(ctl)
        self.max_commit_scn = int(commits[1].max(initial=self.max_commit_scn))
        ddls = ctl.filter(pc.equal(op, "DDL"))
        new = _with_commits(pa.table([ddls["xid_h"], ddls["ddl"], pa.nulls(
            ddls.num_rows, pa.int64())], schema=_DDL_SCHEMA), commits)
        waiting = pc.is_null(new["cscn"])
        if pc.any(waiting).as_py():
            lo = pc.min(ddls["scn"].filter(waiting)).as_py()
            reach = [p for p, e in self.segments.items()
                     if e[5] is None or e[5] >= lo]
            if reach:
                rows = _control_rows(reach, commits=True)
                new = _with_commits(new, _commits(rows))
        self.ddl_rows = pa.concat_tables(
            [_with_commits(self.ddl_rows, commits), new]).combine_chunks()
        if ctl.num_rows:
            per_shard = ctl.group_by("shard").aggregate([("scn", "max")])
            for sh, w in zip(per_shard["shard"].to_pylist(),
                             per_shard["scn_max"].to_pylist()):
                self.shard_watermarks[sh] = max(
                    w, self.shard_watermarks.get(sh, w))
        self._fold_spans(ctl.filter(pc.is_in(op, value_set=pa.array(
            ["B", "C", "R"]))))
        for p in paths:
            self.segments[p] = stats[p] + _scn_range(p)

    def _fold_spans(self, bcr: pa.Table) -> None:
        """max (commit - begin) SCN over committed transactions — the safe
        scan-pruning bound for event reads: any event of a txn with
        commit > W has scn > W - span. Arrow's multithreaded hash
        aggregation pairs the rows (a single-threaded searchsorted pairing
        measured 5.6 s at 4.8M txns)."""
        if not bcr.num_rows:
            return
        op = bcr["op"]
        is_r = pc.equal(op, "R")
        scn = pc.if_else(is_r, pa.scalar(None, pa.int64()),
                         bcr["scn"].cast(pa.int64()))
        rows = pa.table([bcr["xid_h"], scn, scn,
                         pc.equal(op, "B").cast(pa.int8()),
                         pc.equal(op, "C").cast(pa.int8()),
                         is_r.cast(pa.int8())], schema=_OPEN_SCHEMA)
        g = (pa.concat_tables([self.open_txns, rows]).group_by("xid_h")
             .aggregate([("scn_min", "min"), ("scn_max", "max"), ("b", "max"),
                         ("c", "max"), ("r", "max")]))
        g = g.rename_columns(["xid_h"] + [n.rsplit("_", 1)[0]
                                          for n in g.column_names[1:]])
        has_c = pc.equal(g["c"], 1)
        done = pc.and_(pc.equal(g["b"], 1), pc.or_(has_c, pc.equal(g["r"], 1)))
        self.span_done = max(self.span_done,
                             _max_span(g.filter(pc.and_(done, has_c))))
        self.open_txns = g.filter(pc.invert(done)).select(_OPEN_SCHEMA.names)

    def partials_of(self, paths: list[str]) -> pa.Table:
        return self.partials.filter(pc.is_in(
            self.partials["seg"], value_set=pa.array(paths, pa.string())))

    def info(self, paths: list[str]) -> ControlInfo:
        """The ControlInfo of the folded state; ``paths`` key its segment
        ranges."""
        ddl_scns, dropped, drop_scns, rename_ops = _ddl_facts(self.ddl_rows)
        # a transaction whose C landed before its B still bounds the span
        # with the rows seen so far, exactly as a scan of them would
        span = max(self.span_done, _max_span(
            self.open_txns.filter(pc.equal(self.open_txns["c"], 1))))
        segments = {p: (self.segments[p][0], *self.segments[p][4:])
                    for p in paths}
        return ControlInfo(
            ddl_scns=ddl_scns,
            max_commit_scn=self.max_commit_scn,
            shard_watermarks=dict(self.shard_watermarks), max_txn_span=span,
            dropped_columns=tuple(dropped), drop_scns=tuple(drop_scns),
            rename_ops=tuple(rename_ops), segments=segments)

    def write(self, cp: str) -> None:
        """Checkpoint as a JSON header line + Arrow IPC streams — a
        NON-EXECUTABLE format (a pickle checkpoint in a shared data dir is
        an arbitrary-code-execution vector; Arrow IPC deserializes data,
        never code). Atomic (``os.replace``) and best-effort: an unwritable
        or missing ``_ctl`` directory just keeps no checkpoint (it is never
        created here)."""
        head = json.dumps({
            "v": _CTL_SUMMARY_VERSION,
            "max_commit_scn": int(self.max_commit_scn),
            "span_done": int(self.span_done),
            "shard_watermarks": {str(k): int(v)
                                 for k, v in self.shard_watermarks.items()},
            "segments": self.segments,
        })
        # one temp file per writer thread: only whole files are renamed in
        tmp = cp + f".tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp, "wb") as f:
                f.write(head.encode() + b"\n")
                for t in (self.open_txns, self.ddl_rows, self.partials):
                    with pa.ipc.new_stream(f, t.schema) as w:
                        w.write_table(t)
            os.replace(tmp, cp)
        except OSError:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def read(cls, cp: str) -> "_ControlState | None":
        """The checkpoint at ``cp``; None when it is missing, of another
        version, truncated or corrupt."""
        try:
            st = cls.__new__(cls)    # every field is set below
            with open(cp, "rb") as f:
                head = json.loads(f.readline().decode())
                if head.get("v") != _CTL_SUMMARY_VERSION:
                    return None
                st.open_txns, st.ddl_rows, st.partials = (
                    pa.ipc.open_stream(f).read_all() for _ in range(3))
            st.max_commit_scn = int(head["max_commit_scn"])
            st.span_done = int(head["span_done"])
            st.shard_watermarks = {int(k): int(v) for k, v
                                   in head["shard_watermarks"].items()}
            st.segments = {p: tuple(e) for p, e in head["segments"].items()}
            return st
        except (OSError, ValueError, KeyError, TypeError):
            return None


def _max_span(g: pa.Table) -> int:
    if not g.num_rows:
        return 0
    return int(pc.max(pc.subtract(g["scn_max"], g["scn_min"])).as_py() or 0)


class ControlSession:
    """What a long-lived tail loop keeps between ``load_control`` calls
    (``TailSession`` owns one): the folded control state, the checkpoint
    it came from, and the resolved path of every segment it has listed.

    A folded segment is treated as immutable, as the reference treats an
    archived redo log it has read (``Replicator.cpp:468-557``): a call
    stats, resolves and folds only the paths new in its listing, so the
    plan costs O(new segments), not O(landed history). A segment rewritten
    in place after its fold goes unnoticed until the next full check,
    which runs on the session's first call, after :meth:`reset` (a failed
    iteration) and whenever a path it has listed leaves the listing.
    Hot-key partials that ``hot_partials`` adds to the checkpoint after
    the session loaded it are not in its state, so its next write drops
    them, and a later salting call outside the session computes them
    again."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything: the next call runs the full check."""
        self.state: "_ControlState | None" = None
        self.checkpoint: str | None = None
        self.real: dict[str, str] = {}

    def distinct(self, paths: list[str]) -> list[str]:
        """``paths`` with a segment listed twice (by any name) kept once,
        under the name listed first. Only paths new to the session are
        resolved; a listed path gone from ``paths`` resets the session."""
        if not self.real.keys() <= set(paths):
            self.reset()
        first: dict[str, str] = {}
        for p in paths:
            real = self.real.get(p)
            if real is None:
                real = self.real[p] = os.path.realpath(p)
            first.setdefault(real, p)
        return list(first.values())


def load_control(paths: list[str],
                 session: "ControlSession | None" = None) -> ControlInfo:
    """Fold the control rows (``_control_rows``: DDLs with their commit
    SCNs, shard watermarks, ``max_commit_scn``, txn span) and index each
    segment's scn range; ``ControlInfo.decode_broadcast`` reads the commits.

    A segment's stats record a missing sidecar, so a sidecar landing later
    means a fold from empty. The state the rows fold into is
    CHECKPOINTED once per ``_ctl`` directory (``CHECKPOINT_NAME``, in the
    directory of the first segment), with the segments it covers, so a call
    reads only the control rows and footers it has not seen — the analog of
    the reference restarting from persisted transaction state rather than
    re-scanning redo (the reference's ``SerializerJson.cpp:62-87`` and
    ``TransactionBuffer.cpp:274-286``). Without a ``session`` each call
    reads the checkpoint file and stats every segment: nothing is kept in
    the process between calls. Where there is no ``_ctl`` directory, or it
    cannot be written, no checkpoint is kept: every call folds from empty,
    with the same result.

    - Every covered segment is in ``paths`` with unchanged stats: fold in
      only the new ones (none: return without writing).
    - Otherwise (a covered file changed, vanished or is not in ``paths``):
      fold from an empty state over ``paths``. A full scan is that same
      fold, so the two agree exactly for any landing order.
    - The result is written back unless ``paths`` is a strict subset of a
      checkpoint whose files are all unchanged, so a subset call never
      evicts the superset a tail loop relies on.

    With a :class:`ControlSession` that already holds the state of this
    checkpoint, and ``paths`` listing every segment it covers, the check
    above is skipped: the call stats and folds only the new segments
    (their control rows and footers), folds them into the state kept in
    memory, and writes the checkpoint. Any other call runs the full check
    and leaves its state in the session.

    Nothing is pruned by a resume floor: ``max_txn_span`` stays exact over
    all history, because the event read's pruning bound relies on it."""
    cp = _checkpoint_path(paths)
    state = session.state if session is not None else None
    if (state is not None and session.checkpoint == cp
            and state.segments.keys() <= set(paths)):
        new = [p for p in paths if p not in state.segments]
        if new:
            try:
                state.fold_segments(new, _file_stats(new))
            except BaseException:
                session.reset()   # a half-applied fold is not kept
                raise
            state.write(cp)
        return state.info(paths)
    state = _folded(paths, _file_stats(paths), cp, _ControlState.read(cp))
    if session is not None:
        session.state, session.checkpoint = state, cp
    return state.info(paths)


def _checkpoint_path(paths: list[str]) -> str:
    return os.path.join(os.path.dirname(_sidecar(paths[0])), CHECKPOINT_NAME)


def _folded(paths: list[str], stats: dict[str, tuple], cp: str,
            old: "_ControlState | None") -> _ControlState:
    """The control state over exactly ``paths``, folded incrementally from
    ``old``, the state read from the checkpoint ``cp``, and written back by
    the rules ``load_control`` states. ``old`` is private to the call, so
    the fold goes into it in place. A fold from empty keeps the partials of
    unchanged segments."""
    covered = old.segments if old is not None else {}
    same = all(covered[p][:4] == st for p, st in stats.items() if p in covered)
    if old is not None and same and covered.keys() <= stats.keys():
        state = old
    else:
        state = _ControlState()
        if old is not None:
            state.partials = old.partials_of(
                [p for p, st in stats.items() if covered.get(p, ())[:4] == st])
    new = [p for p in stats if p not in state.segments]
    if new:
        state.fold_segments(new, stats)
        rest = {p: covered[p][:4] for p in covered.keys() - stats.keys()}
        if not (same and stats.keys() < covered.keys() and _unchanged(rest)):
            state.write(cp)
    return state


def hot_partials(paths: list[str]) -> pa.Table:
    """The heavy-hitter partials of ``paths`` (``partition.segment_partials``
    layout). Read from the control checkpoint where it has them; one Ray
    pass computes the rest and writes them back into the checkpoint that
    covers ``paths``, so a subset call adds to its superset and never
    evicts it. A checkpoint that does not cover every path with unchanged
    stats is first brought up to date by ``load_control``'s fold. Without
    a ``_ctl`` directory there is no checkpoint to keep them in (none is
    ever created): they are computed, and no control rows are folded only
    to be discarded — which also serves files that are not changelog
    segments."""
    cp = _checkpoint_path(paths)
    if not os.path.isdir(os.path.dirname(cp)):
        return partition.segment_partials(paths)
    stats = _file_stats(paths)
    home = _ControlState.read(cp)
    if home is None or any(home.segments.get(p, ())[:4] != st
                           for p, st in stats.items()):
        home = _folded(paths, stats, cp, home)
    have = set(pc.unique(home.partials["seg"]).to_pylist())
    missing = [p for p in paths if p not in have]
    if missing:
        home.partials = pa.concat_tables(
            [home.partials, partition.segment_partials(missing)]
        ).combine_chunks()
        home.write(cp)
    return home.partials_of(paths)


def _unchanged(entries: dict[str, tuple]) -> bool:
    """Every segment and sidecar of ``entries`` still has its stats."""
    try:
        return _file_stats(list(entries)) == entries
    except FileNotFoundError:
        return False


class CommitResolver:
    """Decode stage: committed-DML filter + image flatten + partition id.

    Built by :func:`make_resolver` once per group task: the broadcast
    state (``commit_ref``: ``ControlInfo.decode_broadcast`` of the
    segments a replay reads; ``hot_ref``: the hot set) is a ``ray.put``
    ref fetched at construction, a zero-copy read from the node's shared
    object store (~µs), then reused for every run of the task's group."""

    def __init__(self, commit_ref, num_partitions: int,
                 hot_ref=None, salt_block: int = 64,
                 floors: "np.ndarray | None" = None,
                 skip_xids: tuple[str, ...] = (),
                 conv_regex: str | None = None,
                 condition: str | None = None,
                 include_table: bool = False,
                 table_regex: str | None = None):
        self._broadcast = ray.get(commit_ref)
        self.num_partitions = num_partitions
        self.hot: frozenset = ray.get(hot_ref) if hot_ref is not None else frozenset()
        self.salt_block = salt_block
        #: per-partition resume cut (None: no cut)
        self.floors = None if floors is None or floors.max() < 0 else floors
        # user-facing filters (reference §2.6): skip-xid list
        # (/root/reference/src/OpenLogReplicator.cpp:1047-1063), table/owner
        # regex (:1009-1045), row `condition` expression
        # (/root/reference/src/common/expression/Expression.cpp)
        self.skip_xids = pa.array(list(skip_xids)) if skip_xids else None
        self.conv_regex = conv_regex
        # multi-table mode: carry table identity through decode → apply;
        # table_regex is the owner/table tracking filter
        # (/root/reference/src/OpenLogReplicator.cpp:1009-1045)
        self.include_table = include_table
        self.table_regex = table_regex
        if condition:
            from olrx.functions.condition import Condition
            self.condition = Condition(condition)
        else:
            self.condition = None
        self.payload_cols = [n for n, _ in S.payload_columns(S.MAX_SCHEMA_VERSION)]
        self.payload_types = [t for _, t in S.payload_columns(S.MAX_SCHEMA_VERSION)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Index-cascade decode: all filter/join steps operate on a shrinking
        numpy index array, gathering each (small) column a step needs once.
        The payload-heavy ``after`` image is filtered exactly ONCE at the
        end, in stream order (kept rows come in long runs) — the
        late-materialization router puts it into plasma as one blob per
        batch and owner-sorts only the light meta columns. Halves the
        per-event DRAM traffic vs the filter-cascade formulation (measured;
        bandwidth is the scaling limiter on shared-DRAM nodes)."""
        if not len(self._broadcast[0]):
            # nothing committed (only rolled-back/open txns in the input, or
            # an incremental window with no new commits) ⇒ every event drops
            return self._empty()
        if self.condition is not None:
            # row-condition filters reference arbitrary payload fields: take
            # the straightforward table-filter path (rare, user-driven)
            batch = batch.filter(
                pc.is_in(batch["op"], value_set=OP_LETTER))
            batch = self.condition.filter(batch)
            if batch.num_rows == 0:
                return self._empty()
            idx = np.arange(batch.num_rows, dtype=np.int64)
        else:
            m = pc.is_in(batch["op"], value_set=OP_LETTER)
            idx = np.flatnonzero(m.to_numpy(zero_copy_only=False))

        def gather(name: str):
            c = batch[name].take(pa.array(idx))
            return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c

        def np_keep(mask_arr: "pa.Array") -> np.ndarray:
            return pc.fill_null(mask_arr, False).to_numpy(zero_copy_only=False)

        if len(idx) and self.table_regex:
            idx = idx[np_keep(pc.match_substring_regex(gather("table_name"),
                                                       self.table_regex))]
        if len(idx) and self.skip_xids is not None:
            idx = idx[np_keep(pc.invert(pc.is_in(gather("xid"),
                                                 value_set=self.skip_xids)))]
        if len(idx) and self.conv_regex:
            idx = idx[np_keep(pc.match_substring_regex(gather("conv_id"),
                                                       self.conv_regex))]
        if len(idx) == 0:
            return self._empty()
        scn = gather("scn").to_numpy(zero_copy_only=False)
        scn_idx = gather("scn_idx").to_numpy(zero_copy_only=False)
        keep, commit_scn = commit_join(*S.xid_codes(gather("xid")), scn,
                                       scn_idx, self._broadcast)
        if not keep.all():
            idx, commit_scn = idx[keep], commit_scn[keep]
            scn, scn_idx = scn[keep], scn_idx[keep]
        if len(idx) == 0:
            return self._empty()

        # the light columns, each gathered once (xid stays behind)
        names = (["table_name"] if self.include_table else []) + [
            "conv_id", "turn_idx", "op", "changed_mask"]
        light = batch.select(names).take(pa.array(idx))
        part = partition_ids(light["conv_id"], light["turn_idx"],
                             self.num_partitions, self.hot, self.salt_block,
                             table=light["table_name"] if self.include_table
                             else None)
        if self.floors is not None:
            # the one exactly-once cut, the reference's Metadata::isNewData
            # (src/metadata/Metadata.cpp:716-727)
            new = commit_scn > self.floors[part]
            if not new.all():
                idx, commit_scn, part = idx[new], commit_scn[new], part[new]
                scn, scn_idx = scn[new], scn_idx[new]
                light = light.filter(pa.array(new))
            if len(idx) == 0:
                return self._empty()
        rows = np.zeros(batch.num_rows, bool)
        rows[idx] = True
        after = batch["after"].filter(pa.array(rows)).combine_chunks()
        present = {f.name for f in after.type}
        op_str = light["op"].to_numpy(zero_copy_only=False)
        op_code = np.full(len(op_str), OP_U, np.int8)
        op_code[op_str == "I"] = OP_I
        op_code[op_str == "D"] = OP_D
        cols: dict[str, object] = {}
        if self.include_table:
            cols["table_name"] = light["table_name"]
        cols.update({
            "conv_id": light["conv_id"],
            "turn_idx": light["turn_idx"],
            "op_code": pa.array(op_code, pa.int8()),
            "commit_scn": pa.array(commit_scn, pa.int64()),
            "scn": pa.array(scn),
            "scn_idx": pa.array(scn_idx),
            "changed_mask": light["changed_mask"],
        })
        for name, typ in zip(self.payload_cols, self.payload_types):
            if name in present:
                cols[f"v_{name}"] = pc.struct_field(after, name)
            else:  # narrower pre-DDL segment schema: additive column reads null
                cols[f"v_{name}"] = pa.nulls(len(idx), typ)
        cols["part"] = pa.array(part, pa.int32())
        return pa.table(cols)

    def _empty(self) -> pa.Table:
        fields = ([("table_name", pa.string())] if self.include_table else [])
        fields += [
            ("conv_id", pa.string()), ("turn_idx", pa.int32()),
            ("op_code", pa.int8()), ("commit_scn", pa.int64()),
            ("scn", pa.int64()), ("scn_idx", pa.int32()),
            ("changed_mask", pa.int32()),
        ]
        fields += [(f"v_{n}", t) for n, t in S.payload_columns(S.MAX_SCHEMA_VERSION)]
        fields += [("part", pa.int32())]
        return pa.table({n: pa.array([], t) for n, t in fields})


def make_resolver(*args, **kwargs):
    """The decode fn of a :class:`DecodePlan`: a picklable closure that
    builds its :class:`CommitResolver` (of these arguments) at its first
    call. Every task gets its own unpickled copy, so the resolver is built
    once per task and reused for each run of its group."""
    holder: list[CommitResolver] = []

    def fn(batch: pa.Table) -> pa.Table:
        if not holder:
            holder.append(CommitResolver(*args, **kwargs))
        return holder[0](batch)

    return fn


def segment_groups(paths: list[str], sizes: "list[int]", n: int
                   ) -> list[list[str]]:
    """``paths`` split into ``n`` groups of consecutive paths (fewer when
    there are fewer paths), balanced by their byte ``sizes``: a path joins
    the group whose share of the total bytes holds its midpoint, and every
    group keeps at least one path. A pure function of its arguments, so a
    replay of the same input reads the same groups."""
    n = max(1, min(n, len(paths)))
    sz = np.asarray(sizes, np.float64)
    mid = np.cumsum(sz) - sz / 2
    cuts = [0]
    for j in range(1, n):
        c = int(np.searchsorted(mid, sz.sum() * j / n))
        cuts.append(min(max(c, cuts[-1] + 1), len(paths) - (n - j)))
    cuts.append(len(paths))
    return [paths[a:b] for a, b in zip(cuts, cuts[1:])]


def _read_segment(path: str, columns: list[str], above: "int | None",
                  at_most: "int | None") -> pa.Table:
    """The ``columns`` of the rows of the segment ``path`` with ``above <
    scn <= at_most`` (None: unbounded). Only the row groups whose footer
    ``scn`` statistics meet the range are read, and the filter runs only
    when a read row group reaches past it. The read stays on the calling
    thread: a group task holds one CPU, and Arrow's pool would only
    oversubscribe it."""
    def inside(v: int) -> bool:
        return (above is None or v > above) and (at_most is None or v <= at_most)

    with pq.ParquetFile(path) as f:
        if above is None and at_most is None:
            return f.read(columns, use_threads=False)
        stats = _scn_stats(f.metadata)
        keep = [i for i, st in enumerate(stats) if st is None or (
            (above is None or st[1] > above)
            and (at_most is None or st[0] <= at_most))]
        t = f.read_row_groups(keep, columns, use_threads=False)
    if all(stats[i] is not None and inside(stats[i][0]) and inside(stats[i][1])
           for i in keep):
        return t
    scn = pc.field("scn")
    flt = (scn > above) if above is not None else None
    if at_most is not None:
        flt = (scn <= at_most) if flt is None else flt & (scn <= at_most)
    return t.filter(flt)


def read_runs(paths: list[str], columns: list[str],
              above: "int | None" = None, at_most: "int | None" = None,
              max_bytes: "int | None" = None, max_rows: "int | None" = None):
    """The rows of the segments ``paths`` in order, read file by file under
    each file's own schema (``columns`` pruned, ``above < scn <= at_most``,
    :func:`_read_segment`), as runs: consecutive files of one schema
    concatenated, under ``max_bytes`` bytes (a larger file is a run of its
    own) and, when set, exactly ``max_rows`` rows (the last run of a schema
    may be shorter).

    A ``pyarrow.dataset`` over several files would read them all under the
    first file's schema: a narrow pre-DDL first file drops the added
    column of the later ones, and a wide first file fails the narrow ones."""
    run: list[pa.Table] = []
    for p in paths:
        t = _read_segment(p, columns, above, at_most)
        if run and (not t.schema.equals(run[0].schema)
                    or (max_bytes is not None
                        and sum(r.nbytes for r in run) + t.nbytes > max_bytes)):
            yield pa.concat_tables(run)
            run = []
        run.append(t)
        if max_rows:
            whole = pa.concat_tables(run)
            while whole.num_rows >= max_rows:
                yield whole.slice(0, max_rows)
                whole = whole.slice(max_rows)
            run = [whole] if whole.num_rows else []
    if run:
        yield pa.concat_tables(run)


def make_segment_decoder(decode, columns: list[str],
                         above: "int | None" = None,
                         at_most: "int | None" = None,
                         max_bytes: "int | None" = None,
                         max_rows: "int | None" = None):
    """The replay's read + decode of one segment group: ``fn(group,
    profile=None)`` yields ``decode(run)`` for every run of
    :func:`read_runs` over ``group``. A ``profile`` dict, when given,
    gains the ``read`` and ``decode`` seconds and the decoded ``raw_bytes``
    (the time the caller spends between yields is not counted)."""
    def fn(group: list[str], profile: "dict | None" = None):
        t0 = time.perf_counter()
        for run in read_runs(group, columns, above, at_most, max_bytes,
                             max_rows):
            t1 = time.perf_counter()
            out = decode(run)
            if profile is not None:
                profile["read"] += t1 - t0
                profile["decode"] += time.perf_counter() - t1
                profile["raw_bytes"] += out.nbytes
            yield out
            t0 = time.perf_counter()

    return fn


@dataclass(frozen=True)
class DecodePlan:
    """A replay's decoded event stream, not yet run: the segment
    ``groups`` (:func:`segment_groups`) and ``decode``, a picklable
    ``group → decoded tables`` function (:func:`make_segment_decoder`).
    The exchange runs one Ray task a group; queries and tests take a Ray
    Data view of the same plan (``replay._decoded_events``)."""
    groups: list
    decode: Callable
