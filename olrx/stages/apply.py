"""Per-partition merge-apply: the vectorized core of the engine.

Reproduces the semantics of the reference's row-image merge
(``Builder::processDml``, /root/reference/src/builder/Builder.cpp:896-1735):

- apply order ``(commit_scn, scn, scn_idx)`` per row key
  (commit-order emission, /root/reference/src/writer/Writer.cpp:134-138)
- I sets the full row; U merges columns whose ``changed_mask`` bit is set
  (unchanged columns carried forward, explicit nulls honored —
  Builder.cpp:1467-1542); D removes the row; later I re-creates it
- a column value never survives across a delete (null-fill semantics,
  Builder.cpp:1614-1624)

Implementation note: the big payload columns (text!) are NEVER moved into
sort order. Only the int key columns are sorted (numpy lexsort over the
order columns and one packed int64 row key + fancy index); segment
reductions run on those, producing *global* winner row indices; the one
and only payload copy is the final winner gather straight from the
unsorted input. This matters: on memory-bound nodes the naive "sort the
whole table then reduce" shape doubles DRAM traffic. A column that every
alive row sets (full images) skips the per-column reduction: its winner
is each key's last alive row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from olrx import schema as S
from olrx.schema import OP_D, OP_I, OP_U


def _as_np(col) -> np.ndarray:
    # ChunkedArray.to_numpy on many chunks is a slow per-chunk path
    # (measured ~8 s on 4 int columns × 96 chunks × 4M rows); one
    # combine memcpy then a zero-copy view is ~100× faster
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


#: the columns ``_KeySegments`` reads (``table_name`` when present), so
#: all that ``compact_rows`` needs of an event set
KEY_SEGMENT_COLUMNS = ("table_name", "conv_id", "turn_idx", "op_code",
                       "commit_scn", "scn", "scn_idx", "changed_mask")


class _KeySegments:
    """The key sort both reductions run on a non-empty event set: rows in
    apply order ``(commit_scn, scn, scn_idx)`` within each row key, keys
    contiguous. ``order`` maps a sorted position to its row, ``seg_starts``
    are the first sorted position of each key, ``idx`` the sorted
    positions, and ``is_d`` / ``mask_s`` the delete flag and ``changed_mask`` in sorted
    order; ``full_bits`` the ``changed_mask`` bits every alive row sets.
    Only int key columns move; no payload is touched."""

    def __init__(self, group: pa.Table) -> None:
        n = group.num_rows
        codes = S.dictionary_codes(group["conv_id"])[0].astype(np.int64)
        # one int64 row key: (conv code, turn) packed as (code << 32) |
        # (turn + 2^31), which sorts as the pair does
        key = (codes << 32) | (_as_np(group["turn_idx"]).astype(np.int64)
                               + (1 << 31))
        sort_keys = (_as_np(group["scn_idx"]).astype(np.int64),
                     _as_np(group["scn"]).astype(np.int64),
                     _as_np(group["commit_scn"]).astype(np.int64), key)
        multi = "table_name" in group.column_names
        if multi:
            tcodes = S.dictionary_codes(group["table_name"])[0].astype(
                np.int64)
            sort_keys = sort_keys + (tcodes,)
        self.order = order = np.lexsort(sort_keys)
        key_s = key[order]
        new_seg = np.empty(n, bool)
        new_seg[0] = True
        new_seg[1:] = key_s[1:] != key_s[:-1]
        if multi:
            tcodes_s = tcodes[order]
            new_seg[1:] |= tcodes_s[1:] != tcodes_s[:-1]
        self.seg_starts = np.flatnonzero(new_seg)
        self.idx = np.arange(n, dtype=np.int64)
        self.is_d = _as_np(group["op_code"])[order] == OP_D
        self.mask_s = _as_np(group["changed_mask"]).astype(np.int64)[order]
        self.full_bits = int(np.bitwise_and.reduce(self.mask_s[~self.is_d]))

    def last_where(self, cond: np.ndarray) -> np.ndarray:
        """Per key, the last sorted position where the sorted-domain
        ``cond`` holds (-1: none) — a segment max."""
        return np.maximum.reduceat(np.where(cond, self.idx, -1),
                                   self.seg_starts)

    def last_setting(self, bit: int) -> np.ndarray:
        """Per key, the last alive sorted position that sets column ``bit``."""
        return self.last_where(((self.mask_s >> bit) & 1 == 1) & ~self.is_d)


def merge_apply(group: pa.Table, schema_version: int,
                dropped: tuple = (),
                renamed: "dict[str, str] | None" = None) -> pa.Table:
    """Reduce decoded events to final transcript rows.

    ``group`` has decode-stage layout: key columns, ``op_code``, order
    columns, ``changed_mask`` and ``v_<payload>`` value columns
    (full-width). Keys may span multiple hash partitions — ``(conv_id,
    turn_idx)`` is globally unique, so the reduction is partition-agnostic.
    Output is ``transcripts_schema(schema_version, dropped=dropped,
    renamed=renamed)``.

    ``dropped``: payload columns removed by committed DROP DDLs — excluded
    from the winner gather entirely (their payload bytes are never moved),
    so old-version rows stay replayable while the output schema lacks the
    column (reference SystemTransaction.cpp:640).

    ``renamed``: physical → current name from committed RENAME DDLs
    (reference SystemTransaction::processUpdate, SystemTransaction.cpp:525)
    — applied only when labeling the output columns; the merge itself runs
    entirely on physical identities (mask bits, ``v_<physical>``). The
    keys and the ``full_bits`` columns are one take of the row winners;
    only the others (pre-DDL added columns, partial images) reduce."""
    payload = [n for n, _ in S.payload_columns(schema_version)
               if n not in dropped]
    rn = renamed or {}
    multi = "table_name" in group.column_names
    out_schema = S.transcripts_schema(schema_version, include_table=multi,
                                      dropped=dropped, renamed=rn)
    if group.num_rows == 0:
        return out_schema.empty_table()

    ks = _KeySegments(group)
    order, is_d = ks.order, ks.is_d
    last_d = ks.last_where(is_d)
    last_alive = ks.last_where(~is_d)
    exists = last_alive > last_d                      # row survives its last delete

    keep = np.flatnonzero(exists)
    keys = (["table_name"] if multi else []) + ["conv_id", "turn_idx"]
    names = [nm for nm, _ in S.payload_columns(S.MAX_SCHEMA_VERSION)]
    full = [nm for bit, nm in enumerate(names) if ks.full_bits >> bit & 1]
    # one row per kept key, its last alive row: the row winner
    winners = group.select(keys + [f"v_{nm}" for nm in full if nm in payload]
                           ).take(pa.array(order[last_alive[keep]]))
    out_cols = {k: winners[k] for k in keys}
    for bit, name in enumerate(names):
        if name not in payload:
            continue
        if name in full:
            out_cols[rn.get(name, name)] = winners[f"v_{name}"]
            continue
        val_idx = ks.last_setting(bit)
        valid = (val_idx > last_d) & exists           # never read across a delete
        # map sorted-domain winner positions back to global row indices and
        # gather straight from the unsorted table — the only payload copy
        gather_global = order[np.where(valid, val_idx, 0)][keep]
        vals = group[f"v_{name}"].take(pa.array(gather_global))
        invalid = ~valid[keep]
        if invalid.any():
            vals = pc.if_else(pa.array(invalid),
                              pa.nulls(len(gather_global), vals.type), vals)
        out_cols[rn.get(name, name)] = vals
    return pa.table(out_cols).cast(out_schema)


def compact_rows(group: pa.Table) -> np.ndarray:
    """The rows of ``group`` that can still influence any future merge, in
    ascending order: per key, the last delete row, the last alive row, and
    each column's latest setting row (the last alive row itself for a
    column every alive row sets). Reads only ``KEY_SEGMENT_COLUMNS``."""
    if group.num_rows == 0:
        return np.zeros(0, np.int64)
    ks = _KeySegments(group)
    picks = [ks.last_where(ks.is_d), ks.last_where(~ks.is_d)]
    n_cols = len(S.payload_columns(S.MAX_SCHEMA_VERSION))
    picks += [ks.last_setting(bit) for bit in range(n_cols)
              if not ks.full_bits >> bit & 1]
    kept = np.zeros(group.num_rows, bool)
    for p in picks:
        kept[ks.order[p[p >= 0]]] = True
    return np.flatnonzero(kept)


def compact_events(group: pa.Table) -> pa.Table:
    """Reduce an event set to its ``compact_rows``. "Latest X over a union
    = latest of the per-part latests", so compaction is a proper semigroup:
    appliers can fold it over arriving shards incrementally, keeping
    buffered state O(#keys) instead of O(#events) — the TransactionBuffer
    memory-bound analog
    (/root/reference/src/common/MemoryManager.cpp:197-260).
    """
    if group.num_rows == 0:
        return group
    return group.take(pa.array(compact_rows(group)))


def apply_stats(group: pa.Table) -> dict[str, int]:
    """Lineage counters for a partition's event group (reference analog:
    dml_ops / transactions metrics, /root/reference/src/common/metrics/Metrics.h)."""
    op = group["op_code"].to_numpy(zero_copy_only=False)
    return {
        "events": len(op),
        "inserts": int((op == OP_I).sum()),
        "updates": int((op == OP_U).sum()),
        "deletes": int((op == OP_D).sum()),
    }
