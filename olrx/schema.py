"""Arrow schemas for the change-event stream and the transcripts lake table.

Re-models the reference's row/record data model (redo record → vector pair →
values matrix, /root/reference/src/common/RedoLogRecord.h:34-121 and
/root/reference/src/builder/Builder.h:153-158) as columnar Arrow:

- one changelog row  = one change event (op-tagged, full/partial images)
- transcripts table  = the materialized lake table per BASELINE.json input_hint

Schema evolution is additive (reference: SystemTransaction commit applies
dictionary DML at an SCN, /root/reference/src/builder/SystemTransaction.cpp:729;
schema serialized into checkpoints, SerializerJson.cpp:805-820). Here the
schema registry is a versioned list of column sets; version k = BASE_COLUMNS +
first k entries of ADDITIVE_COLUMNS.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# transcripts lake table (BASELINE.json input_hint)
# ---------------------------------------------------------------------------

#: payload columns of a transcript turn, in canonical order. ``changed_mask``
#: bit i refers to PAYLOAD_COLUMNS[i] (+ additive columns appended after).
PAYLOAD_COLUMNS: list[tuple[str, pa.DataType]] = [
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
]

#: additive-evolution columns, in the order DDL events may introduce them
#: (reference analog: the ddl-add-column fixture, /root/reference/PLAN.md:387).
ADDITIVE_COLUMNS: list[tuple[str, pa.DataType]] = [
    ("tool_meta", pa.string()),
]

KEY_COLUMNS: list[tuple[str, pa.DataType]] = [
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
]


def payload_columns(schema_version: int = 0) -> list[tuple[str, pa.DataType]]:
    """Payload columns at a given schema version (0 = base)."""
    if schema_version < 0 or schema_version > len(ADDITIVE_COLUMNS):
        raise ValueError(f"unknown schema_version {schema_version}")
    return PAYLOAD_COLUMNS + ADDITIVE_COLUMNS[:schema_version]


def transcripts_schema(schema_version: int = 0,
                       include_table: bool = False,
                       dropped: tuple[str, ...] = (),
                       renamed: "dict[str, str] | None" = None) -> pa.Schema:
    """Lake-table schema. ``include_table`` prepends the ``table_name`` key
    column (multi-table replay, reference Schema dictionary tracking many
    tables via owner/table maps, /root/reference/src/metadata/Schema.h:119-129);
    single-table pipelines keep the historical two-column key.

    ``dropped``: payload columns removed by committed DROP DDLs
    (non-additive evolution — the reference's SystemTransaction handles
    dictionary-row DELETE too, SystemTransaction.cpp:640); the lake schema
    after a drop simply lacks the column. Re-adding a previously dropped
    column is out of scope (a fresh dictionary column in the reference).

    ``renamed``: physical → current display name for columns renamed by
    committed RENAME DDLs (reference SystemTransaction::processUpdate of a
    dictionary row, SystemTransaction.cpp:525 — the column ID and its data
    are untouched; only the name mapping changes). Payload columns keep
    their physical identity (mask bits, ``v_<physical>`` event columns)
    end to end; the rename applies at the OUTPUT boundary only."""
    head = [("table_name", pa.string())] if include_table else []
    rn = renamed or {}
    payload = [(rn.get(n, n), t) for n, t in payload_columns(schema_version)
               if n not in dropped]
    return pa.schema(head + KEY_COLUMNS + payload)


MAX_SCHEMA_VERSION = len(ADDITIVE_COLUMNS)

#: the lake snapshot columns (physical names) worth a parquet dictionary:
#: few distinct values a partition. ``text`` and ``ts`` are all but unique
#: per row and ``turn_idx`` is a small int, so they are written plain.
SNAPSHOT_DICTIONARY_COLUMNS = ("table_name", "conv_id", "role", "tool",
                               "tool_meta")

# ---------------------------------------------------------------------------
# changelog (synthetic redo stream)
# ---------------------------------------------------------------------------

#: ops — reference opcodes collapse to these tags (SURVEY §2.2):
#: B=begin (0x0502), C=commit / R=rollback (0x0504), I=insert (0x0B02/0x0B0B),
#: U=update (0x0B05/0x0B10), D=delete (0x0B03/0x0B0C), DDL=schema change
#: (0x1801), PR=partial rollback / rollback-to-savepoint (0x0506/0x050B —
#: the undo vector targets one specific prior change of the same txn, which
#: the reference pairs off the top of the transaction buffer,
#: /root/reference/src/parser/Transaction.cpp:73-148; here the target is
#: carried explicitly as (undo_scn, undo_scn_idx)).
OPS = ("B", "C", "R", "I", "U", "D", "DDL", "PR")

#: compact op encoding used downstream of decode (shrinks the shuffle payload
#: and turns apply-side comparisons into int8 ops)
OP_I, OP_U, OP_D = np.int8(0), np.int8(1), np.int8(2)


def image_struct(schema_version: int = MAX_SCHEMA_VERSION) -> pa.DataType:
    """Row image struct (before/after). Full-width by default; early log
    segments may carry a narrower version (pre-DDL) — readers unify."""
    return pa.struct(payload_columns(schema_version))


def changelog_schema(schema_version: int = MAX_SCHEMA_VERSION) -> pa.Schema:
    """One change event per row.

    Ordering key of the stream is ``(scn, scn_idx)`` within a shard
    (reference: LwnMember sort key, /root/reference/src/parser/Parser.h:39-61);
    apply order for table state is ``(commit_scn, scn, scn_idx)``
    (reference: commit-order emission, /root/reference/src/writer/Writer.cpp:134-138).
    """
    img = image_struct(schema_version)
    return pa.schema(
        [
            ("table_name", pa.string()),  # owner.table analog (null on control rows)
            ("scn", pa.int64()),          # event SCN (Scn — types/Scn.h:27)
            ("scn_idx", pa.int32()),      # intra-SCN tiebreak (subScn/lwnIdx)
            ("seq", pa.int32()),          # log segment sequence within shard (Seq)
            ("shard", pa.int16()),        # redo thread id (RAC analog)
            ("xid", pa.string()),         # transaction id (Xid usn.slt.sqn)
            ("op", pa.string()),          # one of OPS
            ("conv_id", pa.string()),     # row key (null for B/C/R/DDL)
            ("turn_idx", pa.int32()),     # row key (null for B/C/R/DDL)
            ("before", img),              # undo image (U/D), else null
            ("after", img),               # redo image (I/U), else null
            # bit i set ⇒ payload column i present in `after` (changed).
            # I events set all bits; U events set changed bits only
            # (reference: COLUMN_FORMAT::CHANGED drop of unchanged cols,
            # /root/reference/src/builder/Builder.cpp:1467-1506).
            ("changed_mask", pa.int32()),
            ("changed_cols", pa.list_(pa.string())),  # human/SQL mirror of the mask
            ("ddl", pa.string()),         # JSON payload for DDL events, else null
            # PR (partial rollback) events: the (scn, scn_idx) of the same
            # txn's DML op this record undoes; null otherwise
            ("undo_scn", pa.int64()),
            ("undo_scn_idx", pa.int32()),
            ("ts", pa.timestamp("us")),   # event wall-clock timestamp
        ]
    )


def column_bit(name: str) -> int:
    """Bit index of a payload column in ``changed_mask``."""
    names = [n for n, _ in PAYLOAD_COLUMNS + ADDITIVE_COLUMNS]
    return names.index(name)


def full_mask(schema_version: int = MAX_SCHEMA_VERSION) -> int:
    return (1 << len(payload_columns(schema_version))) - 1


# ---------------------------------------------------------------------------
# control rows: the transaction markers decode resolves commits from
# ---------------------------------------------------------------------------

#: ops that are transaction control, not row changes
CONTROL_OPS = ("B", "C", "R", "DDL", "PR")

#: the changelog columns control rows are read with
CONTROL_COLUMNS = ["xid", "op", "scn", "scn_idx", "ddl", "shard",
                   "undo_scn", "undo_scn_idx"]


def dictionary_codes(strings) -> "tuple[np.ndarray, pa.Array]":
    """``(codes, values)`` of an Arrow string array or chunked array: its
    distinct values (a null is one of them) and each row's index into
    them, so per-value work runs once per distinct string."""
    import pyarrow.compute as pc

    if pa.types.is_dictionary(strings.type):
        strings = strings.cast(strings.type.value_type)
    d = pc.dictionary_encode(strings, null_encoding="encode")
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    return d.indices.to_numpy(zero_copy_only=False), d.dictionary


def hash_values(strings: pa.Array) -> np.ndarray:
    """uint64 hash of each string of ``strings``: ``pd.util.hash_array``
    over them as Python objects (a null hashes to the uint64 max). Stable
    across processes (pandas' fixed siphash key): partition ids and
    ``_ctl`` ``xid_h`` are persisted."""
    import pandas as pd

    return pd.util.hash_array(np.asarray(
        strings.to_numpy(zero_copy_only=False), dtype=object))


def string_hash(strings) -> np.ndarray:
    """``hash_values`` of an Arrow string array or chunked array, bit for
    bit, but each distinct string is converted and hashed once: the rows
    index the hashed dictionary by their codes."""
    codes, values = dictionary_codes(strings)
    return hash_values(values)[codes]


def xid_hash(xids) -> np.ndarray:
    """uint64 hash of each transaction id (an Arrow string array): the key
    of every commit lookup and of the partial-rollback anti-join."""
    return string_hash(xids)


def xid_codes(xids) -> "tuple[np.ndarray, np.ndarray]":
    """``(hashes, codes)``: the ``xid_hash`` of each distinct id of
    ``xids`` and each row's index into them (a ``commit_join``'s keys)."""
    codes, values = dictionary_codes(xids)
    return hash_values(values), codes


def control_rows(paths: list[str]) -> pa.Table:
    """The control rows of the segments ``paths``, in order: their
    ``CONTROL_COLUMNS`` filtered to ``CONTROL_OPS``, plus ``xid_h``. This is
    a segment's ``_ctl`` sidecar, and what decode folds for a segment that
    has none."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pa.concat_tables([pq.read_table(p, columns=CONTROL_COLUMNS)
                          for p in paths], promote_options="default")
    t = t.filter(pc.is_in(t["op"], value_set=pa.array(CONTROL_OPS)))
    return t.append_column("xid_h", pa.array(xid_hash(t["xid"]), pa.uint64()))
