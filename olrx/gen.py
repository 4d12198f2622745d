"""Deterministic synthetic change-log generator (seeded; no external data).

Mirrors the reference's test-fixture strategy (captured redo logs + golden
output, /root/reference/tests/README.md:1-55) with a vectorized numpy
generator instead of a live Oracle. One call produces a full changelog
(`pyarrow.Table` in the `olrx.schema.changelog_schema()` layout) exercising,
in a single stream, the semantic scenarios of /root/reference/PLAN.md:366-394:

- interleaved transactions (begin order != commit order)
- rollbacks (R-terminated txns produce no table changes,
  /root/reference/src/parser/Transaction.cpp:207-210)
- open transactions at end-of-stream (never emitted)
- updates / deletes / delete-then-reinsert chains per (conv_id, turn_idx)
- a skewed hot conversation (north-rule salting fixture)
- an in-stream DDL adding an additive column at a known SCN
  (/root/reference/src/builder/SystemTransaction.cpp:729)
- multi-shard (RAC redo-thread analog) with per-shard log segments
- special characters / multibyte text passthrough

Event-chain validity is guaranteed by construction: per key the op chain is
``I, U*, [D, [I, U*]]`` and chain order maps to nondecreasing commit order
(strictly increasing ``(commit_scn, scn, scn_idx)``).

Generation is cached on disk under a config digest so the Ray pipeline and
the DuckDB oracle SQL read the *same* parquet bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from olrx import schema as S

EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z in microseconds
SCN0 = 1000
SCN_STRIDE = 13          # commit_scn[t] = SCN0 + t * SCN_STRIDE
COMMIT_SCN_IDX = 1 << 20  # C/R events sort after all DML at the same scn

ROLES = np.array(["user", "assistant", "system", "tool"])
SPECIAL_SNIPPETS = [
    "\nline2\t\"quoted\" \\ back",
    " üñïçødé 測試 😀",
    "\r\ncrlf,comma;semi",
]


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic stream. ``scale`` ~ TPC-H sf: DML event count
    ≈ scale * 6e6 (so sf0.01 ≈ 60k events, matching TESTDATA.md row counts)."""

    scale: float = 0.001
    seed: int = 42
    avg_turns: int = 20
    update_lambda: float = 0.8     # mean updates per key
    delete_ratio: float = 0.10     # P(key deleted after updates)
    reinsert_ratio: float = 0.30   # P(reinsert | deleted)
    txn_avg_events: int = 12
    rollback_frac: float = 0.05    # rolled-back txns, as fraction of committed
    partial_rollback_frac: float = 0.04  # committed txns containing a
                                   # rollback-to-savepoint (PR ops undoing a
                                   # trailing run of that txn's changes)
    open_txns: int = 2             # dangling txns at end-of-stream
    n_shards: int = 2
    segments_per_shard: int = 4
    n_tables: int = 1              # multi-table stream: conversations are
                                   # spread over t0..t{n-1}; >1 also plants
                                   # "twin" rows — the SAME (conv_id,
                                   # turn_idx) key living in two tables with
                                   # different payloads (the engine must key
                                   # state on (table, conv, turn))
    hot_conv_factor: int = 0       # conv 0 gets factor*avg_turns turns (skew)
    partial_images: bool = False   # True → U events carry only changed columns
    ddl: bool = True               # emit the add-column DDL mid-stream
    ddl_drop: bool = False         # ALSO drop tool_meta later in the stream
                                   # (non-additive evolution; requires ddl)
    ddl_rename: bool = False       # ALSO rename tool → tool_label mid-stream
                                   # (dictionary-row UPDATE — reference
                                   # SystemTransaction.cpp:525; data and
                                   # column identity untouched, display name
                                   # changes at the commit SCN)
    special_char_every: int = 37   # every k-th text gets a special snippet
    gen_version: int = 2           # bump to invalidate on-disk caches when
                                   # generator CODE changes (digest covers
                                   # config only); v2 = rb/open xid zfill fix

    def __post_init__(self) -> None:
        # the drop and rename DDL are only emitted next to the add-column
        # DDL; without it they would be silently left out of the stream
        for flag in ("ddl_drop", "ddl_rename"):
            if getattr(self, flag) and not self.ddl:
                raise ValueError(f"{flag}=True requires ddl=True")

    @property
    def n_conversations(self) -> int:
        return max(4, int(150_000 * self.scale))

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass
class GenResult:
    table: pa.Table
    ddl_scn: int              # -1 when no DDL
    n_committed_txns: int
    config: GenConfig = field(repr=False, default=None)
    drop_scn: int = -1        # commit SCN of the drop DDL (-1 when absent)


def _as_array(a):
    """pa.array/cast may return ChunkedArray for large inputs — flatten."""
    if isinstance(a, pa.ChunkedArray):
        return a.combine_chunks()
    return a


#: assembly-chunk row count (one chunk is the peak unit of payload memory;
#: a single Arrow string Array also caps at 2 GiB)
_ASSEMBLY_CHUNK = 4_000_000


def _stream_build(cfg: GenConfig):
    """Build the stream's integer/bool backbone + a chunk materializer.
    Returns ``(meta, chunk_table)``: meta has ddl_scn/drop_scn/n_txn/rows;
    ``chunk_table(lo)`` assembles rows [lo, lo+_ASSEMBLY_CHUNK) of the
    globally (shard, scn, scn_idx)-sorted changelog, computing payload
    values (text!) only for that slice."""
    rng = np.random.default_rng(cfg.seed)

    # ---- keys and per-key chains -----------------------------------------
    n_conv = cfg.n_conversations
    turns = rng.integers(max(1, cfg.avg_turns // 2), cfg.avg_turns * 2, n_conv)
    if cfg.hot_conv_factor > 1:
        turns[0] = cfg.avg_turns * cfg.hot_conv_factor
    n_keys = int(turns.sum())
    key_conv = np.repeat(np.arange(n_conv), turns)           # conv index per key
    key_turn = np.concatenate([np.arange(t) for t in turns]).astype(np.int64)

    n_upd = rng.poisson(cfg.update_lambda, n_keys)
    deleted = rng.random(n_keys) < cfg.delete_ratio
    reins = deleted & (rng.random(n_keys) < cfg.reinsert_ratio)
    n_upd2 = np.where(reins, rng.poisson(0.5, n_keys), 0)
    chain_len = 1 + n_upd + deleted.astype(np.int64) + reins.astype(np.int64) + n_upd2

    total = int(chain_len.sum())
    offs = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(chain_len, out=offs[1:])
    ev_key = np.repeat(np.arange(n_keys), chain_len)
    chain_pos = np.arange(total) - offs[:-1][ev_key]

    # op per chain position: 0→I, 1..n_upd→U, n_upd+1→D, n_upd+2→I, rest→U
    op = np.full(total, "U", dtype="U3")
    op[chain_pos == 0] = "I"
    d_at = offs[:-1] + 1 + n_upd
    op[d_at[deleted]] = "D"
    op[(d_at + 1)[reins]] = "I"

    # ---- assign chain events to committed transactions -------------------
    n_txn = max(2, total // cfg.txn_avg_events)
    r = rng.integers(0, n_txn, total)
    s = ev_key * np.int64(n_txn) + r
    s.sort()                                   # per-key ascending txn, blocks preserved
    ev_txn = (s - ev_key * np.int64(n_txn)).astype(np.int64)

    commit_scn = SCN0 + np.arange(n_txn, dtype=np.int64) * SCN_STRIDE
    txn_dur = rng.integers(2, 15 * SCN_STRIDE, n_txn)        # overlap ⇒ interleaving
    begin_scn = commit_scn - txn_dur
    txn_shard = (np.arange(n_txn) % cfg.n_shards).astype(np.int16)

    # intra-txn order: stable sort by txn keeps per-key chain order
    order = np.argsort(ev_txn, kind="stable")
    ev_key, chain_pos, op, ev_txn = ev_key[order], chain_pos[order], op[order], ev_txn[order]
    txn_starts = np.searchsorted(ev_txn, np.arange(n_txn))
    intra = np.arange(total) - txn_starts[ev_txn] + 1        # B is scn_idx 0
    ev_scn = np.minimum(begin_scn[ev_txn] + intra, commit_scn[ev_txn] - 1)

    dml = {
        "ki": key_conv[ev_key], "ti": key_turn[ev_key], "ver": chain_pos,
        "op": op, "txn": ev_txn, "scn": ev_scn, "scn_idx": intra.astype(np.int64),
        "shard": txn_shard[ev_txn], "committed": np.ones(total, bool),
        "commit_scn": commit_scn[ev_txn],
        # home table of a conversation (multi-table streams)
        "tbl": (key_conv[ev_key] % cfg.n_tables).astype(np.int16),
    }

    # ---- rollback + open transactions (vectorized) ------------------------
    extras = []
    n_rb = int(n_txn * cfg.rollback_frac)
    aux_txn_arrays = []     # dicts of (xid, kind, begin, end(-1=open), shard)
    fresh_turn = 1_000_000  # keys never used by chains
    for kind, count, terminated in (("rb", n_rb, True), ("open", cfg.open_txns, False)):
        if count <= 0:
            continue
        anchor = rng.integers(0, n_txn, count)
        end = commit_scn[anchor] + 4 + np.arange(count) % 7
        dur = rng.integers(5, 40, count)
        k = rng.integers(2, 8, count)
        tot = int(k.sum())
        offs = np.zeros(count + 1, np.int64)
        np.cumsum(k, out=offs[1:])
        tix = np.repeat(np.arange(count), k)          # aux-txn index per event
        within = np.arange(tot) - offs[:-1][tix]
        pick = rng.integers(0, n_keys, tot)
        is_ins = rng.random(tot) < 0.3
        eki = key_conv[pick].copy()
        eti = key_turn[pick].copy()
        eti[is_ins] = fresh_turn + np.arange(int(is_ins.sum()))
        fresh_turn += tot
        # width must exceed the digit count: np.char.zfill TRUNCATES strings
        # longer than the width (at scale 8 a width of 4 collided every
        # rb xid ≥ 10000 down onto rb1000..rb9999 — gen_version 2 fix)
        xids = np.char.add(kind, np.char.zfill(np.arange(count).astype("U9"), 9)
                           ).astype(object)
        extras.append({
            "ki": eki, "ti": eti, "ver": 90 + tix,
            "op": np.where(is_ins, "I", "U").astype("U3"),
            "txn": np.full(tot, -1), "scn": (end - dur)[tix] + within + 1,
            "scn_idx": within + 1,
            "shard": ((anchor + 1)[tix] % cfg.n_shards).astype(np.int16),
            "committed": np.zeros(tot, bool), "commit_scn": np.full(tot, -1),
            "xid_arr": xids[tix],
            "tbl": (eki % cfg.n_tables).astype(np.int16),
        })
        aux_txn_arrays.append({
            "xid": xids, "begin": end - dur,
            "end": end if terminated else np.full(count, -1),
            "shard": ((anchor + 1) % cfg.n_shards).astype(np.int16),
        })

    # ---- partial rollbacks (rollback-to-savepoint, reference 0x0506) ------
    # Some committed txns additionally write a short run of DML that is then
    # undone before commit (savepoint rollback, PLAN.md:376): the run's ops
    # appear in the stream followed by PR records naming the undone change
    # (the reference's undo vector pairs against the top of the transaction
    # buffer, Transaction.cpp:73-148). The final table state is unchanged —
    # decoders must drop exactly the PR-targeted ops.
    pr_ctl = None   # (xid, scn, scn_idx, shard, undo_scn, undo_scn_idx)
    n_pr = int(n_txn * cfg.partial_rollback_frac)
    if n_pr > 0:
        anchor = rng.integers(0, n_txn, n_pr)
        k = rng.integers(1, 5, n_pr)
        tot = int(k.sum())
        tix = np.repeat(np.arange(n_pr), k)
        pick = rng.integers(0, n_keys, tot)
        is_ins = rng.random(tot) < 0.5
        eki = key_conv[pick].copy()
        eti = key_turn[pick].copy()
        eti[is_ins] = fresh_turn + np.arange(int(is_ins.sum()))
        fresh_turn += tot
        j = np.arange(tot)
        ev_scn_pr = commit_scn[anchor][tix] - 2
        ev_idx_pr = 700_000 + j
        xid_arr = np.char.add("x", anchor.astype("U9")).astype(object)[tix]
        extras.append({
            "ki": eki, "ti": eti, "ver": 95 + tix % 5,
            "op": np.where(is_ins, "I", "U").astype("U3"),
            "txn": np.full(tot, -1), "scn": ev_scn_pr,
            "scn_idx": ev_idx_pr,
            "shard": txn_shard[anchor][tix],
            "committed": np.ones(tot, bool),
            "commit_scn": commit_scn[anchor][tix],
            "xid_arr": xid_arr,
            "tbl": (eki % cfg.n_tables).astype(np.int16),
        })
        pr_ctl = {
            "xid": xid_arr,
            "scn": commit_scn[anchor][tix] - 1,
            "scn_idx": 800_000 + j,
            "shard": txn_shard[anchor][tix],
            "undo_scn": ev_scn_pr,
            "undo_scn_idx": ev_idx_pr,
        }

    # ---- cross-table twin keys (multi-table streams only) ------------------
    # The SAME (conv_id, turn_idx) living in TWO tables with different
    # payloads: any engine that keys state on (conv, turn) alone merges them
    # wrongly (reference keys rows per table object,
    # /root/reference/src/metadata/Schema.h:119-129).
    if cfg.n_tables > 1:
        n_twin = max(8, n_keys // 50)
        tk = rng.integers(0, n_keys, n_twin)
        home = (key_conv[tk] % cfg.n_tables).astype(np.int16)
        other = ((home + 1 + rng.integers(0, cfg.n_tables - 1, n_twin))
                 % cfg.n_tables).astype(np.int16)
        anchor_t = rng.integers(0, n_txn, n_twin)
        j = np.arange(n_twin)
        extras.append({
            "ki": key_conv[tk], "ti": key_turn[tk], "ver": 70 + j % 10,
            "op": np.full(n_twin, "I", dtype="U3"),
            "txn": np.full(n_twin, -1),
            "scn": commit_scn[anchor_t] - 2,
            "scn_idx": 650_000 + j,
            "shard": txn_shard[anchor_t],
            "committed": np.ones(n_twin, bool),
            "commit_scn": commit_scn[anchor_t],
            "xid_arr": np.char.add("x", anchor_t.astype("U9")).astype(object),
            "tbl": other,
        })

    # ---- DDL txn ----------------------------------------------------------
    ddl_scn = -1
    drop_scn = -1
    rename_scn = -1
    if cfg.ddl:
        t_at = int(n_txn * 0.4)
        ddl_scn = int(SCN0 + t_at * SCN_STRIDE + 3)
        if cfg.ddl_drop:
            # non-additive evolution: the column added at ddl_scn is DROPPED
            # again later (reference SystemTransaction::processDelete,
            # /root/reference/src/builder/SystemTransaction.cpp:640)
            t_drop = int(n_txn * 0.75)
            drop_scn = int(SCN0 + t_drop * SCN_STRIDE + 3)
        if cfg.ddl_rename:
            # dictionary-row UPDATE: tool's display name becomes tool_label
            # at this commit; the redo images keep the PHYSICAL field (column
            # ids are stable under rename — SystemTransaction.cpp:525)
            t_ren = int(n_txn * 0.55)
            rename_scn = int(SCN0 + t_ren * SCN_STRIDE + 3)

    # ---- build flat event arrays (chains + extras) ------------------------
    def col(name):
        parts = [dml[name]] + [e[name] for e in extras]
        return np.concatenate(parts)

    ki, ti, ver = col("ki"), col("ti"), col("ver")
    tblc = col("tbl").astype(np.int64)
    opc, scn, scn_idx = col("op"), col("scn"), col("scn_idx")
    shard, committed, ev_cscn = col("shard"), col("committed"), col("commit_scn")
    n = len(ki)
    import pyarrow.compute as pc
    xid = pa.concat_arrays(
        [_as_array(pc.binary_join_element_wise(
            "x", pc.cast(pa.array(ev_txn), pa.string()), ""))]
        + [_as_array(pa.array(e["xid_arr"], pa.string())) for e in extras])

    # payload values are DETERMINISTIC functions of (key, version, global
    # position), materialized lazily PER CHUNK in chunk_table below: the
    # streamed segment writer (generate_segments) never holds the whole
    # payload in memory — only this integer/bool backbone (~bytes/event).
    # The one rng draw (text padding) happens HERE, at the same point of the
    # rng stream as the prior eager implementation, keeping output identical.
    pad = (rng.integers(0, 120, n) // 6).astype(np.int8)
    role_idx = (ti % 4).astype(np.int8)
    tool_code = (ki * 31 + ti * 7 + ver * 13) % 10
    tool_idx = np.where(tool_code < 3, 5, tool_code % 5).astype(np.int8)
    ev_ts = EPOCH_US + scn * 1_000_000
    post_ddl = (ev_cscn > ddl_scn) if ddl_scn > 0 else np.zeros(n, bool)
    # post-drop redo no longer carries the dropped column at all
    post_drop = (ev_cscn > drop_scn) if drop_scn > 0 else np.zeros(n, bool)
    meta_code = (ki * 17 + ti * 3 + ver * 5) % 4
    meta_populated = post_ddl & ~post_drop & (meta_code < 2)
    meta_idx = np.where(meta_populated, meta_code, 4).astype(np.int8)

    is_i = opc == "I"
    is_u = opc == "U"
    is_d = opc == "D"
    base_bits = S.full_mask(0)
    full_bits = np.where(post_ddl & ~post_drop, S.full_mask(1),
                         base_bits).astype(np.int32)
    mask = full_bits.copy()
    if cfg.partial_images:
        # U events: always text; tool with p=.5 (20% of those explicit-null);
        # role never (fixed per key); tool_meta when populated.
        bit_text = 1 << S.column_bit("text")
        bit_tool = 1 << S.column_bit("tool")
        bit_ts = 1 << S.column_bit("ts")
        bit_meta = 1 << S.column_bit("tool_meta")
        upd_tool = is_u & ((ki + ti + ver) % 2 == 0)
        null_tool = upd_tool & ((ki * 3 + ver) % 5 == 0)
        tool_idx = np.where(null_tool, 5, tool_idx).astype(np.int8)
        m = np.where(is_u, bit_text | bit_ts, full_bits)
        m = np.where(upd_tool, m | bit_tool, m)
        m = np.where(is_u & post_ddl & meta_populated, m | bit_meta, m)
        mask = m.astype(np.int32)

    _filler = pa.array(["lorem " * k for k in range(20)])
    _tools = pa.array([f"tool{k}" for k in range(5)] + [None], pa.string())
    _metas = pa.array([f"meta{k}" for k in range(4)] + [None], pa.string())
    _roles = pa.array(ROLES)
    _specs = pa.array(SPECIAL_SNIPPETS + [""])

    def text_vals(safe: np.ndarray) -> pa.Array:
        """Text at global DML positions ``safe`` — the per-chunk form of the
        old eager ``_make_text`` (special-snippet index keys off the global
        position, so any chunking yields identical values)."""
        filler = _filler.take(pa.array(pad[safe].astype(np.int64)))
        prefix = pc.binary_join_element_wise(
            "conv", pc.cast(pa.array(ki[safe]), pa.string()),
            "-turn", pc.cast(pa.array(ti[safe]), pa.string()),
            "-v", pc.cast(pa.array(ver[safe]), pa.string()), " ", "")
        k = cfg.special_char_every
        if k:
            spec_idx = np.where(safe % k == 0,
                                (safe // k) % len(SPECIAL_SNIPPETS),
                                len(SPECIAL_SNIPPETS))
            spec = _specs.take(pa.array(spec_idx))
            return _as_array(pc.binary_join_element_wise(
                prefix, filler, spec, ""))
        return _as_array(pc.binary_join_element_wise(prefix, filler, ""))

    def role_vals(safe):
        return _roles.take(pa.array(role_idx[safe].astype(np.int64)))

    def tool_vals(safe):
        return _tools.take(pa.array(tool_idx[safe].astype(np.int64)))

    def meta_vals(safe):
        return _metas.take(pa.array(meta_idx[safe].astype(np.int64)))

    # ---- control (B/C/R/DDL) rows, vectorized -----------------------------
    committed_xids = np.char.add("x", np.arange(n_txn).astype("U9")).astype(object)
    parts_scn = [begin_scn, commit_scn]
    parts_idx = [np.zeros(n_txn, np.int64), np.full(n_txn, COMMIT_SCN_IDX, np.int64)]
    parts_shard = [txn_shard, txn_shard]
    parts_xid = [committed_xids, committed_xids]
    parts_op = [np.full(n_txn, "B", dtype="U3"), np.full(n_txn, "C", dtype="U3")]
    for a in aux_txn_arrays:
        m = len(a["xid"])
        parts_scn.append(a["begin"]); parts_idx.append(np.zeros(m, np.int64))
        parts_shard.append(a["shard"]); parts_xid.append(a["xid"])
        parts_op.append(np.full(m, "B", dtype="U3"))
        term = a["end"] >= 0
        if term.any():
            parts_scn.append(a["end"][term])
            parts_idx.append(np.full(int(term.sum()), COMMIT_SCN_IDX, np.int64))
            parts_shard.append(a["shard"][term]); parts_xid.append(a["xid"][term])
            parts_op.append(np.full(int(term.sum()), "R", dtype="U3"))
    c_scn = np.concatenate(parts_scn).astype(np.int64)
    c_idx = np.concatenate(parts_idx)
    c_shard = np.concatenate(parts_shard).astype(np.int16)
    c_xid = np.concatenate(parts_xid)
    c_op = np.concatenate(parts_op)
    c_ddl = np.full(len(c_scn), None, dtype=object)
    c_undo_scn = np.full(len(c_scn), -1, np.int64)
    c_undo_idx = np.full(len(c_scn), -1, np.int64)
    if pr_ctl is not None:
        m_pr = len(pr_ctl["xid"])
        c_scn = np.concatenate([c_scn, pr_ctl["scn"]]).astype(np.int64)
        c_idx = np.concatenate([c_idx, pr_ctl["scn_idx"]])
        c_shard = np.concatenate([c_shard, pr_ctl["shard"]]).astype(np.int16)
        c_xid = np.concatenate([c_xid, pr_ctl["xid"]])
        c_op = np.concatenate([c_op, np.full(m_pr, "PR", dtype="U3")])
        c_ddl = np.concatenate([c_ddl, np.full(m_pr, None, dtype=object)])
        c_undo_scn = np.concatenate([c_undo_scn, pr_ctl["undo_scn"]]).astype(np.int64)
        c_undo_idx = np.concatenate([c_undo_idx, pr_ctl["undo_scn_idx"]]).astype(np.int64)
    ddl_txns = []
    if ddl_scn > 0:
        ddl_txns.append((ddl_scn, "xddl", json.dumps(
            {"add_columns": [{"name": "tool_meta", "type": "string"}]})))
    if drop_scn > 0:
        ddl_txns.append((drop_scn, "xdrop", json.dumps(
            {"drop_columns": ["tool_meta"]})))
    if rename_scn > 0:
        ddl_txns.append((rename_scn, "xrename", json.dumps(
            {"rename_columns": {"tool": "tool_label"}})))
    for d_scn, d_xid, payload in ddl_txns:
        c_scn = np.concatenate([c_scn, [d_scn - 1, d_scn, d_scn]])
        c_idx = np.concatenate([c_idx, [0, 1, COMMIT_SCN_IDX]])
        c_shard = np.concatenate([c_shard, np.zeros(3, np.int16)]).astype(np.int16)
        c_xid = np.concatenate([c_xid, np.array([d_xid] * 3, dtype=object)])
        c_op = np.concatenate([c_op, np.array(["B", "DDL", "C"], dtype="U3")])
        c_ddl = np.concatenate([c_ddl, np.array([None, payload, None], dtype=object)])
        c_undo_scn = np.concatenate([c_undo_scn, np.full(3, -1, np.int64)])
        c_undo_idx = np.concatenate([c_undo_idx, np.full(3, -1, np.int64)])
    nc = len(c_scn)

    def cat(a, b):
        return np.concatenate([a, b])

    all_scn = cat(scn, c_scn)
    all_idx = cat(scn_idx, c_idx)
    all_shard = cat(shard, c_shard)
    all_xid = pa.concat_arrays([xid, _as_array(pa.array(c_xid, pa.string()))])
    all_op = cat(opc, c_op)
    all_ddl = cat(np.full(n, None, dtype=object), c_ddl)
    nan_i32 = np.full(nc, -1, np.int64)
    all_conv = pa.concat_arrays(
        [_as_array(pa.array(np.char.add("conv", ki.astype("U9"))).cast(pa.string())),
         pa.nulls(nc, pa.string())])
    all_turn = cat(ti, nan_i32)
    all_mask = cat(mask.astype(np.int64), np.zeros(nc, np.int64))
    all_ts = cat(ev_ts, EPOCH_US + c_scn * 1_000_000)
    all_undo_scn = cat(np.full(n, -1, np.int64), c_undo_scn)
    all_undo_idx = cat(np.full(n, -1, np.int64), c_undo_idx)
    #: table name per event; control rows read null (last slot)
    tbl_name_arr = pa.array([f"t{k}" for k in range(cfg.n_tables)] + [None],
                            pa.string())
    all_tbl = cat(tblc, np.full(nc, cfg.n_tables, np.int64))

    # ---- chunked assembly in redo-stream order ----------------------------
    # Arrow caps a single (string/struct) Array at 2 GiB and the text column
    # alone exceeds that at bench scales, so the sorted stream materializes
    # in row chunks: numpy computes the global sort order once; chunk_table
    # builds one chunk's payload values on demand (the value closures above)
    # and its struct arrays. generate() concatenates the chunks (small
    # scales); generate_segments() writes each chunk straight to parquet.
    names = [nm for nm, _ in S.payload_columns(S.MAX_SCHEMA_VERSION)]
    types = {nm: t for nm, t in S.payload_columns(S.MAX_SCHEMA_VERSION)}
    N = n + nc

    has_after = np.concatenate([is_i | is_u, np.zeros(nc, bool)])
    has_before = np.concatenate([is_u | is_d, np.zeros(nc, bool)])
    full_mask_arr = np.concatenate([mask.astype(np.int64), np.zeros(nc, np.int64)])
    all_turn_valid = all_turn >= 0

    order = np.lexsort((all_idx, all_scn, all_shard))
    scn_sorted = all_scn[order]
    span = max(1, (int(scn_sorted.max()) - SCN0 + 1) // cfg.segments_per_shard + 1)
    seq_sorted = ((scn_sorted - SCN0).clip(min=0) // span).astype(np.int32)

    def dml_value(src, sel, t):
        """Gather rows `sel` (global indices) from a DML-length source —
        a numpy array, or a callable computing values at given positions."""
        in_dml = sel < n
        safe = np.where(in_dml, sel, 0)
        if callable(src):
            vals = _as_array(src(safe).cast(t))
        else:
            vals = pa.array(src[safe]).cast(t)
        if in_dml.all():
            return vals
        return _as_array(pc.if_else(pa.array(in_dml), vals, pa.nulls(len(sel), t)))

    def chunk_table(lo: int) -> pa.Table:
        sel = order[lo:lo + _ASSEMBLY_CHUNK]
        m = len(sel)
        kids = {
            "role": dml_value(role_vals, sel, pa.string()),
            "text": dml_value(text_vals, sel, pa.string()),
            "tool": dml_value(tool_vals, sel, pa.string()),
            "ts": dml_value(ev_ts, sel, pa.timestamp("us")),
            "tool_meta": dml_value(meta_vals, sel, pa.string()),
        }
        if cfg.partial_images:
            fm = full_mask_arr[sel]
            after_children = [
                _as_array(pc.if_else(pa.array((fm & (1 << S.column_bit(nm))) != 0),
                                     kids[nm], pa.nulls(m, types[nm])))
                for nm in names]
        else:
            after_children = [kids[nm] for nm in names]
        after_arr = pa.StructArray.from_arrays(
            after_children, names=names, mask=pa.array(~has_after[sel]))
        # before image: structurally real (undo-image slot) with null fields —
        # nothing downstream consumes before-values (SURVEY §2.4)
        before_arr = pa.StructArray.from_arrays(
            [pa.nulls(m, types[nm]) for nm in names], names=names,
            mask=pa.array(~has_before[sel]))
        sel_pa = pa.array(sel)
        return pa.table({
            "table_name": _as_array(tbl_name_arr.take(pa.array(all_tbl[sel]))),
            "scn": pa.array(all_scn[sel], pa.int64()),
            "scn_idx": pa.array(all_idx[sel]).cast(pa.int32()),
            "seq": pa.array(seq_sorted[lo:lo + _ASSEMBLY_CHUNK]),
            "shard": pa.array(all_shard[sel], pa.int16()),
            "xid": _as_array(all_xid.take(sel_pa)),
            "op": pa.array(all_op[sel], pa.string()),
            "conv_id": _as_array(all_conv.take(sel_pa)),
            "turn_idx": _as_array(pc.if_else(pa.array(all_turn_valid[sel]),
                                             pa.array(all_turn[sel]).cast(pa.int32()),
                                             pa.nulls(m, pa.int32()))),
            "before": before_arr,
            "after": after_arr,
            "changed_mask": pa.array(full_mask_arr[sel]).cast(pa.int32()),
            "changed_cols": pa.nulls(m, pa.list_(pa.string())),
            "ddl": pa.array(all_ddl[sel], pa.string()),
            "undo_scn": _as_array(pc.if_else(
                pa.array(all_undo_scn[sel] >= 0),
                pa.array(all_undo_scn[sel], pa.int64()),
                pa.nulls(m, pa.int64()))),
            "undo_scn_idx": _as_array(pc.if_else(
                pa.array(all_undo_idx[sel] >= 0),
                pa.array(all_undo_idx[sel]).cast(pa.int32()),
                pa.nulls(m, pa.int32()))),
            "ts": pa.array(all_ts[sel], pa.int64()).cast(pa.timestamp("us")),
        })

    meta = {"ddl_scn": ddl_scn, "drop_scn": drop_scn,
            "rename_scn": rename_scn, "n_txn": n_txn,
            "rows": N}
    return meta, chunk_table


def generate(cfg: GenConfig) -> GenResult:
    """Materialize the whole changelog in RAM (tests / small scales; the
    streamed twin for bench scales is :func:`generate_segments`)."""
    meta, chunk_table = _stream_build(cfg)
    tables = [chunk_table(lo)
              for lo in range(0, meta["rows"], _ASSEMBLY_CHUNK)]
    return GenResult(table=pa.concat_tables(tables), ddl_scn=meta["ddl_scn"],
                     n_committed_txns=meta["n_txn"], config=cfg,
                     drop_scn=meta["drop_scn"])


def generate_segments(cfg: GenConfig, out_dir: str) -> dict:
    """Streamed generate+write: chunks flow straight into per-(shard, seq)
    parquet segment files through ParquetWriter appends, so peak driver
    memory is ONE assembly chunk plus the integer backbone — not the whole
    payload twice (the eager generate+write_segments path measured ~10 GB
    RAM per 4 scale units and aborted at scale 32 / >83 GB; this path lifts
    that test-tooling ceiling, the engine itself always streamed).

    The global order is (shard, scn, scn_idx), so (shard, seq) runs are
    contiguous across the chunk stream and one open writer at a time
    suffices. Returns the stream meta dict (ddl_scn/drop_scn/n_txn/rows)."""
    meta, chunk_table = _stream_build(cfg)
    os.makedirs(out_dir, exist_ok=True)
    state = {"key": None, "writer": None, "tmp": None, "final": None}
    paths: list[str] = []

    def close_current():
        if state["writer"] is not None:
            state["writer"].close()
            os.replace(state["tmp"], state["final"])
            paths.append(state["final"])
            state["writer"] = None

    for lo in range(0, meta["rows"], _ASSEMBLY_CHUNK):
        t = chunk_table(lo)
        sh = t["shard"].to_numpy()
        sq = t["seq"].to_numpy()
        combo = sh.astype(np.int64) * (1 << 32) + sq
        bounds = np.flatnonzero(np.diff(combo)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(combo)]])
        for a, b in zip(starts, ends):
            key = (int(sh[a]), int(sq[a]))
            if key != state["key"]:
                close_current()
                state["key"] = key
                state["final"] = os.path.join(
                    out_dir, f"shard{key[0]:02d}-seg{key[1]:04d}.parquet")
                state["tmp"] = state["final"] + ".tmp"
                state["writer"] = pq.ParquetWriter(state["tmp"], t.schema)
            # modest row groups → finer read splits / row-group pruning
            state["writer"].write_table(t.slice(int(a), int(b - a)),
                                        row_group_size=131_072)
    close_current()
    write_control_sidecars(paths)
    return meta


# ---------------------------------------------------------------------------
# segmented on-disk layout + cache
# ---------------------------------------------------------------------------

def write_segments(res: GenResult, out_dir: str) -> list[str]:
    """Write the changelog as per-(shard, seq) parquet segments — the
    confirmed-progress unit, like an LWN group / archived log file
    (/root/reference/src/parser/Parser.cpp:1403-1439)."""
    os.makedirs(out_dir, exist_ok=True)
    tbl = res.table
    shard = tbl["shard"].to_numpy()
    seq = tbl["seq"].to_numpy()
    # the table is sorted by (shard, scn, scn_idx) and seq is monotone in scn
    # within a shard, so every (shard, seq) segment is a contiguous row range —
    # zero-copy slices (a take on a >2 GiB chunked table overflows offsets)
    combo = shard.astype(np.int64) * (int(seq.max()) + 2) + seq
    boundaries = np.flatnonzero(np.diff(combo)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(combo)]])
    paths = []
    for lo, hi in zip(starts, ends):
        part = tbl.slice(lo, hi - lo)
        p = os.path.join(out_dir,
                         f"shard{shard[lo]:02d}-seg{seq[lo]:04d}.parquet")
        tmp = p + ".tmp"
        # modest row groups → finer read splits / row-group pruning
        pq.write_table(part, tmp, row_group_size=131_072)
        os.replace(tmp, p)
        paths.append(p)
    write_control_sidecars(paths)
    return sorted(paths)


def write_control_sidecars(segment_paths: list[str]) -> list[str]:
    """Per-segment control index: only B/C/R/DDL/PR rows + a precomputed
    xid hash (``schema.control_rows``) — the log format's
    transaction-marker sidecar (analog: the reference persists txn
    positions in checkpoint files instead of re-scanning redo, its
    ``SerializerJson.cpp:62-87``).
    Idempotent: skips sidecars that already exist."""
    out = []
    for p in segment_paths:
        d = os.path.join(os.path.dirname(p), "_ctl")
        os.makedirs(d, exist_ok=True)
        cp = os.path.join(d, os.path.basename(p))
        out.append(cp)
        if os.path.exists(cp):
            continue
        tmp = cp + ".tmp"
        pq.write_table(S.control_rows([p]), tmp)
        os.replace(tmp, cp)
    return out


def ensure_changelog(cfg: GenConfig, root: str = "/tmp/olrx_data") -> str:
    """Generate-once cache: returns a directory of segment parquet files for
    this config (both the Ray pipeline and DuckDB oracle read these bytes)."""
    d = os.path.join(root, f"gen-{cfg.digest()}")
    marker = os.path.join(d, "_COMPLETE")
    if os.path.exists(marker):
        import glob as _g
        write_control_sidecars(sorted(_g.glob(os.path.join(d, "*.parquet"))))
        return d
    os.makedirs(d, exist_ok=True)
    # clear stale partials from an interrupted earlier run (the marker is
    # the completeness gate; files alone prove nothing)
    import glob as _g
    for f in _g.glob(os.path.join(d, "*.parquet")) + \
            _g.glob(os.path.join(d, "*.tmp")):
        os.remove(f)
    m = generate_segments(cfg, d)
    meta = {"config": asdict(cfg), "ddl_scn": m["ddl_scn"],
            "drop_scn": m["drop_scn"],
            "rename_scn": m.get("rename_scn", -1),
            "n_committed_txns": m["n_txn"], "rows": m["rows"]}
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, marker)
    return d


def scale_for_sf_dir(sf_dir: str) -> float:
    """Map a testdata dir like /root/testdata/sf0.01 to a generator scale."""
    base = os.path.basename(os.path.normpath(sf_dir))
    if base.startswith("sf"):
        try:
            return float(base[2:])
        except ValueError:
            pass
    return 0.001
