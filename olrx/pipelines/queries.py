"""Driver-facing query callables + matching DuckDB oracle SQL.

Each query here is one operator/pipeline from SURVEY §2 expressed twice:
once Ray-Data-native (the engine), once as ANSI SQL DuckDB can run over the
*same* generated changelog parquet (`ensure_changelog` caches by config
digest, so both sides read identical bytes). Column names match exactly —
the driver's compare hashes values under sorted column names.
"""

from __future__ import annotations

import glob

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from olrx import schema as S
from olrx.gen import GenConfig, ensure_changelog, scale_for_sf_dir
from olrx.pipelines.replay import ReplayConfig, replay_dataset
from olrx.stages.decode import commit_join, commits_only, load_control


def changelog_paths_for(sf_dir: str) -> list[str]:
    cfg = GenConfig(scale=scale_for_sf_dir(sf_dir))
    d = ensure_changelog(cfg)
    return sorted(glob.glob(d + "/*.parquet"))


def _glob_sql(sf_dir: str) -> str:
    cfg = GenConfig(scale=scale_for_sf_dir(sf_dir))
    return ensure_changelog(cfg) + "/*.parquet"


def _replay_cfg() -> ReplayConfig:
    return ReplayConfig(num_partitions=32)


# ---------------------------------------------------------------------------
# cdc_replay — the flagship: full replay to final table state
# ---------------------------------------------------------------------------

def q_cdc_replay(sf_dir: str) -> rd.Dataset:
    paths = changelog_paths_for(sf_dir)
    return replay_dataset(paths, _replay_cfg()).dataset


def sql_cdc_replay(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}') WHERE op = 'C'
), ev AS (
  SELECT e.conv_id, e.turn_idx, e.op, e.scn, e.scn_idx, c.commit_scn,
         e.after.role AS role, e.after.text AS text, e.after.tool AS tool,
         e.after.ts AS ts, e.after.tool_meta AS tool_meta
  FROM read_parquet('{g}') e
  JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D')
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
), last AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
            ORDER BY commit_scn DESC, scn DESC, scn_idx DESC) AS rn
  FROM ev
)
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, role, text, tool, ts, tool_meta
FROM last WHERE rn = 1 AND op <> 'D'
"""


# ---------------------------------------------------------------------------
# cdc_committed_events — decode stage alone (commit join + image flatten)
# ---------------------------------------------------------------------------

def q_cdc_committed_events(sf_dir: str) -> rd.Dataset:
    from olrx.pipelines.replay import _decoded_events

    paths = changelog_paths_for(sf_dir)
    control = load_control(paths)
    ds = _decoded_events(paths, _replay_cfg(), control)
    from olrx.stages.decode import OP_LETTER

    def finish(t: pa.Table) -> pa.Table:
        t = t.append_column("op", OP_LETTER.take(t["op_code"].combine_chunks().cast(pa.int32())))
        t = t.drop_columns(["part", "changed_mask", "op_code"])
        return t.rename_columns(
            [{"v_role": "role", "v_text": "text", "v_tool": "tool",
              "v_ts": "img_ts", "v_tool_meta": "tool_meta"}.get(c, c)
             for c in t.column_names])

    return ds.map_batches(finish, batch_format="pyarrow")


def sql_cdc_committed_events(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}') WHERE op = 'C'
)
SELECT e.conv_id, CAST(e.turn_idx AS INTEGER) AS turn_idx, e.op,
       c.commit_scn, e.scn, CAST(e.scn_idx AS INTEGER) AS scn_idx,
       e.after.role AS role, e.after.text AS text, e.after.tool AS tool,
       e.after.ts AS img_ts, e.after.tool_meta AS tool_meta
FROM read_parquet('{g}') e JOIN commits c USING (xid)
WHERE e.op IN ('I','U','D')
  AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                  WHERE p.op = 'PR' AND p.xid = e.xid
                    AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
"""


# ---------------------------------------------------------------------------
# cdc_txn_stats — per-transaction lineage (pre-aggregated groupby)
# ---------------------------------------------------------------------------

def q_cdc_txn_stats(sf_dir: str) -> rd.Dataset:
    """Per-transaction lineage. Combiner pattern end-to-end: per-batch
    partial per-op counts (wide → O(#txns-in-batch) rows), a distributed
    ``groupby(xid)`` sum over the partials, and a vectorized finishing
    map — the result stays a Dataset; nothing O(#txns) lands on the driver."""
    paths = changelog_paths_for(sf_dir)
    # coarse blocks: this is a 2-column read feeding per-block partials —
    # Ray's default per-file splitting makes ~100 blocks of ~100 KB whose
    # groupby shuffle is pure task overhead (measured 5 s → 2 s at sf0.1)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    ds = rd.read_parquet(paths, columns=["xid", "op"],
                         override_num_blocks=max(2, cpus // 2))
    op_names = {"I": "n_insert", "U": "n_update", "D": "n_delete",
                "C": "n_commit", "R": "n_rollback",
                "PR": "n_partial_rollback"}

    def partial(t: pa.Table) -> pa.Table:
        # per-batch pivot to one row per xid with per-op count columns —
        # the shuffle moves O(#txns) small rows, never the event stream
        g = t.group_by(["xid", "op"]).aggregate([("op", "count")])
        df = g.to_pandas().pivot_table(index="xid", columns="op",
                                       values="op_count", fill_value=0,
                                       aggfunc="sum")
        cols = {"xid": pa.array(df.index.to_numpy(dtype=object), pa.string())}
        for op, name in op_names.items():
            vals = (df[op].to_numpy() if op in df.columns
                    else np.zeros(len(df)))
            cols[name] = pa.array(vals.astype("int64"), pa.int64())
        return pa.table(cols)

    from ray.data.aggregate import Sum
    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("xid")
             .aggregate(*[Sum(name, alias_name=name)
                          for name in op_names.values()]))

    def finish(t: pa.Table) -> pa.Table:
        nc = t["n_commit"].to_numpy(zero_copy_only=False)
        nr = t["n_rollback"].to_numpy(zero_copy_only=False)
        outcome = np.where(nc > 0, "commit", np.where(nr > 0, "rollback", "open"))
        n_events = pc.add(pc.add(t["n_insert"], t["n_update"]), t["n_delete"])
        return pa.table({
            "xid": t["xid"],
            "n_events": n_events.cast(pa.int64()),
            "n_insert": t["n_insert"].cast(pa.int64()),
            "n_update": t["n_update"].cast(pa.int64()),
            "n_delete": t["n_delete"].cast(pa.int64()),
            "n_partial_rollback": t["n_partial_rollback"].cast(pa.int64()),
            "outcome": pa.array(outcome.astype(object), pa.string()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_cdc_txn_stats(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    return f"""
SELECT xid,
       count(*) FILTER (WHERE op IN ('I','U','D')) AS n_events,
       count(*) FILTER (WHERE op = 'I') AS n_insert,
       count(*) FILTER (WHERE op = 'U') AS n_update,
       count(*) FILTER (WHERE op = 'D') AS n_delete,
       count(*) FILTER (WHERE op = 'PR') AS n_partial_rollback,
       CASE WHEN count(*) FILTER (WHERE op = 'C') > 0 THEN 'commit'
            WHEN count(*) FILTER (WHERE op = 'R') > 0 THEN 'rollback'
            ELSE 'open' END AS outcome
FROM read_parquet('{g}')
GROUP BY xid
"""


# ---------------------------------------------------------------------------
# cdc_shard_watermarks — per-shard progress (RAC watermark inputs)
# ---------------------------------------------------------------------------

def q_cdc_shard_watermarks(sf_dir: str) -> pa.Table:
    """Combiner pattern: per-block partial (shard, max_scn, n_rows) rows —
    O(#shards) each — then a tiny groupby over the partials. Coarse blocks
    (same fix as q_cdc_txn_stats): Ray's default per-file splitting turns a
    2-column scan into ~100 ms-scale tasks whose Aggregate shuffle is pure
    overhead (r2 bench regressed 2.8× without this)."""
    paths = changelog_paths_for(sf_dir)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    ds = rd.read_parquet(paths, columns=["shard", "scn"],
                         override_num_blocks=max(2, cpus // 2))

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("shard").aggregate([("scn", "max"), ("scn", "count")])
        return g.rename_columns(["shard", "max_scn", "n_rows"])

    from ray.data.aggregate import Max, Sum
    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("shard")
             .aggregate(Max("max_scn", alias_name="max_scn"),
                        Sum("n_rows", alias_name="n_rows")))
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)
    return t.cast(pa.schema([("shard", pa.int16()), ("max_scn", pa.int64()),
                             ("n_rows", pa.int64())]))


def sql_cdc_shard_watermarks(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    return f"""
SELECT shard, max(scn) AS max_scn, count(*) AS n_rows
FROM read_parquet('{g}') GROUP BY shard
"""


# ---------------------------------------------------------------------------
# cdc_rollback_audit — anti-join semantics: events of non-committed txns
# ---------------------------------------------------------------------------

def q_cdc_rollback_audit(sf_dir: str) -> pa.Table:
    paths = changelog_paths_for(sf_dir)
    bc_ref = ray.put(load_control(paths).decode_broadcast())

    def fn(t: pa.Table) -> pa.Table:
        dml = t.filter(pc.is_in(t["op"], value_set=pa.array(["I", "U", "D"])))
        # commit lookup only: a PR-undone op of a committed txn is no rollback
        found, _ = commit_join(*S.xid_codes(dml["xid"]), None, None,
                               commits_only(ray.get(bc_ref)))
        dropped = dml.filter(pa.array(~found))
        return dropped.group_by("op").aggregate([("op", "count")]) \
                      .rename_columns(["op", "n"])

    parts = rd.read_parquet(paths, columns=["xid", "op"]) \
              .map_batches(fn, batch_format="pyarrow")
    df = parts.to_pandas().groupby("op", as_index=False)["n"].sum()
    return pa.Table.from_pandas(df, preserve_index=False).cast(
        pa.schema([("op", pa.string()), ("n", pa.int64())]))


def sql_cdc_rollback_audit(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    return f"""
SELECT op, count(*) AS n
FROM read_parquet('{g}') e
WHERE op IN ('I','U','D')
  AND xid NOT IN (SELECT xid FROM read_parquet('{g}') WHERE op = 'C')
GROUP BY op
"""



# ---------------------------------------------------------------------------
# cdc_replay_filtered — §2.6 filters: skip-xid, conv regex, start position
# ---------------------------------------------------------------------------

def _filter_params(sf_dir: str) -> dict:
    """Deterministic filter set shared by the Ray query and the SQL oracle."""
    paths = changelog_paths_for(sf_dir)
    scns = np.sort(load_control(paths).commit_scns())
    start = int(scns[len(scns) // 10])
    return {
        "skip_xids": ("x10", "x11", "x12"),
        "conv_regex": "^conv[0-9]*[02468]$",   # even-numbered conversations
        "start_commit_scn": start,
    }


def q_cdc_replay_filtered(sf_dir: str) -> rd.Dataset:
    paths = changelog_paths_for(sf_dir)
    p = _filter_params(sf_dir)
    cfg = ReplayConfig(num_partitions=32, skip_xids=p["skip_xids"],
                       conv_regex=p["conv_regex"],
                       start_commit_scn=p["start_commit_scn"])
    return replay_dataset(paths, cfg).dataset


def sql_cdc_replay_filtered(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    p = _filter_params(sf_dir)
    skip = ", ".join(f"'{x}'" for x in p["skip_xids"])
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}') WHERE op = 'C'
), ev AS (
  SELECT e.conv_id, e.turn_idx, e.op, e.scn, e.scn_idx, c.commit_scn,
         e.after.role AS role, e.after.text AS text, e.after.tool AS tool,
         e.after.ts AS ts, e.after.tool_meta AS tool_meta
  FROM read_parquet('{g}') e
  JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D')
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
    AND e.xid NOT IN ({skip})
    AND regexp_matches(e.conv_id, '{p["conv_regex"]}')
    AND c.commit_scn > {p["start_commit_scn"]}
), last AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
            ORDER BY commit_scn DESC, scn DESC, scn_idx DESC) AS rn
  FROM ev
)
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, role, text, tool, ts, tool_meta
FROM last WHERE rn = 1 AND op <> 'D'
"""


# ---------------------------------------------------------------------------
# cdc_replay_multitable / cdc_replay_tablefilter — §2.3/§2.6 multi-table
# ---------------------------------------------------------------------------

def _multitable_paths(sf_dir: str) -> tuple[list[str], str]:
    cfg = GenConfig(scale=scale_for_sf_dir(sf_dir), n_tables=2)
    d = ensure_changelog(cfg)
    return sorted(glob.glob(d + "/*.parquet")), d + "/*.parquet"


def q_cdc_replay_multitable(sf_dir: str) -> rd.Dataset:
    """Replay a two-table stream keyed on (table_name, conv_id, turn_idx) —
    the reference's many-tables Schema dictionary
    (/root/reference/src/metadata/Schema.h:119-129,
    tests/sql/inputs/multi-table.sql). The generated stream plants 'twin'
    keys (same conv/turn in both tables) to prove table-aware state."""
    paths, _ = _multitable_paths(sf_dir)
    cfg = ReplayConfig(num_partitions=32, multi_table=True)
    return replay_dataset(paths, cfg).dataset


def _sql_multitable_replay(g: str, table_pred: str = "") -> str:
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}') WHERE op = 'C'
), ev AS (
  SELECT e.table_name, e.conv_id, e.turn_idx, e.op, e.scn, e.scn_idx,
         c.commit_scn,
         e.after.role AS role, e.after.text AS text, e.after.tool AS tool,
         e.after.ts AS ts, e.after.tool_meta AS tool_meta
  FROM read_parquet('{g}') e
  JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D'){table_pred}
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
), last AS (
  SELECT *, row_number() OVER (PARTITION BY table_name, conv_id, turn_idx
            ORDER BY commit_scn DESC, scn DESC, scn_idx DESC) AS rn
  FROM ev
)
SELECT table_name, conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
       role, text, tool, ts, tool_meta
FROM last WHERE rn = 1 AND op <> 'D'
"""


def sql_cdc_replay_multitable(sf_dir: str) -> str:
    _, g = _multitable_paths(sf_dir)
    return _sql_multitable_replay(g)


def q_cdc_replay_tablefilter(sf_dir: str) -> rd.Dataset:
    """Owner/table tracking filter (§2.6,
    /root/reference/src/OpenLogReplicator.cpp:1009-1045): replay only t0."""
    paths, _ = _multitable_paths(sf_dir)
    cfg = ReplayConfig(num_partitions=32, multi_table=True, table_regex="^t0$")
    return replay_dataset(paths, cfg).dataset


def sql_cdc_replay_tablefilter(sf_dir: str) -> str:
    _, g = _multitable_paths(sf_dir)
    return _sql_multitable_replay(
        g, "\n    AND regexp_matches(e.table_name, '^t0$')")


# ---------------------------------------------------------------------------
# cdc_replay_rename — committed column-RENAME DDL mid-stream (§2.8)
# ---------------------------------------------------------------------------

def _rename_paths(sf_dir: str) -> tuple[list[str], str]:
    cfg = GenConfig(scale=scale_for_sf_dir(sf_dir), ddl_rename=True)
    d = ensure_changelog(cfg)
    import glob as _g
    return sorted(_g.glob(d + "/*.parquet")), d + "/*.parquet"


def q_cdc_replay_rename(sf_dir: str) -> rd.Dataset:
    """Replay a stream containing a committed column-RENAME DDL (tool →
    tool_label): a dictionary-row UPDATE — reference
    SystemTransaction::processUpdate (/root/reference/src/builder/
    SystemTransaction.cpp:525). Data and column identity are untouched;
    the final table carries the NEW display name over ALL rows, pre- and
    post-rename values alike."""
    paths, _ = _rename_paths(sf_dir)
    return replay_dataset(paths, _replay_cfg()).dataset


def sql_cdc_replay_rename(sf_dir: str) -> str:
    _, g = _rename_paths(sf_dir)
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}') WHERE op = 'C'
), ev AS (
  SELECT e.conv_id, e.turn_idx, e.op, e.scn, e.scn_idx, c.commit_scn,
         e.after.role AS role, e.after.text AS text,
         e.after.tool AS tool_label,
         e.after.ts AS ts, e.after.tool_meta AS tool_meta
  FROM read_parquet('{g}') e
  JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D')
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
), last AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
            ORDER BY commit_scn DESC, scn DESC, scn_idx DESC) AS rn
  FROM ev
)
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, role, text,
       tool_label, ts, tool_meta
FROM last WHERE rn = 1 AND op <> 'D'
"""


# ---------------------------------------------------------------------------
# cdc_net_changes — consumer-facing net change set between two positions
# ---------------------------------------------------------------------------

def _net_change_bounds(sf_dir: str) -> tuple[int, int]:
    """Deterministic (lo, hi] commit-SCN window — the 25th and 75th
    percentile commit SCNs. The SAME helper feeds the Ray query and the SQL
    oracle, so both sides cut at identical literals."""
    paths = changelog_paths_for(sf_dir)
    scns = load_control(paths).commit_scns()
    k1, k3 = len(scns) // 4, (3 * len(scns)) // 4
    return int(np.partition(scns, k1)[k1]), int(np.partition(scns, k3)[k3])


def q_cdc_net_changes(sf_dir: str) -> rd.Dataset:
    """Net change set between two confirmed positions (lo, hi]: per key the
    LWW-final change — ``upsert`` with the final image, or ``delete``. This
    is the merge feed a downstream consumer applies to move a replica from
    state@lo to state@hi (the reference's writer emits exactly the committed
    changes between two confirmed positions, commit-order,
    /root/reference/src/writer/Writer.cpp:134-138; here collapsed per key).
    Scale shape: both positions prune the read (row-group stats on scn),
    decode drops out-of-window txns via the capped commit lookup, and the
    winner pick is one vectorized lexsort per partition — no global sort."""
    import dataclasses

    paths = changelog_paths_for(sf_dir)
    lo, hi = _net_change_bounds(sf_dir)
    cfg = dataclasses.replace(_replay_cfg(), start_commit_scn=lo,
                              end_commit_scn=hi)
    control = load_control(paths).capped(hi)
    from olrx.pipelines.replay import _decoded_events
    events = _decoded_events(paths, cfg, control)

    return events.groupby("part").map_groups(
        last_per_key, batch_format="pyarrow",
        fn_kwargs={"ddl_scns": tuple(control.ddl_scns),
                   "drops": tuple(zip(control.drop_scns,
                                      control.dropped_columns))})


def last_per_key(g: pa.Table, ddl_scns: tuple = (),
                 drops: tuple = ()) -> pa.Table:
    """The net change of each key in decoded events ``g``: its LWW-final
    event as ``upsert`` with that event's image, or ``delete``.

    The winner's image is emitted as it is, so it must be a full image: a
    partial UPDATE carries only its changed columns, and the others would
    come out null. Raises ``ValueError`` when a winning UPDATE's
    ``changed_mask`` lacks a column its table had at its commit: every base
    column, each additive column whose ADD DDL (``ddl_scns``, in order)
    committed before it, less those a ``(drop_scn, column)`` of ``drops``
    dropped before it."""
    n = g.num_rows
    if n == 0:
        return g

    def as_np(col):
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return col.to_numpy(zero_copy_only=False)

    codes = pc.dictionary_encode(g["conv_id"].combine_chunks()
                                 if isinstance(g["conv_id"], pa.ChunkedArray)
                                 else g["conv_id"])
    if isinstance(codes, pa.ChunkedArray):
        codes = codes.combine_chunks()
    codes = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    turn = as_np(g["turn_idx"]).astype(np.int64)
    cscn = as_np(g["commit_scn"]).astype(np.int64)
    order = np.lexsort((as_np(g["scn_idx"]).astype(np.int64),
                        as_np(g["scn"]).astype(np.int64),
                        cscn, turn, codes))
    codes_s, turn_s = codes[order], turn[order]
    last = np.empty(n, bool)
    last[-1] = True
    last[:-1] = (codes_s[1:] != codes_s[:-1]) | (turn_s[1:] != turn_s[:-1])
    win_idx = order[np.flatnonzero(last)]
    win = pa.array(win_idx)
    opw = g["op_code"].take(win).to_numpy(zero_copy_only=False)
    upd = opw == S.OP_U
    if upd.any():
        wscn, mask = cscn[win_idx][upd], as_np(g["changed_mask"])[win_idx][upd]
        n_add = np.searchsorted(np.asarray(ddl_scns[:S.MAX_SCHEMA_VERSION],
                                           np.int64), wscn, side="left")
        need = (np.int64(1) << (len(S.PAYLOAD_COLUMNS) + n_add)) - 1
        for drop_scn, col in drops:
            need &= np.where(wscn > drop_scn, ~(1 << S.column_bit(col)), -1)
        short = (mask & need) != need
        if short.any():
            i = int(np.flatnonzero(short)[0])
            raise ValueError(
                "cdc_net_changes needs full row images: the winning UPDATE "
                f"of a key at commit SCN {int(wscn[i])} has changed_mask "
                f"{int(mask[i]):#x}, not the full mask {int(need[i]):#x} "
                "(a partial image would emit its unchanged columns as null)")
    out = {
        "conv_id": g["conv_id"].take(win),
        "turn_idx": g["turn_idx"].take(win).cast(pa.int32()),
        "change_op": pa.array(np.where(opw == S.OP_D, "delete", "upsert")),
    }
    for nm, _t in S.payload_columns(S.MAX_SCHEMA_VERSION):
        out[nm] = g[f"v_{nm}"].take(win)
    return pa.table(out)


def sql_cdc_net_changes(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    lo, hi = _net_change_bounds(sf_dir)
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}')
  WHERE op = 'C' AND scn > {lo} AND scn <= {hi}
), ev AS (
  SELECT e.conv_id, e.turn_idx, e.op, e.scn, e.scn_idx, c.commit_scn,
         e.after.role AS role, e.after.text AS text, e.after.tool AS tool,
         e.after.ts AS ts, e.after.tool_meta AS tool_meta
  FROM read_parquet('{g}') e
  JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D')
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
), last AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
            ORDER BY commit_scn DESC, scn DESC, scn_idx DESC) AS rn
  FROM ev
)
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
       CASE WHEN op = 'D' THEN 'delete' ELSE 'upsert' END AS change_op,
       role, text, tool, ts, tool_meta
FROM last WHERE rn = 1
"""


CDC_QUERIES = {
    "cdc_replay": q_cdc_replay,
    "cdc_committed_events": q_cdc_committed_events,
    "cdc_txn_stats": q_cdc_txn_stats,
    "cdc_shard_watermarks": q_cdc_shard_watermarks,
    "cdc_rollback_audit": q_cdc_rollback_audit,
    "cdc_replay_filtered": q_cdc_replay_filtered,
    "cdc_replay_multitable": q_cdc_replay_multitable,
    "cdc_replay_tablefilter": q_cdc_replay_tablefilter,
    "cdc_replay_rename": q_cdc_replay_rename,
    "cdc_net_changes": q_cdc_net_changes,
}

CDC_ORACLES = {
    "cdc_replay": sql_cdc_replay,
    "cdc_committed_events": sql_cdc_committed_events,
    "cdc_txn_stats": sql_cdc_txn_stats,
    "cdc_shard_watermarks": sql_cdc_shard_watermarks,
    "cdc_rollback_audit": sql_cdc_rollback_audit,
    "cdc_replay_filtered": sql_cdc_replay_filtered,
    "cdc_replay_multitable": sql_cdc_replay_multitable,
    "cdc_replay_tablefilter": sql_cdc_replay_tablefilter,
    "cdc_replay_rename": sql_cdc_replay_rename,
    "cdc_net_changes": sql_cdc_net_changes,
}


# ---------------------------------------------------------------------------
# cdc_message_stream — BuilderJson envelope fidelity (§2.2/§2.7)
# ---------------------------------------------------------------------------

def q_cdc_message_stream(sf_dir: str) -> pa.Table:
    """Envelope counts of the reference-shaped message stream: one row with
    begins/commits (= #committed txns), per-op DML messages, ddl and chkpt
    records (golden shape:
    /root/reference/tests/fixtures/expected/example-free-23/output.json)."""
    from olrx.pipelines.emit import message_stream

    paths = changelog_paths_for(sf_dir)
    ds = message_stream(paths, _replay_cfg())

    def partial(t: pa.Table) -> pa.Table:
        ops = pc.struct_field(pc.extract_regex(t["msg"], r'"op": "(?P<op>\w+)"'),
                              "op")
        vc = pc.value_counts(ops.drop_null())
        return pa.table({"mop": vc.field("values").cast(pa.string()),
                         "n": vc.field("counts").cast(pa.int64())})

    from ray.data.aggregate import Sum
    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("mop").aggregate(Sum("n", alias_name="n"))).to_pandas()
    counts = dict(zip(agg["mop"], agg["n"]))
    return pa.table({k: pa.array([int(counts.get(v, 0))], pa.int64())
                     for k, v in [("n_begin", "begin"), ("n_insert_msg", "c"),
                                  ("n_update_msg", "u"), ("n_delete_msg", "d"),
                                  ("n_commit", "commit"), ("n_ddl", "ddl"),
                                  ("n_chkpt", "chkpt")]})


def sql_cdc_message_stream(sf_dir: str) -> str:
    from olrx.pipelines.emit import TXNS_PER_BUCKET
    g = _glob_sql(sf_dir)
    tpb = int(TXNS_PER_BUCKET)
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}') WHERE op = 'C'
), sp AS (
  -- mirrors emit.derived_scn_buckets: buckets = ceil(#commits / {tpb}),
  -- span = max(1, max_commit_scn) // buckets + 1
  SELECT CAST(greatest(1, max(commit_scn)) AS BIGINT) //
         greatest(1, (count(*) + {tpb - 1}) // {tpb}) + 1 AS span
  FROM commits
), dml AS (
  SELECT e.xid, e.op FROM read_parquet('{g}') e
  JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D')
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
), active AS (
  -- reference emits begin lazily on the txn's first output message
  -- (BuilderJson newTran flag), so empty txns produce no envelope
  SELECT DISTINCT xid FROM dml
  UNION
  SELECT DISTINCT e.xid FROM read_parquet('{g}') e
  JOIN commits c USING (xid) WHERE e.op = 'DDL'
), active_commits AS (
  SELECT c.xid, c.commit_scn FROM commits c JOIN active a USING (xid)
)
SELECT (SELECT count(*) FROM active_commits) AS n_begin,
       (SELECT count(*) FROM dml WHERE op = 'I') AS n_insert_msg,
       (SELECT count(*) FROM dml WHERE op = 'U') AS n_update_msg,
       (SELECT count(*) FROM dml WHERE op = 'D') AS n_delete_msg,
       (SELECT count(*) FROM active_commits) AS n_commit,
       (SELECT count(*) FROM read_parquet('{g}') e JOIN commits c USING (xid)
        WHERE e.op = 'DDL') AS n_ddl,
       (SELECT count(DISTINCT commit_scn // (SELECT span FROM sp))
        FROM active_commits) AS n_chkpt
"""


CDC_QUERIES["cdc_message_stream"] = q_cdc_message_stream
CDC_ORACLES["cdc_message_stream"] = sql_cdc_message_stream


# ---------------------------------------------------------------------------
# cdc_replay_startpos / cdc_dump_xid / cdc_replay_txncap — §2.6 extras
# ---------------------------------------------------------------------------

def _startpos_param(sf_dir: str) -> int:
    """Deterministic start-time parameter (epoch µs): the 30th-percentile
    commit timestamp — shared by the Ray query and the SQL oracle."""
    import pyarrow.dataset as pads
    paths = changelog_paths_for(sf_dir)
    t = pads.dataset(paths, format="parquet").to_table(
        columns=["ts"], filter=(pc.field("op") == "C"))
    ts = np.sort(t["ts"].to_numpy().astype("datetime64[us]").astype(np.int64))
    return int(ts[(len(ts) * 3) // 10])


def q_cdc_replay_startpos(sf_dir: str) -> rd.Dataset:
    """Start-time position (reference OpenLogReplicator.cpp:533-558): replay
    only transactions whose commit timestamp ≥ the start time."""
    paths = changelog_paths_for(sf_dir)
    cfg = ReplayConfig(num_partitions=32, start_time_us=_startpos_param(sf_dir))
    return replay_dataset(paths, cfg).dataset


def sql_cdc_replay_startpos(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    us = _startpos_param(sf_dir)
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}')
  WHERE op = 'C' AND ts >= make_timestamp({us})
), ev AS (
  SELECT e.conv_id, e.turn_idx, e.op, e.scn, e.scn_idx, c.commit_scn,
         e.after.role AS role, e.after.text AS text, e.after.tool AS tool,
         e.after.ts AS ts, e.after.tool_meta AS tool_meta
  FROM read_parquet('{g}') e
  JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D')
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
), last AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
            ORDER BY commit_scn DESC, scn DESC, scn_idx DESC) AS rn
  FROM ev
)
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, role, text, tool, ts, tool_meta
FROM last WHERE rn = 1 AND op <> 'D'
"""


_DUMP_XIDS = ("x10", "x11", "rb000000000")


def q_cdc_dump_xid(sf_dir: str) -> rd.Dataset:
    """dump-xid debug path (reference TransactionBuffer.h:87-88 dump list):
    every stream record of the named transactions, fully projected."""
    paths = changelog_paths_for(sf_dir)
    flt = pc.field("xid").isin(list(_DUMP_XIDS))
    ds = rd.read_parquet(paths,
                         columns=["xid", "op", "scn", "scn_idx", "shard",
                                  "conv_id", "turn_idx", "after", "ddl"],
                         filter=flt)

    def flatten(t: pa.Table) -> pa.Table:
        after = t["after"]
        if isinstance(after, pa.ChunkedArray):
            after = after.combine_chunks()
        return pa.table({
            "xid": t["xid"], "op": t["op"], "scn": t["scn"],
            "scn_idx": t["scn_idx"].cast(pa.int32()),
            "shard": t["shard"].cast(pa.int16()),
            "conv_id": t["conv_id"], "turn_idx": t["turn_idx"].cast(pa.int32()),
            "text": pc.struct_field(after, "text"),
            "ddl": t["ddl"],
        })

    return ds.map_batches(flatten, batch_format="pyarrow")


def sql_cdc_dump_xid(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    lst = ", ".join(f"'{x}'" for x in _DUMP_XIDS)
    return f"""
SELECT xid, op, scn, CAST(scn_idx AS INTEGER) AS scn_idx, shard,
       conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
       after.text AS text, ddl
FROM read_parquet('{g}') WHERE xid IN ({lst})
"""


def q_cdc_replay_txncap(sf_dir: str, cap: int = 20) -> rd.Dataset:
    """Big-transaction guard (reference transaction-max-mb,
    Transaction.cpp:519-538): txns with more than ``cap`` DML events in the
    stream are dropped entirely."""
    paths = changelog_paths_for(sf_dir)
    cfg = ReplayConfig(num_partitions=32, txn_max_events=cap)
    return replay_dataset(paths, cfg).dataset


def sql_cdc_replay_txncap(sf_dir: str, cap: int = 20) -> str:
    g = _glob_sql(sf_dir)
    return f"""
WITH big AS (
  SELECT xid FROM read_parquet('{g}')
  WHERE op IN ('I','U','D') GROUP BY xid HAVING count(*) > {cap}
), commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}')
  WHERE op = 'C' AND xid NOT IN (SELECT xid FROM big)
), ev AS (
  SELECT e.conv_id, e.turn_idx, e.op, e.scn, e.scn_idx, c.commit_scn,
         e.after.role AS role, e.after.text AS text, e.after.tool AS tool,
         e.after.ts AS ts, e.after.tool_meta AS tool_meta
  FROM read_parquet('{g}') e
  JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D')
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
), last AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
            ORDER BY commit_scn DESC, scn DESC, scn_idx DESC) AS rn
  FROM ev
)
SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx, role, text, tool, ts, tool_meta
FROM last WHERE rn = 1 AND op <> 'D'
"""


for _n, _q, _s in [("cdc_replay_startpos", q_cdc_replay_startpos, sql_cdc_replay_startpos),
                   ("cdc_dump_xid", q_cdc_dump_xid, sql_cdc_dump_xid),
                   ("cdc_replay_txncap", q_cdc_replay_txncap, sql_cdc_replay_txncap)]:
    CDC_QUERIES[_n] = _q
    CDC_ORACLES[_n] = _s


# ---------------------------------------------------------------------------
# cdc_metrics — lineage counter surface over the lake manifests (§2.5)
# ---------------------------------------------------------------------------

def q_cdc_metrics(sf_dir: str) -> pa.Table:
    """End-to-end metrics validation (reference dml_ops / transactions
    counters, /root/reference/src/common/metrics/Metrics.h): replay the
    changelog to a fresh lake, then aggregate the per-partition manifest
    counters — which the exchange records at RECEIVE time, before any fold
    — into one row. The oracle recomputes the same totals from the raw
    stream in SQL, so a counter that drifts from the event stream (e.g.
    compaction folding events away before counting) fails the hash check."""
    import shutil as _shutil

    from olrx.pipelines.replay import replay_to_lake
    from olrx.state.metrics import lake_metrics

    paths = changelog_paths_for(sf_dir)
    out = f"/tmp/olrx_data/metrics-lake-{scale_for_sf_dir(sf_dir)}"
    _shutil.rmtree(out, ignore_errors=True)
    replay_to_lake(paths, out, _replay_cfg())
    m = lake_metrics(out)
    c = m.counters
    return pa.table({
        "rows": pa.array([m.rows], pa.int64()),
        "n_events": pa.array([c.get("events", 0)], pa.int64()),
        "n_insert": pa.array([c.get("inserts", 0)], pa.int64()),
        "n_update": pa.array([c.get("updates", 0)], pa.int64()),
        "n_delete": pa.array([c.get("deletes", 0)], pa.int64()),
    })


def sql_cdc_metrics(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}') WHERE op = 'C'
), ev AS (
  SELECT e.conv_id, e.turn_idx, e.op, e.scn, e.scn_idx, c.commit_scn
  FROM read_parquet('{g}') e JOIN commits c USING (xid)
  WHERE e.op IN ('I','U','D')
    AND NOT EXISTS (SELECT 1 FROM read_parquet('{g}') p
                    WHERE p.op = 'PR' AND p.xid = e.xid
                      AND p.undo_scn = e.scn AND p.undo_scn_idx = e.scn_idx)
), last AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
            ORDER BY commit_scn DESC, scn DESC, scn_idx DESC) AS rn
  FROM ev
)
SELECT (SELECT count(*) FROM last WHERE rn = 1 AND op <> 'D') AS rows,
       (SELECT count(*) FROM ev) AS n_events,
       (SELECT count(*) FROM ev WHERE op = 'I') AS n_insert,
       (SELECT count(*) FROM ev WHERE op = 'U') AS n_update,
       (SELECT count(*) FROM ev WHERE op = 'D') AS n_delete
"""


CDC_QUERIES["cdc_metrics"] = q_cdc_metrics
CDC_ORACLES["cdc_metrics"] = sql_cdc_metrics


# ---------------------------------------------------------------------------
# cdc_validate — block-verifier surface (§2.1 SegmentValidator)
# ---------------------------------------------------------------------------

def q_cdc_validate(sf_dir: str) -> rd.Dataset:
    """Per-(shard, seq) segment validation report (reference block verifier,
    /root/reference/src/reader/Reader.cpp:110-181, re-scoped to the semantic
    checks parquet doesn't already make): row/DML/control counts, scn range,
    and violation counters for the SegmentValidator invariants (DML rows
    with null keys, I/U rows without an after-image). Combiner pattern:
    per-batch partials → small groupby."""
    paths = changelog_paths_for(sf_dir)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    ds = rd.read_parquet(paths,
                         columns=["op", "conv_id", "turn_idx", "after",
                                  "shard", "seq", "scn"],
                         override_num_blocks=max(2, cpus // 2))

    def partial(t: pa.Table) -> pa.Table:
        op = t["op"]
        is_dml = pc.is_in(op, value_set=pa.array(["I", "U", "D"]))
        is_iu = pc.is_in(op, value_set=pa.array(["I", "U"]))
        bad_key = pc.and_(is_dml, pc.or_(pc.is_null(t["conv_id"]),
                                         pc.is_null(t["turn_idx"])))
        bad_img = pc.and_(is_iu, pc.is_null(t["after"]))
        g = pa.table({
            "shard": t["shard"].cast(pa.int32()),
            "seq": t["seq"].cast(pa.int32()),
            "n_rows": pa.array(np.ones(t.num_rows, np.int64)),
            "n_dml": is_dml.cast(pa.int64()),
            "scn_min": t["scn"], "scn_max": t["scn"],
            "n_bad_key": bad_key.cast(pa.int64()),
            "n_bad_image": bad_img.cast(pa.int64()),
        }).group_by(["shard", "seq"]).aggregate(
            [("n_rows", "sum"), ("n_dml", "sum"), ("scn_min", "min"),
             ("scn_max", "max"), ("n_bad_key", "sum"), ("n_bad_image", "sum")])
        return g.rename_columns(["shard", "seq", "n_rows", "n_dml",
                                 "scn_min", "scn_max", "n_bad_key",
                                 "n_bad_image"])

    from ray.data.aggregate import Max, Min, Sum
    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["shard", "seq"])
             .aggregate(Sum("n_rows", alias_name="n_rows"),
                        Sum("n_dml", alias_name="n_dml"),
                        Min("scn_min", alias_name="scn_min"),
                        Max("scn_max", alias_name="scn_max"),
                        Sum("n_bad_key", alias_name="n_bad_key"),
                        Sum("n_bad_image", alias_name="n_bad_image")))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "shard": t["shard"].cast(pa.int32()),
            "seq": t["seq"].cast(pa.int32()),
            "n_rows": t["n_rows"].cast(pa.int64()),
            "n_dml": t["n_dml"].cast(pa.int64()),
            "scn_min": t["scn_min"].cast(pa.int64()),
            "scn_max": t["scn_max"].cast(pa.int64()),
            "n_bad_key": t["n_bad_key"].cast(pa.int64()),
            "n_bad_image": t["n_bad_image"].cast(pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def sql_cdc_validate(sf_dir: str) -> str:
    g = _glob_sql(sf_dir)
    return f"""
SELECT CAST(shard AS INTEGER) AS shard, CAST(seq AS INTEGER) AS seq,
       count(*) AS n_rows,
       count(*) FILTER (WHERE op IN ('I','U','D')) AS n_dml,
       min(scn) AS scn_min, max(scn) AS scn_max,
       count(*) FILTER (WHERE op IN ('I','U','D')
                        AND (conv_id IS NULL OR turn_idx IS NULL)) AS n_bad_key,
       count(*) FILTER (WHERE op IN ('I','U')
                        AND after IS NULL) AS n_bad_image
FROM read_parquet('{g}')
GROUP BY shard, seq
"""


CDC_QUERIES["cdc_validate"] = q_cdc_validate
CDC_ORACLES["cdc_validate"] = sql_cdc_validate


# ---------------------------------------------------------------------------
# cdc_corpus_stats — the composed story: CDC replay feeds corpus analytics
# ---------------------------------------------------------------------------

def q_cdc_corpus_stats(sf_dir: str) -> rd.Dataset:
    """Per-conversation corpus scorecard over the REPLAYED lake state —
    the packing-prep statistics a training pipeline derives straight from
    CDC output (turn/char/tool-call/role counts per conversation). One
    streaming flow: replay exchange → per-batch source-keyed partials →
    one conv-keyed groupby; nothing but the replay's own exchange plus one
    combiner-pattern aggregate, and the result is #convs rows."""
    from ray.data.aggregate import Sum

    ds = q_cdc_replay(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "conv_id": t["conv_id"].to_pandas(),
            "n_turns": 1,
            "total_chars": t["text"].to_pandas().fillna("").str.len()
                                                .to_numpy(np.int64),
            "n_tool_calls": t["tool"].is_valid().to_numpy(
                zero_copy_only=False).astype(np.int64),
            "n_user": (t["role"].to_pandas() == "user").to_numpy(np.int64),
            "n_assistant": (t["role"].to_pandas() == "assistant")
                                .to_numpy(np.int64),
        })
        g = df.groupby("conv_id", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("conv_id")
             .aggregate(Sum("n_turns", alias_name="n_turns"),
                        Sum("total_chars", alias_name="total_chars"),
                        Sum("n_tool_calls", alias_name="n_tool_calls"),
                        Sum("n_user", alias_name="n_user"),
                        Sum("n_assistant", alias_name="n_assistant")))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({c: t[c].cast(pa.int64()) if c != "conv_id" else t[c]
                         for c in t.column_names})

    return out.map_batches(finish, batch_format="pyarrow")


def sql_cdc_corpus_stats(sf_dir: str) -> str:
    rep = sql_cdc_replay(sf_dir)
    return f"""
WITH rep AS ({rep})
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS total_chars,
       CAST(sum(CASE WHEN tool IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_tool_calls,
       CAST(sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT) AS n_user,
       CAST(sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS BIGINT) AS n_assistant
FROM rep GROUP BY conv_id
"""


CDC_QUERIES["cdc_corpus_stats"] = q_cdc_corpus_stats
CDC_ORACLES["cdc_corpus_stats"] = sql_cdc_corpus_stats


# ---------------------------------------------------------------------------
# cdc_stream_ingest — consumer-side source: NDJSON message stream → table
# ---------------------------------------------------------------------------

def _stream_dir_for(sf_dir: str) -> str:
    """Materialize (once, cached beside the generated changelog) the
    reference-shaped NDJSON message stream for this scale. The writer is
    rerun-safe (atomic renames, deterministic per-bucket names); the cache
    is keyed on a ``_SUCCESS`` sentinel written AFTER the full stream lands
    (per-file atomicity is not per-run atomicity: an interrupted write
    leaves a partial file set that a bare glob would silently replay)."""
    import json
    import os

    from olrx.pipelines.emit import write_message_stream

    cfg = GenConfig(scale=scale_for_sf_dir(sf_dir))
    d = ensure_changelog(cfg)
    stream_dir = d.rstrip("/") + "_stream"
    sentinel = os.path.join(stream_dir, "_SUCCESS")
    if not os.path.exists(sentinel):
        # rebuild from scratch: stale partials from an interrupted run must
        # not survive into the fresh stream
        for f in glob.glob(stream_dir + "/*.ndjson"):
            os.remove(f)
        n = write_message_stream(sorted(glob.glob(d + "/*.parquet")),
                                 stream_dir, _replay_cfg())
        tmp = sentinel + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"messages": n}, f)
        os.rename(tmp, sentinel)
    return stream_dir


def q_cdc_stream_ingest(sf_dir: str) -> rd.Dataset:
    """Replay the engine's own reference-shaped NDJSON message stream back
    to final table state — the consumer/migration path (a user fed by the
    reference's JSON output rebuilds the table with this engine alone:
    WriterFile output as a SOURCE, /root/reference/src/writer/WriterFile.cpp).
    Full streaming flow: read_text → vectorized pyarrow-JSON parse →
    conv-hash partitioned LWW winner select. Verified against the SAME SQL
    oracle as `cdc_replay`: two entirely different input formats and code
    paths, one answer."""
    from olrx.pipelines.emit import replay_message_stream

    return replay_message_stream(_stream_dir_for(sf_dir), _replay_cfg())


def sql_cdc_stream_ingest(sf_dir: str) -> str:
    return sql_cdc_replay(sf_dir)


CDC_QUERIES["cdc_stream_ingest"] = q_cdc_stream_ingest
CDC_ORACLES["cdc_stream_ingest"] = sql_cdc_stream_ingest


# ---------------------------------------------------------------------------
# cdc_time_travel — snapshot retention + SCN as-of read (§2.7
# keep-checkpoints / Checkpoint.cpp retention, re-expressed as a lake op)
# ---------------------------------------------------------------------------

from olrx.pipelines.timetravel import (q_cdc_time_travel,  # noqa: E402
                                       sql_cdc_time_travel)

CDC_QUERIES["cdc_time_travel"] = q_cdc_time_travel
CDC_ORACLES["cdc_time_travel"] = sql_cdc_time_travel
