"""JSON message-stream emitter — the BuilderJson / WriterFile analog.

The reference's primary output is a newline-delimited JSON stream of
transaction envelopes: a ``begin`` message, one message per DML op carrying
``schema`` / ``rid`` / ``before`` / ``after`` images, a ``commit`` message,
plus ``ddl`` and ``chkpt`` records
(/root/reference/src/builder/BuilderJson.cpp:452-688, golden sample
/root/reference/tests/fixtures/expected/example-free-23/output.json). The
north-rule target here is the lake table; this emitter provides the stream
form for consumers that want reference-shaped messages (WriterFile analog,
/root/reference/src/writer/WriterFile.cpp:56-321).

Unlike the lake path, messages carry the UNDO image too: ``u`` and ``d``
payloads embed ``before`` (reference values matrix,
/root/reference/src/builder/Builder.h:153-158) so a downstream CDC consumer
can do its own merge.

Partitioned by commit-SCN range (not by conv), so each output file is a
contiguous, internally ordered slice of the global commit order — the
closest distributed equivalent of the reference's single totally-ordered
stream; one ``chkpt`` message closes every bucket (the checkpoint record,
BuilderJson.cpp:680). Consumers needing the total order read files in range
order.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from olrx import schema as S
from olrx.ops.scaling import coarse_read_blocks
from olrx.pipelines.replay import ReplayConfig
from olrx.schema import xid_codes
from olrx.stages.decode import commit_join, load_control
from olrx.stages.partition import partition_ids

#: payload columns read for the message stream (keeps before AND after)
MESSAGE_COLUMNS = ["scn", "scn_idx", "xid", "op", "conv_id", "turn_idx",
                   "before", "after", "changed_mask", "ddl", "table_name"]

_COMMIT_IDX = 1 << 30
_CHKPT_IDX = (1 << 30) + 1

#: committed txns per output bucket (≈10 messages/txn → ~200k messages and
#: tens of MB of NDJSON per bucket/file — the reference's max-file-size
#: rotation analog, /root/reference/src/writer/WriterFile.cpp:203-300)
TXNS_PER_BUCKET = 20_000


def derived_scn_buckets(n_txns: int, txns_per_bucket: int = TXNS_PER_BUCKET) -> int:
    """Input-sized bucket count: one ``map_groups`` task materializes one
    bucket, so a FIXED bucket count means bucket size grows linearly with the
    input (1/64th of 10^10 events in one worker = OOM). Derived from the
    committed-txn count — known exactly on both the Ray side (commit
    lookup) and the SQL oracle side (``count(*) FROM commits``) so chkpt
    counts agree."""
    return max(1, (int(n_txns) + txns_per_bucket - 1) // txns_per_bucket)


def _jstr(col):
    """Polars expr: JSON-encode a string column INCLUDING quotes/escapes,
    vectorized. Wrapping in a 1-field struct reuses the (Rust) JSON writer
    for escaping; the '{"v":' prefix and '}' suffix are then stripped.
    Null → the 4-char literal ``null``."""
    import polars as pl
    return (pl.struct(v=col).struct.json_encode()
            .str.slice(5).str.strip_suffix("}"))


def message_stream(paths: list[str], cfg: ReplayConfig | None = None,
                   scn_buckets: int | None = None,
                   txns_per_bucket: int = TXNS_PER_BUCKET) -> rd.Dataset:
    """Dataset of one JSON envelope line per message, reference-shaped:
    begin / DML (with before+after) / commit per txn, ddl records, and one
    chkpt per commit-SCN bucket. Ordered within each bucket by
    (commit_scn, kind, scn, scn_idx). ``scn_buckets=None`` (default) sizes
    the bucket count to the input via ``derived_scn_buckets``."""
    cfg = cfg or ReplayConfig()
    control = load_control(paths)
    broadcast = control.decode_broadcast()
    if scn_buckets is None:
        scn_buckets = derived_scn_buckets(len(broadcast[0]), txns_per_bucket)
    lo, hi = 0, max(1, control.max_commit_scn)
    span = max(1, (hi - lo) // scn_buckets + 1)
    bc_ref = ray.put(broadcast)

    payload_cols = [n for n, _ in S.payload_columns(S.MAX_SCHEMA_VERSION)]

    def decode_keep_images(t: pa.Table) -> pa.Table:
        """Commit-join keeping BOTH images + op letter; PR ops dropped."""
        keep_ops = pa.array(["I", "U", "D", "DDL"])
        ev = t.filter(pc.is_in(t["op"], value_set=keep_ops))
        if ev.num_rows == 0:
            return _empty_decoded()
        found, commit_scn = commit_join(
            *xid_codes(ev["xid"]), ev["scn"].to_numpy(zero_copy_only=False),
            ev["scn_idx"].to_numpy(zero_copy_only=False), ray.get(bc_ref))
        if not found.all():
            ev = ev.take(pa.array(np.flatnonzero(found)))
            commit_scn = commit_scn[found]
        if ev.num_rows == 0:
            return _empty_decoded()
        bucket = ((commit_scn - lo) // span).astype(np.int32)
        return pa.table({
            "scn_bucket": pa.array(bucket),
            "commit_scn": pa.array(commit_scn, pa.int64()),
            "scn": ev["scn"], "scn_idx": ev["scn_idx"].cast(pa.int64()),
            "xid": ev["xid"], "op": ev["op"],
            "table_name": ev["table_name"],
            "conv_id": ev["conv_id"], "turn_idx": ev["turn_idx"],
            "before": ev["before"], "after": ev["after"],
            "changed_mask": ev["changed_mask"],
            "ddl": ev["ddl"],
        })

    def _empty_decoded() -> pa.Table:
        img = S.image_struct(S.MAX_SCHEMA_VERSION)
        return pa.table({
            "scn_bucket": pa.array([], pa.int32()),
            "commit_scn": pa.array([], pa.int64()),
            "scn": pa.array([], pa.int64()), "scn_idx": pa.array([], pa.int64()),
            "xid": pa.array([], pa.string()), "op": pa.array([], pa.string()),
            "table_name": pa.array([], pa.string()),
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "before": pa.array([], img), "after": pa.array([], img),
            "changed_mask": pa.array([], pa.int32()),
            "ddl": pa.array([], pa.string()),
        })

    def to_messages(g: pa.Table) -> pa.Table:
        """One bucket → envelope lines, fully vectorized (polars JSON writer
        for the images and string escaping; no per-row Python). Synthesizes
        begin/commit per txn in the bucket (a txn's DMLs all share its
        commit_scn, hence its bucket) and a closing chkpt
        (BuilderJson.cpp:680)."""
        import polars as pl

        bucket = int(g["scn_bucket"][0].as_py())
        order = pc.sort_indices(
            g, sort_keys=[("commit_scn", "ascending"), ("xid", "ascending"),
                          ("scn", "ascending"), ("scn_idx", "ascending")])
        g = g.take(order).combine_chunks()
        n = g.num_rows
        cscn = g["commit_scn"].to_numpy()
        xid_np = np.asarray(g["xid"].to_numpy(zero_copy_only=False), object)
        new_txn = np.empty(n, bool)
        new_txn[0] = True
        new_txn[1:] = (cscn[1:] != cscn[:-1]) | (xid_np[1:] != xid_np[:-1])
        txn_starts = np.flatnonzero(new_txn)
        t_of = np.cumsum(new_txn) - 1
        c_idx = np.arange(n) - txn_starts[t_of] + 1   # 1..n within each txn

        df = pl.from_arrow(g.select(
            ["op", "table_name", "conv_id", "turn_idx", "before", "after",
             "ddl", "scn"]))
        df = df.with_columns(
            pl.Series("c_scn", cscn),
            pl.Series("c_idx", c_idx),
            pl.Series("xid", xid_np, dtype=pl.Utf8),
        )
        lit = pl.lit
        opj = (pl.when(pl.col("op") == "I").then(lit('"c"'))
                 .when(pl.col("op") == "U").then(lit('"u"'))
                 .otherwise(lit('"d"')))
        rid = pl.concat_str([pl.col("conv_id"), lit("/"),
                             pl.col("turn_idx").cast(pl.Utf8)])
        dml_body = pl.concat_str([
            lit('{"op": '), opj,
            lit(', "schema": {"owner": "OLR", "table": '),
            _jstr(pl.col("table_name")), lit('}, "rid": '), _jstr(rid),
            # undo image on u/d (Builder.h:153-158; BuilderJson appendBefore)
            pl.when(pl.col("op").is_in(["U", "D"]))
              .then(pl.concat_str([lit(', "before": '),
                                   pl.col("before").struct.json_encode()]))
              .otherwise(lit("")),
            pl.when(pl.col("op").is_in(["I", "U"]))
              .then(pl.concat_str([lit(', "after": '),
                                   pl.col("after").struct.json_encode()]))
              .otherwise(lit("")),
            lit("}"),
        ])
        ddl_body = pl.concat_str([lit('{"op": "ddl", "sql": '),
                                  _jstr(pl.col("ddl")), lit("}")])
        body = pl.when(pl.col("op") == "DDL").then(ddl_body).otherwise(dml_body)
        msg = pl.concat_str([
            lit('{"c_scn": '), pl.col("c_scn").cast(pl.Utf8),
            lit(', "c_idx": '), pl.col("c_idx").cast(pl.Utf8),
            lit(', "xid": '), _jstr(pl.col("xid")),
            lit(', "scn": '), pl.col("scn").cast(pl.Utf8),
            lit(', "payload": ['), body, lit("]}"),
        ])
        ev = df.select(pl.col("c_scn"),
                       pl.col("c_idx").alias("order_idx"),
                       msg.alias("msg"))

        # begin/commit envelopes: one pair per txn, built over txn arrays
        t_scn = cscn[txn_starts]
        t_events = np.diff(np.append(txn_starts, n))
        tdf = pl.DataFrame({
            "c_scn": t_scn,
            "xid": pl.Series(list(xid_np[txn_starts]), dtype=pl.Utf8),
            "n_ev": t_events,
        })
        xj = _jstr(pl.col("xid"))
        begin = tdf.select(
            pl.col("c_scn"),
            pl.lit(0).cast(pl.Int64).alias("order_idx"),
            pl.concat_str([lit('{"c_scn": '), pl.col("c_scn").cast(pl.Utf8),
                           lit(', "c_idx": 0, "xid": '), xj,
                           lit(', "payload": [{"op": "begin"}]}')]).alias("msg"))
        commit = tdf.select(
            pl.col("c_scn"),
            pl.lit(_COMMIT_IDX).cast(pl.Int64).alias("order_idx"),
            pl.concat_str([lit('{"c_scn": '), pl.col("c_scn").cast(pl.Utf8),
                           lit(', "c_idx": '),
                           (pl.col("n_ev") + 1).cast(pl.Utf8),
                           lit(', "xid": '), xj,
                           lit(', "payload": [{"op": "commit"}]}')]).alias("msg"))

        # checkpoint record closing the bucket
        max_scn = int(cscn[-1])
        chk = json.dumps({"c_scn": max_scn, "payload": [
            {"op": "chkpt", "seq": bucket, "scn": max_scn}]})
        chkpt = pl.DataFrame({"c_scn": [max_scn],
                              "order_idx": [_CHKPT_IDX], "msg": [chk]})
        chkpt = chkpt.with_columns(pl.col("c_scn").cast(pl.Int64),
                                   pl.col("order_idx").cast(pl.Int64))

        # maintain_order: inputs are already xid-ordered within commit_scn
        # (the Arrow sort above / txn_starts order), so a stable sort keeps
        # the tie interleaving of equal (c_scn, order_idx) rows byte-for-byte
        # reproducible across runs (polars default is non-stable)
        out = (pl.concat([begin, ev, commit, chkpt])
                 .sort(["c_scn", "order_idx"], maintain_order=True)
                 .with_columns(pl.lit(bucket).cast(pl.Int32)
                               .alias("scn_bucket")))
        return (out.select(["c_scn", "order_idx", "scn_bucket", "msg"])
                   .to_arrow())

    ds = rd.read_parquet(paths, columns=MESSAGE_COLUMNS,
                         override_num_blocks=coarse_read_blocks())
    return (ds.map_batches(decode_keep_images, batch_format="pyarrow",
                           batch_size=cfg.batch_size)
              .groupby("scn_bucket")
              .map_groups(to_messages, batch_format="pyarrow"))


def write_message_stream(paths: list[str], out_dir: str,
                         cfg: ReplayConfig | None = None) -> int:
    """NDJSON sink (WriterFile analog,
    /root/reference/src/writer/WriterFile.cpp:203-300): RAW reference-shaped
    envelope lines — a Debezium-style consumer reads them as-is, no wrapper
    object. One file per bucket block, named by its first (c_scn, order_idx)
    so names are deterministic and rotation (multiple files per bucket when
    a block splits) stays collision-free."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    ds = message_stream(paths, cfg)

    def dump(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        # a map_batches batch can span a bucket boundary: split on bucket
        # changes so every file holds exactly one bucket's lines (the
        # one-file-per-bucket contract in the module docstring)
        bk = t["scn_bucket"].to_numpy(zero_copy_only=False)
        cuts = np.flatnonzero(bk[1:] != bk[:-1]) + 1
        total = 0
        for seg in np.split(np.arange(t.num_rows), cuts):
            s = t.slice(int(seg[0]), len(seg))
            b = int(bk[seg[0]])
            first_scn = int(s["c_scn"][0].as_py())
            first_idx = int(s["order_idx"][0].as_py())
            # zero-padded so lexicographic filename order == (c_scn,
            # order_idx) range order across digit-count changes
            name = f"part-{b:05d}-{first_scn:020d}-{first_idx:012d}.ndjson"
            body = "\n".join(s["msg"].to_pylist()) + "\n"
            tmp = os.path.join(out_dir, "." + name + ".tmp")
            with open(tmp, "w") as f:
                f.write(body)
            os.rename(tmp, os.path.join(out_dir, name))  # atomic, rerun-safe
            total += s.num_rows
        return pa.table({"n": pa.array([total], pa.int64())})

    parts = ds.map_batches(dump, batch_format="pyarrow").take_all()
    return int(sum(r["n"] for r in parts))


#: explicit Arrow schema for parsing the NDJSON stream back — inference
#: per batch would disagree across blocks (begin/commit/chkpt lack fields)
def _stream_schema() -> "pa.Schema":
    img = pa.struct([("role", pa.string()), ("text", pa.string()),
                     ("tool", pa.string()), ("ts", pa.string()),
                     ("tool_meta", pa.string())])
    body = pa.struct([("op", pa.string()),
                      ("schema", pa.struct([("owner", pa.string()),
                                            ("table", pa.string())])),
                      ("rid", pa.string()),
                      ("before", img), ("after", img),
                      ("sql", pa.string()), ("seq", pa.int64()),
                      ("scn", pa.int64())])
    return pa.schema([("c_scn", pa.int64()), ("c_idx", pa.int64()),
                      ("xid", pa.string()), ("scn", pa.int64()),
                      ("payload", pa.list_(body))])


def read_message_stream(stream_dir: str,
                        cfg: ReplayConfig | None = None) -> rd.Dataset:
    """Source for a reference-shaped NDJSON message stream (the inverse of
    `write_message_stream`): Dataset of flattened DML change events
    (conv_id, turn_idx, op c/u/d, c_scn, xid, scn, c_idx, after image
    columns).
    Vectorized: each batch of raw lines is parsed by pyarrow's JSON reader
    under an explicit schema (no per-line json.loads), begin/commit/chkpt/
    ddl envelopes are dropped, and the after-image struct is flattened to
    columns with ``ts`` cast from its JSON string form."""
    import glob as _glob

    import pyarrow.json as paj

    cfg = cfg or ReplayConfig()
    files = sorted(_glob.glob(os.path.join(stream_dir, "*.ndjson")))
    if not files:
        raise FileNotFoundError(
            f"no *.ndjson files in stream dir {stream_dir!r}")
    lines = rd.read_text(files)
    schema = _stream_schema()

    def _empty_events() -> pa.Table:
        return pa.table({
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "op": pa.array([], pa.string()),
            "c_scn": pa.array([], pa.int64()),
            "xid": pa.array([], pa.string()),
            "scn": pa.array([], pa.int64()),
            "c_idx": pa.array([], pa.int64()),
            "role": pa.array([], pa.string()),
            "text": pa.array([], pa.string()),
            "tool": pa.array([], pa.string()),
            "ts": pa.array([], pa.timestamp("us")),
            "tool_meta": pa.array([], pa.string()),
        })

    def parse(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_events()
        # Arrow-native line join: one list-wrap + binary_join builds the
        # NDJSON buffer zero-copy off the Python heap (was a per-line
        # to_pylist + str.join — batch-bounded but pure Python)
        col = t["text"].combine_chunks()
        lst = pa.ListArray.from_arrays(
            pa.array([0, len(col)], pa.int32()), col)
        joined = pc.binary_join(lst, "\n")
        nbytes = pc.binary_length(joined)[0].as_py()
        buf = joined.buffers()[2].slice(0, nbytes)
        tab = paj.read_json(
            pa.BufferReader(buf),
            parse_options=paj.ParseOptions(explicit_schema=schema))
        body = pc.list_element(tab["payload"], 0)
        op = pc.struct_field(body, "op")
        keep = pc.is_in(op, value_set=pa.array(["c", "u", "d"]))
        tab = tab.filter(keep)
        if tab.num_rows == 0:
            return _empty_events()
        body = pc.list_element(tab["payload"], 0)
        rid = pc.struct_field(body, "rid").to_pandas()
        split = rid.str.rsplit("/", n=1)
        after = pc.struct_field(body, "after")
        ts = pd.to_datetime(pc.struct_field(after, "ts").to_pandas(),
                            format="ISO8601")
        return pa.table({
            "conv_id": pa.array(split.str[0], pa.string()),
            "turn_idx": pa.array(split.str[1].astype(np.int64), pa.int32()),
            "op": pc.struct_field(body, "op"),
            "c_scn": tab["c_scn"],
            "xid": tab["xid"],
            "scn": tab["scn"],
            "c_idx": tab["c_idx"],
            "role": pc.struct_field(after, "role"),
            "text": pc.struct_field(after, "text"),
            "tool": pc.struct_field(after, "tool"),
            "ts": pa.Array.from_pandas(ts, type=pa.timestamp("us")),
            "tool_meta": pc.struct_field(after, "tool_meta"),
        })

    return lines.map_batches(parse, batch_format="pyarrow",
                             batch_size=cfg.batch_size)


def replay_message_stream(stream_dir: str,
                          cfg: ReplayConfig | None = None) -> rd.Dataset:
    """Replay a FULL-IMAGE NDJSON message stream to final table state —
    the consumer-side path: a user fed by the reference's JSON output can
    rebuild the table with this engine alone. LWW winner per (conv_id,
    turn_idx) under (c_scn, xid, scn, c_idx): for this repo's generator
    commit SCNs are per-transaction unique, so the order equals the
    engine's (commit_scn, scn, scn_idx) apply order; for externally
    produced streams where transactions can SHARE a commit SCN the xid
    tie-break keeps the replay deterministic (same-scn ops from different
    txns never interleave by c_idx alone).
    Distributed: conv-hash partitions, one vectorized lexsort/segment-last
    kernel per partition (coarse buckets, never per-key Python)."""
    cfg = cfg or ReplayConfig()
    ev = read_message_stream(stream_dir, cfg)
    nparts = cfg.num_partitions

    def with_part(t: pa.Table) -> pa.Table:
        return t.append_column("part", pa.array(
            partition_ids(t["conv_id"], t["turn_idx"], nparts)))

    OUT_COLS = ["conv_id", "turn_idx", "role", "text", "tool", "ts",
                "tool_meta"]

    def winners(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:      # empty stream / future Ray edge case
            return g.select(OUT_COLS)
        conv = np.asarray(g["conv_id"].to_numpy(zero_copy_only=False), object)
        xid = np.asarray(g["xid"].to_numpy(zero_copy_only=False), object)
        order = np.lexsort((g["c_idx"].to_numpy(), g["scn"].to_numpy(),
                            xid, g["c_scn"].to_numpy(),
                            g["turn_idx"].to_numpy(), conv))
        g = g.take(pa.array(order))
        conv = conv[order]
        turn = g["turn_idx"].to_numpy()
        last = np.empty(len(conv), bool)
        last[-1] = True
        last[:-1] = (conv[1:] != conv[:-1]) | (turn[1:] != turn[:-1])
        w = g.take(pa.array(np.flatnonzero(last)))
        w = w.filter(pc.invert(pc.equal(w["op"], "d")))
        return w.select(OUT_COLS)

    return (ev.map_batches(with_part, batch_format="pyarrow",
                           batch_size=cfg.batch_size)
              .groupby("part")
              .map_groups(winners, batch_format="pyarrow"))
