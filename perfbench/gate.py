"""Oracle gate: order-independent table digests and the failure ledger.

The expected final state of a changelog comes from ``olrx.oracle
.apply_naive`` (a slow, independent row loop), computed once per generator
config in set-up and reduced to ``(digest, rows)``. Every lake the benchmark
builds is read back and compared with it; each ``read_lake_asof`` must
reproduce the digest ``read_lake`` returned right after that watermark
committed. An operation that raises, or a read whose digest or row count
differs, counts as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback

import pyarrow as pa
import pyarrow.compute as pc

import host

_MASK64 = (1 << 64) - 1


def _canonical(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """One Arrow type per logical kind, so equal values hash equally
    whatever width or timestamp unit a reader produced."""
    t = col.type
    if pa.types.is_timestamp(t):
        return pc.cast(col, pa.timestamp("us")).cast(pa.int64())
    if pa.types.is_integer(t):
        return col.cast(pa.int64())
    if pa.types.is_dictionary(t):
        return col.cast(t.value_type)
    if pa.types.is_large_string(t):
        return col.cast(pa.string())
    return col


def table_digest(table: pa.Table) -> tuple[str, int]:
    """``(hex digest, rows)``: the wrapping sum of per-row hashes over the
    columns in name order, with the column names folded in. Row order and
    chunking do not change it; any changed value, renamed column, extra or
    missing row does."""
    import duckdb

    names = sorted(table.column_names)
    canon = pa.table({n: _canonical(table[n]) for n in names})
    row = ", ".join('"' + n.replace('"', '""') + '"' for n in names)
    with duckdb.connect() as con:
        con.execute(f"SET threads TO {host.nproc()}")
        con.register("t", canon)
        total, rows = con.execute(
            f"SELECT sum(hash({row})::HUGEINT), count(*) FROM t").fetchone()
    acc = (int(total or 0) ^ hash_names(names)) & _MASK64
    return f"{acc:016x}", int(rows)


def hash_names(names: list[str]) -> int:
    h = 0
    for ch in "|".join(names).encode():
        h = (h * 1099511628211 + ch) & _MASK64
    return h


def oracle_digests(path_sets: list[list[str]]) -> list[tuple[str, int]]:
    """Expected ``(digest, rows)`` of each changelog segment set, from the
    naive oracle. Runs in a child process (see :class:`OracleJob`),
    so the main process's memory peak stays the engine's."""
    import pyarrow.parquet as pq

    from olrx.oracle import apply_naive

    out = []
    for paths in path_sets:
        changelog = pa.concat_tables([pq.read_table(p) for p in paths],
                                     promote_options="default")
        out.append(table_digest(apply_naive(changelog)))
    return out


class OracleJob:
    """The oracle running beside the rest of set-up, in one child process
    (``python3 gate.py`` with the path sets as JSON on stdin): :meth:`result`
    waits for it, :meth:`stop` ends the process and waits until it has."""

    def __init__(self, path_sets: list[list[str]]) -> None:
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._proc.stdin.write(json.dumps(path_sets).encode())
        self._proc.stdin.close()

    def result(self) -> list[tuple[str, int]]:
        out = self._proc.stdout.read()
        if self._proc.wait() != 0:
            raise RuntimeError(f"oracle process exited with {self._proc.returncode}")
        return [tuple(d) for d in json.loads(out)]

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.stdout.close()
        self._proc.wait()


class Gate:
    """Counts attempted and failed operations for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, what: str, fn, *args, **kwargs):
        """Attempt one operation; a raise counts as a failure and returns
        None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - the benchmark must keep running
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None

    def expect(self, what: str, got: "tuple[str, int] | None",
               want: "tuple[str, int] | None") -> None:
        """Mark the most recent operation failed when its digest or row
        count differs from ``want``. A ``got`` of None (the operation
        already failed) is not counted twice."""
        if got is not None and got != want:
            self.failed += 1
            self.errors.append(f"{what}: digest/rows {got} != expected {want}")

    @property
    def error_rate(self) -> float:
        return self.failed / max(1, self.attempted)


if __name__ == "__main__":
    # the child side of OracleJob: olrx is imported from the checkout root
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    out, sys.stdout = sys.stdout, sys.stderr   # stray prints stay off the pipe
    json.dump(oracle_digests(json.load(sys.stdin)), out)
