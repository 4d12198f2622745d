"""SCN time travel over the lake's retained checkpoint snapshots.

Every checkpoint writes a full per-partition snapshot named
``data-w{watermark}.parquet`` (``stages.commit.apply_and_commit``); with
``ReplayConfig.snapshot_keep > 1`` the GC retains the newest K snapshots
per partition instead of deleting the superseded one — the lake-sink
analog of the reference's checkpoint retention (``keep-checkpoints``,
/root/reference/documentation/user-manual/8.checkpointing.adoc:15-24 and
Checkpoint.cpp trimming old checkpoint files). ``read_lake_asof(scn)``
then reconstructs the exact transaction-consistent table state at any
retained commit SCN: per partition, the newest snapshot with
watermark ≤ scn. Because watermarks are commit SCNs and transactions
apply atomically, every retained snapshot is a consistent cut (the same
invariant the reference maintains by checkpointing only at LWN
boundaries).

Scale shape: the as-of read is a plain partitioned ``read_parquet`` over
one file per partition — no replay, no shuffle; retention cost is disk
only (K× snapshot bytes), never memory or extra write traffic.
"""

from __future__ import annotations

import glob
import os
import re

import ray.data as rd

from olrx.ops.scaling import coarse_read_blocks

_SNAP_RE = re.compile(r"data-w(\d+)\.parquet$")


def snapshot_watermarks(out_dir: str) -> dict[int, list[int]]:
    """partition → retained snapshot watermarks (ascending)."""
    out: dict[int, list[int]] = {}
    for pdir in sorted(glob.glob(os.path.join(out_dir, "part-*"))):
        part = int(os.path.basename(pdir).split("-")[1])
        wms = sorted(int(m.group(1)) for f in os.listdir(pdir)
                     if (m := _SNAP_RE.search(f)))
        if wms:
            out[part] = wms
    return out


def snapshot_files_asof(out_dir: str, commit_scn: int) -> list[str]:
    """Per partition, the newest retained snapshot with watermark ≤ scn.

    A partition that PROVABLY had no committed events at ``commit_scn``
    (manifest ``first_data_scn`` — the min commit SCN ever applied — is
    above it) was empty then and simply contributes no file. Anything
    else without an eligible snapshot raises ``ValueError``: committed
    state existed (or can't be ruled out — pre-field manifests record no
    data birth) but isn't retained at that SCN, and a silent empty or
    newer-than-asked answer would be wrong (ADVICE r4 #1: a lake built by
    one full replay checkpoints only at the end — its ``first_watermark``
    says nothing about when data was born)."""
    from olrx.state import manifest as MF

    ms = MF.read_all(os.path.join(out_dir, "_manifest"))
    files: list[str] = []
    snaps = snapshot_watermarks(out_dir)
    if not snaps:
        raise FileNotFoundError(f"no snapshots under {out_dir}")
    for part, wms in snaps.items():
        eligible = [w for w in wms if w <= commit_scn]
        if eligible:
            files.append(os.path.join(out_dir, f"part-{part:05d}",
                                      f"data-w{eligible[-1]}.parquet"))
            continue
        m = ms.get(part)
        birth = m.first_data_scn if m is not None else -1
        if birth >= 0 and birth > commit_scn:
            continue  # partition provably had no committed events then
        raise ValueError(
            f"partition {part}: snapshot history at commit SCN {commit_scn} "
            f"is pruned or was never checkpointed (oldest retained: "
            f"{wms[0]}, data birth: {birth if birth >= 0 else 'unknown'}); "
            "raise ReplayConfig.snapshot_keep or checkpoint earlier")
    return files


def read_lake_asof(out_dir: str, commit_scn: int) -> rd.Dataset:
    """Table state as of ``commit_scn`` — a partitioned parquet read of the
    chosen snapshots, streaming like any other Dataset source.

    Snapshots carry the display names current at THEIR watermark epoch, so
    when the chosen files straddle a committed column RENAME (one partition
    last checkpointed before it, another after), a naive multi-file read
    would silently union two names for one physical column. Files are
    therefore grouped by their footer schema and relabeled to the newest
    chosen epoch's names — positions are stable under renames (the physical
    identity/column id never changes, SystemTransaction.cpp:525) and every
    cross-group label difference must be provably the same physical column
    (via the manifests' rename mapping); anything unresolvable raises
    rather than guessing, like the pruned-history case."""
    files = snapshot_files_asof(out_dir, commit_scn)
    if not files:  # every partition born after the as-of point
        from olrx import schema as S

        return rd.from_arrow(S.transcripts_schema(0).empty_table())
    import pyarrow as pa
    import pyarrow.parquet as pq

    groups: dict[tuple, list[str]] = {}
    for f in files:
        groups.setdefault(tuple(pq.read_schema(f).names), []).append(f)
    if len(groups) == 1:
        return rd.read_parquet(
            files, override_num_blocks=coarse_read_blocks(len(files)))

    from olrx import schema as S
    from olrx.state import manifest as MF

    def _wm(f: str) -> int:
        return int(_SNAP_RE.search(f).group(1))

    canon = tuple(pq.read_schema(max(files, key=_wm)).names)
    canon_types = {n: t for n, t in zip(
        canon, pq.read_schema(max(files, key=_wm)).types)}
    physicals = ({n for n, _ in S.payload_columns(S.MAX_SCHEMA_VERSION)}
                 | set(S.transcripts_schema(0, include_table=True).names))
    # every display name any manifest records, superseded epochs included
    # (a stale partition's snapshot carries its own epoch's label); a label
    # two physical columns have worn proves nothing
    phys_of: dict[str, set[str]] = {}
    for m in MF.read_all(os.path.join(out_dir, "_manifest")).values():
        for p, cur in (m.renamed_columns or {}).items():
            phys_of.setdefault(cur, set()).add(p)

    def _phys(name: str) -> str | None:
        if name in physicals:
            return name
        cands = phys_of.get(name, set())
        return next(iter(cands)) if len(cands) == 1 else None

    parts: list[rd.Dataset] = []
    for names, gfiles in sorted(groups.items()):
        if len(names) > len(canon):
            raise ValueError(
                f"as-of read at commit SCN {commit_scn}: snapshot epochs "
                f"disagree beyond renames/additive adds ({len(names)} vs "
                f"{len(canon)} columns); retain aligned checkpoints "
                "(ReplayConfig.snapshot_keep) or re-checkpoint")
        mapping: dict[str, str] = {}
        fields = []
        for i, fn in enumerate(names):
            tn = canon[i]
            fields.append(pa.field(fn, canon_types[tn]))
            if fn == tn:
                continue
            pf, pt = _phys(fn), _phys(tn)
            if pf is None or pt is None or pf != pt:
                raise ValueError(
                    f"as-of read at commit SCN {commit_scn}: cannot prove "
                    f"snapshot column {fn!r} and {tn!r} share a physical "
                    "identity; history spans an unrecorded rename")
            mapping[fn] = tn
        fields += [pa.field(canon[i], canon_types[canon[i]])
                   for i in range(len(names), len(canon))]
        ds = rd.read_parquet(gfiles, schema=pa.schema(fields),
                             override_num_blocks=coarse_read_blocks(len(gfiles)))
        parts.append(ds.rename_columns(mapping) if mapping else ds)
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# cdc_time_travel — checkpoint → catch-up → as-of read, oracle-checked
# ---------------------------------------------------------------------------

def _split_scn(paths: list[str]) -> int:
    """Deterministic mid-stream commit SCN (median of all commit SCNs) —
    the SAME helper feeds the Ray query and the SQL-oracle generator, so
    both sides cut at an identical literal."""
    import numpy as np

    from olrx.stages.decode import load_control

    scns = load_control(paths).commit_map["commit_scn"].to_numpy(
        zero_copy_only=False)
    k = len(scns) // 2
    return int(np.partition(scns, k)[k])


def q_cdc_time_travel(sf_dir: str) -> rd.Dataset:
    """Replay up to the split SCN (the ``end_commit_scn`` stop position),
    resume-replay the rest with ``snapshot_keep=4``, then time-travel back:
    ``read_lake_asof(split)`` must equal the replay of events committed at
    or before the split — which is exactly what the SQL oracle computes.
    Exercises retention + as-of read + the stop position + incremental
    resume in one verified pipeline."""
    from olrx.gen import GenConfig, ensure_changelog, scale_for_sf_dir
    from olrx.pipelines.queries import _replay_cfg, changelog_paths_for
    from olrx.pipelines.replay import replay_to_lake

    paths = changelog_paths_for(sf_dir)
    split = _split_scn(paths)
    scale = scale_for_sf_dir(sf_dir)
    # the lake lives INSIDE the gen-<digest> dir, so it is keyed by the full
    # generator config/code digest: a regenerated changelog (new digest) gets
    # a fresh lake rather than resuming stale state (ADVICE r4 #2)
    lake = os.path.join(ensure_changelog(GenConfig(scale=scale)), "tt-lake")
    import dataclasses
    cfg1 = dataclasses.replace(_replay_cfg(), end_commit_scn=split,
                               snapshot_keep=4)
    cfg2 = dataclasses.replace(_replay_cfg(), snapshot_keep=4)
    replay_to_lake(paths, lake, cfg1, resume=False)
    replay_to_lake(paths, lake, cfg2, resume=True)
    return read_lake_asof(lake, split)


def sql_cdc_time_travel(sf_dir: str) -> str:
    from olrx.pipelines.queries import _glob_sql, changelog_paths_for

    g = _glob_sql(sf_dir)
    split = _split_scn(changelog_paths_for(sf_dir))
    return f"""
WITH commits AS (
  SELECT xid, scn AS commit_scn FROM read_parquet('{g}')
  WHERE op = 'C' AND scn <= {split}
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
