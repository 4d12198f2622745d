"""SCN time travel over the lake's retained checkpoint snapshots.

Every checkpoint writes a full per-partition snapshot at its watermark
(``stages.commit.apply_and_commit``, ``state.manifest`` names it); with
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

Scale shape: the as-of read is the lake's one snapshot reader
(``replay.read_snapshots``) over one file per partition: its tasks read,
cap and report their blocks, and the Dataset comes back executed. No
replay, no shuffle; retention costs disk only (K× snapshot bytes). One
footer fetch pins one physical schema for snapshots of every epoch.
"""

from __future__ import annotations

import os

import ray.data as rd

from olrx import schema as S
from olrx.pipelines.replay import read_snapshots, replay_to_lake
from olrx.stages.commit import snapshot_footer
from olrx.state import manifest as MF


def snapshot_files_asof(out_dir: str, commit_scn: int) -> list[str]:
    """Per published partition, the newest retained snapshot with
    watermark ≤ scn, in ascending watermark order. A snapshot above its
    manifest's watermark, or of a partition without one, was never
    published (a crashed run's leftover): ``read_lake`` skips it too.

    A partition that PROVABLY had no committed events at ``commit_scn``
    (manifest ``first_data_scn`` — the min commit SCN ever applied — is
    above it) was empty then and simply contributes no file. Anything
    else without an eligible snapshot raises ``ValueError``: committed
    state existed (or can't be ruled out — pre-field manifests record no
    data birth) but isn't retained at that SCN, and a silent empty or
    newer-than-asked answer would be wrong (ADVICE r4 #1: a lake built by
    one full replay checkpoints only at the end — its ``first_watermark``
    says nothing about when data was born)."""
    ms = MF.read_lake_state(out_dir).manifests
    if not ms:
        raise FileNotFoundError(f"no published snapshots under {out_dir}")
    chosen: list[tuple[int, str]] = []
    for part, m in ms.items():
        wms = MF.retained_snapshots(out_dir, part)
        eligible = [w for w in wms
                    if w <= min(commit_scn, m.watermark_commit_scn)]
        if eligible:
            chosen.append((eligible[-1], os.path.join(
                out_dir, MF.snapshot_file(part, eligible[-1]))))
            continue
        birth = m.first_data_scn   # -1: unknown
        if birth > max(commit_scn, -1):
            continue  # partition provably had no committed events then
        raise ValueError(
            f"partition {part}: snapshot history at commit SCN {commit_scn} "
            f"is pruned or was never checkpointed (oldest retained: "
            f"{wms[:1]}, data birth: {birth if birth >= 0 else 'unknown'}); "
            "raise ReplayConfig.snapshot_keep or checkpoint earlier")
    return [f for _, f in sorted(chosen)]


def read_lake_asof(out_dir: str, commit_scn: int) -> rd.Dataset:
    """Table state as of ``commit_scn``: the chosen snapshots, read when
    this is called into an executed Dataset (``replay.read_snapshots``)
    that keeps that state even after a later commit's GC deletes them.

    Snapshots store physical payload names and record their rename epoch's
    display mapping in the footer (``stages.commit``). The newest chosen
    snapshot (the largest watermark) was written under the schema and
    names current at the as-of point, so its footer — the only one this
    read fetches — pins the schema of every chosen file and is the relabel:
    a column added later null-fills in older snapshots, and a column
    dropped later is projected away."""
    files = snapshot_files_asof(out_dir, commit_scn)
    if not files:  # every partition born after the as-of point
        return read_snapshots([], S.transcripts_schema(0), {})
    return read_snapshots(files, *snapshot_footer(files[-1]))


# ---------------------------------------------------------------------------
# cdc_time_travel — checkpoint → catch-up → as-of read, oracle-checked
# ---------------------------------------------------------------------------

def _split_scn(paths: list[str]) -> int:
    """Deterministic mid-stream commit SCN (median of all commit SCNs) —
    the SAME helper feeds the Ray query and the SQL-oracle generator, so
    both sides cut at an identical literal."""
    import numpy as np

    from olrx.stages.decode import load_control

    scns = load_control(paths).commit_scns()
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
