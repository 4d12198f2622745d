"""The replay's segment read: the control's segment index split into
byte-balanced groups, each group read file by file under each file's own
schema and decoded once per run of same-schema files, one Ray task a
group, with no Parquet datasource or Ray Data execution behind the
stream."""

import glob
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from olrx.pipelines.replay import (ReplayConfig, read_lake, replay_dataset,
                                   replay_to_lake, route_group_count)
from olrx.stages.decode import (EVENT_COLUMNS, make_segment_decoder,
                                read_runs, segment_groups)
from tests.conftest import sorted_table


def _boundaries(groups):
    return [len(g) for g in groups]


@pytest.mark.parametrize("sizes,n", [
    ([10] * 12, 3), ([1, 1, 1, 1, 100, 1, 1, 1], 3), ([5, 3, 9, 1, 7], 5),
    ([100, 1, 1, 1], 3), ([3, 3], 8), ([0, 0, 0, 0], 2), ([7], 1),
])
def test_segment_groups_contiguous_balanced_deterministic(sizes, n):
    paths = [f"s{i:03d}" for i in range(len(sizes))]
    groups = segment_groups(paths, sizes, n)
    # contiguous and exactly once: the groups concatenate to the input
    assert [p for g in groups for p in g] == paths
    assert len(groups) == min(n, len(paths)) and all(groups)
    assert segment_groups(list(paths), list(sizes), n) == groups
    # byte-balanced: a group overshoots its share by at most one path
    share = sum(sizes) / len(groups)
    at = 0
    for g in groups:
        nbytes = [sizes[at + i] for i in range(len(g))]
        at += len(g)
        assert sum(nbytes) - max(nbytes) <= share + 1e-9, (groups, sizes)


def test_segment_groups_split_even_sizes_evenly():
    paths = [f"s{i}" for i in range(12)]
    assert _boundaries(segment_groups(paths, [10] * 12, 3)) == [4, 4, 4]
    assert _boundaries(segment_groups(paths, [10] * 12, 5)) == [2, 3, 2, 3, 2]
    # one heavy file stands alone, the light ones share the rest
    assert segment_groups(["a", "b", "c", "d"], [100, 1, 1, 1], 2) == [
        ["a"], ["b", "c", "d"]]


def _narrow_and_wide(mixed_schema_dir):
    dst, _ = mixed_schema_dir
    paths = sorted(glob.glob(dst + "/*.parquet"))

    def wide(p):
        return "tool_meta" in {f.name for f in pq.read_schema(p)
                               .field("after").type}

    kinds = [wide(p) for p in paths]
    assert not kinds[0] and any(kinds), "fixture needs narrow, then wide"
    return paths, kinds


def test_read_runs_one_table_per_same_schema_run(mixed_schema_dir):
    paths, kinds = _narrow_and_wide(mixed_schema_dir)
    runs = list(read_runs(paths, EVENT_COLUMNS))
    flips = sum(a != b for a, b in zip(kinds, kinds[1:]))
    assert len(runs) == flips + 1
    assert sum(r.num_rows for r in runs) == sum(
        pq.read_metadata(p).num_rows for p in paths)
    # each run keeps its files' own schema: wide runs carry tool_meta
    widths = [("tool_meta" in {f.name for f in r.schema.field("after").type})
              for r in runs]
    assert widths == [k for i, k in enumerate(kinds)
                      if i == 0 or k != kinds[i - 1]]
    # the group fn yields one decode per run, group by group
    fn = make_segment_decoder(lambda t: t.num_rows, EVENT_COLUMNS)
    got = [n for group in (paths[:3], paths[3:]) for n in fn(group)]
    assert sum(got) == sum(r.num_rows for r in runs)
    assert len(got) == (len(list(read_runs(paths[:3], EVENT_COLUMNS)))
                        + len(list(read_runs(paths[3:], EVENT_COLUMNS))))


def test_read_runs_caps_bytes_and_rows(gen_small):
    _, _, paths, _ = gen_small
    group = paths[:4]
    sizes = [pq.read_table(p, columns=EVENT_COLUMNS).nbytes for p in group]
    total = sum(pq.read_metadata(p).num_rows for p in group)
    assert len(list(read_runs(group, EVENT_COLUMNS))) == 1
    # a byte cap below two files' size reads each file as its own run
    capped = list(read_runs(group, EVENT_COLUMNS,
                            max_bytes=min(sizes) + min(sizes) // 2))
    assert len(capped) == len(group)
    # a row cap makes every run that many rows, the last one the rest
    cap = 1000
    runs = list(read_runs(group, EVENT_COLUMNS, max_rows=cap))
    assert [r.num_rows for r in runs[:-1]] == [cap] * (len(runs) - 1)
    assert 0 < runs[-1].num_rows <= cap
    assert sum(r.num_rows for r in runs) == total
    # rows keep their file order across the cuts
    want = pa.concat_tables([pq.read_table(p, columns=["scn", "scn_idx"])
                             for p in group])
    got = pa.concat_tables([r.select(["scn", "scn_idx"]) for r in runs])
    assert got.equals(want)


def test_read_runs_apply_the_scn_filter(gen_small):
    _, _, paths, _ = gen_small
    t = pq.read_table(paths[0], columns=["scn"])
    mid = int(pc.min(t["scn"]).as_py()) + 10
    runs = list(read_runs(paths[:1], EVENT_COLUMNS, above=mid))
    assert sum(r.num_rows for r in runs) == int(
        pc.sum(pc.greater(t["scn"], mid)).as_py())


def test_read_runs_prune_row_groups_by_footer_scn(tmp_path, gen_small,
                                                  monkeypatch):
    """A segment of 1,000-row row groups: ``read_runs`` returns exactly the
    rows a filtered ``pq.read_table`` returns, and never reads a row group
    whose footer range lies wholly outside the bounds."""
    _, _, paths, _ = gen_small
    seg = str(tmp_path / "shard00-seg0000.parquet")
    pq.write_table(pa.concat_tables([pq.read_table(p) for p in paths
                                     if "shard00" in p]),
                   seg, row_group_size=1000)
    md = pq.read_metadata(seg)
    assert md.num_row_groups >= 4
    j = [md.schema.column(k).path for k in range(md.num_columns)].index("scn")
    ranges = [md.row_group(i).column(j).statistics
              for i in range(md.num_row_groups)]
    read = []
    real = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *args, **kwargs):
        read.extend(row_groups)
        return real(self, row_groups, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    # the bound at the 2nd group's max: groups 0-1 lie wholly at or below
    # it; the top cut in the middle of the 4th group
    above = ranges[1].max
    at_most = (ranges[3].min + ranges[3].max) // 2
    scn = pc.field("scn")
    for lo, hi, flt in ((above, None, scn > above),
                        (None, at_most, scn <= at_most),
                        (above, at_most, (scn > above) & (scn <= at_most))):
        read.clear()
        want = pq.read_table(seg, columns=EVENT_COLUMNS, filters=flt)
        got = pa.concat_tables(list(read_runs([seg], EVENT_COLUMNS,
                                              above=lo, at_most=hi)))
        assert got.equals(want)
        skipped = {i for i, st in enumerate(ranges)
                   if (lo is not None and st.max <= lo)
                   or (hi is not None and st.min > hi)}
        assert skipped and not skipped & set(read), (lo, hi, read)
        assert len(read) == md.num_row_groups - len(skipped)


@pytest.mark.parametrize("nbytes,files,cpus,want", [
    (100_000, 8, 4, 4), (100_000, 2, 4, 2), (100_000, 8, 1, 1),
    # bulk_replay's 10.3 MB of 32 files: today's 3 groups at 1 CPU
    (10_300_000, 32, 1, 3),
    # larger inputs: at most 3 a CPU, one a 2 MiB, never more than files
    (10_300_000, 32, 4, 5), (100_000_000, 32, 4, 12), (100_000_000, 5, 4, 5),
])
def test_route_group_count(nbytes, files, cpus, want):
    """Small reads run one group a CPU; a group is added per 2 MiB up to
    3 a CPU, so bulk inputs keep ``coarse_read_blocks``' count at 1 CPU."""
    assert route_group_count(nbytes, files, cpus) == want


def _committed_op_counts(full: pa.Table) -> dict[str, int]:
    """Per DML op, the events the oracle applies: committed, not undone by a
    partial rollback."""
    df = full.select(["xid", "op", "scn", "scn_idx", "undo_scn",
                      "undo_scn_idx"]).to_pandas()
    committed = set(df.xid[df.op == "C"])
    pr = df[df.op == "PR"]
    undone = set(zip(pr.xid, pr.undo_scn.astype("int64"),
                     pr.undo_scn_idx.astype("int64")))
    dml = df[df.op.isin(["I", "U", "D"]) & df.xid.isin(committed)]
    keep = [k not in undone for k in zip(dml.xid, dml.scn.astype("int64"),
                                         dml.scn_idx.astype("int64"))]
    return dml[keep].op.value_counts().to_dict()


def test_replay_builds_no_parquet_datasource(tmp_path, gen_small,
                                             expected_small, monkeypatch):
    """Both replay modes run with ``ray.data.read_parquet`` raising: the
    decode stream reads the control's segment list itself. The lake equals
    the oracle and its lineage counters are exact."""
    _, _, paths, full = gen_small

    def no_datasource(*a, **k):
        raise AssertionError("the replay built a Parquet datasource")

    cfg = ReplayConfig(num_partitions=8)
    with monkeypatch.context() as m:
        m.setattr(ray.data, "read_parquet", no_datasource)
        res = replay_to_lake(paths, str(tmp_path / "lake"), cfg,
                             resume=False)
        rows = replay_dataset(paths, cfg).dataset.to_arrow_refs()
    want = _committed_op_counts(full)
    stats = res.stats
    assert {op: int(pc.sum(stats[k]).as_py())
            for op, k in (("I", "inserts"), ("U", "updates"),
                          ("D", "deletes"))} == want
    assert int(pc.sum(stats["events"]).as_py()) == sum(want.values())
    assert "plan" in res.timings and res.timings["plan"] >= \
        res.timings["control"]
    assert sorted_table(read_lake(str(tmp_path / "lake")),
                        expected_small.schema).equals(expected_small)
    assert sorted_table(ray.data.from_arrow_refs(rows),
                        expected_small.schema).equals(expected_small)


def test_batch_size_caps_decode_rows(gen_small, expected_small):
    """``ReplayConfig.batch_size`` caps the rows of every decode call, and
    a replay with it still equals the oracle."""
    _, _, paths, _ = gen_small
    fn = make_segment_decoder(lambda t: t.num_rows, EVENT_COLUMNS,
                              max_rows=700)
    sizes = list(fn(paths))
    assert max(sizes) == 700 and len(sizes) > 1
    assert sum(sizes) == sum(pq.read_metadata(p).num_rows for p in paths)
    res = replay_dataset(paths, ReplayConfig(num_partitions=8,
                                             batch_size=700))
    assert sorted_table(res.dataset,
                        expected_small.schema).equals(expected_small)


def test_row_block_stays_out_of_the_appliers(gen_small, expected_small):
    """A dataset-mode exchange on a kept fleet returns oracle-equal rows,
    and its appliers never import ``ray.data``: their rows leave as IPC
    buffers, and a task builds the Ray Data blocks."""
    from olrx.pipelines.replay import _plan, executed_dataset
    from olrx.stages.exchange import ApplierFleet, run_actor_exchange

    _, _, paths, _ = gen_small
    fleet = ApplierFleet()
    try:
        _, run, _ = _plan(paths, ReplayConfig(num_partitions=8,
                                              num_appliers=2), {})
        blocks, metas = run_actor_exchange(**run, fleet=fleet)
        loaded = ray.get([a.__ray_call__.remote(
            lambda self: "ray.data" in __import__("sys").modules)
            for a in fleet.appliers])
        rows = executed_dataset(blocks, metas)
        assert sorted_table(rows, expected_small.schema).equals(
            expected_small)
    finally:
        fleet.close()
    assert loaded == [False, False]


def test_route_profile_in_timings(tmp_path, gen_small):
    """Each group task reports its read, decode and ship seconds, its wait
    for the appliers apart from its ship, and its decoded and lz4 blob
    bytes; the replay sums them into its timings."""
    _, _, paths, _ = gen_small
    res = replay_to_lake(paths, str(tmp_path / "lake"),
                         ReplayConfig(num_partitions=8), resume=False)
    t = res.timings
    for k in ("route_read", "route_decode", "route_ship"):
        assert t[k] > 0, k
    assert t["route_ready"] >= 0
    # a ~370 KB input is well under one group's bytes: one group a CPU
    cpus = int(ray.cluster_resources()["CPU"])
    assert t["route_groups"] == min(cpus, len(paths))
    assert 0 < t["route_blob_bytes"] < t["route_raw_bytes"]


def test_phase_timings_cover_the_call(tmp_path, gen_small):
    """A call-scoped lake replay's phase timings, the wipe of the old lake
    and the fleet's begin and close included, add up to its wall time
    within 10%."""
    _, _, paths, _ = gen_small
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8)
    replay_to_lake(paths, lake, cfg, resume=False)
    t0 = time.perf_counter()
    t = replay_to_lake(paths, lake, cfg, resume=False).timings
    wall = time.perf_counter() - t0
    phases = sum(t[k] for k in ("reset", "plan", "fleet_begin", "route",
                                "fence", "finalize", "fleet_close",
                                "publish"))
    assert abs(phases - wall) <= 0.1 * wall, (phases, wall, t)


def test_replay_starts_no_ray_data_execution(tmp_path, gen_small,
                                             expected_small, monkeypatch):
    """A lake replay reads, decodes and routes in plain Ray tasks: with
    Ray Data's ``from_arrow`` and ``map_batches`` made to raise, it still
    equals the oracle."""
    def forbidden(*args, **kwargs):
        raise AssertionError("Ray Data in the replay path")

    _, _, paths, _ = gen_small
    monkeypatch.setattr(ray.data, "from_arrow", forbidden)
    monkeypatch.setattr(ray.data.Dataset, "map_batches", forbidden)
    lake = str(tmp_path / "lake")
    replay_to_lake(paths, lake, ReplayConfig(num_partitions=8), resume=False)
    monkeypatch.undo()
    assert sorted_table(read_lake(lake),
                        expected_small.schema).equals(expected_small)
