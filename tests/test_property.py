"""Property-based check: merge_apply ≡ naive dict apply on arbitrary streams.

Hypothesis generates arbitrary (not chain-valid) event sets — including
updates on missing rows, deletes of absent keys, equal order keys — and the
vectorized kernel must match a 10-line dict interpretation of the SURVEY
§7.1 semantics exactly.
"""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from olrx import schema as S
from olrx.stages.apply import merge_apply

N_COLS = len(S.payload_columns(1))

event = st.tuples(
    st.integers(0, 3),               # conv index
    st.integers(0, 2),               # turn
    st.sampled_from([0, 1, 2]),      # op code I/U/D
    st.integers(0, 5),               # commit_scn
    st.integers(0, 5),               # scn
    st.integers(0, 3),               # scn_idx
    st.integers(1, (1 << N_COLS) - 1),  # changed mask (nonzero)
    st.one_of(st.none(), st.text("abc", min_size=0, max_size=3)),  # text value
)


def dict_apply(events):
    """Reference semantics, dict-at-a-time."""
    names = [n for n, _ in S.payload_columns(1)]
    state = {}
    for conv, turn, op, cscn, scn, sidx, mask, text in sorted(
            events, key=lambda e: (e[0], e[1], e[3], e[4], e[5])):
        key = (conv, turn)
        if op == 2:
            state.pop(key, None)
            continue
        vals = {}
        for i, nm in enumerate(names):
            if op == 0 or (mask >> i) & 1:
                vals[nm] = f"{nm}:{text}" if text is not None else None
        if op == 0:  # insert replaces wholesale (full image: all cols set)
            row = {nm: vals.get(nm) for nm in names}
            state[key] = row
        else:
            row = state.setdefault(key, {nm: None for nm in names})
            row.update(vals)
    return state


def to_table(events):
    names = [n for n, _ in S.payload_columns(1)]
    cols = {
        "conv_id": pa.array([f"c{e[0]}" for e in events]),
        "turn_idx": pa.array([e[1] for e in events], pa.int32()),
        "op_code": pa.array([e[2] for e in events], pa.int8()),
        "commit_scn": pa.array([e[3] for e in events], pa.int64()),
        "scn": pa.array([e[4] for e in events], pa.int64()),
        "scn_idx": pa.array([e[5] for e in events], pa.int32()),
        # I events carry the full mask (full image), like the decode layer
        "changed_mask": pa.array(
            [S.full_mask(1) if e[2] == 0 else e[6] for e in events], pa.int32()),
    }
    for i, nm in enumerate(names):
        vals = []
        for e in events:
            mask = S.full_mask(1) if e[2] == 0 else e[6]
            if e[2] != 2 and (mask >> i) & 1 and e[7] is not None:
                vals.append(f"{nm}:{e[7]}")
            else:
                vals.append(None)
        t = pa.timestamp("us") if nm == "ts" else pa.string()
        if nm == "ts":
            cols[f"v_{nm}"] = pa.array(
                [None if v is None else len(v) for v in vals], pa.int64()
            ).cast(t)
        else:
            cols[f"v_{nm}"] = pa.array(vals, pa.string())
    return pa.table(cols)


@settings(max_examples=200, deadline=None)
@given(st.lists(event, min_size=0, max_size=40, unique_by=lambda e: (e[0], e[1], e[3], e[4], e[5])))
def test_merge_matches_dict_apply(events):
    got = merge_apply(to_table(events), 1)
    expect = dict_apply(events)
    got_rows = {(r["conv_id"], r["turn_idx"]): r for r in got.to_pylist()}
    assert set(got_rows) == {(f"c{c}", t) for c, t in expect}
    names = [n for n, _ in S.payload_columns(1) if n != "ts"]
    for (conv, turn), row in expect.items():
        g = got_rows[(f"c{conv}", turn)]
        for nm in names:
            assert g[nm] == row[nm], ((conv, turn), nm, g, row)


@settings(max_examples=120, deadline=None)
@given(st.lists(event, min_size=0, max_size=40,
                unique_by=lambda e: (e[0], e[1], e[3], e[4], e[5])),
       st.integers(0, 3))
def test_compaction_preserves_merge(events, split_at):
    """merge(compact(A) + B) == merge(A + B): compaction is a semigroup fold."""
    from olrx.stages.apply import compact_events

    t = to_table(events)
    cut = (len(events) * split_at) // 4
    a, b = t.slice(0, cut), t.slice(cut)
    merged_plain = merge_apply(t, 1)
    compacted = compact_events(a)
    recombined = pa.concat_tables([compacted, b], promote_options="default")
    merged_compacted = merge_apply(recombined, 1)
    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    assert merged_compacted.sort_by(key).equals(merged_plain.sort_by(key))


@settings(max_examples=120, deadline=None)
@given(st.lists(event, min_size=0, max_size=40,
                unique_by=lambda e: (e[0], e[1], e[3], e[4], e[5])),
       st.integers(0, 4), st.integers(1, 3))
def test_partition_ordered_runs_merge_like_the_union(events, split_at, nparts):
    """merge(concat(compact(A), B)) == merge(A ∪ B) with each run in
    partition order — the applier's stream-end fold appends its tail, not
    compacted, as a second run instead of compacting the union — and so
    does every partition's concatenated slices of the runs."""
    from olrx.stages.apply import compact_events
    from olrx.stages.exchange import partition_order, partition_slices

    t = to_table(events)
    t = t.append_column("part", pa.array([e[0] % nparts for e in events],
                                         pa.int32()))
    cut = (len(events) * split_at) // 4
    runs = [partition_order(compact_events(t.slice(0, cut))),
            partition_order(t.slice(cut))]
    for r in runs:
        part = r["part"].to_numpy()
        assert (np.diff(part) >= 0).all()
    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    want = merge_apply(t, 1).sort_by(key)
    assert merge_apply(pa.concat_tables(runs), 1).sort_by(key).equals(want)
    pieces = {}
    for r in runs:
        for p, g in partition_slices(r):
            pieces.setdefault(p, []).append(g)
    per_part = [merge_apply(pa.concat_tables(pieces[p]), 1)
                for p in sorted(pieces)]
    got = (pa.concat_tables(per_part) if per_part
           else merge_apply(t.slice(0, 0), 1))
    assert got.sort_by(key).equals(want)


@st.composite
def mixed_mask_events(draw):
    """Events where the columns of a drawn bit set ``full`` are set by
    every alive row and the others are not: a U row first, setting only
    ``full``, then rows whose masks all include it. So one group runs both
    of ``merge_apply``'s paths (the row winner's take and the per-column
    reduction), as a full-image stream with a pre-DDL added column or
    partial images does."""
    full = draw(st.integers(1, (1 << N_COLS) - 2))
    first = draw(event)
    first = first[:2] + (1,) + first[3:6] + (full,) + first[7:]
    rest = draw(st.lists(event, min_size=0, max_size=40))
    out, seen = [], set()
    for e in [first] + rest:
        if (e[0], e[1], e[3], e[4], e[5]) not in seen:
            seen.add((e[0], e[1], e[3], e[4], e[5]))
            out.append(e[:6] + (e[6] | full,) + e[7:])
    return out


@settings(max_examples=200, deadline=None)
@given(mixed_mask_events(), st.integers(0, 3))
def test_mixed_full_and_partial_columns_merge_like_dict_apply(events,
                                                              split_at):
    """Both merge paths in one group match the dict interpretation, and
    compacting a prefix first changes nothing."""
    from olrx.stages.apply import compact_events

    t = to_table(events)
    got = merge_apply(t, 1)
    expect = dict_apply(events)
    got_rows = {(r["conv_id"], r["turn_idx"]): r for r in got.to_pylist()}
    assert set(got_rows) == {(f"c{c}", tn) for c, tn in expect}
    names = [n for n, _ in S.payload_columns(1) if n != "ts"]
    for (conv, turn), row in expect.items():
        g = got_rows[(f"c{conv}", turn)]
        for nm in names:
            assert g[nm] == row[nm], ((conv, turn), nm, g, row)
    cut = (len(events) * split_at) // 4
    recombined = pa.concat_tables([compact_events(t.slice(0, cut)),
                                   t.slice(cut)])
    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    assert merge_apply(recombined, 1).sort_by(key).equals(got.sort_by(key))


def influence_rows(events):
    """The rows ``compact_rows`` must keep, by the plain definition: per
    key, in apply order (ties keep stream order), the last delete row, the
    last alive row and each column's last alive setting row; ascending."""
    order = sorted(range(len(events)), key=lambda i: (
        events[i][0], events[i][1], events[i][3], events[i][4], events[i][5]))
    last = {}
    for i in order:
        conv, turn, op, *_ = events[i]
        mask = S.full_mask(1) if op == 0 else events[i][6]
        k = (conv, turn)
        if op == 2:
            last[(k, "d")] = i
            continue
        last[(k, "alive")] = i
        for bit in range(N_COLS):
            if (mask >> bit) & 1:
                last[(k, bit)] = i
    return sorted(set(last.values()))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(event, min_size=0, max_size=40),
                 mixed_mask_events()))
def test_compact_rows_is_the_influence_set(events):
    """``compact_rows`` keeps exactly the influence rows, ascending, on
    arbitrary streams (equal order keys included) and on streams where
    some columns are set by every alive row."""
    from olrx.stages.apply import compact_rows

    assert compact_rows(to_table(events)).tolist() == influence_rows(events)
