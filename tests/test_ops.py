"""Training-data ops: dedup, similarity, text, multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def planted_docs(tmp_path_factory):
    """Tiny documents table with planted exact + near duplicates."""
    d = tmp_path_factory.mktemp("docs")
    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep dark forest looking for food " * 3)
    texts = [
        base,                           # 0
        base,                           # 1 exact dup of 0
        base.replace("lazy", "sleepy"),  # 2 near dup of 0
        "completely different text about ships and oceans " * 5,  # 3
        "another unrelated document regarding cooking recipes " * 5,  # 4
        base.replace("fox", "cat"),     # 5 near dup of 0
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["t"] * len(texts)),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


def test_dedup_exact_counts(planted_docs):
    from olrx.ops.dedup import q_dedup_exact

    out = q_dedup_exact(planted_docs).to_pandas().sort_values("doc_id")
    by_id = dict(zip(out.doc_id, out.n_dupes))
    assert by_id[0] == 2          # docs 0,1 identical
    assert len(out) == 5          # 6 docs, one exact-dup pair


def test_dedup_minhash_finds_planted_neardups(planted_docs):
    from olrx.ops.dedup import q_dedup_minhash

    out = q_dedup_minhash(planted_docs, threshold=0.6).to_pandas()
    clusters = dict(zip(out.doc_id, out.cluster_id))
    # 0,1 exact; 2 and 5 are near-dups of 0 — all one cluster
    assert clusters.get(0) == clusters.get(1) == clusters.get(2) == clusters.get(5)
    # unrelated docs not clustered with 0
    assert 3 not in clusters or clusters[3] != clusters[0]


def test_dedup_simhash_pairs(planted_docs):
    from olrx.ops.dedup import q_dedup_simhash

    out = q_dedup_simhash(planted_docs).to_pandas()
    pairs = set(map(tuple, out[["a", "b"]].to_numpy()))
    assert (0, 1) in pairs        # identical docs have identical simhash


def test_ann_bruteforce_matches_numpy():
    from olrx.ops.similarity import q_ann_bruteforce

    out = q_ann_bruteforce(SF, n_queries=4, k=3).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    order = np.argsort(ids)
    qsel = order[:4]
    for qi in qsel:
        scores = m[qi] @ m.T
        scores[qi] = -2
        expect = set(ids[np.argsort(-scores)[:3]])
        got = set(out[out.query_id == ids[qi]].vec_id)
        assert got == expect, (ids[qi], got, expect)


def test_text_stats_basic(planted_docs):
    from olrx.ops.text import q_text_stats

    out = q_text_stats(planted_docs).to_pandas().set_index("doc_id")
    assert (out["n_tokens"] > 0).all()
    assert out.loc[0, "n_tokens"] == out.loc[1, "n_tokens"]


def test_lang_id_english(planted_docs):
    from olrx.ops.text import q_lang_id

    out = q_lang_id(planted_docs).to_pandas().set_index("doc_id")
    # docs 0/1/2/5 contain English stopwords → en; others may be unknown
    assert (out.loc[[0, 1, 2, 5], "lang_pred"] == "en").all()
    assert set(out["lang_pred"]) <= {"en", "und"}


def test_media_plumbing_deterministic():
    from olrx.ops.multimodal import MediaFeatureExtractor, ensure_media

    path = ensure_media(0.001)
    t = pq.read_table(path).slice(0, 16)
    fx = MediaFeatureExtractor()
    out1 = fx(t)
    out2 = fx(t)
    assert out1.equals(out2)
    assert out1.column_names == ["media_id", "kind"] + [f"f{j}" for j in range(8)]
    with pytest.raises(NotImplementedError):
        MediaFeatureExtractor(decode_real=True)


def test_media_features_match_naive_reference():
    """Differential check: vectorized stripe-mean kernel == per-byte naive
    loop (the same pair the driver oracle compares at sf0.01)."""
    from olrx.ops.multimodal import (MediaFeatureExtractor, _naive_features,
                                     ensure_media)

    t = pq.read_table(ensure_media(0.001)).slice(0, 32)
    out = MediaFeatureExtractor()(t)
    for i in range(t.num_rows):
        expect = _naive_features(t["payload"][i].as_py())
        got = [out[f"f{j}"][i].as_py() for j in range(8)]
        assert got == pytest.approx(expect, abs=1e-9), i


def test_condition_language():
    from olrx.functions.condition import Condition

    b = pa.table({
        "op": ["I", "U", "D", "I"],
        "role": ["user", "tool", "user", None],
        "n": [1, 2, 3, 4],
    })
    assert Condition("op == 'I'").mask(b).to_pylist() == [True, False, False, True]
    assert Condition("op == 'I' AND role != NULL").filter(b).num_rows == 1
    assert Condition("role IN ('user','tool') OR n == 4").mask(b).to_pylist() == \
        [True, True, True, True]
    assert Condition("NOT (op == 'D')").mask(b).to_pylist() == [True, True, False, True]
    with pytest.raises(ValueError):
        Condition("op === 'I'")
    with pytest.raises(ValueError):
        Condition("op == 'I' garbage trailing")


def test_ann_ivf_shape_and_recall():
    """IVF returns k hits per query; with n_probe covering a healthy share
    of cells, mean recall vs brute force is high on the synthetic corpus."""
    from olrx.ops.similarity import q_ann_ivf, q_ann_ivf_recall

    out = q_ann_ivf(SF, n_queries=4, k=3).to_pandas()
    assert (out.groupby("query_id").size() == 3).all()
    rec = q_ann_ivf_recall(SF, n_queries=4, k=3).to_pandas()
    assert len(rec) == 4
    assert rec["recall_at_k"].mean() >= 0.5   # probe-bounded ANN, not exact


def test_dedup_ngram_exact_pairs(planted_docs):
    """Prefix-filtered inverted index finds exactly the high-jaccard pairs
    (0-1 exact dup at j=1.0; 2 and 5 are single-word edits of 0/1)."""
    from olrx.ops.dedup import q_dedup_ngram

    out = q_dedup_ngram(planted_docs, threshold=0.5).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(out.a, out.b)}
    assert (0, 1) in pairs                       # exact duplicate
    assert (0, 2) in pairs and (0, 5) in pairs   # near dups of 0
    assert not any(3 in p or 4 in p for p in pairs)  # unrelated docs
    j01 = float(out[(out.a == 0) & (out.b == 1)].jaccard.iloc[0])
    assert j01 == 1.0


def test_media_frames_explode_layout():
    """Frame sampler: 1 payload row → n_frames/stride rows, stride indices,
    means in [0, 1]; short payloads (< one frame) produce no rows."""
    import numpy as np
    from olrx.ops.multimodal import FrameSampler, _FRAME_BYTES, _FRAME_EVERY

    payloads = [bytes(range(256)) * 9,          # 9 frames → idx 0,4,8
                b"\xff" * (_FRAME_BYTES * 4),   # 4 frames → idx 0
                b"tiny"]                        # 0 frames
    t = pa.table({"media_id": pa.array([7, 8, 9], pa.int64()),
                  "payload": pa.array(payloads, pa.large_binary())})
    out = FrameSampler()(t)
    assert out["media_id"].to_pylist() == [7, 7, 7, 8]
    assert out["frame_idx"].to_pylist() == [0, 4, 8, 0]
    means = out["f_mean"].to_pylist()
    assert means[3] == 1.0                      # all-0xff frame
    assert all(0.0 <= m <= 1.0 for m in means)


def test_media_resize_stride_kernel():
    """Resizer: payloads longer than target subsample to exactly target
    bytes with floor-stride positions; shorter ones pass through intact."""
    from olrx.ops.multimodal import MediaResizer, _RESIZE_TARGET

    long = bytes(i % 251 for i in range(5000))
    short = b"abcd" * 10
    t = pa.table({"media_id": pa.array([1, 2], pa.int64()),
                  "payload": pa.array([long, short], pa.large_binary())})
    out = MediaResizer()(t)
    got_long = out["payload"][0].as_py()
    got_short = out["payload"][1].as_py()
    assert len(got_long) == _RESIZE_TARGET
    expect = bytes(long[(i * len(long)) // _RESIZE_TARGET]
                   for i in range(_RESIZE_TARGET))
    assert got_long == expect
    assert got_short == short


def test_dedup_ngram_join_path_matches_broadcast(planted_docs):
    """The distributed co-partitioned df join (vocab above the broadcast cap)
    returns the identical pair set: forcing broadcast_vocab_cap=0 exercises
    the join + groupby(doc_id) regroup path."""
    from olrx.ops.dedup import ngram_exact_pairs

    bcast = ngram_exact_pairs(planted_docs, threshold=0.5).to_pandas()
    joined = ngram_exact_pairs(planted_docs, threshold=0.5,
                               broadcast_vocab_cap=0).to_pandas()
    assert bcast.equals(joined)


def test_connected_components_matches_union_find():
    """Distributed large-star/small-star closure (olrx/ops/cc.py) must equal
    driver union-find (min-member cluster ids) on random multigraphs,
    including duplicate edges, self loops, and a long path (the worst case
    for propagation depth)."""
    from olrx.ops.cc import connected_components

    def union_find(a, b):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in zip(a, b):
            if x == y:
                continue
            rx, ry = find(int(x)), find(int(y))
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
        return {m: find(m) for m in parent}

    rng = np.random.default_rng(3)
    cases = []
    for _ in range(2):
        a = rng.integers(0, 300, 250)
        b = rng.integers(0, 300, 250)
        cases.append((a, b))
    # path graph 0-1-2-…-120 shuffled: propagation worst case
    path = np.arange(121)
    perm = rng.permutation(120)
    cases.append((path[:-1][perm], path[1:][perm]))
    # duplicate + reversed edges
    cases.append((np.array([5, 5, 7, 9, 9]), np.array([7, 7, 5, 9, 11])))

    for a, b in cases:
        pairs = pa.table({"a": pa.array(a, pa.int64()),
                          "b": pa.array(b, pa.int64())})
        got = connected_components(pairs).to_pandas()
        got = dict(zip(got["doc_id"], got["cluster_id"]))
        assert got == union_find(a, b)


def test_dedup_minhash_dist_equals_driver(planted_docs):
    from olrx.ops.dedup import q_dedup_minhash, q_dedup_minhash_dist

    want = q_dedup_minhash(planted_docs).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    got = q_dedup_minhash_dist(planted_docs).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["doc_id", "cluster_id"]], want)


def test_corpus_sample_deterministic_and_stratified():
    """Same input → same sample (resume-stable); keep rate tracks the
    per-language permille within binomial noise; hash residues uniform."""
    from olrx.ops.sampling import (DEFAULT_RATE_PERMILLE, _digit_horner,
                                   q_corpus_sample)

    out1 = q_corpus_sample(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    out2 = q_corpus_sample(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out1, out2)
    assert 0 < len(out1)  # something kept
    # uniformity of the mod-1000 residue at scale (the mult-31 bug guard)
    h = _digit_horner(np.arange(100_000)) % 1000
    assert abs((h < DEFAULT_RATE_PERMILLE).mean() - DEFAULT_RATE_PERMILLE / 1000) < 0.02


def test_token_vocab_topk():
    """Counts match a naive pandas recount; order (cnt desc, token asc)."""
    from olrx.ops.sampling import q_token_vocab

    out = q_token_vocab(SF, k=20).to_pandas()
    texts = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    toks = texts["text"].to_pandas().fillna("").str.split(" ").explode()
    vc = toks[toks.notna() & (toks != "")].value_counts()
    expect = (vc.rename_axis("token").reset_index(name="cnt")
                .sort_values(["cnt", "token"], ascending=[False, True])
                .head(20).reset_index(drop=True))
    got = out.reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"cnt": "int64"}), expect.astype({"cnt": "int64"}))


def test_corpus_split_deterministic_ratios():
    """Every doc gets exactly one split; assignment is rerun-stable and the
    hash buckets hit the 80/10/10 design ratios at scale."""
    from olrx.ops.sampling import _digit_horner, q_corpus_split

    out = q_corpus_split(SF).to_pandas().sort_values("doc_id")
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert len(out) == n_docs
    assert set(out["split"]) <= {"train", "val", "test"}
    out2 = q_corpus_split(SF).to_pandas().sort_values("doc_id")
    assert (out["split"].to_numpy() == out2["split"].to_numpy()).all()
    b = _digit_horner(np.arange(100_000)) % 100
    assert abs((b < 80).mean() - 0.80) < 0.02
    assert abs(((b >= 80) & (b < 90)).mean() - 0.10) < 0.01


def test_token_length_quantiles_exact():
    """Histogram-path quantiles equal the naive lower-nearest-rank read of
    the fully sorted token counts."""
    from olrx.ops.sampling import _QUANTILES, q_token_length_quantiles

    out = q_token_length_quantiles(SF).to_pandas().set_index("q")["value"]
    texts = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    ntok = (texts["text"].to_pandas().fillna("")
            .str.count(r"[^ ]+").to_numpy(np.int64))
    srt = np.sort(ntok)
    for q in _QUANTILES:
        rank = max(int(np.ceil(q * len(srt))), 1)
        assert out[q] == srt[rank - 1], q


def test_events_sliding_window_covers_hops():
    """Each hopping window's count equals the sum of the four 15-min
    tumbling buckets it covers (naive pandas recount)."""
    from olrx.ops.events import q_events_sliding_window

    out = (q_events_sliding_window(SF).to_pandas()
           .sort_values(["event_type", "win_start"]).reset_index(drop=True))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["q15"] = ev["ts"].dt.floor("15min")
    tumb = ev.groupby(["event_type", "q15"]).size()
    for _, r in out.sample(50, random_state=7).iterrows():
        covered = sum(
            tumb.get((r.event_type, r.win_start + pd.Timedelta(minutes=15 * k)), 0)
            for k in range(4))
        assert r.n == covered


def test_semantic_purge_drops_worse_twin():
    """Embedding near-dup clusters resolve against documents.n_chars: every
    dropped doc's kept representative has >= its n_chars (ties to min id)."""
    from olrx.ops.dedup import q_semantic_purge

    out = q_semantic_purge(SF).to_pandas()
    assert len(out) > 0
    nch = (pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "n_chars"]).to_pandas()
           .set_index("doc_id")["n_chars"])
    for r in out.itertuples():
        assert (nch[r.kept_doc_id] > nch[r.doc_id]
                or (nch[r.kept_doc_id] == nch[r.doc_id]
                    and r.kept_doc_id < r.doc_id))
        assert r.kept_doc_id not in set(out.doc_id)


def test_tfidf_sources_naive_recount():
    """Top-k per-source TF-IDF against a naive pandas recount with the same
    fixed-point idf (integer math — exact equality, no tolerance)."""
    from olrx.ops.corpus import _IDF_SCALE, _TFIDF_TOPK, q_tfidf_sources

    out = q_tfidf_sources(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "source", "text"]).to_pandas()
    ex = docs.assign(token=docs["text"].fillna("").str.split(" ")) \
             .explode("token")
    ex = ex[ex["token"].notna() & (ex["token"] != "")]
    tf = ex.groupby(["source", "token"]) \
           .agg(tf=("doc_id", "size"), nd=("doc_id", "nunique")).reset_index()
    df_tok = tf.groupby("token")["nd"].sum()
    n = len(docs)
    tf["score"] = tf["tf"] * ((n * _IDF_SCALE) // df_tok[tf["token"]].to_numpy())
    want = (tf.sort_values(["score", "token"], ascending=[False, True])
              .groupby("source").head(_TFIDF_TOPK))
    assert len(out) == len(want)
    got = set(zip(out.source, out.token, out.score))
    exp = set(zip(want.source, want.token, want.score))
    assert got == exp
    # rank is 1..k dense per source
    for _, g in out.groupby("source"):
        assert sorted(g["rank"]) == list(range(1, len(g) + 1))


def test_source_stats_totals():
    """Per-source rollup sums reconcile with whole-corpus totals and a naive
    per-source recount of one source."""
    from olrx.ops.corpus import q_source_stats

    out = q_source_stats(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    assert out["n_docs"].sum() == len(docs)
    assert out["total_chars"].sum() == docs["text"].fillna("").str.len().sum()
    assert (out["n_good"] <= out["n_docs"]).all()
    src = out["source"].iloc[0]
    sub = docs[docs["source"] == src]
    row = out[out["source"] == src].iloc[0]
    assert row["n_docs"] == len(sub)
    assert row["n_langs"] == sub["lang"].nunique()
    ntok = (sub["text"].fillna("").str.split(" ").explode()
            .pipe(lambda s: s[(s.notna()) & (s != "")]).size)
    assert row["total_tokens"] == ntok


def test_events_value_quantiles_naive():
    """Per-type nearest-rank quantiles equal a naive sorted recount."""
    from olrx.ops.events import _VALUE_QS, q_events_value_quantiles

    out = q_events_value_quantiles(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    for (et, q), grp in out.groupby(["event_type", "q"]):
        vals = np.sort(ev.loc[ev["event_type"] == et, "value"].to_numpy())
        rank = int(np.ceil(q * len(vals)))
        assert grp["value"].iloc[0] == vals[rank - 1], (et, q)
    assert len(out) == ev["event_type"].nunique() * len(_VALUE_QS)


def test_to_cents_matches_duckdb_round():
    """to_cents rounds half AWAY FROM ZERO like DuckDB's round() — np.rint's
    half-to-even diverged on exact k+0.5 floats (ADVICE r4 #3)."""
    import duckdb
    import numpy as np

    from olrx.ops.events import to_cents

    vals = np.array([0.125, -0.125, 0.115, -0.115, 1.005, 2.675, -2.675,
                     0.0, 12.345, -12.345, 190.36, 0.005, -0.005])
    got = to_cents(vals)
    want = duckdb.sql(
        "SELECT CAST(round(v * 100) AS BIGINT) AS c "
        "FROM (SELECT unnest($vals) AS v)",
        params={"vals": vals.tolist()},
    ).fetchnumpy()["c"]
    assert (got == want).all(), list(zip(vals, got, want))


def test_lsh_oversized_bucket_is_logged_not_printed(caplog, capsys):
    """A bucket over the cap is dropped with a warning on the module
    logger; nothing reaches stdout."""
    import logging

    from olrx.ops.dedup import _segment_pair_rows

    keys = (np.array([1] * 5 + [2] * 2, np.int64),)
    with caplog.at_level(logging.WARNING, logger="olrx.ops.dedup"):
        a, b = _segment_pair_rows(keys, np.arange(7, dtype=np.int64), cap=3,
                                  label="neardup-lsh")
    assert capsys.readouterr().out == ""
    assert "neardup-lsh: skipping oversized bucket (5 rows)" in caplog.text
    assert list(zip(a.tolist(), b.tolist())) == [(5, 6)]
