"""Segment-primitive grouping ops (``ops/groups.segment_map``) against
their DuckDB twins on MULTI-BLOCK inputs — the partials of one key come
from several blocks — plus a pin on the exchange count of the grouping
queries, so a change that re-adds an exchange fails here."""

from __future__ import annotations

import datetime as dt
import logging
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import SF_DIR

N_BLOCKS = 4


def _multi_block(tmp_path, name: str, parts: list[pa.Table]):
    """One parquet file per part, read back as (at least) one block
    per part."""
    import ray.data as rd

    d = tmp_path / name
    d.mkdir()
    for i, t in enumerate(parts):
        pq.write_table(t, d / f"part-{i}.parquet")
    ds = rd.read_parquet(str(d), override_num_blocks=N_BLOCKS)
    return ds, pa.concat_tables(parts)


def _sql(table_name: str, table: pa.Table, sql: str):
    import duckdb

    con = duckdb.connect()
    con.register(table_name, table)
    try:
        return con.sql(sql).df()
    finally:
        con.close()


def _rows(df, cols):
    return sorted(tuple(r) for r in df[cols].itertuples(index=False))


# ------------------------------------------------------------ sessionize


def _events(rows) -> pa.Table:
    return pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "value": pa.array([r[3] for r in rows], pa.float64())})


def test_sessionize_multi_block_matches_sql(ray_session, tmp_path):
    from kgruntime.ops.sessions import SESSIONIZE_SQL, sessionize

    t0 = dt.datetime(2024, 1, 1)
    m = dt.timedelta(minutes=1)
    us = dt.timedelta(microseconds=1)
    parts = [
        # user 1: equal ts with different event_id; a gap of exactly
        # 30 min (no split), then 30 min + 1 µs (split)
        _events([(2, t0, 1, 1.0), (7, t0 + 30 * m, 1, 2.0)]),
        _events([(1, t0, 1, 0.5), (9, t0 + 60 * m + us, 1, 4.0),
                 (20, t0, 2, 3.25)]),            # user 2: one event
        # user 3: negative half-cents (-0.5 and -12.5 cents round away
        # from zero), across blocks
        _events([(30, t0, 3, -0.005), (31, t0 + 5 * m, 3, -0.125)]),
        _events([(32, t0 + 10 * m, 3, 0.125), (33, t0 + 99 * m, 3, -2.5),
                 (8, t0 + 30 * m, 1, 0.25)]),
    ]
    ds, whole = _multi_block(tmp_path, "events", parts)
    out = sessionize(ds)
    got = out.to_pandas()
    want = _sql("events", whole, SESSIONIZE_SQL)
    cols = ["user_id", "session_start", "n_events", "total_value"]
    assert _rows(got, cols) == _rows(want, cols)
    assert len(got) == 5
    # the output schema is the one the per-user pandas kernel produced
    schema = pa.schema([("user_id", pa.int64()),
                        ("session_start", pa.timestamp("us")),
                        ("n_events", pa.int64()),
                        ("total_value", pa.float64())])
    assert pa.schema(list(out.schema().base_schema)) == schema


# ------------------------------------------------ per-user timeline ops


def _timeline_parts() -> list[pa.Table]:
    """Events for the per-user operators of ``ops/sessions.py``, dealt
    round-robin over ``N_BLOCKS`` parts so most users span blocks."""
    import random

    t0 = dt.datetime(2024, 3, 1, 9)
    m = dt.timedelta(minutes=1)
    us = dt.timedelta(microseconds=1)
    rows = [
        # user 1: equal ts with different event_id (and type), a gap of
        # exactly 30 min (no split), then 30 min + 1 µs (split)
        (2, t0, 1, "view", 1.0), (1, t0, 1, "click", 0.5),
        (7, t0 + 30 * m, 1, "purchase", 2.0),
        (9, t0 + 60 * m + us, 1, "purchase", 4.0),
        (20, t0, 2, "view", 3.25),                     # user 2: one event
        # user 3: negative half-cents; clicks 3 min apart (the 5-min
        # window dedup keeps 0 and 6)
        (30, t0, 3, "click", -0.005), (31, t0 + 3 * m, 3, "click", -0.125),
        (32, t0 + 6 * m, 3, "click", 0.125),
        (33, t0 + 9 * m, 3, "purchase", -2.5),
    ]
    # users 40-44 share one (view, hour) bucket: over a cap of 3
    rows += [(40 + i, t0 + 5 * 60 * m + i * m, 40 + i, "view", 0.01 * i)
             for i in range(5)]
    # user 50: a 10-second cadence (a bot)
    rows += [(50 + i, t0 + dt.timedelta(seconds=10 * i), 50, "click", 0.0)
             for i in range(8)]
    # users 10-17 (10 and 13 in markov's test split): three days of
    # random traffic
    rng = random.Random(5)
    for i in range(150):
        rows.append((100 + i, t0 + rng.randrange(3 * 24 * 60) * m,
                     rng.randrange(10, 18),
                     rng.choice(["view", "view", "click", "purchase"]),
                     rng.choice([-0.005, 0.125, 1.5, 2.675, -3.0, 10.0])))
    return [_typed_events(rows[i::N_BLOCKS]) for i in range(N_BLOCKS)]


def _typed_events(rows) -> pa.Table:
    return pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64())})


# the registered queries whose per-user (or per-bucket) work runs as
# segment_map kernels in ops/sessions.py
TIMELINE_QUERIES = [
    "user_gap_stats", "running_user_totals", "event_transitions",
    "funnel_counts", "retention_cohorts", "cooccurrence_edges",
    "windowed_event_dedup", "event_path_trigrams",
    "session_conversion_by_dow", "purchase_click_window",
    "click_attribution", "session_incident_overlap", "user_hourly_locf",
    "user_active_time", "bot_regularity", "pit_training_features",
    "markov_next_event", "peak_user_rate", "conversion_delay_pcts"]


def _df(res):
    import pandas as pd

    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


@pytest.mark.parametrize("query", TIMELINE_QUERIES)
def test_timeline_query_multi_block_matches_sql(ray_session, tmp_path,
                                                query):
    import ray.data as rd

    import __ray_entry__ as E

    spec = next(q for q in E._QUERIES if q.name == query)
    if query == "cooccurrence_edges":
        spec = spec._replace(kw=dict(cap=3))
    op, sql = E._resolve(spec.op), E._sql_text(spec)
    ds, whole = _multi_block(tmp_path, "events", _timeline_parts())
    want = _sql("events", whole, sql)
    cols = list(want.columns)
    assert len(want)
    assert _rows(_df(op(ds, **spec.kw)), cols) == _rows(want, cols)
    # a zero-row input gives zero rows on both sides
    empty = whole.slice(0, 0)
    assert len(_df(op(rd.from_arrow(empty), **spec.kw))) == 0
    assert len(_sql("events", empty, sql)) == 0


def test_segment_searchsorted_matches_per_segment():
    import numpy as np

    from kgruntime.ops.groups import segment_searchsorted

    rng = np.random.default_rng(0)
    big = np.iinfo(np.int64).max
    for _ in range(200):
        segs = [np.sort(rng.choice([-big, -3, 0, 2, 5, big],
                                   rng.integers(0, 6)))
                for _ in range(rng.integers(1, 5))]
        seg = np.concatenate([np.full(len(v), i, np.int64)
                              for i, v in enumerate(segs)])
        vals = np.concatenate(segs).astype(np.int64)
        first = np.cumsum([0] + [len(v) for v in segs])
        pseg = rng.integers(0, len(segs), 6)
        probes = rng.choice([-big, -3, 0, 1, 2, 5, big], 6)
        want = [first[s] + np.searchsorted(segs[s], p)
                for s, p in zip(pseg, probes)]
        assert segment_searchsorted(seg, vals, pseg, probes).tolist() == want


def test_segment_map_kernel_sees_no_schema_metadata(ray_session,
                                                    tmp_path):
    """A parquet file written from pandas carries schema metadata that
    the exchange cannot hash (one warning per block): the key step
    drops it, so the kernel sees none."""
    import pandas as pd
    import ray.data as rd

    from kgruntime.ops.groups import segment_map

    path = tmp_path / "t.parquet"
    pq.write_table(pa.Table.from_pandas(
        pd.DataFrame({"k": [1, 2, 1], "v": [1, 2, 3]})), path)
    assert pq.read_schema(path).metadata

    def seen(t: pa.Table, starts) -> pa.Table:
        return pa.table({"bare": [t.schema.metadata is None] * t.num_rows})

    out = segment_map(rd.read_parquet(str(path)), "k", seen).to_pandas()
    assert len(out) == 3 and out["bare"].all()


# ---------------------------------------------------------- prefix scan


def _ref_scan(t: pa.Table, op):
    """(id, before) of the global exclusive ``op``-scan of ``v`` in
    (b, o, id) order: one sort, then np.cumsum / np.maximum.accumulate."""
    import numpy as np

    order = np.lexsort((t["id"].to_numpy(), t["o"].to_numpy(),
                        t["b"].to_numpy()))
    v = t["v"].to_numpy()[order]
    first = 0 if op is np.add else np.iinfo(np.int64).min
    before = op.accumulate(np.r_[first, v[:-1]]) if len(v) else v
    return sorted(zip(t["id"].to_numpy()[order].tolist(), before.tolist()))


def test_prefix_scan_matches_sorted_reference(ray_session, monkeypatch):
    """Random buckets (negative ones too), a tie-heavy order column and
    negative values, dealt over several blocks; both ops; a single
    bucket; an empty input.  Every case's first row sees the op's
    identity (int64 min for max).  Two coarse buckets, so most coarse
    blocks hold several scan buckets."""
    import numpy as np
    import ray.data as rd

    from kgruntime.ops import join
    from kgruntime.ops.groups import prefix_scan

    monkeypatch.setattr(join, "default_num_buckets", lambda: 2)

    def with_before(block: pa.Table, before) -> pa.Table:
        return pa.table({"id": block["id"],
                         "before": pa.array(before, pa.int64())})

    rng = np.random.default_rng(13)
    cases = [(int(rng.integers(1, 300)), int(rng.integers(1, 12)))
             for _ in range(3)] + [(50, 1), (0, 3)]
    for n, n_buckets in cases:
        t = pa.table({
            "id": pa.array(rng.permutation(n), pa.int64()),
            "b": pa.array(rng.integers(-3, n_buckets - 3, n), pa.int64()),
            "o": pa.array(rng.integers(0, 4, n), pa.int64()),
            "v": pa.array(rng.integers(-1000, 1000, n), pa.int64())})
        step = max(1, (n + 3) // 4)
        ds = rd.from_arrow([t.slice(i, step) for i in range(0, n, step)]
                           or [t])
        for op in (np.add, np.maximum):
            res = prefix_scan(ds, lambda b: b, "b", ["o", "id"], "v", op,
                              with_before)
            assert res.schema().names == ["id", "before"]
            got = sorted((r["id"], r["before"]) for r in res.take_all())
            assert got == _ref_scan(t, op), (n, n_buckets, op)


# ------------------------------------------------------------- fold


def test_fold_matches_pandas_groupby(ray_session):
    """Random int keys (negative ones too, one or two key columns) and
    values dealt over several blocks, so most groups have partials in
    several blocks; sum/count/min/max against one pandas groupby; a
    zero-row input gives a zero-row table of the same columns."""
    import numpy as np
    import ray.data as rd

    from kgruntime.ops.groups import fold

    aggs = {"s": ("sum", "v"), "n": ("count", None),
            "lo": ("min", "v"), "hi": ("max", "v")}
    rng = np.random.default_rng(29)
    for n, n_keys in [(int(rng.integers(50, 400)), 7), (300, 1),
                      (200, 90)]:
        t = pa.table({
            "a": pa.array(rng.integers(-3, n_keys - 3, n), pa.int64()),
            "b": pa.array(rng.integers(0, 2, n), pa.int64()),
            "v": pa.array(rng.integers(-10 ** 12, 10 ** 12, n),
                          pa.int64())})
        step = max(1, (n + 4) // 5)
        ds = rd.from_arrow([t.slice(i, step) for i in range(0, n, step)])
        for keys in (["a"], ["a", "b"]):
            got = fold(ds, keys, aggs)
            want = t.to_pandas().groupby(keys, sort=True).agg(
                s=("v", "sum"), n=("v", "size"), lo=("v", "min"),
                hi=("v", "max")).reset_index()
            assert got.column_names == [*keys, "s", "n", "lo", "hi"]
            assert got.to_pandas().to_dict("list") == \
                want.to_dict("list"), (n, n_keys, keys)
    empty = fold(rd.from_arrow(t.slice(0, 0)), ["a"], aggs)
    assert empty.num_rows == 0
    assert empty.column_names == ["a", "s", "n", "lo", "hi"]


def test_fold_integer_sum_never_wraps(ray_session):
    """int64 values whose sum leaves int64 only when the two blocks'
    partials merge raise OverflowError (Arrow's int64 sum wraps them to
    a negative number); the same values as decimal128 sum to the exact
    Python-int total and stay decimal."""
    import ray.data as rd

    from kgruntime.ops.groups import fold

    vals = [2 ** 62, 2 ** 62 - 1, 2 ** 62, 3]
    blocks = [pa.table({"k": pa.array([1, 1], pa.int64()),
                        "v": pa.array(vals[i:i + 2], pa.int64())})
              for i in (0, 2)]
    with pytest.raises(OverflowError):
        fold(rd.from_arrow(blocks), "k", {"s": ("sum", "v")})
    dec = [b.set_column(1, "v", b["v"].cast(pa.decimal128(38, 0)))
           for b in blocks]
    got = fold(rd.from_arrow(dec), "k", {"s": ("sum", "v")})
    assert pa.types.is_decimal128(got.schema.field("s").type)
    assert [int(x) for x in got["s"].to_pylist()] == [sum(vals)]


# ------------------------------------------ queries on groups.fold


def _fold_docs() -> list[pa.Table]:
    """Documents for the fold queries in ``N_BLOCKS`` parts: sources
    s0-s2 in every part, a null source and a genuine '' source, source
    ``solo`` and language ``fr`` in one part only; exact and casefold
    copies of earlier texts; a one-word text (no bigram)."""
    import random

    rng = random.Random(23)
    words = ["data", "table", "query", "merge", "batch", "vector", "the",
             "scan", "join", "order", "of", "stream", "window", "and",
             "der", "und", "die", "Haus", "zeit", "le", "et", "la"]
    sources = ["s0", "s1", "s2", None, ""]
    parts = []
    for b in range(N_BLOCKS):
        rows = []
        for i in range(14):
            doc_id = 100 * b + i
            text = " ".join(rng.choice(words)
                            for _ in range(rng.randint(20, 45)))
            if b and i in (3, 4):       # copies of earlier parts' texts
                prev = parts[b - 1]["text"][i].as_py()
                text = prev if i == 3 else prev.upper()
            if b == 1 and i == 5:
                text = "lonely"
            lang = ["en", "en", "de"][i % 3] if b != 2 or i else "fr"
            src = "solo" if b == 2 and i == 7 else sources[i % 5]
            rows.append((doc_id, text, lang, src))
        parts.append(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
            "source": pa.array([r[3] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64())}))
    return parts


def _fold_events() -> list[pa.Table]:
    """Events for the fold queries in ``N_BLOCKS`` parts, users
    spanning parts; event type ``refund`` in one part only; a burst
    hour (incident hours), two outlying values (anomalies) and
    negative values."""
    import random

    rng = random.Random(29)
    t0 = dt.datetime(2024, 2, 1, 6)
    rows = []
    for i in range(160):
        kind = "refund" if i in (41, 45, 49) else rng.choice(
            ["view", "view", "click", "purchase"])
        minute = 11 * i + rng.randrange(9) if i % 10 else 300 + i // 10
        rows.append((i, t0 + dt.timedelta(minutes=minute),
                     rng.randrange(9), kind,
                     5000.0 if i in (17, 90) else
                     rng.choice([0.0, 0.125, -1.5, 2.675, -2.675, 9.99,
                                 250.0])))
    parts = []
    for b in range(N_BLOCKS):
        t = _typed_events(rows[b::N_BLOCKS])
        parts.append(t.append_column("props", pa.array(
            ['{"k": %d}' % (r % 3) for r in range(t.num_rows)],
            pa.string())))
    return parts


def _canon_rows(df, cols):
    """Order-free rows as strings; a null (None, NaN) reads "null" and an
    integral float reads as an int, so dtypes of the two engines agree."""
    import pandas as pd

    def canon(v):
        if v is None or (not isinstance(v, str) and pd.isna(v)):
            return "null"
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return str(v)

    return sorted(tuple(canon(v) for v in r)
                  for r in df[cols].itertuples(index=False))


# the registered queries whose driver-side aggregate is one groups.fold
# and whose input is the documents or the events table
FOLD_QUERIES = [
    "hll_distinct_users", "cms_heavy_bigrams", "set_sim_join_pairs",
    "cdc_upsert_merge", "dedup_sensitivity_sweep", "langid_mismatch",
    "langid_confusion", "dsir_importance", "loo_source_influence",
    "quality_threshold_sweep", "source_token_budget", "encoding_advisor",
    "session_incident_overlap", "markov_next_event", "zscore_by_source",
    "event_anomalies", "tumbling_hourly", "hopping_2h_1h",
    "event_transitions", "funnel_counts", "retention_cohorts",
    "event_path_trigrams", "session_conversion_by_dow",
    "hll_hopping_users", "stickiness_dau_mau", "events_profile",
    "dp_noisy_counts", "benford_audit", "vocab_per_lang",
    "source_mix_weights", "trigram_diversity", "feature_cross_hash",
    "temperature_mix_sample", "bootstrap_stats", "dup_rate_by_source",
    "cluster_safe_split", "source_overlap_matrix", "padding_waste",
    "range_partition_plan", "zorder_layout_audit", "bitmap_index_queries",
    "k_anonymity_audit", "composition_drift", "bpe_fertility"]

# the queries whose twin answers an empty table with rows the op does
# not give: SQL's sum over no rows is NULL where the op gives 0, and an
# aggregate with no GROUP BY key (or a grand total, or a VALUES list)
# gives a row where the op gives none; their zero-row case checks the
# op's columns only
EMPTY_TWIN_ROWS = {"events_profile", "benford_audit", "feature_cross_hash",
                   "range_partition_plan", "bitmap_index_queries",
                   "k_anonymity_audit", "rollup_region_nation",
                   "revenue_cube"}


@pytest.mark.parametrize("query", FOLD_QUERIES)
def test_fold_query_multi_block_matches_sql(ray_session, tmp_path,
                                            monkeypatch, query):
    """Each fold query through its registry op and its DuckDB twin, on
    a 4-block input and on a zero-row one."""
    import ray.data as rd

    import __ray_entry__ as E

    spec = next(q for q in E._QUERIES if q.name == query)
    parts = _fold_docs() if spec.src == "documents" else _fold_events()
    for name, ps in (("blocks", parts), ("empty", [parts[0].slice(0, 0)])):
        d = tmp_path / name
        d.mkdir()
        for i, t in enumerate(ps):
            pq.write_table(t, d / f"part-{i}.parquet")

        def read(sf_dir, table, cols=None, d=d, n=len(ps)):
            return rd.read_parquet(str(d), override_num_blocks=n,
                                   columns=cols or E._READ_COLS.get(table))

        monkeypatch.setattr(E, "_read", read)
        want = _sql(spec.src, pa.concat_tables(ps), E._sql_text(spec))
        cols = list(want.columns)
        got = _df(E.run(spec, str(tmp_path)))
        if name == "blocks":
            assert len(want)
        elif not set(cols) <= set(got.columns):
            # Ray drops the schema of an all-empty Dataset
            assert len(got) == len(want) == 0
            continue
        elif query in EMPTY_TWIN_ROWS:
            continue
        assert _canon_rows(got, cols) == _canon_rows(want, cols), name


# the relational queries whose bounded aggregate is one groups.fold:
# (the fact table their zero-row case empties, their exchanges — the
# bucketed joins' and those on a key that grows with the rows: the
# discounted order keys, the (type, user) pairs, the (customer, type)
# pairs and the customers)
TPCH_FOLD_QUERIES = {
    "pricing_summary": ("lineitem", 0), "orders_by_status": ("orders", 0),
    "customers_per_region": ("customer", 0),
    "events_by_type_day": ("events", 0), "parts_by_brand": ("part", 0),
    "revenue_by_part_type": ("lineitem", 0),
    "discounted_orders": ("orders", 1),
    "distinct_users_per_type": ("events", 1), "value_bands": ("events", 0),
    "local_supplier_revenue": ("lineitem", 3),
    "props_k_stats": ("events", 0), "rollup_region_nation": ("customer", 0),
    "monthly_revenue_ma3": ("orders", 0), "events_dow_hour": ("events", 0),
    "orders_priority_share": ("orders", 0),
    "nation_trade_volume": ("lineitem", 3),
    "bloom_filtered_brand_revenue": ("lineitem", 0),
    "revenue_cube": ("orders", 0), "basket_affinity": ("lineitem", 6)}


@pytest.mark.skipif(not os.path.isdir(SF_DIR),
                    reason=f"the TPC-H tables ({SF_DIR}) are absent")
@pytest.mark.parametrize("query", sorted(TPCH_FOLD_QUERIES))
def test_tpch_fold_query_multi_block_matches_sql(ray_session, tmp_path,
                                                 query):
    """Each relational fold query against its DuckDB twin, with every
    table of ``SF_DIR`` in ``N_BLOCKS`` files, and with its fact table
    at zero rows, where it keeps its columns; the exchanges are pinned
    on the first."""
    import duckdb

    import __ray_entry__ as E

    spec = next(q for q in E._QUERIES if q.name == query)
    fact, exchanges = TPCH_FOLD_QUERIES[query]
    tables = {f[:-len(".parquet")]: pq.read_table(os.path.join(SF_DIR, f))
              for f in os.listdir(SF_DIR) if f.endswith(".parquet")}
    for name in ("blocks", "empty"):
        con = duckdb.connect()
        for t, tab in tables.items():
            if name == "empty" and t == fact:
                tab = tab.slice(0, 0)
            d = tmp_path / name / f"{t}.parquet"
            d.mkdir(parents=True)
            step = -(-tab.num_rows // N_BLOCKS)
            for i in range(N_BLOCKS):
                pq.write_table(tab.slice(i * step, step),
                               d / f"part-{i}.parquet")
            con.register(t, tab)
        want = con.sql(E._sql_text(spec)).df()
        con.close()
        cols = list(want.columns)
        counter = _PlanCounter()
        logger = logging.getLogger("ray.data")
        logger.addHandler(counter)
        try:
            got = _df(E.run(spec, str(tmp_path / name)))
        finally:
            logger.removeHandler(counter)
        if name == "blocks":
            assert len(want)
            assert counter.exchanges == exchanges
        assert set(cols) <= set(got.columns), name
        if name == "blocks" or query not in EMPTY_TWIN_ROWS:
            assert _canon_rows(got, cols) == _canon_rows(want, cols), name


def test_moment_ops_exact_past_int64_match_sql(ray_session):
    """zscore_by_source, event_anomalies and grouped_corr against their
    twins where Σx² (and Σxy, Σy²) of a key passes 2^63 only across
    blocks: each 4096-row block (one batch of the ops' partials) keeps
    its own sums inside int64."""
    import ray.data as rd

    from kgruntime.ops import stats
    from kgruntime.relational import Q_CORR_QTY_PRICE_SQL

    n, rows = 4 * 4096, 4096
    # x ≈ 3.9e7, x² ≈ 1.5e15: 2048 per key and block stay below 2^63,
    # the key's 8192 pass it; one outlier per key is the anomaly
    xs = [39_000_000 + (i * 7919) % 1_000_003 for i in range(n)]
    xs[777], xs[9000] = 390_000_000, 390_000_001
    keys = ["a", "b"] * (n // 2)

    def blocks(t: pa.Table):
        return rd.from_arrow([t.slice(i, rows) for i in range(0, n, rows)])

    assert sum(x * x for x in xs[::2]) > 2 ** 63
    assert max(sum(x * x for x in xs[i:i + rows:2])
               for i in range(0, n, rows)) < 2 ** 63
    docs = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "source": keys, "n_chars": pa.array(xs, pa.int64())})
    got = stats.zscore_by_source(blocks(docs)).to_pandas()
    want = _sql("documents", docs, stats.zscore_by_source_sql())
    cols = list(want.columns)
    assert _canon_rows(got, cols) == _canon_rows(want, cols)

    ev = pa.table({"event_id": pa.array(range(n), pa.int64()),
                   "event_type": keys,
                   "value": pa.array([x / 100 for x in xs], pa.float64())})
    got = stats.event_anomalies(blocks(ev)).to_pandas()
    want = _sql("events", ev, stats.event_anomalies_sql())
    cols = list(want.columns)
    assert len(want)
    assert _canon_rows(got, cols) == _canon_rows(want, cols)

    li = pa.table({"l_returnflag": keys,
                   "l_quantity": pa.array([float(x) for x in xs]),
                   "l_extendedprice": pa.array(
                       [(x + 3 * (i % 3)) / 100 for i, x in enumerate(xs)])})
    got = stats.grouped_corr(blocks(li), "l_returnflag", "l_quantity",
                             "l_extendedprice", out="corr_qty_price")
    want = _sql("lineitem", li, Q_CORR_QTY_PRICE_SQL)
    cols = list(want.columns)
    assert _canon_rows(got, cols) == _canon_rows(want, cols)


# ------------------------------------------------------------- cogroup


def test_cogroup_hands_fn_every_row_of_a_key_from_both_sides(ray_session,
                                                              monkeypatch):
    """Int and string keys over 4 left × 3 right blocks and two coarse
    buckets: keys on both sides, on the left only, on the right only,
    and a right side of one key (so some coarse block has no right
    rows).  ``id`` and ``v`` are columns of both sides, with other
    types.  Every row reaches ``fn`` once, with its own side's schema,
    and all rows of one key, from both sides, reach one call."""
    import uuid

    import numpy as np
    import ray.data as rd

    from kgruntime.ops import join
    from kgruntime.ops.groups import cogroup, collect

    monkeypatch.setattr(join, "default_num_buckets", lambda: 2)
    rng = np.random.default_rng(23)

    def blocks(t: pa.Table, n: int):
        step = -(-t.num_rows // n)
        return rd.from_arrow([t.slice(i, step)
                              for i in range(0, t.num_rows, step)])

    for str_keys in (False, True):
        for lo, hi in ((20, 50), (49, 50)):
            lk, rk = rng.integers(0, 30, 120), rng.integers(lo, hi, 90)
            if str_keys:
                lk, rk = ([f"k{v}" for v in k] for k in (lk, rk))
            left = pa.table({"lk": lk, "id": pa.array(range(120), pa.int64()),
                             "v": rng.random(120)})
            right = pa.table({"rk": rk,
                              "id": pa.array(range(1000, 1090), pa.int32()),
                              "v": [f"r{i}" for i in range(90)]})

            def seen(lt: pa.Table, rt: pa.Table) -> pa.Table:
                assert lt.schema == left.schema and rt.schema == right.schema
                n = lt.num_rows + rt.num_rows
                return pa.table({
                    "call": pa.array([uuid.uuid4().int >> 65] * n, pa.int64()),
                    "right_rows": pa.array([rt.num_rows] * n, pa.int64()),
                    "key": [str(k) for k in lt["lk"].to_pylist()
                            + rt["rk"].to_pylist()],
                    "id": pa.array(lt["id"].to_pylist()
                                   + rt["id"].to_pylist(), pa.int64())})

            out = collect(cogroup(blocks(left, 4), blocks(right, 3),
                                  "lk", "rk", seen))
            ids = out["id"].to_pylist()
            want = dict(zip(left["id"].to_pylist() + right["id"].to_pylist(),
                            map(str, left["lk"].to_pylist()
                                + right["rk"].to_pylist())))
            assert len(ids) == len(want)
            assert dict(zip(ids, out["key"].to_pylist())) == want
            calls = {}
            for k, c in zip(out["key"].to_pylist(), out["call"].to_pylist()):
                calls.setdefault(k, set()).add(c)
            assert all(len(c) == 1 for c in calls.values()), (str_keys, lo)
            if hi - lo == 1:
                assert min(out["right_rows"].to_pylist()) == 0


def _scan_docs() -> list[pa.Table]:
    """Documents over several 4096-id scan buckets, with 0-token texts
    (empty and all-space), dealt round-robin over ``N_BLOCKS`` parts."""
    import random

    rng = random.Random(17)
    rows = []
    for i in range(70):
        n = rng.choice([0, 0, 1, 3, 5, 8, 13])
        text = " ".join(rng.choice(["ab", "cd", "efg"]) for _ in range(n))
        if n == 0 and i % 2:
            text = "   "
        rows.append((i * 1500 + rng.randrange(1000), text))
    return [_docs(rows[i::N_BLOCKS]).append_column(
        "n_chars", pa.array([len(r[1]) for r in rows[i::N_BLOCKS]],
                            pa.int64())) for i in range(N_BLOCKS)]


def _scan_events() -> list[pa.Table]:
    """Events over several 4096-id and arrival-hour buckets, out of
    event-time order, with equal ts on different events."""
    import random

    rng = random.Random(19)
    t0 = dt.datetime(2024, 5, 1)
    rows = []
    for i in range(120):
        ts = t0 + dt.timedelta(minutes=rng.randrange(0, 48 * 60, 20))
        rows.append((i * 1000 + rng.randrange(900), ts, 1, rng.choice(
            ["view", "click", "purchase"]), 1.0))
    return [_typed_events(rows[i::N_BLOCKS]) for i in range(N_BLOCKS)]


SCAN_QUERIES = ["token_shards", "pack_sequences", "curriculum_order",
                "late_event_audit", "streaming_emit_audit"]


@pytest.mark.parametrize("query", SCAN_QUERIES)
def test_scan_query_multi_block_matches_sql(ray_session, tmp_path, query):
    import __ray_entry__ as E

    spec = next(q for q in E._QUERIES if q.name == query)
    if query in ("token_shards", "pack_sequences"):
        spec = spec._replace(kw=dict(budget=20))    # several shards
    table = "events" if "audit" in query else "documents"
    parts = _scan_events() if table == "events" else _scan_docs()
    ds, whole = _multi_block(tmp_path, table, parts)
    want = _sql(table, whole, E._sql_text(spec))
    cols = list(want.columns)
    assert len(want) > 1
    got = _df(E._resolve(spec.op)(ds, **spec.kw))
    assert _rows(got, cols) == _rows(want, cols)


# -------------------------------------------------- posting-list pairs


def _docs(rows) -> pa.Table:
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "text": pa.array([r[1] for r in rows], pa.string())})


def _posting_parts(max_df: int) -> list[pa.Table]:
    """Texts built of two-word keys ("hot key", ...):
    - "hot key" exceeds max_df inside block 0 (an overflow marker there)
      and has a two-doc list in block 1: no pairs;
    - "wide key" sits in max_df + 1 docs, never more than 2 per block
      (no marker anywhere): no pairs;
    - "rare key" is in max_df docs over three blocks, doc 5 twice (the
      same document in two partial rows): pairs;
    - "pair key" is in docs 5 and 6: one pair, which "rare key" also
      contributes to."""
    hot = [(100 + i, f"hot key x{i}") for i in range(max_df + 1)]
    return [
        _docs(hot + [(5, "rare key pair key u0"), (40, "wide key z0"),
                     (41, "wide key z1")]),
        _docs([(200, "hot key y0"), (201, "hot key y1"),
               (5, "rare key pair key u0"), (42, "wide key z2")]),
        _docs([(6, "rare key pair key u1")]
              + [(43 + i, f"wide key z{3 + i}") for i in range(max_df - 2)]),
        _docs([(7, "rare key u2")]),
    ]


def test_rare_token_pairs_multi_block_matches_sql(ray_session, tmp_path):
    from kgruntime.ops.dedup import rare_token_pairs, rare_token_pairs_sql

    max_df = 3
    ds, whole = _multi_block(tmp_path, "docs", _posting_parts(max_df))
    got = rare_token_pairs(ds, max_df=max_df).to_pandas()
    want = _sql("documents", whole, rare_token_pairs_sql(max_df=max_df))
    cols = ["doc_a", "doc_b", "n_shared_rare"]
    assert _rows(got, cols) == _rows(want, cols)
    pairs = {(a, b): n for a, b, n in _rows(got, cols)}
    assert pairs[(5, 6)] == 3          # "rare key", "key pair", "pair key"
    assert (5, 7) in pairs and (6, 7) in pairs
    assert not any(a >= 40 or b >= 40 for a, b in pairs)
    assert (200, 201) not in pairs


def test_winnow_dup_pairs_multi_block_matches_sql(ray_session, tmp_path):
    """k=1, w=1 selects every token as a fingerprint, so the posting
    lists are the documents' token sets."""
    from kgruntime.ops.dedup import winnow_dup_pairs, winnow_dup_pairs_sql

    max_df = 3
    kw = dict(k=1, w=1, max_df=max_df, min_shared=1)
    ds, whole = _multi_block(tmp_path, "docs", _posting_parts(max_df))
    got = winnow_dup_pairs(ds, **kw).to_pandas()
    want = _sql("documents", whole, winnow_dup_pairs_sql(**kw))
    cols = ["doc_a", "doc_b", "n_shared"]
    assert _rows(got, cols) == _rows(want, cols)
    pairs = {(a, b): n for a, b, n in _rows(got, cols)}
    assert pairs[(5, 6)] == 2          # "rare", "pair" ("key" is hot)
    assert not any(a >= 40 or b >= 40 for a, b in pairs)


# ------------------------------------------------------------ linkage


def test_fuzzy_name_matches_multi_block_matches_sql(ray_session, tmp_path):
    """'red apple' is spread over three blocks (its n must be summed);
    the token 'blue' has five distinct names over the blocks, more than
    ``cap`` = 3, none of them more than 2 per block."""
    from kgruntime.ops.linkage import (fuzzy_name_matches,
                                       fuzzy_name_matches_sql)

    def part(names):
        return pa.table({"p_name": pa.array(names, pa.string())})

    parts = [part(["red apple", "blue a4", "blue a1"]),
             part(["red apple", "red appla", "blue a5"]),
             part(["red apple", "blue a2"]),
             part(["blue a3", "red appla", "blue a1"])]
    ds, whole = _multi_block(tmp_path, "part", parts)
    got = fuzzy_name_matches(ds, max_dist=3, cap=3).to_pandas()
    want = _sql("part", whole, fuzzy_name_matches_sql(max_dist=3, cap=3))
    cols = ["name_a", "name_b", "dist", "n_a", "n_b"]
    assert _rows(got, cols) == _rows(want, cols)
    rows = {(a, b): (d, na, nb) for a, b, d, na, nb in _rows(got, cols)}
    assert rows[("red appla", "red apple")] == (1, 2, 3)
    # capped to blue a1..a3: a4/a5 only share 'blue' with the others
    assert set(rows) == {("red appla", "red apple"), ("blue a1", "blue a2"),
                         ("blue a1", "blue a3"), ("blue a2", "blue a3")}


# ---------------------------------------------------------------- rfm


def test_rfm_segments_multi_block_band_ties_match_sql(ray_session,
                                                      tmp_path):
    """Ten users whose freq / mon_cents / rec_days tie across the band
    boundaries of 5 bands (rank cut points 2, 4, 6, 8), spread over
    blocks."""
    from kgruntime.ops.sessions import rfm_segments, rfm_segments_sql

    t0 = dt.datetime(2024, 1, 1)
    freq = [1, 1, 2, 2, 2, 3, 3, 4, 4, 4]
    cents = [100, 100, 250, 250, 100, 300, 300, 300, 50, 50]
    days = [0, 0, 3, 3, 3, 9, 1, 1, 0, 5]
    rows, eid = [], 0
    for u in range(10):
        for j in range(freq[u]):
            # the user's total is cents[u]; the last event is days[u]
            # days before the global max
            v = cents[u] / 100 if j == 0 else 0.0
            rows.append((eid, t0 - dt.timedelta(days=days[u], hours=j),
                         u, v))
            eid += 1
    parts = [_events(rows[i::N_BLOCKS]) for i in range(N_BLOCKS)]
    ds, whole = _multi_block(tmp_path, "events", parts)
    got = rfm_segments(ds, n_bands=5).to_pandas()
    want = _sql("events", whole, rfm_segments_sql(n_bands=5))
    cols = ["user_id", "rec_days", "freq", "mon_cents", "r_score",
            "f_score", "m_score", "rfm"]
    assert _rows(got, cols) == _rows(want, cols)
    f = dict(zip(got["user_id"], got["f_score"]))
    assert f[2] == f[3] == f[4] and f[7] == f[8] == f[9]


# ---------------------------------------------------- ANN top-k skeleton


def _ref_first_k(segs, key, nbr, k):
    """(segment..., key, neighbor, rank) of each segment's first k
    distinct rows under (key DESC, neighbor ASC), in Python ints."""
    rows = sorted(set(zip(*(s.tolist() for s in segs), key.tolist(),
                          nbr.tolist())),
                  key=lambda r: (r[:-2], -r[-2], r[-1]))
    out, seen = [], {}
    for r in rows:
        rank = seen.get(r[:-2], 0)
        if rank < k:
            out.append(r + (rank,))
        seen[r[:-2]] = rank + 1
    return out


def test_first_k_matches_sorted_reference_on_ties():
    """The library's one prune keeps each segment's first k rows
    under (key DESC, neighbor ASC) on tie-heavy int64 (extremes
    included) and float keys, a repeated row counted once."""
    import numpy as np

    from kgruntime.ops.groups import first_k

    rng = np.random.default_rng(5)
    big = np.iinfo(np.int64)
    pools = [np.array([big.min, -7, 0, 3, big.max], np.int64),
             np.array([-2.5, 0.0, 0.125, 1.0, np.inf])]
    for _ in range(300):
        n = int(rng.integers(0, 40))
        key = rng.choice(pools[int(rng.integers(2))], n)
        segs = (rng.integers(0, 3, n), rng.integers(0, 2, n).astype(np.int8))
        nbr = rng.integers(0, 6, n)
        k = int(rng.integers(1, 5))
        sel, rank = first_k(segs, key, nbr, k)
        got = [tuple(c[i] for c in (*segs, key, nbr)) + (r,)
               for i, r in zip(sel.tolist(), rank.tolist())]
        assert got == _ref_first_k(segs, key, nbr, k)


# the queries on the ANN top-k skeleton, each against its SQL twin
DUP_VECTOR_QUERIES = [
    "ann_topk", "ann_topk_lsh", "ann_topk_ivf", "knn_label_vote",
    "ann_recall_audit", "int8_quant_recall", "rp_projection_recall",
    "pq_quant_recall", "hard_negatives", "triplet_mining",
    "embedding_outliers", "knn_graph", "mmr_diverse_topk"]


@pytest.mark.parametrize("query", DUP_VECTOR_QUERIES)
def test_ann_query_on_duplicate_vectors_matches_sql(ray_session, tmp_path,
                                                    monkeypatch, query):
    """4 distinct 64-dim vectors × 40 identical copies (vec_id i is
    copy i // 4 of vector i % 4, label (i // 4) % 3) in two 80-row
    blocks: every neighbor set is decided by the vec_id tie-break
    alone, so a local prune that keeps an arbitrary subset of a tie
    (argpartition, an unstable argsort) disagrees with the twin."""
    import random

    import ray.data as rd

    import __ray_entry__ as E

    rng = random.Random(11)
    base = [[rng.gauss(0, 1) for _ in range(64)] for _ in range(4)]
    n = 160
    whole = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([base[i % 4] for i in range(n)],
                              pa.list_(pa.float32())),
        "label": pa.array([(i // 4) % 3 for i in range(n)], pa.int32())})
    pq.write_table(whole, tmp_path / "embeddings.parquet")
    parts = tmp_path / "emb_parts"
    parts.mkdir()
    for b in range(2):
        pq.write_table(whole.slice(80 * b, 80),
                       parts / f"part-{b}.parquet")
    read = E._read

    def multi_block_read(sf_dir, table, cols=None):
        if table != "embeddings":
            return read(sf_dir, table, cols)
        return rd.read_parquet(str(parts), columns=cols,
                               override_num_blocks=2)

    monkeypatch.setattr(E, "_read", multi_block_read)
    spec = next(q for q in E._QUERIES if q.name == query)
    want = _sql("embeddings", whole, E._sql_text(spec))
    cols = list(want.columns)
    assert len(want)
    assert _rows(_df(E.run(spec, str(tmp_path))), cols) == _rows(want, cols)


# --------------------------------------------- exchange-count regression


class _PlanCounter(logging.Handler):
    """Counts the exchange operators of the Ray Data plans logged by
    this process."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.exchanges = 0

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("Execution plan of Dataset"):
            self.exchanges += len(re.findall(r"AllToAllOperator\[", msg))


def _grouping_tables(path) -> str:
    import random

    rng = random.Random(3)
    # alphabetic words, 30+ tokens: the documents pass curate's gate
    words = ["data", "table", "query", "merge", "batch", "vector", "scan",
             "join", "order", "spark", "stream", "window", "column"] \
        + [f"rare{c}" for c in "abcdefghij"]
    texts = []
    for i in range(60):
        if i > 5 and i % 7 == 0:
            texts.append(texts[i - 3])
        else:
            texts.append(" ".join(rng.choice(words)
                                  for _ in range(rng.randint(30, 60))))
    pq.write_table(pa.table({
        "doc_id": pa.array(range(60), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 60, pa.string()),
        "source": pa.array([f"s{i % 4}" for i in range(60)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        os.path.join(path, "documents.parquet"))
    adj, noun = ["red", "blue", "green"], ["bolt", "nut", "gear", "bold"]
    pq.write_table(pa.table({
        "p_partkey": pa.array(range(80), pa.int64()),
        "p_name": pa.array([f"{rng.choice(adj)} {rng.choice(noun)}"
                            for _ in range(80)], pa.string())}),
        os.path.join(path, "part.parquet"))
    # 40 vectors in 8 near-duplicate families (cosine ~0.99 within one)
    base = [[rng.gauss(0, 1) for _ in range(16)] for _ in range(8)]
    pq.write_table(pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array([[x + rng.gauss(0, 0.1) for x in base[i % 8]]
                               for i in range(40)],
                              pa.list_(pa.float32())),
        "label": pa.array([i % 8 for i in range(40)], pa.int32())}),
        os.path.join(path, "embeddings.parquet"))
    t0 = dt.datetime(2024, 1, 1)
    n = 300
    pq.write_table(pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array([t0 + dt.timedelta(minutes=17 * i
                                          + rng.randrange(17))
                        for i in range(n)], pa.timestamp("us")),
        "user_id": pa.array([rng.randrange(12) for _ in range(n)],
                            pa.int64()),
        "event_type": pa.array([rng.choice(["view", "click", "purchase"])
                                for _ in range(n)], pa.string()),
        "value": pa.array([rng.randrange(-500, 5000) / 100
                           for _ in range(n)], pa.float64()),
        "props": pa.array(["{}"] * n, pa.string())}),
        os.path.join(path, "events.parquet"))
    return str(path)


# the exchanges of every query that runs on the segment primitive: the
# grouping queries of the benchmark's ops_grouping job (the posting-list
# pairs, fuzzy linkage and rfm each run two, sessionize one), the
# dedup, text and valuation queries keyed on a hash or a doc id, the
# per-user timeline queries of ops/sessions.py, and the ANN queries of
# ops/ann.py (one merge each; knn_graph's bucket kernel adds one,
# kmeans_clusters and triplet_mining fold on the driver), and the top-k
# queries on groups.first_k (one grouped_topk merge each, after a
# word-count aggregate in top_terms_per_source; the lexical pair's df
# count and score sum; none where the driver makes the cut), and
# the join queries on groups.cogroup (one exchange per
# bucketed_hash_join or asof_join, beside their own), and the graph
# queries on groups.fold (the co-occurrence build's two each; the
# triangle census adds its wedge segment_map and wedge match), and the
# queries whose driver-side aggregate is one groups.fold (none of their
# own; cdc_upsert_merge keeps its event_id max, cms_heavy_bigrams
# its bigram max and sort,
# dedup_sensitivity_sweep its (level, h) count, encoding_advisor its
# per-column distinct counts and event_id sort), and the queries whose
# bounded rollup is one groups.fold (only their exchanges on keys that
# grow with the rows: users, words, hashes, cluster labels, z codes,
# bitmap partitions, the BPE merge rounds)
EXCHANGES = {"winnow_dup_pairs": 2, "rare_token_pairs": 2,
             "fuzzy_name_matches": 2, "rfm_segments": 2, "sessionize": 1,
             "curate_corpus": 3, "minhash_near_dups": 2,
             "set_sim_join_pairs": 5, "cdc_chunk_dedup": 2,
             "shingle_novelty": 2, "source_overlap_matrix": 1,
             "copy_genealogy": 3, "ngram_dedup_rewrite": 4,
             "embedding_near_dups": 2, "capped_duplicate_sample": 1,
             "trigram_diversity": 1, "loo_source_influence": 1,
             "funnel_counts": 2, "event_transitions": 1,
             "retention_cohorts": 1, "cooccurrence_edges": 2,
             "event_path_trigrams": 1, "session_conversion_by_dow": 1,
             "session_incident_overlap": 1, "markov_next_event": 1,
             "conversion_delay_pcts": 2, "user_active_time": 1,
             "bot_regularity": 1, "user_gap_stats": 1,
             "running_user_totals": 1, "windowed_event_dedup": 1,
             "purchase_click_window": 1, "click_attribution": 1,
             "user_hourly_locf": 1, "pit_training_features": 1,
             "peak_user_rate": 1, "ann_topk": 1, "ann_topk_lsh": 1,
             "ann_topk_ivf": 1, "knn_label_vote": 1,
             "int8_quant_recall": 1, "rp_projection_recall": 1,
             "pq_quant_recall": 1, "hard_negatives": 1,
             "embedding_outliers": 1, "kmeans_clusters": 0,
             "mmr_diverse_topk": 1, "ann_recall_audit": 1,
             "triplet_mining": 0, "knn_graph": 2, "token_shards": 2,
             "pack_sequences": 3, "curriculum_order": 3,
             "late_event_audit": 2, "streaming_emit_audit": 2,
             "reservoir_per_lang": 1, "temperature_mix_sample": 1,
             "kmv_distinct_users": 1, "top_terms_per_source": 2,
             "weighted_sample": 0, "epoch_shuffle_audit": 0,
             "multi_query_lexical": 2, "lexical_topk": 2,
             "maxsim_topk": 0, "page_stitch_pairs": 2,
             "incremental_dup_check": 5, "incremental_near_dups": 2,
             "near_dedup_corpus": 3, "minhash_error_audit": 8,
             "entity_clusters": 5, "cluster_safe_split": 4,
             "jaccard_adjacent": 1, "asof_click_purchase": 1,
             "asof_purchase_next_click": 1, "pagerank_users": 2,
             "personalized_pagerank": 2, "k_core_members": 2,
             "lpa_communities": 2, "community_modularity": 2,
             "triangle_census": 4, "cdc_upsert_merge": 1,
             "hll_distinct_users": 0,
             "cms_heavy_bigrams": 2, "dedup_sensitivity_sweep": 1,
             "langid_mismatch": 0, "langid_confusion": 0,
             "dsir_importance": 0, "quality_threshold_sweep": 0,
             "source_token_budget": 0, "encoding_advisor": 7,
             "zscore_by_source": 0, "event_anomalies": 0,
             "tumbling_hourly": 0, "hopping_2h_1h": 0,
             "hll_hopping_users": 0, "stickiness_dau_mau": 2,
             "events_profile": 1, "dp_noisy_counts": 0, "benford_audit": 0,
             "vocab_per_lang": 1, "source_mix_weights": 0,
             "feature_cross_hash": 1, "bootstrap_stats": 0,
             "dup_rate_by_source": 1, "padding_waste": 0,
             "range_partition_plan": 0, "zorder_layout_audit": 3,
             "bitmap_index_queries": 3, "k_anonymity_audit": 0,
             "composition_drift": 0, "bpe_fertility": 18}


@pytest.mark.parametrize("query", sorted(EXCHANGES))
def test_grouping_query_exchange_count(ray_session, tmp_path, query):
    import __ray_entry__ as E

    sf = _grouping_tables(tmp_path)
    counter = _PlanCounter()
    logger = logging.getLogger("ray.data")
    logger.addHandler(counter)
    try:
        df = _df(E.queries()[query](sf))
    finally:
        logger.removeHandler(counter)
    assert len(df.columns)
    assert counter.exchanges == EXCHANGES[query]


def test_graph_ops_exchange_only_on_unbounded_keys(ray_session):
    """The node-bounded graph ops fold on the driver: no exchange on a
    two-block input whose 2-core, communities and triangles are all
    non-empty; the triangle census exchanges for its wedge stage and
    wedge match only.  The subtree rollup folds each customer's
    ancestor chain: no exchange either."""
    import ray.data as rd

    from kgruntime.ops import graph

    # two 4-cliques joined by one bridge, plus a pendant path 13-20-21
    und = [(a, b) for a in range(4) for b in range(a + 1, 4)] \
        + [(a, b) for a in range(10, 14) for b in range(a + 1, 14)] \
        + [(3, 10), (13, 20), (20, 21)]
    t = pa.table({"user_a": pa.array([a for a, _ in und], pa.int64()),
                  "user_b": pa.array([b for _, b in und], pa.int64())})
    d = pa.table({"src": pa.concat_arrays([t["user_a"].combine_chunks(),
                                           t["user_b"].combine_chunks()]),
                  "dst": pa.concat_arrays([t["user_b"].combine_chunks(),
                                           t["user_a"].combine_chunks()])})

    customers = pa.table({
        "c_custkey": pa.array(range(1, 41), pa.int64()),
        "c_acctbal": pa.array([(-1) ** i * 12.345 * i for i in range(40)],
                              pa.float64())})

    def split(x: pa.Table):
        half = x.num_rows // 2
        return rd.from_arrow([x.slice(0, half), x.slice(half)])

    runs = [(graph.k_core, split(t), dict(k=2), 0),
            (graph.lpa_communities, split(t), {}, 0),
            (graph.community_modularity, split(t), {}, 0),
            (graph.pagerank, split(d), {}, 0),
            (graph.personalized_pagerank, split(d), {}, 0),
            (graph.triangle_count, split(t), {}, 2),
            (graph.subtree_balance_rollup, split(customers), {}, 0)]
    logger = logging.getLogger("ray.data")
    for op, ds, kw, want in runs:
        counter = _PlanCounter()
        logger.addHandler(counter)
        try:
            out = _df(op(ds.materialize(), **kw))
        finally:
            logger.removeHandler(counter)
        assert len(out), op.__name__
        assert counter.exchanges == want, op.__name__
