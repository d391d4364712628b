"""Distributed exact statistics: grouped quantiles and grouped mode.

Both avoid the per-group ``map_groups`` trap (a low-cardinality group
key would pull 1/k of the corpus into one pandas frame):

* ``grouped_quantiles`` reduces the data to a fixed-point VALUE
  HISTOGRAM with a native ``groupby(key, units).count()`` — the shuffle
  carries at most |keys| × |distinct units| rows (bounded by the value
  range × scale, NOT the corpus size) and the exact interpolated
  quantile (``quantile_cont`` semantics: h = q·(n−1), linear between
  the two bracketing order statistics) is computed from the histogram.
* ``grouped_mode`` is two native hash aggregations: count per
  (key, category), then a single ``Max`` over a composite
  ``count · 2^6 | (63 − category_rank)`` integer — the argmax row
  without any per-group Python.  Ties break toward the
  lexicographically-smallest category, mirroring a
  ``row_number() OVER (ORDER BY cnt DESC, category ASC)`` oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _quantile_from_hist(units: np.ndarray, counts: np.ndarray,
                        q: float) -> float:
    """Exact ``quantile_cont(q)`` of the multiset {units[i] × counts[i]}.

    units must be sorted ascending.  Interpolates exactly like DuckDB /
    numpy 'linear': h = q·(n−1); x[floor(h)] + (x[ceil(h)] − x[floor(h)])
    · frac(h), where x[j] is the j-th order statistic read off the
    cumulative histogram.
    """
    cum = np.cumsum(counts)
    n = int(cum[-1])
    h = q * (n - 1)
    j0, j1 = int(np.floor(h)), int(np.ceil(h))
    x0 = float(units[np.searchsorted(cum, j0, side="right")])
    x1 = float(units[np.searchsorted(cum, j1, side="right")])
    return x0 + (x1 - x0) * (h - j0)


def grouped_quantiles(ds, key: str, value_col: str,
                      qs=(0.5, 0.9, 0.95), names=("p50", "p90", "p95"),
                      scale: int = 100, digits: int = 6) -> pd.DataFrame:
    """Per-``key`` exact interpolated quantiles of ``value_col``,
    computed at fixed-point resolution ``1/scale`` (the same rounding an
    exact-cents oracle applies: ``quantile_cont(round(v·scale))/scale``).

    Returns a small pandas frame (one row per key, sorted by key) — the
    only driver-side data is the histogram, whose size is bounded by
    |keys| × value-range × scale regardless of corpus size.
    """
    def prep(t: pa.Table) -> pa.Table:
        units = pc.cast(pc.round(pc.multiply(t[value_col], float(scale)),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        return pa.Table.from_arrays([t[key], units], names=[key, "units"])

    hist = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby([key, "units"]).count().to_pandas()
    hist = hist.sort_values([key, "units"], kind="mergesort")

    rows = []
    for k, g in hist.groupby(key, sort=True):
        units = g["units"].to_numpy(np.int64)
        counts = g["count()"].to_numpy(np.int64)
        row = {key: k}
        for q, name in zip(qs, names):
            v = _quantile_from_hist(units, counts, q) / scale
            row[name] = np.copysign(
                np.floor(abs(v) * 10.0 ** digits + 0.5), v) / 10.0 ** digits
        rows.append(row)
    return pd.DataFrame(rows, columns=[key, *names]).reset_index(drop=True)


_MODE_SHIFT = 6  # category rank packed in the low 6 bits (≤64 categories)


def grouped_mode(ds, key: str, cat_col: str,
                 out_cat: str = "top_cat", out_n: str = "n"):
    """Most frequent ``cat_col`` value per ``key`` (ties → smallest
    category), as a Dataset with columns (key, out_cat, out_n).

    ``cat_col`` must be low-cardinality (≤ 2^6 distinct values — the
    usual enum/label case); its domain is discovered with one cheap
    distinct pass.
    """
    from ray.data.aggregate import Max

    cats = sorted(ds.unique(cat_col))
    if len(cats) > (1 << _MODE_SHIFT):
        raise ValueError(f"cat_col has {len(cats)} categories (max 64)")
    cat_arr = pa.array(cats, pa.string())
    rank = {c: i for i, c in enumerate(cats)}
    rank_vals = pa.array([rank[c] for c in cats], pa.int64())
    low_max = pa.scalar((1 << _MODE_SHIFT) - 1, pa.int64())

    counts = ds.groupby([key, cat_col]).count()

    def encode(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t[cat_col], value_set=cat_arr)
        r = pc.take(rank_vals, idx)
        comp = pc.add(
            pc.shift_left(pc.cast(t["count()"], pa.int64()),
                          pa.scalar(_MODE_SHIFT, pa.int64())),
            pc.subtract(low_max, r))
        return pa.Table.from_arrays([t[key], comp], names=[key, "comp"])

    def decode(t: pa.Table) -> pa.Table:
        comp = t["comp"].combine_chunks()
        cnt = pc.shift_right(comp, pa.scalar(_MODE_SHIFT, pa.int64()))
        r = pc.subtract(low_max, pc.subtract(
            comp, pc.shift_left(cnt, pa.scalar(_MODE_SHIFT, pa.int64()))))
        return pa.Table.from_arrays(
            [t[key], pc.take(cat_arr, r), cnt],
            names=[key, out_cat, out_n])

    return counts.map_batches(encode, batch_format="pyarrow") \
        .groupby(key).aggregate(Max("comp", alias_name="comp")) \
        .map_batches(decode, batch_format="pyarrow")


def grouped_topk(ds, key: str, val: str, k: int, tie_col: str,
                 descending: bool = True, rank_col: str = "rnk"):
    """Top-``k`` rows per ``key`` by ``val`` (ties → smallest
    ``tie_col``), with a 1-based ``rank_col``, as a Dataset.  Mirrors a
    ``row_number() OVER (PARTITION BY key ORDER BY val DESC, tie ASC)``
    oracle (``val`` ASC with ``descending=False``).

    Precondition: no two rows are equal in key, value and tie — such a
    row counts once (``groups.first_k``); every caller's (key, tie) is
    unique, or its duplicates are meant to count once (KMV's hashes).

    Scale shape: every batch keeps its first ``k`` rows per key by
    ``groups.take_first_k`` BEFORE the exchange, so the exchange
    carries ≤ k × blocks rows per key — never the corpus; one
    ``segment_map(key)`` kernel runs the same prune on those survivors
    and appends the rank.  Both rank by one total order, so the local
    prune is lossless on ties, and the ranks are global (a per-key
    quota below ``k`` is a ``rank_col <= quota`` filter).
    """
    from .groups import segment_map, take_first_k

    def prune(t: pa.Table, rank: str | None = None) -> pa.Table:
        return take_first_k(t, [key], val, tie_col, k,
                            ascending=not descending, rank_col=rank)

    return segment_map(ds.map_batches(prune, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       key, lambda block, _: prune(block, rank_col))


def _fixed(col, scale: int) -> pa.ChunkedArray:
    """round(v·scale) half away from zero, as int64."""
    return pc.cast(pc.round(pc.multiply(col, float(scale)),
                            round_mode="half_towards_infinity"), pa.int64())


def _exact(a, b=None) -> pa.ChunkedArray:
    """``a`` (or the product a·b) of int64 values, exact, as
    ``decimal128(38, 0)`` — a column ``groups.fold`` sums with no
    overflow."""
    wide = pa.decimal256(19, 0)
    a = pc.cast(a, wide)
    if b is not None:
        a = pc.multiply(a, pc.cast(b, wide))
    return pc.cast(a, pa.decimal128(38, 0))


def _moments(ds, key: str, rows, cols: list[str]):
    """(key, n, Σcol for each of ``cols``) as Python ints, per key of
    ``ds.map_batches(rows)`` in key order (a null key last)."""
    from .groups import fold

    s = fold(ds.map_batches(rows, batch_format="pyarrow", batch_size=4096,
                            zero_copy_batch=True),
             key, {"n": ("count", None),
                   **{f"s{c}": ("sum", c) for c in cols}})
    return [(r[0], *map(int, r[1:]))
            for r in zip(*(s[c].to_pylist() for c in s.column_names))]


def grouped_corr(ds, key: str, x_col: str, y_col: str,
                 x_scale: int = 1, y_scale: int = 100,
                 out: str = "corr", digits: int = 6) -> pd.DataFrame:
    """Exact grouped Pearson correlation via integer sufficient
    statistics — the canonical partial-aggregation shape.

    Each row becomes (x, y, xy, x², y²) over the fixed-point integers
    round(x·x_scale)/round(y·y_scale), as ``decimal128(38, 0)``, and
    one ``groups.fold`` sums them with n per key on the driver — no
    exchange, |keys| × |blocks| partial rows, never data.  Decimal sums
    are exact (Σy² can't overflow at any corpus size), and both sides —
    this and the DuckDB oracle summing BIGINT into HUGEINT — evaluate
    the identical float formula on identical exact integers, making the
    result bit-deterministic regardless of summation order.
    """
    def moments(t: pa.Table) -> pa.Table:
        x, y = _fixed(t[x_col], x_scale), _fixed(t[y_col], y_scale)
        return pa.table({key: t[key], "x": _exact(x), "y": _exact(y),
                         "xy": _exact(x, y), "xx": _exact(x, x),
                         "yy": _exact(y, y)})

    rows = []
    for k, n, sx, sy, sxy, sxx, syy in _moments(
            ds, key, moments, ["x", "y", "xy", "xx", "yy"]):
        num = float(n * sxy - sx * sy)
        den = np.sqrt(float(n * sxx - sx * sx)) * \
            np.sqrt(float(n * syy - sy * sy))
        v = num / den if den != 0.0 else float("nan")
        rows.append({key: k, out: np.copysign(
            np.floor(abs(v) * 10.0 ** digits + 0.5), v) / 10.0 ** digits})
    return pd.DataFrame(rows, columns=[key, out]).reset_index(drop=True)


def value_deciles(ds, value_col: str = "n_chars", id_col: str = "doc_id",
                  n_buckets: int = 10):
    """Equal-frequency bucketing (length deciles for curriculum /
    stratified sampling): assign every row to bucket
    ``n_buckets · |{rows with value < v}| // N`` — a tie-stable,
    integer-exact definition every row with the same value shares.

    Scale shape: two streamed passes, nothing materialized — pass 1 is
    a native value-histogram groupby (shuffle bounded by |distinct
    values|, not corpus size) plus a tiny driver cum-sum mapping
    value → bucket; pass 2 re-streams the corpus through a broadcast
    vectorized assign (searchsorted per batch).  Output:
    (id, value, bucket).
    """
    hist = ds.groupby(value_col).count().to_pandas() \
        .sort_values(value_col)
    vals = hist[value_col].to_numpy("int64")
    cnt = hist["count()"].to_numpy("int64")
    c_lt = np.cumsum(cnt) - cnt
    n = int(cnt.sum())
    buckets = (n_buckets * c_lt) // n

    def assign(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False)
        b = buckets[np.searchsorted(vals, v)]
        return pa.Table.from_arrays(
            [t[id_col], t[value_col], pa.array(b, pa.int64())],
            names=[id_col, value_col, "bucket"])

    return ds.select_columns([id_col, value_col]) \
        .map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def value_deciles_sql(value_col: str = "n_chars", id_col: str = "doc_id",
                      n_buckets: int = 10,
                      table: str = "documents") -> str:
    """DuckDB oracle: the same c_lt-based bucket from a window cum-sum
    over the value histogram (all-integer, so exact on both sides)."""
    return f"""
WITH c AS (
  SELECT {value_col} AS v, count(*) AS cnt FROM {table} GROUP BY v),
b AS (
  SELECT v, (({n_buckets} * (sum(cnt) OVER (ORDER BY v) - cnt))
             // (SELECT count(*) FROM {table}))::BIGINT AS bucket
  FROM c)
SELECT d.{id_col}, d.{value_col}, b.bucket
FROM {table} d JOIN b ON d.{value_col} = b.v
ORDER BY d.{id_col}
"""


def zscore_by_source(ds, key: str = "source", value_col: str = "n_chars",
                     id_col: str = "doc_id", digits: int = 6):
    """Group-wise z-score normalization (two-pass broadcast shape):
    per-key sample mean/std from exact integer sufficient stats, then a
    vectorized per-row normalize — (id, key, value, zscore).

    Scale shape: pass 1 is one ``groups.fold`` of per-row (x, x²)
    ``decimal128`` columns into (key, n, Σx, Σx²) on the driver (no
    exchange, exact decimal sums: no overflow at any corpus size), and
    the |keys|-row stats table rides into pass 2, which streams the
    corpus once through a numpy normalize; a row with a null key has no
    stats and drops out, as in the twin's join.  Both sides —
    this and the HUGEINT-sum oracle — evaluate the identical IEEE
    sequence (x − Σx/n) / sqrt((n·Σx² − Σx²̂) / (n·(n−1))) on identical
    exact integers, so the rounded result is bit-deterministic.
    """
    def moments(t: pa.Table) -> pa.Table:
        x = pa.array(t[value_col].to_numpy(zero_copy_only=False)
                     .astype(np.int64))
        return pa.table({key: t[key], "x": _exact(x),
                         "xx": _exact(x, x)})

    stats = {}
    for k, n, sx, sxx in _moments(ds.select_columns([key, value_col]),
                                  key, moments, ["x", "xx"]):
        mean = float(sx) / float(n)
        std = np.sqrt(float(n * sxx - sx * sx) / float(n * (n - 1))) \
            if n > 1 else 0.0
        stats[k] = (mean, std)

    scale = 10.0 ** digits

    mean_map = {k: v[0] for k, v in stats.items()}
    std_map = {k: v[1] for k, v in stats.items()}

    def normalize(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key]))
        keys = t[key].to_pandas()
        x = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        # .map(dict) is the C-speed pandas path — no per-row lambda
        mean = keys.map(mean_map).to_numpy(np.float64)
        std = keys.map(std_map).to_numpy(np.float64)
        z = np.where(std > 0.0, (x - mean) / np.where(std == 0.0, 1.0, std),
                     0.0)
        z = np.copysign(np.floor(np.abs(z) * scale + 0.5), z) / scale
        return pa.Table.from_arrays(
            [t[id_col], t[key], t[value_col], pa.array(z, pa.float64())],
            names=[id_col, key, value_col, "zscore"])

    return ds.select_columns([id_col, key, value_col]) \
        .map_batches(normalize, batch_format="pyarrow", zero_copy_batch=True)


def zscore_by_source_sql(key: str = "source", value_col: str = "n_chars",
                         id_col: str = "doc_id", digits: int = 6,
                         table: str = "documents") -> str:
    """DuckDB oracle: identical sufficient-stats float formula on exact
    HUGEINT sums (NOT stddev_samp, whose accumulation order differs)."""
    return f"""
WITH s AS (
  SELECT {key} AS k, count(*) AS n,
         sum({value_col}::HUGEINT) AS sx,
         sum(({value_col}::HUGEINT) * ({value_col}::HUGEINT)) AS sxx
  FROM {table} GROUP BY {key})
SELECT d.{id_col}, d.{key}, d.{value_col},
       CASE WHEN s.n > 1 AND (s.n * s.sxx - s.sx * s.sx) > 0
            THEN round((d.{value_col} - (s.sx::DOUBLE / s.n::DOUBLE))
                 / sqrt((s.n * s.sxx - s.sx * s.sx)::DOUBLE
                        / (s.n * (s.n - 1))::DOUBLE), {digits})
            ELSE 0.0 END AS zscore
FROM {table} d JOIN s ON s.k = d.{key}
ORDER BY d.{id_col}
"""


def event_anomalies(events_ds, key: str = "event_type",
                    value_col: str = "value", digits: int = 6,
                    threshold: float = 3.0):
    """Per-key outlier detection: events whose value sits more than
    ``threshold`` sample standard deviations from the key mean —
    (event_id, key, value, zscore).  The monitoring shape: tiny exact
    stats pass, then a streamed filter that only materializes the
    anomalies.

    Same exact-sufficient-stats contract (one ``groups.fold`` of
    decimal (x, x²) columns) as ``zscore_by_source`` but on
    fixed-point cents (the value column is float money): both sides
    compute z from identical integers, so the flag boundary is
    bit-deterministic.  A row with a null key drops out, as in the
    twin's join.
    """
    def moments(t: pa.Table) -> pa.Table:
        c = _fixed(t[value_col], 100)
        return pa.table({key: t[key], "x": _exact(c), "xx": _exact(c, c)})

    mean_map, std_map = {}, {}
    for k, n, sx, sxx in _moments(events_ds.select_columns([key, value_col]),
                                  key, moments, ["x", "xx"]):
        mean_map[k] = float(sx) / float(n)
        std_map[k] = np.sqrt(float(n * sxx - sx * sx) / float(n * (n - 1))) \
            if n > 1 and (n * sxx - sx * sx) > 0 else 0.0

    scale = 10.0 ** digits

    def flag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key]))
        keys = t[key].to_pandas()
        c = _fixed(t[value_col], 100).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mean = keys.map(mean_map).to_numpy(np.float64)
        std = keys.map(std_map).to_numpy(np.float64)
        z = np.where(std > 0.0, (c - mean) / np.where(std == 0.0, 1.0, std),
                     0.0)
        keep = np.abs(z) > threshold
        z = np.copysign(np.floor(np.abs(z) * scale + 0.5), z) / scale
        out = pa.Table.from_arrays(
            [t["event_id"], t[key], t[value_col],
             pa.array(z, pa.float64())],
            names=["event_id", key, value_col, "zscore"])
        return out.filter(pa.array(keep))

    return events_ds.select_columns(["event_id", key, value_col]) \
        .map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def event_anomalies_sql(key: str = "event_type", value_col: str = "value",
                        digits: int = 6, threshold: float = 3.0,
                        table: str = "events") -> str:
    """DuckDB oracle: identical cents sufficient stats (HUGEINT sums),
    identical IEEE z formula, filter BEFORE rounding like the op."""
    return f"""
WITH c AS (
  SELECT event_id, {key} AS k, {value_col} AS v,
         CAST(round({value_col} * 100) AS BIGINT) AS cents
  FROM {table}),
s AS (
  SELECT k, count(*) AS n, sum(cents::HUGEINT) AS sx,
         sum((cents::HUGEINT) * (cents::HUGEINT)) AS sxx
  FROM c GROUP BY k),
z AS (
  SELECT c.event_id, c.k, c.v,
         CASE WHEN s.n > 1 AND (s.n * s.sxx - s.sx * s.sx) > 0
              THEN (c.cents - (s.sx::DOUBLE / s.n::DOUBLE))
                   / sqrt((s.n * s.sxx - s.sx * s.sx)::DOUBLE
                          / (s.n * (s.n - 1))::DOUBLE)
              ELSE 0.0 END AS zraw
  FROM c JOIN s ON s.k = c.k)
SELECT event_id, k AS {key}, v AS {value_col},
       round(zraw, {digits}) AS zscore
FROM z WHERE abs(zraw) > {threshold}
ORDER BY event_id
"""


# --- schema/quality profiling ---------------------------------------------

def table_profile(ds, columns: list[str]):
    """Column-level data-quality profile — one row per column:
    (column, n_rows, n_nulls, n_distinct).  All counts exact integers,
    so the profile is hash-checkable for ANY column dtype.

    Scale shape: ONE source scan.  Every batch explodes to its
    LOCAL-distinct (column, value-string) rows plus one stats sentinel
    row per column carrying (n_rows, n_nulls); the exploded stream is
    materialized (it is pre-deduped per batch, never bigger than the
    source) and feeds two tiny aggregations — a (column, v) global
    dedup → per-column distinct count, and a per-column null/row-count
    rollup.  Nulls are dropped before the value explode —
    ``count(DISTINCT)`` semantics, and Ray's groupby can't sort null
    keys.  Floats are normalized with ``+0.0`` first so -0.0 and 0.0
    count as ONE value (SQL DISTINCT semantics); beyond that Arrow's
    float→string is shortest-round-trip, so the cast is injective
    within the engine.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    def explode(t: pa.Table) -> pa.Table:
        names, vals, nrows, nnulls = [], [], [], []
        for c in columns:
            col = t[c].combine_chunks()
            if pa.types.is_floating(col.type):
                col = pc.add(col, 0.0)      # -0.0 → 0.0 (SQL DISTINCT)
            u = pc.unique(pc.cast(col.drop_null(), pa.string()))
            names.extend([c] * len(u))
            vals.append(u)
            # stats sentinel (v = null marks it; real values are non-null
            # by construction since nulls were dropped)
            names.append(c)
            vals.append(pa.array([None], pa.string()))
            nrows.extend([0] * len(u) + [t.num_rows])
            nnulls.extend([0] * len(u) + [t[c].null_count])
        return pa.table({
            "column": pa.array(names, pa.string()),
            "v": pa.concat_arrays(vals) if vals else
                 pa.array([], pa.string()),
            "n_rows": pa.array(nrows, pa.int64()),
            "n_nulls": pa.array(nnulls, pa.int64()),
        })

    exploded = ds.select_columns(columns) \
        .map_batches(explode, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()

    def only_stats(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_null(t["v"])) \
            .select(["column", "n_rows", "n_nulls"])

    def only_values(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t["v"])).select(["column", "v"])

    nulls = exploded.map_batches(only_stats, batch_format="pyarrow") \
        .groupby("column") \
        .aggregate(Sum("n_rows", alias_name="n_rows"),
                   Sum("n_nulls", alias_name="n_nulls")) \
        .to_pandas()
    dist = exploded.map_batches(only_values, batch_format="pyarrow") \
        .groupby(["column", "v"]).count() \
        .groupby("column").aggregate(Count(alias_name="n_distinct")) \
        .to_pandas()
    nulls = nulls.merge(dist, on="column", how="left")
    nulls["n_distinct"] = nulls["n_distinct"].fillna(0).astype("int64")
    return nulls.sort_values("column").reset_index(drop=True)


def table_profile_sql(columns: list[str], table: str) -> str:
    parts = [
        f"SELECT '{c}' AS \"column\", count(*) AS n_rows, "
        f"count(*) - count({c}) AS n_nulls, "
        f"count(DISTINCT {c}) AS n_distinct FROM {table}"
        for c in columns]
    return " UNION ALL ".join(parts) + " ORDER BY \"column\""


# --- per-group percentile rank --------------------------------------------

def value_percentile_ranks(events_ds, key: str = "event_type",
                           value_col: str = "value", digits: int = 6):
    """cume_dist of each event's value within its ``key`` group —
    (event_id, key, pct_rank) — without a per-group sort: the
    distributed shape is a per-(key, cents) histogram (bounded by
    |keys| × value-range × 100, corpus-size-independent) broadcast back
    over one streaming lookup pass.  Exact: ranks are ratios of exact
    integer counts, rounded half-away like the oracle."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t[value_col], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        return pa.Table.from_arrays(
            [t["event_id"], t[key], cents],
            names=["event_id", key, "cents"])

    # materialize: the prepped rows feed BOTH the histogram and the
    # rank pass — without pinning, the source scan + cents computation
    # would execute twice (the double-lazy-plan bug class fixed across
    # the repo this round)
    prepped = events_ds.select_columns(["event_id", key, value_col]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .materialize()
    hist = prepped.select_columns([key, "cents"]) \
        .groupby([key, "cents"]).count().to_pandas() \
        .sort_values([key, "cents"], kind="mergesort")

    # per key: sorted cents -> cumulative count (cume_dist numerator)
    lut = {}
    for k, g in hist.groupby(key, sort=False):
        cents = g["cents"].to_numpy(np.int64)
        cum = g["count()"].to_numpy(np.int64).cumsum()
        lut[k] = (cents, cum, int(cum[-1]))
    ref = ray.put(lut)

    from ..stages.broadcast import cached_get

    def rank(t: pa.Table) -> pa.Table:
        m = cached_get(ref, tag="value_percentile_ranks-cume")
        keys = np.asarray(t[key].to_pylist(), dtype=object)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        out = np.empty(len(keys), np.float64)
        # vectorized per key (≤ |event types| iterations), not per row
        for kk in np.unique(keys):
            mask = keys == kk
            cs, cum, n = m[kk]
            j = np.searchsorted(cs, cents[mask], side="right") - 1
            out[mask] = cum[j] / n
        scale = 10.0 ** digits
        out = np.copysign(np.floor(np.abs(out) * scale + 0.5), out) / scale
        return pa.Table.from_arrays(
            [t["event_id"], t[key], pa.array(out, pa.float64())],
            names=["event_id", key, "pct_rank"])

    return prepped.map_batches(rank, batch_format="pyarrow")


def value_percentile_ranks_sql(key: str = "event_type",
                               value_col: str = "value",
                               table: str = "events") -> str:
    return f"""
SELECT event_id, {key},
       round(cume_dist() OVER (
         PARTITION BY {key}
         ORDER BY CAST(round({value_col} * 100) AS BIGINT)), 6)
         AS pct_rank
FROM {table} ORDER BY event_id
"""


def trimmed_mean_by_group(events_ds, key: str = "event_type",
                          value_col: str = "value", trim_pct: int = 10,
                          digits: int = 6):
    """Robust per-group mean with the top/bottom ``trim_pct``% of rows
    dropped — (key, n_events, n_trimmed, trimmed_mean).

    No per-group sort of the raw rows: the distributed shape is the
    same per-(key, cents) histogram as ``value_percentile_ranks``
    (bounded by |keys| × distinct cent values, corpus-size-independent),
    and the trim is computed from cumulative counts over the histogram
    — each distinct value contributes
    ``max(0, min(cum, n−k) − max(cum−cnt, k))`` copies to the exact
    integer trimmed sum (k = n·trim_pct/100 rows per side, order
    statistics over cents with natural duplicate handling, identical
    to the oracle's row_number() range).  Only the final mean is float.
    """
    import pandas as pd
    from ray.data.aggregate import Count

    def cents_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            key: t[key],
            "cents": pc.cast(pc.round(
                pc.multiply(t[value_col], 100.0),
                round_mode="half_towards_infinity"), pa.int64())})

    hist = events_ds.select_columns([key, value_col]) \
        .map_batches(cents_prep, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby([key, "cents"]).aggregate(Count(alias_name="cnt"))

    def finish(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values("cents", kind="mergesort")
        cnt = df["cnt"].to_numpy()
        cents = df["cents"].to_numpy()
        n = int(cnt.sum())
        k = n * trim_pct // 100
        cum = np.cumsum(cnt)
        lo = np.maximum(cum - cnt, k)
        hi = np.minimum(cum, n - k)
        mult = np.maximum(0, hi - lo)
        tsum = int((cents * mult).sum())
        n_trim = int(mult.sum())
        mean = float(tsum) / float(n_trim)
        mean = (np.floor(mean * 10.0 ** digits + 0.5) if mean >= 0
                else -np.floor(-mean * 10.0 ** digits + 0.5)) \
            / 10.0 ** digits
        return pa.table({
            key: pa.array([g[key][0].as_py()], g[key].type),
            "n_events": pa.array([n], pa.int64()),
            "n_trimmed": pa.array([n_trim], pa.int64()),
            "trimmed_mean": pa.array([float(mean)], pa.float64())})

    return hist.groupby(key).map_groups(finish, batch_format="pyarrow")


def trimmed_mean_by_group_sql(key: str = "event_type",
                              value_col: str = "value",
                              trim_pct: int = 10, digits: int = 6,
                              table: str = "events") -> str:
    return f"""
WITH c AS (
  SELECT {key}, CAST(round({value_col} * 100) AS BIGINT) AS cents
  FROM {table}),
rk AS (
  SELECT {key}, cents,
         row_number() OVER (PARTITION BY {key} ORDER BY cents) AS rn,
         count(*) OVER (PARTITION BY {key}) AS n
  FROM c)
SELECT {key}, any_value(n) AS n_events, count(*) AS n_trimmed,
       round(sum(cents)::DOUBLE / count(*), {digits}) AS trimmed_mean
FROM rk
WHERE rn > n * {trim_pct} // 100 AND rn <= n - n * {trim_pct} // 100
GROUP BY {key} ORDER BY {key}
"""


def mad_by_group(events_ds, key: str = "event_type",
                 value_col: str = "value"):
    """Robust location/scale per group: lower-median and median absolute
    deviation of ``value_col`` cents — ``(key, n_events, median_cents,
    mad_cents)``, all EXACT int64 (no interpolation, no floats), so the
    result hash-replays in SQL via two row_number order statistics.

    No per-group sort of raw rows: one ``groupby(key, cents)`` builds
    the per-group histogram (bounded by |keys| × distinct cent values —
    the trimmed_mean_by_group shape); the median is read off cumulative
    counts, and the deviation histogram folds ``med ± d`` pairs by
    summing counts before the second order statistic.
    """
    from ray.data.aggregate import Count

    def cents_prep(t: pa.Table) -> pa.Table:
        return pa.table({
            key: t[key],
            "cents": pc.cast(pc.round(
                pc.multiply(t[value_col], 100.0),
                round_mode="half_towards_infinity"), pa.int64())})

    hist = events_ds.select_columns([key, value_col]) \
        .map_batches(cents_prep, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby([key, "cents"]).aggregate(Count(alias_name="cnt"))

    def _disc_median(units: np.ndarray, counts: np.ndarray) -> int:
        # lower median: the ((n+1)//2)-th order statistic (1-based)
        cum = np.cumsum(counts)
        n = int(cum[-1])
        rank = (n + 1) // 2
        return int(units[np.searchsorted(cum, rank, side="left")])

    def finish(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values("cents", kind="mergesort")
        cents = df["cents"].to_numpy(np.int64)
        cnt = df["cnt"].to_numpy(np.int64)
        med = _disc_median(cents, cnt)
        dev = np.abs(cents - med)
        order = np.argsort(dev, kind="mergesort")
        dsorted, csorted = dev[order], cnt[order]
        uniq, starts = np.unique(dsorted, return_index=True)
        folded = np.add.reduceat(csorted, starts)
        mad = _disc_median(uniq, folded)
        return pa.table({
            key: pa.array([g[key][0].as_py()], g[key].type),
            "n_events": pa.array([int(cnt.sum())], pa.int64()),
            "median_cents": pa.array([med], pa.int64()),
            "mad_cents": pa.array([mad], pa.int64())})

    return hist.groupby(key).map_groups(finish, batch_format="pyarrow")


def mad_by_group_sql(key: str = "event_type", value_col: str = "value",
                     table: str = "events") -> str:
    """Oracle twin: both medians as explicit row_number order
    statistics (rn = (n+1)//2), never quantile_disc — its index
    convention is version-dependent."""
    return f"""
WITH mad_c AS (
  SELECT {key}, CAST(round({value_col} * 100) AS BIGINT) AS cents
  FROM {table}),
mad_med AS (
  SELECT {key}, cents AS median_cents FROM (
    SELECT {key}, cents,
           row_number() OVER (PARTITION BY {key} ORDER BY cents) AS rn,
           count(*) OVER (PARTITION BY {key}) AS n
    FROM mad_c)
  WHERE rn = (n + 1) // 2),
mad_dev AS (
  SELECT c.{key}, abs(c.cents - m.median_cents) AS d
  FROM mad_c c JOIN mad_med m USING ({key})),
mad_mad AS (
  SELECT {key}, d AS mad_cents FROM (
    SELECT {key}, d,
           row_number() OVER (PARTITION BY {key} ORDER BY d) AS rn,
           count(*) OVER (PARTITION BY {key}) AS n
    FROM mad_dev)
  WHERE rn = (n + 1) // 2)
SELECT c.{key}, count(*)::BIGINT AS n_events,
       any_value(m.median_cents)::BIGINT AS median_cents,
       any_value(x.mad_cents)::BIGINT AS mad_cents
FROM mad_c c
JOIN mad_med m USING ({key})
JOIN mad_mad x USING ({key})
GROUP BY c.{key} ORDER BY c.{key}
"""


# ---------------------------------------------------------------------------
# deterministic differential-privacy-style noisy release
# ---------------------------------------------------------------------------

def _dlaplace_thresholds(zmax: int = 8) -> list[tuple[int, int]]:
    """Integer inverse-CDF thresholds for a discrete Laplace (two-sided
    geometric, b = 1, truncated to [−zmax, zmax]) on a 60-bit uniform:
    ``(z, floor(CDF(z) · 2^60))`` in z order.  The noise draw is the
    first z whose threshold exceeds the hash.  The constants derive
    once from IEEE ``exp`` on the driver and are INLINED into the SQL
    twin, so both engines compare against bit-identical literals (the
    ``_poisson1_thresholds`` pattern)."""
    import math

    zs = list(range(-zmax, zmax + 1))
    w = [math.exp(-abs(z)) for z in zs]
    tot = sum(w)
    out, cum = [], 0.0
    for z, wi in zip(zs, w):
        cum += wi
        out.append((z, int(cum / tot * (1 << 60))))
    return out


def dp_noisy_counts(events_ds, zmax: int = 8):
    """Differentially-private-STYLE release of per-(event_type, day)
    counts: true counts plus deterministic discrete-Laplace(b=1) noise
    drawn from ``md5-60(event_type|day)``, clamped at 0 — the noisy
    histogram a privacy layer publishes instead of raw counts.  (A
    real DP deployment needs a secret seed; the seeded-hash draw here
    makes the RELEASE MECHANISM exactly testable and retry-stable,
    which is the engine property under test.)

    Output: (event_type, day, noisy_count).

    Scale shape: ONE native groupby builds the (type, day) count table
    (bounded by |types| × |days|, not the corpus); the noise decoration
    is a pure per-row function.
    """
    thr = _dlaplace_thresholds(zmax)
    T = np.array([t for _, t in thr], np.uint64)
    Z = np.array([z for z, _ in thr], np.int64)

    def decorate(t: pa.Table) -> pa.Table:
        from .dedup import _md5_60

        et = t["event_type"].to_pylist()
        day = t["day"].to_numpy(zero_copy_only=False)
        c = t["count()"].to_numpy(zero_copy_only=False)
        h = np.array([_md5_60(f"{e}|{d}".encode())
                      for e, d in zip(et, day)], np.uint64)
        idx = np.minimum(np.searchsorted(T, h, side="right"), len(Z) - 1)
        noisy = np.maximum(c + Z[idx], 0)
        return pa.table({
            "event_type": t["event_type"],
            "day": pa.array(day, pa.int64()),
            "noisy_count": pa.array(noisy, pa.int64()),
        })

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(
            pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"event_type": t["event_type"], "day": day})

    return events_ds.select_columns(["event_type", "ts"]) \
        .map_batches(prep, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["event_type", "day"]).count() \
        .map_batches(decorate, batch_format="pyarrow")


def dp_noisy_counts_sql(zmax: int = 8) -> str:
    thr = _dlaplace_thresholds(zmax)
    arms = " ".join(f"WHEN h < {t} THEN {z}" for z, t in thr[:-1])
    return f"""
WITH dpc_g AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         count(*) AS c
  FROM events GROUP BY event_type, day),
dpc_h AS (
  SELECT event_type, day, c,
         ('0x' || substr(md5(event_type || '|' || day::VARCHAR),
                         1, 15))::BIGINT AS h
  FROM dpc_g)
SELECT event_type, day,
       greatest(c + CASE {arms} ELSE {zmax} END, 0)::BIGINT
         AS noisy_count
FROM dpc_h ORDER BY event_type, day
"""


# ---------------------------------------------------------------------------
# join-key skew audit
# ---------------------------------------------------------------------------

def join_skew_audit(fact_ds, key: str = "l_partkey", top: int = 10):
    """Join-key skew report — the pre-join audit that decides whether a
    shuffle join needs salting: the ``top`` hottest keys with their
    exact corpus share, plus the exact Herfindahl concentration index
    of the whole key distribution, in ppm.

    Output: (rank, {key}, cnt, share_ppm, hhi_ppm) — hhi repeated per
    row (it is the distribution's scalar).

    Scale shape: ONE native ``groupby(key).count()`` (the counts table
    is |keys|-sized, far below the fact table — materialized because
    two consumers read it); hot keys via per-batch local top-k prune
    (top × n_blocks driver rows); Σc² via per-batch PYTHON-INT partials
    split into (hi, lo) int64 halves and recombined exactly on the
    driver — c² overflows int64 once a key holds > 3×10⁹ rows, and a
    100-TB hot key can (the SQL twin sums HUGEINT for the same
    reason).
    """
    counts = fact_ds.select_columns([key]) \
        .groupby(key).count().materialize()

    def moments(t: pa.Table) -> pa.Table:
        c = t["count()"].to_pylist()
        s2 = sum(int(x) * int(x) for x in c)
        return pa.table({
            "n_keys": pa.array([len(c)], pa.int64()),
            "n_rows": pa.array([sum(c)], pa.int64()),
            "s2_hi": pa.array([s2 >> 60], pa.int64()),
            "s2_lo": pa.array([s2 & ((1 << 60) - 1)], pa.int64())})

    mom = counts.map_batches(moments, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    n_keys = sum(r["n_keys"] for r in mom)
    n_rows = sum(r["n_rows"] for r in mom)
    s2 = sum((int(r["s2_hi"]) << 60) + int(r["s2_lo"]) for r in mom)
    hhi_ppm = (s2 * 1_000_000) // (n_rows * n_rows) if n_rows else 0

    def local_top(t: pa.Table) -> pa.Table:
        c = t["count()"].to_numpy(zero_copy_only=False)
        k = t[key].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, -c))[:top]
        return pa.table({key: pa.array(k[order], pa.int64()),
                         "cnt": pa.array(c[order], pa.int64())})

    cand = counts.map_batches(local_top, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
    best = sorted(((int(r["cnt"]), int(r[key])) for r in cand),
                  key=lambda t: (-t[0], t[1]))[:top]
    return pa.table({
        "rank": pa.array(range(1, len(best) + 1), pa.int64()),
        key: pa.array([k for _, k in best], pa.int64()),
        "cnt": pa.array([c for c, _ in best], pa.int64()),
        "share_ppm": pa.array([(c * 1_000_000) // n_rows
                               for c, _ in best], pa.int64()),
        "hhi_ppm": pa.array([hhi_ppm] * len(best), pa.int64()),
    })


def join_skew_audit_sql(key: str = "l_partkey",
                        table: str = "lineitem", top: int = 10) -> str:
    return f"""
WITH jsk_c AS (
  SELECT {key} AS k, count(*) AS c FROM {table} GROUP BY {key}),
jsk_s AS (
  SELECT sum(c) AS n_rows, sum(c::HUGEINT * c) AS s2 FROM jsk_c),
jsk_t AS (
  SELECT k, c, row_number() OVER (ORDER BY c DESC, k) AS rank
  FROM jsk_c)
SELECT t.rank, t.k AS {key}, t.c AS cnt,
       (t.c * 1000000 // s.n_rows)::BIGINT AS share_ppm,
       ((s.s2 * 1000000) // (s.n_rows::HUGEINT * s.n_rows))::BIGINT
         AS hhi_ppm
FROM jsk_t t CROSS JOIN jsk_s s
WHERE t.rank <= {top} ORDER BY t.rank
"""


# ---------------------------------------------------------------------------
# exact two-sample Kolmogorov–Smirnov distance
# ---------------------------------------------------------------------------

def ks_two_samples(events_ds, type_a: str = "click",
                   type_b: str = "purchase"):
    """EXACT two-sample Kolmogorov–Smirnov distance between the value
    distributions of two event types — the drift test run between
    cohorts or snapshots, with no sampling and no float CDFs:
    ``D = max_x |F_a(x) − F_b(x)|`` computed as
    ``max |cum_a·n_b − cum_b·n_a|`` over the merged support in pure
    int64 (ties exact), reported in ppm with the argmax value.
    Output (one row): (n_a, n_b, d_ppm, at_cents).

    Scale shape: the grouped_quantiles histogram move — one native
    ``groupby(cents, side).count`` whose row count is bounded by the
    DISTINCT value domain (cents × 2 sides), never the corpus; the
    cumulative sweep runs on that bounded table driver-side.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array([type_a, type_b]))
        f = t.filter(keep)
        v = pc.multiply(f["value"], 100.0)
        cents = pc.cast(pc.round(v, round_mode="half_towards_infinity"),
                        pa.int64())
        return pa.table({"cents": cents, "side": f["event_type"]})

    hist = events_ds.select_columns(["event_type", "value"]) \
        .map_batches(prep, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["cents", "side"]).aggregate(Count(alias_name="n")) \
        .take_all()
    ca: dict[int, int] = {}
    cb: dict[int, int] = {}
    for r in hist:
        (ca if r["side"] == type_a else cb)[int(r["cents"])] = \
            int(r["n"])
    n_a, n_b = sum(ca.values()), sum(cb.values())
    if n_a == 0 or n_b == 0:
        return pa.table({"n_a": pa.array([n_a], pa.int64()),
                         "n_b": pa.array([n_b], pa.int64()),
                         "d_ppm": pa.array([0], pa.int64()),
                         "at_cents": pa.array([0], pa.int64())})
    best, at = -1, 0
    cum_a = cum_b = 0
    for c in sorted(set(ca) | set(cb)):
        cum_a += ca.get(c, 0)
        cum_b += cb.get(c, 0)
        d = abs(cum_a * n_b - cum_b * n_a)
        if d > best:
            best, at = d, c
    return pa.table({
        "n_a": pa.array([n_a], pa.int64()),
        "n_b": pa.array([n_b], pa.int64()),
        "d_ppm": pa.array([(1_000_000 * best) // (n_a * n_b)],
                          pa.int64()),
        "at_cents": pa.array([at], pa.int64()),
    })


def ks_two_samples_sql(type_a: str = "click",
                       type_b: str = "purchase") -> str:
    return f"""
WITH ks_v AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS cents, event_type
  FROM events WHERE event_type IN ('{type_a}', '{type_b}')),
ks_h AS (
  SELECT cents,
         sum((event_type = '{type_a}')::BIGINT) AS a,
         sum((event_type = '{type_b}')::BIGINT) AS b
  FROM ks_v GROUP BY cents),
ks_n AS (SELECT sum(a) AS n_a, sum(b) AS n_b FROM ks_h),
ks_c AS (
  SELECT cents,
         sum(a) OVER (ORDER BY cents) AS cum_a,
         sum(b) OVER (ORDER BY cents) AS cum_b
  FROM ks_h),
ks_d AS (
  SELECT c.cents,
         abs(c.cum_a::HUGEINT * n.n_b - c.cum_b::HUGEINT * n.n_a) AS d
  FROM ks_c c CROSS JOIN ks_n n),
ks_m AS (
  SELECT cents, d, row_number() OVER (ORDER BY d DESC, cents) AS rk
  FROM ks_d)
SELECT n.n_a::BIGINT AS n_a, n.n_b::BIGINT AS n_b,
       ((1000000 * m.d) // (n.n_a * n.n_b))::BIGINT AS d_ppm,
       m.cents AS at_cents
FROM ks_m m CROSS JOIN ks_n n WHERE m.rk = 1
"""


# ---------------------------------------------------------------------------
# Benford first-digit audit
# ---------------------------------------------------------------------------

def _benford_ppm() -> list[int]:
    """floor(log10(1 + 1/d)·10⁶) for d = 1..9 — derived once from IEEE
    log10 on the driver and INLINED into the SQL twin (the threshold-
    literal pattern), so both engines compare identical integers."""
    import math

    return [int(math.log10(1 + 1 / d) * 1_000_000) for d in range(1, 10)]


def benford_audit(events_ds):
    """Benford's-law first-digit audit of event values — the classic
    fabricated-numbers screen: per leading digit of the integer cents,
    the exact count and share, Benford's expected share, and the signed
    deviation, all in ppm.  Output: (digit, n, share_ppm, benford_ppm,
    dev_ppm) for digits 1..9 (zero/negative cents excluded).

    Scale shape: leading-digit extraction is per-batch (string head of
    the int — no float log10, whose boundary rounding at powers of ten
    could misbin), pre-aggregated to ≤9 rows per block into one tiny
    groupby.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v = pc.multiply(t["value"], 100.0)
        cents = pc.cast(pc.round(v, round_mode="half_towards_infinity"),
                        pa.int64()).to_numpy(zero_copy_only=False)
        cents = cents[cents > 0]
        digits = np.array([int(str(int(c))[0]) for c in cents],
                          np.int64)
        cnt = np.bincount(digits, minlength=10)[1:10]
        return pa.table({"digit": pa.array(np.arange(1, 10), pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    rows = events_ds.select_columns(["value"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("digit").aggregate(Sum("n", alias_name="n")) \
        .take_all()
    per = {int(r["digit"]): int(r["n"]) for r in rows}
    total = sum(per.values())
    bf = _benford_ppm()
    out = {"digit": [], "n": [], "share_ppm": [], "benford_ppm": [],
           "dev_ppm": []}
    for d in range(1, 10):
        n = per.get(d, 0)
        share = (1_000_000 * n) // total if total else 0
        out["digit"].append(d)
        out["n"].append(n)
        out["share_ppm"].append(share)
        out["benford_ppm"].append(bf[d - 1])
        out["dev_ppm"].append(share - bf[d - 1])
    return pa.table({k: pa.array(v, pa.int64())
                     for k, v in out.items()})


def benford_audit_sql() -> str:
    bf = _benford_ppm()
    bf_rows = ", ".join(f"({d}, {bf[d - 1]})" for d in range(1, 10))
    return f"""
WITH bf_c AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS cents FROM events),
bf_d AS (
  SELECT left(cents::VARCHAR, 1)::BIGINT AS digit
  FROM bf_c WHERE cents > 0),
bf_h AS (SELECT digit, count(*) AS n FROM bf_d GROUP BY digit),
bf_t AS (SELECT sum(n) AS total FROM bf_h),
bf_e AS (SELECT * FROM (VALUES {bf_rows}) AS t(digit, bppm))
SELECT e.digit::BIGINT AS digit, coalesce(h.n, 0)::BIGINT AS n,
       ((1000000 * coalesce(h.n, 0)) // t.total)::BIGINT AS share_ppm,
       e.bppm::BIGINT AS benford_ppm,
       ((1000000 * coalesce(h.n, 0)) // t.total - e.bppm)::BIGINT
         AS dev_ppm
FROM bf_e e
LEFT JOIN bf_h h ON h.digit = e.digit
CROSS JOIN bf_t t
ORDER BY e.digit
"""
