"""Data-quality constraint audit — the validation pass a training-data
pipeline runs before trusting an ingest (null checks, domain ranges,
primary-key uniqueness, foreign-key integrity, policy thresholds).

Scale shape:

* Scalar column checks are ONE vectorized Arrow pass per table: each
  batch emits a handful of ``(check_name, n)`` rows (n_checks rows per
  block, never per record) and one ``groups.fold`` sums them per check
  on the driver — no exchange, O(n_checks × n_blocks) partial rows.
* PK-uniqueness ships ``(key, 1)`` partial counts through one
  int-keyed groupby and counts keys whose total exceeds 1.
* FK integrity avoids join machinery entirely: both sides map into a
  shared ``(key, n_child, n_parent)`` keyspace (child batches emit
  per-batch key counts, parent batches emit batch-deduped marker rows),
  ONE ``groupby(key)`` sums both columns, and a violation is a key with
  ``n_parent == 0`` — the only exchange is 24-byte int rows, and the
  per-batch ``np.unique`` combiner collapses duplicates before the
  shuffle.  This is the same side-tagged-union shape
  ``ops/dedup.py:corpus_diff`` uses.

The audit report is a handful of rows, so the final assembly happens on
the driver from scalar aggregates (each one the END of a streamed
distributed reduction — nothing upstream materializes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_PARTIAL_SCHEMA = pa.schema([("check_name", pa.string()),
                             ("n", pa.int64())])


def _check_rows(counts: dict[str, int]) -> pa.Table:
    names = sorted(counts)
    return pa.table({"check_name": pa.array(names, pa.string()),
                     "n": pa.array([int(counts[k]) for k in names],
                                   pa.int64())},
                    schema=_PARTIAL_SCHEMA)


def _nsum(arr) -> int:
    v = pc.sum(arr).as_py()
    return int(v) if v is not None else 0


def _scalar_checks(ds, partial_fn) -> dict[str, int]:
    """Run one vectorized pass emitting per-batch check counts and sum
    them per check on the driver."""
    from .groups import fold

    agg = fold(ds.map_batches(partial_fn, batch_format="pyarrow",
                              zero_copy_batch=True),
               "check_name", {"n": ("sum", "n")})
    return dict(zip(agg["check_name"].to_pylist(), agg["n"].to_pylist()))


def _dup_pk_count(ds, key: str) -> int:
    """Number of key values appearing more than once (one int-keyed
    groupby; per-batch combiner collapses in-batch repeats first)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        keys, cnt = np.unique(
            t[key].combine_chunks().to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({key: keys.astype(np.int64),
                         "n": cnt.astype(np.int64)})

    per_key = ds.select_columns([key]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(key).aggregate(Sum("n", alias_name="n"))

    def dups(t: pa.Table) -> pa.Table:
        return _check_rows({"d": _nsum(pc.greater(t["n"], 1))})

    out = per_key.map_batches(dups, batch_format="pyarrow").sum("n")
    return int(out or 0)


def _fk_violations(child_ds, child_key: str,
                   parent_ds, parent_key: str) -> int:
    """Child rows whose key has no parent: side-tagged shared keyspace,
    one groupby, no join."""
    from ray.data.aggregate import Sum

    def child_part(t: pa.Table) -> pa.Table:
        keys, cnt = np.unique(
            t[child_key].combine_chunks().to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({"key": keys.astype(np.int64),
                         "n_child": cnt.astype(np.int64),
                         "n_parent": np.zeros(len(keys), np.int64)})

    def parent_part(t: pa.Table) -> pa.Table:
        keys = np.unique(
            t[parent_key].combine_chunks().to_numpy(zero_copy_only=False))
        return pa.table({"key": keys.astype(np.int64),
                         "n_child": np.zeros(len(keys), np.int64),
                         "n_parent": np.ones(len(keys), np.int64)})

    tagged = child_ds.select_columns([child_key]) \
        .map_batches(child_part, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .union(parent_ds.select_columns([parent_key])
               .map_batches(parent_part, batch_format="pyarrow",
                            zero_copy_batch=True))
    per_key = tagged.groupby("key").aggregate(
        Sum("n_child", alias_name="n_child"),
        Sum("n_parent", alias_name="n_parent"))

    def orphans(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["n_parent"], 0)
        return _check_rows(
            {"o": _nsum(pc.if_else(mask, t["n_child"], 0))})

    return int(per_key.map_batches(orphans,
                                   batch_format="pyarrow").sum("n") or 0)


def dq_audit(orders_ds, lineitem_ds, customer_ds) -> pd.DataFrame:
    """Full audit: (check_name, n_violations) — hard integrity checks
    (nulls, domains, PK, FK: expected 0 on a clean ingest) plus policy
    thresholds (expected non-zero) so both paths stay exercised."""

    def li_partial(t: pa.Table) -> pa.Table:
        qty, disc = t["l_quantity"], t["l_discount"]
        return _check_rows({
            "lineitem_null_quantity": _nsum(pc.is_null(qty)),
            "lineitem_quantity_domain": _nsum(pc.or_(
                pc.less(qty, 1.0), pc.greater(qty, 50.0))),
            "lineitem_discount_domain": _nsum(pc.or_(
                pc.less(disc, 0.0), pc.greater(disc, 0.1))),
            "lineitem_policy_qty_gt45": _nsum(pc.greater(qty, 45.0)),
            "lineitem_policy_disc_gt8pct": _nsum(
                pc.greater(disc, 0.08)),
        })

    def o_partial(t: pa.Table) -> pa.Table:
        tot = t["o_totalprice"]
        return _check_rows({
            "orders_null_custkey": _nsum(pc.is_null(t["o_custkey"])),
            "orders_nonpositive_total": _nsum(
                pc.less_equal(tot, 0.0)),
        })

    counts: dict[str, int] = {}
    counts.update(_scalar_checks(
        lineitem_ds.select_columns(["l_quantity", "l_discount"]),
        li_partial))
    counts.update(_scalar_checks(
        orders_ds.select_columns(["o_custkey", "o_totalprice"]),
        o_partial))
    counts["orders_dup_orderkey"] = _dup_pk_count(orders_ds,
                                                  "o_orderkey")
    counts["lineitem_fk_orderkey"] = _fk_violations(
        lineitem_ds, "l_orderkey", orders_ds, "o_orderkey")
    counts["orders_fk_custkey"] = _fk_violations(
        orders_ds, "o_custkey", customer_ds, "c_custkey")

    names = sorted(counts)
    return pd.DataFrame({
        "check_name": names,
        "n_violations": np.array([counts[k] for k in names],
                                 np.int64)})


DQ_AUDIT_SQL = """
SELECT * FROM (
  SELECT 'lineitem_null_quantity' AS check_name,
         count(*) FILTER (l_quantity IS NULL)::BIGINT AS n_violations
  FROM lineitem
  UNION ALL
  SELECT 'lineitem_quantity_domain',
         count(*) FILTER (l_quantity < 1 OR l_quantity > 50)::BIGINT
  FROM lineitem
  UNION ALL
  SELECT 'lineitem_discount_domain',
         count(*) FILTER (l_discount < 0 OR l_discount > 0.1)::BIGINT
  FROM lineitem
  UNION ALL
  SELECT 'lineitem_policy_qty_gt45',
         count(*) FILTER (l_quantity > 45)::BIGINT FROM lineitem
  UNION ALL
  SELECT 'lineitem_policy_disc_gt8pct',
         count(*) FILTER (l_discount > 0.08)::BIGINT FROM lineitem
  UNION ALL
  SELECT 'orders_null_custkey',
         count(*) FILTER (o_custkey IS NULL)::BIGINT FROM orders
  UNION ALL
  SELECT 'orders_nonpositive_total',
         count(*) FILTER (o_totalprice <= 0)::BIGINT FROM orders
  UNION ALL
  SELECT 'orders_dup_orderkey', count(*)::BIGINT FROM (
    SELECT o_orderkey FROM orders GROUP BY 1 HAVING count(*) > 1)
  UNION ALL
  SELECT 'lineitem_fk_orderkey', count(*)::BIGINT
  FROM lineitem l LEFT JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE o.o_orderkey IS NULL
  UNION ALL
  SELECT 'orders_fk_custkey', count(*)::BIGINT
  FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
  WHERE c.c_custkey IS NULL
) ORDER BY check_name
"""


# ---------------------------------------------------------------------------
# columnar encoding advisor
# ---------------------------------------------------------------------------

_EA_COLS = [("event_type", "str"), ("props", "str"), ("user_id", "int")]


def _ea_bits(n_distinct: int) -> int:
    """Dictionary index width: bit_length(n_distinct − 1), min 1 —
    computed the same way on both sides (no float log2: at exact powers
    of two a libm difference would flip the ceiling)."""
    return max(1, (max(n_distinct, 1) - 1).bit_length())


def encoding_advisor(events_ds):
    """Columnar encoding advisor over the events table — for each
    audited column, the exact stats an encoding chooser needs
    (row count, distinct count, run count in ``event_id`` order, value
    bytes) and a deterministic size model for PLAIN vs DICT vs RLE:

      * plain = value_bytes (+ 4·n offsets for strings)
      * dict  = distinct_value_bytes + ceil(n · bit_length(distinct−1) / 8)
      * rle   = n_runs · (4 + ceil(value_bytes / n))

    Output: (column, n_rows, n_distinct, n_runs, plain_bytes,
    dict_bytes, rle_bytes, best) with best the cheapest (ties:
    plain < dict < rle).

    Scale shape: bytes/rows are per-batch sums (n_cols rows per batch)
    folded per column on the driver (``groups.fold``, no exchange);
    distincts are one narrow ``groupby(value)`` per column with
    batch-deduped combiners, finished by a streamed Sum of per-batch
    (1, bytes) partials; runs use THE distributed sorted-adjacency
    shape (``sorted_neighbor_overlap``): after one sort by event_id
    each batch counts its internal value changes and ships only its
    first/last values (2 rows × n_cols per batch) to the driver for
    boundary stitching — result independent of block boundaries.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from .groups import fold

    def _val_bytes(t: pa.Table, col: str, kind: str):
        if kind == "str":
            return pc.sum(pc.utf8_length(t[col])).as_py() or 0
        return 8 * t.num_rows

    # --- rows + total bytes: one narrow pass, n_cols partial rows/block
    def size_partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "column": pa.array([c for c, _ in _EA_COLS], pa.string()),
            "n": pa.array([t.num_rows] * len(_EA_COLS), pa.int64()),
            "b": pa.array([_val_bytes(t, c, k) for c, k in _EA_COLS],
                          pa.int64())})

    _empty = pa.table({
        "column": pa.array([], pa.string()),
        "n_rows": pa.array([], pa.int64()),
        "n_distinct": pa.array([], pa.int64()),
        "n_runs": pa.array([], pa.int64()),
        "plain_bytes": pa.array([], pa.int64()),
        "dict_bytes": pa.array([], pa.int64()),
        "rle_bytes": pa.array([], pa.int64()),
        "best": pa.array([], pa.string())})
    sized = fold(events_ds.select_columns([c for c, _ in _EA_COLS])
                 .map_batches(size_partial, batch_format="pyarrow",
                              zero_copy_batch=True),
                 "column", {"n": ("sum", "n"), "b": ("sum", "b")})
    sizes = dict(zip(sized["column"].to_pylist(),
                     zip(sized["n"].to_pylist(), sized["b"].to_pylist())))
    if not sizes or any(s[0] in (None, 0) for s in sizes.values()):
        return _empty       # empty table: nothing to advise

    # --- distincts: per column, batch-dedup combiner -> narrow groupby
    distincts = {}
    for col, kind in _EA_COLS:
        def dedup(t: pa.Table, col=col) -> pa.Table:
            return t.select([col]).group_by([col], use_threads=False) \
                .aggregate([]).select([col])

        def fin(t: pa.Table, col=col, kind=kind) -> pa.Table:
            return pa.table({
                "nd": pa.array([t.num_rows], pa.int64()),
                "db": pa.array([_val_bytes(t, col, kind)], pa.int64())})

        agg = events_ds.select_columns([col]) \
            .map_batches(dedup, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .groupby(col).aggregate(Count()) \
            .map_batches(fin, batch_format="pyarrow") \
            .aggregate(Sum("nd"), Sum("db"))
        distincts[col] = (int(agg["sum(nd)"]), int(agg["sum(db)"]))

    # --- runs: distributed sorted adjacency with boundary stitching
    def run_partial(t: pa.Table) -> pa.Table:
        rows = {"column": [], "changes": [], "first_v": [], "last_v": [],
                "first_eid": [], "last_eid": []}
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        for col, kind in _EA_COLS:
            v = t[col].to_pylist()
            rows["column"].append(col)
            rows["changes"].append(
                sum(1 for i in range(len(v) - 1) if v[i] != v[i + 1]))
            rows["first_v"].append(str(v[0]) if len(v) else "")
            rows["last_v"].append(str(v[-1]) if len(v) else "")
            rows["first_eid"].append(int(eid[0]) if len(v) else -1)
            rows["last_eid"].append(int(eid[-1]) if len(v) else -1)
        return pa.table({
            "column": pa.array(rows["column"], pa.string()),
            "changes": pa.array(rows["changes"], pa.int64()),
            "first_v": pa.array(rows["first_v"], pa.string()),
            "last_v": pa.array(rows["last_v"], pa.string()),
            "first_eid": pa.array(rows["first_eid"], pa.int64()),
            "last_eid": pa.array(rows["last_eid"], pa.int64())})

    bnd = events_ds.select_columns(
        ["event_id"] + [c for c, _ in _EA_COLS]) \
        .sort("event_id") \
        .map_batches(run_partial, batch_format="pyarrow",
                     zero_copy_batch=True).take_all()
    runs = {}
    for col, _ in _EA_COLS:
        parts = sorted((r for r in bnd
                        if r["column"] == col and r["first_eid"] >= 0),
                       key=lambda r: r["first_eid"])
        changes = sum(r["changes"] for r in parts)
        changes += sum(1 for a, b in zip(parts, parts[1:])
                       if a["last_v"] != b["first_v"])
        runs[col] = changes + 1 if parts else 0

    out = {"column": [], "n_rows": [], "n_distinct": [], "n_runs": [],
           "plain_bytes": [], "dict_bytes": [], "rle_bytes": [],
           "best": []}
    for col, kind in _EA_COLS:
        n, b = int(sizes[col][0]), int(sizes[col][1])
        nd, db = distincts[col]
        nr = runs[col]
        plain = b + (4 * n if kind == "str" else 0)
        dict_ = db + (n * _ea_bits(nd) + 7) // 8
        rle = nr * (4 + (b + n - 1) // n) if n else 0
        best = min((("plain", plain), ("dict", dict_), ("rle", rle)),
                   key=lambda kv: (kv[1], ("plain", "dict", "rle")
                                   .index(kv[0])))[0]
        out["column"].append(col)
        out["n_rows"].append(n)
        out["n_distinct"].append(nd)
        out["n_runs"].append(nr)
        out["plain_bytes"].append(plain)
        out["dict_bytes"].append(dict_)
        out["rle_bytes"].append(rle)
        out["best"].append(best)
    return pa.table({
        "column": pa.array(out["column"], pa.string()),
        "n_rows": pa.array(out["n_rows"], pa.int64()),
        "n_distinct": pa.array(out["n_distinct"], pa.int64()),
        "n_runs": pa.array(out["n_runs"], pa.int64()),
        "plain_bytes": pa.array(out["plain_bytes"], pa.int64()),
        "dict_bytes": pa.array(out["dict_bytes"], pa.int64()),
        "rle_bytes": pa.array(out["rle_bytes"], pa.int64()),
        "best": pa.array(out["best"], pa.string()),
    })


def encoding_advisor_sql() -> str:
    """DuckDB twin: per column, the same exact stats and the same
    integer size model; bit width via length(bin(n_distinct − 1)); no
    row for an empty table."""
    blocks = []
    for col, kind in _EA_COLS:
        vb = f"strlen({col}::VARCHAR)" if kind == "str" else "8"
        dvb = f"sum(strlen(v::VARCHAR))" if kind == "str" \
            else "8 * count(*)"
        plain = "tb + 4 * n" if kind == "str" else "tb"
        blocks.append(f"""
  SELECT '{col}' AS "column", n, nd, nr, {plain} AS plain_bytes,
         db + (n * bits + 7) // 8 AS dict_bytes,
         nr * (4 + (tb + n - 1) // n) AS rle_bytes
  FROM (
    SELECT (SELECT count(*) FROM events) AS n,
           (SELECT count(DISTINCT {col}) FROM events) AS nd,
           (SELECT sum({vb})::BIGINT FROM events) AS tb,
           (SELECT {dvb}::BIGINT FROM
              (SELECT DISTINCT {col} AS v FROM events)) AS db,
           (SELECT sum(({col} IS DISTINCT FROM pv)::BIGINT) FROM
              (SELECT {col}, lag({col}) OVER (ORDER BY event_id) AS pv
               FROM events)) AS nr,
           (SELECT CASE WHEN count(DISTINCT {col}) <= 1 THEN 1
                   ELSE length(bin(count(DISTINCT {col}) - 1)) END
            FROM events) AS bits)""")
    union = " UNION ALL ".join(blocks)
    return f"""
WITH ea_all AS ({union})
SELECT "column", n::BIGINT AS n_rows, nd::BIGINT AS n_distinct,
       nr::BIGINT AS n_runs, plain_bytes::BIGINT AS plain_bytes,
       dict_bytes::BIGINT AS dict_bytes, rle_bytes::BIGINT AS rle_bytes,
       CASE WHEN plain_bytes <= dict_bytes
             AND plain_bytes <= rle_bytes THEN 'plain'
            WHEN dict_bytes <= rle_bytes THEN 'dict'
            ELSE 'rle' END AS best
FROM ea_all WHERE n > 0 ORDER BY "column"
"""


# ---------------------------------------------------------------------------
# record validation with quarantine split
# ---------------------------------------------------------------------------

_DQ_TS_BOUND_US = 1_893_456_000_000_000      # 2030-01-01 epoch µs
_DQ_TS_SHIFT_US = 3_000_000_000_000_000      # ~95-year corruption shift


def validate_and_quarantine(events_ds):
    """Record-level validation with a QUARANTINE output — the
    relational twin of the KG pipeline's parse-error quarantine: a
    deterministically corrupted ingest view of events (md5-selected
    ~15% of rows get a negative value, an unknown event_type, or an
    out-of-range timestamp) runs through the rule engine, and every
    failing row lands in quarantine with its FIRST failing rule:
    (event_id, reason).

    Rules, in precedence order: ``negative_value`` (value < 0),
    ``unknown_type`` (event_type outside the known domain — the
    distinct types of the clean table, broadcast),
    ``ts_out_of_range`` (µs timestamp ≥ 2030-01-01).

    Scale shape: corruption + rules are ONE vectorized pass; the only
    driver-side state is the |types|-bounded domain set.  Valid rows
    never leave their blocks (a production run would write them
    through; here the quarantine table is the audited output).
    """
    import pyarrow.compute as pc

    from .dedup import _md5_60

    domain = set(events_ds.select_columns(["event_type"])
                 .unique("event_type") or [])

    def check(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        h = np.array([_md5_60(f"q{int(i)}".encode()) for i in ids],
                     np.int64) % 20
        value = t["value"].to_numpy(zero_copy_only=False).copy()
        value[h == 0] = -1.0
        types = np.array(t["event_type"].to_pylist(), object)
        types[h == 1] = "bogus"
        ts_us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")),
                        pa.int64()).to_numpy(zero_copy_only=False) \
            + np.where(h == 2, _DQ_TS_SHIFT_US, 0)
        known = np.array([s in domain for s in types], bool)
        reason = np.where(
            value < 0, "negative_value",
            np.where(~known, "unknown_type",
                     np.where(ts_us >= _DQ_TS_BOUND_US,
                              "ts_out_of_range", "")))
        bad = reason != ""
        return pa.table({
            "event_id": pa.array(ids[bad], pa.int64()),
            "reason": pa.array(reason[bad].tolist(), pa.string())})

    return events_ds.select_columns(
        ["event_id", "value", "event_type", "ts"]) \
        .map_batches(check, batch_format="pyarrow",
                     zero_copy_batch=True)


def validate_and_quarantine_sql() -> str:
    return f"""
WITH vq_h AS (
  SELECT event_id, value, event_type, epoch_us(ts) AS ts_us,
         ('0x' || substr(md5('q' || event_id), 1, 15))::BIGINT % 20
           AS h
  FROM events),
vq_c AS (
  SELECT event_id,
         CASE WHEN h = 0 THEN -1.0 ELSE value END AS value,
         CASE WHEN h = 1 THEN 'bogus' ELSE event_type END
           AS event_type,
         ts_us + CASE WHEN h = 2 THEN {_DQ_TS_SHIFT_US} ELSE 0 END
           AS ts_us
  FROM vq_h)
SELECT event_id,
       CASE WHEN value < 0 THEN 'negative_value'
            WHEN event_type NOT IN
                 (SELECT DISTINCT event_type FROM events)
              THEN 'unknown_type'
            WHEN ts_us >= {_DQ_TS_BOUND_US} THEN 'ts_out_of_range'
       END AS reason
FROM vq_c
WHERE value < 0
   OR event_type NOT IN (SELECT DISTINCT event_type FROM events)
   OR ts_us >= {_DQ_TS_BOUND_US}
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# k-anonymity audit
# ---------------------------------------------------------------------------

def k_anonymity_audit(docs_ds, ks: tuple = (2, 5, 10)):
    """k-anonymity audit over the quasi-identifier tuple
    (lang, source, n_chars//100): for each target k, how many QI
    equivalence classes have fewer than k members and how many records
    sit in such classes — the re-identification-risk screen run before
    releasing a dataset (the k-anonymity complement of the
    dp_noisy_counts release mechanism).  Output per k: (k, n_groups,
    n_small_groups, n_risky_docs, risky_ppm).

    Scale shape: ONE native groupby over the QI tuple (class-bounded,
    never the corpus), then per-batch (k, groups, small, risky)
    partials folded on a ≤|ks|-row rollup.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def prep(t: pa.Table) -> pa.Table:
        bucket = pc.divide(t["n_chars"], pa.scalar(100, pa.int64()))
        return pa.table({"lang": t["lang"], "source": t["source"],
                         "nb": bucket})

    classes = docs_ds.select_columns(["lang", "source", "n_chars"]) \
        .map_batches(prep, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["lang", "source", "nb"]) \
        .aggregate(Count(alias_name="n")).take_all()
    sizes = [int(r["n"]) for r in classes]
    total = sum(sizes)
    out = {"k": [], "n_groups": [], "n_small_groups": [],
           "n_risky_docs": [], "risky_ppm": []}
    for k in ks:
        small = [s for s in sizes if s < k]
        risky = sum(small)
        out["k"].append(int(k))
        out["n_groups"].append(len(sizes))
        out["n_small_groups"].append(len(small))
        out["n_risky_docs"].append(risky)
        out["risky_ppm"].append((1_000_000 * risky) // total
                                if total else 0)
    return pa.table({kk: pa.array(v, pa.int64())
                     for kk, v in out.items()})


def k_anonymity_audit_sql(ks: tuple = (2, 5, 10)) -> str:
    k_list = ", ".join(str(k) for k in ks)
    return f"""
WITH ka_g AS (
  SELECT lang, source, n_chars // 100 AS nb, count(*) AS n
  FROM documents GROUP BY lang, source, nb),
ka_t AS (SELECT count(*) AS n_groups, sum(n) AS total FROM ka_g),
ka_k AS (SELECT unnest([{k_list}]) AS k)
SELECT k.k::BIGINT AS k, t.n_groups::BIGINT AS n_groups,
       (SELECT count(*) FROM ka_g g WHERE g.n < k.k)::BIGINT
         AS n_small_groups,
       coalesce((SELECT sum(g.n) FROM ka_g g WHERE g.n < k.k),
                0)::BIGINT AS n_risky_docs,
       ((1000000 * coalesce((SELECT sum(g.n) FROM ka_g g
                             WHERE g.n < k.k), 0))
        // t.total)::BIGINT AS risky_ppm
FROM ka_k k CROSS JOIN ka_t t ORDER BY k.k
"""


# ---------------------------------------------------------------------------
# categorical composition drift
# ---------------------------------------------------------------------------

def composition_drift(docs_ds):
    """Per-source language-mix drift between two deterministic corpus
    halves (doc_id parity stands in for before/after snapshots): the
    exact L1 (total-variation ×2) distance between each source's lang
    distributions, in ppm — the categorical complement of the
    ``ks_value_drift`` numeric test.  Output per source:
    (source, n_a, n_b, l1_ppm).

    Scale shape: ONE native groupby over (source, lang, parity) —
    catalog-bounded — and a driver fold over that tiny table.  Sources
    seen in only one half get l1_ppm = 1,000,000 (total drift).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def prep(t: pa.Table) -> pa.Table:
        par = pc.bit_wise_and(t["doc_id"], pa.scalar(1, pa.int64()))
        return pa.table({"source": t["source"], "lang": t["lang"],
                         "par": par})

    rows = docs_ds.select_columns(["doc_id", "source", "lang"]) \
        .map_batches(prep, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["source", "lang", "par"]) \
        .aggregate(Count(alias_name="n")).take_all()
    per: dict[str, dict[str, list[int]]] = {}
    for r in rows:
        d = per.setdefault(r["source"], {}).setdefault(
            r["lang"], [0, 0])
        d[int(r["par"])] += int(r["n"])
    out = {"source": [], "n_a": [], "n_b": [], "l1_ppm": []}
    for src in sorted(per):
        langs = per[src]
        n_a = sum(v[0] for v in langs.values())
        n_b = sum(v[1] for v in langs.values())
        if n_a == 0 or n_b == 0:
            l1 = 1_000_000
        else:
            # Σ |p_a − p_b| over langs, exact: |a·n_b − b·n_a| summed
            # then // (n_a·n_b), halved ppm scale folded in (L1 ≤ 2)
            num = sum(abs(v[0] * n_b - v[1] * n_a)
                      for v in langs.values())
            l1 = (1_000_000 * num) // (2 * n_a * n_b)
        out["source"].append(src)
        out["n_a"].append(n_a)
        out["n_b"].append(n_b)
        out["l1_ppm"].append(l1)
    return pa.table({
        "source": pa.array(out["source"], pa.string()),
        "n_a": pa.array(out["n_a"], pa.int64()),
        "n_b": pa.array(out["n_b"], pa.int64()),
        "l1_ppm": pa.array(out["l1_ppm"], pa.int64()),
    })


def composition_drift_sql() -> str:
    return """
WITH cd_c AS (
  SELECT source, lang, doc_id % 2 AS par, count(*) AS n
  FROM documents GROUP BY source, lang, par),
cd_l AS (
  SELECT source, lang,
         coalesce(sum(CASE WHEN par = 0 THEN n END), 0) AS a,
         coalesce(sum(CASE WHEN par = 1 THEN n END), 0) AS b
  FROM cd_c GROUP BY source, lang),
cd_s AS (
  SELECT source, sum(a) AS n_a, sum(b) AS n_b,
         sum(abs(a::HUGEINT * (SELECT sum(b) FROM cd_l x
                               WHERE x.source = cd_l.source)
                 - b::HUGEINT * (SELECT sum(a) FROM cd_l y
                                 WHERE y.source = cd_l.source)))
           AS num
  FROM cd_l GROUP BY source)
SELECT source, n_a::BIGINT AS n_a, n_b::BIGINT AS n_b,
       (CASE WHEN n_a = 0 OR n_b = 0 THEN 1000000
             ELSE (1000000 * num) // (2 * n_a * n_b)
        END)::BIGINT AS l1_ppm
FROM cd_s ORDER BY source
"""
