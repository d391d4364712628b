"""Relational / analytical pipelines over the TPC-H-ish testdata tables,
each with an exact DuckDB-SQL oracle (driver correctness gate).

These exercise the engine's wide-operator surface the same way the
reference's test harness exercises its sort/dedup/compare ops
(SURVEY.md §2e) — but Ray-Data-first:

* reads prune columns at the source (``read_parquet(columns=...)``);
* per-batch logic is vectorized pyarrow/pandas — no Python row loops;
* dimension tables join by broadcast (driver-side Arrow table → closure)
  instead of shuffling the fact table;
* an aggregate over a bounded key (statuses, nations, types, months)
  is one ``groups.fold`` — per-batch Arrow partials merged on the
  driver, no exchange; a key that grows with the rows (customers,
  orders, users) keeps Ray's native ``groupby().aggregate(...)``.

Column-naming contract: every computed column is named identically in
the Ray pipeline and its oracle SQL (the driver hash-compares values
after sorting by column name).  Float aggregates are rounded on BOTH
sides to dodge summation-order ulps.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .ops.groups import fold


def _path(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _read(sf_dir: str, name: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(_path(sf_dir, name), columns=columns)


def _round_cols(df, cols, digits=6):
    """Round half-AWAY-from-zero to match DuckDB ``round()`` — pandas
    ``.round`` is banker's (half-even), which diverges on exactly-dyadic
    means (e.g. odd-sum/32 → .03125) and breaks the value-hash gate."""
    import numpy as np

    scale = 10.0 ** digits
    for c in cols:
        v = df[c].to_numpy(dtype=np.float64)
        df[c] = np.copysign(np.floor(np.abs(v) * scale + 0.5), v) / scale
    return df


def _to_int64(col, scale: int) -> pa.Array:
    """round(col * scale) as exact int64 (money→cents etc.).  Makes
    distributed sums order-independent; the oracle SQL mirrors it."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(float(scale))),
                            round_mode="half_towards_infinity"),
                   pa.int64())


def _money_cents(col) -> pa.Array:
    return _to_int64(col, 100)


# ---------------------------------------------------------------------------
# Q1-style pricing summary (scan → filter → fold → sort)
# ---------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    cutoff = "1998-09-01"
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount", "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["l_shipdate"],
                             pa.scalar(cutoff).cast(pa.timestamp("us"))))
        # money in integer cents / discount in basis points: float sums
        # over 10^5+ rows are summation-order-dependent at the 1e-4
        # rounding boundary, so both this and the oracle SQL sum EXACT
        # int64 and divide once at the end
        cents = _money_cents(t["l_extendedprice"])
        bp = _to_int64(t["l_discount"], 10_000)
        disc_n = pc.multiply(cents, pc.subtract(pa.scalar(10_000, pa.int64()),
                                                bp))
        # l_quantity is integral: the checked cast sums it exactly
        return pa.Table.from_arrays(
            [t["l_returnflag"], t["l_linestatus"],
             pc.cast(t["l_quantity"], pa.int64()), cents, disc_n],
            names=["l_returnflag", "l_linestatus", "qty", "cents", "disc_n"])

    df = fold(ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True),
              ["l_returnflag", "l_linestatus"],
              {"sum_qty": ("sum", "qty"), "sum_cents": ("sum", "cents"),
               "sum_disc_n": ("sum", "disc_n"),
               "count_order": ("count", None)}).to_pandas()
    df["sum_qty"] = df["sum_qty"].astype("float64")
    df["avg_qty"] = df["sum_qty"] / df["count_order"]
    df["sum_base_price"] = df.pop("sum_cents") / 100.0
    df["sum_disc_price"] = df.pop("sum_disc_n") / 1_000_000.0
    df = df[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
             "sum_disc_price", "avg_qty", "count_order"]]
    return _round_cols(df, ["sum_qty", "sum_base_price", "sum_disc_price",
                            "avg_qty"], 4)


Q_PRICING_SUMMARY_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 4)                          AS sum_qty,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0, 4)
                                                          AS sum_base_price,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
             / 1000000.0, 4)                              AS sum_disc_price,
       round(avg(l_quantity), 4)                          AS avg_qty,
       count(*)                                           AS count_order
FROM lineitem
WHERE l_shipdate < TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# orders by status (fold + rounded money sum)
# ---------------------------------------------------------------------------

def q_orders_by_status(sf_dir: str):
    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_orderstatus"], _money_cents(t["o_totalprice"])],
            names=["o_orderstatus", "cents"])

    df = fold(ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True), "o_orderstatus",
              {"n_orders": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    df["total_price"] = df.pop("cents") / 100.0
    return _round_cols(df[["o_orderstatus", "n_orders", "total_price"]],
                       ["total_price"], 4)


Q_ORDERS_BY_STATUS_SQL = """
SELECT o_orderstatus, count(*) AS n_orders,
       round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 4)
           AS total_price
FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus
"""


# ---------------------------------------------------------------------------
# top customers by revenue (broadcast hash join + groupby + top-k)
# ---------------------------------------------------------------------------

def q_top_customers(sf_dir: str):
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_custkey"], _money_cents(t["o_totalprice"])],
            names=["o_custkey", "cents"])

    # aggregate first; sort + limit stay distributed; only the 10
    # winning rows ever reach the driver.  The names come from a
    # predicate-pushdown parquet read over just those 10 keys — never a
    # whole-dimension driver dict (at 100x, customer is ~15M rows).
    # native: the customer key grows with the rows
    top = orders.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby("o_custkey").aggregate(Sum("cents", alias_name="cents")) \
        .sort(["cents", "o_custkey"], descending=[True, False]) \
        .limit(10).to_pandas()
    top["revenue"] = top.pop("cents") / 100.0
    top = top.rename(columns={"o_custkey": "c_custkey"})
    names = pq.read_table(
        _path(sf_dir, "customer"), columns=["c_custkey", "c_name"],
        filters=[("c_custkey", "in", top["c_custkey"].tolist())]) \
        .to_pandas()
    top = top.merge(names, on="c_custkey", how="left")
    return top[["c_custkey", "c_name", "revenue"]].reset_index(drop=True)


Q_TOP_CUSTOMERS_SQL = """
SELECT c_custkey, c_name,
       sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_custkey, c_name
ORDER BY revenue DESC, c_custkey ASC
LIMIT 10
"""


# ---------------------------------------------------------------------------
# region → nation → customer rollup (two broadcast joins and one fold:
# the fact table never shuffles)
# ---------------------------------------------------------------------------

def q_customers_per_region(sf_dir: str):
    nation = pq.read_table(_path(sf_dir, "nation"))
    region = pq.read_table(_path(sf_dir, "region"))
    r_names = dict(zip(region["r_regionkey"].to_pylist(),
                       region["r_name"].to_pylist()))
    n_to_region = {nk: r_names[rk] for nk, rk in
                   zip(nation["n_nationkey"].to_pylist(),
                       nation["n_regionkey"].to_pylist())}

    cust = _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])

    def attach(t: pa.Table) -> pa.Table:
        keys = pa.array(sorted(n_to_region), pa.int32())
        vals = pa.array([n_to_region[k] for k in sorted(n_to_region)])
        idx = pc.index_in(t["c_nationkey"], value_set=keys)
        t = t.append_column("r_name", pc.take(vals, idx))
        return t.append_column("cents", _money_cents(t["c_acctbal"]))

    df = fold(cust.map_batches(attach, batch_format="pyarrow"), "r_name",
              {"n_customers": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    df["total_acctbal"] = df.pop("cents") / 100.0
    return df


Q_CUSTOMERS_PER_REGION_SQL = """
SELECT r_name, count(*) AS n_customers,
       sum(CAST(round(c_acctbal * 100) AS BIGINT)) / 100.0 AS total_acctbal
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name ORDER BY r_name
"""


# ---------------------------------------------------------------------------
# events rollup by type + day (timestamp bucketing)
# ---------------------------------------------------------------------------

def q_events_by_type_day(sf_dir: str):
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"),
                      pa.timestamp("us"))
        return pa.Table.from_arrays(
            [t["event_type"], day, _money_cents(t["value"])],
            names=["event_type", "day", "cents"])

    df = fold(ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True), ["event_type", "day"],
              {"n_events": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    df["total_value"] = df.pop("cents") / 100.0
    return df


Q_EVENTS_BY_TYPE_DAY_SQL = """
SELECT event_type, date_trunc('day', ts) AS day, count(*) AS n_events,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value
FROM events GROUP BY event_type, day ORDER BY event_type, day
"""


# ---------------------------------------------------------------------------
# per-user activity (high-cardinality groupby; full result, no top-k ties)
# ---------------------------------------------------------------------------

def q_user_activity(sf_dir: str):
    from ray.data.aggregate import Count, Max, Sum

    ds = _read(sf_dir, "events", columns=["user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["user_id"], _money_cents(t["value"]), t["value"]],
            names=["user_id", "cents", "value"])

    # native: the user key grows with the rows
    df = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("user_id") \
        .aggregate(Count(alias_name="n_events"),
                   Sum("cents", alias_name="cents"),
                   Max("value", alias_name="max_value")) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    df["sum_value"] = df.pop("cents") / 100.0
    df = df[["user_id", "n_events", "sum_value", "max_value"]]
    return _round_cols(df, ["max_value"], 4)


Q_USER_ACTIVITY_SQL = """
SELECT user_id, count(*) AS n_events,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS sum_value,
       round(max(value), 4) AS max_value
FROM events GROUP BY user_id ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# parts by brand (simple dim-table analytics)
# ---------------------------------------------------------------------------

def q_parts_by_brand(sf_dir: str):
    ds = _read(sf_dir, "part", columns=["p_brand", "p_retailprice", "p_size"])
    df = fold(ds, "p_brand", {"n_parts": ("count", None),
                              "max_price": ("max", "p_retailprice"),
                              "min_size": ("min", "p_size")}).to_pandas()
    return _round_cols(df, ["max_price"], 4)


Q_PARTS_BY_BRAND_SQL = """
SELECT p_brand, count(*) AS n_parts, round(max(p_retailprice), 4) AS max_price,
       min(p_size) AS min_size
FROM part GROUP BY p_brand ORDER BY p_brand
"""


# ---------------------------------------------------------------------------
# lineitem × part broadcast join: revenue by part type
# ---------------------------------------------------------------------------

def q_revenue_by_part_type(sf_dir: str):
    part = pq.read_table(_path(sf_dir, "part"), columns=["p_partkey", "p_type"])
    keys = part["p_partkey"].combine_chunks()
    vals = part["p_type"].combine_chunks()

    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount"])

    def attach(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["l_partkey"], value_set=keys)
        cents = _money_cents(t["l_extendedprice"])
        bp = _to_int64(t["l_discount"], 10_000)
        rev_n = pc.multiply(cents, pc.subtract(pa.scalar(10_000, pa.int64()),
                                               bp))
        return pa.Table.from_arrays(
            [pc.take(vals, idx), rev_n], names=["p_type", "rev_n"])

    df = fold(ds.map_batches(attach, batch_format="pyarrow",
                             zero_copy_batch=True), "p_type",
              {"rev_n": ("sum", "rev_n")}).to_pandas()
    df["revenue"] = df.pop("rev_n") / 1_000_000.0
    return _round_cols(df[["p_type", "revenue"]], ["revenue"], 4)


Q_REVENUE_BY_PART_TYPE_SQL = """
SELECT p_type,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
             / 1000000.0, 4) AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_type ORDER BY p_type
"""


# ---------------------------------------------------------------------------
# semi-join: orders having ≥1 discounted lineitem (broadcast key set —
# no shuffle of either side; ray_guide "Semi / anti join" pattern)
# ---------------------------------------------------------------------------

def _distinct_keys(ds, filter_fn, key_col: str) -> pa.Array:
    """Distinct qualifying keys computed IN RAY (per-batch filter +
    pre-dedup, then a distributed distinct) — the driver only receives
    the small broadcast key set, never the fact table."""
    def batch_keys(t: pa.Table) -> pa.Table:
        keep = filter_fn(t)
        return pa.Table.from_arrays(
            [pc.unique(keep[key_col].combine_chunks())], names=[key_col])

    vals = ds.map_batches(batch_keys, batch_format="pyarrow",
                          zero_copy_batch=True).unique(key_col)
    return pa.array(sorted(vals))


def q_discounted_orders(sf_dir: str):
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_discount"])
    keys = _distinct_keys(
        li, lambda t: t.filter(pc.greater(t["l_discount"], 0.09)),
        "l_orderkey")

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority", "o_totalprice"])

    def semi(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(pc.index_in(t["o_orderkey"],
                                             value_set=keys)))
        return pa.Table.from_arrays(
            [t["o_orderpriority"], _money_cents(t["o_totalprice"])],
            names=["o_orderpriority", "cents"])

    df = fold(orders.map_batches(semi, batch_format="pyarrow",
                                 zero_copy_batch=True), "o_orderpriority",
              {"n_orders": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    df["total_price"] = df.pop("cents") / 100.0
    return df


Q_DISCOUNTED_ORDERS_SQL = """
SELECT o_orderpriority, count(*) AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS total_price
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_discount > 0.09)
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# anti-join: customers with no orders (broadcast key set)
# ---------------------------------------------------------------------------

def q_customers_without_orders(sf_dir: str):
    # anti-join against a selective subquery (customers lacking any
    # finished order) so the result is non-trivial at every sf
    keys = _distinct_keys(
        _read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"]),
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "F")),
        "o_custkey")

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_name", "c_mktsegment"])

    def anti(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_null(pc.index_in(t["c_custkey"],
                                               value_set=keys)))

    import pandas as pd

    df = cust.map_batches(anti, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
    if df.empty:
        # an empty Ray result drops its schema; pin the columns so the
        # all-customers-have-orders case still hash-matches the oracle
        df = pd.DataFrame(columns=["c_custkey", "c_name", "c_mktsegment"])
    return df.sort_values("c_custkey").reset_index(drop=True)


Q_CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT c_custkey, c_name, c_mktsegment
FROM customer
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey AND o_orderstatus = 'F')
ORDER BY c_custkey
"""


# ---------------------------------------------------------------------------
# exact distinct-count via two-stage aggregation (distinct pairs shuffle,
# then a fold counts them per type — the scalable COUNT(DISTINCT) shape)
# ---------------------------------------------------------------------------

def q_distinct_users_per_type(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_type", "user_id"])
    # native: the (type, user) pairs grow with the users
    pairs = ev.groupby(["event_type", "user_id"]).count() \
        .drop_columns(["count()"])
    return fold(pairs, "event_type", {"n_users": ("count", None)}) \
        .to_pandas()


Q_DISTINCT_USERS_PER_TYPE_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# per-key argmax (top event per user) as ONE native aggregate: encode
# (value desc, event_id asc) into a single int64 composite so Max() is
# the row_number()=1 row — no per-group pandas, no map_groups, and the
# shuffle carries one int per (user, batch) after Ray's partial combine
# ---------------------------------------------------------------------------

_ARGMAX_SHIFT = 33  # event_id < 2^33; composite = cents<<33 | (2^33-1-eid)


def q_top_event_per_user(sf_dir: str):
    from ray.data.aggregate import Max

    ev = _read(sf_dir, "events", columns=["user_id", "event_id", "value"])
    half = pa.scalar((1 << _ARGMAX_SHIFT) - 1, pa.int64())

    def prep(t: pa.Table) -> pa.Table:
        cents = _money_cents(t["value"])
        comp = pc.add(
            pc.shift_left(cents, pa.scalar(_ARGMAX_SHIFT, pa.int64())),
            pc.subtract(half, pc.cast(t["event_id"], pa.int64())))
        return pa.Table.from_arrays([t["user_id"], comp],
                                    names=["user_id", "comp"])

    def decode(t: pa.Table) -> pa.Table:
        comp = t["comp"].combine_chunks()
        cents = pc.shift_right(comp, pa.scalar(_ARGMAX_SHIFT, pa.int64()))
        eid = pc.subtract(half, pc.subtract(
            comp, pc.shift_left(cents, pa.scalar(_ARGMAX_SHIFT, pa.int64()))))
        value = pc.divide(pc.cast(cents, pa.float64()), 100.0)
        return pa.Table.from_arrays([t["user_id"], eid, value],
                                    names=["user_id", "event_id", "value"])

    # native: the user key grows with the rows
    return ev.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("user_id").aggregate(Max("comp", alias_name="comp")) \
        .map_batches(decode, batch_format="pyarrow") \
        .to_pandas().sort_values("user_id").reset_index(drop=True)


Q_TOP_EVENT_PER_USER_SQL = """
WITH ranked AS (
  SELECT user_id, event_id, value,
         row_number() OVER (
           PARTITION BY user_id
           ORDER BY CAST(round(value * 100) AS BIGINT) DESC,
                    event_id ASC) AS rn
  FROM events)
SELECT user_id, event_id,
       CAST(round(value * 100) AS BIGINT) / 100.0 AS value
FROM ranked WHERE rn = 1 ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# Q3-style shipping priority: 3-table pipeline via two broadcast stages —
# customer segment filters orders, qualifying orders filter lineitem,
# revenue aggregates per order, deterministic top-10
# ---------------------------------------------------------------------------

def q_shipping_priority(sf_dir: str):
    from ray.data.aggregate import Sum

    # stage 1: BUILDING-segment customer keys (small broadcast set), in Ray
    seg_keys = _distinct_keys(
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        "c_custkey")

    # stage 2: qualifying order keys via broadcast semi-join, in Ray —
    # the orders fact table never touches the driver
    cutoff = pa.scalar("1995-03-15").cast(pa.timestamp("us"))
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(
            pc.is_valid(pc.index_in(t["o_custkey"], value_set=seg_keys)),
            pc.less(t["o_orderdate"], cutoff)))

    okeys = _distinct_keys(orders, o_filter, "o_orderkey")

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        # exact fixed-point revenue (cents × basis points): float sums
        # are summation-order-dependent; the oracle mirrors the formula
        t = t.filter(pc.and_(
            pc.is_valid(pc.index_in(t["l_orderkey"], value_set=okeys)),
            pc.greater(t["l_shipdate"], cutoff)))
        cents = _money_cents(t["l_extendedprice"])
        bp = _to_int64(t["l_discount"], 10_000)
        disc_n = pc.multiply(cents, pc.subtract(
            pa.scalar(10_000, pa.int64()), bp))
        return pa.Table.from_arrays([t["l_orderkey"], disc_n],
                                    names=["o_orderkey", "disc_n"])

    def to_revenue(t: pa.Table) -> pa.Table:
        # revenue rounded BEFORE the top-k sort so ties break by
        # o_orderkey exactly as the oracle's ORDER BY round(...) does;
        # half-away-from-zero via the same floor(+0.5) formula used
        # driver-side (matches DuckDB round on doubles)
        import numpy as np

        v = t["disc_n"].to_numpy(zero_copy_only=False) / 1_000_000.0
        rev = np.floor(np.abs(v) * 1e4 + 0.5) * np.sign(v) / 1e4
        return pa.Table.from_arrays(
            [t["o_orderkey"], pa.array(rev, pa.float64())],
            names=["o_orderkey", "revenue"])

    # native: the order key grows with the rows
    top = li.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("o_orderkey").aggregate(Sum("disc_n", alias_name="disc_n")) \
        .map_batches(to_revenue, batch_format="pyarrow") \
        .sort(["revenue", "o_orderkey"], descending=[True, False]) \
        .limit(10).to_pandas()

    # stage 3: dates for just the top-10 keys — a targeted broadcast
    # filter over orders, 10 rows back to the driver
    top_keys = pa.array(top["o_orderkey"].tolist(), okeys.type)
    dates = orders.map_batches(
        lambda t: t.filter(pc.is_valid(
            pc.index_in(t["o_orderkey"], value_set=top_keys))),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    odates = dict(zip(dates["o_orderkey"], dates["o_orderdate"]))
    top["o_orderdate"] = top["o_orderkey"].map(odates)
    return top[["o_orderkey", "revenue", "o_orderdate"]] \
        .reset_index(drop=True)


Q_SHIPPING_PRIORITY_SQL = """
SELECT l_orderkey AS o_orderkey,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
             / 1000000.0, 4) AS revenue,
       o_orderdate
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1995-03-15'
  AND l_shipdate  > TIMESTAMP '1995-03-15'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, o_orderkey ASC
LIMIT 10
"""


# ---------------------------------------------------------------------------
# as-of join: each click joined to the user's most recent prior purchase
# (distributed co-partitioned merge_asof — ops/asof.py; the oracle is a
# native DuckDB ASOF JOIN)
# ---------------------------------------------------------------------------

def q_asof_click_purchase(sf_dir: str):
    import numpy as np

    from .ops.asof import asof_join

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type", "value"])

    def clicks_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "click"))
        return t.select(["event_id", "user_id", "ts"])

    def purch_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        # cents as float64: a left-join bucket with any unmatched row
        # would promote int64→float64 only in SOME blocks; exact ints in
        # float64 keep every block's schema identical
        cents = pc.cast(_money_cents(t["value"]), pa.float64())
        return pa.Table.from_arrays(
            [t["user_id"], t["ts"], t["ts"], cents],
            names=["user_id", "ts", "purchase_ts", "purchase_cents"])

    clicks = ev.map_batches(clicks_prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    purch = ev.map_batches(purch_prep, batch_format="pyarrow",
                           zero_copy_batch=True)
    df = asof_join(clicks, purch, by="user_id", on="ts",
                   how="inner").to_pandas()

    ts_us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    p_us = df["purchase_ts"].to_numpy().astype("datetime64[us]") \
        .astype(np.int64)
    df["lag_sec"] = (ts_us - p_us) / 1e6
    df["purchase_value"] = df.pop("purchase_cents") / 100.0
    return df[["event_id", "user_id", "purchase_ts", "purchase_value",
               "lag_sec"]].sort_values("event_id").reset_index(drop=True)


Q_ASOF_CLICK_PURCHASE_SQL = """
WITH purch AS (
  SELECT user_id, ts, ts AS purchase_ts,
         max(CAST(round(value * 100) AS BIGINT)) AS cents
  FROM events WHERE event_type = 'purchase' GROUP BY user_id, ts),
clicks AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'click')
SELECT c.event_id, c.user_id, p.purchase_ts,
       p.cents / 100.0 AS purchase_value,
       (epoch_us(c.ts) - epoch_us(p.purchase_ts)) / 1000000.0 AS lag_sec
FROM clicks c ASOF JOIN purch p
  ON c.user_id = p.user_id AND c.ts >= p.ts
ORDER BY c.event_id
"""


# ---------------------------------------------------------------------------
# interval (range) join: events bucketed into value bands — broadcast
# band table and a fold of the bands, zero shuffle (ops/asof.py)
# ---------------------------------------------------------------------------

_VALUE_BANDS = [("T0", 0.0, 25.0), ("T1", 25.0, 50.0), ("T2", 50.0, 100.0),
                ("T3", 100.0, 200.0), ("T4", 200.0, 1000.0)]


def q_value_bands(sf_dir: str):
    from .ops.asof import band_join

    bands = pa.table({
        "band": [b for b, _, _ in _VALUE_BANDS],
        "lo": [lo for _, lo, _ in _VALUE_BANDS],
        "hi": [hi for _, _, hi in _VALUE_BANDS],
    })
    ev = _read(sf_dir, "events", columns=["value"])

    def cents_col(t: pa.Table) -> pa.Table:
        return t.append_column("cents", _money_cents(t["value"]))

    df = fold(band_join(ev.map_batches(cents_col, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        bands, value_col="value"), "band",
              {"n_events": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    df["total_value"] = df.pop("cents") / 100.0
    return df[["band", "n_events", "total_value"]]


Q_VALUE_BANDS_SQL = """
WITH bands(band, lo, hi) AS (VALUES
  ('T0', 0.0, 25.0), ('T1', 25.0, 50.0), ('T2', 50.0, 100.0),
  ('T3', 100.0, 200.0), ('T4', 200.0, 1000.0))
SELECT band, count(*) AS n_events,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value
FROM events JOIN bands ON value >= lo AND value < hi
GROUP BY band ORDER BY band
"""


# ---------------------------------------------------------------------------
# grouped mode (most frequent category per key) — two native hash
# aggregations, no per-group Python (ops/stats.py:grouped_mode)
# ---------------------------------------------------------------------------

def q_top_type_per_user(sf_dir: str):
    from .ops.stats import grouped_mode

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return grouped_mode(ev, key="user_id", cat_col="event_type",
                        out_cat="top_type", out_n="n_events") \
        .to_pandas().sort_values("user_id").reset_index(drop=True)


Q_TOP_TYPE_PER_USER_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS cnt
  FROM events GROUP BY user_id, event_type),
r AS (
  SELECT *, row_number() OVER (
    PARTITION BY user_id ORDER BY cnt DESC, event_type ASC) AS rn
  FROM c)
SELECT user_id, event_type AS top_type, cnt AS n_events
FROM r WHERE rn = 1 ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# grouped exact quantiles via fixed-point value histogram
# (ops/stats.py:grouped_quantiles — shuffle bounded by value range, not
# corpus size)
# ---------------------------------------------------------------------------

def q_event_value_quantiles(sf_dir: str):
    from .ops.stats import grouped_quantiles

    ev = _read(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantiles(ev, key="event_type", value_col="value")


Q_EVENT_VALUE_QUANTILES_SQL = """
SELECT event_type,
       round(quantile_cont(CAST(round(value * 100) AS BIGINT), 0.5)
             / 100.0, 6) AS p50,
       round(quantile_cont(CAST(round(value * 100) AS BIGINT), 0.9)
             / 100.0, 6) AS p90,
       round(quantile_cont(CAST(round(value * 100) AS BIGINT), 0.95)
             / 100.0, 6) AS p95
FROM events GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# Q5-style local-supplier revenue: lineitem ⋈ orders AND orders ⋈
# customer both go through bucketed hash-join shuffles (customer is a
# scaling dimension — at 100x it's ~15M rows, too big to broadcast into
# every map task).  Supplier (10x smaller than customer, key+nation
# only) and nation/region (25/5 rows) stay broadcast; at extreme scale
# the same bucketed join applies to the supplier leg unchanged.
# ---------------------------------------------------------------------------

def q_local_supplier_revenue(sf_dir: str):
    from .ops.join import bucketed_hash_join

    nation = pq.read_table(_path(sf_dir, "nation"))
    region = pq.read_table(_path(sf_dir, "region"))
    rmap = dict(zip(region["r_regionkey"].to_pylist(),
                    region["r_name"].to_pylist()))
    asia = sorted(nk for nk, rk in
                  zip(nation["n_nationkey"].to_pylist(),
                      nation["n_regionkey"].to_pylist())
                  if rmap[rk] == "ASIA")
    asia_arr = pa.array(asia, pa.int32())
    nkeys = nation["n_nationkey"].combine_chunks()
    nvals = nation["n_name"].combine_chunks()

    supp = pq.read_table(_path(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey"])
    skeys = supp["s_suppkey"].combine_chunks()
    snat = supp["s_nationkey"].combine_chunks()

    lo = pa.scalar("1996-01-01").cast(pa.timestamp("us"))
    hi = pa.scalar("1998-01-01").cast(pa.timestamp("us"))

    def c_prep(t: pa.Table) -> pa.Table:
        # ASIA-only customers (~20% selectivity) enter the join shuffle
        t = t.filter(pc.is_valid(pc.index_in(t["c_nationkey"],
                                             value_set=asia_arr)))
        return pa.Table.from_arrays(
            [t["c_custkey"], t["c_nationkey"]],
            names=["c_custkey", "cust_nation"])

    c_sel = _read(sf_dir, "customer",
                  columns=["c_custkey", "c_nationkey"]) \
        .map_batches(c_prep, batch_format="pyarrow", zero_copy_batch=True)

    def o_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                             pc.less(t["o_orderdate"], hi)))
        return t.select(["o_orderkey", "o_custkey"])

    o_dates = _read(sf_dir, "orders",
                    columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(o_prep, batch_format="pyarrow", zero_copy_batch=True)

    o_sel = bucketed_hash_join(o_dates, c_sel,
                               "o_custkey", "c_custkey") \
        .select_columns(["o_orderkey", "cust_nation"])

    def l_prep(t: pa.Table) -> pa.Table:
        cents = _money_cents(t["l_extendedprice"])
        bp = _to_int64(t["l_discount"], 10_000)
        disc_n = pc.multiply(cents, pc.subtract(
            pa.scalar(10_000, pa.int64()), bp))
        snation = pc.take(snat, pc.index_in(t["l_suppkey"],
                                            value_set=skeys))
        return pa.Table.from_arrays(
            [t["l_orderkey"], snation, disc_n],
            names=["l_orderkey", "supp_nation", "disc_n"])

    l_sel = _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                           "l_discount"]) \
        .map_batches(l_prep, batch_format="pyarrow", zero_copy_batch=True)

    j = bucketed_hash_join(l_sel, o_sel, "l_orderkey", "o_orderkey")

    def local_only(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["supp_nation"], t["cust_nation"]))
        name = pc.take(nvals, pc.index_in(t["cust_nation"],
                                          value_set=nkeys))
        return pa.Table.from_arrays([name, t["disc_n"]],
                                    names=["n_name", "disc_n"])

    df = fold(j.map_batches(local_only, batch_format="pyarrow"), "n_name",
              {"disc_n": ("sum", "disc_n")}).to_pandas()
    df["revenue"] = df.pop("disc_n") / 1_000_000.0
    return _round_cols(df[["n_name", "revenue"]], ["revenue"], 4)


Q_LOCAL_SUPPLIER_REVENUE_SQL = """
SELECT n_name,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
             / 1000000.0, 4) AS revenue
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON c_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA' AND s_nationkey = c_nationkey
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1998-01-01'
GROUP BY n_name ORDER BY n_name
"""


# ---------------------------------------------------------------------------
# semi-structured extraction: JSON props field → typed column, fully
# vectorized (pc.extract_regex — no per-row json.loads in the hot path)
# ---------------------------------------------------------------------------

def q_props_k_stats(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_type", "props"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.Table.from_arrays([t["event_type"], k],
                                    names=["event_type", "k"])

    df = fold(ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True), "event_type",
              {"n_events": ("count", None), "sum_k": ("sum", "k"),
               "max_k": ("max", "k")}).to_pandas()
    df["avg_k"] = df["sum_k"] / df["n_events"]
    return _round_cols(df[["event_type", "n_events", "sum_k", "max_k",
                           "avg_k"]], ["avg_k"], 6)


Q_PROPS_K_STATS_SQL = """
SELECT event_type, count(*) AS n_events,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
           AS sum_k,
       max(CAST(json_extract(props, '$.k') AS BIGINT)) AS max_k,
       round(CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
             / count(*), 6) AS avg_k
FROM events GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# grouped Pearson correlation (exact partial-aggregation sufficient stats)
# ---------------------------------------------------------------------------

def q_corr_qty_price(sf_dir: str):
    """corr(l_quantity, l_extendedprice) per return flag via
    ops.stats.grouped_corr — one ``groups.fold`` of per-row decimal
    moments gives each flag's sufficient stats on the driver (no
    exchange, O(|flags| × |blocks|) partial rows at any fact-table
    size), and the exact-integer sums make the float result
    independent of summation order (the oracle mirrors it by summing
    BIGINT into HUGEINT)."""
    from kgruntime.ops.stats import grouped_corr

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    return grouped_corr(ds, "l_returnflag", "l_quantity", "l_extendedprice",
                        x_scale=1, y_scale=100, out="corr_qty_price")


Q_CORR_QTY_PRICE_SQL = """
WITH f AS (
  SELECT l_returnflag,
         CAST(round(l_quantity) AS BIGINT) AS x,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS y
  FROM lineitem),
s AS (
  SELECT l_returnflag, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * y) AS sxy, sum(x * x) AS sxx, sum(y * y) AS syy
  FROM f GROUP BY l_returnflag)
SELECT l_returnflag,
       round(CAST(n * sxy - sx * sy AS DOUBLE) /
             (sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) *
              sqrt(CAST(n * syy - sy * sy AS DOUBLE))), 6)
         AS corr_qty_price
FROM s ORDER BY l_returnflag
"""


# ---------------------------------------------------------------------------
# pivot: per-user event-type counts as columns (indicator-sum shape)
# ---------------------------------------------------------------------------

def q_user_event_pivot(sf_dir: str):
    """Wide per-user counts, one column per event type — the pivot as
    indicator columns summed by a native hash groupby (pre-aggregated
    per block by Ray), never a per-group pandas frame.  The type domain
    comes from one tiny distinct pass."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    types = sorted(ds.unique("event_type"))

    def indicators(t: pa.Table) -> pa.Table:
        cols, names = [t["user_id"]], ["user_id"]
        for ty in types:
            cols.append(pc.cast(pc.equal(t["event_type"], ty), pa.int64()))
            names.append(f"{ty}_cnt")
        return pa.Table.from_arrays(cols, names=names)

    aggs = [Sum(f"{ty}_cnt", alias_name=f"{ty}_cnt") for ty in types]
    # native: the user key grows with the rows
    return ds.map_batches(indicators, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("user_id").aggregate(*aggs) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)


Q_USER_EVENT_PIVOT_SQL = """
SELECT user_id,
       sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT
         AS click_cnt,
       sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)::BIGINT
         AS error_cnt,
       sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)::BIGINT
         AS purchase_cnt,
       sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)::BIGINT
         AS signup_cnt,
       sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)::BIGINT
         AS view_cnt
FROM events GROUP BY user_id ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# rollup: multi-level totals from ONE base aggregation
# ---------------------------------------------------------------------------

def q_rollup_region_nation(sf_dir: str):
    """(region, nation) → (region) → () customer totals, computed as
    one fold at the finest grain plus a driver-side rollup of the tiny
    |nations|-row result — the subtotal levels are derived, not
    re-scanned (exact integer cents make the re-sums safe)."""
    import pandas as pd

    nation = pq.read_table(_path(sf_dir, "nation"))
    region = pq.read_table(_path(sf_dir, "region"))
    r_names = dict(zip(region["r_regionkey"].to_pylist(),
                       region["r_name"].to_pylist()))
    n_info = {nk: (r_names[rk], nn) for nk, rk, nn in
              zip(nation["n_nationkey"].to_pylist(),
                  nation["n_regionkey"].to_pylist(),
                  nation["n_name"].to_pylist())}

    cust = _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["c_nationkey"], _money_cents(t["c_acctbal"])],
            names=["c_nationkey", "cents"])

    base = fold(cust.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True), "c_nationkey",
                {"n_customers": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    base["r_name"] = [n_info[k][0] for k in base["c_nationkey"]]
    base["n_name"] = [n_info[k][1] for k in base["c_nationkey"]]

    fine = base[["r_name", "n_name", "n_customers", "cents"]]
    sub = fine.groupby("r_name", as_index=False)[
        ["n_customers", "cents"]].sum()
    sub["n_name"] = "ALL"
    total = pd.DataFrame({
        "r_name": ["ALL"], "n_name": ["ALL"],
        "n_customers": [fine["n_customers"].sum()],
        "cents": [fine["cents"].sum()]})
    df = pd.concat([fine, sub, total], ignore_index=True) \
        .sort_values(["r_name", "n_name"]).reset_index(drop=True)
    df["total_acctbal"] = df.pop("cents") / 100.0
    return df[["r_name", "n_name", "n_customers", "total_acctbal"]]


Q_ROLLUP_REGION_NATION_SQL = """
SELECT coalesce(r_name, 'ALL') AS r_name,
       coalesce(n_name, 'ALL') AS n_name,
       count(*) AS n_customers,
       sum(CAST(round(c_acctbal * 100) AS BIGINT)) / 100.0 AS total_acctbal
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY ROLLUP(r_name, n_name)
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# top-k per group (partial top-k before the shuffle — ops/stats.py:
# grouped_topk; the exchange carries ≤ k×blocks rows per key)
# ---------------------------------------------------------------------------

def q_top3_per_nation(sf_dir: str):
    from .ops.stats import grouped_topk

    nation = pq.read_table(_path(sf_dir, "nation"),
                           columns=["n_nationkey", "n_name"])  # small side
    names = dict(zip(nation["n_nationkey"].to_pylist(),
                     nation["n_name"].to_pylist()))

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_nationkey", "c_acctbal"])
    df = grouped_topk(cust, key="c_nationkey", val="c_acctbal", k=3,
                      tie_col="c_custkey").to_pandas()
    df["n_name"] = df["c_nationkey"].map(names)
    df = df.sort_values(["n_name", "rnk"]).reset_index(drop=True)
    return df[["n_name", "rnk", "c_custkey", "c_acctbal"]]


Q_TOP3_PER_NATION_SQL = """
WITH r AS (
  SELECT n_name, c_custkey, c_acctbal,
         row_number() OVER (PARTITION BY c_nationkey
                            ORDER BY c_acctbal DESC, c_custkey ASC) AS rnk
  FROM customer JOIN nation ON c_nationkey = n_nationkey)
SELECT n_name, rnk, c_custkey, c_acctbal
FROM r WHERE rnk <= 3 ORDER BY n_name, rnk
"""


# ---------------------------------------------------------------------------
# monthly revenue + 3-month moving average (a fold to a tiny
# month-grain result, window finished on the driver in exact cents)
# ---------------------------------------------------------------------------

def q_monthly_revenue_ma3(sf_dir: str):
    orders = _read(sf_dir, "orders",
                   columns=["o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        month = pc.cast(pc.floor_temporal(t["o_orderdate"], unit="month"),
                        pa.timestamp("us"))
        return pa.Table.from_arrays(
            [month, _money_cents(t["o_totalprice"])],
            names=["month", "cents"])

    df = fold(orders.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True), "month",
              {"n_orders": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    # window over the tiny month-grain frame, in exact Python ints
    cents = [int(c) for c in df["cents"]]
    ma3 = []
    for i in range(len(cents)):
        w = cents[max(0, i - 2):i + 1]
        ma3.append(sum(w) / (len(w) * 100.0))
    df["revenue"] = df.pop("cents") / 100.0
    df["ma3_revenue"] = ma3
    df = _round_cols(df, ["ma3_revenue"])
    return df[["month", "n_orders", "revenue", "ma3_revenue"]]


Q_MONTHLY_REVENUE_MA3_SQL = """
WITH m AS (
  SELECT date_trunc('month', o_orderdate) AS month, count(*) AS n_orders,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
  FROM orders GROUP BY month)
SELECT month, n_orders, cents / 100.0 AS revenue,
       round(sum(cents) OVER w / (count(*) OVER w * 100.0), 6)
         AS ma3_revenue
FROM m WINDOW w AS (ORDER BY month ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
ORDER BY month
"""


# ---------------------------------------------------------------------------
# global-percentile filter: docs longer than the corpus p90 (threshold
# from a value histogram — shuffle bounded by |distinct n_chars|, then a
# streamed filter; the corpus is never materialized)
# ---------------------------------------------------------------------------

def q_long_docs_p90(sf_dir: str):
    from .ops.stats import _quantile_from_hist

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    # native: the length histogram grows with the longest document
    hist = docs.groupby("n_chars").count().to_pandas() \
        .sort_values("n_chars")
    thr = _quantile_from_hist(hist["n_chars"].to_numpy("int64"),
                              hist["count()"].to_numpy("int64"), 0.9)

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["n_chars"], pa.scalar(thr)))

    return docs.map_batches(pick, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


Q_LONG_DOCS_P90_SQL = """
SELECT doc_id, n_chars FROM documents
WHERE n_chars > (SELECT quantile_cont(n_chars, 0.9) FROM documents)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# calendar extraction rollup (vectorized temporal kernels, a fold on
# the derived (isodow, hour) key)
# ---------------------------------------------------------------------------

def q_events_dow_hour(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        dow = pc.day_of_week(t["ts"], count_from_zero=False, week_start=1)
        hour = pc.hour(t["ts"])
        return pa.Table.from_arrays(
            [pc.cast(dow, pa.int64()), pc.cast(hour, pa.int64()),
             _money_cents(t["value"])],
            names=["dow", "hour", "cents"])

    df = fold(ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True), ["dow", "hour"],
              {"n_events": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    df["total_value"] = df.pop("cents") / 100.0
    return df[["dow", "hour", "n_events", "total_value"]]


Q_EVENTS_DOW_HOUR_SQL = """
SELECT isodow(ts) AS dow, CAST(hour(ts) AS BIGINT) AS hour,
       count(*) AS n_events,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value
FROM events GROUP BY dow, hour ORDER BY dow, hour
"""


# ---------------------------------------------------------------------------
# share-of-total (two-level: a per-group fold, global scalar derived
# from the tiny result on the driver — no second scan)
# ---------------------------------------------------------------------------

def q_orders_priority_share(sf_dir: str):
    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_orderpriority"], _money_cents(t["o_totalprice"])],
            names=["o_orderpriority", "cents"])

    df = fold(orders.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True), "o_orderpriority",
              {"n_orders": ("count", None), "cents": ("sum", "cents")}) \
        .to_pandas()
    total = int(df["n_orders"].sum())
    df["pct_orders"] = [n * 100.0 / total for n in df["n_orders"]]
    df["revenue"] = df.pop("cents") / 100.0
    df = _round_cols(df, ["pct_orders"])
    return df[["o_orderpriority", "n_orders", "revenue", "pct_orders"]]


Q_ORDERS_PRIORITY_SHARE_SQL = """
SELECT o_orderpriority, count(*) AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue,
       round(count(*) * 100.0 / sum(count(*)) OVER (), 6) AS pct_orders
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# forward as-of: each purchase → the NEXT click at-or-after it
# (direction="forward" through the same co-partitioned merge_asof; the
# oracle is DuckDB's ASOF JOIN with the <= inequality)
# ---------------------------------------------------------------------------

def q_asof_purchase_next_click(sf_dir: str):
    import numpy as np

    from .ops.asof import asof_join

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])

    def purch_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        return t.select(["event_id", "user_id", "ts"])

    def clicks_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "click"))
        # exact ints carried as float64 so every block's schema matches
        # under a left-join bucket with unmatched rows (same trick as
        # q_asof_click_purchase)
        eid = pc.cast(t["event_id"], pa.float64())
        return pa.Table.from_arrays(
            [t["user_id"], t["ts"], t["ts"], eid],
            names=["user_id", "ts", "click_ts", "click_eid"])

    purch = ev.map_batches(purch_prep, batch_format="pyarrow",
                           zero_copy_batch=True)
    clicks = ev.map_batches(clicks_prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    df = asof_join(purch, clicks, by="user_id", on="ts", how="inner",
                   direction="forward").to_pandas()

    ts_us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    c_us = df["click_ts"].to_numpy().astype("datetime64[us]") \
        .astype(np.int64)
    df["lead_sec"] = (c_us - ts_us) / 1e6
    df["click_eid"] = df["click_eid"].astype(np.int64)
    return df[["event_id", "user_id", "click_ts", "click_eid",
               "lead_sec"]].sort_values("event_id").reset_index(drop=True)


Q_ASOF_PURCHASE_NEXT_CLICK_SQL = """
WITH clicks AS (
  SELECT user_id, ts, ts AS click_ts, max(event_id) AS click_eid
  FROM events WHERE event_type = 'click' GROUP BY user_id, ts),
purch AS (
  SELECT event_id, user_id, ts FROM events
  WHERE event_type = 'purchase')
SELECT p.event_id, p.user_id, c.click_ts, c.click_eid,
       (epoch_us(c.click_ts) - epoch_us(p.ts)) / 1000000.0 AS lead_sec
FROM purch p ASOF JOIN clicks c
  ON p.user_id = c.user_id AND p.ts <= c.ts
ORDER BY p.event_id
"""


# ---------------------------------------------------------------------------
# Q7-style cross-nation trade volume: BOTH fact joins bucketed
# (lineitem ⋈ orders and orders ⋈ customer), supplier + nation broadcast,
# grouped by (supplier nation, customer nation, ship year)
# ---------------------------------------------------------------------------

def q_nation_trade_volume(sf_dir: str):
    from .ops.join import bucketed_hash_join

    nation = pq.read_table(_path(sf_dir, "nation"))
    nkeys = nation["n_nationkey"].combine_chunks()
    nvals = nation["n_name"].combine_chunks()
    supp = pq.read_table(_path(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey"])
    skeys = supp["s_suppkey"].combine_chunks()
    snat = supp["s_nationkey"].combine_chunks()

    lo = pa.scalar("1996-01-01").cast(pa.timestamp("us"))
    hi = pa.scalar("1998-01-01").cast(pa.timestamp("us"))

    def c_prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["c_custkey"], t["c_nationkey"]],
            names=["c_custkey", "cust_nation"])

    c_sel = _read(sf_dir, "customer",
                  columns=["c_custkey", "c_nationkey"]) \
        .map_batches(c_prep, batch_format="pyarrow", zero_copy_batch=True)

    o_dates = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    o_sel = bucketed_hash_join(o_dates, c_sel, "o_custkey", "c_custkey") \
        .select_columns(["o_orderkey", "cust_nation"])

    def l_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                             pc.less(t["l_shipdate"], hi)))
        cents = _money_cents(t["l_extendedprice"])
        bp = _to_int64(t["l_discount"], 10_000)
        disc_n = pc.multiply(cents, pc.subtract(
            pa.scalar(10_000, pa.int64()), bp))
        snation = pc.take(snat, pc.index_in(t["l_suppkey"],
                                            value_set=skeys))
        year = pc.year(t["l_shipdate"])
        return pa.Table.from_arrays(
            [t["l_orderkey"], snation, pc.cast(year, pa.int64()), disc_n],
            names=["l_orderkey", "supp_nation", "ship_year", "disc_n"])

    l_sel = _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                           "l_discount", "l_shipdate"]) \
        .map_batches(l_prep, batch_format="pyarrow", zero_copy_batch=True)

    j = bucketed_hash_join(l_sel, o_sel, "l_orderkey", "o_orderkey")

    def cross_nation(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["supp_nation"], t["cust_nation"]))
        sn = pc.take(nvals, pc.index_in(t["supp_nation"], value_set=nkeys))
        cn = pc.take(nvals, pc.index_in(t["cust_nation"], value_set=nkeys))
        return pa.Table.from_arrays(
            [sn, cn, t["ship_year"], t["disc_n"]],
            names=["supp_nation", "cust_nation", "ship_year", "disc_n"])

    df = fold(j.map_batches(cross_nation, batch_format="pyarrow"),
              ["supp_nation", "cust_nation", "ship_year"],
              {"disc_n": ("sum", "disc_n")}).to_pandas()
    df["revenue"] = df.pop("disc_n") / 1_000_000.0
    return _round_cols(df, ["revenue"], 4)


Q_NATION_TRADE_VOLUME_SQL = """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       year(l_shipdate)::BIGINT AS ship_year,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
             / 1000000.0, 4) AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ns ON s_nationkey = ns.n_nationkey
JOIN nation nc ON c_nationkey = nc.n_nationkey
WHERE s_nationkey != c_nationkey
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY supp_nation, cust_nation, ship_year
ORDER BY supp_nation, cust_nation, ship_year
"""


# ---------------------------------------------------------------------------
# Bloom-filter pushdown join: revenue by brand for large parts.
# The 100-TB pattern this demonstrates: when the dimension-side key set
# is too big to broadcast exactly, a FIXED-SIZE Bloom filter (here 64 KiB
# of bits regardless of key count) pre-filters the fact table before the
# exact join, so ~(1 - selectivity) of the fact rows never reach the
# exchange; false positives are removed by the exact lookup that follows,
# so the RESULT is identical to the plain join — which is exactly what
# the oracle checks.
# ---------------------------------------------------------------------------

_BLOOM_JOIN_M = 1 << 19          # bits (64 KiB)


def _bloom_from_keys(keys: "np.ndarray", m: int = _BLOOM_JOIN_M):
    """Two Knuth-multiplicative probes per key (vectorized)."""
    k = keys.astype(np.uint64)
    h1 = (k * np.uint64(2654435761)) % np.uint64(m)
    h2 = (k * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(32)) \
        % np.uint64(m)
    bits = np.zeros(m, bool)
    bits[h1.astype(np.int64)] = True
    bits[h2.astype(np.int64)] = True
    return bits


def _bloom_test(bits: "np.ndarray", keys: "np.ndarray"):
    m = len(bits)
    k = keys.astype(np.uint64)
    h1 = (k * np.uint64(2654435761)) % np.uint64(m)
    h2 = (k * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(32)) \
        % np.uint64(m)
    return bits[h1.astype(np.int64)] & bits[h2.astype(np.int64)]


def q_bloom_filtered_brand_revenue(sf_dir: str, min_size: int = 40,
                                   m: int = _BLOOM_JOIN_M):
    """Revenue by p_brand over lineitems of LARGE parts
    (p_size ≥ ``min_size``) — (p_brand, n_items, revenue).

    Stage 1 reads ONLY (p_partkey,) of qualifying parts
    (predicate-pushdown parquet read) and builds the Bloom; stage 2
    streams lineitem through the broadcast bits (`ray.put` once, numpy
    gather per batch — no per-batch reship), dropping non-members
    before any money math; stage 3 removes Bloom false positives with
    the exact broadcast (key → brand) lookup, and one fold sums
    (brand, cents) on the driver.
    """
    import ray

    import pyarrow.dataset as pads

    part = pq.read_table(
        _path(sf_dir, "part"), columns=["p_partkey", "p_brand"],
        filters=pads.field("p_size") >= min_size)
    keys = part["p_partkey"].combine_chunks()
    brands = part["p_brand"].combine_chunks()
    bits_ref = ray.put(_bloom_from_keys(
        keys.to_numpy(zero_copy_only=False), m))

    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount"])

    def attach(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        lk = t["l_partkey"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        hit = _bloom_test(bits, lk)
        t = t.filter(pa.array(hit))
        if t.num_rows == 0:
            return pa.table({"p_brand": pa.array([], pa.string()),
                             "rev_n": pa.array([], pa.int64())})
        # exact lookup removes Bloom false positives
        idx = pc.index_in(t["l_partkey"], value_set=keys)
        ok = pc.is_valid(idx)
        t, idx = t.filter(ok), idx.filter(ok)
        cents = _money_cents(t["l_extendedprice"])
        bp = _to_int64(t["l_discount"], 10_000)
        rev_n = pc.multiply(cents, pc.subtract(
            pa.scalar(10_000, pa.int64()), bp))
        return pa.Table.from_arrays([pc.take(brands, idx), rev_n],
                                    names=["p_brand", "rev_n"])

    df = fold(ds.map_batches(attach, batch_format="pyarrow",
                             zero_copy_batch=True), "p_brand",
              {"n_items": ("count", None), "rev_n": ("sum", "rev_n")}) \
        .to_pandas()
    df["revenue"] = df.pop("rev_n") / 1_000_000.0
    return _round_cols(df[["p_brand", "n_items", "revenue"]],
                       ["revenue"], 4)


def bloom_filtered_brand_revenue_sql(min_size: int = 40) -> str:
    return f"""
SELECT p_brand, count(*) AS n_items,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
             / 1000000.0, 4) AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_size >= {min_size}
GROUP BY p_brand ORDER BY p_brand
"""


def q_revenue_cube(sf_dir: str):
    """CUBE(o_orderpriority, o_orderstatus) revenue rollup — all four
    grouping sets ((p,s), (p), (s), ()) from ONE corpus pass: the
    finest-grain fold is |priorities|×|statuses| rows (bounded,
    corpus-size-independent) and the three coarser sets are pure-Python
    re-aggregations of those partials on the driver — the
    pre-aggregate-reuse shape, vs. a naive CUBE that scans the fact
    table four times.  Subtotal slots carry the 'ALL' sentinel so the
    value-hash oracle needs no NULL-ordering convention.
    """
    from collections import defaultdict

    ds = _read(sf_dir, "orders",
               columns=["o_orderpriority", "o_orderstatus",
                        "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_orderpriority"], t["o_orderstatus"],
             _money_cents(t["o_totalprice"])],
            names=["prio", "status", "cents"])

    fine = fold(ds.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True), ["prio", "status"],
                {"n_orders": ("count", None), "cents": ("sum", "cents")}) \
        .to_pylist()                    # bounded: |prio| × |status|

    sets = defaultdict(lambda: [0, 0])
    for r in fine:
        p, s = r["prio"], r["status"]
        for key in [(p, s), (p, "ALL"), ("ALL", s), ("ALL", "ALL")]:
            acc = sets[key]
            acc[0] += int(r["n_orders"])
            acc[1] += int(r["cents"])
    rows = sorted((p, s, n, c) for (p, s), (n, c) in sets.items())
    return pa.table({
        "o_orderpriority": pa.array([r[0] for r in rows], pa.string()),
        "o_orderstatus": pa.array([r[1] for r in rows], pa.string()),
        "n_orders": pa.array([r[2] for r in rows], pa.int64()),
        "revenue_cents": pa.array([r[3] for r in rows], pa.int64()),
    })


Q_REVENUE_CUBE_SQL = """
SELECT coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       coalesce(o_orderstatus, 'ALL') AS o_orderstatus,
       count(*)::BIGINT AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT
         AS revenue_cents
FROM orders
GROUP BY CUBE (o_orderpriority, o_orderstatus)
ORDER BY o_orderpriority, o_orderstatus
"""


def q_basket_affinity(sf_dir: str):
    """Market-basket affinity between part types — for every pair of
    part types bought by the same customer: ``(type_a, type_b, n_ab,
    lift_ppm)`` with lift = P(a,b) / (P(a)·P(b)) in exact integer ppm.
    The co-purchase signal product-recommendation pipelines start from.

    Scale shape: two bucketed hash joins (lineitem→orders on orderkey,
    then →part on partkey — both int-keyed, no driver-side maps), a
    per-batch polars distinct combiner before the (customer, type)
    groupby, pair explosion as a bucketed self-join on the customer,
    and a |types|²-bounded pair count.  The pair count and the type
    marginals are folds; the driver only ever holds type-vocabulary-
    sized tables.
    """
    from .ops.join import bucketed_hash_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"])

    ct = bucketed_hash_join(li, orders, "l_orderkey", "o_orderkey")
    ctt = bucketed_hash_join(ct.select_columns(["l_partkey",
                                                "o_custkey"]),
                             part, "l_partkey", "p_partkey")

    def dedup_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        return pl.from_arrow(t.select(["o_custkey", "p_type"])) \
            .unique().to_arrow()

    # distinct (customer, type): bounded by |custs| × |types| — far
    # below the fact table; materialized because pairs AND marginals
    # consume it (the double-lazy-plan lesson)
    dist = ctt.map_batches(dedup_partial, batch_format="pyarrow",
                           zero_copy_batch=True) \
        .groupby(["o_custkey", "p_type"]).count() \
        .select_columns(["o_custkey", "p_type"]).materialize()

    # pair explosion as a bucketed SELF-join on the customer key, not
    # per-customer map_groups: thousands of tiny groups pay Python
    # per-group overhead, the join stays vectorized end-to-end
    def rename_b(t: pa.Table) -> pa.Table:
        return t.rename_columns(["cust_b", "type_b"])

    right = dist.map_batches(rename_b, batch_format="pyarrow",
                             zero_copy_batch=True)
    joined = bucketed_hash_join(dist, right, "o_custkey", "cust_b")

    def keep_ordered(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        m = _pc.less(t["p_type"], t["type_b"])
        f = t.filter(m)
        return pa.table({"type_a": f["p_type"], "type_b": f["type_b"]})

    pairs = fold(joined.map_batches(keep_ordered, batch_format="pyarrow",
                                    zero_copy_batch=True),
                 ["type_a", "type_b"], {"n_ab": ("count", None)})
    types = fold(dist, "p_type", {"n": ("count", None)})
    marg = dict(zip(types["p_type"].to_pylist(), types["n"].to_pylist()))
    # native: the customer key grows with the rows
    n_cust = dist.groupby("o_custkey").count().count()

    return pairs.append_column("lift_ppm", pa.array(
        [(1_000_000 * n * n_cust) // (marg[a] * marg[b])
         for a, b, n in zip(*(pairs[c].to_pylist() for c in
                               ("type_a", "type_b", "n_ab")))],
        pa.int64()))


Q_BASKET_AFFINITY_SQL = """
WITH ba_ct AS (
  SELECT DISTINCT o_custkey AS cust, p_type AS typ
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                JOIN part ON l_partkey = p_partkey),
ba_n AS (SELECT count(DISTINCT cust)::BIGINT AS n FROM ba_ct),
ba_m AS (SELECT typ, count(*)::BIGINT AS c FROM ba_ct GROUP BY typ),
ba_p AS (
  SELECT a.typ AS type_a, b.typ AS type_b, count(*)::BIGINT AS n_ab
  FROM ba_ct a JOIN ba_ct b ON a.cust = b.cust AND a.typ < b.typ
  GROUP BY 1, 2)
SELECT type_a, type_b, n_ab,
       ((1000000::HUGEINT * n_ab * (SELECT n FROM ba_n))
        // (ma.c * mb.c))::BIGINT AS lift_ppm
FROM ba_p
JOIN ba_m ma ON ma.typ = type_a
JOIN ba_m mb ON mb.typ = type_b
ORDER BY type_a, type_b
"""


def q_rec_negative_samples(sf_dir: str, n_users: int = 20, k: int = 5):
    """Deterministic negative sampling for recommender training: for
    each of the ``n_users`` smallest custkeys that have orders, the
    ``k`` parts they NEVER purchased with the smallest
    ``md5-60(cust || '|' || part)`` — a uniform random-looking but
    retry/resume-stable draw from the anti-join space (the classic
    implicit-feedback negatives step).  Output: (custkey, partkey,
    neg_rank).

    Scale shape: the user panel is bounded (``n_users``), so its
    positive part-sets broadcast as plain sets (each bounded by a
    customer's purchase history); the PART CATALOG is the big side and
    is never collected — each batch of parts scores n_users × batch
    hashes and keeps its first k per user by (h, partkey)
    (``groups.take_first_k``), so ``groups.collect`` brings ≤ n_users ·
    k · n_blocks rows to the driver, where the same prune ranks them.
    """
    from .ops.dedup import _md5_60
    from .ops.groups import collect, take_first_k

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    users = sorted(orders.select_columns(["o_custkey"])
                   .unique("o_custkey"))[:n_users]

    okeys = [(r["o_orderkey"], r["o_custkey"]) for r in
             orders.map_batches(
                 lambda t: t.filter(pc.is_in(
                     t["o_custkey"], value_set=pa.array(users))),
                 batch_format="pyarrow", zero_copy_batch=True)
             .take_all()]
    o2c = {ok: c for ok, c in okeys}
    okey_arr = pa.array(list(o2c), pa.int64())

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    pos_rows = li.map_batches(
        lambda t: t.filter(pc.is_in(t["l_orderkey"],
                                    value_set=okey_arr)),
        batch_format="pyarrow", zero_copy_batch=True).take_all()
    pos: dict[int, set[int]] = {c: set() for c in users}
    for r in pos_rows:
        pos[o2c[r["l_orderkey"]]].add(r["l_partkey"])

    def first(t: pa.Table, rank: str | None = None) -> pa.Table:
        return take_first_k(t, ["custkey"], "h", "partkey", k,
                            ascending=True, rank_col=rank)

    def cand(t: pa.Table) -> pa.Table:
        parts = t["p_partkey"].to_pylist()
        out_c, out_p, out_h = [], [], []
        for c in users:
            banned = pos[c]
            for p in parts:
                if p not in banned:
                    out_c.append(c)
                    out_p.append(p)
                    out_h.append(_md5_60(f"{c}|{p}".encode()))
        return first(pa.table({"custkey": pa.array(out_c, pa.int64()),
                               "partkey": pa.array(out_p, pa.int64()),
                               "h": pa.array(out_h, pa.int64())}))

    rows = collect(_read(sf_dir, "part", columns=["p_partkey"])
                   .map_batches(cand, batch_format="pyarrow",
                                zero_copy_batch=True))
    if rows is None:
        rows = cand(pa.table({"p_partkey": pa.array([], pa.int64())}))
    return first(rows, "neg_rank").select(["custkey", "partkey",
                                           "neg_rank"])


Q_REC_NEGATIVE_SAMPLES_SQL = """
WITH rns_u AS (
  SELECT DISTINCT o_custkey AS c FROM orders ORDER BY c LIMIT 20),
rns_pos AS (
  SELECT DISTINCT o.o_custkey AS c, l.l_partkey AS p
  FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  WHERE o.o_custkey IN (SELECT c FROM rns_u)),
rns_cand AS (
  SELECT u.c, p.p_partkey AS p,
         ('0x' || substr(md5(u.c || '|' || p.p_partkey), 1, 15))::BIGINT
           AS h
  FROM rns_u u CROSS JOIN part p
  WHERE NOT EXISTS (SELECT 1 FROM rns_pos q
                    WHERE q.c = u.c AND q.p = p.p_partkey)),
rns_r AS (
  SELECT c, p, row_number() OVER (PARTITION BY c ORDER BY h, p) AS rn
  FROM rns_cand)
SELECT c AS custkey, p AS partkey, rn AS neg_rank
FROM rns_r WHERE rn <= 5 ORDER BY custkey, neg_rank
"""


_SCD2_D0 = 9131            # epoch day of 1995-01-01
_SCD2_INF = 1 << 40


def q_scd2_segment_revenue(sf_dir: str):
    """SCD2 (slowly-changing-dimension) as-of join: each customer has
    THREE deterministic dimension versions with md5-derived validity
    windows and a version-specific segment attribute; every order joins
    the version valid AT ITS ORDER DATE (not today's — the
    point-in-time-correctness warehouse/feature-store rule), and
    revenue rolls up by the historical segment.  Output:
    (segment, n_orders, revenue_cents).

    Scale shape: the versioned dim is 3 rows per customer built in one
    streamed pass; ONE bucketed hash join on custkey (int-keyed, the
    basket_affinity join path) carries (day, cents) fact rows against
    ≤3 dim rows per key; the validity filter is a vectorized
    post-filter and the segment-bounded rollup is one ``groups.fold``
    on the driver.
    """
    import pyarrow.compute as pc

    from .ops.dedup import _md5_60
    from .ops.groups import fold
    from .ops.join import bucketed_hash_join

    def dim_rows(t: pa.Table) -> pa.Table:
        cks = t["c_custkey"].to_pylist()
        out_ck, out_s, out_e, out_seg = [], [], [], []
        for ck in cks:
            off1 = _md5_60(f"v1|{ck}".encode()) % 2400
            off2 = _md5_60(f"v2|{ck}".encode()) % 600
            cut1 = _SCD2_D0 + off1
            cut2 = cut1 + 1 + off2
            for v, (s, e) in enumerate([(-_SCD2_INF, cut1),
                                        (cut1, cut2),
                                        (cut2, _SCD2_INF)]):
                out_ck.append(ck)
                out_s.append(s)
                out_e.append(e)
                out_seg.append(
                    "seg%d" % (_md5_60(f"s{v}|{ck}".encode()) % 5))
        return pa.table({"ck": pa.array(out_ck, pa.int64()),
                         "vs": pa.array(out_s, pa.int64()),
                         "ve": pa.array(out_e, pa.int64()),
                         "segment": pa.array(out_seg, pa.string())})

    dim = _read(sf_dir, "customer", columns=["c_custkey"]) \
        .map_batches(dim_rows, batch_format="pyarrow",
                     zero_copy_batch=True)

    def fact_rows(t: pa.Table) -> pa.Table:
        day = pc.divide(
            pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")),
                    pa.int64()),
            pa.scalar(86_400_000_000, pa.int64()))
        v = pc.multiply(t["o_totalprice"], 100.0)
        cents = pc.cast(pc.round(v, round_mode="half_towards_infinity"),
                        pa.int64())
        return pa.table({"ock": t["o_custkey"], "day": day,
                         "cents": cents})

    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderdate",
                            "o_totalprice"]) \
        .map_batches(fact_rows, batch_format="pyarrow",
                     zero_copy_batch=True)

    joined = bucketed_hash_join(orders, dim, "ock", "ck")

    def pick(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["day"], t["vs"]),
                       pc.less(t["day"], t["ve"]))
        return t.select(["segment", "cents"]).filter(keep)

    rows = fold(joined.map_batches(pick, batch_format="pyarrow",
                                   zero_copy_batch=True),
                "segment", {"n_orders": ("count", None),
                            "revenue_cents": ("sum", "cents")})
    return rows.cast(pa.schema([("segment", pa.string()),
                                ("n_orders", pa.int64()),
                                ("revenue_cents", pa.int64())]))


Q_SCD2_SEGMENT_REVENUE_SQL = f"""
WITH scd_h AS (
  SELECT c_custkey AS ck,
         ('0x' || substr(md5('v1|' || c_custkey), 1, 15))::BIGINT
           % 2400 AS off1,
         ('0x' || substr(md5('v2|' || c_custkey), 1, 15))::BIGINT
           % 600 AS off2
  FROM customer),
scd_d AS (
  SELECT ck, 0 AS v, -{_SCD2_INF} AS vs, {_SCD2_D0} + off1 AS ve
  FROM scd_h
  UNION ALL
  SELECT ck, 1, {_SCD2_D0} + off1, {_SCD2_D0} + off1 + 1 + off2
  FROM scd_h
  UNION ALL
  SELECT ck, 2, {_SCD2_D0} + off1 + 1 + off2, {_SCD2_INF} FROM scd_h),
scd_g AS (
  SELECT ck, vs, ve,
         'seg' || (('0x' || substr(md5('s' || v || '|' || ck), 1, 15))
                   ::BIGINT % 5) AS segment
  FROM scd_d),
scd_o AS (
  SELECT o_custkey AS ck,
         epoch_us(o_orderdate) // 86400000000 AS day,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders)
SELECT g.segment, count(*) AS n_orders,
       sum(o.cents)::BIGINT AS revenue_cents
FROM scd_o o JOIN scd_g g
  ON g.ck = o.ck AND o.day >= g.vs AND o.day < g.ve
GROUP BY g.segment ORDER BY g.segment
"""


def q_pareto_front_parts(sf_dir: str):
    """Skyline (Pareto front) of the part catalog: parts where no other
    part is both cheaper-or-equal AND larger-or-equal (with at least
    one strict) — the classic multi-criteria shortlist query
    (minimize ``p_retailprice``, maximize ``p_size``).  Output:
    (p_partkey, price_cents, p_size).

    Scale shape: the skyline-of-skylines identity — every global
    skyline point survives its own batch's LOCAL skyline, so each batch
    emits only its local front (skyline-sized, not batch-sized) and the
    driver merges the union with one more dominance pass.  Ties: two
    identical (price, size) points dominate each other under the
    at-least-one-strict rule, so BOTH survive (mirrored in the twin).
    """
    import pyarrow.compute as pc

    def local_front(t: pa.Table) -> pa.Table:
        v = pc.multiply(t["p_retailprice"], 100.0)
        price = pc.cast(pc.round(v, round_mode="half_towards_infinity"),
                        pa.int64()).to_numpy(zero_copy_only=False)
        size = t["p_size"].to_numpy(zero_copy_only=False)
        keys = t["p_partkey"].to_numpy(zero_copy_only=False)
        keep = _skyline_mask(price, size)
        return pa.table({"p_partkey": pa.array(keys[keep], pa.int64()),
                         "price_cents": pa.array(price[keep],
                                                 pa.int64()),
                         "p_size": pa.array(size[keep], pa.int64())})

    rows = _read(sf_dir, "part",
                 columns=["p_partkey", "p_retailprice", "p_size"]) \
        .map_batches(local_front, batch_format="pyarrow",
                     zero_copy_batch=True).take_all()
    price = np.array([r["price_cents"] for r in rows], np.int64)
    size = np.array([r["p_size"] for r in rows], np.int64)
    keys = np.array([r["p_partkey"] for r in rows], np.int64)
    keep = _skyline_mask(price, size)
    order = np.argsort(keys[keep])
    return pa.table({
        "p_partkey": pa.array(keys[keep][order], pa.int64()),
        "price_cents": pa.array(price[keep][order], pa.int64()),
        "p_size": pa.array(size[keep][order], pa.int64()),
    })


def _skyline_mask(price: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Vectorized 2-D dominance test, O(n log n): sort by (price asc,
    size desc) and sweep.  A point is dominated iff a strictly cheaper
    point has size ≥ its size, OR an equal-price point has strictly
    larger size.  Exact duplicates both survive (no strict
    inequality), matching the twin's at-least-one-strict rule."""
    n = len(price)
    if n == 0:
        return np.zeros(0, bool)
    order = np.lexsort((-size, price))
    p, s = price[order], size[order]
    keep = np.ones(n, bool)
    best_strict = np.iinfo(np.int64).min  # max size at strictly lower p
    i = 0
    while i < n:
        j = i
        while j < n and p[j] == p[i]:
            j += 1
        smax = int(s[i:j].max())
        grp = s[i:j]
        keep[i:j] = (grp >= smax) & (grp > best_strict)
        best_strict = max(best_strict, smax)
        i = j
    out = np.zeros(n, bool)
    out[order] = keep
    return out


Q_PARETO_FRONT_PARTS_SQL = """
WITH pf AS (
  SELECT p_partkey,
         CAST(round(p_retailprice * 100) AS BIGINT) AS price_cents,
         p_size::BIGINT AS p_size
  FROM part)
SELECT a.p_partkey, a.price_cents, a.p_size
FROM pf a
WHERE NOT EXISTS (
  SELECT 1 FROM pf b
  WHERE b.price_cents <= a.price_cents AND b.p_size >= a.p_size
    AND (b.price_cents < a.price_cents OR b.p_size > a.p_size))
ORDER BY a.p_partkey
"""


def q_join_strategy_advisor(sf_dir: str, broadcast_limit: int = 50_000,
                            skew_factor: int = 20):
    """Join-strategy advisor for the orders⋈customer join — the
    optimizer decision this engine otherwise hard-codes, made
    data-driven: measure both sides and the fact-side key skew, then
    pick ``broadcast`` (dim side under the broadcast limit),
    ``salted_bucketed`` (one key holds more than 1/skew_factor of the
    fact side), or ``bucketed``.  Output (one row): (left_rows,
    right_rows, max_key_cnt, strategy).

    Scale shape: two metadata-cheap counts plus one native
    ``groupby(key).count()`` with a streamed max — no joins executed,
    which is the point of advising first.
    """
    from ray.data.aggregate import Max

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    left_rows = orders.count()
    right_rows = _read(sf_dir, "customer",
                       columns=["c_custkey"]).count()
    # native: the customer key grows with the rows
    mx = orders.groupby("o_custkey").count() \
        .aggregate(Max("count()"))["max(count())"]
    max_cnt = int(mx) if mx is not None else 0
    if right_rows <= broadcast_limit:
        strategy = "broadcast"
    elif max_cnt * skew_factor > left_rows:
        strategy = "salted_bucketed"
    else:
        strategy = "bucketed"
    return pa.table({
        "left_rows": pa.array([left_rows], pa.int64()),
        "right_rows": pa.array([right_rows], pa.int64()),
        "max_key_cnt": pa.array([max_cnt], pa.int64()),
        "strategy": pa.array([strategy], pa.string()),
    })


Q_JOIN_STRATEGY_ADVISOR_SQL = """
WITH jsa_l AS (SELECT count(*) AS left_rows FROM orders),
jsa_r AS (SELECT count(*) AS right_rows FROM customer),
jsa_k AS (
  SELECT max(c) AS max_key_cnt FROM (
    SELECT count(*) AS c FROM orders GROUP BY o_custkey))
SELECT l.left_rows::BIGINT AS left_rows,
       r.right_rows::BIGINT AS right_rows,
       coalesce(k.max_key_cnt, 0)::BIGINT AS max_key_cnt,
       CASE WHEN r.right_rows <= 50000 THEN 'broadcast'
            WHEN k.max_key_cnt * 20 > l.left_rows
              THEN 'salted_bucketed'
            ELSE 'bucketed' END AS strategy
FROM jsa_l l CROSS JOIN jsa_r r CROSS JOIN jsa_k k
"""


def q_supplier_performance(sf_dir: str, late_days: int = 90):
    """Supplier-side performance rollup (the one dimension the suite
    barely exercised): per supplier NATION — active suppliers, items
    shipped, exact revenue cents, and the share of line items shipped
    more than ``late_days`` after their order date, in ppm.

    Scale shape: lineitem→orders bucketed join on orderkey (for the
    order date), then a supplier-keyed rollup pre-aggregated per batch;
    the supplier→nation decoration happens on the |suppliers|-bounded
    aggregate via a broadcast dict (dimension tables are
    catalog-small), never on the fact stream.
    """
    import pyarrow.compute as pc

    from .ops.join import bucketed_hash_join

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount", "l_shipdate"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate"])
    joined = bucketed_hash_join(li, orders, "l_orderkey", "o_orderkey")

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        v = price * (1.0 - disc) * 100.0
        cents = np.copysign(np.floor(np.abs(v) + 0.5), v) \
            .astype(np.int64)
        ship = pc.cast(pc.cast(t["l_shipdate"], pa.timestamp("us")),
                       pa.int64()).to_numpy(zero_copy_only=False)
        odate = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")),
                        pa.int64()).to_numpy(zero_copy_only=False)
        late = (ship > odate + late_days * 86_400_000_000) \
            .astype(np.int64)
        g = pd.DataFrame({
            "sk": t["l_suppkey"].to_numpy(zero_copy_only=False),
            "cents": cents, "late": late}) \
            .groupby("sk").agg(n=("cents", "size"),
                               cents=("cents", "sum"),
                               late=("late", "sum")).reset_index()
        return pa.table({
            "sk": pa.array(g["sk"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "cents": pa.array(g["cents"].to_numpy(np.int64)),
            "late": pa.array(g["late"].to_numpy(np.int64))})

    from ray.data.aggregate import Sum

    # native: the supplier key grows with the rows
    per_supp = joined.map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True) \
        .groupby("sk").aggregate(Sum("n", alias_name="n"),
                                 Sum("cents", alias_name="cents"),
                                 Sum("late", alias_name="late")) \
        .take_all()

    supp = {r["s_suppkey"]: r["s_nationkey"] for r in
            _read(sf_dir, "supplier",
                  columns=["s_suppkey", "s_nationkey"]).take_all()}
    nation = {r["n_nationkey"]: r["n_name"] for r in
              _read(sf_dir, "nation",
                    columns=["n_nationkey", "n_name"]).take_all()}
    agg: dict[str, list[int]] = {}
    for r in per_supp:
        nm = nation[supp[int(r["sk"])]]
        d = agg.setdefault(nm, [0, 0, 0, 0])
        d[0] += 1
        d[1] += int(r["n"])
        d[2] += int(r["cents"])
        d[3] += int(r["late"])
    names = sorted(agg)
    return pa.table({
        "n_name": pa.array(names, pa.string()),
        "n_suppliers": pa.array([agg[n][0] for n in names], pa.int64()),
        "n_items": pa.array([agg[n][1] for n in names], pa.int64()),
        "revenue_cents": pa.array([agg[n][2] for n in names],
                                  pa.int64()),
        "late_ppm": pa.array(
            [(1_000_000 * agg[n][3]) // agg[n][1] for n in names],
            pa.int64()),
    })


def _supplier_performance_sql(late_days: int = 90) -> str:
    return f"""
WITH sp_l AS (
  SELECT l.l_suppkey AS sk,
         CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
              AS BIGINT) AS cents,
         (l.l_shipdate > o.o_orderdate
          + INTERVAL {late_days} DAY)::BIGINT AS late
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey),
sp_s AS (
  SELECT sk, count(*) AS n, sum(cents) AS cents, sum(late) AS late
  FROM sp_l GROUP BY sk)
SELECT n.n_name, count(*) AS n_suppliers,
       sum(ss.n)::BIGINT AS n_items,
       sum(ss.cents)::BIGINT AS revenue_cents,
       ((1000000 * sum(ss.late)) // sum(ss.n))::BIGINT AS late_ppm
FROM sp_s ss
JOIN supplier s ON s.s_suppkey = ss.sk
JOIN nation n ON n.n_nationkey = s.s_nationkey
GROUP BY n.n_name ORDER BY n.n_name
"""


Q_SUPPLIER_PERFORMANCE_SQL = _supplier_performance_sql()


def q_trending_part_types(sf_dir: str, k: int = 3):
    """Rank dynamics: per order month, the top-``k`` part types by
    exact revenue cents, each with its previous-month rank and the
    rank delta (0 when the type was unranked last month) — the
    "what's trending" movement table.  Output: (mon, p_type, rnk,
    prev_rnk, delta).

    Scale shape: lineitem→orders and →part bucketed joins (the
    basket_affinity paths), then one ``groups.fold`` of the (mon,
    type) cents — month × type bounded — onto the driver, where the
    ranking window runs.
    """
    import pyarrow.compute as pc

    from .ops.groups import fold, run_starts, segment_ids
    from .ops.join import bucketed_hash_join

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_partkey", "l_extendedprice",
                        "l_discount"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate"])
    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"])
    j1 = bucketed_hash_join(li, orders, "l_orderkey", "o_orderkey")
    j2 = bucketed_hash_join(
        j1.select_columns(["l_partkey", "l_extendedprice",
                           "l_discount", "o_orderdate"]),
        part, "l_partkey", "p_partkey")

    def month_type_cents(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        mon = pc.add(pc.multiply(pc.cast(pc.year(ts), pa.int64()),
                                 pa.scalar(12, pa.int64())),
                     pc.cast(pc.subtract(pc.month(ts), 1), pa.int64()))
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        v = price * (1.0 - disc) * 100.0
        cents = np.copysign(np.floor(np.abs(v) + 0.5), v) \
            .astype(np.int64)
        return pa.table({"mon": mon, "p_type": t["p_type"],
                         "cents": cents})

    r = fold(j2.map_batches(month_type_cents, batch_format="pyarrow",
                            zero_copy_batch=True),
             ["mon", "p_type"], {"cents": ("sum", "cents")}) \
        .sort_by([("mon", "ascending"), ("cents", "descending"),
                  ("p_type", "ascending")])
    mon = r["mon"].to_numpy()
    types = r["p_type"].to_pylist()
    first = np.flatnonzero(run_starts(mon))
    rnk = np.arange(len(mon)) + 1 - first[segment_ids(first, len(mon))]
    rank = dict(zip(zip(mon.tolist(), types), rnk.tolist()))
    top = np.flatnonzero(rnk <= k)
    prev = np.array([rank.get((mon[i] - 1, types[i]), 0) for i in top],
                    np.int64)
    return pa.table({
        "mon": pa.array(mon[top], pa.int64()),
        "p_type": pa.array([types[i] for i in top], pa.string()),
        "rnk": pa.array(rnk[top], pa.int64()),
        "prev_rnk": prev,
        "delta": np.where(prev > 0, prev - rnk[top], 0)})


def _trending_part_types_sql(k: int = 3) -> str:
    return f"""
WITH tp_r AS (
  SELECT year(o.o_orderdate) * 12 + month(o.o_orderdate) - 1 AS mon,
         p.p_type,
         sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                  AS BIGINT)) AS cents
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY mon, p.p_type),
tp_k AS (
  SELECT mon, p_type,
         row_number() OVER (PARTITION BY mon
                            ORDER BY cents DESC, p_type) AS rnk
  FROM tp_r)
SELECT a.mon, a.p_type, a.rnk,
       coalesce(b.rnk, 0)::BIGINT AS prev_rnk,
       (CASE WHEN b.rnk IS NULL THEN 0 ELSE b.rnk - a.rnk END)::BIGINT
         AS delta
FROM tp_k a
LEFT JOIN tp_k b ON b.mon = a.mon - 1 AND b.p_type = a.p_type
WHERE a.rnk <= {k}
ORDER BY a.mon, a.rnk
"""


Q_TRENDING_PART_TYPES_SQL = _trending_part_types_sql()
