"""Sessionization / windowed aggregates over the events log
(ray_guide "Streaming-shaped workloads" pattern).

Ray Data has no event-time windows.  Every per-user operator here
exchanges events by ``user_id`` on the coarse segment primitive
(``groups.segment_map``) and runs ONE vectorized kernel per coarse
block — no Python call per user.  The kernels share the per-user
decisions, each written once below: the time order (``_timeline``:
user, ts, event_id), the 30-minute session rule (``_new_sessions``),
the half-away cents (``_cents``), consecutive event types
(``_ngrams``) and, for as-of and window probes,
``groups.segment_searchsorted``, which never crosses a user.  The
ordering assumption (all events of one user arrive in one block) holds
because the exchange is keyed by user.

Every operator carries an exact DuckDB twin (window functions), so it
runs under the driver's value-hash gate.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .groups import (collect, fold, prefix_scan, run_starts, segment_ids,
                     segment_map, segment_pairs, segment_searchsorted)

logger = logging.getLogger(__name__)

SESSION_GAP_MIN = 30
_US_PER_MIN = 60_000_000
_US_PER_HOUR = 3_600_000_000
_US_PER_DAY = 86_400_000_000


def _cents(value) -> pa.ChunkedArray:
    """Exact int64 cents, rounded half away from zero like DuckDB
    ``round()``."""
    return pc.cast(pc.round(pc.multiply(value, 100.0),
                            round_mode="half_towards_infinity"), pa.int64())


def _timeline(t: pa.Table, starts: np.ndarray, keys=("user_id",)):
    """A segment block in time order: sorted by ``keys``, ts and, when
    the block has one, event_id (the twins' ``ORDER BY ts, event_id``).
    The key segments keep their offsets, so ``starts`` stays valid.
    Returns the block, its ts as int64 µs and each row's segment."""
    cols = [*keys, "ts"] + ["event_id"] * ("event_id" in t.column_names)
    t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending")
                                              for c in cols]))
    us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
    return t, us.to_numpy(), segment_ids(starts, t.num_rows)


def _new_sessions(us: np.ndarray, starts: np.ndarray,
                  gap_us: int = SESSION_GAP_MIN * _US_PER_MIN):
    """Mask of the rows of a time-ordered block that open a session: a
    user's first event, or an event more than ``gap_us`` after the one
    before (a gap of exactly the limit does not split)."""
    new = np.zeros(len(us), bool)
    new[starts] = True
    new[1:] |= us[1:] - us[:-1] > gap_us
    return new


def _gaps(us: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each event's µs gap to the user's previous one (0 at a user's
    first event)."""
    g = np.diff(us, prepend=us[:1])
    g[starts] = 0
    return g


def _ngrams(t: pa.Table, seg: np.ndarray, n: int):
    """The event_type columns of every ``n`` consecutive events of one
    user in a time-ordered block, and the offset of each n-gram's
    first event."""
    m = max(len(seg) - n + 1, 0)
    i = np.flatnonzero(seg[:m] == seg[n - 1:n - 1 + m])
    return [t["event_type"].take(i + k) for k in range(n)], i


def _counts(cols: dict, name: str) -> pa.Table:
    """The distinct rows of ``cols`` with their multiplicity ``name``
    (a block's pre-combined partial for a rollup)."""
    return pa.table(cols).group_by(list(cols), use_threads=False) \
        .aggregate([([], "count_all")]).rename_columns([*cols, name])


def _is(t: pa.Table, event_type: str) -> np.ndarray:
    return pc.equal(t["event_type"], event_type) \
        .to_numpy(zero_copy_only=False)


def _sessionize_block(t: pa.Table, starts: np.ndarray) -> pa.Table:
    t, us, _ = _timeline(t, starts)
    s = np.flatnonzero(_new_sessions(us, starts))
    # sum exact integer cents, not floats: float sums are summation-
    # order-dependent in the last ulp, which breaks the value-hash gate
    # (the oracle SQL mirrors the cents formula)
    total = np.add.reduceat(_cents(t["value"]).to_numpy(), s)
    return pa.table({
        "user_id": t["user_id"].take(s),
        "session_start": pa.array(us[s], pa.timestamp("us"))
        .cast(t.schema.field("ts").type),
        "n_events": np.diff(np.append(s, len(us))),
        "total_value": total / 100.0})


def sessionize(events_ds):
    """events → one row per (user, session): 30-minute-gap sessions
    (a gap of exactly 30 minutes does not split).

    Output: (user_id, session_start, n_events, total_value).
    """
    return segment_map(
        events_ds.select_columns(["user_id", "ts", "event_id", "value"]),
        "user_id", _sessionize_block)


SESSIONIZE_SQL = f"""
WITH marked AS (
  SELECT user_id, ts, event_id, value,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
              OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sessions AS (
  SELECT *, sum(new_s) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS session_id
  FROM marked
)
SELECT user_id, min(ts) AS session_start, count(*) AS n_events,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value
FROM sessions GROUP BY user_id, session_id
ORDER BY user_id, session_start
"""


def tumbling_hourly(events_ds):
    """Tumbling 1-hour windows per event_type:
    (event_type, window_start, n_events, total_value).

    A plain (type, hour) rollup — native hash ``groupby().aggregate``
    (pre-aggregated per block by Ray), NOT ``map_groups``: with ~5 event
    types a per-type pandas group would hold 1/5 of the whole corpus in
    one worker's heap.
    """
    from ray.data.aggregate import Count, Sum

    def add_window(t: pa.Table) -> pa.Table:
        w = pc.cast(pc.floor_temporal(t["ts"], unit="hour"),
                    pa.timestamp("us"))
        # exact integer cents: distributed float sums are summation-
        # order-dependent in the last ulp (oracle mirrors the formula)
        return pa.Table.from_arrays(
            [t["event_type"], w, _cents(t["value"])],
            names=["event_type", "window_start", "cents"])

    def finish(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("cents")
        total = pc.divide(pc.cast(t["cents"], pa.float64()), 100.0)
        return t.set_column(i, "total_value", total)

    return events_ds.map_batches(add_window, batch_format="pyarrow",
                                 zero_copy_batch=True) \
        .groupby(["event_type", "window_start"]) \
        .aggregate(Count(alias_name="n_events"),
                   Sum("cents", alias_name="cents")) \
        .map_batches(finish, batch_format="pyarrow")


TUMBLING_HOURLY_SQL = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(*) AS n_events,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value
FROM events GROUP BY event_type, window_start
ORDER BY event_type, window_start
"""


def hopping_windows(events_ds, size_hours: int = 2, hop_hours: int = 1):
    """Hopping (sliding) windows per event_type: each event lands in
    ``size/hop`` overlapping windows.  Output (event_type, window_start,
    n_events, total_value).

    Scale shape: the explode is per-batch (each batch emits size/hop
    copies with shifted window starts — vectorized concat, no Python
    rows), then ONE native hash groupby; the shuffle carries the
    aggregated (type, window) rows, pre-combined per block by Ray.
    """
    from ray.data.aggregate import Count, Sum

    if size_hours % hop_hours:
        raise ValueError("size_hours must be a multiple of hop_hours")
    n_copies = size_hours // hop_hours

    def explode(t: pa.Table) -> pa.Table:
        base = pc.cast(pc.floor_temporal(t["ts"], unit="hour"),
                       pa.timestamp("us"))
        cents = _cents(t["value"])
        parts = []
        for i in range(n_copies):
            w = pc.subtract(base, pa.scalar(i * hop_hours * 3_600_000_000,
                                            pa.duration("us")))
            parts.append(pa.Table.from_arrays(
                [t["event_type"], pc.cast(w, pa.timestamp("us")), cents],
                names=["event_type", "window_start", "cents"]))
        return pa.concat_tables(parts)

    def finish(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("cents")
        return t.set_column(
            i, "total_value",
            pc.divide(pc.cast(t["cents"], pa.float64()), 100.0))

    return events_ds.map_batches(explode, batch_format="pyarrow",
                                 zero_copy_batch=True) \
        .groupby(["event_type", "window_start"]) \
        .aggregate(Count(alias_name="n_events"),
                   Sum("cents", alias_name="cents")) \
        .map_batches(finish, batch_format="pyarrow")


HOPPING_2H_1H_SQL = """
SELECT event_type,
       date_trunc('hour', ts) - i * INTERVAL 1 HOUR AS window_start,
       count(*) AS n_events,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value
FROM events CROSS JOIN range(0, 2) AS t(i)
GROUP BY event_type, window_start
ORDER BY event_type, window_start
"""


def _gap_block(t: pa.Table, starts: np.ndarray) -> pa.Table:
    t, us, _ = _timeline(t, starts)
    # integer microseconds end-to-end: float seconds would accumulate
    # representation error and drift from the epoch_us() oracle
    g = _gaps(us, starts)
    ng = np.diff(np.append(starts, len(us))) - 1
    k = ng > 0
    avg = (np.add.reduceat(g, starts)[k].astype(np.float64) / ng[k]) / 1e6
    avg = np.copysign(np.floor(np.abs(avg) * 1e6 + 0.5), avg) / 1e6
    return pa.table({
        "user_id": t["user_id"].take(starts[k]),
        "n_gaps": ng[k],
        "avg_gap_sec": avg,
        "max_gap_sec": np.maximum.reduceat(g, starts)[k] / 1e6})


def user_gap_stats(events_ds):
    """Per-user inter-event gap statistics — the lag()-window shape:
    (user_id, n_gaps, avg_gap_sec, max_gap_sec); users with a single
    event produce no row.
    """
    return segment_map(events_ds.select_columns(["user_id", "ts",
                                                 "event_id"]),
                       "user_id", _gap_block)


USER_GAP_STATS_SQL = """
WITH d AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
  FROM events)
SELECT user_id, count(*) AS n_gaps,
       round(sum(gap_us) / count(*) / 1000000.0, 6) AS avg_gap_sec,
       max(gap_us) / 1000000.0 AS max_gap_sec
FROM d WHERE gap_us IS NOT NULL
GROUP BY user_id ORDER BY user_id
"""


def _running_block(t: pa.Table, starts: np.ndarray) -> pa.Table:
    t, _, seg = _timeline(t, starts)
    # exact integer centi-units: a float cumsum's value depends on
    # DuckDB's segment-tree accumulation order, an int cumsum doesn't
    cents = _cents(t["value"]).to_numpy()
    cum = np.cumsum(cents)
    cum -= (cum - cents)[starts][seg]     # restart at each user
    return pa.table({"user_id": t["user_id"], "event_id": t["event_id"],
                     "cum_value_cents": cum})


def running_user_totals(events_ds):
    """Per-user running total of event value (the cumulative-window
    shape: SUM OVER PARTITION BY user ORDER BY ts ROWS UNBOUNDED
    PRECEDING), one row per event, in exact integer cents so the result
    is identical under any accumulation order."""
    return segment_map(events_ds.select_columns(
        ["user_id", "event_id", "ts", "value"]), "user_id", _running_block)


RUNNING_USER_TOTALS_SQL = """
SELECT user_id, event_id,
       (sum(CAST(round(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       ))::BIGINT AS cum_value_cents
FROM events
ORDER BY user_id, event_id
"""


# --- event-sequence analytics: transitions, funnels, retention ---

def _transition_block(t: pa.Table, starts: np.ndarray) -> pa.Table:
    t, _, seg = _timeline(t, starts)
    (a, b), _ = _ngrams(t, seg, 2)
    return _counts({"from_type": a, "to_type": b}, "n_pairs")


def event_transitions(events_ds):
    """Markov transition counts between consecutive events per user —
    the lead()-window shape: (from_type, to_type, n_pairs).

    Scale shape: each coarse user block emits at most |types|²
    pre-combined rows, then ONE tiny native groupby rolls them up — the
    second shuffle carries counts, never events.
    """
    from ray.data.aggregate import Sum

    return segment_map(events_ds.select_columns(
        ["user_id", "ts", "event_id", "event_type"]),
        "user_id", _transition_block) \
        .groupby(["from_type", "to_type"]) \
        .aggregate(Sum("n_pairs", alias_name="n_pairs"))


EVENT_TRANSITIONS_SQL = """
WITH nxt AS (
  SELECT event_type AS from_type,
         lead(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS to_type
  FROM events)
SELECT from_type, to_type, count(*) AS n_pairs
FROM nxt WHERE to_type IS NOT NULL
GROUP BY from_type, to_type
ORDER BY from_type, to_type
"""


FUNNEL_STAGES = ("view", "click", "purchase")


def funnel_counts(events_ds, stages: tuple[str, ...] = FUNNEL_STAGES):
    """Ordered-funnel analysis: how many users reached each stage, where
    "reached stage k" means the user's first stage-k event came strictly
    after their first stage-(k-1) event.  Output (stage_idx, stage,
    n_users) with cumulative reach counts.

    Scale shape: conditional first-times via ONE native
    (user, type) Min groupby (pre-combined per block, shuffle carries
    one int per user per stage); the depth walk then runs once per
    coarse user block as a users × stages matrix; the final rollup is
    |stages| rows.
    """
    from ray.data.aggregate import Min, Sum

    stages = pa.array(list(stages), pa.string())

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], value_set=stages))
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        return pa.Table.from_arrays(
            [t["user_id"], t["event_type"], us],
            names=["user_id", "event_type", "ts_us"])

    def depth(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # a user reaches stage k when they reach k-1 and their first
        # stage-k event is strictly later than their first stage-(k-1)
        u = segment_ids(starts, t.num_rows)
        k = pc.index_in(t["event_type"], value_set=stages) \
            .to_numpy(zero_copy_only=False)
        first = np.zeros((len(starts), len(stages)), np.int64)
        reach = np.zeros(first.shape, bool)
        first[u, k] = t["first_us"].to_numpy()
        reach[u, k] = True
        reach[:, 1:] &= first[:, 1:] > first[:, :-1]
        n = np.logical_and.accumulate(reach, axis=1).sum(axis=0)
        i = np.flatnonzero(n)
        return pa.table({"stage_idx": i, "stage": stages.take(i),
                         "n_users": n[i]})

    mins = events_ds.select_columns(["user_id", "event_type", "ts"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby(["user_id", "event_type"]) \
        .aggregate(Min("ts_us", alias_name="first_us"))
    return segment_map(mins, "user_id", depth) \
        .groupby(["stage_idx", "stage"]) \
        .aggregate(Sum("n_users", alias_name="n_users"))


def funnel_counts_sql(stages: tuple[str, ...] = FUNNEL_STAGES) -> str:
    """DuckDB oracle: per-user conditional-min first-times, a CASE
    ladder for ordered depth, and a VALUES join for cumulative reach."""
    stages = tuple(stages)
    mins = ",\n         ".join(
        "min(CASE WHEN event_type = '{s}' THEN epoch_us(ts) END) AS t{i}"
        .format(s=s, i=i) for i, s in enumerate(stages))
    ladder = ["WHEN t0 IS NULL THEN 0"]
    for i in range(1, len(stages)):
        ladder.append(
            f"WHEN t{i} IS NULL OR t{i} <= t{i-1} THEN {i}")
    ladder.append(f"ELSE {len(stages)}")
    vals = ", ".join(f"({i}, '{s}')" for i, s in enumerate(stages))
    return f"""
WITH m AS (
  SELECT user_id,
         {mins}
  FROM events GROUP BY user_id),
d AS (
  SELECT user_id,
         CASE {' '.join(ladder)} END AS depth
  FROM m)
SELECT s.i AS stage_idx, s.name AS stage, count(*) AS n_users
FROM d JOIN (VALUES {vals}) AS s(i, name) ON s.i < d.depth
GROUP BY s.i, s.name
ORDER BY s.i
"""


def retention_cohorts(events_ds):
    """Retention-cohort analysis: users grouped by first-active day,
    counted per activity-day offset — (cohort_day, day_offset, n_users).
    Day indexes are integer days since the Unix epoch.

    Scale shape: per-batch (user, day) dedup shrinks the exchange to
    distinct activity days; the user-keyed shuffle carries only those;
    the final (cohort, offset) rollup is calendar-bounded (days²), tiny
    at any corpus size.
    """
    from ray.data.aggregate import Count

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        # int64 divide truncates; all epochs are positive so trunc==floor
        day = pc.divide(us, pa.scalar(_US_PER_DAY, pa.int64()))
        out = pa.Table.from_arrays(
            [t["user_id"], day],
            names=["user_id", "day_idx"])
        return out.group_by(["user_id", "day_idx"]).aggregate([])

    def cohorts(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # finish the per-block (user, day) dedup; a user's cohort is
        # their first day
        seg = segment_ids(starts, t.num_rows)
        day = t["day_idx"].to_numpy()
        o = np.lexsort((day, seg))
        seg, day = seg[o], day[o]
        cohort = day[starts][seg]
        k = run_starts(seg, day)
        return pa.table({"cohort_day": cohort[k],
                         "day_offset": (day - cohort)[k]})

    return segment_map(events_ds.select_columns(["user_id", "ts"])
                       .map_batches(prep, batch_format="pyarrow",
                                    zero_copy_batch=True),
                       "user_id", cohorts) \
        .groupby(["cohort_day", "day_offset"]) \
        .aggregate(Count(alias_name="n_users"))


RETENTION_COHORTS_SQL = f"""
WITH ud AS (
  SELECT DISTINCT user_id, epoch_us(ts) // {_US_PER_DAY} AS day_idx
  FROM events),
c AS (
  SELECT user_id, day_idx,
         min(day_idx) OVER (PARTITION BY user_id) AS cohort_day
  FROM ud)
SELECT cohort_day, day_idx - cohort_day AS day_offset,
       count(*) AS n_users
FROM c GROUP BY cohort_day, day_offset
ORDER BY cohort_day, day_offset
"""


def cooccurrence_edges(events_ds, cap: int = 200):
    """Co-occurrence edge construction — the log→graph shape: user
    pairs active in the same (event_type, hour) bucket, with shared-
    bucket counts.  Output (user_a, user_b, n_shared), user_a < user_b.

    Scale shape: per-batch (bucket, user) dedup shrinks the exchange to
    distinct memberships; ``segment_map`` on (event_type, hr) generates
    each coarse block's pairs at once (``segment_pairs``).  Hot buckets
    are capped (smallest ``cap`` user ids, logged — the same guard as
    the LSH buckets) and the cap is replicated in the oracle with a
    row_number() window.  The rollup is a second ``segment_map`` on the
    packed pair key with ``np.add.reduceat``: a native
    ``groupby(key).aggregate`` over this unbounded key pays a per-group
    Python cost too (CLAUDE.md lesson).
    """
    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        hr = pc.divide(us, pa.scalar(_US_PER_HOUR, pa.int64()))
        out = pa.Table.from_arrays(
            [t["event_type"], hr, t["user_id"]],
            names=["event_type", "hr", "user_id"])
        return out.group_by(["event_type", "hr", "user_id"]).aggregate([])

    def bucket_pairs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # each bucket's distinct users in id order
        seg = segment_ids(starts, t.num_rows)
        uid = t["user_id"].to_numpy()
        o = np.lexsort((uid, seg))
        k = run_starts(seg[o], uid[o])
        seg, uid = seg[o][k], uid[o][k]
        first = np.flatnonzero(run_starts(seg))
        size = np.diff(np.append(first, len(uid)))
        hot = size > cap
        if hot.any():
            logger.warning(
                "cooccurrence: %d hot buckets truncated to %d members "
                "(%d dropped); their pairs are incomplete",
                hot.sum(), cap, (size[hot] - cap).sum())
        ia, ib = segment_pairs(first, np.minimum(size, cap))
        # pack the (a, b) pair into ONE int64 key (user ids < 2^31) and
        # pre-combine within the block before the exchange
        key, n = np.unique((uid[ia] << np.int64(32)) | uid[ib],
                           return_counts=True)
        return pa.table({"key": key, "cnt": n})

    def rollup(t: pa.Table, starts: np.ndarray) -> pa.Table:
        key = t["key"].to_numpy()[starts]
        return pa.table({
            "user_a": key >> np.int64(32),
            "user_b": key & np.int64(0xFFFFFFFF),
            "n_shared": np.add.reduceat(t["cnt"].to_numpy(), starts)})

    members = events_ds.select_columns(["event_type", "ts", "user_id"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return segment_map(segment_map(members, ["event_type", "hr"],
                                   bucket_pairs), "key", rollup)


def cooccur_cte_body(cap: int = 200, table: str = "events") -> str:
    """The shared CTE chain (buckets → capped members → pair rows) used
    by both the co-occurrence oracle and the PageRank oracle."""
    return f"""ub AS (
  SELECT DISTINCT event_type, epoch_us(ts) // {_US_PER_HOUR} AS hr,
         user_id
  FROM {table}),
r AS (
  SELECT *, row_number() OVER (
      PARTITION BY event_type, hr ORDER BY user_id) AS rn
  FROM ub),
c AS (SELECT * FROM r WHERE rn <= {cap}),
p AS (
  SELECT a.user_id AS user_a, b.user_id AS user_b
  FROM c a JOIN c b
    ON a.event_type = b.event_type AND a.hr = b.hr
   AND a.user_id < b.user_id)"""


def cooccurrence_edges_sql(cap: int = 200, table: str = "events") -> str:
    """DuckDB oracle: identical buckets, identical smallest-user-id cap
    via row_number(), identical a<b pair rollup."""
    return f"""
WITH {cooccur_cte_body(cap, table)}
SELECT user_a, user_b, count(*) AS n_shared
FROM p GROUP BY user_a, user_b
ORDER BY user_a, user_b
"""


def windowed_event_dedup(events_ds, window_min: int = 5):
    """Stream-style deduplication: drop an event when the same
    (user_id, event_type) occurred within the previous ``window_min``
    minutes — the at-most-once-per-window gate a clickstream pipeline
    applies before counting.  Returns the surviving events
    (event_id, user_id, event_type, ts).

    Scale shape: ``segment_map`` on (user, type), time order inside each
    segment, and keep rows whose gap to the PREVIOUS KEPT row is ≥ the
    window (exact integer microseconds).  Note the kept-row semantics:
    a burst t=0,3,6 min with a 5-min window keeps 0 and 6 (3
    suppressed, and a suppressed row does NOT extend the window).  Each
    row's successor is the first row a window later in its segment (one
    within-segment ``searchsorted``); the kept rows are the chains from
    the segment starts, followed for all segments at once.
    """
    win = window_min * _US_PER_MIN

    def keep_block(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, seg = _timeline(t, starts, ("user_id", "event_type"))
        # at least the next row, so a zero window keeps every row
        nxt = np.maximum(segment_searchsorted(seg, us, seg, us + win),
                         np.arange(len(us)) + 1)
        end = np.append(starts, len(us))[1:][seg]
        keep = np.zeros(len(us), bool)
        cur = starts
        while len(cur):
            keep[cur] = True
            n = nxt[cur]
            cur = n[n < end[cur]]
        return t.filter(keep).select(["event_id", "user_id", "event_type",
                                      "ts"])

    return segment_map(events_ds.select_columns(
        ["event_id", "user_id", "event_type", "ts"]),
        ["user_id", "event_type"], keep_block)


def windowed_event_dedup_sql(window_min: int = 5,
                             table: str = "events") -> str:
    """DuckDB oracle: kept-row semantics need the last KEPT timestamp,
    not lag() — replayed with a recursive CTE walking each
    (user, type) partition in (ts, event_id) order."""
    win_us = window_min * 60_000_000
    return f"""
WITH RECURSIVE ordered AS (
  SELECT event_id, user_id, event_type, ts,
         epoch_us(ts) AS us,
         row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS rn
  FROM {table}),
walk(user_id, event_type, rn, us, event_id, ts, last_kept, keep) AS (
  SELECT user_id, event_type, rn, us, event_id, ts, us, true
  FROM ordered WHERE rn = 1
  UNION ALL
  SELECT o.user_id, o.event_type, o.rn, o.us, o.event_id, o.ts,
         CASE WHEN o.us - w.last_kept >= {win_us}
              THEN o.us ELSE w.last_kept END,
         o.us - w.last_kept >= {win_us}
  FROM ordered o
  JOIN walk w ON w.user_id = o.user_id
             AND w.event_type = o.event_type AND o.rn = w.rn + 1)
SELECT event_id, user_id, event_type, ts
FROM walk WHERE keep ORDER BY event_id
"""


# --- event-sequence mining: per-user event-type trigram paths --------------

def _trigram_block(t: pa.Table, starts: np.ndarray) -> pa.Table:
    t, _, seg = _timeline(t, starts)
    (a, b, c), _ = _ngrams(t, seg, 3)
    return _counts({"t1": a, "t2": b, "t3": c}, "n_paths")


def event_path_trigrams(events_ds):
    """Sequence mining: counts of consecutive event-type TRIPLES per
    user, rolled up corpus-wide — (t1, t2, t3, n_paths), the
    double-lead() window shape.

    Scale shape mirrors event_transitions: each coarse user block emits
    ≤ |types|³ pre-combined rows; the rollup shuffle carries counts,
    never events."""
    from ray.data.aggregate import Sum

    return segment_map(events_ds.select_columns(
        ["user_id", "ts", "event_id", "event_type"]),
        "user_id", _trigram_block) \
        .groupby(["t1", "t2", "t3"]) \
        .aggregate(Sum("n_paths", alias_name="n_paths"))


EVENT_PATH_TRIGRAMS_SQL = """
WITH nxt AS (
  SELECT event_type AS t1,
         lead(event_type, 1) OVER w AS t2,
         lead(event_type, 2) OVER w AS t3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT t1, t2, t3, count(*) AS n_paths
FROM nxt WHERE t3 IS NOT NULL
GROUP BY t1, t2, t3
ORDER BY t1, t2, t3
"""


# --- session conversion by day-of-week -------------------------------------

def _conversion_block(t: pa.Table, starts: np.ndarray) -> pa.Table:
    t, us, _ = _timeline(t, starts)
    s = np.flatnonzero(_new_sessions(us, starts))
    conv = np.maximum.reduceat(_is(t, "purchase"), s)
    # epoch-day arithmetic on BOTH sides (no engine dow() semantics):
    # (day_idx + 4) % 7 with 0 = Sunday (1970-01-01 was a Thursday).
    # DuckDB's // TRUNCATES toward zero while numpy's floors — mirror
    # trunc explicitly, and canonicalize the modulo to non-negative on
    # both sides so pre-epoch timestamps agree too
    a = us[s]
    dow = ((np.sign(a) * (np.abs(a) // _US_PER_DAY) + 4) % 7 + 7) % 7
    n = np.bincount(dow, minlength=7)
    i = np.flatnonzero(n)
    return pa.table({"dow": i, "n_sessions": n[i],
                     "n_converted": np.bincount(dow[conv],
                                                minlength=7)[i]})


def session_conversion_by_dow(events_ds):
    """30-minute-gap sessions (sessionize semantics) → fraction of
    sessions containing a purchase, per day-of-week of session start:
    (dow, n_sessions, n_converted, conversion_rate).

    Each coarse user block emits ≤ 7 pre-combined rows; the final
    rollup is 7 rows."""
    from ray.data.aggregate import Sum

    agg = segment_map(events_ds.select_columns(
        ["user_id", "ts", "event_id", "event_type"]),
        "user_id", _conversion_block) \
        .groupby("dow") \
        .aggregate(Sum("n_sessions", alias_name="n_sessions"),
                   Sum("n_converted", alias_name="n_converted"))

    def rate(t: pa.Table) -> pa.Table:
        from .text import _round6

        # _round6, NOT builtin round: Python round is banker's, the
        # oracle's round() is half-away (CLAUDE.md hard rule)
        r = [_round6(c / s) if s else 0.0 for c, s in
             zip(t["n_converted"].to_pylist(), t["n_sessions"].to_pylist())]
        return t.append_column("conversion_rate", pa.array(r, pa.float64()))

    return agg.map_batches(rate, batch_format="pyarrow")


SESSION_CONVERSION_BY_DOW_SQL = f"""
WITH marked AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
              OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
sessions AS (
  SELECT *, sum(new_s) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS session_id
  FROM marked),
per_session AS (
  SELECT user_id, session_id,
         ((epoch_us(min(ts)) // {_US_PER_DAY} + 4) % 7 + 7) % 7 AS dow,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS conv
  FROM sessions GROUP BY user_id, session_id)
SELECT dow, count(*) AS n_sessions, sum(conv)::BIGINT AS n_converted,
       round(sum(conv)::DOUBLE / count(*), 6) AS conversion_rate
FROM per_session GROUP BY dow ORDER BY dow
"""


# --- time-decayed user value: exact dyadic half-life weighting -------------

_DECAY_HORIZON_DAYS = 30


def decayed_user_value(events_ds, horizon: int = _DECAY_HORIZON_DAYS):
    """Per-user recency-weighted value: sum of value·2^-(days_ago) with
    a one-day half-life and a ``horizon``-day cutoff, anchored at the
    corpus's max event day — (user_id, decayed_cents_x, decayed_value).

    Exactness trick: 2^-d weights are dyadic, so each event contributes
    the INTEGER cents << (horizon - d); the int64 sum is order-
    independent under any distributed accumulation, and the final
    ``sum / 2^horizon`` rounds identically on both engines.  (Bound:
    cents·2^30 ≈ 1e15/event — int64 holds ~9e3 such events per user;
    beyond that, split the sum by day first.)"""
    from ray.data.aggregate import Max, Sum

    days = events_ds.select_columns(["ts"]).map_batches(
        lambda t: pa.table({"day": pc.divide(
            pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(_US_PER_DAY, pa.int64()))}),
        batch_format="pyarrow", zero_copy_batch=True)
    ref_day = days.aggregate(Max("day"))["max(day)"]

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        d = pc.subtract(
            pa.scalar(ref_day, pa.int64()),
            pc.divide(us, pa.scalar(_US_PER_DAY, pa.int64()))) \
            .to_numpy(zero_copy_only=False)
        cents = _cents(t["value"]).to_numpy()
        w = np.where((d >= 0) & (d <= horizon),
                     np.int64(1) << np.maximum(horizon - d, 0), 0)
        # enforce the documented exact-int64 bound: cents·2^horizon must
        # stay ≤ 2^62 per event (sum headroom), else the product wraps
        # silently while the DuckDB twin sums into HUGEINT — raise loud
        lim = np.int64(1) << (62 - horizon)
        if np.abs(cents[w > 0]).max(initial=0) > lim:
            raise ValueError(
                "decayed_user_value: |value| exceeds the exact-int64 "
                f"bound (~${float(lim) / 100:.3g} at d=0); split the "
                "sum by day first (see docstring)")
        return pa.table({"user_id": t["user_id"],
                         "wcents": pa.array(cents * w, pa.int64())})

    agg = events_ds.select_columns(["user_id", "ts", "value"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("user_id") \
        .aggregate(Sum("wcents", alias_name="decayed_cents_x"))

    def finish(t: pa.Table) -> pa.Table:
        # half-away-from-zero for EITHER sign (decayed cents can go
        # negative on refund rows; _round6 is floor-based and only
        # half-away for non-negative inputs)
        scale = float(1 << horizon) * 100.0
        v = [float(np.copysign(np.floor(abs(x / scale) * 1e6 + 0.5),
                               x) / 1e6)
             for x in t["decayed_cents_x"].to_pylist()]
        return t.append_column("decayed_value", pa.array(v, pa.float64()))

    return agg.map_batches(finish, batch_format="pyarrow")


def decayed_user_value_sql(horizon: int = _DECAY_HORIZON_DAYS) -> str:
    return f"""
WITH ref AS (
  SELECT max(epoch_us(ts) // {_US_PER_DAY}) AS ref_day FROM events),
w AS (
  SELECT user_id,
         CASE WHEN ref.ref_day - epoch_us(ts) // {_US_PER_DAY}
                   BETWEEN 0 AND {horizon}
              THEN CAST(round(value * 100) AS BIGINT)
                   * (1::BIGINT << ({horizon} - (ref.ref_day
                        - epoch_us(ts) // {_US_PER_DAY})))
              ELSE 0 END AS wcents
  FROM events, ref)
SELECT user_id, sum(wcents)::BIGINT AS decayed_cents_x,
       round(sum(wcents)::DOUBLE / {float((1 << horizon) * 100)}, 6)
         AS decayed_value
FROM w GROUP BY user_id ORDER BY user_id
"""


def purchase_click_window(events_ds, days: int = 7):
    """RANGE JOIN: for every purchase event, how many clicks the same
    user made in the half-open window ``[ts - days, ts)`` — the
    attribution shape (events × events on user + time band).

    Never materializes the pair blow-up: ``segment_map`` by user, then
    two within-user ``searchsorted`` probes of the purchase timestamps
    into the time-ordered clicks, for every user of a coarse block at
    once — O(n log n) vs the O(clicks × purchases) join the SQL oracle
    runs.
    """
    win = days * _US_PER_DAY

    def block(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, seg = _timeline(t, starts)
        p, c = np.flatnonzero(_is(t, "purchase")), \
            np.flatnonzero(_is(t, "click"))
        lo = segment_searchsorted(seg[c], us[c], seg[p], us[p] - win)
        hi = segment_searchsorted(seg[c], us[c], seg[p], us[p])
        return pa.table({"event_id": t["event_id"].take(p),
                         "user_id": t["user_id"].take(p),
                         "n_recent_clicks": hi - lo})

    return segment_map(events_ds.select_columns(
        ["user_id", "ts", "event_type", "event_id"]), "user_id", block)


def purchase_click_window_sql(days: int = 7) -> str:
    return f"""
        SELECT p.event_id, p.user_id,
               count(c.event_id) AS n_recent_clicks
        FROM events p LEFT JOIN events c
          ON c.user_id = p.user_id AND c.event_type = 'click'
         AND c.ts >= p.ts - INTERVAL {days} DAY AND c.ts < p.ts
        WHERE p.event_type = 'purchase'
        GROUP BY p.event_id, p.user_id ORDER BY p.event_id
    """


def user_value_trend(events_ds, digits: int = 6):
    """Per-user OLS trend of event value over time —
    (user_id, n_events, slope): least-squares slope of value-cents
    against minutes-since-corpus-start, for users whose events span
    more than one minute (the normal-equation denominator is positive).

    Exactness: x (minutes, rebased on the corpus min via ONE tiny
    aggregate) and y (half-away cents) are ints, so the five partial
    sums (n, Σx, Σy, Σxy, Σx²) are exact int64 under any distributed
    merge order — the classic combiner shape, one native groupby of
    5-int rows per (user, block).  Only the final
    ``(nΣxy − ΣxΣy) / (nΣx² − Σx²)`` is float (two exact-int→double
    casts and one divide — identical IEEE ops in DuckDB).
    """
    from ray.data.aggregate import Count, Min, Sum

    us_per_min = 60_000_000
    mins = events_ds.select_columns(["ts"]).map_batches(
        lambda t: pa.table({"m": pc.divide(
            pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(us_per_min, pa.int64()))}),
        batch_format="pyarrow", zero_copy_batch=True)
    base = mins.aggregate(Min("m"))["min(m)"]

    def prep(t: pa.Table) -> pa.Table:
        x = pc.subtract(
            pc.divide(pc.cast(pc.cast(t["ts"], pa.timestamp("us")),
                              pa.int64()),
                      pa.scalar(us_per_min, pa.int64())),
            pa.scalar(base, pa.int64())).to_numpy(zero_copy_only=False)
        y = _cents(t["value"]).to_numpy()
        return pa.table({
            "user_id": t["user_id"],
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
            "xy": pa.array(x * y, pa.int64()),
            "x2": pa.array(x * x, pa.int64())})

    s = events_ds.select_columns(["user_id", "ts", "value"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("user_id").aggregate(
            Count(alias_name="n"), Sum("x", alias_name="sx"),
            Sum("y", alias_name="sy"), Sum("xy", alias_name="sxy"),
            Sum("x2", alias_name="sx2"))

    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "n_events": pa.array([], pa.int64()),
                      "slope": pa.array([], pa.float64())})

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = t["n"].to_numpy(zero_copy_only=False)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        sx2 = t["sx2"].to_numpy(zero_copy_only=False)
        den = n * sx2 - sx * sx
        keep = den > 0
        if not keep.any():
            return empty
        num = (n * sxy - sx * sy)[keep].astype(np.float64)
        slope = num / den[keep].astype(np.float64)
        slope = np.where(slope >= 0, np.floor(slope * 10.0 ** digits + 0.5),
                         -np.floor(-slope * 10.0 ** digits + 0.5)) \
            / 10.0 ** digits
        return pa.table({
            "user_id": t["user_id"].filter(pa.array(keep)),
            "n_events": pa.array(n[keep], pa.int64()),
            "slope": pa.array(slope, pa.float64())})

    return s.map_batches(finish, batch_format="pyarrow")


def user_value_trend_sql(digits: int = 6) -> str:
    return f"""
WITH base AS (
  SELECT min(epoch_us(ts) // 60000000) AS m FROM events),
xy AS (
  SELECT user_id,
         epoch_us(ts) // 60000000 - base.m AS x,
         CAST(round(value * 100) AS BIGINT) AS y
  FROM events, base),
s AS (
  SELECT user_id, count(*) AS n,
         sum(x)::BIGINT AS sx, sum(y)::BIGINT AS sy,
         sum(x * y)::BIGINT AS sxy, sum(x * x)::BIGINT AS sx2
  FROM xy GROUP BY user_id)
SELECT user_id, n AS n_events,
       round((n * sxy - sx * sy)::DOUBLE
             / (n * sx2 - sx * sx)::DOUBLE, {digits}) AS slope
FROM s WHERE n * sx2 - sx * sx > 0
ORDER BY user_id
"""


def hll_distinct_hopping(events_ds, size_hours: int = 2,
                         hop_hours: int = 1, digits: int = 4):
    """Distinct users per hopping window WITHOUT shuffling user ids —
    the sketch × window composition: each event contributes its HLL
    register update to every window covering it (size/hop copies), the
    exchange carries only (window, register, rank) partials, and one
    native Max-merge finalizes — (window_start, n_registers,
    reg_sum_scaled, est_distinct).

    Exactness contract identical to ``ops/sketch.hll_distinct``: md5-60
    registers, exact dyadic register sum, two-IEEE-op raw estimator.
    At 100 TB this is the shape for "distinct users per sliding hour
    over a year of events" — |windows| × 64 tiny rows total exchange.
    """
    from ray.data.aggregate import Max

    from .sketch import (_ALPHA_64, _HLL_B, _HLL_M, _RANK_BITS,
                         _RANK_MAX)
    from .dedup import _md5_60

    if size_hours % hop_hours:
        raise ValueError("size_hours must be a multiple of hop_hours")
    n_copies = size_hours // hop_hours
    us_size = size_hours * 3_600_000_000
    us_hop = hop_hours * 3_600_000_000

    def partial(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        users = t["user_id"].to_pylist()
        reg = np.empty(len(users), np.int64)
        rank = np.empty(len(users), np.int64)
        for j, u in enumerate(users):
            h = _md5_60(str(u).encode())
            reg[j] = h % _HLL_M
            w = h >> _HLL_B
            rank[j] = _RANK_MAX if w == 0 else \
                _RANK_BITS - w.bit_length() + 1
        # window_start of the LAST window covering the event, then the
        # earlier copies at -hop, -2hop, ...
        base = (us // us_hop) * us_hop
        parts = []
        for i in range(n_copies):
            w0 = base - i * us_hop
            parts.append(pd.DataFrame({
                "window_start": w0, "reg": reg, "rank": rank}))
        df = pd.concat(parts, ignore_index=True)
        g = df.groupby(["window_start", "reg"], sort=False)["rank"] \
            .max().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    regs = events_ds.select_columns(["user_id", "ts"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["window_start", "reg"]) \
        .aggregate(Max("rank", alias_name="rank"))

    def finish(g: pa.Table) -> pa.Table:
        ranks = dict(zip(g["reg"].to_pylist(), g["rank"].to_pylist()))
        ssum = sum(1 << (_RANK_MAX - int(ranks.get(j, 0)))
                   for j in range(_HLL_M))
        s = ssum / float(1 << _RANK_MAX)
        est = _ALPHA_64 * _HLL_M * _HLL_M / s
        est = np.floor(est * 10.0 ** digits + 0.5) / 10.0 ** digits
        return pa.table({
            "window_start": pa.array([g["window_start"][0].as_py()],
                                     pa.int64()),
            "n_registers": pa.array([_HLL_M], pa.int64()),
            "reg_sum_scaled": pa.array([ssum], pa.int64()),
            "est_distinct": pa.array([float(est)], pa.float64())})

    return regs.groupby("window_start").map_groups(
        finish, batch_format="pyarrow")


def hll_distinct_hopping_sql(size_hours: int = 2, hop_hours: int = 1,
                             digits: int = 4) -> str:
    from .sketch import _ALPHA_64, _HLL_B, _HLL_M, _RANK_BITS, _RANK_MAX

    m, rmax = _HLL_M, _RANK_MAX
    n_copies = size_hours // hop_hours
    us_hop = hop_hours * 3_600_000_000
    return f"""
WITH h AS (
  SELECT (epoch_us(ts) // {us_hop}) * {us_hop}
           - c.i * {us_hop} AS window_start,
         ('0x' || substr(md5(user_id::VARCHAR), 1, 15))::BIGINT AS hv
  FROM events CROSS JOIN range(0, {n_copies}) AS c(i)),
r AS (
  SELECT window_start, hv % {m} AS reg,
         CASE WHEN hv // {m} = 0 THEN {rmax}
              ELSE {_RANK_BITS} - length(ltrim(bin(hv // {m}), '0')) + 1
         END AS rank
  FROM h),
mx AS (
  SELECT window_start, reg, max(rank) AS rank
  FROM r GROUP BY window_start, reg),
s AS (
  SELECT window_start,
         sum((1::BIGINT << ({rmax} - rank)))::BIGINT
           + ({m} - count(*)) * (1::BIGINT << {rmax}) AS reg_sum_scaled
  FROM mx GROUP BY window_start)
SELECT window_start, {m} AS n_registers, reg_sum_scaled,
       round({_ALPHA_64} * {m} * {m}
             / (reg_sum_scaled / (1::BIGINT << {rmax})::DOUBLE),
             {digits}) AS est_distinct
FROM s ORDER BY window_start
"""


def peak_concurrent_users(events_ds):
    """Peak number of users with an OPEN activity interval per day —
    interval = [first event, last event] of that user's day; the
    classic +1/−1 endpoint sweep (capacity planning / concurrency
    audit).  Returns (day, peak_users).

    Scale shape: ONE native ``groupby((user_id, day))`` min/max builds
    the intervals (corpus → user-day-bounded rows), then a day-bounded
    ``map_groups`` numpy sweep.  Equal instants order starts BEFORE
    ends (lexsort on (ts, −delta)), so instant intervals count and
    touching intervals overlap — the SQL twin's ``ORDER BY ts,
    delta DESC`` replays the same prefix maxima (permutation within an
    equal (ts, delta) run cannot change a run-end cumsum).
    """
    from ray.data.aggregate import Max, Min

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "day": pc.cast(pc.floor_temporal(t["ts"], unit="day"),
                           pa.timestamp("us")),
            "ts": t["ts"]})

    iv = events_ds.select_columns(["user_id", "ts"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby(["user_id", "day"]).aggregate(
            Min("ts", alias_name="s"), Max("ts", alias_name="e"))

    def sweep(g: pa.Table) -> pa.Table:
        s = g["s"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        e = g["e"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ts = np.concatenate([s, e])
        delta = np.concatenate([np.ones(len(s), np.int64),
                                -np.ones(len(e), np.int64)])
        order = np.lexsort((-delta, ts))
        peak = int(np.cumsum(delta[order]).max())
        return pa.table({"day": g["day"].slice(0, 1),
                         "peak_users": pa.array([peak], pa.int64())})

    return iv.groupby("day").map_groups(sweep, batch_format="pyarrow")


PEAK_CONCURRENT_USERS_SQL = """
WITH pcu_iv AS (
  SELECT user_id, date_trunc('day', ts) AS day, min(ts) AS s,
         max(ts) AS e
  FROM events GROUP BY 1, 2),
pcu_pts AS (
  SELECT day, s AS ts, 1 AS delta FROM pcu_iv
  UNION ALL SELECT day, e, -1 FROM pcu_iv),
pcu_run AS (
  SELECT day, sum(delta) OVER (PARTITION BY day ORDER BY ts, delta DESC
                               ROWS UNBOUNDED PRECEDING) AS c
  FROM pcu_pts)
SELECT day, max(c)::BIGINT AS peak_users
FROM pcu_run GROUP BY day ORDER BY day
"""


# ---------------------------------------------------------------------------
# RFM segmentation
# ---------------------------------------------------------------------------

def rfm_segments(events_ds, n_bands: int = 5):
    """Recency/Frequency/Monetary segmentation — per user: the three
    raw metrics plus band scores 1..n_bands and the combined ``rfm``
    code.  Bands are EXACT rank quantiles: ``score = 1 +
    (n_bands · |users with strictly smaller metric|) // n_users`` (ties
    share a band — the ``rank() OVER`` twin), so every value is pure
    integer arithmetic and replays in SQL.

    Scale shape, two exchanges: events reduce to one per-user row via a
    single ``groupby(user_id)`` (Max/Count/Sum over int64 epoch-µs and
    exact cents), materialized once.  The global max timestamp comes
    from a map-only pass (one row per block).  Band boundaries come
    from ONE ``groupby(["metric", "value"]).count()`` over the three
    metrics unpivoted into a (metric, value) stream: per-metric
    DISTINCT-VALUE histograms (bounded by the day span, the max
    per-user event count and the cents value range — corpus-size-
    independent, the value_percentile_ranks precedent), collected with
    ``to_pandas()`` and broadcast into one final scoring pass, which derives
    ``rec_days`` again rather than storing it.  No global sort, no
    per-user window.
    """
    import ray
    from ray.data.aggregate import Count, Max, Sum

    from ..stages.broadcast import cached_get

    us_per_day = 86_400_000_000
    metrics = ("rec_days", "freq", "mon_cents")

    def prep(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(t["ts"], pa.int64())
        cents = _cents(t["value"])
        return pa.Table.from_arrays([t["user_id"], ts_us, cents],
                                    names=["user_id", "ts_us", "cents"])

    per = events_ds.select_columns(["user_id", "ts", "value"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("user_id") \
        .aggregate(Max("ts_us", alias_name="last_us"),
                   Count(alias_name="freq"),
                   Sum("cents", alias_name="mon_cents")) \
        .materialize()   # feeds gmax, the histogram AND the scoring pass

    def block_max(t: pa.Table) -> pa.Table:
        return pa.table({"m": pa.array([pc.max(t["last_us"]).as_py()],
                                       pa.int64())})

    gmax = max((r["m"] for r in per.map_batches(
        block_max, batch_format="pyarrow").take_all()
        if r["m"] is not None), default=0)

    def metric_cols(t: pa.Table) -> dict:
        last = t["last_us"].to_numpy(zero_copy_only=False)
        return {"rec_days": (gmax - last) // us_per_day,
                "freq": t["freq"].to_numpy(zero_copy_only=False),
                "mon_cents": t["mon_cents"].to_numpy(zero_copy_only=False)}

    def unpivot(t: pa.Table) -> pa.Table:
        m = metric_cols(t)
        return pa.table({
            "metric": pa.array(np.repeat(np.arange(len(metrics)),
                                         t.num_rows), pa.int64()),
            "value": pa.array(np.concatenate([m[c] for c in metrics]),
                              pa.int64())})

    # distinct-value histograms → strictly-less cumulative counts
    h = per.map_batches(unpivot, batch_format="pyarrow") \
        .groupby(["metric", "value"]).count().to_pandas() \
        .sort_values(["metric", "value"], kind="mergesort")
    n_users = per.count()
    luts = {}
    for i, col in enumerate(metrics):
        hc = h[h["metric"] == i]
        vals = hc["value"].to_numpy(np.int64)
        n_lt = np.concatenate(
            [[0], hc["count()"].to_numpy(np.int64).cumsum()[:-1]])
        luts[col] = (vals, 1 + (n_bands * n_lt) // n_users)
    ref = ray.put(luts)

    def score(t: pa.Table) -> pa.Table:
        m = cached_get(ref, tag="rfm_segments-bands")
        cols = {"user_id": t["user_id"].to_numpy(zero_copy_only=False),
                **metric_cols(t)}
        for col, out_name in (("rec_days", "r_score"), ("freq", "f_score"),
                              ("mon_cents", "m_score")):
            vals, bands = m[col]
            cols[out_name] = bands[np.searchsorted(vals, cols[col])]
        cols["rfm"] = cols["r_score"] * 100 + cols["f_score"] * 10 \
            + cols["m_score"]
        return pa.table({c: pa.array(cols[c], pa.int64()) for c in (
            "user_id", *metrics, "r_score", "f_score", "m_score", "rfm")})

    return per.map_batches(score, batch_format="pyarrow")


def rfm_segments_sql(n_bands: int = 5, table: str = "events") -> str:
    """Oracle twin: rank()−1 is the strictly-less count, bands via the
    identical integer formula."""
    return f"""
WITH rfm_per AS (
  SELECT user_id,
         (( SELECT max(epoch_us(ts)) FROM {table}) - max(epoch_us(ts)))
           // 86400000000 AS rec_days,
         count(*)::BIGINT AS freq,
         sum(CAST(round(value * 100) AS BIGINT))::BIGINT AS mon_cents
  FROM {table} GROUP BY user_id),
rfm_scored AS (
  SELECT user_id, rec_days, freq, mon_cents,
         1 + ({n_bands} * (rank() OVER (ORDER BY rec_days) - 1))
             // count(*) OVER () AS r_score,
         1 + ({n_bands} * (rank() OVER (ORDER BY freq) - 1))
             // count(*) OVER () AS f_score,
         1 + ({n_bands} * (rank() OVER (ORDER BY mon_cents) - 1))
             // count(*) OVER () AS m_score
  FROM rfm_per)
SELECT user_id, rec_days, freq, mon_cents,
       r_score::BIGINT AS r_score, f_score::BIGINT AS f_score,
       m_score::BIGINT AS m_score,
       (r_score * 100 + f_score * 10 + m_score)::BIGINT AS rfm
FROM rfm_scored ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# multi-touch attribution
# ---------------------------------------------------------------------------

_ATTR_H = 20   # dyadic weight horizon: rank ≥ H clicks attribute 0


def click_attribution(events_ds, horizon_min: int = 120):
    """Multi-touch purchase attribution with exact dyadic weights: each
    purchase attributes ``value_cents · 2^(H−1−rank)`` units to every
    click by the same user in the preceding ``horizon_min`` minutes,
    where rank 0 is the most recent click (ties on ts break by
    event_id desc, like the most-recent-first ordering).  Output per
    user: ``(user_id, n_purchases, n_attributed, attr_units)`` — the
    2^k unit scale makes the sum order-independent exact int64
    (the decayed_user_value idiom), so it hash-replays in SQL.

    Scale shape: one ``segment_map`` on user_id; per coarse block two
    within-user ``searchsorted`` probes count each purchase's window
    clicks ``m`` (no clicks×purchases blow-up).  With ``n = min(m, H)``
    the n most recent clicks weigh ``2^(H−1) … 2^(H−n)``, so a purchase
    attributes ``cents · (2^H − 2^(H−n))`` units in closed form.
    """
    win = horizon_min * _US_PER_MIN

    def block(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, seg = _timeline(t, starts)
        p, c = np.flatnonzero(_is(t, "purchase")), \
            np.flatnonzero(_is(t, "click"))
        # clicks strictly before the purchase instant, within win
        n = np.minimum(
            segment_searchsorted(seg[c], us[c], seg[p], us[p])
            - segment_searchsorted(seg[c], us[c], seg[p], us[p] - win),
            _ATTR_H)
        w = (np.int64(1) << _ATTR_H) - (np.int64(1) << (_ATTR_H - n))
        # Python ints: a per-user sum past int64 raises in pa.array
        # instead of wrapping (the twin sums into HUGEINT)
        units = _cents(t["value"]).to_numpy()[p].astype(object) \
            * w.astype(object)
        u = np.flatnonzero(run_starts(seg[p]))   # purchase-making users
        return pa.table({
            "user_id": t["user_id"].take(p[u]),
            "n_purchases": np.diff(np.append(u, len(p))),
            "n_attributed": np.add.reduceat(n, u),
            "attr_units": pa.array(np.add.reduceat(units, u), pa.int64())})

    return segment_map(events_ds.select_columns(
        ["user_id", "ts", "event_id", "event_type", "value"]),
        "user_id", block)


def click_attribution_sql(horizon_min: int = 120,
                          table: str = "events") -> str:
    """Oracle twin: clicks×purchases range join per user, rank by
    recency, identical dyadic shift arithmetic."""
    return f"""
WITH att_p AS (
  SELECT user_id, ts, event_id,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM {table} WHERE event_type = 'purchase'),
att_c AS (
  SELECT user_id, ts, event_id FROM {table}
  WHERE event_type = 'click'),
att_j AS (
  SELECT p.user_id, p.event_id AS pid, p.cents,
         row_number() OVER (
           PARTITION BY p.user_id, p.event_id
           ORDER BY c.ts DESC, c.event_id DESC) - 1 AS rnk
  FROM att_p p JOIN att_c c
    ON c.user_id = p.user_id
   AND c.ts < p.ts
   AND c.ts >= p.ts - INTERVAL {horizon_min} MINUTE),
att_sum AS (
  SELECT user_id,
         count(*) FILTER (WHERE rnk < {_ATTR_H}) AS n_attributed,
         sum(CASE WHEN rnk < {_ATTR_H}
                  THEN cents * (1::BIGINT << ({_ATTR_H} - 1 - rnk))
                  ELSE 0 END)::BIGINT AS attr_units
  FROM att_j GROUP BY user_id),
att_np AS (
  SELECT user_id, count(*)::BIGINT AS n_purchases
  FROM att_p GROUP BY user_id)
SELECT n.user_id, n.n_purchases,
       coalesce(s.n_attributed, 0)::BIGINT AS n_attributed,
       coalesce(s.attr_units, 0)::BIGINT AS attr_units
FROM att_np n LEFT JOIN att_sum s USING (user_id)
ORDER BY n.user_id
"""


# ---------------------------------------------------------------------------
# watermark / late-data audit
# ---------------------------------------------------------------------------

_ARRIVAL_BUCKET = 4096   # late_event_audit's prefix-scan bucket (event ids)


def _watermark(before: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The watermark before each event from a max ``prefix_scan`` of
    ts: the globally-first arrival has none (int64 min) and gets its
    own ts, clamped BEFORE any subtraction (int64 min − ts would
    wrap)."""
    return np.where(before == np.iinfo(np.int64).min, ts, before)


def _watermark_partials(events_ds, cols: list[str], prep, order, partials):
    """The driver-side rows of a watermark audit: ``partials(block,
    before)`` over the max ``prefix_scan`` of ``ts_us`` on ``bucket``
    in ``(bucket, *order)`` order, collected.  A schema-less empty input
    (e.g. an all-filtered one) reaches no kernel, so there ``partials``
    runs on ``prep`` of an empty events table, keeping the columns."""
    rows = collect(prefix_scan(events_ds.select_columns(cols), prep,
                               "bucket", order, "ts_us", np.maximum,
                               partials))
    if rows is None:
        empty = pa.table({"event_id": pa.array([], pa.int64()),
                          "event_type": pa.array([], pa.string()),
                          "ts": pa.array([], pa.timestamp("us"))})
        rows = partials(prep(empty.select(cols)), np.zeros(0, np.int64))
    return rows


def late_event_audit(events_ds, late_ms: int = 3_600_000):
    """Streaming-ingest watermark audit: treating ``event_id`` order as
    ARRIVAL order, an event is late when its event-time ``ts`` sits
    more than ``late_ms`` behind the watermark (the running max ts over
    all STRICTLY PRIOR arrivals).  Output per event_type:
    ``(event_type, n_events, n_late, max_lateness_ms)`` — the audit
    that sizes allowed-lateness before configuring real event-time
    windows.

    Scale shape: the running max is a ``groups.prefix_scan`` with
    ``np.maximum`` over ``bucket = event_id // _ARRIVAL_BUCKET`` (2
    exchanges, no global sort, no window shuffle); its kernel emits
    one Arrow partial row per (coarse block, event_type), and the
    driver folds those ≤ blocks × types rows.
    """
    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "ts_us": pc.cast(t["ts"], pa.int64()),
            "bucket": pc.divide(t["event_id"],
                                pa.scalar(_ARRIVAL_BUCKET, pa.int64()))})

    def partials(t: pa.Table, before: np.ndarray) -> pa.Table:
        ts = t["ts_us"].to_numpy()
        late = np.maximum(_watermark(before, ts) - ts, 0) // 1000
        # threshold on the //1000 value — the SQL compares late_ms
        return pa.table({"event_type": t["event_type"],
                         "n_late": pa.array(late > late_ms).cast(pa.int64()),
                         "late_ms": pa.array(late, pa.int64())}) \
            .group_by("event_type").aggregate([
                ("late_ms", "count"), ("n_late", "sum"), ("late_ms", "max")])

    out = _watermark_partials(
        events_ds, ["event_id", "event_type", "ts"], prep, ["event_id"],
        partials).group_by("event_type").aggregate([
            ("late_ms_count", "sum"), ("n_late_sum", "sum"),
            ("late_ms_max", "max")]).sort_by("event_type")
    return pa.table({"event_type": out["event_type"],
                     "n_events": out["late_ms_count_sum"],
                     "n_late": out["n_late_sum_sum"],
                     "max_lateness_ms": out["late_ms_max_max"]})


def late_event_audit_sql(late_ms: int = 3_600_000,
                         table: str = "events") -> str:
    """Oracle twin: exclusive running max over arrival order."""
    return f"""
WITH lea AS (
  SELECT event_type,
         greatest(coalesce(
           (epoch_us(max(ts) OVER (ORDER BY event_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))
            - epoch_us(ts)) // 1000, 0), 0) AS late_ms
  FROM {table})
SELECT event_type, count(*)::BIGINT AS n_events,
       count(*) FILTER (WHERE late_ms > {late_ms})::BIGINT AS n_late,
       max(late_ms)::BIGINT AS max_lateness_ms
FROM lea GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# interval overlap join: user sessions × busy-hour incident windows
# ---------------------------------------------------------------------------

def session_incident_overlap(events_ds, busy_num: int = 12,
                             busy_den: int = 10):
    """Interval overlap join: every user session (30-min-gap
    sessionization, interval = [first event, last event]) against the
    corpus's "incident" hours — tumbling hours whose event count is ≥
    ``busy_num/busy_den`` × the per-hour mean (the exact-integer
    relative-threshold idiom: ``c · n_hours · busy_den ≥ busy_num ·
    total`` — an absolute cut would not survive a scale-factor change).
    Output: ``(user_id, session_start, n_events, n_incidents)`` for
    sessions overlapping ≥1 incident hour.

    Scale shape: the incident side is time-bounded (≤ |hours in the
    corpus| rows — KB at any corpus size), built by one
    ``groups.fold`` on the driver and captured as a sorted int64
    hour-index array; the
    session side is one ``segment_map`` on user_id, and the overlap
    count per session is two ``searchsorted`` probes (an interval [s,e]
    touches hour h iff ``floor(s) ≤ h ≤ floor(e)``) — no all-to-all
    interval join ever happens.
    """
    hours = fold(events_ds.select_columns(["ts"]).map_batches(
        lambda t: pa.table({"h": pc.cast(pc.floor_temporal(
            t["ts"], unit="hour"), pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True),
        "h", {"n": ("count", None)})
    total, n_hours = sum(hours["n"].to_pylist()), hours.num_rows
    busy = hours["h"].to_numpy()[np.array(
        [c * n_hours * busy_den >= busy_num * total
         for c in hours["n"].to_pylist()], bool)] // _US_PER_HOUR

    def overlap(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, _ = _timeline(t, starts)
        s = np.flatnonzero(_new_sessions(us, starts))
        e = np.append(s, len(us))[1:] - 1
        n_inc = np.searchsorted(busy, us[e] // _US_PER_HOUR, side="right") \
            - np.searchsorted(busy, us[s] // _US_PER_HOUR, side="left")
        k = n_inc >= 1
        return pa.table({
            "user_id": t["user_id"].take(s[k]),
            "session_start": pa.array(us[s[k]], pa.timestamp("us")),
            "n_events": (e - s + 1)[k],
            "n_incidents": n_inc[k]})

    return segment_map(events_ds.select_columns(["user_id", "ts",
                                                 "event_id"]),
                       "user_id", overlap)


def session_incident_overlap_sql(busy_num: int = 12,
                                 busy_den: int = 10) -> str:
    """Oracle twin: the sessionize CTEs with min/max bounds, an
    integer relative-threshold incident CTE, and an explicit interval
    overlap join."""
    return f"""
WITH si_hours AS (
  SELECT date_trunc('hour', ts) AS h, count(*)::BIGINT AS n
  FROM events GROUP BY 1),
si_tot AS (SELECT sum(n)::BIGINT AS total,
                  count(*)::BIGINT AS n_hours FROM si_hours),
si_inc AS (
  SELECT h FROM si_hours CROSS JOIN si_tot
  WHERE n * n_hours * {busy_den} >= {busy_num} * total),
si_marked AS (
  SELECT user_id, ts, event_id,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
              OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
si_sess AS (
  SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
         count(*)::BIGINT AS n_events
  FROM (SELECT *, sum(new_s) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS sid
        FROM si_marked)
  GROUP BY user_id, sid)
SELECT s.user_id, s.session_start, s.n_events,
       count(*)::BIGINT AS n_incidents
FROM si_sess s JOIN si_inc i
  ON i.h >= date_trunc('hour', s.session_start)
 AND i.h <= date_trunc('hour', s.session_end)
GROUP BY s.user_id, s.session_start, s.n_events
ORDER BY s.user_id, s.session_start
"""


# ---------------------------------------------------------------------------
# hourly LOCF resample: per-user time-grid gap fill
# ---------------------------------------------------------------------------

def user_hourly_locf(events_ds):
    """Per-user hourly resample with last-observation-carried-forward:
    a grid of tumbling hours from the user's first to last event hour;
    each grid hour carries the value of the user's latest event at or
    before the hour's end (exact integer cents).  Output rollup:
    ``(user_id, n_hours, sum_locf_cents)`` — the sum proves every
    grid cell without shipping the grid.

    Scale shape: one ``segment_map`` on user_id, and no grid is built:
    in time order event i is the latest one for the grid hours from its
    own hour up to the next event's, so it weighs ``hour[i+1] - hour[i]``
    in the sum, and a user's last event weighs 1 (its own hour ends the
    grid) — O(events) per block.  Duplicate timestamps resolve to the
    highest event_id (the sort order; an earlier tie weighs 0), matching
    the oracle's ``arg_max(cents, event_id)`` pre-collapse + ASOF join.
    """
    def locf(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, _ = _timeline(t, starts)
        hour = us // _US_PER_HOUR
        last = np.append(starts, len(us))[1:] - 1
        w = np.diff(hour, append=0)
        w[last] = 1
        return pa.table({
            "user_id": t["user_id"].take(starts),
            "n_hours": hour[last] - hour[starts] + 1,
            "sum_locf_cents": np.add.reduceat(
                _cents(t["value"]).to_numpy() * w, starts)})

    return segment_map(events_ds.select_columns(["user_id", "ts",
                                                 "event_id", "value"]),
                       "user_id", locf)


USER_HOURLY_LOCF_SQL = """
WITH lo_e AS (
  SELECT user_id, ts,
         arg_max(CAST(round(value * 100) AS BIGINT), event_id) AS cents
  FROM events GROUP BY user_id, ts),
lo_b AS (
  SELECT user_id, date_trunc('hour', min(ts)) AS h0,
         date_trunc('hour', max(ts)) AS h1
  FROM lo_e GROUP BY user_id),
lo_grid AS (
  SELECT user_id,
         unnest(generate_series(h0, h1, INTERVAL 1 HOUR))
           + INTERVAL 1 HOUR - INTERVAL 1 MICROSECOND AS probe
  FROM lo_b),
lo_fill AS (
  SELECT g.user_id, e.cents
  FROM lo_grid g ASOF JOIN lo_e e
    ON g.user_id = e.user_id AND g.probe >= e.ts)
SELECT user_id, count(*)::BIGINT AS n_hours,
       sum(cents)::BIGINT AS sum_locf_cents
FROM lo_fill GROUP BY user_id ORDER BY user_id
"""


def user_active_time(events_ds, window_min: int = 30):
    """Total ACTIVE time per user — each event opens a
    ``[ts, ts + window_min)`` activity interval; overlapping (or
    touching) intervals merge, and the op reports the merged union:
    ``(user_id, n_intervals, active_us)``.  The engagement-duration
    rollup raw event counts overstate (100 events in one minute ≠ 100
    windows of activity).

    Scale shape: one ``segment_map`` on user_id; each coarse block is
    one vectorized gaps-and-islands pass on exact int64 microseconds.
    In time order the interval ends are sorted too, so an event opens a
    new island when it starts after the previous event's end — the
    session rule with the window as the gap — and an island's length
    is the window plus every later event's step.  The twin replays the
    same islands with a window running max.
    """
    win = window_min * _US_PER_MIN

    def merge(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, _ = _timeline(t, starts)
        new = _new_sessions(us, starts, win)
        return pa.table({
            "user_id": t["user_id"].take(starts),
            "n_intervals": np.add.reduceat(new.astype(np.int64), starts),
            "active_us": np.add.reduceat(
                np.where(new, win, _gaps(us, starts)), starts)})

    return segment_map(events_ds.select_columns(["user_id", "ts"]),
                       "user_id", merge)


def user_active_time_sql(window_min: int = 30,
                         table: str = "events") -> str:
    win_us = window_min * 60 * 1_000_000
    return f"""
WITH uat_iv AS (
  SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + {win_us} AS e
  FROM {table}),
uat_m AS (
  SELECT user_id, s, e,
         CASE WHEN s > coalesce(max(e) OVER (
                PARTITION BY user_id ORDER BY s
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                -9223372036854775807) THEN 1 ELSE 0 END AS new_i
  FROM uat_iv),
uat_g AS (
  SELECT *, sum(new_i) OVER (PARTITION BY user_id ORDER BY s
                             ROWS UNBOUNDED PRECEDING) AS island
  FROM uat_m),
uat_isl AS (
  SELECT user_id, island, min(s) AS s0, max(e) AS e1
  FROM uat_g GROUP BY 1, 2)
SELECT user_id, count(*)::BIGINT AS n_intervals,
       sum(e1 - s0)::BIGINT AS active_us
FROM uat_isl GROUP BY user_id ORDER BY user_id
"""


def bot_regularity_audit(events_ds, min_gaps: int = 5,
                         max_mean_gap_us: int = 60_000_000,
                         max_rvar_ppm: int = 10_000):
    """Bot-likeness audit from inter-event timing — per user:
    ``(user_id, n_events, mean_gap_us, rvar_ppm, is_bot)`` where
    rvar_ppm is the exact relative variance of consecutive gaps,
    ``10⁶ · (n·Σg² − (Σg)²) // (Σg)²``, and ``is_bot`` flags users
    with ≥ ``min_gaps`` gaps, machine-fast mean cadence and
    near-constant intervals (human traffic is bursty; schedulers
    aren't).  All arithmetic is bigint / HUGEINT exact — Σg² overflows
    int64 at day-scale gaps, so it is summed over Python ints.

    Scale shape: one ``segment_map`` on user_id; each coarse block
    reduces to one stats row per user (gaps from the user's own sorted
    timestamps — no cross-user state, no second exchange).
    """
    def stats(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, _ = _timeline(t, starts)
        g = _gaps(us, starts)
        ng = np.diff(np.append(starts, len(us))) - 1
        sg = np.add.reduceat(g, starts)
        sg2 = np.add.reduceat(g.astype(object) ** 2, starts)
        mean_gap = np.where(ng > 0, sg // np.maximum(ng, 1), 0)
        sq = sg.astype(object) ** 2
        rvar = np.where(sg > 0, 1_000_000 * (ng * sg2 - sq)
                        // np.where(sg > 0, sq, 1), 0).astype(np.int64)
        return pa.table({
            "user_id": t["user_id"].take(starts),
            "n_events": ng + 1,
            "mean_gap_us": mean_gap,
            "rvar_ppm": rvar,
            "is_bot": ((ng >= min_gaps) & (mean_gap < max_mean_gap_us)
                       & (rvar < max_rvar_ppm)).astype(np.int64)})

    return segment_map(events_ds.select_columns(["user_id", "ts"]),
                       "user_id", stats)


def bot_regularity_audit_sql(min_gaps: int = 5,
                             max_mean_gap_us: int = 60_000_000,
                             max_rvar_ppm: int = 10_000,
                             table: str = "events") -> str:
    return f"""
WITH bra_g AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts)) AS gap
  FROM {table}),
bra_s AS (
  SELECT user_id, count(*)::BIGINT AS n_events,
         count(gap)::BIGINT AS ng,
         coalesce(sum(gap), 0)::HUGEINT AS sg,
         coalesce(sum(gap::HUGEINT * gap), 0)::HUGEINT AS sg2
  FROM bra_g GROUP BY user_id),
bra_r AS (
  SELECT user_id, n_events, ng,
         CASE WHEN ng > 0 THEN (sg // ng)::BIGINT ELSE 0 END
           AS mean_gap_us,
         CASE WHEN sg > 0
              THEN ((1000000 * (ng * sg2 - sg * sg))
                    // (sg * sg))::BIGINT
              ELSE 0 END AS rvar_ppm
  FROM bra_s)
SELECT user_id, n_events, mean_gap_us, rvar_ppm,
       (ng >= {min_gaps} AND mean_gap_us < {max_mean_gap_us}
        AND rvar_ppm < {max_rvar_ppm})::BIGINT AS is_bot
FROM bra_r ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# point-in-time training features (feature backfill for label events)
# ---------------------------------------------------------------------------

def pit_training_features(events_ds):
    """Point-in-time-correct training features: for every *purchase*
    (the label event), features computed ONLY from that user's events
    strictly before the label timestamp — the feature-backfill shape a
    feature store runs when generating a training set (no future
    leakage by construction).

    Output (one row per purchase):
      * ``n_prior_events``            — all-time prior event count
      * ``prior_purchase_cents_30d``  — exact cents of prior purchases
                                        in ``[ts-30d, ts)``
      * ``n_types_7d``                — distinct event types seen in
                                        ``[ts-7d, ts)``
      * ``mins_since_prev``           — whole minutes since the user's
                                        previous event (−1 if first)

    Shape: ONE shuffle (``segment_map`` on user_id); inside each coarse
    block within-user ``searchsorted`` probes over the time-ordered
    events — O(n log n) vs the O(labels × events) band join the SQL
    twin runs.  All features are exact integers (cents, counts,
    floor-minutes), so the value hash is merge-order-free.
    """
    d30 = 30 * _US_PER_DAY
    d7 = 7 * _US_PER_DAY

    def block(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, seg = _timeline(t, starts)
        p = np.flatnonzero(_is(t, "purchase"))
        lts, lseg = us[p], seg[p]                 # label timestamps
        # all-time strictly-prior count (ties on ts excluded, matching
        # the twin's e.ts < l.ts)
        n_prior = segment_searchsorted(seg, us, lseg, lts) - starts[lseg]
        # prior purchase cents in [ts-30d, ts): prefix sums over the
        # purchases
        pcum = np.concatenate(([0], np.cumsum(_cents(t["value"])
                                              .to_numpy()[p])))
        p30 = pcum[segment_searchsorted(lseg, lts, lseg, lts)] \
            - pcum[segment_searchsorted(lseg, lts, lseg, lts - d30)]
        # distinct types in [ts-7d, ts): one presence test per type in
        # the block (type cardinality is tiny)
        ntypes = np.zeros(len(p), np.int64)
        for typ in pc.unique(t["event_type"]).to_pylist():
            m = _is(t, typ)
            ntypes += segment_searchsorted(seg[m], us[m], lseg, lts) \
                > segment_searchsorted(seg[m], us[m], lseg, lts - d7)
        # minutes since the previous event in (ts, event_id) order
        mins = np.where(p == starts[lseg], -1,
                        (lts - us[p - 1]) // _US_PER_MIN)
        return pa.table({
            "event_id": t["event_id"].take(p),
            "user_id": t["user_id"].take(p),
            "n_prior_events": n_prior,
            "prior_purchase_cents_30d": p30,
            "n_types_7d": ntypes,
            "mins_since_prev": mins})

    return segment_map(events_ds.select_columns(
        ["user_id", "ts", "event_type", "event_id", "value"]),
        "user_id", block)


def pit_training_features_sql() -> str:
    return """
WITH pit_ord AS (
  SELECT event_id, user_id, ts, event_type,
         lag(ts) OVER (PARTITION BY user_id
                       ORDER BY ts, event_id) AS prev_ts
  FROM events),
pit_labels AS (
  SELECT event_id, user_id, ts, prev_ts
  FROM pit_ord WHERE event_type = 'purchase')
SELECT l.event_id, l.user_id,
       count(e.event_id) AS n_prior_events,
       coalesce(sum(CASE WHEN e.event_type = 'purchase'
                          AND e.ts >= l.ts - INTERVAL 30 DAY
                         THEN CAST(round(e.value * 100) AS BIGINT)
                    END), 0)::BIGINT AS prior_purchase_cents_30d,
       count(DISTINCT CASE WHEN e.ts >= l.ts - INTERVAL 7 DAY
                           THEN e.event_type END) AS n_types_7d,
       CASE WHEN l.prev_ts IS NULL THEN -1
            ELSE (epoch_us(l.ts) - epoch_us(l.prev_ts)) // 60000000
       END AS mins_since_prev
FROM pit_labels l LEFT JOIN events e
  ON e.user_id = l.user_id AND e.ts < l.ts
GROUP BY l.event_id, l.user_id, l.ts, l.prev_ts
ORDER BY l.event_id
"""


# ---------------------------------------------------------------------------
# Markov next-event model: train on train-split users, eval on test
# ---------------------------------------------------------------------------

def markov_next_event_accuracy(events_ds):
    """Train/eval a first-order Markov next-event-type predictor with a
    user-level hash split (80/20 via the same Knuth hash as
    ``split_assign``, so no user leaks across sides): the predictor is
    argmax of train transition counts (ties broken by lexicographic
    next-type), scored on the test users' consecutive pairs.

    Output per prev_type seen on BOTH sides:
    (prev_type, n_pairs, n_correct, acc_ppm) — exact integers.

    Scale shape: ONE ``segment_map`` on user_id computes the ordered
    consecutive pairs and tags them train/test from the pure user_id
    hash; one ``groups.fold`` counts them into the |types|²-bounded
    (split, prev, nxt) matrix on the driver (no exchange) — the only
    thing the driver sees; argmax + accuracy finish there.
    """
    from .sample import _KNUTH, _M32

    cut = int(0.2 * _M32)   # sorted-name cuts: test < 0.2, train rest

    def block(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, _, seg = _timeline(t, starts)
        (prev, nxt), i = _ngrams(t, seg, 2)
        # uint64 wraps mod 2^64, a multiple of _M32: Python's exact
        # (uid · _KNUTH) % _M32, negative ids included
        h = t["user_id"].to_numpy()[i].astype(np.uint64) * np.uint64(_KNUTH)
        split = np.where(h % np.uint64(_M32) < cut, "test", "train")
        return pa.table({"split": pa.array(split, pa.string()),
                         "prev": prev, "nxt": nxt})

    mat = fold(segment_map(events_ds.select_columns(
        ["user_id", "ts", "event_id", "event_type"]), "user_id", block),
        ["split", "prev", "nxt"], {"cnt": ("count", None)}).to_pylist()

    train: dict[str, list] = {}
    test: dict[str, dict] = {}
    for r in mat:
        if r["split"] == "train":
            train.setdefault(r["prev"], []).append(
                (-int(r["cnt"]), r["nxt"]))
        else:
            test.setdefault(r["prev"], {})[r["nxt"]] = int(r["cnt"])
    pred = {p: min(v)[1] for p, v in train.items()}

    out = {"prev_type": [], "n_pairs": [], "n_correct": [],
           "acc_ppm": []}
    for p in sorted(set(pred) & set(test)):
        n = sum(test[p].values())
        c = test[p].get(pred[p], 0)
        out["prev_type"].append(p)
        out["n_pairs"].append(n)
        out["n_correct"].append(c)
        out["acc_ppm"].append((1_000_000 * c) // n)
    return pa.table({
        "prev_type": pa.array(out["prev_type"], pa.string()),
        "n_pairs": pa.array(out["n_pairs"], pa.int64()),
        "n_correct": pa.array(out["n_correct"], pa.int64()),
        "acc_ppm": pa.array(out["acc_ppm"], pa.int64()),
    })


def markov_next_event_accuracy_sql() -> str:
    from .sample import _KNUTH, _M32

    cut = int(0.2 * _M32)
    return f"""
WITH mk_o AS (
  SELECT user_id, event_type,
         CASE WHEN (user_id * {_KNUTH}) % {_M32} < {cut}
              THEN 'test' ELSE 'train' END AS split,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events),
mk_p AS (
  SELECT split, event_type AS prev, nxt FROM mk_o
  WHERE nxt IS NOT NULL),
mk_tr AS (
  SELECT prev, nxt, count(*) AS cnt FROM mk_p
  WHERE split = 'train' GROUP BY prev, nxt),
mk_pred AS (
  SELECT prev, nxt AS pred FROM (
    SELECT prev, nxt, row_number() OVER (
      PARTITION BY prev ORDER BY cnt DESC, nxt) AS rn
    FROM mk_tr) WHERE rn = 1),
mk_te AS (
  SELECT prev, nxt, count(*) AS cnt FROM mk_p
  WHERE split = 'test' GROUP BY prev, nxt),
mk_a AS (
  SELECT t.prev, sum(t.cnt) AS n_pairs,
         coalesce(sum(CASE WHEN t.nxt = pr.pred THEN t.cnt END), 0)
           AS n_correct
  FROM mk_te t JOIN mk_pred pr ON pr.prev = t.prev
  GROUP BY t.prev)
SELECT prev AS prev_type, n_pairs::BIGINT AS n_pairs,
       n_correct::BIGINT AS n_correct,
       ((1000000 * n_correct) // n_pairs)::BIGINT AS acc_ppm
FROM mk_a ORDER BY prev_type
"""


def stickiness_dau_mau(events_ds):
    """Per-calendar-month DAU/MAU stickiness — the engagement ratio
    every growth dashboard tracks: ``(mon, n_active_days, sum_dau,
    mau, stickiness_ppm)`` with
    ``stickiness_ppm = 10⁶·Σ_day DAU(day) // (n_active_days · MAU)``
    (mean daily actives over monthly actives, exact integers; months
    indexed as ``year·12 + month − 1``).

    Scale shape: both inputs are batch-deduped distinct (user, day) /
    (user, mon) rows into native groupbys — the exchanges carry
    per-batch-distinct 16-byte int pairs, and every rollup after that
    is calendar-bounded.
    """
    from ray.data.aggregate import Count, Sum

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["ts"], pa.timestamp("us"))
        day = pc.divide(pc.cast(ts, pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        mon = pc.add(pc.multiply(pc.cast(pc.year(ts), pa.int64()),
                                 pa.scalar(12, pa.int64())),
                     pc.cast(pc.subtract(pc.month(ts), 1), pa.int64()))
        b = pa.table({"user_id": t["user_id"], "day": day, "mon": mon})
        return b.group_by(["user_id", "day", "mon"],
                          use_threads=False).aggregate([]) \
            .select(["user_id", "day", "mon"])

    ud = events_ds.select_columns(["user_id", "ts"]) \
        .map_batches(prep, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()

    dau = ud.groupby(["user_id", "day", "mon"]).aggregate(Count()) \
        .groupby(["day", "mon"]).aggregate(Count(alias_name="dau")) \
        .groupby("mon").aggregate(Sum("dau", alias_name="sum_dau"),
                                  Count(alias_name="n_active_days")) \
        .take_all()
    mau = {r["mon"]: r["mau"] for r in
           ud.groupby(["user_id", "mon"]).aggregate(Count())
           .groupby("mon").aggregate(Count(alias_name="mau"))
           .take_all()}
    mons = sorted(r["mon"] for r in dau)
    by = {r["mon"]: r for r in dau}
    return pa.table({
        "mon": pa.array(mons, pa.int64()),
        "n_active_days": pa.array(
            [int(by[m]["n_active_days"]) for m in mons], pa.int64()),
        "sum_dau": pa.array([int(by[m]["sum_dau"]) for m in mons],
                            pa.int64()),
        "mau": pa.array([int(mau[m]) for m in mons], pa.int64()),
        "stickiness_ppm": pa.array(
            [(1_000_000 * int(by[m]["sum_dau"]))
             // (int(by[m]["n_active_days"]) * int(mau[m]))
             for m in mons], pa.int64()),
    })


def stickiness_dau_mau_sql() -> str:
    return """
WITH st_ud AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day,
         year(ts) * 12 + month(ts) - 1 AS mon
  FROM events),
st_dau AS (
  SELECT mon, day, count(DISTINCT user_id) AS dau
  FROM st_ud GROUP BY mon, day),
st_m AS (
  SELECT mon, sum(dau) AS sum_dau, count(*) AS n_active_days
  FROM st_dau GROUP BY mon),
st_mau AS (
  SELECT mon, count(DISTINCT user_id) AS mau FROM st_ud GROUP BY mon)
SELECT m.mon, m.n_active_days::BIGINT AS n_active_days,
       m.sum_dau::BIGINT AS sum_dau, u.mau::BIGINT AS mau,
       ((1000000 * m.sum_dau) // (m.n_active_days * u.mau))::BIGINT
         AS stickiness_ppm
FROM st_m m JOIN st_mau u ON u.mon = m.mon ORDER BY m.mon
"""


def peak_user_rate(events_ds, window_min: int = 60, cap: int = 20):
    """Per-user peak request rate over ANY sliding window (not just
    aligned ones): the maximum number of events inside a half-open
    ``window_min``-minute window ending at one of the user's events —
    the rate-limiter / abuse-throttle audit.  Output: (user_id,
    n_events, peak_in_window, over_cap).

    Scale shape: one ``segment_map`` on user_id; inside each coarse
    block one within-user ``searchsorted`` of each event's window start
    into the sorted timestamps — O(n log n) vs the O(n²) band join the
    twin runs.  The sliding maximum equals the maximum over
    event-ENDING windows because any window's count is dominated by
    the one ending at its last contained event.
    """
    win = window_min * _US_PER_MIN

    def block(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, seg = _timeline(t, starts)
        lo = segment_searchsorted(seg, us, seg, us - win + 1)
        peak = np.maximum.reduceat(np.arange(len(us)) - lo + 1, starts)
        return pa.table({
            "user_id": t["user_id"].take(starts),
            "n_events": np.diff(np.append(starts, len(us))),
            "peak_in_window": peak,
            "over_cap": (peak > cap).astype(np.int64)})

    return segment_map(events_ds.select_columns(["user_id", "ts"]),
                       "user_id", block)


def peak_user_rate_sql(window_min: int = 60, cap: int = 20) -> str:
    return f"""
WITH pur_w AS (
  SELECT a.user_id, a.event_id, count(*) AS c
  FROM events a JOIN events b
    ON b.user_id = a.user_id
   AND b.ts > a.ts - INTERVAL {window_min} MINUTE AND b.ts <= a.ts
  GROUP BY a.user_id, a.event_id)
SELECT user_id, count(*) AS n_events,
       max(c)::BIGINT AS peak_in_window,
       (max(c) > {cap})::BIGINT AS over_cap
FROM pur_w GROUP BY user_id ORDER BY user_id
"""


def streaming_emit_audit(events_ds, lateness_min: int = 30):
    """What an event-time streaming engine WOULD have emitted vs the
    batch truth: each event's ARRIVAL time is its event time plus a
    deterministic md5-jitter of up to 2 h (simulated network delay —
    the raw log arrives in perfect event-time order, which would make
    the audit vacuous), the watermark is the exclusive running
    event-time max over arrival order, and a row of tumbling hour
    window ``w`` is ON-TIME if it arrives before the watermark passes
    ``w_end``, LATE-BUT-INCLUDED while the watermark is within
    ``w_end + lateness``, and DROPPED after that — the allowed-lateness
    accounting every streaming job configures.  Output per window:
    (whour, n_on_time, n_late_included, n_dropped, batch_count).

    Scale shape: the late_event_audit scan over ARRIVAL-hour buckets —
    a max ``groups.prefix_scan`` in (arrival, event_id) order whose
    kernel emits one Arrow partial row per (coarse block, window); the
    driver folds those (windows are bounded by the log's hour span).
    No global sort.
    """
    from .dedup import _md5_60

    late_us = lateness_min * _US_PER_MIN

    def prep(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(t["ts"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        jitter = np.array([_md5_60(f"arr{int(i)}".encode()) % 7200
                           for i in ids], np.int64) * 1_000_000
        arrival = ts_us + jitter
        return pa.table({
            "event_id": pa.array(ids, pa.int64()),
            "ts_us": pa.array(ts_us, pa.int64()),
            "arrival": pa.array(arrival, pa.int64()),
            "bucket": pa.array(arrival // _US_PER_HOUR, pa.int64())})

    def partials(t: pa.Table, before: np.ndarray) -> pa.Table:
        ts = t["ts_us"].to_numpy()
        run = _watermark(before, ts)
        whour = ts // _US_PER_HOUR
        wend = (whour + 1) * _US_PER_HOUR
        dropped = run >= wend + late_us
        late_inc = ~dropped & (run >= wend)
        return pa.table({
            "whour": pa.array(whour, pa.int64()),
            "n_on_time": pa.array(~dropped & ~late_inc).cast(pa.int64()),
            "n_late_included": pa.array(late_inc).cast(pa.int64()),
            "n_dropped": pa.array(dropped).cast(pa.int64())}) \
            .group_by("whour").aggregate([
                ("n_on_time", "sum"), ("n_late_included", "sum"),
                ("n_dropped", "sum")])

    out = _watermark_partials(
        events_ds, ["event_id", "ts"], prep, ["arrival", "event_id"],
        partials).group_by("whour").aggregate([
            ("n_on_time_sum", "sum"), ("n_late_included_sum", "sum"),
            ("n_dropped_sum", "sum")]).sort_by("whour")
    counts = {c: out[f"{c}_sum_sum"]
              for c in ("n_on_time", "n_late_included", "n_dropped")}
    return pa.table({"whour": out["whour"], **counts,
                     "batch_count": pc.add(pc.add(counts["n_on_time"],
                                                  counts["n_late_included"]),
                                           counts["n_dropped"])})


def streaming_emit_audit_sql(lateness_min: int = 30) -> str:
    hr_us = 3_600_000_000
    late_us = lateness_min * 60_000_000
    return f"""
WITH sea_a AS (
  SELECT event_id, epoch_us(ts) AS ts_us,
         epoch_us(ts)
           + (('0x' || substr(md5('arr' || event_id), 1, 15))::BIGINT
              % 7200) * 1000000 AS arrival
  FROM events),
sea AS (
  SELECT ts_us,
         max(ts_us) OVER (ORDER BY arrival, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM sea_a),
sea_s AS (
  SELECT ts_us // {hr_us} AS whour,
         CASE WHEN wm IS NULL THEN 'on_time'
              WHEN wm >= (ts_us // {hr_us} + 1) * {hr_us} + {late_us}
                THEN 'dropped'
              WHEN wm >= (ts_us // {hr_us} + 1) * {hr_us}
                THEN 'late'
              ELSE 'on_time' END AS status
  FROM sea)
SELECT whour,
       sum((status = 'on_time')::BIGINT)::BIGINT AS n_on_time,
       sum((status = 'late')::BIGINT)::BIGINT AS n_late_included,
       sum((status = 'dropped')::BIGINT)::BIGINT AS n_dropped,
       count(*)::BIGINT AS batch_count
FROM sea_s GROUP BY whour ORDER BY whour
"""


def conversion_delay_percentiles(events_ds):
    """Funnel-latency distribution: for every purchase with a prior
    click by the same user, the delay to the MOST RECENT prior click
    (exact floor seconds), rolled into per-purchase-isodow p50/p90
    order statistics under the verified 1-based ``ceil(q·n)``
    quantile_disc rule.  Output: (dow, n_pairs, p50_s, p90_s).

    Scale shape: the as-of backward match is one within-user
    ``searchsorted`` per coarse user block (``segment_map``); the
    quantile input is a (dow, delay_s) COUNT histogram — bounded by the
    corpus time span in seconds × 7, never the corpus — finished on the
    driver.
    """
    from ray.data.aggregate import Count

    def block(t: pa.Table, starts: np.ndarray) -> pa.Table:
        t, us, seg = _timeline(t, starts)
        p, c = np.flatnonzero(_is(t, "purchase")), \
            np.flatnonzero(_is(t, "click"))
        # the most recent click strictly before each purchase, if the
        # user has one (-1 picks the sentinel segment)
        idx = segment_searchsorted(seg[c], us[c], seg[p], us[p]) - 1
        k = np.append(seg[c], -1)[idx] == seg[p]
        pts = us[p[k]]
        dow = pc.day_of_week(pa.array(pts, pa.timestamp("us")),
                             count_from_zero=False, week_start=1)
        return pa.table({"dow": pc.cast(dow, pa.int64()),
                         "delay_s": (pts - us[c[idx[k]]]) // 1_000_000})

    hist = segment_map(events_ds.select_columns(
        ["user_id", "ts", "event_type", "event_id"]), "user_id", block) \
        .groupby(["dow", "delay_s"]) \
        .aggregate(Count(alias_name="n")).take_all()
    per: dict[int, list[tuple[int, int]]] = {}
    for r in hist:
        per.setdefault(int(r["dow"]), []).append(
            (int(r["delay_s"]), int(r["n"])))
    out = {"dow": [], "n_pairs": [], "p50_s": [], "p90_s": []}
    for dow in sorted(per):
        h = sorted(per[dow])
        n = sum(c for _, c in h)
        cum = np.cumsum([c for _, c in h])
        vals = [v for v, _ in h]

        def q_at(rank1):                      # 1-based order statistic
            return vals[int(np.searchsorted(cum, rank1, side="left"))]

        out["dow"].append(dow)
        out["n_pairs"].append(n)
        out["p50_s"].append(q_at((n + 1) // 2))
        out["p90_s"].append(q_at((9 * n + 9) // 10))
    return pa.table({k: pa.array(v, pa.int64())
                     for k, v in out.items()})


def conversion_delay_percentiles_sql() -> str:
    return """
WITH cdp_p AS (
  SELECT p.event_id, p.user_id, p.ts, isodow(p.ts) AS dow,
         max(c.ts) AS last_click
  FROM events p JOIN events c
    ON c.user_id = p.user_id AND c.event_type = 'click'
   AND c.ts < p.ts
  WHERE p.event_type = 'purchase'
  GROUP BY p.event_id, p.user_id, p.ts),
cdp_d AS (
  SELECT dow,
         (epoch_us(ts) - epoch_us(last_click)) // 1000000 AS delay_s
  FROM cdp_p),
cdp_r AS (
  SELECT dow, delay_s,
         row_number() OVER (PARTITION BY dow ORDER BY delay_s) AS rk,
         count(*) OVER (PARTITION BY dow) AS n
  FROM cdp_d)
SELECT dow::BIGINT AS dow, any_value(n)::BIGINT AS n_pairs,
       max(CASE WHEN rk = (n + 1) // 2 THEN delay_s END)::BIGINT
         AS p50_s,
       max(CASE WHEN rk = (9 * n + 9) // 10 THEN delay_s END)::BIGINT
         AS p90_s
FROM cdp_r GROUP BY dow ORDER BY dow
"""
