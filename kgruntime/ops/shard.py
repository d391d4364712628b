"""Token-budget sharding — a distributed prefix scan.

Packing a training corpus into fixed token-budget shards needs the
global cumulative token count in ``doc_id`` order: doc *d*'s shard is
``floor(tokens_before(d) / budget)``.  A naive window over the whole
corpus would serialize on one node; the scale shape is the two-phase
scan of ``groups.prefix_scan`` over ``bucket = doc_id // _SCAN_BUCKET``:
one native per-bucket token sum (the shuffle carries one row per
*bucket*, not per doc), exclusive offsets on the driver, and one
vectorized segment kernel that finishes every bucket of a coarse
block.  Every step is exact integer arithmetic, so retries / resume
reproduce identical shard assignments.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .groups import collect, prefix_scan, run_starts, segment_map

_TOKEN_RE = r"\S+"
_SCAN_BUCKET = 4096       # docs per prefix-scan bucket (doc_id range)


def _n_tokens(text):
    """Whitespace token count via the Arrow regex kernel (same semantics
    as ``ops/text.py:token_stats``)."""
    trimmed = pc.utf8_trim_whitespace(text)
    return pc.if_else(
        pc.equal(trimmed, ""), pa.scalar(0, pa.int64()),
        pc.cast(pc.count_substring_regex(trimmed, _TOKEN_RE), pa.int64()))


def token_counts(batch: pa.Table, bucket_size: int) -> pa.Table:
    """(doc_id, n_tokens, bucket) — ``bucket = doc_id // bucket_size``."""
    bucket = pc.divide(batch["doc_id"], pa.scalar(bucket_size, pa.int64()))
    return pa.Table.from_arrays(
        [batch["doc_id"], _n_tokens(batch["text"]), bucket],
        names=["doc_id", "n_tokens", "bucket"])


def _token_scan(docs_ds, fn):
    """``fn(block, tokens_before)`` over the docs' token counts in
    doc_id order — the scan both sharding ops run."""
    return prefix_scan(docs_ds.select_columns(["doc_id", "text"]),
                       partial(token_counts, bucket_size=_SCAN_BUCKET),
                       "bucket", ["doc_id"], "n_tokens", np.add, fn)


def token_budget_shards(docs_ds, budget: int = 2000):
    """Assign each doc to the shard containing its global token start
    offset (docs ordered by ``doc_id``): ``shard_id =
    (cumsum(n_tokens) - n_tokens) // budget``.

    Returns a Dataset of (doc_id, n_tokens, shard_id).  Mirrors the
    ``sum(...) OVER (ORDER BY doc_id)`` window oracle exactly.

    Scale shape: one ``prefix_scan`` (2 exchanges: the per-bucket sum
    and the segment kernel); the kernel divides each doc's global
    token start by the budget.
    """
    def shards(t: pa.Table, before: np.ndarray) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "n_tokens": t["n_tokens"],
                         "shard_id": pa.array(before // budget, pa.int64())})

    return _token_scan(docs_ds, shards)


def token_budget_shards_sql(budget: int = 2000,
                            table: str = "documents") -> str:
    """DuckDB oracle: the identical integer window arithmetic."""
    return rf"""
WITH tok AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+'))
         END AS n_tokens
  FROM {table})
SELECT doc_id, n_tokens,
       ((sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
         - n_tokens) // {budget})::BIGINT AS shard_id
FROM tok ORDER BY doc_id
"""


def _pack(t: pa.Table, starts: np.ndarray, sep: str) -> pa.Table:
    """One packed row per shard segment of a ``segment_map`` block: its
    docs' texts joined in doc_id order."""
    t = t.take(pc.sort_indices(t, sort_keys=[("shard_id", "ascending"),
                                              ("doc_id", "ascending")]))
    bounds = np.append(starts, t.num_rows)
    texts = pa.ListArray.from_arrays(pa.array(bounds, pa.int32()),
                                     t["text"].combine_chunks())
    n_tokens = t["n_tokens"].to_numpy()
    return pa.table({
        "shard_id": t["shard_id"].take(pa.array(starts)),
        "n_docs": pa.array(np.diff(bounds), pa.int64()),
        "n_tokens": pa.array(np.add.reduceat(n_tokens, starts),
                             pa.int64()),
        "packed": pc.binary_join(texts, sep)})


def pack_sequences(docs_ds, budget: int = 2000, sep: str = " "):
    """Pack the corpus into fixed token-budget training sequences:
    every shard's docs concatenated in doc_id order —
    (shard_id, n_docs, n_tokens, packed).

    Text crosses exactly ONE exchange.  The prefix scan runs text-free
    (``groups.prefix_scan`` over the token counts, 2 exchanges) and
    emits only the shard BOUNDARY docs.  Shard assignment is a
    monotone step function of doc_id, so the collected boundary table —
    one (shard_id, start_doc) row per shard — lets every map task tag
    its text rows locally (binary search over the broadcast array), and
    the tagged text goes straight into one ``segment_map(shard_id)``
    whose kernel packs every shard of a coarse block with one
    ``binary_join`` over a list array cut at the shard starts.

    Broadcast state is one int pair per shard (total_tokens / budget
    entries — ~8 bytes where each shard's text is ~budget tokens).
    Escape hatch at 10^11+ shards: range-partition the boundary array
    by doc_id and look up per-block slices.
    """
    import ray
    import ray.data as rd

    from ..stages.broadcast import cached_get

    def boundaries(t: pa.Table, before: np.ndarray) -> pa.Table:
        # the first doc per (bucket, shard) run: the first doc of each
        # bucket too, since it may continue the previous bucket's shard
        s = before // budget
        first = run_starts(s, t["bucket"].to_numpy())
        return pa.table({"shard_id": pa.array(s[first], pa.int64()),
                         "start_doc": t["doc_id"].to_numpy()[first]})

    bnd = collect(_token_scan(docs_ds, boundaries))
    if bnd is None or bnd.num_rows == 0:
        return rd.from_arrow(_pack(pa.table({
            "shard_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "text": pa.array([], pa.string())}), np.zeros(0, np.int64), sep))
    bnd = bnd.sort_by([("shard_id", "ascending"), ("start_doc", "ascending")])
    first = run_starts(bnd["shard_id"].to_numpy())
    # shard ids increase with doc ids, so both arrays are ascending
    bnd_ref = ray.put((bnd["start_doc"].to_numpy()[first],
                       bnd["shard_id"].to_numpy()[first]))

    def tag(t: pa.Table) -> pa.Table:
        start_docs, shard_ids = cached_get(
            bnd_ref, tag="pack_sequences-boundaries")
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(start_docs, d, side="right") - 1
        return pa.Table.from_arrays(
            [pa.array(shard_ids[idx], pa.int64()), t["doc_id"],
             _n_tokens(t["text"]), t["text"]],
            names=["shard_id", "doc_id", "n_tokens", "text"])

    return segment_map(
        docs_ds.select_columns(["doc_id", "text"]).map_batches(
            tag, batch_format="pyarrow", zero_copy_batch=True),
        "shard_id", partial(_pack, sep=sep))


def pack_sequences_sql(budget: int = 2000, sep: str = " ",
                       table: str = "documents") -> str:
    """DuckDB oracle: identical window arithmetic + ordered string_agg."""
    return rf"""
WITH tok AS (
  SELECT doc_id, text,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+'))
         END AS n_tokens
  FROM {table}),
sh AS (
  SELECT doc_id, text, n_tokens,
         ((sum(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           - n_tokens) // {budget})::BIGINT AS shard_id
  FROM tok)
SELECT shard_id, count(*) AS n_docs, sum(n_tokens)::BIGINT AS n_tokens,
       string_agg(text, '{sep}' ORDER BY doc_id) AS packed
FROM sh GROUP BY shard_id ORDER BY shard_id
"""


def padding_waste(docs_ds, max_len: int = 4096):
    """Padding-waste audit for length-bucketed batching: every sequence
    pads up to the smallest power-of-two bucket ≥ its token count
    (capped at ``max_len``, longer docs truncate; empty docs emit no
    sequence) — the standard question before picking training bucket
    boundaries.  Returns one row per bucket:
    ``(bucket_cap, n_docs, total_tokens, padded_tokens, waste_ppm)``
    with waste_ppm = padded · 10⁶ // (padded + total), all exact int64.

    Scale shape: a per-batch combiner groups its own rows by bucket
    (≤ log₂(max_len) partial rows per batch cross the exchange), then
    ONE tiny groupby-sum.  The bucket cap uses the exact bit-smear
    next-pow2, never float log2.
    """
    from ray.data.aggregate import Sum

    def _next_pow2(n: np.ndarray) -> np.ndarray:
        v = (n - 1).astype(np.int64)
        for sh in (1, 2, 4, 8, 16, 32):
            v |= v >> sh
        return v + 1

    def partial(batch: pa.Table) -> pa.Table:
        n = _n_tokens(batch["text"]).to_numpy(zero_copy_only=False)
        n = np.minimum(n[n > 0], max_len)
        if len(n) == 0:
            return pa.table({"bucket_cap": pa.array([], pa.int64()),
                             "n_docs": pa.array([], pa.int64()),
                             "total_tokens": pa.array([], pa.int64()),
                             "padded_tokens": pa.array([], pa.int64())})
        cap = _next_pow2(n)
        order = np.argsort(cap, kind="stable")
        cap_s, n_s = cap[order], n[order]
        uniq, starts = np.unique(cap_s, return_index=True)
        ends = np.append(starts[1:], len(cap_s))
        tot = np.add.reduceat(n_s, starts)
        cnt = (ends - starts).astype(np.int64)
        return pa.table({
            "bucket_cap": pa.array(uniq, pa.int64()),
            "n_docs": pa.array(cnt, pa.int64()),
            "total_tokens": pa.array(tot, pa.int64()),
            "padded_tokens": pa.array(uniq * cnt - tot, pa.int64())})

    agg = docs_ds.select_columns(["text"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket_cap").aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_tokens", alias_name="total_tokens"),
            Sum("padded_tokens", alias_name="padded_tokens"))

    def finish(t: pa.Table) -> pa.Table:
        tot = t["total_tokens"].to_numpy(zero_copy_only=False)
        pad = t["padded_tokens"].to_numpy(zero_copy_only=False)
        ppm = pad * 1_000_000 // np.maximum(pad + tot, 1)
        return t.append_column("waste_ppm", pa.array(ppm, pa.int64()))

    return agg.map_batches(finish, batch_format="pyarrow")


def padding_waste_sql(max_len: int = 4096,
                      table: str = "documents") -> str:
    """SQL twin: the power-of-two caps come from a generated series (no
    float log2), same truncation/empty-doc rules, same integer ppm."""
    log2_max = max(1, (max_len - 1).bit_length())
    return f"""
WITH pw_caps AS (
  SELECT (1::BIGINT << i) AS cap
  FROM (SELECT unnest(range(0, {log2_max + 1})) AS i)),
pw_n AS (
  SELECT least(CASE WHEN trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\\s+'))
               END, {max_len}) AS n
  FROM {table}),
pw_b AS (
  SELECT n, (SELECT min(cap) FROM pw_caps WHERE cap >= pw_n.n) AS cap
  FROM pw_n WHERE n > 0),
pw_g AS (
  SELECT cap AS bucket_cap, count(*)::BIGINT AS n_docs,
         sum(n)::BIGINT AS total_tokens,
         (sum(cap) - sum(n))::BIGINT AS padded_tokens
  FROM pw_b GROUP BY cap)
SELECT bucket_cap, n_docs, total_tokens, padded_tokens,
       (padded_tokens * 1000000
        // greatest(padded_tokens + total_tokens, 1))::BIGINT
         AS waste_ppm
FROM pw_g ORDER BY bucket_cap
"""


# ---------------------------------------------------------------------------
# curriculum ordering
# ---------------------------------------------------------------------------

_RANK_BITS = 6            # curriculum_order's hash-range buckets per stratum


def curriculum_order(docs_ds, n_strata: int = 10, n_shards: int = 8,
                     seed: int = 29):
    """Deterministic curriculum arrangement for training: docs are
    stratified into length deciles (the value_deciles bucketing),
    shuffled WITHIN each stratum by a seeded md5 order, and interleaved
    round-robin across strata — ``pos = rank_in_stratum · n_strata +
    stratum`` is a strict total-order key under which every consecutive
    window mixes all strata (no length-sorted drift), yet the whole
    arrangement is reproducible and SQL-replayable.  Output:
    ``(doc_id, stratum, pos, shard_id)`` with ``shard_id = pos %
    n_shards`` (round-robin shards inherit the stratum mix).

    Scale shape: NO global sort.  The rank is a ``groups.prefix_scan``
    count over ``bucket = stratum · 2^_RANK_BITS + the hash's top
    _RANK_BITS bits`` (range buckets are order-aligned with the md5
    shuffle order), so a doc's global count ``before`` is the docs of
    lower strata plus its rank in its own stratum; the lower strata's
    counts come from the stratum histogram.  The length-decile map is
    that distinct-value histogram, broadcast.
    """
    import ray
    from ray.data.aggregate import Count

    from .dedup import _md5_60
    from ..stages.broadcast import cached_get

    # --- stratum map: distinct n_chars histogram → decile buckets ---
    hist = collect(docs_ds.groupby("n_chars").aggregate(
        Count(alias_name="n")))
    hist = hist.sort_by("n_chars") if hist is not None else pa.table(
        {"n_chars": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
    vals = hist["n_chars"].to_numpy()
    cnt = hist["n"].to_numpy()
    buckets = (n_strata * (np.cumsum(cnt) - cnt)) // max(int(cnt.sum()), 1)
    strat_ref = ray.put((vals, buckets))
    # docs in the strata below each stratum
    lower = np.zeros(n_strata + 1, np.int64)
    np.add.at(lower, buckets + 1, cnt)
    lower = np.cumsum(lower)
    shift, rank_bits = 60 - _RANK_BITS, _RANK_BITS

    def prep(t: pa.Table) -> pa.Table:
        sv, sb = cached_get(strat_ref, tag="curriculum_order-strata")
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        stratum = sb[np.searchsorted(sv, t["n_chars"].to_numpy(
            zero_copy_only=False))]
        h = np.fromiter((_md5_60(f"{seed}:{d}".encode()) for d in ids),
                        np.int64, len(ids))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "h": pa.array(h, pa.int64()),
                         "bucket": pa.array((stratum << rank_bits)
                                            | (h >> shift), pa.int64()),
                         "one": pa.array(np.ones(len(ids), np.int64))})

    def positions(t: pa.Table, before: np.ndarray) -> pa.Table:
        stratum = t["bucket"].to_numpy() >> rank_bits
        pos = (before - lower[stratum]) * n_strata + stratum
        return pa.table({"doc_id": t["doc_id"],
                         "stratum": pa.array(stratum, pa.int64()),
                         "pos": pa.array(pos, pa.int64()),
                         "shard_id": pa.array(pos % n_shards, pa.int64())})

    return prefix_scan(docs_ds.select_columns(["doc_id", "n_chars"]), prep,
                       "bucket", ["h", "doc_id"], "one", np.add, positions)


def curriculum_order_sql(n_strata: int = 10, n_shards: int = 8,
                         seed: int = 29,
                         table: str = "documents") -> str:
    """Oracle twin: the value_deciles bucket window + a per-stratum
    row_number over the identical md5 order."""
    return f"""
WITH cur_c AS (
  SELECT n_chars AS v, count(*) AS cnt FROM {table} GROUP BY v),
cur_b AS (
  SELECT v, (({n_strata} * (sum(cnt) OVER (ORDER BY v) - cnt))
             // (SELECT count(*) FROM {table}))::BIGINT AS stratum
  FROM cur_c),
cur_h AS (
  SELECT d.doc_id, b.stratum,
         ('0x' || substr(md5('{seed}:' || d.doc_id), 1, 15))::BIGINT
           AS h
  FROM {table} d JOIN cur_b b ON d.n_chars = b.v),
cur_r AS (
  SELECT doc_id, stratum,
         row_number() OVER (PARTITION BY stratum
                            ORDER BY h, doc_id) - 1 AS rnk
  FROM cur_h)
SELECT doc_id, stratum,
       (rnk * {n_strata} + stratum)::BIGINT AS pos,
       ((rnk * {n_strata} + stratum) % {n_shards})::BIGINT AS shard_id
FROM cur_r ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# range-partition planner (balanced sort/shuffle boundary planning)
# ---------------------------------------------------------------------------

_RPP_SENTINEL = 1 << 62


def range_partition_planner(events_ds, k: int = 8, sample_n: int = 200):
    """Plan balanced RANGE-partition boundaries for a sort key (event
    value in exact cents) from a deterministic sample, then VALIDATE
    the plan with exact per-range counts — the boundary-planning step
    a distributed sort/range-shuffle runs before moving any data.

    Sample: the ``sample_n`` events with the smallest
    ``md5-60(event_id)`` (hash order ≈ uniform, retry/resume-stable —
    the reservoir idiom).  Boundaries: the sample's k-quantiles under
    the verified 1-based ``ceil(q·n)`` ``quantile_disc`` rule.

    Output per planned range: (bucket, upper_cents — 2^62 sentinel for
    the last, n_rows, skew_ppm) where skew_ppm is the exact signed
    deviation of ``n_rows·k`` from the uniform share, in ppm.

    Scale shape: the sample is a per-batch local-min-k prune
    (≤ sample_n rows per block to the driver); boundaries (k−1 ints)
    broadcast back; validation is one vectorized ``searchsorted``
    bucketize pass pre-aggregated per batch (k rows per block) into a
    tiny groupby — the corpus never shuffles; that is the point of
    planning before sorting.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .dedup import _md5_60

    def cents_of(t: pa.Table):
        v = pc.multiply(t["value"], 100.0)
        return pc.cast(pc.round(v, round_mode="half_towards_infinity"),
                       pa.int64())

    def local_sample(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        h = np.array([_md5_60(str(int(i)).encode()) for i in ids],
                     np.int64)
        c = cents_of(t).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))[:sample_n]
        return pa.table({"h": pa.array(h[order], pa.int64()),
                         "event_id": pa.array(ids[order], pa.int64()),
                         "cents": pa.array(c[order], pa.int64())})

    cand = events_ds.select_columns(["event_id", "value"]) \
        .map_batches(local_sample, batch_format="pyarrow",
                     zero_copy_batch=True).take_all()
    cand.sort(key=lambda r: (r["h"], r["event_id"]))
    sample = sorted(int(r["cents"]) for r in cand[:sample_n])
    n = len(sample)
    if n == 0:                      # empty input: nothing to plan
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "upper_cents": pa.array([], pa.int64()),
                         "n_rows": pa.array([], pa.int64()),
                         "skew_ppm": pa.array([], pa.int64())})
    # quantile_disc boundaries: 1-based ceil(q·n) (decile_lift rule);
    # ceil as (a+k-1)//k with positive operands, because DuckDB's //
    # truncates (the int8-twin lesson) while Python's floors
    bounds = [sample[(i * n + k - 1) // k - 1] for i in range(1, k)]
    b_arr = np.array(bounds, np.int64)

    def bucketize(t: pa.Table) -> pa.Table:
        c = cents_of(t).to_numpy(zero_copy_only=False)
        bk = np.searchsorted(b_arr, c, side="right")
        cnt = np.bincount(bk, minlength=k)
        return pa.table({"bucket": pa.array(np.arange(k), pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    rows = events_ds.select_columns(["event_id", "value"]) \
        .map_batches(bucketize, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").aggregate(Sum("n", alias_name="n")) \
        .take_all()
    per = {int(r["bucket"]): int(r["n"]) for r in rows}
    total = sum(per.values())
    return pa.table({
        "bucket": pa.array(range(k), pa.int64()),
        "upper_cents": pa.array(bounds + [_RPP_SENTINEL], pa.int64()),
        "n_rows": pa.array([per.get(b, 0) for b in range(k)],
                           pa.int64()),
        "skew_ppm": pa.array(
            [(1_000_000 * per.get(b, 0) * k) // total - 1_000_000
             for b in range(k)], pa.int64()),
    })


def range_partition_planner_sql(k: int = 8, sample_n: int = 200) -> str:
    return f"""
WITH rpp_c AS (
  SELECT event_id, CAST(round(value * 100) AS BIGINT) AS cents,
         ('0x' || substr(md5(event_id::VARCHAR), 1, 15))::BIGINT AS h
  FROM events),
rpp_s AS (
  SELECT cents FROM rpp_c ORDER BY h, event_id LIMIT {sample_n}),
rpp_r AS (
  SELECT cents, row_number() OVER (ORDER BY cents) AS rn,
         count(*) OVER () AS n
  FROM rpp_s),
rpp_b AS (
  SELECT i.i AS bno, min(r.cents) AS b
  FROM (SELECT unnest(range(1, {k})) AS i) i
  JOIN rpp_r r ON r.rn = (i.i * r.n + {k} - 1) // {k}
  GROUP BY i.i),
rpp_k AS (
  SELECT c.event_id,
         (SELECT count(*) FROM rpp_b WHERE rpp_b.b <= c.cents)
           AS bucket
  FROM rpp_c c),
rpp_n AS (
  SELECT g.i AS bucket, count(k.event_id) AS n
  FROM (SELECT unnest(range(0, {k})) AS i) g
  LEFT JOIN rpp_k k ON k.bucket = g.i
  GROUP BY g.i),
rpp_t AS (SELECT sum(n) AS total FROM rpp_n)
SELECT n.bucket, coalesce(b.b, {_RPP_SENTINEL}) AS upper_cents,
       n.n::BIGINT AS n_rows,
       ((1000000 * n.n * {k}) // t.total - 1000000)::BIGINT AS skew_ppm
FROM rpp_n n
LEFT JOIN rpp_b b ON b.bno = n.bucket + 1
CROSS JOIN rpp_t t
ORDER BY n.bucket
"""


# ---------------------------------------------------------------------------
# Z-order layout pruning audit
# ---------------------------------------------------------------------------

def _interleave16(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """16-bit Morton code from two 8-bit keys (u odd bits, d even)."""
    z = np.zeros_like(u)
    for b in range(8):
        z |= (((u >> b) & 1) << (2 * b + 1)) | (((d >> b) & 1) << (2 * b))
    return z


def zorder_layout_audit(events_ds, n_files: int = 32,
                        d_lo: int = 0, d_hi: int = 2,
                        u_lo: int = 0, u_hi: int = 31):
    """Data-layout audit: how much file pruning a Z-ORDER (Morton)
    clustering of (user_id, day) buys over insertion order for a
    TWO-dimensional scan (``user in [u_lo,u_hi] AND relative day in
    [d_lo,d_hi]``) — the decision every lakehouse OPTIMIZE/ZORDER call
    makes.  Both layouts assign each event to one of ``n_files`` files
    (insertion: even event_id ranges; zorder: ROW-BALANCED Morton-code
    ranges — the exact 16-bit z histogram is code-bounded (≤ 65536
    rows), so balanced boundaries come from its prefix counts with NO
    row sort: ``file(z) = rows_before(z) · n_files // total``, a pure
    function of z on both engines); per file the pruner keeps
    min/max of BOTH query columns and a file is SCANNED iff both
    [min,max] intervals intersect the query box.

    Output per layout: (layout, n_files_used, files_scanned,
    rows_in_scanned, rows_matched, scan_ppm) — scan_ppm the exact share
    of rows a pruned reader still touches.  Insertion order correlates
    with time only, so it prunes the day dimension; z-order trades a
    little day locality for user locality and prunes the box.

    Scale shape: ONE streamed pass emits per-batch (layout, file,
    min/max day, min/max user, n_rows, n_match) partials — 2·n_files
    rows per block — into a bounded groupby; the driver folds
    ≤ 2·n_files rows.  Day indexes are rebased on the corpus min day
    (one tiny aggregate) so the window is position-independent.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    def day_of(t: pa.Table):
        return pc.divide(
            pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(86_400_000_000, pa.int64()))

    base = events_ds.select_columns(["ts"]).map_batches(
        lambda t: pa.table({"d": day_of(t)}),
        batch_format="pyarrow", zero_copy_batch=True).min("d")
    mx = events_ds.max("event_id")
    if base is None or mx is None:  # empty input: nothing to audit
        return pa.table({"layout": pa.array([], pa.string()),
                         "n_files_used": pa.array([], pa.int64()),
                         "files_scanned": pa.array([], pa.int64()),
                         "rows_in_scanned": pa.array([], pa.int64()),
                         "rows_matched": pa.array([], pa.int64()),
                         "scan_ppm": pa.array([], pa.int64())})

    # exact z histogram (≤ 65536 rows) -> balanced file-of-z lookup
    from ray.data.aggregate import Count as _Count

    def z_only(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        day = day_of(t).to_numpy(zero_copy_only=False) - base
        return pa.table({"z": pa.array(
            _interleave16(uid % 256, day % 256), pa.int64())})

    hist = sorted((int(r["z"]), int(r["count()"])) for r in
                  events_ds.select_columns(["user_id", "ts"])
                  .map_batches(z_only, batch_format="pyarrow",
                               zero_copy_batch=True)
                  .groupby("z").aggregate(_Count()).take_all())
    total_rows = sum(c for _, c in hist)
    zs = np.array([z for z, _ in hist], np.int64)
    before = np.concatenate(
        ([0], np.cumsum([c for _, c in hist])[:-1]))
    file_of_z = (before * n_files // total_rows).astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        day = day_of(t).to_numpy(zero_copy_only=False) - base
        z = _interleave16(uid % 256, day % 256)
        zfile = file_of_z[np.searchsorted(zs, z)]
        match = ((day >= d_lo) & (day <= d_hi)
                 & (uid >= u_lo) & (uid <= u_hi)).astype(np.int64)
        out = {"layout": [], "file": [], "mn": [], "mxd": [],
               "mnu": [], "mxu": [], "n": [], "m": []}
        for layout, f in (("insertion", eid * n_files // (mx + 1)),
                          ("zorder", zfile)):
            import pandas as pd

            g = pd.DataFrame({"f": f, "d": day, "u": uid, "m": match}) \
                .groupby("f").agg(mn=("d", "min"), mxd=("d", "max"),
                                  mnu=("u", "min"), mxu=("u", "max"),
                                  n=("d", "size"), m=("m", "sum")) \
                .reset_index()
            out["layout"].extend([layout] * len(g))
            out["file"].extend(g["f"].tolist())
            out["mn"].extend(g["mn"].tolist())
            out["mxd"].extend(g["mxd"].tolist())
            out["mnu"].extend(g["mnu"].tolist())
            out["mxu"].extend(g["mxu"].tolist())
            out["n"].extend(g["n"].tolist())
            out["m"].extend(g["m"].tolist())
        return pa.table({
            "layout": pa.array(out["layout"], pa.string()),
            "file": pa.array(out["file"], pa.int64()),
            "mn": pa.array(out["mn"], pa.int64()),
            "mxd": pa.array(out["mxd"], pa.int64()),
            "mnu": pa.array(out["mnu"], pa.int64()),
            "mxu": pa.array(out["mxu"], pa.int64()),
            "n": pa.array(out["n"], pa.int64()),
            "m": pa.array(out["m"], pa.int64())})

    files = events_ds.select_columns(["event_id", "user_id", "ts"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["layout", "file"]).aggregate(
            Min("mn", alias_name="mn"), Max("mxd", alias_name="mxd"),
            Min("mnu", alias_name="mnu"), Max("mxu", alias_name="mxu"),
            Sum("n", alias_name="n"), Sum("m", alias_name="m")) \
        .take_all()
    out = {"layout": [], "n_files_used": [], "files_scanned": [],
           "rows_in_scanned": [], "rows_matched": [], "scan_ppm": []}
    for layout in ("insertion", "zorder"):
        fs = [r for r in files if r["layout"] == layout]
        total = sum(int(r["n"]) for r in fs)
        scanned = [r for r in fs
                   if int(r["mxd"]) >= d_lo and int(r["mn"]) <= d_hi
                   and int(r["mxu"]) >= u_lo and int(r["mnu"]) <= u_hi]
        rows_in = sum(int(r["n"]) for r in scanned)
        out["layout"].append(layout)
        out["n_files_used"].append(len(fs))
        out["files_scanned"].append(len(scanned))
        out["rows_in_scanned"].append(rows_in)
        out["rows_matched"].append(sum(int(r["m"]) for r in fs))
        out["scan_ppm"].append((1_000_000 * rows_in) // total)
    return pa.table({
        "layout": pa.array(out["layout"], pa.string()),
        "n_files_used": pa.array(out["n_files_used"], pa.int64()),
        "files_scanned": pa.array(out["files_scanned"], pa.int64()),
        "rows_in_scanned": pa.array(out["rows_in_scanned"], pa.int64()),
        "rows_matched": pa.array(out["rows_matched"], pa.int64()),
        "scan_ppm": pa.array(out["scan_ppm"], pa.int64()),
    })


def zorder_layout_audit_sql(n_files: int = 32, d_lo: int = 0,
                            d_hi: int = 2, u_lo: int = 0,
                            u_hi: int = 31) -> str:
    z_terms = " + ".join(
        f"((((u >> {b}) & 1) << {2 * b + 1})"
        f" + (((d >> {b}) & 1) << {2 * b}))" for b in range(8))
    return f"""
WITH zl_b AS (
  SELECT event_id, user_id,
         epoch_us(ts) // 86400000000
           - (SELECT min(epoch_us(ts) // 86400000000) FROM events)
           AS day
  FROM events),
zl_k AS (
  SELECT event_id, day, user_id, user_id % 256 AS u, day % 256 AS d
  FROM zl_b),
zl_z AS (SELECT event_id, day, user_id, ({z_terms}) AS z FROM zl_k),
zl_h AS (SELECT z, count(*) AS c FROM zl_z GROUP BY z),
zl_cf AS (
  SELECT z,
         coalesce(sum(c) OVER (ORDER BY z
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           * {n_files} // (SELECT count(*) FROM events) AS f
  FROM zl_h),
zl_f AS (
  SELECT 'insertion' AS layout,
         event_id * {n_files} // (SELECT max(event_id) + 1 FROM events)
           AS f,
         day, user_id FROM zl_k
  UNION ALL
  SELECT 'zorder', cf.f, zz.day, zz.user_id
  FROM zl_z zz JOIN zl_cf cf ON cf.z = zz.z),
zl_s AS (
  SELECT layout, f, min(day) AS mn, max(day) AS mxd,
         min(user_id) AS mnu, max(user_id) AS mxu,
         count(*) AS n,
         sum((day >= {d_lo} AND day <= {d_hi}
              AND user_id >= {u_lo} AND user_id <= {u_hi})::BIGINT)
           AS m
  FROM zl_f GROUP BY layout, f),
zl_o AS (
  SELECT layout, count(*) AS n_files_used,
         sum((mxd >= {d_lo} AND mn <= {d_hi} AND mxu >= {u_lo}
              AND mnu <= {u_hi})::BIGINT) AS files_scanned,
         coalesce(sum(CASE WHEN mxd >= {d_lo} AND mn <= {d_hi}
                            AND mxu >= {u_lo} AND mnu <= {u_hi}
                           THEN n END), 0) AS rows_in_scanned,
         sum(m) AS rows_matched, sum(n) AS total
  FROM zl_s GROUP BY layout)
SELECT layout, n_files_used::BIGINT AS n_files_used,
       files_scanned::BIGINT AS files_scanned,
       rows_in_scanned::BIGINT AS rows_in_scanned,
       rows_matched::BIGINT AS rows_matched,
       ((1000000 * rows_in_scanned) // total)::BIGINT AS scan_ppm
FROM zl_o ORDER BY layout
"""


# ---------------------------------------------------------------------------
# bitmap secondary index (build once, answer many predicates)
# ---------------------------------------------------------------------------

_BM_PART_BITS = 16           # 65536 rows per bitmap partition


def bitmap_index_queries(events_ds):
    """Bitmap secondary index over events: per (partition =
    event_id >> 16) and per predicate value (event_type, relative
    day), a packed bitset of row presence — built ONCE, then three
    conjunctive count queries are answered from the INDEX ALONE
    (bitwise AND/OR + popcount), never rescanning the base table: the
    bitmap-index pattern every warehouse uses for low-cardinality
    predicates.  Output: (query_id, n_rows) for
      q0: type=click AND day ∈ [0, 2]
      q1: type=purchase AND day ∈ [3, 9]
      q2: type=view (any day)

    Scale shape: the index builds in one per-partition groupby (each
    group emits |types| + |days| fixed-width bitmaps — KBs per 65k
    rows); queries fold per-partition popcounts with a streamed sum.
    Day indexes rebase on the corpus min day (one tiny aggregate).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def day_of(t: pa.Table):
        return pc.divide(
            pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(86_400_000_000, pa.int64()))

    base = events_ds.select_columns(["ts"]).map_batches(
        lambda t: pa.table({"d": day_of(t)}),
        batch_format="pyarrow", zero_copy_batch=True).min("d")
    if base is None:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "n_rows": pa.array([], pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "part": pa.array(eid >> _BM_PART_BITS, pa.int64()),
            "off": pa.array(eid & ((1 << _BM_PART_BITS) - 1),
                            pa.int64()),
            "event_type": t["event_type"],
            "day": pa.array(day_of(t).to_numpy(
                zero_copy_only=False) - base, pa.int64())})

    def build(g: pd.DataFrame) -> pa.Table:
        part = int(g["part"].iloc[0])
        off = g["off"].to_numpy(np.int64)
        keys, blobs = [], []
        for et, sub in g.groupby("event_type", sort=True):
            bits = np.zeros(1 << _BM_PART_BITS, np.uint8)
            bits[sub["off"].to_numpy(np.int64)] = 1
            keys.append(f"t:{et}")
            blobs.append(np.packbits(bits).tobytes())
        for day, sub in g.groupby("day", sort=True):
            bits = np.zeros(1 << _BM_PART_BITS, np.uint8)
            bits[sub["off"].to_numpy(np.int64)] = 1
            keys.append(f"d:{int(day)}")
            blobs.append(np.packbits(bits).tobytes())
        return pa.table({
            "part": pa.array([part] * len(keys), pa.int64()),
            "key": pa.array(keys, pa.string()),
            "bm": pa.array(blobs, pa.binary())})

    index = events_ds.select_columns(["event_id", "event_type", "ts"]) \
        .map_batches(prep, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("part").map_groups(build, batch_format="pandas") \
        .materialize()

    queries = [("t:click", list(range(0, 3))),
               ("t:purchase", list(range(3, 10))),
               ("t:view", None)]

    def answer(g: pd.DataFrame) -> pa.Table:
        bms = {k: np.frombuffer(b, np.uint8)
               for k, b in zip(g["key"], g["bm"])}
        out_q, out_n = [], []
        for qi, (tkey, days) in enumerate(queries):
            tb = bms.get(tkey)
            if tb is None:
                continue
            if days is None:
                sel = tb
            else:
                db = np.zeros_like(tb)
                for d in days:
                    b = bms.get(f"d:{d}")
                    if b is not None:
                        db |= b
                sel = tb & db
            out_q.append(qi)
            out_n.append(int(np.unpackbits(sel).sum()))
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "n": pa.array(out_n, pa.int64())})

    rows = index.groupby("part").map_groups(
        answer, batch_format="pandas") \
        .groupby("query_id").aggregate(Sum("n", alias_name="n")) \
        .take_all()
    per = {int(r["query_id"]): int(r["n"]) for r in rows}
    return pa.table({
        "query_id": pa.array(range(len(queries)), pa.int64()),
        "n_rows": pa.array([per.get(i, 0) for i in
                            range(len(queries))], pa.int64()),
    })


def bitmap_index_queries_sql() -> str:
    return """
WITH bi_b AS (
  SELECT event_type,
         epoch_us(ts) // 86400000000
           - (SELECT min(epoch_us(ts) // 86400000000) FROM events)
           AS day
  FROM events)
SELECT 0 AS query_id, count(*) AS n_rows FROM bi_b
WHERE event_type = 'click' AND day BETWEEN 0 AND 2
UNION ALL
SELECT 1, count(*) FROM bi_b
WHERE event_type = 'purchase' AND day BETWEEN 3 AND 9
UNION ALL
SELECT 2, count(*) FROM bi_b WHERE event_type = 'view'
ORDER BY query_id
"""
