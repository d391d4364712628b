"""Deterministic distributed sampling.

At 100 TB a sample must be (a) computable with zero coordination — a
pure function of the row key, so any worker, any retry, any resume
selects the identical rows — and (b) stratifiable without a shuffle.
The Knuth multiplicative hash ``(key · 2654435761) mod 2^32`` gives a
uniform 32-bit value from an integer key with exact integer arithmetic
that SQL replicates verbatim (no float, no library hash), so the same
predicate runs vectorized in Arrow here and in the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_KNUTH = 2654435761
_M32 = 1 << 32


def _md5_ids(ids, fmt: str = "{}") -> np.ndarray:
    """int64 md5-60 (``dedup._md5_60``) of ``fmt.format(id)`` for each
    integer id — the SQL twins' ``md5(...)`` draw."""
    from .dedup import _md5_60

    return np.fromiter((_md5_60(fmt.format(int(d)).encode()) for d in ids),
                       np.int64, len(ids))


def _with_h(t: pa.Table) -> pa.Table:
    """``t`` with ``h`` = md5-60(doc_id), the hash order of the
    reservoir and temperature samples."""
    return t.append_column("h", pa.array(_md5_ids(t["doc_id"].to_numpy())))


def hash_fraction(key_col, rate: float) -> pa.Array:
    """Boolean mask selecting ≈``rate`` of rows, deterministically, by
    ``(key·2654435761) mod 2^32 < rate·2^32``.  Exact int64 arithmetic:
    key ≤ ~6.9e9 keeps key·KNUTH < 2^63."""
    col = key_col.combine_chunks() if isinstance(key_col, pa.ChunkedArray) \
        else key_col
    h = pc.bit_wise_and(pc.multiply_checked(pc.cast(col, pa.int64()),
                                            pa.scalar(_KNUTH, pa.int64())),
                        pa.scalar(_M32 - 1, pa.int64()))
    return pc.less(h, pa.scalar(int(rate * _M32), pa.int64()))


def _split_cuts(fractions: dict[str, float] | None):
    if fractions is None:
        fractions = {"train": 0.8, "val": 0.1, "test": 0.1}
    names = sorted(fractions)
    cuts, acc = [], 0.0
    for s in names[:-1]:
        acc += fractions[s]
        cuts.append(int(acc * _M32))
    return names, cuts


def split_array(key_col, fractions: dict[str, float] | None = None):
    """THE split-assignment function — one definition shared by
    ``split_assign`` and ``split_leakage`` so the leakage audit can
    never desynchronize from the splits users actually get.  Pure Knuth
    hash of the integer key against sorted-name cut points; returns a
    string array of split names."""
    names, cuts = _split_cuts(fractions)
    col = key_col.combine_chunks() if isinstance(key_col, pa.ChunkedArray) \
        else key_col
    h = pc.bit_wise_and(
        pc.multiply_checked(pc.cast(col, pa.int64()),
                            pa.scalar(_KNUTH, pa.int64())),
        pa.scalar(_M32 - 1, pa.int64()))
    split = pa.nulls(len(col), pa.string())
    lo = None
    for s, hi in zip(names, cuts + [None]):
        m = pc.greater_equal(h, lo) if lo is not None else None
        if hi is not None:
            lt = pc.less(h, hi)
            m = lt if m is None else pc.and_(m, lt)
        if m is not None:
            split = pc.if_else(m, pa.scalar(s), split)
        else:
            split = pa.array([s] * len(col), pa.string())
        lo = hi
    return split


def stratified_sample(docs_ds, rates: dict[str, float],
                      strata_col: str = "lang", key_col: str = "doc_id"):
    """Per-stratum deterministic sample: each batch applies its
    stratum's hash-threshold mask in one vectorized pass — no shuffle,
    no RNG state, no coordination; resume/retry reproduces the exact
    same sample.  Strata absent from ``rates`` are dropped."""
    items = sorted(rates.items())
    strata = pa.array([s for s, _ in items], pa.string())
    thresholds = pa.array([int(r * _M32) for _, r in items], pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        col = t[key_col].combine_chunks()
        h = pc.bit_wise_and(
            pc.multiply_checked(pc.cast(col, pa.int64()),
                                pa.scalar(_KNUTH, pa.int64())),
            pa.scalar(_M32 - 1, pa.int64()))
        idx = pc.index_in(t[strata_col], value_set=strata)
        thr = pc.take(thresholds, idx)  # null where stratum unknown
        keep = pc.fill_null(pc.less(h, thr), False)
        return t.filter(keep)

    return docs_ds.map_batches(pick, batch_format="pyarrow",
                               zero_copy_batch=True)


def stratified_sample_sql(rates: dict[str, float],
                          strata_col: str = "lang",
                          key_col: str = "doc_id",
                          table: str = "documents",
                          order_by: str = "doc_id",
                          columns: str = "*") -> str:
    """DuckDB oracle for ``stratified_sample`` — the identical integer
    predicate, stratum thresholds inlined as a CASE."""
    case = " ".join(
        f"WHEN '{s}' THEN {int(r * _M32)}" for s, r in sorted(rates.items()))
    return f"""
SELECT {columns} FROM {table}
WHERE ({key_col} * {_KNUTH}) % {_M32} <
      CASE {strata_col} {case} ELSE -1 END
ORDER BY {order_by}
"""


def split_assign(docs_ds, fractions: dict[str, float] | None = None,
                 key_col: str = "doc_id"):
    """Deterministic train/val/test assignment — a pure function of the
    row key (same Knuth hash as ``hash_fraction``), so any worker, any
    retry, any resume assigns identically and no doc ever crosses
    splits between runs.  ``fractions`` maps split name → fraction; the
    splits partition the hash space in sorted-name cut order.  Returns
    (doc_id, lang, split) rows.
    """
    def assign(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t[key_col], t["lang"], split_array(t[key_col], fractions)],
            names=["doc_id", "lang", "split"])

    return docs_ds.select_columns([key_col, "lang"]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True)


def split_assign_sql(fractions: dict[str, float] | None = None,
                     key_col: str = "doc_id",
                     table: str = "documents") -> str:
    """DuckDB oracle for ``split_assign`` — identical integer hash and
    cut points."""
    names, cuts = _split_cuts(fractions)
    case = " ".join(f"WHEN h < {hi} THEN '{s}'"
                    for s, hi in zip(names[:-1], cuts))
    return f"""
WITH h AS (
  SELECT {key_col} AS doc_id, lang,
         ({key_col} * {_KNUTH}) % {_M32} AS h
  FROM {table})
SELECT doc_id, lang, CASE {case} ELSE '{names[-1]}' END AS split
FROM h ORDER BY doc_id
"""


def reservoir_per_group(docs_ds, group: str = "lang", k: int = 20):
    """Deterministic distributed 'reservoir': the k docs with the
    SMALLEST md5-60(doc_id) per group — (group, doc_id).  Hash order is
    a uniform random order that every retry/cluster layout agrees on,
    so this is reservoir sampling without coordination.

    Scale shape: ``stats.grouped_topk`` on (h ASC, doc_id ASC) — each
    batch keeps its first k per group, so the one ``segment_map(group)``
    merge sees ≤ k rows per (group, block).
    """
    from .stats import grouped_topk

    return grouped_topk(docs_ds.select_columns([group, "doc_id"])
                        .map_batches(_with_h, batch_format="pyarrow",
                                     zero_copy_batch=True),
                        group, "h", k, "doc_id", descending=False) \
        .select_columns([group, "doc_id"])


def reservoir_per_group_sql(group: str = "lang", k: int = 20,
                            table: str = "documents") -> str:
    return f"""
WITH h AS (
  SELECT {group}, doc_id,
         ('0x' || substr(md5(doc_id::VARCHAR), 1, 15))::BIGINT AS h60
  FROM {table}),
r AS (
  SELECT {group}, doc_id, row_number() OVER (
    PARTITION BY {group} ORDER BY h60, doc_id) AS rn
  FROM h)
SELECT {group}, doc_id FROM r WHERE rn <= {k}
ORDER BY {group}, doc_id
"""


def split_leakage(docs_ds, fractions: dict[str, float] | None = None):
    """Cross-split contamination audit — the check every train/val/test
    pipeline needs: normalized-identical texts that land in MORE THAN
    ONE split — (keep_id, n_docs, n_splits).

    The split is recomputed inline from doc_id (the same pure Knuth
    hash as ``split_assign``), so no join is needed; the shuffle key is
    the 16-byte normalized-text hash, and each hash group is bounded by
    that text's duplicate multiplicity.
    """
    def prep(t: pa.Table) -> pa.Table:
        from .text import normalized_text_hash

        return pa.table({"doc_id": t["doc_id"],
                         "th": normalized_text_hash(t["text"]),
                         "split": split_array(t["doc_id"], fractions)})

    def audit(g: pa.Table) -> pa.Table:
        splits = set(g["split"].to_pylist())
        if len(splits) < 2:
            return pa.table({"keep_id": pa.array([], pa.int64()),
                             "n_docs": pa.array([], pa.int64()),
                             "n_splits": pa.array([], pa.int64())})
        return pa.table({
            "keep_id": pa.array([min(g["doc_id"].to_pylist())], pa.int64()),
            "n_docs": pa.array([g.num_rows], pa.int64()),
            "n_splits": pa.array([len(splits)], pa.int64()),
        })

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("th").map_groups(audit, batch_format="pyarrow")


def split_leakage_sql(fractions: dict[str, float] | None = None,
                      table: str = "documents") -> str:
    names, cuts = _split_cuts(fractions)
    case = " ".join(f"WHEN h < {hi} THEN '{s}'"
                    for s, hi in zip(names[:-1], cuts))
    return f"""
WITH s AS (
  SELECT doc_id,
         trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS nt,
         CASE {case} ELSE '{names[-1]}' END AS split
  FROM (SELECT doc_id, text,
               (doc_id * {_KNUTH}) % {_M32} AS h FROM {table})),
g AS (
  SELECT min(doc_id) AS keep_id, count(*) AS n_docs,
         count(DISTINCT split) AS n_splits
  FROM s GROUP BY nt)
SELECT keep_id, n_docs, n_splits FROM g
WHERE n_splits >= 2 ORDER BY keep_id
"""


def temperature_mix_sample(docs_ds, temperature_half: bool = True,
                           share: int = 4):
    """Temperature-scaled source mixing (the multilingual-corpus
    rebalance move, α = 0.5): sample a ``1/share`` slice of the corpus
    with per-source quotas ∝ √count instead of ∝ count, so small
    sources are upweighted — (source, doc_id, pick_rank).

    EXACT integer arithmetic end-to-end (``math.isqrt`` weights,
    floor-division quotas capped at the source size, md5-60 hash-order
    picks with doc_id tie-break), so the DuckDB twin reproduces the
    sample membership bit-for-bit — no RNG, re-runs and resumes agree.

    Scale shape: per-source counts are ONE fold on the driver; the
    quotas (|sources| ints) are baked into the filter; one
    ``stats.grouped_topk`` at ``k = max(quota)`` on (h ASC, doc_id ASC)
    ranks each source's first picks (≤ k rows per (source, block) reach
    its ``segment_map`` merge) and ``pick_rank <= quota[source]`` keeps
    the quota — exact, as the ranks are global.  Doc text never moves.
    """
    import math

    from .groups import fold
    from .stats import grouped_topk

    counts = fold(docs_ds.select_columns(["source"]), "source",
                  {"n": ("count", None)})
    names = counts["source"].combine_chunks()
    n_by_src = dict(zip(names.to_pylist(), counts["n"].to_pylist()))
    total = int(sum(n_by_src.values()))
    if total == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "source": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "pick_rank": pa.array([], pa.int64())}))
    w = {s: (math.isqrt(int(n)) if temperature_half else int(n))
         for s, n in n_by_src.items()}
    wsum = sum(w.values())
    target = total // share
    quota = pa.array([min(int(n_by_src[s]), target * w[s] // wsum)
                      for s in names.to_pylist()], pa.int64())

    def candidates(t: pa.Table) -> pa.Table:
        # a null source counts toward the totals but picks nothing, as
        # the twin's join on source drops it
        return _with_h(t.filter(pc.is_valid(t["source"])))

    def within_quota(t: pa.Table) -> pa.Table:
        q = pc.take(quota, pc.index_in(t["source"], value_set=names))
        return t.filter(pc.less_equal(t["pick_rank"], q)) \
            .select(["source", "doc_id", "pick_rank"])

    return grouped_topk(docs_ds.select_columns(["source", "doc_id"])
                        .map_batches(candidates, batch_format="pyarrow",
                                     zero_copy_batch=True),
                        "source", "h", pc.max(quota).as_py(), "doc_id",
                        descending=False, rank_col="pick_rank") \
        .map_batches(within_quota, batch_format="pyarrow",
                     zero_copy_batch=True)


def temperature_mix_sample_sql(share: int = 4,
                               table: str = "documents") -> str:
    """SQL twin: exact integer isqrt (float sqrt + ±1 correction),
    identical floor-division quotas, identical hash-order picks."""
    return f"""
WITH n AS (
  SELECT source, count(*) AS cnt FROM {table} GROUP BY source),
w AS (
  SELECT source, cnt,
         CASE WHEN (r0 + 1) * (r0 + 1) <= cnt THEN r0 + 1
              WHEN r0 * r0 > cnt THEN r0 - 1 ELSE r0 END AS wt
  FROM (SELECT source, cnt,
               CAST(floor(sqrt(cnt::DOUBLE)) AS BIGINT) AS r0 FROM n)),
tot AS (SELECT sum(cnt) AS total, sum(wt) AS wsum FROM w),
q AS (
  SELECT w.source,
         least(w.cnt, (tot.total // {share}) * w.wt // tot.wsum) AS quota
  FROM w, tot),
rk AS (
  SELECT d.source, d.doc_id,
         row_number() OVER (
           PARTITION BY d.source
           ORDER BY ('0x' || substr(md5(d.doc_id::VARCHAR), 1, 15))
                      ::BIGINT, d.doc_id) AS pick_rank
  FROM {table} d)
SELECT rk.source, rk.doc_id, rk.pick_rank
FROM rk JOIN q ON q.source = rk.source
WHERE rk.pick_rank <= q.quota
ORDER BY rk.source, rk.pick_rank
"""


# ---------------------------------------------------------------------------
# weighted priority sampling
# ---------------------------------------------------------------------------

def weighted_priority_sample(docs_ds, k: int = 50, seed: int = 31,
                             weight_col: str = "n_chars"):
    """Deterministic weighted sampling without replacement (the integer
    cousin of Efraimidis–Spirakis exponential keys): every row gets
    ``priority = md5_60(seed:doc_id) // max(weight, 1)`` and the k
    SMALLEST priorities win — heavier rows draw smaller keys with
    probability ∝ weight, yet the draw is a pure function of the row,
    so any retry/resume/worker reselects identically and the oracle
    replays it.

    Scale shape: each batch keeps its first k by (priority, doc_id)
    (``groups.take_first_k``, the merge's own order, so a tie is never
    cut arbitrarily), ``groups.collect`` brings ≤ k × n_blocks
    candidates to the driver, and the same prune makes the exact
    global cut; no shuffle at all.
    """
    from .groups import collect, take_first_k

    def first(t: pa.Table) -> pa.Table:
        return take_first_k(t, [], "priority", "doc_id", k, ascending=True)

    def local(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        w = t[weight_col].to_numpy()
        return first(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            weight_col: pa.array(w, pa.int64()),
            "priority": pa.array(_md5_ids(ids, f"{seed}:{{}}")
                                 // np.maximum(w, 1), pa.int64())}))

    cands = collect(docs_ds.select_columns(["doc_id", weight_col])
                    .map_batches(local, batch_format="pyarrow",
                                 zero_copy_batch=True))
    if cands is None:
        cands = local(pa.table({"doc_id": pa.array([], pa.int64()),
                                weight_col: pa.array([], pa.int64())}))
    return first(cands).sort_by("doc_id").to_pandas()


def weighted_priority_sample_sql(k: int = 50, seed: int = 31,
                                 weight_col: str = "n_chars",
                                 table: str = "documents") -> str:
    return f"""
SELECT doc_id, {weight_col},
       (('0x' || substr(md5('{seed}:' || doc_id), 1, 15))::BIGINT
        // greatest({weight_col}, 1))::BIGINT AS priority
FROM {table}
ORDER BY priority, doc_id LIMIT {k}
"""


# ---------------------------------------------------------------------------
# deterministic Poisson bootstrap replicates
# ---------------------------------------------------------------------------

def _poisson1_thresholds(max_m: int = 8) -> list[int]:
    """Integer inverse-CDF thresholds for Poisson(1) on a 60-bit
    uniform: ``T_j = floor(CDF(j) · 2^60)``; a draw's multiplicity is
    ``Σ_j [h ≥ T_j]`` (capped at ``max_m``; P(X > 8) ≈ 1e-6 folds into
    the cap).  The constants derive once from IEEE ``exp(-1)`` on the
    driver and are INLINED into the SQL twin, so both engines compare
    against bit-identical literals."""
    import math

    cdf, term = 0.0, math.exp(-1.0)
    out = []
    for j in range(max_m):
        cdf += term
        out.append(int(cdf * (1 << 60)))
        term /= (j + 1)
    return out


def bootstrap_stats(docs_ds, n_replicates: int = 20):
    """Deterministic Poisson(1) bootstrap over the corpus — per
    replicate ``b`` every doc enters with multiplicity drawn from
    ``md5(doc_id-b)`` via exact integer inverse-CDF thresholds, and the
    replicate's resample statistics come out exact:
    ``(replicate, n_rows, sum_chars)``.  This is the standard
    streaming bootstrap for uncertainty bands over pipeline stats —
    no replicate ever materializes; a resampled doc never moves.

    Scale shape: ONE corpus pass; each batch emits ≤ n_replicates
    partial rows (vectorized threshold compares over a (rows, B) hash
    matrix); one fold merges them on the driver.  Deterministic by
    construction (seeded hashes), so retries/resumes agree.
    """
    import ray.data as rd

    from .groups import fold

    thr = np.array(_poisson1_thresholds(), np.uint64)
    B = n_replicates

    def partial(t: pa.Table) -> pa.Table:
        from .dedup import _md5_60

        ids = t["doc_id"].to_pylist()
        nch = t["n_chars"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.array([[_md5_60(f"{d}-{b}".encode()) for b in range(B)]
                      for d in ids], np.uint64).reshape(len(ids), B)
        m = (h[:, :, None] >= thr[None, None, :]) \
            .sum(axis=2).astype(np.int64)        # (rows, B)
        return pa.table({
            "replicate": pa.array(np.arange(B, dtype=np.int64)),
            "n_rows": pa.array(m.sum(axis=0), pa.int64()),
            "sum_chars": pa.array((m * nch[:, None]).sum(axis=0),
                                  pa.int64())})

    return rd.from_arrow(fold(
        docs_ds.select_columns(["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "replicate", {"n_rows": ("sum", "n_rows"),
                      "sum_chars": ("sum", "sum_chars")}))


def bootstrap_stats_sql(n_replicates: int = 20,
                        table: str = "documents") -> str:
    """Oracle twin: same md5-60 draw, same inlined integer
    thresholds."""
    thr = _poisson1_thresholds()
    m_expr = " + ".join(f"(h >= {t})::BIGINT" for t in thr)
    return f"""
WITH bs_r AS (SELECT unnest(range(0, {n_replicates})) AS b),
bs_h AS (
  SELECT r.b, d.n_chars,
         ('0x' || substr(md5(d.doc_id::VARCHAR || '-' || r.b::VARCHAR),
                         1, 15))::BIGINT AS h
  FROM {table} d CROSS JOIN bs_r r),
bs_m AS (SELECT b, n_chars, ({m_expr}) AS m FROM bs_h)
SELECT b AS replicate, sum(m)::BIGINT AS n_rows,
       sum(m * n_chars)::BIGINT AS sum_chars
FROM bs_m GROUP BY b ORDER BY replicate
"""


# ---------------------------------------------------------------------------
# temporal backtest split with embargo
# ---------------------------------------------------------------------------

def embargo_split_audit(events_ds, train_pct: int = 70,
                        embargo_us: int = 86_400_000_000):
    """Time-based train/test split with an embargo gap — backtest
    hygiene for temporal models: ``cut = tmin + (tmax−tmin)·pct//100``
    (exact integer µs), train = before cut, embargo = the following
    ``embargo_us`` window (discarded), test = after.  The audit row
    reports the split sizes plus ``n_leak_users`` — users active on
    BOTH sides (entity-level leakage a pure time split doesn't stop).

    Scale shape: one min/max reduction, then one streamed pass emitting
    per-batch split counters and per-user side flags; the user-keyed
    ``groupby`` carries two ints per distinct (user, batch) and the
    output is a single row.
    """
    from ray.data.aggregate import Max, Min, Sum

    b = events_ds.select_columns(["ts"]).aggregate(
        Min("ts"), Max("ts"))
    tmin = int(np.datetime64(b["min(ts)"], "us").astype(np.int64))
    tmax = int(np.datetime64(b["max(ts)"], "us").astype(np.int64))
    cut = tmin + (tmax - tmin) * train_pct // 100
    test_start = cut + embargo_us

    def flags(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        uid = t["user_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        is_tr = us < cut
        is_te = us >= test_start
        import pandas as pd

        g = pd.DataFrame({"user_id": uid,
                          "in_train": is_tr.astype(np.int64),
                          "in_test": is_te.astype(np.int64)}) \
            .groupby("user_id", sort=False).max().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_user = events_ds.select_columns(["user_id", "ts"]) \
        .map_batches(flags, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("user_id").aggregate(
            Max("in_train", alias_name="in_train"),
            Max("in_test", alias_name="in_test"))

    def leak(t: pa.Table) -> pa.Table:
        both = pc.and_(pc.equal(t["in_train"], 1),
                       pc.equal(t["in_test"], 1))
        n = pc.sum(pc.cast(both, pa.int64())).as_py() or 0
        return pa.table({"n_leak_users": pa.array([int(n)], pa.int64())})

    n_leak = int(per_user.map_batches(leak, batch_format="pyarrow")
                 .sum("n_leak_users") or 0)

    def counts(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "n_train": pa.array([int((us < cut).sum())], pa.int64()),
            "n_embargo": pa.array([int(((us >= cut)
                                        & (us < test_start)).sum())],
                                  pa.int64()),
            "n_test": pa.array([int((us >= test_start).sum())],
                               pa.int64())})

    import pandas as pd

    sums = events_ds.select_columns(["ts"]) \
        .map_batches(counts, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .sum(["n_train", "n_embargo", "n_test"])   # ONE execution
    n_train = int(sums["sum(n_train)"] or 0)
    n_embargo = int(sums["sum(n_embargo)"] or 0)
    n_test = int(sums["sum(n_test)"] or 0)
    return pd.DataFrame({
        "cut_us": np.array([cut], np.int64),
        "n_train": np.array([n_train], np.int64),
        "n_embargo": np.array([n_embargo], np.int64),
        "n_test": np.array([n_test], np.int64),
        "n_leak_users": np.array([n_leak], np.int64)})


def embargo_split_audit_sql(train_pct: int = 70,
                            embargo_us: int = 86_400_000_000,
                            table: str = "events") -> str:
    """Oracle twin: identical integer µs cut arithmetic."""
    return f"""
WITH eb_b AS (
  SELECT epoch_us(min(ts)) AS tmin, epoch_us(max(ts)) AS tmax
  FROM {table}),
eb_c AS (
  SELECT tmin + (tmax - tmin) * {train_pct} // 100 AS cut FROM eb_b),
eb_e AS (
  SELECT user_id, epoch_us(ts) AS us, cut, cut + {embargo_us} AS ts0
  FROM {table} CROSS JOIN eb_c),
eb_u AS (
  SELECT user_id,
         max(CASE WHEN us < cut THEN 1 ELSE 0 END) AS in_train,
         max(CASE WHEN us >= ts0 THEN 1 ELSE 0 END) AS in_test
  FROM eb_e GROUP BY user_id)
SELECT any_value(cut)::BIGINT AS cut_us,
       count(*) FILTER (us < cut)::BIGINT AS n_train,
       count(*) FILTER (us >= cut AND us < ts0)::BIGINT AS n_embargo,
       count(*) FILTER (us >= ts0)::BIGINT AS n_test,
       (SELECT count(*) FROM eb_u
        WHERE in_train = 1 AND in_test = 1)::BIGINT AS n_leak_users
FROM eb_e
"""


def near_split_leakage(docs_ds, threshold: float = 0.7,
                       num_perm: int = 64, bands: int = 16,
                       fractions: dict[str, float] | None = None):
    """NEAR-duplicate cross-split contamination — the approximate
    complement of ``split_leakage``: MinHash-LSH near-dup pairs
    (estimated Jaccard ≥ ``threshold``) whose two docs were assigned to
    DIFFERENT splits.  Exact-identical leaks are a special case; this
    catches the paraphrase/truncation leaks that survive exact
    dedup — the eval-contamination audit every split pipeline needs.

    Output: (doc_a, doc_b, split_a, split_b, jaccard_est).

    Scale shape: exactly ``minhash_near_dups``'s banded signature-only
    exchange; the split decoration is a PURE function of doc_id
    (``split_array``'s Knuth hash), so it costs zero additional
    exchanges — computed per batch on the surviving pair rows.
    """
    from .dedup import minhash_near_dups

    pairs = minhash_near_dups(docs_ds, threshold=threshold,
                              num_perm=num_perm, bands=bands)

    def decorate(t: pa.Table) -> pa.Table:
        sa = split_array(t["doc_a"], fractions)
        sb = split_array(t["doc_b"], fractions)
        keep = pc.invert(pc.equal(sa, sb))
        return pa.table({
            "doc_a": t["doc_a"], "doc_b": t["doc_b"],
            "split_a": sa, "split_b": sb,
            "jaccard_est": t["jaccard_est"],
        }).filter(keep)

    return pairs.map_batches(decorate, batch_format="pyarrow",
                             zero_copy_batch=True)


def near_split_leakage_sql(threshold: float = 0.7, num_perm: int = 64,
                           bands: int = 16,
                           fractions: dict[str, float] | None = None) -> str:
    from .dedup import _minhash_pairs_cte_sql

    names, cuts = _split_cuts(fractions)
    body = _minhash_pairs_cte_sql(threshold, num_perm, bands, 3, 13, 200)

    def case(col: str) -> str:
        arms = " ".join(
            f"WHEN ({col} * {_KNUTH}) % {_M32} < {hi} THEN '{s}'"
            for s, hi in zip(names[:-1], cuts))
        return f"CASE {arms} ELSE '{names[-1]}' END"

    return f"""
WITH {body}
SELECT doc_a, doc_b,
       {case('doc_a')} AS split_a,
       {case('doc_b')} AS split_b,
       jaccard_est
FROM mh_pairs
WHERE {case('doc_a')} <> {case('doc_b')}
ORDER BY doc_a, doc_b
"""


def epoch_shuffle_audit(docs_ds, n_epochs: int = 3, k: int = 8):
    """Multi-epoch data-order audit: the deterministic per-epoch global
    shuffle a training loader needs — epoch ``e`` orders docs by
    ``md5-60(e || '|' || doc_id)`` (a fresh uniform permutation per
    epoch, identical on every worker/retry/resume, no coordination).
    Emits the first ``k`` docs of each epoch's order:
    (epoch, rank, doc_id) — enough for a loader to verify its order
    against the engine's.

    Scale shape: ONE streamed map over the corpus hashes every epoch
    per batch and keeps each epoch's first k by (h, doc_id)
    (``groups.take_first_k``); ``groups.collect`` brings
    n_blocks·n_epochs·k rows to the driver, where the same prune ranks
    them.  No exchange.  The FULL epoch order is implicit (sort by the
    same hash) and never materializes.
    """
    from .groups import collect, take_first_k

    def first(t: pa.Table, rank: str | None = None) -> pa.Table:
        return take_first_k(t, ["epoch"], "h", "doc_id", k,
                            ascending=True, rank_col=rank)

    def local(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        return first(pa.table({
            "epoch": pa.array(np.repeat(np.arange(n_epochs), len(ids))),
            "h": pa.array(np.concatenate(
                [_md5_ids(ids, f"{e}|{{}}") for e in range(n_epochs)]
                + [np.zeros(0, np.int64)])),
            "doc_id": pa.array(np.tile(ids, n_epochs), pa.int64())}))

    cands = collect(docs_ds.select_columns(["doc_id"])
                    .map_batches(local, batch_format="pyarrow",
                                 zero_copy_batch=True))
    if cands is None:
        cands = local(pa.table({"doc_id": pa.array([], pa.int64())}))
    return first(cands, "rank").select(["epoch", "rank", "doc_id"])


def epoch_shuffle_audit_sql(n_epochs: int = 3, k: int = 8) -> str:
    return f"""
WITH ep_h AS (
  SELECT e.e AS epoch, d.doc_id,
         ('0x' || substr(md5(e.e || '|' || d.doc_id), 1, 15))::BIGINT
           AS h
  FROM documents d
  CROSS JOIN (SELECT unnest(range(0, {n_epochs})) AS e) e),
ep_r AS (
  SELECT epoch, doc_id,
         row_number() OVER (PARTITION BY epoch
                            ORDER BY h, doc_id) AS rank
  FROM ep_h)
SELECT epoch, rank, doc_id FROM ep_r
WHERE rank <= {k} ORDER BY epoch, rank
"""
