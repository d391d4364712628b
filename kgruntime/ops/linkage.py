"""Fuzzy record linkage: blocked edit-distance entity resolution.

The classic Febrl/Dedoop shape — candidate pairs come from shared-token
blocking over the DISTINCT entity names (never the raw record table),
then an exact Levenshtein distance prunes to true fuzzy matches.  The
blocking step is part of the operator's semantics (candidate
generation), so the DuckDB oracle replays the same shared-token join
and DuckDB's built-in ``levenshtein`` — parity is exact, not
approximate.

Scale shape (100-TB reading):
* the record table is collapsed to distinct (name, n_records) per
  batch, and the token blocks sum those partial counts — raw records
  never reach the pairing stage;
* blocks are token-keyed and deterministically CAPPED (first ``cap``
  names in lexicographic order, replayed by the oracle's
  ``row_number() OVER (PARTITION BY tok ORDER BY name)``), so a hot
  token costs O(cap²) work, never O(block²);
* the Levenshtein kernel is a batched numpy DP — vector over the pair
  axis, sequential only over the ≤ max-name-length character axes
  (≈25×25 vector ops per block, zero per-pair Python).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _lev_batch(a_strs: list[str], b_strs: list[str]) -> np.ndarray:
    """Unit-cost Levenshtein for P string pairs at once: the DP table is
    (P, mb+1) and both character loops are short (name lengths), so all
    heavy work is vectorized over the pair axis.  Matches DuckDB's
    ``levenshtein`` (insert/delete/substitute, cost 1 each)."""
    P = len(a_strs)
    la = np.fromiter((len(s) for s in a_strs), np.int64, P)
    lb = np.fromiter((len(s) for s in b_strs), np.int64, P)
    ma, mb = int(la.max(initial=0)), int(lb.max(initial=0))
    A = np.zeros((P, max(ma, 1)), np.uint32)
    B = np.zeros((P, max(mb, 1)), np.uint32)
    for p, s in enumerate(a_strs):
        if s:
            A[p, : len(s)] = np.frombuffer(s.encode("utf-32-le"), np.uint32)
    for p, s in enumerate(b_strs):
        if s:
            B[p, : len(s)] = np.frombuffer(s.encode("utf-32-le"), np.uint32)
    res = np.where(la == 0, lb, 0).astype(np.int64)
    dp = np.broadcast_to(np.arange(mb + 1, dtype=np.int32),
                         (P, mb + 1)).copy()
    for i in range(1, ma + 1):
        prev = dp
        dp = np.empty_like(prev)
        dp[:, 0] = i
        neq = (B != A[:, i - 1][:, None]).astype(np.int32)
        for j in range(1, mb + 1):
            dp[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, dp[:, j - 1] + 1),
                prev[:, j - 1] + neq[:, j - 1])
        hit = la == i
        if hit.any():
            res[hit] = dp[hit, lb[hit]]
    return res


_LEV_CHUNK = 1 << 16   # pairs per _lev_batch call: bounds its DP tables


def fuzzy_name_matches(ds, name_col: str = "p_name", max_dist: int = 3,
                       cap: int = 256):
    """(name_a, name_b, dist, n_a, n_b) for every distinct-name pair
    that shares a whitespace token and sits within ``max_dist`` edits
    (dist ≥ 1 — identical names are already the same entity).  ``n_*``
    carry the record counts that would merge.

    Scale shape, two exchanges: each batch's ``value_counts`` explode
    straight into (tok, name, n) rows, exchanged by ``tok`` on the
    coarse segment primitive (``groups.segment_map``); one kernel per
    coarse block sums ``n`` per (tok, name) — so the lexicographic
    ``cap`` ranks GLOBAL distinct names, as the oracle's ``fz_names``
    CTE does — caps every token, builds all in-token pairs and runs
    one batched Levenshtein.  The second exchange is the
    (name_a, name_b) rollup.
    """
    import polars as pl
    from ray.data.aggregate import Min

    from .groups import run_starts, segment_map, segment_pairs

    _tok_schema = pa.schema([("tok", pa.string()), ("name", pa.string()),
                             ("n", pa.int64())])

    def explode_tokens(t: pa.Table) -> pa.Table:
        # distinct tokens per name (a repeated token must occupy ONE
        # block slot, mirroring the oracle's DISTINCT before row_number)
        vc = pc.value_counts(t[name_col].combine_chunks())
        return pl.from_arrow(pa.table({"name": vc.field("values"),
                                       "n": vc.field("counts")})) \
            .with_columns(pl.col("name").str.split(" ").list.unique()
                          .alias("tok")) \
            .explode("tok").to_arrow() \
            .select(["tok", "name", "n"]).cast(_tok_schema)

    _pair_schema = pa.schema([
        ("name_a", pa.string()), ("name_b", pa.string()),
        ("dist", pa.int64()), ("n_a", pa.int64()), ("n_b", pa.int64())])

    def pairs_in_block(g: pa.Table, starts: np.ndarray) -> pa.Table:
        # per (tok, name): global n; per tok: the first ``cap`` names
        capped = pl.from_arrow(g).group_by(["tok", "name"]) \
            .agg(pl.col("n").sum()).sort(["tok", "name"]) \
            .filter(pl.int_range(pl.len()).over("tok") < cap)
        tstarts = np.flatnonzero(run_starts(capped["tok"].to_numpy()))
        ii, jj = segment_pairs(tstarts,
                               np.diff(np.append(tstarts, len(capped))))
        # a pair sharing two tokens of this block is scored once
        pairs = pl.DataFrame({
            "name_a": capped["name"].gather(ii),
            "name_b": capped["name"].gather(jj),
            "n_a": capped["n"].gather(ii),
            "n_b": capped["n"].gather(jj)}).unique()
        a = pairs["name_a"].to_list()
        b = pairs["name_b"].to_list()
        dist = np.concatenate(
            [np.zeros(0, np.int64)]
            + [_lev_batch(a[i:i + _LEV_CHUNK], b[i:i + _LEV_CHUNK])
               for i in range(0, len(a), _LEV_CHUNK)])
        keep = (dist >= 1) & (dist <= max_dist)
        return pairs.with_columns(pl.Series("dist", dist)) \
            .filter(pl.Series(keep)).to_arrow() \
            .select(_pair_schema.names).cast(_pair_schema)

    # a pair that shares two tokens surfaces in two blocks — the rollup
    # dedups it (dist/n_* are identical wherever it appears, so Min is
    # a pure pick-one)
    return segment_map(
        ds.select_columns([name_col])
        .map_batches(explode_tokens, batch_format="pyarrow",
                     zero_copy_batch=True),
        "tok", pairs_in_block) \
        .groupby(["name_a", "name_b"]).aggregate(
            Min("dist", alias_name="dist"),
            Min("n_a", alias_name="n_a"),
            Min("n_b", alias_name="n_b"))


def fuzzy_name_matches_sql(name_col: str = "p_name", max_dist: int = 3,
                           cap: int = 256, table: str = "part") -> str:
    """Oracle twin: same distinct-name collapse, same DISTINCT-token
    blocking with the lexicographic ``cap``, DuckDB ``levenshtein``."""
    return f"""
WITH fz_names AS (
  SELECT {name_col} AS name, count(*)::BIGINT AS n
  FROM {table} GROUP BY 1),
fz_tok AS (
  SELECT DISTINCT name, n, unnest(str_split(name, ' ')) AS tok
  FROM fz_names),
fz_cap AS (
  SELECT name, n, tok FROM (
    SELECT name, n, tok,
           row_number() OVER (PARTITION BY tok ORDER BY name) AS rk
    FROM fz_tok) WHERE rk <= {cap}),
fz_pairs AS (
  SELECT DISTINCT a.name AS name_a, b.name AS name_b,
         a.n AS n_a, b.n AS n_b
  FROM fz_cap a JOIN fz_cap b ON b.tok = a.tok AND b.name > a.name),
fz_d AS (
  SELECT name_a, name_b, levenshtein(name_a, name_b)::BIGINT AS dist,
         n_a, n_b
  FROM fz_pairs)
SELECT name_a, name_b, dist, n_a, n_b
FROM fz_d WHERE dist BETWEEN 1 AND {max_dist}
ORDER BY name_a, name_b
"""


# ---------------------------------------------------------------------------
# end-to-end entity resolution: fuzzy pairs → components → canonical entity
# ---------------------------------------------------------------------------

def entity_clusters(ds, name_col: str = "p_name", max_dist: int = 3,
                    cap: int = 256):
    """Entity resolution over a name column: ``fuzzy_name_matches``
    match pairs close into connected components (transitive merge —
    A~B, B~C ⇒ one entity even when A, C exceed ``max_dist``), every
    clustered name maps to its component's lexicographic-minimum name
    as the canonical entity id, plus the cluster size.

    Scale shape: the pair stage is the blocked Levenshtein join
    (distinct-name collapse + capped token blocks); components run on
    the KG union-find (``stages/canon.union_find`` — string
    labels ARE the canonical names, so no id remap is needed); cluster
    sizes are one node-bounded groupby joined back through the
    bucketed hash join.  Output: (name, canonical, cluster_size) for
    every name that matched at least one other name.
    """
    from ray.data.aggregate import Count

    from ..stages.canon import union_find
    from .join import bucketed_hash_join

    pairs = fuzzy_name_matches(ds, name_col=name_col,
                               max_dist=max_dist, cap=cap)

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["name_a"], "dst": t["name_b"]})

    asn = union_find(
        pairs.map_batches(to_edges, batch_format="pyarrow"))[0] \
        .materialize()   # two consumers: sizes + decoration

    def rename_key(t: pa.Table) -> pa.Table:
        return t.rename_columns(["canon_label", "cluster_size"])

    sizes = asn.groupby("label") \
        .aggregate(Count(alias_name="cluster_size")) \
        .map_batches(rename_key, batch_format="pyarrow")

    out = bucketed_hash_join(asn, sizes, "label", "canon_label")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"name": t["node"],
                         "canonical": t["label"],
                         "cluster_size": pc.cast(t["cluster_size"],
                                                 pa.int64())})

    return out.map_batches(finish, batch_format="pyarrow")


def entity_clusters_sql(name_col: str = "p_name", max_dist: int = 3,
                        cap: int = 256, table: str = "part") -> str:
    """Oracle: the fuzzy-pair CTEs closed by a TRUE recursive
    reachability closure (min reachable name = canonical), then a
    cluster-size rollup — proves the union-find labels."""
    pairs = fuzzy_name_matches_sql(name_col=name_col, max_dist=max_dist,
                                   cap=cap, table=table)
    return f"""
WITH RECURSIVE cc_pairs AS ({pairs.strip().rstrip(";")}),
cc_e AS (SELECT name_a AS s, name_b AS d FROM cc_pairs
         UNION ALL SELECT name_b, name_a FROM cc_pairs),
cc_nodes AS (SELECT DISTINCT s AS node FROM cc_e),
cc_reach AS (
  SELECT node, node AS cand FROM cc_nodes
  UNION
  SELECT cc_e.d AS node, cc_reach.cand
  FROM cc_reach JOIN cc_e ON cc_e.s = cc_reach.node),
cc_lab AS (
  SELECT node AS name, min(cand) AS canonical
  FROM cc_reach GROUP BY node),
cc_siz AS (
  SELECT canonical, count(*)::BIGINT AS cluster_size
  FROM cc_lab GROUP BY 1)
SELECT name, canonical, cluster_size
FROM cc_lab JOIN cc_siz USING (canonical) ORDER BY name
"""
