"""Iterative graph algorithms on Ray Data: integer-exact PageRank.

The iterative-shuffle shape (the same regime as the distributed
union-find in stages/canon.py, but with weighted numeric state): a
fixed number of synchronous rounds, each ONE bucketed hash join
(ranks onto the out-edge list) plus ONE native groupby-sum.

Determinism / SQL replayability: every quantity is an INTEGER —
ranks live at a fixed scale, per-neighbor contributions use floor
division ``r // deg``, and the damping update is
``base + (damp · Σcontrib) // 100`` — so sums are order-free and a
DuckDB oracle unrolling the same K rounds as a CTE chain reproduces
the result bit-for-bit (no float accumulation anywhere).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def pagerank(edges_ds, iters: int = 5, scale: int = 10 ** 9,
             damp: int = 85):
    """PageRank over a DIRECTED edge list Dataset (src:int64,
    dst:int64); returns (user_id, rank_scaled) with ranks at
    ``scale`` fixed-point.  Nodes are the distinct sources (feed a
    symmetrized edge list for undirected graphs — then every node also
    receives mass, so the per-round inner join is total).

    Scale shape: out-degrees are joined into the edge list ONCE
    (per-round state is just (node, rank)); each round is one bucketed
    hash join + one groupby-sum over edge-count rows; the edge list is
    materialized once and re-read from the object store each round.
    """
    from ray.data.aggregate import Count, Sum

    from .join import bucketed_hash_join

    deg = edges_ds.groupby("src").aggregate(Count(alias_name="deg")) \
        .materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return deg.map_batches(
            lambda t: pa.table({"user_id": pa.array([], pa.int64()),
                                "rank_scaled": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    base = (scale * (100 - damp)) // (100 * n_nodes)
    r0 = scale // n_nodes

    # degree rides on the edges so per-round state is (u, r) only
    e2 = bucketed_hash_join(
        edges_ds, deg.rename_columns({"src": "u"}),
        left_on="src", right_on="u").materialize()

    def init_ranks(t: pa.Table) -> pa.Table:
        return pa.table({"u": t["src"],
                         "r": pa.array(np.full(t.num_rows, r0, np.int64),
                                       pa.int64())})

    ranks = deg.map_batches(init_ranks, batch_format="pyarrow") \
        .materialize()

    def contrib(t: pa.Table) -> pa.Table:
        r = t["r"].to_numpy(zero_copy_only=False)
        d = t["deg"].to_numpy(zero_copy_only=False)
        return pa.table({"dst": t["dst"],
                         "c": pa.array(r // d, pa.int64())})

    def update(t: pa.Table) -> pa.Table:
        s = t["c"].to_numpy(zero_copy_only=False)
        return pa.table({"u": t["dst"],
                         "r": pa.array(base + (damp * s) // 100,
                                       pa.int64())})

    for _ in range(iters):
        j = bucketed_hash_join(e2, ranks, left_on="src", right_on="u")
        sums = j.map_batches(contrib, batch_format="pyarrow",
                             zero_copy_batch=True) \
            .groupby("dst").aggregate(Sum("c", alias_name="c"))
        ranks = sums.map_batches(update, batch_format="pyarrow") \
            .materialize()

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays([t["u"], t["r"]],
                                    names=["user_id", "rank_scaled"])

    return ranks.map_batches(finish, batch_format="pyarrow")


def pagerank_cooccurrence_sql(iters: int = 5, scale: int = 10 ** 9,
                              damp: int = 85, cap: int = 200,
                              table: str = "events") -> str:
    """DuckDB oracle: the co-occurrence pair CTEs, symmetrized edges,
    and the identical integer recurrence unrolled ``iters`` times."""
    from .sessions import cooccur_cte_body

    parts = [cooccur_cte_body(cap, table)]
    parts.append("""ed AS (
  SELECT DISTINCT user_a AS src, user_b AS dst FROM p
  UNION
  SELECT DISTINCT user_b AS src, user_a AS dst FROM p)""")
    parts.append("dg AS (SELECT src, count(*) AS deg FROM ed GROUP BY src)")
    parts.append("nn AS (SELECT count(*) AS n FROM dg)")
    parts.append(
        f"r0 AS (SELECT src AS u, (SELECT {scale}::BIGINT // n FROM nn)"
        f"::BIGINT AS r FROM dg)")
    for i in range(1, iters + 1):
        parts.append(f"""r{i} AS (
  SELECT e.dst AS u,
         ((SELECT ({scale}::BIGINT * {100 - damp}) // (100 * n) FROM nn)
          + ({damp}::BIGINT * sum(r.r // d.deg)) // 100)::BIGINT AS r
  FROM ed e
  JOIN r{i - 1} r ON r.u = e.src
  JOIN dg d ON d.src = e.src
  GROUP BY e.dst)""")
    return f"""
WITH {', '.join(parts)}
SELECT u AS user_id, r AS rank_scaled FROM r{iters} ORDER BY u
"""


def int_pairs_components(pairs_ds, col_a: str, col_b: str,
                         out_id: str, out_label: str):
    """Shared int-pairs → connected-components helper (used by
    ``user_components`` and ``ops/dedup.embedding_dup_clusters``):
    zero-pads ids to full int64 width (19 digits) so the KG union-find's
    rank-minimum STRING label is the numeric minimum (negative ids would
    scramble the ordering and are refused loudly), runs
    ``stages/canon.union_find`` (driver union-find under
    DRIVER_CC_MAX_EDGES, distributed min-label rounds beyond), and casts
    the assignment back to ints as (out_id, out_label)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.canon import union_find

    def to_edges(t: pa.Table) -> pa.Table:
        if t.num_rows:
            lo = min(pc.min(t[col_a]).as_py(), pc.min(t[col_b]).as_py())
            if lo < 0:
                raise ValueError("components require non-negative ids "
                                 f"(saw {lo})")
        a = pc.utf8_lpad(pc.cast(t[col_a], pa.string()), 19, "0")
        b = pc.utf8_lpad(pc.cast(t[col_b], pa.string()), 19, "0")
        return pa.table({"src": a, "dst": b})

    asn = union_find(
        pairs_ds.map_batches(to_edges, batch_format="pyarrow"))[0]

    def back(t: pa.Table) -> pa.Table:
        return pa.table({
            out_id: pc.cast(t["node"], pa.int64()),
            out_label: pc.cast(t["label"], pa.int64()),
        })

    return asn.map_batches(back, batch_format="pyarrow")


def reachability_closure_sql(pairs_sql: str, col_a: str, col_b: str,
                             out_id: str, out_label: str) -> str:
    """Shared TRUE-reachability oracle scaffold: closes a pair CTE into
    min-reachable-id component labels via a recursive CTE — proves the
    union-find labels, not merely replays them."""
    # cc_-prefixed CTE names: outer CTEs are visible INSIDE the nested
    # pairs query under WITH RECURSIVE scoping, so a generic name like
    # "e" would capture the pairs SQL's own CTE references
    return f"""
WITH RECURSIVE cc_pairs AS ({pairs_sql.strip().rstrip(";")}),
cc_e AS (SELECT {col_a} AS s, {col_b} AS d FROM cc_pairs
         UNION ALL SELECT {col_b}, {col_a} FROM cc_pairs),
cc_nodes AS (SELECT DISTINCT s AS node FROM cc_e),
cc_reach AS (
  SELECT node, node AS cand FROM cc_nodes
  UNION
  SELECT cc_e.d AS node, cc_reach.cand
  FROM cc_reach JOIN cc_e ON cc_e.s = cc_reach.node)
SELECT node AS {out_id}, min(cand)::BIGINT AS {out_label}
FROM cc_reach GROUP BY node ORDER BY {out_id}
"""


def user_components(events_ds):
    """Generic connected components over the user co-occurrence graph —
    (user_id, component) with ``component`` = the min user id reachable.
    Machinery: ``int_pairs_components``; oracle: the shared TRUE
    reachability closure."""
    from .sessions import cooccurrence_edges

    pairs = cooccurrence_edges(events_ds).select_columns(
        ["user_a", "user_b"])
    return int_pairs_components(pairs, "user_a", "user_b",
                                "user_id", "component")


def user_components_sql() -> str:
    from .sessions import cooccurrence_edges_sql

    return reachability_closure_sql(cooccurrence_edges_sql(),
                                    "user_a", "user_b",
                                    "user_id", "component")


def triangle_count(edges_ds, num_partitions: int = 32):
    """Global triangle census of an undirected graph —
    one row (n_nodes, n_edges, n_wedges, n_triangles,
    global_clustering) with clustering = 3·triangles / wedges.

    Compact-forward shape: edges are oriented low→high by
    (degree, id) — under that total order every out-degree is O(√m),
    so the wedge fan-out at hub nodes is bounded WITHOUT a cap (the
    standard scalability fix for triangle joins; contrast the capped
    LSH/co-occurrence buckets).  Stages:

    1. degrees: one native groupby over the exploded endpoints; the
       (node → degree) vector broadcasts via ``ray.put`` + searchsorted
       (at 100 TB swap for a bucketed join — embedding_outliers
       documents the same escape hatch for its label vector);
    2. orientation + wedge generation per coarse hash partition of the
       source node (numpy segment sweep — no per-node map_groups, the
       cooccurrence_edges trick);
    3. ONE groupby((v, w)) matching wedges against oriented edges:
       triangles = Σ wedge-multiplicity where the closing edge exists.

    Everything is exact integer arithmetic except the final clustering
    ratio (two int→double casts + divide, rounded half-away at 6) —
    the DuckDB twin replays all of it.
    """
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Max, Sum

    # --- stage 1: degrees ------------------------------------------------
    ends = edges_ds.map_batches(
        lambda t: pa.table({"u": pa.concat_arrays([
            t["user_a"].combine_chunks().cast(pa.int64()),
            t["user_b"].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow", zero_copy_batch=True)
    deg_df = ends.groupby("u").count().to_pandas()
    nodes = deg_df["u"].to_numpy(np.int64)
    degs = deg_df["count()"].to_numpy(np.int64)
    order = np.argsort(nodes, kind="stable")
    nodes, degs = nodes[order], degs[order]
    n_nodes = len(nodes)
    n_wedges = int((degs.astype(object) * (degs.astype(object) - 1)
                    ).sum() // 2)
    deg_ref = ray.put((nodes, degs))

    # --- stage 2: orient + wedges ---------------------------------------
    def orient(t: pa.Table) -> pa.Table:
        nd, dg = ray.get(deg_ref)
        a = t["user_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["user_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        da = dg[np.searchsorted(nd, a)]
        db = dg[np.searchsorted(nd, b)]
        # total order: (degree, id) — a<b already, so swap iff b ranks
        # strictly lower
        swap = (db < da) | ((db == da) & (b < a))
        s = np.where(swap, b, a)
        d = np.where(swap, a, b)
        return pa.table({"s": pa.array(s, pa.int64()),
                         "d": pa.array(d, pa.int64()),
                         "part": pa.array(s % num_partitions, pa.int64())})

    oriented = edges_ds.map_batches(orient, batch_format="pyarrow",
                                    zero_copy_batch=True)

    def wedges(g: pa.Table) -> pa.Table:
        nd, dg = ray.get(deg_ref)
        s = g["s"].to_numpy(zero_copy_only=False)
        d = g["d"].to_numpy(zero_copy_only=False)
        o = np.lexsort((d, s))
        s, d = s[o], d[o]
        # segment sweep: for each source, all ordered out-neighbor pairs
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        lens = np.diff(np.r_[starts, len(s)])
        vs, ws = [], []
        for st, ln in zip(starts, lens):
            if ln < 2:
                continue
            nb = d[st:st + ln]
            # order neighbor pairs by the SAME (degree, id) total order
            # so the closing edge, if present, is oriented v→w
            key_d = dg[np.searchsorted(nd, nb)]
            nb = nb[np.lexsort((nb, key_d))]
            i, j = np.triu_indices(ln, k=1)
            vs.append(nb[i])
            ws.append(nb[j])
        if not vs:
            return pa.table({"v": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64()),
                             "n_wedge": pa.array([], pa.int64()),
                             "is_edge": pa.array([], pa.int64())})
        import pandas as pd

        df = pd.DataFrame({"v": np.concatenate(vs),
                           "w": np.concatenate(ws)})
        cnt = df.groupby(["v", "w"], sort=False).size() \
            .rename("n_wedge").reset_index()
        cnt["is_edge"] = np.int64(0)
        return pa.Table.from_pandas(cnt, preserve_index=False).cast(
            pa.schema([("v", pa.int64()), ("w", pa.int64()),
                       ("n_wedge", pa.int64()), ("is_edge", pa.int64())]))

    wedge_ds = oriented.groupby("part").map_groups(
        wedges, batch_format="pyarrow")
    edge_marked = oriented.map_batches(
        lambda t: pa.table({"v": t["s"], "w": t["d"],
                            "n_wedge": pa.array(
                                np.zeros(t.num_rows, np.int64)),
                            "is_edge": pa.array(
                                np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)

    # --- stage 3: match -------------------------------------------------
    matched = wedge_ds.union(edge_marked).groupby(["v", "w"]).aggregate(
        Sum("n_wedge", alias_name="n_wedge"),
        Max("is_edge", alias_name="is_edge")).to_pandas()
    n_tri = int(matched.loc[matched["is_edge"] == 1, "n_wedge"].sum())
    n_edges = int(matched["is_edge"].sum())
    if n_wedges > 0:
        gc = 3.0 * float(n_tri) / float(n_wedges)
        gc = float(np.floor(gc * 1e6 + 0.5) / 1e6)
    else:
        gc = 0.0
    import pandas as pd

    return pd.DataFrame({
        "n_nodes": [n_nodes], "n_edges": [n_edges],
        "n_wedges": [n_wedges], "n_triangles": [n_tri],
        "global_clustering": [gc]})


def triangle_count_sql(cap: int = 200, min_shared: int = 5,
                       table: str = "events") -> str:
    """DuckDB twin over the same strong-tie co-occurrence edge set:
    identical n_shared threshold, (degree, id) orientation, wedge join,
    and closing-edge match."""
    from .sessions import cooccur_cte_body

    return f"""
WITH {cooccur_cte_body(cap, table)},
e AS (SELECT user_a AS a, user_b AS b FROM p GROUP BY user_a, user_b
      HAVING count(*) >= {min_shared}),
deg AS (
  SELECT u, count(*) AS d
  FROM (SELECT a AS u FROM e UNION ALL SELECT b FROM e) GROUP BY u),
o AS (
  SELECT CASE WHEN db.d < da.d OR (db.d = da.d AND e.b < e.a)
              THEN e.b ELSE e.a END AS s,
         CASE WHEN db.d < da.d OR (db.d = da.d AND e.b < e.a)
              THEN e.a ELSE e.b END AS t
  FROM e JOIN deg da ON da.u = e.a JOIN deg db ON db.u = e.b),
w AS (
  SELECT CASE WHEN d2.d < d1.d OR (d2.d = d1.d AND o2.t < o1.t)
              THEN o2.t ELSE o1.t END AS v,
         CASE WHEN d2.d < d1.d OR (d2.d = d1.d AND o2.t < o1.t)
              THEN o1.t ELSE o2.t END AS w
  FROM o o1 JOIN o o2 ON o1.s = o2.s AND o1.t < o2.t
  JOIN deg d1 ON d1.u = o1.t JOIN deg d2 ON d2.u = o2.t),
tri AS (
  SELECT count(*) AS n_triangles
  FROM w JOIN o ON o.s = w.v AND o.t = w.w),
stats AS (
  SELECT (SELECT count(*) FROM deg) AS n_nodes,
         (SELECT count(*) FROM e) AS n_edges,
         (SELECT sum(d * (d - 1) // 2) FROM deg)::BIGINT AS n_wedges,
         (SELECT n_triangles FROM tri) AS n_triangles)
SELECT n_nodes, n_edges, n_wedges, n_triangles,
       CASE WHEN n_wedges > 0
            THEN round(3.0 * n_triangles / n_wedges::DOUBLE, 6)
            ELSE 0.0 END AS global_clustering
FROM stats
"""


def k_core(edges_ds, k: int = 3, rounds: int = 8):
    """Fixed-round k-core peel of an undirected graph
    (``user_a`` < ``user_b`` int64 edge rows, e.g. the strong-tie
    co-occurrence edges): repeatedly drop nodes with degree < k, then
    report every node still in the edge set with its residual degree
    ``(user_id, core_degree)``.

    Synchronous-rounds shape (the pagerank/union-find regime): each
    round is ONE native groupby (degrees over the exploded endpoints)
    plus ONE streamed filter pass over the edge list.  The survivor
    set is node-bounded and broadcasts as a sorted int64 array via
    ``ray.put`` + searchsorted — same pattern and same documented
    100-TB escape hatch (swap for a bucketed semi-join) as
    triangle_count's degree vector.  Rounds stop early once the edge
    count is stable; extra SQL rounds are then no-ops, so the
    ``rounds``-unrolled oracle still matches bit-for-bit.
    """
    import ray

    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "core_degree": pa.array([], pa.int64())})

    def ends(t: pa.Table) -> pa.Table:
        return pa.table({"u": pa.concat_arrays([
            t["user_a"].combine_chunks().cast(pa.int64()),
            t["user_b"].combine_chunks().cast(pa.int64())])})

    cur = edges_ds.select_columns(["user_a", "user_b"]).materialize()
    n_edges = cur.count()
    for _ in range(rounds):
        if n_edges == 0:
            break
        deg = cur.map_batches(ends, batch_format="pyarrow",
                              zero_copy_batch=True) \
            .groupby("u").count().to_pandas()       # node-bounded
        keep = np.sort(deg.loc[deg["count()"] >= k, "u"]
                       .to_numpy(np.int64))
        keep_ref = ray.put(keep)

        def survive(t: pa.Table, keep_ref=keep_ref) -> pa.Table:
            kp = ray.get(keep_ref)
            a = t["user_a"].to_numpy(zero_copy_only=False)
            b = t["user_b"].to_numpy(zero_copy_only=False)

            def member(x):
                i = np.searchsorted(kp, x)
                i = np.clip(i, 0, max(len(kp) - 1, 0))
                return (len(kp) > 0) & (kp[i] == x)

            m = member(a) & member(b)
            return t.filter(pa.array(m))

        cur = cur.map_batches(survive, batch_format="pyarrow") \
            .materialize()
        n_next = cur.count()
        if n_next == n_edges:      # stable: further rounds are no-ops
            break
        n_edges = n_next

    if n_edges == 0:
        return empty
    out = cur.map_batches(ends, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("u").count() \
        .rename_columns({"u": "user_id", "count()": "core_degree"})
    return out


def k_core_sql(k: int = 3, rounds: int = 8, cap: int = 200,
               min_shared: int = 5, table: str = "events") -> str:
    """Unrolled-round DuckDB twin of :func:`k_core` over the strong-tie
    co-occurrence edge set (kc_-prefixed CTEs; MATERIALIZED so the
    round chain doesn't inline exponentially — the bpe_merges lesson)."""
    from .sessions import cooccur_cte_body

    parts = [f"""kc_e0 AS MATERIALIZED (
  SELECT user_a AS a, user_b AS b FROM p
  GROUP BY user_a, user_b HAVING count(*) >= {min_shared})"""]
    for i in range(1, rounds + 1):
        parts.append(f"""kc_s{i} AS MATERIALIZED (
  SELECT u FROM (SELECT a AS u FROM kc_e{i - 1}
                 UNION ALL SELECT b FROM kc_e{i - 1})
  GROUP BY u HAVING count(*) >= {k}),
kc_e{i} AS MATERIALIZED (
  SELECT a, b FROM kc_e{i - 1}
  WHERE a IN (SELECT u FROM kc_s{i})
    AND b IN (SELECT u FROM kc_s{i}))""")
    chain = ",\n".join(parts)
    return f"""
WITH {cooccur_cte_body(cap, table)},
{chain}
SELECT u AS user_id, count(*)::BIGINT AS core_degree
FROM (SELECT a AS u FROM kc_e{rounds} UNION ALL SELECT b FROM kc_e{rounds})
GROUP BY u ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# label propagation communities (synchronous, fixed rounds)
# ---------------------------------------------------------------------------

def lpa_communities(edges_ds, rounds: int = 4):
    """Community detection by synchronous label propagation over an
    undirected (user_a < user_b) edge list: labels start as node ids;
    each round every node adopts the most frequent label among its
    NEIGHBORS (tie → smallest label).  Unlike connected components
    (min-label flood), frequency voting respects local edge density,
    so bridge edges don't instantly merge two dense groups.  Output
    after ``rounds``: (user_id, community).

    Scale shape per round: the label table is node-bounded and
    broadcasts via ``ray.put`` (searchsorted decorate — the k_core
    survivor pattern, same documented bucketed-join escape hatch for
    node sets beyond broadcast size); ONE streamed pass over the edges
    emits (node, neighbor_label) pairs pre-counted per batch; one
    ``groupby`` merges the counts; the argmax/tie-break runs over the
    node-bounded count table.  The corpus-sized edge list is never
    shuffled — only decorated.
    """
    import ray
    from ray.data.aggregate import Sum

    import pandas as pd

    edges = edges_ds.select_columns(["user_a", "user_b"]).materialize()
    if edges.count() == 0:     # empty edge set drops schemas (Ray 2.49)
        return pd.DataFrame({"user_id": np.array([], np.int64),
                             "community": np.array([], np.int64)})

    def node_ends(t: pa.Table) -> pa.Table:
        return pa.table({"u": pa.concat_arrays([
            t["user_a"].combine_chunks().cast(pa.int64()),
            t["user_b"].combine_chunks().cast(pa.int64())])})

    nodes = np.sort(edges.map_batches(node_ends, batch_format="pyarrow",
                                      zero_copy_batch=True)
                    .groupby("u").count().to_pandas()["u"]
                    .to_numpy(np.int64))
    labels = nodes.copy()

    for _ in range(rounds):
        ref = ray.put((nodes, labels))

        def vote_partial(t: pa.Table, ref=ref) -> pa.Table:
            nd, lb = ray.get(ref)
            a = t["user_a"].to_numpy(zero_copy_only=False)
            b = t["user_b"].to_numpy(zero_copy_only=False)
            node = np.concatenate([a, b])
            nbr_lbl = np.concatenate([lb[np.searchsorted(nd, b)],
                                      lb[np.searchsorted(nd, a)]])
            import pandas as pd

            g = pd.DataFrame({"node": node, "lbl": nbr_lbl}) \
                .groupby(["node", "lbl"], sort=False).size() \
                .reset_index(name="c")
            return pa.Table.from_pandas(g, preserve_index=False)

        counts = edges.map_batches(vote_partial, batch_format="pyarrow",
                                   zero_copy_batch=True) \
            .groupby(["node", "lbl"]) \
            .aggregate(Sum("c", alias_name="c")) \
            .to_pandas()   # node-bounded (≤ nodes × distinct labels)
        win = counts.sort_values(["node", "c", "lbl"],
                                 ascending=[True, False, True],
                                 kind="mergesort") \
            .drop_duplicates("node")
        new_labels = labels.copy()
        pos = np.searchsorted(nodes, win["node"].to_numpy(np.int64))
        new_labels[pos] = win["lbl"].to_numpy(np.int64)
        if np.array_equal(new_labels, labels):
            break              # converged: further rounds are no-ops
        labels = new_labels

    import pandas as pd

    return pd.DataFrame({"user_id": nodes,
                         "community": labels.astype(np.int64)})


def lpa_communities_sql(rounds: int = 4, cap: int = 200,
                        min_shared: int = 5,
                        table: str = "events") -> str:
    """Unrolled-round DuckDB twin over the strong-tie co-occurrence
    edges (MATERIALIZED chain — the bpe_merges lesson)."""
    from .sessions import cooccur_cte_body

    parts = [f"""lp_e AS MATERIALIZED (
  SELECT user_a AS a, user_b AS b FROM p
  GROUP BY user_a, user_b HAVING count(*) >= {min_shared}),
lp_d AS MATERIALIZED (
  SELECT a AS node, b AS nbr FROM lp_e
  UNION ALL SELECT b, a FROM lp_e),
lp_l0 AS MATERIALIZED (
  SELECT DISTINCT node AS u, node AS lbl FROM lp_d)"""]
    for i in range(1, rounds + 1):
        parts.append(f"""lp_c{i} AS MATERIALIZED (
  SELECT d.node, l.lbl, count(*) AS c
  FROM lp_d d JOIN lp_l{i - 1} l ON l.u = d.nbr
  GROUP BY d.node, l.lbl),
lp_l{i} AS MATERIALIZED (
  SELECT node AS u, lbl FROM (
    SELECT node, lbl,
           row_number() OVER (PARTITION BY node
                              ORDER BY c DESC, lbl) AS rk
    FROM lp_c{i}) WHERE rk = 1)""")
    chain = ",\n".join(parts)
    return f"""
WITH {cooccur_cte_body(cap, table)},
{chain}
SELECT u AS user_id, lbl::BIGINT AS community
FROM lp_l{rounds} ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# community modularity audit
# ---------------------------------------------------------------------------

def community_modularity(edges_ds, rounds: int = 4):
    """Exact-integer Newman modularity of the label-propagation
    partition — the "did community detection actually find structure"
    audit: per community its node count, internal edge count ``l_c``
    and degree sum ``d_c``, plus the global
    ``Q = Σ_c (l_c/m − (d_c/2m)²)`` in exact ppm
    (``Q·4m² = Σ_c (4·m·l_c − d_c²)`` — integer arithmetic with the
    numerator kept in PYTHON ints because ``4m²`` overflows int64 past
    ~1.5e9 edges; the twin sums HUGEINT for the same reason).

    Output: (community, n_nodes, l_c, d_c, q_ppm) with q_ppm the
    partition scalar repeated per row; signed division uses the
    truncation-safe abs trick on both sides.

    Scale shape: labels are node-bounded (lpa_communities contract)
    and broadcast via ``ray.put``; ONE streamed decorate pass over the
    edge list emits per-batch (community, l, d) partials into a
    community-bounded groupby — the edges are never shuffled.
    """
    import ray
    from ray.data.aggregate import Sum

    import pandas as pd

    edges = edges_ds.select_columns(["user_a", "user_b"]).materialize()
    lab = lpa_communities(edges, rounds=rounds)
    if len(lab) == 0:
        return pa.table({"community": pa.array([], pa.int64()),
                         "n_nodes": pa.array([], pa.int64()),
                         "l_c": pa.array([], pa.int64()),
                         "d_c": pa.array([], pa.int64()),
                         "q_ppm": pa.array([], pa.int64())})
    nodes = lab["user_id"].to_numpy(np.int64)
    labels = lab["community"].to_numpy(np.int64)
    ref = ray.put((nodes, labels))

    def part(t: pa.Table, ref=ref) -> pa.Table:
        nd, lb = ray.get(ref)
        a = t["user_a"].to_numpy(zero_copy_only=False)
        b = t["user_b"].to_numpy(zero_copy_only=False)
        la = lb[np.searchsorted(nd, a)]
        lbv = lb[np.searchsorted(nd, b)]
        intra = pd.Series(la[la == lbv]).value_counts()
        deg = pd.Series(np.concatenate([la, lbv])).value_counts()
        comm = sorted(set(intra.index) | set(deg.index))
        return pa.table({
            "community": pa.array(comm, pa.int64()),
            "l": pa.array([int(intra.get(c, 0)) for c in comm],
                          pa.int64()),
            "d": pa.array([int(deg.get(c, 0)) for c in comm],
                          pa.int64())})

    rows = edges.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby("community").aggregate(Sum("l", alias_name="l"),
                                        Sum("d", alias_name="d")) \
        .take_all()
    lc = {int(r["community"]): int(r["l"]) for r in rows}
    dc = {int(r["community"]): int(r["d"]) for r in rows}
    m = edges.count()
    n_nodes = pd.Series(labels).value_counts()
    comms = sorted(set(labels))
    num = sum(4 * m * lc.get(c, 0) - dc.get(c, 0) ** 2 for c in comms)
    den = 4 * m * m
    q_ppm = (1_000_000 * num) // den if num >= 0 \
        else -((1_000_000 * -num) // den)
    return pa.table({
        "community": pa.array(comms, pa.int64()),
        "n_nodes": pa.array([int(n_nodes[c]) for c in comms],
                            pa.int64()),
        "l_c": pa.array([lc.get(c, 0) for c in comms], pa.int64()),
        "d_c": pa.array([dc.get(c, 0) for c in comms], pa.int64()),
        "q_ppm": pa.array([q_ppm] * len(comms), pa.int64()),
    })


def community_modularity_sql(rounds: int = 4, cap: int = 200,
                             min_shared: int = 5,
                             table: str = "events") -> str:
    """Twin: the lpa chain's final labels + the same strong-tie edges,
    rolled into per-community l_c/d_c and the HUGEINT Q numerator."""
    base = lpa_communities_sql(rounds=rounds, cap=cap,
                               min_shared=min_shared, table=table)
    # reuse everything up to the final SELECT of the lpa twin
    head = base[:base.rindex("SELECT u AS user_id")].rstrip()
    return f"""{head},
cm_l AS (SELECT u, lbl FROM lp_l{rounds}),
cm_m AS (SELECT count(*) AS m FROM lp_e),
cm_lc AS (
  SELECT la.lbl AS community, count(*) AS l_c
  FROM lp_e e JOIN cm_l la ON la.u = e.a
  JOIN cm_l lb ON lb.u = e.b
  WHERE la.lbl = lb.lbl GROUP BY la.lbl),
cm_dc AS (
  SELECT l.lbl AS community, count(*) AS d_c
  FROM lp_d d JOIN cm_l l ON l.u = d.node GROUP BY l.lbl),
cm_n AS (
  SELECT lbl AS community, count(*) AS n_nodes FROM cm_l
  GROUP BY lbl),
cm_q AS (
  SELECT sum(4 * m.m::HUGEINT * coalesce(lc.l_c, 0)
             - dc.d_c::HUGEINT * dc.d_c) AS num,
         4 * any_value(m.m)::HUGEINT * any_value(m.m) AS den
  FROM cm_dc dc LEFT JOIN cm_lc lc ON lc.community = dc.community
  CROSS JOIN cm_m m)
SELECT n.community, n.n_nodes::BIGINT AS n_nodes,
       coalesce(lc.l_c, 0)::BIGINT AS l_c, dc.d_c::BIGINT AS d_c,
       (CASE WHEN q.num >= 0 THEN (1000000 * q.num) // q.den
             ELSE -((1000000 * -q.num) // q.den) END)::BIGINT AS q_ppm
FROM cm_n n
LEFT JOIN cm_lc lc ON lc.community = n.community
JOIN cm_dc dc ON dc.community = n.community
CROSS JOIN cm_q q
ORDER BY n.community
"""


# ---------------------------------------------------------------------------
# hierarchy subtree rollup (pointer doubling)
# ---------------------------------------------------------------------------

def subtree_balance_rollup(customer_ds, fanout: int = 3):
    """Hierarchical aggregation over a synthetic org tree on customers
    (``parent(ck) = (ck−1)//fanout``, root 0): per node, the number of
    descendants (self included) and the exact subtree balance in cents
    — the category-tree / org-chart rollup shape relational engines do
    with RECURSIVE CTEs.

    Scale shape: the ancestor closure builds by PATH DOUBLING with an
    explicit distance column — round k composes the accumulated
    closure (distances 1..2^k) with the pure 2^k jump set, covering
    distances 2^k+1..2^(k+1) each EXACTLY once (unique ancestor-chain
    decomposition, so no dedup pass is needed); a depth-d tree takes
    ⌈log₂ d⌉ bucketed-join rounds, not d, and the pair set stays
    Σ-depth-bounded.  The rollup is one groupby over (pair + self)
    contribution rows decorated with node cents via one more bucketed
    join.  No driver state grows with the tree.
    """
    import math

    from ray.data.aggregate import Count, Sum

    from ..ops.join import bucketed_hash_join

    def base(t: pa.Table) -> pa.Table:
        ck = t["c_custkey"].to_numpy(zero_copy_only=False)
        v = t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0
        cents = np.copysign(np.floor(np.abs(v) + 0.5), v) \
            .astype(np.int64)
        return pa.table({"node": pa.array(ck, pa.int64()),
                         "cents": pa.array(cents, pa.int64())})

    nodes = customer_ds.select_columns(["c_custkey", "c_acctbal"]) \
        .map_batches(base, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "n_desc": pa.array([], pa.int64()),
                         "subtree_cents": pa.array([], pa.int64())})

    def parent_edges(t: pa.Table) -> pa.Table:
        ck = t["node"].to_numpy(zero_copy_only=False)
        m = ck > 0
        # the leaf's cents ride along the closure rows so the final
        # rollup needs NO decoration join
        return pa.table({"node": pa.array(ck[m], pa.int64()),
                         "anc": pa.array((ck[m] - 1) // fanout,
                                         pa.int64()),
                         "dist": pa.array(np.ones(int(m.sum()),
                                                  np.int64)),
                         "cents": pa.array(t["cents"].to_numpy(
                             zero_copy_only=False)[m], pa.int64())})

    closure = nodes.map_batches(parent_edges, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
    jump = closure           # pure distance-2^k set, k = 0
    jlen = 1
    max_depth = max(1, math.ceil(
        math.log(max(n_nodes, 2)) / math.log(fanout)) + 1)
    while jlen < max_depth:
        right = jump.map_batches(
            lambda t: pa.table({"mid": t["node"], "anc2": t["anc"]}),
            batch_format="pyarrow")
        # distances (1..jlen) + jlen -> jlen+1 .. 2*jlen, each once
        nxt = bucketed_hash_join(closure, right, "anc", "mid")

        def emit(t: pa.Table, add=jlen) -> pa.Table:
            return pa.table({
                "node": t["node"], "anc": t["anc2"],
                "dist": pa.array(t["dist"].to_numpy(
                    zero_copy_only=False) + add, pa.int64()),
                "cents": t["cents"]})

        nxt = nxt.map_batches(emit, batch_format="pyarrow") \
            .materialize()
        if nxt.count() == 0:
            break
        closure = closure.union(nxt).materialize()
        jump = nxt.filter(expr=f"dist == {2 * jlen}").materialize()
        jlen *= 2

    pairs = closure.map_batches(
        lambda t: pa.table({"anc": t["anc"], "cents": t["cents"]}),
        batch_format="pyarrow")
    selfp = nodes.map_batches(
        lambda t: pa.table({"anc": t["node"], "cents": t["cents"]}),
        batch_format="pyarrow")
    rolled = pairs.union(selfp).groupby("anc").aggregate(
        Count(alias_name="n_desc"),
        Sum("cents", alias_name="subtree_cents")).take_all()
    rolled.sort(key=lambda r: r["anc"])
    return pa.table({
        "node": pa.array([int(r["anc"]) for r in rolled], pa.int64()),
        "n_desc": pa.array([int(r["n_desc"]) for r in rolled],
                           pa.int64()),
        "subtree_cents": pa.array(
            [int(r["subtree_cents"]) for r in rolled], pa.int64()),
    })


def subtree_balance_rollup_sql(fanout: int = 3) -> str:
    return f"""
WITH RECURSIVE sb_n AS (
  SELECT c_custkey AS node,
         CAST(round(c_acctbal * 100) AS BIGINT) AS cents
  FROM customer),
sb_r(node, anc) AS (
  SELECT node, (node - 1) // {fanout} FROM sb_n WHERE node > 0
  UNION
  SELECT r.node, (r.anc - 1) // {fanout}
  FROM sb_r r WHERE r.anc > 0),
sb_all AS (
  SELECT node, anc FROM sb_r
  UNION ALL
  SELECT node, node FROM sb_n)
SELECT a.anc AS node, count(*) AS n_desc,
       sum(n.cents)::BIGINT AS subtree_cents
FROM sb_all a JOIN sb_n n ON n.node = a.node
GROUP BY a.anc ORDER BY a.anc
"""


# ---------------------------------------------------------------------------
# personalized PageRank (seed teleport)
# ---------------------------------------------------------------------------

def personalized_pagerank(edges_ds, n_seeds: int = 5, iters: int = 5,
                          scale: int = 10 ** 9, damp: int = 85):
    """Personalized PageRank over a symmetrized edge list: the teleport
    mass goes ONLY to the ``n_seeds`` smallest node ids (the "rank
    relative to a seed set" recsys/trust-propagation variant of
    ``pagerank``).  Same integer-exact recurrence — ranks at ``scale``
    fixed point, contributions ``r // deg``, update
    ``[u ∈ seeds]·(scale·(100−damp))//(100·|seeds|)
    + (damp·Σcontrib)//100`` — so the unrolled CTE twin replays it
    bit-for-bit.  Returns (user_id, rank_scaled).

    Scale shape: identical to ``pagerank`` (degree rides the edge list
    once, each round is one bucketed join + one groupby-sum); the seed
    set is a sorted-ids head, broadcast as a tiny frozenset.
    """
    from ray.data.aggregate import Count, Sum

    from .join import bucketed_hash_join

    deg = edges_ds.groupby("src").aggregate(Count(alias_name="deg")) \
        .materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "rank_scaled": pa.array([], pa.int64())})
    nodes = sorted(r["src"] for r in
                   deg.select_columns(["src"]).take_all())
    seeds = frozenset(nodes[:n_seeds])
    base = (scale * (100 - damp)) // (100 * len(seeds))

    e2 = bucketed_hash_join(
        edges_ds, deg.rename_columns({"src": "u"}),
        left_on="src", right_on="u").materialize()

    r0 = scale // n_nodes

    def init_ranks(t: pa.Table) -> pa.Table:
        return pa.table({"u": t["src"],
                         "r": pa.array(np.full(t.num_rows, r0,
                                               np.int64), pa.int64())})

    ranks = deg.map_batches(init_ranks, batch_format="pyarrow") \
        .materialize()

    def contrib(t: pa.Table) -> pa.Table:
        r = t["r"].to_numpy(zero_copy_only=False)
        d = t["deg"].to_numpy(zero_copy_only=False)
        return pa.table({"dst": t["dst"],
                         "c": pa.array(r // d, pa.int64())})

    def update(t: pa.Table) -> pa.Table:
        s = t["c"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        b = np.where(np.isin(dst, np.array(sorted(seeds), np.int64)),
                     base, 0)
        return pa.table({"u": pa.array(dst, pa.int64()),
                         "r": pa.array(b + (damp * s) // 100,
                                       pa.int64())})

    for _ in range(iters):
        j = bucketed_hash_join(e2, ranks, left_on="src", right_on="u")
        sums = j.map_batches(contrib, batch_format="pyarrow",
                             zero_copy_batch=True) \
            .groupby("dst").aggregate(Sum("c", alias_name="c"))
        ranks = sums.map_batches(update, batch_format="pyarrow") \
            .materialize()

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays([t["u"], t["r"]],
                                    names=["user_id", "rank_scaled"])

    return ranks.map_batches(finish, batch_format="pyarrow")


def personalized_pagerank_sql(n_seeds: int = 5, iters: int = 5,
                              scale: int = 10 ** 9, damp: int = 85,
                              cap: int = 200,
                              table: str = "events") -> str:
    """Twin: the pagerank chain with a seeds CTE and CASE teleport."""
    from .sessions import cooccur_cte_body

    parts = [cooccur_cte_body(cap, table)]
    parts.append("""ed AS (
  SELECT DISTINCT user_a AS src, user_b AS dst FROM p
  UNION
  SELECT DISTINCT user_b AS src, user_a AS dst FROM p)""")
    parts.append(
        "dg AS (SELECT src, count(*) AS deg FROM ed GROUP BY src)")
    parts.append("nn AS (SELECT count(*) AS n FROM dg)")
    parts.append(f"""sd AS (
  SELECT src AS u FROM dg ORDER BY src LIMIT {n_seeds})""")
    parts.append("sn AS (SELECT count(*) AS ns FROM sd)")
    parts.append(
        f"r0 AS (SELECT src AS u, (SELECT {scale}::BIGINT // n FROM nn)"
        f"::BIGINT AS r FROM dg)")
    for i in range(1, iters + 1):
        parts.append(f"""r{i} AS (
  SELECT e.dst AS u,
         (CASE WHEN e.dst IN (SELECT u FROM sd)
               THEN (SELECT ({scale}::BIGINT * {100 - damp})
                     // (100 * ns) FROM sn) ELSE 0 END
          + ({damp}::BIGINT * sum(r.r // d.deg)) // 100)::BIGINT AS r
  FROM ed e
  JOIN r{i - 1} r ON r.u = e.src
  JOIN dg d ON d.src = e.src
  GROUP BY e.dst)""")
    return f"""
WITH {', '.join(parts)}
SELECT u AS user_id, r AS rank_scaled FROM r{iters} ORDER BY u
"""
