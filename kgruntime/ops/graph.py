"""Iterative graph algorithms on Ray Data: integer-exact PageRank,
k-core, label propagation, modularity, triangles and components.

Node-bounded state lives on the driver: sorted int64 node ids plus
int64 arrays (ranks, degrees, labels, survivors).  Each round
broadcasts it ONCE with ``ray.put``; a streamed pass over the edge list
reads it with ``stages/broadcast.cached_get`` and ``searchsorted`` and
emits per-edge rows, and ONE ``groups.fold`` — a per-batch Arrow
``group_by`` merged on the driver — brings the node-bounded aggregate
back.  The edge list is materialized once and never shuffled; the only
exchanges left are the wide steps whose keys are unbounded
(``triangle_count``'s wedge stage and wedge match).
``subtree_balance_rollup`` needs no state at all: its parent is
arithmetic, so each row emits its own ancestor chain into one ``fold``.
At node sets beyond a broadcast, the state would go back to a bucketed
join per round.

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

from .groups import fold


def _find(ids: np.ndarray, x: np.ndarray):
    """Positions of ``x`` in the sorted ``ids`` and the mask of the
    ``x`` found there."""
    i = np.searchsorted(ids, x)
    if not len(ids):
        return i, np.zeros(len(x), bool)
    i = np.minimum(i, len(ids) - 1)
    return i, ids[i] == x


def _ends(t: pa.Table) -> pa.Table:
    """Both endpoints of each (user_a, user_b) edge as one column ``u``."""
    return pa.table({"u": pa.concat_arrays([
        t["user_a"].combine_chunks().cast(pa.int64()),
        t["user_b"].combine_chunks().cast(pa.int64())])})


def _degrees(edges):
    """(sorted node ids, degrees) of an undirected (user_a, user_b)
    edge Dataset."""
    deg = fold(edges.map_batches(_ends, batch_format="pyarrow",
                                 zero_copy_batch=True),
               "u", {"d": ("count", None)})
    return deg["u"].to_numpy(), deg["d"].to_numpy()


def _rank_rounds(edges_ds, n_seeds, iters: int, scale: int,
                 damp: int) -> pa.Table:
    """The rank loop of ``pagerank`` (``n_seeds`` None: the teleport
    mass goes to every node) and ``personalized_pagerank`` (only to
    the ``n_seeds`` smallest source ids).

    The driver holds the rank table (sorted node ids, ranks) and the
    out-degrees.  Each round broadcasts (ranked sources, ``r // deg``)
    once; a map over the edges emits ``(dst, r // deg)`` for every edge
    whose source is ranked, ``fold`` sums those by ``dst``, and the
    driver applies ``base + (damp · Σ) // 100``.  Inner-join semantics,
    as the SQL twins: a node that receives no contribution in a round
    leaves the rank table, and a dst-only node gets a rank.
    """
    import ray

    from ..stages.broadcast import cached_get

    edges = edges_ds.select_columns(["src", "dst"]).materialize()
    deg = fold(edges, "src", {"deg": ("count", None)})
    src = deg["src"].to_numpy()
    out_deg = deg["deg"].to_numpy()
    seeds = src[:n_seeds]
    if not len(seeds):
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "rank_scaled": pa.array([], pa.int64())})
    base = (scale * (100 - damp)) // (100 * len(seeds))
    ids = src
    r = np.full(len(src), scale // len(src), np.int64)

    def contrib(t: pa.Table, ref) -> pa.Table:
        ranked, c = cached_get(ref, tag="pagerank-contrib")
        i, hit = _find(ranked, t["src"].to_numpy())
        return pa.table({"dst": pa.array(t["dst"].to_numpy()[hit],
                                         pa.int64()),
                         "c": pa.array(c[i[hit]], pa.int64())})

    for _ in range(iters):
        i, on = _find(src, ids)     # ranked nodes with out-edges
        ref = ray.put((ids[on], r[on] // out_deg[i[on]]))
        sums = fold(edges.map_batches(contrib, fn_kwargs={"ref": ref},
                                      batch_format="pyarrow",
                                      zero_copy_batch=True),
                    "dst", {"c": ("sum", "c")})
        ids = sums["dst"].to_numpy()
        tele = base if n_seeds is None else \
            np.where(_find(seeds, ids)[1], base, 0)
        r = tele + (damp * sums["c"].to_numpy()) // 100
    return pa.table({"user_id": pa.array(ids, pa.int64()),
                     "rank_scaled": pa.array(r, pa.int64())})


def pagerank(edges_ds, iters: int = 5, scale: int = 10 ** 9,
             damp: int = 85):
    """PageRank over a DIRECTED edge list Dataset (src:int64,
    dst:int64); returns a pa.Table (user_id, rank_scaled) with ranks at
    ``scale`` fixed-point.  The nodes are the distinct sources, each
    starting at ``scale // n``; every node that receives mass gets the
    teleport ``(scale·(100−damp)) // (100·n)`` (feed a symmetrized edge
    list for undirected graphs — then every node also receives mass).
    Scale shape: ``_rank_rounds``.
    """
    return _rank_rounds(edges_ds, None, iters, scale, damp)


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


def triangle_count(edges_ds):
    """Global triangle census of an undirected graph —
    one row (n_nodes, n_edges, n_wedges, n_triangles,
    global_clustering) with clustering = 3·triangles / wedges.

    Compact-forward shape: edges are oriented low→high by
    (degree, id) — under that total order every out-degree is O(√m),
    so the wedge fan-out at hub nodes is bounded WITHOUT a cap (the
    standard scalability fix for triangle joins; contrast the capped
    LSH/co-occurrence buckets).  Stages:

    1. degrees: one ``groups.fold`` over the exploded endpoints; the
       (node → degree) vector broadcasts via ``ray.put`` + searchsorted;
    2. orientation, then wedge generation in one ``segment_map`` on the
       oriented source (a vectorized segment sweep per coarse block);
    3. ONE groupby((v, w)) matching wedges against oriented edges:
       triangles = Σ wedge-multiplicity where the closing edge exists.

    Everything is exact integer arithmetic except the final clustering
    ratio (two int→double casts + divide, rounded half-away at 6) —
    the DuckDB twin replays all of it.
    """
    import pandas as pd
    import ray
    from ray.data.aggregate import Max, Sum

    from ..stages.broadcast import cached_get
    from .groups import segment_map, segment_pairs

    edges = edges_ds.select_columns(["user_a", "user_b"]).materialize()

    # --- stage 1: degrees ------------------------------------------------
    nodes, degs = _degrees(edges)
    n_nodes = len(nodes)
    n_wedges = int((degs.astype(object) * (degs.astype(object) - 1)
                    ).sum() // 2)
    deg_ref = ray.put((nodes, degs))

    # --- stage 2: orient + wedges ---------------------------------------
    def orient(t: pa.Table) -> pa.Table:
        nd, dg = cached_get(deg_ref, tag="triangle_count-degrees")
        a = t["user_a"].to_numpy().astype(np.int64)
        b = t["user_b"].to_numpy().astype(np.int64)
        da = dg[np.searchsorted(nd, a)]
        db = dg[np.searchsorted(nd, b)]
        # total order: (degree, id) — a<b already, so swap iff b ranks
        # strictly lower
        swap = (db < da) | ((db == da) & (b < a))
        return pa.table({"s": pa.array(np.where(swap, b, a), pa.int64()),
                         "d": pa.array(np.where(swap, a, b), pa.int64())})

    oriented = edges.map_batches(orient, batch_format="pyarrow",
                                 zero_copy_batch=True)

    def wedges(block: pa.Table, starts: np.ndarray) -> pa.Table:
        nd, dg = cached_get(deg_ref, tag="triangle_count-degrees")
        s = block["s"].to_numpy()
        d = block["d"].to_numpy()
        # order each source's neighbors by the SAME (degree, id) total
        # order, so the closing edge, if present, is oriented v→w
        d = d[np.lexsort((d, dg[np.searchsorted(nd, d)], s))]
        i, j = segment_pairs(starts, np.diff(np.append(starts, len(s))))
        g = pa.table({"v": pa.array(d[i], pa.int64()),
                      "w": pa.array(d[j], pa.int64())}) \
            .group_by(["v", "w"]).aggregate([([], "count_all")])
        return pa.table({"v": g["v"], "w": g["w"],
                         "n_wedge": g["count_all"],
                         "is_edge": pa.array(np.zeros(g.num_rows,
                                                      np.int64))})

    wedge_ds = segment_map(oriented, "s", wedges)
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


def k_core(edges_ds, k: int = 3, rounds: int = 8) -> pa.Table:
    """Fixed-round k-core peel of an undirected graph
    (``user_a`` < ``user_b`` int64 edge rows, e.g. the strong-tie
    co-occurrence edges): repeatedly drop nodes with degree < k, then
    report every node still in the edge set with its residual degree
    as a pa.Table ``(user_id, core_degree)``.

    Synchronous-rounds shape: each round is ONE ``groups.fold`` (the
    degrees over the exploded endpoints) plus ONE streamed filter pass
    over the edge list, which reads the survivors — a sorted int64
    array broadcast via ``ray.put`` — with searchsorted.  The last
    round's degrees are the answer, so once no node drops the loop
    stops: further SQL rounds are no-ops, and the ``rounds``-unrolled
    oracle still matches bit-for-bit.
    """
    import ray

    from ..stages.broadcast import cached_get

    def survive(t: pa.Table, ref) -> pa.Table:
        kp = cached_get(ref, tag="k_core-survivors")
        return t.filter(pa.array(_find(kp, t["user_a"].to_numpy())[1]
                                 & _find(kp, t["user_b"].to_numpy())[1]))

    cur = edges_ds.select_columns(["user_a", "user_b"]).materialize()
    nodes, degs = _degrees(cur)
    for _ in range(rounds):
        keep = degs >= k
        if keep.all():          # nothing drops: further rounds are no-ops
            break
        cur = cur.map_batches(survive, fn_kwargs={
            "ref": ray.put(nodes[keep])}, batch_format="pyarrow") \
            .materialize()
        nodes, degs = _degrees(cur)
    return pa.table({"user_id": pa.array(nodes, pa.int64()),
                     "core_degree": pa.array(degs, pa.int64())})


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
    after ``rounds``: a DataFrame (user_id, community).

    Scale shape per round: the label table is node-bounded and
    broadcasts via ``ray.put`` (searchsorted decorate); ONE streamed
    pass over the edges emits (node, neighbor_label) rows, ONE
    ``groups.fold`` counts them, and the argmax/tie-break runs on the
    driver over the node-bounded count table.  The corpus-sized edge
    list is never shuffled — only decorated.
    """
    import pandas as pd
    import ray

    from ..stages.broadcast import cached_get
    from .groups import run_starts

    def votes(t: pa.Table, ref) -> pa.Table:
        nd, lb = cached_get(ref, tag="lpa_communities-labels")
        a = t["user_a"].to_numpy()
        b = t["user_b"].to_numpy()
        return pa.table({
            "node": pa.array(np.concatenate([a, b]), pa.int64()),
            "lbl": pa.array(np.concatenate([lb[np.searchsorted(nd, b)],
                                            lb[np.searchsorted(nd, a)]]),
                            pa.int64())})

    edges = edges_ds.select_columns(["user_a", "user_b"]).materialize()
    nodes, _ = _degrees(edges)
    labels = nodes.copy()
    for _ in range(rounds):
        counts = fold(edges.map_batches(votes, fn_kwargs={
            "ref": ray.put((nodes, labels))}, batch_format="pyarrow",
            zero_copy_batch=True), ["node", "lbl"], {"c": ("count", None)})
        node = counts["node"].to_numpy()
        lbl = counts["lbl"].to_numpy()
        # per node: the highest count, then the smallest label
        win = np.lexsort((lbl, -counts["c"].to_numpy(), node))
        win = win[run_starts(node[win])]
        new_labels = labels.copy()
        new_labels[np.searchsorted(nodes, node[win])] = lbl[win]
        if np.array_equal(new_labels, labels):
            break              # converged: further rounds are no-ops
        labels = new_labels
    return pd.DataFrame({"user_id": nodes, "community": labels})


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
    edge list emits a (community, l, d) row per edge end into ONE
    ``groups.fold`` — the edges are never shuffled.
    """
    import ray

    from ..stages.broadcast import cached_get

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

    def ends(t: pa.Table, ref) -> pa.Table:
        nd, lb = cached_get(ref, tag="community_modularity-labels")
        la = lb[np.searchsorted(nd, t["user_a"].to_numpy())]
        lbv = lb[np.searchsorted(nd, t["user_b"].to_numpy())]
        return pa.table({
            "community": pa.array(np.concatenate([la, lbv]), pa.int64()),
            # an internal edge counts once, on its user_a end
            "l": pa.array(np.concatenate([la == lbv,
                                          np.zeros(len(lbv), bool)])
                          .astype(np.int64)),
            "d": pa.array(np.ones(2 * len(la), np.int64))})

    # every node ends an edge, so every community has a row
    rows = fold(edges.map_batches(ends, fn_kwargs={
        "ref": ray.put((nodes, labels))}, batch_format="pyarrow",
        zero_copy_batch=True), "community",
        {"l": ("sum", "l"), "d": ("sum", "d")})
    comms, n_nodes = np.unique(labels, return_counts=True)
    lc = rows["l"].to_pylist()
    dc = rows["d"].to_pylist()
    m = edges.count()
    num = sum(4 * m * lv - dv ** 2 for lv, dv in zip(lc, dc))
    den = 4 * m * m
    q_ppm = (1_000_000 * num) // den if num >= 0 \
        else -((1_000_000 * -num) // den)
    return pa.table({
        "community": pa.array(comms, pa.int64()),
        "n_nodes": pa.array(n_nodes, pa.int64()),
        "l_c": pa.array(lc, pa.int64()),
        "d_c": pa.array(dc, pa.int64()),
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
# hierarchy subtree rollup (per-row ancestor chains)
# ---------------------------------------------------------------------------

def subtree_balance_rollup(customer_ds, fanout: int = 3) -> pa.Table:
    """Hierarchical aggregation over a synthetic org tree on customers
    (``parent(ck) = (ck−1)//fanout``, root 0): per node, the number of
    descendants (self included) and the exact subtree balance in cents
    — the category-tree / org-chart rollup shape relational engines do
    with RECURSIVE CTEs.

    Scale shape: the parent is arithmetic, so no join builds the
    ancestor closure: one map emits ``(anc, cents)`` for each node and
    for every ancestor on its chain to the root (≤ ⌈log_fanout n⌉ + 1
    numpy steps per batch), and one ``groups.fold`` counts and sums
    them per ancestor on the driver — no exchange.  A batch of
    consecutive keys shares most ancestors, so its partial is about
    batch × fanout/(fanout − 1) rows; the result is one row per node
    or ancestor, on the driver as the op's answer.
    """
    def chain(t: pa.Table) -> pa.Table:
        node = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0
        cents = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)
        anc, val = [node], [cents]
        while len(node):
            up = node > 0
            node, cents = (node[up] - 1) // fanout, cents[up]
            anc.append(node)
            val.append(cents)
        return pa.table({"anc": np.concatenate(anc),
                         "cents": np.concatenate(val)})

    return fold(customer_ds.select_columns(["c_custkey", "c_acctbal"])
                .map_batches(chain, batch_format="pyarrow",
                             zero_copy_batch=True),
                "anc", {"n_desc": ("count", None),
                        "subtree_cents": ("sum", "cents")}) \
        .rename_columns(["node", "n_desc", "subtree_cents"])


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
    bit-for-bit.  Returns a pa.Table (user_id, rank_scaled); the rank
    loop is ``pagerank``'s (``_rank_rounds``).
    """
    return _rank_rounds(edges_ds, n_seeds, iters, scale, damp)


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
