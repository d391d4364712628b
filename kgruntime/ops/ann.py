"""Approximate-nearest-neighbor search and the embedding-space audits.

Every broadcast-query top-k op (``brute_force_topk``, ``lsh_topk``,
``ivf_topk``, ``ann_recall_audit``, ``int8_quant_recall``,
``hard_negatives``, ``rp_projection_recall``, ``triplet_mining``,
``pq_quant_recall`` and the embedding side of ``rrf_fusion``) is one
skeleton, written once:

1. the op ``ray.put``s ONE state dict (``_scored``): the prepared
   query matrix ``q``, ``query_ids``, ``k``, the ranking function
   ``rank`` and everything else a scorer bakes in (LSH planes, IVF
   centroids, PQ codebooks, projection planes, anchor labels), so the
   ref names all of it;
2. every worker process fetches that state once
   (``stages/broadcast.cached_get``, one tag per op) and scores each
   batch with ``_topk_partials``: ``rank(state, batch, ids)`` returns
   one (key matrix, mask) pair per method — exact, int8, rp, pq,
   cosine, pos/neg — where the mask drops self, same- or
   different-label and unprobed candidates;
3. ``groups.first_k``, the library's one top-k prune (its contract is
   in the ``groups`` module docstring), keeps each query's first ``k``
   rows per method under (key DESC, neighbor_id ASC) — the global
   merge's own total order, so the local prune is lossless when keys
   tie;
4. ``_merged`` is the global merge: one ``groups.segment_map`` kernel
   runs the same ``first_k`` per query (or label, or vec_id), drops a
   neighbor that arrives twice, and hands the ranked rows to a
   ``finish`` that shapes the output (neighbors, ranks, or the recall
   audits' two-method intersection).  It exchanges on the query but
   ranks per (query, method), so it does not ride
   ``stats.grouped_topk``, whose segment is its exchange key.

The exchange carries O(queries × k × batches) rows, never the
embeddings.  ``lsh_topk`` and ``ivf_topk`` score each query against
the rows of its probed buckets or lists only.  ``knn_graph`` (a
self-join, no broadcast side) prunes per LSH bucket in a
``segment_map`` kernel and merges per vec_id with the same two
functions; ``embedding_outliers`` prunes and merges per label.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from .groups import first_k, fold

logger = logging.getLogger(__name__)


def _emb_matrix(batch: pa.Table) -> np.ndarray:
    """(B, dim) float64 matrix of the ``embedding`` list<float> column:
    flatten the list values buffer and reshape — never ``to_pylist``
    (which boxes every float as a Python object)."""
    arr = batch["embedding"]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.astype(np.float64, copy=False).reshape(len(arr), -1)


def _ids_vector(batch: pa.Table) -> np.ndarray:
    return batch["vec_id"].to_numpy(zero_copy_only=False).astype(
        np.int64, copy=False)


def _labels(batch: pa.Table) -> np.ndarray:
    return batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm (a zero row stays zero)."""
    return v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)


# --- the top-k skeleton (module docstring) ----------------------------------

def _partials(key: str, kv, method, score, nbr) -> pa.Table:
    """The rows every prune emits and ``_merged`` reads."""
    return pa.table({key: kv, "method": pa.array(method, pa.int8()),
                     "score": score,
                     "neighbor_id": pa.array(nbr, pa.int64())})


def _topk_partials(st: dict, batch: pa.Table) -> pa.Table:
    """The scorer of every broadcast-query top-k op: one batch against
    the broadcast state ``st``.  ``st["rank"](st, batch, ids)`` returns
    one (key matrix, mask or None) pair per method, each (queries,
    rows); every query keeps its first ``st["k"]`` unmasked rows per
    method."""
    qids = st["query_ids"]
    if batch.num_rows == 0 or len(qids) == 0:
        none = np.zeros(0, np.int64)
        return _partials("query_id", none, none,
                         none.astype(st["q"].dtype), none)
    ids = _ids_vector(batch)
    qi, meth, key, col = [], [], [], []
    for m, (s, mask) in enumerate(st["rank"](st, batch, ids)):
        r, c = np.nonzero(np.ones(s.shape, bool) if mask is None else mask)
        qi.append(r)
        meth.append(np.full(len(r), m, np.int8))
        key.append(s[r, c])
        col.append(c)
    qi, meth, key, col = map(np.concatenate, (qi, meth, key, col))
    sel, _ = first_k((qi, meth), key, ids[col], st["k"])
    return _partials("query_id", qids[qi[sel]], meth[sel], key[sel],
                     ids[col[sel]])


def _scored(ds, tag: str, query_ids, k: int, **state):
    """The per-batch partials of a broadcast-query top-k op: ``state``
    with ``query_ids`` and ``k`` is ``ray.put`` once, fetched once per
    worker process under ``tag`` (``cached_get``), and every batch of
    ``ds`` goes through ``_topk_partials`` — a task pool, no actors."""
    import ray

    from ..stages.broadcast import cached_get

    ref = ray.put(dict(state, query_ids=np.asarray(query_ids, np.int64),
                       k=k))

    def score(batch: pa.Table) -> pa.Table:
        return _topk_partials(cached_get(ref, tag=tag), batch)

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def _merged(partials, key: str, k: int, finish):
    """The global merge, one ``segment_map`` kernel: each (``key``,
    method)'s first ``k`` rows by ``groups.take_first_k``, with their
    1-based ``rnk``, go to ``finish(table)``, which shapes the output."""
    from .groups import segment_map, take_first_k

    def kernel(block: pa.Table, starts) -> pa.Table:
        return finish(take_first_k(block, [key, "method"], "score",
                                   "neighbor_id", k, rank_col="rnk"))

    return segment_map(partials, key, kernel)


def _neighbor_rows(t: pa.Table) -> pa.Table:
    """(query_id, neighbor_id, cosine), the cosine rounded at 6
    digits."""
    return pa.table({
        "query_id": t["query_id"], "neighbor_id": t["neighbor_id"],
        "cosine": pa.array([round(x, 6) for x in t["score"].to_pylist()],
                           pa.float64())})


def _recall_rows(hit: str, k: int):
    """The recall audits' finish: per query, the number of neighbors in
    BOTH methods' top-k sets (a neighbor is in each set once) and its
    ppm of ``k``."""

    def finish(t: pa.Table) -> pa.Table:
        q, n = t["query_id"].to_numpy(), t["neighbor_id"].to_numpy()
        order = np.lexsort((n, q))
        q, n = q[order], n[order]
        both = (q[1:] == q[:-1]) & (n[1:] == n[:-1])
        qs = np.unique(q)
        hits = np.bincount(np.searchsorted(qs, q[1:][both]),
                           minlength=len(qs))
        return pa.table({"query_id": qs, hit: hits,
                         "recall_ppm": hits * 1_000_000 // k})

    return finish


def _not_self(st: dict, ids: np.ndarray) -> np.ndarray:
    return st["query_ids"][:, None] != ids[None, :]


def _rank_cosine(st, batch, ids):
    """Cosine of every query against every row, self masked."""
    return [(st["q"] @ _unit_rows(_emb_matrix(batch)).T,
             _not_self(st, ids))]


def brute_force_topk(emb_ds, queries: np.ndarray, query_ids: list[int],
                     k: int = 5):
    """Top-k cosine neighbors of each query vector, self excluded:
    (query_id, neighbor_id, cosine).  The normalized query matrix is
    broadcast once; every batch is one float64 matmul against it."""
    parts = _scored(emb_ds, "brute_force_topk-queries", query_ids, k,
                    rank=_rank_cosine,
                    q=_unit_rows(np.asarray(queries, np.float64)))
    return _merged(parts, "query_id", k, _neighbor_rows)


def _probed(st, raw, row_lists, ids):
    """Cosine of each query against the rows of its probed lists only:
    ``st["lists"]`` maps a list id (LSH bucket, IVF cid) to the indices
    of the queries that probe it, ``row_lists`` holds each row's list
    ids, one row per table; every other pair is masked."""
    emb = _unit_rows(raw)
    sims = np.zeros((len(st["q"]), len(ids)))
    cand = np.zeros(sims.shape, bool)
    for lid, q_idx in st["lists"].items():
        rows = np.flatnonzero((row_lists == lid).any(axis=0))
        if len(rows):
            sims[np.ix_(q_idx, rows)] = st["q"][q_idx] @ emb[rows].T
            cand[np.ix_(q_idx, rows)] = True
    return [(sims, cand & _not_self(st, ids))]


def _rank_lsh(st, batch, ids):
    # keys from the RAW vectors (exact ints, shared with HyperplaneLSH
    # and the SQL twin); scoring on the normalized ones
    raw = _emb_matrix(batch)
    return _probed(st, raw, st["lsh"].keys_for(raw), ids)


def lsh_topk(emb_ds, queries: np.ndarray, query_ids: list[int],
             k: int = 5, n_planes: int = 8, n_tables: int = 4):
    """Bucketed ANN: score only vectors whose hyperplane signature
    matches a query's bucket in ANY of ``n_tables`` independent tables
    (multi-probe recall recovery: recall ≈ 1-(1-p^k)^L); the planes'
    width is the queries'.  Same output as brute force; approximate,
    ~n_tables/2^n_planes of the brute-force compute at scale."""
    from .dedup import HyperplaneLSH

    q = np.asarray(queries, dtype=np.float64)
    lsh = HyperplaneLSH(q.shape[1], n_planes,
                        n_tables=n_tables)  # same seed → same buckets
    lists: dict[int, list[int]] = {}
    for q_keys in lsh.keys_for(q):
        for i, key in enumerate(q_keys):
            lists.setdefault(int(key), []).append(i)
    parts = _scored(emb_ds, "lsh_topk-buckets", query_ids, k,
                    rank=_rank_lsh, q=_unit_rows(q), lsh=lsh, lists=lists)
    return _merged(parts, "query_id", k, _neighbor_rows)


def lsh_topk_sql(dim: int, k: int = 5, n_planes: int = 8,
                 n_tables: int = 4, n_queries: int = 10,
                 seed: int = 23) -> str:
    """SQL twin of ``lsh_topk``: bucket keys replayed exactly (integer
    fixed-point projections via ``lsh_keys_cte_sql``), candidates = any
    shared bucket across tables, ranked by cosine with vec_id
    tie-breaks — the same ranking convention as the passing brute-force
    ``ann_topk`` oracle."""
    from .dedup import lsh_keys_cte_sql

    return rf"""
        WITH {lsh_keys_cte_sql(dim, n_planes, seed, n_tables)},
        q AS (SELECT vec_id FROM embeddings ORDER BY vec_id
              LIMIT {n_queries}),
        qkeys AS (
          SELECT k.vec_id, k.bucket FROM keys k
          JOIN q ON q.vec_id = k.vec_id),
        cand AS (
          SELECT DISTINCT qk.vec_id AS query_id, dk.vec_id AS neighbor_id
          FROM qkeys qk JOIN keys dk ON dk.bucket = qk.bucket
          WHERE dk.vec_id != qk.vec_id),
        scored AS (
          SELECT c.query_id, c.neighbor_id,
                 row_number() OVER (
                   PARTITION BY c.query_id
                   ORDER BY list_cosine_similarity(
                     qe.embedding::DOUBLE[], ne.embedding::DOUBLE[]) DESC,
                     c.neighbor_id ASC) AS rnk
          FROM cand c
          JOIN embeddings qe ON qe.vec_id = c.query_id
          JOIN embeddings ne ON ne.vec_id = c.neighbor_id)
        SELECT query_id, neighbor_id FROM scored WHERE rnk <= {k}
        ORDER BY query_id, neighbor_id
    """


# --- IVF (inverted-file) ANN: coarse k-means quantizer + probed buckets ---

_UNIT_SCALE = 1_000_000


def _units_matrix(v: np.ndarray, scale: int = _UNIT_SCALE) -> np.ndarray:
    """Fixed-point int64 units, half-away-from-zero — the exact value
    DuckDB's ``CAST(round(x * scale) AS BIGINT)`` produces."""
    v = np.asarray(v, np.float64)
    return np.copysign(np.floor(np.abs(v) * scale + 0.5), v).astype(np.int64)


def _div_half_away(s: np.ndarray, n) -> np.ndarray:
    """round(s / n) half-away-from-zero on exact integers; the divisor
    ``n`` (> 0) is a scalar or broadcasts against ``s``."""
    s = np.asarray(s, np.int64)
    n = np.asarray(n, np.int64)
    return np.where(s >= 0, (2 * s + n) // (2 * n),
                    -((-2 * s + n) // (2 * n))).astype(np.int64)


def _kmeans_fit_int(units: np.ndarray, k: int,
                    iters: int = 5) -> np.ndarray:
    """Deterministic INTEGER k-means over fixed-point units: init = first
    k rows of the (pre-sorted) sample, fixed iteration count, assignment
    by exact integer distance ``|c|² − 2·u·c`` (ties → smallest cid),
    centroid update = half-away integer division of member sums, empty
    clusters keep their previous centroid.  Every step is exact int64
    arithmetic, so a DuckDB CTE replays the centroids bit-for-bit
    (see ``ivf_topk_sql``) — the same treatment that made the
    hyperplane-LSH pipelines oracle-checkable."""
    c = units[:k].copy()
    for _ in range(iters):
        assign = _assign_int(units, c)
        newc = c.copy()
        for j in range(k):
            members = units[assign == j]
            if len(members):
                newc[j] = _div_half_away(members.sum(axis=0), len(members))
        c = newc
    return c


def _assign_int(units: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """argmin_j (|c_j|² − 2·u·c_j) per row — exact int64; np.argmin
    returns the FIRST minimum, matching the SQL ``ORDER BY dist, cid``
    tie-break."""
    cc = np.sum(cents * cents, axis=1)
    return np.argmin(cc[None, :] - 2 * (units @ cents.T), axis=1)


def _train_sample(emb_ds, train_size: int) -> np.ndarray:
    """The index-build training sample of the IVF / k-means quantizer
    and the PQ codebooks (mirrored by the twins' ``samp`` and
    ``pq_samp`` CTEs): the rows whose md5-60 vec_id hash is 0 modulo
    ``max(1, count // train_size)`` — an O(train_size) collect at any
    corpus size, block-order independent — sorted by vec_id and
    truncated, as fixed-point units."""
    from .dedup import _md5_60

    mod = max(1, emb_ds.count() // train_size)

    def sample_batch(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_pylist()
        return t.filter(pa.array(
            [_md5_60(str(i).encode()) % mod == 0 for i in ids]))

    rows = sorted(
        emb_ds.map_batches(sample_batch, batch_format="pyarrow").take_all(),
        key=lambda r: r["vec_id"])[:train_size]
    return _units_matrix(np.array([r["embedding"] for r in rows],
                                  np.float64))


def _fit_quantizer(emb_ds, n_centroids: int, train_size: int,
                   iters: int) -> np.ndarray:
    """Shared index-build recipe for ``ivf_topk`` and
    ``kmeans_clusters`` (mirrored CTE-for-CTE by
    ``_kmeans_index_cte_sql``): exact integer k-means over
    ``_train_sample``.  Returns the int64 centroid matrix."""
    sample = _train_sample(emb_ds, train_size)
    if not len(sample):          # no rows: no centroids
        return np.zeros((0, 0), np.int64)
    return _kmeans_fit_int(sample, min(n_centroids, len(sample)), iters)


def _ivf_state(queries: np.ndarray, cents: np.ndarray, n_probe: int):
    """The IVF part of the broadcast state: the normalized queries, the
    centroids, and the queries probing each list — a query's
    ``n_probe`` nearest centroids by exact integer distance (stable
    argsort: ties go to the smaller cid, as the SQL ORDER BY dist,
    cid)."""
    q = np.asarray(queries, np.float64)
    qdist = np.sum(cents * cents, axis=1)[None, :] \
        - 2 * (_units_matrix(q) @ cents.T)
    lists: dict[int, list[int]] = {}
    for qi, row in enumerate(np.argsort(qdist, axis=1,
                                        kind="stable")[:, :n_probe]):
        for cid in row:
            lists.setdefault(int(cid), []).append(qi)
    return dict(q=_unit_rows(q), cents=cents, lists=lists)


def _rank_ivf(st, batch, ids):
    raw = _emb_matrix(batch)
    return _probed(st, raw, _assign_int(_units_matrix(raw),
                                        st["cents"])[None, :], ids)


def ivf_topk(emb_ds, queries: np.ndarray, query_ids: list[int],
             k: int = 5, n_centroids: int = 16, n_probe: int = 4,
             train_size: int = 4096, iters: int = 5):
    """IVF ANN: a coarse quantizer (integer k-means over a deterministic
    hash-sample of the corpus) splits vectors into ``n_centroids``
    inverted lists; each query scans only its ``n_probe`` nearest lists.
    Compute scales by ~n_probe/n_centroids vs brute force; recall
    measured against brute force in tests.

    Quantization, centroids, assignment and probing are all exact
    fixed-point integer arithmetic (``_fit_quantizer``), so
    ``ivf_topk_sql`` replays the whole index build; only the final
    within-list cosine ranking is float (identical op sequence on both
    sides).
    """
    cents = _fit_quantizer(emb_ds, n_centroids, train_size, iters)
    parts = _scored(emb_ds, "ivf_topk-lists", query_ids, k,
                    rank=_rank_ivf, **_ivf_state(queries, cents, n_probe))
    return _merged(parts, "query_id", k, _neighbor_rows)


def _kmeans_index_cte_sql(n_centroids: int, train_size: int, iters: int,
                          scale: int) -> str:
    """Chained-CTE fragment replaying ``_fit_quantizer`` + full-corpus
    assignment in exact integer arithmetic: md5-60 hash sample (same
    corpus-size-derived modulus), fixed-point quantization, ``iters``
    unrolled k-means rounds (assignment by ``|c|² − 2·u·c`` with cid
    tie-breaks, centroid update by half-away integer division, empty
    clusters carried over).  Defines ``e(vec_id, i, u)``, ``dall`` and
    ``assign(vec_id, cid)`` for the caller; shared by ``ivf_topk_sql``
    and ``kmeans_clusters_sql``."""
    rounds = []
    for r in range(1, iters + 1):
        rounds.append(f"""
        d{r} AS (
          SELECT se.vec_id, c.cid,
                 sum(c.cu * c.cu - 2 * se.u * c.cu) AS dist
          FROM se JOIN c{r - 1} c ON c.i = se.i
          GROUP BY se.vec_id, c.cid),
        a{r} AS (
          SELECT vec_id, cid FROM (
            SELECT vec_id, cid, row_number() OVER (
              PARTITION BY vec_id ORDER BY dist ASC, cid ASC) AS rn
            FROM d{r}) WHERE rn = 1),
        s{r} AS (
          SELECT a.cid, se.i, sum(se.u) AS s, count(*) AS n
          FROM a{r} a JOIN se ON se.vec_id = a.vec_id
          GROUP BY a.cid, se.i),
        c{r} AS (
          SELECT p.cid, p.i,
                 CAST(coalesce(
                   CASE WHEN s.s >= 0 THEN (2 * s.s + s.n) // (2 * s.n)
                        ELSE -((-2 * s.s + s.n) // (2 * s.n)) END,
                   p.cu) AS BIGINT) AS cu
          FROM c{r - 1} p
          LEFT JOIN s{r} s ON s.cid = p.cid AND s.i = p.i)""")
    rounds_sql = ",".join(rounds)
    return rf"""e AS (
          SELECT vec_id, generate_subscripts(embedding, 1) AS i,
                 CAST(round(CAST(unnest(embedding) AS DOUBLE)
                            * {scale}) AS BIGINT) AS u
          FROM embeddings),
        samp AS (
          SELECT vec_id FROM embeddings
          WHERE ('0x' || substr(md5(CAST(vec_id AS VARCHAR)), 1, 15))
                  ::BIGINT
                % greatest(1, (SELECT count(*) FROM embeddings)
                              // {train_size}) = 0
          ORDER BY vec_id LIMIT {train_size}),
        se AS (SELECT e.* FROM e JOIN samp USING (vec_id)),
        init_ids AS (
          SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cid
          FROM samp ORDER BY vec_id LIMIT {n_centroids}),
        c0 AS (
          SELECT ii.cid, e.i, e.u AS cu
          FROM init_ids ii JOIN e ON e.vec_id = ii.vec_id),
        {rounds_sql},
        dall AS (
          SELECT e.vec_id, c.cid,
                 sum(c.cu * c.cu - 2 * e.u * c.cu) AS dist
          FROM e JOIN c{iters} c ON c.i = e.i
          GROUP BY e.vec_id, c.cid),
        assign AS (
          SELECT vec_id, cid FROM (
            SELECT vec_id, cid, row_number() OVER (
              PARTITION BY vec_id ORDER BY dist ASC, cid ASC) AS rn
            FROM dall) WHERE rn = 1)"""


def ivf_topk_sql(k: int = 5, n_centroids: int = 16,
                 n_probe: int = 4, train_size: int = 4096,
                 iters: int = 5, n_queries: int = 10,
                 scale: int = _UNIT_SCALE) -> str:
    """SQL twin of ``ivf_topk``: the shared integer index-build CTE
    (``_kmeans_index_cte_sql``), probe lists, and the final float
    cosine ranking with vec_id tie-breaks (the same ranking convention
    as the passing ``ann_topk`` oracle)."""
    return rf"""
        WITH {_ivf_cte_sql(k, n_centroids, n_probe, train_size, iters,
                           n_queries, scale)}
        SELECT query_id, neighbor_id FROM scored WHERE rnk <= {k}
        ORDER BY query_id, neighbor_id
    """


def _ivf_cte_sql(k: int, n_centroids: int, n_probe: int, train_size: int,
                 iters: int, n_queries: int, scale: int) -> str:
    """The ivf_topk CTE chain (index build → q → probe → cand →
    scored), shared by ``ivf_topk_sql`` and ``ann_recall_audit_sql``."""
    return rf"""{_kmeans_index_cte_sql(n_centroids, train_size, iters, scale)},
        q AS (SELECT vec_id FROM embeddings ORDER BY vec_id
              LIMIT {n_queries}),
        probe AS (
          SELECT vec_id AS query_id, cid FROM (
            SELECT d.vec_id, d.cid, row_number() OVER (
              PARTITION BY d.vec_id ORDER BY d.dist ASC, d.cid ASC) AS rn
            FROM dall d JOIN q ON q.vec_id = d.vec_id)
          WHERE rn <= {n_probe}),
        cand AS (
          SELECT DISTINCT p.query_id, a.vec_id AS neighbor_id
          FROM probe p JOIN assign a ON a.cid = p.cid
          WHERE a.vec_id != p.query_id),
        scored AS (
          SELECT c.query_id, c.neighbor_id,
                 row_number() OVER (
                   PARTITION BY c.query_id
                   ORDER BY list_cosine_similarity(
                     qe.embedding::DOUBLE[], ne.embedding::DOUBLE[]) DESC,
                     c.neighbor_id ASC) AS rnk
          FROM cand c
          JOIN embeddings qe ON qe.vec_id = c.query_id
          JOIN embeddings ne ON ne.vec_id = c.neighbor_id)"""


def _rank_exact_vs_ivf(st, batch, ids):
    return _rank_cosine(st, batch, ids) + _rank_ivf(st, batch, ids)


def ann_recall_audit(emb_ds_factory, queries: np.ndarray,
                     query_ids: list[int], k: int = 5,
                     n_centroids: int = 16, n_probe: int = 4,
                     train_size: int = 4096, iters: int = 5):
    """ANN index-quality audit — per query, the recall of IVF top-k
    against the exact brute-force top-k on the SAME corpus:
    ``(query_id, n_hit, recall_ppm)``, ascending query_id.  The
    accuracy-vs-cost check run before trusting an approximate index at
    100 TB (the ANN sibling of ``minhash_error_audit``).

    ``emb_ds_factory`` is a zero-arg callable returning a fresh
    embeddings Dataset: one for the quantizer fit, one for the scoring
    pass, which ranks every batch both ways (brute force and the
    probed lists) and intersects the two top-k sets in the merge.
    """
    cents = _fit_quantizer(emb_ds_factory(), n_centroids, train_size,
                           iters)
    parts = _scored(emb_ds_factory(), "ann_recall_audit-lists", query_ids,
                    k, rank=_rank_exact_vs_ivf,
                    **_ivf_state(queries, cents, n_probe))
    out = _merged(parts, "query_id", k, _recall_rows("n_hit", k))
    return pa.Table.from_pandas(out.to_pandas().sort_values("query_id"),
                                preserve_index=False)


def ann_recall_audit_sql(k: int = 5, n_centroids: int = 16,
                         n_probe: int = 4, train_size: int = 4096,
                         iters: int = 5, n_queries: int = 10,
                         scale: int = _UNIT_SCALE) -> str:
    """Composed twin: the IVF CTE chain plus a brute-force ranking over
    the same query CTE, joined into per-query recall ppm."""
    return rf"""
        WITH {_ivf_cte_sql(k, n_centroids, n_probe, train_size, iters,
                           n_queries, scale)},
        bf AS (
          SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                 row_number() OVER (
                   PARTITION BY q.vec_id
                   ORDER BY list_cosine_similarity(
                     qe.embedding::DOUBLE[], e.embedding::DOUBLE[]) DESC,
                     e.vec_id ASC) AS rnk
          FROM q
          JOIN embeddings qe ON qe.vec_id = q.vec_id
          CROSS JOIN embeddings e
          WHERE e.vec_id != q.vec_id),
        ivf_k AS (SELECT query_id, neighbor_id FROM scored
                  WHERE rnk <= {k}),
        bf_k AS (SELECT query_id, neighbor_id FROM bf WHERE rnk <= {k})
        SELECT b.query_id,
               count(i.neighbor_id)::BIGINT AS n_hit,
               ((1000000 * count(i.neighbor_id)) // {k})::BIGINT
                 AS recall_ppm
        FROM bf_k b
        LEFT JOIN ivf_k i ON i.query_id = b.query_id
                         AND i.neighbor_id = b.neighbor_id
        GROUP BY b.query_id ORDER BY b.query_id
    """


def kmeans_clusters(emb_ds, n_centroids: int = 16,
                    train_size: int = 4096, iters: int = 5):
    """Corpus clustering as a first-class op: fit the exact integer
    k-means quantizer (``_fit_quantizer`` — the IVF coarse index) and
    assign EVERY vector to its cluster, returning (vec_id, cid,
    cluster_n) with the cluster's population joined on.

    Scale shape: one bounded sample collect (O(train_size) rows at any
    corpus size), one broadcast of the integer centroid matrix, ONE
    streaming assignment pass (materialized before the count so the
    scan+assignment never re-executes), and one per-cid fold whose
    result is broadcast back — the corpus crosses zero shuffles.
    Bit-exact SQL twin: ``kmeans_clusters_sql``."""
    import ray

    from ..stages.broadcast import cached_get

    cents = _fit_quantizer(emb_ds, n_centroids, train_size, iters)
    if not len(cents):           # no rows: no batch reaches the maps below
        return pa.table({c: pa.array([], pa.int64())
                         for c in ("vec_id", "cid", "cluster_n")})
    ref = ray.put(cents)

    def assign_batch(t: pa.Table) -> pa.Table:
        c = cached_get(ref, tag="kmeans_clusters-centroids")
        if t.num_rows == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cid": pa.array([], pa.int64())})
        cid = _assign_int(_units_matrix(_emb_matrix(t)), c)
        return pa.table({"vec_id": t["vec_id"],
                         "cid": pa.array(cid.astype(np.int64), pa.int64())})

    # materialize: the assignment feeds BOTH the count and the output —
    # without pinning, the lazy plan (scan + quantize + matmul) would
    # execute twice
    assigned = emb_ds.map_batches(assign_batch, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
    counts = fold(assigned, "cid", {"n": ("count", None)})
    cref = ray.put(dict(zip(counts["cid"].to_pylist(),
                            counts["n"].to_pylist())))

    def attach_n(t: pa.Table) -> pa.Table:
        cn = cached_get(cref, tag="kmeans_clusters-counts")
        n = [int(cn.get(c, 0)) for c in t["cid"].to_pylist()]
        return t.append_column("cluster_n", pa.array(n, pa.int64()))

    return assigned.map_batches(attach_n, batch_format="pyarrow")


def kmeans_clusters_sql(n_centroids: int = 16, train_size: int = 4096,
                        iters: int = 5, scale: int = _UNIT_SCALE) -> str:
    """SQL twin of ``kmeans_clusters`` — the shared integer index-build
    CTE plus the cluster population join."""
    return rf"""
        WITH {_kmeans_index_cte_sql(n_centroids, train_size, iters, scale)},
        n AS (SELECT cid, count(*) AS cluster_n FROM assign GROUP BY cid)
        SELECT a.vec_id, a.cid, n.cluster_n
        FROM assign a JOIN n ON n.cid = a.cid
        ORDER BY a.vec_id
    """


def _label_sum_partial(t: pa.Table, scale: int) -> pa.Table:
    """One (label, n, Σunits[dim]) row per label in the batch — the
    vector-aggregate combiner shared by label_centroids and
    embedding_outliers."""
    if t.num_rows == 0:
        return pa.table({
            "label": pa.array([], t.schema.field("label").type),
            "n": pa.array([], pa.int64()),
            "sums": pa.array([], pa.list_(pa.int64())),
        })
    labels = t["label"].to_numpy(zero_copy_only=False)
    units = _units_matrix(_emb_matrix(t), scale)
    uniq, inv = np.unique(labels, return_inverse=True)
    onehot = np.zeros((len(uniq), len(labels)), np.int64)
    onehot[inv, np.arange(len(labels))] = 1
    sums = onehot @ units                     # (|labels|, dim)
    n = onehot.sum(axis=1)
    return pa.table({
        "label": uniq,
        "n": n,
        "sums": list(sums),
    })


def _label_sums(emb_ds, scale: int):
    """The driver fold of ``_label_sum_partial``: the labels ascending
    (in the column's dtype), and per label its row count and unit sums
    as Python ints (no overflow at any n)."""
    parts = emb_ds.map_batches(
        lambda t: _label_sum_partial(t, scale),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    if "label" not in parts:     # no rows: Ray gives the partials no columns
        return np.zeros(0, emb_ds.schema().base_schema.field(
            "label").type.to_pandas_dtype()), [], []
    labs, ns, tots = [], [], []
    for lab, g in parts.groupby("label", sort=True):
        labs.append(lab)
        ns.append(int(g["n"].sum()))
        tots.append(np.sum(np.stack(g["sums"].to_numpy()), axis=0,
                           dtype=object))
    return np.asarray(labs, parts["label"].dtype), ns, tots


def label_centroids(emb_ds, scale: int = 1_000_000, digits: int = 6):
    """Element-wise mean embedding per label, as an exploded
    (label, i, centroid) pandas frame (i is the 1-based dimension).

    The canonical vector-aggregate partial shape: each batch reduces to
    ONE (n, Σunits[dim]) row per label present in it — a flat matmul of
    the one-hot label matrix against the fixed-point unit matrix — so
    the driver only ever sees |labels| × |blocks| tiny partials, never
    vectors.  Fixed-point int64 unit sums make the mean identical to a
    ``sum(BIGINT)/ (n·scale)`` DuckDB oracle regardless of summation
    order (float32 → float64 is exact, round-to-unit matches on both
    sides).
    """
    import pandas as pd

    labs, ns, tots = _label_sums(emb_ds, scale)
    rows = []
    for lab, n, tot in zip(labs, ns, tots):
        for i, s in enumerate(tot, start=1):
            v = int(s) / (n * float(scale))
            rows.append({"label": lab, "i": i, "centroid":
                         np.copysign(np.floor(abs(v) * 10.0 ** digits + 0.5),
                                     v) / 10.0 ** digits})
    df = pd.DataFrame(rows, columns=["label", "i", "centroid"])
    df["label"] = df["label"].astype(labs.dtype)
    df["i"] = df["i"].astype(np.int64)
    return df.reset_index(drop=True)


def embedding_outliers(emb_ds, k: int = 5, scale: int = _UNIT_SCALE):
    """Top-``k`` farthest-from-centroid vectors per label — the
    embedding-space mislabel/outlier detector: (label, vec_id, dist2,
    rnk) with ``dist2`` = squared L2 distance to the label's mean
    vector, rounded half-away at 6 digits.

    Two streamed passes, both corpus-size-independent on the driver:
    (1) the ``_label_sum_partial`` combiner reduces every batch to one
    exact fixed-point (n, Σunits) row per label, so only
    |labels| × |blocks| tiny partials reach the driver; the float64
    centroid matrix (KB at any corpus size for a bounded label space)
    broadcasts via ``ray.put``.  (2) distances are a vectorized
    ``(batch − mu[idx])²`` row-sum with the per-batch ``groups.first_k``
    prune per label, merged per label by ``_merged`` — the exchange
    carries at most k rows per (label, block), never vectors.  The
    strict (dist2 DESC, vec_id ASC) total order makes the local prune
    lossless and the DuckDB ``row_number()`` oracle replayable.
    """
    import ray

    from ..stages.broadcast import cached_get

    labs, ns, tots = _label_sums(emb_ds, scale)
    if not len(labs):            # no rows: nothing to merge
        return pa.table({"label": labs, "vec_id": pa.array([], pa.int64()),
                         "dist2": pa.array([], pa.float64()),
                         "rnk": pa.array([], pa.int64())})
    # float(exact int) / (n·scale): the identical double DuckDB computes
    # for sum(u) / (count(*) * scale.0)
    mu = np.stack([np.array([float(int(s)) for s in tot], np.float64)
                   / (n * float(scale)) for n, tot in zip(ns, tots)])
    ref = ray.put((labs, mu))

    def dist_part(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False)
        ids = _ids_vector(t)
        dist2 = np.zeros(0)
        if len(ids):
            labels, means = cached_get(ref, tag="embedding_outliers-means")
            d = _units_matrix(_emb_matrix(t), scale) / float(scale) \
                - means[np.searchsorted(labels, lab)]
            dist2 = np.floor(np.einsum("ij,ij->i", d, d) * 1e6 + 0.5) / 1e6
        sel, _ = first_k((lab,), dist2, ids, k)
        return _partials("label", lab[sel], np.zeros(len(sel), np.int8),
                         dist2[sel], ids[sel])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"label": t["label"], "vec_id": t["neighbor_id"],
                         "dist2": t["score"], "rnk": t["rnk"]})

    return _merged(emb_ds.map_batches(dist_part, batch_format="pyarrow",
                                      zero_copy_batch=True),
                   "label", k, finish)


def embedding_outliers_sql(k: int = 5,
                           scale: int = _UNIT_SCALE) -> str:
    return f"""
        WITH e AS (
          SELECT vec_id, label, generate_subscripts(embedding, 1) AS i,
                 CAST(round(CAST(unnest(embedding) AS DOUBLE)
                            * {scale}) AS BIGINT) AS u
          FROM embeddings),
        mu AS (SELECT label, i,
                      sum(u) / (count(*) * {scale}.0) AS m
               FROM e GROUP BY label, i),
        d AS (SELECT e.vec_id, e.label,
                     round(sum(pow(e.u / {scale}.0 - mu.m, 2)), 6)
                       AS dist2
              FROM e JOIN mu ON e.label = mu.label AND e.i = mu.i
              GROUP BY e.vec_id, e.label)
        SELECT label, vec_id, dist2, rnk FROM (
          SELECT label, vec_id, dist2,
                 row_number() OVER (PARTITION BY label
                                    ORDER BY dist2 DESC, vec_id) AS rnk
          FROM d)
        WHERE rnk <= {k} ORDER BY label, rnk
    """


# --- kNN similarity graph: per-vector top-k neighbor edges (self-join) ---

def _round6_signed(x: np.ndarray) -> np.ndarray:
    """Vectorized half-away-from-zero rounding at 6 digits — the value
    DuckDB's ``round(x, 6)`` produces for positive AND negative x
    (np.floor(x*1e6+0.5) alone would round negative halves UP)."""
    return np.where(x >= 0, np.floor(x * 1e6 + 0.5),
                    -np.floor(-x * 1e6 + 0.5)) / 1e6


def _knn_bucket_topk(block: pa.Table, starts: np.ndarray, k: int,
                     cap: int) -> pa.Table:
    """The ``segment_map`` kernel of ``knn_graph``: each vector's
    directed local top-k among its LSH bucket-mates, for every bucket
    of the block at once.

    Exact-integer cosine (``quantize_fp6`` dot / √n2a·√n2b — each float
    op a single IEEE round, bit-identical to the SQL twin); zero-norm
    vectors never rank.  ``groups.first_k``'s (cosine DESC,
    neighbor_id ASC) order makes the per-bucket prune LOSSLESS under
    the global merge: a neighbor dropped locally is preceded by ≥k
    bucket-mates that also reach the global rank.  A bucket keeps its
    ``cap`` smallest vec_ids (deterministic, as in ``_cos_pairs``) and
    the truncation is logged.
    """
    from .dedup import quantize_fp6
    from .groups import segment_ids, segment_pairs

    n = block.num_rows
    sizes = np.diff(np.append(starts, n))
    hot = sizes > cap
    if hot.any():
        logger.warning(
            "knn_graph: %d hot buckets truncated to %d members "
            "(%d dropped); their neighbor lists are incomplete",
            hot.sum(), cap, (sizes[hot] - cap).sum())
    ids = _ids_vector(block)
    order = np.lexsort((ids, segment_ids(starts, n)))
    ids = ids[order]
    q = quantize_fp6(_emb_matrix(block)[order])
    n2 = np.einsum("ij,ij->i", q, q)
    ii, jj = segment_pairs(starts, np.minimum(sizes, cap))
    ok = (n2[ii] != 0) & (n2[jj] != 0)
    ii, jj = ii[ok], jj[ok]
    root = np.sqrt(n2.astype(np.float64))
    sim = np.einsum("ij,ij->i", q[ii], q[jj]) / (root[ii] * root[jj])
    rows, cols, sim = np.r_[ii, jj], np.r_[jj, ii], np.r_[sim, sim]
    sel, _ = first_k((rows,), sim, ids[cols], k)
    return _partials("vec_id", ids[rows[sel]], np.zeros(len(sel), np.int8),
                     sim[sel], ids[cols[sel]])


def _knn_rows(t: pa.Table) -> pa.Table:
    return pa.table({"vec_id": t["vec_id"], "neighbor_id": t["neighbor_id"],
                     "cosine": _round6_signed(t["score"].to_numpy()),
                     "rnk": t["rnk"]})


def knn_graph(emb_ds, k: int = 5, n_planes: int = 6, n_tables: int = 2,
              cap: int = 256):
    """Approximate kNN GRAPH over the whole embeddings table: for every
    vector, its top-``k`` most-cosine-similar bucket-mates across
    ``n_tables`` seeded Rademacher-LSH tables (planes as wide as the
    vectors) — the self-join analogue of ``lsh_topk`` (no broadcast
    query side; candidates come from a bucket exchange, so the shape is
    all-data-scalable: signatures+vectors shuffle once, no N² pair
    materialization).

    Two exchanges: explode to (table, bucket) rows → per-bucket
    directed local top-k (``_knn_bucket_topk`` on ``segment_map``) →
    per-vector global top-k (``_merged``; a pair found in several
    tables carries the identical exact score, so the merge's repeat
    drop keeps it once).  Output: (vec_id, neighbor_id, cosine, rnk)
    with cosine rounded half-away at 6 digits AFTER ranking on the
    exact value.  Fully replayed by ``knn_graph_sql``.
    """
    from .dedup import hyperplane_explode
    from .groups import segment_map

    def explode(t: pa.Table) -> pa.Table:
        return hyperplane_explode(t, dim=len(t["embedding"][0]),
                                  n_planes=n_planes, n_tables=n_tables)

    bucketed = emb_ds.map_batches(explode, batch_format="pyarrow",
                                  zero_copy_batch=True)
    local = segment_map(bucketed, "bucket",
                        lambda b, s: _knn_bucket_topk(b, s, k, cap))
    return _merged(local, "vec_id", k, _knn_rows)


def knn_graph_sql(dim: int, k: int = 5, n_planes: int = 6,
                  n_tables: int = 2, cap: int = 256,
                  seed: int = 23) -> str:
    """SQL twin of ``knn_graph``: buckets replayed via
    ``lsh_keys_cte_sql`` (exact integer projections), candidates = all
    DIRECTED pairs sharing any bucket (both under the per-bucket
    vec_id-ordered cap), exact-integer cosine, row_number ranking on
    the pre-rounded value with neighbor_id tie-break."""
    from .dedup import lsh_keys_cte_sql

    return rf"""
        WITH {lsh_keys_cte_sql(dim, n_planes, seed, n_tables)},
        ranked AS (
          SELECT *, row_number() OVER (
            PARTITION BY bucket ORDER BY vec_id) AS rn
          FROM keys),
        cand AS (
          SELECT DISTINCT a.vec_id AS vec_id, b.vec_id AS neighbor_id
          FROM ranked a JOIN ranked b
            ON a.bucket = b.bucket AND a.vec_id != b.vec_id
          WHERE a.rn <= {cap} AND b.rn <= {cap}),
        n2 AS (SELECT vec_id, sum(u * u) AS n2 FROM e GROUP BY vec_id),
        dots AS (
          SELECT c.vec_id, c.neighbor_id, sum(ea.u * eb.u) AS dot
          FROM cand c
          JOIN e ea ON ea.vec_id = c.vec_id
          JOIN e eb ON eb.vec_id = c.neighbor_id AND eb.i = ea.i
          GROUP BY c.vec_id, c.neighbor_id),
        cos AS (
          SELECT d.vec_id, d.neighbor_id,
                 CAST(d.dot AS DOUBLE)
                   / (sqrt(CAST(na.n2 AS DOUBLE))
                      * sqrt(CAST(nb.n2 AS DOUBLE))) AS cs
          FROM dots d
          JOIN n2 na ON na.vec_id = d.vec_id
          JOIN n2 nb ON nb.vec_id = d.neighbor_id
          WHERE na.n2 > 0 AND nb.n2 > 0),
        rk AS (
          SELECT vec_id, neighbor_id, cs,
                 row_number() OVER (
                   PARTITION BY vec_id
                   ORDER BY cs DESC, neighbor_id) AS rnk
          FROM cos)
        SELECT vec_id, neighbor_id, round(cs, 6) AS cosine, rnk
        FROM rk WHERE rnk <= {k}
        ORDER BY vec_id, rnk
    """


# --- int8 symmetric quantization recall audit ------------------------------

def _int8_codes(units: np.ndarray):
    """Symmetric per-vector int8 codes from fixed-point units:
    m = max|u| (≥1), code = round_half_away(u·127 / m)."""
    m = np.maximum(np.abs(units).max(axis=1), 1).astype(np.int64)
    return _div_half_away(units * 127, m[:, None]), m


def _rank_int8(st, batch, ids):
    # exact fixed-point inner product vs dequantized-int8 key:
    # (Σ q8·d8)·m_d ranks identically to the dequantized score because
    # m_q/127² is a per-query constant
    ud = _units_matrix(_emb_matrix(batch))
    d8, dm = _int8_codes(ud)
    m = _not_self(st, ids)
    return [(st["q"] @ ud.T, m), ((st["q8"] @ d8.T) * dm[None, :], m)]


def int8_quant_recall(emb_ds, queries: np.ndarray, query_ids: list[int],
                      k: int = 5):
    """Recall@k of symmetric int8-quantized inner-product search against
    full-precision search — the "what does compressing the index cost"
    audit run before shipping a quantized ANN index at scale.  Returns
    ``(query_id, n_match, recall_ppm)``.

    Both rankings use EXACT INT64 sort keys (ties → neighbor_id ASC):
    baseline ``Σ u_q·u_d`` over round(x·10⁶) units; quantized
    ``(Σ q_q·q_d)·m_d`` over per-vector codes
    ``q = round_half_away(u·127 / max|u|)`` — so the DuckDB twin
    replays both top-k sets and the recall bit-for-bit.  Per batch:
    three integer matmuls on the top-k skeleton; the exchange carries
    2·k partial rows per (query, batch).
    """
    uq = _units_matrix(np.asarray(queries, np.float64))
    parts = _scored(emb_ds, "int8_quant_recall-codes", query_ids, k,
                    rank=_rank_int8, q=uq, q8=_int8_codes(uq)[0])
    return _merged(parts, "query_id", k, _recall_rows("n_match", k))


def int8_quant_recall_sql(k: int = 5, n_queries: int = 10,
                          scale: int = _UNIT_SCALE) -> str:
    """DuckDB twin: same units, same half-away int8 codes (operands are
    made positive inside each CASE arm so `//` truncation == floor),
    same integer sort keys, same intersection count."""
    return f"""
WITH qr_e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS u
  FROM embeddings),
qr_q AS (SELECT vec_id FROM embeddings ORDER BY vec_id
         LIMIT {n_queries}),
qr_m AS MATERIALIZED (
  SELECT vec_id, greatest(max(abs(u)), 1) AS m FROM qr_e GROUP BY vec_id),
qr_c AS MATERIALIZED (
  SELECT e.vec_id, e.i,
         CASE WHEN e.u >= 0 THEN (2 * e.u * 127 + m.m) // (2 * m.m)
              ELSE -((-2 * e.u * 127 + m.m) // (2 * m.m)) END AS v
  FROM qr_e e JOIN qr_m m ON m.vec_id = e.vec_id),
qr_dot_e AS (
  SELECT qe.vec_id AS qid, de.vec_id AS nid, sum(qe.u * de.u) AS s
  FROM qr_e qe JOIN qr_q ON qr_q.vec_id = qe.vec_id
  JOIN qr_e de ON de.i = qe.i AND de.vec_id != qe.vec_id
  GROUP BY 1, 2),
qr_dot_q AS (
  SELECT qc.vec_id AS qid, dc.vec_id AS nid, sum(qc.v * dc.v) AS s
  FROM qr_c qc JOIN qr_q ON qr_q.vec_id = qc.vec_id
  JOIN qr_c dc ON dc.i = qc.i AND dc.vec_id != qc.vec_id
  GROUP BY 1, 2),
qr_rank_e AS (
  SELECT qid, nid, row_number() OVER (
    PARTITION BY qid ORDER BY s DESC, nid ASC) AS rn FROM qr_dot_e),
qr_rank_q AS (
  SELECT d.qid, d.nid, row_number() OVER (
    PARTITION BY d.qid ORDER BY d.s * m.m DESC, d.nid ASC) AS rn
  FROM qr_dot_q d JOIN qr_m m ON m.vec_id = d.nid),
qr_match AS (
  SELECT a.qid, count(*) AS n_match
  FROM (SELECT qid, nid FROM qr_rank_e WHERE rn <= {k}) a
  JOIN (SELECT qid, nid FROM qr_rank_q WHERE rn <= {k}) b
    ON b.qid = a.qid AND b.nid = a.nid
  GROUP BY a.qid)
SELECT q.vec_id AS query_id,
       coalesce(m.n_match, 0)::BIGINT AS n_match,
       (coalesce(m.n_match, 0) * 1000000 // {k})::BIGINT AS recall_ppm
FROM qr_q q LEFT JOIN qr_match m ON m.qid = q.vec_id
ORDER BY query_id
"""


# --- hard negative mining (contrastive training data) ----------------------

def _rank_hard_negatives(st, batch, ids):
    other = st["labels"][:, None] != _labels(batch)[None, :]
    return [(st["q"] @ _units_matrix(_emb_matrix(batch)).T,
             other & _not_self(st, ids))]


def hard_negatives(emb_ds, queries: np.ndarray, query_ids: list[int],
                   query_labels: list[int], k: int = 5):
    """Hard-negative mining for contrastive training: per anchor, the
    ``k`` most-similar vectors whose label DIFFERS from the anchor's —
    ``(query_id, negative_id, neg_rank)``.

    Ranking key = exact fixed-point inner product (int64 units, the
    int8_quant_recall convention), ties → negative_id ASC, so the
    DuckDB twin replays the picks bit-for-bit.  The top-k skeleton with
    a different-label mask; the exchange carries k partial rows per
    (anchor, batch).
    """
    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"query_id": t["query_id"],
                         "negative_id": t["neighbor_id"],
                         "neg_rank": t["rnk"]})

    parts = _scored(emb_ds, "hard_negatives-anchors", query_ids, k,
                    rank=_rank_hard_negatives,
                    q=_units_matrix(np.asarray(queries, np.float64)),
                    labels=np.asarray(query_labels, np.int64))
    return _merged(parts, "query_id", k, finish)


def hard_negatives_sql(k: int = 5, n_queries: int = 10,
                       scale: int = _UNIT_SCALE) -> str:
    """DuckDB twin: same units, same integer dot ranking, same
    different-label constraint and tie-breaks."""
    return f"""
WITH hn_e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS u
  FROM embeddings),
hn_q AS (SELECT vec_id, label FROM embeddings ORDER BY vec_id
         LIMIT {n_queries}),
hn_dot AS (
  SELECT qe.vec_id AS qid, de.vec_id AS nid, sum(qe.u * de.u) AS s
  FROM hn_e qe JOIN hn_q ON hn_q.vec_id = qe.vec_id
  JOIN hn_e de ON de.i = qe.i AND de.vec_id != qe.vec_id
  GROUP BY 1, 2),
hn_rank AS (
  SELECT d.qid, d.nid, row_number() OVER (
    PARTITION BY d.qid ORDER BY d.s DESC, d.nid ASC) AS rn
  FROM hn_dot d
  JOIN hn_q ON hn_q.vec_id = d.qid
  JOIN embeddings ne ON ne.vec_id = d.nid
  WHERE ne.label != hn_q.label)
SELECT qid AS query_id, nid AS negative_id, rn AS neg_rank
FROM hn_rank WHERE rn <= {k}
ORDER BY query_id, neg_rank
"""


# ---------------------------------------------------------------------------
# principal component (exact fixed-point power iteration)
# ---------------------------------------------------------------------------

_PC_VCAP = 1 << 20          # |v| cap after each renormalization
_PC_USHIFT = 1 << 21        # per-row projection rescale


def _unit_sums(ds, scale: int):
    """(n, Σunits[dim]) of a whole embedding table: one (n, sums)
    partial per batch, summed on the driver — vectors never leave their
    batch."""
    def partial(t: pa.Table) -> pa.Table:
        units = _units_matrix(_emb_matrix(t), scale)
        return pa.table({"n": pa.array([len(units)], pa.int64()),
                         "sums": pa.array([units.sum(axis=0).tolist()],
                                          pa.list_(pa.int64()))})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    return int(parts["n"].sum()), np.sum(
        np.stack(parts["sums"].map(np.asarray)), axis=0).astype(np.int64)


def principal_component(emb_ds, iters: int = 5, scale: int = 10_000):
    """Top principal direction of the (mean-centered) embedding cloud by
    POWER ITERATION — restated entirely in exact int64 fixed point so
    the result replays bit-for-bit in SQL (the integer-k-means recipe
    applied to iterative linear algebra): units = half-away
    ``round(x·scale)``; centering subtracts the half-away integer mean;
    each round computes ``u_i = y_i·v`` (rescaled by a FIXED power-of-2
    half-away division chosen from a-priori magnitude bounds, never a
    data-dependent float), accumulates ``w = Σ u_i·y_i`` from per-batch
    int64 partials, and renormalizes ``v ← round(w / d)`` with
    ``d = max(1, ceil(max|w| / 2^20))``.  Output: one
    ``(i, component_fp)`` row per 1-based dimension.

    Scale shape: every iteration is ONE streamed map over the
    materialized centered-units table (int64 blobs), reduced to a
    single dim-length partial vector per batch — the driver only ever
    holds |blocks| 64-int rows; no shuffle anywhere.  Magnitude budget:
    |y| ≤ 2·scale ≈ 2^15, |v| ≤ 2^20 ⇒ |u| ≤ 2^41, rescaled to 2^20
    ⇒ per-batch w partials < 2^47; driver sums stay < 2^63 up to
    ~2^16 blocks of 4096 rows.
    """
    import pandas as pd
    import ray

    from ..stages.broadcast import cached_get

    n_total, s = _unit_sums(emb_ds, scale)
    dim = len(s)
    mu_ref = ray.put(_div_half_away(s, n_total))

    def center(t: pa.Table) -> pa.Table:
        m = cached_get(mu_ref, tag="principal_component-mean")
        y = _units_matrix(_emb_matrix(t), scale) - m
        return pa.table({"y": pa.array([r.tobytes() for r in
                                        y.astype("<i8")], pa.binary())})

    ys = emb_ds.select_columns(["embedding"]) \
        .map_batches(center, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()

    # start at the magnitude cap: the fixed 2^21 projection rescale
    # assumes |v| ~ 2^20 — an all-ones start would round every u to 0
    v = np.full(dim, _PC_VCAP, np.int64)
    for _ in range(iters):
        v_ref = ray.put(v)

        def w_partial(t: pa.Table, _ref=v_ref) -> pa.Table:
            vv = cached_get(_ref, tag="principal_component-direction")
            y = np.frombuffer(b"".join(t["y"].to_pylist()),
                              "<i8").reshape(-1, len(vv))
            u = _div_half_away(y @ vv, _PC_USHIFT)
            return pa.table({"w": pa.array([(u @ y).tolist()],
                                           pa.list_(pa.int64()))})

        wp = ys.map_batches(w_partial, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
        w = np.sum(np.stack(wp["w"].map(np.asarray)), axis=0) \
            .astype(np.int64)
        d = max(1, (int(np.abs(w).max()) + _PC_VCAP - 1) // _PC_VCAP)
        v = _div_half_away(w, d)

    return pd.DataFrame({"i": np.arange(1, dim + 1, dtype=np.int64),
                         "component_fp": v})


def principal_component_sql(iters: int = 5, scale: int = 10_000,
                            table: str = "embeddings") -> str:
    """Oracle twin: the identical fixed-point rounds unrolled as
    MATERIALIZED CTEs (plain CTEs inline exponentially — the bpe_merges
    lesson)."""
    def half_div(num: str, den: str) -> str:
        return (f"(CASE WHEN ({num}) >= 0 "
                f"THEN (2*({num}) + ({den})) // (2*({den}))"
                f" ELSE -((-2*({num}) + ({den})) // (2*({den}))) END)")

    rounds = []
    prev = "pc_v0"
    for r in range(1, iters + 1):
        rounds.append(f"""
pc_u{r} AS MATERIALIZED (
  SELECT y.vec_id,
         {half_div('sum(y.y * v.v)::BIGINT', str(_PC_USHIFT))} AS u
  FROM pc_y y JOIN {prev} v ON v.i = y.i GROUP BY y.vec_id),
pc_w{r} AS MATERIALIZED (
  SELECT y.i, sum(u.u * y.y)::BIGINT AS w
  FROM pc_y y JOIN pc_u{r} u ON u.vec_id = y.vec_id GROUP BY y.i),
pc_d{r} AS MATERIALIZED (
  SELECT greatest(1, (max(abs(w)) + {_PC_VCAP} - 1) // {_PC_VCAP}) AS d
  FROM pc_w{r}),
pc_v{r} AS MATERIALIZED (
  SELECT w.i, {half_div('w.w', 'd.d')}::BIGINT AS v
  FROM pc_w{r} w CROSS JOIN pc_d{r} d)""")
        prev = f"pc_v{r}"
    rounds_sql = ",".join(rounds)
    return f"""
WITH pc_units AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS unit
  FROM {table}),
pc_s AS (
  SELECT i, sum(unit)::BIGINT AS s, count(*)::BIGINT AS n
  FROM pc_units GROUP BY i),
pc_mu AS MATERIALIZED (
  SELECT i, {half_div('s', 'n')}::BIGINT AS mu FROM pc_s),
pc_y AS MATERIALIZED (
  SELECT u.vec_id, u.i, (u.unit - m.mu)::BIGINT AS y
  FROM pc_units u JOIN pc_mu m ON m.i = u.i),
pc_v0 AS (SELECT i, 1048576::BIGINT AS v FROM pc_mu),{rounds_sql}
SELECT i, v::BIGINT AS component_fp FROM {prev} ORDER BY i
"""


def embedding_drift(cur_ds, prior_ds, scale: int = 10_000):
    """Per-dimension mean drift between two embedding snapshots —
    ``(i, mean_cur, mean_prior, delta)`` in exact fixed-point units
    (half-away ``round(x·scale)`` sums, half-away integer means), the
    embedding-space monitoring twin of vocab_drift: a production
    pipeline re-embedding its corpus needs to know when the vector
    distribution moved.

    Scale shape: each side reduces per batch to ONE (n, Σunits[dim])
    row (``_unit_sums``); the driver sums |blocks| partials — vectors
    never leave their batch.
    """
    import pandas as pd

    n_c, s_c = _unit_sums(cur_ds, scale)
    n_p, s_p = _unit_sums(prior_ds, scale)
    mean_c = _div_half_away(s_c, n_c)
    mean_p = _div_half_away(s_p, n_p)
    dim = len(s_c)
    return pd.DataFrame({"i": np.arange(1, dim + 1, dtype=np.int64),
                         "mean_cur": mean_c, "mean_prior": mean_p,
                         "delta": mean_c - mean_p})


def embedding_drift_sql(prior_mod: int = 5, scale: int = 10_000,
                        table: str = "embeddings") -> str:
    """Oracle twin (prior snapshot = the ``vec_id % prior_mod != 0``
    subset, the synth-prior convention)."""
    def half_div(num: str, den: str) -> str:
        return (f"(CASE WHEN ({num}) >= 0 "
                f"THEN (2*({num}) + ({den})) // (2*({den}))"
                f" ELSE -((-2*({num}) + ({den})) // (2*({den}))) END)")

    return f"""
WITH ed_u AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS unit
  FROM {table}),
ed_c AS (
  SELECT i, {half_div('sum(unit)::BIGINT', 'count(*)')}::BIGINT
           AS mean_cur
  FROM ed_u GROUP BY i),
ed_p AS (
  SELECT i, {half_div('sum(unit)::BIGINT', 'count(*)')}::BIGINT
           AS mean_prior
  FROM ed_u WHERE vec_id % {prior_mod} != 0 GROUP BY i)
SELECT c.i, c.mean_cur, p.mean_prior,
       (c.mean_cur - p.mean_prior)::BIGINT AS delta
FROM ed_c c JOIN ed_p p USING (i) ORDER BY c.i
"""


# ---------------------------------------------------------------------------
# hybrid retrieval: reciprocal-rank fusion of lexical + embedding rankings
# ---------------------------------------------------------------------------

def _rank_dot(st, batch, ids):
    return [(st["q"] @ _units_matrix(_emb_matrix(batch)).T, None)]


def _int_dot_topr(emb_ds, q_units: np.ndarray, r: int):
    """Top-r vec_ids by exact fixed-point inner product against ONE
    broadcast query (int64 units; ties → vec_id ASC): the top-k
    skeleton with one query and no mask — ≤r rows leave each block,
    one merge, no global sort.  Dot magnitudes are ≤ dim·scale² ≈
    6.4e13."""
    parts = _scored(emb_ds.select_columns(["vec_id", "embedding"]),
                    "int_dot_topr-query", [0], r, rank=_rank_dot,
                    q=q_units.astype(np.int64)[None, :])
    out = _merged(parts, "query_id", r,
                  lambda t: t.select(["neighbor_id", "rnk"])).to_pandas()
    return out.sort_values("rnk")["neighbor_id"].astype(int).tolist()


def rrf_fusion(docs_ds, emb_ds, query_text: str, query_vec: np.ndarray,
               r: int = 50, k: int = 10, rrf_k: int = 60,
               rrf_scale: int = 10 ** 6, lex_scale: int = 10 ** 6):
    """Hybrid retrieval: reciprocal-rank fusion of a lexical ranking
    (integer RSJ-ratio scores, ``ops/text.py:lexical_topk``) and an
    embedding ranking (exact fixed-point inner product) over the
    id-aligned doc/vector corpus — ``rrf(d) = Σ_rankings scale //
    (rrf_k + rank(d))`` in exact integers (Cormack et al.'s RRF with
    the float 1/(k+r) replaced by its scaled integer floor, a monotone
    transform at fixed scale).

    Scale shape: each side is its own distributed sweep ending in a
    top-r local-prune (≤r rows to the driver per side); fusion itself
    touches ≤2r id/rank pairs driver-side.  Output: top-k
    ``(doc_id, rrf_score, lex_rank, emb_rank)``; rank 0 = "not in that
    side's top-r".
    """
    import pandas as pd

    from .text import lexical_topk

    lex_rows = lexical_topk(docs_ds, query_text, k=r,
                            scale=lex_scale).to_pylist()
    lex_rank = {int(x["doc_id"]): i + 1 for i, x in enumerate(lex_rows)}
    emb_ids = _int_dot_topr(emb_ds, _units_matrix(query_vec), r)
    emb_rank = {d: i + 1 for i, d in enumerate(emb_ids)}

    fused = []
    for d in set(lex_rank) | set(emb_rank):
        score = 0
        for rank in (lex_rank.get(d), emb_rank.get(d)):
            if rank is not None:
                score += rrf_scale // (rrf_k + rank)
        fused.append((d, score, lex_rank.get(d, 0), emb_rank.get(d, 0)))
    fused.sort(key=lambda x: (-x[1], x[0]))
    return pd.DataFrame(
        fused[:k],
        columns=["doc_id", "rrf_score", "lex_rank", "emb_rank"]) \
        .astype(np.int64)


def rrf_fusion_sql(query_text: str, r: int = 50, k: int = 10,
                   rrf_k: int = 60, rrf_scale: int = 10 ** 6,
                   lex_scale: int = 10 ** 6,
                   scale: int = _UNIT_SCALE) -> str:
    """DuckDB twin: same two rankings (query vector = the min-vec_id
    row, the ANN _load_queries convention), same integer RRF floor."""
    terms = sorted(set(query_text.split(" ")))
    in_list = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH rf_tf AS (
  SELECT doc_id, w, count(*)::BIGINT AS tf
  FROM (SELECT doc_id, unnest(str_split(text, ' ')) AS w
        FROM documents)
  WHERE w IN ({in_list}) GROUP BY doc_id, w),
rf_df AS (SELECT w, count(*)::BIGINT AS df FROM rf_tf GROUP BY w),
rf_n AS (SELECT count(*)::BIGINT AS n FROM documents),
rf_w AS (SELECT w, ((n - df) * {lex_scale}) // (df + 1) AS wt
         FROM rf_df CROSS JOIN rf_n),
rf_lex AS (
  SELECT * FROM (
    SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id)
           AS rnk
    FROM (SELECT doc_id, sum(tf * wt)::BIGINT AS score
          FROM rf_tf JOIN rf_w USING (w) GROUP BY doc_id))
  WHERE rnk <= {r}),
rf_e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS u
  FROM embeddings),
rf_qid AS (SELECT min(vec_id) AS qid FROM embeddings),
rf_qu AS (SELECT i, u FROM rf_e, rf_qid WHERE vec_id = qid),
rf_dot AS (
  SELECT e.vec_id, sum(e.u * q.u) AS s
  FROM rf_e e JOIN rf_qu q USING (i) GROUP BY 1),
rf_emb AS (
  SELECT * FROM (
    SELECT vec_id AS doc_id,
           row_number() OVER (ORDER BY s DESC, vec_id) AS rnk
    FROM rf_dot)
  WHERE rnk <= {r})
SELECT COALESCE(l.doc_id, e.doc_id)::BIGINT AS doc_id,
       (COALESCE({rrf_scale} // ({rrf_k} + l.rnk), 0)
        + COALESCE({rrf_scale} // ({rrf_k} + e.rnk), 0))::BIGINT
         AS rrf_score,
       COALESCE(l.rnk, 0)::BIGINT AS lex_rank,
       COALESCE(e.rnk, 0)::BIGINT AS emb_rank
FROM rf_lex l FULL OUTER JOIN rf_emb e USING (doc_id)
ORDER BY rrf_score DESC, doc_id LIMIT {k}
"""


def mmr_topk(emb_ds_factory, queries: np.ndarray, query_ids: list[int],
             k: int = 5, m: int = 20, scale: int = _UNIT_SCALE):
    """Maximal-marginal-relevance diversified retrieval — per query,
    select ``k`` of its ``m`` brute-force candidates greedily by
    ``dot(q, c) − max_{s∈selected} dot(c, s)`` (MMR at λ = ½, the ½
    scales out of the argmax): ``(query_id, rank, neighbor_id)``.
    Plain top-k returns near-duplicate neighbors; MMR trades relevance
    for coverage — the retrieval-diversity op RAG stacks bolt on.

    Scale shape: candidate generation is the existing distributed
    brute-force kernel (broadcast queries, streamed scoring, float
    ranking identical to the ann_topk oracle); ONE column-pruned
    filtered pass fetches the ≤ |queries|·m + |queries| candidate
    embeddings; the greedy loop runs on the driver over that bounded
    set in exact int64 fixed-point dots (dim·scale² ≈ 6·10¹³ « 2⁶³),
    so selection replays bit-for-bit in the unrolled SQL twin.
    """
    import ray

    from ..stages.broadcast import cached_get

    cand = brute_force_topk(emb_ds_factory(), queries, query_ids,
                            k=m).to_pandas()
    need = sorted(set(cand["neighbor_id"]) | set(query_ids))
    need_ref = ray.put(np.array(need, np.int64))

    def pick(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        ids = cached_get(need_ref, tag="mmr_topk-candidates")
        return t.filter(_pc.is_in(t["vec_id"],
                                  value_set=pa.array(ids, pa.int64())))

    sub = pa.Table.from_pylist(
        emb_ds_factory().map_batches(pick, batch_format="pyarrow",
                                     zero_copy_batch=True).take_all())
    ids_arr = _ids_vector(sub)
    units = _units_matrix(_emb_matrix(sub), scale)
    uv = {int(i): units[j] for j, i in enumerate(ids_arr)}

    out_q, out_r, out_n = [], [], []
    for qi, qid in enumerate(query_ids):
        nbrs = sorted(cand.loc[cand["query_id"] == qid, "neighbor_id"]
                      .astype(int))
        qu = _units_matrix(queries[qi], scale)
        dotq = {n: int(qu @ uv[n]) for n in nbrs}
        sel: list[int] = []
        rest = list(nbrs)
        while rest and len(sel) < k:
            if not sel:
                best = max(rest, key=lambda n: (dotq[n], -n))
            else:
                best = max(
                    rest,
                    key=lambda n: (dotq[n] - max(int(uv[n] @ uv[s])
                                                 for s in sel), -n))
            sel.append(best)
            rest.remove(best)
        for r, n in enumerate(sel, 1):
            out_q.append(int(qid)); out_r.append(r); out_n.append(n)
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "neighbor_id": pa.array(out_n, pa.int64()),
    })


def mmr_topk_sql(k: int = 5, m: int = 20, n_queries: int = 10,
                 scale: int = _UNIT_SCALE) -> str:
    """Unrolled-round twin of :func:`mmr_topk`: float-cosine candidate
    CTE (the ann_topk shape), integer unit dots via subscript join, and
    k greedy selection rounds (round i picks the argmax of
    dotq − max dot to the round-(i−1) selection set)."""
    rounds = []
    for i in range(2, k + 1):
        rounds.append(f"""mmr_r{i} AS (
  SELECT d.query_id, d.neighbor_id,
         d.dotq - (SELECT max(p.dot) FROM mmr_pair p
                   JOIN mmr_sel{i - 1} s
                     ON s.query_id = p.query_id
                    AND s.neighbor_id = p.nb
                   WHERE p.query_id = d.query_id
                     AND p.na = d.neighbor_id) AS sc
  FROM mmr_dq d
  WHERE NOT EXISTS (SELECT 1 FROM mmr_sel{i - 1} s
                    WHERE s.query_id = d.query_id
                      AND s.neighbor_id = d.neighbor_id)),
mmr_s{i} AS (
  SELECT query_id, {i}::BIGINT AS rank, neighbor_id FROM (
    SELECT *, row_number() OVER (PARTITION BY query_id
      ORDER BY sc DESC, neighbor_id ASC) AS rn FROM mmr_r{i})
  WHERE rn = 1),
mmr_sel{i} AS (
  SELECT query_id, neighbor_id FROM mmr_sel{i - 1}
  UNION ALL SELECT query_id, neighbor_id FROM mmr_s{i})""")
    union = "\nUNION ALL\n".join(
        [f"SELECT * FROM mmr_s{i}" for i in range(1, k + 1)])
    rounds_sql = ",\n".join(rounds)
    return f"""
WITH mmr_q AS (SELECT vec_id, embedding FROM embeddings
               ORDER BY vec_id LIMIT {n_queries}),
mmr_cand AS (
  SELECT query_id, neighbor_id FROM (
    SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
           row_number() OVER (
             PARTITION BY q.vec_id
             ORDER BY list_cosine_similarity(
               q.embedding::DOUBLE[], e.embedding::DOUBLE[]) DESC,
               e.vec_id ASC) AS rnk
    FROM mmr_q q CROSS JOIN embeddings e
    WHERE e.vec_id != q.vec_id)
  WHERE rnk <= {m}),
mmr_ux AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS u
  FROM embeddings
  WHERE vec_id IN (SELECT neighbor_id FROM mmr_cand)
     OR vec_id IN (SELECT vec_id FROM mmr_q)),
mmr_dq AS (
  SELECT c.query_id, c.neighbor_id, sum(x.u * y.u)::BIGINT AS dotq
  FROM mmr_cand c
  JOIN mmr_ux x ON x.vec_id = c.query_id
  JOIN mmr_ux y ON y.vec_id = c.neighbor_id AND y.i = x.i
  GROUP BY 1, 2),
mmr_pair AS (
  SELECT c1.query_id, c1.neighbor_id AS na, c2.neighbor_id AS nb,
         sum(x.u * y.u)::BIGINT AS dot
  FROM mmr_cand c1
  JOIN mmr_cand c2 ON c2.query_id = c1.query_id
                  AND c2.neighbor_id != c1.neighbor_id
  JOIN mmr_ux x ON x.vec_id = c1.neighbor_id
  JOIN mmr_ux y ON y.vec_id = c2.neighbor_id AND y.i = x.i
  GROUP BY 1, 2, 3),
mmr_s1 AS (
  SELECT query_id, 1::BIGINT AS rank, neighbor_id FROM (
    SELECT *, row_number() OVER (PARTITION BY query_id
      ORDER BY dotq DESC, neighbor_id ASC) AS rn FROM mmr_dq)
  WHERE rn = 1),
mmr_sel1 AS (SELECT query_id, neighbor_id FROM mmr_s1),
{rounds_sql}
{union}
ORDER BY query_id, rank
"""


# --- signed random-projection (Johnson-Lindenstrauss) recall audit ---------

def _rank_rp(st, batch, ids):
    ud = _units_matrix(_emb_matrix(batch))
    m = _not_self(st, ids)
    return [(st["q"] @ ud.T, m), (st["vq"] @ (ud @ st["S"].T).T, m)]


def rp_projection_recall(emb_ds, queries: np.ndarray,
                         query_ids: list[int], k: int = 5,
                         n_proj: int = 16, seed: int = 29):
    """Recall@k of inner-product search in a ``n_proj``-dim signed
    random projection (Rademacher ±1 — the integer-exact
    Johnson-Lindenstrauss / Achlioptas family) against full-dim exact
    search — the "what does a 4× dim reduction cost" audit run before
    shipping a compressed index.  Returns (query_id, n_match,
    recall_ppm).

    Both rankings use EXACT INT64 sort keys (ties → neighbor_id ASC):
    exact ``Σ u_q·u_d`` over round(x·10⁶) units; projected
    ``Σ (S u_q)·(S u_d)`` with the seeded ±1 matrix S — so the DuckDB
    twin replays both top-k sets and the recall bit-for-bit.  S rides
    in the broadcast state; per batch: two integer matmuls on the top-k
    skeleton, 2·k partial rows per (query, batch).
    """
    uq = _units_matrix(np.asarray(queries, np.float64))
    S = (np.random.RandomState(seed).randint(0, 2, size=(n_proj,
                                                         uq.shape[1]))
         * 2 - 1).astype(np.int64)
    parts = _scored(emb_ds, "rp_projection_recall-planes", query_ids, k,
                    rank=_rank_rp, q=uq, S=S, vq=uq @ S.T)
    return _merged(parts, "query_id", k, _recall_rows("n_match", k))


def rp_projection_recall_sql(dim: int, k: int = 5, n_queries: int = 10,
                             n_proj: int = 16, seed: int = 29,
                             scale: int = _UNIT_SCALE) -> str:
    """DuckDB twin: the same seeded ±1 planes embedded as 0/1 literal
    strings (lsh_keys_cte_sql precedent), same integer units, same sort
    keys, same intersection count."""
    rng = np.random.RandomState(seed)
    S = rng.randint(0, 2, size=(n_proj, dim)) * 2 - 1
    rows = ", ".join(
        "({}, '{}')".format(
            j, "".join("1" if v == 1 else "0" for v in S[j]))
        for j in range(n_proj))
    return f"""
WITH rp_e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS u
  FROM embeddings),
rp_q AS (SELECT vec_id FROM embeddings ORDER BY vec_id
         LIMIT {n_queries}),
rp_pl AS (SELECT * FROM (VALUES {rows}) AS t(j, s)),
rp_v AS MATERIALIZED (
  SELECT e.vec_id, p.j,
         sum(CASE WHEN substr(p.s, e.i::INT, 1) = '1'
                  THEN e.u ELSE -e.u END) AS v
  FROM rp_e e CROSS JOIN rp_pl p
  GROUP BY e.vec_id, p.j),
rp_dot_e AS (
  SELECT qe.vec_id AS qid, de.vec_id AS nid, sum(qe.u * de.u) AS s
  FROM rp_e qe JOIN rp_q ON rp_q.vec_id = qe.vec_id
  JOIN rp_e de ON de.i = qe.i AND de.vec_id != qe.vec_id
  GROUP BY 1, 2),
rp_dot_p AS (
  SELECT qv.vec_id AS qid, dv.vec_id AS nid, sum(qv.v * dv.v) AS s
  FROM rp_v qv JOIN rp_q ON rp_q.vec_id = qv.vec_id
  JOIN rp_v dv ON dv.j = qv.j AND dv.vec_id != qv.vec_id
  GROUP BY 1, 2),
rp_rank_e AS (
  SELECT qid, nid, row_number() OVER (
    PARTITION BY qid ORDER BY s DESC, nid ASC) AS rn FROM rp_dot_e),
rp_rank_p AS (
  SELECT qid, nid, row_number() OVER (
    PARTITION BY qid ORDER BY s DESC, nid ASC) AS rn FROM rp_dot_p),
rp_match AS (
  SELECT a.qid, count(*) AS n_match
  FROM (SELECT qid, nid FROM rp_rank_e WHERE rn <= {k}) a
  JOIN (SELECT qid, nid FROM rp_rank_p WHERE rn <= {k}) b
    ON b.qid = a.qid AND b.nid = a.nid
  GROUP BY a.qid)
SELECT q.vec_id AS query_id,
       coalesce(m.n_match, 0)::BIGINT AS n_match,
       (coalesce(m.n_match, 0) * 1000000 // {k})::BIGINT AS recall_ppm
FROM rp_q q LEFT JOIN rp_match m ON m.qid = q.vec_id
ORDER BY query_id
"""


# --- lexical-vs-embedding rank agreement (Kendall tau) ---------------------

def rank_agreement(docs_ds, emb_ds, query_text: str,
                   query_vec: np.ndarray, r: int = 50,
                   lex_scale: int = 10 ** 6):
    """Rank-agreement audit between the lexical and embedding
    retrievers: exact Kendall tau over the docs BOTH rankers place in
    their top-``r`` — the "do my two retrieval signals even agree"
    check run before fusing them.  Output (one row): (n_common,
    n_concordant, n_discordant, tau_ppm) with
    ``tau = (C − D) / (C + D)`` in truncation-safe signed ppm (ranks
    are distinct, so there are no tie pairs).

    Scale shape: both rankings are the rrf_fusion sweeps (distributed
    scoring + top-r local prune, ≤r rows to the driver per side); the
    tau fold touches ≤ r² driver-side pairs of two small ints.
    """
    from .text import lexical_topk

    lex_rows = lexical_topk(docs_ds, query_text, k=r,
                            scale=lex_scale).to_pylist()
    lex_rank = {int(x["doc_id"]): i + 1 for i, x in enumerate(lex_rows)}
    emb_ids = _int_dot_topr(emb_ds, _units_matrix(query_vec), r)
    emb_rank = {d: i + 1 for i, d in enumerate(emb_ids)}

    common = sorted(set(lex_rank) & set(emb_rank))
    C = D = 0
    for i, a in enumerate(common):
        for b in common[i + 1:]:
            prod = (lex_rank[a] - lex_rank[b]) \
                * (emb_rank[a] - emb_rank[b])
            if prod > 0:
                C += 1
            elif prod < 0:
                D += 1
    num = C - D
    den = C + D
    tau = 0 if den == 0 else (
        (1_000_000 * num) // den if num >= 0
        else -((1_000_000 * -num) // den))
    return pa.table({
        "n_common": pa.array([len(common)], pa.int64()),
        "n_concordant": pa.array([C], pa.int64()),
        "n_discordant": pa.array([D], pa.int64()),
        "tau_ppm": pa.array([tau], pa.int64()),
    })


def rank_agreement_sql(query_text: str, r: int = 50,
                       lex_scale: int = 10 ** 6) -> str:
    """Twin: the rrf_fusion twin's two ranking chains, folded into the
    exact pairwise concordance counts instead of an RRF score."""
    base = rrf_fusion_sql(query_text, r=r, lex_scale=lex_scale)
    head = base[:base.rindex("SELECT COALESCE")].rstrip()
    return f"""{head},
ra_c AS (
  SELECT l.doc_id, l.rnk AS lr, e.rnk AS er
  FROM rf_lex l JOIN rf_emb e USING (doc_id)),
ra_p AS (
  SELECT coalesce(sum(((a.lr - b.lr) * (a.er - b.er) > 0)::BIGINT), 0)
           AS c,
         coalesce(sum(((a.lr - b.lr) * (a.er - b.er) < 0)::BIGINT), 0)
           AS d
  FROM ra_c a JOIN ra_c b ON a.doc_id < b.doc_id)
SELECT (SELECT count(*) FROM ra_c)::BIGINT AS n_common,
       c::BIGINT AS n_concordant, d::BIGINT AS n_discordant,
       (CASE WHEN c + d = 0 THEN 0
             WHEN c >= d THEN (1000000 * (c - d)) // (c + d)
             ELSE -((1000000 * (d - c)) // (c + d)) END)::BIGINT
         AS tau_ppm
FROM ra_p
"""


# --- triplet mining (anchor, hardest positive, hardest negative) -----------

def _rank_triplet(st, batch, ids):
    s = st["q"] @ _units_matrix(_emb_matrix(batch)).T
    same = st["labels"][:, None] == _labels(batch)[None, :]
    return [(s, same & _not_self(st, ids)), (s, ~same)]


def triplet_mining(emb_ds, queries: np.ndarray, query_ids: list[int],
                   query_labels: list[int]):
    """Contrastive triplet mining: per anchor, the HARDEST positive
    (most-similar same-label vector, ≠ self) and the HARDEST negative
    (most-similar different-label vector), plus the exact integer
    margin ``pos_key − neg_key`` — negative margins are the triplets a
    metric-learning run needs most.  Output: (query_id, positive_id,
    negative_id, margin).

    Ranking key = exact fixed-point inner product (int64 units), ties
    → candidate id ASC.  The top-k skeleton at k = 1 with a same-label
    (method 0) and a different-label (method 1) mask; the ≤ 2 partial
    rows per (anchor, batch) fold on the driver — no exchange.
    """
    parts = _scored(emb_ds, "triplet_mining-anchors", query_ids, 1,
                    rank=_rank_triplet,
                    q=_units_matrix(np.asarray(queries, np.float64)),
                    labels=np.asarray(query_labels, np.int64))
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for r in parts.take_all():
        kk = (int(r["query_id"]), int(r["method"]))
        cand = (-int(r["score"]), int(r["neighbor_id"]))
        if kk not in best or cand < best[kk]:
            best[kk] = cand
    qs = [q for q in sorted(set(query_ids))
          if (q, 0) in best and (q, 1) in best]
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "positive_id": pa.array([best[q, 0][1] for q in qs], pa.int64()),
        "negative_id": pa.array([best[q, 1][1] for q in qs], pa.int64()),
        "margin": pa.array([best[q, 1][0] - best[q, 0][0] for q in qs],
                           pa.int64()),
    })


def triplet_mining_sql(n_queries: int = 10,
                       scale: int = _UNIT_SCALE) -> str:
    return f"""
WITH tm_e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS u
  FROM embeddings),
tm_q AS (SELECT vec_id, label FROM embeddings ORDER BY vec_id
         LIMIT {n_queries}),
tm_dot AS (
  SELECT qe.vec_id AS qid, de.vec_id AS nid, sum(qe.u * de.u) AS s
  FROM tm_e qe JOIN tm_q ON tm_q.vec_id = qe.vec_id
  JOIN tm_e de ON de.i = qe.i AND de.vec_id != qe.vec_id
  GROUP BY 1, 2),
tm_pos AS (
  SELECT qid, nid, s FROM (
    SELECT d.qid, d.nid, d.s, row_number() OVER (
      PARTITION BY d.qid ORDER BY d.s DESC, d.nid ASC) AS rn
    FROM tm_dot d
    JOIN tm_q ON tm_q.vec_id = d.qid
    JOIN embeddings ne ON ne.vec_id = d.nid
    WHERE ne.label = tm_q.label) WHERE rn = 1),
tm_neg AS (
  SELECT qid, nid, s FROM (
    SELECT d.qid, d.nid, d.s, row_number() OVER (
      PARTITION BY d.qid ORDER BY d.s DESC, d.nid ASC) AS rn
    FROM tm_dot d
    JOIN tm_q ON tm_q.vec_id = d.qid
    JOIN embeddings ne ON ne.vec_id = d.nid
    WHERE ne.label != tm_q.label) WHERE rn = 1)
SELECT q.vec_id AS query_id, p.nid AS positive_id,
       n.nid AS negative_id, (p.s - n.s)::BIGINT AS margin
FROM tm_q q
JOIN tm_pos p ON p.qid = q.vec_id
JOIN tm_neg n ON n.qid = q.vec_id
ORDER BY query_id
"""


# --- exact gram matrix (distributed X^T X) ---------------------------------

def embedding_gram_matrix(emb_ds):
    """Exact gram matrix ``Σ_vec u u^T`` of the fixed-point embedding
    units (round(x·10⁶), the repo-wide convention) — the one-pass
    distributed linear-algebra primitive under covariance/PCA/whitening.
    Output: upper triangle as (i, j, v) rows, 1-based dims.

    Scale shape: each batch computes its d×d partial with ONE int64
    matmul (``ud.T @ ud``) and the driver folds n_blocks partials in
    PYTHON ints — a batch partial stays < 2^63 for any batch under
    ~9M rows (|u| ≤ 10⁶ ⇒ |u_i·u_j| ≤ 10¹²), while the GLOBAL sum can
    overflow int64, so the fold is arbitrary-precision and the output
    asserts |v| < 2^62 (the twin sums HUGEINT).  Exchange: d² ints per
    block, nothing else.
    """
    d_holder = {}

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"flat": pa.array([], pa.list_(pa.int64())),
                             "d": pa.array([], pa.int64())})
        ud = _units_matrix(_emb_matrix(batch))
        g = ud.T @ ud
        return pa.table({
            "flat": pa.array([g.ravel().tolist()],
                             pa.list_(pa.int64())),
            "d": pa.array([g.shape[0]], pa.int64())})

    rows = emb_ds.select_columns(["embedding"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True).take_all()
    if not rows:
        return pa.table({"i": pa.array([], pa.int64()),
                         "j": pa.array([], pa.int64()),
                         "v": pa.array([], pa.int64())})
    d = int(rows[0]["d"])
    acc = [[0] * d for _ in range(d)]
    for r in rows:
        flat = r["flat"]
        for i in range(d):
            base = i * d
            row = acc[i]
            for j in range(d):
                row[j] += int(flat[base + j])
    out_i, out_j, out_v = [], [], []
    for i in range(d):
        for j in range(i, d):
            v = acc[i][j]
            assert abs(v) < (1 << 62), "gram entry exceeds int64 range"
            out_i.append(i + 1)
            out_j.append(j + 1)
            out_v.append(v)
    return pa.table({"i": pa.array(out_i, pa.int64()),
                     "j": pa.array(out_j, pa.int64()),
                     "v": pa.array(out_v, pa.int64())})


def embedding_gram_matrix_sql(scale: int = _UNIT_SCALE) -> str:
    return f"""
WITH gm_e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS u
  FROM embeddings)
SELECT a.i, b.i AS j, sum(a.u::HUGEINT * b.u)::BIGINT AS v
FROM gm_e a JOIN gm_e b
  ON b.vec_id = a.vec_id AND b.i >= a.i
GROUP BY a.i, b.i ORDER BY a.i, b.i
"""


# --- product quantization (PQ / ADC) recall audit --------------------------

def _pq_fit(emb_ds, m: int, n_centroids: int, train_size: int,
            iters: int) -> list[np.ndarray]:
    """Per-subspace integer k-means codebooks from ONE shared
    ``_train_sample`` (the ``_fit_quantizer`` recipe, sliced ``m``
    ways): a list of int64 centroid matrices."""
    sample = _train_sample(emb_ds, train_size)
    assert sample.shape[1] % m == 0, "PQ requires dim divisible by m"
    sub = sample.shape[1] // m
    return [_kmeans_fit_int(sample[:, s * sub:(s + 1) * sub],
                            min(n_centroids, len(sample)), iters)
            for s in range(m)]


def _rank_pq(st, batch, ids):
    ud = _units_matrix(_emb_matrix(batch))
    sub = ud.shape[1] // len(st["books"])
    adc = sum(lut[:, _assign_int(ud[:, s * sub:(s + 1) * sub], book)]
              for s, (lut, book) in enumerate(zip(st["luts"],
                                                  st["books"])))
    m = _not_self(st, ids)
    return [(st["q"] @ ud.T, m), (adc, m)]


def pq_quant_recall(emb_ds, queries: np.ndarray, query_ids: list[int],
                    k: int = 5, m: int = 2, n_centroids: int = 8,
                    train_size: int = 512, iters: int = 3):
    """Recall@k of PRODUCT-QUANTIZED asymmetric-distance search
    (Jégou et al.'s PQ/ADC: the vector splits into ``m`` subspaces,
    each coded to its nearest of ``n_centroids`` integer-k-means
    centroids; a query scores a code by summing per-subspace LUT dots)
    against exact full-precision search — the compressed-index audit
    next to int8 and JL.  Returns (query_id, n_match, recall_ppm).

    EXACT integers end-to-end: the codebooks come from the shared
    ``_kmeans_fit_int`` (so the DuckDB twin replays the training
    bit-for-bit, per subspace), codes use the same
    ``|c|² − 2·u·c`` argmin, and both rankings sort on int64 keys with
    neighbor-id tie-breaks.  Codebooks and per-(query, subspace) LUTs
    of exact integer dots ride in the broadcast state; per batch: m
    assignment matmuls + a LUT gather on the top-k skeleton, 2·k
    partial rows per (query, batch).
    """
    if emb_ds.count() == 0 or len(query_ids) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "n_match": pa.array([], pa.int64()),
                         "recall_ppm": pa.array([], pa.int64())})
    books = _pq_fit(emb_ds, m, n_centroids, train_size, iters)
    uq = _units_matrix(np.asarray(queries, np.float64))
    sub = uq.shape[1] // m
    luts = [uq[:, s * sub:(s + 1) * sub] @ books[s].T for s in range(m)]
    parts = _scored(emb_ds, "pq_quant_recall-codebooks", query_ids, k,
                    rank=_rank_pq, q=uq, books=books, luts=luts)
    return _merged(parts, "query_id", k, _recall_rows("n_match", k))


def _pq_kmeans_cte_sql(prefix: str, lo: int, hi: int, n_centroids: int,
                       train_size: int, iters: int, scale: int) -> str:
    """The ``_kmeans_index_cte_sql`` chain restricted to embedding dims
    ``lo..hi`` (1-based, inclusive) under a CTE ``prefix`` — one chain
    per PQ subspace.  Defines ``{prefix}assign(vec_id, cid)`` and
    ``{prefix}c{iters}(cid, i, cu)``.  The sample CTE ``pq_samp`` is
    shared and must be defined by the caller."""
    p = prefix
    rounds = []
    for r in range(1, iters + 1):
        rounds.append(f"""
        {p}d{r} AS (
          SELECT se.vec_id, c.cid,
                 sum(c.cu * c.cu - 2 * se.u * c.cu) AS dist
          FROM {p}se se JOIN {p}c{r - 1} c ON c.i = se.i
          GROUP BY se.vec_id, c.cid),
        {p}a{r} AS (
          SELECT vec_id, cid FROM (
            SELECT vec_id, cid, row_number() OVER (
              PARTITION BY vec_id ORDER BY dist ASC, cid ASC) AS rn
            FROM {p}d{r}) WHERE rn = 1),
        {p}s{r} AS (
          SELECT a.cid, se.i, sum(se.u) AS s, count(*) AS n
          FROM {p}a{r} a JOIN {p}se se ON se.vec_id = a.vec_id
          GROUP BY a.cid, se.i),
        {p}c{r} AS (
          SELECT pp.cid, pp.i,
                 CAST(coalesce(
                   CASE WHEN s.s >= 0 THEN (2 * s.s + s.n) // (2 * s.n)
                        ELSE -((-2 * s.s + s.n) // (2 * s.n)) END,
                   pp.cu) AS BIGINT) AS cu
          FROM {p}c{r - 1} pp
          LEFT JOIN {p}s{r} s ON s.cid = pp.cid AND s.i = pp.i)""")
    rounds_sql = ",".join(rounds)
    return rf"""{p}e AS (
          SELECT vec_id, i, u FROM pq_e WHERE i BETWEEN {lo} AND {hi}),
        {p}se AS (SELECT e.* FROM {p}e e JOIN pq_samp USING (vec_id)),
        {p}init AS (
          SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cid
          FROM pq_samp ORDER BY vec_id LIMIT {n_centroids}),
        {p}c0 AS (
          SELECT ii.cid, e.i, e.u AS cu
          FROM {p}init ii JOIN {p}e e ON e.vec_id = ii.vec_id),
        {rounds_sql},
        {p}dall AS (
          SELECT e.vec_id, c.cid,
                 sum(c.cu * c.cu - 2 * e.u * c.cu) AS dist
          FROM {p}e e JOIN {p}c{iters} c ON c.i = e.i
          GROUP BY e.vec_id, c.cid),
        {p}assign AS (
          SELECT vec_id, cid FROM (
            SELECT vec_id, cid, row_number() OVER (
              PARTITION BY vec_id ORDER BY dist ASC, cid ASC) AS rn
            FROM {p}dall) WHERE rn = 1)"""


def pq_quant_recall_sql(dim: int, k: int = 5, m: int = 2,
                        n_centroids: int = 8, train_size: int = 512,
                        iters: int = 3, n_queries: int = 10,
                        scale: int = _UNIT_SCALE) -> str:
    """Composed twin: one per-subspace k-means chain each, per-query
    LUTs, ADC ranking vs exact ranking, intersection recall."""
    assert dim % m == 0
    sub = dim // m
    chains, luts, adds = [], [], []
    for s in range(m):
        p = f"pq{s}_"
        chains.append(_pq_kmeans_cte_sql(
            p, s * sub + 1, (s + 1) * sub, n_centroids, train_size,
            iters, scale))
        luts.append(f"""{p}lut AS (
          SELECT qe.vec_id AS qid, c.cid, sum(qe.u * c.cu) AS w
          FROM {p}e qe JOIN pq_q ON pq_q.vec_id = qe.vec_id
          JOIN {p}c{iters} c ON c.i = qe.i
          GROUP BY qe.vec_id, c.cid)""")
        adds.append(f"""JOIN {p}assign a{s} ON a{s}.vec_id = e.vec_id
          JOIN {p}lut l{s} ON l{s}.qid = q.vec_id
                          AND l{s}.cid = a{s}.cid""")
    lut_sum = " + ".join(f"l{s}.w" for s in range(m))
    chain_sql = ",\n        ".join(chains)
    lut_sql = ",\n        ".join(luts)
    joins = "\n          ".join(adds)
    return rf"""
WITH pq_e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
              AS BIGINT) AS u
  FROM embeddings),
pq_samp AS (
  SELECT vec_id FROM embeddings
  WHERE ('0x' || substr(md5(CAST(vec_id AS VARCHAR)), 1, 15))::BIGINT
        % greatest(1, (SELECT count(*) FROM embeddings)
                      // {train_size}) = 0
  ORDER BY vec_id LIMIT {train_size}),
pq_q AS (SELECT vec_id FROM embeddings ORDER BY vec_id
         LIMIT {n_queries}),
        {chain_sql},
        {lut_sql},
pq_adc AS (
  SELECT q.vec_id AS qid, e.vec_id AS nid, {lut_sum} AS s
  FROM pq_q q
  CROSS JOIN (SELECT DISTINCT vec_id FROM pq_e) e
  {joins}
  WHERE e.vec_id != q.vec_id),
pq_dot_e AS (
  SELECT qe.vec_id AS qid, de.vec_id AS nid, sum(qe.u * de.u) AS s
  FROM pq_e qe JOIN pq_q ON pq_q.vec_id = qe.vec_id
  JOIN pq_e de ON de.i = qe.i AND de.vec_id != qe.vec_id
  GROUP BY 1, 2),
pq_rank_e AS (
  SELECT qid, nid, row_number() OVER (
    PARTITION BY qid ORDER BY s DESC, nid ASC) AS rn FROM pq_dot_e),
pq_rank_p AS (
  SELECT qid, nid, row_number() OVER (
    PARTITION BY qid ORDER BY s DESC, nid ASC) AS rn FROM pq_adc),
pq_match AS (
  SELECT a.qid, count(*) AS n_match
  FROM (SELECT qid, nid FROM pq_rank_e WHERE rn <= {k}) a
  JOIN (SELECT qid, nid FROM pq_rank_p WHERE rn <= {k}) b
    ON b.qid = a.qid AND b.nid = a.nid
  GROUP BY a.qid)
SELECT q.vec_id AS query_id,
       coalesce(mt.n_match, 0)::BIGINT AS n_match,
       (coalesce(mt.n_match, 0) * 1000000 // {k})::BIGINT AS recall_ppm
FROM pq_q q LEFT JOIN pq_match mt ON mt.qid = q.vec_id
ORDER BY query_id
"""
