"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup (training-data pipeline components).

Scale shapes (ray_guide "Aggregation at scale" patterns):

* exact: content-hash column in a vectorized ``map_batches`` →
  hash-shuffle ``groupby(hash)`` keeping ``min(doc_id)`` — native
  aggregation, no per-group Python;
* MinHash-LSH: shingle→minhash per batch (numpy, k permutations via the
  (a·h+b) mod p trick) → explode to (band, band_hash, doc_id) rows →
  ``groupby(band, band_hash)`` → per-bucket candidate pairs →
  Jaccard verification (signature-estimate, broadcast-free) →
  components via the same distributed union-find as entity canon;
* SimHash: 64-bit signatures, hamming≤k via pigeonhole band buckets;
* embedding near-dup: random-hyperplane LSH buckets → exact cosine
  verify inside buckets.

Every stage is batch-vectorized; candidate generation and verification
shuffle only (small) signature/pair rows, never document text.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_MERSENNE = np.uint64((1 << 61) - 1)

logger = logging.getLogger(__name__)


def _stable_hash64(data: bytes) -> int:
    """Process-stable 63-bit hash (builtin ``hash`` is SipHash-salted per
    process — never usable as a shuffle key across Ray workers)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "big") & 0x7FFFFFFFFFFFFFFF


def _md5_60(data: bytes) -> int:
    """Process-stable 60-bit hash, SQL-replicable: DuckDB computes the
    identical value as ``('0x' || substr(md5(x), 1, 15))::BIGINT``, which
    lets the driver's oracle gate replay every LSH stage end-to-end."""
    return int(hashlib.md5(data).hexdigest()[:15], 16)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

# Per-process hasher cache: signature state (permutation coefficients,
# hyperplanes, token memos) is cheap and deterministic to build, so
# these stages run as plain TASK pools — no actor-pool startup/sizing —
# while Ray's long-lived worker processes still reuse one instance per
# process via lru_cache.  Heavy-state stages (LinkScorer, LangId,
# MediaDecoder) remain actor pools.
from functools import lru_cache


@lru_cache(maxsize=8)
def _minhasher(num_perm: int, bands: int, shingle_n: int, seed: int):
    return MinHasher(num_perm=num_perm, bands=bands, shingle_n=shingle_n,
                     seed=seed)


def minhash_explode(batch: pa.Table, num_perm: int = 64, bands: int = 16,
                    shingle_n: int = 3, seed: int = 13) -> pa.Table:
    return _minhasher(num_perm, bands, shingle_n, seed)(batch)


@lru_cache(maxsize=8)
def _simhasher(bands: int, seed: int):
    return SimHasher(bands=bands, seed=seed)


def simhash_explode(batch: pa.Table, bands: int = 4,
                    seed: int = 17) -> pa.Table:
    return _simhasher(bands, seed)(batch)


@lru_cache(maxsize=8)
def _hyperplane_lsh(dim: int, n_planes: int, seed: int, n_tables: int):
    return HyperplaneLSH(dim=dim, n_planes=n_planes, seed=seed,
                         n_tables=n_tables)


def hyperplane_explode(batch: pa.Table, dim: int, n_planes: int = 12,
                       seed: int = 23, n_tables: int = 1) -> pa.Table:
    return _hyperplane_lsh(dim, n_planes, seed, n_tables)(batch)


def add_text_hash(batch: pa.Table) -> pa.Table:
    """Append a 128-bit content hash of ``text`` as a hex string.  At
    billions of docs a 64-bit hash WILL collide (birthday bound ~5B at
    p=0.5); 128-bit blake2b keeps false merges below 1e-18 even at
    10^12 docs, and ``exact_dedup_groups`` re-verifies text within each
    hash group anyway."""
    texts = batch["text"].to_pylist()
    h = [hashlib.blake2b(t.encode(), digest_size=16).hexdigest()
         for t in texts]
    return batch.append_column("text_hash", pa.array(h, pa.string()))


def _local_exact_combine(batch: pa.Table) -> pa.Table:
    """Batch-local combiner: vectorized Arrow group_by collapses in-batch
    duplicates before the exchange."""
    batch = add_text_hash(batch.select(["doc_id", "text"]))
    g = batch.group_by(["text_hash", "text"], use_threads=False) \
        .aggregate([("doc_id", "min"), ("doc_id", "count")])
    return g.rename_columns(["text_hash", "text", "keep_id", "cnt"])


def exact_dedup_groups(docs_ds):
    """Exact duplicate groups with text retained, collision-safe and
    native: the global hash-aggregate keys on (text_hash, text) with the
    16-byte hash LEADING the key, so exchange partitioning and compares
    resolve on the hash and only consult the text on (vanishingly rare)
    hash ties — while keeping text in the key makes a silent collision
    merge impossible.  Returns (text, keep_id, n_dups)."""
    from ray.data.aggregate import Min, Sum

    return docs_ds.map_batches(_local_exact_combine,
                               batch_format="pyarrow") \
        .groupby(["text_hash", "text"]) \
        .aggregate(Min("keep_id", alias_name="keep_id"),
                   Sum("cnt", alias_name="n_dups")) \
        .select_columns(["text", "keep_id", "n_dups"])


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

def _shingle_hashes(text: str, n: int = 3,
                    memo: dict | None = None) -> np.ndarray:
    """Word n-gram shingles → 60-bit md5 hashes (vector).  The md5-60
    primitive keeps every downstream minhash value SQL-replicable; the
    optional per-worker memo skips re-hashing grams that repeat across
    documents (duplicate grams inside one doc don't change the min)."""
    toks = text.split()
    if len(toks) < n:
        grams = {" ".join(toks)} if toks else ()
    else:
        grams = {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}
    if not grams:
        return np.array([], np.uint64)
    if memo is None:
        return np.array([_md5_60(g.encode()) for g in grams], np.uint64)
    out = []
    for g in grams:
        h = memo.get(g)
        if h is None:
            h = _md5_60(g.encode())
            if len(memo) < 4_000_000:   # bound worker heap
                memo[g] = h
        out.append(h)
    return np.array(out, np.uint64)


class MinHasher:
    """Signature stage (run as a task pool via ``minhash_explode`` —
    one instance per worker process through the lru_cache factory):
    permutation coefficients drawn once from a fixed seed
    (deterministic across retries/cluster sizes)."""

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_n: int = 3,
                 seed: int = 13):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, (1 << 61) - 1, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, (1 << 61) - 1, size=num_perm).astype(np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_n = shingle_n
        self._gram_memo: dict[str, int] = {}

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.shingle_n, self._gram_memo)
        if len(sh) == 0:
            return np.zeros(self.num_perm, np.uint64)
        # (num_perm, n_shingles) via broadcasting: products wrap mod 2^64
        # (uint64), then mod the Mersenne prime — the oracle replicates
        # the wrap exactly with HUGEINT `% 2^64 % p`
        v = (self.a[:, None] * sh[None, :] + self.b[:, None]) % _MERSENNE
        return v.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """documents batch → exploded (doc_id, band, band_hash, sig) rows."""
        doc_ids = batch["doc_id"].to_pylist()
        out_doc, out_band, out_hash, out_sig = [], [], [], []
        for d, t in zip(doc_ids, batch["text"].to_pylist()):
            sig = self.signature(t)
            sig_bytes = sig.tobytes()
            for b in range(self.bands):
                chunk = sig[b * self.rows_per_band:(b + 1) * self.rows_per_band]
                out_doc.append(d)
                out_band.append(b)
                # process-stable AND SQL-replicable: md5-60 of the
                # comma-joined decimal signature chunk — DuckDB's
                # md5(string_agg(sig, ',' ORDER BY perm)) recomputes the
                # identical bucket key (builtin hash() is SipHash-salted
                # per worker and would silently break the groupby)
                out_hash.append(_md5_60(
                    ",".join(str(int(v)) for v in chunk).encode()))
                out_sig.append(sig_bytes)
        return pa.Table.from_arrays(
            [pa.array(out_doc), pa.array(out_band, pa.int32()),
             pa.array(out_hash, pa.int64()), pa.array(out_sig, pa.binary())],
            names=["doc_id", "band", "band_hash", "sig"])


def _cap_hot_bucket(items: list, cap: int, where: str) -> list:
    """Hot-bucket guard: keep pair generation O(cap²) in a degenerate
    bucket, and LOG how many candidates were dropped (a silent cap reads
    as full recall when it isn't)."""
    if len(items) > cap:
        logger.warning(
            "%s: hot bucket truncated %d -> %d members (%d dropped); "
            "near-dup recall inside this bucket is incomplete",
            where, len(items), cap, len(items) - cap)
        return items[:cap]
    return items


def _bucket_pairs(group: pa.Table) -> pa.Table:
    """Candidate pairs within one LSH bucket, with the signature-estimated
    Jaccard (no second pass over text).  Buckets are tiny by
    construction; cap guards a degenerate hot bucket."""
    ids = group["doc_id"].to_pylist()
    sigs = group["sig"].to_pylist()
    uniq = {}
    for i, s in zip(ids, sigs):
        uniq.setdefault(i, s)
    items = _cap_hot_bucket(sorted(uniq.items()), 200, "minhash_lsh")
    a_col, b_col, jac = [], [], []
    for i in range(len(items)):
        ai, asig = items[i]
        av = np.frombuffer(asig, np.uint64)
        for j in range(i + 1, len(items)):
            bi, bsig = items[j]
            bv = np.frombuffer(bsig, np.uint64)
            est = float((av == bv).mean())
            a_col.append(ai); b_col.append(bi); jac.append(est)
    return pa.Table.from_arrays(
        [pa.array(a_col, pa.int64()), pa.array(b_col, pa.int64()),
         pa.array(jac, pa.float64())],
        names=["doc_a", "doc_b", "jaccard_est"])


def _minhash_doc_rows(batch: pa.Table, num_perm: int = 64,
                      bands: int = 16) -> pa.Table:
    """Per-DOC row: (doc_id, sig bytes, band_hashes list<int64>) — the
    signature is stored ONCE per doc (the old exploded layout carried
    the 512-byte signature on every band row, 16× redundant: it
    spilled 70 GB at 4.2M docs)."""
    m = _minhasher(num_perm, bands, 3, 13)
    ids, sigs, bhs = [], [], []
    for d, t in zip(batch["doc_id"].to_pylist(),
                    batch["text"].to_pylist()):
        sig = m.signature(t)
        ids.append(d)
        sigs.append(sig.tobytes())
        bhs.append([_md5_60(",".join(
            str(int(v)) for v in
            sig[b * m.rows_per_band:(b + 1) * m.rows_per_band])
            .encode()) for b in range(bands)])
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "sig": pa.array(sigs, pa.binary()),
                     "bh": pa.array(bhs, pa.list_(pa.int64()))})


_MH_CAND_SCHEMA = pa.schema([("doc_a", pa.int64()),
                             ("doc_b", pa.int64())])


def _mh_band_cands(group: pa.Table, cap: int = 200) -> pa.Table:
    """One (band, band_hash) bucket of int rows → capped candidate
    pairs (first ``cap`` distinct doc_ids ASC, the _cap_hot_bucket
    rule; no signatures here)."""
    ids = np.unique(group["doc_id"].combine_chunks()
                    .to_numpy(zero_copy_only=False))
    if len(ids) > cap:
        logger.warning(
            "minhash_lsh: hot bucket truncated %d -> %d members "
            "(%d dropped); near-dup recall inside this bucket is "
            "incomplete", len(ids), cap, len(ids) - cap)
        ids = ids[:cap]
    if len(ids) < 2:
        return _MH_CAND_SCHEMA.empty_table()
    ai, bi = np.triu_indices(len(ids), k=1)
    return pa.table({"doc_a": pa.array(ids[ai], pa.int64()),
                     "doc_b": pa.array(ids[bi], pa.int64())},
                    schema=_MH_CAND_SCHEMA)


def minhash_near_dups(docs_ds, threshold: float = 0.7, num_perm: int = 64,
                      bands: int = 16,
                      small_corpus_threshold: int = 200_000):
    """Near-duplicate pairs (doc_a < doc_b, jaccard_est ≥ threshold).

    COST-BASED operator selection (r5): below
    ``small_corpus_threshold`` docs the single-phase layout runs (band
    rows carry the signature; one coarse-grouped exchange + one pair
    rollup — its sig redundancy is ≤ num_perm·8·bands bytes/doc, harmless
    at this size, and it avoids the two-phase path's 3 extra exchange
    barriers that dominate small corpora).  Above it, the TWO-PHASE
    scale shape: ONE text pass builds the materialized per-doc
    signature table; the LSH exchange moves only (doc_id, band,
    band_hash) ints (24 B/row) through coarse-grouped candidate
    generation; full signatures are fetched ONLY for candidate docs
    (Bloom-prefiltered bucketed joins, the set_sim verify pattern) and
    the per-pair estimate is one vectorized (num_perm-lane) equality
    mean.  The single-phase layout at 4.2M docs spilled >70 GB
    (sig × bands redundancy); the two-phase ran it in 33-79 s with
    zero spill.  Estimates, caps, and the pair set are bit-identical
    between the paths (parity-tested) — the SQL twin serves both.
    """
    import ray
    import ray.data as rd

    from ..stages.broadcast import cached_get
    from .groups import coarse_group_map
    from .join import bucketed_hash_join

    doc_tbl = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _minhash_doc_rows, fn_kwargs={"num_perm": num_perm,
                                      "bands": bands},
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    if doc_tbl.count() <= small_corpus_threshold:
        # single-phase: sig rides the band rows; estimate in-bucket
        def band_rows_sig(t: pa.Table) -> pa.Table:
            n = t.num_rows
            out_d, out_b, out_h, out_s = [], [], [], []
            bh_col = t["bh"].to_pylist()
            for d, sig, bh in zip(t["doc_id"].to_pylist(),
                                  t["sig"].to_pylist(), bh_col):
                for b, h in enumerate(bh):
                    out_d.append(d)
                    out_b.append(b)
                    out_h.append(h)
                    out_s.append(sig)
            return pa.table({
                "doc_id": pa.array(out_d, pa.int64()),
                "band": pa.array(out_b, pa.int32()),
                "band_hash": pa.array(out_h, pa.int64()),
                "sig": pa.array(out_s, pa.binary())})

        exploded = doc_tbl.map_batches(band_rows_sig,
                                       batch_format="pyarrow",
                                       zero_copy_batch=True)
        pairs = coarse_group_map(exploded, ["band", "band_hash"],
                                 _bucket_pairs, min_group_size=2)
        uniq = pairs.groupby(["doc_a", "doc_b"]).max("jaccard_est") \
            .rename_columns({"max(jaccard_est)": "jaccard_est"})
        return uniq.filter(expr=f"jaccard_est >= {threshold}")

    def band_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "band": pa.array([], pa.int32()),
                             "band_hash": pa.array([], pa.int64())})
        bh = t["bh"].combine_chunks()
        flat = bh.flatten().to_numpy(zero_copy_only=False)
        ids = np.repeat(t["doc_id"].combine_chunks()
                        .to_numpy(zero_copy_only=False), bands)
        band = np.tile(np.arange(bands, dtype=np.int32), n)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "band": pa.array(band, pa.int32()),
                         "band_hash": pa.array(flat, pa.int64())})

    from ray.data.aggregate import Max

    cands = coarse_group_map(
        doc_tbl.select_columns(["doc_id", "bh"]).map_batches(
            band_rows, batch_format="pyarrow", zero_copy_batch=True),
        ["band", "band_hash"], _mh_band_cands, min_group_size=2) \
        .groupby(["doc_a", "doc_b"]) \
        .aggregate(Max("doc_a", alias_name="_one")) \
        .select_columns(["doc_a", "doc_b"]).materialize()

    out_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                            ("jaccard_est", pa.float64())])
    if cands.count() == 0:
        return rd.from_arrow(out_schema.empty_table())

    # Bloom bits over candidate ids → only candidate docs' signatures
    # cross the two verify joins (the set_sim_join pattern)
    from ..relational import _bloom_from_keys, _bloom_test

    def bloom_partial(t: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([
            t["doc_a"].to_numpy(zero_copy_only=False),
            t["doc_b"].to_numpy(zero_copy_only=False)]))
        return pa.table({"bits": pa.array(
            [_bloom_from_keys(ids).tobytes()], pa.binary())})

    parts = cands.map_batches(bloom_partial,
                              batch_format="pyarrow").to_pandas()
    bits = np.frombuffer(parts["bits"].iloc[0], np.uint8).copy()
    for b in parts["bits"].iloc[1:]:
        bits |= np.frombuffer(b, np.uint8)
    bits_ref = ray.put(bits.view(bool))

    def bloom_filter_sigs(t: pa.Table) -> pa.Table:
        bb = cached_get(bits_ref, tag="minhash_near_dups-bloom")
        hit = _bloom_test(bb, t["doc_id"].to_numpy(zero_copy_only=False))
        return t.filter(pa.array(hit))

    sig_side = doc_tbl.select_columns(["doc_id", "sig"]) \
        .map_batches(bloom_filter_sigs, batch_format="pyarrow")
    side_a = sig_side.map_batches(
        lambda t: t.rename_columns(["a_key", "sig_a"]),
        batch_format="pyarrow")
    side_b = sig_side.map_batches(
        lambda t: t.rename_columns(["b_key", "sig_b"]),
        batch_format="pyarrow")
    joined = bucketed_hash_join(cands, side_a, "doc_a", "a_key")
    joined = bucketed_hash_join(joined, side_b, "doc_b", "b_key")

    def estimate(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        a = np.frombuffer(b"".join(t["sig_a"].to_pylist()),
                          np.uint64).reshape(-1, num_perm)
        b = np.frombuffer(b"".join(t["sig_b"].to_pylist()),
                          np.uint64).reshape(-1, num_perm)
        est = (a == b).mean(axis=1)
        keep = est >= threshold
        return pa.table({
            "doc_a": pa.array(t["doc_a"].to_numpy(
                zero_copy_only=False)[keep], pa.int64()),
            "doc_b": pa.array(t["doc_b"].to_numpy(
                zero_copy_only=False)[keep], pa.int64()),
            "jaccard_est": pa.array(est[keep], pa.float64())},
            schema=out_schema)

    return joined.map_batches(estimate, batch_format="pyarrow")


def dedup_components(pairs_ds):
    """Near-dup pairs → duplicate clusters via the same union-find used
    for entity canonicalization (``stages/canon.union_find``: driver
    union-find under DRIVER_CC_MAX_EDGES, distributed rounds beyond)."""
    from ..stages.canon import union_find

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t["doc_a"], pa.string()), pc.cast(t["doc_b"], pa.string())],
            names=["src", "dst"])

    edges = pairs_ds.map_batches(to_edges, batch_format="pyarrow")
    return union_find(edges)[0]


def minhash_dup_clusters(docs_ds, threshold: float = 0.7,
                         num_perm: int = 64, bands: int = 16):
    """Near-duplicate clusters: MinHash-LSH pairs → connected components
    (``stages/canon.union_find``, as in entity canonicalization); each
    member doc gets its component's min doc_id as ``cluster_id``.

    Doc ids are zero-padded to 20 digits on the way into the union-find
    (whose canonical label is the *string*-minimum member) so the
    string minimum IS the numeric minimum — matching the recursive-CTE
    oracle's ``min(doc_id)`` exactly.  Non-negative ids assumed.
    Returns (doc_id, cluster_id) for every doc in some near-dup pair.
    """
    from ..stages.canon import union_find

    pairs = minhash_near_dups(docs_ds, threshold=threshold,
                              num_perm=num_perm, bands=bands)

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.utf8_lpad(pc.cast(t["doc_a"], pa.string()), 20, "0"),
             pc.utf8_lpad(pc.cast(t["doc_b"], pa.string()), 20, "0")],
            names=["src", "dst"])

    comp = union_find(
        pairs.map_batches(to_edges, batch_format="pyarrow"))[0]

    def to_ints(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t["node"], pa.int64()),
             pc.cast(t["label"], pa.int64())],
            names=["doc_id", "cluster_id"])

    return comp.map_batches(to_ints, batch_format="pyarrow")


def near_dedup_corpus(docs_ds, threshold: float = 0.7,
                      num_perm: int = 64, bands: int = 16):
    """End-to-end near-duplicate removal: keep every doc that is either
    in no MinHash-LSH cluster or is its cluster's min-doc_id
    representative.

    Scale shape: the cluster assignment (one small row per *clustered*
    doc, never per corpus doc) joins back to the corpus through
    ``bucketed_hash_join`` — a single keyed shuffle, no driver-side
    removal set, no broadcast that grows with the duplicate count.
    Returns surviving (doc_id, lang, source) rows.
    """
    from .join import bucketed_hash_join

    clusters = minhash_dup_clusters(docs_ds, threshold=threshold,
                                    num_perm=num_perm, bands=bands) \
        .map_batches(lambda t: t.rename_columns(["cl_doc_id",
                                                 "cluster_id"]),
                     batch_format="pyarrow")
    joined = bucketed_hash_join(
        docs_ds.select_columns(["doc_id", "lang", "source"]), clusters,
        left_on="doc_id", right_on="cl_doc_id", how="left outer")

    def keep(t: pa.Table) -> pa.Table:
        c = t["cluster_id"]
        mask = pc.or_kleene(pc.is_null(c), pc.equal(c, t["doc_id"]))
        return t.filter(pc.fill_null(mask, False)) \
            .select(["doc_id", "lang", "source"])

    return joined.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)


def near_dedup_corpus_sql(threshold: float = 0.7, num_perm: int = 64,
                          bands: int = 16, shingle_n: int = 3,
                          seed: int = 13, cap: int = 200) -> str:
    """SQL twin of ``near_dedup_corpus``: the recursive cluster CTE
    anti-joined back to ``documents``."""
    body = _minhash_pairs_cte_sql(threshold, num_perm, bands, shingle_n,
                                  seed, cap)
    return f"""
        WITH RECURSIVE {body},
        dedges AS (
          SELECT doc_a AS a, doc_b AS b FROM mh_pairs
          UNION ALL
          SELECT doc_b AS a, doc_a AS b FROM mh_pairs),
        reach(n, l) AS (
          SELECT DISTINCT a, a FROM dedges
          UNION
          SELECT e.b, r.l FROM reach r JOIN dedges e ON e.a = r.n),
        clusters AS (
          SELECT n AS doc_id, min(l) AS cluster_id FROM reach GROUP BY n)
        SELECT d.doc_id, d.lang, d.source
        FROM documents d LEFT JOIN clusters c USING (doc_id)
        WHERE c.cluster_id IS NULL OR c.cluster_id = d.doc_id
        ORDER BY d.doc_id
    """


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact, for verification / small candidate sets)
# ---------------------------------------------------------------------------

def _gram_set(text: str, n: int = 3) -> set:
    """Word n-gram STRING set (SQL-parity twin of ``_shingle_hashes`` —
    hashes can collide within a doc and skew the set cardinality, so the
    oracle-checked path compares the grams themselves)."""
    toks = text.split()
    if not toks:
        return set()
    if len(toks) < n:
        return {" ".join(toks)}
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def exact_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    a = set(_shingle_hashes(text_a, n).tolist())
    b = set(_shingle_hashes(text_b, n).tolist())
    if not a and not b:
        return 1.0
    return len(a & b) / max(1, len(a | b))


def jaccard_adjacent_pairs(docs_ds):
    """Oracle-checkable exact Jaccard surface: word-3-gram Jaccard of
    each (even doc_id, doc_id+1) pair via ONE bucketed hash join — a
    deterministic linear-size pair set, so the driver's DuckDB oracle can
    replicate it exactly.  Returns (doc_a, doc_b, jaccard)."""
    from .join import bucketed_hash_join

    def evens(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = t.filter(pa.array(ids % 2 == 0))
        nxt = pc.add(keep["doc_id"].combine_chunks(),
                     pa.scalar(1, pa.int64()))
        return pa.Table.from_arrays(
            [keep["doc_id"], nxt, keep["text"]],
            names=["doc_a", "join_key", "text_a"])

    left = docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(evens, batch_format="pyarrow", zero_copy_batch=True)
    right = docs_ds.select_columns(["doc_id", "text"]) \
        .rename_columns({"doc_id": "doc_b", "text": "text_b"})
    j = bucketed_hash_join(left, right, "join_key", "doc_b")

    def score(t: pa.Table) -> pa.Table:
        import numpy as np

        out = []
        for x, y in zip(t["text_a"].to_pylist(), t["text_b"].to_pylist()):
            a, b = _gram_set(x), _gram_set(y)
            u = len(a | b)
            v = 1.0 if u == 0 else len(a & b) / u
            out.append(np.floor(v * 1e6 + 0.5) / 1e6)  # half-away, as SQL
        return pa.Table.from_arrays(
            [t["doc_a"], t["join_key"], pa.array(out, pa.float64())],
            names=["doc_a", "doc_b", "jaccard"])

    return j.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHasher:
    """60-bit SimHash signatures; hamming-≤k candidates via pigeonhole
    band buckets (k+1 bands ⇒ any pair within k shares ≥1 band).

    60 bits (not 64) so the md5-60 token-hash primitive — and therefore
    the whole signature, band keys, and hamming distances — is exactly
    replayable by the DuckDB oracle with bigint bit ops."""

    BITS = 60

    def __init__(self, bands: int = 4, seed: int = 17):
        self.bands = bands
        self.band_bits = self.BITS // bands
        # token→hash memo, built per worker: corpus vocabulary repeats
        # massively across documents, so the per-token md5 runs once per
        # distinct token per worker, not once per occurrence
        self._memo: dict[str, int] = {}

    def _token_hash(self, t: str) -> int:
        h = self._memo.get(t)
        if h is None:
            h = _md5_60(t.encode())
            if len(self._memo) < 1_000_000:   # bound actor heap
                self._memo[t] = h
        return h

    def signature(self, text: str) -> int:
        toks = set(text.split())
        if not toks:
            return 0
        # one 60-bit hash per token, then all 60 bit-planes at once:
        # (n_tokens, 60) sign matrix summed down the token axis
        hs = np.array([self._token_hash(t) for t in toks], np.uint64)
        bits = (hs[:, None] >> np.arange(self.BITS, dtype=np.uint64)[None, :]) \
            & np.uint64(1)
        acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
        sig_bits = (acc > 0).astype(np.uint64)
        return int((sig_bits << np.arange(self.BITS, dtype=np.uint64)).sum(
            dtype=np.uint64))

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_doc, out_band, out_key, out_sig = [], [], [], []
        mask = (1 << self.band_bits) - 1
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            sig = self.signature(t)
            for b in range(self.bands):
                out_doc.append(d)
                out_band.append(b)
                out_key.append((sig >> (b * self.band_bits)) & mask)
                out_sig.append(sig)
        return pa.Table.from_arrays(
            [pa.array(out_doc), pa.array(out_band, pa.int32()),
             pa.array(out_key, pa.int64()),
             pa.array(out_sig, pa.int64())],
            names=["doc_id", "band", "band_key", "sig"])


def _sim_pairs(group: pa.Table, max_hamming: int) -> pa.Table:
    ids = group["doc_id"].to_pylist()
    sigs = group["sig"].to_pylist()
    uniq = _cap_hot_bucket(sorted(set(zip(ids, sigs))), 200, "simhash")
    a_col, b_col, ham = [], [], []
    for i in range(len(uniq)):
        for j in range(i + 1, len(uniq)):
            d = bin(uniq[i][1] ^ uniq[j][1]).count("1")
            if d <= max_hamming:
                a_col.append(uniq[i][0]); b_col.append(uniq[j][0]); ham.append(d)
    return pa.Table.from_arrays(
        [pa.array(a_col, pa.int64()), pa.array(b_col, pa.int64()),
         pa.array(ham, pa.int32())],
        names=["doc_a", "doc_b", "hamming"])


def simhash_near_dups(docs_ds, max_hamming: int = 3):
    from .groups import coarse_group_map

    exploded = docs_ds.map_batches(simhash_explode, batch_format="pyarrow")
    pairs = coarse_group_map(exploded, ["band", "band_key"],
                             lambda g: _sim_pairs(g, max_hamming),
                             min_group_size=2)
    return pairs.groupby(["doc_a", "doc_b"]).min("hamming") \
        .rename_columns({"min(hamming)": "hamming"})


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (random hyperplane LSH + in-bucket verify)
# ---------------------------------------------------------------------------

_FP_SCALE = 1_000_000


def quantize_fp6(emb: np.ndarray) -> np.ndarray:
    """Half-away-from-zero fixed-point (1e-6) quantization — the same
    value DuckDB's ``round(x * 1000000)::BIGINT`` produces, so every
    projection sign, dot product, and norm downstream is an EXACT
    integer identical on both sides of the oracle gate."""
    return np.where(emb >= 0, np.floor(emb * _FP_SCALE + 0.5),
                    -np.floor(-emb * _FP_SCALE + 0.5)).astype(np.int64)


class HyperplaneLSH:
    """Signed-projection buckets; planes drawn once per actor, seeded.

    Planes are Rademacher ±1 (sign-random projections, Achlioptas-style)
    rather than Gaussian: the collision-probability guarantee is the
    same family, and integer planes × fixed-point vectors make bucket
    keys exact integers — deterministic across workers AND replayable
    by the SQL oracle.

    ``n_tables`` independent tables of ``n_planes`` planes each: a pair
    with hyperplane-collision probability p per plane is recalled with
    1-(1-p^k)^L — k small keeps buckets selective, L recovers recall.
    Each input row explodes to L (table, bucket) rows.
    """

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 23,
                 n_tables: int = 1):
        rng = np.random.RandomState(seed)
        self.planes = (rng.randint(0, 2, size=(n_tables, n_planes, dim))
                       * 2 - 1).astype(np.int64)
        self.n_tables = n_tables
        self.n_planes = n_planes

    def keys_for(self, emb: np.ndarray) -> np.ndarray:
        """(n_tables, n_rows) integer bucket keys from float vectors —
        via fixed-point quantization, so any two processes (or the SQL
        oracle) agree exactly on every key."""
        q = quantize_fp6(np.asarray(emb, dtype=np.float64))
        pow2 = (1 << np.arange(self.n_planes)).astype(np.int64)
        return np.stack([
            ((q @ self.planes[t].T) > 0).dot(pow2) + (t << 40)
            for t in range(self.n_tables)])

    def __call__(self, batch: pa.Table) -> pa.Table:
        # list<float> → matrix via flatten().to_numpy().reshape — the
        # zero-copy ingest idiom (ops/ann.py), never to_pylist
        ids = batch["vec_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        emb_list = batch["embedding"].combine_chunks()
        emb = emb_list.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64, copy=False).reshape(len(ids), -1)
        all_keys = self.keys_for(emb)
        id_arr = pa.array(np.tile(ids, self.n_tables), pa.int64())
        bucket_arr = pa.array(all_keys.reshape(-1), pa.int64())
        emb_rep = pa.concat_arrays([emb_list] * self.n_tables)
        return pa.Table.from_arrays([id_arr, bucket_arr, emb_rep],
                                    names=["vec_id", "bucket", "embedding"])


def _cos_pairs(group: pa.Table, threshold: float) -> pa.Table:
    # sort by vec_id BEFORE the cap so the capped membership is
    # deterministic regardless of shuffle arrival order
    ids = group["vec_id"].combine_chunks() \
        .to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    if len(ids) < 2:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64()),
             pa.array([], pa.float64())],
            names=["vec_a", "vec_b", "cosine"])
    emb = group["embedding"].combine_chunks().flatten() \
        .to_numpy(zero_copy_only=False).astype(np.float64, copy=False) \
        .reshape(len(ids), -1)
    order = np.argsort(ids, kind="stable")
    ids, emb = ids[order], emb[order]
    keep = len(_cap_hot_bucket(ids.tolist(), 256, "embedding_lsh"))
    ids, emb = ids[:keep], emb[:keep]
    # exact-integer cosine: fixed-point dot / (√n2a · √n2b), each float
    # op a single IEEE round — bit-identical to the SQL twin.  Pair
    # extraction via triu_indices over the already-computed dot matrix
    # (bounded by the 256-row bucket cap), no Python pair loop.
    q = quantize_fp6(emb)
    dot = q @ q.T
    n2 = np.diag(dot).astype(np.float64)
    root = np.sqrt(n2)
    iu, ju = np.triu_indices(len(ids), k=1)
    valid = (n2[iu] != 0) & (n2[ju] != 0) & (ids[iu] != ids[ju])
    iu, ju = iu[valid], ju[valid]
    sim = dot[iu, ju] / (root[iu] * root[ju])
    hit = sim >= threshold
    iu, ju, sim = iu[hit], ju[hit], sim[hit]
    return pa.Table.from_arrays(
        [pa.array(np.minimum(ids[iu], ids[ju]), pa.int64()),
         pa.array(np.maximum(ids[iu], ids[ju]), pa.int64()),
         pa.array(np.floor(sim * 1e6 + 0.5) / 1e6, pa.float64())],
        names=["vec_a", "vec_b", "cosine"])


def embedding_near_dups(emb_ds, dim: int, threshold: float = 0.95,
                        n_planes: int = 10, n_tables: int = 1):
    from .groups import coarse_group_map

    bucketed = emb_ds.map_batches(
        hyperplane_explode,
        fn_kwargs={"dim": dim, "n_planes": n_planes, "n_tables": n_tables},
        batch_format="pyarrow")
    pairs = coarse_group_map(bucketed, "bucket",
                             lambda g: _cos_pairs(g, threshold),
                             min_group_size=2)
    return pairs.groupby(["vec_a", "vec_b"]).max("cosine") \
        .rename_columns({"max(cosine)": "cosine"})


# ---------------------------------------------------------------------------
# DuckDB oracle twins — replay each LSH pipeline end-to-end in SQL.
#
# Every hash primitive above (md5-60 shingle/token/band hashes, the
# uint64-wrapping minhash permutations, fixed-point hyperplane
# projections) was chosen to be exactly expressible in DuckDB, so the
# driver's value-hash gate checks the REAL operators, not a simplified
# stand-in.  The hot-bucket caps are replicated via row_number().
# ---------------------------------------------------------------------------

_TOKS_CTE = r"""
        toks AS (
          SELECT doc_id,
                 CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                      ELSE regexp_split_to_array(trim(text), '\s+')
                 END AS t
          FROM documents)"""


def _minhash_pairs_cte_sql(threshold: float = 0.7, num_perm: int = 64,
                           bands: int = 16, shingle_n: int = 3,
                           seed: int = 13, cap: int = 200) -> str:
    """CTE body (no leading WITH, no final select) defining
    ``mh_pairs(doc_a, doc_b, jaccard_est)`` — shared by the near-dup
    pair oracle and the recursive dup-cluster oracle."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, size=num_perm)
    b = rng.randint(0, (1 << 61) - 1, size=num_perm)
    perm_rows = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})"
                          for i in range(num_perm))
    rpb = num_perm // bands
    n = shingle_n
    gram_expr = (f"CASE WHEN len(t) = 0 THEN []::VARCHAR[] "
                 f"WHEN len(t) < {n} THEN [array_to_string(t, ' ')] "
                 f"ELSE list_distinct(list_transform(range(1, len(t) - {n - 2}), "
                 f"i -> concat_ws(' ', "
                 + ", ".join(f"t[i+{j}]" for j in range(n)) + "))) END")
    return rf"""perms(idx, a, b) AS (VALUES {perm_rows}),
        {_TOKS_CTE.lstrip()},
        grams AS (
          SELECT doc_id, unnest({gram_expr}) AS g FROM toks),
        gh AS (
          SELECT doc_id,
                 ('0x' || substr(md5(g), 1, 15))::BIGINT AS h
          FROM grams),
        sigs AS (
          -- (a*h + b) wraps mod 2^64 exactly as numpy uint64 does, then
          -- mod the Mersenne prime; docs with no grams get sig 0
          SELECT d.doc_id, p.idx,
                 COALESCE(min(
                   (((p.a::HUGEINT * gh.h + p.b) % 18446744073709551616)
                    % 2305843009213693951)::BIGINT), 0) AS sig
          FROM (SELECT DISTINCT doc_id FROM documents) d
          CROSS JOIN perms p
          LEFT JOIN gh ON gh.doc_id = d.doc_id
          GROUP BY d.doc_id, p.idx),
        bands AS (
          SELECT doc_id, idx // {rpb} AS band,
                 ('0x' || substr(md5(
                    string_agg(sig::VARCHAR, ',' ORDER BY idx)), 1, 15))
                 ::BIGINT AS band_hash
          FROM sigs GROUP BY doc_id, idx // {rpb}),
        ranked AS (
          SELECT *, row_number() OVER (
            PARTITION BY band, band_hash ORDER BY doc_id) AS rn
          FROM bands),
        cand AS (
          SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
          FROM ranked a JOIN ranked b
            ON a.band = b.band AND a.band_hash = b.band_hash
           AND a.doc_id < b.doc_id
          WHERE a.rn <= {cap} AND b.rn <= {cap}),
        est AS (
          SELECT c.doc_a, c.doc_b,
                 (count(*) FILTER (WHERE sa.sig = sb.sig))::DOUBLE
                   / {num_perm} AS jaccard_est
          FROM cand c
          JOIN sigs sa ON sa.doc_id = c.doc_a
          JOIN sigs sb ON sb.doc_id = c.doc_b AND sb.idx = sa.idx
          GROUP BY c.doc_a, c.doc_b),
        mh_pairs AS (
          SELECT doc_a, doc_b, jaccard_est
          FROM est WHERE jaccard_est >= {threshold!r})"""


def minhash_near_dups_sql(threshold: float = 0.7, num_perm: int = 64,
                          bands: int = 16, shingle_n: int = 3,
                          seed: int = 13, cap: int = 200) -> str:
    """SQL twin of ``minhash_near_dups`` (same seed ⇒ same permutation
    coefficients, embedded as literals)."""
    body = _minhash_pairs_cte_sql(threshold, num_perm, bands, shingle_n,
                                  seed, cap)
    return f"""
        WITH {body}
        SELECT doc_a, doc_b, jaccard_est FROM mh_pairs
        ORDER BY doc_a, doc_b
    """


def minhash_dup_clusters_sql(threshold: float = 0.7, num_perm: int = 64,
                             bands: int = 16, shingle_n: int = 3,
                             seed: int = 13, cap: int = 200) -> str:
    """SQL twin of ``minhash_near_dups`` → ``dedup_components``: the
    near-dup pair CTE feeds a recursive transitive closure, and each
    member doc gets the min doc_id of its component as cluster id —
    exactly the rank-minimum label the distributed union-find emits."""
    body = _minhash_pairs_cte_sql(threshold, num_perm, bands, shingle_n,
                                  seed, cap)
    return f"""
        WITH RECURSIVE {body},
        dedges AS (
          SELECT doc_a AS a, doc_b AS b FROM mh_pairs
          UNION ALL
          SELECT doc_b AS a, doc_a AS b FROM mh_pairs),
        reach(n, l) AS (
          SELECT DISTINCT a, a FROM dedges
          UNION
          SELECT e.b, r.l FROM reach r JOIN dedges e ON e.a = r.n)
        SELECT n AS doc_id, min(l) AS cluster_id
        FROM reach GROUP BY n ORDER BY doc_id
    """


def simhash_near_dups_sql(max_hamming: int = 3, bands: int = 4,
                          cap: int = 200) -> str:
    """SQL twin of ``simhash_near_dups`` (60-bit md5 token hashes)."""
    bits = SimHasher.BITS
    band_bits = bits // bands
    mask = (1 << band_bits) - 1
    return rf"""
        WITH {_TOKS_CTE.lstrip()},
        dtok AS (
          SELECT DISTINCT doc_id, unnest(t) AS tok FROM toks),
        th AS (
          SELECT doc_id,
                 ('0x' || substr(md5(tok), 1, 15))::BIGINT AS h
          FROM dtok),
        bitsums AS (
          SELECT doc_id, r.b,
                 sum(CASE WHEN (h >> r.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
          FROM th CROSS JOIN (SELECT unnest(range({bits})) AS b) r
          GROUP BY doc_id, r.b),
        sig AS (
          SELECT d.doc_id,
                 COALESCE(sum(CASE WHEN bs.acc > 0
                              THEN (1::BIGINT << bs.b) ELSE 0 END), 0) AS sig
          FROM (SELECT DISTINCT doc_id FROM documents) d
          LEFT JOIN bitsums bs ON bs.doc_id = d.doc_id
          GROUP BY d.doc_id),
        bands AS (
          SELECT doc_id, sig, bb.band,
                 (sig >> (bb.band * {band_bits})) & {mask} AS band_key
          FROM sig CROSS JOIN (SELECT unnest(range({bands})) AS band) bb),
        ranked AS (
          SELECT *, row_number() OVER (
            PARTITION BY band, band_key ORDER BY doc_id) AS rn
          FROM bands)
        SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
               bit_count(xor(a.sig, b.sig))::INTEGER AS hamming
        FROM ranked a JOIN ranked b
          ON a.band = b.band AND a.band_key = b.band_key
         AND a.doc_id < b.doc_id
        WHERE a.rn <= {cap} AND b.rn <= {cap}
          AND bit_count(xor(a.sig, b.sig)) <= {max_hamming}
        ORDER BY doc_a, doc_b
    """


def lsh_keys_cte_sql(dim: int, n_planes: int, seed: int = 23,
                     n_tables: int = 1) -> str:
    """Chained-CTE fragment defining ``keys(vec_id, t, bucket)`` — the
    exact integer LSH bucket keys of every ``embeddings`` row, computed
    from the same seeded Rademacher planes (as 0/1 literal strings) and
    the same fixed-point quantization as ``HyperplaneLSH.keys_for``.
    Also defines ``e(vec_id, i, u)`` (quantized elements) for reuse."""
    lsh = HyperplaneLSH(dim=dim, n_planes=n_planes, seed=seed,
                        n_tables=n_tables)
    rows = []
    for t in range(n_tables):
        for p in range(n_planes):
            s = "".join("1" if v == 1 else "0" for v in lsh.planes[t, p])
            rows.append(f"({t}, {p}, '{s}')")
    plane_rows = ", ".join(rows)
    return rf"""pl(t, pi, s) AS (VALUES {plane_rows}),
        planes AS (
          SELECT t, pi, r.i,
                 CASE WHEN substr(s, r.i::INTEGER, 1) = '1'
                      THEN 1 ELSE -1 END AS v
          FROM pl CROSS JOIN
               (SELECT unnest(range(1, {dim + 1})) AS i) r),
        e AS (
          SELECT vec_id, generate_subscripts(embedding, 1) AS i,
                 CAST(round(CAST(unnest(embedding) AS DOUBLE)
                            * 1000000) AS BIGINT) AS u
          FROM embeddings),
        proj AS (
          SELECT e.vec_id, p.t, p.pi, sum(e.u * p.v) AS pr
          FROM e JOIN planes p ON p.i = e.i
          GROUP BY e.vec_id, p.t, p.pi),
        keys AS (
          SELECT vec_id, t,
                 sum(CASE WHEN pr > 0 THEN (1::BIGINT << pi)
                     ELSE 0 END) + (t::BIGINT << 40) AS bucket
          FROM proj GROUP BY vec_id, t)"""


def embedding_near_dups_sql(dim: int, threshold: float = 0.95,
                            n_planes: int = 10, seed: int = 23,
                            n_tables: int = 1, cap: int = 256) -> str:
    """SQL twin of ``embedding_near_dups``: the same seeded Rademacher
    planes (as 0/1 strings), fixed-point quantization, integer
    projections and dot products, and the identical float op sequence
    ``dot / (sqrt(n2a) * sqrt(n2b))`` for the cosine."""
    return rf"""
        WITH {lsh_keys_cte_sql(dim, n_planes, seed, n_tables)},
        ranked AS (
          SELECT *, row_number() OVER (
            PARTITION BY bucket ORDER BY vec_id) AS rn
          FROM keys),
        cand AS (
          SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
          FROM ranked a JOIN ranked b
            ON a.bucket = b.bucket AND a.vec_id < b.vec_id
          WHERE a.rn <= {cap} AND b.rn <= {cap}),
        n2 AS (SELECT vec_id, sum(u * u) AS n2 FROM e GROUP BY vec_id),
        dots AS (
          SELECT c.vec_a, c.vec_b, sum(ea.u * eb.u) AS dot
          FROM cand c
          JOIN e ea ON ea.vec_id = c.vec_a
          JOIN e eb ON eb.vec_id = c.vec_b AND eb.i = ea.i
          GROUP BY c.vec_a, c.vec_b),
        cos AS (
          SELECT d.vec_a, d.vec_b,
                 d.dot::DOUBLE
                   / (sqrt(na.n2::DOUBLE) * sqrt(nb.n2::DOUBLE)) AS c
          FROM dots d
          JOIN n2 na ON na.vec_id = d.vec_a
          JOIN n2 nb ON nb.vec_id = d.vec_b
          WHERE na.n2 > 0 AND nb.n2 > 0)
        SELECT vec_a, vec_b, round(c, 6) AS cosine
        FROM cos WHERE c >= {threshold!r}
        ORDER BY vec_a, vec_b
    """


def dup_rate_by_source(docs_ds):
    """Corpus-health metric: per-source exact-duplicate rate —
    (source, n_docs, n_distinct, dup_rate).

    Scale shape: per-batch (source, content-hash) dedup, ONE
    groupby(source, hash) exchange carrying hashes (never text), then a
    tiny per-source rollup.  Uses the md5-60 primitive so the DuckDB
    oracle replays the hash exactly; a rate metric tolerates 60-bit
    collisions (~2^-60 per pair) — collision-SAFE dedup paths
    (exact_dedup_groups) keep text in the key instead.
    """
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    def partial(t: pa.Table) -> pa.Table:
        src = t["source"].to_pylist()
        h = [_md5_60(x.encode()) for x in t["text"].to_pylist()]
        df = pd.DataFrame({"source": src, "h": h})
        g = df.groupby(["source", "h"], sort=False).size() \
            .rename("cnt").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def finish(t: pa.Table) -> pa.Table:
        from .text import _round6

        n = t["n_docs"].to_pylist()
        d = t["n_distinct"].to_pylist()
        rate = [_round6(1.0 - (dd / nn)) for nn, dd in zip(n, d)]
        return pa.Table.from_arrays(
            [t["source"], t["n_docs"], t["n_distinct"],
             pa.array(rate, pa.float64())],
            names=["source", "n_docs", "n_distinct", "dup_rate"])

    return docs_ds.select_columns(["source", "text"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["source", "h"]) \
        .aggregate(Sum("cnt", alias_name="cnt")) \
        .groupby("source") \
        .aggregate(Sum("cnt", alias_name="n_docs"),
                   Count(alias_name="n_distinct")) \
        .map_batches(finish, batch_format="pyarrow")


DUP_RATE_BY_SOURCE_SQL = """
WITH h AS (
  SELECT source,
         ('0x' || substr(md5(text), 1, 15))::BIGINT AS hv
  FROM documents),
d AS (
  SELECT source, count(*) AS n_docs,
         count(DISTINCT hv) AS n_distinct
  FROM h GROUP BY source)
SELECT source, n_docs, n_distinct,
       round(1.0 - (n_distinct / n_docs::DOUBLE), 6) AS dup_rate
FROM d ORDER BY source
"""


def sorted_neighbor_overlap(docs_ds, min_prefix: int = 20):
    """Prefix-overlap pairs from ONE distributed lexicographic sort —
    the truncation-duplicate detector: adjacent docs in (text, doc_id)
    order sharing a common prefix of ≥ ``min_prefix`` chars.  Returns
    (doc_a, doc_b, common_prefix_len), mirroring a lead()-window oracle.

    The distributed sorted-adjacency shape: after ``Dataset.sort`` the
    batches are contiguous global ranges, so each batch emits its
    internal adjacent pairs locally and only its FIRST and LAST rows
    (2 rows × num_batches, the only driver-side data) travel to the
    driver, where re-sorting the boundary rows reconstructs exactly the
    cross-batch adjacent pairs.  Result is independent of block
    boundaries / parallelism.
    """
    import os

    def _cpl(a: str, b: str) -> int:
        return len(os.path.commonprefix((a, b)))

    # kind: 0 = internal pair row; boundary rows carry a first/last
    # bitmask (1 = first-of-batch, 2 = last-of-batch, 3 = both)
    def block_pairs(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        rows_a, rows_b, cpl = [], [], []
        for i in range(len(ids) - 1):
            c = _cpl(texts[i], texts[i + 1])
            if c >= min_prefix:
                rows_a.append(ids[i]); rows_b.append(ids[i + 1])
                cpl.append(c)
        if len(ids) == 0:
            bnd_idx, bnd_kind = [], []
        elif len(ids) == 1:
            bnd_idx, bnd_kind = [0], [3]
        else:
            bnd_idx, bnd_kind = [0, len(ids) - 1], [1, 2]
        return pa.Table.from_arrays(
            [pa.array(rows_a + [ids[i] for i in bnd_idx], pa.int64()),
             pa.array(rows_b + [-1] * len(bnd_idx), pa.int64()),
             pa.array(cpl + [-1] * len(bnd_idx), pa.int64()),
             pa.array([""] * len(rows_a) + [texts[i] for i in bnd_idx],
                      pa.string()),
             pa.array([0] * len(rows_a) + bnd_kind, pa.int8())],
            names=["doc_a", "doc_b", "common_prefix_len", "text", "kind"])

    # The mixed stream holds ONLY pair rows + 2 boundary rows per batch
    # (never the corpus) — materializing it lets both consumers below
    # run without re-executing the sort, and keeps the driver-side data
    # to the boundary rows alone; the pair set itself stays distributed.
    import ray.data as rd

    mixed = docs_ds.select_columns(["doc_id", "text"]) \
        .sort(["text", "doc_id"]) \
        .map_batches(block_pairs, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()
    bnd = mixed.filter(expr="kind > 0").to_pandas().sort_values(
        ["text", "doc_a"], kind="mergesort").reset_index(drop=True)
    extra = []
    for i in range(len(bnd) - 1):
        a, b = bnd.iloc[i], bnd.iloc[i + 1]
        # only stitch (last-of-batch-i, first-of-batch-i+1): a batch's
        # own first/last are NOT globally adjacent (its interior rows
        # sit between them) and its internal pairs are already emitted
        if not (int(a["kind"]) & 2 and int(b["kind"]) & 1):
            continue
        c = _cpl(a["text"], b["text"])
        if c >= min_prefix:
            extra.append({"doc_a": int(a["doc_a"]),
                          "doc_b": int(b["doc_a"]),
                          "common_prefix_len": c})
    pairs = mixed.filter(expr="kind == 0") \
        .select_columns(["doc_a", "doc_b", "common_prefix_len"])
    if extra:
        extra_t = pa.Table.from_pylist(extra).cast(pa.schema([
            ("doc_a", pa.int64()), ("doc_b", pa.int64()),
            ("common_prefix_len", pa.int64())]))
        pairs = pairs.union(rd.from_arrow(extra_t))
    return pairs


def suffix_overlap_pairs(docs_ds, min_suffix: int = 10):
    """Suffix-overlap pairs (footer / suffix-truncation duplicates):
    the same sorted-adjacency machinery run on the codepoint-reversed
    text, so a shared suffix becomes a shared prefix.  Returns
    (doc_a, doc_b, common_prefix_len) where the length counts the
    common SUFFIX of the original texts."""
    def rev(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["doc_id"],
             pa.array([x[::-1] for x in t["text"].to_pylist()],
                      pa.string())],
            names=["doc_id", "text"])

    return sorted_neighbor_overlap(
        docs_ds.select_columns(["doc_id", "text"]).map_batches(
            rev, batch_format="pyarrow", zero_copy_batch=True),
        min_prefix=min_suffix)


def sorted_neighbor_overlap_sql(min_prefix: int = 20,
                                table: str = "documents",
                                text_expr: str = "text") -> str:
    """DuckDB oracle: the identical lead()-window over (text, doc_id)
    with a list-comprehension common-prefix length.  ``text_expr``
    lets the suffix variant order by reverse(text)."""
    return f"""
WITH s AS (
  SELECT doc_id, {text_expr} AS text,
         lead(doc_id) OVER w AS nid, lead({text_expr}) OVER w AS ntext
  FROM {table} WINDOW w AS (ORDER BY {text_expr}, doc_id)),
p AS (
  SELECT doc_id AS doc_a, nid AS doc_b,
         -- list_position yields 0 (not NULL) when no mismatch exists,
         -- i.e. one text is a full prefix of the other: nullif maps
         -- that to the shorter length
         coalesce(nullif(list_position(list_transform(
             range(1, least(length(text), length(ntext)) + 1),
             i -> substr(text, i, 1) != substr(ntext, i, 1)), true), 0) - 1,
           least(length(text), length(ntext))) AS common_prefix_len
  FROM s WHERE nid IS NOT NULL)
SELECT doc_a, doc_b, common_prefix_len::BIGINT AS common_prefix_len
FROM p WHERE common_prefix_len >= {min_prefix}
ORDER BY doc_a, doc_b
"""


def page_stitch_pairs(docs_ds, n: int = 2):
    """Cross-document continuation stitching: pairs where ``doc_a``'s
    LAST ``n`` tokens equal ``doc_b``'s FIRST ``n`` tokens — the
    pagination-split signal a shard-reassembly pass joins on (web
    extractors routinely split one page into consecutive records; the
    boundary window is the cheap way to find the seams without
    aligning full texts).  Output: ``(doc_a, doc_b, boundary_hash)``,
    doc_a ≠ doc_b, ordered.

    Scale shape: TWO 8-byte boundary hashes per doc (suffix window,
    prefix window) — the only thing that crosses the exchange — and
    ONE bucketed hash join between them; output is bounded by real
    seam matches, never |corpus|².
    """
    import ray.data as rd

    from .join import bucketed_hash_join

    sfx_schema = pa.schema([("doc_a", pa.int64()), ("h", pa.int64())])
    pfx_schema = pa.schema([("doc_b", pa.int64()), ("ph", pa.int64())])

    def boundaries(side: str):
        def fn(t: pa.Table) -> pa.Table:
            ids, hh = [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                toks = txt.split(" ")
                if len(toks) < n:
                    continue
                win = toks[-n:] if side == "sfx" else toks[:n]
                ids.append(d)
                hh.append(_md5_60(" ".join(win).encode()))
            if side == "sfx":
                return pa.table({"doc_a": pa.array(ids, pa.int64()),
                                 "h": pa.array(hh, pa.int64())},
                                schema=sfx_schema)
            return pa.table({"doc_b": pa.array(ids, pa.int64()),
                             "ph": pa.array(hh, pa.int64())},
                            schema=pfx_schema)
        return fn

    docs = docs_ds.select_columns(["doc_id", "text"])
    sfx = docs.map_batches(boundaries("sfx"), batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    pfx = docs.map_batches(boundaries("pfx"), batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    out_schema = pa.schema([("doc_a", pa.int64()),
                            ("doc_b", pa.int64()),
                            ("boundary_hash", pa.int64())])
    if sfx.count() == 0 or pfx.count() == 0:
        return rd.from_arrow(out_schema.empty_table())
    joined = bucketed_hash_join(sfx, pfx, "h", "ph")

    def finish(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.not_equal(t["doc_a"], t["doc_b"]))
        return pa.table({"doc_a": sel["doc_a"], "doc_b": sel["doc_b"],
                         "boundary_hash": sel["h"]}, schema=out_schema)

    return joined.map_batches(finish, batch_format="pyarrow") \
        .sort(["doc_a", "doc_b"])


def page_stitch_pairs_sql(n: int = 2, table: str = "documents") -> str:
    """Oracle twin: identical md5-60 boundary-window hashes + join."""
    return f"""
WITH ps_tok AS (
  SELECT doc_id, str_split(text, ' ') AS t FROM {table}),
ps_sfx AS (
  SELECT doc_id AS doc_a,
         ('0x' || substr(md5(array_to_string(
            list_slice(t, len(t) - {n} + 1, len(t)), ' ')), 1, 15))
           ::BIGINT AS h
  FROM ps_tok WHERE len(t) >= {n}),
ps_pfx AS (
  SELECT doc_id AS doc_b,
         ('0x' || substr(md5(array_to_string(
            list_slice(t, 1, {n}), ' ')), 1, 15))::BIGINT AS h
  FROM ps_tok WHERE len(t) >= {n})
SELECT a.doc_a, b.doc_b, a.h AS boundary_hash
FROM ps_sfx a JOIN ps_pfx b USING (h)
WHERE a.doc_a <> b.doc_b
ORDER BY a.doc_a, b.doc_b
"""


# --- rare-token blocking: inverted-index candidate pair generation --------

def _posting_pairs(max_df: int, count_col: str):
    """Segment kernel (``groups.segment_map``) over posting-list
    partials ``(key, docs, over)`` — one row per key per upstream block.
    Per key: nothing if any row carries the overflow marker or the
    DISTINCT docs number fewer than 2 or more than ``max_df``;
    otherwise every doc pair once.  Pairs are summed per block into
    ``(doc_a, doc_b, count_col)``, ``doc_a < doc_b``."""
    from .groups import run_starts, segment_pairs

    schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                        (count_col, pa.int64())])

    def kernel(t: pa.Table, starts: np.ndarray) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        seg = np.repeat(np.arange(len(starts)),
                        np.diff(np.append(starts, t.num_rows)))
        over = np.logical_or.reduceat(
            t["over"].to_numpy(zero_copy_only=False), starts)
        docs = t["docs"].combine_chunks()
        doc = pc.list_flatten(docs).to_numpy(zero_copy_only=False)
        key = seg[pc.list_parent_indices(docs).to_numpy()]
        keep = ~over[key]
        doc, key = doc[keep], key[keep]
        # distinct (key, doc), docs ascending within each key
        order = np.lexsort((doc, key))
        doc, key = doc[order], key[order]
        first = run_starts(key, doc)
        doc, key = doc[first], key[first]
        ks = np.flatnonzero(run_starts(key))
        sizes = np.diff(np.append(ks, len(key)))
        ok = (sizes >= 2) & (sizes <= max_df)
        ii, jj = segment_pairs(ks[ok], sizes[ok])
        a, b = doc[ii], doc[jj]
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        ps = np.flatnonzero(run_starts(a, b))
        return pa.table({"doc_a": pa.array(a[ps], pa.int64()),
                         "doc_b": pa.array(b[ps], pa.int64()),
                         count_col: pa.array(
                             np.diff(np.append(ps, len(a))), pa.int64())},
                        schema=schema)

    return kernel


def rare_token_pairs(docs_ds, max_df: int = 3):
    """Entity-resolution-style blocking: pair up documents that share a
    RARE word bigram (document frequency ≤ ``max_df``), returning
    (doc_a, doc_b, n_shared_rare) — the classic inverted-index
    candidate generator that complements MinHash (a handful of shared
    distinctive shingles beats banding for short docs).

    Scale shape: the per-batch combiner collapses each shingle to ONE
    row per block — a ≤ ``max_df``-element doc list, or an overflow
    marker the moment the block-local df exceeds ``max_df`` (local df >
    max_df ⇒ global df > max_df, so hot shingles never ship their
    posting lists; a hot shingle costs one marker row per block,
    bounding every group by n_blocks, not n_docs).  Shingles are then
    exchanged on the coarse segment primitive (``groups.segment_map``,
    string key) and ONE pair kernel per coarse block, shared with
    ``winnow_dup_pairs``, emits pairs for the shingles whose total df
    stays ≤ max_df, pre-summed per block before the final
    (doc_a, doc_b) rollup: two exchanges.
    """
    from ray.data.aggregate import Sum

    from .groups import segment_map

    _explode_schema = pa.schema([("w", pa.string()),
                                 ("docs", pa.list_(pa.int64())),
                                 ("over", pa.bool_())])

    def explode_rare(t: pa.Table) -> pa.Table:
        # distinct (bigram, doc) per batch, then the local-df gate —
        # all in polars (split → explode → shifted concat → unique →
        # group_by), no per-row Python; single-space split mirrors the
        # oracle's str_split(text, ' ')
        import polars as pl

        toks = pl.from_arrow(t.select(["doc_id", "text"])) \
            .with_columns(pl.col("text").str.split(" ").alias("t")) \
            .drop("text").explode("t")
        bi = toks.with_columns(
            pl.col("t").shift(-1).over("doc_id").alias("t2")) \
            .drop_nulls("t2") \
            .select(pl.col("doc_id"),
                    (pl.col("t") + " " + pl.col("t2")).alias("w")) \
            .unique()
        g = bi.group_by("w").agg(
            pl.col("doc_id").sort().alias("docs"),
            pl.len().alias("n"))
        g = g.with_columns((pl.col("n") > max_df).alias("over")) \
            .with_columns(pl.when(pl.col("over"))
                          .then(pl.col("docs").list.head(0))
                          .otherwise(pl.col("docs")).alias("docs"))
        return g.select(["w", "docs", "over"]).to_arrow() \
            .cast(_explode_schema)

    return segment_map(
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(explode_rare, batch_format="pyarrow",
                     zero_copy_batch=True),
        "w", _posting_pairs(max_df, "n_shared_rare")) \
        .groupby(["doc_a", "doc_b"]) \
        .aggregate(Sum("n_shared_rare", alias_name="n_shared_rare"))


def rare_token_pairs_sql(max_df: int = 3,
                         table: str = "documents") -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, str_split(text, ' ') AS t FROM {table}),
tk2 AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(1, len(t)),
                               i -> t[i] || ' ' || t[i+1])) AS w
  FROM toks),
rare AS (
  SELECT w FROM tk2 GROUP BY w
  HAVING count(*) BETWEEN 2 AND {max_df})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       count(*) AS n_shared_rare
FROM tk2 a
JOIN rare r ON r.w = a.w
JOIN tk2 b ON b.w = a.w AND b.doc_id > a.doc_id
GROUP BY doc_a, doc_b
ORDER BY doc_a, doc_b
"""


def embedding_dup_clusters(emb_ds, dim: int, threshold: float = 0.95,
                           n_planes: int = 10, n_tables: int = 1):
    """Semantic-dedup clusters: hyperplane-LSH near-dup PAIRS →
    connected components — (vec_id, cluster) with ``cluster`` = the min
    vec id reachable through cosine-≥-threshold edges.  Vectors with no
    near-dup don't appear (singleton clusters are implicit).  Machinery
    and oracle scaffold are shared with ``ops/graph.user_components``."""
    from .graph import int_pairs_components

    pairs = embedding_near_dups(emb_ds, dim=dim, threshold=threshold,
                                n_planes=n_planes, n_tables=n_tables) \
        .select_columns(["vec_a", "vec_b"])
    return int_pairs_components(pairs, "vec_a", "vec_b",
                                "vec_id", "cluster")


def embedding_dup_clusters_sql(dim: int, threshold: float = 0.95,
                               n_planes: int = 10, seed: int = 23,
                               n_tables: int = 1) -> str:
    from .graph import reachability_closure_sql

    return reachability_closure_sql(
        embedding_near_dups_sql(dim=dim, threshold=threshold,
                                n_planes=n_planes, seed=seed,
                                n_tables=n_tables),
        "vec_a", "vec_b", "vec_id", "cluster")


def incremental_dup_check(docs_ds, cutoff: int | None = None):
    """Incremental-ingest dedup: flag NEW docs (doc_id ≥ cutoff) whose
    normalized text already exists in the PRIOR corpus (doc_id <
    cutoff) — (doc_id, dup_of_prior).  The default cutoff is
    ``max(doc_id) // 2`` so the check is self-contained on one table;
    in production the prior side is the previous snapshot's hash index.

    Scale shape: the corpus is hashed ONCE (materialized — both sides
    read it); the prior side reduces to DISTINCT 16-byte normalized
    hashes carrying a match marker; new docs meet it in ONE bucketed
    left-outer join keyed on the hash; text never crosses an exchange.
    """
    from ray.data.aggregate import Count

    from .join import bucketed_hash_join
    from .text import normalized_text_hash

    def hash_prep(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "h": normalized_text_hash(t["text"])})

    hashed = docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(hash_prep, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()
    # bounds from the materialized hashes — no second corpus read for
    # the default cutoff, and they drive the empty-side guards below
    # (Ray 2.49 drops the schema of an all-empty dataset, which would
    # crash the join / the caller's sort)
    mx = hashed.max("doc_id")
    if mx is None:                                   # empty corpus
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "dup_of_prior": pa.array([], pa.bool_())}))
    if cutoff is None:
        cutoff = mx // 2
    mn = hashed.min("doc_id")

    if mx < cutoff:                                  # no new docs
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "dup_of_prior": pa.array([], pa.bool_())}))
    if mn >= cutoff:                                 # no prior side
        def all_new(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t["doc_id"],
                "dup_of_prior": pa.array([False] * t.num_rows,
                                         pa.bool_())})

        return hashed.map_batches(all_new, batch_format="pyarrow")

    def prior_side(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["doc_id"], pa.scalar(cutoff, pa.int64())))
        # batch-local dedup before the distinct groupby
        return t.select(["h"]).group_by("h", use_threads=False) \
            .aggregate([]).rename_columns(["ph"])

    def add_marker(t: pa.Table) -> pa.Table:
        # the join consumes the right key itself, so matches surface
        # through this marker column.  Arrow group_by degrades the
        # fixed_size_binary[16] key to variable binary — cast back so
        # the acero join keys type-match.
        ph = pc.cast(t["ph"].combine_chunks(), pa.binary(16))
        return pa.table({
            "ph": ph,
            "dup_of_prior_i": pa.array([1] * t.num_rows, pa.int64()),
        })

    prior = hashed.map_batches(prior_side, batch_format="pyarrow") \
        .groupby("ph").aggregate(Count(alias_name="_n")) \
        .map_batches(add_marker, batch_format="pyarrow")

    def new_side(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["doc_id"],
                                         pa.scalar(cutoff, pa.int64())))

    new = hashed.map_batches(new_side, batch_format="pyarrow") \
        .select_columns(["doc_id", "h"])

    j = bucketed_hash_join(new, prior, "h", "ph", how="left outer")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "dup_of_prior": pc.fill_null(
                pc.greater(t["dup_of_prior_i"],
                           pa.scalar(0, pa.int64())), False),
        })

    return j.map_batches(finish, batch_format="pyarrow")


def incremental_dup_check_sql(table: str = "documents") -> str:
    norm = "trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))"
    return f"""
WITH cut AS (SELECT max(doc_id) // 2 AS c FROM {table}),
prior AS (
  SELECT DISTINCT {norm} AS nt FROM {table}, cut WHERE doc_id < c),
nw AS (
  SELECT doc_id, {norm} AS nt FROM {table}, cut WHERE doc_id >= c)
SELECT n.doc_id, (p.nt IS NOT NULL) AS dup_of_prior
FROM nw n LEFT JOIN prior p ON p.nt = n.nt
ORDER BY n.doc_id
"""


# ---------------------------------------------------------------------------
# corpus snapshot diff (dataset-versioning audit)
# ---------------------------------------------------------------------------

def corpus_diff(cur_ds, prior_ds):
    """Snapshot diff between two corpus versions — (doc_id, status)
    with status ∈ {added, removed, changed} (unchanged rows are
    dropped: at 100 TB they are ~all the data and carry no signal).

    Scale shape: each side reduces per batch to (doc_id, text-hash,
    side-flag) — text never crosses an exchange — then ONE
    ``groupby(doc_id)`` with native Count/Sum/Min/Max aggregates
    classifies every id without a per-group Python call:
    n=1 ∧ side=cur → added; n=1 ∧ side=prior → removed;
    n=2 ∧ min(h)≠max(h) → changed.  (A doc_id appears at most once per
    snapshot — the classifier is total on 1-or-2-row groups.)
    """
    from ray.data.aggregate import Count, Max, Min, Sum

    def prep(side: int):
        def fn(t: pa.Table) -> pa.Table:
            h = np.array([_md5_60(x.encode())
                          for x in t["text"].to_pylist()], np.int64)
            return pa.table({
                "doc_id": t["doc_id"],
                "h": pa.array(h, pa.int64()),
                "side": pa.array([side] * t.num_rows, pa.int64())})
        return fn

    both = cur_ds.select_columns(["doc_id", "text"]) \
        .map_batches(prep(1), batch_format="pyarrow",
                     zero_copy_batch=True) \
        .union(prior_ds.select_columns(["doc_id", "text"])
               .map_batches(prep(0), batch_format="pyarrow",
                            zero_copy_batch=True))
    agg = both.groupby("doc_id").aggregate(
        Count(alias_name="n"), Sum("side", alias_name="side_sum"),
        Min("h", alias_name="h_min"), Max("h", alias_name="h_max"))

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "status": pa.array([], pa.string())})

    def classify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = t["n"].to_numpy(zero_copy_only=False)
        ss = t["side_sum"].to_numpy(zero_copy_only=False)
        hmin = t["h_min"].to_numpy(zero_copy_only=False)
        hmax = t["h_max"].to_numpy(zero_copy_only=False)
        status = np.where(
            n == 1, np.where(ss == 1, "added", "removed"),
            np.where(hmin != hmax, "changed", ""))
        keep = status != ""
        if not keep.any():
            return empty
        return pa.table({
            "doc_id": t["doc_id"].filter(pa.array(keep)),
            "status": pa.array(status[keep], pa.string())})

    return agg.map_batches(classify, batch_format="pyarrow")


def synth_prior_snapshot(docs_ds):
    """Deterministic 'previous snapshot' of the documents table, used by
    the corpus_diff query/oracle pair (production feeds a real prior
    version): docs with id%11==0 are absent (→ added), id%7==0 carry a
    ' legacy' text suffix (→ changed), and for id%13==0 a prior-only
    twin exists at id+1_000_000_000 (→ removed)."""
    def fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_id, out_tx = [], []
        for i, tx in zip(ids, texts):
            i = int(i)
            if i % 11 != 0:
                out_id.append(i)
                out_tx.append(tx + " legacy" if i % 7 == 0 else tx)
            if i % 13 == 0:
                out_id.append(i + 1_000_000_000)
                out_tx.append(tx)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "text": pa.array(out_tx, pa.string())})

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def corpus_diff_sql(table: str = "documents") -> str:
    """SQL twin: the same prior-snapshot construction and the same
    union + per-id aggregate classification."""
    return f"""
WITH cur AS (
  SELECT doc_id,
         ('0x' || substr(md5(text), 1, 15))::BIGINT AS h, 1 AS side
  FROM {table}),
prior_base AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN text || ' legacy' ELSE text END
           AS text
  FROM {table} WHERE doc_id % 11 != 0),
prior_extra AS (
  SELECT doc_id + 1000000000 AS doc_id, text
  FROM {table} WHERE doc_id % 13 = 0),
prior AS (
  SELECT doc_id,
         ('0x' || substr(md5(text), 1, 15))::BIGINT AS h, 0 AS side
  FROM (SELECT * FROM prior_base UNION ALL SELECT * FROM prior_extra)),
agg AS (
  SELECT doc_id, count(*) AS n, sum(side) AS ss,
         min(h) AS hmin, max(h) AS hmax
  FROM (SELECT * FROM cur UNION ALL SELECT * FROM prior)
  GROUP BY doc_id)
SELECT doc_id,
       CASE WHEN n = 1 AND ss = 1 THEN 'added'
            WHEN n = 1 THEN 'removed'
            ELSE 'changed' END AS status
FROM agg
WHERE n = 1 OR hmin != hmax
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# duplicated-n-gram span removal (substring-level dedup)
# ---------------------------------------------------------------------------

def _explode_ngrams(n: int):
    """map_batches fn: (doc_id, pos, gh) — one row per word n-gram start
    position (1-based, matching SQL generate_subscripts), gh = md5-60 of
    the space-joined gram (SQL-replicable)."""
    def fn(t: pa.Table) -> pa.Table:
        out_id, out_pos, out_gh = [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist()):
            toks = text.split(" ")
            for i in range(len(toks) - n + 1):
                out_id.append(doc_id)
                out_pos.append(i + 1)
                out_gh.append(_md5_60(" ".join(toks[i:i + n]).encode()))
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "pos": pa.array(out_pos, pa.int64()),
                         "gh": pa.array(out_gh, pa.int64())})
    return fn


def ngram_dedup_rewrite(docs_ds, n: int = 5, min_df: int = 2):
    """Substring-level dedup (Lee et al. 2022, "Deduplicating Training
    Data Makes Language Models Better", §3 EXACTSUBSTR — re-expressed
    over word n-grams instead of suffix arrays): every word ``n``-gram
    that occurs in ≥ ``min_df`` distinct docs is a duplicated span; all
    token positions covered by any duplicated span are removed and the
    doc is rewritten from the surviving tokens.  Returns (doc_id,
    n_tokens, n_removed, clean_text).

    Scale shape (this is the 100-TB design, not a small-data shortcut):

    1. *df count* — per-batch combiner emits (gh, nd) with nd = distinct
       docs in the batch (a doc lives in exactly one block, so partial
       distinct-doc counts SUM to the exact global df) → ONE
       ``groupby(gh)`` over 16-byte-hash rows; text never shuffles.
    2. *heavy set* — grams with df ≥ min_df.  This set grows with the
       corpus, so it is JOINED (bucketed_hash_join on gh), never
       broadcast to workers.
    3. *mark starts* — re-derive (doc_id, pos, gh) streamed (recompute
       beats materializing a 3× corpus explode) and inner-join the
       heavy set → duplicated-span start positions.
    4. *rebuild* — docs and start marks meet in ONE doc_id segment
       exchange (``groups.segment_map``; each doc's text crosses
       exactly one exchange), covered = union of [s, s+n) per start,
       rewrite.

    n=5/min_df=2 measured scale-stable on the synthetic corpus:
    duplicated grams = 4.6% of the gram vocabulary at sf0.01 and 5.1%
    at sf0.1 (trigram space saturates on the 31-word vocab — see
    CLAUDE.md bigram note — 5-grams keep a mid-df tail).
    """
    from ray.data.aggregate import Sum

    from .groups import segment_map
    from .join import bucketed_hash_join

    docs = docs_ds.select_columns(["doc_id", "text"])

    def df_partial(t: pa.Table) -> pa.Table:
        per_gram_docs: dict[int, int] = {}
        for doc_id, text in zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist()):
            toks = text.split(" ")
            seen = {_md5_60(" ".join(toks[i:i + n]).encode())
                    for i in range(len(toks) - n + 1)}
            for gh in seen:
                per_gram_docs[gh] = per_gram_docs.get(gh, 0) + 1
        return pa.table({
            "gh_h": pa.array(list(per_gram_docs.keys()), pa.int64()),
            "nd": pa.array(list(per_gram_docs.values()), pa.int64())})

    heavy = docs.map_batches(df_partial, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby("gh_h").aggregate(Sum("nd", alias_name="df")) \
        .filter(expr=f"df >= {int(min_df)}") \
        .select_columns(["gh_h"])

    starts = bucketed_hash_join(
        docs.map_batches(_explode_ngrams(n), batch_format="pyarrow",
                         zero_copy_batch=True),
        heavy, "gh", "gh_h")

    # rebuild: union docs + start marks and rewrite per doc_id segment
    # (acero joins reject list payloads; the segment exchange keeps the
    # Python call per coarse block while text crosses exactly one
    # exchange)
    def tag_docs(t: pa.Table) -> pa.Table:
        return t.append_column("pos", pa.nulls(t.num_rows, pa.int64()))

    def tag_marks(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.nulls(t.num_rows, pa.string()),
                         "pos": t["pos"]})

    both = docs.map_batches(tag_docs, batch_format="pyarrow") \
        .union(starts.select_columns(["doc_id", "pos"])
               .map_batches(tag_marks, batch_format="pyarrow"))

    def rebuild(g: pa.Table, seg: np.ndarray) -> pa.Table:
        # a doc's segment holds its text row and its span-start marks
        ids = g["doc_id"].to_numpy()
        texts = g["text"].to_pylist()
        pos = g["pos"].to_pylist()
        out_nt, out_nr, out_tx = [], [], []
        for s, e in zip(seg, np.append(seg[1:], g.num_rows)):
            toks = next(x for x in texts[s:e] if x is not None).split(" ")
            covered = np.zeros(len(toks), bool)
            for p in pos[s:e]:
                if p is not None:
                    covered[p - 1:p - 1 + n] = True
            out_nt.append(len(toks))
            out_nr.append(int(covered.sum()))
            out_tx.append(" ".join(
                tok for tok, c in zip(toks, covered) if not c))
        return pa.table({
            "doc_id": pa.array(ids[seg], pa.int64()),
            "n_tokens": pa.array(out_nt, pa.int64()),
            "n_removed": pa.array(out_nr, pa.int64()),
            "clean_text": pa.array(out_tx, pa.string())})

    return segment_map(both, "doc_id", rebuild)


def ngram_dedup_rewrite_sql(n: int = 5, min_df: int = 2,
                            table: str = "documents") -> str:
    """SQL twin: identical md5-60 gram hashes (lead() chain), identical
    df-≥-min_df heavy set, covered positions via a bounded range join,
    string_agg rebuild in position order."""
    leads = " || ' ' || ".join(
        f"lead(tok, {k}) OVER w" for k in range(1, n))
    return f"""
WITH toks AS (
  SELECT doc_id, generate_subscripts(str_split(text, ' '), 1) AS i,
         unnest(str_split(text, ' ')) AS tok
  FROM {table}),
g AS (
  SELECT doc_id, i, tok || ' ' || {leads} AS gram
  FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY i)),
gh AS (
  SELECT doc_id, i, ('0x' || substr(md5(gram), 1, 15))::BIGINT AS h
  FROM g WHERE gram IS NOT NULL),
heavy AS (
  SELECT h FROM gh GROUP BY h
  HAVING count(DISTINCT doc_id) >= {int(min_df)}),
starts AS (
  SELECT doc_id, i FROM gh WHERE h IN (SELECT h FROM heavy)),
cov AS (
  SELECT DISTINCT t.doc_id, t.i
  FROM toks t JOIN starts s
    ON s.doc_id = t.doc_id AND t.i BETWEEN s.i AND s.i + {n - 1})
SELECT t.doc_id, count(*) AS n_tokens, count(c.i) AS n_removed,
       coalesce(string_agg(CASE WHEN c.i IS NULL THEN t.tok END,
                           ' ' ORDER BY t.i), '') AS clean_text
FROM toks t LEFT JOIN cov c ON c.doc_id = t.doc_id AND c.i = t.i
GROUP BY t.doc_id
ORDER BY t.doc_id
"""


def vocab_drift(cur_ds, prior_ds):
    """Bigram-vocabulary drift between two corpus snapshots —
    ``(term, cnt_cur, cnt_prior, status)`` for every word BIGRAM whose
    exact count changed, status ∈ {new, gone, up, down}.  (Bigrams, not
    unigrams: the synthetic corpus vocabulary is 31 words, so only the
    bigram tail has a mid-df distribution worth monitoring — the same
    reason rare_token_pairs blocks on bigrams.)

    Scale shape: each side reduces per batch to (term, partial-count)
    in polars — the classic combiner, text crosses the exchange only as
    distinct bigram strings — then ONE ``groupby(term)`` with two
    native Sums merges the sides; classification is a vectorized Arrow
    pass.  All counts exact int64 → hash-replayable in SQL.
    """
    from ray.data.aggregate import Sum

    def partial(side: int):
        def fn(t: pa.Table) -> pa.Table:
            import polars as pl

            g = pl.from_arrow(t.select(["text"])) \
                .with_row_index("rid") \
                .with_columns(pl.col("text").str.split(" ").alias("w")) \
                .explode("w") \
                .with_columns(pl.col("w").shift(-1).over("rid")
                              .alias("w2")) \
                .drop_nulls("w2") \
                .select((pl.col("w") + " " + pl.col("w2")).alias("term")) \
                .group_by("term").agg(pl.len().cast(pl.Int64).alias("c"))
            z = pl.lit(0, dtype=pl.Int64)
            g = g.with_columns(
                (pl.col("c") if side == 1 else z).alias("c_cur"),
                (pl.col("c") if side == 0 else z).alias("c_pri"))
            return g.select(["term", "c_cur", "c_pri"]).to_arrow()
        return fn

    both = cur_ds.select_columns(["text"]) \
        .map_batches(partial(1), batch_format="pyarrow",
                     zero_copy_batch=True) \
        .union(prior_ds.select_columns(["text"])
               .map_batches(partial(0), batch_format="pyarrow",
                            zero_copy_batch=True))
    agg = both.groupby("term").aggregate(
        Sum("c_cur", alias_name="cnt_cur"),
        Sum("c_pri", alias_name="cnt_prior"))

    empty = pa.table({"term": pa.array([], pa.string()),
                      "cnt_cur": pa.array([], pa.int64()),
                      "cnt_prior": pa.array([], pa.int64()),
                      "status": pa.array([], pa.string())})

    def classify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        cur = t["cnt_cur"].to_numpy(zero_copy_only=False)
        pri = t["cnt_prior"].to_numpy(zero_copy_only=False)
        keep = cur != pri
        if not keep.any():
            return empty
        status = np.where(pri == 0, "new",
                          np.where(cur == 0, "gone",
                                   np.where(cur > pri, "up", "down")))
        return pa.table({"term": t["term"].filter(pa.array(keep)),
                         "cnt_cur": pa.array(cur[keep], pa.int64()),
                         "cnt_prior": pa.array(pri[keep], pa.int64()),
                         "status": pa.array(status[keep], pa.string())})

    return agg.map_batches(classify, batch_format="pyarrow")


def vocab_drift_sql(table: str = "documents") -> str:
    """SQL twin: same prior-snapshot construction as corpus_diff_sql,
    same single-space bigram extraction as cms_heavy_bigrams_sql."""
    big = """
  SELECT t[i] || ' ' || t[i + 1] AS term, count(*)::BIGINT AS c
  FROM (SELECT t, unnest(range(1, len(t))) AS i
        FROM (SELECT str_split(text, ' ') AS t FROM {src})
        WHERE len(t) >= 2)
  GROUP BY 1"""
    return f"""
WITH vd_prior_base AS (
  SELECT CASE WHEN doc_id % 7 = 0 THEN text || ' legacy' ELSE text END
           AS text
  FROM {table} WHERE doc_id % 11 != 0),
vd_prior_extra AS (
  SELECT text FROM {table} WHERE doc_id % 13 = 0),
vd_prior AS (
  SELECT text FROM vd_prior_base
  UNION ALL SELECT text FROM vd_prior_extra),
vd_cur AS ({big.format(src=table)}),
vd_pri AS ({big.format(src='vd_prior')})
SELECT coalesce(vd_cur.term, vd_pri.term) AS term,
       coalesce(vd_cur.c, 0) AS cnt_cur,
       coalesce(vd_pri.c, 0) AS cnt_prior,
       CASE WHEN coalesce(vd_pri.c, 0) = 0 THEN 'new'
            WHEN coalesce(vd_cur.c, 0) = 0 THEN 'gone'
            WHEN vd_cur.c > vd_pri.c THEN 'up' ELSE 'down' END AS status
FROM vd_cur FULL OUTER JOIN vd_pri ON vd_cur.term = vd_pri.term
WHERE coalesce(vd_cur.c, 0) != coalesce(vd_pri.c, 0)
ORDER BY term
"""


def _cross_side_pairs(group: pa.Table, num_perm: int,
                      cap: int) -> pa.Table:
    """Candidate (new, prior) pairs within one LSH bucket — cross-side
    only, both sides capped (sorted by doc_id, like _bucket_pairs)."""
    ids = group["doc_id"].to_pylist()
    sigs = group["sig"].to_pylist()
    sides = group["side"].to_pylist()
    uniq_new, uniq_pri = {}, {}
    for i, s, sd in zip(ids, sigs, sides):
        (uniq_new if sd == 1 else uniq_pri).setdefault(i, s)
    new_items = _cap_hot_bucket(sorted(uniq_new.items()), cap,
                                "incremental_near_dups/new")
    pri_items = _cap_hot_bucket(sorted(uniq_pri.items()), cap,
                                "incremental_near_dups/prior")
    a_col, b_col, jac = [], [], []
    for ni, nsig in new_items:
        nv = np.frombuffer(nsig, np.uint64)
        for pi, psig in pri_items:
            pv = np.frombuffer(psig, np.uint64)
            a_col.append(ni)
            b_col.append(pi)
            jac.append(float((nv == pv).mean()))
    return pa.Table.from_arrays(
        [pa.array(a_col, pa.int64()), pa.array(b_col, pa.int64()),
         pa.array(jac, pa.float64())],
        names=["doc_id", "match_id", "jaccard_est"])


def incremental_near_dups(new_ds, prior_ds, threshold: float = 0.7,
                          num_perm: int = 64, bands: int = 16,
                          cap: int = 200,
                          small_corpus_threshold: int = 200_000):
    """Incremental-ingest NEAR-duplicate check: for each incoming doc,
    the best MinHash match in the prior corpus snapshot with
    jaccard_est ≥ threshold — ``(doc_id, match_id, jaccard_est)``.
    The near-dup sibling of ``incremental_dup_check`` (exact hashes):
    at 100 TB you LSH the day's ingest against the standing index
    instead of re-deduplicating the whole corpus.

    COST-BASED path selection like ``minhash_near_dups`` (r5): below
    ``small_corpus_threshold`` total docs, band rows carry the
    signature through one coarse-grouped cross-side exchange; above
    it, the TWO-PHASE shape — int-only band rows generate capped
    cross-side candidates, and full signatures are fetched only for
    candidate docs via Bloom-prefiltered bucketed joins (the prior
    side is the corpus-sized one; its signature table never rides the
    band exchange).  Paths are parity-tested bit-identical.  The
    best-match pick is a coarse-grouped per-new-doc argmax either way.
    """
    import ray
    import ray.data as rd

    from ..stages.broadcast import cached_get
    from .groups import coarse_group_map
    from .join import bucketed_hash_join

    new_tbl = new_ds.select_columns(["doc_id", "text"]).map_batches(
        _minhash_doc_rows, fn_kwargs={"num_perm": num_perm,
                                      "bands": bands},
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    pri_tbl = prior_ds.select_columns(["doc_id", "text"]).map_batches(
        _minhash_doc_rows, fn_kwargs={"num_perm": num_perm,
                                      "bands": bands},
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    small = (new_tbl.count() + pri_tbl.count()) <= small_corpus_threshold

    def band_rows(side: int, with_sig: bool):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            bh = t["bh"].combine_chunks()
            flat = bh.flatten().to_numpy(zero_copy_only=False)
            ids = np.repeat(t["doc_id"].combine_chunks()
                            .to_numpy(zero_copy_only=False), bands)
            band = np.tile(np.arange(bands, dtype=np.int32), n)
            cols = {"doc_id": pa.array(ids, pa.int64()),
                    "band": pa.array(band, pa.int32()),
                    "band_hash": pa.array(flat, pa.int64()),
                    "side": pa.array(
                        np.full(n * bands, side, np.int64), pa.int64())}
            if with_sig:
                cols["sig"] = pa.array(
                    [s for s in t["sig"].to_pylist()
                     for _ in range(bands)], pa.binary())
            return pa.table(cols)
        return fn

    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("match_id", pa.int64()),
                            ("jaccard_est", pa.float64())])

    if small:
        exploded = new_tbl.map_batches(
            band_rows(1, True), batch_format="pyarrow",
            zero_copy_batch=True) \
            .union(pri_tbl.map_batches(band_rows(0, True),
                                       batch_format="pyarrow",
                                       zero_copy_batch=True))
        hits = coarse_group_map(
            exploded, ["band", "band_hash"],
            lambda g: _cross_side_pairs(g, num_perm, cap),
            min_group_size=2).filter(
                expr=f"jaccard_est >= {threshold}")
    else:
        exploded = new_tbl.map_batches(
            band_rows(1, False), batch_format="pyarrow",
            zero_copy_batch=True) \
            .union(pri_tbl.map_batches(band_rows(0, False),
                                       batch_format="pyarrow",
                                       zero_copy_batch=True))

        cand_schema = pa.schema([("doc_id", pa.int64()),
                                 ("match_id", pa.int64())])

        def cross_cands(g: pa.Table) -> pa.Table:
            ids = g["doc_id"].combine_chunks() \
                .to_numpy(zero_copy_only=False)
            sd = g["side"].combine_chunks() \
                .to_numpy(zero_copy_only=False)
            new_ids = np.unique(ids[sd == 1])
            pri_ids = np.unique(ids[sd == 0])
            if len(new_ids) > cap:
                logger.warning(
                    "incremental_near_dups/new: hot bucket truncated "
                    "%d -> %d members", len(new_ids), cap)
                new_ids = new_ids[:cap]
            if len(pri_ids) > cap:
                logger.warning(
                    "incremental_near_dups/prior: hot bucket truncated "
                    "%d -> %d members", len(pri_ids), cap)
                pri_ids = pri_ids[:cap]
            if len(new_ids) == 0 or len(pri_ids) == 0:
                return cand_schema.empty_table()
            return pa.table({
                "doc_id": pa.array(np.repeat(new_ids, len(pri_ids)),
                                   pa.int64()),
                "match_id": pa.array(np.tile(pri_ids, len(new_ids)),
                                     pa.int64())}, schema=cand_schema)

        from ray.data.aggregate import Max

        cands = coarse_group_map(exploded, ["band", "band_hash"],
                                 cross_cands, min_group_size=2) \
            .groupby(["doc_id", "match_id"]) \
            .aggregate(Max("doc_id", alias_name="_one")) \
            .select_columns(["doc_id", "match_id"]).materialize()
        if cands.count() == 0:
            return rd.from_arrow(out_schema.empty_table())

        from ..relational import _bloom_from_keys, _bloom_test

        def bloom_part(col):
            def fn(t: pa.Table) -> pa.Table:
                ids = np.unique(t[col].to_numpy(zero_copy_only=False))
                return pa.table({"bits": pa.array(
                    [_bloom_from_keys(ids).tobytes()], pa.binary())})
            return fn

        def bloom_ref(col):
            parts = cands.map_batches(bloom_part(col),
                                      batch_format="pyarrow").to_pandas()
            bits = np.frombuffer(parts["bits"].iloc[0], np.uint8).copy()
            for b in parts["bits"].iloc[1:]:
                bits |= np.frombuffer(b, np.uint8)
            return ray.put(bits.view(bool))

        new_bits, pri_bits = bloom_ref("doc_id"), bloom_ref("match_id")

        def bloom_filter(bits_ref, side):
            def fn(t: pa.Table) -> pa.Table:
                bb = cached_get(bits_ref,
                                tag=f"incremental_near_dups-{side}-bloom")
                hit = _bloom_test(
                    bb, t["doc_id"].to_numpy(zero_copy_only=False))
                return t.filter(pa.array(hit))
            return fn

        side_a = new_tbl.select_columns(["doc_id", "sig"]) \
            .map_batches(bloom_filter(new_bits, "new"),
                         batch_format="pyarrow") \
            .map_batches(lambda t: t.rename_columns(["a_key", "sig_a"]),
                         batch_format="pyarrow")
        side_b = pri_tbl.select_columns(["doc_id", "sig"]) \
            .map_batches(bloom_filter(pri_bits, "prior"),
                         batch_format="pyarrow") \
            .map_batches(lambda t: t.rename_columns(["b_key", "sig_b"]),
                         batch_format="pyarrow")
        joined = bucketed_hash_join(cands, side_a, "doc_id", "a_key")
        joined = bucketed_hash_join(joined, side_b, "match_id", "b_key")

        def estimate(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return out_schema.empty_table()
            a = np.frombuffer(b"".join(t["sig_a"].to_pylist()),
                              np.uint64).reshape(-1, num_perm)
            b = np.frombuffer(b"".join(t["sig_b"].to_pylist()),
                              np.uint64).reshape(-1, num_perm)
            est = (a == b).mean(axis=1)
            keep = est >= threshold
            return pa.table({
                "doc_id": pa.array(t["doc_id"].to_numpy(
                    zero_copy_only=False)[keep], pa.int64()),
                "match_id": pa.array(t["match_id"].to_numpy(
                    zero_copy_only=False)[keep], pa.int64()),
                "jaccard_est": pa.array(est[keep], pa.float64())},
                schema=out_schema)

        hits = joined.map_batches(estimate, batch_format="pyarrow")

    hits = hits.materialize()   # bounded by near-matches; feeds the
    if hits.count() == 0:       # emptiness guard AND the best pick
        return rd.from_arrow(out_schema.empty_table())

    def best(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return out_schema.empty_table()
        mid = g["match_id"].to_numpy(zero_copy_only=False)
        est = g["jaccard_est"].to_numpy(zero_copy_only=False)
        i = min(range(len(mid)), key=lambda i: (-est[i], mid[i]))
        return g.select(["doc_id", "match_id", "jaccard_est"]) \
            .slice(i, 1)

    return coarse_group_map(hits, "doc_id", best)


def _mh_side_cte_sql(prefix: str, src: str, num_perm: int, bands: int,
                     shingle_n: int) -> str:
    """Per-side signature CTE chain ({prefix}_sigs, {prefix}_bands) for
    a given (doc_id, text) source expression; shares the ``perms``
    CTE emitted by the caller."""
    rpb = num_perm // bands
    n = shingle_n
    gram_expr = (f"CASE WHEN len(t) = 0 THEN []::VARCHAR[] "
                 f"WHEN len(t) < {n} THEN [array_to_string(t, ' ')] "
                 f"ELSE list_distinct(list_transform("
                 f"range(1, len(t) - {n - 2}), "
                 f"i -> concat_ws(' ', "
                 + ", ".join(f"t[i+{j}]" for j in range(n)) + "))) END")
    return rf"""{prefix}_toks AS (
          SELECT doc_id,
                 CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                      ELSE regexp_split_to_array(trim(text), '\s+')
                 END AS t
          FROM {src}),
        {prefix}_gh AS (
          SELECT doc_id,
                 ('0x' || substr(md5(g), 1, 15))::BIGINT AS h
          FROM (SELECT doc_id, unnest({gram_expr}) AS g
                FROM {prefix}_toks)),
        {prefix}_sigs AS MATERIALIZED (
          SELECT d.doc_id, p.idx,
                 COALESCE(min(
                   (((p.a::HUGEINT * gh.h + p.b) % 18446744073709551616)
                    % 2305843009213693951)::BIGINT), 0) AS sig
          FROM (SELECT DISTINCT doc_id FROM {src}) d
          CROSS JOIN perms p
          LEFT JOIN {prefix}_gh gh ON gh.doc_id = d.doc_id
          GROUP BY d.doc_id, p.idx),
        {prefix}_bands AS MATERIALIZED (
          SELECT doc_id, idx // {rpb} AS band,
                 ('0x' || substr(md5(
                    string_agg(sig::VARCHAR, ',' ORDER BY idx)), 1, 15))
                 ::BIGINT AS band_hash
          FROM {prefix}_sigs GROUP BY doc_id, idx // {rpb})"""


def incremental_near_dups_sql(threshold: float = 0.7, num_perm: int = 64,
                              bands: int = 16, shingle_n: int = 3,
                              seed: int = 13, cap: int = 200,
                              table: str = "documents") -> str:
    """SQL twin: new side = docs absent from the prior snapshot
    (doc_id % 11 = 0, the synth_prior_snapshot convention); prior side
    = the same construction as corpus_diff_sql; identical permutation
    literals, band keys, per-side caps and best-match pick."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, size=num_perm)
    b = rng.randint(0, (1 << 61) - 1, size=num_perm)
    perm_rows = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})"
                          for i in range(num_perm))
    new_src = f"(SELECT doc_id, text FROM {table} WHERE doc_id % 11 = 0)"
    pri_src = f"""(
      SELECT doc_id,
             CASE WHEN doc_id % 7 = 0 THEN text || ' legacy'
                  ELSE text END AS text
      FROM {table} WHERE doc_id % 11 != 0
      UNION ALL
      SELECT doc_id + 1000000000 AS doc_id, text
      FROM {table} WHERE doc_id % 13 = 0)"""
    return f"""
WITH perms(idx, a, b) AS (VALUES {perm_rows}),
{_mh_side_cte_sql('ind_new', new_src, num_perm, bands, shingle_n)},
{_mh_side_cte_sql('ind_pri', pri_src, num_perm, bands, shingle_n)},
ind_new_r AS (
  SELECT *, row_number() OVER (
    PARTITION BY band, band_hash ORDER BY doc_id) AS rn
  FROM ind_new_bands),
ind_pri_r AS (
  SELECT *, row_number() OVER (
    PARTITION BY band, band_hash ORDER BY doc_id) AS rn
  FROM ind_pri_bands),
ind_cand AS (
  SELECT DISTINCT n.doc_id, p.doc_id AS match_id
  FROM ind_new_r n JOIN ind_pri_r p
    ON p.band = n.band AND p.band_hash = n.band_hash
  WHERE n.rn <= {cap} AND p.rn <= {cap}),
ind_est AS (
  SELECT c.doc_id, c.match_id,
         (count(*) FILTER (WHERE sn.sig = sp.sig))::DOUBLE
           / {num_perm} AS jaccard_est
  FROM ind_cand c
  JOIN ind_new_sigs sn ON sn.doc_id = c.doc_id
  JOIN ind_pri_sigs sp ON sp.doc_id = c.match_id AND sp.idx = sn.idx
  GROUP BY c.doc_id, c.match_id),
ind_best AS (
  SELECT doc_id, match_id, jaccard_est, row_number() OVER (
    PARTITION BY doc_id
    ORDER BY jaccard_est DESC, match_id ASC) AS rn
  FROM ind_est WHERE jaccard_est >= {threshold!r})
SELECT doc_id, match_id, jaccard_est FROM ind_best WHERE rn = 1
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# winnowing (MOSS) fingerprints
# ---------------------------------------------------------------------------

_GRAM_MEMO: dict[str, int] = {}


def _md5_60_memo(g: str) -> int:
    """Per-worker bounded gram→hash memo (the SimHasher token-memo
    idiom): corpus k-grams repeat massively, so each distinct gram pays
    its md5 once per process, and the cap bounds worker heap."""
    h = _GRAM_MEMO.get(g)
    if h is None:
        h = _md5_60(g.encode())
        if len(_GRAM_MEMO) < 1_000_000:
            _GRAM_MEMO[g] = h
    return h


def winnow_dup_pairs(docs_ds, k: int = 3, w: int = 4, max_df: int = 8,
                     min_shared: int = 2):
    """Winnowing fingerprint near-dup pairs (Schleimer/Wilkerson/Aiken
    MOSS): hash every word ``k``-gram, slide a window of ``w``
    consecutive hashes and keep the window MINIMUM (rightmost on ties —
    the robust-winnowing rule), giving each doc a guaranteed-coverage
    fingerprint set ~1/w the k-gram count.  Docs sharing ≥
    ``min_shared`` selected fingerprints pair up:
    ``(doc_a, doc_b, n_shared)``.

    Complements MinHash (random sample of shingles) and rare-shingle
    blocking (global-df gate): winnowing picks LOCAL minima, so any
    shared substring of ≥ w+k-1 tokens is guaranteed to contribute at
    least one common fingerprint regardless of global frequencies.

    Scale shape: fingerprints are selected per batch (numpy sliding-
    window argmin over md5-60 gram hashes — the SQL-replicable hash
    primitive), and the per-batch combiner collapses each fingerprint
    to ONE row per block (≤ ``max_df``-doc posting list or an overflow
    marker, exactly the rare_token_pairs bound: hot fingerprints never
    ship posting lists).  Only (fp, small-doc-list) rows cross the
    exchange; text never does.  The fingerprint exchange and its pair
    kernel are rare_token_pairs', then the (doc_a, doc_b) rollup.
    """
    from ray.data.aggregate import Sum

    from .groups import segment_map

    _part_schema = pa.schema([("fp", pa.int64()),
                              ("docs", pa.list_(pa.int64())),
                              ("over", pa.bool_())])

    def winnow_partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        fp_parts, doc_parts = [], []
        for d, txt in zip(ids, texts):
            toks = txt.split(" ")
            m = len(toks) - k + 1
            if m <= 0:
                continue
            h = np.array([_md5_60_memo(" ".join(toks[i:i + k]))
                          for i in range(m)], np.int64)
            if m <= w:
                sel = np.array([m - 1 - int(h[::-1].argmin())])
            else:
                win = np.lib.stride_tricks.sliding_window_view(h, w)
                # rightmost min: argmin over the reversed window axis
                sel = np.arange(m - w + 1) + (
                    w - 1 - win[:, ::-1].argmin(axis=1))
            fps = np.unique(h[sel])
            fp_parts.append(fps)
            doc_parts.append(np.full(len(fps), d, np.int64))
        if not fp_parts:
            return _part_schema.empty_table()
        fp = np.concatenate(fp_parts)
        doc = np.concatenate(doc_parts)
        order = np.lexsort((doc, fp))
        fp_s, doc_s = fp[order], doc[order]
        uniq, starts = np.unique(fp_s, return_index=True)
        ends = np.append(starts[1:], len(fp_s))
        over = (ends - starts) > max_df
        docs_col = pa.array(
            [[] if o else doc_s[s:e].tolist()
             for s, e, o in zip(starts, ends, over)],
            pa.list_(pa.int64()))
        return pa.table({"fp": pa.array(uniq, pa.int64()),
                         "docs": docs_col,
                         "over": pa.array(over)}, schema=_part_schema)

    agg = segment_map(
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(winnow_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "fp", _posting_pairs(max_df, "n_shared")) \
        .groupby(["doc_a", "doc_b"]) \
        .aggregate(Sum("n_shared", alias_name="n_shared"))

    def keep_shared(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["n_shared"], min_shared))

    return agg.map_batches(keep_shared, batch_format="pyarrow")


def winnow_dup_pairs_sql(k: int = 3, w: int = 4, max_df: int = 8,
                         min_shared: int = 2,
                         table: str = "documents") -> str:
    """Oracle twin: per-position k-gram md5-60 hashes, window selection
    replayed as a range join + ``row_number() OVER (ORDER BY h ASC,
    pos DESC)`` (rightmost-min tie-break), then the rare-blocking pair
    rollup."""
    gram = " || ' ' || ".join(f"t[pos+{i}]" if i else "t[pos]"
                              for i in range(k))
    return f"""
WITH wn_toks AS (
  SELECT doc_id, str_split(text, ' ') AS t FROM {table}),
wn_pos AS (
  SELECT doc_id, t,
         unnest(range(1, len(t) - {k} + 2)) AS pos
  FROM wn_toks),
wn_kg AS (
  SELECT doc_id, pos,
         ('0x' || substr(md5({gram}), 1, 15))::BIGINT AS h
  FROM wn_pos),
wn_m AS (SELECT doc_id, count(*) AS m FROM wn_kg GROUP BY doc_id),
wn_win AS (
  SELECT doc_id, unnest(range(1, greatest(m - {w} + 1, 1) + 1)) AS s
  FROM wn_m),
wn_rn AS (
  SELECT wv.doc_id, wv.s, kg.h,
         row_number() OVER (PARTITION BY wv.doc_id, wv.s
                            ORDER BY kg.h ASC, kg.pos DESC) AS rn
  FROM wn_win wv JOIN wn_kg kg
    ON kg.doc_id = wv.doc_id
   AND kg.pos >= wv.s AND kg.pos < wv.s + {w}),
wn_fp AS (SELECT DISTINCT doc_id, h FROM wn_rn WHERE rn = 1),
wn_blk AS (
  SELECT h FROM wn_fp GROUP BY h
  HAVING count(*) BETWEEN 2 AND {max_df})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       count(*)::BIGINT AS n_shared
FROM wn_fp a JOIN wn_blk r ON r.h = a.h
JOIN wn_fp b ON b.h = a.h AND b.doc_id > a.doc_id
GROUP BY doc_a, doc_b HAVING count(*) >= {min_shared}
ORDER BY doc_a, doc_b
"""


# ---------------------------------------------------------------------------
# prefix-filtered exact set-similarity self-join (PPJoin family)
# ---------------------------------------------------------------------------

def _distinct_shingle_hashes(txt: str, n: int) -> np.ndarray:
    """Sorted distinct md5-60 hashes of a doc's word ``n``-shingles."""
    toks = txt.split(" ")
    m = len(toks) - n + 1
    if m <= 0:
        return np.empty(0, np.int64)
    grams = {" ".join(toks[i:i + n]) for i in range(m)}
    return np.sort(np.fromiter((_md5_60_memo(g) for g in grams),
                               np.int64, len(grams)))


# Count-Min sketch geometry for set_sim_join's df-estimate token
# ordering — shared verbatim by the Ray stage and the SQL twin so both
# sides derive the SAME global order.  Fixed d×w: broadcast size is
# corpus-independent (4 × 8192 × 8 B = 256 KiB).
_SSJ_CMS_PRIMES = (1000000007, 1000000009, 1000000021, 1000000033)
_SSJ_CMS_W = 8192


def set_sim_join(docs_ds, tau_num: int = 3, tau_den: int = 5,
                 cap: int = 256, shingle_n: int = 3):
    """Exact Jaccard set-similarity self-join with prefix filtering
    (the AllPairs/PPJoin family, Bayardo et al. WWW'07): find every doc
    pair whose word-shingle sets have Jaccard ≥ tau_num/tau_den, without
    an all-pairs comparison.

    Principle: order each doc's token set by ascending global document
    frequency (rarest first, ties by hash); a pair with Jaccard ≥ τ
    MUST share a token within each side's first ``n − ceil(τ·n) + 1``
    tokens, so only that PREFIX is indexed.  Candidates additionally
    pass the size filter ``τ·max(|a|,|b|) ≤ min(|a|,|b|)`` and are then
    verified with an EXACT intersection count — the τ test itself is
    pure integer arithmetic (``tau_den·|∩| ≥ tau_num·|∪|``), so the
    result replays bit-exactly in SQL.

    Scale shape: the corpus is tokenized and hashed exactly ONCE into a
    materialized (doc_id, sorted-hash-blob, n) sets table — ints only,
    strictly smaller than the text; at well beyond object-store scale,
    stage it to parquet like build_kg_fused (documented escape hatch).
    Everything else derives from the sets table.  Token ordering (the
    global order the prefix filter needs) uses a COUNT-MIN df ESTIMATE
    (VERDICT r4 item 2): the prefix-filter guarantee is order-agnostic
    — a pair with J ≥ τ shares a token in each side's first
    ``n − ceil(τ·n) + 1`` tokens under ANY consistent global total
    order — so estimated-df-ascending (ties by hash) keeps the join
    EXACT while the broadcast state shrinks from |distinct shingles|
    (corpus-growing on real web text) to a FIXED d×w = 4×8192 int64
    sketch (256 KiB at any corpus size), counted by one ``groups.fold``
    on the driver with no exchange.  Estimate error only affects
    selectivity, never correctness, and the SQL twin replays the
    identical sketch.  Prefix postings carry (h, doc_id, n) ints and
    meet in one segment exchange on h (``groups.segment_map``: one
    vectorized call per coarse block, not one per token); hot prefix
    tokens are capped DETERMINISTICALLY at ``cap`` docs in doc_id order
    (the row_number twin); verification Bloom-prefilters
    the sets table with the candidate doc ids (fixed 64-KiB broadcast
    bits, the bloom_filtered_brand_revenue pattern) so the two bucketed
    hash joins shuffle only candidate docs' sets, never the corpus.
    """
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max

    from ..stages.broadcast import cached_get
    from .groups import fold, segment_map, segment_pairs
    from .join import bucketed_hash_join

    # --- the ONLY text pass: per-doc sorted distinct shingle hashes,
    # shipped as int64-LE binary blobs (acero joins reject list
    # payloads; frombuffer decodes zero-copy) ---
    sets_schema = pa.schema([("doc_id", pa.int64()),
                             ("hs", pa.binary()),
                             ("n", pa.int64())])

    def hash_sets(t: pa.Table) -> pa.Table:
        ids, blobs, ns = [], [], []
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            hs = _distinct_shingle_hashes(txt, shingle_n)
            if len(hs):
                ids.append(d)
                blobs.append(hs.astype("<i8").tobytes())
                ns.append(len(hs))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "hs": pa.array(blobs, pa.binary()),
                         "n": pa.array(ns, pa.int64())},
                        schema=sets_schema)

    sets = docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(hash_sets, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()

    # --- Count-Min df sketch: explode the int blobs (no re-tokenize)
    # into one (cell) row per (shingle, sketch row); ``groups.fold``
    # counts the ≤ d·w fixed cells on the driver, no exchange.  The
    # driver holds a corpus-size-INDEPENDENT 4×8192 array (the
    # cms_heavy_bigrams broadcast shape), never the distinct-shingle
    # table. ---
    def cms_cells(t: pa.Table) -> pa.Table:
        allh = np.frombuffer(b"".join(t["hs"].to_pylist()), "<i8")
        return pa.table({"cell": np.concatenate(
            [i * _SSJ_CMS_W + (allh % p) % _SSJ_CMS_W
             for i, p in enumerate(_SSJ_CMS_PRIMES)])})

    cms_rows = fold(sets.select_columns(["hs"])
                    .map_batches(cms_cells, batch_format="pyarrow",
                                 zero_copy_batch=True),
                    "cell", {"c": ("count", None)})
    cms = np.zeros(len(_SSJ_CMS_PRIMES) * _SSJ_CMS_W, np.int64)
    cms[cms_rows["cell"].to_numpy()] = cms_rows["c"].to_numpy()
    cms = cms.reshape(len(_SSJ_CMS_PRIMES), _SSJ_CMS_W)
    df_ref = ray.put(cms)

    # --- prefix postings from the sets table + broadcast df;
    # ``pos`` (1-based df-order index) feeds the positional filter ---
    pref_schema = pa.schema([("h", pa.int64()), ("doc_id", pa.int64()),
                             ("n", pa.int64()), ("pos", pa.int64())])

    def prefix_postings(t: pa.Table) -> pa.Table:
        sk = cached_get(df_ref, tag="set_sim_join-df")
        out_h, out_d, out_n, out_p = [], [], [], []
        for d, blob, n in zip(t["doc_id"].to_pylist(),
                              t["hs"].to_pylist(),
                              t["n"].to_pylist()):
            hs = np.frombuffer(blob, "<i8")
            dfs = np.minimum.reduce([
                sk[i][(hs % p) % _SSJ_CMS_W]
                for i, p in enumerate(_SSJ_CMS_PRIMES)])
            order = np.lexsort((hs, dfs))
            p = n - (tau_num * n + tau_den - 1) // tau_den + 1
            out_h.append(hs[order[:p]])
            out_d.append(np.full(p, d, np.int64))
            out_n.append(np.full(p, n, np.int64))
            out_p.append(np.arange(1, p + 1, dtype=np.int64))
        if not out_h:
            return pref_schema.empty_table()
        return pa.table({"h": np.concatenate(out_h),
                         "doc_id": np.concatenate(out_d),
                         "n": np.concatenate(out_n),
                         "pos": np.concatenate(out_p)},
                        schema=pref_schema)

    postings = sets.map_batches(prefix_postings, batch_format="pyarrow",
                                zero_copy_batch=True)

    pair_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])

    def cands_per_token(g: pa.Table, starts: np.ndarray) -> pa.Table:
        # deterministic cap: first `cap` docs of each token in doc_id
        # order (the SQL row_number twin), then the integer size filter,
        # then the PPJoin POSITIONAL filter: a pair sharing this token
        # at df-order positions (pa, pb) has |∩| ≤ 1 + min(na−pa,
        # nb−pb), and J ≥ τ needs (τn+τd)·|∩| ≥ τn·(na+nb) — pairs that
        # cannot reach τ never leave the block.  LOSSLESS: it only
        # removes pairs exact verification would reject, so the SQL
        # twin (which verifies every capped candidate) is unchanged.
        ids = g["doc_id"].to_numpy()
        order = np.lexsort((ids, g["h"].to_numpy()))
        ids = ids[order]
        ns = g["n"].to_numpy()[order]
        ps = g["pos"].to_numpy()[order]
        sizes = np.diff(np.append(starts, g.num_rows))
        ai, bi = segment_pairs(starts, np.minimum(sizes, cap))
        lo = np.minimum(ns[ai], ns[bi])
        hi = np.maximum(ns[ai], ns[bi])
        keep = tau_den * lo >= tau_num * hi
        ub = 1 + np.minimum(ns[ai] - ps[ai], ns[bi] - ps[bi])
        keep &= (tau_num + tau_den) * ub >= tau_num * (ns[ai] + ns[bi])
        return pa.table({"doc_a": pa.array(ids[ai[keep]], pa.int64()),
                         "doc_b": pa.array(ids[bi[keep]], pa.int64())},
                        schema=pair_schema)

    out_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                            ("n_inter", pa.int64()),
                            ("n_union", pa.int64()),
                            ("jaccard", pa.float64())])

    # materialize the DEDUPED candidate table (tiny: bounded by real
    # near-pairs + cap collisions) — it feeds the Bloom bits, the
    # emptiness probe and the verify join
    cands = segment_map(postings, "h", cands_per_token) \
        .groupby(["doc_a", "doc_b"]) \
        .aggregate(Max("doc_a", alias_name="_one")) \
        .select_columns(["doc_a", "doc_b"]) \
        .materialize()
    # Ray 2.49 gotcha: an all-empty dataset drops its schema, which the
    # bucketed join can't recover
    if cands.count() == 0:
        return rd.from_arrow(out_schema.empty_table())

    # --- Bloom bits over candidate doc ids: per-batch partial bit
    # arrays OR-reduced on the driver (KiB each, never the id list) ---
    from ..relational import _bloom_from_keys, _bloom_test

    def bloom_partial(t: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([
            t["doc_a"].to_numpy(zero_copy_only=False),
            t["doc_b"].to_numpy(zero_copy_only=False)]))
        return pa.table({"bits": pa.array(
            [_bloom_from_keys(ids).tobytes()], pa.binary())})

    parts = cands.map_batches(bloom_partial,
                              batch_format="pyarrow").to_pandas()
    bits = np.frombuffer(parts["bits"].iloc[0], np.uint8).copy()
    for b in parts["bits"].iloc[1:]:
        bits |= np.frombuffer(b, np.uint8)
    bits_ref = ray.put(bits.view(bool))   # _bloom_test needs bool bits

    def bloom_filter_sets(t: pa.Table) -> pa.Table:
        bb = cached_get(bits_ref, tag="set_sim_join-bloom")
        hit = _bloom_test(bb, t["doc_id"].to_numpy(zero_copy_only=False))
        return t.filter(pa.array(hit))

    cand_sets = sets.select_columns(["doc_id", "hs"]) \
        .map_batches(bloom_filter_sets, batch_format="pyarrow")
    sets_a = cand_sets.map_batches(
        lambda t: t.rename_columns(["doc_a_key", "hs_a"]),
        batch_format="pyarrow")
    sets_b = cand_sets.map_batches(
        lambda t: t.rename_columns(["doc_b_key", "hs_b"]),
        batch_format="pyarrow")

    joined = bucketed_hash_join(cands, sets_a, "doc_a", "doc_a_key")
    joined = bucketed_hash_join(joined, sets_b, "doc_b", "doc_b_key")

    def verify(t: pa.Table) -> pa.Table:
        from .text import _round6
        if t.num_rows == 0:
            return out_schema.empty_table()
        a_blobs = t["hs_a"].to_pylist()
        b_blobs = t["hs_b"].to_pylist()
        aa = t["doc_a"].to_numpy(zero_copy_only=False)
        bb2 = t["doc_b"].to_numpy(zero_copy_only=False)
        da, db, ni, nu, jc = [], [], [], [], []
        for i in range(t.num_rows):
            ha = np.frombuffer(a_blobs[i], "<i8")
            hb = np.frombuffer(b_blobs[i], "<i8")
            # sorted-merge count via searchsorted (both sides sorted
            # and unique) — cheaper than intersect1d's concat+sort
            if len(ha) > len(hb):
                ha, hb = hb, ha
            j = np.searchsorted(hb, ha)
            j[j == len(hb)] = len(hb) - 1
            inter = int((hb[j] == ha).sum())
            union = len(a_blobs[i]) // 8 + len(b_blobs[i]) // 8 - inter
            if tau_den * inter >= tau_num * union:
                da.append(int(aa[i]))
                db.append(int(bb2[i]))
                ni.append(inter)
                nu.append(union)
                jc.append(_round6(inter / union))
        return pa.table({"doc_a": pa.array(da, pa.int64()),
                         "doc_b": pa.array(db, pa.int64()),
                         "n_inter": pa.array(ni, pa.int64()),
                         "n_union": pa.array(nu, pa.int64()),
                         "jaccard": pa.array(jc, pa.float64())},
                        schema=out_schema)

    return joined.map_batches(verify, batch_format="pyarrow")


def _ssj_cte_sql(tau_num: int = 3, tau_den: int = 5, cap: int = 256,
                 shingle_n: int = 3, table: str = "documents") -> str:
    """CTE body ending in ``ssj_result`` — shared by set_sim_join_sql
    and the sketch-error audit oracle."""
    gram = " || ' ' || ".join(f"t[pos+{i}]" if i else "t[pos]"
                              for i in range(shingle_n))
    cms_case = " ".join(f"WHEN {i} THEN {p}" for i, p in
                        enumerate(_SSJ_CMS_PRIMES[:-1])) \
        + f" ELSE {_SSJ_CMS_PRIMES[-1]}"
    cms_w = _SSJ_CMS_W
    cms_rows = ",".join(f"({i})" for i in range(len(_SSJ_CMS_PRIMES)))
    return f"""ssj_tok AS (
  SELECT DISTINCT doc_id,
         ('0x' || substr(md5({gram}), 1, 15))::BIGINT AS h
  FROM (SELECT doc_id, str_split(text, ' ') AS t,
               unnest(range(1, len(str_split(text, ' ')) - {shingle_n} + 2))
                 AS pos
        FROM {table})),
ssj_df AS (SELECT h, count(*)::BIGINT AS df FROM ssj_tok GROUP BY h),
ssj_dfe AS (
  -- Count-Min df ESTIMATE replayed exactly (same primes/width as the
  -- Ray sketch): per row i, bucket-sum of df over (h % p_i) % w, then
  -- min across rows — the global token order is (dfe, h)
  SELECT h, min(bsum)::BIGINT AS dfe FROM (
    SELECT d.h,
           sum(d.df) OVER (PARTITION BY t.i,
             (d.h % (CASE t.i {cms_case} END)) % {cms_w}) AS bsum
    FROM ssj_df d CROSS JOIN (VALUES {cms_rows}) t(i)) q
  GROUP BY h),
ssj_n AS (SELECT doc_id, count(*)::BIGINT AS n FROM ssj_tok
          GROUP BY doc_id),
ssj_ord AS (
  SELECT tk.doc_id, tk.h, sn.n,
         row_number() OVER (PARTITION BY tk.doc_id
                            ORDER BY e.dfe, tk.h) AS pos
  FROM ssj_tok tk
  JOIN ssj_dfe e USING (h) JOIN ssj_n sn USING (doc_id)),
ssj_pref AS (
  SELECT doc_id, h, n,
         row_number() OVER (PARTITION BY h ORDER BY doc_id) AS rn
  FROM ssj_ord
  WHERE pos <= n - (({tau_num} * n + {tau_den} - 1) // {tau_den}) + 1),
ssj_cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM ssj_pref a JOIN ssj_pref b ON b.h = a.h AND b.doc_id > a.doc_id
  WHERE a.rn <= {cap} AND b.rn <= {cap}
    AND {tau_den} * least(a.n, b.n) >= {tau_num} * greatest(a.n, b.n)),
ssj_int AS (
  SELECT c.doc_a, c.doc_b, count(*)::BIGINT AS n_inter
  FROM ssj_cand c
  JOIN ssj_tok ta ON ta.doc_id = c.doc_a
  JOIN ssj_tok tb ON tb.doc_id = c.doc_b AND tb.h = ta.h
  GROUP BY c.doc_a, c.doc_b),
ssj_result AS (
  SELECT i.doc_a, i.doc_b, i.n_inter,
         (na.n + nb.n - i.n_inter)::BIGINT AS n_union,
         round(i.n_inter / (na.n + nb.n - i.n_inter), 6) AS jaccard
  FROM ssj_int i
  JOIN ssj_n na ON na.doc_id = i.doc_a
  JOIN ssj_n nb ON nb.doc_id = i.doc_b
  WHERE {tau_den} * i.n_inter >= {tau_num} * (na.n + nb.n - i.n_inter))"""


def set_sim_join_sql(tau_num: int = 3, tau_den: int = 5, cap: int = 256,
                     shingle_n: int = 3,
                     table: str = "documents") -> str:
    """Oracle twin: identical md5-60 shingle hashes, df ordering, integer
    prefix length, row_number cap, size filter and exact-integer τ test."""
    return f"""
WITH {_ssj_cte_sql(tau_num, tau_den, cap, shingle_n, table)}
SELECT doc_a, doc_b, n_inter, n_union, jaccard FROM ssj_result
ORDER BY doc_a, doc_b
"""


# ---------------------------------------------------------------------------
# sketch-quality audit: MinHash estimate vs exact Jaccard
# ---------------------------------------------------------------------------

def minhash_error_audit(docs_ds, threshold: float = 0.5,
                        tau_num: int = 1, tau_den: int = 2,
                        num_perm: int = 64, bands: int = 16):
    """Measure the MinHash sketch against ground truth ON THE SAME
    CORPUS: LSH near-dup pairs at ``threshold`` vs the prefix-filtered
    EXACT Jaccard join at τ = tau_num/tau_den (same word-trigram
    shingles), reporting one summary row — pair counts on each side,
    the overlap, and the estimation error in exact integer ppm
    (``|k·∪ − 64·∩|·10⁶ // (64·∪)`` where k = the estimate's matching
    permutation count, recovered exactly since jaccard_est = k/64 is
    dyadic).  The audit every sketch deployment should run before
    trusting thresholds at 100 TB.

    Scale shape: both inputs are the already-scale-shaped ops; their
    pair outputs are small; the overlap join keys pairs as one int64
    (a<<32|b) through the bucketed hash join; the summary reduces
    driver-side over the matched pairs only.
    """
    import ray.data as rd
    from .join import bucketed_hash_join

    est = minhash_near_dups(docs_ds, threshold=threshold,
                            num_perm=num_perm, bands=bands)
    exact = set_sim_join(docs_ds, tau_num=tau_num, tau_den=tau_den)

    def key_est(t: pa.Table) -> pa.Table:
        k = pc.add(pc.shift_left(t["doc_a"], 32), t["doc_b"])
        return pa.table({"k": k, "jaccard_est": t["jaccard_est"]})

    def key_exact(t: pa.Table) -> pa.Table:
        k = pc.add(pc.shift_left(t["doc_a"], 32), t["doc_b"])
        return pa.table({"pk": k, "n_inter": t["n_inter"],
                         "n_union": t["n_union"]})

    est_k = est.map_batches(key_est, batch_format="pyarrow").materialize()
    ex_k = exact.map_batches(key_exact,
                             batch_format="pyarrow").materialize()
    n_lsh = est_k.count()
    n_exact = ex_k.count()
    import pandas as pd

    if n_lsh == 0 or n_exact == 0:
        both = pd.DataFrame(columns=["jaccard_est", "n_inter", "n_union"])
    else:
        both = bucketed_hash_join(est_k, ex_k, "k", "pk").to_pandas()
    n_both = len(both)
    if n_both:
        k64 = np.rint(both["jaccard_est"].to_numpy(np.float64) * 64) \
            .astype(np.int64)
        ni = both["n_inter"].to_numpy(np.int64)
        nu = both["n_union"].to_numpy(np.int64)
        err = (np.abs(k64 * nu - 64 * ni) * 1_000_000) // (64 * nu)
        mean_err = int(err.sum()) // n_both
        max_err = int(err.max())
    else:
        mean_err = max_err = 0
    return pd.DataFrame([{
        "n_lsh_pairs": n_lsh, "n_exact_pairs": n_exact,
        "n_both": n_both, "mean_err_ppm": mean_err,
        "max_err_ppm": max_err}])


def minhash_error_audit_sql(threshold: float = 0.5, tau_num: int = 1,
                            tau_den: int = 2, num_perm: int = 64,
                            bands: int = 16, shingle_n: int = 3,
                            seed: int = 13, cap: int = 200,
                            table: str = "documents") -> str:
    """Oracle twin: both pipelines' CTE bodies composed (prefixes keep
    the namespaces disjoint), identical integer error arithmetic."""
    mh = _minhash_pairs_cte_sql(threshold, num_perm, bands, shingle_n,
                                seed, cap)
    ssj = _ssj_cte_sql(tau_num, tau_den, 256, shingle_n, table)
    return f"""
WITH {mh},
{ssj},
aud_j AS (
  SELECT (round(m.jaccard_est * 64))::BIGINT AS k64,
         x.n_inter, x.n_union
  FROM mh_pairs m
  JOIN ssj_result x USING (doc_a, doc_b)),
aud_e AS (
  SELECT (abs(k64 * n_union - 64 * n_inter) * 1000000)
           // (64 * n_union) AS err
  FROM aud_j)
SELECT (SELECT count(*) FROM mh_pairs)::BIGINT AS n_lsh_pairs,
       (SELECT count(*) FROM ssj_result)::BIGINT AS n_exact_pairs,
       count(*)::BIGINT AS n_both,
       (CASE WHEN count(*) = 0 THEN 0
             ELSE sum(err) // count(*) END)::BIGINT AS mean_err_ppm,
       coalesce(max(err), 0)::BIGINT AS max_err_ppm
FROM aud_e
"""


# ---------------------------------------------------------------------------
# content-defined chunking (CDC) dedup audit
# ---------------------------------------------------------------------------

def _doc_count_sum(doc: np.ndarray, flag: np.ndarray, count_name: str,
                   sum_name: str) -> pa.Table:
    """Per-doc ``(doc_id, count_name, sum_name)``: the doc's row count
    and the sum of its 0/1 ``flag``."""
    r = pa.table({"doc_id": pa.array(doc, pa.int64()),
                  "f": pa.array(flag.astype(np.int64), pa.int64())}) \
        .group_by("doc_id", use_threads=False) \
        .aggregate([("f", "count"), ("f", "sum")])
    return pa.table({"doc_id": r["doc_id"], count_name: r["f_count"],
                     sum_name: r["f_sum"]})


def cdc_chunk_dedup(docs_ds, k: int = 3, div: int = 4):
    """Content-defined chunking dedup — the storage-dedup shape: token
    position ``pos`` ends a chunk when the md5-60 of its trailing
    ``k``-gram ≡ 0 (mod ``div``) (expected chunk length ≈ ``div``
    tokens).  Because boundaries depend only on LOCAL content, a
    shared passage chunks identically in every doc containing it —
    insertion/deletion shifts don't break alignment the way fixed-size
    chunking does.  Output per doc: ``(doc_id, n_chunks,
    n_dup_chunks)`` where a dup chunk's content occurs ≥2 times
    corpus-wide.

    Scale shape: chunking is one streamed pass (per-worker memoized
    gram hashes — hashing scales with distinct grams); only 16-byte
    ``(chash, doc_id)`` rows cross ONE segment exchange on the chunk
    hash (``groups.segment_map``), where a segment of ≥ 2 rows flags
    dups and each block pre-aggregates per doc; a final doc-keyed
    groupby sums the partials.  Chunk text never leaves its block.
    """
    from ray.data.aggregate import Sum

    from .groups import segment_map

    def chunks(t: pa.Table) -> pa.Table:
        out_h, out_d = [], []
        for d, txt in zip(t["doc_id"].to_pylist(),
                          t["text"].to_pylist()):
            toks = txt.split(" ")
            start = 0
            for pos in range(k, len(toks) + 1):   # 1-based end pos
                g = " ".join(toks[pos - k:pos])
                if _md5_60_memo(g) % div == 0:
                    out_h.append(_md5_60(
                        " ".join(toks[start:pos]).encode()))
                    out_d.append(d)
                    start = pos
            if start < len(toks):
                out_h.append(_md5_60(
                    " ".join(toks[start:]).encode()))
                out_d.append(d)
        return pa.table({"chash": pa.array(out_h, pa.int64()),
                         "doc_id": pa.array(out_d, pa.int64())})

    def per_block(g: pa.Table, starts: np.ndarray) -> pa.Table:
        sizes = np.diff(np.append(starts, g.num_rows))
        return _doc_count_sum(g["doc_id"].to_numpy(),
                              np.repeat(sizes >= 2, sizes),
                              "n_chunks", "n_dup_chunks")

    return segment_map(docs_ds.select_columns(["doc_id", "text"])
                       .map_batches(chunks, batch_format="pyarrow",
                                    zero_copy_batch=True),
                       "chash", per_block) \
        .groupby("doc_id").aggregate(
            Sum("n_chunks", alias_name="n_chunks"),
            Sum("n_dup_chunks", alias_name="n_dup_chunks"))


def cdc_chunk_dedup_sql(k: int = 3, div: int = 4,
                        table: str = "documents") -> str:
    """Oracle twin: same boundary rule, same chunk hashes, exclusive
    prefix-sum chunk ids, global occurrence counts."""
    return f"""
WITH cdc_pos AS (
  SELECT doc_id, t[pos] AS tok, t, pos
  FROM (SELECT doc_id, str_split(text, ' ') AS t,
               unnest(range(1, len(str_split(text, ' ')) + 1)) AS pos
        FROM {table})),
cdc_b AS (
  SELECT doc_id, tok, pos,
         CASE WHEN pos >= {k} AND
              ('0x' || substr(md5(array_to_string(
                  t[pos - {k - 1}:pos], ' ')), 1, 15))::BIGINT
                % {div} = 0
              THEN 1 ELSE 0 END AS bf
  FROM cdc_pos),
cdc_cid AS (
  SELECT doc_id, tok, pos,
         coalesce(sum(bf) OVER (PARTITION BY doc_id ORDER BY pos
                  ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING), 0) AS cid
  FROM cdc_b),
cdc_ch AS (
  SELECT doc_id,
         ('0x' || substr(md5(string_agg(tok, ' ' ORDER BY pos)),
                         1, 15))::BIGINT AS chash
  FROM cdc_cid GROUP BY doc_id, cid),
cdc_cnt AS (SELECT chash, count(*) AS cnt FROM cdc_ch GROUP BY 1)
SELECT doc_id, count(*)::BIGINT AS n_chunks,
       count(*) FILTER (cnt >= 2)::BIGINT AS n_dup_chunks
FROM cdc_ch JOIN cdc_cnt USING (chash)
GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# near-dup-cluster-safe train/heldout split
# ---------------------------------------------------------------------------

def cluster_safe_split(docs_ds, train_mod: int = 8, mod: int = 10):
    """Leakage-safe split assignment: every MinHash near-dup CLUSTER
    (transitive closure, ``minhash_dup_clusters``) is assigned to one
    split by hashing its cluster label — near-duplicate docs can never
    straddle train/heldout, the leakage a plain per-doc hash split
    permits (``split_leakage`` measures exactly that failure mode).
    Singleton docs are their own cluster.  Output: ``(split, n_docs,
    n_clusters)``.

    Scale shape: the cluster table joins back to the id column through
    ONE bucketed left-outer join (int keys); the per-label rollup and
    the split rollup are two further int-keyed groupbys; nothing
    driver-side grows with the corpus.
    """
    from ray.data.aggregate import Count, Sum

    from .join import bucketed_hash_join

    def rename_key(t: pa.Table) -> pa.Table:
        return t.rename_columns(["c_doc_id", "cluster_id"])

    # bucketed_hash_join keeps both sides' columns, so a same-named
    # join key would collide in the unioned schema — rename first
    clusters = minhash_dup_clusters(docs_ds) \
        .map_batches(rename_key, batch_format="pyarrow")
    ids = docs_ds.select_columns(["doc_id"])
    joined = bucketed_hash_join(ids, clusters, "doc_id", "c_doc_id",
                                how="left outer")

    def label(t: pa.Table) -> pa.Table:
        lbl = pc.coalesce(t["cluster_id"], t["doc_id"])
        return pa.table({"label": pc.cast(lbl, pa.int64())})

    per_label = joined.map_batches(label, batch_format="pyarrow") \
        .groupby("label").aggregate(Count(alias_name="n_docs"))

    def to_split(t: pa.Table) -> pa.Table:
        splits = ["train" if _md5_60(str(v).encode()) % mod < train_mod
                  else "heldout"
                  for v in t["label"].to_pylist()]
        return pa.table({"split": pa.array(splits, pa.string()),
                         "n_docs": pc.cast(t["n_docs"], pa.int64())})

    return per_label.map_batches(to_split, batch_format="pyarrow") \
        .groupby("split").aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Count(alias_name="n_clusters")) \
        .sort("split")


def cluster_safe_split_sql(train_mod: int = 8, mod: int = 10,
                           threshold: float = 0.7, num_perm: int = 64,
                           bands: int = 16, shingle_n: int = 3,
                           seed: int = 13, cap: int = 200) -> str:
    """Oracle: the minhash-cluster recursive closure, singleton
    fallback to own doc_id, same md5 split arithmetic."""
    body = _minhash_pairs_cte_sql(threshold, num_perm, bands, shingle_n,
                                  seed, cap)
    return f"""
WITH RECURSIVE {body},
css_de AS (
  SELECT doc_a AS a, doc_b AS b FROM mh_pairs
  UNION ALL SELECT doc_b, doc_a FROM mh_pairs),
css_reach(n, l) AS (
  SELECT DISTINCT a, a FROM css_de
  UNION
  SELECT e.b, r.l FROM css_reach r JOIN css_de e ON e.a = r.n),
css_cl AS (SELECT n AS doc_id, min(l) AS cluster_id
           FROM css_reach GROUP BY n),
css_all AS (
  SELECT d.doc_id, coalesce(c.cluster_id, d.doc_id) AS label
  FROM documents d LEFT JOIN css_cl c USING (doc_id)),
css_lab AS (SELECT label, count(*)::BIGINT AS n_docs
            FROM css_all GROUP BY 1)
SELECT CASE WHEN ('0x' || substr(md5(label::VARCHAR), 1, 15))::BIGINT
                 % {mod} < {train_mod}
            THEN 'train' ELSE 'heldout' END AS split,
       sum(n_docs)::BIGINT AS n_docs,
       count(*)::BIGINT AS n_clusters
FROM css_lab GROUP BY 1 ORDER BY split
"""


# --- shingle novelty: per-doc copied-fraction vs earlier corpus ---

def _first_doc(g: pa.Table, starts: np.ndarray):
    """``(doc_id, first)`` of a block of ``_shingle_doc_rows`` sorted by
    ``h``: ``first`` is the smallest doc_id of each row's shingle — its
    global first occurrence, since every row of a shingle shares a
    segment."""
    doc = g["doc_id"].to_numpy()
    sizes = np.diff(np.append(starts, g.num_rows))
    return doc, np.repeat(np.minimum.reduceat(doc, starts), sizes)


def _shingle_doc_rows(k: int):
    """Batch fn: one ``(h, doc_id)`` row per distinct ``k``-token
    shingle of each doc (md5-60, memoized per worker); docs with < k
    tokens emit none."""

    def explode(t: pa.Table) -> pa.Table:
        out_h, out_d = [], []
        for d, txt in zip(t["doc_id"].to_pylist(),
                          t["text"].to_pylist()):
            toks = [w for w in txt.split(" ") if w]
            if len(toks) < k:
                continue
            hs = {_md5_60_memo(" ".join(toks[i:i + k]))
                  for i in range(len(toks) - k + 1)}
            out_h.extend(hs)
            out_d.extend([d] * len(hs))
        return pa.table({
            "h": pa.array(np.array(out_h, np.uint64).astype(np.int64)),
            "doc_id": pa.array(out_d, pa.int64())})

    return explode


def shingle_novelty(docs_ds, k: int = 8):
    """Per-doc novelty audit — what fraction of a doc's distinct
    ``k``-token shingles already occur in an EARLIER doc (lower
    ``doc_id``): ``(doc_id, n_grams, n_copied, copied_ppm)``.  This is
    the exact per-doc "how much of this is copied from the corpus so
    far" measure (the memorization-risk signal) that sampling detectors
    (MinHash, winnowing) only approximate.

    Scale shape: one streamed tokenize pass emits distinct
    ``(h, doc_id)`` 16-byte rows (per-worker memoized gram hashes —
    hashing scales with distinct grams); ONE segment exchange on ``h``
    (``groups.segment_map``) puts every occurrence of a shingle in one
    segment, so the segment's ``min(doc_id)`` IS the global first
    occurrence — no min-table join back.  Each block pre-aggregates to
    per-doc ``(n_grams, n_copied)`` partials and a final int-keyed
    ``groupby(doc_id)`` sums them.  Docs with < k tokens have no
    shingles and are absent, matching the twin's ``len(s) >= k`` guard.
    """
    from ray.data.aggregate import Sum

    from .groups import segment_map

    def per_block(g: pa.Table, starts: np.ndarray) -> pa.Table:
        doc, first = _first_doc(g, starts)
        return _doc_count_sum(doc, doc > first, "n_grams", "n_copied")

    agg = segment_map(docs_ds.select_columns(["doc_id", "text"])
                      .map_batches(_shingle_doc_rows(k),
                                   batch_format="pyarrow",
                                   zero_copy_batch=True),
                      "h", per_block) \
        .groupby("doc_id").aggregate(
            Sum("n_grams", alias_name="n_grams"),
            Sum("n_copied", alias_name="n_copied"))

    def finish(t: pa.Table) -> pa.Table:
        ng = t["n_grams"].to_numpy(zero_copy_only=False)
        nc = t["n_copied"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_grams": pa.array(ng, pa.int64()),
            "n_copied": pa.array(nc, pa.int64()),
            "copied_ppm": pa.array(1_000_000 * nc // ng, pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def shingle_novelty_sql(k: int = 8, table: str = "documents") -> str:
    """DuckDB twin: distinct k-token shingles per doc (same single-space
    split + empty filter), global first-occurrence via min(doc_id), one
    join back.  Gram STRINGS stand in for the Ray side's md5-60 values
    (the established collision-free-hash idiom)."""
    return f"""
WITH sn_t AS (
  SELECT doc_id, list_filter(string_split(text, ' '), w -> w != '') AS s
  FROM {table}),
sn_g AS (
  SELECT doc_id,
         list_distinct(list_transform(range(1, len(s) - {k} + 2),
           i -> array_to_string(s[i : i + {k} - 1], ' '))) AS gs
  FROM sn_t WHERE len(s) >= {k}),
sn_e AS (SELECT doc_id, unnest(gs) AS gr FROM sn_g),
sn_m AS (SELECT gr, min(doc_id) AS md FROM sn_e GROUP BY gr)
SELECT e.doc_id,
       count(*)::BIGINT AS n_grams,
       sum((m.md < e.doc_id)::BIGINT)::BIGINT AS n_copied,
       ((1000000 * sum((m.md < e.doc_id)::BIGINT)) // count(*))::BIGINT
         AS copied_ppm
FROM sn_e e JOIN sn_m m ON m.gr = e.gr
GROUP BY e.doc_id ORDER BY e.doc_id
"""


# ---------------------------------------------------------------------------
# cross-source content overlap matrix (shingle granularity)
# ---------------------------------------------------------------------------

def source_overlap_matrix(docs_ds, k: int = 3):
    """Pairwise cross-source content overlap at ``k``-token shingle
    granularity: for every unordered pair of sources, how many distinct
    shingles appear in BOTH, plus the exact Jaccard overlap in ppm —
    the "how much does crawl A duplicate crawl B" audit run before
    mixing corpora (whole-text overlap is a special case but is
    trivially zero on distinct-text corpora; shingles measure partial
    copying too).

    Scale shape: source cardinality is catalog-small (asserted ≤ 62),
    so presence is a per-shingle BITMASK.  ONE segment exchange plus a
    tiny mask rollup, no per-shingle-group Python and no pair blow-up:

      1. batch-local distinct (md5-60 shingle hash, source_bit) rows
         exchanged on the hash (``groups.segment_map`` — every
         occurrence of a shingle lands in one segment);
      2. each block ORs the bits of each segment — the presence mask —
         then pre-counts its masks, emitting ≤ 2^n_sources rows;
      3. a final ``groupby(mask).sum`` leaves ≤ 2^n_sources rows — the
         only thing the driver ever sees; pair expansion happens there
         in exact integers.

    Text never crosses an exchange (8-byte shingle hashes do).
    """
    from ray.data.aggregate import Sum

    from .groups import segment_map

    srcs = sorted(docs_ds.select_columns(["source"]).unique("source")
                  or [])
    assert len(srcs) <= 62, "bitmask overlap assumes catalog-small sources"
    bit = {s: 1 << i for i, s in enumerate(srcs)}

    def explode(t: pa.Table) -> pa.Table:
        out_h, out_b = [], []
        for s, txt in zip(t["source"].to_pylist(),
                          t["text"].to_pylist()):
            toks = [w for w in txt.split(" ") if w]
            if len(toks) < k:
                continue
            hs = {_md5_60_memo(" ".join(toks[i:i + k]))
                  for i in range(len(toks) - k + 1)}
            out_h.extend(hs)
            out_b.extend([bit[s]] * len(hs))
        b = pa.table({
            "h": pa.array(np.array(out_h, np.uint64).astype(np.int64)),
            "bitv": pa.array(out_b, pa.int64()),
        })
        return b.group_by(["h", "bitv"], use_threads=False) \
            .aggregate([]).select(["h", "bitv"])

    def per_block(g: pa.Table, starts: np.ndarray) -> pa.Table:
        m, n = np.unique(np.bitwise_or.reduceat(g["bitv"].to_numpy(),
                                                starts),
                         return_counts=True)
        return pa.table({"mask": pa.array(m, pa.int64()),
                         "n": pa.array(n, pa.int64())})

    masks = segment_map(docs_ds.select_columns(["text", "source"])
                        .map_batches(explode, batch_format="pyarrow",
                                     zero_copy_batch=True),
                        "h", per_block) \
        .groupby("mask").aggregate(Sum("n", alias_name="n")) \
        .take_all()

    counts = [(int(r["mask"]), int(r["n"])) for r in masks]
    tot = {i: sum(n for m, n in counts if (m >> i) & 1)
           for i in range(len(srcs))}
    out = {"src_a": [], "src_b": [], "n_shared": [], "overlap_ppm": []}
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            shared = sum(n for m, n in counts
                         if (m >> i) & 1 and (m >> j) & 1)
            if shared == 0:
                continue
            out["src_a"].append(srcs[i])
            out["src_b"].append(srcs[j])
            out["n_shared"].append(shared)
            out["overlap_ppm"].append(
                (1_000_000 * shared) // (tot[i] + tot[j] - shared))
    return pa.table({
        "src_a": pa.array(out["src_a"], pa.string()),
        "src_b": pa.array(out["src_b"], pa.string()),
        "n_shared": pa.array(out["n_shared"], pa.int64()),
        "overlap_ppm": pa.array(out["overlap_ppm"], pa.int64()),
    })


def source_overlap_matrix_sql(k: int = 3) -> str:
    """DuckDB twin: distinct k-token shingles per source (same
    single-space split + empty filter as shingle_novelty_sql); gram
    STRINGS stand in for the Ray side's md5-60 values."""
    return f"""
WITH som_t AS (
  SELECT source, list_filter(string_split(text, ' '), w -> w != '') AS s
  FROM documents),
som_g AS (
  SELECT source, unnest(list_distinct(list_transform(
           range(1, len(s) - {k} + 2),
           i -> array_to_string(s[i : i + {k} - 1], ' ')))) AS gr
  FROM som_t WHERE len(s) >= {k}),
som_h AS (SELECT DISTINCT gr, source FROM som_g),
som_tot AS (SELECT source, count(*) AS n FROM som_h GROUP BY source),
som_p AS (
  SELECT a.source AS src_a, b.source AS src_b, count(*) AS n_shared
  FROM som_h a JOIN som_h b
    ON a.gr = b.gr AND a.source < b.source
  GROUP BY a.source, b.source)
SELECT p.src_a, p.src_b, p.n_shared,
       ((1000000 * p.n_shared)
        // (ta.n + tb.n - p.n_shared))::BIGINT AS overlap_ppm
FROM som_p p
JOIN som_tot ta ON ta.source = p.src_a
JOIN som_tot tb ON tb.source = p.src_b
ORDER BY p.src_a, p.src_b
"""


# ---------------------------------------------------------------------------
# CDC upsert/delete merge (MERGE INTO semantics)
# ---------------------------------------------------------------------------

def cdc_upsert_merge(events_ds):
    """MERGE INTO semantics over the events snapshot: a deterministic
    CDC change stream (keyed on the FULL key range, so it carries
    updates, deletes AND inserts of absent keys — ids with
    ``md5-60('u'||id) % 10 == 0`` upsert a synthesized row, ``== 1``
    delete) is merged key-by-key with change-beats-base semantics, and
    the merged table rolls up to (event_type, n_rows, sum_cents).

    Scale shape: the merge is ONE native ``groupby(event_id).max`` over
    a COMPOSITE int64 — ``src<<62 | del<<61 | type_code<<48 | cents +
    2^47`` (the grouped_mode argmax idiom; offset binary keeps negative
    cents in the low 48 bits and in order): change rows carry src=1 so
    MAX picks them over base rows, the winner decodes vectorized,
    deletes drop, and one ``groups.fold`` by type code rolls up on the
    driver.  The type codes and the id range come from one more fold.
    No per-key Python, 16-byte exchange rows; |cents| < 2^47 asserted
    (composite safety).
    """
    import ray.data as rd
    from ray.data.aggregate import Max

    from .groups import fold

    off = 1 << 47                   # offset-binary cents
    per_type = fold(events_ds.select_columns(["event_type", "event_id"]),
                    "event_type", {"mx": ("max", "event_id")})
    types = per_type["event_type"].to_pylist()
    if "click" not in types:
        types = sorted(types + ["click"])
    code = {t: i for i, t in enumerate(types)}
    assert len(types) < (1 << 13)
    ins_code = code["click"]
    mx = pc.max(per_type["mx"]).as_py()
    if mx is None:                  # empty base: empty merged table
        return pa.table({"event_type": pa.array([], pa.string()),
                         "n_rows": pa.array([], pa.int64()),
                         "sum_cents": pa.array([], pa.int64())})

    def base_rows(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False) * 100.0
        cents = np.copysign(np.floor(np.abs(v) + 0.5), v) \
            .astype(np.int64)
        assert (np.abs(cents) < off).all()
        codes = np.array([code[s] for s in
                          t["event_type"].to_pylist()], np.int64)
        k = (codes << 48) | (cents + off)
        return pa.table({"event_id": t["event_id"],
                         "k": pa.array(k, pa.int64())})

    def change_rows(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy(zero_copy_only=False)
        h = np.array([_md5_60(f"u{int(i)}".encode()) for i in ids],
                     np.int64)
        r = h % 10
        sel = r <= 1
        ids, h, r = ids[sel], h[sel], r[sel]
        is_del = (r == 1).astype(np.int64)
        cents = np.where(is_del == 1, 0, h % 10000)
        k = (1 << 62) | (is_del << 61) | (ins_code << 48) \
            | (cents + off)
        return pa.table({"event_id": pa.array(ids, pa.int64()),
                         "k": pa.array(k, pa.int64())})

    base = events_ds.select_columns(
        ["event_id", "event_type", "value"]) \
        .map_batches(base_rows, batch_format="pyarrow",
                     zero_copy_batch=True)
    changes = rd.range(mx + 1).map_batches(
        change_rows, batch_format="pyarrow")

    def decode(t: pa.Table) -> pa.Table:
        k = t["max(k)"].to_numpy(zero_copy_only=False)
        k = k[((k >> 61) & 1) == 0]
        return pa.table({"c": (k >> 48) & 0x1FFF,
                         "cents": (k & ((1 << 48) - 1)) - off})

    rows = fold(base.union(changes).groupby("event_id")
                .aggregate(Max("k"))
                .map_batches(decode, batch_format="pyarrow"),
                "c", {"n": ("count", None), "s": ("sum", "cents")})
    return pa.table({
        "event_type": pa.array([types[c] for c in
                                rows["c"].to_pylist()], pa.string()),
        "n_rows": rows["n"], "sum_cents": rows["s"]})


def cdc_upsert_merge_sql() -> str:
    return """
WITH um_base AS (
  SELECT event_id, event_type,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events),
um_ch AS (
  SELECT i AS event_id,
         CASE WHEN h % 10 = 0 THEN 'U' ELSE 'D' END AS op,
         'click' AS event_type, h % 10000 AS cents
  FROM (
    SELECT i, ('0x' || substr(md5('u' || i::VARCHAR), 1, 15))::BIGINT
             AS h
    FROM (SELECT unnest(range(0,
            (SELECT max(event_id) + 1 FROM events))) AS i))
  WHERE h % 10 <= 1),
um_m AS (
  SELECT CASE WHEN c.op = 'D' THEN NULL
              WHEN c.op = 'U' THEN c.event_type
              ELSE b.event_type END AS event_type,
         CASE WHEN c.op = 'U' THEN c.cents ELSE b.cents END AS cents
  FROM um_base b FULL OUTER JOIN um_ch c USING (event_id))
SELECT event_type, count(*) AS n_rows, sum(cents)::BIGINT AS sum_cents
FROM um_m WHERE event_type IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# dedup sensitivity sweep (normalization-level ladder)
# ---------------------------------------------------------------------------

_SWEEP_LEVELS = ["raw", "casefold", "normalized", "prefix100"]


def dedup_sensitivity_sweep(docs_ds):
    """How much duplication each normalization level exposes — the
    ladder a dedup-policy decision walks: exact on raw text, casefold,
    full normalize (the ``normalized_text_hash`` canon: casefold +
    non-alnum→space + collapse), and first-100-token prefix
    (truncation dups).  Output per level: (level, n_docs, n_distinct,
    n_dup_docs).

    Scale shape: ONE pass computes all four 128-bit hashes per doc
    (4 rows/doc of level+hex), one ``groupby(level, h).count()``
    exchange, then one ``groups.fold`` by level (groups and docs) into
    the 4-row rollup on the driver.  Text never crosses an exchange.
    """
    import pyarrow.compute as pc

    from .groups import fold

    def hashes(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        lower = pc.utf8_lower(t["text"])
        norm = pc.utf8_trim_whitespace(pc.replace_substring_regex(
            lower, r"[^a-z0-9]+", " ")).to_pylist()
        lower = lower.to_pylist()
        prefix = [" ".join([w for w in x.split(" ") if w][:100])
                  for x in texts]
        out_l, out_h = [], []
        for level, vals in zip(_SWEEP_LEVELS,
                               (texts, lower, norm, prefix)):
            out_l.extend([level] * len(vals))
            out_h.extend(hashlib.blake2b(v.encode(),
                                         digest_size=16).hexdigest()
                         for v in vals)
        return pa.table({"level": pa.array(out_l, pa.string()),
                         "h": pa.array(out_h, pa.string())})

    per_level = fold(docs_ds.select_columns(["text"])
                     .map_batches(hashes, batch_format="pyarrow",
                                  zero_copy_batch=True)
                     .groupby(["level", "h"]).count(),
                     "level", {"nd": ("count", None),
                               "n": ("sum", "count()")})
    # an empty corpus gives zero rows per level
    by = {r["level"]: r for r in per_level.to_pylist()}
    n = np.array([by[s]["n"] if by else 0 for s in _SWEEP_LEVELS],
                 np.int64)
    nd = np.array([by[s]["nd"] if by else 0 for s in _SWEEP_LEVELS],
                  np.int64)
    return pa.table({"level": pa.array(_SWEEP_LEVELS, pa.string()),
                     "n_docs": n, "n_distinct": nd, "n_dup_docs": n - nd})


def dedup_sensitivity_sweep_sql() -> str:
    """Twin: normalized STRINGS stand in for the Ray side's blake2b
    hashes (the established collision-free-hash idiom); every level
    has a row, with zero counts on an empty corpus."""
    return r"""
WITH dss_v AS (
  SELECT 'raw' AS level, text AS v FROM documents
  UNION ALL
  SELECT 'casefold', lower(text) FROM documents
  UNION ALL
  SELECT 'normalized',
         trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))
  FROM documents
  UNION ALL
  SELECT 'prefix100',
         array_to_string(
           list_filter(string_split(text, ' '), w -> w != '')[1:100],
           ' ')
  FROM documents)
SELECT l.level, count(d.level) AS n_docs,
       count(DISTINCT d.v) AS n_distinct,
       (count(d.level) - count(DISTINCT d.v))::BIGINT AS n_dup_docs
FROM (VALUES ('raw'), ('casefold'), ('normalized'), ('prefix100'))
  AS l(level)
LEFT JOIN dss_v d ON d.level = l.level
GROUP BY l.level ORDER BY l.level
"""


# ---------------------------------------------------------------------------
# document copy genealogy
# ---------------------------------------------------------------------------

def copy_genealogy(docs_ds, k: int = 8, min_shared: int = 5):
    """Document copy-genealogy edges: for every doc that shares ≥
    ``min_shared`` distinct ``k``-token shingles with EARLIER docs, the
    single most likely source — the earlier doc that FIRST introduced
    the largest number of its shingles (ties → smallest source id).
    Output: (doc_id, source_doc, n_shared) — the provenance edge list
    behind the shingle_novelty copied-fraction scores.

    Scale shape: the shingle_novelty segment exchange on the shingle
    hash (every occurrence of a shingle lands in one segment, so the
    segment's min doc IS the global first introduction); blocks
    pre-count (source_doc=min, later_doc) pairs, one int-keyed groupby
    sums them, and the per-doc argmax rides ``stats.grouped_topk``'s
    partial top-1 prune — no per-doc Python beyond tiny survivor sets.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    from .groups import segment_map
    from .stats import grouped_topk

    def per_block(g: pa.Table, starts: np.ndarray) -> pa.Table:
        doc, first = _first_doc(g, starts)
        later = doc > first
        r = pa.table({"doc_id": pa.array(doc[later], pa.int64()),
                      "source_doc": pa.array(first[later], pa.int64())}) \
            .group_by(["doc_id", "source_doc"], use_threads=False) \
            .aggregate([([], "count_all")])
        return pa.table({"doc_id": r["doc_id"],
                         "source_doc": r["source_doc"],
                         "n": r["count_all"]})

    pair_counts = segment_map(docs_ds.select_columns(["doc_id", "text"])
                              .map_batches(_shingle_doc_rows(k),
                                           batch_format="pyarrow",
                                           zero_copy_batch=True),
                              "h", per_block) \
        .groupby(["doc_id", "source_doc"]) \
        .aggregate(Sum("n", alias_name="n_shared")) \
        .filter(expr=f"n_shared >= {min_shared}")

    top = grouped_topk(pair_counts, key="doc_id", val="n_shared",
                       k=1, tie_col="source_doc")

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "source_doc", "n_shared"]]

    return top.map_batches(fin, batch_format="pandas")


def copy_genealogy_sql(k: int = 8, min_shared: int = 5,
                       table: str = "documents") -> str:
    return f"""
WITH cg_t AS (
  SELECT doc_id, list_filter(string_split(text, ' '), w -> w != '') AS s
  FROM {table}),
cg_g AS (
  SELECT doc_id,
         list_distinct(list_transform(range(1, len(s) - {k} + 2),
           i -> array_to_string(s[i : i + {k} - 1], ' '))) AS gs
  FROM cg_t WHERE len(s) >= {k}),
cg_e AS (SELECT doc_id, unnest(gs) AS gr FROM cg_g),
cg_m AS (SELECT gr, min(doc_id) AS src FROM cg_e GROUP BY gr),
cg_p AS (
  SELECT e.doc_id, m.src AS source_doc, count(*) AS n_shared
  FROM cg_e e JOIN cg_m m ON m.gr = e.gr
  WHERE e.doc_id > m.src
  GROUP BY e.doc_id, m.src
  HAVING count(*) >= {min_shared}),
cg_r AS (
  SELECT doc_id, source_doc, n_shared, row_number() OVER (
    PARTITION BY doc_id
    ORDER BY n_shared DESC, source_doc ASC) AS rn
  FROM cg_p)
SELECT doc_id, source_doc, n_shared FROM cg_r WHERE rn = 1
ORDER BY doc_id
"""
