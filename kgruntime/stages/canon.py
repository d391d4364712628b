"""N4: IRI / blank-node canonicalization via distributed union-find
(SURVEY.md §2f N4, north_rule "canonicalizes equivalent IRIs/blank nodes
via a distributed union-find over groupby-aggregate shuffles").

One entry per step:

* :func:`union_find` — sameAs edges → (assignment, mapping_or_None).
  While |edges| ≤ DRIVER_CC_MAX_EDGES it streams the edge list to the
  driver, dictionary-encodes endpoints and runs vectorized numpy
  min-label propagation with pointer jumping; the non-identity mapping
  comes back as a ``(nodes, labels)`` Arrow pair.  Beyond that it runs
  iterative min-label propagation

      label(x) ← min(label(x), min_{(x,y)∈E} label(y))

  where each round is one ``groups.cogroup`` of labels and edges (the
  two-sided exchange; contract in ``ops/groups.py``) with a vectorized
  per-block lookup, plus one ``groupby(node).min(label)`` — until the
  hash-sum of the (node, label) assignment repeats (labels only
  decrease, so it does; a component of diameter d takes about d
  rounds).  The mapping is then None: the assignment is beyond
  broadcast scale.  Both paths give the identical assignment (tested),
  with canonical label = rank-minimum member (IRIs preferred over
  blank nodes).
* :func:`canonicalize_triples` — rewrite subj/obj to component labels.
  With a mapping: ``ray.put`` once, a polars join per batch, no shuffle
  of the triples.  Without: one ``cogroup`` of skinny node references
  against the assignment, whose hit table is applied map-side when
  small (the common case) or by one ``cogroup`` with the triples on
  doc_id.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Min, Sum

from ..ops.groups import cogroup, collect

# Above this many edges the equivalence graph stops being broadcast-scale
# and the union-find runs as distributed groupby rounds.
DRIVER_CC_MAX_EDGES = 20_000_000

# Hit tables (one row per actually-remapped subj/obj position) up to this
# many rows are ray.put once and applied map-side — the common case when a
# huge assignment is sparsely applicable to this triples table.
HITS_BROADCAST_MAX = 2_000_000


def _rank(col: pa.Array) -> pa.Array:
    """Prefix nodes with a rank byte so the component-min label prefers
    IRIs ('0' + iri) over blank nodes ('1' + label): canonical ids must
    be *stable* — a KB IRI, not whichever per-doc blank happens to sort
    first ('_:' < 'http' lexicographically)."""
    is_blank = pc.starts_with(col, "_:")
    return pc.binary_join_element_wise(
        pc.if_else(is_blank, "1", "0"), col, "")


def _unrank_table(batch: pa.Table) -> pa.Table:
    return pa.Table.from_arrays(
        [pc.utf8_slice_codeunits(batch["node"], 1),
         pc.utf8_slice_codeunits(batch["label"], 1)],
        names=["node", "label"])


def _bidir(batch: pa.Table) -> pa.Table:
    """Edges (src,dst) → both directions (edge_node, nbr), rank-prefixed."""
    src = _rank(batch["src"].combine_chunks())
    dst = _rank(batch["dst"].combine_chunks())
    return pa.Table.from_arrays(
        [pa.concat_arrays([src, dst]), pa.concat_arrays([dst, src])],
        names=["edge_node", "nbr"])


def _hash_col(col, mod: int | None = None) -> pa.Array:
    """Vectorized deterministic-within-job string hash (polars/ahash).
    Used for shuffle buckets and convergence checksums — never
    persisted, so cross-version stability isn't required."""
    import polars as pl

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    h = pl.from_arrow(col).hash(seed=7).to_arrow()
    # mask to 32 bits: checksum SUMS of ~10^6 values must stay exactly
    # representable (wider hashes overflow into float and the sum
    # becomes order-dependent → convergence never detects)
    h = pc.cast(pc.bit_wise_and(h, pa.scalar((1 << 32) - 1, pa.uint64())),
                pa.int64())
    if mod is None:
        return h
    return pa.array((h.to_numpy(zero_copy_only=False) % mod)
                    .astype("int32"), pa.int32())


def _crc_sum(batch: pa.Table) -> pa.Table:
    joined = pc.binary_join_element_wise(batch["node"], batch["label"], "\x00")
    return pa.Table.from_arrays([_hash_col(joined)], names=["crc"])


def _propagate(lab: pa.Table, edg: pa.Table) -> pa.Table:
    """One coarse block of a round: edge endpoints receive the label of
    their ``nbr``; label rows pass through."""
    keys = lab["node"].combine_chunks()
    vals = lab["label"].combine_chunks()
    got = pc.take(vals, pc.index_in(edg["nbr"].combine_chunks(),
                                   value_set=keys))
    valid = pc.is_valid(got)
    return pa.Table.from_arrays(
        [pa.concat_arrays([keys,
                           edg["edge_node"].combine_chunks().filter(valid)]),
         pa.concat_arrays([vals, got.filter(valid)])],
        names=["node", "label"])


def union_find(edges_ds):
    """sameAs edges (src, dst, ...) → ``(assignment, mapping_or_None)``.

    ``assignment`` is a Dataset (node, label) whose ``label`` is the
    rank-minimum node id of the component (IRIs preferred over blanks) —
    deterministic, so retries/reruns produce identical canonical ids.

    While |edges| ≤ DRIVER_CC_MAX_EDGES (the broadcast-size contract of
    the remap) the driver union-find runs and ``mapping`` is its
    non-identity part as a ``(nodes, labels)`` Arrow pair, ready for the
    broadcast remap.  Beyond that the distributed min-label rounds run
    and ``mapping`` is None: the assignment is never collected.
    """
    edges_ds = edges_ds.materialize()
    if edges_ds.count() <= DRIVER_CC_MAX_EDGES:
        return _driver_union_find(edges_ds)
    # The iterative rounds are many small sort-shuffles; push-based
    # shuffle adds per-round pipelining overhead that dominates there
    # (measured 49 s vs 26 s on 530k synthetic star edges).  A Dataset
    # snapshots its DataContext at creation, so flipping the global
    # current context is a no-op here — mutate the context captured by
    # the input dataset (inherited by everything derived from it) and
    # restore it after the (eager, materialized-per-round) loop.
    from ray.data.context import ShuffleStrategy

    ctx = edges_ds.context
    saved = ctx.shuffle_strategy
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    try:
        return _cc_rounds(edges_ds), None
    finally:
        ctx.shuffle_strategy = saved


def _driver_union_find(edges_ds):
    """Vectorized union-find over the collected edge list.  Streams
    (src, dst) batches to the driver — NOT the triples.  Canonical label
    = rank-minimum member (IRIs beat blanks), identical to the
    distributed rounds' fixpoint.  Returns (assignment Dataset,
    non-identity (nodes, labels) Arrow pair)."""
    import numpy as np
    import ray.data as rd

    src, dst = [], []
    for batch in edges_ds.select_columns(["src", "dst"]) \
            .iter_batches(batch_format="pyarrow"):
        src += batch["src"].chunks
        dst += batch["dst"].chunks
    nodes = labels = pa.array([], pa.string())
    if src:
        # dictionary-encode edge endpoints to int codes (C speed)
        enc = pa.chunked_array(src + dst).combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_edges = len(codes) // 2
        ia, ib = codes[:n_edges], codes[n_edges:]
        n = len(enc.dictionary)

        # priority ordinal per node: rank-prefixed string order
        order = pc.array_sort_indices(_rank(enc.dictionary)) \
            .to_numpy(zero_copy_only=False)
        prio = np.empty(n, np.int64)
        prio[order] = np.arange(n)

        # vectorized min-label propagation + pointer jumping (numpy CC)
        inv = np.empty(n, np.int64)
        inv[prio] = np.arange(n)              # ordinal -> node index
        lab = prio.copy()
        while True:
            before = lab.copy()
            m = np.minimum(lab[ia], lab[ib])  # relax every edge
            np.minimum.at(lab, ia, m)
            np.minimum.at(lab, ib, m)
            for _ in range(64):               # pointer jumping to fixpoint
                nxt = lab[inv[lab]]
                if np.array_equal(nxt, lab):
                    break
                lab = nxt
            if np.array_equal(lab, before):
                break
        nodes = enc.dictionary.cast(pa.string())
        labels = pc.take(nodes, pa.array(inv[lab], pa.int64()))
    changed = pc.not_equal(nodes, labels)
    return (rd.from_arrow(pa.Table.from_arrays([nodes, labels],
                                               names=["node", "label"])),
            (nodes.filter(changed), labels.filter(changed)))


def _cc_rounds(edges_ds):
    # Pin the (small) edge set: it is re-joined every round, and leaving
    # it lazy would re-execute the whole upstream (mention detection +
    # scorer stage) once per round.  |edges| ≪ |triples| by construction.
    # (never empty: union_find routes only > DRIVER_CC_MAX_EDGES here)
    bidir = edges_ds.map_batches(_bidir, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    # initial labels: min(self, neighbors)
    labels = bidir.groupby("edge_node").aggregate(Min("nbr", alias_name="label"))
    labels = labels.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["edge_node"],
             pc.if_else(pc.less(t["edge_node"], t["label"]),
                        t["edge_node"], t["label"])],
            names=["node", "label"]),
        batch_format="pyarrow")
    labels = labels.materialize()
    n_blocks = labels.num_blocks()

    def _checksum(ds):
        return ds.map_batches(_crc_sum, batch_format="pyarrow") \
            .aggregate(Sum("crc", alias_name="s"))["s"]

    # seed the early-stop with the INITIAL assignment's checksum: a star
    # graph (the common mention→KB-entity shape) is already converged
    # after init, so the loop exits after one confirming round.
    prev_crc = _checksum(labels)
    # Each round moves a label one hop, so a long chain needs as many
    # rounds as its diameter; labels only decrease, so the assignment
    # (and its checksum) reaches a fixpoint and the loop ends there.
    while True:
        # propagate: every edge endpoint receives its neighbor's label
        msgs = cogroup(labels, bidir, "node", "nbr", _propagate)
        # a sort shuffle yields one block per input block, and the union
        # adds the edge blocks every round: coalesce back to the initial
        # block count so a round costs the same in round 2 and round 20
        labels = msgs \
            .groupby("node").aggregate(Min("label", alias_name="label")) \
            .repartition(n_blocks).materialize()
        crc = _checksum(labels)
        if crc == prev_crc:
            break
        prev_crc = crc
    return labels.map_batches(_unrank_table, batch_format="pyarrow")


def _set_nodes(batch: pa.Table, name: str, new) -> pa.Table:
    """Write remapped values ``new`` into node column ``name`` (subj or
    obj).  Literals (kind 2) are NEVER remapped — a literal whose lexical
    value equals a mapped node id keeps its value — and the kind is
    recomputed: a blank rewritten to a KB IRI changes kind 1 → 0."""
    kind_name = f"{name}_kind"
    if kind_name in batch.schema.names:
        kinds = batch[kind_name]
        new = pc.if_else(pc.equal(kinds, 2), batch[name].combine_chunks(),
                         new)
        new_kinds = pc.if_else(
            pc.equal(kinds, 2), kinds,
            pc.cast(pc.if_else(pc.starts_with(new, "_:"), 1, 0), pa.uint8()))
        batch = batch.set_column(batch.schema.get_field_index(kind_name),
                                 kind_name, pc.cast(new_kinds, pa.uint8()))
    return batch.set_column(batch.schema.get_field_index(name), name, new)


class _Remap:
    """Vectorized canonical-id rewrite against a ``(nodes, labels)``
    Arrow pair, built once per worker process."""

    def __init__(self, mapping):
        import polars as pl

        keys, vals = mapping
        # zero-copy Arrow → polars; Rust-side hash join per batch.
        # A Python dict of the same mapping costs seconds to build
        # PER WORKER at multi-million entries (blank-node mappings
        # grow with the corpus) — this was the superlinear term in
        # the remap stage at 4M-doc scale.
        self.map_df = pl.DataFrame({"k": pl.from_arrow(keys),
                                    "v": pl.from_arrow(vals)})

    def _remap_col(self, col):
        import polars as pl

        df = pl.DataFrame({"k": pl.from_arrow(col.combine_chunks())}) \
            .with_row_index("i")
        j = df.join(self.map_df, on="k", how="left").sort("i")
        out = j.select(pl.coalesce(pl.col("v"), pl.col("k"))
                       .alias("o"))["o"].to_arrow()
        return out.cast(pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        for name in ("subj", "obj"):
            batch = _set_nodes(batch, name, self._remap_col(batch[name]))
        return batch


def canonicalize_triples(triples_ds, mapping=None, labels_ds=None):
    """Rewrite subj/obj to canonical component labels.

    ``mapping`` — the non-identity ``(nodes, labels)`` Arrow pair that
    :func:`union_find` returns on its driver path — is ``ray.put`` once
    and applied per batch by a polars join (no shuffle of the triples).
    Without one (the distributed regime, where the assignment is beyond
    broadcast scale) the triples are joined against the assignment
    ``labels_ds`` by :func:`_join_remap`.
    """
    if mapping is None:
        return _join_remap(triples_ds, labels_ds)
    if len(mapping[0]) == 0:
        return triples_ds

    import ray

    from .broadcast import cached_get

    ref = ray.put(mapping)

    # plain-task stage (no actor-pool spin-up): the mapping is light
    # lookup state; the built _Remap (key/value Arrow arrays) is
    # memoized once per worker process
    def remap(batch: pa.Table) -> pa.Table:
        return cached_get(ref, build=_Remap, tag="remap")(batch)

    return triples_ds.map_batches(remap, batch_format="pyarrow",
                                  zero_copy_batch=True)


def _explode_refs(batch: pa.Table) -> pa.Table:
    """Triples batch → skinny (key, doc_id, stmt_index, pos) node
    references: pos 0 = subj, pos 1 = non-literal obj.  This is the only
    stream the assignment join shuffles — never the full triple payload."""
    parts = []
    for pos, col, kind in ((0, "subj", "subj_kind"), (1, "obj", "obj_kind")):
        vals = batch[col].combine_chunks()
        doc = batch["doc_id"].combine_chunks()
        stmt = pc.cast(batch["stmt_index"], pa.int64()).combine_chunks()
        if kind in batch.schema.names:
            keep = pc.not_equal(  # literals never remap
                batch[kind].combine_chunks(), 2)
            vals, doc, stmt = (vals.filter(keep), doc.filter(keep),
                               stmt.filter(keep))
        parts.append(pa.Table.from_arrays(
            [vals, doc, stmt, pa.array([pos] * len(vals), pa.int8())],
            names=["key", "doc_id", "stmt_index", "pos"]))
    return pa.concat_tables(parts)


def _hit_lookup(ref: pa.Table, lab: pa.Table) -> pa.Table:
    """One coarse block: reference rows receive their node's canonical
    label via vectorized index_in against the assignment rows; only
    NON-IDENTITY matches survive (the hit table stays as small as the
    applied remap).  Output is deduped on the full (doc_id, stmt_index,
    pos, node) key — one statement can yield many triples sharing
    (doc_id, stmt_index) (collections, predicate lists), and the
    join-back must not multiply."""
    key = ref["key"].combine_chunks()
    got = pc.take(lab["label"].combine_chunks(),
                  pc.index_in(key, value_set=lab["node"].combine_chunks()))
    hit = pc.and_(pc.is_valid(got), pc.not_equal(got, key))
    out = ref.filter(hit).rename_columns(
        ["node", "doc_id", "stmt_index", "pos"]) \
        .append_column("label", got.filter(hit))
    names = ["doc_id", "stmt_index", "pos", "node"]
    agg = out.group_by(names, use_threads=False) \
        .aggregate([("label", "min")])
    return agg.select(names + ["label_min"]) \
        .rename_columns(names + ["label"])


def _apply_hits(batch: pa.Table, hits: pa.Table) -> pa.Table:
    """Substitute subj/obj labels from a (doc_id, stmt_index, pos, node,
    label) hit table via one acero left join per position; recompute
    kinds.  The node is part of the join key: triples sharing (doc_id,
    stmt_index) (collection cells, predicate lists) carry different
    nodes, and hits are unique per full key so the join never
    multiplies."""
    import numpy as np

    for pos, col in enumerate(("subj", "obj")):
        side = hits.filter(pc.equal(hits["pos"], pos)) \
            .select(["doc_id", "stmt_index", "node", "label"])
        if not side.num_rows:
            continue
        key = pa.Table.from_arrays(
            [batch["doc_id"].combine_chunks(),
             pc.cast(batch["stmt_index"], pa.int64()).combine_chunks(),
             batch[col].combine_chunks(),
             pa.array(np.arange(batch.num_rows), pa.int64())],
            names=["doc_id", "stmt_index", "node", "__row"])
        j = key.join(side, keys=["doc_id", "stmt_index", "node"],
                     join_type="left outer").sort_by("__row")
        lab = j["label"].combine_chunks()
        batch = _set_nodes(batch, col, pc.if_else(
            pc.is_valid(lab), lab, batch[col].combine_chunks()))
    return batch


def _join_remap(triples_ds, labels_ds):
    """ONE-exchange join remap for an assignment beyond broadcast scale.
    Ships only a skinny (node, doc_id, stmt_index, pos) reference stream
    — never the full triple payload — through one ``cogroup`` lookup
    against the assignment, then applies the resulting hit table either
    map-side (broadcast, the common sparse-application case — zero
    full-table shuffles) or via one ``cogroup`` with the triples on
    doc_id."""
    refs = triples_ds.map_batches(_explode_refs, batch_format="pyarrow")
    hits = cogroup(refs, labels_ds, "key", "node",
                   _hit_lookup).materialize()
    n_hits = hits.count()
    if n_hits == 0:
        return triples_ds
    if n_hits <= HITS_BROADCAST_MAX:
        # Collapse hits to the RESTRICTED mapping — distinct (node,
        # label) over nodes that actually occur in this triples table —
        # and apply it through the standard broadcast remap.  This is
        # the common case even when the full assignment is beyond
        # broadcast scale: only the applicable slice needs to travel.
        agg = collect(hits).group_by(["node"], use_threads=False) \
            .aggregate([("label", "min")])
        mapping = (agg["node"].combine_chunks(),
                   agg["label_min"].combine_chunks())
        return canonicalize_triples(triples_ds, mapping=mapping)
    # hits beyond broadcast: ONE full-table exchange on doc_id
    return cogroup(triples_ds, hits, "doc_id", "doc_id", _apply_hits)
