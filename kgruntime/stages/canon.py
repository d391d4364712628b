"""N4: IRI / blank-node canonicalization via distributed union-find
(SURVEY.md §2f N4, north_rule "canonicalizes equivalent IRIs/blank nodes
via a distributed union-find over groupby-aggregate shuffles").

Two interchangeable implementations behind one API:

* **driver mode** (auto-selected while |edges| ≤ DRIVER_CC_MAX_EDGES —
  the same broadcast-size contract the remap relies on): stream the
  edge list to the driver, dictionary-encode endpoints, and run
  vectorized numpy min-label propagation with pointer jumping.
* **distributed mode** (beyond-memory edge sets): iterative min-label
  propagation

      label(x) ← min(label(x), min_{(x,y)∈E} label(y))

  where each round is purely Ray Data wide ops — a bucketed hash join
  expressed as ONE ``groupby(bucket)`` shuffle (labels and edges
  co-partitioned on hash(key), vectorized per-bucket lookup) plus one
  ``groupby(node).min(label)``.  No driver-held state, no per-group
  Python row loops.  Convergence in O(component diameter) rounds;
  entity-equivalence graphs from linking are star-shaped (mention → KB
  entity) so one confirming round usually suffices.  Early stop: the
  hash-sum of (node,label) assignments is compared between rounds with
  a tiny aggregate (seeded with the initial assignment's sum).

Both modes produce the identical assignment (tested), with canonical
label = rank-minimum member (IRIs preferred over blank nodes).

The final mapping (node → component-min label) is applied to the triples
table either by broadcast (``ray.put`` once, vectorized ``index_in``
lookup per batch — right when |mapping| ≪ |triples|, the common case
since only linked entities appear) or by two hash joins (``via="join"``)
when the mapping itself is beyond broadcast size.
"""

from __future__ import annotations

import zlib

import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Min, Sum


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
    """Edges (src,dst) → both directions (edge_node, nbr), rank-prefixed.

    Column names deliberately avoid any overlap with the labels side
    (node, label): Ray's hash-shuffle join cannot disambiguate a key
    column whose name also appears as a data column on the other side.
    """
    src = _rank(batch["src"].combine_chunks())
    dst = _rank(batch["dst"].combine_chunks())
    return pa.Table.from_arrays(
        [pa.concat_arrays([src, dst]), pa.concat_arrays([dst, src])],
        names=["edge_node", "nbr"])


def _hash_col(col, mod: int | None = None) -> pa.Array:
    """Vectorized deterministic-within-job string hash (polars/ahash);
    Python crc32 fallback.  Used for shuffle buckets and convergence
    checksums — never persisted, so cross-version stability isn't
    required."""
    try:
        import polars as pl

        col = (col.combine_chunks()
               if isinstance(col, pa.ChunkedArray) else col)
        h = pl.from_arrow(col).hash(seed=7).to_arrow()
        # mask to 32 bits: checksum SUMS of ~10^6 values must stay exactly
        # representable (wider hashes overflow into float and the sum
        # becomes order-dependent → convergence never detects)
        h = pc.cast(pc.bit_wise_and(h, pa.scalar((1 << 32) - 1, pa.uint64())),
                    pa.int64())
    except Exception:
        h = pa.array([zlib.crc32(str(v).encode())
                      for v in col.to_pylist()], pa.int64())
    if mod is not None:
        import numpy as np

        return pa.array((h.to_numpy(zero_copy_only=False) % mod)
                        .astype("int32"), pa.int32())
    return h


def _crc_sum(batch: pa.Table) -> pa.Table:
    joined = pc.binary_join_element_wise(batch["node"], batch["label"], "\x00")
    return pa.Table.from_arrays([_hash_col(joined)], names=["crc"])


def _tag(key, other, label, is_edge: int, num_buckets: int) -> pa.Table:
    """Unify label rows (key=node, other=node, label) and edge rows
    (key=nbr, other=edge_node, label=null) into one bucketed schema."""
    key = key.combine_chunks() if isinstance(key, pa.ChunkedArray) else key
    other = (other.combine_chunks()
             if isinstance(other, pa.ChunkedArray) else other)
    n = len(key)
    if label is None:
        label_arr = pa.nulls(n, pa.string())
    else:
        label_arr = (label.combine_chunks()
                     if isinstance(label, pa.ChunkedArray) else label)
    bucket = _hash_col(key, mod=num_buckets)
    return pa.Table.from_arrays(
        [bucket, key, other, label_arr,
         pa.array([is_edge] * n, pa.int8())],
        names=["bucket", "key", "other", "label", "is_edge"])


def _bucket_propagate(group: pa.Table) -> pa.Table:
    """One bucket of the partitioned hash join: edge endpoints receive
    the label of their ``key`` neighbor; label rows pass through."""
    is_lab = pc.equal(group["is_edge"], 0)
    lab = group.filter(is_lab)
    edg = group.filter(pc.invert(is_lab))
    keys = lab["key"].combine_chunks()
    vals = lab["label"].combine_chunks()
    out_nodes = [keys]
    out_labels = [vals]
    if edg.num_rows:
        idx = pc.index_in(edg["key"].combine_chunks(), value_set=keys)
        got = pc.take(vals, idx)
        valid = pc.is_valid(got)
        out_nodes.append(edg["other"].combine_chunks().filter(valid))
        out_labels.append(got.filter(valid))
    return pa.Table.from_arrays(
        [pa.concat_arrays(out_nodes), pa.concat_arrays(out_labels)],
        names=["node", "label"])


def _driver_union_find_core(edges_ds) -> tuple[list[str], list[str]]:
    """Classic union-find with path halving over the collected edge
    list.  Streams (src, dst) batches to the driver — NOT the triples —
    and is chosen only when the equivalence graph is below the broadcast
    threshold (the same size contract the broadcast remap already
    relies on).  Canonical label = rank-minimum member (IRIs beat
    blanks), identical to the distributed rounds' fixpoint.
    Returns parallel (nodes, labels) lists."""
    import numpy as np

    # Collect edge endpoints and dictionary-encode to int codes (C speed)
    chunks_src, chunks_dst = [], []
    for batch in edges_ds.select_columns(["src", "dst"]) \
            .iter_batches(batch_format="pyarrow"):
        chunks_src.append(batch["src"].combine_chunks()
                          if isinstance(batch["src"], pa.ChunkedArray)
                          else batch["src"])
        chunks_dst.append(batch["dst"].combine_chunks()
                          if isinstance(batch["dst"], pa.ChunkedArray)
                          else batch["dst"])
    if not chunks_src:
        e = pa.array([], pa.string())
        return e, e
    both = pa.chunked_array(chunks_src + chunks_dst).combine_chunks()
    enc = both.dictionary_encode()
    nodes = enc.dictionary.to_pylist()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_edges = len(codes) // 2
    ia, ib = codes[:n_edges], codes[n_edges:]
    n = len(nodes)

    # priority ordinal per node: rank-prefixed string order (IRIs < blanks)
    ranked = pc.binary_join_element_wise(
        pc.if_else(pc.starts_with(enc.dictionary, "_:"), "1", "0"),
        enc.dictionary, "")
    order = pc.array_sort_indices(ranked).to_numpy(zero_copy_only=False)
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
    canon_idx = inv[lab]
    labels_arr = pc.take(enc.dictionary, pa.array(canon_idx, pa.int64()))
    return enc.dictionary, labels_arr


def _driver_union_find(edges_ds):
    """Driver union-find → (assignment Dataset, non-identity mapping as
    an Arrow (nodes, labels) pair — stays vectorized all the way into
    the broadcast remap, no Python dict)."""
    import ray.data as rd

    names, labels = (a.cast(pa.string())
                     for a in _driver_union_find_core(edges_ds))
    changed = pc.not_equal(names, labels)
    return (rd.from_arrow(pa.Table.from_arrays([names, labels],
                                               names=["node", "label"])),
            (names.filter(changed), labels.filter(changed)))


def union_find(edges_ds, num_partitions: int = 16, max_rounds: int = 12):
    """Like :func:`connected_components` (mode="auto") but returns
    ``(assignment_dataset, mapping_or_None)`` — when the driver path
    ran, the non-identity mapping comes back directly without a Dataset
    round-trip (build_kg feeds it straight to the broadcast remap)."""
    edges_ds = edges_ds.materialize()
    if edges_ds.count() <= DRIVER_CC_MAX_EDGES:
        return _driver_union_find(edges_ds)
    return connected_components(edges_ds, num_partitions, max_rounds,
                                mode="distributed"), None


# Above this many edges the equivalence graph stops being broadcast-scale
# and CC must run as distributed groupby rounds.
DRIVER_CC_MAX_EDGES = 20_000_000


def connected_components(edges_ds, num_partitions: int = 16,
                         max_rounds: int = 12, mode: str = "auto"):
    """sameAs edges (src, dst, ...) → assignment Dataset (node, label).

    ``label`` is the rank-minimum node id of the component (IRIs
    preferred over blanks) — deterministic, so retries/reruns produce
    identical canonical ids.

    mode="auto" picks the driver union-find (one streamed pass, path
    compression) while |edges| ≤ DRIVER_CC_MAX_EDGES — the same
    broadcast-size contract as the default remap — and the distributed
    min-label-propagation rounds beyond that.  "driver"/"distributed"
    force a path.
    """
    if mode == "driver":
        return _driver_union_find(edges_ds)[0]
    if mode == "auto":
        return union_find(edges_ds, num_partitions, max_rounds)[0]
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
        return _cc_rounds(edges_ds, num_partitions, max_rounds)
    finally:
        ctx.shuffle_strategy = saved


def _cc_rounds(edges_ds, num_partitions: int, max_rounds: int):
    # Pin the (small) edge set: it is re-joined every round, and leaving
    # it lazy would re-execute the whole upstream (mention detection +
    # scorer pool) once per round.  |edges| ≪ |triples| by construction.
    bidir = edges_ds.map_batches(_bidir, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    if bidir.count() == 0:
        # empty equivalence graph: empty blocks lose their schema through
        # join/groupby, so short-circuit with a typed empty assignment
        import ray.data as rd

        return rd.from_arrow(pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.string())],
            names=["node", "label"]))
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

    def _checksum(ds):
        return ds.map_batches(_crc_sum, batch_format="pyarrow") \
            .aggregate(Sum("crc", alias_name="s"))["s"]

    # seed the early-stop with the INITIAL assignment's checksum: a star
    # graph (the common mention→KB-entity shape) is already converged
    # after init, so the loop exits after one confirming round.
    prev_crc = _checksum(labels)
    # the edge side of the per-round union never changes — tag and pin it
    # once instead of re-hashing 2|E| keys every round
    bidir_tagged = bidir.map_batches(
        lambda t: _tag(t["nbr"], t["edge_node"], None, 1, num_partitions),
        batch_format="pyarrow").materialize()
    for _ in range(max_rounds):
        # propagate: every edge endpoint receives its neighbor's label via
        # an explicit bucketed hash join — labels and edges co-partition
        # on hash(key) % num_partitions with one groupby shuffle, and the
        # per-bucket lookup is vectorized (index_in/take).  This is the
        # portable partitioned-join pattern; Ray's native Dataset.join is
        # avoided here because empty hash partitions drop their schema
        # (ArrowInvalid on the key FieldRef) as of Ray 2.49.
        tagged = labels.map_batches(
            lambda t: _tag(t["node"], t["node"], t["label"], 0,
                           num_partitions),
            batch_format="pyarrow").union(bidir_tagged)
        msgs = tagged.groupby("bucket").map_groups(
            _bucket_propagate, batch_format="pyarrow")
        new_labels = msgs \
            .groupby("node").aggregate(Min("label", alias_name="label")) \
            .materialize()
        crc = _checksum(new_labels)
        labels = new_labels
        if crc == prev_crc:
            break
        prev_crc = crc
    return labels.map_batches(_unrank_table, batch_format="pyarrow")


def assignment_to_mapping(labels_ds) -> dict[str, str]:
    """Collect the non-identity part of the assignment to the driver.

    Safe when |linked entities| ≪ |triples| (the broadcast-side
    contract); for the join path use :func:`canonicalize_triples` with
    ``via="join"`` instead.
    """
    out = {}
    for batch in labels_ds.iter_batches(batch_format="pyarrow"):
        for n, l in zip(batch["node"].to_pylist(),
                        batch["label"].to_pylist()):
            if n != l:
                out[n] = l
    return out


class _Remap:
    """Vectorized canonical-id rewrite; mapping fetched once per actor."""

    def __init__(self, mapping_ref=None, mapping=None):
        import ray

        if mapping is None:
            mapping = ray.get(mapping_ref) if mapping_ref is not None else {}
        if isinstance(mapping, tuple):      # (keys_array, vals_array)
            keys, vals = mapping
        else:
            keys = pa.array(list(mapping.keys()), pa.string())
            vals = pa.array(list(mapping.values()), pa.string())
        self.n = len(keys)
        if self.n == 0:
            return
        try:
            import polars as pl

            # zero-copy Arrow → polars; Rust-side hash join per batch.
            # A Python dict of the same mapping costs seconds to build
            # PER WORKER at multi-million entries (blank-node mappings
            # grow with the corpus) — this was the superlinear term in
            # the remap stage at 4M-doc scale.
            self._pl = pl
            self.map_df = pl.DataFrame({"k": pl.from_arrow(keys),
                                        "v": pl.from_arrow(vals)})
        except Exception:
            self._pl = None
            self.lookup = dict(zip(keys.to_pylist(), vals.to_pylist()))

    def _remap_col(self, col):
        if self.n == 0:
            return col
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if self._pl is not None:
            pl = self._pl
            df = pl.DataFrame({"k": pl.from_arrow(col)}).with_row_index("i")
            j = df.join(self.map_df, on="k", how="left").sort("i")
            out = j.select(pl.coalesce(pl.col("v"), pl.col("k"))
                           .alias("o"))["o"].to_arrow()
            return out.cast(pa.string())
        enc = col.dictionary_encode()
        get = self.lookup.get
        uniq = enc.dictionary.to_pylist()
        mapped = pa.array([get(u, u) for u in uniq], pa.string())
        return pc.take(mapped, pc.cast(enc.indices, pa.int64()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        for name, kind_name in (("subj", "subj_kind"), ("obj", "obj_kind")):
            i = batch.schema.get_field_index(name)
            col = self._remap_col(batch[name])
            has_kind = kind_name in batch.schema.names
            if has_kind:
                kinds = batch[kind_name]
                # literals (kind 2) are NEVER remapped — a literal whose
                # lexical value equals a mapped node id must keep its
                # original value, not just its kind
                col = pc.if_else(pc.equal(kinds, 2),
                                 batch[name].combine_chunks()
                                 if isinstance(batch[name], pa.ChunkedArray)
                                 else batch[name],
                                 col)
            batch = batch.set_column(i, name, col)
            # a blank rewritten to a KB IRI changes kind 1 → 0
            if has_kind:
                ki = batch.schema.get_field_index(kind_name)
                blank_now = pc.starts_with(col, "_:")
                new_kinds = pc.if_else(
                    pc.equal(kinds, 2), kinds,
                    pc.cast(pc.if_else(blank_now, 1, 0), pa.uint8()))
                batch = batch.set_column(ki, kind_name,
                                         pc.cast(new_kinds, pa.uint8()))
        return batch


def canonicalize_triples(triples_ds, labels_ds=None, mapping=None,
                         via: str = "broadcast", num_partitions: int = 16,
                         concurrency=None):
    """Rewrite subj/obj to canonical component labels.

    via="broadcast": ``ray.put`` the mapping once (a dict or a
    ``(keys_array, vals_array)`` Arrow pair); tasks do a vectorized
    ``index_in`` per batch (no shuffle of the triples).
    via="join": two hash joins (subj, then obj) against the assignment —
    the all-shuffle path for mappings too large to broadcast.
    """
    if via == "broadcast":
        import ray

        from .broadcast import cached_get

        if mapping is None:
            mapping = assignment_to_mapping(labels_ds)
        empty = (len(mapping[0]) == 0 if isinstance(mapping, tuple)
                 else not mapping)
        if empty:
            return triples_ds
        ref = ray.put(mapping)

        # plain-task stage (no actor-pool spin-up): the mapping is light
        # lookup state; the built _Remap (key/value Arrow arrays) is
        # memoized once per worker process
        def remap(batch: pa.Table) -> pa.Table:
            inst = cached_get(ref, build=lambda m: _Remap(mapping=m),
                              tag="remap")
            return inst(batch)

        return triples_ds.map_batches(remap, batch_format="pyarrow",
                                      zero_copy_batch=True)

    assert labels_ds is not None
    names = set(triples_ds.schema().names)
    if {"doc_id", "stmt_index"} <= names:
        return _join_remap_exploded(triples_ds, labels_ds, num_partitions)
    return _join_remap_legacy(triples_ds, labels_ds, num_partitions)


# Hit tables (one row per actually-remapped subj/obj position) up to this
# many rows are ray.put once and applied map-side — the common case when a
# huge assignment is sparsely applicable to this triples table.
HITS_BROADCAST_MAX = 2_000_000


def _explode_refs(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Triples batch → skinny (bucket, key, doc_id, stmt_index, pos) node
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
        n = len(vals)
        parts.append(pa.Table.from_arrays(
            [_hash_col(vals, mod=num_buckets), vals, doc, stmt,
             pa.array([pos] * n, pa.int8()), pa.nulls(n, pa.string())],
            names=["bucket", "key", "doc_id", "stmt_index", "pos", "label"]))
    return pa.concat_tables(parts)


_HITS_SCHEMA = pa.schema([("doc_id", pa.string()),
                          ("stmt_index", pa.int64()),
                          ("pos", pa.int8()),
                          ("node", pa.string()),
                          ("label", pa.string())])


def _hit_lookup(group: pa.Table) -> pa.Table:
    """One bucket: reference rows receive their node's canonical label
    via vectorized index_in against the assignment rows; only NON-IDENTITY
    matches survive (the hit table stays as small as the applied remap).
    Output is deduped on the full (doc_id, stmt_index, pos, node) key —
    one statement can yield many triples sharing (doc_id, stmt_index)
    (collections, predicate lists), and the join-back must not multiply."""
    is_lab = pc.equal(group["pos"], -1)
    lab = group.filter(is_lab)
    ref = group.filter(pc.invert(is_lab))
    if not ref.num_rows or not lab.num_rows:
        return _HITS_SCHEMA.empty_table()
    idx = pc.index_in(ref["key"].combine_chunks(),
                      value_set=lab["key"].combine_chunks())
    got = pc.take(lab["label"].combine_chunks(), idx)
    hit = pc.and_(pc.is_valid(got),
                  pc.not_equal(got, ref["key"].combine_chunks()))
    out = pa.Table.from_arrays(
        [ref["doc_id"].combine_chunks().filter(hit),
         pc.cast(ref["stmt_index"], pa.int64()).combine_chunks().filter(hit),
         ref["pos"].combine_chunks().filter(hit),
         ref["key"].combine_chunks().filter(hit),
         got.filter(hit)],
        names=["doc_id", "stmt_index", "pos", "node", "label"])
    agg = out.group_by(["doc_id", "stmt_index", "pos", "node"],
                       use_threads=False).aggregate([("label", "min")])
    return agg.select(["doc_id", "stmt_index", "pos", "node",
                       "label_min"]) \
        .rename_columns(["doc_id", "stmt_index", "pos", "node", "label"]) \
        .cast(_HITS_SCHEMA)


def _apply_hits(batch: pa.Table, hits: pa.Table) -> pa.Table:
    """Substitute subj/obj labels from a (doc_id, stmt_index, pos, node,
    label) hit table via one acero left join per position; recompute
    kinds.  The node is part of the join key: triples sharing (doc_id,
    stmt_index) (collection cells, predicate lists) carry different
    nodes, and hits are unique per full key so the join never
    multiplies."""
    import numpy as np

    for pos, col, kind_name in ((0, "subj", "subj_kind"),
                                (1, "obj", "obj_kind")):
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
        orig = batch[col].combine_chunks()
        merged = pc.if_else(pc.is_valid(lab), lab, orig)
        if kind_name in batch.schema.names:
            kinds = batch[kind_name]
            merged = pc.if_else(pc.equal(kinds, 2), orig, merged)
        i = batch.schema.get_field_index(col)
        batch = batch.set_column(i, col, merged)
        if kind_name in batch.schema.names:
            ki = batch.schema.get_field_index(kind_name)
            blank_now = pc.starts_with(merged, "_:")
            new_kinds = pc.if_else(
                pc.equal(batch[kind_name], 2), batch[kind_name],
                pc.cast(pc.if_else(blank_now, 1, 0), pa.uint8()))
            batch = batch.set_column(ki, kind_name,
                                     pc.cast(new_kinds, pa.uint8()))
    return batch


def _join_remap_exploded(triples_ds, labels_ds, num_partitions: int):
    """ONE-shuffle join remap (VERDICT r1 #6).  The legacy path shipped
    the full triple payload through two bucketed joins (subj, then obj);
    this ships only a skinny (node, doc_id, stmt_index, pos) reference
    stream through a single bucketed lookup against the assignment, then
    applies the resulting hit table either map-side (broadcast, the
    common sparse-application case — zero full-table shuffles) or via
    one doc_id-bucketed co-shuffle."""
    import ray
    import ray.data as rd

    tagged_labels = labels_ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [_hash_col(t["node"], mod=num_partitions),
             t["node"].combine_chunks(),
             pa.nulls(t.num_rows, pa.string()),
             pa.nulls(t.num_rows, pa.int64()),
             pa.array([-1] * t.num_rows, pa.int8()),
             t["label"].combine_chunks()],
            names=["bucket", "key", "doc_id", "stmt_index", "pos",
                   "label"]),
        batch_format="pyarrow")
    refs = triples_ds.map_batches(
        lambda t: _explode_refs(t, num_partitions), batch_format="pyarrow")
    hits = refs.union(tagged_labels).groupby("bucket").map_groups(
        _hit_lookup, batch_format="pyarrow").materialize()
    n_hits = hits.count()
    if n_hits == 0:
        return triples_ds
    if n_hits <= HITS_BROADCAST_MAX:
        # Collapse hits to the RESTRICTED mapping — distinct (node,
        # label) over nodes that actually occur in this triples table —
        # and apply it through the standard broadcast remap.  This is
        # the common case even when the full assignment is beyond
        # broadcast scale: only the applicable slice needs to travel.
        # (Empty blocks lose their schema in Ray 2.49 — drop them before
        # concat; n_hits > 0 guarantees at least one non-empty block.)
        hit_tbl = pa.concat_tables(
            [t for t in ray.get(hits.to_arrow_refs())
             if t.num_rows]).combine_chunks()
        agg = hit_tbl.group_by(["node"], use_threads=False) \
            .aggregate([("label", "min")])
        mapping = (agg["node"].combine_chunks(),
                   agg["label_min"].combine_chunks())
        return canonicalize_triples(triples_ds, mapping=mapping,
                                    via="broadcast")
    # hits beyond broadcast: ONE full-table co-shuffle on hash(doc_id)
    schema = triples_ds.schema()
    tri_names = list(schema.names)
    tri_types = dict(zip(schema.names, schema.types))

    extra = ["pos", "__hitnode", "label", "bucket2"]
    extra_types = [pa.int8(), pa.string(), pa.string(), pa.int32()]

    def tag_triples(t: pa.Table) -> pa.Table:
        arrays = [pc.cast(t["stmt_index"], pa.int64()) if c == "stmt_index"
                  else t[c] for c in tri_names]
        arrays += [pa.nulls(t.num_rows, pa.int8()),
                   pa.nulls(t.num_rows, pa.string()),
                   pa.nulls(t.num_rows, pa.string()),
                   _hash_col(t["doc_id"], mod=num_partitions)]
        return pa.Table.from_arrays(arrays, names=tri_names + extra)

    def tag_hits(t: pa.Table) -> pa.Table:
        if not t.num_rows:  # schema-less empty block (Ray 2.49)
            return pa.Table.from_arrays(
                [pa.array([], pa.int64() if c == "stmt_index"
                          else tri_types[c]) for c in tri_names]
                + [pa.array([], ty) for ty in extra_types],
                names=tri_names + extra)
        arrays = []
        for c in tri_names:
            if c == "doc_id":
                arrays.append(t["doc_id"])
            elif c == "stmt_index":
                arrays.append(pc.cast(t["stmt_index"], pa.int64()))
            else:
                arrays.append(pa.nulls(t.num_rows, tri_types[c]))
        arrays += [t["pos"], t["node"], t["label"],
                   _hash_col(t["doc_id"], mod=num_partitions)]
        return pa.Table.from_arrays(arrays, names=tri_names + extra)

    def fold_bucket(g: pa.Table) -> pa.Table:
        is_hit = pc.is_valid(g["pos"])
        tri = g.filter(pc.invert(is_hit)).select(tri_names)
        ht = g.filter(is_hit) \
            .select(["doc_id", "stmt_index", "pos", "__hitnode", "label"]) \
            .rename_columns(["doc_id", "stmt_index", "pos", "node",
                             "label"])
        out = _apply_hits(tri, ht)
        si = out.schema.get_field_index("stmt_index")
        return out.set_column(si, "stmt_index",
                              pc.cast(out["stmt_index"],
                                      tri_types["stmt_index"]))

    tri_tagged = triples_ds.map_batches(tag_triples, batch_format="pyarrow")
    hit_tagged = hits.map_batches(tag_hits, batch_format="pyarrow")
    return tri_tagged.union(hit_tagged).groupby("bucket2").map_groups(
        fold_bucket, batch_format="pyarrow")


def _join_remap_legacy(triples_ds, labels_ds, num_partitions: int):
    # legacy two-join path: for triples tables without (doc_id,
    # stmt_index) — left-outer bucketed joins keep unmapped nodes as-is
    from ..ops.join import bucketed_hash_join

    out = triples_ds
    for col in ("subj", "obj"):
        side = labels_ds.rename_columns({"node": f"__n_{col}",
                                         "label": f"__l_{col}"})
        out = bucketed_hash_join(out, side, col, f"__n_{col}",
                                 how="left outer",
                                 num_buckets=num_partitions)

        def fold(batch: pa.Table, col=col) -> pa.Table:
            lab = batch[f"__l_{col}"]
            i = batch.schema.get_field_index(col)
            merged = pc.if_else(pc.is_valid(lab), lab, batch[col])
            kind_name = f"{col}_kind"
            if kind_name in batch.schema.names:
                # literals never remap, even on a joined label hit
                merged = pc.if_else(pc.equal(batch[kind_name], 2),
                                    batch[col].combine_chunks()
                                    if isinstance(batch[col], pa.ChunkedArray)
                                    else batch[col],
                                    merged)
            batch = batch.set_column(i, col, merged)
            if kind_name in batch.schema.names:
                ki = batch.schema.get_field_index(kind_name)
                kinds = batch[kind_name]
                blank_now = pc.starts_with(merged, "_:")
                new_kinds = pc.if_else(
                    pc.equal(kinds, 2), kinds,
                    pc.cast(pc.if_else(blank_now, 1, 0), pa.uint8()))
                batch = batch.set_column(ki, kind_name,
                                         pc.cast(new_kinds, pa.uint8()))
            return batch.drop_columns([f"__l_{col}"])

        out = out.map_batches(fold, batch_format="pyarrow")
    return out
