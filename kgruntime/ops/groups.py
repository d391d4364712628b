"""Coarse-grouped segments — the scale fix for fine-grained groupbys.

``ds.groupby(keys).map_groups(fn)`` pays a per-GROUP split/convert cost
inside Ray; with an unbounded key (LSH band buckets, text hashes) the
group count grows with the corpus and that overhead dominates — the
round-5 curate_corpus ablation measured 253 s for a 31.8M-group
sort-aggregate and 167 s for a 9.4k-group map_groups at 38.4M docs
(BASELINE.md).  Even at a few thousand groups the Python call per group
costs more than the query: one call per block, not one per group.

``segment_map`` is the one primitive.  It exchanges on a COARSE bucket,
``hash(keys) % default_num_buckets()`` (~4×CPUs), and calls
``fn(block, starts)`` once per coarse block:

- ``block`` holds every row of the coarse bucket (without the helper's
  bucket column), lexsorted by ``keys`` (stable: rows of one key keep
  their arrival order);
- ``starts`` is the int64 array of the row offsets where a key segment
  (one true key group) begins; segment ``i`` ends where ``i+1`` begins,
  the last one at ``block.num_rows``.

``fn`` returns a pa.Table with a consistent schema, and is a vectorized
kernel over all segments at once (sort + diff/cumsum/reduceat), so Ray
group overhead is paid ~128×, not |distinct keys|×.  ``fn`` only ever
sees rows: Ray's ``map_groups`` (``grouped_data._apply_udf_to_groups``)
calls it once per group found in a partition, so a coarse bucket that
no row hashes to, and an empty input, never reach ``fn``.  Those
partitions come out as empty blocks WITHOUT a schema — the "Operator
produced a RefBundle with a different schema … new schema: ." warning
(a gate run of the 15 ANN queries logs 23-25 of them at sf0.01 and
sf0.1) — so a consumer of a possibly all-empty result pins its columns
itself.

Keys may be integer, string or binary columns.  Integers are mixed
with a splitmix64 constant; strings and bytes first go through the
seed-7 polars hash of ``stages/canon._hash_col`` (deterministic within
a job, which is all an exchange needs).

Losslessness: equal keys hash to the same coarse bucket, so every true
group arrives intact in exactly one block.

``cogroup(left, right, left_on, right_on, fn)`` is the one two-sided
exchange (every keyed join: ``join.bucketed_hash_join``;
``asof.asof_join``; the union-find rounds and join remap of
``stages/canon.py``).  Each side's batch becomes three columns: ``__k``
(the int64 ``_key_ints`` of its key, the hash ``segment_map`` uses),
its whole row packed in one struct column (``__l`` or ``__r``, cast to
the side's ``schema()``), and the other side's struct column, all null.
The union takes ``segment_map``'s one exchange on ``__k``, whose
kernel unpacks each side into its own table, with that side's own
column names and types, and returns ``fn(lt, rt)`` once per coarse
block.  A side with no rows in the block arrives as a zero-row table
of its schema, so ``fn`` never branches on a missing side.  A column
name may appear on both sides (each side keeps its own), so callers
need no renames.  Lossless as ``segment_map``: a key's rows from both
sides hash to the same coarse bucket (an int key hashes by value
whatever its width), so ``fn`` sees all of them in one call.  Each
side's packing map also appends the coarse bucket: a separate
``segment_map`` key map after the union is one more task per input
block, and took a 100-block join from 4.3 s to 5.7 s (1 CPU).

``coarse_group_map`` is the per-group form on top of it: the segment
loop that calls a per-group ``fn(group)``, skipping groups smaller than
``min_group_size`` (lossless for pair-generation fns, where singleton
buckets emit nothing — and on realistic corpora MOST LSH buckets are
singletons).

``prefix_scan(ds, prep, bucket, order, value, op, fn)`` is the global
exclusive scan on top of it — a running total or watermark in one
global order, with no global sort.  ``prep`` maps each batch of ``ds``
to the scan's rows (materialized once, read by both phases); ``fn`` is
called as ``fn(block, before)`` once per coarse block:

- ``block`` holds whole buckets, sorted by ``(bucket, *order)``;
- ``before`` is, per row, the int64 exclusive ``op``-scan of ``value``
  over every row that comes earlier in the GLOBAL ``(bucket, *order)``
  order; ``op`` is ``np.add`` or ``np.maximum`` and the first row gets
  ``op``'s identity (0, int64 min).

Phase 1 is one native ``groupby(bucket).aggregate``: the driver holds
one row per bucket (per-block partials would hold blocks × buckets on
hash-shuffled input) and turns the totals into two sorted int64
arrays, bucket ids and exclusive offsets, broadcast once.  Phase 2 is
one ``segment_map`` on ``bucket`` whose kernel adds the offsets
vectorized over the block — for max, the offsets are monotone in
bucket order, so one ``np.maximum.accumulate`` seeded at each segment
start is exact.  Every step is integer arithmetic, so retries
reproduce identical results.  The driver state is one int pair per
bucket (at 10^10 rows and 4096-row buckets ~2.4M pairs; beyond that,
re-bucket the totals one level up).  A zero-row input gives a zero-row
result with ``fn``'s columns (``fn`` on ``prep`` of an empty block of
the input's schema), where ``segment_map`` would give a schema-less
one.

``first_k(segs, key, nbr, k)`` is the library's one top-k prune: the
(positions, 0-based ranks) of the first ``k`` rows of each segment — a
run of equal ``segs`` columns — under (``key`` DESC, ``nbr`` ASC).  A
row equal to the one before it in segment, key and neighbor counts
once.  For ``key`` ASC pass ``desc(key)`` (``desc`` is its own
inverse), so the prune has no direction option.  Every batch-local
prune and every merge ranks by this one total order, so a local prune
never drops a row the merge keeps, ties included — ``argpartition`` or
an unstable argsort keeps an arbitrary subset of a tie, and a merge
can only rank what survived.  ``take_first_k`` is the same prune on a
pa.Table's columns.  The two shapes on top of it:

- keyed (``stats.grouped_topk``): a per-batch ``take_first_k`` and one
  ``segment_map(key)`` merge kernel that runs it again and appends the
  1-based rank — the exchange carries ≤ k × blocks rows per key;
- driver-merged (few segments: one global top-k, one per query or per
  epoch): a per-batch ``take_first_k``, ``collect`` of the candidates
  (≤ segments × k × blocks rows), and one more ``take_first_k`` on the
  driver — no exchange.

The ranks are global: the first ``k`` rows of a segment are the same
rows under any ``k' >= k``, so one prune at ``max(k)`` serves per-key
quotas (``rank <= quota[key]``).

``fold(ds, keys, aggs)`` is the library's one aggregate over a
bounded key (check names, sources, languages, statuses, nations, sketch
cells, hours and days of the span, graph nodes): one
row per distinct ``keys`` as a pa.Table on the driver, sorted by
``keys``, with NO exchange.  ``aggs`` maps each output column to
``(op, column)``, ``op`` one of ``"sum"``, ``"min"``, ``"max"`` or
``"count"`` (rows; its column is None); no ``aggs`` gives the
distinct keys.  The op's own map emits only
the key and value columns of each row; each batch gets an Arrow
``group_by`` partial in ``map_batches``; ``collect`` brings the
partials to the driver, where the same ``group_by`` runs again over
them (a ``count`` partial is summed).  The driver holds at most
blocks × groups partial rows, so a key that grows with the rows (words,
doc, user or order ids, money values) belongs on ``segment_map`` or a
native ``groupby`` instead.  Overflow: both stages sum an integer
column as ``decimal128(38, 0)`` and cast it back to int64 with Arrow's
checked cast, so a sum outside int64 raises ``OverflowError`` where
Arrow's int64 sum wraps silently; a ``decimal128`` column sums as
``decimal128(38, scale)`` and stays decimal (exact while the total
has at most 38 digits — the form for Σx² or Σxy of int64 values).
Sum, count, min and max of integers and decimals are exact and order-
free.  A zero-row input gives a zero-row table of the same columns
(int64 when the input has no schema).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_MIX = np.int64(-7046029254386353131)   # splitmix64 odd constant


def _key_ints(col) -> np.ndarray:
    ty = col.type
    if (pa.types.is_string(ty) or pa.types.is_large_string(ty)
            or pa.types.is_binary(ty) or pa.types.is_large_binary(ty)
            or pa.types.is_fixed_size_binary(ty)):
        from ..stages.canon import _hash_col

        col = _hash_col(col)
    else:
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def run_starts(*cols: np.ndarray) -> np.ndarray:
    """Mask of the rows that start a run of equal rows in sorted
    ``cols`` (all empty for zero rows)."""
    change = np.ones(len(cols[0]), bool)
    if len(change):
        change[1:] = False
        for c in cols:
            change[1:] |= c[1:] != c[:-1]
    return change


def desc(key: np.ndarray) -> np.ndarray:
    """An ascending sort key for ``key`` DESC: ``~key`` (−key−1, exact
    for every int64) for integers, ``-key`` for floats."""
    return ~key if key.dtype.kind == "i" else -key


def first_k(segs, key: np.ndarray, nbr: np.ndarray, k: int):
    """The one top-k prune: (positions, 0-based ranks) of the first
    ``k`` rows of each segment — a run of equal ``segs`` columns — under
    (``key`` DESC, ``nbr`` ASC), in (segment, rank) order.  A row equal
    to the one before it in segment, key and neighbor (one pair scored
    twice) counts once.

    The batch-local prunes and the global merge all rank by this one
    total order, so a local prune never drops a row the merge keeps,
    ties included (``argpartition`` or an unstable argsort keeps an
    arbitrary subset of a tie)."""
    order = np.lexsort((nbr, desc(key), *segs[::-1]))
    segs = [c[order] for c in segs]
    first = run_starts(*segs, key[order], nbr[order])
    order = order[first]
    segs = [c[first] for c in segs]
    pos = np.arange(len(order))
    rank = pos - np.maximum.accumulate(np.where(run_starts(*segs), pos, 0))
    keep = rank < k
    return order[keep], rank[keep]


def take_first_k(t: pa.Table, segs: list[str], key: str, nbr: str, k: int,
                 ascending: bool = False,
                 rank_col: str | None = None) -> pa.Table:
    """The rows of ``t`` that ``first_k`` keeps — segments ``segs`` (no
    column: one segment), ``key`` DESC (ASC with ``ascending``), ``nbr``
    ASC — in (segment, rank) order, with the 1-based rank appended as
    ``rank_col`` when one is named."""
    cols = [t[c].to_numpy() for c in segs] or [np.zeros(t.num_rows,
                                                          np.int8)]
    v = t[key].to_numpy()
    sel, rank = first_k(cols, desc(v) if ascending else v,
                        t[nbr].to_numpy(), k)
    out = t.take(sel)
    if rank_col is None:
        return out
    return out.append_column(rank_col, pa.array(rank + 1, pa.int64()))


def sort_segments(t: pa.Table, keys: list[str]):
    """``t`` lexsorted by ``keys`` (stable) and the int64 start offsets
    of its key segments."""
    t = t.take(pc.sort_indices(t, sort_keys=[(k, "ascending")
                                              for k in keys]))
    return t, np.flatnonzero(run_starts(
        *(t[k].to_numpy() for k in keys)))


def segment_pairs(starts: np.ndarray, sizes: np.ndarray):
    """Row-index pairs ``(i, j)``, ``i < j``, of every two rows inside
    one segment, for segments given by ``starts``/``sizes`` — built per
    distinct size from one ``triu_indices``, no per-segment Python."""
    ii, jj = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for s in np.unique(sizes[sizes >= 2]):
        a, b = np.triu_indices(int(s), k=1)
        base = starts[sizes == s][:, None]
        ii.append((base + a).ravel())
        jj.append((base + b).ravel())
    return np.concatenate(ii), np.concatenate(jj)


def segment_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """The segment index of each of ``n`` rows, for segments given by
    ``starts``."""
    return np.repeat(np.arange(len(starts)),
                     np.diff(np.append(starts, n)))


def segment_searchsorted(seg, values, probe_seg, probes) -> np.ndarray:
    """``np.searchsorted`` (side "left") that never crosses a segment:
    for each probe, the index into ``values`` where it would be inserted
    among the values of its own segment ``probe_seg``.  ``seg``
    (non-decreasing) is each value's segment and ``values`` are sorted
    inside each segment.  Exact for any int64 values: one lexsort of the
    values and the probes together (segment, value, tie rank), no
    composite key."""
    n = len(values)
    is_probe = np.r_[np.zeros(n, bool), np.ones(len(probes), bool)]
    # at an equal value a probe goes before the values (side "left")
    order = np.lexsort((~is_probe, np.r_[values, probes],
                        np.r_[seg, probe_seg]))
    is_val = ~is_probe[order]
    before = np.cumsum(is_val) - is_val
    out = np.empty(len(probes), np.int64)
    out[order[~is_val] - n] = before[~is_val]
    return out


def _coarse_bucket(keys: list[str]):
    """The batch fn that appends ``segment_map``'s coarse bucket column
    ``__cg`` = ``hash(keys) % default_num_buckets()``."""
    from .join import default_num_buckets

    coarse = default_num_buckets()

    def add_cg(t: pa.Table) -> pa.Table:
        acc = np.zeros(t.num_rows, np.int64)
        for k in keys:
            acc ^= _key_ints(t[k]) * _MIX   # int64 wrap is fine (hash mix)
        # drop the schema metadata (pandas' from a parquet file): the
        # exchange cannot hash a metadata dict and warns once per block
        return t.replace_schema_metadata(None).append_column(
            "__cg", pa.array((acc % coarse).astype("int32"), pa.int32()))

    return add_cg


def _per_coarse_block(ds, keys: list[str], fn):
    """The exchange of ``segment_map``: ``fn(block, starts)`` per coarse
    block of ``ds``, whose rows carry ``_coarse_bucket(keys)``."""

    def per_coarse(g: pa.Table) -> pa.Table:
        return fn(*sort_segments(g.drop_columns(["__cg"]), keys))

    return ds.groupby("__cg").map_groups(per_coarse, batch_format="pyarrow")


def segment_map(ds, keys, fn):
    """Apply ``fn(block, starts)`` once per coarse block of ``ds``
    exchanged on ``hash(keys)`` (see the module docstring for the
    contract)."""
    if isinstance(keys, str):
        keys = [keys]
    return _per_coarse_block(
        ds.map_batches(_coarse_bucket(keys), batch_format="pyarrow",
                       zero_copy_batch=True), keys, fn)


def cogroup(left, right, left_on: str, right_on: str, fn):
    """Apply ``fn(lt, rt)`` once per coarse block of ``left`` and
    ``right`` exchanged together on their keys (see the module
    docstring for the contract)."""
    schemas = [pa.schema(list(zip(s.names, s.types)))
               for s in (left.schema(), right.schema())]
    add_cg = _coarse_bucket(["__k"])

    def pack(side: int, key: str):
        def packed(t: pa.Table) -> pa.Table:
            fields = list(schemas[side])
            own = pa.StructArray.from_arrays(
                [t[f.name].combine_chunks().cast(f.type) for f in fields],
                fields=fields)
            other = pa.nulls(t.num_rows, pa.struct(list(schemas[1 - side])))
            return add_cg(pa.Table.from_arrays(
                [pa.array(_key_ints(t[key]), pa.int64()),
                 *((own, other) if side == 0 else (other, own))],
                names=["__k", "__l", "__r"]))
        return packed

    def unpack(col, schema: pa.Schema) -> pa.Table:
        rows = col.filter(pc.is_valid(col)).combine_chunks()
        return pa.Table.from_arrays(rows.flatten(), schema=schema)

    def kernel(block: pa.Table, starts: np.ndarray) -> pa.Table:
        return fn(unpack(block["__l"], schemas[0]),
                  unpack(block["__r"], schemas[1]))

    both = left.map_batches(pack(0, left_on), batch_format="pyarrow") \
        .union(right.map_batches(pack(1, right_on), batch_format="pyarrow"))
    return _per_coarse_block(both, ["__k"], kernel)


def _per_group(fn, min_group_size: int = 1):
    """The segment kernel of ``coarse_group_map``: ``fn`` per group."""

    def per_block(gs: pa.Table, starts: np.ndarray) -> pa.Table:
        sizes = np.diff(np.append(starts, gs.num_rows))
        keep = sizes >= min_group_size
        outs = [fn(gs.slice(s, z)) for s, z in zip(starts[keep],
                                                   sizes[keep])]
        if not outs:
            # empty result with fn's schema: probe fn on an empty slice
            return fn(gs.slice(0, 0))
        return pa.concat_tables(outs, promote_options="default") \
            .combine_chunks()

    return per_block


def coarse_group_map(ds, keys, fn, min_group_size: int = 1):
    """Equivalent of ``ds.groupby(keys).map_groups(fn,
    batch_format="pyarrow")``, exchanged on a coarse bucket.  ``fn``
    receives each true key group as a pa.Table (without the helper's
    bucket column) and must return a pa.Table with a consistent
    schema."""
    return segment_map(ds, keys, _per_group(fn, min_group_size))


def collect(ds) -> pa.Table | None:
    """The rows of a small Dataset as one pa.Table on the driver, or
    None when it has no rows and no schema (Ray gives an empty
    aggregate or an empty map result no columns)."""
    import ray

    # materialized first: to_arrow_refs of a lazy Dataset runs its plan
    # twice (once more for the schema)
    blocks = [b for b in ray.get(ds.materialize().to_arrow_refs())
              if b.num_columns]
    return pa.concat_tables(blocks) if blocks else None


def _exact_sums(t: pa.Table, spec) -> pa.Table:
    """``t`` with every integer or decimal column that ``spec`` sums
    widened to 38 digits, where Arrow's sum cannot wrap."""
    for c in {c for c, op in spec if op == "sum"}:
        ty = t.schema.field(c).type
        if pa.types.is_integer(ty) or pa.types.is_decimal128(ty):
            scale = 0 if pa.types.is_integer(ty) else ty.scale
            t = t.set_column(t.schema.get_field_index(c), c,
                             pc.cast(t[c], pa.decimal128(38, scale)))
    return t


def _checked_int64(col):
    """An integer sum widened by ``_exact_sums`` back in int64."""
    try:
        return pc.cast(col, pa.int64())
    except pa.ArrowInvalid as e:
        raise OverflowError(f"fold: an integer sum leaves int64 ({e})") \
            from None


def fold(ds, keys, aggs: dict[str, tuple[str, str | None]]) -> pa.Table:
    """One row per distinct ``keys`` of ``ds`` with ``aggs`` folded over
    its rows, on the driver and sorted by ``keys`` (see the module
    docstring for the contract, the bound and the overflow rule)."""
    if isinstance(keys, str):
        keys = [keys]
    names = list(aggs)

    def grouped(t: pa.Table, spec) -> pa.Table:
        ints = {c for c, op in spec if op == "sum"
                and pa.types.is_integer(t.schema.field(c).type)}
        g = _exact_sums(t, spec).group_by(keys).aggregate(spec)
        return pa.Table.from_arrays(
            [g[k] for k in keys]
            + [g["count_all"] if op == "count_all" else
               _checked_int64(g[f"{c}_{op}"]) if c in ints else
               g[f"{c}_{op}"] for c, op in spec],
            names=[*keys, *names])

    per_batch = [([], "count_all") if op == "count" else (col, op)
                 for op, col in aggs.values()]
    merge = [(n, "sum" if op == "count" else op)
             for n, (op, _) in aggs.items()]
    parts = collect(ds.map_batches(lambda t: grouped(t, per_batch),
                                   batch_format="pyarrow",
                                   zero_copy_batch=True))
    if parts is None:           # no batch reached the partial
        schema = ds.schema()
        if schema is None:
            return pa.table({c: pa.array([], pa.int64())
                             for c in [*keys, *names]})
        parts = grouped(schema.base_schema.empty_table(), per_batch)
    return grouped(parts, merge).sort_by([(k, "ascending") for k in keys])


def prefix_scan(ds, prep, bucket: str, order: list[str], value: str, op,
                fn):
    """Call ``fn(block, before)`` once per coarse block of
    ``ds.map_batches(prep)``, ``before`` being the global exclusive
    ``op``-scan of ``value`` in ``(bucket, *order)`` order (see the
    module docstring for the contract)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from ..stages.broadcast import cached_get

    keys = [(c, "ascending") for c in [bucket, *order]]
    rows = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    agg = Sum if op is np.add else Max
    totals = collect(rows.groupby(bucket).aggregate(
        agg(value, alias_name="total")))
    if totals is None or totals.num_rows == 0:
        schema = ds.schema()
        if schema is None:      # no columns to give fn
            return rows
        return rd.from_arrow(fn(prep(schema.base_schema.empty_table()),
                                np.zeros(0, np.int64)))
    totals = totals.sort_by(bucket)
    ids = totals[bucket].to_numpy()
    tot = totals["total"].to_numpy().astype(np.int64)
    if op is np.add:
        offs = np.cumsum(tot) - tot
    else:
        offs = np.r_[np.iinfo(np.int64).min, np.maximum.accumulate(tot)[:-1]]
    ref = ray.put((ids, offs))

    def kernel(block: pa.Table, starts: np.ndarray) -> pa.Table:
        bucket_ids, bucket_offs = cached_get(ref, tag="prefix_scan-offsets")
        # the bucket segments keep their offsets under the finer sort
        block = block.take(pc.sort_indices(block, sort_keys=keys))
        v = pc.cast(block[value], pa.int64()).to_numpy()
        seed = bucket_offs[np.searchsorted(
            bucket_ids, block[bucket].to_numpy()[starts])]
        # x[i] = the value of the row before i; at a segment start, the
        # offset of everything in earlier buckets
        x = np.empty(len(v), np.int64)
        x[1:] = v[:-1]
        x[starts] = seed
        before = op.accumulate(x)
        if op is np.add:        # restart the sum at every segment
            before -= np.repeat(before[starts] - seed,
                                np.diff(np.append(starts, len(v))))
        return fn(block, before)

    return segment_map(rows, bucket, kernel)
