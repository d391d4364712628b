"""Bucketed hash join — the explicit partitioned-join pattern.

``Dataset.join`` in Ray 2.49 raises ``ArrowInvalid`` when a hash
partition comes up empty on one side (the empty partition loses its
schema), which happens constantly at the small end and can happen at the
large end with skewed keys.  This operator implements the portable
pattern instead: add ``bucket = hash(key) % B`` to both sides, ship both
through ONE ``groupby(bucket)`` shuffle, and run a vectorized in-memory
Arrow (acero) join per bucket.

Schema harmonization: the two sides are unioned into one dataset, so
each side carries null-typed placeholders for the other side's columns
plus a side tag; per bucket the group splits back into left/right and
``pa.Table.join`` does the actual work.  Join key skew: pick
``num_buckets`` ≳ cluster cores; a hot key lands in one bucket but the
per-bucket join is still vectorized C++.
"""

from __future__ import annotations


import pyarrow as pa
import pyarrow.compute as pc

_BUCKET = "__jb"
_SIDE = "__js"


def _bucket_array(col, num_buckets: int) -> pa.Array:
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_integer(col.type):
        vals = col.to_numpy(zero_copy_only=False)
        return pa.array((vals % num_buckets).astype("int32"), pa.int32())
    # vectorized string hash (polars ahash via canon._hash_col) — a
    # per-row Python crc32 here was the dominant cost of the join-path
    # remap at 1.66M rows
    from ..stages.canon import _hash_col

    return _hash_col(col, mod=num_buckets)


def default_num_buckets() -> int:
    """4× the cluster's CPUs (min 32) — the shared parallelism unit for
    bucketed exchanges (join buckets, keep-first dedup groups)."""
    import ray
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(32, 4 * cpus)


def bucketed_hash_join(left, right, left_on: str, right_on: str,
                       how: str = "inner", num_buckets: int | None = None):
    """Join two Datasets on a single key column.

    Output columns: all left columns + all right columns except
    ``right_on`` (Arrow join semantics).  ``how`` ∈ {"inner",
    "left outer"} (acero names; "left_outer" accepted as alias).

    ``num_buckets`` defaults to 4× the cluster's CPUs (min 32): the
    per-bucket acero join is the parallelism unit, and 32 fixed buckets
    capped a 3.2M-row text join at 32-way concurrency (measured 40 s →
    18 s at 128 buckets on 32 CPUs).  Results are bucketing-invariant.
    """
    how = how.replace("_", " ")
    if num_buckets is None:
        num_buckets = default_num_buckets()
    l_schema = left.schema()   # ray.data Schema wrapper (.names/.types)
    r_schema = right.schema()
    l_names = list(l_schema.names)
    r_names = list(r_schema.names)
    overlap = (set(l_names) & set(r_names)) - {right_on}
    if overlap:
        raise ValueError(f"column collision (rename first): {overlap}")
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))

    all_types = {**l_types, **r_types}
    all_names = l_names + r_names  # canonical union column order

    def prep(side: int, key: str, own: set):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            arrays = [t[c] if c in own else pa.nulls(n, all_types[c])
                      for c in all_names]
            arrays.append(_bucket_array(t[key], num_buckets))
            arrays.append(pa.array([side] * n, pa.int8()))
            return pa.Table.from_arrays(arrays,
                                        names=all_names + [_BUCKET, _SIDE])
        return fn

    lds = left.map_batches(prep(0, left_on, set(l_names)),
                           batch_format="pyarrow")
    rds = right.map_batches(prep(1, right_on, set(r_names)),
                            batch_format="pyarrow")

    out_names = l_names + [c for c in r_names if c != right_on]

    def join_bucket(g: pa.Table) -> pa.Table:
        is_left = pc.equal(g[_SIDE], 0)
        lt = g.filter(is_left).select(l_names)
        rt = g.filter(pc.invert(is_left)).select(r_names)
        j = lt.join(rt, keys=[left_on], right_keys=[right_on],
                    join_type=how)
        # acero may reorder columns; normalize
        return j.select(out_names).combine_chunks()

    return lds.union(rds).groupby(_BUCKET).map_groups(
        join_bucket, batch_format="pyarrow")
