"""Distributed as-of (time-travel) and interval (range/band) joins.

Ray Data has no native as-of join; this is the documented
custom-operator composition (SURVEY.md §2 "custom operators"): both
sides are co-partitioned by the ``by`` key with ONE union +
``groupby(bucket)`` shuffle, then each bucket runs pandas
``merge_asof`` — a vectorized, C-backed sorted merge — over its slice.

Partitioning assumptions (stated per the scale contract):

* one bucket's rows (left + right side together) fit a worker's heap —
  the bucket count is ``join.default_num_buckets()`` (4× the cluster's
  CPUs), so a 100 TB input needs a cluster whose buckets each fit a
  worker and/or pre-filtered columns;
* the right side is unique per (by, on) — enforced deterministically
  inside each bucket when ``unique_right=True`` (keep the row with the
  lexicographically-largest payload, i.e. ``max()`` per key), matching
  an aggregating SQL oracle;
* a pathological hot ``by`` key lands in one bucket; the per-bucket
  merge is still O(n log n) vectorized, but for extreme skew shard the
  key by time range and asof-join each shard against the right side's
  matching + preceding shard.

The interval join needs no shuffle at all: the band table is tiny, so
each batch binary-searches the sorted band edges (``np.searchsorted``)
— the broadcast-small-side pattern.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .join import _bucket_array, default_num_buckets

_BUCKET = "__ab"
_SIDE = "__asof_side"


def asof_join(left, right, by: str, on: str, how: str = "left",
              unique_right: bool = True, direction: str = "backward"):
    """As-of join: for each left row, attach the right row with the
    greatest ``on`` value ≤ the left row's ``on`` (the default
    direction="backward"); direction="forward" takes the smallest ``on``
    ≥ instead, and "nearest" the closest in either direction (ties →
    the backward side, pandas semantics).  Matching is on the ``by``
    key.

    ``left`` / ``right`` are Datasets sharing the ``by`` and ``on``
    column names; every other column name must be disjoint.  Output =
    all left columns + the right side's non-key columns (the right
    ``on`` itself is consumed — carry a copy column if its value is
    needed downstream).  ``how="inner"`` drops left rows with no match.
    """
    l_schema, r_schema = left.schema(), right.schema()
    l_names, r_names = list(l_schema.names), list(r_schema.names)
    overlap = (set(l_names) & set(r_names)) - {by, on}
    if overlap:
        raise ValueError(f"column collision (rename first): {overlap}")
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))
    all_types = {**l_types, **r_types}
    all_names = l_names + [c for c in r_names if c not in (by, on)]
    r_extras = [c for c in r_names if c not in (by, on)]
    out_names = l_names + r_extras
    num_buckets = default_num_buckets()

    def prep(side: int, own: set):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            arrays = [t[c] if c in own else pa.nulls(n, all_types[c])
                      for c in all_names]
            arrays.append(_bucket_array(t[by], num_buckets))
            arrays.append(pa.array([side] * n, pa.int8()))
            return pa.Table.from_arrays(arrays,
                                        names=all_names + [_BUCKET, _SIDE])
        return fn

    lds = left.map_batches(prep(0, set(l_names)), batch_format="pyarrow")
    rds = right.map_batches(prep(1, set(r_names)), batch_format="pyarrow")

    # the union carries nulls in each side's missing columns, so pandas
    # promotes int columns to float64 — restore the declared dtypes on
    # the way out (right extras only under inner, where no NaN survives)
    int_cols = [c for c in l_names if pa.types.is_integer(all_types[c])]
    if how == "inner":
        int_cols += [c for c in r_extras
                     if pa.types.is_integer(all_types[c])]
    int_dtypes = {c: np.dtype(all_types[c].to_pandas_dtype())
                  for c in int_cols}

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        is_left = df[_SIDE] == 0
        lt = df.loc[is_left, l_names].sort_values(on, kind="mergesort")
        rt = df.loc[~is_left, [by, on] + r_extras]
        if unique_right:
            # deterministic per-(by, on) representative: total-order sort
            # then keep last ≡ max() over the payload columns (the SQL
            # oracle mirrors this with max() aggregation)
            rt = rt.sort_values([on, by] + r_extras, kind="mergesort") \
                .drop_duplicates([by, on], keep="last")
        rt = rt.sort_values(on, kind="mergesort")
        out = pd.merge_asof(lt, rt, on=on, by=by, direction=direction,
                            allow_exact_matches=True)
        if how == "inner" and r_extras:
            out = out[out[r_extras[0]].notna()]
        out = out[out_names]
        for c, dt in int_dtypes.items():
            out[c] = out[c].astype(dt)
        return out

    return lds.union(rds).groupby(_BUCKET).map_groups(
        join_bucket, batch_format="pandas")


def band_join(ds, bands: pa.Table, value_col: str,
              lo_col: str = "lo", hi_col: str = "hi"):
    """Interval containment join against a small band table
    (``lo ≤ value < hi``), broadcast — zero shuffle.

    Bands must be non-overlapping; rows matching no band are dropped
    (inner semantics).  Attaches every band column except lo/hi.
    """
    lo = np.asarray(bands[lo_col].to_pylist(), np.float64)
    hi = np.asarray(bands[hi_col].to_pylist(), np.float64)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    if np.any(hi[:-1] > lo[1:]):
        raise ValueError("bands overlap")
    attach_cols = [c for c in bands.column_names if c not in (lo_col, hi_col)]
    attach = {c: bands[c].take(pa.array(order)).combine_chunks()
              for c in attach_cols}

    def fn(t: pa.Table) -> pa.Table:
        v = np.asarray(t[value_col].to_pylist(), np.float64)
        idx = np.searchsorted(lo, v, side="right") - 1
        clipped = np.clip(idx, 0, len(lo) - 1)
        valid = (idx >= 0) & (v < hi[clipped])
        t = t.filter(pa.array(valid))
        take_idx = pa.array(clipped[valid].astype(np.int64))
        for c in attach_cols:
            t = t.append_column(c, pc.take(attach[c], take_idx))
        return t

    return ds.map_batches(fn, batch_format="pyarrow")
