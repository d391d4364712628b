"""Distributed as-of (time-travel) and interval (range/band) joins.

Ray Data has no native as-of join; this is the documented
custom-operator composition (SURVEY.md §2 "custom operators"): both
sides meet on the ``by`` key in ``groups.cogroup`` (the one two-sided
exchange; its contract is in the ``ops/groups.py`` docstring), each
with its own column types, and each coarse block runs pandas
``merge_asof`` — a vectorized, C-backed sorted merge — over its slice,
returning Arrow (a pandas block downstream of a sort or groupby is
slow; CLAUDE.md).

Partitioning assumptions (stated per the scale contract):

* one coarse block's rows (left + right side together) fit a worker's
  heap — the block count is ``join.default_num_buckets()`` (4× the
  cluster's CPUs), so a 100 TB input needs a cluster whose blocks each
  fit a worker and/or pre-filtered columns;
* the right side is unique per (by, on) — enforced deterministically
  inside each block when ``unique_right=True`` (keep the row with the
  lexicographically-largest payload, i.e. ``max()`` per key), matching
  an aggregating SQL oracle;
* a pathological hot ``by`` key lands in one block; the per-block
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

from .groups import cogroup


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
    An integer right column comes out as float64 (NaN for no match)
    unless ``how="inner"``.
    """
    l_schema, r_schema = left.schema(), right.schema()
    l_names, r_names = list(l_schema.names), list(r_schema.names)
    overlap = (set(l_names) & set(r_names)) - {by, on}
    if overlap:
        raise ValueError(f"column collision (rename first): {overlap}")
    r_types = dict(zip(r_schema.names, r_schema.types))
    r_extras = [c for c in r_names if c not in (by, on)]
    out_names = l_names + r_extras
    out_schema = pa.schema(
        list(zip(l_schema.names, l_schema.types))
        + [(c, pa.float64() if how != "inner"
            and pa.types.is_integer(r_types[c]) else r_types[c])
           for c in r_extras])

    def join_block(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt = lt.to_pandas().sort_values(on, kind="mergesort")
        rt = rt.select([by, on] + r_extras).to_pandas()
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
        return pa.Table.from_pandas(out[out_names], schema=out_schema,
                                    preserve_index=False)

    return cogroup(left, right, by, by, join_block)


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
