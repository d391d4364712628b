"""Bucketed hash join — the explicit partitioned-join pattern.

``Dataset.join`` in Ray 2.49 raises ``ArrowInvalid`` when a hash
partition comes up empty on one side (the empty partition loses its
schema), which happens constantly at the small end and can happen at the
large end with skewed keys.  This operator is ``groups.cogroup`` (the one
two-sided exchange; its contract is in the ``ops/groups.py`` docstring)
plus a vectorized in-memory Arrow (acero) join per coarse block.  Join
key skew: a hot key lands in one block, but the per-block join is still
vectorized C++.
"""

from __future__ import annotations

from .groups import cogroup


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
                       how: str = "inner"):
    """Join two Datasets on a single key column.

    Output columns: all left columns + all right columns except
    ``right_on`` (Arrow join semantics).  ``how`` ∈ {"inner",
    "left outer"} (acero names; "left_outer" accepted as alias).

    The coarse block count is ``default_num_buckets()`` (4× the
    cluster's CPUs, min 32): the per-block acero join is the
    parallelism unit, and 32 fixed buckets capped a 3.2M-row text join
    at 32-way concurrency (measured 40 s → 18 s at 128 buckets on 32
    CPUs).  Results are bucketing-invariant.
    """
    how = how.replace("_", " ")
    l_names = list(left.schema().names)
    r_names = list(right.schema().names)
    overlap = (set(l_names) & set(r_names)) - {right_on}
    if overlap:
        raise ValueError(f"column collision (rename first): {overlap}")
    out_names = l_names + [c for c in r_names if c != right_on]

    def join_block(lt, rt):
        j = lt.join(rt, keys=[left_on], right_keys=[right_on],
                    join_type=how)
        # acero may reorder columns; normalize
        return j.select(out_names).combine_chunks()

    return cogroup(left, right, left_on, right_on, join_block)
