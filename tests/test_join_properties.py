"""Property tests for the join primitives every pipeline leans on:
bucketed_hash_join (int and string keys) vs a pandas merge reference,
asof_join (all three directions) vs single-frame merge_asof, and the
runtime pool sizers."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _rand_tables(seed, str_keys: bool = False):
    rng = np.random.RandomState(seed)
    n_l, n_r = rng.randint(1, 400), rng.randint(1, 400)
    lk = rng.randint(0, 50, n_l).astype(np.int64)
    rk = rng.randint(0, 50, n_r).astype(np.int64)
    if str_keys:
        lk, rk = ([f"key-{v}" for v in k] for k in (lk, rk))
    left = pa.table({"k": lk,
                     "lv": rng.randint(0, 1000, n_l).astype(np.int64)})
    right = pa.table({"rk": rk,
                      "rv": rng.randint(0, 1000, n_r).astype(np.int64)})
    return left, right


def _check_join(monkeypatch, left, right, how):
    """bucketed_hash_join over 5 × 3 input blocks and 7 coarse buckets
    (so most buckets hold several keys) against one pandas merge."""
    import ray.data as rd

    from kgruntime.ops import join

    monkeypatch.setattr(join, "default_num_buckets", lambda: 7)
    got = join.bucketed_hash_join(
        rd.from_arrow(left).repartition(5),
        rd.from_arrow(right).repartition(3),
        "k", "rk", how=how).to_pandas()

    want = pd.merge(left.to_pandas(), right.to_pandas(),
                    left_on="k", right_on="rk",
                    how="inner" if how == "inner" else "left") \
        .drop(columns=["rk"])
    key = ["k", "lv", "rv"]

    def canon(df):
        df = df[key].copy()
        df["rv"] = df["rv"].astype("float64")  # left-outer NaNs
        return sorted(map(tuple, df.fillna(-1).values.tolist()))

    assert list(got.columns) == ["k", "lv", "rv"]
    assert canon(got) == canon(want)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("how", ["inner", "left outer"])
def test_bucketed_hash_join_matches_pandas(ray_session, monkeypatch, seed,
                                           how):
    _check_join(monkeypatch, *_rand_tables(seed), how)


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("how", ["inner", "left outer"])
def test_bucketed_hash_join_string_keys_match_pandas(ray_session,
                                                     monkeypatch, seed, how):
    _check_join(monkeypatch, *_rand_tables(seed, str_keys=True), how)


@pytest.mark.parametrize("direction", ["backward", "forward", "nearest"])
def test_asof_join_directions_match_single_frame(ray_session, direction):
    import ray.data as rd

    from kgruntime.ops.asof import asof_join

    rng = np.random.RandomState(17)
    n_l, n_r = 300, 200
    left = pa.table({
        "by": rng.randint(0, 10, n_l).astype(np.int64),
        "on": np.sort(rng.randint(0, 10_000, n_l)).astype(np.int64),
        "lv": np.arange(n_l, dtype=np.int64),
    })
    # unique (by, on) on the right so unique_right dedup is a no-op and
    # the single-frame reference is unambiguous
    pairs = {(int(b), int(o)) for b, o in
             zip(rng.randint(0, 10, n_r), rng.randint(0, 10_000, n_r))}
    pairs = sorted(pairs)
    right = pa.table({
        "by": pa.array([p[0] for p in pairs], pa.int64()),
        "on": pa.array([p[1] for p in pairs], pa.int64()),
        "rv": pa.array(list(range(len(pairs))), pa.int64()),
    })

    got = asof_join(rd.from_arrow(left).repartition(4),
                    rd.from_arrow(right).repartition(3),
                    by="by", on="on", how="inner",
                    direction=direction).to_pandas()

    lt = left.to_pandas().sort_values("on", kind="mergesort")
    rt = right.to_pandas().sort_values("on", kind="mergesort")
    want = pd.merge_asof(lt, rt, on="on", by="by", direction=direction)
    want = want[want["rv"].notna()]

    key = ["by", "on", "lv", "rv"]
    assert sorted(map(tuple, got[key].astype("int64").values.tolist())) == \
        sorted(map(tuple, want[key].astype("int64").values.tolist()))


def test_pool_sizers_scale_with_cluster(ray_session):
    from kgruntime.runtime import cluster_cpus, pool_range

    cpus = cluster_cpus()
    assert cpus >= 1
    lo, hi = pool_range(frac=0.25, lo=2)
    # hi grows with the cluster but never claims every CPU (headroom
    # invariant, capped at cpus - cpus//4 on small hosts)
    want_hi = min(max(4, int(cpus * 0.25)),
                  max(lo + 1, cpus - max(1, cpus // 4)))
    assert lo == 2 and hi == max(want_hi, lo + 1) and hi > lo
