"""Broadcast-side cache for task stages with per-worker state.

``ray.get`` of the same ObjectRef inside one worker process re-pays
deserialization per call; an actor pool amortizes it via ``__init__``
but starts a fresh worker process per actor for every Dataset (~0.7
CPU-s each on a 4-CPU host) and kills it when the Dataset finishes.  A
plain-task stage + this per-process memo gets both: no pool and one
fetch + build per worker process — for light lookup state (a dict, a key
array) and for built scorers alike (the KG path's ``FusedParseLink`` and
``LinkScorer`` stages).

The cache is BOUNDED: one built value per tag.  Task workers outlive the
job that put the ref, and every job puts new refs, so a cache keyed by
(ref, tag) would keep every old job's scorer / remap mapping forever.
The ref is compared on every call, so a stale entry is rebuilt, never
served.

It is the only per-process broadcast cache in kgruntime: every
``ray.put`` state a task stage reads (the ANN top-k state of
``ops/ann.py``, Bloom bits, offset and band tables, centroids) goes
through ``cached_get``, each call site under its own tag named after
the op and the state (``"int8_quant_recall-codes"``,
``"set_sim_join-bloom"``), so two stages never evict each other.
"""

from __future__ import annotations

# tag -> (ref hex, built value)
_CACHE: dict[str, tuple] = {}


def cached_get(ref, build=None, tag: str = ""):
    """ray.get(ref), memoized per worker process.

    ``build`` (optional) post-processes the fetched object (e.g. wraps a
    dict into a lookup structure); the BUILT value is what gets cached.
    Each ``tag`` holds one entry, replaced when called with a different
    ref, so the tag must name everything ``build`` bakes in besides the
    ref's object (e.g. a threshold).  Two stages of one pipeline that
    share a tag but not a ref rebuild whenever a worker switches between
    them, which only light state (e.g. ``AddBuckets``) can afford.
    """
    import ray

    key = ref.hex()
    hit = _CACHE.get(tag)
    if hit is None or hit[0] != key:
        _CACHE.pop(tag, None)        # drop the old value before building
        obj = ray.get(ref)
        hit = (key, build(obj) if build is not None else obj)
        _CACHE[tag] = hit
    return hit[1]
