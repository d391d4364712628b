"""Cluster-aware stage sizing.

Actor-pool bounds must scale with the CLUSTER the job actually landed
on, not a host constant baked in at authoring time: a ``(2, 8)`` pool
tuned on a 32-CPU dev box starves a 256-node cluster, and a pool sized
to every core deadlocks the upstream read (CLAUDE.md lesson — leave
~1/4 headroom for reads/shuffles).  Every stage default routes through
these helpers; only bench.py and the CLI own explicit CPU counts.

Never calls ``ray.init`` — if Ray isn't up yet (driver imports the
module before initialising), falls back to the local CPU count.
"""

from __future__ import annotations

import os


def cluster_cpus(default: int | None = None) -> int:
    """Total CPUs of the running Ray cluster (local fallback when Ray
    isn't initialised yet)."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", default or 8))
    return default if default is not None else (os.cpu_count() or 8)


def pool_range(frac: float = 0.25, lo: int = 2,
               floor: int = 4) -> tuple[int, int]:
    """Autoscaling actor-pool bounds ``(lo, max(floor, frac·cpus))`` —
    grows with the cluster, reproduces the measured single-node tunings
    at 32 CPUs (frac=0.25 → (lo, 8)).  The upper bound is additionally
    capped at ``cpus - cpus//4`` so the headroom invariant holds on
    small hosts too (``floor=4`` used to hand a 4-core box its every
    CPU and starve the upstream read)."""
    cpus = cluster_cpus()
    hi = max(floor, int(cpus * frac))
    hi = min(hi, max(lo + 1, cpus - max(1, cpus // 4)))
    return (lo, max(hi, lo + 1))

