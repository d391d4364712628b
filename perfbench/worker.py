"""One benchmark run of one workload, started by ``run.py``.

Owns the Ray session.  Writes its progress as JSON lines (set-up
record, a ``start`` record before and a ``job`` record after every job,
the ledger in traced runs, ``done`` at the end) so that ``run.py`` can
account for a run that hangs or crashes part way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# set-up builds the inputs this many times and reports the median; the
# loop runs at least MIN_JOBS measured jobs, a traced run MIN_JOBS traced
# ones after them
SETUP_REPS = 3
MIN_JOBS = 3


class Progress:
    def __init__(self, path: str):
        self.f = open(path, "a")

    def put(self, **rec) -> None:
        self.f.write(json.dumps(rec) + "\n")
        self.f.flush()

    def close(self) -> None:
        self.f.close()


def environment(cpus: int) -> dict:
    import duckdb
    import polars
    import pyarrow
    import ray

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    return {"ray_cpus": cpus, "affinity_cpus": len(os.sched_getaffinity(0)),
            "nproc": nproc, "python": sys.version.split()[0],
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "polars": polars.__version__, "duckdb": duckdb.__version__}


def start_ray(cpus: int, work: str, ray_tmp: str):
    import ray
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    spill = os.path.join(work, "spill")
    os.makedirs(spill, exist_ok=True)
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", object_store_memory=1_000_000_000,
             _temp_dir=ray_tmp,
             _system_config={"object_spilling_config": json.dumps(
                 {"type": "filesystem",
                  "params": {"directory_path": spill}})})
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # push-based shuffle, as scripts/kg_job.py runs it, set through the
    # current knob rather than the deprecated use_push_based_shuffle
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    @ray.remote(num_cpus=1)
    def where() -> str:
        import kgruntime

        return kgruntime.__file__

    # fail fast when workers cannot import the package (a fused actor
    # pool would otherwise restart its actors forever)
    ray.get(where.remote(), timeout=60)


def wait_idle(timeout: float = 10.0) -> None:
    """Closed loop: the next job starts once the last one's actors and
    tasks have released every CPU."""
    import ray

    total = ray.cluster_resources().get("CPU", 0)
    t_end = time.monotonic() + timeout
    while (ray.available_resources().get("CPU", 0) < total
           and time.monotonic() < t_end):
        time.sleep(0.05)


def run_job(wl, index: int, phase: str, tr, plans, prog: Progress) -> dict:
    wait_idle()
    prog.put(kind="start", index=index, phase=phase, t0=time.monotonic())
    t0 = time.monotonic()
    try:
        res = wl.job(index, tr, plans)
    except Exception:
        res = {"wall_s": None, "attempted": 1, "failed": 1,
               "errors": [traceback.format_exc(limit=8)[-2000:]]}
    res.update(kind="job", index=index, phase=phase, t0=t0,
               t1=time.monotonic())
    prog.put(**res)
    return res


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--progress", required=True)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args()
    sys.path.insert(0, args.root)

    import workloads
    from procfs import cpu_busy_s
    from spans import NullTracer, PlanLog, Tracer

    prog = Progress(args.progress)
    cpus = min(4, len(os.sched_getaffinity(0)))
    wl = workloads.make(args.workload, args.work, args.seed, args.root)

    # set-up is timed by wall clock and by busy CPU time (procfs.py);
    # setup_s is the CPU time
    builds, builds_cpu = [], []
    for _ in range(SETUP_REPS):
        c0, t0 = cpu_busy_s(), time.perf_counter()
        sizes = wl.build_inputs()
        builds.append(time.perf_counter() - t0)
        builds_cpu.append(cpu_busy_s() - c0)
    inputs_s = statistics.median(builds)
    t0 = time.perf_counter()
    checks = wl.prepare_checks()
    checks_s = time.perf_counter() - t0
    sizes.update(checks.pop("sizes"))
    ledger = {}
    if args.trace:
        corpus, aliases = wl.ledger_corpus()
        ledger = workloads.module_ledger(corpus, aliases)
    c0, t0 = cpu_busy_s(), time.perf_counter()
    start_ray(cpus, args.work, args.ray_tmp)
    ray_s, ray_cpu = time.perf_counter() - t0, cpu_busy_s() - c0
    plans = PlanLog().install()
    prog.put(kind="setup", env=environment(cpus), inputs_s=inputs_s,
             inputs_builds_s=builds, checks_s=checks_s, ray_start_s=ray_s,
             sizes=sizes, **checks)
    null = NullTracer()

    c0 = cpu_busy_s()
    warm = run_job(wl, 0, "warmup", null, plans, prog)
    prog.put(kind="setup_done",
             setup_s=statistics.median(builds_cpu) + ray_cpu
             + cpu_busy_s() - c0,
             setup_wall_s=inputs_s + ray_s + warm["t1"] - warm["t0"])
    jobs = []
    if warm["wall_s"] is not None:
        t_end = time.monotonic() + args.seconds
        while len(jobs) < MIN_JOBS or time.monotonic() < t_end:
            jobs.append(run_job(wl, len(jobs) + 1, "measure", null, plans,
                                prog))
            if jobs[-1]["wall_s"] is None:
                break
    if args.trace and all(j["wall_s"] is not None for j in jobs):
        tr = Tracer()
        for i in range(MIN_JOBS):
            run_job(wl, 1000 + i, "traced", tr, plans, prog)
        t0 = time.monotonic()
        try:
            ledger.update(wl.stage_ledger(tr, plans))
        except Exception:
            prog.put(kind="job", index=-1, phase="ledger", wall_s=None,
                     attempted=1, failed=1, t0=t0, t1=time.monotonic(),
                     errors=[traceback.format_exc(limit=8)[-2000:]])
        prog.put(kind="ledger", metrics=ledger)
        if args.trace_out:
            tr.dump(args.trace_out, {"workload": args.workload,
                                     "seed": args.seed, "ledger": ledger})
    import ray

    ray.shutdown()
    prog.put(kind="done")
    prog.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
