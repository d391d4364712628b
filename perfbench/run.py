"""KG-construction benchmark: one run of one workload.

    python3 perfbench/run.py --workload kg_fused_distinct --seed 1 \
        --seconds 25 --trace 0

Run it from the root of a kgruntime checkout.  Inputs are generated
from ``--seed``; the run starts a 4-CPU Ray session in a worker process
(``worker.py``) and sets up: it builds the inputs three times (their
median counts), prepares the checks (references, oracle results, the
front-end check; not counted in ``setup_s``), starts Ray and runs one
untimed warm-up job.  Then it runs jobs in a closed loop (one at a
time, each result fully consumed and checked) for ``--seconds``, and
at least three.

Workloads: ``kg_fused_distinct`` and ``ops_grouping`` are the
benchmark's (``BENCHMARK.json``).  Two more run by hand:
``kg_checkpointed`` (``run_checkpointed`` with the ``scripts/kg_job.py``
defaults; its layers are in every KG traced run) and
``kg_fused_dup_skew`` (the fused pipeline over a small payload pool
with Zipf-hot subjects, for work on the dedup exchange and its skew).

This process watches the worker from outside: it samples the summed RSS
of the worker and every Ray process under it, the bytes in Ray's spill
directory, and the time of the running job; a job over ``JOB_TIMEOUT_S``
or a run over its deadline (``deadline``, derived from ``--seconds``,
at most ``MAX_SECONDS``) is killed and counted as failed, never
retried.  It counts the WARNING lines of the run by message.

Output: one report line (every metric with its unit, environment, input
sizes, warning counts, errors; also written under
``.perfbench/results/``), then the result line
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end ones (``--trace 0``) or the per-layer ones (``--trace 1``).
The end-to-end times are the busy CPU seconds of the machine while the
run's processes alone ran on it (``procfs.py``): ``cpu_s`` per job and
``setup_s`` for the set-up; their wall times are in the report.
A traced run also writes its spans under ``.perfbench/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from procfs import process_tree

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["kg_fused_distinct", "kg_fused_dup_skew", "kg_checkpointed",
             "ops_grouping"]
# the metrics of the result line: every workload reports them and none
# is ever 0.  Their times are busy CPU seconds (see procfs.py), which a
# shared host moves far less than wall time; wall_s, docs_per_s,
# triples_per_s, setup_wall_s, spilled_mb and failed_frac are in the
# report
END_TO_END = {"cpu_s": "s", "docs_per_cpu_s": "docs/s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER = {
    "ttl.lexer.us_per_doc": "us", "ttl.lexer.tokens_per_doc": "count",
    "ttl.parser.us_per_doc": "us", "ttl.builder.us_per_doc": "us",
    "ttl.builder.triples_per_doc": "count",
    "stages.extract.parse_batch.ms_per_batch": "ms",
    "stages.fused_link.ms_per_batch": "ms",
    "stages.fused_link.edge_rows": "count",
    "stages.linking.link_scorer.ms_per_batch": "ms",
    "stages.linking.edges_per_mention": "ratio",
    "job.exchanges": "count", "job.datasets": "count",
}
JOB_TIMEOUT_S = 60
# a run gets SETUP_ALLOWANCE_S for set-up, --seconds for the measured
# jobs, SLACK_S for the job that runs past the end and, when traced,
# LEDGER_ALLOWANCE_S for the traced jobs and the ablations; MAX_SECONDS
# keeps a traced run under 170 s
SETUP_ALLOWANCE_S = 45
SLACK_S = 25
LEDGER_ALLOWANCE_S = 75
MAX_SECONDS = 25
SAMPLE_S = 0.2
# Ray's unix sockets live at <temp dir>/session_<62 bytes>; a socket path
# may not exceed 107 bytes
RAY_TMP_MAX = 45
PAGE = os.sysconf("SC_PAGE_SIZE")


def deadline(seconds: float, trace: bool) -> float:
    return SETUP_ALLOWANCE_S + seconds + SLACK_S \
        + (LEDGER_ALLOWANCE_S if trace else 0)


def rss_bytes(pids) -> int:
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * PAGE
        except (OSError, IndexError, ValueError):
            pass
    return total


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_all(pids) -> None:
    """SIGKILL every process still alive and wait until each is gone."""
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    t_end = time.monotonic() + 10
    while time.monotonic() < t_end and any(_alive(p) for p in pids):
        time.sleep(0.05)


class Watch:
    """Samples the worker's process tree and spill directory."""

    def __init__(self, pid: int, spill: str):
        self.pid = pid
        self.spill = spill
        self.seen: set[int] = set()
        self.rss: list[tuple[float, int]] = []
        self.spilled: dict[str, tuple[float, int]] = {}

    def sample(self) -> None:
        pids = process_tree(self.pid)
        self.seen.update(pids)
        self.rss.append((time.monotonic(), rss_bytes(pids)))
        now = time.monotonic()
        for d, _, fs in os.walk(self.spill):
            for f in fs:
                p = os.path.join(d, f)
                try:
                    size = os.path.getsize(p)
                except OSError:
                    continue
                first = self.spilled.get(p, (now, 0))[0]
                self.spilled[p] = (first, max(size, self.spilled.get(
                    p, (now, 0))[1]))

    def peak(self, t0: float, t1: float) -> int:
        return max((b for t, b in self.rss if t0 <= t <= t1), default=0)

    def spilled_between(self, t0: float, t1: float) -> int:
        return sum(b for t, b in self.spilled.values() if t0 <= t <= t1)


def read_progress(path: str) -> list[dict]:
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError:
        return []
    out = []
    for ln in lines:
        try:
            out.append(json.loads(ln))
        except ValueError:
            pass                   # a line cut by a kill
    return out


_NOISE = [(re.compile(r"\x1b\[[0-9;]*m"), ""),
          (re.compile(r"^\(.*?pid=\d+[^)]*\)\s*"), ""),
          (re.compile(r"^[\d\-: ,.]+"), ""),
          (re.compile(r"\d+"), "N")]


def count_warnings(log: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    try:
        with open(log, errors="replace") as f:
            for line in f:
                if "WARNING" not in line:
                    continue
                msg = line.strip()
                for pat, rep in _NOISE:
                    msg = pat.sub(rep, msg)
                msg = msg[:200]
                counts[msg] = counts.get(msg, 0) + 1
    except OSError:
        pass
    return counts


def summarize(recs: list[dict], watch: Watch, trace: bool,
              finished: bool, reason: str) -> tuple[dict, dict]:
    setup = next((r for r in recs if r["kind"] == "setup"), {})
    setup_done = next((r for r in recs if r["kind"] == "setup_done"), {})
    jobs = [r for r in recs if r["kind"] == "job"]
    started = {(r["index"], r["phase"]) for r in recs if r["kind"] == "start"}
    unfinished = len(started - {(j["index"], j["phase"]) for j in jobs})
    attempted = setup.get("attempted", 0) + sum(j["attempted"] for j in jobs) \
        + unfinished
    failed = setup.get("failed", 0) + sum(j["failed"] for j in jobs) \
        + unfinished
    crashed = any(j["wall_s"] is None for j in jobs) or unfinished > 0
    errors = list(setup.get("errors", []))
    for j in jobs:
        errors.extend(j.get("errors", []))
    if reason:
        errors.append(reason)
    if not setup:
        crashed = True
        attempted, failed = max(1, attempted), max(1, failed)
    measured = [j for j in jobs if j["phase"] == "measure"
                and j["wall_s"] is not None]
    traced = [j for j in jobs if j["phase"] == "traced"
              and j["wall_s"] is not None]
    sizes = setup.get("sizes", {})
    n_docs = sizes.get("docs", sizes.get("n_docs", 0))
    metrics: dict[str, tuple[float, str]] = {}
    if measured:
        # the mean, not the median: a job's CPU time moves by about 0.6 s
        # with each Ray worker process it happens to start (1 to 6 per
        # kg_fused_distinct job), which a mean of a run's jobs averages out
        cpu = statistics.mean(j["cpu_s"] for j in measured)
        if cpu > 0:        # 0 if no CPU of this process is in /proc/stat
            metrics["cpu_s"] = (cpu, "s")
            metrics["docs_per_cpu_s"] = (n_docs / cpu, "docs/s")
        wall = median_wall(measured)
        metrics["wall_s"] = (wall, "s")
        metrics["docs_per_s"] = (n_docs / wall, "docs/s")
        if "parsed_triples" in sizes:
            metrics["triples_per_s"] = (sizes["parsed_triples"] / wall,
                                        "triples/s")
        metrics["peak_rss_mb"] = (statistics.median(
            watch.peak(j["t0"], j["t1"]) for j in measured) / 1e6, "MB")
        metrics["spilled_mb"] = (watch.spilled_between(
            measured[0]["t0"], measured[-1]["t1"]) / 1e6, "MB")
    if "setup_s" in setup_done:
        metrics["setup_s"] = (setup_done["setup_s"], "s")
        metrics["setup_wall_s"] = (setup_done["setup_wall_s"], "s")
    metrics["failed_frac"] = (failed / max(1, attempted), "ratio")
    ledger = next((r["metrics"] for r in recs if r["kind"] == "ledger"), {})
    layer: dict[str, tuple[float, str]] = {}
    if ledger:
        for k, v in ledger.items():
            layer[k] = (v, PER_LAYER.get(k, _unit(k)))
        layer["job.exchanges"] = (statistics.median(
            j["exchanges"] for j in measured), "count")
        layer["job.datasets"] = (statistics.median(
            j["datasets"] for j in measured), "count")
        layer["trace.overhead_s"] = (overhead(measured, traced), "s")
    unresolved = sorted(k for k, (v, _) in layer.items() if v is None)
    correct = finished and not crashed and failed == 0 and (
        all(k in layer for k in PER_LAYER) if trace
        else all(k in metrics for k in END_TO_END))
    report = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "env": setup.get("env", {}), "sizes": sizes,
        "setup_parts_s": {k: setup.get(k) for k in (
            "inputs_s", "inputs_builds_s", "ray_start_s", "checks_s")},
        "jobs_wall_s": [j["wall_s"] for j in measured],
        "jobs_cpu_s": [j["cpu_s"] for j in measured],
        "jobs_exchanges": [j.get("exchanges") for j in measured],
        "traced_wall_s": [j["wall_s"] for j in traced],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in layer.items()},
        "unresolved": unresolved,
        "errors": errors[:20],
    }
    chosen = layer if trace else metrics
    names = PER_LAYER if trace else END_TO_END
    result = {"correct": correct, "attempted": max(1, attempted),
              "failed": failed,
              "metrics": {k: {"value": chosen[k][0], "unit": chosen[k][1]}
                          for k in names if k in chosen}}
    return report, result


def median_wall(jobs: list[dict]) -> float:
    """Median job time; for jobs made of independent calls (``parts``),
    the sum of each call's median, so that a slow spell of the host
    during one call of one job does not move the whole job's time."""
    if "parts" in jobs[0]:
        return sum(statistics.median(j["parts"][q]["wall_s"] for j in jobs)
                   for q in jobs[0]["parts"])
    return statistics.median(j["wall_s"] for j in jobs)


def overhead(measured: list[dict], traced: list[dict]) -> float | None:
    """Traced minus untraced ``median_wall``; None (unresolved) with
    fewer than 3 jobs of either kind or when the difference is not
    larger than the spread (interquartile range) of the untraced jobs."""
    if len(measured) < 3 or len(traced) < 3:
        return None
    untraced = [j["wall_s"] for j in measured]
    d = median_wall(traced) - median_wall(measured)
    q1, _, q3 = statistics.quantiles(untraced, n=4)
    return d if d > q3 - q1 else None


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s":
        return "s"
    if last.endswith("_mb"):
        return "MB"
    if last.endswith("_over_mean") or last.startswith("edges_per"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help=f"measuring time, at most {MAX_SECONDS}")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    root = os.getcwd()
    missing = [p for p in ("kgruntime/__init__.py", "__ray_entry__.py",
                           "scripts/check_oracle.py")
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not a kgruntime checkout ({root} lacks "
              f"{', '.join(missing)}); run from the repository root",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"w{os.getpid()}")
    for d in ("results", "trace"):
        os.makedirs(os.path.join(base, d), exist_ok=True)
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    progress = os.path.join(work, "progress.jsonl")
    log = os.path.join(work, "worker.log")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Ray's temp dir is in the checkout unless the checkout's path is too
    # long for Ray's sockets; then a short one in the system temp dir is
    # made, and removed with the run
    ray_tmp = os.path.join(base, "ray")
    ray_tmp_inside = len(ray_tmp) <= RAY_TMP_MAX
    if not ray_tmp_inside:
        ray_tmp = tempfile.mkdtemp(prefix="perfbench-ray-")
    os.makedirs(ray_tmp, exist_ok=True)
    sessions = set(os.listdir(ray_tmp))
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"),
               RAY_TMPDIR=os.path.join(work, "tmp"),
               PYTHONPATH=os.pathsep.join(
                   [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root, "--work", work, "--ray-tmp", ray_tmp,
           "--progress", progress,
           "--trace-out", os.path.join(base, "trace", f"{tag}.json")
           if args.trace else ""]
    reason = ""
    run_deadline = deadline(args.seconds, bool(args.trace))
    with open(log, "w") as logf:
        child = subprocess.Popen(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL, cwd=root, env=env,
                                 start_new_session=True)
        watch = Watch(child.pid, os.path.join(work, "spill"))
        try:
            while child.poll() is None:
                watch.sample()
                now = time.monotonic()
                if now - t_start > run_deadline:
                    reason = f"run killed after {run_deadline:.0f} s"
                    break
                recs = read_progress(progress)
                done = {(r["index"], r["phase"]) for r in recs
                        if r["kind"] == "job"}
                open_jobs = [r for r in recs if r["kind"] == "start"
                             and (r["index"], r["phase"]) not in done]
                if open_jobs and now - open_jobs[-1]["t0"] > JOB_TIMEOUT_S:
                    reason = (f"job {open_jobs[-1]['index']} killed after "
                              f"{JOB_TIMEOUT_S} s")
                    break
                time.sleep(SAMPLE_S)
        finally:
            watch.seen.update(process_tree(child.pid))
            stop_all([p for p in watch.seen if p != child.pid])
            if child.poll() is None:
                child.kill()
            child.wait()
    recs = read_progress(progress)
    finished = any(r["kind"] == "done" for r in recs)
    if not finished and not reason:
        reason = f"worker exited with code {child.returncode}"
    report, result = summarize(recs, watch, bool(args.trace), finished,
                               reason)
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, ray_tmp_in_checkout=ray_tmp_inside,
                  warnings=count_warnings(log), run_s=time.monotonic() - t_start)
    with open(os.path.join(base, "results", f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    if not result["correct"]:
        shutil.copy(log, os.path.join(base, "results", f"{tag}.log"))
    shutil.rmtree(work, ignore_errors=True)
    if ray_tmp_inside:
        for d in set(os.listdir(ray_tmp)) - sessions:
            if d.startswith("session_2"):
                shutil.rmtree(os.path.join(ray_tmp, d), ignore_errors=True)
    else:
        shutil.rmtree(ray_tmp, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
