"""Benchmark harness (driver contract).

Headline: the full KG-construction pipeline (synthesize → parse →
link → union-find canonicalize → dedup → partitioned write) over a
corpus sized from $GRAFT_SF_DIR's documents table, plus per-query
timings for representative operators at the same scale factor.

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ..., "triples_per_sec": ...}

--scaling: runs the headline twice in fresh processes at 8 and 32 CPUs
(sandbox proxy for N vs 4N nodes) and prints throughput + efficiency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from perfbench.corpus import Profile, make_corpus, name_pools

DEFAULT_SF_DIR = "/root/testdata/sf0.1"
# docs multiplier: ×768 the documents-table row count gives a
# compute-dominated headline on sf0.1 (3.84M docs; the corpus below is
# ~970 B of Turtle and ~36 raw triples per doc, ≈ 3.7 GB) so the scaling
# measurement reflects throughput, not the ~5 s of fixed phase-barrier /
# job-launch overhead that otherwise dominates the 32-CPU run
# (measured on the earlier ~280 B/doc corpus: efficiency 0.54 at 960k
# docs → 0.71 at 1.92M → 0.80 at 3.84M with the identical pipeline).
DOCS_MULTIPLIER = int(os.environ.get("KG_BENCH_DOCS_MULT", "768"))
# The corpus fans one seeded base corpus (perfbench/corpus.py, every
# 40th document malformed) out to n_docs documents: row i is base row
# i mod BASE.n_docs under its own doc_id, with a doc-unique comment as
# its first line, so every document TEXT is distinct and the headline
# measures the parser, not the parse memo.
BASE = Profile(n_docs=10_000, pool=0, subj_skew=1.0, n_subjects=10_000)


def corpus_path(n_docs: int, seed: int = 42) -> str:
    return f"/tmp/kgbench/gen-{n_docs}-{seed}"


def ensure_corpus(n_docs: int, seed: int = 42) -> str:
    """Materialize the deterministic corpus once (parallel fan-out via
    Ray), then reuse it across runs — the bench reads from parquet like
    the real pipeline reads from Lance fragments."""
    path = corpus_path(n_docs, seed)
    marker = os.path.join(path, "_complete")
    if os.path.exists(marker):
        return path
    import pyarrow as pa
    import ray.data as rd

    from kgruntime.synth import DOCUMENTS_SCHEMA, SPAN_STRUCT

    base = make_corpus(seed, BASE._replace(
        n_docs=min(n_docs, BASE.n_docs))).table["spans"].to_pylist()

    def fan_out(batch: pa.Table) -> pa.Table:
        ids, rows = [], []
        for i in batch["id"].to_pylist():
            ids.append(f"doc-{i:06d}")
            line = f"# {ids[-1]}\n"
            spans, shift = [], 0
            for s in base[i % len(base)]:
                s = dict(s, offset=s["offset"] + shift)
                if s["kind"] == "text" and not shift:
                    s["text"] = line + s["text"]
                    shift = len(line)
                spans.append(s)
            rows.append(spans)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.string()),
             pa.array(rows, pa.list_(SPAN_STRUCT))],
            schema=DOCUMENTS_SCHEMA)

    ds = rd.range(n_docs).map_batches(fan_out, batch_format="pyarrow",
                                      batch_size=4000)
    os.makedirs(path, exist_ok=True)
    ds.write_parquet(path, min_rows_per_file=10_000)
    with open(marker, "w") as f:
        f.write(str(n_docs))
    return path


def run_headline(sf_dir: str) -> dict:
    import pyarrow.parquet as pq
    import ray.data as rd

    from kgruntime.stages.linking import build_alias_table

    n_docs = DOCS_MULTIPLIER * pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    corpus = ensure_corpus(n_docs)

    # static alias table from the corpus seed's gazetteer (driver-side,
    # untimed — in production the KB is a fixed input)
    aliases = build_alias_table(name_pools(42)[0])

    import shutil

    from kgruntime.pipelines.kg import build_kg_fused

    staging = f"/tmp/kgbench/staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    t0 = time.perf_counter()
    docs = rd.read_parquet(corpus)
    # Fused headline: parse + doc-local blank linking in ONE actor-pool
    # pass into a durable parquet staging table, then stream it through
    # union-find and again through remap → dedup (fused with the store's
    # subject-hash partitioning) → canonical store.  The fused shape
    # keeps the global mapping bounded by the KB size (not the corpus
    # size) — parse-once, durable, broadcast-scale at 100 TB.
    res = build_kg_fused(docs, alias_table=aliases, staging_dir=staging)
    out_dir = f"/tmp/kgbench/out-{os.getpid()}"
    from kgruntime.stages.materialize import write_triple_store
    write_triple_store(res["canonical"], out_dir, pre_bucketed=True)
    dt = time.perf_counter() - t0
    shutil.rmtree(staging, ignore_errors=True)

    n_triples = sum(
        pq.read_metadata(os.path.join(root, f)).num_rows
        for root, _, files in os.walk(out_dir)
        for f in files if f.endswith(".parquet"))
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    return {"sec": dt, "docs": n_docs, "triples": n_triples,
            "docs_per_sec": n_docs / dt, "triples_per_sec": n_triples / dt}


def run_queries(sf_dir: str) -> dict:
    import __ray_entry__ as E

    qs = E.queries()
    picked = ["pricing_summary", "user_activity", "revenue_by_part_type",
              "token_stats", "exact_dup_docs", "ann_topk",
              "minhash_near_dups", "kg_triples", "term_frequencies",
              "corr_qty_price", "running_user_totals", "clean_corpus",
              "near_dedup_corpus", "chunk_documents",
              # round-3 flagship ops (pagerank excluded: its co-occurrence
              # build dominates it at bench scale, as for triangle_census
              # below, without informing per-op perf)
              "ann_topk_ivf", "kmeans_clusters", "curate_corpus",
              "incremental_dup_check",
              # round-4 flagship ops (triangle_census excluded like
              # pagerank: the dense co-occurrence build dominates at
              # bench scale without informing per-op perf)
              "knn_graph", "cms_heavy_bigrams", "corpus_diff",
              "span_corrupt", "temperature_mix_sample",
              # round-4d flagship ops
              "set_sim_join_pairs", "rfm_segments", "pmi_collocations",
              "phrase_search_hits",
              # round-4e flagship ops
              "lexical_topk", "cdc_chunk_dedup", "mg_heavy_trigrams",
              "entity_clusters",
              # round-4g flagship ops
              "pit_training_features", "dsir_importance",
              "source_overlap_matrix", "near_split_leakage"]
    out = {}
    for name in picked:
        t0 = time.perf_counter()
        res = qs[name](sf_dir)
        if hasattr(res, "count"):
            res.count()  # consume lazy Datasets
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", DEFAULT_SF_DIR)
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    if "--scaling" in sys.argv:
        run_scaling(sf_dir)
        return
    if "--calibrate" in sys.argv:
        run_calibration()
        return
    if "--calibrate-leg" in sys.argv:
        calibration_leg(ncpu)
        return
    if "--resume-drill" in sys.argv:
        run_resume_drill(sf_dir)
        return
    if "--resume-drill-leg" in sys.argv:
        resume_drill_leg(ncpu)
        return

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # push-based shuffle pipelines the wide dedup/groupby exchanges with
    # their producers (measured: remap+dedup 14.6 s → 10.4 s at 3.84M
    # docs / 32 CPUs, and it scales better 8→32)
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    # min of N trials: the sandbox host shows ±50% run-to-run noise on
    # identical code (firecracker noisy neighbors); the minimum is the
    # cleanest proxy for machine capacity
    trials = int(os.environ.get("KG_BENCH_HEADLINE_TRIALS", "2"))
    head = min((run_headline(sf_dir) for _ in range(trials)),
               key=lambda r: r["sec"])
    queries = {} if "--headline-only" in sys.argv else run_queries(sf_dir)

    print(json.dumps({
        "metric": "kg_pipeline_e2e",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": ncpu,
        "docs": head["docs"],
        "triples": head["triples"],
        "docs_per_sec": round(head["docs_per_sec"], 1),
        "triples_per_sec": round(head["triples_per_sec"], 1),
    }))
    ray.shutdown()


def run_scaling(sf_dir: str) -> None:
    """Same headline at 8 and 32 CPUs in fresh processes; efficiency =
    (thr_32/thr_8) / (32/8)."""

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=sf_dir,
                   KG_BENCH_HEADLINE_TRIALS="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--headline-only"],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        r = json.loads(out.strip().splitlines()[-1])
        print(f"  trial @{ncpu} cpus: {r['value']} s", file=sys.stderr)
        return r

    _ = run(8)          # warm OS page cache + corpus synth, untimed
    # PAIRED trials: the sandbox host's effective throughput drifts by
    # up to ±50% over minutes (firecracker noisy neighbors), so an
    # 8-CPU leg and a 32-CPU leg measured minutes apart sample
    # different machines (observed: identical 8-CPU runs 110 s vs
    # 165 s).  Running each 8-CPU trial back-to-back with a 32-CPU
    # trial makes both legs share host conditions; the per-pair
    # efficiency is then meaningful, and the MEDIAN pair is robust to
    # one disturbed pair without cherry-picking the best.
    # Each pair also carries a host-capacity calibration (same two CPU
    # levels, embarrassingly parallel shuffle-free tasks, fresh
    # sessions) measured in the same time window: even pure CPU work
    # does not scale 1.0 on this host (observed 0.49-0.81 depending on
    # the minute), and DRAM-bandwidth work runs absolutely SLOWER at 32
    # workers than 8.  The normalized efficiency (pipeline / same-window
    # cpu calibration) is the number a real N -> 4N *node* cluster —
    # which adds memory bandwidth with nodes — would be bounded by.
    def calib(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--calibrate-leg"],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        r = json.loads(out.strip().splitlines()[-1])
        print(f"  calib @{ncpu}: {r}", file=sys.stderr)
        return r

    pairs = int(os.environ.get("KG_BENCH_SCALING_PAIRS", "3"))
    results = []
    for _ in range(pairs):
        lo, hi = run(8), run(32)
        c8, c32 = calib(8), calib(32)
        eff = (lo["value"] / hi["value"]) / (32 / 8)
        cpu_eff = (c8["cpu_sec"] / c32["cpu_sec"]) / 4
        membw_eff = (c8["membw_sec"] / c32["membw_sec"]) / 4
        results.append((lo, hi, eff, cpu_eff, membw_eff,
                        eff / cpu_eff if cpu_eff else float("nan")))
    results.sort(key=lambda p: p[2])
    lo, hi, eff, cpu_eff, membw_eff, norm = results[len(results) // 2]
    print(json.dumps({
        "metric": "kg_pipeline_scaling",
        "sec_8": lo["value"], "sec_32": hi["value"],
        "docs_per_sec_8": lo["docs_per_sec"],
        "docs_per_sec_32": hi["docs_per_sec"],
        "triples_per_sec_8": lo["triples_per_sec"],
        "triples_per_sec_32": hi["triples_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "pair_efficiencies": [round(p[2], 3) for p in results],
        "host_cpu_calibration_efficiency": round(cpu_eff, 3),
        "host_membw_calibration_efficiency": round(membw_eff, 3),
        "host_normalized_scaling_efficiency": round(norm, 3),
        "normalized_pair_efficiencies": [round(p[5], 3) for p in results],
        "sf": sf_dir,
    }))


def run_resume_drill(sf_dir: str) -> None:
    """Checkpoint/resume drill at bench scale (N7's most load-bearing
    100-TB claim): start the fragment-committed runner, SIGKILL the
    process after the first fragment commits (mid-round — harsher than a
    clean round boundary), resume to completion in a fresh process, and
    verify the resumed store matches a fresh one-shot run row-for-row
    (order-independent count + hash via DuckDB).  Prints one JSON line
    with phase timings."""
    import shutil
    import signal

    import pyarrow.parquet as pq

    mult = int(os.environ.get("KG_BENCH_DRILL_MULT", "96"))
    n_docs = mult * pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    resumed_dir = f"/tmp/kgbench/drill-resumed-{os.getpid()}"
    fresh_dir = f"/tmp/kgbench/drill-fresh-{os.getpid()}"
    for d in (resumed_dir, fresh_dir):
        shutil.rmtree(d, ignore_errors=True)

    def leg(out_dir: str) -> subprocess.Popen:
        env = dict(os.environ, KG_DRILL_OUT=out_dir,
                   KG_DRILL_DOCS=str(n_docs))
        return subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             "--resume-drill-leg"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, cwd=os.path.dirname(os.path.abspath(__file__)))

    # phase 1: run until the first fragment manifest lands, then SIGKILL
    manifest = os.path.join(resumed_dir, "_manifest")
    t0 = time.perf_counter()
    p = leg(resumed_dir)
    sent_kill = False
    while p.poll() is None:
        if os.path.isdir(manifest) and len(os.listdir(manifest)) >= 1:
            p.send_signal(signal.SIGKILL)
            p.wait()
            sent_kill = True
            break
        time.sleep(0.25)
    kill_sec = time.perf_counter() - t0
    # only a DELIBERATE SIGKILL exercises the resume path: a leg that
    # crashed on its own, or finished between polls, must fail the
    # drill loudly rather than masquerade as a successful kill+resume
    was_killed = sent_kill
    assert sent_kill, (
        "drill leg ended before the SIGKILL "
        f"(rc={p.returncode}); raise KG_BENCH_DRILL_MULT so the run "
        "outlives the first fragment commit")

    # phase 2: resume the same store to completion
    t1 = time.perf_counter()
    p = leg(resumed_dir)
    out, _ = p.communicate()
    assert p.returncode == 0, "resume leg failed"
    resumed = json.loads(out.strip().splitlines()[-1])
    resume_sec = time.perf_counter() - t1

    # phase 3: fresh one-shot for the equivalence check
    t2 = time.perf_counter()
    p = leg(fresh_dir)
    out, _ = p.communicate()
    assert p.returncode == 0, "fresh leg failed"
    fresh_sec = time.perf_counter() - t2

    import duckdb

    def store_sig(d: str):
        return duckdb.sql(
            "SELECT count(*), "
            "sum(hash(subj, pred, obj, obj_datatype, obj_lang)) "
            f"FROM read_parquet('{d}/data/**/*.parquet')").fetchone()

    sig_resumed, sig_fresh = store_sig(resumed_dir), store_sig(fresh_dir)
    for d in (resumed_dir, fresh_dir):
        shutil.rmtree(d, ignore_errors=True)
    print(json.dumps({
        "metric": "kg_resume_drill",
        "docs": n_docs,
        "killed_mid_run": was_killed,
        "kill_after_sec": round(kill_sec, 3),
        "resume_sec": round(resume_sec, 3),
        "fresh_sec": round(fresh_sec, 3),
        "resumed_skipped_fragments": resumed["skipped"],
        "store_rows": sig_resumed[0],
        "stores_identical": list(sig_resumed) == list(sig_fresh),
    }))
    assert list(sig_resumed) == list(sig_fresh), \
        f"resume diverged: {sig_resumed} != {sig_fresh}"


def resume_drill_leg(ncpu: int) -> None:
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    from kgruntime.pipelines.kg import run_checkpointed

    out_dir = os.environ["KG_DRILL_OUT"]
    corpus = ensure_corpus(int(os.environ["KG_DRILL_DOCS"]))
    n_frags = sum(1 for f in os.listdir(corpus) if f.endswith(".parquet"))
    per_round = max(1, (n_frags + 5) // 6)      # ~6 commit rounds
    res = run_checkpointed(corpus, out_dir, epoch=0,
                           fragments_per_round=per_round)
    print(json.dumps({"processed": len(res["processed"]),
                      "skipped": len(res["skipped"])}))
    ray.shutdown()


def calibration_leg(ncpu: int) -> None:
    """One calibration measurement at ``ncpu`` CPUs: N embarrassingly
    parallel Ray tasks (zero shuffles, zero object-store traffic) for
    two profiles — cache-resident CPU work and DRAM-bandwidth work."""
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")

    @ray.remote(num_cpus=1)
    def cpu_task(reps: int) -> int:
        # cache-resident: 256×256 matmul, ~0.5 MB working set
        import numpy as np

        a = np.full((256, 256), 1.0001)
        for _ in range(reps):
            a = np.clip(a @ a, 0.5, 1.5)
        return int(a[0, 0])

    @ray.remote(num_cpus=1)
    def membw_task(reps: int) -> float:
        # DRAM-bound: stream over a 256 MB array (far beyond LLC)
        import numpy as np

        a = np.ones(32_000_000)
        s = 0.0
        for _ in range(reps):
            s += float(a.sum())
            a[::4096] += 1.0
        return s

    out = {"num_cpus": ncpu}
    for name, task, reps in (("cpu", cpu_task, 60), ("membw", membw_task, 6)):
        ray.get([task.remote(1)])            # warm the worker pool
        t0 = time.perf_counter()
        ray.get([task.remote(reps) for _ in range(64)])
        out[name + "_sec"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(out))
    ray.shutdown()


def run_calibration() -> None:
    """Host-capacity calibration: the same trivially parallel work at 8
    and 32 CPUs in fresh processes.  A shuffle-free workload that scales
    below 1.0 here bounds what ANY pipeline can reach on this host —
    the pipeline's measured efficiency should be read relative to it."""

    def leg(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--calibrate-leg"],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        r = json.loads(out.strip().splitlines()[-1])
        print(f"  calib @{ncpu}: {r}", file=sys.stderr)
        return r

    pairs = int(os.environ.get("KG_BENCH_SCALING_PAIRS", "3"))
    effs = {"cpu": [], "membw": []}
    for _ in range(pairs):
        lo, hi = leg(8), leg(32)
        for k in effs:
            effs[k].append(round((lo[k + "_sec"] / hi[k + "_sec"]) / 4, 3))
    med = {k: sorted(v)[len(v) // 2] for k, v in effs.items()}
    print(json.dumps({
        "metric": "host_calibration",
        "cpu_efficiency": med["cpu"],
        "membw_efficiency": med["membw"],
        "pair_efficiencies": effs,
    }))


if __name__ == "__main__":
    main()
