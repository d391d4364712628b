#!/usr/bin/env python
"""Production KG-construction job driver — the `ray job submit` entry
point the north-star pipeline runs on a real cluster:

    ray job submit --working-dir . -- \
        python scripts/kg_job.py --input /data/docs --output /data/kg \
        --shape checkpointed --epoch 3

On the fixed-size cluster the job connects to the running Ray instance
(`RAY_ADDRESS` from the job environment); locally it starts a one-node
session.  Two shapes:

* ``checkpointed`` (default) — ``run_checkpointed``: commits fragment
  rounds with lineage + counters, so re-submitting the identical
  command after any failure resumes from the last committed fragment
  (test: test_end_to_end_pipeline_and_checkpoint).
* ``fused`` — ``build_kg_fused``: one parse+link pass staged to
  ``OUTPUT/_staging``, then the canonical store under ``OUTPUT/data``.

This script owns its Ray session (CLI surface) — library code never
calls ray.init (driver contract, CLAUDE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="documents table dir (parquet fragments)")
    ap.add_argument("--output", required=True, help="triple-store root")
    ap.add_argument("--shape", default="checkpointed",
                    choices=["checkpointed", "fused"])
    ap.add_argument("--epoch", type=int, default=0,
                    help="checkpoint epoch (lineage key; bump to force "
                         "a fresh build into a new epoch dir)")
    ap.add_argument("--num-buckets", type=int, default=64)
    ap.add_argument("--fragments-per-round", type=int, default=4)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    from kgruntime.pipelines.kg import build_kg_fused, run_checkpointed
    from kgruntime.stages.linking import build_alias_table
    from kgruntime.stages.materialize import write_triple_store
    from perfbench.corpus import name_pools

    # KB alias table: fixed job input in production; here the gazetteer
    # of the corpus seed bench.py writes (same construction as bench.py)
    aliases = build_alias_table(name_pools(42)[0])

    t0 = time.perf_counter()
    if args.shape == "checkpointed":
        res = run_checkpointed(args.input, args.output, epoch=args.epoch,
                               alias_table=aliases,
                               num_buckets=args.num_buckets,
                               fragments_per_round=args.fragments_per_round)
        summary = {"fragments_processed": len(res["processed"]),
                   "fragments_skipped": len(res["skipped"])}
    else:
        import ray.data as rd

        res = build_kg_fused(rd.read_parquet(args.input),
                             alias_table=aliases,
                             staging_dir=os.path.join(args.output,
                                                      "_staging"),
                             dedup_buckets=args.num_buckets)
        write_triple_store(res["canonical"],
                           os.path.join(args.output, "data"),
                           pre_bucketed=True)
        summary = {}
    print(json.dumps({"job": "kg_construct", "shape": args.shape,
                      "input": args.input, "output": args.output,
                      "elapsed_sec": round(time.perf_counter() - t0, 3),
                      **summary}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
