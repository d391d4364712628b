"""End-to-end KG construction pipeline (SURVEY.md §3 "Ray lifecycle").

    read fragments → N1 normalize → fused parse (L*/P*/B*) → triples
      ├→ quarantine (errors)
      └→ N2 mentions → N3 LinkScorer tasks → sameAs edges
           → N4 union-find → canonical mapping
      → canonicalized triples → N5 dedup → partitioned triple store
      → N6 counters + N7 fragment manifests

Everything between the read and the final write streams as Dataset
blocks; the only materialized intermediates are the tiny ones (edges,
union-find assignment, counters).

Two build shapes share one union-find → remap → dedup tail:
``build_kg`` (in memory, can derive its KB from the corpus; used by
``run_checkpointed`` and ``build_kg_incremental``) and
``build_kg_fused`` (the production shape for a given KB, staged to
parquet partitioned by record_kind).
"""

from __future__ import annotations

import os

from ..stages.canon import canonicalize_triples, union_find
from ..stages.extract import extract_triples, keep_errors, keep_triples
from ..stages.linking import (
    build_alias_table, link_edges_dataset, mentions_dataset, normalize_name,
)
from ..stages.materialize import (
    commit_fragment, dedup_triples, fragment_id, write_triple_store,
)


def corpus_alias_table(mentions_ds, min_count: int = 2) -> dict[str, str]:
    """Derive a deterministic alias table from the corpus itself: any
    normalized mention text seen at least ``min_count`` times becomes a
    KB entity.  (In production the alias table is a curated KB input.)
    Rare and empty names are dropped on the cluster, so only the
    surviving names reach the driver.
    """
    from ray.data.aggregate import Count

    counts = mentions_ds.map_batches(
        _add_norm, batch_format="pyarrow"
    ).groupby("mention_norm").aggregate(Count(alias_name="n"))
    heavy = counts.filter(
        expr=f"n >= {int(min_count)} and mention_norm != ''")
    return build_alias_table([r["mention_norm"] for r in heavy.iter_rows()])


def _add_norm(batch):
    import pyarrow as pa

    norms = [normalize_name(t) for t in batch["mention_text"].to_pylist()]
    return batch.append_column("mention_norm", pa.array(norms, pa.string()))


def build_kg(docs_ds, alias_table: dict | None = None,
             materialize_intermediate: bool = False,
             dedup_buckets: int = 64, keep_buckets: bool = False):
    """documents Dataset → dict of result Datasets.

    Returns {"triples", "errors", "mentions", "edges", "assignment",
    "canonical"} — all lazy except the union-find assignment (iterative,
    materialized per round on the small node set).  Without an
    ``alias_table`` the KB is derived from the corpus
    (:func:`corpus_alias_table`).

    ``materialize_intermediate=True`` pins the parsed (triples+errors)
    table in the object store so the several consumers (errors sink,
    mention path, canonical store) share ONE parse execution instead of
    re-running extraction per consumer.  Only safe when the input is
    bounded — run_checkpointed uses it because its unit of work is a
    fragment round, never the whole 100 TB corpus.
    """
    combined = extract_triples(docs_ds)
    if materialize_intermediate:
        combined = combined.materialize()
    triples = combined.map_batches(keep_triples, batch_format="pyarrow",
                                   zero_copy_batch=True)
    errors = combined.map_batches(keep_errors, batch_format="pyarrow",
                                  zero_copy_batch=True)
    return {"triples": triples, "errors": errors,
            **_link_and_canonicalize(triples, alias_table, dedup_buckets,
                                     keep_buckets)}


def _link_and_canonicalize(triples, alias_table, dedup_buckets, keep_buckets):
    """build_kg's global stages over parsed triples: mentions → (corpus
    alias table) → LinkScorer sameAs edges → canonical tail."""
    mentions = mentions_dataset(triples)
    if alias_table is None:
        alias_table = corpus_alias_table(mentions)
    edges = link_edges_dataset(mentions, alias_table)
    assignment, canonical = _canonical_tail(triples, edges, dedup_buckets,
                                            keep_buckets)
    return {"mentions": mentions, "edges": edges, "assignment": assignment,
            "canonical": canonical}


def _canonical_tail(triples, edges, dedup_buckets, keep_buckets):
    """union-find → remap → dedup, shared by every build shape.
    Returns (assignment, canonical)."""
    assignment, mapping = union_find(edges)
    canonical = canonicalize_triples(triples, mapping=mapping,
                                     labels_ds=assignment)
    return assignment, dedup_triples(canonical, num_buckets=dedup_buckets,
                                     keep_buckets=keep_buckets)


def pq_meta_rows(path: str) -> int:
    """Row count from parquet footer metadata — no data read."""
    import pyarrow.parquet as pq

    return pq.read_metadata(path).num_rows


def run_checkpointed(corpus_dir: str, out_dir: str, epoch: int = 0,
                     alias_table: dict | None = None,
                     num_buckets: int = 16, fragments_per_round: int = 4):
    """N7: fragment-committed execution with resume.

    Fragments (source parquet files) are processed in rounds; each
    round's triple store lands under ``out_dir/data/epoch={epoch}/
    round-{fid}/`` and every fragment in the round is then committed
    with its counters.  A rerun skips committed fragments entirely.
    Parsing is deterministic, so a crash between write and commit only
    re-does (byte-identical) work, never duplicates committed output.
    """
    import shutil

    import ray.data as rd

    from ..stages.materialize import committed_fragments

    frags = sorted(
        os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)
        if f.endswith(".parquet"))
    # Rounds are DETERMINISTIC index chunks of the full fragment list, so
    # a rerun re-forms the identical rounds regardless of what already
    # committed — the commit unit is the whole round (all its fragment
    # manifests), and an incomplete round is re-done from scratch with
    # its output directory replaced. This is what makes the store
    # exactly-once: no fragment's triples can land in two round dirs.
    done = committed_fragments(out_dir)
    done_ids, skipped = [], []
    for i in range(0, len(frags), fragments_per_round):
        group = frags[i:i + fragments_per_round]
        gids = [fragment_id(p) for p in group]
        gid = gids[0]
        dest = os.path.join(out_dir, "data", f"epoch={epoch}",
                            f"round-{gid}")
        if all(g in done for g in gids):
            skipped.extend(gids)
            continue
        # partially-committed round: drop stale manifests + output, redo
        for g in gids:
            m = os.path.join(out_dir, "_manifest", f"fragment-{g}.json")
            if os.path.exists(m):
                os.remove(m)
        tmp = dest + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(dest, ignore_errors=True)

        docs = rd.read_parquet(group)
        res = build_kg(docs, alias_table=alias_table,
                       materialize_intermediate=True, keep_buckets=True,
                       dedup_buckets=num_buckets)
        canonical = res["canonical"].materialize()  # bounded by round size
        write_triple_store(canonical, tmp, pre_bucketed=True)
        os.replace(tmp, dest)                       # atomic publish
        n_triples = canonical.count()
        n_errors = res["errors"].count()      # reads the pinned parse output
        n_edges = res["edges"].count()
        for p in group:
            fid = fragment_id(p)
            commit_fragment(out_dir, fid, epoch, {
                "docs": pq_meta_rows(p),
                "round_triples": n_triples,
                "link_scores": n_edges,
                "malformed_span_rejects": n_errors,
                "round": gid,
            })
            done_ids.append(fid)
    return {"processed": done_ids, "skipped": skipped}


# staged parse-table columns read back per record_kind partition
_TRIPLE_COLS = ["doc_id", "subj", "subj_kind", "pred", "obj", "obj_kind",
                "obj_datatype", "obj_lang", "span_start", "span_end",
                "stmt_index"]
_ERROR_COLS = ["doc_id", "span_start", "span_end", "error_layer",
               "error_kind", "error_msg"]


def _read_kind(staging_dirs: list[str], kind: int, columns: list[str]):
    """Read one record_kind partition of one or more staged parse tables;
    a missing partition (e.g. no errors in the corpus) yields an empty
    Dataset with the schema PINNED (empty Ray datasets drop schemas
    otherwise).

    The read makes one block per staged file: Ray's default splits even
    one small staged file into ~1 MiB blocks, and each block costs
    ~0.2 CPU-s through the remap → dedup shuffle → write chain
    (kg_fused_distinct: 9 blocks of one 72k-triple file; as one block,
    median busy CPU-s per job 4.74 → 3.26 on 1 CPU).  Fewer blocks than
    files would raise the dedup's rows per reduce task: a 12-file
    staging read as 1 block on 1 CPU took 19% less CPU than 12 blocks
    but 18% more peak RSS."""
    import pyarrow as pa
    import ray.data as rd

    from ..stages.extract import TRIPLES_SCHEMA

    # list-mode read_parquet wants FILES (Ray 2.49 rejects directories)
    parts = [os.path.join(d, f"record_kind={kind}") for d in staging_dirs]
    files = [os.path.join(p, f) for p in parts if os.path.isdir(p)
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    if files:
        return rd.read_parquet(files, columns=columns,
                               override_num_blocks=len(files))
    fields = [TRIPLES_SCHEMA.field(c) for c in columns]
    return rd.from_arrow(pa.Table.from_arrays(
        [pa.array([], f.type) for f in fields], schema=pa.schema(fields)))


def build_kg_fused(docs_ds, alias_table: dict, staging_dir: str,
                   dedup_buckets: int = 64, keep_buckets: bool = True):
    """Production shape for a given KB: parse + doc-local blank linking
    in one plain-task stage (stages/fused_link; the FusedParseLink is
    built once per worker process from the broadcast alias table).
    Only the small IRI↔KB equivalence set reaches the global union-find,
    so the broadcast remap stays broadcast-scale at ANY corpus size —
    this is the shape that removes the per-doc mapping growth entirely
    (NOTES_r1 §2).

    The parse+link output is written ONCE to a durable staging table
    under ``staging_dir``, PARTITIONED BY record_kind: the union-find
    pass then reads only the (tiny) edge partition instead of rescanning
    the whole corpus, and the remap pass reads only triple rows with
    error columns pruned — each downstream consumer scans exactly the
    bytes it needs.

    Requires a provided alias_table (there is no corpus-derivation pass
    in the fused shape).  Returns {"errors", "edges", "assignment",
    "canonical"}.
    """
    import ray

    from ..stages.broadcast import cached_get
    from ..stages.fused_link import FusedParseLink

    ref = ray.put(alias_table)

    # Tasks, not an actor pool: each actor is a fresh worker process
    # (~0.7 CPU-s to start on a 4-CPU host) that dies with the Dataset,
    # so the raylet starts replacements during the next stages — 1-7
    # process starts per job.  Task workers are reused across stages
    # and jobs, and cached_get builds the scorer once per process
    # (perfbench kg_fused_distinct, 2000 docs, 4 CPUs: median 11.44 →
    # 4.77 busy CPU-s per job, 12/12 pairs).  batch_size 4096: larger
    # batches amortize the per-batch vectorized setup (measured 7.7 s vs
    # 9.8 s @1024 for the parse+stage phase at 960k docs) while output
    # amplification (~50×) keeps per-task heap bounded.
    def parse_link(batch):
        return cached_get(ref, build=lambda a: FusedParseLink(alias_table=a),
                          tag="fused")(batch)

    docs_ds.map_batches(
        parse_link, batch_format="pyarrow", batch_size=4096,
    ).write_parquet(staging_dir, partition_cols=["record_kind"])
    return _staged_tail(staging_dir, dedup_buckets, keep_buckets)


def _staged_tail(staging_dir: str, dedup_buckets: int, keep_buckets: bool):
    """build_kg_fused after its staging write: read the staged triple,
    error and edge partitions back and run the canonical tail."""
    triples = _read_kind([staging_dir], 0, _TRIPLE_COLS)
    errors = _read_kind([staging_dir], 1, _ERROR_COLS)
    edges = _read_kind([staging_dir], 2, ["subj", "obj"]) \
        .rename_columns({"subj": "src", "obj": "dst"})
    assignment, canonical = _canonical_tail(triples, edges, dedup_buckets,
                                            keep_buckets)
    return {"errors": errors, "edges": edges, "assignment": assignment,
            "canonical": canonical}


def build_kg_incremental(new_docs_ds, staged_dir: str):
    """Incremental KG build: parse ONLY the new documents into a staged
    parse table next to the previous increments' (same record_kind
    layout as the fused staging), then rerun build_kg's global stages
    (mention derivation, corpus alias table, link scoring, union-find,
    canonicalize, dedup) over the union of all staged triples — the
    honest incremental contract: new evidence can merge entities that
    earlier increments kept apart, so canonicalization must see the
    merged corpus, but the expensive parse runs only on the delta and
    the global stages cost ∝ derived-layer size (mentions/edges are
    far below the raw corpus; the dedup shuffle is the usual 16-byte
    hash exchange).

    Returns {"canonical", "errors" (this increment's quarantine, read
    back from its staging), "staged_dir", ...build_kg's global
    outputs}; calling again with more docs repeats the pattern.
    Determinism end-to-end means an increment sequence reproduces the
    single-shot ``build_kg`` store exactly (parity-tested).
    """
    import re

    # number the increment from existing inc-* entries ONLY (ADVICE r4:
    # a stray marker/temp file must not shift the count into a collision
    # that silently merges two increments' parquet)
    inc_pat = re.compile(r"^inc-(\d+)$")
    old = [d for d in
           (os.listdir(staged_dir) if os.path.isdir(staged_dir) else [])
           if inc_pat.match(d)]
    prev = [int(inc_pat.match(d).group(1)) for d in old]
    # increments staged before the record_kind layout hold bare parquet
    # files that _read_kind never lists; refuse rather than drop them
    for d in (os.path.join(staged_dir, d) for d in old):
        if os.path.isdir(d) and any(f.endswith(".parquet")
                                    for f in os.listdir(d)):
            raise ValueError(
                f"{d} uses the old unpartitioned staging layout; rebuild "
                f"{staged_dir} from its documents")
    inc_dir = os.path.join(staged_dir,
                           f"inc-{(max(prev) + 1 if prev else 0):04d}")
    extract_triples(new_docs_ds).write_parquet(
        inc_dir, partition_cols=["record_kind"])
    incs = [os.path.join(staged_dir, d)
            for d in sorted(os.listdir(staged_dir)) if inc_pat.match(d)]
    return {"staged_dir": staged_dir,
            "errors": _read_kind([inc_dir], 1, _ERROR_COLS),
            **_link_and_canonicalize(_read_kind(incs, 0, _TRIPLE_COLS),
                                     alias_table=None, dedup_buckets=64,
                                     keep_buckets=False)}
