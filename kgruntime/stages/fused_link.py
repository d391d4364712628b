"""Fused parse + doc-local entity linking (pipelines/kg.py:build_kg_fused).

Insight (NOTES_r1 §2): a blank node's KB link is *derivable inside its
own document* — its name literal plus the broadcast alias table — so the
per-doc part of the canonical mapping (which grows linearly with the
corpus and eventually outgrows broadcast) never needs to exist as a
global structure.  This stage (a plain-task ``map_batches``; the
:class:`FusedParseLink` is built once per worker process from the
broadcast alias table by ``stages/broadcast.cached_get``):

1. parses a batch of documents (same fused L/P/B as stages/extract);
2. per document, scores name-literal mentions against the alias table
   (same LinkScorer semantics and index);
3. rewrites linked BLANK ids to their KB canonical in place
   (doc-local, no shuffle, no global mapping);
4. emits the residual IRI↔KB equivalences as edge rows (record_kind=2)
   riding in the same output table — this edge set is bounded by the
   number of *distinct linked IRIs*, not by corpus size, so the
   downstream union-find + broadcast remap stay broadcast-scale at any
   corpus size.

Multi-name blanks bridge KB entities exactly as in the unfused
pipeline: the blank rewrites to its rank-minimum KB locally, and the
bridged KB↔KB equivalence is emitted as an IRI edge so the global
union-find still merges them.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..ttl.builder import BLANKN, LITERAL, XSD_STRING
from .extract import RECORD_TRIPLE, parse_batch
from .linking import LinkScorer, normalize_name

RECORD_EDGE = 2


class FusedParseLink:
    """Batch function: documents batch → triples (blank-canonicalized)
    + quarantine rows + IRI-equivalence edge rows, in one pass.  Built
    once per worker process (its scorer index and memo are the state
    worth keeping), then called per batch from a task stage."""

    def __init__(self, alias_table: dict, threshold: float = 0.85):
        self.scorer = LinkScorer(alias_table=alias_table,
                                 threshold=threshold)
        self.threshold = threshold

    def _score_unique(self, texts: pa.Array) -> pa.Array:
        """Dictionary-encode mention texts; run the memoized Python
        scorer ONLY on distinct texts, expand vectorized."""
        enc = texts.dictionary_encode()
        memo = self.scorer._memo
        kb = []
        for u in enc.dictionary.to_pylist():
            if u in memo:
                res = memo[u]
            else:
                res = self.scorer.score(normalize_name(u))
                if res is not None and res[1] < self.threshold:
                    res = None
                memo[u] = res
            kb.append(res[0] if res else None)
        return pc.take(pa.array(kb, pa.string()),
                       pc.cast(enc.indices, pa.int64()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized doc-group walk: numpy boundary/segment ops over the
        doc-contiguous parse output + one pandas groupby over the (much
        smaller) KB-matched mention set.  No per-row Python in the
        triples-sized path."""
        import numpy as np
        import pandas as pd

        parsed = parse_batch(batch).combine_chunks()
        n = parsed.num_rows
        if n == 0:
            return parsed

        # doc-contiguous rows → group ids via boundary cumsum
        codes = pc.dictionary_encode(parsed["doc_id"].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        boundary = np.empty(n, bool)
        boundary[0] = True
        np.not_equal(codes[1:], codes[:-1], out=boundary[1:])
        grp = np.cumsum(boundary) - 1
        n_grp = int(grp[-1]) + 1
        group_starts = np.flatnonzero(boundary)

        # docs with any quarantine row skip linking entirely
        rk = parsed["record_kind"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        grp_has_err = np.bincount(
            grp, weights=(rk != RECORD_TRIPLE), minlength=n_grp) > 0

        # name-literal mention rows (same predicate as detect_mentions)
        is_mention = pc.and_(
            pc.equal(parsed["obj_kind"], LITERAL),
            pc.or_(pc.equal(parsed["obj_datatype"], XSD_STRING),
                   pc.not_equal(parsed["obj_lang"], ""))) \
            .combine_chunks().to_numpy(zero_copy_only=False)
        is_mention &= ~grp_has_err[grp]
        midx = np.flatnonzero(is_mention)

        rewrites_keys: list[str] = []
        rewrites_vals: list[str] = []
        edge_rows: list[tuple] = []
        if len(midx):
            take_idx = pa.array(midx)
            kb_hits = self._score_unique(
                pc.take(parsed["obj"], take_idx).combine_chunks())
            valid = pc.is_valid(kb_hits).to_numpy(zero_copy_only=False)
            hit_rows = midx[valid]
            if len(hit_rows):
                hit_take = pa.array(hit_rows)
                df = pd.DataFrame({
                    "g": grp[hit_rows],
                    "ent": pc.take(parsed["subj"], hit_take).to_pylist(),
                    "kind": pc.take(parsed["subj_kind"], hit_take)
                        .to_numpy(zero_copy_only=False),
                    "kb": kb_hits.filter(pa.array(valid)).to_pylist(),
                }).drop_duplicates()
                # canon = min(kb) per (g, ent) WITHOUT groupby.transform
                # (pandas string-min falls back to per-group Python):
                # stable-sort by kb, first row per (g, ent) is the min
                firsts = df.sort_values("kb", kind="stable") \
                    .drop_duplicates(["g", "ent"]) \
                    .rename(columns={"kb": "canon"})
                df = df.merge(firsts[["g", "ent", "canon"]],
                              on=["g", "ent"], sort=False)
                doc_ids = parsed["doc_id"].combine_chunks()
                grp_doc = pc.take(doc_ids, pa.array(group_starts)) \
                    .to_pylist()
                # bridged KB entities merge globally: (canon, other_kb)
                bridged = df[df["kb"] != df["canon"]]
                edge_rows.extend(
                    (grp_doc[g], c, k) for g, c, k in
                    zip(bridged["g"], bridged["canon"], bridged["kb"]))
                blanks = firsts[firsts["kind"] == BLANKN]
                # blank ids are doc-scoped → flat dict, no collisions
                rewrites_keys = blanks["ent"].tolist()
                rewrites_vals = blanks["canon"].tolist()
                iris = firsts[firsts["kind"] != BLANKN]
                edge_rows.extend(
                    (grp_doc[g], e, c) for g, e, c in
                    zip(iris["g"], iris["ent"], iris["canon"]))

        # vectorized blank-id rewrite (index_in against the small batch-
        # local key set; literals/IRIs masked by kind)
        if rewrites_keys:
            keys = pa.array(rewrites_keys, pa.string())
            vals = pa.array(rewrites_vals, pa.string())
            for col, kind_col in (("subj", "subj_kind"), ("obj", "obj_kind")):
                c = parsed[col].combine_chunks()
                k = parsed[kind_col].combine_chunks()
                idx = pc.index_in(c, value_set=keys)
                hit = pc.and_(pc.is_valid(idx),
                              pc.equal(k, pa.scalar(BLANKN, pa.uint8())))
                new_c = pc.if_else(hit, pc.take(vals, idx), c)
                new_k = pc.if_else(hit, pa.scalar(0, pa.uint8()), k)
                ci = parsed.schema.get_field_index(col)
                parsed = parsed.set_column(ci, col, new_c)
                ki = parsed.schema.get_field_index(kind_col)
                parsed = parsed.set_column(ki, kind_col,
                                           pc.cast(new_k, pa.uint8()))
        if not edge_rows:
            return parsed
        # batch-local edge dedup: the same IRI↔KB equivalence repeats in
        # every doc that mentions the entity (measured 562k edge rows →
        # 15 distinct at 960k docs); keep the first occurrence per
        # (src, dst) — deterministic, and downstream union-find is
        # set-semantics anyway
        seen: set = set()
        deduped = []
        for e in edge_rows:
            if e[1:] not in seen:
                seen.add(e[1:])
                deduped.append(e)
        edge_rows = deduped
        n_e = len(edge_rows)
        empty_s = pa.array([""] * n_e, pa.string())
        zeros = pa.array([0] * n_e, pa.uint8())
        zeros32 = pa.array([0] * n_e, pa.int32())
        edge_table = pa.Table.from_arrays(
            [pa.array([e[0] for e in edge_rows], pa.string()),   # doc_id
             pa.array([e[1] for e in edge_rows], pa.string()),   # subj=src
             zeros,
             empty_s,                                            # pred
             pa.array([e[2] for e in edge_rows], pa.string()),   # obj=dst
             zeros,
             empty_s, empty_s,                                   # dt, lang
             zeros32, zeros32, pc.cast(zeros32, pa.int32()),
             pa.array([RECORD_EDGE] * n_e, pa.uint8()),
             empty_s, empty_s, empty_s],
            schema=parsed.schema)
        return pa.concat_tables([parsed, edge_table])
