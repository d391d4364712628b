"""The benchmark's workloads: inputs, one closed-loop job, its checks,
and the traced per-layer ledger.

Every job reads its generated inputs through the public entry points a
user calls, fully consumes the result, and is then checked; only the
call itself is timed, by wall clock (``wall_s``) and by the busy CPU
time of the machine (``cpu_s``, see ``procfs.py``).
A job returns a dict with both, ``attempted`` and ``failed``
(operations checked / operations whose outcome was wrong) and the Ray
Data exchange count of what it ran.  A job made of independent calls
also returns both times of each (``parts``); the run's ``wall_s`` is
then the sum of their medians.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import pyarrow as pa

import corpus as C
import reference as R
from procfs import cpu_busy_s

# ops_grouping's closed-loop job runs QUERIES; the traced ledger also
# runs LEDGER_QUERIES.  On 4 CPUs set_sim_join_pairs takes 5.5-10 s at
# 200 documents (8.5 s at 500), more than the other seven together and
# with a 2x swing from run to run, so in the job it would set both the
# job's length and its noise.
QUERIES = ["winnow_dup_pairs", "rare_token_pairs", "fuzzy_name_matches",
           "rfm_segments", "sessionize", "curate_corpus", "minhash_near_dups"]
LEDGER_QUERIES = ["set_sim_join_pairs"]
# each ablation prefix runs this many times, interleaved with the others
ABLATION_REPS = 5
STAGED_TRIPLE_COLS = ["doc_id", "subj", "subj_kind", "pred", "obj",
                      "obj_kind", "obj_datatype", "obj_lang", "span_start",
                      "span_end", "stmt_index"]


def _du_mb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs) / 1e6


def _parquet_files(path: str) -> int:
    return sum(f.endswith(".parquet") for _, _, fs in os.walk(path) for f in fs)


def with_comment(table: pa.Table, tag: str) -> pa.Table:
    """Prefix every document's first text span with a Turtle comment.

    The triples are unchanged, but every text is new to the parse memo,
    so a job never profits from the memo of an earlier job on the same
    corpus (duplicates inside one job still hit it)."""
    from kgruntime.synth import DOCUMENTS_SCHEMA, SPAN_STRUCT

    prefix = f"# {tag}\n"
    out = []
    for spans in table["spans"].to_pylist():
        new, shift = [], 0
        for s in spans:
            s = dict(s, offset=s["offset"] + shift)
            if s["kind"] == "text" and not shift:
                s["text"] = prefix + s["text"]
                shift = len(prefix)
            new.append(s)
        out.append(new)
    return pa.Table.from_arrays(
        [table["doc_id"], pa.array(out, pa.list_(SPAN_STRUCT))],
        schema=DOCUMENTS_SCHEMA)


def check_front_end(c: C.Corpus) -> tuple[int, int, list[str]]:
    """parse_turtle on every document vs the generator's ground truth:
    a good document must give exactly its N-Quads lines, a malformed one
    must raise.  Returns (attempted, failed, first errors)."""
    from kgruntime.ttl import BuildError, LexError, ParseError, parse_turtle

    seen: dict[str, object] = {}
    failed, errs = 0, []
    for doc_id, text, exp in zip(c.table["doc_id"].to_pylist(), c.texts,
                                 c.truth):
        if text not in seen:
            try:
                seen[text] = C.nquad_lines(parse_turtle(text))
            except (LexError, ParseError, BuildError):
                seen[text] = None
        if seen[text] != exp:
            failed += 1
            if len(errs) < 3:
                errs.append(f"front-end mismatch on {doc_id}")
    return len(c.texts), failed, errs


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def module_ledger(c: C.Corpus, aliases: dict) -> dict[str, float]:
    """In-process, single-core timings of the front-end and UDF layers
    on a corpus (no Ray).  Each pass uses its own comment tag so the
    per-process parse memo never serves an earlier pass."""
    import pyarrow.compute as pc

    from kgruntime.stages.extract import parse_batch
    from kgruntime.stages.fused_link import RECORD_EDGE, FusedParseLink
    from kgruntime.stages.linking import LinkScorer, detect_mentions
    from kgruntime.ttl import build_document, parse_document, tokenize

    texts = [t for t, e in zip(c.texts, c.truth) if e is not None][:300]
    lex, par, bld = [], [], []
    n_tok = n_tri = 0
    for _ in range(3):
        tl = tp = tb = 0.0
        n_tok = n_tri = 0
        for t in texts:
            t0 = time.perf_counter()
            toks = tokenize(t)
            t1 = time.perf_counter()
            stmts = parse_document(toks)
            t2 = time.perf_counter()
            rows = build_document(stmts)
            t3 = time.perf_counter()
            tl += t1 - t0
            tp += t2 - t1
            tb += t3 - t2
            n_tok += len(toks)
            n_tri += len(rows)
        lex.append(tl * 1e6 / len(texts))
        par.append(tp * 1e6 / len(texts))
        bld.append(tb * 1e6 / len(texts))

    def batches(table, size):
        return [table.slice(i, size) for i in range(0, table.num_rows, size)]

    ext_ms, parsed = [], []
    for b in batches(with_comment(c.table, "ledger extract"), 1024):
        t0 = time.perf_counter()
        parsed.append(parse_batch(b))
        ext_ms.append((time.perf_counter() - t0) * 1e3)
    parsed = pa.concat_tables(parsed)
    triples = parsed.filter(pc.equal(parsed["record_kind"], 0))

    fused = FusedParseLink(alias_table=aliases)
    fl_ms, edge_rows = [], 0
    for b in batches(with_comment(c.table, "ledger fused"), 4096):
        t0 = time.perf_counter()
        out = fused(b)
        fl_ms.append((time.perf_counter() - t0) * 1e3)
        edge_rows += pc.sum(pc.equal(out["record_kind"], RECORD_EDGE)).as_py() or 0

    mentions = detect_mentions(triples)
    scorer = LinkScorer(alias_table=aliases)
    ls_ms, n_edges = [], 0
    for b in batches(mentions, 8192):
        t0 = time.perf_counter()
        n_edges += scorer(b).num_rows
        ls_ms.append((time.perf_counter() - t0) * 1e3)
    return {
        "ttl.lexer.us_per_doc": _median(lex),
        "ttl.lexer.tokens_per_doc": n_tok / len(texts),
        "ttl.parser.us_per_doc": _median(par),
        "ttl.builder.us_per_doc": _median(bld),
        "ttl.builder.triples_per_doc": n_tri / len(texts),
        "stages.extract.parse_batch.ms_per_batch": _median(ext_ms),
        "stages.fused_link.ms_per_batch": _median(fl_ms),
        "stages.fused_link.edge_rows": edge_rows,
        "stages.linking.link_scorer.ms_per_batch": _median(ls_ms),
        "stages.linking.edges_per_mention":
            n_edges / max(1, mentions.num_rows),
    }


def _spread(xs: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def ablate(tr, prefixes) -> tuple[dict, dict, dict]:
    """Time successive pipeline prefixes, ``ABLATION_REPS`` rounds with
    the prefixes interleaved, so drift hits every prefix alike.

    ``prefixes`` is a list of (layer name, fn); prefix k runs layers
    0..k.  A layer's time is the difference of the medians of its prefix
    and the one before; it is resolved only when that difference is
    larger than the spread (interquartile range) of either prefix, and
    is None otherwise.  Returns (layer times, last result of each
    prefix, prefix spreads)."""
    times: dict[str, list[float]] = {n: [] for n, _ in prefixes}
    last = {}
    for _ in range(ABLATION_REPS):
        for name, fn in prefixes:
            with tr.span(f"ablation.{name}"):
                t0 = time.perf_counter()
                last[name] = fn()
                times[name].append(time.perf_counter() - t0)
    med = {n: statistics.median(ts) for n, ts in times.items()}
    spread = {n: _spread(ts) for n, ts in times.items()}
    layers, prev = {}, None
    for name, _ in prefixes:
        if prev is None:
            d, noise = med[name], spread[name]
        else:
            d, noise = med[name] - med[prev], max(spread[name], spread[prev])
        layers[name] = d if d > noise else None
        prev = name
    return layers, last, spread


class Workload:
    name = ""

    def __init__(self, work: str, seed: int, root: str):
        self.work = work
        self.seed = seed
        self.root = root


# --------------------------------------------------------------------------
# KG workloads
# --------------------------------------------------------------------------

class _KG(Workload):
    profile: C.Profile
    n_frags = 8
    per_round = 4              # run_checkpointed's fragments_per_round

    def build_inputs(self) -> dict:
        from kgruntime.stages.linking import build_alias_table

        self.corpus = C.make_corpus(self.seed, self.profile)
        self.n_docs = self.corpus.table.num_rows
        self.aliases = build_alias_table(self.corpus.gazetteer)
        self.bad_ids = {d for d, e in zip(self.corpus.table["doc_id"]
                                          .to_pylist(), self.corpus.truth)
                        if e is None}
        return {"docs": self.n_docs,
                "bytes": sum(len(t.encode()) for t in self.corpus.texts),
                "malformed_docs": len(self.bad_ids),
                "distinct_texts": len(set(self.corpus.texts))}

    def prepare_checks(self) -> dict:
        self.reference()
        attempted, failed, errs = check_front_end(self.corpus)
        return {"attempted": attempted, "failed": failed, "errors": errs,
                "sizes": {"parsed_triples": self.parsed_triples,
                          "stored_triples": self.ref_sig[0],
                          "corpus_hash": C.corpus_hash(self.corpus.table)}}

    def reference_slice(self, lo: int, hi: int) -> tuple[pa.Table, dict]:
        c = self.corpus
        return R.reference_rows(c.table["doc_id"].to_pylist()[lo:hi],
                                c.triples[lo:hi], c.gazetteer)

    def reference(self) -> None:
        rows, stats = self.reference_slice(0, self.n_docs)
        self.ref_sig = R.table_signature(rows)
        self.parsed_triples = stats["parsed_triples"]

    def ledger_corpus(self):
        return self.corpus, self.aliases

    def job_input(self, index: int) -> str:
        path = os.path.join(self.work, f"docs-{index}")
        shutil.rmtree(path, ignore_errors=True)
        C.write_fragments(with_comment(self.corpus.table, f"job {index}"),
                          path, self.n_frags)
        return path

    def _tail_ledger(self, tr, triples_ds, mapping, out: str) -> dict:
        """Ablation of read -> remap -> dedup -> write over a triples
        Dataset (see ``ablate``)."""
        from kgruntime.stages.canon import canonicalize_triples
        from kgruntime.stages.materialize import (dedup_triples,
                                                  write_triple_store)

        def remap():
            return canonicalize_triples(triples_ds(), mapping=mapping)

        def dedup():
            return dedup_triples(remap(), num_buckets=64, keep_buckets=True)

        def write():
            shutil.rmtree(out, ignore_errors=True)
            return write_triple_store(dedup(), out, pre_bucketed=True)

        layers, last, spread = ablate(tr, [
            ("read", lambda: triples_ds().count()),
            ("remap", lambda: remap().materialize()),
            ("dedup", lambda: dedup().materialize()),
            ("write", write)])
        n_in, dd = last["read"], last["dedup"]
        keys = pa.concat_tables(
            [pa.table({"b": t["subj_bucket"], "s": t["sub_salt"]})
             for t in dd.select_columns(["subj_bucket", "sub_salt"])
             .iter_batches(batch_format="pyarrow")])
        sizes = keys.group_by(["b", "s"]).aggregate([([], "count_all")])
        counts = sizes["count_all"].to_pylist()
        return {
            "ablation.spread_s": spread,
            "stages.canon.remap_s": layers["remap"],
            "stages.materialize.dedup_s": layers["dedup"],
            "stages.materialize.dedup_rows_in": n_in,
            "stages.materialize.dedup_rows_out": dd.count(),
            "stages.materialize.partition_max_over_mean":
                max(counts) / (sum(counts) / len(counts)) if counts else 0.0,
            "stages.materialize.write_s": layers["write"],
            "stages.materialize.files_written": _parquet_files(out),
        }

    def stage_ledger(self, tr, plans) -> dict:
        """Ablations of both KG shapes over this workload's corpus: the
        fused staging prefix, union-find and the read -> remap -> dedup
        -> write tail over the staged triples, then one round of
        ``run_checkpointed`` and its task-based extract and link-pool
        stages on that round's fragments."""
        import ray.data as rd

        from kgruntime.pipelines.kg import build_kg_fused, run_checkpointed
        from kgruntime.stages.canon import union_find
        from kgruntime.stages.extract import extract_triples, keep_triples
        from kgruntime.stages.linking import (link_edges_dataset,
                                              mentions_dataset)

        src = self.job_input(-1)
        stg = os.path.join(self.work, "staging-ledger")
        store = os.path.join(self.work, "store-ledger")
        one = os.path.join(self.work, "one-round")
        with tr.span("ablation.build_kg_fused"):
            t0 = time.perf_counter()
            res = build_kg_fused(rd.read_parquet(src),
                                 alias_table=self.aliases, staging_dir=stg)
            t_build = time.perf_counter() - t0
        with tr.span("ablation.union_find"):
            t0 = time.perf_counter()
            _, mapping = union_find(res["edges"])
            t_uf = time.perf_counter() - t0
        part = os.path.join(stg, "record_kind=0")
        out = self._tail_ledger(
            tr, lambda: rd.read_parquet(part, columns=STAGED_TRIPLE_COLS),
            mapping, store)

        frags = sorted(os.path.join(src, f) for f in os.listdir(src))
        first = frags[:self.per_round]
        with tr.span("ablation.one_round"):
            t0 = time.perf_counter()
            os.makedirs(one + "-in", exist_ok=True)
            for f in first:
                shutil.copy(f, one + "-in")
            run_checkpointed(one + "-in", one, alias_table=self.aliases,
                             num_buckets=64,
                             fragments_per_round=self.per_round)
            t_round = time.perf_counter() - t0
        with tr.span("ablation.extract"):
            t0 = time.perf_counter()
            combined = extract_triples(rd.read_parquet(first)).materialize()
            t_extract = time.perf_counter() - t0
        triples = combined.map_batches(keep_triples, batch_format="pyarrow",
                                       zero_copy_batch=True).materialize()
        with tr.span("ablation.link_pool"):
            t0 = time.perf_counter()
            link_edges_dataset(mentions_dataset(triples),
                               self.aliases).materialize()
            t_link = time.perf_counter() - t0
        out.update({
            "stages.canon.union_find_s": t_uf,
            "stages.canon.uf_edges": res["edges"].count(),
            "stages.canon.mapping_size": len(mapping[0]) if mapping else 0,
            "stages.extract.extract_s": t_extract,
            "stages.linking.link_pool_s": t_link,
            "pipelines.kg.parse_stage_s": t_build - t_uf,
            "pipelines.kg.staging_mb": _du_mb(stg),
            "pipelines.kg.round_s": t_round,
            "pipelines.kg.rounds": -(-len(frags) // self.per_round),
        })
        for p in (src, stg, store, one, one + "-in"):
            shutil.rmtree(p, ignore_errors=True)
        return out


class KgFused(_KG):
    """``build_kg_fused`` + ``write_triple_store``: the headline shape."""

    def job(self, index: int, tr, plans) -> dict:
        import ray.data as rd

        from kgruntime.pipelines.kg import build_kg_fused
        from kgruntime.stages.materialize import write_triple_store

        src = self.job_input(index)
        stg = os.path.join(self.work, f"staging-{index}")
        out = os.path.join(self.work, f"store-{index}")
        mark = plans.mark()
        c0, t0 = cpu_busy_s(), time.perf_counter()
        with tr.span("pipelines.kg.build_kg_fused"):
            res = build_kg_fused(rd.read_parquet(src),
                                 alias_table=self.aliases, staging_dir=stg)
        with tr.span("stages.materialize.write_triple_store"):
            write_triple_store(res["canonical"], out, pre_bucketed=True)
        wall, cpu = time.perf_counter() - t0, cpu_busy_s() - c0
        exchanges, datasets = plans.exchanges_since(mark), plans.datasets_since(mark)
        with tr.span("check"):
            sig = R.store_signature(out)
            quarantined = {r["doc_id"] for r in
                           res["errors"].select_columns(["doc_id"]).take_all()}
        wrong_docs = len(quarantined ^ self.bad_ids)
        errs = [] if sig == self.ref_sig else [
            f"store {sig} != reference {self.ref_sig}"]
        if wrong_docs:
            errs.append(f"{wrong_docs} documents with the wrong quarantine outcome")
        for p in (src, stg, out):
            shutil.rmtree(p, ignore_errors=True)
        return {"wall_s": wall, "cpu_s": cpu, "attempted": 1 + self.n_docs,
                "failed": (sig != self.ref_sig) + wrong_docs, "errors": errs,
                "exchanges": exchanges, "datasets": datasets}


class KgFusedDistinct(KgFused):
    name = "kg_fused_distinct"
    # every text distinct (a doc-unique statement), mild subject skew
    profile = C.Profile(n_docs=2000, pool=0, subj_skew=0.6, n_subjects=20000)


class KgFusedDupSkew(KgFused):
    name = "kg_fused_dup_skew"
    # 150 payloads for 3000 docs, Zipf-hot subjects over 60 entities
    profile = C.Profile(n_docs=3000, pool=150, subj_skew=1.3, n_subjects=60)


class KgCheckpointed(_KG):
    """``run_checkpointed`` with the ``scripts/kg_job.py`` defaults."""
    name = "kg_checkpointed"
    profile = C.Profile(n_docs=1200, pool=0, subj_skew=1.0, n_subjects=1200)

    def reference(self) -> None:
        per = -(-self.n_docs // self.n_frags) * self.per_round
        self.round_bad, n, h, self.parsed_triples = [], 0, 0, 0
        for lo in range(0, self.n_docs, per):
            rows, stats = self.reference_slice(lo, lo + per)
            rn, rh = R.table_signature(rows)
            n, h = n + rn, h + rh
            self.parsed_triples += stats["parsed_triples"]
            self.round_bad.append(stats["quarantined_docs"])
        self.ref_sig = (n, h)

    def job(self, index: int, tr, plans) -> dict:
        from kgruntime.pipelines.kg import run_checkpointed
        from kgruntime.stages.materialize import read_manifests

        src = self.job_input(index)
        out = os.path.join(self.work, f"store-{index}")
        mark = plans.mark()
        c0, t0 = cpu_busy_s(), time.perf_counter()
        with tr.span("pipelines.kg.run_checkpointed"):
            res = run_checkpointed(src, out, alias_table=self.aliases,
                                   num_buckets=64,
                                   fragments_per_round=self.per_round)
        wall, cpu = time.perf_counter() - t0, cpu_busy_s() - c0
        exchanges, datasets = plans.exchanges_since(mark), plans.datasets_since(mark)
        with tr.span("check"):
            sig = R.store_signature(os.path.join(out, "data"))
            rounds: dict[str, int] = {}
            for m in read_manifests(out):
                rounds[m["counters"]["round"]] = \
                    m["counters"]["malformed_span_rejects"]
        got = [rounds[k] for k in sorted(rounds)]
        wrong_docs = sum(abs(a - b) for a, b in zip(got, self.round_bad)) \
            if len(got) == len(self.round_bad) else self.n_docs
        errs = [] if sig == self.ref_sig else [
            f"store {sig} != reference {self.ref_sig}"]
        if wrong_docs:
            errs.append(f"quarantine counts {got} != {self.round_bad}")
        if len(res["processed"]) != self.n_frags:
            errs.append(f"{len(res['processed'])} fragments committed")
        for p in (src, out):
            shutil.rmtree(p, ignore_errors=True)
        return {"wall_s": wall, "cpu_s": cpu, "attempted": 2 + self.n_docs,
                "failed": (sig != self.ref_sig) + wrong_docs
                + (len(res["processed"]) != self.n_frags),
                "errors": errs, "exchanges": exchanges, "datasets": datasets}


# --------------------------------------------------------------------------
# ops workload
# --------------------------------------------------------------------------

def _check_oracle_module(root: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_oracle", os.path.join(root, "scripts", "check_oracle.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class OpsGrouping(Workload):
    """Registered ``__ray_entry__.queries()`` in sequence over generated
    tables, each checked against ``oracle_sql()`` by the value hash of
    ``scripts/check_oracle.py``: seven in the closed-loop job, all eight
    in the traced ledger."""
    name = "ops_grouping"
    sizes = {"n_docs": 200, "n_parts": 1000, "n_events": 5000}

    def build_inputs(self) -> dict:
        import __ray_entry__ as E

        self.sf = C.write_ops_tables(self.seed, os.path.join(self.work, "sf"),
                                     **self.sizes)
        self.n_docs = self.sizes["n_docs"]
        self.co = _check_oracle_module(self.root)
        self.queries = {q: E.queries()[q] for q in QUERIES + LEDGER_QUERIES}
        return {**self.sizes, "bytes": _du_mb(self.sf) * 1e6}

    def prepare_checks(self) -> dict:
        import duckdb

        import __ray_entry__ as E

        oracles = E.oracle_sql()
        con = duckdb.connect()
        for t in ("documents", "part", "events"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{self.sf}/{t}.parquet')")
        self.expect = {}
        for q in self.queries:
            df = con.sql(oracles[q]).df()
            self.expect[q] = (len(df), sorted(map(str, df.columns)),
                              self.co.value_hash(df))
        con.close()
        return {"attempted": 0, "failed": 0, "errors": [],
                "sizes": {"oracle_rows": {q: e[0] for q, e in
                                          self.expect.items()}}}

    def run_query(self, q: str):
        """Run query ``q``; returns its result and its wall and CPU time."""
        c0, t0 = cpu_busy_s(), time.perf_counter()
        df = self.co.to_pandas(self.queries[q](self.sf))
        return df, {"wall_s": time.perf_counter() - t0,
                    "cpu_s": cpu_busy_s() - c0}

    def check(self, q: str, df) -> bool:
        rows, cols, h = self.expect[q]
        return (len(df) == rows and sorted(map(str, df.columns)) == cols
                and self.co.value_hash(df) == h)

    def job(self, index: int, tr, plans) -> dict:
        parts, failed, errs = {}, 0, []
        mark = plans.mark()
        for q in QUERIES:
            with tr.span(f"ops.{q}"):
                df, parts[q] = self.run_query(q)
            if not self.check(q, df):
                failed += 1
                errs.append(f"{q}: {len(df)} rows, expected "
                            f"{self.expect[q][0]} (or hash mismatch)")
        return {"wall_s": sum(p["wall_s"] for p in parts.values()),
                "cpu_s": sum(p["cpu_s"] for p in parts.values()),
                "parts": parts,
                "attempted": len(QUERIES), "failed": failed,
                "errors": errs, "exchanges": plans.exchanges_since(mark),
                "datasets": plans.datasets_since(mark)}

    def ledger_corpus(self):
        from kgruntime.stages.linking import build_alias_table

        c = C.make_corpus(self.seed, C.Profile(400, 0, 0.8, 2000))
        return c, build_alias_table(c.gazetteer)

    def stage_ledger(self, tr, plans) -> dict:
        out = {}
        for q in QUERIES + LEDGER_QUERIES:
            mark = plans.mark()
            with tr.span(f"ablation.ops.{q}"):
                df, t = self.run_query(q)
            if not self.check(q, df):
                raise RuntimeError(f"{q}: {len(df)} rows, expected "
                                   f"{self.expect[q][0]} (or hash mismatch)")
            out[f"ops.{q}.s"] = t["wall_s"]
            out[f"ops.{q}.cpu_s"] = t["cpu_s"]
            out[f"ops.{q}.rows"] = len(df)
            out[f"ops.{q}.exchanges"] = plans.exchanges_since(mark)
        return out


WORKLOADS = {cls.name: cls for cls in (KgFusedDistinct, KgFusedDupSkew,
                                       KgCheckpointed, OpsGrouping)}


def make(name: str, work: str, seed: int, root: str) -> Workload:
    return WORKLOADS[name](work, seed, root)
