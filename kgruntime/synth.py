"""Deterministic synthesis of the `input_hint` documents table
(FIXTURES.md §1, BASELINE.json input_hint).

Schema (exactly):
    doc_id:  string
    spans:   list<struct<kind:string, text:string, media_ref:string,
                         offset:int32>>

Recipe (seed-parameterized, no wall clock — determinism keeps Ray task
retries and resume safe, SURVEY.md §7 hard-part (f)): cycle the 29 golden
``.ttl`` payloads as text spans, split some payloads into several text
spans at statement boundaries, and interleave 0-2 media spans per doc
(``media_ref = f"media://{doc_id}/{i}"``).  Offsets are the running char
count.  The expected triples for each doc are the matching ``.nq`` files
with blank labels rewritten per-doc (``_:n`` → ``_:{doc_id}/n``,
``_:x`` → ``_:{doc_id}/L/x``).
"""

from __future__ import annotations

import glob
import hashlib
import os
import random

import pyarrow as pa

GOLDEN_DIR = "/root/reference/tests/positive"

SPAN_STRUCT = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])
DOCUMENTS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
])


def _load_goldens() -> list[tuple[str, str, str]]:
    """[(name, ttl_source, nq_source)] sorted by name."""
    out = []
    for ttl in sorted(glob.glob(os.path.join(GOLDEN_DIR, "p*.ttl"))):
        name = os.path.basename(ttl)[:-4]
        with open(ttl) as f:
            src = f.read()
        with open(ttl[:-4] + ".nq") as f:
            nq = f.read()
        out.append((name, src, nq))
    return out


_GOLDENS: list[tuple[str, str, str]] | None = None


def goldens() -> list[tuple[str, str, str]]:
    global _GOLDENS
    if _GOLDENS is None:
        _GOLDENS = _load_goldens()
    return _GOLDENS


def _required_goldens() -> list[tuple[str, str, str]]:
    """``goldens()``, or FileNotFoundError when the directory holds none
    (the corpus cycles them, so there is nothing to build from)."""
    g = goldens()
    if not g:
        raise FileNotFoundError(
            f"no reference goldens (p*.ttl) in {GOLDEN_DIR}: the "
            "synthetic documents corpus is built from them")
    return g


def _split_text(src: str, rng: random.Random) -> list[str]:
    """Split a Turtle payload into 1-3 chunks at top-level newlines so a
    doc's text spans exercise multi-span concatenation.  Chunks must
    concatenate back to the exact source (span-sequence invariant)."""
    lines = src.splitlines(keepends=True)
    if len(lines) < 4 or rng.random() < 0.4:
        return [src]
    n_cuts = rng.randint(1, min(2, len(lines) - 1))
    cuts = sorted(rng.sample(range(1, len(lines)), n_cuts))
    chunks, prev = [], 0
    for c in cuts + [len(lines)]:
        chunks.append("".join(lines[prev:c]))
        prev = c
    return [c for c in chunks if c]


def _doc_row(i: int, seed: int, malformed_every: int,
             g: list, distinct: bool = False) -> tuple[str, list[dict]]:
    """One document, seeded per-index — identical output no matter how
    docs are batched across generator tasks (retry/parallelism safe).

    ``distinct=True`` appends one doc-unique statement so every document
    TEXT is distinct — the realistic corpus profile (web documents are
    mostly unique; exact duplicates are a minority handled by dedup and
    the parse memo).  Default False preserves the original cycling
    corpus and every golden-parity expectation."""
    doc_id = f"doc-{i:06d}"
    _, src, _ = g[i % len(g)]
    if distinct:
        src = (src + f"\n<http://kb.example/doc/{doc_id}>"
               f" <http://kb.example/p/ord> \"{i}\" .\n")
    if malformed_every and i % malformed_every == malformed_every - 1:
        src = src + "\n<http://bad.example/a b> <http://x/> <http://y/> ."
    rng = random.Random((seed << 32) ^ i)
    chunks = _split_text(src, rng)
    spans = []
    offset = 0
    n_media = rng.randint(0, 2)
    media_positions = set(rng.sample(range(len(chunks) + 1), n_media)) \
        if n_media else set()
    mi = 0
    for j, chunk in enumerate(chunks):
        if j in media_positions:
            spans.append({"kind": "media", "text": "",
                          "media_ref": f"media://{doc_id}/{mi}",
                          "offset": offset})
            mi += 1
        spans.append({"kind": "text", "text": chunk,
                      "media_ref": "", "offset": offset})
        offset += len(chunk)
    if len(chunks) in media_positions:
        spans.append({"kind": "media", "text": "",
                      "media_ref": f"media://{doc_id}/{mi}",
                      "offset": offset})
    return doc_id, spans


def make_documents_table(n_docs: int, seed: int = 42,
                         malformed_every: int = 0,
                         start: int = 0, distinct: bool = False) -> pa.Table:
    """Build (a slice of) the documents table as one Arrow table.

    ``malformed_every`` > 0 injects a lex-broken text span in every k-th
    doc (for quarantine-path testing).
    """
    g = _required_goldens()
    rows = [_doc_row(i, seed, malformed_every, g, distinct=distinct)
            for i in range(start, start + n_docs)]
    return pa.Table.from_arrays(
        [pa.array([r[0] for r in rows], pa.string()),
         pa.array([r[1] for r in rows], pa.list_(SPAN_STRUCT))],
        schema=DOCUMENTS_SCHEMA)


def synth_documents_dataset(n_docs: int, seed: int = 42,
                            malformed_every: int = 0,
                            docs_per_block: int = 4000,
                            distinct: bool = False):
    """Generate the corpus *in parallel* as a Ray Dataset: ``range`` →
    ``map_batches`` over index batches, each task synthesizing its slice
    independently (per-doc seeding ⇒ batching-invariant output)."""
    import ray.data as rd

    _required_goldens()

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_pylist()
        g = goldens()
        rows = [_doc_row(int(i), seed, malformed_every, g,
                         distinct=distinct) for i in ids]
        return pa.Table.from_arrays(
            [pa.array([r[0] for r in rows], pa.string()),
             pa.array([r[1] for r in rows], pa.list_(SPAN_STRUCT))],
            schema=DOCUMENTS_SCHEMA)

    return rd.range(n_docs).map_batches(gen, batch_format="pyarrow",
                                        batch_size=docs_per_block)


def expected_triples_for(doc_id: str, golden_index: int) -> list[tuple]:
    """Golden expectation for one doc: the matching .nq rows with blank
    labels rewritten per-doc (FIXTURES.md §1)."""
    from .ttl.nquads import parse_nquads
    from .ttl.builder import BLANKN

    _, _, nq = goldens()[golden_index % len(goldens())]
    rows = []
    for r in parse_nquads(nq):
        s, sk, p, o, ok, dt, lang = r

        def rewrite(v, k):
            if k != BLANKN:
                return v
            body = v[2:]
            if body.isdigit():
                return f"_:{doc_id}/{body}"
            return f"_:{doc_id}/L/{body}"

        rows.append((rewrite(s, sk), sk, p, rewrite(o, ok), ok, dt, lang))
    return rows


def write_corpus(path: str, n_docs: int, seed: int = 42,
                 malformed_every: int = 0, rows_per_file: int = 2000) -> str:
    """Write a synthetic corpus as a directory of parquet files (one file
    per shard → resumable reads; mirrors a Lance fragment layout since
    lance isn't installed in this sandbox, SURVEY.md §2a S1)."""
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    table = make_documents_table(n_docs, seed, malformed_every)
    n_files = max(1, (n_docs + rows_per_file - 1) // rows_per_file)
    for f in range(n_files):
        chunk = table.slice(f * rows_per_file, rows_per_file)
        pq.write_table(chunk, os.path.join(path, f"part-{f:05d}.parquet"))
    return path


def corpus_checksum(table: pa.Table) -> str:
    """Stable content hash for test assertions on determinism."""
    h = hashlib.sha256()
    for batch in table.to_batches():
        h.update(str(batch.to_pylist()).encode())
    return h.hexdigest()[:16]
