"""In-repo Turtle corpus for the KG-builder tests.

Six small payloads that exercise every linking path of the pipelines:

* ``people``    — IRI subjects with names, ``rdf:type`` and
  ``rel:enemyOf`` (IRI↔KB edges, the star-BGP patterns);
* ``bob``       — an anonymous ``[ foaf:name "Bob" ]`` that repeats in
  every clone, so corpus aliasing (min_count 2) links it;
* ``bridge``    — one blank node with two names, bridging two KB
  entities;
* ``list``      — a collection and ``@base``-relative IRIs;
* ``alice``     — ``PREFIX`` syntax, a typed literal and another Bob;
* ``malformed`` — a lex error, so the whole document is quarantined.

Each document cuts its payload into 1-3 text spans at line boundaries
and interleaves 0-2 media spans, seeded per document.
"""

from __future__ import annotations

import os
import random

import pyarrow as pa

from kgruntime.synth import DOCUMENTS_SCHEMA, SPAN_STRUCT

PEOPLE = """\
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix rel: <http://www.perceive.net/schemas/relationship/> .

<http://example.org/#green-goblin>
    rel:enemyOf <http://example.org/#spiderman> ;
    a foaf:Person ;
    foaf:name "Green Goblin" .

<http://example.org/#spiderman>
    rel:enemyOf <http://example.org/#green-goblin> ;
    a foaf:Person ;
    foaf:name "Spiderman", "Человек-паук"@ru .
"""

BOB = """\
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

[] foaf:knows [ foaf:name "Bob" ] .
"""

BRIDGE = """\
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

_:alter a foaf:Person ;
    foaf:name "Green Goblin" ;
    foaf:name "Norman Osborn" .
"""

LIST = """\
@base <http://example.org/base/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .

<shelf> <holds> ( 1 2 <box> ) .
<box> rdf:type <Container> .
"""

ALICE = """\
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<http://example.org/people/alice> foaf:name "Alice" ;
    foaf:age "42"^^xsd:integer ;
    foaf:knows [ foaf:name "Bob" ] .
"""

MALFORMED = """\
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

<http://example.org/people/carol> foaf:name "Carol" .
<http://bad.example/a b> foaf:knows <http://example.org/people/carol> .
"""

PAYLOADS = [("people", PEOPLE), ("bob", BOB), ("bridge", BRIDGE),
            ("list", LIST), ("alice", ALICE), ("malformed", MALFORMED)]


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


def _doc_row(i: int, seed: int, malformed_every: int) -> tuple[str, list]:
    """One document, seeded per index; every ``malformed_every``-th
    document gets a lex-broken line appended."""
    doc_id = f"doc-{i:06d}"
    _, src = PAYLOADS[i % len(PAYLOADS)]
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


def documents_table(n_docs: int, seed: int = 42,
                    malformed_every: int = 0) -> pa.Table:
    """``n_docs`` documents cycling through PAYLOADS."""
    rows = [_doc_row(i, seed, malformed_every) for i in range(n_docs)]
    return pa.Table.from_arrays(
        [pa.array([r[0] for r in rows], pa.string()),
         pa.array([r[1] for r in rows], pa.list_(SPAN_STRUCT))],
        schema=DOCUMENTS_SCHEMA)


def documents(n_docs: int, seed: int = 42, malformed_every: int = 0):
    import ray.data as rd

    return rd.from_arrow(documents_table(n_docs, seed, malformed_every))


def write_corpus(path: str, n_docs: int, seed: int = 42,
                 rows_per_file: int = 10) -> str:
    """The corpus as a directory of parquet fragments."""
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    table = documents_table(n_docs, seed)
    for f in range(-(-n_docs // rows_per_file)):
        pq.write_table(table.slice(f * rows_per_file, rows_per_file),
                       os.path.join(path, f"part-{f:05d}.parquet"))
    return path


def kb_alias_table() -> dict[str, str]:
    """Gazetteer of every name literal in the well-formed payloads."""
    from kgruntime.stages.linking import build_alias_table
    from kgruntime.ttl import parse_turtle
    from kgruntime.ttl.builder import LITERAL, XSD_STRING

    return build_alias_table(
        r[3] for name, src in PAYLOADS if name != "malformed"
        for r in parse_turtle(src)
        if r[4] == LITERAL and (r[5] == XSD_STRING or r[6]))


def doc_local(v: str, kind: int, doc_id: str) -> str:
    """A pipeline blank label back to the parser's default one:
    ``_:{doc_id}/n`` → ``_:n`` and ``_:{doc_id}/L/x`` → ``_:x``."""
    if kind != 1:
        return v
    return "_:" + v[len(doc_id) + 3:].removeprefix("L/")
