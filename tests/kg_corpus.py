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

Documents are built with the library's own ``synth._doc_row`` so span
splitting and media interleaving match the synthetic corpus; entries
are ``(name, source, "")`` like ``synth.goldens()``.
"""

from __future__ import annotations

import os

import pyarrow as pa

from kgruntime.synth import DOCUMENTS_SCHEMA, SPAN_STRUCT, _doc_row

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

PAYLOADS = [("people", PEOPLE, ""), ("bob", BOB, ""), ("bridge", BRIDGE, ""),
            ("list", LIST, ""), ("alice", ALICE, ""),
            ("malformed", MALFORMED, "")]


def documents_table(n_docs: int, seed: int = 42,
                    malformed_every: int = 0) -> pa.Table:
    """``n_docs`` documents cycling through PAYLOADS."""
    rows = [_doc_row(i, seed, malformed_every, PAYLOADS)
            for i in range(n_docs)]
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
        r[3] for name, src, _ in PAYLOADS if name != "malformed"
        for r in parse_turtle(src)
        if r[4] == LITERAL and (r[5] == XSD_STRING or r[6]))
