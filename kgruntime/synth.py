"""Schema of the `input_hint` documents table (FIXTURES.md §1,
BASELINE.json input_hint).

    doc_id:  string
    spans:   list<struct<kind:string, text:string, media_ref:string,
                         offset:int32>>

Seeded corpora in this schema, with the ground truth of every document
and a gazetteer for the alias table, come from ``perfbench/corpus.py``
(``make_corpus(seed, Profile(...))``).
"""

from __future__ import annotations

import pyarrow as pa

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
