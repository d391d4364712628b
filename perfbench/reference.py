"""Single-process reference for the KG store, and the store signature.

The reference is built from the generator's own triples, without any
library code, so a defect in the parser, the mention detector or the
link scorer changes the store under test but not the reference:

* blank labels are scoped to their document as the pipeline documents
  it: generated ``_:n`` becomes ``_:{doc_id}/n``, labeled ``_:name``
  becomes ``_:{doc_id}/L/name``;
* a mention is a literal typed ``xsd:string`` or language-tagged; it
  links its subject to ``http://kb.example/entity/<slug>`` when the
  literal, lower-cased with every run of other characters than ``a-z``
  and ``0-9`` folded to one space, is a gazetteer name.  Every other
  name the generator draws is a distinct first/last pair from outside
  the gazetteer, so no fuzzy match is expected;
* union-find over those edges, canonical label of a component = its
  rank-minimum member, IRIs before blank nodes; literals are never
  remapped; a blank rewritten to an IRI becomes IRI-kind; then dedup.

The pipeline under test must produce the same row set however it
batches, shuffles and writes.  A store is compared by row count and
DuckDB's order-independent ``sum(hash(subj, pred, obj, obj_datatype,
obj_lang))``.
"""

from __future__ import annotations

import re

import pyarrow as pa

from corpus import BLANK, IRI, LIT, XSD

STORE_SQL = ("SELECT count(*) AS n, "
             "sum(hash(subj, pred, obj, obj_datatype, obj_lang)) AS h "
             "FROM {src}")
KEY = ["subj", "subj_kind", "pred", "obj", "obj_kind", "obj_datatype",
       "obj_lang"]
KB_ENTITY = "http://kb.example/entity/"
_OTHER = re.compile(r"[^a-z0-9]+")


def alias_key(name: str) -> str:
    return _OTHER.sub(" ", name.lower()).strip()


def _scoped(doc_id: str, label: str) -> str:
    local = label[2:]
    return f"_:{doc_id}/{local}" if local.isdigit() \
        else f"_:{doc_id}/L/{local}"


def rows_and_edges(doc_ids: list[str], triples: list,
                   gazetteer: list[str]) -> tuple[list[tuple], list[tuple]]:
    """Document-scoped triple rows (in ``KEY`` order) of the documents
    ``doc_ids`` with generated ``triples`` (``None`` for a malformed
    document), and the (entity, KB entity) link edges of their
    mentions."""
    aliases = {alias_key(n) for n in gazetteer}
    rows_in, edges = [], []
    for doc_id, trip in zip(doc_ids, triples):
        if trip is None:
            continue
        for s, sk, p, o, ok, dt, lang in trip:
            if sk == BLANK:
                s = _scoped(doc_id, s)
            if ok == BLANK:
                o = _scoped(doc_id, o)
            rows_in.append((s, sk, p, o, ok, dt, lang))
            if ok == LIT and (dt == XSD + "string" or lang):
                key = alias_key(o)
                if key in aliases:
                    edges.append((s, KB_ENTITY + key.replace(" ", "-")))
    return rows_in, edges


def reference_rows(doc_ids: list[str], triples: list,
                   gazetteer: list[str]) -> tuple[pa.Table, dict]:
    """Canonical, deduplicated store rows of one build (see
    ``rows_and_edges``), plus the counts seen along the way."""
    rows_in, edges = rows_and_edges(doc_ids, triples, gazetteer)
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def rank(x: str) -> tuple:
        return (x.startswith("_:"), x)

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if rank(ra) <= rank(rb) else (rb, ra)
            parent.setdefault(lo, lo)
            parent[hi] = lo
    mapping = {n: find(n) for n in list(parent)}

    rows = set()
    for s, sk, p, o, ok, dt, lang in rows_in:
        if s in mapping:
            s = mapping[s]
            sk = BLANK if s.startswith("_:") else IRI
        if ok != LIT and o in mapping:
            o = mapping[o]
            ok = BLANK if o.startswith("_:") else IRI
        rows.add((s, sk, p, o, ok, dt, lang))
    cols = list(zip(*sorted(rows))) if rows else [[]] * len(KEY)
    types = [pa.string(), pa.uint8(), pa.string(), pa.string(), pa.uint8(),
             pa.string(), pa.string()]
    table = pa.Table.from_arrays(
        [pa.array(list(c), t) for c, t in zip(cols, types)], names=KEY)
    stats = {"parsed_triples": len(rows_in),
             "quarantined_docs": sum(t is None for t in triples),
             "link_edges": len(edges),
             "mapping_size": sum(1 for k, v in mapping.items() if k != v)}
    return table, stats


def table_signature(table: pa.Table) -> tuple[int, int]:
    import duckdb

    con = duckdb.connect()
    con.register("ref", table)
    n, h = con.sql(STORE_SQL.format(src="ref")).fetchone()
    con.close()
    return int(n), int(h or 0)


def store_signature(store_dir: str) -> tuple[int, int]:
    """(rows, hash) of every parquet file under ``store_dir``."""
    import duckdb

    con = duckdb.connect()
    n, h = con.sql(STORE_SQL.format(
        src=f"read_parquet('{store_dir}/**/*.parquet')")).fetchone()
    con.close()
    return int(n), int(h or 0)
