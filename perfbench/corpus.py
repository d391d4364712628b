"""Seeded benchmark inputs.

Two kinds of input are made here, both a pure function of a seed:

* Turtle document corpora in ``kgruntime.synth.DOCUMENTS_SCHEMA`` with
  the ground truth of every document: the canonical N-Quads lines its
  text must parse to, or ``None`` when the document was made malformed
  on purpose and must be quarantined.  Documents use varied surface
  forms (``@prefix``/``PREFIX``, ``@base`` + relative IRIs, ``;``/``,``
  lists, nested ``[]``, collections, typed / language-tagged / numeric
  literals) and are cut into several text spans with media spans in
  between.  Name literals are Zipf draws from a name pool, part of which
  is the gazetteer that also feeds ``build_alias_table``.
* The relational tables (``documents``, ``part``, ``events``) that the
  registered ops queries read, in the shape of the driver's sf
  directories.

Blank-node labels in the ground truth follow the builder's allocation
order (subject before objects, ``[]`` label before its properties,
collection items before their cell, cells tail first), with the
parser's default labeler: ``_:0, _:1, ...`` and ``_:name`` kept verbatim.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import random
from typing import NamedTuple

import pyarrow as pa

EX = "http://ex.org/ns/"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
KB_DOC = "http://kb.example/doc/"

IRI, BLANK, LIT = 0, 1, 2

FIRST = ["Alice", "Bruno", "Chen", "Dara", "Emil", "Fatima", "Goran",
         "Hana", "Ivan", "Jun", "Kofi", "Lena", "Mateo", "Nadia", "Omar",
         "Priya", "Quinn", "Rosa", "Sven", "Tariq", "Uma", "Viktor",
         "Wen", "Ximena", "Yusuf", "Zofia"]
LAST = ["Abbott", "Baptiste", "Castillo", "Dumont", "Eriksen", "Fontaine",
        "Gallagher", "Horvath", "Iwasaki", "Jablonski", "Kowalczyk",
        "Lindqvist", "Moreau", "Nakamura", "Okafor", "Petrov", "Quispe",
        "Rasmussen", "Sorensen", "Takahashi", "Umarov", "Valdez",
        "Whitfield", "Yilmaz", "Zielinski"]
CITIES = ["Lisbon", "Osaka", "Quito", "Tromso", "Accra", "Hobart",
          "Tbilisi", "Bergen", "Cusco", "Dakar"]
TAGS = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]


class Profile(NamedTuple):
    """How a corpus is drawn.

    ``pool`` > 0 draws every document's payload (uniformly, so the
    corpus size barely moves with the seed) from that many distinct
    payloads; 0 makes every document's text distinct.
    ``subj_skew`` is the Zipf exponent of subject draws over
    ``n_subjects`` entities.  Every ``bad_every``-th document (at seeded
    positions, an exact share) is made malformed.
    """
    n_docs: int
    pool: int
    subj_skew: float
    n_subjects: int
    bad_every: int = 40
    stmts: tuple[int, int] = (5, 9)


class Corpus(NamedTuple):
    table: pa.Table            # DOCUMENTS_SCHEMA
    texts: list[str]           # concatenated text spans per document
    truth: list                # per doc: tuple of N-Quads lines, or None
    triples: list              # per doc: generated triples, or None
    gazetteer: list[str]       # names that seed the alias table


def _zipf_cdf(n: int, s: float) -> list[float]:
    acc, out = 0.0, []
    for r in range(1, n + 1):
        acc += 1.0 / r ** s
        out.append(acc)
    return [x / acc for x in out]


def _zipf(rng: random.Random, cdf: list[float]) -> int:
    return min(bisect.bisect_left(cdf, rng.random()), len(cdf) - 1)


def name_pools(seed: int) -> tuple[list[str], list[str]]:
    """(gazetteer, off-gazetteer names), drawn from the first x last name
    grid.  The two pools use disjoint, seeded halves of the last names:
    sharing a last name, a short first name like "Wen" vs "Chen" scores
    over the link scorer's fuzzy threshold, so an off-gazetteer name
    would link."""
    rng = random.Random(seed * 7919 + 1)
    last = LAST[:]
    rng.shuffle(last)
    gaz = [f"{f} {l}" for f in FIRST for l in last[:12]]
    other = [f"{f} {l}" for f in FIRST for l in last[12:]]
    rng.shuffle(gaz)
    rng.shuffle(other)
    return sorted(gaz[:120]), other[:240]


def _surface(rng: random.Random, name: str) -> str:
    """A spelling variant that normalizes to the same alias."""
    r = rng.random()
    if r < 0.6:
        return name
    if r < 0.75:
        return name.lower()
    if r < 0.9:
        return name.upper()
    return name.replace(" ", "  ") + "."


class _Doc:
    """Accumulates one payload's Turtle text and its expected triples in
    builder allocation order."""

    def __init__(self, rng: random.Random, names: list[str],
                 name_cdf: list[float], subj_cdf: list[float]):
        self.rng = rng
        self.names = names
        self.name_cdf = name_cdf
        self.subj_cdf = subj_cdf
        self.counter = 0
        self.triples: list[tuple] = []
        self.use_base = rng.random() < 0.5
        self.xsd_prefix = rng.random() < 0.6

    def fresh(self) -> str:
        b = f"_:{self.counter}"
        self.counter += 1
        return b

    def header(self) -> str:
        rng = self.rng
        lines = []
        if self.use_base:
            lines.append(f"@base <{EX}> .")
        lines.append(f"PREFIX ex: <{EX}>" if rng.random() < 0.5
                     else f"@prefix ex: <{EX}> .")
        if self.xsd_prefix:
            lines.append(f"@prefix xsd: <{XSD}> ." if rng.random() < 0.5
                         else f"PREFIX xsd: <{XSD}>")
        return "\n".join(lines) + "\n"

    # -- terms ---------------------------------------------------------
    def iri(self, local: str) -> tuple[str, tuple]:
        r = self.rng.random()
        if self.use_base and r < 0.3:
            text = f"<{local}>"
        elif r < 0.55:
            text = f"<{EX}{local}>"
        else:
            text = f"ex:{local}"
        return text, (EX + local, IRI, "", "")

    def pred(self, local: str) -> tuple[str, str]:
        if self.rng.random() < 0.2:
            return f"<{EX}{local}>", EX + local
        return f"ex:{local}", EX + local

    def subject_local(self) -> str:
        return f"e{_zipf(self.rng, self.subj_cdf)}"

    def name_lit(self) -> tuple[str, tuple]:
        v = _surface(self.rng, self.names[_zipf(self.rng, self.name_cdf)])
        return f'"{v}"', (v, LIT, XSD + "string", "")

    def lang_lit(self) -> tuple[str, tuple]:
        v = self.names[_zipf(self.rng, self.name_cdf)]
        lang = self.rng.choice(["en", "fr", "de-CH"])
        return f'"{v}"@{lang}', (v, LIT, "", lang)

    def int_lit(self) -> tuple[str, tuple]:
        v = str(self.rng.randint(-50, 20000))
        return v, (v, LIT, XSD + "integer", "")

    def dec_lit(self) -> tuple[str, tuple]:
        v = f"{self.rng.randint(0, 999)}.{self.rng.randint(0, 99):02d}"
        return v, (v, LIT, XSD + "decimal", "")

    def dbl_lit(self) -> tuple[str, tuple]:
        v = f"{self.rng.randint(1, 9)}.{self.rng.randint(0, 9)}e{self.rng.randint(0, 5)}"
        return v, (v, LIT, XSD + "double", "")

    def date_lit(self) -> tuple[str, tuple]:
        rng = self.rng
        v = f"{rng.randint(1950, 2010)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        dt = f"xsd:date" if self.xsd_prefix else f"<{XSD}date>"
        return f'"{v}"^^{dt}', (v, LIT, XSD + "date", "")

    def quoted_lit(self) -> tuple[str, tuple]:
        w = self.rng.choice(TAGS)
        return f'"say \\"{w}\\""', (f'say "{w}"', LIT, XSD + "string", "")

    def emit(self, subj: tuple, pred_iri: str, obj: tuple) -> None:
        self.triples.append((subj[0], subj[1], pred_iri) + obj)

    # -- statements ----------------------------------------------------
    def po_list(self, subj: tuple, items: list) -> str:
        """items: [(pred_text, pred_iri, [obj_thunk, ...]), ...]; each
        thunk returns (text, obj_tuple) and may emit nested triples."""
        parts = []
        for ptext, piri, thunks in items:
            objs = []
            for th in thunks:
                text, obj = th()
                objs.append(text)
                self.emit(subj, piri, obj)
            parts.append(f"{ptext} " + " , ".join(objs))
        return " ;\n    ".join(parts)

    def anon(self, items_fn) -> tuple[str, tuple]:
        b = (self.fresh(), BLANK)
        body = self.po_list(b, items_fn())
        return f"[ {body} ]", (b[0], BLANK, "", "")

    def collection(self, item_thunks) -> tuple[str, tuple]:
        texts = [None] * len(item_thunks)
        head = (RDF + "nil", IRI, "", "")
        for i in reversed(range(len(item_thunks))):
            texts[i], item = item_thunks[i]()
            cell = (self.fresh(), BLANK)
            self.emit(cell, RDF + "type", (RDF + "List", IRI, "", ""))
            self.emit(cell, RDF + "rest", head)
            self.emit(cell, RDF + "first", item)
            head = (cell[0], BLANK, "", "")
        return "( " + " ".join(texts) + " )", head

    def statement(self, kind: int) -> str:
        rng = self.rng
        P = self.pred
        if kind == 0:                                  # IRI entity
            stext, s = self.iri(self.subject_local())
            subj = s[:2]
            items = [(*P("name"), [self.name_lit]),
                     ("a", RDF + "type",
                      [lambda: self.iri("Person")])]
            if rng.random() < 0.6:
                items.append((*P("age"), [self.int_lit]))
            if rng.random() < 0.5:
                items.append((*P("score"), [self.dec_lit]))
            if rng.random() < 0.5:
                items.append((*P("label"),
                              [self.lang_lit] * rng.randint(1, 2)))
            if rng.random() < 0.6:
                items.append((*P("knows"),
                              [lambda: self.iri(self.subject_local())]
                              * rng.randint(1, 3)))
            return f"{stext} {self.po_list(subj, items)} .\n"
        if kind == 1:                                  # labeled blank
            subj = (f"_:b{rng.randint(0, 3)}", BLANK)
            items = [(*P("name"), [self.name_lit]),
                     (*P("worksFor"),
                      [lambda: self.iri(f"org{rng.randint(0, 30)}")])]
            return f"{subj[0]} {self.po_list(subj, items)} .\n"
        if kind == 2:                                  # [] as subject
            stext, s = self.anon(lambda: [
                (*P("name"), [self.name_lit]),
                (*P("age"), [self.int_lit])])
            subj = s[:2]
            items = [(*P("memberOf"),
                      [lambda: self.iri(f"org{rng.randint(0, 30)}")])]
            return f"{stext} {self.po_list(subj, items)} .\n"
        if kind == 3:                                  # nested [] object
            stext, s = self.iri(self.subject_local())
            subj = s[:2]

            def addr():
                return self.anon(lambda: [
                    (*P("city"), [lambda: (lambda c: (
                        f'"{c}"', (c, LIT, XSD + "string", "")))(
                            rng.choice(CITIES))]),
                    (*P("zip"), [self.int_lit])])
            items = [(*P("addr"), [addr]), (*P("born"), [self.date_lit])]
            return f"{stext} {self.po_list(subj, items)} .\n"
        # kind 4: collection object, double/boolean literals
        stext, s = self.iri(self.subject_local())
        subj = s[:2]

        def tags():
            pool = [lambda: (lambda t: (f'"{t}"', (t, LIT, XSD + "string",
                                                   "")))(rng.choice(TAGS)),
                    lambda: self.iri(rng.choice(TAGS)),
                    self.int_lit]
            return self.collection([rng.choice(pool)
                                    for _ in range(rng.randint(1, 4))])

        def boolean():
            v = rng.choice(["true", "false"])
            return v, (v, LIT, XSD + "boolean", "")
        items = [(*P("tags"), [tags]), (*P("rating"), [self.dbl_lit]),
                 (*P("active"), [boolean]), (*P("note"), [self.quoted_lit])]
        return f"{stext} {self.po_list(subj, items)} .\n"


_BAD = ["<http://bad.example/a b> ex:p ex:o .\n",     # lex: space in IRI
        "ex:e0 ex:name .\n",                           # parse: no object
        "zz:a ex:p ex:o .\n"]                          # build: no prefix


def _payload(seed: int, key: int, prof: Profile, names: list[str],
             name_cdf, subj_cdf, unique_iri: str | None):
    """(header + statement texts, expected triples) of one payload."""
    rng = random.Random(f"{seed}/payload/{key}")
    d = _Doc(rng, names, name_cdf, subj_cdf)
    stmts = [d.header()]
    for _ in range(rng.randint(*prof.stmts)):
        stmts.append(d.statement(rng.choices(range(5),
                                             (4, 2, 2, 2, 2))[0]))
    if unique_iri is not None:
        n = str(key)
        stmts.append(f"<{unique_iri}> ex:ord {n} .\n")
        d.emit((unique_iri, IRI), EX + "ord", (n, LIT, XSD + "integer", ""))
    return stmts, d.triples


def _spans(rng: random.Random, doc_id: str, stmts: list[str]) -> list[dict]:
    """Cut the statement list into 1-3 text spans at statement
    boundaries and interleave 0-2 media spans; offsets are the running
    text length."""
    n_cuts = min(rng.randint(0, 2), len(stmts) - 1)
    cuts = sorted(rng.sample(range(1, len(stmts)), n_cuts)) if n_cuts else []
    chunks, prev = [], 0
    for c in cuts + [len(stmts)]:
        chunks.append("".join(stmts[prev:c]))
        prev = c
    n_media = rng.randint(0, 2)
    media_at = set(rng.sample(range(len(chunks) + 1), n_media))
    spans, offset, mi = [], 0, 0
    for j in range(len(chunks) + 1):
        if j in media_at:
            spans.append({"kind": "media", "text": "",
                          "media_ref": f"media://{doc_id}/{mi}",
                          "offset": offset})
            mi += 1
        if j < len(chunks):
            spans.append({"kind": "text", "text": chunks[j],
                          "media_ref": "", "offset": offset})
            offset += len(chunks[j])
    return spans


def nquad_lines(triples) -> tuple[str, ...]:
    """Ground truth as sorted, distinct canonical N-Quads lines."""
    from kgruntime.ttl.nquads import canonical_lines

    return tuple(canonical_lines(triples))


def make_corpus(seed: int, prof: Profile) -> Corpus:
    from kgruntime.synth import DOCUMENTS_SCHEMA, SPAN_STRUCT

    gaz, other = name_pools(seed)
    # alternate gazetteer / off-gazetteer names so Zipf-hot ranks hold both
    names = [n for pair in zip(gaz, other) for n in pair] + other[len(gaz):]
    name_cdf = _zipf_cdf(len(names), 1.1)
    subj_cdf = _zipf_cdf(prof.n_subjects, prof.subj_skew)
    rng = random.Random(f"{seed}/corpus")
    n_bad = prof.n_docs // prof.bad_every
    bad = dict(zip(sorted(rng.sample(range(prof.n_docs), n_bad)),
                   (rng.randrange(len(_BAD)) for _ in range(n_bad))))
    pool = []
    if prof.pool:
        pool = [_payload(seed, k, prof, names, name_cdf, subj_cdf, None)
                for k in range(prof.pool)]
        pool_truth = [nquad_lines(t) for _, t in pool]
    ids, spans, texts, truth, triples = [], [], [], [], []
    for i in range(prof.n_docs):
        doc_id = f"doc-{i:06d}"
        if prof.pool:
            k = rng.randrange(prof.pool)
            (stmts, trip), exp = pool[k], pool_truth[k]
        else:
            stmts, trip = _payload(seed, i, prof, names, name_cdf, subj_cdf,
                                   KB_DOC + doc_id)
            exp = nquad_lines(trip)
        if i in bad:
            stmts = stmts + [_BAD[bad[i]]]
            exp = trip = None
        ids.append(doc_id)
        spans.append(_spans(random.Random(f"{seed}/spans/{i}"), doc_id, stmts))
        texts.append("".join(stmts))
        truth.append(exp)
        triples.append(trip)
    table = pa.Table.from_arrays(
        [pa.array(ids, pa.string()), pa.array(spans, pa.list_(SPAN_STRUCT))],
        schema=DOCUMENTS_SCHEMA)
    return Corpus(table, texts, truth, triples, gaz)


def corpus_hash(table: pa.Table) -> str:
    """Content hash of a documents table (ids, span kinds, texts, refs
    and offsets, in row order)."""
    h = hashlib.sha256()
    for row in table.to_pylist():
        h.update(row["doc_id"].encode() + b"\x1e")
        for s in row["spans"]:
            h.update(f"{s['kind']}\x1f{s['offset']}\x1f{s['media_ref']}\x1f"
                     .encode() + s["text"].encode() + b"\x1e")
    return h.hexdigest()[:16]


def write_fragments(table: pa.Table, path: str, n_frags: int) -> list[str]:
    """Split a documents table into ``n_frags`` parquet fragments."""
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    per = -(-table.num_rows // n_frags)
    out = []
    for f in range(n_frags):
        p = os.path.join(path, f"frag-{f:04d}.parquet")
        pq.write_table(table.slice(f * per, per), p)
        out.append(p)
    return out


# --------------------------------------------------------------------------
# relational tables for the ops workload
# --------------------------------------------------------------------------

WORDS = ["a", "agg", "batch", "big", "column", "customer", "data", "dup",
         "fast", "filter", "group", "hash", "join", "key", "line", "merge",
         "order", "part", "query", "row", "scan", "slow", "small", "sort",
         "spark", "stream", "table", "the", "value", "vector", "window"]
LANGS = ["en", "en", "en", "zh", "es", "de", "fr"]
ADJ = ["small", "red", "blue", "hot", "old", "large", "new", "cold"]
NOUN = ["ring", "widget", "bolt", "gear", "gizmo", "plate", "anvil", "rod"]
EVENT_TYPES = ["view", "click", "purchase", "signup", "error"]


def ops_tables(seed: int, n_docs: int, n_parts: int,
               n_events: int) -> dict[str, pa.Table]:
    """``documents``/``part``/``events`` in the column layout of the
    driver's sf directories.  Text is drawn from a 31-word vocabulary
    plus a 3% tail of rare words; one document in ten is a light edit of
    an earlier one and one in fifty an exact copy, so the near-duplicate,
    rare-bigram and dedup queries have pairs to find."""
    rng = random.Random(f"{seed}/ops")
    texts: list[str] = []
    for i in range(n_docs):
        r = rng.random()
        if i > 10 and r < 0.02:
            t = texts[rng.randrange(i)]
        elif i > 10 and r < 0.12:
            w = texts[rng.randrange(i)].split()
            for _ in range(rng.randint(1, 3)):
                w[rng.randrange(len(w))] = rng.choice(WORDS)
            t = " ".join(w)
        else:
            t = " ".join(rng.choice(WORDS) if rng.random() > 0.03
                         else f"w{rng.randrange(3000)}"
                         for _ in range(rng.randint(10, 99)))
        texts.append(t)
    documents = pa.table({
        "doc_id": pa.array(range(n_docs), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([rng.choice(LANGS) for _ in texts], pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n_docs)],
                           pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })

    def part_name() -> str:
        a, n = rng.choice(ADJ), rng.choice(NOUN)
        if rng.random() < 0.1:                    # a one-letter typo
            j = rng.randrange(len(n))
            n = n[:j] + rng.choice("aeiou") + n[j + 1:]
        return f"{a} {n}"
    part = pa.table({
        "p_partkey": pa.array(range(n_parts), pa.int64()),
        "p_name": pa.array([part_name() for _ in range(n_parts)],
                           pa.string()),
        "p_brand": pa.array([f"Brand#{rng.randint(1, 25)}"
                             for _ in range(n_parts)], pa.string()),
        "p_type": pa.array([rng.choice(["ECONOMY", "SMALL", "MEDIUM",
                                        "PROMO", "STANDARD", "LARGE"])
                            for _ in range(n_parts)], pa.string()),
        "p_size": pa.array([rng.randint(1, 50) for _ in range(n_parts)],
                           pa.int32()),
        "p_retailprice": pa.array([900 + (i % 2000) / 10
                                   for i in range(n_parts)], pa.float64()),
    })
    n_users = max(10, n_events // 66)
    t0 = 1704067200 * 1_000_000                     # 2024-01-01 UTC, in us
    step = 30 * 86400 * 1_000_000 // n_events
    ts = [t0 + i * step + rng.randrange(step) for i in range(n_events)]
    events = pa.table({
        "event_id": pa.array(range(n_events), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([rng.randrange(n_users) for _ in ts], pa.int64()),
        "event_type": pa.array([rng.choice(EVENT_TYPES) for _ in ts],
                               pa.string()),
        "value": pa.array([round(max(0.01, rng.expovariate(1 / 50)), 2)
                           for _ in ts], pa.float64()),
        "props": pa.array([f'{{"k": {rng.randint(0, 99)}}}' for _ in ts],
                          pa.string()),
    })
    return {"documents": documents, "part": part, "events": events}


def write_ops_tables(seed: int, path: str, n_docs: int, n_parts: int,
                     n_events: int) -> str:
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    for name, t in ops_tables(seed, n_docs, n_parts, n_events).items():
        pq.write_table(t, os.path.join(path, f"{name}.parquet"))
    return path
