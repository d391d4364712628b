"""N2 mention detection + N3 entity-link scoring (SURVEY.md §2f).

No reference counterpart (the reference is a parser); designed from
scratch per BASELINE.json north_rule: "batched mention detection and
entity-link scoring in stateful actor pools" — the state is kept per
worker process, without the pool (see N3).

N2 — mention detection: a *stateless, vectorized* ``map_batches`` over
the triples table.  A mention is a name-like literal attached to an
entity: ``obj_kind == LITERAL`` and (plain/xsd:string or lang-tagged).
Output one row per mention: (doc_id, entity, entity_kind, pred,
mention_text, span_start, span_end).

N3 — LinkScorer: a stateful scorer run as a plain-task stage.  The
alias table (normalized name → KB entity IRI) is built ONCE on the
driver and ``ray.put`` into the object store; each worker process
fetches it and builds the scorer index ONCE, through the per-process
``stages/broadcast.cached_get`` — never re-shipped or rebuilt per
batch, and no actor pool whose processes start per Dataset.  Scoring is
deterministic (string-normalization + containment heuristics), so task
retries are safe and tests are exact.

Output edges with ``score >= threshold`` are ``owl:sameAs``-style
equivalences (entity ↔ KB entity) feeding the distributed union-find
(stages/canon.py).
"""

from __future__ import annotations

import re
import unicodedata

import pyarrow as pa
import pyarrow.compute as pc

from ..ttl.builder import LITERAL, XSD_STRING

MENTIONS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("entity", pa.string()),
    ("entity_kind", pa.uint8()),
    ("pred", pa.string()),
    ("mention_text", pa.string()),
    ("span_start", pa.int32()),
    ("span_end", pa.int32()),
])

EDGES_SCHEMA = pa.schema([
    ("src", pa.string()),
    ("dst", pa.string()),
    ("score", pa.float64()),
    ("doc_id", pa.string()),
    ("mention_text", pa.string()),
])


def detect_mentions(batch: pa.Table) -> pa.Table:
    """N2: vectorized mention extraction from a triples batch."""
    is_lit = pc.equal(batch["obj_kind"], LITERAL)
    stringy = pc.or_(pc.equal(batch["obj_datatype"], XSD_STRING),
                     pc.not_equal(batch["obj_lang"], ""))
    m = batch.filter(pc.and_(is_lit, stringy))
    return pa.Table.from_arrays(
        [m["doc_id"], m["subj"], m["subj_kind"], m["pred"], m["obj"],
         m["span_start"], m["span_end"]],
        schema=MENTIONS_SCHEMA)


_NORM_STRIP = re.compile(r"[^a-z0-9 ]+")
_WS = re.compile(r"\s+")


def normalize_name(s: str) -> str:
    """Deterministic mention normalization: NFKD fold → ascii-ish lower →
    strip punctuation → collapse whitespace."""
    s = unicodedata.normalize("NFKD", s)
    s = "".join(c for c in s if not unicodedata.combining(c))
    s = s.lower()
    s = _NORM_STRIP.sub(" ", s)
    return _WS.sub(" ", s).strip()


def kb_iri(name_norm: str) -> str:
    """KB entity IRI for a normalized alias (slug form)."""
    return "http://kb.example/entity/" + name_norm.replace(" ", "-")


def build_alias_table(names) -> dict[str, str]:
    """Driver-side alias table: normalized alias → KB entity IRI.
    In production this would come from a curated KB dump; here it is
    derived deterministically from a name list (e.g. a sample of corpus
    mentions or a fixed gazetteer)."""
    out = {}
    for n in names:
        k = normalize_name(n)
        if k:
            out[k] = kb_iri(k)
    return out


def _trigrams(s: str) -> list[str]:
    """Char 3-grams (whole string when shorter) — the similarity unit."""
    if len(s) < 3:
        return [s] if s else []
    return [s[i:i + 3] for i in range(len(s) - 2)]


# posting-list cap for extremely common trigrams (low-idf, so dropping
# them barely moves the cosine); sorted-alias order keeps it deterministic
_POSTINGS_CAP = 200


class LinkScorer:
    """N3: stateful scorer — alias table + char-trigram TF-IDF index,
    built once per worker process.

    Scoring: exact normalized-alias hit → 1.0; otherwise a TF-IDF cosine
    over char trigrams (binary TF, idf = 1 + ln(N/df) computed from the
    alias table itself).  Fully deterministic (sorted-alias tie-break),
    so task retries are safe and tests are exact.

    Use as (what :func:`link_edges_dataset` does)::

        ref = ray.put(alias_table)          # broadcast once
        def link(batch):
            return cached_get(ref, build=lambda a: LinkScorer(
                alias_table=a, threshold=0.85), tag="link-0.85")(batch)
        edges = mentions.map_batches(link, batch_format="pyarrow",
                                     batch_size=8192)
    """

    def __init__(self, alias_table: dict, threshold: float = 0.85):
        import math

        self.aliases = alias_table
        self.threshold = threshold
        keys = sorted(alias_table)
        df: dict[str, int] = {}
        grams: dict[str, set] = {}
        for k in keys:
            gs = set(_trigrams(k))
            grams[k] = gs
            for g in gs:
                df[g] = df.get(g, 0) + 1
        n = max(1, len(keys))
        self._idf = {g: 1.0 + math.log(n / c) for g, c in df.items()}
        self._idf_default = 1.0 + math.log(n)
        self._alias_norm = {
            k: math.sqrt(sum(self._idf[g] ** 2 for g in gs)) or 1.0
            for k, gs in grams.items()}
        self._inv: dict[str, list[str]] = {}
        for k in keys:                       # sorted → deterministic cap
            for g in grams[k]:
                lst = self._inv.setdefault(g, [])
                if len(lst) < _POSTINGS_CAP:
                    lst.append(k)
        self._memo: dict[str, tuple | None] = {}

    def score(self, norm: str) -> tuple[str, float] | None:
        import math

        hit = self.aliases.get(norm)
        if hit is not None:
            return hit, 1.0
        if not norm:
            return None
        gs = set(_trigrams(norm))
        acc: dict[str, float] = {}
        for g in gs:
            w = self._idf.get(g)
            if w is None:
                continue
            w2 = w * w
            for k in self._inv.get(g, ()):
                acc[k] = acc.get(k, 0.0) + w2
        if not acc:
            return None
        qnorm = math.sqrt(sum(
            (self._idf.get(g, self._idf_default)) ** 2 for g in gs))
        best = None
        for k in sorted(acc):                # deterministic tie-break
            sim = acc[k] / (qnorm * self._alias_norm[k])
            if best is None or sim > best[1]:
                best = (self.aliases[k], sim)
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Score one batch.  Mention texts are Zipf-distributed, so the
        column is dictionary-encoded and only DISTINCT texts get the
        Python scorer (memoized across batches in ``self._memo``); the
        per-row expansion is vectorized take/filter."""
        col = batch["mention_text"].combine_chunks()
        enc = col.dictionary_encode()
        memo = self._memo
        hit_dst, hit_score = [], []
        for u in enc.dictionary.to_pylist():
            if u in memo:
                res = memo[u]
            else:
                res = self.score(normalize_name(u))
                if res is not None and res[1] < self.threshold:
                    res = None
                memo[u] = res
            hit_dst.append(res[0] if res else None)
            hit_score.append(res[1] if res else 0.0)
        idx = pc.cast(enc.indices, pa.int64())
        dst_per_row = pc.take(pa.array(hit_dst, pa.string()), idx)
        keep = pc.is_valid(dst_per_row)
        score_per_row = pc.take(pa.array(hit_score, pa.float64()), idx)
        return pa.Table.from_arrays(
            [batch["entity"].combine_chunks().filter(keep),
             dst_per_row.filter(keep),
             score_per_row.filter(keep),
             batch["doc_id"].combine_chunks().filter(keep),
             col.filter(keep)],
            schema=EDGES_SCHEMA)


def mentions_dataset(triples_ds):
    """Triples Dataset → mentions Dataset (stateless, fuses with parse)."""
    return triples_ds.map_batches(detect_mentions, batch_format="pyarrow",
                                  zero_copy_batch=True)


def link_edges_dataset(mentions_ds, alias_table: dict, threshold: float = 0.85,
                       batch_size: int = 8192):
    """Mentions Dataset → sameAs-edge Dataset via LinkScorer tasks.

    The alias table is broadcast with ``ray.put`` (one object-store copy
    per node at cluster scale).  The stage is a plain task
    ``map_batches``: each worker process builds the LinkScorer once
    (``cached_get``, keyed by the ref and the threshold) and keeps its
    memo across batches, so no actor pool starts — and later kills —
    worker processes for this Dataset.
    """
    import ray

    from .broadcast import cached_get

    ref = ray.put(alias_table)

    def link(batch: pa.Table) -> pa.Table:
        return cached_get(
            ref, build=lambda a: LinkScorer(alias_table=a,
                                            threshold=threshold),
            tag=f"link-{threshold!r}")(batch)

    edges = mentions_ds.map_batches(link, batch_format="pyarrow",
                                    batch_size=batch_size)

    # combiner: IRI-subject mentions repeat across documents, producing
    # massively duplicated (src, dst) edges — distinct within each batch
    # before anything downstream (union-find collection) sees them
    def local_edge_dedup(t: pa.Table) -> pa.Table:
        g = t.group_by(["src", "dst"], use_threads=False).aggregate(
            [("score", "max"), ("doc_id", "first"),
             ("mention_text", "first")])
        return g.rename_columns(["src", "dst", "score", "doc_id",
                                 "mention_text"])

    return edges.map_batches(local_edge_dedup, batch_format="pyarrow",
                             zero_copy_batch=True)
