"""Tests of the benchmark's input generator (no Ray needed).

    python3 -m pytest perfbench/test_corpus.py -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import corpus as C  # noqa: E402
import reference as R  # noqa: E402

SMALL = C.Profile(n_docs=200, pool=0, subj_skew=0.8, n_subjects=500)
POOLED = C.Profile(n_docs=200, pool=20, subj_skew=1.3, n_subjects=30)


def test_same_seed_same_corpus_hash():
    for prof in (SMALL, POOLED):
        a, b = C.make_corpus(5, prof), C.make_corpus(5, prof)
        assert C.corpus_hash(a.table) == C.corpus_hash(b.table)
        assert a.truth == b.truth and a.gazetteer == b.gazetteer
        assert C.corpus_hash(C.make_corpus(6, prof).table) != \
            C.corpus_hash(a.table)


def test_ground_truth_matches_parser_and_bad_share_is_exact():
    from kgruntime.ttl import BuildError, LexError, ParseError, parse_turtle

    for prof in (SMALL, POOLED):
        c = C.make_corpus(9, prof)
        assert sum(t is None for t in c.truth) == prof.n_docs // prof.bad_every
        for text, exp in zip(c.texts, c.truth):
            try:
                got = C.nquad_lines(parse_turtle(text))
            except (LexError, ParseError, BuildError):
                got = None
            assert got == exp


def test_spans_concatenate_to_text():
    c = C.make_corpus(3, SMALL)
    for spans, text in zip(c.table["spans"].to_pylist(), c.texts):
        assert "".join(s["text"] for s in spans) == text
        offs = [s["offset"] for s in spans]
        assert offs == sorted(offs)


def test_pooled_corpus_repeats_payloads():
    c = C.make_corpus(4, POOLED)
    assert len(set(c.texts)) <= POOLED.pool + POOLED.n_docs // POOLED.bad_every
    assert len(set(C.make_corpus(4, SMALL).texts)) == SMALL.n_docs


def test_ops_tables_are_seeded():
    a = C.ops_tables(1, 100, 200, 1000)
    b = C.ops_tables(1, 100, 200, 1000)
    assert all(a[k].equals(b[k]) for k in a)
    assert not a["documents"].equals(C.ops_tables(2, 100, 200, 1000)["documents"])


def test_reference_rows_and_links_match_the_library_in_process():
    """The reference derives parsed rows and link edges from the
    generator alone; the library's parse, mention and scoring callables
    must give the same sets (no fuzzy link the generator did not plan)."""
    import pyarrow.compute as pc

    from kgruntime.stages.extract import RECORD_TRIPLE, parse_batch
    from kgruntime.stages.linking import (LinkScorer, build_alias_table,
                                          detect_mentions)

    for seed in (1, 2, 3):
        for prof in (SMALL, POOLED):
            c = C.make_corpus(seed, prof)
            rows, edges = R.rows_and_edges(c.table["doc_id"].to_pylist(),
                                           c.triples, c.gazetteer)
            parsed = parse_batch(c.table)
            triples = parsed.filter(pc.equal(parsed["record_kind"],
                                             RECORD_TRIPLE))
            assert triples.num_rows == len(rows)
            assert set(zip(*(triples[k].to_pylist() for k in R.KEY))) \
                == set(rows)
            got = LinkScorer(alias_table=build_alias_table(c.gazetteer))(
                detect_mentions(triples))
            assert set(zip(got["src"].to_pylist(), got["dst"].to_pylist())) \
                == set(edges)


def test_off_gazetteer_names_stay_far_below_the_link_threshold():
    from kgruntime.stages.linking import (LinkScorer, build_alias_table,
                                          normalize_name)

    for seed in range(40):
        gaz, other = C.name_pools(seed)
        scorer = LinkScorer(alias_table=build_alias_table(gaz))
        for name in other:
            hit = scorer.score(normalize_name(name))
            assert hit is None or hit[1] < 0.75, (seed, name, hit)
