"""Golden-corpus parity (mirrors the reference's tests/positive.rs:11-47 —
strip → sort → dedup → compare; NOT graph isomorphism).

The oracle is the seeded generator's ground truth (perfbench/corpus.py):
every good document's canonical N-Quads lines.  When the reference
checkout is present, its 29 fixtures are checked as well."""

import glob
import os

import pytest

from kgruntime.ttl import BuildError, LexError, ParseError, parse_turtle
from kgruntime.ttl.nquads import canonical_lines, parse_nquads
from perfbench.corpus import Profile, make_corpus

REF = "/root/reference"
GOLDEN_DIR = os.path.join(REF, "tests/positive")
needs_ref = pytest.mark.skipif(not os.path.isdir(REF),
                               reason="/root/reference absent")
CASES = sorted(os.path.basename(p)[:-4]
               for p in glob.glob(os.path.join(GOLDEN_DIR, "p*.ttl")))
LEX_BAD = "<http://bad.example/a b>"


@needs_ref
@pytest.mark.parametrize("name", CASES or ["none"])
def test_golden(name):
    with open(os.path.join(GOLDEN_DIR, name + ".ttl")) as f:
        src = f.read()
    with open(os.path.join(GOLDEN_DIR, name + ".nq")) as f:
        expected = canonical_lines(parse_nquads(f.read()))
    got = canonical_lines(parse_turtle(src))
    assert got == expected


@needs_ref
def test_corpus_precision_recall():
    """Corpus-level P/R vs the reference goldens must be ≥ 0.95
    (BASELINE.json metric) — with exact parity it is 1.0."""
    emitted, expected = set(), set()
    for name in CASES:
        with open(os.path.join(GOLDEN_DIR, name + ".ttl")) as f:
            src = f.read()
        with open(os.path.join(GOLDEN_DIR, name + ".nq")) as f:
            expected |= {(name, l) for l in canonical_lines(parse_nquads(f.read()))}
        emitted |= {(name, l) for l in canonical_lines(parse_turtle(src))}
    inter = len(emitted & expected)
    precision = inter / len(emitted)
    recall = inter / len(expected)
    assert precision >= 0.95 and recall >= 0.95
    assert precision == 1.0 and recall == 1.0


def test_generated_corpus_precision_recall():
    """Corpus-level P/R vs the generator's ground truth is 1.0, over
    distinct and pooled corpora; every malformed document raises."""
    emitted, expected = set(), set()
    for key, prof in enumerate([Profile(240, 0, 1.0, 200, bad_every=8),
                                Profile(120, 30, 1.3, 40, bad_every=8)]):
        c = make_corpus(11, prof)
        for i, (text, truth) in enumerate(zip(c.texts, c.truth)):
            if truth is None:
                with pytest.raises((LexError, ParseError, BuildError)):
                    parse_turtle(text)
                continue
            expected |= {(key, i, l) for l in truth}
            got = canonical_lines(parse_turtle(text))
            emitted |= {(key, i, l) for l in got}
    inter = len(emitted & expected)
    assert inter / len(emitted) == 1.0 and inter / len(expected) == 1.0


@needs_ref
def test_negative_case_has_span():
    with open(os.path.join(REF, "examples/syntax_error.ttl")) as f:
        src = f.read()
    with pytest.raises(LexError) as ei:
        parse_turtle(src)
    assert ei.value.kind == "Unexpected"
    assert src[ei.value.start] == " "  # the offending space inside the IRIREF


def test_generated_negative_case_has_span():
    """The generator's lex-bad line (a space inside an IRIREF) raises
    LexError "Unexpected" with its span on that space."""
    c = make_corpus(5, Profile(60, 0, 1.0, 100, bad_every=3))
    bad = [t for t in c.texts if LEX_BAD in t]
    assert bad
    for src in bad:
        with pytest.raises(LexError) as ei:
            parse_turtle(src)
        assert ei.value.kind == "Unexpected"
        assert ei.value.start == src.index(LEX_BAD) + LEX_BAD.index(" ")
        assert src[ei.value.start] == " "
