"""W3C RDF 1.1 Turtle test-suite-style cases (turtle-syntax-good /
turtle-syntax-bad / turtle-eval shape).

The real W3C suite isn't fetchable in this sandbox (no network); these
are hand-authored cases in its structure, constrained to the *reference*
parser's behavior (/root/reference) since the reference is the P/R
oracle — where the reference deliberately diverges from W3C (PN_LOCAL
dots, %XX decoding, keyword boundaries) we encode the reference's
semantics and mark the divergence.
"""

import glob
import os

import pytest

from kgruntime.ttl import (
    BuildError, LexError, ParseError, parse_turtle,
)
from kgruntime.ttl.nquads import canonical_lines, parse_nquads
from perfbench.corpus import Profile, make_corpus

# --- turtle-syntax-good: must parse without error ---

GOOD = {
    "empty_doc": "",
    "comment_only": "# just a comment\n",
    "iri_spo": "<http://a/s> <http://a/p> <http://a/o> .",
    "sparql_prefix_case": "pReFiX p: <http://a/> .\np:s p:p p:o ."
        .replace("pReFiX p: <http://a/> .", "pReFiX p: <http://a/>"),
    "empty_prefix": "@prefix : <http://a/> .\n:s :p :o .",
    "numeric_zoo": "@prefix : <http://a/> .\n"
                   ":s :p 0, -1, +1, 0.5, -.5, 1E0, 1.5e-3, .5E+2, 1.E5 .",
    "string_zoo": '@prefix : <http://a/> .\n'
                  ':s :p "", \'\', """l1\nl2""", \'\'\'x\'y\'\'\' .',
    "unicode_escape": '@prefix : <http://a/> .\n:s :p "\\u0041\\U0001F600" .',
    "nested_anon": "@prefix : <http://a/> .\n:s :p [ :q [ :r :o ] ] .",
    "collection_subject": "@prefix : <http://a/> .\n( :a ) :p :o .",
    "trailing_semicolon": "@prefix : <http://a/> .\n:s :p :o ; .",
    "blank_interior_dot": "@prefix : <http://a/> .\n_:a.b :p :o .",
    "long_string_quotes": '@prefix : <http://a/> .\n:s :p """a"b""c""" .',
    "crlf_short_string": '@prefix : <http://a/> .\n:s :p "a\nb" .',  # reference-permissive
    "pn_local_colon": "@prefix : <http://a/> .\n:s :p :o:o2 .",
    "bare_anon_subject": "@prefix : <http://a/> .\n[ :p :o ] .",
    # reference quirk (lexing.rs next_name_or_keyword): a bare name at a
    # whitespace boundary that isn't a keyword falls through as a
    # namespace token, so `@prefix p <iri> .` (no colon) is accepted
    "prefix_no_colon": "@prefix p <http://a/> .\np:s p:p p:o .",
    # reference-permissive: raw newline / CR inside SHORT strings
    "short_string_newline_single": "@prefix : <http://a/> .\n:s :p 'a\nb' .",
    "short_string_bare_cr": '@prefix : <http://a/> .\n:s :p "a\rb" .',
    # PN_LOCAL_ESC: \~ is a legal local-name escape (W3C + reference)
    "pn_local_tilde_escape": "@prefix : <http://a/> .\n:s :p :o\\~x .",
}


@pytest.mark.parametrize("name", sorted(GOOD))
def test_syntax_good(name):
    parse_turtle(GOOD[name])  # must not raise


# --- turtle-syntax-bad: must raise, with layer + span ---

BAD = {
    "space_in_iri": ("<http://a/s p> <http://a/p> <http://a/o> .", LexError),
    "unclosed_iri": ("<http://a/s <http://a/p> <http://a/o> .", LexError),
    "unclosed_string": ('@prefix : <http://a/> .\n:s :p "abc .', LexError),
    "bad_escape": ('@prefix : <http://a/> .\n:s :p "a\\qb" .', LexError),
    "bad_hex": ('@prefix : <http://a/> .\n:s :p "\\u00ZZ" .', LexError),
    "lone_caret": ("@prefix : <http://a/> .\n:s :p ^ :o .", LexError),
    "digit_dot_space": ("@prefix : <http://a/> .\n:s :p 1. .", LexError),
    "missing_dot": ("@prefix : <http://a/> .\n:s :p :o", ParseError),
    "empty_anon_statement": ("[] .", ParseError),
    "prefix_with_suffix": ("@prefix p:x <http://a/> .", ParseError),
    "sparql_prefix_with_dot_verb": ("PREFIX p: <http://a/> <http://a/s>",
                                    ParseError),
    "object_missing": ("@prefix : <http://a/> .\n:s :p .", ParseError),
    "double_semicolon_verb": ("@prefix : <http://a/> .\n:s ; :p :o .",
                              ParseError),
    "unknown_prefix": ("q:s <http://a/p> <http://a/o> .", BuildError),
    "relative_no_base": ("<s> <http://a/p> <http://a/o> .", BuildError),
    # RFC 3987 IRI grammar rejects (reference: iref via lexing.rs:450)
    "iri_bad_pct": ("<http://a/%GG> <http://a/p> <http://a/o> .", LexError),
    "iri_truncated_pct": ("<http://a/x%2> <http://a/p> <http://a/o> .",
                          LexError),
    "iri_bad_port": ("<http://h:8a/> <http://a/p> <http://a/o> .", LexError),
    "iri_path_brackets": ("<http://h/a[b]> <http://a/p> <http://a/o> .",
                          LexError),
    "iri_digit_scheme": ("<1http://e/> <http://a/p> <http://a/o> .",
                         LexError),
    "iri_bad_ipv6": ("<http://[1.2.3]/> <http://a/p> <http://a/o> .",
                     LexError),
    # compact-IRI expansion must be a valid absolute IRI (build.rs:149)
    "compact_bad_expansion": (
        "@prefix p: <http://h/> .\np:a%20b <http://a/p> <http://a/o> .",
        BuildError),
    # blank label + dot run errors in the reference (lexing.rs:657-668)
    "blank_trailing_dot": ("@prefix : <http://a/> .\n:s :p _:o.", LexError),
    "blank_double_dot": ("@prefix : <http://a/> .\n_:a.. :p :o .", LexError),
}


# --- turtle-syntax-bad, full-breadth sweep (W3C turtle-syntax-bad
# analogues re-authored against the reference's semantics; cases the
# reference deliberately ACCEPTS — PN_LOCAL dots, newline-in-short-
# string, bare-name prefix — live in GOOD above instead) ---

_P = "@prefix : <http://a/> .\n"

BAD2 = {
    # base/prefix directive errors
    "base_no_iri": ("@base .", ParseError),
    "base_missing_dot": (
        "@base <http://a/> <http://a/s> <http://a/p> <http://a/o> .",
        ParseError),
    "base_pname": ("@base :x .", ParseError),
    "prefix_no_iri": ("@prefix p: .", ParseError),
    "prefix_missing_dot": ("@prefix p: <http://a/> p:s p:p p:o .",
                           ParseError),
    "sparql_base_trailing_dot": ("BASE <http://a/> .", ParseError),
    "sparql_prefix_no_iri": ("PREFIX p:", ParseError),
    "directive_mid_statement": (_P + ":s @prefix q: <http://b/> .",
                                ParseError),
    # keyword misuse
    "kw_a_as_subject": (_P + "a :p :o .", ParseError),
    "kw_a_as_object": (_P + ":s :p a .", ParseError),
    "kw_true_as_subject": (_P + "true :p :o .", ParseError),
    "kw_true_as_predicate": (_P + ":s true :o .", ParseError),
    "kw_false_as_predicate": (_P + ":s false :o .", ParseError),
    # N3-only syntax rejected by Turtle
    "n3_equals": (_P + ":s = :o .", LexError),
    "n3_implies": (_P + ":s => :o .", LexError),
    "n3_reverse_implies": (_P + ":s <= :o .", LexError),
    "n3_formula": (_P + "{ :s :p :o } :q :r .", LexError),
    "n3_forall": ("@forAll <http://a/x> .", ParseError),
    "n3_forsome": ("@forSome <http://a/x> .", ParseError),
    "n3_keywords": ("@keywords a .", ParseError),
    "n3_path": (_P + ":s!:p :o :q .", LexError),
    "n3_is_of": (_P + ":s is :p of :o .", ParseError),
    # structural errors
    "struct_two_subjects": (_P + ":s :t :p :o .", ParseError),
    "struct_object_list_no_comma": (_P + ":s :p :o :o2 .", ParseError),
    "struct_leading_dot": (_P + ". :s :p :o .", ParseError),
    "struct_double_dot": (_P + ":s :p :o . .", ParseError),
    "struct_lone_semicolon": (_P + ":s :p :o . ; .", ParseError),
    "struct_comma_no_object": (_P + ":s :p :o , .", ParseError),
    "struct_comma_start": (_P + ":s :p , :o .", ParseError),
    "struct_semicolon_start": (_P + ":s ; :p :o .", ParseError),
    "struct_predicate_only": (_P + ":s :p .", ParseError),
    "struct_dot_after_subject": (_P + ":s .", ParseError),
    "struct_verb_dot": (_P + ":s :p . :o .", ParseError),
    "struct_eof_mid_statement": (_P + ":s :p", ParseError),
    "struct_eof_in_anon": (_P + ":s :p [ :q ", ParseError),
    "struct_eof_in_collection": (_P + ":s :p ( :o ", ParseError),
    "struct_unmatched_close_bracket": (_P + ":s :p :o ] .", ParseError),
    "struct_unmatched_close_paren": (_P + ":s :p :o ) .", ParseError),
    "struct_anon_predicate": (_P + ":s [ :p :o ] :o2 .", ParseError),
    "struct_collection_predicate": (_P + ":s ( :p ) :o .", ParseError),
    "struct_literal_subject": (_P + '"lit" :p :o .', ParseError),
    "struct_literal_predicate": (_P + ':s "lit" :o .', ParseError),
    "struct_numeric_predicate": (_P + ":s 5 :o .", ParseError),
    "struct_blank_predicate": (_P + ":s _:b :o .", ParseError),
    "struct_graph_brace": (_P + ":g { :s :p :o . } .", LexError),
    # string errors
    "string_mismatched_quotes": (_P + ':s :p "abc\' .', LexError),
    "string_unclosed_long": (_P + ':s :p """abc .', LexError),
    "string_unclosed_long_single": (_P + ":s :p '''abc .", LexError),
    "string_bad_escape_x": (_P + ':s :p "\\x41" .', LexError),
    "string_dangling_backslash": (_P + ':s :p "abc\\', LexError),
    "string_lang_then_datatype": (_P + ':s :p "x"@en^^:t .', ParseError),
    "string_datatype_then_lang": (_P + ':s :p "x"^^:t@en .', ParseError),
    "string_double_lang": (_P + ':s :p "x"@en@fr .', ParseError),
    "string_lang_digit_start": (_P + ':s :p "x"@1en .', LexError),
    "string_lang_empty": (_P + ':s :p "x"@ .', LexError),
    "string_lang_subtag_empty": (_P + ':s :p "x"@en- .', LexError),
    "string_datatype_literal": (_P + ':s :p "x"^^"y" .', ParseError),
    "string_caret_single": (_P + ':s :p "x"^:t .', LexError),
    # numeric errors
    "num_double_no_exp_digits": (_P + ":s :p 1.0E .", LexError),
    "num_exp_sign_only": (_P + ":s :p 1E+ .", LexError),
    "num_double_dot": (_P + ":s :p 1..5 .", LexError),
    "num_trailing_dot_exp": (_P + ":s :p 1.E .", LexError),
    "num_plus_only": (_P + ":s :p + .", LexError),
    "num_minus_only": (_P + ":s :p - .", LexError),
    # IRI errors (IRIREF charset + RFC 3987 grammar)
    "uri_newline": ("<http://a/\ns> <http://a/p> <http://a/o> .", LexError),
    "uri_tab": ("<http://a/\ts> <http://a/p> <http://a/o> .", LexError),
    "uri_lt": ("<http://a/<b> <http://a/p> <http://a/o> .", LexError),
    "uri_quote": ('<http://a/"b"> <http://a/p> <http://a/o> .', LexError),
    "uri_backslash_path": ("<http://a/\\b> <http://a/p> <http://a/o> .",
                           LexError),
    "uri_bad_uchar": ("<http://a/\\u00Z9> <http://a/p> <http://a/o> .",
                      LexError),
    "uri_curly": ("<http://a/{x}> <http://a/p> <http://a/o> .", LexError),
    "uri_pipe": ("<http://a/x|y> <http://a/p> <http://a/o> .", LexError),
    "uri_caret": ("<http://a/x^y> <http://a/p> <http://a/o> .", LexError),
    "uri_backtick": ("<http://a/x`y> <http://a/p> <http://a/o> .", LexError),
    "uri_space_only": ("< > <http://a/p> <http://a/o> .", LexError),
    "relative_predicate_no_base": ("<http://a/s> <p> <http://a/o> .",
                                   BuildError),
    "relative_object_no_base": ("<http://a/s> <http://a/p> <o> .",
                                BuildError),
    # prefixed-name errors
    "pname_undeclared_in_object": (_P + ":s :p q:o .", BuildError),
    "pname_ns_digit_start": ("@prefix 1p: <http://a/> .\n1p:s 1p:p 1p:o .",
                             ParseError),
    "pname_local_bad_char": (_P + ":s :p :o~x .", LexError),
    "pname_local_unescaped_paren": (_P + ":s :p :o(x) .", LexError),
    # blank-node errors
    "blank_no_label": (_P + "_: :p :o .", LexError),
    "blank_label_dash_start": (_P + "_:-a :p :o .", LexError),
    "blank_bad_char": (_P + "_:a~b :p :o .", LexError),
    "anon_with_content": (_P + "[ ] :p [ :q ] :r .", ParseError),
    "collection_bad_close": (_P + ":s :p ( :a ] .", ParseError),
}

ALL_BAD = {**BAD, **BAD2}


@pytest.mark.parametrize("name", sorted(ALL_BAD))
def test_syntax_bad(name):
    src, exc = ALL_BAD[name]
    with pytest.raises(exc) as ei:
        parse_turtle(src)
    assert ei.value.start >= 0 and ei.value.end >= ei.value.start
    assert ei.value.layer in ("lex", "parse", "build")


def test_all_bad_cases_quarantine_not_raise(ray_session):
    """Pipeline semantics for every bad case: the extract stage must
    QUARANTINE the doc (one error record, zero triples) — never raise
    out of the batch and never poison sibling docs in the same batch."""
    import pyarrow as pa

    import ray.data as rd
    from kgruntime.stages.extract import extract_triples
    from kgruntime.synth import SPAN_STRUCT

    names = sorted(ALL_BAD)
    good_doc = "@prefix : <http://g/> .\n:s :p :o ."
    doc_ids = [f"bad-{n}" for n in names] + ["good-sibling"]
    texts = [ALL_BAD[n][0] for n in names] + [good_doc]
    spans = [[{"kind": "text", "text": t, "media_ref": "", "offset": 0}]
             for t in texts]
    docs = rd.from_arrow(pa.Table.from_arrays(
        [pa.array(doc_ids, pa.string()),
         pa.array(spans, pa.list_(SPAN_STRUCT))],
        names=["doc_id", "spans"]))

    rows = extract_triples(docs).take_all()
    errors = {r["doc_id"] for r in rows if r["record_kind"] == 1}
    triples = {r["doc_id"] for r in rows if r["record_kind"] == 0}
    assert errors == set(doc_ids) - {"good-sibling"}
    assert triples == {"good-sibling"}
    layers = {r["error_layer"] for r in rows if r["record_kind"] == 1}
    assert layers <= {"lex", "parse", "build"}


# --- turtle-eval: triples must equal expected N-Quads exactly ---

EVAL = [
    (
        "base_chain",
        "@base <http://a/b/> .\n@base <c/> .\n<d> <p> <e> .",
        "<http://a/b/c/d> <http://a/b/c/p> <http://a/b/c/e> .",
    ),
    (
        "datatyped_numeric_forms",
        "@prefix : <http://a/> .\n:s :p 042, 4.50, 1.0E0 .",
        '<http://a/s> <http://a/p> "042"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<http://a/s> <http://a/p> "4.50"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        '<http://a/s> <http://a/p> "1.0E0"^^<http://www.w3.org/2001/XMLSchema#double> .',
    ),
    (
        "lang_and_typed",
        '@prefix : <http://a/> .\n'
        ':s :p "x"@en-GB-oed, "y"^^:t .',
        '<http://a/s> <http://a/p> "x"@en-GB-oed .\n'
        '<http://a/s> <http://a/p> "y"^^<http://a/t> .',
    ),
    (
        "escape_equivalence_dedup",
        '@prefix : <http://a/> .\n:s :p "A\\u0042C" .\n:s :p "ABC" .',
        '<http://a/s> <http://a/p> "ABC" .',
    ),
    (
        "percent_decoded_local",  # reference quirk: %2F → '/'
        "@prefix p: <http://a/> .\np:x%2Fy <http://a/q> p:z .",
        "<http://a/x/y> <http://a/q> <http://a/z> .",
    ),
    (
        "collection_nested_alloc",
        "PREFIX : <http://a/>\n:s :p ( ( ) :x ) .",
        "_:0 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#List> .\n"
        "_:0 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://a/x> .\n"
        "_:0 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .\n"
        "_:1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#List> .\n"
        "_:1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .\n"
        "_:1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> _:0 .\n"
        "<http://a/s> <http://a/p> _:1 .",
    ),
    (
        "a_is_rdf_type",
        "@prefix : <http://a/> .\n:s a :T .",
        "<http://a/s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://a/T> .",
    ),
    (
        "dot_segments_resolved",
        "@base <http://a/b/c/> .\n<../d> <./p> <//h/i> .",
        "<http://a/b/d> <http://a/b/c/p> <http://h/i> .",
    ),
]


@pytest.mark.parametrize("name,src,expected", EVAL,
                         ids=[e[0] for e in EVAL])
def test_eval(name, src, expected):
    got = canonical_lines(parse_turtle(src))
    assert got == canonical_lines(parse_nquads(expected))


@pytest.mark.skipif(not os.path.isdir("/root/reference"),
                    reason="/root/reference absent")
def test_concatenated_goldens_single_doc():
    """All 29 golden payloads concatenated into ONE document parse as a
    single statement stream (directive state threads across sections in
    document order) — deterministic, no crash."""
    paths = sorted(glob.glob("/root/reference/tests/positive/p*.ttl"))
    src = "\n".join(open(p).read() for p in paths)
    rows1 = parse_turtle(src)
    rows2 = parse_turtle(src)
    assert rows1 == rows2
    assert len(rows1) > 100


def test_concatenated_generated_docs_single_doc():
    """The good documents of a generated corpus concatenated into ONE
    document parse as a single statement stream: deterministic, and its
    blank-free triples are exactly the union of the documents' blank-free
    ground truth (directive state threads across sections)."""
    c = make_corpus(13, Profile(60, 0, 1.0, 100, bad_every=61))
    src = "\n".join(c.texts)
    rows1 = parse_turtle(src)
    rows2 = parse_turtle(src)
    assert rows1 == rows2
    assert len(rows1) > 100

    def ground(lines):
        return {line for line in lines if "_:" not in line}
    assert ground(canonical_lines(rows1)) == \
        set().union(*(ground(t) for t in c.truth))


EVAL2 = [
    (
        "query_string_resolution",
        "@base <http://a/b?x=1> .\n<?y=2> <#f> <> .",
        "<http://a/b?y=2> <http://a/b?x=1#f> <http://a/b?x=1> .",
    ),
    (
        "signed_numeric_verbatim",
        "@prefix : <http://a/> .\n:s :p +7 , -0.50 , +1.0E+2 .",
        '<http://a/s> <http://a/p> "+7"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<http://a/s> <http://a/p> "-0.50"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        '<http://a/s> <http://a/p> "+1.0E+2"^^<http://www.w3.org/2001/XMLSchema#double> .',
    ),
    (
        "anon_inside_collection",
        "PREFIX : <http://a/>\n:s :p ( [ :q :r ] ) .",
        "_:0 <http://a/q> <http://a/r> .\n"
        "_:1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#List> .\n"
        "_:1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> _:0 .\n"
        "_:1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .\n"
        "<http://a/s> <http://a/p> _:1 .",
    ),
    (
        "langtag_case_preserved",
        '@prefix : <http://a/> .\n:s :p "x"@en-US .',
        '<http://a/s> <http://a/p> "x"@en-US .',
    ),
    (
        "empty_prefix_with_colon_local",
        "@prefix : <http://a/ns#> .\n:s :p ::x .",
        "<http://a/ns#s> <http://a/ns#p> <http://a/ns#:x> .",
    ),
    (
        "labeled_blank_both_positions",
        "@prefix : <http://a/> .\n_:x :p _:y .\n_:y :q _:x .",
        "_:x <http://a/p> _:y .\n_:y <http://a/q> _:x .",
    ),
]


@pytest.mark.parametrize("name,src,expected", EVAL2,
                         ids=[e[0] for e in EVAL2])
def test_eval2(name, src, expected):
    got = canonical_lines(parse_turtle(src))
    assert got == canonical_lines(parse_nquads(expected))
