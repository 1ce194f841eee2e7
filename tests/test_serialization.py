import copy
import hashlib
import json
import pickle
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from weakhopf import (
    QuantumGroupoid,
    canonical_r,
    check_quantum_groupoid,
    check_weak_bialgebra,
    identity_morphism,
    quantize,
    regular_module,
    transmute,
)
from weakhopf.errors import ParseError, WeakHopfError
from weakhopf.serialization import (
    ParsedCocycle,
    ParsedQT,
    _Reader,
    parse,
    serialize_cocycle,
    serialize_module,
    serialize_morphism,
    serialize_presentation,
    serialize_qt,
    serialize_quantum_groupoid,
    serialize_weak_bialgebra,
)
from weakhopf.zoo import cyclic_group_algebra, trivial_cocycle


def test_algebra_round_trip(corpus):
    for fx in corpus:
        text = serialize_quantum_groupoid(fx.algebra)
        H2 = parse(text)
        assert serialize_quantum_groupoid(H2) == text
        assert H2.mul == fx.algebra.mul
        assert H2.antipode == fx.algebra.antipode


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda H: pickle.loads(pickle.dumps(H)),
}


def test_copies_of_an_algebra_keep_every_byte(corpus):
    # a fixture's algebra carries its cached tables; a parsed one has none yet
    algebras = [fx.algebra for fx in corpus]
    algebras.append(parse(serialize_quantum_groupoid(corpus[-1].algebra)))
    for H in algebras:
        text = serialize_quantum_groupoid(H)
        reports = [check_weak_bialgebra(H).to_dict(), check_quantum_groupoid(H).to_dict()]
        for how, make in COPIES.items():
            H2 = make(H)
            assert type(H2) is QuantumGroupoid, how
            assert serialize_quantum_groupoid(H2) == text, how
            assert [check_weak_bialgebra(H2).to_dict(),
                    check_quantum_groupoid(H2).to_dict()] == reports, how


def test_weak_bialgebra_round_trip(diag2):
    text = serialize_weak_bialgebra(diag2.algebra)
    B = parse(text)
    assert serialize_weak_bialgebra(B) == text


def test_qt_and_cocycle_round_trip(corpus):
    for fx in corpus:
        text = serialize_qt(fx.algebra, fx.qt)
        pq = parse(text)
        assert isinstance(pq, ParsedQT) and pq.structure == fx.qt
        assert serialize_qt(fx.algebra, pq.structure) == text
        text = serialize_cocycle(fx.algebra, fx.cocycle)
        pc = parse(text)
        assert isinstance(pc, ParsedCocycle) and pc.structure == fx.cocycle
        assert serialize_cocycle(fx.algebra, pc.structure) == text


def test_dimension_one_documents_round_trip():
    # mul, comul and antipode are blocks even when they have one row
    H = cyclic_group_algebra(1)
    text = serialize_quantum_groupoid(H)
    assert "\nmul:\n1\n" in text
    assert serialize_quantum_groupoid(parse(text)) == text
    text = serialize_weak_bialgebra(H)
    assert serialize_weak_bialgebra(parse(text)) == text
    qt, wc = canonical_r(H), trivial_cocycle(H)
    text = serialize_qt(H, qt)
    assert serialize_qt(H, parse(text).structure) == text
    text = serialize_cocycle(H, wc)
    assert serialize_cocycle(H, parse(text).structure) == text


def test_morphism_round_trip(diag2):
    f = identity_morphism(diag2.algebra)
    text = serialize_morphism(f)
    pm = parse(text)
    assert pm.matrix == f.matrix
    rebuilt = serialize_morphism(
        type(f)(diag2.algebra, diag2.algebra, pm.matrix)
    )
    assert rebuilt == text


def test_module_round_trip(diag2):
    M = regular_module(diag2.algebra)
    text = serialize_module(M)
    pm = parse(text)
    M2 = pm.bind(diag2.algebra)
    assert [m.data for m in M2.mats] == [m.data for m in M.mats]
    assert serialize_module(M2) == text


def test_presentation_serialization_is_deterministic(diag2):
    p1 = transmute(diag2.algebra, diag2.qt)
    p2 = quantize(diag2.algebra, diag2.cocycle)
    assert serialize_presentation(p1) == serialize_presentation(p2)


DIAG2_PRESENTATION = """\
kind: presentation
acting-dim: 2
acting-basis: e1 e2
ambient-dim: 2
ambient-basis: e1 e2
carrier-dim: 2
carrier:
1 0
0 1
ht-dim: 2
ht:
1 0
0 1
action:
1 0 0 0
0 0 0 1
mul:
1 0
0 0
0 0
0 1
unit:
1 0
0 1
comul:
1 0 0 0
0 0 0 1
counit:
1 0
0 1
antipode:
1 0
0 1
"""


def test_presentation_golden_bytes(diag2):
    p = transmute(diag2.algebra, diag2.qt)
    assert serialize_presentation(p) == DIAG2_PRESENTATION


# SHA-256 of serialize_presentation for (transmute(H, qt), quantize(H, F))
# on each builtin fixture.  Any change to either construction that alters
# a single byte of a presentation shows up here.
PRESENTATION_DIGESTS = {
    "diag2": (
        "e25c88a783712538d6a28108731e2327ab6a5b627bbc14fb629412f18a4d0dc1",
        "e25c88a783712538d6a28108731e2327ab6a5b627bbc14fb629412f18a4d0dc1",
    ),
    "kz2": (
        "bb8da3d6c2508e257501d348c2882521575a5dc4305c0b4b98cb2c90ee935138",
        "bb8da3d6c2508e257501d348c2882521575a5dc4305c0b4b98cb2c90ee935138",
    ),
    "pair2": (
        "b6762ff308044fc2d3235e3cf55649de939f7f6916e25c1efcce0023d20103f1",
        "b6762ff308044fc2d3235e3cf55649de939f7f6916e25c1efcce0023d20103f1",
    ),
    "kd4": (
        "e397ecd2a613a057cfb8e2eb1904ecfbe48729c35cf247e0394a3cc560c89e3b",
        "5b9cc1815af4e4623e74f2bcc3de4a2af43b0b4a15592fad9945a332d76877e4",
    ),
    "kd4_diag2": (
        "2d49be593d6c9c9633ceb6abf2965b1856a0814f80155b16e5229ddcb9ba7318",
        "0327e53da0c44324c34a9e3b23cb3c3728d857dcc4f15e2d2417576215831328",
    ),
}


def test_presentation_digests(corpus):
    def digest(p):
        return hashlib.sha256(serialize_presentation(p).encode("utf-8")).hexdigest()

    assert sorted(fx.name for fx in corpus) == sorted(PRESENTATION_DIGESTS)
    for fx in corpus:
        got = (
            digest(transmute(fx.algebra, fx.qt)),
            digest(quantize(fx.algebra, fx.cocycle)),
        )
        assert got == PRESENTATION_DIGESTS[fx.name], fx.name


# SHA-256 of (serialize_quantum_groupoid, serialize_qt, serialize_cocycle) on
# each builtin fixture, and of the twisted-qt document the twist command
# writes, so the bytes of every structure document are pinned.
DOCUMENT_DIGESTS = {
    "diag2": (
        "2e7e84fba0b9d02df0b10a4011d9814f7e7217c09e1df0061100765ca9cb2455",
        "33ab5b9e0b726815932fe08ee451ae3a76ded59188ab646264072f94ebcc5e25",
        "b29720c524c0f111b1aff8c027ca0ebeebba69fe3f15fbc3653f5696ea055831",
    ),
    "kz2": (
        "cda73e230f95d87867cdbdb7de15f5c1a019fa3164bd2a3580e6bb46b7c077b1",
        "640c6b928b2b3244fb2ccac3d891ec1ee71bd7899e30d18963eafea374986aa1",
        "6a8ddf381922e2deebaf7fb1b327d4a86225d2ba44be5f15cb85e67a3099a3d8",
    ),
    "pair2": (
        "bdca99baac42fc40cae14791d9b1bbb03ab745a0f4c1f94680218f3829af9b61",
        "0df9c22cd0bf15ebc1cec44ca989a454b6a136bf7e568f53101bc285acfb45d1",
        "c377230c4e17827eee11896fcc31179639a03ffacc8710c8a92ad97fea5f4644",
    ),
    "kd4": (
        "c4a9446e9cf742bdd8a764e1dff5dd2f19bd4d9a9a167c76e2563a38d26e83c7",
        "9eed6266827f1dac637059b0544b039c53ee48e6e18a3872ad6ed3e94b389ba1",
        "ea8e9d9c1aadbafa0e15af6341d214d4b5675c900f797822307cd723af299ae7",
    ),
    "kd4_diag2": (
        "d2ed5b5ff68adc7317f3fbead58d5e713d2bb62f48c1749d579e54608f0ef18b",
        "70ce49450e0f34ff1f13ec3afb39732aa8df7513195f231aa56f9c515c57d14e",
        "d8736657cdfe11bf5fe24f370b04d19432287462e3c781177103c9fc76801473",
    ),
}

TWISTED_QT_DIGESTS = {
    "kd4": "dc9d5f16fbd426ce33c4551750a4801324b735f129f9b7324a085d6600403aaa",
    "kd4_diag2": "286de2cf5918f2c85684442113a479344064a9c67476fa191c75f698f0e92b6a",
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_structure_document_digests(corpus):
    assert sorted(fx.name for fx in corpus) == sorted(DOCUMENT_DIGESTS)
    for fx in corpus:
        H = fx.algebra
        got = (_sha(serialize_quantum_groupoid(H)), _sha(serialize_qt(H, fx.qt)),
               _sha(serialize_cocycle(H, fx.cocycle)))
        assert got == DOCUMENT_DIGESTS[fx.name], fx.name


@pytest.mark.parametrize("name", sorted(TWISTED_QT_DIGESTS))
def test_twist_command_twisted_qt_digest(name, tmp_path):
    from weakhopf.cli import run

    out = tmp_path / "twist.json"
    zoo_path = "zoo:" + name
    assert run(["twist", "--algebra", zoo_path, "--qt", zoo_path, "--cocycle", zoo_path,
                "--format", "structured", "--out", str(out)]) == 0
    docs = {d["title"]: d["text"] for d in json.loads(out.read_text())["documents"]}
    assert _sha(docs["twisted-qt"]) == TWISTED_QT_DIGESTS[name]


def test_parse_error_empty_section():
    with pytest.raises(ParseError) as err:
        parse("kind: weak-bialgebra\ndim: 1\nbasis: e\nmul:\n")
    assert err.value.line is not None


def test_parse_error_unknown_kind():
    with pytest.raises(ParseError):
        parse("kind: mystery\ndim: 1\nbasis: e\n")


def test_parse_error_unknown_field(diag2):
    text = serialize_quantum_groupoid(diag2.algebra)
    with pytest.raises(ParseError):
        parse(text + "extra: 1\n")


def test_parse_error_bad_rational(diag2):
    text = serialize_qt(diag2.algebra, diag2.qt)
    with pytest.raises(ParseError) as err:
        parse(text.replace("1 0 0 1", "1 0 x 1"))
    assert err.value.field == "r"


@pytest.mark.parametrize("token", ["1.5", "1e3", "+1", "2/4", "3/1", "-0", "0/2", "01", "1/-2", "1/0"])
def test_parse_error_non_canonical_rational(diag2, token):
    # rationals must be written as str(Fraction) writes them; the exponent
    # form is refused before Fraction() could expand it
    text = serialize_quantum_groupoid(diag2.algebra)
    assert "\ncounit: 1 1\n" in text
    with pytest.raises(ParseError) as err:
        parse(text.replace("\ncounit: 1 1\n", "\ncounit: 1 %s\n" % token))
    assert (err.value.field, err.value.line) == ("counit", 13)
    assert "line 13" in str(err.value) and "'counit'" in str(err.value)


def test_repeated_non_canonical_rational_fails_at_first_line(diag2):
    # accepted tokens are remembered per document; a rejected one never is,
    # so "2/4" after valid tokens on its line, and again later, fails at
    # its first line
    lines = serialize_quantum_groupoid(diag2.algebra).split("\n")
    assert lines[6] == "0 0" and lines[11] == "0 0 0 1"
    lines[6] = "0 2/4"
    lines[11] = "0 0 0 2/4"
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines))
    assert (err.value.field, err.value.line) == ("mul", 7)
    assert "'2/4'" in str(err.value)


def test_canonical_rationals_parse(diag2):
    text = serialize_quantum_groupoid(diag2.algebra)
    for token, value in (("-1/2", Fraction(-1, 2)), ("0", 0), ("-7", -7), ("10/3", Fraction(10, 3))):
        H = parse(text.replace("\ncounit: 1 1\n", "\ncounit: 1 %s\n" % token))
        assert H.counit == (1, value)


def test_parsed_entries_are_ints_when_integral(corpus):
    # the parser writes each rational as frac does: an int when it is
    # integral, else a Fraction
    for fx in corpus:
        H = parse(serialize_quantum_groupoid(fx.algebra))
        entries = [*H.unit, *H.counit]
        for rows in (H.mul_rows.values(), H.comul_cols.values(), H.antipode.sparse_rows):
            entries.extend(x for row in rows for x in row.values())
        assert entries and all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
                               for x in entries), fx.name


# words separated by single spaces, as a regular expression: re's \s is
# str.isspace, so a word holds no other whitespace
_WORDS = re.compile(r"\S+(?: \S+)*")


@settings(max_examples=500, deadline=None)
@example("a\tb")
@example("a\xa0b")
@example("a\x1cb")
@example("a  b")
@example(" a")
@example("a ")
@example("")
@given(st.one_of(
    st.text(alphabet=st.sampled_from("ab/1 \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u3000"),
            max_size=8),
    st.text(max_size=8)))
def test_words_are_separated_by_single_spaces(text):
    # the parser's two-split test against the regular expression
    reader = _Reader("")
    if text and not _WORDS.fullmatch(text):
        with pytest.raises(ParseError, match="is not single-space separated"):
            reader.words(text, "basis")
    else:
        assert reader.words(text, "basis") == text.split()


@pytest.mark.parametrize(
    "text, field",
    [
        ("kind: morphism\ndim: 1\nbasis: e\ntarget-dim: 0\ntarget-basis:\nmatrix:\n\n",
         "target-dim"),
        ("kind: module\ndim: 1\nbasis: v1\nalgebra-dim: 0\nalgebra-basis:\naction:\n",
         "algebra-dim"),
    ],
    ids=["morphism", "module"],
)
def test_parse_error_zero_secondary_dimension(text, field):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.field == field


def test_parse_error_dimension_mismatch(diag2):
    text = serialize_qt(diag2.algebra, diag2.qt)
    with pytest.raises(ParseError):
        parse(text.replace("dim: 2", "dim: 3"))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=4000))
def test_truncated_documents_never_crash(cut):
    # a damaged document either still parses or raises ParseError; nothing
    # else may escape
    from weakhopf import zoo

    text = serialize_quantum_groupoid(zoo.fixture("kd4").algebra)
    cut = min(cut, len(text))
    try:
        parse(text[:cut])
    except ParseError:
        pass


# -- strict layout: each variant below parsed, and serialized back to other
# bytes, before the parser held documents to the canonical layout

@pytest.mark.parametrize(
    "old, new, line, field",
    [
        ("dim: 2\n", "dim: 02\n", 2, "dim"),
        ("dim: 2\n", "dim: +2\n", 2, "dim"),
        ("dim: 2\n", "dim: 1_0\n", 2, "dim"),
        ("dim: 2\n", "dim: 2 \n", 2, "dim"),
        ("dim: 2\n", "dim:  2\n", 2, "dim"),
        ("dim: 2\n", "dim:2\n", 2, "dim"),
        ("basis: e1 e2\n", "basis: e1  e2\n", 3, "basis"),
        ("basis: e1 e2\n", "basis: e1\te2\n", 3, "basis"),
        ("\nunit: 1 1\n", "\nunit: 1  1\n", 9, "unit"),
        ("\nunit: 1 1\n", "\nunit: 1\t1\n", 9, "unit"),
        ("\nunit: 1 1\n", "\nunit:\t1 1\n", 9, "unit"),
        ("\nunit: 1 1\n", "\nunit: 1 1 \n", 9, "unit"),
        ("\n0 0 0 1\n", "\n 0 0 0 1\n", 12, "comul"),
        ("\nmul:\n", "\nmul: \n", 4, "mul"),
    ],
)
def test_non_canonical_layout_is_refused(diag2, old, new, line, field):
    text = serialize_quantum_groupoid(diag2.algebra)
    assert text.count(old) == 1
    with pytest.raises(ParseError) as err:
        parse(text.replace(old, new))
    assert (err.value.line, err.value.field) == (line, field)


def test_document_without_final_newline_is_refused(diag2):
    text = serialize_qt(diag2.algebra, diag2.qt)
    with pytest.raises(ParseError) as err:
        parse(text[:-1])
    assert err.value.line == text.count("\n")


@lru_cache(maxsize=None)
def _fixture_documents():
    """The .qg, .qt and .coc text of every builtin fixture."""
    from weakhopf import zoo

    docs = []
    for fx in [zoo.fixture(name) for name in zoo.fixture_names()]:
        H = fx.algebra
        docs += [serialize_quantum_groupoid(H), serialize_qt(H, fx.qt),
                 serialize_cocycle(H, fx.cocycle)]
    return tuple(docs)


_RESERIALIZE = {
    QuantumGroupoid: serialize_quantum_groupoid,
    ParsedQT: lambda p: serialize_qt(p, p.structure),
    ParsedCocycle: lambda p: serialize_cocycle(p, p.structure),
}


@st.composite
def _mutated_documents(draw):
    """A fixture document with one character substituted or one line
    inserted; the characters of the format are drawn often."""
    text = draw(st.sampled_from(_fixture_documents()))
    chars = st.one_of(st.sampled_from("0123456789-/ :\n\tabe"), st.characters())
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(chars) + text[at + 1:]
    lines = text.split("\n")
    at = draw(st.integers(0, len(lines) - 1))
    new = draw(st.one_of(st.sampled_from(lines),
                         st.text(st.characters(blacklist_characters="\n"), max_size=12)))
    return "\n".join(lines[:at] + [new] + lines[at:])


@settings(max_examples=300, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_fail_or_round_trip(text):
    # the byte-exact round trip: whatever parses serializes back to itself
    try:
        obj = parse(text)
    except WeakHopfError:
        return
    assert _RESERIALIZE[type(obj)](obj) == text


# -- malformed block fields: each document is the diag2 quantum groupoid with
# the given lines replaced (1-based line numbers); the message, line and
# field of the error are pinned, and the first bad token in line order wins

_DIAG2_BLOCK_ERRORS = [
    ({5: "1  0"}, "'1  0' is not single-space separated", 5, "mul"),
    ({6: "0 +1"}, "bad rational '+1' (want canonical p/q in lowest terms)", 6, "mul"),
    ({7: "2/4 0"}, "bad rational '2/4' (want canonical p/q in lowest terms)", 7, "mul"),
    ({11: "1 0 1e3 0"}, "bad rational '1e3' (want canonical p/q in lowest terms)", 11, "comul"),
    ({12: "0 0 0 1.5"}, "bad rational '1.5' (want canonical p/q in lowest terms)", 12, "comul"),
    ({8: "0 -0"}, "bad rational '-0' (want canonical p/q in lowest terms)", 8, "mul"),
    ({12: "0 0 0/1 1"}, "bad rational '0/1' (want canonical p/q in lowest terms)", 12, "comul"),
    ({16: "0 01"}, "bad rational '01' (want canonical p/q in lowest terms)", 16, "antipode"),
    ({11: "1 0 0"}, "expected 4 rationals, found 3", 11, "comul"),
    ({5: "1 0 0"}, "expected 2 rationals, found 3", 5, "mul"),
    ({6: ""}, "expected 2 rationals, found 0", 6, "mul"),
    ({5: "x 1e3 0"}, "expected 2 rationals, found 3", 5, "mul"),
    ({5: "1/0 2/4"}, "bad rational '1/0' (want canonical p/q in lowest terms)", 5, "mul"),
    ({5: "-1/2 2/4"}, "bad rational '2/4' (want canonical p/q in lowest terms)", 5, "mul"),
    ({6: "0 x", 11: "1e3 0 0 0"}, "bad rational 'x' (want canonical p/q in lowest terms)", 6,
     "mul"),
    ({7: "3/6 0", 11: "3/6 0 0 0"},
     "bad rational '3/6' (want canonical p/q in lowest terms)", 7, "mul"),
]


@pytest.mark.parametrize("edits, message, line, field", _DIAG2_BLOCK_ERRORS)
def test_malformed_block_rows_are_refused_at_their_first_bad_token(diag2, edits, message, line,
                                                                    field):
    lines = serialize_quantum_groupoid(diag2.algebra).split("\n")
    for at, new in edits.items():
        lines[at - 1] = new
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines))
    assert str(err.value) == "%s (line %d, field %r)" % (message, line, field)
    assert (err.value.line, err.value.field) == (line, field)


@pytest.mark.parametrize("drop, message, line, field", [
    (8, "expected 2 rationals, found 3", 8, "mul"),
    (12, "expected 4 rationals, found 3", 12, "comul"),
    (16, "unexpected end of file", 16, "antipode"),
])
def test_a_missing_block_line_is_refused(diag2, drop, message, line, field):
    lines = serialize_quantum_groupoid(diag2.algebra).split("\n")
    del lines[drop - 1]
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines))
    assert str(err.value) == "%s (line %d, field %r)" % (message, line, field)


def test_trailing_content_after_the_last_block_is_refused(diag2):
    with pytest.raises(ParseError) as err:
        parse(serialize_quantum_groupoid(diag2.algebra) + "0 0\n")
    assert str(err.value) == "unexpected trailing content '0 0' (line 17)"
    assert (err.value.line, err.value.field) == (17, None)


# -- malformed r/rinv/f/finv lines: each document is diag2's qt-structure or
# cocycle with the given line replaced; the message, line and field of the
# error are pinned, and the first bad token wins

_STRUCTURE_LINE_ERRORS = [
    ("qt", 4, "r: 1 0  0 1", "'1 0  0 1' is not single-space separated", "r"),
    ("qt", 5, "rinv: 1 +1 0 1", "bad rational '+1' (want canonical p/q in lowest terms)", "rinv"),
    ("coc", 4, "f: 2/4 0 0 1", "bad rational '2/4' (want canonical p/q in lowest terms)", "f"),
    ("coc", 5, "finv: 1 0 1e3 1",
     "bad rational '1e3' (want canonical p/q in lowest terms)", "finv"),
    ("qt", 4, "r: 1 0 -0 1", "bad rational '-0' (want canonical p/q in lowest terms)", "r"),
    ("qt", 5, "rinv: 1 0 0", "expected 4 rationals, found 3", "rinv"),
    ("coc", 4, "f: 1 0 0 1 0", "expected 4 rationals, found 5", "f"),
    ("coc", 5, "finv: 1 x 1e3 1", "bad rational 'x' (want canonical p/q in lowest terms)",
     "finv"),
    ("qt", 4, "r: 1 0 3/6 -0", "bad rational '3/6' (want canonical p/q in lowest terms)", "r"),
]


@pytest.mark.parametrize("doc, at, new, message, field", _STRUCTURE_LINE_ERRORS)
def test_malformed_structure_lines_are_refused_at_their_first_bad_token(diag2, doc, at, new,
                                                                        message, field):
    H = diag2.algebra
    text = serialize_qt(H, diag2.qt) if doc == "qt" else serialize_cocycle(H, diag2.cocycle)
    lines = text.split("\n")
    lines[at - 1] = new
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines))
    assert str(err.value) == "%s (line %d, field %r)" % (message, at, field)
    assert (err.value.line, err.value.field) == (at, field)
