"""Bit-exact text format for algebras, structures and presentations.

One document per object.  Fields appear in a fixed order, rationals print
in lowest terms with the sign on the numerator, and every file ends in a
single newline, so serialize(parse(text)) == text on canonical files and
equal objects serialize to identical bytes.  The parser accepts canonical
layout only: each field line is exactly ``key: value`` (or ``key:`` to open
a block), words and rationals are separated by single spaces, dimensions
have no sign or leading zero, and the document ends in one newline.
Unknown or out-of-order fields are errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from .algebra import QuantumGroupoid, WeakBialgebra
from .errors import DimensionMismatch, ParseError
from .linalg import Matrix, _transpose, frac, format_frac
from .structures import QTStructure, WeakCocycle
from .transmute import BraidedHopfPresentation

KINDS = (
    "weak-bialgebra",
    "quantum-groupoid",
    "qt-structure",
    "cocycle",
    "morphism",
    "module",
)

# a canonical rational: no "+", no leading zeros, no "-0", no "/1"; lowest
# terms are checked against str() of the parsed rational once the shape matches
_RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")
_DIMENSION = re.compile(r"[1-9][0-9]*")


@dataclass(frozen=True)
class ParsedQT:
    basis_names: Tuple[str, ...]
    structure: QTStructure


@dataclass(frozen=True)
class ParsedCocycle:
    basis_names: Tuple[str, ...]
    structure: WeakCocycle


@dataclass(frozen=True)
class ParsedMorphism:
    basis_names: Tuple[str, ...]
    target_basis_names: Tuple[str, ...]
    matrix: Matrix  # column i = image of source basis i


@dataclass(frozen=True)
class ParsedModule:
    basis_names: Tuple[str, ...]
    algebra_basis_names: Tuple[str, ...]
    # one row per algebra basis: the action matrix's entries, column after
    # column, as {index: rational} of the nonzeros
    action_rows: Tuple[dict, ...]

    def bind(self, algebra: QuantumGroupoid):
        """Attach to an algebra, producing an HModule."""
        from .modules import HModule

        if tuple(algebra.basis_names) != self.algebra_basis_names:
            raise DimensionMismatch("module references a different algebra basis")
        d = len(self.basis_names)
        mats = [Matrix.from_entries(d, d, ((k % d, k // d, x) for k, x in row.items()))
                for row in self.action_rows]
        return HModule(algebra, mats)


def _fmt_vec(v):
    return " ".join(format_frac(x) for x in v)


def _sparse_line(row, width):
    """The line of a length-width vector given by its nonzero entries
    {index: rational}: "0" wherever row has no entry."""
    words = ["0"] * width
    for k, x in row.items():
        words[k] = format_frac(x)
    return " ".join(words)


def _pair_line(x2, n):
    """The line of a 2-tensor {(a, b): c}, dim n: its n^2 entries, a major."""
    return _sparse_line({a * n + b: c for (a, b), c in x2.items()}, n * n)


def _column_lines(mat: Matrix) -> list:
    """One line per column of mat."""
    return [_sparse_line(col, mat.rows) for col in mat.transpose().sparse_rows]


def _column_major(mat: Matrix) -> str:
    """The entries of mat, column after column, as one line."""
    rows = mat.rows
    return _sparse_line({j * rows + i: x for i, row in enumerate(mat.sparse_rows)
                         for j, x in row.items()}, rows * mat.cols)


def _basis_fields(prefix, names):
    """The <prefix>dim and <prefix>basis fields of a basis, as
    `_Reader.basis` reads them."""
    return [(prefix + "dim", str(len(names))), (prefix + "basis", " ".join(names))]


def _serialize_lines(kind, sections):
    """A document of the given fields after its kind: (key, line) for a
    one-row field, (key, [lines]) for a block, one row a line."""
    lines = ["kind: %s" % kind]
    for key, rows in sections:
        if isinstance(rows, str):
            lines.append("%s: %s" % (key, rows))
        else:
            lines.append("%s:" % key)
            lines.extend(rows)
    return "\n".join(lines) + "\n"


def _bialgebra_sections(B):
    n = B.dim
    empty = {}
    return _basis_fields("", B.basis_names) + [
        ("mul", [_sparse_line(B.mul_rows.get(divmod(flat, n), empty), n)
                 for flat in range(n * n)]),
        ("unit", _fmt_vec(B.unit)),
        ("comul", [_pair_line(B.comul_cols[i], n) for i in range(n)]),
        ("counit", _fmt_vec(B.counit)),
    ]


def serialize_weak_bialgebra(B: WeakBialgebra) -> str:
    return _serialize_lines("weak-bialgebra", _bialgebra_sections(B))


def serialize_quantum_groupoid(H: QuantumGroupoid) -> str:
    return _serialize_lines(
        "quantum-groupoid",
        _bialgebra_sections(H) + [("antipode", _column_lines(H.antipode))],
    )


def _serialize_pairs(kind, H, fields):
    """A document of one n^2 line per (key, 2-tensor) of fields; n is read
    off H's basis, so H may be a parsed document."""
    n = len(H.basis_names)
    return _serialize_lines(kind, _basis_fields("", H.basis_names)
                            + [(key, _pair_line(x2, n)) for key, x2 in fields])


def serialize_qt(H, qt: QTStructure) -> str:
    return _serialize_pairs("qt-structure", H, [("r", qt.r), ("rinv", qt.rinv)])


def serialize_cocycle(H, wc: WeakCocycle) -> str:
    return _serialize_pairs("cocycle", H, [("f", wc.f), ("finv", wc.finv)])


def serialize_morphism(f) -> str:
    return _serialize_lines("morphism", _basis_fields("", f.source.basis_names)
                            + _basis_fields("target-", f.target.basis_names)
                            + [("matrix", _column_lines(f.matrix))])


def serialize_module(M) -> str:
    names = ["v%d" % i for i in range(1, M.dim + 1)]
    return _serialize_lines("module", _basis_fields("", names)
                            + _basis_fields("algebra-", M.algebra.basis_names)
                            + [("action", [_column_major(mat) for mat in M.mats])])


def serialize_presentation(p: BraidedHopfPresentation) -> str:
    def rows(basis):
        # one line per basis vector of the subspace, read off its rows
        return [_sparse_line(row, basis.ambient_dim) for row in basis.sparse_rows]

    maps = (("mul", p.mul), ("unit", p.unit), ("comul", p.comul),
            ("counit", p.counit), ("antipode", p.antipode))
    return _serialize_lines("presentation", _basis_fields("acting-", p.acting.basis_names)
                            + _basis_fields("ambient-", p.ambient.basis_names)
                            + [("carrier-dim", str(p.carrier.dim)), ("carrier", rows(p.carrier)),
                               ("ht-dim", str(p.ht.dim)), ("ht", rows(p.ht)),
                               ("action", [_column_major(mat) for mat in p.action.mats])]
                            + [(key, _column_lines(mat)) for key, mat in maps])


# ---------------------------------------------------------------------------
# parsing


class _Reader:
    def __init__(self, text):
        self.lines = text.split("\n")
        self.terminated = self.lines[-1] == ""
        if self.terminated:
            self.lines.pop()
        self.pos = 0
        self.known = {}  # token -> rational, for tokens already accepted

    @property
    def lineno(self):
        return self.pos + 1

    def next_line(self, field):
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file", line=self.lineno, field=field)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_done(self):
        if self.pos != len(self.lines):
            raise ParseError(
                "unexpected trailing content %r" % self.lines[self.pos],
                line=self.lineno,
            )
        if not self.terminated:
            raise ParseError("the document must end in a newline", line=self.pos)

    def key_line(self, key):
        """The value of a "key: value" line, or "" for a "key:" line."""
        line = self.next_line(key)
        if line == key + ":":
            return ""
        prefix = key + ": "
        if not line.startswith(prefix) or line == prefix:
            raise ParseError(
                "expected field %r, found %r" % (key, line), line=self.pos, field=key
            )
        return line[len(prefix):]

    def words(self, text, field):
        """The words of text, which must be separated by single spaces."""
        parts = text.split(" ") if text else []
        if parts != text.split():
            raise ParseError(
                "%r is not single-space separated" % text, line=self.pos, field=field
            )
        return parts

    def tokens(self, text, count, field):
        """The count words of text, single-space separated."""
        parts = self.words(text, field)
        if len(parts) != count:
            raise ParseError(
                "expected %d rationals, found %d" % (count, len(parts)),
                line=self.pos,
                field=field,
            )
        return parts

    def rational(self, token, field):
        """The rational a canonical token spells, as `frac` writes it,
        validated once per token."""
        x = self.known.get(token)
        if x is None:
            # the shape is checked first, so frac never sees an exponent
            x = frac(token) if _RATIONAL.fullmatch(token) else None
            if x is None or str(x) != token:
                raise ParseError(
                    "bad rational %r (want canonical p/q in lowest terms)" % token,
                    line=self.pos,
                    field=field,
                )
            self.known[token] = x
        return x

    def rationals(self, text, count, field):
        return tuple(self.rational(p, field) for p in self.tokens(text, count, field))

    def basis(self, dim_key, basis_key):
        """A positive dimension field, then a basis line with that many
        names; returns the names."""
        text = self.key_line(dim_key)
        if not _DIMENSION.fullmatch(text):
            raise ParseError(
                "bad dimension %r (want a positive integer, no sign or leading zero)" % text,
                line=self.pos,
                field=dim_key,
            )
        n = int(text)
        names = tuple(self.words(self.key_line(basis_key), basis_key))
        if len(names) != n:
            raise ParseError(
                "basis has %d names, %s is %d" % (len(names), dim_key, n),
                line=self.pos,
                field=basis_key,
            )
        return names

    def vector_field(self, key, count):
        return self.rationals(self.key_line(key), count, key)

    def block_lines(self, key, rows):
        """The row lines of a block field, each read when it is reached."""
        head = self.key_line(key)
        if head:
            raise ParseError(
                "field %r must start a block" % key, line=self.pos, field=key
            )
        for _ in range(rows):
            yield self.next_line(key)

    def sparse_row(self, line, count, key):
        """The count words of line as {column: rational} of their nonzero
        entries.  "0" is the one canonical zero, so only the other tokens
        are read as rationals, in line order."""
        known, rational = self.known, self.rational
        return {k: known[p] if p in known else rational(p, key)
                for k, p in enumerate(self.tokens(line, count, key)) if p != "0"}

    def sparse_block(self, key, rows, count):
        """The rows of a block field, each as `sparse_row` reads it."""
        for line in self.block_lines(key, rows):
            yield self.sparse_row(line, count, key)

    def pair_field(self, key, n):
        """A one-line field of n^2 entries as a 2-tensor {(a, b): rational}."""
        row = self.sparse_row(self.key_line(key), n * n, key)
        return {divmod(k, n): x for k, x in row.items()}


def parse(text: str):
    """Parse one canonical document; returns a typed object by kind."""
    r = _Reader(text)
    kind = r.key_line("kind")
    if kind == "presentation":
        raise ParseError("presentations are write-only artifacts", line=1, field="kind")
    if kind not in KINDS:
        raise ParseError("unknown kind %r" % kind, line=r.pos, field="kind")
    names = r.basis("dim", "basis")
    n = len(names)

    if kind in ("weak-bialgebra", "quantum-groupoid"):
        # each row goes straight into the sparse tables
        pairs = [divmod(flat, n) for flat in range(n * n)]
        mul_rows = {ij: row for ij, row in zip(pairs, r.sparse_block("mul", n * n, n)) if row}
        unit = r.vector_field("unit", n)
        comul_cols = {i: {pairs[jk]: c for jk, c in row.items()}
                      for i, row in enumerate(r.sparse_block("comul", n, n * n))}
        counit = r.vector_field("counit", n)
        base = WeakBialgebra(names, mul_rows, unit, comul_cols, counit)
        if kind == "weak-bialgebra":
            r.expect_done()
            return base
        s_cols = list(r.sparse_block("antipode", n, n))
        r.expect_done()
        return QuantumGroupoid(base, Matrix._of(n, n, _transpose(s_cols, n)))

    if kind == "qt-structure":
        qt = QTStructure(r.pair_field("r", n), r.pair_field("rinv", n))
        r.expect_done()
        return ParsedQT(names, qt)

    if kind == "cocycle":
        wc = WeakCocycle(r.pair_field("f", n), r.pair_field("finv", n))
        r.expect_done()
        return ParsedCocycle(names, wc)

    if kind == "morphism":
        tnames = r.basis("target-dim", "target-basis")
        tdim = len(tnames)
        columns = list(r.sparse_block("matrix", n, tdim))
        r.expect_done()
        return ParsedMorphism(names, tnames, Matrix._of(tdim, n, _transpose(columns, tdim)))

    # module
    anames = r.basis("algebra-dim", "algebra-basis")
    action_rows = tuple(r.sparse_block("action", len(anames), n * n))
    r.expect_done()
    return ParsedModule(names, anames, action_rows)
