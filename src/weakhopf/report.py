"""Verification reports: named checks with first-failure witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import DimensionMismatch
from .linalg import Matrix, Q0, format_frac


@dataclass(frozen=True)
class Witness:
    """Where a check failed: basis indices plus both sides' coefficients."""

    indices: Tuple[int, ...]
    lhs: Tuple
    rhs: Tuple
    detail: str = ""

    def describe(self) -> str:
        parts = []
        if self.detail:
            parts.append(self.detail)
        if self.indices:
            parts.append("indices=%s" % (tuple(self.indices),))
        parts.append("lhs=[%s]" % " ".join(format_frac(x) for x in self.lhs))
        parts.append("rhs=[%s]" % " ".join(format_frac(x) for x in self.rhs))
        return " ".join(parts)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: Optional[Witness] = None


@dataclass
class VerificationReport:
    """Ordered list of named checks; passes iff every check passed."""

    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witness: Optional[Witness] = None) -> None:
        """Record a check; a failing check must say where it fails."""
        if not passed and witness is None:
            raise ValueError("failing check %r has no witness" % name)
        self.checks.append(Check(name, bool(passed), None if passed else witness))

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def failed_checks(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_lines(self):
        lines = []
        for c in self.checks:
            if c.passed:
                lines.append("[PASS] %s/%s" % (self.suite, c.name))
            else:
                msg = "[FAIL] %s/%s" % (self.suite, c.name)
                if c.witness is not None:
                    msg += " -- " + c.witness.describe()
                lines.append(msg)
        return lines

    def to_dict(self):
        out = []
        for c in self.checks:
            entry = {"suite": self.suite, "name": c.name, "passed": c.passed}
            if c.witness is not None:
                entry["witness"] = {
                    "indices": list(c.witness.indices),
                    "lhs": [format_frac(x) for x in c.witness.lhs],
                    "rhs": [format_frac(x) for x in c.witness.rhs],
                    "detail": c.witness.detail,
                }
            out.append(entry)
        return out


def require(rep, error):
    """rep, or error(check) raised for its first failed check."""
    for check in rep.failed_checks()[:1]:
        raise error(check)
    return rep


def decide(name, pairs, detail="", shape=None) -> Check:
    """The check `comparison` records for these pairs, on its own, for a
    verdict that is kept and added to reports later."""
    rep = VerificationReport("")
    comparison(rep, name, pairs, detail, shape)
    return rep.checks[0]


def dense_of_sparse(s, n, k):
    """The sparse element s of H^(x)k, dim H = n, as a length n^k tuple."""
    out = [Q0] * (n ** k)
    for idx, c in s.items():
        flat = 0
        for i in idx:
            flat = flat * n + i
        out[flat] += c
    return tuple(out)


def comparison(report, name, pairs, detail="", shape=None):
    """Add a check comparing (indices, lhs, rhs) triples; first failure wins.

    Sides are coefficient sequences, `Matrix` maps or, with shape = (n, k),
    zero-free sparse elements of H^(x)k, dim H = n, compared as dicts and
    densified for the witness only.  Two maps are compared on their sparse
    rows; the witness of an unequal pair is its first differing column j,
    at indices + (j,), or + its k basis indices with shape = (n, k) (the
    domain V^(x)k, dim V = n).  Maps of different shapes raise DimensionMismatch.
    """
    for indices, lhs, rhs in pairs:
        if isinstance(lhs, Matrix):
            if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
                raise DimensionMismatch("%s compares a %dx%d map with a %dx%d one"
                                        % (name, lhs.rows, lhs.cols, rhs.rows, rhs.cols))
            if lhs.sparse_rows == rhs.sparse_rows:
                continue
            j = min(min(row) for row in (lhs - rhs).sparse_rows if row)
            n, k = shape or (lhs.cols, 1)
            at = tuple(j // n ** e % n for e in reversed(range(k)))
            indices, lhs, rhs = tuple(indices) + at, lhs.column(j), rhs.column(j)
        elif shape is not None:
            if lhs == rhs:
                continue
            lhs, rhs = dense_of_sparse(lhs, *shape), dense_of_sparse(rhs, *shape)
        else:
            lhs, rhs = tuple(lhs), tuple(rhs)
            if lhs == rhs:
                continue
        report.add(name, False, Witness(tuple(indices), lhs, rhs, detail))
        return False
    report.add(name, True)
    return True
