"""Concrete instances: groupoid algebras, sign cocycles, direct sums.

Generators never emit unchecked data: every constructed object is run
through its checker, and `report.require` raises on its first failed check.  All coefficients stay in
{0, +-1, +-1/2, +-1/4}, so exact rationals suffice for the whole corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .algebra import (
    QuantumGroupoid,
    WeakBialgebra,
    check_quantum_groupoid,
    check_weak_bialgebra,
)
from .errors import (
    InconsistentStructure,
    InvalidGroupoid,
    NotABicharacter,
)
from .linalg import Matrix, Q, Q0, Q1
from .report import require
from .structures import (
    QTStructure,
    WeakCocycle,
    canonical_r,
    check_quasitriangular,
    check_weak_cocycle,
    swap2,
)


@dataclass(frozen=True)
class GroupoidSpec:
    """Finite groupoid: named arrows with partial composition and inverses.

    compose[(a, b)] = c means a after b; defined exactly when the source
    of a equals the target of b.
    """

    objects: Tuple[str, ...]
    arrows: Tuple[Tuple[str, str, str], ...]  # (name, source, target)
    compose: Dict[Tuple[str, str], str]
    inverses: Dict[str, str]

    def validate(self):
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise InvalidGroupoid("duplicate arrow names")
        info = {a[0]: (a[1], a[2]) for a in self.arrows}
        identities = {}
        for (a, b), c in self.compose.items():
            if a not in info or b not in info or c not in info:
                raise InvalidGroupoid("composition names unknown arrow (%s, %s) -> %s" % (a, b, c))
            if info[a][0] != info[b][1]:
                raise InvalidGroupoid(
                    "composition (%s, %s) defined but middle objects differ" % (a, b)
                )
            if (info[c][0], info[c][1]) != (info[b][0], info[a][1]):
                raise InvalidGroupoid(
                    "composite (%s, %s) -> %s has wrong endpoints" % (a, b, c)
                )
        for a, (src_a, tgt_a) in info.items():
            for b, (src_b, tgt_b) in info.items():
                if src_a == tgt_b and (a, b) not in self.compose:
                    raise InvalidGroupoid("missing composite (%s, %s)" % (a, b))
        # per-object identities
        for obj in self.objects:
            ids = [
                a
                for a, (s, t) in info.items()
                if s == obj and t == obj
                and all(
                    self.compose.get((a, b)) == b
                    for b, (sb, tb) in info.items()
                    if tb == obj
                )
                and all(
                    self.compose.get((b, a)) == b
                    for b, (sb, tb) in info.items()
                    if sb == obj
                )
            ]
            if not ids:
                raise InvalidGroupoid("object %s has no identity arrow" % obj)
            identities[obj] = ids[0]
        for a, inv in self.inverses.items():
            if a not in info or inv not in info:
                raise InvalidGroupoid("inverse table names unknown arrow %s" % a)
            src, tgt = info[a]
            if self.compose.get((inv, a)) != identities[src]:
                raise InvalidGroupoid("arrow %s has no left inverse" % a)
            if self.compose.get((a, inv)) != identities[tgt]:
                raise InvalidGroupoid("arrow %s has no right inverse" % a)
        for a in info:
            if a not in self.inverses:
                raise InvalidGroupoid("arrow %s missing from the inverse table" % a)
        return identities

    @classmethod
    def identity_groupoid(cls, k: int) -> "GroupoidSpec":
        objects = tuple("o%d" % i for i in range(1, k + 1))
        arrows = tuple(("e%d" % i, "o%d" % i, "o%d" % i) for i in range(1, k + 1))
        compose = {("e%d" % i, "e%d" % i): "e%d" % i for i in range(1, k + 1)}
        inverses = {"e%d" % i: "e%d" % i for i in range(1, k + 1)}
        return cls(objects, arrows, compose, inverses)

    @classmethod
    def pair_groupoid(cls, k: int) -> "GroupoidSpec":
        objects = tuple("o%d" % i for i in range(1, k + 1))
        arrows = tuple(
            ("e%d%d" % (i, j), "o%d" % j, "o%d" % i)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
        )
        compose = {}
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                for l in range(1, k + 1):
                    compose[("e%d%d" % (i, j), "e%d%d" % (j, l))] = "e%d%d" % (i, l)
        inverses = {
            "e%d%d" % (i, j): "e%d%d" % (j, i)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
        }
        return cls(objects, arrows, compose, inverses)

    @classmethod
    def from_group(cls, names, table, identity=None) -> "GroupoidSpec":
        """One-object groupoid from a group multiplication table.

        table[(a, b)] = ab over the given element names.
        """
        names = tuple(names)
        compose = dict(table)
        if identity is None:
            identity = names[0]
        inverses = {}
        for a in names:
            inv = [b for b in names if compose.get((a, b)) == identity]
            if len(inv) != 1:
                raise InvalidGroupoid("element %s has no unique inverse" % a)
            inverses[a] = inv[0]
        arrows = tuple((a, "o", "o") for a in names)
        return cls(("o",), arrows, compose, inverses)


def groupoid_algebra(spec: GroupoidSpec) -> QuantumGroupoid:
    """Groupoid algebra: arrows as basis, grouplike coproduct, counit 1,
    antipode sending each arrow to its inverse."""
    identities = spec.validate()
    names = [a[0] for a in spec.arrows]
    n = len(names)
    index = {a: i for i, a in enumerate(names)}
    mul_rows = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            c = spec.compose.get((a, b))
            if c is not None:
                mul_rows[(i, j)] = {index[c]: Q1}
    unit = [Q0] * n
    for obj in spec.objects:
        unit[index[identities[obj]]] = Q1
    comul_cols = {i: {(i, i): Q1} for i in range(n)}
    counit = [Q1] * n
    antipode = Matrix.from_entries(
        n, n, ((index[spec.inverses[a]], i, Q1) for i, a in enumerate(names))
    )
    return _checked_groupoid(names, mul_rows, unit, comul_cols, counit, antipode,
                             _failure(InvalidGroupoid, "groupoid algebra"))


def _failure(error, what):
    """For require: a failed check of what as error("<what> failed <check>")."""
    return lambda check: error("%s failed %s" % (what, check.name))


def _checked_groupoid(names, mul_rows, unit, comul_cols, counit, antipode, failure):
    """The quantum groupoid of these tables, once both algebra suites pass."""
    H = QuantumGroupoid(WeakBialgebra(names, mul_rows, unit, comul_cols, counit), antipode)
    require(check_weak_bialgebra(H), failure)
    require(check_quantum_groupoid(H), failure)
    return H


def cyclic_group_algebra(k: int) -> QuantumGroupoid:
    names = ["g%d" % i for i in range(k)]
    names[0] = "e"
    table = {
        (names[i], names[j]): names[(i + j) % k] for i in range(k) for j in range(k)
    }
    return groupoid_algebra(GroupoidSpec.from_group(names, table))


def dihedral_group_algebra(k: int) -> QuantumGroupoid:
    """Group algebra of the dihedral group of order 2k (r^k = s^2 = 1)."""
    rot = ["e" if i == 0 else ("r" if i == 1 else "r%d" % i) for i in range(k)]
    ref = ["s" if i == 0 else ("rs" if i == 1 else "r%ds" % i) for i in range(k)]
    names = rot + ref
    table = {}
    for i in range(k):
        for j in range(k):
            table[(rot[i], rot[j])] = rot[(i + j) % k]
            table[(rot[i], ref[j])] = ref[(i + j) % k]
            table[(ref[i], rot[j])] = ref[(i - j) % k]
            table[(ref[i], ref[j])] = rot[(i - j) % k]
    return groupoid_algebra(GroupoidSpec.from_group(names, table))


# ---------------------------------------------------------------------------
# cocycles


def trivial_cocycle(H: QuantumGroupoid) -> WeakCocycle:
    """F = Delta(1); valid whenever the checker accepts it."""
    wc = WeakCocycle(H.delta_one, swap2(H.delta_one))
    require(check_weak_cocycle(H, wc), _failure(InconsistentStructure, "trivial cocycle"))
    return wc


def _basis_index_of_product(H, i, j):
    row = H.mul_rows.get((i, j), {})
    if len(row) != 1 or next(iter(row.values())) != 1:
        raise NotABicharacter(
            "basis products inside the subgroup must be single basis elements"
        )
    return next(iter(row.keys()))


def bicharacter_cocycle(H: QuantumGroupoid, generators, beta) -> WeakCocycle:
    """Sign-bicharacter cocycle on an elementary abelian 2-subgroup.

    generators: basis indices of commuting involutions generating the
    subgroup (1 or 2 of them).  beta: a 2^k x 2^k matrix of ints or Fractions
    +-1 indexed by characters encoded as bitmasks; beta[v][w] is the pairing
    of the characters determined by (-1)^(v.g) on generators g.  The cocycle
    is F = sum beta(chi, psi) e_chi (x) e_psi over character idempotents; the
    checker is the acceptance oracle and is always run.
    """
    k = len(generators)
    if k not in (1, 2):
        raise NotABicharacter("need one or two generators")
    # identity index from the unit vector
    unit_support = [i for i, c in enumerate(H.unit) if c]
    gen = list(generators)
    for g in gen:
        if g not in range(H.dim):
            raise NotABicharacter("generator index %r is outside the algebra" % (g,))
        if H.comul_cols[g] != {(g, g): Q1} or H.counit[g] != 1:
            raise NotABicharacter("generators must be grouplike with counit 1")
    # subgroup elements indexed by bitmasks
    elems = {}
    for mask in range(2 ** k):
        idx = None
        for bit, g in enumerate(gen):
            if mask & (1 << bit):
                idx = g if idx is None else _basis_index_of_product(H, idx, g)
        if idx is None:
            ident = [i for i in unit_support if H.mul_rows.get((gen[0], i), {}).get(gen[0]) == 1]
            if len(ident) != 1:
                raise NotABicharacter("could not locate the subgroup identity")
            idx = ident[0]
        elems[mask] = idx
    if len(set(elems.values())) != 2 ** k:
        raise NotABicharacter("generators do not generate an elementary abelian 2-group")
    for mask, idx in elems.items():
        if _basis_index_of_product(H, idx, idx) != elems[0]:
            raise NotABicharacter("subgroup elements must be involutions")
    for m1 in range(2 ** k):
        for m2 in range(2 ** k):
            if _basis_index_of_product(H, elems[m1], elems[m2]) != elems[m1 ^ m2]:
                raise NotABicharacter("subgroup is not closed or not abelian")

    size = 2 ** k
    if len(beta) != size or any(len(row) != size for row in beta):
        raise NotABicharacter("beta must be a %d x %d matrix" % (size, size))
    if not all(type(x) in (int, Q) and x in (1, -1) for row in beta for x in row):
        raise NotABicharacter("pairing values must be the rationals +-1")
    bmat = [[int(x) for x in row] for row in beta]
    for v1 in range(size):
        for v2 in range(size):
            for w in range(size):
                if bmat[v1 ^ v2][w] != bmat[v1][w] * bmat[v2][w]:
                    raise NotABicharacter("pairing not multiplicative in the first slot")
                if bmat[w][v1 ^ v2] != bmat[w][v1] * bmat[w][v2]:
                    raise NotABicharacter("pairing not multiplicative in the second slot")

    def parity(a, b):
        return bin(a & b).count("1") & 1

    # the character idempotents, as {basis index: coefficient}; the
    # subgroup elements are distinct basis elements
    scale = Q(1, size)
    idemp = [{idx: scale * (-1 if parity(v, mask) else 1) for mask, idx in elems.items()}
             for v in range(size)]

    f = {}
    for v in range(size):
        for w in range(size):
            for a, ca in idemp[v].items():
                for b, cb in idemp[w].items():
                    f[a, b] = f.get((a, b), Q0) + bmat[v][w] * ca * cb
    # every pairing value is +-1, its own inverse, so F^-1 sums the same
    # terms as F
    wc = WeakCocycle(f, f)
    require(check_weak_cocycle(H, wc), _failure(InconsistentStructure, "bicharacter cocycle"))
    return wc


# ---------------------------------------------------------------------------
# direct sums


def _disjoint_names(A, B):
    if set(A.basis_names) & set(B.basis_names):
        return (
            ["l." + s for s in A.basis_names],
            ["r." + s for s in B.basis_names],
        )
    return list(A.basis_names), list(B.basis_names)


def direct_sum(A: QuantumGroupoid, B: QuantumGroupoid) -> QuantumGroupoid:
    """Block-diagonal weak Hopf structure; the unit is 1_A + 1_B, so the
    coproduct of 1 is never 1 (x) 1 when both blocks are nontrivial."""
    na, nb = A.dim, B.dim
    n = na + nb
    names_a, names_b = _disjoint_names(A, B)
    names = names_a + names_b
    # B's structure constants with every index shifted past A's
    mul_rows = dict(A.mul_rows)
    mul_rows.update(((na + i, na + j), {na + k: c for k, c in row.items()})
                    for (i, j), row in B.mul_rows.items())
    comul_cols = dict(A.comul_cols)
    comul_cols.update((na + i, {(na + j, na + k): c for (j, k), c in col.items()})
                      for i, col in B.comul_cols.items())
    unit = list(A.unit) + list(B.unit)
    counit = list(A.counit) + list(B.counit)
    antipode = Matrix.from_entries(
        n,
        n,
        [(i, j, x) for i, row in enumerate(A.antipode.sparse_rows) for j, x in row.items()]
        + [(na + i, na + j, x)
           for i, row in enumerate(B.antipode.sparse_rows) for j, x in row.items()],
    )
    return _checked_groupoid(names, mul_rows, unit, comul_cols, counit, antipode,
                             _failure(InconsistentStructure, "direct sum"))


def _block_sum2(A, xa, xb):
    """The 2-tensor xa of A plus xb of B with its indices shifted past A's,
    inside the direct sum of A and B."""
    na = A.dim
    out = dict(xa)
    out.update(((na + a, na + b), c) for (a, b), c in xb.items())
    return out


def direct_sum_qt(H_sum, A, B, qa: QTStructure, qb: QTStructure) -> QTStructure:
    qt = QTStructure(_block_sum2(A, qa.r, qb.r), _block_sum2(A, qa.rinv, qb.rinv))
    require(check_quasitriangular(H_sum, qt),
            _failure(InconsistentStructure, "block quasitriangular structure"))
    return qt


def direct_sum_cocycle(H_sum, A, B, wa: WeakCocycle, wb: WeakCocycle) -> WeakCocycle:
    wc = WeakCocycle(_block_sum2(A, wa.f, wb.f), _block_sum2(A, wa.finv, wb.finv))
    require(check_weak_cocycle(H_sum, wc), _failure(InconsistentStructure, "block cocycle"))
    return wc


# ---------------------------------------------------------------------------
# builtin fixtures


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    algebra: QuantumGroupoid
    qt: QTStructure
    cocycle: WeakCocycle


def _trivial(spec):
    """Builder of the groupoid algebra of spec with the cocycle Delta(1)."""
    def build():
        H = groupoid_algebra(spec)
        return H, trivial_cocycle(H)
    return build


def _kz2():
    H = cyclic_group_algebra(2)
    return H, bicharacter_cocycle(H, [1], [[1, 1], [1, -1]])


def _kd4_cocycle(H):
    # generators s and r2s: both reflections, so conjugation by either acts
    # nontrivially and the deformed product genuinely differs from the
    # undeformed one
    names = list(H.basis_names)
    gens = [names.index("s"), names.index("r2s")]
    beta = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]
    return bicharacter_cocycle(H, gens, beta)


def _kd4():
    H = dihedral_group_algebra(4)
    return H, _kd4_cocycle(H)


def _kd4_diag2():
    A = dihedral_group_algebra(4)
    B = groupoid_algebra(GroupoidSpec.identity_groupoid(2))
    H = direct_sum(A, B)
    return H, direct_sum_cocycle(H, A, B, _kd4_cocycle(A), trivial_cocycle(B))


# name -> (description, builder of (algebra, cocycle)); `fixture` adds the
# canonical quasitriangular structure.  On diag2 the cocycle
# Delta(1) = e1 (x) e1 + e2 (x) e2.
_FIXTURES = {
    "diag2": ("2x2 diagonal matrix algebra (two-object identity groupoid)",
              _trivial(GroupoidSpec.identity_groupoid(2))),
    "kz2": ("group algebra of Z2 with the sign cocycle", _kz2),
    "pair2": ("pair groupoid of two objects (4-dim, antipode = transpose)",
              _trivial(GroupoidSpec.pair_groupoid(2))),
    "kd4": ("group algebra of the dihedral group of order 8 with a Klein-four sign cocycle",
            _kd4),
    "kd4_diag2": ("direct sum of the dihedral block and the diagonal block (genuinely weak)",
                  _kd4_diag2),
}

_cache = {}


def fixture_names():
    return tuple(_FIXTURES)


def fixture(name: str) -> Fixture:
    if name not in _FIXTURES:
        raise KeyError("unknown fixture %r (choose from %s)" % (name, ", ".join(_FIXTURES)))
    if name not in _cache:
        description, build = _FIXTURES[name]
        H, wc = build()
        _cache[name] = Fixture(name, description, H, canonical_r(H), wc)
    return _cache[name]
