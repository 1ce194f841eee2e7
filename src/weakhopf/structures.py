"""Quasitriangular structures and weak invertible unit 2-cocycles.

Both are held as zero-free sparse {(a, b): c} 2-tensors of H (x) H, the
form the suites multiply in H^(x)k, as is Delta(1).
The checkers verify the defining conditions plus the derived identity
suites; the construction helpers (Drinfeld element, canonical structure on
a cocommutative algebra, twist elements) validate the identities they rely
on instead of assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .algebra import (
    QuantumGroupoid,
    _in_range,
    _on_generators,
    sparse_coproduct_leg,
    sparse_embed,
    sparse_mul,
)
from .errors import (
    DimensionMismatch,
    InconsistentStructure,
    NonUniqueSolution,
    NotCocommutative,
    UNotInvertible,
)
from .linalg import Matrix, Q0, Q1, _add_into, _dense, frac
from .report import VerificationReport, Witness, comparison, dense_of_sparse, require


def _element2(x2) -> dict:
    """x2 as a 2-tensor {(a, b): rational}, each entry as `frac` writes it,
    with its zero entries dropped, so equal elements are equal dicts."""
    x2 = {ab: frac(c) for ab, c in x2.items()}
    return {ab: c for ab, c in x2.items() if c}


@dataclass(frozen=True)
class QTStructure:
    r: dict
    rinv: dict

    def __post_init__(self):
        object.__setattr__(self, "r", _element2(self.r))
        object.__setattr__(self, "rinv", _element2(self.rinv))


@dataclass(frozen=True)
class WeakCocycle:
    f: dict
    finv: dict

    def __post_init__(self):
        object.__setattr__(self, "f", _element2(self.f))
        object.__setattr__(self, "finv", _element2(self.finv))


def _require_in_range(n, what, *elements):
    """Raise DimensionMismatch unless every index of the 2-tensors is below n."""
    for x2 in elements:
        for ab in x2:
            if not _in_range(ab, 2, n):
                raise DimensionMismatch("%s has an index out of range at %r" % (what, ab))


@dataclass(frozen=True)
class DrinfeldElement:
    u: Tuple
    u_inv: Tuple


@dataclass(frozen=True)
class TwistElements:
    """Conjugator v and its named inverse, with v * v^{-1} recorded.

    The product is recorded rather than asserted to equal 1: nothing
    downstream uses invertibility of v directly.  coproduct_sides are the
    two sides of the coproduct law of v^-1 (`conjugator_coproduct_sides`),
    kept for the report that states it.
    """

    v: Tuple
    v_inv: Tuple
    product: Tuple
    coproduct_sides: Tuple = field(compare=False, repr=False)


def swap2(x2) -> dict:
    """The flip a (x) b -> b (x) a of a sparse 2-tensor."""
    return {(b, a): c for (a, b), c in x2.items()}


def apply_to_leg(mat: Matrix, x2, leg) -> dict:
    """mat applied to the given leg of a sparse k-tensor, such as
    (mat (x) id) or (id (x) mat) on a 2-tensor."""
    cols = [{(p,): c for p, c in col.items()} for col in mat.transpose().sparse_rows]
    return sparse_coproduct_leg(x2, leg, cols)


def _mul2(H, *factors) -> dict:
    """The product of sparse 2-tensors, left to right."""
    out = factors[0]
    for x in factors[1:]:
        out = sparse_mul(H, out, x, 2)
    return out


def _outer2(x, y) -> dict:
    """x (x) y of two dense elements as a sparse 2-tensor."""
    return {(a, b): cx * cy for a, cx in enumerate(x) if cx for b, cy in enumerate(y) if cy}


def _mu(H, x2) -> tuple:
    """The product of the two legs of a sparse 2-tensor, as a dense element."""
    out = {}
    for ab, c in x2.items():
        _add_into(out, c, H.mul_rows.get(ab, {}))
    return tuple(_dense(out, H.dim))


def _left(H, y, leg, x2) -> dict:
    """(y on leg, 1 on the other leg) x2, for a sparse 1-tensor y."""
    return _mul2(H, sparse_embed(y, 2, (leg,), H.unit_sparse), x2)


def _right(H, x2, y, leg) -> dict:
    """x2 (y on leg, 1 on the other leg), for a sparse 1-tensor y."""
    return sparse_mul(H, x2, y, 2, (leg,))


def _subalgebra_checks(rep, H, checks):
    """For each (name, subalgebra, lhs, rhs, detail) of checks, compare the
    sparse 2-tensors lhs(y) and rhs(y) over the basis vectors y of the
    subalgebra, as sparse 1-tensors."""
    for name, sub, lhs, rhs, detail in checks:
        ys = [{(k,): c for k, c in row.items()} for row in sub.sparse_rows]
        comparison(rep, name, (((i,), lhs(y), rhs(y)) for i, y in enumerate(ys)),
                   detail, (H.dim, 2))


# ---------------------------------------------------------------------------
# quasitriangular checks


def check_quasitriangular(H: QuantumGroupoid, qt: QTStructure) -> VerificationReport:
    rep = VerificationReport("quasitriangular")
    n = H.dim
    _require_in_range(n, "R", qt.r, qt.rinv)
    r, rinv = qt.r, qt.rinv
    d1 = H.delta_one
    d1c = swap2(d1)
    sq, cube = (n, 2), (n, 3)

    comparison(rep, "r-sandwich", [((), _mul2(H, d1c, r, d1), r)],
               "Delta_cop(1) R Delta(1) vs R", sq)
    comparison(rep, "rinv-sandwich", [((), _mul2(H, d1, rinv, d1c), rinv)],
               "Delta(1) R^-1 Delta_cop(1) vs R^-1", sq)
    comparison(rep, "r-invertibility-left", [((), _mul2(H, r, rinv), d1c)],
               "R R^-1 vs Delta_cop(1)", sq)
    comparison(rep, "r-invertibility-right", [((), _mul2(H, rinv, r), d1)],
               "R^-1 R vs Delta(1)", sq)

    r13 = sparse_embed(r, 3, (0, 2), H.unit_sparse)
    comparison(
        rep,
        "coproduct-second-leg",
        [((), sparse_coproduct_leg(r, 1, H.comul_cols), sparse_mul(H, r13, r, 3, (0, 1)))],
        "(id (x) Delta)R vs R13 R12",
        cube,
    )
    comparison(
        rep,
        "coproduct-first-leg",
        [((), sparse_coproduct_leg(r, 0, H.comul_cols), sparse_mul(H, r13, r, 3, (1, 2)))],
        "(Delta (x) id)R vs R13 R23",
        cube,
    )

    # the h with Delta_cop(h) R = R Delta(h) form a subalgebra when Delta is
    # multiplicative, so the generators and h = 1 decide the law
    def intertwiner(i):
        di = H.comul_cols[i]
        yield (i,), _mul2(H, swap2(di), r), _mul2(H, r, di)

    gate = H.unital_associative and H.comultiplicativity.passed
    at_one = [((), _mul2(H, d1c, r), _mul2(H, r, d1))]
    comparison(rep, "intertwiner", _on_generators(H, intertwiner, gate, at_one),
               "Delta_cop(h) R vs R Delta(h)", sq)
    return rep


def derived_r_identities(H: QuantumGroupoid, qt: QTStructure) -> VerificationReport:
    """The full derived identity list for a valid quasitriangular structure."""
    from .algebra import source_subalgebra, target_subalgebra

    rep = VerificationReport("r-identities")
    r, rinv = qt.r, qt.rinv
    ht = target_subalgebra(H)
    hs = source_subalgebra(H)
    S = H.antipode
    Sinv = H.antipode_inv
    d1 = H.delta_one
    sq = (H.dim, 2)

    def s(y):
        return apply_to_leg(S, y, 0)

    def sinv(y):
        return apply_to_leg(Sinv, y, 0)

    # the subalgebra elements y and z are sparse 1-tensors
    _subalgebra_checks(rep, H, (
        ("target-right-exchange", ht,
         lambda z: _left(H, z, 1, r), lambda z: _right(H, r, z, 0), ""),
        ("source-left-exchange", hs,
         lambda y: _left(H, y, 0, r), lambda y: _right(H, r, y, 1), ""),
        ("target-antipode-left", ht,
         lambda z: _left(H, z, 0, r), lambda z: _left(H, s(z), 1, r), ""),
        ("source-antipode-right", hs,
         lambda y: _left(H, y, 1, r), lambda y: _left(H, s(y), 0, r), ""),
        ("target-antipode-inverse", ht,
         lambda z: _right(H, r, z, 1), lambda z: _right(H, r, sinv(z), 0), ""),
        ("source-antipode-inverse", hs,
         lambda y: _right(H, r, y, 0), lambda y: _right(H, r, sinv(y), 1), ""),
    ))

    for name, lhs, rhs, detail in (
        ("source-marginal-first-leg", apply_to_leg(H.eps_s_mat, r, 0), d1,
         "(eps_s (x) id)R vs Delta(1)"),
        ("source-marginal-second-leg", apply_to_leg(H.eps_s_mat, r, 1),
         apply_to_leg(S, swap2(d1), 0), "(id (x) eps_s)R vs (S (x) id)Delta_cop(1)"),
        ("target-marginal-first-leg", apply_to_leg(H.eps_t_mat, r, 0), swap2(d1),
         "(eps_t (x) id)R vs Delta_cop(1)"),
        ("target-marginal-second-leg", apply_to_leg(H.eps_t_mat, r, 1),
         apply_to_leg(S, d1, 0), "(id (x) eps_t)R vs (S (x) id)Delta(1)"),
        ("antipode-first-leg", apply_to_leg(S, r, 0), rinv, "(S (x) id)R vs R^-1"),
        ("antipode-inverse-second-leg", apply_to_leg(Sinv, r, 1), rinv,
         "(id (x) S^-1)R vs R^-1"),
        ("antipode-both-legs", apply_to_leg(S, apply_to_leg(S, r, 0), 1), r,
         "(S (x) S)R vs R"),
    ):
        comparison(rep, name, [((), lhs, rhs)], detail, sq)
    return rep


def drinfeld_element(H: QuantumGroupoid, qt: QTStructure) -> DrinfeldElement:
    """u = S(R^(2)) R^(1) with inverse R^(2) S^2(R^(1)).

    Verifies invertibility, the conjugation identity S^2 = u (.) u^-1, and
    the coproduct formula for u; a failure means the input was not a valid
    quasitriangular structure.
    """
    rep, u, u_inv = _drinfeld_report(H, qt)
    require(rep, _drinfeld_failure)
    return DrinfeldElement(u, u_inv)


def _drinfeld_failure(check):
    if check.name == "u-invertible":
        return UNotInvertible("u u^-1 != 1; input is not quasitriangular")
    return InconsistentStructure("derived identity %r fails" % check.name)


def drinfeld_identities(H: QuantumGroupoid, qt: QTStructure) -> VerificationReport:
    """u invertible, S^2 = u (.) u^-1, and the coproduct formula for u."""
    return _drinfeld_report(H, qt)[0]


def _drinfeld_report(H, qt):
    """(the drinfeld report, u, u^-1), u = S(R^(2)) R^(1) and u^-1 =
    R^(2) S^2(R^(1)) as dense elements."""
    rep = VerificationReport("drinfeld")
    s2 = H.antipode * H.antipode
    r21 = swap2(qt.r)
    u, u_inv = _mu(H, apply_to_leg(H.antipode, r21, 0)), _mu(H, apply_to_leg(s2, r21, 1))
    lu = H.left_mult(u)
    uu_inv = lu.apply(u_inv)
    if uu_inv != H.unit or H.right_mult(u).apply(u_inv) != H.unit:
        rep.add("u-invertible", False, Witness((), uu_inv, H.unit, "u u^-1 vs 1"))
        return rep, u, u_inv
    rep.add("u-invertible", True)

    conj = lu * H.right_mult(u_inv)
    comparison(rep, "square-antipode-conjugation", [((), s2, conj)],
               "S^2 vs conjugation by u")

    du = sparse_coproduct_leg({(i,): c for i, c in enumerate(u) if c}, 0, H.comul_cols)
    rhs = _mul2(H, qt.rinv, swap2(qt.rinv), _outer2(u, u))
    comparison(rep, "coproduct-of-u", [((), du, rhs)],
               "Delta(u) vs R^-1 R21^-1 (u (x) u)", (H.dim, 2))
    return rep, u, u_inv


def canonical_r(H: QuantumGroupoid) -> QTStructure:
    """R = Delta_cop(1) Delta(1) for a cocommutative quantum groupoid."""
    if not H.is_cocommutative:
        raise NotCocommutative("canonical structure needs a cocommutative coproduct")
    d1 = H.delta_one
    return QTStructure(_mul2(H, swap2(d1), d1), _mul2(H, d1, swap2(d1)))


# ---------------------------------------------------------------------------
# weak invertible unit 2-cocycles


def check_weak_cocycle(H: QuantumGroupoid, wc: WeakCocycle) -> VerificationReport:
    from .algebra import source_subalgebra, target_subalgebra

    rep = VerificationReport("cocycle")
    n = H.dim
    _require_in_range(n, "F", wc.f, wc.finv)
    f, finv = wc.f, wc.finv
    d1 = H.delta_one
    d1c = swap2(d1)
    sq, cube = (n, 2), (n, 3)

    comparison(rep, "f-sandwich", [((), _mul2(H, d1, f, d1c), f)],
               "Delta(1) F Delta_cop(1) vs F", sq)
    comparison(rep, "finv-sandwich", [((), _mul2(H, d1c, finv, d1), finv)],
               "Delta_cop(1) F^-1 Delta(1) vs F^-1", sq)
    comparison(rep, "f-invertibility-left", [((), _mul2(H, f, finv), d1)],
               "F F^-1 vs Delta(1)", sq)
    comparison(rep, "f-invertibility-right", [((), _mul2(H, finv, f), d1c)],
               "F^-1 F vs Delta_cop(1)", sq)

    df_l, df_r, dfi_l, dfi_r = (
        sparse_coproduct_leg(x, leg, H.comul_cols) for x in (f, finv) for leg in (0, 1)
    )
    comparison(rep, "cocycle-equation",
               [((), sparse_mul(H, df_l, f, 3, (0, 1)), sparse_mul(H, df_r, f, 3, (1, 2)))],
               "((Delta (x) id)F)F12 vs ((id (x) Delta)F)F23", cube)

    ht = target_subalgebra(H)
    hs = source_subalgebra(H)

    def sinv(y):
        return apply_to_leg(H.antipode_inv, y, 0)

    _subalgebra_checks(rep, H, (
        ("source-second-leg", hs,
         lambda y: _left(H, y, 1, f), lambda y: _right(H, f, y, 0),
         "(1 (x) y)F vs F(y (x) 1)"),
        ("target-first-leg", ht,
         lambda z: _left(H, z, 0, f), lambda z: _right(H, f, z, 1),
         "(z (x) 1)F vs F(1 (x) z)"),
        ("finv-source", hs,
         lambda y: _right(H, finv, y, 1), lambda y: _left(H, y, 0, finv),
         "F^-1(1 (x) y) vs (y (x) 1)F^-1"),
        ("finv-target", ht,
         lambda z: _right(H, finv, z, 0), lambda z: _left(H, z, 1, finv),
         "F^-1(z (x) 1) vs (1 (x) z)F^-1"),
        ("finv-source-antipode", hs,
         lambda y: _left(H, y, 1, finv), lambda y: _left(H, sinv(y), 0, finv),
         "(1 (x) y)F^-1 vs (S^-1(y) (x) 1)F^-1"),
        ("f-target-antipode", ht,
         lambda z: _right(H, f, z, 0), lambda z: _right(H, f, sinv(z), 1),
         "F(z (x) 1) vs F(1 (x) S^-1(z))"),
    ))

    # equivalent forms of the cocycle equation, checked rather than assumed
    def on(x, slots):
        return sparse_embed(x, 3, slots, H.unit_sparse)

    comparison(rep, "cocycle-form-mixed-left",
               [((), sparse_mul(H, on(f, (1, 2)), finv, 3, (0, 1)),
                 sparse_mul(H, dfi_r, df_l, 3))],
               "F23 F^-1_12 vs ((id (x) Delta)F^-1)((Delta (x) id)F)", cube)
    comparison(rep, "cocycle-form-mixed-right",
               [((), sparse_mul(H, on(f, (0, 1)), finv, 3, (1, 2)),
                 sparse_mul(H, dfi_l, df_r, 3))],
               "F12 F^-1_23 vs ((Delta (x) id)F^-1)((id (x) Delta)F)", cube)
    comparison(rep, "cocycle-form-inverse",
               [((), sparse_mul(H, on(finv, (1, 2)), dfi_r, 3),
                 sparse_mul(H, on(finv, (0, 1)), dfi_l, 3))],
               "F^-1_23 (id (x) Delta)F^-1 vs F^-1_12 (Delta (x) id)F^-1", cube)
    return rep


def twist_elements(H: QuantumGroupoid, wc: WeakCocycle) -> TwistElements:
    """v = F^-(1) S(F^-(2)) and v^-1 = S(F^(1)) F^(2).

    The coproduct law Delta(v^-1) = ((S (x) S)(F21^-1))(v^-1 (x) v^-1)F^-1
    is verified exactly; a failure means the cocycle input is inconsistent.
    """
    v, v_inv, product = conjugator_elements(H, wc)
    sides = conjugator_coproduct_sides(H, wc, v_inv)
    if sides[0] != sides[1]:
        raise InconsistentStructure(
            "coproduct law for the twist conjugator fails; invalid cocycle"
        )
    return TwistElements(v, v_inv, product, sides)


def conjugator_elements(H: QuantumGroupoid, wc: WeakCocycle):
    """(v, v^-1, v v^-1) without any verification; the product is
    informational only."""
    S = H.antipode
    v = _mu(H, apply_to_leg(S, wc.finv, 1))
    v_inv = _mu(H, apply_to_leg(S, wc.f, 0))
    return v, v_inv, H.left_mult(v).apply(v_inv)


def conjugator_coproduct_sides(H, wc, v_inv=None):
    """Both sides of Delta(v^-1) = ((S (x) S)(F21^-1))(v^-1 (x) v^-1)F^-1."""
    if v_inv is None:
        v_inv = conjugator_elements(H, wc)[1]
    lhs = sparse_coproduct_leg({(i,): c for i, c in enumerate(v_inv) if c}, 0, H.comul_cols)
    S = H.antipode
    ss_f21inv = apply_to_leg(S, apply_to_leg(S, swap2(wc.finv), 0), 1)
    return lhs, _mul2(H, ss_f21inv, _outer2(v_inv, v_inv), wc.finv)


# ---------------------------------------------------------------------------
# inverse solving (inverses may be supplied or solved)


def _solve_sandwiched_inverse(H, x2, left_target, right_target, left_sand, right_sand):
    """Find Y in the sandwich left_sand (H (x) H) right_sand with
    x2 Y = left_target and Y x2 = right_target, all sparse 2-tensors."""
    n = H.dim
    nn = n * n
    blocks = ([], [], [])  # (row, column, entry) of the images of each basis tensor
    for j in range(nn):
        e = {divmod(j, n): Q1}
        images = (_mul2(H, x2, e), _mul2(H, e, x2), _mul2(H, left_sand, e, right_sand))
        for block, image in zip(blocks, images):
            block.extend((a * n + b, j, c) for (a, b), c in image.items())
    lmul, rmul, sand = (Matrix.from_entries(nn, nn, block) for block in blocks)
    rhs = dense_of_sparse(left_target, n, 2) + dense_of_sparse(right_target, n, 2) + (Q0,) * nn
    system = Matrix.vstack([lmul, rmul, sand - Matrix.identity(nn)], nn)
    try:
        sol = system.solve(rhs, unique=True)
    except NonUniqueSolution as exc:
        raise InconsistentStructure(
            "inverse is not unique inside the sandwich subspace"
        ) from exc
    if sol is None:
        raise InconsistentStructure("no inverse exists in the sandwich subspace")
    return {divmod(j, n): c for j, c in enumerate(sol) if c}


def solve_qt_inverse(H: QuantumGroupoid, r) -> QTStructure:
    """Solve for R^-1 in Delta(1)(H (x) H)Delta_cop(1)."""
    d1 = H.delta_one
    r = _element2(r)
    return QTStructure(r, _solve_sandwiched_inverse(H, r, swap2(d1), d1, d1, swap2(d1)))


def solve_cocycle_inverse(H: QuantumGroupoid, f) -> WeakCocycle:
    """Solve for F^-1 in Delta_cop(1)(H (x) H)Delta(1)."""
    d1 = H.delta_one
    f = _element2(f)
    return WeakCocycle(f, _solve_sandwiched_inverse(H, f, d1, swap2(d1), swap2(d1), d1))
