"""Quasitriangular structures and weak invertible unit 2-cocycles.

Both live in H (x) H as dim^2 coefficient vectors.  The checkers verify
the defining conditions plus the derived identity suites; the construction
helpers (Drinfeld element, canonical structure on a cocommutative algebra,
twist elements) validate the identities they rely on instead of assuming
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .algebra import (
    QuantumGroupoid,
    dense_of_sparse,
    sparse_coproduct_leg,
    sparse_embed,
    sparse_mul,
    sparse_of_dense,
)
from .errors import (
    DimensionMismatch,
    InconsistentStructure,
    NonUniqueSolution,
    NotCocommutative,
    UNotInvertible,
)
from .linalg import Matrix, Q0, Q1, lincomb, outer, vec
from .report import VerificationReport, Witness, comparison


@dataclass(frozen=True)
class QTStructure:
    r: Tuple
    rinv: Tuple

    def __post_init__(self):
        object.__setattr__(self, "r", vec(self.r))
        object.__setattr__(self, "rinv", vec(self.rinv))
        if len(self.r) != len(self.rinv):
            raise DimensionMismatch("R and its inverse differ in length")


@dataclass(frozen=True)
class WeakCocycle:
    f: Tuple
    finv: Tuple

    def __post_init__(self):
        object.__setattr__(self, "f", vec(self.f))
        object.__setattr__(self, "finv", vec(self.finv))
        if len(self.f) != len(self.finv):
            raise DimensionMismatch("F and its inverse differ in length")


@dataclass(frozen=True)
class DrinfeldElement:
    u: Tuple
    u_inv: Tuple


@dataclass(frozen=True)
class TwistElements:
    """Conjugator v and its named inverse, with v * v^{-1} recorded.

    The product is recorded rather than asserted to equal 1: nothing
    downstream uses invertibility of v directly.
    """

    v: Tuple
    v_inv: Tuple
    product: Tuple


def swap2(H, x2) -> tuple:
    n = H.dim
    out = [Q0] * (n * n)
    for (a, b), c in sparse_of_dense(x2, n, 2).items():
        out[b * n + a] = c
    return tuple(out)


def apply_to_leg(H, mat: Matrix, x2, leg) -> tuple:
    """(mat (x) id) or (id (x) mat) applied to a dense 2-tensor."""
    n = H.dim
    out = [Q0] * (n * n)
    for flat, c in enumerate(x2):
        if not c:
            continue
        a, b = divmod(flat, n)
        if leg == 0:
            for p, cp in enumerate(mat.column(a)):
                if cp:
                    out[p * n + b] += c * cp
        else:
            for p, cp in enumerate(mat.column(b)):
                if cp:
                    out[a * n + p] += c * cp
    return tuple(out)


# ---------------------------------------------------------------------------
# quasitriangular checks


def check_quasitriangular(H: QuantumGroupoid, qt: QTStructure) -> VerificationReport:
    rep = VerificationReport("quasitriangular")
    n = H.dim
    if len(qt.r) != n * n:
        raise DimensionMismatch("R has wrong length for this algebra")
    r, rinv = qt.r, qt.rinv
    d1 = H.delta_one
    d1c = H.delta_cop_one

    sandwich = H.mul2(H.mul2(d1c, r), d1)
    comparison(rep, "r-sandwich", [((), sandwich, r)],
               "Delta_cop(1) R Delta(1) vs R")
    sandwich = H.mul2(H.mul2(d1, rinv), d1c)
    comparison(rep, "rinv-sandwich", [((), sandwich, rinv)],
               "Delta(1) R^-1 Delta_cop(1) vs R^-1")
    comparison(rep, "r-invertibility-left", [((), H.mul2(r, rinv), d1c)],
               "R R^-1 vs Delta_cop(1)")
    comparison(rep, "r-invertibility-right", [((), H.mul2(rinv, r), d1)],
               "R^-1 R vs Delta(1)")

    rs = sparse_of_dense(r, n, 2)
    r13 = sparse_embed(rs, 3, (0, 2), H.unit_sparse)
    r12 = sparse_embed(rs, 3, (0, 1), H.unit_sparse)
    r23 = sparse_embed(rs, 3, (1, 2), H.unit_sparse)
    lhs = sparse_coproduct_leg(rs, 1, H.comul_cols)
    rhs = sparse_mul(H, r13, r12, 3)
    comparison(
        rep,
        "coproduct-second-leg",
        [((), dense_of_sparse(lhs, n, 3), dense_of_sparse(rhs, n, 3))],
        "(id (x) Delta)R vs R13 R12",
    )
    lhs = sparse_coproduct_leg(rs, 0, H.comul_cols)
    rhs = sparse_mul(H, r13, r23, 3)
    comparison(
        rep,
        "coproduct-first-leg",
        [((), dense_of_sparse(lhs, n, 3), dense_of_sparse(rhs, n, 3))],
        "(Delta (x) id)R vs R13 R23",
    )

    def intertwiner_pairs():
        for i in range(n):
            di = H.comul_map.column(i)
            yield (i,), H.mul2(swap2(H, di), r), H.mul2(r, di)

    comparison(rep, "intertwiner", intertwiner_pairs(),
               "Delta_cop(h) R vs R Delta(h)")
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

    one = H.unit

    def ht_pairs(name, lhs_fn, rhs_fn):
        comparison(
            rep,
            name,
            (((i,), lhs_fn(z), rhs_fn(z)) for i, z in enumerate(ht.vectors)),
        )

    def hs_pairs(name, lhs_fn, rhs_fn):
        comparison(
            rep,
            name,
            (((i,), lhs_fn(y), rhs_fn(y)) for i, y in enumerate(hs.vectors)),
        )

    ht_pairs(
        "target-right-exchange",
        lambda z: H.mul2(outer(one, z), r),
        lambda z: H.mul2(r, outer(z, one)),
    )
    hs_pairs(
        "source-left-exchange",
        lambda y: H.mul2(outer(y, one), r),
        lambda y: H.mul2(r, outer(one, y)),
    )
    ht_pairs(
        "target-antipode-left",
        lambda z: H.mul2(outer(z, one), r),
        lambda z: H.mul2(outer(one, S.apply(z)), r),
    )
    hs_pairs(
        "source-antipode-right",
        lambda y: H.mul2(outer(one, y), r),
        lambda y: H.mul2(outer(S.apply(y), one), r),
    )
    ht_pairs(
        "target-antipode-inverse",
        lambda z: H.mul2(r, outer(one, z)),
        lambda z: H.mul2(r, outer(Sinv.apply(z), one)),
    )
    hs_pairs(
        "source-antipode-inverse",
        lambda y: H.mul2(r, outer(y, one)),
        lambda y: H.mul2(r, outer(one, Sinv.apply(y))),
    )

    comparison(rep, "source-marginal-first-leg",
               [((), apply_to_leg(H, H.eps_s_mat, r, 0), H.delta_one)],
               "(eps_s (x) id)R vs Delta(1)")
    comparison(rep, "source-marginal-second-leg",
               [((), apply_to_leg(H, H.eps_s_mat, r, 1),
                 apply_to_leg(H, S, H.delta_cop_one, 0))],
               "(id (x) eps_s)R vs (S (x) id)Delta_cop(1)")
    comparison(rep, "target-marginal-first-leg",
               [((), apply_to_leg(H, H.eps_t_mat, r, 0), H.delta_cop_one)],
               "(eps_t (x) id)R vs Delta_cop(1)")
    comparison(rep, "target-marginal-second-leg",
               [((), apply_to_leg(H, H.eps_t_mat, r, 1),
                 apply_to_leg(H, S, H.delta_one, 0))],
               "(id (x) eps_t)R vs (S (x) id)Delta(1)")
    comparison(rep, "antipode-first-leg",
               [((), apply_to_leg(H, S, r, 0), rinv)],
               "(S (x) id)R vs R^-1")
    comparison(rep, "antipode-inverse-second-leg",
               [((), apply_to_leg(H, Sinv, r, 1), rinv)],
               "(id (x) S^-1)R vs R^-1")
    comparison(rep, "antipode-both-legs",
               [((), apply_to_leg(H, S, apply_to_leg(H, S, r, 0), 1), r)],
               "(S (x) S)R vs R")
    return rep


def _drinfeld_raw(H, qt):
    n = H.dim
    S = H.antipode
    s2 = S * S
    rs = sparse_of_dense(qt.r, n, 2).items()
    u = lincomb(
        ((c, H.mul_elem(S.column(b), H.basis_vector(a))) for (a, b), c in rs), n
    )
    u_inv = lincomb(
        ((c, H.mul_elem(H.basis_vector(b), s2.column(a))) for (a, b), c in rs), n
    )
    return u, u_inv


def drinfeld_element(H: QuantumGroupoid, qt: QTStructure) -> DrinfeldElement:
    """u = S(R^(2)) R^(1) with inverse R^(2) S^2(R^(1)).

    Verifies invertibility, the conjugation identity S^2 = u (.) u^-1, and
    the coproduct formula for u; a failure means the input was not a valid
    quasitriangular structure.
    """
    u, u_inv = _drinfeld_raw(H, qt)
    if H.mul_elem(u, u_inv) != H.unit or H.mul_elem(u_inv, u) != H.unit:
        raise UNotInvertible("u u^-1 != 1; input is not quasitriangular")
    rep = drinfeld_identities(H, qt)
    if not rep.passed:
        raise InconsistentStructure(
            "derived identity %r fails" % rep.failed_checks()[0].name
        )
    return DrinfeldElement(u, u_inv)


def drinfeld_identities(H: QuantumGroupoid, qt: QTStructure) -> VerificationReport:
    """u invertible, S^2 = u (.) u^-1, and the coproduct formula for u."""
    rep = VerificationReport("drinfeld")
    u, u_inv = _drinfeld_raw(H, qt)
    if H.mul_elem(u, u_inv) != H.unit or H.mul_elem(u_inv, u) != H.unit:
        rep.add("u-invertible", False,
                Witness((), H.mul_elem(u, u_inv), H.unit,
                        "u u^-1 vs 1"))
        return rep
    rep.add("u-invertible", True)

    s2 = H.antipode * H.antipode
    conj = H.left_mult(u) * H.right_mult(u_inv)
    rep.add(
        "square-antipode-conjugation",
        s2 == conj,
        None
        if s2 == conj
        else Witness((), tuple(s2.data[0]), tuple(conj.data[0]),
                     "S^2 vs conjugation by u (first rows)"),
    )

    du = H.comul_of(u)
    rinv21 = swap2(H, qt.rinv)
    rhs = H.mul2(H.mul2(qt.rinv, rinv21), tuple(outer(u, u)))
    comparison(rep, "coproduct-of-u", [((), du, rhs)],
               "Delta(u) vs R^-1 R21^-1 (u (x) u)")
    return rep


def canonical_r(H: QuantumGroupoid) -> QTStructure:
    """R = Delta_cop(1) Delta(1) for a cocommutative quantum groupoid."""
    if not H.is_cocommutative:
        raise NotCocommutative("canonical structure needs a cocommutative coproduct")
    r = H.mul2(H.delta_cop_one, H.delta_one)
    rinv = H.mul2(H.delta_one, H.delta_cop_one)
    return QTStructure(r, rinv)


# ---------------------------------------------------------------------------
# weak invertible unit 2-cocycles


def check_weak_cocycle(H: QuantumGroupoid, wc: WeakCocycle) -> VerificationReport:
    from .algebra import source_subalgebra, target_subalgebra

    rep = VerificationReport("cocycle")
    n = H.dim
    if len(wc.f) != n * n:
        raise DimensionMismatch("F has wrong length for this algebra")
    f, finv = wc.f, wc.finv
    d1 = H.delta_one
    d1c = H.delta_cop_one

    comparison(rep, "f-sandwich",
               [((), H.mul2(H.mul2(d1, f), d1c), f)],
               "Delta(1) F Delta_cop(1) vs F")
    comparison(rep, "finv-sandwich",
               [((), H.mul2(H.mul2(d1c, finv), d1), finv)],
               "Delta_cop(1) F^-1 Delta(1) vs F^-1")
    comparison(rep, "f-invertibility-left", [((), H.mul2(f, finv), d1)],
               "F F^-1 vs Delta(1)")
    comparison(rep, "f-invertibility-right", [((), H.mul2(finv, f), d1c)],
               "F^-1 F vs Delta_cop(1)")

    fs = sparse_of_dense(f, n, 2)
    fis = sparse_of_dense(finv, n, 2)
    f12 = sparse_embed(fs, 3, (0, 1), H.unit_sparse)
    f23 = sparse_embed(fs, 3, (1, 2), H.unit_sparse)
    fi12 = sparse_embed(fis, 3, (0, 1), H.unit_sparse)
    fi23 = sparse_embed(fis, 3, (1, 2), H.unit_sparse)
    df_l = sparse_coproduct_leg(fs, 0, H.comul_cols)
    df_r = sparse_coproduct_leg(fs, 1, H.comul_cols)
    dfi_l = sparse_coproduct_leg(fis, 0, H.comul_cols)
    dfi_r = sparse_coproduct_leg(fis, 1, H.comul_cols)

    lhs = sparse_mul(H, df_l, f12, 3)
    rhs = sparse_mul(H, df_r, f23, 3)
    comparison(rep, "cocycle-equation",
               [((), dense_of_sparse(lhs, n, 3), dense_of_sparse(rhs, n, 3))],
               "((Delta (x) id)F)F12 vs ((id (x) Delta)F)F23")

    ht = target_subalgebra(H)
    hs = source_subalgebra(H)
    one = H.unit
    Sinv = H.antipode_inv

    comparison(rep, "source-second-leg",
               (((i,), H.mul2(outer(one, y), f), H.mul2(f, outer(y, one)))
                for i, y in enumerate(hs.vectors)),
               "(1 (x) y)F vs F(y (x) 1)")
    comparison(rep, "target-first-leg",
               (((i,), H.mul2(outer(z, one), f), H.mul2(f, outer(one, z)))
                for i, z in enumerate(ht.vectors)),
               "(z (x) 1)F vs F(1 (x) z)")
    comparison(rep, "finv-source",
               (((i,), H.mul2(finv, outer(one, y)), H.mul2(outer(y, one), finv))
                for i, y in enumerate(hs.vectors)),
               "F^-1(1 (x) y) vs (y (x) 1)F^-1")
    comparison(rep, "finv-target",
               (((i,), H.mul2(finv, outer(z, one)), H.mul2(outer(one, z), finv))
                for i, z in enumerate(ht.vectors)),
               "F^-1(z (x) 1) vs (1 (x) z)F^-1")
    comparison(rep, "finv-source-antipode",
               (((i,), H.mul2(outer(one, y), finv),
                 H.mul2(outer(Sinv.apply(y), one), finv))
                for i, y in enumerate(hs.vectors)),
               "(1 (x) y)F^-1 vs (S^-1(y) (x) 1)F^-1")
    comparison(rep, "f-target-antipode",
               (((i,), H.mul2(f, outer(z, one)),
                 H.mul2(f, outer(one, Sinv.apply(z))))
                for i, z in enumerate(ht.vectors)),
               "F(z (x) 1) vs F(1 (x) S^-1(z))")

    # equivalent forms of the cocycle equation, checked rather than assumed
    lhs = sparse_mul(H, f23, fi12, 3)
    rhs = sparse_mul(H, dfi_r, df_l, 3)
    comparison(rep, "cocycle-form-mixed-left",
               [((), dense_of_sparse(lhs, n, 3), dense_of_sparse(rhs, n, 3))],
               "F23 F^-1_12 vs ((id (x) Delta)F^-1)((Delta (x) id)F)")
    lhs = sparse_mul(H, f12, fi23, 3)
    rhs = sparse_mul(H, dfi_l, df_r, 3)
    comparison(rep, "cocycle-form-mixed-right",
               [((), dense_of_sparse(lhs, n, 3), dense_of_sparse(rhs, n, 3))],
               "F12 F^-1_23 vs ((Delta (x) id)F^-1)((id (x) Delta)F)")
    lhs = sparse_mul(H, fi23, dfi_r, 3)
    rhs = sparse_mul(H, fi12, dfi_l, 3)
    comparison(rep, "cocycle-form-inverse",
               [((), dense_of_sparse(lhs, n, 3), dense_of_sparse(rhs, n, 3))],
               "F^-1_23 (id (x) Delta)F^-1 vs F^-1_12 (Delta (x) id)F^-1")
    return rep


def twist_elements(H: QuantumGroupoid, wc: WeakCocycle) -> TwistElements:
    """v = F^-(1) S(F^-(2)) and v^-1 = S(F^(1)) F^(2).

    The coproduct law Delta(v^-1) = ((S (x) S)(F21^-1))(v^-1 (x) v^-1)F^-1
    is verified exactly; a failure means the cocycle input is inconsistent.
    """
    v, v_inv, product = conjugator_elements(H, wc)
    lhs, rhs = conjugator_coproduct_sides(H, wc, v_inv)
    if lhs != rhs:
        raise InconsistentStructure(
            "coproduct law for the twist conjugator fails; invalid cocycle"
        )
    return TwistElements(v, v_inv, product)


def conjugator_elements(H: QuantumGroupoid, wc: WeakCocycle):
    """(v, v^-1, v v^-1) without any verification; the product is
    informational only."""
    n = H.dim
    S = H.antipode
    v = lincomb(
        ((c, H.mul_elem(H.basis_vector(a), S.column(b)))
         for (a, b), c in sparse_of_dense(wc.finv, n, 2).items()),
        n,
    )
    v_inv = lincomb(
        ((c, H.mul_elem(S.column(a), H.basis_vector(b)))
         for (a, b), c in sparse_of_dense(wc.f, n, 2).items()),
        n,
    )
    return v, v_inv, H.mul_elem(v, v_inv)


def conjugator_coproduct_sides(H, wc, v_inv=None):
    """Both sides of Delta(v^-1) = ((S (x) S)(F21^-1))(v^-1 (x) v^-1)F^-1."""
    if v_inv is None:
        v_inv = conjugator_elements(H, wc)[1]
    lhs = H.comul_of(v_inv)
    ss_f21inv = apply_to_leg(
        H, H.antipode, apply_to_leg(H, H.antipode, swap2(H, wc.finv), 0), 1
    )
    rhs = H.mul2(H.mul2(ss_f21inv, tuple(outer(v_inv, v_inv))), wc.finv)
    return lhs, rhs


# ---------------------------------------------------------------------------
# inverse solving (inverses may be supplied or solved)


def _solve_sandwiched_inverse(H, x2, left_target, right_target, left_sand, right_sand):
    """Find Y in the sandwich left_sand (H (x) H) right_sand with
    x2 Y = left_target and Y x2 = right_target."""
    nn = H.dim ** 2
    lmul, rmul, sand = [], [], []  # columns: images of each basis tensor e
    for j in range(nn):
        e = tuple(Q1 if i == j else Q0 for i in range(nn))
        lmul.append(H.mul2(x2, e))
        rmul.append(H.mul2(e, x2))
        sand.append(H.mul2(H.mul2(left_sand, e), right_sand))
    rhs = list(left_target) + list(right_target) + [Q0] * nn
    system = Matrix.vstack(
        [Matrix.from_columns(lmul, nn), Matrix.from_columns(rmul, nn),
         Matrix.from_columns(sand, nn) - Matrix.identity(nn)],
        nn,
    )
    try:
        sol = system.solve(rhs, unique=True)
    except NonUniqueSolution as exc:
        raise InconsistentStructure(
            "inverse is not unique inside the sandwich subspace"
        ) from exc
    if sol is None:
        raise InconsistentStructure("no inverse exists in the sandwich subspace")
    return tuple(sol)


def solve_qt_inverse(H: QuantumGroupoid, r) -> QTStructure:
    """Solve for R^-1 in Delta(1)(H (x) H)Delta_cop(1)."""
    rinv = _solve_sandwiched_inverse(
        H, vec(r), H.delta_cop_one, H.delta_one, H.delta_one, H.delta_cop_one
    )
    return QTStructure(vec(r), rinv)


def solve_cocycle_inverse(H: QuantumGroupoid, f) -> WeakCocycle:
    """Solve for F^-1 in Delta_cop(1)(H (x) H)Delta(1)."""
    finv = _solve_sandwiched_inverse(
        H, vec(f), H.delta_one, H.delta_cop_one, H.delta_cop_one, H.delta_one
    )
    return WeakCocycle(vec(f), finv)
