"""Witnesses of map identities and subspace checks on corrupted inputs.

Every failing check carries a witness.  Map identities are compared as
sparse matrices by `report.comparison`; the witness of a failure is the
first differing column j of the first unequal pair, at its indices + (j,),
with that column of both sides.  A subspace check names the first canonical
basis vector of one subspace that lies outside the other.

Each test below corrupts one input so that one newly witnessed check fails
and pins the witness's indices and both sides.  Four such checks no input
reaches, so they have no test here:

- ``antipode-invertible``: the `QuantumGroupoid` constructor inverts the
  antipode exactly and raises `AntipodeNotInvertible` when it is singular,
  so the check only ever sees an exact two-sided inverse.
- ``bijectivity``: `verify_isomorphism` builds alpha and alpha^-1 with
  `twisting._alpha_between`, which raises `InconsistentStructure` unless
  they are inverse to each other, before the check runs.
- ``projector-equal`` and ``action-equal``: `twist()` builds the coproduct
  of the twisted algebra from the very columns F^-1 Delta(e_i) F that the
  twisted tensor reads, so the two tensors can differ only through a
  cocycle with Delta(1) F != F; every such cocycle tried (seeded one-entry
  perturbations of the fixtures' F) is rejected by `twist()` first.
"""

import dataclasses
from fractions import Fraction

import pytest

import dense_oracle as dense
from weakhopf import (
    BraidContext,
    HModule,
    QTStructure,
    QuantumGroupoid,
    coherence_report,
    drinfeld_identities,
    transmute,
    unitors,
    verify_braided_hopf,
    zoo,
)
from weakhopf.errors import DimensionMismatch
from weakhopf.linalg import Matrix, Q0, Q1
from weakhopf.report import VerificationReport, Witness, comparison


def _q(*xs):
    return tuple(Fraction(x) for x in xs)


def _e(i, n):
    return tuple(Q1 if j == i else Q0 for j in range(n))


# -- comparison and the report guard


def test_comparison_witness_is_the_first_differing_column():
    rep = VerificationReport("t")
    a = Matrix([[1, 0, 2], [0, 0, 3]])
    b = Matrix([[1, 0, 2], [0, 5, 4]])
    assert not comparison(rep, "c", [((), a, a), ((7,), a, b)], "a vs b")
    w = rep["c"].witness
    assert w == Witness((7, 1), _q(0, 0), _q(0, 5), "a vs b")


def test_comparison_passes_equal_maps():
    rep = VerificationReport("t")
    a = Matrix([[1, 2], [3, 4]])
    assert comparison(rep, "c", [((), a, Matrix([[1, 2], [3, 4]]))])
    assert rep["c"].passed and rep["c"].witness is None


def test_comparison_rejects_maps_of_different_shapes():
    rep = VerificationReport("t")
    with pytest.raises(DimensionMismatch):
        comparison(rep, "c", [((), Matrix.identity(2), Matrix([[1, 0, 0], [0, 1, 0]]))])
    with pytest.raises(DimensionMismatch):
        comparison(rep, "c", [((), Matrix.identity(2), Matrix.identity(3))])
    assert rep.checks == []


def test_failing_check_without_witness_is_rejected():
    rep = VerificationReport("t")
    with pytest.raises(ValueError, match="no witness"):
        rep.add("c", False)
    rep.add("c", False, Witness((), (), (), "here"))
    rep.add("d", True)
    assert [c.passed for c in rep.checks] == [False, True]


# -- the braided Hopf verifier, on presentations with one map corrupted


@pytest.fixture(scope="module")
def diag2_presentation():
    fx = zoo.fixture("diag2")
    return transmute(fx.algebra, fx.qt), BraidContext.psi(fx.algebra, fx.qt)


def test_product_factors_through_tensor_witness(diag2_presentation):
    # diag2's carrier is spanned by orthogonal idempotents c0, c1, and the
    # tensor projector kills c0 (x) c1 (column 1); the stray product of
    # that pair survives on the right side only
    p, ctx = diag2_presentation
    stray = Matrix.from_entries(2, 4, [(0, 1, Q1)])
    rep = verify_braided_hopf(dataclasses.replace(p, mul=p.mul + stray), ctx)
    w = rep["product-factors-through-tensor"].witness
    assert (w.indices, w.lhs, w.rhs) == ((1,), _q(0, 0), _q(1, 0))


def test_coproduct_lands_in_tensor_witness(diag2_presentation):
    # Delta(c0) = c0 (x) c0 gains a c0 (x) c1 term, which the projector kills
    p, ctx = diag2_presentation
    stray = Matrix.from_entries(4, 2, [(1, 0, Q1)])
    rep = verify_braided_hopf(dataclasses.replace(p, comul=p.comul + stray), ctx)
    w = rep["coproduct-lands-in-tensor"].witness
    assert (w.indices, w.lhs, w.rhs) == ((0,), _q(1, 0, 0, 0), _q(1, 1, 0, 0))


@pytest.mark.parametrize("name, leg", [("unit-law-left", 0), ("unit-law-right", 1)])
def test_unit_law_witness_is_a_column(diag2_presentation, name, leg):
    # a doubled unit doubles mu(eta (x) id) against the unitor, column by column
    p, ctx = diag2_presentation
    doubled = Matrix.lincomb([(2, p.unit)], p.unit.rows, p.unit.cols)
    rep = verify_braided_hopf(dataclasses.replace(p, unit=doubled), ctx)
    unitor = unitors(p.action, ctx)[leg]
    w = rep[name].witness
    assert w.indices == (0,)
    assert w.rhs == unitor.column(0) != _q(0, 0)
    assert w.lhs == tuple(2 * x for x in w.rhs)


# -- the Drinfeld suite


def test_square_antipode_conjugation_witness():
    # R = 1 (x) 1 makes u = u^-1 = 1, so conjugation by u is the identity;
    # the antipode e -> e, g1 -> e + g1 of kz2's basis has S^2(g1) = 2e + g1
    H = zoo.fixture("kz2").algebra
    bad = QuantumGroupoid(H, Matrix([[1, 1], [0, 1]]))
    one = {(0, 0): 1}
    rep = drinfeld_identities(bad, QTStructure(one, one))
    assert rep["u-invertible"].passed
    w = rep["square-antipode-conjugation"].witness
    assert (w.indices, w.lhs, w.rhs) == ((1,), _q(2, 1), _q(0, 1))


# -- the coherence suite on the regular module of diag2 or kz2


def _coherence(H, qt, comul=None, antipode=None):
    if comul is not None:
        H = QuantumGroupoid(dense.bialgebra(H.basis_names, H.mul, H.unit, comul, H.counit),
                            H.antipode)
    if antipode is not None:
        H = QuantumGroupoid(H, antipode)
    M = HModule(H, H.left_mult_mats)
    return coherence_report(BraidContext.psi(H, qt), M, M, M)


def _bumped_comul(H, i, j, k, d):
    comul = [[list(row) for row in plane] for plane in H.comul]
    comul[i][j][k] += d
    return comul


@pytest.mark.parametrize("name", ["hexagon-first", "hexagon-second"])
def test_hexagon_witness(name):
    # R = 2 e1 (x) e1 + e2 (x) e2: braiding past N (x) P at once scales
    # e1 (x) e1 (x) e1 by 2, braiding past N and then P by 4
    fx = zoo.fixture("diag2")
    r = dict(fx.qt.r)
    r[0, 0] += 1
    rep = _coherence(fx.algebra, QTStructure(r, fx.qt.rinv))
    w = rep[name].witness
    assert (w.indices, w.lhs, w.rhs) == ((0,), _q(2, *[0] * 7), _q(4, *[0] * 7))


def test_bracketing_subspaces_witness():
    # Delta(e1) gains e1 (x) e2: the left bracketing of M (x) M (x) M keeps
    # e1 (x) e2 (x) e1 (its canonical basis vector 2), the right one does not
    fx = zoo.fixture("diag2")
    rep = _coherence(fx.algebra, fx.qt, comul=_bumped_comul(fx.algebra, 0, 0, 1, 1))
    w = rep["bracketing-subspaces-equal"].witness
    assert (w.indices, w.lhs, w.rhs) == ((2,), _e(2, 8), ())


def test_iterated_unit_projector_witness():
    # Delta(e1) gains -e2 (x) e2, so Delta(1) = e1 (x) e1, while
    # Delta^2(1) = e1 (x) e1 (x) e1 - e2 (x) e2 (x) e1 also spans e2 (x) e2 (x) e1
    # (index 6), which the bracketed tensors do not contain
    fx = zoo.fixture("diag2")
    rep = _coherence(fx.algebra, fx.qt, comul=_bumped_comul(fx.algebra, 0, 1, 1, -1))
    w = rep["iterated-unit-projector-subspace"].witness
    assert (w.indices, w.lhs, w.rhs) == ((1,), _e(6, 8), ())


def test_unitor_triangle_witness():
    # the antipode e -> e + g1 of kz2 has S^-1(e) = e - g1, so the right
    # unitor sends e (x) e to (e - g1) . e = e - g1 instead of e
    fx = zoo.fixture("kz2")
    rep = _coherence(fx.algebra, fx.qt, antipode=Matrix([[1, 0], [1, 1]]))
    w = rep["unitor-triangle"].witness
    assert (w.indices, w.lhs, w.rhs) == ((0,), _q(1, 0, 0, 0), _q(1, 0, -1, 0))
