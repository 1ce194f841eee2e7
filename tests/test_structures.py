from fractions import Fraction

import pytest

import dense_oracle as dense

from weakhopf import (
    QTStructure,
    WeakCocycle,
    canonical_r,
    check_quasitriangular,
    check_weak_cocycle,
    derived_r_identities,
    drinfeld_element,
    drinfeld_identities,
    solve_cocycle_inverse,
    solve_qt_inverse,
    twist_elements,
)
from weakhopf.errors import NotCocommutative
from weakhopf.linalg import Q0, Q1


def elem2(H, pairs):
    out = [Q0] * (H.dim * H.dim)
    for (i, j), c in pairs.items():
        out[i * H.dim + j] = Fraction(c)
    return tuple(out)


def test_qt_checker_passes_on_fixtures(corpus):
    for fx in corpus:
        assert check_quasitriangular(fx.algebra, fx.qt).passed, fx.name


def test_qt_broken_r_fails(diag2):
    H = diag2.algebra
    bad = QTStructure(elem2(H, {(0, 1): 1}), elem2(H, {(1, 0): 1}))
    rep = check_quasitriangular(H, bad)
    assert not rep.passed
    assert any(c.witness is not None for c in rep.failed_checks())


def test_derived_identities_full_list(corpus):
    for fx in corpus:
        rep = derived_r_identities(fx.algebra, fx.qt)
        assert rep.passed, (fx.name, [c.name for c in rep.failed_checks()])
        assert len(rep.checks) == 13


def test_drinfeld_element_values(diag2, kd4):
    d = drinfeld_element(diag2.algebra, diag2.qt)
    assert d.u == diag2.algebra.unit
    d = drinfeld_element(kd4.algebra, kd4.qt)
    assert d.u == kd4.algebra.unit
    assert d.u_inv == kd4.algebra.unit


def test_drinfeld_identities_all(corpus):
    for fx in corpus:
        assert drinfeld_identities(fx.algebra, fx.qt).passed, fx.name


def test_canonical_r_values(diag2, kd4, pair2):
    N = diag2.algebra
    assert canonical_r(N).r == elem2(N, {(0, 0): 1, (1, 1): 1})
    D = kd4.algebra
    assert canonical_r(D).r == elem2(D, {(0, 0): 1})
    P = pair2.algebra
    names = P.basis_names
    i11 = names.index("e11")
    i22 = names.index("e22")
    assert canonical_r(P).r == elem2(P, {(i11, i11): 1, (i22, i22): 1})


def test_canonical_r_needs_cocommutativity(pair2):
    # build a non-cocommutative coproduct by corrupting the pair groupoid
    from weakhopf.algebra import QuantumGroupoid

    P = pair2.algebra
    comul = [
        [[P.comul[i][j][k] for k in range(P.dim)] for j in range(P.dim)]
        for i in range(P.dim)
    ]
    comul[1][0][1] = Q1
    comul[1][1][1] = Q0
    base = dense.bialgebra(P.basis_names, P.mul, P.unit, comul, P.counit)
    bad = QuantumGroupoid(base, P.antipode)
    with pytest.raises(NotCocommutative):
        canonical_r(bad)


def test_cocycle_checker_passes_on_fixtures(corpus):
    for fx in corpus:
        rep = check_weak_cocycle(fx.algebra, fx.cocycle)
        assert rep.passed, (fx.name, [c.name for c in rep.failed_checks()])


def test_cocycle_has_equivalent_form_checks(diag2):
    rep = check_weak_cocycle(diag2.algebra, diag2.cocycle)
    names = [c.name for c in rep.checks]
    assert "cocycle-form-mixed-left" in names
    assert "cocycle-form-mixed-right" in names
    assert "cocycle-form-inverse" in names


def test_cocycle_broken_fails(kd4):
    H = kd4.algebra
    f = list(kd4.cocycle.f)
    f[0] += 1
    rep = check_weak_cocycle(H, WeakCocycle(tuple(f), kd4.cocycle.finv))
    assert not rep.passed


def test_membership_sandwiches(corpus):
    for fx in corpus:
        H, qt, wc = fx.algebra, fx.qt, fx.cocycle
        assert dense.mul2(H, dense.mul2(H, H.delta_cop_one, qt.r), H.delta_one) == qt.r
        assert dense.mul2(H, dense.mul2(H, H.delta_one, wc.f), H.delta_cop_one) == wc.f


def test_twist_elements_values(diag2, kd4, corpus):
    te = twist_elements(diag2.algebra, diag2.cocycle)
    assert te.v == diag2.algebra.unit
    assert te.v_inv == diag2.algebra.unit
    from weakhopf.zoo import trivial_cocycle

    tk = twist_elements(kd4.algebra, trivial_cocycle(kd4.algebra))
    assert tk.v == kd4.algebra.unit and tk.v_inv == kd4.algebra.unit
    # the product v v^-1 is recorded, not asserted; on this corpus it is 1
    for fx in corpus:
        te = twist_elements(fx.algebra, fx.cocycle)
        assert te.product == fx.algebra.unit


def test_solved_inverses_match_stored(corpus):
    for fx in corpus:
        H = fx.algebra
        assert solve_qt_inverse(H, fx.qt.r).rinv == fx.qt.rinv, fx.name
        assert solve_cocycle_inverse(H, fx.cocycle.f).finv == fx.cocycle.finv, fx.name
