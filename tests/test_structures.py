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
from weakhopf.errors import DimensionMismatch, NotCocommutative
from weakhopf.linalg import Q0, Q1


def test_qt_checker_passes_on_fixtures(corpus):
    for fx in corpus:
        assert check_quasitriangular(fx.algebra, fx.qt).passed, fx.name


def test_qt_broken_r_fails(diag2):
    H = diag2.algebra
    bad = QTStructure({(0, 1): 1}, {(1, 0): 1})
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
    assert canonical_r(N).r == {(0, 0): 1, (1, 1): 1}
    D = kd4.algebra
    assert canonical_r(D).r == {(0, 0): 1}
    P = pair2.algebra
    names = P.basis_names
    i11 = names.index("e11")
    i22 = names.index("e22")
    assert canonical_r(P).r == {(i11, i11): 1, (i22, i22): 1}


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
    f = dict(kd4.cocycle.f)
    f[0, 0] = f.get((0, 0), 0) + 1
    rep = check_weak_cocycle(H, WeakCocycle(f, kd4.cocycle.finv))
    assert not rep.passed


@pytest.mark.parametrize("leg", [0, 1])
def test_an_index_out_of_range_is_refused(kd4, leg):
    H, qt, wc = kd4.algebra, kd4.qt, kd4.cocycle
    beyond = ((H.dim, 0), (0, H.dim))[leg]
    bad = {beyond: Fraction(1, 2)}
    for check, structure, what in (
        (check_quasitriangular, QTStructure({**qt.r, **bad}, qt.rinv), "R"),
        (check_quasitriangular, QTStructure(qt.r, {**qt.rinv, **bad}), "R"),
        (check_weak_cocycle, WeakCocycle({**wc.f, **bad}, wc.finv), "F"),
        (check_weak_cocycle, WeakCocycle(wc.f, {**wc.finv, **bad}), "F"),
    ):
        with pytest.raises(DimensionMismatch) as err:
            check(H, structure)
        assert str(err.value) == "%s has an index out of range at %r" % (what, beyond)


def test_zero_entries_are_dropped(corpus):
    # a structure given with explicit zeros, as ints or Fractions, is the
    # structure without them
    for fx in corpus:
        qt, wc = fx.qt, fx.cocycle
        zeros = {(a, b): (0, Q0)[(a + b) % 2] for a in range(fx.algebra.dim) for b in range(2)}
        assert QTStructure({**zeros, **qt.r}, {**zeros, **qt.rinv}) == qt, fx.name
        assert WeakCocycle({**zeros, **wc.f}, {**zeros, **wc.finv}) == wc, fx.name


def test_membership_sandwiches(corpus):
    for fx in corpus:
        H = fx.algebra
        r, f, d1 = (dense.dense2(H, x2) for x2 in (fx.qt.r, fx.cocycle.f, H.delta_one))
        d1c = dense.swap2(H, d1)
        assert dense.mul2(H, dense.mul2(H, d1c, r), d1) == r
        assert dense.mul2(H, dense.mul2(H, d1, f), d1c) == f


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
