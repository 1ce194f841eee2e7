import copy
import importlib
import math
from fractions import Fraction as Q

import pytest

from dense_oracle import basis_vector, vectors
from weakhopf import (
    BraidContext,
    QGMorphism,
    canonical_r,
    centralizer,
    check_morphism,
    identity_morphism,
    transmute,
    verify_braided_hopf,
)
from weakhopf.errors import ClosureViolation
from weakhopf.linalg import Matrix, Q0, Q1, _restrict
from weakhopf.transmute import _present, ambient_action
from weakhopf.zoo import dihedral_group_algebra


def test_centralizer_examples(diag2, kd4, pair2):
    assert centralizer(diag2.algebra).dim == 2
    assert centralizer(kd4.algebra).dim == 8
    c = centralizer(pair2.algebra)
    names = pair2.algebra.basis_names
    assert c.dim == 2
    assert c.coordinates(basis_vector(pair2.algebra, names.index("e11"))) is not None
    assert c.coordinates(basis_vector(pair2.algebra, names.index("e22"))) is not None
    assert c.coordinates(basis_vector(pair2.algebra, names.index("e12"))) is None


def test_centralizer_contains_unit_and_target(corpus):
    from weakhopf import target_subalgebra

    for fx in corpus:
        c = centralizer(fx.algebra)
        assert c.coordinates(fx.algebra.unit) is not None
        for z in vectors(target_subalgebra(fx.algebra)):
            assert c.coordinates(z) is not None


def test_identity_morphisms_pass(diag2, kd4):
    assert check_morphism(identity_morphism(diag2.algebra)).passed
    assert check_morphism(identity_morphism(kd4.algebra)).passed


def test_swap_automorphism_of_diag2(diag2):
    H = diag2.algebra
    swap = QGMorphism(H, H, Matrix([[0, 1], [1, 0]]))
    assert check_morphism(swap).passed


def test_broken_morphism_fails(diag2):
    H = diag2.algebra
    bad = QGMorphism(H, H, Matrix([[1, 1], [0, 1]]))
    assert not check_morphism(bad).passed


def test_transmuted_diag2_matches_reported_structure(diag2):
    # coproduct e_i -> e_i (x) e_i, counit e_i -> e_i, antipode identity
    H = diag2.algebra
    p = transmute(H, diag2.qt)
    assert vectors(p.carrier) == (
        (Q1, Q0),
        (Q0, Q1),
    )
    for i in range(2):
        col = p.comul.column(i)
        expect = [Q0] * 4
        expect[i * 2 + i] = Q1
        assert col == tuple(expect)
        assert p.counit.column(i) == basis_vector(H, i)
    assert p.antipode.is_identity()
    assert p.mul == H.mul_map
    assert p.unit.is_identity()


def test_trivial_r_degenerates_to_the_algebra_itself(kd4):
    # R = 1 (x) 1 collapses every deformed formula to the undeformed one
    H = kd4.algebra
    p = transmute(H, kd4.qt)
    assert vectors(p.carrier) == tuple(
        basis_vector(H, i) for i in range(H.dim)
    )
    assert p.mul == H.mul_map
    assert p.comul == H.comul_map
    assert p.antipode == H.antipode
    # H_t is spanned by 1; the unit map is the inclusion of 1's coordinates
    assert p.ht.dim == 1
    assert p.unit.column(0) == H.unit
    assert p.counit == Matrix([list(H.counit)])


def test_transmuted_pair_groupoid(pair2):
    H = pair2.algebra
    p = transmute(H, pair2.qt)
    assert p.carrier.dim == 2
    for i in range(2):
        col = p.comul.column(i)
        expect = [Q0] * 4
        expect[i * 2 + i] = Q1
        assert col == tuple(expect)


def test_counit_of_unit_is_identity(corpus):
    for fx in corpus:
        p = transmute(fx.algebra, fx.qt)
        assert (p.counit * p.unit).is_identity()


def test_verify_braided_hopf_on_corpus(corpus):
    for fx in corpus:
        p = transmute(fx.algebra, fx.qt)
        ctx = BraidContext.psi(fx.algebra, fx.qt)
        rep = verify_braided_hopf(p, ctx)
        assert rep.passed, (fx.name, [c.name for c in rep.failed_checks()])


def test_transmute_through_swap_morphism(diag2):
    H = diag2.algebra
    swap = QGMorphism(H, H, Matrix([[0, 1], [1, 0]]))
    p = transmute(H, diag2.qt, H, swap)
    ctx = BraidContext.psi(H, diag2.qt)
    assert verify_braided_hopf(p, ctx).passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pipeline_on_pair_groupoids(k):
    from weakhopf.zoo import GroupoidSpec, groupoid_algebra

    H = groupoid_algebra(GroupoidSpec.pair_groupoid(k))
    qt = canonical_r(H)
    p = transmute(H, qt)
    assert p.carrier.dim == k  # the diagonal arrows
    rep = verify_braided_hopf(p, BraidContext.psi(H, qt))
    assert rep.passed, [c.name for c in rep.failed_checks()]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pipeline_on_identity_groupoids(k):
    from weakhopf.zoo import GroupoidSpec, groupoid_algebra

    H = groupoid_algebra(GroupoidSpec.identity_groupoid(k))
    qt = canonical_r(H)
    p = transmute(H, qt)
    assert p.carrier.dim == k
    assert verify_braided_hopf(p, BraidContext.psi(H, qt)).passed


def test_restrict_to_the_square_of_a_nonstandard_basis():
    basis = Matrix([(1, 0, 1), (0, 1, 1)]).transpose().column_space()
    b0, b1 = vectors(basis)

    def outer(u, v):
        return [a * b for a in u for b in v]

    def fail(j, v):
        return ClosureViolation("outside", witness=(j, v))

    v2 = tuple(2 * x - y for x, y in zip(outer(b0, b1), outer(b1, b1)))
    inside = Matrix([v2]).transpose()
    assert _restrict(inside, basis.square(), fail) == Matrix([(0, 2, 0, -1)]).transpose()
    stray = (v2[0] + 1,) + v2[1:]
    with pytest.raises(ClosureViolation) as err:
        _restrict(Matrix([v2, stray, stray]).transpose(), basis.square(), fail)
    assert err.value.witness == (1, stray)


def test_cross_algebra_transmutation(diag2, pair2):
    # the diagonal algebra maps into the pair groupoid by sending each
    # idempotent to the matching object identity; transmuting through that
    # morphism puts the braided structure on the groupoid's diagonal
    H = diag2.algebra
    L = pair2.algebra
    names = L.basis_names
    cols = [
        basis_vector(L, names.index("e11")),
        basis_vector(L, names.index("e22")),
    ]
    f = QGMorphism(H, L, Matrix(cols, len(cols), L.dim).transpose())
    assert check_morphism(f).passed
    p = transmute(H, diag2.qt, L, f)
    assert p.carrier.dim == 2
    rep = verify_braided_hopf(p, BraidContext.psi(H, diag2.qt))
    assert rep.passed, [c.name for c in rep.failed_checks()]


def test_present_reports_the_column_that_escapes(pair2):
    # pair2's carrier is span(e11, e22); a product rule that sends
    # e11 (x) e11 to e11 + e12 leaves it at the carrier pair (0, 0)
    H = pair2.algebra
    f = identity_morphism(H)
    stray = Matrix.from_entries(4, 16, [(1, 0, Q1)])
    with pytest.raises(ClosureViolation, match="^product escaped the carrier$") as err:
        _present(f, ambient_action(f), H.mul_map + stray, H.comul_map, H.antipode)
    w = err.value.witness
    assert (w.indices, w.lhs, w.rhs, w.detail) == ((0, 0), (Q1, Q1, Q0, Q0), (), "product")


# pair2's carrier is span(e11, e22), carrier basis 0 and 1; each case below
# sends one of them, or one pair of them, outside its codomain


def _escape(present, message, indices, lhs, detail):
    with pytest.raises(ClosureViolation) as err:
        present()
    w = err.value.witness
    assert str(err.value) == message
    assert (w.indices, w.lhs, w.rhs, w.detail) == (indices, tuple(map(Q, lhs)), (), detail)


def test_present_reports_the_first_of_two_product_columns_that_escape(pair2):
    # e11 (x) e22 -> e12 at carrier pair (0, 1), e22 (x) e22 -> e22 + e21 at (1, 1)
    H = pair2.algebra
    f = identity_morphism(H)
    stray = Matrix.from_entries(4, 16, [(1, 3, Q1), (2, 15, Q1)])
    _escape(lambda: _present(f, ambient_action(f), H.mul_map + stray, H.comul_map, H.antipode),
            "product escaped the carrier", (0, 1), (0, 1, 0, 0), "product")


def test_present_reports_the_module_action_that_escapes(pair2):
    # e21 . e22 gains e12, at acting basis 2 and carrier basis 1
    H = pair2.algebra
    f = identity_morphism(H)
    ad = ambient_action(f)
    ad[2] = ad[2] + Matrix.from_entries(4, 4, [(1, 3, Q1)])
    _escape(lambda: _present(f, ad, H.mul_map, H.comul_map, H.antipode),
            "module action escaped the carrier", (2, 1), (0, 1, 0, 0), "module action")


def test_present_reports_the_unit_image_that_escapes(pair2):
    # f(e22) = e22 + e21 on H_t = span(e11, e22)
    H = pair2.algebra
    f = QGMorphism(H, H, Matrix.identity(4) + Matrix.from_entries(4, 4, [(2, 3, Q1)]))
    ad = ambient_action(identity_morphism(H))
    _escape(lambda: _present(f, ad, H.mul_map, H.comul_map, H.antipode),
            "unit image escaped the carrier", (1,), (0, 0, 1, 1), "unit image")


def test_present_reports_the_coproduct_column_that_escapes(pair2):
    # Delta(e22) gains e21 (x) e12
    H = pair2.algebra
    f = identity_morphism(H)
    stray = Matrix.from_entries(16, 4, [(9, 3, Q1)])
    lhs = [0] * 16
    lhs[9] = lhs[15] = 1
    _escape(lambda: _present(f, ambient_action(f), H.mul_map, H.comul_map + stray, H.antipode),
            "coproduct escaped the carrier tensor square", (1,), lhs, "coproduct")


def test_present_reports_the_counit_column_that_escapes(pair2, monkeypatch):
    # with H_t cut down to span(e11), eps(e22) = e22 falls outside it
    H = pair2.algebra
    f = identity_morphism(H)
    monkeypatch.setattr(importlib.import_module("weakhopf.transmute"), "target_subalgebra",
                        lambda H: Matrix([(1, 0, 0, 0)]).transpose().column_space())
    _escape(lambda: _present(f, ambient_action(f), H.mul_map, H.comul_map, H.antipode),
            "counit escaped the target subalgebra", (1,), (0, 0, 0, 1), "counit")


def test_present_reports_the_antipode_column_that_escapes(pair2):
    # S(e22) = e22 + e21
    H = pair2.algebra
    f = identity_morphism(H)
    stray = Matrix.from_entries(4, 4, [(2, 3, Q1)])
    _escape(lambda: _present(f, ambient_action(f), H.mul_map, H.comul_map, H.antipode + stray),
            "antipode escaped the carrier", (1,), (0, 0, 1, 1), "antipode")


def _dihedral_automorphisms(k):
    """(sigma, basis matrix) of each automorphism r -> r^a, s -> r^b s of the
    dihedral group of order 2k (gcd(a, k) = 1); basis i < k is r^i and basis
    k + i is r^i s, and sigma maps basis indices."""
    for a in range(1, k):
        if math.gcd(a, k) != 1:
            continue
        for b in range(k):
            sigma = [a * i % k for i in range(k)] + [k + (a * i + b) % k for i in range(k)]
            yield sigma, Matrix.from_entries(2 * k, 2 * k, ((sigma[h], h, Q1) for h in range(2 * k)))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_dihedral_automorphisms_induce_the_identity_presentation(k):
    # f(e_h) = e_sigma(h) fixes R = Delta_cop(1) Delta(1) = 1 (x) 1, so the
    # f-presentation keeps the carrier maps of the identity presentation, and
    # h acts as sigma(h) acts there: f(h_1) l f(S(h_2)) = Ad_sigma(h)(l)
    H = dihedral_group_algebra(k)
    qt = canonical_r(H)
    ident = transmute(H, qt)
    found = 0
    for sigma, mat in _dihedral_automorphisms(k):
        f = QGMorphism(H, H, mat)
        assert check_morphism(f).passed, sigma
        p = transmute(H, qt, H, f)
        assert verify_braided_hopf(p, BraidContext.psi(H, qt)).passed, sigma
        assert (p.carrier, p.mul, p.comul, p.unit, p.counit, p.antipode) == (
            ident.carrier, ident.mul, ident.comul, ident.unit, ident.counit, ident.antipode)
        assert all(p.action.mats[h] == ident.action.mats[sigma[h]] for h in range(H.dim))
        found += 1
    assert found == k * sum(1 for a in range(1, k) if math.gcd(a, k) == 1)


@pytest.mark.parametrize("name, calls", [("kd4", 9), ("kd4_diag2", 13)])
def test_transmute_builds_each_multiplier_once(name, calls, monkeypatch, request):
    # L_f(e_a) and R_fS(e_b) are built once per morphism and read by the
    # action, the R sums and the counit; the centralizer adds one of each
    # per basis element of H_s.  The identity morphism is kept per algebra
    # with its multipliers, and a copy of the algebra leaves it behind
    from weakhopf.algebra import WeakBialgebra, source_subalgebra

    H = copy.copy(request.getfixturevalue(name).algebra)
    counts = {"left_mult": 0, "right_mult": 0}
    for method in counts:
        real = getattr(WeakBialgebra, method)

        def counting(self, x, method=method, real=real):
            counts[method] += 1
            return real(self, x)

        monkeypatch.setattr(WeakBialgebra, method, counting)
    transmute(H, canonical_r(H))
    assert H.dim + source_subalgebra(H).dim == calls
    assert counts == {"left_mult": calls, "right_mult": calls}
