import hashlib
import importlib
from fractions import Fraction

import pytest

import dense_oracle as dense

from weakhopf import (
    alpha_map,
    canonical_r,
    check_conjugator_coproduct,
    regular_module,
    tensor_action_identification,
    twist,
    verify_isomorphism,
    zoo,
)
from weakhopf.errors import CarrierMismatch, PreconditionUnmet
from weakhopf.linalg import Matrix
from weakhopf.serialization import parse, serialize_presentation, serialize_quantum_groupoid
from weakhopf.structures import QTStructure
from weakhopf.transmute import ambient_action, centralizer, identity_morphism
from weakhopf.twisting import _alpha_between
from weakhopf.zoo import trivial_cocycle


def test_twist_at_the_trivial_point_is_structural_identity(kd4):
    H = kd4.algebra
    pair = twist(H, kd4.qt, trivial_cocycle(H))
    twisted = pair.algebra
    assert twisted.mul == H.mul
    assert twisted.comul == H.comul
    assert twisted.unit == H.unit
    assert twisted.counit == H.counit
    assert twisted.antipode == H.antipode
    assert pair.qt.r == kd4.qt.r


def test_twisted_diag2_equals_original(diag2):
    # the diagonal fixture twists to itself, with the same quasitriangular
    # structure
    H = diag2.algebra
    pair = twist(H, diag2.qt, diag2.cocycle)
    assert pair.algebra.comul == H.comul
    assert pair.algebra.antipode == H.antipode
    assert pair.qt.r == diag2.qt.r
    assert pair.qt.rinv == diag2.qt.rinv


def test_twisted_kd4_is_genuinely_different(kd4):
    H = kd4.algebra
    pair = twist(H, kd4.qt, kd4.cocycle)
    assert pair.algebra.comul != H.comul
    # the twisted quasitriangular structure is F21^-1 F, which is not 1 (x) 1
    f21inv = dense.swap2(H, dense.dense2(H, kd4.cocycle.finv))
    expected = dense.mul2(H, f21inv, dense.dense2(H, kd4.cocycle.f))
    assert dense.dense2(H, pair.qt.r) == expected
    assert pair.qt.r != kd4.qt.r


def test_twisted_antipode_conjugation(corpus):
    # the twisted antipode is conjugation by v; twist() has already
    # asserted all axioms, so the checkers accept the result
    from weakhopf import check_quantum_groupoid, check_quasitriangular

    for fx in corpus:
        pair = twist(fx.algebra, fx.qt, fx.cocycle)
        assert check_quantum_groupoid(pair.algebra).passed
        assert check_quasitriangular(pair.algebra, pair.qt).passed


def test_conjugator_coproduct_on_corpus(corpus):
    for fx in corpus:
        assert check_conjugator_coproduct(fx.algebra, fx.cocycle).passed


def test_alpha_identity_on_diag2(diag2):
    alpha, alpha_inv = alpha_map(diag2.algebra, diag2.qt, diag2.cocycle)
    assert alpha.is_identity() and alpha_inv.is_identity()


def test_alpha_identity_for_trivial_cocycle(kd4):
    alpha, alpha_inv = alpha_map(
        kd4.algebra, kd4.qt, trivial_cocycle(kd4.algebra)
    )
    assert alpha.is_identity() and alpha_inv.is_identity()


def test_alpha_invertible_on_kd4(kd4):
    alpha, alpha_inv = alpha_map(kd4.algebra, kd4.qt, kd4.cocycle)
    assert (alpha * alpha_inv).is_identity()
    assert (alpha_inv * alpha).is_identity()


def test_alpha_requires_canonical_structure(kd4):
    H = kd4.algebra
    bad = QTStructure(
        {ab: 2 * c for ab, c in canonical_r(H).r.items()},
        {ab: c * Fraction(1, 2) for ab, c in canonical_r(H).rinv.items()},
    )
    with pytest.raises(PreconditionUnmet):
        alpha_map(H, bad, kd4.cocycle)


def test_verify_isomorphism_corpus(corpus):
    for fx in corpus:
        res = verify_isomorphism(fx.algebra, fx.qt, fx.cocycle)
        assert res.report.passed, (
            fx.name,
            [c.name for c in res.report.failed_checks()],
        )
        names = [c.name for c in res.report.checks]
        for expected in (
            "module-map",
            "algebra-map",
            "unit-map",
            "coalgebra-map",
            "counit-map",
            "antipode-map",
            "bijectivity",
        ):
            assert expected in names


def test_presentations_byte_identical_on_diag2(diag2):
    res = verify_isomorphism(diag2.algebra, diag2.qt, diag2.cocycle)
    left = serialize_presentation(res.quantized)
    right = serialize_presentation(res.twisted_transmuted)
    assert left == right


def test_presentations_differ_on_kd4(kd4):
    res = verify_isomorphism(kd4.algebra, kd4.qt, kd4.cocycle)
    left = serialize_presentation(res.quantized)
    right = serialize_presentation(res.twisted_transmuted)
    assert left != right


def test_carrier_equality_under_twist(corpus):
    from weakhopf import centralizer

    for fx in corpus:
        pair = twist(fx.algebra, fx.qt, fx.cocycle)
        assert centralizer(fx.algebra) == centralizer(pair.algebra)


def test_tensor_action_identification(corpus):
    for fx in corpus:
        M = regular_module(fx.algebra)
        rep = tensor_action_identification(fx.algebra, fx.cocycle, M, M)
        assert rep.passed, fx.name


def test_twist_rejects_corrupt_cocycle(kd4):
    from weakhopf.errors import WeakHopfError
    from weakhopf.structures import WeakCocycle

    f = dict(kd4.cocycle.f)
    f[0, 0] = f.get((0, 0), 0) + 1
    with pytest.raises(WeakHopfError):
        twist(kd4.algebra, kd4.qt, WeakCocycle(f, kd4.cocycle.finv))


def test_twist_failure_carries_the_check_witness(pair2):
    from weakhopf.errors import TwistAxiomFailure
    from weakhopf.structures import WeakCocycle

    f = dict(pair2.cocycle.f)
    f[0, 1] = f.get((0, 1), 0) + 1  # the twisted coproduct is no longer coassociative
    with pytest.raises(TwistAxiomFailure) as err:
        twist(pair2.algebra, pair2.qt, WeakCocycle(f, pair2.cocycle.finv))
    assert err.value.check_name == "coassociativity"
    wit = err.value.witness
    assert wit is not None and wit.indices == (0,) and wit.lhs != wit.rhs


def test_twist_takes_the_product_verdicts_of_the_algebra(kd4, monkeypatch):
    # the twisted algebra shares H's product, unit and counit, so it takes
    # H's unit law, generators, multiplication matrices and associativity
    # verdict and decides no associativity identity of its own
    algebra_mod = importlib.import_module("weakhopf.algebra")
    H = dense.rescaled(kd4.algebra, [1] * kd4.algebra.dim)  # no cached verdicts
    assert H.associativity.passed  # as checking H decides it
    decided, identities = [], []
    real_decide, real_identities = algebra_mod.decide, algebra_mod._action_identities

    def deciding(name, *args, **kwargs):
        decided.append(name)
        return real_decide(name, *args, **kwargs)

    def counting(mul_rows, mats):
        inner = real_identities(mul_rows, mats)

        def each(i):
            for t in inner(i):
                identities.append(t[0])
                yield t
        return each

    monkeypatch.setattr(algebra_mod, "decide", deciding)
    monkeypatch.setattr(algebra_mod, "_action_identities", counting)
    twisted = twist(H, kd4.qt, kd4.cocycle).algebra
    assert "associativity" not in decided and "comultiplicativity" in decided
    assert identities == []
    for name in ("unit_law", "generators", "left_mult_mats", "associativity", "mul_ints"):
        assert twisted.__dict__[name] is getattr(H, name), name
    assert twisted.comul_cols != H.comul_cols


def test_corrupted_cocycle_raises_the_same_twist_failure(pair2):
    # the check name, message and witness bytes a corrupted pair2 cocycle
    # gave before the twist took the product verdicts of H
    from weakhopf.errors import TwistAxiomFailure
    from weakhopf.structures import WeakCocycle

    f = dict(pair2.cocycle.f)
    f[0, 1] = f.get((0, 1), 0) + 1
    H = dense.rescaled(pair2.algebra, [1] * pair2.algebra.dim)
    with pytest.raises(TwistAxiomFailure) as err:
        twist(H, pair2.qt, WeakCocycle(f, pair2.cocycle.finv))
    wit = err.value.witness
    assert (err.value.check_name, wit.indices, len(wit.lhs), wit.detail) == (
        "coassociativity", (0,), 64, "")
    assert hashlib.sha256(wit.describe().encode()).hexdigest() == (
        "8b9db4af4ed061ad7eda786c4b819e04fa4eb84557ca11e641846c88bfb98f30")


def test_isomorphism_on_mixed_direct_sums(diag2, kz2, pair2):
    # weak instances with the nontrivial cocycle on the ordinary block
    from weakhopf import canonical_r as _canonical
    from weakhopf.zoo import direct_sum, direct_sum_cocycle

    for left, right in ((diag2, kz2), (pair2, kz2)):
        A, B = left.algebra, right.algebra
        H = direct_sum(A, B)
        qt = _canonical(H)
        wc = direct_sum_cocycle(H, A, B, left.cocycle, right.cocycle)
        res = verify_isomorphism(H, qt, wc)
        assert res.report.passed, [
            c.name for c in res.report.failed_checks()
        ]


def test_verify_isomorphism_builds_each_carrier_once(kd4, monkeypatch):
    # the comparison map reuses the carriers of the two presentations and
    # the adjoint action the quantizer built
    transmute_mod = importlib.import_module("weakhopf.transmute")
    twisting_mod = importlib.import_module("weakhopf.twisting")
    quantize_mod = importlib.import_module("weakhopf.quantize")
    real = transmute_mod.centralizer
    real_action = transmute_mod.ambient_action
    calls = []
    action_calls = []

    def counting(L):
        calls.append(L)
        return real(L)

    def counting_action(f):
        action_calls.append(f)
        return real_action(f)

    monkeypatch.setattr(transmute_mod, "centralizer", counting)
    monkeypatch.setattr(twisting_mod, "centralizer", counting)
    for mod in (transmute_mod, twisting_mod, quantize_mod):
        monkeypatch.setattr(mod, "ambient_action", counting_action)
    assert verify_isomorphism(kd4.algebra, kd4.qt, kd4.cocycle).report.passed
    assert len(calls) == 2
    assert len(action_calls) == 2


@pytest.mark.parametrize("name, left, right", [("kd4", 22, 25), ("kd4_diag2", 30, 35)])
def test_verify_isomorphism_builds_each_right_multiplier_once(name, left, right, monkeypatch):
    # the comparison map reads R_S(e_b) from the identity morphism the
    # quantizer built on the same algebra, rather than building all dim H of
    # them again, and builds L_v for v v^-1 once, in the twist; the algebra
    # is parsed afresh, so nothing is cached on it
    algebra_mod = importlib.import_module("weakhopf.algebra")
    counts = {"left_mult": 0, "right_mult": 0}

    def counting(kind):
        real = getattr(algebra_mod.WeakBialgebra, kind)

        def count(self, x):
            counts[kind] += 1
            return real(self, x)

        return count

    fx = zoo.fixture(name)
    H = parse(serialize_quantum_groupoid(fx.algebra))
    qt = canonical_r(H)
    for kind in counts:
        monkeypatch.setattr(algebra_mod.WeakBialgebra, kind, counting(kind))
    assert verify_isomorphism(H, qt, fx.cocycle).report.passed
    assert counts == {"left_mult": left, "right_mult": right}


def test_comparison_map_refuses_a_carrier_it_leaves(kd4):
    # kd4's carriers are all of kd4; cut one down to the span of e_0 and
    # the comparison map, or its inverse, leaves it
    H = kd4.algebra
    tw = twist(H, kd4.qt, kd4.cocycle)
    ad = ambient_action(identity_morphism(H))
    full = centralizer(H)
    line = Matrix([dense.basis_vector(H, 0)]).transpose().column_space()
    with pytest.raises(CarrierMismatch, match="^comparison map leaves the twisted carrier$"):
        _alpha_between(H, kd4.cocycle, tw, ad, full, line)
    with pytest.raises(CarrierMismatch, match="^inverse comparison map leaves the carrier$"):
        _alpha_between(H, kd4.cocycle, tw, ad, line, full)
