"""The rules summed over the terms of a 2-tensor, against their ungrouped
dense forms in `dense_oracle`: the ambient action over Delta(h), the
transmutation's coproduct and antipode over R, the quantization's product
and coproduct over F and F^-1, and the comparison map, its equivalent form
and its inverse over F and F^-1.  The rules are read whole, on the ambient
algebra, as the constructions hand them on to `_present` and `_restrict`.

The fixtures' R and F^-1 are symmetric, or act as if they were on the
carrier, so each rule is also read for a 2-tensor that is not: kd4's
cocycle times r (x) s, which swapping its legs changes."""

import importlib
from types import SimpleNamespace

import pytest

import dense_oracle as dense
from weakhopf import QGMorphism, quantize, transmute, twist, zoo
from weakhopf.linalg import Matrix
from weakhopf.structures import QTStructure, TwistElements, WeakCocycle, conjugator_elements
from weakhopf.transmute import ambient_action, identity_morphism
from weakhopf.twisting import _alpha_between

transmute_mod = importlib.import_module("weakhopf.transmute")
quantize_mod = importlib.import_module("weakhopf.quantize")
twisting_mod = importlib.import_module("weakhopf.twisting")

FIXTURES = zoo.fixture_names()


def _diag2_into_pair2():
    """The morphism of the diagonal algebra into the pair groupoid that
    sends each idempotent to the matching object identity."""
    H, L = zoo.fixture("diag2").algebra, zoo.fixture("pair2").algebra
    names = L.basis_names
    cols = [dense.basis_vector(L, names.index(x)) for x in ("e11", "e22")]
    return QGMorphism(H, L, Matrix(cols, len(cols), L.dim).transpose())


def _skewed_kd4():
    """kd4's algebra and (r (x) s) F, F^-1 (r^-1 (x) s^-1) for its cocycle
    F: a pair of inverse 2-tensors, 16 terms each with 4 first legs, that
    no flip of the legs leaves as it is."""
    fx = zoo.fixture("kd4")
    H, names = fx.algebra, fx.algebra.basis_names
    r, s, r3 = (names.index(x) for x in ("r", "s", "r3"))
    f = dense.sparse_mul(H, {(r, s): 1}, fx.cocycle.f, 2)
    finv = dense.sparse_mul(H, fx.cocycle.finv, {(r3, s): 1}, 2)
    assert f != {(b, a): c for (a, b), c in f.items()}
    return H, WeakCocycle(f, finv)


def _presented(monkeypatch, module, build):
    """(ad, product, coproduct, antipode) as build() hands them to module's
    `_present`, which is not run."""
    seen = []
    monkeypatch.setattr(module, "_present", lambda f, *rules: seen.append(rules))
    build()
    (rules,) = seen
    return rules


def _transmutations():
    """(id, f, qt): each fixture through its identity with its R, its twist
    with the twisted R, diag2 into pair2, and kd4 with a skewed R."""
    for name in FIXTURES:
        fx = zoo.fixture(name)
        yield name, identity_morphism(fx.algebra), fx.qt
        tw = twist(fx.algebra, fx.qt, fx.cocycle)
        yield name + "-twisted", identity_morphism(tw.algebra), tw.qt
    yield "diag2-into-pair2", _diag2_into_pair2(), zoo.fixture("diag2").qt
    H, wc = _skewed_kd4()
    yield "kd4-skewed", identity_morphism(H), QTStructure(wc.f, wc.finv)


TRANSMUTATIONS = list(_transmutations())


@pytest.mark.parametrize("f, qt", [c[1:] for c in TRANSMUTATIONS],
                         ids=[c[0] for c in TRANSMUTATIONS])
def test_transmute_rules_are_the_sums_over_the_terms_of_r(monkeypatch, f, qt):
    ad, _, coproduct, antipode = _presented(
        monkeypatch, transmute_mod, lambda: transmute(f.source, qt, f.target, f))
    assert [a.data for a in ad] == [a.data for a in ambient_action(f)] == dense.ambient_action(f)
    want_coproduct, want_antipode = dense.transmute_rules(f, qt)
    assert coproduct.data == want_coproduct
    assert antipode.data == want_antipode


def _cocycles():
    """(id, H, wc): each fixture with its cocycle, and kd4 with a skewed
    one."""
    for name in FIXTURES:
        fx = zoo.fixture(name)
        yield name, fx.algebra, fx.cocycle
    yield ("kd4-skewed",) + _skewed_kd4()


COCYCLES = list(_cocycles())


@pytest.mark.parametrize("H, wc", [c[1:] for c in COCYCLES], ids=[c[0] for c in COCYCLES])
def test_quantize_rules_are_the_sums_over_the_terms_of_f(monkeypatch, H, wc):
    _, product, coproduct, _ = _presented(monkeypatch, quantize_mod, lambda: quantize(H, wc))
    want_product, want_coproduct = dense.quantize_rules(H, wc)
    assert product.data == want_product
    assert coproduct.data == want_coproduct


@pytest.mark.parametrize("H, wc", [c[1:] for c in COCYCLES], ids=[c[0] for c in COCYCLES])
def test_comparison_maps_are_the_sums_over_the_terms_of_f(monkeypatch, H, wc):
    # between carriers that are all of H, alpha, its equivalent form and
    # alpha^-1 reach _restrict as their rules; it answers the identity, so
    # that the two forms agree and alpha is a bijection whatever they are
    images = []

    def recording(image, basis, fail):
        images.append(image)
        return Matrix.identity(H.dim)

    monkeypatch.setattr(twisting_mod, "_restrict", recording)
    whole = Matrix.identity(H.dim).column_space()
    v = TwistElements(*conjugator_elements(H, wc))
    _alpha_between(H, wc, SimpleNamespace(v=v), ambient_action(identity_morphism(H)), whole, whole)
    assert [m.data for m in images] == list(dense.alpha_rules(H, wc, v))
