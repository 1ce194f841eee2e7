"""Laws decided from the coproduct's verdict, against the full scan.

Three laws follow from one verdict of a module category, "the coproduct in
use is multiplicative and its value at 1 is the unit 2-tensor"
(`BraidContext.comultiplicative`): the module laws of a truncated tensor of
two modules, `coproduct-module-morphism` of the braided-Hopf verifier and
the comultiplicativity of the twisted tables in `twist`.  Each case here is
run twice on freshly built instances, once as the package runs it and once
with the verdict held closed, which makes every law scan in full; the two
runs must give the same reports, or the same exception with the same
message and witness.  The positive instances are P3, D4 with the Klein-four
sign cocycle, D2 (+) P2 and the kd4 fixture; the negative ones break the
verdict in each of the ways it can break.
"""

from __future__ import annotations

import copy
import importlib
import dataclasses
from fractions import Fraction

import pytest

from weakhopf import zoo
from weakhopf.algebra import QuantumGroupoid, WeakBialgebra, sparse_mul
from weakhopf.errors import WeakHopfError
from weakhopf.linalg import Matrix
from weakhopf.modules import BraidContext, HModule, regular_module, truncated_tensor
from weakhopf.quantize import quantize, verify_quantization
from weakhopf.structures import WeakCocycle, canonical_r
from weakhopf.transmute import transmute, verify_braided_hopf
from weakhopf.twisting import twist, verify_isomorphism

KLEIN_BETA = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]


def _dihedral_sign(k):
    H = zoo.dihedral_group_algebra(k)
    names = H.basis_names
    gens = [names.index("s"), names.index("rs" if k == 2 else "r%ds" % (k // 2))]
    return H, canonical_r(H), zoo.bicharacter_cocycle(H, gens, KLEIN_BETA)


def _pair(k):
    H = zoo.groupoid_algebra(zoo.GroupoidSpec.pair_groupoid(k))
    return H, canonical_r(H), zoo.trivial_cocycle(H)


def _dihedral_plus_pair():
    A = zoo.dihedral_group_algebra(2)
    B = zoo.groupoid_algebra(zoo.GroupoidSpec.pair_groupoid(2))
    H = zoo.direct_sum(A, B)
    wc = zoo.direct_sum_cocycle(H, A, B, _dihedral_sign(2)[2], zoo.trivial_cocycle(B))
    return H, canonical_r(H), wc


def _kd4():
    fx = zoo.fixture("kd4")
    # a copy leaves the fixture's module category behind, so what a run
    # builds over the algebra stays with that run
    return copy.copy(fx.algebra), fx.qt, fx.cocycle


POSITIVE = {
    "P3": lambda: _pair(3),
    "D4": lambda: _dihedral_sign(4),
    "D2P2": _dihedral_plus_pair,
    "kd4": _kd4,
}


def _column_corrupted():
    """D4 whose coproduct column of r^3, not a generator, is e (x) e: the
    twisted column of r^3 is corrupted with it."""
    H, qt, wc = _dihedral_sign(4)
    k = H.basis_names.index("r3")
    assert k not in H.generators
    cols = dict(H.comul_cols)
    cols[k] = {(0, 0): Fraction(1)}
    B = WeakBialgebra(H.basis_names, H.mul_rows, H.unit, cols, H.counit)
    return QuantumGroupoid(B, H.antipode), qt, wc


def _unit_not_unit2():
    """P3 with F = Delta(1) + e11 (x) e22 and F^-1 = Delta(1) + e11 (x) e32:
    F F^-1 = Delta(1), and F^-1 Delta(1) F = Delta(1) differs from F^-1 F."""
    H, qt, _ = _pair(3)
    names = H.basis_names
    f, finv = dict(H.delta_one), dict(H.delta_one)
    f[names.index("e11"), names.index("e22")] = Fraction(1)
    finv[names.index("e11"), names.index("e32")] = Fraction(1)
    return H, qt, WeakCocycle(f, finv)


def _not_inverse():
    """D4 with F = 1 (x) 1 and F^-1 = (1 + s)/2 (x) 1, an idempotent: then
    F^-1 F is F^-1 Delta(1) F, but F F^-1 is not Delta(1), and s is not
    central, so the twisted coproduct is not multiplicative."""
    H, qt, _ = _dihedral_sign(4)
    e, s = 0, H.basis_names.index("s")
    half = Fraction(1, 2)
    return H, qt, WeakCocycle({(e, e): Fraction(1)}, {(e, e): half, (s, e): half})


NEGATIVE = {
    "column-corrupted": _column_corrupted,
    "unit-not-unit2": _unit_not_unit2,
    "not-inverse": _not_inverse,
}


def _bad_factor(M: HModule):
    """M with the action doubled at its last basis element that is neither
    a generator nor a leg of Delta(1): M's laws fail, and its tensors'
    projectors are those of M."""
    H = M.algebra
    k = max(i for i in range(H.dim)
            if i not in H.generators and all(i not in ab for ab in H.delta_one))
    mats = list(M.mats)
    mats[k] = Matrix.lincomb([(2, mats[k])], mats[k].rows, mats[k].cols)
    return HModule(M.algebra, mats, name="bad")


def _outcome(run):
    try:
        return "ok", run()
    except WeakHopfError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


# each law's runs: name -> run(H, qt, wc), whose value is compared
def _tensor_laws(ctx_of):
    def run(H, qt, wc):
        M = regular_module(H)
        return truncated_tensor(M, M, ctx_of(H, qt, wc)).module.laws.to_dict()
    return run


def _bad_factor_tensor(H, qt, wc):
    M = regular_module(H)
    return truncated_tensor(_bad_factor(M), M, BraidContext.psi(H, qt)).module.laws.to_dict()


def _transmute_suite(H, qt, wc):
    return verify_braided_hopf(transmute(H, qt), BraidContext.psi(H, qt)).to_dict()


def _quantize_suite(H, qt, wc):
    return verify_quantization(quantize(H, wc), wc).to_dict()


def _bad_carrier_suite(H, qt, wc):
    p = transmute(H, qt)
    p = dataclasses.replace(p, action=_bad_factor(p.action))
    return verify_braided_hopf(p, BraidContext.psi(H, qt)).to_dict()


def _twist_reports(H, qt, wc):
    return [rep.to_dict() for rep in twist(H, qt, wc).reports]


def _twisted_category_suite(H, qt, wc):
    """The transmutation by R, verified in the twisted category of wc."""
    return verify_braided_hopf(transmute(H, qt), BraidContext(H, wc=wc)).to_dict()


def _verify_iso(H, qt, wc):
    return verify_isomorphism(H, qt, wc).report.to_dict()


RUNS = {
    "tensor-psi": _tensor_laws(lambda H, qt, wc: BraidContext.psi(H, qt)),
    "tensor-phi": _tensor_laws(lambda H, qt, wc: BraidContext(H, wc=wc)),
    "transmute": _transmute_suite,
    "quantize": _quantize_suite,
    "twist": _twist_reports,
    "twisted-category": _twisted_category_suite,
    "verify-iso": _verify_iso,
}


def _gated_and_full(build, run, monkeypatch):
    gated = _outcome(lambda: run(*build()))
    with monkeypatch.context() as m:
        m.setattr(BraidContext, "comultiplicative", property(lambda self: False), raising=False)
        full = _outcome(lambda: run(*build()))
    return gated, full


@pytest.mark.parametrize("instance", sorted(POSITIVE))
@pytest.mark.parametrize("law", sorted(RUNS))
def test_gated_laws_equal_the_full_scan(instance, law, monkeypatch):
    gated, full = _gated_and_full(POSITIVE[instance], RUNS[law], monkeypatch)
    assert gated == full
    assert gated[0] == "ok"


@pytest.mark.parametrize("instance", sorted(NEGATIVE))
@pytest.mark.parametrize("law", sorted(RUNS))
def test_gated_laws_equal_the_full_scan_where_the_verdict_fails(instance, law, monkeypatch):
    gated, full = _gated_and_full(NEGATIVE[instance], RUNS[law], monkeypatch)
    assert gated == full


@pytest.mark.parametrize("run", [_bad_factor_tensor, _bad_carrier_suite])
@pytest.mark.parametrize("instance", ["D4", "P3"])
def test_a_factor_whose_laws_fail_fails_as_the_full_scan_does(run, instance, monkeypatch):
    gated, full = _gated_and_full(POSITIVE[instance], run, monkeypatch)
    assert gated == full
    assert gated[0] == "InconsistentStructure"
    assert gated[1].startswith("action is not multiplicative at basis pair")



# the verdict itself: it holds on every positive instance, in both
# categories, and each negative instance breaks it in its own clause
@pytest.mark.parametrize("instance", sorted(POSITIVE))
def test_the_verdict_holds_on_the_positive_instances(instance):
    H, qt, wc = POSITIVE[instance]()
    assert BraidContext.psi(H, qt).comultiplicative
    assert BraidContext(H, wc=wc).comultiplicative


def test_a_coproduct_that_is_not_multiplicative_closes_the_verdict():
    H, qt, wc = _column_corrupted()
    assert not H.comultiplicativity.passed
    assert not BraidContext.psi(H, qt).comultiplicative
    assert not BraidContext(H, wc=wc).comultiplicative


def test_a_twisted_unit_that_is_not_the_unit_2_tensor_closes_the_verdict():
    H, qt, wc = _unit_not_unit2()
    assert H.comultiplicativity.passed
    assert sparse_mul(H, wc.f, wc.finv, 2) == H.delta_one
    ctx = BraidContext(H, wc=wc)
    assert ctx.coproduct[1] != H.delta_one
    assert not ctx.comultiplicative


def test_a_cocycle_whose_product_with_its_inverse_is_not_delta_one_closes_the_verdict():
    H, qt, wc = _not_inverse()
    ctx = BraidContext(H, wc=wc)
    columns, unit2 = ctx.coproduct
    assert sparse_mul(H, wc.f, wc.finv, 2) != H.delta_one
    assert H.comultiplicativity.passed and unit2 == wc.finv
    assert not ctx.comultiplicative


def test_coproduct_module_morphism_scans_every_h_exactly_when_the_verdict_is_closed(
        monkeypatch):
    # where the verdict holds, the generators and the law at 1 decide it and
    # `comparison` gets no triple; where it does not, it gets one per h
    transmute_mod = importlib.import_module("weakhopf.transmute")
    inner = transmute_mod.comparison
    compared = {}

    def counting(rep, name, pairs, *args, **kwargs):
        pairs = list(pairs)
        compared[name] = len(pairs)
        return inner(rep, name, pairs, *args, **kwargs)

    monkeypatch.setattr(transmute_mod, "comparison", counting)
    for closed in (False, True):
        H, qt, _ = _dihedral_sign(4)
        with monkeypatch.context() as m:
            if closed:
                m.setattr(BraidContext, "comultiplicative", property(lambda self: False))
            assert verify_braided_hopf(transmute(H, qt), BraidContext.psi(H, qt)).passed
        assert compared["coproduct-module-morphism"] == (H.dim if closed else 0)
