"""Differential tests: `algebra.sparse_mul`, the product of sparse elements of
H^(x)k, and `algebra.sparse_coproduct_leg`, which sum integer numerators,
against the kernels in `dense_oracle` they replaced: the dense one, and the
Fraction loops that accumulated in the same order, whose key order they
keep.

The algebras are the pair groupoid P2 and kd4 with their bases rescaled
(`dense_oracle.rescaled`), quantum groupoids whose structure constants are 1
and other rationals while the unit law holds (the kernel then skips the unit
legs of a slotted factor), Z2 in a basis where a product has two terms, so
that the order a pair's keys are written in shows, and algebras with random
structure constants and a random "unit", where the unit law fails and the
kernel has to multiply by the unit after all.
"""

import importlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from weakhopf import algebra, check_quantum_groupoid, check_weak_bialgebra, modules, structures, zoo
from weakhopf.algebra import sparse_coproduct_leg, sparse_mul
from weakhopf.cli import run
from weakhopf.twisting import twist, verify_isomorphism
from weakhopf.zoo import GroupoidSpec, groupoid_algebra

quantize = importlib.import_module("weakhopf.quantize")

Q0 = Fraction(0)
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))
entries = st.one_of(st.just(Q0), st.just(Q0), st.sampled_from(COEFFS))


def _algebra(mul, unit):
    n = len(unit)
    zero3 = [[[Q0] * n for _ in range(n)] for _ in range(n)]
    return dense.bialgebra(["b%d" % i for i in range(n)], mul, unit, zero3, [Q0] * n)


# quantum groupoids in a rescaled basis, whose structure constants, coproduct
# and unit have denominators other than 1
P2_SCALED = dense.rescaled(zoo.fixture("pair2").algebra, (1, 2, Fraction(-1, 2), 3))
KD4_SCALES = (2, 3, 1, Fraction(-1, 2), 1, Fraction(4, 3), Fraction(1, 4), 1)
PAIR2_SCALES = (1, 2, Fraction(-1, 3), Fraction(3, 2))
KD4_SCALED = dense.rescaled(zoo.fixture("kd4").algebra, KD4_SCALES)
PAIR2_SCALED = dense.rescaled(zoo.fixture("pair2").algebra, PAIR2_SCALES)
# the group algebra of Z2 in the basis b0 = 1 + g, b1 = 1 + 2g: the unit is
# 2 b0 - b1 and b1 b1 = 6 b0 - b1, a row of two terms, so the order a pair's
# keys are written in shows
Z2_SKEW = _algebra([[[Fraction(2), Q0], [Fraction(3), Q0]],
                    [[Fraction(3), Q0], [Fraction(6), Fraction(-1)]]], [Fraction(2), Fraction(-1)])
# coefficients with denominators up to 12
RATIONALS = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))


@st.composite
def algebras(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from((P2_SCALED, KD4_SCALED, PAIR2_SCALED, Z2_SKEW)))
    n = draw(st.integers(1, 3))
    mul = [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return _algebra(mul, [draw(entries) for _ in range(n)])


def tensors(n, k, coeffs=st.sampled_from(COEFFS)):
    return st.dictionaries(st.tuples(*[st.integers(0, n - 1)] * k), coeffs, max_size=6)


@st.composite
def slot_choices(draw, k):
    """None (a full k-tensor) or 1 to k distinct legs in any order."""
    if draw(st.booleans()):
        return None
    legs = draw(st.permutations(range(k)))
    return tuple(legs[:draw(st.integers(1, k))])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_mul_matches_oracle(data):
    H = data.draw(algebras())
    k = data.draw(st.integers(1, 4))
    slots = data.draw(slot_choices(k))
    coeffs = data.draw(st.sampled_from((st.sampled_from(COEFFS), RATIONALS)))
    x = data.draw(tensors(H.dim, k, coeffs))
    y = data.draw(tensors(H.dim, k if slots is None else len(slots), coeffs))
    got = sparse_mul(H, x, y, k, slots)
    full = y if slots is None else dense.embed(y, k, slots, H.unit_sparse)
    assert got == dense.sparse_mul(H, x, full, k)
    assert all(got.values())  # no stored zeros
    _assert_same(got, dense.fraction_sparse_mul(H, x, y, k, slots))


def test_a_pair_writes_its_keys_in_leg_order():
    # each multiplied leg is b1 b1 = 6 b0 - b1; the first leg varies slowest,
    # whatever the order of the legs y stands on
    assert Z2_SKEW.unit_acts_right
    for x, y, k, slots in (({(1, 1): 1}, {(1, 1): 1}, 2, None),
                           ({(1, 1): 1}, {(1, 1): 1}, 2, (1, 0)),
                           ({(1, 0, 1): 1}, {(1, 1): 1}, 3, (2, 0))):
        got = sparse_mul(Z2_SKEW, x, y, k, slots)
        unit_leg = () if k == 2 else (0,)
        assert list(got) == [(a,) + unit_leg + (b,) for a in (0, 1) for b in (0, 1)]
        assert list(got.values()) == [36, -6, -6, 1]
        _assert_same(got, dense.fraction_sparse_mul(Z2_SKEW, x, y, k, slots))


def _assert_same(got, want):
    """Equal sparse tensors with equal key order, every entry a nonzero
    exact rational in the one form the kernels promise: an int when it is
    integral, else a Fraction, and never a bool."""
    assert got == want
    assert list(got) == list(want)
    for c in got.values():
        assert c and type(c) in (int, Fraction)
        assert type(c) is int or c.denominator != 1


def _product_index(H, a, b):
    """The basis index k of e_a e_b in the group algebra H."""
    (k,) = H.mul_rows[(a, b)]
    return k


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_mul_of_terms_that_cancel(data):
    # x = c1 e_ix + c2 e_jx and y = d1 e_iy + d2 e_jy in a group algebra,
    # with jx jy = ix iy = K and d2 chosen so that the two terms at K cancel;
    # jx differs from ix on a leg of y, so the other two products miss K
    H = data.draw(st.sampled_from((zoo.fixture("kd4").algebra, KD4_SCALED)))
    k = data.draw(st.integers(1, 4))
    slots = data.draw(slot_choices(k))
    legs = tuple(range(k)) if slots is None else slots
    index = st.integers(0, H.dim - 1)
    ix = data.draw(st.tuples(*[index] * k))
    jx = list(ix)
    p = data.draw(st.sampled_from(legs))
    jx[p] = data.draw(index.filter(lambda i: i != ix[p]))
    jx = tuple(jx)
    iy = data.draw(st.tuples(*[index] * len(legs)))
    key = list(ix)
    for j, q in enumerate(legs):
        key[q] = _product_index(H, ix[q], iy[j])
    key = tuple(key)
    jy = tuple(next(b for b in range(H.dim) if _product_index(H, jx[q], b) == key[q])
               for q in legs)
    c1, c2, d1 = (data.draw(RATIONALS) for _ in range(3))
    at_key = dense.fraction_sparse_mul(H, {ix: c1}, {iy: d1}, k, slots)[key]
    d2 = -at_key / dense.fraction_sparse_mul(H, {jx: c2}, {jy: Fraction(1)}, k, slots)[key]
    x, y = {ix: c1, jx: c2}, {iy: d1, jy: d2}
    got = sparse_mul(H, x, y, k, slots)
    assert key not in got
    _assert_same(got, dense.fraction_sparse_mul(H, x, y, k, slots))


@st.composite
def coproduct_columns(draw):
    """(n, cols): the coproduct of a rescaled quantum groupoid, or random
    columns over n <= 3 with denominators up to 12 and empty columns."""
    if draw(st.booleans()):
        H = draw(st.sampled_from((KD4_SCALED, PAIR2_SCALED)))
        return H.dim, H.comul_cols
    n = draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    col = st.dictionaries(pairs, RATIONALS, max_size=4)
    return n, [draw(col) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(coproduct_columns(), st.data())
def test_sparse_coproduct_leg_matches_fraction_oracle(columns, data):
    n, cols = columns
    k = data.draw(st.integers(1, 4))
    leg = data.draw(st.integers(0, k - 1))
    s = data.draw(tensors(n, k, st.one_of(st.sampled_from(COEFFS), RATIONALS)))
    _assert_same(sparse_coproduct_leg(s, leg, cols), dense.fraction_coproduct_leg(s, leg, cols))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_coproduct_leg_of_terms_that_cancel(data):
    # c e_0 and -c/t e_1 on the leg, where Delta(e_1) = t Delta(e_0)
    k = data.draw(st.integers(1, 3))
    leg = data.draw(st.integers(0, k - 1))
    pairs = st.tuples(st.integers(0, 1), st.integers(0, 1))
    col = data.draw(st.dictionaries(pairs, RATIONALS, min_size=1, max_size=4))
    t, c = data.draw(RATIONALS), data.draw(RATIONALS)
    cols = [col, {pq: t * x for pq, x in col.items()}]
    idx = list(data.draw(st.tuples(*[st.integers(0, 1)] * k)))
    idx[leg] = 0
    other = list(idx)
    other[leg] = 1
    s = {tuple(idx): c, tuple(other): -c / t}
    assert sparse_coproduct_leg(s, leg, cols) == dense.fraction_coproduct_leg(s, leg, cols) == {}


# the modules that bind the two kernels, each under its own name
KERNEL_MODULES = {"weakhopf.algebra", "weakhopf.structures", "weakhopf.modules", "weakhopf.quantize"}


def _bindings(name):
    """Every loaded weakhopf module that binds the kernel algebra.<name>."""
    kernel = getattr(algebra, name)
    return [module for modname, module in sorted(sys.modules.items())
            if modname.split(".")[0] == "weakhopf" and getattr(module, name, None) is kernel]


def _checking(monkeypatch, calls):
    """Every binding of `sparse_mul` and `sparse_coproduct_leg` in the
    package, wrapped to compare each result with its Fraction oracle."""
    def wrap(kernel, oracle, name):
        def checked(*args):
            got = kernel(*args)
            _assert_same(got, oracle(*args))
            calls.append(name)
            return got
        return checked

    for name, oracle in (("sparse_mul", dense.fraction_sparse_mul),
                         ("sparse_coproduct_leg", dense.fraction_coproduct_leg)):
        found = _bindings(name)
        assert {module.__name__ for module in found} == KERNEL_MODULES, name
        checked = wrap(getattr(algebra, name), oracle, name)
        for module in found:
            monkeypatch.setattr(module, name, checked)


@pytest.mark.parametrize("name", zoo.fixture_names())
def test_kernels_match_the_fraction_oracle_on_the_fixtures(name, monkeypatch):
    # the fixture's suites on a fresh copy of its algebra (no cached
    # verdicts), with every k-tensor product and coproduct checked on the way
    fx = zoo.fixture(name)
    H = dense.rescaled(fx.algebra, [1] * fx.algebra.dim)
    calls = []
    _checking(monkeypatch, calls)
    assert check_weak_bialgebra(H).passed and check_quantum_groupoid(H).passed
    assert structures.check_quasitriangular(H, fx.qt).passed
    assert structures.check_weak_cocycle(H, fx.cocycle).passed
    lhs, rhs = quantize.product_exchange_law(H, fx.cocycle)
    assert lhs == rhs
    if H.is_cocommutative:
        ctx = modules.BraidContext.phi(H, fx.cocycle)
        M = modules.regular_module(H)
        ctx.triple_projector(M, M, M)
    assert {"sparse_mul", "sparse_coproduct_leg"} <= set(calls)


@pytest.mark.parametrize("name, scales", [("kd4", KD4_SCALES), ("pair2", PAIR2_SCALES)])
def test_both_suites_pass_on_a_rescaled_basis(name, scales, monkeypatch):
    # a quantum groupoid whose structure constants are not integers; its
    # suites give the checks of the original basis, and every k-tensor
    # product and coproduct on the way matches the Fraction oracle
    fx = zoo.fixture(name)
    H = dense.rescaled(fx.algebra, scales)
    assert {c.denominator for row in H.mul_rows.values() for c in row.values()} != {1}
    assert H.mul_ints[0] > 1
    calls = []
    _checking(monkeypatch, calls)
    for check in (check_weak_bialgebra, check_quantum_groupoid):
        got, want = check(H), check(fx.algebra)
        assert got.passed
        assert [c.name for c in got.checks] == [c.name for c in want.checks]
    assert {"sparse_mul", "sparse_coproduct_leg"} <= set(calls)


def _klein(H, k):
    """The Klein-four sign cocycle on {s, r^(k/2) s} of the dihedral algebra
    D_k, as the benchmark's instances carry it."""
    names = list(H.basis_names)
    half = k // 2
    gens = [names.index("s"), names.index("rs" if half == 1 else "r%ds" % half)]
    beta = [[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]
    return zoo.bicharacter_cocycle(H, gens, beta)


def _kd4():
    H = zoo.dihedral_group_algebra(4)
    return H, _klein(H, 4)


def _dihedral_plus_pair():
    # the weak D2 (+) P2 of the groupoid-weak workload: Delta(1) is not 1 (x) 1
    A = zoo.dihedral_group_algebra(2)
    B = groupoid_algebra(GroupoidSpec.pair_groupoid(2))
    H = zoo.direct_sum(A, B)
    return H, zoo.direct_sum_cocycle(H, A, B, _klein(A, 2), zoo.trivial_cocycle(B))


@pytest.mark.parametrize("build", [_kd4, _dihedral_plus_pair], ids=["kd4", "d2-plus-p2"])
def test_kernels_match_the_fraction_oracle_on_the_command_paths(build, monkeypatch):
    # a fresh instance (no cached verdicts or memo) through the twist, the
    # quantization with its verifier and the comparison isomorphism, with
    # every k-tensor product and coproduct checked on the way
    calls = []
    _checking(monkeypatch, calls)
    H, wc = build()
    qt = structures.canonical_r(H)
    twist(H, qt, wc)
    assert quantize.verify_quantization(quantize.quantize(H, wc), wc).passed
    assert verify_isomorphism(H, qt, wc).report.passed
    assert {"sparse_mul", "sparse_coproduct_leg"} <= set(calls)


# `sparse_mul` calls of each command on the kd4 documents, D4 with its Klein
# cocycle, parsed afresh; verify-iso states the conjugator's coproduct law
# from the sides the twist computed, so its two products are made once
KD4_SPARSE_MUL_CALLS = {"check": 82, "transmute": 38, "quantize": 76, "verify-iso": 71}


@pytest.mark.parametrize("command", sorted(KD4_SPARSE_MUL_CALLS))
def test_sparse_mul_calls_per_command_on_kd4(command, tmp_path, monkeypatch):
    assert run(["zoo", "kd4", "--out-dir", str(tmp_path)]) == 0
    qg, qt, coc = (str(tmp_path / ("kd4." + ext)) for ext in ("qg", "qt", "coc"))
    argv = {"check": ["check", qg, qt, coc],
            "transmute": ["transmute", "--algebra", qg, "--qt", qt],
            "quantize": ["quantize", "--algebra", qg, "--cocycle", coc],
            "verify-iso": ["verify-iso", "--algebra", qg, "--cocycle", coc]}[command]
    calls = []

    def counted(*args):
        calls.append(1)
        return sparse_mul(*args)

    for module in _bindings("sparse_mul"):
        monkeypatch.setattr(module, "sparse_mul", counted)
    assert run(argv) == 0
    assert len(calls) == KD4_SPARSE_MUL_CALLS[command]


def test_unit_law_decides_the_unit_skip():
    assert P2_SCALED.unit_acts_right
    assert not _algebra([[[Fraction(1)]]], [Fraction(2)]).unit_acts_right


def test_cancelling_terms_and_empty_factors_give_the_empty_tensor():
    P = groupoid_algebra(GroupoidSpec.pair_groupoid(2))  # e11, e12, e21, e22
    # (e11 - e12)(e12 + e22) = e12 - e12
    x = {(0,): Fraction(1), (1,): Fraction(-1)}
    y = {(1,): Fraction(1), (3,): Fraction(1)}
    assert sparse_mul(P, x, y, 1) == dense.sparse_mul(P, x, y, 1) == {}
    for k, slots in ((1, None), (3, (2, 0))):
        assert sparse_mul(P, {}, {(0,) * (k if slots is None else 2): Fraction(1)}, k, slots) == {}
        assert sparse_mul(P, {(0,) * k: Fraction(1)}, {}, k, slots) == {}
