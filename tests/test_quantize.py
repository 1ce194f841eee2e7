import importlib

import pytest

import dense_oracle as dense
from dense_oracle import basis_vector, mul_elem
from weakhopf import (
    BraidContext,
    canonical_r,
    quantize,
    transmute,
    verify_braided_hopf,
    verify_quantization,
)
from weakhopf.errors import NotCocommutative
from weakhopf.linalg import Matrix, Q0, Q1
from weakhopf.quantize import product_exchange_law
from weakhopf.serialization import serialize_presentation
from weakhopf.zoo import (
    GroupoidSpec,
    dihedral_group_algebra,
    groupoid_algebra,
    trivial_cocycle,
)


def test_diag2_table(diag2):
    # e_i ._F e_j = delta_ij e_i, Delta_F(e_i) = e_i (x) e_i,
    # eps_F(e_i) = e_i, S_F(e_i) = e_i
    H = diag2.algebra
    p = quantize(H, diag2.cocycle)
    assert p.mul == H.mul_map
    for i in range(2):
        col = p.comul.column(i)
        expect = [Q0] * 4
        expect[i * 2 + i] = Q1
        assert col == tuple(expect)
        assert p.counit.column(i) == basis_vector(H, i)
        assert p.unit.column(i) == basis_vector(H, i)
    assert p.antipode.is_identity()


def test_trivial_cocycle_gives_undeformed_structures(kd4):
    H = kd4.algebra
    p = quantize(H, trivial_cocycle(H))
    assert p.mul == H.mul_map
    assert p.comul == H.comul_map
    assert p.antipode == H.antipode


def test_bicharacter_cocycle_deforms_the_product(kd4):
    H = kd4.algebra
    p = quantize(H, kd4.cocycle)
    assert p.mul != H.mul_map
    assert verify_quantization(p, kd4.cocycle).passed


def test_verify_quantization_on_corpus(corpus):
    for fx in corpus:
        p = quantize(fx.algebra, fx.cocycle)
        rep = verify_quantization(p, fx.cocycle)
        assert rep.passed, (fx.name, [c.name for c in rep.failed_checks()])


def test_commutative_cocommutative_collapse(diag2, kz2):
    # adjoint action collapses, so the deformed product is the plain one
    for fx in (diag2, kz2):
        H = fx.algebra
        p = quantize(H, fx.cocycle)
        assert p.mul == H.mul_map


def test_counit_unit_identity(corpus):
    for fx in corpus:
        p = quantize(fx.algebra, fx.cocycle)
        assert (p.counit * p.unit).is_identity()


def test_antipode_commutes_with_adjoint_action(corpus):
    for fx in corpus:
        p = quantize(fx.algebra, fx.cocycle)
        for h in range(fx.algebra.dim):
            assert p.antipode * p.action.mats[h] == p.action.mats[h] * p.antipode


def test_exchange_law_holds(corpus):
    for fx in corpus:
        lhs, rhs = product_exchange_law(fx.algebra, fx.cocycle)
        assert lhs == rhs, fx.name


def test_noncocommutative_rejected(pair2):
    from weakhopf.algebra import QuantumGroupoid

    P = pair2.algebra
    comul = [
        [[P.comul[i][j][k] for k in range(P.dim)] for j in range(P.dim)]
        for i in range(P.dim)
    ]
    comul[1][0][1] = Q1
    comul[1][1][1] = Q0
    bad = QuantumGroupoid(
        dense.bialgebra(P.basis_names, P.mul, P.unit, comul, P.counit), P.antipode
    )
    with pytest.raises(NotCocommutative):
        quantize(bad, pair2.cocycle)


def ordinary_hopf_twist_oracle(H, wc):
    """Plain-tensor implementation of the deformed product and coproduct for
    an ordinary Hopf algebra (target subalgebra spanned by 1, no truncation),
    written independently of the carrier machinery."""
    n = H.dim
    # Ad_{e_i} = sum over Delta(e_i) of (left mult by e_a)(right mult by S(e_b))
    ad = []
    for i in range(n):
        acc = Matrix.from_entries(n, n, ())
        for flat, c in enumerate(H.comul_map.column(i)):
            if c:
                a, b = divmod(flat, n)
                term = H.left_mult(basis_vector(H, a)) * H.right_mult(
                    H.antipode.column(b)
                )
                acc = acc + Matrix.lincomb([(c, term)], term.rows, term.cols)
        ad.append(acc)
    mul_cols = []
    for i in range(n):
        for j in range(n):
            acc = [Q0] * n
            for flat, c in enumerate(dense.dense2(H, wc.f)):
                if not c:
                    continue
                x, y = divmod(flat, n)
                prod = mul_elem(H, ad[x].column(i), ad[y].column(j))
                for k, ck in enumerate(prod):
                    acc[k] += c * ck
            mul_cols.append(acc)
    comul_cols = []
    for i in range(n):
        acc = [Q0] * (n * n)
        for flat, c in enumerate(H.comul_map.column(i)):
            if not c:
                continue
            a1, a2 = divmod(flat, n)
            for flat2, cf in enumerate(dense.dense2(H, wc.finv)):
                if not cf:
                    continue
                x, y = divmod(flat2, n)
                left = ad[x].column(a1)
                right = ad[y].column(a2)
                for p, cp in enumerate(left):
                    if cp:
                        for q, cq in enumerate(right):
                            if cq:
                                acc[p * n + q] += c * cf * cp * cq
        comul_cols.append(acc)
    return (Matrix(mul_cols, len(mul_cols), n).transpose(),
            Matrix(comul_cols, len(comul_cols), n * n).transpose())


def test_ordinary_hopf_oracle_on_kd4(kd4):
    # on an ordinary Hopf algebra the carrier is everything and the
    # truncated tensor is the plain one, so the presentation matrices must
    # agree with a directly-coded plain-tensor implementation
    H = kd4.algebra
    for wc in (trivial_cocycle(H), kd4.cocycle):
        p = quantize(H, wc)
        mul, comul = ordinary_hopf_twist_oracle(H, wc)
        assert p.mul == mul
        assert p.comul == comul
        assert p.antipode == H.antipode


def test_invalid_cocycle_rejected(kd4):
    from weakhopf.errors import InconsistentStructure
    from weakhopf.structures import WeakCocycle

    f = dict(kd4.cocycle.f)
    f[0, 0] = f.get((0, 0), 0) + 1
    with pytest.raises(InconsistentStructure):
        quantize(kd4.algebra, WeakCocycle(f, kd4.cocycle.finv))


def test_trivial_quantization_is_canonical_transmutation(corpus):
    # with F = Delta(1) the deformed maps reduce to the transmutation by
    # the canonical R = Delta_cop(1) Delta(1) through the identity
    algebras = [fx.algebra for fx in corpus] + [
        dihedral_group_algebra(4),
        groupoid_algebra(GroupoidSpec.pair_groupoid(3)),
    ]
    for H in algebras:
        p_r = transmute(H, canonical_r(H))
        p_f = quantize(H, trivial_cocycle(H))
        assert serialize_presentation(p_r) == serialize_presentation(p_f), H.basis_names


def test_verify_quantization_builds_each_twisted_column_once(kd4, monkeypatch):
    # the twisted category's context builds F^-1 Delta(e_i) F once per basis
    # column and every truncated tensor, coproduct column and iterated unit
    # coproduct reads it from there
    modules_mod = importlib.import_module("weakhopf.modules")
    real = modules_mod.twisted_coproduct_column
    calls = []

    def counting(H, wc, i):
        calls.append(i)
        return real(H, wc, i)

    monkeypatch.setattr(modules_mod, "twisted_coproduct_column", counting)
    H = kd4.algebra
    p = quantize(H, kd4.cocycle)
    assert verify_quantization(p, kd4.cocycle).passed
    assert sorted(calls) == list(range(H.dim))


def test_verify_quantization_builds_each_tensor_action_once(kd4, monkeypatch):
    # every action of a 2-tensor on M (x) N is built once per context, module
    # pair and 2-tensor: the coproduct-module-morphism check and the triple
    # projector read the actions of Delta(e_h) on the carrier tensor square
    # from the context that built the truncated tensor
    modules_mod = importlib.import_module("weakhopf.modules")
    real = modules_mod._componentwise_action
    calls = []

    def counting(M, N, elem2):
        calls.append((M, N, frozenset(elem2.items())))
        return real(M, N, elem2)

    monkeypatch.setattr(modules_mod, "_componentwise_action", counting)
    H = kd4.algebra
    p = quantize(H, kd4.cocycle)
    assert verify_quantization(p, kd4.cocycle).passed
    # the twisted coproduct is multiplicative, so no tensor's module laws
    # are scanned, and the module-morphism checks read only the generators
    # s (r and s): on the carrier tensor square the projector and the
    # actions of the twisted Delta(e_s) (coproduct-module-morphism); on
    # each unitor tensor the projector and the induced actions of the e_s
    # (the unitors' morphism check); and the carrier braiding.  On a group
    # algebra F^-1 F is the twisted coproduct column of the unit e_0, so
    # each tensor's projector is that column's action, and the triple
    # projector is the action of e_0 (x) e_0 (x) e_0, built already
    gens = len(H.generators)
    assert gens == 2
    assert len(calls) == 4 + 3 * gens
    assert len(calls) == len(set(calls))
    # the transmutation by R = 1 (x) 1: the braiding is the projector's
    # action on the carrier tensor square, built already
    calls.clear()
    qt = kd4.qt
    assert verify_braided_hopf(transmute(H, qt), BraidContext.psi(H, qt)).passed
    assert len(calls) == 3 + 3 * gens
    assert len(calls) == len(set(calls))
