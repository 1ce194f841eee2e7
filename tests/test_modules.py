import importlib

import pytest

import dense_oracle as dense
from dense_oracle import basis_vector, mul_elem
from weakhopf import (
    BraidContext,
    check_module,
    coherence_report,
    ht_module,
    quantize,
    regular_module,
    transmute,
    truncated_tensor,
    unitors,
)
import weakhopf.modules as modules_mod
from weakhopf.errors import InconsistentStructure, MismatchedAlgebra
from weakhopf.linalg import Matrix, Q0
from weakhopf.modules import _componentwise_action, twisted_coproduct_column
from weakhopf.structures import _mul2, canonical_r, swap2
from weakhopf.zoo import GroupoidSpec, groupoid_algebra, trivial_cocycle


def _plain(fx):
    return BraidContext.psi(fx.algebra, fx.qt)


def _twisted(fx):
    return BraidContext.phi(fx.algebra, fx.cocycle)


def test_truncated_dimensions(diag2, kz2, pair2):
    M = regular_module(diag2.algebra)
    assert truncated_tensor(M, M, _plain(diag2)).dim == 2
    M = regular_module(kz2.algebra)
    assert truncated_tensor(M, M, _plain(kz2)).dim == 4
    M = regular_module(pair2.algebra)
    tt = truncated_tensor(M, M, _plain(pair2))
    assert tt.dim == len(tt.projector.rref()[1])


def test_projector_idempotent(corpus):
    for fx in corpus:
        M = regular_module(fx.algebra)
        tt = truncated_tensor(M, M, _plain(fx))
        assert tt.projector * tt.projector == tt.projector
        tw = truncated_tensor(M, M, _twisted(fx))
        assert tw.projector * tw.projector == tw.projector


def test_mismatched_algebras_rejected(diag2, kz2):
    with pytest.raises(MismatchedAlgebra):
        truncated_tensor(regular_module(diag2.algebra), regular_module(kz2.algebra),
                         _plain(diag2))


def test_induced_action_is_module(corpus):
    for fx in corpus:
        M = regular_module(fx.algebra)
        tt = truncated_tensor(M, M, _plain(fx))
        assert check_module(tt.module).passed


def test_unit_object_action(corpus):
    for fx in corpus:
        ht, zmod = ht_module(fx.algebra)
        assert check_module(zmod).passed


def test_unitors_on_diag2(diag2):
    H = diag2.algebra
    M = regular_module(H)
    ctx = BraidContext.psi(H, diag2.qt)
    l, r, t_l, t_r = unitors(M, ctx)
    # l(e_i (x) e_j) = delta_ij e_i on plain coordinates
    for bidx in range(t_l.dim):
        w = t_l.inclusion.column(bidx)
        expect = [Q0] * H.dim
        for flat, c in enumerate(w):
            if c:
                zi, vj = divmod(flat, M.dim)
                z = dense.vectors(ht_module(H)[0])[zi]
                prod = mul_elem(H, z, basis_vector(H, vj))
                for k, ck in enumerate(prod):
                    expect[k] += c * ck
        assert l.column(bidx) == tuple(expect)
    # with S = id on a commutative algebra, r agrees with l across the flip
    flip = dense.flip_matrix(t_r.left.dim, t_r.right.dim)
    lifted = l * t_l.projection * flip * t_r.inclusion
    assert r == lifted


def test_unitor_is_identity_for_ordinary_hopf(kz2):
    # the target subalgebra is spanned by 1, so l(1 (x) v) = v
    H = kz2.algebra
    M = regular_module(H)
    ctx = BraidContext.psi(H, kz2.qt)
    l, r, t_l, t_r = unitors(M, ctx)
    assert l.is_identity()
    assert r.is_identity()


def test_unitors_h_linear_everywhere(corpus):
    for fx in corpus:
        H = fx.algebra
        M = regular_module(H)
        for ctx in (BraidContext.psi(H, fx.qt), BraidContext.phi(H, fx.cocycle)):
            l, r, t_l, t_r = unitors(M, ctx)
            for h in range(H.dim):
                assert l * t_l.module.mats[h] == M.mats[h] * l
                assert r * t_r.module.mats[h] == M.mats[h] * r


def test_braiding_psi_examples(diag2, kd4):
    # diagonal R: the braiding fixes e_i (x) e_i
    H = diag2.algebra
    M = regular_module(H)
    psi, psi_inv = _plain(diag2).braiding(M, M)
    assert psi.is_identity()
    # R = 1 (x) 1: the braiding is the plain flip
    H = kd4.algebra
    M = regular_module(H)
    ctx = _plain(kd4)
    t_mn = truncated_tensor(M, M, ctx)
    psi, psi_inv = ctx.braiding(M, M)
    flip = t_mn.projection * dense.flip_matrix(M.dim, M.dim) * t_mn.inclusion
    assert psi == flip


def test_braiding_invertibility_and_linearity(corpus):
    for fx in corpus:
        H = fx.algebra
        M = regular_module(H)
        ctx = _plain(fx)
        t_mn = truncated_tensor(M, M, ctx)
        psi, psi_inv = ctx.braiding(M, M)
        assert (psi * psi_inv).is_identity() and (psi_inv * psi).is_identity()
        for h in range(H.dim):
            assert psi * t_mn.module.mats[h] == t_mn.module.mats[h] * psi
        ctx = _twisted(fx)
        tw = truncated_tensor(M, M, ctx)
        phi, phi_inv = ctx.braiding(M, M)
        assert (phi * phi_inv).is_identity() and (phi_inv * phi).is_identity()
        for h in range(H.dim):
            assert phi * tw.module.mats[h] == tw.module.mats[h] * phi


def test_braiding_phi_examples(diag2, kd4):
    # trivial cocycle on an ordinary Hopf algebra: the plain flip
    H = kd4.algebra
    M = regular_module(H)
    ctx = BraidContext.phi(H, trivial_cocycle(H))
    tw = truncated_tensor(M, M, ctx)
    phi, _ = ctx.braiding(M, M)
    flip = tw.projection * dense.flip_matrix(M.dim, M.dim) * tw.inclusion
    assert phi == flip
    # diagonal cocycle on the diagonal algebra: identity on the image
    N = diag2.algebra
    MN = regular_module(N)
    phi, _ = _twisted(diag2).braiding(MN, MN)
    assert phi.is_identity()


def test_phi_squares_to_identity_on_adjoint(kd4):
    # a cocycle twist of a cocommutative algebra gives a symmetric braiding
    p = quantize(kd4.algebra, kd4.cocycle)
    phi, _ = _twisted(kd4).braiding(p.action, p.action)
    assert (phi * phi).is_identity()


def test_braiding_naturality(corpus):
    # right multiplications are endomorphisms of the left regular module
    for fx in corpus:
        H = fx.algebra
        M = regular_module(H)
        f = H.right_mult(basis_vector(H, H.dim - 1))
        g = H.right_mult(basis_vector(H, 0))
        ctx = _plain(fx)
        t_mn = truncated_tensor(M, M, ctx)
        psi, _ = ctx.braiding(M, M)
        fg = t_mn.projection * _kron(f, g) * t_mn.inclusion
        gf = t_mn.projection * _kron(g, f) * t_mn.inclusion
        assert gf * psi == psi * fg


def _kron(a, b):
    from weakhopf.linalg import kron

    return kron(a, b)


def test_coherence_small_fixtures(diag2, kz2, pair2):
    for fx in (diag2, kz2, pair2):
        M = regular_module(fx.algebra)
        rep = coherence_report(_plain(fx), M, M, M)
        assert rep.passed, (fx.name, [c.name for c in rep.failed_checks()])
        rep = coherence_report(_twisted(fx), M, M, M)
        assert rep.passed, (fx.name, [c.name for c in rep.failed_checks()])


def test_coherence_report_builds_each_braiding_once(kd4, monkeypatch):
    # both hexagons braid M past P; the braiding is built once for both
    real = BraidContext.braiding_plain
    calls = []

    def counting(self, M, N):
        calls.append((M, N))
        return real(self, M, N)

    monkeypatch.setattr(BraidContext, "braiding_plain", counting)
    M = ht_module(kd4.algebra)[1]
    assert coherence_report(BraidContext.psi(kd4.algebra, kd4.qt), M, M, M).passed
    # M past N (x) P, M past N, M past P, M (x) N past P and N past P
    assert len(calls) == 5


def test_coherence_report_builds_each_tensor_action_once(monkeypatch):
    # the algebra builds each action of a 2-tensor on M (x) N once, for both
    # categories.  The plain report builds only what it reads: the projector
    # on M (x) M, which is also the action of its braiding tensor
    # R_21 = Delta(1), and the actions of Delta(e_x), x a leg of Delta(1),
    # on M (x) M (read by the induced actions of M (x) M that the hexagons
    # read at Delta^2(1)) and on M (x) H_t (the unitor triangle).
    # Both bracketings are decided from two elements of H^(x)3, so the
    # projectors on (M (x) M) (x) M and M (x) (M (x) M) are not built.  On
    # P3 with F = Delta(1) the twisted coproduct, unit and braiding tensor
    # are the plain ones, so the twisted report builds none
    real = modules_mod._componentwise_action
    calls = []

    def counting(M, N, elem2):
        calls.append((M, N, frozenset(elem2.items())))
        return real(M, N, elem2)

    monkeypatch.setattr(modules_mod, "_componentwise_action", counting)
    H = groupoid_algebra(GroupoidSpec.pair_groupoid(3))
    M = regular_module(H)
    built = []
    for ctx in (BraidContext.psi(H, canonical_r(H)), BraidContext.phi(H, trivial_cocycle(H))):
        before = len(calls)
        assert coherence_report(ctx, M, M, M).passed
        built.append(len(calls) - before)
    assert built == [7, 0]
    assert len(calls) == len(set(calls))


def _acting_tensors(fx):
    """The 2-tensors the package lets act on M (x) N: R and the swapped
    R^-1 (the braidings), Delta(1) and F^-1 F (the projectors), F^-1 swap(F)
    (the twisted braiding) and the twisted coproduct columns."""
    H = fx.algebra
    r, rinv = fx.qt.r, fx.qt.rinv
    f, finv = fx.cocycle.f, fx.cocycle.finv
    tensors = [r, swap2(rinv), H.delta_one, _mul2(H, finv, f), _mul2(H, finv, swap2(f))]
    return tensors + [twisted_coproduct_column(H, fx.cocycle, i) for i in range(H.dim)]


def test_componentwise_action_matches_dense(corpus):
    for fx in corpus:
        H = fx.algebra
        reg = regular_module(H)
        carrier = transmute(H, fx.qt).action
        for M, N in ((reg, reg), (reg, carrier), (carrier, reg), (carrier, carrier)):
            for x2 in _acting_tensors(fx):
                got = _componentwise_action(M, N, x2)
                assert (got.rows, got.cols) == (M.dim * N.dim,) * 2
                assert all(x for row in got.sparse_rows for x in row.values())
                assert got.data == dense.componentwise_action(M, N, x2), fx.name


def test_ht_module_refuses_an_action_that_leaves_h_t(monkeypatch):
    # with H_t cut down to span(e11), eps_t(e21 e11) = e22 falls outside it;
    # the algebra is built here, so H_t's module is not yet kept on it
    H = groupoid_algebra(GroupoidSpec.pair_groupoid(2))
    monkeypatch.setattr(modules_mod, "target_subalgebra",
                        lambda H: Matrix([(1, 0, 0, 0)]).transpose().column_space())
    with pytest.raises(InconsistentStructure, match=r"^eps_t\(h z\) escaped H_t$"):
        ht_module(H)


def test_twisted_column_sums_one_kronecker_product_per_first_leg(kd4, monkeypatch):
    # on kd4 with its Klein-four cocycle, F^-1 Delta(e_i) F has 16 terms with
    # 4 distinct first legs for each odd i; the action of each on M (x) M
    # sums 4 Kronecker products, and equals the dense sum of all 16
    linalg_mod = importlib.import_module("weakhopf.linalg")
    real = linalg_mod._kron_rows
    parts = []

    def recording(terms, m, n):
        parts.append(len(terms))
        return real(terms, m, n)

    monkeypatch.setattr(linalg_mod, "_kron_rows", recording)
    H = kd4.algebra
    M = regular_module(H)
    columns = _twisted(kd4).coproduct[0]
    wide = [i for i in range(H.dim) if len(columns[i]) == 16]
    assert len(wide) == H.dim // 2
    for i in wide:
        parts.clear()
        got = _componentwise_action(M, M, columns[i])
        assert parts == [4]
        assert got.data == dense.componentwise_action(M, M, columns[i])
