from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from dense_oracle import basis_vector, comul_of, counit_of, mul_elem
from weakhopf import (
    QuantumGroupoid,
    WeakBialgebra,
    check_quantum_groupoid,
    check_weak_bialgebra,
    convolve,
    solve_antipode,
    source_subalgebra,
    target_subalgebra,
    zoo,
)
from weakhopf.algebra import sparse_coproduct_leg
from weakhopf.errors import AntipodeNotInvertible, DimensionMismatch
from weakhopf.linalg import Matrix, Q0, kron
from weakhopf.report import dense_of_sparse

ZERO2 = (Q0, Q0)


def rebuilt_without_antipode(H):
    return dense.bialgebra(H.basis_names, H.mul, H.unit, H.comul, H.counit)


def test_diag2_passes_all_axioms(diag2):
    assert check_weak_bialgebra(diag2.algebra).passed
    assert check_quantum_groupoid(diag2.algebra).passed


def test_broken_counit_fails_with_witness(diag2):
    H = diag2.algebra
    bad = dense.bialgebra(H.basis_names, H.mul, H.unit, H.comul, [0, 0])
    rep = check_weak_bialgebra(bad)
    assert not rep.passed
    failing = rep["counit-axiom"]
    assert not failing.passed
    assert failing.witness is not None
    assert failing.witness.indices == (0,)


def test_pair_groupoid_passes(pair2):
    assert check_weak_bialgebra(pair2.algebra).passed
    assert check_quantum_groupoid(pair2.algebra).passed


def test_epsilon_t_values(diag2, kz2, pair2):
    N = diag2.algebra
    for i in range(2):
        assert N.eps_t_mat.apply(basis_vector(N, i)) == basis_vector(N, i)
    Z = kz2.algebra
    assert Z.eps_t_mat.apply(basis_vector(Z, 1)) == Z.unit
    P = pair2.algebra
    names = P.basis_names
    e12 = basis_vector(P, names.index("e12"))
    e11 = basis_vector(P, names.index("e11"))
    assert P.eps_t_mat.apply(e12) == e11


def test_subalgebras(diag2, kz2, pair2):
    assert target_subalgebra(diag2.algebra).dim == 2
    assert source_subalgebra(diag2.algebra).dim == 2
    zt = target_subalgebra(kz2.algebra)
    assert zt.dim == 1 and zt.coordinates(kz2.algebra.unit) is not None
    pt = target_subalgebra(pair2.algebra)
    names = pair2.algebra.basis_names
    assert pt.dim == 2
    assert pt.coordinates(basis_vector(pair2.algebra, names.index("e11"))) is not None
    assert pt.coordinates(basis_vector(pair2.algebra, names.index("e22"))) is not None
    assert pt.coordinates(basis_vector(pair2.algebra, names.index("e12"))) is None


def test_subalgebra_closure_under_product(corpus):
    for fx in corpus:
        H = fx.algebra
        for basis in (target_subalgebra(H), source_subalgebra(H)):
            assert basis.coordinates(H.unit) is not None
            for x in dense.vectors(basis):
                for y in dense.vectors(basis):
                    assert basis.coordinates(mul_elem(H, x, y)) is not None


def test_convolution_identities(diag2, kz2, corpus):
    N = diag2.algebra
    ident = Matrix.identity(N.dim)
    assert convolve(N, ident, N.antipode) == N.eps_t_mat
    Z = kz2.algebra
    conv = convolve(Z, Matrix.identity(Z.dim), Z.antipode)
    rank_one = Matrix([tuple(Z.counit[i] * u for u in Z.unit) for i in range(Z.dim)]).transpose()
    assert conv == rank_one
    for fx in corpus:
        H = fx.algebra
        S = H.antipode
        ident = Matrix.identity(H.dim)
        assert convolve(H, S, convolve(H, ident, S)) == S


def test_solve_antipode_examples(diag2, kz2, pair2):
    assert solve_antipode(rebuilt_without_antipode(diag2.algebra)) == Matrix.identity(2)
    assert solve_antipode(rebuilt_without_antipode(kz2.algebra)) == Matrix.identity(2)
    S = solve_antipode(rebuilt_without_antipode(pair2.algebra))
    # transpose map e_ij -> e_ji
    names = pair2.algebra.basis_names
    for i, name in enumerate(names):
        flipped = "e" + name[2] + name[1]
        expected = basis_vector(pair2.algebra, names.index(flipped))
        assert S.column(i) == expected


def test_solve_antipode_oracle_equivalence(corpus):
    for fx in corpus:
        S = solve_antipode(rebuilt_without_antipode(fx.algebra))
        assert S == fx.algebra.antipode, fx.name


def test_negated_antipode_fails(diag2):
    H = diag2.algebra
    bad = QuantumGroupoid(H, Matrix.lincomb([(-1, Matrix.identity(2))], 2, 2))
    rep = check_quantum_groupoid(bad)
    assert not rep.passed
    failing = rep["antipode-right-convolution"]
    assert not failing.passed
    assert failing.witness.indices == (0,)


def test_kd4_inverse_antipode_passes(kd4):
    assert check_quantum_groupoid(kd4.algebra).passed


def test_singular_antipode_rejected(diag2):
    H = diag2.algebra
    with pytest.raises(AntipodeNotInvertible):
        QuantumGroupoid(H, Matrix.from_entries(2, 2, ()))


def test_commutativity_flags(diag2, kd4, pair2):
    assert diag2.algebra.is_cocommutative and diag2.algebra.is_commutative
    assert kd4.algebra.is_cocommutative and not kd4.algebra.is_commutative
    assert pair2.algebra.is_cocommutative


def test_epsilon_idempotence(corpus):
    for fx in corpus:
        H = fx.algebra
        assert H.eps_t_mat * H.eps_t_mat == H.eps_t_mat
        assert H.eps_s_mat * H.eps_s_mat == H.eps_s_mat


def test_bar_counital_maps_formulas(corpus):
    # bar eps_s(h) = eps(h 1_1) 1_2 and bar eps_t(h) = 1_1 eps(1_2 h),
    # recomputed by brute force from the coproduct of 1
    for fx in corpus:
        H = fx.algebra
        n = H.dim
        for i in range(n):
            e = basis_vector(H, i)
            sbar = [Q0] * n
            tbar = [Q0] * n
            for (a, b), c in H.delta_one.items():
                sbar[b] += c * counit_of(H, mul_elem(H, e, basis_vector(H, a)))
                tbar[a] += c * counit_of(H, mul_elem(H, basis_vector(H, b), e))
            assert H.eps_s_bar_mat.apply(e) == tuple(sbar)
            assert H.eps_t_bar_mat.apply(e) == tuple(tbar)


def test_target_membership_characterization(corpus):
    # Delta(eps_t(h)) = 1_1 eps_t(h) (x) 1_2 and dually for the source map
    for fx in corpus:
        H = fx.algebra
        n = H.dim
        for i in range(n):
            z = H.eps_t_mat.apply(basis_vector(H, i))
            lhs = comul_of(H, z)
            rhs = [Q0] * (n * n)
            for (a, b), c in H.delta_one.items():
                prod = mul_elem(H, basis_vector(H, a), z)
                for p, cp in enumerate(prod):
                    if cp:
                        rhs[p * n + b] += c * cp
            assert lhs == tuple(rhs)
            y = H.eps_s_mat.apply(basis_vector(H, i))
            lhs = comul_of(H, y)
            rhs = [Q0] * (n * n)
            for (a, b), c in H.delta_one.items():
                prod = mul_elem(H, y, basis_vector(H, b))
                for q, cq in enumerate(prod):
                    if cq:
                        rhs[a * n + q] += c * cq
            assert lhs == tuple(rhs)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    ),
    max_size=8,
))
def test_sparse_coproduct_leg_matches_dense_kron(kd4_diag2, entries):
    # reference: (Delta (x) id) and (id (x) Delta) as dense Kronecker maps
    H = kd4_diag2.algebra
    n = H.dim
    x = [Q0] * (n * n)
    for i, j, c in entries:
        x[i * n + j] += c
    s = dense.sparse_of_dense(x, n, 2)
    ident = Matrix.identity(n)
    for leg, dense_map in ((0, kron(H.comul_map, ident)), (1, kron(ident, H.comul_map))):
        got = dense_of_sparse(sparse_coproduct_leg(s, leg, H.comul_cols), n, 3)
        assert got == dense_map.apply(x), leg


@pytest.mark.parametrize(
    "mul_rows, comul_cols, message",
    [
        ({(0, 2): {0: Fraction(1)}}, {0: {}, 1: {}}, "index out of range"),
        ({(0, 0): {2: Fraction(1)}}, {0: {}, 1: {}}, "index out of range"),
        ({(0, 0): {0: Fraction(0)}}, {0: {}, 1: {}}, "stores a zero"),
        ({(0, 0): {}}, {0: {}, 1: {}}, "stores a zero"),
        ({}, {0: {(0, 2): Fraction(1)}, 1: {}}, "index out of range"),
        ({}, {0: {0: Fraction(1)}, 1: {}}, "index out of range"),
        ({}, {0: {(0, 0): Fraction(0)}, 1: {}}, "stores a zero"),
        ({}, {0: {}}, "a column for every basis element"),
    ],
)
def test_sparse_tables_are_validated(mul_rows, comul_cols, message):
    with pytest.raises(DimensionMismatch, match=message):
        WeakBialgebra(["a", "b"], mul_rows, [1, 0], comul_cols, [1, 1])


@pytest.mark.parametrize("entry", [0.5, 1.0, True, -1.0])
@pytest.mark.parametrize("table", ["mul", "comul"])
def test_table_entries_are_exact_rationals(entry, table):
    # an int or a Fraction is stored; a float or a bool is refused
    mul_rows = {(0, 0): {0: 1}, (1, 1): {1: Fraction(1, 2)}}
    comul_cols = {0: {(0, 0): 1}, 1: {(1, 1): Fraction(-1, 3)}}
    WeakBialgebra(["a", "b"], mul_rows, [1, 0], comul_cols, [1, 1])
    if table == "mul":
        mul_rows = {**mul_rows, (0, 1): {1: entry}}
    else:
        comul_cols = {**comul_cols, 1: {(1, 1): entry}}
    with pytest.raises(TypeError, match="%s table stores an entry that is not" % table):
        WeakBialgebra(["a", "b"], mul_rows, [1, 0], comul_cols, [1, 1])


@pytest.mark.parametrize("name", zoo.fixture_names())
def test_convolve_matches_the_kronecker_product(name):
    # two whiskered products on Delta against mu (f (x) g) Delta built whole
    H = zoo.fixture(name).algebra
    S, ident = H.antipode, Matrix.identity(H.dim)
    for f, g in ((S, ident), (ident, S), (S, S), (H.eps_s_mat, H.antipode_inv)):
        assert convolve(H, f, g) == H.mul_map * kron(f, g) * H.comul_map
