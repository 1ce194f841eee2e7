from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import vectors
from weakhopf.errors import DimensionMismatch, NonUniqueSolution
from weakhopf.linalg import Matrix, _div, frac, kron

rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


def mat2(entries):
    return Matrix([entries[:2], entries[2:]])


matrices2 = st.builds(mat2, st.lists(rationals, min_size=4, max_size=4))
vectors2 = st.tuples(rationals, rationals)


@settings(max_examples=200)
@given(st.integers(-50, 50), st.integers(-12, 12).filter(bool))
def test_frac_and_div_write_an_int_when_integral(p, q):
    x = Fraction(p, q)
    for got in (frac(x), frac(str(x)), _div(p, q), _div(Fraction(p), q), _div(p, Fraction(q)),
                _div(x, 1)):
        assert got == x
        assert type(got) is (int if x.denominator == 1 else Fraction)
    assert type(frac(Fraction(p))) is int and type(frac(p)) is int


def test_frac_refuses_a_float_and_reads_a_bool_as_an_int():
    assert type(frac(True)) is int and frac(True) == 1 and frac(False) == 0
    for bad in (0.5, 1.0, None):
        with pytest.raises(TypeError):
            frac(bad)


def test_kron_identity():
    assert kron(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)


def test_kron_permutation_blocks():
    swap = Matrix([[0, 1], [1, 0]])
    k = kron(swap, Matrix.identity(2))
    expected = Matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    assert k == expected


@settings(max_examples=40)
@given(matrices2, matrices2, matrices2, matrices2)
def test_kron_mixed_product(a, b, c, d):
    # oracle: multiply first, then take the tensor product
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@settings(max_examples=25)
@given(matrices2, matrices2, matrices2)
def test_kron_associative_after_regrouping(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_kernel_of_identity_is_empty():
    assert Matrix.identity(2).kernel_basis().dim == 0


def test_kernel_of_zero_is_everything():
    basis = Matrix.from_entries(2, 2, ()).kernel_basis()
    assert basis.dim == 2
    assert vectors(basis) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_kernel_of_row():
    a = Matrix([[1, 1]])
    basis = a.kernel_basis()
    assert basis.dim == 1
    # canonical form has a leading one
    assert vectors(basis) == ((Fraction(1), Fraction(-1)),)
    assert a.apply(vectors(basis)[0]) == (Fraction(0),)


@settings(max_examples=40)
@given(st.lists(rationals, min_size=12, max_size=12))
def test_kernel_vectors_annihilate(entries):
    a = Matrix([entries[0:4], entries[4:8], entries[8:12]])
    basis = a.kernel_basis()
    for v in vectors(basis):
        assert all(x == 0 for x in a.apply(v))
    # rank-nullity, exactly
    assert len(a.rref()[1]) + basis.dim == a.cols


def test_solve_identity():
    b = (Fraction(3), Fraction(-1, 2))
    assert Matrix.identity(2).solve(b) == b


def test_solve_inconsistent_rows():
    assert Matrix([[1, 1], [2, 2]]).solve((1, 3)) is None


def test_solve_unique_flag():
    with pytest.raises(NonUniqueSolution):
        Matrix([[1, 1], [2, 2]]).solve((1, 2), unique=True)


@settings(max_examples=40)
@given(matrices2, vectors2)
def test_solve_substitute_back(m, v):
    rhs = m.apply(v)
    x = m.solve(rhs)
    assert x is not None
    assert m.apply(x) == rhs


def test_subspace_membership_and_equality():
    b1 = Matrix([(1, 1, 0), (0, 0, 1)]).transpose().column_space()
    b2 = Matrix([(2, 2, 2), (1, 1, -1)]).transpose().column_space()
    assert b1 == b2
    assert b1.coordinates((3, 3, 5)) is not None
    assert b1.coordinates((1, 0, 0)) is None
    coords = b1.coordinates((3, 3, 5))
    assert coords is not None
    rebuilt = [Fraction(0)] * 3
    for c, vec in zip(coords, vectors(b1)):
        rebuilt = [r + c * x for r, x in zip(rebuilt, vec)]
    assert tuple(rebuilt) == (3, 3, 5)


def test_inverse_round_trip():
    m = Matrix([[1, 2], [3, 5]])
    inv = m.inverse()
    assert inv is not None
    assert (m * inv).is_identity() and (inv * m).is_identity()
    assert Matrix([[1, 2], [2, 4]]).inverse() is None


# coefficients with zero drawn often, so zero terms are always exercised
coefficients = st.one_of(st.just(Fraction(0)), rationals)


@settings(max_examples=60)
@given(st.lists(st.tuples(coefficients, matrices2), max_size=5))
def test_matrix_lincomb_matches_scale_and_add(terms):
    expected = Matrix.from_entries(2, 2, ())
    for c, m in terms:
        expected = expected + Matrix.lincomb([(c, m)], m.rows, m.cols)
    assert Matrix.lincomb(terms, 2, 2) == expected


def test_lincomb_empty_and_shape_checks():
    assert Matrix.lincomb([], 2, 3) == Matrix.from_entries(2, 3, ())
    with pytest.raises(DimensionMismatch):
        Matrix.lincomb([(Fraction(1), Matrix.identity(3))], 2, 2)
