"""Differential tests: the sparse-row kernels of `Matrix` and `SubspaceBasis`
against the dense reference kernels in `dense_oracle`, on small rational
matrices where zeros are drawn often and 0-row / 0-column shapes occur."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from weakhopf import linalg
from weakhopf.errors import DimensionMismatch, NonUniqueSolution
from weakhopf.linalg import (
    Matrix,
    SubspaceBasis,
    _kron_sum,
    _product_sum,
    _restrict,
    _whiskered,
    kron,
)

Q0 = Fraction(0)

entries = st.one_of(
    st.just(Q0),
    st.just(Q0),
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)
dims = st.integers(0, 4)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return Matrix(data, rows, cols)


@st.composite
def matrix_pairs(draw):
    """(a, b) with a * b defined."""
    a = draw(matrices())
    return a, draw(matrices(rows=a.cols))


@st.composite
def systems(draw):
    a = draw(matrices())
    return a, tuple(draw(entries) for _ in range(a.rows))


def assert_sparse(m, canonical=False):
    """No explicit zero is stored, every column index is in range and every
    entry is an exact rational: an int or a Fraction, never a bool.  With
    canonical, where the form is promised (`linalg.frac`), an integral
    entry is an int.  The callers compare the entries with the oracle's."""
    assert len(m.sparse_rows) == m.rows
    for row in m.sparse_rows:
        assert all(type(x) in (int, Fraction) and x for x in row.values())
        assert all(0 <= j < m.cols for j in row)
        if canonical:
            assert all(type(x) is int or x.denominator != 1 for x in row.values())


@settings(max_examples=150)
@given(matrices())
def test_data_view_round_trips(a):
    assert_sparse(a, canonical=True)
    view = a.data
    assert len(view) == a.rows and all(len(row) == a.cols for row in view)
    assert Matrix(view, a.rows, a.cols) == a
    if a.rows and a.cols:  # writing into the view leaves the matrix alone
        view[0][0] += 1
        assert a.data[0][0] == view[0][0] - 1


@settings(max_examples=150)
@given(matrix_pairs())
def test_product_and_apply_match_dense(pair):
    a, b = pair
    prod = a * b
    assert_sparse(prod)
    assert prod.data == dense.matmul(a, b)
    for j in range(b.cols):
        v = b.column(j)
        assert a.apply(v) == dense.apply(a, v)


@settings(max_examples=100)
@given(matrices(), matrices())
def test_kron_matches_dense(a, b):
    k = kron(a, b)
    assert_sparse(k)
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    assert k.data == dense.kron(a, b)


@settings(max_examples=100)
@given(dims, dims, st.data())
def test_lincomb_matches_dense(rows, cols, data):
    terms = data.draw(st.lists(st.tuples(entries, matrices(rows, cols)), max_size=4))
    # each term once more with the opposite sign: everything cancels
    cancel = terms + [(-c, m) for c, m in terms]
    got = Matrix.lincomb(terms, rows, cols)
    assert_sparse(got)
    assert got.data == dense.lincomb(terms, rows, cols)
    assert Matrix.lincomb(cancel, rows, cols) == Matrix.from_entries(rows, cols, ())


@settings(max_examples=150)
@given(matrices())
def test_rref_matches_dense(a):
    red, pivots = a.rref()
    assert_sparse(red)
    want, want_pivots = dense.rref(a)
    assert pivots == want_pivots
    assert red.data == want


@settings(max_examples=150)
@given(matrices())
def test_kernel_and_column_space_match_dense(a):
    ker = a.kernel_basis()
    assert (dense.vectors(ker), ker.pivots) == dense.kernel_basis(a)
    img = a.column_space()
    assert (dense.vectors(img), img.pivots) == dense.column_space(a)
    assert ker.dim + img.dim == a.cols


@settings(max_examples=150)
@given(systems())
def test_solve_matches_dense(system):
    a, b = system
    want, rank = dense.solve(a, b)
    assert a.solve(b) == want
    if want is None:  # inconsistent
        assert a.solve(b, unique=True) is None
    elif rank < a.cols:
        with pytest.raises(NonUniqueSolution):
            a.solve(b, unique=True)
    else:
        assert a.solve(b, unique=True) == want
    if want is not None:
        assert a.apply(want) == tuple(Fraction(x) for x in b)


@settings(max_examples=150)
@given(st.integers(0, 4).flatmap(lambda n: matrices(n, n)))
def test_inverse_matches_dense(a):
    inv = a.inverse()
    want = dense.inverse(a)
    if want is None:
        assert inv is None
        assert len(a.rref()[1]) < a.rows
    else:
        assert_sparse(inv)
        assert inv.data == want
        assert (a * inv).is_identity() and (inv * a).is_identity()
    if a.rows >= 2:  # a repeated row makes it singular
        data = a.data
        data[1] = list(data[0])
        assert Matrix(data).inverse() is None


@settings(max_examples=150)
@given(st.tuples(dims, dims).flatmap(lambda s: st.tuples(matrices(*s), matrices(*s))))
def test_no_stored_zero_after_cancellation(pair):
    a, b = pair
    zero = Matrix.from_entries(a.rows, a.cols, ())
    half = Matrix.lincomb([(Fraction(1, 2), a)], a.rows, a.cols)
    for m in (a - a, a + b - b - a, Matrix.lincomb([(0, a)], a.rows, a.cols),
              half * Matrix.from_entries(a.cols, 0, ())):
        assert_sparse(m)
    assert a - a == zero and hash(a - a) == hash(zero)
    assert a + b - b == a and hash(a + b - b) == hash(a)
    assert Matrix.lincomb([(0, a)], a.rows, a.cols) == zero
    assert (a + b).data == [[x + y for x, y in zip(r, s)] for r, s in zip(a.data, b.data)]


def test_from_entries_sums_and_drops_cancelled_entries():
    one = Fraction(1)
    m = Matrix.from_entries(2, 3, [(0, 1, one), (0, 1, -one), (1, 2, one), (1, 2, one)])
    assert m.sparse_rows == [{}, {2: Fraction(2)}]
    assert m == Matrix([[0, 0, 0], [0, 0, 2]])


def test_transpose_and_vstack():
    a = Matrix([[1, 0, 2], [0, 0, 3]])
    assert a.transpose() == Matrix([[1, 0], [0, 0], [2, 3]])
    assert Matrix.vstack([a, Matrix.from_entries(0, 3, ()), a], 3) == Matrix(a.data + a.data)


@settings(max_examples=150)
@given(matrices(), st.data())
def test_coordinates_match_dense(a, data):
    # the span of a's rows, possibly 0-dimensional; a vector inside it (a
    # combination of the rows) and one drawn freely, mostly outside
    basis = a.transpose().column_space()
    vectors, pivots = dense.spanning_basis(a.data, a.cols)
    assert (dense.vectors(basis), basis.pivots) == (vectors, pivots)
    coeffs = [data.draw(entries) for _ in range(a.rows)]
    inside = tuple(sum((c * x for c, x in zip(coeffs, col)), Q0) for col in zip(*a.data)) \
        if a.rows else (Q0,) * a.cols
    free = tuple(data.draw(entries) for _ in range(a.cols))
    for v in (inside, free):
        assert basis.coordinates(v) == dense.coordinates(vectors, pivots, v)
    assert basis.coordinates(inside) is not None
    with pytest.raises(DimensionMismatch):
        basis.coordinates(free + (Q0,))


# Denominators up to 12 and rows that mix unit and non-unit coefficients, so
# that one product or lincomb copies its single-term rows and sums the others
# in integers over a common denominator, some of them to zero.
wide = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
units = st.sampled_from((Q0, Fraction(1)))
# integers too, so that some sums have the common denominator 1
mixed = st.one_of(wide, units, st.builds(Fraction, st.integers(-3, 3)))


@st.composite
def mixed_rows(draw, cols, width):
    """A row of each kind: two or more ones (a plain sum), one entry, two
    non-unit entries c and -c on columns 0 and 1 (a sum that cancels against
    the repeated row 0 of the right factor) and free rows."""
    ones = [Fraction(1)] * 2 + [draw(units) for _ in range(cols - 2)]
    single = [Q0] * cols
    single[draw(st.integers(0, cols - 1))] = draw(wide.filter(bool))
    c = draw(wide.filter(lambda x: x and x != 1 and x != -1))
    cancel = [c, -c] + [Q0] * (cols - 2)
    free = [[draw(mixed) for _ in range(cols)] for _ in range(width)]
    rows = [ones, single, cancel] + free
    return draw(st.permutations(rows))


@settings(max_examples=150)
@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 3), st.data())
def test_integer_sums_in_products_match_dense(k, m, extra, data):
    a = Matrix(data.draw(mixed_rows(k, extra)), 3 + extra, k)
    brows = [[data.draw(mixed) for _ in range(m)] for _ in range(k)]
    brows[1] = list(brows[0])
    b = Matrix(brows, k, m)
    prod = a * b
    assert_sparse(prod)
    assert prod.data == dense.matmul(a, b)
    for arow, prow in zip(a.sparse_rows, prod.sparse_rows):
        if set(arow) == {0, 1} and arow[0] == -arow[1]:
            assert prow == {}


@settings(max_examples=100)
@given(dims, dims, st.data())
def test_integer_sums_in_lincomb_match_dense(rows, cols, data):
    mats = st.builds(lambda d: Matrix(d, rows, cols),
                     st.lists(st.lists(mixed, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))
    unit_terms = data.draw(st.lists(st.tuples(st.just(Fraction(1)), mats), max_size=3))
    other_terms = data.draw(st.lists(st.tuples(mixed, mats), min_size=1, max_size=3))
    terms = data.draw(st.permutations(unit_terms + other_terms))
    got = Matrix.lincomb(terms, rows, cols)
    assert_sparse(got)
    assert got.data == dense.lincomb(terms, rows, cols)
    cancel = terms + [(-c, m) for c, m in other_terms] + [(-c, m) for c, m in unit_terms]
    assert Matrix.lincomb(cancel, rows, cols) == Matrix.from_entries(rows, cols, ())


def test_integer_sums_share_equal_entries():
    half, third = Fraction(1, 2), Fraction(1, 3)
    prod = Matrix([[half, third], [third, half]]) * Matrix([[1, 1], [1, 1]])
    entries = [x for row in prod.sparse_rows for x in row.values()]
    assert entries == [Fraction(5, 6)] * 4
    assert all(x is entries[0] for x in entries)


def _squares(k):
    return st.builds(lambda d: Matrix(d, k, k),
                     st.lists(st.lists(mixed, min_size=k, max_size=k), min_size=k, max_size=k))


def _negated(m):
    return Matrix.lincomb([(-1, m)], m.rows, m.cols)


def _two_tensors(lefts, rights, max_size):
    """Sparse 2-tensors {(a, b): c} over the indices of lefts and rights,
    zero coefficients included."""
    return st.dictionaries(st.tuples(st.integers(0, len(lefts) - 1),
                                     st.integers(0, len(rights) - 1)), mixed, max_size=max_size)


def _dense_term_sum(x2, lefts, rights, product, size):
    """sum c product(lefts[a], rights[b]) over the terms of x2, summed
    densely one term at a time."""
    return dense.lincomb([(c, Matrix(product(lefts[a], rights[b]), size, size))
                          for (a, b), c in x2.items()], size, size)


@settings(max_examples=100)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_kron_sum_matches_dense(m, n, data):
    # rows with no term, one term and several; terms that share a factor
    # index; then every term again, once under the negated second factor,
    # so that each group's B's cancel, and once under the negated first
    # factor, so that the groups cancel each other row by row
    lefts = data.draw(st.lists(_squares(m), min_size=1, max_size=3))
    rights = data.draw(st.lists(_squares(n), min_size=1, max_size=3))
    x2 = data.draw(_two_tensors(lefts, rights, 4))
    got = _kron_sum(x2, lefts, rights, m, n)
    assert_sparse(got)
    assert got.data == _dense_term_sum(x2, lefts, rights, dense.kron, m * n)
    zero = Matrix.from_entries(m * n, m * n, ())
    j = len(rights)
    within = {**x2, **{(a, b + j): c for (a, b), c in x2.items()}}
    assert _kron_sum(within, lefts, rights + [_negated(b) for b in rights], m, n) == zero
    k = len(lefts)
    across = {**x2, **{(a + k, b): c for (a, b), c in x2.items()}}
    assert _kron_sum(across, lefts + [_negated(a) for a in lefts], rights, m, n) == zero


def _copy(m):
    """An equal matrix that is a distinct object."""
    return Matrix._of(m.rows, m.cols, [dict(row) for row in m.sparse_rows])


@settings(max_examples=150)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_kron_sum_grouped_by_first_leg_matches_dense(m, n, data):
    # the grouping is by the first leg's index: repeated indices, distinct
    # indices of one matrix object and of equal-valued distinct objects,
    # zero coefficients, and a group whose B terms cancel to zero (B and a
    # distinct -B under one first leg)
    lefts = data.draw(st.lists(_squares(m), min_size=1, max_size=2))
    lefts += [_copy(a) for a in lefts] + lefts
    rights = data.draw(st.lists(_squares(n), min_size=1, max_size=3))
    half = len(rights)
    rights += [_negated(b) for b in rights]
    x2 = data.draw(_two_tensors(lefts, rights, 6))
    a = data.draw(st.integers(0, len(lefts) - 1))
    b = data.draw(st.integers(0, half - 1))
    x2[a, b] = x2[a, b + half] = data.draw(mixed)
    got = _kron_sum(x2, lefts, rights, m, n)
    assert_sparse(got)
    assert got.data == _dense_term_sum(x2, lefts, rights, dense.kron, m * n)


def test_kron_sum_sums_one_kronecker_product_per_first_leg(monkeypatch):
    a, a_equal = Matrix([[1, 2], [0, 1]]), Matrix([[1, 2], [0, 1]])
    b1, b2 = Matrix([[1, 0], [0, 3]]), Matrix([[0, Fraction(1, 2)], [1, 0]])
    seen = []
    real = linalg._kron_rows

    def recording(parts, m, n):
        seen.append([(id(x), y) for x, y in parts])
        return real(parts, m, n)

    monkeypatch.setattr(linalg, "_kron_rows", recording)
    # the terms of first leg 0 are one part; first leg 1, whose matrix is
    # equal-valued to leg 0's, is another; a zero coefficient is dropped;
    # the B's of first leg 2 cancel and drop its group
    left, right = [a, a_equal, b1], [b1, b2, _negated(b2)]
    x2 = {(0, 0): Fraction(2), (0, 1): Fraction(-1), (1, 0): Fraction(3), (1, 1): Q0,
          (2, 1): Fraction(1), (2, 2): Fraction(1)}
    got = _kron_sum(x2, left, right, 2, 2)
    want = Matrix.lincomb([(c, Matrix(dense.kron(left[x], right[y]), 4, 4))
                           for (x, y), c in x2.items()], 4, 4)
    assert got == want
    assert seen == [[(id(a), Matrix.lincomb([(2, b1), (-1, b2)], 2, 2)),
                     (id(a_equal), Matrix.lincomb([(3, b1)], 2, 2))]]


@settings(max_examples=100)
@given(st.integers(0, 3), st.data())
def test_product_sum_matches_dense(n, data):
    # as for _kron_sum: shared factor indices, zero coefficients, and a
    # group whose right factors cancel
    lefts = data.draw(st.lists(_squares(n), min_size=1, max_size=3))
    rights = data.draw(st.lists(_squares(n), min_size=1, max_size=3))
    half = len(rights)
    rights += [_negated(b) for b in rights]
    x2 = data.draw(_two_tensors(lefts, rights, 6))
    a = data.draw(st.integers(0, len(lefts) - 1))
    b = data.draw(st.integers(0, half - 1))
    x2[a, b] = x2[a, b + half] = data.draw(mixed)
    got = _product_sum(x2, lefts, rights, n)
    assert_sparse(got)
    assert got.data == _dense_term_sum(x2, lefts, rights, dense.matmul, n)


def test_column_space_of_the_identity_is_the_standard_basis(monkeypatch):
    n = 5
    rref_calls = []
    real = Matrix.rref

    def counting(self):
        rref_calls.append(self.rows)
        return real(self)

    spanned = SubspaceBasis._spanned(Matrix.identity(n).transpose())
    monkeypatch.setattr(Matrix, "rref", counting)
    got = Matrix.identity(n).column_space()
    assert got == spanned and got.pivots == tuple(range(n)) and not rref_calls
    assert got.sparse_rows == [{i: Fraction(1)} for i in range(n)]
    # one off-diagonal entry: not the identity, so reduced as before
    near = Matrix.identity(n).sparse_rows
    near[1] = {1: Fraction(1), 3: Fraction(1, 2)}
    near = Matrix._of(n, n, near)
    assert not near.is_identity()
    got = near.column_space()
    assert rref_calls == [n]
    assert got == SubspaceBasis._spanned(near.transpose())
    assert Matrix.identity(0).column_space() == SubspaceBasis(0, [], ())


@settings(max_examples=150)
@given(st.integers(0, 3).flatmap(lambda n: matrices(cols=n)), st.data())
def test_restrict_matches_dense_coordinates(a, data):
    # maps into the span of a's rows and into its tensor square, whose
    # columns are combinations of the spanning vectors or drawn freely
    # (mostly outside); the dense coordinates give each column's image, or
    # name the first column outside
    n = a.cols
    basis = a.transpose().column_space()
    vectors, pivots = dense.vectors(basis), basis.pivots
    products = [[x * y for x in u for y in v] for u in vectors for v in vectors]
    square = basis.square()
    assert square == Matrix(products, len(products), n * n).transpose().column_space()

    def fail(j, v):
        return LookupError(j, v)

    for target, span, coordinates in (
            (basis, vectors, lambda v: dense.coordinates(vectors, pivots, v)),
            (square, products, lambda v: dense.pair_coordinates(vectors, pivots, n, v))):
        size = target.ambient_dim
        columns = []
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                coeffs = [data.draw(entries) for _ in span]
                columns.append(tuple(sum((c * u[k] for c, u in zip(coeffs, span)), Q0)
                                     for k in range(size)))
            else:
                columns.append(tuple(data.draw(entries) for _ in range(size)))
        image = Matrix(columns, len(columns), size).transpose()
        coords = [coordinates(v) for v in columns]
        outside = [j for j, c in enumerate(coords) if c is None]
        if outside:
            with pytest.raises(LookupError) as err:
                _restrict(image, target, fail)
            assert err.value.args == (outside[0], columns[outside[0]])
        else:
            got = _restrict(image, target, fail)
            assert_sparse(got)
            assert got == Matrix(coords, len(coords), target.dim).transpose()
        for rows in (size - 1, size + 1) if size else (1,):
            with pytest.raises(DimensionMismatch):
                _restrict(Matrix.from_entries(rows, 1, ()), target, fail)


@settings(max_examples=100)
@given(matrices(), st.booleans())
def test_product_by_an_identity_matches_dense(a, on_the_left):
    # a product by an identity matrix returns the other factor's rows
    ident = Matrix.identity(a.rows if on_the_left else a.cols)
    prod = ident * a if on_the_left else a * ident
    assert_sparse(prod)
    assert prod.data == (dense.matmul(ident, a) if on_the_left else dense.matmul(a, ident))
    assert prod == a
    with pytest.raises(DimensionMismatch):
        Matrix.identity(a.rows + 1) * a
    with pytest.raises(DimensionMismatch):
        a * Matrix.identity(a.cols + 1)


@settings(max_examples=150)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 3), st.booleans(), st.data())
def test_whiskered_product_matches_dense(q, n, cols, first, data):
    # a has a row of each kind of mixed_rows (a plain sum, one non-unit
    # term, c and -c on columns 0 and 1, free rows), a zero row and a lone
    # 1; n = 1 is drawn too.  The two rows of x that columns 0 and 1 pick
    # for one k are equal, so the row c, -c sums to zero
    rows = data.draw(mixed_rows(q, 1)) + [[Q0] * q, [Q0] * (q - 1) + [Fraction(1)]]
    a = Matrix(rows, len(rows), q)
    xrows = [[data.draw(mixed) for _ in range(cols)] for _ in range(q * n)]
    for k in range(n):
        if first:  # row j n + k of x for column j
            xrows[n + k] = list(xrows[k])
        else:  # row k q + j
            xrows[k * q + 1] = list(xrows[k * q])
    x = Matrix(xrows, q * n, cols)
    ident = Matrix.identity(n)
    whisker = Matrix(dense.kron(a, ident) if first else dense.kron(ident, a), a.rows * n, q * n)
    got = _whiskered(a, n, x, first)
    assert_sparse(got)
    assert got.data == dense.matmul(whisker, x)
    assert got == (kron(a, ident) if first else kron(ident, a)) * x
    # a lone 1 takes the row of x it picks as it is
    i, j = a.rows - 1, q - 1
    for k in range(n):
        r, picked = (i * n + k, j * n + k) if first else (k * a.rows + i, k * q + j)
        assert got.sparse_rows[r] is x.sparse_rows[picked]
    with pytest.raises(DimensionMismatch):
        _whiskered(a, n + 1, x, first)
    empty = Matrix.from_entries(0, q, ())
    assert _whiskered(empty, n, x, first) == Matrix.from_entries(0, cols, ())


@settings(max_examples=100)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_kernels_leave_their_operands_unchanged(m, n, first, data):
    # a result may share row objects with its operands (see Matrix), so no
    # kernel may write into an operand's rows: each operand is deep-copied
    # before the call and compared after it
    a = data.draw(matrices(rows=m * n))
    b = data.draw(matrices(rows=a.cols))
    c = data.draw(matrices(rows=a.rows, cols=a.cols))
    lefts = data.draw(st.lists(_squares(m), min_size=1, max_size=2))
    rights = data.draw(st.lists(_squares(n), min_size=1, max_size=2))
    x2 = data.draw(_two_tensors(lefts, rights, 3))
    w = data.draw(matrices(cols=m))
    x = data.draw(matrices(rows=m * n))
    basis = data.draw(matrices(cols=a.rows)).transpose().column_space()
    image = basis.embedding() * data.draw(matrices(rows=basis.dim))
    scale = data.draw(mixed)

    def fail(j, v):
        return LookupError(j, v)

    calls = [
        (lambda: a * b, (a, b)),
        (lambda: Matrix.identity(a.rows) * a, (a,)),
        (lambda: a * Matrix.identity(a.cols), (a,)),
        (lambda: Matrix.lincomb([(Fraction(1), a), (scale, c)], a.rows, a.cols), (a, c)),
        (lambda: _kron_sum(x2, lefts, rights, m, n), (x2, lefts, rights)),
        (lambda: _whiskered(w, n, x, first), (w, x)),
        (lambda: _restrict(image, basis, fail), (image, basis)),
        (lambda: a.rref(), (a,)),
    ]
    for call, operands in calls:
        before = copy.deepcopy(operands)
        call()
        assert operands == before
