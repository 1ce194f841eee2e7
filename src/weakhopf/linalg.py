"""Exact rational sparse linear algebra.

Everything downstream (structure constants, axiom checkers, centralizers)
is built on the kernel in this module: matrices over the rationals, reduced
row echelon form, kernels, column spaces and linear solving.  All
arithmetic is exact; there is no floating point anywhere in the package.

Numbers have one form: an exact rational is an int when it is integral and
a reduced ``fractions.Fraction`` otherwise, never a float or a bool.  An int
n equals Fraction(n), hashes alike and prints alike, so comparisons, memo
keys and printed bytes are those of Fractions, while the entries that are
0 or +-1 compare, add and multiply in C.  `frac`, `_fractions` and `_div`
make numbers in that form; a Fraction product or sum elsewhere may still
be an integral Fraction.  `_div` is the one true division of the package:
a / between two ints would make a float.

A `Matrix` keeps one ``{col: rational}`` dict per row holding the nonzero
entries only.  Products, Kronecker products, sums and elimination walk those
dicts, so they cost time in the nonzeros rather than in rows x cols: the
projectors of truncated tensor products are up to 729 x 729 and almost all
zero.  ``Matrix.data`` is a dense list-of-lists view built on each access.

Sums of products run in integers: a row of `Matrix.lincomb` that sums two
or more terms, and a product row that does so with a coefficient other than
1, are scaled to integer numerators over a common denominator and summed as
ints (`_int_sum`).  A row with one term is that term's row, as it is when
its coefficient is 1 and scaled otherwise, and a product row whose
coefficients are all 1 adds entry by entry (`_add_into`), which copies the
entries of disjoint rows, as in products of 0/1 matrices, without any
arithmetic.  A product by an identity matrix takes the other factor's
rows as they are.  A whiskered product (A (x) id) X or (id (x) A) X
(`_whiskered`) is A times blocks of the rows of X, the same way, and builds
no Kronecker product.  The k-tensor kernels of `algebra` (`sparse_mul`,
`sparse_coproduct_leg`) sum in ints the same way, through `_ints` and
`_fractions`.  Elimination (`rref` and what is built on it) and the
one-vector membership test `SubspaceBasis.coordinates` add entry by entry.

A sum over the terms c e_a (x) e_b of a sparse 2-tensor, such as the action
of R, F or Delta(h), is grouped by its first leg a (`_by_first`):
sum c X_a * Y_b = sum_a X_a * (sum_b c Y_b), with the inner sum one
`Matrix.lincomb`, whether * is the Kronecker product (`_kron_sum`) or the
matrix product (`_product_sum`).  `_kron_sum` then works one row at a time
and builds no Kronecker product whole.

A subspace is kept as its reduced echelon basis with unit pivots, so the
coordinates of a vector in it are its entries at the pivots.  `_restrict`
writes a whole map into a subspace that way, as the map's rows at the
pivots, and checks them with one product by the basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, NonUniqueSolution

Q = Fraction
Q0 = 0
Q1 = 1


def frac(x):
    """The exact rational of an int, a Fraction or a string like ``"p/q"``:
    an int when it is integral, else a reduced Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, int):  # a bool
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("cannot build an exact rational from %r" % (x,))


def _div(x, y):
    """x / y for exact rationals x and nonzero y, as `frac` writes it.  It is
    the one true division of the package: a / between two ints would make
    a float."""
    q = Fraction(x, y) if type(x) is int and type(y) is int else x / y
    return q.numerator if q.denominator == 1 else q


def format_frac(x) -> str:
    """Canonical form: "p/q" with reduced terms, "p" when q == 1."""
    return str(x)


def _sparse(values, n):
    """{index: rational} of the nonzero entries of a length-n sequence."""
    out = {}
    length = 0
    for i, x in enumerate(values):
        length = i + 1
        x = frac(x)
        if x:
            out[i] = x
    if length != n:
        raise DimensionMismatch("ragged matrix rows")
    return out


def _transpose(rows, cols):
    out = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _dense(row, n) -> list:
    out = [Q0] * n
    for j, x in row.items():
        out[j] = x
    return out


def _add_into(row, c, other):
    """row += c * other in place, dropping entries that cancel."""
    one = c == 1
    for j, x in other.items():
        if not one:
            x = c * x
        y = row.get(j)
        if y is None:
            row[j] = x
        else:
            y += x
            if y:
                row[j] = y
            else:
                del row[j]


def _ints(row):
    """(d, {j: n}) with row[j] == n / d: the row's entries as integer
    numerators over d, the lcm of their denominators.  A row of ints is
    its own numerators over 1."""
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return 1, row
    d = 1
    nums = {}
    for j, x in row.items():
        n, q = x.as_integer_ratio()
        nums[j] = n
        if d % q:
            d = d // gcd(d, q) * q
    if d == 1:
        return 1, nums
    return d, {j: n * (d // row[j].denominator) for j, n in nums.items()}


def _int_sum(terms, shared):
    """sum c * row over the (c, _ints(row)) terms of one output row.

    Each product is scaled to an integer numerator over D, the lcm of the
    terms' denominators (c's times its row's), and summed in int; each
    nonzero sum v becomes one rational v / D, shared with equal entries
    through shared[D] (`_fractions`).
    """
    big = 1
    for c, (d, _) in terms:
        q = c.denominator * d
        if big % q:
            big = big // gcd(big, q) * q
    acc = {}
    get = acc.get
    for c, (d, ints) in terms:
        f = c.numerator * (big // (c.denominator * d))
        for j, v in ints.items():
            acc[j] = get(j, 0) + f * v
    built = shared.get(big)
    if built is None:
        built = shared[big] = {}
    return _fractions(acc, big, built)


def _fractions(acc, d, built):
    """{j: v / d} over the nonzero int sums v of acc, in acc's key order, as
    `frac` writes them: an int where d divides v.  built maps v to the
    rational built for it, so equal entries are built once: a dict lookup
    costs less than Fraction's gcd normalisation."""
    if d == 1:
        return {j: v for j, v in acc.items() if v}
    out = {}
    for j, v in acc.items():
        if v:
            x = built.get(v)
            if x is None:
                q, r = divmod(v, d)
                x = built[v] = Fraction(v, d) if r else q
            out[j] = x
    return out


def _scaled(c, row):
    """c * row, c nonzero: row itself when c is 1, else a new dict."""
    return row if c == 1 else {j: c * x for j, x in row.items()}


def _combined(arows, brows):
    """The rows sum_k a[k] brows[k], one for each sparse row a of arows: the
    rows of a product whose left factor has the rows arows.  A row of one
    term is that row of brows, scaled; see the module docstring for sums."""
    ints = shared = None  # for _int_sum, made on first use
    out = []
    for arow in arows:
        if len(arow) < 2:  # empty, or one scaled row of brows
            for k, a in arow.items():
                out.append(_scaled(a, brows[k]))
                break
            else:
                out.append({})
            continue
        for a in arow.values():
            if not a == 1:
                break
        else:  # a plain sum of rows of brows
            acc = {}
            for k in arow:
                _add_into(acc, Q1, brows[k])
            out.append(acc)
            continue
        if ints is None:
            ints, shared = {}, {}  # k -> _ints(brows[k]); see _int_sum
        terms = []
        for k, a in arow.items():
            brow = brows[k]
            if brow:
                s = ints.get(k)
                if s is None:
                    s = ints[k] = _ints(brow)
                terms.append((a, s))
        out.append(_int_sum(terms, shared))
    return out


def _reduced(basis, row):
    """The residual of the sparse row against basis, {pivot: row} kept fully
    reduced (`_insert`): empty exactly when row lies in the span.  Basis
    rows vanish at the other pivots, so one pass clears them all."""
    residual = dict(row)
    for p in [p for p in row if p in basis]:
        _add_into(residual, -row[p], basis[p])
    return residual


def _insert(basis, row):
    """Add the sparse row to basis, {pivot: row} kept fully reduced: each row
    is 1 at its pivot, its smallest column, and 0 at every other pivot.
    Returns whether the span grew.  It reduces row as `_reduced` does."""
    row = dict(row)
    for p in [p for p in row if p in basis]:
        _add_into(row, -row[p], basis[p])
    if not row:
        return False
    c = min(row)
    pv = row[c]
    if pv != 1:
        row = {j: _div(x, pv) for j, x in row.items()}
    for other in basis.values():
        f = other.get(c)
        if f is not None:
            _add_into(other, -f, row)
    basis[c] = row
    return True


def _rref_rows(rows):
    """Reduced row echelon form of the span of sparse rows.

    Returns (nonzero reduced rows in pivot order, pivot columns).  Rows are
    inserted one at a time (`_insert`).  The reduced echelon form of a row
    space is unique, so this is the same matrix column-by-column
    Gauss-Jordan produces.
    """
    basis = {}
    for row in rows:
        _insert(basis, row)
    pivots = tuple(sorted(basis))
    return [basis[p] for p in pivots], pivots


def _restrict(image, basis, fail):
    """image, whose columns lie in the span of basis, in basis coordinates.

    The basis is reduced echelon with unit pivots, so those coordinates are
    image's rows at the pivots, C, and every column lies in the span exactly
    when basis.embedding() * C == image.  Otherwise raises fail(j, v) for
    the first column j of image whose vector v is outside the span.
    """
    if image.rows != basis.ambient_dim:
        raise DimensionMismatch("restricted map has %d rows, not %d"
                                % (image.rows, basis.ambient_dim))
    rows = image.sparse_rows
    coords = Matrix._of(basis.dim, image.cols, [rows[p] for p in basis.pivots])
    spanned = basis.embedding() * coords
    if spanned != image:
        j = min(min(row) for row in (image - spanned).sparse_rows if row)
        raise fail(j, image.column(j))
    return coords


class Matrix:
    """rows x cols matrix of exact rationals acting on column vectors.

    ``sparse_rows[i]`` maps each column where row i is nonzero to its entry;
    no zero is ever stored, so equal matrices have equal rows.  Matrices are
    shared (cached structure maps, action matrices), so treat the rows as
    read-only: every operation returns a new matrix, whose rows may be row
    objects of its operands (a product row that is one row of the right
    factor, a lincomb row of one term with coefficient 1).  ``data`` is a
    dense copy, rebuilt on each access; writing into it changes nothing.
    """

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, data, rows=None, cols=None):
        """From dense rows of anything `frac` accepts; rows and cols fix
        the shape when data has no rows."""
        data = list(data)
        if rows is None:
            rows = len(data)
            cols = len(data[0]) if data else 0
        if len(data) != rows:
            raise DimensionMismatch("matrix has %d rows, not %d" % (len(data), rows))
        self.rows = rows
        self.cols = cols
        self.sparse_rows = [_sparse(row, cols) for row in data]

    @classmethod
    def _of(cls, rows, cols, sparse_rows):
        """Trusted constructor: sparse_rows already holds nonzeros only."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.sparse_rows = sparse_rows
        return m

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """Sum of the (r, c, x) entries, each adding the rational x at row r,
        column c."""
        out = [{} for _ in range(rows)]
        for r, c, x in entries:
            row = out[r]
            y = row.get(c)
            row[c] = x if y is None else y + x
        return cls._of(rows, cols, [{j: x for j, x in row.items() if x} for row in out])

    @classmethod
    def identity(cls, n):
        return cls._of(n, n, [{i: Q1} for i in range(n)])

    @classmethod
    def lincomb(cls, terms, rows, cols):
        """sum c M over the (c, M) pairs of terms, as a rows x cols matrix.

        A row that sums two or more terms is summed in integers by _int_sum."""
        kept = []
        for c, m in terms:
            if m.rows != rows or m.cols != cols:
                raise DimensionMismatch("lincomb term has wrong shape")
            if c:
                kept.append((c, m.sparse_rows))
        out, shared = [], {}
        for i in range(rows):
            present = [(c, mrows[i]) for c, mrows in kept if mrows[i]]
            if len(present) > 1:
                out.append(_int_sum([(c, _ints(row)) for c, row in present], shared))
            else:
                out.append(_scaled(*present[0]) if present else {})
        return cls._of(rows, cols, out)

    @classmethod
    def vstack(cls, mats, cols):
        """The rows of each matrix of mats in turn, as one matrix."""
        rows = []
        for m in mats:
            if m.cols != cols:
                raise DimensionMismatch("vstack term has wrong width")
            rows.extend(m.sparse_rows)
        return cls._of(len(rows), cols, rows)

    @property
    def data(self) -> list:
        """Dense rows as a fresh list of lists."""
        return [_dense(row, self.cols) for row in self.sparse_rows]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self.sparse_rows)))

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.rows, self.cols)

    def _plus(self, other, c, what):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix %s shape mismatch" % what)
        out = [dict(row) for row in self.sparse_rows]
        for orow, brow in zip(out, other.sparse_rows):
            _add_into(orow, c, brow)
        return Matrix._of(self.rows, self.cols, out)

    def __add__(self, other):
        return self._plus(other, Q1, "addition")

    def __sub__(self, other):
        return self._plus(other, -Q1, "subtraction")

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                "matrix product shape mismatch: %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        if self.is_identity():  # a product by an identity is the other factor
            return Matrix._of(other.rows, other.cols, list(other.sparse_rows))
        if other.is_identity():
            return Matrix._of(self.rows, self.cols, list(self.sparse_rows))
        return Matrix._of(self.rows, other.cols, _combined(self.sparse_rows, other.sparse_rows))

    def apply(self, v) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        out = []
        for row in self.sparse_rows:
            s = Q0
            for k, a in row.items():
                x = v[k]
                if x:
                    s += a * x
            out.append(s)
        return tuple(out)

    def column(self, j) -> tuple:
        return tuple(row.get(j, Q0) for row in self.sparse_rows)

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, _transpose(self.sparse_rows, self.cols))

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            len(row) == 1 and row.get(i) == 1 for i, row in enumerate(self.sparse_rows)
        )

    def rref(self):
        """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
        reduced, pivots = _rref_rows(self.sparse_rows)
        reduced.extend({} for _ in range(self.rows - len(reduced)))
        return Matrix._of(self.rows, self.cols, reduced), pivots

    def kernel_basis(self) -> "SubspaceBasis":
        """Canonical basis of the right null space {x : Ax = 0}."""
        red, pivots = self.rref()
        pivset = set(pivots)
        vectors = []
        for fc in range(self.cols):
            if fc in pivset:
                continue
            v = {fc: Q1}
            for r, pc in enumerate(pivots):
                x = red.sparse_rows[r].get(fc)
                if x is not None:
                    v[pc] = -x
            vectors.append(v)
        return SubspaceBasis._spanned(Matrix._of(len(vectors), self.cols, vectors))

    def column_space(self) -> "SubspaceBasis":
        if self.is_identity():  # Q^n, whose reduced basis is the standard one
            return SubspaceBasis(self.rows, [{i: Q1} for i in range(self.rows)], range(self.rows))
        return SubspaceBasis._spanned(self.transpose())

    def solve(self, b, unique=False):
        """Some x with Ax = b, or None when inconsistent.

        With unique=True, raises NonUniqueSolution when the solution space
        is positive-dimensional.
        """
        if len(b) != self.rows:
            raise DimensionMismatch("rhs length mismatch")
        n = self.cols
        aug = [dict(row) for row in self.sparse_rows]
        for row, x in zip(aug, b):
            x = frac(x)
            if x:
                row[n] = x
        red, pivots = Matrix._of(self.rows, n + 1, aug).rref()
        if n in pivots:
            return None  # a row reduced to [0 ... 0 | 1]
        if unique and len(pivots) < n:
            raise NonUniqueSolution("solution space has dimension > 0")
        x = [Q0] * n
        for r, pc in enumerate(pivots):
            x[pc] = red.sparse_rows[r].get(n, Q0)
        return tuple(x)

    def inverse(self):
        """Two-sided inverse, or None when singular."""
        if self.rows != self.cols:
            return None
        n = self.rows
        aug = [dict(row) for row in self.sparse_rows]
        for i, row in enumerate(aug):
            row[n + i] = Q1
        red, pivots = Matrix._of(n, 2 * n, aug).rref()
        if pivots[:n] != tuple(range(n)):
            return None
        return Matrix._of(
            n, n, [{j - n: x for j, x in row.items() if j >= n} for row in red.sparse_rows]
        )


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: (A (x) B)[i*rB+k, j*cB+l] = A[i,j] * B[k,l]."""
    width = b.cols
    out = []
    for arow in a.sparse_rows:
        terms = [(j * width, x == 1, x) for j, x in arow.items()]
        for brow in b.sparse_rows:
            row = {}
            for base, one, x in terms:
                if one:
                    for l, y in brow.items():
                        row[base + l] = y
                else:
                    for l, y in brow.items():
                        row[base + l] = x * y
            out.append(row)
    return Matrix._of(a.rows * b.rows, a.cols * width, out)


def _whiskered(a: Matrix, n, x: Matrix, first) -> Matrix:
    """kron(a, I_n) * x when first, else kron(I_n, a) * x, from the rows of a
    and x.  a is p x q.  Row i n + k of a (x) id_n picks the rows j n + k of
    x, so the rows i n + k of the product, for one k, are a times the rows
    k, n + k, ... of x; row k p + i of id_n (x) a picks the rows k q + j, so
    the product is a times each block of q rows of x in turn.  A row of a
    that is a lone 1 gives the row of x it picks, as it is."""
    p, q = a.rows, a.cols
    if x.rows != q * n:
        raise DimensionMismatch("whiskered product shape mismatch: %dx%d (x) id_%d by %dx%d"
                                % (p, q, n, x.rows, x.cols))
    rows = x.sparse_rows
    if first:
        blocks = [_combined(a.sparse_rows, rows[k::n]) for k in range(n)]
        out = [row for picked in zip(*blocks) for row in picked]
    else:
        out = [row for k in range(n) for row in _combined(a.sparse_rows, rows[k * q:k * q + q])]
    return Matrix._of(p * n, x.cols, out)


def _squared(a: Matrix, x: Matrix) -> Matrix:
    """kron(a, a) * x as two whiskered products: a (x) a is
    (a (x) id)(id (x) a)."""
    return _whiskered(a, a.rows, _whiskered(a, a.cols, x, first=False), first=True)


def _row_blocks(x: Matrix, n) -> Matrix:
    """x, p x (m n), with each row cut into its m blocks of n columns: the
    (p m) x n matrix whose row i m + g is block g of row i.  Then
    x (id_m (x) a) is, cut the same way, _row_blocks(x, n) * a."""
    m = x.cols // n
    rows = [{} for _ in range(x.rows * m)]
    for i, row in enumerate(x.sparse_rows):
        for j, v in row.items():
            g, c = divmod(j, n)
            rows[i * m + g][c] = v
    return Matrix._of(x.rows * m, n, rows)


def _by_first(x2):
    """The terms c e_a (x) e_b of the sparse 2-tensor x2 grouped by their
    first leg, as {a: {b: c}} in order of first use; zero c are dropped."""
    groups = {}
    for (a, b), c in x2.items():
        if c:
            groups.setdefault(a, {})[b] = c
    return groups


def _kron_sum(x2, left, right, m, n):
    """sum c kron(left[a], right[b]) over the terms c e_a (x) e_b of x2,
    every left[a] m x m and every right[b] n x n, as
    sum_a left[a] (x) (sum_b c right[b]): `_kron_rows` sums one Kronecker
    product per first leg whose inner sum is not zero."""
    parts = []
    for a, bs in _by_first(x2).items():
        b = Matrix.lincomb(((c, right[b]) for b, c in bs.items()), n, n)
        if any(b.sparse_rows):
            parts.append((left[a], b))
    return _kron_rows(parts, m, n)


def _product_sum(x2, left, right, n):
    """sum c left[a] right[b] over the terms c e_a (x) e_b of x2, every
    matrix n x n, as sum_a left[a] (sum_b c right[b]): one product per
    first leg."""
    return Matrix.lincomb(
        ((Q1, left[a] * Matrix.lincomb(((c, right[b]) for b, c in bs.items()), n, n))
         for a, bs in _by_first(x2).items()), n, n)


def _kron_rows(parts, m, n):
    """sum kron(A, B) over the (A, B) parts, one row at a time, so that no
    kron(A, B) is built whole.  A row with one term is its Kronecker row; a
    row with more is summed in integers from the rows of A and B as integer
    numerators (_ints)."""
    ints = {}  # id(A) -> _ints of each row of A, built on first use
    out, shared = [], {}
    for ra in range(m):
        # the terms whose A has a nonzero row ra, with that row of A as
        # (column offset, entry, entry is 1) triples
        lefts = [(a, b, [(p * n, x, x == 1) for p, x in a.sparse_rows[ra].items()])
                 for a, b in parts if a.sparse_rows[ra]]
        for rb in range(n):
            present = [t for t in lefts if t[1].sparse_rows[rb]]
            if len(present) > 1:
                row = []
                for a, b, _ in present:
                    for x in (a, b):
                        if id(x) not in ints:
                            ints[id(x)] = [_ints(r) for r in x.sparse_rows]
                    (da, ia), (db, ib) = ints[id(a)][ra], ints[id(b)][rb]
                    row.append((Q1, (da * db, {p * n + q: u * v for p, u in ia.items()
                                               for q, v in ib.items()})))
                out.append(_int_sum(row, shared))
                continue
            row = {}
            for _, b, left in present:
                y = b.sparse_rows[rb]
                for base, x, one in left:
                    if one:
                        for q, v in y.items():
                            row[base + q] = v
                    else:
                        for q, v in y.items():
                            row[base + q] = x * v
            out.append(row)
    return Matrix._of(m * n, m * n, out)


class SubspaceBasis:
    """Canonical (reduced row echelon) basis of a subspace of Q^n.

    Canonical form makes subspace equality a structural comparison and
    membership a pivot-indexed reduction.  The basis is stored as sparse
    rows only.
    """

    __slots__ = ("ambient_dim", "sparse_rows", "pivots")

    def __init__(self, ambient_dim, rows, pivots):
        """rows: the basis as sparse rows in reduced row echelon form with
        the given pivots."""
        self.ambient_dim = ambient_dim
        self.sparse_rows = rows
        self.pivots = tuple(pivots)

    @classmethod
    def _spanned(cls, m: Matrix) -> "SubspaceBasis":
        """Canonical basis of the span of the rows of m."""
        if not m.rows:
            return cls(m.cols, [], ())
        red, pivots = m.rref()
        return cls(m.cols, red.sparse_rows[:len(pivots)], pivots)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots,
                     tuple(frozenset(row.items()) for row in self.sparse_rows)))

    def __repr__(self):
        return "SubspaceBasis(dim %d in Q^%d)" % (self.dim, self.ambient_dim)

    def _residual(self, row):
        """The sparse vector row minus its pivot entries times the basis
        rows: empty exactly when row lies in the span."""
        return _reduced(dict(zip(self.pivots, self.sparse_rows)), row)

    def coordinates(self, v):
        """Coefficients of v in this basis, or None when v is outside."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        if self._residual({i: x for i, x in enumerate(v) if x}):
            return None
        return tuple(v[p] for p in self.pivots)

    def embedding(self) -> Matrix:
        """ambient_dim x dim matrix whose columns are the basis vectors."""
        return Matrix._of(self.dim, self.ambient_dim, self.sparse_rows).transpose()

    def square(self) -> "SubspaceBasis":
        """The basis b_i (x) b_j of the tensor square, in (i, j) order: again
        reduced echelon, with pivots p_i n + p_j."""
        n = self.ambient_dim
        rows = Matrix._of(self.dim, n, self.sparse_rows)
        return SubspaceBasis(n * n, kron(rows, rows).sparse_rows,
                             (p * n + q for p in self.pivots for q in self.pivots))
