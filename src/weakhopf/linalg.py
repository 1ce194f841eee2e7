"""Exact rational dense linear algebra.

Everything downstream (structure constants, axiom checkers, centralizers)
is built on the kernel in this module: matrices over ``fractions.Fraction``,
reduced row echelon form, kernels, column spaces and linear solving.  All
arithmetic is exact; there is no floating point anywhere in the package.
Intended dimensions are small (ambient spaces up to a few hundred), so the
dense cubic algorithms below are more than fast enough.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, NonUniqueSolution

Q = Fraction
Q0 = Fraction(0)
Q1 = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"p/q"`` and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("cannot build an exact rational from %r" % (x,))


def format_frac(x: Fraction) -> str:
    """Canonical form: "p/q" with reduced terms, "p" when q == 1."""
    return str(x)


def vec(values) -> tuple:
    return tuple(frac(v) for v in values)


def outer(x, y, c=Q1, out=None):
    """c (x (x) y) as a flat vector of length len(x) * len(y).

    With out given (a list), the product is added into it in place.
    """
    if out is None:
        out = [Q0] * (len(x) * len(y))
    width = len(y)
    for p, cp in enumerate(x):
        if cp:
            base = p * width
            ccp = c * cp
            for q, cq in enumerate(y):
                if cq:
                    out[base + q] += ccp * cq
    return out


def lincomb(terms, n) -> tuple:
    """sum c v over the (c, v) pairs of terms, as a length-n tuple.

    Every "add c times this vector" sum in the package goes through here,
    once per output vector.
    """
    out = [Q0] * n
    for c, v in terms:
        if len(v) != n:
            raise DimensionMismatch("lincomb term has wrong length")
        if c:
            for r, x in enumerate(v):
                if x:
                    out[r] += c * x
    return tuple(out)


class Matrix:
    """Dense rows x cols matrix of Fractions acting on column vectors."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        if rows is None:
            self.data = [[frac(x) for x in row] for row in data]
            self.rows = len(self.data)
            self.cols = len(self.data[0]) if self.data else 0
        else:
            self.rows = rows
            self.cols = cols
            self.data = data  # trusted: list of lists of Fractions
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def zero(cls, rows, cols):
        return cls([[Q0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n):
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i][i] = Q1
        return m

    @classmethod
    def lincomb(cls, terms, rows, cols):
        """sum c M over the (c, M) pairs of terms, as a rows x cols matrix."""
        out = cls.zero(rows, cols)
        for c, m in terms:
            if m.rows != rows or m.cols != cols:
                raise DimensionMismatch("lincomb term has wrong shape")
            if c:
                for orow, mrow in zip(out.data, m.data):
                    for j, x in enumerate(mrow):
                        if x:
                            orow[j] += c * x
        return out

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [vec(c) for c in columns]
        if rows is None:
            rows = len(columns[0]) if columns else 0
        m = cls.zero(rows, len(columns))
        for j, c in enumerate(columns):
            if len(c) != rows:
                raise DimensionMismatch("column length mismatch")
            for i in range(rows):
                m.data[i][j] = c[i]
        return m

    @classmethod
    def from_rows(cls, rws, cols=None):
        rws = [vec(r) for r in rws]
        if cols is None:
            cols = len(rws[0]) if rws else 0
        return cls([list(r) for r in rws], len(rws), cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.rows, self.cols)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def scale(self, c):
        c = frac(c)
        return Matrix([[c * x for x in row] for row in self.data], self.rows, self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                "matrix product shape mismatch: %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        out = Matrix.zero(self.rows, other.cols)
        odata = out.data
        bdata = other.data
        for i, arow in enumerate(self.data):
            orow = odata[i]
            for k, a in enumerate(arow):
                if a:
                    brow = bdata[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return out

    def apply(self, v) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        out = [Q0] * self.rows
        for i, row in enumerate(self.data):
            s = Q0
            for a, x in zip(row, v):
                if a and x:
                    s += a * x
            out[i] = s
        return tuple(out)

    def column(self, j) -> tuple:
        return tuple(row[j] for row in self.data)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            x == (Q1 if i == j else Q0)
            for i, row in enumerate(self.data)
            for j, x in enumerate(row)
        )

    def rref(self):
        """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
        m = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pr = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            if pv != 1:
                m[r] = [x / pv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(m, self.rows, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "SubspaceBasis":
        """Canonical basis of the right null space {x : Ax = 0}."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        vectors = []
        for fc in free:
            v = [Q0] * self.cols
            v[fc] = Q1
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][fc]
            vectors.append(tuple(v))
        return SubspaceBasis.from_spanning(self.cols, vectors)

    def column_space(self) -> "SubspaceBasis":
        return SubspaceBasis.from_spanning(self.rows, [self.column(j) for j in range(self.cols)])

    def solve(self, b, unique=False):
        """Some x with Ax = b, or None when inconsistent.

        With unique=True, raises NonUniqueSolution when the solution space
        is positive-dimensional.
        """
        if len(b) != self.rows:
            raise DimensionMismatch("rhs length mismatch")
        aug = Matrix(
            [row[:] + [frac(x)] for row, x in zip(self.data, b)], self.rows, self.cols + 1
        )
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None  # a row reduced to [0 ... 0 | 1]
        if unique and len(pivots) < self.cols:
            raise NonUniqueSolution("solution space has dimension > 0")
        x = [Q0] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.data[r][self.cols]
        return tuple(x)

    def inverse(self):
        """Two-sided inverse, or None when singular."""
        if self.rows != self.cols:
            return None
        n = self.rows
        aug = Matrix(
            [self.data[i][:] + [Q1 if j == i else Q0 for j in range(n)] for i in range(n)],
            n,
            2 * n,
        )
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
            return None
        return Matrix([row[n:] for row in red.data], n, n)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: (A (x) B)[i*rB+k, j*cB+l] = A[i,j] * B[k,l]."""
    out = Matrix.zero(a.rows * b.rows, a.cols * b.cols)
    od = out.data
    for i in range(a.rows):
        arow = a.data[i]
        for j in range(a.cols):
            x = arow[j]
            if not x:
                continue
            roff = i * b.rows
            coff = j * b.cols
            for k in range(b.rows):
                brow = b.data[k]
                orow = od[roff + k]
                for l in range(b.cols):
                    if brow[l]:
                        orow[coff + l] = x * brow[l]
    return out


class SubspaceBasis:
    """Canonical (reduced row echelon) basis of a subspace of Q^n.

    Canonical form makes subspace equality a structural comparison and
    membership a pivot-indexed reduction.
    """

    __slots__ = ("ambient_dim", "vectors", "pivots")

    def __init__(self, ambient_dim, vectors, pivots):
        self.ambient_dim = ambient_dim
        self.vectors = tuple(tuple(v) for v in vectors)
        self.pivots = tuple(pivots)

    @classmethod
    def from_spanning(cls, ambient_dim, vectors) -> "SubspaceBasis":
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("spanning vector has wrong length")
        if not vectors:
            return cls(ambient_dim, (), ())
        red, pivots = Matrix.from_rows(vectors, ambient_dim).rref()
        rows = [tuple(red.data[r]) for r in range(len(pivots))]
        return cls(ambient_dim, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vectors))

    def __repr__(self):
        return "SubspaceBasis(dim %d in Q^%d)" % (self.dim, self.ambient_dim)

    def coordinates(self, v):
        """Coefficients of v in this basis, or None when v is outside."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        coords = tuple(v[p] for p in self.pivots)
        residual = list(v)
        for c, row in zip(coords, self.vectors):
            if c:
                residual = [x - c * y for x, y in zip(residual, row)]
        if any(x != 0 for x in residual):
            return None
        return coords

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def embedding(self) -> Matrix:
        """ambient_dim x dim matrix whose columns are the basis vectors."""
        return Matrix.from_columns(list(self.vectors), self.ambient_dim)

    def pair_coordinates(self, v2):
        """Coordinates of a tensor-square vector in the product basis
        b_i (x) b_j, or None when it lies outside the span."""
        m = self.dim
        n = self.ambient_dim
        if len(v2) != n * n:
            raise DimensionMismatch("tensor-square vector length mismatch")
        coords = [Q0] * (m * m)
        for i, pi in enumerate(self.pivots):
            for j, pj in enumerate(self.pivots):
                coords[i * m + j] = v2[pi * n + pj]
        residual = list(v2)
        for i in range(m):
            vi = self.vectors[i]
            for j in range(m):
                c = coords[i * m + j]
                if not c:
                    continue
                vj = self.vectors[j]
                for a, ca in enumerate(vi):
                    if ca:
                        base = a * n
                        cca = c * ca
                        for b, cb in enumerate(vj):
                            if cb:
                                residual[base + b] -= cca * cb
        if any(x != 0 for x in residual):
            return None
        return tuple(coords)
