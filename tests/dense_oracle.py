"""Dense reference kernels for the differential tests of ``weakhopf.linalg``.

These are the dense row-major algorithms `Matrix` ran before it stored
sparse rows.  Nothing in the package calls them; they read a matrix through
its dense ``data`` view and return plain lists of lists of Fractions (or
tuples for vectors), so the tests can compare the sparse kernels entry by
entry.
"""

from __future__ import annotations

from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


def zeros(rows, cols):
    return [[Q0] * cols for _ in range(rows)]


def matmul(a, b):
    out = zeros(a.rows, b.cols)
    bdata = b.data
    for i, arow in enumerate(a.data):
        orow = out[i]
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(bdata[k]):
                    if y:
                        orow[j] += x * y
    return out


def apply(a, v):
    out = []
    for row in a.data:
        s = Q0
        for x, y in zip(row, v):
            if x and y:
                s += x * y
        out.append(s)
    return tuple(out)


def kron(a, b):
    out = zeros(a.rows * b.rows, a.cols * b.cols)
    adata, bdata = a.data, b.data
    for i in range(a.rows):
        for j in range(a.cols):
            x = adata[i][j]
            if not x:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    if bdata[k][l]:
                        out[i * b.rows + k][j * b.cols + l] = x * bdata[k][l]
    return out


def lincomb(terms, rows, cols):
    out = zeros(rows, cols)
    for c, m in terms:
        if c:
            for orow, mrow in zip(out, m.data):
                for j, x in enumerate(mrow):
                    if x:
                        orow[j] += c * x
    return out


def rref_rows(m, rows, cols):
    """Gauss-Jordan on a copy of the dense rows m: (rref rows, pivots)."""
    m = [row[:] for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def rref(a):
    return rref_rows(a.data, a.rows, a.cols)


def spanning_basis(vectors, n):
    """Canonical basis (the nonzero rref rows) of the span of vectors."""
    if not vectors:
        return (), ()
    red, pivots = rref_rows([list(v) for v in vectors], len(vectors), n)
    return tuple(tuple(red[r]) for r in range(len(pivots))), pivots


def kernel_basis(a):
    red, pivots = rref(a)
    vectors = []
    for fc in range(a.cols):
        if fc in pivots:
            continue
        v = [Q0] * a.cols
        v[fc] = Q1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        vectors.append(v)
    return spanning_basis(vectors, a.cols)


def column_space(a):
    data = a.data
    return spanning_basis([[row[j] for row in data] for j in range(a.cols)], a.rows)


def solve(a, b):
    """(x, rank) with x some solution of a x = b, or (None, rank)."""
    aug = [row + [Fraction(x)] for row, x in zip(a.data, b)]
    red, pivots = rref_rows(aug, a.rows, a.cols + 1)
    if a.cols in pivots:
        return None, len(pivots)
    x = [Q0] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][a.cols]
    return tuple(x), len(pivots)


def inverse(a):
    n = a.rows
    aug = [row + [Q1 if j == i else Q0 for j in range(n)] for i, row in enumerate(a.data)]
    red, pivots = rref_rows(aug, n, 2 * n)
    if pivots[:n] != tuple(range(n)):
        return None
    return [row[n:] for row in red]
