"""Dense reference kernels for the differential tests of ``weakhopf.linalg``.

These are the dense row-major algorithms `Matrix` ran before it stored
sparse rows.  Nothing in the package calls them; they read a matrix through
its dense ``data`` view and return plain lists of lists of Fractions (or
tuples for vectors), so the tests can compare the sparse kernels entry by
entry.  Every entry they read, of a matrix or of an algebra's tables, is
read as a Fraction (`data`, `fractions`): the package keeps an integral
entry as an int, and the oracles stay all-Fraction, so no / of theirs
divides two ints.  Later sections hold the dense element kernels the
package stored algebras by before it kept structure constants sparse only,
the one way the tests build an algebra from dense tables, and, last, the
rules the constructions sum over the terms of a 2-tensor (the ambient
action, the transmutation's and the quantization's rules, the comparison
map), summed one dense product per term.
"""

from __future__ import annotations

from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


def data(m):
    """The dense rows of the `Matrix` m, every entry a Fraction."""
    return [[Fraction(x) for x in row] for row in m.data]


def fractions(row):
    """The dict row, such as a row of an algebra's tables, with every entry
    a Fraction."""
    return {k: Fraction(c) for k, c in row.items()}


def zeros(rows, cols):
    return [[Q0] * cols for _ in range(rows)]


def matmul(a, b):
    out = zeros(a.rows, b.cols)
    bdata = data(b)
    for i, arow in enumerate(data(a)):
        orow = out[i]
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(bdata[k]):
                    if y:
                        orow[j] += x * y
    return out


def apply(a, v):
    out = []
    for row in data(a):
        s = Q0
        for x, y in zip(row, v):
            if x and y:
                s += x * y
        out.append(s)
    return tuple(out)


def kron(a, b):
    out = zeros(a.rows * b.rows, a.cols * b.cols)
    adata, bdata = data(a), data(b)
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
            for orow, mrow in zip(out, data(m)):
                for j, x in enumerate(mrow):
                    if x:
                        orow[j] += Fraction(c) * x
    return out


def rref_rows(m, rows, cols):
    """Gauss-Jordan on a copy of the dense rows m: (rref rows, pivots)."""
    m = [[Fraction(x) for x in row] for row in m]
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
    return rref_rows(data(a), a.rows, a.cols)


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
    rows = data(a)
    return spanning_basis([[row[j] for row in rows] for j in range(a.cols)], a.rows)


def solve(a, b):
    """(x, rank) with x some solution of a x = b, or (None, rank)."""
    aug = [row + [Fraction(x)] for row, x in zip(data(a), b)]
    red, pivots = rref_rows(aug, a.rows, a.cols + 1)
    if a.cols in pivots:
        return None, len(pivots)
    x = [Q0] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][a.cols]
    return tuple(x), len(pivots)


def inverse(a):
    n = a.rows
    aug = [row + [Q1 if j == i else Q0 for j in range(n)] for i, row in enumerate(data(a))]
    red, pivots = rref_rows(aug, n, 2 * n)
    if pivots[:n] != tuple(range(n)):
        return None
    return [row[n:] for row in red]


# ---------------------------------------------------------------------------
# products in H^(x)k, as the package computed them before its suites kept
# k-tensors sparse: both factors and the result as dense length n^k vectors,
# multiplied by a kernel that multiplies every pair of terms first and looks
# up the structure constants after


def sparse_of_dense(v, n, k):
    out = {}
    for flat, c in enumerate(v):
        if c:
            idx = []
            rem = flat
            for _ in range(k):
                idx.append(rem % n)
                rem //= n
            out[tuple(reversed(idx))] = c
    return out


def dense_of_sparse(s, n, k):
    out = [Q0] * (n ** k)
    for idx, c in s.items():
        flat = 0
        for i in idx:
            flat = flat * n + i
        out[flat] += c
    return tuple(out)


def dense2(H, x2):
    """The sparse 2-tensor x2 (such as R, F or Delta(1)) as a dense length
    dim^2 vector."""
    return dense_of_sparse(x2, H.dim, 2)


def sparse2(H, v):
    """The dense length dim^2 vector v as a sparse 2-tensor."""
    return sparse_of_dense(v, H.dim, 2)


def vectors(basis):
    """The basis vectors of a SubspaceBasis as dense tuples."""
    n = basis.ambient_dim
    return tuple(tuple(row.get(j, Q0) for j in range(n)) for row in basis.sparse_rows)


def sparse_mul(H, x, y, k):
    """Product of two sparse elements of H^(x)k."""
    rows = H.mul_rows
    out = {}
    for ix, cx in x.items():
        for iy, cy in y.items():
            c = Fraction(cx) * cy
            terms = [((), c)]
            for f in range(k):
                row = rows.get((ix[f], iy[f]))
                if not row:
                    terms = None
                    break
                terms = [(idx + (kk,), tc * vc) for idx, tc in terms
                         for kk, vc in fractions(row).items()]
            if terms:
                for idx, tc in terms:
                    out[idx] = out.get(idx, Q0) + tc
    return {i: c for i, c in out.items() if c != 0}


def mul_tensor(H, x, y, k):
    """Product in H^(x)k of dense length dim^k vectors."""
    n = H.dim
    xs = sparse_of_dense(x, n, k)
    ys = sparse_of_dense(y, n, k)
    return dense_of_sparse(sparse_mul(H, xs, ys, k), n, k)


def mul2(H, x, y):
    return mul_tensor(H, x, y, 2)


def swap2(H, x2):
    """The flip a (x) b -> b (x) a of a dense 2-tensor."""
    n = H.dim
    out = [Q0] * (n * n)
    for (a, b), c in sparse_of_dense(x2, n, 2).items():
        out[b * n + a] = c
    return tuple(out)


def embed(s, k, slots, unit_sparse):
    """The sparse j-tensor s on the given legs of H^(x)k, the unit (a sparse
    1-tensor) on the others."""
    others = [p for p in range(k) if p not in slots]
    out = {}
    for idx, c in s.items():
        partial = [((), c)]
        for _ in others:
            partial = [(o + (u,), pc * cu) for o, pc in partial for (u,), cu in unit_sparse.items()]
        for oidx, oc in partial:
            full = [None] * k
            for p, i in zip(list(slots) + others, idx + oidx):
                full[p] = i
            key = tuple(full)
            out[key] = out.get(key, Q0) + oc
    return {i: c for i, c in out.items() if c != 0}


def coordinates(vectors, pivots, v):
    """Coefficients of v in the reduced basis vectors with the given pivots,
    or None when v is outside their span, over a dense residual."""
    coords = tuple(v[p] for p in pivots)
    residual = list(v)
    for c, row in zip(coords, vectors):
        if c:
            residual = [x - c * y for x, y in zip(residual, row)]
    if any(x != 0 for x in residual):
        return None
    return coords


def pair_coordinates(vectors, pivots, n, v2):
    """Coordinates of the length n^2 vector v2 in the products b_i (x) b_j of
    the reduced basis vectors with the given pivots, or None when v2 is
    outside their span, over a dense residual."""
    m = len(vectors)
    coords = [Q0] * (m * m)
    for i, pi in enumerate(pivots):
        for j, pj in enumerate(pivots):
            coords[i * m + j] = v2[pi * n + pj]
    residual = list(v2)
    for i in range(m):
        for j in range(m):
            c = coords[i * m + j]
            if c:
                for a, ca in enumerate(vectors[i]):
                    if ca:
                        for b, cb in enumerate(vectors[j]):
                            if cb:
                                residual[a * n + b] -= c * ca * cb
    if any(x != 0 for x in residual):
        return None
    return tuple(coords)


def flip_matrix(m, n):
    """The flip e_a (x) e_b -> e_b (x) e_a from an m-dim (x) n-dim space to
    the n-dim (x) m-dim one, as a `Matrix` built from dense rows."""
    from weakhopf.linalg import Matrix

    out = zeros(n * m, m * n)
    for a in range(m):
        for b in range(n):
            out[b * m + a][a * n + b] = Q1
    return Matrix(out, n * m, m * n)


def componentwise_action(M, N, elem2):
    """The action of the sparse 2-tensor elem2 on M (x) N (first leg on M),
    as dense rows summed entry by entry over the terms."""
    nd = N.dim
    out = zeros(M.dim * nd, M.dim * nd)
    for (a, b), c in elem2.items():
        nrows = N.mats[b].sparse_rows
        for r1, row1 in enumerate(M.mats[a].sparse_rows):
            for c1, v1 in row1.items():
                for r2, row2 in enumerate(nrows):
                    for c2, v2 in row2.items():
                        out[r1 * nd + r2][c1 * nd + c2] += Fraction(c) * v1 * v2
    return out


# ---------------------------------------------------------------------------
# dense elements: coefficient tuples of length dim, and algebras built from
# the dense tables m[i][j][k] and d[i][j][k]


def bialgebra(basis_names, mul, unit, comul, counit):
    """The WeakBialgebra with the dense structure tensors mul and comul."""
    from weakhopf.algebra import WeakBialgebra

    n = len(mul)
    mul_rows = {}
    for i in range(n):
        for j in range(n):
            row = {k: Fraction(c) for k, c in enumerate(mul[i][j]) if c}
            if row:
                mul_rows[(i, j)] = row
    comul_cols = {i: {(j, k): Fraction(c) for j in range(n) for k, c in enumerate(comul[i][j]) if c}
                  for i in range(n)}
    return WeakBialgebra(basis_names, mul_rows, unit, comul_cols, counit)


def basis_vector(H, i):
    return tuple(Q1 if j == i else Q0 for j in range(H.dim))


def mul_elem(H, x, y):
    """The product of two dense elements."""
    out = [Q0] * H.dim
    for i, cx in enumerate(x):
        if cx:
            for j, cy in enumerate(y):
                if cy:
                    for k, ck in H.mul_rows.get((i, j), {}).items():
                        out[k] += Fraction(cx) * cy * ck
    return tuple(out)


def counit_of(H, x):
    return sum((Fraction(c) * e for c, e in zip(x, H.counit) if c and e), Q0)


def comul_of(H, x):
    return H.comul_map.apply(x)


def s_of(H, x):
    return H.antipode.apply(x)


def s_inv_of(H, x):
    return H.antipode_inv.apply(x)


def vector_lincomb(terms, n):
    """sum c v over the (c, v) pairs of terms, as a length-n tuple."""
    out = [Q0] * n
    for c, v in terms:
        for r, x in enumerate(v):
            if c and x:
                out[r] += c * x
    return tuple(out)


def outer(x, y, c=Q1, out=None):
    """c (x (x) y) as a flat vector, added into the list out when given."""
    if out is None:
        out = [Q0] * (len(x) * len(y))
    for p, cp in enumerate(x):
        for q, cq in enumerate(y):
            if cp and cq:
                out[p * len(y) + q] += c * cp * cq
    return out


def generated_dim(H, generators):
    """Dimension of the span of the words in the basis elements generators,
    1 the empty word: the span of {1} multiplied on the left by every
    generator, over dense elements and dense RREF, until it stops growing."""
    n = H.dim
    gens = [basis_vector(H, s) for s in generators]
    words, _ = spanning_basis([H.unit], n)
    while True:
        grown, _ = spanning_basis(list(words) + [mul_elem(H, g, w) for g in gens for w in words], n)
        if len(grown) == len(words):
            return len(words)
        words = grown


# ---------------------------------------------------------------------------
# the k-tensor kernels of `weakhopf.algebra` as they were before they summed
# in integers: one Fraction multiply and add per term.  Their accumulation
# order is the integer kernels', so the tests compare key order too.


def fraction_sparse_mul(H, x, y, k, slots=None):
    """The product x y of sparse elements of H^(x)k, y on the legs slots
    (all legs when None) with the unit on the others."""
    from weakhopf.algebra import sparse_embed

    if slots is not None and not H.unit_acts_right:
        y, slots = sparse_embed(y, k, slots, H.unit_sparse), None
    rows = H.mul_rows
    legs = list(range(k)) if slots is None else [None] * k
    for j, p in enumerate(slots or ()):
        legs[p] = j
    out = {}
    for ix, cx in x.items():
        for iy, cy in y.items():
            found = []
            for p, j in enumerate(legs):
                if j is None:
                    found.append({ix[p]: Q1})
                    continue
                row = rows.get((ix[p], iy[j]))
                if row is None:
                    break
                found.append(row)
            else:
                terms = [((), Fraction(cx) * cy)]
                for row in found:
                    terms = [(idx + (kk,), c if v == 1 else c * v)
                             for idx, c in terms for kk, v in fractions(row).items()]
                for idx, c in terms:
                    old = out.get(idx)
                    out[idx] = c if old is None else old + c
    return {i: c for i, c in out.items() if c}


def fraction_coproduct_leg(s, leg, cols):
    """The coproduct cols[i] = {(p, q): c} applied to slot leg of the sparse
    k-tensor s."""
    out = {}
    for idx, c in s.items():
        head, tail = idx[:leg], idx[leg + 1:]
        for pq, c2 in cols[idx[leg]].items():
            key = head + pq + tail
            out[key] = out.get(key, Q0) + Fraction(c) * c2
    return {k: v for k, v in out.items() if v}


def rescaled(H, scale):
    """The quantum groupoid H in the basis e'_i = scale[i] e_i, built
    through `WeakBialgebra`: its structure constants are m_ij^k s_i s_j / s_k,
    Delta(e'_i) has c s_i / (s_j s_k) at e'_j (x) e'_k, the unit u_k / s_k,
    the counit eps_i s_i and the antipode S_rj s_j / s_r."""
    from weakhopf.algebra import QuantumGroupoid, WeakBialgebra
    from weakhopf.linalg import Matrix

    s = [Fraction(x) for x in scale]
    mul_rows = {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in fractions(row).items()}
                for (i, j), row in H.mul_rows.items()}
    comul_cols = {i: {(j, k): c * s[i] / (s[j] * s[k]) for (j, k), c in fractions(col).items()}
                  for i, col in H.comul_cols.items()}
    unit = [Fraction(u) / x for u, x in zip(H.unit, s)]
    counit = [Fraction(e) * x for e, x in zip(H.counit, s)]
    antipode = Matrix._of(H.dim, H.dim, [{j: c * s[j] / s[r] for j, c in fractions(row).items()}
                                         for r, row in enumerate(H.antipode.sparse_rows)])
    base = WeakBialgebra(H.basis_names, mul_rows, unit, comul_cols, counit)
    return QuantumGroupoid(base, antipode)


# ---------------------------------------------------------------------------
# the rules the constructions sum over the terms of a 2-tensor (Delta(e_i),
# R, F, F^-1), one dense product per term, with no grouping of the terms:
# matrices on the ambient algebra as dense rows


def times(a, b):
    """The product of dense rows a and b."""
    out = zeros(len(a), len(b[0]) if b else 0)
    for orow, arow in zip(out, a):
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        orow[j] += x * y
    return out


def dense_kron(a, b):
    """The Kronecker product of dense rows a and b."""
    rb, cb = len(b), len(b[0])
    out = zeros(len(a) * rb, len(a[0]) * cb)
    for i, arow in enumerate(a):
        for j, x in enumerate(arow):
            if x:
                for k, brow in enumerate(b):
                    for l, y in enumerate(brow):
                        if y:
                            out[i * rb + k][j * cb + l] = x * y
    return out


def term_sum(terms, rows, cols):
    """sum c m over the (c, dense rows m) terms."""
    out = zeros(rows, cols)
    for c, m in terms:
        for orow, mrow in zip(out, m):
            for j, x in enumerate(mrow):
                if x:
                    orow[j] += c * x
    return out


def left_mult(L, x):
    """Left multiplication by the dense element x of L."""
    out = zeros(L.dim, L.dim)
    for (i, j), row in L.mul_rows.items():
        if x[i]:
            for k, c in fractions(row).items():
                out[k][j] += x[i] * c
    return out


def right_mult(L, x):
    """Right multiplication by the dense element x of L."""
    out = zeros(L.dim, L.dim)
    for (i, j), row in L.mul_rows.items():
        if x[j]:
            for k, c in fractions(row).items():
                out[k][i] += x[j] * c
    return out


def mul_map(L):
    n = L.dim
    out = zeros(n, n * n)
    for (i, j), row in L.mul_rows.items():
        for k, c in fractions(row).items():
            out[k][i * n + j] = c
    return out


def comul_map(L):
    n = L.dim
    out = zeros(n * n, n)
    for i, col in L.comul_cols.items():
        for (j, k), c in fractions(col).items():
            out[j * n + k][i] = c
    return out


def ambient_action(f):
    """h . l = f(h_1) l f(S(h_2)), one matrix per basis element h of the
    source: sum c L_f(e_a) R_fS(e_b) over the terms c e_a (x) e_b of
    Delta(h)."""
    H, L = f.source, f.target
    fcols = [f.matrix.column(a) for a in range(H.dim)]
    fs = [apply(f.matrix, H.antipode.column(b)) for b in range(H.dim)]
    return [term_sum(((c, times(left_mult(L, fcols[a]), right_mult(L, fs[b])))
                      for (a, b), c in H.comul_cols[i].items()), L.dim, L.dim)
            for i in range(H.dim)]


def transmute_rules(f, qt):
    """The coproduct l_1 f(S(R^(2))) (x) R^(1) . l_2 and the antipode
    f(R^(2)) S_L(R^(1) . l) of the transmutation through f, summed over the
    terms c e_x (x) e_y of R."""
    H, L = f.source, f.target
    n = L.dim
    ad = ambient_action(f)
    comul = term_sum(((c, dense_kron(right_mult(L, apply(f.matrix, H.antipode.column(y))), ad[x]))
                      for (x, y), c in qt.r.items()), n * n, n * n)
    s_l = data(L.antipode)
    antipode = term_sum(((c, times(times(left_mult(L, f.matrix.column(y)), s_l), ad[x]))
                         for (x, y), c in qt.r.items()), n, n)
    return times(comul, comul_map(L)), antipode


def quantize_rules(H, wc):
    """The product Ad_F^(1)(a) Ad_F^(2)(b) and the coproduct
    Ad_F^-(1)(a_1) (x) Ad_F^-(2)(a_2) of the quantization, each summed over
    the terms of its 2-tensor."""
    from weakhopf.transmute import identity_morphism

    n = H.dim
    ad = ambient_action(identity_morphism(H))

    def ad2(x2):
        return term_sum(((c, dense_kron(ad[x], ad[y])) for (x, y), c in x2.items()), n * n, n * n)

    return times(mul_map(H), ad2(wc.f)), times(ad2(wc.finv), comul_map(H))


def alpha_rules(H, wc, v):
    """The comparison map a -> Ad_F^(1)(a) F^(2), its equivalent form
    F^-(1) a S(F^-(2)) v^-1 and its inverse a -> F^(1) (a v) S(F^(2)), as
    matrices on H; v is the `TwistElements` of (H, wc)."""
    from weakhopf.transmute import identity_morphism

    n = H.dim
    ad = ambient_action(identity_morphism(H))
    e = [basis_vector(H, i) for i in range(n)]
    s = [H.antipode.column(i) for i in range(n)]
    alpha = term_sum(((c, times(right_mult(H, e[y]), ad[x])) for (x, y), c in wc.f.items()), n, n)
    alt = times(right_mult(H, v.v_inv), term_sum(
        ((c, times(right_mult(H, s[y]), left_mult(H, e[x]))) for (x, y), c in wc.finv.items()), n, n))
    inv = times(term_sum(((c, times(left_mult(H, e[x]), right_mult(H, s[y])))
                          for (x, y), c in wc.f.items()), n, n), right_mult(H, v.v))
    return alpha, alt, inv
