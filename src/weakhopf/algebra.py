"""Quantum groupoids by structure constants, with their axiom checkers.

A weak bialgebra is stored by its sparse structure constants: the products
mul_rows[(i, j)] = {k: c} (e_i e_j = sum c e_k, pairs with e_i e_j = 0
absent), the coproduct columns comul_cols[i] = {(j, k): c} (Delta(e_i) =
sum c e_j (x) e_k), and the unit and counit vectors.  A quantum groupoid is
a weak bialgebra that also stores its antipode matrix.  Every axiom
quantified over the algebra is equivalent, by multilinearity of both sides,
to its basis instances; the checkers decide the n^3 ones as identities
between sparse matrices, one per basis element or pair; the witness of a
failure is the first differing column of the first failing identity.

A law saying that a map is multiplicative (associativity, module actions,
the coproduct, the antipode, morphisms, the R-intertwiner) holds on all of
H once it holds on the generators, given the unit law, associativity and
the law's identity at 1; `_on_generators` decides it there and scans every
basis element only when that fails or a condition does not hold.  An
action law, M_{e_i e_j} = M_i M_j for matrices M of the basis, is one
stacked identity per generator s, [M_{s e_0} | ... | M_{s e_(n-1)}] =
M_s [M_0 | ... | M_(n-1)]: the left side copies and scales blocks, the
right side is one product (`_action_identities`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import lcm

from .errors import (
    AntipodeNotInvertible,
    DimensionMismatch,
    NonUniqueAntipode,
    NonUniqueSolution,
)
from .linalg import (Matrix, Q0, Q1, SubspaceBasis, _add_into, _fractions, _insert, _ints,
                     _reduced, _row_blocks, _squared, _whiskered, frac)
from .report import VerificationReport, comparison, decide

# ---------------------------------------------------------------------------
# sparse helpers for elements of H^(x)k, keyed by k-tuples of basis indices


def sparse_mul(H, x, y, k, slots=None):
    """Product x y of sparse elements of H^(x)k.

    With slots, y is a sparse j-tensor standing on those legs of H^(x)k,
    in order, with the unit on the others (such as R_12 or F^-1_24): a leg
    times the unit is itself, so x keeps those legs as they are.  Every
    leg's structure constants are looked up before any coefficient is
    multiplied, so a pair whose product vanishes costs lookups only.  x, y
    and the structure constants (`WeakBialgebra.mul_ints`) are written as
    integer numerators over their denominators once and the products are
    summed in int; each nonzero entry becomes one exact rational, an int when
    it is integral (`_fractions`).  The keys of a pair's product are written
    in leg order, the first leg slowest: a full 2-tensor product is two
    nested loops, any other one `itertools.product` over its rows.
    """
    if slots is not None and not H.unit_acts_right:
        y, slots = sparse_embed(y, k, slots, H.unit_sparse), None
    dm, rows = H.mul_ints
    dx, x = _ints(x)
    dy, y = _ints(y)
    acc = {}
    get = acc.get
    if k == 2 and slots is None:
        for (i, j), cx in x.items():
            for (p, q), cy in y.items():
                first = rows.get((i, p))
                if first is None:
                    continue
                second = rows.get((j, q))
                if second is None:
                    continue
                c = cx * cy
                for k0, v0 in first:
                    c0 = c * v0
                    for k1, v1 in second:
                        key = k0, k1
                        acc[key] = get(key, 0) + c0 * v1
        return _fractions(acc, dx * dy * dm * dm, {})
    # (leg of x, leg of y) for each multiplied leg, in leg order
    legs = [(p, p) for p in range(k)] if slots is None else sorted(zip(slots, range(k)))
    for ix, cx in x.items():
        key = list(ix)  # the unit legs keep x's index; each term writes the others
        for iy, cy in y.items():
            found = []
            for p, j in legs:
                row = rows.get((ix[p], iy[j]))
                if row is None:
                    break
                found.append(row)
            else:
                c = cx * cy
                for terms in product(*found):
                    v = c
                    for (p, _), (key[p], vv) in zip(legs, terms):
                        v *= vv
                    t = tuple(key)
                    acc[t] = get(t, 0) + v
    return _fractions(acc, dx * dy * dm ** len(legs), {})


def sparse_embed(s, k, slots, unit_sparse):
    """Place a sparse j-tensor at the given slots of H^(x)k, units elsewhere.

    unit_sparse: sparse 1-tensor of the algebra unit, keyed by 1-tuples.
    """
    others = [p for p in range(k) if p not in slots]
    out = {}
    base = [((), Q1)]
    for _ in others:
        base = [(idx + (u,), c * cu) for idx, c in base for (u,), cu in unit_sparse.items()]
    for idx, c in s.items():
        for oidx, oc in base:
            full = [None] * k
            for p, i in zip(slots, idx):
                full[p] = i
            for p, i in zip(others, oidx):
                full[p] = i
            key = tuple(full)
            out[key] = out.get(key, Q0) + c * oc
    return {i: c for i, c in out.items() if c != 0}


def sparse_coproduct_leg(s, leg, cols):
    """Apply a coproduct, given as cols[i] = {(p, q): c}, to slot leg of the
    sparse k-tensor s; returns the sparse (k+1)-tensor.  Like `sparse_mul`
    it sums integer numerators over one denominator."""
    ds, s = _ints(s)
    ints = {}  # i -> _ints(cols[i]), for each column s reaches
    for idx in s:
        i = idx[leg]
        if i not in ints:
            ints[i] = _ints(cols[i])
    d = lcm(*(q for q, _ in ints.values()))
    acc = {}
    get = acc.get
    for idx, c in s.items():
        q, col = ints[idx[leg]]
        c *= d // q
        head, tail = idx[:leg], idx[leg + 1:]
        for pq, v in col.items():
            key = head + pq + tail
            acc[key] = get(key, 0) + c * v
    return _fractions(acc, ds * d, {})


# the types of a stored entry: an exact rational, never a float or a bool
_RATIONAL_TYPES = (int, Fraction)


def _in_range(key, arity, n):
    """key is an index below n (arity 1) or a tuple of arity such indices."""
    keys = (key,) if arity == 1 else key
    return (isinstance(keys, tuple) and len(keys) == arity
            and all(isinstance(i, int) and 0 <= i < n for i in keys))


class WeakBialgebra:
    """Finite-dimensional weak bialgebra presented by structure constants.

    mul_rows maps (i, j) to {k: c} and comul_cols maps i to {(j, k): c};
    neither stores a zero or anything but an int or a Fraction, and
    comul_cols has an entry for every i.  The dense tables ``mul``
    (m[i][j][k]) and ``comul`` (d[i][j][k]) are views for outside readers,
    built on first access.
    """

    def __init__(self, basis_names, mul_rows, unit, comul_cols, counit):
        self.basis_names = tuple(str(s) for s in basis_names)
        self.dim = n = len(self.basis_names)
        if n < 1:
            raise DimensionMismatch("dimension must be at least 1")
        self.unit = tuple(frac(x) for x in unit)
        self.counit = tuple(frac(x) for x in counit)
        if len(self.unit) != n or len(self.counit) != n:
            raise DimensionMismatch("unit/counit must have length dim")
        for what, table, outer, inner in (("mul", mul_rows, 2, 1), ("comul", comul_cols, 1, 2)):
            for key, row in table.items():
                if not _in_range(key, outer, n) or not all(_in_range(k, inner, n) for k in row):
                    raise DimensionMismatch("%s table has an index out of range at %r"
                                            % (what, key))
                if not all(row.values()) or (what == "mul" and not row):
                    raise DimensionMismatch("%s table stores a zero at %r" % (what, key))
                if not all(type(c) in _RATIONAL_TYPES for c in row.values()):
                    raise TypeError("%s table stores an entry that is not an int or a "
                                    "Fraction at %r" % (what, key))
        if len(comul_cols) != n:
            raise DimensionMismatch("comul table needs a column for every basis element")
        self.mul_rows = mul_rows
        self.comul_cols = comul_cols

    # -- cached structural data ------------------------------------------

    @cached_property
    def mul(self) -> tuple:
        """Dense view m[i][j][k] of mul_rows."""
        n = self.dim
        return tuple(
            tuple(tuple(self.mul_rows.get((i, j), {}).get(k, Q0) for k in range(n))
                  for j in range(n))
            for i in range(n)
        )

    @cached_property
    def comul(self) -> tuple:
        """Dense view d[i][j][k] of comul_cols."""
        n = self.dim
        return tuple(
            tuple(tuple(self.comul_cols[i].get((j, k), Q0) for k in range(n)) for j in range(n))
            for i in range(n)
        )

    @cached_property
    def mul_ints(self):
        """(d, rows) with rows[(i, j)] the pairs (k, n) of mul_rows[(i, j)],
        in its order, with n / d == mul_rows[(i, j)][k]: the structure
        constants as integer numerators over d, the lcm of their
        denominators."""
        d = lcm(*{x.denominator for row in self.mul_rows.values() for x in row.values()})
        return d, {ij: tuple((k, x.numerator * (d // x.denominator)) for k, x in row.items())
                   for ij, row in self.mul_rows.items()}

    @cached_property
    def unit_sparse(self):
        return {(i,): c for i, c in enumerate(self.unit) if c}

    @cached_property
    def unit_acts_right(self) -> bool:
        """x 1 = x for every x; false on an algebra whose unit law fails."""
        return self.right_mult(self.unit).is_identity()

    @cached_property
    def unit_law(self) -> bool:
        """1 x = x = x 1 for every x."""
        return self.unit_acts_right and self.left_mult(self.unit).is_identity()

    @cached_property
    def generators(self) -> tuple:
        """Basis indices S, chosen in index order, whose products with 1
        span H: an index joins S when its basis element lies outside the
        closure of span{1} under left multiplication by S so far, and the
        closure then grows.  Under the unit law S generates H as an algebra
        with 1.  The closure is kept as its reduced echelon basis
        (`linalg._insert`); spanning holds the vectors that grew it."""
        closure = {}  # pivot -> reduced row
        gens, spanning, pending = [], [], []

        def grow(v):
            if _insert(closure, v):
                spanning.append(v)
                pending.extend((s, v) for s in gens)

        grow({i: c for i, c in enumerate(self.unit) if c})
        for i in range(self.dim):
            if len(closure) == self.dim:
                break
            if not _reduced(closure, {i: Q1}):
                continue
            gens.append(i)
            pending.extend((i, v) for v in spanning)
            while pending:
                s, v = pending.pop()
                product = {}
                for k, c in v.items():
                    _add_into(product, c, self.mul_rows.get((s, k), {}))
                grow(product)
        return tuple(gens)

    @cached_property
    def associativity(self):
        """The associativity check, decided once per algebra.  It is
        Light's test with the generator on the left: the s with
        (s x) y = s (x y) for all x and y form a subspace closed under
        products, which holds 1 under the unit law, so L_{s e_j} = L_s L_j
        for s in the generators and every j decides it."""
        identities, stacked = _action_identities(self.mul_rows, self.left_mult_mats)
        return decide("associativity",
                      _on_generators(self, identities, self.unit_law, stacked=stacked))

    @property
    def unital_associative(self) -> bool:
        """The unit law holds and the product is associative: the gate of
        every law `_on_generators` decides but associativity."""
        return self.unit_law and self.associativity.passed

    @cached_property
    def comultiplicativity(self):
        """The check Delta(e_i e_j) = Delta(e_i) Delta(e_j), decided once per
        algebra.  On a unital associative algebra it holds once it holds for
        e_i a generator and Delta(1) Delta(e_j) = Delta(e_j) for every j
        (in a weak bialgebra Delta(1) is not 1 (x) 1)."""
        n, cols = self.dim, self.comul_cols

        def identities(i):
            for j in range(n):
                ij = {(k,): c for k, c in self.mul_rows.get((i, j), {}).items()}
                yield ((i, j), sparse_coproduct_leg(ij, 0, cols),
                       sparse_mul(self, cols[i], cols[j], 2))

        at_one = (((), sparse_mul(self, self.delta_one, cols[j], 2), cols[j])
                  for j in range(n))
        return decide("comultiplicativity",
                      _on_generators(self, identities, self.unital_associative, at_one),
                      shape=(n, 2))

    @cached_property
    def mul_map(self) -> Matrix:
        """mu as a dim x dim^2 matrix on flattened tensors."""
        n = self.dim
        return Matrix.from_entries(
            n, n * n,
            ((k, i * n + j, c) for (i, j), row in self.mul_rows.items() for k, c in row.items()),
        )

    @cached_property
    def comul_map(self) -> Matrix:
        n = self.dim
        return Matrix.from_entries(
            n * n, n,
            ((j * n + k, i, c) for i, col in self.comul_cols.items() for (j, k), c in col.items()),
        )

    @cached_property
    def counit_map(self) -> Matrix:
        """eps as a 1 x dim matrix."""
        return Matrix([self.counit])

    @cached_property
    def delta_one(self) -> dict:
        """Delta(1) as a sparse 2-tensor."""
        return sparse_coproduct_leg(self.unit_sparse, 0, self.comul_cols)

    @cached_property
    def left_mult_mats(self):
        """Matrix of left multiplication by each basis element."""
        return self._mult_mats(left=True)

    @cached_property
    def right_mult_mats(self):
        return self._mult_mats(left=False)

    def _mult_mats(self, left):
        n = self.dim
        entries = [[] for _ in range(n)]  # per basis element e_x
        for (i, j), row in self.mul_rows.items():
            x, col = (i, j) if left else (j, i)  # column col is e_i e_j
            entries[x].extend((k, col, c) for k, c in row.items())
        return tuple(Matrix.from_entries(n, n, e) for e in entries)

    @cached_property
    def _eps_products(self) -> Matrix:
        """E[x][i] = eps(e_x e_i)."""
        eps = self.counit
        return Matrix.from_entries(self.dim, self.dim, (
            (x, i, sum((c * eps[k] for k, c in row.items() if eps[k]), Q0))
            for (x, i), row in self.mul_rows.items()
        ))

    def _eps_map(self, leg, left) -> Matrix:
        """h -> eps(x h) y (left) or eps(h x) y (right) as a matrix, summed
        over the terms of Delta(1) with x on the given leg, y on the other."""
        E = self._eps_products
        rows = (E if left else E.transpose()).sparse_rows
        entries = []
        for pair, c in self.delta_one.items():
            x, y = pair[leg], pair[1 - leg]
            entries.extend((y, i, c * s) for i, s in rows[x].items())
        return Matrix.from_entries(self.dim, self.dim, entries)

    @cached_property
    def eps_t_mat(self) -> Matrix:
        """eps_t(h) = eps(1_1 h) 1_2 as a matrix."""
        return self._eps_map(0, left=True)

    @cached_property
    def eps_s_mat(self) -> Matrix:
        """eps_s(h) = 1_1 eps(h 1_2) as a matrix."""
        return self._eps_map(1, left=False)

    @cached_property
    def eps_s_bar_mat(self) -> Matrix:
        """bar eps_s(h) = eps(h 1_1) 1_2."""
        return self._eps_map(0, left=False)

    @cached_property
    def eps_t_bar_mat(self) -> Matrix:
        """bar eps_t(h) = 1_1 eps(1_2 h)."""
        return self._eps_map(1, left=True)

    # -- elementwise operations ------------------------------------------

    def left_mult(self, x) -> Matrix:
        n = self.dim
        mats = self.left_mult_mats
        return Matrix.lincomb(((c, mats[i]) for i, c in enumerate(x) if c), n, n)

    def right_mult(self, x) -> Matrix:
        n = self.dim
        mats = self.right_mult_mats
        return Matrix.lincomb(((c, mats[i]) for i, c in enumerate(x) if c), n, n)

    def with_coproduct(self, comul_cols) -> "WeakBialgebra":
        """The weak bialgebra on this one's product, unit and counit with the
        coproduct comul_cols.  It takes what this one decides from those
        three alone (`_PRODUCT`), deciding it here first where needed."""
        B = WeakBialgebra(self.basis_names, self.mul_rows, self.unit, comul_cols, self.counit)
        B.__dict__.update((name, getattr(self, name)) for name in _PRODUCT)
        return B

    def __getstate__(self):
        """What a copy or a pickle takes: the tables, what was computed from
        them alone and the antipode.  What was built over the algebra and
        kept on it, such as its modules, stays with it."""
        return {k: v for k, v in vars(self).items() if k in _STATE}

    @cached_property
    def is_cocommutative(self) -> bool:
        return all(
            col.get((k, j)) == c for col in self.comul_cols.values() for (j, k), c in col.items()
        )

    @cached_property
    def is_commutative(self) -> bool:
        return all(self.mul_rows.get((j, i)) == row for (i, j), row in self.mul_rows.items())


# what a weak bialgebra holds: its validated tables and what it has
# computed from them alone
_TABLES = frozenset(("basis_names", "dim", "unit", "counit", "mul_rows", "comul_cols")) | {
    name for name, v in vars(WeakBialgebra).items() if isinstance(v, cached_property)}


# what a copy of an algebra takes: its tables and its antipode
_STATE = _TABLES | {"antipode", "antipode_inv"}


# what a weak bialgebra computes from its product, unit and counit alone,
# and its checkers read
_PRODUCT = ("unit_sparse", "unit_acts_right", "unit_law", "generators", "associativity",
            "left_mult_mats", "right_mult_mats", "mul_map", "mul_ints", "_eps_products",
            "counit_map")


class QuantumGroupoid(WeakBialgebra):
    """A weak bialgebra with a bijective antipode, on the tables of base.
    It takes base's tables, which base has validated, with what base has
    computed from them (verdicts, generators, multiplication matrices);
    anything else base keeps (such as its regular module) stays with it."""

    def __init__(self, base: WeakBialgebra, antipode: Matrix):
        self.__dict__.update((k, v) for k, v in vars(base).items() if k in _TABLES)
        if antipode.rows != self.dim or antipode.cols != self.dim:
            raise DimensionMismatch("antipode must be dim x dim")
        self.antipode = antipode
        inv = antipode.inverse()
        if inv is None:
            raise AntipodeNotInvertible("antipode matrix is singular")
        self.antipode_inv = inv


# ---------------------------------------------------------------------------
# target / source maps and subalgebras


def target_subalgebra(H) -> SubspaceBasis:
    """Canonical basis of H_t, the image of eps_t."""
    return H.eps_t_mat.column_space()


def source_subalgebra(H) -> SubspaceBasis:
    return H.eps_s_mat.column_space()


# ---------------------------------------------------------------------------
# convolution and antipode solving


def convolve(H, f: Matrix, g: Matrix) -> Matrix:
    """(f * g)(h) = f(h_1) g(h_2), i.e. mu o (f (x) g) o Delta, with
    f (x) g = (f (x) id)(id (x) g) applied to Delta as two whiskered
    products, so that no n^2 x n^2 map is built."""
    n = H.dim
    return H.mul_map * _whiskered(f, n, _whiskered(g, n, H.comul_map, first=False), first=True)


def solve_antipode(B: WeakBialgebra):
    """Solve the antipode axioms for the antipode matrix.

    The two convolution equations {S * id = eps_s, id * S = eps_t} are a
    linear system in the matrix unknowns but do not determine S on their
    own; the third axiom S * id * S = S is applied as the filter.  Written
    through the first two it is linear as well (eps_s * S = S and
    S * eps_t = S), which cuts the affine solution set down to the unique
    antipode when one exists.  The quadratic identity is then re-checked
    on the candidate.  Returns None when the system is inconsistent or the
    candidate fails the filter; raises NonUniqueAntipode when several
    candidates survive (a non-quantum-groupoid input).
    """
    n = B.dim
    entries = []  # (row, unknown, coefficient) of the linear system
    rhs = []
    # the columns of id, eps_s and eps_t as sparse {row: entry} dicts
    ident_cols = [{a: Q1} for a in range(n)]
    eps_s_cols = B.eps_s_mat.transpose().sparse_rows
    eps_t_cols = B.eps_t_mat.transpose().sparse_rows
    # One block of n rows per (i, axiom).  Each axiom is a sum over
    # Delta(e_i) = sum c e_x (x) e_y with S on one leg and a known map K
    # (id, eps_s or eps_t) on the other; the right-hand side is a known
    # matrix, or None for S(e_i) itself (the third axiom S * id * S = S
    # through the first two), which moves to the left.
    blocks = (
        (0, ident_cols, B.eps_s_mat),  # S * id = eps_s
        (1, ident_cols, B.eps_t_mat),  # id * S = eps_t
        (1, eps_s_cols, None),  # eps_s * S = S
        (0, eps_t_cols, None),  # S * eps_t = S
    )
    # unknown s[r*n + c] = coefficient of e_r in S(e_c)
    for i in range(n):
        for s_leg, known, target in blocks:
            base = len(rhs)
            for pair, c in B.comul_cols[i].items():
                x = pair[s_leg]
                for p, cp in known[pair[1 - s_leg]].items():
                    for j in range(n):
                        row = B.mul_rows.get((j, p) if s_leg == 0 else (p, j))
                        if row:
                            for k, ck in row.items():
                                entries.append((base + k, j * n + x, c * cp * ck))
            if target is None:
                entries.extend((base + k, k * n + i, -Q1) for k in range(n))
                rhs.extend([Q0] * n)
            else:
                rhs.extend(target.column(i))
    system = Matrix.from_entries(len(rhs), n * n, entries)
    try:
        sol = system.solve(rhs, unique=True)
    except NonUniqueSolution as exc:
        raise NonUniqueAntipode(str(exc)) from exc
    if sol is None:
        return None
    S = Matrix([[sol[r * n + c] for c in range(n)] for r in range(n)], n, n)
    # the quadratic form of the filter, re-checked on the candidate
    if convolve(B, S, convolve(B, Matrix.identity(n), S)) != S:
        return None
    return S


# ---------------------------------------------------------------------------
# checkers


def _multiplicativity(identities, rows):
    """The (indices, lhs, rhs) triples identities(i) of each basis index i
    in rows, in loop order, built lazily."""
    return (t for i in rows for t in identities(i))


def _on_generators(H, identities, gate, at_one=(), stacked=None):
    """The triples `comparison` needs for a multiplicative law of H, given
    by the identities(i) of each basis element e_i: none when gate holds
    and so do the identities at_one and identities(s) for every s in
    H.generators, since the law then holds on all of H; otherwise the full
    scan over every basis element, in loop order.  gate holds the law's
    conditions: the unit law and associativity of H, and the law at 1 where
    at_one does not state it (rho(1) = id for a module).  stacked(s), when
    given, is one (lhs, rhs) pair equal exactly when every identity of
    identities(s) holds, decided in their place.  The shortcut only ever
    answers "passed", so every report is the full scan's."""
    if gate:
        if stacked is None:
            pairs = ((lhs, rhs) for s in H.generators for _, lhs, rhs in identities(s))
        else:
            pairs = map(stacked, H.generators)
        if all(lhs == rhs for lhs, rhs in chain(((lhs, rhs) for _, lhs, rhs in at_one), pairs)):
            return ()
    return _multiplicativity(identities, range(H.dim))


def _action_identities(mul_rows, mats):
    """(identities, stacked) for the law that the matrices mats of the basis
    are multiplicative, M_{e_i e_j} = M_i M_j.  On left multiplication
    matrices the law is associativity, on a module's action matrices it
    says the action is multiplicative.

    identities(i) yields ((i, j), sum_k m_ij^k M_k, M_i M_j) for each j.
    stacked(s) states them all as one pair of matrices with the blocks side
    by side, [M_{s e_0} | ... | M_{s e_(n-1)}] and M_s [M_0 | ... | M_(n-1)]:
    the left side copies and scales the blocks M_k named by the structure
    constants, and the right side is one product by the concatenation of
    mats, built on first use."""
    rows, cols = mats[0].rows, mats[0].cols
    n = len(mats)

    def identities(i):
        mi = mats[i]
        for j, mj in enumerate(mats):
            terms = ((c, mats[k]) for k, c in mul_rows.get((i, j), {}).items())
            yield (i, j), Matrix.lincomb(terms, rows, cols), mi * mj

    concat = []

    def stacked(s):
        if not concat:
            concat.append(Matrix._of(rows, n * cols, [
                {j * cols + c: x for j, m in enumerate(mats) for c, x in m.sparse_rows[r].items()}
                for r in range(rows)]))
        blocks = []  # (column offset, coefficient or None for 1, rows) of each block
        for j in range(n):
            row = mul_rows.get((s, j))
            if not row:
                continue
            if len(row) == 1:
                (k, c), = row.items()
                blocks.append((j * cols, None if c == 1 else c, mats[k].sparse_rows))
            else:
                terms = [(c, mats[k]) for k, c in row.items()]
                blocks.append((j * cols, None, Matrix.lincomb(terms, rows, cols).sparse_rows))
        lhs = []
        for r in range(rows):
            out = {}
            for offset, c, mrows in blocks:
                if c is None:
                    for col, x in mrows[r].items():
                        out[offset + col] = x
                else:
                    for col, x in mrows[r].items():
                        out[offset + col] = c * x
            lhs.append(out)
        return Matrix._of(rows, n * cols, lhs), mats[s] * concat[0]

    return identities, stacked


def check_weak_bialgebra(B: WeakBialgebra) -> VerificationReport:
    """All five weak-bialgebra axiom groups, with first-failure witnesses."""
    rep = VerificationReport("weak-bialgebra")
    n = B.dim

    rep.checks.append(B.associativity)
    ident = Matrix.identity(n)

    def column_pairs(lhs_maps):
        """(i,), column i of each map of lhs_maps, e_i for each i in turn;
        none when every map is the identity."""
        if all(lhs.is_identity() for lhs in lhs_maps):
            return
        for i in range(n):
            for lhs in lhs_maps:
                yield (i,), lhs.column(i), ident.column(i)

    comparison(rep, "unit-law", column_pairs((B.left_mult(B.unit), B.right_mult(B.unit))))

    def coassoc_pairs():
        cols = B.comul_cols
        for i in range(n):
            lhs = sparse_coproduct_leg(cols[i], 0, cols)
            rhs = sparse_coproduct_leg(cols[i], 1, cols)
            yield (i,), lhs, rhs

    comparison(rep, "coassociativity", coassoc_pairs(), shape=(n, 3))

    # (eps (x) id) Delta and (id (x) eps) Delta
    comparison(rep, "counit-axiom", column_pairs(
        [_whiskered(B.counit_map, n, B.comul_map, first) for first in (True, False)]))

    rep.checks.append(B.comultiplicativity)

    # weak unit axiom: Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1))
    #                            = (1 (x) Delta(1))(Delta(1) (x) 1)
    d1 = B.delta_one
    d2 = sparse_coproduct_leg(d1, 0, B.comul_cols)
    prod_a = sparse_mul(B, sparse_embed(d1, 3, (0, 1), B.unit_sparse), d1, 3, (1, 2))
    prod_b = sparse_mul(B, sparse_embed(d1, 3, (1, 2), B.unit_sparse), d1, 3, (0, 1))
    comparison(rep, "weak-unit-axiom", [((), d2, prod_a), ((), d2, prod_b)],
               "Delta^2(1) vs ordered products of Delta(1)", (n, 3))

    def weak_counit_pairs():
        # eps((e_h e_g) e_l) = eps(e_h a) eps(b e_l) = eps(e_h b) eps(a e_l)
        # over the terms a (x) b of Delta(e_g).  With E[x][y] = eps(e_x e_y),
        # T[h, (g, y)] = m_hg^y and D[a, (g, b)] the coefficient of e_a (x) e_b
        # in Delta(e_g), that is one identity of n x n^2 maps,
        # T (id (x) E) = E D (id (x) E), and the same with the legs of D
        # swapped.  X (id (x) E) is each block of n columns of X times E, so
        # each side is compared with its rows cut into blocks (`_row_blocks`)
        # and then times E.  Only when one fails does each g in turn find the
        # witness, with D_g the matrix of Delta(e_g): R_g^T E = E D_g E = E D_g^T E
        E = B._eps_products
        # row h n + g holds eps((e_h e_g) e_l) at column l
        stacked = Matrix.from_entries(n * n, n, (
            (h * n + g, y, c) for (h, g), row in B.mul_rows.items() for y, c in row.items())) * E

        def legs(first):  # D, with leg first of each term as its row
            return Matrix.from_entries(n, n * n, (
                (ab[first], g * n + ab[1 - first], c)
                for g, col in B.comul_cols.items() for ab, c in col.items()))

        if all(stacked == _row_blocks(E * legs(first), n) * E for first in (0, 1)):
            return
        for g in range(n):
            d = Matrix.from_entries(n, n, ((a, b, c) for (a, b), c in B.comul_cols[g].items()))
            full = B.right_mult_mats[g].transpose() * E
            split1 = E * d * E
            split2 = E * d.transpose() * E
            if full != split1 or full != split2:
                for h in range(n):
                    f, s1, s2 = (m.sparse_rows[h] for m in (full, split1, split2))
                    for l in range(n):
                        x = f.get(l, Q0)
                        yield (h, g, l), (x, x), (s1.get(l, Q0), s2.get(l, Q0))
                return

    comparison(rep, "weak-counit-axiom", weak_counit_pairs())
    return rep


def check_quantum_groupoid(H: QuantumGroupoid) -> VerificationReport:
    """Antipode axioms: convolution identities and (anti)morphism laws."""
    rep = VerificationReport("quantum-groupoid")
    n = H.dim
    S = H.antipode
    ident = Matrix.identity(n)

    for name, lhs, rhs, detail in (
        ("antipode-left-convolution", convolve(H, S, ident), H.eps_s_mat, "S * id vs eps_s"),
        ("antipode-right-convolution", convolve(H, ident, S), H.eps_t_mat, "id * S vs eps_t"),
        ("antipode-convolution-identity", convolve(H, S, convolve(H, ident, S)), S,
         "S * id * S vs S"),
    ):
        comparison(rep, name, [((), lhs, rhs)], detail)

    def antimul(i):
        # column j of S L_i is S(e_i e_j), of R_{S(e_i)} S it is S(e_j) S(e_i)
        yield (i,), S * H.left_mult_mats[i], H.right_mult(S.column(i)) * S

    # S(1) = 1 plays the part of rho(1) = id
    one = S.apply(H.unit)
    comparison(rep, "antipode-anti-multiplicative",
               chain([((), one, H.unit)],
                     _on_generators(H, antimul, H.unital_associative and one == H.unit)))

    # column i of each map is eps(S(e_i)), Delta(S(e_i)) and
    # (S (x) S)(Delta_cop(e_i)) = sum c S(e_b) (x) S(e_a) over Delta(e_i)
    eps_s = H.counit_map * S
    delta_s = H.comul_map * S
    cop = Matrix.from_entries(n * n, n, ((b * n + a, i, c) for i, col in H.comul_cols.items()
                                         for (a, b), c in col.items()))
    s_cop = _squared(S, cop)

    def anticomul_pairs():  # scanned only when the maps differ
        if eps_s == H.counit_map and delta_s == s_cop:
            return
        for i in range(n):
            yield (i,), eps_s.column(i), (H.counit[i],)
            yield (i,), delta_s.column(i), s_cop.column(i)

    comparison(rep, "antipode-anti-comultiplicative", anticomul_pairs())

    comparison(rep, "antipode-invertible",
               [((), S * H.antipode_inv, ident), ((), H.antipode_inv * S, ident)])
    return rep
