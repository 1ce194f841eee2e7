"""Left modules, the truncated tensor product, unitors and braidings.

The monoidal product of two modules is the image of the projector given by
the (possibly cocycle-twisted) coproduct of 1 acting componentwise; the
unit object is the target subalgebra H_t with action h . z = eps_t(h z).
Braidings are stored as exact matrices between canonical image bases.

Every object and map of an algebra's module category is built once per
algebra, in one memo kept on the algebra (`_once`), under a key that holds
the values that define it: a module by identity, a 2-tensor, a coproduct and
its unit by value.  Two categories over one algebra therefore share every
tensor whose coproduct and unit are equal, and nothing else.  A truncated
tensor builds its induced action of e_i the first time it is read.  The
checks of a coherence report are kept there too, keyed by everything they
read, braiding tensor included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, wraps
from typing import Optional

from .algebra import (
    QuantumGroupoid,
    _action_identities,
    _on_generators,
    sparse_coproduct_leg,
    sparse_mul,
    target_subalgebra,
)
from .errors import (
    InconsistentStructure,
    MismatchedAlgebra,
    NotCocommutative,
)
from .linalg import (Matrix, SubspaceBasis, _by_first, _dense, _kron_sum, _restrict, _row_blocks,
                     _whiskered)
from .report import VerificationReport, Witness, comparison, require
from .structures import QTStructure, WeakCocycle, _mul2, swap2


class HModule:
    """Left module over a quantum groupoid, one action matrix per basis."""

    def __init__(self, algebra: QuantumGroupoid, mats, name=""):
        """mats: one action matrix per basis element, or the `_Actions` of a
        truncated tensor, which are kept as they are and built when read."""
        self.algebra = algebra
        if isinstance(mats, _Actions):
            self.mats, self.dim = mats, mats.dim
        else:
            self.mats = tuple(mats)
            self.dim = self.mats[0].rows if self.mats else 0
        if len(self.mats) != algebra.dim:
            raise MismatchedAlgebra("need one action matrix per algebra basis")
        self.name = name

    def act_element(self, x) -> Matrix:
        """Action matrix of an algebra element given by coefficients."""
        return Matrix.lincomb(
            ((c, self.mats[i]) for i, c in enumerate(x) if c), self.dim, self.dim
        )

    @cached_property
    def laws(self) -> VerificationReport:
        """check_module(self), decided once per module."""
        return check_module(self)

    def validate(self):
        """(gh) . v = g . (h . v) on basis pairs and 1 . v = v, or raise."""
        require(self.laws, _module_failure)
        return self


def _module_failure(check):
    if check.name == "action-multiplicative":
        return InconsistentStructure("action is not multiplicative at basis pair (%d, %d)"
                                     % check.witness.indices[:2])
    return InconsistentStructure("unit does not act as the identity")


def check_module(M: HModule) -> VerificationReport:
    """Both module axioms; a failing check carries the dense columns at its
    first failing basis tuple.  When H is unital and associative and 1 acts
    as the identity, the action is multiplicative once it is so on the
    generators: rho(s e_j) = rho(s) rho(e_j) for s in them and every j,
    one stacked identity per s."""
    rep = VerificationReport("module")
    H = M.algebra
    one, ident = M.act_element(H.unit), Matrix.identity(M.dim)
    identities, stacked = _action_identities(H.mul_rows, M.mats)
    comparison(rep, "action-multiplicative",
               _on_generators(H, identities, H.unital_associative and one == ident,
                              stacked=stacked))
    comparison(rep, "unit-acts-as-identity", [((), one, ident)])
    return rep


def _modules_over(H, *modules) -> bool:
    """H is unital and associative, and each of modules satisfies the module
    laws over H's product and unit: then the basis elements h with
    x rho(h) = rho'(h) x, x a map between two of them, form a subalgebra
    that holds 1 (which acts as the identity on both), and the generators
    decide it (`_on_generators`)."""
    return H.unital_associative and all(
        M.algebra.mul_rows == H.mul_rows and M.algebra.unit == H.unit and M.laws.passed
        for M in modules)


def _module_map_identities(x, src: HModule, dst: HModule, gate=True, at_one=None):
    """The triples ((h,), x src(e_h), dst(e_h) x) over the basis of H,
    src's algebra, for `comparison`: x is a module map from src to dst.
    Decided on the generators when gate holds and `_modules_over` H both
    modules.  With at_one, the identity x = dst(1) x, dst need not be a
    module: gate then states that its actions are multiplicative, and
    at_one stands for dst(1) = id.  A false gate scans every h."""
    H = src.algebra

    def identities(h):
        yield (h,), x * src.mats[h], dst.mats[h] * x

    if at_one is None:
        return _on_generators(H, identities, gate and _modules_over(H, src, dst))
    return _on_generators(H, identities, gate and _modules_over(H, src), at_one)


def _once(H, key, build):
    """build(), built once per algebra H: the value kept under key in the
    memo of H's module category.  The memo lives on H; neither a copy of H
    (`WeakBialgebra.__getstate__`) nor a quantum groupoid built on H's
    tables takes it over."""
    memo = H.__dict__.setdefault("_category", {})
    value = memo.get(key)
    if value is None:
        value = memo[key] = build()
    return value


def _kept(build):
    """build(H), built once per algebra H."""

    @wraps(build)
    def kept(H):
        return _once(H, build, lambda: build(H))

    return kept


@_kept
def regular_module(H: QuantumGroupoid) -> HModule:
    return HModule(H, H.left_mult_mats, name="regular")


@_kept
def ht_module(H: QuantumGroupoid):
    """The unit object: H_t with action h . z = eps_t(h z).

    Returns (basis of H_t, HModule in H_t coordinates).
    """
    ht = target_subalgebra(H)
    emb = ht.embedding()
    # column j of eps_t L_i emb is eps_t(e_i z_j)
    mats = [_restrict(H.eps_t_mat * left * emb, ht,
                      lambda j, v: InconsistentStructure("eps_t(h z) escaped H_t"))
            for left in H.left_mult_mats]
    return ht, HModule(H, mats, name="H_t")


class _Actions:
    """The induced actions of a truncated tensor, dim x dim each: action i
    is build(i), built the first time index i is read."""

    __slots__ = ("dim", "_build", "_built")

    def __init__(self, n, dim, build):
        self.dim = dim
        self._build = build
        self._built = [None] * n

    def __len__(self):
        return len(self._built)

    def __getitem__(self, i):
        i = range(len(self._built))[i]
        m = self._built[i]
        if m is None:
            m = self._built[i] = self._build(i)
        return m

    def __iter__(self):
        return (self[i] for i in range(len(self._built)))


@dataclass
class TruncatedTensor:
    """Image of the unit-coproduct projector on M (x) N with induced action."""

    left: HModule
    right: HModule
    projector: Matrix
    basis: SubspaceBasis
    inclusion: Matrix  # ambient x image-dim
    projection: Matrix  # image-dim x ambient
    module: HModule  # induced action in image coordinates, built when read

    @property
    def ambient_dim(self):
        return self.left.dim * self.right.dim

    @property
    def dim(self):
        return self.basis.dim


def _componentwise_action(M: HModule, N: HModule, elem2) -> Matrix:
    """Action of a sparse element of H (x) H on M (x) N (first leg on M)."""
    return _kron_sum(elem2, M.mats, N.mats, M.dim, N.dim)


def twisted_coproduct_column(H, wc: WeakCocycle, i) -> dict:
    """F^-1 Delta(e_i) F as a sparse 2-tensor."""
    return _mul2(H, wc.finv, H.comul_cols[i], wc.f)


def truncated_tensor(M: HModule, N: HModule, ctx: "BraidContext",
                     validate: bool = True) -> TruncatedTensor:
    """The truncated tensor of M and N in ctx's category, built once per
    algebra, module pair and coproduct; its induced action is validated
    when validate is true.  When ctx's coproduct c is multiplicative with
    c(1) the unit 2-tensor (`BraidContext.comultiplicative`) and M and N
    are modules, the induced action is one, and its laws are recorded as
    passed with no action built: with A the action on M (x) N and
    P = A(c(1)) = incl proj, A(c_h) = P A(c_h) P, so
    proj A(c_g) incl proj A(c_h) incl = proj A(c_g c_h) incl, the action
    of gh, and 1 acts as proj P incl = id."""
    if M.algebra is not N.algebra:
        raise MismatchedAlgebra("modules over different algebras")
    t = _once(ctx.algebra, ("tensor", M, N, ctx.coproduct_key), lambda: _tensor(M, N, ctx))
    if validate:
        if ("laws" not in vars(t.module) and ctx.comultiplicative
                and _modules_over(ctx.algebra, M, N)):
            t.module.laws = _laws_hold()
        t.module.validate()
    return t


def _laws_hold() -> VerificationReport:
    """The report `check_module` gives a module whose laws hold."""
    rep = VerificationReport("module")
    for name in ("action-multiplicative", "unit-acts-as-identity"):
        rep.add(name, True)
    return rep


def _tensor(M: HModule, N: HModule, ctx: "BraidContext") -> TruncatedTensor:
    H = ctx.algebra
    columns, unit2 = ctx.coproduct
    projector = ctx.action(M, N, unit2)
    if projector * projector != projector:
        raise InconsistentStructure("tensor projector is not idempotent")
    basis = projector.column_space()
    inclusion = basis.embedding()
    # projection = the projector's rows at the pivots, its columns in basis
    # coordinates; proj . incl = id and incl . proj = projector.
    rows = projector.sparse_rows
    projection = Matrix._of(basis.dim, projector.cols, [rows[p] for p in basis.pivots])

    def induced(i):
        return projection * ctx.action(M, N, columns[i]) * inclusion

    return TruncatedTensor(M, N, projector, basis, inclusion, projection,
                           HModule(H, _Actions(H.dim, basis.dim, induced), name="tensor"))


def _flipped(a: Matrix, m, n) -> Matrix:
    """a times the flip of an m-dim (x) n-dim space onto the n-dim (x) m-dim
    one: column b m + i of a, for i < m and b < n, becomes column i n + b."""
    return Matrix._of(a.rows, a.cols, [{(j % m) * n + j // m: x for j, x in row.items()}
                                       for row in a.sparse_rows])


# ---------------------------------------------------------------------------
# braid context: the module category, and everything built in it


@dataclass(frozen=True)
class BraidContext:
    """The braided module category of an algebra: plain with the R-matrix
    qt (`psi`), or twisted by the cocycle wc (`phi`) exactly when wc is set.

    What it builds is kept in the memo of the algebra's module category
    (`_once`), keyed on the module objects and on values: each action of a
    2-tensor on M (x) N by ("action", M, N, its terms), each truncated
    tensor by ("tensor", M, N, coproduct_key), each plain braiding by
    ("braiding", M, N, the terms of the 2-tensor that braids), the column
    spaces of `coherence_report`'s bracketings, built when
    `_bracketings_agree` does not decide them, by ("bracketing", M, N, P,
    coproduct_key), and its checks by ("coherence", M, N, P, coproduct_key,
    the terms of the 2-tensor that braids).  When F commutes with every
    Delta(h), as it does when F is trivial or H is commutative,
    F^-1 Delta(h) F = Delta(h): the two categories then share every tensor,
    and differ in their braidings only.  When also F = Delta(1) and R is the
    canonical Delta_cop(1) Delta(1), both braiding tensors are Delta(1) (H
    is cocommutative), so the two categories share every braiding and the
    coherence report as well.
    """

    algebra: QuantumGroupoid
    qt: Optional[QTStructure] = None
    wc: Optional[WeakCocycle] = None

    @classmethod
    def psi(cls, H, qt):
        return cls(H, qt=qt)

    @classmethod
    def phi(cls, H, wc):
        if not H.is_cocommutative:
            raise NotCocommutative("the twisted category requires cocommutativity")
        return cls(H, wc=wc)

    @cached_property
    def coproduct(self):
        """(columns, unit): the coproduct of each basis element and of 1 as
        sparse 2-tensors, conjugated by the cocycle (F^-1 Delta(e_i) F and
        F^-1 F) in the twisted category.  Built once per context."""
        H = self.algebra
        if self.wc is None:
            return H.comul_cols, H.delta_one
        columns = [twisted_coproduct_column(H, self.wc, i) for i in range(H.dim)]
        # F^-1 F = Delta_cop(1), = Delta(1) when cocommutative
        return columns, _mul2(H, self.wc.finv, self.wc.f)

    @cached_property
    def comultiplicative(self) -> bool:
        """The coproduct in use, c, is multiplicative and c(1) is the unit
        2-tensor (`coproduct`), decided once per context from verdicts
        already reached: H is unital and associative and its coproduct is
        multiplicative, and in the twisted category F F^-1 = Delta(1), so
        that c_g c_h = F^-1 Delta(g) Delta(1) Delta(h) F = c_gh.  The
        twisted columns' identities are not decided again."""
        H = self.algebra
        columns, unit2 = self.coproduct
        if not (H.unital_associative and H.comultiplicativity.passed
                and sparse_coproduct_leg(H.unit_sparse, 0, columns) == unit2):
            return False
        return self.wc is None or sparse_mul(H, self.wc.f, self.wc.finv, 2) == H.delta_one

    @cached_property
    def coproduct_key(self):
        """The coproduct columns and the unit 2-tensor as one value, which
        keys what is built from them."""
        columns, unit2 = self.coproduct
        return (tuple(frozenset(columns[i].items()) for i in range(self.algebra.dim)),
                frozenset(unit2.items()))

    @cached_property
    def _braid(self):
        """(g, its terms) for the 2-tensor g whose action on N (x) M, with
        its columns relabelled, is the plain braiding of M past N: R_21, or
        F^-1 F_21 in the twisted category."""
        if self.wc is None:
            g = swap2(self.qt.r)
        else:
            g = _mul2(self.algebra, self.wc.finv, swap2(self.wc.f))
        return g, frozenset(g.items())

    def action(self, M, N, elem2) -> Matrix:
        """The action of the sparse 2-tensor elem2 on M (x) N, first leg on
        M, built once per algebra, module pair and 2-tensor."""
        return _once(self.algebra, ("action", M, N, frozenset(elem2.items())),
                     lambda: _componentwise_action(M, N, elem2))

    def braiding_plain(self, M, N) -> Matrix:
        """M (x) N -> N (x) M on plain coordinates: v (x) w -> R^(2) . w (x)
        R^(1) . v, or m (x) n -> (F^-(1) F'(2)) . n (x) (F^-(2) F'(1)) . m:
        the action of g on N (x) M with its columns relabelled."""
        g, terms = self._braid
        return _once(self.algebra, ("braiding", M, N, terms),
                     lambda: _flipped(self.action(N, M, g), M.dim, N.dim))

    def braiding(self, M, N):
        """The braiding of M past N and its inverse, between the image bases
        of the truncated tensors.  The inverse is w (x) v -> R^-(2) . v (x)
        R^-(1) . w in the plain category and the matrix inverse in the
        twisted one, which requires cocommutativity."""
        if self.wc is not None and not self.algebra.is_cocommutative:
            raise NotCocommutative("the twisted braiding requires cocommutativity")
        t_mn, t_nm = truncated_tensor(M, N, self), truncated_tensor(N, M, self)
        braid = t_nm.projection * self.braiding_plain(M, N) * t_mn.inclusion
        if self.wc is None:
            inv_plain = _flipped(self.action(M, N, swap2(self.qt.rinv)), N.dim, M.dim)
            return braid, t_mn.projection * inv_plain * t_nm.inclusion
        inv = braid.inverse()
        if inv is None:
            raise InconsistentStructure("twisted braiding is not invertible")
        return braid, inv

    def triple_projector(self, A, B, C) -> Matrix:
        """Delta^2(1) acting on A (x) B (x) C in plain coordinates: the sum
        of c (Delta(x) on A (x) B) (x) (y on C) over the terms c x (x) y of
        Delta(1)."""
        columns = self.coproduct[0]
        delta1 = sparse_coproduct_leg(self.algebra.unit_sparse, 0, columns)
        left = {x: self.action(A, B, columns[x]) for x in _by_first(delta1)}
        return _kron_sum(delta1, left, C.mats, A.dim * B.dim, C.dim)

# ---------------------------------------------------------------------------
# unitors


def unitors(M: HModule, ctx: BraidContext):
    """Unit constraints l(z (x) v) = z . v and r(v (x) z) = S^-1(z) . v.

    Returns (l, r, left_tensor, right_tensor) where l and r map image
    coordinates of H_t (x) M resp. M (x) H_t onto M.  Raises when either
    fails to be a bijection onto M.
    """
    H = ctx.algebra
    ht, zmod = ht_module(H)
    t_l = truncated_tensor(zmod, M, ctx)
    t_r = truncated_tensor(M, zmod, ctx)

    l_plain = _unitor_plain(M, ht, left=True)
    r_plain = _unitor_plain(M, ht, left=False)

    l_mat = l_plain * t_l.inclusion
    r_mat = r_plain * t_r.inclusion
    if t_l.dim != M.dim or l_mat.inverse() is None:
        raise InconsistentStructure("left unitor is not a bijection onto the module")
    if t_r.dim != M.dim or r_mat.inverse() is None:
        raise InconsistentStructure("right unitor is not a bijection onto the module")

    def identities(h):
        yield "left", l_mat * t_l.module.mats[h], M.mats[h] * l_mat
        yield "right", r_mat * t_r.module.mats[h], M.mats[h] * r_mat

    gate = _modules_over(H, t_l.module, t_r.module, M)
    for side, lhs, rhs in _on_generators(H, identities, gate):
        if lhs != rhs:
            raise InconsistentStructure("%s unitor is not a module morphism" % side)
    return l_mat, r_mat, t_l, t_r


def _unitor_plain(M: HModule, ht: SubspaceBasis, left) -> Matrix:
    """The left unitor z (x) v -> z . v on plain H_t (x) M coordinates, or
    the right unitor v (x) z -> S^-1(z) . v on plain M (x) H_t coordinates."""
    H = M.algebra
    t = ht.dim
    zs = ht.embedding() if left else H.antipode_inv * ht.embedding()
    entries = []
    for zi in range(t):
        act = M.act_element(zs.column(zi))
        for r, row in enumerate(act.sparse_rows):
            for vi, x in row.items():
                entries.append((r, zi * M.dim + vi if left else vi * t + zi, x))
    return Matrix.from_entries(M.dim, t * M.dim, entries)


# ---------------------------------------------------------------------------
# optional coherence checks (hexagons etc. on module triples)


def coherence_report(ctx: BraidContext, M: HModule, N: HModule, P: HModule) -> VerificationReport:
    """Hexagon identities and bracketing consistency on a module triple.

    Both bracketings are decided from two elements of H^(x)3 when the
    coproduct and the modules allow it (`_bracketings_agree`), and as
    subspaces of M (x) N (x) P otherwise.  On the regular module both
    hexagons are decided at one vector, elsewhere as maps on that space.
    The checks are decided once per algebra, module triple, coproduct and
    braiding tensor, the values they read; each call returns a new report.
    """
    _, braid_terms = ctx._braid
    checks = _once(ctx.algebra, ("coherence", M, N, P, ctx.coproduct_key, braid_terms),
                   lambda: tuple(_coherence_checks(ctx, M, N, P).checks))
    return VerificationReport("coherence", list(checks))


def _coherence_checks(ctx: BraidContext, M: HModule, N: HModule, P: HModule) -> VerificationReport:
    """The checks of `coherence_report`.  Every map X (x) id or id (x) X is
    applied to the thin map on its right as a whiskered product
    (`_whiskered`), so no Kronecker product is built and no two maps on
    M (x) N (x) P are multiplied."""
    rep = VerificationReport("coherence")
    H = ctx.algebra
    t_mn = truncated_tensor(M, N, ctx, validate=False)
    t_np = truncated_tensor(N, P, ctx, validate=False)

    @cache
    def lift_l():  # the left bracketing's basis in plain coordinates, built when read
        left = truncated_tensor(t_mn.module, P, ctx, validate=False)
        return _whiskered(t_mn.inclusion, P.dim, left.inclusion, first=True)

    # both bracketings must carve out the same subspace of M (x) N (x) P,
    # and so must the triple projector in plain coordinates
    if _bracketings_agree(ctx, M, N, P):
        rep.add("bracketing-subspaces-equal", True)
        rep.add("iterated-unit-projector-subspace", True)
    else:
        def bracketings():
            right = truncated_tensor(M, t_np.module, ctx, validate=False)
            lift_r = _whiskered(t_np.inclusion, M.dim, right.inclusion, first=False)
            return (lift_l().column_space(), lift_r.column_space(),
                    ctx.triple_projector(M, N, P).column_space())

        sub_l, sub_r, sub_3 = _once(H, ("bracketing", M, N, P, ctx.coproduct_key),
                                    bracketings)
        _same_subspace(rep, "bracketing-subspaces-equal", sub_l, sub_r)
        _same_subspace(rep, "iterated-unit-projector-subspace", sub_3, sub_l)

    if (H.unital_associative and M is N is P is regular_module(H) and rep.passed
            and _hexagons_at_cyclic_vector(ctx, M, t_mn, t_np)):
        rep.add("hexagon-first", True)
        rep.add("hexagon-second", True)
    else:
        # hexagon 1: braiding M past N (x) P equals braiding in two steps,
        # realized on plain M (x) N (x) P coordinates (associators are the
        # identity there); both hexagons braid M past P.  Each side is applied
        # to lift_l, from the right
        lift = lift_l()
        psi_m_p = ctx.braiding_plain(M, P)
        psi_m_np = ctx.braiding_plain(M, t_np.module)
        lhs = _whiskered(t_np.projection, M.dim, lift, first=False)
        lhs = _whiskered(t_np.inclusion, M.dim, psi_m_np * lhs, first=True)
        rhs = _whiskered(ctx.braiding_plain(M, N), P.dim, lift, first=True)
        rhs = _whiskered(psi_m_p, N.dim, rhs, first=False)
        comparison(rep, "hexagon-first", [((), lhs, rhs)])

        # hexagon 2: braiding M (x) N past P
        psi_mn_p = ctx.braiding_plain(t_mn.module, P)
        lhs = _whiskered(t_mn.projection, P.dim, lift, first=True)
        lhs = _whiskered(t_mn.inclusion, P.dim, psi_mn_p * lhs, first=False)
        rhs = _whiskered(ctx.braiding_plain(N, P), M.dim, lift, first=False)
        rhs = _whiskered(psi_m_p, N.dim, rhs, first=True)
        comparison(rep, "hexagon-second", [((), lhs, rhs)])

    # unitor triangle: (id (x) l) = (r (x) id) across M (x) H_t (x) N
    ht, zmod = ht_module(H)
    triple_z = ctx.triple_projector(M, zmod, N)
    lhs = _whiskered(_unitor_plain(N, ht, left=True), M.dim, triple_z, first=False)
    rhs = _whiskered(_unitor_plain(M, ht, left=False), N.dim, triple_z, first=True)
    comparison(rep, "unitor-triangle", [((), lhs, rhs)])
    return rep


def _bracketings_agree(ctx, M, N, P) -> bool:
    """Both bracketings of M (x) N (x) P are the image of the triple
    projector, decided from two elements of H^(x)3: c, the coproduct in
    use, is multiplicative with c(1) the unit 2-tensor
    (`BraidContext.comultiplicative`), M, N and P are modules
    (`_modules_over`), and (c (x) id) c(1) = (id (x) c) c(1).  Let A be the
    action of H^(x)3 on M (x) N (x) P, multiplicative as M, N and P are
    modules, and P_mn = A_mn(c(1)) = incl proj on M (x) N.  As
    c(1) c(x) = c(x) = c(x) c(1), A_mn(c(x)) = P_mn A_mn(c(x)) P_mn, so the
    left bracketing's projector, lifted to plain coordinates, is
    (P_mn (x) id) A((c (x) id) c(1)) (P_mn (x) id) = A((c (x) id) c(1)),
    whose image is the column space of lift_l: the left bracketing is the
    image of A((c (x) id) c(1)), which is the triple projector.  So, alike,
    is the right one the image of A((id (x) c) c(1)), and equal elements
    give equal subspaces.  A no decides nothing."""
    columns, unit2 = ctx.coproduct
    return (ctx.comultiplicative and _modules_over(ctx.algebra, M, N, P)
            and sparse_coproduct_leg(unit2, 0, columns)
            == sparse_coproduct_leg(unit2, 1, columns))


def _hexagons_at_cyclic_vector(ctx, M, t_mn, t_np) -> bool:
    """Both hexagons hold on M (x) M (x) M, decided at e = c^2(1) =
    (c (x) id) c(1), c the coproduct in use.  The caller has found H unital
    and associative, M its regular module, and both bracketings equal to the
    image of the triple projector, the left multiplication by e: e H^(x)3.
    In plain coordinates each map a hexagon compares is a left
    multiplication by an element of H^(x)3 after a leg permutation (incl
    proj is the action of the unit 2-tensor), and both sides permute the
    legs alike, by sigma say.  Left multiplications commute with right ones,
    H being associative, so d = lhs - rhs has d(e x) = d(e) sigma(x): d
    vanishes on e H^(x)3 exactly when d(e) = 0.  e is held as an n^2 x n
    matrix with a pair of legs on its rows, which `turn` moves round, so
    each step is one small product, and no braiding past a truncated tensor
    is built."""
    H, n = ctx.algebra, M.dim
    columns = ctx.coproduct[0]
    e = sparse_coproduct_leg(sparse_coproduct_leg(H.unit_sparse, 0, columns), 0, columns)
    e01 = Matrix.from_entries(n * n, n, ((a * n + b, c, x) for (a, b, c), x in e.items()))

    def turn(m):  # legs a, b on the rows, a n + b, and c on the columns -> c, a and b
        return _row_blocks(m.transpose(), n)

    e12 = turn(turn(e01))
    g, _ = ctx._braid
    plain = ctx.braiding_plain(M, M)
    # hexagon 1 onto N (x) P (x) M, and hexagon 2 onto P (x) M (x) N
    lhs1 = t_np.inclusion * _acted(g, t_np.module, M, t_np.projection * e12)
    lhs2 = t_mn.inclusion * _acted(swap2(g), t_mn.module, M, t_mn.projection * e01)
    return (lhs1 == turn(plain * turn(turn(plain * e01)))
            and turn(lhs2) == plain * turn(plain * e12))


def _acted(x2, A: HModule, B: HModule, v: Matrix) -> Matrix:
    """The action of the sparse 2-tensor x2 on A (x) B, first leg on A, on
    the vector held as the matrix v, A on its rows and B on its columns:
    sum c A(e_a) v B(e_b)^T, one product per first leg (`_by_first`)."""
    return Matrix.lincomb(((1, A.mats[a] * v * Matrix.lincomb(
        ((c, B.mats[b]) for b, c in bs.items()), B.dim, B.dim).transpose())
        for a, bs in _by_first(x2).items()), v.rows, v.cols)


def _same_subspace(rep, name, a: SubspaceBasis, b: SubspaceBasis):
    """Check that a and b are one subspace.  The witness of a failure is the
    first canonical basis vector of a outside b, as lhs, or else the first
    of b outside a, as rhs; its index in its basis is the witness index."""
    if a == b:
        rep.add(name, True)
        return
    outside = [((k,), row, {}) for k, row in enumerate(a.sparse_rows) if b._residual(row)]
    outside += [((k,), {}, row) for k, row in enumerate(b.sparse_rows) if a._residual(row)]
    indices, lhs, rhs = outside[0]
    n = a.ambient_dim
    lhs, rhs = (tuple(_dense(row, n)) if row else () for row in (lhs, rhs))
    rep.add(name, False, Witness(indices, lhs, rhs, "basis vector outside the other subspace"))
