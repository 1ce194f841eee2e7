"""Centralizer carriers and braided Hopf algebra presentations.

Given a quasitriangular quantum groupoid acting through a morphism f on a
quantum groupoid L, the centralizer of the source subalgebra of L carries
five structure maps making it a Hopf algebra in the module category.  This
module computes those maps in canonical carrier coordinates and verifies
every axiom of a Hopf algebra internal to a braided category.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    QuantumGroupoid,
    source_subalgebra,
    sparse_coproduct_leg,
    sparse_of_dense,
    target_subalgebra,
)
from .errors import ClosureViolation, MismatchedAlgebra
from .linalg import Matrix, Q0, Q1, SubspaceBasis, kron, lincomb, outer
from .modules import BraidContext, HModule, _componentwise_action, ht_module, unitors
from .report import VerificationReport, Witness, comparison
from .structures import QTStructure


def centralizer(L: QuantumGroupoid) -> SubspaceBasis:
    """Canonical basis of {l in L : l x = x l for all x in the source part}."""
    hs = source_subalgebra(L)
    if hs.dim == 0:
        return SubspaceBasis.from_spanning(
            L.dim, [L.basis_vector(i) for i in range(L.dim)]
        )
    stacked = Matrix.vstack([L.left_mult(x) - L.right_mult(x) for x in hs.vectors], L.dim)
    return stacked.kernel_basis()


@dataclass(frozen=True)
class QGMorphism:
    source: QuantumGroupoid
    target: QuantumGroupoid
    matrix: Matrix  # column i = image of source basis i in target coordinates

    def apply(self, x):
        return self.matrix.apply(x)


def identity_morphism(H: QuantumGroupoid) -> QGMorphism:
    return QGMorphism(H, H, Matrix.identity(H.dim))


def check_morphism(f: QGMorphism) -> VerificationReport:
    """Multiplication, unit, comultiplication, counit preservation (and,
    derived from those, compatibility with the antipodes)."""
    rep = VerificationReport("morphism")
    H, L, m = f.source, f.target, f.matrix
    n = H.dim

    comparison(
        rep,
        "multiplicative",
        (
            ((i, j), f.apply(H.mul[i][j]), L.mul_elem(m.column(i), m.column(j)))
            for i in range(n)
            for j in range(n)
        ),
    )
    comparison(rep, "unit-preserving", [((), f.apply(H.unit), L.unit)])

    def comul_pairs():
        for i in range(n):
            lhs = L.comul_of(m.column(i))
            rhs = [Q0] * (L.dim * L.dim)
            for (a, b), c in H.comul_cols[i].items():
                outer(m.column(a), m.column(b), c, rhs)
            yield (i,), lhs, tuple(rhs)

    comparison(rep, "comultiplicative", comul_pairs())
    comparison(
        rep,
        "counit-preserving",
        (((i,), (L.counit_of(m.column(i)),), (H.counit[i],)) for i in range(n)),
    )
    comparison(
        rep,
        "antipode-compatible",
        (
            ((i,), f.apply(H.antipode.column(i)), L.antipode.apply(m.column(i)))
            for i in range(n)
        ),
    )
    return rep


@dataclass(frozen=True)
class BraidedHopfPresentation:
    """Five structure maps on a centralizer carrier, in canonical coordinates.

    mul and comul are stored on plain tensor-square coordinates of the
    carrier; both factor through the truncated tensor, which the verifier
    checks rather than assumes.
    """

    acting: QuantumGroupoid
    ambient: QuantumGroupoid
    carrier: SubspaceBasis
    ht: SubspaceBasis
    action: HModule
    mul: Matrix       # carrier^2 plain -> carrier
    unit: Matrix      # H_t coords -> carrier
    comul: Matrix     # carrier -> carrier^2 plain
    counit: Matrix    # carrier -> H_t coords
    antipode: Matrix  # carrier -> carrier
    # ambient_action of the construction: one ambient matrix per acting basis
    ad: tuple = field(compare=False, repr=False)

    @property
    def carrier_dim(self):
        return self.carrier.dim

    def unit_element_coords(self):
        coords = self.carrier.coordinates(self.ambient.unit)
        if coords is None:
            raise ClosureViolation("ambient unit is outside the carrier")
        return coords

    def structurally_equal(self, other: "BraidedHopfPresentation") -> bool:
        return (
            self.carrier == other.carrier
            and self.ht == other.ht
            and self.action.mats == other.action.mats
            and self.mul == other.mul
            and self.unit == other.unit
            and self.comul == other.comul
            and self.counit == other.counit
            and self.antipode == other.antipode
        )


def ambient_action(f: QGMorphism):
    """Matrices of h . l = f(h_1) l f(S(h_2)) on the target of f, one per
    basis element h of the source (the adjoint action when f = id)."""
    H, L = f.source, f.target
    fs_of = [f.apply(H.antipode.column(i)) for i in range(H.dim)]
    return [
        Matrix.lincomb(
            ((c, L.left_mult(f.matrix.column(a)) * L.right_mult(fs_of[b]))
             for (a, b), c in H.comul_cols[i].items()),
            L.dim,
            L.dim,
        )
        for i in range(H.dim)
    ]


def _present(f: QGMorphism, ad, product, coproduct, antipode):
    """The presentation on the centralizer carrier of f.target.

    Every construction shares the carrier, H_t, the action ad (which is
    ambient_action(f)), the unit z -> f(z) and the counit
    eps(l) = eps_L(f(1_1) l) 1_2.  The three rules give the rest:
    product(a, b), coproduct(a) and antipode(a) take carrier vectors to
    ambient vectors (coproduct to the ambient tensor square).  Raises
    ClosureViolation when a map leaves its codomain.
    """
    H, L = f.source, f.target
    carrier = centralizer(L)
    ht = target_subalgebra(H)
    m = carrier.dim

    def to_carrier(v, what, idx):
        coords = carrier.coordinates(v)
        if coords is None:
            raise ClosureViolation(
                "%s escaped the carrier" % what,
                witness=Witness(tuple(idx), tuple(v), (), what),
            )
        return coords

    action_mats = []
    for i in range(H.dim):
        cols = [
            to_carrier(ad[i].apply(cv), "module action", (i, k))
            for k, cv in enumerate(carrier.vectors)
        ]
        action_mats.append(Matrix.from_columns(cols, m))
    action = HModule(H, action_mats, name="carrier")
    action.validate()

    mul = Matrix.from_columns(
        [to_carrier(product(ci, cj), "product", (i, j))
         for i, ci in enumerate(carrier.vectors)
         for j, cj in enumerate(carrier.vectors)],
        m,
    )

    unit = Matrix.from_columns(
        [to_carrier(f.apply(x), "unit image", (k,)) for k, x in enumerate(ht.vectors)],
        m,
    )

    comul_cols = []
    for k, cv in enumerate(carrier.vectors):
        val = coproduct(cv)
        coords = carrier.pair_coordinates(val)
        if coords is None:
            raise ClosureViolation(
                "coproduct escaped the carrier tensor square",
                witness=Witness((k,), tuple(val), (), "coproduct"),
            )
        comul_cols.append(coords)

    ones = [(f.matrix.column(a), b, c) for (a, b), c in H.delta_one_sparse.items()]
    counit_cols = []
    for k, cv in enumerate(carrier.vectors):
        val = [Q0] * H.dim
        for f1, b, c in ones:
            s = L.counit_of(L.mul_elem(f1, cv))
            if s:
                val[b] += c * s
        coords = ht.coordinates(tuple(val))
        if coords is None:
            raise ClosureViolation(
                "counit escaped the target subalgebra",
                witness=Witness((k,), tuple(val), (), "counit"),
            )
        counit_cols.append(coords)

    antipode = Matrix.from_columns(
        [to_carrier(antipode(cv), "antipode", (k,))
         for k, cv in enumerate(carrier.vectors)],
        m,
    )
    return BraidedHopfPresentation(
        acting=H,
        ambient=L,
        carrier=carrier,
        ht=ht,
        action=action,
        mul=mul,
        unit=unit,
        comul=Matrix.from_columns(comul_cols, m * m),
        counit=Matrix.from_columns(counit_cols, ht.dim),
        antipode=antipode,
        ad=tuple(ad),
    )


def transmute(
    H: QuantumGroupoid,
    qt: QTStructure,
    target: QuantumGroupoid = None,
    morphism: QGMorphism = None,
) -> BraidedHopfPresentation:
    """Install the braided Hopf structure on the centralizer carrier.

    With target/morphism omitted the construction is applied to H itself
    through the identity (the adjoint action h . g = h_1 g S(h_2)).
    """
    L = target if target is not None else H
    f = morphism if morphism is not None else identity_morphism(H)
    if f.source is not H or f.target is not L:
        raise MismatchedAlgebra("morphism endpoints do not match the inputs")

    n = H.dim
    ad = ambient_action(f)
    f_of = [f.matrix.column(i) for i in range(n)]
    fs_of = [f.apply(H.antipode.column(i)) for i in range(n)]
    rs = qt.sparse[0].items()

    def coproduct(l):
        # Delta(l) = l_1 f(S(R^(2))) (x) R^(1) . l_2 over Delta_L(l) and R
        val = [Q0] * (L.dim * L.dim)
        for (l1, l2), c in sparse_of_dense(L.comul_of(l), L.dim, 2).items():
            for (x, y), cr in rs:
                left = L.mul_elem(L.basis_vector(l1), fs_of[y])
                outer(left, ad[x].column(l2), c * cr, val)
        return val

    def antipode(l):
        # S(l) = f(R^(2)) S_L(R^(1) . l)
        return lincomb(
            ((cr, L.mul_elem(f_of[y], L.antipode.apply(ad[x].apply(l))))
             for (x, y), cr in rs),
            L.dim,
        )

    return _present(f, ad, L.mul_elem, coproduct, antipode)


# ---------------------------------------------------------------------------
# the braided Hopf verifier


def verify_braided_hopf(p: BraidedHopfPresentation, ctx: BraidContext) -> VerificationReport:
    """Every axiom of a Hopf algebra internal to the braided category.

    Checks, in order: well-definedness through the truncated tensor,
    module-morphism property of all five maps, (co)associativity, unit and
    counit laws through the unitors, the braided bialgebra compatibility,
    counit multiplicativity, grouplike unit, and both antipode axioms.
    """
    rep = VerificationReport("braided-hopf")
    H = ctx.algebra
    m = p.carrier_dim
    cmod = p.action
    t2 = ctx.tensor(cmod, cmod)

    # (0) well-definedness: both maps factor through the truncated tensor
    rep.add("product-factors-through-tensor", p.mul * t2.projector == p.mul)
    rep.add("coproduct-lands-in-tensor", t2.projector * p.comul == p.comul)

    # (a) all five maps are module morphisms: x . (h on the source) equals
    # (h on the target) . x for every basis element h
    _, htmod = ht_module(H)
    mul_inc = p.mul * t2.inclusion
    big2 = [
        _componentwise_action(cmod, cmod, ctx.coproduct[0][h]) for h in range(H.dim)
    ]
    for name, x, src, dst in (
        ("product", mul_inc, t2.module.mats, cmod.mats),
        ("unit", p.unit, htmod.mats, cmod.mats),
        ("coproduct", p.comul, cmod.mats, big2),
        ("counit", p.counit, cmod.mats, htmod.mats),
        ("antipode", p.antipode, cmod.mats, cmod.mats),
    ):
        comparison(
            rep,
            name + "-module-morphism",
            (
                ((h,), col_l, col_r)
                for h in range(H.dim)
                for col_l, col_r in _columns_pair(x * src[h], dst[h] * x)
            ),
        )

    # (b) associativity on the iterated truncated tensor, spanned by the
    # columns of the triple unit-coproduct projector
    mul_cols = p.mul.transpose().sparse_rows
    act_cols = [a.transpose().sparse_rows for a in cmod.mats]
    w3 = ctx.unit_coproduct_power(3)

    def triple_column(i, j, k):
        col = {}
        for (a, b, c), w in w3.items():
            va = act_cols[a][i]
            vb = act_cols[b][j]
            vc = act_cols[c][k]
            for pp, cp in va.items():
                for qq, cq in vb.items():
                    w2 = w * cp * cq
                    for rr, cr in vc.items():
                        key = (pp, qq, rr)
                        col[key] = col.get(key, Q0) + w2 * cr
        return {kk: v for kk, v in col.items() if v}

    def eval_two_steps(col, first_pair):
        out = [Q0] * m
        for (pp, qq, rr), c in col.items():
            if first_pair == "left":
                for s, cs in mul_cols[pp * m + qq].items():
                    for t, ct in mul_cols[s * m + rr].items():
                        out[t] += c * cs * ct
            else:
                for s, cs in mul_cols[qq * m + rr].items():
                    for t, ct in mul_cols[pp * m + s].items():
                        out[t] += c * cs * ct
        return tuple(out)

    def assoc_pairs():
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    col = triple_column(i, j, k)
                    yield (i, j, k), eval_two_steps(col, "left"), eval_two_steps(
                        col, "right"
                    )

    comparison(rep, "associativity", assoc_pairs())

    # unit laws against the unitors
    l_mat, r_mat, t_l, t_r = unitors(cmod, ctx)
    left_comp = p.mul * kron(p.unit, Matrix.identity(m)) * t_l.inclusion
    rep.add("unit-law-left", left_comp == l_mat,
            None if left_comp == l_mat else Witness((), tuple(left_comp.data[0]),
                                                    tuple(l_mat.data[0]), "first rows"))
    right_comp = p.mul * kron(Matrix.identity(m), p.unit) * t_r.inclusion
    rep.add("unit-law-right", right_comp == r_mat,
            None if right_comp == r_mat else Witness((), tuple(right_comp.data[0]),
                                                     tuple(r_mat.data[0]), "first rows"))

    # (c) coassociativity and counit laws
    lhs = kron(p.comul, Matrix.identity(m)) * p.comul
    rhs = kron(Matrix.identity(m), p.comul) * p.comul
    comparison(
        rep,
        "coassociativity",
        (((k,), lhs.column(k), rhs.column(k)) for k in range(m)),
    )

    ht_emb = p.ht.embedding()
    eps_emb = ht_emb * p.counit  # carrier -> acting algebra coordinates
    comul_cols = [sparse_of_dense(p.comul.column(k), m, 2) for k in range(m)]

    def counit_law_pairs(leg, acting):
        # eps acts from the given leg of Delta(k) on the other leg
        for k in range(m):
            out = lincomb(
                ((c, cmod.act_element(acting(eps_emb.column(pair[leg])))
                  .column(pair[1 - leg]))
                 for pair, c in comul_cols[k].items()),
                m,
            )
            yield (k,), out, tuple(Q1 if r == k else Q0 for r in range(m))

    comparison(rep, "counit-law-left", counit_law_pairs(0, lambda z: z))
    comparison(rep, "counit-law-right", counit_law_pairs(1, H.s_inv_of))

    # (d) braided bialgebra compatibility on the truncated tensor square
    braid_plain = ctx.braiding_plain(cmod, cmod)
    braid_cols = braid_plain.transpose().sparse_rows

    def compat_pairs():
        for bidx in range(t2.dim):
            w = t2.inclusion.column(bidx)
            mw = p.mul.apply(w)
            lhs = p.comul.apply(mw)
            x3 = sparse_coproduct_leg(sparse_of_dense(w, m, 2), 1, comul_cols)
            x4 = sparse_coproduct_leg(x3, 0, comul_cols)
            rhs = [Q0] * (m * m)
            for (pp, qq, rr, ss), c in x4.items():
                for fb, cb in braid_cols[qq * m + rr].items():
                    q2, r2 = divmod(fb, m)
                    cc = c * cb
                    for a, ca in mul_cols[pp * m + q2].items():
                        for b, cb2 in mul_cols[r2 * m + ss].items():
                            rhs[a * m + b] += cc * ca * cb2
            yield (bidx,), lhs, tuple(rhs)

    comparison(rep, "bialgebra-compatibility", compat_pairs())

    # (e) counit is multiplicative through H_t
    def counit_mult_pairs():
        for bidx in range(t2.dim):
            w = t2.inclusion.column(bidx)
            lhs = ht_emb.apply(p.counit.apply(p.mul.apply(w)))
            rhs = lincomb(
                ((c, H.mul_elem(eps_emb.column(i), eps_emb.column(j)))
                 for (i, j), c in sparse_of_dense(w, m, 2).items()),
                H.dim,
            )
            yield (bidx,), lhs, rhs

    comparison(rep, "counit-multiplicative", counit_mult_pairs())

    # (f) the unit is grouplike (up to truncation)
    onec = p.unit_element_coords()
    lhs = p.comul.apply(onec)
    rhs = t2.projector.apply(outer(onec, onec))
    comparison(rep, "unit-grouplike", [((), lhs, rhs)])

    # (g) both antipode axioms
    eta_eps = p.unit * p.counit
    lhs = p.mul * kron(p.antipode, Matrix.identity(m)) * p.comul
    comparison(
        rep,
        "antipode-left",
        (((k,), lhs.column(k), eta_eps.column(k)) for k in range(m)),
    )
    lhs = p.mul * kron(Matrix.identity(m), p.antipode) * p.comul
    comparison(
        rep,
        "antipode-right",
        (((k,), lhs.column(k), eta_eps.column(k)) for k in range(m)),
    )
    return rep


def _columns_pair(a: Matrix, b: Matrix):
    for j in range(a.cols):
        yield a.column(j), b.column(j)
