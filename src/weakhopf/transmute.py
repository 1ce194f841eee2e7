"""Centralizer carriers and braided Hopf algebra presentations.

Given a quasitriangular quantum groupoid acting through a morphism f on a
quantum groupoid L, the centralizer of the source subalgebra of L carries
five structure maps making it a Hopf algebra in the module category.  This
module computes those maps in canonical carrier coordinates and verifies
every axiom of a Hopf algebra internal to a braided category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebra import QuantumGroupoid, _on_generators, source_subalgebra, target_subalgebra
from .errors import ClosureViolation, MismatchedAlgebra
from .linalg import (Matrix, SubspaceBasis, _kron_sum, _product_sum, _restrict, _squared,
                     _whiskered)
from .modules import (
    BraidContext,
    HModule,
    _Actions,
    _kept,
    _module_map_identities,
    _unitor_plain,
    ht_module,
    truncated_tensor,
    unitors,
)
from .report import VerificationReport, Witness, comparison
from .structures import QTStructure, swap2


def centralizer(L: QuantumGroupoid) -> SubspaceBasis:
    """Canonical basis of {l in L : l x = x l for all x in the source part}."""
    emb = source_subalgebra(L).embedding()
    commutators = [L.left_mult(emb.column(j)) - L.right_mult(emb.column(j))
                   for j in range(emb.cols)]
    return Matrix.vstack(commutators, L.dim).kernel_basis()


@dataclass(frozen=True)
class QGMorphism:
    source: QuantumGroupoid
    target: QuantumGroupoid
    matrix: Matrix  # column i = image of source basis i in target coordinates

    def apply(self, x):
        return self.matrix.apply(x)

    @cached_property
    def multipliers(self):
        """L_f(e_a) and R_fS(e_b) on the target, for each basis element of
        the source."""
        H, L = self.source, self.target
        fs = self.matrix * H.antipode
        return ([L.left_mult(self.matrix.column(a)) for a in range(H.dim)],
                [L.right_mult(fs.column(b)) for b in range(H.dim)])


@_kept
def identity_morphism(H: QuantumGroupoid) -> QGMorphism:
    """The identity of H, built once per algebra with its multipliers."""
    return QGMorphism(H, H, Matrix.identity(H.dim))


def check_morphism(f: QGMorphism) -> VerificationReport:
    """Multiplication, unit, comultiplication, counit preservation (and,
    derived from those, compatibility with the antipodes)."""
    rep = VerificationReport("morphism")
    H, L, m = f.source, f.target, f.matrix

    # column j of f L_i is f(e_i e_j), of L_{f(e_i)} f it is f(e_i) f(e_j);
    # with both algebras associative the generators and f(1) f(e_j) = f(e_j)
    # decide the law
    def multiplicative(i):
        yield (i,), m * H.left_mult_mats[i], L.left_mult(m.column(i)) * m

    at_one = [((), L.left_mult(f.apply(H.unit)) * m, m)]
    comparison(rep, "multiplicative", _on_generators(
        H, multiplicative, H.unital_associative and L.associativity.passed, at_one))
    comparison(rep, "unit-preserving", [((), f.apply(H.unit), L.unit)])
    comparison(rep, "comultiplicative", [((), L.comul_map * m, _squared(m, H.comul_map))])
    comparison(rep, "counit-preserving", [((), L.counit_map * m, H.counit_map)])
    comparison(rep, "antipode-compatible", [((), m * H.antipode, L.antipode * m)])
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


def ambient_action(f: QGMorphism):
    """Matrices of h . l = f(h_1) l f(S(h_2)) on the target of f, one per
    basis element h of the source (the adjoint action when f = id)."""
    H = f.source
    lefts, rights = f.multipliers
    return [_product_sum(H.comul_cols[i], lefts, rights, f.target.dim) for i in range(H.dim)]


def _present(f: QGMorphism, ad, product, coproduct, antipode):
    """The presentation on the centralizer carrier of f.target.

    Every construction shares the carrier, H_t, the action ad (which is
    ambient_action(f)), the unit z -> f(z) and the counit
    eps(l) = eps_L(f(1_1) l) 1_2.  The three rules give the rest, as
    matrices on the ambient algebra L: product (L (x) L -> L), coproduct
    (L -> L (x) L) and antipode (L -> L).  Each map is its rule times the
    carrier embedding, restricted to the codomain by _restrict; raises
    ClosureViolation at the first column that leaves it.
    """
    H, L = f.source, f.target
    carrier = centralizer(L)
    ht = target_subalgebra(H)
    emb = carrier.embedding()

    def escaped(what, message=None, index=lambda j: (j,)):
        message = message or "%s escaped the carrier" % what
        return lambda j, v: ClosureViolation(message, witness=Witness(index(j), v, (), what))

    action = HModule(H, [
        _restrict(a * emb, carrier, escaped("module action", index=lambda j, i=i: (i, j)))
        for i, a in enumerate(ad)
    ], name="carrier")
    action.validate()
    # product (emb (x) emb), as two whiskers on the transposes
    mul = _restrict(_squared(emb.transpose(), product.transpose()).transpose(), carrier,
                    escaped("product", index=lambda j: divmod(j, carrier.dim)))
    unit = _restrict(f.matrix * ht.embedding(), carrier, escaped("unit image"))
    comul = _restrict(coproduct * emb, carrier.square(),
                      escaped("coproduct", "coproduct escaped the carrier tensor square"))
    # row b of eps is sum c eps_L(f(e_a) -) over the terms e_a (x) e_b of Delta(1)
    lefts = f.multipliers[0]
    eps = Matrix.from_entries(H.dim, L.dim, (
        (b, j, c * x)
        for (a, b), c in H.delta_one.items()
        for j, x in (L.counit_map * lefts[a]).sparse_rows[0].items()
    ))
    counit = _restrict(eps * emb, ht, escaped("counit", "counit escaped the target subalgebra"))
    antipode = _restrict(antipode * emb, carrier, escaped("antipode"))
    return BraidedHopfPresentation(
        acting=H,
        ambient=L,
        carrier=carrier,
        ht=ht,
        action=action,
        mul=mul,
        unit=unit,
        comul=comul,
        counit=counit,
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

    n = L.dim
    ad = ambient_action(f)
    lefts, rights = f.multipliers
    r21 = swap2(qt.r)
    # Delta(l) = l_1 f(S(R^(2))) (x) R^(1) . l_2 over Delta_L(l) and R
    coproduct = _kron_sum(r21, rights, ad, n, n) * L.comul_map
    # S(l) = f(R^(2)) S_L(R^(1) . l)
    antipode = _product_sum(r21, [left * L.antipode for left in lefts], ad, n)
    return _present(f, ad, L.mul_map, coproduct, antipode)


# ---------------------------------------------------------------------------
# the braided Hopf verifier


def verify_braided_hopf(p: BraidedHopfPresentation, ctx: BraidContext) -> VerificationReport:
    """Every axiom of a Hopf algebra internal to the braided category.

    Checks, in order: well-definedness through the truncated tensor,
    module-morphism property of all five maps, (co)associativity, unit and
    counit laws through the unitors, the braided bialgebra compatibility,
    counit multiplicativity, grouplike unit, and both antipode axioms.  Each
    but the grouplike unit is an identity of maps with at most m^3 rows and
    columns, m the carrier dimension.  Every map X (x) id or id (x) X is
    applied to the map on its right as a whiskered product (`_whiskered`).
    """
    rep = VerificationReport("braided-hopf")
    H = ctx.algebra
    m = p.carrier_dim
    cmod = p.action
    t2 = truncated_tensor(cmod, cmod, ctx)
    columns = ctx.coproduct[0]

    # (0) well-definedness: both maps factor through the truncated tensor
    lands = t2.projector * p.comul
    comparison(rep, "product-factors-through-tensor", [((), p.mul * t2.projector, p.mul)])
    comparison(rep, "coproduct-lands-in-tensor", [((), lands, p.comul)])

    # (a) all five maps are module morphisms: x . (h on the source) equals
    # (h on the target) . x for every basis element h, decided on the
    # generators where both actions are modules.  The coproduct's target,
    # the plain action of the coproduct on the tensor square, is not one (1
    # acts as the projector), but it is multiplicative when the context's
    # coproduct is, and coproduct-lands-in-tensor is then its law at 1
    ht, htmod = ht_module(H)
    mul_inc = p.mul * t2.inclusion
    plain = HModule(H, _Actions(H.dim, m * m, lambda h: ctx.action(cmod, cmod, columns[h])),
                    name="plain square")
    for name, x, src, dst, gate, at_one in (
        ("product", mul_inc, t2.module, cmod, True, None),
        ("unit", p.unit, htmod, cmod, True, None),
        ("coproduct", p.comul, cmod, plain, ctx.comultiplicative, [((), lands, p.comul)]),
        ("counit", p.counit, cmod, htmod, True, None),
        ("antipode", p.antipode, cmod, cmod, True, None),
    ):
        comparison(rep, name + "-module-morphism",
                   _module_map_identities(x, src, dst, gate, at_one))

    # (b) associativity on the iterated truncated tensor, the image of the
    # triple projector; a witness is the basis triple of its first column
    p3 = ctx.triple_projector(cmod, cmod, cmod)
    comparison(rep, "associativity",
               [((), p.mul * _whiskered(p.mul, m, p3, first=True),
                 p.mul * _whiskered(p.mul, m, p3, first=False))],
               shape=(m, 3))
    del p3  # m^3 rows, not held while the compatibility maps are built

    # unit laws against the unitors
    l_mat, r_mat, t_l, t_r = unitors(cmod, ctx)
    comparison(rep, "unit-law-left",
               [((), p.mul * _whiskered(p.unit, m, t_l.inclusion, first=True), l_mat)])
    comparison(rep, "unit-law-right",
               [((), p.mul * _whiskered(p.unit, m, t_r.inclusion, first=False), r_mat)])

    # (c) coassociativity, and the counit laws through the plain unitors
    ident = Matrix.identity(m)
    comparison(rep, "coassociativity",
               [((), _whiskered(p.comul, m, p.comul, first=True),
                 _whiskered(p.comul, m, p.comul, first=False))])
    comparison(rep, "counit-law-left",
               [((), _unitor_plain(cmod, ht, True)
                 * _whiskered(p.counit, m, p.comul, first=True), ident)])
    comparison(rep, "counit-law-right",
               [((), _unitor_plain(cmod, ht, False)
                 * _whiskered(p.counit, m, p.comul, first=False), ident)])

    # (d) braided bialgebra compatibility on the truncated tensor square,
    # (mul (x) mul)(id (x) braid (x) id)(Delta (x) Delta) factored through
    # carrier^3 (never carrier^4) with g = (mul (x) id)(id (x) braid)(Delta (x) id),
    # built from I_(m^2); then Delta, g and mul are applied from the right
    braid = ctx.braiding_plain(cmod, cmod)
    g = _whiskered(p.comul, m, Matrix.identity(m * m), first=True)
    g = _whiskered(p.mul, m, _whiskered(braid, m, g, first=False), first=True)
    rhs = _whiskered(p.comul, m, t2.inclusion, first=False)
    rhs = _whiskered(p.mul, m, _whiskered(g, m, rhs, first=True), first=False)
    comparison(rep, "bialgebra-compatibility", [((), p.comul * mul_inc, rhs)])

    # (e) counit is multiplicative through H_t: eps (x) eps is two whiskers
    eps_emb = p.ht.embedding() * p.counit  # carrier -> acting algebra coordinates
    eps2 = _squared(eps_emb, t2.inclusion)
    comparison(rep, "counit-multiplicative", [((), eps_emb * mul_inc, H.mul_map * eps2)])

    # (f) the unit is grouplike (up to truncation)
    u = p.unit_element_coords()
    comparison(rep, "unit-grouplike",
               [((), p.comul.apply(u), t2.projector.apply([a * b for a in u for b in u]))])

    # (g) both antipode axioms
    eta_eps = p.unit * p.counit
    comparison(rep, "antipode-left",
               [((), p.mul * _whiskered(p.antipode, m, p.comul, first=True), eta_eps)])
    comparison(rep, "antipode-right",
               [((), p.mul * _whiskered(p.antipode, m, p.comul, first=False), eta_eps)])
    return rep
