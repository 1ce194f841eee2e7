"""Cocycle twisting of a quasitriangular quantum groupoid.

The twist keeps multiplication, unit and counit, conjugates the coproduct
by the cocycle, conjugates the antipode by the element v built from the
cocycle, and transports the quasitriangular structure.  The carrier
comparison map between the quantized presentation and the transmutation of
the twisted algebra is computed exactly and verified map by map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .algebra import (
    QuantumGroupoid,
    check_quantum_groupoid,
    check_weak_bialgebra,
)
from .errors import (
    AntipodeNotInvertible,
    CarrierMismatch,
    InconsistentStructure,
    NotCocommutative,
    PreconditionUnmet,
    TwistAxiomFailure,
)
from .linalg import Matrix, _product_sum, _restrict, _squared
from .modules import BraidContext, HModule, _module_map_identities, truncated_tensor
from .quantize import quantize
from .report import VerificationReport, Witness, comparison, decide, require
from .structures import (
    QTStructure,
    TwistElements,
    WeakCocycle,
    canonical_r,
    _mul2,
    check_quasitriangular,
    conjugator_coproduct_sides,
    swap2,
    twist_elements,
)
from .transmute import (
    BraidedHopfPresentation,
    ambient_action,
    centralizer,
    identity_morphism,
    transmute,
)


@dataclass(frozen=True)
class TwistedPair:
    original: Tuple  # (H, qt, wc)
    twisted: Tuple   # (H_twisted, qt_twisted)
    v: TwistElements
    # the F-twisted module category of H, with its coproduct columns built
    context: BraidContext = field(compare=False, repr=False)
    # the passing weak-bialgebra, quantum-groupoid and quasitriangular reports
    reports: Tuple = field(compare=False, repr=False)

    @property
    def algebra(self) -> QuantumGroupoid:
        return self.twisted[0]

    @property
    def qt(self) -> QTStructure:
        return self.twisted[1]


def twist(H: QuantumGroupoid, qt: QTStructure, wc: WeakCocycle) -> TwistedPair:
    """Build the twisted quantum groupoid and its quasitriangular structure.

    All axioms of the result are asserted by the checkers, not assumed;
    comultiplicativity is read from the context's verdict when that holds
    (`BraidContext.comultiplicative`).  A failure raises TwistAxiomFailure
    naming the violated check and carrying its witness.
    """
    tw = twist_elements(H, wc)

    ctx = BraidContext(H, wc=wc)
    lv = H.left_mult(tw.v)
    rvinv = H.right_mult(tw.v_inv)
    antipode = lv * rvinv * H.antipode

    base = H.with_coproduct(dict(enumerate(ctx.coproduct[0])))
    if ctx.comultiplicative:
        # the twisted columns are the context's coproduct, which is
        # multiplicative: c(e_i e_j) = c_i c_j holds with no scan
        base.comultiplicativity = decide("comultiplicativity", ())
    reports = [require(check_weak_bialgebra(base), _twist_failure)]
    try:
        twisted = QuantumGroupoid(base, antipode)
    except AntipodeNotInvertible as exc:
        raise TwistAxiomFailure("antipode-invertible", str(exc)) from exc
    reports.append(require(check_quantum_groupoid(twisted), _twist_failure))

    f, finv = wc.f, wc.finv
    r_t = _mul2(H, swap2(finv), qt.r, f)
    # the computed inverse, projected onto its sandwich subspace
    d1 = twisted.delta_one
    rinv_t = _mul2(twisted, d1, _mul2(H, finv, qt.rinv, swap2(f)), swap2(d1))
    qt_t = QTStructure(r_t, rinv_t)
    reports.append(require(check_quasitriangular(twisted, qt_t), _twist_failure))

    return TwistedPair(original=(H, qt, wc), twisted=(twisted, qt_t), v=tw, context=ctx,
                       reports=tuple(reports))


def _twist_failure(check):
    return TwistAxiomFailure(check.name, witness=check.witness)


def check_conjugator_coproduct(H: QuantumGroupoid, wc: WeakCocycle,
                               sides=None) -> VerificationReport:
    """Coproduct law of the twisted-antipode conjugator inverse; sides are
    its two sides when they are already computed (`TwistElements`)."""
    rep = VerificationReport("twist-elements")
    lhs, rhs = sides or conjugator_coproduct_sides(H, wc)
    comparison(rep, "conjugator-coproduct", [((), lhs, rhs)],
               "Delta(v^-1) vs ((S (x) S)(F21^-1))(v^-1 (x) v^-1)F^-1", (H.dim, 2))
    return rep


def _require_canonical(H: QuantumGroupoid, qt: QTStructure):
    if not H.is_cocommutative:
        raise NotCocommutative("the comparison map requires cocommutativity")
    if qt != canonical_r(H):
        raise PreconditionUnmet(
            "the comparison map requires the canonical quasitriangular "
            "structure Delta_cop(1) Delta(1)"
        )


def alpha_map(H: QuantumGroupoid, qt: QTStructure, wc: WeakCocycle):
    """The carrier comparison map a -> Ad_{F^(1)}(a) F^(2) and its inverse.

    Returns (alpha, alpha_inv) relative to the canonical carrier bases of
    the quantized and the twisted-transmuted presentations.  The equivalent
    form F^-(1) a S(F^-(2)) v^-1 is recomputed independently and compared.
    """
    _require_canonical(H, qt)
    tw = twist(H, qt, wc)
    ad = ambient_action(identity_morphism(H))
    return _alpha_between(H, wc, tw, ad, centralizer(H), centralizer(tw.algebra))


def _alpha_between(H, wc, tw: TwistedPair, ad, c_src, c_dst):
    """alpha and alpha^-1 between the carriers c_src of H and c_dst of the
    twisted algebra; ad is the adjoint action of H."""
    n = H.dim
    left, right = H.left_mult_mats, H.right_mult_mats
    right_s = identity_morphism(H).multipliers[1]  # R_S(e_b)

    def carrier_map(rule, src, dst, what):
        """rule (a matrix on H) from the carrier src to dst coordinates."""
        return _restrict(rule * src.embedding(), dst, lambda j, v: CarrierMismatch(what))

    # a -> Ad_{F^(1)}(a) F^(2)
    alpha = carrier_map(_product_sum(swap2(wc.f), right, ad, n), c_src, c_dst,
                        "comparison map leaves the twisted carrier")
    # independent equivalent form: F^-(1) a S(F^-(2)) v^-1
    alt = carrier_map(H.right_mult(tw.v.v_inv) * _product_sum(swap2(wc.finv), right_s, left, n),
                      c_src, c_dst, "equivalent form leaves the twisted carrier")
    if alpha != alt:
        raise InconsistentStructure(
            "the two expressions for the comparison map disagree"
        )
    # the inverse a -> F^(1) (a v) S(F^(2))
    alpha_inv = carrier_map(_product_sum(wc.f, left, right_s, n) * H.right_mult(tw.v.v),
                            c_dst, c_src, "inverse comparison map leaves the carrier")

    if not (alpha * alpha_inv).is_identity() or not (alpha_inv * alpha).is_identity():
        raise InconsistentStructure("comparison map is not a two-sided bijection")
    return alpha, alpha_inv


@dataclass
class IsomorphismResult:
    report: VerificationReport
    quantized: BraidedHopfPresentation
    twisted_transmuted: BraidedHopfPresentation
    pair: TwistedPair
    alpha: Matrix
    alpha_inv: Matrix


def verify_isomorphism(H: QuantumGroupoid, qt: QTStructure, wc: WeakCocycle) -> IsomorphismResult:
    """Compare the quantized presentation with the twisted transmutation.

    Runs the seven comparison checks (module map, algebra map, unit,
    coalgebra map, counit, antipode, bijectivity) plus the independent
    identities used along the way.  Everything is recomputed from (H, F).
    """
    _require_canonical(H, qt)
    tw = twist(H, qt, wc)
    twisted = tw.algebra
    p_f = quantize(H, wc)
    p_t = transmute(twisted, tw.qt)
    alpha, alpha_inv = _alpha_between(H, wc, tw, p_f.ad, p_f.carrier, p_t.carrier)

    rep = VerificationReport("isomorphism")

    # (1) module map.  Under the identification of the twisted module
    # category with the modules of the twisted algebra (the identity on
    # underlying actions), the quantized carrier keeps the original adjoint
    # action; alpha must intertwine it with the twisted adjoint action on
    # the target carrier.
    comparison(rep, "module-map", _module_map_identities(alpha, p_f.action, p_t.action),
               "alpha intertwines the module actions")

    # (2) algebra map on the twisted tensor square
    cmod = p_f.action
    t2 = truncated_tensor(cmod, cmod, tw.context)
    comparison(rep, "algebra-map", [((), alpha * p_f.mul * t2.inclusion,
                                     p_t.mul * _squared(alpha, t2.inclusion))])

    # (3) unit and (5) counit, in coordinates of the one H_t
    same_ht = p_f.ht == p_t.ht
    if same_ht:
        comparison(rep, "unit-map", [((), alpha * p_f.unit, p_t.unit)],
                   "alpha o eta_F vs eta of the twisted transmutation")
    else:
        rep.add("unit-map", False,
                Witness((), (), (), "target subalgebras of H and the twist differ"))

    # (4) coalgebra map
    comparison(rep, "coalgebra-map", [((), _squared(alpha, p_f.comul), p_t.comul * alpha)])

    if same_ht:
        comparison(rep, "counit-map", [((), p_t.counit * alpha, p_f.counit)])
    else:
        rep.add("counit-map", False,
                Witness((), (), (), "target subalgebras of H and the twist differ"))

    # (6) antipode
    comparison(rep, "antipode-map", [((), p_t.antipode * alpha, alpha * p_f.antipode)])

    # (7) bijectivity
    comparison(rep, "bijectivity", [((), alpha * alpha_inv, Matrix.identity(alpha.rows)),
                                    ((), alpha_inv * alpha, Matrix.identity(alpha.cols))])

    rep.extend(check_conjugator_coproduct(H, wc, tw.v.coproduct_sides))
    return IsomorphismResult(rep, p_f, p_t, tw, alpha, alpha_inv)


def tensor_action_identification(H, wc, M: HModule, N: HModule) -> VerificationReport:
    """The twisted tensor action equals the plain tensor action over the
    twisted algebra, module for module (two independent code paths)."""
    rep = VerificationReport("category-identification")
    qt = canonical_r(H)
    tw = twist(H, qt, wc)
    twisted = tw.algebra
    t_f = truncated_tensor(M, N, tw.context)
    m_t = HModule(twisted, M.mats, name=M.name)
    n_t = HModule(twisted, N.mats, name=N.name)
    t_p = truncated_tensor(m_t, n_t, BraidContext.psi(twisted, tw.qt))
    comparison(rep, "projector-equal", [((), t_f.projector, t_p.projector)])
    comparison(rep, "action-equal",
               (((i,), t_f.module.mats[i], t_p.module.mats[i]) for i in range(H.dim)))
    return rep
