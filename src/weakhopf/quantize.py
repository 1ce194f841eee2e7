"""Cocycle quantization of a cocommutative quantum groupoid.

The centralizer of the source subalgebra, carrying the adjoint action
Ad_h(g) = h_1 g S(h_2), is given the cocycle-deformed product
a ._F b = Ad_{F^(1)}(a) Ad_{F^(2)}(b), the deformed coproduct
Delta_F(a) = Ad_{F^-(1)}(a_1) (x) Ad_{F^-(2)}(a_2), the counit eps_t and
the undeformed antipode, as an object of the twisted module category.
"""

from __future__ import annotations

from .algebra import QuantumGroupoid, sparse_coproduct_leg, sparse_embed, sparse_mul
from .errors import InconsistentStructure, NotCocommutative
from .linalg import _kron_sum
from .modules import BraidContext
from .report import VerificationReport, comparison
from .structures import WeakCocycle, swap2
from .transmute import (
    BraidedHopfPresentation,
    _present,
    ambient_action,
    identity_morphism,
    verify_braided_hopf,
)


def quantize(H: QuantumGroupoid, wc: WeakCocycle) -> BraidedHopfPresentation:
    """Build the cocycle-deformed braided Hopf structure on the centralizer."""
    if not H.is_cocommutative:
        raise NotCocommutative("quantization requires a cocommutative coproduct")
    if sparse_mul(H, wc.f, wc.finv, 2) != H.delta_one:
        raise InconsistentStructure("F F^-1 != Delta(1); not a valid cocycle")

    n = H.dim
    f = identity_morphism(H)
    ad = ambient_action(f)
    # a ._F b = Ad_{F^(1)}(a) Ad_{F^(2)}(b)
    product = H.mul_map * _kron_sum(wc.f, ad, ad, n, n)
    # Delta_F(a) = Ad_{F^-(1)}(a_1) (x) Ad_{F^-(2)}(a_2)
    coproduct = _kron_sum(wc.finv, ad, ad, n, n) * H.comul_map
    return _present(f, ad, product, coproduct, H.antipode)


def product_exchange_law(H: QuantumGroupoid, wc: WeakCocycle):
    """Both sides of the four-factor F / F^-1 exchange identity in H^(x)4.

    LHS: ((Delta (x) Delta)(F^-1)) . sigma_23((Delta (x) Delta)(F)).
    RHS: F12 F34 F^-1_23 (F21)_23 F^-1_13 F^-1_24 over independent copies.
    """
    cols = H.comul_cols
    f, finv = wc.f, wc.finv

    def delta_delta(x2):
        return sparse_coproduct_leg(sparse_coproduct_leg(x2, 1, cols), 0, cols)

    def swap23(sp):
        return {(a, c, b, d): v for (a, b, c, d), v in sp.items()}

    lhs = sparse_mul(H, delta_delta(finv), swap23(delta_delta(f)), 4)
    rhs = sparse_embed(f, 4, (0, 1), H.unit_sparse)
    for x, slots in ((f, (2, 3)), (finv, (1, 2)), (swap2(f), (1, 2)), (finv, (0, 2)),
                     (finv, (1, 3))):
        rhs = sparse_mul(H, rhs, x, 4, slots)
    return lhs, rhs


def verify_quantization(p: BraidedHopfPresentation, wc: WeakCocycle) -> VerificationReport:
    """Full braided-Hopf suite in the twisted category, plus the named
    identities from the deformed-coproduct compatibility argument."""
    H = p.acting
    ctx = BraidContext.phi(H, wc)
    rep = verify_braided_hopf(p, ctx)
    rep.suite = "quantization"

    lhs, rhs = product_exchange_law(H, wc)
    comparison(rep, "product-exchange-law", [((), lhs, rhs)],
               "four-factor F/F^-1 exchange", (H.dim, 4))

    # deformed coproduct is an algebra map (the compatibility check again,
    # surfaced under its own name) and preserves the unit
    compat = rep["bialgebra-compatibility"]
    rep.add("coproduct-algebra-map", compat.passed, compat.witness)
    grouplike = rep["unit-grouplike"]
    rep.add("coproduct-unit", grouplike.passed, grouplike.witness)
    return rep
