"""Exact-arithmetic workbench for finite-dimensional quantum groupoids.

Represents weak Hopf algebras by rational structure constants, builds the
derived braided Hopf algebras on centralizer carriers (transmutation,
cocycle quantization, twisting), and machine-verifies every axiom on
concrete instances.
"""

from .algebra import (
    QuantumGroupoid,
    WeakBialgebra,
    check_quantum_groupoid,
    check_weak_bialgebra,
    convolve,
    solve_antipode,
    source_subalgebra,
    target_subalgebra,
)
from .linalg import Matrix, SubspaceBasis, kron
from .modules import (
    BraidContext,
    HModule,
    check_module,
    coherence_report,
    ht_module,
    regular_module,
    truncated_tensor,
    unitors,
)
from .quantize import quantize, verify_quantization
from .report import VerificationReport
from .structures import (
    DrinfeldElement,
    QTStructure,
    TwistElements,
    WeakCocycle,
    canonical_r,
    check_quasitriangular,
    check_weak_cocycle,
    derived_r_identities,
    drinfeld_element,
    drinfeld_identities,
    solve_cocycle_inverse,
    solve_qt_inverse,
    twist_elements,
)
from .transmute import (
    BraidedHopfPresentation,
    QGMorphism,
    centralizer,
    check_morphism,
    identity_morphism,
    transmute,
    verify_braided_hopf,
)
from .twisting import (
    IsomorphismResult,
    TwistedPair,
    alpha_map,
    check_conjugator_coproduct,
    tensor_action_identification,
    twist,
    verify_isomorphism,
)
from . import serialization, zoo

__all__ = [
    "BraidContext",
    "BraidedHopfPresentation",
    "DrinfeldElement",
    "HModule",
    "IsomorphismResult",
    "Matrix",
    "QGMorphism",
    "QTStructure",
    "QuantumGroupoid",
    "SubspaceBasis",
    "TwistElements",
    "TwistedPair",
    "VerificationReport",
    "WeakBialgebra",
    "WeakCocycle",
    "alpha_map",
    "canonical_r",
    "centralizer",
    "check_conjugator_coproduct",
    "check_module",
    "check_morphism",
    "check_quantum_groupoid",
    "check_quasitriangular",
    "check_weak_bialgebra",
    "check_weak_cocycle",
    "coherence_report",
    "convolve",
    "derived_r_identities",
    "drinfeld_element",
    "drinfeld_identities",
    "ht_module",
    "identity_morphism",
    "kron",
    "quantize",
    "regular_module",
    "serialization",
    "solve_antipode",
    "solve_cocycle_inverse",
    "solve_qt_inverse",
    "source_subalgebra",
    "target_subalgebra",
    "tensor_action_identification",
    "transmute",
    "truncated_tensor",
    "twist",
    "twist_elements",
    "unitors",
    "verify_braided_hopf",
    "verify_isomorphism",
    "verify_quantization",
    "zoo",
]
