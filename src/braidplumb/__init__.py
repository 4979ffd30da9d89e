"""Exact combinatorics of positive braid fibre surfaces.

Builds the fatgraph spine of the fibre surface of a positive braid,
computes its monodromy as an ordered product of right-handed Dehn twists,
certifies iterated-plumbing chains and trefoil decompositions, and bounds
plumbing depth through the Alexander polynomial.  All arithmetic is exact.
"""

from .alexpoly import (
    HironakaSolution,
    LaurentPolynomial,
    burau_alexander,
    divide_exact,
    hironaka_max_n,
    hironaka_solve,
    torus_alexander,
)
from .braidwords import (
    BraidRelation,
    BraidWord,
    Carry,
    CyclicConjugate,
    Destabilize,
    braid_invariants,
    parse_braid,
    square_normalization,
)
from .curves import (
    NormalCurve,
    TwistFactor,
    apply_monodromy,
    curve_from_rectangle,
    dehn_twist,
    geometric_intersection,
    self_intersection,
    signed_intersection,
)
from .errors import (
    BraidPlumbError,
    CertificateRejected,
    DisconnectedWord,
    DisjointnessFailure,
    DomainError,
    EmptyCurve,
    IllegalMove,
    InternalConsistencyError,
    InvalidGenerator,
    InvalidParameter,
    NonEmbeddedCore,
    NotAKnot,
    NotAPath,
    NotCoprime,
    NotDivisible,
    SearchBudgetExceeded,
    TrivialKnot,
    TrivialLink,
    ZeroPolynomial,
)
from .fatgraph import FatGraphSurface, RectangleCurve, build_surface
from .monodromy import (
    alexander_from_monodromy,
    charpoly,
    homological_monodromy,
    intersection_form,
)
from .plumbing import (
    ChainCertificate,
    TorusSummandReport,
    TrefoilDecomposition,
    TrefoilStep,
    detect_chain,
    torus_braid,
    torus_summand_report,
    trefoil_decompose,
    trefoil_step,
    validate_chain_certificate,
    validate_trefoil_decomposition,
)

__version__ = "0.1.0"
