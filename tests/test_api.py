import inspect

import braidplumb

# The public surface of the package.  A name added here is new API; a name
# that comes back after removal is an alias the package dropped on purpose.
PUBLIC = [
    "BraidPlumbError",
    "BraidRelation",
    "BraidWord",
    "Carry",
    "CertificateRejected",
    "ChainCertificate",
    "CyclicConjugate",
    "Destabilize",
    "DisconnectedWord",
    "DisjointnessFailure",
    "DomainError",
    "EmptyCurve",
    "FatGraphSurface",
    "HironakaSolution",
    "IllegalMove",
    "InternalConsistencyError",
    "InvalidGenerator",
    "InvalidParameter",
    "LaurentPolynomial",
    "NonEmbeddedCore",
    "NormalCurve",
    "NotAKnot",
    "NotAPath",
    "NotCoprime",
    "NotDivisible",
    "RectangleCurve",
    "SearchBudgetExceeded",
    "TorusSummandReport",
    "TrefoilDecomposition",
    "TrefoilStep",
    "TrivialKnot",
    "TrivialLink",
    "TwistFactor",
    "ZeroPolynomial",
    "alexander_from_monodromy",
    "apply_monodromy",
    "braid_invariants",
    "build_surface",
    "burau_alexander",
    "charpoly",
    "curve_from_rectangle",
    "dehn_twist",
    "detect_chain",
    "divide_exact",
    "geometric_intersection",
    "hironaka_max_n",
    "hironaka_solve",
    "homological_monodromy",
    "intersection_form",
    "parse_braid",
    "self_intersection",
    "signed_intersection",
    "square_normalization",
    "torus_alexander",
    "torus_braid",
    "torus_summand_report",
    "trefoil_decompose",
    "trefoil_step",
    "validate_chain_certificate",
    "validate_trefoil_decomposition",
]


def test_public_names_are_pinned():
    # Submodules appear as package attributes once anything imports them,
    # so they are left out.
    names = sorted(
        name
        for name, value in vars(braidplumb).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC
