"""Finite partial dynamical systems and their matrix representation theory.

The package builds finite partial group actions, turns them into covariant
matrix representations, assembles partial crossed-product models over finite
groups, measures how far approximate representations are from exact ones, and
certifies residual finiteness of truncated Bernoulli systems.
"""

from __future__ import annotations

from .groups import (
    FiniteGroup,
    FreeGroup,
    GroupHom,
    GroupSpec,
    MalformedDataError,
    UndeclaredElementError,
    cyclic_group,
    direct_product,
    group_from_json,
    group_to_json,
    hom_from_json,
    hom_to_json,
    scan_elements,
    symmetric_group,
    trivial_group,
    word_from_str,
    word_to_str,
)
from .actions import (
    DualSystem,
    EquivarianceReport,
    EquivariantMap,
    FinitePartialAction,
    PartialMap,
    ValidationReport,
    action_from_json,
    action_to_json,
    check_equivariance,
    restriction_action,
    validate,
)
from .matrices import (
    PreconditionError,
    SpectralGapError,
    corner_inv_sqrt,
    herm_eig,
    is_partial_isometry,
    nearest_projection,
    norm_bounds,
    op_norm,
    op_norms,
)
from .reps import (
    CovariantRep,
    DefectReport,
    ExtractedSystem,
    PartialRepFamily,
    PerturbationCertificate,
    bundle_rep_to_covariant,
    covariance_defects,
    exact_bundle_family,
    extract_finite_system,
    partial_rep_defects,
    perturb_to_partial_isometries,
    positivity_flag,
    std_covariant_rep,
    symmetrize,
)
from .crossed import (
    BundleAxiomReport,
    CrossedProductModel,
    Section,
    build_model,
    bundle_axiom_report,
    delta_section,
    expectation,
    mf_defect_report,
    reduced_norm,
    section_from_json,
    section_mul,
    section_star,
    section_to_json,
)
from .bernoulli import (
    BernoulliWindow,
    CertificationError,
    CylinderFunction,
    MeasureApprox,
    QuotientApprox,
    RfdCertificate,
    TruncatedBernoulli,
    build_truncated_bernoulli,
    certify_rfd,
    invariant_measure_approx,
    metric,
    quotient_approximation,
    strict_equivariance_report,
    verify_certificate,
)

__version__ = "0.1.0"
