"""Finite partial dynamical systems and their matrix representation theory.

The package builds finite partial group actions, turns them into covariant
matrix representations, assembles partial crossed-product models over finite
groups, measures how far approximate representations are from exact ones, and
certifies residual finiteness of truncated Bernoulli systems.
"""

from __future__ import annotations

from .groups import (
    MAX_SCAN_PAIRS,
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
    product_table,
    scan_elements,
    trivial_group,
    word_from_str,
    word_to_str,
)
from .actions import (
    EquivarianceReport,
    EquivariantMap,
    FinitePartialAction,
    PartialMap,
    ValidationReport,
    action_from_json,
    action_to_json,
    check_equivariance,
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
    covariance_defects,
    exact_bundle_family,
    extract_finite_system,
    partial_rep_defects,
    perturb_to_partial_isometries,
    std_covariant_rep,
)
from .crossed import (
    BundleAxiomReport,
    CrossedProductModel,
    Section,
    build_model,
    bundle_axiom_report,
    expectation,
    mf_defect_report,
    reduced_norm,
    section_mul,
    section_star,
)
from .bernoulli import (
    BernoulliWindow,
    CertificationError,
    CylinderFunction,
    MeasureApprox,
    QuotientApprox,
    RfdCertificate,
    certify_rfd,
    invariant_measure_approx,
    metric,
    strict_equivariance_report,
    verify_certificate,
)

__version__ = "0.1.0"
