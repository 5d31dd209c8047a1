"""Numerical engine for the canonical Kahler metric of Hartogs domains.

Builds the metric of a bounded pseudoconvex Hartogs domain from its defining
potential, verifies the closed-form curvature identities (determinant, Ricci,
scalar, Einstein / extremal criteria) against finite-difference oracles, and
decides Kahler immersibility into the three complex space forms through
diastasis coefficient matrices.
"""

from .curvature import (
    CurvatureReport,
    CurvatureVerdicts,
    curvature_report,
    extremal_check,
    metric_matrix,
    ricci_numeric,
    tau_exact,
    verdicts,
)
from .domains import (
    BaseDomainSpec,
    DomainKind,
    EvaluationPoint,
    HartogsSpec,
    base_hessian_closed,
    hartogs_potential,
    phi,
    point,
    sample_points,
)
from .hermitian import (
    HermitianMatrix,
    solve_hermitian,
)
from .immersion import (
    Answer,
    BaseImmersionFacts,
    ImmersionTarget,
    ImmersionVerdict,
    catalog_facts,
    cross_check,
    decide,
    table_one,
)
from .series import (
    CoefficientBlock,
    Form,
    ResolvabilityVerdict,
    base_power_coefficients,
    block,
    blocks,
    cross_coefficient_audit,
    diastasis_value,
    enumerate_indices,
    resolvability,
    series_partial_sum,
)
from .wirtinger import wirtinger_gradient, wirtinger_hessian

__all__ = [
    "Answer",
    "BaseDomainSpec",
    "BaseImmersionFacts",
    "CoefficientBlock",
    "CurvatureReport",
    "CurvatureVerdicts",
    "DomainKind",
    "EvaluationPoint",
    "Form",
    "HartogsSpec",
    "HermitianMatrix",
    "ImmersionTarget",
    "ImmersionVerdict",
    "ResolvabilityVerdict",
    "base_hessian_closed",
    "base_power_coefficients",
    "block",
    "blocks",
    "catalog_facts",
    "cross_check",
    "cross_coefficient_audit",
    "curvature_report",
    "decide",
    "diastasis_value",
    "enumerate_indices",
    "extremal_check",
    "hartogs_potential",
    "metric_matrix",
    "phi",
    "point",
    "resolvability",
    "ricci_numeric",
    "sample_points",
    "series_partial_sum",
    "solve_hermitian",
    "table_one",
    "tau_exact",
    "verdicts",
    "wirtinger_gradient",
    "wirtinger_hessian",
]

__version__ = "0.1.0"
