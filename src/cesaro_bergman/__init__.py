"""Cesàro operator on weighted Bergman spaces of the unit disk.

Coefficient-space operator calculus, Bergman norms (closed forms, Parseval
summation, adaptive disk quadrature), closed-form spectral sets for the
Banach / Fréchet-intersection / (LB)-union settings, and truncation-norm
scans that turn membership statements into checkable numerics.
"""

__version__ = "0.1.0"

from .norms import (
    DiskQuadrature,
    InclusionScan,
    NonConvergedQuadrature,
    SpaceKind,
    SpaceSpec,
    inclusion_ratio_scan,
    monomial_norm,
    norm_quadrature,
)
from .scans import (
    CounterexampleReport,
    GrowthClass,
    GrowthKind,
    InvalidEpsilon,
    NormScan,
    SchauderReport,
    SeminormEntry,
    classify_growth,
    counterexample_blowup,
    eigen_membership_scan,
    expected_eigen_membership,
    gp_nuclearity_sum,
    schauder_partial_sum_check,
    seminorm_family,
    truncation_norms,
)
from .series import (
    TaylorTruncation,
    binomial_series_coeffs,
    cesaro_apply,
    cesaro_inverse_apply,
    eigenfunction_truncation,
    recover_from_cesaro,
)
from .spectra import (
    CrosscheckReport,
    DiskBoundary,
    Membership,
    SpectralDescription,
    spectrum,
    step_union_crosscheck,
    waelbroeck,
)

__all__ = [name for name in dir() if not name.startswith("_")]
