"""Curvature of the canonical Hartogs metric and its closed-form identities.

All formulas here are stated for the unscaled potential -log(phi - ||z0||^2)
(metric scale h = 1; scaling is a diastasis-side concern). With n = d + d0,
margin F = phi - ||z0||^2 and per-factor Einstein constants c_i:

* metric block formula:
      g = F^-2 * [[ F I + z0bar z0^T,            -z0bar (dphi)bar^T ],
                  [ -dphi z0^T,  dphi (dphi)bar^T - F ddbar(phi) ]]
* determinant:  det g = F^-(n+1) * prod_i phi_i^(d+1+c_i) * const_i
* Ricci:        Ric  = blockdiag(0, lambda_i g^(D_i)) - (n+1) g,
                lambda_i = d + 1 + c_i
* scalar:       s = tau (F / phi) - n (n+1),  tau = d(d+1) + sum c_i d_i

The numeric Ricci (mixed Hessian of log det g by finite differences) and the
extremal-condition residual act as independent oracles for the closed forms.
Every entry takes an (N, n) stack of points, fiber coordinates first, and
gives one value, or one n x n matrix, per row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .domains import (
    BaseDomainSpec,
    HartogsSpec,
    coordinate_stack,
    factor_determinant_constants,
    phi_derivatives_stack,
    phi_stack,
    require_interior,
    row_power,
    squared_norms,
)
from .errors import BoundaryViolationError, HartogsError
from .hermitian import eigenvalues, hermitian_part, solve_hermitian
from .wirtinger import conjugate_jacobian, wirtinger_hessian

#: Smallest interior margin accepted by the nested finite-difference oracles.
MIN_FD_MARGIN = 0.01

#: Extremal stencil step: Richardson steps 1e-3 / 2 and 1e-3, below
#: margin / 8 at every point that keeps MIN_FD_MARGIN.
_EXTREMAL_STEP = 1e-3

#: Most stencil rows the extremal oracle evaluates as one stack. A sample is
#: split into consecutive groups of points (8n rows each) that stay under
#: it, so peak memory does not grow with the sample size.
EXTREMAL_STACK_ROWS = 256

#: Default residual tolerance for the Einstein / extremal / scalar verdicts.
VERDICT_TOLERANCE = 1e-6


def tau_exact(base: BaseDomainSpec) -> Fraction | None:
    """tau = d(d+1) + sum c_i d_i in exact rational arithmetic, if available."""
    d = base.dim
    total = Fraction(d * (d + 1))
    for c, di in zip(base.einstein_constants_exact, base.dims):
        if c is None:
            return None
        total += c * di
    return total


def tau_value(base: BaseDomainSpec) -> float:
    d = base.dim
    return d * (d + 1) + sum(
        c * di for c, di in zip(base.einstein_constants, base.dims)
    )


def _tau_is_zero(base: BaseDomainSpec) -> bool:
    exact = tau_exact(base)
    if exact is not None:
        return exact == 0
    warnings.warn(
        "irrational exponent: deciding tau = 0 by |tau| <= 1e-12", stacklevel=3
    )
    return abs(tau_value(base)) <= 1e-12


def _metric_parts(spec: HartogsSpec, coords: np.ndarray):
    """Block-formula metrics of an (N, n) coordinate stack, not yet
    symmetrised, with what they were built from: the margins, the per-factor
    (phi_i, ddbar u_i), the fiber rows, phi and its gradient."""
    d0 = spec.fiber_dim
    z0 = np.ascontiguousarray(coords[:, :d0])
    phi_val, phi_grad, phi_hess, factors = phi_derivatives_stack(spec.base, coords[:, d0:])
    margin = require_interior(phi_val - squared_norms(z0))
    f = margin[:, None, None]
    g = np.empty((len(coords), spec.total_dim, spec.total_dim), dtype=np.complex128)
    z0bar = np.conj(z0)[:, :, None]
    g[:, :d0, :d0] = f * np.eye(d0) + z0bar * z0[:, None, :]
    g[:, :d0, d0:] = -(z0bar * np.conj(phi_grad)[:, None, :])
    g[:, d0:, :d0] = -(phi_grad[:, :, None] * z0[:, None, :])
    g[:, d0:, d0:] = phi_grad[:, :, None] * np.conj(phi_grad)[:, None, :] - f * phi_hess
    g /= row_power(margin, 2)[:, None, None]
    return g, margin, factors, z0, phi_val, phi_grad


def _symmetrised(g: np.ndarray) -> np.ndarray:
    return hermitian_part(g, 1e-12 * (1.0 + np.abs(g).max(axis=(1, 2))))


def metric_stack(spec: HartogsSpec, points) -> np.ndarray:
    """The metrics of -log(phi - ||z0||^2) at an (N, n) stack of points.

    One exactly Hermitian n x n matrix per row, from the closed block
    formula; raises :class:`BoundaryViolationError` if a row is not interior.
    """
    return _symmetrised(_metric_parts(spec, coordinate_stack(spec, points))[0])


def _require_constants(base: BaseDomainSpec):
    if any(c is None for c in base.einstein_constants):
        raise HartogsError("base factor is missing an Einstein constant")


def _fd_margins(spec: HartogsSpec, coords, stencil: str) -> np.ndarray:
    """The interior margins at an (N, n) stack of points, if every one is
    wide enough for a nested stencil; else the first row that is not raises."""
    d0 = spec.fiber_dim
    margins = phi_stack(spec.base, coords[:, d0:]) - squared_norms(coords[:, :d0])
    narrow = margins[margins < MIN_FD_MARGIN][:1]
    require_interior(narrow)
    if len(narrow):
        margin = float(narrow[0])
        raise BoundaryViolationError(
            f"margin {margin:.3e} too small for the {stencil} stencil", margin=margin
        )
    return margins


def _nested_step(margin: float) -> float:
    # Truncation of the Richardson second-derivative stencil scales like
    # step^4 / margin^6, so the step shrinks with margin^1.5.
    return min(1e-3, margin / 8.0, 0.08 * margin**1.5)


def ricci_numeric(spec: HartogsSpec, points) -> np.ndarray:
    """-ddbar log det g by finite differences at every row of an (N, n)
    stack of points; oracle for the closed Ricci tensor of
    :func:`curvature_report`.

    Agreement with the closed form is within 1e-3 entrywise for margins of
    0.05 and larger; each point's stencil step is widened/narrowed with its
    margin to keep the nested-difference error inside that budget.
    """
    coords = coordinate_stack(spec, points)
    margins = _fd_margins(spec, coords, "nested difference")

    def log_det(q):
        return np.linalg.slogdet(_symmetrised(_metric_parts(spec, q)[0]))[1]

    n = spec.total_dim
    ric = np.empty((len(coords), n, n), dtype=np.complex128)
    for r, margin in enumerate(margins.tolist()):
        ric[r] = -wirtinger_hessian(log_det, coords[r], _nested_step(margin))
    return ric


def _scalar_gradient(spec: HartogsSpec, z0, phi_val, phi_grad) -> np.ndarray:
    """Closed holomorphic gradient of the scalar curvature, one row per point."""
    tau = tau_value(spec.base)
    grad_fiber = -tau * np.conj(z0) / phi_val[:, None]
    grad_base = (tau * squared_norms(z0))[:, None] * phi_grad / row_power(phi_val, 2)[:, None]
    return np.concatenate([grad_fiber, grad_base], axis=1)


def _v_field(spec: HartogsSpec, coords):
    """V^a = sum_b g^(b abar) ds/dzbar_b at every row of an (N, n) stack,
    with the margins and phi it is built from."""
    g, margin, _, z0, phi_val, phi_grad = _metric_parts(spec, coords)
    v = np.conj(solve_hermitian(_symmetrised(g), _scalar_gradient(spec, z0, phi_val, phi_grad)))
    return v, margin, phi_val


def _extremal_residuals(spec: HartogsSpec, coords) -> np.ndarray:
    """max |dV/dzbar| at every row of an (N, n) stack of points.

    The metric is extremal exactly when dV/dzbar vanishes. The conjugate
    Jacobian comes from finite differences; the stencils of consecutive
    points run as one stack of at most ``EXTREMAL_STACK_ROWS`` rows.
    """
    _fd_margins(spec, coords, "extremal")
    per_group = max(1, EXTREMAL_STACK_ROWS // (8 * spec.total_dim))
    residual = np.empty(len(coords))
    for start in range(0, len(coords), per_group):
        group = slice(start, start + per_group)
        jac = conjugate_jacobian(lambda q: _v_field(spec, q)[0], coords[group], _EXTREMAL_STEP)
        residual[group] = np.abs(jac).max(axis=(1, 2))
    return residual


@dataclass(frozen=True)
class ExtremalCheck:
    """Per point: the residual of the extremal condition, and the first
    fiber component of V next to its closed witness."""

    residual: np.ndarray
    witness_closed: np.ndarray
    fiber_component: np.ndarray


def extremal_check(spec: HartogsSpec, points) -> ExtremalCheck:
    """The extremal residual of :func:`curvature_report` at every point, with
    the closed witness -tau z01 (phi - ||z0||^2)^2 / phi^2 for the first
    fiber component of V, which is computed through the linear-solve path."""
    coords = coordinate_stack(spec, points)
    residual = _extremal_residuals(spec, coords)
    v, margin, phi_val = _v_field(spec, coords)
    tau = tau_value(spec.base)
    witness = [  # in Python complex arithmetic, like row_power
        -tau * z01 * m**2 / f**2
        for z01, m, f in zip(coords[:, 0].tolist(), margin.tolist(), phi_val.tolist())
    ]
    return ExtremalCheck(
        residual=residual,
        witness_closed=np.array(witness, dtype=np.complex128),
        fiber_component=v[:, 0],
    )


@dataclass(frozen=True)
class CurvatureVerdicts:
    is_einstein: bool
    is_extremal: bool
    is_constant_scalar: bool
    max_einstein_residual: float
    max_extremal_residual: float
    scalar_variance: float
    tau: float
    tolerance: float
    report: CurvatureReport = field(repr=False, compare=False)


def verdicts(spec: HartogsSpec, sample, tol: float = VERDICT_TOLERANCE) -> CurvatureVerdicts:
    """Einstein / extremal / constant-scalar decisions over a point sample.

    tau is decided in exact rational arithmetic on the catalog constants, so
    the constant-scalar verdict is a real equality test, not a float one.
    For Einstein bases (all factor constants c_i equal) the three verdicts
    coincide; this is asserted. Otherwise they are reported as measured:
    polydisc(1/2, 1) has tau = 0, so its metric is of constant scalar
    curvature but not Einstein. The sample's :class:`CurvatureReport` rides
    along as ``report``.
    """
    coords = coordinate_stack(spec, sample)
    if len(coords) < 10:
        raise ValueError("verdicts need at least 10 sample points")
    rep = curvature_report(spec, coords)
    max_einstein = float(rep.einstein_residual.max())
    max_extremal = float(rep.extremal_residual.max())
    variance = float(np.var(rep.scalar_closed))
    out = CurvatureVerdicts(
        is_einstein=max_einstein <= tol,
        is_extremal=max_extremal <= tol,
        is_constant_scalar=_tau_is_zero(spec.base) and variance <= tol,
        max_einstein_residual=max_einstein,
        max_extremal_residual=max_extremal,
        scalar_variance=variance,
        tau=rep.tau,
        tolerance=tol,
        report=rep,
    )
    einstein_base = len(set(spec.base.einstein_constants)) == 1
    agree = len({out.is_einstein, out.is_extremal, out.is_constant_scalar}) == 1
    if einstein_base and not agree:
        raise HartogsError(
            "Einstein / extremal / constant-scalar verdicts disagree on an "
            f"Einstein base: {out}"
        )
    return out


@dataclass(frozen=True)
class CurvatureReport:
    """The closed identities at a sample of points, next to their direct
    evaluations: one entry (an n x n matrix for ``metric`` and
    ``ricci_closed``) per row of the (N, n) stack ``coords``."""

    coords: np.ndarray
    metric: np.ndarray
    det_closed: np.ndarray
    det_direct: np.ndarray
    ricci_closed: np.ndarray
    scalar_trace: np.ndarray
    scalar_closed: np.ndarray
    einstein_residual: np.ndarray
    extremal_residual: np.ndarray
    tau: float


def curvature_report(spec: HartogsSpec, points, include_extremal: bool = True) -> CurvatureReport:
    """det g, Ricci and scalar curvature at every point from one evaluation
    of the point stack, closed forms next to direct ones.

    ``det_direct`` is det g and ``scalar_trace`` the trace pairing
    tr(g^-1 Ric) with the closed Ricci. ``einstein_residual`` is the
    max-norm of Ric + (n+1) g = blockdiag(0, lambda_i g^(D_i)), from the
    closed Ricci, so the Einstein verdict does not inherit finite-difference
    noise. ``extremal_residual`` is max |dV/dzbar| by finite differences,
    with V the holomorphic gradient field of the scalar curvature (the
    metric is extremal exactly when V is holomorphic), and is NaN without
    ``include_extremal``.
    """
    _require_constants(spec.base)
    coords = coordinate_stack(spec, points)
    g, margin, factors, _, phi_val, _ = _metric_parts(spec, coords)
    g = _symmetrised(g)
    if np.count_nonzero(eigenvalues(g)[:, 0] <= 0):
        raise HartogsError("metric is not positive definite at an interior point")
    n, d, d0 = spec.total_dim, spec.base.dim, spec.fiber_dim
    tau = tau_value(spec.base)
    det_closed = row_power(margin, -(n + 1))
    ric = -(n + 1) * g
    einstein = np.zeros(len(coords))
    for sl, (phi_i, hess_i), c, const in zip(
        spec.base.factor_slices,
        factors,
        spec.base.einstein_constants,
        factor_determinant_constants(spec.base),
    ):
        lam = d + 1 + c
        det_closed = det_closed * (row_power(phi_i, lam) * const)
        rows = slice(d0 + sl.start, d0 + sl.stop)
        ric[:, rows, rows] += lam * hess_i
        einstein = np.maximum(einstein, abs(lam) * np.abs(hess_i).max(axis=(1, 2)))
    ric = hermitian_part(ric, 1e-11 * (1.0 + np.abs(ric).max(axis=(1, 2))))
    extremal = (
        _extremal_residuals(spec, coords) if include_extremal
        else np.full(len(coords), math.nan)
    )
    return CurvatureReport(
        coords=coords,
        metric=g,
        det_closed=det_closed,
        det_direct=np.linalg.det(g).real,
        ricci_closed=ric,
        scalar_trace=np.trace(np.linalg.solve(g, ric), axis1=1, axis2=2).real,
        scalar_closed=tau * margin / phi_val - (n + 1) * n,
        einstein_residual=einstein,
        extremal_residual=extremal,
        tau=tau,
    )
