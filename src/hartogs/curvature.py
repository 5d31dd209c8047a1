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

The numeric Ricci (-ddbar log det g of the potential's Taylor-mode jet) and
the extremal-condition residual (finite differences) act as independent
oracles for the closed forms.
Every entry takes an (N, n) stack of points, fiber coordinates first, and
gives one value, or one n x n matrix, per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import taylor
from .domains import (
    BaseDomainSpec,
    DomainKind,
    HartogsSpec,
    coordinate_stack,
    interior_margins,
    phi_derivatives_stack,
    phi_stack,
    require_interior,
    row_power,
    squared_norms,
)
from .errors import BoundaryViolationError, HartogsError
from .hermitian import eigenvalues, hermitian_part, solve_hermitian
from .wirtinger import conjugate_jacobian

#: Smallest interior margin accepted by the finite-difference extremal oracle.
MIN_FD_MARGIN = 0.01

#: Extremal stencil step: Richardson steps 1e-3 / 2 and 1e-3, below
#: margin / 8 at every point that keeps MIN_FD_MARGIN.
_EXTREMAL_STEP = 1e-3

#: Most stencil rows the extremal oracle evaluates as one stack. A sample is
#: split into consecutive groups of points (8n rows each) that stay under
#: it, so peak memory does not grow with the sample size.
EXTREMAL_STACK_ROWS = 256

#: Most terms (product terms of the jet algebra times points) one product
#: of the Taylor-mode Ricci oracle holds. A sample is split into consecutive
#: chunks of points that stay under it; a point whose product alone is
#: longer runs by itself.
RICCI_STACK_TERMS = 4096

#: Side degree of the Ricci oracle's jets: Ric reads mixed partials of the
#: potential through bidegree (2, 2).
RICCI_DEGREE = 2

#: Default residual tolerance for the Einstein / extremal / scalar verdicts.
VERDICT_TOLERANCE = 1e-6


def tau_exact(base: BaseDomainSpec) -> Fraction:
    """tau = d(d+1) + sum c_i d_i in exact rational arithmetic."""
    d = base.dim
    return Fraction(d * (d + 1)) + sum(
        c * di for c, di in zip(base.einstein_constants, base.dims)
    )


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


def _fd_margins(spec: HartogsSpec, coords) -> np.ndarray:
    """The interior margins at an (N, n) stack of points, if every one is
    wide enough for the extremal stencil; else the first row that is not
    raises."""
    d0 = spec.fiber_dim
    margins = phi_stack(spec.base, coords[:, d0:]) - squared_norms(coords[:, :d0])
    narrow = margins[margins < MIN_FD_MARGIN][:1]
    require_interior(narrow)
    if len(narrow):
        margin = float(narrow[0])
        raise BoundaryViolationError(
            f"margin {margin:.3e} too small for the extremal stencil", margin=margin
        )
    return margins


def _potential_jets(spec: HartogsSpec, coords, degree: int) -> np.ndarray:
    """F = -log(phi(z, w) - <z0, w0>) at (p + Z, conj(p) + W) as a jet of
    side degree ``degree``, one per row p of an (N, n) stack.

    The polarized potential, with <a, b> = sum a_k b_k, stated once for
    every catalog base without the factor kernels of :mod:`hartogs.domains`:
    a fock factor contributes -mu <z_i, w_i>, every other one
    mu log det(I - Z_i W_i^T) with its m x k coordinate matrices (m = 1 for
    ball and polydisc factors). The Ricci oracle runs it around sample
    points at side degree ``RICCI_DEGREE``, and
    :func:`hartogs.series.origin_coefficients` around the origin at side
    degree 4.
    """
    d0 = spec.fiber_dim
    base = spec.base
    log_phi = 0.0
    for sl, mu in zip(base.factor_slices, base.float_exponents):
        cols = d0 + np.arange(sl.start, sl.stop)
        if base.kind is DomainKind.FOCK:
            log_phi = log_phi - mu * taylor.pairing(coords, cols, cols, degree)
            continue
        cols = cols.reshape(base.shape or (1, len(cols)))
        m = len(cols)
        y = -np.stack(
            [np.stack([taylor.pairing(coords, zi, wj, degree) for wj in cols], axis=1)
             for zi in cols],
            axis=1,
        )
        y[..., 0, 0] += np.eye(m)
        log_phi = log_phi + mu * taylor.log_det(y, degree)
    fiber = np.arange(d0)
    phi = taylor.exp(log_phi, degree)
    return -taylor.log(phi - taylor.pairing(coords, fiber, fiber, degree), degree)


def _ricci_of_potential(f: np.ndarray) -> np.ndarray:
    """-d_a d_bbar log det G from the jet f of a potential, G its mixed
    Hessian: -(tr(G^-1 d_a d_bbar G) - tr(G^-1 d_a G G^-1 d_bbar G)),
    contracted with elementwise products and sums."""
    g, dg, dbg, ddg = taylor.hessian_jets(f, RICCI_DEGREE)
    g_inv = np.linalg.inv(g)
    # G^-1 d_a G and G^-1 d_bbar G, one matrix per a and per b
    left = (g_inv[:, None, :, :, None] * dg[:, :, None, :, :]).sum(axis=3)
    right = (g_inv[:, None, :, :, None] * dbg[:, :, None, :, :]).sum(axis=3)
    second = (g_inv.swapaxes(1, 2)[:, None, None] * ddg).sum(axis=(3, 4))
    first = (left[:, :, None] * right.swapaxes(2, 3)[:, None]).sum(axis=(3, 4))
    return first - second


def ricci_numeric(spec: HartogsSpec, points) -> np.ndarray:
    """-ddbar log det g at every row of an (N, n) stack of points, in
    Taylor-mode arithmetic; oracle for the closed Ricci tensor of
    :func:`curvature_report`.

    The potential runs as a jet of side degree 2 (:mod:`hartogs.taylor`)
    from the polarized formula, independently of the closed metric, and
    the Ricci is read from its coefficients, so there is no step size and
    no margin rule: every interior point is accepted, and agreement with
    the closed form is at round-off level (within 1e-9 relative, margins
    of 1e-3 included). Consecutive points run as one chunk whose jet
    products hold at most ``RICCI_STACK_TERMS`` terms, and each row gives
    the same floats as the one-row stack of its point.
    """
    coords = coordinate_stack(spec, points)
    interior_margins(spec, coords)
    n = spec.total_dim
    per_chunk = max(1, RICCI_STACK_TERMS // taylor.product_terms(n, RICCI_DEGREE))
    ric = np.empty((len(coords), n, n), dtype=np.complex128)
    for start in range(0, len(coords), per_chunk):
        chunk = slice(start, start + per_chunk)
        ric[chunk] = _ricci_of_potential(_potential_jets(spec, coords[chunk], RICCI_DEGREE))
    return hermitian_part(ric, 1e-9 * (1.0 + np.abs(ric).max(axis=(1, 2))))


def _scalar_gradient(spec: HartogsSpec, z0, phi_val, phi_grad) -> np.ndarray:
    """Closed holomorphic gradient of the scalar curvature, one row per point."""
    tau = float(tau_exact(spec.base))
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
    _fd_margins(spec, coords)
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
    tau = float(tau_exact(spec.base))
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


def verdicts(
    spec: HartogsSpec, sample, tol: float = VERDICT_TOLERANCE, include_extremal: bool = True
) -> CurvatureVerdicts:
    """Einstein / extremal / constant-scalar decisions over a point sample.

    The decisions are exact, on the rational factor constants c_i: Einstein
    iff d + 1 + c_i = 0 for every factor, extremal and constant scalar iff
    tau = 0. The residuals over the sample are the measured values next to
    them; an exact "yes" whose residual exceeds ``tol`` is a defect of the
    closed forms and raises :class:`HartogsError`, while an exact "no" may
    have a residual below ``tol`` (near mu = 1 on a disc, say). On an
    Einstein base (all c_i equal) the three decisions coincide, since
    tau = d (d + 1 + c); polydisc(1/2, 1) has tau = 0, so its metric is of
    constant scalar curvature and extremal but not Einstein. The sample's
    :class:`CurvatureReport` rides along as ``report``; without
    ``include_extremal`` it skips the extremal stencil, and the extremal
    residual is NaN and left unchecked.
    """
    coords = coordinate_stack(spec, sample)
    if len(coords) < 10:
        raise ValueError("verdicts need at least 10 sample points")
    rep = curvature_report(spec, coords, include_extremal)
    tau_zero = tau_exact(spec.base) == 0
    out = CurvatureVerdicts(
        is_einstein=not any(spec.base.lambdas),
        is_extremal=tau_zero,
        is_constant_scalar=tau_zero,
        max_einstein_residual=float(rep.einstein_residual.max()),
        max_extremal_residual=float(rep.extremal_residual.max()),
        scalar_variance=float(np.var(rep.scalar_closed)),
        tau=rep.tau,
        tolerance=tol,
        report=rep,
    )
    for name, yes, residual in (
        ("Einstein", out.is_einstein, out.max_einstein_residual),
        ("extremal", out.is_extremal and include_extremal, out.max_extremal_residual),
        ("constant-scalar", out.is_constant_scalar, out.scalar_variance),
    ):
        if yes and not residual <= tol:
            raise HartogsError(
                f"exact {name} verdict with residual {residual:.3e} over the "
                f"tolerance {tol:.1e}: {out}"
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
    coords = coordinate_stack(spec, points)
    g, margin, factors, _, phi_val, _ = _metric_parts(spec, coords)
    g = _symmetrised(g)
    if np.count_nonzero(eigenvalues(g)[:, 0] <= 0):
        raise HartogsError("metric is not positive definite at an interior point")
    n, d0 = spec.total_dim, spec.fiber_dim
    tau = float(tau_exact(spec.base))
    det_closed = row_power(margin, -(n + 1))
    ric = -(n + 1) * g
    einstein = np.zeros(len(coords))
    for sl, (phi_i, hess_i), lam, const in zip(
        spec.base.factor_slices,
        factors,
        map(float, spec.base.lambdas),
        map(float, spec.base.determinant_constants),
    ):
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
