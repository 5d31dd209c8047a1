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

The numeric Ricci (-ddbar log det g of the potential's Taylor-mode jet)
acts as an independent oracle for the closed forms, and the
extremal-condition residual is read from the same Taylor-mode jets.
Every entry takes an (N, n) stack of points, fiber coordinates first, and
gives one value, or one n x n matrix, per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import taylor
from .domains import (
    DomainKind,
    HartogsSpec,
    coordinate_stack,
    interior_margins,
    phi_derivatives_stack,
    phi_stack,
    require_interior,
    row_power,
    squared_norms,
    tau_exact,
)
from .errors import CapabilityError, HartogsError

#: Most bytes of the largest gather buffer of a Taylor-mode oracle: product
#: terms of the jet algebra times jets times 16 B. A sample is split into
#: consecutive chunks of points that stay under it, so peak memory does not
#: grow with the sample size; a point whose buffer alone is larger runs by
#: itself.
JET_STACK_BYTES = 1 << 20

#: Bidegree of the Ricci oracle's jets: Ric reads mixed partials of the
#: potential through bidegree (2, 2).
RICCI_BIDEGREE = (2, 2)

#: Bidegree of the extremal residual's jets: V and dV/dzbar read one
#: holomorphic and up to two antiholomorphic derivatives.
EXTREMAL_BIDEGREE = (1, 2)

#: Default residual tolerance for the Einstein / extremal / scalar verdicts.
VERDICT_TOLERANCE = 1e-6


def _metric_parts(spec: HartogsSpec, coords: np.ndarray):
    """Block-formula metrics of an (N, n) coordinate stack, not yet
    symmetrised, with what they were built from: the margins, the per-factor
    (phi_i, ddbar u_i) and phi."""
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
    return g, margin, factors, phi_val


def hermitian_part(stack: np.ndarray, atol) -> np.ndarray:
    """(M + M*) / 2 for every matrix M of an (N, n, n) stack.

    Metric and Ricci tensors pass through here once, so the factorizations
    that read them downstream see exactly Hermitian matrices. Each M must be
    Hermitian within its budget
    ``atol`` (a scalar, or one value per matrix); the result is exactly
    Hermitian. Closed-form producers use ``1e-12 * max |entry|``; the
    Taylor-mode Ricci oracle carries the round-off of its jet algebra and
    passes a wider budget.
    """
    stack_h = np.conj(stack.swapaxes(-1, -2))
    asymmetry = np.abs(stack - stack_h).max(axis=(-2, -1))
    bad = asymmetry > atol
    if np.count_nonzero(bad):
        i = bad.argmax()
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {asymmetry[i]:.3e} "
            f"exceeds budget {np.broadcast_to(atol, asymmetry.shape)[i]:.3e}"
        )
    return 0.5 * (stack + stack_h)


def _symmetrised(g: np.ndarray) -> np.ndarray:
    return hermitian_part(g, 1e-12 * (1.0 + np.abs(g).max(axis=(1, 2))))


def metric_stack(spec: HartogsSpec, points) -> np.ndarray:
    """The metrics of -log(phi - ||z0||^2) at an (N, n) stack of points.

    One exactly Hermitian n x n matrix per row, from the closed block
    formula; raises :class:`BoundaryViolationError` if a row is not interior.
    """
    return _symmetrised(_metric_parts(spec, coordinate_stack(spec, points))[0])


def _potential_jets(spec: HartogsSpec, coords, bidegree: tuple[int, int]):
    """F = -log(phi(z, w) - <z0, w0>) at (p + Z, conj(p) + W) as a jet of
    ``bidegree``, one per row p of an (N, n) stack, with the jet of log phi
    it is built from.

    The polarized potential, with <a, b> = sum a_k b_k, stated once for
    every catalog base without the factor kernels of :mod:`hartogs.domains`:
    a fock factor contributes -mu <z_i, w_i>, every other one
    mu log det(I - Z_i W_i^T) with its m x k coordinate matrices (m = 1 for
    ball and polydisc factors). The Ricci oracle runs it around sample
    points at ``RICCI_BIDEGREE``, the extremal residual at
    ``EXTREMAL_BIDEGREE``, and :func:`hartogs.series.origin_coefficients`
    around the origin at (4, 4).
    """
    d0 = spec.fiber_dim
    base = spec.base
    log_phi = 0.0
    for sl, mu in zip(base.factor_slices, base.float_exponents):
        cols = d0 + np.arange(sl.start, sl.stop)
        if base.kind is DomainKind.FOCK:
            log_phi = log_phi - mu * taylor.pairing(coords, cols, cols, bidegree)
            continue
        cols = cols.reshape(base.shape or (1, len(cols)))
        m = len(cols)
        y = -np.stack(
            [np.stack([taylor.pairing(coords, zi, wj, bidegree) for wj in cols], axis=1)
             for zi in cols],
            axis=1,
        )
        y[..., 0, 0] += np.eye(m)
        log_phi = log_phi + mu * taylor.log_det(y, bidegree)
    fiber = np.arange(d0)
    phi = taylor.exp(log_phi, bidegree)
    f = -taylor.log(phi - taylor.pairing(coords, fiber, fiber, bidegree), bidegree)
    return f, log_phi


def jet_bytes_per_point(spec: HartogsSpec, bidegree: tuple[int, int]) -> int:
    """Bytes of the largest gather buffer of one point's potential jet of
    ``bidegree``: a product of two jets, or, on a Cartan factor with m >= 2
    rows, the Schur update of the first LU step of :func:`taylor.log_det`,
    (m - 1)^2 products at once."""
    m = spec.base.shape[0] if spec.base.shape else 1
    return 16 * max(1, (m - 1) ** 2) * taylor.product_terms(spec.total_dim, bidegree)


def _jet_chunks(spec: HartogsSpec, rows: int, bidegree: tuple[int, int]):
    """Consecutive chunks of ``rows`` points whose jets of ``bidegree``
    gather at most ``JET_STACK_BYTES`` at once, and the gather bytes of the
    largest chunk, for :func:`taylor.scratch`."""
    size = jet_bytes_per_point(spec, bidegree)
    per_chunk = max(1, JET_STACK_BYTES // size)
    chunks = [slice(start, start + per_chunk) for start in range(0, rows, per_chunk)]
    return chunks, min(rows, per_chunk) * size


def _require_finite(what: str, *values: np.ndarray) -> None:
    """Raise :class:`CapabilityError` when values left the double range, as
    the jets of the potential do from exponents near 1e200 and the closed
    forms near 1e303."""
    if not all(np.isfinite(v).all() for v in values):
        raise CapabilityError(f"{what} left the double-precision range")


def _ricci_of_potential(f: np.ndarray) -> np.ndarray:
    """-d_a d_bbar log det G from the jet f of a potential, G its mixed
    Hessian: -(tr(G^-1 d_a d_bbar G) - tr(G^-1 d_a G G^-1 d_bbar G)),
    contracted with elementwise products and sums."""
    g, dg, dbg, ddg = taylor.hessian_jets(f, RICCI_BIDEGREE)
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

    The potential runs as a jet of bidegree (2, 2) (:mod:`hartogs.taylor`)
    from the polarized formula, independently of the closed metric, and
    the Ricci is read from its coefficients, so there is no step size and
    no margin rule: every interior point is accepted, and agreement with
    the closed form is at round-off level (within 1e-9 relative, margins
    of 1e-3 included). Consecutive points run as one chunk whose jet
    buffers hold at most ``JET_STACK_BYTES``, and each row gives
    the same floats as the one-row stack of its point.
    """
    coords = coordinate_stack(spec, points)
    interior_margins(spec, coords)
    n = spec.total_dim
    ric = np.empty((len(coords), n, n), dtype=np.complex128)
    chunks, nbytes = _jet_chunks(spec, len(coords), RICCI_BIDEGREE)
    with taylor.scratch(nbytes), np.errstate(over="ignore", invalid="ignore"):
        for chunk in chunks:
            f, _ = _potential_jets(spec, coords[chunk], RICCI_BIDEGREE)
            ric[chunk] = _ricci_of_potential(f)
    _require_finite("the Ricci jets of the potential", ric)
    return hermitian_part(ric, 1e-9 * (1.0 + np.abs(ric).max(axis=(1, 2))))


def _extremal_of_jets(f: np.ndarray, log_phi: np.ndarray, tau: float):
    """max |dV/dzbar| and V at every point of the jets f of the potential
    and log phi, of bidegree ``EXTREMAL_BIDEGREE``.

    With G_ab = d_a d_bbar F and s + n(n+1) = tau (phi - <z0, w0>) / phi =
    tau exp(-F - log phi), V solves G^T V = dbar s, and its zbar_c
    derivative G^T d_c V = d_c dbar s - sum_a (d_c G)_ab V_a.
    """
    df, ddf = taylor.conjugate_derivatives(f, EXTREMAL_BIDEGREE)
    s = tau * taylor.exp(-f - log_phi, EXTREMAL_BIDEGREE)
    ds, dds = taylor.conjugate_derivatives(s, EXTREMAL_BIDEGREE)
    g_t = df[:, 1:].swapaxes(1, 2)
    v = np.linalg.solve(g_t, ds[:, 0, :, None])[..., 0]
    dv = np.linalg.solve(g_t, dds[:, 0] - (ddf[:, 1:] * v[:, :, None, None]).sum(axis=1))
    return np.abs(dv).max(axis=(1, 2)), v


def _extremal_field(spec: HartogsSpec, coords):
    """max |dV/dzbar| and V^a = sum_b g^(b abar) ds/dzbar_b at every row of
    an (N, n) stack of interior points, from the Taylor-mode jets of the
    potential in chunks of at most ``JET_STACK_BYTES``; each row gives the
    same floats as its one-row stack.

    The metric is extremal exactly when dV/dzbar vanishes.
    """
    tau = float(tau_exact(spec.base))
    residual = np.empty(len(coords))
    v = np.empty(coords.shape, dtype=np.complex128)
    chunks, nbytes = _jet_chunks(spec, len(coords), EXTREMAL_BIDEGREE)
    with taylor.scratch(nbytes), np.errstate(over="ignore", invalid="ignore"):
        for chunk in chunks:
            f, log_phi = _potential_jets(spec, coords[chunk], EXTREMAL_BIDEGREE)
            residual[chunk], v[chunk] = _extremal_of_jets(f, log_phi, tau)
    _require_finite("the extremal jets of the potential", residual, v)
    return residual, v


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
    fiber component of V, which is computed through the jet solve."""
    coords = coordinate_stack(spec, points)
    margin = interior_margins(spec, coords)
    phi_val = phi_stack(spec.base, coords[:, spec.fiber_dim :])
    residual, v = _extremal_field(spec, coords)
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


def _spread(values: np.ndarray) -> float:
    """The variance of a sample, as ``np.var`` gives it, from the sample
    scaled by a power of two before squaring: exact scaling keeps every
    float of ``np.var``, and a spread past the double range is inf in
    Python float arithmetic instead of a numpy overflow warning."""
    scale = math.ldexp(0.5, math.frexp(float(np.abs(values).max()))[1])
    return float(np.var(values / scale)) * scale * scale


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
    ``include_extremal`` it skips the extremal jets, and the extremal
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
        scalar_variance=_spread(rep.scalar_closed),
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
    closed Ricci. ``extremal_residual`` is max |dV/dzbar|, read from
    Taylor-mode jets of bidegree (1, 2) at every interior point, with V the
    holomorphic gradient field of the scalar curvature (the metric is
    extremal exactly when V is holomorphic), and is NaN without
    ``include_extremal``.
    """
    coords = coordinate_stack(spec, points)
    n, d0 = spec.total_dim, spec.fiber_dim
    tau = float(tau_exact(spec.base))
    # at exponents near the top of the double range the closed forms
    # overflow: one CapabilityError, not numpy warnings and inf rows
    with np.errstate(over="ignore", invalid="ignore"):
        g, margin, factors, phi_val = _metric_parts(spec, coords)
        g = _symmetrised(g)
        try:  # a Cholesky factor exists iff every matrix is positive definite
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            _require_finite("the metric", g)
            raise HartogsError("metric is not positive definite at an interior point") from None
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
        det_direct = np.linalg.det(g).real
        scalar_trace = np.trace(np.linalg.solve(g, ric), axis1=1, axis2=2).real
    scalar_closed = tau * margin / phi_val - (n + 1) * n
    # a non-finite metric, Hessian or Ricci shows in det g or in Ric (a zero
    # lambda_i times an infinite Hessian is NaN), and then in the rest
    _require_finite("the closed curvature forms", det_closed, det_direct, ric)
    extremal = (
        _extremal_field(spec, coords)[0] if include_extremal
        else np.full(len(coords), math.nan)
    )
    return CurvatureReport(
        coords=coords,
        metric=g,
        det_closed=det_closed,
        det_direct=det_direct,
        ricci_closed=ric,
        scalar_trace=scalar_trace,
        scalar_closed=scalar_closed,
        einstein_residual=einstein,
        extremal_residual=extremal,
        tau=tau,
    )
