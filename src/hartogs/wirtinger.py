"""Finite-difference Wirtinger calculus for real-valued functions of z, zbar.

The targets are non-holomorphic (they depend on both z and zbar), so
complex-step differentiation is invalid; everything runs as central
differences on the 2n underlying real coordinates, with Richardson
extrapolation over the steps step / 2 and step (O(step^4)).

Conventions, for z_a = x_a + i y_a:

    d/dz_a    = (d/dx_a - i d/dy_a) / 2
    d/dzbar_a = (d/dx_a + i d/dy_a) / 2

Each stencil is laid out first, both Richardson levels included, and ``f``
is called once on the whole stack: ``f`` takes an (N, n) array of complex
points, one per row, and returns one value per row, an (N,) array for a
real-valued f or (N, m) for a vector-valued F. ``conjugate_jacobian`` lays
out the stencils of a whole (P, n) stack of centre points, point after point,
in that one call; ``wirtinger_hessian`` lays out the stencil of one point.
The holomorphic gradient of a real f is the conjugate of its one-row
conjugate Jacobian, df/dz = conj(df/dzbar).

Functions raise :class:`BoundaryViolationError` from inside the stencil when
an evaluation point leaves the domain; callers that know a margin are
expected to keep ``step <= margin / 8``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .hermitian import hermitian_part

#: Default stencil step.
DEFAULT_STEP = 1e-4


def _split_real(p: np.ndarray) -> np.ndarray:
    """Real coordinates (x, y) of a point, or of every row of a point stack."""
    p = np.atleast_1d(np.asarray(p, dtype=np.complex128))
    return np.concatenate([p.real, p.imag], axis=-1)


def _levels(step: float) -> tuple[float, float]:
    """Stencil steps, finest first: (step / 2, step)."""
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    return (step / 2.0, step)


def _richardson(per_level: list) -> np.ndarray:
    fine, coarse = per_level
    return (4.0 * fine - coarse) / 3.0


def _displaced(u: np.ndarray, axes, deltas) -> np.ndarray:
    """Rows of the (P, m) stack u, point after point: row r of point i is
    u_i plus deltas[r][k] at coordinate axes[r][k], for every k."""
    axes, deltas = np.asarray(axes), np.asarray(deltas)
    rows = np.repeat(u[:, None, :], len(axes), axis=1)
    for k in range(axes.shape[1]):
        rows[:, np.arange(len(axes)), axes[:, k]] += deltas[:, k]
    return rows.reshape(-1, u.shape[1])


def _plus_minus(u: np.ndarray, levels) -> np.ndarray:
    """Rows u_i + h e_a, u_i - h e_a for every real axis a, then level h,
    for every row u_i of the (P, m) stack u."""
    m = u.shape[1]
    signed = [[sign * h] for h in levels for sign in (1.0, -1.0)]
    return _displaced(u, [[a] for a in range(m) for _ in signed], signed * m)


def _evaluate(f: Callable, rows: np.ndarray) -> np.ndarray:
    """f once on a stack of real coordinate rows, passed as complex points."""
    n = rows.shape[1] // 2
    return np.asarray(f(rows[:, :n] + 1j * rows[:, n:]))


def _first_derivatives(f: Callable, points, step: float) -> np.ndarray:
    """df/du_a along every real coordinate u_a of every row of a (P, n)
    stack of points, from one call of f; shape (P, 2n) + value shape."""
    u = _split_real(points)
    if u.ndim != 2:
        raise ValueError("expected a (P, n) stack of points")
    levels = _levels(step)
    vals = _evaluate(f, _plus_minus(u, levels))
    vals = vals.reshape(u.shape + (len(levels), 2) + vals.shape[1:])
    return _richardson(
        [(vals[:, :, l, 0] - vals[:, :, l, 1]) / (2.0 * h) for l, h in enumerate(levels)]
    )


def wirtinger_hessian(f, p, step: float = DEFAULT_STEP) -> np.ndarray:
    """Mixed Hessian (d^2 f / dz_a dzbar_b) of a real-valued f at the
    complex vector p, as an n x n array.

    Built from the full real Hessian H over (x, y):

        W = (H_xx + H_yy + i (H_xy - H_xy^T)) / 4,

    which is exactly Hermitian once H is assembled symmetrically. One stack
    holds p, the diagonal stencils and the four corners of every pair a < b.
    """
    u = _split_real(p)[None, :]
    n = u.shape[1] // 2
    levels = _levels(step)
    pairs = list(zip(*np.triu_indices(2 * n, 1)))
    corners = [(si * h, sj * h) for h in levels for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    diag_rows = _plus_minus(u, levels)
    cross_rows = _displaced(u, [ab for ab in pairs for _ in corners], corners * len(pairs))
    vals = _evaluate(f, np.vstack([u, diag_rows, cross_rows]))
    dv = vals[1 : 1 + len(diag_rows)].reshape(2 * n, len(levels), 2)
    cv = vals[1 + len(diag_rows) :].reshape(len(pairs), len(levels), 4)
    h = np.diag(_richardson(
        [(dv[:, l, 0] - 2.0 * vals[0] + dv[:, l, 1]) / (s * s) for l, s in enumerate(levels)]
    ))
    first, second = np.triu_indices(2 * n, 1)
    h[first, second] = h[second, first] = _richardson([
        (0.0 + cv[:, l, 0] - cv[:, l, 1] - cv[:, l, 2] + cv[:, l, 3]) / (4.0 * s * s)
        for l, s in enumerate(levels)
    ])
    xx, yy, xy = h[:n, :n], h[n:, n:], h[:n, n:]
    w = 0.25 * ((xx + yy) + 1j * (xy - xy.T))
    return hermitian_part(w[None], 1e-12 * np.abs(w).max())[0]


def conjugate_jacobian(f, points, step: float = DEFAULT_STEP) -> np.ndarray:
    """Matrices (dF_a / dzbar_b) of a complex-vector-valued F, one per row
    of a (P, n) stack of points: shape (P, m, n), from one call of F."""
    d = _first_derivatives(f, points, step)
    d = d.reshape(d.shape[:2] + (-1,))
    n = d.shape[1] // 2
    return (0.5 * (d[:, :n] + 1j * d[:, n:])).swapaxes(1, 2)
