"""Finite-difference Wirtinger calculus for real-valued functions of z, zbar.

The targets are non-holomorphic (they depend on both z and zbar), so
complex-step differentiation is invalid; everything runs as central
differences on the 2n underlying real coordinates, with Richardson
extrapolation over the steps step / 2 and step (O(step^4)).

Conventions, for z_a = x_a + i y_a:

    d/dz_a    = (d/dx_a - i d/dy_a) / 2
    d/dzbar_a = (d/dx_a + i d/dy_a) / 2

Both oracles take a (P, n) stack of centre points and a step, one value or
one per point. They lay out the stencils of every point, point after point
and both Richardson levels included, from one stencil template per width,
and call ``f`` once on the whole stack: ``f`` takes an (N, n) array of
complex points, one per row, and returns one value per row, an (N,) array
for a real-valued f or (N, m) for a vector-valued F. ``conjugate_jacobian``
lays out the template's leading diagonal block (the +-h rows along every
axis), ``wirtinger_hessian`` all of it. The holomorphic gradient of a real
f is the conjugate of its one-row conjugate Jacobian, df/dz = conj(df/dzbar).

Functions raise :class:`BoundaryViolationError` from inside the stencil when
an evaluation point leaves the domain; callers that know a margin are
expected to keep ``step <= margin / 8``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

import numpy as np

from .hermitian import hermitian_part

#: Default stencil step.
DEFAULT_STEP = 1e-4


def _real_stack(points) -> np.ndarray:
    """Real coordinates (x, y) of every row of a (P, n) stack of points."""
    p = np.asarray(points, dtype=np.complex128)
    if p.ndim != 2:
        raise ValueError("expected a (P, n) stack of points")
    return np.concatenate([p.real, p.imag], axis=1)


def _levels(step, points: int) -> np.ndarray:
    """Stencil steps of each of ``points`` points, finest first: one row
    (step / 2, step) per point, from one step or one step per point."""
    levels = np.empty((points, 2))
    levels[:, 1] = step
    steps = levels[:, 1]
    if not ((steps > 0) & (steps < math.inf)).all():
        raise ValueError("step must be positive and finite")
    levels[:, 0] = steps / 2.0
    return levels


@functools.lru_cache(maxsize=None)
def _stencil_template(m: int, rows: int) -> tuple[np.ndarray, ...]:
    """The first ``rows`` rows of the second-derivative stencil over m real
    coordinates, as the displacements that lay them out: for every displaced
    coordinate, its row, its axis, its sign and the Richardson level (0 for
    step / 2, 1 for step) of its row's step.

    The diagonal block comes first, 4m rows (all the first-derivative
    stencil needs): for every axis a and level, +h e_a then -h e_a. Then the
    centre, with nothing displaced. Then the corners, 8 rows per pair a < b:
    for every level, (+h, +h), (+h, -h), (-h, +h), (-h, -h) on (e_a, e_b).
    The full stencil has 1 + 4m^2 rows. The arrays are shared; read-only.
    """
    corners = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    layout = [(level, [(a, sign)]) for a in range(m) for level in (0, 1) for sign in (1.0, -1.0)]
    layout.append((0, []))
    layout += [
        (level, [(a, sa), (b, sb)])
        for a, b in itertools.combinations(range(m), 2)
        for level in (0, 1)
        for sa, sb in corners
    ]
    displaced = [
        (r, axis, sign, level)
        for r, (level, moves) in enumerate(layout[:rows])
        for axis, sign in moves
    ]
    template = tuple(np.array(column) for column in zip(*displaced))
    for array in template:
        array.setflags(write=False)
    return template


def _richardson(per_level: list) -> np.ndarray:
    fine, coarse = per_level
    return (4.0 * fine - coarse) / 3.0


def _stencil_values(f: Callable, u: np.ndarray, levels: np.ndarray, rows: int) -> np.ndarray:
    """f once on the first ``rows`` template rows around every row u_i of
    the (P, m) stack of real coordinates u; shape (P, rows) + value shape.

    Row r of point i is u_i plus sign * levels[i, level] at the displaced
    coordinates of template row r. Only those are written: every other
    coordinate keeps its bits (adding a zero would turn -0.0 into +0.0).
    """
    at_row, axis, sign, level = _stencil_template(u.shape[1], rows)
    stack = np.repeat(u[:, None, :], rows, axis=1)
    stack[:, at_row, axis] += sign * levels[:, level]
    n = u.shape[1] // 2
    flat = stack.reshape(-1, u.shape[1])
    vals = np.asarray(f(flat[:, :n] + 1j * flat[:, n:]))
    return vals.reshape(stack.shape[:2] + vals.shape[1:])


def wirtinger_hessian(f, points, step=DEFAULT_STEP) -> np.ndarray:
    """Mixed Hessians (d^2 f / dz_a dzbar_b) of a real-valued f at every row
    of a (P, n) stack of points: shape (P, n, n), from one call of f.

    ``step`` is one value or one value per point. Each matrix is built from
    the full real Hessian H over (x, y):

        W = (H_xx + H_yy + i (H_xy - H_xy^T)) / 4,

    which is exactly Hermitian once H is assembled symmetrically; the
    symmetry budget is 1e-12 max |W| per point.
    """
    u = _real_stack(points)
    p, m = u.shape
    n = m // 2
    levels = _levels(step, p)
    vals = _stencil_values(f, u, levels, 1 + 4 * m * m)
    dv = vals[:, : 4 * m].reshape(p, m, 2, 2)
    centre = vals[:, 4 * m : 4 * m + 1]
    cv = vals[:, 4 * m + 1 :].reshape(p, -1, 2, 4)
    per_point = levels.T[:, :, None]  # (level, point, 1)
    h = np.zeros((p, m, m))
    h[:, np.arange(m), np.arange(m)] = _richardson([
        (dv[:, :, l, 0] - 2.0 * centre + dv[:, :, l, 1]) / (s * s)
        for l, s in enumerate(per_point)
    ])
    first, second = np.triu_indices(m, 1)
    h[:, first, second] = h[:, second, first] = _richardson([
        (0.0 + cv[:, :, l, 0] - cv[:, :, l, 1] - cv[:, :, l, 2] + cv[:, :, l, 3]) / (4.0 * s * s)
        for l, s in enumerate(per_point)
    ])
    xx, yy, xy = h[:, :n, :n], h[:, n:, n:], h[:, :n, n:]
    w = 0.25 * ((xx + yy) + 1j * (xy - xy.swapaxes(1, 2)))
    return hermitian_part(w, 1e-12 * np.abs(w).max(axis=(1, 2)))


def conjugate_jacobian(f, points, step=DEFAULT_STEP) -> np.ndarray:
    """Matrices (dF_a / dzbar_b) of a complex-vector-valued F, one per row
    of a (P, n) stack of points: shape (P, m, n), from one call of F."""
    u = _real_stack(points)
    p, m = u.shape
    n = m // 2
    levels = _levels(step, p)
    vals = _stencil_values(f, u, levels, 4 * m)
    vals = vals.reshape((p, m, 2, 2) + vals.shape[2:])
    per_point = levels.T.reshape((2, p) + (1,) * (vals.ndim - 3))
    d = _richardson(
        [(vals[:, :, l, 0] - vals[:, :, l, 1]) / (2.0 * h) for l, h in enumerate(per_point)]
    )
    d = d.reshape(d.shape[:2] + (-1,))
    return (0.5 * (d[:, :n] + 1j * d[:, n:])).swapaxes(1, 2)
