"""Finite-difference Wirtinger derivatives of functions of z, zbar.

The targets are non-holomorphic (they depend on both z and zbar), so
complex-step differentiation is invalid; everything runs as central
differences on the 2n underlying real coordinates, with Richardson
extrapolation over the steps step / 2 and step (O(step^4)).

Conventions, for z_a = x_a + i y_a:

    d/dz_a    = (d/dx_a - i d/dy_a) / 2
    d/dzbar_a = (d/dx_a + i d/dy_a) / 2

``conjugate_jacobian`` takes a (P, n) stack of centre points and a step,
one value or one per point. It lays out the stencils of every point, point
after point and both Richardson levels included (the +-h rows along every
axis), from one stencil template per width, and calls ``f`` once on the
whole stack: ``f`` takes an (N, n) array of complex points, one per row,
and returns one value per row, an (N,) array for a real-valued f or (N, m)
for a vector-valued F. The holomorphic gradient of a real f is the
conjugate of its one-row conjugate Jacobian, df/dz = conj(df/dzbar).

Functions raise :class:`BoundaryViolationError` from inside the stencil when
an evaluation point leaves the domain; callers that know a margin are
expected to keep ``step <= margin / 8``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

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
def _stencil_template(m: int) -> tuple[np.ndarray, ...]:
    """The first-derivative stencil over m real coordinates, 4m rows, as the
    displacements that lay it out: for every row, its displaced axis, its
    sign and the Richardson level (0 for step / 2, 1 for step) of its step.

    For every axis a and level, +h e_a then -h e_a. The arrays are shared;
    read-only.
    """
    displaced = [(a, sign, level) for a in range(m) for level in (0, 1) for sign in (1.0, -1.0)]
    template = tuple(np.array(column) for column in zip(*displaced))
    for array in template:
        array.setflags(write=False)
    return template


def _richardson(per_level: list) -> np.ndarray:
    fine, coarse = per_level
    return (4.0 * fine - coarse) / 3.0


def _stencil_values(f: Callable, u: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """f once on the 4m stencil rows around every row u_i of the (P, m)
    stack of real coordinates u; shape (P, 4m) + value shape.

    Row r of point i is u_i plus sign * levels[i, level] at the displaced
    axis of template row r. Only that coordinate is written: every other
    one keeps its bits (adding a zero would turn -0.0 into +0.0).
    """
    axis, sign, level = _stencil_template(u.shape[1])
    rows = len(axis)
    stack = np.repeat(u[:, None, :], rows, axis=1)
    stack[:, np.arange(rows), axis] += sign * levels[:, level]
    n = u.shape[1] // 2
    flat = stack.reshape(-1, u.shape[1])
    vals = np.asarray(f(flat[:, :n] + 1j * flat[:, n:]))
    return vals.reshape(stack.shape[:2] + vals.shape[1:])


def conjugate_jacobian(f, points, step=DEFAULT_STEP) -> np.ndarray:
    """Matrices (dF_a / dzbar_b) of a complex-vector-valued F, one per row
    of a (P, n) stack of points: shape (P, m, n), from one call of F."""
    u = _real_stack(points)
    p, m = u.shape
    n = m // 2
    levels = _levels(step, p)
    vals = _stencil_values(f, u, levels)
    vals = vals.reshape((p, m, 2, 2) + vals.shape[2:])
    per_point = levels.T.reshape((2, p) + (1,) * (vals.ndim - 3))
    d = _richardson(
        [(vals[:, :, l, 0] - vals[:, :, l, 1]) / (2.0 * h) for l, h in enumerate(per_point)]
    )
    d = d.reshape(d.shape[:2] + (-1,))
    return (0.5 * (d[:, :n] + 1j * d[:, n:])).swapaxes(1, 2)
