"""Truncated Taylor polynomials of bidegree (dz, dw) in (Z, W), one per row.

A jet of bidegree (dz, dw) is the polynomial sum c[j, k] Z^j W^k over
multi-indices with |j| <= dz and |k| <= dw in n variables per side, stored
as a (..., az, aw) complex array of its coefficients c, with
a = C(n+d, d) monomials on a side of degree d in the order of
:func:`monomials`: the constant, then Z_0 ... Z_(n-1), then the quadratic
monomials, and so on. Leading axes are points (and, for matrices of jets,
matrix entries); arithmetic acts on the last two. Every operation takes the
bidegree (dz, dw), dz >= 1, since a width alone does not fix it (a = 15 is
n = 4 at degree 2 and n = 2 at degree 4).

This is Taylor-mode differentiation (Griewank-Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13): seeding z_k = p_k + Z_k and
w_k = conj(p_k) + W_k and running a formula on jets gives every mixed
partial d^j_z d^k_w of it at (p, conj(p)) up to bidegree (dz, dw), exactly
up to round-off, as j! k! c[j, k]. A jet without constant term is
nilpotent, N^(dz+dw+1) = 0, so f(x0 + N) is the finite series
sum_(j<=dz+dw) f^(j)(x0) N^j / j!.

Each row gives the same floats as its one-row stack: products are one
gather of each operand and one ``np.add.reduceat``, sums are elementwise,
and logs and exponentials of constant terms run on Python complex numbers
(``cmath``), row by row.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import CapabilityError

#: Most multi-indices of one degree that are enumerated; past it the index
#: lists would be too large to use, and enumeration is a CapabilityError.
_MAX_GRADE_INDICES = 100_000


def _grade(var_count: int, deg: int):
    """Multi-indices of degree ``deg`` in descending lexicographic order."""
    count = math.comb(deg + var_count - 1, var_count - 1)
    if count > _MAX_GRADE_INDICES:
        raise CapabilityError(
            f"{count} multi-indices of degree {deg} in {var_count} variables "
            f"exceed the limit of {_MAX_GRADE_INDICES}"
        )
    if var_count == 1:
        yield (deg,)
        return
    index = [deg] + [0] * (var_count - 1)
    while True:
        yield tuple(index)
        # successor: the last nonzero entry before the end gives one unit to
        # its right neighbour, which also takes over the end entry
        pos = var_count - 2
        while pos >= 0 and not index[pos]:
            pos -= 1
        if pos < 0:
            return
        tail, index[-1] = index[-1], 0
        index[pos] -= 1
        index[pos + 1] = tail + 1


def width(n: int, degree: int) -> int:
    """Monomials per side, a = C(n + degree, degree)."""
    return math.comb(n + degree, degree)


@lru_cache(maxsize=None)
def monomials(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponents of the side monomials in the jet layout: by degree, and
    within a degree in descending lexicographic order (the graded order of
    the series multi-indices)."""
    return tuple(m for k in range(degree + 1) for m in _grade(n, k))


@lru_cache(maxsize=None)
def _variables(a: int, degree: int) -> int:
    """n of a jet side with a monomials at this degree (degree >= 1)."""
    n = 1
    while width(n, degree) < a:
        n += 1
    return n


@lru_cache(maxsize=None)
def _side(n: int, degree: int) -> dict:
    """Index of each side monomial in the jet layout."""
    return {m: i for i, m in enumerate(monomials(n, degree))}


def _side_products(n: int, degree: int) -> list[tuple[int, int, int]]:
    """(left, right, target) side indices of every pair of monomials whose
    degrees sum to at most ``degree``."""
    side = _side(n, degree)
    return [
        (i, j, side[m])
        for a, i in side.items()
        for b, j in side.items()
        if (m := tuple(x + y for x, y in zip(a, b))) in side
    ]


@lru_cache(maxsize=None)
def _product_plan(n: int, bidegree: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat operand indices (left, right) of every product term and the
    start of each target coefficient's run, with terms sorted by target.

    Every target has a run, if only (target, constant), so ``reduceat``
    over the starts gives the az aw coefficients in order. Shared; read-only.
    """
    dz, dw = bidegree
    aw = width(n, dw)
    terms = sorted(
        (zt * aw + wt, zl * aw + wl, zr * aw + wr)
        for zl, zr, zt in _side_products(n, dz)
        for wl, wr, wt in _side_products(n, dw)
    )
    target, left, right = (np.array(column) for column in zip(*terms))
    starts = np.flatnonzero(np.diff(target, prepend=-1))
    plan = (left, right, starts)
    for array in plan:
        array.setflags(write=False)
    return plan


def product_terms(n: int, bidegree: tuple[int, int]) -> int:
    """Terms of one product of two jets in n variables per side: per side of
    degree d, the pairs of monomials whose degrees sum to at most d, which
    are the C(2n + d, d) monomials in 2n variables."""
    dz, dw = bidegree
    return math.comb(2 * n + dz, dz) * math.comb(2 * n + dw, dw)


def mul(x: np.ndarray, y: np.ndarray, bidegree: tuple[int, int]) -> np.ndarray:
    """The product of two jets, truncated to ``bidegree``; leading axes
    broadcast."""
    az, aw = x.shape[-2:]
    left, right, starts = _product_plan(_variables(az, bidegree[0]), bidegree)
    flat_x = x.reshape(x.shape[:-2] + (az * aw,))
    flat_y = y.reshape(y.shape[:-2] + (az * aw,))
    terms = flat_x.take(left, axis=-1) * flat_y.take(right, axis=-1)
    out = np.add.reduceat(terms, starts, axis=-1)
    return out.reshape(out.shape[:-1] + (az, aw))


def shifted(x: np.ndarray, constant) -> np.ndarray:
    """x plus a constant (one value, or one per jet)."""
    out = x.copy()
    out[..., 0, 0] += constant
    return out


def _nilpotent(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    out[..., 0, 0] = 0.0
    return out


def _power_series(u: np.ndarray, coefficients, bidegree: tuple[int, int]) -> np.ndarray:
    """sum_(k>=1) c_k u^k of a nilpotent jet u, by Horner's rule."""
    out = coefficients[-1] * u
    for c in coefficients[-2::-1]:
        out = mul(shifted(out, c), u, bidegree)
    return out


def _log1p(bidegree: tuple[int, int]) -> list[float]:
    """Coefficients (-1)^(k+1) / k of log(1 + u), k = 1 .. dz + dw."""
    return [(-1) ** (k + 1) / k for k in range(1, sum(bidegree) + 1)]


def _expm1(bidegree: tuple[int, int]) -> list[float]:
    """Coefficients 1 / k! of exp(u) - 1, k = 1 .. dz + dw."""
    return [1 / math.factorial(k) for k in range(1, sum(bidegree) + 1)]


def _row_map(f, values: np.ndarray) -> np.ndarray:
    return np.array([f(v) for v in values.ravel().tolist()]).reshape(values.shape)


def log(x: np.ndarray, bidegree: tuple[int, int]) -> np.ndarray:
    """log(x0 + N) = log x0 + log1p(N / x0), with ``cmath.log`` of x0."""
    x0 = x[..., 0, 0]
    u = _nilpotent(x) / x0[..., None, None]
    return shifted(_power_series(u, _log1p(bidegree), bidegree), _row_map(cmath.log, x0))


def exp(x: np.ndarray, bidegree: tuple[int, int]) -> np.ndarray:
    """exp(x0 + N) = exp(x0) (1 + expm1(N))."""
    e0 = _row_map(cmath.exp, x[..., 0, 0])
    series = _power_series(_nilpotent(x), _expm1(bidegree), bidegree)
    return e0[..., None, None] * shifted(series, 1.0)


def log_det(y: np.ndarray, bidegree: tuple[int, int]) -> np.ndarray:
    """log det Y of a (P, m, m) matrix of jets Y = Y0 + N, as
    log det Y0 + tr log(I + Y0^-1 N); tr log(I + M) = sum_k (-1)^(k+1)
    tr M^k / k ends at k = dz + dw, since every entry of M is nilpotent.
    Matrix products sum over the inner index in order."""
    m = y.shape[1]
    if m == 1:
        return log(y[:, 0, 0], bidegree)
    y0 = y[..., 0, 0]
    y0_inv = np.linalg.inv(y0)
    n = _nilpotent(y)
    u = sum(y0_inv[:, :, k, None, None, None] * n[:, None, k] for k in range(m))
    coefficients = _log1p(bidegree)
    out = coefficients[-1] * u
    for c in coefficients[-2::-1]:
        out = shifted(out, c * np.eye(m))
        out = sum(mul(out[:, :, k, None], u[:, None, k], bidegree) for k in range(m))
    trace = sum(out[:, k, k] for k in range(m))
    return shifted(trace, _row_map(cmath.log, np.linalg.det(y0)))


def pairing(points: np.ndarray, z_cols, w_cols, bidegree: tuple[int, int]) -> np.ndarray:
    """sum_t z_(z_cols[t]) w_(w_cols[t]) at (p + Z, conj(p) + W) for every
    row p of an (P, n) stack: constant sum p conj(p), linear terms
    conj(p) Z and p W, and the products Z W."""
    p, n = points.shape
    z_cols, w_cols = np.asarray(z_cols), np.asarray(w_cols)
    out = np.zeros((p,) + tuple(width(n, d) for d in bidegree), dtype=np.complex128)
    out[:, 0, 0] = (points[:, z_cols] * np.conj(points[:, w_cols])).sum(axis=1)
    out[:, 1 + z_cols, 0] = np.conj(points[:, w_cols])
    out[:, 0, 1 + w_cols] = points[:, z_cols]
    out[:, 1 + z_cols, 1 + w_cols] = 1.0
    return out


@lru_cache(maxsize=None)
def _second_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For every pair (a, c): the side index of e_a + e_c (the same at every
    side degree from 2, since the layout is graded) and (e_a + e_c)!."""
    side = _side(n, 2)
    unit = np.eye(n, dtype=int)
    index = np.array([[side[tuple(unit[i] + unit[j])] for j in range(n)] for i in range(n)])
    factorial = 1.0 + np.eye(n)
    for array in (index, factorial):
        array.setflags(write=False)
    return index, factorial


def hessian_jets(f: np.ndarray, bidegree: tuple[int, int]):
    """The mixed Hessian G_cd = d_c d_dbar f at Z = W = 0 of a (P, az, aw)
    jet f of bidegree at least (2, 2), with its derivatives d_a G
    (P, a, c, d), d_bbar G (P, b, c, d) and d_a d_bbar G (P, a, b, c, d)."""
    n = _variables(f.shape[-2], bidegree[0])
    pair, fac = _second_order(n)
    one = np.arange(1, n + 1)
    g = f[:, 1 : n + 1, 1 : n + 1]
    dg = f[:, pair[:, :, None], one] * fac[:, :, None]
    dbg = f[:, one[:, None], pair[:, None, :]] * fac[:, None, :]
    ddg = (
        f[:, pair[:, None, :, None], pair[None, :, None, :]]
        * (fac[:, None, :, None] * fac[None, :, None, :])
    )
    return g, dg, dbg, ddg


def conjugate_derivatives(f: np.ndarray, bidegree: tuple[int, int]):
    """The first and second W-derivatives at W = 0 of every Z coefficient of
    a (P, az, aw) jet f with dw >= 2: d_(w_a) f_i as (P, az, a) and
    d_(w_a) d_(w_c) f_i as (P, az, a, c), f_i the coefficient of the i-th
    Z monomial. At w = conj(z) they are the zbar-derivatives."""
    pair, fac = _second_order(_variables(f.shape[-2], bidegree[0]))
    n = len(pair)
    return f[:, :, 1 : n + 1], f[:, :, pair] * fac
