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
up to round-off, as j! k! c[j, k].

log and exp are the Euler-operator recurrences of Taylor arithmetic (ibid.):
with E the total-degree operator, y = exp(x) solves E y = y E x and
L = log(1 + u) solves (1 + u) E L = E u, which give the part of total degree
t = |j| + |k| from the lower ones. Products only raise both degrees, so
truncation to the (dz, dw) box needs no care. log det sums the logs of the
LU pivots of a matrix of jets. Every product reads one plan per (n, bidegree)
of flat operand indices, built with numpy from mixed-radix monomial keys.

Each row gives the same floats as its one-row stack: every product and
recurrence step is one gather of each operand (a recurrence step first
scales its left operand by the step's weights, coefficient by
coefficient) and one ``np.add.reduceat``, sums are elementwise, and logs
and exponentials of constant terms run on Python complex numbers
(``cmath``), row by row. Inside :func:`scratch` the gathers reuse two
buffers; the floats are the same.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _side_pairs(n: int, degree: int) -> tuple[np.ndarray, ...]:
    """(left, right, target) side indices of every pair of monomials whose
    degrees sum to at most ``degree``, and the degree of every monomial.

    A target is found by its mixed-radix key sum_i m_i (degree + 1)^i, which
    is additive, and one-to-one on exponents of degree at most ``degree``.
    """
    if (degree + 1) ** n > np.iinfo(np.int64).max:
        raise CapabilityError(f"monomial keys of {n} variables at degree {degree} exceed 64 bits")
    exponents = np.array(monomials(n, degree)).reshape(-1, n)
    key = exponents @ (degree + 1) ** np.arange(n)
    side_degree = exponents.sum(axis=1)
    left, right = np.nonzero(side_degree[:, None] + side_degree <= degree)
    order = np.argsort(key)
    target = order[np.searchsorted(key, key[left] + key[right], sorter=order)]
    return _read_only(left, right, target, side_degree)


@lru_cache(maxsize=None)
def _product_plan(n: int, bidegree: tuple[int, int]):
    """Flat operand indices of the terms of a product of two jets.

    For :func:`mul`: (left, right) of every term, sorted by target, and the
    start of each target's run (every target has one, if only (target,
    constant)). For :func:`_recurrence`, which holds its output by total
    degree: the flat indices in that order and the position of each, and
    per target degree t = 2 .. dz + dw, for the terms whose operands both
    have positive degree: their left operands, the positions of their right
    operands, the start of each target's run, the complex weights
    deg(left) / t and -deg(right) / t of a left operand at each flat index,
    and the positions lo .. hi - 1 of the targets (every target of degree
    t >= 2 has a term, e_i + m has (e_i, m)). Shared; read-only.
    """
    (zl, zr, zt, z_degree), (wl, wr, wt, w_degree) = (_side_pairs(n, d) for d in bidegree)
    aw = len(w_degree)
    left, right, target = ((z[:, None] * aw + w).ravel() for z, w in ((zl, wl), (zr, wr), (zt, wt)))
    degree = (z_degree[:, None] + w_degree).ravel()
    order = np.lexsort((right, left, target))
    left, right, target = left[order], right[order], target[order]
    inner = np.flatnonzero((degree[left] > 0) & (degree[right] > 0))
    inner = inner[np.argsort(degree[target[inner]], kind="stable")]
    bounds = np.searchsorted(degree[target[inner]], np.arange(2, sum(bidegree) + 2))
    by_degree = np.argsort(degree, kind="stable")
    position = np.argsort(by_degree)
    ends = np.searchsorted(degree[by_degree], np.arange(1, sum(bidegree) + 1), side="right")
    steps = []
    for t, (a, b, lo, hi) in enumerate(zip(bounds, bounds[1:], ends, ends[1:]), start=2):
        terms = target[inner[a:b]]
        # a term's weight deg(left) / t or -deg(right) / t = (deg(left) - t) / t
        # depends on its left operand alone
        weights = (np.stack([degree, degree - t]) / t).astype(np.complex128)
        steps.append(_read_only(
            left[inner[a:b]], position[right[inner[a:b]]],
            np.flatnonzero(np.diff(terms, prepend=-1)), weights,
        ) + (lo, hi))
    starts = np.flatnonzero(np.diff(target, prepend=-1))
    return _read_only(left, right, starts, by_degree, position) + (tuple(steps),)


def product_terms(n: int, bidegree: tuple[int, int]) -> int:
    """Terms of one product of two jets in n variables per side: per side of
    degree d, the pairs of monomials whose degrees sum to at most d, which
    are the C(2n + d, d) monomials in 2n variables."""
    dz, dw = bidegree
    return math.comb(2 * n + dz, dz) * math.comb(2 * n + dw, dw)


#: The two gather buffers of the innermost :func:`scratch`, as the rows of
#: one (2, size) array; None outside one.
_scratch: ContextVar[np.ndarray | None] = ContextVar("_scratch", default=None)


@contextmanager
def scratch(nbytes: int):
    """Within it, products gather into two buffers of ``nbytes`` each, taken
    as one block: an oracle that runs many chunks maps their pages once,
    instead of once per product, and releases them at its end. Like
    ``np.errstate``, it holds for the current context only."""
    token = _scratch.set(np.empty(2 * (nbytes // 16), np.complex128).reshape(2, -1))
    try:
        yield
    finally:
        _scratch.reset(token)


def _gathered(source: np.ndarray, index: np.ndarray, slot: int) -> np.ndarray:
    """source[..., index], complex: in scratch buffer ``slot`` (0 or 1) when
    it fits, where a result is valid until the next gather into its slot,
    else in a new array. ``mode="clip"`` keeps ``np.take`` from buffering
    its output (every index is valid)."""
    buffers = _scratch.get()
    shape = source.shape[:-1] + index.shape
    size = math.prod(shape)
    if buffers is None or buffers.shape[1] < size:
        return source.take(index, axis=-1)
    return source.take(index, axis=-1, out=buffers[slot, :size].reshape(shape), mode="clip")


def mul(x: np.ndarray, y: np.ndarray, bidegree: tuple[int, int]) -> np.ndarray:
    """The product of two jets, truncated to ``bidegree``; leading axes
    broadcast. Its terms are gathered into one buffer and multiplied in
    place."""
    az, aw = x.shape[-2:]
    left, right, starts = _product_plan(_variables(az, bidegree[0]), bidegree)[:3]
    flat_x = x.reshape(x.shape[:-2] + (az * aw,))
    flat_y = y.reshape(y.shape[:-2] + (az * aw,))
    lead = np.broadcast_shapes(flat_x.shape[:-1], flat_y.shape[:-1])
    terms = _gathered(np.broadcast_to(flat_x, lead + (az * aw,)), left, 0)
    terms *= _gathered(flat_y, right, 1)
    out = np.add.reduceat(terms, starts, axis=-1)
    return out.reshape(out.shape[:-1] + (az, aw))


def shifted(x: np.ndarray, constant) -> np.ndarray:
    """x plus a constant (one value, or one per jet)."""
    out = x.copy()
    out[..., 0, 0] += constant
    return out


def _recurrence(u: np.ndarray, bidegree: tuple[int, int], kind: int) -> np.ndarray:
    """The nilpotent jet y with y_t = u_t + sum w u[left] y[right] over the
    terms of target degree t >= 2, of a nilpotent jet u: the weights of
    ``kind`` 0 give exp(u) - 1, of ``kind`` 1 log(1 + u). A new array."""
    az, aw = u.shape[-2:]
    by_degree, position, steps = _product_plan(_variables(az, bidegree[0]), bidegree)[3:]
    flat = u.reshape(u.shape[:-2] + (az * aw,))
    out = flat.take(by_degree, axis=-1)
    for left, right, starts, weights, lo, hi in steps:
        products = _gathered(flat * weights[kind], left, 0)
        products *= _gathered(out, right, 1)
        out[..., lo:hi] += np.add.reduceat(products, starts, axis=-1)
    return out.take(position, axis=-1).reshape(u.shape)


def _row_map(f, values: np.ndarray) -> np.ndarray:
    return np.array([f(v) for v in values.ravel().tolist()]).reshape(values.shape)


def log(x: np.ndarray, bidegree: tuple[int, int]) -> np.ndarray:
    """log(x0 + N) = log x0 + log(1 + N / x0), with ``cmath.log`` of x0:
    L_t = u_t - (1/t) sum_(s<t) s L_s u_(t-s) for L = log(1 + u)."""
    x0 = x[..., 0, 0]
    out = _recurrence(shifted(x, -x0) / x0[..., None, None], bidegree, 1)
    out[..., 0, 0] += _row_map(cmath.log, x0)
    return out


def exp(x: np.ndarray, bidegree: tuple[int, int]) -> np.ndarray:
    """exp(x0 + N) = exp(x0) y, y = exp(N): y_t = (1/t) sum_(s=1..t) s N_s y_(t-s)."""
    x0 = x[..., 0, 0]
    y = _recurrence(shifted(x, -x0), bidegree, 0)
    y[..., 0, 0] += 1.0
    return _row_map(cmath.exp, x0)[..., None, None] * y


def log_det(y: np.ndarray, bidegree: tuple[int, int]) -> np.ndarray:
    """log det Y of a (P, m, m) matrix of jets: sum_k log p_k over the pivots
    p_k of its LU factorization without pivoting, with reciprocals
    exp(-log p). No pivot vanishes where Y0 is Hermitian positive definite
    (every leading minor invertible); m = 1 is :func:`log`."""
    log_pivot = log(y[:, 0, 0], bidegree)
    if y.shape[1] == 1:
        return log_pivot
    ratio = mul(y[:, 1:, 0], exp(-log_pivot, bidegree)[:, None], bidegree)
    schur = y[:, 1:, 1:] - mul(ratio[:, :, None], y[:, None, 0, 1:], bidegree)
    return log_pivot + log_det(schur, bidegree)


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
    left, right, target, degree = _side_pairs(n, 2)
    index = target[(degree[left] == 1) & (degree[right] == 1)].reshape(n, n)
    return _read_only(index, 1.0 + np.eye(n))


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
