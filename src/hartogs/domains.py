"""Catalog of base domains and their composition into Hartogs domains.

A base domain D is a finite product of factors, each carrying a positive
defining function phi_i; the product potential is phi = prod phi_i. The
Hartogs domain over D with d0-dimensional fibers is

    { (z0, z) : ||z0||^2 < phi(z) },

with Kahler potential -h * log(phi(z) - ||z0||^2).

Supported factor shapes:

* ``ball``           phi = (1 - ||z||^2)^mu on the unit ball, genus d + 1
* ``polydisc``       product of discs, phi_i = (1 - |z_i|^2)^mu_i, genus 2
* ``cartan_type_I``  phi = det(I - z z*)^mu on m x n matrices, genus m + n
* ``fock``           phi = exp(-mu ||z||^2) on all of C^d (unbounded, flat)

Each exponent mu_i is held as an exact rational, and every factor constant
is derived from it, not free: each factor's metric (from -log phi_i) is
Einstein with constant c_i = -genus_i/mu_i (0 for ``fock``), and the
curvature verdicts are decided on these rationals.

A sample of points is an (N, n) complex128 stack, one point (z0, z) per
row, fiber coordinates first; ``coordinate_stack`` checks one wherever it
enters the package, and ``sample_points`` draws one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import BoundaryViolationError, CapabilityError

#: Smallest admissible interior margin phi - ||z0||^2 for point evaluations.
MIN_INTERIOR_MARGIN = 1e-8


class DomainKind(str, Enum):
    BALL = "ball"
    POLYDISC = "polydisc"
    CARTAN_TYPE_I = "cartan_type_I"
    FOCK = "fock"


def _is_positive_double(x) -> bool:
    """Whether x, a float or an exact number, has a positive finite double."""
    try:
        return 0 < float(x) < math.inf
    except OverflowError:  # an exact number past the double range
        return False


def _exact(x: float) -> Fraction:
    """x as its short fraction where that reproduces it (0.1 is 1/10), else
    exactly: every finite float is a dyadic rational."""
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    short = Fraction(float(x)).limit_denominator(10**6)
    return short if float(short) == float(x) else Fraction(x)


@dataclass(frozen=True)
class BaseDomainSpec:
    """A base domain D: its factors' kind, dimensions and exponents.

    ``dims`` lists per-factor complex dimensions. For ``cartan_type_I`` the
    matrix shape (m, n) is carried separately and dims holds (m * n,).
    ``exponents`` holds each mu_i exactly, as a Fraction; a float given
    here is read by :func:`_exact`. Every factor constant is derived from
    (kind, dims, shape, exponents), none is a free parameter, and the
    numerics read the float view ``float_exponents``.
    """

    kind: DomainKind
    dims: tuple[int, ...]
    exponents: tuple[Fraction, ...]
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        kind = DomainKind(self.kind)
        object.__setattr__(self, "kind", kind)
        dims = tuple(int(d) for d in self.dims)
        exps = tuple(self.exponents)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive integers")
        if len(exps) != len(dims):
            raise ValueError("need one exponent per factor")
        if not all(map(_is_positive_double, exps)):
            raise ValueError("exponents must be positive and finite")
        object.__setattr__(self, "exponents", tuple(map(_exact, exps)))
        if kind is DomainKind.POLYDISC:
            if any(d != 1 for d in dims):
                raise ValueError("polydisc factors are one-dimensional discs")
        elif len(dims) != 1:
            raise ValueError(f"{kind.value} takes a single factor")
        if kind is DomainKind.CARTAN_TYPE_I:
            if self.shape is None:
                raise ValueError("cartan_type_I needs a matrix shape (m, n)")
            m, n = self.shape
            object.__setattr__(self, "shape", (int(m), int(n)))
            if m < 1 or n < 1:
                raise ValueError("matrix shape entries must be positive")
            if m > n:
                raise ValueError("matrix shape expects m <= n")
            if dims[0] != m * n:
                raise ValueError("dims must equal m * n for cartan_type_I")
        elif self.shape is not None:
            raise ValueError("shape is only meaningful for cartan_type_I")
        try:  # the closed forms compute with every constant as a double
            for constant in (
                *self.einstein_constants, *self.lambdas, self.tau, *self.determinant_constants
            ):
                float(constant)
        except OverflowError:
            raise ValueError("exponents put a factor constant past the double range") from None

    # -- constructors -------------------------------------------------------

    @classmethod
    def ball(cls, dim: int, mu) -> "BaseDomainSpec":
        return cls(DomainKind.BALL, (dim,), (mu,))

    @classmethod
    def disc(cls, mu) -> "BaseDomainSpec":
        return cls(DomainKind.BALL, (1,), (mu,))

    @classmethod
    def polydisc(cls, mus) -> "BaseDomainSpec":
        mus = tuple(mus)
        return cls(DomainKind.POLYDISC, (1,) * len(mus), mus)

    @classmethod
    def cartan_type_i(cls, m: int, n: int, mu) -> "BaseDomainSpec":
        return cls(DomainKind.CARTAN_TYPE_I, (m * n,), (mu,), shape=(m, n))

    @classmethod
    def fock(cls, dim: int, mu) -> "BaseDomainSpec":
        return cls(DomainKind.FOCK, (dim,), (mu,))

    # -- derived metadata ----------------------------------------------------

    @property
    def dim(self) -> int:
        return sum(self.dims)

    @property
    def factor_count(self) -> int:
        return len(self.dims)

    @property
    def bounded(self) -> bool:
        return self.kind is not DomainKind.FOCK

    @cached_property
    def float_exponents(self) -> tuple[float, ...]:
        """The exponents as the floats the kernels and tables compute with."""
        return tuple(map(float, self.exponents))

    @cached_property
    def genus(self) -> tuple[int | None, ...]:
        """Per-factor genus; None for the flat (fock) factor."""
        if self.kind is DomainKind.BALL:
            return (self.dims[0] + 1,)
        if self.kind is DomainKind.POLYDISC:
            return (2,) * self.factor_count
        if self.kind is DomainKind.CARTAN_TYPE_I:
            m, n = self.shape
            return (m + n,)
        return (None,)

    @cached_property
    def einstein_constants(self) -> tuple[Fraction, ...]:
        """Per-factor Ricci constants c_i = -genus_i/mu_i of the base
        metrics (0 for fock), exactly."""
        return tuple(
            Fraction(0) if g is None else -g / mu
            for g, mu in zip(self.genus, self.exponents)
        )

    @cached_property
    def lambdas(self) -> tuple[Fraction, ...]:
        """lambda_i = d + 1 + c_i, the weight of the factor metric g^(D_i)
        in the Hartogs Ricci tensor; Einstein iff every one is 0."""
        return tuple(self.dim + 1 + c for c in self.einstein_constants)

    @cached_property
    def determinant_constants(self) -> tuple[Fraction, ...]:
        """det g^(D_i) * phi_i^(-c_i), constant for every catalog kind: its
        value at the origin, where phi_i = 1 and the factor Hessian is
        mu_i I, is mu_i^(d_i)."""
        return tuple(mu**d for d, mu in zip(self.dims, self.exponents))

    @cached_property
    def tau(self) -> Fraction:
        """tau = d(d+1) + sum c_i d_i in exact rational arithmetic."""
        d = self.dim
        return d * (d + 1) + sum(c * di for c, di in zip(self.einstein_constants, self.dims))

    @cached_property
    def factor_slices(self) -> tuple[slice, ...]:
        offsets = np.cumsum((0,) + self.dims)
        return tuple(slice(int(a), int(b)) for a, b in zip(offsets, offsets[1:]))


def tau_exact(base: BaseDomainSpec) -> Fraction:
    """tau = d(d+1) + sum c_i d_i in exact rational arithmetic."""
    return base.tau


@dataclass(frozen=True)
class HartogsSpec:
    """Hartogs domain over a base: fiber dimension d0 and metric scale h.

    The scale enters only the diastasis / immersion machinery; curvature
    formulas are stated for the unscaled potential (h = 1). The scale is
    held exactly: a float is read by :func:`_exact`.
    """

    base: BaseDomainSpec
    fiber_dim: int
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension must be at least 1")
        if not _is_positive_double(self.scale):
            raise ValueError("metric scale must be positive and finite")
        object.__setattr__(self, "scale", _exact(self.scale))

    @property
    def total_dim(self) -> int:
        return self.base.dim + self.fiber_dim


def coordinate_stack(spec: HartogsSpec, points) -> np.ndarray:
    """A sample as an (N, n) complex128 stack, one point (z0, z) per row,
    fiber coordinates first and base coordinates flattened.

    The entry check of every public evaluation: raises ``ValueError`` unless
    the sample is two-dimensional, n = d0 + d wide and finite.
    """
    coords = np.asarray(points, dtype=np.complex128)
    if coords.ndim != 2 or coords.shape[1] != spec.total_dim:
        raise ValueError(
            f"expected an (N, {spec.total_dim}) stack of points with "
            f"{spec.fiber_dim} fiber and {spec.base.dim} base coordinates per row, "
            f"got shape {coords.shape}"
        )
    if not np.isfinite(coords).all():
        raise ValueError("point coordinates must be finite")
    return coords


# ---------------------------------------------------------------------------
# Stack kernels
# ---------------------------------------------------------------------------
#
# Evaluations run over (N, k) stacks, one point per row. A row gives the same
# floats as the one-row stack of that point, because squared norms are
# stacked matmuls on C-contiguous rows (bit for bit np.vdot) and powers and
# exponentials run on Python floats (libm) row by row.


def squared_norms(z) -> np.ndarray:
    """||z_r||^2 for every row z_r of an (N, k) complex stack."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return (np.conj(z)[:, None, :] @ z[:, :, None])[:, 0, 0].real


def row_power(values: np.ndarray, exponent) -> np.ndarray:
    """values ** exponent entry by entry, in Python (libm) floating point.
    The exponents 0 and 1 skip the loop: x**0 is 1 and x**1 is x exactly."""
    if exponent == 0:
        return np.ones(len(values))
    if exponent == 1:
        return np.array(values, dtype=float)
    return np.fromiter(map(pow, values.tolist(), repeat(exponent)), float, len(values))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, :, None] * b[:, None, :]


def _reject(margins: np.ndarray, bad: np.ndarray, message: str) -> np.ndarray:
    """The margins, unless a row is bad: then the first one raises."""
    if np.count_nonzero(bad):
        worst = float(margins[bad.argmax()])
        raise BoundaryViolationError(message.format(worst), margin=worst)
    return margins


def require_interior(margins: np.ndarray) -> np.ndarray:
    """The margins phi - ||z0||^2, after checking every row is interior."""
    bad = margins < MIN_INTERIOR_MARGIN
    return _reject(margins, bad, "point is not interior (margin {:.3e})")


_OUTSIDE = "base point lies outside the domain (factor margin {:.3e})"

# A kernel maps an (N, k) C-contiguous stack of factor coordinates to phi_i
# per row and, with ``derivatives``, the gradient (N, k) and mixed Hessian
# (N, k, k) of u_i = -log phi_i.


def _ball_kernel(z, mu, shape, derivatives):
    # phi_i = (1 - ||z||^2)^mu
    s = 1.0 - squared_norms(z)
    _reject(s, s <= 0.0, _OUTSIDE)
    value = row_power(s, mu)
    if not derivatives:
        return value, None, None
    grad = mu * np.conj(z) / s[:, None]
    outer = _outer(np.conj(z), z) / row_power(s, 2)[:, None, None]
    hess = mu * (np.eye(z.shape[1]) / s[:, None, None] + outer)
    return value, grad, hess


def _cartan_kernel(z, mu, shape, derivatives):
    # phi_i = det(I - Z Z*)^mu for the m x n matrix Z of each row
    m, n = shape
    zmat = z.reshape(-1, m, n)
    zstar = np.conj(zmat).swapaxes(-1, -2)
    y = np.eye(m) - zmat @ zstar
    margin = np.linalg.eigvalsh(y)[:, 0]
    _reject(margin, margin <= 0.0, _OUTSIDE)
    value = row_power(np.linalg.det(y).real, mu)
    if not derivatives:
        return value, None, None
    yinv = np.linalg.inv(y)
    xinv = np.linalg.inv(np.eye(n) - zstar @ zmat)
    # (a, beta) flat row-major: grad[(a, beta)] = mu * (Z* Y^-1)[beta, a]
    grad = mu * (zstar @ yinv).swapaxes(-1, -2).reshape(len(z), m * n)
    # mu * kron(Y^-T, X^-1) per row
    kron = yinv.swapaxes(-1, -2)[:, :, None, :, None] * xinv[:, None, :, None, :]
    return value, grad, mu * kron.reshape(len(z), m * n, m * n)


def _fock_kernel(z, mu, shape, derivatives):
    # phi_i = exp(-mu ||z||^2) on all of C^k
    value = np.array([math.exp(v) for v in (-mu * squared_norms(z)).tolist()])
    if not derivatives:
        return value, None, None
    k = z.shape[1]
    hess = np.broadcast_to(mu * np.eye(k, dtype=np.complex128), (len(z), k, k))
    return value, mu * np.conj(z), hess


_KERNELS = {
    DomainKind.BALL: _ball_kernel,
    DomainKind.POLYDISC: _ball_kernel,
    DomainKind.CARTAN_TYPE_I: _cartan_kernel,
    DomainKind.FOCK: _fock_kernel,
}


def _factor_stacks(base: BaseDomainSpec, z, derivatives: bool) -> list[tuple]:
    """(phi_i, grad u_i, ddbar u_i) per factor over an (N, d) stack of base points."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 2 or z.shape[1] != base.dim:
        raise ValueError(f"expected base vectors of length {base.dim}")
    kernel = _KERNELS[base.kind]
    return [
        kernel(np.ascontiguousarray(z[:, sl]), mu, base.shape, derivatives)
        for sl, mu in zip(base.factor_slices, base.float_exponents)
    ]


def phi_stack(base: BaseDomainSpec, z) -> np.ndarray:
    """phi = prod phi_i per row of an (N, d) stack; errors outside the domain."""
    value = 1.0
    for factor_value, _, _ in _factor_stacks(base, z, derivatives=False):
        value = value * factor_value
    return value


def phi_derivatives_stack(base: BaseDomainSpec, z):
    """phi, its holomorphic gradient and mixed Hessian per row of a stack,
    with the per-factor (phi_i, ddbar u_i) they are assembled from.

    For u = -log phi: with phi = exp(-U),

        d phi = -phi dU,    ddbar phi = phi (dU odot conj(dU) - ddbar U).
    """
    rows, d = len(z), base.dim
    value = 1.0
    u_grad = np.zeros((rows, d), dtype=np.complex128)
    u_hess = np.zeros((rows, d, d), dtype=np.complex128)
    factors = _factor_stacks(base, z, derivatives=True)
    for sl, (factor_value, g, h) in zip(base.factor_slices, factors):
        value = value * factor_value
        u_grad[:, sl] = g
        u_hess[:, sl, sl] = h
    grad = -value[:, None] * u_grad
    hess = value[:, None, None] * (_outer(u_grad, np.conj(u_grad)) - u_hess)
    return value, grad, hess, [(v, h) for v, _, h in factors]


def interior_margins(spec: HartogsSpec, coords: np.ndarray) -> np.ndarray:
    """phi(z) - ||z0||^2 per row of a checked (N, n) stack; a row that is not
    interior raises."""
    d0 = spec.fiber_dim
    return require_interior(phi_stack(spec.base, coords[:, d0:]) - squared_norms(coords[:, :d0]))


def hartogs_potential(spec: HartogsSpec, points) -> np.ndarray:
    """-h log(phi(z) - ||z0||^2) per row of an (N, n) stack of points; tends
    to +inf as the margin vanishes, and a row that is not interior raises."""
    margins = interior_margins(spec, coordinate_stack(spec, points))
    return -float(spec.scale) * np.array([math.log(m) for m in margins.tolist()])


# ---------------------------------------------------------------------------
# Interior sampling
# ---------------------------------------------------------------------------


#: Candidates one sample may draw before the sampler gives up.
_MAX_TRIES = 200_000

#: Largest squared radius of the ball a bounded factor is drawn in, and
#: largest half-width of the box of a fock factor; they keep derivative
#: magnitudes moderate.
_RADIUS_CAP = 0.7
_BOX_CAP = 0.8

#: A factor of exponent mu is drawn where mu times its log-norm stays above
#: -40: the ball of squared radius 1 - exp(-40 / mu), on which
#: (1 - |z|^2)^mu >= e^-40, and the box of half-width sqrt(40 / mu). The
#: admissible region shrinks like 1 / mu, so draws at large exponents still
#: land in it; for every mu <= 33 the caps above bind and draws are unchanged.
_DRAW_DEPTH = 40.0


def _ball_draw(rng: np.random.Generator, rows: int, dim: int, squared_radius) -> np.ndarray:
    """rows points, uniform in the balls of C^dim with the given squared radii
    (one value, or one per row): a Gaussian direction times a radius with
    ||z||^2 = r^2 U^(1/dim)."""
    g = rng.standard_normal((rows, 2 * dim))
    z = g[:, :dim] + 1j * g[:, dim:]
    scale = squared_radius * rng.random(rows) ** (1.0 / dim) / squared_norms(z)
    return z * np.sqrt(scale)[:, None]


def sample_points(
    spec: HartogsSpec,
    count: int,
    seed: int,
    margin_frac: float = 0.05,
    min_margin: float = MIN_INTERIOR_MARGIN,
) -> np.ndarray:
    """Seeded interior points, as a (count, n) stack.

    Candidates are drawn in batches of 64, 128, 256, ... A candidate base
    point draws each bounded factor of exponent mu uniformly in the ball of
    squared radius min(0.7, 1 - exp(-40 / mu)) (a fock factor uniformly in
    the box [-w, w]^(2 d), w = min(0.8, sqrt(40 / mu))) and is kept when
    ``phi * (1 - margin_frac)`` exceeds ``min_margin``. Its fiber is
    drawn uniformly in the ball of squared radius phi - floor, with floor =
    max(margin_frac * phi, min_margin), so the membership margin
    phi - ||z0||^2 is at least floor (a row that misses it by rounding is
    dropped). Batch sizes do not depend on ``count``, so a sample is the
    first rows of any larger sample at the same seed and margins.

    Every candidate counts against a budget of 200,000 tries; running out,
    or asking for more points than that, raises :class:`CapabilityError`.
    """
    if count > _MAX_TRIES:
        raise CapabilityError(
            f"interior sampling cannot find {count} points within its "
            f"draw budget of {_MAX_TRIES} tries"
        )
    base = spec.base
    if base.bounded:
        radii = [min(_RADIUS_CAP, -math.expm1(-_DRAW_DEPTH / mu)) for mu in base.float_exponents]
    else:  # a single fock factor
        half_width = min(_BOX_CAP, math.sqrt(_DRAW_DEPTH / base.float_exponents[0]))
    rng = np.random.default_rng(seed)
    kept = [np.empty((0, spec.total_dim), dtype=np.complex128)]
    found = tries = 0
    batch = 64
    while found < count:
        rows = min(batch, _MAX_TRIES - tries)
        if rows == 0:
            raise CapabilityError(
                f"interior sampling found {found} of {count} points within "
                f"its draw budget of {_MAX_TRIES} tries"
            )
        tries += rows
        batch *= 2
        if base.bounded:
            factors = [_ball_draw(rng, rows, df, r) for df, r in zip(base.dims, radii)]
            z = np.concatenate(factors, axis=1)
        else:
            u = rng.uniform(-half_width, half_width, (rows, 2 * base.dim))
            z = u[:, : base.dim] + 1j * u[:, base.dim :]
        phi = phi_stack(base, z)
        passes = phi * (1.0 - margin_frac) > min_margin
        z, phi = z[passes], phi[passes]
        floor = np.maximum(margin_frac * phi, min_margin)
        z0 = _ball_draw(rng, len(z), spec.fiber_dim, phi - floor)
        inside = phi - squared_norms(z0) >= floor
        kept.append(np.concatenate([z0, z], axis=1)[inside])
        found += len(kept[-1])
    return np.concatenate(kept)[:count]
