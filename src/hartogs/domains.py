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

Genus and curvature constants are derived, not free: each factor's metric
(from -log phi_i) is Einstein with constant -genus/mu (0 for ``fock``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import BoundaryViolationError, CapabilityError
from .hermitian import HermitianMatrix

#: Smallest admissible interior margin phi - ||z0||^2 for point evaluations.
MIN_INTERIOR_MARGIN = 1e-8


class DomainKind(str, Enum):
    BALL = "ball"
    POLYDISC = "polydisc"
    CARTAN_TYPE_I = "cartan_type_I"
    FOCK = "fock"


def _as_fraction(x) -> Fraction | None:
    """Exact rational form of x, or None when no small rational reproduces it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    frac = Fraction(float(x)).limit_denominator(10**6)
    return frac if float(frac) == float(x) else None


def _exact(x: float) -> Fraction:
    """x as its short fraction where that reproduces it (0.1 is 1/10), else exactly."""
    return _as_fraction(x) or Fraction(x)


@dataclass(frozen=True)
class BaseDomainSpec:
    """A base domain D with its defining potential metadata.

    ``dims`` lists per-factor complex dimensions. For ``cartan_type_I`` the
    matrix shape (m, n) is carried separately and dims holds (m * n,).
    Overrides for genus / Einstein constants are accepted but warned about
    when inconsistent with the derived values -genus/mu.
    """

    kind: DomainKind
    dims: tuple[int, ...]
    exponents: tuple[float, ...]
    shape: tuple[int, int] | None = None
    genus_override: tuple[float, ...] | None = None
    einstein_override: tuple[float, ...] | None = None

    def __post_init__(self):
        kind = DomainKind(self.kind)
        object.__setattr__(self, "kind", kind)
        dims = tuple(int(d) for d in self.dims)
        exps = tuple(float(m) for m in self.exponents)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "exponents", exps)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive integers")
        if len(exps) != len(dims):
            raise ValueError("need one exponent per factor")
        if not all(m > 0 and math.isfinite(m) for m in exps):
            raise ValueError("exponents must be positive and finite")
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
        for name, override in (
            ("genus", self.genus_override),
            ("einstein constant", self.einstein_override),
        ):
            if override is None:
                continue
            override = tuple(float(v) for v in override)
            object.__setattr__(
                self,
                "genus_override" if name == "genus" else "einstein_override",
                override,
            )
            if len(override) != len(dims):
                raise ValueError(f"need one {name} override per factor")
            if not all(math.isfinite(v) for v in override):
                raise ValueError(f"{name} overrides must be finite")
        self._warn_on_inconsistent_overrides()

    def _warn_on_inconsistent_overrides(self):
        derived_genus = self._derived_genus()
        if self.genus_override is not None:
            for got, want in zip(self.genus_override, derived_genus):
                if want is not None and not math.isclose(got, want, rel_tol=1e-12):
                    warnings.warn(
                        f"genus override {got} differs from derived value {want}",
                        stacklevel=3,
                    )
        if self.einstein_override is not None:
            for got, want in zip(self.einstein_override, self._derived_einstein()):
                if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15):
                    warnings.warn(
                        f"einstein constant override {got} differs from "
                        f"derived value -genus/mu = {want}",
                        stacklevel=3,
                    )

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

    def _derived_genus(self) -> tuple:
        if self.kind is DomainKind.BALL:
            return (self.dims[0] + 1,)
        if self.kind is DomainKind.POLYDISC:
            return (2,) * self.factor_count
        if self.kind is DomainKind.CARTAN_TYPE_I:
            m, n = self.shape
            return (m + n,)
        return (None,)

    def _derived_einstein(self) -> tuple[float, ...]:
        if self.kind is DomainKind.FOCK:
            return (0.0,)
        return tuple(
            -g / mu for g, mu in zip(self._derived_genus(), self.exponents)
        )

    @property
    def genus(self) -> tuple:
        """Per-factor genus; None for the flat (fock) factor."""
        if self.genus_override is not None:
            return self.genus_override
        return self._derived_genus()

    @property
    def einstein_constants(self) -> tuple[float, ...]:
        """Per-factor Ricci constants of the base metrics, -genus/mu."""
        if self.einstein_override is not None:
            return self.einstein_override
        return self._derived_einstein()

    @property
    def einstein_constants_exact(self) -> tuple:
        """Exact rational Ricci constants where the exponents are rational."""
        if self.einstein_override is not None:
            return tuple(_as_fraction(c) for c in self.einstein_override)
        if self.kind is DomainKind.FOCK:
            return (Fraction(0),)
        out = []
        for g, mu in zip(self._derived_genus(), self.exponents):
            mu_frac = _as_fraction(mu)
            out.append(None if mu_frac is None else Fraction(-g) / mu_frac)
        return tuple(out)

    @cached_property
    def factor_slices(self) -> tuple[slice, ...]:
        offsets = np.cumsum((0,) + self.dims)
        return tuple(slice(int(a), int(b)) for a, b in zip(offsets, offsets[1:]))


@dataclass(frozen=True)
class HartogsSpec:
    """Hartogs domain over a base: fiber dimension d0 and metric scale h.

    The scale enters only the diastasis / immersion machinery; curvature
    formulas are stated for the unscaled potential (h = 1).
    """

    base: BaseDomainSpec
    fiber_dim: int
    scale: float = 1.0

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension must be at least 1")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("metric scale must be positive and finite")

    @property
    def total_dim(self) -> int:
        return self.base.dim + self.fiber_dim


@dataclass(frozen=True, eq=False)
class EvaluationPoint:
    """A point (z0, z) of the Hartogs domain; base coords are flattened."""

    fiber: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        for name in ("fiber", "base"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.complex128))
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([self.fiber, self.base])


def point(fiber, base) -> EvaluationPoint:
    return EvaluationPoint(np.asarray(fiber), np.asarray(base))


def point_from_coords(spec: HartogsSpec, coords) -> EvaluationPoint:
    coords = np.asarray(coords, dtype=np.complex128)
    d0 = spec.fiber_dim
    return EvaluationPoint(coords[:d0], coords[d0:])


# ---------------------------------------------------------------------------
# Stack kernels
# ---------------------------------------------------------------------------
#
# Evaluations run over (N, k) stacks, one point per row; a single point is
# the N = 1 case. A row gives the same floats as the point alone, because
# squared norms are stacked matmuls on C-contiguous rows (bit for bit
# np.vdot) and powers and exponentials run on Python floats (libm) row by row.


def squared_norms(z) -> np.ndarray:
    """||z_r||^2 for every row z_r of an (N, k) complex stack."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return (np.conj(z)[:, None, :] @ z[:, :, None])[:, 0, 0].real


def row_power(values: np.ndarray, exponent) -> np.ndarray:
    """values ** exponent entry by entry, in Python (libm) floating point."""
    return np.array([v**exponent for v in values.tolist()])


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
        for sl, mu in zip(base.factor_slices, base.exponents)
    ]


def _one_row(z) -> np.ndarray:
    return np.asarray(z, dtype=np.complex128)[None]


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


# ---------------------------------------------------------------------------
# Public potential API (single points)
# ---------------------------------------------------------------------------


def phi(base: BaseDomainSpec, z) -> float:
    """Product potential phi(z) = prod phi_i; errors outside the domain."""
    return float(phi_stack(base, _one_row(z))[0])


def factor_hessians(base: BaseDomainSpec, z) -> list[np.ndarray]:
    """Mixed Hessians of -log phi_i per factor, in factor coordinates."""
    return [h[0] for _, _, h in _factor_stacks(base, _one_row(z), True)]


def base_hessian_closed(base: BaseDomainSpec, z) -> HermitianMatrix:
    """Closed-form d x d mixed Hessian of -log phi, block diagonal by factor."""
    d = base.dim
    hess = np.zeros((d, d), dtype=np.complex128)
    for s, block in zip(base.factor_slices, factor_hessians(base, z)):
        hess[s, s] = block
    return HermitianMatrix(hess, atol=1e-10 * (1.0 + float(np.max(np.abs(hess)))))


def phi_with_derivatives(base: BaseDomainSpec, z):
    """phi, its holomorphic gradient and mixed Hessian at z."""
    value, grad, hess, _ = phi_derivatives_stack(base, _one_row(z))
    return float(value[0]), grad[0], hess[0]


def interior_margin(spec: HartogsSpec, p: EvaluationPoint) -> float:
    """Membership margin phi(z) - ||z0||^2 of a Hartogs point."""
    if len(p.fiber) != spec.fiber_dim:
        raise ValueError(f"expected a fiber vector of length {spec.fiber_dim}")
    return phi(spec.base, p.base) - float(squared_norms(p.fiber[None, :])[0])


def hartogs_potential(spec: HartogsSpec, p: EvaluationPoint) -> float:
    """-h log(phi(z) - ||z0||^2); tends to +inf as the margin vanishes."""
    margin = require_interior(np.array([interior_margin(spec, p)]))[0]
    return -spec.scale * math.log(margin)


@lru_cache(maxsize=None)
def factor_determinant_constants(base: BaseDomainSpec) -> tuple[float, ...]:
    """Constants det g^(D_i)(0) * phi_i(0)^(-c_i), measured once at the origin.

    For every catalog kind the pluriharmonic correction in
    det g^(D_i) = const * phi_i^(c_i) is a constant, and phi_i(0) = 1, so the
    constant is the origin determinant of the factor Hessian (mu_i^(d_i)).
    """
    origin = np.zeros(base.dim, dtype=np.complex128)
    return tuple(
        float(np.real(np.linalg.det(h))) for h in factor_hessians(base, origin)
    )


# ---------------------------------------------------------------------------
# Interior sampling
# ---------------------------------------------------------------------------


#: Factor draws tested at once by the sampler, as one (K, 2 df) block.
_DRAW_BLOCK = 128


class _UniformStream:
    """The doubles of ``rng.random``, read in stream order through a cursor.

    ``rng.uniform(low, high, k)`` is ``low + (high - low) * u`` for the next
    k doubles u of the stream, so scaling them as :func:`_uniform` does
    reproduces the per-call draws bit for bit.
    """

    def __init__(self, rng: np.random.Generator, size: int = 4096):
        self._rng = rng
        self._size = size
        self._buffer = np.empty(0)
        self._cursor = 0

    def peek(self, k: int) -> np.ndarray:
        """The next k doubles, left unread."""
        if self._cursor + k > len(self._buffer):
            fresh = self._rng.random(max(k, self._size))
            self._buffer = np.concatenate([self._buffer[self._cursor :], fresh])
            self._cursor = 0
        return self._buffer[self._cursor : self._cursor + k]

    def skip(self, k: int) -> None:
        self._cursor += k


def _uniform(low, high, u):
    return low + (high - low) * u


def sample_points(
    spec: HartogsSpec,
    count: int,
    seed: int,
    margin_frac: float = 0.05,
    min_margin: float = MIN_INTERIOR_MARGIN,
    radius_cap: float = 0.7,
    max_tries: int = 200_000,
) -> list[EvaluationPoint]:
    """Seeded rejection sampling of interior points.

    A candidate base point draws each factor uniformly in a bounding box
    until its squared norm stays below ``radius_cap`` (bounded kinds; it
    must lie in (0, 1), so every candidate is inside the base), which keeps
    derivative magnitudes moderate, and is kept when
    ``phi * (1 - margin_frac)`` exceeds ``min_margin``. Its fiber is drawn in
    a box of half-width sqrt(phi) and kept when the membership margin
    phi - ||z0||^2 is at least ``margin_frac * phi`` and ``min_margin``.
    Every candidate and every factor draw counts against ``max_tries``;
    running out raises :class:`CapabilityError`.

    The draws come from one uniform stream, and the factor draws are tested
    ``_DRAW_BLOCK`` at a time. Only the phi test moves the stream between
    candidates (a fiber draw follows a pass), so the candidates of a block
    are laid out predicting the outcome of the last test, and phi and the
    fiber test run once on all of them. The first mispredicted candidate
    ends the block.
    """
    if not 0.0 < radius_cap < 1.0:
        raise ValueError("radius_cap must lie in (0, 1)")
    base = spec.base
    d0, df, factors = spec.fiber_dim, base.dims[0], base.factor_count
    # every factor has df coordinates: bases have one factor or are polydiscs
    half_box, cap = (0.8, math.inf) if base.kind is DomainKind.FOCK else (0.9, radius_cap)
    draw, fiber = 2 * df, 2 * d0  # doubles per factor draw and per fiber draw
    # block rows a fiber draw spans, if the next candidate stays on the rows
    fiber_rows = fiber // draw if fiber % draw == 0 else None
    stream = _UniformStream(np.random.default_rng(seed))
    pts: list[EvaluationPoint] = []
    tries = 0
    opened = 0  # 1 once the try of a candidate still drawing its factors is spent
    carry = np.empty((0, df), dtype=np.complex128)  # its factors drawn so far
    phi_passes = True  # the predicted outcome of the next phi test

    def spend(n: int):
        nonlocal tries
        tries += n
        if tries > max_tries:
            raise CapabilityError(
                f"interior sampling found {len(pts)} of {count} points within "
                f"its draw budget of {max_tries} tries"
            )

    while len(pts) < count:
        window = stream.peek(_DRAW_BLOCK * draw + fiber)
        u = _uniform(-half_box, half_box, window[: _DRAW_BLOCK * draw]).reshape(-1, draw)
        z = u[:, :df] + 1j * u[:, df:]
        inside = (squared_norms(z) <= cap).tolist()
        # (first row, end row) of the factor draws of each complete candidate,
        # the next one starting after the fiber draw of a predicted pass
        gap = fiber_rows if phi_passes else 0
        chain, rows, first, taken, r = [], [], 0, len(carry), 0
        while r < _DRAW_BLOCK:
            if inside[r]:
                rows.append(r)
                taken += 1
                if taken == factors:
                    chain.append((first, r + 1))
                    if gap is None:
                        break
                    first = r = r + 1 + gap
                    taken = 0
                    continue
            r += 1
        if not chain:
            spend(1 - opened + _DRAW_BLOCK)
            stream.skip(_DRAW_BLOCK * draw)
            opened, carry = 1, np.concatenate([carry, z[rows]])
            continue
        candidates = np.concatenate([carry, z[rows[: len(chain) * factors - len(carry)]]])
        candidates = candidates.reshape(len(chain), factors * df)
        phis = phi_stack(base, candidates).tolist()
        passes = [f * (1.0 - margin_frac) > min_margin for f in phis]
        # the layout holds up to the first mispredicted candidate
        held = next((k + 1 for k, p in enumerate(passes) if p != phi_passes), len(chain))
        # the fiber draws, each right after the factor draws of a pass
        fibered = [k for k in range(held) if passes[k]]
        half = np.sqrt([phis[k] for k in fibered])[:, None]
        at = np.array([chain[k][1] * draw for k in fibered], dtype=int)[:, None]
        v = _uniform(-half, half, window[at + np.arange(fiber)])
        z0 = v[:, :d0] + 1j * v[:, d0:]
        fiber_norms = iter(zip(z0, squared_norms(z0).tolist()))
        for k in range(held):
            first, end = chain[k]
            spend(1 - opened + end - first)
            opened = 0
            if not passes[k]:
                continue
            z0_k, norm = next(fiber_norms)
            if phis[k] - norm >= max(margin_frac * phis[k], min_margin):
                pts.append(EvaluationPoint(z0_k, candidates[k]))
                if len(pts) == count:
                    return pts
        phi_passes = passes[held - 1]
        stream.skip(chain[held - 1][1] * draw + (fiber if phi_passes else 0))
        carry = carry[:0]
    return pts
