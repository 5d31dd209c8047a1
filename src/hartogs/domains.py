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
from functools import lru_cache

import numpy as np

from .errors import BoundaryViolationError
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

    @property
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
# Per-factor evaluation
# ---------------------------------------------------------------------------


def _split_factors(base: BaseDomainSpec, z: np.ndarray) -> list[np.ndarray]:
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (base.dim,):
        raise ValueError(f"expected a base vector of length {base.dim}")
    return [z[s] for s in base.factor_slices]


def _factor_margin(base: BaseDomainSpec, zf: np.ndarray) -> float:
    """Distance-like interiority measure of a factor point (inf for fock)."""
    if base.kind is DomainKind.FOCK:
        return math.inf
    if base.kind is DomainKind.CARTAN_TYPE_I:
        m, n = base.shape
        zmat = zf.reshape(m, n)
        y = np.eye(m) - zmat @ zmat.conj().T
        return float(np.linalg.eigvalsh(y)[0])
    return 1.0 - float(np.real(np.vdot(zf, zf)))


def _factor_phi(base: BaseDomainSpec, idx: int, zf: np.ndarray) -> float:
    mu = base.exponents[idx]
    if base.kind is DomainKind.FOCK:
        return math.exp(-mu * float(np.real(np.vdot(zf, zf))))
    margin = _factor_margin(base, zf)
    if margin <= 0.0:
        raise BoundaryViolationError(
            f"base point lies outside the domain (factor margin {margin:.3e})",
            margin=margin,
        )
    if base.kind is DomainKind.CARTAN_TYPE_I:
        m, n = base.shape
        zmat = zf.reshape(m, n)
        det = float(np.real(np.linalg.det(np.eye(m) - zmat @ zmat.conj().T)))
        return det**mu
    return margin**mu


def _factor_u_derivatives(base, idx, zf):
    """Value, gradient and mixed Hessian of u = -log phi_i for one factor."""
    mu = base.exponents[idx]
    if base.kind is DomainKind.FOCK:
        t = float(np.real(np.vdot(zf, zf)))
        grad = mu * np.conj(zf)
        hess = mu * np.eye(len(zf), dtype=np.complex128)
        return mu * t, grad, hess
    if base.kind is DomainKind.CARTAN_TYPE_I:
        m, n = base.shape
        zmat = zf.reshape(m, n)
        y = np.eye(m) - zmat @ zmat.conj().T
        x = np.eye(n) - zmat.conj().T @ zmat
        yinv = np.linalg.inv(y)
        xinv = np.linalg.inv(x)
        # (a, beta) flat row-major: grad[(a, beta)] = mu * (z* Y^-1)[beta, a]
        g = zmat.conj().T @ yinv
        grad = mu * g.T.reshape(-1)
        hess = mu * np.kron(yinv.T, xinv)
        value = -mu * math.log(float(np.real(np.linalg.det(y))))
        return value, grad, hess
    # ball / disc factor: u = -mu log(1 - ||z||^2)
    t = float(np.real(np.vdot(zf, zf)))
    s = 1.0 - t
    grad = mu * np.conj(zf) / s
    hess = mu * (np.eye(len(zf)) / s + np.outer(np.conj(zf), zf) / s**2)
    return -mu * math.log(s), grad, hess


# ---------------------------------------------------------------------------
# Public potential API
# ---------------------------------------------------------------------------


def phi(base: BaseDomainSpec, z) -> float:
    """Product potential phi(z) = prod phi_i; errors outside the domain."""
    parts = _split_factors(base, np.asarray(z, dtype=np.complex128))
    out = 1.0
    for idx, zf in enumerate(parts):
        out *= _factor_phi(base, idx, zf)
    return out


def membership_margin(base: BaseDomainSpec, z) -> float:
    parts = _split_factors(base, np.asarray(z, dtype=np.complex128))
    return min(_factor_margin(base, zf) for zf in parts)


def factor_hessians(base: BaseDomainSpec, z) -> list[np.ndarray]:
    """Mixed Hessians of -log phi_i per factor, in factor coordinates."""
    parts = _split_factors(base, np.asarray(z, dtype=np.complex128))
    out = []
    for idx, zf in enumerate(parts):
        _factor_phi(base, idx, zf)  # membership check
        out.append(_factor_u_derivatives(base, idx, zf)[2])
    return out


def base_hessian_closed(base: BaseDomainSpec, z) -> HermitianMatrix:
    """Closed-form d x d mixed Hessian of -log phi, block diagonal by factor."""
    d = base.dim
    hess = np.zeros((d, d), dtype=np.complex128)
    for s, block in zip(base.factor_slices, factor_hessians(base, z)):
        hess[s, s] = block
    return HermitianMatrix(hess, atol=1e-10 * (1.0 + float(np.max(np.abs(hess)))))


def minus_log_phi_gradient(base: BaseDomainSpec, z) -> np.ndarray:
    parts = _split_factors(base, np.asarray(z, dtype=np.complex128))
    grads = []
    for idx, zf in enumerate(parts):
        _factor_phi(base, idx, zf)
        grads.append(_factor_u_derivatives(base, idx, zf)[1])
    return np.concatenate(grads)


def phi_with_derivatives(base: BaseDomainSpec, z):
    """phi, its holomorphic gradient and mixed Hessian at z.

    Assembled from the factor data for u = -log phi: with phi = exp(-U),

        d phi = -phi dU,    ddbar phi = phi (dU odot conj(dU) - ddbar U).
    """
    z = np.asarray(z, dtype=np.complex128)
    parts = _split_factors(base, z)
    d = base.dim
    value = 1.0
    u_grad = np.zeros(d, dtype=np.complex128)
    u_hess = np.zeros((d, d), dtype=np.complex128)
    for idx, (zf, sl) in enumerate(zip(parts, base.factor_slices)):
        value *= _factor_phi(base, idx, zf)
        _, g, h = _factor_u_derivatives(base, idx, zf)
        u_grad[sl] = g
        u_hess[sl, sl] = h
    grad = -value * u_grad
    hess = value * (np.outer(u_grad, np.conj(u_grad)) - u_hess)
    return value, grad, hess


def interior_margin(spec: HartogsSpec, p: EvaluationPoint) -> float:
    """Membership margin phi(z) - ||z0||^2 of a Hartogs point."""
    r2 = float(np.real(np.vdot(p.fiber, p.fiber)))
    if len(p.fiber) != spec.fiber_dim:
        raise ValueError(f"expected a fiber vector of length {spec.fiber_dim}")
    return phi(spec.base, p.base) - r2


def hartogs_potential(spec: HartogsSpec, p: EvaluationPoint) -> float:
    """-h log(phi(z) - ||z0||^2); tends to +inf as the margin vanishes."""
    margin = interior_margin(spec, p)
    if margin < MIN_INTERIOR_MARGIN:
        raise BoundaryViolationError(
            f"point is not interior (margin {margin:.3e})", margin=margin
        )
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

    Base factors are drawn uniformly in a bounding box and kept when their
    squared norm stays below ``radius_cap`` (bounded kinds), which keeps
    derivative magnitudes moderate; fibers are drawn in a box of half-width
    sqrt(phi) and kept when the membership margin phi - ||z0||^2 is at least
    ``margin_frac * phi`` and ``min_margin``.
    """
    rng = np.random.default_rng(seed)
    base = spec.base
    pts: list[EvaluationPoint] = []
    tries = 0

    def draw_factor(df: int) -> np.ndarray:
        nonlocal tries
        while True:
            tries += 1
            if tries > max_tries:
                raise RuntimeError("interior sampling failed to converge")
            if base.kind is DomainKind.FOCK:
                u = rng.uniform(-0.8, 0.8, size=2 * df)
                return u[:df] + 1j * u[df:]
            u = rng.uniform(-0.9, 0.9, size=2 * df)
            zf = u[:df] + 1j * u[df:]
            if float(np.real(np.vdot(zf, zf))) <= radius_cap:
                return zf

    while len(pts) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("interior sampling failed to converge")
        z = np.concatenate([draw_factor(df) for df in base.dims])
        phi_val = phi(base, z)
        if phi_val * (1.0 - margin_frac) <= min_margin:
            continue
        half = math.sqrt(phi_val)
        u = rng.uniform(-half, half, size=2 * spec.fiber_dim)
        z0 = u[: spec.fiber_dim] + 1j * u[spec.fiber_dim :]
        margin = phi_val - float(np.real(np.vdot(z0, z0)))
        if margin >= max(margin_frac * phi_val, min_margin):
            pts.append(EvaluationPoint(z0, z))
    return pts
