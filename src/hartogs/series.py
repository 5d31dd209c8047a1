"""Diastasis power-series machinery: multi-index ordering, coefficient blocks
and resolvability verdicts for the three complex space forms.

Around the origin of a circular Hartogs domain, with t = ||z0||^2 and
potential D = -h log(phi(z) - t), the three Calabi expansions split into
univariate-in-t series whose z-parts are powers of phi:

    Euclidean    D           = h [ -log phi + sum_{s>=1} t^s phi^-s / s ]
    Projective   e^D - 1     = sum_s  poch(h, s)/s!       t^s phi^-(h+s) - 1
    Hyperbolic   1 - e^-D    = 1 - sum_s (-1)^s binom(h,s) t^s phi^(h-s)

Circularity kills every coefficient whose fiber degrees or base degrees
disagree, so the infinite coefficient matrix is block diagonal over the pairs
(total degree i, fiber degree s). For the radial catalog bases each block is
itself diagonal in the monomial basis, with closed Pochhammer-product
entries, so a block is stored as its diagonal, in derivative normalization
(Taylor coefficient times m_j! m_k!), and its eigenvalues are its entries.
Entries are assembled in double precision; a block with an entry outside
that range raises :class:`CapabilityError`. The Hyperbolic entries come from
this direct Taylor expansion, and only their signs are compared against
external claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import wirtinger
from .domains import (
    BaseDomainSpec,
    DomainKind,
    EvaluationPoint,
    HartogsSpec,
    hartogs_potential,
    point_from_coords,
)
from .errors import CapabilityError


class Form(str, Enum):
    """Target space form, named by the sign of its holomorphic curvature."""

    EUCLIDEAN = "euclidean"
    PROJECTIVE = "projective"
    HYPERBOLIC = "hyperbolic"


# ---------------------------------------------------------------------------
# Multi-index ordering
# ---------------------------------------------------------------------------


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


def grade_indices(var_count: int, deg: int) -> list[tuple[int, ...]]:
    """All multi-indices of exact degree ``deg``, in the canonical order."""
    return list(_grade(var_count, deg))


def enumerate_indices(var_count: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices of degree <= max_degree in the graded order."""
    if var_count < 1 or max_degree < 0:
        raise ValueError("need var_count >= 1 and max_degree >= 0")
    out: list[tuple[int, ...]] = []
    for deg in range(max_degree + 1):
        out.extend(_grade(var_count, deg))
    return out


def multi_factorial(m) -> float:
    out = 1
    for e in m:
        out *= math.factorial(e)
    return float(out)


# ---------------------------------------------------------------------------
# Gamma-type factors
# ---------------------------------------------------------------------------


def pochhammer(a: float, k: int) -> float:
    """Rising factorial a (a+1) ... (a+k-1); exact zeros are preserved.

    Past the double range the product is left infinite; block assembly
    rejects it.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1.0
    for j in range(k):
        term = a + j
        if term == 0.0:
            return 0.0
        out *= term
    return out


# ---------------------------------------------------------------------------
# Radial base coefficient tables (derivative normalization)
# ---------------------------------------------------------------------------


def _require_radial(base: BaseDomainSpec):
    if base.kind is DomainKind.CARTAN_TYPE_I and min(base.shape) >= 2:
        raise CapabilityError("rank >= 2 Cartan series unsupported")


class _BaseTable:
    """Mixed partials at 0 of phi^-s (or of -log phi when s is None) for the
    diagonal index pairs (alpha, alpha).

    phi^-s is a product over factors, so its entry is the product of one
    factor value per factor: pochhammer(mu s, k) (ball-like) or (s mu)^k
    (fock) at the factor degree k, times the factorials of the factor's part
    of alpha. Each factor value is evaluated once per (factor, s, k); entries
    are the same floats however often the table is reused. -log phi is a sum
    over factors, so its entry vanishes unless alpha is supported on a single
    factor.
    """

    def __init__(self, base: BaseDomainSpec):
        _require_radial(base)
        self._base = base
        self._fock = base.kind is DomainKind.FOCK
        self._slices = base.factor_slices
        self._values: dict[tuple, float] = {}

    def _factor_value(self, idx: int, s: float, k: int) -> float:
        key = (idx, s, k)
        value = self._values.get(key)
        if value is None:
            mu = self._base.exponents[idx]
            value = (s * mu) ** k if self._fock else pochhammer(mu * s, k)
            self._values[key] = value
        return value

    def __call__(self, s: float | None, alpha) -> float:
        if s is not None:
            out = 1.0
            for idx, sl in enumerate(self._slices):
                part = alpha[sl]
                out *= self._factor_value(idx, s, sum(part)) * multi_factorial(part)
            return out
        supported = [
            (idx, alpha[sl])
            for idx, sl in enumerate(self._slices)
            if sum(alpha[sl]) > 0
        ]
        if len(supported) != 1:
            return 0.0
        idx, part = supported[0]
        mu = self._base.exponents[idx]
        k = sum(part)
        if self._fock:
            return mu if k == 1 else 0.0
        return mu * math.factorial(k - 1) * multi_factorial(part)


def power_deriv(base: BaseDomainSpec, s: float, alpha) -> float:
    """Mixed partial of phi^-s at 0 for the diagonal index pair (alpha, alpha)."""
    return _BaseTable(base)(s, alpha)


def base_power_coefficients(base: BaseDomainSpec, s: float, max_degree: int) -> dict:
    """Diagonal table {(alpha, alpha): mixed partial of phi^-s at 0}.

    Negative s arises for the hyperbolic form, where phi^(h - sigma) is
    queried as s = sigma - h.
    """
    table = _BaseTable(base)
    return {
        (alpha, alpha): table(s, alpha)
        for alpha in enumerate_indices(base.dim, max_degree)
    }


# ---------------------------------------------------------------------------
# Coefficient blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoefficientBlock:
    """One diagonal block at (total degree, fiber degree) of a form's matrix.

    Rows and columns are (fiber index, base index) pairs in the canonical
    order (fiber index outer); the block is diagonal, and ``diagonal`` holds
    its derivative-normalized entries in that order.
    """

    form: Form
    total_degree: int
    fiber_degree: int
    fiber_indices: tuple
    base_indices: tuple
    diagonal: np.ndarray

    def __post_init__(self):
        self.diagonal.setflags(write=False)


def _series_term(form: Form, sigma: int, h: float):
    """Series prefactor P_sigma and the base-table power s (None for -log phi).

    The expanded potential reads sum_sigma P_sigma t^sigma G_sigma(z); entries
    in derivative normalization are P_sigma sigma! nu! times the table value.
    """
    if form is Form.EUCLIDEAN:
        if sigma == 0:
            return h, None
        return h / sigma, float(sigma)
    if form is Form.PROJECTIVE:
        return pochhammer(h, sigma) / math.factorial(sigma), h + sigma
    if sigma == 0:
        return -1.0, -h
    return -pochhammer(-h, sigma) / math.factorial(sigma), float(sigma) - h


def _scale(spec: HartogsSpec, h) -> float:
    h = spec.scale if h is None else float(h)
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("scale h must be positive and finite")
    return h


def _block(form: Form, spec: HartogsSpec, i: int, sigma: int, h: float, table: _BaseTable) -> CoefficientBlock:
    if i == 0:
        # constant term of all three expansions vanishes since phi(0) = 1
        return CoefficientBlock(
            form=form,
            total_degree=0,
            fiber_degree=0,
            fiber_indices=((0,) * spec.fiber_dim,),
            base_indices=((0,) * spec.base.dim,),
            diagonal=np.zeros(1),
        )
    fiber_idx = tuple(grade_indices(spec.fiber_dim, sigma))
    base_idx = tuple(grade_indices(spec.base.dim, i - sigma))
    diagonal = None
    try:
        prefactor, s = _series_term(form, sigma, h)
        sig_fact = math.factorial(sigma)
        weights = [prefactor * sig_fact * multi_factorial(nu) for nu in fiber_idx]
        values = [table(s, alpha) for alpha in base_idx]
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = np.outer(weights, values).ravel()
    except OverflowError:
        pass
    if diagonal is None or not np.isfinite(diagonal).all():
        raise CapabilityError(
            f"{form.value} coefficient block (i={i}, sigma={sigma}) exceeds the "
            "double-precision range; lower the truncation degree"
        )
    return CoefficientBlock(
        form=form,
        total_degree=i,
        fiber_degree=sigma,
        fiber_indices=fiber_idx,
        base_indices=base_idx,
        diagonal=diagonal,
    )


def block(form: Form, spec: HartogsSpec, i: int, sigma: int, h: float | None = None) -> CoefficientBlock:
    """The (i, sigma) diagonal block of the chosen form's coefficient matrix.

    Fiber multi-indices of degree sigma expand ||z0||^(2 sigma) multinomially
    (positive weights sigma! nu!), which keeps the one-fiber block structure
    for every fiber dimension. Raises :class:`CapabilityError` when an entry
    leaves the double-precision range.
    """
    table = _BaseTable(spec.base)
    if not 0 <= sigma <= i:
        raise ValueError("need 0 <= sigma <= i")
    return _block(Form(form), spec, i, sigma, _scale(spec, h), table)


# ---------------------------------------------------------------------------
# Resolvability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockFailure:
    total_degree: int
    fiber_degree: int
    min_eigenvalue: float


@dataclass(frozen=True)
class ResolvabilityVerdict:
    """PSD sweep over all blocks up to a truncation degree.

    ``first_failure`` is the first failing block in the canonical traversal:
    total degree ascending, fiber degree descending within a degree (the
    layout of the block-diagonal display).
    """

    form: Form
    h: float
    truncation_degree: int
    all_psd: bool
    rank_lower_bound: int
    first_failure: BlockFailure | None


def _diagonal_verdict(diagonal: np.ndarray) -> tuple[bool, float, int]:
    """(is PSD, min eigenvalue, numeric rank) of a diagonal block.

    The eigenvalues are the entries. The threshold 1e-10 (1 + max |d|) is
    relative, robust against large Gamma-factor entries; the rank counts
    entries above it and is numeric, never claimed exact.
    """
    tol = 1e-10 * (1.0 + float(np.max(np.abs(diagonal))))
    min_value = float(np.min(diagonal))
    return min_value >= -tol, min_value, int(np.count_nonzero(diagonal > tol))


def resolvability(
    form: Form,
    spec: HartogsSpec,
    h: float | None = None,
    truncation_degree: int = 10,
) -> ResolvabilityVerdict:
    """Decide PSD-ness of every coefficient block with i <= truncation_degree.

    ``rank_lower_bound`` sums numeric ranks over all blocks and is
    nondecreasing in the truncation degree.
    """
    if truncation_degree < 2:
        raise ValueError("truncation degree must be at least 2")
    table = _BaseTable(spec.base)
    form = Form(form)
    h = _scale(spec, h)
    all_psd = True
    rank = 0
    first: BlockFailure | None = None
    for i in range(truncation_degree + 1):
        for sigma in range(i, -1, -1):
            b = _block(form, spec, i, sigma, h, table)
            is_psd, min_value, block_rank = _diagonal_verdict(b.diagonal)
            rank += block_rank
            if not is_psd:
                all_psd = False
                if first is None:
                    first = BlockFailure(i, sigma, min_value)
    return ResolvabilityVerdict(
        form=form,
        h=h,
        truncation_degree=truncation_degree,
        all_psd=all_psd,
        rank_lower_bound=rank,
        first_failure=first,
    )


# ---------------------------------------------------------------------------
# Series evaluation and the finite-difference audit
# ---------------------------------------------------------------------------


def diastasis_value(spec: HartogsSpec, p: EvaluationPoint) -> float:
    """The diastasis from the origin equals the scaled potential itself."""
    return hartogs_potential(spec, p)


def series_partial_sum(spec: HartogsSpec, p: EvaluationPoint, truncation_degree: int) -> float:
    """Partial sum of the Euclidean-form expansion through total degree T.

    Only meaningful near the origin; enforced at ||(z0, z)|| <= 0.3 where the
    expansions converge fast for every catalog base.
    """
    table = _BaseTable(spec.base)
    coords = p.coords
    if float(np.linalg.norm(coords)) > 0.3:
        raise ValueError("series evaluation expects ||coordinates|| <= 0.3")
    fiber_sq = np.abs(np.asarray(p.fiber)) ** 2
    base_sq = np.abs(np.asarray(p.base)) ** 2
    h = spec.scale
    total = 0.0
    try:
        for i in range(1, truncation_degree + 1):
            for sigma in range(i, -1, -1):
                prefactor, s = _series_term(Form.EUCLIDEAN, sigma, h)
                sig_fact = math.factorial(sigma)
                for nu in grade_indices(spec.fiber_dim, sigma):
                    fiber_mono = float(np.prod(fiber_sq ** np.array(nu)))
                    weight = sig_fact / multi_factorial(nu)
                    for alpha in grade_indices(spec.base.dim, i - sigma):
                        deriv = table(s, alpha)
                        if deriv == 0.0:
                            continue
                        coeff = deriv / multi_factorial(alpha) ** 2
                        base_mono = float(np.prod(base_sq ** np.array(alpha)))
                        total += prefactor * weight * coeff * fiber_mono * base_mono
    except OverflowError:
        total = math.nan
    if not math.isfinite(total):
        raise CapabilityError(
            f"euclidean series through degree {truncation_degree} exceeds the "
            "double-precision range"
        )
    return total


@dataclass(frozen=True)
class CrossCoefficientAudit:
    """Finite-difference audit of the rotation-forced zero coefficients."""

    max_off_structure: float
    pair_values: tuple
    control_pair: tuple
    control_fd: float
    control_expected: float


def _violating_pairs(spec: HartogsSpec, max_degree: int, count: int):
    """Deterministic list of index pairs whose coefficients must vanish."""
    n = spec.total_dim
    d0 = spec.fiber_dim
    indices = enumerate_indices(n, max_degree)
    pairs = []
    for a_pos, mj in enumerate(indices):
        for mk in indices[a_pos:]:
            if sum(mj) + sum(mk) > max_degree or sum(mj) + sum(mk) < 2:
                continue
            fiber_mismatch = sum(mj[:d0]) != sum(mk[:d0])
            base_mismatch = sum(mj[d0:]) != sum(mk[d0:])
            if fiber_mismatch or base_mismatch:
                pairs.append((mj, mk))
    pairs.sort(key=lambda jk: (sum(jk[0]) + sum(jk[1]), jk))
    return pairs[:count]


def cross_coefficient_audit(
    spec: HartogsSpec,
    max_degree: int = 4,
    pair_count: int = 12,
    cfg: wirtinger.DiffConfig | None = None,
) -> CrossCoefficientAudit:
    """Compute off-structure coefficients by finite differences.

    Every selected pair violates one of the rotation-invariance conditions
    (fiber degrees differ, or base degrees differ), so its coefficient must
    vanish; the returned maximum magnitude is the audit value. A diagonal
    control pair is evaluated alongside and compared with its analytic block
    entry.
    """
    _require_radial(spec.base)
    if max_degree > 4:
        raise CapabilityError("audit is a low-order oracle; max_degree <= 4")
    cfg = cfg or wirtinger.DiffConfig()
    origin = np.zeros(spec.total_dim, dtype=np.complex128)

    def f(q):
        return hartogs_potential(spec, point_from_coords(spec, q))

    values = []
    for mj, mk in _violating_pairs(spec, max_degree, pair_count):
        fd = wirtinger.mixed_partial(f, origin, mj, mk, cfg)
        values.append(((mj, mk), abs(fd)))

    control = ((1,) + (0,) * (spec.total_dim - 1),) * 2
    control_fd = wirtinger.mixed_partial(f, origin, control[0], control[1], cfg)
    control_expected = float(block(Form.EUCLIDEAN, spec, 1, 1).diagonal[0])
    return CrossCoefficientAudit(
        max_off_structure=max(v for _, v in values),
        pair_values=tuple(values),
        control_pair=control,
        control_fd=float(np.real(control_fd)),
        control_expected=control_expected,
    )
