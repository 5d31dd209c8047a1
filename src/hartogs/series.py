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

Resolvability is decided exactly on rationals, with no tolerance: an entry's
sign is the product of exact prefactor and Pochhammer signs, and a block's
rank is the number of its positive entries, counted by multi-index degree
rather than enumerated. Only :func:`block`, :func:`blocks` and a first
failure's least entry assemble entries in double precision; a block with an
entry outside that range raises :class:`CapabilityError`. The Hyperbolic
entries come from this direct Taylor expansion, and only their signs are
compared against external claims. ``torus_coefficients`` recomputes the
low-degree entries of all three forms from the polarized potential, without
these tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .domains import (
    BaseDomainSpec,
    DomainKind,
    EvaluationPoint,
    HartogsSpec,
    _exact,
    hartogs_potential,
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


def blocks(form: Form, spec: HartogsSpec, truncation_degree: int, h: float | None = None):
    """Every block with i <= truncation_degree, as :func:`block` gives it, in
    the canonical traversal (i ascending, sigma descending). One base table
    serves them all, so each factor value is computed once."""
    table = _BaseTable(spec.base)
    form, h = Form(form), _scale(spec, h)
    for i in range(truncation_degree + 1):
        for sigma in range(i, -1, -1):
            yield _block(form, spec, i, sigma, h, table)


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
    layout of the block-diagonal display). ``rank_lower_bound`` is the exact
    number of positive entries over all blocks (the name is kept for the
    report schema).
    """

    form: Form
    h: float
    truncation_degree: int
    all_psd: bool
    rank_lower_bound: int
    first_failure: BlockFailure | None


def _pochhammer_signs(a: Fraction, k_max: int) -> np.ndarray:
    """Signs of pochhammer(a, k) for k = 0..k_max, from the exact rational a.

    The product is 0 iff a is an integer in (-k, 0]; otherwise its sign is
    (-1)^min(k, c), c = max(0, ceil(-a)) being the number of negative terms.
    """
    k = np.arange(k_max + 1)
    negatives = min(k_max, max(0, math.ceil(-a)))
    signs = np.where(np.minimum(k, negatives) % 2, -1, 1)
    if a.denominator == 1 and a <= 0:
        signs[k > -a] = 0
    return signs


def _power_signs(fock: bool, a: Fraction, k_max: int) -> np.ndarray:
    """Signs of one factor's table values at degrees k = 0..k_max, a = mu s:
    pochhammer(a, k) for ball-like factors, a^k for fock ones."""
    if not fock:
        return _pochhammer_signs(a, k_max)
    signs = np.ones(k_max + 1, dtype=int)
    if a < 0:
        signs[1::2] = -1
    elif a == 0:
        signs[1:] = 0
    return signs


def _sign_counts(form: Form, spec: HartogsSpec, h: float, truncation_degree: int):
    """Exact (positive, negative) entry counts of every block through degree T.

    Yields (sigma, pos, neg) for sigma = 0..T, where pos[m] and neg[m] count
    the entries of block (sigma + m, sigma), m = 0..T - sigma. An entry is the
    prefactor P_sigma times positive factorial weights times one table value
    per base factor, so its sign is the product of their exact signs, taken
    on the rationals _exact(h) and _exact(mu). A factor of dimension d has
    C(d + k - 1, k) base indices of degree k; the per-factor (nonzero,
    signed) counts are convolved across factors, and each block is repeated
    over the C(d0 + sigma - 1, sigma) fiber indices of degree sigma. Counts
    are int64 when the number of all multi-indices of degree <= T fits in it
    (no count can exceed that), Python ints otherwise.
    """
    big = math.comb(spec.total_dim + truncation_degree, truncation_degree) >= 2**63
    dtype = object if big else np.int64
    base = spec.base
    fock = base.kind is DomainKind.FOCK
    mus = [_exact(mu) for mu in base.exponents]
    h = _exact(h)
    degree_counts = [
        np.array([math.comb(d + k - 1, k) for k in range(truncation_degree + 1)], dtype=dtype)
        for d in base.dims
    ]
    # prefactor signs and the base-table power s = sigma + shift
    if form is Form.EUCLIDEAN:
        prefactor, shift = np.ones(truncation_degree + 1, dtype=int), 0
    elif form is Form.PROJECTIVE:
        prefactor, shift = _pochhammer_signs(h, truncation_degree), h
    else:
        prefactor, shift = -_pochhammer_signs(-h, truncation_degree), -h
    for sigma in range(truncation_degree + 1):
        k_max = truncation_degree - sigma
        fibers = math.comb(spec.fiber_dim + sigma - 1, sigma)
        if form is Form.EUCLIDEAN and sigma == 0:
            # -log phi is a sum over factors: one positive entry per base index
            # supported on a single factor (degree 1 only for fock factors)
            pos = sum(c[: k_max + 1] for c in degree_counts)
            if fock:
                pos[2:] = 0
            neg = np.zeros_like(pos)
        else:
            nonzero = signed = None
            for mu, counts in zip(mus, degree_counts):
                signs = _power_signs(fock, mu * (sigma + shift), k_max)
                a, b = counts[: k_max + 1] * (signs != 0), counts[: k_max + 1] * signs
                if nonzero is None:
                    nonzero, signed = a, b
                else:
                    nonzero = np.convolve(nonzero, a)[: k_max + 1]
                    signed = np.convolve(signed, b)[: k_max + 1]
            pos, neg = (nonzero + signed) // 2, (nonzero - signed) // 2
        if prefactor[sigma] < 0:
            pos, neg = neg, pos
        elif prefactor[sigma] == 0:
            pos, neg = np.zeros_like(pos), np.zeros_like(neg)
        pos, neg = pos * fibers, neg * fibers
        if sigma == 0:
            # the constant term of all three expansions vanishes: phi(0) = 1
            pos[0] = neg[0] = 0
        yield sigma, pos, neg


def resolvability(
    form: Form,
    spec: HartogsSpec,
    h: float | None = None,
    truncation_degree: int = 10,
) -> ResolvabilityVerdict:
    """Decide PSD-ness of every coefficient block with i <= truncation_degree.

    Blocks are diagonal, so a block is PSD iff it has no negative entry, and
    its rank is its number of positive entries. Both are decided exactly from
    the entry signs (:func:`_sign_counts`), without a tolerance and without
    assembling the blocks; ``rank_lower_bound`` is nondecreasing in the
    truncation degree. Only the first failing block is assembled in floats,
    for its ``min_eigenvalue``; if that block leaves the double range, the
    sweep raises :class:`CapabilityError`.
    """
    if truncation_degree < 2:
        raise ValueError("truncation degree must be at least 2")
    _require_radial(spec.base)
    form = Form(form)
    h = _scale(spec, h)
    rank = 0
    first = None  # (i, sigma) of the first failing block in traversal order
    for sigma, pos, neg in _sign_counts(form, spec, h, truncation_degree):
        rank += int(pos.sum())
        failing = np.flatnonzero(neg)
        if failing.size:
            i = sigma + int(failing[0])
            # ascending sigma: an equal i at a larger sigma comes first
            if first is None or i <= first[0]:
                first = (i, sigma)
    failure = None
    if first is not None:
        b = _block(form, spec, *first, h, _BaseTable(spec.base))
        failure = BlockFailure(*first, float(np.min(b.diagonal)))
    return ResolvabilityVerdict(
        form=form,
        h=h,
        truncation_degree=truncation_degree,
        all_psd=first is None,
        rank_lower_bound=rank,
        first_failure=failure,
    )


# ---------------------------------------------------------------------------
# Series evaluation, the torus coefficient oracle and the audit
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


def _pairing(z, w):
    """<z, w> = sum z_k w_k, without conjugation, over broadcastable arrays."""
    return sum(a * b for a, b in zip(z, w))


def _polarized_potential(spec: HartogsSpec, z, w, h: float) -> np.ndarray:
    """F(z, w) = -h log(phi(z, w) - <z0, w0>), with <a, b> = sum a_k b_k.

    ``z`` and ``w`` are sequences of n broadcastable coordinate arrays,
    fiber coordinates first; F(z, zbar) is the scaled potential. phi(z, w)
    is prod (1 - <z_i, w_i>)^mu_i over ball, polydisc and rank-one Cartan
    factors and exp(-mu <z, w>) for fock; the base must be radial. This
    restates the potential without the factor kernels of
    :mod:`hartogs.domains`, so it checks them independently. F is evaluated
    as -h (log phi + log1p(-<z0, w0> / phi)), which is the analytic branch
    wherever |<z0, w0> / phi| < 1; elsewhere it raises
    :class:`CapabilityError`.
    """
    d0 = spec.fiber_dim
    base_z, base_w = z[d0:], w[d0:]
    log_phi = 0.0
    for sl, mu in zip(spec.base.factor_slices, spec.base.exponents):
        s = _pairing(base_z[sl], base_w[sl])
        log_phi = log_phi + (-mu * s if spec.base.kind is DomainKind.FOCK else mu * np.log1p(-s))
    ratio = _pairing(z[:d0], w[:d0]) * np.exp(-log_phi)
    if not np.all(np.abs(ratio) < 1.0):
        raise CapabilityError(
            "the polarized potential leaves its principal branch on the torus; "
            "the base exponents are too large for the coefficient oracle"
        )
    return -h * (log_phi + np.log1p(-ratio))


#: Largest side degree |j|, |k| the coefficient oracle resolves; the audit
#: covers every pair of total degree |j| + |k| at most this.
ORACLE_DEGREE = 4

#: Torus of the coefficient oracle: radius r and M points per axis.
TORUS_RADIUS = 0.25
TORUS_POINTS = 2 * ORACLE_DEGREE + 1

#: Most torus points M^(2n) evaluated as one stack (n <= 3 at M = 9).
MAX_TORUS_POINTS = 2**20


def torus_coefficients(form: Form, spec: HartogsSpec, h: float | None = None) -> dict:
    """Derivative-normalized coefficients {(j, k): a_jk} of a form's series,
    for every pair of multi-indices with |j|, |k| <= ORACLE_DEGREE.

    F, ``expm1(F)`` and ``-expm1(-F)`` of the polarized potential expand as
    sum c_jk z^j w^k, with a_jk = j! k! c_jk the Euclidean, projective and
    hyperbolic matrix entries (Calabi). One stack evaluation on the 2n-torus
    |z_a| = |w_a| = r with M points per axis and one ``fftn`` give every
    c_jk r^(|j|+|k|) at once (Lyness-Moler; r chosen as in Bornemann, Found.
    Comput. Math. 11, 2011). Circular symmetry leaves only pairs with equal
    per-variable degrees nonzero, so the nearest alias of c_jk is
    c_(j+Me_a, k+Me_a) r^(2M): aliasing is of relative order r^(2M), about
    1e-11 at r = 1/4, M = 9, times the coefficient growth. Round-off is
    amplified to about j! k! eps / r^(|j|+|k|) times max |F| on the torus,
    below 1e-8 for |j|, |k| <= 4. A torus past ``MAX_TORUS_POINTS`` points
    (n >= 4) raises :class:`CapabilityError`.
    """
    _require_radial(spec.base)
    form = Form(form)
    h = _scale(spec, h)
    n, m = spec.total_dim, TORUS_POINTS
    size = m ** (2 * n)
    if size > MAX_TORUS_POINTS:
        raise CapabilityError(
            f"the coefficient torus would hold {size} points for {n} variables, "
            f"more than the limit of {MAX_TORUS_POINTS}"
        )
    circle = TORUS_RADIUS * np.exp(2j * np.pi * np.arange(m) / m)
    axes = [circle.reshape([m if b == a else 1 for b in range(2 * n)]) for a in range(2 * n)]
    f = _polarized_potential(spec, axes[:n], axes[n:], h)
    if form is Form.PROJECTIVE:
        f = np.expm1(f)
    elif form is Form.HYPERBOLIC:
        f = -np.expm1(-f)
    taylor = np.fft.fftn(f) / size
    indices = enumerate_indices(n, ORACLE_DEGREE)
    return {
        (j, k): complex(taylor[j + k]) * multi_factorial(j) * multi_factorial(k)
        / TORUS_RADIUS ** (sum(j) + sum(k))
        for j in indices
        for k in indices
    }


@dataclass(frozen=True)
class CrossCoefficientAudit:
    """Torus-oracle audit of the rotation-forced zero coefficients."""

    max_off_structure: float
    pair_values: tuple
    control_pair: tuple
    control_value: float
    control_expected: float


def cross_coefficient_audit(spec: HartogsSpec) -> CrossCoefficientAudit:
    """Euclidean coefficients of every ordered pair (j, k) with
    |j| + |k| <= ORACLE_DEGREE whose fiber or base degrees differ.

    Circular symmetry forces each of them to vanish; the returned maximum
    magnitude is the audit value. The diagonal control pair (first fiber
    variable, degree 1) is read from the same oracle and compared with its
    analytic block entry.
    """
    coefficients = torus_coefficients(Form.EUCLIDEAN, spec)
    d0 = spec.fiber_dim

    def degrees(m):
        return sum(m[:d0]), sum(m[d0:])

    values = tuple(
        ((j, k), abs(a))
        for (j, k), a in coefficients.items()
        if sum(j) + sum(k) <= ORACLE_DEGREE and degrees(j) != degrees(k)
    )
    control = ((1,) + (0,) * (spec.total_dim - 1),) * 2
    return CrossCoefficientAudit(
        max_off_structure=max(v for _, v in values),
        pair_values=values,
        control_pair=control,
        control_value=coefficients[control].real,
        control_expected=float(block(Form.EUCLIDEAN, spec, 1, 1).diagonal[0]),
    )
