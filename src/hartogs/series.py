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
itself diagonal in the monomial basis, so a block is stored as its diagonal,
in derivative normalization (Taylor coefficient times m_j! m_k!), and its
eigenvalues are its entries. An entry is a prefactor times one coefficient
per base factor, times factorials. That coefficient is stated once, in
:class:`_Coefficient`, at an exact argument a = mu_i s: the rising product
(a)_k of a ball-like factor, a^k of a fock factor, and the -log phi_i entry.
The prefactors of the projective and hyperbolic forms are the ball-like
coefficient at a = +-h.

Resolvability is decided exactly on rationals, with no tolerance: an entry's
sign is the product of the exact signs of its prefactor and factor
coefficients, and a block's rank is the number of its positive entries,
counted by multi-index degree rather than enumerated, in integer tables over
(fiber degree, base degree) that a sweep fills for consecutive row groups of
bounded size, so that its memory is O(T). Only :func:`block`, :func:`blocks`
and a first failure's least entry assemble entries in double precision:
each coefficient is its exact rational rounded once, and an entry is their
float product, within a few half-ulps of its exact value. A block with an
entry outside that range raises :class:`CapabilityError`; a first failure
past it keeps its exact (i, sigma) and has no least entry. The Hyperbolic
entries come from this direct Taylor expansion, and only their signs are
compared against external claims. ``origin_coefficients`` recomputes the
low-degree entries of all three forms from the polarized potential's jet at
the origin, without the coefficient symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import taylor
from .curvature import _potential_jets
from .domains import (
    BaseDomainSpec,
    DomainKind,
    HartogsSpec,
    _exact,
    _is_positive_double,
    coordinate_stack,
)
from .errors import CapabilityError
from .taylor import _grade, _read_only


class Form(str, Enum):
    """Target space form, named by the sign of its holomorphic curvature."""

    EUCLIDEAN = "euclidean"
    PROJECTIVE = "projective"
    HYPERBOLIC = "hyperbolic"


# ---------------------------------------------------------------------------
# Multi-index ordering
# ---------------------------------------------------------------------------


def grade_indices(var_count: int, deg: int) -> list[tuple[int, ...]]:
    """All multi-indices of exact degree ``deg``, in the canonical order."""
    return list(_grade(var_count, deg))


def enumerate_indices(var_count: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices of degree <= max_degree in the graded order."""
    if var_count < 1 or max_degree < 0:
        raise ValueError("need var_count >= 1 and max_degree >= 0")
    return list(taylor.monomials(var_count, max_degree))


def multi_factorial(m) -> float:
    out = 1
    for e in m:
        out *= math.factorial(e)
    return float(out)


# ---------------------------------------------------------------------------
# Each factor's series coefficient
# ---------------------------------------------------------------------------


def _ratio(num: int, den: int = 1) -> float:
    """num / den rounded once (den > 0), ±inf past the double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


@dataclass(frozen=True)
class _Coefficient:
    """The Taylor coefficient of one base factor's phi_i^-s, the one place
    it is stated.

    At the exact argument a = mu_i s = p / q (q > 0) the factor's part of an
    entry of degree k on that factor is the rising product (a)_k =
    prod_j (p + j q) / q^k of a ball-like factor, or a^k = p^k / q^k of a
    fock factor, times the factorials of the factor's part of the index.
    -log phi_i is a sum over factors; its entry is mu_i (k - 1)! (ball-like)
    or mu_i at k = 1 only (fock), times the same factorials.
    """

    fock: bool

    def values(self, p: int, q: int, k_max: int) -> list[float]:
        """The coefficient at a = p / q for k = 0..k_max, each rounded once
        from its exact rational; ±inf past the double range, and an exact
        zero stays 0."""
        out, num, den = [], 1, 1
        for k in range(k_max + 1):
            out.append(_ratio(num, den))
            num *= p if self.fock else p + k * q
            den *= q
        return out

    def signs(self, p: int, q: int, cap: int) -> tuple[int, bool]:
        """(c, zero): the coefficient at a = p / q has sign (-1)^min(k, c),
        and vanishes past k = c where ``zero`` holds. Exact by int floor
        division; c is capped at ``cap``."""
        if self.fock:
            return (cap if p < 0 else 0), p == 0
        # ceil(-a) negative terms; a zero term iff a is an integer <= 0
        return min(cap, max(0, -(p // q))), p <= 0 and p % q == 0

    def log_entries(self, mu: Fraction, k_max: int) -> list[float]:
        """-log phi_i's entry for k = 0..k_max, before the factorials, each
        rounded once; 0 at k = 0."""
        out, num = [0.0], mu.numerator
        for k in range(1, k_max + 1):
            out.append(_ratio(num, mu.denominator))
            num *= 0 if self.fock else k
        return out


_BALL_LIKE, _FOCK = _Coefficient(fock=False), _Coefficient(fock=True)


def _require_radial(base: BaseDomainSpec):
    if base.kind is DomainKind.CARTAN_TYPE_I and min(base.shape) >= 2:
        raise CapabilityError("rank >= 2 Cartan series unsupported")


def _symbols(base: BaseDomainSpec) -> tuple[_Coefficient, ...]:
    """Each factor's coefficient; a rank-one Cartan factor is ball-like."""
    _require_radial(base)
    return (_FOCK if base.kind is DomainKind.FOCK else _BALL_LIKE,) * base.factor_count


#: e per form: phi enters as phi^-(sigma + e h), and for e != 0 the prefactor
#: P_sigma sigma! is e (e h)_sigma, the ball-like coefficient at a = e h.
_SHIFT = {Form.EUCLIDEAN: 0, Form.PROJECTIVE: 1, Form.HYPERBOLIC: -1}


def _arguments(base: BaseDomainSpec, e: int, h: Fraction, sigma: int) -> list[tuple[int, int]]:
    """(p, q) with p / q = mu_i (sigma + e h) for each factor."""
    p, q = h.as_integer_ratio()
    return [(mu.numerator * (sigma * q + e * p), mu.denominator * q) for mu in base.exponents]


# ---------------------------------------------------------------------------
# Coefficient blocks (derivative normalization)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _grade_table(dims: tuple[int, ...], deg: int):
    """The multi-indices of degree ``deg`` in sum(dims) variables, in the
    canonical order, with their parts on consecutive slices of ``dims``
    variables: the degree of each part, (F, N) ints, and the multi-factorial
    of each part, (F, N) floats, inf past the double range. Shared;
    read-only."""
    indices = tuple(grade_indices(sum(dims), deg))
    edges = np.cumsum((0,) + dims)
    exponents = np.array(indices).reshape(len(indices), -1)
    degrees = np.stack([exponents[:, a:b].sum(axis=1) for a, b in zip(edges, edges[1:])])
    factorials = np.array(
        [[_ratio(math.prod(map(math.factorial, m[a:b]))) for m in indices]
         for a, b in zip(edges, edges[1:])]
    ).reshape(degrees.shape)
    return (indices,) + _read_only(degrees, factorials)


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


def _scale(spec: HartogsSpec, h) -> Fraction:
    """The scale h, exactly: ``spec.scale`` when None, else h read by :func:`_exact`."""
    if h is None:
        return spec.scale
    if not _is_positive_double(h):
        raise ValueError("scale h must be positive and finite")
    return _exact(h)


class _Sweep:
    """The blocks of one form at one spec and exact scale h.

    The expanded potential reads sum_sigma P_sigma t^sigma G_sigma(z), with
    G_sigma = phi^-(sigma + e h), or -log phi for the Euclidean sigma = 0.
    An entry at (nu, alpha) is the fiber weight P_sigma sigma! nu! times the
    product over factors of one coefficient value times the factorials of
    the factor's part of alpha. Each value is rounded once from its exact
    rational and computed once per (factor, argument); each fiber weight
    once per fiber degree.
    """

    def __init__(self, form: Form, spec: HartogsSpec, h: Fraction):
        self.form, self.spec, self.h = form, spec, h
        self.e = _SHIFT[form]
        self.symbols = _symbols(spec.base)
        self._values: dict[tuple, np.ndarray] = {}
        self._fibers: dict[int, np.ndarray] = {}

    def _factor_values(self, symbol: _Coefficient, arg: tuple, degree: int) -> np.ndarray:
        """The values at k = 0..degree at least. A list grows to twice the
        degree asked for, so a sweep extends it O(log T) times."""
        values = self._values.get((symbol, arg))
        if values is None or len(values) <= degree:
            values = self._values[symbol, arg] = np.array(symbol.values(*arg, 2 * degree))
        return values

    def _weights(self, sigma: int) -> np.ndarray:
        """P_sigma sigma! nu! for the fiber indices nu of degree sigma."""
        weights = self._fibers.get(sigma)
        if weights is None:
            if self.e:
                p, q = self.h.as_integer_ratio()
                prefactor = self.e * _BALL_LIKE.values(self.e * p, q, sigma)[sigma]
            elif sigma:  # h (sigma - 1)!, the log entry of -h log(1 - t / phi)
                prefactor = _BALL_LIKE.log_entries(self.h, sigma)[sigma]
            else:
                prefactor = float(self.h)
            weights = prefactor * _grade_table((self.spec.fiber_dim,), sigma)[2][0]
            self._fibers[sigma] = weights
        return weights

    def _base(self, sigma: int, degree: int) -> np.ndarray:
        """G_sigma's entries at every base index of ``degree``, in the
        canonical order."""
        base = self.spec.base
        _, degrees, factorials = _grade_table(base.dims, degree)
        if self.e or sigma:
            out = None
            for symbol, arg, k, fact in zip(
                self.symbols, _arguments(base, self.e, self.h, sigma), degrees, factorials
            ):
                term = self._factor_values(symbol, arg, degree)[k] * fact
                out = term if out is None else out * term
            return out
        # -log phi: an index supported on a single factor has that factor's entry
        out = np.zeros(degrees.shape[1])
        single = (degrees > 0).sum(axis=0) == 1
        for symbol, mu, k, fact in zip(self.symbols, base.exponents, degrees, factorials):
            entry = symbol.log_entries(mu, degree)[degree]
            if entry:  # a zero entry reads no factorial, which may be inf
                rows = single & (k > 0)
                out[rows] = entry * fact[rows]
        return out

    def block(self, i: int, sigma: int) -> CoefficientBlock:
        spec = self.spec
        if i == 0:
            # constant term of all three expansions vanishes since phi(0) = 1
            return CoefficientBlock(
                form=self.form,
                total_degree=0,
                fiber_degree=0,
                fiber_indices=((0,) * spec.fiber_dim,),
                base_indices=((0,) * spec.base.dim,),
                diagonal=np.zeros(1),
            )
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = (self._weights(sigma)[:, None] * self._base(sigma, i - sigma)).ravel()
        if not np.isfinite(diagonal).all():
            raise CapabilityError(
                f"{self.form.value} coefficient block (i={i}, sigma={sigma}) exceeds the "
                "double-precision range; lower the truncation degree"
            )
        return CoefficientBlock(
            form=self.form,
            total_degree=i,
            fiber_degree=sigma,
            fiber_indices=_grade_table((spec.fiber_dim,), sigma)[0],
            base_indices=_grade_table(spec.base.dims, i - sigma)[0],
            diagonal=diagonal,
        )


def block(form: Form, spec: HartogsSpec, i: int, sigma: int, h: float | None = None) -> CoefficientBlock:
    """The (i, sigma) diagonal block of the chosen form's coefficient matrix.

    Fiber multi-indices of degree sigma expand ||z0||^(2 sigma) multinomially
    (positive weights sigma! nu!), which keeps the one-fiber block structure
    for every fiber dimension. Raises :class:`CapabilityError` when an entry
    leaves the double-precision range.
    """
    _require_radial(spec.base)
    if not 0 <= sigma <= i:
        raise ValueError("need 0 <= sigma <= i")
    return _Sweep(Form(form), spec, _scale(spec, h)).block(i, sigma)


def blocks(form: Form, spec: HartogsSpec, truncation_degree: int, h: float | None = None):
    """Every block with i <= truncation_degree, as :func:`block` gives it, in
    the canonical traversal (i ascending, sigma descending). One
    :class:`_Sweep` serves them all, so each factor value and each fiber
    weight is computed once."""
    sweep = _Sweep(Form(form), spec, _scale(spec, h))
    for i in range(truncation_degree + 1):
        for sigma in range(i, -1, -1):
            yield sweep.block(i, sigma)


# ---------------------------------------------------------------------------
# Resolvability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockFailure:
    """The first failing block (i, sigma) and its least entry, which is None
    when the block's entries leave the double range."""

    total_degree: int
    fiber_degree: int
    min_eigenvalue: float | None


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
    h: Fraction
    truncation_degree: int
    all_psd: bool
    rank_lower_bound: int
    first_failure: BlockFailure | None


#: Most entries (fiber-degree rows times base-degree columns) in one row group
#: of a resolvability sweep's tables; it bounds the sweep's memory.
_GROUP_ENTRIES = 1 << 13


def _sign_table(c: np.ndarray, zero: np.ndarray, width: int) -> np.ndarray:
    """Signs (-1)^min(k, c) for k = 0..width-1, one row per (c, zero) pair,
    and 0 past k = c on the rows where ``zero`` holds."""
    k = np.arange(width)
    signs = 1 - 2 * (np.minimum(k, c[:, None]) & 1)
    signs[zero[:, None] & (k > c[:, None])] = 0
    return signs


def _sign_tables(form: Form, spec: HartogsSpec, h: Fraction, t: int):
    """Exact (positive, negative) entry counts of every block through degree t.

    Yields (sigma0, pos, neg) for consecutive row groups of at most
    ``_GROUP_ENTRIES`` entries (at least one row): pos[r, m] and neg[r, m]
    count the entries of block (sigma + m, sigma) at sigma = sigma0 + r, and
    are 0 past m = t - sigma. An entry's sign is the product of the exact
    signs of the prefactor P_sigma and of one coefficient per base factor,
    read from each factor's :class:`_Coefficient` at its exact argument.
    A factor of dimension d has C(d + k - 1, k) base indices of degree k;
    their (nonzero, signed) counts are convolved across factors and repeated
    over the C(d0 + sigma - 1, sigma) fiber indices. Counts are int64 when
    the number of all multi-indices of degree <= t fits in it (no count can
    exceed that), Python ints otherwise.
    """
    dtype = object if math.comb(spec.total_dim + t, t) >= 2**63 else np.int64

    def degrees(d):  # multi-indices of degree k = 0..t in d variables
        return np.array([math.comb(d + k - 1, k) for k in range(t + 1)], dtype=dtype)

    def profiles(symbol, args):  # (c, zero) arrays, one entry per argument
        c, zero = zip(*(symbol.signs(p, q, t + 1) for p, q in args))
        return np.array(c), np.array(zero)

    base, fibers, e = spec.base, degrees(spec.fiber_dim), _SHIFT[form]
    symbols = _symbols(base)
    prefactor = np.ones(t + 1, dtype=int)  # h (sigma - 1)! > 0 for the Euclidean form
    if e:
        p, q = h.as_integer_ratio()
        prefactor = e * _sign_table(*profiles(_BALL_LIKE, [(e * p, q)]), t + 1)[0]
    args = zip(*(_arguments(base, e, h, sigma) for sigma in range(t + 1)))
    factors = [
        (degrees(d), *profiles(symbol, a)) for d, symbol, a in zip(base.dims, symbols, args)
    ]
    # rows with equal sign data form consecutive runs, and every row of a run
    # reads a prefix of the counts of its first row, which has the most live
    # entries; the last run of a group may continue into the next one
    key = np.stack([a for f in factors for a in f[1:]], axis=1)
    new = np.ones(t + 1, dtype=bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=1)
    s0 = 0
    while s0 <= t:
        width = t + 1 - s0
        s1 = min(t + 1, s0 + max(1, _GROUP_ENTRIES // width))
        starts = s0 + np.flatnonzero(new[s0:s1])
        tables = []
        for counts, c, zero in factors:
            signs = _sign_table(c[starts], zero[starts], width)
            tables.append((counts[:width] * (signs != 0), counts[:width] * signs))
        nonzero, signed = tables[0]
        for a, b in tables[1:]:
            for j, live in enumerate(t + 1 - starts):
                nonzero[j, :live] = np.convolve(nonzero[j, :live], a[j, :live])[:live]
                signed[j, :live] = np.convolve(signed[j, :live], b[j, :live])[:live]
        if not new[s0]:
            nonzero, signed = (np.vstack([x[:width], y]) for x, y in zip(carry, (nonzero, signed)))
        carry = nonzero[-1], signed[-1]
        # positive then negative counts, swapped by a negative prefactor
        both, n = np.concatenate([(nonzero + signed) // 2, (nonzero - signed) // 2]), len(nonzero)
        run, flip = np.cumsum(new[s0:s1]) - new[s0], n * (prefactor[s0:s1] < 0)
        pos, neg = both[run + flip], both[run + n - flip]
        if s0 == 0 and not e:
            # -log phi is a sum over factors: one positive entry per base index
            # supported on a single factor where that factor's entry is nonzero
            pos[0] = sum(
                np.where(np.array(symbol.log_entries(mu, t)) != 0, f[0], 0)
                for f, symbol, mu in zip(factors, symbols, base.exponents)
            )
            neg[0] = 0
        live = np.arange(s1 - s0)[:, None] + np.arange(width) < width
        live[0, 0] &= s0 > 0  # every expansion has constant term 0: phi(0) = 1
        weight = np.where(live, (fibers[s0:s1] * (prefactor[s0:s1] != 0))[:, None], 0)
        pos, neg = pos * weight, neg * weight
        yield s0, pos, neg
        s0 = s1


def resolvability(
    form: Form,
    spec: HartogsSpec,
    h: float | None = None,
    truncation_degree: int = 10,
) -> ResolvabilityVerdict:
    """Decide PSD-ness of every coefficient block with i <= truncation_degree.

    Blocks are diagonal, so a block is PSD iff it has no negative entry, and
    its rank is its number of positive entries. Both are decided exactly from
    the entry signs (:func:`_sign_tables`), without a tolerance and without
    assembling the blocks; ``rank_lower_bound`` is nondecreasing in the
    truncation degree. Only the first failing block is assembled in floats,
    for its ``min_eigenvalue``, which is None if that block leaves the
    double range.
    """
    if truncation_degree < 2:
        raise ValueError("truncation degree must be at least 2")
    _require_radial(spec.base)
    form = Form(form)
    h = _scale(spec, h)
    rank = 0
    first = None  # (i, sigma) of the first failing block in traversal order
    for s0, pos, neg in _sign_tables(form, spec, h, truncation_degree):
        rank += int(pos.sum())
        r, m = np.nonzero(neg)
        if r.size:
            i = r + m
            least = int(i.min())
            # ascending sigma: an equal i at a larger sigma comes first
            if first is None or s0 + least <= first[0]:
                first = (s0 + least, s0 + int(r[i == least].max()))
    failure = None
    if first is not None:
        try:
            b = _Sweep(form, spec, h).block(*first)
            failure = BlockFailure(*first, float(np.min(b.diagonal)))
        except CapabilityError:
            failure = BlockFailure(*first, None)
    return ResolvabilityVerdict(
        form=form,
        h=h,
        truncation_degree=truncation_degree,
        all_psd=first is None,
        rank_lower_bound=rank,
        first_failure=failure,
    )


# ---------------------------------------------------------------------------
# Series evaluation, the origin-jet coefficient oracle and the audit
# ---------------------------------------------------------------------------


def series_partial_sum(spec: HartogsSpec, points, truncation_degree: int) -> np.ndarray:
    """Partial sum of the Euclidean-form expansion through total degree T,
    per row of an (N, n) stack of points.

    Only meaningful near the origin; enforced at ||(z0, z)|| <= 0.3 where the
    expansions converge fast for every catalog base. Each entry of the
    Euclidean :func:`blocks`, at multi-index m = (nu, alpha), contributes
    entry / (m!)^2 times |z0|^(2 nu) |z|^(2 alpha); every row sums the terms
    of all blocks in one pass, in the blocks' order.
    """
    coords = coordinate_stack(spec, points)
    if any(float(np.linalg.norm(row)) > 0.3 for row in coords):
        raise ValueError("series evaluation expects ||coordinates|| <= 0.3")
    overflow = CapabilityError(
        f"euclidean series through degree {truncation_degree} exceeds the "
        "double-precision range"
    )
    d0 = spec.fiber_dim
    coeffs, exponents = [], []
    try:
        for b in blocks(Form.EUCLIDEAN, spec, truncation_degree):
            m = [nu + alpha for nu in b.fiber_indices for alpha in b.base_indices]
            coeffs.append(b.diagonal / [multi_factorial(row) ** 2 for row in m])
            exponents += m
    except (CapabilityError, OverflowError):
        raise overflow from None
    exponents = np.array(exponents)
    squares = np.abs(coords)[:, None] ** 2
    fiber = np.prod(squares[..., :d0] ** exponents[:, :d0], axis=2)
    base = np.prod(squares[..., d0:] ** exponents[:, d0:], axis=2)
    # cumsum adds left to right, so every row sums its terms in one order
    totals = np.cumsum(np.concatenate(coeffs) * fiber * base, axis=1)[:, -1]
    if not np.isfinite(totals).all():
        raise overflow
    return totals


#: Largest side degree |j|, |k| the coefficient oracle resolves; the audit
#: covers every pair of total degree |j| + |k| at most this.
ORACLE_DEGREE = 4

#: Most terms of one product of the oracle's jets (n <= 4 at bidegree (4, 4)).
MAX_ORACLE_TERMS = 250_000


def origin_coefficients(form: Form, spec: HartogsSpec, h: float | None = None) -> dict:
    """Derivative-normalized coefficients {(j, k): a_jk} of a form's series,
    for every pair of multi-indices with |j|, |k| <= ORACLE_DEGREE.

    F = h times the polarized potential of
    :func:`hartogs.curvature._potential_jets`, exp(F) - 1 and 1 - exp(-F)
    expand as sum c_jk z^j w^k, with a_jk = j! k! c_jk the Euclidean,
    projective and hyperbolic matrix entries (Calabi). All of them are the
    coefficients of one jet of bidegree (ORACLE_DEGREE, ORACLE_DEGREE) seeded at the
    origin (:mod:`hartogs.taylor`), exact up to round-off: there is no
    radius, no aliasing and no branch to leave, since phi(0) = 1. The jet
    restates the potential without the Pochhammer tables of the closed
    blocks, so it checks them independently. A jet whose products would
    hold more than ``MAX_ORACLE_TERMS`` terms (n >= 5) raises
    :class:`CapabilityError`.
    """
    _require_radial(spec.base)
    form = Form(form)
    h = _scale(spec, h)
    n = spec.total_dim
    bidegree = (ORACLE_DEGREE, ORACLE_DEGREE)
    terms = taylor.product_terms(n, bidegree)
    if terms > MAX_ORACLE_TERMS:
        raise CapabilityError(
            f"the coefficient jet's products would hold {terms} terms for {n} "
            f"variables, more than the limit of {MAX_ORACLE_TERMS}"
        )
    f = float(h) * _potential_jets(spec, np.zeros((1, n), dtype=np.complex128), bidegree)[0]
    if form is Form.PROJECTIVE:
        f = taylor.shifted(taylor.exp(f, bidegree), -1.0)
    elif form is Form.HYPERBOLIC:
        f = taylor.shifted(-taylor.exp(-f, bidegree), 1.0)
    indices = taylor.monomials(n, ORACLE_DEGREE)
    return {
        (j, k): complex(f[0, a, b]) * multi_factorial(j) * multi_factorial(k)
        for a, j in enumerate(indices)
        for b, k in enumerate(indices)
    }


@dataclass(frozen=True)
class CrossCoefficientAudit:
    """Origin-jet audit of the rotation-forced zero coefficients."""

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
    coefficients = origin_coefficients(Form.EUCLIDEAN, spec)
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
