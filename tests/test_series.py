import functools
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hartogs import series
from hartogs.curvature import _potential_jets
from hartogs.domains import (
    BaseDomainSpec,
    DomainKind,
    HartogsSpec,
    _exact,
    coordinate_stack,
    hartogs_potential,
    sample_points,
)
from hartogs.errors import CapabilityError
from hartogs.series import (
    ORACLE_DEGREE,
    BlockFailure,
    Form,
    ResolvabilityVerdict,
    _BALL_LIKE,
    _FOCK,
    _sign_table,
    _sign_tables,
    block,
    cross_coefficient_audit,
    enumerate_indices,
    grade_indices,
    origin_coefficients,
    resolvability,
    series_partial_sum,
)

DISC = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
FOCK = HartogsSpec(BaseDomainSpec.fock(1, 1.0), 1)


def _block_counts(form, spec, h, t):
    """{(i, sigma): (positive, negative) entry count} of every block through
    degree t, read from the sweep's row-group tables, which must keep within
    their entry bound and hold zeros past each row's last block."""
    out = {}
    for s0, pos, neg in _sign_tables(form, spec, h, t):
        rows, width = pos.shape
        assert neg.shape == pos.shape and rows * width <= max(series._GROUP_ENTRIES, width)
        for r in range(rows):
            sigma = s0 + r
            assert not pos[r, t - sigma + 1 :].any() and not neg[r, t - sigma + 1 :].any()
            for m in range(t - sigma + 1):
                out[sigma + m, sigma] = (pos[r, m], neg[r, m])
    return out


class TestOrdering:
    def test_two_vars_degree_one(self):
        assert enumerate_indices(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_one_var(self):
        assert enumerate_indices(1, 3) == [(0,), (1,), (2,), (3,)]

    def test_grade_two_segment(self):
        assert grade_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_sort_key_matches_enumeration(self):
        # graded order; within a grade the larger leading entry comes first
        idx = enumerate_indices(3, 4)
        assert idx == sorted(idx, key=lambda m: (sum(m), tuple(-e for e in m)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
    def test_count_is_binomial(self, v, m):
        assert len(enumerate_indices(v, m)) == math.comb(v + m, v)


def _rising(a: Fraction, k: int) -> Fraction:
    return math.prod((a + j for j in range(k)), start=Fraction(1))


def _rounded(x: Fraction) -> float:
    """float(x), or +-inf past the double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _base_entries(base, s, degree):
    """phi^-s's entries at every base index of ``degree``: G_0 of the
    projective sweep at h = s."""
    return series._Sweep(Form.PROJECTIVE, HartogsSpec(base, 1), _exact(s))._base(0, degree)


class TestGammaFactors:
    def test_pochhammer_basic(self):
        assert _BALL_LIKE.values(1, 1, 2) == [1.0, 1.0, 2.0]
        assert _BALL_LIKE.values(-1, 1, 2)[2] == 0.0  # exact zero at integer h
        assert _BALL_LIKE.values(-3, 2, 2)[2] == 0.75

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.integers(min_value=0, max_value=25),
    )
    def test_gamma_ratio_matches_lgamma(self, h, sigma):
        via_lgamma = math.exp(
            math.lgamma(h + sigma) - math.lgamma(h) + math.lgamma(sigma + 1)
        )
        p, q = _exact(h).as_integer_ratio()
        gamma_ratio = _BALL_LIKE.values(p, q, sigma)[sigma] * math.factorial(sigma)
        assert gamma_ratio == pytest.approx(via_lgamma, rel=1e-11)

    def test_overflow_is_left_infinite(self):
        assert _BALL_LIKE.values(3, 2, 200)[200] == math.inf
        assert _BALL_LIKE.values(-1, 2, 200)[200] == -math.inf
        assert _BALL_LIKE.values(-150, 1, 200)[200] == 0.0  # an exact zero wins over overflow
        assert _FOCK.values(-10**200, 3, 3) == [1.0, _rounded(Fraction(-10**200, 3)), math.inf,
                                                -math.inf]

    @pytest.mark.parametrize("symbol", [_BALL_LIKE, _FOCK], ids=["ball_like", "fock"])
    def test_each_value_is_its_exact_rational_rounded_once(self, symbol):
        for p in (-301, -150, -7, -3, -1, 0, 1, 2, 5, 27, 10**6 + 3):
            for q in (1, 2, 3, 10, 7 * 10**5):
                a, exact = Fraction(p, q), [Fraction(1)]
                for k in range(200):
                    exact.append(exact[-1] * (a if symbol.fock else a + k))
                assert symbol.values(p, q, 200) == list(map(_rounded, exact)), a


class TestBaseTables:
    def test_disc_geometric_series(self):
        # s=1, k=2: geometric coefficient 1, derivative (2!)^2 = 4
        assert _base_entries(BaseDomainSpec.disc(1.0), 1, 2).tolist() == [4.0]

    def test_fock_linear(self):
        assert _base_entries(BaseDomainSpec.fock(1, 1.0), 2, 1).tolist() == [2.0]

    def test_zero_power_is_trivial(self):
        for symbol in (_BALL_LIKE, _FOCK):
            assert symbol.values(0, 1, 3) == [1.0, 0.0, 0.0, 0.0]
            assert symbol.signs(0, 1, 4) == (0, True)

    def test_polydisc_factorizes(self):
        base = BaseDomainSpec.polydisc((1.0, 2.0))
        entries = dict(zip(grade_indices(2, 3), _base_entries(base, 1.5, 3)))
        expected = _rising(Fraction(3, 2), 2) * 2 * _rising(Fraction(3), 1) * 1
        assert entries[2, 1] == float(expected) == 22.5

    def test_cartan_rank_two_unsupported(self):
        with pytest.raises(CapabilityError, match="rank >= 2"):
            series._symbols(BaseDomainSpec.cartan_type_i(2, 2, 1.0))

    def test_cartan_rank_one_supported(self):
        base = BaseDomainSpec.cartan_type_i(1, 2, 1.0)
        assert series._symbols(base) == (_BALL_LIKE,)
        assert _base_entries(base, 1, 1).tolist() == [1.0, 1.0]

    def test_log_entries(self):
        # -mu log(1 - x) = mu sum x^k / k, and -log exp(-mu x) = mu x
        mu = Fraction(2, 3)
        assert _BALL_LIKE.log_entries(mu, 4) == [0.0] + [float(mu * math.factorial(k - 1))
                                                         for k in range(1, 5)]
        assert _FOCK.log_entries(mu, 4) == [0.0, float(mu), 0.0, 0.0, 0.0]


class TestBlocks:
    def test_euclidean_pure_fiber(self):
        b = block(Form.EUCLIDEAN, DISC, 2, 2)
        assert b.diagonal.shape == (1,)
        assert b.diagonal[0] == pytest.approx(2.0)  # Gamma(2)Gamma(3)

    def test_euclidean_top_fiber_always_positive(self):
        for i in range(1, 15):
            b = block(Form.EUCLIDEAN, DISC, i, i)
            entry = b.diagonal[0]
            assert entry == pytest.approx(
                math.factorial(i - 1) * math.factorial(i), rel=1e-12
            )
            assert entry > 0

    def test_hyperbolic_h1_vanishes(self):
        b = block(Form.HYPERBOLIC, DISC, 2, 2, h=1.0)
        assert b.diagonal[0] == 0.0

    def test_hyperbolic_h_three_halves(self):
        b = block(Form.HYPERBOLIC, DISC, 2, 2, h=1.5)
        assert b.diagonal[0] == pytest.approx(-1.5, abs=1e-12)

    def test_degree_zero_block_is_zero(self):
        for form in Form:
            assert block(form, DISC, 0, 0, h=0.7).diagonal.tolist() == [0.0]

    def test_block_dimension(self):
        spec = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2)
        b = block(Form.PROJECTIVE, spec, 3, 1, h=0.5)
        # 2 fiber indices of degree 1 times 3 base indices of degree 2
        assert b.diagonal.shape == (2 * 3,)

    def test_projective_factorization(self):
        # blocks factor as Gamma(h+s)Gamma(s+1)/Gamma(h) times the phi^-(h+s)
        # entry Gamma(h+s+k)Gamma(k+1)/Gamma(h+s); reassembled through lgamma
        # as a route independent of the coefficient symbol
        h = 2.7
        for i in range(1, 8):
            for sigma in range(0, i + 1):
                b = block(Form.PROJECTIVE, DISC, i, sigma, h=h)
                factor = math.exp(
                    math.lgamma(h + sigma) - math.lgamma(h) + math.lgamma(sigma + 1)
                )
                # the base part, pochhammer(h + sigma, k) k!, by lgamma too
                k = i - sigma
                base = math.exp(
                    math.lgamma(h + sigma + k) - math.lgamma(h + sigma) + math.lgamma(k + 1)
                )
                expected = factor * base
                got = b.diagonal[0]
                assert got == pytest.approx(expected, rel=1e-10)

    def test_normalization_invariance_of_verdicts(self):
        # coefficient vs derivative normalization differ by a positive
        # diagonal congruence, so entry signs, and with them PSD verdicts and
        # ranks, agree; both match the exact sign counts of the block
        for i, sigma, h in [(3, 1, 0.5), (2, 2, 1.5), (4, 2, 2.0)]:
            b = block(Form.HYPERBOLIC, DISC, i, sigma, h=h)
            scale = np.array(
                [
                    1.0 / (math.factorial(sum(nu)) * math.factorial(sum(a)))
                    for nu in b.fiber_indices
                    for a in b.base_indices
                ]
            )
            signs = np.sign(b.diagonal)
            assert np.array_equal(np.sign(scale * b.diagonal * scale), signs)
            pos, neg = _block_counts(Form.HYPERBOLIC, DISC, h, i)[i, sigma]
            assert (pos, neg) == (np.sum(signs > 0), np.sum(signs < 0))


_CATALOG = {
    "disc": HartogsSpec(BaseDomainSpec.disc(0.5), 1),
    "ball2": HartogsSpec(BaseDomainSpec.ball(2, 1.5), 2),
    "polydisc": HartogsSpec(BaseDomainSpec.polydisc((1 / 3, 2.0)), 1),
    "cartan_1x3": HartogsSpec(BaseDomainSpec.cartan_type_i(1, 3, 1.0), 1),
    "fock": HartogsSpec(BaseDomainSpec.fock(2, 0.7), 1),
}


@pytest.mark.parametrize("name", sorted(_CATALOG))
@pytest.mark.parametrize("form", list(Form))
def test_blocks_equal_block_bit_for_bit(name, form):
    # one sweep shares its tables; each block stays the float block() gives
    spec = _CATALOG[name]
    for h in (None, 0.3, 1.0, 2.5):
        swept = list(series.blocks(form, spec, 12, h))
        assert [(b.total_degree, b.fiber_degree) for b in swept] == [
            (i, sigma) for i in range(13) for sigma in range(i, -1, -1)
        ]
        for b in swept:
            alone = block(form, spec, b.total_degree, b.fiber_degree, h)
            assert b.fiber_indices == alone.fiber_indices
            assert b.base_indices == alone.base_indices
            assert b.diagonal.tobytes() == alone.diagonal.tobytes()


class TestResolvability:
    def test_hyperbolic_h1_rank_two(self):
        v = resolvability(Form.HYPERBOLIC, DISC, h=1.0, truncation_degree=10)
        assert v.all_psd
        assert v.rank_lower_bound == 2

    def test_hyperbolic_h_half_all_psd(self):
        v = resolvability(Form.HYPERBOLIC, DISC, h=0.5, truncation_degree=10)
        assert v.all_psd

    def test_hyperbolic_h_three_halves_fails_at_top_fiber(self):
        v = resolvability(Form.HYPERBOLIC, DISC, h=1.5, truncation_degree=10)
        assert not v.all_psd
        assert (v.first_failure.total_degree, v.first_failure.fiber_degree) == (2, 2)
        assert v.first_failure.min_eigenvalue == pytest.approx(-1.5, abs=1e-10)

    def test_projective_all_psd(self):
        for h in (0.3, 1.0, 2.7):
            v = resolvability(Form.PROJECTIVE, DISC, h=h, truncation_degree=10)
            assert v.all_psd

    def test_euclidean_disc_and_fock(self):
        for spec in (DISC, FOCK):
            v = resolvability(Form.EUCLIDEAN, spec, truncation_degree=10)
            assert v.all_psd

    def test_euclidean_rank_grows(self):
        ranks = [
            resolvability(Form.EUCLIDEAN, DISC, truncation_degree=t).rank_lower_bound
            for t in (4, 6, 8, 10)
        ]
        assert ranks == sorted(ranks)
        assert all(b > a for a, b in zip(ranks, ranks[1:]))

    def test_euclidean_implies_projective(self):
        for h in (0.3, 0.5, 1.0, 1.5, 2.7):
            for spec in (DISC, FOCK, HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1)):
                if resolvability(Form.EUCLIDEAN, spec, truncation_degree=6).all_psd:
                    assert resolvability(
                        Form.PROJECTIVE, spec, h=h, truncation_degree=6
                    ).all_psd

    def test_fock_hyperbolic_fails_quickly(self):
        for h in (0.5, 1.0, 2.0):
            v = resolvability(Form.HYPERBOLIC, FOCK, h=h, truncation_degree=4)
            assert not v.all_psd
            assert v.first_failure.total_degree == 2


class TestDoubleRange:
    def test_block_past_double_range_names_the_block(self):
        with pytest.raises(CapabilityError, match=r"euclidean .*\(i=99, sigma=99\)"):
            block(Form.EUCLIDEAN, DISC, 99, 99)

    def test_factorial_past_170_is_a_capability_error(self):
        # the h = 1 hyperbolic top-fiber entries are exact zeros up to 170!
        assert block(Form.HYPERBOLIC, DISC, 170, 170, h=1.0).diagonal[0] == 0.0
        with pytest.raises(CapabilityError, match=r"\(i=171, sigma=171\)"):
            block(Form.HYPERBOLIC, DISC, 171, 171, h=1.0)

    @pytest.mark.parametrize(
        "form, spec, h, first_bad",
        [
            (Form.EUCLIDEAN, DISC, None, (99, 99)),
            # inf * 0 = NaN: an exact zero prefactor times an infinite base value
            (Form.HYPERBOLIC, DISC, 1.0, (101, 3)),
            # every entry through degree 170 is finite; 171! is not a double
            (Form.HYPERBOLIC, HartogsSpec(BaseDomainSpec.fock(1, 1e-3), 1), 1.0, (171, 171)),
        ],
        ids=["euclidean_disc", "hyperbolic_disc_nan", "hyperbolic_fock_factorial"],
    )
    def test_sweep_stops_at_the_first_block_past_the_double_range(self, form, spec, h, first_bad):
        swept = []
        with pytest.raises(CapabilityError) as err:
            for b in series.blocks(form, spec, first_bad[0] + 5, h):
                swept.append(b)
        i, sigma = first_bad
        assert f"(i={i}, sigma={sigma})" in str(err.value)
        # every earlier block in traversal order; a sample of them equals block()
        assert len(swept) == i * (i + 1) // 2 + i - sigma
        for b in swept[:: max(1, len(swept) // 200)] + swept[-3:]:
            alone = block(form, spec, b.total_degree, b.fiber_degree, h)
            assert b.diagonal.tobytes() == alone.diagonal.tobytes()
        with pytest.raises(CapabilityError, match=re.escape(str(err.value))):
            block(form, spec, i, sigma, h)

    def test_fock_log_block_reads_no_factorial_past_170(self):
        # -log phi of a fock base is -mu |z|^2: zero past degree 1, at any degree
        assert not block(Form.EUCLIDEAN, FOCK, 175, 0).diagonal.any()

    def test_non_finite_entry_is_not_an_obstruction(self):
        # in floats (101, 3) holds inf * 0 = NaN; its exact entry is 0
        v = resolvability(Form.HYPERBOLIC, DISC, h=1.0, truncation_degree=120)
        assert v.all_psd
        assert v.rank_lower_bound == 2

    def test_rank_is_not_capped_by_infinite_entries(self):
        # every block of the disc past degree 0 holds one positive entry,
        # though past degree ~100 it leaves the double range
        for t in (120, 150):
            v = resolvability(Form.EUCLIDEAN, DISC, truncation_degree=t)
            assert v.all_psd
            assert v.rank_lower_bound == math.comb(t + 2, 2) - 1

    def test_partial_sum_past_double_range(self):
        with pytest.raises(CapabilityError, match="euclidean series"):
            series_partial_sum(DISC, [[0.1, 0.1]], 180)

    @pytest.mark.parametrize(
        "h", [math.nan, math.inf, 0.0, -1.0, Fraction(1, 10**400), Fraction(10**400)]
    )
    def test_scale_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            resolvability(Form.PROJECTIVE, DISC, h=h)
        with pytest.raises(ValueError, match="positive and finite"):
            block(Form.PROJECTIVE, DISC, 2, 1, h=h)


# The benchmark catalog: every factor kind, one and two fibers, two factors.
CATALOG = [
    HartogsSpec(BaseDomainSpec.disc(0.5), 1),
    HartogsSpec(BaseDomainSpec.disc(1.0), 1),
    HartogsSpec(BaseDomainSpec.disc(2.0), 1),
    HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2),
    HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2),
    HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1),
    HartogsSpec(BaseDomainSpec.polydisc((0.5, 1.0)), 1),
    HartogsSpec(BaseDomainSpec.cartan_type_i(1, 3, 1.0), 1),
    HartogsSpec(BaseDomainSpec.fock(2, 1.0), 2),
]


@functools.cache
def _exact_coefficient(fock: bool, a: Fraction, k: int) -> Fraction:
    """a^k (fock) or the rising product (a)_k, multiplied out term by term."""
    return a**k if fock else _rising(a, k)


def _multi_factorial(m) -> int:
    return math.prod(map(math.factorial, m))


def _exact_entries(form, spec, h, sigma, fiber_indices, base_indices):
    """Each exact block entry, in block order, from the series as written:
    P_sigma sigma! nu! times, per factor, the coefficient of phi_i^-s (or of
    -log phi) times the factorials of the factor's part of alpha."""
    base = spec.base
    h = _exact(h)
    fock = base.kind is DomainKind.FOCK
    if form is Form.EUCLIDEAN:
        prefactor, s = h * math.factorial(max(sigma - 1, 0)), Fraction(sigma)
    elif form is Form.PROJECTIVE:
        prefactor, s = _rising(h, sigma), h + sigma
    else:
        prefactor, s = -_rising(-h, sigma), sigma - h
    values = []
    for alpha in base_indices:
        parts = [(sum(alpha[sl]), mu) for sl, mu in zip(base.factor_slices, base.exponents)]
        if form is Form.EUCLIDEAN and sigma == 0:
            # -log phi = sum_i -mu_i log phi_i: mu_i sum_k x^k / k, or mu_i x for fock
            live = [(k, mu) for k, mu in parts if k]
            k, mu = live[0] if len(live) == 1 else (0, 0)
            value = mu * (int(k == 1) if fock else math.factorial(k - 1)) if k else Fraction(0)
        else:
            value = math.prod(
                (_exact_coefficient(fock, mu * s, k) for k, mu in parts), start=Fraction(1)
            )
        values.append(value * _multi_factorial(alpha))
    return [prefactor * _multi_factorial(nu) * v for nu in fiber_indices for v in values]


# The per-sigma sweep that the row-group tables replaced, kept as the
# reference they must reproduce.


def _pochhammer_signs(a: Fraction, k_max: int) -> np.ndarray:
    """Signs of pochhammer(a, k) for k = 0..k_max, from the exact rational a."""
    k = np.arange(k_max + 1)
    negatives = min(k_max, max(0, math.ceil(-a)))
    signs = np.where(np.minimum(k, negatives) % 2, -1, 1)
    if a.denominator == 1 and a <= 0:
        signs[k > -a] = 0
    return signs


def _power_signs(fock: bool, a: Fraction, k_max: int) -> np.ndarray:
    if not fock:
        return _pochhammer_signs(a, k_max)
    signs = np.ones(k_max + 1, dtype=int)
    if a < 0:
        signs[1::2] = -1
    elif a == 0:
        signs[1:] = 0
    return signs


def _sign_counts(form, spec, h, truncation_degree):
    """Yields (sigma, pos, neg) for sigma = 0..T, where pos[m] and neg[m]
    count the entries of block (sigma + m, sigma), m = 0..T - sigma."""
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
            pos[0] = neg[0] = 0
        yield sigma, pos, neg


def _reference_verdict(form, spec, h, t):
    rank, first = 0, None
    for sigma, pos, neg in _sign_counts(form, spec, h, t):
        rank += int(pos.sum())
        failing = np.flatnonzero(neg)
        if failing.size:
            i = sigma + int(failing[0])
            if first is None or i <= first[0]:
                first = (i, sigma)
    failure = None
    if first is not None:
        try:
            failure = BlockFailure(*first, float(np.min(block(form, spec, *first, h=h).diagonal)))
        except CapabilityError:
            failure = BlockFailure(*first, None)
    return ResolvabilityVerdict(form, _exact(h), t, first is None, rank, failure)


# Radial bases with positive exponents, for the degree-2 test.
_MU = st.sampled_from([0.01, 1 / 3, 0.5, 1.0, 2.0, 3.0])
RADIAL_BASES = st.one_of(
    st.builds(BaseDomainSpec.disc, _MU),
    st.builds(BaseDomainSpec.ball, st.integers(2, 3), _MU),
    st.builds(BaseDomainSpec.polydisc, st.lists(_MU, min_size=2, max_size=3)),
    st.builds(lambda n, mu: BaseDomainSpec.cartan_type_i(1, n, mu), st.integers(2, 3), _MU),
    st.builds(BaseDomainSpec.fock, st.integers(1, 2), _MU),
)


class TestExactSweep:
    def test_pochhammer_signs_match_products(self):
        nums = range(-60, 61)
        for symbol in (_BALL_LIKE, _FOCK):
            c, zero = map(np.array, zip(*(symbol.signs(n, 6, 13) for n in nums)))
            for n, row in zip(nums, _sign_table(c, zero, 13)):
                a = Fraction(n, 6)
                values = (a**k if symbol.fock else _rising(a, k) for k in range(13))
                assert row.tolist() == [(p > 0) - (p < 0) for p in values], (a, symbol)
                assert row.tolist() == np.sign(symbol.values(n, 6, 12)).tolist(), (a, symbol)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(range(len(CATALOG))),
        st.sampled_from(list(Form)),
        st.one_of(
            st.builds(lambda n, d: n / d, st.integers(1, 40), st.integers(1, 12)),
            st.floats(min_value=0.05, max_value=4.0),
        ),
        st.integers(min_value=2, max_value=60),
        st.one_of(st.integers(min_value=1, max_value=400), st.just(series._GROUP_ENTRIES)),
    )
    # one row per group: the disc's (2, 0) and (2, 2) failures tie across groups
    @example(which=1, form=Form.HYPERBOLIC, h=1.5, t=10, entries=1)
    def test_tables_match_the_per_sigma_reference(self, which, form, h, t, entries):
        spec = CATALOG[which]
        with mock.patch.object(series, "_GROUP_ENTRIES", entries):
            got = resolvability(form, spec, h=h, truncation_degree=t)
        assert got == _reference_verdict(form, spec, h, t)

    @settings(max_examples=40, deadline=None)
    @given(
        RADIAL_BASES,
        st.integers(min_value=1, max_value=3),
        st.sampled_from(list(Form)),
        st.one_of(
            st.sampled_from([0.5, 1.0, 1 + 2**-52, 1.5, 2.0, 100.0]),
            st.floats(min_value=0.05, max_value=100.0),
        ),
    )
    def test_degree_two_decides_every_degree(self, base, d0, form, h):
        spec = HartogsSpec(base, d0)
        low, high = (resolvability(form, spec, h=h, truncation_degree=t) for t in (2, 200))
        assert (low.all_psd, low.first_failure) == (high.all_psd, high.first_failure)

    def test_disc_rank_is_closed_form_at_truncation_1000(self):
        v = resolvability(Form.EUCLIDEAN, DISC, truncation_degree=1000)
        assert v.all_psd and v.rank_lower_bound == math.comb(1002, 2) - 1
        assert resolvability(Form.PROJECTIVE, DISC, truncation_degree=1000).all_psd
        v = resolvability(Form.HYPERBOLIC, DISC, h=1.0, truncation_degree=1000)
        assert v.all_psd and v.rank_lower_bound == 2

    def test_ball3_rank_is_closed_form_at_truncation_200(self):
        spec = HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2)
        v = resolvability(Form.EUCLIDEAN, spec, truncation_degree=200)
        assert v.all_psd and v.rank_lower_bound == math.comb(205, 5) - 1 == 2_872_408_790

    def test_huge_counts_stay_exact(self):
        # C(n + T, T) past 2^63 switches the counts to Python integers
        spec = HartogsSpec(BaseDomainSpec.ball(10, 1.0), 10)
        v = resolvability(Form.EUCLIDEAN, spec, truncation_degree=80)
        assert v.rank_lower_bound == math.comb(100, 20) - 1 > 2**64

    def test_first_failure_is_assembled_in_floats(self):
        v = resolvability(Form.HYPERBOLIC, HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1),
                          h=0.5, truncation_degree=8)
        b = block(Form.HYPERBOLIC, HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1),
                  v.first_failure.total_degree, v.first_failure.fiber_degree, h=0.5)
        assert v.first_failure.min_eigenvalue == float(b.diagonal.min()) < 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(range(len(CATALOG))),
        st.sampled_from(list(Form)),
        st.one_of(
            st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.7]),
            st.floats(min_value=0.05, max_value=4.0),
        ),
        st.integers(min_value=2, max_value=12),
    )
    def test_exact_signs_agree_with_float_blocks(self, which, form, h, t):
        spec = CATALOG[which]
        exact_rank = old_rank = 0
        for (i, sigma), (pos, neg) in _block_counts(form, spec, h, t).items():
            b = block(form, spec, i, sigma, h=h)
            fibers = len(b.fiber_indices)
            signs = np.sign(
                _exact_entries(form, spec, h, sigma, b.fiber_indices, b.base_indices)
            ) if i else np.zeros(1)
            assert (pos, neg) == (np.sum(signs > 0), np.sum(signs < 0)), (i, sigma)
            # the former float rule: entries beyond 1e-10 (1 + max |d|) count
            tol = 1e-10 * (1.0 + float(np.max(np.abs(b.diagonal))))
            beyond = np.abs(b.diagonal) > tol
            assert np.array_equal(np.sign(b.diagonal[beyond]), signs[beyond]), (i, sigma)
            exact_rank += int(pos)
            old_rank += int(np.count_nonzero(b.diagonal > tol))
        assert resolvability(form, spec, h=h, truncation_degree=t).rank_lower_bound == exact_rank
        assert exact_rank >= old_rank


# Every catalog kind, at integer and non-integer exponents and fiber dims.
EXACT_CATALOG = {
    "disc_1_2": HartogsSpec(BaseDomainSpec.disc(Fraction(1, 2)), 1),
    "disc_1_3": HartogsSpec(BaseDomainSpec.disc(Fraction(1, 3)), 1),
    "disc_2_c2": HartogsSpec(BaseDomainSpec.disc(2), 2),
    "ball2_3_4_c2": HartogsSpec(BaseDomainSpec.ball(2, Fraction(3, 4)), 2),
    "polydisc_1_2_1": HartogsSpec(BaseDomainSpec.polydisc((Fraction(1, 2), 1)), 1),
    "polydisc_1_2": HartogsSpec(BaseDomainSpec.polydisc((1, 2)), 1),
    "cartan_1x3": HartogsSpec(BaseDomainSpec.cartan_type_i(1, 3, 1), 1),
    "fock1_1_3": HartogsSpec(BaseDomainSpec.fock(1, Fraction(1, 3)), 1),
    "fock2_1": HartogsSpec(BaseDomainSpec.fock(2, 1), 1),
}


@pytest.mark.parametrize("name", sorted(EXACT_CATALOG))
def test_block_entries_are_their_exact_rationals_rounded(name):
    spec = EXACT_CATALOG[name]
    # each factor value is rounded once and an entry is a product of a few of
    # them, so it lies within a few half-ulps of its exact rational
    worst = Fraction(0)
    for form in Form:
        for h in (Fraction(1, 2), 1, Fraction(3, 2), Fraction(27, 10)):
            for b in series.blocks(form, spec, 12, h):
                if b.total_degree == 0:
                    continue
                exact = _exact_entries(
                    form, spec, h, b.fiber_degree, b.fiber_indices, b.base_indices
                )
                for got, x in zip(b.diagonal.tolist(), exact):
                    assert (got == 0) == (x == 0), (form, h, b.total_degree, b.fiber_degree)
                    if x:
                        worst = max(worst, abs(Fraction(got) / x - 1))
    assert worst <= Fraction(1, 10**15), float(worst)


class TestSeries:
    """The Euclidean partial sums against the diastasis from the origin,
    which is the scaled potential itself."""

    def test_value_at_origin(self):
        assert hartogs_potential(DISC, [[0.0, 0.0]])[0] == pytest.approx(0.0)

    def test_value_matches_potential(self):
        assert hartogs_potential(DISC, [[0.1, 0.1]])[0] == pytest.approx(
            -math.log(1 - 0.01 - 0.01), rel=1e-12
        )

    def test_partial_sum_converges(self):
        p = [[0.1, 0.1]]
        value = hartogs_potential(DISC, p)[0]
        partial = series_partial_sum(DISC, p, 12)[0]
        assert abs(partial - value) <= 1e-8

    def test_error_decreases_with_degree(self):
        p = [[0.08 + 0.03j, 0.07 - 0.02j]]
        value = hartogs_potential(DISC, p)[0]
        errors = [abs(series_partial_sum(DISC, p, t)[0] - value) for t in range(2, 13, 2)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_partial_sum_past_degree_twelve(self):
        # from T = 13 on, (m!)^2 of a single-index row leaves the int64 range
        p = [[0.08 + 0.03j, 0.07 - 0.02j], [0.1, 0.1]]
        value = hartogs_potential(DISC, p)
        for t in (13, 16, 20):
            sums = series_partial_sum(DISC, p, t)
            assert sums.dtype == np.float64
            assert sums == pytest.approx(value, rel=1e-13)
            assert sums[1] == series_partial_sum(DISC, p[1:], t)[0]

    def test_fiber_rotation_invariance(self):
        p, q = series_partial_sum(DISC, [[0.1, 0.1], [0.1 * np.exp(1.2j), 0.1]], 8)
        assert p == pytest.approx(q, rel=1e-12)

    def test_scale_enters_series(self):
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1, scale=2.0)
        p = [[0.1, 0.1]]
        assert series_partial_sum(spec, p, 12)[0] == pytest.approx(
            2 * series_partial_sum(DISC, p, 12)[0], rel=1e-10
        )

    def test_multifiber_partial_sum(self):
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 2)
        p = [[0.07, 0.05j, 0.1]]
        assert series_partial_sum(spec, p, 12)[0] == pytest.approx(
            hartogs_potential(spec, p)[0], abs=1e-8
        )

    def test_rows_sum_alone(self):
        # each row of a stack gives the floats of its one-row stack
        spec = HartogsSpec(BaseDomainSpec.polydisc((0.5, 2.0)), 2)
        rng = np.random.default_rng(4)
        stack = 0.08 * (rng.uniform(-1, 1, (6, 4)) + 1j * rng.uniform(-1, 1, (6, 4)))
        sums = series_partial_sum(spec, stack, 6)
        for r, row in enumerate(stack):
            assert sums[r] == series_partial_sum(spec, row[None], 6)[0]

    def test_radius_guard(self):
        with pytest.raises(ValueError, match="0.3"):
            series_partial_sum(DISC, [[0.4, 0.0]], 4)
        with pytest.raises(ValueError, match="0.3"):
            series_partial_sum(DISC, [[0.1, 0.0], [0.4, 0.0]], 4)


class TestAudit:
    def test_disc_off_structure_vanishes(self):
        audit = cross_coefficient_audit(DISC)
        assert len(audit.pair_values) == 64  # every violating pair of degree <= 4
        assert audit.max_off_structure == 0.0

    def test_ball3_off_structure_vanishes(self):
        # n = 4: 245,025 terms per product at bidegree (4, 4)
        audit = cross_coefficient_audit(HartogsSpec(BaseDomainSpec.ball(3, 1.0), 1))
        assert len(audit.pair_values) == 438
        assert audit.max_off_structure == 0.0
        assert audit.control_value == pytest.approx(audit.control_expected, rel=1e-14)

    def test_control_pair_matches_analytic(self):
        audit = cross_coefficient_audit(DISC)
        assert audit.control_expected == pytest.approx(1.0)  # Gamma(1)Gamma(2)
        assert audit.control_value == pytest.approx(audit.control_expected, rel=1e-14)

    def test_multifiber_block_matches_fd(self):
        # d0 = 2: multinomial fiber expansion against the origin coefficients
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 2)
        b = block(Form.EUCLIDEAN, spec, 2, 2)
        idx = {nu: k for k, nu in enumerate(b.fiber_indices)}
        coefficients = origin_coefficients(Form.EUCLIDEAN, spec)
        for nu in ((2, 0), (1, 1)):
            m = nu + (0,)
            assert b.diagonal[idx[nu]] == pytest.approx(coefficients[(m, m)].real, rel=1e-12)


def _oracle_gaps(form, spec, h):
    """Largest |a_jk| over j != k, and the largest relative gap between the
    diagonal a_jj and its block() entry, through side degree ORACLE_DEGREE."""
    coefficients = origin_coefficients(form, spec, h)
    cross = max(abs(a) for (j, k), a in coefficients.items() if j != k)
    gaps = []
    for i in range(ORACLE_DEGREE + 1):
        for sigma in range(i + 1):
            b = block(form, spec, i, sigma, h=h)
            rows = [nu + alpha for nu in b.fiber_indices for alpha in b.base_indices]
            gaps += [
                abs(coefficients[(m, m)] - entry) / max(1.0, abs(entry))
                for m, entry in zip(rows, b.diagonal)
            ]
    return cross, max(gaps)


class TestTorusOracle:
    """The coefficients of the origin jet (:func:`origin_coefficients`),
    which replaced the torus-FFT oracle, against the closed blocks."""

    # circular symmetry leaves every cross coefficient of the jet exactly 0;
    # diagonals carry the round-off of about 30 jet products
    DIAGONAL_TOL = 1e-11

    @pytest.mark.parametrize("form", list(Form))
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_disc_coefficients_match_blocks(self, form, mu):
        spec = HartogsSpec(BaseDomainSpec.disc(mu), 1)
        for h in (0.5, 1.0, 1.5, 2.7):
            cross, gap = _oracle_gaps(form, spec, h)
            assert cross == 0.0, (h, cross)
            assert gap <= self.DIAGONAL_TOL, (h, gap)

    @pytest.mark.parametrize(
        "base",
        [BaseDomainSpec.polydisc((1.0, 2.0)), BaseDomainSpec.fock(1, 1.0)],
        ids=["polydisc_1_2", "fock1"],
    )
    def test_other_factor_kinds_match_blocks(self, base):
        spec = HartogsSpec(base, 1)
        for form in Form:
            cross, gap = _oracle_gaps(form, spec, 1.5)
            assert cross == 0.0 and gap <= self.DIAGONAL_TOL, (form, cross, gap)

    def test_known_entries(self):
        fiber = ((2, 0), (2, 0))
        euclidean = origin_coefficients(Form.EUCLIDEAN, DISC)
        assert euclidean[fiber] == pytest.approx(2.0, rel=1e-14)
        # criterion 5's obstruction: 1 - (1 - t)^(3/2) has t^2 entry -1.5
        hyperbolic = origin_coefficients(Form.HYPERBOLIC, DISC, h=1.5)
        assert hyperbolic[fiber] == pytest.approx(-1.5, rel=1e-14)

    def test_polarized_potential_restates_the_potential(self):
        # the jet's constant term against the factor kernels of domains
        for spec in (DISC, HartogsSpec(BaseDomainSpec.polydisc((0.5, 2.0)), 2, scale=1.5), FOCK):
            pts = sample_points(spec, 5, seed=3)
            jets = spec.scale * _potential_jets(spec, coordinate_stack(spec, pts), (2, 2))[0]
            for value, potential in zip(jets[:, 0, 0], hartogs_potential(spec, pts)):
                assert value == pytest.approx(potential, rel=1e-12)

    def test_term_cap(self):
        # n = 5: C(14, 4)^2 terms per product at bidegree (4, 4)
        spec = HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2)
        with pytest.raises(CapabilityError, match="1002001 terms"):
            origin_coefficients(Form.EUCLIDEAN, spec)

    def test_rank_two_cartan_raises(self):
        spec = HartogsSpec(BaseDomainSpec.cartan_type_i(2, 2, 1.0), 1)
        with pytest.raises(CapabilityError, match="rank >= 2"):
            origin_coefficients(Form.PROJECTIVE, spec)

    def test_large_exponent_matches_blocks(self):
        # the torus left the principal branch of the potential at mu = 60
        spec = HartogsSpec(BaseDomainSpec.disc(60.0), 1)
        for form in Form:
            cross, gap = _oracle_gaps(form, spec, 1.5)
            assert cross == 0.0 and gap <= self.DIAGONAL_TOL, (form, cross, gap)
