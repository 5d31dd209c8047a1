import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs.domains import (
    BaseDomainSpec,
    DomainKind,
    HartogsSpec,
    _exact,
    hartogs_potential,
    sample_points,
)
from hartogs.errors import CapabilityError
from hartogs.series import (
    ORACLE_DEGREE,
    Form,
    _polarized_potential,
    _pochhammer_signs,
    _sign_counts,
    base_power_coefficients,
    block,
    cross_coefficient_audit,
    enumerate_indices,
    grade_indices,
    pochhammer,
    power_deriv,
    resolvability,
    series_partial_sum,
    torus_coefficients,
)

DISC = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
FOCK = HartogsSpec(BaseDomainSpec.fock(1, 1.0), 1)


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


class TestGammaFactors:
    def test_pochhammer_basic(self):
        assert pochhammer(1.0, 2) == 2.0
        assert pochhammer(-1.0, 2) == 0.0  # exact zero at integer h
        assert pochhammer(-1.5, 2) == pytest.approx(0.75)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.integers(min_value=0, max_value=25),
    )
    def test_gamma_ratio_matches_lgamma(self, h, sigma):
        via_lgamma = math.exp(
            math.lgamma(h + sigma) - math.lgamma(h) + math.lgamma(sigma + 1)
        )
        gamma_ratio = pochhammer(h, sigma) * math.factorial(sigma)
        assert gamma_ratio == pytest.approx(via_lgamma, rel=1e-11)

    def test_overflow_is_left_infinite(self):
        assert pochhammer(1.5, 200) == math.inf
        assert pochhammer(-0.5, 200) == -math.inf
        assert pochhammer(-150.0, 200) == 0.0  # an exact zero wins over overflow


class TestBaseTables:
    def test_disc_geometric_series(self):
        # s=1, k=2: geometric coefficient 1, derivative (2!)^2 = 4
        table = base_power_coefficients(BaseDomainSpec.disc(1.0), 1.0, 2)
        assert table[((2,), (2,))] == pytest.approx(4.0)

    def test_fock_linear(self):
        table = base_power_coefficients(BaseDomainSpec.fock(1, 1.0), 2.0, 1)
        assert table[((1,), (1,))] == pytest.approx(2.0)

    def test_zero_power_is_trivial(self):
        table = base_power_coefficients(BaseDomainSpec.disc(1.0), 0.0, 3)
        assert table[((0,), (0,))] == pytest.approx(1.0)
        assert all(
            v == 0.0 for (a, _), v in table.items() if sum(a) > 0
        )

    def test_polydisc_factorizes(self):
        base = BaseDomainSpec.polydisc((1.0, 2.0))
        v = power_deriv(base, 1.5, (2, 1))
        expected = pochhammer(1.5, 2) * 2.0 * pochhammer(3.0, 1) * 1.0
        assert v == pytest.approx(expected, rel=1e-13)

    def test_cartan_rank_two_unsupported(self):
        with pytest.raises(CapabilityError, match="rank >= 2"):
            power_deriv(BaseDomainSpec.cartan_type_i(2, 2, 1.0), 1.0, (0,) * 4)

    def test_cartan_rank_one_supported(self):
        base = BaseDomainSpec.cartan_type_i(1, 2, 1.0)
        assert power_deriv(base, 1.0, (1, 0)) == pytest.approx(1.0)


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
        # table; reassemble through lgamma as an independent route
        h = 2.7
        for i in range(1, 8):
            for sigma in range(0, i + 1):
                b = block(Form.PROJECTIVE, DISC, i, sigma, h=h)
                factor = math.exp(
                    math.lgamma(h + sigma) - math.lgamma(h) + math.lgamma(sigma + 1)
                )
                alpha = (i - sigma,)
                expected = factor * power_deriv(DISC.base, h + sigma, alpha)
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
            pos, neg = next(
                (p, n) for s, p, n in _sign_counts(Form.HYPERBOLIC, DISC, h, i) if s == sigma
            )
            assert (pos[i - sigma], neg[i - sigma]) == (np.sum(signs > 0), np.sum(signs < 0))


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

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1.0])
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


def _exact_entry_signs(form, spec, h, i, sigma, base_indices):
    """Sign of each exact block entry, by multiplying out the rational
    Pochhammer terms (or fock powers) one by one."""
    base = spec.base
    h = _exact(h)
    fock = base.kind is DomainKind.FOCK
    if form is Form.EUCLIDEAN and sigma == 0:
        out = []
        for alpha in base_indices:
            degrees = [sum(alpha[sl]) for sl in base.factor_slices]
            support = [k for k in degrees if k]
            out.append(int(len(support) == 1 and (not fock or support[0] == 1)))
        return out
    if form is Form.EUCLIDEAN:
        prefactor, s = Fraction(1), Fraction(sigma)
    elif form is Form.PROJECTIVE:
        prefactor, s = math.prod(h + t for t in range(sigma)), h + sigma
    else:
        prefactor, s = -math.prod(-h + t for t in range(sigma)), sigma - h
    out = []
    for alpha in base_indices:
        value = prefactor
        for sl, mu in zip(base.factor_slices, base.exponents):
            a, k = _exact(mu) * s, sum(alpha[sl])
            value *= a**k if fock else math.prod(a + t for t in range(k))
        out.append((value > 0) - (value < 0))
    return out


class TestExactSweep:
    def test_pochhammer_signs_match_products(self):
        for a in [Fraction(n, 6) for n in range(-60, 61)]:
            want = [
                (p > 0) - (p < 0)
                for p in (math.prod(a + t for t in range(k)) for k in range(13))
            ]
            assert _pochhammer_signs(a, 12).tolist() == want, a

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
        for sigma, pos, neg in _sign_counts(form, spec, h, t):
            for m in range(len(pos)):
                i = sigma + m
                b = block(form, spec, i, sigma, h=h)
                fibers = len(b.fiber_indices)
                signs = np.tile(
                    _exact_entry_signs(form, spec, h, i, sigma, b.base_indices), fibers
                ) if i else np.zeros(1)
                assert (pos[m], neg[m]) == (np.sum(signs > 0), np.sum(signs < 0)), (i, sigma)
                # the former float rule: entries beyond 1e-10 (1 + max |d|) count
                tol = 1e-10 * (1.0 + float(np.max(np.abs(b.diagonal))))
                beyond = np.abs(b.diagonal) > tol
                assert np.array_equal(np.sign(b.diagonal[beyond]), signs[beyond]), (i, sigma)
                exact_rank += int(pos[m])
                old_rank += int(np.count_nonzero(b.diagonal > tol))
        assert resolvability(form, spec, h=h, truncation_degree=t).rank_lower_bound == exact_rank
        assert exact_rank >= old_rank


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
        assert audit.max_off_structure <= 1e-5

    def test_control_pair_matches_analytic(self):
        audit = cross_coefficient_audit(DISC)
        assert audit.control_expected == pytest.approx(1.0)  # Gamma(1)Gamma(2)
        assert audit.control_value == pytest.approx(audit.control_expected, abs=1e-5)

    def test_multifiber_block_matches_fd(self):
        # d0 = 2: multinomial fiber expansion against the torus coefficients
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 2)
        b = block(Form.EUCLIDEAN, spec, 2, 2)
        idx = {nu: k for k, nu in enumerate(b.fiber_indices)}
        coefficients = torus_coefficients(Form.EUCLIDEAN, spec)
        for nu in ((2, 0), (1, 1)):
            m = nu + (0,)
            assert b.diagonal[idx[nu]] == pytest.approx(coefficients[(m, m)].real, abs=1e-5)


def _oracle_gaps(form, spec, h):
    """Largest |a_jk| over j != k, and the largest relative gap between the
    diagonal a_jj and its block() entry, through side degree ORACLE_DEGREE."""
    coefficients = torus_coefficients(form, spec, h)
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
    # round-off bound j! k! eps / r^(|j|+|k|) at side degree 4, times max |F|
    CROSS_TOL = 1e-8

    @pytest.mark.parametrize("form", list(Form))
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_disc_coefficients_match_blocks(self, form, mu):
        spec = HartogsSpec(BaseDomainSpec.disc(mu), 1)
        for h in (0.5, 1.0, 1.5, 2.7):
            cross, gap = _oracle_gaps(form, spec, h)
            assert cross <= self.CROSS_TOL, (h, cross)
            assert gap <= 1e-5, (h, gap)

    @pytest.mark.parametrize(
        "base",
        [BaseDomainSpec.polydisc((1.0, 2.0)), BaseDomainSpec.fock(1, 1.0)],
        ids=["polydisc_1_2", "fock1"],
    )
    def test_other_factor_kinds_match_blocks(self, base):
        spec = HartogsSpec(base, 1)
        for form in Form:
            cross, gap = _oracle_gaps(form, spec, 1.5)
            assert cross <= self.CROSS_TOL and gap <= 1e-5, (form, cross, gap)

    def test_known_entries(self):
        fiber = ((2, 0), (2, 0))
        euclidean = torus_coefficients(Form.EUCLIDEAN, DISC)
        assert euclidean[fiber] == pytest.approx(2.0, abs=1e-8)
        # criterion 5's obstruction: 1 - (1 - t)^(3/2) has t^2 entry -1.5
        hyperbolic = torus_coefficients(Form.HYPERBOLIC, DISC, h=1.5)
        assert hyperbolic[fiber] == pytest.approx(-1.5, abs=1e-8)

    def test_polarized_potential_restates_the_potential(self):
        for spec in (DISC, HartogsSpec(BaseDomainSpec.polydisc((0.5, 2.0)), 2, scale=1.5), FOCK):
            pts = sample_points(spec, 5, seed=3)
            for p, potential in zip(pts, hartogs_potential(spec, pts)):
                z = list(p)
                value = _polarized_potential(spec, z, list(np.conj(z)), spec.scale)
                assert value == pytest.approx(potential, rel=1e-12)

    def test_torus_cap(self):
        spec = HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2)
        with pytest.raises(CapabilityError, match="3486784401 points"):
            torus_coefficients(Form.EUCLIDEAN, spec)

    def test_rank_two_cartan_raises(self):
        spec = HartogsSpec(BaseDomainSpec.cartan_type_i(2, 2, 1.0), 1)
        with pytest.raises(CapabilityError, match="rank >= 2"):
            torus_coefficients(Form.PROJECTIVE, spec)

    def test_branch_guard(self):
        # |<z0, w0> / phi| reaches 1 on the r = 1/4 torus once mu is large
        spec = HartogsSpec(BaseDomainSpec.disc(60.0), 1)
        with pytest.raises(CapabilityError, match="principal branch"):
            torus_coefficients(Form.EUCLIDEAN, spec)
