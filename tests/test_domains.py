import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs.domains import (
    MIN_INTERIOR_MARGIN,
    BaseDomainSpec,
    DomainKind,
    HartogsSpec,
    coordinate_stack,
    hartogs_potential,
    phi_derivatives_stack,
    phi_stack,
    sample_points,
    squared_norms,
    tau_exact,
)
from hartogs.errors import BoundaryViolationError, CapabilityError


def phi(base, z):
    """phi at one base point, as the one-row stack gives it."""
    return float(phi_stack(base, [z])[0])


def base_hessians(base, z):
    """Closed mixed Hessians of -log phi per row of a stack, block diagonal
    by factor."""
    *_, factors = phi_derivatives_stack(base, np.asarray(z, dtype=np.complex128))
    hess = np.zeros((len(z), base.dim, base.dim), dtype=np.complex128)
    for sl, (_, factor_hess) in zip(base.factor_slices, factors):
        hess[:, sl, sl] = factor_hess
    return hess


class TestSpecMetadata:
    def test_ball_constants(self):
        b = BaseDomainSpec.ball(2, 1.0)
        assert b.genus == (3,)
        assert b.einstein_constants == (Fraction(-3),)

    def test_disc_mu_half(self):
        b = BaseDomainSpec.disc(0.5)
        assert b.einstein_constants == (Fraction(-4),)

    def test_polydisc_constants(self):
        b = BaseDomainSpec.polydisc((1.0, 2.0))
        assert b.genus == (2, 2)
        assert b.einstein_constants == (-2.0, -1.0)

    def test_cartan_constants(self):
        b = BaseDomainSpec.cartan_type_i(2, 3, 1.0)
        assert b.dim == 6
        assert b.genus == (5,)
        assert b.einstein_constants == (-5.0,)

    def test_fock_is_flat_and_unbounded(self):
        b = BaseDomainSpec.fock(1, 1.0)
        assert not b.bounded
        assert b.einstein_constants == (Fraction(0),)

    def test_every_constant_is_exact(self):
        # a float exponent is read as its short fraction where that
        # reproduces it, else as the dyadic rational it is
        assert BaseDomainSpec.disc(0.1).einstein_constants == (Fraction(-20),)
        for mu in (math.pi, 1.0000001, 1.000000001):
            (c,) = BaseDomainSpec.disc(mu).einstein_constants
            assert c == Fraction(-2) / Fraction(mu) and c != -2
        # an exact exponent is kept as given, past any short-fraction reading
        b = BaseDomainSpec.polydisc((Fraction(10000001, 20000003), Fraction(10000001, 10000000)))
        assert b.exponents == (Fraction(10000001, 20000003), Fraction(10000001, 10000000))
        assert tau_exact(b) == 0
        assert BaseDomainSpec.ball(2, 3.0).determinant_constants == (Fraction(9),)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            BaseDomainSpec.ball(1, -1.0)
        with pytest.raises(ValueError, match="finite"):
            BaseDomainSpec.disc(Fraction(10**400))  # exact, past the double range
        with pytest.raises(ValueError):
            BaseDomainSpec(DomainKind.POLYDISC, (2,), (1.0,))
        with pytest.raises(ValueError):
            BaseDomainSpec(DomainKind.CARTAN_TYPE_I, (4,), (1.0,))
        with pytest.raises(ValueError):
            HartogsSpec(BaseDomainSpec.disc(1.0), 0)

    def test_rejects_constants_past_the_double_range(self):
        # disc(1e-308): c = -2e308; ball(2, 2.5e-308): c = -1.2e308 is a
        # double, but tau = 6 + 2c is not
        for mu, dim in ((1e-308, 1), (2.5e-308, 2)):
            with pytest.raises(ValueError, match="^exponents .* double range"):
                BaseDomainSpec.ball(dim, mu)
        # ball(2, 1e200): the determinant constant mu^2 = 1e400 is not a double
        with pytest.raises(ValueError, match="^exponents .* double range"):
            BaseDomainSpec.ball(2, 1e200)
        assert BaseDomainSpec.disc(1e200).determinant_constants == (Fraction(1e200),)
        assert float(tau_exact(BaseDomainSpec.disc(1e-300))) == pytest.approx(-2e300)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BaseDomainSpec.disc(bad)
        with pytest.raises(ValueError, match="finite"):
            BaseDomainSpec.polydisc((1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            HartogsSpec(BaseDomainSpec.disc(1.0), 1, scale=bad)

    def test_scale_is_held_exactly(self):
        # a float scale is read as its short fraction, so equal scales compare equal
        base = BaseDomainSpec.disc(1.0)
        assert HartogsSpec(base, 1).scale == Fraction(1)
        assert HartogsSpec(base, 1, scale=1 / 3) == HartogsSpec(base, 1, scale=Fraction(1, 3))
        assert type(HartogsSpec(base, 1, scale=0.1).scale) is Fraction


class TestPhi:
    def test_center_value(self):
        assert phi(BaseDomainSpec.disc(1.0), [0.0]) == pytest.approx(1.0)

    def test_disc_mu_two(self):
        # (1 - 0.25)^2 = 0.5625
        assert phi(BaseDomainSpec.disc(2.0), [0.5]) == pytest.approx(0.5625)

    def test_fock_unrestricted(self):
        assert phi(BaseDomainSpec.fock(1, 1.0), [1.0]) == pytest.approx(math.exp(-1))

    def test_polydisc_multiplicative(self):
        b = BaseDomainSpec.polydisc((1.0, 2.0))
        z1, z2 = 0.3 + 0.1j, -0.2 + 0.4j
        expected = (1 - abs(z1) ** 2) * (1 - abs(z2) ** 2) ** 2
        assert phi(b, [z1, z2]) == pytest.approx(expected, rel=1e-14)

    def test_outside_raises_with_margin(self):
        with pytest.raises(BoundaryViolationError) as err:
            phi(BaseDomainSpec.disc(1.0), [1.2])
        assert err.value.margin < 0

    def test_cartan_m1_equals_ball(self):
        b_cartan = BaseDomainSpec.cartan_type_i(1, 2, 1.5)
        b_ball = BaseDomainSpec.ball(2, 1.5)
        z = [0.2 + 0.1j, -0.3j]
        assert phi(b_cartan, z) == pytest.approx(phi(b_ball, z), rel=1e-13)

    def test_cartan_membership(self):
        b = BaseDomainSpec.cartan_type_i(2, 2, 1.0)
        z = 0.4 * np.eye(2).reshape(-1)
        assert phi(b, z) == pytest.approx((1 - 0.16) ** 2, rel=1e-13)
        # outside, the error names the least eigenvalue of I - z z*
        with pytest.raises(BoundaryViolationError) as err:
            phi(b, np.eye(2).reshape(-1) * 1.1)
        assert err.value.margin == pytest.approx(1 - 1.21)


class TestHartogsPotential:
    def test_center(self):
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        assert hartogs_potential(spec, [[0.0, 0.0]])[0] == pytest.approx(0.0)

    def test_disc_value(self):
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        val = hartogs_potential(spec, [[0.5, 0.0]])[0]
        assert val == pytest.approx(-math.log(0.75), rel=1e-14)
        assert val == pytest.approx(0.2876820724517809, rel=1e-12)

    def test_linear_in_scale(self):
        base = BaseDomainSpec.disc(1.0)
        p = [[0.5, 0.0]]
        v1 = hartogs_potential(HartogsSpec(base, 1, scale=1.0), p)[0]
        v2 = hartogs_potential(HartogsSpec(base, 1, scale=2.0), p)[0]
        assert v2 == pytest.approx(2 * v1, rel=1e-14)

    def test_non_interior_rejected(self):
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        with pytest.raises(BoundaryViolationError):
            hartogs_potential(spec, [[1.0, 0.0]])

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_fiber_and_base_rotation_invariance(self, theta):
        spec = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 1)
        p = np.array([0.3 + 0.2j, 0.25 - 0.1j, 0.15j])
        rot = complex(math.cos(theta), math.sin(theta))
        fiber_turned = np.concatenate([rot * p[:1], p[1:]])
        base_turned = np.concatenate([p[:1], rot * p[1:]])
        v, v_fiber, v_base = hartogs_potential(spec, [p, fiber_turned, base_turned])
        assert v_fiber == pytest.approx(v, rel=1e-12)
        assert v_base == pytest.approx(v, rel=1e-12)


class TestClosedHessians:
    def test_ball_origin_identity(self):
        h = base_hessians(BaseDomainSpec.ball(2, 1.0), [[0.0, 0.0]])[0]
        assert np.allclose(h, np.eye(2))

    def test_fock_constant(self):
        h = base_hessians(BaseDomainSpec.fock(1, 3.0), [[0.7 + 0.2j]])[0]
        assert np.allclose(h, [[3.0]])

    def test_disc_value(self):
        h = base_hessians(BaseDomainSpec.disc(1.0), [[0.5]])[0]
        assert h[0, 0].real == pytest.approx(1 / 0.75**2, rel=1e-13)

    def test_block_diagonal_over_factors(self):
        h = base_hessians(BaseDomainSpec.polydisc((1.0, 2.0)), [[0.3, 0.2j]])[0]
        assert h[0, 1] == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "base",
        [
            BaseDomainSpec.disc(0.5),
            BaseDomainSpec.ball(2, 1.0),
            BaseDomainSpec.polydisc((1.0, 2.0)),
            BaseDomainSpec.cartan_type_i(2, 2, 1.0),
            BaseDomainSpec.fock(2, 1.0),
        ],
    )
    def test_strictly_plurisubharmonic_at_samples(self, base):
        spec = HartogsSpec(base, 1)
        h = base_hessians(base, sample_points(spec, 1000, seed=11)[:, 1:])
        assert np.all(np.linalg.eigvalsh(h)[:, 0] > 0)

    def test_gradient_disc(self):
        value, grad, _, _ = phi_derivatives_stack(BaseDomainSpec.disc(1.0), np.array([[0.5 + 0j]]))
        g = -grad[0] / value[0]  # gradient of -log phi
        assert g[0] == pytest.approx(0.5 / 0.75, rel=1e-13)

    def test_phi_derivatives_product_rule(self):
        base = BaseDomainSpec.polydisc((1.0, 2.0))
        z = np.array([0.3 + 0.1j, -0.2 + 0.25j])
        val, grad, hess, _ = (a[0] for a in phi_derivatives_stack(base, z[None]))
        # factor-wise hand evaluation of d phi / d z_1
        t1, t2 = abs(z[0]) ** 2, abs(z[1]) ** 2
        d1 = -np.conj(z[0]) * (1 - t2) ** 2
        d2 = -2 * (1 - t1) * (1 - t2) * np.conj(z[1])
        assert val == pytest.approx((1 - t1) * (1 - t2) ** 2, rel=1e-13)
        assert grad[0] == pytest.approx(d1, rel=1e-12)
        assert grad[1] == pytest.approx(d2, rel=1e-12)
        assert np.allclose(hess, hess.conj().T)


SAMPLER_SPECS = {
    "disc_mu_0.5": HartogsSpec(BaseDomainSpec.disc(0.5), 1),
    # phi = (1 - |z|^2)^8 fails the margin floor on about half the candidates
    "disc_mu_8": HartogsSpec(BaseDomainSpec.disc(8.0), 1),
    "ball3_fiber2": HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2),
    "polydisc_1_2": HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1),
    "polydisc_3_fiber2": HartogsSpec(BaseDomainSpec.polydisc((0.5, 1.0, 3.0)), 2),
    "cartan_1x3": HartogsSpec(BaseDomainSpec.cartan_type_i(1, 3, 1.0), 1),
    "cartan_2x2": HartogsSpec(BaseDomainSpec.cartan_type_i(2, 2, 1.5), 1),
    "fock2_fiber2": HartogsSpec(BaseDomainSpec.fock(2, 1.0), 2),
}

# (margin_frac, min_margin) as the CLI and the fixtures sample
SAMPLER_MARGINS = [(0.05, MIN_INTERIOR_MARGIN), (0.05, 0.02), (0.05, 0.05), (0.1, 0.05)]


def margins_and_floors(spec, pts, margin_frac, min_margin):
    """Membership margins phi - ||z0||^2 of a sample and the floors they must meet."""
    d0 = spec.fiber_dim
    phis = phi_stack(spec.base, pts[:, d0:])
    return phis - squared_norms(pts[:, :d0]), np.maximum(margin_frac * phis, min_margin)


def ks_distance(values, cdf):
    """Kolmogorov-Smirnov distance of the empirical law of values from cdf."""
    x = np.sort(values)
    n = len(x)
    f = cdf(x)
    return max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))


class TestSampling:
    def test_deterministic(self):
        spec = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2)
        a = sample_points(spec, 10, seed=42)
        b = sample_points(spec, 10, seed=42)
        assert a.shape == (10, spec.total_dim)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "base",
        [
            BaseDomainSpec.disc(0.5),
            BaseDomainSpec.polydisc((1.0, 2.0)),
            BaseDomainSpec.fock(1, 1.0),
        ],
    )
    def test_margins_respected(self, base):
        spec = HartogsSpec(base, 2)
        pts = sample_points(spec, 25, seed=5, margin_frac=0.1, min_margin=0.05)
        phis = phi_stack(base, pts[:, 2:])
        m = phis - squared_norms(pts[:, :2])
        assert np.all(m >= 0.05)
        assert np.all(m >= 0.1 * phis - 1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            HartogsSpec(BaseDomainSpec.ball(6, 1.0), 1),
            HartogsSpec(BaseDomainSpec.ball(12, 1.0), 1),
            HartogsSpec(BaseDomainSpec.ball(3, 1.0), 10),
            HartogsSpec(BaseDomainSpec.disc(1.0), 12),
        ],
        ids=["ball6_c1", "ball12_c1", "ball3_c10", "disc_c12"],
    )
    def test_high_dimensional_samples_respect_margins(self, spec):
        # a box-rejection draw finds almost none of these points in C^7 and up
        for margin_frac, min_margin in SAMPLER_MARGINS:
            pts = sample_points(spec, 50, seed=1, margin_frac=margin_frac, min_margin=min_margin)
            assert pts.shape == (50, spec.total_dim)
            margins, floors = margins_and_floors(spec, pts, margin_frac, min_margin)
            assert np.all(margins >= floors)

    @pytest.mark.parametrize("name", sorted(SAMPLER_SPECS))
    @pytest.mark.parametrize("margin_frac, min_margin", SAMPLER_MARGINS)
    def test_samples_are_prefixes(self, name, margin_frac, min_margin):
        spec = SAMPLER_SPECS[name]
        for seed in (0, 1, 42):
            kw = dict(seed=seed, margin_frac=margin_frac, min_margin=min_margin)
            # 300 points span several draw batches
            want = sample_points(spec, 300, **kw)
            margins, floors = margins_and_floors(spec, want, margin_frac, min_margin)
            assert np.all(margins >= floors)
            for count in range(1, 26):
                assert np.array_equal(sample_points(spec, count, **kw), want[:count])

    def test_radial_laws(self):
        # with mu = 1 and |z|^2 <= 0.7, phi >= 0.3, so no candidate is rejected:
        # |z|^2 / 0.7 has CDF x^3 on C^3 and |z0|^2 / (0.95 phi) has CDF x^2 on C^2
        spec = HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2)
        pts = sample_points(spec, 2000, seed=7, min_margin=1e-8)
        base_norms = squared_norms(pts[:, 2:])
        fiber_norms = squared_norms(pts[:, :2]) / (0.95 * phi_stack(spec.base, pts[:, 2:]))
        critical = math.sqrt(-math.log(1e-3 / 2) / 2) / math.sqrt(len(pts))  # alpha = 1e-3
        assert ks_distance(base_norms / 0.7, lambda x: x**3) < critical
        assert ks_distance(fiber_norms, lambda x: x**2) < critical

    def test_draw_budget_exhaustion_is_a_capability_error(self):
        # phi <= 1 on a bounded base, so no candidate clears a floor of 2
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        budget = "found [0-9]+ of 50 points within its draw budget of 200000 tries"
        with pytest.raises(CapabilityError, match=budget):
            sample_points(spec, 50, seed=1, min_margin=2.0)

    @pytest.mark.parametrize(
        "base",
        [
            BaseDomainSpec.disc(1e5),
            BaseDomainSpec.disc(1e20),
            BaseDomainSpec.fock(2, 1000.0),
            BaseDomainSpec.polydisc((1e6, 2.0)),
        ],
        ids=["disc_1e5", "disc_1e20", "fock2_1000", "polydisc_1e6_2"],
    )
    def test_large_exponents_are_sampled(self, base):
        # the draw region shrinks with 1 / mu, so the budget is not exhausted
        spec = HartogsSpec(base, 1)
        for margin_frac, min_margin in ((0.05, 1e-8), (0.1, 0.05)):
            pts = sample_points(spec, 50, seed=1, margin_frac=margin_frac, min_margin=min_margin)
            margins, floors = margins_and_floors(spec, pts, margin_frac, min_margin)
            assert np.all(margins >= floors)

    def test_empty_sample_is_an_empty_stack(self):
        spec = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2)
        assert sample_points(spec, 0, seed=1).shape == (0, 4)


class TestCoordinateStack:
    SPEC = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 1)

    def test_roundtrip(self):
        coords = coordinate_stack(self.SPEC, [[0.1j, 0.2, 0.3]])
        assert coords.dtype == np.complex128
        assert np.array_equal(coords, np.array([[0.1j, 0.2, 0.3]]))

    @pytest.mark.parametrize(
        "points", [[0.1j, 0.2, 0.3], [[0.1j, 0.2]], [[[0.1j, 0.2, 0.3]]], []]
    )
    def test_rejects_wrong_shapes(self, points):
        with pytest.raises(ValueError, match=r"\(N, 3\) stack .* 1 fiber and 2 base"):
            coordinate_stack(self.SPEC, points)
