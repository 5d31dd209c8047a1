import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs.domains import (
    BaseDomainSpec,
    DomainKind,
    EvaluationPoint,
    HartogsSpec,
    base_hessian_closed,
    factor_determinant_constants,
    hartogs_potential,
    interior_margin,
    phi,
    phi_with_derivatives,
    point,
    sample_points,
)
from hartogs.errors import BoundaryViolationError, CapabilityError
from hartogs.hermitian import eigenvalues


class TestSpecMetadata:
    def test_ball_constants(self):
        b = BaseDomainSpec.ball(2, 1.0)
        assert b.genus == (3,)
        assert b.einstein_constants == (-3.0,)
        assert b.einstein_constants_exact == (Fraction(-3),)

    def test_disc_mu_half(self):
        b = BaseDomainSpec.disc(0.5)
        assert b.einstein_constants == (-4.0,)
        assert b.einstein_constants_exact == (Fraction(-4),)

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
        assert b.einstein_constants == (0.0,)
        assert b.einstein_constants_exact == (Fraction(0),)

    def test_irrational_mu_has_no_exact_constant(self):
        b = BaseDomainSpec.disc(math.pi)
        assert b.einstein_constants_exact == (None,)

    def test_inconsistent_override_warns(self):
        with pytest.warns(UserWarning, match="einstein"):
            BaseDomainSpec(
                DomainKind.BALL, (1,), (1.0,), einstein_override=(-1.0,)
            )

    def test_consistent_override_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BaseDomainSpec(DomainKind.BALL, (1,), (1.0,), einstein_override=(-2.0,))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            BaseDomainSpec.ball(1, -1.0)
        with pytest.raises(ValueError):
            BaseDomainSpec(DomainKind.POLYDISC, (2,), (1.0,))
        with pytest.raises(ValueError):
            BaseDomainSpec(DomainKind.CARTAN_TYPE_I, (4,), (1.0,))
        with pytest.raises(ValueError):
            HartogsSpec(BaseDomainSpec.disc(1.0), 0)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BaseDomainSpec.disc(bad)
        with pytest.raises(ValueError, match="finite"):
            BaseDomainSpec.polydisc((1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            BaseDomainSpec(DomainKind.BALL, (1,), (1.0,), genus_override=(bad,))
        with pytest.raises(ValueError, match="finite"):
            BaseDomainSpec(DomainKind.BALL, (1,), (1.0,), einstein_override=(bad,))
        with pytest.raises(ValueError, match="finite"):
            HartogsSpec(BaseDomainSpec.disc(1.0), 1, scale=bad)


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
        assert hartogs_potential(spec, point([0.0], [0.0])) == pytest.approx(0.0)

    def test_disc_value(self):
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        val = hartogs_potential(spec, point([0.5], [0.0]))
        assert val == pytest.approx(-math.log(0.75), rel=1e-14)
        assert val == pytest.approx(0.2876820724517809, rel=1e-12)

    def test_linear_in_scale(self):
        base = BaseDomainSpec.disc(1.0)
        p = point([0.5], [0.0])
        v1 = hartogs_potential(HartogsSpec(base, 1, scale=1.0), p)
        v2 = hartogs_potential(HartogsSpec(base, 1, scale=2.0), p)
        assert v2 == pytest.approx(2 * v1, rel=1e-14)

    def test_non_interior_rejected(self):
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        with pytest.raises(BoundaryViolationError):
            hartogs_potential(spec, point([1.0], [0.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_fiber_and_base_rotation_invariance(self, theta):
        spec = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 1)
        p = point([0.3 + 0.2j], [0.25 - 0.1j, 0.15j])
        rot = complex(math.cos(theta), math.sin(theta))
        v = hartogs_potential(spec, p)
        assert hartogs_potential(spec, point(rot * p.fiber, p.base)) == pytest.approx(
            v, rel=1e-12
        )
        assert hartogs_potential(spec, point(p.fiber, rot * p.base)) == pytest.approx(
            v, rel=1e-12
        )


class TestClosedHessians:
    def test_ball_origin_identity(self):
        h = base_hessian_closed(BaseDomainSpec.ball(2, 1.0), [0.0, 0.0])
        assert np.allclose(h.array, np.eye(2))

    def test_fock_constant(self):
        h = base_hessian_closed(BaseDomainSpec.fock(1, 3.0), [0.7 + 0.2j])
        assert np.allclose(h.array, [[3.0]])

    def test_disc_value(self):
        h = base_hessian_closed(BaseDomainSpec.disc(1.0), [0.5])
        assert h.array[0, 0].real == pytest.approx(1 / 0.75**2, rel=1e-13)

    def test_block_diagonal_over_factors(self):
        h = base_hessian_closed(BaseDomainSpec.polydisc((1.0, 2.0)), [0.3, 0.2j])
        assert h.array[0, 1] == pytest.approx(0.0)

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
        for p in sample_points(spec, 1000, seed=11):
            h = base_hessian_closed(base, p.base)
            assert eigenvalues(h)[0] > 0

    def test_gradient_disc(self):
        value, grad, _ = phi_with_derivatives(BaseDomainSpec.disc(1.0), [0.5])
        g = -grad / value  # gradient of -log phi
        assert g[0] == pytest.approx(0.5 / 0.75, rel=1e-13)

    def test_phi_derivatives_product_rule(self):
        base = BaseDomainSpec.polydisc((1.0, 2.0))
        z = np.array([0.3 + 0.1j, -0.2 + 0.25j])
        val, grad, hess = phi_with_derivatives(base, z)
        # factor-wise hand evaluation of d phi / d z_1
        t1, t2 = abs(z[0]) ** 2, abs(z[1]) ** 2
        d1 = -np.conj(z[0]) * (1 - t2) ** 2
        d2 = -2 * (1 - t1) * (1 - t2) * np.conj(z[1])
        assert val == pytest.approx((1 - t1) * (1 - t2) ** 2, rel=1e-13)
        assert grad[0] == pytest.approx(d1, rel=1e-12)
        assert grad[1] == pytest.approx(d2, rel=1e-12)
        assert np.allclose(hess, hess.conj().T)

    def test_determinant_constants_are_mu_powers(self):
        assert factor_determinant_constants(BaseDomainSpec.disc(2.0)) == pytest.approx(
            (2.0,)
        )
        assert factor_determinant_constants(
            BaseDomainSpec.ball(2, 3.0)
        ) == pytest.approx((9.0,))
        assert factor_determinant_constants(
            BaseDomainSpec.polydisc((1.0, 2.0))
        ) == pytest.approx((1.0, 2.0))


class TestSampling:
    def test_deterministic(self):
        spec = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2)
        a = sample_points(spec, 10, seed=42)
        b = sample_points(spec, 10, seed=42)
        assert all(
            np.array_equal(x.fiber, y.fiber) and np.array_equal(x.base, y.base)
            for x, y in zip(a, b)
        )

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
        for p in sample_points(spec, 25, seed=5, margin_frac=0.1, min_margin=0.05):
            m = interior_margin(spec, p)
            assert m >= 0.05
            assert m >= 0.1 * phi(base, p.base) - 1e-12

    def test_draw_budget_exhaustion_is_a_capability_error(self):
        # phi = (1 - |z|^2)^1e6 is below the margin floor almost everywhere
        spec = HartogsSpec(BaseDomainSpec.disc(1e6), 1)
        with pytest.raises(CapabilityError, match="draw budget of 500 tries"):
            sample_points(spec, 3, seed=1, max_tries=500)

    @pytest.mark.parametrize("cap", [0.0, 1.0, 1.5, math.nan])
    def test_radius_cap_keeps_candidates_inside(self, cap):
        spec = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 1)
        with pytest.raises(ValueError, match="radius_cap"):
            sample_points(spec, 3, seed=1, radius_cap=cap)

    def test_point_coords_roundtrip(self):
        p = EvaluationPoint(np.array([0.1j]), np.array([0.2, 0.3]))
        assert np.array_equal(p.coords, np.array([0.1j, 0.2, 0.3]))
