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
    coordinate_stack,
    factor_determinant_constants,
    hartogs_potential,
    phi_derivatives_stack,
    phi_stack,
    sample_points,
    squared_norms,
)
from hartogs.errors import BoundaryViolationError, CapabilityError
from hartogs.hermitian import eigenvalues


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
        assert np.all(eigenvalues(h)[:, 0] > 0)

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
