import math
from fractions import Fraction

import numpy as np
import pytest

from hartogs.curvature import (
    CurvatureVerdicts,
    curvature_report,
    extremal_check,
    metric_stack,
    ricci_numeric,
    tau_exact,
    tau_value,
    verdicts,
)
from hartogs.domains import (
    BaseDomainSpec,
    HartogsSpec,
    hartogs_potential,
    phi_stack,
    sample_points,
)
from hartogs.reporting import curvature_rows
from hartogs.wirtinger import wirtinger_hessian

B2 = HartogsSpec(BaseDomainSpec.disc(1.0), 1)  # the unit ball in C^2
DISC2 = HartogsSpec(BaseDomainSpec.disc(2.0), 1)
FOCK = HartogsSpec(BaseDomainSpec.fock(1, 1.0), 1)

SPEC_GRID = [
    HartogsSpec(BaseDomainSpec.disc(0.5), 1),
    HartogsSpec(BaseDomainSpec.disc(1.0), 2),
    HartogsSpec(BaseDomainSpec.ball(2, 1.0), 1),
    HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 2),
    HartogsSpec(BaseDomainSpec.fock(1, 1.0), 1),
]


def closed(spec, pts):
    """The closed identities at a sample, without the extremal stencil."""
    return curvature_report(spec, pts, include_extremal=False)


class TestTau:
    def test_disc_values(self):
        assert tau_exact(BaseDomainSpec.disc(1.0)) == 0
        assert tau_exact(BaseDomainSpec.disc(2.0)) == 1
        assert tau_exact(BaseDomainSpec.fock(1, 1.0)) == 2
        assert tau_exact(BaseDomainSpec.polydisc((1.0, 2.0))) == Fraction(3)

    def test_float_agrees(self):
        for base in (b.base for b in SPEC_GRID):
            exact = tau_exact(base)
            assert tau_value(base) == pytest.approx(float(exact), abs=1e-12)


class TestMetric:
    def test_b2_origin_identity(self):
        g = metric_stack(B2, [[0.0, 0.0]])[0]
        assert np.allclose(g, np.eye(2))

    def test_b2_half(self):
        g = metric_stack(B2, [[0.5, 0.0]])[0]
        assert g[0, 0].real == pytest.approx(16 / 9, rel=1e-13)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert g[1, 1].real == pytest.approx(4 / 3, rel=1e-13)

    def test_fiber_block_at_zero_fiber(self):
        spec = HartogsSpec(BaseDomainSpec.disc(2.0), 2)
        g = metric_stack(spec, [[0.0, 0.0, 0.3]])[0]
        expected = np.eye(2) / phi_stack(spec.base, [[0.3]])[0]
        assert np.allclose(g[:2, :2], expected, atol=1e-13)

    @pytest.mark.parametrize("spec", SPEC_GRID)
    def test_matches_potential_hessian(self, spec):
        pts = sample_points(spec, 5, seed=21, margin_frac=0.15, min_margin=0.06)
        metrics = metric_stack(spec, pts)
        for p, g in zip(pts, metrics):
            fd = wirtinger_hessian(lambda q: hartogs_potential(spec, q), p)
            assert np.max(np.abs(fd - g)) < 1e-5


class TestDeterminant:
    def test_disc_closed_value(self):
        # c = -2 kills the phi power, so det = margin^-3 with constant 1
        det = closed(B2, [[0.5, 0.0]]).det_closed[0]
        assert det == pytest.approx(0.75**-3, rel=1e-13)
        assert det == pytest.approx(2.3703703703703702, rel=1e-12)

    def test_fock_closed_value(self):
        # c = 0, exponent d+1 = 2, constant 1: (e^-1)^-3 (e^-1)^2 = e
        p = [0.0, 1.0]
        assert closed(FOCK, [p]).det_closed[0] == pytest.approx(math.e, rel=1e-13)

    def test_origin_gives_constant(self):
        spec = HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1)
        p = [0.0, 0.0, 0.0]
        assert closed(spec, [p]).det_closed[0] == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("spec", SPEC_GRID)
    def test_identity_against_direct_determinant(self, spec):
        rep = closed(spec, sample_points(spec, 25, seed=3))
        for p, det, direct in zip(rep.coords, rep.det_closed, rep.det_direct):
            assert direct == np.linalg.det(metric_stack(spec, [p])[0]).real
            assert det == pytest.approx(direct, rel=1e-8)


class TestRicci:
    def test_b2_is_einstein(self):
        rep = closed(B2, sample_points(B2, 10, seed=1))
        for ric, g in zip(rep.ricci_closed, rep.metric):
            assert np.max(np.abs(ric + 3 * g)) < 1e-12

    def test_disc2_origin_assembly(self):
        rep = closed(DISC2, [[0.0, 0.0]])
        gd = 2.0  # ddbar of -log (1 - |z|^2)^2 at z = 0
        expected = -3 * rep.metric[0]
        expected[1:, 1:] += 1.0 * gd  # lambda = d + 1 + c = 1
        assert np.allclose(rep.ricci_closed[0], expected)

    def test_fock_fiber_block_vanishes(self):
        rep = closed(FOCK, [[0.2, 0.4]])
        shifted = rep.ricci_closed[0] + 3 * rep.metric[0]
        assert np.max(np.abs(shifted[:1, :1])) < 1e-13

    def test_numeric_oracle_b2_origin(self):
        ric = ricci_numeric(B2, [[0.0, 0.0]])[0]
        assert np.max(np.abs(ric + 3 * np.eye(2))) < 1e-3

    @pytest.mark.parametrize(
        "spec", [B2, DISC2, FOCK, HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1)]
    )
    def test_numeric_matches_closed(self, spec):
        pts = sample_points(spec, 3, seed=17, margin_frac=0.15, min_margin=0.06)
        num = ricci_numeric(spec, pts)
        assert num.shape == (3, spec.total_dim, spec.total_dim)
        for r, clo in enumerate(closed(spec, pts).ricci_closed):
            assert np.max(np.abs(num[r] - clo)) < 1e-3


class TestScalar:
    def test_disc_mu_one_constant(self):
        rep = closed(B2, sample_points(B2, 10, seed=2))
        for trace, value in zip(rep.scalar_trace, rep.scalar_closed):
            assert value == pytest.approx(-6.0, abs=1e-12)
            assert trace == pytest.approx(-6.0, abs=1e-9)

    def test_disc_mu_two_values(self):
        # tau = 1: s = -5 at z0 = 0 and -5.5 at ||z0||^2 = phi/2
        z = 0.3
        p0 = [0.0, z]
        phi_val = phi_stack(DISC2.base, [[z]])[0]
        p_half = [math.sqrt(phi_val / 2), z]
        s0, s_half = closed(DISC2, [p0, p_half]).scalar_closed
        assert s0 == pytest.approx(-5.0, abs=1e-12)
        assert s_half == pytest.approx(-5.5, abs=1e-12)

    @pytest.mark.parametrize("spec", SPEC_GRID)
    def test_trace_pairing_matches_closed(self, spec):
        rep = closed(spec, sample_points(spec, 10, seed=4))
        assert np.max(np.abs(rep.scalar_trace - rep.scalar_closed)) < 1e-6


class TestExtremal:
    def test_einstein_case_residual_zero(self):
        pts = sample_points(B2, 5, seed=6, margin_frac=0.1, min_margin=0.05)
        assert np.max(curvature_report(B2, pts).extremal_residual) <= 1e-4

    def test_fock_not_extremal(self):
        res = curvature_report(FOCK, [[0.4, 0.3]]).extremal_residual[0]
        assert res > 1e-3

    def test_witness_vanishes_at_zero_fiber(self):
        chk = extremal_check(DISC2, [[0.0, 0.3]])
        assert chk.witness_closed[0] == 0

    @pytest.mark.parametrize("spec", [DISC2, FOCK])
    def test_witness_matches_solve_path(self, spec):
        p = [0.3 + 0.2j, 0.25 - 0.1j]
        chk = extremal_check(spec, [p])
        assert abs(chk.fiber_component[0] - chk.witness_closed[0]) < 1e-3
        assert abs(chk.witness_closed[0]) > 1e-3  # non-degenerate control

    def test_einstein_residual_fiber_rotation_invariant(self):
        p = [0.3 + 0.1j, 0.2]
        rot = np.exp(0.7j)
        a, b = closed(DISC2, [p, [rot * p[0], p[1]]]).einstein_residual
        assert a == pytest.approx(b, rel=1e-12)


class TestVerdicts:
    def test_einstein_chain_true(self):
        pts = sample_points(B2, 12, seed=8, margin_frac=0.1, min_margin=0.05)
        v = verdicts(B2, pts)
        assert v.is_einstein and v.is_extremal and v.is_constant_scalar

    @pytest.mark.parametrize("spec", [DISC2, FOCK])
    def test_non_einstein_chain_false(self, spec):
        pts = sample_points(spec, 12, seed=8, margin_frac=0.1, min_margin=0.05)
        v = verdicts(spec, pts)
        assert not (v.is_einstein or v.is_extremal or v.is_constant_scalar)

    def test_tau_zero_base_that_is_not_einstein(self):
        # polydisc(1/2, 1): c = (-4, -2), so tau = 6 - 4 - 2 = 0 although the
        # factor constants differ; constant scalar curvature, not Einstein
        spec = HartogsSpec(BaseDomainSpec.polydisc((0.5, 1.0)), 1)
        pts = sample_points(spec, 10, seed=8, margin_frac=0.1, min_margin=0.05)
        v = verdicts(spec, pts)
        assert not v.is_einstein
        assert v.max_einstein_residual > 1.0
        assert v.is_extremal and v.is_constant_scalar

    def test_requires_ten_points(self):
        with pytest.raises(ValueError):
            verdicts(B2, sample_points(B2, 5, seed=1))

    @pytest.mark.parametrize("spec", SPEC_GRID)
    def test_chain_equivalence_on_catalog(self, spec):
        # tau = 0 iff Einstein iff extremal; verdicts() raises on mismatch
        pts = sample_points(spec, 10, seed=23, margin_frac=0.1, min_margin=0.05)
        v = verdicts(spec, pts)
        from hartogs.curvature import tau_exact

        assert v.is_einstein == (tau_exact(spec.base) == 0)


def test_report_checks_its_points():
    empty = np.empty((0, 2), dtype=np.complex128)
    assert curvature_rows(B2, empty) == []
    assert curvature_report(B2, empty).det_closed.shape == (0,)
    with pytest.raises(ValueError, match="1 fiber and 1 base"):
        curvature_report(B2, [[0.1, 0.0, 0.2]])


def test_report_fields_consistent():
    p = [[0.2, 0.3]]
    rep = curvature_report(B2, p)
    assert np.array_equal(rep.coords, np.array(p, dtype=np.complex128))
    assert rep.det_closed[0] == pytest.approx(rep.det_direct[0], rel=1e-10)
    assert rep.scalar_trace[0] == pytest.approx(rep.scalar_closed[0], abs=1e-7)
    assert np.max(np.abs(ricci_numeric(B2, p)[0] - rep.ricci_closed[0])) < 1e-3
    assert rep.extremal_residual[0] == extremal_check(B2, p).residual[0]
    assert np.isnan(closed(B2, p).extremal_residual[0])
    assert rep.tau == pytest.approx(0.0)
