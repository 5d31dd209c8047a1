import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hartogs import curvature, taylor
from hartogs.curvature import (
    CurvatureVerdicts,
    curvature_report,
    extremal_check,
    metric_stack,
    ricci_numeric,
    tau_exact,
    verdicts,
)
from hartogs.domains import (
    BaseDomainSpec,
    HartogsSpec,
    phi_derivatives_stack,
    phi_stack,
    sample_points,
)
from hartogs.errors import CapabilityError, HartogsError
from hartogs.reporting import curvature_rows

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
    """The closed identities at a sample, without the extremal jets."""
    return curvature_report(spec, pts, include_extremal=False)


def closed_base_hessians(base, z):
    """Mixed Hessians of -log phi per row of a stack, block diagonal by factor."""
    *_, factors = phi_derivatives_stack(base, z)
    hess = np.zeros((len(z), base.dim, base.dim), dtype=np.complex128)
    for sl, (_, factor_hess) in zip(base.factor_slices, factors):
        hess[:, sl, sl] = factor_hess
    return hess


class TestTau:
    def test_disc_values(self):
        assert tau_exact(BaseDomainSpec.disc(1.0)) == 0
        assert tau_exact(BaseDomainSpec.disc(2.0)) == 1
        assert tau_exact(BaseDomainSpec.fock(1, 1.0)) == 2
        assert tau_exact(BaseDomainSpec.polydisc((1.0, 2.0))) == Fraction(3)

    def test_float_agrees(self):
        # the reported tau is the double nearest the exact one, and at the
        # origin (F = phi) the trace pairing reads s = tau - n(n+1)
        for spec in SPEC_GRID:
            n = spec.total_dim
            rep = closed(spec, [[0.0] * n])
            assert rep.tau == float(tau_exact(spec.base))
            assert rep.scalar_trace[0] == pytest.approx(rep.tau - n * (n + 1), abs=1e-12)


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
        # the mixed Hessian of the potential, read from its Taylor-mode jet
        pts = sample_points(spec, 5, seed=21, margin_frac=0.15, min_margin=0.06)
        jets, _ = curvature._potential_jets(spec, pts, (2, 2))
        hessians = taylor.hessian_jets(jets, (2, 2))[0]
        assert np.max(np.abs(hessians - metric_stack(spec, pts))) < 1e-11


class TestAgainstClosedForms:
    @pytest.mark.parametrize(
        "base",
        [
            BaseDomainSpec.disc(1.0),
            BaseDomainSpec.ball(2, 1.0),
            BaseDomainSpec.polydisc((1.0, 2.0)),
            BaseDomainSpec.cartan_type_i(2, 2, 1.0),
            BaseDomainSpec.fock(1, 1.0),
        ],
    )
    def test_hessian_and_gradient_match_closed(self, base):
        # at zero fiber the potential is -log phi: its Taylor-mode jet's
        # linear Z coefficients are the gradient of -log phi and its mixed
        # Hessian the base block ddbar(-log phi)
        spec = HartogsSpec(base, 1)
        pts = sample_points(spec, 6, seed=9, margin_frac=0.1, min_margin=0.05)
        pts[:, 0] = 0.0
        z = pts[:, 1:]
        jets, _ = curvature._potential_jets(spec, pts, (2, 2))
        jet_h = taylor.hessian_jets(jets, (2, 2))[0][:, 1:, 1:]
        assert np.max(np.abs(jet_h - closed_base_hessians(base, z))) < 1e-12
        value, grad, _, _ = phi_derivatives_stack(base, z)
        closed_g = -grad / value[:, None]  # gradient of -log phi
        jet_g = jets[:, 2 : 2 + base.dim, 0]
        assert np.max(np.abs(jet_g - closed_g)) <= 1e-12 * np.max(np.abs(closed_g))


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

    @pytest.mark.parametrize(
        "spec",
        SPEC_GRID + [
            # constants mu^d of the determinant off 1
            HartogsSpec(BaseDomainSpec.disc(2.0), 1),
            HartogsSpec(BaseDomainSpec.ball(2, 3.0), 1),
        ],
    )
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
        "spec",
        [
            B2,
            DISC2,
            FOCK,
            HartogsSpec(BaseDomainSpec.polydisc((1.0, 2.0)), 1),
            # the bases of tests/test_stack_kernel.py, rank-2 Cartan included
            HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2),
            HartogsSpec(BaseDomainSpec.polydisc((0.5, 2.0)), 1),
            HartogsSpec(BaseDomainSpec.cartan_type_i(1, 3, 1.0), 1),
            HartogsSpec(BaseDomainSpec.cartan_type_i(2, 2, 1.5), 1),
            HartogsSpec(BaseDomainSpec.fock(2, 1.0), 1),
        ],
    )
    def test_numeric_matches_closed(self, spec):
        pts = sample_points(spec, 3, seed=17, margin_frac=0.15, min_margin=0.06)
        num = ricci_numeric(spec, pts)
        assert num.shape == (3, spec.total_dim, spec.total_dim)
        for r, clo in enumerate(closed(spec, pts).ricci_closed):
            assert np.max(np.abs(num[r] - clo)) <= 1e-9 * np.max(np.abs(clo))

    def test_numeric_accepts_thin_margins(self):
        # margins down to 2.6e-3, below the old nested stencil's floor of 0.01
        spec = HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2)
        pts = sample_points(spec, 20, seed=3, margin_frac=0.0, min_margin=1e-3)
        margins = phi_stack(spec.base, pts[:, 2:]) - np.sum(np.abs(pts[:, :2]) ** 2, axis=1)
        assert margins.min() < 3e-3
        closed_ricci = closed(spec, pts).ricci_closed
        gap = np.abs(ricci_numeric(spec, pts) - closed_ricci).max(axis=(1, 2))
        assert (gap <= 1e-9 * np.abs(closed_ricci).max(axis=(1, 2))).all()


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
        assert not curvature_report(B2, pts).extremal_residual.any()

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

    def test_thin_margins(self):
        # margins down to 8e-8: no step, so no margin rule beyond interiority
        spec = HartogsSpec(BaseDomainSpec.disc(30.0), 1)
        pts = sample_points(spec, 20, seed=1)
        residual = curvature_report(spec, pts).extremal_residual
        assert (residual > 1e-3).all() and np.isfinite(residual).all()
        chk = extremal_check(spec, pts)
        assert np.array_equal(chk.residual, residual)
        gap = np.abs(chk.fiber_component - chk.witness_closed)
        assert (gap <= 1e-12 * np.abs(chk.witness_closed)).all()

    @pytest.mark.parametrize("oracle", [ricci_numeric, extremal_check])
    def test_jets_past_the_double_range_are_a_capability_error(self, oracle):
        # at mu = 1e300 the coefficients of the potential's jet overflow:
        # one error, no numpy warning, no NaN row
        spec = HartogsSpec(BaseDomainSpec.disc(1e300), 1)
        pts = sample_points(spec, 5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapabilityError, match="double-precision range"):
                oracle(spec, pts)

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

    def test_exact_yes_over_the_tolerance_raises(self, monkeypatch):
        # a closed-form defect: the unit ball is Einstein, its residual is not 0
        report = curvature.curvature_report

        def defective(*args):
            rep = report(*args)
            return dataclasses.replace(rep, einstein_residual=rep.einstein_residual + 1e-3)

        monkeypatch.setattr(curvature, "curvature_report", defective)
        pts = sample_points(B2, 12, seed=8, margin_frac=0.1, min_margin=0.05)
        with pytest.raises(HartogsError, match="exact Einstein verdict with residual 1.000e-03"):
            verdicts(B2, pts)

    def test_without_the_extremal_stencil(self):
        # the unit ball is exactly extremal; its skipped residual is not checked
        pts = sample_points(B2, 12, seed=8, margin_frac=0.1, min_margin=0.05)
        v = verdicts(B2, pts, include_extremal=False)
        assert v.is_einstein and v.is_extremal and math.isnan(v.max_extremal_residual)
        assert v.max_einstein_residual == verdicts(B2, pts).max_einstein_residual

    def test_exact_no_under_the_tolerance_is_no(self):
        # lambda = tau = 2 - 2/mu: both residuals scale with it
        spec = HartogsSpec(BaseDomainSpec.disc(1.000000001), 1)
        pts = sample_points(spec, 12, seed=8, margin_frac=0.1, min_margin=0.05)
        v = verdicts(spec, pts)
        assert v.max_einstein_residual < v.tolerance and v.max_extremal_residual < v.tolerance
        assert not (v.is_einstein or v.is_extremal or v.is_constant_scalar)

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


def test_spread_is_the_variance_without_overflow():
    rng = np.random.default_rng(0)
    for scale in (1e-300, 1e-10, 1.0, 1e100, 1e150):
        x = scale * (rng.standard_normal(12) - 6.0)
        assert curvature._spread(x) == pytest.approx(np.var(x), rel=1e-12)
    assert curvature._spread(np.full(10, -6.0)) == 0.0
    # past the double range: inf, and no overflow warning (an error here)
    assert curvature._spread(np.array([1e300, -1e300] * 5)) == math.inf


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
