"""Row consistency of the point-stack kernels.

Points travel as (N, n) stacks and every finite-difference oracle evaluates
its whole stencil as one stack, so row r of a stack must give the same
floats as the one-row stack of that point, and a row of a
``curvature_report`` the same values as the report of that point alone,
extremal residuals included, however the sample splits into extremal row
groups. This pins the three arithmetic rules of the kernels: squared norms as
stacked matmuls on C-contiguous rows, powers and exponentials on Python
floats row by row, and stacked LAPACK calls.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import cli, curvature, domains, reporting
from hartogs.curvature import (
    EXTREMAL_STACK_ROWS,
    curvature_report,
    extremal_check,
    metric_stack,
    ricci_numeric,
    verdicts,
)
from hartogs.domains import (
    BaseDomainSpec,
    DomainKind,
    HartogsSpec,
    hartogs_potential,
    phi_stack,
    sample_points,
)
from hartogs.errors import BoundaryViolationError
from hartogs.series import series_partial_sum
from hartogs.wirtinger import conjugate_jacobian

SPECS = {
    "ball": HartogsSpec(BaseDomainSpec.ball(2, 1.0), 2),
    "polydisc": HartogsSpec(BaseDomainSpec.polydisc((0.5, 2.0)), 1),
    "cartan_1x3": HartogsSpec(BaseDomainSpec.cartan_type_i(1, 3, 1.0), 1),
    "cartan_2x2": HartogsSpec(BaseDomainSpec.cartan_type_i(2, 2, 1.5), 1),
    "fock": HartogsSpec(BaseDomainSpec.fock(2, 1.0), 1),
}

REPORT_FIELDS = (
    "metric",
    "det_closed",
    "det_direct",
    "ricci_closed",
    "scalar_trace",
    "scalar_closed",
    "einstein_residual",
    "extremal_residual",
)


def reference_phi(base, z):
    """phi of one point in per-point arithmetic: np.vdot norms, libm powers."""
    out = 1.0
    for sl, mu in zip(base.factor_slices, base.exponents):
        zf = z[sl]
        if base.kind is DomainKind.FOCK:
            out *= math.exp(-mu * float(np.real(np.vdot(zf, zf))))
        elif base.kind is DomainKind.CARTAN_TYPE_I:
            zmat = zf.reshape(base.shape)
            y = np.eye(base.shape[0]) - zmat @ zmat.conj().T
            out *= float(np.real(np.linalg.det(y))) ** mu
        else:
            out *= (1.0 - float(np.real(np.vdot(zf, zf)))) ** mu
    return out


def reference_fiber_block(spec, coords):
    """(F I + z0bar z0^T) / F^2, F = phi - ||z0||^2, in per-point arithmetic."""
    z0 = coords[: spec.fiber_dim]
    margin = reference_phi(spec.base, coords[spec.fiber_dim :])
    margin -= float(np.real(np.vdot(z0, z0)))
    g = (margin * np.eye(len(z0)) + np.outer(np.conj(z0), z0)) / margin**2
    return 0.5 * (g + g.conj().T)


def interior_stack(spec, rows, seed):
    return sample_points(spec, rows, seed=seed, margin_frac=0.1, min_margin=0.05)


def layouts(coords):
    """The stack itself, its rows reversed, and a strided column slice."""
    wide = np.zeros((len(coords), coords.shape[1] + 3), dtype=np.complex128)
    wide[:, 2 : 2 + coords.shape[1]] = coords
    return [coords, coords[::-1], wide[:, 2 : 2 + coords.shape[1]]]


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=8, deadline=None)
@given(rows=st.integers(min_value=1, max_value=9), seed=st.integers(0, 10**6))
def test_rows_match_single_point_evaluation(name, rows, seed):
    spec = SPECS[name]
    d0 = spec.fiber_dim
    for stack in layouts(interior_stack(spec, rows, seed)):
        metrics = metric_stack(spec, stack)
        logdets = np.linalg.slogdet(metrics)[1]
        phis = phi_stack(spec.base, stack[:, d0:])
        potentials = hartogs_potential(spec, stack)
        report = curvature_report(spec, stack)
        assert np.array_equal(report.metric, metrics)
        for r, row in enumerate(stack):
            alone = metric_stack(spec, row[None, :])
            assert np.array_equal(metrics[r], alone[0])
            single = curvature_report(spec, stack[r : r + 1])
            for field in REPORT_FIELDS:
                assert np.array_equal(getattr(report, field)[r], getattr(single, field)[0])
            assert np.array_equal(logdets[r], np.linalg.slogdet(alone)[1][0])
            assert phis[r] == phi_stack(spec.base, row[None, d0:])[0]
            assert phis[r] == reference_phi(spec.base, row[d0:])
            assert potentials[r] == hartogs_potential(spec, row[None, :])[0]
            assert np.array_equal(metrics[r][:d0, :d0], reference_fiber_block(spec, row))


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("where", ["fiber", "base"])
@settings(max_examples=5, deadline=None)
@given(rows=st.integers(min_value=1, max_value=9), seed=st.integers(0, 10**6))
def test_one_exterior_row_fails_the_stack(name, where, rows, seed):
    spec = SPECS[name]
    if where == "base" and not spec.base.bounded:
        return  # the flat base has no boundary
    stack = interior_stack(spec, rows, seed)
    bad = seed % rows
    if where == "fiber":
        stack[bad, 0] = 1.5  # ||z0||^2 > 1 >= phi
    else:
        stack[bad, spec.fiber_dim :] = 0.0
        stack[bad, spec.fiber_dim] = 1.2  # outside the first factor
    with pytest.raises(BoundaryViolationError):
        metric_stack(spec, stack)


PUBLIC_STACK_ENTRIES = {
    "metric_stack": metric_stack,
    "curvature_report": curvature_report,
    "extremal_check": extremal_check,
    "ricci_numeric": ricci_numeric,
    "verdicts": verdicts,
    "hartogs_potential": hartogs_potential,
    "series_partial_sum": lambda spec, coords: series_partial_sum(spec, coords, 4),
}


@pytest.mark.parametrize("entry", sorted(PUBLIC_STACK_ENTRIES))
@pytest.mark.parametrize("where", ["fiber", "base"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_rejected(entry, where, bad):
    # a sample the entry accepts, but for one coordinate of its last row
    spec = SPECS["ball"]
    coords = 0.05 * sample_points(spec, 10, seed=1, margin_frac=0.1, min_margin=0.05)
    PUBLIC_STACK_ENTRIES[entry](spec, coords)
    coords[-1, 0 if where == "fiber" else spec.fiber_dim + 1] = bad
    with pytest.raises(ValueError, match="coordinates must be finite"):
        PUBLIC_STACK_ENTRIES[entry](spec, coords)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_evaluates_the_factors_once(name, monkeypatch):
    spec = SPECS[name]
    points = sample_points(spec, 17, seed=3)
    curvature_report(spec, points[:1], include_extremal=False)  # caches the constants
    calls = []
    factor_stacks = domains._factor_stacks

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return factor_stacks(*args, **kwargs)

    monkeypatch.setattr(domains, "_factor_stacks", counted)
    for rows in (1, 5, 17):
        calls.clear()
        curvature_report(spec, points[:rows], include_extremal=False)
        assert calls == [rows]


def points_per_group(spec):
    """Points of one extremal row group: 8n stencil rows each."""
    return EXTREMAL_STACK_ROWS // (8 * spec.total_dim)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_extremal_rows_across_row_groups(name):
    spec = SPECS[name]
    points = sample_points(spec, 2 * points_per_group(spec) + 3, seed=5, min_margin=0.05)
    report = curvature_report(spec, points)
    for r, p in enumerate(points):
        single = curvature_report(spec, [p])
        for field in REPORT_FIELDS:
            assert np.array_equal(getattr(report, field)[r], getattr(single, field)[0])


def test_extremal_groups_stay_under_the_row_cap(monkeypatch):
    spec = SPECS["cartan_2x2"]
    points = sample_points(spec, 20, seed=2, min_margin=0.05)
    stacks = []

    def recorded(f, centres, step):
        stacks.append(len(centres))
        return conjugate_jacobian(f, centres, step)

    monkeypatch.setattr(curvature, "conjugate_jacobian", recorded)
    curvature_report(spec, points)
    assert sum(stacks) == len(points) and len(stacks) == 4
    assert all(8 * spec.total_dim * rows <= EXTREMAL_STACK_ROWS for rows in stacks)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_stacked_conjugate_jacobian_matches_single_points(name):
    spec = SPECS[name]
    coords = interior_stack(spec, 7, seed=11)

    def field(q):
        # a vector field of the metric stack, one row per point
        return metric_stack(spec, q)[:, 0, :] / np.arange(1, spec.total_dim + 1)

    stacked = conjugate_jacobian(field, coords)
    assert stacked.shape == (7, spec.total_dim, spec.total_dim)
    for r, row in enumerate(coords):
        assert np.array_equal(stacked[r], conjugate_jacobian(field, row[None, :])[0])


def test_report_command_builds_one_report(monkeypatch, tmp_path):
    config = tmp_path / "ball.cfg"
    config.write_text("base.kind = ball\nbase.dims = 2\nbase.mu = 1\nfiber.dim = 1\n")
    reports, centres = [], []
    build, stencil = curvature.curvature_report, curvature.conjugate_jacobian

    def counted_report(spec, points, *args, **kwargs):
        reports.append(len(points))
        return build(spec, points, *args, **kwargs)

    def counted_stencil(f, points, step):
        centres.append(len(points))
        return stencil(f, points, step)

    for module in (curvature, reporting):
        monkeypatch.setattr(module, "curvature_report", counted_report)
    monkeypatch.setattr(curvature, "conjugate_jacobian", counted_stencil)
    out = tmp_path / "report.json"
    argv = ["report", "--config", str(config), "--samples", "12", "--truncation", "3"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert reports == [12]
    assert sum(centres) == 12
