"""Row consistency of the point-stack kernels.

Points travel as (N, n) stacks, and the extremal residual and the Ricci
oracle each evaluate a chunk of points as one stack of jets, so row r of a
stack must give the same floats as the one-row stack of that point, and a
row of a ``curvature_report`` or of ``ricci_numeric`` the same values as
that point alone, however the sample splits into jet chunks. This pins the
arithmetic
rules of the kernels: squared norms as stacked matmuls on C-contiguous rows,
powers, logs and exponentials on Python numbers row by row, jet products as
gathers and ``reduceat`` sums, and stacked LAPACK calls.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import cli, curvature, domains, reporting, taylor
from hartogs.curvature import (
    EXTREMAL_BIDEGREE,
    JET_STACK_BYTES,
    RICCI_BIDEGREE,
    curvature_report,
    extremal_check,
    jet_bytes_per_point,
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


def points_per_chunk(spec, bidegree=RICCI_BIDEGREE):
    """Points of one chunk of jets of this bidegree, under the budget in force."""
    return max(1, curvature.JET_STACK_BYTES // jet_bytes_per_point(spec, bidegree))


@pytest.fixture
def small_budget(monkeypatch):
    """A jet budget of 4,096 product terms, so that a few points of every
    spec here split into several chunks, at margins that stay interior."""
    monkeypatch.setattr(curvature, "JET_STACK_BYTES", 16 * 4096)


def recorded_jets(monkeypatch):
    """(rows, bidegree) of every potential jet the curvature module builds."""
    calls = []
    jets = curvature._potential_jets

    def recorded(spec, coords, bidegree):
        calls.append((len(coords), bidegree))
        return jets(spec, coords, bidegree)

    monkeypatch.setattr(curvature, "_potential_jets", recorded)
    return calls


def near_boundary(spec, coords, margins):
    """coords with the fiber of row r moved so its margin is margins[r]
    (rows without one, marked None, stay)."""
    coords = coords.copy()
    phis = phi_stack(spec.base, coords[:, spec.fiber_dim :])
    for r, margin in enumerate(margins):
        if margin is not None:
            coords[r, : spec.fiber_dim] = 0.0
            coords[r, 0] = math.sqrt(phis[r] - margin)
    return coords


@pytest.mark.parametrize("name", sorted(SPECS))
def test_extremal_rows_across_row_groups(name, small_budget):
    # rows on both sides of every jet chunk boundary, every other one close
    # to the boundary of the domain, equal their one-row stacks
    spec = SPECS[name]
    rows = 2 * points_per_chunk(spec, EXTREMAL_BIDEGREE) + 3
    margins = [1e-3 * (r + 1) if r % 2 else None for r in range(rows)]
    points = near_boundary(spec, sample_points(spec, rows, seed=5, min_margin=0.05), margins)
    report = curvature_report(spec, points)
    check = extremal_check(spec, points)
    assert np.array_equal(check.residual, report.extremal_residual)
    for r, p in enumerate(points):
        single = curvature_report(spec, [p])
        for field in REPORT_FIELDS:
            assert np.array_equal(getattr(report, field)[r], getattr(single, field)[0])
        assert check.fiber_component[r] == extremal_check(spec, [p]).fiber_component[0]


def test_extremal_groups_stay_under_the_row_cap(monkeypatch, small_budget):
    # consecutive chunks of points, each as large as the byte budget allows
    spec = SPECS["cartan_2x2"]
    points = sample_points(spec, 20, seed=2, min_margin=0.05)
    calls = recorded_jets(monkeypatch)
    curvature_report(spec, points)
    per_chunk = points_per_chunk(spec, EXTREMAL_BIDEGREE)
    assert calls == [(per_chunk, EXTREMAL_BIDEGREE)] * 4
    size = jet_bytes_per_point(spec, EXTREMAL_BIDEGREE)
    assert per_chunk * size <= curvature.JET_STACK_BYTES < (per_chunk + 1) * size


@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_exterior_row_fails_the_extremal_stack(name):
    # the last row at margin 1e-3 is accepted; moved outside, it fails the stack
    spec = SPECS[name]
    coords = near_boundary(spec, interior_stack(spec, 5, seed=6), [None] * 4 + [1e-3])
    extremal_check(spec, coords)
    coords[-1, : spec.fiber_dim] *= 2.0
    with pytest.raises(BoundaryViolationError):
        extremal_check(spec, coords)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_ricci_rows_across_row_groups(name, small_budget):
    # rows on both sides of every chunk boundary, every other one close to
    # the boundary of the domain, equal their one-row stacks
    spec = SPECS[name]
    rows = 2 * points_per_chunk(spec) + 3
    margins = [1e-3 * (r + 1) if r % 2 else None for r in range(rows)]
    points = near_boundary(spec, sample_points(spec, rows, seed=4, min_margin=0.05), margins)
    ric = ricci_numeric(spec, points)
    for r, p in enumerate(points):
        assert np.array_equal(ric[r], ricci_numeric(spec, [p])[0])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_ricci_groups_stay_under_the_row_cap(name, monkeypatch, small_budget):
    # consecutive chunks of points, each as large as the byte budget allows
    spec = SPECS[name]
    points = sample_points(spec, 10, seed=2, min_margin=0.05)
    chunks = []
    jets = curvature._potential_jets

    def recorded(spec, coords, bidegree):
        chunks.append(coords)
        return jets(spec, coords, bidegree)

    monkeypatch.setattr(curvature, "_potential_jets", recorded)
    ricci_numeric(spec, points)
    assert np.array_equal(np.concatenate(chunks), points)
    per_chunk = points_per_chunk(spec)
    assert [len(chunk) for chunk in chunks[:-1]] == [per_chunk] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= per_chunk
    size = jet_bytes_per_point(spec, RICCI_BIDEGREE)
    assert per_chunk == 1 or per_chunk * size <= curvature.JET_STACK_BYTES < (per_chunk + 1) * size


@pytest.mark.parametrize(
    "spec",
    [*SPECS.values(), HartogsSpec(BaseDomainSpec.cartan_type_i(3, 3, 2.0), 1)],
    ids=[*SPECS, "cartan_3x3"],
)
def test_no_gather_buffer_exceeds_the_budget(spec, monkeypatch):
    # samples that span at least two chunks at the budget in force; on
    # cartan 3x3 the largest buffer is the (m - 1)^2 = 4 products of the
    # Schur update of the jet LU, at exactly the bytes of a chunk's points
    sizes = []
    gathered = taylor._gathered

    def recorded(source, index, slot):
        out = gathered(source, index, slot)
        sizes.append(out.nbytes)
        return out

    monkeypatch.setattr(taylor, "_gathered", recorded)
    bidegrees = [EXTREMAL_BIDEGREE] if spec.total_dim > 7 else [RICCI_BIDEGREE, EXTREMAL_BIDEGREE]
    for bidegree in bidegrees:
        per_chunk = points_per_chunk(spec, bidegree)
        assert per_chunk * jet_bytes_per_point(spec, bidegree) <= JET_STACK_BYTES
        points = sample_points(spec, per_chunk + 1, seed=3, min_margin=0.05)
        sizes.clear()
        oracle = ricci_numeric if bidegree == RICCI_BIDEGREE else extremal_check
        oracle(spec, points)
        assert 0 < max(sizes) <= JET_STACK_BYTES
        if spec.base.shape and spec.base.shape[0] == 3:
            assert max(sizes) == per_chunk * jet_bytes_per_point(spec, bidegree)


def test_report_command_builds_one_report(monkeypatch, tmp_path):
    config = tmp_path / "ball.cfg"
    config.write_text("base.kind = ball\nbase.dims = 2\nbase.mu = 1\nfiber.dim = 1\n")
    reports = []
    build = curvature.curvature_report

    def counted_report(spec, points, *args, **kwargs):
        reports.append(len(points))
        return build(spec, points, *args, **kwargs)

    for module in (curvature, reporting):
        monkeypatch.setattr(module, "curvature_report", counted_report)
    jets = recorded_jets(monkeypatch)
    out = tmp_path / "report.json"
    argv = ["report", "--config", str(config), "--samples", "12", "--truncation", "3"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert reports == [12]
    # the 12 points fit one chunk of extremal jets: n = 3 takes 334 per chunk
    assert jets == [(12, EXTREMAL_BIDEGREE)]
