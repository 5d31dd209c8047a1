import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs.curvature import curvature_report
from hartogs.domains import BaseDomainSpec, HartogsSpec, sample_points
from hartogs.errors import EigenSolverError, NotPositiveDefiniteError
from hartogs.hermitian import (
    eigenvalues,
    hermitian_part,
    solve_hermitian,
)

B2 = HartogsSpec(BaseDomainSpec.disc(1.0), 1)  # the unit ball in C^2


def metric_report(spec, points):
    """Metrics and their determinants (det_direct) at a sample."""
    return curvature_report(spec, points, include_extremal=False)


def closed_budget(stack):
    # the budget of closed-form producers: 1e-12 * max |entry| per matrix
    return 1e-12 * np.abs(stack).max(axis=(1, 2))


class TestConstruction:
    """``hermitian_part``, the symmetry check every matrix producer runs."""

    def test_symmetrizes_small_asymmetry(self):
        m = np.array([[[1.0, 0.5 + 1e-14j], [0.5, 2.0]]])
        h = hermitian_part(m, closed_budget(m))
        assert np.array_equal(h, h.conj().swapaxes(1, 2))
        assert np.allclose(h, m)

    def test_rejects_large_asymmetry(self):
        m = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=np.complex128)
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_part(m, closed_budget(m))

    def test_explicit_budget_admits_fd_noise(self):
        m = np.array([[[1.0, 0.5 + 1e-7j], [0.5 - 2e-7j, 2.0]]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_part(m, closed_budget(m))
        h = hermitian_part(m, 1e-6)
        assert np.array_equal(h, h.conj().swapaxes(1, 2))

    def test_budget_applies_per_matrix(self):
        # the first matrix is 2e-7 off Hermitian, the second exactly Hermitian
        m = np.array([[[1.0, 1e-7j], [1e-7j, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="asymmetry 2.000e-07 exceeds budget 1.000e-07"):
            hermitian_part(m, [1e-7, 1e-6])
        assert hermitian_part(m, [1e-6, 0.0]).shape == (2, 2, 2)


class TestDeterminant:
    """det_direct, the determinant of each metric of a curvature report."""

    def test_identity(self):
        # the metric of the unit ball at the origin is the identity
        rep = metric_report(B2, [[0.0, 0.0]])
        assert rep.det_direct[0] == pytest.approx(1.0)

    def test_diagonal_product(self):
        # at (1/2, 0) the metric is diag(0.75^-2, 0.75^-1) -> 0.75^-3
        rep = metric_report(B2, [[0.5, 0.0]])
        assert rep.det_direct[0] == pytest.approx(0.75**-3, rel=1e-12)

    def test_imaginary_part_negligible(self):
        spec = HartogsSpec(BaseDomainSpec.ball(3, 1.0), 2)  # 5 x 5 metrics
        rep = metric_report(spec, sample_points(spec, 5, seed=0))
        det = np.linalg.det(rep.metric)
        assert np.array_equal(det.real, rep.det_direct)
        assert np.all(np.abs(det.imag) <= 1e-12 * np.maximum(np.abs(det), 1.0))


class TestPsdCheck:
    """Eigen-solver failures; diagonal coefficient blocks are decided exactly
    in ``hartogs.series``."""

    def test_solver_failure_names_dimension(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        with pytest.raises(EigenSolverError) as err:
            eigenvalues(np.eye(4)[None])
        assert err.value.dim == 4


class TestSolve:
    def test_identity(self):
        x = solve_hermitian(np.eye(2)[None], [[1.0, 2.0]])
        assert np.allclose(x, [[1.0, 2.0]])

    def test_diagonal(self):
        x = solve_hermitian(np.diag([2.0, 4.0])[None], [[2.0, 4.0]])
        assert np.allclose(x, [[1.0, 1.0]])

    def test_rejects_indefinite(self):
        stack = np.array([np.eye(2), np.diag([1.0, -2.0])])
        with pytest.raises(NotPositiveDefiniteError) as err:
            solve_hermitian(stack, [[1.0, 1.0], [1.0, 1.0]])
        assert err.value.min_eigenvalue == pytest.approx(-2.0)

    def test_roundtrip_residual(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = a @ a.conj().T + 0.1 * np.eye(6)
        m = hermitian_part(m[None], closed_budget(m[None]))
        rhs = rng.normal(size=(1, 6)) + 1j * rng.normal(size=(1, 6))
        x = solve_hermitian(m, rhs)
        assert np.linalg.norm(m[0] @ x[0] - rhs[0]) <= 1e-10 * np.linalg.norm(rhs)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_determinant_matches_eigenvalue_product(dim, seed):
    # metrics of dimension 2..7: one fiber over a polydisc of `dim` factors
    spec = HartogsSpec(BaseDomainSpec.polydisc(((1.0, 2.0, 0.5) * 2)[:dim]), 1)
    rep = metric_report(spec, sample_points(spec, 1, seed=seed))
    prod = float(np.prod(eigenvalues(rep.metric)[0]))
    assert rep.det_direct[0] == pytest.approx(prod, rel=1e-9, abs=1e-12)
