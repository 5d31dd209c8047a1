import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import curvature, taylor
from hartogs.domains import (
    BaseDomainSpec,
    HartogsSpec,
    hartogs_potential,
    phi_derivatives_stack,
    phi_stack,
    sample_points,
)
from hartogs.errors import BoundaryViolationError
from hartogs.wirtinger import DEFAULT_STEP, conjugate_jacobian


def norm2(z):
    # ||z||^2 of one point, or per row of an (N, n) stack
    return np.sum(np.abs(z) ** 2, axis=-1)


def log_disc(z):
    return -np.log(1 - norm2(z))


def gradient(f, p, step=DEFAULT_STEP):
    """(df/dz_a)_a of a real-valued f at the point p: df/dz = conj(df/dzbar),
    from the one-row conjugate Jacobian."""
    return np.conj(conjugate_jacobian(f, [p], step)[0, 0])


def closed_base_hessians(base, z):
    """Mixed Hessians of -log phi per row of a stack, block diagonal by factor."""
    *_, factors = phi_derivatives_stack(base, z)
    hess = np.zeros((len(z), base.dim, base.dim), dtype=np.complex128)
    for sl, (_, factor_hess) in zip(base.factor_slices, factors):
        hess[:, sl, sl] = factor_hess
    return hess


class TestGradient:
    def test_norm_squared(self):
        # d(z zbar)/dz = zbar
        g = gradient(norm2, [0.3])
        assert g[0] == pytest.approx(0.3, abs=1e-10)

    def test_critical_point_at_center(self):
        assert gradient(log_disc, [0.0])[0] == pytest.approx(0.0, abs=1e-10)

    def test_disc_log_gradient(self):
        # zbar / (1 - |z|^2) at z = 0.5
        assert gradient(log_disc, [0.5])[0] == pytest.approx(0.5 / 0.75, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=12, max_size=12))
def test_exact_on_cubics(coeffs):
    # polynomial of degree <= 3 in each real coordinate of one complex variable
    c = np.array(coeffs, dtype=float).reshape(4, 3)

    def f(z):
        x, y = z[:, 0].real, z[:, 0].imag
        return sum(c[i, j] * x**i * y**j for i in range(4) for j in range(3))

    def fx(x, y):
        return sum(i * c[i, j] * x ** (i - 1) * y**j for i in range(1, 4) for j in range(3))

    def fy(x, y):
        return sum(j * c[i, j] * x**i * y ** (j - 1) for i in range(4) for j in range(1, 3))

    p = np.array([0.35 - 0.2j])
    x0, y0 = 0.35, -0.2
    grad = gradient(f, p)
    expected = 0.5 * (fx(x0, y0) - 1j * fy(x0, y0))
    scale = 1.0 + abs(expected)
    assert abs(grad[0] - expected) <= 1e-10 * scale


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
        # the gradient by finite differences; the Hessian from the Taylor-mode
        # jet of the Hartogs potential at zero fiber, whose base block is
        # ddbar(-log phi) there
        spec = HartogsSpec(base, 1)
        pts = sample_points(spec, 6, seed=9, margin_frac=0.1, min_margin=0.05)
        pts[:, 0] = 0.0

        def u(z):
            return -np.log(phi_stack(base, z))

        z = pts[:, 1:]
        closed_h = closed_base_hessians(base, z)
        jet_h = taylor.hessian_jets(curvature._potential_jets(spec, pts, 2), 2)[0][:, 1:, 1:]
        assert np.max(np.abs(jet_h - closed_h)) < 1e-12
        value, grad, _, _ = phi_derivatives_stack(base, z)
        closed_g = -grad / value[:, None]  # gradient of -log phi
        for r, zr in enumerate(z):
            fd_g = gradient(u, zr)
            assert np.max(np.abs(fd_g - closed_g[r])) < 1e-5


class TestBoundaryPropagation:
    def test_stencil_exit_raises(self):
        spec = HartogsSpec(BaseDomainSpec.disc(1.0), 1)
        with pytest.raises(BoundaryViolationError):
            conjugate_jacobian(lambda q: hartogs_potential(spec, q), [[0.999, 0.0]], step=0.01)


@pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
def test_step_must_be_positive_and_finite(step):
    with pytest.raises(ValueError, match="positive and finite"):
        gradient(norm2, [0.3], step)
    with pytest.raises(ValueError, match="positive and finite"):
        conjugate_jacobian(np.conj, [[0.3]], step)
    # one bad step among the per-point steps of a stack fails the stack
    steps = [1e-4, step, 1e-4]
    with pytest.raises(ValueError, match="positive and finite"):
        conjugate_jacobian(norm2, [[0.3], [0.1j], [-0.2]], steps)
    with pytest.raises(ValueError, match="positive and finite"):
        conjugate_jacobian(np.conj, [[0.3], [0.1j], [-0.2]], steps)


def test_conjugate_jacobian_of_conjugate():
    # F(z) = conj(z) has dF/dzbar = 1
    jac = conjugate_jacobian(np.conj, [[0.2 + 0.1j]])
    assert jac.shape == (1, 1, 1)
    assert jac[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
