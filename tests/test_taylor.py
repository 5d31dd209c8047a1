"""The truncated Taylor algebra at bidegrees (1, 2), (2, 1), (2, 2), (2, 4)
and (4, 4): products against polynomial multiplication, the recurrences
against their identities, log det against the cofactor determinant, and
the derivatives it reads against closed forms."""

import itertools

import numpy as np
import pytest

from hartogs import taylor
from hartogs.errors import CapabilityError
from hartogs.series import enumerate_indices


def random_jets(rng, shape, n, bidegree=(2, 2)):
    shape = shape + tuple(taylor.width(n, d) for d in bidegree)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def brute_product(x, y, n, bidegree):
    """The truncated product of two single jets, monomial by monomial."""
    z_side, w_side = (enumerate_indices(n, d) for d in bidegree)
    z_index = {m: i for i, m in enumerate(z_side)}
    w_index = {m: i for i, m in enumerate(w_side)}
    out = np.zeros_like(x)
    for i, zi in enumerate(z_side):
        for j, wj in enumerate(w_side):
            for k, zk in enumerate(z_side):
                for l, wl in enumerate(w_side):
                    z = tuple(p + q for p, q in zip(zi, zk))
                    w = tuple(p + q for p, q in zip(wj, wl))
                    if z in z_index and w in w_index:
                        out[z_index[z], w_index[w]] += x[i, j] * y[k, l]
    return out


def disc_potential(p, bidegree):
    """The jet of -log(1 - z w) around the rows of a (P, 1) stack."""
    return -taylor.log(taylor.shifted(-taylor.pairing(p, [0], [0], bidegree), 1.0), bidegree)


def linear(points):
    """The jets of z_k = p_k + Z_k and w_k = conj(p_k) + W_k."""
    n = len(points)
    a = taylor.width(n, 2)
    z = np.zeros((n, a, a), dtype=np.complex128)
    w = np.zeros((n, a, a), dtype=np.complex128)
    for k, p in enumerate(points):
        z[k, 0, 0], z[k, 1 + k, 0] = p, 1.0
        w[k, 0, 0], w[k, 0, 1 + k] = np.conj(p), 1.0
    return z, w


# (n, bidegree); the ids of the (2, 2) cases are n alone
N_AND_BIDEGREE = pytest.mark.parametrize(
    "n, bidegree",
    [(1, (2, 2)), (2, (2, 2)), (3, (2, 2)), (1, (4, 4)), (2, (4, 4)),
     (1, (1, 2)), (3, (1, 2)), (2, (2, 1)), (2, (2, 4))],
    ids=["1", "2", "3", "1-degree4", "2-degree4", "1-bidegree12", "3-bidegree12",
         "2-bidegree21", "2-bidegree24"],
)


@N_AND_BIDEGREE
def test_product_is_truncated_polynomial_multiplication(n, bidegree):
    rng = np.random.default_rng(n)
    x, y = random_jets(rng, (3,), n, bidegree), random_jets(rng, (3,), n, bidegree)
    prod = taylor.mul(x, y, bidegree)
    for r in range(3):
        brute = brute_product(x[r], y[r], n, bidegree)
        assert np.allclose(prod[r], brute, rtol=0, atol=1e-12)
    # leading axes broadcast
    assert np.array_equal(
        taylor.mul(x[:, None], y[None, :], bidegree)[1, 2], taylor.mul(x[1], y[2], bidegree)
    )


def test_product_terms():
    # per side: pairs of monomials whose degrees sum to at most its degree
    assert [taylor.product_terms(n, (2, 2)) for n in (2, 3, 4, 5)] == [
        15**2, 28**2, 45**2, 66**2
    ]
    assert [taylor.product_terms(n, (4, 4)) for n in (1, 2, 3)] == [225, 4_900, 44_100]
    assert [taylor.product_terms(n, (1, 2)) for n in (2, 3, 4, 5)] == [
        5 * 15, 7 * 28, 9 * 45, 11 * 66
    ]
    for n, bidegree in ((2, (2, 2)), (5, (2, 2)), (1, (4, 4)), (3, (4, 4)), (4, (1, 2)),
                        (3, (2, 1))):
        assert len(taylor._product_plan(n, bidegree)[0]) == taylor.product_terms(n, bidegree)
    # mixed-radix keys 3^40 of 40 variables at degree 2 leave int64
    with pytest.raises(CapabilityError):
        taylor._product_plan(40, (2, 2))


def test_side_degree_tells_equal_widths_apart():
    # a = 15 is n = 4 at degree 2 and n = 2 at degree 4
    assert taylor.width(4, 2) == taylor.width(2, 4) == 15
    rng = np.random.default_rng(5)
    x, y = random_jets(rng, (1,), 2, (4, 4)), random_jets(rng, (1,), 2, (4, 4))
    assert np.allclose(
        taylor.mul(x, y, (4, 4))[0], brute_product(x[0], y[0], 2, (4, 4)), rtol=0, atol=1e-12
    )
    assert np.allclose(
        taylor.mul(x, y, (2, 2))[0], brute_product(x[0], y[0], 4, (2, 2)), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "n, bidegree", [(1, (2, 2)), (2, (2, 2)), (4, (2, 2)), (1, (4, 4)), (2, (4, 4)),
                    (3, (1, 2)), (2, (2, 4))],
    ids=["1", "2", "4", "1-degree4", "2-degree4", "3-bidegree12", "2-bidegree24"],
)
def test_log_and_exp_are_inverse(n, bidegree):
    rng = np.random.default_rng(10 + n)
    x = 0.3 * random_jets(rng, (4,), n, bidegree)
    x[:, 0, 0] = 1.5 + 0.2j
    assert np.allclose(taylor.exp(taylor.log(x, bidegree), bidegree), x, rtol=0, atol=1e-13)
    assert np.allclose(taylor.log(taylor.exp(x, bidegree), bidegree), x, rtol=0, atol=1e-13)
    y = 0.3 * random_jets(rng, (4,), n, bidegree)
    y[:, 0, 0] = 0.8
    assert np.allclose(
        taylor.log(taylor.mul(x, y, bidegree), bidegree),
        taylor.log(x, bidegree) + taylor.log(y, bidegree),
        rtol=0,
        atol=1e-13,
    )
    # the reciprocal log_det takes of a pivot
    one = taylor.mul(taylor.exp(-taylor.log(x, bidegree), bidegree), x, bidegree)
    assert np.allclose(one, taylor.shifted(np.zeros_like(x), 1.0), rtol=0, atol=1e-13)


def cofactor_det(y, bidegree):
    """det of a (P, m, m) matrix of jets by the Leibniz expansion."""
    m = y.shape[1]
    total = 0
    for perm in itertools.permutations(range(m)):
        term = y[:, 0, perm[0]]
        for row in range(1, m):
            term = taylor.mul(term, y[:, row, perm[row]], bidegree)
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        total = total + (-1) ** inversions * term
    return total


def cartan_jets(rng, m, k, bidegree):
    """Y = I - Z W^T around 3 points of the m x k Cartan domain."""
    p = 0.3 * (rng.standard_normal((3, m * k)) + 1j * rng.standard_normal((3, m * k))) / k
    cols = np.arange(m * k).reshape(m, k)
    y = -np.stack(
        [np.stack([taylor.pairing(p, zi, wj, bidegree) for wj in cols], axis=1) for zi in cols],
        axis=1,
    )
    y[..., 0, 0] += np.eye(m)
    return y


def test_log_det_is_the_log_of_the_determinant():
    rng = np.random.default_rng(3)
    y = 0.2 * random_jets(rng, (5, 2, 2), 3)
    y[..., 0, 0] = [[1.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.9]]
    # and the Cartan matrices of rank 2 and 3
    for matrix in (y, cartan_jets(rng, 2, 3, (2, 2)), cartan_jets(rng, 3, 3, (2, 2))):
        det = taylor.log(cofactor_det(matrix, (2, 2)), (2, 2))
        assert np.allclose(taylor.log_det(matrix, (2, 2)), det, rtol=0, atol=1e-13)
    assert np.array_equal(taylor.log_det(y[:, :1, :1], (2, 2)), taylor.log(y[:, 0, 0], (2, 2)))


def test_pairing_seeds_the_bilinear_form():
    p = np.array([[0.3 - 0.1j, 0.2j, -0.4]])
    z, w = linear(p[0])
    expected = taylor.mul(z[0], w[2], (2, 2)) + taylor.mul(z[1], w[1], (2, 2))
    assert np.array_equal(taylor.pairing(p, [0, 1], [2, 1], (2, 2))[0], expected)


class TestHessianJets:
    def test_norm_squared_identity(self):
        p = np.array([[0.1 + 0.2j, -0.3j]])
        g, dg, dbg, ddg = taylor.hessian_jets(taylor.pairing(p, [0, 1], [0, 1], (2, 2)), (2, 2))
        assert np.array_equal(g[0], np.eye(2))
        assert not dg.any() and not dbg.any() and not ddg.any()

    def test_ball_potential_at_center(self):
        p = np.zeros((1, 2), dtype=np.complex128)
        f = -taylor.log(taylor.shifted(-taylor.pairing(p, [0, 1], [0, 1], (2, 2)), 1.0), (2, 2))
        assert np.allclose(taylor.hessian_jets(f, (2, 2))[0][0], np.eye(2), rtol=0, atol=1e-15)

    def test_disc_values(self):
        # f = -log(1 - |z|^2): G = 1 / s^2, d G = 2 zbar / s^3 and
        # d dbar G = 2 / s^3 + 6 |z|^2 / s^4 with s = 1 - |z|^2
        z = 0.5 + 0.25j
        s = 1.0 - abs(z) ** 2
        f = disc_potential(np.array([[z]]), (2, 2))
        g, dg, dbg, ddg = (part[0] for part in taylor.hessian_jets(f, (2, 2)))
        assert g[0, 0] == pytest.approx(1 / s**2, rel=1e-14)
        assert dg[0, 0, 0] == pytest.approx(2 * np.conj(z) / s**3, rel=1e-14)
        assert dbg[0, 0, 0] == pytest.approx(2 * z / s**3, rel=1e-14)
        assert ddg[0, 0, 0, 0] == pytest.approx(2 / s**3 + 6 * abs(z) ** 2 / s**4, rel=1e-14)


class TestGradient:
    """First derivatives read from the linear coefficients of a jet: the
    Z-linear coefficient of a real f is df/dz."""

    def test_norm_squared(self):
        # d(z zbar)/dz = zbar
        jet = taylor.pairing(np.array([[0.3]]), [0], [0], (1, 2))
        assert jet[0, 1, 0] == 0.3

    def test_critical_point_at_center(self):
        assert disc_potential(np.zeros((1, 1)), (1, 2))[0, 1, 0] == 0.0

    def test_disc_log_gradient(self):
        # zbar / (1 - |z|^2) at z = 0.5
        jet = disc_potential(np.array([[0.5]]), (1, 2))
        assert jet[0, 1, 0] == pytest.approx(0.5 / 0.75, rel=1e-15)


def test_conjugate_derivatives_of_the_disc_potential():
    # f = -log(1 - z w) at (z, conj(z)): d_w f = z / s, d_w^2 f = z^2 / s^2,
    # G = d_z d_w f = 1 / s^2 and d_w G = 2 z / s^3, with s = 1 - |z|^2
    z = 0.5 + 0.25j
    s = 1.0 - abs(z) ** 2
    first, second = taylor.conjugate_derivatives(disc_potential(np.array([[z]]), (1, 2)), (1, 2))
    assert first.shape == (1, 2, 1) and second.shape == (1, 2, 1, 1)
    assert first[0, 0, 0] == pytest.approx(z / s, rel=1e-14)
    assert second[0, 0, 0, 0] == pytest.approx(z**2 / s**2, rel=1e-14)
    assert first[0, 1, 0] == pytest.approx(1 / s**2, rel=1e-14)
    assert second[0, 1, 0, 0] == pytest.approx(2 * z / s**3, rel=1e-14)
    # mixed second derivatives carry (e_a + e_c)! = 1, the pure ones 2
    p = np.array([[0.2 - 0.1j, 0.3j]])
    _, second = taylor.conjugate_derivatives(
        taylor.mul(taylor.pairing(p, [0], [0], (1, 2)), taylor.pairing(p, [1], [1], (1, 2)),
                   (1, 2)),
        (1, 2),
    )
    assert np.array_equal(second[0, 0], [[0, p[0, 0] * p[0, 1]], [p[0, 0] * p[0, 1], 0]])


def test_rows_match_one_row_stacks():
    for bidegree in ((1, 2), (2, 2), (2, 4), (4, 4)):
        rng = np.random.default_rng(7)
        x = 0.3 * random_jets(rng, (6,), 3, bidegree)
        x[:, 0, 0] = rng.uniform(0.5, 2.0, 6) + 0.1j
        y = 0.2 * random_jets(rng, (6, 2, 2), 3, bidegree)
        y[..., 0, 0] = [[1.3, 0.2], [0.2, 0.9]]
        for op, arg in ((taylor.log, x), (taylor.exp, x), (taylor.log_det, y)):
            out = op(arg, bidegree)
            for r in range(6):
                assert np.array_equal(out[r], op(arg[r : r + 1], bidegree)[0])
        prod = taylor.mul(x, x[::-1], bidegree)
        for r in range(6):
            assert np.array_equal(
                prod[r], taylor.mul(x[r : r + 1], x[::-1][r : r + 1], bidegree)[0]
            )


def test_scratch_buffers_give_the_same_floats():
    # products gathered into a scratch block, one that fits every product
    # and one too small for the largest, equal fresh gathers bit for bit
    rng = np.random.default_rng(11)
    bidegree = (2, 2)
    y = cartan_jets(rng, 3, 3, bidegree)
    x = 0.3 * random_jets(rng, (3,), 9, bidegree)
    x[:, 0, 0] = 1.5
    plain = [taylor.log_det(y, bidegree), taylor.exp(x, bidegree), taylor.log(x, bidegree)]
    fits = 16 * 4 * 3 * taylor.product_terms(9, bidegree)
    for nbytes in (fits, fits // 8):
        with taylor.scratch(nbytes):
            inside = [taylor.log_det(y, bidegree), taylor.exp(x, bidegree), taylor.log(x, bidegree)]
        for a, b in zip(plain, inside):
            assert np.array_equal(a, b)
    assert taylor._scratch.get() is None
