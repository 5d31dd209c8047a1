"""Dense Hermitian-matrix substrate: eigenvalues, determinants, solves.

Metric and Ricci tensors are stored as a :class:`HermitianMatrix`, so
symmetry and realness of eigenvalues are guaranteed once at construction
instead of being re-checked at every use site. (Series coefficient blocks are
diagonal and are stored as their diagonals in :mod:`hartogs.series`.)
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError, NotPositiveDefiniteError

# Relative asymmetry admitted by default at construction. Finite-difference
# producers carry O(step^2) asymmetry and must pass an explicit budget.
_HERMITIAN_ATOL_SCALE = 1e-12


class HermitianMatrix:
    """Immutable dense Hermitian matrix.

    The input is checked to be Hermitian within ``atol`` (default
    ``1e-12 * max |entry|``) and then symmetrized to ``(M + M*) / 2``, so the
    stored array is exactly Hermitian and its eigenvalues are real.
    """

    __slots__ = ("_m",)

    def __init__(self, entries, atol=None):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        scale = float(np.max(np.abs(m)))
        budget = float(atol) if atol is not None else _HERMITIAN_ATOL_SCALE * scale
        asymmetry = float(np.max(np.abs(m - m.conj().T)))
        if asymmetry > budget:
            raise ValueError(
                f"matrix is not Hermitian: asymmetry {asymmetry:.3e} "
                f"exceeds budget {budget:.3e}"
            )
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        self._m = m

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the entries."""
        return self._m

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def eigenvalues(m: HermitianMatrix) -> np.ndarray:
    """Real eigenvalues in ascending order."""
    try:
        return np.linalg.eigvalsh(m.array)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise EigenSolverError(
            f"eigenvalue solver failed to converge on a {m.dim}x{m.dim} matrix",
            dim=m.dim,
        ) from exc


def determinant(m: HermitianMatrix) -> complex:
    return complex(np.linalg.det(m.array))


def solve_hermitian(m: HermitianMatrix, rhs) -> np.ndarray:
    """Solve M x = rhs for positive definite M.

    Raises :class:`NotPositiveDefiniteError` (naming the minimum eigenvalue)
    when M is singular or indefinite. One refinement step keeps the residual
    below 1e-10 relative even for mildly ill-conditioned metrics.
    """
    b = np.asarray(rhs, dtype=np.complex128)
    eig = eigenvalues(m)
    min_eig = float(eig[0])
    if min_eig <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {min_eig:.6e})",
            min_eigenvalue=min_eig,
        )
    a = m.array
    x = np.linalg.solve(a, b)
    residual = a @ x - b
    norm_b = float(np.linalg.norm(b))
    if norm_b > 0 and float(np.linalg.norm(residual)) > 1e-12 * norm_b:
        x = x - np.linalg.solve(a, residual)
    return x
