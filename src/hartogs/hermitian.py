"""Dense Hermitian-matrix substrate: symmetrisation, eigenvalues, solves.

Metric and Ricci tensors are stored as a :class:`HermitianMatrix`, so
symmetry and realness of eigenvalues are guaranteed once at construction
instead of being re-checked at every use site. Finite-difference oracles
work on (N, n, n) stacks of metrics, which ``hermitian_part``,
``eigenvalues`` and ``solve_hermitian`` take row by row. (Series coefficient
blocks are diagonal and are stored as their diagonals in :mod:`hartogs.series`.)
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError, NotPositiveDefiniteError

# Relative asymmetry admitted by default at construction. Finite-difference
# producers carry O(step^2) asymmetry and must pass an explicit budget.
_HERMITIAN_ATOL_SCALE = 1e-12


def hermitian_part(stack: np.ndarray, atol) -> np.ndarray:
    """(M + M*) / 2 for every matrix M of an (N, n, n) stack.

    Each M must be Hermitian within its budget ``atol`` (a scalar, or one
    value per matrix); the result is exactly Hermitian.
    """
    stack_h = np.conj(stack.swapaxes(-1, -2))
    asymmetry = np.abs(stack - stack_h).max(axis=(-2, -1))
    bad = asymmetry > atol
    if np.count_nonzero(bad):
        i = bad.argmax()
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {asymmetry[i]:.3e} "
            f"exceeds budget {np.broadcast_to(atol, asymmetry.shape)[i]:.3e}"
        )
    return 0.5 * (stack + stack_h)


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
        if atol is None:
            atol = _HERMITIAN_ATOL_SCALE * float(np.max(np.abs(m)))
        m = hermitian_part(m[None], atol)[0]
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


def eigenvalues(m) -> np.ndarray:
    """Real eigenvalues in ascending order, of a HermitianMatrix or of each
    matrix of an (N, n, n) Hermitian stack."""
    a = m.array if isinstance(m, HermitianMatrix) else m
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        dim = a.shape[-1]
        raise EigenSolverError(
            f"eigenvalue solver failed to converge on a {dim}x{dim} matrix",
            dim=dim,
        ) from exc


def solve_hermitian(m, rhs) -> np.ndarray:
    """Solve M x = rhs for positive definite M: a HermitianMatrix and a
    vector, or each matrix of an (N, n, n) stack with its row of an (N, n) rhs.

    Raises :class:`NotPositiveDefiniteError` (naming the minimum eigenvalue)
    when some M is singular or indefinite. One refinement step, on the rows
    that need it, keeps each residual below 1e-12 relative even for mildly
    ill-conditioned metrics.
    """
    if isinstance(m, HermitianMatrix):
        return solve_hermitian(m.array[None], np.asarray(rhs)[None])[0]
    b = np.asarray(rhs, dtype=np.complex128)[:, :, None]
    min_eig = eigenvalues(m)[:, 0]
    bad = min_eig <= 0.0
    if np.count_nonzero(bad):
        worst = float(min_eig[bad.argmax()])
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {worst:.6e})",
            min_eigenvalue=worst,
        )
    x = np.linalg.solve(m, b)
    residual = m @ x - b
    norm_b = np.linalg.norm(b[:, :, 0], axis=1)
    redo = (norm_b > 0) & (np.linalg.norm(residual[:, :, 0], axis=1) > 1e-12 * norm_b)
    if redo.any():
        x[redo] = x[redo] - np.linalg.solve(m[redo], residual[redo])
    return x[:, :, 0]
