"""Dense Hermitian-matrix substrate: symmetrisation, eigenvalues, solves.

Metric and Ricci tensors travel as (N, n, n) stacks, one matrix per sample
point. Producers pass every stack through ``hermitian_part`` once, which
checks the asymmetry against a budget and returns the exactly Hermitian
part, so ``eigenvalues`` and ``solve_hermitian`` can take it row by row.
(Series coefficient blocks are diagonal and are stored as their diagonals in
:mod:`hartogs.series`.)
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError, NotPositiveDefiniteError


def hermitian_part(stack: np.ndarray, atol) -> np.ndarray:
    """(M + M*) / 2 for every matrix M of an (N, n, n) stack.

    Each M must be Hermitian within its budget ``atol`` (a scalar, or one
    value per matrix); the result is exactly Hermitian. Closed-form
    producers use ``1e-12 * max |entry|``; finite-difference producers carry
    O(step^2) asymmetry and pass a wider budget.
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


def eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Real eigenvalues in ascending order of each matrix of an (N, n, n)
    Hermitian stack."""
    try:
        return np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        dim = stack.shape[-1]
        raise EigenSolverError(
            f"eigenvalue solver failed to converge on a {dim}x{dim} matrix",
            dim=dim,
        ) from exc


def solve_hermitian(stack: np.ndarray, rhs) -> np.ndarray:
    """Solve M x = rhs for each positive definite matrix M of an (N, n, n)
    stack with its row of an (N, n) rhs.

    Raises :class:`NotPositiveDefiniteError` (naming the minimum eigenvalue)
    when some M is singular or indefinite. One refinement step, on the rows
    that need it, keeps each residual below 1e-12 relative even for mildly
    ill-conditioned metrics.
    """
    b = np.asarray(rhs, dtype=np.complex128)[:, :, None]
    min_eig = eigenvalues(stack)[:, 0]
    bad = min_eig <= 0.0
    if np.count_nonzero(bad):
        worst = float(min_eig[bad.argmax()])
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {worst:.6e})",
            min_eigenvalue=worst,
        )
    x = np.linalg.solve(stack, b)
    residual = stack @ x - b
    norm_b = np.linalg.norm(b[:, :, 0], axis=1)
    redo = (norm_b > 0) & (np.linalg.norm(residual[:, :, 0], axis=1) > 1e-12 * norm_b)
    if redo.any():
        x[redo] = x[redo] - np.linalg.solve(stack[redo], residual[redo])
    return x[:, :, 0]
