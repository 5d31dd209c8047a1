"""Dense Hermitian-matrix substrate: symmetrisation and eigenvalues.

Metric and Ricci tensors travel as (N, n, n) stacks, one matrix per sample
point. Producers pass every stack through ``hermitian_part`` once, which
checks the asymmetry against a budget and returns the exactly Hermitian
part, so ``eigenvalues`` can take it row by row.
(Series coefficient blocks are diagonal and are stored as their diagonals in
:mod:`hartogs.series`.)
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError


def hermitian_part(stack: np.ndarray, atol) -> np.ndarray:
    """(M + M*) / 2 for every matrix M of an (N, n, n) stack.

    Each M must be Hermitian within its budget ``atol`` (a scalar, or one
    value per matrix); the result is exactly Hermitian. Closed-form
    producers use ``1e-12 * max |entry|``; the Taylor-mode Ricci oracle
    carries the round-off of its jet algebra and passes a wider budget.
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

