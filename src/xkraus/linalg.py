"""Small dense complex linear algebra helpers.

Everything operates on plain numpy arrays (2x2 or 4x4, complex128).
NumericalFailureError is the typed error that callers raise for LAPACK
non-convergence or unusable values, so the CLI can map it onto a distinct
exit code.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumericalFailureError", "inf_norm_diff"]


class NumericalFailureError(RuntimeError):
    """An eigenvalue computation did not converge or returned unusable values."""


IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def inf_norm_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise absolute difference between two equal-shape matrices."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
