"""The dense 4x4 route: the independent oracle for the X-state closed forms.

Everything operates on plain numpy arrays (2x2 or 4x4, complex128) in the
basis of ``states``.  Wootters' concurrence of an arbitrary two-qubit
density matrix (``concurrence_general``), the X-shape residual of a dense
matrix (``x_form_residual``) and the local unitaries (``apply_local_unitary``,
``flip_a_unitary``, ``random_local_unitary``) check the closed forms of
``entanglement`` and ``channels`` in the tests and in ``verify``; the Kraus
sums that they check are ``channels.kraus_set`` and ``channels.apply``.
NumericalFailureError is the typed error that callers raise for LAPACK
non-convergence or unusable values, so the CLI can map it onto a distinct
exit code.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericalFailureError",
    "inf_norm_diff",
    "concurrence_general",
    "x_form_residual",
    "apply_local_unitary",
    "flip_a_unitary",
    "random_local_unitary",
]


class NumericalFailureError(RuntimeError):
    """An eigenvalue computation did not converge or returned unusable values."""


IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)
_HERMITIAN_TOL = 1e-10
_CLAMP_TOL = 1e-10
_UNITARY_TOL = 1e-12

X_POSITIONS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2), (2, 1), (3, 0))
OFF_X_POSITIONS = tuple(
    (i, j) for i in range(4) for j in range(4) if (i, j) not in X_POSITIONS
)


def inf_norm_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise absolute difference between two equal-shape matrices."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def concurrence_general(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    Wootters' factor route: with rho = W W^+ built from the eigenvectors of
    rho, the singular values s_1 >= ... >= s_4 of W^T (sy x sy) W are the
    square roots of the spin-flip spectrum, and
    C = max(0, s_1 - s_2 - s_3 - s_4).  Non-finite entries raise ValueError.
    A matrix that is not Hermitian within 1e-10, or has an eigenvalue below
    -1e-10, raises NumericalFailureError; eigenvalues in [-1e-10, 0) are
    clamped to zero.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise ValueError("matrix entries must be finite")
    if inf_norm_diff(rho, rho.conj().T) > _HERMITIAN_TOL:
        raise NumericalFailureError("density matrix is not Hermitian")
    try:
        lam, vecs = np.linalg.eigh(rho)
        factor = vecs * np.sqrt(np.maximum(lam, 0.0))
        s = np.linalg.svd(factor.T @ _SIGMA_YY @ factor, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigen- or singular-value iteration failed: {exc}") from exc
    if lam[0] < -_CLAMP_TOL:
        raise NumericalFailureError(f"negative eigenvalue {lam[0]} in density matrix")
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def x_form_residual(rho: np.ndarray) -> float:
    """Largest magnitude outside the diagonal and anti-diagonal positions."""
    rho = np.asarray(rho, dtype=complex)
    return max(abs(complex(rho[i, j])) for i, j in OFF_X_POSITIONS)


def apply_local_unitary(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Conjugate a dense matrix by the product unitary u_a (x) u_b, u_a on
    qubit A and u_b on qubit B; the spectrum is kept.

    Raises ValueError if either factor misses unitarity by more than 1e-12.
    """
    for name, u in (("u_a", u_a), ("u_b", u_b)):
        res = inf_norm_diff(u.conj().T @ u, IDENTITY_2)
        if res > _UNITARY_TOL:
            raise ValueError(f"{name} is not unitary (residual {res:.3e})")
    u4 = np.kron(u_a, u_b)
    return u4 @ np.asarray(rho, dtype=complex) @ u4.conj().T


def flip_a_unitary() -> tuple[np.ndarray, np.ndarray]:
    """(u_a, u_b): bit flip of qubit A (times i), identity on qubit B.

    Conjugation swaps basis indices 0<->2 and 1<->3 and exchanges the roles
    of the inner and outer coherences, taking werner_psi(F) exactly onto
    werner_phi(F).
    """
    return 1j * PAULI_X, IDENTITY_2.copy()


def _haar_unitary_2(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_local_unitary(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(u_a, u_b): independent Haar-random unitaries on the two qubits,
    u_a drawn first."""
    return _haar_unitary_2(rng), _haar_unitary_2(rng)
