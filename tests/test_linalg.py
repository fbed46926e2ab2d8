from __future__ import annotations

import numpy as np

from xkraus.linalg import (
    IDENTITY_2,
    IDENTITY_4,
    PAULI_X,
    PAULI_Y,
    dagger,
    inf_norm_diff,
    kron,
    matmul,
)


def _random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_kron_block_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = kron(a, b)
    assert out.shape == (4, 4)
    assert out.dtype == np.complex128
    # first factor indexes the 2x2 blocks
    assert np.array_equal(out[:2, :2], 1.0 * b)
    assert np.array_equal(out[:2, 2:], 2.0 * b)
    assert np.array_equal(out[2:, :2], 3.0 * b)
    assert np.array_equal(out[2:, 2:], 4.0 * b)


def test_kron_identities():
    assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), IDENTITY_4)


def test_matmul_matches_operator():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = _random_complex(rng, 4)
        b = _random_complex(rng, 4)
        assert inf_norm_diff(matmul(a, b), a @ b) == 0.0


def test_dagger_is_conjugate_transpose():
    m = np.array([[1.0 + 2.0j, 3.0], [4.0j, 5.0 - 1.0j]])
    out = dagger(m)
    assert out[0, 1] == np.conj(m[1, 0])
    assert out[1, 0] == np.conj(m[0, 1])
    assert inf_norm_diff(dagger(out), m) == 0.0


def test_pauli_matrices_square_to_identity():
    assert inf_norm_diff(matmul(PAULI_X, PAULI_X), IDENTITY_2) == 0.0
    assert inf_norm_diff(matmul(PAULI_Y, PAULI_Y), IDENTITY_2) == 0.0


def test_inf_norm_diff():
    a = np.zeros((4, 4), dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    b[3, 0] = 3.0 - 4.0j
    assert inf_norm_diff(a, b) == 5.0
    assert inf_norm_diff(b, b) == 0.0
