from __future__ import annotations

import numpy as np

from xkraus.linalg import IDENTITY_2, PAULI_X, PAULI_Y, inf_norm_diff


def test_pauli_matrices_square_to_identity():
    assert inf_norm_diff(PAULI_X @ PAULI_X, IDENTITY_2) == 0.0
    assert inf_norm_diff(PAULI_Y @ PAULI_Y, IDENTITY_2) == 0.0


def test_inf_norm_diff():
    a = np.zeros((4, 4), dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    b[3, 0] = 3.0 - 4.0j
    assert inf_norm_diff(a, b) == 5.0
    assert inf_norm_diff(b, b) == 0.0
