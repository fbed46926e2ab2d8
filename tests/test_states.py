from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from xkraus.linalg import IDENTITY_2, inf_norm_diff
from xkraus.states import (
    XState,
    apply_local_unitary,
    flip_a_unitary,
    random_local_unitary,
    random_x_state,
    to_dense,
    werner_phi,
    werner_psi,
    _negative_weight,
)


def test_xstate_accepts_valid_parameters():
    s = XState(0.3, 0.2, 0.25, 0.25, z=0.1 + 0.05j, w=-0.2j)
    assert s.a == 0.3
    assert s.z == 0.1 + 0.05j


def test_xstate_rejects_bad_trace():
    with pytest.raises(ValueError):
        XState(0.3, 0.3, 0.3, 0.3)


def test_xstate_rejects_negative_population():
    with pytest.raises(ValueError):
        XState(-0.1, 0.4, 0.4, 0.3)


def test_xstate_rejects_oversized_coherences():
    # |z|^2 beyond b*c, or |w|^2 beyond a*d, leaves its block a negative eigenvalue
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, z=0.26)
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, w=0.26)
    # a magnitude whose square overflows is still too large, not an OverflowError
    with pytest.raises(ValueError, match=r"not positive semidefinite: its negative eigenvalues sum to -1e\+200$"):
        XState(0.25, 0.25, 0.25, 0.25, z=1e200)
    with pytest.raises(ValueError, match=r"not positive semidefinite: its negative eigenvalues sum to -1\.414213562373095e\+200$"):
        XState(0.25, 0.25, 0.25, 0.25, w=complex(1e200, -1e200))


def _oracle_params(rng: np.random.Generator) -> tuple:
    """X parameters of either sign and any size: populations 0, tiny or
    O(1), coherences near the pure edge sqrt(|p*q|), tiny to 1e200, or O(1)."""

    def population() -> float:
        kind = rng.integers(4)
        if kind == 0:
            return 0.0
        if kind == 1:
            return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, -1))
        return float(rng.uniform(-0.5, 1.0))

    def coherence(p: float, q: float) -> complex:
        kind = rng.integers(3)
        if kind == 0:
            size = math.sqrt(abs(p * q)) * (1.0 + rng.uniform(-1e-12, 1e-12))
        elif kind == 1:
            size = 10.0 ** rng.uniform(-300, 200)
        else:
            size = rng.uniform(0.0, 1.0)
        return size * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    a, b, c, d = (population() for _ in range(4))
    return a, b, c, d, coherence(b, c), coherence(a, d)


def test_negative_weight_agrees_with_the_dense_spectrum():
    # the negative eigenvalues of the two blocks, summed as XState's rule
    # sums them, against the 4 x 4 spectrum from numpy.  The matrix is
    # scaled by a power of two, which moves no entry by more than the
    # tolerance, since LAPACK fails to converge on entries near 1e200; eigh,
    # because eigvalsh misplaces eigenvalues of
    # matrices with tiny entries, by 2e-4 for w = 0.717 beside a = 1.9e-224
    # and d = -1.2e-129
    rng = np.random.default_rng(23)
    for _ in range(3000):
        a, b, c, d, z, w = _oracle_params(rng)
        rho = np.array([[a, 0, 0, w], [0, b, z, 0], [0, z.conjugate(), c, 0], [w.conjugate(), 0, 0, d]])
        scale = 2.0 ** math.frexp(abs(rho).max())[1]
        spectrum = np.linalg.eigh(rho / scale)[0] * scale
        dense = -spectrum[spectrum < 0.0].sum()
        weight = _negative_weight(b, c, abs(z)) + _negative_weight(a, d, abs(w))
        assert abs(weight - dense) <= 1e-15 * max(1.0, abs(spectrum).sum()), (a, b, c, d, z, w)


def test_xstate_rejects_nonfinite():
    with pytest.raises(ValueError):
        XState(math.nan, 0.4, 0.3, 0.3)
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, z=complex(math.inf, 0.0))


def test_werner_psi_frozen_point():
    s = werner_psi(0.8)
    assert abs(s.a - 1.0 / 15.0) < 1e-15
    assert abs(s.b - 13.0 / 30.0) < 1e-15
    assert abs(s.c - 13.0 / 30.0) < 1e-15
    assert abs(s.d - 1.0 / 15.0) < 1e-15
    assert abs(s.z - (-11.0 / 30.0)) < 1e-15
    assert s.w == 0.0j


def test_werner_phi_mirrors_psi():
    s = werner_phi(0.8)
    assert abs(s.a - 13.0 / 30.0) < 1e-15
    assert abs(s.b - 1.0 / 15.0) < 1e-15
    assert abs(s.c - 1.0 / 15.0) < 1e-15
    assert abs(s.d - 13.0 / 30.0) < 1e-15
    assert s.z == 0.0j
    assert abs(s.w - (-11.0 / 30.0)) < 1e-15


def test_werner_quarter_is_maximally_mixed():
    s = werner_psi(0.25)
    assert max(abs(s.a - 0.25), abs(s.b - 0.25), abs(s.c - 0.25), abs(s.d - 0.25)) < 1e-15
    assert s.z == 0.0j and s.w == 0.0j


def test_werner_one_is_pure_bell():
    rho = to_dense(werner_psi(1.0))
    vals = np.sort(np.linalg.eigvalsh(rho))
    assert abs(vals[-1] - 1.0) < 1e-14
    assert abs(vals[:3]).max() < 1e-14


def test_werner_rejects_out_of_range_fidelity():
    for bad in (0.2, 1.1, math.nan):
        with pytest.raises(ValueError):
            werner_psi(bad)
        with pytest.raises(ValueError):
            werner_phi(bad)


def test_dense_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(200):
        s = random_x_state(rng)
        rho = to_dense(s)
        expected = {
            (0, 0): s.a, (1, 1): s.b, (2, 2): s.c, (3, 3): s.d,
            (1, 2): s.z, (2, 1): s.z.conjugate(), (0, 3): s.w, (3, 0): s.w.conjugate(),
        }
        for i in range(4):
            for j in range(4):
                assert rho[i, j] == expected.get((i, j), 0.0)


def test_local_unitary_matrix_is_tensor_product():
    rng = np.random.default_rng(33)
    u_a, u_b = random_local_unitary(rng)
    rho = to_dense(random_x_state(rng))
    u4 = np.kron(u_a, u_b)
    # apply_local_unitary conjugates by u4, in which qubit A indexes the
    # 2x2 blocks and qubit B the entries inside each block
    assert inf_norm_diff(apply_local_unitary(rho, u_a, u_b), u4 @ rho @ u4.conj().T) == 0.0
    for i in range(2):
        for j in range(2):
            block = u4[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert inf_norm_diff(block, u_a[i, j] * u_b) == 0.0


def test_apply_local_unitary_preserves_spectrum():
    rng = np.random.default_rng(34)
    for _ in range(50):
        rho = to_dense(random_x_state(rng))
        rotated = apply_local_unitary(rho, *random_local_unitary(rng))
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(rotated))
        assert np.abs(before - after).max() < 1e-12


def test_apply_local_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match=r"^u_a is not unitary \(residual 3\.000e\+00\)$"):
        apply_local_unitary(np.eye(4, dtype=complex) / 4.0, 2.0 * IDENTITY_2, IDENTITY_2)


def test_flip_a_unitary_swaps_werner_families_exactly():
    for f in np.linspace(0.25, 1.0, 16):
        f = float(f)
        moved = apply_local_unitary(to_dense(werner_psi(f)), *flip_a_unitary())
        assert inf_norm_diff(moved, to_dense(werner_phi(f))) == 0.0


def test_random_x_state_always_valid():
    rng = np.random.default_rng(35)
    for _ in range(500):
        s = random_x_state(rng)
        assert abs(s.a + s.b + s.c + s.d - 1.0) <= 1e-12
        assert abs(s.z) ** 2 <= s.b * s.c + 1e-12
        assert abs(s.w) ** 2 <= s.a * s.d + 1e-12


def test_random_local_unitary_is_unitary():
    rng = np.random.default_rng(36)
    for _ in range(100):
        for u in random_local_unitary(rng):
            assert inf_norm_diff(u @ u.conj().T, IDENTITY_2) < 1e-13
