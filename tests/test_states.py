from __future__ import annotations

import math

import numpy as np
import pytest

from xkraus.linalg import IDENTITY_2, inf_norm_diff
from xkraus.states import (
    LocalUnitary,
    NotXStateError,
    XState,
    apply_local_unitary,
    flip_a_unitary,
    from_dense,
    random_local_unitary,
    random_x_state,
    to_dense,
    werner_phi,
    werner_psi,
    _check_x,
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
    # |z|^2 must stay within b*c and |w|^2 within a*d
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, z=0.26)
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, w=0.26)
    # a magnitude whose square overflows is still too large, not an OverflowError
    with pytest.raises(ValueError, match="inner coherence too large"):
        XState(0.25, 0.25, 0.25, 0.25, z=1e200)
    with pytest.raises(ValueError, match="outer coherence too large"):
        XState(0.25, 0.25, 0.25, 0.25, w=complex(1e200, -1e200))


def test_xstate_rejects_nonfinite():
    with pytest.raises(ValueError):
        XState(math.nan, 0.4, 0.3, 0.3)
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, z=complex(math.inf, 0.0))


@pytest.mark.parametrize("bad", [
    (math.nan, 0.5, 0.25, 0.25, 0.0, 0.0),
    (0.25, 0.25, 0.25, 0.25, complex(0.0, math.inf), 0.0),
    (-0.1, 0.5, 0.3, 0.3, 0.0, 0.0),
    (0.3, 0.25, 0.25, 0.25, 0.0, 0.0),
    (0.25, 0.25, 0.25, 0.25, 0.2 + 0.2j, 0.0),
    (0.25, 0.25, 0.25, 0.25, 0.0, -0.1 - 0.25j),
])
def test_array_check_reports_the_xstate_message_of_its_bad_element(bad):
    with pytest.raises(ValueError) as scalar:
        XState(*bad)
    # a 3 x 4 grid of valid states with the bad one at row 1, column 2
    good = [werner_psi(f) for f in (0.25, 0.5, 0.8, 1.0)]
    rows = [[(s.a, s.b, s.c, s.d, s.z, s.w) for s in good] for _ in range(3)]
    rows[1][2] = bad
    a, b, c, d, z, w = np.moveaxis(np.array(rows, dtype=complex), -1, 0)
    with pytest.raises(ValueError) as grid:
        _check_x(a.real, b.real, c.real, d.real, np.hypot(z.real, z.imag), np.hypot(w.real, w.imag))
    assert str(grid.value) == str(scalar.value)


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
        back = from_dense(to_dense(s))
        assert s.a == back.a and s.b == back.b and s.c == back.c and s.d == back.d
        assert s.z == back.z and s.w == back.w


def test_from_dense_rejects_off_x_entries():
    rho = to_dense(werner_psi(0.8))
    rho[0, 1] = 1e-6
    rho[1, 0] = 1e-6
    with pytest.raises(NotXStateError):
        from_dense(rho)
    # a looser tolerance lets the same matrix through
    from_dense(rho, tol=1e-3)


def test_from_dense_rejects_imaginary_diagonal():
    rho = to_dense(werner_psi(0.8))
    rho[2, 2] += 1e-6j
    with pytest.raises(NotXStateError):
        from_dense(rho)


def test_from_dense_rejects_wrong_shape():
    with pytest.raises(ValueError):
        from_dense(np.eye(3, dtype=complex))


def test_local_unitary_matrix_is_tensor_product():
    rng = np.random.default_rng(33)
    lu = random_local_unitary(rng)
    u4 = lu.as_matrix()
    # qubit A indexes the 2x2 blocks, qubit B the entries inside each block
    for i in range(2):
        for j in range(2):
            block = u4[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert inf_norm_diff(block, lu.u_a[i, j] * lu.u_b) == 0.0


def test_apply_local_unitary_preserves_spectrum():
    rng = np.random.default_rng(34)
    for _ in range(50):
        rho = to_dense(random_x_state(rng))
        rotated = apply_local_unitary(rho, random_local_unitary(rng))
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(rotated))
        assert np.abs(before - after).max() < 1e-12


def test_apply_local_unitary_rejects_non_unitary():
    bad = LocalUnitary(u_a=2.0 * IDENTITY_2, u_b=IDENTITY_2)
    with pytest.raises(ValueError):
        apply_local_unitary(np.eye(4, dtype=complex) / 4.0, bad)


def test_flip_a_unitary_swaps_werner_families_exactly():
    for f in np.linspace(0.25, 1.0, 16):
        f = float(f)
        moved = apply_local_unitary(to_dense(werner_psi(f)), flip_a_unitary())
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
        lu = random_local_unitary(rng)
        for u in (lu.u_a, lu.u_b):
            assert inf_norm_diff(u @ u.conj().T, IDENTITY_2) < 1e-13
