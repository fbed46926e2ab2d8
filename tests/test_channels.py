from __future__ import annotations

import math

import numpy as np
import pytest

from xkraus.channels import (
    CHANNEL_KINDS,
    ChannelSpec,
    _population_map,
    _time_factors,
    apply,
    check_cptp,
    kraus_1q,
    kraus_set,
    propagate_x,
)
from xkraus.linalg import IDENTITY_2, inf_norm_diff, x_form_residual
from xkraus.states import XState, random_x_state, to_dense, werner_psi

BELL_W = XState(0.5, 0.0, 0.0, 0.5, w=0.5)


def test_time_factors_frozen_point():
    (gamma_a,), (gamma_b,) = _time_factors(ChannelSpec("phase", 1.0, 2.0), [2.0 * math.log(2.0)])
    assert abs(gamma_a - 0.5) < 1e-15
    assert abs(gamma_b - 0.25) < 1e-15
    # omega = sqrt(1 - gamma^2) = sqrt(3/4) sits in the phase set's second operator
    assert abs(kraus_1q("phase", gamma_a)[1][0, 0] - math.sqrt(0.75)) < 1e-15


def test_time_factors_of_a_list_equal_the_formula_at_each_time():
    spec = ChannelSpec("amplitude", 0.7, 1.9)
    times = [0.0, 1e-300, 0.25, 3.0, 12.0, 1e6]
    assert _time_factors(spec, times) == (
        [math.exp(-0.5 * 0.7 * t) for t in times], [math.exp(-0.5 * 1.9 * t) for t in times]
    )
    assert _time_factors(spec, []) == ([], [])


def test_time_factors_at_zero_time_is_identity():
    for rate in (0.0, 0.5, 2.0):
        assert _time_factors(ChannelSpec("amplitude", rate, rate), [0.0]) == ([1.0], [1.0])
    # gamma = 1 gives omega = 0: every phase and transfer operator vanishes
    for kind in CHANNEL_KINDS:
        assert not any(np.any(k) for k in kraus_1q(kind, 1.0)[1::2])


def test_time_factors_zero_rate_never_decays():
    assert _time_factors(ChannelSpec("amplitude", 0.0, 0.0), [100.0]) == ([1.0], [1.0])
    rho = to_dense(random_x_state(np.random.default_rng(95)))
    for kind in CHANNEL_KINDS:
        out = apply(rho, kraus_set(ChannelSpec(kind, 0.0, 0.0), 100.0))
        assert inf_norm_diff(out, rho) <= 1e-15


def test_time_factors_rejects_bad_arguments():
    # bad rates are rejected by ChannelSpec (test_channel_spec_validation)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            _time_factors(ChannelSpec("phase"), [0.5, bad, 1.0])
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            kraus_set(ChannelSpec("phase"), bad)


def test_channel_spec_validation():
    spec = ChannelSpec("amplitude", rate_a=2.0, rate_b=0.5)
    assert spec.kind == "amplitude"
    with pytest.raises(ValueError):
        ChannelSpec("depolarizing")
    with pytest.raises(ValueError):
        ChannelSpec("phase", rate_a=-1.0)


def test_kraus_set_sizes():
    for kind, count in (("phase", 4), ("amplitude", 4), ("equalizing", 16)):
        ops = kraus_set(ChannelSpec(kind), 0.7)
        assert len(ops) == count
        assert all(k.shape == (4, 4) for k in ops)


def _paper_map(kind: str, x):
    """The paper's population map of each kind at x = gamma^2, row-major."""
    if kind == "phase":
        return 1.0, 0.0, 0.0, 1.0
    if kind == "amplitude":
        return x, 0.0, 1.0 - x, 1.0
    s, f = 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    return s, f, f, s


def _paper_kraus(kind: str, gamma: float) -> list[np.ndarray]:
    """The paper's single-qubit Kraus sets, written out per kind."""
    omega = math.sqrt(1.0 - gamma * gamma)
    keep = np.array([[gamma, 0.0], [0.0, 1.0]], dtype=complex)
    if kind == "phase":
        return [keep, np.array([[omega, 0.0], [0.0, 0.0]], dtype=complex)]
    decay = np.array([[0.0, 0.0], [omega, 0.0]], dtype=complex)
    if kind == "amplitude":
        return [keep, decay]
    h = 1.0 / math.sqrt(2.0)
    rise = np.array([[0.0, omega], [0.0, 0.0]], dtype=complex)
    return [h * keep, h * decay, h * np.array([[1.0, 0.0], [0.0, gamma]], dtype=complex), h * rise]


def test_channel_table_reproduces_the_paper_maps_bit_for_bit():
    # the channel table (T(0) and T(1) - T(0) per kind) is the only statement
    # of each kind's population map; the literal maps above pin it, on 1e5
    # seeded gammas plus those with x = 0, 1, 5e-324 and 1e-300, as floats
    # and as one array, by their bytes, so that signed zeros count too
    specials = [math.sqrt(x) for x in (0.0, 1.0, 5e-324, 1e-300)]
    assert [g * g for g in specials] == [0.0, 1.0, 5e-324, 1e-300]
    gammas = np.concatenate([specials, np.random.default_rng(12).random(100_000)])
    for kind in CHANNEL_KINDS:
        scalar = [_population_map(kind, g) for g in gammas.tolist()]
        assert np.array(scalar).tobytes() == np.array([_paper_map(kind, g * g) for g in gammas.tolist()]).tobytes()
        batch = np.broadcast_arrays(*_population_map(kind, gammas), gammas)[:4]
        paper = np.broadcast_arrays(*_paper_map(kind, gammas * gammas), gammas)[:4]
        assert np.array(batch).tobytes() == np.array(paper).tobytes()
    # the Kraus sets: phase and amplitude exactly, equalizing within 2^-53
    # (its weight sqrt(1/2) is correctly rounded, 1/sqrt(2) one ulp below)
    for gamma in gammas[:1000].tolist():
        for kind in CHANNEL_KINDS:
            ops, paper = np.array(kraus_1q(kind, gamma)), np.array(_paper_kraus(kind, gamma))
            assert ops.shape == paper.shape
            if kind == "equalizing":
                assert np.max(np.abs(ops - paper)) <= 2.0 ** -53
            else:
                assert ops.tobytes() == paper.tobytes()


def test_kraus_sets_are_trace_preserving():
    for kind in CHANNEL_KINDS:
        for t in np.linspace(0.0, 10.0, 21):
            spec = ChannelSpec(kind, rate_a=1.3, rate_b=0.4)
            assert check_cptp(kraus_set(spec, float(t))) <= 1e-12


def test_equalizing_single_qubit_completeness():
    for t in (0.0, 0.3, 2.0):
        ops = kraus_1q("equalizing", math.exp(-0.5 * t))
        assert len(ops) == 4
        acc = sum(k.conj().T @ k for k in ops)
        assert inf_norm_diff(acc, IDENTITY_2) <= 1e-15


def test_check_cptp_detects_scaled_operator():
    ops = kraus_set(ChannelSpec("phase"), 0.0)
    ops[0] = 1.1 * ops[0]
    assert abs(check_cptp(ops) - 0.21) < 1e-12


def test_check_cptp_rejects_empty_list():
    with pytest.raises(ValueError):
        check_cptp([])


def test_apply_rejects_incomplete_set():
    ops = kraus_set(ChannelSpec("amplitude"), 0.5)
    ops[0] = 1.01 * ops[0]
    with pytest.raises(ValueError):
        apply(np.eye(4, dtype=complex) / 4.0, ops)


def test_apply_at_zero_time_is_identity_map():
    rho = to_dense(werner_psi(0.8))
    for kind in CHANNEL_KINDS:
        out = apply(rho, kraus_set(ChannelSpec(kind), 0.0))
        assert inf_norm_diff(out, rho) <= 1e-15


def test_amplitude_werner_frozen_oracle():
    # werner_psi(0.8) after equal-rate decay to gamma^2 = 1/2
    out = propagate_x(werner_psi(0.8), ChannelSpec("amplitude"), math.log(2.0))
    assert abs(out.a - 1.0 / 60.0) < 1e-14
    assert abs(out.b - 7.0 / 30.0) < 1e-14
    assert abs(out.c - 7.0 / 30.0) < 1e-14
    assert abs(out.d - 31.0 / 60.0) < 1e-14
    assert abs(out.z - (-11.0 / 60.0)) < 1e-14
    assert out.w == 0.0j


def test_amplitude_pure_bell_frozen_oracle():
    out = propagate_x(werner_psi(1.0), ChannelSpec("amplitude"), math.log(2.0))
    assert abs(out.a - 0.0) < 1e-14
    assert abs(out.b - 0.25) < 1e-14
    assert abs(out.c - 0.25) < 1e-14
    assert abs(out.d - 0.5) < 1e-14
    assert abs(out.z - (-0.25)) < 1e-14


def test_phase_werner_frozen_oracle():
    # dephasing leaves populations alone and shrinks z by gamma_a*gamma_b
    out = propagate_x(werner_psi(1.0), ChannelSpec("phase"), math.log(2.0))
    assert out.a == 0.0 and out.d == 0.0
    assert abs(out.b - 0.5) < 1e-15
    assert abs(out.c - 0.5) < 1e-15
    assert abs(out.z - (-0.25)) < 1e-15


def test_equalizing_bell_zero_crossing():
    # populations mix while the coherence shrinks; they meet at
    # gamma^2 = sqrt(2) - 1
    t_star = -math.log(math.sqrt(2.0) - 1.0)
    out = propagate_x(BELL_W, ChannelSpec("equalizing"), t_star)
    assert abs(abs(out.w) - math.sqrt(out.b * out.c)) < 1e-12


def test_equalizing_long_time_limit_is_maximally_mixed():
    out = propagate_x(BELL_W, ChannelSpec("equalizing"), 60.0)
    for value in (out.a, out.b, out.c, out.d):
        assert abs(value - 0.25) <= 1e-10
    assert abs(out.w) <= 1e-10
    assert abs(out.z) <= 1e-10


def test_propagate_x_matches_kraus_sum():
    rng = np.random.default_rng(91)
    for kind in CHANNEL_KINDS:
        specs = [ChannelSpec(kind, rate_a=float(rng.uniform(0.0, 2.0)),
                             rate_b=float(rng.uniform(0.0, 2.0))) for _ in range(100)]
        specs += [ChannelSpec(kind), ChannelSpec(kind, rate_a=0.0, rate_b=1.3)]
        for spec in specs:
            state = random_x_state(rng)
            t = float(rng.uniform(0.0, 8.0))
            fast = to_dense(propagate_x(state, spec, t))
            slow = apply(to_dense(state), kraus_set(spec, t))
            assert inf_norm_diff(fast, slow) <= 1e-12


def test_propagate_x_unequal_rates_closed_form_matches_kraus_sum():
    # the closed form at unequal rates lands on the dense Kraus sum
    rng = np.random.default_rng(92)
    for kind in ("amplitude", "equalizing"):
        spec = ChannelSpec(kind, rate_a=1.0, rate_b=0.3)
        for _ in range(25):
            state = random_x_state(rng)
            t = float(rng.uniform(0.0, 5.0))
            fast = to_dense(propagate_x(state, spec, t))
            slow = apply(to_dense(state), kraus_set(spec, t))
            assert inf_norm_diff(fast, slow) <= 1e-12


def test_propagate_x_composes_as_semigroup():
    rng = np.random.default_rng(93)
    for kind in CHANNEL_KINDS:
        for _ in range(50):
            spec = ChannelSpec(kind, rate_a=float(rng.uniform(0.0, 2.0)),
                               rate_b=float(rng.uniform(0.0, 2.0)))
            state = random_x_state(rng)
            t1 = float(rng.uniform(0.0, 4.0))
            t2 = float(rng.uniform(0.0, 4.0))
            stepped = propagate_x(propagate_x(state, spec, t1), spec, t2)
            direct = propagate_x(state, spec, t1 + t2)
            assert inf_norm_diff(to_dense(stepped), to_dense(direct)) <= 1e-12


def test_kraus_sum_keeps_off_x_entries_exactly_zero():
    rho = to_dense(werner_psi(0.8))
    rng = np.random.default_rng(94)
    for _ in range(100):
        kind = CHANNEL_KINDS[int(rng.integers(0, 3))]
        rho = apply(rho, kraus_set(ChannelSpec(kind), float(rng.uniform(0.0, 3.0))))
    assert x_form_residual(rho) == 0.0
    assert not np.diagonal(rho).imag.any()


def test_x_form_residual_measures_leakage():
    rho = to_dense(werner_psi(0.8))
    assert x_form_residual(rho) == 0.0
    rho[0, 2] = 1e-4
    assert abs(x_form_residual(rho) - 1e-4) < 1e-18
