from __future__ import annotations

import math

import numpy as np
import pytest

from xkraus.channels import (
    CHANNEL_KINDS,
    ChannelSpec,
    apply,
    check_cptp,
    damping,
    kraus_1q,
    kraus_set,
    propagate_x,
    x_form_residual,
)
from xkraus.linalg import IDENTITY_2, inf_norm_diff
from xkraus.states import XState, from_dense, random_x_state, to_dense, werner_psi

BELL_W = XState(0.5, 0.0, 0.0, 0.5, w=0.5)


def test_damping_frozen_point():
    factors = damping(1.0, 2.0 * math.log(2.0))
    assert abs(factors.gamma - 0.5) < 1e-15
    assert abs(factors.omega - math.sqrt(0.75)) < 1e-15


def test_damping_at_zero_time_is_identity():
    for rate in (0.0, 0.5, 2.0):
        factors = damping(rate, 0.0)
        assert factors.gamma == 1.0
        assert factors.omega == 0.0


def test_damping_zero_rate_never_decays():
    factors = damping(0.0, 100.0)
    assert factors.gamma == 1.0
    assert factors.omega == 0.0


def test_damping_rejects_bad_arguments():
    with pytest.raises(ValueError):
        damping(-1.0, 1.0)
    with pytest.raises(ValueError):
        damping(1.0, -1.0)
    with pytest.raises(ValueError):
        damping(math.nan, 1.0)
    with pytest.raises(ValueError):
        damping(1.0, math.inf)


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


def test_kraus_sets_are_trace_preserving():
    for kind in CHANNEL_KINDS:
        for t in np.linspace(0.0, 10.0, 21):
            spec = ChannelSpec(kind, rate_a=1.3, rate_b=0.4)
            assert check_cptp(kraus_set(spec, float(t))) <= 1e-12


def test_equalizing_single_qubit_completeness():
    for t in (0.0, 0.3, 2.0):
        ops = kraus_1q("equalizing", damping(1.0, t))
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


def test_propagate_x_unequal_rates_fall_back_to_kraus_sum():
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
    from_dense(rho, tol=0.0)


def test_x_form_residual_measures_leakage():
    rho = to_dense(werner_psi(0.8))
    assert x_form_residual(rho) == 0.0
    rho[0, 2] = 1e-4
    assert abs(x_form_residual(rho) - 1e-4) < 1e-18
