from __future__ import annotations

import math

import numpy as np
import pytest

from xkraus.channels import ChannelSpec, propagate_x
from xkraus.entanglement import (
    ALIVE,
    DIES,
    SEPARABLE,
    EsdResult,
    concurrence_general,
    concurrence_x,
    critical_fidelity_amplitude,
    critical_fidelity_numeric,
    esd_time_amplitude_phi_werner,
    esd_time_numeric,
    esd_time_phase_werner,
)
from xkraus.linalg import NumericalFailureError
from xkraus.states import XState, random_x_state, to_dense, werner_phi, werner_psi

LN_5_5 = 1.7047480922384253
LN_1_75 = 0.5596157879354227
LN_3_25 = 1.1786549963416462
LN_1_375 = 0.3184537311185346
EQUALIZING_BELL_TAU = 0.881373587019543


def amplitude_psi_death_tau(fidelity: float) -> float:
    """Independent root for werner_psi under equal-rate decay.

    Writing u = 1 - gamma^2 and p = (1 - F)/3, the ground population becomes
    p + (2F + 1)/3 * u + p * u^2, and the inner coherence dies when p times
    that equals ((4F - 1)/6)^2.  Solving the quadratic for u gives the death
    time tau = -ln(1 - u).
    """
    p = (1.0 - fidelity) / 3.0
    q = (2.0 * fidelity + 1.0) / 3.0
    z0 = (4.0 * fidelity - 1.0) / 6.0
    a = p * p
    b = p * q
    c = p * p - z0 * z0
    u = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return -math.log(1.0 - u)


def test_concurrence_x_of_bell_is_one():
    assert concurrence_x(werner_psi(1.0)) == 1.0
    assert concurrence_x(XState(0.5, 0.0, 0.0, 0.5, w=0.5)) == 1.0


def test_concurrence_x_of_maximally_mixed_is_zero():
    assert concurrence_x(werner_psi(0.25)) == 0.0


def test_werner_concurrence_is_two_f_minus_one():
    for f in np.linspace(0.5, 1.0, 50):
        f = float(f)
        assert abs(concurrence_x(werner_psi(f)) - (2.0 * f - 1.0)) <= 1e-12
        assert abs(concurrence_x(werner_phi(f)) - (2.0 * f - 1.0)) <= 1e-12


def test_werner_separable_below_half():
    for f in (0.25, 0.3, 0.4, 0.5):
        assert concurrence_x(werner_psi(f)) == 0.0


def test_concurrence_general_matches_closed_form():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        state = random_x_state(rng)
        assert abs(concurrence_general(to_dense(state)) - concurrence_x(state)) <= 1e-10


def test_concurrence_general_frozen_points():
    assert abs(concurrence_general(to_dense(werner_psi(1.0))) - 1.0) <= 1e-12
    assert concurrence_general(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_concurrence_general_rejects_unusable_spectrum():
    # not a density matrix: a clearly negative eigenvalue
    bad = np.diag([1.0, -0.5, 0.25, 0.25]).astype(complex)
    with pytest.raises(NumericalFailureError):
        concurrence_general(bad)
    skew = np.eye(4, dtype=complex) / 4.0
    skew[0, 3] = 0.1
    with pytest.raises(NumericalFailureError):
        concurrence_general(skew)
    for value in (np.nan, np.inf * 1j):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[2, 1] = value
        with pytest.raises(ValueError):
            concurrence_general(rho)


def test_esd_result_constructors():
    r = EsdResult.dies(1.5)
    assert r.status == DIES and r.time == 1.5
    r = EsdResult.alive_at_horizon(60.0, 0.2)
    assert r.status == ALIVE and r.horizon == 60.0 and r.c_final == 0.2
    assert EsdResult.initially_separable().status == SEPARABLE
    with pytest.raises(ValueError):
        EsdResult.dies(-1.0)
    # 0.0 is a positive concurrence below the float64 range
    assert EsdResult.alive_at_horizon(800.0, 0.0).c_final == 0.0
    for bad in (-1e-3, math.nan):
        with pytest.raises(ValueError):
            EsdResult.alive_at_horizon(60.0, bad)


def test_phase_werner_death_time_frozen_points():
    assert abs(esd_time_phase_werner(0.8).time - LN_5_5) <= 1e-12
    assert abs(esd_time_phase_werner(0.6).time - LN_1_75) <= 1e-12
    # doubling the rate halves the physical death time
    assert abs(esd_time_phase_werner(0.8, rate=2.0).time - LN_5_5 / 2.0) <= 1e-12


def test_phase_werner_edge_cases():
    assert esd_time_phase_werner(0.5).status == SEPARABLE
    assert esd_time_phase_werner(0.25).status == SEPARABLE
    survived = esd_time_phase_werner(1.0, horizon=40.0)
    assert survived.status == ALIVE
    assert survived.horizon == 40.0
    assert survived.c_final > 0.0


def test_amplitude_phi_werner_death_time_frozen_points():
    assert abs(esd_time_amplitude_phi_werner(0.8).time - LN_3_25) <= 1e-12
    assert abs(esd_time_amplitude_phi_werner(0.6).time - LN_1_375) <= 1e-12
    assert abs(esd_time_amplitude_phi_werner(0.8, rate=4.0).time - LN_3_25 / 4.0) <= 1e-12


def test_amplitude_phi_werner_rejects_boundary_fidelities():
    for bad in (0.5, 1.0, 0.25, 1.1):
        with pytest.raises(ValueError):
            esd_time_amplitude_phi_werner(bad)
    with pytest.raises(ValueError):
        esd_time_amplitude_phi_werner(0.8, rate=0.0)


def test_numeric_search_matches_phase_analytic():
    spec = ChannelSpec("phase")
    for f in (0.55, 0.6, 0.7, 0.8, 0.9, 0.95):
        numeric = esd_time_numeric(werner_psi(f), spec)
        assert numeric.status == DIES
        assert abs(numeric.time - esd_time_phase_werner(f).time) <= 1e-8


def test_numeric_search_matches_amplitude_analytic():
    spec = ChannelSpec("amplitude")
    for f in (0.55, 0.6, 0.7, 0.8, 0.9, 0.95):
        numeric = esd_time_numeric(werner_phi(f), spec)
        assert numeric.status == DIES
        assert abs(numeric.time - esd_time_amplitude_phi_werner(f).time) <= 1e-8


def test_numeric_search_amplitude_psi_below_critical():
    # below the survival boundary the psi family also dies; checked against
    # an independently solved quadratic rather than the search itself
    tau = amplitude_psi_death_tau(0.6)
    assert abs(tau - 0.4345104879375231) <= 1e-12
    numeric = esd_time_numeric(werner_psi(0.6), ChannelSpec("amplitude"))
    assert numeric.status == DIES
    assert abs(numeric.time - tau) <= 1e-8


def test_numeric_search_amplitude_psi_above_critical_survives():
    result = esd_time_numeric(werner_psi(0.9), ChannelSpec("amplitude"))
    assert result.status == ALIVE
    assert result.c_final > 0.0
    assert result.horizon == 60.0


def test_numeric_search_equalizing_bell_frozen_point():
    bell = XState(0.5, 0.0, 0.0, 0.5, w=0.5)
    result = esd_time_numeric(bell, ChannelSpec("equalizing"))
    assert result.status == DIES
    assert abs(result.time - EQUALIZING_BELL_TAU) <= 1e-8


def test_paper_closed_forms_hold_at_every_horizon():
    # the answers may not depend on the horizon: a float margin that cancels
    # or underflows once reported false deaths at long horizons
    f_c = critical_fidelity_amplitude()
    bell = XState(0.5, 0.0, 0.0, 0.5, w=0.5)
    for horizon in (60.0, 200.0, 800.0):
        for f in (0.6, 0.8, 0.95):
            numeric = esd_time_numeric(werner_psi(f), ChannelSpec("phase"), horizon=horizon)
            assert numeric.status == DIES
            assert abs(numeric.time - esd_time_phase_werner(f).time) <= 1e-8
            numeric = esd_time_numeric(werner_phi(f), ChannelSpec("amplitude"), horizon=horizon)
            assert numeric.status == DIES
            assert abs(numeric.time - esd_time_amplitude_phi_werner(f).time) <= 1e-8
        # pure Bell states keep C = exp(-tau) under phase and exp(-2 tau)
        # under amplitude noise; 0.0 once that is below the float64 range
        alive = esd_time_numeric(werner_psi(1.0), ChannelSpec("phase"), horizon=horizon)
        assert alive.status == ALIVE
        assert alive.c_final == pytest.approx(math.exp(-horizon), rel=1e-12, abs=0.0)
        alive = esd_time_numeric(werner_phi(1.0), ChannelSpec("amplitude"), horizon=horizon)
        assert alive.status == ALIVE
        assert alive.c_final == pytest.approx(math.exp(-2.0 * horizon), rel=1e-12, abs=0.0)
        numeric = esd_time_numeric(bell, ChannelSpec("equalizing"), horizon=horizon)
        assert numeric.status == DIES
        assert abs(numeric.time - EQUALIZING_BELL_TAU) <= 1e-8
        above = esd_time_numeric(werner_psi(f_c + 1e-4), ChannelSpec("amplitude"), horizon=horizon)
        assert above.status == ALIVE and above.horizon == horizon


def test_numeric_search_reports_physical_time():
    result = esd_time_numeric(werner_psi(0.8), ChannelSpec("phase", 2.0, 2.0))
    assert abs(result.time - LN_5_5 / 2.0) <= 1e-8
    # one silent qubit: the coherence still decays through the active one
    result = esd_time_numeric(werner_psi(0.8), ChannelSpec("phase", 2.0, 0.0))
    assert abs(result.time - LN_5_5) <= 1e-8


def test_numeric_search_resolves_a_slow_death():
    # qubit A relaxes by tau ~ 40; after that the inner branch of
    # werner_psi(0.7) is x_A x_B (|z|^2 - a (1 - (a + c) x_B)), which
    # vanishes at x_B = (a - |z|^2) / (a (a + c)) = 1/5, so tau = ln 5 / 1e-9
    result = esd_time_numeric(
        werner_psi(0.7), ChannelSpec("amplitude", 1.0, 1e-9), horizon=1e12
    )
    assert result.status == DIES
    assert result.time == pytest.approx(math.log(5.0) / 1e-9, rel=1e-12)


def test_numeric_search_initially_separable():
    result = esd_time_numeric(werner_psi(0.4), ChannelSpec("amplitude"))
    assert result.status == SEPARABLE


def test_numeric_search_rejects_dead_channel():
    with pytest.raises(ValueError):
        esd_time_numeric(werner_psi(0.8), ChannelSpec("phase", 0.0, 0.0))


def test_numeric_search_rejects_bad_horizon_and_tol():
    spec = ChannelSpec("phase")
    with pytest.raises(ValueError):
        esd_time_numeric(werner_psi(0.8), spec, horizon=-1.0)
    with pytest.raises(ValueError):
        esd_time_numeric(werner_psi(0.8), spec, tol=0.0)


def test_critical_fidelity_analytic_value():
    f_c = critical_fidelity_amplitude()
    assert f_c == (3.0 * math.sqrt(5.0) - 1.0) / 8.0
    # root of 16 F^2 + 4 F - 11
    assert abs(16.0 * f_c * f_c + 4.0 * f_c - 11.0) <= 1e-12


def test_critical_fidelity_numeric_matches_analytic():
    numeric = critical_fidelity_numeric()
    assert abs(numeric - critical_fidelity_amplitude()) <= 1e-9


def test_critical_fidelity_straddles_fates():
    f_c = critical_fidelity_amplitude()
    spec = ChannelSpec("amplitude")
    assert esd_time_numeric(werner_psi(f_c - 1e-4), spec).status == DIES
    assert esd_time_numeric(werner_psi(f_c + 1e-4), spec).status == ALIVE


def test_critical_fidelity_numeric_needs_a_workable_horizon():
    with pytest.raises(NumericalFailureError):
        critical_fidelity_numeric(horizon=0.05)
