"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [criterion NN] PASS/FAIL line (visible under
pytest -s) and then asserts, so the gate reads as a checklist.  Criteria
04-07, 09 and 10 run the checks behind `xkraus verify` with their own seeds
and trial counts, and pin each check's tolerance; the other tolerances are
pinned here.
"""

from __future__ import annotations

import math

import numpy as np

from xkraus.channels import ChannelSpec, propagate_x
from xkraus.entanglement import (
    ALIVE,
    DIES,
    concurrence_general,
    concurrence_x,
    critical_fidelity_amplitude,
    critical_fidelity_numeric,
    esd_time_amplitude_phi_werner,
    esd_time_numeric,
    esd_time_phase_werner,
)
from xkraus.linalg import inf_norm_diff
from xkraus.states import XState, apply_local_unitary, flip_a_unitary, to_dense, werner_phi, werner_psi
from xkraus.verify import (
    _check_concurrence_methods,
    _check_initial_werner_concurrence,
    _check_local_unitary_invariance,
    _check_oracle_equivalence,
    _check_semigroup,
    _check_trace_preservation,
    _check_x_form,
)

LN_5_5 = 1.7047480922384253
LN_1_75 = 0.5596157879354227
LN_3_25 = 1.1786549963416462
EQUALIZING_BELL_TAU = 0.881373587019543
BELL_W = XState(0.5, 0.0, 0.0, 0.5, w=0.5)


def _report(num: int, name: str, ok: bool) -> bool:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_dephasing_death_times():
    worst = 0.0
    for f in np.linspace(0.55, 0.95, 9):
        f = float(f)
        numeric = esd_time_numeric(werner_psi(f), ChannelSpec("phase"))
        analytic = esd_time_phase_werner(f)
        worst = max(worst, abs(numeric.time - analytic.time))
    spot = max(
        abs(esd_time_phase_werner(0.8).time - LN_5_5),
        abs(esd_time_phase_werner(0.6).time - LN_1_75),
    )
    ok = worst <= 1e-8 and spot <= 1e-12
    assert _report(1, "dephasing death times", ok), (worst, spot)


def test_criterion_02_decay_survival_boundary():
    analytic = critical_fidelity_amplitude()
    numeric = critical_fidelity_numeric(horizon=60.0, f_tol=1e-10)
    ok = abs(numeric - 0.714) <= 5e-3 and abs(numeric - analytic) <= 1e-9
    assert _report(2, "decay survival boundary", ok), (analytic, numeric)


def test_criterion_03_equal_spectra_opposite_fates():
    psi = werner_psi(0.8)
    phi = werner_phi(0.8)
    c_ok = abs(concurrence_x(psi) - 0.6) <= 1e-12 and abs(concurrence_x(phi) - 0.6) <= 1e-12
    moved = apply_local_unitary(to_dense(psi), *flip_a_unitary())
    map_ok = inf_norm_diff(moved, to_dense(phi)) == 0.0
    spec = ChannelSpec("amplitude")
    psi_fate = esd_time_numeric(psi, spec)
    phi_fate = esd_time_numeric(phi, spec)
    fate_ok = (
        psi_fate.status == ALIVE
        and phi_fate.status == DIES
        and abs(phi_fate.time - LN_3_25) <= 1e-8
        and abs(esd_time_amplitude_phi_werner(0.8).time - LN_3_25) <= 1e-12
    )
    ok = c_ok and map_ok and fate_ok
    assert _report(3, "equal spectra, opposite fates", ok), (psi_fate, phi_fate)


def test_criterion_04_trace_preservation():
    result = _check_trace_preservation()
    ok = result.tolerance == 1e-12 and result.passed
    assert _report(4, "trace preservation", ok), result


def test_criterion_05_closed_form_matches_operator_sum():
    result = _check_oracle_equivalence(np.random.default_rng(501), trials=1000)
    ok = result.tolerance == 1e-12 and result.passed
    assert _report(5, "closed form matches operator sum", ok), result


def test_criterion_06_x_form_closure():
    result = _check_x_form(np.random.default_rng(601), trials=100)
    ok = result.tolerance == 1e-13 and result.passed
    assert _report(6, "x form closure", ok), result


def test_criterion_07_concurrence_route_agreement():
    result = _check_concurrence_methods(np.random.default_rng(701), trials=1000)
    bell_gap = abs(concurrence_general(to_dense(werner_psi(1.0))) - 1.0)
    mixed = concurrence_general(np.eye(4, dtype=complex) / 4.0)
    ok = result.tolerance == 1e-10 and result.passed and bell_gap <= 1e-12 and mixed == 0.0
    assert _report(7, "concurrence route agreement", ok), (result, bell_gap, mixed)


def test_criterion_08_equalizing_kills_every_entangled_werner():
    spec = ChannelSpec("equalizing")
    all_die = True
    for f in (0.51, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0):
        all_die = all_die and esd_time_numeric(werner_psi(f), spec).status == DIES
    bell_fate = esd_time_numeric(BELL_W, spec)
    bell_ok = bell_fate.status == DIES and abs(bell_fate.time - EQUALIZING_BELL_TAU) <= 1e-8
    late = propagate_x(BELL_W, spec, 60.0)
    flat_ok = (
        max(abs(p - 0.25) for p in (late.a, late.b, late.c, late.d)) <= 1e-10
        and abs(late.z) <= 1e-10
        and abs(late.w) <= 1e-10
    )
    ok = all_die and bell_ok and flat_ok
    assert _report(8, "equalizing kills every entangled werner state", ok), bell_fate


def test_criterion_09_initial_concurrence_and_local_invariance():
    initial = _check_initial_werner_concurrence()
    invariance = _check_local_unitary_invariance(np.random.default_rng(901), trials=200)
    ok = (
        initial.tolerance == 1e-12
        and initial.passed
        and invariance.tolerance == 1e-12
        and invariance.passed
    )
    assert _report(9, "initial concurrence and local invariance", ok), (initial, invariance)


def test_criterion_10_semigroup_composition():
    result = _check_semigroup(np.random.default_rng(1001), trials=200)
    ok = result.tolerance == 1e-12 and result.passed
    assert _report(10, "semigroup composition", ok), result
