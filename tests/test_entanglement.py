from __future__ import annotations

import itertools
import math
import random
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from xkraus import entanglement
from xkraus.channels import CHANNEL_KINDS, ChannelSpec, _population_map, _tau_spec, propagate_x
from xkraus.entanglement import (
    ALIVE,
    DIES,
    SEPARABLE,
    EsdResult,
    _Expansion,
    _first_positive,
    _root,
    concurrence_x,
    critical_fidelity_amplitude,
    critical_fidelity_numeric,
    esd_time_amplitude_phi_werner,
    esd_time_numeric,
    esd_time_phase_werner,
)
from xkraus.linalg import NumericalFailureError, concurrence_general
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
    # the horizon is keyword-only, so a stray second argument cannot become one
    with pytest.raises(TypeError):
        esd_time_phase_werner(0.8, 2.0)


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


def test_amplitude_phi_werner_rejects_boundary_fidelities():
    for bad in (0.5, 1.0, 0.25, 1.1):
        with pytest.raises(ValueError):
            esd_time_amplitude_phi_werner(bad)


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


def test_numeric_search_reports_tau():
    # tau = rate_ref * t with rate_ref the larger rate: equal rates of any
    # size give the paper's tau, and the horizon comes back as given
    for rate in (2.0, 0.3, 1e-300, 1e-310):
        spec = ChannelSpec("phase", rate, rate)
        assert abs(esd_time_numeric(werner_psi(0.8), spec).time - LN_5_5) <= 1e-8
        survivor = esd_time_numeric(werner_phi(1.0), ChannelSpec("amplitude", rate, rate), horizon=1e10)
        assert survivor.status == ALIVE and survivor.horizon == 1e10
    # one silent qubit: the coherence decays through the active one alone,
    # as exp(-tau / 2), so death comes at twice the paper's tau
    result = esd_time_numeric(werner_psi(0.8), ChannelSpec("phase", 2.0, 0.0))
    assert abs(result.time - 2.0 * LN_5_5) <= 1e-8
    spec = ChannelSpec("amplitude", 1.6872385926238251, 0.6048369656328783)
    result = esd_time_numeric(werner_psi(0.7909436339513474), spec)
    assert result.status == ALIVE and result.horizon == 60.0


def test_numeric_search_resolves_a_slow_death():
    # qubit A relaxes by tau ~ 40; after that the inner branch of
    # werner_psi(0.7) is x_A x_B (|z|^2 - a (1 - (a + c) x_B)), which
    # vanishes at x_B = (a - |z|^2) / (a (a + c)) = 1/5, so tau = ln 5 / 1e-9
    result = esd_time_numeric(
        werner_psi(0.7), ChannelSpec("amplitude", 1.0, 1e-9), horizon=1e12
    )
    assert result.status == DIES
    assert result.time == pytest.approx(math.log(5.0) / 1e-9, rel=1e-12)


def test_numeric_fates_agree_with_the_benchmark_oracle(monkeypatch):
    # bench/checker.judge_fate checks a fate against the paper's closed forms
    # or a dense Kraus sum in decimal arithmetic on both sides of the death;
    # 18 seeded draws per kind, start family, rate pair shape and horizon
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from checker import judge_fate
    from workloads import random_x_params

    from xkraus.cli import _fate

    rng = random.Random(2005)
    wrong, judged = [], 0
    for kind, family, pair, horizon, _ in itertools.product(
        CHANNEL_KINDS, ("werner-psi", "werner-phi", "custom-x"),
        ("equal", "unequal", "one-zero"), (20.0, 60.0, 200.0), range(18),
    ):
        rate = rng.uniform(0.3, 2.0)
        other = {"equal": rate, "unequal": rate * rng.uniform(1.25, 4.0), "one-zero": 0.0}[pair]
        rate_a, rate_b = (rate, other) if rng.random() < 0.5 else (other, rate)
        values = {"channel": kind, "family": family, "rate_a": rate_a, "rate_b": rate_b, "horizon": horizon}
        if family == "custom-x":
            p = values["x_params"] = random_x_params(rng)
            state = XState(p[0], p[1], p[2], p[3], complex(p[4], p[5]), complex(p[6], p[7]))
        else:
            f = values["fidelity"] = 1.0 if rng.random() < 0.1 else rng.uniform(0.4, 1.0)
            state = (werner_psi if family == "werner-psi" else werner_phi)(f)
        result = esd_time_numeric(state, ChannelSpec(kind, rate_a, rate_b), horizon=horizon)
        if result.status == ALIVE and result.c_final == 0.0:
            continue  # alive below the float64 range, where the oracle's concurrence is not
        judged += 1
        problem = judge_fate(values, _fate(result)[0])
        if problem:
            wrong.append((values, problem))
    assert wrong == []
    assert judged > 1000


@pytest.mark.parametrize(
    "state, spec, decay, branches",
    [
        (
            werner_psi(0.8), ChannelSpec("phase"), 2.0,
            "[(0.3666666666666667, -2.0, [(-0.004444444444444443, 0.0), (0.13444444444444448, 2.0)])]",
        ),
        (
            werner_phi(0.9), ChannelSpec("amplitude"), 2.0,
            "[(0.43333333333333335, 0.0, [(-0.06222222222222215, 0.0),"
            " (0.46666666666666656, 1.0), (-0.21777777777777774, 2.0)])]",
        ),
        (
            XState(0.4, 0.15, 0.1, 0.35, 0.1 + 0.05j, 0.3 + 0.1j), ChannelSpec("equalizing"), 2.0,
            "[(0.1118033988749895, -2.0, [(-0.0625, 0.0), (-0.049374999999999995, 2.0),"
            " (-0.015625, 4.0)]), (0.31622776601683794, -2.0, [(-0.0625, 0.0),"
            " (0.16312500000000002, 2.0), (-0.015625, 4.0)])]",
        ),
        (
            werner_psi(0.85), ChannelSpec("equalizing", 1.0, 0.4), 1.4,
            "[(0.39999999999999997, -1.4, [(-0.0625, 0.0), (0.26, 1.4), (-0.04000000000000001, 2.8)])]",
        ),
    ],
    ids=["phase-werner-psi", "amplitude-werner-phi", "equalizing-custom-x", "equalizing-unequal"],
)
def test_expansion_coefficients_are_pinned_bit_for_bit(state, spec, decay, branches):
    # the searches rest on exact cancellations in these coefficients, so any
    # change to how they are formed must leave every last bit in place; a
    # Werner start's branch of zero coherence, -a'd' or -b'c', is not built
    expansion = _Expansion(state, _tau_spec(spec))
    assert repr(expansion.decay) == repr(decay)
    assert repr(expansion.branches) == branches


def test_expansion_branches_equal_the_evolved_margins():
    # each branch, rebuilt from its terms, against |coh|^2 x_A x_B - a'd'
    # (or - b'c') from the populations of propagate_x at tau; a branch of
    # zero coherence is absent, and its margin, -a'd' or -b'c', is <= 0
    rng = np.random.default_rng(2005)
    compared = 0
    for kind, family, pair, _ in itertools.product(
        CHANNEL_KINDS, ("werner-psi", "werner-phi", "custom-x"),
        ("equal", "unequal", "one-zero"), range(12),
    ):
        rate = rng.uniform(0.3, 2.0)
        other = {"equal": rate, "unequal": rate * rng.uniform(1.25, 4.0), "one-zero": 0.0}[pair]
        rate_a, rate_b = (rate, other) if rng.random() < 0.5 else (other, rate)
        if family == "custom-x":
            state = random_x_state(rng)
        else:
            f = 1.0 if rng.random() < 0.1 else rng.uniform(0.25, 1.0)
            state = (werner_psi if family == "werner-psi" else werner_phi)(f)
        spec = _tau_spec(ChannelSpec(kind, rate_a, rate_b))
        expansion = _Expansion(state, spec)
        kept = [coh != 0.0 for coh in (abs(state.z), abs(state.w))]
        # a Werner start has one coherence; no drawn branch cancels identically
        assert len(expansion.branches) == sum(kept) == (2 if family == "custom-x" else 1)
        for tau in (0.0, 0.5, 3.0, 12.0):
            x_ab = math.exp(-spec.rate_a * tau) * math.exp(-spec.rate_b * tau)
            evolved = propagate_x(state, spec, tau)
            margins = (
                abs(state.z) ** 2 * x_ab - evolved.a * evolved.d,
                abs(state.w) ** 2 * x_ab - evolved.b * evolved.c,
            )
            assert all(margin <= 0.0 for margin, built in zip(margins, kept) if not built)
            for (_, excess, terms), margin in zip(expansion.branches, itertools.compress(margins, kept)):
                shifted = sum(c * math.exp(-e * tau) for c, e in terms)
                assert math.exp(-excess * tau) * shifted * x_ab == pytest.approx(margin, rel=0, abs=1e-14)
                compared += 1
    assert compared == 4 * (2 * 108 + 216)


def _einsum_branches(state, spec):
    """Both branches formed by one numpy einsum and float loops keyed on
    the exponent i*alpha + j*beta: the reference for _Expansion's rounding,
    wherever no two distinct exponents round to one float."""
    alpha, beta = spec.rate_a, spec.rate_b
    maps = np.diff(
        [[0.0] * 4, _population_map(spec.kind, 0.0), _population_map(spec.kind, 1.0)], axis=0
    ).reshape(2, 2, 2)
    poly = np.einsum("irb,bc,jsc->ijrs", maps, [[state.a, state.b], [state.c, state.d]], maps).tolist()
    branches = []
    for coh, (r, s), (r2, s2) in ((abs(state.z), (0, 0), (1, 1)), (abs(state.w), (0, 1), (1, 0))):
        coef = dict.fromkeys(itertools.product(range(3), repeat=2), 0.0)
        for i, j, k, l in itertools.product((0, 1), repeat=4):
            coef[i + k, j + l] -= poly[i][j][r][s] * poly[k][l][r2][s2]
        coef[1, 1] += coh * coh
        merged = {}
        for (i, j), c in coef.items():
            merged.setdefault(i * alpha + j * beta, [0.0, i, j])[0] += c
        live = sorted((e, c, i, j) for e, (c, i, j) in merged.items() if c != 0.0)
        if live:
            _, _, i0, j0 = live[0]
            terms = [(c, (i - i0) * alpha + (j - j0) * beta) for _, c, i, j in live]
            branches.append((coh, (i0 - 1) * alpha + (j0 - 1) * beta, terms))
    return branches


def _seeded_starts(rng, kind, family, pair):
    """A start state and tau spec drawn for one kind, family and rate class."""
    rate = rng.uniform(0.3, 2.0)
    other = {"equal": rate, "unequal": rate * rng.uniform(1.25, 4.0), "one-zero": 0.0, "half": 0.5 * rate}[pair]
    rate_a, rate_b = (rate, other) if rng.random() < 0.5 else (other, rate)
    if family == "custom-x":
        state = random_x_state(rng)
    else:
        state = (werner_psi if family == "werner-psi" else werner_phi)(rng.uniform(0.25, 1.0))
    return state, _tau_spec(ChannelSpec(kind, rate_a, rate_b))


def _entangled(expansion, tau):
    """Whether some branch sum is positive at tau."""
    return max(expansion.sums(tau)) > 0.0


def _start_terms(expansion):
    """The terms of the branch positive at tau = 0."""
    return expansion.branches[_first_positive(expansion.sums(0.0))][2]


def test_sums_have_one_entry_per_branch_and_at_most_one_positive():
    # an X state is entangled on at most one branch: |z|^2 > a d and
    # |w|^2 > b c together would break |z|^2 <= b c and |w|^2 <= a d
    rng = np.random.default_rng(20)
    compared = 0
    for kind, family, pair, _ in itertools.product(
        CHANNEL_KINDS, ("werner-psi", "werner-phi", "custom-x"), ("equal", "unequal", "one-zero"), range(20),
    ):
        state, spec = _seeded_starts(rng, kind, family, pair)
        expansion = _Expansion(state, spec)
        for tau in (0.0, 0.5, 3.0, 60.0):
            sums = expansion.sums(tau)
            assert len(sums) == len(expansion.branches)
            positive = sum(s > 0.0 for s in sums)
            assert positive <= 1
            assert (expansion.concurrence(tau, sums) is None) == (positive == 0)
            compared += positive
    assert compared > 500


def test_expansion_equals_the_einsum_build_bit_for_bit():
    # at a rate ratio of 1/2, two distinct powers share an exponent and merge
    rng = np.random.default_rng(11)
    built = 0
    for kind, family, pair, _ in itertools.product(
        CHANNEL_KINDS, ("werner-psi", "werner-phi", "custom-x"),
        ("equal", "unequal", "one-zero", "half"), range(40),
    ):
        state, spec = _seeded_starts(rng, kind, family, pair)
        expansion = _Expansion(state, spec)
        reference = _einsum_branches(state, spec)
        # only a branch of zero coherence is left out
        assert repr(expansion.branches) == repr([branch for branch in reference if branch[0] != 0.0])
        assert repr(expansion.decay) == repr(spec.rate_a + spec.rate_b)
        built += 1
    assert built == 3 * 3 * 4 * 40


def _bisect(holds, lo, hi, tol):
    """Reference oracle: midpoint of [lo, hi], where holds(lo) and not
    holds(hi), after halving it down to width tol, or to adjacent floats."""
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if holds(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def test_closed_form_death_agrees_with_bisection():
    # phase noise at any rates, and amplitude or equalizing noise at equal
    # rates or with one rate zero, leave a linear or quadratic branch
    rng = np.random.default_rng(12)
    tol, compared = 1e-10, 0
    for kind, family, pair, _ in itertools.product(
        CHANNEL_KINDS, ("werner-psi", "werner-phi", "custom-x"),
        ("equal", "unequal", "one-zero", "half"), range(40),
    ):
        if kind != "phase" and pair not in ("equal", "one-zero"):
            continue
        state, spec = _seeded_starts(rng, kind, family, pair)
        expansion = _Expansion(state, spec)
        if concurrence_x(state) <= 0.0 or _entangled(expansion, 60.0):
            continue
        tau = expansion.death(_start_terms(expansion))
        assert tau is not None
        assert abs(tau - _bisect(partial(_entangled, expansion), 0.0, 60.0, tol)) <= tol
        assert esd_time_numeric(state, spec, horizon=60.0, tol=tol).time == tau
        compared += 1
    assert compared > 300
    # a branch whose coefficients all lie near 1e-160: c1^2 would be subnormal
    for a in (1e-100, 1e-160, 1e-300):
        state = XState(a, 0.35 - a / 2, 0.35 - a / 2, 0.3, 1.2 * math.sqrt(0.3 * a))
        expansion = _Expansion(state, _tau_spec(ChannelSpec("amplitude")))
        tau = expansion.death(_start_terms(expansion))
        assert abs(tau - _bisect(partial(_entangled, expansion), 0.0, 60.0, tol)) <= tol


def test_unequal_rate_deaths_match_bisection_in_fewer_evaluations(monkeypatch):
    # at unequal nonzero rates, amplitude noise and most equalizing starts
    # leave no closed form; the root finder lands within tol of the
    # reference bisection, in far fewer evaluations and never more; it is
    # handed the values at both ends, which the bisection never evaluates
    counts = []

    def counted_root(value, good, bad, vg, vb, tol):
        def counted(x):
            counts[-1] += 1
            return value(x)

        counts.append(0)
        return _root(counted, good, bad, vg, vb, tol)

    monkeypatch.setattr(entanglement, "_root", counted_root)
    rng = np.random.default_rng(14)
    tol, compared = 1e-10, 0
    for kind, family, horizon, _ in itertools.product(
        ("amplitude", "equalizing"), ("werner-psi", "werner-phi", "custom-x"), (20.0, 60.0, 200.0), range(30),
    ):
        state, spec = _seeded_starts(rng, kind, family, "unequal")
        expansion = _Expansion(state, spec)
        if concurrence_x(state) <= 0.0 or _entangled(expansion, horizon):
            continue
        if expansion.death(_start_terms(expansion)) is not None:
            continue
        steps = []

        def holds(tau):
            steps.append(tau)
            return _entangled(expansion, tau)

        reference = _bisect(holds, 0.0, horizon, tol)
        assert abs(esd_time_numeric(state, spec, horizon=horizon, tol=tol).time - reference) <= tol
        assert counts[-1] <= len(steps) - 2
        compared += 1
    assert compared == len(counts) > 150
    assert sum(counts) / len(counts) <= 10.2  # 9.18 measured


def test_critical_fidelity_builds_few_expansions(monkeypatch):
    built = []

    class Counted(_Expansion):
        def __init__(self, state, spec):
            built.append(state)
            super().__init__(state, spec)

    monkeypatch.setattr(entanglement, "_Expansion", Counted)
    numeric = critical_fidelity_numeric()
    assert len(built) <= 5
    assert abs(numeric - critical_fidelity_amplitude()) <= 1e-15


def test_closed_form_death_matches_the_paper_to_the_last_digits():
    bell = XState(0.5, 0.0, 0.0, 0.5, w=0.5)
    tau = esd_time_numeric(bell, ChannelSpec("equalizing")).time
    assert tau == pytest.approx(-math.log(math.sqrt(2.0) - 1.0), rel=1e-14, abs=0.0)
    for f in (0.55, 0.6, 0.7, 0.8, 0.9, 0.95):
        tau = esd_time_numeric(werner_psi(f), ChannelSpec("phase")).time
        assert tau == pytest.approx(math.log((4.0 * f - 1.0) / (2.0 - 2.0 * f)), rel=1e-14, abs=0.0)
        tau = esd_time_numeric(werner_phi(f), ChannelSpec("amplitude")).time
        assert tau == pytest.approx(math.log((2.0 * f + 1.0) / (4.0 - 4.0 * f)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("ratio", [1e-17, 1e-20, 1e-300])
def test_exponents_below_the_rate_precision_stay_apart(ratio):
    # 1 + ratio == 1 in floats; merging or ordering exponents on such sums
    # left a positive constant term, so the state was reported alive at long
    # horizons and its concurrence overflowed there
    state, spec = werner_psi(0.7), ChannelSpec("amplitude", 1.0, ratio)

    def concurrence(tau):
        # under amplitude noise, from x_A = exp(-tau), x_B = exp(-ratio tau)
        fall_a, fall_b = -math.expm1(-tau), -math.expm1(-ratio * tau)
        a, b, c, d = state.a, state.b, state.c, state.d
        ad = a * (fall_a * fall_b * a + fall_a * b + fall_b * c + d)
        bc = (fall_b * a + b) * (fall_a * a + c)
        margin = max(0.0, abs(state.z) - math.sqrt(ad), abs(state.w) - math.sqrt(bc))
        return 2.0 * math.exp(-0.5 * (1.0 + ratio) * tau) * margin

    for horizon in (30.0, 1e3):
        result = esd_time_numeric(state, spec, horizon=horizon)
        assert result.status == ALIVE
        assert result.c_final == pytest.approx(concurrence(horizon), rel=1e-12, abs=0.0)
    for horizon in (1e3 / ratio, 1.7e308):
        result = esd_time_numeric(state, spec, horizon=horizon)
        assert result.status == DIES
        assert result.time == pytest.approx(math.log(5.0) / ratio, rel=1e-12)


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


def test_numpy_scalars_compute_as_the_floats_they_equal():
    # numpy scalars are real numbers: each call equals the call with the same
    # values as Python floats, so a float32 input is not computed in float32
    f32, rate32, tol32 = np.float32(0.8), np.float32(1.3), np.float32(1e-6)
    f, rate, tol = float(f32), float(rate32), float(tol32)
    spec = ChannelSpec("amplitude", rate_a=rate32, rate_b=np.int64(2))
    assert spec == ChannelSpec("amplitude", rate, 2.0)
    assert type(spec.rate_a) is type(spec.rate_b) is float
    assert werner_psi(f32) == werner_psi(f)
    assert propagate_x(werner_phi(f32), spec, np.float32(0.7)) == propagate_x(
        werner_phi(f), ChannelSpec("amplitude", rate, 2.0), float(np.float32(0.7))
    )
    for state in (werner_psi(0.9), werner_phi(f32)):
        assert esd_time_numeric(state, spec, horizon=np.int64(60), tol=tol32) == esd_time_numeric(
            state, ChannelSpec("amplitude", rate, 2.0), horizon=60.0, tol=tol
        )
    assert esd_time_phase_werner(f32, horizon=np.int64(60)) == esd_time_phase_werner(f, horizon=60.0)
    assert esd_time_amplitude_phi_werner(f32) == esd_time_amplitude_phi_werner(f)
    assert critical_fidelity_numeric(horizon=np.int64(60), f_tol=tol32) == critical_fidelity_numeric(
        horizon=60.0, f_tol=tol
    )
    with pytest.raises(ValueError, match="rate_a must be finite and >= 0, got -1"):
        ChannelSpec("phase", rate_a=np.int64(-1))
    with pytest.raises(ValueError, match="fidelity must be a finite number"):
        werner_psi(np.float32("nan"))
    with pytest.raises(ValueError, match="strictly between 1/2 and 1, got 1"):
        esd_time_amplitude_phi_werner(np.int64(1))
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        esd_time_numeric(werner_psi(0.8), spec, horizon="60")


def test_critical_fidelity_analytic_value():
    f_c = critical_fidelity_amplitude()
    assert f_c == (3.0 * math.sqrt(5.0) - 1.0) / 8.0
    # root of 16 F^2 + 4 F - 11
    assert abs(16.0 * f_c * f_c + 4.0 * f_c - 11.0) <= 1e-12


def test_critical_fidelity_numeric_matches_analytic():
    numeric = critical_fidelity_numeric()
    assert abs(numeric - critical_fidelity_amplitude()) <= 1e-9


@pytest.mark.xfail(strict=True, reason="the search locates the boundary at the horizon, F*(20), not F* itself")
def test_critical_fidelity_numeric_within_f_tol_at_a_short_horizon():
    # at horizon 20 the numeric boundary lies 2.641e-10 from the analytic
    # one, more than twice f_tol; at horizon 60 the two agree exactly
    f_tol = 1e-10
    numeric = critical_fidelity_numeric(horizon=20.0, f_tol=f_tol)
    assert abs(numeric - critical_fidelity_amplitude()) <= f_tol


def test_critical_fidelity_straddles_fates():
    f_c = critical_fidelity_amplitude()
    spec = ChannelSpec("amplitude")
    assert esd_time_numeric(werner_psi(f_c - 1e-4), spec).status == DIES
    assert esd_time_numeric(werner_psi(f_c + 1e-4), spec).status == ALIVE


def test_critical_fidelity_numeric_needs_a_workable_horizon():
    with pytest.raises(NumericalFailureError):
        critical_fidelity_numeric(horizon=0.05)
