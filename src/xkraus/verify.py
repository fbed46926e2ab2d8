"""Self-checks over the library's core invariants, runnable from the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CHANNEL_KINDS,
    ChannelSpec,
    apply,
    check_cptp,
    kraus_set,
    propagate_x,
)
from .entanglement import concurrence_general, concurrence_x
from .states import (
    apply_local_unitary,
    random_local_unitary,
    random_x_state,
    to_dense,
    werner_phi,
    werner_psi,
    x_form_residual,
)

__all__ = ["CheckResult", "run_all"]

DEFAULT_TRIALS = 200
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, tolerance, residual <= tolerance)


def _check_trace_preservation() -> CheckResult:
    worst = 0.0
    for kind in CHANNEL_KINDS:
        for rate_a, rate_b in ((1.0, 1.0), (1.3, 0.4)):
            for tau in np.linspace(0.0, 10.0, 21):
                ops = kraus_set(ChannelSpec(kind, rate_a, rate_b), float(tau))
                worst = max(worst, check_cptp(ops))
    return _result("kraus completeness", worst, 1e-12)


def _check_x_form(rng: np.random.Generator, trials: int) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        rho = to_dense(random_x_state(rng))
        for _ in range(rng.integers(1, 5)):
            kind = CHANNEL_KINDS[rng.integers(0, 3)]
            spec = ChannelSpec(kind, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            rho = apply(rho, kraus_set(spec, rng.uniform(0.0, 3.0)))
            worst = max(worst, x_form_residual(rho))
    return _result("x form preserved", worst, 1e-13)


def _check_oracle_equivalence(rng: np.random.Generator, trials: int) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        state = random_x_state(rng)
        for kind in CHANNEL_KINDS:
            spec = ChannelSpec(kind, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            t = rng.uniform(0.0, 8.0)
            closed = to_dense(propagate_x(state, spec, t))
            dense = apply(to_dense(state), kraus_set(spec, t))
            worst = max(worst, float(np.max(np.abs(closed - dense))))
    return _result("closed form vs kraus sum", worst, 1e-12)


def _check_concurrence_methods(rng: np.random.Generator, trials: int) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        state = random_x_state(rng)
        worst = max(worst, abs(concurrence_x(state) - concurrence_general(to_dense(state))))
    return _result("concurrence closed form vs spectrum", worst, 1e-10)


def _check_local_unitary_invariance(rng: np.random.Generator, trials: int) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        rho = to_dense(random_x_state(rng))
        rotated = apply_local_unitary(rho, *random_local_unitary(rng))
        worst = max(worst, abs(concurrence_general(rho) - concurrence_general(rotated)))
    return _result("concurrence local-unitary invariance", worst, 1e-12)


def _check_semigroup(rng: np.random.Generator, trials: int) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        state = random_x_state(rng)
        for kind in CHANNEL_KINDS:
            spec = ChannelSpec(kind, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            t1 = rng.uniform(0.0, 4.0)
            t2 = rng.uniform(0.0, 4.0)
            two_steps = to_dense(propagate_x(propagate_x(state, spec, t1), spec, t2))
            one_step = to_dense(propagate_x(state, spec, t1 + t2))
            worst = max(worst, float(np.max(np.abs(two_steps - one_step))))
    return _result("semigroup composition", worst, 1e-12)


def _check_initial_werner_concurrence() -> CheckResult:
    worst = 0.0
    for f in np.linspace(0.5, 1.0, 50):
        f = float(f)
        for build in (werner_psi, werner_phi):
            worst = max(worst, abs(concurrence_x(build(f)) - (2.0 * f - 1.0)))
    return _result("initial werner concurrence", worst, 1e-12)


def _check_sweep_records() -> CheckResult:
    worst = 0.0
    spec = ChannelSpec("phase")
    for f in np.linspace(0.25, 1.0, 11):
        base = werner_psi(float(f))
        for tau in np.linspace(0.0, 5.0, 21):
            state = propagate_x(base, spec, float(tau))
            conc = concurrence_x(state)
            worst = max(worst, max(0.0 - conc, conc - 1.0))
            worst = max(worst, abs(state.a + state.b + state.c + state.d - 1.0))
    return _result("sweep record invariants", worst, 1e-10)


def run_all(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every check, the randomized ones with trials draws each from a
    generator seeded with seed, and return their results in a fixed order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    return [
        _check_trace_preservation(),
        _check_x_form(rng, trials),
        _check_oracle_equivalence(rng, trials),
        _check_concurrence_methods(rng, trials),
        _check_local_unitary_invariance(rng, trials),
        _check_semigroup(rng, trials),
        _check_initial_werner_concurrence(),
        _check_sweep_records(),
    ]
