"""Self-checks over the library's core invariants, runnable from the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .channels import CHANNEL_KINDS, ChannelSpec, apply, check_cptp, kraus_set, propagate_x
from .entanglement import concurrence_x
from .linalg import apply_local_unitary, concurrence_general, inf_norm_diff, random_local_unitary, x_form_residual
from .states import random_x_state, to_dense, werner_phi, werner_psi

__all__ = ["CheckResult", "run_all"]

DEFAULT_TRIALS = 200
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


def _trace_preservation(_rng: np.random.Generator | None, _trials: int) -> Iterator[float]:
    for kind in CHANNEL_KINDS:
        for rate_a, rate_b in ((1.0, 1.0), (1.3, 0.4)):
            for tau in np.linspace(0.0, 10.0, 21):
                yield check_cptp(kraus_set(ChannelSpec(kind, rate_a, rate_b), float(tau)))


def _x_form(rng: np.random.Generator, trials: int) -> Iterator[float]:
    for _ in range(trials):
        rho = to_dense(random_x_state(rng))
        for _ in range(rng.integers(1, 5)):
            kind = CHANNEL_KINDS[rng.integers(0, 3)]
            spec = ChannelSpec(kind, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            rho = apply(rho, kraus_set(spec, rng.uniform(0.0, 3.0)))
            yield x_form_residual(rho)


def _oracle_equivalence(rng: np.random.Generator, trials: int) -> Iterator[float]:
    for _ in range(trials):
        state = random_x_state(rng)
        for kind in CHANNEL_KINDS:
            spec = ChannelSpec(kind, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            t = rng.uniform(0.0, 8.0)
            closed = to_dense(propagate_x(state, spec, t))
            dense = apply(to_dense(state), kraus_set(spec, t))
            yield inf_norm_diff(closed, dense)


def _concurrence_methods(rng: np.random.Generator, trials: int) -> Iterator[float]:
    for _ in range(trials):
        state = random_x_state(rng)
        yield abs(concurrence_x(state) - concurrence_general(to_dense(state)))


def _local_unitary_invariance(rng: np.random.Generator, trials: int) -> Iterator[float]:
    for _ in range(trials):
        rho = to_dense(random_x_state(rng))
        rotated = apply_local_unitary(rho, *random_local_unitary(rng))
        yield abs(concurrence_general(rho) - concurrence_general(rotated))


def _semigroup(rng: np.random.Generator, trials: int) -> Iterator[float]:
    for _ in range(trials):
        state = random_x_state(rng)
        for kind in CHANNEL_KINDS:
            spec = ChannelSpec(kind, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            t1 = rng.uniform(0.0, 4.0)
            t2 = rng.uniform(0.0, 4.0)
            two_steps = to_dense(propagate_x(propagate_x(state, spec, t1), spec, t2))
            one_step = to_dense(propagate_x(state, spec, t1 + t2))
            yield inf_norm_diff(two_steps, one_step)


def _initial_werner_concurrence(_rng: np.random.Generator | None, _trials: int) -> Iterator[float]:
    for f in np.linspace(0.5, 1.0, 50):
        f = float(f)
        for build in (werner_psi, werner_phi):
            yield abs(concurrence_x(build(f)) - (2.0 * f - 1.0))


def _sweep_records(_rng: np.random.Generator | None, _trials: int) -> Iterator[float]:
    """Scalar propagate_x and concurrence_x on dephased werner_psi grids:
    every concurrence in [0, 1] and every trace 1.  It does not run the
    broadcast grid kernel of the sweep command, which the CLI tests check
    against this scalar route."""
    spec = ChannelSpec("phase")
    for f in np.linspace(0.25, 1.0, 11):
        base = werner_psi(float(f))
        for tau in np.linspace(0.0, 5.0, 21):
            state = propagate_x(base, spec, float(tau))
            conc = concurrence_x(state)
            yield max(0.0 - conc, conc - 1.0)
            yield abs(state.a + state.b + state.c + state.d - 1.0)


# Each check by its printed name: its tolerance and the generator of its
# residuals.  The order is the run order, which fixes the random draws.
_CHECKS: dict[str, tuple[float, Callable[[np.random.Generator | None, int], Iterator[float]]]] = {
    "kraus completeness": (1e-12, _trace_preservation),
    "x form preserved": (1e-13, _x_form),
    "closed form vs kraus sum": (1e-12, _oracle_equivalence),
    "concurrence closed form vs spectrum": (1e-10, _concurrence_methods),
    "concurrence local-unitary invariance": (1e-12, _local_unitary_invariance),
    "semigroup composition": (1e-12, _semigroup),
    "initial werner concurrence": (1e-12, _initial_werner_concurrence),
    "sweep record invariants": (1e-10, _sweep_records),
}


def _check(name: str, rng: np.random.Generator | None = None, trials: int = 0) -> CheckResult:
    """The named check's result: its worst residual, floored at 0, against
    its tolerance.  The randomized checks draw trials times from rng."""
    tolerance, residuals = _CHECKS[name]
    residual = float(max(0.0, *residuals(rng, trials)))
    return CheckResult(name, residual, tolerance, residual <= tolerance)


def run_all(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every check, the randomized ones with trials draws each from a
    generator seeded with seed, and return their results in a fixed order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    return [_check(name, rng, trials) for name in _CHECKS]
