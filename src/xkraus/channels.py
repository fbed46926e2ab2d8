"""Markovian noise channels acting independently on each qubit.

Three kinds are supported, each driven by per-qubit damping factors
gamma = exp(-rate * t / 2), from ``_time_factors`` on every route, and
omega = sqrt(1 - gamma^2).  Every kind shrinks each qubit's coherence by
gamma and maps its (upper, lower) populations by the 2x2 stochastic
T(x) = T(0) + x (I - T(0)), x = gamma^2.  A kind is its T(0), the map it
relaxes to, held in the one table ``_MAPS``:

* ``phase``       pure dephasing, T(0) = I: populations are untouched.
* ``amplitude``   decay of |+> into |->: T(0) moves all population down.
* ``equalizing``  symmetric up/down relaxation: T(0) mixes each qubit to
                  1/2, driving every input to the maximally mixed state.

The last two are generalized amplitude damping toward the upper-level
population n = T(0)[0][0], 0 and 1/2 (Al-Qasimi & James, PRA 77, 012117).

The searches and the CLI's grids work in the paper's dimensionless time
tau = rate_ref * t, rate_ref the larger of the two rates: ``_tau_spec``
divides both rates by rate_ref, so that its spec's time is tau and its
gammas are exp(-(rate / rate_ref) * tau / 2), exactly exp(-tau / 2) at
equal rates.

``propagate_x`` evolves X states with one closed-form rule for every kind
and rate pair: each qubit's populations pass through T(x) and both
coherences shrink by gamma_A * gamma_B.  The rule is one kernel,
``_evolve_x``, written with arithmetic operators only: ``propagate_x`` runs
it on floats, and the CLI's grid commands run it once on numpy arrays of
start states and per-time factors, with the same rounding.  The explicit
Kraus operators (``kraus_set``, built by ``kraus_1q``, applied by
``apply``) are the independent reference route; the tests and ``verify``
check the rule against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import inf_norm_diff
from .states import _MAX, XState, _check_number

__all__ = [
    "CHANNEL_KINDS",
    "ChannelSpec",
    "kraus_1q",
    "kraus_set",
    "check_cptp",
    "apply",
    "propagate_x",
]

# Per kind, the rows of T(0) and of T(1) - T(0) = I - T(0) (module docstring)
_MAPS = {
    "phase": (((1.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (0.0, 0.0))),
    "amplitude": (((0.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (-1.0, 0.0))),
    "equalizing": (((0.5, 0.5), (0.5, 0.5)), ((0.5, -0.5), (-0.5, 0.5))),
}
CHANNEL_KINDS = tuple(_MAPS)

_CPTP_REJECT_TOL = 1e-12


@dataclass(frozen=True)
class ChannelSpec:
    """A channel kind plus independent decay rates for qubits A and B."""

    kind: str
    rate_a: float = 1.0
    rate_b: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(
                f"unknown channel kind {self.kind!r}; expected one of {list(CHANNEL_KINDS)}"
            )
        # stored as Python floats, so a numpy scalar rate computes as a float
        object.__setattr__(self, "rate_a", _check_number("rate_a", self.rate_a))
        object.__setattr__(self, "rate_b", _check_number("rate_b", self.rate_b))


def _tau_spec(spec: ChannelSpec) -> ChannelSpec:
    """The spec with both rates divided by the larger one, rate_ref, so that
    its time is tau = rate_ref * t.  Raises ValueError if both rates are 0."""
    rate_ref = max(spec.rate_a, spec.rate_b)
    if rate_ref <= 0.0:
        raise ValueError("at least one channel rate must be positive")
    return ChannelSpec(spec.kind, spec.rate_a / rate_ref, spec.rate_b / rate_ref)


def kraus_1q(kind: str, gamma: float) -> list[np.ndarray]:
    """Single-qubit Kraus operators of the given kind at damping factor gamma
    in [0, 1], with omega = sqrt(1 - gamma^2); each set is trace preserving
    and realizes the kind's population map in ``_MAPS``.

    phase: {diag(gamma, 1), diag(omega, 0)}.  The thermal kinds, with n =
    T(0)[0][0]: the decay pair {diag(gamma, 1), omega |-><+|} weighted by
    sqrt(1 - n), then the excitation pair {diag(1, gamma), omega |+><-|}
    weighted by sqrt(n), which is dropped at n = 0.
    """
    omega = math.sqrt(1.0 - gamma * gamma)
    keep = [[gamma, 0.0], [0.0, 1.0]]
    if kind == "phase":
        pairs = [(1.0, keep, [[omega, 0.0], [0.0, 0.0]])]
    else:
        n = _MAPS[kind][0][0][0]
        pairs = [(1.0 - n, keep, [[0.0, 0.0], [omega, 0.0]]),
                 (n, [[1.0, 0.0], [0.0, gamma]], [[0.0, omega], [0.0, 0.0]])]
    return [math.sqrt(p) * np.array(k, dtype=complex) for p, *ops in pairs if p > 0.0 for k in ops]


def kraus_set(spec: ChannelSpec, t: float) -> list[np.ndarray]:
    """Kraus operators of the given channel after evolving for time t: all
    pairwise tensor products of the two qubits' ``kraus_1q`` sets (4
    operators for phase and amplitude, 16 for equalizing)."""
    (gamma_a,), (gamma_b,) = _time_factors(spec, [_check_number("time", t)])
    ops_a, ops_b = kraus_1q(spec.kind, gamma_a), kraus_1q(spec.kind, gamma_b)
    return [np.kron(ka, kb) for ka in ops_a for kb in ops_b]


def check_cptp(ops: Sequence[np.ndarray]) -> float:
    """Completeness residual max|sum_k K^+ K - I|, zero for a trace-preserving set."""
    if len(ops) == 0:
        raise ValueError("empty operator list")
    dim = np.asarray(ops[0]).shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in ops:
        k = np.asarray(k, dtype=complex)
        acc += k.conj().T @ k
    return inf_norm_diff(acc, np.eye(dim, dtype=complex))


def apply(rho: np.ndarray, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kraus sum sum_k K rho K^+.

    The operator list is rejected with ValueError if its completeness
    residual exceeds 1e-12, so a non-physical evolution cannot slip through
    silently.
    """
    residual = check_cptp(ops)
    if residual > _CPTP_REJECT_TOL:
        raise ValueError(f"Kraus set is not trace preserving (residual {residual:.3e})")
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for k in ops:
        k = np.asarray(k, dtype=complex)
        out += k @ rho @ k.conj().T
    return out


def _population_map(kind: str, gamma):
    """Row-major T(0) + x (T(1) - T(0)) of ``_MAPS`` at x = gamma^2, the
    map one qubit's channel applies to its (upper, lower) populations;
    gamma may be a numpy array."""
    x = gamma * gamma
    ((t00, t01), (t10, t11)), ((d00, d01), (d10, d11)) = _MAPS[kind]
    return t00 + x * d00, t01 + x * d01, t10 + x * d10, t11 + x * d11


def _time_factors(spec: ChannelSpec, times: list[float]) -> tuple[list[float], list[float]]:
    """gamma_A and gamma_B = exp(-rate * t / 2) at each of the times, Python
    floats that the same pass checks to be finite and >= 0 by comparison
    alone; the rates were checked by ChannelSpec."""
    rate_a, rate_b = -0.5 * spec.rate_a, -0.5 * spec.rate_b
    gamma_a, gamma_b = [], []
    for t in times:
        if not 0.0 <= t <= _MAX:
            raise ValueError(f"time must be finite and >= 0, got {t}")
        gamma_a.append(math.exp(rate_a * t))
        gamma_b.append(math.exp(rate_b * t))
    return gamma_a, gamma_b


def _evolve_x(kind: str, gamma_a, gamma_b, a, b, c, d, z, w):
    """The closed-form rule of propagate_x on bare X parameters.

    It uses only arithmetic operators, so it takes floats, or numpy arrays
    that broadcast together (say start states as columns and per-time
    factors as a row), and rounds every element as the float rule does.
    """
    ta00, ta01, ta10, ta11 = _population_map(kind, gamma_a)
    tb00, tb01, tb10, tb11 = _population_map(kind, gamma_b)
    # the two rows of T_A P; each then multiplies T_B^T
    up0, up1 = ta00 * a + ta01 * c, ta00 * b + ta01 * d
    dn0, dn1 = ta10 * a + ta11 * c, ta10 * b + ta11 * d
    shrink = gamma_a * gamma_b
    return (
        up0 * tb00 + up1 * tb01,
        up0 * tb10 + up1 * tb11,
        dn0 * tb00 + dn1 * tb01,
        dn0 * tb10 + dn1 * tb11,
        shrink * z,
        shrink * w,
    )


def propagate_x(state: XState, spec: ChannelSpec, t: float) -> XState:
    """Evolve an X state for time t, staying in the six-parameter form.

    With the populations arranged as P = [[a, b], [c, d]] (rows indexed by
    qubit A's level, columns by B's), the result is T_A P T_B^T, with each
    qubit's population map T(gamma^2) read off ``_MAPS``.  Both coherences
    are multiplied by gamma_A * gamma_B.  The same rule holds for every
    kind and every rate pair.
    """
    (gamma_a,), (gamma_b,) = _time_factors(spec, [_check_number("time", t)])
    return XState(*_evolve_x(
        spec.kind, gamma_a, gamma_b, state.a, state.b, state.c, state.d, state.z, state.w
    ))
