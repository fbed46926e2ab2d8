"""Markovian noise channels acting independently on each qubit.

Three kinds are supported, each driven by per-qubit damping factors
gamma = exp(-rate * t / 2), from ``_time_factors`` on every route, and
omega = sqrt(1 - gamma^2):

* ``phase``       pure dephasing; populations are untouched and each
                  coherence picks up one factor of gamma per damped qubit.
* ``amplitude``   decay of the upper level |+> into |->; population moves
                  down while coherences shrink.
* ``equalizing``  symmetric up/down relaxation; each qubit's populations mix
                  toward 1/2, so every input is driven to the maximally
                  mixed state.

The searches and the CLI's grids work in the paper's dimensionless time
tau = rate_ref * t, rate_ref the larger of the two rates: ``_tau_spec``
divides both rates by rate_ref, so that its spec's time is tau and its
gammas are exp(-(rate / rate_ref) * tau / 2), exactly exp(-tau / 2) at
equal rates.

``propagate_x`` evolves X states with one closed-form rule for every kind
and rate pair: each qubit's populations pass through a 2x2 stochastic map
and both coherences shrink by gamma_A * gamma_B.  The rule is one kernel,
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
from .states import XState, _check_number

__all__ = [
    "CHANNEL_KINDS",
    "ChannelSpec",
    "kraus_1q",
    "kraus_set",
    "check_cptp",
    "apply",
    "propagate_x",
]

CHANNEL_KINDS = ("phase", "amplitude", "equalizing")

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
    in [0, 1], with omega = sqrt(1 - gamma^2); each set is trace preserving.

    phase: {diag(gamma, 1), diag(omega, 0)}, populations stay put.
    amplitude: {diag(gamma, 1), omega |-><+|}, the upper-level population
    survives with weight gamma^2 and the remainder lands in the lower level.
    equalizing: the decay pair in both directions, halved,
    {diag(gamma, 1), omega |-><+|, diag(1, gamma), omega |+><-|} / sqrt(2);
    populations perform a symmetric two-state mix, staying put with
    probability (1 + gamma^2)/2.  Every kind multiplies the off-diagonal
    element by gamma.
    """
    omega = math.sqrt(1.0 - gamma * gamma)
    keep = np.array([[gamma, 0.0], [0.0, 1.0]], dtype=complex)
    if kind == "phase":
        return [keep, np.array([[omega, 0.0], [0.0, 0.0]], dtype=complex)]
    decay = np.array([[0.0, 0.0], [omega, 0.0]], dtype=complex)
    if kind == "amplitude":
        return [keep, decay]
    h = 1.0 / math.sqrt(2.0)
    return [
        h * keep,
        h * decay,
        h * np.array([[1.0, 0.0], [0.0, gamma]], dtype=complex),
        h * np.array([[0.0, omega], [0.0, 0.0]], dtype=complex),
    ]


def kraus_set(spec: ChannelSpec, t: float) -> list[np.ndarray]:
    """Kraus operators of the given channel after evolving for time t: all
    pairwise tensor products of the two qubits' single-qubit sets (4
    operators for phase and amplitude, 16 for equalizing)."""
    ops_a, ops_b = (kraus_1q(spec.kind, gamma) for gamma in _time_factors(spec, t))
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
    """Row-major 2x2 stochastic map T(gamma^2) that one qubit's channel
    applies to its (upper, lower) populations; gamma may be a numpy array."""
    g2 = gamma * gamma
    if kind == "phase":
        return 1.0, 0.0, 0.0, 1.0
    if kind == "amplitude":
        return g2, 0.0, 1.0 - g2, 1.0
    stay = 0.5 * (1.0 + g2)
    flip = 0.5 * (1.0 - g2)
    return stay, flip, flip, stay


def _time_factors(spec: ChannelSpec, t: float) -> tuple[float, float]:
    """gamma_A, gamma_B = exp(-rate * t / 2) after time t, which must be
    finite and >= 0; the rates were checked by ChannelSpec."""
    t = _check_number("time", t)
    return math.exp(-0.5 * spec.rate_a * t), math.exp(-0.5 * spec.rate_b * t)


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
    qubit A's level, columns by B's), the result is T_A P T_B^T, where each
    qubit's map T(gamma^2) is the identity for phase, [[g2, 0], [1 - g2, 1]]
    for amplitude and [[s, f], [f, s]] with s, f = (1 +- g2)/2 for
    equalizing.  Both coherences are multiplied by gamma_A * gamma_B.  The
    same rule holds for every kind and every rate pair.
    """
    gamma_a, gamma_b = _time_factors(spec, t)
    return XState(*_evolve_x(
        spec.kind, gamma_a, gamma_b, state.a, state.b, state.c, state.d, state.z, state.w
    ))
