"""Markovian noise channels acting independently on each qubit.

Three kinds are supported, each driven by per-qubit damping factors
gamma = exp(-rate * t / 2) and omega = sqrt(1 - gamma^2):

* ``phase``       pure dephasing; populations are untouched and each
                  coherence picks up one factor of gamma per damped qubit.
* ``amplitude``   decay of the upper level |+> into |->; population moves
                  down while coherences shrink.
* ``equalizing``  symmetric up/down relaxation; each qubit's populations mix
                  toward 1/2, so every input is driven to the maximally
                  mixed state.

``propagate_x`` evolves X states with one closed-form rule for every kind
and rate pair: each qubit's populations pass through a 2x2 stochastic map
and both coherences shrink by gamma_A * gamma_B.  The explicit Kraus
operators (``kraus_set``, applied by ``apply``) are the independent
reference route; the tests and ``verify`` check the rule against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import inf_norm_diff
from .states import OFF_X_POSITIONS, XState

__all__ = [
    "CHANNEL_KINDS",
    "DampingFactors",
    "ChannelSpec",
    "damping",
    "kraus_1q",
    "kraus_set",
    "check_cptp",
    "apply",
    "propagate_x",
    "x_form_residual",
]

CHANNEL_KINDS = ("phase", "amplitude", "equalizing")

_CPTP_REJECT_TOL = 1e-12


class DampingFactors(NamedTuple):
    """Per-qubit decay pair: gamma weights the surviving amplitude, omega the
    transferred one, with gamma^2 + omega^2 = 1."""

    gamma: float
    omega: float


def damping(rate: float, t: float) -> DampingFactors:
    """Damping factors after evolving for time t at the given rate.

    gamma = exp(-rate * t / 2) runs from 1 at t = 0 toward 0.  Both rate and
    t must be finite and non-negative.
    """
    if not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    gamma = math.exp(-0.5 * rate * t)
    return DampingFactors(gamma=gamma, omega=math.sqrt(1.0 - gamma * gamma))


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
        for name, rate in (("rate_a", self.rate_a), ("rate_b", self.rate_b)):
            if not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")


def kraus_1q(kind: str, factors: DampingFactors) -> list[np.ndarray]:
    """Single-qubit Kraus operators of the given kind, each set trace preserving.

    phase: {diag(gamma, 1), diag(omega, 0)}, populations stay put.
    amplitude: {diag(gamma, 1), omega |-><+|}, the upper-level population
    survives with weight gamma^2 and the remainder lands in the lower level.
    equalizing: the decay pair in both directions, halved,
    {diag(gamma, 1), omega |-><+|, diag(1, gamma), omega |+><-|} / sqrt(2);
    populations perform a symmetric two-state mix, staying put with
    probability (1 + gamma^2)/2.  Every kind multiplies the off-diagonal
    element by gamma.
    """
    gamma, omega = factors
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
    ops_a = kraus_1q(spec.kind, damping(spec.rate_a, t))
    ops_b = kraus_1q(spec.kind, damping(spec.rate_b, t))
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


def _population_map(kind: str, gamma: float) -> tuple[float, float, float, float]:
    """Row-major 2x2 stochastic map T(gamma^2) that one qubit's channel
    applies to its (upper, lower) populations."""
    g2 = gamma * gamma
    if kind == "phase":
        return 1.0, 0.0, 0.0, 1.0
    if kind == "amplitude":
        return g2, 0.0, 1.0 - g2, 1.0
    stay = 0.5 * (1.0 + g2)
    flip = 0.5 * (1.0 - g2)
    return stay, flip, flip, stay


def propagate_x(state: XState, spec: ChannelSpec, t: float) -> XState:
    """Evolve an X state for time t, staying in the six-parameter form.

    With the populations arranged as P = [[a, b], [c, d]] (rows indexed by
    qubit A's level, columns by B's), the result is T_A P T_B^T, where each
    qubit's map T(gamma^2) is the identity for phase, [[g2, 0], [1 - g2, 1]]
    for amplitude and [[s, f], [f, s]] with s, f = (1 +- g2)/2 for
    equalizing.  Both coherences are multiplied by gamma_A * gamma_B.  The
    same rule holds for every kind and every rate pair.
    """
    gamma_a = damping(spec.rate_a, t).gamma
    gamma_b = damping(spec.rate_b, t).gamma
    ta00, ta01, ta10, ta11 = _population_map(spec.kind, gamma_a)
    tb00, tb01, tb10, tb11 = _population_map(spec.kind, gamma_b)
    # the two rows of T_A P; each then multiplies T_B^T
    up0, up1 = ta00 * state.a + ta01 * state.c, ta00 * state.b + ta01 * state.d
    dn0, dn1 = ta10 * state.a + ta11 * state.c, ta10 * state.b + ta11 * state.d
    shrink = gamma_a * gamma_b
    return XState(
        up0 * tb00 + up1 * tb01,
        up0 * tb10 + up1 * tb11,
        dn0 * tb00 + dn1 * tb01,
        dn0 * tb10 + dn1 * tb11,
        shrink * state.z,
        shrink * state.w,
    )


def x_form_residual(rho: np.ndarray) -> float:
    """Largest magnitude outside the diagonal and anti-diagonal positions."""
    rho = np.asarray(rho, dtype=complex)
    return max(abs(complex(rho[i, j])) for i, j in OFF_X_POSITIONS)
