"""Wootters concurrence and entanglement sudden-death searches.

Concurrence of a two-qubit density matrix rho comes from the spectrum of
rho (sy x sy) conj(rho) (sy x sy): with eigenvalues lam_1 >= ... >= lam_4,
C = max(0, sqrt(lam_1) - sqrt(lam_2) - sqrt(lam_3) - sqrt(lam_4)); the
square roots are computed as singular values of Wootters' matrix.  For X
states the same number has the closed form
C = 2 * max(0, |z| - sqrt(a*d), |w| - sqrt(b*c)); the two routes are checked
against each other in the tests.

Although every matrix element decays smoothly under the noise channels,
concurrence can hit zero at a finite time and stay there.  The searches
below locate that time.  Search horizons and tolerances are given in the
dimensionless product rate * t; times stored in results are physical, so
the two coincide at the default rate 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, propagate_x
from .linalg import PAULI_Y, NumericalFailureError, inf_norm_diff
from .states import XState, _check_fidelity, werner_psi

__all__ = [
    "DIES",
    "ALIVE",
    "SEPARABLE",
    "EsdResult",
    "concurrence_x",
    "concurrence_general",
    "esd_time_phase_werner",
    "esd_time_amplitude_phi_werner",
    "esd_time_numeric",
    "critical_fidelity_amplitude",
    "critical_fidelity_numeric",
]

_HERMITIAN_TOL = 1e-10
_CLAMP_TOL = 1e-10

_DEFAULT_HORIZON = 60.0
_DEFAULT_TOL = 1e-10
_GRID_POINTS = 512

_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)

DIES = "dies"
ALIVE = "alive"
SEPARABLE = "separable"


def _margin(state: XState) -> float:
    """Signed half-concurrence of an X state; positive iff entangled."""
    inner = abs(state.z) - math.sqrt(max(0.0, state.a * state.d))
    outer = abs(state.w) - math.sqrt(max(0.0, state.b * state.c))
    return max(inner, outer)


def concurrence_x(state: XState) -> float:
    """Closed-form concurrence of an X state."""
    return 2.0 * max(0.0, _margin(state))


def concurrence_general(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    Wootters' factor route: with rho = W W^+ built from the eigenvectors of
    rho, the singular values s_1 >= ... >= s_4 of W^T (sy x sy) W are the
    square roots of the spin-flip spectrum, and
    C = max(0, s_1 - s_2 - s_3 - s_4).  Non-finite entries raise ValueError.
    A matrix that is not Hermitian within 1e-10, or has an eigenvalue below
    -1e-10, raises NumericalFailureError; eigenvalues in [-1e-10, 0) are
    clamped to zero.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise ValueError("matrix entries must be finite")
    if inf_norm_diff(rho, rho.conj().T) > _HERMITIAN_TOL:
        raise NumericalFailureError("density matrix is not Hermitian")
    try:
        lam, vecs = np.linalg.eigh(rho)
        factor = vecs * np.sqrt(np.maximum(lam, 0.0))
        s = np.linalg.svd(factor.T @ _SIGMA_YY @ factor, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigen- or singular-value iteration failed: {exc}") from exc
    if lam[0] < -_CLAMP_TOL:
        raise NumericalFailureError(f"negative eigenvalue {lam[0]} in density matrix")
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


@dataclass(frozen=True)
class EsdResult:
    """Outcome of a sudden-death search.

    status is "dies" (concurrence reaches zero at .time), "alive" (still
    entangled at .horizon, where the concurrence is .c_final), or
    "separable" (no entanglement already at t = 0).  Stored times are
    physical; multiply by the channel rate for the dimensionless product.
    """

    status: str
    time: float | None = None
    horizon: float | None = None
    c_final: float | None = None

    @classmethod
    def dies(cls, time: float) -> "EsdResult":
        if not (math.isfinite(time) and time >= 0.0):
            raise ValueError(f"death time must be finite and >= 0, got {time}")
        return cls(status=DIES, time=float(time))

    @classmethod
    def alive_at_horizon(cls, horizon: float, c_final: float) -> "EsdResult":
        if not c_final > 0.0:
            raise ValueError("a surviving state must keep positive concurrence")
        return cls(status=ALIVE, horizon=float(horizon), c_final=float(c_final))

    @classmethod
    def initially_separable(cls) -> "EsdResult":
        return cls(status=SEPARABLE)


def _check_search_params(rate: float, horizon: float) -> None:
    if not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be finite and positive, got {rate}")
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")


def esd_time_phase_werner(
    fidelity: float, rate: float = 1.0, horizon: float = _DEFAULT_HORIZON
) -> EsdResult:
    """Death time of werner_psi(fidelity) under dephasing of both qubits.

    The coherence decays as exp(-rate * t) against a static separability
    threshold, so for 1/2 < fidelity < 1 entanglement vanishes at
    rate * t = ln((4F - 1) / (2 - 2F)).  At or below F = 1/2 the state
    starts separable.  At F = 1 it stays entangled forever and the result
    reports survival at the caller's horizon.
    """
    f = _check_fidelity(fidelity)
    _check_search_params(rate, horizon)
    if f <= 0.5:
        return EsdResult.initially_separable()
    if f == 1.0:
        return EsdResult.alive_at_horizon(horizon / rate, math.exp(-horizon))
    return EsdResult.dies(math.log((4.0 * f - 1.0) / (2.0 - 2.0 * f)) / rate)


def esd_time_amplitude_phi_werner(fidelity: float, rate: float = 1.0) -> EsdResult:
    """Death time of werner_phi(fidelity) under two-sided amplitude decay.

    Valid for 1/2 < fidelity < 1, where the state dies at
    rate * t = ln((2F + 1) / (4 - 4F)).  The time grows without bound as F
    approaches 1; the endpoints are outside this formula's domain.
    """
    if not (
        isinstance(fidelity, (int, float))
        and math.isfinite(fidelity)
        and 0.5 < fidelity < 1.0
    ):
        raise ValueError(f"fidelity must lie strictly between 1/2 and 1, got {fidelity}")
    if not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be finite and positive, got {rate}")
    return EsdResult.dies(math.log((2.0 * fidelity + 1.0) / (4.0 - 4.0 * fidelity)) / rate)


def esd_time_numeric(
    state: XState,
    spec: ChannelSpec,
    horizon: float = _DEFAULT_HORIZON,
    tol: float = _DEFAULT_TOL,
) -> EsdResult:
    """Locate the first concurrence zero of an evolving X state.

    The dimensionless interval [0, horizon] (units of the larger channel
    rate times t) is scanned on a 512-point grid for a sign change of the
    entanglement margin, then bisected down to tol.  A state whose margin
    never drops to zero is reported alive with its final concurrence; one
    with zero initial concurrence is reported separable outright.
    """
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    rate_ref = max(spec.rate_a, spec.rate_b)
    if rate_ref <= 0.0:
        raise ValueError("at least one channel rate must be positive")

    def margin_at(s: float) -> float:
        return _margin(propagate_x(state, spec, s / rate_ref))

    if _margin(state) <= 0.0:
        return EsdResult.initially_separable()
    lo = 0.0
    hi = None
    for s in np.linspace(0.0, horizon, _GRID_POINTS)[1:]:
        s = float(s)
        if margin_at(s) <= 0.0:
            hi = s
            break
        lo = s
    if hi is None:
        return EsdResult.alive_at_horizon(horizon / rate_ref, 2.0 * margin_at(horizon))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin_at(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return EsdResult.dies(0.5 * (lo + hi) / rate_ref)


def critical_fidelity_amplitude() -> float:
    """Werner fidelity separating survival from sudden death under decay.

    werner_psi states above this fidelity keep some entanglement for all
    time under equal-rate amplitude noise; below it they disentangle at a
    finite time.  It is the root of 16 F^2 + 4 F - 11 = 0 in the physical
    range: (3 sqrt(5) - 1) / 8, about 0.7135.
    """
    return (3.0 * math.sqrt(5.0) - 1.0) / 8.0


def critical_fidelity_numeric(
    horizon: float = _DEFAULT_HORIZON, f_tol: float = 1e-10, rate: float = 1.0
) -> float:
    """Locate the survival boundary by bisecting the fidelity axis.

    Each probe classifies werner_psi(F) under equal-rate amplitude noise as
    dying or surviving within the horizon.  A finite horizon classifies very
    slow deaths as survival, which biases the returned boundary slightly
    below the analytic value; at horizon 60 the bias is far below f_tol.
    """
    if not (isinstance(f_tol, (int, float)) and math.isfinite(f_tol) and f_tol > 0.0):
        raise ValueError(f"f_tol must be finite and positive, got {f_tol}")
    _check_search_params(rate, horizon)
    spec = ChannelSpec("amplitude", rate, rate)

    def dies(f: float) -> bool:
        return esd_time_numeric(werner_psi(f), spec, horizon=horizon).status == DIES

    lo, hi = 0.55, 0.95
    if not dies(lo) or dies(hi):
        raise NumericalFailureError(
            f"fidelity bracket [{lo}, {hi}] failed to classify as die/survive "
            f"at horizon {horizon}"
        )
    while hi - lo > f_tol:
        mid = 0.5 * (lo + hi)
        if dies(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
