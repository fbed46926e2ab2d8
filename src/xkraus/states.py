"""Two-qubit states whose density matrix has the X shape.

Basis order is |++>, |+->, |-+>, |--> with |+> the upper (excited) level of
each qubit.  An X state carries populations a, b, c, d on the diagonal, an
inner coherence z between |+-> and |-+>, and an outer coherence w between
|++> and |-->.  This module holds their arithmetic only: the validity rule,
the Werner families and random draws.  to_dense writes a state as the 4x4
complex numpy array, in this basis, that the dense route of ``linalg`` and
the Kraus sums of ``channels`` take.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "XState",
    "werner_psi",
    "werner_phi",
    "to_dense",
    "random_x_state",
]

_TOL = 1e-12
_MAX = sys.float_info.max


@dataclass(frozen=True)
class XState:
    """Six-parameter X-form density matrix.

    a, b, c, d are the populations of |++>, |+->, |-+>, |-->.  z is the
    coherence between |+-> and |-+> (row 1, column 2 of the dense matrix),
    w the one between |++> and |--> (row 0, column 3).  Construction
    enforces one rule: finite entries, |a + b + c + d - 1| <= 1e-12, and
    negative eigenvalues summing to at most 1e-12 in magnitude.

    Every channel keeps the rule at every time.  A trace-preserving
    positive map E takes a Hermitian X = P - Q (P, Q >= 0) to E(P) - E(Q),
    so ||E(X)||_1 <= ||X||_1, and the negative weight (||rho||_1 - tr rho)/2
    cannot grow while the trace is fixed.  Only rounding moves it, by about
    1e-16, so a start within that of the bound can see propagate_x raise at
    some time where a CLI grid, which checks only its starts, prints the row.
    """

    a: float
    b: float
    c: float
    d: float
    z: complex = 0.0j
    w: complex = 0.0j

    def __post_init__(self) -> None:
        # math.hypot, since abs() of a complex raises OverflowError past 1.3e308
        _check_x(
            self.a, self.b, self.c, self.d,
            math.hypot(self.z.real, self.z.imag), math.hypot(self.w.real, self.w.imag),
        )


def _negative_weight(p: float, q: float, x: float) -> float:
    """The negative eigenvalues of the Hermitian [[p, x], [x*, q]] summed in
    magnitude, from finite p, q and |x| = x.  The eigenvalue farther from 0
    is big = (p + q)/2 +- hypot((p - q)/2, |x|), with the sign of p + q, and
    the other one det / big, det taken as p*(q/big) - x*(x/big), so neither
    cancels or overflows.  A big past the float range is returned in
    magnitude: with a unit trace the negative eigenvalues of the state then
    sum past the range too."""
    mean, radius = 0.5 * p + 0.5 * q, math.hypot(0.5 * p - 0.5 * q, x)
    big = mean + radius if mean >= 0.0 else mean - radius
    if big == 0.0 or abs(big) > _MAX:
        return abs(big)
    return max(0.0, -big) + max(0.0, x * (x / big) - p * (q / big))


def _check_x(a: float, b: float, c: float, d: float, abs_z: float, abs_w: float) -> None:
    """Raise ValueError unless populations a, b, c, d and coherence
    magnitudes |z|, |w| form a valid X state: all finite, populations
    summing to 1 and negative eigenvalues summing to at most 1e-12 in
    magnitude, those of the blocks [[b, z], [z*, c]] and [[a, w], [w*, d]].
    With no negative population and both block determinants >= 0 in floats
    the weight is 0, and no eigenvalue is computed.
    """
    if not (abs(a) <= _MAX and abs(b) <= _MAX and abs(c) <= _MAX and abs(d) <= _MAX):
        raise ValueError("populations must be finite")
    if not (abs_z <= _MAX and abs_w <= _MAX):
        raise ValueError("coherences must be finite")
    total = a + b + c + d
    if not abs(total - 1.0) <= _TOL:
        raise ValueError(f"populations must sum to 1, got {total}")
    if min(a, b, c, d) < 0.0 or b * c < abs_z * abs_z or a * d < abs_w * abs_w:
        weight = _negative_weight(b, c, abs_z) + _negative_weight(a, d, abs_w)
        if weight > _TOL:
            raise ValueError(f"not positive semidefinite: its negative eigenvalues sum to {-weight}")


def _finite_real(value) -> float | None:
    """value as a Python float if it is a finite real number (int, float,
    or a numpy scalar that numbers.Real admits); None otherwise."""
    if isinstance(value, (int, float)) or isinstance(value, numbers.Real):
        value = float(value)
        if math.isfinite(value):
            return value
    return None


def _check_number(name: str, value: float, *, positive: bool = False) -> float:
    """value as a float; raise ValueError unless it is a finite real number
    that is >= 0, or > 0 if positive."""
    number = _finite_real(value)
    if number is None or not (number > 0.0 if positive else number >= 0.0):
        rule = "positive" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {rule}, got {value}")
    return number


def _check_fidelity(fidelity: float) -> float:
    f = _finite_real(fidelity)
    if f is None:
        raise ValueError("fidelity must be a finite number")
    if not 0.25 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0.25, 1], got {fidelity}")
    return f


def werner_psi(fidelity: float) -> XState:
    """Werner mixture of the Bell state (|+-> - |-+>)/sqrt(2).

    fidelity is the overlap with that Bell state: 1/4 gives the maximally
    mixed state, 1 the pure Bell state.  The inner coherence is signed,
    z = (1 - 4*fidelity)/6, negative for fidelity above 1/4.
    """
    f = _check_fidelity(fidelity)
    edge = (1.0 - f) / 3.0
    mid = (2.0 * f + 1.0) / 6.0
    return XState(a=edge, b=mid, c=mid, d=edge, z=complex((1.0 - 4.0 * f) / 6.0), w=0.0j)


def werner_phi(fidelity: float) -> XState:
    """Werner mixture of the Bell state (|++> - |-->)/sqrt(2).

    werner_psi with the inner and outer 2x2 blocks exchanged (a<->b,
    c<->d, z<->w); the coherence sits at w instead of z.
    """
    psi = werner_psi(fidelity)
    return XState(a=psi.b, b=psi.a, c=psi.d, d=psi.c, z=psi.w, w=psi.z)


def to_dense(state: XState) -> np.ndarray:
    """Dense 4x4 density matrix of an X state."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = state.a
    rho[1, 1] = state.b
    rho[2, 2] = state.c
    rho[3, 3] = state.d
    rho[1, 2] = state.z
    rho[2, 1] = complex(state.z).conjugate()
    rho[0, 3] = state.w
    rho[3, 0] = complex(state.w).conjugate()
    return rho


def random_x_state(rng: np.random.Generator) -> XState:
    """Draw a valid X state.

    Populations are Dirichlet-uniform on the simplex, coherence magnitudes
    uniform on their positivity intervals, phases uniform.
    """
    a, b, c, d = (float(p) for p in rng.dirichlet((1.0, 1.0, 1.0, 1.0)))
    z_mag = rng.uniform(0.0, math.sqrt(b * c))
    w_mag = rng.uniform(0.0, math.sqrt(a * d))
    z = z_mag * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    w = w_mag * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return XState(a=a, b=b, c=c, d=d, z=z, w=w)
