"""Two-qubit states whose density matrix has the X shape.

Basis order is |++>, |+->, |-+>, |--> with |+> the upper (excited) level of
each qubit.  An X state carries populations a, b, c, d on the diagonal, an
inner coherence z between |+-> and |-+>, and an outer coherence w between
|++> and |-->.  All dense matrices are 4x4 complex numpy arrays in this
basis.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_2, PAULI_X, inf_norm_diff

__all__ = [
    "XState",
    "werner_psi",
    "werner_phi",
    "to_dense",
    "x_form_residual",
    "apply_local_unitary",
    "flip_a_unitary",
    "random_x_state",
    "random_local_unitary",
]

_TOL = 1e-12
_UNITARY_TOL = 1e-12
_MAX = sys.float_info.max

X_POSITIONS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2), (2, 1), (3, 0))
OFF_X_POSITIONS = tuple(
    (i, j) for i in range(4) for j in range(4) if (i, j) not in X_POSITIONS
)


def x_form_residual(rho: np.ndarray) -> float:
    """Largest magnitude outside the diagonal and anti-diagonal positions."""
    rho = np.asarray(rho, dtype=complex)
    return max(abs(complex(rho[i, j])) for i, j in OFF_X_POSITIONS)


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


def apply_local_unitary(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Conjugate a dense matrix by the product unitary u_a (x) u_b, u_a on
    qubit A and u_b on qubit B; the spectrum is kept.

    Raises ValueError if either factor misses unitarity by more than 1e-12.
    """
    for name, u in (("u_a", u_a), ("u_b", u_b)):
        res = inf_norm_diff(u.conj().T @ u, IDENTITY_2)
        if res > _UNITARY_TOL:
            raise ValueError(f"{name} is not unitary (residual {res:.3e})")
    u4 = np.kron(u_a, u_b)
    return u4 @ np.asarray(rho, dtype=complex) @ u4.conj().T


def flip_a_unitary() -> tuple[np.ndarray, np.ndarray]:
    """(u_a, u_b): bit flip of qubit A (times i), identity on qubit B.

    Conjugation swaps basis indices 0<->2 and 1<->3 and exchanges the roles
    of the inner and outer coherences, taking werner_psi(F) exactly onto
    werner_phi(F).
    """
    return 1j * PAULI_X, IDENTITY_2.copy()


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


def _haar_unitary_2(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_local_unitary(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(u_a, u_b): independent Haar-random unitaries on the two qubits,
    u_a drawn first."""
    return _haar_unitary_2(rng), _haar_unitary_2(rng)
