"""Concurrence of X states and entanglement sudden-death searches.

Wootters concurrence of an X state has the closed form
C = 2 * max(0, |z| - sqrt(a*d), |w| - sqrt(b*c)) (concurrence_x); this
module holds X-state arithmetic only, and the tests and verify check it
against the general spectrum route of the dense oracle,
linalg.concurrence_general.

Although every matrix element decays smoothly under the noise channels,
concurrence can hit zero at a finite time and stay there; local channels
cannot recreate entanglement, so the searches below need only an exact sign
test, on an expansion that neither cancels nor underflows (_Expansion), and
a death time in closed form where a branch is quadratic, or else one
Brent-Dekker root search (_root).  Every time here (horizons, time
tolerances and results) is the dimensionless tau = rate_ref * t, with
rate_ref the larger of the two channel rates.  The paper states its death
times in the same unit, so no result is scaled by rate_ref.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache, partial
from itertools import groupby, product
from typing import Callable

from .channels import ChannelSpec, _MAPS, _tau_spec
from .linalg import NumericalFailureError
from .states import XState, _check_fidelity, _check_number, _finite_real, werner_psi

__all__ = [
    "DIES",
    "ALIVE",
    "SEPARABLE",
    "EsdResult",
    "concurrence_x",
    "esd_time_phase_werner",
    "esd_time_amplitude_phi_werner",
    "esd_time_numeric",
    "critical_fidelity_amplitude",
    "critical_fidelity_numeric",
]

_DEFAULT_HORIZON = 60.0
_DEFAULT_TOL = 1e-10

DIES = "dies"
ALIVE = "alive"
SEPARABLE = "separable"


def _margin(a, b, c, d, abs_z, abs_w, larger=max, sqrt=math.sqrt):
    """Half the concurrence of an X state, max(0, |z| - sqrt(a*d),
    |w| - sqrt(b*c)), positive iff entangled.  Numpy arrays are evaluated
    elementwise, bit for bit as floats, given larger=np.maximum and
    sqrt=np.sqrt.  np.maximum differs from max only in the sign of a zero,
    np.maximum(0.0, -0.0) being -0.0.  Under a square root that is
    harmless, as |z| - sqrt(-0.0) == |z|; inner and outer, a magnitude
    >= +0.0 minus a root, are never -0.0, nor NaN as the entries are
    finite."""
    inner = abs_z - sqrt(larger(0.0, a * d))
    outer = abs_w - sqrt(larger(0.0, b * c))
    return larger(larger(0.0, inner), outer)


def concurrence_x(state: XState) -> float:
    """Closed-form concurrence of an X state."""
    return 2.0 * _margin(state.a, state.b, state.c, state.d, abs(state.z), abs(state.w))


@dataclass(frozen=True)
class EsdResult:
    """Outcome of a sudden-death search.

    status is "dies" (concurrence reaches zero at .time), "alive" (still
    entangled at .horizon, where the concurrence is .c_final; 0.0 there
    means positive but below the float64 range), or "separable" (no
    entanglement already at t = 0).  Times are tau = rate_ref * t; divide
    by the larger channel rate for the physical time.
    """

    status: str
    time: float | None = None
    horizon: float | None = None
    c_final: float | None = None

    @classmethod
    def dies(cls, time: float) -> "EsdResult":
        return cls(status=DIES, time=_check_number("death time", time))

    @classmethod
    def alive_at_horizon(cls, horizon: float, c_final: float) -> "EsdResult":
        if not c_final >= 0.0:
            raise ValueError("a surviving state cannot have negative or NaN concurrence")
        return cls(status=ALIVE, horizon=float(horizon), c_final=float(c_final))

    @classmethod
    def initially_separable(cls) -> "EsdResult":
        return cls(status=SEPARABLE)


def _root(
    value: Callable[[float], float], good: float, bad: float, vg: float, vb: float, tol: float
) -> float | None:
    """The end with the smaller |value| of a bracket on value's sign
    change, vg = value(good) > 0 >= vb = value(bad) with either end the
    lower, the caller's values at its ends, shrunk by Brent-Dekker (zeroin)
    to width tol, or to adjacent floats; None if the ends lack those signs.
    b is that end, c the other and a the previous b.  A step goes to the
    root nearest b of the parabola through a, b and c, or along the secant
    through a and b where a is c or the parabola has no real root.  Brent's
    safeguards take the midpoint instead where |value| at b is not below
    that at a, or the point lies beyond 3/4 of the way to c, or the step is
    not below half the one before last.  A step is at least tol/2, and at least one
    float; on a run of exact zeros, where b and a are both 0, the stride
    doubles until it leaves the run."""
    if not vg > 0.0 >= vb:
        return None
    a, fa, b, fb, half = good, vg, bad, vb, 0.5 * tol
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        m, s = 0.5 * (c - b), math.nan
        if not (abs(m) > half and min(b, c) < b + m < max(b, c)):
            return b
        if abs(e) >= half and abs(fa) > abs(fb):
            s = -fb * (b - a) / (fb - fa)
            if a != c:  # P(b + s) = fb + s * slope + s^2 * curve through a, b and c
                curve = ((fc - fb) / (c - b) - (fb - fa) / (b - a)) / (c - a)
                slope = (fb - fa) / (b - a) + (b - a) * curve
                disc = slope * slope - 4.0 * curve * fb
                if disc >= 0.0 and (den := slope + math.copysign(math.sqrt(disc), slope)) != 0.0:
                    s = -2.0 * fb / den
        e, d = (d, s) if s * m >= 0.0 and abs(s) < min(1.5 * abs(m) - 0.5 * half, 0.5 * abs(e)) else (m, m)
        if fa == fb == 0.0 and abs(b - a) < 0.25 * abs(m):
            e, d = d, 2.0 * (b - a)
        x = b + (d if abs(d) > half else math.copysign(half, m))
        if x == b:
            x = math.nextafter(b, c)
        elif not min(b, c) < x < max(b, c):
            x = b + m
        a, fa, b, fb = b, fb, x, value(x)
        if (fb > 0.0) == (fc > 0.0):
            c, fc, d, e = a, fa, b - a, b - a


def esd_time_phase_werner(fidelity: float, *, horizon: float = _DEFAULT_HORIZON) -> EsdResult:
    """Death time of werner_psi(fidelity) under equal-rate dephasing of both
    qubits.

    The coherence decays as exp(-tau) against a static separability
    threshold, so for 1/2 < fidelity < 1 entanglement vanishes at
    tau = ln((4F - 1) / (2 - 2F)).  At or below F = 1/2 the state starts
    separable.  At F = 1 it stays entangled forever and the result reports
    survival at the caller's horizon.
    """
    f = _check_fidelity(fidelity)
    horizon = _check_number("horizon", horizon, positive=True)
    if f <= 0.5:
        return EsdResult.initially_separable()
    if f == 1.0:
        return EsdResult.alive_at_horizon(horizon, math.exp(-horizon))
    return EsdResult.dies(math.log((4.0 * f - 1.0) / (2.0 - 2.0 * f)))


def esd_time_amplitude_phi_werner(fidelity: float) -> EsdResult:
    """Death time of werner_phi(fidelity) under equal-rate amplitude decay
    of both qubits.

    Valid for 1/2 < fidelity < 1, where the state dies at
    tau = ln((2F + 1) / (4 - 4F)).  The time grows without bound as F
    approaches 1; the endpoints are outside this formula's domain.
    """
    f = _finite_real(fidelity)
    if f is None or not 0.5 < f < 1.0:
        raise ValueError(f"fidelity must lie strictly between 1/2 and 1, got {fidelity}")
    return EsdResult.dies(math.log((2.0 * f + 1.0) / (4.0 - 4.0 * f)))


def _population(ra: tuple, rb: tuple, a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """Coefficients of 1, x_B, x_A and x_A x_B in an entry of T_A P T_B^T,
    P = [[a, b], [c, d]], from its rows ra and rb of T(0) and T(1) - T(0),
    each summed as einsum sums it: (m0 a n0 + m0 b n1) + (m1 c n0 + m1 d n1)."""
    ((m0, m1), (n0, n1)), ((u0, u1), (v0, v1)) = ra, rb
    ma, mb, mc, md, da, db, dc, dd = m0 * a, m0 * b, m1 * c, m1 * d, n0 * a, n0 * b, n1 * c, n1 * d
    return ((ma * u0 + mb * u1) + (mc * u0 + md * u1), (ma * v0 + mb * v1) + (mc * v0 + md * v1),
            (da * u0 + db * u1) + (dc * u0 + dd * u1), (da * v0 + db * v1) + (dc * v0 + dd * v1))


def _branch(p: tuple[float, ...], q: tuple[float, ...], coh: float) -> tuple[float, ...]:
    """Coefficients of x_A^i x_B^j in |coh|^2 x_A x_B - p q, in
    product(range(3), repeat=2) order, then a padding 0.0; each sums its
    products in product((0, 1), repeat=4) order."""
    (p00, p01, p10, p11), (q00, q01, q10, q11) = p, q
    return (-p00 * q00, -p00 * q01 - p01 * q00, -p01 * q01, -p00 * q10 - p10 * q00,
            -p00 * q11 - p01 * q10 - p10 * q01 - p11 * q00 + coh * coh,
            -p01 * q11 - p11 * q01, -p10 * q10, -p10 * q11 - p11 * q10, -p11 * q11, 0.0)


@lru_cache(maxsize=256)
def _plan(alpha: float, beta: float) -> tuple[tuple, tuple]:
    """The powers x_A^i x_B^j grouped by equal exponent i*alpha + j*beta,
    slowest first, as _branch positions padded to three; and for each group
    as the slowest surviving one, the excess and every group's exponent
    relative to it, from each group's first (i, j).  Exponents are compared
    exactly: (i - k) * alpha + (j - l) * beta sums two exact products, and
    a rounded sum keeps the sign, and any zero, of the exact one."""
    key = cmp_to_key(lambda p, q: (p[0] - q[0]) * alpha + (p[1] - q[1]) * beta)
    groups = [list(g) for _, g in groupby(sorted(product(range(3), repeat=2), key=key), key)]
    reps = [g[0] for g in groups]
    shifts = tuple(((i0 - 1) * alpha + (j0 - 1) * beta, tuple((i - i0) * alpha + (j - j0) * beta for i, j in reps))
                   for i0, j0 in reps)
    return tuple(tuple(3 * i + j for i, j in g) + (9,) * (3 - len(g)) for g in groups), shifts


def _first_positive(sums: list[float]) -> int | None:
    """Index of the positive branch sum (an X state has at most one), or None."""
    return next((k for k, s in enumerate(sums) if s > 0.0), None)


class _Expansion:
    """The branches of an evolving X state's margin as sums of exponentials.

    With x = gamma^2 per qubit, each qubit's population map is
    T(x) = T(0) + x (T(1) - T(0)), both read off the channel table _MAPS, so
    every evolved population is bilinear in (1, x_A) x (1, x_B)
    (_population), and both coherences scale as x_A x_B.  Each branch's
    squared margin, |z|^2 x_A x_B - a'd' or |w|^2 x_A x_B - b'c', has the
    sign of the branch and is a polynomial of degree <= 2 in each x
    (_branch): a sum of c_k exp(-e_k tau) with x = exp(-tau * rate /
    rate_ref), the rates of spec being relative to rate_ref already
    (_tau_spec).  Terms of exactly equal exponent are merged (_plan), so
    leading terms cancel exactly, and the exponents are shifted so that the
    slowest surviving term is constant: nothing underflows to a false zero.
    A branch of zero coherence, -a'd' or -b'c', is never positive and is
    not built, so a Werner start has one branch and an X state at most two.
    sums(tau) gives every branch's shifted sum, concurrence(tau, sums) the
    concurrence from them, and death(terms) a branch's closed-form zero.
    """

    def __init__(self, state: XState, spec: ChannelSpec) -> None:
        alpha, beta = spec.rate_a, spec.rate_b
        self.decay = alpha + beta  # x_A x_B = exp(-decay * tau)
        (t0, t1), (a, b, c, d) = _MAPS[spec.kind], (state.a, state.b, state.c, state.d)
        groups, shifts = _plan(alpha, beta)
        self.branches = []
        for coh, (r, s), (r2, s2) in ((abs(state.z), (0, 0), (1, 1)), (abs(state.w), (0, 1), (1, 0))):
            if coh == 0.0:  # the branch is -a'd' or -b'c', never entangled
                continue
            p = _population((t0[r], t1[r]), (t0[s], t1[s]), a, b, c, d)
            coef = _branch(p, _population((t0[r2], t1[r2]), (t0[s2], t1[s2]), a, b, c, d), coh)
            terms: list[tuple[float, float]] = []
            for g, (i, j, k) in enumerate(groups):
                e = coef[i] + coef[j] + coef[k]
                if e != 0.0:
                    if not terms:  # the slowest surviving group leads
                        excess, exps = shifts[g]
                    terms.append((e, exps[g]))
            if terms:
                # u = branch / (x_A x_B) = shifted sum * exp(-excess * tau)
                self.branches.append((coh, excess, terms))

    @staticmethod
    def _shifted(terms: list[tuple[float, float]], tau: float) -> float:
        return sum(c * math.exp(-e * tau) for c, e in terms)

    def sums(self, tau: float) -> list[float]:
        """Each branch's shifted sum at tau, in order; the state is
        entangled iff one is positive (_first_positive)."""
        return [self._shifted(terms, tau) for _, _, terms in self.branches]

    def concurrence(self, tau: float, sums: list[float]) -> float | None:
        """Concurrence without cancellation, from sums = sums(tau):
        C = 2 gamma_A gamma_B u / (|coh| + sqrt(|coh|^2 - u)) on the positive
        branch, where u = branch / (x_A x_B) > 0 is clamped at |coh|^2, as
        concurrence_x clamps a'd' and b'c' at 0; None if no branch is
        positive, the state separable."""
        if (k := _first_positive(sums)) is None:
            return None
        coh, excess, _ = self.branches[k]
        u = min(coh * coh, math.exp(math.log(sums[k]) - excess * tau))
        root = math.sqrt(coh * coh - u)
        return 2.0 * math.exp(-0.5 * self.decay * tau) * u / (coh + root)

    @staticmethod
    def death(terms: list[tuple[float, float]]) -> float | None:
        """The tau where a branch with these terms, positive at tau = 0,
        first vanishes, in closed form where it is c0 + c1 y or
        c0 + c1 y + c2 y^2 in y = exp(-delta tau): -ln(y) / delta, y its
        largest root in (0, 1) by the quadratic formula in its
        cancellation-free form.  None for any other branch, or if there is
        no such root."""
        if len(terms) == 2:
            (c0, _), (c1, delta) = terms
            roots = [-c0 / c1]
        elif len(terms) == 3 and 2.0 * terms[1][1] == terms[2][1]:
            # scaled by a power of two, exactly, so that c1^2 cannot underflow
            scale = -math.frexp(max(abs(c) for c, _ in terms))[1]
            (c0, c1, c2), delta = (math.ldexp(c, scale) for c, _ in terms), terms[1][1]
            disc = c1 * c1 - 4.0 * c2 * c0
            q = -0.5 * (c1 + math.copysign(math.sqrt(max(disc, 0.0)), c1))
            roots = [q / c2, c0 / q] if disc >= 0.0 and q != 0.0 else []
        else:
            return None
        roots = [y for y in roots if 0.0 < y < 1.0]
        return -math.log(max(roots)) / delta if roots else None


def esd_time_numeric(
    state: XState,
    spec: ChannelSpec,
    horizon: float = _DEFAULT_HORIZON,
    tol: float = _DEFAULT_TOL,
) -> EsdResult:
    """Locate the concurrence zero of an evolving X state.

    Entanglement, once lost, never returns under local channels, so one
    exact sign test at the horizon decides the fate: a state with a positive
    branch sum there (_Expansion.sums) is reported alive with its
    concurrence, computed without cancellation; otherwise the branch
    positive at 0 dies in closed form (_Expansion.death) or at its root in
    [0, horizon] (_root, Brent-Dekker), which takes that branch's sums at 0
    and at the horizon as its values at both ends.  The horizon, tol and the
    result are all in tau.  The same path serves every channel kind and rate
    pair, including a zero rate.  A state with zero initial concurrence is
    reported separable outright; an entangled one whose expansion rounds
    that margin away raises NumericalFailureError.
    """
    horizon = _check_number("horizon", horizon, positive=True)
    tol = _check_number("tol", tol, positive=True)
    spec = _tau_spec(spec)
    if concurrence_x(state) <= 0.0:
        return EsdResult.initially_separable()
    expansion = _Expansion(state, spec)
    at_zero = expansion.sums(0.0)
    if (k := _first_positive(at_zero)) is None:
        raise NumericalFailureError("the initial margin was lost to rounding in the sudden-death expansion")
    at_horizon = expansion.sums(horizon)
    if (c_final := expansion.concurrence(horizon, at_horizon)) is not None:
        return EsdResult.alive_at_horizon(horizon, c_final)
    # the branch entangled at tau = 0; no branch is positive at the horizon
    start = expansion.branches[k][2]
    tau = _Expansion.death(start)
    if tau is None or not tau <= horizon:
        tau = _root(partial(_Expansion._shifted, start), 0.0, horizon, at_zero[k], at_horizon[k], tol)
    return EsdResult.dies(tau)


def critical_fidelity_amplitude() -> float:
    """Werner fidelity separating survival from sudden death under decay.

    werner_psi states above this fidelity keep some entanglement for all
    time under equal-rate amplitude noise; below it they disentangle at a
    finite time.  It is the root of 16 F^2 + 4 F - 11 = 0 in the physical
    range: (3 sqrt(5) - 1) / 8, about 0.7135.
    """
    return (3.0 * math.sqrt(5.0) - 1.0) / 8.0


def critical_fidelity_numeric(horizon: float = _DEFAULT_HORIZON, f_tol: float = _DEFAULT_TOL) -> float:
    """Locate the survival boundary on the fidelity axis.

    Each probe classifies werner_psi(F) under equal-rate amplitude noise
    by one exact sign test: separable at the horizon means it died within
    it.  A finite horizon (in tau) classifies very slow deaths as survival,
    which biases the returned boundary slightly below the analytic value;
    at horizon 60 the bias is far below f_tol.  The death times' _root runs
    on the largest of _Expansion.sums there, positive iff entangled: on
    werner_psi's one branch, quadratic in F, 3 probes past the 2 ends.
    """
    f_tol = _check_number("f_tol", f_tol, positive=True)
    horizon = _check_number("horizon", horizon, positive=True)
    spec = ChannelSpec("amplitude")  # equal rates 1: its time is already tau

    def margin(f: float) -> float:
        return max(_Expansion(werner_psi(f), spec).sums(horizon), default=0.0)

    lo, hi = 0.55, 0.95
    if (f := _root(margin, hi, lo, margin(hi), margin(lo), f_tol)) is None:
        raise NumericalFailureError(
            f"fidelity bracket [{lo}, {hi}] failed to classify as die/survive "
            f"at horizon {horizon}"
        )
    return f
