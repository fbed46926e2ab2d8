"""Output checks for benchmark commands, run outside the timed region.

``check(cmd, rc, text)`` returns None for a correct output and a one-line
reason otherwise.  A wrong answer is never raised or skipped: the caller
counts it as a failed command.

Where the paper gives a closed form, the check uses it:

* phase noise, werner-psi, equal rates: dies at tau = ln((4F-1)/(2-2F)) for
  1/2 < F < 1 and survives forever at F = 1;
* amplitude noise, werner-phi, equal rates: dies at ln((2F+1)/(4-4F)) for
  1/2 < F < 1 and survives forever at F = 1 (concurrence exp(-2 tau));
* amplitude noise, werner-psi, equal rates: survives forever above
  F = (3 sqrt(5) - 1)/8 and dies in finite time below it;
* equalizing noise, Bell state (F = 1), equal rates: dies at
  tau = -ln(sqrt(2) - 1).

Every other sudden-death claim is checked against an independent dense
Kraus sum evaluated in decimal arithmetic on both sides of the reported
time.  The float Kraus sum cannot serve there: at long times it cancels and
underflows exactly where the program does.  Grid rows are checked against
the library's own operator-sum route, ``apply(to_dense(.), kraus_set(.))``.
"""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal, localcontext
from typing import Any

import numpy as np

from xkraus.channels import ChannelSpec, apply, kraus_set
from xkraus.states import to_dense, werner_phi, werner_psi
from workloads import Command

CRITICAL_FIDELITY = (3.0 * math.sqrt(5.0) - 1.0) / 8.0
EQUALIZING_BELL_TAU = -math.log(math.sqrt(2.0) - 1.0)

GRID_FIELDS = ("tau", "fidelity", "concurrence", "a", "b", "c", "d", "abs_z", "abs_w")
# CSV values carry 12 significant digits
_GRID_TOL = 1e-9
_SAMPLED_ROWS = 4
# a reported death time may sit this far (relative, absolute) from the true one
_TAU_REL = 1e-7
_TAU_ABS = 1e-9
_CONCURRENCE_REL = 1e-6

_ALIVE_FOREVER = "alive-forever"


def check(cmd: Command, rc: int, text: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[cmd.command](cmd, text)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


# --- evolve / sweep ---------------------------------------------------------


def _expected_grid(cmd: Command) -> tuple[np.ndarray, np.ndarray | None]:
    v = cmd.values
    taus = np.linspace(0.0, v["tau_max"], v["steps"])
    if cmd.command == "evolve":
        return taus, np.full(v["steps"], v["fidelity"])
    fids = np.linspace(v["fidelity_min"], v["fidelity_max"], v["fidelity_steps"])
    return np.tile(taus, len(fids)), np.repeat(fids, v["steps"])


def _parse_grid(cmd: Command, text: str) -> np.ndarray:
    if cmd.values["format"] == "csv":
        lines = text.split("\n")
        if lines[0] != ",".join(GRID_FIELDS) or lines[-1] != "":
            raise ValueError("bad CSV header or missing final newline")
        rows = [line.split(",") for line in lines[1:-1]]
        if any(len(r) != len(GRID_FIELDS) for r in rows):
            raise ValueError("CSV row with the wrong field count")
        return np.array(rows, dtype=float)
    doc = json.loads(text)
    if doc["command"] != cmd.command or doc["channel"] != cmd.values["channel"]:
        raise ValueError("JSON header does not echo the command")
    return np.array(
        [[math.nan if r[f] is None else r[f] for f in GRID_FIELDS] for r in doc["records"]],
        dtype=float,
    )


def _check_grid(cmd: Command, text: str) -> str | None:
    v = cmd.values
    rows = _parse_grid(cmd, text)
    if rows.shape[0] != cmd.rows:
        return f"{rows.shape[0]} rows, expected {cmd.rows}"
    taus, fids = _expected_grid(cmd)
    tau, fid, conc = rows[:, 0], rows[:, 1], rows[:, 2]
    if np.max(np.abs(tau - taus)) > _GRID_TOL * max(1.0, v["tau_max"]):
        return "tau column does not follow the grid"
    if np.max(np.abs(fid - fids)) > _GRID_TOL:
        return "fidelity column does not follow the grid"
    if np.min(conc) < 0.0 or np.max(conc) > 1.0 + 1e-12:
        return "concurrence outside [0, 1]"
    if np.max(np.abs(rows[:, 3:7].sum(axis=1) - 1.0)) > 1e-10:
        return "populations do not sum to 1"
    spec = ChannelSpec(v["channel"], v["rate_a"], v["rate_b"])
    rate_ref = max(spec.rate_a, spec.rate_b)
    build = werner_psi if v["family"] == "werner-psi" else werner_phi
    pick = random.Random(" ".join(cmd.argv))
    for i in sorted(pick.sample(range(len(rows)), min(_SAMPLED_ROWS, len(rows)))):
        rho = apply(to_dense(build(float(fids[i]))), kraus_set(spec, float(taus[i]) / rate_ref))
        a, b, c, d = (float(rho[k, k].real) for k in range(4))
        z, w = abs(rho[1, 2]), abs(rho[0, 3])
        expected = [2.0 * max(0.0, z - math.sqrt(a * d), w - math.sqrt(b * c)), a, b, c, d, z, w]
        if np.max(np.abs(rows[i, 2:] - expected)) > _GRID_TOL:
            return f"row {i} differs from the operator-sum oracle"
    return None


# --- high-precision oracle --------------------------------------------------


def _kraus_1q(kind: str, gamma: Decimal, omega: Decimal) -> list[tuple[tuple[Decimal, ...], ...]]:
    """Single-qubit Kraus operators, basis order (upper, lower)."""
    zero, one = Decimal(0), Decimal(1)
    if kind == "phase":
        return [((gamma, zero), (zero, one)), ((omega, zero), (zero, zero))]
    if kind == "amplitude":
        return [((gamma, zero), (zero, one)), ((zero, zero), (omega, zero))]
    h = one / Decimal(2).sqrt()
    return [
        ((h * gamma, zero), (zero, h)),
        ((zero, zero), (h * omega, zero)),
        ((h, zero), (zero, h * gamma)),
        ((zero, h * omega), (zero, zero)),
    ]


def _apply_1q(rho: list[list[Decimal]], qubit: int, ops) -> list[list[Decimal]]:
    """Dense Kraus sum of a single-qubit channel on one factor of a 4x4 matrix."""
    shift = 1 - qubit  # qubit A is the slower (block) index
    out = [[Decimal(0)] * 4 for _ in range(4)]
    for k in ops:
        for i in range(4):
            qi = (i >> shift) & 1
            for x in range(2):
                kix = k[qi][x]
                if not kix:
                    continue
                src_i = i ^ ((qi ^ x) << shift)
                for j in range(4):
                    qj = (j >> shift) & 1
                    for y in range(2):
                        kjy = k[qj][y]
                        if kjy:
                            out[i][j] += kix * rho[src_i][j ^ ((qj ^ y) << shift)] * kjy
    return out


def reference_margin(
    pops: tuple[float, ...], z: float, w: float, kind: str, rate_a: float, rate_b: float, tau: float
) -> Decimal:
    """Signed half-concurrence after evolving for tau = max(rate_a, rate_b) * t,
    from a dense Kraus sum in decimal arithmetic.

    The channels commute with local phase rotations, so the coherences can be
    taken real and non-negative.  The precision grows with the damping so
    that the cancellation between terms of order gamma^2 stays resolved.
    """
    rate_ref = max(rate_a, rate_b)
    with localcontext() as ctx:
        ctx.prec = 40 + int(2.0 * (rate_a + rate_b) * tau / rate_ref / math.log(10.0))
        exponents = [Decimal(r) * Decimal(tau) / Decimal(rate_ref) for r in (rate_a, rate_b)]
        a, b, c, d = (Decimal(p) for p in pops)
        zero = Decimal(0)
        rho = [
            [a, zero, zero, Decimal(w)],
            [zero, b, Decimal(z), zero],
            [zero, Decimal(z), c, zero],
            [Decimal(w), zero, zero, d],
        ]
        for qubit, exponent in enumerate(exponents):
            gamma = (-exponent / 2).exp()
            omega = max(zero, 1 - gamma * gamma).sqrt()
            rho = _apply_1q(rho, qubit, _kraus_1q(kind, gamma, omega))
        inner = rho[1][2] - max(zero, rho[0][0] * rho[3][3]).sqrt()
        outer = rho[0][3] - max(zero, rho[1][1] * rho[2][2]).sqrt()
        return +max(inner, outer)


def _initial(values: dict[str, Any]) -> tuple[tuple[float, ...], float, float]:
    """Populations, |z| and |w| of the command's initial state."""
    if values["family"] == "custom-x":
        p = values["x_params"]
        return tuple(p[:4]), math.hypot(p[4], p[5]), math.hypot(p[6], p[7])
    f = values["fidelity"]
    edge, mid, coh = (1.0 - f) / 3.0, (2.0 * f + 1.0) / 6.0, abs(1.0 - 4.0 * f) / 6.0
    if values["family"] == "werner-psi":
        return (edge, mid, mid, edge), coh, 0.0
    return (mid, edge, edge, mid), 0.0, coh


def _closed_form(values: dict[str, Any]) -> tuple[str, float | None] | None:
    """The paper's answer where it has one: ("dies", tau), (alive forever), or
    ("dies", None) for a finite death whose time has no closed form."""
    family, kind, f = values["family"], values["channel"], values.get("fidelity")
    if family == "custom-x" or values["rate_a"] != values["rate_b"] or f <= 0.5:
        return None
    if kind == "phase" and family == "werner-psi":
        if f == 1.0:
            return (_ALIVE_FOREVER, None)
        return ("dies", math.log((4.0 * f - 1.0) / (2.0 - 2.0 * f)))
    if kind == "amplitude" and family == "werner-phi":
        if f == 1.0:
            return (_ALIVE_FOREVER, None)
        return ("dies", math.log((2.0 * f + 1.0) / (4.0 - 4.0 * f)))
    if kind == "amplitude" and family == "werner-psi":
        return (_ALIVE_FOREVER, None) if f > CRITICAL_FIDELITY else ("dies", None)
    if kind == "equalizing" and f == 1.0:
        return ("dies", EQUALIZING_BELL_TAU)
    return None


def judge_fate(values: dict[str, Any], fate: dict[str, Any]) -> str | None:
    """Check one sudden-death report (status plus tau or horizon data) for
    the configuration in ``values`` (family, fidelity or x_params, channel,
    rate_a, rate_b, horizon)."""
    pops, z, w = _initial(values)
    kind, ra, rb, horizon = values["channel"], values["rate_a"], values["rate_b"], values["horizon"]

    def margin(tau: float) -> Decimal:
        return reference_margin(pops, z, w, kind, ra, rb, tau)

    closed = _closed_form(values)
    status = fate["status"]
    if status == "separable":
        return None if margin(0.0) <= 0 else "reports separable, state is entangled at tau = 0"
    if status == "dies":
        tau = fate["tau"]
        if closed is not None and closed[0] == _ALIVE_FOREVER:
            return f"reports death at tau = {tau:.6g}, paper: survives forever"
        if not 0.0 <= tau <= horizon:
            return f"death time {tau:.6g} outside [0, horizon]"
        slack = _TAU_REL * tau + _TAU_ABS
        if closed is not None and closed[1] is not None:
            if abs(tau - closed[1]) > slack:
                return f"reports death at tau = {tau:.12g}, paper: {closed[1]:.12g}"
            return None
        if margin(tau + slack) > 0:
            return f"reports death at tau = {tau:.6g}, still entangled just after it"
        if tau - slack > 0.0 and margin(tau - slack) <= 0:
            return f"reports death at tau = {tau:.6g}, already separable just before it"
        return None
    if status == "alive":
        if abs(fate["horizon_tau"] - horizon) > 1e-9 * horizon:
            return "survival reported at the wrong horizon"
        if closed is not None and closed[0] == "dies" and closed[1] is not None and closed[1] < horizon:
            return f"reports survival to tau = {horizon:.6g}, paper: dies at {closed[1]:.6g}"
        true_c = 2 * margin(horizon)
        if true_c <= 0:
            return f"reports survival to tau = {horizon:.6g}, state is separable there"
        c = Decimal(fate["concurrence_at_horizon"])
        if abs(c - true_c) > Decimal(_CONCURRENCE_REL) * true_c:
            return f"concurrence at horizon {float(c):.6g}, expected {float(true_c):.6g}"
        return None
    return f"unknown status {status!r}"


# --- esd / critical-fidelity / demo-local-ops ------------------------------


def _parse_phrase(phrase: str) -> dict[str, Any] | None:
    if phrase == "not available for this configuration":
        return None
    if phrase == "initially separable":
        return {"status": "separable"}
    if phrase.startswith("dies at tau = "):
        return {"status": "dies", "tau": float(phrase[len("dies at tau = "):])}
    head, _, c = phrase.partition(" with concurrence ")
    if head.startswith("alive at horizon tau = "):
        return {
            "status": "alive",
            "horizon_tau": float(head[len("alive at horizon tau = "):]),
            "concurrence_at_horizon": float(c),
        }
    raise ValueError(f"unrecognised phrase {phrase!r}")


def _text_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, rest = line.strip().partition(": ")
        if sep:
            fields[key] = rest
    return fields


def _analytic_expected(values: dict[str, Any]) -> bool:
    f = values.get("fidelity")
    if f is None or values["rate_a"] != values["rate_b"]:
        return False
    if values["channel"] == "phase" and values["family"] == "werner-psi":
        return True
    return values["channel"] == "amplitude" and values["family"] == "werner-phi" and 0.5 < f < 1.0


def _check_esd(cmd: Command, text: str) -> str | None:
    v = cmd.values
    if v["format"] == "json":
        doc = json.loads(text)
        numeric, analytic = doc["numeric"], doc["analytic"]
        if doc["horizon_tau"] != v["horizon"]:
            return "horizon not echoed"
    else:
        fields = _text_fields(text)
        numeric_key = next(k for k in fields if k.startswith("numeric (horizon tau="))
        numeric = _parse_phrase(fields[numeric_key])
        analytic = _parse_phrase(fields["analytic"])
    if numeric is None:
        return "no numeric result"
    if (analytic is not None) != _analytic_expected(v):
        return "analytic result present where it should be absent, or missing"
    for label, fate in (("numeric", numeric), ("analytic", analytic)):
        if fate is not None:
            problem = judge_fate(v, fate)
            if problem:
                return f"{label}: {problem}"
    return None


def _check_critical(cmd: Command, text: str) -> str | None:
    if cmd.values["format"] == "json":
        doc = json.loads(text)
        analytic, numeric = doc["analytic"], doc["numeric"]
    else:
        fields = _text_fields(text)
        analytic = float(fields["analytic"])
        numeric = float(next(v for k, v in fields.items() if k.startswith("numeric (")))
    if abs(analytic - CRITICAL_FIDELITY) > 1e-11:
        return f"analytic boundary {analytic!r}, expected {CRITICAL_FIDELITY!r}"
    if abs(numeric - CRITICAL_FIDELITY) > 1e-10:
        return f"numeric boundary {numeric!r} misses {CRITICAL_FIDELITY!r} by more than f_tol"
    return None


def _check_demo(cmd: Command, text: str) -> str | None:
    v = cmd.values
    f = v["fidelity"]
    if v["format"] == "json":
        doc = json.loads(text)
        c_psi, c_phi = doc["initial_concurrence_psi"], doc["initial_concurrence_phi"]
        residual = doc["transform_residual"]
        fate_psi, fate_phi = doc["amplitude_fate_psi"], doc["amplitude_fate_phi"]
        analytic_phi = doc["amplitude_fate_phi_analytic"]
    else:
        fields = _text_fields(text)
        psi_text, _, phi_text = fields["initial concurrence"].partition(", ")
        c_psi = float(psi_text.split()[-1])
        c_phi = float(phi_text.split()[-1])
        residual = float(text.split("max entry mismatch = ")[1].split()[0])
        fate_psi = _parse_phrase(fields["werner-psi"])
        fate_phi = _parse_phrase(fields["werner-phi"])
        analytic_phi = _parse_phrase(fields.get("werner-phi analytic", "not available for this configuration"))
    if max(abs(c_psi - (2 * f - 1)), abs(c_phi - (2 * f - 1))) > 1e-10:
        return "initial concurrences differ from 2F - 1"
    if residual > 1e-12:
        return f"local map residual {residual}"
    base = {"fidelity": f, "channel": "amplitude", "rate_a": 1.0, "rate_b": 1.0, "horizon": v["horizon"]}
    checks = [
        ("werner-psi", dict(base, family="werner-psi"), fate_psi),
        ("werner-phi", dict(base, family="werner-phi"), fate_phi),
    ]
    if (analytic_phi is not None) != (0.5 < f < 1.0):
        return "werner-phi analytic result present where it should be absent, or missing"
    if analytic_phi is not None:
        checks.append(("werner-phi analytic", dict(base, family="werner-phi"), analytic_phi))
    for label, values, fate in checks:
        problem = judge_fate(values, fate)
        if problem:
            return f"{label}: {problem}"
    return None


_CHECKS = {
    "evolve": _check_grid,
    "sweep": _check_grid,
    "esd": _check_esd,
    "critical-fidelity": _check_critical,
    "demo-local-ops": _check_demo,
}
