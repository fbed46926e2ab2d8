"""Command-line interface.

Subcommands:

    evolve             one state, one channel, records along a time grid
    sweep              fidelity x time concurrence grid for a Werner family
    esd                sudden-death time for one configuration
    critical-fidelity  survival boundary of werner-psi under amplitude noise
    demo-local-ops     same-spectrum pair with opposite fates under decay
    verify             run the library self-checks

``_COMMANDS`` maps each subcommand to its handler, help and ``_Opt`` options.
Flag text and ``--config`` values pass the same ``_Opt.parse``; a bad value
exits 2 with ``error: --flag: <rule>`` or ``error: config key 'key': <rule>``.
Handlers hand a JSON document and text lines to ``_emit``, which writes the
one ``--format`` names.

Times are reported as the dimensionless product tau = rate * t.  Output is
deterministic: identical flags produce byte-identical files.  Exit codes:
0 success, 2 usage or domain error, 3 numerical failure, 4 verification
failure, 1 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .channels import CHANNEL_KINDS, ChannelSpec, propagate_x
from .entanglement import (
    ALIVE,
    DIES,
    EsdResult,
    concurrence_x,
    critical_fidelity_amplitude,
    critical_fidelity_numeric,
    esd_time_amplitude_phi_werner,
    esd_time_numeric,
    esd_time_phase_werner,
)
from .linalg import NumericalFailureError, inf_norm_diff
from .states import XState, apply_local_unitary, flip_a_unitary, to_dense, werner_phi, werner_psi
from .verify import DEFAULT_SEED, DEFAULT_TRIALS, run_all

_WERNER = {"werner-psi": werner_psi, "werner-phi": werner_phi}

_CSV_FIELDS = ("tau", "fidelity", "concurrence", "a", "b", "c", "d", "abs_z", "abs_w")

_Rule = tuple[Callable[[Any], bool], str]


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _x_params(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 8:
        raise ValueError("expected 8 comma-separated numbers: a,b,c,d,re_z,im_z,re_w,im_w")
    return tuple(_finite_float(p) for p in parts)


def _one_of(*choices: str) -> _Rule:
    return (lambda value: value in choices), f"expected one of {', '.join(choices)}"


_ANY: _Rule = (lambda value: True, "")
_FIDELITY: _Rule = (lambda value: 0.25 <= value <= 1.0, "fidelity must lie in [0.25, 1]")
_POSITIVE: _Rule = (lambda value: value > 0, "must be positive")
_NON_NEGATIVE: _Rule = (lambda value: value >= 0, "must be >= 0")
_GRID_POINTS: _Rule = (lambda value: value >= 2, "needs at least 2 grid points")
_AT_LEAST_ONE: _Rule = (lambda value: value >= 1, "must be >= 1")


@dataclass(frozen=True)
class _Opt:
    """One option: flag, converter, default, help and the rule that a
    converted value must meet, whether it came from a flag or a config key."""

    flag: str
    conv: Callable[[str], Any]
    default: Any
    help: str
    rule: _Rule = _ANY

    @property
    def key(self) -> str:
        return self.flag[2:]

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")

    def parse(self, text: str, source: str) -> Any:
        """Convert text and check the rule; errors are prefixed by source."""
        ok, rule = self.rule
        try:
            value = self.conv(text)
            if not ok(value):
                raise ValueError(rule)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from exc
        return value


_OPT_CHANNEL = _Opt("--channel", str, None, "noise channel: phase, amplitude, or equalizing", _one_of(*CHANNEL_KINDS))
_OPT_FAMILY = _Opt("--family", str, "werner-psi", "initial family: werner-psi, werner-phi, or custom-x", _one_of(*_WERNER, "custom-x"))
_OPT_FIDELITY = _Opt("--fidelity", _finite_float, None, "werner fidelity in [0.25, 1]", _FIDELITY)
_OPT_X_PARAMS = _Opt("--x-params", _x_params, None, "custom X state as a,b,c,d,re_z,im_z,re_w,im_w")
_OPT_RATE_A = _Opt("--rate-a", _finite_float, 1.0, "decay rate of qubit A (default 1)", _NON_NEGATIVE)
_OPT_RATE_B = _Opt("--rate-b", _finite_float, 1.0, "decay rate of qubit B (default 1)", _NON_NEGATIVE)
_OPT_TAU_MAX = _Opt("--tau-max", _finite_float, None, "largest tau = rate*t on the grid (default 5 for phase, 10 otherwise)", _POSITIVE)
_OPT_STEPS = _Opt("--steps", int, 201, "time grid points including both endpoints (default 201)", _GRID_POINTS)
_OPT_HORIZON = _Opt("--horizon", _finite_float, 60.0, "search horizon in tau = rate*t (default 60)", _POSITIVE)
_OPT_TOL = _Opt("--tol", _finite_float, 1e-10, "bisection tolerance (default 1e-10)", _POSITIVE)
_OPT_OUT = _Opt("--out", str, "-", "output path, - for stdout (default -)")
_OPT_GRID_FORMAT = _Opt("--format", str, "csv", "output format: csv or json (default csv)", _one_of("csv", "json"))
_OPT_REPORT_FORMAT = _Opt("--format", str, "text", "output format: text or json (default text)", _one_of("text", "json"))
_OPT_RATE_LABEL = _Opt("--rate", _finite_float, None, "physical rate, used only to annotate reports with real time", _POSITIVE)
_OPT_CONFIG = _Opt("--config", str, None, "flat key=value file mirroring the flag names; flags win")


def _load_config(path: str) -> dict[str, str]:
    table: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{number}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        table[key.strip()] = value.strip()
    return table


def _merge_options(ns: argparse.Namespace) -> dict[str, Any]:
    """Option values by dest: flag over config key over default.  Hidden
    flags outside the option table (verify's --inject-fault) pass through."""
    opts = _COMMANDS[ns.command].opts
    config = _load_config(ns.config) if ns.config is not None else {}
    known = {o.key for o in opts if o.key != "config"}
    for key in config:
        if key not in known:
            raise ValueError(f"unknown config key {key!r} for command {ns.command}")
    values = dict(vars(ns))
    for opt in opts:
        given = getattr(ns, opt.dest)
        if given is not None:
            values[opt.dest] = opt.parse(given, opt.flag)
        elif opt.key in config:
            values[opt.dest] = opt.parse(config[opt.key], f"config key {opt.key!r}")
        else:
            values[opt.dest] = opt.default
    return values


def _emit(values: dict[str, Any], doc: dict[str, Any], lines: Iterable[str]) -> None:
    """Write doc as JSON if --format is json, otherwise the text lines.

    lines may be a generator: it is consumed only when text is written.
    """
    if values["format"] == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if values["out"] in (None, "", "-"):
        sys.stdout.write(text)
    else:
        with open(values["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fmt(value: float | None) -> str:
    if value is None:
        return "nan"
    return format(float(value), ".12g")


def _meta(command: str, values: dict[str, Any], **extra: Any) -> dict[str, Any]:
    doc: dict[str, Any] = {"tool": "xkraus", "version": __version__, "command": command}
    doc.update(extra)
    if "rate" in values:
        doc["rate_label"] = values["rate"]
    return doc


def _require_channel(values: dict[str, Any]) -> ChannelSpec:
    if values["channel"] is None:
        raise ValueError("--channel is required")
    spec = ChannelSpec(values["channel"], values["rate_a"], values["rate_b"])
    if max(spec.rate_a, spec.rate_b) <= 0.0:
        raise ValueError("at least one of --rate-a/--rate-b must be positive")
    return spec


def _initial_state(values: dict[str, Any]) -> tuple[XState, float | None]:
    family = values["family"]
    if family == "custom-x":
        if values["x_params"] is None:
            raise ValueError("family custom-x needs --x-params")
        if values["fidelity"] is not None:
            raise ValueError("--fidelity is only valid with the werner families")
        p = values["x_params"]
        state = XState(p[0], p[1], p[2], p[3], complex(p[4], p[5]), complex(p[6], p[7]))
        return state, None
    if values["fidelity"] is None:
        raise ValueError(f"family {family} needs --fidelity")
    if values["x_params"] is not None:
        raise ValueError("--x-params is only valid with family custom-x")
    return _WERNER[family](values["fidelity"]), values["fidelity"]


def _default_tau_max(values: dict[str, Any]) -> float:
    if values["tau_max"] is not None:
        return values["tau_max"]
    return 5.0 if values["channel"] == "phase" else 10.0


def _csv_lines(records: list[dict[str, Any]]) -> Iterator[str]:
    yield ",".join(_CSV_FIELDS)
    for r in records:
        yield ",".join(_fmt(v) for v in r.values())


def _grid(
    command: str,
    values: dict[str, Any],
    spec: ChannelSpec,
    starts: list[tuple[float | None, XState]],
    tau_end: float,
    **grid: Any,
) -> int:
    """Evolve each (fidelity, state) start along the tau grid and emit one
    record per point, start-major; a record's keys are _CSV_FIELDS in order."""
    rate_ref = max(spec.rate_a, spec.rate_b)
    taus = [float(tau) for tau in np.linspace(0.0, tau_end, values["steps"])]
    records = []
    for fid, start in starts:
        for tau in taus:
            s = propagate_x(start, spec, tau / rate_ref)
            row = (tau, fid, concurrence_x(s), s.a, s.b, s.c, s.d, abs(s.z), abs(s.w))
            records.append(dict(zip(_CSV_FIELDS, row)))
    doc = _meta(
        command, values,
        channel=spec.kind, rate_a=spec.rate_a, rate_b=spec.rate_b, family=values["family"], **grid,
    )
    doc["records"] = records
    _emit(values, doc, _csv_lines(records))
    return 0


def cmd_evolve(values: dict[str, Any]) -> int:
    spec = _require_channel(values)
    state, fid = _initial_state(values)
    tau_max = _default_tau_max(values)
    return _grid(
        "evolve", values, spec, [(fid, state)], tau_max,
        fidelity=fid,
        x_params=list(values["x_params"]) if values["x_params"] else None,
        tau_max=tau_max, steps=values["steps"],
    )


def cmd_sweep(values: dict[str, Any]) -> int:
    spec = _require_channel(values)
    build = _WERNER.get(values["family"])
    if build is None:
        raise ValueError("sweep scans a werner family; custom-x has no fidelity axis")
    f_min, f_max, f_steps = values["fidelity_min"], values["fidelity_max"], values["fidelity_steps"]
    if f_min > f_max:
        raise ValueError(
            f"fidelity range must satisfy 0.25 <= min <= max <= 1, got [{f_min}, {f_max}]"
        )
    fids = [float(f) for f in np.linspace(f_min, f_max, f_steps)]
    tau_max = _default_tau_max(values)
    return _grid(
        "sweep", values, spec, [(f, build(f)) for f in fids], tau_max,
        fidelity_grid={"min": f_min, "max": f_max, "steps": f_steps},
        tau_grid={"min": 0.0, "max": tau_max, "steps": values["steps"]},
    )


def _esd_doc(result: EsdResult | None, rate_ref: float) -> dict[str, Any] | None:
    if result is None:
        return None
    if result.status == DIES:
        return {"status": DIES, "tau": result.time * rate_ref}
    if result.status == ALIVE:
        return {
            "status": ALIVE,
            "horizon_tau": result.horizon * rate_ref,
            "concurrence_at_horizon": result.c_final,
        }
    return {"status": result.status}


def _esd_phrase(doc: dict[str, Any] | None) -> str:
    if doc is None:
        return "not available for this configuration"
    if doc["status"] == DIES:
        return f"dies at tau = {_fmt(doc['tau'])}"
    if doc["status"] == ALIVE:
        return (
            f"alive at horizon tau = {_fmt(doc['horizon_tau'])} "
            f"with concurrence {_fmt(doc['concurrence_at_horizon'])}"
        )
    return "initially separable"


def cmd_esd(values: dict[str, Any]) -> int:
    spec = _require_channel(values)
    state, fid = _initial_state(values)
    horizon = values["horizon"]
    tol = values["tol"]
    rate_ref = max(spec.rate_a, spec.rate_b)
    numeric = esd_time_numeric(state, spec, horizon=horizon, tol=tol)
    analytic = None
    if fid is not None and spec.rate_a == spec.rate_b:
        if spec.kind == "phase" and values["family"] == "werner-psi":
            analytic = esd_time_phase_werner(fid, rate=spec.rate_a, horizon=horizon)
        elif spec.kind == "amplitude" and values["family"] == "werner-phi" and 0.5 < fid < 1.0:
            analytic = esd_time_amplitude_phi_werner(fid, rate=spec.rate_a)
    numeric_doc = _esd_doc(numeric, rate_ref)
    analytic_doc = _esd_doc(analytic, rate_ref)
    difference = None
    if analytic_doc and analytic_doc["status"] == DIES and numeric_doc["status"] == DIES:
        difference = abs(analytic_doc["tau"] - numeric_doc["tau"])
    doc = _meta(
        "esd", values,
        channel=spec.kind, rate_a=spec.rate_a, rate_b=spec.rate_b,
        family=values["family"], fidelity=fid,
        x_params=list(values["x_params"]) if values["x_params"] else None,
        horizon_tau=horizon, tol=tol,
        analytic=analytic_doc, numeric=numeric_doc, difference_tau=difference,
    )
    lines = [
        f"channel: {spec.kind} (rate_a={_fmt(spec.rate_a)}, rate_b={_fmt(spec.rate_b)})",
    ]
    if fid is not None:
        lines.append(f"state: {values['family']} with fidelity {_fmt(fid)}")
    else:
        lines.append("state: custom-x " + ",".join(_fmt(p) for p in values["x_params"]))
    lines.append(f"analytic: {_esd_phrase(analytic_doc)}")
    lines.append(
        f"numeric (horizon tau={_fmt(horizon)}, tol={_fmt(tol)}): {_esd_phrase(numeric_doc)}"
    )
    if difference is not None:
        lines.append(f"|analytic - numeric| tau = {difference:.3e}")
    if values["rate"] is not None and numeric_doc["status"] == DIES:
        t_phys = numeric_doc["tau"] / values["rate"]
        lines.append(f"physical time at rate {_fmt(values['rate'])}: t = {_fmt(t_phys)}")
    _emit(values, doc, lines)
    return 0


def cmd_critical_fidelity(values: dict[str, Any]) -> int:
    horizon = values["horizon"]
    f_tol = values["tol"]
    analytic = critical_fidelity_amplitude()
    numeric = critical_fidelity_numeric(horizon=horizon, f_tol=f_tol)
    gap = abs(analytic - numeric)
    doc = _meta(
        "critical-fidelity", values,
        channel="amplitude", horizon_tau=horizon, f_tol=f_tol,
        analytic=analytic, numeric=numeric, difference=gap,
    )
    lines = [
        "critical werner-psi fidelity under equal-rate amplitude noise",
        f"analytic: {_fmt(analytic)}",
        f"numeric (horizon tau={_fmt(horizon)}, f_tol={_fmt(f_tol)}): {_fmt(numeric)}",
        f"|analytic - numeric| = {gap:.3e}",
    ]
    _emit(values, doc, lines)
    return 0


def cmd_demo_local_ops(values: dict[str, Any]) -> int:
    fid = values["fidelity"]
    if fid is None:
        raise ValueError("--fidelity is required")
    if not 0.5 < fid <= 1.0:
        raise ValueError("the demo needs an entangled fidelity in (1/2, 1]")
    horizon = values["horizon"]
    tol = values["tol"]
    psi = werner_psi(fid)
    phi = werner_phi(fid)
    c0_psi = concurrence_x(psi)
    c0_phi = concurrence_x(phi)
    mismatch = inf_norm_diff(apply_local_unitary(to_dense(psi), flip_a_unitary()), to_dense(phi))
    spec = ChannelSpec("amplitude")
    fate_psi = _esd_doc(esd_time_numeric(psi, spec, horizon=horizon, tol=tol), 1.0)
    fate_phi = _esd_doc(esd_time_numeric(phi, spec, horizon=horizon, tol=tol), 1.0)
    analytic_phi = _esd_doc(
        esd_time_amplitude_phi_werner(fid) if 0.5 < fid < 1.0 else None, 1.0
    )
    doc = _meta(
        "demo-local-ops", values,
        fidelity=fid, initial_concurrence_psi=c0_psi, initial_concurrence_phi=c0_phi,
        transform_residual=mismatch, horizon_tau=horizon, tol=tol,
        amplitude_fate_psi=fate_psi, amplitude_fate_phi=fate_phi,
        amplitude_fate_phi_analytic=analytic_phi,
    )
    lines = [
        f"fidelity: {_fmt(fid)}",
        f"initial concurrence: werner-psi {_fmt(c0_psi)}, werner-phi {_fmt(c0_phi)}",
        "local map i*(X x I) on qubit A takes werner-psi onto werner-phi; "
        f"max entry mismatch = {_fmt(mismatch)}",
        "under equal-rate amplitude noise:",
        f"  werner-psi: {_esd_phrase(fate_psi)}",
        f"  werner-phi: {_esd_phrase(fate_phi)}",
    ]
    if analytic_phi is not None:
        lines.append(f"  werner-phi analytic: {_esd_phrase(analytic_phi)}")
    _emit(values, doc, lines)
    return 0


def cmd_verify(values: dict[str, Any]) -> int:
    results = run_all(
        trials=values["trials"], seed=values["seed"], inject_fault=values["inject_fault"]
    )
    all_passed = all(r.passed for r in results)
    doc = _meta(
        "verify", values,
        trials=values["trials"], seed=values["seed"], all_passed=all_passed,
        checks=[
            {"name": r.name, "residual": r.residual, "tolerance": r.tolerance, "passed": r.passed}
            for r in results
        ],
    )
    lines = [
        f"{r.name:<40} residual {r.residual:.3e}  tol {r.tolerance:.0e}  "
        + ("PASS" if r.passed else "FAIL")
        for r in results
    ]
    lines.append("all checks passed" if all_passed else "verification FAILED")
    _emit(values, doc, lines)
    return 0 if all_passed else 4


@dataclass(frozen=True)
class _Command:
    run: Callable[[dict[str, Any]], int]
    help: str
    opts: tuple[_Opt, ...]


_COMMANDS: dict[str, _Command] = {
    "evolve": _Command(cmd_evolve, "evolve one state under one channel and record the time grid", (
        _OPT_CHANNEL, _OPT_FAMILY, _OPT_FIDELITY, _OPT_X_PARAMS, _OPT_RATE_A, _OPT_RATE_B,
        _OPT_TAU_MAX, _OPT_STEPS, _OPT_OUT, _OPT_GRID_FORMAT, _OPT_RATE_LABEL, _OPT_CONFIG,
    )),
    "sweep": _Command(cmd_sweep, "record a fidelity x time concurrence grid", (
        _OPT_CHANNEL, _OPT_FAMILY,
        _Opt("--fidelity-min", _finite_float, 0.25, "lower end of the fidelity grid (default 0.25)", _FIDELITY),
        _Opt("--fidelity-max", _finite_float, 1.0, "upper end of the fidelity grid (default 1)", _FIDELITY),
        _Opt("--fidelity-steps", int, 101, "fidelity grid points (default 101)", _GRID_POINTS),
        _OPT_RATE_A, _OPT_RATE_B, _OPT_TAU_MAX, _OPT_STEPS, _OPT_OUT, _OPT_GRID_FORMAT,
        _OPT_RATE_LABEL, _OPT_CONFIG,
    )),
    "esd": _Command(cmd_esd, "locate the sudden-death time for one configuration", (
        _OPT_CHANNEL, _OPT_FAMILY, _OPT_FIDELITY, _OPT_X_PARAMS, _OPT_RATE_A, _OPT_RATE_B,
        _OPT_HORIZON, _OPT_TOL, _OPT_OUT, _OPT_REPORT_FORMAT, _OPT_RATE_LABEL, _OPT_CONFIG,
    )),
    "critical-fidelity": _Command(
        cmd_critical_fidelity, "survival boundary of werner-psi under amplitude noise",
        (_OPT_HORIZON, _OPT_TOL, _OPT_OUT, _OPT_REPORT_FORMAT, _OPT_CONFIG),
    ),
    "demo-local-ops": _Command(
        cmd_demo_local_ops, "two states with equal spectra and opposite fates under decay",
        (_OPT_FIDELITY, _OPT_HORIZON, _OPT_TOL, _OPT_OUT, _OPT_REPORT_FORMAT, _OPT_CONFIG),
    ),
    "verify": _Command(cmd_verify, "run the library self-checks", (
        _Opt("--trials", int, DEFAULT_TRIALS, "randomized trials per check (default 200)", _AT_LEAST_ONE),
        _Opt("--seed", int, DEFAULT_SEED, "seed for the randomized checks (default 12345)", _NON_NEGATIVE),
        _OPT_OUT, _OPT_REPORT_FORMAT, _OPT_CONFIG,
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xkraus",
        description="Two-qubit X states under local Markovian noise: evolution, "
        "concurrence, and sudden-death searches.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help, description=command.help)
        for opt in command.opts:
            cmd.add_argument(opt.flag, default=None, help=opt.help)
        if name == "verify":
            cmd.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return _COMMANDS[ns.command].run(_merge_options(ns))
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
