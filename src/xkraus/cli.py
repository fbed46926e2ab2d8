"""Command-line interface.

Subcommands:

    evolve             one state, one channel, records along a time grid
    sweep              fidelity x time concurrence grid for a Werner family
    esd                sudden-death time for one configuration
    critical-fidelity  survival boundary of werner-psi under amplitude noise
    demo-local-ops     same-spectrum pair with opposite fates under decay
    verify             run the library self-checks

``_COMMANDS`` maps each subcommand to its handler, help and ``_Opt`` options;
these tables are the only source of flags and values.  ``main`` reads a
well-formed command line, ``command (--flag value)*`` with every flag spelled
as in that command's table and no value starting with ``-``, straight from
the tables (``_scan``).  Every other command line goes to argparse, whose one
parser per process ``_build_parser`` builds from the same tables, so argparse
writes all help, usage and error text.  Flag text and ``--config`` values
pass the same ``_Opt.parse``; a bad value exits 2 with
``error: --flag: <rule>`` or ``error: config key 'key': <rule>``.
A handler writes nothing: it returns its exit code and an iterable of text
chunks, and ``main`` writes the chunks to stdout or ``--out``.  The report
commands give one chunk, their JSON document or text lines as ``--format``
names; a search result is rendered only by ``_fate``, as both at once.
``evolve`` and ``sweep`` share ``_grid``: it evolves the start
states in blocks of at most ``_BLOCK_ROWS`` rows (whole starts, or pieces
of one start's rows if it has more), one broadcast call of the
``propagate_x`` kernel per block, and returns the CSV, or JSON
byte-identical to ``json.dumps(doc, indent=2)``, as a generator of one
chunk per start in a block.  Each block is evolved once, as it is
rendered, so a grid's memory is bounded by one block, whatever its size.
Only the starts are checked: ``XState``'s rule holds at every tau once it
holds at tau = 0, since no channel adds negative weight.
``_grid_chunks`` renders the tau axis once per block, and a column that
keeps its first tau point's bits at every start once per start; every
other cell is its own.  JSON cells are Python's own ``repr``, a block's
rendered by one orjson call in ``_floattext.texts``; CSV cells are
CPython's ``%.12g``.
A command that fails writes nothing: every check runs before the first
chunk.

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
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import __version__, _floattext
from .channels import CHANNEL_KINDS, ChannelSpec, _evolve_x, _tau_spec, _time_factors
from .entanglement import (
    _DEFAULT_HORIZON,
    _DEFAULT_TOL,
    ALIVE,
    DIES,
    EsdResult,
    _larger,
    _margin,
    concurrence_x,
    critical_fidelity_amplitude,
    critical_fidelity_numeric,
    esd_time_amplitude_phi_werner,
    esd_time_numeric,
    esd_time_phase_werner,
)
from .linalg import NumericalFailureError, inf_norm_diff
from .states import (
    XState,
    apply_local_unitary,
    flip_a_unitary,
    to_dense,
    werner_phi,
    werner_psi,
)
from .verify import DEFAULT_SEED, DEFAULT_TRIALS, run_all

_WERNER = {"werner-psi": werner_psi, "werner-phi": werner_phi}

_CSV_FIELDS = ("tau", "fidelity", "concurrence", "a", "b", "c", "d", "abs_z", "abs_w")

_Rule = tuple[Callable[[Any], bool], str]


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _x_params(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 8:
        raise ValueError("expected 8 comma-separated numbers: a,b,c,d,re_z,im_z,re_w,im_w")
    return [_finite_float(p) for p in parts]


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
    key: str = field(init=False)
    dest: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", self.flag[2:])
        object.__setattr__(self, "dest", self.key.replace("-", "_"))

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
_OPT_HORIZON = _Opt("--horizon", _finite_float, _DEFAULT_HORIZON, f"search horizon in tau = rate*t (default {_DEFAULT_HORIZON:g})", _POSITIVE)
_OPT_TOL = _Opt("--tol", _finite_float, _DEFAULT_TOL, f"width of the search's final bracket, in tau or in F (default {_DEFAULT_TOL:g})", _POSITIVE)
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
    """The command's option values by dest: flag over config key over
    default."""
    command = _COMMANDS[ns.command]
    config = _load_config(ns.config) if ns.config is not None else {}
    for key in config:
        if key not in command.keys:
            raise ValueError(f"unknown config key {key!r} for command {ns.command}")
    values: dict[str, Any] = {}
    for opt in command.opts:
        given = getattr(ns, opt.dest)
        if given is not None:
            values[opt.dest] = opt.parse(given, opt.flag)
        elif opt.key in config:
            values[opt.dest] = opt.parse(config[opt.key], f"config key {opt.key!r}")
        else:
            values[opt.dest] = opt.default
    return values


def _report(values: dict[str, Any], doc: dict[str, Any], lines: list[str]) -> list[str]:
    """A report's text: doc as JSON if --format is json, otherwise the lines."""
    if values["format"] == "json":
        return [json.dumps(doc, indent=2) + "\n"]
    return ["\n".join(lines) + "\n"]


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


# One grid row as CSV and as a json.dumps(indent=2) record, with one %s per
# field for its cell's text.
_CSV_ROW = b",".join([b"%s"] * len(_CSV_FIELDS)) + b"\n"
_JSON_RECORD = b"    {\n" + b",\n".join(b'      "%s": %%s' % key.encode() for key in _CSV_FIELDS) + b"\n    }"

# Most grid rows evolved and rendered at once: a block holds this
# many rows or fewer, whole starts or one piece of a start.  It bounds a
# grid's working set, the text of a block's cells included.
_BLOCK_ROWS = 1024


def _taus(tau_end: float, steps: int, lo: int, hi: int) -> np.ndarray:
    """np.linspace(0.0, tau_end, steps)[lo:hi], computed for that slice
    alone as linspace computes it."""
    div = steps - 1
    step = tau_end / div
    taus = np.arange(lo, hi, dtype=float)
    taus = taus / div * tau_end if step == 0.0 else taus * step
    if hi == steps:
        taus[-1] = tau_end
    return taus


def _grid(
    command: str,
    values: dict[str, Any],
    spec: ChannelSpec,
    starts: list[tuple[float | None, XState]],
    tau_end: float,
    **grid: Any,
) -> tuple[int, Iterable[str]]:
    """Evolve each (fidelity, state) start along the tau grid and return
    one row per point, start-major, with the fields _CSV_FIELDS.

    The starts were checked when built, and XState's rule then holds at
    every tau (no channel adds negative weight), so no evolved row is
    checked again.  The row generator evolves the starts in blocks of at
    most _BLOCK_ROWS rows, whole starts, or pieces of one start's rows if
    it has more, by one broadcast call of the propagate_x kernel per block,
    with per-tau factors from propagate_x's own math.exp, taken in tau
    units from the relative rates of _tau_spec, so every number rounds as
    in the float rule at time tau; np.hypot of a coherence's parts equals
    abs() of the complex.  Each block is evolved once and rendered while
    written, one chunk per start in a block, in the cell rule of --format
    (_grid_chunks), so memory is bounded by the block, not by the grid.
    """
    tau_spec = _tau_spec(spec)
    steps = values["steps"]
    columns = [np.array([[getattr(s, key)] for _, s in starts]) for key in "abcdzw"]
    per_block = max(1, _BLOCK_ROWS // steps)  # starts per block
    span = min(steps, _BLOCK_ROWS)  # tau points per block
    blocks = [(first, lo) for first in range(0, len(starts), per_block) for lo in range(0, steps, span)]

    @lru_cache(maxsize=1)
    def factors(lo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        taus = _taus(tau_end, steps, lo, min(lo + span, steps))
        gamma_a, gamma_b = _time_factors(tau_spec, taus.tolist())
        return taus, np.array(gamma_a), np.array(gamma_b)

    def block(first: int, lo: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """The taus of one block and its concurrence and value columns."""
        taus, gamma_a, gamma_b = factors(lo)
        a, b, c, d, z, w = _evolve_x(spec.kind, gamma_a, gamma_b, *(x[first:first + per_block] for x in columns))
        abs_z, abs_w = (np.hypot(x.real, x.imag) for x in (z, w))
        concurrence = 2.0 * _margin(a, b, c, d, abs_z, abs_w, _larger, np.sqrt)
        return taus, [concurrence, a, b, c, d, abs_z, abs_w]

    def rows(row: bytes, sep: bytes, fid_text: list[bytes]) -> Iterator[str]:
        for first, lo in blocks:
            texts = fid_text[first:first + per_block]
            yield from _grid_chunks(row, values["format"], sep, texts, *block(first, lo), sep if first or lo else b"")

    doc = _meta(
        command, values,
        channel=spec.kind, rate_a=spec.rate_a, rate_b=spec.rate_b, family=values["family"], **grid,
    )
    if values["format"] == "json":
        # the document up to its closing "\n}", then the records array
        head = json.dumps(doc, indent=2)[:-2] + ',\n  "records": [\n'
        fid_text = [b"null" if fid is None else repr(fid).encode() for fid, _ in starts]
        return 0, chain([head], rows(_JSON_RECORD, b",\n", fid_text), ["\n  ]\n}\n"])
    fid_text = [_fmt(fid).encode() for fid, _ in starts]
    return 0, chain([",".join(_CSV_FIELDS) + "\n"], rows(_CSV_ROW, b"", fid_text))


def _grid_chunks(
    row: bytes, fmt: str, sep: bytes, fid_text: list[bytes], taus: np.ndarray, cols: list[np.ndarray],
    lead: bytes = b"",
) -> Iterator[str]:
    """One chunk per start: its rows rendered by row, one %s per field,
    with sep between consecutive rows, also across chunks, and lead before
    the first row (sep if an earlier block's rows came before).  taus is
    the block's tau axis, the first field, and cols holds the value columns
    as (start, tau) arrays; the fidelity, the second field, comes as each
    start's text.

    The tau axis is rendered once per block, and a column whose exact bits
    equal its first tau point's at every start (so -0.0 and 0.0 differ)
    once per start; every other cell is its own.  fmt picks the cell rule:
    for "json", repr(x), the block's cells rendered by one orjson call in
    _floattext.texts; for "csv", %.12g, formatted inside the row where a
    column varies along tau.
    """
    points = len(taus)
    pieces = [col[:, :1] if (col.view(np.int64) == col[:, :1].view(np.int64)).all() else col for col in cols]
    cells = np.concatenate([taus, *(p.ravel() for p in pieces)])
    if fmt == "json":
        texts, cell = _floattext.texts(cells), b"%s"
    else:
        texts, cell = cells.tolist(), b"%.12g"
        texts[:points] = [cell % v for v in texts[:points]]
    tau_text = texts[:points]
    for i in range(len(fid_text)):
        fields, lists, at = [b"%s", fid_text[i]], [tau_text], points
        for piece in pieces:
            width = piece.shape[1]
            here = at + i * width
            if width == 1:
                fields.append(cell % texts[here])
            else:
                fields.append(cell)
                lists.append(texts[here:here + width])
            at += piece.size
        start_row = row % tuple(fields)
        yield ((sep if i else lead) + sep.join(map(start_row.__mod__, zip(*lists)))).decode()


def cmd_evolve(values: dict[str, Any]) -> tuple[int, Iterable[str]]:
    spec = _require_channel(values)
    state, fid = _initial_state(values)
    tau_max = _default_tau_max(values)
    return _grid(
        "evolve", values, spec, [(fid, state)], tau_max,
        fidelity=fid,
        x_params=values["x_params"],
        tau_max=tau_max, steps=values["steps"],
    )


def cmd_sweep(values: dict[str, Any]) -> tuple[int, Iterable[str]]:
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


def _analytic_fate(
    family: str, fidelity: float | None, spec: ChannelSpec, horizon: float
) -> EsdResult | None:
    """The paper's closed-form fate where one applies: a Werner start at
    equal rates, werner-psi under phase noise or werner-phi under amplitude
    noise with 1/2 < F < 1; None elsewhere."""
    if fidelity is None or spec.rate_a != spec.rate_b:
        return None
    if spec.kind == "phase" and family == "werner-psi":
        return esd_time_phase_werner(fidelity, horizon=horizon)
    if spec.kind == "amplitude" and family == "werner-phi" and 0.5 < fidelity < 1.0:
        return esd_time_amplitude_phi_werner(fidelity)
    return None


def _fate(result: EsdResult | None) -> tuple[dict[str, Any] | None, str]:
    """A search result's JSON object and its phrase, the one place either
    is built; None, where no closed form applies, has no object."""
    if result is None:
        return None, "not available for this configuration"
    if result.status == DIES:
        return {"status": DIES, "tau": result.time}, f"dies at tau = {_fmt(result.time)}"
    if result.status == ALIVE:
        return {
            "status": ALIVE,
            "horizon_tau": result.horizon,
            "concurrence_at_horizon": result.c_final,
        }, f"alive at horizon tau = {_fmt(result.horizon)} with concurrence {_fmt(result.c_final)}"
    return {"status": result.status}, "initially separable"


def cmd_esd(values: dict[str, Any]) -> tuple[int, list[str]]:
    spec = _require_channel(values)
    state, fid = _initial_state(values)
    horizon = values["horizon"]
    tol = values["tol"]
    numeric = esd_time_numeric(state, spec, horizon=horizon, tol=tol)
    analytic = _analytic_fate(values["family"], fid, spec, horizon)
    numeric_doc, numeric_text = _fate(numeric)
    analytic_doc, analytic_text = _fate(analytic)
    difference = None
    if analytic is not None and analytic.status == DIES and numeric.status == DIES:
        difference = abs(analytic.time - numeric.time)
    doc = _meta(
        "esd", values,
        channel=spec.kind, rate_a=spec.rate_a, rate_b=spec.rate_b,
        family=values["family"], fidelity=fid,
        x_params=values["x_params"],
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
    lines.append(f"analytic: {analytic_text}")
    lines.append(f"numeric (horizon tau={_fmt(horizon)}, tol={_fmt(tol)}): {numeric_text}")
    if difference is not None:
        lines.append(f"|analytic - numeric| tau = {difference:.3e}")
    if values["rate"] is not None and numeric.status == DIES:
        t_phys = numeric.time / values["rate"]
        if math.isinf(t_phys):
            raise ValueError(f"--rate: t = tau / rate exceeds the float range at rate {_fmt(values['rate'])}")
        lines.append(f"physical time at rate {_fmt(values['rate'])}: t = {_fmt(t_phys)}")
    return 0, _report(values, doc, lines)


def cmd_critical_fidelity(values: dict[str, Any]) -> tuple[int, list[str]]:
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
    return 0, _report(values, doc, lines)


def cmd_demo_local_ops(values: dict[str, Any]) -> tuple[int, list[str]]:
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
    mismatch = inf_norm_diff(apply_local_unitary(to_dense(psi), *flip_a_unitary()), to_dense(phi))
    spec = ChannelSpec("amplitude")
    fate_psi, text_psi = _fate(esd_time_numeric(psi, spec, horizon=horizon, tol=tol))
    fate_phi, text_phi = _fate(esd_time_numeric(phi, spec, horizon=horizon, tol=tol))
    analytic_phi, text_analytic = _fate(_analytic_fate("werner-phi", fid, spec, horizon))
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
        f"  werner-psi: {text_psi}",
        f"  werner-phi: {text_phi}",
    ]
    if analytic_phi is not None:
        lines.append(f"  werner-phi analytic: {text_analytic}")
    return 0, _report(values, doc, lines)


def cmd_verify(values: dict[str, Any]) -> tuple[int, list[str]]:
    results = run_all(trials=values["trials"], seed=values["seed"])
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
    return (0 if all_passed else 4), _report(values, doc, lines)


@dataclass(frozen=True)
class _Command:
    """A subcommand: handler, help and options, with each option's dest by
    its flag (the flags ``_scan`` reads) and the config keys it accepts."""

    run: Callable[[dict[str, Any]], tuple[int, Iterable[str]]]
    help: str
    opts: tuple[_Opt, ...]
    flags: dict[str, str] = field(init=False, compare=False)
    keys: frozenset[str] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", {opt.flag: opt.dest for opt in self.opts})
        object.__setattr__(self, "keys", frozenset(opt.key for opt in self.opts if opt.key != "config"))


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
        _Opt("--trials", int, DEFAULT_TRIALS, f"randomized trials per check (default {DEFAULT_TRIALS:g})", _AT_LEAST_ONE),
        _Opt("--seed", int, DEFAULT_SEED, f"seed for the randomized checks (default {DEFAULT_SEED:g})", _NON_NEGATIVE),
        _OPT_OUT, _OPT_REPORT_FORMAT, _OPT_CONFIG,
    )),
}


@cache
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
    return parser


def _scan(argv: list[str] | None) -> argparse.Namespace | None:
    """The namespace argparse would build for ``command (--flag value)*``
    with each flag exactly one of the command's and no value starting with
    ``-``; None for any other argv (argv None reads sys.argv[1:]), which
    argparse then parses, so it alone writes help, usage and errors."""
    if argv is None:
        argv = sys.argv[1:]
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    given = dict.fromkeys(command.flags.values())
    for flag, value in zip(argv[1::2], argv[2::2]):
        dest = command.flags.get(flag)
        if dest is None or value.startswith("-"):
            return None
        given[dest] = value
    return argparse.Namespace(command=argv[0], **given)


def main(argv: list[str] | None = None) -> int:
    ns = _scan(argv)
    if ns is None:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code is None else int(exc.code)
    try:
        values = _merge_options(ns)
        code, chunks = _COMMANDS[ns.command].run(values)
        # chunks may be generated while written, so every check that can
        # fail a command has run before: a failed command writes nothing
        if values["out"] in (None, "", "-"):
            sys.stdout.writelines(chunks)
        else:
            with open(values["out"], "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        return code
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
