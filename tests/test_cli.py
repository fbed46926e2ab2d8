from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import xkraus
from xkraus import (
    ChannelSpec, XState, __version__, concurrence_x, kraus_set, propagate_x, werner_phi, werner_psi,
)
from xkraus import cli
from xkraus.channels import CHANNEL_KINDS, _tau_spec
from xkraus.cli import main
from xkraus.entanglement import EsdResult, _Expansion, _first_positive
from xkraus.states import _negative_weight

LN_5_5 = 1.7047480922384253


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "xkraus" in out


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_shared_parser_leaks_no_state(tmp_path, monkeypatch, capsys):
    # one process, one parser: each call prints exactly what the same argv
    # gives on a parser built for it alone
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fidelity=2\n")
    esd = ["esd", "--channel", "amplitude", "--fidelity", "0.7", "--rate-b", "0.4"]
    sequence = [
        (esd, False),
        (["esd", "--bogus"], False),
        (["--version"], False),
        (["esd", "--help"], True),
        (["esd", "--channel", "phase", "--config", str(cfg)], False),
        (esd, False),
    ]

    def each_call(fresh: bool) -> list[tuple[int, str, str]]:
        results = []
        for argv, narrow in sequence:
            if fresh:
                cli._build_parser.cache_clear()
            with monkeypatch.context() as env:
                if narrow:
                    env.setenv("COLUMNS", "80")
                results.append(run(capsys, *argv))
        return results

    cli._build_parser.cache_clear()
    shared = each_call(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2, 0]
    assert shared[0] == shared[5]
    assert "usage: xkraus esd" in shared[3][1]
    assert shared == each_call(fresh=True)


def test_importing_the_cli_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xkraus.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import xkraus.cli; print(xkraus.cli._build_parser.cache_info().misses)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_benchmark_command_lines_never_build_the_parser(tmp_path):
    # a fresh process runs one seed of both workloads' command lists, all
    # well formed, so argparse is never built; one usage error builds it once
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xkraus.__file__)))
    code = (
        "import os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from workloads import WORKLOADS, commands\n"
        "from xkraus import cli\n"
        "argvs = [cmd.argv for w in WORKLOADS for cmd in commands(w, 1)]\n"
        "codes = {cli.main(argv + ['--out', os.path.join(sys.argv[2], f'{i}.out')]) for i, argv in enumerate(argvs)}\n"
        "print(len(argvs), codes, cli._build_parser.cache_info().misses)\n"
        "print(cli.main(['esd', '--bogus']), cli._build_parser.cache_info().misses)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(root / "bench"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "108 {0} 0\n2 1\n"
    assert "unrecognized arguments: --bogus" in done.stderr


def test_evolve_csv_shape_and_values(capsys):
    code, out, _ = run(
        capsys, "evolve", "--channel", "phase", "--fidelity", "0.8",
        "--tau-max", "2.772589", "--steps", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau,fidelity,concurrence,a,b,c,d,abs_z,abs_w"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[2]) - 0.6) < 1e-12
    last = lines[3].split(",")
    expected_z = (11.0 / 30.0) * math.exp(-2.772589)
    assert abs(float(last[7]) - expected_z) < 1e-12
    # populations untouched by dephasing
    assert abs(float(last[3]) - 1.0 / 15.0) < 1e-12


def test_evolve_output_is_byte_deterministic(tmp_path, capsys):
    args = ["evolve", "--channel", "amplitude", "--fidelity", "0.7", "--steps", "41"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_evolve_json_custom_x_has_null_fidelity(capsys):
    code, out, _ = run(
        capsys, "evolve", "--channel", "equalizing", "--family", "custom-x",
        "--x-params", "0.5,0,0,0.5,0,0,0.5,0", "--steps", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "xkraus"
    assert doc["command"] == "evolve"
    assert doc["channel"] == "equalizing"
    assert doc["fidelity"] is None
    assert len(doc["records"]) == 5
    assert doc["records"][0]["fidelity"] is None
    assert abs(doc["records"][0]["concurrence"] - 1.0) < 1e-12


def test_evolve_usage_errors(capsys):
    # no channel
    assert run(capsys, "evolve", "--fidelity", "0.8")[0] == 2
    # werner without fidelity
    assert run(capsys, "evolve", "--channel", "phase")[0] == 2
    # fidelity together with custom-x
    assert run(
        capsys, "evolve", "--channel", "phase", "--family", "custom-x",
        "--x-params", "0.25,0.25,0.25,0.25,0,0,0,0", "--fidelity", "0.8",
    )[0] == 2
    # x-params together with a werner family
    assert run(
        capsys, "evolve", "--channel", "phase", "--fidelity", "0.8",
        "--x-params", "0.25,0.25,0.25,0.25,0,0,0,0",
    )[0] == 2
    # malformed x-params (wrong arity)
    assert run(
        capsys, "evolve", "--channel", "phase", "--family", "custom-x",
        "--x-params", "0.5,0.5",
    )[0] == 2
    # fidelity out of range, rejected by the option rule
    assert run(capsys, "evolve", "--channel", "phase", "--fidelity", "1.2")[0] == 2
    # too few grid points
    assert run(
        capsys, "evolve", "--channel", "phase", "--fidelity", "0.8", "--steps", "1",
    )[0] == 2
    # non-physical custom state
    assert run(
        capsys, "evolve", "--channel", "phase", "--family", "custom-x",
        "--x-params", "0.25,0.25,0.25,0.25,0.9,0,0,0",
    )[0] == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample\nchannel=phase\nfidelity=0.8\nsteps=3\n")
    code, out, _ = run(capsys, "evolve", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_config_flags_take_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("channel=phase\nfidelity=0.6\n")
    code, out, _ = run(
        capsys, "esd", "--config", str(cfg), "--fidelity", "0.8", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] == 0.8
    assert abs(doc["numeric"]["tau"] - LN_5_5) < 1e-8


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("channel=phase\nfidelty=0.8\n")
    code, _, err = run(capsys, "esd", "--config", str(cfg))
    assert code == 2
    assert "fidelty" in err


def test_config_rejects_bad_value_and_missing_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("channel=phase\nfidelity=high\n")
    assert run(capsys, "esd", "--config", str(cfg))[0] == 2
    assert run(capsys, "esd", "--config", str(tmp_path / "absent.cfg"))[0] == 2
    cfg.write_text("channel phase\n")
    assert run(capsys, "esd", "--config", str(cfg))[0] == 2


@pytest.mark.parametrize(
    "argv, key, bad, rule",
    [
        (["esd", "--fidelity", "0.8"], "channel", "foo", "expected one of phase, amplitude, equalizing"),
        (["esd", "--channel", "phase"], "fidelity", "1.2", "fidelity must lie in [0.25, 1]"),
        (["evolve", "--channel", "phase", "--fidelity", "0.8"], "steps", "1", "needs at least 2 grid points"),
        (["verify"], "trials", "0", "must be >= 1"),
        (
            ["esd", "--channel", "phase", "--family", "custom-x"], "x-params", "0.5,0.5",
            "expected 8 comma-separated numbers",
        ),
        (["verify", "--trials", "2"], "seed", "-1", "must be >= 0"),
    ],
)
def test_flags_and_config_share_one_rule(tmp_path, capsys, argv, key, bad, rule):
    code, _, err = run(capsys, *argv, f"--{key}", bad)
    assert code == 2
    assert f"error: --{key}: {rule}" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={bad}\n")
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert f"error: config key {key!r}: {rule}" in err


def test_sweep_grid_layout(capsys):
    code, out, _ = run(
        capsys, "sweep", "--channel", "phase", "--fidelity-min", "0.5",
        "--fidelity-max", "1.0", "--fidelity-steps", "3", "--steps", "4",
        "--tau-max", "6.0",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 3 * 4
    rows = [line.split(",") for line in lines[1:]]
    # fidelity-major ordering, time within each block
    assert [r[1] for r in rows[:4]] == ["0.5"] * 4
    assert [r[1] for r in rows[4:8]] == ["0.75"] * 4
    assert [r[1] for r in rows[8:]] == ["1"] * 4
    assert float(rows[3][0]) == 6.0
    # every dephased werner with fidelity below one is dead by tau = 6
    assert float(rows[3][2]) == 0.0
    assert float(rows[7][2]) == 0.0
    assert float(rows[11][2]) > 0.0


# Grid commands for the golden test: (command, channel, family, rate_a, rate_b,
# grid options, --rate label).  Between them they cover every channel and
# family, F = 1/4 and F = 1, complex custom coherences, unequal and one-zero
# rate pairs and the tau = 0 row that every grid starts with.
_GOLDEN = [
    ("evolve", "phase", "werner-psi", 1.0, 1.0, {"fidelity": 0.25, "tau_max": 3.0, "steps": 5}, None),
    ("evolve", "amplitude", "werner-phi", 1.0, 1.0, {"fidelity": 1.0, "tau_max": 12.5, "steps": 21}, None),
    ("evolve", "equalizing", "werner-psi", 0.4, 1.7, {"fidelity": 0.9, "tau_max": 6.0, "steps": 11}, 2.5),
    ("evolve", "amplitude", "custom-x", 0.0, 1.3,
     {"x_params": (0.3, 0.2, 0.2, 0.3, -0.1, 0.15, 0.12, -0.2), "tau_max": 4.0, "steps": 33}, None),
    ("evolve", "equalizing", "custom-x", 0.7, 1.9,
     {"x_params": (0.4, 0.1, 0.2, 0.3, 0.03, -0.13, -0.21, 0.25), "tau_max": 5.0, "steps": 33}, None),
    ("evolve", "phase", "custom-x", 2.0, 0.5,
     {"x_params": (0.25, 0.25, 0.25, 0.25, 0.1, 0.2, -0.15, 0.05), "tau_max": 3.0, "steps": 17}, 0.5),
    ("sweep", "phase", "werner-phi", 1.0, 0.3,
     {"fidelity_min": 0.25, "fidelity_max": 1.0, "fidelity_steps": 4, "tau_max": 5.0, "steps": 6}, None),
    ("sweep", "amplitude", "werner-psi", 2.0, 0.0,
     {"fidelity_min": 0.25, "fidelity_max": 1.0, "fidelity_steps": 7, "tau_max": 10.0, "steps": 9}, None),
    ("sweep", "equalizing", "werner-phi", 1.5, 1.5,
     {"fidelity_min": 0.5, "fidelity_max": 0.95, "fidelity_steps": 5, "tau_max": 2.0, "steps": 7}, 4.0),
    ("sweep", "amplitude", "werner-phi", 1.0, 1.0,
     {"fidelity_min": 0.6, "fidelity_max": 1.0, "fidelity_steps": 3, "tau_max": 8.0, "steps": 5}, None),
    # grids whose columns repeat values: every start equal, so each column
    # is constant across starts (and a, d and b, c pairwise bit-for-bit
    # equal under equalizing noise); populations constant along tau under
    # phase noise, the one case rendered once per start; abs_w zero
    # throughout for werner-psi; and unequal rates, where no two value
    # columns are equal
    ("sweep", "equalizing", "werner-psi", 1.3, 1.3,
     {"fidelity_min": 0.8, "fidelity_max": 0.8, "fidelity_steps": 4, "tau_max": 6.0, "steps": 7}, None),
    ("sweep", "phase", "werner-psi", 1.0, 1.0,
     {"fidelity_min": 0.25, "fidelity_max": 1.0, "fidelity_steps": 6, "tau_max": 4.0, "steps": 9}, None),
    ("sweep", "amplitude", "werner-psi", 1.7, 1.7,
     {"fidelity_min": 0.3, "fidelity_max": 1.0, "fidelity_steps": 5, "tau_max": 9.0, "steps": 8}, 3.0),
    ("sweep", "amplitude", "werner-phi", 0.6, 1.4,
     {"fidelity_min": 0.4, "fidelity_max": 0.95, "fidelity_steps": 5, "tau_max": 7.0, "steps": 8}, None),
    # z with a negative-zero imaginary part, whose |z| is the hypot of its parts
    ("evolve", "amplitude", "custom-x", 1.0, 0.8,
     {"x_params": (0.3, 0.2, 0.2, 0.3, -0.1, -0.0, 0.12, -0.2), "tau_max": 6.0, "steps": 13}, None),
    # extreme cells: populations that pass through subnormals to 0, taus
    # up to 1e17 in exponent notation, and short decimals and powers of two
    ("evolve", "amplitude", "werner-psi", 1.0, 1.0, {"fidelity": 0.8, "tau_max": 400.0, "steps": 401}, None),
    ("evolve", "equalizing", "werner-phi", 1.0, 1.0, {"fidelity": 0.9, "tau_max": 1e17, "steps": 11}, None),
    ("evolve", "phase", "custom-x", 1.0, 1.0,
     {"x_params": (0.25, 0.25, 0.25, 0.25, 0.125, 0.0, 0.0625, 0.0), "tau_max": 4.0, "steps": 9}, None),
]


def _reference_grid(command, channel, family, rate_a, rate_b, grid, rate, fmt):
    """The grid text rebuilt row by row from propagate_x and concurrence_x,
    one record dict per row, written by json.dumps or format(x, '.12g')."""
    tau_max, steps = grid["tau_max"], grid["steps"]
    if family == "custom-x":
        p = grid["x_params"]
        starts = [(None, XState(p[0], p[1], p[2], p[3], complex(p[4], p[5]), complex(p[6], p[7])))]
        meta = {"fidelity": None, "x_params": list(p), "tau_max": tau_max, "steps": steps}
    else:
        build = {"werner-psi": werner_psi, "werner-phi": werner_phi}[family]
        if command == "evolve":
            fids = [grid["fidelity"]]
            meta = {"fidelity": grid["fidelity"], "x_params": None, "tau_max": tau_max, "steps": steps}
        else:
            f_min, f_max, f_steps = grid["fidelity_min"], grid["fidelity_max"], grid["fidelity_steps"]
            fids = [float(f) for f in np.linspace(f_min, f_max, f_steps)]
            meta = {
                "fidelity_grid": {"min": f_min, "max": f_max, "steps": f_steps},
                "tau_grid": {"min": 0.0, "max": tau_max, "steps": steps},
            }
        starts = [(f, build(f)) for f in fids]
    # the grid's time is tau = rate_ref * t, so propagate_x runs at the relative rates
    rate_ref = max(rate_a, rate_b)
    tau_spec = ChannelSpec(channel, rate_a / rate_ref, rate_b / rate_ref)
    records = []
    for fid, start in starts:
        for tau in (float(t) for t in np.linspace(0.0, tau_max, steps)):
            s = propagate_x(start, tau_spec, tau)
            records.append({
                "tau": tau, "fidelity": fid, "concurrence": concurrence_x(s),
                "a": s.a, "b": s.b, "c": s.c, "d": s.d, "abs_z": abs(s.z), "abs_w": abs(s.w),
            })
    if fmt == "json":
        doc = {
            "tool": "xkraus", "version": __version__, "command": command, "channel": channel,
            "rate_a": rate_a, "rate_b": rate_b, "family": family, **meta, "rate_label": rate,
            "records": records,
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [",".join(records[0])]
    lines += [",".join("nan" if v is None else format(v, ".12g") for v in r.values()) for r in records]
    return "\n".join(lines) + "\n"


# _BLOCK_ROWS for a grid of n starts of `steps` rows each, beside the
# default, which makes one block of every grid above: one start per block,
# blocks of n - 1 starts and a partial last one, exactly one block, and
# fewer rows than one start has
_BLOCKS = {
    "one-start": lambda n, steps: steps,
    "partial": lambda n, steps: max(1, n - 1) * steps,
    "exact": lambda n, steps: n * steps,
    "short": lambda n, steps: steps - 1,
}
_GRID_CASES = [
    pytest.param(case, blocks, id=f"{case[0]}-{case[1]}-{case[2]}-{i}" + (f"-{blocks}" if blocks else ""))
    for blocks in (None, *_BLOCKS)
    for i, case in enumerate(_GOLDEN)
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case, blocks", _GRID_CASES)
def test_grid_output_matches_scalar_reference(tmp_path, capsys, monkeypatch, case, blocks, fmt):
    command, channel, family, rate_a, rate_b, grid, rate = case
    if blocks is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", _BLOCKS[blocks](grid.get("fidelity_steps", 1), grid["steps"]))
    argv = [command, "--channel", channel, "--family", family]
    argv += ["--rate-a", repr(rate_a), "--rate-b", repr(rate_b)]
    for key, value in grid.items():
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        argv += ["--" + key.replace("_", "-"), text]
    if rate is not None:
        argv += ["--rate", repr(rate)]
    argv += ["--format", fmt]
    expected = _reference_grid(command, channel, family, rate_a, rate_b, grid, rate, fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected
    path = tmp_path / "grid.out"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("fmt, zero, minus", [("csv", "0", "-0"), ("json", "0.0", "-0.0")], ids=["csv", "json"])
def test_grid_chunks_keep_zero_and_negative_zero_apart(fmt, zero, minus):
    # a column constant along tau but for the sign of a zero is rendered
    # cell by cell, and a copy of a column renders equal text; fields: tau,
    # fidelity, then cols
    tau = np.array([0.0, 0.5])
    zeros, mixed = np.zeros((2, 2)), np.array([[0.0, -0.0], [-0.0, 0.0]])
    cols = [zeros, -zeros, mixed, -mixed, mixed.copy()]
    text = "".join(cli._grid_chunks(b"%s,%s,%s,%s,%s,%s,%s\n", fmt, b"", [b"f1", b"f2"], tau, cols))
    assert text == (
        f"{zero},f1,{zero},{minus},{zero},{minus},{zero}\n0.5,f1,{zero},{minus},{minus},{zero},{minus}\n"
        f"{zero},f2,{zero},{minus},{minus},{zero},{minus}\n0.5,f2,{zero},{minus},{zero},{minus},{zero}\n"
    )


def test_failed_grid_leaves_no_out_file(tmp_path, capsys):
    path = tmp_path / "grid.out"
    bad_state = ["--family", "custom-x", "--x-params", "0.25,0.25,0.25,0.25,0.9,0,0,0"]
    code, out, err = run(capsys, "evolve", "--channel", "amplitude", *bad_state, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_whose_second_block_fails_its_check_writes_nothing(tmp_path, capsys, monkeypatch, fmt):
    # the start whose population a fell below -1e-12 in its grid's second
    # block of 1,024 rows: its negative weight is 1.5e-12, so it fails
    # before anything is evolved, whatever the tau range, and esd too
    evolved = []
    monkeypatch.setattr(cli, "_evolve_x", lambda *args: evolved.append(args))
    start = ["--channel", "amplitude", "--family", "custom-x",
             "--x-params=-1e-12,-5e-13,0.5,0.5000000000015,0,0,0,0", "--rate-a", "0", "--rate-b", "1"]
    path = tmp_path / "grid.out"
    for argv in (["evolve", *start, "--tau-max", "0.5", "--steps", "11", "--format", fmt],
                 ["evolve", *start, "--tau-max", "2.5", "--steps", "4097", "--format", fmt],
                 ["esd", *start, "--format", "json" if fmt == "json" else "text"]):
        for out_flags in ([], ["--out", str(path)]):
            code, out, err = run(capsys, *argv, *out_flags)
            assert (code, out, evolved) == (2, "", [])
            assert err == "error: not positive semidefinite: its negative eigenvalues sum to -1.5e-12\n"
            assert not path.exists()


@pytest.mark.parametrize("tau_end, steps", [(10.0, 201), (7.3, 4097), (1e17, 11), (5e-324, 3), (1e-310, 40001)])
def test_tau_pieces_equal_linspace_slices(tau_end, steps):
    # a piece of the tau axis is that slice of np.linspace, bit for bit,
    # also where the step underflows to 0 (5e-324 / 2)
    full = np.linspace(0.0, tau_end, steps)
    for lo, hi in [(0, steps), (0, 1), (steps // 2, steps), (steps - 1, steps), (1, steps - 1)]:
        assert cli._taus(tau_end, steps, lo, hi).tobytes() == full[lo:hi].tobytes()


def _traced_peak(argv: list[str], path: Path) -> int:
    """The tracemalloc peak of one in-process command writing to path."""
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_memory_does_not_grow_with_the_grid(tmp_path):
    # starts are evolved and rendered a block at a time, so twice
    # the starts take no more memory at the peak (one block is 5 starts)
    path = tmp_path / "grid.out"

    def peak(starts: int) -> int:
        return _traced_peak(["sweep", "--channel", "amplitude", "--fidelity-steps", str(starts), "--format", "csv"], path)

    peak(41)  # warm-up: first-call imports and caches
    assert peak(81) - peak(41) <= 0.25e6


def test_one_long_start_is_rendered_in_pieces(tmp_path):
    # a start with more rows than a block is evolved and rendered in
    # pieces of at most _BLOCK_ROWS rows, so its memory does not grow with --steps
    path = tmp_path / "grid.out"

    def peak(steps: int) -> int:
        argv = ["evolve", "--channel", "amplitude", "--fidelity", "0.8", "--steps", str(steps), "--format", "json"]
        return _traced_peak(argv, path)

    peak(8001)  # warm-up: first-call imports and caches
    assert peak(40001) - peak(8001) <= 0.25e6


def test_default_sweep_evolves_each_block_once(capsys, monkeypatch):
    # 101 starts of 201 rows in blocks of 5 starts: 21 blocks, 21 kernel calls
    calls, evolve = [], cli._evolve_x
    monkeypatch.setattr(cli, "_evolve_x", lambda *args: calls.append(len(args[3])) or evolve(*args))
    code, _, err = run(capsys, "sweep", "--channel", "amplitude")
    assert (code, err) == (0, "")
    assert calls == [5] * 20 + [1]


_RATE_PAIRS = [(1.0, 1.0), (0.3, 1.0), (1.0, 0.0), (0.0, 1.0)]


def _weight(state: XState) -> float:
    """The negative eigenvalues of a state summed in magnitude, as XState's rule sums them."""
    return _negative_weight(state.b, state.c, abs(state.z)) + _negative_weight(state.a, state.d, abs(state.w))


def _block(rng: np.random.Generator, big: float, small: float) -> tuple[float, float, complex]:
    """p, q and x of a block [[p, x], [x*, q]] with eigenvalues big and
    small, rotated by a random angle, by 0 or pi/2 (x = 0, and a population
    0 where an eigenvalue is), or by one whose cosine is 1e-150."""
    cos, sin = [(None, None), (1.0, 0.0), (0.0, 1.0), (1e-150, 1.0)][rng.integers(4)]
    if cos is None:
        angle = rng.uniform(0.0, math.pi / 2)
        cos, sin = math.cos(angle), math.sin(angle)
    phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    p, q = big * cos * cos + small * sin * sin, big * sin * sin + small * cos * cos
    return float(p), float(q), complex((big - small) * cos * sin * phase)


def _edge_params(rng: np.random.Generator, weight: float) -> tuple:
    """X parameters with negative eigenvalues summing to -weight, split at
    random between the blocks, and a trace of 1 or 1 +- 0.9e-12; at weight
    0 a block is pure or zero."""
    trace = 1.0 + rng.choice([0.0, 0.9e-12, -0.9e-12])
    inner = (trace + weight) * rng.choice([0.0, rng.uniform(), 1.0])
    share = rng.uniform()
    b, c, z = _block(rng, inner, -weight * share)
    a, d, w = _block(rng, trace + weight - inner, -weight * (1.0 - share))
    return a, b, c, d, z, w


def _edge_starts(count: int) -> list[XState]:
    """Valid starts on the edge of XState's rule, negative weight in [0, 0.999e-12]."""
    rng = np.random.default_rng(41)
    return [XState(*_edge_params(rng, rng.choice([0.0, rng.uniform(0.0, 0.999e-12), 0.999e-12])))
            for _ in range(count)]


def _x_params_flag(a: float, b: float, c: float, d: float, z: complex, w: complex) -> str:
    return "--x-params=" + ",".join(map(repr, (a, b, c, d, z.real, z.imag, w.real, w.imag)))


def test_channels_never_add_negative_weight_to_a_start():
    # XState's rule holds at every tau: no kind and rate pair lets a start
    # on its edge gain negative weight beyond rounding, so propagate_x, which
    # checks the state it returns, never raises
    for start in _edge_starts(1000):
        weight = _weight(start)
        for kind in CHANNEL_KINDS:
            for rates in _RATE_PAIRS:
                spec = ChannelSpec(kind, *rates)
                for tau in (0.0, 1e-300, 0.5, 7.0, 120.0, 1e300):
                    assert _weight(propagate_x(start, spec, tau)) <= weight + 1e-15, (start, spec, tau)


def test_grid_of_a_start_on_the_edge_runs_at_every_tau_range(tmp_path, capsys):
    # a valid start gives its whole grid, at short and at very long times;
    # one with 1.1e-12 of negative weight fails before any output
    rng = np.random.default_rng(43)
    path = tmp_path / "grid.out"
    for i, start in enumerate(_edge_starts(300)):
        kind, (rate_a, rate_b) = CHANNEL_KINDS[i % 3], _RATE_PAIRS[i % 4]
        argv = ["evolve", "--channel", kind, "--family", "custom-x", "--rate-a", repr(rate_a), "--rate-b", repr(rate_b),
                "--steps", "5"]
        bad = _edge_params(rng, 1.1e-12)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            XState(*bad)
        for tau_max in ("0.5", "1e17"):
            code, out, err = run(capsys, *argv, "--tau-max", tau_max,
                                 _x_params_flag(start.a, start.b, start.c, start.d, start.z, start.w))
            assert (code, err, len(out.splitlines())) == (0, "", 6)
            for out_flags in ([], ["--out", str(path)]):
                code, out, err = run(capsys, *argv, "--tau-max", tau_max, _x_params_flag(*bad), *out_flags)
                assert (code, out) == (2, "")
                assert err.startswith("error: not positive semidefinite: its negative eigenvalues sum to ")
                assert float(err.rsplit(" ", 1)[1]) == pytest.approx(-1.1e-12, abs=1e-15)
                assert not path.exists()


def test_out_file_carries_the_bytes_of_stdout(tmp_path, capsys, monkeypatch):
    # the benchmark writes only through --out, and tools/golden.py hashes
    # only stdout: both must be the same bytes for every benchmark command
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import WORKLOADS, commands

    path = tmp_path / "command.out"
    for argv in [cmd.argv for w in WORKLOADS for cmd in commands(w, 1)]:
        code, out, err = run(capsys, *argv)
        assert (main(argv + ["--out", str(path)]), capsys.readouterr()) == (code, ("", err)), argv
        assert path.read_bytes() == out.encode(), argv


@pytest.mark.parametrize("channel, tiny, unit", [
    ("phase", ["--rate-a", "1e-310", "--rate-b", "1e-310"], []),
    ("phase", ["--rate-a", "1e-300", "--rate-b", "1e-300", "--tau-max", "1e10"], ["--tau-max", "1e10"]),
    ("amplitude", ["--rate-a", "1e-320", "--rate-b", "0"], ["--rate-a", "1", "--rate-b", "0"]),
], ids=["equal-1e-310", "equal-1e-300-tau-1e10", "one-zero-1e-320"])
def test_grid_at_tiny_rates_equals_the_grid_at_their_ratio(capsys, channel, tiny, unit):
    # a grid depends on the rates only through rate / rate_ref; tau / rate_ref
    # would be an infinite physical time here
    argv = ["evolve", "--channel", channel, "--fidelity", "0.8", "--steps", "3"]
    code, out, err = run(capsys, *argv, *tiny)
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv, *unit)[1]


def test_sweep_rejects_custom_x_and_bad_range(capsys):
    assert run(capsys, "sweep", "--channel", "phase", "--family", "custom-x")[0] == 2
    assert run(
        capsys, "sweep", "--channel", "phase", "--fidelity-min", "0.9",
        "--fidelity-max", "0.6",
    )[0] == 2


def test_esd_text_report(capsys):
    code, out, _ = run(
        capsys, "esd", "--channel", "phase", "--fidelity", "0.8", "--rate", "2.0",
    )
    assert code == 0
    assert "analytic: dies at tau = 1.70474809224" in out
    assert "numeric" in out
    assert "|analytic - numeric| tau" in out
    assert "physical time at rate 2" in out


def test_esd_json_report(capsys):
    code, out, _ = run(
        capsys, "esd", "--channel", "amplitude", "--family", "werner-phi",
        "--fidelity", "0.8", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic"]["status"] == "dies"
    assert doc["numeric"]["status"] == "dies"
    assert abs(doc["numeric"]["tau"] - math.log(3.25)) < 1e-8
    assert doc["difference_tau"] < 1e-8


def test_esd_separable_and_alive_paths(capsys):
    code, out, _ = run(capsys, "esd", "--channel", "amplitude", "--fidelity", "0.4")
    assert code == 0
    assert "initially separable" in out
    code, out, _ = run(capsys, "esd", "--channel", "amplitude", "--fidelity", "0.9")
    assert code == 0
    assert "alive at horizon" in out


@pytest.mark.parametrize("result, doc, phrase", [
    (EsdResult.dies(LN_5_5), {"status": "dies", "tau": LN_5_5}, "dies at tau = {tau}"),
    (EsdResult.alive_at_horizon(800.0, 0.0),
     {"status": "alive", "horizon_tau": 800.0, "concurrence_at_horizon": 0.0},
     "alive at horizon tau = {horizon_tau} with concurrence {concurrence_at_horizon}"),
    (EsdResult.initially_separable(), {"status": "separable"}, "initially separable"),
], ids=["dies", "alive-below-float-range", "separable"])
def test_fate_renders_the_object_the_oracle_reads_and_the_same_numbers_as_text(result, doc, phrase):
    # the keys bench/checker.judge_fate reads for each status, and the
    # phrase prints each of the object's numbers through _fmt
    got_doc, got_phrase = cli._fate(result)
    assert got_doc == doc
    assert [type(v) for v in got_doc.values()] == [type(v) for v in doc.values()]
    numbers = {key: cli._fmt(value) for key, value in doc.items() if key != "status"}
    assert got_phrase == phrase.format(**numbers)


def test_fate_of_no_result_has_no_object():
    assert cli._fate(None) == (None, "not available for this configuration")


def test_esd_pure_werner_phi_survives_amplitude_noise(capsys):
    # C = exp(-2 tau) never reaches zero; the float margin underflowed and
    # reported death at tau = 37.43
    code, out, _ = run(
        capsys, "esd", "--channel", "amplitude", "--family", "werner-phi",
        "--fidelity", "1", "--format", "json",
    )
    assert code == 0
    numeric = json.loads(out)["numeric"]
    assert numeric["status"] == "alive"
    c = numeric["concurrence_at_horizon"]
    assert c == pytest.approx(math.exp(-120.0), rel=1e-12, abs=0.0)


def test_esd_survival_above_critical_fidelity_at_long_horizon(capsys):
    # F = 0.9 lies above (3 sqrt(5) - 1)/8, so the state survives forever;
    # C ~ exp(-800)/2 is positive but below the float64 range
    code, out, _ = run(
        capsys, "esd", "--channel", "amplitude", "--fidelity", "0.9", "--horizon", "800",
    )
    assert code == 0
    assert "numeric (horizon tau=800, tol=1e-10): alive at horizon tau = 800 with concurrence 0\n" in out


def test_esd_survivor_concurrence_has_no_cancellation(capsys):
    code, out, _ = run(
        capsys, "esd", "--channel", "amplitude", "--fidelity", "0.87", "--horizon", "400",
        "--format", "json",
    )
    assert code == 0
    f = 0.87
    # for tau >> 1, C = 2 exp(-tau) ((4F - 1)/6 - sqrt((1 - F)/3)) up to a
    # relative O(exp(-tau)); about 7.8586e-175 here
    exact = 2.0 * math.exp(-400.0) * ((4.0 * f - 1.0) / 6.0 - math.sqrt((1.0 - f) / 3.0))
    c = json.loads(out)["numeric"]["concurrence_at_horizon"]
    assert c == pytest.approx(exact, rel=1e-6, abs=0.0)


def test_esd_survival_horizon_stays_finite_at_tiny_rates(capsys):
    # results are tau = rate_ref * t; dividing the horizon by rate_ref and
    # multiplying it back once printed Infinity
    code, out, _ = run(
        capsys, "esd", "--channel", "amplitude", "--fidelity", "0.9", "--rate-a", "1e-300",
        "--rate-b", "1e-300", "--horizon", "1e10", "--format", "json",
    )
    assert code == 0
    assert "Infinity" not in out
    assert json.loads(out)["numeric"]["horizon_tau"] == 1e10


def test_esd_death_time_stays_finite_at_subnormal_rates(capsys):
    # ln(2.6 / 0.8) / 1e-310 overflowed: exit 2, "death time must be finite"
    code, out, err = run(
        capsys, "esd", "--channel", "amplitude", "--family", "werner-phi", "--fidelity", "0.8",
        "--rate-a", "1e-310", "--rate-b", "1e-310",
    )
    assert (code, err) == (0, "")
    assert "analytic: dies at tau = 1.17865499634\n" in out
    assert "numeric (horizon tau=60, tol=1e-10): dies at tau = 1.1786549963" in out


def test_esd_death_below_the_rate_precision(capsys):
    # 1 + 1e-17 == 1: exponents merged on such sums left a positive constant
    # term, and the survivor's concurrence raised OverflowError (exit 1)
    code, out, err = run(
        capsys, "esd", "--channel", "amplitude", "--family", "werner-psi", "--fidelity", "0.7",
        "--rate-b", "1e-17", "--horizon", "1e21", "--format", "json",
    )
    assert (code, err) == (0, "")
    numeric = json.loads(out)["numeric"]
    assert numeric["status"] == "dies"
    assert numeric["tau"] == pytest.approx(math.log(5.0) / 1e-17, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        # by hand the true death is at tau ~ 1.25e-61; this printed tau = 3.5e-301
        ["--family", "custom-x", "--x-params", "1e-61,0.5,0.5,1e-61,1.5e-61,0,0,0",
         "--tol", "1e-300", "--format", "json"],
        # C(0) = 2^-52 is still positive at tau = 1e-300; this printed death at 5e-301
        ["--family", "werner-phi", "--fidelity", "0.5000000000000001", "--rate-b", "1e-20",
         "--horizon", "1e-300"],
    ],
)
def test_esd_initial_margin_lost_to_rounding_is_numerical_failure(capsys, argv):
    # the start is entangled, but the expansion's margin reads negative at
    # tau = 0, so no death time can be bracketed: exit 3, not a wrong tau
    values = cli._merge_options(cli._build_parser().parse_args(["esd", "--channel", "amplitude", *argv]))
    assert concurrence_x(cli._initial_state(values)[0]) > 0.0
    code, out, err = run(capsys, "esd", "--channel", "amplitude", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: the initial margin was lost to rounding")


def test_esd_physical_time_beyond_the_float_range_is_usage_error(capsys):
    # tau / 1e-320 overflowed and the report printed t = inf
    code, out, err = run(
        capsys, "esd", "--channel", "equalizing", "--family", "werner-psi", "--fidelity", "0.75",
        "--rate-a", "0", "--rate-b", "1e9", "--rate", "1e-320",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --rate: ")
    code, out, _ = run(
        capsys, "esd", "--channel", "equalizing", "--family", "werner-psi", "--fidelity", "0.75",
        "--rate-a", "0", "--rate-b", "1e9", "--rate", "1e-300",
    )
    assert code == 0
    assert "physical time at rate 1e-300: t = " in out and "inf" not in out


def test_esd_survival_echoes_the_exact_horizon(capsys):
    # 60 / rate_ref * rate_ref came back as 60.00000000000001
    code, out, _ = run(
        capsys, "esd", "--channel", "amplitude", "--fidelity", "0.7909436339513474",
        "--rate-a", "1.6872385926238251", "--rate-b", "0.6048369656328783", "--format", "json",
    )
    assert code == 0
    numeric = json.loads(out)["numeric"]
    assert numeric["status"] == "alive"
    assert numeric["horizon_tau"] == 60.0
    assert '"horizon_tau": 60.0,' in out


def test_critical_fidelity_below_float_spacing_returns():
    # a tolerance below the float spacing near F_c once looped forever; a
    # child process with a timeout turns a hang into a failure
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xkraus.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "xkraus", "critical-fidelity", "--tol", "1e-17", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert abs(doc["numeric"] - doc["analytic"]) < 1e-15


def _run_json_child(*argv: str) -> dict:
    # a child process with a timeout turns a search that never closes its
    # bracket into a failure
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xkraus.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "xkraus", *argv, "--format", "json"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _next_to_a_sign_change(value, x: float) -> bool:
    """Whether value changes sign between x and one of its adjacent floats:
    the midpoint a search returns once its bracket is two adjacent floats."""
    return any((value(x) > 0.0) != (value(math.nextafter(x, end)) > 0.0) for end in (-math.inf, math.inf))


def test_root_search_at_the_smallest_tolerance_stops_at_adjacent_floats():
    # near adjacent floats a false-position point rounds onto an end of the
    # bracket and moves nothing; unless that step falls back to the
    # midpoint, a width of 5e-324 is never reached.  Werner states under
    # equalizing noise die in closed form at any rates, so the equalizing
    # case is a custom X state
    for argv, state, kind in (
        (("--channel", "amplitude", "--family", "werner-psi", "--fidelity", "0.7"), werner_psi(0.7), "amplitude"),
        (("--channel", "equalizing", "--family", "custom-x", "--x-params", "0.1,0.3,0.4,0.2,0.3,0,0,0"),
         XState(0.1, 0.3, 0.4, 0.2, z=0.3), "equalizing"),
    ):
        doc = _run_json_child("esd", *argv, "--rate-b", "2.5", "--tol", "5e-324")
        assert doc["numeric"]["status"] == "dies"
        expansion = _Expansion(state, _tau_spec(ChannelSpec(kind, rate_a=1.0, rate_b=2.5)))
        terms = expansion.branches[_first_positive(expansion.sums(0.0))][2]
        assert expansion.death(terms) is None  # the root finder, not the closed form
        assert _next_to_a_sign_change(lambda tau: _Expansion._shifted(terms, tau), doc["numeric"]["tau"])

    doc = _run_json_child("critical-fidelity", "--tol", "5e-324")
    assert abs(doc["numeric"] - doc["analytic"]) < 1e-15

    def margin(f: float) -> float:
        branches = _Expansion(werner_psi(f), ChannelSpec("amplitude")).branches
        return max(_Expansion._shifted(terms, 60.0) for _, _, terms in branches)

    assert _next_to_a_sign_change(margin, doc["numeric"])


def test_critical_fidelity_reports(capsys):
    code, out, _ = run(capsys, "critical-fidelity")
    assert code == 0
    assert "analytic: 0.713525491562" in out
    code, out, _ = run(capsys, "critical-fidelity", "--format", "json")
    doc = json.loads(out)
    assert abs(doc["analytic"] - 0.7135254915624212) < 1e-12
    assert abs(doc["numeric"] - doc["analytic"]) < 1e-9


def test_critical_fidelity_long_horizon(capsys):
    code, out, _ = run(capsys, "critical-fidelity", "--horizon", "800", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["numeric"] - doc["analytic"]) < 1e-9


def test_critical_fidelity_short_horizon_is_numerical_failure(capsys):
    code, _, err = run(capsys, "critical-fidelity", "--horizon", "0.05")
    assert code == 3
    assert "numerical failure" in err


def test_demo_local_ops_report(capsys):
    code, out, _ = run(capsys, "demo-local-ops", "--fidelity", "0.8")
    assert code == 0
    assert "werner-psi 0.6, werner-phi 0.6" in out
    assert "max entry mismatch = 0" in out
    assert "werner-psi: alive at horizon" in out
    assert "werner-phi: dies at tau = 1.17865499" in out


def test_demo_local_ops_pure_bell_both_survive(capsys):
    code, out, _ = run(capsys, "demo-local-ops", "--fidelity", "1.0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["amplitude_fate_psi"]["status"] == "alive"
    assert doc["amplitude_fate_phi"]["status"] == "alive"
    # concurrence exp(-2 tau) at the default horizon 60
    c_phi = doc["amplitude_fate_phi"]["concurrence_at_horizon"]
    assert c_phi == pytest.approx(math.exp(-120.0), rel=1e-12, abs=0.0)
    assert doc["amplitude_fate_phi_analytic"] is None
    assert doc["transform_residual"] == 0.0


def test_demo_local_ops_usage_errors(capsys):
    assert run(capsys, "demo-local-ops")[0] == 2
    assert run(capsys, "demo-local-ops", "--fidelity", "0.5")[0] == 2


def test_verify_text_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 8


def test_verify_local_unitary_check_is_not_flaky(capsys):
    # 212514346 failed with the eigenvalue route to concurrence_general;
    # seed 200 fails that route under the current order of random draws
    for seed in ("212514346", "200"):
        assert run(capsys, "verify", "--trials", "30", "--seed", seed)[0] == 0


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 8


def test_verify_inject_fault_fails(capsys, monkeypatch):
    # a fault in the first Kraus set only: the completeness check must fail
    # it, while every later check still gets valid sets to apply
    calls = []

    def faulty_kraus_set(spec, t):
        ops = kraus_set(spec, t)
        if not calls:
            ops[0] = 1.1 * ops[0]
        calls.append(t)
        return ops

    monkeypatch.setattr(xkraus.verify, "kraus_set", faulty_kraus_set)
    code, out, _ = run(capsys, "verify", "--trials", "5")
    assert code == 4
    assert "FAIL" in out


def test_parser_registers_exactly_the_table_flags():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices.keys() == cli._COMMANDS.keys()
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == {opt.flag for opt in cli._COMMANDS[name].opts}, name
        # the scan's table: the same flags, each to the dest argparse stores it in
        dests = {flag: action.dest for action in parser._actions for flag in action.option_strings}
        assert {f: d for f, d in dests.items() if f not in ("-h", "--help")} == cli._COMMANDS[name].flags, name


HANDLER_ARGV = {
    "evolve": ["--channel", "amplitude", "--fidelity", "0.8", "--steps", "5"],
    "sweep": ["--channel", "equalizing", "--fidelity-steps", "3", "--steps", "4", "--format", "json"],
    "esd": ["--channel", "phase", "--fidelity", "0.8", "--rate", "2"],
    "critical-fidelity": ["--format", "json"],
    "demo-local-ops": ["--fidelity", "0.8"],
    "verify": ["--trials", "3"],
}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_handlers_return_what_main_writes(capsys, name):
    argv = [name, *HANDLER_ARGV[name]]
    values = cli._merge_options(cli._build_parser().parse_args(argv))
    code, chunks = cli._COMMANDS[name].run(values)
    text = "".join(chunks)
    assert capsys.readouterr() == ("", "")
    assert run(capsys, *argv) == (code, text, "")


def test_out_to_unwritable_path_is_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "esd", "--channel", "phase", "--fidelity", "0.8",
        "--out", str(tmp_path / "missing" / "report.txt"),
    )
    assert code == 1
    assert "i/o error" in err


_FUZZ_RATES = ("0", "5e-324", "1e-320", "2.2e-308", "1e-300", "1e-20", "1e-17", "1e-9", "1", "1e9", "1e300", "1.7e308")
_FUZZ_FIDELITIES = ("0.25", "0.5", "0.5000000000000001", "0.7135254915624211", "0.9999999999999999", "1")
_FUZZ_HORIZONS = ("1e-300", "1e-9", "0.05", "60", "1e15", "1e21", "1e100", "1.7e308")
_FUZZ_TOLS = ("5e-324", "1e-300", "1e-17", "1e-10", "1", "1e300")


def _fuzz_argv(rng: random.Random) -> list[str]:
    """One argv over extreme values: rates from 0 to 1.7e308 (subnormals
    included), edge fidelities, and horizons and tolerances at both ends."""
    def pick(choices):
        return rng.choice(choices) if rng.random() < 0.8 else repr(rng.uniform(0.0, 2.0))

    command = rng.choice(("esd",) * 6 + ("demo-local-ops", "evolve", "sweep", "critical-fidelity"))
    argv = [command]
    if command in ("esd", "evolve", "sweep"):
        family = rng.choice(("werner-psi", "werner-phi", "custom-x"))
        argv += ["--channel", rng.choice(CHANNEL_KINDS), "--family", family,
                 "--rate-a", pick(_FUZZ_RATES), "--rate-b", pick(_FUZZ_RATES)]
        if family == "custom-x" and command != "sweep":
            weights = [rng.random() for _ in range(4)]
            a, b, c, d = (x / sum(weights) for x in weights)
            z, w = (rng.uniform(-1.2, 1.2) * math.sqrt(p * q) for p, q in ((a, d), (b, c)))
            argv += ["--x-params", ",".join(repr(v) for v in (a, b, c, d, z, 0.0, w, 0.0))]
        elif command != "sweep":
            argv += ["--fidelity", pick(_FUZZ_FIDELITIES)]
        if command == "esd" and rng.random() < 0.5:
            argv += ["--rate", rng.choice(_FUZZ_RATES[1:])]
    if command == "demo-local-ops":
        argv += ["--fidelity", pick(_FUZZ_FIDELITIES)]
    if command in ("evolve", "sweep"):
        argv += ["--steps", "3", "--tau-max", pick(_FUZZ_HORIZONS)]
        argv += ["--fidelity-steps", "3"] if command == "sweep" else []
    else:
        argv += ["--horizon", pick(_FUZZ_HORIZONS), "--tol", rng.choice(_FUZZ_TOLS)]
    return argv + (["--format", "json"] if rng.random() < 0.3 else [])


def test_fuzzed_argv_exits_with_a_documented_code():
    # in-process, no child processes or threads: each argv returns 0, 2
    # (usage or domain error) or 3 (numerical failure), with the matching
    # stderr, and no exception escapes main
    rng = random.Random(2005)
    codes = {0: 0, 2: 0, 3: 0}
    for _ in range(2500):
        argv = _fuzz_argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in codes, (argv, code, err.getvalue())
        if code == 0:
            assert err.getvalue() == "", argv
        else:
            assert {2: "error: ", 3: "numerical failure: "}[code] in err.getvalue(), argv
        codes[code] += 1
    assert min(codes.values()) > 0


def test_fuzzed_grids_match_scalar_reference():
    # every evolve and sweep among the fuzzed argv lists that exits 0, with
    # rates from 0 to 1.7e308 (subnormals included) and --tau-max from
    # 1e-300 to 1.7e308, equals the grid rebuilt row by row, in CSV and JSON
    rng = random.Random(2005)
    checked = 0
    for _ in range(2500):
        argv = _fuzz_argv(rng)
        if argv[0] not in ("evolve", "sweep"):
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if main(argv):
                continue
        opts = dict(zip(argv[1::2], argv[2::2]))
        grid = {"tau_max": float(opts["--tau-max"]), "steps": int(opts["--steps"])}
        if "--x-params" in opts:
            grid["x_params"] = tuple(float(v) for v in opts["--x-params"].split(","))
        elif argv[0] == "evolve":
            grid["fidelity"] = float(opts["--fidelity"])
        else:
            grid.update(fidelity_min=0.25, fidelity_max=1.0, fidelity_steps=int(opts["--fidelity-steps"]))
        expected = _reference_grid(
            argv[0], opts["--channel"], opts["--family"], float(opts["--rate-a"]), float(opts["--rate-b"]),
            grid, None, opts.get("--format", "csv"),
        )
        assert out.getvalue() == expected, argv
        checked += 1
    assert checked == 354


_SCAN_MUTATIONS = ("abbreviated", "equals", "repeated", "dash", "negative", "foreign", "odd", "help", "version", "double-dash")


def _mutated(argv: list[str], kind: str, rng: random.Random) -> list[str]:
    """A _fuzz_argv list in a shape _scan leaves to argparse, or, for
    "repeated", with one flag given twice (the last one wins)."""
    pairs = [argv[i:i + 2] for i in range(1, len(argv), 2)]
    i = rng.randrange(len(pairs))
    flag, value = pairs[i]
    if kind == "abbreviated":
        prefixes = [flag[:k] for k in range(3, len(flag)) if flag[:k] not in cli._COMMANDS[argv[0]].flags]
        pairs[i] = [rng.choice(prefixes), value]
    elif kind == "equals":
        pairs[i] = [f"{flag}={value}"]
    elif kind == "repeated":
        pairs.insert(rng.randrange(len(pairs) + 1), [flag, rng.choice(pairs)[1]])
    elif kind in ("dash", "negative"):
        pairs[i] = [flag, "-" if kind == "dash" else "-" + value]
    elif kind == "foreign":
        others = {opt.flag for c in cli._COMMANDS.values() for opt in c.opts} - cli._COMMANDS[argv[0]].flags.keys()
        pairs.insert(i, [rng.choice(sorted(others)), "3"])
    tokens = [argv[0], *(token for pair in pairs for token in pair)]
    extra = {"help": rng.choice(("-h", "--help")), "version": "--version", "double-dash": "--"}
    if kind in extra:
        tokens.insert(rng.randrange(1, len(tokens) + 1), extra[kind])
    return tokens[:-1] if kind == "odd" else tokens


def test_scan_builds_what_argparse_builds(monkeypatch):
    # the fuzz lists, each as given and once mutated, cycling through
    # _SCAN_MUTATIONS: the scan reads exactly the well-formed ones and the
    # repeated flags, into the namespace argparse builds, and main's exit
    # code and output do not depend on which of the two parsed the argv
    def parsed(argv: list[str]) -> dict | None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return vars(cli._build_parser().parse_args(argv))
            except SystemExit:
                return None

    def outcomes(argvs: list[list[str]]) -> list[tuple[int, str, str]]:
        results = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                results.append((main(argv), out.getvalue(), err.getvalue()))
        return results

    rng = random.Random(2005)
    cases = []
    for i in range(2500):
        argv = _fuzz_argv(rng)
        kind = _SCAN_MUTATIONS[i % len(_SCAN_MUTATIONS)]
        cases += [("given", argv), (kind, _mutated(argv, kind, rng))]
    for kind, argv in cases:
        ns = cli._scan(argv)
        assert (ns is not None) == (kind in ("given", "repeated")), (kind, argv)
        if ns is not None:
            assert vars(ns) == parsed(argv), argv
    monkeypatch.setattr(sys, "argv", ["xkraus", *cases[0][1]])
    assert vars(cli._scan(None)) == parsed(None)
    argvs = [argv for _, argv in cases]
    scanned = outcomes(argvs)
    monkeypatch.setattr(cli, "_scan", lambda argv: None)
    assert outcomes(argvs) == scanned


def _judged(values: dict, start: XState) -> bool:
    """The domain where bench/checker.judge_fate can judge an esd fate:
    its slack assumes a tol at or below the default (at --tol 1e300 any
    midpoint of the horizon is a correct answer), its decimal precision
    grows with the relative decay (rate_a + rate_b) / rate_ref * horizon,
    and a start entangled below C = 1e-9 meets a known defect (see
    test_esd_concurrence_of_a_barely_entangled_start)."""
    rate_ref = max(values["rate_a"], values["rate_b"])
    c0 = concurrence_x(start)
    return (values["tol"] <= 1e-10 and (values["rate_a"] + values["rate_b"]) / rate_ref * values["horizon"] <= 1e3
            and (c0 == 0.0 or c0 >= 1e-9))


def test_fuzzed_esd_fates_agree_with_the_benchmark_oracle(monkeypatch):
    # the fuzz test's argv lists again: every esd that exits 0 inside the
    # judged domain (_judged) is judged by bench/checker.judge_fate at the
    # relative rates, as its decimal precision overflows at raw rates such
    # as 1.7e308; the rest are counted, not dropped
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from checker import _parse_phrase, _text_fields, judge_fate

    def fates(values: dict, out: str) -> list[dict]:
        # the numeric fate of a report, then its analytic one if any
        if values["format"] == "json":
            doc = json.loads(out)
            return [fate for fate in (doc["numeric"], doc["analytic"]) if fate is not None]
        fields = _text_fields(out)
        numeric = next(v for k, v in fields.items() if k.startswith("numeric ("))
        return [fate for fate in map(_parse_phrase, (numeric, fields["analytic"])) if fate is not None]

    rng = random.Random(2005)
    wrong, counts = [], {True: 0, False: 0}
    for _ in range(2500):
        argv = _fuzz_argv(rng)
        if argv[0] != "esd":
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if main(argv) != 0:
                continue
        values = cli._merge_options(cli._build_parser().parse_args(argv))
        judged = _judged(values, cli._initial_state(values)[0])
        counts[judged] += 1
        if judged:
            rate_ref = max(values["rate_a"], values["rate_b"])
            relative = {**values, "rate_a": values["rate_a"] / rate_ref, "rate_b": values["rate_b"] / rate_ref}
            wrong += [(argv, problem) for fate in fates(values, out.getvalue())
                      if (problem := judge_fate(relative, fate))]
    assert wrong == []
    assert counts == {True: 385, False: 672}


@pytest.mark.xfail(strict=True, reason="_Expansion.concurrence cancels on a start with C(0) = 2^-52")
def test_esd_concurrence_of_a_barely_entangled_start(capsys):
    # at tau = 1e-300 every gamma rounds to 1, so the concurrence at the
    # horizon is the start's, 2^-52 exactly; the report reads 2.6e-16
    fidelity = 0.5000000000000001
    code, out, _ = run(
        capsys, "esd", "--channel", "equalizing", "--family", "werner-phi", "--fidelity", repr(fidelity),
        "--horizon", "1e-300", "--format", "json",
    )
    assert code == 0
    numeric = json.loads(out)["numeric"]
    assert numeric["status"] == "alive"
    assert numeric["concurrence_at_horizon"] == pytest.approx(concurrence_x(werner_phi(fidelity)), rel=1e-6, abs=0.0)
