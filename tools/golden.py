"""Fingerprint the CLI's outputs over a fixed command set.

    python tools/golden.py SRC

imports ``xkraus`` from the source directory SRC (say ``src``, or the
``src`` of another checkout), runs every command in-process through
``xkraus.cli.main`` and prints one line per command:

    sha256(stdout) sha256(stderr) exit-code argv

The set is the benchmark's command lists (``bench/workloads.py``, both
workloads, seeds 1-5), ``verify`` in text and JSON, the reproducers of
fixed defects, root searches beyond the benchmark's horizons and
tolerances, grids whose columns share rendered text or that span several
blocks of starts, a list of usage and domain errors, argv shapes beside
the well-formed one, and the parser's own prints (``--version``, the
top-level ``--help`` and every subcommand's ``--help``, at ``COLUMNS=80``
so that they do not depend on the terminal).  Two checkouts agree where
their lines agree:

    diff <(python tools/golden.py old/src) <(python tools/golden.py src)

``tools/golden.txt`` holds the lines of the committed code, and
``tests/test_golden.py`` runs the same set in-process against it.  The
digests depend on the platform's libm, numpy, orjson and Python.  A change
that means to change an output regenerates it:

    python tools/golden.py src > tools/golden.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path
from types import ModuleType

SEEDS = range(1, 6)

# where _command_set imports the benchmark's command lists from
BENCH = Path(__file__).resolve().parents[1] / "bench"

# the reproducers of fixed defects, each once a wrong answer or a crash; the
# third and fourth still exit 3 (numerical failure) by design, in place of a
# wrong death time, until the sudden-death expansion decides its signs
# exactly; the last three, a start with a = -1e-13, once followed its
# branch of zero coherence
FIXED = [
    ["esd", "--channel", "amplitude", "--family", "werner-psi", "--fidelity", "0.7",
     "--rate-b", "1e-17", "--horizon", "1e21"],
    ["esd", "--channel", "equalizing", "--family", "werner-psi", "--fidelity", "0.75",
     "--rate-a", "0", "--rate-b", "1e9", "--rate", "1e-320"],
    ["esd", "--channel", "amplitude", "--family", "custom-x",
     "--x-params", "1e-61,0.5,0.5,1e-61,1.5e-61,0,0,0", "--tol", "1e-300", "--format", "json"],
    ["esd", "--channel", "amplitude", "--family", "werner-phi", "--fidelity", "0.5000000000000001",
     "--rate-b", "1e-20", "--horizon", "1e-300"],
] + [
    ["esd", "--channel", kind, "--family", "custom-x", "--x-params=-1e-13,1e-30,0.5,0.5000000000001,0,0,1e-7,0"]
    for kind in ("amplitude", "phase", "equalizing")
]

# the root searches beyond the benchmark's horizons and tolerances: the
# survival boundary at short and long horizons and a coarse tol, and deaths
# at unequal rates, which no closed form covers, at a coarse and a fine tol
SEARCHES = [["critical-fidelity", "--horizon", h] for h in ("0.3", "1", "5", "20", "200")] + [
    ["critical-fidelity", "--tol", "1e-6", "--format", "json"],
] + [
    ["esd", "--channel", kind, *state, "--rate-b", "2.5", "--tol", tol, "--format", "json"]
    for tol in ("1e-3", "1e-14")
    for kind, state in (
        ("amplitude", ("--family", "werner-psi", "--fidelity", "0.7")),
        ("amplitude", ("--family", "werner-phi", "--fidelity", "0.9")),
        ("amplitude", ("--family", "custom-x", "--x-params", "0.4,0.1,0.2,0.3,0,0,0.3,0")),
        ("equalizing", ("--family", "custom-x", "--x-params", "0.1,0.3,0.4,0.2,0.3,0,0,0")),
        ("equalizing", ("--family", "custom-x", "--x-params", "0.05,0.45,0.35,0.15,0.35,0,0,0")),
    )
]

# grids whose columns repeat values, as in the reference-grid test: every
# start equal, populations constant along tau under phase noise (rendered
# once per start), abs_w zero for werner-psi, and unequal rates, where no
# two value columns are equal; then grids of several blocks (cli._BLOCK_ROWS = 1024 rows): 41
# starts of 101 rows, in blocks of 10 starts and 1, 3 starts of 4097
# rows, each in pieces of 1024 rows and 1, and 1437 starts of 2 rows over
# a fidelity range that is not a round one, in blocks of 512, 512 and 413
# starts; then grids whose cells test the edges of the JSON cell text:
# populations that pass through subnormals to 0, short decimals and powers
# of two, and taus in exponent notation; last, a start with 0.9e-12 of
# negative weight, within XState's rule, whose population b tends to -9e-13
GRIDS = [
    [*grid, "--format", fmt]
    for fmt in ("csv", "json")
    for grid in (
        ["sweep", "--channel", "equalizing", "--family", "werner-psi", "--rate-a", "1.3", "--rate-b", "1.3",
         "--fidelity-min", "0.8", "--fidelity-max", "0.8", "--fidelity-steps", "4", "--tau-max", "6.0", "--steps", "7"],
        ["sweep", "--channel", "phase", "--family", "werner-psi",
         "--fidelity-min", "0.25", "--fidelity-max", "1.0", "--fidelity-steps", "6", "--tau-max", "4.0", "--steps", "9"],
        ["sweep", "--channel", "amplitude", "--family", "werner-psi", "--rate-a", "1.7", "--rate-b", "1.7",
         "--fidelity-min", "0.3", "--fidelity-max", "1.0", "--fidelity-steps", "5", "--tau-max", "9.0", "--steps", "8",
         "--rate", "3.0"],
        ["sweep", "--channel", "amplitude", "--family", "werner-phi", "--rate-a", "0.6", "--rate-b", "1.4",
         "--fidelity-min", "0.4", "--fidelity-max", "0.95", "--fidelity-steps", "5", "--tau-max", "7.0", "--steps", "8"],
        ["sweep", "--channel", "equalizing", "--family", "werner-phi", "--fidelity-steps", "41", "--steps", "101"],
        ["sweep", "--channel", "amplitude", "--family", "werner-psi", "--rate-b", "0.5",
         "--fidelity-steps", "3", "--steps", "4097"],
        ["sweep", "--channel", "amplitude", "--family", "werner-phi", "--rate-a", "0.8",
         "--fidelity-min", "0.2871", "--fidelity-max", "0.9313", "--fidelity-steps", "1437", "--steps", "2"],
        ["evolve", "--channel", "amplitude", "--family", "werner-psi", "--fidelity", "0.8",
         "--tau-max", "400", "--steps", "401"],
        ["evolve", "--channel", "phase", "--family", "custom-x",
         "--x-params", "0.25,0.25,0.25,0.25,0.125,0,0.0625,0", "--tau-max", "4", "--steps", "9"],
        ["evolve", "--channel", "equalizing", "--family", "werner-phi", "--fidelity", "0.9",
         "--tau-max", "1e17", "--steps", "11"],
        ["evolve", "--channel", "amplitude", "--family", "custom-x",
         "--x-params=-6e-13,-3e-13,0.5,0.5000000000009,0,0,0,0", "--rate-a", "0", "--rate-b", "1",
         "--tau-max", "1e17", "--steps", "11"],
    )
]

ERRORS = [
    [],
    ["frobnicate"],
    ["esd"],
    ["esd", "--channel", "bogus", "--fidelity", "0.8"],
    ["esd", "--channel", "phase", "--fidelity", "2"],
    ["esd", "--channel", "phase", "--fidelity", "nan"],
    ["esd", "--channel", "phase", "--fidelity", "0.8", "--rate-a", "-1"],
    ["esd", "--channel", "phase", "--fidelity", "0.8", "--rate-a", "0", "--rate-b", "0"],
    ["esd", "--channel", "phase", "--fidelity", "0.8", "--horizon", "0"],
    ["esd", "--channel", "phase", "--fidelity", "0.8", "--tol", "inf"],
    ["esd", "--channel", "phase", "--family", "custom-x"],
    ["esd", "--channel", "phase", "--family", "custom-x", "--x-params", "1,2,3"],
    ["esd", "--channel", "phase", "--x-params", "0.25,0.25,0.25,0.25,0,0,0,0"],
    ["evolve", "--channel", "amplitude", "--fidelity", "0.8", "--steps", "1"],
    ["evolve", "--channel", "amplitude", "--family", "custom-x",
     "--x-params", "0.25,0.25,0.25,0.25,0.9,0,0,0"],
    ["evolve", "--channel", "phase", "--fidelity", "0.8", "--tau-max", "-2"],
    ["evolve", "--channel", "amplitude", "--family", "custom-x",
     "--x-params=-1e-12,-5e-13,0.5,0.5000000000015,0,0,0,0", "--rate-a", "0", "--rate-b", "1",
     "--tau-max", "2.5", "--steps", "4097"],
    ["esd", "--channel", "amplitude", "--family", "custom-x",
     "--x-params=-1e-12,-5e-13,0.5,0.5000000000015,0,0,0,0", "--rate-a", "0", "--rate-b", "1"],
    ["evolve", "--channel", "amplitude", "--family", "custom-x",
     "--x-params=-1e-12,-1e-13,0.5,0.5000000000011,0,0,0,0", "--rate-a", "0", "--rate-b", "1",
     "--tau-max", "0.5", "--steps", "11"],
    ["evolve", "--channel", "amplitude", "--family", "custom-x",
     "--x-params=-1e-12,-1e-13,0.5,0.5000000000011,0,0,0,0", "--rate-a", "0", "--rate-b", "1",
     "--tau-max", "1e17", "--steps", "11"],
    ["sweep", "--channel", "phase", "--family", "custom-x"],
    ["sweep", "--channel", "phase", "--fidelity-min", "0.9", "--fidelity-max", "0.6"],
    ["critical-fidelity", "--horizon", "-1"],
    ["critical-fidelity", "--horizon", "0.01"],
    ["demo-local-ops"],
    ["demo-local-ops", "--fidelity", "0.4"],
    ["verify", "--trials", "0"],
    ["verify", "--seed", "x"],
]

# argv shapes next to the well-formed ones: a repeated flag (scanned, the
# last one wins) and, left to argparse, an abbreviation, --flag=value and
# the value "-", which run, then four usage errors
FORMS = [
    ["esd", "--channel", "phase", "--fidelity", "0.9", "--fidelity", "0.8"],
    ["esd", "--channel", "phase", "--fid", "0.8"],
    ["esd", "--channel", "phase", "--fidelity=0.8"],
    ["esd", "--channel", "phase", "--fidelity", "0.8", "--out", "-"],
    ["esd", "--version"],
    ["esd", "--channel", "phase", "--fidelity", "0.8", "--steps", "3"],
    ["esd", "--channel"],
    ["esd", "--channel", "phase", "--", "--fidelity", "0.8"],
]

PRINTS = [["--version"], ["--help"]] + [
    [name, "--help"] for name in ("evolve", "sweep", "esd", "critical-fidelity", "demo-local-ops", "verify")
]


def _command_set() -> list[list[str]]:
    """The commands, in order; imports workloads from BENCH, which must be on
    sys.path."""
    from workloads import WORKLOADS, commands

    argvs = [cmd.argv for w in WORKLOADS for seed in SEEDS for cmd in commands(w, seed)]
    return (argvs + [["verify"], ["verify", "--trials", "30", "--format", "json"]]
            + FIXED + SEARCHES + GRIDS + ERRORS + FORMS + PRINTS)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprints(cli: ModuleType) -> list[str]:
    """One line per command of the set, run through cli.main: the digests
    of its stdout and stderr, its exit code and its argv."""
    lines = []
    for argv in _command_set():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        lines.append(f"{_digest(out.getvalue())} {_digest(err.getvalue())} {code} {shlex.join(argv)}")
    return lines


def main(src: str) -> int:
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    from xkraus import cli

    if src_dir not in Path(cli.__file__).resolve().parents:
        print(f"xkraus was imported from {cli.__file__}, not from {src_dir}", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(BENCH))
    print(*fingerprints(cli), sep="\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
