"""Seeded command lists for the two benchmark workloads.

Each workload is a closed loop with one caller: the commands run one after
another through ``xkraus.cli.main``.  A run is a whole number of *blocks*.
A block has a fixed composition (command kinds, grid sizes, channels, most
formats and horizons); the seed draws everything else (fidelities, custom X
states, rates, time ranges, the other formats and horizons) and the order
inside the block.
Fixing the composition keeps the cost of a run nearly independent of the
seed, so runs with different seeds measure the same work.

A run repeats its command list until its seconds are used up and keeps each
command's fastest pass.  That minimum only settles near the machine's floor
after a dozen or more samples, so the lists are short: ``BLOCKS[workload]``
blocks, one pass over which takes 1.5-2.5 seconds on a shared 2-vCPU Xeon
VM.
The command list depends only on the workload and the seed, never on
timing, so two runs with one seed execute the same commands and must
produce the same bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

WORKLOADS = ("sweep-equal", "esd-search")
CHANNELS = ("phase", "amplitude", "equalizing")
WERNER = ("werner-psi", "werner-phi")

BLOCKS = {
    "sweep-equal": 1,
    "esd-search": 2,
}

# CLI defaults of the default sweep, which passes no grid flags.
DEFAULT_FIDELITY_STEPS = 101
DEFAULT_STEPS = 201


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the subcommand, every resolved option value the
    checker needs, and the keys that are passed as flags (the rest are left
    to the CLI defaults)."""

    command: str
    values: dict[str, Any]
    flags: tuple[str, ...]

    @property
    def rows(self) -> int:
        """Grid rows the command writes; 0 for commands that write no grid."""
        if self.command == "sweep":
            return self.values["fidelity_steps"] * self.values["steps"]
        return self.values["steps"] if self.command == "evolve" else 0

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        for key in self.flags:
            argv += ["--" + key.replace("_", "-"), _text(self.values[key])]
        return argv


def _text(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of one run, a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {list(WORKLOADS)}")
    rng = random.Random(f"xkraus-bench/{workload}/{seed}")
    make = {
        "sweep-equal": lambda: _grid_block(rng),
        "esd-search": lambda: _esd_block(rng),
    }[workload]
    out: list[Command] = []
    for _ in range(BLOCKS[workload]):
        block = make()
        rng.shuffle(block)
        out.extend(block)
    return out


def _rates(rng: random.Random, unequal: bool) -> tuple[float, float]:
    if not unequal:
        rate = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 2.0)
        return rate, rate
    base = rng.uniform(0.5, 1.5)
    ratio = rng.uniform(1.25, 3.0)
    return (base, base * ratio) if rng.random() < 0.5 else (base * ratio, base)


def _rate_flags(rate_a: float, rate_b: float) -> tuple[str, ...]:
    return () if rate_a == rate_b == 1.0 else ("rate_a", "rate_b")


FORMATS = ("csv", "json")

# (command, fidelity steps, time steps, channel); None fidelity steps marks
# evolve.  Every size runs in CSV and JSON, and on every channel unless one
# is named.  The default 101x201 sweep runs on amplitude noise only: its
# output size, and so its cost, depends on the channel (CSV 1.2-2.1 MB,
# JSON 5.0-5.8 MB), and it is the slowest command of its list.  The list
# holds 20 commands, so the tail latency is that of the slowest one: the
# default sweep in JSON.
_GRID_SIZES = (
    ("evolve", None, 201, None),
    ("sweep", 21, 41, None),
    ("sweep", 51, 101, None),
    ("sweep", DEFAULT_FIDELITY_STEPS, DEFAULT_STEPS, "amplitude"),
)


def _grid_block(rng: random.Random) -> list[Command]:
    return [
        _grid_command(rng, command, fsteps, steps, channel, fmt)
        for command, fsteps, steps, only in _GRID_SIZES
        for channel in ((only,) if only else CHANNELS)
        for fmt in FORMATS
    ]


def _grid_command(
    rng: random.Random,
    command: str,
    fsteps: int | None,
    steps: int,
    channel: str,
    fmt: str,
) -> Command:
    rate_a, rate_b = _rates(rng, unequal=False)
    values: dict[str, Any] = {
        "channel": channel,
        "family": rng.choice(WERNER),
        "rate_a": rate_a,
        "rate_b": rate_b,
        "steps": steps,
        "format": fmt,
    }
    flags = ["channel", "family", *_rate_flags(rate_a, rate_b)]
    if command == "evolve":
        values["fidelity"] = rng.uniform(0.25, 1.0)
        values["tau_max"] = rng.uniform(2.0, 15.0)
        flags += ["fidelity", "tau_max", "steps"]
    elif fsteps == DEFAULT_FIDELITY_STEPS and steps == DEFAULT_STEPS:
        # the default sweep: only channel, family, rates and format are given
        values.update(fidelity_min=0.25, fidelity_max=1.0, fidelity_steps=fsteps)
        values["tau_max"] = 5.0 if channel == "phase" else 10.0
    else:
        fmin = rng.uniform(0.25, 0.75)
        fmax = 1.0 if rng.random() < 0.3 else rng.uniform(fmin + 0.1, 1.0)
        values.update(fidelity_min=fmin, fidelity_max=fmax, fidelity_steps=fsteps)
        values["tau_max"] = rng.uniform(2.0, 15.0)
        flags += ["fidelity_min", "fidelity_max", "fidelity_steps", "tau_max", "steps"]
    flags.append("format")
    return Command(command, values, tuple(flags))


def random_x_params(rng: random.Random) -> tuple[float, ...]:
    """A valid X state as a,b,c,d,re_z,im_z,re_w,im_w: Dirichlet-uniform
    populations, coherence magnitudes uniform on their positivity intervals,
    uniform phases."""
    weights = [rng.expovariate(1.0) for _ in range(4)]
    total = sum(weights)
    a, b, c, d = (w / total for w in weights)
    z_mag = rng.uniform(0.0, math.sqrt(b * c))
    w_mag = rng.uniform(0.0, math.sqrt(a * d))
    z_arg = rng.uniform(0.0, 2.0 * math.pi)
    w_arg = rng.uniform(0.0, 2.0 * math.pi)
    return (
        a, b, c, d,
        z_mag * math.cos(z_arg), z_mag * math.sin(z_arg),
        w_mag * math.cos(w_arg), w_mag * math.sin(w_arg),
    )


def _entangled_fidelity(rng: random.Random) -> float:
    """Uniform on (1/2, 1]."""
    return 1.0 - 0.5 * rng.random()


def _esd_command(
    rng: random.Random, family: str, channel: str, unequal: bool, horizon: float, fidelity: float | None
) -> Command:
    rate_a, rate_b = _rates(rng, unequal)
    values: dict[str, Any] = {
        "channel": channel,
        "family": family,
        "rate_a": rate_a,
        "rate_b": rate_b,
        "horizon": horizon,
        "format": rng.choice(("text", "json")),
    }
    flags = ["channel", "family"]
    if family == "custom-x":
        values["x_params"] = random_x_params(rng)
        flags.append("x_params")
    else:
        values["fidelity"] = fidelity
        flags.append("fidelity")
    flags += [*_rate_flags(rate_a, rate_b), "horizon", "format"]
    return Command("esd", values, tuple(flags))


# Search horizons (tau); 60 is the CLI default.  Longer horizons are left
# out: at horizon 800 the float64 margin cancels or underflows, and the
# program answers a tenth of the queries wrongly (false deaths, aborts, wrong
# survival concurrences), so no run there would be free of failures.
HORIZONS = (20.0, 60.0)


def _esd_block(rng: random.Random) -> list[Command]:
    """36 esd queries, six critical-fidelity and two demo-local-ops commands.

    Each (family, channel) cell gets four queries: three at equal rates (one
    at horizon 60, one at 20, one at a random horizon; for the Werner
    families the last sits exactly at F = 1) and one at unequal rates with a
    random horizon, so a quarter of the queries take the dense route.  The
    one exception is amplitude noise on werner-phi, whose F = 1 query is
    drawn like the others: the program reports a false death at tau = 37.43
    for it at the default horizon.  critical-fidelity runs at horizon 60 six
    times, three in each format: these searches are the slowest commands of
    the mix and all cost the same, and a run holds more than ten of them, so
    the tail latency (ten commands slower) falls inside their group.
    """
    block = []
    for family in (*WERNER, "custom-x"):
        for channel in CHANNELS:
            for unequal, horizon, at_one in (
                (False, 60.0, False),
                (False, 20.0, False),
                (False, None, True),
                (True, None, False),
            ):
                horizon = horizon or rng.choice(HORIZONS)
                fidelity = None
                if family != "custom-x":
                    pure = at_one and not (channel == "amplitude" and family == "werner-phi")
                    fidelity = 1.0 if pure else _entangled_fidelity(rng)
                block.append(_esd_command(rng, family, channel, unequal, horizon, fidelity))
    for fmt in ("text", "json") * 3:
        values = {"horizon": 60.0, "format": fmt}
        block.append(Command("critical-fidelity", values, ("horizon", "format")))
    for horizon in HORIZONS:
        values = {
            "fidelity": _entangled_fidelity(rng),
            "horizon": horizon,
            "format": rng.choice(("text", "json")),
        }
        block.append(Command("demo-local-ops", values, ("fidelity", "horizon", "format")))
    return block
