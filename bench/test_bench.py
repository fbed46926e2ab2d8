"""Tests of the benchmark itself: command generation, the output checker and
the tracer.  Run from the repository root with ``python -m pytest bench``."""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from xkraus import ChannelSpec, XState, concurrence_x, propagate_x  # noqa: E402
from xkraus import cli  # noqa: E402

from checker import check, reference_margin  # noqa: E402
from tracer import PROPAGATE_CLOSED, PROPAGATE_DENSE, Tracer  # noqa: E402
from workloads import WORKLOADS, Command, commands, random_x_params  # noqa: E402


def _esd(channel: str, family: str, fidelity: float, horizon: float = 60.0) -> Command:
    values = {
        "channel": channel, "family": family, "fidelity": fidelity,
        "rate_a": 1.0, "rate_b": 1.0, "horizon": horizon, "format": "text",
    }
    return Command("esd", values, ("channel", "family", "fidelity", "horizon", "format"))


def _esd_text(channel: str, family: str, fidelity: str, horizon: str, analytic: str, numeric: str) -> str:
    return (
        f"channel: {channel} (rate_a=1, rate_b=1)\n"
        f"state: {family} with fidelity {fidelity}\n"
        f"analytic: {analytic}\n"
        f"numeric (horizon tau={horizon}, tol=1e-10): {numeric}\n"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_always_yields_the_same_argv_lists(workload):
    first = [c.argv for c in commands(workload, 5)]
    assert first == [c.argv for c in commands(workload, 5)]
    assert first != [c.argv for c in commands(workload, 6)]


def test_checker_flags_false_death_of_pure_werner_phi_under_amplitude_noise():
    text = _esd_text("amplitude", "werner-phi", "1", "60",
                     "not available for this configuration", "dies at tau = 37.4299477502")
    problem = check(_esd("amplitude", "werner-phi", 1.0), 0, text)
    assert problem is not None and "survives forever" in problem


def test_checker_flags_false_death_above_the_critical_fidelity():
    text = _esd_text("amplitude", "werner-psi", "0.9", "800",
                     "not available for this configuration", "dies at tau = 744.034606813")
    problem = check(_esd("amplitude", "werner-psi", 0.9, horizon=800.0), 0, text)
    assert problem is not None and "survives forever" in problem


def test_checker_flags_critical_fidelity_abort():
    cmd = Command("critical-fidelity", {"horizon": 800.0, "format": "text"}, ("horizon", "format"))
    assert check(cmd, 3, "") == "exit code 3"


def test_checker_passes_phase_werner_psi_death_at_ln_5_5():
    tau = format(math.log(5.5), ".12g")
    text = _esd_text("phase", "werner-psi", "0.8", "60", f"dies at tau = {tau}", f"dies at tau = {tau}")
    assert check(_esd("phase", "werner-psi", 0.8), 0, text) is None


def test_checker_rejects_a_shifted_death_time():
    text = _esd_text("phase", "werner-psi", "0.8", "60", "dies at tau = 1.70474809224", "dies at tau = 1.7048")
    assert "paper" in check(_esd("phase", "werner-psi", 0.8), 0, text)


def test_checker_accepts_correct_live_outputs(tmp_path):
    custom = {
        "channel": "amplitude", "family": "custom-x", "x_params": (0.4, 0.1, 0.1, 0.4, 0.0, 0.0, 0.35, 0.0),
        "rate_a": 1.0, "rate_b": 0.5, "horizon": 60.0, "format": "json",
    }
    grid = {
        "channel": "equalizing", "family": "werner-phi", "rate_a": 1.0, "rate_b": 0.5,
        "fidelity_min": 0.5, "fidelity_max": 1.0, "fidelity_steps": 5, "tau_max": 3.0, "steps": 7,
    }
    cmds = [
        _esd("phase", "werner-psi", 0.8),
        _esd("equalizing", "werner-phi", 1.0),
        _esd("amplitude", "werner-psi", 0.6),
        Command("esd", custom, ("channel", "family", "x_params", "rate_a", "rate_b", "format")),
        Command("sweep", dict(grid, format="json"), tuple(grid) + ("format",)),
        Command("sweep", dict(grid, format="csv"), tuple(grid) + ("format",)),
        Command("critical-fidelity", {"horizon": 60.0, "format": "json"}, ("format",)),
        Command("demo-local-ops", {"fidelity": 0.8, "horizon": 60.0, "format": "text"}, ("fidelity",)),
    ]
    for cmd in cmds:
        out = tmp_path / "out"
        rc = cli.main(cmd.argv + ["--out", str(out)])
        assert check(cmd, rc, out.read_text()) is None, cmd.argv


def test_reference_margin_matches_the_library_at_moderate_times():
    rng = random.Random(3)
    for _ in range(30):
        p = random_x_params(rng)
        state = XState(p[0], p[1], p[2], p[3], complex(p[4], p[5]), complex(p[6], p[7]))
        kind = rng.choice(("phase", "amplitude", "equalizing"))
        rate_a, rate_b = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        tau = rng.uniform(0.0, 4.0)
        rate_ref = max(rate_a, rate_b)
        expected = concurrence_x(propagate_x(state, ChannelSpec(kind, rate_a, rate_b), tau / rate_ref))
        ref = 2 * reference_margin(p[:4], math.hypot(p[4], p[5]), math.hypot(p[6], p[7]),
                                   kind, rate_a, rate_b, tau)
        assert abs(max(0.0, float(ref)) - expected) < 1e-12


def test_tracer_wraps_imported_names_and_restores_them(tmp_path):
    import xkraus.channels
    import xkraus.entanglement

    original = xkraus.channels.propagate_x
    tracer = Tracer()
    tracer.install()
    try:
        assert xkraus.entanglement.propagate_x is not original
        assert cli.propagate_x is xkraus.channels.propagate_x
        out = str(tmp_path / "out")
        cli.main(["esd", "--channel", "amplitude", "--fidelity", "0.6", "--out", out])
        cli.main(["esd", "--channel", "amplitude", "--fidelity", "0.6", "--rate-b", "0.5", "--out", out])
    finally:
        tracer.uninstall()
    assert xkraus.channels.propagate_x is original
    assert xkraus.entanglement.propagate_x is original
    summary = tracer.summary()
    esd = summary["entanglement.esd_time_numeric"]
    assert summary["cli.main"]["calls"] == 2 and esd["calls"] == 2
    assert esd["parents"] == {"cli.main": 2}
    assert summary[PROPAGATE_CLOSED]["parents"]["entanglement.esd_time_numeric"] > 0
    assert summary[PROPAGATE_DENSE]["calls"] == summary["channels.kraus_set"]["calls"] > 0
    for s in summary.values():
        assert 0.0 <= s["self_s"] <= s["total_s"] + 1e-12
