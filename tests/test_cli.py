from __future__ import annotations

import json
import math

import pytest

from xkraus.cli import main

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


def test_verify_inject_fault_fails(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--inject-fault")
    assert code == 4
    assert "FAIL" in out


def test_out_to_unwritable_path_is_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "esd", "--channel", "phase", "--fidelity", "0.8",
        "--out", str(tmp_path / "missing" / "report.txt"),
    )
    assert code == 1
    assert "i/o error" in err
