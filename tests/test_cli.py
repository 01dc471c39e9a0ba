import math
import os

import pytest
import yaml

from exosim.cli import main
from exosim.hand import default_hand
from exosim.spasticity import calibrate_stiffness
from exosim.tendons import config1_extension, full_flexion_excursion_mm, index_branch


def run_cli(args):
    return main(args)


def test_version_exits_zero(capsys):
    assert run_cli(["--version"]) == 0


def test_simulate_writes_traces_and_sidecars(tmp_path):
    out = tmp_path / "traces"
    code = run_cli(
        ["simulate", "--out", str(out), "--subjects", "S1,S4", "--trials", "2",
         "--seed", "7"]
    )
    assert code == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == [
        "S1_extension_t00.csv",
        "S1_extension_t01.csv",
        "S4_extension_t00.csv",
        "S4_extension_t01.csv",
    ]
    assert (out / "S1_extension_t00.meta.yaml").exists()
    meta = yaml.safe_load((out / "S4_extension_t00.meta.yaml").read_text())
    assert meta["subject_id"] == "S4"
    assert meta["breakaway"]["occurred"] is True
    assert meta["seed"] == [7, 3, 0]


def test_simulate_subject_range_expansion(tmp_path):
    out = tmp_path / "traces"
    assert run_cli(["simulate", "--out", str(out), "--subjects", "S2..S4"]) == 0
    assert {p.name.split("_")[0] for p in out.glob("*.csv")} == {"S2", "S3", "S4"}


def test_simulate_unknown_subject_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "traces"
    code = run_cli(["simulate", "--out", str(out), "--subjects", "S9"])
    assert code == 1
    assert not out.exists()  # no partial output
    assert "S9" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["S1,S1", "S1..S3,S2"])
def test_simulate_rejects_a_repeated_subject(tmp_path, capsys, spec):
    out = tmp_path / "traces"
    assert run_cli(["simulate", "--out", str(out), "--subjects", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than once" in err
    assert not out.exists()


def test_simulate_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(
            ["simulate", "--out", str(out), "--subjects", "S3", "--seed", "5"]
        ) == 0
    name = "S3_extension_t00.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_pinch_network_flag(tmp_path):
    out = tmp_path / "traces"
    assert run_cli(
        ["simulate", "--out", str(out), "--subjects", "S1",
         "--tendon-config", "pinch"]
    ) == 0
    assert (out / "S1_pinch_t00.csv").exists()


def test_magnet_flag_changes_s4_release_time(tmp_path):
    def release_time(out, magnet):
        assert run_cli(
            ["simulate", "--out", str(out), "--subjects", "S4",
             "--noise-sigma", "0", "--magnet", magnet]
        ) == 0
        meta = yaml.safe_load((out / "S4_extension_t00.meta.yaml").read_text())
        return meta["breakaway"]["time_s"]

    weak = release_time(tmp_path / "w", "standard")
    strong = release_time(tmp_path / "s", "strong")
    assert weak < strong


def test_magnet_flag_is_the_coupling_magnet_key(tmp_path):
    """--magnet writes coupling.magnet, so the flag and the key run the same
    coupling and stamp the same config hash, which differs from the hash of
    the run with each subject's own magnet (S4's is the strong one)."""
    def s4(out, *extra):
        assert run_cli(
            ["simulate", "--out", str(out), "--subjects", "S4", "--noise-sigma", "0", *extra]
        ) == 0
        meta = yaml.safe_load((out / "S4_extension_t00.meta.yaml").read_text())
        return meta["breakaway"]["time_s"], meta["config_hash"]

    own = s4(tmp_path / "own")
    flag = s4(tmp_path / "flag", "--magnet", "standard")
    key = s4(tmp_path / "key", "--set", "coupling.magnet=standard")
    assert flag == key
    assert flag[1] != own[1]
    assert flag[0] < own[0]


def test_analyze_on_simulated_traces(tmp_path, capsys):
    traces = tmp_path / "traces"
    assert run_cli(["simulate", "--out", str(traces), "--seed", "3"]) == 0
    reports = tmp_path / "analysis"
    code = run_cli(["analyze", str(traces), "--out", str(reports)])
    assert code == 0
    assert (reports / "summary.txt").exists()
    summary = (reports / "summary.txt").read_text()
    assert "functional extension 4/5" in summary
    assert "breakaway 2/5" in summary
    report = yaml.safe_load((reports / "S2_extension_t00.report.yaml").read_text())
    assert 0.97 <= report["correlation"] <= 1.0
    fit_lines = (reports / "S2_extension_t00_fit.csv").read_text().splitlines()
    assert fit_lines[0] == "position_frac,force_frac,fitted_frac"
    assert len(fit_lines) > 10


def test_analyze_external_affine_csv(tmp_path):
    """A hand-made perfectly affine trace must fit with r = 1."""
    trace = tmp_path / "affine.csv"
    rows = ["t_s,actuator_mm,force_N"]
    for i in range(101):
        t = i * 0.1
        pos = 50.0 - 5.0 * t * 0.1 * 10  # 0.5 mm per row
        force = 0.4 * (50.0 - pos)
        rows.append(f"{t:.6f},{pos:.6f},{force:.6f}")
    trace.write_text("\n".join(rows) + "\n")
    reports = tmp_path / "an"
    assert run_cli(["analyze", str(trace), "--out", str(reports)]) == 0
    report = yaml.safe_load((reports / "affine.report.yaml").read_text())
    assert report["correlation"] == pytest.approx(1.0, abs=1e-9)
    assert report["slope"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_warns_on_malformed_rows(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "t_s,actuator_mm,force_N\n"
        "0.000000,50.000000,4.000000\n"
        "garbage line\n"
        "0.010000,49.950000,5.000000\n"
        "0.020000,49.900000,6.000000\n"
    )
    assert run_cli(["analyze", str(bad), "--out", str(tmp_path / "an")]) == 0
    err = capsys.readouterr().err
    assert "bad.csv:3" in err


def test_analyze_skips_non_finite_rows(tmp_path, capsys):
    """nan/inf force rows are dropped with file:line warnings, so the fit is
    made on the finite rows and its numbers are finite."""
    trace = tmp_path / "nonfinite.csv"
    trace.write_text(
        "t_s,actuator_mm,force_N\n"
        "0.0,50.0,0.0\n"
        "0.1,49.5,4.0\n"
        "0.2,49.0,nan\n"
        "0.3,48.5,inf\n"
        "0.4,48.0,8.0\n"
        "0.5,47.5,-inf\n"
        "0.6,47.0,12.0\n"
    )
    assert run_cli(["analyze", str(trace), "--out", str(tmp_path / "an")]) == 0
    err = capsys.readouterr().err
    for line in (4, 5, 7):
        assert f"nonfinite.csv:{line}: non-finite row" in err
    report = yaml.safe_load((tmp_path / "an" / "nonfinite.report.yaml").read_text())
    assert report["used_samples"] == 3
    assert not report["degenerate"]
    for key in ("correlation", "slope", "intercept", "peak_force_n"):
        assert math.isfinite(report[key])
    assert report["peak_force_n"] == 12.0


def test_analyze_missing_input_errors(tmp_path, capsys):
    assert run_cli(["analyze", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "an")]) == 1


def test_calibrate_writes_derived_config(tmp_path):
    out = tmp_path / "cal"
    assert run_cli(["calibrate", "--out", str(out)]) == 0
    path = out / "calibrated_config.yaml"
    text = path.read_text()
    assert text.startswith("# exosim calibrate")
    assert "joint_center_depth_mm = 9.215" in text
    cfg = yaml.safe_load(text)
    assert cfg["hand"]["joint_center_depth_mm"] == pytest.approx(9.21505, abs=1e-4)
    assert cfg["subjects"]["S2"]["stiffness_n_per_mm"] == pytest.approx(27.5 / 48.0)


def test_calibration_travel_follows_the_stroke(tmp_path):
    """The effective travel is the stroke past the branch slack, not a key."""
    out = tmp_path / "cal"
    assert run_cli(["calibrate", "--out", str(out), "--set", "actuator.stroke_mm=40"]) == 0
    text = (out / "calibrated_config.yaml").read_text()
    assert "over 38 mm of effective travel" in text
    cfg = yaml.safe_load(text)
    assert cfg["subjects"]["S1"]["stiffness_n_per_mm"] == calibrate_stiffness(17.5, 38)
    assert "effective_travel_mm" not in cfg["calibration"]


def test_calibrate_unreachable_target_errors(tmp_path, capsys):
    code = run_cli(
        ["calibrate", "--out", str(tmp_path / "cal"),
         "--set", "calibration.excursion_target_mm=1000"]
    )
    assert code == 1
    assert "unreachable" in capsys.readouterr().err


def test_env_var_supplies_config(tmp_path, monkeypatch):
    cfg_file = tmp_path / "env.yaml"
    cfg_file.write_text("trial:\n  noise_sigma_n: 0.0\n")
    monkeypatch.setenv("EXOSIM_CONFIG", str(cfg_file))
    out = tmp_path / "traces"
    assert run_cli(["simulate", "--out", str(out), "--subjects", "S1"]) == 0
    meta = yaml.safe_load((out / "S1_extension_t00.meta.yaml").read_text())
    assert meta["noise_sigma_n"] == 0.0


def test_bad_usage_maps_to_exit_one():
    assert run_cli(["simulate", "--magnet", "titanic"]) == 1
    assert run_cli(["no-such-command"]) == 1


def test_reproduce_passes_and_writes_manifest(tmp_path, capsys):
    out = tmp_path / "rep"
    code = run_cli(["reproduce", "--out", str(out), "--seed", "1"])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "RESULT: PASS" in manifest
    assert manifest.count("PASS") >= 12
    assert (out / "traces" / "S1_t00.csv").exists()
    assert (out / "summary.txt").exists()


def test_reproduce_sweep_seed_matches_its_single_run(tmp_path):
    """A sweep reads its config once: seed 1 of ``--seed 0..1`` writes the
    same tree, byte for byte, as ``--seed 1`` alone."""

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    sweep, single = tmp_path / "sweep", tmp_path / "single"
    assert run_cli(["reproduce", "--out", str(sweep), "--seed", "0..1"]) == 0
    assert run_cli(["reproduce", "--out", str(single), "--seed", "1"]) == 0
    assert len(tree(single)) == 22  # 5 traces + 5 sidecars + 10 reports, summary, manifest
    assert tree(sweep / "seed_1") == tree(single)


def test_reproduce_rejects_no_trials(tmp_path, capsys):
    out = tmp_path / "rep"
    assert run_cli(["reproduce", "--out", str(out), "--trials", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_reproduce_fails_correlation_band_without_fitted_traces(tmp_path):
    """With no subject there is no fit, so the band check vouches for nothing."""
    out = tmp_path / "rep"
    assert run_cli(["reproduce", "--out", str(out), "--set", "subjects={}"]) == 2
    lines = (out / "manifest.txt").read_text().splitlines()
    assert "FAIL correlation_band: no fitted traces" in lines
    assert lines[-1] == "RESULT: FAIL"


def test_reproduce_detects_broken_setup(tmp_path):
    """Sabotaged stiffness pushes S1 out of its peak band: exit code 2."""
    out = tmp_path / "rep"
    code = run_cli(
        ["reproduce", "--out", str(out), "--seed", "1",
         "--set", "subjects.S1.stiffness_n_per_mm=0.05"]
    )
    assert code == 2
    manifest = (out / "manifest.txt").read_text()
    assert "FAIL peak_band_S1" in manifest
    assert "RESULT: FAIL" in manifest


MALFORMED = [
    "hand=3",
    "trial=5",
    "subjects.S1=3",
    "trial.noise_sigma_n.x=1",
    "trial.noise_sigma_n=null",
    "hand.flexion_ranges_deg.finger_mcp=5",
    "subjects.S1.peak_band_n=3",
    "calibration=2",
    "trial.noise_sigm=0.2",  # misspelled key of a section passed on as keywords
    "analysis.trim_threshold=2",
    "actuator.stroke=40",
    "trial.noise_sigma_n=[",  # not parseable
    None,  # a config file with `hand: 3`
    # keys that the defaults lack
    "hand.joint_depth=3",
    "hand.flexion_ranges_deg.finger_mpc=[0,80]",
    "network.extention.x=3",
    "coupling.magnit=strong",
    "subjects.S1.stifness_n_per_mm=3",
    # unknown magnet names
    "coupling.magnet=giant",
    "subjects.S3.magnet=giant",
    # trial settings, which only a trial used to check
    "actuator.peak_force_n=38",  # below the strong magnet's 41 N breakaway
    "trial.sample_rate_hz=0",
    "trial.noise_sigma_n=-1",
    # non-finite trial settings (the sample-count cap is tested in test_trial.py,
    # where no trial can run)
    "trial.sample_rate_hz=.inf",
    "trial.noise_sigma_n=.nan",
    "trial.noise_sigma_n=.inf",
]


@pytest.mark.parametrize("command", ["simulate", "analyze", "calibrate", "reproduce"])
@pytest.mark.parametrize("override", MALFORMED)
def test_malformed_config_fails_cleanly(tmp_path, capsys, command, override):
    args = [command, "--out", str(tmp_path / "out")]
    if command == "analyze":
        trace = tmp_path / "t.csv"
        trace.write_text("t_s,actuator_mm,force_N\n0.0,50.0,0.0\n0.1,49.5,4.0\n")
        args.append(str(trace))
    if override is None:
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text("hand: 3\n")
        args += ["--config", str(cfg_file)]
    else:
        args += ["--set", override]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_calibration_solves_for_configured_extension_network(tmp_path):
    """Depth calibration, its self-check and the trials share one network:
    the configured guide heights, not the module defaults."""
    guide = ["--set", "network.extension.mcp_guide_mm=9.5"]
    assert run_cli(["calibrate", "--out", str(tmp_path / "cal")] + guide) == 0
    derived = yaml.safe_load((tmp_path / "cal" / "calibrated_config.yaml").read_text())
    depth = derived["hand"]["joint_center_depth_mm"]
    hand = default_hand(depth)
    branch = index_branch(config1_extension(mcp_guide_mm=9.5))
    assert full_flexion_excursion_mm(hand, branch) == pytest.approx(57.0, abs=0.01)

    out = tmp_path / "rep"
    assert run_cli(["reproduce", "--out", str(out)] + guide) == 0
    manifest = (out / "manifest.txt").read_text()
    assert f"(depth {depth:.4f} mm)" in manifest
