import gc
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from exosim import cli
from exosim.cli import main
from exosim.config import Bench, apply_overrides, default_config, load_config
from exosim.hand import default_hand
from exosim.spasticity import calibrate_stiffness
from exosim.tendons import config1_extension, index_excursion_mm


def run_cli(args):
    return main(args)


def tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


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


def test_analyze_takes_only_files_from_a_directory(tmp_path, capsys):
    traces = tmp_path / "traces"
    (traces / "x.csv").mkdir(parents=True)
    (traces / "t.csv").write_text("t_s,actuator_mm,force_N\n0.0,50.0,0.0\n0.1,49.5,4.0\n")
    assert run_cli(["analyze", str(traces), "--out", str(tmp_path / "an")]) == 0
    assert sorted(p.name for p in (tmp_path / "an").iterdir()) == [
        "summary.txt", "t.report.yaml", "t_fit.csv"
    ]


def test_analyze_warns_of_a_fit_csv_named_on_the_command_line(tmp_path, capsys):
    """A fit CSV is analyze's own output: one named on the command line is
    skipped with a warning, and the other traces are analyzed."""
    d = tmp_path / "d"
    assert run_cli(["simulate", "--subjects", "S1,S2", "--out", str(d)]) == 0
    capsys.readouterr()
    fit = d / "S1_fit.csv"
    fit.write_bytes((d / "S1_extension_t00.csv").read_bytes())
    trace = d / "S2_extension_t00.csv"
    assert run_cli(["analyze", str(fit), str(trace), "--out", str(tmp_path / "an")]) == 0
    out, err = capsys.readouterr()
    assert err == f"warning: {fit}: skipped, analyze writes files named *_fit.csv\n"
    assert "totals: 1 traces" in out
    assert run_cli(["analyze", str(fit), "--out", str(tmp_path / "an2")]) == 1
    assert capsys.readouterr().err == (
        f"warning: {fit}: skipped, analyze writes files named *_fit.csv\n"
        "error: no trace CSVs to analyze\n"
    )


def test_analyze_passes_over_the_fit_csvs_of_a_directory_quietly(tmp_path, capsys):
    d = tmp_path / "d"
    assert run_cli(["simulate", "--subjects", "S1,S2", "--out", str(d)]) == 0
    assert run_cli(["analyze", str(d), "--out", str(d)]) == 0  # its fit CSVs land in d
    assert sorted(p.name for p in d.glob("*_fit.csv")) == [
        "S1_extension_t00_fit.csv", "S2_extension_t00_fit.csv"
    ]
    capsys.readouterr()
    assert run_cli(["analyze", str(d), "--out", str(tmp_path / "an")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "totals: 2 traces" in out


def test_analyze_names_a_trace_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "e.csv"
    bad.write_bytes(b"t_s,actuator_mm,force_N\n0.0,50.0,\xff\n")
    assert run_cli(["analyze", str(bad), "--out", str(tmp_path / "an")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: e.csv: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def run_python(args, env=()):
    """A fresh interpreter with exosim on its path and ``env`` over this one's
    environment."""
    src = Path(cli.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(src), **dict(env)},
        capture_output=True, timeout=120,
    )


def test_utf8_files_read_alike_in_an_ascii_locale(tmp_path):
    """Traces, sidecars and a config file with UTF-8 comments are read as
    UTF-8 whatever the locale: an ASCII locale writes the default's bytes."""
    traces = tmp_path / "traces"
    assert run_cli(["simulate", "--out", str(traces), "--subjects", "S1,S4"]) == 0
    for path in traces.iterdir():
        path.write_bytes("# Messung \u00e4\n".encode() + path.read_bytes())
    config = tmp_path / "bench.yaml"
    config.write_text("# Pr\u00fcfstand\nanalysis:\n  trim_threshold_n: 2.5\n", encoding="utf-8")
    probe = run_python(["-c", "import locale; print(locale.getpreferredencoding())"], ASCII_LOCALE)
    assert probe.stdout == b"ANSI_X3.4-1968\n"  # the locale's text encoding is ASCII
    results = []
    for env in ({}, ASCII_LOCALE):
        out = tmp_path / f"out{len(results)}"
        args = ["analyze", str(traces), "--out", str(out), "--config", str(config)]
        proc = run_python(["-m", "exosim.cli", *args], env)
        assert proc.returncode == 0, proc.stderr
        results.append((proc.stdout, proc.stderr, tree(out)))
    assert results[0] == results[1]


def test_analyze_in_an_ascii_locale_warns_of_a_non_ascii_subject_id(tmp_path):
    """A sidecar subject id that no bench could have is a warning, also in an
    ASCII locale, and a trace stem the terminal cannot print is printed
    escaped; summary.txt keeps it as UTF-8."""
    traces, out = tmp_path / "traces", tmp_path / "an"
    assert run_cli(["simulate", "--out", str(traces), "--subjects", "S1"]) == 0
    side = traces / "S1_extension_t00.meta.yaml"
    side.write_text(side.read_text().replace("subject_id: S1", 'subject_id: "S\u00e4"'))
    warning = (
        b"warning: S1_extension_t00.meta.yaml: unreadable sidecar "
        b"(subject_id: 'S\\xe4' is not a bench's subject id)\n"
    )
    proc = run_python(["-m", "exosim.cli", "analyze", str(traces), "--out", str(out)], ASCII_LOCALE)
    assert (proc.returncode, proc.stderr) == (0, warning)
    assert b"S1_extension_t00 " in proc.stdout
    (traces / "S\u00e4_t01.csv").write_bytes((traces / "S1_extension_t00.csv").read_bytes())
    ascii_terminal = {"PYTHONUTF8": "1", "PYTHONIOENCODING": "ascii"}
    proc = run_python(["-m", "exosim.cli", "analyze", str(traces), "--out", str(out)], ascii_terminal)
    assert (proc.returncode, proc.stderr) == (0, warning)
    assert b"\nS\\xe4_t01 " in proc.stdout
    assert "\nS\u00e4_t01 " in (out / "summary.txt").read_text(encoding="utf-8")


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


@pytest.mark.parametrize("kind", ["extension", "pinch"])
def test_calibrated_config_reads_back_as_the_calibrated_bench(tmp_path, kind):
    """calibrate writes the config of ``Bench(cfg).calibrated()``: read back,
    it has that bench's joint depth and the input's network kind."""
    out = tmp_path / "cal"
    assert run_cli(["calibrate", "--out", str(out), "--set", f"network.kind={kind}"]) == 0
    expected = Bench(apply_overrides(default_config(), {"network.kind": kind})).calibrated()
    bench = Bench(load_config(out / "calibrated_config.yaml"))
    assert bench.hand.depth_mm == expected.hand.depth_mm
    assert bench.config["network"]["kind"] == kind


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


@pytest.mark.parametrize("slack", [None, "47.99999999"])
def test_calibrate_near_float_range_writes_a_config_that_reads_back(tmp_path, capsys, slack):
    """A peak band whose ends sum past float range, as its stiffness would be
    over a travel just past the engage slack: calibrate writes a config that
    simulate reads back, or exits 1 with one error line."""
    sets = ["--set", "subjects.S1.peak_band_n=[1e308, 1.7e308]"]
    if slack:
        sets += ["--set", f"subjects.S1.engage_slack_mm={slack}"]
    code = run_cli(["calibrate", "--out", str(tmp_path / "cal"), *sets])
    err = capsys.readouterr().err.splitlines()
    if slack:
        assert code == 1 and len(err) == 1
        assert err[0].startswith("error: a 1.35e+308 N peak over ") and "float range" in err[0]
        return
    assert (code, err) == (0, [])
    config = tmp_path / "cal" / "calibrated_config.yaml"
    assert "stiffness for a 1.35e+308 N peak" in config.read_text()
    assert run_cli(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0


def test_unreadable_sidecar_is_a_one_line_warning(tmp_path, capsys):
    """A sidecar outside exosim's YAML is one warning line naming the line
    and column where it stops."""
    traces = tmp_path / "traces"
    assert run_cli(["simulate", "--out", str(traces), "--subjects", "S1"]) == 0
    (traces / "S1_extension_t00.meta.yaml").write_text("a: [\n")
    capsys.readouterr()
    assert run_cli(["analyze", str(traces), "--out", str(tmp_path / "an")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: S1_extension_t00.meta.yaml: unreadable sidecar "
                   "(line 1, column 5: unexpected end of line)"]


def test_env_var_supplies_config(tmp_path, monkeypatch):
    cfg_file = tmp_path / "env.yaml"
    cfg_file.write_text("trial:\n  noise_sigma_n: 0.0\n")
    monkeypatch.setenv("EXOSIM_CONFIG", str(cfg_file))
    out = tmp_path / "traces"
    assert run_cli(["simulate", "--out", str(out), "--subjects", "S1"]) == 0
    meta = yaml.safe_load((out / "S1_extension_t00.meta.yaml").read_text())
    assert meta["noise_sigma_n"] == 0.0


def test_a_noise_flag_and_its_set_override_stamp_one_hash(tmp_path):
    """``--noise-sigma`` puts its parsed number into the config, as the same
    ``--set`` does, so both give one config and one trace."""
    flag, override = tmp_path / "flag", tmp_path / "set"
    base = ["simulate", "--subjects", "S1"]
    assert run_cli([*base, "--out", str(flag), "--noise-sigma", "1e-5"]) == 0
    assert run_cli([*base, "--out", str(override), "--set", "trial.noise_sigma_n=0.00001"]) == 0
    assert tree(flag) == tree(override)
    assert "# config: " in (flag / "S1_extension_t00.csv").read_text()


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


def test_reproduce_sweep_seed_matches_its_single_run(tmp_path, capsys):
    """A sweep reads its config and calibrates once: each seed of ``--seed
    0..2`` writes the same tree, byte for byte, and prints the same check
    lines, behind its ``[seed n] `` prefix, as that seed alone."""
    sweep = tmp_path / "sweep"
    assert run_cli(["reproduce", "--out", str(sweep), "--seed", "0..2"]) == 0
    sweep_lines = capsys.readouterr().out.splitlines()
    assert sorted(p.name for p in sweep.iterdir()) == ["seed_0", "seed_1", "seed_2"]
    for seed in range(3):
        single = tmp_path / f"single_{seed}"
        assert run_cli(["reproduce", "--out", str(single), "--seed", str(seed)]) == 0
        single_lines = capsys.readouterr().out.splitlines()
        assert len(tree(single)) == 22  # 5 traces + 5 sidecars + 10 reports, summary, manifest
        assert tree(sweep / f"seed_{seed}") == tree(single)
        prefix = f"[seed {seed}] "
        lines = [x.removeprefix(prefix) for x in sweep_lines if x.startswith(prefix)]
        assert len(lines) == len(single_lines) == 13  # 12 checks, then the manifest
        assert lines[:-1] == single_lines[:-1]
        assert lines[-1] == f"manifest: {sweep / f'seed_{seed}' / 'manifest.txt'}"
        assert single_lines[-1] == f"manifest: {single / 'manifest.txt'}"


def test_reproduce_sweep_runs_the_seed_independent_work_once(tmp_path, monkeypatch):
    """A sweep calibrates, and checks the pinch directions and the abduction
    neutrality of the calibrated bench, once for all its seeds."""
    from exosim import config, reproduce

    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(config.Bench, "calibrated")
    counted(reproduce, "_check_pinch_directions")
    counted(reproduce, "_check_abduction_neutrality")
    out = tmp_path / "rep"
    assert run_cli(["reproduce", "--out", str(out), "--seed", "0..2"]) == 0
    assert calls == {"calibrated": 1, "_check_pinch_directions": 1,
                     "_check_abduction_neutrality": 1}
    for seed in range(3):
        lines = (out / f"seed_{seed}" / "manifest.txt").read_text().splitlines()
        assert lines[0].startswith("PASS excursion_calibration: ")
        assert lines[-3].startswith("PASS pinch_directions: ")
        assert lines[-2].startswith("PASS abduction_neutrality: ")


def test_reproduce_checks_each_subjects_first_trial(tmp_path):
    """With three trials a subject, the peak-band and count checks read each
    subject's first trial, and the correlation band reads every trace."""
    out = tmp_path / "rep"
    assert run_cli(["reproduce", "--out", str(out), "--trials", "3"]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    for sid in ("S1", "S2", "S3", "S4", "S5"):
        report = yaml.safe_load((out / "reports" / f"{sid}_t00.report.yaml").read_text())
        (line,) = [x for x in lines if x.startswith(f"PASS peak_band_{sid}: ")]
        assert f"recorded peak {report['peak_force_n']:.2f} N" in line
    assert "PASS functional_extension_count: 4/5 subjects opened functionally: S1, S2, S3, S5" \
        in lines
    assert "PASS breakaway_count: 2/5 couplings released: S4, S5" in lines
    (band,) = [x for x in lines if x.startswith("PASS correlation_band: ")]
    assert " across 15 traces " in band
    assert len(list((out / "traces").glob("*.csv"))) == 15


def _one_error_line(capsys, out):
    """The one stderr line of a command that wrote nothing."""
    (line,) = capsys.readouterr().err.splitlines()
    assert not out.exists()
    return line


@pytest.mark.parametrize("command", ["simulate", "reproduce"])
def test_no_trials_is_refused_before_anything_is_written(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run_cli([command, "--out", str(out), "--trials", "0"]) == 1
    assert _one_error_line(capsys, out) == "error: trials per subject must be >= 1, got 0"


def test_a_library_sweep_with_no_trials_raises_before_writing(tmp_path):
    from exosim.reproduce import run_reproduction

    out = tmp_path / "rep"
    with pytest.raises(ValueError, match=r"^trials per subject must be >= 1, got 0$"):
        run_reproduction(Bench(default_config()), out, range(2), trials_per_subject=0)
    assert not out.exists()


@pytest.mark.parametrize("by", ["set", "config"])
def test_reproduce_refuses_the_pinch_network(tmp_path, capsys, by):
    """The campaign drives the extension network, so a config that selects
    the pinch network is an error, not a run of another network."""
    out = tmp_path / "rep"
    if by == "set":
        args = ["--set", "network.kind=pinch"]
    else:
        (tmp_path / "pinch.yaml").write_text("network:\n  kind: pinch\n")
        args = ["--config", str(tmp_path / "pinch.yaml")]
    assert run_cli(["reproduce", "--out", str(out), *args]) == 1
    assert _one_error_line(capsys, out) == (
        "error: reproduce drives the extension network; network.kind is 'pinch'"
    )


@pytest.mark.parametrize("command, seed", [
    ("reproduce", "-1"), ("simulate", "-5"), ("reproduce", "1..x"), ("reproduce", "..2"),
    ("reproduce", "3..1"), ("simulate", "1..2"),
    pytest.param("simulate", "1" * 5000, id="simulate-more-digits-than-int-reads"),
])
def test_a_bad_seed_is_named_by_its_flag(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    assert run_cli([command, "--out", str(out), "--seed", seed]) == 1
    rule = "a non-negative integer"
    if command == "reproduce":
        rule += " or a range a..b of them, a <= b"
    assert _one_error_line(capsys, out) == f"error: --seed must be {rule}, got {seed!r}"


def test_reproduce_fails_correlation_band_without_fitted_traces(tmp_path):
    """With a trim threshold above every force no trace is fitted, so the band
    check vouches for nothing."""
    out = tmp_path / "rep"
    args = ["reproduce", "--out", str(out), "--set", "analysis.trim_threshold_n=1000"]
    assert run_cli(args) == 2
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
    "hand.flexion_ranges_deg.finger_mcp=[-30,-5]",  # ranges that do not hold 0
    "hand.flexion_ranges_deg.finger_mcp=[5,30]",
    "subjects={}",  # an empty subject bank
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
    # a bool or bytes, which float() reads as 1.0
    "trial.sample_rate_hz=true",
    "actuator.stroke_mm=yes",
    "trial.noise_sigma_n=!!binary MQ==",
    # an integer past float range
    "trial.sample_rate_hz=1" + "0" * 400,
    "subjects.S1.stiffness_n_per_mm=1" + "0" * 400,
    # a rest fraction nested past the one level of digits, or holding itself
    "subjects.S1.rest_flexion_fraction={index: {index: 0.5}}",
    "subjects.S1.rest_flexion_fraction=&a {index: *a}",
    # paths the operating system refuses, "{tmp}" being the test's directory
    pytest.param(["--out", "{tmp}/t.csv/x"], id="out-below-a-file"),
    pytest.param(["--out", "{tmp}/t.csv"], id="out-is-a-file"),
    pytest.param(["--config", "{tmp}"], id="config-is-a-directory"),
]


@pytest.mark.parametrize("command", ["simulate", "analyze", "calibrate", "reproduce"])
@pytest.mark.parametrize("override", MALFORMED)
def test_malformed_config_fails_cleanly(tmp_path, capsys, command, override):
    args = [command, "--out", str(tmp_path / "out")]
    trace = tmp_path / "t.csv"
    trace.write_text("t_s,actuator_mm,force_N\n0.0,50.0,0.0\n0.1,49.5,4.0\n")
    if command == "analyze":
        args.append(str(trace))
    if override is None:
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text("hand: 3\n")
        args += ["--config", str(cfg_file)]
    elif isinstance(override, list):
        args += [arg.format(tmp=tmp_path) for arg in override]
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
    net = config1_extension(mcp_guide_mm=9.5)
    excursion = index_excursion_mm(hand, net)
    assert excursion == pytest.approx(57.0, abs=0.01)

    out = tmp_path / "rep"
    assert run_cli(["reproduce", "--out", str(out)] + guide) == 0
    manifest = (out / "manifest.txt").read_text()
    assert f"(depth {depth:.4f} mm)" in manifest


@pytest.mark.parametrize("lo", ["-20", "-60"])
def test_calibrate_without_flexion_names_the_bracket(tmp_path, capsys, lo):
    """MCP and PIP maxima of 0 leave the excursion flat in the depth (a
    maximum below 0 is a range without 0, a config error): calibrate names
    the empty bracket and writes nothing."""
    args = ["calibrate", "--out", str(tmp_path / "out")]
    for key in ("finger_mcp", "finger_pip"):
        args += ["--set", f"hand.flexion_ranges_deg.{key}=[{lo},0]"]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: target excursion 57\.0 mm unreachable: depths in \(0, 30\.0\] mm "
        r"give \(-?\d+\.\d{3}, -?\d+\.\d{3}\] mm\n",
        err,
    )
    assert not (tmp_path / "out").exists()


# --- analyze split over processes ---------------------------------------------------


def write_corpus(root, n=33):
    """``n`` traces: loaded, released (a drop to 0 N) and never loaded ones,
    malformed and ``nan`` rows, with and without sidecars."""
    root.mkdir(parents=True)
    rng = np.random.default_rng(11)
    for i in range(n):
        stem = f"S{i % 5 + 1}_c{i:02d}"
        kind = ("loaded", "released", "unloaded")[i % 3]
        lines = ["# exosim 0.1.0", "t_s,actuator_mm,force_N"]
        released = None
        for k in range(101):
            t, pos = k / 10, 50.0 - k / 2
            force = max(0.0, 0.8 * (48.0 - pos) + rng.normal(0.0, 0.4))
            if kind == "unloaded":
                force = rng.uniform(0.0, 2.0)
            elif kind == "released" and (released is not None or force > 20.0):
                released = t if released is None else released
                force = 0.0
            lines.append(f"{t:.6f},{pos:.6f},{force:.6f}")
        if i % 4 == 1:
            lines[30:30] = ["oops,1.0,2.0", "1.0,2.0", "0.5,nan,1.0", "1.0,2.0,inf"]
        (root / f"{stem}.csv").write_text("\n".join(lines) + "\n")
        if i % 2 == 0:
            (root / f"{stem}.meta.yaml").write_text(yaml.safe_dump({
                "subject_id": stem[:2], "stroke_mm": 50.0, "sample_rate_hz": 10.0,
                "breakaway": {"occurred": released is not None, "time_s": released},
                "functional_extension": bool(i % 3),
            }))


def analyze_with_cpus(monkeypatch, capsys, cpus, traces, out, *more, per_process=8):
    """``analyze traces *more`` with ``cpus`` usable CPUs and at least
    ``per_process`` traces a process (8 keeps the corpora small): exit code,
    stdout, stderr and the number of processes it forked, after checking that
    it left no child and no frozen object behind."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", counting_fork)
        m.setattr(cli, "TRACES_PER_PROCESS", per_process)
        code = run_cli(["analyze", str(traces), *map(str, more), "--out", str(out)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    captured = capsys.readouterr()
    return code, captured.out, captured.err, len(forks)


@pytest.mark.parametrize("enabled, frozen", [(True, False), (False, True)])
@pytest.mark.parametrize("command", ["simulate", "analyze", "calibrate", "reproduce"])
def test_main_in_process_leaves_the_collector_as_found(tmp_path, command, enabled, frozen):
    """Only a CLI process freezes what it loaded: a caller of ``main([...])``
    keeps its collector on or off, its frozen objects frozen and the others
    not.  A frozen object that loses its last reference during the run leaves
    the freeze count, so beside the count this follows one object of each
    kind: the collector's generations hold exactly the ones not frozen."""
    args = [command, "--out", str(tmp_path / "out")]
    if command == "analyze":
        assert run_cli(["simulate", "--out", str(tmp_path / "traces")]) == 0
        args.append(str(tmp_path / "traces"))
    kept = []
    try:
        if frozen:
            gc.freeze()
        if not enabled:
            gc.disable()
        made = []
        before = gc.get_freeze_count()
        assert run_cli(args) == 0
        assert gc.isenabled() is enabled
        assert (0 < gc.get_freeze_count() <= before) if frozen else gc.get_freeze_count() == 0
        tracked = {id(obj) for obj in gc.get_objects()}
        assert (id(kept) in tracked, id(made) in tracked) == (not frozen, True)
    finally:
        gc.enable()
        gc.unfreeze()


@pytest.mark.parametrize("cpus", [2, 3])
def test_analyze_split_writes_the_bytes_of_the_serial_run(tmp_path, monkeypatch, capsys, cpus):
    write_corpus(tmp_path / "traces")
    serial = analyze_with_cpus(monkeypatch, capsys, 1, tmp_path / "traces", tmp_path / "one")
    split = analyze_with_cpus(monkeypatch, capsys, cpus, tmp_path / "traces", tmp_path / "n")
    assert serial[3] == 0 and split[3] == cpus - 1
    assert split[:3] == serial[:3]
    assert serial[0] == 0 and "warning: S2_c01.csv:31" in serial[2]
    assert "totals: 33 traces, 11 degenerate" in serial[1]
    assert tree(tmp_path / "n") == tree(tmp_path / "one")
    assert len(tree(tmp_path / "one")) == 2 * 33 + 1


@pytest.mark.parametrize("extra, forks", [(-1, 0), (0, 1)])
def test_analyze_forks_only_for_two_full_shares(tmp_path, monkeypatch, capsys, extra, forks):
    write_corpus(tmp_path / "traces", n=2 * cli.TRACES_PER_PROCESS + extra)
    code, _, _, forked = analyze_with_cpus(
        monkeypatch, capsys, 4, tmp_path / "traces", tmp_path / "an",
        per_process=cli.TRACES_PER_PROCESS,
    )
    assert (code, forked) == (0, forks)


@pytest.mark.parametrize("fault", ["not-utf8", "report-unwritable"])
def test_analyze_split_fails_like_the_serial_run(tmp_path, monkeypatch, capsys, fault):
    """A trace that fails, in a child's share: the warnings of the traces
    before it, then its error, exit 1; the serial run writes nothing after
    it."""
    write_corpus(tmp_path / "traces")
    # 18th of 33 in name order: the middle share of three, after a trace
    # of that share that warns (S2_c21, the 12th)
    if fault == "not-utf8":
        (tmp_path / "traces" / "S3_c17.csv").write_bytes(b"t_s,actuator_mm,force_N\n\xff\n")
        expected = "error: S3_c17.csv: 'utf-8' codec can't decode byte 0xff"
    else:
        (tmp_path / "out" / "S3_c17.report.yaml").mkdir(parents=True)
        expected = "error: [Errno 21] Is a directory"
    serial = analyze_with_cpus(monkeypatch, capsys, 1, tmp_path / "traces", tmp_path / "out")
    assert len(tree(tmp_path / "out")) == 2 * 17
    split = analyze_with_cpus(monkeypatch, capsys, 3, tmp_path / "traces", tmp_path / "out")
    assert (serial[3], split[3]) == (0, 2)
    assert split[:2] == serial[:2] == (1, "")
    # a failed rename names its temporary file, whose name holds the writer's pid
    temporary = re.compile(r"\.S3_c17\.report\.yaml\.\w+\.tmp")
    assert temporary.sub("", split[2]) == temporary.sub("", serial[2])
    *warnings, error = serial[2].splitlines()
    assert error.startswith(expected)
    warned = {w.removeprefix("warning: ").split(":")[0] for w in warnings}
    assert warned == {"S1_c05.csv", "S1_c25.csv", "S2_c01.csv", "S2_c21.csv"}


@pytest.mark.parametrize("second, repeat", [
    ("b", "b/S1_c00.csv"), ("a/S1_c05.csv", "a/S1_c05.csv")
])
def test_analyze_rejects_two_traces_with_one_stem(tmp_path, monkeypatch, capsys, second, repeat):
    """Their report files would have the same names, so whichever was written
    last would win.  Two directories with the same file names, or a directory
    and one of its files, fail before anything is written."""
    write_corpus(tmp_path / "a", n=16)
    write_corpus(tmp_path / "b", n=16)
    code, out, err, forks = analyze_with_cpus(
        monkeypatch, capsys, 2, tmp_path / "a", tmp_path / "an", tmp_path / second
    )
    assert (code, out, forks) == (1, "", 0)
    first = tmp_path / "a" / Path(repeat).name
    assert err == f"error: two traces named {first.stem}: {first} and {tmp_path / repeat}\n"
    assert not (tmp_path / "an").exists()


def test_analyze_rejects_a_trace_name_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    """Its stem cannot be written into its report, so it fails, naming the
    file's bytes, before anything is written."""
    write_corpus(tmp_path / "a", n=3)
    bad = os.fsencode(tmp_path / "a") + b"/S\xe4_t01.csv"
    try:
        os.rename(os.fsencode(tmp_path / "a" / "S2_c01.csv"), bad)
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    code, out, err, forks = analyze_with_cpus(
        monkeypatch, capsys, 2, tmp_path / "a", tmp_path / "an", per_process=1
    )
    assert (code, out, forks) == (1, "", 0)
    assert err == f"error: trace file name is not UTF-8: {bad}\n"
    assert not (tmp_path / "an").exists()


def test_analyze_in_an_ascii_locale_rejects_a_non_ascii_trace_name(tmp_path):
    """With UTF-8 mode off, an ASCII locale reads the name's bytes as
    surrogate escapes, so the same early error names them."""
    write_corpus(tmp_path / "a", n=3)
    (tmp_path / "a" / "S2_c01.csv").rename(tmp_path / "a" / "S\u00e4_t01.csv")
    args = ["-m", "exosim.cli", "analyze", str(tmp_path / "a"), "--out", str(tmp_path / "an")]
    proc = run_python(args, ASCII_LOCALE)
    bad = os.fsencode(tmp_path / "a" / "S\u00e4_t01.csv")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == f"error: trace file name is not UTF-8: {bad}\n".encode()
    assert not (tmp_path / "an").exists()


def test_analyze_child_that_dies_is_an_error(tmp_path, monkeypatch, capsys):
    write_corpus(tmp_path / "traces", n=16)
    parent = os.getpid()
    analyze_trace = cli._analyze_trace

    def dies_in_child(path, out, analysis):
        if os.getpid() != parent:
            os._exit(3)
        return analyze_trace(path, out, analysis)

    monkeypatch.setattr(cli, "_analyze_trace", dies_in_child)
    code, out, err, forks = analyze_with_cpus(
        monkeypatch, capsys, 2, tmp_path / "traces", tmp_path / "an"
    )
    assert (code, out, forks) == (1, "", 1)
    assert err.splitlines()[-1] == (
        "error: the analysis of S3_c07.csv to S5_c14.csv ended without a result"
    )
