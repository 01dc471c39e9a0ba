import math
import re
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from exosim import config
from exosim.cli import main
from exosim.config import (
    Bench,
    ConfigError,
    apply_overrides,
    config_hash,
    default_config,
    load_config,
    write_config,
)
from exosim.hand import Digit, JointKind
from exosim.spasticity import MasLevel, SubjectProfile
from exosim.tendons import NetworkKind
from exosim.traceio import (
    read_trace,
    render_trace_csv,
    sidecar_path,
    write_trace,
)


def test_default_config_builds_everything():
    bench = Bench.from_config(default_config())
    hand = bench.hand
    assert len(hand.joints) == 20
    assert hand.depth_mm == pytest.approx(9.215)
    assert bench.network.kind is NetworkKind.EXTENSION
    assert bench.pinch.kind is NetworkKind.PINCH
    bank = bench.bank
    assert bank.ids() == ("S1", "S2", "S3", "S4", "S5")
    _, _, s3, s4, _ = bank
    assert s3.rest_pose[hand.col((Digit.INDEX, JointKind.MCP))] == pytest.approx(67.5)
    assert s4.peak_band_n == (35.0, None)


def test_config_file_merges_over_defaults(tmp_path):
    path = tmp_path / "bench.yaml"
    path.write_text("trial:\n  noise_sigma_n: 0.9\nnetwork:\n  kind: pinch\n")
    cfg = load_config(path)
    assert cfg["trial"]["noise_sigma_n"] == 0.9
    assert cfg["network"]["kind"] == "pinch"
    # untouched sections keep their defaults
    assert cfg["actuator"]["stroke_mm"] == 50.0


def test_missing_config_file_errors():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/exosim.yaml")


def test_config_file_is_utf8_and_named_when_it_is_not(tmp_path):
    path = tmp_path / "bench.yaml"
    path.write_text("# Pr\u00fcfstand\ntrial:\n  noise_sigma_n: 0.9\n", encoding="utf-8")
    assert load_config(path)["trial"]["noise_sigma_n"] == 0.9
    path.write_bytes(b"# Pr\xfcfstand\ntrial:\n  noise_sigma_n: 0.9\n")  # Latin-1
    with pytest.raises(ConfigError, match=f"^cannot parse config {re.escape(str(path))}: 'utf-8'"):
        load_config(path)


def test_overrides_dotted_keys():
    cfg = apply_overrides(default_config(), {"trial.noise_sigma_n": "0.25"})
    assert cfg["trial"]["noise_sigma_n"] == 0.25
    cfg = apply_overrides(cfg, {"subjects.S1.stiffness_n_per_mm": "0.5"})
    assert cfg["subjects"]["S1"]["stiffness_n_per_mm"] == 0.5


def test_config_hash_tracks_content():
    a = default_config()
    b = apply_overrides(a, {"trial.noise_sigma_n": "0.9"})
    assert config_hash(a) == config_hash(default_config())
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 12


# Short printable ASCII, keys not empty: text that neither emitter escapes or
# folds across lines, on which libyaml's emitter and PyYAML's own agree.
_ASCII = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=40)
_KEYS = _ASCII.filter(bool)
_VALUES = st.one_of(
    _ASCII, st.floats(), st.integers(), st.none(), st.booleans(), st.lists(_ASCII, max_size=3)
)


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML built without libyaml")
@settings(max_examples=200, deadline=None)
@given(
    subjects=st.dictionaries(_KEYS, st.dictionaries(_KEYS, _VALUES), max_size=3),
    notes=st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=200),
)
def test_config_hash_is_the_same_with_and_without_libyaml(subjects, notes):
    """Also for every ``notes`` that a bench accepts: up to 200 printable
    ASCII characters, long enough for both emitters to fold the line.  PyYAML
    writes every document here, as it does each one that exosim's own
    emitter declines."""
    cfg = default_config()
    cfg["subjects"]["S1"]["notes"] = notes
    cfg["subjects"].update(subjects)
    with mock.patch.object(config, "_emit", lambda data: None):
        with_libyaml = config.canonical_yaml(cfg)
        with mock.patch.object(config, "YAML_DUMPER", yaml.SafeDumper):
            assert config.canonical_yaml(cfg) == with_libyaml


# Strings for each rule of the emitter: typed and indicator strings it quotes,
# words and sentences it writes plain (the longer ones past column 80, where
# PyYAML folds them), and printable ASCII, most of which it leaves to PyYAML.
_RULES = ["", "2", "012", "0x1f", "1_000", "1.5", ".5", "-.inf", ".NaN", "2024-01-02", "yes",
          "No", "NULL", "on", "OFF", "0.1.0", "1e5", "nan", "-", "- a", "---", "...x", "._1", "a b"]
_WORD = st.text(st.sampled_from("abcxyzAZ0129_.-"), min_size=1, max_size=12)
_SENTENCES = st.text(st.sampled_from("abyz09_.-  "), min_size=50, max_size=90).map(
    lambda text: " ".join(text.split())
)
_PLAIN = st.one_of(st.sampled_from(_RULES), _WORD, _SENTENCES)
_STRINGS = st.one_of(_PLAIN, st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=90))
_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e17, 1e-7, 5e-324])
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _STRINGS)
# Documents of the forms the emitter writes, and any others.
_DOCS = st.one_of(
    st.recursive(
        st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
        lambda nodes: st.dictionaries(_PLAIN, nodes, max_size=4),
        max_leaves=12,
    ),
    st.recursive(
        _SCALARS,
        lambda nodes: st.lists(nodes, max_size=3) | st.dictionaries(_STRINGS, nodes, max_size=4),
        max_leaves=12,
    ),
).map(lambda node: node if isinstance(node, dict) else {"a": node})
_DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if hasattr(yaml, "CSafeDumper") else [])


def _pyyaml_dump(data, dumper):
    return yaml.dump(data, Dumper=dumper, sort_keys=True, default_flow_style=False)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
@example(doc={"a": " ".join(["word"] * 15), "b": {"note": "x" * 69, "nested": {"c": "y" * 67}}})
@example(doc={"shared": (shared := [1.0]), "again": shared})
@example(doc={"a": {}, "b": [], "c": [[]], "d": [{"e": 1}], "f": (1, 2), "": 0})
def test_dump_yaml_writes_what_pyyaml_writes(doc):
    """exosim's emitter writes a document as each of PyYAML's emitters does,
    or declines it, and ``dump_yaml`` then leaves it to PyYAML."""
    text = config._emit(doc)
    expected = [_pyyaml_dump(doc, dumper) for dumper in _DUMPERS]
    if text is not None:
        assert [text] * len(_DUMPERS) == expected
    assert config.dump_yaml(doc) == expected[-1]  # libyaml's, where PyYAML has it


def test_the_emitter_writes_the_documents_exosim_writes(tmp_path):
    """The default config, a sidecar and a report take the emitter, not PyYAML."""
    cfg = default_config()
    assert config._emit(cfg) == _pyyaml_dump(cfg, yaml.SafeDumper)
    assert main(["simulate", "--out", str(tmp_path / "sim"), "--subjects", "S1"]) == 0
    assert main(["analyze", str(tmp_path / "sim"), "--out", str(tmp_path / "an")]) == 0
    for path in [*tmp_path.glob("sim/*.meta.yaml"), *tmp_path.glob("an/*.report.yaml")]:
        assert config._emit(yaml.safe_load(path.read_text())) == path.read_text()


@settings(max_examples=500, deadline=None)
@given(text=_STRINGS)
@example(text="pinch")
@example(text="index finger graded 2")
def test_a_plain_word_override_is_what_pyyaml_reads(text):
    """An override value that is a plain word is read without PyYAML, as
    the string that PyYAML reads; any other goes to PyYAML."""
    with mock.patch.object(config, "load_yaml", lambda raw: ("PyYAML", raw)):
        got = apply_overrides({}, {"key": text})["key"]
    if config.plain_word(text):
        assert got == text == yaml.safe_load(text)
    else:
        assert got == ("PyYAML", text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("subjects.S1.stiffness_n_per_mm", ".nan"),
        ("subjects.S1.engage_slack_mm", ".nan"),
        ("subjects.S1.rest_flexion_fraction", ".nan"),
        ("subjects.S3.rest_flexion_fraction.index", ".inf"),
        ("subjects.S4.peak_band_n", "[35, .inf]"),
        ("subjects.S4.peak_band_n", "[.nan, null]"),
        ("network.branch_slack_mm", ".inf"),
        ("network.pinch.dip_guide_mm", ".nan"),
        ("analysis.trim_threshold_n", ".nan"),
        ("load_cell.resolution_n", ".inf"),
        ("trial.noise_sigma_n", ".nan"),
        ("hand.joint_center_depth_mm", ".inf"),
        ("hand.flexion_ranges_deg.finger_pip", "[0, .inf]"),
        ("calibration.excursion_target_mm", "-.inf"),
    ],
)
def test_non_finite_config_number_is_rejected_by_its_key(tmp_path, capsys, key, value):
    cfg = apply_overrides(default_config(), {key: value})
    message = f"invalid config: {key} must be a finite number"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        Bench.from_config(cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--set", f"{key}={value}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_open_peak_band_stays_allowed():
    cfg = apply_overrides(default_config(), {"subjects.S1.peak_band_n": "[15, null]"})
    s1, *_ = Bench.from_config(cfg).bank
    assert (s1.subject_id, s1.peak_band_n) == ("S1", (15.0, None))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("subjects.S1.rest_flexion_fraction", "1.5",
         "subjects.S1.rest_flexion_fraction must be in [0, 1], got 1.5"),
        ("subjects.S1.rest_flexion_fraction", "-0.5",
         "subjects.S1.rest_flexion_fraction must be in [0, 1], got -0.5"),
        ("subjects.S1.rest_flexion_fraction", "{index: 2.0}",
         "subjects.S1.rest_flexion_fraction.index must be in [0, 1], got 2.0"),
        ("subjects.S3.rest_flexion_fraction.default", "-0.01",
         "subjects.S3.rest_flexion_fraction.default must be in [0, 1], got -0.01"),
        ("subjects.S1.peak_band_n", "[20, 15]",
         "subjects.S1.peak_band_n must have lo <= hi, got [20.0, 15.0]"),
        ("subjects.S1.peak_band_n", "[1, 2, 3]",
         "subjects.S1.peak_band_n must be two numbers [lo, hi], got [1, 2, 3]"),
        ("subjects.S1.peak_band_n", "[20]",
         "subjects.S1.peak_band_n must be two numbers [lo, hi], got [20]"),
        ("subjects.S1.peak_band_n", "[null, 20]",
         "subjects.S1.peak_band_n must be a finite number, got None"),
        ("hand.flexion_ranges_deg.finger_mcp", "[0, 80, 5]",
         "hand.flexion_ranges_deg.finger_mcp must be two numbers [lo, hi], got [0, 80, 5]"),
        ("hand.flexion_ranges_deg.finger_mcp", "[5]",
         "hand.flexion_ranges_deg.finger_mcp must be two numbers [lo, hi], got [5]"),
        ("hand.flexion_ranges_deg.finger_mcp", "[0, null]",
         "hand.flexion_ranges_deg.finger_mcp must be a finite number, got None"),
        ("hand.flexion_ranges_deg.finger_mcp", "[10, 10]",
         "hand.flexion_ranges_deg.finger_mcp must have lo < hi, got [10.0, 10.0]"),
        ("hand.flexion_ranges_deg.finger_mcp", "[20, 10]",
         "hand.flexion_ranges_deg.finger_mcp must have lo < hi, got [20.0, 10.0]"),
        ("hand.flexion_ranges_deg.finger_mcp", "[-30, -5]",
         "hand.flexion_ranges_deg.finger_mcp must hold 0, got [-30.0, -5.0]"),
        ("hand.flexion_ranges_deg.finger_mcp", "[5, 30]",
         "hand.flexion_ranges_deg.finger_mcp must hold 0, got [5.0, 30.0]"),
        ("hand.flexion_ranges_deg.finger_pip", "[-20, -10]",
         "hand.flexion_ranges_deg.finger_pip must hold 0, got [-20.0, -10.0]"),
        ("calibration.depth_tolerance_mm", "-1",
         "calibration.depth_tolerance_mm must be > 0, got -1.0"),
        ("calibration.depth_tolerance_mm", "0",
         "calibration.depth_tolerance_mm must be > 0, got 0.0"),
        ("subjects", "{}", "subjects must name at least one subject"),
        ("subjects.S1.mas", "9", "subjects.S1.mas must be one of '1', '1+', '2', '3', got 9"),
        ("subjects.S1.mas", "1-", "subjects.S1.mas must be one of '1', '1+', '2', '3', got '1-'"),
        ("subjects.S1.mas", "null",
         "subjects.S1.mas must be one of '1', '1+', '2', '3', got None"),
        ("network.kind", "foo", "network.kind must be one of 'extension', 'pinch', got 'foo'"),
        ("subjects.S1.rest_flexion_fraction.foo", "0.5",
         "the digit of subjects.S1.rest_flexion_fraction.foo must be one of 'thumb', 'index', "
         "'middle', 'ring', 'little', got 'foo'"),
        ("actuator.stroke_mm", "-1", "actuator.stroke_mm must be > 0"),
        ("load_cell.range_max_n", "1e308", "load_cell.range_max_n / resolution_n must be finite"),
        ("load_cell.resolution_n", "1e-310",
         "load_cell.range_max_n / resolution_n must be finite"),
        ("hand.joint_center_depth_mm", "1e308",
         "hand.joint_center_depth_mm and network.extension give a tendon excursion beyond "
         "float range"),
        ("network.pinch.thumb_ip_guide_mm", "1.7e308",
         "hand.joint_center_depth_mm and network.pinch give a tendon excursion beyond float range"),
        ("subjects.S1.stiffness_n_per_mm", "1e308",
         "subjects.S1.stiffness_n_per_mm gives a spring force beyond float range"),
    ],
)
def test_out_of_range_config_value_is_rejected_by_its_key(tmp_path, capsys, key, value, message):
    """A rest fraction outside [0, 1], a band or range that is not two numbers
    in order, a flexion range without 0, a depth tolerance that is not
    positive, an empty subject bank, a MAS grade, network kind or digit that
    is not one, and a number that overflows in a trial fail naming their
    dotted key, before anything is written."""
    cfg = apply_overrides(default_config(), {key: value})
    with pytest.raises(ConfigError, match=f"^{re.escape('invalid config: ' + message)}$"):
        Bench.from_config(cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--set", f"{key}={value}"]) == 1
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("subjects.S1.rest_flexion_fraction", "0"),
        ("subjects.S1.rest_flexion_fraction", "1"),
        ("subjects.S3.rest_flexion_fraction", "{default: 0.0, index: 1.0}"),
        ("subjects.S1.peak_band_n", "[15, 15]"),
    ],
)
def test_config_values_at_their_bounds_are_allowed(key, value):
    Bench.from_config(apply_overrides(default_config(), {key: value}))


@pytest.mark.parametrize(
    "key, value, missing",
    [
        ("subjects.P1.mas", "2", "subjects.P1.rest_flexion_fraction"),
        ("subjects.P1", "{rest_flexion_fraction: 0.5, mas: '2'}", "subjects.P1.stiffness_n_per_mm"),
        ("subjects.P1", "{rest_flexion_fraction: 0.5, stiffness_n_per_mm: 0.4}", "subjects.P1.mas"),
    ],
)
def test_subject_missing_a_key_is_rejected_by_its_key(tmp_path, capsys, key, value, missing):
    """A new subject that gives only some of the keys a subject needs fails
    naming the first missing one as a dotted key, like every other subject
    error, before anything is written."""
    cfg = apply_overrides(default_config(), {key: value})
    message = f"config is missing key {missing!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Bench.from_config(cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--set", f"{key}={value}"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, hint, known",
    [
        ("trial.noise_sigm", "did you mean 'noise_sigma_n'? ",
         "sample_rate_hz, noise_sigma_n, functional_flexion_deg"),
        ("subjects.S1.stifness_n_per_mm", "did you mean 'stiffness_n_per_mm'? ",
         "mas, stiffness_n_per_mm, rest_flexion_fraction, magnet, peak_band_n, notes, "
         "engage_slack_mm"),
        ("network.extention", "did you mean 'extension'? ",
         "kind, branch_slack_mm, extension, pinch"),
        ("hand.zzz", "", "joint_center_depth_mm, flexion_ranges_deg"),
    ],
)
def test_unknown_key_error_suggests_the_closest_known_key(key, hint, known):
    """The error names the unknown key, the closest known key of its section
    if one is close, and all of that section's known keys."""
    cfg = apply_overrides(default_config(), {key: "1"})
    message = f"invalid config: unknown key {key!r}; {hint}known keys: {known}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Bench.from_config(cfg)


@pytest.mark.parametrize("notes", ["x\x01y" * 40, "x" * 201, "é", 5, None, ["a"]])
def test_notes_that_could_hash_differently_are_rejected(notes):
    """Notes must be at most 200 printable ASCII characters, on which the two
    YAML emitters agree."""
    cfg = default_config()
    cfg["subjects"]["S1"]["notes"] = notes
    with pytest.raises(ConfigError, match="subjects.S1.notes must be at most 200 printable"):
        Bench.from_config(cfg)


def test_unknown_network_kind_rejected():
    cfg = apply_overrides(default_config(), {"network.kind": "lasso"})
    with pytest.raises(ConfigError):
        Bench.from_config(cfg)


def test_new_subject_keeps_profile_defaults():
    """A subject that leaves out the optional keys gets SubjectProfile's defaults."""
    cfg = default_config()
    cfg["subjects"]["S6"] = {"mas": "2", "stiffness_n_per_mm": 0.4, "rest_flexion_fraction": 0.5}
    *_, s6 = Bench.from_config(cfg).bank
    defaults = SubjectProfile("S6", MasLevel.TWO, 0.4, s6.rest_pose)
    assert vars(s6) == vars(defaults)


SUBJECT = {"mas": "2", "stiffness_n_per_mm": 0.4, "rest_flexion_fraction": 0.5}


@pytest.mark.parametrize("sid", ["S6", "a", "7", "A-b_9", "x" * 32])
def test_subject_id_that_is_a_file_name_stem_is_accepted(sid):
    cfg = default_config()
    cfg["subjects"][sid] = SUBJECT
    assert sid in Bench.from_config(cfg).bank.ids()


@pytest.mark.parametrize(
    "sid",
    ["../evil", "", "a/b", "a\\b", "a.b", ".hidden", "-x", "_x", "S1\r", "S 1", "é", "x" * 33, 1],
)
def test_subject_id_that_is_not_a_file_name_stem_is_rejected(sid):
    cfg = default_config()
    cfg["subjects"][sid] = SUBJECT
    with pytest.raises(ConfigError, match="subject id"):
        Bench.from_config(cfg)


def test_simulate_writes_nothing_for_a_bad_subject_id(tmp_path, capsys):
    """``../evil`` would put its trace beside --out, not in it."""
    cfg_file = tmp_path / "evil.yaml"
    cfg_file.write_text(yaml.safe_dump({"subjects": {"../evil": SUBJECT}}))
    out = tmp_path / "box" / "out"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid config: subject id '../evil'")
    assert not (tmp_path / "box").exists()


def test_config_file_subjects_replace_the_default_bank(tmp_path):
    """A file's subjects are complete entries and the whole bank, so simulate
    runs that one subject; an override still edits one subject."""
    cfg_file = tmp_path / "one.yaml"
    cfg_file.write_text(yaml.safe_dump({"subjects": {"P1": SUBJECT}}))
    cfg = apply_overrides(load_config(cfg_file), {"subjects.P1.stiffness_n_per_mm": "0.5"})
    assert cfg["subjects"] == {"P1": dict(SUBJECT, stiffness_n_per_mm=0.5)}
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "P1_extension_t00.csv", "P1_extension_t00.meta.yaml"
    ]


def test_bench_reads_the_coupling_magnet_and_derives_the_travel():
    bench = Bench.from_config(default_config())
    assert bench.magnet is None
    assert bench.effective_travel_mm == 48.0
    cfg = apply_overrides(
        default_config(),
        {"coupling.magnet": "strong", "actuator.stroke_mm": "40", "network.branch_slack_mm": "3"},
    )
    bench = Bench.from_config(cfg)
    assert bench.magnet == "strong"
    assert bench.effective_travel_mm == 37.0
    assert bench.trial_configs["S1"].coupling.breakaway_force_n == 41.0


def test_write_config_round_trip(tmp_path):
    cfg = apply_overrides(default_config(), {"trial.noise_sigma_n": "0.7"})
    out = tmp_path / "derived.yaml"
    write_config(cfg, out, provenance=["solved something"])
    text = out.read_text()
    assert text.startswith("# solved something\n")
    again = load_config(out)
    assert again["trial"]["noise_sigma_n"] == 0.7


# --- trace round trips -------------------------------------------------------------


def test_trace_csv_format(noiseless_traces):
    text = render_trace_csv(noiseless_traces["S1"], config_hash="cafe01234567")
    lines = text.splitlines()
    assert lines[0].startswith("# exosim ")
    assert "# config: cafe01234567" in lines[:3]
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "t_s,actuator_mm,force_N"
    first = lines[header_idx + 1].split(",")
    assert first == ["0.000000", "50.000000", "0.000000"]
    assert all(len(part.split(".")[1]) == 6 for part in first)


def test_trace_write_read_round_trip(tmp_path, noiseless_traces):
    trace = noiseless_traces["S4"]
    path = write_trace(trace, tmp_path / "S4_t00.csv", config_hash="beef")
    loaded, warnings = read_trace(path)
    assert warnings == []
    assert len(loaded) == len(trace)
    # values survive at the 1e-6 precision of the file format
    assert np.allclose(loaded.force_n, trace.force_n, atol=1e-6)
    assert np.allclose(loaded.actuator_mm, trace.actuator_mm, atol=1e-6)
    assert loaded.subject_id == "S4"
    assert loaded.stroke_mm == 50.0
    assert loaded.breakaway is True
    assert loaded.breakaway_time_s == pytest.approx(trace.breakaway_time_s)
    assert loaded.functional_extension is False


def test_trace_rewrite_byte_identical(tmp_path, noiseless_traces):
    trace = noiseless_traces["S2"]
    p1 = write_trace(trace, tmp_path / "a.csv", config_hash="0123")
    loaded, _ = read_trace(p1)
    p2 = write_trace(loaded, tmp_path / "b.csv", config_hash="0123")
    assert p1.read_bytes().split(b"\n", 3)[3] == p2.read_bytes().split(b"\n", 3)[3]


def test_read_trace_skips_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "t_s,actuator_mm,force_N\n"
        "0.000000,50.000000,0.000000\n"
        "0.010000,49.950000\n"
        "not,a,number\n"
        "0.020000,49.900000,0.392000\n"
    )
    trace, warnings = read_trace(path)
    assert len(trace) == 2
    assert len(warnings) == 2
    assert "3" in warnings[0]  # line numbers reported
    assert "4" in warnings[1]


def test_read_trace_without_sidecar_infers_stroke(tmp_path):
    path = tmp_path / "anon.csv"
    path.write_text(
        "t_s,actuator_mm,force_N\n"
        "0.000000,42.000000,0.000000\n"
        "0.010000,41.000000,3.000000\n"
    )
    trace, _ = read_trace(path)
    assert trace.stroke_mm == 42.0
    assert trace.breakaway is False


def test_sidecar_path_naming(tmp_path):
    assert sidecar_path(tmp_path / "x_t00.csv").name == "x_t00.meta.yaml"
