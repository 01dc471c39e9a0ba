"""Golden-output gate: every artifact of a fixed set of CLI runs, by hash.

Each run goes in-process through ``exosim.cli.main`` into its own directory.
For each run the gate records the exit code, the sha256 of stdout (with the
output root masked), and the sha256 of every file it wrote, by relative path.
A refactor that claims "same behaviour" must leave all of them unchanged.

The noise stream comes from numpy's ``Generator.normal``, which numpy does not
promise to keep stable across versions, so the test skips when the installed
numpy differs from the one the hashes were written with.

After a change that alters outputs on purpose, regenerate the hashes with::

    python tests/test_golden.py --write

which lists the keys whose hash changed against the file it replaces, with
their count per file kind, so a regeneration shows its scope.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest
import yaml

from exosim import config, traceio
from exosim.cli import main

HASHES = Path(__file__).with_name("golden") / "hashes.txt"

SIM = ["simulate", "--seed", "3", "--subjects", "S1..S5"]

# Non-default values in every section the bench reads.  The extension guide
# heights stay at their defaults: they also steer the depth calibration.
SETS = [
    f"--set={kv}"
    for kv in (
        "network.branch_slack_mm=3",
        "network.pinch.dip_guide_mm=7",
        "trial.sample_rate_hz=20",
        "trial.noise_sigma_n=0.3",
        "trial.functional_flexion_deg=120",
        "actuator.max_speed_mm_s=4",
        "actuator.peak_force_n=60",
        "load_cell.resolution_n=0.1",
        "load_cell.range_max_n=45",
        "analysis.trim_threshold_n=2",
        "analysis.drop_threshold_n=8",
        "analysis.drop_floor_n=0.5",
        "hand.joint_center_depth_mm=9.5",
        "hand.flexion_ranges_deg.finger_pip=[0,95]",
        "calibration.excursion_target_mm=56",
        "calibration.depth_tolerance_mm=0.02",
        "coupling.magnet=strong",
        "subjects.S2.stiffness_n_per_mm=0.7",
    )
]

# (run name, argv); "{name}" in argv stands for an earlier run's directory.
RUNS = [
    ("reproduce", ["reproduce", "--seed", "0..1"]),
    ("simulate_own", SIM),
    ("simulate_standard", SIM + ["--magnet", "standard"]),
    ("simulate_strong", SIM + ["--magnet", "strong"]),
    ("simulate_pinch", SIM + ["--tendon-config", "pinch"]),
    ("analyze", ["analyze", "{simulate_own}"]),
    ("calibrate", ["calibrate"]),
    ("simulate_set", SIM + SETS),
    ("simulate_pinch_set", SIM + ["--tendon-config", "pinch"] + SETS),
    ("analyze_set", ["analyze", "{simulate_set}"] + SETS),
    ("calibrate_set", ["calibrate"] + SETS),
    ("reproduce_set", ["reproduce", "--seed", "0"] + SETS),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "pyyaml": yaml.__version__}


def collect(root: Path) -> dict[str, str]:
    """Run every entry of RUNS under ``root``; map each record to its value."""
    record: dict[str, str] = {}
    for name, argv in RUNS:
        out = root / name
        args = [a.format(**{n: str(root / n) for n, _ in RUNS}) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(args + ["--out", str(out)])
        record[f"{name} exit"] = str(code)
        record[f"{name} stdout"] = _sha(stdout.getvalue().replace(str(root), "<out>").encode())
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            record[f"{name} {path.relative_to(out).as_posix()}"] = _sha(path.read_bytes())
    return record


def read_hashes(path: Path = HASHES) -> tuple[dict[str, str], dict[str, str]]:
    header: dict[str, str] = {}
    record: dict[str, str] = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        if key.startswith("version "):
            header[key.split(" ", 1)[1]] = value
        else:
            record[key] = value
    return header, record


def write_hashes(record: dict[str, str], path: Path = HASHES) -> None:
    lines = [
        "# Golden outputs of the CLI runs in tests/test_golden.py.",
        "# Regenerate with: python tests/test_golden.py --write",
    ]
    lines += [f"version {k} {v}" for k, v in versions().items()]
    lines += [f"{k} {v}" for k, v in record.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def file_kind(key: str) -> str:
    """``exit``, ``stdout``, a fixed file name such as ``manifest.txt``, or
    what follows a trial label (``_t00``) in a trace file's name: ``.csv``,
    ``.meta.yaml``, ``.report.yaml`` or ``_fit.csv``."""
    name = key.split(" ", 1)[1].rsplit("/", 1)[-1]
    return re.sub(r"^.*_t\d+", "", name)


def describe_changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per key whose hash changed, was added or was removed, then
    the changed keys counted per file kind."""
    changed = sorted(k for k in old.keys() & new.keys() if old[k] != new[k])
    lines = [f"changed {k}" for k in changed]
    lines += [f"added {k}" for k in sorted(new.keys() - old.keys())]
    lines += [f"removed {k}" for k in sorted(old.keys() - new.keys())]
    counts = Counter(map(file_kind, changed))
    lines += [f"{n:4d} changed {kind}" for kind, n in sorted(counts.items())]
    lines.append(f"{len(changed)} of {len(new)} keys changed")
    return lines


def test_golden_outputs(tmp_path):
    check_golden_outputs(tmp_path)


def test_golden_outputs_with_pyyaml_reading(tmp_path, monkeypatch):
    """The same bytes when PyYAML reads every override and sidecar in the
    place of exosim's own reader."""
    for module in (config, traceio):
        monkeypatch.setattr(module, "load_yaml", yaml.safe_load)
    check_golden_outputs(tmp_path)


def check_golden_outputs(tmp_path):
    header, expected = read_hashes()
    if header["numpy"] != np.__version__:
        pytest.skip(
            f"golden hashes were written with numpy {header['numpy']}, "
            f"this is numpy {np.__version__}"
        )
    actual = collect(tmp_path)
    changed = sorted(k for k in expected.keys() & actual.keys() if expected[k] != actual[k])
    assert not changed, f"outputs changed: {changed}"
    assert sorted(actual.keys() - expected.keys()) == [], "unexpected new outputs"
    assert sorted(expected.keys() - actual.keys()) == [], "outputs went missing"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    old = read_hashes()[1] if HASHES.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = collect(Path(tmp))
    write_hashes(new)
    print("\n".join(describe_changes(old, new)))
    print(HASHES)
