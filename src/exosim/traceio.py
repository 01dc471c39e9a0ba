"""Trace and report file I/O.

Traces live as CSV (``t_s,actuator_mm,force_N``, six decimal places) with a
YAML metadata sidecar next to each file.  Headers carry the tool version,
seed, and config hash — never timestamps — so identical runs produce
byte-identical files.  All writes go through a temp-file-and-rename so a
crash never leaves a half-written artifact.
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

import numpy as np
import yaml

from .config import TOOL_VERSION
from .trial import TrialTrace

CSV_HEADER = "t_s,actuator_mm,force_N"
SIDECAR_SUFFIX = ".meta.yaml"


def write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sidecar_path(csv_path: str | Path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + SIDECAR_SUFFIX)


def _header_lines(seed_text: str, config_hash: str) -> str:
    return (
        f"# exosim {TOOL_VERSION}\n"
        f"# seed: {seed_text}\n"
        f"# config: {config_hash}\n"
    )


def render_trace_csv(trace: TrialTrace, *, config_hash: str = "") -> str:
    seed_text = "-" if trace.seed is None else str(trace.seed)
    rows = [
        f"{t:.6f},{p:.6f},{f:.6f}"
        for t, p, f in zip(trace.t_s, trace.actuator_mm, trace.force_n)
    ]
    return _header_lines(seed_text, config_hash) + CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def render_sidecar(trace: TrialTrace, *, config_hash: str = "") -> str:
    seed = trace.seed
    if isinstance(seed, (list, tuple)):
        seed_value: object = [int(s) for s in seed]
    else:
        seed_value = None if seed is None else int(seed)
    meta = {
        "subject_id": trace.subject_id,
        "network": trace.network,
        "stroke_mm": float(trace.stroke_mm),
        "sample_rate_hz": float(trace.sample_rate_hz),
        "noise_sigma_n": float(trace.noise_sigma_n),
        "seed": seed_value,
        "samples": int(len(trace)),
        "breakaway": {
            "occurred": bool(trace.breakaway),
            "time_s": None if trace.breakaway_time_s is None else float(trace.breakaway_time_s),
        },
        "functional_extension": trace.functional_extension,
        "functional_time_s": (
            None if trace.functional_time_s is None else float(trace.functional_time_s)
        ),
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash,
    }
    return yaml.safe_dump(meta, sort_keys=True, default_flow_style=False)


def write_trace(trace: TrialTrace, csv_path: str | Path, *, config_hash: str = "") -> Path:
    """Write the CSV and its metadata sidecar; returns the CSV path."""
    csv_path = Path(csv_path)
    write_text_atomic(csv_path, render_trace_csv(trace, config_hash=config_hash))
    write_text_atomic(sidecar_path(csv_path), render_sidecar(trace, config_hash=config_hash))
    return csv_path


def read_trace(csv_path: str | Path) -> tuple[TrialTrace, list[str]]:
    """Load a trace CSV (and sidecar when present).

    Malformed data rows (wrong column count, non-numeric or non-finite
    values) are skipped and reported as warnings with their line numbers;
    the rest of the file still loads.  Without a sidecar the stroke is taken
    as the largest recorded actuator position.
    """
    csv_path = Path(csv_path)
    warnings: list[str] = []
    t: list[float] = []
    position: list[float] = []
    force: list[float] = []
    header_seen = False
    for lineno, line in enumerate(csv_path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if stripped != CSV_HEADER:
                warnings.append(
                    f"{csv_path.name}:{lineno}: unexpected header {stripped!r}"
                )
            header_seen = True
            continue
        parts = stripped.split(",")
        if len(parts) != 3:
            warnings.append(
                f"{csv_path.name}:{lineno}: expected 3 columns, got {len(parts)}"
            )
            continue
        try:
            values = [float(p) for p in parts]
        except ValueError:
            warnings.append(f"{csv_path.name}:{lineno}: non-numeric row {stripped!r}")
            continue
        if not all(map(math.isfinite, values)):
            warnings.append(f"{csv_path.name}:{lineno}: non-finite row {stripped!r}")
            continue
        t.append(values[0])
        position.append(values[1])
        force.append(values[2])

    meta: dict = {}
    side = sidecar_path(csv_path)
    if side.exists():
        try:
            meta = yaml.safe_load(side.read_text()) or {}
        except yaml.YAMLError as err:
            warnings.append(f"{side.name}: unreadable sidecar ({err})")
            meta = {}

    position_arr = np.asarray(position)
    stroke = meta.get("stroke_mm")
    if stroke is None:
        stroke = float(np.max(position_arr)) if len(position_arr) else 0.0
    breakaway_meta = meta.get("breakaway") or {}
    trace = TrialTrace(
        t_s=np.asarray(t),
        actuator_mm=position_arr,
        force_n=np.asarray(force),
        subject_id=str(meta.get("subject_id", "")),
        network=str(meta.get("network", "")),
        stroke_mm=float(stroke),
        sample_rate_hz=float(meta.get("sample_rate_hz", 100.0)),
        noise_sigma_n=float(meta.get("noise_sigma_n", 0.0)),
        seed=meta.get("seed"),
        breakaway=bool(breakaway_meta.get("occurred", False)),
        breakaway_time_s=breakaway_meta.get("time_s"),
        functional_extension=meta.get("functional_extension"),
        functional_time_s=meta.get("functional_time_s"),
    )
    return trace, warnings


def render_report_yaml(report) -> str:
    data = {
        "label": report.label,
        "subject_id": report.subject_id,
        "trimmed_samples": int(report.trimmed_samples),
        "used_samples": int(report.used_samples),
        "slope": None if report.slope is None else float(report.slope),
        "intercept": None if report.intercept is None else float(report.intercept),
        "correlation": None if report.correlation is None else float(report.correlation),
        "peak_force_n": None if report.peak_force_n is None else float(report.peak_force_n),
        "peak_retraction_mm": (
            None if report.peak_retraction_mm is None else float(report.peak_retraction_mm)
        ),
        "breakaway_detected": bool(report.breakaway_detected),
        "functional_extension": report.functional_extension,
        "degenerate": bool(report.degenerate),
        "degenerate_reason": report.degenerate_reason,
    }
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)


def render_fit_csv(report) -> str:
    """Normalized series with the fitted line, for plotting."""
    fitted = report.fitted_frac()
    lines = ["position_frac,force_frac,fitted_frac"]
    if report.position_frac is not None:
        if fitted is None:
            fitted = np.full_like(report.position_frac, np.nan)
        for x, y, z in zip(report.position_frac, report.force_frac, fitted):
            lines.append(f"{x:.6f},{y:.6f},{z:.6f}")
    return "\n".join(lines) + "\n"
