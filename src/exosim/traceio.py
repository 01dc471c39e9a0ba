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

from . import TOOL_VERSION
from .config import SUBJECT_ID, dump_yaml, load_yaml
from .trial import DEFAULT_SAMPLE_RATE_HZ, TrialTrace

CSV_HEADER = "t_s,actuator_mm,force_N"
SIDECAR_SUFFIX = ".meta.yaml"
REPORT_SUFFIX = ".report.yaml"
FIT_SUFFIX = "_fit.csv"
# The bytes of a trace body on which ``np.loadtxt`` and ``float`` read every
# cell alike.  Every body exosim writes holds only these; outside them the two
# differ (``float`` reads "1_0" and rejects "4\x1f", ``loadtxt`` the reverse).
_PLAIN_BYTES = b"0123456789.,+-eE\n"


def write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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


def _render_rows(*columns) -> str:
    """One ``%.6f,%.6f,%.6f`` line per sample of three equal-length columns."""
    cells = np.column_stack(columns).ravel().tolist()
    return ("%.6f,%.6f,%.6f\n" * (len(cells) // 3)) % tuple(cells)


def render_trace_csv(trace: TrialTrace, *, config_hash: str = "") -> str:
    seed_text = "-" if trace.seed is None else str(trace.seed)
    rows = _render_rows(trace.t_s, trace.actuator_mm, trace.force_n) or "\n"
    return _header_lines(seed_text, config_hash) + CSV_HEADER + "\n" + rows


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
    return dump_yaml(meta)


def write_trace(trace: TrialTrace, csv_path: str | Path, *, config_hash: str = "") -> Path:
    """Write the CSV and its metadata sidecar; returns the CSV path."""
    csv_path = Path(csv_path)
    write_text_atomic(csv_path, render_trace_csv(trace, config_hash=config_hash))
    write_text_atomic(sidecar_path(csv_path), render_sidecar(trace, config_hash=config_hash))
    return csv_path


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name}: {err}") from None


def _optional_number(value, name: str) -> float | None:
    return None if value is None else _number(value, name)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _sidecar_fields(meta) -> dict:
    """The metadata fields of TrialTrace from a loaded sidecar document;
    ValueError if the document or its ``breakaway`` is not a mapping, if a
    number field does not convert, or if ``subject_id`` is neither empty nor
    a bench's subject id (``config.SUBJECT_ID``), ``seed`` not null, an int or
    a list of ints, or ``functional_extension``
    or ``breakaway.occurred`` neither a bool nor null.  A missing
    ``stroke_mm`` stays None."""
    if not isinstance(meta, dict):
        raise ValueError(f"expected a mapping, got {type(meta).__name__}")
    breakaway = meta.get("breakaway") or {}
    if not isinstance(breakaway, dict):
        raise ValueError(f"breakaway: expected a mapping, got {type(breakaway).__name__}")
    subject_id, seed = meta.get("subject_id", ""), meta.get("seed")
    if not isinstance(subject_id, str):
        raise ValueError(f"subject_id: expected a string, got {type(subject_id).__name__}")
    if subject_id and not SUBJECT_ID.fullmatch(subject_id):
        raise ValueError(f"subject_id: {subject_id!r} is not a bench's subject id")
    if not (seed is None or _is_int(seed) or isinstance(seed, list) and all(map(_is_int, seed))):
        raise ValueError(f"seed: expected null, an int or a list of ints, got {seed!r}")
    for name, flag in (
        ("functional_extension", meta.get("functional_extension")),
        ("breakaway.occurred", breakaway.get("occurred")),
    ):
        if not (flag is None or isinstance(flag, bool)):
            raise ValueError(f"{name}: expected a bool or null, got {type(flag).__name__}")
    return {
        "subject_id": subject_id,
        "network": str(meta.get("network", "")),
        "stroke_mm": _optional_number(meta.get("stroke_mm"), "stroke_mm"),
        "sample_rate_hz": _number(
            meta.get("sample_rate_hz", DEFAULT_SAMPLE_RATE_HZ), "sample_rate_hz"
        ),
        "noise_sigma_n": _number(meta.get("noise_sigma_n", 0.0), "noise_sigma_n"),
        "seed": seed,
        "breakaway": bool(breakaway.get("occurred")),
        "breakaway_time_s": _optional_number(breakaway.get("time_s"), "breakaway.time_s"),
        "functional_extension": meta.get("functional_extension"),
        "functional_time_s": _optional_number(meta.get("functional_time_s"), "functional_time_s"),
    }


def _plain_rows(lines: list[str]) -> np.ndarray | None:
    """The rows of a trace CSV, read in one ``np.loadtxt`` call, when its
    header is ``CSV_HEADER`` and its body holds only ``_PLAIN_BYTES`` and
    three finite numbers a row, in increasing time; None for any other file.
    A body whose comma count is not two a non-blank line has a row of
    another width, so it is not handed to ``np.loadtxt`` at all."""
    stripped = map(str.strip, lines)
    header = next((i for i, line in enumerate(stripped) if line[:1] not in ("", "#")), None)
    if header is None or lines[header].strip() != CSV_HEADER:
        return None
    body = lines[header + 1 :]
    plain = "\n".join(body).encode()
    if not plain.strip(b"\n") or plain.translate(None, _PLAIN_BYTES):
        return None
    if plain.count(b",") != 2 * (len(body) - body.count("")):
        return None
    try:
        table = np.loadtxt(body, float, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 3 or not np.isfinite(table).all():
        return None
    return table if (table[1:, 0] > table[:-1, 0]).all() else None


def _line_rows(lines: list[str], name: str) -> tuple[np.ndarray, list[str]]:
    """The rows of a trace CSV one line at a time, with a ``file:line``
    warning for a wrong header and for each row that is skipped.  A row is
    kept only if its time is above that of every row kept before it."""
    values: list[float] = []  # three a row
    warnings: list[str] = []
    header_seen = False
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if not line or line[0] == "#":
            continue
        if not header_seen:
            header_seen = True
            if line != CSV_HEADER:
                warnings.append(f"{name}:{lineno}: unexpected header {line!r}")
            continue
        cells = line.split(",")
        if len(cells) != 3:
            warnings.append(f"{name}:{lineno}: expected 3 columns, got {len(cells)}")
            continue
        try:
            t, position, force = map(float, cells)
        except ValueError:
            warnings.append(f"{name}:{lineno}: non-numeric row {line!r}")
            continue
        if not (math.isfinite(t) and math.isfinite(position) and math.isfinite(force)):
            warnings.append(f"{name}:{lineno}: non-finite row {line!r}")
            continue
        if values and t <= values[-3]:
            warnings.append(f"{name}:{lineno}: non-increasing time in row {line!r}")
            continue
        values += (t, position, force)
    return np.array(values, float).reshape(-1, 3), warnings


def read_trace(csv_path: str | Path) -> tuple[TrialTrace, list[str]]:
    """Load a trace CSV (and sidecar when present).

    Blank lines and ``#`` comments are skipped; the first other line is the
    header.  Malformed data rows (wrong column count, non-numeric or
    non-finite values, a time not above the last kept row's) are skipped and
    reported as warnings with their line numbers; the rest of the file still
    loads.  A body of plain numbers is read in one call, any other line by
    line.  Files are read as UTF-8 in any locale.  Without a sidecar the
    stroke is taken as the largest recorded actuator position.
    """
    csv_path = Path(csv_path)
    try:
        lines = csv_path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{csv_path.name}: {err}") from None
    table, warnings = _plain_rows(lines), []
    if table is None:
        table, warnings = _line_rows(lines, csv_path.name)
    t, position, force = np.ascontiguousarray(table.T)

    fields = _sidecar_fields({})
    side = sidecar_path(csv_path)
    if side.exists():
        try:
            fields = _sidecar_fields(load_yaml(side.read_text(encoding="utf-8")) or {})
        except (OSError, ValueError) as err:
            # One line, though a YAML error's message has several.
            reason = " ".join(str(err).splitlines())
            warnings.append(f"{side.name}: unreadable sidecar ({reason})")
    if fields["stroke_mm"] is None:
        fields["stroke_mm"] = float(np.max(position)) if len(position) else 0.0
    trace = TrialTrace(t_s=t, actuator_mm=position, force_n=force, **fields)
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
    return dump_yaml(data)


def render_fit_csv(report) -> str:
    """Normalized series with the fitted line, for plotting."""
    header = "position_frac,force_frac,fitted_frac\n"
    if report.position_frac is None:
        return header
    fitted = report.fitted_frac()
    if fitted is None:
        fitted = np.full_like(report.position_frac, np.nan)
    return header + _render_rows(report.position_frac, report.force_frac, fitted)


def write_report(report, out_dir: Path) -> None:
    """Write a report's YAML and fit CSV into ``out_dir`` as
    ``<label>.report.yaml`` and ``<label>_fit.csv``."""
    write_text_atomic(out_dir / f"{report.label}{REPORT_SUFFIX}", render_report_yaml(report))
    write_text_atomic(out_dir / f"{report.label}{FIT_SUFFIX}", render_fit_csv(report))
