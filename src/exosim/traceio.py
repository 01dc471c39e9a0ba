"""Trace and report file I/O.

Traces live as CSV (``t_s,actuator_mm,force_N``, six decimal places) with a
YAML metadata sidecar next to each file.  Headers carry the tool version,
seed, and config hash — never timestamps — so identical runs produce
byte-identical files.  All writes go through a temp-file-and-rename so a
crash never leaves a half-written artifact.
"""

from __future__ import annotations

import os
import tempfile
from itertools import repeat
from pathlib import Path

import numpy as np
import yaml

from .config import TOOL_VERSION, dump_yaml, load_yaml
from .trial import DEFAULT_SAMPLE_RATE_HZ, TrialTrace

CSV_HEADER = "t_s,actuator_mm,force_N"
SIDECAR_SUFFIX = ".meta.yaml"
# Rows parsed in one call: enough to amortise the call, few enough that the
# cells of one block stay small beside the file's lines.
_BLOCK_ROWS = 256
# A block of this many rows or fewer that fails is read row by row, not halved.
_LEAF_ROWS = 8


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


def _cells(rows: list[str]) -> np.ndarray:
    """The cells of three-column ``rows`` as ``float`` reads them, one array
    row per row; ValueError if a cell is not a number."""
    cells = map(float, ",".join(rows).split(","))
    return np.fromiter(cells, float, 3 * len(rows)).reshape(-1, 3)


def _parse_rows(rows: list[str]) -> tuple[np.ndarray, list[int]]:
    """The values of three-column ``rows``, one row of the result per row
    ``float`` accepts, and the indices of the rows it rejects.  Each block of
    up to ``_BLOCK_ROWS`` rows is parsed in one call; only a block that fails
    is split, in halves, down to ``_LEAF_ROWS`` rows, which are read one by
    one."""
    if not rows:
        return np.empty((0, 3)), []
    if len(rows) <= _BLOCK_ROWS:
        try:
            return _cells(rows), []
        except ValueError:
            if len(rows) <= _LEAF_ROWS:
                return _parse_each(rows)
    mid = len(rows) // 2
    head, head_bad = _parse_rows(rows[:mid])
    tail, tail_bad = _parse_rows(rows[mid:])
    return np.concatenate((head, tail)), head_bad + [mid + i for i in tail_bad]


def _parse_each(rows: list[str]) -> tuple[np.ndarray, list[int]]:
    """``_parse_rows`` one row at a time."""
    table, bad = [np.empty((0, 3))], []
    for i, row in enumerate(rows):
        try:
            table.append(_cells([row]))
        except ValueError:
            bad.append(i)
    return np.concatenate(table), bad


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
    number field does not convert, or if ``subject_id`` is not a string,
    ``seed`` not null, an int or a list of ints, or ``functional_extension``
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


def read_trace(csv_path: str | Path) -> tuple[TrialTrace, list[str]]:
    """Load a trace CSV (and sidecar when present).

    Blank lines and ``#`` comments are skipped; the first other line is the
    header.  Malformed data rows (wrong column count, non-numeric or
    non-finite values) are skipped and reported as warnings with their line
    numbers; the rest of the file still loads.  Without a sidecar the stroke
    is taken as the largest recorded actuator position.
    """
    csv_path = Path(csv_path)
    try:
        text = csv_path.read_text()
    except UnicodeDecodeError as err:
        raise ValueError(f"{csv_path.name}: {err}") from None
    lines = list(map(str.strip, text.splitlines()))
    faults: list[tuple[int, str]] = []  # (line index, what is wrong with it)
    header = next((i for i, line in enumerate(lines) if line and line[0] != "#"), len(lines))
    if header < len(lines) and lines[header] != CSV_HEADER:
        faults.append((header, f"unexpected header {lines[header]!r}"))
    # Every later line with two commas is taken for a row and parsed in bulk.
    # Only the lines that this rejects are looked at one by one: blank lines,
    # comments and malformed rows.
    body = lines[header + 1 :]
    commas = np.fromiter(map(str.count, body, repeat(",")), np.intp, len(body))
    rows = np.flatnonzero(commas == 2)
    table, non_numeric = _parse_rows(list(map(body.__getitem__, rows.tolist())))
    for i in sorted(np.flatnonzero(commas != 2).tolist() + rows[non_numeric].tolist()):
        if body[i] and body[i][0] != "#":
            what = (
                f"expected 3 columns, got {commas[i] + 1}"
                if commas[i] != 2
                else f"non-numeric row {body[i]!r}"
            )
            faults.append((header + 1 + i, what))
    rows = np.delete(rows, non_numeric)
    finite = np.isfinite(table).all(axis=1)
    faults += [(header + 1 + i, f"non-finite row {body[i]!r}") for i in rows[~finite].tolist()]
    t, position, force = np.ascontiguousarray(table[finite].T)
    warnings = [f"{csv_path.name}:{i + 1}: {what}" for i, what in sorted(faults)]

    fields = _sidecar_fields({})
    side = sidecar_path(csv_path)
    if side.exists():
        try:
            fields = _sidecar_fields(load_yaml(side.read_text()) or {})
        except (yaml.YAMLError, OSError, ValueError) as err:
            warnings.append(f"{side.name}: unreadable sidecar ({err})")
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
