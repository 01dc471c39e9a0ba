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
from pathlib import Path

import numpy as np

from . import TOOL_VERSION
from .config import SUBJECT_ID, finite_number
from .trial import DEFAULT_SAMPLE_RATE_HZ, TrialTrace
from .yamlio import dump_yaml, load_yaml

CSV_HEADER = "t_s,actuator_mm,force_N"
SIDECAR_SUFFIX = ".meta.yaml"
REPORT_SUFFIX = ".report.yaml"
FIT_SUFFIX = "_fit.csv"
# The bytes of a number cell on which ``np.loadtxt`` and ``float`` read alike,
# as in every body exosim writes; outside them the two differ (``float`` reads
# "1_0" and rejects "4\x1f", ``loadtxt`` the reverse).  A plain line is three
# such cells: once they are deleted it leaves ",,".
_NUMBER_BYTES = b"0123456789.+-eE"
RENDER_BLOCK = 65_536  # trace rows rendered at once, so no list holds every cell


def write_text_atomic(path: Path, text: str) -> None:
    """Write through a temporary file of this process's own, made as ``open``
    makes a file (mode 0o666 less the umask), then renamed over ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):  # no directory yet, or a file there
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8")
    except FileExistsError:  # left by a killed run of this pid
        tmp.unlink()
        fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
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
    """The trace's CSV text, its rows rendered ``RENDER_BLOCK`` at a time."""
    seed_text = "-" if trace.seed is None else str(trace.seed)
    blocks = (trace.window(a, a + RENDER_BLOCK) for a in range(0, len(trace), RENDER_BLOCK))
    rows = [_render_rows(b.t_s, b.actuator_mm, b.force_n) for b in blocks] or ["\n"]
    return "".join([_header_lines(seed_text, config_hash), CSV_HEADER, "\n", *rows])


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


def _optional(value, name: str) -> float | None:
    return None if value is None else finite_number(value, name)


def _sidecar_fields(meta) -> dict:
    """The metadata fields of TrialTrace from a loaded sidecar document;
    ValueError if the document or its ``breakaway`` is not a mapping, if a
    number field is not a config's finite number (``config.finite_number``),
    or if ``subject_id`` is neither empty nor a bench's subject id
    (``config.SUBJECT_ID``), ``seed`` not null, an int or a list of ints, or
    ``functional_extension`` or ``breakaway.occurred`` neither a bool nor
    null.  A missing ``stroke_mm`` stays None."""
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
    if not (seed is None or type(seed) is int or type(seed) is list
            and all(type(s) is int for s in seed)):
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
        "stroke_mm": _optional(meta.get("stroke_mm"), "stroke_mm"),
        "sample_rate_hz": finite_number(
            meta.get("sample_rate_hz", DEFAULT_SAMPLE_RATE_HZ), "sample_rate_hz"
        ),
        "noise_sigma_n": finite_number(meta.get("noise_sigma_n", 0.0), "noise_sigma_n"),
        "seed": seed,
        "breakaway": bool(breakaway.get("occurred")),
        "breakaway_time_s": _optional(breakaway.get("time_s"), "breakaway.time_s"),
        "functional_extension": meta.get("functional_extension"),
        "functional_time_s": _optional(meta.get("functional_time_s"), "functional_time_s"),
    }


def _row(line: str):
    """A stripped data line's three floats as the line loop reads them, or
    the reason it skips the line."""
    cells = line.split(",")
    if len(cells) != 3:
        return f"expected 3 columns, got {len(cells)}"
    try:
        return tuple(map(float, cells))
    except ValueError:
        return f"non-numeric row {line!r}"


def _plain_rows(lines: list[str], name: str) -> tuple[np.ndarray, list[str]] | None:
    """The rows of a trace CSV and its warnings, read in one ``np.loadtxt``
    call from the body's plain lines.  Each other line gets the line loop's
    warning (none for a blank or ``#`` line) and is blanked in the body that
    ``np.loadtxt`` reads.  None where only ``_line_rows`` can tell: a line
    that ``float`` would keep as a row, a plain line that ``np.loadtxt``
    rejects, a row that is not finite, or a time not above the one before
    it."""
    headers = ((i, s) for i, s in enumerate(map(str.strip, lines)) if s[:1] not in ("", "#"))
    header, line = next(headers, (len(lines), CSV_HEADER))  # none: no rows and no warning
    warnings = [] if line == CSV_HEADER else [f"{name}:{header + 1}: unexpected header {line!r}"]
    body = lines[header + 1 :] or [""]  # an empty body reads as one blank line
    skeleton = "\n".join(body).encode().translate(None, _NUMBER_BYTES)
    odd = [] if skeleton == b",,\n" * (len(body) - 1) + b",," else [  # all plain: no split
        i for i, s in enumerate(skeleton.split(b"\n")) if s != b",,"]
    for i in odd:
        line, body[i] = body[i].strip(), ""
        if line[:1] not in ("", "#"):
            row = _row(line)
            if not isinstance(row, str):
                return None
            warnings.append(f"{name}:{header + 2 + i}: {row}")
    if len(odd) == len(body):  # no data: np.loadtxt would warn
        return np.array([], float).reshape(-1, 3), warnings
    try:
        table = np.loadtxt(body, float, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(table).all() or not (table[1:, 0] > table[:-1, 0]).all():
        return None
    return table, warnings


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
        row = _row(line)
        if isinstance(row, str):
            warnings.append(f"{name}:{lineno}: {row}")
            continue
        t, position, force = row
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
    loads.  The plain rows are read in one call and the other lines judged
    one at a time; a file that only the line loop reads alike is read line
    by line.  Files are read as UTF-8 in any locale, a leading byte-order mark
    skipped.  Without a sidecar the stroke is taken as the largest recorded
    actuator position.
    """
    csv_path = Path(csv_path)
    try:
        lines = csv_path.read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{csv_path.name}: {err}") from None
    table, warnings = _plain_rows(lines, csv_path.name) or _line_rows(lines, csv_path.name)
    t, position, force = np.ascontiguousarray(table.T)

    fields = _sidecar_fields({})
    side = sidecar_path(csv_path)
    if side.exists():
        try:
            fields = _sidecar_fields(load_yaml(side.read_text(encoding="utf-8")) or {})
        except (OSError, ValueError) as err:
            warnings.append(f"{side.name}: unreadable sidecar ({err})")
    if fields["stroke_mm"] is None:
        fields["stroke_mm"] = float(np.max(position)) if len(position) else 0.0
    trace = TrialTrace(t_s=t, actuator_mm=position, force_n=force, **fields)
    return trace, warnings


def render_report_yaml(report) -> str:
    """A report's fields as YAML, but the two series, which the fit CSV holds."""
    data = report._asdict()
    del data["position_frac"], data["force_frac"]
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


def write_report(report, out_dir: Path):
    """Write a report's YAML and fit CSV into ``out_dir`` as
    ``<label>.report.yaml`` and ``<label>_fit.csv``; returns the report
    without the two series, which the fit CSV now holds."""
    write_text_atomic(out_dir / f"{report.label}{REPORT_SUFFIX}", render_report_yaml(report))
    write_text_atomic(out_dir / f"{report.label}{FIT_SUFFIX}", render_fit_csv(report))
    return report._replace(position_frac=None, force_frac=None)
