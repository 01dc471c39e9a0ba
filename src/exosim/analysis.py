"""Force-position analysis of recorded traces.

Pipeline order matters and is fixed: trim leading slack on the measured force,
truncate at coupling breakaway, normalize both axes to their own trial
maxima, then fit.  The linear fit and the correlation use explicit two-pass
mean-centered sums; the single-pass shortcut formulas lose precision on
nearly-affine data and are deliberately not used.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .trial import TrialTrace

DEFAULT_TRIM_THRESHOLD_N = 3.0
DEFAULT_DROP_THRESHOLD_N = 10.0
DEFAULT_DROP_FLOOR_N = 1.0


class AnalysisError(ValueError):
    """A trace cannot proceed through the pipeline stage that raised this."""


class DegenerateSeriesError(AnalysisError):
    """The series carries no usable force-position relation."""


def trim_slack(
    trace: TrialTrace, threshold_n: float = DEFAULT_TRIM_THRESHOLD_N
) -> TrialTrace:
    """Drop leading samples until the measured force first reaches the
    threshold.  A trace that never reaches it trims to empty.  Idempotent."""
    idx = np.nonzero(trace.force_n >= threshold_n)[0]
    start = int(idx[0]) if idx.size else len(trace)
    return trace.window(start, len(trace))


def detect_breakaway_index(
    force_n: np.ndarray,
    drop_threshold_n: float = DEFAULT_DROP_THRESHOLD_N,
    floor_n: float = DEFAULT_DROP_FLOOR_N,
) -> int | None:
    """Index of the first sample after a breakaway-shaped collapse: a
    single-sample force drop of at least the threshold landing below the
    floor.  None when no such collapse exists."""
    f = np.asarray(force_n)
    hits = np.flatnonzero((f[:-1] - f[1:] >= drop_threshold_n) & (f[1:] < floor_n))
    return int(hits[0]) + 1 if hits.size else None


def truncate_breakaway(
    trace: TrialTrace,
    drop_threshold_n: float = DEFAULT_DROP_THRESHOLD_N,
    floor_n: float = DEFAULT_DROP_FLOOR_N,
) -> TrialTrace:
    """Cut the trace at coupling release.

    Trial metadata wins when present (samples at and after the recorded
    release time go); otherwise a collapse detector on the measured force
    decides.  Traces without a release pass through unchanged.  Idempotent.
    """
    if trace.breakaway and trace.breakaway_time_s is not None:
        keep = np.nonzero(trace.t_s < trace.breakaway_time_s)[0]
        stop = int(keep[-1]) + 1 if keep.size else 0
        return trace.window(0, stop)
    idx = detect_breakaway_index(trace.force_n, drop_threshold_n, floor_n)
    if idx is None:
        return trace
    return trace.window(0, idx)


class NormalizedSeries(NamedTuple):
    position_frac: np.ndarray
    force_frac: np.ndarray
    peak_force_n: float
    peak_retraction_mm: float


def normalize(trace: TrialTrace) -> NormalizedSeries:
    """Express retraction and force as fractions of their own trial maxima.

    Retraction is stroke minus actuator position.  Raises on an empty window,
    a non-finite value or an all-zero channel, where the fractions are
    undefined.
    """
    if len(trace) == 0:
        raise AnalysisError("empty trace window, nothing to normalize")
    retraction = trace.retraction_mm
    for name, channel in (("retraction", retraction), ("force", trace.force_n)):
        if not np.all(np.isfinite(channel)):
            raise AnalysisError(f"non-finite {name} in window, normalization undefined")
    peak_retraction = float(np.max(retraction))
    peak_force = float(np.max(trace.force_n))
    if peak_retraction <= 0.0:
        raise AnalysisError("no retraction in window, normalization undefined")
    if peak_force <= 0.0:
        raise AnalysisError("no recorded force in window, normalization undefined")
    return NormalizedSeries(
        retraction / peak_retraction, trace.force_n / peak_force,
        peak_force, peak_retraction,
    )


class LinearFit(NamedTuple):
    slope: float
    intercept: float
    correlation: float


def linear_fit_and_correlation(
    position_frac: Sequence[float] | np.ndarray,
    force_frac: Sequence[float] | np.ndarray,
) -> LinearFit:
    """Ordinary least squares and Pearson correlation, two-pass form.

    Means are computed first and subtracted before forming the sums of
    squares, so affine series return a correlation of exactly +/-1 up to
    rounding.  Needs at least two distinct positions and non-constant force.
    """
    x = np.asarray(position_frac, dtype=float)
    y = np.asarray(force_frac, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("position and force series must be 1-D and equal length")
    if len(x) < 2 or np.min(x) == np.max(x):
        raise AnalysisError("need at least two distinct positions to fit")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    sxy = float(xc @ yc)
    if syy == 0.0:
        raise DegenerateSeriesError("force variance is zero, correlation undefined")
    slope = sxy / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    correlation = sxy / math.sqrt(sxx * syy)
    return LinearFit(slope, intercept, correlation)


@dataclass
class AnalysisReport:
    """Per-trace result: fit, peak statistics, and event flags.

    Degenerate traces (never loaded, constant force, too few samples) carry
    a reason instead of fit numbers so a batch can account for every input.
    """

    label: str
    subject_id: str = ""
    trimmed_samples: int = 0
    used_samples: int = 0
    slope: float | None = None
    intercept: float | None = None
    correlation: float | None = None
    peak_force_n: float | None = None
    peak_retraction_mm: float | None = None
    breakaway_detected: bool = False
    functional_extension: bool | None = None
    degenerate: bool = False
    degenerate_reason: str | None = None
    position_frac: np.ndarray | None = None
    force_frac: np.ndarray | None = None

    def fitted_frac(self) -> np.ndarray | None:
        if self.position_frac is None or self.slope is None:
            return None
        return self.slope * self.position_frac + self.intercept


def analyze(
    trace: TrialTrace,
    *,
    label: str = "",
    trim_threshold_n: float = DEFAULT_TRIM_THRESHOLD_N,
    drop_threshold_n: float = DEFAULT_DROP_THRESHOLD_N,
    drop_floor_n: float = DEFAULT_DROP_FLOOR_N,
) -> AnalysisReport:
    """Run the full pipeline on one trace and report.

    Stages run strictly in order trim -> truncate -> normalize -> fit; any
    stage that cannot proceed yields a degenerate report rather than an
    exception, so batch runs keep going.
    """
    report = AnalysisReport(label=label or trace.subject_id, subject_id=trace.subject_id)
    report.functional_extension = trace.functional_extension
    try:
        trimmed = trim_slack(trace, trim_threshold_n)
        report.trimmed_samples = len(trace) - len(trimmed)
        kept = truncate_breakaway(trimmed, drop_threshold_n, drop_floor_n)
        report.breakaway_detected = bool(trace.breakaway) or len(kept) < len(trimmed)
        report.used_samples = len(kept)
        series = normalize(kept)
        report.peak_force_n = series.peak_force_n
        report.peak_retraction_mm = series.peak_retraction_mm
        report.position_frac = series.position_frac
        report.force_frac = series.force_frac
        fit = linear_fit_and_correlation(series.position_frac, series.force_frac)
        report.slope = fit.slope
        report.intercept = fit.intercept
        report.correlation = fit.correlation
    except AnalysisError as err:
        report.degenerate = True
        report.degenerate_reason = str(err)
    return report


# Read at import: a wrapper put in analyze()'s place later (a tracer's) would
# hide its keywords, from which config takes the default analysis section.
ANALYZE_SIGNATURE = inspect.signature(analyze)


@dataclass(frozen=True)
class SubjectSummary:
    subject_id: str
    trials: int
    degenerate: int
    r_min: float | None
    r_max: float | None
    peak_min_n: float | None
    peak_max_n: float | None
    breakaway_count: int
    functional_count: int
    functional_known: int


@dataclass(frozen=True)
class BatchSummary:
    subjects: tuple[SubjectSummary, ...]
    total_reports: int
    degenerate_reports: int
    breakaway_count: int
    functional_count: int
    functional_known: int

    def render(self) -> str:
        """Fixed-width text table; deterministic for identical inputs."""
        if not self.subjects:
            return "no reports\n"
        lines = [
            f"{'subject':<8} {'trials':>6} {'r_min':>8} {'r_max':>8} "
            f"{'peak_min_N':>10} {'peak_max_N':>10} {'breakaway':>9} {'functional':>10}"
        ]
        for s in self.subjects:
            r_min = "-" if s.r_min is None else f"{s.r_min:.4f}"
            r_max = "-" if s.r_max is None else f"{s.r_max:.4f}"
            p_min = "-" if s.peak_min_n is None else f"{s.peak_min_n:.2f}"
            p_max = "-" if s.peak_max_n is None else f"{s.peak_max_n:.2f}"
            functional = f"{s.functional_count}/{s.functional_known}" if s.functional_known else "?"
            lines.append(
                f"{s.subject_id:<8} {s.trials:>6} {r_min:>8} {r_max:>8} "
                f"{p_min:>10} {p_max:>10} {s.breakaway_count:>9} {functional:>10}"
            )
        lines.append(
            f"totals: {self.total_reports} traces, "
            f"{self.degenerate_reports} degenerate, "
            f"functional extension {self.functional_count}/{self.functional_known}, "
            f"breakaway {self.breakaway_count}/{self.total_reports}"
        )
        return "\n".join(lines) + "\n"


def batch_report(reports: Iterable[AnalysisReport]) -> BatchSummary:
    """Aggregate per-trace reports, ordered by subject id then label."""
    ordered = sorted(reports, key=lambda r: (r.subject_id, r.label))
    by_subject: dict[str, list[AnalysisReport]] = {}
    for r in ordered:
        by_subject.setdefault(r.subject_id or r.label, []).append(r)
    summaries = []
    for sid in sorted(by_subject):
        group = by_subject[sid]
        fitted = [r for r in group if not r.degenerate and r.correlation is not None]
        rs = [r.correlation for r in fitted]
        peaks = [r.peak_force_n for r in group if r.peak_force_n is not None]
        known = [r for r in group if r.functional_extension is not None]
        summaries.append(
            SubjectSummary(
                subject_id=sid,
                trials=len(group),
                degenerate=sum(1 for r in group if r.degenerate),
                r_min=min(rs) if rs else None,
                r_max=max(rs) if rs else None,
                peak_min_n=min(peaks) if peaks else None,
                peak_max_n=max(peaks) if peaks else None,
                breakaway_count=sum(1 for r in group if r.breakaway_detected),
                functional_count=sum(1 for r in known if r.functional_extension),
                functional_known=len(known),
            )
        )
    all_reports = ordered
    known_all = [r for r in all_reports if r.functional_extension is not None]
    return BatchSummary(
        subjects=tuple(summaries),
        total_reports=len(all_reports),
        degenerate_reports=sum(1 for r in all_reports if r.degenerate),
        breakaway_count=sum(1 for r in all_reports if r.breakaway_detected),
        functional_count=sum(1 for r in known_all if r.functional_extension),
        functional_known=len(known_all),
    )
