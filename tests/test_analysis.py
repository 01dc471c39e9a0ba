import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from exosim.analysis import (
    AnalysisError,
    DegenerateSeriesError,
    analyze,
    batch_report,
    detect_breakaway_index,
    linear_fit_and_correlation,
    normalize,
    trim_slack,
    truncate_breakaway,
)
from exosim.config import Bench, default_config
from exosim.traceio import render_report_yaml
from exosim.trial import TrialTrace


def synthetic_trace(force, stroke=50.0, rate=100.0, **meta):
    force = np.asarray(force, dtype=float)
    n = len(force)
    t = np.arange(n) / rate
    position = np.maximum(0.0, stroke - 5.0 * t)
    return TrialTrace(
        t_s=t, actuator_mm=position, force_n=force, stroke_mm=stroke,
        sample_rate_hz=rate, **meta,
    )


# --- trim --------------------------------------------------------------------


def test_trim_drops_leading_slack():
    trace = synthetic_trace([0.0, 0.5, 2.9, 3.0, 4.0, 5.0])
    trimmed = trim_slack(trace, 3.0)
    assert len(trimmed) == 3
    assert trimmed.force_n[0] == 3.0  # first sample at the threshold stays
    assert trimmed.t_s[0] == pytest.approx(0.03)


def test_trim_never_reaching_threshold_empties():
    trace = synthetic_trace([0.0, 1.0, 2.0])
    assert len(trim_slack(trace, 3.0)) == 0


def test_trim_keeps_later_dips():
    # only the leading slack goes; a later dip below threshold stays
    trace = synthetic_trace([0.0, 4.0, 1.0, 5.0])
    trimmed = trim_slack(trace, 3.0)
    assert list(trimmed.force_n) == [4.0, 1.0, 5.0]


@given(st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=80))
def test_trim_idempotent(force):
    trace = synthetic_trace(force)
    once = trim_slack(trace, 3.0)
    twice = trim_slack(once, 3.0)
    assert np.array_equal(once.force_n, twice.force_n)
    if len(once):
        assert once.force_n[0] >= 3.0


# --- breakaway truncation -------------------------------------------------------


def test_truncate_uses_metadata_when_present():
    force = [5.0, 10.0, 15.0, 0.0, 0.0]
    trace = synthetic_trace(force, breakaway=True, breakaway_time_s=0.03)
    kept = truncate_breakaway(trace)
    assert len(kept) == 3
    assert list(kept.force_n) == [5.0, 10.0, 15.0]


def test_truncate_detector_single_sample_drop():
    # drop of >= 10 N landing below 1 N
    force = [5.0, 12.0, 20.0, 0.2, 0.0]
    trace = synthetic_trace(force)
    assert detect_breakaway_index(trace.force_n) == 3
    kept = truncate_breakaway(trace)
    assert list(kept.force_n) == [5.0, 12.0, 20.0]


def test_truncate_detector_ignores_gentle_decline():
    force = [5.0, 12.0, 20.0, 12.0, 5.0, 0.5]
    trace = synthetic_trace(force)
    assert detect_breakaway_index(trace.force_n) is None
    assert len(truncate_breakaway(trace)) == len(trace)


def test_truncate_detector_ignores_big_drop_to_nonzero():
    # a 15 N drop that lands at 5 N is a yield event, not a release
    force = [5.0, 20.0, 5.0, 6.0]
    assert detect_breakaway_index(np.asarray(force)) is None


def _first_collapse_by_loop(force, drop_threshold_n, floor_n):
    for i in range(1, len(force)):
        if force[i - 1] - force[i] >= drop_threshold_n and force[i] < floor_n:
            return i
    return None


# Whole newtons as well, so drops land exactly on the threshold and the floor.
_forces = st.one_of(st.floats(min_value=-5.0, max_value=60.0), st.integers(-5, 60).map(float))


@settings(max_examples=300)
@given(st.lists(_forces, max_size=40), _forces, _forces)
def test_detect_breakaway_matches_sample_loop(force, drop_threshold_n, floor_n):
    """The array expression against the sample-by-sample scan it replaced."""
    f = np.asarray(force, dtype=float)
    assert detect_breakaway_index(f, drop_threshold_n, floor_n) == _first_collapse_by_loop(
        f, drop_threshold_n, floor_n
    )


@given(st.lists(st.floats(min_value=0.0, max_value=45.0), min_size=2, max_size=60))
def test_truncate_idempotent(force):
    trace = synthetic_trace(force)
    once = truncate_breakaway(trace)
    twice = truncate_breakaway(once)
    assert np.array_equal(once.force_n, twice.force_n)


def test_simulated_breakaway_truncation(noiseless_traces):
    trace = noiseless_traces["S4"]
    kept = truncate_breakaway(trace)
    assert len(kept) < len(trace)
    assert float(kept.t_s[-1]) < trace.breakaway_time_s
    # every post-release sample removed, peak preserved
    assert float(np.max(kept.force_n)) == float(np.max(trace.force_n))


# --- normalization ----------------------------------------------------------------


def test_normalize_uses_own_maxima(noiseless_traces):
    kept = truncate_breakaway(trim_slack(noiseless_traces["S1"]))
    series = normalize(kept)
    assert float(np.max(series.position_frac)) == 1.0
    assert float(np.max(series.force_frac)) == 1.0
    assert series.peak_force_n == pytest.approx(17.444, abs=0.01)
    assert series.peak_retraction_mm == pytest.approx(50.0)


def test_normalize_rejects_empty_and_zero():
    with pytest.raises(AnalysisError):
        normalize(synthetic_trace([]))
    with pytest.raises(AnalysisError):
        normalize(synthetic_trace([0.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_force(bad):
    with pytest.raises(AnalysisError, match="non-finite force"):
        normalize(synthetic_trace([4.0, 5.0, bad, 7.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])  # -inf reads as a breakaway
def test_non_finite_force_gives_degenerate_report(bad):
    report = analyze(synthetic_trace([4.0, 5.0, bad, 7.0]))
    assert report.degenerate
    assert report.correlation is None
    assert "non-finite" in report.degenerate_reason


@given(st.floats(min_value=0.1, max_value=5.0))
def test_normalized_shape_scale_invariant(scale):
    """Scaling the force channel must not move the normalized curve."""
    base = np.linspace(0.0, 20.0, 40)
    a = normalize(synthetic_trace(base))
    b = normalize(synthetic_trace(scale * base))
    assert np.allclose(a.force_frac, b.force_frac, atol=1e-12)
    assert np.allclose(a.position_frac, b.position_frac, atol=1e-12)


# --- fit and correlation ------------------------------------------------------------


def pearson_ols_oracle(xs, ys):
    """Direct textbook formulas, accumulated in pure Python."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx, sxy / math.sqrt(sxx * syy)


def test_fit_three_point_example():
    xs, ys = [0.0, 0.5, 1.0], [0.0, 0.6, 1.0]
    fit = linear_fit_and_correlation(xs, ys)
    slope, intercept, r = pearson_ols_oracle(xs, ys)
    assert fit.slope == pytest.approx(slope, abs=1e-15)
    assert fit.intercept == pytest.approx(intercept, abs=1e-15)
    assert fit.correlation == pytest.approx(r, abs=1e-15)
    assert fit.correlation == pytest.approx(0.99340, abs=1e-4)


def test_fit_exact_affine_series():
    x = np.linspace(0.0, 1.0, 500)
    y = 0.73 * x + 0.11
    fit = linear_fit_and_correlation(x, y)
    assert abs(fit.correlation - 1.0) <= 1e-12
    assert fit.slope == pytest.approx(0.73, abs=1e-12)
    assert fit.intercept == pytest.approx(0.11, abs=1e-12)


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(AnalysisError):
        linear_fit_and_correlation([0.5, 0.5, 0.5], [0.0, 1.0, 2.0])
    with pytest.raises(AnalysisError):
        linear_fit_and_correlation([0.5], [1.0])
    with pytest.raises(DegenerateSeriesError):
        linear_fit_and_correlation([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-2.0, max_value=2.0),
        ),
        min_size=3,
        max_size=50,
    )
)
def test_fit_matches_bruteforce_oracle(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    # keep both series spread out enough that the sums of squares cannot
    # underflow; degenerate series have their own tests
    if max(xs) - min(xs) < 1e-6:
        xs[0] = min(xs) + 1.0
    if max(ys) - min(ys) < 1e-6:
        ys[0] = min(ys) + 0.5
    fit = linear_fit_and_correlation(xs, ys)
    slope, intercept, r = pearson_ols_oracle(xs, ys)
    assert fit.slope == pytest.approx(slope, rel=1e-9, abs=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)
    assert fit.correlation == pytest.approx(r, rel=1e-9, abs=1e-9)
    assert -1.0 - 1e-12 <= fit.correlation <= 1.0 + 1e-12


# --- the full pipeline ------------------------------------------------------------


def test_analyze_full_pipeline_s1(noiseless_traces):
    report = analyze(noiseless_traces["S1"], label="S1_t00")
    assert not report.degenerate
    assert report.trimmed_samples > 0
    assert report.used_samples == 1001 - report.trimmed_samples
    assert report.peak_force_n == pytest.approx(17.444, abs=0.01)
    assert report.correlation > 0.999
    assert not report.breakaway_detected
    assert report.functional_extension is True
    # slope and peaks recover the subject's stiffness
    k_hat = report.slope * report.peak_force_n / report.peak_retraction_mm
    assert k_hat == pytest.approx(17.5 / 48.0, rel=0.02)


def test_analyze_breakaway_subject(noiseless_traces):
    report = analyze(noiseless_traces["S4"], label="S4_t00")
    assert report.breakaway_detected
    assert report.peak_force_n > 35.0
    assert report.functional_extension is False
    assert report.correlation > 0.99


def test_analyze_free_run_is_degenerate(hand, extension_net, profiles):
    """Stiffness zero: no force ever develops, so the report is degenerate."""
    from exosim.spasticity import SubjectProfile
    from exosim.trial import TrialConfig, run_trial

    s1 = profiles["S1"]
    free = SubjectProfile(
        s1.subject_id, s1.mas, 0.0, s1.rest_pose, s1.engage_slack_mm, s1.peak_band_n,
        s1.magnet, s1.notes,
    )
    trace = run_trial(TrialConfig(hand, extension_net, free), seed=0)
    report = analyze(trace, label="free")
    assert report.degenerate
    assert report.degenerate_reason
    assert report.correlation is None


def test_analyze_detector_only_trace():
    """No metadata: the collapse detector must find the release."""
    up = np.linspace(0.0, 36.0, 600)
    force = np.concatenate([up, np.zeros(200)])
    trace = synthetic_trace(force, stroke=50.0)
    report = analyze(trace, label="anon")
    assert report.breakaway_detected
    assert report.used_samples < 600 + 1
    assert report.peak_force_n == pytest.approx(36.0)


# Traces on which a stage fails, each with its report file, which keeps what
# the stages before the failing one found.
DEGENERATE = {
    # normalize succeeds and the fit fails: the peaks and the series stay
    "constant-force": (
        synthetic_trace([5.0] * 50, rate=10.0),
        "breakaway_detected: false\ncorrelation: null\ndegenerate: true\n"
        "degenerate_reason: force variance is zero, correlation undefined\n"
        "functional_extension: null\nintercept: null\nlabel: x\n"
        "peak_force_n: 5.0\npeak_retraction_mm: 24.5\nslope: null\n"
        "subject_id: ''\ntrimmed_samples: 0\nused_samples: 50\n",
    ),
    # the window is empty: no peaks, but the trimmed samples are counted
    "never-loaded": (
        synthetic_trace([0.0, 1.0, 2.0]),
        "breakaway_detected: false\ncorrelation: null\ndegenerate: true\n"
        "degenerate_reason: empty trace window, nothing to normalize\n"
        "functional_extension: null\nintercept: null\nlabel: x\n"
        "peak_force_n: null\npeak_retraction_mm: null\nslope: null\n"
        "subject_id: ''\ntrimmed_samples: 3\nused_samples: 0\n",
    ),
    # the release leaves one sample after the trim: peaks, but no fit
    "short-release": (
        synthetic_trace(
            [0.0, 5.0, 40.0, 0.0], rate=10.0, subject_id="S4", breakaway=True,
            breakaway_time_s=0.2, functional_extension=False,
        ),
        "breakaway_detected: true\ncorrelation: null\ndegenerate: true\n"
        "degenerate_reason: need at least two distinct positions to fit\n"
        "functional_extension: false\nintercept: null\nlabel: x\n"
        "peak_force_n: 5.0\npeak_retraction_mm: 0.5\nslope: null\n"
        "subject_id: S4\ntrimmed_samples: 1\nused_samples: 1\n",
    ),
}


@pytest.mark.parametrize("case", DEGENERATE)
def test_degenerate_report_keeps_what_earlier_stages_found(case):
    trace, text = DEGENERATE[case]
    report = analyze(trace, label="x")
    assert render_report_yaml(report) == text
    if report.peak_force_n is None:
        assert report.position_frac is None and report.force_frac is None
    else:
        assert len(report.position_frac) == len(report.force_frac) == report.used_samples


def test_report_yaml_round_trips():
    """The report file reads back as the record without its two series, for
    a default reproduction's reports and for degenerate ones."""
    bench = Bench(default_config()).calibrated()
    reports = [
        analyze(trace, label=f"{profile.subject_id}_t{t_idx:02d}", **bench.analysis)
        for profile, t_idx, trace in bench.trials(0, 1)
    ]
    reports += [analyze(trace, label="x") for trace, _ in DEGENERATE.values()]
    for report in reports:
        expected = report._asdict()
        del expected["position_frac"], expected["force_frac"]
        assert yaml.safe_load(render_report_yaml(report)) == expected


# --- batch aggregation ---------------------------------------------------------------


def test_batch_report_counts(noiseless_traces):
    reports = [
        analyze(trace, label=f"{sid}_t00") for sid, trace in noiseless_traces.items()
    ]
    summary = batch_report(reports)
    assert summary.totals.trials == 5
    assert summary.totals.functional_count == 4
    assert summary.totals.functional_known == 5
    assert summary.totals.breakaway_count == 2
    assert summary.totals.degenerate == 0
    assert [s.subject_id for s in summary.subjects] == ["S1", "S2", "S3", "S4", "S5"]
    text = summary.render()
    assert "functional extension 4/5" in text
    assert "breakaway 2/5" in text


def test_batch_report_deterministic_order(noiseless_traces):
    reports = [analyze(t, label=f"{s}_t00") for s, t in noiseless_traces.items()]
    a = batch_report(reports).render()
    b = batch_report(list(reversed(reports))).render()
    assert a == b


def test_batch_report_empty():
    summary = batch_report([])
    assert summary.totals.trials == 0
    assert "no reports" in summary.render()
