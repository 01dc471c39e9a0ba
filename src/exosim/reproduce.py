"""End-to-end reproduction of the bench campaign with self-checks.

Calibrates the hand, runs one trial per bank subject, analyzes every trace,
and verifies the campaign-level findings: the excursion calibration, the
recorded peak-force bands, which subjects reach a functional opening, which
couplings release, the force-position correlation band, and the direction of
motion of the pinch-shaping network.  Results land in a pass/fail manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import analyze, batch_report
from .config import Bench, config_hash, default_config
from .hand import Digit, JointKind, FINGERS, spastic_rest_pose
from .spasticity import in_peak_band
from .tendons import (
    NetworkKind,
    branch_excursion_mm,
    calibrate_depth,
    full_flexion_excursion_mm,
    index_branch,
)
from .trial import PoseResponse, derive_seed, run_trial
from .traceio import render_fit_csv, render_report_yaml, write_text_atomic, write_trace

R_BAND = (0.97, 1.0)
R_TOL = 5e-4  # correlation band edges are quoted to two decimals


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _check_pinch_directions(bench: Bench) -> CheckResult:
    """Pinch network: MCPs advance toward flexion, PIP/DIP straighten, and
    the thumb adducts, monotonically in displacement."""
    response = PoseResponse(bench.hand, bench.pinch, spastic_rest_pose(bench.hand, 0.6))
    angles = response.angles(np.arange(101) * 0.5)

    def column(digit: Digit, kind: JointKind) -> np.ndarray:
        return angles[:, response.joints.index((digit, kind))]

    problems = []
    for digit in FINGERS:
        mcp, pip, dip = (
            column(digit, kind) for kind in (JointKind.MCP, JointKind.PIP, JointKind.DIP)
        )
        if np.any(mcp[1:] < mcp[:-1] - 1e-9):
            problems.append(f"{digit.value} MCP not non-decreasing")
        if np.any(pip[1:] > pip[:-1] + 1e-9):
            problems.append(f"{digit.value} PIP not non-increasing")
        if np.any(dip[1:] > dip[:-1] + 1e-9):
            problems.append(f"{digit.value} DIP not non-increasing")
    thumb_adduction = column(Digit.THUMB, JointKind.ABDUCTION)
    if np.any(thumb_adduction[1:] < thumb_adduction[:-1] - 1e-9):
        problems.append("thumb adduction not non-decreasing")
    index_mcp = column(FINGERS[0], JointKind.MCP)
    if not index_mcp[-1] - index_mcp[0] > 0:
        problems.append("index MCP never moved")
    ok = not problems
    detail = "MCP flexes, PIP/DIP extend, thumb adducts, all monotone"
    return CheckResult("pinch_directions", ok, detail if ok else "; ".join(problems))


def _check_abduction_neutrality(bench: Bench) -> CheckResult:
    """Extension branches must be exactly insensitive to abduction."""
    hand = bench.hand
    rest = spastic_rest_pose(hand, 0.75)
    deltas = []
    for offset in (-10.0, -3.0, 5.0, 15.0):
        moved = rest.replace_angles(
            {(d, JointKind.ABDUCTION): offset for d in FINGERS}
        )
        for b in bench.extension.branches:
            deltas.append(
                branch_excursion_mm(hand, b, moved) - branch_excursion_mm(hand, b, rest)
            )
    ok = all(d == 0.0 for d in deltas)
    return CheckResult(
        "abduction_neutrality",
        ok,
        "extension excursion unchanged by abduction"
        if ok
        else f"max excursion change {max(abs(d) for d in deltas):.3g} mm",
    )


def run_reproduction(
    out_dir: str | Path,
    *,
    base_seed: int = 0,
    cfg: dict | None = None,
    magnet: str | None = None,
    trials_per_subject: int = 1,
) -> tuple[list[CheckResult], Path]:
    """Run the campaign and write traces, reports, summary, and manifest.

    Returns the check list and the manifest path.  ``magnet`` forces one
    coupling for every subject (the per-subject choice is the default).
    The trials drive the extension network whatever ``network.kind`` says.
    """
    out = Path(out_dir)
    cfg = cfg if cfg is not None else default_config()
    chash = config_hash(cfg)
    bench = Bench.from_config(cfg)
    checks: list[CheckResult] = []

    target, tol = bench.excursion_target_mm, bench.depth_tolerance_mm
    hand = calibrate_depth(bench.hand, bench.extension, target, tol_mm=tol)
    bench = replace(bench, hand=hand, kind=NetworkKind.EXTENSION)
    excursion = full_flexion_excursion_mm(hand, index_branch(bench.extension))
    checks.append(
        CheckResult(
            "excursion_calibration",
            abs(excursion - target) <= tol,
            f"index extension excursion {excursion:.4f} mm vs target {target} mm "
            f"(depth {hand.depth((Digit.INDEX, JointKind.MCP)):.4f} mm)",
        )
    )

    traces_dir = out / "traces"
    reports_dir = out / "reports"
    reports = []
    traces = {}
    for s_idx, profile in enumerate(bench.bank):
        trial_cfg = bench.trial_config(profile, magnet)
        for t_idx in range(trials_per_subject):
            trace = run_trial(trial_cfg, derive_seed(base_seed, s_idx, t_idx))
            label = f"{profile.subject_id}_t{t_idx:02d}"
            write_trace(trace, traces_dir / f"{label}.csv", config_hash=chash)
            report = analyze(trace, label=label, **bench.analysis)
            write_text_atomic(reports_dir / f"{label}.report.yaml", render_report_yaml(report))
            write_text_atomic(reports_dir / f"{label}_fit.csv", render_fit_csv(report))
            reports.append(report)
            if t_idx == 0:
                traces[profile.subject_id] = trace

    summary = batch_report(reports)
    write_text_atomic(out / "summary.txt", summary.render())

    for profile in bench.bank:
        report = next(r for r in reports if r.subject_id == profile.subject_id)
        peak = report.peak_force_n if report.peak_force_n is not None else float("nan")
        band = profile.peak_band_n
        hi_text = "inf" if band is None or band[1] is None else f"{band[1]:g}"
        checks.append(
            CheckResult(
                f"peak_band_{profile.subject_id}",
                band is None or in_peak_band(peak, band),
                f"recorded peak {peak:.2f} N, band [{band[0]:g}, {hi_text}] N"
                if band
                else f"recorded peak {peak:.2f} N",
            )
        )

    first_trials = [r for r in reports if r.label.endswith("_t00")]
    functional_ids = sorted(
        r.subject_id for r in first_trials if r.functional_extension
    )
    breakaway_ids = sorted(r.subject_id for r in first_trials if r.breakaway_detected)
    checks.append(
        CheckResult(
            "functional_extension_count",
            functional_ids == ["S1", "S2", "S3", "S5"],
            f"{len(functional_ids)}/{len(first_trials)} subjects opened "
            f"functionally: {', '.join(functional_ids) or 'none'}",
        )
    )
    checks.append(
        CheckResult(
            "breakaway_count",
            breakaway_ids == ["S4", "S5"],
            f"{len(breakaway_ids)}/{len(first_trials)} couplings released: "
            f"{', '.join(breakaway_ids) or 'none'}",
        )
    )
    s5 = traces.get("S5")
    s5_ok = (
        s5 is not None
        and s5.functional_extension is True
        and s5.breakaway
        and s5.functional_time_s is not None
        and s5.breakaway_time_s is not None
        and s5.functional_time_s < s5.breakaway_time_s
    )
    checks.append(
        CheckResult(
            "s5_functional_before_release",
            bool(s5_ok),
            (
                f"functional at {s5.functional_time_s:.2f} s, release at "
                f"{s5.breakaway_time_s:.2f} s"
                if s5_ok
                else "S5 ordering not satisfied"
            ),
        )
    )

    fitted = [r for r in reports if r.correlation is not None]
    r_values = [r.correlation for r in fitted]
    r_ok = (
        len(fitted) == len(reports)
        and all(R_BAND[0] - R_TOL <= r <= R_BAND[1] + R_TOL for r in r_values)
    )
    checks.append(
        CheckResult(
            "correlation_band",
            r_ok,
            f"r in [{min(r_values):.4f}, {max(r_values):.4f}] across "
            f"{len(r_values)} traces (band {R_BAND[0]}..{R_BAND[1]})"
            if r_values
            else "no fitted traces",
        )
    )

    checks.append(_check_pinch_directions(bench))
    checks.append(_check_abduction_neutrality(bench))

    manifest_path = out / "manifest.txt"
    overall = all(c.passed for c in checks)
    lines = [c.line() for c in checks]
    # no wall-clock content in the manifest: reruns must be byte-identical
    lines.append(f"RESULT: {'PASS' if overall else 'FAIL'}")
    write_text_atomic(manifest_path, "\n".join(lines) + "\n")
    return checks, manifest_path
