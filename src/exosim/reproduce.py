"""End-to-end reproduction of the bench campaign with self-checks.

Calibrates the hand once, then for each noise seed runs each bank subject's
trials, analyzes every trace, and verifies the campaign-level findings: the
excursion calibration, the recorded peak-force bands, which subjects reach a
functional opening, which couplings release, the force-position correlation
band, and the direction of motion of the pinch-shaping network.  Results
land in one pass/fail manifest per seed.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .analysis import analyze, batch_report
from .config import Bench
from .hand import Digit, JointKind, FINGERS, spastic_rest_pose
from .spasticity import in_peak_band
from .tendons import NetworkKind, excursion_mm, index_excursion_mm
from .trial import PoseResponse
from .traceio import write_report, write_text_atomic, write_trace

R_BAND = (0.97, 1.0)
R_TOL = 5e-4  # correlation band edges are quoted to two decimals


class CheckResult(NamedTuple):
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
    angles = response.at(np.arange(101) * 0.5)

    def column(digit: Digit, kind: JointKind) -> np.ndarray:
        return angles[:, bench.hand.col((digit, kind))]

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
    hand, net = bench.hand, bench.extension
    rest = spastic_rest_pose(hand, 0.75)
    # One row per abduction offset, applied to every finger.
    moved = np.tile(rest, (4, 1))
    moved[:, [hand.col((d, JointKind.ABDUCTION)) for d in FINGERS]] = [
        [-10.0], [-3.0], [5.0], [15.0]
    ]
    deltas = excursion_mm(hand, net, moved) - excursion_mm(hand, net, rest)
    ok = not deltas.any()
    return CheckResult(
        "abduction_neutrality",
        ok,
        "extension excursion unchanged by abduction"
        if ok
        else f"max excursion change {np.abs(deltas).max():.3g} mm",
    )


def _seed_checks(
    bench: Bench, out: Path, seed: int, trials_per_subject: int, config_hash: str
) -> list[CheckResult]:
    """Run one seed's trials, write and analyze them under ``out``, and check them."""
    traces_dir = out / "traces"
    reports_dir = out / "reports"
    reports = []
    first = {}  # each subject's first (trace, report), which the checks below read
    for profile, t_idx, trace in bench.trials(seed, trials_per_subject):
        label = f"{profile.subject_id}_t{t_idx:02d}"
        write_trace(trace, traces_dir / f"{label}.csv", config_hash=config_hash)
        report = write_report(analyze(trace, label=label, **bench.analysis), reports_dir)
        reports.append(report)
        first.setdefault(profile.subject_id, (trace, report))

    summary = batch_report(reports)
    write_text_atomic(out / "summary.txt", summary.render())

    checks = []
    for profile in bench.bank:
        report = first[profile.subject_id][1]
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

    first_trials = [report for _, report in first.values()]
    functional_ids = sorted(r.subject_id for r in first_trials if r.functional_extension)
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
    s5 = first["S5"][0] if "S5" in first else None
    s5_ok = (
        s5 is not None
        and s5.functional_extension
        and s5.breakaway
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
        0 < len(fitted) == len(reports)
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
    return checks


def run_reproduction(
    bench: Bench,
    out_dir: str | Path,
    seeds: Sequence[int],
    *,
    trials_per_subject: int = 1,
    config_hash: str = "",
) -> list[tuple[int, list[CheckResult], Path]]:
    """Run the campaign on ``bench`` for each of ``seeds``, in order, and
    write each seed's traces (stamped with ``config_hash``, the hash of its
    config), reports, summary and manifest: into ``out_dir`` for one seed,
    into ``out_dir/seed_<n>`` for several.  Returns ``(seed, checks,
    manifest path)`` for each seed.

    The depth calibration, and the checks that it alone decides, run once
    and every manifest repeats them.  The campaign drives the extension
    network; ValueError, before anything is written, if ``bench`` drives
    the pinch network.
    """
    if bench.kind is not NetworkKind.EXTENSION:
        raise ValueError(
            f"reproduce drives the extension network; network.kind is {bench.kind.value!r}"
        )
    bench = bench.calibrated()
    target, tol = bench.excursion_target_mm, bench.depth_tolerance_mm
    excursion = index_excursion_mm(bench.hand, bench.extension)
    calibration = CheckResult(
        "excursion_calibration",
        abs(excursion - target) <= tol,
        f"index extension excursion {excursion:.4f} mm vs target {target} mm "
        f"(depth {bench.hand.depth_mm:.4f} mm)",
    )
    network_checks = [_check_pinch_directions(bench), _check_abduction_neutrality(bench)]

    root, sweep = Path(out_dir), []
    for seed in seeds:
        out = root if len(seeds) == 1 else root / f"seed_{seed}"
        seed_checks = _seed_checks(bench, out, seed, trials_per_subject, config_hash)
        checks = [calibration, *seed_checks, *network_checks]
        lines = [c.line() for c in checks]
        # no wall-clock content in the manifest: reruns must be byte-identical
        lines.append(f"RESULT: {'PASS' if all(c.passed for c in checks) else 'FAIL'}")
        write_text_atomic(out / "manifest.txt", "\n".join(lines) + "\n")
        sweep.append((seed, checks, out / "manifest.txt"))
    return sweep
