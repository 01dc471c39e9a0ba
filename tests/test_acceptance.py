"""Acceptance gate: the campaign-level behaviors the bench must reproduce.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from exosim.actuation import LoadCellSpec, coupling_for_magnet, measure
from exosim.analysis import analyze, linear_fit_and_correlation, trim_slack, truncate_breakaway
from exosim.hand import (
    Digit,
    FINGERS,
    JointKind,
    default_hand,
    finger_flexion_deg,
    spastic_rest_pose,
)
from exosim.spasticity import in_peak_band, resistance_force_n
from exosim.tendons import (
    DepthCalibrationError,
    calibrate_depth,
    config1_extension,
    config2_pinch,
    excursion_mm,
    index_excursion_mm,
    network_state,
)
from exosim.config import Bench, default_config
from exosim.trial import (
    PoseResponse, TrialConfig, derive_seed, junction_state, run_trial, trace_pose,
)
from exosim.reproduce import run_reproduction


def in_limits(hand, pose) -> bool:
    """True if validate_pose accepts the pose."""
    try:
        hand.validate_pose(pose)
    except ValueError:
        return False
    return True


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c01_depth_calibration(hand):
    net = config1_extension()
    excursion = index_excursion_mm(hand, net)
    depth = hand.depth_mm
    ok = abs(excursion - 57.0) <= 0.01 and depth > 0.0
    try:
        calibrate_depth(default_hand(), config1_extension(), 1000.0)
        ok = False
        bracket = "no error raised"
    except DepthCalibrationError as err:
        bracket = f"unreachable target reports bracket {err.bracket_mm[0]:.1f}..{err.bracket_mm[1]:.1f} mm"
    assert report(
        "C01 excursion-calibration",
        ok,
        f"index excursion {excursion:.5f} mm at depth {depth:.4f} mm; {bracket}",
    )


def test_c02_peak_force_bands(hand, extension_net, bank, noiseless_traces, noisy_traces):
    bands = {p.subject_id: p.peak_band_n for p in bank}
    details = []
    ok = True
    for source, label in ((noiseless_traces, "sigma=0"), (noisy_traces, "sigma=0.4")):
        for sid, trace in source.items():
            rep = analyze(trace)
            peak = rep.peak_force_n
            good = peak is not None and in_peak_band(peak, bands[sid])
            ok = ok and good
            details.append(f"{sid}@{label}={peak:.2f}N")
    assert report("C02 peak-force-bands", ok, "; ".join(details))


def test_c03_functional_and_breakaway_pattern(noiseless_traces, noisy_traces):
    ok = True
    details = []
    for source, label in ((noiseless_traces, "sigma=0"), (noisy_traces, "sigma=0.4")):
        functional = sorted(
            sid for sid, t in source.items() if t.functional_extension
        )
        released = sorted(sid for sid, t in source.items() if t.breakaway)
        s5 = source["S5"]
        ordering = (
            s5.functional_time_s is not None
            and s5.breakaway_time_s is not None
            and s5.functional_time_s < s5.breakaway_time_s
        )
        good = (
            functional == ["S1", "S2", "S3", "S5"]
            and released == ["S4", "S5"]
            and ordering
            and source["S4"].functional_extension is False
        )
        ok = ok and good
        details.append(
            f"{label}: functional {'/'.join(functional)} (4/5), released "
            f"{'/'.join(released)} (2/5), S5 opens at {s5.functional_time_s:.2f}s "
            f"before release at {s5.breakaway_time_s:.2f}s"
        )
    assert report("C03 functional-breakaway-pattern", ok, "; ".join(details))


def test_c04_correlation_band(hand, extension_net, bank):
    r_all = []
    ok = True
    for seed in range(1, 21):
        for s_idx, profile in enumerate(bank):
            cfg = TrialConfig(hand, extension_net, profile, noise_sigma_n=0.4)
            trace = run_trial(cfg, seed=derive_seed(seed, s_idx, 0))
            r = analyze(trace).correlation
            r_all.append(r)
            ok = ok and r is not None and 0.97 <= r <= 1.0
    # noiseless: the unquantized tension is exactly affine in position
    worst_noiseless = 0.0
    for profile in bank:
        trace = run_trial(TrialConfig(hand, extension_net, profile), seed=0)
        kept = truncate_breakaway(trim_slack(trace))
        x = kept.retraction_mm / float(np.max(kept.retraction_mm))
        y = kept.true_force_n / float(np.max(kept.true_force_n))
        fit = linear_fit_and_correlation(x, y)
        worst_noiseless = max(worst_noiseless, abs(fit.correlation - 1.0))
    ok = ok and worst_noiseless <= 1e-6
    assert report(
        "C04 correlation-band",
        ok,
        f"r in [{min(r_all):.4f}, {max(r_all):.4f}] over {len(r_all)} noisy trials; "
        f"noiseless |r-1| <= {worst_noiseless:.2e}",
    )


def test_c05_statistics_oracle():
    def oracle(xs, ys):
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        syy = sum((y - my) ** 2 for y in ys)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx
        return slope, my - slope * mx, sxy / math.sqrt(sxx * syy)

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 400))
        x = rng.uniform(0.0, 1.0, n)
        if np.ptp(x) == 0.0:
            x[0] += 1.0
        y = rng.normal(0.0, 1.0, n) + rng.uniform(-2.0, 2.0) * x
        if np.ptp(y) == 0.0:
            y[0] += 1.0
        fit = linear_fit_and_correlation(x, y)
        s, b, r = oracle(list(x), list(y))
        worst = max(
            worst, abs(fit.slope - s), abs(fit.intercept - b), abs(fit.correlation - r)
        )
    x = np.linspace(0.0, 1.0, 777)
    affine = linear_fit_and_correlation(x, 1.7 * x - 0.3)
    affine_err = abs(affine.correlation - 1.0)
    ok = worst <= 1e-9 and affine_err <= 1e-12
    assert report(
        "C05 statistics-oracle",
        ok,
        f"max |two-pass - bruteforce| = {worst:.2e} over 100 series; "
        f"affine |r-1| = {affine_err:.2e}",
    )


def test_c06_breakaway_coupling_semantics(hand, extension_net, profiles):
    from exosim.actuation import CouplingSpec, update_coupling

    # latching on adversarial sequences: open from the first crossing on
    rng = np.random.default_rng(7)
    latch_ok = True
    for _ in range(200):
        seq = rng.uniform(0.0, 60.0, rng.integers(1, 50))
        spec = CouplingSpec(float(rng.uniform(30.0, 45.0)))
        crossed = None
        for i, f in enumerate(seq):
            opened = update_coupling(seq[: i + 1], spec, np.arange(i + 1.0))
            if crossed is None and f >= spec.breakaway_force_n:
                crossed = i
            latch_ok = latch_ok and opened == (None if crossed is None else float(crossed))
    # exact-threshold equality opens the coupling
    exact_ok = update_coupling(34.0, CouplingSpec(34.0), 1.0) == 1.0
    # S4: the stronger magnet must hold strictly longer, and the transmitted
    # force must collapse to zero in the release sample
    profile = profiles["S4"]
    weak = run_trial(TrialConfig(hand, extension_net, profile, magnet="standard"), seed=0)
    strong = run_trial(TrialConfig(hand, extension_net, profile, magnet="strong"), seed=0)
    order_ok = (
        weak.breakaway and strong.breakaway
        and weak.breakaway_time_s < strong.breakaway_time_s
    )
    i_rel = int(np.nonzero(weak.t_s == weak.breakaway_time_s)[0][0])
    collapse_ok = weak.force_n[i_rel] == 0.0 and bool(np.all(weak.force_n[i_rel:] == 0.0))
    ok = latch_ok and exact_ok and order_ok and collapse_ok
    assert report(
        "C06 breakaway-semantics",
        ok,
        f"latching holds on 200 random sequences; threshold equality opens; "
        f"S4 release 34N at {weak.breakaway_time_s}s < 41N at {strong.breakaway_time_s}s; "
        f"transmitted force zero from the release sample",
    )


def test_c07_load_cell_quantization():
    cell = LoadCellSpec()
    forces = np.linspace(0.0, 49.9, 1000)
    errs = np.array([abs(measure(float(f), cell) - f) for f in forces])
    within = float(np.max(errs)) <= cell.resolution_n / 2.0 + 1e-12
    idem = all(
        measure(measure(float(f), cell), cell) == measure(float(f), cell)
        for f in np.linspace(0.0, 60.0, 500)
    )
    examples = (
        measure(0.0, cell) == 0.0
        and measure(0.300, cell) == pytest.approx(0.392)
        and measure(60.0, cell) == 50.0
    )
    ok = within and idem and examples
    assert report(
        "C07 load-cell-quantization",
        ok,
        f"max |quantized - true| = {float(np.max(errs)):.4f} N <= {cell.resolution_n / 2:.3f} N "
        f"on [0, 49.9]; re-measurement is a fixed point; examples hold",
    )


def test_c08_pose_response_directions(hand, extension_net, pinch_net):
    rest = spastic_rest_pose(hand, 0.75)
    ext = PoseResponse(hand, extension_net, rest)
    displacements = np.linspace(0.0, 50.0, 201)
    ext_poses = [ext.at(float(d)) for d in displacements]
    totals = [finger_flexion_deg(hand, p) for p in ext_poses]
    ext_ok = all(
        np.all(b <= a + 1e-9) for a, b in zip(totals, totals[1:])
    ) and all(in_limits(hand, p) for p in ext_poses)
    sat = ext.at(50.0)
    ext_ok = ext_ok and bool(np.all(finger_flexion_deg(hand, sat) <= 1e-9))
    # exact abduction neutrality of the extension network
    moved = rest.copy()
    moved[[hand.col((d, JointKind.ABDUCTION)) for d in FINGERS]] = 12.0
    abd_ok = (
        excursion_mm(hand, extension_net, moved).tolist()
        == excursion_mm(hand, extension_net, rest).tolist()
    )
    pinch_rest = spastic_rest_pose(hand, 0.6)
    pinch = PoseResponse(hand, pinch_net, pinch_rest)
    pinch_poses = [pinch.at(float(d)) for d in displacements]
    pinch_ok = True

    def column(digit, kind):
        return [p[hand.col((digit, kind))] for p in pinch_poses]

    for digit in FINGERS:
        mcp = column(digit, JointKind.MCP)
        pip = column(digit, JointKind.PIP)
        dip = column(digit, JointKind.DIP)
        pinch_ok = (
            pinch_ok
            and all(b >= a - 1e-9 for a, b in zip(mcp, mcp[1:]))
            and all(b <= a + 1e-9 for a, b in zip(pip, pip[1:]))
            and all(b <= a + 1e-9 for a, b in zip(dip, dip[1:]))
            and mcp[-1] > mcp[0]
            and pip[-1] < pip[0]
        )
    thumb = column(Digit.THUMB, JointKind.ABDUCTION)
    pinch_ok = (
        pinch_ok
        and all(b >= a - 1e-9 for a, b in zip(thumb, thumb[1:]))
        and thumb[-1] > thumb[0]
        and all(in_limits(hand, p) for p in pinch_poses)
    )
    ok = ext_ok and abd_ok and pinch_ok
    assert report(
        "C08 pose-response-directions",
        ok,
        "extension opens monotonically and saturates; abduction leaves excursion "
        "unchanged exactly; pinch flexes MCPs, straightens PIP/DIP, adducts thumb",
    )


def test_c09_trace_constraint_consistency(hand, extension_net, profiles):
    profile = profiles["S2"]
    cfg = TrialConfig(hand, extension_net, profile, noise_sigma_n=0.4)
    trace = run_trial(cfg, seed=11)
    kin = junction_state(cfg, trace)
    poses = trace_pose(cfg, trace)
    worst = 0.0
    balance_exact = True
    for i in range(len(trace)):
        d = trace.stroke_mm - trace.actuator_mm[i]
        state = network_state(hand, extension_net, poses[i], d, rest_deg=profile.rest_pose)
        if kin.taut[i].tolist() != state.taut.tolist():
            balance_exact = False
        gap = np.abs(kin.elongation_mm[i] - state.elongation_mm)
        worst = max(worst, float(np.max(gap)))
        balance_exact = balance_exact and (
            kin.actuator_tension_n[i] == sum(bt for bt in kin.tension_n[i])
        )
    # the noiseless channel must satisfy the spring law exactly
    quiet = run_trial(TrialConfig(hand, extension_net, profile), seed=0)
    spring_err = 0.0
    slack = extension_net.branches[0].slack_mm
    for i in range(len(quiet)):
        d = quiet.stroke_mm - quiet.actuator_mm[i]
        expected = resistance_force_n(profile, max(0.0, d - slack))
        spring_err = max(spring_err, abs(quiet.true_force_n[i] - expected))
        if measure(max(0.0, quiet.true_force_n[i])) != quiet.force_n[i]:
            balance_exact = False
    ok = worst <= 1e-9 and balance_exact and spring_err <= 1e-9
    assert report(
        "C09 trace-consistency",
        ok,
        f"recorded junction states re-evaluate within {worst:.1e} mm; actuator "
        f"tension equals branch sum exactly; spring law error {spring_err:.1e} N",
    )


def test_c10_reproduction_determinism(tmp_path):
    t0 = time.perf_counter()
    hand = calibrate_depth(default_hand(), config1_extension(), 57.0)
    calibration_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    ((_, checks_a, manifest_a),) = run_reproduction(Bench(default_config()), tmp_path / "a", [0])
    elapsed = time.perf_counter() - t0
    ((_, checks_b, manifest_b),) = run_reproduction(Bench(default_config()), tmp_path / "b", [0])

    all_pass = all(c.passed for c in checks_a) and all(c.passed for c in checks_b)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    same_tree = files_a == files_b
    identical = same_tree and all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in files_a
    )
    ok = all_pass and identical and elapsed < 60.0 and calibration_s < 1.0
    assert report(
        "C10 reproduction",
        ok,
        f"{len(checks_a)} checks pass; {len(files_a)} artifacts byte-identical across "
        f"reruns; campaign {elapsed:.1f} s (limit 60), calibration {calibration_s * 1e3:.0f} ms "
        f"(limit 1 s)",
    )
