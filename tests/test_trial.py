import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exosim.actuation import (
    ActuatorSpec,
    CouplingState,
    coupling_for_magnet,
    measure,
    update_coupling,
)
from exosim.hand import Digit, FINGERS, JointKind, spastic_rest_pose
from exosim.spasticity import resistance_force_n
from exosim.tendons import branch_excursion_mm, network_state
from exosim.trial import (
    PoseResponse,
    TrialConfig,
    derive_seed,
    is_functional_extension,
    run_trial,
    trial_config_for,
    trial_sample_count,
)


def test_sample_grid(hand, extension_net, bank):
    cfg = trial_config_for(hand, extension_net, bank.by_id("S1"))
    assert trial_sample_count(cfg) == 1001
    trace = run_trial(cfg, seed=0)
    assert len(trace) == 1001
    assert trace.t_s[0] == 0.0
    assert trace.t_s[-1] == pytest.approx(10.0)
    assert trace.actuator_mm[0] == 50.0
    assert trace.actuator_mm[-1] == 0.0
    # constant retraction speed
    steps = np.diff(trace.actuator_mm)
    assert np.allclose(steps, -0.05, atol=1e-12)


def test_determinism_bitwise(hand, extension_net, bank):
    cfg = trial_config_for(hand, extension_net, bank.by_id("S2"), noise_sigma_n=0.4)
    a = run_trial(cfg, seed=42)
    b = run_trial(cfg, seed=42)
    assert np.array_equal(a.force_n, b.force_n)
    assert np.array_equal(a.true_force_n, b.true_force_n)
    c = run_trial(cfg, seed=43)
    assert not np.array_equal(a.force_n, c.force_n)


def test_seed_stream_distinct():
    seeds = {
        tuple(derive_seed(b, s, t).entropy)
        for b in range(3)
        for s in range(5)
        for t in range(4)
    }
    assert len(seeds) == 60


def test_noiseless_force_is_quantized_spring(hand, extension_net, bank):
    """Against the closed form: F = k * (D - slack) while the coupling holds."""
    profile = bank.by_id("S1")
    cfg = trial_config_for(hand, extension_net, profile)
    trace = run_trial(cfg, seed=0)
    slack = extension_net.branches[0].slack_mm
    for i in range(0, len(trace), 97):
        d = trace.stroke_mm - trace.actuator_mm[i]
        expected = profile.stiffness_n_per_mm * max(0.0, d - slack)
        assert trace.true_force_n[i] == pytest.approx(expected, abs=1e-9)
    assert trace.force_n[-1] == pytest.approx(
        0.196 * round(profile.stiffness_n_per_mm * 48.0 / 0.196), abs=1e-9
    )


def test_invalid_trial_configs(hand, extension_net, bank):
    with pytest.raises(ValueError):
        trial_config_for(hand, extension_net, bank.by_id("S1"), sample_rate_hz=0.0)
    with pytest.raises(ValueError):
        trial_config_for(hand, extension_net, bank.by_id("S1"), noise_sigma_n=-0.1)
    # breakaway threshold must stay below the actuator's peak force
    with pytest.raises(ValueError):
        TrialConfig(
            hand=hand,
            network=extension_net,
            subject=bank.by_id("S1"),
            coupling=coupling_for_magnet("strong"),
            actuator=ActuatorSpec(peak_force_n=40.0),
        )


# --- pose response ------------------------------------------------------------


def test_extension_response_monotone_open(hand, extension_net):
    rest = spastic_rest_pose(hand, 0.75)
    response = PoseResponse(hand, extension_net, rest)
    last_total = {d: math.inf for d in FINGERS}
    for disp in np.linspace(0.0, 50.0, 201):
        pose = response.at(float(disp))
        assert hand.pose_in_limits(pose)
        for d in FINGERS:
            total = pose.total_finger_flexion(d)
            assert total <= last_total[d] + 1e-9
            last_total[d] = total
    # fully retracted: everything driven reaches full extension
    final = response.at(50.0)
    for d in FINGERS:
        assert final.total_finger_flexion(d) == pytest.approx(0.0, abs=1e-9)


def test_extension_response_deficit_matches_displacement(hand, extension_net):
    """While following, the pose pays out exactly the displacement past slack."""
    rest = spastic_rest_pose(hand, 0.75)
    response = PoseResponse(hand, extension_net, rest)
    for disp in (3.0, 10.0, 25.0, 40.0):
        pose = response.at(disp)
        for b in extension_net.branches:
            deficit = branch_excursion_mm(hand, b, rest) - branch_excursion_mm(
                hand, b, pose
            )
            expected = min(disp - b.slack_mm, branch_excursion_mm(hand, b, rest))
            assert deficit == pytest.approx(expected, abs=1e-9)


def test_extension_response_holds_rest_before_slack(hand, extension_net):
    rest = spastic_rest_pose(hand, 0.75)
    response = PoseResponse(hand, extension_net, rest)
    assert response.at(0.0).angles_deg == rest.angles_deg
    assert response.at(1.99).angles_deg == rest.angles_deg


def test_extension_saturates_beyond_rest_excursion(hand, extension_net):
    rest = spastic_rest_pose(hand, 0.3)
    response = PoseResponse(hand, extension_net, rest)
    e_rest = branch_excursion_mm(hand, extension_net.branches[0], rest)
    pose = response.at(e_rest + 10.0)
    for d in FINGERS:
        assert pose.total_finger_flexion(d) == pytest.approx(0.0, abs=1e-9)


def test_dip_follows_pip_in_extension(hand, extension_net):
    rest = spastic_rest_pose(hand, 0.75)
    response = PoseResponse(hand, extension_net, rest)
    pose = response.at(20.0)
    for d in FINGERS:
        pip = pose.get((d, JointKind.PIP))
        dip = pose.get((d, JointKind.DIP))
        assert dip == pytest.approx(0.7 * pip, abs=1e-9)


def test_pinch_response_directions(hand, pinch_net):
    rest = spastic_rest_pose(hand, 0.6)
    response = PoseResponse(hand, pinch_net, rest)
    poses = [response.at(float(d)) for d in np.linspace(0.0, 50.0, 101)]
    for digit in FINGERS:
        mcp = [p.get((digit, JointKind.MCP)) for p in poses]
        pip = [p.get((digit, JointKind.PIP)) for p in poses]
        dip = [p.get((digit, JointKind.DIP)) for p in poses]
        assert all(b >= a - 1e-9 for a, b in zip(mcp, mcp[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(pip, pip[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(dip, dip[1:]))
        assert mcp[-1] > mcp[0]  # MCp actually advances toward flexion
        assert pip[-1] < pip[0]
    # thumb adducts (its abduction axis plays the proximal role)
    thumb = [p.get((Digit.THUMB, JointKind.ABDUCTION)) for p in poses]
    assert all(b >= a - 1e-9 for a, b in zip(thumb, thumb[1:]))
    assert thumb[-1] > thumb[0]
    for p in poses:
        assert hand.pose_in_limits(p)


def test_pinch_saturates_at_joint_limits(hand, pinch_net):
    rest = spastic_rest_pose(hand, 0.6)
    response = PoseResponse(hand, pinch_net, rest)
    pose = response.at(500.0)
    for digit in FINGERS:
        assert pose.get((digit, JointKind.MCP)) == pytest.approx(90.0)
        assert pose.get((digit, JointKind.PIP)) == pytest.approx(0.0)
        assert pose.get((digit, JointKind.DIP)) == pytest.approx(0.0)


def test_response_rejects_negative_displacement(hand, extension_net):
    response = PoseResponse(hand, extension_net, spastic_rest_pose(hand, 0.5))
    with pytest.raises(ValueError):
        response.at(-1.0)


# --- functional extension -------------------------------------------------------


def test_functional_extension_threshold(hand):
    open_pose = spastic_rest_pose(hand, 0.2)  # totals 52 degrees per finger
    closed = spastic_rest_pose(hand, 0.75)  # totals 195 degrees
    assert is_functional_extension(open_pose)
    assert not is_functional_extension(closed)


def test_functional_extension_boundary_inclusive(hand):
    # fraction chosen so each finger totals exactly the 110-degree threshold
    fraction = 110.0 / 260.0
    pose = spastic_rest_pose(hand, fraction)
    assert pose.total_finger_flexion(Digit.INDEX) == pytest.approx(110.0)
    assert is_functional_extension(pose, 110.0)


def test_functional_extension_worst_finger_governs(hand):
    pose = spastic_rest_pose(hand, {"default": 0.2, Digit.RING: 0.9})
    assert not is_functional_extension(pose)


# --- trial events ----------------------------------------------------------------


def test_functional_times_against_closed_form(hand, extension_net, bank):
    """D_functional = slack + e_rest * (1 - theta_func / total_rest_flexion)."""
    for sid in ("S1", "S2", "S5"):
        profile = bank.by_id(sid)
        trace = run_trial(trial_config_for(hand, extension_net, profile), seed=0)
        rest = profile.rest_pose
        worst = max(rest.total_finger_flexion(d) for d in FINGERS)
        e_rest = max(
            branch_excursion_mm(hand, b, rest) for b in extension_net.branches
        )
        d_func = 2.0 + e_rest * (1.0 - 110.0 / worst)
        t_func = d_func / 5.0
        # the event lands on the first sample at or past the crossing
        assert trace.functional_extension is True
        assert trace.functional_time_s == pytest.approx(t_func, abs=0.011)


def test_s4_never_functional(hand, extension_net, bank):
    trace = run_trial(trial_config_for(hand, extension_net, bank.by_id("S4")), seed=0)
    assert trace.functional_extension is False
    assert trace.functional_time_s is None
    assert trace.breakaway


def test_breakaway_event_matches_first_threshold_crossing(hand, extension_net, bank):
    profile = bank.by_id("S4")
    cfg = trial_config_for(hand, extension_net, profile, noise_sigma_n=0.4)
    trace = run_trial(cfg, seed=9)
    crossings = np.nonzero(trace.true_force_n >= cfg.coupling.breakaway_force_n)[0]
    assert trace.breakaway
    assert crossings.size > 0
    first = int(crossings[0])
    assert trace.breakaway_time_s == pytest.approx(trace.t_s[first])
    # transmitted force collapses in the same sample and stays at zero
    assert trace.force_n[first] == 0.0
    assert np.all(trace.force_n[first:] == 0.0)


def test_no_breakaway_below_threshold(hand, extension_net, bank):
    trace = run_trial(trial_config_for(hand, extension_net, bank.by_id("S1")), seed=0)
    assert not trace.breakaway
    assert trace.breakaway_time_s is None
    assert np.all(trace.true_force_n < 34.0)


def test_stronger_magnet_delays_s4_release(hand, extension_net, bank):
    profile = bank.by_id("S4")
    weak = run_trial(
        trial_config_for(hand, extension_net, profile, magnet="standard"), seed=0
    )
    strong = run_trial(
        trial_config_for(hand, extension_net, profile, magnet="strong"), seed=0
    )
    assert weak.breakaway and strong.breakaway
    assert weak.breakaway_time_s < strong.breakaway_time_s


def test_hand_relaxes_to_rest_after_release(hand, extension_net, bank):
    profile = bank.by_id("S4")
    trace = run_trial(trial_config_for(hand, extension_net, profile), seed=0)
    assert trace.final_pose is not None
    assert trace.final_pose.angles_deg == profile.rest_pose.angles_deg


def test_recorded_samples_satisfy_model_relations(hand, extension_net, bank):
    """Re-evaluate the constitutive relations on recorded samples."""
    profile = bank.by_id("S5")
    cfg = trial_config_for(hand, extension_net, profile, noise_sigma_n=0.4)
    trace = run_trial(cfg, seed=3)
    for i in range(0, len(trace), 53):
        d = trace.stroke_mm - trace.actuator_mm[i]
        state = network_state(
            hand, extension_net, trace.poses[i], d, rest_pose=profile.rest_pose
        )
        for b, bs in enumerate(state.branches):
            assert bool(trace.branch_taut[i, b]) == bs.taut
            assert trace.branch_elongation_mm[i, b] == pytest.approx(
                bs.elongation_mm, abs=1e-9
            )
        assert trace.actuator_tension_n[i] == pytest.approx(
            float(np.sum(trace.branch_tension_n[i])), abs=1e-12
        )


@pytest.mark.parametrize("network", ["extension_net", "pinch_net"])
@pytest.mark.parametrize("sid", ["S1", "S2", "S3", "S4", "S5"])
def test_grid_kernel_matches_laws_stepped_per_sample(request, hand, bank, network, sid):
    """The whole-grid trial against each law called one sample at a time, in
    the order one retraction steps through them; every recorded value is
    equal, not just close."""
    net = request.getfixturevalue(network)
    profile = bank.by_id(sid)
    rest = profile.rest_pose
    cfg = trial_config_for(hand, net, profile, noise_sigma_n=0.4)
    trace = run_trial(cfg, seed=5)
    noise = np.random.default_rng(5).normal(0.0, 0.4, len(trace))
    response = PoseResponse(hand, net, rest)
    coupling = CouplingState()
    functional_time = None
    for i, t in enumerate(trace.t_s):
        held = coupling.engaged
        d = trace.stroke_mm - trace.actuator_mm[i]
        pose = response.at(d) if held else rest
        assert trace.poses[i].angles_deg == pose.angles_deg
        assert trace.angles_deg[i].tolist() == [pose.angle(j) for j in trace.joints]
        kin = network_state(hand, net, pose, d, rest_pose=rest)
        spring = resistance_force_n(profile, kin.net_elongation_mm) if held else 0.0
        true_force = spring + noise[i]
        coupling = update_coupling(coupling, true_force, cfg.coupling, t)
        transmitted = max(0.0, true_force) if coupling.engaged else 0.0
        kin = kin.with_total_tension(transmitted)
        assert trace.true_force_n[i] == true_force
        assert trace.force_n[i] == measure(transmitted, cfg.cell)
        assert trace.branch_taut[i].tolist() == [b.taut for b in kin.branches]
        assert trace.branch_elongation_mm[i].tolist() == [
            b.elongation_mm for b in kin.branches
        ]
        assert trace.branch_tension_n[i].tolist() == [b.tension_n for b in kin.branches]
        assert trace.actuator_tension_n[i] == kin.actuator_tension_n
        if held and functional_time is None and is_functional_extension(pose):
            functional_time = t
    assert trace.breakaway == (not coupling.engaged)
    assert trace.breakaway_time_s == coupling.disengage_time_s
    assert trace.functional_time_s == functional_time
    assert trace.functional_extension == (functional_time is not None)
    assert trace.final_pose.angles_deg == pose.angles_deg

    window = trace.window(150, 700)
    assert window.joints == trace.joints
    assert window.poses == trace.poses[150:700]
    for name in ("t_s", "force_n", "angles_deg", "branch_taut", "branch_tension_n"):
        assert np.array_equal(getattr(window, name), getattr(trace, name)[150:700])


@settings(deadline=None, max_examples=25)
@given(
    st.floats(min_value=0.05, max_value=2.5),
    st.floats(min_value=0.3, max_value=0.95),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_trial_invariants_random_subjects(stiffness, fraction, seed):
    """Any subject: forces in range, quantized channel on the sensor grid,
    breakaway iff a true-force crossing, trace arrays consistent."""
    from exosim.hand import default_hand
    from exosim.spasticity import MasLevel, SubjectProfile
    from exosim.tendons import calibrate_depth, config1_extension

    net = config1_extension()
    hand = calibrate_depth(default_hand(), net, 57.0)
    profile = SubjectProfile(
        subject_id="X",
        mas=MasLevel.TWO,
        stiffness_n_per_mm=stiffness,
        rest_pose=spastic_rest_pose(hand, fraction),
    )
    cfg = trial_config_for(hand, net, profile, noise_sigma_n=0.3)
    trace = run_trial(cfg, seed=seed)
    assert len(trace) == 1001
    assert np.all(trace.force_n >= 0.0)
    assert np.all(trace.force_n <= 50.0)
    on_grid = np.abs(
        trace.force_n - 0.196 * np.round(trace.force_n / 0.196)
    ) < 1e-9
    assert np.all(on_grid | (trace.force_n == 50.0))
    crossings = np.nonzero(trace.true_force_n >= cfg.coupling.breakaway_force_n)[0]
    assert trace.breakaway == bool(crossings.size)
    if trace.breakaway:
        assert trace.breakaway_time_s == pytest.approx(trace.t_s[int(crossings[0])])
