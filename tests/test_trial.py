import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exosim import opening, trial
from exosim.actuation import (
    ActuatorSpec,
    measure,
    update_coupling,
)
from exosim.config import Bench, apply_overrides, default_config
from exosim.hand import (
    Digit,
    FINGER_JOINT_KINDS,
    FINGERS,
    JointKind,
    finger_flexion_deg,
    spastic_rest_pose,
)
from exosim.spasticity import MasLevel, SubjectProfile, resistance_force_n
from exosim.tendons import (
    NetworkKind,
    RoutingPoint,
    Side,
    TendonBranch,
    TendonNetwork,
    excursion_mm,
    net_elongation_mm,
    network_state,
)
from exosim.trial import (
    MAX_SAMPLES,
    PoseResponse,
    TrialConfig,
    derive_seed,
    is_functional_extension,
    junction_state,
    run_trial,
    trace_pose,
    trial_sample_count,
)


def test_sample_grid(hand, extension_net, profiles):
    cfg = TrialConfig(hand, extension_net, profiles["S1"])
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


def test_determinism_bitwise(hand, extension_net, profiles):
    cfg = TrialConfig(hand, extension_net, profiles["S2"], noise_sigma_n=0.4)
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


def test_noiseless_force_is_quantized_spring(hand, extension_net, profiles):
    """Against the closed form: F = k * (D - slack) while the coupling holds."""
    profile = profiles["S1"]
    cfg = TrialConfig(hand, extension_net, profile)
    trace = run_trial(cfg, seed=0)
    slack = extension_net.branches[0].slack_mm
    for i in range(0, len(trace), 97):
        d = trace.stroke_mm - trace.actuator_mm[i]
        expected = profile.stiffness_n_per_mm * max(0.0, d - slack)
        assert trace.true_force_n[i] == pytest.approx(expected, abs=1e-9)
    assert trace.force_n[-1] == pytest.approx(
        0.196 * round(profile.stiffness_n_per_mm * 48.0 / 0.196), abs=1e-9
    )


def test_invalid_trial_configs(hand, extension_net, profiles):
    with pytest.raises(ValueError):
        TrialConfig(hand, extension_net, profiles["S1"], sample_rate_hz=0.0)
    with pytest.raises(ValueError):
        TrialConfig(hand, extension_net, profiles["S1"], noise_sigma_n=-0.1)
    for name in ("sample_rate_hz", "noise_sigma_n"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrialConfig(hand, extension_net, profiles["S1"], **{name: value})
    # breakaway threshold must stay below the actuator's peak force
    with pytest.raises(ValueError):
        TrialConfig(
            hand=hand,
            network=extension_net,
            subject=profiles["S1"],
            magnet="strong",
            actuator=ActuatorSpec(peak_force_n=40.0),
        )


def test_sample_count_is_capped_when_the_config_is_made(hand, extension_net, profiles):
    """A trial holds at most MAX_SAMPLES samples; a longer one fails when its
    config is made, before anything is allocated.  No trial is run here."""
    s1 = profiles["S1"]
    one_second = ActuatorSpec(stroke_mm=50.0, max_speed_mm_s=50.0)
    at_cap = TrialConfig(
        hand, extension_net, s1, actuator=one_second, sample_rate_hz=MAX_SAMPLES - 1.0
    )
    assert trial_sample_count(at_cap) == MAX_SAMPLES
    for kwargs in (
        {"actuator": one_second, "sample_rate_hz": float(MAX_SAMPLES)},
        {"sample_rate_hz": 1e12},
        {"actuator": ActuatorSpec(max_speed_mm_s=1e-9)},
        {"actuator": ActuatorSpec(stroke_mm=math.inf)},
    ):
        with pytest.raises(ValueError, match="exceeds MAX_SAMPLES"):
            TrialConfig(hand, extension_net, s1, **kwargs)


# --- pose response ------------------------------------------------------------


def in_limits(hand, pose):
    """True if validate_pose accepts the pose."""
    try:
        hand.validate_pose(pose)
    except ValueError:
        return False
    return True


def angle(hand, pose, digit, kind):
    return pose[..., hand.col((digit, kind))]


def test_extension_response_monotone_open(hand, extension_net):
    rest = spastic_rest_pose(hand, 0.75)
    response = PoseResponse(hand, extension_net, rest)
    last_total = {d: math.inf for d in FINGERS}
    for disp in np.linspace(0.0, 50.0, 201):
        pose = response.at(float(disp))
        assert in_limits(hand, pose)
        for d, total in zip(FINGERS, finger_flexion_deg(hand, pose)):
            assert total <= last_total[d] + 1e-9
            last_total[d] = total
    # fully retracted: everything driven reaches full extension
    final = response.at(50.0)
    assert finger_flexion_deg(hand, final).tolist() == pytest.approx(
        [0.0] * 4, abs=1e-9
    )


def test_extension_response_deficit_matches_displacement(hand, extension_net):
    """While following, the pose pays out exactly the displacement past slack."""
    rest = spastic_rest_pose(hand, 0.75)
    response = PoseResponse(hand, extension_net, rest)
    e_rest = excursion_mm(hand, extension_net, rest)
    for disp in (3.0, 10.0, 25.0, 40.0):
        pose = response.at(disp)
        deficit = e_rest - excursion_mm(hand, extension_net, pose)
        for b, branch in enumerate(extension_net.branches):
            expected = min(disp - branch.slack_mm, e_rest[b])
            assert deficit[b] == pytest.approx(expected, abs=1e-9)


def test_extension_response_holds_rest_before_slack(hand, extension_net):
    rest = spastic_rest_pose(hand, 0.75)
    response = PoseResponse(hand, extension_net, rest)
    assert response.at(0.0).tolist() == rest.tolist()
    assert response.at(1.99).tolist() == rest.tolist()


def test_extension_saturates_beyond_rest_excursion(hand, extension_net):
    rest = spastic_rest_pose(hand, 0.3)
    response = PoseResponse(hand, extension_net, rest)
    e_rest = excursion_mm(hand, extension_net, rest)[0]
    pose = response.at(e_rest + 10.0)
    assert finger_flexion_deg(hand, pose).tolist() == pytest.approx(
        [0.0] * 4, abs=1e-9
    )


def test_dip_follows_pip_in_extension(hand, extension_net):
    rest = spastic_rest_pose(hand, 0.75)
    response = PoseResponse(hand, extension_net, rest)
    pose = response.at(20.0)
    for d in FINGERS:
        pip = angle(hand, pose, d, JointKind.PIP)
        dip = angle(hand, pose, d, JointKind.DIP)
        assert dip == pytest.approx(0.7 * pip, abs=1e-9)


def test_pinch_response_directions(hand, pinch_net):
    rest = spastic_rest_pose(hand, 0.6)
    response = PoseResponse(hand, pinch_net, rest)
    poses = [response.at(float(d)) for d in np.linspace(0.0, 50.0, 101)]
    for digit in FINGERS:
        mcp = [angle(hand, p, digit, JointKind.MCP) for p in poses]
        pip = [angle(hand, p, digit, JointKind.PIP) for p in poses]
        dip = [angle(hand, p, digit, JointKind.DIP) for p in poses]
        assert all(b >= a - 1e-9 for a, b in zip(mcp, mcp[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(pip, pip[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(dip, dip[1:]))
        assert mcp[-1] > mcp[0]  # MCp actually advances toward flexion
        assert pip[-1] < pip[0]
    # thumb adducts (its abduction axis plays the proximal role)
    thumb = [angle(hand, p, Digit.THUMB, JointKind.ABDUCTION) for p in poses]
    assert all(b >= a - 1e-9 for a, b in zip(thumb, thumb[1:]))
    assert thumb[-1] > thumb[0]
    for p in poses:
        assert in_limits(hand, p)


def test_pinch_saturates_at_joint_limits(hand, pinch_net):
    rest = spastic_rest_pose(hand, 0.6)
    response = PoseResponse(hand, pinch_net, rest)
    pose = response.at(500.0)
    for digit in FINGERS:
        assert angle(hand, pose, digit, JointKind.MCP) == pytest.approx(90.0)
        assert angle(hand, pose, digit, JointKind.PIP) == pytest.approx(0.0)
        assert angle(hand, pose, digit, JointKind.DIP) == pytest.approx(0.0)


def test_response_rejects_negative_displacement(hand, extension_net):
    response = PoseResponse(hand, extension_net, spastic_rest_pose(hand, 0.5))
    with pytest.raises(ValueError):
        response.at(-1.0)


# --- functional extension -------------------------------------------------------


def test_functional_extension_threshold(hand):
    open_pose = spastic_rest_pose(hand, 0.2)  # totals 52 degrees per finger
    closed = spastic_rest_pose(hand, 0.75)  # totals 195 degrees
    assert is_functional_extension(hand, open_pose)
    assert not is_functional_extension(hand, closed)
    # one answer per row
    both = np.stack([open_pose, closed])
    assert is_functional_extension(hand, both).tolist() == [True, False]


def test_functional_extension_boundary_inclusive(hand):
    # fraction chosen so each finger totals exactly the 110-degree threshold
    fraction = 110.0 / 260.0
    pose = spastic_rest_pose(hand, fraction)
    assert finger_flexion_deg(hand, pose)[0] == pytest.approx(110.0)
    assert is_functional_extension(hand, pose, 110.0)


def test_functional_extension_worst_finger_governs(hand):
    pose = spastic_rest_pose(hand, {"default": 0.2, Digit.RING: 0.9})
    assert not is_functional_extension(hand, pose)


# --- trial events ----------------------------------------------------------------


def test_functional_times_against_closed_form(hand, extension_net, profiles):
    """D_functional = slack + e_rest * (1 - theta_func / total_rest_flexion)."""
    for sid in ("S1", "S2", "S5"):
        profile = profiles[sid]
        trace = run_trial(TrialConfig(hand, extension_net, profile), seed=0)
        rest = profile.rest_pose
        worst = max(finger_flexion_deg(hand, rest))
        e_rest = max(excursion_mm(hand, extension_net, rest))
        d_func = 2.0 + e_rest * (1.0 - 110.0 / worst)
        t_func = d_func / 5.0
        # the event lands on the first sample at or past the crossing
        assert trace.functional_extension is True
        assert trace.functional_time_s == pytest.approx(t_func, abs=0.011)


def test_s4_never_functional(hand, extension_net, profiles):
    trace = run_trial(TrialConfig(hand, extension_net, profiles["S4"]), seed=0)
    assert trace.functional_extension is False
    assert trace.functional_time_s is None
    assert trace.breakaway


def test_breakaway_event_matches_first_threshold_crossing(hand, extension_net, profiles):
    profile = profiles["S4"]
    cfg = TrialConfig(hand, extension_net, profile, noise_sigma_n=0.4)
    trace = run_trial(cfg, seed=9)
    crossings = np.nonzero(trace.true_force_n >= cfg.coupling.breakaway_force_n)[0]
    assert trace.breakaway
    assert crossings.size > 0
    first = int(crossings[0])
    assert trace.breakaway_time_s == pytest.approx(trace.t_s[first])
    # transmitted force collapses in the same sample and stays at zero
    assert trace.force_n[first] == 0.0
    assert np.all(trace.force_n[first:] == 0.0)


def test_no_breakaway_below_threshold(hand, extension_net, profiles):
    trace = run_trial(TrialConfig(hand, extension_net, profiles["S1"]), seed=0)
    assert not trace.breakaway
    assert trace.breakaway_time_s is None
    assert np.all(trace.true_force_n < 34.0)


def test_stronger_magnet_delays_s4_release(hand, extension_net, profiles):
    profile = profiles["S4"]
    weak = run_trial(
        TrialConfig(hand, extension_net, profile, magnet="standard"), seed=0
    )
    strong = run_trial(
        TrialConfig(hand, extension_net, profile, magnet="strong"), seed=0
    )
    assert weak.breakaway and strong.breakaway
    assert weak.breakaway_time_s < strong.breakaway_time_s


def test_trial_runs_the_subjects_own_magnet_by_default(hand, extension_net, profiles):
    profile = profiles["S4"]
    assert profile.magnet == "strong"
    assert TrialConfig(hand, extension_net, profile).coupling.breakaway_force_n == 41.0
    standard = TrialConfig(hand, extension_net, profile, magnet="standard")
    assert standard.coupling.breakaway_force_n == 34.0


@pytest.mark.parametrize("network", ["extension_net", "pinch_net"])
def test_a_trace_holds_one_value_per_sample_in_each_array(request, hand, profiles, network):
    """A trace records what the bench records, one value a sample; the pose
    and the junction statics are derived on demand."""
    cfg = TrialConfig(hand, request.getfixturevalue(network), profiles["S5"], noise_sigma_n=0.4)
    trace = run_trial(cfg, seed=1)
    arrays = {name: v for name, v in vars(trace).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"t_s", "actuator_mm", "force_n", "true_force_n"}
    for name, values in arrays.items():
        assert values.shape == (len(trace),), name
    assert trace_pose(cfg, trace).shape == (len(trace), len(hand.joints))


@pytest.mark.parametrize("network", ["extension_net", "pinch_net"])
@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_hand_relaxes_to_rest_after_release(request, hand, profiles, network, sigma):
    profile = profiles["S4"]
    cfg = TrialConfig(hand, request.getfixturevalue(network), profile, noise_sigma_n=sigma)
    trace = run_trial(cfg, seed=0)
    assert trace.breakaway
    released = trace.t_s > trace.breakaway_time_s
    rest = profile.rest_pose.tolist()
    assert all(pose.tolist() == rest for pose in trace_pose(cfg, trace)[released])
    assert trace_pose(cfg, trace.window(len(trace) - 5, len(trace))).tolist() == [rest] * 5


@pytest.mark.parametrize("network", ["extension_net", "pinch_net"])
def test_recorded_samples_satisfy_model_relations(request, hand, profiles, network):
    """Re-evaluate the constitutive relations on recorded samples."""
    net = request.getfixturevalue(network)
    profile = profiles["S5"]
    cfg = TrialConfig(hand, net, profile, noise_sigma_n=0.4)
    trace = run_trial(cfg, seed=3)
    kin = junction_state(cfg, trace)
    poses = trace_pose(cfg, trace)
    for i in range(0, len(trace), 53):
        d = trace.stroke_mm - trace.actuator_mm[i]
        state = network_state(hand, net, poses[i], d, rest_deg=profile.rest_pose)
        assert kin.taut[i].tolist() == state.taut.tolist()
        assert kin.elongation_mm[i].tolist() == pytest.approx(
            state.elongation_mm.tolist(), abs=1e-9
        )
        assert kin.actuator_tension_n[i] == pytest.approx(
            float(np.sum(kin.tension_n[i])), abs=1e-12
        )


@pytest.mark.parametrize("network", ["extension_net", "pinch_net"])
@pytest.mark.parametrize("sid", ["S1", "S2", "S3", "S4", "S5"])
@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_grid_kernel_matches_laws_stepped_per_sample(request, hand, profiles, network, sid, sigma):
    """The whole-grid trial against each law called one sample at a time, in
    the order one retraction steps through them; every recorded value and
    every derived one (``trace_pose``, ``junction_state``) is equal, not just
    close."""
    net = request.getfixturevalue(network)
    profile = profiles[sid]
    rest = profile.rest_pose
    cfg = TrialConfig(hand, net, profile, noise_sigma_n=sigma)
    trace = run_trial(cfg, seed=5)
    poses = trace_pose(cfg, trace)
    state = junction_state(cfg, trace)
    noise = np.random.default_rng(5).normal(0.0, sigma, len(trace)) if sigma else 0.0 * trace.t_s
    response = PoseResponse(hand, net, rest)
    release_time = None  # the coupling opens at the first crossing, for good
    functional_time = None
    for i, t in enumerate(trace.t_s):
        held = release_time is None
        d = trace.stroke_mm - trace.actuator_mm[i]
        pose = response.at(d) if held else rest
        assert poses[i].tolist() == pose.tolist()
        # The spring sees the junction's pull past slack whatever the pose.
        spring = resistance_force_n(profile, net_elongation_mm(net, d)) if held else 0.0
        true_force = spring + noise[i]
        if held:
            release_time = update_coupling(true_force, cfg.coupling, t)
        transmitted = max(0.0, true_force) if release_time is None else 0.0
        kin = network_state(
            hand, net, pose, d, rest_deg=rest, total_tension_n=transmitted
        )
        assert trace.true_force_n[i] == true_force
        assert trace.force_n[i] == measure(transmitted, cfg.cell)
        assert state.taut[i].tolist() == kin.taut.tolist()
        assert state.elongation_mm[i].tolist() == kin.elongation_mm.tolist()
        assert state.tension_n[i].tolist() == kin.tension_n.tolist()
        assert state.actuator_tension_n[i] == kin.actuator_tension_n
        if held and functional_time is None and is_functional_extension(hand, pose):
            functional_time = t
    assert trace.breakaway == (release_time is not None)
    assert trace.breakaway_time_s == release_time
    assert trace.functional_time_s == functional_time
    assert trace.functional_extension == (functional_time is not None)
    assert poses[-1].tolist() == pose.tolist()

    window = trace.window(150, 700)
    for name in ("t_s", "actuator_mm", "force_n", "true_force_n"):
        assert np.array_equal(getattr(window, name), getattr(trace, name)[150:700])
    # The pose and junction of a window are the window of the trace's, exactly.
    assert np.array_equal(trace_pose(cfg, window), poses[150:700])
    for part, whole in zip(junction_state(cfg, window), state):
        assert np.array_equal(part, whole[150:700])


@pytest.mark.parametrize("network", ["extension_net", "pinch_net"])
@pytest.mark.parametrize("sigma", [0.0, 0.4])
@pytest.mark.parametrize("block", [opening.SEARCH_BLOCK, 100])
def test_functional_opening_at_1000_hz_matches_the_whole_pose(
    request, monkeypatch, hand, profiles, network, sigma, block
):
    """At 1000 Hz (10 001 samples) a trial's functional flag and time are
    those of the whole pose, held by the coupling, for every subject and
    magnet, whether the search takes the held samples in one block or in
    blocks of 100."""
    monkeypatch.setattr(opening, "SEARCH_BLOCK", block)
    net = request.getfixturevalue(network)
    hits = []
    for profile in profiles.values():
        for magnet in ("standard", "strong"):
            cfg = TrialConfig(
                hand, net, profile, magnet=magnet, sample_rate_hz=1000.0, noise_sigma_n=sigma
            )
            trace = run_trial(cfg, seed=7)
            assert len(trace) == 10_001
            release_s = trace.breakaway_time_s if trace.breakaway else math.inf
            functional = np.flatnonzero((trace.t_s <= release_s) & is_functional_extension(
                hand, trace_pose(cfg, trace), cfg.functional_flexion_deg
            ))
            assert trace.functional_extension == bool(functional.size)
            if functional.size:
                assert trace.functional_time_s == trace.t_s[functional[0]]
                hits.append(int(functional[0]))
            else:
                assert trace.functional_time_s is None
    assert hits


def test_trial_reads_the_pose_response_its_config_built(monkeypatch, hand, pinch_net, profiles):
    """A subject's pose response is built with its config, once; a trial
    builds none and evaluates no pose."""
    cfg = TrialConfig(hand, pinch_net, profiles["S5"], noise_sigma_n=0.4)
    before = run_trial(cfg, seed=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial built a PoseResponse or evaluated a pose")

    monkeypatch.setattr(PoseResponse, "__init__", refuse)
    monkeypatch.setattr(PoseResponse, "at", refuse)
    after = run_trial(cfg, seed=2)
    assert vars(after).keys() == vars(before).keys()
    for name, value in vars(before).items():
        assert np.array_equal(getattr(after, name), value), name


def _s1_trial(overrides: dict):
    """``simulate --subjects S1`` with ``--set`` overrides: its config and trace."""
    bench = Bench(apply_overrides(default_config(), overrides))
    _, _, trace = next(bench.trials(0, 1, ["S1"]))
    return bench.trial_configs["S1"], trace


# ``simulate --subjects S1 --set <override>``: the functional time each gave
# before the opening was solved for (None: never open).
PINNED_OPENINGS = {
    "trial.functional_flexion_deg=-5": None,
    "trial.functional_flexion_deg=1e308": 0.0,
    "subjects.S1.rest_flexion_fraction=0": 0.0,  # no drive: the hand rests open
    "network.branch_slack_mm=60": None,
    "trial.sample_rate_hz=0.001": None,  # one sample
    "network.extension.pip_guide_mm=0": 3.28,
}


@pytest.mark.parametrize("override", PINNED_OPENINGS)
def test_pinned_functional_openings(override):
    _, trace = _s1_trial(dict([override.split("=")]))
    assert trace.functional_time_s == PINNED_OPENINGS[override]
    assert trace.functional_extension == (PINNED_OPENINGS[override] is not None)


_FRACTION = st.floats(min_value=0.0, max_value=1.0)
_RANGES = st.dictionaries(
    st.sampled_from(["finger_mcp", "finger_pip", "finger_dip", "thumb_abduction"]),
    st.tuples(st.floats(min_value=-30.0, max_value=0.0), st.floats(min_value=1.0, max_value=180.0)),
)


@settings(deadline=None, max_examples=60)
@given(
    overrides=st.fixed_dictionaries({
        "network.kind": st.sampled_from(["extension", "pinch"]),
        "network.branch_slack_mm": st.floats(min_value=0.0, max_value=60.0),
        "subjects.S1.stiffness_n_per_mm": st.floats(min_value=0.01, max_value=3.0),
        "subjects.S1.engage_slack_mm": st.floats(min_value=0.0, max_value=20.0),
        "subjects.S1.magnet": st.sampled_from(["standard", "strong"]),
        "subjects.S1.rest_flexion_fraction": _FRACTION | st.dictionaries(
            st.sampled_from(["default"] + [d.value for d in Digit]), _FRACTION
        ),
        "hand.flexion_ranges_deg": _RANGES.map(lambda r: {k: list(v) for k, v in r.items()}),
        "trial.sample_rate_hz": st.sampled_from([0.001, 1000.0]) | st.floats(0.05, 1000.0),
        "trial.functional_flexion_deg": st.sampled_from([-5.0, 0.0, 1e308])
        | st.floats(min_value=-10.0, max_value=300.0),
        "trial.noise_sigma_n": st.sampled_from([0.0, 0.4]),
    }),
)
@example(overrides={"trial.functional_flexion_deg": "-5"})
@example(overrides={"trial.functional_flexion_deg": "1e308"})
@example(overrides={"subjects.S1.rest_flexion_fraction": "0"})
@example(overrides={"network.branch_slack_mm": "60"})
@example(overrides={"trial.sample_rate_hz": "0.001"})
@example(overrides={"network.extension.pip_guide_mm": "0"})
@example(overrides={"network.kind": "pinch", "trial.sample_rate_hz": 1000.0})
def test_functional_opening_is_the_first_held_open_pose(overrides):
    """The flag and time of a trial's functional opening are those of the
    first sample, while the coupling holds, whose whole pose is open."""
    _assert_opens_at_first_held_open_pose(*_s1_trial(overrides))


def _assert_opens_at_first_held_open_pose(cfg, trace):
    held, _ = trial.coupling_masks(trace.t_s, trace.breakaway_time_s)
    pose = trace_pose(cfg, trace)
    open_ = is_functional_extension(cfg.hand, pose, cfg.functional_flexion_deg)
    hits = np.flatnonzero(held & open_)
    assert trace.functional_extension == bool(hits.size)
    assert trace.functional_time_s == (trace.t_s[hits[0]] if hits.size else None)


_ROUTE = st.lists(
    st.tuples(
        st.sampled_from([(d, k) for d in FINGERS for k in FINGER_JOINT_KINDS[:3]]),  # MCP, PIP, DIP
        st.sampled_from(list(Side)),
        st.floats(min_value=0.0, max_value=10.0),
    ),
    min_size=1, max_size=3, unique_by=lambda point: point[0],
)


# Index branch A (MCP and PIP dorsal), then branch B (MCP palmar), over an
# index at full flexion: B pays out no tendon, so it has no range.
_TWO_ON_THE_INDEX = [
    (Digit.INDEX, [((Digit.INDEX, JointKind.MCP), Side.DORSAL, 8.5),
                   ((Digit.INDEX, JointKind.PIP), Side.DORSAL, 7.5)], 2.0),
    (Digit.INDEX, [((Digit.INDEX, JointKind.MCP), Side.PALMAR, 8.5)], 2.0),
]
_INDEX_CLOSED = {"default": 0.5, Digit.INDEX: 1.0}


def _network(branches) -> TendonNetwork:
    return TendonNetwork(NetworkKind.EXTENSION, tuple(
        TendonBranch(digit, tuple(RoutingPoint(*point) for point in route), slack_mm=slack)
        for digit, route, slack in branches
    ))


@settings(deadline=None, max_examples=40)
@given(
    branches=st.lists(
        st.tuples(st.sampled_from(list(Digit)), _ROUTE, st.floats(min_value=0.0, max_value=30.0)),
        min_size=1, max_size=4,
    ),
    fraction=_FRACTION | st.dictionaries(st.sampled_from(["default", *Digit]), _FRACTION),
    threshold=st.floats(min_value=-10.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(branches=_TWO_ON_THE_INDEX, fraction=_INDEX_CLOSED, threshold=150.0, seed=0)
def test_functional_opening_on_any_network(hand, branches, fraction, threshold, seed):
    """Branches that share a finger, cross another digit or advance a palmar
    joint: the opening is still the whole pose's first held open sample."""
    profile = SubjectProfile(
        subject_id="X", mas=MasLevel.TWO, stiffness_n_per_mm=0.5,
        rest_pose=spastic_rest_pose(hand, fraction),
    )
    cfg = TrialConfig(
        hand, _network(branches), profile, noise_sigma_n=0.4, functional_flexion_deg=threshold
    )
    _assert_opens_at_first_held_open_pose(cfg, run_trial(cfg, seed=seed))


def test_a_branch_without_range_leaves_its_joints_to_the_branch_before(hand):
    """A joint follows the last branch that moves it: branch B routes the
    index MCP but has no range, so A sets that MCP, and B's range end (the
    MCP's flexion limit) is not where it goes."""
    pose = PoseResponse(hand, _network(_TWO_ON_THE_INDEX), spastic_rest_pose(hand, _INDEX_CLOSED))
    index = [pose.at(20.0)[hand.col((Digit.INDEX, kind))] for kind in FINGER_JOINT_KINDS[:3]]
    assert index == pytest.approx([34.469705569883, 38.299672855426, 26.809770998798], rel=1e-12)


def _warning_free(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def test_a_subnormal_branch_scale_clips_before_it_divides():
    """A rest fraction of 5e-324 leaves each branch a range of about 3e-322
    mm of tendon: the pose and the junction of its trial come without an
    overflow, and the trial opens where its pose does."""
    cfg, trace = _warning_free(_s1_trial, {"subjects.S1.rest_flexion_fraction": "5e-324"})
    assert all(0.0 < scale < 1e-300 for _, scale, _, _ in cfg.response._drives)
    _warning_free(junction_state, cfg, trace)
    _warning_free(_assert_opens_at_first_held_open_pose, cfg, trace)


@pytest.mark.parametrize("slack", [0.0, -0.0, 3.5, 5e-324])
@pytest.mark.parametrize("scale", [5e-324, 7.3, 1e308])
def test_share_has_the_bits_of_np_clip(slack, scale):
    """A drive's share is ``np.clip``'s, bit for bit, at a pull of -0.0 and
    at nan too, one sample at a time and in a block."""
    d = np.array([-1.0, -0.0, 0.0, 5e-324, 3.5, 7.0, 1e308, np.inf, -np.inf, np.nan])
    for block in (d[1:2], d, np.tile(d, 41)[3:]):
        expected = np.clip(block - slack, 0.0, scale) / scale
        assert opening.share(block, slack, scale).tobytes() == expected.tobytes()


def test_a_finger_sum_past_float_range_stays_closed():
    """Finger MCP and PIP ranges up to 1.7e308 take a finger's MCP+PIP+DIP
    past float range: the sum is inf, so no subject's hand opens, and no
    trial warns."""
    bench = Bench(apply_overrides(default_config(), {
        "hand.flexion_ranges_deg.finger_mcp": "[0, 1.7e308]",
        "hand.flexion_ranges_deg.finger_pip": "[0, 1.7e308]",
    }))
    for _, _, trace in _warning_free(list, bench.trials(0, 1)):
        assert trace.functional_extension is False and trace.functional_time_s is None
        with np.errstate(over="ignore"):
            sums = finger_flexion_deg(bench.hand, trace_pose(bench.trial_configs[trace.subject_id], trace))
        assert np.isinf(sums).any(axis=-1).all()


@pytest.mark.parametrize("network", ["extension_net", "pinch_net"])
def test_functional_opening_at_a_threshold_equal_to_a_sum(request, hand, profiles, network):
    """A threshold equal to the sample's largest finger sum opens the hand
    there, however the search's own sums round: each held sample's largest
    sum, as the threshold, gives the whole pose's first held open sample."""
    net = request.getfixturevalue(network)
    for profile in profiles.values():
        cfg = TrialConfig(hand, net, profile, noise_sigma_n=0.4)
        trace = run_trial(cfg, seed=1)
        held, _ = trial.coupling_masks(trace.t_s, trace.breakaway_time_s)
        largest = finger_flexion_deg(hand, trace_pose(cfg, trace)).max(axis=-1)
        sums = cfg.response.finger_sums
        for k in np.flatnonzero(held):
            first = np.flatnonzero(held & (largest <= largest[k]))[0]
            got = sums.first_open(trace.retraction_mm, int(held.sum()), float(largest[k]))
            assert got == first, (profile.subject_id, k)


@pytest.mark.parametrize("mcp_side", [Side.DORSAL, Side.PALMAR])
def test_two_drives_on_one_finger(hand, mcp_side):
    """Two branches move the index finger, both to open it or (palmar MCP)
    one each way.  Over 100 001 samples the opening is still the whole pose's
    first held open sample."""
    index = Digit.INDEX
    net = TendonNetwork(NetworkKind.EXTENSION, (
        TendonBranch(index, (RoutingPoint((index, JointKind.MCP), mcp_side, 8.0),), slack_mm=1.0),
        TendonBranch(index, (RoutingPoint((index, JointKind.PIP), Side.DORSAL, 3.0),), slack_mm=5.0),
    ))
    rest = spastic_rest_pose(hand, {"default": 0.1, index: 0.9})
    profile = SubjectProfile("X", MasLevel.TWO, stiffness_n_per_mm=0.001, rest_pose=rest)
    threshold = float(finger_flexion_deg(hand, rest)[1]) + 1.0  # the other fingers are open
    cfg = TrialConfig(hand, net, profile, sample_rate_hz=10_000.0, functional_flexion_deg=threshold)
    trace = run_trial(cfg)
    _assert_opens_at_first_held_open_pose(cfg, trace)
    assert trace.functional_extension == (mcp_side is Side.DORSAL)
    held, _ = trial.coupling_masks(trace.t_s, trace.breakaway_time_s)
    opens = cfg.response.finger_sums.first_open(trace.retraction_mm, int(held.sum()), threshold)
    assert (opens is not None) == trace.functional_extension
    assert opens is None or trace.t_s[opens] == trace.functional_time_s


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
    cfg = TrialConfig(hand, net, profile, noise_sigma_n=0.3)
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
