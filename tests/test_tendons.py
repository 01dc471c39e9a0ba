import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from exosim.hand import (
    Digit,
    FINGERS,
    JointKind,
    default_hand,
    spastic_rest_pose,
)
from exosim.tendons import (
    EXCURSION_SIGN,
    DEPTH_MAX_MM,
    DepthCalibrationError,
    NetworkKind,
    RoutingPoint,
    Side,
    TendonBranch,
    TendonNetwork,
    calibrate_depth,
    config1_extension,
    config2_pinch,
    excursion_mm,
    index_branch_col,
    index_excursion_mm,
    moment_arms,
    net_elongation_mm,
    network_state,
)

IDX_MCP = (Digit.INDEX, JointKind.MCP)
IDX_PIP = (Digit.INDEX, JointKind.PIP)


def network(*branches):
    return TendonNetwork(NetworkKind.EXTENSION, branches)


def test_moment_arm_is_guide_plus_depth():
    hand = default_hand(depth_mm=9.0)
    dorsal = TendonBranch(Digit.INDEX, (RoutingPoint(IDX_MCP, Side.DORSAL, 8.5),))
    palmar = TendonBranch(Digit.INDEX, (RoutingPoint(IDX_PIP, Side.PALMAR, 0.5),))
    arms = moment_arms(hand, network(dorsal, palmar))
    assert arms.shape == (20, 2)
    assert arms[hand.col(IDX_MCP), 0] == pytest.approx(17.5)
    assert arms[hand.col(IDX_PIP), 1] == pytest.approx(-9.5)
    assert np.count_nonzero(arms) == 2


def test_moment_arms_of_both_networks():
    """Each routed entry is +-(guide + depth), every other entry is zero."""
    hand = default_hand()
    for net in (config1_extension(), config2_pinch()):
        expected = np.zeros((20, len(net.branches)))
        for b, branch in enumerate(net.branches):
            for pt in branch.routing:
                expected[hand.col(pt.joint), b] = EXCURSION_SIGN[pt.side] * (
                    pt.guide_height_mm + hand.depth_mm
                )
        assert moment_arms(hand, net).tolist() == expected.tolist()


def test_non_positive_moment_arm_names_the_joint():
    with pytest.raises(ValueError, match="^non-positive moment arm at index/dip$"):
        moment_arms(default_hand(), config2_pinch(dip_guide_mm=math.nan))


def test_excursion_single_joint_oracle():
    # one dorsal point over the index MCP: e = (guide + depth) * theta_rad
    hand = default_hand(depth_mm=10.0)
    branch = TendonBranch(
        Digit.INDEX,
        (RoutingPoint(IDX_MCP, Side.DORSAL, 8.5),),
    )
    pose = np.zeros(len(hand.joints))
    pose[hand.col(IDX_MCP)] = 90.0
    expected = 18.5 * math.pi / 2.0
    assert excursion_mm(hand, network(branch), pose)[0] == pytest.approx(expected, abs=1e-12)


def test_palmar_routing_flips_sign():
    hand = default_hand(depth_mm=10.0)
    dorsal = TendonBranch(Digit.INDEX, (RoutingPoint(IDX_MCP, Side.DORSAL, 0.0),))
    palmar = TendonBranch(Digit.INDEX, (RoutingPoint(IDX_MCP, Side.PALMAR, 0.0),))
    pose = np.zeros(len(hand.joints))
    pose[hand.col(IDX_MCP)] = 45.0
    e_d, e_p = excursion_mm(hand, network(dorsal, palmar), pose)
    assert e_d > 0
    assert e_p == pytest.approx(-e_d, abs=1e-12)


def test_excursion_zero_at_zero_pose():
    hand = default_hand()
    net = config1_extension()
    assert excursion_mm(hand, net, np.zeros(len(hand.joints))).tolist() == [0.0] * 4


def test_network_state_rejects_pose_outside_limits():
    hand = default_hand()
    bad = np.zeros(len(hand.joints))
    bad[hand.col(IDX_MCP)] = 91.0
    with pytest.raises(ValueError, match="for index/mcp"):
        network_state(hand, config1_extension(), bad, 1.0)
    with pytest.raises(ValueError, match="for index/mcp"):
        network_state(hand, config1_extension(), np.zeros(len(hand.joints)), 1.0, rest_deg=bad)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_excursion_linear_in_pose(scale_a, scale_b):
    """Superposition: excursion of a scaled pose is the scaled excursion."""
    hand = default_hand()
    net = config1_extension()
    col = index_branch_col(net)
    base = spastic_rest_pose(hand, 1.0)
    e_base = excursion_mm(hand, net, base)[col]
    e_a = excursion_mm(hand, net, scale_a * base)[col]
    e_sum = excursion_mm(hand, net, min(1.0, scale_a + scale_b) * base)[col]
    assert e_a == pytest.approx(scale_a * e_base, rel=1e-12, abs=1e-12)
    assert e_sum == pytest.approx(
        min(1.0, scale_a + scale_b) * e_base, rel=1e-12, abs=1e-12
    )


@given(st.floats(min_value=-15.0, max_value=15.0))
def test_extension_excursion_ignores_abduction(abduction_deg):
    hand = default_hand()
    net = config1_extension()
    rest = spastic_rest_pose(hand, 0.7)
    moved = rest.copy()
    moved[[hand.col((d, JointKind.ABDUCTION)) for d in FINGERS]] = abduction_deg
    assert excursion_mm(hand, net, moved).tolist() == excursion_mm(hand, net, rest).tolist()


def routed_sum_oracle(hand, net, angles):
    """Each branch's excursion as the law reads: over its routing points, in
    routing order, sign * (guide + depth) * radians(theta), added from 0."""
    out = []
    for branch in net.branches:
        total = 0.0
        for pt in branch.routing:
            theta = np.radians(angles[..., hand.col(pt.joint)])
            total = total + EXCURSION_SIGN[pt.side] * (pt.guide_height_mm + hand.depth_mm) * theta
        out.append(total)
    return np.stack(out, axis=-1)


@given(
    st.sampled_from(["extension", "pinch"]),
    st.floats(min_value=1.0, max_value=20.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=60, max_size=60),
)
def test_excursion_matches_the_routed_sum_bit_for_bit(kind, depth, fractions):
    """The matrix excursion equals the per-point sum in routing order, bit for
    bit, on one pose and on a batch of three; the thumb pinch branch is
    routed abduction, MCP, IP, which is not the joint order."""
    hand = default_hand(depth_mm=depth)
    net = config1_extension() if kind == "extension" else config2_pinch()
    angles = hand.lo + np.reshape(fractions, (3, 20)) * (hand.hi - hand.lo)
    hand.validate_pose(angles)
    batch = excursion_mm(hand, net, angles)
    assert batch.shape == (3, len(net.branches))
    assert batch.tolist() == routed_sum_oracle(hand, net, angles).tolist()
    assert excursion_mm(hand, net, angles[1]).tolist() == batch[1].tolist()


def test_config1_shape():
    net = config1_extension()
    assert len(net.branches) == 4
    assert {b.digit for b in net.branches} == set(FINGERS)
    for b in net.branches:
        assert [pt.joint[1] for pt in b.routing] == [JointKind.MCP, JointKind.PIP]
        assert all(pt.side is Side.DORSAL for pt in b.routing)
        assert b.routing[-1].joint == (b.digit, JointKind.PIP)  # middle-phalanx ring
        assert b.slack_mm == 2.0


def test_config2_shape():
    hand = default_hand()
    net = config2_pinch()
    assert len(net.branches) == 5
    thumb = [b for b in net.branches if b.digit is Digit.THUMB][0]
    assert thumb.routing[0].joint == (Digit.THUMB, JointKind.ABDUCTION)
    assert thumb.routing[0].side is Side.PALMAR
    assert thumb.routing[-1].joint == (Digit.THUMB, JointKind.IP)  # fingertip wrap
    for b in net.branches:
        if b.digit is Digit.THUMB:
            continue
        assert b.routing[0].side is Side.PALMAR
        assert b.routing[0].guide_height_mm == 0.0  # palmar guides sit flush
        assert [pt.side for pt in b.routing[1:]] == [Side.DORSAL, Side.DORSAL]
        assert b.routing[-1].joint == (b.digit, JointKind.DIP)  # fingertip wrap


# --- depth calibration -----------------------------------------------------

# Closed form for the default geometry: excursion is affine in depth,
#   e(d) = (8.5 + d) * (pi/2) + (7.5 + d) * (100 * pi / 180)
_THETA = math.pi / 2.0 + math.radians(100.0)
_BASE = 8.5 * math.pi / 2.0 + 7.5 * math.radians(100.0)


def closed_form_depth(target):
    return (target - _BASE) / _THETA


def test_calibrate_depth_matches_closed_form():
    hand = calibrate_depth(default_hand(), config1_extension(), 57.0)
    depth = hand.depth_mm
    assert depth == pytest.approx(closed_form_depth(57.0), rel=1e-12)
    excursion = index_excursion_mm(hand, config1_extension())
    assert abs(excursion - 57.0) <= 1e-9


@given(st.floats(min_value=27.0, max_value=120.0))
def test_calibrate_depth_meets_tolerance(target):
    hand = calibrate_depth(default_hand(), config1_extension(), target)
    excursion = index_excursion_mm(hand, config1_extension())
    assert abs(excursion - target) <= 1e-9
    assert hand.depth_mm == pytest.approx(closed_form_depth(target), rel=1e-12)


def test_calibrate_depth_unreachable_targets():
    hand = default_hand()
    with pytest.raises(DepthCalibrationError) as info:
        calibrate_depth(hand, config1_extension(), 1000.0)
    lo, hi = info.value.bracket_mm
    assert lo < hi < 1000.0
    with pytest.raises(DepthCalibrationError):
        calibrate_depth(hand, config1_extension(), 5.0)  # below the zero-depth excursion
    with pytest.raises(DepthCalibrationError):
        calibrate_depth(hand, config1_extension(), 0.0)


def test_calibrate_depth_bracket_is_open_below_and_closed_above():
    """The zero-depth excursion needs a depth of 0, which no hand has; the
    deepest excursion is reached at DEPTH_MAX_MM."""
    hand = default_hand()
    with pytest.raises(DepthCalibrationError) as info:
        calibrate_depth(hand, config1_extension(), 1000.0)
    lo, hi = info.value.bracket_mm
    assert lo == pytest.approx(_BASE, rel=1e-12)
    assert hi == pytest.approx(_BASE + DEPTH_MAX_MM * _THETA, rel=1e-12)
    with pytest.raises(DepthCalibrationError) as at_lo:
        calibrate_depth(hand, config1_extension(), lo)
    assert at_lo.value.bracket_mm == (lo, hi)
    deepest = calibrate_depth(hand, config1_extension(), hi).depth_mm
    assert deepest == pytest.approx(DEPTH_MAX_MM, rel=1e-12)


def test_default_depth_constant_matches_target():
    hand = default_hand()  # ships with the solved depth baked in
    excursion = index_excursion_mm(hand, config1_extension())
    assert abs(excursion - 57.0) <= 0.01


# --- junction state ---------------------------------------------------------


def two_branch_net(hand, slack_a=2.0, slack_b=5.0):
    branches = (
        TendonBranch(
            Digit.INDEX,
            (RoutingPoint(IDX_MCP, Side.DORSAL, 8.5),),
            slack_mm=slack_a,
        ),
        TendonBranch(
            Digit.MIDDLE,
            (RoutingPoint((Digit.MIDDLE, JointKind.MCP), Side.DORSAL, 8.5),),
            slack_mm=slack_b,
        ),
    )
    return network(*branches)


def test_network_state_slack_split_example():
    # slacks {2, 5} mm at 4 mm displacement, pose held at rest:
    # branch 1 taut with 2 mm of demand, branch 2 slack
    hand = default_hand()
    net = two_branch_net(hand)
    pose = spastic_rest_pose(hand, 0.5)
    state = network_state(hand, net, pose, 4.0)
    assert state.taut.tolist() == [True, False]
    assert state.elongation_mm[0] == pytest.approx(2.0)
    assert state.elongation_mm[1] == 0.0
    assert net_elongation_mm(net, 4.0) == pytest.approx(2.0)


def test_network_state_zero_displacement():
    hand = default_hand()
    net = config1_extension()
    pose = spastic_rest_pose(hand, 0.5)
    state = network_state(hand, net, pose, 0.0, total_tension_n=0.0)
    assert not state.taut.any()
    assert state.actuator_tension_n == 0.0
    assert net_elongation_mm(net, 0.0) == 0.0


def test_network_state_rejects_negative_displacement():
    hand = default_hand()
    net = config1_extension()
    with pytest.raises(ValueError):
        network_state(hand, net, spastic_rest_pose(hand, 0.5), -0.1)


def test_identical_branches_share_equally():
    hand = default_hand()
    net = config1_extension()
    pose = spastic_rest_pose(hand, 0.5)
    state = network_state(hand, net, pose, 30.0, total_tension_n=12.0)
    assert state.taut.all()
    assert state.tension_n.tolist() == pytest.approx([3.0, 3.0, 3.0, 3.0])
    assert len(set(state.elongation_mm.tolist())) == 1


def test_slack_branches_carry_zero_tension():
    hand = default_hand()
    net = two_branch_net(hand, slack_a=2.0, slack_b=40.0)
    pose = spastic_rest_pose(hand, 0.5)
    state = network_state(hand, net, pose, 10.0, total_tension_n=8.0)
    assert state.taut.tolist() == [True, False]
    assert state.tension_n[1] == 0.0
    assert state.tension_n[0] == pytest.approx(8.0)
    assert state.actuator_tension_n == pytest.approx(8.0)


def test_free_length_offsets_demand():
    # a pose that has paid out tendon reduces the elastic demand
    hand = default_hand()
    net = two_branch_net(hand)
    rest = spastic_rest_pose(hand, 0.5)
    # extend the index MCP by 10 degrees from rest: free length r * dtheta
    moved = rest.copy()
    moved[hand.col(IDX_MCP)] -= 10.0
    r = moment_arms(hand, net)[hand.col(IDX_MCP), 0]
    free = r * math.radians(10.0)
    disp = 2.0 + free + 1.5  # slack + free length + 1.5 mm of true stretch
    state = network_state(hand, net, moved, disp, rest_deg=rest)
    assert state.taut[0]
    assert state.elongation_mm[0] == pytest.approx(1.5, abs=1e-9)


@given(
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=0.0, max_value=60.0),
)
def test_taut_monotone_in_displacement(d_small, d_large):
    """With the pose fixed, increasing displacement never lets a taut branch
    go slack, and demands never shrink."""
    if d_small > d_large:
        d_small, d_large = d_large, d_small
    hand = default_hand()
    net = config1_extension()
    pose = spastic_rest_pose(hand, 0.6)
    s_small = network_state(hand, net, pose, d_small)
    s_large = network_state(hand, net, pose, d_large)
    assert np.all(~s_small.taut | s_large.taut)
    assert np.all(s_large.elongation_mm >= s_small.elongation_mm - 1e-12)


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=40.0),
)
def test_force_balance_exact(displacement, total_tension):
    hand = default_hand()
    net = config1_extension()
    pose = spastic_rest_pose(hand, 0.6)
    state = network_state(
        hand, net, pose, displacement, total_tension_n=total_tension
    )
    assert state.actuator_tension_n == sum(state.tension_n)
    assert np.all(state.tension_n >= 0.0)
