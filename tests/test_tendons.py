import math

import pytest
from hypothesis import given, strategies as st

from exosim.hand import (
    Digit,
    FINGERS,
    HandPose,
    JointKind,
    default_hand,
    full_flexion_pose,
    spastic_rest_pose,
    zero_pose,
)
from exosim.tendons import (
    Attachment,
    DepthCalibrationError,
    RoutingPoint,
    Side,
    TendonBranch,
    branch_excursion_mm,
    calibrate_depth,
    config1_extension,
    config2_pinch,
    full_flexion_excursion_mm,
    index_branch,
    moment_arm_mm,
    network_state,
)

IDX_MCP = (Digit.INDEX, JointKind.MCP)
IDX_PIP = (Digit.INDEX, JointKind.PIP)


def test_moment_arm_is_guide_plus_depth():
    hand = default_hand(depth_mm=9.0)
    pt = RoutingPoint(IDX_MCP, Side.DORSAL, 8.5)
    assert moment_arm_mm(hand, pt) == pytest.approx(17.5)


def test_excursion_single_joint_oracle():
    # one dorsal point over the index MCP: e = (guide + depth) * theta_rad
    hand = default_hand(depth_mm=10.0)
    branch = TendonBranch(
        Digit.INDEX,
        (RoutingPoint(IDX_MCP, Side.DORSAL, 8.5),),
        Attachment.MIDDLE_PHALANX_RING,
    )
    pose = zero_pose(hand).replace_angles({IDX_MCP: 90.0})
    expected = 18.5 * math.pi / 2.0
    assert branch_excursion_mm(hand, branch, pose) == pytest.approx(expected, abs=1e-12)


def test_palmar_routing_flips_sign():
    hand = default_hand(depth_mm=10.0)
    dorsal = TendonBranch(
        Digit.INDEX, (RoutingPoint(IDX_MCP, Side.DORSAL, 0.0),), Attachment.FINGERTIP_WRAP
    )
    palmar = TendonBranch(
        Digit.INDEX, (RoutingPoint(IDX_MCP, Side.PALMAR, 0.0),), Attachment.FINGERTIP_WRAP
    )
    pose = zero_pose(hand).replace_angles({IDX_MCP: 45.0})
    e_d = branch_excursion_mm(hand, dorsal, pose)
    e_p = branch_excursion_mm(hand, palmar, pose)
    assert e_d > 0
    assert e_p == pytest.approx(-e_d, abs=1e-12)


def test_excursion_zero_at_zero_pose():
    hand = default_hand()
    net = config1_extension()
    for b in net.branches:
        assert branch_excursion_mm(hand, b, zero_pose(hand)) == 0.0


def test_excursion_rejects_pose_outside_limits():
    hand = default_hand()
    branch = index_branch(config1_extension())
    bad = zero_pose(hand).replace_angles({IDX_MCP: 91.0})
    with pytest.raises(ValueError):
        branch_excursion_mm(hand, branch, bad)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_excursion_linear_in_pose(scale_a, scale_b):
    """Superposition: excursion of a scaled pose is the scaled excursion."""
    hand = default_hand()
    branch = index_branch(config1_extension())
    base = spastic_rest_pose(hand, 1.0)
    e_base = branch_excursion_mm(hand, branch, base)

    def scaled(s):
        return HandPose({j: s * a for j, a in base.angles_deg.items()})

    e_a = branch_excursion_mm(hand, branch, scaled(scale_a))
    e_sum = branch_excursion_mm(hand, branch, scaled(min(1.0, scale_a + scale_b)))
    assert e_a == pytest.approx(scale_a * e_base, rel=1e-12, abs=1e-12)
    assert e_sum == pytest.approx(
        min(1.0, scale_a + scale_b) * e_base, rel=1e-12, abs=1e-12
    )


@given(st.floats(min_value=-15.0, max_value=15.0))
def test_extension_excursion_ignores_abduction(abduction_deg):
    hand = default_hand()
    net = config1_extension()
    rest = spastic_rest_pose(hand, 0.7)
    moved = rest.replace_angles(
        {(d, JointKind.ABDUCTION): abduction_deg for d in FINGERS}
    )
    for b in net.branches:
        assert branch_excursion_mm(hand, b, moved) == branch_excursion_mm(
            hand, b, rest
        )


def test_config1_shape():
    hand = default_hand()
    net = config1_extension()
    assert len(net.branches) == 4
    assert {b.digit for b in net.branches} == set(FINGERS)
    for b in net.branches:
        assert [pt.joint[1] for pt in b.routing] == [JointKind.MCP, JointKind.PIP]
        assert all(pt.side is Side.DORSAL for pt in b.routing)
        assert b.attachment is Attachment.MIDDLE_PHALANX_RING
        assert b.attachment_height_mm == 1.5
        assert b.slack_mm == 2.0
    # the ring protrusion locates the anchor; it must not change excursion
    flex = full_flexion_pose(hand)
    tall = config1_extension(ring_protrusion_mm=9.9)
    for b_a, b_b in zip(net.branches, tall.branches):
        assert branch_excursion_mm(hand, b_a, flex) == branch_excursion_mm(
            hand, b_b, flex
        )


def test_config2_shape():
    hand = default_hand()
    net = config2_pinch()
    assert len(net.branches) == 5
    thumb = [b for b in net.branches if b.digit is Digit.THUMB][0]
    assert thumb.routing[0].joint == (Digit.THUMB, JointKind.ABDUCTION)
    assert thumb.routing[0].side is Side.PALMAR
    for b in net.branches:
        if b.digit is Digit.THUMB:
            continue
        assert b.routing[0].side is Side.PALMAR
        assert b.routing[0].guide_height_mm == 0.0  # palmar guides sit flush
        assert [pt.side for pt in b.routing[1:]] == [Side.DORSAL, Side.DORSAL]
        assert b.attachment is Attachment.FINGERTIP_WRAP


# --- depth calibration -----------------------------------------------------

# Closed form for the default geometry: excursion is affine in depth,
#   e(d) = (8.5 + d) * (pi/2) + (7.5 + d) * (100 * pi / 180)
_THETA = math.pi / 2.0 + math.radians(100.0)
_BASE = 8.5 * math.pi / 2.0 + 7.5 * math.radians(100.0)


def closed_form_depth(target):
    return (target - _BASE) / _THETA


def test_calibrate_depth_matches_closed_form():
    hand = calibrate_depth(default_hand(), config1_extension(), 57.0)
    depth = hand.depth(IDX_MCP)
    assert depth == pytest.approx(closed_form_depth(57.0), abs=1e-6)
    excursion = full_flexion_excursion_mm(hand, index_branch(config1_extension()))
    assert abs(excursion - 57.0) <= 0.01


@given(st.floats(min_value=27.0, max_value=120.0))
def test_calibrate_depth_meets_tolerance(target):
    hand = calibrate_depth(default_hand(), config1_extension(), target)
    excursion = full_flexion_excursion_mm(hand, index_branch(config1_extension()))
    assert abs(excursion - target) <= 0.01
    assert hand.depth(IDX_MCP) == pytest.approx(closed_form_depth(target), abs=1e-6)


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


def test_default_depth_constant_matches_target():
    hand = default_hand()  # ships with the solved depth baked in
    excursion = full_flexion_excursion_mm(hand, index_branch(config1_extension()))
    assert abs(excursion - 57.0) <= 0.01


# --- junction state ---------------------------------------------------------


def two_branch_net(hand, slack_a=2.0, slack_b=5.0):
    branches = (
        TendonBranch(
            Digit.INDEX,
            (RoutingPoint(IDX_MCP, Side.DORSAL, 8.5),),
            Attachment.MIDDLE_PHALANX_RING,
            slack_mm=slack_a,
        ),
        TendonBranch(
            Digit.MIDDLE,
            (RoutingPoint((Digit.MIDDLE, JointKind.MCP), Side.DORSAL, 8.5),),
            Attachment.MIDDLE_PHALANX_RING,
            slack_mm=slack_b,
        ),
    )
    from exosim.tendons import NetworkKind, TendonNetwork

    return TendonNetwork(NetworkKind.EXTENSION, branches)


def test_network_state_slack_split_example():
    # slacks {2, 5} mm at 4 mm displacement, pose held at rest:
    # branch 1 taut with 2 mm of demand, branch 2 slack
    hand = default_hand()
    net = two_branch_net(hand)
    pose = spastic_rest_pose(hand, 0.5)
    state = network_state(hand, net, pose, 4.0)
    b1, b2 = state.branches
    assert b1.taut and b1.elongation_mm == pytest.approx(2.0)
    assert not b2.taut and b2.elongation_mm == 0.0
    assert state.net_elongation_mm == pytest.approx(2.0)


def test_network_state_zero_displacement():
    hand = default_hand()
    net = config1_extension()
    pose = spastic_rest_pose(hand, 0.5)
    state = network_state(hand, net, pose, 0.0, total_tension_n=0.0)
    assert all(not b.taut for b in state.branches)
    assert state.actuator_tension_n == 0.0
    assert state.net_elongation_mm == 0.0


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
    tensions = [b.tension_n for b in state.branches]
    assert all(b.taut for b in state.branches)
    assert tensions == pytest.approx([3.0, 3.0, 3.0, 3.0])
    elongations = {b.elongation_mm for b in state.branches}
    assert len(elongations) == 1


def test_slack_branches_carry_zero_tension():
    hand = default_hand()
    net = two_branch_net(hand, slack_a=2.0, slack_b=40.0)
    pose = spastic_rest_pose(hand, 0.5)
    state = network_state(hand, net, pose, 10.0, total_tension_n=8.0)
    b1, b2 = state.branches
    assert b1.taut and not b2.taut
    assert b2.tension_n == 0.0
    assert b1.tension_n == pytest.approx(8.0)
    assert state.actuator_tension_n == pytest.approx(8.0)


def test_free_length_offsets_demand():
    # a pose that has paid out tendon reduces the elastic demand
    hand = default_hand()
    net = two_branch_net(hand)
    rest = spastic_rest_pose(hand, 0.5)
    # extend the index MCP by 10 degrees from rest: free length r * dtheta
    moved = rest.replace_angles({IDX_MCP: rest.angle(IDX_MCP) - 10.0})
    r = moment_arm_mm(hand, net.branches[0].routing[0])
    free = r * math.radians(10.0)
    disp = 2.0 + free + 1.5  # slack + free length + 1.5 mm of true stretch
    state = network_state(hand, net, moved, disp, rest_pose=rest)
    assert state.branches[0].taut
    assert state.branches[0].elongation_mm == pytest.approx(1.5, abs=1e-9)


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
    for a, b in zip(s_small.branches, s_large.branches):
        assert (not a.taut) or b.taut
        assert b.elongation_mm >= a.elongation_mm - 1e-12


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
    assert state.actuator_tension_n == sum(b.tension_n for b in state.branches)
    assert all(b.tension_n >= 0.0 for b in state.branches)
