import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from exosim.hand import (
    DEFAULT_FLEXION_RANGES_DEG,
    DIP_COUPLING_RATIO,
    Digit,
    FINGERS,
    HandModel,
    JointKind,
    clamp_pose,
    default_hand,
    finger_flexion_deg,
    full_flexion_pose,
    range_key,
    spastic_rest_pose,
)


def test_default_hand_has_twenty_articulations():
    hand = default_hand()
    assert len(hand.joints) == 20
    # 4 thumb joints + 4 per finger
    thumb = [jid for jid in hand.joints if jid[0] is Digit.THUMB]
    assert len(thumb) == 4
    for digit in FINGERS:
        assert len([jid for jid in hand.joints if jid[0] is digit]) == 4


def in_limits(hand, pose):
    """True if validate_pose accepts the pose."""
    try:
        hand.validate_pose(pose)
    except ValueError:
        return False
    return True


def angle(hand, pose, digit, kind):
    return pose[..., hand.col((digit, kind))]


def test_default_ranges():
    hand = default_hand()
    assert hand.hi[hand.col((Digit.INDEX, JointKind.MCP))] == 90.0
    assert hand.hi[hand.col((Digit.INDEX, JointKind.PIP))] == 100.0
    assert hand.hi[hand.col((Digit.INDEX, JointKind.DIP))] == 70.0
    abd = hand.col((Digit.MIDDLE, JointKind.ABDUCTION))
    assert (hand.lo[abd], hand.hi[abd]) == (-15.0, 15.0)
    assert hand.hi[hand.col((Digit.THUMB, JointKind.CMC))] == 50.0
    # the limit arrays follow the joint order
    assert hand.lo.tolist() == [DEFAULT_FLEXION_RANGES_DEG[range_key(*j)][0] for j in hand.joints]
    assert hand.hi.tolist() == [DEFAULT_FLEXION_RANGES_DEG[range_key(*j)][1] for j in hand.joints]
    assert [hand.col(jid) for jid in hand.joints] == list(range(20))


def test_empty_joint_range_rejected():
    with pytest.raises(ValueError, match=r"^joint index/mcp: empty angle range \[10\.0, 10\.0\]$"):
        HandModel(((Digit.INDEX, JointKind.MCP),), [10.0], [10.0], 9.0)


def test_depth_must_be_positive():
    hand = default_hand()
    with pytest.raises(ValueError):
        hand.with_uniform_depth(0.0)
    with pytest.raises(ValueError):
        hand.with_uniform_depth(-1.0)


def test_validate_pose_rejects_out_of_range():
    hand = default_hand()
    bad = np.zeros(len(hand.joints))
    bad[hand.col((Digit.INDEX, JointKind.MCP))] = 95.0
    assert not in_limits(hand, bad)
    message = r"^angle 95\.000 deg outside \[0\.0, 90\.0\] for index/mcp$"
    with pytest.raises(ValueError, match=message):
        hand.validate_pose(bad)


def test_validate_pose_names_the_first_bad_joint_and_sample():
    """Over one row per sample, the error names the first bad joint in joint
    order, with that joint's first bad sample."""
    hand = default_hand()
    angles = np.zeros((5, 20))
    angles[1, hand.col((Digit.RING, JointKind.PIP))] = 101.0  # later joint, earlier row
    angles[4, hand.col((Digit.INDEX, JointKind.DIP))] = 71.5
    angles[3, hand.col((Digit.INDEX, JointKind.DIP))] = -2.25
    angles[2, hand.col((Digit.THUMB, JointKind.CMC))] = np.nan
    with pytest.raises(ValueError, match=r"^angle nan deg outside \[0\.0, 50\.0\] for thumb/cmc$"):
        hand.validate_pose(angles)
    angles[2, hand.col((Digit.THUMB, JointKind.CMC))] = 50.0  # the upper limit is allowed
    with pytest.raises(ValueError, match=r"^angle -2\.250 deg .* for index/dip$"):
        hand.validate_pose(angles)
    angles[:, hand.col((Digit.INDEX, JointKind.DIP))] = 0.0
    with pytest.raises(ValueError, match=r"^angle 101\.000 deg .* for ring/pip$"):
        hand.validate_pose(angles)
    angles[1, hand.col((Digit.RING, JointKind.PIP))] = 0.0
    hand.validate_pose(angles)


def test_clamp_pose_examples():
    hand = default_hand()
    angles = np.zeros(len(hand.joints))
    angles[hand.col((Digit.INDEX, JointKind.MCP))] = 120.0
    angles[hand.col((Digit.INDEX, JointKind.ABDUCTION))] = -40.0
    clamped = clamp_pose(hand, angles)
    assert angle(hand, clamped, Digit.INDEX, JointKind.MCP) == 90.0
    assert angle(hand, clamped, Digit.INDEX, JointKind.ABDUCTION) == -15.0
    assert in_limits(hand, clamped)


def test_clamp_pose_keeps_nan_for_validation_to_reject():
    hand = default_hand()
    angles = np.zeros(len(hand.joints))
    angles[hand.col((Digit.INDEX, JointKind.MCP))] = np.nan
    assert not in_limits(hand, clamp_pose(hand, angles))


angle_values = st.floats(
    min_value=-720, max_value=720, allow_nan=False, allow_infinity=False
)


@given(st.lists(angle_values, min_size=20, max_size=20))
def test_clamp_pose_idempotent(angles):
    hand = default_hand()
    once = clamp_pose(hand, np.array(angles))
    twice = clamp_pose(hand, once)
    assert in_limits(hand, once)
    assert once.tolist() == twice.tolist()


def test_full_flexion_pose_hits_limits():
    hand = default_hand()
    pose = full_flexion_pose(hand)
    assert angle(hand, pose, Digit.LITTLE, JointKind.PIP) == 100.0
    assert angle(hand, pose, Digit.THUMB, JointKind.ABDUCTION) == 0.0
    assert in_limits(hand, pose)


def test_spastic_rest_pose_scalar_fraction():
    hand = default_hand()
    pose = spastic_rest_pose(hand, 0.75)
    assert angle(hand, pose, Digit.INDEX, JointKind.MCP) == pytest.approx(67.5)
    assert angle(hand, pose, Digit.INDEX, JointKind.PIP) == pytest.approx(75.0)
    # DIP slaved to the PIP
    assert angle(hand, pose, Digit.INDEX, JointKind.DIP) == pytest.approx(
        DIP_COUPLING_RATIO * 75.0
    )
    assert angle(hand, pose, Digit.THUMB, JointKind.CMC) == pytest.approx(0.75 * 50.0)
    assert in_limits(hand, pose)


def test_spastic_rest_pose_per_digit_fraction():
    hand = default_hand()
    pose = spastic_rest_pose(hand, {"default": 0.6, Digit.INDEX: 0.75})
    assert angle(hand, pose, Digit.INDEX, JointKind.MCP) == pytest.approx(67.5)
    assert angle(hand, pose, Digit.MIDDLE, JointKind.MCP) == pytest.approx(54.0)
    assert angle(hand, pose, Digit.RING, JointKind.PIP) == pytest.approx(60.0)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_spastic_rest_pose_always_in_limits(fraction):
    hand = default_hand()
    assert in_limits(hand, spastic_rest_pose(hand, fraction))


def test_total_finger_flexion():
    hand = default_hand()
    pose = spastic_rest_pose(hand, 0.75)
    # 67.5 + 75 + 52.5
    assert finger_flexion_deg(hand, pose)[0] == pytest.approx(195.0)


def test_duplicate_joint_rejected():
    j = (Digit.INDEX, JointKind.MCP)
    with pytest.raises(ValueError, match="^duplicate joint index/mcp$"):
        HandModel((j, j), [0.0, 0.0], [90.0, 90.0], 9.0)
