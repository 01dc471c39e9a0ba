"""Kinematic description of a five-digit hand: joints, angle limits, poses.

Angles are in degrees throughout, flexion positive.  An angle is a number,
or a column of numbers with one entry per sample of a trial.  The wrist is
held at a fixed extension angle by the orthosis shell and is not an
articulation of the model; it is carried on the pose only so downstream
records state it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

import numpy as np

WRIST_EXTENSION_DEG = 30.0

# Uniform skin-to-rotation-axis offset, solved so that the index extension
# route travels 57 mm over the full flexion range (see tendons.calibrate_depth).
DEFAULT_JOINT_DEPTH_MM = 9.215

DIP_COUPLING_RATIO = 0.7


class Digit(Enum):
    THUMB = "thumb"
    INDEX = "index"
    MIDDLE = "middle"
    RING = "ring"
    LITTLE = "little"


FINGERS = (Digit.INDEX, Digit.MIDDLE, Digit.RING, Digit.LITTLE)


class JointKind(Enum):
    CMC = "cmc"
    MCP = "mcp"
    PIP = "pip"
    DIP = "dip"
    IP = "ip"
    ABDUCTION = "abduction"


#: A joint is addressed by (digit, kind), e.g. ``(Digit.INDEX, JointKind.MCP)``.
JointId = tuple[Digit, JointKind]

FINGER_JOINT_KINDS = (JointKind.MCP, JointKind.PIP, JointKind.DIP, JointKind.ABDUCTION)
THUMB_JOINT_KINDS = (JointKind.CMC, JointKind.MCP, JointKind.IP, JointKind.ABDUCTION)

# Default goniometric limits, degrees.
DEFAULT_FLEXION_RANGES_DEG: dict[str, tuple[float, float]] = {
    "finger_mcp": (0.0, 90.0),
    "finger_pip": (0.0, 100.0),
    "finger_dip": (0.0, 70.0),
    "finger_abduction": (-15.0, 15.0),
    "thumb_cmc": (0.0, 50.0),
    "thumb_mcp": (0.0, 55.0),
    "thumb_ip": (0.0, 80.0),
    "thumb_abduction": (-15.0, 15.0),
}


def range_key(digit: Digit, kind: JointKind) -> str:
    """Name of the limit entry governing a joint, e.g. ``finger_mcp``."""
    prefix = "thumb" if digit is Digit.THUMB else "finger"
    return f"{prefix}_{kind.value}"


@dataclass(frozen=True)
class Joint:
    """One articulation with its admissible angle interval."""

    digit: Digit
    kind: JointKind
    flexion_min_deg: float
    flexion_max_deg: float

    def __post_init__(self) -> None:
        if not self.flexion_min_deg < self.flexion_max_deg:
            raise ValueError(
                f"joint {self.digit.value}/{self.kind.value}: empty angle range "
                f"[{self.flexion_min_deg}, {self.flexion_max_deg}]"
            )

    @property
    def jid(self) -> JointId:
        return (self.digit, self.kind)

    def clamp(self, angle_deg: float) -> float:
        return min(self.flexion_max_deg, max(self.flexion_min_deg, angle_deg))

    def contains(self, angle_deg):
        """True where the angle (a number or an array) lies within the range."""
        return (self.flexion_min_deg <= angle_deg) & (angle_deg <= self.flexion_max_deg)


@dataclass(frozen=True)
class HandPose:
    """Joint angles for every articulation, plus the fixed wrist posture."""

    angles_deg: Mapping[JointId, float]
    wrist_extension_deg: float = WRIST_EXTENSION_DEG

    def angle(self, jid: JointId) -> float:
        return self.angles_deg[jid]

    def get(self, jid: JointId, default: float = 0.0) -> float:
        return self.angles_deg.get(jid, default)

    def replace_angles(self, updates: Mapping[JointId, float]) -> "HandPose":
        merged = dict(self.angles_deg)
        merged.update(updates)
        return HandPose(merged, self.wrist_extension_deg)

    def total_finger_flexion(self, digit: Digit) -> float:
        """MCP + PIP + DIP flexion of one finger, degrees."""
        return sum(
            self.get((digit, kind))
            for kind in (JointKind.MCP, JointKind.PIP, JointKind.DIP)
        )


@dataclass(frozen=True)
class HandModel:
    """Joint set plus per-joint skin-to-axis depth (mm, strictly positive)."""

    joints: tuple[Joint, ...]
    joint_center_depth_mm: Mapping[JointId, float]

    def __post_init__(self) -> None:
        seen: set[JointId] = set()
        for j in self.joints:
            if j.jid in seen:
                raise ValueError(f"duplicate joint {j.jid}")
            seen.add(j.jid)
        for jid in seen:
            d = self.joint_center_depth_mm.get(jid)
            if d is None:
                raise ValueError(f"missing joint_center_depth for {jid}")
            if not d > 0.0:
                raise ValueError(f"joint_center_depth must be > 0, got {d} for {jid}")
        object.__setattr__(self, "_by_id", {j.jid: j for j in self.joints})

    def joint(self, jid: JointId) -> Joint:
        try:
            return self._by_id[jid]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"no such joint: {jid}") from None

    def has_joint(self, jid: JointId) -> bool:
        return jid in self._by_id  # type: ignore[attr-defined]

    def depth(self, jid: JointId) -> float:
        return self.joint_center_depth_mm[jid]

    def joint_ids(self) -> tuple[JointId, ...]:
        return tuple(j.jid for j in self.joints)

    def with_uniform_depth(self, depth_mm: float) -> "HandModel":
        return HandModel(self.joints, {j.jid: depth_mm for j in self.joints})

    def validate_pose(self, pose: HandPose) -> None:
        """Raise ValueError if any pose angle, or any sample of an angle
        column, is outside its joint's limits."""
        for jid, angle in pose.angles_deg.items():
            joint = self.joint(jid)
            inside = np.asarray(joint.contains(angle))
            if not inside.all():
                bad = np.asarray(angle)[~inside][0]
                raise ValueError(
                    f"angle {bad:.3f} deg outside "
                    f"[{joint.flexion_min_deg}, {joint.flexion_max_deg}] "
                    f"for {jid[0].value}/{jid[1].value}"
                )

    def pose_in_limits(self, pose: HandPose) -> bool:
        try:
            self.validate_pose(pose)
        except ValueError:
            return False
        return True


def default_hand(
    depth_mm: float = DEFAULT_JOINT_DEPTH_MM,
    flexion_ranges_deg: Mapping[str, tuple[float, float]] | None = None,
) -> HandModel:
    """Build the 20-articulation hand (4 thumb + 4 per finger) with uniform depth."""
    ranges = dict(DEFAULT_FLEXION_RANGES_DEG)
    if flexion_ranges_deg:
        ranges.update({k: (float(v[0]), float(v[1])) for k, v in flexion_ranges_deg.items()})
    joints: list[Joint] = []
    for kind in THUMB_JOINT_KINDS:
        lo, hi = ranges[range_key(Digit.THUMB, kind)]
        joints.append(Joint(Digit.THUMB, kind, lo, hi))
    for digit in FINGERS:
        for kind in FINGER_JOINT_KINDS:
            lo, hi = ranges[range_key(digit, kind)]
            joints.append(Joint(digit, kind, lo, hi))
    depths = {j.jid: float(depth_mm) for j in joints}
    return HandModel(tuple(joints), depths)


def zero_pose(hand: HandModel) -> HandPose:
    return HandPose({jid: 0.0 for jid in hand.joint_ids()})


def full_flexion_pose(hand: HandModel) -> HandPose:
    """Every flexion joint at its maximum; abduction axes neutral."""
    angles = {}
    for j in hand.joints:
        angles[j.jid] = 0.0 if j.kind is JointKind.ABDUCTION else j.flexion_max_deg
    return HandPose(angles)


def clamp_pose(hand: HandModel, pose: HandPose) -> HandPose:
    """Clamp every angle into its joint's range.  Idempotent."""
    clamped = {jid: hand.joint(jid).clamp(a) for jid, a in pose.angles_deg.items()}
    return HandPose(clamped, pose.wrist_extension_deg)


FlexionFraction = Union[float, Mapping[Digit, float]]


def _fraction_for(digit: Digit, fraction: FlexionFraction) -> float:
    if isinstance(fraction, Mapping):
        return float(fraction.get(digit, fraction.get("default", 0.0)))  # type: ignore[call-overload]
    return float(fraction)


def spastic_rest_pose(
    hand: HandModel,
    flexion_fraction: FlexionFraction,
    dip_ratio: float = DIP_COUPLING_RATIO,
) -> HandPose:
    """Flexed resting posture of a spastic hand.

    Each finger sits at the given fraction of its MCP/PIP range with the DIP
    slaved to the PIP at ``dip_ratio``; the thumb sits at the fraction of its
    own flexion ranges.  Abduction axes stay neutral.  ``flexion_fraction``
    may be a scalar or a per-digit mapping (missing digits fall back to the
    mapping's ``"default"`` entry).
    """
    angles: dict[JointId, float] = {}
    f_thumb = _fraction_for(Digit.THUMB, flexion_fraction)
    for kind in (JointKind.CMC, JointKind.MCP, JointKind.IP):
        joint = hand.joint((Digit.THUMB, kind))
        angles[joint.jid] = f_thumb * joint.flexion_max_deg
    angles[(Digit.THUMB, JointKind.ABDUCTION)] = 0.0
    for digit in FINGERS:
        f = _fraction_for(digit, flexion_fraction)
        mcp = hand.joint((digit, JointKind.MCP))
        pip = hand.joint((digit, JointKind.PIP))
        angles[mcp.jid] = f * mcp.flexion_max_deg
        angles[pip.jid] = f * pip.flexion_max_deg
        angles[(digit, JointKind.DIP)] = dip_ratio * angles[pip.jid]
        angles[(digit, JointKind.ABDUCTION)] = 0.0
    return clamp_pose(hand, HandPose(angles))
