"""Kinematic description of a five-digit hand: joints, angle limits, poses.

Angles are in degrees throughout, flexion positive.  A pose is one array of
angles over the hand's fixed joint order: shape ``(n_joints,)`` for one
posture, or ``(n, n_joints)`` for one row per sample of a trial.  The wrist
is held at a fixed extension angle by the orthosis shell and is not an
articulation of the model; a pose carries it alongside the angles.
"""

from __future__ import annotations

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


def joint_name(jid: JointId) -> str:
    """``index/mcp`` for ``(Digit.INDEX, JointKind.MCP)``."""
    return f"{jid[0].value}/{jid[1].value}"


class Joint:
    """One articulation with its admissible angle interval."""

    def __init__(
        self, digit: Digit, kind: JointKind, flexion_min_deg: float, flexion_max_deg: float
    ) -> None:
        self.digit = digit
        self.kind = kind
        self.flexion_min_deg = flexion_min_deg
        self.flexion_max_deg = flexion_max_deg
        if not self.flexion_min_deg < self.flexion_max_deg:
            raise ValueError(
                f"joint {joint_name(self.jid)}: empty angle range "
                f"[{self.flexion_min_deg}, {self.flexion_max_deg}]"
            )

    @property
    def jid(self) -> JointId:
        return (self.digit, self.kind)


class HandPose:
    """Joint angles over a hand's joint order, plus the fixed wrist posture.

    ``angles_deg`` has shape ``(n_joints,)``, or ``(n, n_joints)`` for one row
    per sample."""

    def __init__(
        self, angles_deg: np.ndarray, wrist_extension_deg: float = WRIST_EXTENSION_DEG
    ) -> None:
        self.angles_deg = angles_deg
        self.wrist_extension_deg = wrist_extension_deg


class HandModel:
    """Joints in a fixed order, the order of every pose's last axis, plus the
    skin-to-axis depth every joint shares (mm, strictly positive).

    ``lo`` and ``hi`` hold the joints' angle limits in that order."""

    def __init__(self, joints: tuple[Joint, ...], depth_mm: float) -> None:
        self.joints = joints
        self.depth_mm = depth_mm
        if not self.depth_mm > 0.0:
            raise ValueError(f"joint_center_depth must be > 0, got {self.depth_mm}")
        cols = {j.jid: c for c, j in enumerate(self.joints)}
        if len(cols) < len(self.joints):
            dup = next(j for c, j in enumerate(self.joints) if cols[j.jid] != c)
            raise ValueError(f"duplicate joint {joint_name(dup.jid)}")
        self._cols = cols
        self.lo = np.array([j.flexion_min_deg for j in self.joints])
        self.hi = np.array([j.flexion_max_deg for j in self.joints])

    def col(self, jid: JointId) -> int:
        """Position of a joint on a pose's last axis."""
        try:
            return self._cols[jid]
        except KeyError:
            raise KeyError(f"no such joint: {jid}") from None

    def with_uniform_depth(self, depth_mm: float) -> "HandModel":
        return HandModel(self.joints, depth_mm)

    def validate_pose(self, angles_deg) -> None:
        """Raise ValueError if a pose's angle, on any of its rows, is outside
        its joint's limits, naming the first such joint in joint order and
        its first bad row."""
        angles = np.asarray(angles_deg)
        inside = (self.lo <= angles) & (angles <= self.hi)  # False for NaN too
        if not inside.all():
            bad = ~inside.reshape(-1, len(self.joints))
            col = int(np.flatnonzero(bad.any(axis=0))[0])
            joint = self.joints[col]
            raise ValueError(
                f"angle {angles.reshape(bad.shape)[bad[:, col], col][0]:.3f} deg outside "
                f"[{joint.flexion_min_deg}, {joint.flexion_max_deg}] "
                f"for {joint_name(joint.jid)}"
            )


def default_hand(
    depth_mm: float = DEFAULT_JOINT_DEPTH_MM,
    flexion_ranges_deg: Mapping[str, tuple[float, float]] | None = None,
) -> HandModel:
    """Build the 20-articulation hand (4 thumb + 4 per finger) with uniform depth."""
    ranges = dict(DEFAULT_FLEXION_RANGES_DEG)
    if flexion_ranges_deg:
        ranges.update({k: (float(v[0]), float(v[1])) for k, v in flexion_ranges_deg.items()})
    joints = [(Digit.THUMB, kind) for kind in THUMB_JOINT_KINDS] + [
        (digit, kind) for digit in FINGERS for kind in FINGER_JOINT_KINDS
    ]
    return HandModel(
        tuple(Joint(d, k, *ranges[range_key(d, k)]) for d, k in joints), float(depth_mm)
    )


def finger_flexion_deg(hand: HandModel, angles_deg: np.ndarray) -> np.ndarray:
    """MCP + PIP + DIP flexion of each finger, in ``FINGERS`` order on the
    last axis."""
    mcp, pip, dip = (
        [hand.col((d, kind)) for d in FINGERS]
        for kind in (JointKind.MCP, JointKind.PIP, JointKind.DIP)
    )
    return angles_deg[..., mcp] + angles_deg[..., pip] + angles_deg[..., dip]


def _abduction(hand: HandModel) -> np.ndarray:
    return np.array([j.kind is JointKind.ABDUCTION for j in hand.joints])


def zero_pose(hand: HandModel) -> HandPose:
    return HandPose(np.zeros(len(hand.joints)))


def full_flexion_pose(hand: HandModel) -> HandPose:
    """Every flexion joint at its maximum; abduction axes neutral."""
    return HandPose(np.where(_abduction(hand), 0.0, hand.hi))


def clamp_pose(hand: HandModel, pose: HandPose) -> HandPose:
    """Clamp every angle into its joint's range.  Idempotent; a NaN angle
    stays NaN, so that validate_pose rejects it."""
    return HandPose(np.clip(pose.angles_deg, hand.lo, hand.hi), pose.wrist_extension_deg)


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
    fraction = np.array([_fraction_for(j.digit, flexion_fraction) for j in hand.joints])
    angles = np.where(_abduction(hand), 0.0, fraction * hand.hi)
    pip, dip = (
        [hand.col((d, kind)) for d in FINGERS] for kind in (JointKind.PIP, JointKind.DIP)
    )
    angles[dip] = dip_ratio * angles[pip]
    return clamp_pose(hand, HandPose(angles))
