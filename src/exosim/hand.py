"""Kinematic description of a five-digit hand: joints, angle limits, poses.

Angles are in degrees throughout, flexion positive.  A pose is one array of
angles over the hand's fixed joint order: shape ``(n_joints,)`` for one
posture, or ``(n, n_joints)`` for one row per sample of a trial.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Union

import numpy as np

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


class HandModel:
    """Joints in a fixed order, the order of every pose's last axis, with
    their angle limits ``lo`` and ``hi`` in that order, plus the
    skin-to-axis depth every joint shares (mm, strictly positive)."""

    def __init__(self, joints: tuple[JointId, ...], lo, hi, depth_mm: float) -> None:
        self.joints = joints
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.depth_mm = depth_mm
        for jid, low, high in zip(self.joints, self.lo, self.hi):
            if not low < high:
                raise ValueError(f"joint {joint_name(jid)}: empty angle range [{low}, {high}]")
        if not self.depth_mm > 0.0:
            raise ValueError(f"joint_center_depth must be > 0, got {self.depth_mm}")
        cols = {jid: c for c, jid in enumerate(self.joints)}
        if len(cols) < len(self.joints):
            dup = next(jid for c, jid in enumerate(self.joints) if cols[jid] != c)
            raise ValueError(f"duplicate joint {joint_name(dup)}")
        self._cols = cols

    def col(self, jid: JointId) -> int:
        """Position of a joint on a pose's last axis."""
        try:
            return self._cols[jid]
        except KeyError:
            raise KeyError(f"no such joint: {jid}") from None

    def with_uniform_depth(self, depth_mm: float) -> "HandModel":
        return HandModel(self.joints, self.lo, self.hi, depth_mm)

    def validate_pose(self, angles_deg) -> None:
        """Raise ValueError if a pose's angle, on any of its rows, is outside
        its joint's limits, naming the first such joint in joint order and
        its first bad row."""
        angles = np.asarray(angles_deg)
        inside = (self.lo <= angles) & (angles <= self.hi)  # False for NaN too
        if not inside.all():
            bad = ~inside.reshape(-1, len(self.joints))
            col = int(np.flatnonzero(bad.any(axis=0))[0])
            raise ValueError(
                f"angle {angles.reshape(bad.shape)[bad[:, col], col][0]:.3f} deg outside "
                f"[{self.lo[col]}, {self.hi[col]}] for {joint_name(self.joints[col])}"
            )


def default_hand(
    depth_mm: float = DEFAULT_JOINT_DEPTH_MM,
    flexion_ranges_deg: Mapping[str, tuple[float, float]] | None = None,
) -> HandModel:
    """Build the 20-articulation hand (4 thumb + 4 per finger) with uniform depth."""
    ranges = dict(DEFAULT_FLEXION_RANGES_DEG)
    if flexion_ranges_deg:
        ranges.update({k: (float(v[0]), float(v[1])) for k, v in flexion_ranges_deg.items()})
    joints = tuple([(Digit.THUMB, kind) for kind in THUMB_JOINT_KINDS] + [
        (digit, kind) for digit in FINGERS for kind in FINGER_JOINT_KINDS
    ])
    lo, hi = zip(*(ranges[range_key(d, k)] for d, k in joints))
    return HandModel(joints, lo, hi, float(depth_mm))


def finger_flexion_deg(hand: HandModel, angles_deg: np.ndarray) -> np.ndarray:
    """MCP + PIP + DIP flexion of each finger, in ``FINGERS`` order on the
    last axis."""
    mcp, pip, dip = (
        [hand.col((d, kind)) for d in FINGERS]
        for kind in (JointKind.MCP, JointKind.PIP, JointKind.DIP)
    )
    return angles_deg[..., mcp] + angles_deg[..., pip] + angles_deg[..., dip]


def _abduction(hand: HandModel) -> np.ndarray:
    return np.array([kind is JointKind.ABDUCTION for _, kind in hand.joints])


def full_flexion_pose(hand: HandModel) -> np.ndarray:
    """Every flexion joint at its maximum; abduction axes neutral."""
    return np.where(_abduction(hand), 0.0, hand.hi)


def clamp_pose(hand: HandModel, angles_deg) -> np.ndarray:
    """Clamp every angle into its joint's range.  Idempotent; a NaN angle
    stays NaN, so that validate_pose rejects it."""
    return np.clip(angles_deg, hand.lo, hand.hi)


FlexionFraction = Union[float, Mapping[Digit, float]]


def _fraction_for(digit: Digit, fraction: FlexionFraction) -> float:
    if isinstance(fraction, Mapping):
        return float(fraction.get(digit, fraction.get("default", 0.0)))  # type: ignore[call-overload]
    return float(fraction)


def spastic_rest_pose(
    hand: HandModel,
    flexion_fraction: FlexionFraction,
    dip_ratio: float = DIP_COUPLING_RATIO,
) -> np.ndarray:
    """Flexed resting posture of a spastic hand.

    Each finger sits at the given fraction of its MCP/PIP range with the DIP
    slaved to the PIP at ``dip_ratio``; the thumb sits at the fraction of its
    own flexion ranges.  Abduction axes stay neutral.  ``flexion_fraction``
    may be a scalar or a per-digit mapping (missing digits fall back to the
    mapping's ``"default"`` entry).
    """
    fraction = np.array([_fraction_for(digit, flexion_fraction) for digit, _ in hand.joints])
    angles = np.where(_abduction(hand), 0.0, fraction * hand.hi)
    pip, dip = (
        [hand.col((d, kind)) for d in FINGERS] for kind in (JointKind.PIP, JointKind.DIP)
    )
    angles[dip] = dip_ratio * angles[pip]
    return clamp_pose(hand, angles)
