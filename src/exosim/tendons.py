"""Exotendon routing networks: moment arms, excursion, depth calibration,
and the quasi-static state of a rigid tendon junction.

A tendon branch runs from the actuator over a series of routing points (low
fabric guides sewn onto a glove) to an anchor on one digit.  When a joint it
crosses rotates by ``theta``, the tendon path length over that joint changes by
``r * theta`` with ``r = guide_height + joint_center_depth``: the cable rides
at the guide height above the skin, and the joint's rotation axis sits below
the skin surface.  Dorsal routing pays out tendon as the joint flexes
(positive excursion), palmar routing the opposite.

Every law here takes one sample or a whole sample grid: displacements,
tensions and pose angles may be numbers or equal-length arrays, and the
results come back in the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .hand import (
    Digit,
    HandModel,
    HandPose,
    JointId,
    JointKind,
    FINGERS,
    full_flexion_pose,
    zero_pose,
)

# Guide heights measured on the extension glove, mm above the skin.
MCP_GUIDE_HEIGHT_MM = 8.5
PIP_GUIDE_HEIGHT_MM = 7.5
RING_PROTRUSION_MM = 1.5

DEFAULT_BRANCH_SLACK_MM = 2.0
DEFAULT_EXCURSION_TARGET_MM = 57.0
DEFAULT_DEPTH_TOLERANCE_MM = 0.01

# A branch whose elastic demand is within this of zero counts as taut: the
# branch that is actively driving the pose sits exactly at zero demand.
TAUT_TOL_MM = 1e-9


class Side(Enum):
    DORSAL = "dorsal"
    PALMAR = "palmar"


EXCURSION_SIGN = {Side.DORSAL: 1.0, Side.PALMAR: -1.0}


class Attachment(Enum):
    MIDDLE_PHALANX_RING = "middle_phalanx_ring"
    FINGERTIP_WRAP = "fingertip_wrap"


class NetworkKind(Enum):
    EXTENSION = "extension"
    PINCH = "pinch"


@dataclass(frozen=True)
class RoutingPoint:
    joint: JointId
    side: Side
    guide_height_mm: float

    def __post_init__(self) -> None:
        if self.guide_height_mm < 0.0:
            raise ValueError(f"guide height must be >= 0, got {self.guide_height_mm}")


@dataclass(frozen=True)
class TendonBranch:
    digit: Digit
    routing: tuple[RoutingPoint, ...]
    attachment: Attachment
    slack_mm: float = DEFAULT_BRANCH_SLACK_MM
    # Protrusion of the anchor hardware above the skin.  It locates the anchor,
    # not a pulley, so it does not enter the excursion sum.
    attachment_height_mm: float = 0.0

    def __post_init__(self) -> None:
        if self.slack_mm < 0.0:
            raise ValueError(f"branch slack must be >= 0, got {self.slack_mm}")
        if not self.routing:
            raise ValueError("branch needs at least one routing point")


@dataclass(frozen=True)
class TendonNetwork:
    kind: NetworkKind
    branches: tuple[TendonBranch, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("network needs at least one branch")


def moment_arm_mm(hand: HandModel, point: RoutingPoint) -> float:
    """Effective moment arm at a routing point: guide height + joint depth."""
    r = point.guide_height_mm + hand.depth(point.joint)
    if not r > 0.0:
        raise ValueError(f"non-positive moment arm at {point.joint}")
    return r


def branch_excursion_mm(
    hand: HandModel, branch: TendonBranch, pose: HandPose, *, validate: bool = True
) -> float:
    """Tendon length paid out by a pose relative to the all-zero pose.

    Sum over routing points of moment arm times joint angle in radians, signed
    by routing side.  Linear in the pose, zero at the zero pose.
    """
    if validate:
        hand.validate_pose(pose)
    total = 0.0
    for pt in branch.routing:
        r = moment_arm_mm(hand, pt)
        theta = np.radians(pose.get(pt.joint))
        total += EXCURSION_SIGN[pt.side] * r * theta
    return total


def config1_extension(
    *,
    mcp_guide_mm: float = MCP_GUIDE_HEIGHT_MM,
    pip_guide_mm: float = PIP_GUIDE_HEIGHT_MM,
    ring_protrusion_mm: float = RING_PROTRUSION_MM,
    slack_mm: float = DEFAULT_BRANCH_SLACK_MM,
) -> TendonNetwork:
    """Four-branch extension network: one dorsal branch per finger.

    Each branch crosses the MCP and PIP dorsally and anchors to a cloth ring
    on the middle phalanx; the DIP is not routed (it follows the PIP through
    soft-tissue coupling).
    """
    branches = []
    for digit in FINGERS:
        routing = (
            RoutingPoint((digit, JointKind.MCP), Side.DORSAL, mcp_guide_mm),
            RoutingPoint((digit, JointKind.PIP), Side.DORSAL, pip_guide_mm),
        )
        branches.append(
            TendonBranch(
                digit,
                routing,
                Attachment.MIDDLE_PHALANX_RING,
                slack_mm=slack_mm,
                attachment_height_mm=ring_protrusion_mm,
            )
        )
    return TendonNetwork(NetworkKind.EXTENSION, tuple(branches))


def config2_pinch(
    *,
    pip_guide_mm: float = PIP_GUIDE_HEIGHT_MM,
    dip_guide_mm: float = PIP_GUIDE_HEIGHT_MM,
    thumb_mcp_guide_mm: float = MCP_GUIDE_HEIGHT_MM,
    thumb_ip_guide_mm: float = PIP_GUIDE_HEIGHT_MM,
    slack_mm: float = DEFAULT_BRANCH_SLACK_MM,
) -> TendonNetwork:
    """Five-branch pinch-shaping network.

    Finger branches run palmar over the MCP (flush with the skin) then dorsal
    over PIP and DIP to a fingertip wrap: tension flexes the MCP while
    straightening the interphalangeal joints.  The thumb branch plays the same
    proximal role on its adduction axis, with dorsal MCP/IP routing.
    """
    branches = []
    for digit in FINGERS:
        routing = (
            RoutingPoint((digit, JointKind.MCP), Side.PALMAR, 0.0),
            RoutingPoint((digit, JointKind.PIP), Side.DORSAL, pip_guide_mm),
            RoutingPoint((digit, JointKind.DIP), Side.DORSAL, dip_guide_mm),
        )
        branches.append(
            TendonBranch(digit, routing, Attachment.FINGERTIP_WRAP, slack_mm=slack_mm)
        )
    thumb_routing = (
        RoutingPoint((Digit.THUMB, JointKind.ABDUCTION), Side.PALMAR, 0.0),
        RoutingPoint((Digit.THUMB, JointKind.MCP), Side.DORSAL, thumb_mcp_guide_mm),
        RoutingPoint((Digit.THUMB, JointKind.IP), Side.DORSAL, thumb_ip_guide_mm),
    )
    branches.append(
        TendonBranch(
            Digit.THUMB, thumb_routing, Attachment.FINGERTIP_WRAP, slack_mm=slack_mm
        )
    )
    return TendonNetwork(NetworkKind.PINCH, tuple(branches))


def index_branch(net: TendonNetwork) -> TendonBranch:
    for b in net.branches:
        if b.digit is Digit.INDEX:
            return b
    raise ValueError("network has no index branch")


def full_flexion_excursion_mm(hand: HandModel, branch: TendonBranch) -> float:
    """Excursion of one branch between the zero pose and full flexion."""
    full = branch_excursion_mm(hand, branch, full_flexion_pose(hand))
    zero = branch_excursion_mm(hand, branch, zero_pose(hand))
    return full - zero


class DepthCalibrationError(ValueError):
    """Raised when no joint depth in the search interval meets the target."""

    def __init__(self, message: str, bracket_mm: tuple[float, float]):
        super().__init__(message)
        self.bracket_mm = bracket_mm


def calibrate_depth(
    hand: HandModel,
    extension: TendonNetwork,
    target_mm: float = DEFAULT_EXCURSION_TARGET_MM,
    *,
    depth_max_mm: float = 30.0,
    tol_mm: float = DEFAULT_DEPTH_TOLERANCE_MM,
) -> HandModel:
    """Solve the uniform joint depth so the index branch of the extension
    network pays out ``target_mm`` over the full flexion range.

    The excursion is affine and strictly increasing in depth, so bisection on
    (0, depth_max_mm] converges; the result satisfies
    ``|excursion - target| <= tol_mm``.  Targets outside the achievable
    bracket raise DepthCalibrationError carrying the interval examined.
    """
    branch = index_branch(extension)
    thetas = [
        math.radians(hand.joint(pt.joint).flexion_max_deg) for pt in branch.routing
    ]
    guides = [pt.guide_height_mm for pt in branch.routing]

    def excursion_at(depth: float) -> float:
        return sum((g + depth) * th for g, th in zip(guides, thetas))

    if target_mm <= 0.0:
        raise DepthCalibrationError(
            f"target excursion must be positive, got {target_mm}",
            (excursion_at(0.0), excursion_at(depth_max_mm)),
        )
    lo, hi = 0.0, depth_max_mm
    e_lo, e_hi = excursion_at(lo), excursion_at(hi)
    if target_mm < e_lo or target_mm > e_hi:
        raise DepthCalibrationError(
            f"target excursion {target_mm} mm unreachable: depths in "
            f"(0, {depth_max_mm}] mm give [{e_lo:.3f}, {e_hi:.3f}] mm",
            (e_lo, e_hi),
        )
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if excursion_at(mid) < target_mm:
            lo = mid
        else:
            hi = mid
    depth = 0.5 * (lo + hi)
    if abs(excursion_at(depth) - target_mm) > tol_mm:
        raise DepthCalibrationError(
            f"bisection failed to meet target {target_mm} mm within {tol_mm} mm",
            (e_lo, e_hi),
        )
    return hand.with_uniform_depth(depth)


@dataclass(frozen=True)
class BranchState:
    """One branch at a junction displacement, each field a number or, over a
    sample grid, an array with one entry per sample.

    ``imposed_mm`` is the displacement the rigid junction pushes past this
    branch's slack; ``elongation_mm`` is the elastic demand left after the
    pose has paid out its share of tendon (zero while the pose keeps up).
    """

    taut: bool | np.ndarray
    imposed_mm: float | np.ndarray
    elongation_mm: float | np.ndarray
    tension_n: float | np.ndarray


@dataclass(frozen=True)
class NetworkState:
    branches: tuple[BranchState, ...]
    actuator_tension_n: float | np.ndarray
    net_elongation_mm: float | np.ndarray

    def with_total_tension(self, total_tension_n) -> "NetworkState":
        """Split a total junction tension over the taut branches.

        Weights are the imposed displacements, so branches that have been
        engaged longer carry proportionally more; slack branches carry zero.
        The actuator-side tension is the exact sum of the branch tensions.
        """
        weights = [np.where(b.taut, b.imposed_mm, 0.0) for b in self.branches]
        total_w = sum(weights)
        # No taut branch: every weight is zero, so any non-zero divisor gives
        # every branch a zero share.
        divisor = np.where(total_w > 0.0, total_w, 1.0)
        tensions = [total_tension_n * w / divisor for w in weights]
        branches = tuple(
            replace(b, tension_n=t) for b, t in zip(self.branches, tensions)
        )
        return NetworkState(branches, sum(tensions), self.net_elongation_mm)


def imposed_mm(branch: TendonBranch, displacement_mm):
    """Displacement the rigid junction pushes past one branch's slack."""
    return np.maximum(0.0, displacement_mm - branch.slack_mm)


def net_elongation_mm(net: TendonNetwork, displacement_mm):
    """The largest displacement imposed past any branch's slack (the least
    slack branch's): what a series elastic element downstream of the
    junction sees, whatever the pose."""
    return imposed_mm(min(net.branches, key=lambda b: b.slack_mm), displacement_mm)


def network_state(
    hand: HandModel,
    net: TendonNetwork,
    pose: HandPose,
    displacement_mm,
    *,
    rest_pose: HandPose | None = None,
    total_tension_n=0.0,
) -> NetworkState:
    """Quasi-static state of the junction at one actuator displacement, or at
    every sample of a grid (a pose of angle columns, displacement and tension
    arrays).

    All branches share the junction displacement (rigid tie).  A branch is
    taut once the displacement exceeds its slack plus the free length released
    by pose motion away from ``rest_pose`` (the pose itself when omitted);
    ``net_elongation_mm`` is the largest displacement imposed past any
    branch's slack and is what a series elastic element downstream sees.
    """
    lowest = np.min(displacement_mm)
    if lowest < 0.0:
        raise ValueError(f"displacement must be >= 0, got {lowest}")
    hand.validate_pose(pose)
    rest = pose if rest_pose is None else rest_pose
    if rest_pose is not None:
        hand.validate_pose(rest)
    states = []
    for b in net.branches:
        free = branch_excursion_mm(hand, b, rest, validate=False) - branch_excursion_mm(
            hand, b, pose, validate=False
        )
        margin = displacement_mm - b.slack_mm - free
        taut = margin > -TAUT_TOL_MM
        elongation = np.maximum(0.0, margin)
        states.append(BranchState(taut, imposed_mm(b, displacement_mm), elongation, 0.0))
    state = NetworkState(tuple(states), 0.0, net_elongation_mm(net, displacement_mm))
    return state.with_total_tension(total_tension_n)
