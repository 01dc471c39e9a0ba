"""Exotendon routing networks: moment arms, excursion, depth calibration,
and the quasi-static state of a rigid tendon junction.

A tendon branch runs from the actuator over a series of routing points (low
fabric guides sewn onto a glove) to an anchor on one digit.  When a joint it
crosses rotates by ``theta``, the tendon path length over that joint changes by
``r * theta`` with ``r = guide_height + joint_center_depth``: the cable rides
at the guide height above the skin, and the joint's rotation axis sits below
the skin surface.  Dorsal routing pays out tendon as the joint flexes
(positive excursion), palmar routing the opposite.

A network is one signed moment-arm matrix over the hand's joints.  Every law
here takes one sample or a whole sample grid (a pose with one angle row per
sample); each per-branch result has a last axis over the branches.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .hand import (
    Digit,
    HandModel,
    JointId,
    JointKind,
    FINGERS,
    full_flexion_pose,
    joint_name,
)

# Guide heights measured on the extension glove, mm above the skin.
MCP_GUIDE_HEIGHT_MM = 8.5
PIP_GUIDE_HEIGHT_MM = 7.5

DEFAULT_BRANCH_SLACK_MM = 2.0
DEFAULT_EXCURSION_TARGET_MM = 57.0
DEFAULT_DEPTH_TOLERANCE_MM = 0.01  # reproduce's excursion_calibration check
DEPTH_MAX_MM = 30.0  # the deepest joint center the depth calibration considers

# A branch whose elastic demand is within this of zero counts as taut: the
# branch that is actively driving the pose sits exactly at zero demand.
TAUT_TOL_MM = 1e-9


class Side(Enum):
    DORSAL = "dorsal"
    PALMAR = "palmar"


EXCURSION_SIGN = {Side.DORSAL: 1.0, Side.PALMAR: -1.0}


class NetworkKind(Enum):
    EXTENSION = "extension"
    PINCH = "pinch"


class RoutingPoint:
    def __init__(self, joint: JointId, side: Side, guide_height_mm: float) -> None:
        self.joint = joint
        self.side = side
        self.guide_height_mm = guide_height_mm
        if self.guide_height_mm < 0.0:
            raise ValueError(f"guide height must be >= 0, got {self.guide_height_mm}")


class TendonBranch:
    def __init__(
        self,
        digit: Digit,
        routing: tuple[RoutingPoint, ...],
        slack_mm: float = DEFAULT_BRANCH_SLACK_MM,
    ) -> None:
        self.digit = digit
        self.routing = routing
        self.slack_mm = slack_mm
        if self.slack_mm < 0.0:
            raise ValueError(f"branch slack must be >= 0, got {self.slack_mm}")
        if not self.routing:
            raise ValueError("branch needs at least one routing point")


class TendonNetwork:
    def __init__(self, kind: NetworkKind, branches: tuple[TendonBranch, ...]) -> None:
        self.kind = kind
        self.branches = branches
        if not self.branches:
            raise ValueError("network needs at least one branch")


def moment_arms(hand: HandModel, net: TendonNetwork) -> np.ndarray:
    """The network's signed moment-arm matrix, shape ``(n_joints, n_branches)``.

    Where a branch crosses a joint the entry is ``guide height + joint
    depth``, positive on a dorsal route and negative on a palmar one; it is 0
    where the branch does not cross the joint.
    """
    arms = np.zeros((len(hand.joints), len(net.branches)))
    for b, branch in enumerate(net.branches):
        for pt in branch.routing:
            r = pt.guide_height_mm + hand.depth_mm
            if not r > 0.0:
                raise ValueError(f"non-positive moment arm at {joint_name(pt.joint)}")
            arms[hand.col(pt.joint), b] = EXCURSION_SIGN[pt.side] * r
    return arms


def excursion_mm(hand: HandModel, net: TendonNetwork, angles_deg) -> np.ndarray:
    """Tendon length each branch pays out at a pose relative to the all-zero
    pose, shape ``(..., n_branches)`` for angles of shape ``(..., n_joints)``.

    The moment-arm matrix times the angles in radians: linear in the pose,
    zero at the zero pose.  Each branch adds its terms in routing order, so
    every reader gets the same bits.
    """
    arms = moment_arms(hand, net)
    columns = []
    for b, branch in enumerate(net.branches):
        total = 0.0
        for pt in branch.routing:
            col = hand.col(pt.joint)
            total = total + arms[col, b] * np.radians(angles_deg[..., col])
        columns.append(total)
    return np.stack(columns, axis=-1)


def config1_extension(
    *,
    mcp_guide_mm: float = MCP_GUIDE_HEIGHT_MM,
    pip_guide_mm: float = PIP_GUIDE_HEIGHT_MM,
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
        branches.append(TendonBranch(digit, routing, slack_mm=slack_mm))
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
        branches.append(TendonBranch(digit, routing, slack_mm=slack_mm))
    thumb_routing = (
        RoutingPoint((Digit.THUMB, JointKind.ABDUCTION), Side.PALMAR, 0.0),
        RoutingPoint((Digit.THUMB, JointKind.MCP), Side.DORSAL, thumb_mcp_guide_mm),
        RoutingPoint((Digit.THUMB, JointKind.IP), Side.DORSAL, thumb_ip_guide_mm),
    )
    branches.append(TendonBranch(Digit.THUMB, thumb_routing, slack_mm=slack_mm))
    return TendonNetwork(NetworkKind.PINCH, tuple(branches))


def index_branch_col(net: TendonNetwork) -> int:
    """Position of the index finger's branch on the branch axis."""
    for b, branch in enumerate(net.branches):
        if branch.digit is Digit.INDEX:
            return b
    raise ValueError("network has no index branch")


def index_excursion_mm(hand: HandModel, net: TendonNetwork) -> float:
    """Excursion of the network's index branch between the zero pose and full
    flexion: what the depth calibration sets to its target."""
    full = full_flexion_pose(hand)
    return float(excursion_mm(hand, net, full)[index_branch_col(net)])


class DepthCalibrationError(ValueError):
    """Raised when no joint depth in (0, DEPTH_MAX_MM] meets the target."""

    def __init__(self, message: str, bracket_mm: tuple[float, float]):
        super().__init__(message)
        self.bracket_mm = bracket_mm


def calibrate_depth(
    hand: HandModel, extension: TendonNetwork, target_mm: float = DEFAULT_EXCURSION_TARGET_MM
) -> HandModel:
    """Solve the uniform joint depth so the index branch of the extension
    network pays out ``target_mm`` over the full flexion range.

    Every moment arm is ``guide + depth``, so the excursion is affine in the
    depth, ``e(d) = e(d0) + (d - d0) * k``: ``e(d0)`` is ``index_excursion_mm``
    at the hand's depth, ``k`` the signed sum of the branch's routed
    full-flexion angles (radians).  The depth is one solve, from ``e(0)``, so a
    target above ``e(0)`` gives a depth above 0.  A target outside
    ``(e(0), e(DEPTH_MAX_MM)]`` raises DepthCalibrationError carrying that
    bracket, which is empty when ``k <= 0``.
    """
    full = full_flexion_pose(hand)
    routing = extension.branches[index_branch_col(extension)].routing
    k = sum(EXCURSION_SIGN[pt.side] * math.radians(full[hand.col(pt.joint)]) for pt in routing)
    e_lo = index_excursion_mm(hand, extension) - hand.depth_mm * k
    e_hi = e_lo + DEPTH_MAX_MM * k
    if not e_lo < target_mm <= e_hi:
        raise DepthCalibrationError(
            f"target excursion {target_mm} mm unreachable: depths in "
            f"(0, {DEPTH_MAX_MM}] mm give ({e_lo:.3f}, {e_hi:.3f}] mm",
            (e_lo, e_hi),
        )
    return hand.with_uniform_depth((target_mm - e_lo) / k)


class NetworkState(NamedTuple):
    """The junction at one displacement, or at every sample of a grid.

    Each branch field has one column per branch, in network order, on its
    last axis.  ``elongation_mm`` is the elastic demand left after the pose
    has paid out its share of tendon (zero while the pose keeps up).  The
    actuator-side tension is the exact sum of the branch tensions.
    """

    taut: np.ndarray
    elongation_mm: np.ndarray
    tension_n: np.ndarray
    actuator_tension_n: float | np.ndarray


def _branch_sum(x: np.ndarray):
    """Sum over the branch axis, one branch after the next from 0.0."""
    return sum(np.moveaxis(x, -1, 0), 0.0)


def net_elongation_mm(net: TendonNetwork, displacement_mm):
    """The largest displacement imposed past any branch's slack (the least
    slack branch's): what a series elastic element downstream of the
    junction sees, whatever the pose."""
    return np.maximum(0.0, displacement_mm - min(b.slack_mm for b in net.branches))


def network_state(
    hand: HandModel,
    net: TendonNetwork,
    angles_deg,
    displacement_mm,
    *,
    rest_deg=None,
    total_tension_n=0.0,
) -> NetworkState:
    """Quasi-static state of the junction at one actuator displacement, or at
    every sample of a grid (angles with one row per sample, displacement and
    tension arrays).

    All branches share the junction displacement (rigid tie).  A branch is
    taut once the displacement exceeds its slack plus the free length released
    by pose motion away from the rest angles ``rest_deg`` (the pose itself
    when omitted).  The total tension splits over the taut branches in
    proportion to their imposed displacements, so branches engaged longer
    carry more and slack branches carry zero.
    """
    lowest = np.min(displacement_mm)
    if lowest < 0.0:
        raise ValueError(f"displacement must be >= 0, got {lowest}")
    hand.validate_pose(angles_deg)
    rest = angles_deg if rest_deg is None else rest_deg
    if rest_deg is not None:
        hand.validate_pose(rest)
    free = excursion_mm(hand, net, rest) - excursion_mm(hand, net, angles_deg)
    past_slack = np.asarray(displacement_mm)[..., None] - [b.slack_mm for b in net.branches]
    margin = past_slack - free
    taut = margin > -TAUT_TOL_MM
    weights = np.where(taut, np.maximum(0.0, past_slack), 0.0)
    total_w = _branch_sum(weights)
    # No taut branch: every weight is zero, so any non-zero divisor gives
    # every branch a zero share.
    divisor = np.where(total_w > 0.0, total_w, 1.0)
    tension = np.asarray(total_tension_n)[..., None] * weights / divisor[..., None]
    return NetworkState(taut, np.maximum(0.0, margin), tension, _branch_sum(tension))
