"""Quasi-static trial simulation: one actuator retraction over a spastic hand.

The actuator retracts at constant speed and one rigid junction passes its
displacement to every tendon branch, so a trial is a sweep of one scalar and
every stage is evaluated once over the whole sample grid: the hand pose
responds to the displacement reaching the tendon junction, the aggregate
spastic muscle resists as a spring, the true tension passes through the
breakaway coupling, and the load cell quantizes what reaches it.  Inertia and
friction are neglected: at 5 mm/s the system moves through a sequence of
force-balanced states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .actuation import (
    ActuatorSpec,
    CouplingSpec,
    CouplingState,
    LoadCellSpec,
    actuator_position_mm,
    coupling_for_magnet,
    measure,
    retraction_duration_s,
    update_coupling,
)
from .hand import (
    WRIST_EXTENSION_DEG,
    Digit,
    HandModel,
    HandPose,
    JointId,
    JointKind,
    FINGERS,
)
from .spasticity import SubjectProfile, resistance_force_n
from .tendons import (
    Side,
    TendonNetwork,
    moment_arm_mm,
    net_elongation_mm,
    network_state,
)

DEFAULT_SAMPLE_RATE_HZ = 100.0
DEFAULT_FUNCTIONAL_FLEXION_DEG = 110.0


@dataclass(frozen=True)
class TrialConfig:
    hand: HandModel
    network: TendonNetwork
    subject: SubjectProfile
    actuator: ActuatorSpec = field(default_factory=ActuatorSpec)
    coupling: CouplingSpec = field(default_factory=lambda: coupling_for_magnet("standard"))
    cell: LoadCellSpec = field(default_factory=LoadCellSpec)
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    noise_sigma_n: float = 0.0
    functional_flexion_deg: float = DEFAULT_FUNCTIONAL_FLEXION_DEG

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0.0:
            raise ValueError("sample_rate_hz must be > 0")
        if self.noise_sigma_n < 0.0:
            raise ValueError("noise_sigma_n must be >= 0")
        if not self.coupling.breakaway_force_n < self.actuator.peak_force_n:
            raise ValueError(
                "coupling breakaway force must lie below the actuator peak force, "
                f"got {self.coupling.breakaway_force_n} vs {self.actuator.peak_force_n}"
            )
        self.hand.validate_pose(self.subject.rest_pose)


def trial_config_for(
    hand: HandModel,
    network: TendonNetwork,
    subject: SubjectProfile,
    *,
    magnet: str | None = None,
    **settings: Any,
) -> TrialConfig:
    """The only code that assembles a TrialConfig: the coupling is the subject's own
    magnet unless ``magnet`` names another, and every TrialConfig field not
    given in ``settings`` keeps its default."""
    return TrialConfig(
        hand=hand,
        network=network,
        subject=subject,
        coupling=coupling_for_magnet(magnet if magnet is not None else subject.magnet),
        **settings,
    )


def is_functional_extension(
    pose: HandPose, max_total_flexion_deg: float = DEFAULT_FUNCTIONAL_FLEXION_DEG
):
    """True where every finger's MCP+PIP+DIP flexion sum is at or below the
    threshold — the opening needed to pass a grasp-diameter test object.
    One answer per sample for a pose of angle columns."""
    return np.all(
        [pose.total_finger_flexion(d) <= max_total_flexion_deg for d in FINGERS], axis=0
    )


@dataclass(frozen=True)
class _Drive:
    """One branch's pull on the pose.

    Past its slack the branch spends a share s = min(1, past-slack / scale_mm)
    of its range: each ``straighten`` joint goes to (1 - s)·rest and each
    ``advance`` joint to rest + s·(limit - rest).  Joints are pose columns.
    """

    slack_mm: float
    scale_mm: float
    straighten: list[int]
    advance: list[int]


class PoseResponse:
    """Kinematic response of the hand to junction displacement.

    The hand yields freely (no elastic stretch) until each branch's geometry
    runs out.  A branch's first palmar routing point advances its joint toward
    the flexion limit; every other routed joint, and a finger's unrouted DIP
    (which follows the PIP through soft-tissue coupling), straightens.  All
    of a branch's joints move by one share of their range, sized so the
    tendon the pose pays out matches the displacement past slack: an
    extension branch opens its finger uniformly, a pinch branch flexes the
    MCP (or adducts the thumb) while the distal joints straighten.  Poses
    never leave joint limits and saturate once a branch's range is spent.
    """

    def __init__(self, hand: HandModel, network: TendonNetwork, rest: HandPose):
        hand.validate_pose(rest)
        self.rest = rest
        self.joints: tuple[JointId, ...] = hand.joint_ids()
        self._rest = np.array([rest.get(j) for j in self.joints])
        self._limit = np.array([hand.joint(j).flexion_max_deg for j in self.joints])
        self._drives: list[_Drive] = []
        for branch in network.branches:
            straighten: list[int] = []
            advance: list[int] = []
            scale = 0.0
            for pt in branch.routing:
                r = moment_arm_mm(hand, pt)
                col = self.joints.index(pt.joint)
                if pt.side is Side.PALMAR and not advance:
                    advance.append(col)
                    scale += r * math.radians(self._limit[col] - self._rest[col])
                else:
                    straighten.append(col)
                    scale += r * math.radians(self._rest[col])
            dip = (branch.digit, JointKind.DIP)
            if branch.digit is not Digit.THUMB and hand.has_joint(dip):
                col = self.joints.index(dip)
                if col not in straighten + advance:
                    straighten.append(col)
            if scale > 0.0:
                self._drives.append(_Drive(branch.slack_mm, scale, straighten, advance))

    def angles(self, displacements_mm) -> np.ndarray:
        """Joint angles at each displacement, columns in ``joints`` order:
        shape ``(n_joints,)`` for one displacement, ``(n, n_joints)`` for n."""
        d = np.asarray(displacements_mm, dtype=float)
        if np.any(d < 0.0):
            raise ValueError("displacement must be >= 0")
        out = np.tile(self._rest, d.shape + (1,))
        rest, limit = self._rest, self._limit
        for drive in self._drives:
            s = np.clip((d - drive.slack_mm) / drive.scale_mm, 0.0, 1.0)[..., None]
            straighten, advance = drive.straighten, drive.advance
            out[..., straighten] = (1.0 - s) * rest[straighten]
            out[..., advance] = rest[advance] + s * (limit[advance] - rest[advance])
        return out

    def at(self, displacement_mm: float) -> HandPose:
        row = self.angles(displacement_mm).tolist()
        return HandPose(dict(zip(self.joints, row)), self.rest.wrist_extension_deg)


@dataclass
class TrialTrace:
    """Sampled record of one trial plus per-sample internals.

    ``force_n`` is the quantized load-cell channel that an analysis sees;
    the unquantized tension, junction states, and joint angles (one column
    per joint in ``joints``) are kept alongside so recorded samples can be
    re-checked against the constitutive relations.
    """

    t_s: np.ndarray
    actuator_mm: np.ndarray
    force_n: np.ndarray
    subject_id: str = ""
    network: str = ""
    stroke_mm: float = 50.0
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    noise_sigma_n: float = 0.0
    seed: Sequence[int] | int | None = None
    breakaway: bool = False
    breakaway_time_s: float | None = None
    functional_extension: bool | None = None
    functional_time_s: float | None = None
    joints: tuple[JointId, ...] = ()
    angles_deg: np.ndarray | None = None
    wrist_extension_deg: float = WRIST_EXTENSION_DEG
    true_force_n: np.ndarray | None = None
    actuator_tension_n: np.ndarray | None = None
    branch_taut: np.ndarray | None = None
    branch_elongation_mm: np.ndarray | None = None
    branch_tension_n: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.t_s)

    @property
    def retraction_mm(self) -> np.ndarray:
        return self.stroke_mm - self.actuator_mm

    @cached_property
    def poses(self) -> tuple[HandPose, ...] | None:
        """One HandPose per sample, read from ``angles_deg`` on first use."""
        if self.angles_deg is None:
            return None
        return tuple(
            HandPose(dict(zip(self.joints, row)), self.wrist_extension_deg)
            for row in self.angles_deg.tolist()
        )

    @property
    def final_pose(self) -> HandPose | None:
        return self.poses[-1] if self.poses else None

    def window(self, start: int, stop: int) -> "TrialTrace":
        """Contiguous sample window with every array channel sliced alike."""
        sl = slice(start, stop)
        return replace(
            self,
            **{
                f.name: value[sl]
                for f in fields(self)
                if isinstance(value := getattr(self, f.name), np.ndarray)
            },
        )


def trial_sample_count(cfg: TrialConfig) -> int:
    duration = retraction_duration_s(cfg.actuator)
    return int(math.floor(duration * cfg.sample_rate_hz)) + 1


def derive_seed(base_seed: int, subject_index: int, trial_index: int) -> np.random.SeedSequence:
    """Stable per-trial seed stream: one branch per (run, subject, trial)."""
    return np.random.SeedSequence([base_seed, subject_index, trial_index])


def run_trial(
    cfg: TrialConfig, seed: int | Sequence[int] | np.random.SeedSequence = 0
) -> TrialTrace:
    """Simulate one full retraction and return the sampled trace.

    Deterministic for a given (config, seed): the same inputs reproduce the
    trace bit-for-bit.  Sensor noise is Gaussian on the true tension before
    the coupling and the quantizer see it.
    """
    n = trial_sample_count(cfg)
    rng = np.random.default_rng(seed)
    noise = (
        rng.normal(0.0, cfg.noise_sigma_n, n)
        if cfg.noise_sigma_n > 0.0
        else np.zeros(n)
    )

    rest = cfg.subject.rest_pose
    response = PoseResponse(cfg.hand, cfg.network, rest)
    t = np.arange(n) / cfg.sample_rate_hz
    position = actuator_position_mm(t, cfg.actuator)
    disp = cfg.actuator.stroke_mm - position

    # The spring sees the junction's pull past slack whatever the pose, so
    # the release is known before the pose: the first sample whose true
    # tension reaches the breakaway force.
    spring = resistance_force_n(cfg.subject, net_elongation_mm(cfg.network, disp))
    coupling = update_coupling(CouplingState(), spring + noise, cfg.coupling, t)
    release_s = math.inf if coupling.engaged else coupling.disengage_time_s
    held = t <= release_s  # coupling engaged as the sample begins
    transmits = t < release_s  # ... and still engaged as it ends

    # Once the coupling is open the tendon side is free: no displacement
    # reaches the hand, which relaxes back to rest, and the muscle no longer
    # loads the actuator.
    angles = response.angles(np.where(held, disp, 0.0))
    pose = HandPose(dict(zip(response.joints, angles.T)), rest.wrist_extension_deg)
    true_force = np.where(held, spring, 0.0) + noise
    transmitted = np.where(transmits, np.maximum(0.0, true_force), 0.0)
    kin = network_state(
        cfg.hand, cfg.network, pose, disp, rest_pose=rest, total_tension_n=transmitted
    )
    functional = np.flatnonzero(
        held & is_functional_extension(pose, cfg.functional_flexion_deg)
    )

    def branch_columns(name: str) -> np.ndarray:
        return np.column_stack([getattr(b, name) for b in kin.branches])

    return TrialTrace(
        t_s=t,
        actuator_mm=position,
        force_n=measure(transmitted, cfg.cell),
        subject_id=cfg.subject.subject_id,
        network=cfg.network.kind.value,
        stroke_mm=cfg.actuator.stroke_mm,
        sample_rate_hz=cfg.sample_rate_hz,
        noise_sigma_n=cfg.noise_sigma_n,
        seed=seed.entropy if isinstance(seed, np.random.SeedSequence) else seed,
        breakaway=not coupling.engaged,
        breakaway_time_s=coupling.disengage_time_s,
        functional_extension=bool(functional.size),
        functional_time_s=float(t[functional[0]]) if functional.size else None,
        joints=response.joints,
        angles_deg=angles,
        wrist_extension_deg=rest.wrist_extension_deg,
        true_force_n=true_force,
        actuator_tension_n=kin.actuator_tension_n,
        branch_taut=branch_columns("taut"),
        branch_elongation_mm=branch_columns("elongation_mm"),
        branch_tension_n=branch_columns("tension_n"),
    )
