"""Quasi-static trial simulation: one actuator retraction over a spastic hand.

Each sample advances the actuator along its constant-speed retraction, lets
the hand pose respond to the displacement reaching the tendon junction,
evaluates the spring resistance of the aggregate spastic muscle, passes the
true tension through the breakaway coupling, and records the quantized
load-cell reading.  Inertia and friction are neglected: at 5 mm/s the system
moves through a sequence of force-balanced states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    Digit,
    HandModel,
    HandPose,
    JointId,
    JointKind,
    FINGERS,
)
from .spasticity import SubjectProfile, resistance_force_n
from .tendons import (
    NetworkKind,
    Side,
    TendonNetwork,
    branch_excursion_mm,
    moment_arm_mm,
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
) -> bool:
    """True when every finger's MCP+PIP+DIP flexion sum is at or below the
    threshold — the opening needed to pass a grasp-diameter test object."""
    return all(
        pose.total_finger_flexion(d) <= max_total_flexion_deg for d in FINGERS
    )


@dataclass(frozen=True)
class _ExtensionDrive:
    """One extension branch: scale the finger's rest flexion down uniformly."""

    slack_mm: float
    rest_excursion_mm: float
    joints: tuple[JointId, ...]
    rest_angles: tuple[float, ...]


@dataclass(frozen=True)
class _PinchDrive:
    """One pinch branch: proximal joint toward max, distal joints toward zero."""

    slack_mm: float
    denom_mm: float
    proximal: JointId
    proximal_rest: float
    proximal_max: float
    distal: tuple[JointId, ...]
    distal_rest: tuple[float, ...]


class PoseResponse:
    """Kinematic response of the hand to junction displacement.

    The hand yields freely (no elastic stretch) until each branch's geometry
    runs out: for an extension branch the finger's flexion scales down so the
    branch's excursion deficit exactly matches the displacement past slack;
    for a pinch branch the proximal joint advances toward its limit while the
    routed distal joints straighten, parameterized by one scalar per branch.
    Poses never leave joint limits and saturate once a branch's range is spent.
    """

    def __init__(self, hand: HandModel, network: TendonNetwork, rest: HandPose):
        hand.validate_pose(rest)
        self.hand = hand
        self.network = network
        self.rest = rest
        self._extension: list[_ExtensionDrive] = []
        self._pinch: list[_PinchDrive] = []
        for branch in network.branches:
            if network.kind is NetworkKind.EXTENSION:
                joints = [pt.joint for pt in branch.routing]
                coupled_dip = (branch.digit, JointKind.DIP)
                if (
                    branch.digit is not Digit.THUMB
                    and coupled_dip not in joints
                    and hand.has_joint(coupled_dip)
                ):
                    joints.append(coupled_dip)
                self._extension.append(
                    _ExtensionDrive(
                        slack_mm=branch.slack_mm,
                        rest_excursion_mm=branch_excursion_mm(hand, branch, rest),
                        joints=tuple(joints),
                        rest_angles=tuple(rest.get(j) for j in joints),
                    )
                )
            else:
                proximal = None
                distal: list[tuple[JointId, float]] = []
                denom = 0.0
                for pt in branch.routing:
                    r = moment_arm_mm(hand, pt)
                    if pt.side is Side.PALMAR and proximal is None:
                        proximal = pt.joint
                        prox_rest = rest.get(pt.joint)
                        prox_max = hand.joint(pt.joint).flexion_max_deg
                        denom += r * math.radians(prox_max - prox_rest)
                    else:
                        distal.append((pt.joint, rest.get(pt.joint)))
                        denom += r * math.radians(rest.get(pt.joint))
                if proximal is None:
                    raise ValueError(
                        f"pinch branch on {branch.digit.value} has no palmar "
                        "routing point to drive"
                    )
                self._pinch.append(
                    _PinchDrive(
                        slack_mm=branch.slack_mm,
                        denom_mm=denom,
                        proximal=proximal,
                        proximal_rest=prox_rest,
                        proximal_max=prox_max,
                        distal=tuple(j for j, _ in distal),
                        distal_rest=tuple(a for _, a in distal),
                    )
                )

    def at(self, displacement_mm: float) -> HandPose:
        if displacement_mm < 0.0:
            raise ValueError("displacement must be >= 0")
        angles = dict(self.rest.angles_deg)
        for drive in self._extension:
            avail = displacement_mm - drive.slack_mm
            if avail <= 0.0 or drive.rest_excursion_mm <= 0.0:
                continue
            alpha = max(0.0, 1.0 - avail / drive.rest_excursion_mm)
            for jid, rest_angle in zip(drive.joints, drive.rest_angles):
                angles[jid] = alpha * rest_angle
        for drive in self._pinch:
            avail = displacement_mm - drive.slack_mm
            if avail <= 0.0 or drive.denom_mm <= 0.0:
                continue
            beta = min(1.0, avail / drive.denom_mm)
            angles[drive.proximal] = drive.proximal_rest + beta * (
                drive.proximal_max - drive.proximal_rest
            )
            for jid, rest_angle in zip(drive.distal, drive.distal_rest):
                angles[jid] = (1.0 - beta) * rest_angle
        return HandPose(angles, self.rest.wrist_extension_deg)


@dataclass
class TrialTrace:
    """Sampled record of one trial plus per-sample internals.

    ``force_n`` is the quantized load-cell channel that an analysis sees;
    the unquantized tension, junction states, and poses are kept alongside so
    recorded samples can be re-checked against the constitutive relations.
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
    final_pose: HandPose | None = None
    poses: list[HandPose] | None = None
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

    def window(self, start: int, stop: int) -> "TrialTrace":
        """Contiguous sample window with all channels sliced consistently."""
        sl = slice(start, stop)

        def cut(a):
            return None if a is None else a[sl]

        return replace(
            self,
            t_s=self.t_s[sl],
            actuator_mm=self.actuator_mm[sl],
            force_n=self.force_n[sl],
            poses=None if self.poses is None else self.poses[sl],
            true_force_n=cut(self.true_force_n),
            actuator_tension_n=cut(self.actuator_tension_n),
            branch_taut=cut(self.branch_taut),
            branch_elongation_mm=cut(self.branch_elongation_mm),
            branch_tension_n=cut(self.branch_tension_n),
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
    if isinstance(seed, np.random.SeedSequence):
        seed_entropy = seed.entropy
        rng = np.random.default_rng(seed)
    else:
        seed_entropy = seed
        rng = np.random.default_rng(seed)
    noise = (
        rng.normal(0.0, cfg.noise_sigma_n, n)
        if cfg.noise_sigma_n > 0.0
        else np.zeros(n)
    )

    rest = cfg.subject.rest_pose
    response = PoseResponse(cfg.hand, cfg.network, rest)
    coupling = CouplingState()
    n_branches = len(cfg.network.branches)

    t = np.empty(n)
    position = np.empty(n)
    force = np.empty(n)
    true_force = np.empty(n)
    actuator_tension = np.empty(n)
    taut = np.zeros((n, n_branches), dtype=bool)
    elongation = np.zeros((n, n_branches))
    branch_tension = np.zeros((n, n_branches))
    poses: list[HandPose] = []

    functional = False
    functional_time: float | None = None

    for i in range(n):
        t_i = i / cfg.sample_rate_hz
        pos = actuator_position_mm(t_i, cfg.actuator)
        disp = cfg.actuator.stroke_mm - pos
        engaged_at_entry = coupling.engaged

        if engaged_at_entry:
            pose = response.at(disp)
            spring = None  # filled from the junction state below
        else:
            # Tendon side is free: the hand has relaxed back to rest and the
            # muscle no longer loads the actuator.
            pose = rest
            spring = 0.0

        kin = network_state(cfg.hand, cfg.network, pose, disp, rest_pose=rest)
        if spring is None:
            spring = resistance_force_n(cfg.subject, kin.net_elongation_mm)

        tf = spring + noise[i]
        coupling = update_coupling(coupling, tf, cfg.coupling, t_i)
        transmitted = max(0.0, tf) if coupling.engaged else 0.0
        kin = kin.with_total_tension(transmitted)

        if (
            engaged_at_entry
            and not functional
            and is_functional_extension(pose, cfg.functional_flexion_deg)
        ):
            functional = True
            functional_time = t_i

        t[i] = t_i
        position[i] = pos
        force[i] = measure(transmitted, cfg.cell)
        true_force[i] = tf
        actuator_tension[i] = kin.actuator_tension_n
        for b, bs in enumerate(kin.branches):
            taut[i, b] = bs.taut
            elongation[i, b] = bs.elongation_mm
            branch_tension[i, b] = bs.tension_n
        poses.append(pose)

    return TrialTrace(
        t_s=t,
        actuator_mm=position,
        force_n=force,
        subject_id=cfg.subject.subject_id,
        network=cfg.network.kind.value,
        stroke_mm=cfg.actuator.stroke_mm,
        sample_rate_hz=cfg.sample_rate_hz,
        noise_sigma_n=cfg.noise_sigma_n,
        seed=seed_entropy,
        breakaway=not coupling.engaged,
        breakaway_time_s=coupling.disengage_time_s,
        functional_extension=functional,
        functional_time_s=functional_time,
        final_pose=poses[-1] if poses else None,
        poses=poses,
        true_force_n=true_force,
        actuator_tension_n=actuator_tension,
        branch_taut=taut,
        branch_elongation_mm=elongation,
        branch_tension_n=branch_tension,
    )
