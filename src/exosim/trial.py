"""Quasi-static trial simulation: one actuator retraction over a spastic hand.

The actuator retracts at constant speed and one rigid junction passes its
displacement to every tendon branch, so a trial is a sweep of one scalar and
every stage is evaluated once over the whole sample grid: the hand pose
responds to the displacement, the aggregate spastic muscle resists as a
spring, the true tension passes through the breakaway coupling, and the load
cell quantizes what reaches it.  The trace records the forces over the
actuator's path; ``trace_pose`` and ``junction_state`` give the pose and the
junction statics behind them on demand.  Inertia and friction are
neglected: at 5 mm/s the system moves through force-balanced states.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .actuation import (
    ActuatorSpec,
    LoadCellSpec,
    actuator_position_mm,
    coupling_for_magnet,
    measure,
    retraction_duration_s,
    update_coupling,
)
from .hand import Digit, HandModel, JointKind, finger_flexion_deg
from .opening import FingerSums, joint_angle, share
from .spasticity import SubjectProfile, resistance_force_n
from .tendons import (
    NetworkState,
    Side,
    TendonNetwork,
    excursion_mm,
    net_elongation_mm,
    network_state,
)

DEFAULT_SAMPLE_RATE_HZ = 100.0
DEFAULT_FUNCTIONAL_FLEXION_DEG = 110.0
# Samples one trial may hold: about 1000 times the default 1001-sample trial.
MAX_SAMPLES = 1_000_000


class TrialConfig:
    """One subject's trial: built once per subject, then only read."""

    def __init__(
        self,
        hand: HandModel,
        network: TendonNetwork,
        subject: SubjectProfile,
        actuator: ActuatorSpec = ActuatorSpec(),
        magnet: str | None = None,  # None: the subject's own magnet
        cell: LoadCellSpec = LoadCellSpec(),
        sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
        noise_sigma_n: float = 0.0,
        functional_flexion_deg: float = DEFAULT_FUNCTIONAL_FLEXION_DEG,
    ) -> None:
        self.hand = hand
        self.network = network
        self.subject = subject
        self.actuator = actuator
        self.cell = cell
        self.sample_rate_hz = sample_rate_hz
        self.noise_sigma_n = noise_sigma_n
        self.functional_flexion_deg = functional_flexion_deg
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise ValueError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        if not 0.0 <= self.noise_sigma_n < math.inf:
            raise ValueError(f"noise_sigma_n must be finite and >= 0, got {self.noise_sigma_n}")
        trial_sample_count(self)  # a trial too long to hold fails here
        self.coupling = coupling_for_magnet(subject.magnet if magnet is None else magnet)
        if not self.coupling.breakaway_force_n < self.actuator.peak_force_n:
            raise ValueError(
                "coupling breakaway force must lie below the actuator peak force, "
                f"got {self.coupling.breakaway_force_n} vs {self.actuator.peak_force_n}"
            )
        self.response = PoseResponse(hand, network, subject.rest_pose)  # checks the rest pose


def is_functional_extension(
    hand: HandModel,
    angles_deg: np.ndarray,
    max_total_flexion_deg: float = DEFAULT_FUNCTIONAL_FLEXION_DEG,
):
    """True where every finger's MCP+PIP+DIP flexion sum is at or below the
    threshold — the opening needed to pass a grasp-diameter test object.
    One answer per row of the angles."""
    return np.all(finger_flexion_deg(hand, angles_deg) <= max_total_flexion_deg, axis=-1)


class PoseResponse:
    """Kinematic response of the hand to junction displacement.

    The hand yields freely (no elastic stretch) until each branch's geometry
    runs out.  A branch's first palmar routing point advances its joint toward
    the flexion limit; every other routed joint, and a finger's unrouted DIP
    (which follows the PIP through soft-tissue coupling), straightens.  Past
    its slack a branch spends a share s = min(1, past-slack / scale) of its
    range (``opening.share``): each straightened joint goes to (1 - s)·rest
    and the advanced one to rest + s·(limit - rest) (``opening.joint_angle``,
    which the opening search shares).  The scale is the tendon the pose pays
    out over the whole range, so the pose pays out the displacement past
    slack: an extension branch opens its finger uniformly, a pinch branch
    flexes the MCP (or adducts the thumb) while the distal joints straighten.
    Poses never leave joint limits and saturate once a branch's range is
    spent.  ``finger_sums`` finds where the hand first opens from each
    finger's sum alone, without the pose.
    """

    def __init__(self, hand: HandModel, network: TendonNetwork, rest: np.ndarray):
        hand.validate_pose(rest)
        self.rest = rest
        end = rest.tolist()  # each driven joint at its range's end
        roles = []
        for branch in network.branches:
            straighten = [hand.col(pt.joint) for pt in branch.routing]
            sides = [pt.side for pt in branch.routing]
            advance = [straighten.pop(sides.index(Side.PALMAR))] if Side.PALMAR in sides else []
            if branch.digit is not Digit.THUMB:
                dip = hand.col((branch.digit, JointKind.DIP))
                if dip not in straighten + advance:
                    straighten.append(dip)
            for c in straighten + advance:
                end[c] = hand.hi[c] if c in advance else 0.0
            roles.append((straighten, advance))
        self._end = np.array(end)
        scales = excursion_mm(hand, network, rest - self._end).tolist()
        self._drives = [
            (branch.slack_mm, scale, straighten, advance)
            for branch, scale, (straighten, advance) in zip(network.branches, scales, roles)
            if scale > 0.0
        ]
        self.finger_sums = FingerSums(hand, rest.tolist(), self._end.tolist(), self._drives)

    def at(self, displacements_mm) -> np.ndarray:
        """Joint angles at each displacement, in the hand's joint order:
        shape ``(n_joints,)`` for one displacement, ``(n, n_joints)`` for n."""
        d = np.asarray(displacements_mm, dtype=float)
        if np.any(d < 0.0):
            raise ValueError("displacement must be >= 0")
        rest, end = self.rest, self._end
        out = np.tile(rest, d.shape + (1,))
        for slack_mm, scale_mm, straighten, advance in self._drives:
            s = share(d, slack_mm, scale_mm)[..., None]
            out[..., straighten] = joint_angle(s, rest[straighten], end[straighten], False)
            out[..., advance] = joint_angle(s, rest[advance], end[advance], True)
        return out


class TrialTrace:
    """Sampled record of one trial: one value per sample in each array.

    ``force_n`` is the quantized load-cell channel that an analysis sees and
    ``true_force_n`` the tension before it.  ``trace_pose`` and
    ``junction_state`` derive the rest from the trace and its config.
    """

    poses = None  # read by perfbench/tracer.py's trial-size counter

    def __init__(
        self,
        t_s: np.ndarray,
        actuator_mm: np.ndarray,
        force_n: np.ndarray,
        subject_id: str = "",
        network: str = "",
        stroke_mm: float = ActuatorSpec().stroke_mm,
        sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
        noise_sigma_n: float = 0.0,
        seed: Sequence[int] | int | None = None,
        breakaway: bool = False,
        breakaway_time_s: float | None = None,
        functional_extension: bool | None = None,
        functional_time_s: float | None = None,
        true_force_n: np.ndarray | None = None,
    ) -> None:
        self.t_s = t_s
        self.actuator_mm = actuator_mm
        self.force_n = force_n
        self.subject_id = subject_id
        self.network = network
        self.stroke_mm = stroke_mm
        self.sample_rate_hz = sample_rate_hz
        self.noise_sigma_n = noise_sigma_n
        self.seed = seed
        self.breakaway = breakaway
        self.breakaway_time_s = breakaway_time_s
        self.functional_extension = functional_extension
        self.functional_time_s = functional_time_s
        self.true_force_n = true_force_n

    def __len__(self) -> int:
        return len(self.t_s)

    @property
    def retraction_mm(self) -> np.ndarray:
        return self.stroke_mm - self.actuator_mm

    def window(self, start: int, stop: int) -> "TrialTrace":
        """Contiguous sample window with every array channel sliced alike."""
        sl = slice(start, stop)
        return TrialTrace(**{
            name: value[sl] if isinstance(value, np.ndarray) else value
            for name, value in vars(self).items()
        })


def trial_sample_count(cfg: TrialConfig) -> int:
    """Samples in one retraction, at most MAX_SAMPLES; no trial is allocated
    before this count is known to be in range."""
    span = retraction_duration_s(cfg.actuator) * cfg.sample_rate_hz
    if not span < MAX_SAMPLES:  # also catches inf and nan
        raise ValueError(f"a trial of {span + 1:g} samples exceeds MAX_SAMPLES = {MAX_SAMPLES}")
    return int(math.floor(span)) + 1


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

    t = np.arange(n) / cfg.sample_rate_hz
    position = actuator_position_mm(t, cfg.actuator)
    disp = cfg.actuator.stroke_mm - position

    # The spring sees the junction's pull past slack whatever the pose, so
    # the release is known before the pose: the first sample whose true
    # tension reaches the breakaway force.
    spring = resistance_force_n(cfg.subject, net_elongation_mm(cfg.network, disp))
    release_s = update_coupling(spring + noise, cfg.coupling, t)
    held, transmits = coupling_masks(t, release_s)

    # Once the coupling is open the muscle no longer loads the actuator.
    true_force = np.where(held, spring, 0.0) + noise
    transmitted = np.where(transmits, np.maximum(0.0, true_force), 0.0)
    trace = TrialTrace(
        t_s=t,
        actuator_mm=position,
        force_n=measure(transmitted, cfg.cell),
        subject_id=cfg.subject.subject_id,
        network=cfg.network.kind.value,
        stroke_mm=cfg.actuator.stroke_mm,
        sample_rate_hz=cfg.sample_rate_hz,
        noise_sigma_n=cfg.noise_sigma_n,
        seed=seed.entropy if isinstance(seed, np.random.SeedSequence) else seed,
        breakaway=release_s is not None,
        breakaway_time_s=release_s,
        true_force_n=true_force,
    )
    h = int(np.count_nonzero(held))
    opens = cfg.response.finger_sums.first_open(disp, h, cfg.functional_flexion_deg)
    trace.functional_time_s = None if opens is None else opens / cfg.sample_rate_hz
    trace.functional_extension = trace.functional_time_s is not None
    return trace


def coupling_masks(t_s: np.ndarray, release_s: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Where the coupling that opens at ``release_s`` (None: never) holds the
    hand, up to and at the release, and where it passes the tension, before."""
    opens_s = math.inf if release_s is None else release_s
    return t_s <= opens_s, t_s < opens_s


def trace_pose(cfg: TrialConfig, trace: TrialTrace) -> np.ndarray:
    """The pose at each sample of a trace of ``cfg`` (or of a window of one),
    bit for bit what the trial evaluated: the hand follows the junction while
    the coupling holds, and is back at rest once it has opened."""
    held, _ = coupling_masks(trace.t_s, trace.breakaway_time_s)
    return cfg.response.at(np.where(held, trace.retraction_mm, 0.0))


def junction_state(cfg: TrialConfig, trace: TrialTrace) -> NetworkState:
    """The junction statics at each sample of a trace of ``cfg`` (or of a
    window of one), about the subject's rest pose and carrying the tension
    that the coupling passed: bit for bit what the trial's grid gives."""
    _, transmits = coupling_masks(trace.t_s, trace.breakaway_time_s)
    transmitted = np.where(transmits, np.maximum(0.0, trace.true_force_n), 0.0)
    return network_state(
        cfg.hand, cfg.network, trace_pose(cfg, trace), trace.retraction_mm,
        rest_deg=cfg.subject.rest_pose, total_tension_n=transmitted,
    )
