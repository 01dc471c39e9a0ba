"""Aggregate spastic-muscle resistance and the synthetic subject bank.

Velocity-dependent tone is collapsed into a single linear spring acting on
the net tendon elongation at the junction: at the slow, constant retraction
speed used in trials the catch-and-yield dynamics average out, and recorded
force-position traces are close to affine.  Stiffer springs stand in for
higher clinical tone grades.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .actuation import ActuatorSpec, coupling_for_magnet
from .hand import Digit
from .tendons import DEFAULT_BRANCH_SLACK_MM

# Effective spring travel with the default stroke and branch slack: how far
# the junction moves past slack at full retraction (48 mm).
DEFAULT_TOTAL_TRAVEL_MM = ActuatorSpec().stroke_mm - DEFAULT_BRANCH_SLACK_MM


class MasLevel(Enum):
    """Modified Ashworth scale grades used to label subjects."""

    ONE = "1"
    ONE_PLUS = "1+"
    TWO = "2"
    THREE = "3"


class SubjectProfile:
    engage_slack_mm = 0.0  # read by the class name for the default config's subjects

    def __init__(
        self,
        subject_id: str,
        mas: MasLevel,
        stiffness_n_per_mm: float,
        rest_pose: np.ndarray,  # angles over the hand's joint order
        engage_slack_mm: float = engage_slack_mm,
        # Expected recorded peak-force band (N); upper bound None = unbounded.
        peak_band_n: tuple[float, float | None] | None = None,
        magnet: str = "standard",
        notes: str = "",
    ) -> None:
        self.subject_id = subject_id
        self.mas = mas
        self.stiffness_n_per_mm = stiffness_n_per_mm
        self.rest_pose = rest_pose
        self.engage_slack_mm = engage_slack_mm
        self.peak_band_n = peak_band_n
        self.magnet = magnet
        self.notes = notes
        if self.stiffness_n_per_mm < 0.0:
            raise ValueError("stiffness must be >= 0")
        if self.engage_slack_mm < 0.0:
            raise ValueError("engage_slack_mm must be >= 0")
        coupling_for_magnet(self.magnet)  # an unknown magnet fails here


def resistance_force_n(profile: SubjectProfile, net_elongation_mm):
    """Spring force against a net tendon elongation (a number or an array);
    zero until the muscle's own engagement slack is taken up, linear beyond."""
    stretch = net_elongation_mm - profile.engage_slack_mm
    return profile.stiffness_n_per_mm * np.maximum(0.0, stretch)


def calibrate_stiffness(
    peak_force_n: float, total_elongation_mm: float, engage_slack_mm: float = 0.0
) -> float:
    """Stiffness that reproduces a target peak force at full elongation."""
    if peak_force_n < 0.0:
        raise ValueError("peak force must be >= 0")
    travel = total_elongation_mm - engage_slack_mm
    if travel <= 0.0:
        raise ValueError(
            f"total elongation {total_elongation_mm} mm does not exceed "
            f"engage slack {engage_slack_mm} mm"
        )
    stiffness = peak_force_n / travel
    if not math.isfinite(stiffness):
        raise ValueError(
            f"a {peak_force_n} N peak over {travel} mm gives a stiffness beyond float range"
        )
    return stiffness


class SubjectBank:
    def __init__(self, profiles: tuple[SubjectProfile, ...] = ()) -> None:
        self.profiles = profiles
        ids = [p.subject_id for p in self.profiles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate subject ids in bank")

    def __iter__(self):
        return iter(self.profiles)

    def __len__(self) -> int:
        return len(self.profiles)

    def ids(self) -> tuple[str, ...]:
        return tuple(p.subject_id for p in self.profiles)


# The five synthetic subjects, in the shape of the config's ``subjects``
# section.  Peak midpoints for S1-S3 pin the stiffness through
# calibrate_stiffness; S4/S5 are specified by stiffness directly, high enough
# that the coupling releases during the trial, and are paired with the
# stronger magnet so the recorded peak clears 35 N.
# ``rest_flexion_fraction`` is the resting flexion fraction of each digit's range.
BANK_PARAMS: dict[str, dict] = {
    "S1": dict(
        mas=MasLevel.TWO.value,
        stiffness_n_per_mm=calibrate_stiffness(17.5, DEFAULT_TOTAL_TRAVEL_MM),
        rest_flexion_fraction=0.75,
        magnet="standard",
        peak_band_n=[15.0, 20.0],
        notes="",
    ),
    "S2": dict(
        mas=MasLevel.ONE.value,
        stiffness_n_per_mm=calibrate_stiffness(27.5, DEFAULT_TOTAL_TRAVEL_MM),
        rest_flexion_fraction=0.60,
        magnet="standard",
        peak_band_n=[25.0, 30.0],
        notes="",
    ),
    "S3": dict(
        mas=MasLevel.ONE.value,
        stiffness_n_per_mm=calibrate_stiffness(17.5, DEFAULT_TOTAL_TRAVEL_MM),
        rest_flexion_fraction={"default": 0.60, Digit.INDEX.value: 0.75},
        magnet="standard",
        peak_band_n=[15.0, 20.0],
        notes="index finger graded 2",
    ),
    "S4": dict(
        mas=MasLevel.THREE.value,
        stiffness_n_per_mm=1.5,
        rest_flexion_fraction=0.95,
        magnet="strong",
        peak_band_n=[35.0, None],
        notes="coupling expected to release before a functional opening",
    ),
    "S5": dict(
        mas=MasLevel.TWO.value,
        stiffness_n_per_mm=1.0,
        rest_flexion_fraction=0.75,
        magnet="strong",
        peak_band_n=[35.0, None],
        notes="coupling expected to release after a functional opening",
    ),
}


def in_peak_band(peak_n: float, band: tuple[float, float | None] | None) -> bool:
    if band is None:
        return True
    lo, hi = band
    if math.isnan(peak_n):
        return False
    if peak_n < lo:
        return False
    return hi is None or peak_n <= hi
