"""Actuator, breakaway coupling, and load-cell hardware models.

Times and forces may be numbers or arrays over a trial's sample grid; each
law returns the same shape it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ActuatorSpec:
    """Linear actuator retracting at constant speed from full stroke."""

    stroke_mm: float = 50.0
    max_speed_mm_s: float = 5.0
    peak_force_n: float = 50.0

    def __post_init__(self) -> None:
        for name in ("stroke_mm", "max_speed_mm_s", "peak_force_n"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class CouplingSpec:
    """Magnetic breakaway coupling in series with the tendon."""

    breakaway_force_n: float

    def __post_init__(self) -> None:
        if not self.breakaway_force_n > 0.0:
            raise ValueError("breakaway_force_n must be > 0")


MAGNET_BREAKAWAY_N = {"standard": 34.0, "strong": 41.0}


def coupling_for_magnet(name: str) -> CouplingSpec:
    try:
        return CouplingSpec(MAGNET_BREAKAWAY_N[name])
    except KeyError:
        raise ValueError(
            f"unknown magnet {name!r}; choose from {sorted(MAGNET_BREAKAWAY_N)}"
        ) from None


@dataclass(frozen=True)
class LoadCellSpec:
    resolution_n: float = 0.196
    range_max_n: float = 50.0

    def __post_init__(self) -> None:
        if not self.resolution_n > 0.0:
            raise ValueError("resolution_n must be > 0")
        if not self.range_max_n > 0.0:
            raise ValueError("range_max_n must be > 0")


@dataclass(frozen=True)
class CouplingState:
    """Latched state of the coupling; once open it stays open."""

    engaged: bool = True
    disengage_time_s: float | None = None


def actuator_position_mm(t_s, spec: ActuatorSpec):
    """Position at time t: linear retraction from full stroke, floored at 0."""
    earliest = np.min(t_s)
    if earliest < 0.0:
        raise ValueError(f"time must be >= 0, got {earliest}")
    return np.maximum(0.0, spec.stroke_mm - spec.max_speed_mm_s * t_s)


def retraction_duration_s(spec: ActuatorSpec) -> float:
    return spec.stroke_mm / spec.max_speed_mm_s


def measure(force_n, cell: LoadCellSpec = LoadCellSpec()):
    """Quantized load-cell reading: nearest output code, ties rounding up.

    The output codes are the non-negative multiples of the resolution plus
    one extra code at full scale (the range maximum is generally not itself a
    multiple of the resolution).  This keeps re-measurement a fixed point:
    every value the cell can report maps back to itself.
    """
    lowest = np.min(force_n)
    if lowest < 0.0:
        raise ValueError(f"load cell force must be >= 0, got {lowest}")
    res = cell.resolution_n
    full = cell.range_max_n
    q = res * np.floor(force_n / res + 0.5)
    top = res * math.floor(full / res)  # largest regular code below full scale
    at_full = (
        (force_n >= full)
        | (q >= full)
        | ((q == top) & (force_n - top >= full - force_n))
    )
    return np.where(at_full, full, q)[()]


def update_coupling(
    state: CouplingState, true_force_n, spec: CouplingSpec, t_s
) -> CouplingState:
    """Advance the coupling over one sample, or over a block of samples at
    times ``t_s``: it opens at the first sample whose true (unquantized)
    tension reaches the breakaway force, and never re-engages.
    """
    crossed = np.flatnonzero(np.asarray(true_force_n) >= spec.breakaway_force_n)
    if state.engaged and crossed.size:
        return CouplingState(engaged=False, disengage_time_s=float(np.ravel(t_s)[crossed[0]]))
    return state
