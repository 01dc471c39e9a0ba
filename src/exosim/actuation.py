"""Actuator, breakaway coupling, and load-cell hardware models.

Times and forces may be numbers or arrays over a trial's sample grid; each
law returns the same shape it is given.
"""

from __future__ import annotations

import math

import numpy as np


class ActuatorSpec:
    """Linear actuator retracting at constant speed from full stroke."""

    def __init__(
        self, stroke_mm: float = 50.0, max_speed_mm_s: float = 5.0, peak_force_n: float = 50.0
    ) -> None:
        self.stroke_mm = stroke_mm
        self.max_speed_mm_s = max_speed_mm_s
        self.peak_force_n = peak_force_n
        for name in ("stroke_mm", "max_speed_mm_s", "peak_force_n"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")


class CouplingSpec:
    """Magnetic breakaway coupling in series with the tendon."""

    def __init__(self, breakaway_force_n: float) -> None:
        self.breakaway_force_n = breakaway_force_n
        if not self.breakaway_force_n > 0.0:
            raise ValueError("breakaway_force_n must be > 0")


MAGNET_BREAKAWAY_N = {"standard": 34.0, "strong": 41.0}


def coupling_for_magnet(name: str) -> CouplingSpec:
    try:
        return CouplingSpec(MAGNET_BREAKAWAY_N[name])
    except (KeyError, TypeError):  # TypeError: a name that is not hashable
        raise ValueError(
            f"unknown magnet {name!r}; choose from {sorted(MAGNET_BREAKAWAY_N)}"
        ) from None


class LoadCellSpec:
    def __init__(self, resolution_n: float = 0.196, range_max_n: float = 50.0) -> None:
        self.resolution_n = resolution_n
        self.range_max_n = range_max_n
        if not self.resolution_n > 0.0:
            raise ValueError("resolution_n must be > 0")
        if not self.range_max_n > 0.0:
            raise ValueError("range_max_n must be > 0")
        if not math.isfinite(self.range_max_n / self.resolution_n):
            raise ValueError("range_max_n / resolution_n must be finite")


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
    # A force above full scale reads full scale, so it need not be divided.
    q = res * np.floor(np.minimum(force_n, full) / res + 0.5)
    top = res * math.floor(full / res)  # largest regular code below full scale
    at_full = (
        (force_n >= full)
        | (q >= full)
        | ((q == top) & (force_n - top >= full - force_n))
    )
    return np.where(at_full, full, q)[()]


def update_coupling(true_force_n, spec: CouplingSpec, t_s) -> float | None:
    """When the coupling opens over samples at times ``t_s`` (or one sample):
    the time of the first sample whose true (unquantized) tension reaches the
    breakaway force, after which it never re-engages; None if none does.
    """
    crossed = np.flatnonzero(np.asarray(true_force_n) >= spec.breakaway_force_n)
    return float(np.ravel(t_s)[crossed[0]]) if crossed.size else None
