"""Where a trial's hand first opens, found without its pose.

Each joint follows the last branch that moves it (``trial.PoseResponse``), so
a finger's MCP+PIP+DIP is ``a + Σ v·s`` over the shares ``s`` of the branches
that move it, and every share rises with the sample.  Holding a finger's
falling terms (``v < 0``) at the last sample gives a floor of its sum that only
rises: once that floor passes the threshold, the finger stays closed.  Holding
its rising terms at the first sample gives a floor that only falls: the finger
is closed until that floor reaches the threshold.  Two bisections a finger
bound the samples at which every finger may be open, and only those are
tested, with the float operations of ``PoseResponse.at`` and
``finger_flexion_deg`` in their order, up to the first open one.
"""

from __future__ import annotations

import bisect
import math

from .hand import FINGER_JOINT_KINDS, FINGERS, HandModel


class FingerSums:
    """Each finger's MCP+PIP+DIP as a pose response moves it."""

    def __init__(self, hand: HandModel, rest: list[float], end: list[float], drives) -> None:
        self.rest, self.end = rest, end
        # Each finger's MCP, PIP and DIP as ``at`` sets them: (column, the
        # (slack, scale) of the last drive that moves it or None, straightened).
        last = {}
        for slack_mm, scale_mm, straighten, advance in drives:
            for c in straighten + advance:
                last[c] = ((slack_mm, scale_mm), c not in advance)
        self.fingers = []
        for digit in FINGERS:
            cols = [hand.col((digit, kind)) for kind in FINGER_JOINT_KINDS[:3]]
            self.fingers.append([(c, *last.get(c, (None, False))) for c in cols])
        # Each finger's sum as (a, the (drive, v) with v > 0, those with
        # v < 0).  There are none where a sum might overflow, and then every
        # sample is tested.
        big = max(map(abs, rest + end))  # a finger's |a| + Σ|v| is at most 9·big
        self.margin = 2.0**-40 * 3.0 * big  # past any rounding of a sum
        self.floors = []
        for finger in self.fingers if math.isfinite(16.0 * big) else ():
            b = {}
            for c, drive, straightened in finger:
                if drive:
                    b[drive] = b.get(drive, 0.0) + (0.0 if straightened else end[c]) - rest[c]
            up = [(drive, v) for drive, v in b.items() if v > 0.0]
            down = [(drive, v) for drive, v in b.items() if v < 0.0]
            self.floors.append((sum(rest[c] for c, _, _ in finger), up, down))

    def is_open(self, d: float, threshold: float) -> bool:
        """Every finger's sum at displacement ``d`` is at or below the
        threshold, computed as ``at`` and ``finger_flexion_deg`` compute it."""
        r, e = self.rest, self.end
        for finger in self.fingers:
            total = 0.0
            for c, drive, straightened in finger:
                s = _share(d, drive) if drive else 0.0
                total += (1.0 - s) * r[c] if straightened else r[c] + s * (e[c] - r[c])
            if not total <= threshold:
                return False
        return True

    def first_open(self, disp, h: int, threshold: float) -> int | None:
        """The first of the ``h`` samples of junction displacement ``disp``
        at which the hand is open (None: none), bit for bit as
        ``is_functional_extension`` finds it in the pose."""
        top = threshold + self.margin

        def floor(a: float, terms: list, i: int) -> float:  # a + Σ v·s at sample i
            d = float(disp[i])
            for drive, v in terms:
                a += v * _share(d, drive)
            return a

        lo, hi = 0, h  # the samples at which every finger may be open
        for a, up, down in self.floors:
            a_up, a_down = floor(a, down, h - 1), floor(a, up, 0)
            hi = bisect.bisect_left(range(h), True, lo, hi, key=lambda i: floor(a_up, up, i) > top)
            lo = bisect.bisect_left(range(h), True, lo, hi, key=lambda i: floor(a_down, down, i) <= top)
        return next((i for i in range(lo, hi) if self.is_open(float(disp[i]), threshold)), None)


def _share(d: float, drive: tuple[float, float]) -> float:
    """A drive's share of its range at displacement ``d``, as ``at`` has it."""
    slack_mm, scale_mm = drive
    return min(max((d - slack_mm) / scale_mm, 0.0), 1.0)
