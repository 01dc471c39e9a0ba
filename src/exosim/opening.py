"""Where a trial's hand first opens, found without its pose.

Each joint follows the last branch that moves it (``trial.PoseResponse``):
past its slack a branch spends a ``share`` of its range, and every joint it
moves takes its ``joint_angle`` at that share.  Over the held samples, a
block at a time, the search computes each drive's share once, then each
finger's MCP+PIP+DIP from those angles in ``finger_flexion_deg``'s order,
so that every sum is the whole pose's bit for bit, and no pose is built.
"""

from __future__ import annotations

import numpy as np

from .hand import FINGER_JOINT_KINDS, FINGERS, HandModel

SEARCH_BLOCK = 65_536  # held samples searched at once, so no array outgrows a block


def share(d, slack_mm: float, scale_mm: float):
    """A drive's share of its range at displacement ``d``: the pull past
    slack, clipped to the range before it is divided, so that a subnormal
    scale cannot overflow the quotient: ``np.clip``'s bits, 0.0 first so
    that a pull of -0.0 clips to 0.0, without its dispatch cost."""
    return np.minimum(np.maximum(0.0, d - slack_mm), scale_mm) / scale_mm


def joint_angle(s, rest, end, advanced: bool):
    """A driven joint at share ``s`` of its drive's range: an advanced joint
    at rest + s·(end - rest), a straightened one at (1 - s)·rest."""
    return rest + s * (end - rest) if advanced else (1.0 - s) * rest


class FingerSums:
    """Each finger's MCP+PIP+DIP as a pose response moves it."""

    def __init__(self, hand: HandModel, rest: list[float], end: list[float], drives) -> None:
        self.drives = drives
        # Each joint as ``at`` sets it: (the index of the last drive that
        # moves it, advanced, rest, range end).  A joint that no drive moves
        # reads the share 0 after the drives' shares, which keeps it at rest.
        last = [(len(drives), False, r, e) for r, e in zip(rest, end)]
        for k, (_, _, straighten, advance) in enumerate(drives):
            for c in straighten + advance:
                last[c] = (k, c in advance, rest[c], end[c])
        kinds = FINGER_JOINT_KINDS[:3]  # MCP, PIP, DIP
        self.fingers = [[last[hand.col((digit, kind))] for kind in kinds] for digit in FINGERS]

    def first_open(self, disp, h: int, threshold: float) -> int | None:
        """The first of the ``h`` samples of junction displacement ``disp``
        at which the hand is open (None: none), bit for bit as
        ``is_functional_extension`` finds it in the pose."""
        for a in range(0, h, SEARCH_BLOCK):
            d = disp[a:min(a + SEARCH_BLOCK, h)]
            shares = [share(d, slack, scale) for slack, scale, _, _ in self.drives] + [0.0]
            open_ = np.ones(len(d), dtype=bool)
            with np.errstate(over="ignore"):  # a sum past float range is inf: closed
                for finger in self.fingers:
                    mcp, pip, dip = (joint_angle(shares[k], r, e, adv) for k, adv, r, e in finger)
                    open_ &= mcp + pip + dip <= threshold
            hits = np.flatnonzero(open_)
            if hits.size:
                return a + int(hits[0])
        return None
