"""Pluggable bidder reporting behaviors for the online auction loop.

truthful and by_bids are stationary by construction; scaled/shifted are
stationary distortions of the realized reward; adversarial_window inflates
reports inside configured round windows and is truthful outside them (the
only non-stationary kind).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .online import LearnerConfig, episode_schedule

KINDS = ("truthful", "by_bids", "scaled", "shifted", "adversarial_window")


@dataclass
class BidderStrategy:
    kind: str
    table: Optional[np.ndarray] = None        # by_bids
    factor: float = 1.0                       # scaled, adversarial_window
    offset: float = 0.0                       # shifted
    windows: tuple = ()                       # adversarial_window: (lo, hi) rounds, hi exclusive
    inflate_to: Optional[float] = None        # adversarial_window: constant report

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "by_bids" and self.table is None:
            raise ValueError("by_bids needs a bid table")


def truthful() -> BidderStrategy:
    return BidderStrategy("truthful")


def by_bids(table: np.ndarray) -> BidderStrategy:
    return BidderStrategy("by_bids", table=np.clip(np.asarray(table, float), 0.0, 1.0))


def scaled(factor: float) -> BidderStrategy:
    return BidderStrategy("scaled", factor=factor)


def shifted(offset: float) -> BidderStrategy:
    return BidderStrategy("shifted", offset=offset)


def adversarial_window(windows, factor: float = 1.0,
                       inflate_to: Optional[float] = 1.0) -> BidderStrategy:
    """Inflated reports during the given [lo, hi) round windows, truthful otherwise."""
    return BidderStrategy("adversarial_window", factor=factor,
                          windows=tuple(tuple(w) for w in windows),
                          inflate_to=inflate_to)


def windows_from_episodes(config: LearnerConfig, episodes) -> list:
    """Round windows covering the given episode indices (from 1) under the fixed schedule."""
    episodes = sorted(set(int(k) for k in episodes))
    if not episodes or episodes[0] < 1:
        raise ValueError("episode indices must be a non-empty list of integers >= 1; "
                         f"got {[k for k in episodes if k < 1] or 'an empty list'}")
    taus = episode_schedule(config, max(episodes))
    return [(int(taus[k - 1]), int(taus[k])) for k in episodes]


def _clip01(x):
    """min(1, max(0, x)) elementwise, picking as Python does: NaN and -0.0 give 0.0."""
    return np.where(x > 0.0, np.minimum(x, 1.0), 0.0)


def reports(strategy: BidderStrategy, t, s, a, r) -> np.ndarray:
    """What the bidder reports in rounds t at (s, a) given realized rewards r.

    Arguments are equal-length arrays (or scalars). Reports are clipped to
    [0, 1]; ``by_bids`` tables are clipped at construction.
    """
    kind = strategy.kind
    r = np.asarray(r, dtype=np.float64)
    if kind == "truthful":  # in-range values pass through untouched
        return np.where(r >= 0.0, np.minimum(r, 1.0), 0.0)
    if kind == "by_bids":
        return strategy.table[s, a]
    if kind == "scaled":
        return _clip01(strategy.factor * r)
    if kind == "shifted":
        return _clip01(r + strategy.offset)
    t = np.asarray(t)
    inside = np.zeros(t.shape, dtype=bool)
    for lo, hi in strategy.windows:
        inside |= (lo <= t) & (t < hi)
    lie = strategy.inflate_to if strategy.inflate_to is not None else strategy.factor * r
    return _clip01(np.where(inside, lie, r))
