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
    """Round windows covering the given episode indices under the fixed schedule."""
    episodes = sorted(set(int(k) for k in episodes))
    taus = episode_schedule(config, max(episodes))
    return [(int(taus[k - 1]), int(taus[k])) for k in episodes]


def report(strategy: BidderStrategy, t: int, s: int, a: int,
           realized_reward: float) -> float:
    """The value the bidder reports this round, clipped to [0, 1]."""
    return float(make_reporter(strategy)(t, s, a, realized_reward))


def make_reporter(strategy: BidderStrategy):
    """Closure ``(t, s, a, r) -> report`` for one strategy (hot-loop path).

    Reports are clipped to [0, 1]; ``by_bids`` tables are clipped at construction.
    """
    kind = strategy.kind
    if kind == "truthful":
        return lambda t, s, a, r: r if 0.0 <= r <= 1.0 else min(1.0, max(0.0, r))
    if kind == "by_bids":
        table = strategy.table
        return lambda t, s, a, r: table[s, a]
    if kind == "scaled":
        f = strategy.factor
        return lambda t, s, a, r: min(1.0, max(0.0, f * r))
    if kind == "shifted":
        off = strategy.offset
        return lambda t, s, a, r: min(1.0, max(0.0, r + off))
    windows, inflate_to, factor = strategy.windows, strategy.inflate_to, strategy.factor

    def adversarial(t, s, a, r):
        if any(lo <= t < hi for lo, hi in windows):
            r = inflate_to if inflate_to is not None else factor * r
        return min(1.0, max(0.0, r))

    return adversarial


def strategy_from_spec(doc: dict) -> BidderStrategy:
    """Build a strategy from its experiment-config JSON entry."""
    kind = doc.get("kind")
    if kind == "truthful":
        return truthful()
    if kind == "by_bids":
        return by_bids(np.array(doc["table"], dtype=np.float64))
    if kind == "scaled":
        return scaled(float(doc["factor"]))
    if kind == "shifted":
        return shifted(float(doc["offset"]))
    if kind == "adversarial_window":
        return adversarial_window(
            [tuple(w) for w in doc["windows"]],
            factor=float(doc.get("factor", 1.0)),
            inflate_to=doc.get("inflate_to", 1.0),
        )
    raise ValueError(f"unknown strategy kind {kind!r}")
