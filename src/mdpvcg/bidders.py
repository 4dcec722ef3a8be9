"""Bidder reporting behaviors for the online auction loop.

A bidder is a spec: a dict of its ``kind`` and that kind's keys, checked
against ``_BIDDER_KEYS`` by ``checked_spec``. truthful and by_bids are
stationary by construction; scaled/shifted are stationary distortions of the
realized reward; adversarial_window inflates reports inside configured round
windows and is truthful outside them (the only non-stationary kind).
"""

from __future__ import annotations

import numpy as np

from .mdp import _is_array, _is_finite, _is_int, _parse
from .online import LearnerConfig, episode_schedule

KINDS = ("truthful", "by_bids", "scaled", "shifted", "adversarial_window")

_KIND = (lambda v: v in KINDS, f"one of {', '.join(KINDS)}", ...)
_BIDDER_KEYS = {  # one table per kind
    "truthful": {"kind": _KIND},
    "by_bids": {"kind": _KIND,
                "table": (lambda v: _is_array(v, (None, None), _is_finite),
                          "rows of finite numbers", ...)},
    "scaled": {"kind": _KIND, "factor": (_is_finite, "a finite number", ...)},
    "shifted": {"kind": _KIND, "offset": (_is_finite, "a finite number", ...)},
    "adversarial_window": {  # inflated reports in the [lo, hi) round windows
        "kind": _KIND,
        "windows": (lambda v: _is_array(v, (None, 2), _is_int)
                    and all(0 <= lo < hi for lo, hi in v),
                    "[lo, hi] integer pairs with 0 <= lo < hi", ...),
        "factor": (_is_finite, "a finite number", 1.0),
        "inflate_to": (lambda v: v is None or _is_finite(v), "a finite number or null", 1.0),
    },
}


def checked_spec(spec, i: int = 1, shape=None) -> dict:
    """Bidder ``i``'s spec checked against its kind's keys, defaults filled in.

    A ``by_bids`` table must have ``shape`` (S, A) when it is given (it would
    fail mid-run), and it becomes a float array clipped to [0, 1].
    """
    kind = spec.get("kind") if isinstance(spec, dict) else None
    spec = _parse(spec, _BIDDER_KEYS[kind] if kind in KINDS else {"kind": _KIND}, f"bidder {i} ")
    if kind == "by_bids":
        if shape is not None and not _is_array(spec["table"], shape):
            raise ValueError(f"bidder {i} table must be an (S, A) = {shape} array of numbers")
        spec["table"] = np.clip(np.asarray(spec["table"], float), 0.0, 1.0)
    return spec


def windows_from_episodes(config: LearnerConfig, episodes) -> list:
    """Round windows covering the given episode indices (from 1) under the fixed schedule."""
    episodes = list(episodes)
    bad = [k for k in episodes if not _is_int(k)] or sorted({k for k in episodes if k < 1})
    if bad or not episodes:
        raise ValueError("episode indices must be a non-empty list of integers >= 1; "
                         f"got {bad or 'an empty list'}")
    episodes = sorted(set(episodes))
    taus = episode_schedule(config, max(episodes))
    return [(int(taus[k - 1]), int(taus[k])) for k in episodes]


def _clip01(x):
    """min(1, max(0, x)) elementwise, picking as Python does: NaN and -0.0 give 0.0."""
    return np.where(x > 0.0, np.minimum(x, 1.0), 0.0)


def reports(spec: dict, t, s, a, r) -> np.ndarray:
    """What the bidder of ``spec`` reports in rounds t at (s, a) given realized rewards r.

    Arguments are equal-length arrays (or scalars). Reports are clipped to
    [0, 1]; ``by_bids`` tables are clipped by ``checked_spec``.
    """
    kind = spec["kind"]
    r = np.asarray(r, dtype=np.float64)
    if kind == "truthful":  # in-range values pass through untouched
        return np.where(r >= 0.0, np.minimum(r, 1.0), 0.0)
    if kind == "by_bids":
        return spec["table"][s, a]
    if kind == "scaled":
        return _clip01(spec["factor"] * r)
    if kind == "shifted":
        return _clip01(r + spec["offset"])
    t = np.asarray(t)
    inside = np.zeros(t.shape, dtype=bool)
    for lo, hi in spec["windows"]:
        inside |= (lo <= t) & (t < hi)
    lie = spec["inflate_to"] if spec["inflate_to"] is not None else spec["factor"] * r
    return _clip01(np.where(inside, lie, r))
