"""Episodic confidence-set learner that mimics the offline VCG mechanism.

The learner runs in episodes of growing length. Each episode starts with a
mixing phase (no charges) long enough for the chain to approach the stationary
distribution of the current policy, followed by a stationary phase in which
per-round payments are charged. At episode end it rebuilds the empirical
kernel with Bernstein bands, clipped reward UCB/LCBs, and solves one welfare
LP plus n counterfactual LPs over the shrunk confidence polytope to get the
next allocation policy and payment tables.

Payments come in two flavors sharing all state: the seller-favorable table
uses optimistic counterfactual welfare minus pessimistic realized welfare (it
tends to overcharge), the bidder-favorable table swaps the roles. Both are
maintained every episode; ``variant`` selects which one is charged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .mdp import reward_caps
from .polytope import PolytopeSpec, maximize_each, tighten_band

logger = logging.getLogger(__name__)

VARIANTS = ("seller_favorable", "bidder_favorable")


class ConfigurationError(RuntimeError):
    """Raised when a learner parameter makes an episode's LP infeasible."""


@dataclass(frozen=True)
class LearnerConfig:
    S: int
    A: int
    n: int
    alpha: float              # assumed ergodicity margin (known, never estimated)
    delta: float              # shrunk-polytope action floor
    zeta: float               # confidence level
    c_max: float = 1.0
    variant: str = "seller_favorable"

    def __post_init__(self):
        if not 0 < self.zeta < 1:
            raise ValueError("zeta must lie in (0, 1)")
        if not 0 < self.delta <= 1.0 / (self.S * self.A):
            raise ValueError(f"delta must lie in (0, 1/(S*A)]; got {self.delta}")
        if not 0 < self.alpha * self.S <= 1:
            raise ValueError("alpha must satisfy 0 < alpha*S <= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    def lengths(self, k: int) -> tuple:
        """Episode k's mixing and stationary lengths (d_k, l_k)."""
        return episode_lengths(k, self.alpha, self.S, self.A, self.delta, self.zeta)


@lru_cache(maxsize=4096)  # read every segment through d_k and l_k
def episode_lengths(k: int, alpha: float, S: int, A: int, delta: float, zeta: float):
    """Mixing and stationary lengths (d_k, l_k) for episode k.

    d_k = ceil(ln k / (alpha S)), floored at one round so the first episode
    still has a mixing phase; l_k = ceil(max(4, sqrt(k)) ln(A S k / zeta) /
    (alpha delta)). Natural logarithms.
    """
    if k < 1:
        raise ValueError("episode index starts at 1")
    d = max(1, math.ceil(math.log(k) / (alpha * S)))
    l = math.ceil(max(4.0, math.sqrt(k)) * math.log(A * S * k / zeta) / (alpha * delta))
    return d, l


def episode_schedule(config: LearnerConfig, episodes: int) -> np.ndarray:
    """Start rounds tau_1..tau_{K+1} implied by the episode-length formulas."""
    taus = [1]
    for k in range(1, episodes + 1):
        taus.append(taus[-1] + sum(config.lengths(k)))
    return np.array(taus, dtype=np.int64)


class OnlineVcgLearner:
    """Seller-side state: ``policy`` and ``payments`` are fixed within an
    episode, whose first d_k rounds are not charged; end_episode updates them."""

    def __init__(self, config: LearnerConfig):
        self.config = config
        S, A, n = config.S, config.A, config.n
        self.k = 1
        self.tau_k = 1
        self.pos = 0  # rounds already played in the current episode
        self.counts3 = np.zeros((S, A, S), dtype=np.int64)
        self.reward_sums = np.zeros((n + 1, S, A))
        self.band_lower = np.zeros((S, A, S))
        self.band_upper = np.ones((S, A, S))
        caps = reward_caps(n, config.c_max)
        self.reward_ucb = np.broadcast_to(caps[:, None, None], (n + 1, S, A)).copy()
        self.reward_lcb = np.zeros((n + 1, S, A))
        self.policy = np.full((S, A), 1.0 / A)
        self.payments_seller = np.ones((n, S, A))
        self.payments_bidder = np.ones((n, S, A))

    @property
    def d_k(self) -> int:
        """Episode k's mixing length; ``l_k`` is its stationary length."""
        return self.config.lengths(self.k)[0]

    @property
    def l_k(self) -> int:
        return self.config.lengths(self.k)[1]

    @property
    def counts(self) -> np.ndarray:
        """Visits per (s, a): ``counts3`` summed over the next state."""
        return self.counts3.sum(axis=2)

    @property
    def episode_complete(self) -> bool:
        return self.pos >= self.d_k + self.l_k

    @property
    def payments(self) -> np.ndarray:
        """The charged table under the configured variant."""
        if self.config.variant == "seller_favorable":
            return self.payments_seller
        return self.payments_bidder

    def observe(self, s, a, s2, seller_rewards, bids) -> None:
        """Record played rounds, one entry per round (``bids`` is (n, L)); both
        phases count. Bids outside [0, 1] are clipped, with one warning per
        call: the harness calls once per segment, so an episode longer than
        ``harness._SEGMENT_MAX`` rounds can warn once per chunk."""
        S, A, n = self.config.S, self.config.A, self.config.n
        sa = np.asarray(s) * A + np.asarray(a)  # flat (s, a) index
        bids = np.asarray(bids, dtype=np.float64)
        self.counts3 += np.bincount(sa * S + s2, minlength=S * A * S).reshape(S, A, S)
        out = (bids < 0.0) | (bids > 1.0)
        if out.any():
            first = int(np.flatnonzero(out.any(axis=0))[0])
            logger.warning("%d bids outside [0, 1] clipped, the first in round %d",
                           int(out.sum()), self.tau_k + self.pos + first)
            bids = np.where(bids < 0.0, 0.0, np.where(bids > 1.0, 1.0, bids))
        # in round order, so each sum adds exactly as one round at a time would
        np.add.at(self.reward_sums[0].reshape(-1), sa, seller_rewards)  # capped, never clipped
        np.add.at(self.reward_sums[1:].reshape(-1),
                  (np.arange(n)[:, None] * (S * A) + sa).ravel(), bids.ravel())
        self.pos += len(sa)

    def end_episode(self) -> None:
        """Refresh estimates, tighten the band, and solve the 2n+1 update LPs."""
        if not self.episode_complete:
            raise RuntimeError("stationary phase not complete")
        cfg = self.config
        S, A, n, k = cfg.S, cfg.A, cfg.n, self.k

        visits = np.maximum(1, self.counts)
        p_bar = self.counts3 / visits[:, :, None]
        log_kernel = math.log(A * S * k / cfg.zeta)
        denom = np.maximum(1, self.counts - 1)[:, :, None]
        radii = (2.0 * np.sqrt(p_bar * log_kernel / denom)
                 + 14.0 * log_kernel / (3.0 * denom))
        self.band_lower, self.band_upper = tighten_band(
            (self.band_lower, self.band_upper), p_bar, radii)

        r_bar = self.reward_sums / visits[None, :, :]
        log_reward = math.log(A * S * k * n / cfg.zeta)
        beta = np.sqrt(2.0 * log_reward / visits)
        caps = reward_caps(n, cfg.c_max)[:, None, None]
        self.reward_ucb = np.minimum(caps, r_bar + caps * beta[None])
        self.reward_lcb = np.maximum(0.0, r_bar - caps * beta[None])

        spec = PolytopeSpec(band_lower=self.band_lower, band_upper=self.band_upper,
                            delta=cfg.delta)
        total_ucb = self.reward_ucb.sum(axis=0)
        total_lcb = self.reward_lcb.sum(axis=0)

        # (n, 2, S, A): each bidder's optimistic, then pessimistic welfare of the others
        others = np.stack([total_ucb - self.reward_ucb[1:], total_lcb - self.reward_lcb[1:]], 1)
        # the allocation LP, then opt_1, pes_1, opt_2, ...: one chain, infeasible together
        sol, *counterfactual = maximize_each(
            np.concatenate([total_ucb[None], others.reshape(2 * n, S, A)]), spec)
        if sol.status != "optimal":
            raise ConfigurationError(
                f"episode {k}: allocation LP infeasible; delta={cfg.delta} is too "
                "large for the current confidence band")
        self.policy = sol.q.policy
        values = np.array([lp.objective_value for lp in counterfactual]).reshape(n, 2, 1, 1)
        self.payments_seller = values[:, 0] - others[:, 1]
        self.payments_bidder = values[:, 1] - others[:, 0]

        self.tau_k += self.d_k + self.l_k
        self.k += 1
        self.pos = 0

    # -- checkpointing -----------------------------------------------------

    def to_checkpoint(self) -> dict:
        doc = {"config": asdict(self.config), "k": self.k, "tau_k": self.tau_k, "pos": self.pos}
        for key in _CHECKPOINT_ARRAYS:
            doc[key] = getattr(self, key).tolist()
        return doc

    @classmethod
    def from_checkpoint(cls, doc: dict) -> "OnlineVcgLearner":
        learner = cls(LearnerConfig(**doc["config"]))
        learner.k, learner.tau_k, learner.pos = int(doc["k"]), int(doc["tau_k"]), int(doc["pos"])
        for key in _CHECKPOINT_ARRAYS:
            setattr(learner, key, np.array(doc[key], dtype=np.int64 if key == "counts3"
                                           else np.float64))
        return learner


# learner arrays in a checkpoint, in file order; a key not listed (such as an
# older file's "q_hat") is ignored
_CHECKPOINT_ARRAYS = ("counts3", "reward_sums", "band_lower", "band_upper", "reward_ucb",
                      "reward_lcb", "policy", "payments_seller", "payments_bidder")
