"""Offline VCG mechanism for average-reward auctions with a known kernel.

The allocation maximizes bid-reported welfare over the kernel's stationary
policies; each bidder pays, per round, the welfare the others could have
earned without her minus what they actually earn at the realized (s, a).
The welfare problem and the n counterfactual problems share the kernel and
are solved together by batched average-reward policy iteration (Howard;
Puterman 1994, section 8.6), which needs every kernel entry positive: then
every stationary policy is ergodic, and the iteration is exact and finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occupancy import occupancy_from
from .tolerances import TOL

_MAX_ITERATIONS = 1000  # generated models take at most 3


@dataclass(frozen=True)
class BidProfile:
    """Per-bidder bid tables b_i(s,a), each in [0, 1]."""

    bids: np.ndarray  # (n, S, A)

    def __post_init__(self):
        b = np.asarray(self.bids, dtype=np.float64)
        if b.ndim != 3:
            raise ValueError(f"bids must be (n, S, A), got {b.shape}")
        if not (b.min() >= -TOL.row_sum and b.max() <= 1 + TOL.row_sum):
            raise ValueError("bids must lie in [0, 1]")  # NaN fails the comparisons
        object.__setattr__(self, "bids", b)

    @classmethod
    def truthful(cls, model) -> "BidProfile":
        return cls(model.reward_means[1:].copy())


@dataclass(frozen=True)
class Mechanism:
    allocation: np.ndarray            # policy pi*(a|s), row-stochastic
    payments: np.ndarray              # (n, S, A)
    counterfactual_values: np.ndarray # (n,), others' best welfare without i
    welfare_value: float              # optimal reported welfare <q*, R>

    def violations(self) -> list:
        out = []
        if not np.all(np.isfinite(self.payments)):
            out.append("non-finite payment")
        rows = self.allocation.sum(axis=1)
        if np.abs(rows - 1.0).max() > TOL.mass or self.allocation.min() < -TOL.mass:
            out.append("allocation is not a valid policy")
        return out


def _policy_iteration(rewards: np.ndarray, kernel: np.ndarray):
    """(gains (K,), policies (K, S) of action indices) of the K average-reward
    problems on ``kernel`` with reward tables ``rewards`` (K, S, A), solved
    together from the per-state greedy policy.

    Each iteration solves, per problem, g + h(s) - sum_t P(t|s,pi(s)) h(t) =
    r(s, pi(s)) with h(0) = 0 (column 0 carries g in place of h(0)). A state's
    action changes only when another beats it by more than ``TOL.exact``, to
    the lowest-index best action, so ties and rounding never cycle.
    """
    K, S, A = rewards.shape
    flat, rows = rewards.reshape(K, S * A), kernel.reshape(S * A, S)
    problems, first = np.arange(K)[:, None], np.arange(S) * A
    pairs = first + rewards.argmax(axis=2)  # the flat (s, pi(s)) of each problem and state
    identity = np.eye(S)
    for _ in range(_MAX_ITERATIONS):
        system = identity - rows[pairs]  # (K, S, S)
        system[:, :, 0] = 1.0
        x = np.linalg.solve(system, flat[problems, pairs][..., None])[..., 0]
        gain = x[:, 0].copy()
        x[:, 0] = 0.0  # now h
        q = (flat + x @ rows.T).reshape(K, S, A)
        better = q.max(axis=2) > q.reshape(K, S * A)[problems, pairs] + TOL.exact
        if not better.any():
            return gain, pairs - first
        pairs = np.where(better, first + q.argmax(axis=2), pairs)
    raise RuntimeError(f"policy iteration did not converge in {_MAX_ITERATIONS} iterations")


def offline_mechanism(bids: BidProfile, r0: np.ndarray, kernel: np.ndarray) -> Mechanism:
    """Solve the welfare problem and the n counterfactual problems; assemble payments.

    Bids substitute for the bidders' reward tables throughout. The allocation
    is the welfare problem's optimal deterministic policy, each value a gain.
    """
    S, A = bids.bids.shape[1:]
    r0 = np.asarray(r0, dtype=np.float64)
    if r0.shape != (S, A):  # a row or a scalar would broadcast
        raise ValueError(f"r0 must be (S, A) = {(S, A)}; got {r0.shape}")
    reported = r0 + bids.bids.sum(axis=0)
    others = reported - bids.bids  # (n, S, A): the welfare of all but bidder i
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != (S, A, S):
        raise ValueError(f"kernel must be (S, A, S) = {(S, A, S)}; got {kernel.shape}")
    low = kernel.min()
    if not (low >= 0 and np.abs(kernel.sum(axis=2) - 1).max() <= TOL.mass):
        raise ValueError("kernel rows must be probability distributions")  # NaN included
    if low == 0:
        raise ValueError("kernel has a zero entry: policy iteration needs every entry positive")
    gains, policies = _policy_iteration(np.concatenate([reported[None], others]), kernel)
    return Mechanism(
        allocation=np.eye(A)[policies[0]],
        payments=gains[1:, None, None] - others,
        counterfactual_values=gains[1:],
        welfare_value=float(gains[0]),
    )


def average_utilities(mechanism: Mechanism, rewards: np.ndarray, kernel: np.ndarray):
    """Exact average utilities under the mechanism's allocation.

    ``rewards`` holds the true mean tables for all players, seller first.
    Returns (u_0, array of u_i, welfare).
    """
    rho = occupancy_from(kernel, mechanism.allocation).rho
    # payoff(occ, r) for each r, with rho summed once
    welfare = float(np.vdot(rho, rewards.sum(axis=0)))
    u_bidders = np.array([
        float(np.vdot(rho, rewards[i + 1] - mechanism.payments[i]))
        for i in range(mechanism.payments.shape[0])
    ])
    u_seller = float(np.vdot(rho, rewards[0] + mechanism.payments.sum(axis=0)))
    return u_seller, u_bidders, welfare


def seller_utility_identity(mechanism: Mechanism, rewards: np.ndarray,
                            kernel: np.ndarray):
    """Closed form for the seller's utility under truthful bids.

    lhs is u_0 evaluated directly; rhs rewrites it through the n
    counterfactual optima: -(n-1)<rho*, R> + sum_i <rho*_{-i}, R_{-i}>.
    """
    u_seller, _, welfare = average_utilities(mechanism, rewards, kernel)
    return u_seller, _identity_rhs(mechanism, welfare)


def _identity_rhs(mechanism: Mechanism, welfare: float) -> float:
    """The seller-utility identity's rhs at the allocation's true ``welfare``."""
    return -(len(mechanism.payments) - 1) * welfare + mechanism.counterfactual_values.sum()
