"""Offline VCG mechanism for average-reward auctions with a known kernel.

The allocation maximizes bid-reported welfare over the kernel's occupancy
polytope; each bidder pays, per round, the welfare the others could have
earned without her minus what they actually earn at the realized (s, a).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .occupancy import occupancy_from
from .polytope import PolytopeSpec, maximize_each
from .tolerances import TOL


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


# Per thread, the polytope of the last kernel offline_mechanism solved over,
# keeping its own float64 copy of the kernel. Truthfulness checks solve many bid
# profiles on one kernel; reusing its LP costs less than building another.
_kept = threading.local()


def _kernel_polytope(kernel: np.ndarray) -> PolytopeSpec:
    spec = getattr(_kept, "spec", None)
    if spec is None or not np.array_equal(spec.kernel, kernel):
        spec = _kept.spec = PolytopeSpec(kernel=np.array(kernel, dtype=np.float64))
    return spec


def offline_mechanism(bids: BidProfile, r0: np.ndarray, kernel: np.ndarray) -> Mechanism:
    """Solve the welfare LP and the n counterfactual LPs; assemble payments.

    Bids substitute for the bidders' reward tables throughout. The constraint
    system is bid-independent, so all n+1 LPs are solved together, in one
    HiGHS run over n+1 copies of one polytope; the next mechanism on an equal
    kernel reuses that polytope's LP. Every run is cold, so the results are
    those of a new polytope, bit for bit.
    """
    reported = r0 + bids.bids.sum(axis=0)
    others = reported - bids.bids  # (n, S, A): the welfare of all but bidder i
    best, *counterfactual = maximize_each(np.concatenate([reported[None], others]),
                                          _kernel_polytope(kernel))
    if best.status != "optimal":
        raise RuntimeError(f"welfare and counterfactual LPs: {best.status}")
    values = np.array([sol.objective_value for sol in counterfactual])
    return Mechanism(
        allocation=best.q.policy,
        payments=values[:, None, None] - others,
        counterfactual_values=values,
        welfare_value=best.objective_value,
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
