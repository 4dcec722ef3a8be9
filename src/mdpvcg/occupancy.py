"""Occupancy-measure algebra.

An occupancy measure q(s,a,s') is the long-run visit frequency of
state-action-next-state triples under a stationary policy. Its marginals are
rho(s,a) = sum_s' q and nu(s) = sum_a rho; conversely rho = nu(s)*pi(a|s) and
q = rho(s,a)*P(s'|s,a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import TOL


@dataclass(frozen=True)
class OccupancyMeasure:
    q: np.ndarray  # (S, A, S), nonnegative, total mass 1

    @property
    def rho(self) -> np.ndarray:
        return self.q.sum(axis=2)

    @property
    def nu(self) -> np.ndarray:
        return self.q.sum(axis=(1, 2))

    @property
    def policy(self) -> np.ndarray:
        """pi(a|s) = rho(s,a) / nu(s); states with vanishing mass fall back to uniform."""
        rho = self.rho
        nu = rho.sum(axis=1)
        policy = np.full(rho.shape, 1.0 / rho.shape[1])
        ok = nu > TOL.denom
        policy[ok] = rho[ok] / nu[ok][:, None]
        return policy

    def violations(self) -> list:
        """Mass, flow-conservation, and nonnegativity checks; empty when valid."""
        out = []
        total = float(self.q.sum())
        if abs(total - 1.0) > TOL.mass:
            out.append(f"total mass {total!r} != 1")
        inflow = self.q.sum(axis=(0, 1))   # mass arriving at each state
        outflow = self.q.sum(axis=(1, 2))  # mass leaving each state
        bad = np.argwhere(np.abs(inflow - outflow) > TOL.mass).ravel()
        for s in bad:
            out.append(f"flow imbalance at state {s}: in={inflow[s]!r} out={outflow[s]!r}")
        if self.q.min() < -TOL.mass:
            s, a, s2 = np.unravel_index(int(self.q.argmin()), self.q.shape)
            out.append(f"negative mass {self.q[s, a, s2]!r} at {(s, a, s2)}")
        return out


def stationary_distribution(p_state: np.ndarray) -> np.ndarray:
    """Solve nu^T P = nu^T, sum(nu) = 1 for a state-to-state kernel.

    One balance equation is replaced by the normalization row; under the
    ergodicity margin the system is nonsingular.
    """
    S = p_state.shape[0]
    A = p_state.T - np.eye(S)
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    try:
        nu = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"degenerate state kernel: {e}") from e
    return nu


def state_kernel(kernel: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """P^pi(s'|s) = sum_a P(s'|s,a) pi(a|s)."""
    return np.einsum("sax,sa->sx", kernel, policy)


def occupancy_from(kernel: np.ndarray, policy: np.ndarray) -> OccupancyMeasure:
    """Occupancy measure of ``policy`` on ``kernel`` via the stationary solve."""
    return occupancy_from_nu(kernel, policy, stationary_distribution(state_kernel(kernel, policy)))


def occupancy_from_nu(kernel: np.ndarray, policy: np.ndarray, nu: np.ndarray) -> OccupancyMeasure:
    """Occupancy measure of ``policy`` on ``kernel`` given its stationary
    distribution ``nu``: q(s,a,s') = nu(s) pi(a|s) P(s'|s,a)."""
    rho = nu[:, None] * policy
    return OccupancyMeasure(rho[:, :, None] * kernel)


def induce(occ: OccupancyMeasure):
    """Recover (kernel, policy) from q; rows with vanishing mass fall back to uniform."""
    q, rho = occ.q, occ.rho
    kernel = np.full_like(q, 1.0 / q.shape[0])
    ok = rho > TOL.denom
    kernel[ok] = q[ok] / rho[ok][:, None]
    return kernel, occ.policy


def payoff(occ: OccupancyMeasure, reward: np.ndarray) -> float:
    """Average payoff <rho, r> for a per-(s,a) reward table."""
    return float(np.vdot(occ.rho, reward))


def mixing_contraction(nu: np.ndarray, nu2: np.ndarray, p_state: np.ndarray,
                       alpha: float, S: int):
    """One-step L1 contraction: returns (measured, (1 - alpha*S) * initial)."""
    diff = nu - nu2
    lhs = float(np.abs(diff @ p_state).sum())
    bound = (1.0 - alpha * S) * float(np.abs(diff).sum())
    return lhs, bound


def kernel_shift_bound(kernel: np.ndarray, kernel2: np.ndarray,
                       policy: np.ndarray, alpha: float):
    """Diagnostic: occupancy L1 shift under a kernel perturbation vs its bound.

    Returns (measured ||rho - rho'||_1, bound); the bound is
    (1/(alpha*S)) * sum_{s,a} rho'(s,a) * ||P(.|s,a) - P'(.|s,a)||_1.
    """
    S = kernel.shape[0]
    rho = occupancy_from(kernel, policy).rho
    rho2 = occupancy_from(kernel2, policy).rho
    lhs = float(np.abs(rho - rho2).sum())
    l1 = np.abs(kernel - kernel2).sum(axis=2)
    bound = float((rho2 * l1).sum()) / (alpha * S)
    return lhs, bound
