"""Central numeric tolerances shared by every module."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    row_sum: float = 1e-12   # stochastic-matrix row sums
    mass: float = 1e-9       # occupancy mass and flow-balance slack
    denom: float = 1e-12     # zero-denominator guard for induced kernel/policy
    identity: float = 1e-8   # analytic identity checks
    exact: float = 1e-12     # linearity and reconstruction identities


TOL = Tolerances()
