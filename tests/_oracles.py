"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's LP / linear-solve paths:
power iteration for stationary distributions, explicit enumeration for
optimal policies, plain sampling loops for Monte Carlo averages, one
row at a time for polytope constraint rows, and an if-chain for bidder reports.
"""

import numpy as np


def power_iteration_nu(p_state, iterations=500):
    """Stationary distribution by repeated application of the state kernel."""
    S = p_state.shape[0]
    nu = np.full(S, 1.0 / S)
    for _ in range(iterations):
        nu = nu @ p_state
    return nu


def enumerate_policies(S, A):
    for code in range(A ** S):
        pi = np.zeros((S, A))
        c = code
        for s in range(S):
            pi[s, c % A] = 1.0
            c //= A
        yield pi


def policy_average_payoff(kernel, policy, reward, iterations=4000):
    """Average payoff of a policy via power iteration (no linear solve)."""
    p_state = np.einsum("sax,sa->sx", kernel, policy)
    nu = power_iteration_nu(p_state, iterations)
    rho = nu[:, None] * policy
    return float((rho * reward).sum())


def brute_force_best(kernel, reward, iterations=4000):
    """Best average payoff over all deterministic stationary policies."""
    S, A, _ = kernel.shape
    return max(
        policy_average_payoff(kernel, pi, reward, iterations)
        for pi in enumerate_policies(S, A)
    )


def simulate_average_reward(kernel, policy_actions, reward, T, seed):
    """Monte Carlo long-run average of r(s, a) under a deterministic policy.

    ``policy_actions`` maps each state to its action. Independent of the
    library's simulation path: local cdf sampling only.
    """
    rng = np.random.default_rng(seed)
    S = kernel.shape[0]
    cdfs = [np.cumsum(kernel[s, policy_actions[s]]) for s in range(S)]
    s = 0
    total = 0.0
    u = rng.random(T)
    for t in range(T):
        total += reward[s, policy_actions[s]]
        s = int(cdfs[s].searchsorted(u[t], side="right"))
        if s >= S:
            s = S - 1
    return total / T


def reference_report(strategy, t, s, a, r):
    """A bidder's report by the strategy's definition, clipped to [0, 1]."""
    kind = strategy.kind
    if kind == "truthful":
        value = r
    elif kind == "by_bids":
        value = strategy.table[s, a]
    elif kind == "scaled":
        value = strategy.factor * r
    elif kind == "shifted":
        value = r + strategy.offset
    elif any(lo <= t < hi for lo, hi in strategy.windows):  # adversarial_window
        value = strategy.inflate_to if strategy.inflate_to is not None else strategy.factor * r
    else:
        value = r
    return float(min(1.0, max(0.0, value)))


def second_price_outcome(values):
    """Static second-price auction: (winner index, price)."""
    order = np.argsort(values)
    return int(order[-1]), float(values[order[-2]]) if len(values) > 1 else 0.0


def loop_constraints(variant, S, A, kernel=None, delta=None, band_lower=None,
                     band_upper=None):
    """Polytope rows (A_eq, b_eq, A_ub, b_ub) built one row at a time.

    Row order: mass, flow per state, kernel rows per (s, a, s'); shrink rows
    per (s, a), then an upper and a lower band row per (s, a, s').
    """
    nv = S * A * S

    def idx(s, a, x):
        return (s * A + a) * S + x

    eq_rows, eq_rhs = [np.ones(nv)], [1.0]
    for s in range(S):
        row = np.zeros((S, A, S))
        row[:, :, s] += 1.0
        row[s, :, :] -= 1.0
        eq_rows.append(row.ravel())
        eq_rhs.append(0.0)
    if variant in ("EXACT_KERNEL", "SHRUNK_EXACT"):
        for s in range(S):
            for a in range(A):
                for x in range(S):
                    row = np.zeros(nv)
                    row[idx(s, a, x)] += 1.0
                    row[idx(s, a, 0):idx(s, a, 0) + S] -= kernel[s, a, x]
                    eq_rows.append(row)
                    eq_rhs.append(0.0)

    ub_rows, ub_rhs = [], []
    if variant.startswith("SHRUNK"):
        for s in range(S):
            for a in range(A):
                row = np.zeros(nv)
                row[idx(s, a, 0):idx(s, a, 0) + S] = -1.0
                ub_rows.append(row)
                ub_rhs.append(-delta)
    if variant == "SHRUNK_CONFIDENCE":
        for s in range(S):
            for a in range(A):
                for x in range(S):
                    up = np.zeros(nv)
                    up[idx(s, a, 0):idx(s, a, 0) + S] = -band_upper[s, a, x]
                    up[idx(s, a, x)] += 1.0
                    ub_rows.append(up)
                    ub_rhs.append(0.0)
                    lo = np.zeros(nv)
                    lo[idx(s, a, 0):idx(s, a, 0) + S] = band_lower[s, a, x]
                    lo[idx(s, a, x)] -= 1.0
                    ub_rows.append(lo)
                    ub_rhs.append(0.0)

    return (np.array(eq_rows), np.array(eq_rhs),
            np.array(ub_rows) if ub_rows else np.zeros((0, nv)), np.array(ub_rhs))
