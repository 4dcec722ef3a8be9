"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's LP / linear-solve paths:
power iteration for stationary distributions, explicit enumeration for
optimal policies, plain sampling loops for Monte Carlo averages, one
row at a time for polytope constraint rows, ``scipy.optimize.linprog`` for
LP optima, and an if-chain for bidder reports.
"""

import csv
import io
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from mdpvcg.harness import _end_episode
from mdpvcg.online import OnlineVcgLearner
from mdpvcg.polytope import _LP_OPTIONS


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
    kind = strategy["kind"]
    if kind == "truthful":
        value = r
    elif kind == "by_bids":
        value = strategy["table"][s, a]
    elif kind == "scaled":
        value = strategy["factor"] * r
    elif kind == "shifted":
        value = r + strategy["offset"]
    elif any(lo <= t < hi for lo, hi in strategy["windows"]):  # adversarial_window
        value = (strategy["inflate_to"] if strategy["inflate_to"] is not None
                 else strategy["factor"] * r)
    else:
        value = r
    return float(min(1.0, max(0.0, value)))


def second_price_outcome(values):
    """Static second-price auction: (winner index, price)."""
    order = np.argsort(values)
    return int(order[-1]), float(values[order[-2]]) if len(values) > 1 else 0.0


def linprog_maximize(c, A_eq, b_eq, A_ub, b_ub, bounds=(0, None), presolve=True):
    """``linprog`` result for max c @ x over the rows: one cold HiGHS
    dual-simplex solve with the library's tolerances, presolved or not."""
    return linprog(-c, A_ub=A_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                   A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs-ds",
                   options={**_LP_OPTIONS, "presolve": presolve})


def kernel_lp(kernel, r, delta=None):
    """``linprog`` result for max <rho, r> over the occupancy polytope of a
    known kernel, in rho(s, a) alone: a mass row, one flow row per state,
    sum_a rho(s', a) = sum_{s,a} P(s'|s,a) rho(s,a), and every rho at least
    delta (or 0). One of the S flow rows is implied by the others; linprog's
    presolve drops it. ``x`` is rho, flat."""
    S, A = r.shape
    flow = np.repeat(np.eye(S), A, axis=0) - kernel.reshape(S * A, S)
    A_eq = np.vstack([np.ones(S * A), flow.T])
    return linprog(-r.ravel(), A_eq=A_eq, b_eq=np.eye(1 + S)[0],
                   bounds=(delta or 0.0, None), method="highs-ds", options=_LP_OPTIONS)


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


def _loop_reporter(strategy):
    """Per-round report closure ``(t, s, a, r) -> report`` (the pre-batching code)."""
    kind = strategy["kind"]
    if kind == "truthful":
        return lambda t, s, a, r: r if 0.0 <= r <= 1.0 else min(1.0, max(0.0, r))
    if kind == "by_bids":
        table = strategy["table"]
        return lambda t, s, a, r: table[s, a]
    if kind == "scaled":
        f = strategy["factor"]
        return lambda t, s, a, r: min(1.0, max(0.0, f * r))
    if kind == "shifted":
        off = strategy["offset"]
        return lambda t, s, a, r: min(1.0, max(0.0, r + off))
    windows, inflate_to, factor = strategy["windows"], strategy["inflate_to"], strategy["factor"]

    def adversarial(t, s, a, r):
        if any(lo <= t < hi for lo, hi in windows):
            r = inflate_to if inflate_to is not None else factor * r
        return min(1.0, max(0.0, r))

    return adversarial


def loop_simulate_run(model, seller, strategies, horizon, seed, checkpoints,
                      record_rounds=False):
    """``harness.simulate_run`` one round at a time, as it was before batching.

    Each round draws the seller's action uniform, then one uniform per
    stochastic reward and one for the next state; the learner is acted for
    and observed through its public state. ``rounds`` is a list of
    (t, k, phase, s, a, rewards, bids, charges, u0, ui, R) tuples.
    """
    n = model.n
    env_seed, seller_seed = np.random.SeedSequence(seed).spawn(2)
    rng_env = np.random.default_rng(env_seed)
    s = int(rng_env.integers(model.S))
    rng_seller = np.random.default_rng(seller_seed)
    kernel_cdf = np.cumsum(model.kernel, axis=2)
    caps = [model.c_max] + [1.0] * n
    deterministic = [f == "deterministic" for f in model.reward_family]
    reporters = [_loop_reporter(st) for st in strategies]

    learning = isinstance(seller, OnlineVcgLearner)
    policy = seller.policy if learning else seller.allocation
    cdf = np.cumsum(policy, axis=1)
    episode_counts = seller.counts.copy() if learning else None

    ncp = len(checkpoints)
    cum_welfare, cum_seller = np.zeros(ncp), np.zeros(ncp)
    cum_per_bidder = np.zeros((n, ncp))
    cw = cs = 0.0
    cpb = [0.0] * n
    cp_idx = 0
    next_cp = int(checkpoints[0]) if ncp else horizon + 1
    episodes, rounds = [], ([] if record_rounds else None)

    for t in range(1, horizon + 1):
        a = int(cdf[s].searchsorted(rng_seller.random(), side="right"))
        if a >= model.A:
            a = model.A - 1
        if learning:
            k = seller.k
            phase = "mixing" if seller.pos < seller.d_k else "stationary"
            charges = (np.zeros(n) if phase == "mixing"
                       else seller.payments[:, s, a].copy())
            seller.pos += 1
        else:
            k, phase, charges = 0, "stationary", seller.payments[:, s, a].copy()

        rewards = []
        for i in range(n + 1):
            mean = model.reward_means[i, s, a]
            if deterministic[i]:
                rewards.append(mean)
            else:
                rewards.append(caps[i] if rng_env.random() * caps[i] < mean else 0.0)
        s2 = int(kernel_cdf[s, a].searchsorted(rng_env.random(), side="right"))
        if s2 >= model.S:
            s2 = model.S - 1
        bids = [reporters[i](t, s, a, rewards[i + 1]) for i in range(n)]

        if learning:
            seller.counts3[s, a, s2] += 1
            seller.reward_sums[0, s, a] += rewards[0]
            for i, b in enumerate(bids):
                if b < 0.0 or b > 1.0:
                    b = 0.0 if b < 0.0 else 1.0
                seller.reward_sums[i + 1, s, a] += b

        r0 = rewards[0]
        bidder_total = pay_total = 0.0
        for i in range(n):
            bidder_total += rewards[i + 1]
            pay_total += charges[i]
            cpb[i] += rewards[i + 1] - charges[i]
        cw += r0 + bidder_total
        cs += r0 + pay_total
        if record_rounds:
            rr = np.array(rewards)
            rounds.append((t, k, phase, s, a, rr, np.array(bids), charges,
                           r0 + pay_total, rr[1:] - charges, r0 + bidder_total))
        if t == next_cp:
            cum_welfare[cp_idx] = cw
            cum_seller[cp_idx] = cs
            cum_per_bidder[:, cp_idx] = cpb
            cp_idx += 1
            next_cp = int(checkpoints[cp_idx]) if cp_idx < ncp else horizon + 1
        s = s2

        if learning and seller.episode_complete:
            episodes.append(_end_episode(seller, model, episode_counts))
            episode_counts = seller.counts.copy()
            cdf = np.cumsum(seller.policy, axis=1)

    return SimpleNamespace(seed=seed, cum_welfare=cum_welfare, cum_seller=cum_seller,
                           cum_per_bidder=cum_per_bidder, episodes=episodes, rounds=rounds)


def loop_rounds_csv(rounds, header) -> bytes:
    """The per-round CSV's bytes, written row by row with ``csv.writer``."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(header)
    for t, k, phase, s, a, rewards, bids, charges, u0, ui, R in rounds:
        w.writerow([t, k, phase, s, a]
                   + [repr(float(x)) for x in rewards]
                   + [repr(float(x)) for x in bids]
                   + [repr(float(x)) for x in charges]
                   + [repr(float(u0))]
                   + [repr(float(x)) for x in ui]
                   + [repr(float(R))])
    return fh.getvalue().encode()
