"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Heavy artifacts (the 50-model offline batch, the 100 coverage runs, the
20-seed trend experiment) are module-scoped fixtures shared by the criteria
that need them. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from _oracles import enumerate_policies, kernel_lp
from mdpvcg import (BidProfile, ExperimentConfig, GeneratorSpec,
                    average_utilities, calibrate_delta, generate_model, induce,
                    mixing_contraction, occupancy_from,
                    offline_mechanism, run_clairvoyant, run_online,
                    seller_utility_identity, state_kernel, payoff)
from mdpvcg.online import episode_lengths

ZETA = 0.05

# free parameters for the pinned-size experiments (see decisions ledger):
# delta <= alpha/A keeps the shrunk confidence polytope feasible whenever the
# band still contains an ergodic kernel
COVERAGE = dict(S=3, A=3, n=2, alpha=0.25, delta=0.08, episodes=30, runs=100)
TREND = dict(S=3, A=3, n=2, alpha=0.2, delta=0.01, horizon=200_000, seeds=20)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _random_offline_model(rng):
    S = int(rng.integers(2, 5))
    A = int(rng.integers(2, 5))
    n = int(rng.integers(1, 4))
    alpha = float(rng.uniform(0.05, 0.9 / S))
    return generate_model(GeneratorSpec(S=S, A=A, n=n, alpha=alpha), int(rng.integers(2**31)))


def _brute_force_best(kernel, reward):
    S, A, _ = kernel.shape
    return max(
        payoff(occupancy_from(kernel, pi), reward)
        for pi in enumerate_policies(S, A)
    )


@pytest.fixture(scope="module")
def offline_suite():
    """50 random models with their truthful mechanisms and exact utilities."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(50):
        model = _random_offline_model(rng)
        mech = offline_mechanism(BidProfile.truthful(model),
                                 model.reward_means[0], model.kernel)
        u0, ui, welfare = average_utilities(mech, model.reward_means, model.kernel)
        out.append({"model": model, "mech": mech, "u0": u0, "ui": ui,
                    "welfare": welfare})
    return out


@pytest.fixture(scope="module")
def coverage_runs():
    """100 seeded truthful runs at the pinned size, 30 episodes each."""
    results = []
    for i in range(COVERAGE["runs"]):
        cfg = ExperimentConfig(
            generator=GeneratorSpec(S=COVERAGE["S"], A=COVERAGE["A"],
                                    n=COVERAGE["n"], alpha=COVERAGE["alpha"],
                                    reward_family="bernoulli-scaled"),
            model_seed=i, delta=COVERAGE["delta"], zeta=ZETA,
            episodes=COVERAGE["episodes"], seeds=(i,))
        results.append(run_online(cfg))
    return results


@pytest.fixture(scope="module")
def trend_run():
    cfg = ExperimentConfig(
        generator=GeneratorSpec(S=TREND["S"], A=TREND["A"], n=TREND["n"],
                                alpha=TREND["alpha"],
                                reward_family="bernoulli-scaled"),
        model_seed=1, delta=TREND["delta"], zeta=ZETA,
        horizon=TREND["horizon"], seeds=tuple(range(TREND["seeds"])))
    start = time.time()
    result = run_online(cfg, extra_checkpoints=(TREND["horizon"] // 10,))
    return result, time.time() - start


def test_criterion_01_offline_efficiency(offline_suite):
    start = time.time()
    worst = 0.0
    for case in offline_suite:
        model = case["model"]
        oracle = _brute_force_best(model.kernel, model.reward_means.sum(axis=0))
        worst = max(worst, abs(case["mech"].welfare_value - oracle))
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 120
    _report(1, "offline-efficiency", ok,
            f"max |LP - brute force| = {worst:.2e} over 50 models, {elapsed:.1f}s")


def test_criterion_02_offline_truthfulness(offline_suite):
    start = time.time()
    rng = np.random.default_rng(7)
    cases = violations = 0
    worst_gain = -np.inf
    for case in offline_suite:
        model = case["model"]
        truthful = BidProfile.truthful(model)
        for i in range(model.n):
            for _ in range(20):
                tables = truthful.bids.copy()
                tables[i] = rng.random((model.S, model.A))
                mech = offline_mechanism(BidProfile(tables),
                                         model.reward_means[0], model.kernel)
                _, ui, _ = average_utilities(mech, model.reward_means, model.kernel)
                gain = ui[i] - case["ui"][i]
                worst_gain = max(worst_gain, gain)
                cases += 1
                violations += gain > 1e-6
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 300
    _report(2, "offline-truthfulness", ok,
            f"{violations}/{cases} profitable deviations, "
            f"max gain {worst_gain:.2e}, {elapsed:.1f}s")


def test_criterion_03_offline_individual_rationality(offline_suite):
    worst = min(min(case["ui"]) for case in offline_suite)
    ok = worst >= -1e-8
    _report(3, "offline-individual-rationality", ok,
            f"min truthful utility {worst:.2e} over all bidders and models")


def test_criterion_04_seller_utility_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        model = _random_offline_model(rng)
        mech = offline_mechanism(BidProfile.truthful(model),
                                 model.reward_means[0], model.kernel)
        lhs, rhs = seller_utility_identity(mech, model.reward_means, model.kernel)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-8
    _report(4, "seller-utility-identity", ok,
            f"max |lhs - rhs| = {worst:.2e} over 100 instances")


def test_criterion_05_occupancy_round_trip():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        S = int(rng.integers(2, 5))
        A = int(rng.integers(2, 5))
        alpha = float(rng.uniform(0.05, 0.9 / S))
        kernel = generate_model(
            GeneratorSpec(S=S, A=A, n=1, alpha=alpha), int(rng.integers(2**31))
        ).kernel
        pi = rng.dirichlet(np.ones(A), size=S)
        occ = occupancy_from(kernel, pi)
        _, pi2 = induce(occ)
        occ2 = occupancy_from(kernel, pi2)
        worst = max(worst, float(np.abs(occ2.q - occ.q).max()))
    ok = worst <= 1e-9
    _report(5, "occupancy-round-trip", ok,
            f"max entrywise drift {worst:.2e} over 200 pairs")


def test_criterion_06_contraction():
    rng = np.random.default_rng(17)
    S, A, alpha = 3, 3, 0.1
    violations = 0
    for _ in range(1000):
        kernel = generate_model(
            GeneratorSpec(S=S, A=A, n=1, alpha=alpha), int(rng.integers(2**31))
        ).kernel
        pi = rng.dirichlet(np.ones(A), size=S)
        nu = rng.dirichlet(np.ones(S))
        nu2 = rng.dirichlet(np.ones(S))
        lhs, bound = mixing_contraction(nu, nu2, state_kernel(kernel, pi), alpha, S)
        violations += lhs > bound + 1e-12
    ok = violations == 0
    _report(6, "one-step-contraction", ok, f"{violations}/1000 violations")


def test_criterion_07_mixing_phase_stationarity():
    start = time.time()
    rng = np.random.default_rng(19)
    S, A, alpha, delta = 3, 3, 0.1, 0.05
    worst_margin = np.inf
    violations = 0
    for _ in range(20):
        kernel = generate_model(
            GeneratorSpec(S=S, A=A, n=1, alpha=alpha), int(rng.integers(2**31))
        ).kernel
        pi = rng.dirichlet(np.ones(A), size=S)
        p_state = state_kernel(kernel, pi)
        nu_star = occupancy_from(kernel, pi).nu
        for k in (4, 9, 16, 25):
            d, l = episode_lengths(k, alpha, S, A, delta, ZETA)
            bound = 2.0 / math.sqrt(k)
            nu = np.eye(S)  # row s0: the point mass at s0, the L1-worst starts
            for _ in range(d):
                nu = nu @ p_state
            stationary = []  # (S, S) per stationary round
            for _ in range(l):
                stationary.append(nu)
                nu = nu @ p_state
            dist = np.abs(np.array(stationary) - nu_star).sum(axis=2)
            violations += int(np.count_nonzero(dist > bound))
            worst_margin = min(worst_margin, bound - float(dist.max()))
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 60
    _report(7, "mixing-phase-stationarity", ok,
            f"{violations} violations, min slack {worst_margin:.3f}, {elapsed:.1f}s")


def test_criterion_08_confidence_coverage(coverage_runs):
    episodes = [e for run in coverage_runs for r in run.seed_results
                for e in r.episodes]
    pairs = len(episodes)
    bad = sum((not e.band_contains_truth) or (not e.rewards_in_bounds)
              for e in episodes)
    ok = pairs == COVERAGE["runs"] * COVERAGE["episodes"] and bad <= 5 * ZETA * pairs
    _report(8, "confidence-coverage", ok,
            f"{bad}/{pairs} (run, episode) coverage failures; budget "
            f"{5 * ZETA:.0%}")


def test_criterion_09_exploration(coverage_runs):
    episodes = [e for run in coverage_runs for r in run.seed_results
                for e in r.episodes]
    pairs = len(episodes)
    unexplored = sum(e.unvisited > 0 for e in episodes)
    ok = unexplored <= 5 * ZETA * pairs
    _report(9, "exploration", ok,
            f"{unexplored}/{pairs} episodes with an unvisited pair; budget "
            f"{5 * ZETA:.0%}")


def test_criterion_10_regret_trend(trend_run):
    result, elapsed = trend_run
    rep = result.report
    T = TREND["horizon"]
    cps = rep.checkpoints
    i_T = int(np.where(cps == T)[0][0])
    i_10 = int(np.where(cps == T // 10)[0][0])
    rate_early = rep.mean_reg_sw[i_10] / (T // 10)
    rate_late = rep.mean_reg_sw[i_T] / T
    additivity = float(np.abs(rep.reg_sw - rep.reg_sell - rep.reg_bid).max())
    slope = (math.log(rep.mean_reg_sw[i_T]) - math.log(rep.mean_reg_sw[i_10])) / math.log(10)
    ok = rate_early / rate_late >= 2.0 and additivity <= 1e-9 and elapsed < 900
    _report(10, "regret-trend", ok,
            f"RegSW/T {rate_early:.4f} -> {rate_late:.4f} "
            f"(ratio {rate_early / rate_late:.2f}), additivity {additivity:.1e}, "
            f"last-decade log-log slope {slope:.2f} (informational, expect < 1), "
            f"{elapsed:.0f}s")


def test_criterion_11_variant_ordering(coverage_runs):
    episodes = [e for run in coverage_runs for r in run.seed_results
                for e in r.episodes]
    bad = sum(not e.payment_order_ok for e in episodes)
    ok = bad == 0
    _report(11, "payment-variant-ordering", ok,
            f"{bad}/{len(episodes)} episodes where seller-favorable < "
            f"bidder-favorable")


def test_criterion_12_shrunk_policy_floor(coverage_runs, trend_run):
    floor_cov = min(e.policy_min for run in coverage_runs
                    for r in run.seed_results for e in r.episodes)
    floor_trend = min(e.policy_min for r in trend_run[0].seed_results
                      for e in r.episodes)
    ok = (floor_cov >= COVERAGE["delta"] - 1e-9
          and floor_trend >= TREND["delta"] - 1e-9)
    _report(12, "shrunk-policy-floor", ok,
            f"min policy entry {floor_cov:.6f} vs delta {COVERAGE['delta']} "
            f"(coverage); {floor_trend:.6f} vs {TREND['delta']} (trend)")


def test_criterion_13_delta_calibration():
    rng = np.random.default_rng(23)
    checked = failures = 0
    for _ in range(50):
        model = _random_offline_model(rng)
        objective = model.reward_means.sum(axis=0)
        exact = kernel_lp(model.kernel, objective)
        for epsilon in (0.05, 0.1):
            delta = calibrate_delta(model.kernel, objective, epsilon)
            shrunk = kernel_lp(model.kernel, objective, delta)
            checked += 1
            failures += not (shrunk.status == 0 and -shrunk.fun >= -exact.fun - epsilon)
    ok = failures == 0
    _report(13, "delta-calibration", ok,
            f"{failures}/{checked} calibrations violating the epsilon gap")


def test_criterion_14_clairvoyant_baseline():
    T = 100_000
    cfg = ExperimentConfig(
        generator=GeneratorSpec(S=3, A=3, n=2, alpha=0.2,
                                reward_family="bernoulli-scaled"),
        model_seed=3, horizon=T, seeds=(0, 1, 2, 3))
    result = run_clairvoyant(cfg)
    rep = result.report
    slack = 3 * (2 + 1) / math.sqrt(T)  # 3 (n + c_max) / sqrt(T)
    rates = [abs(rep.mean_reg_sw[-1]) / T, abs(rep.mean_reg_sell[-1]) / T,
             abs(rep.mean_reg_bid[-1]) / T]
    ok = max(rates) <= slack
    _report(14, "clairvoyant-baseline", ok,
            f"|time-averaged regrets| = {[f'{r:.4f}' for r in rates]} "
            f"vs slack {slack:.4f}")
