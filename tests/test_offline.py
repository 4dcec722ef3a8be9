import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_force_best, kernel_lp
from mdpvcg import (BidProfile, GeneratorSpec, average_utilities,
                    generate_model, offline_mechanism, seller_utility_identity)


def single_item_static(values):
    """S=1 instance with zero seller reward: action 0 sells to nobody,
    action i sells to bidder i; bidder i values only her own allocation."""
    n = len(values)
    A = n + 1
    kernel = np.ones((1, A, 1))
    rewards = np.zeros((n + 1, 1, A))
    for i, v in enumerate(values, start=1):
        rewards[i, 0, i] = v
    return kernel, rewards


def test_second_price_structure():
    kernel, rewards = single_item_static([0.8, 0.5])
    bids = BidProfile(rewards[1:])
    mech = offline_mechanism(bids, rewards[0], kernel)
    # winner is bidder 1, every round, at the second-highest value
    assert mech.allocation[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert mech.payments[0, 0, 1] == pytest.approx(0.5, abs=1e-9)
    assert mech.payments[1, 0, 1] == pytest.approx(0.0, abs=1e-9)
    u0, ui, welfare = average_utilities(mech, rewards, kernel)
    assert welfare == pytest.approx(0.8, abs=1e-9)
    assert ui[0] == pytest.approx(0.3, abs=1e-9)
    assert ui[1] == pytest.approx(0.0, abs=1e-9)
    assert u0 == pytest.approx(0.5, abs=1e-9)


def test_single_bidder_pays_nothing_when_seller_reward_is_zero():
    kernel, rewards = single_item_static([0.6])
    mech = offline_mechanism(BidProfile(rewards[1:]), rewards[0], kernel)
    np.testing.assert_allclose(mech.payments, 0.0, atol=1e-9)
    assert mech.counterfactual_values[0] == pytest.approx(0.0, abs=1e-9)


def test_welfare_matches_policy_enumeration():
    for seed in range(5):
        model = generate_model(GeneratorSpec(S=2, n=2, alpha=0.15, A=2), seed)
        mech = offline_mechanism(BidProfile.truthful(model),
                                 model.reward_means[0], model.kernel)
        oracle = brute_force_best(model.kernel, model.reward_means.sum(axis=0))
        assert mech.welfare_value == pytest.approx(oracle, abs=1e-6)


def test_payment_reconstruction_invariant():
    model = generate_model(GeneratorSpec(S=3, n=3, alpha=0.1, A=3), 11)
    bids = BidProfile.truthful(model)
    mech = offline_mechanism(bids, model.reward_means[0], model.kernel)
    assert mech.violations() == []
    reported = model.reward_means[0] + bids.bids.sum(axis=0)
    for i in range(3):
        others = reported - bids.bids[i]
        np.testing.assert_allclose(
            mech.payments[i], mech.counterfactual_values[i] - others, atol=1e-9)


def test_zero_payments_give_raw_payoffs_and_welfare_telescopes():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.1, A=3), 2)
    mech = offline_mechanism(BidProfile.truthful(model),
                             model.reward_means[0], model.kernel)
    u0, ui, welfare = average_utilities(mech, model.reward_means, model.kernel)
    assert welfare == pytest.approx(u0 + ui.sum(), abs=1e-9)
    zeroed = type(mech)(allocation=mech.allocation,
                        payments=np.zeros_like(mech.payments),
                        counterfactual_values=mech.counterfactual_values,
                        welfare_value=mech.welfare_value)
    u0z, uiz, wz = average_utilities(zeroed, model.reward_means, model.kernel)
    assert wz == pytest.approx(welfare, abs=1e-12)
    assert u0z + uiz.sum() == pytest.approx(welfare, abs=1e-9)


def test_seller_identity_single_bidder():
    model = generate_model(GeneratorSpec(S=2, n=1, alpha=0.2, A=2), 3)
    mech = offline_mechanism(BidProfile.truthful(model),
                             model.reward_means[0], model.kernel)
    lhs, rhs = seller_utility_identity(mech, model.reward_means, model.kernel)
    assert abs(lhs - rhs) <= 1e-8


def test_seller_identity_second_price_both_sides():
    kernel, rewards = single_item_static([0.8, 0.5])
    mech = offline_mechanism(BidProfile(rewards[1:]), rewards[0], kernel)
    lhs, rhs = seller_utility_identity(mech, rewards, kernel)
    assert lhs == pytest.approx(0.5, abs=1e-9)
    assert rhs == pytest.approx(0.5, abs=1e-9)


def test_seller_identity_random_instances():
    for seed in range(20):
        model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.08, A=3), seed)
        mech = offline_mechanism(BidProfile.truthful(model),
                                 model.reward_means[0], model.kernel)
        lhs, rhs = seller_utility_identity(mech, model.reward_means, model.kernel)
        assert abs(lhs - rhs) <= 1e-8


def bidder_utility(model, bids, i):
    return bidder_utility_at(model.reward_means, model.kernel, bids, i)


def bidder_utility_at(rewards, kernel, bids, i):
    mech = offline_mechanism(bids, rewards[0], kernel)
    _, ui, _ = average_utilities(mech, rewards, kernel)
    return ui[i]


def test_truthful_bidding_dominates_deviations():
    rng = np.random.default_rng(0)
    model = generate_model(GeneratorSpec(S=2, n=2, alpha=0.15, A=3), 4)
    truthful = BidProfile.truthful(model)
    for i in range(model.n):
        base = bidder_utility(model, truthful, i)
        for _ in range(20):
            tables = truthful.bids.copy()
            tables[i] = rng.random((model.S, model.A))
            assert base >= bidder_utility(model, BidProfile(tables), i) - 1e-6


def test_truthfulness_holds_when_others_lie():
    rng = np.random.default_rng(1)
    model = generate_model(GeneratorSpec(S=2, n=2, alpha=0.15, A=2), 5)
    liar = BidProfile.truthful(model).bids.copy()
    liar[1] = rng.random((model.S, model.A))  # bidder 2 misreports throughout
    base = bidder_utility(model, BidProfile(liar), 0)
    for _ in range(20):
        tables = liar.copy()
        tables[0] = rng.random((model.S, model.A))
        assert base >= bidder_utility(model, BidProfile(tables), 0) - 1e-6


def test_individual_rationality():
    rng = np.random.default_rng(2)
    for seed in range(5):
        model = generate_model(GeneratorSpec(S=2, n=2, alpha=0.1, A=2), seed)
        tables = BidProfile.truthful(model).bids.copy()
        tables[1] = rng.random((model.S, model.A))  # the other bidder is arbitrary
        mech = offline_mechanism(BidProfile(tables), model.reward_means[0],
                                 model.kernel)
        _, ui, _ = average_utilities(mech, model.reward_means, model.kernel)
        assert ui[0] >= -1e-8


def test_payment_is_independent_of_own_bid():
    rng = np.random.default_rng(3)
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.1, A=3), 6)
    truthful = BidProfile.truthful(model)
    mech = offline_mechanism(truthful, model.reward_means[0], model.kernel)
    for _ in range(5):
        tables = truthful.bids.copy()
        tables[0] = rng.random((model.S, model.A))
        again = offline_mechanism(BidProfile(tables), model.reward_means[0],
                                  model.kernel)
        np.testing.assert_allclose(again.payments[0], mech.payments[0], atol=1e-9)


def test_bid_profile_range_enforced():
    with pytest.raises(ValueError):
        BidProfile(np.full((1, 2, 2), 1.4))
    for bad in (np.nan, -np.inf):  # NaN would reach the LPs as an objective
        bids = np.full((1, 2, 2), 0.5)
        bids[0, 1, 0] = bad
        with pytest.raises(ValueError, match=r"bids must lie in \[0, 1\]"):
            BidProfile(bids)


def test_values_match_lps_solved_alone():
    """On generated models, with truthful and random bids, the welfare and
    counterfactual values of policy iteration are those of the n+1 kernel
    LPs over rho, each solved alone by the oracle, to 1e-12."""
    rng = np.random.default_rng(12)
    for seed in range(30):
        S, A, n = (int(v) for v in rng.integers(1, 5, size=3))
        model = generate_model(GeneratorSpec(S=S, A=A, n=n, alpha=0.5 / S), seed)
        tables = model.reward_means[1:] if seed % 2 else rng.random((n, S, A))
        mech = offline_mechanism(BidProfile(tables), model.reward_means[0], model.kernel)
        reported = model.reward_means[0] + tables.sum(axis=0)
        alone = [-kernel_lp(model.kernel, r).fun for r in (reported, *(reported - tables))]
        assert abs(mech.welfare_value - alone[0]) <= 1e-12
        np.testing.assert_allclose(mech.counterfactual_values, alone[1:], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 12), A=st.integers(1, 32), n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_policy_iteration_matches_the_kernel_lp(S, A, n, seed):
    """On generated models with random bids (tie-free almost surely), the
    welfare and counterfactual values equal the kernel LP's over rho, each
    solved alone by the oracle, to 1e-12, and the allocation is the LP's policy."""
    rng = np.random.default_rng(seed)
    model = generate_model(GeneratorSpec(S=S, A=A, n=n, alpha=float(rng.uniform(0.05, 1)) / S),
                           seed)
    tables = rng.random((n, S, A))
    mech = offline_mechanism(BidProfile(tables), model.reward_means[0], model.kernel)
    reported = model.reward_means[0] + tables.sum(axis=0)
    best = kernel_lp(model.kernel, reported)
    rho = best.x.reshape(S, A)
    assert abs(mech.welfare_value - -best.fun) <= 1e-12
    assert np.array_equal(mech.allocation, rho / rho.sum(axis=1, keepdims=True))
    for i in range(n):
        lp = kernel_lp(model.kernel, reported - tables[i])
        assert abs(mech.counterfactual_values[i] - -lp.fun) <= 1e-12


def test_kernel_with_a_zero_entry_is_refused(small_model):
    """Policy iteration needs every policy ergodic: a zero kernel entry is
    refused, saying so, with no LP fallback; a non-stochastic one as before."""
    kernel = small_model.kernel.copy()
    kernel[1, 2] = (0.0, 0.4, 0.6)
    bids = BidProfile.truthful(small_model)
    with pytest.raises(ValueError, match="zero entry"):
        offline_mechanism(bids, small_model.reward_means[0], kernel)
    kernel[1, 2] = (np.nan, 0.4, 0.6)
    with pytest.raises(ValueError, match="probability distributions"):
        offline_mechanism(bids, small_model.reward_means[0], kernel)


def test_misshaped_seller_rewards_are_refused():
    """r0 must be the bids' (S, A) table: a row or a scalar is refused, naming
    the shapes, instead of being broadcast."""
    model = generate_model(GeneratorSpec(S=3, A=2, n=1, alpha=0.2), 0)
    bids = BidProfile.truthful(model)
    for r0 in (5.0, model.reward_means[0][0], model.reward_means[0].T, model.reward_means[:1]):
        with pytest.raises(ValueError, match=r"r0 must be \(S, A\) = \(3, 2\); got "
                                             + re.escape(str(np.shape(r0)))):
            offline_mechanism(bids, r0, model.kernel)


def _mechanism_bits(mech):
    return [np.asarray(a).tobytes() for a in (mech.allocation, mech.payments,
                                              mech.counterfactual_values,
                                              mech.welfare_value)]


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 3), A=st.integers(1, 3), n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(("same", "copy", "live"))),
                      min_size=2, max_size=8))
def test_interleaved_mechanisms_equal_fresh_ones(S, A, n, seed, steps):
    """A run of mechanisms over interleaved kernels (two tie-heavy, one
    random), each passed as one shared array, as an equal copy, or written
    into one live array in place before the call, equals the same mechanisms
    each computed first, in reverse order, on its own copy of the kernel, bit
    for bit."""
    rng = np.random.default_rng(seed)
    kernels = [alpha / S + (1 - alpha) * np.eye(S)[rng.integers(S, size=(S, A))]
               for alpha in (0.05, 0.2)] + [rng.dirichlet(np.ones(S), size=(S, A))]
    live = kernels[0].copy()
    calls = []
    for k, how in steps:
        rewards = rng.choice(LEVELS, size=(n + 1, S, A))
        calls.append((BidProfile(rewards[1:]), rewards[0], k, how))
    fresh = [offline_mechanism(bids, r0, kernels[k].copy()) for bids, r0, k, _ in calls[::-1]]
    for (bids, r0, k, how), want in zip(calls, fresh[::-1]):
        if how == "live":
            live[...] = kernels[k]
        kernel = {"same": kernels[k], "copy": kernels[k].copy(), "live": live}[how]
        got = offline_mechanism(bids, r0, kernel)
        assert _mechanism_bits(got) == _mechanism_bits(want)


def test_threads_keep_their_own_polytope(small_model):
    """Two threads solving mechanisms on one kernel at once, with frequent
    thread switches, get what each gets alone: no state is shared between
    mechanisms."""
    rng = np.random.default_rng(0)
    profiles = [[BidProfile(rng.random((small_model.n, small_model.S, small_model.A)))
                 for _ in range(30)] for _ in range(2)]

    def run(bids_list):
        return [_mechanism_bits(offline_mechanism(bids, small_model.reward_means[0],
                                                  small_model.kernel))
                for bids in bids_list]

    want = [run(bids_list) for bids_list in profiles]
    got = [None, None]

    def work(i):
        got[i] = run(profiles[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


LEVELS = (0.0, 0.25, 0.5, 1.0)


@settings(max_examples=100, deadline=None)
@given(S=st.integers(1, 3), A=st.integers(1, 3), n=st.integers(1, 3),
       alpha=st.sampled_from((0.05, 0.1, 0.2)), seed=st.integers(0, 2**32 - 1))
def test_guarantees_hold_at_any_optimal_vertex(S, A, n, alpha, seed):
    """Tie-heavy models: rewards and deviations on a few levels and one-hot
    kernels mixed with alpha/S uniform, so many allocations tie for the
    optimum. Efficiency, the seller identity, IR and truthfulness hold at
    whichever optimal vertex the solver picks."""
    rng = np.random.default_rng(seed)
    kernel = alpha / S + (1 - alpha) * np.eye(S)[rng.integers(S, size=(S, A))]
    rewards = rng.choice(LEVELS, size=(n + 1, S, A))
    truthful = BidProfile(rewards[1:])
    mech = offline_mechanism(truthful, rewards[0], kernel)
    assert abs(mech.welfare_value
               - brute_force_best(kernel, rewards.sum(axis=0), iterations=1000)) <= 1e-9
    lhs, rhs = seller_utility_identity(mech, rewards, kernel)
    assert abs(lhs - rhs) <= 1e-8
    _, ui, _ = average_utilities(mech, rewards, kernel)
    assert ui.min() >= -1e-9
    for i in range(n):
        for _ in range(3):
            tables = truthful.bids.copy()
            tables[i] = rng.choice(LEVELS, size=(S, A))
            assert ui[i] >= bidder_utility_at(rewards, kernel, BidProfile(tables), i) - 1e-7
