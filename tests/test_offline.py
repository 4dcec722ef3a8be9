import numpy as np
import pytest

import mdpvcg.offline as offline_mod
import mdpvcg.polytope as polytope_mod
from _oracles import brute_force_best
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
    mech = offline_mechanism(bids, model.reward_means[0], model.kernel)
    _, ui, _ = average_utilities(mech, model.reward_means, model.kernel)
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


def test_constraints_built_once_per_mechanism(small_model, count_calls):
    builds = count_calls(polytope_mod, "build_constraints")
    solves = count_calls(offline_mod, "maximize")
    bids = BidProfile.truthful(small_model)
    for calls in (1, 2):
        offline_mechanism(bids, small_model.reward_means[0], small_model.kernel)
        assert len(builds) == calls
        assert len(solves) == calls * (small_model.n + 1)
