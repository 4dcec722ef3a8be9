import math

import numpy as np
import pytest

import mdpvcg.online as online_mod
import mdpvcg.polytope as polytope_mod
from mdpvcg import (ConfigurationError, GeneratorSpec, LearnerConfig,
                    OnlineVcgLearner, episode_lengths, episode_schedule,
                    generate_model, save_checkpoint, load_checkpoint)
from mdpvcg.mdp import SimState, step


def config(**kw):
    base = dict(S=3, A=3, n=2, alpha=0.1, delta=0.05, zeta=0.05)
    base.update(kw)
    return LearnerConfig(**base)


def drive(learner, model, rounds, seed=0, bids_fn=None):
    """Run the act/observe loop for a fixed number of rounds."""
    sim = SimState.start(model, seed)
    rng = np.random.default_rng(seed + 1)
    for t in range(rounds):
        s = sim.s
        dec = learner.act(s, rng)
        s2, rewards = step(model, sim, dec.action)
        bids = rewards[1:] if bids_fn is None else bids_fn(t, s, dec.action, rewards)
        learner.observe(s, dec.action, s2, rewards[0], bids)
        if learner.episode_complete:
            learner.end_episode()
    return learner


def test_episode_lengths_formulas():
    assert episode_lengths(1, 0.1, 3, 3, 0.05, 0.05)[0] == 1  # ln 1 = 0, floored
    assert episode_lengths(8, 0.1, 3, 3, 0.05, 0.05)[0] == math.ceil(math.log(8) / 0.3) == 7
    _, l1 = episode_lengths(1, 0.1, 3, 3, 0.05, 0.05)
    assert l1 == math.ceil(4 * math.log(3 * 3 / 0.05) / (0.1 * 0.05)) == 4155


def test_episode_schedule_accumulates_lengths():
    cfg = config()
    taus = episode_schedule(cfg, 3)
    assert taus[0] == 1
    for k in range(1, 4):
        d, l = episode_lengths(k, cfg.alpha, cfg.S, cfg.A, cfg.delta, cfg.zeta)
        assert taus[k] - taus[k - 1] == d + l


def test_config_validation():
    with pytest.raises(ValueError):
        config(delta=0.2)  # above 1/(S*A)
    with pytest.raises(ValueError):
        config(zeta=0.0)
    with pytest.raises(ValueError):
        config(alpha=0.5)  # alpha * S > 1
    with pytest.raises(ValueError):
        config(variant="nope")


def test_initial_state_is_uniform_with_unit_payments():
    learner = OnlineVcgLearner(config())
    np.testing.assert_allclose(learner.q_hat.q, 1.0 / 27)
    np.testing.assert_allclose(learner.policy, 1.0 / 3)
    np.testing.assert_allclose(learner.payments, 1.0)
    assert learner.k == 1 and learner.tau_k == 1
    assert learner.d_k == 1


def test_mixing_rounds_charge_zero_then_stationary_charges_one():
    learner = OnlineVcgLearner(config())
    rng = np.random.default_rng(0)
    dec = learner.act(0, rng)
    assert dec.phase == "mixing"
    np.testing.assert_array_equal(dec.charges, 0.0)
    dec2 = learner.act(1, rng)  # d_1 = 1, so round 2 of the episode is stationary
    assert dec2.phase == "stationary"
    np.testing.assert_array_equal(dec2.charges, 1.0)


def test_observe_updates_counters_and_sums():
    learner = OnlineVcgLearner(config())
    learner.observe(1, 2, 0, seller_reward=0.4, bids=[0.2, 0.9])
    assert learner.counts[1, 2] == 1
    assert learner.counts3[1, 2, 0] == 1
    assert learner.reward_sums[0, 1, 2] == pytest.approx(0.4)
    assert learner.reward_sums[1, 1, 2] == pytest.approx(0.2)
    assert learner.reward_sums[2, 1, 2] == pytest.approx(0.9)


def test_observe_clips_out_of_range_bids(caplog):
    learner = OnlineVcgLearner(config())
    with caplog.at_level("WARNING"):
        learner.observe(0, 0, 0, 0.0, [1.7, -0.4])
    assert learner.reward_sums[1, 0, 0] == 1.0
    assert learner.reward_sums[2, 0, 0] == 0.0
    assert "clipped" in caplog.text


def test_counting_identity_holds_after_any_sequence():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3,
                                         reward_family="bernoulli-scaled"), 0)
    learner = OnlineVcgLearner(config(alpha=0.25, delta=0.08))
    before = learner.counts.copy()
    drive(learner, model, 3000)
    np.testing.assert_array_equal(learner.counts3.sum(axis=2), learner.counts)
    assert np.all(learner.counts >= before)  # counts never decrease
    assert learner.counts.sum() == 3000


def test_empirical_kernel_concentrates():
    model = generate_model(GeneratorSpec(S=2, n=2, alpha=0.2, A=2), 1)
    learner = OnlineVcgLearner(config(S=2, A=2, alpha=0.2, delta=0.1))
    sim = SimState.start(model, 3)
    rng = np.random.default_rng(3)
    for _ in range(10_000):  # fixed uniform policy, observe only
        s = sim.s
        a = int(rng.integers(2))
        s2, rewards = step(model, sim, a)
        learner.observe(s, a, s2, rewards[0], rewards[1:])
    learner.pos = learner.d_k + learner.l_k  # force an update with current counts
    learner.end_episode()
    assert learner.counts.min() >= 500
    for s in range(2):
        for a in range(2):
            gap = np.abs(learner.p_bar[s, a] - model.kernel[s, a]).sum()
            assert gap <= 0.05


def test_unvisited_pair_keeps_prior_band_and_maximal_reward_bounds():
    cfg = config()
    learner = OnlineVcgLearner(cfg)
    # visit only (0, 0); everything else stays untouched
    for _ in range(40):
        learner.observe(0, 0, 1, 0.3, [0.5, 0.5])
    learner.pos = learner.d_k + learner.l_k
    learner.end_episode()
    assert learner.band_lower[2, 2, 0] == 0.0
    assert learner.band_upper[2, 2, 0] == 1.0
    # unvisited reward bounds clip to the full range
    assert learner.reward_ucb[1, 2, 2] == 1.0
    assert learner.reward_lcb[1, 2, 2] == 0.0
    beta = math.sqrt(2 * math.log(3 * 3 * 1 * 2 / cfg.zeta))
    assert beta >= 1.0  # why the clipping is guaranteed to trigger


def test_bernstein_radius_formula():
    cfg = config()
    learner = OnlineVcgLearner(cfg)
    # craft counts: N(0,0) = 5 with N(0,0,1) = 2, others spread
    for s2 in [1, 1, 0, 2, 0]:
        learner.observe(0, 0, s2, 0.1, [0.1, 0.1])
    learner.pos = learner.d_k + learner.l_k
    learner.end_episode()
    L = math.log(3 * 3 * 1 / cfg.zeta)
    p = 0.4  # 2 of 5 went to state 1
    eps = 2 * math.sqrt(p * L / 4) + 14 * L / 12
    expected_upper = min(1.0, p + eps)
    expected_lower = max(0.0, p - eps)
    assert learner.band_upper[0, 0, 1] == pytest.approx(expected_upper, abs=1e-12)
    assert learner.band_lower[0, 0, 1] == pytest.approx(expected_lower, abs=1e-12)


def test_reward_bounds_are_ordered_and_clipped():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3, c_max=2.0,
                                         reward_family="bernoulli-scaled"), 2)
    cfg = config(alpha=0.25, delta=0.08, c_max=2.0)
    learner = drive(OnlineVcgLearner(cfg), model, 4000)
    caps = cfg.reward_caps()[:, None, None]
    assert np.all(learner.reward_lcb >= 0.0)
    assert np.all(learner.reward_ucb <= caps + 1e-12)
    assert np.all(learner.reward_lcb <= learner.reward_ucb + 1e-12)


def test_band_width_nonincreasing_across_episodes():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3,
                                         reward_family="bernoulli-scaled"), 3)
    learner = OnlineVcgLearner(config(alpha=0.25, delta=0.08))
    sim = SimState.start(model, 5)
    rng = np.random.default_rng(6)
    widths = [(learner.band_upper - learner.band_lower).copy()]
    for _ in range(9000):
        s = sim.s
        dec = learner.act(s, rng)
        s2, rewards = step(model, sim, dec.action)
        learner.observe(s, dec.action, s2, rewards[0], rewards[1:])
        if learner.episode_complete:
            learner.end_episode()
            widths.append((learner.band_upper - learner.band_lower).copy())
    assert len(widths) >= 3
    for w_prev, w_next in zip(widths, widths[1:]):
        assert np.all(w_next <= w_prev + 1e-12)


def test_policy_floor_and_variant_ordering_after_updates():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3,
                                         reward_family="bernoulli-scaled"), 4)
    cfg = config(alpha=0.25, delta=0.08)
    learner = drive(OnlineVcgLearner(cfg), model, 8000)
    assert learner.k >= 3
    assert learner.policy.min() >= cfg.delta - 1e-9
    assert np.all(learner.payments_seller >= learner.payments_bidder - 1e-9)


def test_variant_switch_changes_charged_table():
    cfg_s = config(variant="seller_favorable")
    cfg_b = config(variant="bidder_favorable")
    ls, lb = OnlineVcgLearner(cfg_s), OnlineVcgLearner(cfg_b)
    assert ls.payments is ls.payments_seller
    assert lb.payments is lb.payments_bidder


def test_act_guard_and_premature_update_guard():
    learner = OnlineVcgLearner(config())
    with pytest.raises(RuntimeError):
        learner.end_episode()
    learner.pos = learner.d_k + learner.l_k
    with pytest.raises(RuntimeError):
        learner.act(0, np.random.default_rng(0))


def test_infeasible_delta_surfaces_configuration_error():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.1, A=3), 5)
    learner = OnlineVcgLearner(config(delta=1.0 / 9))
    # degenerate band pinned to the true kernel: delta = 1/(S*A) then demands
    # the uniform occupancy, which a generic kernel cannot produce
    learner.band_lower = model.kernel.copy()
    learner.band_upper = model.kernel.copy()
    learner.observe(0, 0, 1, 0.2, [0.3, 0.3])
    learner.pos = learner.d_k + learner.l_k
    original = learner.band_lower.copy()

    def keep_band(prior, p_bar, radii):
        return original, original

    saved = online_mod.tighten_band
    online_mod.tighten_band = keep_band
    try:
        with pytest.raises(ConfigurationError) as err:
            learner.end_episode()
        assert "episode 1" in str(err.value)
    finally:
        online_mod.tighten_band = saved


def test_checkpoint_roundtrip_resumes_identically(tmp_path):
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3,
                                         reward_family="bernoulli-scaled"), 6)
    cfg = config(alpha=0.25, delta=0.08)
    learner = drive(OnlineVcgLearner(cfg), model, 3000, seed=2)
    path = tmp_path / "ckpt.json"
    save_checkpoint(learner, path)
    clone = load_checkpoint(path)
    np.testing.assert_array_equal(clone.counts, learner.counts)
    np.testing.assert_array_equal(clone.counts3, learner.counts3)
    np.testing.assert_allclose(clone.policy, learner.policy, atol=0)
    np.testing.assert_allclose(clone.payments_seller, learner.payments_seller, atol=0)
    assert clone.k == learner.k and clone.tau_k == learner.tau_k

    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    dec_a = learner.act(1, rng_a)
    dec_b = clone.act(1, rng_b)
    assert dec_a.action == dec_b.action
    np.testing.assert_array_equal(dec_a.charges, dec_b.charges)


def test_constraints_built_once_per_episode(count_calls):
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3,
                                         reward_family="bernoulli-scaled"), 4)
    builds = count_calls(polytope_mod, "build_constraints")
    solves = count_calls(online_mod, "maximize")
    learner = drive(OnlineVcgLearner(config(alpha=0.25, delta=0.08)), model, 3000)
    episodes = learner.k - 1
    assert episodes >= 2
    assert len(builds) == episodes
    assert len(solves) == episodes * (2 * model.n + 1)
