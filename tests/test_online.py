import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdpvcg.online as online_mod
import mdpvcg.polytope as polytope_mod
from mdpvcg import (ConfigurationError, GeneratorSpec, LearnerConfig,
                    OnlineVcgLearner, RunState, SimState, advance,
                    episode_lengths, episode_schedule, generate_model,
                    play, simulate_run)
from mdpvcg.bidders import checked_spec
from mdpvcg.harness import _round_header, checkpoint_grid
from mdpvcg.mdp import reward_caps

from _oracles import loop_rounds_csv, loop_simulate_run


TRUTHFUL = checked_spec({"kind": "truthful"})


def config(**kw):
    base = dict(S=3, A=3, n=2, alpha=0.1, delta=0.05, zeta=0.05)
    base.update(kw)
    return LearnerConfig(**base)


def drive(learner, model, rounds, seed=0):
    """Play the learner against truthful bidders for a fixed number of rounds."""
    simulate_run(model, learner, [TRUTHFUL] * model.n, rounds, seed,
                 checkpoint_grid(rounds))
    return learner


def rounds_at(s, a, s2, seller_reward, bids, times=1):
    """observe() arguments for ``times`` rounds at one (s, a, s')."""
    return ([s] * times, [a] * times, [s2] * times, [seller_reward] * times,
            [[b] * times for b in bids])


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
    np.testing.assert_allclose(learner.policy, 1.0 / 3)
    np.testing.assert_allclose(learner.payments, 1.0)
    assert learner.k == 1 and learner.tau_k == 1
    assert learner.d_k == 1


def test_mixing_rounds_charge_zero_then_stationary_charges_one():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.1, A=3), 0)
    run = simulate_run(model, OnlineVcgLearner(config()), [TRUTHFUL] * 2, 3, 0,
                       checkpoint_grid(3), io.BytesIO())
    data = run.rounds.getvalue()
    want = loop_simulate_run(model, OnlineVcgLearner(config()), [TRUTHFUL] * 2, 3, 0,
                             checkpoint_grid(3), record_rounds=True)
    assert data == loop_rounds_csv(want.rounds, _round_header(2))
    # d_1 = 1, so rounds 2 and 3 of the episode are stationary
    header, *rows = (line.split(",") for line in data.decode().splitlines())
    rows = [dict(zip(header, row)) for row in rows]
    assert [row["phase"] for row in rows] == ["mixing", "stationary", "stationary"]
    assert [(row["p_1"], row["p_2"]) for row in rows] == [("0.0", "0.0"), ("1.0", "1.0"),
                                                          ("1.0", "1.0")]


def test_observe_updates_counters_and_sums():
    learner = OnlineVcgLearner(config())
    learner.observe([1, 1, 0], [2, 2, 0], [0, 1, 2], seller_rewards=[0.4, 0.25, 0.5],
                    bids=[[0.2, 0.1, 0.3], [0.9, 0.7, 0.6]])
    assert learner.pos == 3
    assert learner.counts[1, 2] == 2 and learner.counts[0, 0] == 1
    assert learner.counts3[1, 2, 0] == 1 and learner.counts3[1, 2, 1] == 1
    assert learner.reward_sums[0, 1, 2] == 0.4 + 0.25
    assert learner.reward_sums[1, 1, 2] == 0.2 + 0.1
    assert learner.reward_sums[2, 1, 2] == 0.9 + 0.7
    assert learner.reward_sums[2, 0, 0] == 0.6


def test_observe_clips_out_of_range_bids(caplog):
    learner = OnlineVcgLearner(config())
    learner.pos = 4  # the call's rounds are rounds 5, 6 and 7
    with caplog.at_level("WARNING"):
        learner.observe([0, 0, 1], [0, 0, 2], [0, 1, 0], [0.0, 0.0, 0.0],
                        [[0.5, 1.7, 0.5], [0.5, -0.4, -0.2]])
    assert learner.reward_sums[1, 0, 0] == 0.5 + 1.0
    assert learner.reward_sums[2, 0, 0] == 0.5 + 0.0
    assert learner.reward_sums[2, 1, 2] == 0.0
    warnings = [r.getMessage() for r in caplog.records if "clipped" in r.getMessage()]
    assert warnings == ["3 bids outside [0, 1] clipped, the first in round 6"]


def _tuple_index_observe(learner, s, a, s2, seller_rewards, bids):
    """What ``observe`` adds, by tuple-index scatter-adds on the 2-D and 3-D
    tables (the reference for its flat-index form)."""
    np.add.at(learner.counts3, (s, a, s2), 1)
    np.add.at(learner.reward_sums[0], (s, a), seller_rewards)
    np.add.at(learner.reward_sums[1:], (slice(None), s, a), np.clip(bids, 0.0, 1.0))
    learner.pos += len(s)


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 5), A=st.integers(1, 5), n=st.integers(1, 4),
       rounds=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_observe_equals_tuple_index_scatter_adds(S, A, n, rounds, seed):
    """From nonzero counts and sums, ``observe`` leaves every table bit for
    bit as tuple-index ``np.add.at`` does, out-of-range bids clipped."""
    rng = np.random.default_rng(seed)
    got = OnlineVcgLearner(config(S=S, A=A, n=n, alpha=0.5 / S, delta=0.5 / (S * A)))
    got.counts3 = rng.integers(0, 1000, (S, A, S))
    got.reward_sums = rng.random((n + 1, S, A)) * rng.uniform(1, 1e4)
    want = OnlineVcgLearner.from_checkpoint(got.to_checkpoint())
    s, a, s2 = (rng.integers(m, size=rounds) for m in (S, A, S))
    seller_rewards, bids = rng.random(rounds), rng.uniform(-0.2, 1.2, (n, rounds))
    got.observe(s, a, s2, seller_rewards, bids)
    _tuple_index_observe(want, s, a, s2, seller_rewards, bids)
    for key in ("counts", "counts3", "reward_sums"):
        assert getattr(got, key).dtype == getattr(want, key).dtype
        assert np.array_equal(getattr(got, key), getattr(want, key))
    assert got.pos == want.pos == rounds


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
    # fixed uniform policy, observe only
    s, a, s2, rewards = play(model, SimState.start(model, 3), np.full((2, 2), 0.5),
                             np.random.default_rng(4), 10_000)
    learner.observe(s, a, s2, rewards[0], rewards[1:])
    learner.pos = learner.d_k + learner.l_k  # force an update with current counts
    learner.end_episode()
    assert learner.counts.min() >= 500
    p_bar = learner.counts3 / np.maximum(1, learner.counts)[:, :, None]
    for s in range(2):
        for a in range(2):
            gap = np.abs(p_bar[s, a] - model.kernel[s, a]).sum()
            assert gap <= 0.05


def test_unvisited_pair_keeps_prior_band_and_maximal_reward_bounds():
    cfg = config()
    learner = OnlineVcgLearner(cfg)
    # visit only (0, 0); everything else stays untouched
    learner.observe(*rounds_at(0, 0, 1, 0.3, [0.5, 0.5], times=40))
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
    learner.observe([0] * 5, [0] * 5, [1, 1, 0, 2, 0], [0.1] * 5, [[0.1] * 5] * 2)
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
    caps = reward_caps(cfg.n, cfg.c_max)[:, None, None]
    assert np.all(learner.reward_lcb >= 0.0)
    assert np.all(learner.reward_ucb <= caps + 1e-12)
    assert np.all(learner.reward_lcb <= learner.reward_ucb + 1e-12)


def test_band_width_nonincreasing_across_episodes():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3,
                                         reward_family="bernoulli-scaled"), 3)
    cfg = config(alpha=0.25, delta=0.08)
    horizon = int(episode_schedule(cfg, 6)[-1]) - 1
    state = RunState.start(model, OnlineVcgLearner(cfg), [TRUTHFUL] * 2, horizon, 5,
                           checkpoint_grid(horizon))
    learner = state.seller
    widths = [(learner.band_upper - learner.band_lower).copy()]
    for k in range(1, 7):
        while len(state.episodes) < k:  # one run, played until episode k closes
            advance(state)
        widths.append((learner.band_upper - learner.band_lower).copy())
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


def test_premature_update_guard():
    learner = OnlineVcgLearner(config())
    with pytest.raises(RuntimeError):
        learner.end_episode()
    rounds = learner.d_k + learner.l_k
    learner.observe(*rounds_at(0, 0, 1, 0.2, [0.3, 0.3], times=rounds - 1))
    with pytest.raises(RuntimeError):
        learner.end_episode()
    learner.observe(*rounds_at(1, 1, 0, 0.2, [0.3, 0.3]))
    learner.end_episode()
    assert learner.k == 2 and learner.pos == 0


def test_infeasible_delta_surfaces_configuration_error():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.1, A=3), 5)
    learner = OnlineVcgLearner(config(delta=1.0 / 9))
    # degenerate band pinned to the true kernel: delta = 1/(S*A) then demands
    # the uniform occupancy, which a generic kernel cannot produce
    learner.band_lower = model.kernel.copy()
    learner.band_upper = model.kernel.copy()
    learner.observe(*rounds_at(0, 0, 1, 0.2, [0.3, 0.3]))
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


def test_checkpoint_roundtrip_resumes_identically():
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3,
                                         reward_family="bernoulli-scaled"), 6)
    cfg = config(alpha=0.25, delta=0.08)
    state = RunState.start(model, OnlineVcgLearner(cfg), [TRUTHFUL] * 2, 5500, 2,
                           checkpoint_grid(5500))
    while not state.episodes:  # pause where episode 1 ends
        advance(state)
    learner = state.seller
    clone = OnlineVcgLearner.from_checkpoint(json.loads(json.dumps(learner.to_checkpoint())))
    np.testing.assert_array_equal(clone.counts, learner.counts)
    np.testing.assert_array_equal(clone.counts3, learner.counts3)
    np.testing.assert_allclose(clone.policy, learner.policy, atol=0)
    np.testing.assert_allclose(clone.payments_seller, learner.payments_seller, atol=0)
    assert clone.k == learner.k and clone.tau_k == learner.tau_k

    # the run, and a copy of it playing the restored learner, play on to
    # identical sums and states
    restored = copy.deepcopy(state)
    restored.seller = clone
    for run in (state, restored):
        while run.sim.t <= run.horizon:
            advance(run)
    np.testing.assert_array_equal(state.cum, restored.cum)
    assert state.episodes == restored.episodes and len(state.episodes) >= 2
    assert learner.to_checkpoint() == clone.to_checkpoint()
    # visit counts are counts3's sums, not stored; an older file's "counts" is ignored
    older = {**learner.to_checkpoint(), "counts": learner.counts.tolist()}
    assert "counts" not in learner.to_checkpoint()
    assert OnlineVcgLearner.from_checkpoint(older).to_checkpoint() == learner.to_checkpoint()


def test_a_checkpoint_that_holds_q_hat_still_loads():
    """A checkpoint written while the learner kept ``q_hat`` (the allocation
    LP's occupancy measure, as its q table) still loads: the key is ignored,
    and the learner is the one that a file without it gives."""
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.1, A=3), 2)
    learner = drive(OnlineVcgLearner(config()), model, 4200)
    assert learner.k == 2
    doc = learner.to_checkpoint()
    assert "q_hat" not in doc
    older = {**doc, "q_hat": np.full((3, 3, 3), 1.0 / 27).tolist()}
    restored = OnlineVcgLearner.from_checkpoint(json.loads(json.dumps(older)))
    assert not hasattr(restored, "q_hat")
    assert restored.to_checkpoint() == doc


def test_a_learner_that_has_played_is_refused():
    """A run starts with a fresh learner; one that has played is continued by
    advancing its RunState, not by a new start."""
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3), 1)
    learner = OnlineVcgLearner(config(alpha=0.25, delta=0.08))
    learner.observe(*rounds_at(0, 0, 1, 0.2, [0.3, 0.3]))
    with pytest.raises(ValueError, match="advance a RunState"):
        simulate_run(model, learner, [TRUTHFUL] * 2, 10, 0, checkpoint_grid(10))
    learner = OnlineVcgLearner(config(alpha=0.25, delta=0.08))
    drive(learner, model, learner.d_k + learner.l_k)  # to the end of episode 1
    assert (learner.k, learner.pos) == (2, 0)
    with pytest.raises(ValueError, match=r"episode 2, 0 rounds in"):
        RunState.start(model, learner, [TRUTHFUL] * 2, 10, 0, checkpoint_grid(10))


def test_constraints_built_once_per_episode(count_calls):
    model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.25, A=3,
                                         reward_family="bernoulli-scaled"), 4)
    builds = count_calls(polytope_mod, "build_constraints")
    lps = count_calls(polytope_mod, "highs_lp")
    solves = count_calls(online_mod, "maximize_each")
    runs = count_calls(polytope_mod, "_run")
    learner = drive(OnlineVcgLearner(config(alpha=0.25, delta=0.08)), model, 3000)
    episodes = learner.k - 1
    assert episodes >= 2
    assert len(builds) == len(lps) == episodes
    # one call per episode: the allocation and 2n counterfactual objectives,
    # each solved in its own HiGHS run of the warm chain
    assert [len(objectives) for objectives, _ in solves] == [2 * model.n + 1] * episodes
    assert len(runs) == episodes * (2 * model.n + 1)
