import json

import numpy as np
import pytest

from mdpvcg import (GeneratorSpec, MdpModel, SimState, generate_model,
                    load_model, play, save_model, validate_model)
from mdpvcg.mdp import draw_rewards


def always(action, S, A):
    """Policy table that plays ``action`` in every state."""
    policy = np.zeros((S, A))
    policy[:, action] = 1.0
    return policy


def uniform_model(S=3, A=2, n=1, alpha=None):
    alpha = 1.0 / S if alpha is None else alpha
    kernel = np.full((S, A, S), 1.0 / S)
    means = np.full((n + 1, S, A), 0.5)
    return MdpModel(kernel=kernel, reward_means=means, alpha=alpha)


def test_validate_uniform_kernel_is_boundary_case():
    assert validate_model(uniform_model()) == []


def test_validate_flags_zero_entry_location():
    model = uniform_model()
    kernel = model.kernel.copy()
    kernel[1, 0, 2] = 0.0
    kernel[1, 0, 0] += 1.0 / 3
    bad = MdpModel(kernel=kernel, reward_means=model.reward_means, alpha=0.01)
    kinds = {(v.kind, v.where) for v in validate_model(bad)}
    assert ("ergodicity_margin", (1, 0, 2)) in kinds


def test_validate_mixture_construction_over_random_kernels():
    # (1 - lam) * Q + lam * uniform with lam = S * alpha keeps every entry >= alpha
    rng = np.random.default_rng(0)
    S, A, alpha = 4, 3, 0.05
    lam = S * alpha
    for _ in range(100):
        q = rng.dirichlet(np.ones(S), size=(S, A))
        kernel = (1 - lam) * q + lam / S
        assert kernel.min() >= lam / S - 1e-15
        model = MdpModel(kernel=kernel, reward_means=np.full((2, S, A), 0.3),
                         alpha=alpha)
        assert validate_model(model) == []


def test_validate_reports_reward_range():
    model = uniform_model()
    means = model.reward_means.copy()
    means[1, 0, 0] = 1.5
    bad = MdpModel(kernel=model.kernel, reward_means=means, alpha=model.alpha)
    assert any(v.kind == "reward_range" for v in validate_model(bad))


def test_single_item_action_space():
    spec = GeneratorSpec(S=2, n=2, alpha=0.1, auction="single_item")
    assert spec.num_actions() == 3
    assert generate_model(spec, 0).A == 3
    assert spec.action_labels()[0] == "no-sale"


def test_multi_unit_and_combinatorial_action_spaces():
    assert GeneratorSpec(S=2, n=2, alpha=0.1, auction="multi_unit",
                         items=2).num_actions() == 6
    assert GeneratorSpec(S=2, n=2, alpha=0.1, auction="combinatorial",
                         items=2).num_actions() == 9


@pytest.mark.parametrize("kw, labels", [
    ({"auction": "multi_unit", "n": 2, "items": 2},
     ["(0, 0)", "(0, 1)", "(0, 2)", "(1, 0)", "(1, 1)", "(2, 0)"]),
    ({"auction": "combinatorial", "n": 1, "items": 2},  # good j's owner is entry j
     ["(0, 0)", "(1, 0)", "(0, 1)", "(1, 1)"]),
    ({"A": 3, "n": 1}, ["a0", "a1", "a2"]),
], ids=["multi_unit", "combinatorial", "plain"])
def test_action_labels(kw, labels):
    """One label per action, in action order."""
    spec = GeneratorSpec(S=2, alpha=0.1, **kw)
    assert spec.action_labels() == labels
    assert len(labels) == spec.num_actions()


def test_generate_is_deterministic_in_seed():
    spec = GeneratorSpec(S=3, n=2, alpha=0.1, A=4)
    a = generate_model(spec, 42)
    b = generate_model(spec, 42)
    np.testing.assert_array_equal(a.kernel, b.kernel)
    np.testing.assert_array_equal(a.reward_means, b.reward_means)


def test_generate_min_entry_over_many_seeds():
    spec = GeneratorSpec(S=3, n=1, alpha=0.1, A=2)
    worst = min(generate_model(spec, s).kernel.min() for s in range(1000))
    assert worst >= 0.1 - 1e-15


def test_generate_rejects_bad_alpha():
    with pytest.raises(ValueError):
        generate_model(GeneratorSpec(S=4, n=1, alpha=0.3, A=2), 0)


def test_step_point_mass_row():
    kernel = np.zeros((3, 1, 3))
    kernel[:, 0, 0] = 1.0  # validation-bypassed: rows are point masses on 0
    model = MdpModel(kernel=kernel, reward_means=np.full((2, 3, 1), 0.5), alpha=0.01)
    sim = SimState(t=1, s=2, rng=np.random.default_rng(0))
    s, _, s2, _ = play(model, sim, np.ones((3, 1)), np.random.default_rng(1), 50)
    assert s[0] == 2
    np.testing.assert_array_equal(s2, 0)
    assert sim.s == 0


def test_step_empirical_frequencies_match_row():
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=2), 3)
    sim = SimState(t=1, s=1, rng=np.random.default_rng(11))
    s, _, s2, _ = play(model, sim, always(0, 3, 2), np.random.default_rng(12), 300_000)
    counts = np.bincount(s2[s == 1], minlength=3)  # the (1, 0) row's draws
    assert counts.sum() >= 50_000
    freq = counts / counts.sum()
    assert np.abs(freq - model.kernel[1, 0]).sum() <= 0.02


def test_deterministic_family_returns_means_exactly():
    model = generate_model(
        GeneratorSpec(S=2, n=2, alpha=0.2, A=2, reward_family="deterministic"), 5)
    sim = SimState(t=1, s=0, rng=np.random.default_rng(0))
    _, a, _, rewards = play(model, sim, always(1, 2, 2), np.random.default_rng(1), 1)
    assert a[0] == 1
    np.testing.assert_array_equal(rewards[:, 0], model.reward_means[:, 0, 1])


def test_bernoulli_scaled_rewards_stay_in_range():
    model = generate_model(
        GeneratorSpec(S=2, n=2, alpha=0.2, A=2, c_max=2.5,
                      reward_family="bernoulli-scaled"), 5)
    rng = np.random.default_rng(1)
    at = np.zeros(2000, dtype=np.int64)
    draws = draw_rewards(model, at, at, rng.random((2000, 3))).T
    assert set(np.unique(draws[:, 0])) <= {0.0, 2.5}
    assert draws[:, 1:].min() >= 0.0 and draws[:, 1:].max() <= 1.0
    np.testing.assert_allclose(
        draws.mean(axis=0), model.reward_means[:, 0, 0], atol=0.12)


def test_equal_seeds_give_bitwise_equal_trajectories():
    model = generate_model(
        GeneratorSpec(S=3, n=2, alpha=0.1, A=3, reward_family="bernoulli-scaled"), 9)
    policy = np.random.default_rng(0).dirichlet(np.ones(model.A), size=model.S)
    trails = [play(model, SimState.start(model, 123), policy, np.random.default_rng(124), 200)
              for _ in range(2)]
    for got, want in zip(*trails):
        np.testing.assert_array_equal(got, want)


def test_play_rejects_policy_of_wrong_shape():
    model = uniform_model()
    sim = SimState.start(model, 0)
    with pytest.raises(ValueError, match="policy must be"):
        play(model, sim, np.full((model.S, model.A + 1), 1.0 / (model.A + 1)),
             np.random.default_rng(0), 1)


def test_sim_time_advances_by_one():
    model = uniform_model()
    sim = SimState.start(model, 0)
    t0 = sim.t
    policy = np.full((model.S, model.A), 1.0 / model.A)
    play(model, sim, policy, np.random.default_rng(1), 1)
    play(model, sim, policy, np.random.default_rng(2), 1)
    assert sim.t == t0 + 2
    play(model, sim, policy, np.random.default_rng(3), 5)
    assert sim.t == t0 + 7


def test_model_file_roundtrip(tmp_path):
    model = generate_model(
        GeneratorSpec(S=3, n=2, alpha=0.1, A=3, c_max=1.7,
                      reward_family="bernoulli-scaled"), 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    save_model(again, tmp_path / "model2.json")
    assert json.loads(path.read_text()) == json.loads((tmp_path / "model2.json").read_text())
    np.testing.assert_array_equal(model.kernel, again.kernel)
    np.testing.assert_array_equal(model.reward_means, again.reward_means)
    assert again.reward_family == model.reward_family
    assert again.c_max == model.c_max


def test_model_file_accepts_one_family_name(tmp_path):
    """A model file may name one reward family for every player, as a
    config's generator may."""
    path = tmp_path / "model.json"
    save_model(generate_model(GeneratorSpec(S=2, n=2, alpha=0.2, A=2,
                                            reward_family="bernoulli-scaled"), 0), path)
    doc = json.loads(path.read_text())
    doc["reward_family"] = "deterministic"
    path.write_text(json.dumps(doc))
    assert load_model(path).reward_family == ("deterministic",) * 3
