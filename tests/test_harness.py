import copy
import io
import json
import math
import struct
import tracemalloc
from dataclasses import MISSING, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdpvcg.cli as cli_mod
import mdpvcg.harness as harness_mod
import mdpvcg.offline as offline_mod
from mdpvcg import (ConfigurationError, ExperimentConfig, GeneratorSpec,
                    LearnerConfig, MdpModel, OnlineRunResult, OnlineVcgLearner,
                    RegretReport, RunState, advance, compute_benchmark,
                    config_hash, episode_schedule, export, generate_model,
                    run_clairvoyant, run_offline, run_online, save_model,
                    seller_utility_identity, truthfulness_gain)
from mdpvcg.bidders import _BIDDER_KEYS, KINDS, checked_spec, windows_from_episodes
from mdpvcg.harness import (_CONFIG_KEYS, _GENERATOR_KEYS,
                            _round_header, _rounds_csv_rows, _summary_doc,
                            checkpoint_grid, learner_config, resolve_model,
                            resolve_strategies, simulate_run)
from mdpvcg.cli import main

from _oracles import loop_rounds_csv, loop_simulate_run


GEN = GeneratorSpec(S=3, n=2, alpha=0.25, A=3, reward_family="bernoulli-scaled")
TRUTHFUL = checked_spec({"kind": "truthful"})


def quick_config(**kw):
    base = dict(generator=GEN, model_seed=1, delta=0.08, zeta=0.05,
                horizon=2500, seeds=(0, 1))
    base.update(kw)
    return ExperimentConfig(**base)


def test_checkpoint_grid_contents():
    grid = checkpoint_grid(100, boundaries=[37], extra=[90, 400])
    assert grid[0] == 1 and grid[-1] == 100
    assert 64 in grid and 37 in grid and 90 in grid
    assert 400 not in grid  # beyond the horizon
    assert np.all(np.diff(grid) > 0)


def _loop_rounds(config, seed):
    """The round loop's rows for ``config``'s run of ``seed``, as ``run_online`` plays it."""
    model = resolve_model(config)
    return loop_simulate_run(model, OnlineVcgLearner(learner_config(config, model)),
                             resolve_strategies(config, model), config.horizon, seed,
                             checkpoint_grid(config.horizon), record_rounds=True).rounds


def _loop_csv(config, seed):
    """``csv.writer``'s bytes for the round loop's rows of ``config``'s run of ``seed``."""
    return loop_rounds_csv(_loop_rounds(config, seed), _round_header(resolve_model(config).n))


def _columns(data: bytes) -> dict:
    """A rounds file's columns by name: phases as text, the rest as floats
    (exact, as each was written by ``repr`` or ``str``)."""
    header, *rows = (line.split(",") for line in data.decode().splitlines())
    return {name: np.array(column, dtype=str if name == "phase" else float)
            for name, column in zip(header, zip(*rows))}


def _stack(columns, prefix, first, last):
    return np.column_stack([columns[f"{prefix}_{i}"] for i in range(first, last + 1)])


def test_round_records_reconstruct_identities(tmp_path):
    cfg = quick_config(horizon=400, seeds=(3,), out=str(tmp_path))
    run_online(cfg, record_rounds=True)
    data = (tmp_path / "rounds_seed3.csv").read_bytes()
    assert data == _loop_csv(cfg, 3)
    rounds = _columns(data)
    np.testing.assert_array_equal(rounds["t"], np.arange(1, 401))
    rewards, charges = _stack(rounds, "r", 0, 2), _stack(rounds, "p", 1, 2)
    np.testing.assert_array_equal(rounds["u_0"], rewards[:, 0] + charges.sum(axis=1))
    np.testing.assert_array_equal(_stack(rounds, "u", 1, 2), rewards[:, 1:] - charges)
    np.testing.assert_allclose(rounds["R"], rewards.sum(axis=1), rtol=0, atol=1e-12)
    mixing = rounds["phase"] == "mixing"
    assert mixing[0] and not mixing.all()
    np.testing.assert_array_equal(charges[mixing], 0.0)


def test_regret_additivity_at_every_checkpoint():
    res = run_online(quick_config())
    rep = res.report
    gap = np.abs(rep.reg_sw - rep.reg_sell - rep.reg_bid)
    assert gap.max() <= 1e-9


def test_same_seed_reproduces_and_different_seeds_diverge(tmp_path):
    cfg = quick_config(horizon=600, seeds=(0,))
    for out in ("a", "b"):
        run_online(replace(cfg, out=str(tmp_path / out)), record_rounds=True)
    ra, rb = ((tmp_path / out / "rounds_seed0.csv").read_bytes() for out in ("a", "b"))
    assert ra == rb == _loop_csv(cfg, 0)
    run_online(quick_config(horizon=600, seeds=(1,), out=str(tmp_path / "c")), record_rounds=True)
    ra, rc = _columns(ra), _columns((tmp_path / "c" / "rounds_seed1.csv").read_bytes())
    assert not (np.array_equal(ra["s"], rc["s"]) and np.array_equal(ra["a"], rc["a"]))
    # the config hash ignores the seed list
    assert config_hash(cfg) == config_hash(quick_config(horizon=600, seeds=(1,)))
    assert config_hash(cfg) != config_hash(quick_config(horizon=601, seeds=(0,)))


# final (reg_sw, reg_sell, reg_bid) per seed and (k, tau, d, l, payment_order_ok)
# per episode of two small runs, recorded with the solver as it stood when the
# pins were taken; outputs that move show here, not only in the benchmark
PINNED_RUNS = [
    (ExperimentConfig(generator=GeneratorSpec(S=3, A=3, n=2, alpha=0.2,
                                              reward_family="bernoulli-scaled"),
                      delta=0.01, zeta=0.05, horizon=20_000, seeds=(0, 1),
                      bidders=({"kind": "scaled", "factor": 1.5}, {"kind": "truthful"})),
     [[4240.936460471057, 3781.936460471057], [-25498.547863152504, -25332.443300392086],
      [29739.48432362356, 29114.379760863143]],
     [(1, 1, 1, 10386, True)]),
    (ExperimentConfig(generator=GeneratorSpec(S=2, A=2, n=2, alpha=0.2), delta=0.05,
                      zeta=0.05, episodes=12, seeds=(0, 1)),
     [[3326.240364236539, 3357.3426703623263], [-18675.03851106244, -18605.66287268314],
      [22001.27887529898, 21963.005543045467]],
     [(1, 1, 1, 1753, True), (2, 1755, 2, 2031, True), (3, 3788, 3, 2193, True),
      (4, 5984, 4, 2308, True), (5, 8296, 5, 2397, True), (6, 10698, 5, 2470, True),
      (7, 13173, 5, 2532, True), (8, 15710, 6, 2585, True), (9, 18301, 6, 2632, True),
      (10, 20939, 6, 2674, True), (11, 23619, 6, 2712, True), (12, 26337, 7, 2747, True)]),
]


@pytest.mark.parametrize("cfg, regrets, episodes", PINNED_RUNS, ids=["quick_start", "S2A2"])
def test_pinned_runs_repeat_their_recorded_outputs(cfg, regrets, episodes):
    """Final regrets within a relative 1e-9 (HiGHS versions may differ in the
    last digits of a value, not in a vertex) and the episode records exactly."""
    result = run_online(cfg)
    rep = result.report
    np.testing.assert_allclose([rep.reg_sw[:, -1], rep.reg_sell[:, -1], rep.reg_bid[:, -1]],
                               regrets, rtol=1e-9, atol=0)
    for seed_result in result.seed_results:
        assert [(e.k, e.tau, e.d, e.l, e.payment_order_ok)
                for e in seed_result.episodes] == episodes


def test_clairvoyant_baseline_small():
    cfg = quick_config(horizon=20_000, seeds=(0, 1))
    res = run_clairvoyant(cfg)
    rep = res.report
    T = rep.checkpoints[-1]
    slack = 3 * (2 + 1) / np.sqrt(T)
    assert abs(rep.mean_reg_sw[-1] / T) <= slack
    assert abs(rep.mean_reg_sell[-1] / T) <= slack
    assert abs(rep.mean_reg_bid[-1] / T) <= slack


def test_clairvoyant_solves_the_mechanism_once(count_calls):
    """run_clairvoyant plays the benchmark mechanism that run_online computed."""
    solved = count_calls(harness_mod, "offline_mechanism")
    res = run_clairvoyant(quick_config(horizon=300, seeds=(0, 1)))
    assert len(solved) == 1
    assert all(not r.episodes for r in res.seed_results)


def test_clairvoyant_resolves_the_model_once(tmp_path, count_calls):
    """A model file is read and validated once per clairvoyant run."""
    path = tmp_path / "model.json"
    save_model(generate_model(GEN, 1), path)
    resolved = count_calls(harness_mod, "resolve_model")
    loads = count_calls(harness_mod, "load_model")
    res = run_clairvoyant(ExperimentConfig(model_file=str(path), delta=0.08, zeta=0.05,
                                           horizon=300, seeds=(0,)))
    assert len(resolved) == len(loads) == 1
    assert res.mechanism.payments.shape[0] == GEN.n


def test_model_file_loads_once_per_run(tmp_path, count_calls):
    """offline-vcg --bids reads its model file once; truthfulness_gain once,
    for its input checks and both arms."""
    path = tmp_path / "model.json"
    save_model(generate_model(GEN, 1), path)
    bid_file = tmp_path / "bids.json"
    bid_file.write_text(json.dumps(np.full((GEN.n, GEN.S, GEN.A), 0.5).tolist()))
    loads = count_calls(harness_mod, "load_model")
    cli_loads = count_calls(cli_mod, "load_model")
    assert main(["offline-vcg", "--model", str(path), "--bids", str(bid_file),
                 "--out", str(tmp_path / "mech.json"), "--sim-rounds", "0"]) == 0
    assert (len(cli_loads), len(loads)) == (1, 0)
    truthfulness_gain(ExperimentConfig(model_file=str(path), delta=0.08, horizon=300),
                      bidder_index=0, deviant={"kind": "scaled", "factor": 0.5})
    assert (len(cli_loads), len(loads)) == (1, 1)


def test_benchmark_scalars_are_consistent():
    model = generate_model(GEN, 1)
    mech, bench = compute_benchmark(model)
    assert bench["welfare"] == pytest.approx(mech.welfare_value, abs=1e-8)
    assert bench["welfare"] == pytest.approx(
        bench["seller"] + bench["bidders"], abs=1e-9)
    assert bench["identity_residual"] <= 1e-8


def test_exact_scores_solve_the_occupancy_once(count_calls):
    """One stationary solve per scoring; its residual is that of
    seller_utility_identity, bit for bit."""
    model = generate_model(GEN, 1)
    mech = compute_benchmark(model)[0]
    solves = count_calls(offline_mod, "occupancy_from")
    scores = harness_mod._exact_scores(mech, model)
    assert len(solves) == 1
    lhs, rhs = seller_utility_identity(mech, model.reward_means, model.kernel)
    assert scores["identity_residual"] == abs(lhs - rhs)


def test_run_offline_exact_vs_empirical_gap():
    for seed in [1, 5]:
        out = run_offline(generate_model(GEN, seed), sim_rounds=100_000, sim_seed=seed)
        T = out["empirical"]["rounds"]
        slack = 3 / np.sqrt(T) * (2 + 1)  # n + c_max
        assert abs(out["welfare"] - out["empirical"]["welfare"]) <= slack
        assert abs(out["seller_utility"] - out["empirical"]["seller"]) <= slack
        assert out["identity_residual"] <= 1e-8


def test_run_offline_second_price_payment_average():
    # S = 1 single-item instance: the winner is charged the runner-up value
    # every stationary round, so the empirical mean nails 0.5
    kernel = np.ones((1, 3, 1))
    rewards = np.zeros((3, 1, 3))
    rewards[1, 0, 1] = 0.8
    rewards[2, 0, 2] = 0.5
    out = run_offline(MdpModel(kernel=kernel, reward_means=rewards, alpha=1.0),
                      sim_rounds=100_000)
    emp_payment = out["seller_utility"]
    assert emp_payment == pytest.approx(0.5, abs=1e-9)
    assert abs(out["empirical"]["seller"] - 0.5) <= 0.01


def test_zero_reward_model_all_utilities_zero():
    kernel = np.full((2, 2, 2), 0.5)
    rewards = np.zeros((3, 2, 2))
    out = run_offline(MdpModel(kernel=kernel, reward_means=rewards, alpha=0.5),
                      sim_rounds=2000)
    assert out["welfare"] == pytest.approx(0.0, abs=1e-10)
    assert out["seller_utility"] == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(out["bidder_utilities"], 0.0, atol=1e-10)
    assert out["empirical"]["welfare"] == pytest.approx(0.0, abs=1e-12)


def test_export_round_csv_shape_and_determinism(tmp_path):
    cfg = quick_config(horizon=1100, seeds=(0,), out=str(tmp_path / "a"))
    res = run_online(cfg, record_rounds=True)
    paths = export(res, cfg.out)
    rounds = tmp_path / "a" / "rounds_seed0.csv"
    assert paths[0] == rounds and rounds.read_bytes() == _loop_csv(cfg, 0)
    lines = rounds.read_text().splitlines()
    assert len(lines) == 1101  # header + one row per round
    n = 2
    header = ("t,k,phase,s,a,"
              + ",".join(f"r_{i}" for i in range(n + 1)) + ","
              + ",".join(f"b_{i}" for i in range(1, n + 1)) + ","
              + ",".join(f"p_{i}" for i in range(1, n + 1)) + ","
              + "u_0," + ",".join(f"u_{i}" for i in range(1, n + 1)) + ",R")
    assert lines[0] == header
    regret = (tmp_path / "a" / "regret.csv").read_text()
    assert regret.splitlines()[0] == ("t,reg_sw,reg_sell,reg_bid,"
                                      "reg_sw_over_t,reg_sell_over_t,reg_bid_over_t")

    again = replace(cfg, out=str(tmp_path / "b"))
    export(run_online(again, record_rounds=True), again.out)
    for name in ["rounds_seed0.csv", "regret.csv", "regret_per_seed.csv"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["config_hash"] == res.config_hash
    assert summary["episode_schedule"]


def test_export_empty_run_writes_headers_and_zero_regrets(tmp_path):
    cfg = quick_config(horizon=1, seeds=(0,))
    model = generate_model(GEN, 1)
    mech, bench = compute_benchmark(model)
    empty = OnlineRunResult(
        config=cfg, config_hash=config_hash(cfg), mechanism=mech,
        report=RegretReport(
            benchmark_welfare=bench["welfare"], benchmark_seller=bench["seller"],
            benchmark_bidders=bench["bidders"],
            checkpoints=np.zeros(0, dtype=np.int64),
            reg_sw=np.zeros((1, 0)), reg_sell=np.zeros((1, 0)),
            reg_bid=np.zeros((1, 0))),
        seed_results=[],
    )
    with open(tmp_path / "rounds_seed0.csv", "wb") as rounds:
        empty.seed_results.append(simulate_run(model, mech, [TRUTHFUL] * 2, 0, 0,
                                               np.zeros(0, dtype=np.int64), rounds))
    export(empty, tmp_path)
    assert (tmp_path / "rounds_seed0.csv").read_text().count("\n") == 1
    assert (tmp_path / "regret.csv").read_text().count("\n") == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_regrets"] == {"t": 0, "reg_sw": 0.0,
                                        "reg_sell": 0.0, "reg_bid": 0.0}


@pytest.mark.parametrize("checkpoints", [[5, 20], [0, 5], [5, 5], [7, 3], [2.0, 5.0], [[1, 2]]])
def test_bad_checkpoints_are_refused(checkpoints):
    """A checkpoint past the horizon used to read 0.0 for a welfare sum; the
    checkpoints must be strictly increasing integers in [1, horizon]."""
    model = generate_model(GEN, 1)
    mech, _ = compute_benchmark(model)
    with pytest.raises(ValueError, match=r"strictly increasing integers in \[1, 10\]"):
        simulate_run(model, mech, [TRUTHFUL] * 2, 10, 0, np.array(checkpoints))
    assert simulate_run(model, mech, [TRUTHFUL] * 2, 10, 0, np.array([5, 10])).cum[-1].all()


@pytest.mark.parametrize("checkpoints", [[5, 10], (5, 10), []], ids=["list", "tuple", "empty"])
def test_checkpoints_given_as_a_sequence_play_as_an_array(checkpoints):
    """Checkpoints passed as a list or a tuple, empty or not, give the same
    sums as the same int64 array."""
    model = generate_model(GEN, 1)
    mech, _ = compute_benchmark(model)
    want = simulate_run(model, mech, [TRUTHFUL] * 2, 10, 0, np.array(checkpoints, dtype=np.int64))
    got = simulate_run(model, mech, [TRUTHFUL] * 2, 10, 0, checkpoints)
    assert got.checkpoints.dtype == np.int64
    np.testing.assert_array_equal(got.cum, want.cum)
    np.testing.assert_array_equal(got.totals, want.totals)


@pytest.mark.parametrize("extra", [[2.5, 33.3], [True], [np.float64(4.0)]])
def test_checkpoint_grid_refuses_non_integer_extras(extra):
    """An extra checkpoint that is not an integer is refused, by value, rather
    than truncated; numpy integers pass, and out-of-range ones are dropped."""
    with pytest.raises(ValueError, match=r"extra checkpoints must be integers; got \["):
        checkpoint_grid(100, extra=extra)
    np.testing.assert_array_equal(checkpoint_grid(100, extra=[np.int64(90), 400, 0]),
                                  checkpoint_grid(100, extra=[90]))


def test_export_json_format(tmp_path):
    """results.json is one sorted ``json.dumps`` line whose rounds are the
    loop's rows (seeds in string order: "10" before "2"); the rounds files
    the run wrote are folded into it and removed."""
    cfg = quick_config(horizon=80, seeds=(2, 10), format="json", out=str(tmp_path))
    keys = ("t", "k", "phase", "s", "a", "rewards", "bids", "charges")
    for record in (True, False):
        res = run_online(cfg, record_rounds=record)
        export(res, tmp_path)
        doc = _summary_doc(res)
        for key in ("checkpoints", "reg_sw", "reg_sell", "reg_bid"):
            doc[key] = getattr(res.report, key).tolist()
        doc["rounds"] = {str(seed): [dict(zip(keys, (*row[:5], *(x.tolist() for x in row[5:8]))))
                                     for row in _loop_rounds(cfg, seed)] if record else []
                         for seed in cfg.seeds}
        got = (tmp_path / "results.json").read_bytes()
        assert json.loads(got)["rounds"] == doc["rounds"]
        assert got == json.dumps(doc, sort_keys=True).encode()
        assert len(doc["rounds"]["10"]) == (80 if record else 0)
        assert not list(tmp_path.glob("rounds_seed*.csv"))


@pytest.mark.parametrize("kw, message", [
    ({"format": "xml"}, "format must be csv or json; got 'xml'"),
    ({"horizon": 0}, "horizon must be a positive integer or null; got 0"),
    ({"horizon": 2.5}, "horizon must be a positive integer or null; got 2.5"),
    ({"delta": "0.08"}, "learner.delta must be a number; got '0.08'"),
    ({"model_seed": np.int64(1)}, "model.seed must be a nonnegative integer"),
    ({"seeds": range(2)}, "seeds must be a list of nonnegative integers"),
    ({"model_file": "model.json"}, "exactly one of model.file and model.generator"),
    ({"horizon": None}, "config needs horizon or episodes"),
], ids=["format", "horizon_zero", "horizon_float", "delta_string", "numpy_seed",
        "range_seeds", "two_models", "no_run_length"])
def test_python_built_config_is_checked_by_the_key_table(kw, message):
    """A config built in Python is refused by the same rules as a config file,
    with a message that names the key, before any run."""
    with pytest.raises(ValueError, match=message):
        quick_config(**kw)


def test_config_dict_roundtrip():
    doc = {
        "model": {"generator": {"S": 3, "n": 2, "alpha": 0.25, "A": 3,
                                "reward_family": "bernoulli-scaled"},
                  "seed": 4},
        "learner": {"delta": 0.05, "zeta": 0.05,
                    "variant": "bidder_favorable"},
        "bidders": [{"kind": "truthful"}, {"kind": "scaled", "factor": 2.0}],
        "horizon": 1000,
        "seeds": [0, 1, 2],
        "out": "results",
        "format": "csv",
    }
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.variant == "bidder_favorable"
    assert cfg.generator.S == 3
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert config_hash(again) == config_hash(cfg)
    # asdict keeps a Python-built GeneratorSpec's tuple of families a tuple
    cfg = quick_config(generator=replace(GEN, n=3, reward_family=(
        "bernoulli-scaled", "deterministic", "bernoulli-scaled", "deterministic")))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_refuses_empty_or_repeated_seeds():
    """A Python-built config is refused as a config file is, before any run."""
    with pytest.raises(ValueError, match="at least one seed"):
        quick_config(seeds=())
    with pytest.raises(ValueError, match="seeds must be distinct; repeated: 1, 3"):
        quick_config(seeds=(3, 1, 2, 1, 3))


def test_config_defaults_match_the_dataclass():
    """A config file that gives only the model reads as ExperimentConfig's defaults."""
    doc = {"model": {"generator": {"S": 3, "n": 2, "alpha": 0.25}}, "horizon": 100}
    assert ExperimentConfig.from_dict(doc) == ExperimentConfig(
        generator=GeneratorSpec(S=3, n=2, alpha=0.25), horizon=100)


def test_generator_keys_match_generator_spec():
    """The generator table has GeneratorSpec's fields and defaults, of the same
    types, so a parsed generator hashes as GeneratorSpec(**doc) did."""
    spec = {f.name: f.default if f.default is not MISSING else ... for f in fields(GeneratorSpec)}
    table = {key: default for key, (_, _, default) in _GENERATOR_KEYS.items()}
    assert list(table) == list(spec)
    assert [(type(v), v) for v in table.values()] == [(type(v), v) for v in spec.values()]
    assert list(_BIDDER_KEYS) == list(KINDS)


def _key_names(schema, prefix=""):
    for key, (test, _, _) in schema.items():
        yield prefix + key
        if isinstance(test, dict):
            yield from _key_names(test, f"{prefix}{key}.")


def test_readme_names_every_config_key():
    """The README's config table has a row for every key, bidder keys included."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = list(_key_names(_CONFIG_KEYS))
    names += sorted({f"bidders[].{key}" for keys in _BIDDER_KEYS.values() for key in keys})
    assert [name for name in names if f"| `{name}` |" not in readme] == []


def test_strategy_count_must_match_bidders():
    cfg = quick_config(bidders=({"kind": "truthful"},))
    with pytest.raises(ValueError):
        run_online(cfg)


def test_well_typed_bidder_specs_resolve():
    """Defaults, integer windows, numbers of either type and an (S, A) table
    pass; a table is clipped to [0, 1], and its in-range entries keep their bits."""
    model = generate_model(GEN, 1)
    specs = ({"kind": "adversarial_window", "windows": [[20_000, 40_000]]},
             {"kind": "scaled", "factor": 1.5})
    got = resolve_strategies(quick_config(bidders=specs), model)
    assert got == [{"kind": "adversarial_window", "windows": [[20_000, 40_000]], "factor": 1.0,
                    "inflate_to": 1.0}, {"kind": "scaled", "factor": 1.5}]
    specs = ({"kind": "adversarial_window", "windows": [], "factor": 2, "inflate_to": None},
             {"kind": "by_bids",
              "table": [[-0.5, 0.5, 1.5], [-0.0, 0.5, 1.0], [-0.5, 0.5, 1.5]]})
    window, table = resolve_strategies(quick_config(bidders=specs), model)
    assert window == {"kind": "adversarial_window", "windows": [], "factor": 2,
                      "inflate_to": None}
    np.testing.assert_array_equal(table["table"], [[0.0, 0.5, 1.0]] * GEN.S)  # clipped
    assert np.signbit(table["table"]).tolist() == [[False] * 3, [True, False, False],
                                                   [False] * 3]  # in range: bits kept
    specs = ({"kind": "truthful"}, {"kind": "shifted", "offset": -0.2})
    assert resolve_strategies(quick_config(bidders=specs), model) == list(specs)


def test_truthfulness_gain_helper_runs():
    cfg = quick_config(horizon=2400, seeds=(0,))
    cps, gains = truthfulness_gain(cfg, bidder_index=0,
                                   deviant={"kind": "scaled", "factor": 2.0})
    assert len(cps) == len(gains)
    assert np.all(np.isfinite(gains))


def test_truthfulness_gain_refuses_a_mistyped_deviant():
    """A misspelt deviant key is refused, by its name, before either arm runs."""
    with mock.patch.object(harness_mod, "_run_online") as run_online:
        with pytest.raises(ValueError, match="factr"):
            truthfulness_gain(quick_config(horizon=20_000), bidder_index=1,
                              deviant={"kind": "scaled", "factr": 0.5})
    run_online.assert_not_called()


@pytest.mark.parametrize("index", [2, -1, True])
def test_truthfulness_gain_refuses_a_bidder_index_out_of_range(index, count_calls):
    """With n = 2, a negative, non-integer or out-of-range index is refused
    before either arm runs; the message names the index."""
    arms = count_calls(harness_mod, "_run_online")
    message = "bidder_index 2 is out of range for n = 2" if index == 2 else f"got {index!r}"
    with pytest.raises(ValueError, match=message):
        truthfulness_gain(quick_config(horizon=300, seeds=(0,)), bidder_index=index,
                          deviant={"kind": "scaled", "factor": 0.5})
    assert len(arms) == 0


def test_truthfulness_gain_refuses_a_wrong_shape_table(count_calls):
    """A by_bids deviant whose table is not the model's (S, A) = (3, 3) is
    refused before either arm runs."""
    arms = count_calls(harness_mod, "_run_online")
    with pytest.raises(ValueError, match=r"\(S, A\) = \(3, 3\)"):
        truthfulness_gain(quick_config(horizon=300, seeds=(0,)), bidder_index=0,
                          deviant={"kind": "by_bids", "table": [[0.5] * 2] * 2})
    assert len(arms) == 0


def test_untruthful_gain_does_not_grow():
    # the deviation's seed-averaged per-round gain at the largest T must not
    # exceed max(0.02, its value at T/10)
    T = 24_000
    cfg = quick_config(horizon=T, seeds=(0, 1, 2, 3))
    # note: realized rewards are 0/1 under the bernoulli family, so the
    # deviations must actually change reports (halving does, doubling not)
    deviants = [{"kind": "scaled", "factor": 0.5}, {"kind": "by_bids", "table": [[1.0] * 3] * 3}]
    for deviant in deviants:
        cps, gains = truthfulness_gain(cfg, bidder_index=0, deviant=deviant,
                                       extra_checkpoints=(T // 10, T))
        g_early = gains[int(np.where(cps == T // 10)[0][0])]
        g_late = gains[int(np.where(cps == T)[0][0])]
        assert g_late <= max(0.02, g_early)


def test_ir_for_truthful_bidder_against_adversaries():
    T = 24_000
    windows = windows_from_episodes(learner_config(quick_config(), generate_model(GEN, 1)),
                                    [2, 3, 5])
    bidders = ({"kind": "truthful"},
               {"kind": "adversarial_window", "windows": windows, "inflate_to": 1.0})
    res = run_online(quick_config(horizon=T, seeds=(0, 1, 2, 3), bidders=bidders),
                     extra_checkpoints=(T,))
    avg_u0 = np.mean([r.cum[1, -1] for r in res.seed_results]) / T
    assert avg_u0 >= -0.02


def test_simulate_run_with_clairvoyant_has_no_episodes():
    model = generate_model(GEN, 1)
    mech, _ = compute_benchmark(model)
    res = simulate_run(model, mech, [TRUTHFUL] * 2, 200, 0, checkpoint_grid(200), io.BytesIO())
    assert res.episodes == []
    assert res.cum[-1, -1] > 0
    data = res.rounds.getvalue()
    want = loop_simulate_run(model, mech, [TRUTHFUL] * 2, 200, 0, checkpoint_grid(200),
                             record_rounds=True)
    assert data == loop_rounds_csv(want.rounds, _round_header(2))
    rounds = _columns(data)
    assert set(rounds["phase"]) == {"stationary"} and set(rounds["k"]) == {0}
    s, a = rounds["s"].astype(int), rounds["a"].astype(int)
    np.testing.assert_array_equal(_stack(rounds, "p", 1, 2), mech.payments[:, s, a].T)


def _assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    if got.dtype.kind == "f":
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@st.composite
def simulation_cases(draw):
    """A small model, a learner or a fixed mechanism, and one strategy per bidder."""
    S, A, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    families = ("deterministic", "bernoulli-scaled")
    family = tuple(draw(st.sampled_from(families)) for _ in range(n + 1))
    alpha = draw(st.floats(0.8, 1.0)) / S
    c_max = draw(st.sampled_from([1.0, 2.5]))
    model = generate_model(GeneratorSpec(S=S, n=n, alpha=alpha, A=A, c_max=c_max,
                                         reward_family=family), draw(st.integers(0, 99)))
    lcfg = LearnerConfig(S=S, A=A, n=n, alpha=alpha, c_max=c_max,
                         delta=min(1.0 / (S * A), alpha / A) * draw(st.floats(0.8, 1.0)),
                         zeta=draw(st.sampled_from([0.05, 0.5])),
                         variant=draw(st.sampled_from(["seller_favorable",
                                                       "bidder_favorable"])))
    taus = episode_schedule(lcfg, 4)
    edge = int(taus[1])  # first episode boundary: a segment edge
    strategies = []
    for _ in range(n):
        kind = draw(st.sampled_from(["truthful", "by_bids", "scaled", "shifted",
                                     "adversarial_window"]))
        if kind == "by_bids":  # unclipped table: the learner clips out-of-range bids
            table = np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=S * A,
                                           max_size=S * A))).reshape(S, A)
            strategies.append({"kind": "by_bids", "table": table})
        elif kind == "scaled":
            strategies.append({"kind": "scaled", "factor": draw(st.floats(-1.0, 3.0))})
        elif kind == "shifted":
            strategies.append({"kind": "shifted", "offset": draw(st.floats(-1.0, 1.0))})
        elif kind == "adversarial_window":
            window = (edge - draw(st.integers(1, 30)), edge + draw(st.integers(1, 30)))
            inflate_to = draw(st.sampled_from([1.0, 0.3, None]))
            strategies.append({"kind": "adversarial_window", "windows": [window],
                               "factor": draw(st.floats(0.0, 3.0)), "inflate_to": inflate_to})
        else:
            strategies.append(TRUTHFUL)
    # the horizon falls in episode e + 1, often on its last round
    e = draw(st.integers(0, 3))
    first, last = int(taus[e]), int(taus[e + 1]) - 1
    horizon = draw(st.one_of(st.just(last), st.integers(first, last)))
    fixed = draw(st.booleans())
    return model, lcfg, strategies, horizon, fixed, draw(st.sampled_from([None, 1, 7, 300]))


@settings(max_examples=40, deadline=None)
@given(case=simulation_cases(), seed=st.integers(0, 2**32 - 1))
def test_batched_simulation_equals_round_loop(case, seed):
    """Segments of array operations give the loop's sums, bits and signs included."""
    model, lcfg, strategies, horizon, fixed, segment_max = case
    mech = compute_benchmark(model)[0] if fixed else None
    checkpoints = checkpoint_grid(horizon, episode_schedule(lcfg, 4) - 1)
    outcomes, sellers = [], []
    with mock.patch.object(harness_mod, "_SEGMENT_MAX", segment_max or harness_mod._SEGMENT_MAX):
        for run, rounds in ((simulate_run, io.BytesIO()), (loop_simulate_run, True)):
            sellers.append(mech if fixed else OnlineVcgLearner(lcfg))
            try:
                outcomes.append(run(model, sellers[-1], strategies, horizon, seed, checkpoints,
                                    rounds))
            except ConfigurationError as e:  # the LP in an episode update: same in both
                outcomes.append(str(e))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
        return
    _assert_bit_equal(got.cum, np.vstack([want.cum_seller, want.cum_per_bidder, want.cum_welfare]))
    assert got.episodes == want.episodes
    if not fixed:  # simulate_run plays the learner it is given on in place
        assert (json.dumps(sellers[0].to_checkpoint())
                == json.dumps(sellers[1].to_checkpoint()))
    assert got.rounds.getvalue() == loop_rounds_csv(want.rounds, _round_header(model.n))


@settings(max_examples=40, deadline=None)
@given(case=simulation_cases(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_run_copied_between_segments_plays_on_unchanged(case, seed, data):
    """A deep copy of a paused run, and the run itself, played on in turn one
    segment each, end bit for bit as an uninterrupted run. A learner's run
    pauses where one of its episodes ends; a fixed mechanism's between two
    segments."""
    model, lcfg, strategies, horizon, fixed, segment_max = case
    mech = compute_benchmark(model)[0] if fixed else None
    seller = lambda: mech if fixed else OnlineVcgLearner(lcfg)
    args = (strategies, horizon, seed, checkpoint_grid(horizon, episode_schedule(lcfg, 4) - 1))
    with mock.patch.object(harness_mod, "_SEGMENT_MAX", segment_max or harness_mod._SEGMENT_MAX):
        try:
            whole = simulate_run(model, seller(), *args, io.BytesIO())
        except ConfigurationError:  # an episode's LP, infeasible in every run alike
            return
        state = RunState.start(model, seller(), *args, io.BytesIO())
        pause = data.draw(st.integers(0, 3 if fixed else len(whole.episodes)), label="pause")
        segments = 0
        while state.sim.t <= horizon and (segments if fixed else len(state.episodes)) < pause:
            advance(state)
            segments += 1
        copied = copy.deepcopy(state)
        while state.sim.t <= horizon or copied.sim.t <= horizon:
            for run in (state, copied):
                if run.sim.t <= horizon:
                    advance(run)
    for run in (state, copied):
        for name in ("cum", "totals"):
            _assert_bit_equal(getattr(run, name), getattr(whole, name))
        assert run.episodes == whole.episodes
        if not fixed:
            assert (json.dumps(run.seller.to_checkpoint())
                    == json.dumps(whole.seller.to_checkpoint()))
        assert run.rounds.getvalue() == whole.rounds.getvalue()


@pytest.mark.parametrize("segment_max", [1 << 16, 8192, 1000])
def test_chunk_size_changes_no_output_bit(segment_max, tmp_path):
    """The quick-start learner's episode 1 (10,387 rounds) played whole, in
    two chunks or in eleven ends bit for bit the same, with one bidder's
    bids clipped in every chunk."""
    config = ExperimentConfig(
        generator=GeneratorSpec(S=3, A=3, n=2, alpha=0.2, reward_family="bernoulli-scaled"),
        delta=0.01, zeta=0.05, horizon=12_000, seeds=(0,),
        bidders=({"kind": "scaled", "factor": 1.5}, {"kind": "truthful"}))
    runs = []
    for j, chunk in enumerate((segment_max, 1 << 16)):
        with mock.patch.object(harness_mod, "_SEGMENT_MAX", chunk):
            runs.append(run_online(replace(config, out=str(tmp_path / str(j))),
                                   record_rounds=True).seed_results[0])
    got, want = runs
    assert want.episodes[0].d + want.episodes[0].l == 10_387 and len(want.episodes) == 1
    for name in ("cum", "totals"):
        _assert_bit_equal(getattr(got, name), getattr(want, name))
    assert got.episodes == want.episodes
    assert json.dumps(got.seller.to_checkpoint()) == json.dumps(want.seller.to_checkpoint())
    data = (tmp_path / "0" / "rounds_seed0.csv").read_bytes()
    assert data == (tmp_path / "1" / "rounds_seed0.csv").read_bytes() == _loop_csv(config, 0)


def test_a_long_run_holds_one_chunk_of_rounds():
    """A fixed mechanism's 100,000 rounds on the benchmark's large model
    allocate at most a few MB at once, not a share of every round."""
    model = generate_model(GeneratorSpec(S=10, n=3, alpha=0.09, auction="combinatorial",
                                         items=2), 0)
    mech = compute_benchmark(model)[0]
    horizon = 100_000
    tracemalloc.start()
    try:
        simulate_run(model, mech, [TRUTHFUL] * model.n, horizon, 0, checkpoint_grid(horizon))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak {peak / 2**20:.1f} MB"


def test_a_long_recorded_run_holds_one_chunk_of_rounds(tmp_path):
    """A learner's 100,000 recorded rounds are written as they are played:
    the run allocates at most a few MB at once, not a record of every round."""
    config = quick_config(horizon=100_000, seeds=(0,), out=str(tmp_path))
    run_online(replace(config, horizon=2000), record_rounds=True)  # load HiGHS outside the trace
    tracemalloc.start()
    try:
        run_online(config, record_rounds=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "rounds_seed0.csv").read_bytes().count(b"\r\n") == 100_001
    assert peak < 4 << 20, f"peak {peak / 2**20:.1f} MB"


def test_rounds_csv_equals_row_by_row_csv_writer():
    """Column-block CSV bytes equal csv.writer's over the loop's rows."""
    model = generate_model(GeneratorSpec(S=3, n=3, alpha=0.25, A=2,
                                         reward_family=("bernoulli-scaled", "deterministic",
                                                        "bernoulli-scaled", "deterministic")), 2)
    lcfg = LearnerConfig(S=3, A=2, n=3, alpha=0.25, delta=0.1, zeta=0.5)
    strategies = [{"kind": "scaled", "factor": -0.5}, {"kind": "shifted", "offset": 0.3},
                  {"kind": "adversarial_window", "windows": [(100, 700)], "factor": 1.5,
                   "inflate_to": None}]
    horizon = 2000
    cps = checkpoint_grid(horizon)
    with mock.patch.object(harness_mod, "_SEGMENT_MAX", 300):
        got = simulate_run(model, OnlineVcgLearner(lcfg), strategies, horizon, 5, cps,
                           io.BytesIO())
    want = loop_simulate_run(model, OnlineVcgLearner(lcfg), strategies, horizon, 5, cps,
                             record_rounds=True)
    assert len(got.episodes) >= 2
    batched = got.rounds.getvalue()
    assert batched == loop_rounds_csv(want.rounds, _round_header(model.n))
    assert batched.count(b"\r\n") == horizon + 1


def _rows(t, ints, phase, floats, n):
    """One segment's columns as the row tuples ``loop_rounds_csv`` writes."""
    return [(t_, k, p, s, a, f[:n + 1], f[n + 1:2 * n + 1], f[2 * n + 1:3 * n + 1], f[3 * n + 1],
             f[3 * n + 2:-1], f[-1])
            for t_, (k, s, a), p, f in zip(t.tolist(), ints.tolist(), phase.tolist(), floats)]


def _segment(data: bytes):
    """A rounds file's rows as one segment's (t, ints, phase, floats) columns."""
    rounds = _columns(data)
    names = list(rounds)
    ints = np.column_stack([rounds[k] for k in "ksa"]).astype(np.int64)
    return (rounds["t"].astype(np.int64), ints, rounds["phase"].astype("<U10"),
            np.column_stack([rounds[k] for k in names[5:]]))


def _bits_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# values whose text or bit pattern is easy to get wrong: signed zeros, NaNs
# with the sign bit or a payload set, infinities, subnormals, 1e16 (repr
# switches to exponent form), 1e-5 and 0.1 + 0.2 (shortest repr)
_SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, _bits_float(0x7FF8000000000001),
                   _bits_float(0xFFF4000000000000), math.inf, -math.inf, 5e-324, -5e-324,
                   2.5e-310, 1e16, -1e16, 1e-5, 0.1 + 0.2, 0.5, 1.0]


@st.composite
def round_columns(draw):
    """Adversarial columns of one segment (``advance`` formats no empty one):
    each column either repeats a small pool of values or holds a distinct bit
    pattern in every row."""
    n, L = draw(st.integers(1, 3)), draw(st.integers(1, 24))
    value = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                      st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    repeating = st.lists(value, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=L, max_size=L))
    distinct = st.lists(value, min_size=L, max_size=L,
                        unique_by=lambda x: struct.pack("<d", x))

    def floats(width):
        cols = [draw(st.one_of(repeating, distinct)) for _ in range(width)]
        return np.ascontiguousarray(np.array(cols, dtype=np.float64).reshape(width, L).T)

    def ints():
        pool = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(pool), min_size=L, max_size=L))

    # "mix" and "" hold NUL padding where "mixing" and "stationary" hold letters
    phases = draw(st.lists(st.sampled_from(["mixing", "stationary", "mix", ""]),
                           min_size=L, max_size=L))
    return (np.arange(1, L + 1), np.array([ints(), ints(), ints()], dtype=np.int64).T.copy(),
            np.array(phases, dtype="<U10"), floats(4 * n + 3), n)


@settings(max_examples=100, deadline=None)
@given(case=round_columns())
def test_rounds_csv_bytes_equal_csv_writer_on_adversarial_columns(case):
    *columns, n = case
    header = (",".join(_round_header(n)) + "\r\n").encode()
    assert header + _rounds_csv_rows(*columns) == loop_rounds_csv(_rows(*columns, n),
                                                                   _round_header(n))


@pytest.mark.parametrize("start", [95, 9_990, 10**18 - 37, 2**63 - 301])
def test_rounds_csv_t_crosses_a_power_of_ten_inside_a_block(tmp_path, start):
    """Round numbers that do not start at 1 change width mid-segment."""
    run_online(quick_config(horizon=300, seeds=(2,), out=str(tmp_path)), record_rounds=True)
    _, *columns = _segment((tmp_path / "rounds_seed2.csv").read_bytes())
    t = np.arange(start, start + 300)
    header = (",".join(_round_header(2)) + "\r\n").encode()
    assert header + _rounds_csv_rows(t, *columns) == loop_rounds_csv(_rows(t, *columns, 2),
                                                                      _round_header(2))


def test_export_crosses_the_default_block(tmp_path):
    """A run longer than one 8192-round segment exports csv.writer's bytes."""
    cfg = quick_config(horizon=9000, seeds=(4,), out=str(tmp_path / "out"))
    export(run_online(cfg, record_rounds=True), cfg.out)
    got = (tmp_path / "out" / "rounds_seed4.csv").read_bytes()
    assert got == _loop_csv(cfg, 4)
    assert got.count(b"\r\n") == 9001
