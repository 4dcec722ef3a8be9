import json
import math
from unittest import mock

import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus

import mdpvcg.cli as cli_mod
import mdpvcg.polytope as polytope_mod
from mdpvcg import (BidProfile, ExperimentConfig, GeneratorSpec, average_utilities,
                    config_hash, generate_model, load_model, offline_mechanism, save_model)
from mdpvcg.cli import main

GEN = GeneratorSpec(S=3, n=2, alpha=0.25, A=3, reward_family="bernoulli-scaled")


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(generate_model(GEN, 1), path)
    return path


def test_offline_vcg_writes_report(model_file, tmp_path, capsys):
    out = tmp_path / "mechanism.json"
    code = main(["offline-vcg", "--model", str(model_file), "--out", str(out),
                 "--sim-rounds", "2000"])
    assert code == 0
    doc = json.loads(out.read_text())
    for key in ["allocation", "payments", "welfare", "seller_utility",
                "bidder_utilities", "identity_residual", "empirical"]:
        assert key in doc
    assert doc["identity_residual"] <= 1e-8
    assert "wrote" in capsys.readouterr().out


def test_offline_vcg_accepts_bid_file(model_file, tmp_path):
    bids = np.full((2, 3, 3), 0.5)
    bid_file = tmp_path / "bids.json"
    bid_file.write_text(json.dumps(bids.tolist()))
    out = tmp_path / "mech.json"
    code = main(["offline-vcg", "--model", str(model_file), "--bids",
                 str(bid_file), "--out", str(out), "--sim-rounds", "0"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["empirical"] is None
    # the exact scores are those of the mechanism solved on the reported bids
    model = load_model(model_file)
    mech = offline_mechanism(BidProfile(bids), model.reward_means[0], model.kernel)
    u0, ui, welfare = average_utilities(mech, model.reward_means, model.kernel)
    assert doc["welfare"] == welfare
    assert doc["seller_utility"] == u0
    assert doc["bidder_utilities"] == ui.tolist()
    assert doc["payments"] == mech.payments.tolist()
    assert doc["allocation"] == mech.allocation.tolist()


def test_calibrate_delta_prints_json(model_file, capsys):
    code = main(["calibrate-delta", "--model", str(model_file),
                 "--epsilon", "0.1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < doc["delta"] <= 1.0 / (3 * 3)


def test_calibrate_delta_nan_epsilon_exits_2(model_file, capsys):
    """--epsilon nan is refused: it would print invalid JSON."""
    assert main(["calibrate-delta", "--model", str(model_file), "--epsilon", "nan"]) == 2
    captured = capsys.readouterr()
    assert "epsilon must be positive" in captured.err and not captured.out


def test_offline_vcg_negative_sim_rounds_exits_2(model_file, tmp_path, capsys):
    """--sim-rounds -5 is refused, not read as "skip the cross-check"."""
    out = tmp_path / "mech.json"
    assert main(["offline-vcg", "--model", str(model_file), "--out", str(out),
                 "--sim-rounds", "-5"]) == 2
    assert "sim_rounds" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_end_to_end(model_file, tmp_path, capsys):
    config = {
        "model": {"file": str(model_file)},
        "learner": {"delta": 0.08, "zeta": 0.05},
        "bidders": [{"kind": "truthful"}, {"kind": "scaled", "factor": 1.2}],
        "horizon": 1500,
        "seeds": [0],
        "format": "csv",
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    code = main(["simulate", "--config", str(cfg_file), "--out", str(out_dir),
                 "--seed-list", "0", "1", "--record-rounds"])
    assert code == 0
    assert (out_dir / "regret.csv").exists()
    assert (out_dir / "rounds_seed0.csv").exists()
    assert (out_dir / "rounds_seed1.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seeds"] == [0, 1]
    assert "Reg_SW(T)/T" in capsys.readouterr().out


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps({"model": {}, "horizon": 100}))
    assert main(["simulate", "--config", str(cfg_file)]) == 2
    cfg_file.write_text("{not json")
    assert main(["simulate", "--config", str(cfg_file)]) == 2
    assert "configuration error" in capsys.readouterr().err


_MISSING = object()  # a key left out of the config


@pytest.mark.parametrize("key, value", [
    ("seeds", [1.5]), ("seeds", [True]), ("seeds", ["2"]), ("seeds", 3),
    ("horizon", 2.7), ("horizon", True), ("episodes", 1.5), ("episodes", False),
    ("model.seed", 1.7), ("model.seed", True), ("model.seed", "1"), ("format", "xml"),
    ("learner.zeta", "0.05"), ("learner.alpha", "0.2"), ("learner.delta", True),
    ("learner.alpha", True),
    ("model.generator.S", "3"), ("model.generator.S", 3.0), ("model.generator.S", True),
    ("model.generator.alpha", "0.2"), ("model.generator.n", _MISSING),
    ("model.generator.items", "2"), ("model.generator.auction", "dutch"),
    ("model.file", 5), ("config", [1]), ("model", ["file"]), ("learner", ["delta"]),
    ("horizon", 0), ("horizon", -5), ("episodes", 0),
    ("model.generator.S", 0), ("model.generator.n", 0), ("model.generator.A", 0),
    ("model.generator.items", 0), ("model.generator.auction", "single_item"),
    pytest.param("model.generator.items", 2, id="model.generator.items-2-without-auction"),
    ("model.generator.alpha", math.nan), ("model.generator.c_max", math.nan),
    ("model.generator.c_max", math.inf), ("model.generator.c_max", -1),
    ("seeds", [0, -1]), ("model.seed", -3), ("model.generator.reward_family", "gaussian"),
    ("model.generator.reward_family", ["deterministic"] * 5)])
def test_simulate_mistyped_run_length_exits_2(model_file, tmp_path, capsys, key, value):
    """A mistyped or missing value, or a list for an object, at any level of
    the config is refused by its key before any seed is simulated, so
    nothing is written. So are generator sizes below 1, an A that an auction
    would override, an items count that no auction reads, a NaN or infinite
    alpha, a c_max that is not a nonnegative finite number, a negative seed,
    an unknown reward family and a list of reward families that is neither
    one name nor one per player."""
    config = {"model": {"file": str(model_file)}, "learner": {"delta": 0.08, "zeta": 0.05},
              "horizon": 100, "seeds": [0]}
    if key.startswith("model.generator."):
        config["model"] = {"generator": {"S": 3, "n": 2, "alpha": 0.25, "A": 3}}
    if key == "episodes":
        config.pop("horizon")
    *parents, last = key.split(".")
    part = config
    for parent in parents:
        part = part[parent]
    if key == "config":
        config = value
    elif value is _MISSING:
        del part[last]
    else:
        part[last] = value
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    with mock.patch.object(cli_mod, "run_online") as run_online:
        assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 2
    run_online.assert_not_called()
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("case, kind", [("margin", "ergodicity_margin"),
                                        ("seller_reward", "reward_range (0, 1, 2): r_0=5.0"),
                                        ("kernel_nan", "not_finite (0, 0, 0): kernel=nan"),
                                        ("alpha_nan", "not_finite (): alpha=nan"),
                                        ("kernel_string", "kernel must be an array of numbers"),
                                        ("alpha_string", "alpha must be a number; got '0.25'"),
                                        ("c_max_bool", "c_max must be a number; got True"),
                                        ("reward_family_number",
                                         "reward_family must be a name or a list of names"),
                                        ("document_array", ".json must be an object; got [{"),
                                        ("unknown_key", ".json key(s) 'gamma'"),
                                        ("n_float", "n must be a positive integer; got 2.0"),
                                        ("S_string", "S must be a positive integer; got '3'"),
                                        ("n_zero", "n must be a positive integer; got 0"),
                                        ("kernel_ragged", "kernel must be (3, 3, 3)"),
                                        ("S_mismatch", "kernel must be (2, 3, 2)"),
                                        ("reward_family_unknown",
                                         ".json: reward_family must be a name or a list of "
                                         "names among deterministic, bernoulli-scaled; "
                                         "got 'gaussian'"),
                                        ("reward_family_length",
                                         ".json: reward_family must list 1 or n+1 = 3 names; "
                                         "got 2")])
@pytest.mark.parametrize("command", ["offline-vcg", "simulate", "calibrate-delta"])
def test_invalid_model_file_exits_2(tmp_path, capsys, case, kind, command):
    """A model file is validated when it loads, by key against its key table,
    before anything is written."""
    path = tmp_path / f"{case}.json"
    save_model(generate_model(GEN, 1), path)
    doc = json.loads(path.read_text())
    if case == "margin":  # the kernel's entries go down to alpha = 0.25
        doc["alpha"] = 0.3
    elif case == "seller_reward":
        doc["reward_means"][0][1][2] = 5.0  # the seller's cap is c_max = 1
    elif case == "kernel_nan":
        doc["kernel"][0][0][0] = math.nan
    elif case == "kernel_string":  # np.array would parse it
        doc["kernel"][0][0][0] = str(doc["kernel"][0][0][0])
    elif case == "alpha_string":
        doc["alpha"] = str(doc["alpha"])
    elif case == "c_max_bool":
        doc["c_max"] = True
    elif case == "reward_family_number":
        doc["reward_family"] = 1
    elif case == "document_array":
        doc = [doc]
    elif case == "unknown_key":
        doc["gamma"] = 0.9
    elif case == "n_float":
        doc["n"] = 2.0
    elif case == "S_string":
        doc["S"] = "3"
    elif case == "n_zero":  # a seller alone: the mechanism would fail naming no key
        doc["n"], doc["reward_means"] = 0, doc["reward_means"][:1]
        doc["reward_family"] = doc["reward_family"][:1]
    elif case == "kernel_ragged":  # np.array would fail naming neither key nor file
        doc["kernel"][0][0] = doc["kernel"][0][0][:2]
    elif case == "S_mismatch":
        doc["S"] = 2
    elif case == "reward_family_unknown":
        doc["reward_family"] = "gaussian"
    elif case == "reward_family_length":  # n = 2: one name or three
        doc["reward_family"] = doc["reward_family"][:2]
    else:
        doc["alpha"] = math.nan
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "offline-vcg":
        argv = ["offline-vcg", "--model", str(path), "--out", str(out), "--sim-rounds", "10"]
    elif command == "calibrate-delta":
        argv = ["calibrate-delta", "--model", str(path), "--epsilon", "0.05"]
    else:
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"model": {"file": str(path)}, "horizon": 100}))
        argv = ["simulate", "--config", str(cfg_file), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and kind in captured.err
    # one line, too short for the 27 floats of a whole kernel
    assert "np.float64" not in captured.err and len(captured.err) < 500
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("spec, key", [
    ({"kind": "scaled", "factor": "1.5"}, "factor"),
    ({"kind": "scaled", "factor": None}, "factor"),
    ({"kind": "shifted", "offset": True}, "offset"),
    ({"kind": "adversarial_window", "windows": [[1, 50]], "inflate_to": "1"}, "inflate_to"),
    ({"kind": "adversarial_window", "windows": [[1.5, 50]]}, "windows"),
    ({"kind": "adversarial_window", "windows": [[1, 50, 80]]}, "windows"),
    ({"kind": "adversarial_window", "windows": [1, 50]}, "windows"),
    ({"kind": "by_bids", "table": [[0.5]]}, "table"),
    ({"kind": "by_bids", "table": [[[0.5] * 3] * 3]}, "table"),
    ({"kind": "adversarial_window", "windows": [[50, 10]]}, "windows"),
    ({"kind": "adversarial_window", "windows": [[10, 10]]}, "windows"),
    ({"kind": "adversarial_window", "windows": [[-5, 3]]}, "windows"),
    ({"kind": "by_bids", "table": [["0.5"] * 3] * 3}, "table"),
    ({"kind": "by_bids", "table": [[True] * 3] * 3}, "table"),
    ({"kind": "mystery"}, "kind"),
    ({"kind": "scaled", "factor": 1.2, "offset": 0.1}, "'offset'"),
    ({"kind": "truthful", "table": [[1.0]]}, "'table'"),
    ({"kind": "scaled"}, "factor"),
    ({"kind": "by_bids", "table": [[0.5] * 3, [0.5] * 3, [0.5] * 2]}, "table"),
    ("truthful", "object"),
    ({"kind": "scaled", "factor": math.nan}, "factor"),
    ({"kind": "shifted", "offset": math.inf}, "offset"),
    ({"kind": "adversarial_window", "windows": [[1, 50]], "inflate_to": math.nan}, "inflate_to"),
    ({"kind": "adversarial_window", "windows": [[1, 50]], "factor": -math.inf}, "factor"),
    ({"kind": "by_bids", "table": [[0.5, math.nan, 0.5]] + [[0.5] * 3] * 2}, "table"),
])
def test_simulate_mistyped_bidder_spec_exits_2(model_file, tmp_path, capsys, spec, key):
    """A bidder spec of the wrong type or shape, of an unknown kind, with a key
    its kind does not take or without one it needs, or with a NaN or infinite
    number, is refused by bidder and key."""
    out = tmp_path / "o"
    config = {"model": {"file": str(model_file)}, "learner": {"delta": 0.08, "zeta": 0.05},
              "bidders": [{"kind": "truthful"}, spec], "horizon": 100, "out": str(out)}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "bidder 2" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("bids", [
    [[["0.5"] * 3] * 3] * 2,
    [[[True] * 3] * 3] * 2,
    [[[0.5] * 3] * 3] * 3,  # one table more than the model's bidders
    [[[0.5] * 3] * 4] * 2,
    [[[0.5] * 2] * 3] * 2,
    [[[0.5] * 3] * 3, [[0.5] * 3] * 2],
    [[[0.5] * 3] * 3, [[0.5, math.nan, 0.5]] + [[0.5] * 3] * 2],
], ids=["strings", "bools", "extra-bidder", "wrong-S", "wrong-A", "ragged", "nan"])
def test_offline_vcg_malformed_bid_file_exits_2(model_file, tmp_path, capsys, bids):
    """A bids file must hold one (S, A) table of finite numbers per bidder of the model."""
    bid_file = tmp_path / "bids.json"
    bid_file.write_text(json.dumps(bids))
    out = tmp_path / "mech.json"
    assert main(["offline-vcg", "--model", str(model_file), "--bids", str(bid_file),
                 "--out", str(out), "--sim-rounds", "0"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "(n, S, A) = (2, 3, 3)" in err
    assert not out.exists()


@pytest.mark.parametrize("entry, value", [((1, 2, 0), 1.5), ((0, 0, 1), -0.25),
                                          ((1, 1, 1), 1 + 1e-9)])
def test_offline_vcg_bid_out_of_range_exits_2(model_file, tmp_path, capsys, entry, value):
    """A bid outside [0, 1], beyond BidProfile's tolerance, is refused by the
    file and the first such entry before anything is written."""
    bids = np.full((2, 3, 3), 0.5)
    bids[entry] = value
    bids[1, 2, 2] = 7.0  # a later entry out of range: the first one is named
    bid_file = tmp_path / "bids.json"
    bid_file.write_text(json.dumps(bids.tolist()))
    out = tmp_path / "mech.json"
    assert main(["offline-vcg", "--model", str(model_file), "--bids", str(bid_file),
                 "--out", str(out), "--sim-rounds", "0"]) == 2
    err = capsys.readouterr().err
    assert (f"{bid_file}: bids must lie in [0, 1]; entry (i, s, a) = {entry} is {value!r}"
            in err)
    assert not out.exists()


def test_offline_vcg_bids_within_tolerance_are_accepted(model_file, tmp_path):
    """Bids off [0, 1] by no more than BidProfile's tolerance pass, as BidProfile takes them."""
    bids = np.full((2, 3, 3), 0.5)
    bids[0, 0, 0], bids[1, 2, 2] = -1e-13, 1 + 1e-13
    bid_file = tmp_path / "bids.json"
    bid_file.write_text(json.dumps(bids.tolist()))
    out = tmp_path / "mech.json"
    assert main(["offline-vcg", "--model", str(model_file), "--bids", str(bid_file),
                 "--out", str(out), "--sim-rounds", "0"]) == 0
    assert out.exists()


def test_simulate_model_file_and_generator_exits_2(model_file, tmp_path, capsys):
    """A config naming both a model file and a generator is refused, not run on the file."""
    out = tmp_path / "o"
    config = {"model": {"file": str(model_file),
                        "generator": {"S": 3, "n": 2, "alpha": 0.25, "A": 3}},
              "horizon": 100, "out": str(out)}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "model.file" in err and "model.generator" in err
    assert not out.exists()


def test_simulate_flags_override_the_config_file(model_file, tmp_path):
    """--horizon drops the file's episodes; --seeds, --out and --format replace theirs."""
    config = {"model": {"file": str(model_file)}, "learner": {"delta": 0.08, "zeta": 0.05},
              "episodes": 1, "seeds": [5], "out": str(tmp_path / "file_out"), "format": "csv"}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "flag_out"
    assert main(["simulate", "--config", str(cfg_file), "--horizon", "300", "--seeds", "2",
                 "--out", str(out), "--format", "json"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [0, 1] and summary["final_regrets"]["t"] == 300
    assert summary["config_hash"] == config_hash(ExperimentConfig(
        model_file=str(model_file), delta=0.08, zeta=0.05, horizon=300, format="json"))
    assert (out / "results.json").exists() and not (out / "regret.csv").exists()
    assert not (tmp_path / "file_out").exists()


def test_missing_model_file_exits_3(tmp_path, capsys):
    assert main(["offline-vcg", "--model", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.json")]) == 3
    assert "runtime error" in capsys.readouterr().err


def test_invalid_learner_parameters_exit_2(model_file, tmp_path):
    config = {
        "model": {"file": str(model_file)},
        "learner": {"delta": 0.5, "zeta": 0.05},  # delta > 1/(S*A)
        "horizon": 100,
        "seeds": [0],
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_file)]) == 2


def test_simulate_unknown_config_key_exits_2(model_file, tmp_path, capsys):
    """A misspelt key is refused by name instead of running on a default."""
    base = {"model": {"file": str(model_file)}, "horizon": 100, "out": str(tmp_path / "o")}
    generator = {"S": 3, "n": 2, "alpha": 0.2, "A": 3}
    cases = [
        ({**base, "horizn": 5000}, "horizn"),
        ({**base, "model": {"file": str(model_file), "sed": 3}}, "sed"),
        ({**base, "model": {"generator": {**generator, "familly": "deterministic"}}},
         "familly"),
        ({**base, "learner": {"delat": 0.05}}, "delat"),
        ({**base, "bidders": [{"kind": "truthful"},  # "factr" for "factor"
                              {"kind": "adversarial_window", "windows": [[1, 5]],
                               "factr": 3.0, "inflate_to": None}]}, "factr"),
    ]
    cfg_file = tmp_path / "config.json"
    for doc, key in cases:
        cfg_file.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and repr(key) in err
    assert not (tmp_path / "o").exists()


def test_simulate_empty_or_repeated_seeds_exit_2(model_file, tmp_path, capsys):
    """No seed, or a seed given twice, is refused before anything is written."""
    out = tmp_path / "o"
    config = {"model": {"file": str(model_file)}, "horizon": 100, "out": str(out)}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    for flags, message in ((["--seeds", "0"], "at least one seed"),
                           (["--seed-list", "1", "1"], "seeds must be distinct; repeated: 1"),
                           (["--seed-list", "3", "1", "3"], "repeated: 3")):
        assert main(["simulate", "--config", str(cfg_file), "--record-rounds"] + flags) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
    cfg_file.write_text(json.dumps({**config, "seeds": []}))
    assert main(["simulate", "--config", str(cfg_file)]) == 2
    assert "at least one seed" in capsys.readouterr().err
    assert not out.exists()


def _simulate_with_failing_lp(model_file, tmp_path, monkeypatch, status, fails):
    """Run ``simulate`` with the HiGHS model status ``status`` on the solves
    whose model ``fails(model)`` picks; the others are solved for real."""
    real = polytope_mod._run

    def injected(model):
        return status if fails(model) else real(model)

    monkeypatch.setattr(polytope_mod, "_run", injected)
    config = {"model": {"file": str(model_file)}, "learner": {"delta": 0.08, "zeta": 0.05},
              "horizon": 1500, "seeds": [0], "out": str(tmp_path / "o")}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    return main(["simulate", "--config", str(cfg_file)])


def test_lp_solver_failure_exits_3(model_file, tmp_path, monkeypatch, capsys):
    code = _simulate_with_failing_lp(model_file, tmp_path, monkeypatch,
                                     HighsModelStatus.kSolveError, lambda model: True)
    assert code == 3
    err = capsys.readouterr().err
    assert "runtime error" in err and "LP solver failed (status 4)" in err


def test_infeasible_episode_lp_exits_2(model_file, tmp_path, monkeypatch, capsys):
    """The first episode's band LP (the only one that presolves; the benchmark
    mechanism solves no LP) reports infeasible."""
    code = _simulate_with_failing_lp(model_file, tmp_path, monkeypatch,
                                     HighsModelStatus.kInfeasible,
                                     lambda model: model.getOptionValue("presolve")[1] == "on")
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "allocation LP infeasible" in err
