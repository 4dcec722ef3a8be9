"""Command line entry point.

Subcommands:
  offline-vcg      solve the offline mechanism for a model file
  simulate         run the online learning experiment from a config file
  calibrate-delta  shrink-size calibration for a model file

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harness import ExperimentConfig, export, load_bids, run_offline, run_online
from .mdp import _create, load_model
from .online import ConfigurationError
from .polytope import calibrate_delta


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpvcg",
        description="Average-reward MDP auctions: offline VCG and online learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    off = sub.add_parser("offline-vcg", help="solve the offline mechanism")
    off.add_argument("--model", required=True, help="model JSON file")
    off.add_argument("--bids", help="bid tables JSON [n][S][A]; default truthful")
    off.add_argument("--out", required=True, help="output JSON file")
    off.add_argument("--sim-rounds", type=int, default=100_000,
                     help="rollout length for the empirical cross-check")

    simp = sub.add_parser("simulate", help="run the online experiment")
    simp.add_argument("--config", required=True, help="experiment config JSON")
    group = simp.add_mutually_exclusive_group()
    group.add_argument("--seeds", type=int, help="use seeds 0..n-1")
    group.add_argument("--seed-list", type=int, nargs="+", help="explicit seeds")
    simp.add_argument("--horizon", type=int, help="override the horizon")
    simp.add_argument("--out", help="output directory (overrides config)")
    simp.add_argument("--format", choices=("csv", "json"), help="output format")
    simp.add_argument("--record-rounds", action="store_true",
                      help="export every round: rounds_seed<k>.csv per seed with csv, "
                           "a rounds entry in results.json with json (large on disk for "
                           "long horizons, but written as played, not held in memory)")

    cal = sub.add_parser("calibrate-delta", help="calibrate the shrink size")
    cal.add_argument("--model", required=True, help="model JSON file")
    cal.add_argument("--epsilon", type=float, required=True,
                     help="acceptable welfare loss from shrinking")
    return parser


def _cmd_offline(args) -> int:
    model = load_model(args.model)
    bids = load_bids(args.bids, model) if args.bids else None
    out = run_offline(model, bids=bids, sim_rounds=args.sim_rounds)
    with _create(args.out, "w") as fh:
        fh.write(json.dumps(out, indent=1, sort_keys=True))
    print(f"wrote {args.out} (welfare {out['welfare']:.6f}, "
          f"identity residual {out['identity_residual']:.2e})")
    return 0


def _cmd_simulate(args) -> int:
    doc = json.loads(Path(args.config).read_text())
    if isinstance(doc, dict):  # the flags override the file; from_dict refuses a non-object
        seeds = list(range(args.seeds)) if args.seeds is not None else args.seed_list
        flags = {"seeds": seeds, "horizon": args.horizon, "out": args.out, "format": args.format}
        doc.update((key, value) for key, value in flags.items() if value is not None)
        if args.horizon is not None:
            doc.pop("episodes", None)
    config = ExperimentConfig.from_dict(doc)
    result = run_online(config, record_rounds=args.record_rounds)
    paths = export(result, config.out)
    final = result.report.mean_reg_sw[-1]
    t_final = result.report.checkpoints[-1]
    print(f"config {result.config_hash}: {len(config.seeds)} seed(s), T={t_final}, "
          f"mean Reg_SW(T)/T = {final / t_final:.5f}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_calibrate(args) -> int:
    model = load_model(args.model)
    objective = model.reward_means.sum(axis=0)
    delta = calibrate_delta(model.kernel, objective, args.epsilon)
    print(json.dumps({"delta": delta, "epsilon": args.epsilon}))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "offline-vcg":
            return _cmd_offline(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_calibrate(args)
    except (ValueError, KeyError, json.JSONDecodeError, ConfigurationError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, np.linalg.LinAlgError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
