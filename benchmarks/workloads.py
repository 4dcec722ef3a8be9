"""The three benchmark workloads: seeded inputs, one timed operation, its check.

Each workload is a closed loop in one process: operation j+1 starts when
operation j has returned. ``input(j)`` gives the j-th input, ``run`` is the
timed call into the program, ``check`` lists what is wrong with its output
(empty when correct) and ``work`` counts the rounds or mechanisms it did.
Why each workload exists is written in README.md next to this file.

Inputs come only from the benchmark seed. The sim workloads draw
(model seed, sim seed) pairs from a fixed pool whose final regrets were
recorded in reference.json (see record_reference.py); the seed picks the
order in which the pool is visited. offline_batch draws its random models
and bid deviations directly from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from mdpvcg import cli, harness, offline
from mdpvcg.mdp import GeneratorSpec, generate_model
from mdpvcg.offline import BidProfile
from mdpvcg.tolerances import TOL

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Final regrets must match reference.json to within ABS + REL * |reference|.
REF_ABS = 1e-6
REF_REL = 1e-9
# reg_sw == reg_sell + reg_bid at every checkpoint t, to within IDENTITY_PER_ROUND * t.
IDENTITY_PER_ROUND = 1e-9
# A deviating bidder may gain at most this much average utility (acceptance criterion 02).
TRUTHFUL_SLACK = 1e-7

QUICK_START = GeneratorSpec(S=3, A=3, n=2, alpha=0.2, reward_family="bernoulli-scaled")
LARGE = GeneratorSpec(S=10, n=3, alpha=0.09, auction="combinatorial", items=2)  # A = 16
WORKLOAD_IDS = {"sim_large": 2, "offline_batch": 3, "rounds_export": 4}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[name]])


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REF_ABS + REF_REL * abs(ref)


def final_regrets(result, i: int = 0) -> dict:
    rep = result.report
    return {name: float(getattr(rep, name)[i, -1]) for name in ("reg_sw", "reg_sell", "reg_bid")}


def _regret_problems(result, reference: dict, horizon: int) -> list:
    out = []
    rep = result.report
    if int(rep.checkpoints[-1]) != horizon:
        out.append(f"ran to t={int(rep.checkpoints[-1])}, expected {horizon}")
    t = rep.checkpoints.astype(np.float64)
    gap = np.abs(rep.reg_sw - (rep.reg_sell + rep.reg_bid))
    if np.any(gap > IDENTITY_PER_ROUND * t):
        out.append(f"reg_sw != reg_sell + reg_bid (max gap {gap.max():.3e})")
    for i, seed in enumerate(result.config.seeds):
        ref = reference.get(str(seed))
        if ref is None:
            out.append(f"no reference for sim seed {seed}")
            continue
        for name, value in final_regrets(result, i).items():
            if not _close(value, ref[name]):
                out.append(f"seed {seed} {name}={value!r}, reference {ref[name]!r}")
    return out


class SimWorkload:
    """``run_online`` for one (model seed, sim seed) pair per operation."""

    item = "rounds"
    rounds = 60_000  # rounds per op
    model_seeds = range(8)
    sim_seeds = range(2)

    def __init__(self, seed: int, out_dir: Path, reference: dict):
        self.reference = reference.get(self.name, {})
        self.pool = [(m, s) for m in self.model_seeds for s in self.sim_seeds]
        self.order = _rng(self.name, seed).permutation(len(self.pool))

    def config(self, model_seed: int, sim_seed: int):
        raise NotImplementedError

    def input(self, j: int):
        m, s = self.pool[self.order[j % len(self.pool)]]
        return self.config(m, s)

    def run(self, config):
        return harness.run_online(config)

    def check(self, config, result) -> list:
        ref = self.reference.get(str(config.model_seed), {})
        return _regret_problems(result, ref, self.rounds)

    def work(self, inp, result) -> int:
        return self.rounds

    def warm_up(self):
        harness.run_online(replace(self.input(0), horizon=2000, episodes=None))


class SimLarge(SimWorkload):
    name = "sim_large"
    rounds = 63_772  # episode 1 at this size: d_1 + l_1 rounds

    def config(self, model_seed, sim_seed):
        A = LARGE.num_actions()
        delta = min(1.0 / (LARGE.S * A), LARGE.alpha / A)  # largest feasible floor
        return harness.ExperimentConfig(
            generator=LARGE, model_seed=model_seed, delta=delta, zeta=0.05,
            episodes=1, seeds=(sim_seed,))


class RoundsExport(SimWorkload):
    """``mdpvcg simulate --record-rounds --format csv`` with two lying bidders."""

    name = "rounds_export"
    bidders = ({"kind": "adversarial_window", "windows": [[20_000, 40_000]]},
               {"kind": "scaled", "factor": 1.5})

    def __init__(self, seed, out_dir, reference):
        super().__init__(seed, out_dir, reference)
        self.out_dir = out_dir
        self.config_files = {}
        for m in self.model_seeds:
            doc = {
                "model": {"generator": {
                    "S": QUICK_START.S, "A": QUICK_START.A, "n": QUICK_START.n,
                    "alpha": QUICK_START.alpha,
                    "reward_family": QUICK_START.reward_family}, "seed": m},
                "learner": {"delta": 0.01, "zeta": 0.05},
                "bidders": list(self.bidders),
                "horizon": self.rounds,
            }
            path = out_dir / f"config_m{m}.json"
            path.write_text(json.dumps(doc))
            self.config_files[m] = path

    def input(self, j):
        m, s = self.pool[self.order[j % len(self.pool)]]
        return m, s

    def argv(self, model_seed, sim_seed, horizon=None):
        argv = ["simulate", "--config", str(self.config_files[model_seed]),
                "--seed-list", str(sim_seed), "--out", str(self.out_dir / "run"),
                "--record-rounds", "--format", "csv"]
        return argv + (["--horizon", str(horizon)] if horizon else [])

    def run(self, inp, horizon=None):
        """Returns (exit code, the in-memory result the CLI exported)."""
        captured = []
        run_online = cli.run_online

        def capture(*args, **kwargs):
            captured.append(run_online(*args, **kwargs))
            return captured[-1]

        cli.run_online = capture
        try:  # the CLI's progress lines are kept off the benchmark's stdout
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(*inp, horizon=horizon))
        finally:
            cli.run_online = run_online
        return code, (captured[-1] if captured else None)

    def check(self, inp, out) -> list:
        m, s = inp
        code, result = out
        if code != 0 or result is None:
            return [f"mdpvcg simulate exited with {code}"]
        problems = _regret_problems(result, self.reference.get(str(m), {}), self.rounds)
        run_dir = self.out_dir / "run"
        rounds_csv = run_dir / f"rounds_seed{s}.csv"
        lines = rounds_csv.read_bytes().count(b"\n")
        if lines != self.rounds + 1:
            problems.append(f"{rounds_csv.name} has {lines} lines, expected {self.rounds + 1}")
        summary = json.loads((run_dir / "summary.json").read_text())
        rep = result.report
        expected = {
            "config_hash": result.config_hash,
            "benchmark": {"welfare": rep.benchmark_welfare,
                          "seller": rep.benchmark_seller,
                          "bidders": rep.benchmark_bidders},
            "final_regrets": {"t": int(rep.checkpoints[-1]),
                              "reg_sw": float(rep.mean_reg_sw[-1]),
                              "reg_sell": float(rep.mean_reg_sell[-1]),
                              "reg_bid": float(rep.mean_reg_bid[-1])},
            "episode_schedule": [{"k": e.k, "tau": e.tau, "d": e.d, "l": e.l}
                                 for e in result.seed_results[0].episodes],
            "seeds": list(result.config.seeds),
        }
        for key, value in expected.items():
            if summary.get(key) != value:
                problems.append(f"summary.json {key} differs from the in-memory result")
        return problems

    def warm_up(self):
        code, _ = self.run(self.input(0), horizon=2000)
        if code != 0:
            raise RuntimeError(f"warm-up simulate exited with {code}")


class OfflineBatch:
    """Truthfulness probes: each model's truthful mechanism, then 4 deviations per bidder.

    Models have S, A in [2, 4] and n in [1, 3], as in the acceptance tests.

    One operation is one ``offline_mechanism`` plus ``average_utilities``.
    The truthful operation of a model comes first, so the deviations that
    follow can be checked against its utilities.
    """

    name = "offline_batch"
    item = "mechanisms"
    # Every cycle visits each (S, A, n) once, in a seed-drawn order, so the
    # mix of LP sizes in a run does not depend on the seed.
    sizes = [(S, A, n) for S in (2, 3, 4) for A in (2, 3, 4) for n in (1, 2, 3)]
    cycles = 30  # 7 290 mechanisms: about 2x what a 36 s run uses today
    deviations_per_bidder = 4

    def __init__(self, seed: int, out_dir: Path, reference: dict):
        rng = _rng(self.name, seed)
        self.inputs = []  # (model index, model, bid tables, deviating bidder or None)
        order = [i for _ in range(self.cycles) for i in rng.permutation(len(self.sizes))]
        for k, size in enumerate(order):
            S, A, n = self.sizes[size]
            alpha = float(rng.uniform(0.05, 0.9 / S))
            model = generate_model(GeneratorSpec(S=S, A=A, n=n, alpha=alpha),
                                   int(rng.integers(2**31)))
            truthful = model.reward_means[1:].copy()
            self.inputs.append((k, model, truthful, None))
            for i in range(n):
                for _ in range(self.deviations_per_bidder):
                    tables = truthful.copy()
                    tables[i] = rng.random((S, A))
                    self.inputs.append((k, model, tables, i))
        self.truthful_utilities = {}

    def input(self, j):
        return self.inputs[j % len(self.inputs)]

    def run(self, inp):
        _, model, tables, _ = inp
        mech = offline.offline_mechanism(BidProfile(tables), model.reward_means[0],
                                         model.kernel)
        utilities = offline.average_utilities(mech, model.reward_means, model.kernel)
        return mech, utilities

    def check(self, inp, out) -> list:
        k, model, _, deviator = inp
        mech, (_, ui, _) = out
        problems = list(mech.violations())
        if deviator is None:
            lhs, rhs = offline.seller_utility_identity(mech, model.reward_means, model.kernel)
            if not abs(lhs - rhs) <= TOL.identity:
                problems.append(f"seller identity residual {abs(lhs - rhs):.3e}")
            self.truthful_utilities[k] = ui
            return problems
        truthful = self.truthful_utilities.get(k)
        if truthful is None:
            problems.append(f"model {k}: truthful mechanism did not run")
        elif not ui[deviator] <= truthful[deviator] + TRUTHFUL_SLACK:
            problems.append(f"model {k}: bidder {deviator + 1} gains "
                            f"{ui[deviator] - truthful[deviator]:.3e} by lying")
        return problems

    def work(self, inp, out):
        return 1

    def warm_up(self):
        _, model, tables, _ = self.inputs[0]
        offline.offline_mechanism(BidProfile(tables), model.reward_means[0], model.kernel)


WORKLOADS = {w.name: w for w in (SimLarge, OfflineBatch, RoundsExport)}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}


def make(name: str, seed: int, out_dir: Path):
    return WORKLOADS[name](seed, out_dir, load_reference())

