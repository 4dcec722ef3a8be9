"""Experiment runner: model + seller + bidder strategies, regret accounting, export.

The benchmark is always the offline mechanism computed on the true model with
true mean rewards; its exact average welfare / seller utility / bidders'
utility are compared against realized cumulative sums, seed by seed. The
three regrets satisfy reg_sw = reg_sell + reg_bid identically at every
checkpoint because the per-round identities u_0 + sum_i u_i = R and
w* = u_0* + sum_i u_i* both telescope.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bidders import BidderStrategy, make_reporter, strategy_from_spec, truthful
from .mdp import GeneratorSpec, MdpModel, SimState, generate_model, load_model, step
from .occupancy import occupancy_from
from .offline import BidProfile, Mechanism, average_utilities, offline_mechanism, seller_utility_identity
from .online import (ConfigurationError, LearnerConfig, OnlineVcgLearner, RoundDecision,
                     episode_lengths, episode_schedule)
from .tolerances import TOL

logger = logging.getLogger(__name__)


# -- configuration ----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Mirror of the JSON experiment file; see ``from_dict`` for the schema."""

    generator: Optional[GeneratorSpec] = None
    model_file: Optional[str] = None
    model_seed: int = 0
    delta: float = 0.05
    zeta: float = 0.05
    epsilon: float = 0.05
    alpha: Optional[float] = None      # defaults to the model's margin
    variant: str = "seller_favorable"
    bidders: tuple = ()                # strategy spec dicts, one per bidder
    horizon: Optional[int] = None
    episodes: Optional[int] = None
    seeds: tuple = (0,)
    out: str = "results"
    format: str = "csv"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        model = doc.get("model", {})
        gen = None
        if "generator" in model:
            gen = GeneratorSpec(**model["generator"])
        learner = doc.get("learner", {})
        return cls(
            generator=gen,
            model_file=model.get("file"),
            model_seed=int(model.get("seed", 0)),
            delta=float(learner.get("delta", 0.05)),
            zeta=float(learner.get("zeta", 0.05)),
            epsilon=float(learner.get("epsilon", 0.05)),
            alpha=learner.get("alpha"),
            variant=learner.get("variant", "seller_favorable"),
            bidders=tuple(doc.get("bidders", ())),
            horizon=doc.get("horizon"),
            episodes=doc.get("episodes"),
            seeds=tuple(doc.get("seeds", (0,))),
            out=doc.get("out", "results"),
            format=doc.get("format", "csv"),
        )

    def to_dict(self) -> dict:
        model = {"seed": self.model_seed}
        if self.generator is not None:
            model["generator"] = asdict(self.generator)
        if self.model_file is not None:
            model["file"] = self.model_file
        return {
            "model": model,
            "learner": {
                "delta": self.delta, "zeta": self.zeta, "epsilon": self.epsilon,
                "alpha": self.alpha, "variant": self.variant,
            },
            "bidders": list(self.bidders),
            "horizon": self.horizon,
            "episodes": self.episodes,
            "seeds": list(self.seeds),
            "out": self.out,
            "format": self.format,
        }


def config_hash(config: ExperimentConfig) -> str:
    """Digest of everything except the seed list (seeds vary, hash must not)."""
    doc = config.to_dict()
    doc.pop("seeds")
    doc.pop("out")
    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def resolve_model(config: ExperimentConfig) -> MdpModel:
    if config.model_file is not None:
        return load_model(config.model_file)
    if config.generator is None:
        raise ValueError("config needs either model.file or model.generator")
    return generate_model(config.generator, config.model_seed)


def learner_config(config: ExperimentConfig, model: MdpModel) -> LearnerConfig:
    return LearnerConfig(
        S=model.S, A=model.A, n=model.n,
        alpha=model.alpha if config.alpha is None else float(config.alpha),
        delta=config.delta, zeta=config.zeta, epsilon=config.epsilon,
        c_max=model.c_max, variant=config.variant,
    )


def resolve_strategies(config: ExperimentConfig, model: MdpModel) -> list:
    specs = config.bidders or tuple({"kind": "truthful"} for _ in range(model.n))
    if len(specs) != model.n:
        raise ValueError(f"{len(specs)} strategies for {model.n} bidders")
    return [strategy_from_spec(dict(d)) for d in specs]


def resolve_horizon(config: ExperimentConfig, lcfg: LearnerConfig) -> int:
    if config.horizon is not None:
        return int(config.horizon)
    if config.episodes is not None:
        return int(episode_schedule(lcfg, int(config.episodes))[-1] - 1)
    raise ValueError("config needs horizon or episodes")


# -- per-round and per-episode records ---------------------------------------

@dataclass
class RoundRecord:
    t: int
    k: int
    phase: str
    s: int
    a: int
    rewards: np.ndarray   # realized, all players, seller first
    bids: np.ndarray      # reported values
    charges: np.ndarray   # payments this round
    u0: float
    ui: np.ndarray
    R: float


@dataclass
class EpisodeRecord:
    k: int
    tau: int
    d: int
    l: int
    policy_min: float            # smallest entry of the policy played in k
    unvisited: int               # (s,a) pairs never visited during episode k
    band_contains_truth: bool
    rewards_in_bounds: bool
    band_width_max: float
    payment_order_ok: bool       # seller-favorable >= bidder-favorable everywhere
    rho_gap: float               # diagnostic: ||rho_hat - rho_true|| for next policy
    rho_gap_bound: float


@dataclass
class SeedRunResult:
    seed: int
    horizon: int
    checkpoints: np.ndarray
    cum_welfare: np.ndarray      # realized sum of R^t at each checkpoint
    cum_seller: np.ndarray
    cum_bidders: np.ndarray
    cum_per_bidder: np.ndarray   # (n, n_checkpoints)
    episodes: list
    rounds: Optional[list] = None
    learner_state: Optional[dict] = None


@dataclass
class RegretReport:
    benchmark_welfare: float
    benchmark_seller: float
    benchmark_bidders: float
    checkpoints: np.ndarray
    reg_sw: np.ndarray    # (n_seeds, n_checkpoints)
    reg_sell: np.ndarray
    reg_bid: np.ndarray

    @property
    def mean_reg_sw(self) -> np.ndarray:
        return self.reg_sw.mean(axis=0)

    @property
    def mean_reg_sell(self) -> np.ndarray:
        return self.reg_sell.mean(axis=0)

    @property
    def mean_reg_bid(self) -> np.ndarray:
        return self.reg_bid.mean(axis=0)


@dataclass
class OnlineRunResult:
    config: ExperimentConfig
    config_hash: str
    benchmark: dict               # exact scalars from the offline mechanism
    mechanism: Mechanism
    report: RegretReport
    seed_results: list


# -- sellers ------------------------------------------------------------------

class ClairvoyantSeller:
    """Stub that plays the offline mechanism from round 1; nothing to learn."""

    episode_complete = False

    def __init__(self, mechanism: Mechanism):
        self.policy = mechanism.allocation
        self.payments = mechanism.payments
        self._cdf = np.cumsum(self.policy, axis=1)
        self._pay = np.ascontiguousarray(self.payments.transpose(1, 2, 0))
        self.k = 0

    def act(self, s: int, rng: np.random.Generator) -> RoundDecision:
        a = int(self._cdf[s].searchsorted(rng.random(), side="right"))
        if a >= self.policy.shape[1]:
            a = self.policy.shape[1] - 1
        return RoundDecision(action=a, charges=self._pay[s, a],
                             phase="stationary", episode=0)

    def observe(self, s, a, s2, seller_reward, bids) -> None:
        pass


# -- simulation loop ----------------------------------------------------------

def checkpoint_grid(horizon: int, boundaries=(), extra=()) -> np.ndarray:
    """Powers of two plus episode boundaries plus the horizon and extras."""
    pts = {horizon}
    p = 1
    while p <= horizon:
        pts.add(p)
        p *= 2
    pts.update(int(b) for b in boundaries if 1 <= b <= horizon)
    pts.update(int(e) for e in extra if 1 <= e <= horizon)
    return np.array(sorted(pts), dtype=np.int64)


def simulate_run(model: MdpModel, seller, strategies: Sequence[BidderStrategy],
                 horizon: int, seed: int, checkpoints: np.ndarray,
                 record_rounds: bool = False,
                 keep_learner: bool = False) -> SeedRunResult:
    """One seeded pass of the online protocol; diagnostics when seller learns."""
    n = model.n
    ss = np.random.SeedSequence(seed)
    env_seed, seller_seed = ss.spawn(2)
    sim = SimState.start(model, env_seed)
    rng_seller = np.random.default_rng(seller_seed)

    learning = isinstance(seller, OnlineVcgLearner)
    episode_counts = seller.counts.copy() if learning else None
    caps = model.reward_caps()
    reporters = [make_reporter(st) for st in strategies]
    idx = list(range(n))

    ncp = len(checkpoints)
    cum_welfare = np.zeros(ncp)
    cum_seller = np.zeros(ncp)
    cum_bidders = np.zeros(ncp)
    cum_per_bidder = np.zeros((n, ncp))
    cw = cs = 0.0
    cpb = [0.0] * n
    cp_idx = 0
    next_cp = int(checkpoints[0]) if ncp else horizon + 1

    episodes: list = []
    rounds: Optional[list] = [] if record_rounds else None
    act = seller.act
    observe = seller.observe

    for t in range(1, horizon + 1):
        s = sim.s
        dec = act(s, rng_seller)
        a = dec.action
        s2, rewards = step(model, sim, a)
        bids = [reporters[i](t, s, a, rewards[i + 1]) for i in idx]
        observe(s, a, s2, rewards[0], bids)

        charges = dec.charges
        r0 = rewards[0]
        bidder_total = 0.0
        pay_total = 0.0
        for i in idx:
            bidder_total += rewards[i + 1]
            pay_total += charges[i]
            cpb[i] += rewards[i + 1] - charges[i]
        cw += r0 + bidder_total
        cs += r0 + pay_total

        if record_rounds:
            rr = np.array(rewards)
            ch = np.array(charges)
            rounds.append(RoundRecord(
                t=t, k=dec.episode, phase=dec.phase, s=s, a=a,
                rewards=rr, bids=np.array(bids), charges=ch,
                u0=r0 + pay_total, ui=rr[1:] - ch,
                R=r0 + bidder_total,
            ))
        if t == next_cp:
            cum_welfare[cp_idx] = cw
            cum_seller[cp_idx] = cs
            # payments cancel: sum_i u_i^t == R^t - u_0^t identically
            cum_bidders[cp_idx] = cw - cs
            cum_per_bidder[:, cp_idx] = cpb
            cp_idx += 1
            next_cp = int(checkpoints[cp_idx]) if cp_idx < ncp else horizon + 1

        if learning and seller.episode_complete:
            k = seller.k
            pre = {
                "k": k, "tau": seller.tau_k, "d": seller.d_k, "l": seller.l_k,
                "policy_min": float(seller.policy.min()),
                "unvisited": int(np.count_nonzero(seller.counts == episode_counts)),
            }
            seller.end_episode()
            episodes.append(_episode_diagnostics(seller, model, caps, pre))
            episode_counts = seller.counts.copy()

    return SeedRunResult(
        seed=seed, horizon=horizon, checkpoints=checkpoints,
        cum_welfare=cum_welfare, cum_seller=cum_seller, cum_bidders=cum_bidders,
        cum_per_bidder=cum_per_bidder, episodes=episodes, rounds=rounds,
        learner_state=seller.to_checkpoint() if (learning and keep_learner) else None,
    )


def _episode_diagnostics(learner: OnlineVcgLearner, model: MdpModel,
                         caps: np.ndarray, pre: dict) -> EpisodeRecord:
    tol = TOL.exact
    in_band = bool(np.all(model.kernel >= learner.band_lower - tol)
                   and np.all(model.kernel <= learner.band_upper + tol))
    in_bounds = bool(np.all(model.reward_means >= learner.reward_lcb - tol)
                     and np.all(model.reward_means <= learner.reward_ucb + tol))
    order_ok = bool(np.all(learner.payments_seller >= learner.payments_bidder - TOL.mass))
    # Occupancy mismatch of the newly chosen policy against the true kernel,
    # next to its high-probability bound (diagnostic only, never asserted).
    cfg = learner.config
    k = pre["k"]
    rho_true = occupancy_from(model.kernel, learner.policy).rho
    rho_gap = float(np.abs(learner.q_hat.rho - rho_true).sum())
    log_term = math.log(cfg.A * cfg.S * k / cfg.zeta)
    rho_bound = (6.0 / (cfg.alpha * math.sqrt(cfg.S)) * math.sqrt(log_term / k)
                 + 20.0 / cfg.alpha * log_term / k)
    return EpisodeRecord(
        k=k, tau=pre["tau"], d=pre["d"], l=pre["l"],
        policy_min=pre["policy_min"], unvisited=pre["unvisited"],
        band_contains_truth=in_band, rewards_in_bounds=in_bounds,
        band_width_max=float((learner.band_upper - learner.band_lower).max()),
        payment_order_ok=order_ok, rho_gap=rho_gap, rho_gap_bound=rho_bound,
    )


# -- top-level runners --------------------------------------------------------

def compute_benchmark(model: MdpModel):
    """Offline mechanism under truthful bids plus its exact utility scalars."""
    mech = offline_mechanism(BidProfile.truthful(model), model.reward_means[0],
                             model.kernel)
    u0, ui, welfare = average_utilities(mech, model.reward_means, model.kernel)
    lhs, rhs = seller_utility_identity(mech, model.reward_means, model.kernel)
    return mech, {
        "welfare": welfare,
        "seller": u0,
        "bidders": float(ui.sum()),
        "per_bidder": ui,
        "identity_residual": abs(lhs - rhs),
    }


def run_online(config: ExperimentConfig, strategies: Optional[list] = None,
               record_rounds: bool = False, extra_checkpoints=(),
               seller_factory=None, keep_learner: bool = False) -> OnlineRunResult:
    """Full multi-seed online experiment against the offline benchmark."""
    model = resolve_model(config)
    lcfg = learner_config(config, model)
    if strategies is None:
        strategies = resolve_strategies(config, model)
    horizon = resolve_horizon(config, lcfg)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    mech, bench = compute_benchmark(model)

    if seller_factory is None:
        seller_factory = lambda: OnlineVcgLearner(lcfg)
        boundaries = episode_schedule(lcfg, _episodes_within(lcfg, horizon)) - 1
    else:
        boundaries = ()
    checkpoints = checkpoint_grid(horizon, boundaries, extra_checkpoints)

    seed_results = []
    for seed in config.seeds:
        try:
            seed_results.append(simulate_run(
                model, seller_factory(), strategies, horizon, int(seed),
                checkpoints, record_rounds=record_rounds, keep_learner=keep_learner))
        except ConfigurationError as e:
            raise ConfigurationError(f"seed {seed}: {e}") from e

    t = checkpoints.astype(np.float64)
    reg_sw = np.array([bench["welfare"] * t - r.cum_welfare for r in seed_results])
    reg_sell = np.array([bench["seller"] * t - r.cum_seller for r in seed_results])
    reg_bid = np.array([bench["bidders"] * t - r.cum_bidders for r in seed_results])
    report_ = RegretReport(
        benchmark_welfare=bench["welfare"], benchmark_seller=bench["seller"],
        benchmark_bidders=bench["bidders"], checkpoints=checkpoints,
        reg_sw=reg_sw, reg_sell=reg_sell, reg_bid=reg_bid,
    )
    return OnlineRunResult(
        config=config, config_hash=config_hash(config), benchmark=bench,
        mechanism=mech, report=report_, seed_results=seed_results,
    )


def _episodes_within(lcfg: LearnerConfig, horizon: int) -> int:
    k = 0
    t = 1
    while t <= horizon:
        k += 1
        d, l = episode_lengths(k, lcfg.alpha, lcfg.S, lcfg.A, lcfg.delta, lcfg.zeta)
        t += d + l
    return k


def run_clairvoyant(config: ExperimentConfig, extra_checkpoints=()) -> OnlineRunResult:
    """Benchmark playing itself: the offline (pi*, p*) charged from round 1."""
    model = resolve_model(config)
    mech, _ = compute_benchmark(model)
    return run_online(
        config, strategies=[truthful() for _ in range(model.n)],
        extra_checkpoints=extra_checkpoints,
        seller_factory=lambda: ClairvoyantSeller(mech),
    )


def run_offline(config: ExperimentConfig, bids: Optional[BidProfile] = None,
                sim_rounds: int = 100_000, sim_seed: int = 0) -> dict:
    """Offline mechanism plus exact utilities and a Monte Carlo cross-check."""
    model = resolve_model(config)
    if bids is None:
        bids = BidProfile.truthful(model)
    mech = offline_mechanism(bids, model.reward_means[0], model.kernel)
    u0, ui, welfare = average_utilities(mech, model.reward_means, model.kernel)
    lhs, rhs = seller_utility_identity(mech, model.reward_means, model.kernel)

    empirical = None
    if sim_rounds > 0:
        strategies = [truthful() for _ in range(model.n)]
        cps = np.array([sim_rounds], dtype=np.int64)
        run = simulate_run(model, ClairvoyantSeller(mech), strategies,
                           sim_rounds, sim_seed, cps)
        empirical = {
            "welfare": float(run.cum_welfare[0] / sim_rounds),
            "seller": float(run.cum_seller[0] / sim_rounds),
            "per_bidder": (run.cum_per_bidder[:, 0] / sim_rounds).tolist(),
            "rounds": sim_rounds,
        }
    return {
        "mechanism": mech,
        "allocation": mech.allocation.tolist(),
        "payments": mech.payments.tolist(),
        "welfare": welfare,
        "seller_utility": u0,
        "bidder_utilities": ui.tolist(),
        "identity_residual": abs(lhs - rhs),
        "empirical": empirical,
    }


def truthfulness_gain(config: ExperimentConfig, bidder_index: int,
                      deviant: BidderStrategy, extra_checkpoints=()):
    """Seed-averaged (1/t) * sum(u_i_deviant - u_i_truthful) at each checkpoint.

    All other strategies are held fixed at the config's list; the same seeds
    drive both arms.
    """
    model = resolve_model(config)
    base = resolve_strategies(config, model)
    dev = list(base)
    dev[bidder_index] = deviant
    honest = run_online(config, strategies=base, extra_checkpoints=extra_checkpoints)
    twisted = run_online(config, strategies=dev, extra_checkpoints=extra_checkpoints)
    t = honest.report.checkpoints.astype(np.float64)
    u_honest = np.mean([r.cum_per_bidder[bidder_index] for r in honest.seed_results], axis=0)
    u_twisted = np.mean([r.cum_per_bidder[bidder_index] for r in twisted.seed_results], axis=0)
    return honest.report.checkpoints, (u_twisted - u_honest) / t


# -- export -------------------------------------------------------------------

ROUND_COLUMNS_FIXED = ["t", "k", "phase", "s", "a"]


def _round_header(n: int) -> list:
    return (ROUND_COLUMNS_FIXED
            + [f"r_{i}" for i in range(n + 1)]
            + [f"b_{i}" for i in range(1, n + 1)]
            + [f"p_{i}" for i in range(1, n + 1)]
            + ["u_0"] + [f"u_{i}" for i in range(1, n + 1)] + ["R"])


def export(result: OnlineRunResult, out_dir, fmt: Optional[str] = None) -> list:
    """Write round CSVs, the regret curves, and the JSON summary; returns paths."""
    fmt = fmt or result.config.format
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        n = result.mechanism.payments.shape[0]
        if fmt == "csv":
            for run in result.seed_results:
                if run.rounds is None:
                    continue
                path = out / f"rounds_seed{run.seed}.csv"
                _write_rounds_csv(path, run.rounds, n)
                written.append(path)
            written.append(_write_regret_csv(out / "regret.csv", result.report))
            written.append(_write_regret_per_seed_csv(
                out / "regret_per_seed.csv", result.config.seeds, result.report))
        else:
            path = out / "results.json"
            path.write_text(json.dumps(_result_doc(result), sort_keys=True))
            written.append(path)
        summary = out / "summary.json"
        summary.write_text(json.dumps(_summary_doc(result), sort_keys=True, indent=1))
        written.append(summary)
        return written
    except OSError as e:
        raise OSError(f"export to {out_dir} failed: {e}") from e


def _write_rounds_csv(path, rounds, n: int):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_round_header(n))
        for r in rounds:
            w.writerow(
                [r.t, r.k, r.phase, r.s, r.a]
                + [repr(float(x)) for x in r.rewards]
                + [repr(float(x)) for x in r.bids]
                + [repr(float(x)) for x in r.charges]
                + [repr(float(r.u0))]
                + [repr(float(x)) for x in r.ui]
                + [repr(float(r.R))]
            )
    return path


def _write_regret_csv(path, report: RegretReport):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "reg_sw", "reg_sell", "reg_bid",
                    "reg_sw_over_t", "reg_sell_over_t", "reg_bid_over_t"])
        sw, sell, bid = report.mean_reg_sw, report.mean_reg_sell, report.mean_reg_bid
        for j, t in enumerate(report.checkpoints):
            w.writerow([int(t), repr(float(sw[j])), repr(float(sell[j])),
                        repr(float(bid[j])), repr(float(sw[j] / t)),
                        repr(float(sell[j] / t)), repr(float(bid[j] / t))])
    return path


def _write_regret_per_seed_csv(path, seeds, report: RegretReport):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "t", "reg_sw", "reg_sell", "reg_bid"])
        for i, seed in enumerate(seeds):
            for j, t in enumerate(report.checkpoints):
                w.writerow([int(seed), int(t), repr(float(report.reg_sw[i, j])),
                            repr(float(report.reg_sell[i, j])),
                            repr(float(report.reg_bid[i, j]))])
    return path


def _summary_doc(result: OnlineRunResult) -> dict:
    rep = result.report
    last = -1 if len(rep.checkpoints) else None
    schedule = []
    if result.seed_results and result.seed_results[0].episodes:
        schedule = [
            {"k": e.k, "tau": e.tau, "d": e.d, "l": e.l}
            for e in result.seed_results[0].episodes
        ]
    diag = {}
    episodes = [e for r in result.seed_results for e in r.episodes]
    if episodes:
        diag = {
            "episodes_logged": len(episodes),
            "band_coverage_failures": sum(not e.band_contains_truth for e in episodes),
            "reward_coverage_failures": sum(not e.rewards_in_bounds for e in episodes),
            "episodes_with_unvisited_pair": sum(e.unvisited > 0 for e in episodes),
            "min_policy_entry": min(e.policy_min for e in episodes),
            "payment_order_violations": sum(not e.payment_order_ok for e in episodes),
            "max_rho_gap": max(e.rho_gap for e in episodes),
            "max_rho_gap_bound": max(e.rho_gap_bound for e in episodes),
        }
    return {
        "config_hash": result.config_hash,
        "benchmark": {
            "welfare": rep.benchmark_welfare,
            "seller": rep.benchmark_seller,
            "bidders": rep.benchmark_bidders,
        },
        "final_regrets": {
            "t": int(rep.checkpoints[last]) if last is not None else 0,
            "reg_sw": float(rep.mean_reg_sw[last]) if last is not None else 0.0,
            "reg_sell": float(rep.mean_reg_sell[last]) if last is not None else 0.0,
            "reg_bid": float(rep.mean_reg_bid[last]) if last is not None else 0.0,
        },
        "episode_schedule": schedule,
        "diagnostics": diag,
        "seeds": list(result.config.seeds),
    }


def _result_doc(result: OnlineRunResult) -> dict:
    doc = _summary_doc(result)
    doc["checkpoints"] = result.report.checkpoints.tolist()
    doc["reg_sw"] = result.report.reg_sw.tolist()
    doc["reg_sell"] = result.report.reg_sell.tolist()
    doc["reg_bid"] = result.report.reg_bid.tolist()
    doc["rounds"] = {
        str(r.seed): [
            {"t": x.t, "k": x.k, "phase": x.phase, "s": x.s, "a": x.a,
             "rewards": x.rewards.tolist(), "bids": x.bids.tolist(),
             "charges": x.charges.tolist()}
            for x in (r.rounds or [])
        ]
        for r in result.seed_results
    }
    return doc
