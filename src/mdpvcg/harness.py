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
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import BinaryIO, Optional, Sequence

import numpy as np

from .bidders import checked_spec, reports
from .mdp import (_SHORT, AUCTIONS, REWARD_FAMILIES, GeneratorSpec, MdpModel, SimState,
                  _check_family_count, _is_array, _is_count, _is_count_or_null, _is_families,
                  _is_finite, _is_int, _is_list, _is_number, _parse, generate_model,
                  load_model, play)
from .offline import BidProfile, Mechanism, _identity_rhs, average_utilities, offline_mechanism
from .online import VARIANTS, ConfigurationError, LearnerConfig, OnlineVcgLearner, episode_schedule
from .tolerances import TOL


# -- configuration ----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Mirror of the JSON experiment file; ``_CONFIG_KEYS`` is its schema, and
    a config built in Python is checked against it as a file is."""

    generator: Optional[GeneratorSpec] = None
    model_file: Optional[str] = None
    model_seed: int = 0
    delta: float = 0.05
    zeta: float = 0.05
    alpha: Optional[float] = None      # defaults to the model's margin
    variant: str = "seller_favorable"
    bidders: tuple = ()                # strategy spec dicts, one per bidder
    horizon: Optional[int] = None
    episodes: Optional[int] = None
    seeds: tuple = (0,)
    out: str = "results"
    format: str = "csv"

    def __post_init__(self):
        _parse(self.to_dict(), _CONFIG_KEYS, "")
        if (self.model_file is None) == (self.generator is None):
            raise ValueError("config needs exactly one of model.file and model.generator")
        gen = self.generator  # an auction sets A, and only two auctions read items
        if gen and gen.auction and gen.A is not None:
            raise ValueError("model.generator.A must be null when model.generator.auction "
                             f"is given; got {gen.A}")
        if gen and gen.items != 1 and gen.auction not in ("multi_unit", "combinatorial"):
            raise ValueError("model.generator.items must be 1 unless model.generator.auction "
                             f"is multi_unit or combinatorial; got {gen.items}")
        if gen:
            _check_family_count(gen.reward_family, gen.n, "model.generator.")
        if self.horizon is None and self.episodes is None:
            raise ValueError("config needs horizon or episodes")
        if not self.seeds:
            raise ValueError("config needs at least one seed")
        repeated = sorted({seed for seed in self.seeds if self.seeds.count(seed) > 1})
        if repeated:
            raise ValueError(f"seeds must be distinct; repeated: {', '.join(map(str, repeated))}")

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        doc = _parse(doc, _CONFIG_KEYS, "")
        model, learner = doc.pop("model"), doc.pop("learner")
        return cls(
            generator=model["generator"] and GeneratorSpec(**model["generator"]),
            model_file=model["file"],
            model_seed=model["seed"],
            bidders=tuple(doc.pop("bidders")),
            seeds=tuple(doc.pop("seeds")),
            **learner,  # delta, zeta, alpha and variant, as given
            **doc,      # horizon, episodes, out and format
        )

    def to_dict(self) -> dict:
        model = {"seed": self.model_seed}
        if self.generator is not None:
            model["generator"] = asdict(self.generator)
        if self.model_file is not None:
            model["file"] = self.model_file
        return {
            "model": model,
            "learner": {key: getattr(self, key) for key in _LEARNER_KEYS},
            "bidders": self.bidders,
            "horizon": self.horizon,
            "episodes": self.episodes,
            "seeds": self.seeds,
            "out": self.out,
            "format": self.format,
        }


def _is_seed(value) -> bool:
    return _is_int(value) and value >= 0


# Key tables, checked by ``mdp._parse``.
_GENERATOR_KEYS = {  # GeneratorSpec's fields and defaults
    "S": (_is_count, "a positive integer", ...),
    "n": (_is_count, "a positive integer", ...),
    "alpha": (_is_finite, "a finite number", ...),
    "A": (_is_count_or_null, "a positive integer or null", None),  # null with an auction
    "auction": (lambda v: v in (None, *AUCTIONS), f"one of {', '.join(AUCTIONS)} or null", None),
    "items": (_is_count, "a positive integer", 1),  # 1 but for multi_unit and combinatorial
    "c_max": (lambda v: _is_finite(v) and v >= 0, "a nonnegative finite number", 1.0),
    "reward_family": (_is_families, f"one of {', '.join(REWARD_FAMILIES)} or a list of them",
                      "deterministic"),
}

_LEARNER_KEYS = {  # ExperimentConfig's fields of the same names
    "delta": (_is_number, "a number", 0.05),
    "zeta": (_is_number, "a number", 0.05),
    "alpha": (lambda v: v is None or _is_number(v), "a number or null", None),
    "variant": (lambda v: v in VARIANTS, f"one of {', '.join(VARIANTS)}", "seller_favorable"),
}


_CONFIG_KEYS = {
    "model": ({
        "file": (lambda v: v is None or isinstance(v, str), "a path or null", None),
        "generator": (_GENERATOR_KEYS, None, None),
        "seed": (_is_seed, "a nonnegative integer", 0),
    }, None, {}),
    "learner": (_LEARNER_KEYS, None, {}),
    "bidders": (_is_list, "a list of bidder objects", []),
    "horizon": (_is_count_or_null, "a positive integer or null", None),
    "episodes": (_is_count_or_null, "a positive integer or null", None),
    "seeds": (lambda v: _is_array(v, (None,), _is_seed), "a list of nonnegative integers", [0]),
    "out": (lambda v: isinstance(v, str), "a path", "results"),
    "format": (lambda v: v in ("csv", "json"), "csv or json", "csv"),
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
    return generate_model(config.generator, config.model_seed)


def learner_config(config: ExperimentConfig, model: MdpModel) -> LearnerConfig:
    return LearnerConfig(
        S=model.S, A=model.A, n=model.n,
        alpha=model.alpha if config.alpha is None else float(config.alpha),
        delta=config.delta, zeta=config.zeta,
        c_max=model.c_max, variant=config.variant,
    )


def resolve_strategies(config: ExperimentConfig, model: MdpModel) -> list:
    """The config's bidder specs, checked; a table must have the model's (S, A) shape."""
    specs = config.bidders or tuple({"kind": "truthful"} for _ in range(model.n))
    if len(specs) != model.n:
        raise ValueError(f"{len(specs)} strategies for {model.n} bidders")
    return [checked_spec(spec, i, (model.S, model.A)) for i, spec in enumerate(specs, 1)]


# -- per-episode records -----------------------------------------------------

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
    mechanism: Mechanism
    report: RegretReport
    seed_results: list


# -- simulation ---------------------------------------------------------------

# Most rounds ``advance`` plays at once, and so the most rows it formats for
# a rounds file at once. Each round of a segment holds a few hundred bytes of
# temporaries, so a run's working set is one chunk of this many rounds however
# long its episodes grow (a fixed mechanism's never ends), recorded or not;
# cutting an episode into chunks changes no output bit.
_SEGMENT_MAX = 8192


def checkpoint_grid(horizon: int, boundaries=(), extra=()) -> np.ndarray:
    """Powers of two plus episode boundaries plus the horizon and the integer extras."""
    pts = {horizon}
    p = 1
    while p <= horizon:
        pts.add(p)
        p *= 2
    bad = [b for b in extra if not isinstance(b, (int, np.integer)) or isinstance(b, bool)]
    if bad:
        raise ValueError(f"extra checkpoints must be integers; got {_SHORT.repr(bad)}")
    pts.update(int(b) for b in (*boundaries, *extra) if 1 <= b <= horizon)
    return np.array(sorted(pts), dtype=np.int64)


@dataclass
class RunState:
    """One seed's run of the online protocol between two segments; played to
    the horizon, it is the seed's result.

    ``seller`` is an OnlineVcgLearner, played on in place, or a fixed
    Mechanism, which plays like an episode that never ends. Row i of ``cum``
    and ``totals`` is player i's realized utility, seller first, and the last
    row is the welfare R: ``cum`` sums them to each checkpoint reached so far,
    ``totals`` over the rounds played. ``rounds`` is the binary file the
    rows are written to, or None. A deep copy plays on exactly as the
    original does when it has no rounds file or an in-memory one (``io.BytesIO``).
    """

    model: MdpModel
    seller: OnlineVcgLearner | Mechanism
    strategies: Sequence[dict]           # checked bidder specs
    horizon: int
    checkpoints: np.ndarray
    seed: int
    sim: SimState
    rng: np.random.Generator             # the seller's: one uniform per action
    cum: np.ndarray                      # (n+2, n_checkpoints)
    totals: np.ndarray                   # (n+2,)
    episodes: list
    episode_counts: Optional[np.ndarray]  # the learner's visit counts at the episode's start
    rounds: Optional[BinaryIO]

    @classmethod
    def start(cls, model, seller, strategies, horizon, seed, checkpoints,
              rounds=None) -> "RunState":
        """The run before its first round, from ``simulate_run``'s arguments."""
        if isinstance(seller, OnlineVcgLearner) and (seller.k, seller.pos) != (1, 0):
            raise ValueError(f"the learner has played (episode {seller.k}, {seller.pos} rounds "
                             "in); advance a RunState to continue a run")
        cp = np.asarray(checkpoints)
        if not (cp.ndim == 1 and (not cp.size or cp.dtype.kind in "iu" and 1 <= cp[0]
                                  and cp[-1] <= horizon and (np.diff(cp) > 0).all())):
            raise ValueError("checkpoints must be strictly increasing integers in "
                             f"[1, {horizon}]; got {_SHORT.repr(cp.tolist())}")
        env_seed, seller_seed = np.random.SeedSequence(seed).spawn(2)
        n = model.n
        if rounds is not None:
            rounds.write((",".join(_round_header(n)) + "\r\n").encode())
        return cls(model, seller, strategies, horizon, cp.astype(np.int64), seed,
                   SimState.start(model, env_seed), np.random.default_rng(seller_seed),
                   np.zeros((n + 2, cp.size)), np.zeros(n + 2), [],
                   seller.counts if isinstance(seller, OnlineVcgLearner) else None,
                   rounds)


def simulate_run(model: MdpModel, seller: OnlineVcgLearner | Mechanism,
                 strategies: Sequence[dict], horizon: int, seed: int,
                 checkpoints: np.ndarray, rounds: Optional[BinaryIO] = None) -> RunState:
    """One seeded pass of the online protocol, played to the horizon one
    segment at a time; diagnostics when the seller learns, and each round's
    row in the open binary file ``rounds`` when one is given."""
    state = RunState.start(model, seller, strategies, horizon, seed, checkpoints, rounds)
    while state.sim.t <= horizon:
        advance(state)
    return state


def advance(state: RunState) -> None:
    """Play the run's next segment: the rest of the current episode, cut at
    the horizon and at ``_SEGMENT_MAX`` rounds, so a long episode is played
    in chunks. End the episode if the segment finishes it.

    An episode's first d_k rounds are not charged. A segment's policy and
    charges are fixed, so its rounds are drawn and accounted with array
    operations: the same draws as one round at a time, and the same sums
    added in the same order, wherever the episode is cut. The segment's
    arrays are freed before the episode ends, so its LPs' peak does not
    stack on theirs. The segment's rows go to the run's rounds file, if any.
    """
    model, seller, n, t0 = state.model, state.seller, state.model.n, state.sim.t
    length = min(state.horizon - t0 + 1, _SEGMENT_MAX)
    learner = seller if isinstance(seller, OnlineVcgLearner) else None
    if learner is None:
        mixing, k, policy = 0, 0, seller.allocation
    else:
        length = min(length, learner.d_k + learner.l_k - learner.pos)
        mixing = min(length, max(0, learner.d_k - learner.pos))
        k, policy = learner.k, learner.policy
    t = np.arange(t0, t0 + length)
    s, a, s2, r = play(model, state.sim, policy, state.rng, length)
    bids = np.array([reports(state.strategies[i], t, s, a, r[i + 1])
                     for i in range(n)]).reshape(n, length)
    if learner is not None:
        learner.observe(s, a, s2, r[0], bids)
    charges = seller.payments[:, s, a]
    charges[:, :mixing] = 0.0

    bidder_total = pay_total = 0.0  # added left to right: 0.0 + x_1 + x_2 + ...
    for i in range(n):
        bidder_total = bidder_total + r[i + 1]
        pay_total = pay_total + charges[i]
    flows = np.empty((n + 2, length + 1))
    flows[:, 0] = state.totals
    flows[0, 1:] = r[0] + pay_total      # u_0
    flows[1:-1, 1:] = r[1:] - charges    # u_i
    flows[-1, 1:] = r[0] + bidder_total  # R
    sums = np.cumsum(flows, axis=1)      # sequential, seeded with the totals
    state.totals = sums[:, -1].copy()  # a copy: a view would keep all of ``sums``
    lo, hi = np.searchsorted(state.checkpoints, [t0, t0 + length])
    state.cum[:, lo:hi] = sums[:, state.checkpoints[lo:hi] - t0 + 1]

    if state.rounds is not None:
        state.rounds.write(_rounds_csv_rows(
            t, np.column_stack((np.full(length, k), s, a)),
            np.where(np.arange(length) < mixing, "mixing", "stationary"),
            np.column_stack((r.T, bids.T, charges.T, flows[:, 1:].T))))
    # free the segment's arrays before the episode's LPs allocate theirs
    del t, s, a, s2, r, bids, charges, flows, sums
    if learner is not None and learner.episode_complete:
        state.episodes.append(_end_episode(learner, model, state.episode_counts))
        state.episode_counts = learner.counts


def _end_episode(learner: OnlineVcgLearner, model: MdpModel,
                 counts_before: np.ndarray) -> EpisodeRecord:
    """End the learner's episode and record it; ``counts_before`` are the
    visit counts at the episode's start."""
    k, tau, d, l = learner.k, learner.tau_k, learner.d_k, learner.l_k
    policy_min = float(learner.policy.min())
    unvisited = int(np.count_nonzero(learner.counts == counts_before))
    learner.end_episode()
    tol = TOL.exact
    in_band = bool(np.all(model.kernel >= learner.band_lower - tol)
                   and np.all(model.kernel <= learner.band_upper + tol))
    in_bounds = bool(np.all(model.reward_means >= learner.reward_lcb - tol)
                     and np.all(model.reward_means <= learner.reward_ucb + tol))
    order_ok = bool(np.all(learner.payments_seller >= learner.payments_bidder - TOL.mass))
    return EpisodeRecord(
        k=k, tau=tau, d=d, l=l, policy_min=policy_min, unvisited=unvisited,
        band_contains_truth=in_band, rewards_in_bounds=in_bounds,
        band_width_max=float((learner.band_upper - learner.band_lower).max()),
        payment_order_ok=order_ok,
    )


# -- top-level runners --------------------------------------------------------

def compute_benchmark(model: MdpModel):
    """Offline mechanism under truthful bids plus its exact utility scalars."""
    mech = offline_mechanism(BidProfile.truthful(model), model.reward_means[0],
                             model.kernel)
    return mech, _exact_scores(mech, model)


def _exact_scores(mech: Mechanism, model: MdpModel) -> dict:
    """Exact average welfare and utilities of ``mech`` on the true model, and
    the residual of the seller-utility identity."""
    u0, ui, welfare = average_utilities(mech, model.reward_means, model.kernel)
    return {
        "welfare": welfare,
        "seller": u0,
        "bidders": float(ui.sum()),
        "per_bidder": ui,
        "identity_residual": abs(u0 - _identity_rhs(mech, welfare)),
    }


def run_online(config: ExperimentConfig, record_rounds: bool = False, extra_checkpoints=(),
               seller_factory=None) -> OnlineRunResult:
    """Full multi-seed online experiment against the offline benchmark.

    ``seller_factory(mechanism)`` makes each seed's seller from the benchmark
    mechanism; by default a fresh learner that ignores it. ``record_rounds``
    writes each seed's rounds to ``rounds_seed<k>.csv`` in the config's
    ``out`` as they are played, and a run that raises removes them.
    """
    return _run_online(config, resolve_model(config), record_rounds, extra_checkpoints,
                       seller_factory)


def _run_online(config: ExperimentConfig, model: MdpModel, record_rounds=False,
                extra_checkpoints=(), seller_factory=None) -> OnlineRunResult:
    """``run_online`` on the config's model, already resolved."""
    lcfg = learner_config(config, model)
    strategies = resolve_strategies(config, model)
    horizon = config.horizon or int(episode_schedule(lcfg, config.episodes)[-1] - 1)
    mech, bench = compute_benchmark(model)

    if seller_factory is None:
        seller_factory = lambda _: OnlineVcgLearner(lcfg)
        boundaries = [0]  # each episode's last round, until one reaches the horizon
        while boundaries[-1] < horizon:
            boundaries.append(boundaries[-1] + sum(lcfg.lengths(len(boundaries))))
    else:
        boundaries = ()
    checkpoints = checkpoint_grid(horizon, boundaries, extra_checkpoints)

    seed_results, opened = [], []
    try:
        for seed in config.seeds:
            if record_rounds:
                opened.append(Path(config.out) / f"rounds_seed{seed}.csv")
                opened[-1].parent.mkdir(parents=True, exist_ok=True)
            with open(opened[-1], "wb") if record_rounds else nullcontext() as rounds:
                seed_results.append(simulate_run(model, seller_factory(mech), strategies,
                                                 horizon, seed, checkpoints, rounds))
    except BaseException as e:
        for path in opened:  # a failed run leaves no rounds file
            path.unlink(missing_ok=True)
        if isinstance(e, ConfigurationError):
            raise ConfigurationError(f"seed {seed}: {e}") from e
        raise

    t = checkpoints.astype(np.float64)
    reg_sw = np.array([bench["welfare"] * t - r.cum[-1] for r in seed_results])
    reg_sell = np.array([bench["seller"] * t - r.cum[0] for r in seed_results])
    # payments cancel: sum_i u_i^t == R^t - u_0^t identically
    reg_bid = np.array([bench["bidders"] * t - (r.cum[-1] - r.cum[0]) for r in seed_results])
    report_ = RegretReport(
        benchmark_welfare=bench["welfare"], benchmark_seller=bench["seller"],
        benchmark_bidders=bench["bidders"], checkpoints=checkpoints,
        reg_sw=reg_sw, reg_sell=reg_sell, reg_bid=reg_bid,
    )
    return OnlineRunResult(
        config=config, config_hash=config_hash(config), mechanism=mech,
        report=report_, seed_results=seed_results,
    )


def run_clairvoyant(config: ExperimentConfig, extra_checkpoints=()) -> OnlineRunResult:
    """Benchmark playing itself: the offline (pi*, p*) charged from round 1,
    with every bidder truthful (the config's bidder list is dropped)."""
    return run_online(replace(config, bidders=()), extra_checkpoints=extra_checkpoints,
                      seller_factory=lambda mech: mech)


def load_bids(path, model: MdpModel) -> BidProfile:
    """The bid profile in JSON file ``path``: an (n, S, A) array of finite
    numbers in [0, 1] (up to ``BidProfile``'s tolerance) for ``model``."""
    table = json.loads(Path(path).read_text())
    shape = (model.n, model.S, model.A)
    if not _is_array(table, shape, _is_finite):
        raise ValueError(f"{path} must hold an (n, S, A) = {shape} array of finite numbers")
    bids = np.array(table, dtype=np.float64)
    out = np.argwhere((bids < -TOL.row_sum) | (bids > 1 + TOL.row_sum))
    if out.size:
        i, s, a = out[0].tolist()
        raise ValueError(f"{path}: bids must lie in [0, 1]; entry (i, s, a) = ({i}, {s}, {a}) "
                         f"is {table[i][s][a]!r}")
    return BidProfile(bids)


def run_offline(model: MdpModel, bids: Optional[BidProfile] = None,
                sim_rounds: int = 100_000, sim_seed: int = 0) -> dict:
    """Offline mechanism plus exact utilities and a Monte Carlo cross-check
    of ``sim_rounds`` rounds (none for 0)."""
    if not (_is_int(sim_rounds) and sim_rounds >= 0):
        raise ValueError(f"sim_rounds must be a nonnegative integer; got {sim_rounds!r}")
    if bids is None:
        bids = BidProfile.truthful(model)
    mech = offline_mechanism(bids, model.reward_means[0], model.kernel)
    exact = _exact_scores(mech, model)

    empirical = None
    if sim_rounds > 0:
        strategies = [checked_spec({"kind": "truthful"})] * model.n
        cps = np.array([sim_rounds], dtype=np.int64)
        run = simulate_run(model, mech, strategies, sim_rounds, sim_seed, cps)
        mean = run.cum[:, 0] / sim_rounds  # u_0, u_1..u_n, R per round
        empirical = {"welfare": float(mean[-1]), "seller": float(mean[0]),
                     "per_bidder": mean[1:-1].tolist(), "rounds": sim_rounds}
    return {
        "allocation": mech.allocation.tolist(),
        "payments": mech.payments.tolist(),
        "welfare": exact["welfare"],
        "seller_utility": exact["seller"],
        "bidder_utilities": exact["per_bidder"].tolist(),
        "identity_residual": exact["identity_residual"],
        "empirical": empirical,
    }


def truthfulness_gain(config: ExperimentConfig, bidder_index: int, deviant: dict,
                      extra_checkpoints=()):
    """Seed-averaged (1/t) * sum(u_i_deviant - u_i_truthful) at each checkpoint.

    ``deviant`` is a bidder spec, as in the config's ``bidders`` list. All
    other bidders keep the config's specs; the same seeds drive both arms.
    The index and the deviant (kind keys, table shape) are checked before either arm runs.
    """
    if not (_is_int(bidder_index) and bidder_index >= 0):
        raise ValueError(f"bidder_index must be a nonnegative integer; got {bidder_index!r}")
    model = resolve_model(config)
    if bidder_index >= model.n:
        raise ValueError(f"bidder_index {bidder_index} is out of range for n = {model.n} bidders")
    checked_spec(deviant, bidder_index + 1, shape=(model.S, model.A))
    honest = _run_online(config, model, extra_checkpoints=extra_checkpoints)
    specs = list(config.bidders or [{"kind": "truthful"}] * model.n)
    specs[bidder_index] = deviant
    twisted = _run_online(replace(config, bidders=tuple(specs)), model,
                          extra_checkpoints=extra_checkpoints)
    t = honest.report.checkpoints.astype(np.float64)
    u_honest = np.mean([r.cum[1 + bidder_index] for r in honest.seed_results], axis=0)
    u_twisted = np.mean([r.cum[1 + bidder_index] for r in twisted.seed_results], axis=0)
    return honest.report.checkpoints, (u_twisted - u_honest) / t


# -- export -------------------------------------------------------------------

def _round_header(n: int) -> list:
    return (["t", "k", "phase", "s", "a"]
            + [f"r_{i}" for i in range(n + 1)]
            + [f"b_{i}" for i in range(1, n + 1)]
            + [f"p_{i}" for i in range(1, n + 1)]
            + [f"u_{i}" for i in range(n + 1)] + ["R"])


def export(result: OnlineRunResult, out_dir) -> list:
    """Write the regret curves and the JSON summary; returns paths, with the
    rounds files the run wrote first. With ``format: json`` their rows move
    into ``results.json`` and the files are removed."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        rounds = [Path(run.rounds.name) for run in result.seed_results if run.rounds is not None]
        if result.config.format == "csv":
            written = rounds + [
                _write_regret_csv(out / "regret.csv", result.report),
                _write_regret_per_seed_csv(out / "regret_per_seed.csv", result.config.seeds,
                                           result.report)]
        else:
            written = [_write_results_json(out / "results.json", result)]
            for path in rounds:
                path.unlink()
        summary = out / "summary.json"
        summary.write_text(json.dumps(_summary_doc(result), sort_keys=True, indent=1))
        written.append(summary)
        return written
    except OSError as e:
        raise OSError(f"export to {out_dir} failed: {e}") from e


def _rounds_csv_rows(t, ints, phase, floats) -> bytes:
    """One segment's rows as csv.writer writes them (ints and phases by str,
    floats by repr, CRLF line ends): round ``t[j]`` has (k, s, a) ``ints[j]``,
    phase ``phase[j]`` and rewards, bids, charges and utilities ``floats[j]``.

    Within a segment every column but ``t`` follows from a few inputs (the
    phase, (s, a), the reward draws, the bid window), so a segment holds few
    distinct rows once ``t`` is left out. Each distinct row is formatted
    once: rows are keyed on their bytes (floats by bit pattern, so -0.0 and
    0.0 and NaN payloads stay apart), and ``t`` is written in front of it.
    """
    rows = len(phase)
    keys = np.concatenate((ints.view(np.uint8), floats.view(np.uint8),
                           phase.view(np.uint8).reshape(rows, -1)), axis=1)
    keys = keys.view(f"V{keys.shape[1]}").ravel().tolist()
    rep = dict(zip(keys, range(rows)))  # one row per distinct key
    at = np.fromiter(rep.values(), np.intp, len(rep))
    texts = (("," + ",".join([str(k), p, str(s), str(a), *map(repr, f)]) + "\r\n").encode()
             for (k, s, a), p, f in zip(ints[at].tolist(), phase[at].tolist(),
                                        floats[at].tolist()))
    text = dict(zip(rep, texts))
    lines = [b""] * (2 * rows)
    lines[0::2] = [b"%d" % v for v in t.tolist()]
    lines[1::2] = map(text.__getitem__, keys)
    return b"".join(lines)


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


def _write_results_json(path, result: OnlineRunResult):
    """``json.dumps(doc, sort_keys=True)`` of the summary, the regrets and
    each seed's rounds, streamed from its rounds file in between the keys
    that sort before "rounds" and "seeds", seeds in string order. A JSON row
    is its CSV row's fields rearranged: both write ints by ``str`` and floats
    by ``repr``, as ``json.dumps`` does for finite floats, and each is finite
    (rewards are model means or caps, ``reports`` clips bids to [0, 1] with
    NaN as 0, payment tables are finite; u and R are left out).
    """
    doc = _summary_doc(result)
    seeds = doc.pop("seeds")
    for key in ("checkpoints", "reg_sw", "reg_sell", "reg_bid"):
        doc[key] = getattr(result.report, key).tolist()
    with open(path, "wb") as fh:
        fh.write(json.dumps(doc, sort_keys=True)[:-1].encode() + b', "rounds": {')
        for j, run in enumerate(sorted(result.seed_results, key=lambda run: str(run.seed))):
            fh.write(b'%s"%d": [' % (b", " if j else b"", run.seed))
            if run.rounds is not None:
                with open(run.rounds.name, "rb") as rows:
                    fh.writelines(_json_rows(rows, result.mechanism.payments.shape[0]))
            fh.write(b"]")
        fh.write(b'}, "seeds": %s}' % json.dumps(seeds).encode())
    return path


def _json_rows(rows, n: int):
    """A rounds file's rows as results.json's ", "-separated row objects, a
    block of lines at a time."""
    next(rows)  # the header
    sep = b""
    while block := rows.readlines(1 << 20):
        heads = {}  # each distinct row but t, formatted once per block
        for i, line in enumerate(block):
            t, rest = line.split(b",", 1)
            if rest not in heads:
                k, phase, s, a, *f = rest.split(b",")
                rewards, bids, charges = (b", ".join(f[lo:lo + m])
                                          for lo, m in ((0, n + 1), (n + 1, n), (2 * n + 1, n)))
                heads[rest] = (b'{"a": %s, "bids": [%s], "charges": [%s], "k": %s, "phase": "%s", '
                               b'"rewards": [%s], "s": %s, "t": '
                               % (a, bids, charges, k, phase, rewards, s))
            block[i] = heads[rest] + t + b"}"
        yield sep + b", ".join(block)
        sep = b", "
