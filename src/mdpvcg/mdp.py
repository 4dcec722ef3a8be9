"""Ground-truth auction environments: tabular MDPs with per-player rewards.

Player 0 is the seller (mean rewards in [0, c_max]); players 1..n are bidders
(mean rewards in [0, 1]). The transition kernel must satisfy the uniform
ergodicity margin: every entry P(s'|s,a) >= alpha.
"""

from __future__ import annotations

import json
import math
import reprlib
from bisect import bisect_right
from itertools import product
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .tolerances import TOL

REWARD_FAMILIES = ("deterministic", "bernoulli-scaled")
AUCTIONS = ("single_item", "multi_unit", "combinatorial")


@dataclass
class MdpModel:
    """Immutable environment: kernel (S,A,S), reward_means (n+1,S,A)."""

    kernel: np.ndarray
    reward_means: np.ndarray
    alpha: float
    c_max: float = 1.0
    reward_family: tuple = ("deterministic",)

    def __post_init__(self):
        self.kernel = np.ascontiguousarray(self.kernel, dtype=np.float64)
        self.reward_means = np.ascontiguousarray(self.reward_means, dtype=np.float64)
        if self.kernel.ndim != 3 or self.kernel.shape[0] != self.kernel.shape[2]:
            raise ValueError(f"kernel must be (S, A, S), got {self.kernel.shape}")
        if self.reward_means.ndim != 3 or self.reward_means.shape[1:] != self.kernel.shape[:2]:
            raise ValueError(
                f"reward_means must be (n+1, S, A), got {self.reward_means.shape}"
            )
        fam = self.reward_family
        fam = (fam,) if isinstance(fam, str) else tuple(fam)
        if len(fam) == 1:
            fam *= self.n + 1
        if len(fam) != self.n + 1:
            raise ValueError(f"need one reward family per player, got {len(fam)}")
        for f in fam:
            if f not in REWARD_FAMILIES:
                raise ValueError(f"unknown reward family {f!r}")
        self.reward_family = fam
        self.kernel.setflags(write=False)
        self.reward_means.setflags(write=False)
        # cached sampling table: kernel_cdf[s, a] is the cdf over next states,
        # ending in inf so that cdf rounding below 1.0 picks the last state
        self._kernel_cdf = np.cumsum(self.kernel, axis=2)
        self._kernel_cdf[..., -1] = np.inf
        self._deterministic = tuple(f == "deterministic" for f in self.reward_family)

    @property
    def S(self) -> int:
        return self.kernel.shape[0]

    @property
    def A(self) -> int:
        return self.kernel.shape[1]

    @property
    def n(self) -> int:
        return self.reward_means.shape[0] - 1


@dataclass
class SimState:
    """One simulation stream: round index, current state, owned rng."""

    t: int
    s: int
    rng: np.random.Generator

    @classmethod
    def start(cls, model: MdpModel, seed) -> "SimState":
        rng = np.random.default_rng(seed)
        return cls(t=1, s=int(rng.integers(model.S)), rng=rng)


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    detail: str


def reward_caps(n: int, c_max: float) -> np.ndarray:
    """Per-player reward upper bounds: c_max for the seller, 1 for the n bidders."""
    caps = np.ones(n + 1)
    caps[0] = c_max
    return caps


def validate_model(model: MdpModel) -> list:
    """Check every model invariant; returns the (possibly empty) violation list."""
    out = []
    for name, values in (("alpha", model.alpha), ("c_max", model.c_max),
                         ("kernel", model.kernel), ("reward_means", model.reward_means)):
        for where in np.argwhere(~np.isfinite(values)):
            value = float(np.asarray(values)[tuple(where)])
            out.append(Violation("not_finite", tuple(map(int, where)), f"{name}={value!r}"))
    S, A = model.S, model.A
    if model.alpha <= 0:
        out.append(Violation("alpha_positive", (), f"alpha={model.alpha} must be > 0"))
    if model.alpha * S > 1 + TOL.row_sum:
        out.append(Violation("alpha_mass", (), f"alpha*S={model.alpha * S} exceeds 1"))
    row_sums = model.kernel.sum(axis=2)
    bad = np.argwhere(np.abs(row_sums - 1.0) > TOL.row_sum)
    for s, a in bad:
        out.append(Violation("row_sum", (int(s), int(a)), f"sums to {float(row_sums[s, a])!r}"))
    low = np.argwhere(model.kernel < model.alpha - TOL.row_sum)
    for s, a, s2 in low:
        out.append(
            Violation(
                "ergodicity_margin",
                (int(s), int(a), int(s2)),
                f"P={float(model.kernel[s, a, s2])!r} < alpha={model.alpha}",
            )
        )
    caps = reward_caps(model.n, model.c_max)
    for i in range(model.n + 1):
        r = model.reward_means[i]
        bad = np.argwhere((r < -TOL.row_sum) | (r > caps[i] + TOL.row_sum))
        for s, a in bad:
            out.append(
                Violation(
                    "reward_range",
                    (i, int(s), int(a)),
                    f"r_{i}={float(r[s, a])!r} outside [0, {caps[i]}]",
                )
            )
    return out


def _multi_unit_actions(n: int, m: int) -> list:
    """All nonnegative integer allocations over n bidders with at most m units."""
    out = [()]
    for _ in range(n):
        out = [a + (x,) for a in out for x in range(m + 1 - sum(a))]
    return out


@dataclass(frozen=True)
class GeneratorSpec:
    """Configuration for random model generation.

    ``auction`` picks an action-space shape: single_item gives one action per
    bidder plus no-sale; multi_unit allocates up to ``items`` identical units;
    combinatorial assigns each of ``items`` distinct goods to a bidder or to
    nobody. With auction=None, ``A`` is taken literally.
    """

    S: int
    n: int
    alpha: float
    A: Optional[int] = None
    auction: Optional[str] = None
    items: int = 1
    c_max: float = 1.0
    reward_family: Union[str, Sequence[str]] = "deterministic"

    def action_labels(self) -> list:
        if self.auction == "single_item":
            return ["no-sale"] + [f"to-bidder-{i}" for i in range(1, self.n + 1)]
        if self.auction == "multi_unit":
            return [str(a) for a in _multi_unit_actions(self.n, self.items)]
        if self.auction == "combinatorial":  # good j's owner: digit j of the code in base n+1
            return [str(goods[::-1]) for goods in product(range(self.n + 1), repeat=self.items)]
        return [f"a{j}" for j in range(self.num_actions())]

    def num_actions(self) -> int:
        if self.auction == "single_item":
            return self.n + 1
        if self.auction == "multi_unit":
            return len(_multi_unit_actions(self.n, self.items))
        if self.auction == "combinatorial":
            return (self.n + 1) ** self.items
        if self.A is None:
            raise ValueError("A is required when no auction shape is given")
        return self.A


def generate_model(spec: GeneratorSpec, seed) -> MdpModel:
    """Draw a valid random model, deterministic in ``seed``.

    The kernel mixes a random row-stochastic table with the all-ones matrix,
    (1 - S*alpha)*Q + alpha, so every entry is at least alpha by construction.
    """
    S, n, alpha = spec.S, spec.n, spec.alpha
    if alpha <= 0 or alpha * S > 1:
        raise ValueError(f"need 0 < alpha <= 1/S, got alpha={alpha}, S={S}")
    A = spec.num_actions()
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(S), size=(S, A))
    kernel = (1.0 - S * alpha) * q + alpha
    means = rng.uniform(0.0, 1.0, size=(n + 1, S, A))
    means[0] *= spec.c_max
    return MdpModel(
        kernel=kernel,
        reward_means=means,
        alpha=alpha,
        c_max=spec.c_max,
        reward_family=spec.reward_family,
    )


def draw_rewards(model: MdpModel, s: np.ndarray, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Realized rewards (n+1, L) at the rounds' (s, a), seller first.

    ``u`` is (L, m): one uniform per round and stochastic player, in player
    order. A bernoulli-scaled player gets its cap with probability mean/cap.
    """
    out = model.reward_means[:, s, a]
    stochastic = [i for i, det in enumerate(model._deterministic) if not det]
    caps = reward_caps(model.n, model.c_max)[stochastic, None]
    out[stochastic] = np.where(u.T * caps < out[stochastic], caps, 0.0)
    return out


def play(model: MdpModel, sim: SimState, policy: np.ndarray,
         rng: np.random.Generator, rounds: int):
    """Play ``rounds`` rounds under a fixed policy (S, A): (s, a, s2, rewards (n+1, L)).

    Per round, ``rng`` gives the action's uniform and ``sim.rng`` the m
    stochastic rewards' and then the next state's, drawn as blocks that end
    where one round at a time would. Only the (s, a, s') walk is serial.
    """
    if policy.shape != (model.S, model.A):
        raise ValueError(f"policy must be (S, A) = {(model.S, model.A)}, got {policy.shape}")
    m = model.n + 1 - sum(model._deterministic)
    u_act = rng.random(rounds).tolist()
    u_env = sim.rng.random((rounds, m + 1))
    policy_cdf = np.cumsum(policy, axis=1)
    policy_cdf[:, -1] = np.inf  # as for the kernel
    policy_cdf = policy_cdf.tolist()
    kernel_cdf = model._kernel_cdf.tolist()
    path = [0] * (rounds + 1)
    actions = [0] * rounds
    s = sim.s
    for j, u in enumerate(u_env[:, m].tolist()):
        path[j] = s
        actions[j] = a = bisect_right(policy_cdf[s], u_act[j])
        s = bisect_right(kernel_cdf[s][a], u)
    path[rounds] = s
    sim.s = s
    sim.t += rounds
    path = np.array(path)
    a = np.array(actions, dtype=path.dtype)
    return path[:-1], a, path[1:], draw_rewards(model, path[:-1], a, u_env[:, :m])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value > 0


def _is_count_or_null(value) -> bool:
    return value is None or _is_count(value)


def _is_number(value) -> bool:
    return isinstance(value, float) or _is_int(value)


def _is_finite(value) -> bool:
    """A number but NaN and the infinities, which JSON's NaN and Infinity parse to."""
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def _is_array(value, shape, item=_is_number) -> bool:
    """``value`` is nested lists of ``item``s of ``shape``, where a None length is any."""
    if not shape:
        return item(value)
    return _is_list(value) and shape[0] in (None, len(value)) and all(
        _is_array(v, shape[1:], item) for v in value)


# values in messages: lists and objects cut short (a model file's kernel is large)
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxlist = 2, 4


def _parse(doc, schema: dict, where: str) -> dict:
    """``doc`` checked against ``schema``, with the absent keys' defaults filled in.
    Each key maps to (test, what the value must be, default), and ``...`` as
    the default marks a required key. A dict as the test is the table of a
    nested object, which stays None when it is absent and its default is None.
    A non-object, a missing or mistyped value and an unknown key (a misspelt
    one would fall back to its default) are refused, named by ``where`` + key."""
    name = where.rstrip(". :") or "config"
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be an object; got {_SHORT.repr(doc)}")
    unknown = sorted(set(doc) - set(schema))
    if unknown:  # first, so a misspelt key is named rather than the one it stands for
        raise ValueError(f"unknown {name} key(s) {', '.join(map(repr, unknown))}; "
                         f"expected some of {', '.join(schema)}")
    out = {}
    for key, (test, what, default) in schema.items():
        value = out[key] = doc.get(key, default)
        if value is ...:
            raise ValueError(f"{where}{key} is required")
        if isinstance(test, dict):
            if value is not None or default is not None:
                out[key] = _parse(value, test, f"{where}{key}.")
        elif not test(value):
            raise ValueError(f"{where}{key} must be {what}; got {_SHORT.repr(value)}")
    return out


def save_model(model: MdpModel, path) -> None:
    doc = {
        "S": model.S,
        "A": model.A,
        "n": model.n,
        "alpha": model.alpha,
        "c_max": model.c_max,
        "kernel": model.kernel.tolist(),
        "reward_means": model.reward_means.tolist(),
        "reward_family": list(model.reward_family),
    }
    Path(path).write_text(json.dumps(doc, indent=1))


_MODEL_KEYS = {  # save_model's document; np.array and float() would parse "0.2"
    **dict.fromkeys(("S", "A", "n"), (_is_count, "a positive integer", ...)),
    **dict.fromkeys(("alpha", "c_max"), (_is_number, "a number", ...)),
    **dict.fromkeys(("kernel", "reward_means"),
                    (lambda v: _is_array(v, (None,) * 3), "an array of numbers", ...)),
    "reward_family": (  # one name for every player, or one each
        lambda v: isinstance(v, str) or _is_array(v, (None,), lambda f: isinstance(f, str)),
        "a name or a list of names", ...),
}


def load_model(path) -> MdpModel:
    doc = _parse(json.loads(Path(path).read_text()), _MODEL_KEYS, f"model file {path}: ")
    S, A, n = doc["S"], doc["A"], doc["n"]
    for key, shape in (("kernel", (S, A, S)), ("reward_means", (n + 1, S, A))):
        if not _is_array(doc[key], shape):  # a ragged array fails here too, by key
            raise ValueError(f"inconsistent dimensions in model file {path}: "
                             f"{key} must be {shape}")
    model = MdpModel(
        kernel=np.array(doc["kernel"]),
        reward_means=np.array(doc["reward_means"]),
        alpha=float(doc["alpha"]),
        c_max=float(doc["c_max"]),
        reward_family=doc["reward_family"],
    )
    violations = validate_model(model)
    if violations:
        first = "; ".join(f"{v.kind} {v.where}: {v.detail}" for v in violations[:3])
        more = "; ..." if len(violations) > 3 else ""
        raise ValueError(f"model file {path} fails {len(violations)} check(s): {first}{more}")
    return model
