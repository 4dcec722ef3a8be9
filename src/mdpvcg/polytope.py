"""Occupancy-measure polytopes and LP maximization over them.

A polytope is given by a kernel band and an optional floor:
  band_lower,     a kernel inside a two-sided band: rho(s,a) and q(s,a,s')
  band_upper      columns with lower(s,a,s')*rho(s,a) <= q(s,a,s') <=
                  upper(s,a,s')*rho(s,a), sum_x q(s,a,x) = rho(s,a), mass 1 and
                  flow balanced in q; a band row that these imply is left out
                  of the LP (see ``build_constraints``). A known kernel P is the
                  band of width zero, (P, P), whose q is rho * P
  delta           optional: every rho(s,a) at least delta (the shrunk
                  polytope), a lower bound on the rho columns, not a row

The band implements an intersection of per-episode confidence sets: callers
keep, per entry, the running max lower bound and min upper bound (see
``tighten_band``), so the LP stays constant-size across episodes.

``maximize_each`` is the one solver. Each call builds the spec's LP once and
HiGHS models of its own, runs its objectives in them as a warm-start tree
and drops them, so a spec holds no solver state. The root objective runs
cold by dual simplex. Each chain's objectives then run in order by primal
simplex, the first from the root's optimal basis and each later one from the
one before: a change of costs leaves a basis primal feasible (a run that
stops "optimal" at a point HiGHS finds infeasible runs again, cold). Chain 0
runs on in the root's model, and every later chain in a fresh model given a
copy of the root basis: a model keeps more of a run than its basis. One
model given the root basis again before each later chain changed the
iteration counts or vertices of 224 of 240 random band trees (3 chains of
two, S, A in 2..5). The later chains are futures on worker threads, at most
one per spare CPU and none on an LP too small to pay for one (HiGHS releases
the GIL while it runs). Once chain 0 is done, the calling thread walks them
from the last, runs each one no worker has started and waits for the rest.
Where a chain runs is fixed by its index, not by the thread that runs it, so
equal inputs give equal results, bit for bit, on any number of CPUs. Every
cold run presolves, as ``scipy.optimize.linprog(method="highs-ds")`` does.
The HiGHS bindings load with the first LP, not with the module
(``mdpvcg.offline`` solves none), and only their extension module loads, not
``scipy.optimize``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import os
import sys
import threading
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .occupancy import OccupancyMeasure
from .tolerances import TOL

logger = logging.getLogger(__name__)

# HiGHS dual simplex: deterministic and vertex-exact at these sizes
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# the options linprog(method="highs-ds", options=_LP_OPTIONS) passes to HiGHS,
# but for simplex_strategy, which _solve sets per run
_HIGHS_OPTIONS = {**_LP_OPTIONS, "solver": "simplex", "presolve": "on", "output_flag": False}
# simplex_strategy values: dual simplex for the cold solve, primal for the warm ones
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4
_FEASIBLE_POINT = 2  # HiGHS's primal_solution_status of a primal feasible point
_DELTA_MIN = 1e-6  # the smallest delta calibrate_delta tries, and its floor
# the fewest LP columns at which a tree's later chains start worker threads.
# Timed on learner-shaped trees (a root and n chains of two, n = 2 and 3) on 2
# vCPUs, a worker against none: +0.4 ms a call at 36 columns, even from 150 to
# 252 columns, and 10-22% faster from 294 columns up (1,760 at S=10, A=16)
_WORKER_COLUMNS = 256


_HIGHS = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()


@cache
def _highs():
    """scipy's HiGHS bindings (highspy is not a dependency), loaded on first use.

    Only the extension module loads: it is found in scipy's install and
    registered in ``sys.modules`` under its full name without running
    ``scipy.optimize``, so a later ``import scipy.optimize`` reuses it.
    """
    try:
        with _HIGHS_LOCK:  # concurrent first LPs load it once
            if _HIGHS in sys.modules:
                if sys.modules[_HIGHS] is None:
                    raise ImportError(f"import of {_HIGHS} halted; None in sys.modules")
                return sys.modules[_HIGHS]
            scipy = importlib.util.find_spec("scipy")
            dirs = [os.path.join(d, "optimize", "_highspy")
                    for d in (scipy and scipy.submodule_search_locations or ())]
            found = importlib.machinery.PathFinder.find_spec("_core", dirs)
            if found is None:
                raise ImportError(f"no {_HIGHS} in scipy's install")
            spec = importlib.util.spec_from_file_location(_HIGHS, found.origin)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                sys.modules.pop(_HIGHS, None)
                raise
            return module
    except ImportError as e:
        raise ImportError(f"mdpvcg needs scipy>=1.15 for its HiGHS bindings ({_HIGHS})") from e


@dataclass(frozen=True)
class PolytopeSpec:
    """A kernel band (``band_lower``, ``band_upper``), each of shape (S, A, S);
    a known kernel P is the band (P, P). ``delta``, if given, floors every
    rho(s, a)."""

    band_lower: np.ndarray
    band_upper: np.ndarray
    delta: Optional[float] = None

    def __post_init__(self):
        shape = self.band_lower.shape
        if len(shape) != 3 or shape[0] != shape[2] or 0 in shape:
            raise ValueError(f"bad dims: arrays must be (S, A, S) with S, A >= 1; got {shape}")
        if self.band_upper.shape != shape:
            raise ValueError(f"band arrays must have shape {shape}")
        if not (self.band_lower.min() >= 0 and self.band_upper.max() <= 1 + TOL.row_sum):
            raise ValueError("band must be clipped to [0, 1]")  # NaN fails the comparisons
        if self.delta is not None and not 0 < self.delta <= 1.0 / (self.S * self.A):
            raise ValueError(f"delta must lie in (0, 1/(S*A)]; got {self.delta}")

    @property
    def S(self) -> int:
        return self.band_lower.shape[0]

    @property
    def A(self) -> int:
        return self.band_lower.shape[1]


def tighten_band(prior, p_bar, radii):
    """Intersect a prior [lower, upper] kernel band (None: [0, 1]) with p_bar +/- radii."""
    if np.any(radii < 0):
        raise ValueError("radii must be nonnegative")
    lo, hi = (0.0, 1.0) if prior is None else prior
    lower = np.clip(np.maximum(lo, p_bar - radii), 0.0, 1.0)
    upper = np.clip(np.minimum(hi, p_bar + radii), 0.0, 1.0)
    return lower, upper


@dataclass
class ConstraintSystem:
    """The HiGHS input: a column-wise matrix (``start``, ``index``, ``value``)
    over the flat columns rho[s, a], then q[s, a, s'];
    ``row_lower``/``row_upper`` bound its rows and ``col_lower`` its columns
    (delta or 0 below rho, 0 below q, no column upper bounds)."""

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_lower: np.ndarray


def build_constraints(spec: PolytopeSpec) -> ConstraintSystem:
    """Emit the column-wise matrix selecting the polytope.

    The S*A rho columns, then S^2*A columns q. Rows: at most an upper and a
    lower band row per (s, a, s'), interleaved (q - upper*rho <= 0 and
    lower*rho - q <= 0); then equalities mass (over rho), flow per state
    (sum_{s,a} q(s,a,s') - sum_a rho(s',a) = 0) and a link row per (s, a)
    (sum_x q(s,a,x) - rho(s,a) = 0). A band row that the rest implies is
    left out: the lower row where lower is 0 (it restates q >= 0) and the
    upper row where upper is 1 or more (q <= sum_x q(s,a,x) = rho already
    holds). The kept rows keep their order. Each column lists its entries in
    row order, without exact zeros.
    """
    S, A = spec.S, spec.A
    SA = S * A
    pair = np.arange(SA)
    n_band = 2 * SA * S  # band rows of the full layout, upper and lower interleaved
    kept = np.ones(n_band + 1 + S + SA, dtype=bool)  # which full-layout rows stay
    kept[0:n_band:2] = spec.band_upper.ravel() < 1
    kept[1:n_band:2] = spec.band_lower.ravel() > 0
    eq = np.arange(n_band, len(kept))  # mass, flow per state, link per pair
    # one block row per column: 2S band entries, then mass, flow and link
    rows = np.zeros((SA + SA * S, 2 * S + 3), dtype=np.int64)
    values = np.zeros(rows.shape)
    rows[:SA, :2 * S] = 2 * S * pair[:, None] + np.arange(2 * S)
    rows[:SA, 2 * S:] = np.column_stack([np.full(SA, eq[0]), eq[1 + pair // A],
                                         eq[1 + S + pair]])
    values[:SA, 0:2 * S:2] = -spec.band_upper.reshape(SA, S)
    values[:SA, 1:2 * S:2] = spec.band_lower.reshape(SA, S)
    values[:SA, 2 * S:] = (1.0, -1.0, -1.0)
    cell = np.arange(SA * S)  # q column (s, a, x)
    rows[SA:, :4] = np.column_stack([2 * cell, 2 * cell + 1, eq[1 + cell % S],
                                     eq[1 + S + cell // S]])
    values[SA:, :4] = (1.0, -1.0, 1.0, 1.0)
    values[~kept[rows]] = 0.0  # a left-out row's entries are dropped as zeros below
    rows = np.cumsum(kept)[rows] - 1  # full-layout row -> kept row
    n_ub, n_row = int(kept[:n_band].sum()), int(kept.sum())
    keep = values != 0
    start = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=start[1:])
    row_upper = np.zeros(n_row)
    row_upper[n_ub] = 1.0
    row_lower = row_upper.copy()
    row_lower[:n_ub] = -np.inf
    col_lower = np.zeros(len(values))
    if spec.delta is not None:
        col_lower[:SA] = spec.delta
    return ConstraintSystem(start=start, index=rows[keep], value=values[keep],
                            row_lower=row_lower, row_upper=row_upper, col_lower=col_lower)


def highs_lp(system: ConstraintSystem):
    """The system as a HiGHS LP, with zero costs and no column upper bounds."""
    lp = _highs().HighsLp()
    lp.num_row_, lp.num_col_ = len(system.row_lower), len(system.col_lower)
    lp.col_cost_ = np.zeros(lp.num_col_)
    lp.col_lower_, lp.col_upper_ = system.col_lower, np.full(lp.num_col_, np.inf)
    lp.row_lower_, lp.row_upper_ = system.row_lower, system.row_upper
    matrix = lp.a_matrix_
    matrix.num_row_, matrix.num_col_ = lp.num_row_, lp.num_col_
    matrix.format_ = _highs().MatrixFormat.kColwise
    matrix.start_, matrix.index_, matrix.value_ = system.start, system.index, system.value
    return lp


def _model(lp, basis=None):
    """A HiGHS model of ``lp`` with the module's options, started from
    ``basis`` if one is given."""
    highs = _highs()
    model = highs._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        model.setOptionValue(key, value)
    if model.passModel(lp) == highs.HighsStatus.kError:
        raise RuntimeError("HiGHS refused the constraint matrix")
    if basis is not None and model.setBasis(basis) == highs.HighsStatus.kError:
        raise RuntimeError("HiGHS refused the root basis")
    return model


def _run(model):
    model.run()
    return model.getModelStatus()


@dataclass(frozen=True)
class LpSolution:
    q: Optional[OccupancyMeasure]
    objective_value: float
    status: str  # "optimal" | "infeasible"
    nit: int  # HiGHS simplex iterations of the run that solved it


def _solve(model, r, strategy, spec: PolytopeSpec) -> LpSolution:
    """The solution of maximizing <rho, r> (r flat) in ``model``, run by
    ``strategy`` from the model's basis, if it has one."""
    highs = _highs()
    model.setOptionValue("simplex_strategy", strategy)
    model.changeColsCost(len(r), np.arange(len(r), dtype=np.int32), -r)
    status = _run(model)
    if (status == highs.HighsModelStatus.kOptimal
            and model.getInfoValue("primal_solution_status")[1] != _FEASIBLE_POINT):
        # a warm run can stop "optimal" just outside the tolerance: run it again, cold
        model.clearSolver()
        model.setOptionValue("simplex_strategy", _DUAL_SIMPLEX)
        status = _run(model)
    nit = model.getInfoValue("simplex_iteration_count")[1]
    if status == highs.HighsModelStatus.kInfeasible:
        return LpSolution(q=None, objective_value=float("nan"), status="infeasible", nit=nit)
    if status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failed (status {status.value}): "
                           f"{model.modelStatusToString(status)}")
    x = np.fromiter(model.getSolution().col_value, np.float64)
    # <rho, r> summed in column order, as HiGHS sums an LP's objective
    return LpSolution(q=OccupancyMeasure(x[len(r):].reshape(spec.S, spec.A, spec.S)),
                      objective_value=float(np.cumsum(r * x[:len(r)])[-1]),
                      status="optimal", nit=nit)


def _chain(model, rewards, spec: PolytopeSpec) -> list:
    """Solutions of the flat objectives ``rewards`` run in order in ``model``
    by primal simplex, each warm from the one before; an infeasible run ends
    the list."""
    solved = []
    for r in rewards:
        solved.append(_solve(model, r, _PRIMAL_SIMPLEX, spec))
        if solved[-1].status == "infeasible":
            break
    return solved


def _workers(chains: int, columns: int) -> int:
    """Worker threads for a tree of ``chains`` chains over an LP of
    ``columns`` columns: none below ``_WORKER_COLUMNS``, else one per chain
    after the first, but no more than the CPUs this process may run on, less
    its own."""
    if columns < _WORKER_COLUMNS:
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(0, min(chains - 1, (cpus or 1) - 1))


def maximize(objective: np.ndarray, spec: PolytopeSpec) -> LpSolution:
    """Maximize <rho, r> over the polytope; r is a per-(s,a) table."""
    objective = np.asarray(objective, dtype=np.float64)
    return maximize_each(objective, np.empty((0, 0, *objective.shape)), spec)[0]


def maximize_each(root, chains, spec: PolytopeSpec) -> list:
    """Maximize <rho, r> over the polytope for the per-(s,a) table ``root``
    and for each table of ``chains``, a (C, L, S, A) array of C chains of L
    objectives each, as a warm-start tree (module docstring).

    Returns 1 + C*L solutions, flat in input order: the root's, then chain
    0's L, then chain 1's, and so on. Each carries its run's ``nit``. Chains
    1..C-1 run on ``_workers`` threads and the calling thread; which thread
    runs a chain changes none of its results. All objectives share one
    polytope, so they are infeasible together: an infeasible run makes every
    solution the first such run's, in input order. ``maximize_each(r[0],
    r[1:][None], spec)`` solves the K tables of r as one chain, each warm
    from the one before.
    """
    root = np.asarray(root, dtype=np.float64)
    chains = np.asarray(chains, dtype=np.float64)
    S, A = spec.S, spec.A
    if root.shape != (S, A) or chains.ndim != 4 or chains.shape[2:] != (S, A):
        raise ValueError(f"objectives must be a root (S, A) and chains (C, L, S, A) "
                         f"with (S, A) = {(S, A)}")
    if not (np.isfinite(root).all() and np.isfinite(chains).all()):
        raise ValueError("objectives must be finite")
    C, L = chains.shape[:2]
    r, rewards = root.ravel(), chains.reshape(C, L, S * A)
    lp = highs_lp(build_constraints(spec))
    model = _model(lp)
    first = _solve(model, r, _DUAL_SIMPLEX, spec)
    if first.status == "infeasible":
        return [first] * (1 + C * L)
    basis = model.getBasis()  # a copy: chain 0 runs on in this model

    def fresh(c):
        """Chain ``c``'s solutions, run in a model of its own from the root basis."""
        return _chain(_model(lp, basis), rewards[c], spec)

    from concurrent.futures import Future, ThreadPoolExecutor  # with the first LP, as HiGHS loads

    threads = _workers(C, lp.num_col_)
    with ThreadPoolExecutor(max(1, threads)) as pool:  # a thread starts only at a submit
        # chains 1..C-1; without workers, futures that nothing starts
        later = [pool.submit(fresh, c) if threads else Future() for c in range(1, C)]
        solved = {0: _chain(model, rewards[0], spec)} if C else {}
        del model  # freed before this thread takes another chain's model
        for c in range(C - 1, 0, -1):  # from the last, taking back each chain no worker started
            solved[c] = fresh(c) if later[c - 1].cancel() else later[c - 1].result()
    flat = [sol for c in range(C) for sol in solved[c]]
    lost = next((sol for sol in flat if sol.status == "infeasible"), None)
    return [lost] * (1 + C * L) if lost else [first, *flat]


def calibrate_delta(kernel: np.ndarray, objective: np.ndarray, epsilon: float) -> float:
    """Largest halving-grid delta whose shrunk optimum stays within epsilon.

    Grid: 1/(2SA), 1/(4SA), ... down to ``_DELTA_MIN``. Each candidate is
    verified by comparing the shrunk-polytope LP optimum against the full
    polytope's, both over the collapsed band (kernel, kernel). That band fixes
    q = rho * kernel, which meets the link rows sum_x q(s,a,x) = rho(s,a) only
    as closely as the kernel's rows sum to 1: within ``TOL.row_sum``, the
    model-file tolerance, or the LP is refused.
    """
    if not epsilon > 0:  # NaN included
        raise ValueError(f"epsilon must be positive; got {epsilon}")
    kernel, objective = np.asarray(kernel, dtype=np.float64), np.asarray(objective)
    if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2] or 0 in kernel.shape:
        raise ValueError(f"kernel must be (S, A, S) with S, A >= 1; got shape {kernel.shape}")
    S, A = kernel.shape[:2]
    if objective.shape != (S, A):
        raise ValueError(f"objective must be (S, A) = {(S, A)}; got shape {objective.shape}")
    if not (np.isfinite(kernel).all() and kernel.min() >= 0):
        raise ValueError("kernel entries must be finite and nonnegative")
    if not np.abs(kernel.sum(axis=2) - 1).max() <= TOL.row_sum:
        raise ValueError(f"kernel rows must sum to 1 within {TOL.row_sum}")
    base = maximize(objective, PolytopeSpec(kernel, kernel))
    grid = []
    d = 1.0 / (2 * S * A)
    while d > _DELTA_MIN:
        grid.append(d)
        d /= 2
    grid.append(_DELTA_MIN)
    for d in grid:
        sol = maximize(objective, PolytopeSpec(kernel, kernel, d))
        if sol.status == "optimal" and sol.objective_value >= base.objective_value - epsilon:
            return d
    logger.warning(
        "delta floor %.1e still violates the %.3g gap; returning the floor",
        _DELTA_MIN, epsilon,
    )
    return _DELTA_MIN
