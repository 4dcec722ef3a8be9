import copy
import json
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from _oracles import brute_force_best, kernel_lp, linprog_maximize, loop_constraints
import mdpvcg.polytope as polytope_mod
from mdpvcg import (GeneratorSpec, PolytopeSpec, build_constraints,
                    calibrate_delta, generate_model, maximize, maximize_each,
                    payoff, tighten_band)
from mdpvcg.polytope import _DELTA_MIN
from mdpvcg.tolerances import TOL

# the loop oracle's names for the three polytopes drawn below: a kernel (the
# collapsed band (P, P) to the library), a kernel with a floor delta, and a
# band with a floor delta
KINDS = ("EXACT_KERNEL", "SHRUNK_EXACT", "SHRUNK_CONFIDENCE")


def uniform_spec(S, A):
    kernel = np.full((S, A, S), 1.0 / S)
    return PolytopeSpec(kernel, kernel)


def _dense_rows(system):
    """(A_eq, b_eq, A_ub, b_ub, bounds) of a column-wise system: the
    inequality rows (row_lower -inf) come first, the equalities after."""
    n_ub = int(np.isneginf(system.row_lower).sum())
    shape = (len(system.row_lower), len(system.col_lower))
    dense = sparse.csc_array((system.value, system.index, system.start), shape=shape).toarray()
    bounds = np.column_stack([system.col_lower, np.full(shape[1], np.inf)])
    return (dense[n_ub:], system.row_upper[n_ub:], dense[:n_ub], system.row_upper[:n_ub],
            bounds)


def _assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _one_chain(objectives, spec):
    """``maximize_each`` of K objectives as one chain: the first cold, each
    later one warm from the one before."""
    objectives = np.asarray(objectives)
    return maximize_each(objectives[0], objectives[1:][None], spec)


def _assert_same_solutions(got, want):
    """Two lists of solutions equal bit for bit: status, nit, value and q."""
    for g, w in zip(got, want, strict=True):
        assert (g.status, g.nit) == (w.status, w.nit)
        assert g.objective_value.hex() == w.objective_value.hex()
        assert (g.q is None) == (w.q is None)
        if g.q is not None:
            _assert_bit_equal(g.q.q, w.q.q)


def _max_violation(rows, x):
    """Largest violation of q-space rows (A_eq, b_eq, A_ub, b_ub) and of
    nonnegativity at a flat point x = q.ravel()."""
    A_eq, b_eq, A_ub, b_ub = rows
    v = max(float(np.abs(A_eq @ x - b_eq).max()), float(np.maximum(-x, 0.0).max()))
    if len(b_ub):
        v = max(v, float(np.maximum(A_ub @ x - b_ub, 0.0).max()))
    return v


def test_full_constraint_counts():
    """Row and column counts of every polytope, read off the shapes; mass over
    the rho columns; delta as a lower bound on the rho columns only. A band
    keeps a lower row only where its lower bound is above 0 and an upper row
    only where its upper bound is below 1: none for the [0, 1] band. A mixed
    band keeps those rows, upper before lower, in (s, a, s') order."""
    S, A = 2, 3
    SA, nq = S * A, S * A * S
    rng = np.random.default_rng(0)
    lower, upper = rng.uniform(0.1, 0.4, (S, A, S)), rng.uniform(0.6, 0.9, (S, A, S))
    lower.flat[[0, 3, 4, 9]] = 0.0
    upper.flat[[3, 5, 10]] = 1.0
    upper.flat[11] = 1.0 + TOL.row_sum  # what the spec lets through above 1
    mixed_rows = [(c, side) for c in range(nq) for side, kept in
                  (("upper", upper.flat[c] < 1), ("lower", lower.flat[c] > 0)) if kept]
    assert len(mixed_rows) == 2 * nq - 8
    mixed = PolytopeSpec(band_lower=lower, band_upper=upper, delta=0.1)
    inner = PolytopeSpec(band_lower=np.maximum(lower, 0.05), band_upper=np.minimum(upper, 0.95))
    cases = [
        (PolytopeSpec(band_lower=np.zeros((S, A, S)), band_upper=np.ones((S, A, S)),
                      delta=0.1), SA + nq, 1 + S + SA, 0, 0.1),
        (PolytopeSpec(band_lower=np.zeros((S, A, S)), band_upper=np.ones((S, A, S))),
         SA + nq, 1 + S + SA, 0, 0.0),
        (inner, SA + nq, 1 + S + SA, 2 * nq, 0.0),
        (mixed, SA + nq, 1 + S + SA, len(mixed_rows), 0.1),
    ]
    for spec, nv, n_eq, n_ub, floor in cases:
        assert (spec.S, spec.A) == (S, A)
        A_eq, b_eq, A_ub, b_ub, bounds = _dense_rows(build_constraints(spec))
        assert A_eq.shape == (n_eq, nv) and b_eq.shape == (n_eq,)
        assert A_ub.shape == (n_ub, nv) and b_ub.shape == (n_ub,)
        np.testing.assert_array_equal(A_eq[0, :SA], 1.0)
        np.testing.assert_array_equal(A_eq[0, SA:], 0.0)
        np.testing.assert_array_equal(b_eq, np.eye(n_eq)[0])
        np.testing.assert_array_equal(b_ub, 0.0)
        np.testing.assert_array_equal(bounds[:, 0], np.repeat([floor, 0.0], [SA, nv - SA]))
        np.testing.assert_array_equal(bounds[:, 1], np.inf)
    A_ub = _dense_rows(build_constraints(mixed))[2]
    want = np.zeros((len(mixed_rows), SA + nq))
    for row, (c, side) in zip(want, mixed_rows):
        row[c // S], row[SA + c] = ((-upper.flat[c], 1.0) if side == "upper"
                                    else (lower.flat[c], -1.0))
    np.testing.assert_array_equal(A_ub, want)
    np.testing.assert_array_equal(_dense_rows(build_constraints(mixed))[0],
                                  _dense_rows(build_constraints(inner))[0])


def test_shrunk_confidence_band_row_count():
    S, A = 2, 2
    SA = S * A
    spec = PolytopeSpec(band_lower=np.full((S, A, S), 0.25), band_upper=np.full((S, A, S), 0.75),
                        delta=0.1)
    A_eq, b_eq, A_ub, b_ub, _ = _dense_rows(build_constraints(spec))
    assert A_ub.shape[0] == 2 * SA * S
    np.testing.assert_array_equal(b_ub, 0.0)
    # rho with q = rho * nu (nu inside the band, rows summing to 1) meets every
    # link, flow and band row
    nu = np.array([0.4, 0.6])
    rho = np.outer(nu, [0.3, 0.7])
    x = np.concatenate([rho.ravel(), (rho[:, :, None] * nu).ravel()])
    np.testing.assert_allclose(A_eq @ x, b_eq, atol=1e-15)
    assert (A_ub @ x <= 1e-15).all()
    # each band row holds one rho and one q coefficient: -upper or lower, then +1 or -1
    np.testing.assert_array_equal(A_ub[:, SA:].sum(axis=1), np.tile([1.0, -1.0], SA * S))
    np.testing.assert_array_equal(A_ub[:, :SA].sum(axis=1), np.tile([-0.75, 0.25], SA * S))


def _random_case(S, A, variant, delta_frac, seed):
    """A random polytope of the loop oracle's ``variant``: its spec, with a
    kernel as the collapsed band (P, P), and the oracle's q-space rows."""
    rng = np.random.default_rng(seed)
    shape = (S, A, S)
    # stochastic rows with exact zeros, about a quarter of them one-hot
    kernel = rng.dirichlet(np.ones(S), size=(S, A)) * (rng.random(shape) >= 0.25)
    one_hot = np.eye(S)[rng.integers(S, size=(S, A))]
    pick = (kernel.sum(axis=2) == 0) | (rng.random((S, A)) < 0.25)
    kernel[pick] = one_hot[pick]
    kernel /= kernel.sum(axis=2, keepdims=True)
    if rng.random() < 0.8:  # a band around the kernel, clipped to exact 0 and 1
        radii = rng.uniform(0, 0.6, shape) * (rng.random(shape) >= 0.2)
        lower, upper = tighten_band(None, kernel, radii)
    else:  # an arbitrary band, often contradictory
        lower, upper = 0.5 * rng.random(shape), 0.5 + 0.5 * rng.random(shape)
        for arr in (lower, upper):
            arr[rng.random(shape) < 0.25] = 0.0
            arr[rng.random(shape) < 0.25] = 1.0
    delta = None if variant == "EXACT_KERNEL" else delta_frac / (S * A)
    if variant != "SHRUNK_CONFIDENCE":
        lower = upper = kernel
    return (PolytopeSpec(lower, upper, delta),
            loop_constraints(variant, S, A, kernel=kernel, delta=delta,
                             band_lower=lower, band_upper=upper))


spec_params = dict(S=st.integers(1, 5), A=st.integers(1, 5), variant=st.sampled_from(KINDS),
                   delta_frac=st.floats(1e-6, 1), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(**spec_params)
def test_rho_lp_matches_q_space_oracle(S, A, variant, delta_frac, seed):
    """The LP over rho and q reaches the optimum of the LP over q(s,a,s')
    with the row-by-row kernel, shrink and band rows; its q meets those rows."""
    spec, rows = _random_case(S, A, variant, delta_frac, seed)
    r = np.random.default_rng(seed + 1).random((S, A))
    sol = maximize(r, spec)
    want = linprog_maximize(np.repeat(r[:, :, None], S, axis=2).ravel(), *rows)
    assert want.status in (0, 2)
    assert (sol.status == "infeasible") == (want.status == 2)
    if want.status == 0:
        assert abs(sol.objective_value - -want.fun) <= 1e-9
        assert _max_violation(rows, sol.q.q.ravel()) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), **{k: v for k, v in spec_params.items() if k != "variant"})
def test_warm_solves_equal_fresh_solves(n, S, A, delta_frac, seed):
    """2n+1 objectives in one chain on a band spec (each solved from the
    previous one's basis) match the same objectives solved alone on fresh
    specs: the same statuses, values within 1e-9 and each q meeting the
    q-space rows. The first solve is linprog's on the same rows,
    presolved as the band's model is (a tie may resolve to another vertex
    with presolve than without)."""
    spec, rows = _random_case(S, A, "SHRUNK_CONFIDENCE", delta_frac, seed)
    rng = np.random.default_rng(seed + 1)
    objectives = rng.random((2 * n + 1, S, A)) * (rng.random((2 * n + 1, S, A)) >= 0.2)
    run, presolves = polytope_mod._run, []

    def recording(model):
        presolves.append(model.getOptionValue("presolve")[1])
        return run(model)

    with mock.patch.object(polytope_mod, "_run", recording):
        warm = _one_chain(objectives, spec)
    assert len(warm) == len(objectives)
    for sol, r in zip(warm, objectives):
        fresh = maximize(r, replace(spec))
        assert sol.status == fresh.status
        assert sol.nit >= 0 and fresh.nit >= 0
        if sol.status == "optimal":
            assert abs(sol.objective_value - fresh.objective_value) <= 1e-9
            assert _max_violation(rows, sol.q.q.ravel()) <= 1e-8
        else:
            assert sol.q is None
    system = build_constraints(spec)
    c = np.zeros(len(system.col_lower))
    c[:S * A] = objectives[0].ravel()
    presolve = presolves[0] == "on"
    assert presolve
    ref = linprog_maximize(c, *_dense_rows(system), presolve=presolve)
    assert (ref.status == 2) == (warm[0].status == "infeasible")
    if ref.status == 0:
        np.testing.assert_allclose(warm[0].q.q, ref.x[S * A:].reshape(S, A, S), rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), S=st.integers(1, 5), A=st.integers(1, 5), floor=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, S=5, A=1, floor=False, seed=841)  # a warm run stops "optimal" but infeasible
def test_band_lp_matches_the_full_row_oracle(n, S, A, floor, seed):
    """On bands with many entries at exactly 0 and at 1 or more, whose band
    rows the LP leaves out, 2n+1 objectives reach the optimum of the q-space
    LP with every band row (the loop oracle) within 1e-9, with and without
    delta, and each q meets the rows left out, q >= 0 and q <= rho, within
    1e-10: solved as one chain, and as a root with n chains of two, as the
    learner solves them."""
    rng = np.random.default_rng(seed)
    shape = (S, A, S)
    kernel = rng.dirichlet(np.ones(S), size=(S, A))
    lower, upper = tighten_band(None, kernel, rng.uniform(0, 0.6, shape))
    lower[rng.random(shape) < 0.3] = 0.0
    upper[rng.random(shape) < 0.3] = 1.0
    upper[rng.random(shape) < 0.1] = 1.0 + TOL.row_sum
    delta = rng.uniform(0.01, 1) / (S * A) if floor else None
    objectives = rng.random((2 * n + 1, S, A))
    rows = loop_constraints("SHRUNK_CONFIDENCE", S, A, delta=delta or 0.0,
                            band_lower=lower, band_upper=upper)
    spec = PolytopeSpec(band_lower=lower, band_upper=upper, delta=delta)
    chain = _one_chain(objectives, spec)
    tree = maximize_each(objectives[0], objectives[1:].reshape(n, 2, S, A), spec)
    for sol, r in zip([*chain, *tree], [*objectives, *objectives], strict=True):
        want = linprog_maximize(np.repeat(r[:, :, None], S, axis=2).ravel(), *rows)
        assert want.status in (0, 2)
        assert (sol.status == "infeasible") == (want.status == 2)
        if want.status == 0:
            assert abs(sol.objective_value - -want.fun) <= 1e-9
            q = sol.q.q
            assert q[lower == 0].min(initial=0.0) >= -1e-10
            assert (q - q.sum(axis=2, keepdims=True))[upper >= 1].max(initial=0.0) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(copies=st.integers(1, 4), **spec_params)
def test_chained_solves_equal_fresh_solves_and_repeat(copies, S, A, variant, delta_frac, seed):
    """On every kind of polytope, K objectives solved in one chain match each
    solved alone on a fresh spec: the same status, values within 1e-9 and
    each q meeting the q-space rows, with the value that q's own payoff. A second call on the same spec repeats the first bit for bit."""
    spec, rows = _random_case(S, A, variant, delta_frac, seed)
    rng = np.random.default_rng(seed + 1)
    objectives = rng.random((copies, S, A)) * (rng.random((copies, S, A)) >= 0.2)
    got = _one_chain(objectives, spec)
    assert len(got) == copies
    for sol, again, r in zip(got, _one_chain(objectives, spec), objectives):
        fresh = maximize(r, replace(spec))
        assert sol.status == again.status == fresh.status
        if fresh.status == "optimal":
            assert abs(sol.objective_value - fresh.objective_value) <= 1e-9
            assert abs(sol.objective_value - payoff(sol.q, r)) <= 1e-9
            assert _max_violation(rows, sol.q.q.ravel()) <= 1e-8
            assert again.objective_value == sol.objective_value
            _assert_bit_equal(again.q.q, sol.q.q)
        else:
            assert sol.q is None


@settings(max_examples=80, deadline=None)
@given(**spec_params)
def test_columns_equal_csc_of_dense_rows(S, A, variant, delta_frac, seed):
    """The matrix is column-wise, each column's rows strictly increasing, with
    no stored zeros: exactly the CSC form of its dense rows. Row bounds and
    column lower bounds are float arrays of matching sizes."""
    system = build_constraints(_random_case(S, A, variant, delta_frac, seed)[0])
    start, index, value = system.start, system.index, system.value
    assert start[0] == 0 and start[-1] == len(index) == len(value)
    assert np.all(np.diff(start) >= 0)
    column = np.repeat(np.arange(len(start) - 1), np.diff(start))
    same_column = column[1:] == column[:-1]
    assert np.all(np.diff(index)[same_column] > 0)
    assert np.all(value != 0)
    nv = len(start) - 1
    assert system.col_lower.shape == (nv,) and system.col_lower.dtype == np.float64
    assert system.row_lower.shape == system.row_upper.shape
    assert system.row_lower.dtype == system.row_upper.dtype == np.float64
    A_eq, _, A_ub, _, _ = _dense_rows(system)
    ref = sparse.csc_array(np.vstack([A_ub, A_eq]))
    for got, want in ((start, ref.indptr), (index, ref.indices), (value, ref.data)):
        _assert_bit_equal(got.astype(want.dtype), want)


def _run_python(code, *path):
    """stdout of ``code`` in a fresh interpreter, with ``path`` before the package on its path."""
    path = [*map(str, path), str(Path(__file__).parents[1] / "src")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


# a subprocess's solve(): the values of three warm-chained objectives on a
# fresh band spec around the kernel of model seed 2 (S=4, A=3)
_BAND_LP = ("import sys, numpy as np, mdpvcg\n"
            "from mdpvcg import polytope\n"
            "m = mdpvcg.generate_model(mdpvcg.GeneratorSpec(S=4, A=3, n=2, alpha=0.1), 2)\n"
            "def solve():\n"
            "    band = mdpvcg.PolytopeSpec(band_lower=np.clip(m.kernel - 0.05, 0, 1),\n"
            "                               band_upper=np.clip(m.kernel + 0.05, 0, 1))\n"
            "    r = m.reward_means\n"
            "    solutions = mdpvcg.maximize_each(r[0], r[1:][None], band)\n"
            "    return [s.objective_value.hex() for s in solutions]\n")


def test_missing_highs_bindings_fail_at_the_first_lp():
    """Without scipy's HiGHS bindings, mdpvcg imports and the offline mechanism
    runs; each LP refuses to run, naming the scipy floor, instead of falling
    back to another solver."""
    code = ("import sys; sys.modules['scipy.optimize._highspy._core'] = None\n"
            "import mdpvcg\n"
            "m = mdpvcg.generate_model(mdpvcg.GeneratorSpec(S=2, A=2, n=1, alpha=0.2), 0)\n"
            "mdpvcg.offline_mechanism(mdpvcg.BidProfile.truthful(m), m.reward_means[0], m.kernel)\n"
            "for _ in range(2):\n"
            "    try:\n"
            "        mdpvcg.maximize(m.reward_means[0], mdpvcg.PolytopeSpec(m.kernel, m.kernel))\n"
            "    except ImportError as e:\n        print(e)\n"
            "    else:\n        print('solved')")
    lines = _run_python(code).splitlines()
    assert len(lines) == 2 and all("scipy>=1.15" in line for line in lines)


def test_offline_mechanism_loads_no_lp_solver():
    """Importing mdpvcg and solving an offline mechanism load no scipy.optimize
    module: the HiGHS bindings are imported with the first LP."""
    code = ("import sys, mdpvcg\n"
            "m = mdpvcg.generate_model(mdpvcg.GeneratorSpec(S=3, A=3, n=2, alpha=0.2), 0)\n"
            "mdpvcg.offline_mechanism(mdpvcg.BidProfile.truthful(m), m.reward_means[0], m.kernel)\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy.optimize')))")
    assert _run_python(code).strip() == "[]"


def test_first_lp_loads_only_the_highs_extension():
    """A band LP loads scipy's HiGHS extension module and the submodules it
    registers, and no other scipy.optimize module: the parent packages do not run."""
    code = _BAND_LP + ("solve()\nimport json\n"
                       "print(json.dumps([k for k in sys.modules if 'scipy.optimize' in k]))")
    loaded = json.loads(_run_python(code))
    assert "scipy.optimize._highspy._core" in loaded
    assert all(k.startswith("scipy.optimize._highspy._core") for k in loaded), loaded


def test_scipy_optimize_reuses_the_loaded_extension():
    """After the first LP, scipy.optimize imports, reuses the loaded module
    (pybind11 does not initialise it twice), and its linprog solves."""
    code = _BAND_LP + ("solve()\n"
                       "from scipy.optimize import linprog\n"
                       "import scipy.optimize._highspy._core as core\n"
                       "from scipy.optimize._highspy import _highs_wrapper\n"
                       "res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])\n"
                       "print(res.status, res.fun, core is polytope._highs(),\n"
                       "      _highs_wrapper._h is polytope._highs())")
    assert _run_python(code).split() == ["0", "1.0", "True", "True"]


def test_either_import_order_gives_the_same_module_and_values():
    """Importing scipy.optimize before the first LP or after it gives one
    module, and the band LP's values agree bit for bit."""
    check = "print(sys.modules['scipy.optimize._highspy._core'] is polytope._highs())\n"
    first = _run_python("import scipy.optimize\n" + _BAND_LP + "print(solve())\n" + check)
    after = _run_python(_BAND_LP + "print(solve())\nimport scipy.optimize\n" + check)
    assert first == after and first.splitlines()[1] == "True"


def test_concurrent_first_lps_both_solve():
    """Two threads' first LPs, started together, both solve; the extension
    module is created once, although the first creation is slowed down."""
    code = _BAND_LP + (
        "import importlib.util, threading, time\n"
        "created, create = [], importlib.util.module_from_spec\n"
        "def slow(spec):\n"
        "    created.append(spec.name); time.sleep(0.2); return create(spec)\n"
        "importlib.util.module_from_spec = slow\n"
        "start, values = threading.Barrier(2), []\n"
        "def run():\n"
        "    start.wait(); values.append(solve())\n"
        "threads = [threading.Thread(target=run) for _ in range(2)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "print(len(values), values[0] == values[-1], created)")
    assert _run_python(code).strip() == "2 True ['scipy.optimize._highspy._core']"


def test_missing_highs_extension_is_an_import_error(tmp_path):
    """A scipy install without the extension file gives the ImportError that
    names the scipy floor, at each LP."""
    (tmp_path / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = _BAND_LP + ("for _ in range(2):\n"
                       "    try:\n        solve()\n"
                       "    except ImportError as e:\n        print(type(e).__name__, e)\n"
                       "import importlib.util; print(importlib.util.find_spec('scipy').origin)")
    lines = _run_python(code, tmp_path).splitlines()
    assert len(lines) == 3 and lines[2] == str(tmp_path / "scipy" / "__init__.py")
    assert all(line.startswith("ImportError ") and "scipy>=1.15" in line for line in lines[:2])


def test_rejects_nan_kernel_or_band():
    """Every comparison with NaN is false, so the spec checks are written to
    fail on it, a kernel's collapsed band included."""
    kernel, lower, upper = np.full((2, 2, 2), 0.5), np.zeros((2, 2, 2)), np.ones((2, 2, 2))
    kernel[0, 1, 0] = lower[1, 0, 1] = upper[0, 0, 1] = np.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PolytopeSpec(kernel, kernel)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PolytopeSpec(band_lower=lower, band_upper=np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PolytopeSpec(band_lower=np.zeros((2, 2, 2)), band_upper=upper)


def test_rejects_malformed_specs():
    lower, upper = np.zeros((2, 2, 2)), np.ones((2, 2, 2))
    for bad in (np.ones((0, 2, 0)), np.full((2, 2, 3), 1 / 3)):  # empty, not (S, A, S)
        with pytest.raises(ValueError, match="bad dims"):
            PolytopeSpec(bad, bad)
    with pytest.raises(TypeError):
        PolytopeSpec(lower)  # a band needs both bounds
    with pytest.raises(ValueError, match="shape"):
        PolytopeSpec(band_lower=lower, band_upper=np.ones((2, 1, 2)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PolytopeSpec(band_lower=lower - 0.1, band_upper=upper)
    for delta in (0.3, 0.0, -0.1):  # outside (0, 1/(S*A)]
        with pytest.raises(ValueError, match="delta"):
            PolytopeSpec(band_lower=lower, band_upper=upper, delta=delta)
    with pytest.raises(ValueError):
        maximize(np.ones((3, 3)), uniform_spec(2, 2))  # shape mismatch
    with pytest.raises(ValueError):
        maximize(np.full((2, 2), np.inf), uniform_spec(2, 2))
    good = np.ones((2, 2))
    for root, chains in ((np.ones(2), np.ones((1, 1, 2, 2))),  # root not (S, A)
                         (good, np.ones((1, 2, 2))),  # chains not (C, L, S, A)
                         (good, np.ones((1, 1, 3, 2))),
                         (np.full((2, 2), np.nan), np.ones((1, 1, 2, 2))),  # not finite
                         (good, np.full((1, 1, 2, 2), np.inf))):
        with pytest.raises(ValueError, match="objectives"):
            maximize_each(root, chains, uniform_spec(2, 2))


def test_zero_objective_returns_feasible_point():
    sol = maximize(np.zeros((2, 2)), uniform_spec(2, 2))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
    assert sol.q.violations() == []


def test_single_state_optimum_is_best_action():
    kernel = np.ones((1, 3, 1))
    r = np.array([[0.2, 0.9, 0.4]])
    sol = maximize(r, PolytopeSpec(kernel, kernel))
    assert sol.objective_value == pytest.approx(0.9, abs=1e-10)
    assert sol.q.rho[0, 1] == pytest.approx(1.0, abs=1e-10)


def test_optimum_matches_deterministic_policy_enumeration():
    for seed in range(5):
        model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.07, A=3), seed)
        r = model.reward_means.sum(axis=0)
        sol = maximize(r, PolytopeSpec(model.kernel, model.kernel))
        assert sol.objective_value == pytest.approx(
            brute_force_best(model.kernel, r), abs=1e-6)


def test_optimal_points_satisfy_their_constraints():
    rng = np.random.default_rng(0)
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=2), 3)
    lower, upper = tighten_band(None, model.kernel, np.full((3, 2, 3), 0.07))
    specs = [
        ("EXACT_KERNEL", uniform_spec(3, 2)),
        ("EXACT_KERNEL", PolytopeSpec(model.kernel, model.kernel)),
        ("SHRUNK_EXACT", PolytopeSpec(model.kernel, model.kernel, delta=0.05)),
        ("SHRUNK_CONFIDENCE", PolytopeSpec(band_lower=lower, band_upper=upper, delta=0.05)),
        ("SHRUNK_CONFIDENCE", PolytopeSpec(band_lower=np.zeros((3, 2, 3)),
                                           band_upper=np.ones((3, 2, 3)), delta=0.05)),
    ]
    for kind, spec in specs:  # a kernel spec is its collapsed band
        rows = loop_constraints(kind, spec.S, spec.A, kernel=spec.band_lower,
                                delta=spec.delta, band_lower=spec.band_lower,
                                band_upper=spec.band_upper)
        for _ in range(3):
            sol = maximize(rng.random((3, 2)), spec)
            assert sol.status == "optimal"
            assert _max_violation(rows, sol.q.q.ravel()) <= 1e-8
            assert sol.q.violations() == []


def test_vacuous_band_equals_plain_shrunk():
    # With the kernel free, any masses m(s,a) >= delta balance the flow
    # (q = m(s,a) nu(s')), so the plain shrunk optimum puts delta on every
    # pair and the rest on the best one: delta*sum(r) + (1 - S*A*delta)*max(r),
    # and without a floor all of it on the best pair.
    rng = np.random.default_rng(1)
    for _ in range(20):
        S, A = (int(v) for v in rng.integers(1, 5, size=2))
        delta = rng.uniform(0, 1) / (S * A)
        r = rng.random((S, A))
        band = dict(band_lower=np.zeros((S, A, S)), band_upper=np.ones((S, A, S)))
        closed_form = delta * r.sum() + (1 - S * A * delta) * r.max()
        assert maximize(r, PolytopeSpec(**band, delta=delta)).objective_value == pytest.approx(
            closed_form, abs=1e-9)
        assert maximize(r, PolytopeSpec(**band)).objective_value == pytest.approx(
            r.max(), abs=1e-9)


def test_optimum_nonincreasing_in_delta():
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=3), 5)
    r = model.reward_means.sum(axis=0)
    deltas = [0.001, 0.01, 0.05, 0.1, 1.0 / 9]
    values = []
    for d in deltas:
        sol = maximize(r, PolytopeSpec(model.kernel, model.kernel, d))
        # a delta too large for this kernel empties the polytope; that may
        # only happen at the top of the grid
        values.append(sol.objective_value if sol.status == "optimal"
                      else -np.inf)
    assert values[0] > -np.inf
    assert all(values[i] >= values[i + 1] - 1e-9 for i in range(len(values) - 1))


def test_optimum_nonincreasing_as_radii_shrink():
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=2), 6)
    r = model.reward_means.sum(axis=0)
    prev = None
    for radius in [0.5, 0.2, 0.1, 0.05]:
        lower, upper = tighten_band(None, model.kernel,
                                    np.full(model.kernel.shape, radius))
        sol = maximize(r, PolytopeSpec(band_lower=lower, band_upper=upper, delta=0.02))
        if prev is not None:
            assert sol.objective_value <= prev + 1e-8
        prev = sol.objective_value


def test_confidence_relaxes_exact_when_truth_is_inside_band():
    for seed in range(5):
        model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=2), seed)
        r = model.reward_means.sum(axis=0)
        lower, upper = tighten_band(None, model.kernel,
                                    np.full(model.kernel.shape, 0.05))
        conf = maximize(r, PolytopeSpec(band_lower=lower, band_upper=upper, delta=0.02))
        exact = maximize(r, PolytopeSpec(model.kernel, model.kernel, 0.02))
        assert conf.objective_value >= exact.objective_value - 1e-8


def test_band_contradiction_reports_infeasible():
    S, A = 2, 2
    lower = np.full((S, A, S), 0.9)  # rows would sum to 1.8
    upper = np.ones((S, A, S))
    spec = PolytopeSpec(band_lower=lower, band_upper=upper, delta=0.01)
    sol = maximize(np.ones((S, A)), spec)
    assert sol.status == "infeasible"
    assert sol.q is None
    # one polytope: a chain of K objectives, or a tree, is infeasible all together
    r = np.random.default_rng(0).random((5, S, A))
    for got in (_one_chain(r[:3], spec), maximize_each(r[0], r[1:].reshape(2, 2, S, A), spec)):
        assert [s.status for s in got] == ["infeasible"] * len(got)
        assert all(s.q is None for s in got)


def test_transient_state_under_a_floor_reports_infeasible():
    """Every action leads to state 0, so state 1 holds no stationary mass and
    no rho can meet a floor delta > 0: a status, not an exception."""
    kernel = np.zeros((2, 2, 2))
    kernel[:, :, 0] = 1.0
    sol = maximize(np.ones((2, 2)), PolytopeSpec(kernel, kernel, 0.01))
    assert sol.status == "infeasible" and sol.q is None
    # without the floor the same kernel is solvable: all mass on state 0
    sol = maximize(np.ones((2, 2)), PolytopeSpec(kernel, kernel))
    assert sol.status == "optimal"
    assert sol.q.nu[1] == 0.0


def test_tighten_band_intersects_and_clips():
    p = np.full((1, 1, 2), 0.5)
    lo1, hi1 = tighten_band(None, p, np.full_like(p, 0.3))
    np.testing.assert_allclose(lo1, 0.2)
    np.testing.assert_allclose(hi1, 0.8)
    lo2, hi2 = tighten_band((lo1, hi1), p + 0.1, np.full_like(p, 0.4))
    np.testing.assert_allclose(lo2, 0.2)  # max of old lower and 0.2
    np.testing.assert_allclose(hi2, 0.8)  # min of old upper and 1.0
    with pytest.raises(ValueError):
        tighten_band(None, p, np.full_like(p, -0.1))


def test_calibrate_delta_single_state_closed_form():
    # one state: shrinking costs delta * sum over non-best actions of the gap
    kernel = np.ones((1, 3, 1))
    r = np.array([[0.9, 0.4, 0.1]])
    gaps = (0.9 - 0.4) + (0.9 - 0.1)
    epsilon = 0.05
    delta = calibrate_delta(kernel, r, epsilon)
    best = -kernel_lp(kernel, r, delta).fun
    assert best == pytest.approx(0.9 - delta * gaps, abs=1e-9)
    assert delta * gaps <= epsilon + 1e-12
    # the next grid point up (2 * delta) must violate the gap
    if 2 * delta <= 1.0 / 6:
        assert 2 * delta * gaps > epsilon


def test_calibrate_delta_constant_objective_takes_first_candidate():
    kernel = generate_model(GeneratorSpec(S=2, n=1, alpha=0.2, A=2), 0).kernel
    assert calibrate_delta(kernel, np.full((2, 2), 0.4), 0.01) == 1.0 / (2 * 2 * 2)


def test_calibrate_delta_large_epsilon_takes_first_candidate():
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=3), 7)
    r = model.reward_means.sum(axis=0)
    assert calibrate_delta(model.kernel, r, 1.0) == 1.0 / (2 * 3 * 3)


def test_calibrate_delta_gap_on_random_models():
    for seed in range(10):
        model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.08, A=3), seed)
        r = model.reward_means.sum(axis=0)
        epsilon = 0.05
        delta = calibrate_delta(model.kernel, r, epsilon)
        assert -kernel_lp(model.kernel, r, delta).fun >= -kernel_lp(model.kernel, r).fun - epsilon


def test_calibrate_delta_tiny_epsilon_returns_the_floor_with_a_warning(caplog):
    # one state: every delta costs delta * 1.3 of the optimum, more than epsilon
    kernel = np.ones((1, 3, 1))
    with caplog.at_level("WARNING", logger="mdpvcg.polytope"):
        delta = calibrate_delta(kernel, np.array([[0.9, 0.4, 0.1]]), 1e-9)
    assert delta == _DELTA_MIN
    assert [r.getMessage() for r in caplog.records] == [
        "delta floor 1.0e-06 still violates the 1e-09 gap; returning the floor"]


def test_calibrate_delta_rejects_bad_epsilon():
    kernel = np.ones((1, 2, 1))
    with pytest.raises(ValueError):
        calibrate_delta(kernel, np.ones((1, 2)), 0.0)


def test_calibrate_delta_checks_its_kernel():
    """A kernel that is not (S, A, S), an objective that is not (S, A), a
    kernel entry that is not finite or is negative, and rows that do not sum
    to 1 within ``TOL.row_sum`` (the model-file tolerance) are refused, each
    by name: the collapsed band (P, P) meets its link rows only as closely
    as P's rows sum to 1. Rows off by less solve as the exact kernel does."""
    kernel = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=2), 4).kernel
    r = np.random.default_rng(4).random((3, 2))
    for bad in (kernel[:, :, :2], kernel[0], np.ones((0, 2, 0))):
        with pytest.raises(ValueError, match=r"kernel must be \(S, A, S\)"):
            calibrate_delta(bad, r, 0.05)
    with pytest.raises(ValueError, match=r"objective must be \(S, A\)"):
        calibrate_delta(kernel, r.T, 0.05)
    for value in (np.nan, np.inf, -0.1):
        bad = kernel.copy()
        bad[1, 0, 2] = value
        with pytest.raises(ValueError, match="finite and nonnegative"):
            calibrate_delta(bad, r, 0.05)
    want = calibrate_delta(kernel, r, 0.01)
    for sign in (1.0, -1.0):
        with pytest.raises(ValueError, match="rows must sum to 1 within 1e-12"):
            calibrate_delta(kernel * (1 + sign * 1e-10), r, 0.01)
        assert calibrate_delta(kernel * (1 + sign * 1e-13), r, 0.01) == want


def _oracle_calibrate(kernel, r, epsilon):
    """``calibrate_delta``'s grid scan, each LP solved by the rho-space oracle."""
    S, A = r.shape
    grid = [1.0 / (2 * S * A)]
    while grid[-1] / 2 > _DELTA_MIN:
        grid.append(grid[-1] / 2)
    base = -kernel_lp(kernel, r).fun
    for d in grid:
        res = kernel_lp(kernel, r, d)
        if res.status == 0 and -res.fun >= base - epsilon:
            return d
    return _DELTA_MIN


def test_calibrate_delta_matches_a_scan_with_the_rho_oracle():
    """On generated kernels and on sparse ones (exact zeros and one-hot rows;
    one whose state 1 holds about 1% of the mass, so that the top grid points
    are infeasible; one whose state 1 is transient, so that no floor is),
    calibrate_delta returns the grid point that a scan with the rho-space
    kernel LP returns."""
    rng = np.random.default_rng(27)
    rare, transient = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
    rare[0, :] = (0.99, 0.01)
    rare[1, :, 0] = transient[:, :, 0] = 1.0
    cases = [(rare, rng.random((2, 2))), (transient, rng.random((2, 2)))]
    for seed in range(8):
        S, A = (int(v) for v in rng.integers(1, 6, size=2))
        model = generate_model(GeneratorSpec(S=S, A=A, n=2, alpha=0.5 / S), seed)
        cases.append((model.kernel, model.reward_means.sum(axis=0)))
        S, A = (int(v) for v in rng.integers(2, 6, size=2))
        spec, _ = _random_case(S, A, "EXACT_KERNEL", 1.0, seed)
        cases.append((spec.band_lower, rng.random((S, A))))
    for kernel, r in cases:
        for epsilon in (0.2, 0.05, 0.01, 1e-3):
            assert calibrate_delta(kernel, r, epsilon) == _oracle_calibrate(kernel, r, epsilon)


def test_identical_inputs_solve_identically():
    """A solve depends on its inputs alone: on a kernel's collapsed band and
    on a band spec, a spec solved on before, for the same or another objective or number of
    objectives, gives what a fresh copy gives, bit for bit."""
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=3), 9)
    r, r2 = model.reward_means.sum(axis=0), model.reward_means[0]
    spec = PolytopeSpec(model.kernel, model.kernel, 0.03)
    a = maximize(r, spec)
    b = maximize(r, spec)
    assert a.objective_value == b.objective_value
    np.testing.assert_array_equal(a.q.q, b.q.q)
    band = PolytopeSpec(band_lower=np.clip(model.kernel - 0.05, 0, 1),
                        band_upper=np.clip(model.kernel + 0.05, 0, 1), delta=0.03)
    maximize(r2, band)
    after, fresh = maximize(r, band), maximize(r, replace(band))
    assert (after.objective_value, after.nit) == (fresh.objective_value, fresh.nit)
    _assert_bit_equal(after.q.q, fresh.q.q)
    # a learner's 2n+1 chain: the allocation, then each bidder's two counterfactuals
    chain = np.concatenate([r[None], np.repeat(r - model.reward_means[1:], 2, axis=0)])
    chain[2::2] *= 0.9
    first = _one_chain(chain, band)
    _assert_same_solutions(_one_chain(chain, band), first)
    _assert_same_solutions(_one_chain(chain, replace(band)), first)
    # a collapsed band's chains for K = 3, then K = 1, then K = 3 again
    three = _one_chain(chain[:3], spec)
    one = _one_chain(chain[2:], spec)
    _assert_same_solutions(_one_chain(chain[:3], spec), three)
    _assert_same_solutions(one, _one_chain(chain[2:], replace(spec)))


def test_solved_specs_copy_and_pickle():
    """A spec keeps no solver state: after a solve, a band and a collapsed band
    deep-copy and pickle, and each copy solves as the original does, bit for bit."""
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=3), 9)
    chain = np.concatenate([model.reward_means.sum(axis=0)[None], model.reward_means])
    band = PolytopeSpec(band_lower=np.clip(model.kernel - 0.05, 0, 1),
                        band_upper=np.clip(model.kernel + 0.05, 0, 1), delta=0.03)
    for spec in (band, PolytopeSpec(model.kernel, model.kernel, 0.03)):
        want = _one_chain(chain, spec)
        for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            _assert_same_solutions(_one_chain(chain, twin), want)


def _tree_case(n, S, A, seed):
    """A band spec with a floor, and a learner's tree on it: a root (S, A)
    and n chains of two objectives."""
    rng = np.random.default_rng(seed)
    kernel = rng.dirichlet(np.ones(S), size=(S, A))
    lower, upper = tighten_band(None, kernel, rng.uniform(0, 0.3, (S, A, S)))
    spec = PolytopeSpec(lower, upper, rng.uniform(0.01, 0.5) / (S * A))
    return spec, rng.random((S, A)), rng.random((n, 2, S, A))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), S=st.integers(1, 5), A=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_worker_count_changes_no_result(n, S, A, seed):
    """A tree's solutions are the same bit for bit whether the calling thread
    runs every chain or a worker thread starts for each chain after the first."""
    spec, root, chains = _tree_case(n, S, A, seed)
    got = []
    for workers in (lambda chains, columns: 0, lambda chains, columns: chains - 1):
        with mock.patch.object(polytope_mod, "_workers", workers):
            got.append(maximize_each(root, chains, spec))
    assert len(got[0]) == 1 + 2 * n
    _assert_same_solutions(*got)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), S=st.integers(1, 5), A=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_permuted_chains_permute_their_results(n, S, A, seed):
    """Chains after the first each start from the root's basis in a model of
    their own, so permuting them permutes their solutions, bit for bit."""
    spec, root, chains = _tree_case(n, S, A, seed)
    order = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])
    want = maximize_each(root, chains, spec)
    got = maximize_each(root, chains[order], spec)
    _assert_same_solutions(got[:1], want[:1])
    for j, c in enumerate(order):
        _assert_same_solutions(got[1 + 2 * j:3 + 2 * j], want[1 + 2 * c:3 + 2 * c])


def test_concurrent_calls_solve_as_serial_calls():
    """Threads that call ``maximize_each`` at once, each on a spec of its own,
    more of them than CPUs and switching often, and each call starting a
    worker per chain after the first, get what serial calls get."""
    cases = [_tree_case(3, 4, 3, seed) for seed in range(4)]
    want = [maximize_each(root, chains, spec) for spec, root, chains in cases]
    got = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def run(i):
        spec, root, chains = cases[i]
        start.wait(timeout=60)
        for _ in range(3):
            got[i].append(maximize_each(root, chains, spec))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(polytope_mod, "_workers", lambda chains, columns: chains - 1):
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for runs, solutions in zip(got, want, strict=True):
        assert len(runs) == 3
        for run_solutions in runs:
            _assert_same_solutions(run_solutions, solutions)
