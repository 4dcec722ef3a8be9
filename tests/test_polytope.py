import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import mdpvcg.polytope as polytope_mod
from _oracles import brute_force_best, loop_constraints
from mdpvcg import (GeneratorSpec, PolytopeSpec, build_constraints,
                    calibrate_delta, generate_model, maximize, tighten_band)
from mdpvcg.polytope import VARIANTS


def uniform_spec(S, A):
    return PolytopeSpec("EXACT_KERNEL", S, A, kernel=np.full((S, A, S), 1.0 / S))


def test_full_constraint_counts():
    """Row counts of every family, for every variant, read off the shapes."""
    S, A = 2, 3
    nv = S * A * S
    kernel = np.full((S, A, S), 1.0 / S)
    cases = [
        (PolytopeSpec("EXACT_KERNEL", S, A, kernel=kernel), 1 + S + nv, 0),
        (PolytopeSpec("SHRUNK_EXACT", S, A, kernel=kernel, delta=0.1),
         1 + S + nv, S * A),
        (PolytopeSpec("SHRUNK_CONFIDENCE", S, A, delta=0.1,
                      band_lower=np.zeros((S, A, S)), band_upper=np.ones((S, A, S))),
         1 + S, S * A + 2 * nv),
    ]
    for spec, n_eq, n_ub in cases:
        system = build_constraints(spec)
        assert system.A_eq.shape == (n_eq, nv) and system.b_eq.shape == (n_eq,)
        assert system.A_ub.shape == (n_ub, nv) and system.b_ub.shape == (n_ub,)
        np.testing.assert_array_equal(system.A_eq[0], 1.0)  # mass
        assert system.b_eq[0] == 1.0


def test_exact_kernel_adds_one_row_per_triple():
    model = generate_model(GeneratorSpec(S=2, n=1, alpha=0.2, A=2), 0)
    spec = PolytopeSpec("EXACT_KERNEL", 2, 2, kernel=model.kernel)
    system = build_constraints(spec)
    kernel_rows = system.A_eq[1 + 2:]
    assert kernel_rows.shape[0] == 2 * 2 * 2
    # any q = m(s,a) P(.|s,a) satisfies every kernel row
    q = np.random.default_rng(0).random((2, 2, 1)) * model.kernel
    np.testing.assert_allclose(kernel_rows @ q.ravel(), 0.0, atol=1e-12)


def test_shrunk_confidence_band_row_count():
    S, A = 2, 2
    lower = np.zeros((S, A, S))
    upper = np.ones((S, A, S))
    spec = PolytopeSpec("SHRUNK_CONFIDENCE", S, A, delta=0.1,
                        band_lower=lower, band_upper=upper)
    system = build_constraints(spec)
    assert system.A_ub.shape[0] == S * A + 2 * S * A * S
    np.testing.assert_array_equal(system.b_ub[:S * A], -0.1)  # shrink rows
    np.testing.assert_array_equal(system.b_ub[S * A:], 0.0)   # band rows


def _assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=80, deadline=None)
@given(S=st.integers(1, 5), A=st.integers(1, 5), variant=st.sampled_from(VARIANTS),
       delta_frac=st.floats(1e-6, 1), seed=st.integers(0, 2**32 - 1))
def test_vectorised_rows_equal_loop_oracle(S, A, variant, delta_frac, seed):
    rng = np.random.default_rng(seed)
    shape = (S, A, S)
    kernel = rng.dirichlet(np.ones(S), size=(S, A))
    lower, upper = 0.5 * rng.random(shape), 0.5 + 0.5 * rng.random(shape)
    # exact 0 and 1 entries: -upper and lower - 1 must keep the oracle's zero signs
    for arr in (kernel, lower, upper):
        arr[rng.random(shape) < 0.25] = 0.0
        arr[rng.random(shape) < 0.25] = 1.0
    kw = {"EXACT_KERNEL": dict(kernel=kernel),
          "SHRUNK_EXACT": dict(kernel=kernel, delta=delta_frac / (S * A)),
          "SHRUNK_CONFIDENCE": dict(delta=delta_frac / (S * A),
                                    band_lower=lower, band_upper=upper)}[variant]
    system = build_constraints(PolytopeSpec(variant, S, A, **kw))
    want = loop_constraints(variant, S, A, **kw)
    for got, ref in zip((system.A_eq, system.b_eq, system.A_ub, system.b_ub), want):
        _assert_bit_equal(got, ref)


def test_sparse_handoff_solves_identically(monkeypatch):
    """Past _SPARSE_ABOVE entries linprog gets scipy.sparse rows; same solutions."""
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=2), 3)
    lower, upper = tighten_band(None, model.kernel, np.full((3, 2, 3), 0.07))
    specs = [
        PolytopeSpec("EXACT_KERNEL", 3, 2, kernel=model.kernel),
        PolytopeSpec("SHRUNK_EXACT", 3, 2, kernel=model.kernel, delta=0.05),
        PolytopeSpec("SHRUNK_CONFIDENCE", 3, 2, delta=0.05,
                     band_lower=lower, band_upper=upper),
        PolytopeSpec("SHRUNK_CONFIDENCE", 3, 2, delta=0.05,  # infeasible
                     band_lower=np.full((3, 2, 3), 0.9), band_upper=np.ones((3, 2, 3))),
    ]
    r = np.random.default_rng(4).random((3, 2))
    dense = [maximize(r, spec) for spec in specs]

    real, handed_sparse = polytope_mod.linprog, []

    def spy(*args, **kwargs):
        handed_sparse.append(sparse.issparse(kwargs["A_eq"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(polytope_mod, "linprog", spy)
    monkeypatch.setattr(polytope_mod, "_SPARSE_ABOVE", 0)
    for spec, want in zip(specs, dense):
        got = maximize(r, spec)
        assert got.status == want.status
        if want.status == "optimal":
            assert got.objective_value == want.objective_value
            np.testing.assert_array_equal(got.q.q, want.q.q)
    assert handed_sparse == [True] * len(specs)
    assert dense[-1].status == "infeasible"


def test_rejects_malformed_specs():
    with pytest.raises(ValueError, match="bad dims"):
        PolytopeSpec("EXACT_KERNEL", 0, 2, kernel=np.ones((0, 2, 0)))
    with pytest.raises(ValueError, match="unknown variant"):
        PolytopeSpec("NOPE", 2, 2)
    for removed in ("FULL", "SHRUNK"):
        with pytest.raises(ValueError, match="unknown variant"):
            PolytopeSpec(removed, 2, 2, delta=0.1)
    with pytest.raises(ValueError):
        PolytopeSpec("EXACT_KERNEL", 2, 2)  # kernel missing
    with pytest.raises(ValueError):
        PolytopeSpec("SHRUNK_EXACT", 2, 2, kernel=np.full((2, 2, 2), 0.5),
                     delta=0.3)  # above 1/(S*A)
    with pytest.raises(ValueError):
        maximize(np.ones((3, 3)), uniform_spec(2, 2))  # shape mismatch
    with pytest.raises(ValueError):
        maximize(np.full((2, 2), np.inf), uniform_spec(2, 2))


def test_zero_objective_returns_feasible_point():
    sol = maximize(np.zeros((2, 2)), uniform_spec(2, 2))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
    assert sol.q.violations() == []


def test_single_state_optimum_is_best_action():
    kernel = np.ones((1, 3, 1))
    r = np.array([[0.2, 0.9, 0.4]])
    sol = maximize(r, PolytopeSpec("EXACT_KERNEL", 1, 3, kernel=kernel))
    assert sol.objective_value == pytest.approx(0.9, abs=1e-10)
    assert sol.q.rho[0, 1] == pytest.approx(1.0, abs=1e-10)


def test_optimum_matches_deterministic_policy_enumeration():
    for seed in range(5):
        model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.07, A=3), seed)
        r = model.reward_means.sum(axis=0)
        sol = maximize(r, PolytopeSpec("EXACT_KERNEL", 3, 3, kernel=model.kernel))
        assert sol.objective_value == pytest.approx(
            brute_force_best(model.kernel, r), abs=1e-6)


def test_optimal_points_satisfy_their_constraints():
    rng = np.random.default_rng(0)
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=2), 3)
    lower, upper = tighten_band(None, model.kernel, np.full((3, 2, 3), 0.07))
    specs = [
        uniform_spec(3, 2),
        PolytopeSpec("EXACT_KERNEL", 3, 2, kernel=model.kernel),
        PolytopeSpec("SHRUNK_EXACT", 3, 2, kernel=model.kernel, delta=0.05),
        PolytopeSpec("SHRUNK_CONFIDENCE", 3, 2, delta=0.05,
                     band_lower=lower, band_upper=upper),
        PolytopeSpec("SHRUNK_CONFIDENCE", 3, 2, delta=0.05,
                     band_lower=np.zeros((3, 2, 3)), band_upper=np.ones((3, 2, 3))),
    ]
    for spec in specs:
        for _ in range(3):
            sol = maximize(rng.random((3, 2)), spec)
            assert sol.status == "optimal"
            system = build_constraints(spec)
            assert system.max_violation(sol.q.q.ravel()) <= 1e-8
            assert sol.q.violations() == []


def test_vacuous_band_equals_plain_shrunk():
    # With the kernel free, any masses m(s,a) >= delta balance the flow
    # (q = m(s,a) nu(s')), so the plain shrunk optimum puts delta on every
    # pair and the rest on the best one: delta*sum(r) + (1 - S*A*delta)*max(r).
    rng = np.random.default_rng(1)
    for _ in range(20):
        S, A = (int(v) for v in rng.integers(1, 5, size=2))
        delta = rng.uniform(0, 1) / (S * A)
        r = rng.random((S, A))
        conf = PolytopeSpec("SHRUNK_CONFIDENCE", S, A, delta=delta,
                            band_lower=np.zeros((S, A, S)),
                            band_upper=np.ones((S, A, S)))
        closed_form = delta * r.sum() + (1 - S * A * delta) * r.max()
        assert maximize(r, conf).objective_value == pytest.approx(closed_form, abs=1e-9)


def test_optimum_nonincreasing_in_delta():
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=3), 5)
    r = model.reward_means.sum(axis=0)
    deltas = [0.001, 0.01, 0.05, 0.1, 1.0 / 9]
    values = []
    for d in deltas:
        sol = maximize(r, PolytopeSpec("SHRUNK_EXACT", 3, 3, kernel=model.kernel,
                                       delta=d))
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
        sol = maximize(r, PolytopeSpec("SHRUNK_CONFIDENCE", 3, 2, delta=0.02,
                                       band_lower=lower, band_upper=upper))
        if prev is not None:
            assert sol.objective_value <= prev + 1e-8
        prev = sol.objective_value


def test_confidence_relaxes_exact_when_truth_is_inside_band():
    for seed in range(5):
        model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=2), seed)
        r = model.reward_means.sum(axis=0)
        lower, upper = tighten_band(None, model.kernel,
                                    np.full(model.kernel.shape, 0.05))
        conf = maximize(r, PolytopeSpec("SHRUNK_CONFIDENCE", 3, 2, delta=0.02,
                                        band_lower=lower, band_upper=upper))
        exact = maximize(r, PolytopeSpec("SHRUNK_EXACT", 3, 2,
                                         kernel=model.kernel, delta=0.02))
        assert conf.objective_value >= exact.objective_value - 1e-8


def test_band_contradiction_reports_infeasible():
    S, A = 2, 2
    lower = np.full((S, A, S), 0.9)  # rows would sum to 1.8
    upper = np.ones((S, A, S))
    sol = maximize(np.ones((S, A)),
                   PolytopeSpec("SHRUNK_CONFIDENCE", S, A, delta=0.01,
                                band_lower=lower, band_upper=upper))
    assert sol.status == "infeasible"
    assert sol.q is None


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
    best = maximize(r, PolytopeSpec("SHRUNK_EXACT", 1, 3, kernel=kernel,
                                    delta=delta)).objective_value
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
    assert calibrate_delta(model, r, 1.0) == 1.0 / (2 * 3 * 3)


def test_calibrate_delta_gap_on_random_models():
    for seed in range(10):
        model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.08, A=3), seed)
        r = model.reward_means.sum(axis=0)
        epsilon = 0.05
        delta = calibrate_delta(model, r, epsilon)
        spec = PolytopeSpec("SHRUNK_EXACT", 3, 3, kernel=model.kernel, delta=delta)
        exact = PolytopeSpec("EXACT_KERNEL", 3, 3, kernel=model.kernel)
        assert (maximize(r, spec).objective_value
                >= maximize(r, exact).objective_value - epsilon)


def test_calibrate_delta_rejects_bad_epsilon():
    kernel = np.ones((1, 2, 1))
    with pytest.raises(ValueError):
        calibrate_delta(kernel, np.ones((1, 2)), 0.0)


def test_identical_inputs_solve_identically():
    model = generate_model(GeneratorSpec(S=3, n=1, alpha=0.1, A=3), 9)
    r = model.reward_means.sum(axis=0)
    spec = PolytopeSpec("SHRUNK_EXACT", 3, 3, kernel=model.kernel, delta=0.03)
    a = maximize(r, spec)
    b = maximize(r, spec)
    assert a.objective_value == b.objective_value
    np.testing.assert_array_equal(a.q.q, b.q.q)
