"""Occupancy polytopes, described by their inputs: a kernel band, and delta.

A known kernel P is the band of width zero, (P, P). Maximizing <q, r> over
its polytope recovers the optimal stationary policy. Adding a floor delta
(every state-action mass >= delta) shrinks the polytope and forces
exploration at a welfare cost that the calibration routine keeps below a
chosen epsilon. A wider two-sided band (band_lower, band_upper) leaves the
kernel unknown inside it; a band with a floor is what the online learner
solves each episode.
"""

import numpy as np

from mdpvcg import (GeneratorSpec, PolytopeSpec, calibrate_delta,
                    generate_model, maximize, tighten_band)

model = generate_model(GeneratorSpec(S=3, n=2, alpha=0.1, A=3), seed=5)
objective = model.reward_means.sum(axis=0)

print("=" * 64)
print("1. Optimal welfare over the exact-kernel polytope")
print("=" * 64)
exact = maximize(objective, PolytopeSpec(model.kernel, model.kernel))
print("optimum:", round(exact.objective_value, 6))
print("optimizer's policy mass rho:\n", exact.q.rho.round(4))

print()
print("=" * 64)
print("2. The price of shrinking")
print("=" * 64)
for delta in [0.001, 0.01, 0.05, 0.1]:
    sol = maximize(objective, PolytopeSpec(model.kernel, model.kernel, delta))
    if sol.status == "optimal":
        loss = exact.objective_value - sol.objective_value
        print(f"  delta={delta:<6} optimum {sol.objective_value:.6f}"
              f"   loss {loss:.6f}")
    else:
        print(f"  delta={delta:<6} infeasible for this kernel")

print()
print("=" * 64)
print("3. Calibrating delta for a target loss")
print("=" * 64)
for epsilon in [0.2, 0.05, 0.01]:
    delta = calibrate_delta(model.kernel, objective, epsilon)
    sol = maximize(objective, PolytopeSpec(model.kernel, model.kernel, delta))
    print(f"  epsilon={epsilon:<5} -> delta={delta:.6f}"
          f"   realized loss {exact.objective_value - sol.objective_value:.6f}")

print()
print("=" * 64)
print("4. Confidence bands around a noisy kernel estimate")
print("=" * 64)
rng = np.random.default_rng(3)
p_noisy = np.clip(model.kernel + rng.normal(0, 0.03, model.kernel.shape), 0, 1)
p_noisy /= p_noisy.sum(axis=2, keepdims=True)
for radius in [0.5, 0.2, 0.1]:
    lower, upper = tighten_band(None, p_noisy, np.full(model.kernel.shape, radius))
    sol = maximize(objective, PolytopeSpec(band_lower=lower, band_upper=upper,
                                           delta=0.01))
    print(f"  radius {radius:<4} optimistic optimum {sol.objective_value:.6f}"
          f"   (exact-kernel optimum {exact.objective_value:.6f})")
print("narrower bands squeeze the optimistic value toward the truth")
