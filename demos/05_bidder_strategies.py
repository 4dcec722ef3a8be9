"""Does lying pay against the online learner?

Two probes: a bidder who halves every report (stationary distortion) and a
bidder who reports the maximum during a window of early episodes
(non-stationary). The measured quantity is her seed-averaged per-round
utility gain over her truthful twin, holding everyone else fixed; it should
shrink, not grow, as the horizon extends. The flip side: a bidder who stays
truthful keeps a nonnegative long-run utility even with an adversary in the
room.
"""

from dataclasses import replace

import numpy as np

from mdpvcg import ExperimentConfig, GeneratorSpec, run_online, truthfulness_gain
from mdpvcg.bidders import windows_from_episodes
from mdpvcg.harness import learner_config, resolve_model

T = 30_000
config = ExperimentConfig(
    generator=GeneratorSpec(S=3, A=3, n=2, alpha=0.25,
                            reward_family="bernoulli-scaled"),
    model_seed=2, delta=0.08, zeta=0.05, horizon=T, seeds=(0, 1, 2, 3),
)
model = resolve_model(config)
lcfg = learner_config(config, model)

print("=" * 64)
print("1. Stationary distortion: reporting half the realized value")
print("=" * 64)
cps, gains = truthfulness_gain(config, bidder_index=0,
                               deviant={"kind": "scaled", "factor": 0.5},
                               extra_checkpoints=(T // 10, T))
for t in (T // 10, T):
    g = gains[int(np.where(cps == t)[0][0])]
    print(f"  per-round gain from lying at t={t:>6}: {g:+.4f}")

print()
print("=" * 64)
print("2. Non-stationary burst: max reports during episodes 2-4")
print("=" * 64)
windows = windows_from_episodes(lcfg, [2, 3, 4])
print("  inflation windows (rounds):", windows)
cps, gains = truthfulness_gain(
    config, bidder_index=0,
    deviant={"kind": "adversarial_window", "windows": windows, "inflate_to": 1.0},
    extra_checkpoints=(T // 10, T))
for t in (T // 10, T):
    g = gains[int(np.where(cps == t)[0][0])]
    print(f"  per-round gain from the burst at t={t:>6}: {g:+.4f}")

print()
print("=" * 64)
print("3. Individual rationality for the honest bidder")
print("=" * 64)
bidders = ({"kind": "truthful"},
           {"kind": "adversarial_window", "windows": windows_from_episodes(lcfg, [2, 3, 5]),
            "inflate_to": 1.0})
res = run_online(replace(config, bidders=bidders), extra_checkpoints=(T,))
u = np.mean([r.cum[1, -1] for r in res.seed_results]) / T
print(f"  truthful bidder's average utility with an adversary present: {u:+.4f}")
print("  (stays clear of negative territory)")
