"""The offline mechanism on a known model: allocation, payments, guarantees.

With the kernel known and bids submitted up front, the seller solves one
welfare problem for the allocation policy and one counterfactual problem per
bidder for her payment: what the others could earn without her, minus what
they actually earn at the realized (state, action). All of them are
average-reward MDPs on the one kernel, solved together by policy iteration.
On a single-state instance this collapses to the classic second-price auction.
"""

import numpy as np

from mdpvcg import (BidProfile, GeneratorSpec, MdpModel, average_utilities,
                    generate_model, offline_mechanism, seller_utility_identity)

print("=" * 64)
print("1. Single-state sanity check: second-price in disguise")
print("=" * 64)
# actions: 0 = keep the item, 1 = sell to bidder 1, 2 = sell to bidder 2
kernel = np.ones((1, 3, 1))
rewards = np.zeros((3, 1, 3))
rewards[1, 0, 1] = 0.8   # bidder 1 values her own allocation at 0.8
rewards[2, 0, 2] = 0.5   # bidder 2 values hers at 0.5
static = MdpModel(kernel=kernel, reward_means=rewards, alpha=1.0)

mech = offline_mechanism(BidProfile.truthful(static), rewards[0], kernel)
print("allocation policy:", mech.allocation.round(6)[0])
print("payment of bidder 1 when she wins:", round(mech.payments[0, 0, 1], 6))
print("payment of bidder 2 at that action:", round(mech.payments[1, 0, 1], 6))
u0, ui, welfare = average_utilities(mech, rewards, kernel)
print(f"welfare {welfare:.3f} = seller {u0:.3f} + bidders {ui.sum():.3f}")
print("bidder utilities:", ui.round(6), " (0.8 - 0.5 = 0.3 for the winner)")

print()
print("=" * 64)
print("2. A genuinely dynamic instance")
print("=" * 64)
model = generate_model(
    GeneratorSpec(S=3, n=2, alpha=0.1, auction="single_item"), seed=7)
print("action labels:", GeneratorSpec(S=3, n=2, alpha=0.1,
                                      auction="single_item").action_labels())
mech = offline_mechanism(BidProfile.truthful(model), model.reward_means[0],
                         model.kernel)
print("allocation policy:\n", mech.allocation.round(3))
u0, ui, welfare = average_utilities(mech, model.reward_means, model.kernel)
print(f"welfare {welfare:.4f}, seller utility {u0:.4f}, bidders {ui.round(4)}")
lhs, rhs = seller_utility_identity(mech, model.reward_means, model.kernel)
print(f"seller-utility identity: lhs {lhs:.10f} vs rhs {rhs:.10f}")

print()
print("=" * 64)
print("3. Probing truthfulness: 10 random misreports by bidder 1")
print("=" * 64)
rng = np.random.default_rng(1)
truthful = BidProfile.truthful(model)
base = ui[0]
worst = -np.inf
for _ in range(10):
    tables = truthful.bids.copy()
    tables[0] = rng.random((model.S, model.A))
    lying = offline_mechanism(BidProfile(tables), model.reward_means[0],
                              model.kernel)
    _, ui_lying, _ = average_utilities(lying, model.reward_means, model.kernel)
    worst = max(worst, ui_lying[0] - base)
GAIN_TOLERANCE = 1e-12  # rounding in the gains; a real gain would be far larger
verdict = "<= {:.0e}: lying never pays" if worst <= GAIN_TOLERANCE else "> {:.0e}: lying pays"
print(f"best gain from lying: {worst:.2e}  ({verdict.format(GAIN_TOLERANCE)})")
