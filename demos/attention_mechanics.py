"""
Attention over an entity set: one score matrix, two normalizations
==================================================================

Five entities, two clusters. The same scaled dot-product logits feed
(a) a per-row softmax used to aggregate features and (b) a softmax over
the whole matrix, read as one probability distribution over ordered
pairs. Run with: python3 demos/attention_mechanics.py
"""

import numpy as np

from fanet import EntitySet, aggregate, forward, init_params, top_k_pairs

np.set_printoptions(precision=3, suppress=True)

# Two tight clusters in feature space: entities 0-2 near +e1, entities 3-4
# near -e2. Related entities should end up attending to each other.
rng = np.random.default_rng(7)
base = np.array(
    [
        [2.0, 0.0, 0.0, 0.0],
        [2.0, 0.1, 0.0, 0.0],
        [1.9, 0.0, 0.1, 0.0],
        [0.0, -2.0, 0.0, 0.1],
        [0.0, -1.9, 0.1, 0.0],
    ]
)
entities = EntitySet(features=base + 0.05 * rng.normal(size=base.shape))
params = init_params(d=4, d_k=3, seed=0)

state = forward(entities.features, params)

print("1. Pairwise logits W[m, n] = (w_k f_m) . (w_q f_n) / sqrt(d_k)")
logits = state.logits
print(logits, "\n")

print("2. Row normalization (aggregation weights): every row sums to 1")
print(state.agg_weights)
print("row sums:", state.agg_weights.sum(axis=1), "\n")

print("3. Matrix normalization (focus weights): the whole matrix sums to 1")
print(state.focus_weights)
print("total mass:", state.focus_weights.sum())
best, best_weights = top_k_pairs(state.focus_weights, 3)
print("top pair proposals (diagonal excluded):", best.tolist())
print("their focus weights:", best_weights, "\n")

print("4. Context vectors and the residual update")
context = aggregate(state, entities.features)
updated = entities.features + context
print("context[0]:", context[0])
print("updated[0]:", updated[0], "\n")

print("5. Scaling features by c scales logits by c^2 (both projections see c)")
doubled = EntitySet(features=2.0 * entities.features)
ratio = forward(doubled.features, params).logits / logits
print("elementwise ratio (should be 4 everywhere):")
print(ratio)
