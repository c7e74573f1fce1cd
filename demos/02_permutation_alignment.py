"""Undoing hidden-unit permutations by aligning weights.

Two networks can compute the same function with their hidden units listed
in a different order, and elementwise averaging of such twins destroys the
function.  This demo builds a permuted twin of a trained network, shows
that naive averaging breaks it, and then shows that transport alignment
finds the permutation exactly and makes averaging safe.
"""

import numpy as np

from otfuse import (
    AlignmentOptions,
    DomainMixtureConfig,
    LayerSpec,
    TrainConfig,
    accuracy,
    align,
    direct_average,
    fuse,
    gen_synthetic,
    train,
)
from otfuse.nets import LayerWeights, make_checkpoint, max_weight_difference

rng = np.random.default_rng(1)

cfg = DomainMixtureConfig(num_classes=4, feature_dim=8, domains=(0,))
train_set, held_set = gen_synthetic(cfg, 3)
specs = (
    LayerSpec(8, 16, "relu"),
    LayerSpec(16, 16, "relu"),
    LayerSpec(16, 4, "identity"),
)
model = train(specs, train_set, TrainConfig(epochs=80, batch_size=32, seed=3))
print(f"trained model: held-out accuracy {accuracy(model, held_set):.3f}")

# permute both hidden layers (rows of W and b; columns of the next layer)
perms = [rng.permutation(16), rng.permutation(16)]
ws = [l.w.copy() for l in model.layers]
bs = [l.b.copy() for l in model.layers]
for l, perm in enumerate(perms):
    p = np.zeros((16, 16))
    p[np.arange(16), perm] = 1.0
    ws[l], bs[l] = p @ ws[l], p @ bs[l]
    ws[l + 1] = ws[l + 1] @ p.T
twin = make_checkpoint(specs, [LayerWeights(w, b) for w, b in zip(ws, bs)], model.meta)
print(f"permuted twin:  held-out accuracy {accuracy(twin, held_set):.3f} "
      "(same function, different unit order)")

naive = direct_average(model, twin, 0.5)
print(f"\nnaive average of the two: accuracy {accuracy(naive, held_set):.3f} "
      f"(chance is {1 / cfg.num_classes:.2f})")

result = align(twin, model, AlignmentOptions(solver="exact"))
print("\nalignment recovered the hidden-unit permutations:")
for l, (layer, perm) in enumerate(zip(result.layers[:-1], perms)):
    print(f"  layer {l}: recovered == planted permutation: {np.array_equal(layer.assignment, perm)}")
print(f"aligned twin vs original, max weight difference: "
      f"{max_weight_difference(result.aligned, model):.2e}")

safe = fuse(result.aligned, model, 0.5)
print(f"\naverage after alignment: accuracy {accuracy(safe, held_set):.3f}")
