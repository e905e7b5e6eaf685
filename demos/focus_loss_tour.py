"""
The center-mass loss family and its closed-form gradient
========================================================

Center-mass M is the probability the focus distribution assigns to labeled
pairs. The focal loss -(1 - M)^r log(M) shrinks as M grows; raising r
silences instances that are already easy. The gradient with respect to the
logits has the simple form L'(M) * s * (T - M) and always sums to zero.
When M underflows, the loss is taken in log space from the logits, so it
stays exact and its gradient keeps pointing at the labeled pairs.

Run with: python3 demos/focus_loss_tour.py
"""

import numpy as np

from fanet import (
    FocusLossConfig,
    center_mass,
    focal_loss,
    l2_loss,
    relation_loss,
    smooth_l1_loss,
    softmax_matrix,
)

np.set_printoptions(precision=4, suppress=True)

print("1. Focal values across M for several focusing exponents r")
ms = (0.05, 0.25, 0.5, 0.75, 0.95)
print("      M:", "  ".join(f"{m:>7.2f}" for m in ms))
for r in (0, 1, 2, 4):
    row = [focal_loss(m, FocusLossConfig(r=r)) for m in ms]
    print(f"  r = {r}:", "  ".join(f"{v:>7.4f}" for v in row))
print("Easy instances (M near 1) fade out faster as r grows.\n")

print("2. The squared variants at the same points")
print("     l2:", "  ".join(f"{l2_loss(m):>7.4f}" for m in ms))
print("  sm-l1:", "  ".join(f"{smooth_l1_loss(m):>7.4f}" for m in ms))
print()

print("3. Center-mass of a uniform focus is just |T| / n^2")
n = 4
target = np.zeros((n, n))
target[0, 1] = target[1, 0] = 1.0
uniform = softmax_matrix(np.zeros((n, n)))
print(f"M = {center_mass(uniform, target):.6f}  (2 labeled cells / 16)\n")

print("4. dL/dW = L'(M) s (T - M): always sums to zero, negative on labeled cells")
rng = np.random.default_rng(3)
logits = rng.normal(size=(n, n))
r0 = FocusLossConfig(r=0)  # L = -log(M)
loss, m, grad = relation_loss(softmax_matrix(logits), target, r0, logits)
print(f"M = {m:.4f}, -log(M) = {loss:.4f}, gradient sum = {grad.sum():.2e}")
print(grad, "\n")

print("5. Gradient descent on raw logits drives all mass onto the target")
logits = rng.normal(size=(n, n))
for step in range(401):
    loss_r0, m, grad = relation_loss(softmax_matrix(logits), target, r0, logits)
    if step in (0, 10, 25, 50, 100, 200, 400):
        loss_r2 = focal_loss(m, FocusLossConfig(r=2))
        print(f"  step {step:>3}: M = {m:.4f}  -log(M) = {loss_r0:.4f}"
              f"  focal(r=2) = {loss_r2:.4f}")
    logits -= 0.5 * grad  # descend -log(M)
print("\nThe r = 2 column collapses toward zero much earlier: once an")
print("instance is mostly solved, the focal factor stops spending gradient")
print("on it, freeing capacity for harder instances in a batch.")

print("\n6. An underflowed M still has a finite loss and a working gradient")
logits = np.zeros((n, n))
logits[2, 3] = 800.0  # one unlabeled pair takes all the mass: M = 0 in float64
loss, m, grad = relation_loss(softmax_matrix(logits), target, r0, logits)
print(f"M = {m}, -log(M) = {loss:.4f} (log space: 800 - log 2)")
print(f"gradient sum = {grad.sum():.2e}; a descent step raises the labeled logits")
print("and lowers the +800 one:")
print(grad)
