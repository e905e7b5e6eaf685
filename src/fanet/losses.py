"""Center-mass statistic and the losses that drive attention onto labeled pairs.

The center-mass M of a focus-weight matrix is the total probability mass
sitting on ground-truth-labeled entries: M = sum(focus * target), a scalar in
[0, 1]. The main loss is the focal log form

    L(M) = -(1 - M)^r * log(M)

whose (1-M)^r factor damps the gradient of well-converged instances. Two
ablation variants over x = 1 - M are also provided (plain square, and the
quadratic/linear piecewise form). Gradients w.r.t. the raw logits use the
closed form dM/dW[k, l] = s[k, l] * (T[k, l] - M) with s the matrix softmax;
`relation_loss` returns the loss, M and dL/dW together from one softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    DEFAULT_EPS,
    ShapeError,
    ValidationError,
    as_matrix,
    check_finite,
    check_same_shape,
    stable_log,
)

__all__ = [
    "FocusLossConfig",
    "LOSS_VARIANTS",
    "SUPPORTED_FOCAL_EXPONENTS",
    "validate_target",
    "center_mass",
    "focal_loss",
    "l2_loss",
    "smooth_l1_loss",
    "loss_value",
    "loss_grad",
    "relation_loss",
]

LOSS_VARIANTS = ("focal", "l2", "smooth_l1")
SUPPORTED_FOCAL_EXPONENTS = (0, 1, 2, 3, 4)

FOCUS_SUM_TOL = 1e-10


@dataclass(frozen=True)
class FocusLossConfig:
    """Loss selection: focal exponent r, variant, and the log guard eps."""

    r: int = 2
    variant: str = "focal"
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if self.r not in SUPPORTED_FOCAL_EXPONENTS:
            raise ValidationError(
                f"focal exponent r must be one of {SUPPORTED_FOCAL_EXPONENTS}, got {self.r}"
            )
        if self.variant not in LOSS_VARIANTS:
            raise ValidationError(
                f"variant must be one of {LOSS_VARIANTS}, got {self.variant!r}"
            )
        if not (0.0 < self.eps <= 1e-6):
            raise ValidationError(f"eps must lie in (0, 1e-6], got {self.eps}")


def validate_target(target) -> np.ndarray:
    """Validate a binary relation target: square, entries in {0, 1}, zero diagonal.

    `target` is one (n, n) matrix or a (B, n, n) stack of them; a stack is
    rejected exactly when one of its matrices would be, with the same message.
    """
    return _check_target(target)[0]


def _check_target(target) -> tuple[np.ndarray, int]:
    """`validate_target`'s checked array and its nonzero count."""
    t = np.asarray(target, dtype=np.float64)
    if t.ndim == 3:
        t = np.ascontiguousarray(t)
        if 0 in t.shape:
            raise ShapeError(f"target must have at least one row and column, got {t.shape}")
        check_finite(t, "target")
    else:
        t = as_matrix(t, "target")
    if t.shape[-2] != t.shape[-1]:
        raise ValidationError(f"target must be square, got {t.shape}")
    nonzero = np.count_nonzero(t)
    if np.count_nonzero(t == 1.0) != nonzero:
        raise ValidationError("target entries must be exactly 0 or 1")
    if t.diagonal(axis1=-2, axis2=-1).any():
        raise ValidationError("target diagonal must be zero (no self-relations)")
    return t, nonzero


def center_mass(focus_weights, target) -> float:
    """Total focus-weight mass on labeled entries: M = sum(focus * T) in [0, 1]."""
    w = as_matrix(focus_weights, "focus_weights")
    t = validate_target(target)
    check_same_shape(w, t, "focus_weights and target")
    total = float(w.sum())
    if abs(total - 1.0) > FOCUS_SUM_TOL:
        raise ValidationError(
            f"focus_weights must sum to 1 within {FOCUS_SUM_TOL}, got {total!r}"
        )
    return float(np.sum(w * t))


def focal_loss(m: float, config: FocusLossConfig = FocusLossConfig()) -> float:
    """-(1 - m)^r * log(m), eps-guarded; exactly 0 at m = 1."""
    if m == 1.0:
        return 0.0
    return -((1.0 - m) ** config.r) * stable_log(m, config.eps)


def l2_loss(m: float) -> float:
    """(1 - m)^2."""
    return (1.0 - m) ** 2


def smooth_l1_loss(m: float) -> float:
    """With x = 1 - m: x^2 if |x| < 0.5, else |x| - 0.25. Continuous at x = 0.5."""
    x = abs(1.0 - m)
    return x * x if x < 0.5 else x - 0.25


def loss_value(m: float, config: FocusLossConfig) -> float:
    if config.variant == "focal":
        return focal_loss(m, config)
    if config.variant == "l2":
        return l2_loss(m)
    return smooth_l1_loss(m)


def loss_grad(m: float, config: FocusLossConfig) -> float:
    """dL/dM for the selected variant, eps-clamped near M = 0."""
    if config.variant == "l2":
        return -2.0 * (1.0 - m)
    if config.variant == "smooth_l1":
        x = 1.0 - m
        return -2.0 * x if x < 0.5 else -1.0
    # focal: r(1-M)^{r-1} log(M) - (1-M)^r / M, with M clamped to eps in both
    # the log and the reciprocal (bounded gradient at the degenerate start)
    m_safe = max(m, config.eps)
    r = config.r
    if r == 0:
        return -1.0 / m_safe
    return r * (1.0 - m) ** (r - 1) * stable_log(m, config.eps) - (1.0 - m) ** r / m_safe


def relation_loss(
    focus_weights: np.ndarray, target: np.ndarray, config: FocusLossConfig
) -> tuple[float, float, np.ndarray]:
    """Matrix-path relation loss as (loss, M, dL/dW), from one matrix softmax.

    focus_weights is the matrix softmax s of the logits W, as the attention
    forward returns it; target is a checked target of the same shape (an
    Instance's, or validate_target's result). With M = sum(s * T), the
    gradient is the closed form dL/dW = L'(M) * s * (T - M), which sums to
    zero in exact arithmetic: sum(s * T) - M * sum(s) = M - M.

    A target with no labeled relations yields loss 0, M 0 and a zero
    gradient exactly (there is no mass to concentrate); callers exclude such
    instances from center-mass reporting.
    """
    check_same_shape(focus_weights, target, "focus_weights and target")
    m = float(np.add.reduce(focus_weights * target, axis=None))
    # M is exactly 0 for an empty target; only then is the target scanned
    if m == 0.0 and not target.any():
        return 0.0, 0.0, np.zeros_like(focus_weights)
    # in one fresh array; each element rounds as L'(M) * (s * (T - M)) would
    grad = target - m
    grad *= focus_weights
    grad *= loss_grad(m, config)
    return loss_value(m, config), m, grad
