"""Center-mass statistic and the losses that drive attention onto labeled pairs.

The center-mass M of a focus-weight matrix is the total probability mass
sitting on ground-truth-labeled entries: M = sum(focus * target), a scalar in
[0, 1]. A target is a bool mask of the labeled pairs (`validate_target`): a
float64 times a bool rounds exactly as a float64 times 0.0 or 1.0, so every
sum and gradient here is the one a float 0/1 target gives. The main loss is
the focal log form

    L(M) = -(1 - M)^r * log(M)

whose (1-M)^r factor damps the gradient of well-converged instances. Two
ablation variants over x = 1 - M are also provided (plain square, and the
quadratic/linear piecewise form). Gradients w.r.t. the raw logits use the
closed form dM/dW[k, l] = s[k, l] * (T[k, l] - M) with s the softmax.
`relation_loss` returns the loss, M and dL/dW together for every supervised
strategy; below `FocusLossConfig.eps` the focal loss is taken in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .matrices import (
    ShapeError,
    ValidationError,
    as_matrix,
    check_finite,
    check_same_shape,
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
    """Loss selection: focal exponent r and variant; `eps` is a class constant."""

    r: int = 2
    variant: str = "focal"
    eps: ClassVar[float] = 1e-12

    def __post_init__(self):
        if self.r not in SUPPORTED_FOCAL_EXPONENTS:
            raise ValidationError(
                f"focal exponent r must be one of {SUPPORTED_FOCAL_EXPONENTS}, got {self.r}"
            )
        if self.variant not in LOSS_VARIANTS:
            raise ValidationError(
                f"variant must be one of {LOSS_VARIANTS}, got {self.variant!r}"
            )


def validate_target(target) -> np.ndarray:
    """Validate a binary relation target: square, entries in {0, 1}, zero diagonal.

    `target` is one (n, n) matrix or a (B, n, n) stack of them; a stack is
    rejected exactly when one of its matrices would be, with the same message.
    Returns the target as a read-only bool mask: a bool array is checked in
    place (its shape and diagonal), any other must be finite and exactly 0 or 1.
    """
    return _check_target(target)[0]


def _check_target(target) -> tuple[np.ndarray, int]:
    """`validate_target`'s mask and its nonzero count."""
    is_mask = isinstance(target, np.ndarray) and target.dtype == bool
    t = target if is_mask else np.asarray(target, dtype=np.float64)
    if t.ndim not in (2, 3):
        raise ShapeError(f"target must be 2-D, got ndim={t.ndim}")
    if 0 in t.shape:
        raise ShapeError(f"target must have at least one row and column, got {t.shape}")
    if not is_mask:
        check_finite(t, "target")
    if t.shape[-2] != t.shape[-1]:
        raise ValidationError(f"target must be square, got {t.shape}")
    nonzero = np.count_nonzero(t)
    if not is_mask:
        t = t == 1.0
        if np.count_nonzero(t) != nonzero:
            raise ValidationError("target entries must be exactly 0 or 1")
    if t.diagonal(axis1=-2, axis2=-1).any():
        raise ValidationError("target diagonal must be zero (no self-relations)")
    t = np.ascontiguousarray(t).view()  # a view: the caller's own array keeps its flags
    t.flags.writeable = False
    return t, nonzero


def center_mass(focus_weights, target) -> float:
    """Total focus-weight mass on labeled entries: M = sum(focus * T) in [0, 1],
    with T the bool mask of `validate_target`."""
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
    """-(1 - m)^r * log(m): exactly 0 at m = 1, +inf at m = 0."""
    if m == 1.0:
        return 0.0
    if m == 0.0:
        return math.inf
    return -((1.0 - m) ** config.r) * math.log(m)


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
    """dL/dM for the selected variant; the focal one needs m > 0."""
    if config.variant == "l2":
        return -2.0 * (1.0 - m)
    if config.variant == "smooth_l1":
        x = 1.0 - m
        return -2.0 * x if x < 0.5 else -1.0
    # focal: r(1-M)^{r-1} log(M) - (1-M)^r / M
    r = config.r
    if r == 0:
        return -1.0 / m
    return r * (1.0 - m) ** (r - 1) * math.log(m) - (1.0 - m) ** r / m


def relation_loss(
    focus_weights: np.ndarray,
    target: np.ndarray,
    config: FocusLossConfig,
    logits: np.ndarray,
    axis: Optional[int] = None,
) -> tuple[float, float, np.ndarray]:
    """(loss, M, dL/dW) of the relation term, from the forward's softmax s and logits W.

    axis=None: s is the matrix softmax (focus_weights) and M = sum(s * T).
    axis=-1: s is the row softmax (agg_weights); the loss is the mean of
    L(M_i) over the rows i that label a cell, and M the mean of their M_i.
    target is a checked bool mask (`validate_target`) of s's shape. dL/dW =
    L'(M) * s * (T - M), which sums to zero; below FocusLossConfig.eps a
    focal M is taken in log space, log M = logsumexp(W[T]) - logsumexp(W),
    with dL/dW = M L'(M) * (q - s) and q the softmax over the labeled cells.
    M L'(M) -> -1 as M -> 0, so the gradient survives M's underflow. An empty
    target gives (0.0, 0.0, zeros).
    """
    check_same_shape(focus_weights, target, "focus_weights and target")
    if axis not in (None, -1):
        raise ValidationError(f"axis must be None (the matrix) or -1 (rows), got {axis!r}")
    if axis is None:
        m = float(np.add.reduce(focus_weights * target, axis=None))
        # M is exactly 0 for an empty target; only then is the target scanned
        if m == 0.0 and not target.any():
            return 0.0, 0.0, np.zeros_like(focus_weights)
        if config.variant == "focal" and m < FocusLossConfig.eps:
            value, grad = _log_space(focus_weights, target, config, logits)
            return value, m, grad
        # in one fresh array; each element rounds as L'(M) * (s * (T - M)) would
        grad = target - m
        grad *= focus_weights
        grad *= loss_grad(m, config)
        return loss_value(m, config), m, grad
    rows = np.flatnonzero(target.any(axis=-1))
    grad = np.zeros_like(focus_weights)
    if rows.size == 0:
        return 0.0, 0.0, grad
    s, t = focus_weights[rows], target[rows]
    m = np.add.reduce(s * t, axis=-1)
    total, slopes, logged = 0.0, [], {}
    for k, m_k in enumerate(m.tolist()):
        if config.variant == "focal" and m_k < FocusLossConfig.eps:
            value, logged[k] = _log_space(s[k], t[k], config, logits[rows[k]])
            slopes.append(0.0)  # its gradient row is set from log space below
        else:
            value = loss_value(m_k, config)
            slopes.append(loss_grad(m_k, config))
        total += value
    # each row rounds as (L'(M_i) * s_i) * (t_i - M_i) / R
    g = np.array(slopes)[:, None] * s
    g *= t - m[:, None]
    for k, row_grad in logged.items():
        g[k] = row_grad
    g /= rows.size
    grad[rows] = g
    return total / rows.size, float(m.mean()), grad


def _log_space(s: np.ndarray, t: np.ndarray, config: FocusLossConfig, logits: np.ndarray):
    """(focal loss, dL/dW) from log M, for one softmax s of `logits` (a matrix or a row)."""
    on = np.where(t, logits, -np.inf)
    top, top_on = np.max(logits), np.max(on)
    q = np.exp(on - top_on)  # the softmax over the labeled cells, once normalized
    mass_on = np.sum(q)
    q /= mass_on
    log_m = float(top_on + np.log(mass_on) - top - np.log(np.sum(np.exp(logits - top))))
    m, r = math.exp(log_m), config.r
    # M L'(M) = r M (1-M)^{r-1} log M - (1-M)^r
    m_slope = r * m * (1.0 - m) ** (r - 1) * log_m - (1.0 - m) ** r
    return -((1.0 - m) ** r) * log_m, m_slope * (q - s)
