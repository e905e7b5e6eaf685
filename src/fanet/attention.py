"""Scaled dot-product attention over an entity set.

The pairwise logit between a reference entity m and another entity n is the
scaled dot product of their projected features:

    logit[m, n] = dot(w_k @ f_m, w_q @ f_n) / sqrt(d_k)

Two normalizations of the same logits coexist:

  * aggregation weights -- per-reference softmax (each row sums to 1), used to
    mix features into a contextual descriptor;
  * focus weights -- a single matrix-wide softmax (all entries sum to 1), a
    probability distribution over ordered entity pairs, used for supervision
    and relationship extraction.

Both divide one exp(logits - max logits) per matrix, by its total and by its
row sums (`_softmaxes`).

All forward quantities are cached so the backward pass is exact (pure chain
rule through the bilinear form); there is no value projection and no bias.

`forward` and `aggregate` take one instance's (n, d) features or a stack of
B instances with the same n, (B, n, d), and work on the trailing axes, so
every matrix of a stack comes out bit for bit as it would alone.

Inputs are checked where they are made (`EntitySet`, `AttentionParams`), so
`forward` and `backward` re-check only shapes; the one finiteness check left
is on the logits, where non-finite parameters always show up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .matrices import (
    ShapeError,
    ValidationError,
    _check_boxes,
    _softmax,
    as_matrix,
    check_finite,
    check_same_shape,
)
from .seeding import STREAM_PARAMS_ATTENTION, stream_rng

__all__ = [
    "EntitySet",
    "AttentionParams",
    "AttentionState",
    "init_params",
    "forward",
    "aggregate",
    "backward",
]


@dataclass(frozen=True)
class EntitySet:
    """N entities with embedding features and optional boxes/category labels.

    features: (n, d) float64. boxes, when present, are (n, 4) finite rows of
    (x1, y1, x2, y2) with x1 < x2 and y1 < y2 (pixel units); anything else
    raises ValidationError here, so box consumers need no further checks.
    Each array is the set's own copy, so a later write to the caller's array
    cannot get past these checks.
    """

    features: np.ndarray
    categories: Optional[np.ndarray] = None
    boxes: Optional[np.ndarray] = None

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64, order="C")
        object.__setattr__(self, "features", as_matrix(features, "features"))
        if self.categories is not None:
            cats = np.array(self.categories, dtype=np.int64)
            if cats.shape != (self.n,):
                raise ShapeError(
                    f"categories length {cats.shape} does not match n={self.n}"
                )
            object.__setattr__(self, "categories", cats)
        if self.boxes is not None:
            boxes = np.array(self.boxes, dtype=np.float64, order="C")
            if boxes.shape != (self.n, 4):
                raise ShapeError(
                    f"boxes must be ({self.n}, 4), got {boxes.shape}"
                )
            _check_boxes(boxes)
            object.__setattr__(self, "boxes", boxes)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class AttentionParams:
    """Key/query projection matrices, both (d_k, d), each the params' own copy."""

    w_k: np.ndarray
    w_q: np.ndarray

    def __post_init__(self):
        for name in ("w_k", "w_q"):
            w = np.array(getattr(self, name), dtype=np.float64, order="C")
            object.__setattr__(self, name, as_matrix(w, name))
        check_same_shape(self.w_k, self.w_q, "w_k and w_q")

    @property
    def d_k(self) -> int:
        return self.w_k.shape[0]

    @property
    def d(self) -> int:
        return self.w_k.shape[1]


@dataclass(frozen=True)
class AttentionState:
    """Forward-pass result: logits plus both normalizations and caches.

    Arrays are (n, n) for one instance, or (B, n, n) for a stack. agg_weights
    rows each sum to 1; focus_weights entries sum to 1 over each whole matrix.
    proj_keys and proj_queries are the (..., n, d_k) projected features kept
    for backward.
    """

    logits: np.ndarray
    agg_weights: np.ndarray
    focus_weights: np.ndarray
    proj_keys: np.ndarray
    proj_queries: np.ndarray


def init_params(d: int, d_k: int, seed: int) -> AttentionParams:
    """Seeded uniform init on [-1/sqrt(d), +1/sqrt(d)] for both projections."""
    if d < 1 or d_k < 1:
        raise ValidationError(f"d and d_k must be >= 1, got d={d}, d_k={d_k}")
    rng = stream_rng(STREAM_PARAMS_ATTENTION, seed)
    bound = 1.0 / np.sqrt(d)
    w_k = rng.uniform(-bound, bound, size=(d_k, d))
    w_q = rng.uniform(-bound, bound, size=(d_k, d))
    return AttentionParams(w_k=w_k, w_q=w_q)


def forward(features: np.ndarray, params: AttentionParams) -> AttentionState:
    """Compute logits and both softmax paths, caching projections for backward.

    `features` is an EntitySet's (n, d) features, or a (B, n, d) `np.stack`
    of B of them. `params` is anything with checked (d_k, d) arrays `w_k`
    and `w_q`: an AttentionParams, or the trainer's ModelParams, whose arrays
    the optimizer updates in place. Raises NonFiniteError if the logits are
    not finite.
    """
    logits, keys, queries = _logits(features, params)
    focus, agg = _softmaxes(logits)
    return AttentionState(
        logits=logits,
        agg_weights=agg,
        focus_weights=focus,
        proj_keys=keys,
        proj_queries=queries,
    )


# A row's sum of exp(W - max W) falls below this when its own max lies ~667
# or more below the matrix max; such a row takes its own max instead.
_ROW_SUM_FLOOR = 1e-290


def _softmaxes(logits: np.ndarray) -> tuple:
    """(focus, agg): the matrix-wide and the per-row softmax of each matrix of
    `logits`, both from one e = exp(W - max W).

    focus is e over the matrix total, `_softmax(logits, (-2, -1))` bit for
    bit. agg is e over its row sums; a row whose sum is below _ROW_SUM_FLOOR
    is `_softmax` of that row alone, set before the divide, so no row loses
    its digits or divides 0 by 0 and every matrix of a stack comes out as
    it would alone.
    """
    e = logits - np.maximum.reduce(logits, axis=(-2, -1), keepdims=True)
    np.exp(e, out=e)
    focus = e / np.add.reduce(e, axis=(-2, -1), keepdims=True)
    sums = np.add.reduce(e, axis=-1, keepdims=True)
    low = sums[..., 0] < _ROW_SUM_FLOOR
    if low.any():
        e[low] = _softmax(logits[low], -1)
        sums[low] = 1.0
    e /= sums
    return focus, e


def _logits(features: np.ndarray, params: AttentionParams) -> tuple:
    """`forward`'s checked logits and the projected keys and queries they
    came from, as (logits, keys, queries); no softmax is taken."""
    if features.ndim not in (2, 3):
        raise ShapeError(f"features must be (n, d) or (B, n, d), got {features.shape}")
    if features.shape[-1] != params.d:
        raise ShapeError(
            f"projection expects feature dim {params.d}, entities have {features.shape[-1]}"
        )
    keys = features @ params.w_k.T        # (..., n, d_k), row m = w_k @ f_m
    queries = features @ params.w_q.T     # (..., n, d_k), row n = w_q @ f_n
    logits = keys @ np.swapaxes(queries, -1, -2)
    logits /= math.sqrt(params.d_k)
    check_finite(logits, "logits")
    return logits, keys, queries


def aggregate(state: AttentionState, features: np.ndarray) -> np.ndarray:
    """Attention-weighted feature aggregation: out[m] = sum_n agg[m, n] * f_n.

    `features` is the (n, d) or (B, n, d) array the forward ran on.
    """
    n = state.agg_weights.shape[-1]
    if features.shape[-2] != n:
        raise ShapeError(
            f"features rows {features.shape[-2]} do not match attention size {n}"
        )
    return state.agg_weights @ features


def backward(
    state: AttentionState,
    d_loss_d_logits: np.ndarray,
    entities: EntitySet,
    params: AttentionParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule from a logit gradient back to (w_k, w_q).

    With keys P = F w_k^T, queries R = F w_q^T and logits W = P R^T / sqrt(d_k):

        dP = G R / sqrt(d_k)      dR = G^T P / sqrt(d_k)
        d_w_k = dP^T F            d_w_q = dR^T F

    where G (`d_loss_d_logits`) is the upstream gradient w.r.t. the logits,
    an (n, n) array.
    """
    g = d_loss_d_logits
    check_same_shape(g, state.logits, "logit gradient and logits")
    scale = 1.0 / math.sqrt(params.d_k)
    d_keys = g @ state.proj_queries * scale
    d_queries = g.T @ state.proj_keys * scale
    d_w_k = d_keys.T @ entities.features
    d_w_q = d_queries.T @ entities.features
    return d_w_k, d_w_q


def _row_softmax_vjp(agg_weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """VJP of the per-row softmax `agg_weights`, (n, n) or (B, n, n), for an
    upstream gradient whose every row is u, (n,) or (B, n).

    The VJP a * (g - sum(g * a)) over each row is then rank one,
    a * (u - a @ u), built in one fresh array without the rows of g.
    """
    out = u[..., None, :] - agg_weights @ u[..., :, None]
    out *= agg_weights
    return out
