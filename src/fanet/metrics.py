"""Relationship proposals and their evaluation.

Proposals are the top-K weighted off-diagonal entries of a focus-weight
matrix, collapsed to unordered pairs: a (k, 2) int64 pair array
and a (k,) weight array per matrix. A proposal matches a ground-truth
relation when both of its entities best-match (IoU > threshold) the two
objects of that relation, orientation ignored; recall is the fraction of
unique ground-truth relations covered. Also provides the per-entity
word-importance factor (column mass received under the matrix-wide softmax)
and the center-mass summary over instances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import EntitySet
from .matrices import ShapeError, ValidationError, as_matrix, check_finite
from .supervision import NO_MATCH, entity_gt_matching

__all__ = [
    "CenterMassSummary",
    "top_k_pairs",
    "relation_recall",
    "word_importance",
]

RECALL_IOU = 0.5  # default best-match IoU threshold for recall


@functools.lru_cache(maxsize=16)
def _candidates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, cols) of the upper-triangle cells (i < j) of an n x n
    matrix, in row-major order."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def top_k_pairs(focus_weights, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, weights): the k highest-weight off-diagonal entries, descending.

    focus_weights is one (n, n) matrix or a (B, n, n) stack; each matrix is
    ranked on its own. pairs is (..., k', 2) int64 (subject, object) and
    weights is (..., k') float64, with k' = min(k, number of candidates).

    Ties break by (row, col) lexicographic order, so repeated runs produce
    identical results. (i, j) and (j, i) collapse to one unordered proposal
    keeping the higher-weighted orientation.
    """
    w = np.asarray(focus_weights, dtype=np.float64)
    if w.ndim not in (2, 3) or w.shape[-1] != w.shape[-2] or w.shape[-1] < 1:
        raise ShapeError(f"focus_weights must be (n, n) or (B, n, n), got {w.shape}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    check_finite(w, "focus_weights")
    stack = w.reshape((-1,) + w.shape[-2:])  # a matrix is the B = 1 stack
    n_batch = stack.shape[0]

    iu, ju = _candidates(w.shape[-1])
    # each cell (i < j) weighs as its stronger orientation; which one that
    # is is worked out below, only for the candidates that survive
    weights = np.maximum(stack, stack.swapaxes(1, 2))[:, iu, ju]
    size = weights.shape[1]
    k_out = min(k, size)
    if k < size:
        # every candidate tied with its matrix's k-th largest weight survives
        # the cut, so the (row, col) tie-break below sees all of them
        kth = np.partition(weights, size - k, axis=1)[:, size - k]
        batch, cand = np.nonzero(weights >= kth[:, None])
    else:
        batch, cand = np.indices(weights.shape).reshape(2, -1)
    rows, cols, flat = iu[cand], ju[cand], weights[batch, cand]
    # exact tie keeps (i, j), the lexicographically smaller one
    flip = stack[batch, cols, rows] > stack[batch, rows, cols]
    rows, cols = np.where(flip, cols, rows), np.where(flip, rows, cols)
    order = np.lexsort((cols, rows, -flat, batch))
    # each matrix keeps at least k' candidates: take the first k' of each
    starts = np.searchsorted(batch[order], np.arange(n_batch))
    take = order[(starts[:, None] + np.arange(k_out)).ravel()]
    lead = w.shape[:-2]
    pairs = np.stack((rows[take], cols[take]), axis=-1).reshape(lead + (k_out, 2))
    return pairs, flat[take].reshape(lead + (k_out,))


def _recall_at_ks(
    pair_matches: np.ndarray,
    gt_relations: Sequence[tuple[int, int]],
    ks: Sequence[int],
) -> dict:
    """{k: recall of the first k pairs} for every k, in one walk over the pairs.

    Unchecked: pair_matches is a (k', 2) array of the gt index that each end
    of a ranked pair (such as top_k_pairs gives) best-matches, -1 for none:
    entity_gt_matching's output for those ends. gt_relations may hold any
    (subject, object) pairs.
    """
    unique_gt = {(a, b) if a < b else (b, a) for a, b in gt_relations}
    if not unique_gt:
        return {k: 1.0 for k in ks}
    covered_at = [0]  # covered_at[p]: relations covered by the first p pairs
    covered = set()
    for a, b in pair_matches[: max(ks)].tolist():
        if a != NO_MATCH and b != NO_MATCH and a != b:
            key = (a, b) if a < b else (b, a)
            if key in unique_gt:
                covered.add(key)
        covered_at.append(len(covered))
    return {k: covered_at[min(k, len(covered_at) - 1)] / len(unique_gt) for k in ks}


def _check_pairs(pairs, n: int) -> np.ndarray:
    """A (k, 2) array of integer entity indices in [0, n), no self-pairs."""
    p = np.asarray(pairs)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ShapeError(f"pairs must be a (k, 2) array, got shape {p.shape}")
    if p.dtype.kind not in "iu":
        raise ValidationError(f"pairs must hold integer entity indices, not {p.dtype}")
    if np.any(p < 0) or np.any(p >= n):
        raise ValidationError(f"pairs must index entities in [0, {n})")
    if np.any(p[:, 0] == p[:, 1]):
        raise ValidationError("a relation pair needs two distinct entities")
    return p


def relation_recall(
    pairs,
    entities: EntitySet,
    gt_boxes,
    gt_relations: Sequence[tuple[int, int]],
    k: int,
    iou_threshold: float = RECALL_IOU,
) -> float:
    """Fraction of unique gt relations covered by the first k proposals.

    pairs is a (k', 2) integer array of entity indices in ranked order, such
    as top_k_pairs gives; a bad shape, non-integer entries, indices outside
    [0, n) and self-pairs raise ValidationError. A proposal covers a relation
    when its two entities best-match the relation's two gt objects
    (unordered, IoU > threshold via best-match assignment against the (g, 4)
    gt_boxes, whose rows the relations index). Each gt relation counts at
    most once. Empty gt_relations gives vacuous recall 1.0; report layers
    flag that case.

    Only the ends of the first k pairs are matched, as one flat (2k', 4) box
    array, so gt_boxes must be (g, 4). To score several cutoffs, match once
    and pass the (k', 2) matches of the pair ends to _recall_at_ks;
    trainer.evaluate makes one entity_gt_matching call per group of
    equal-size instances: on the pair ends when they are fewer than n, else
    on all n boxes.
    """
    p = _check_pairs(pairs, entities.n)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not gt_relations:
        return 1.0  # vacuous before matching, so box-less entities are fine here
    boxes = entities.boxes  # None goes on to entity_gt_matching, which refuses it
    ends = None if boxes is None else boxes[p[:k]].reshape(-1, 4)
    matches = entity_gt_matching(ends, gt_boxes, iou_threshold)
    return _recall_at_ks(matches.reshape(-1, 2), gt_relations, (k,))[k]


def word_importance(focus_weights) -> np.ndarray:
    """Per-entity importance: the column mass it receives, beta_i = sum_j w[j, i].

    Input must be matrix-normalized (entries sum to 1), so the factors sum to 1.
    """
    w = as_matrix(focus_weights, "focus_weights")
    if w.shape[0] != w.shape[1]:
        raise ValidationError(f"focus_weights must be square, got {w.shape}")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValidationError(
            f"focus_weights must sum to 1 within 1e-10, got {total!r}"
        )
    return w.sum(axis=0)


@dataclass(frozen=True)
class CenterMassSummary:
    """Mean center-mass over instances that have labeled relations.

    mean_m is NaN when no instance had a nonzero target (n_scored == 0).
    """

    mean_m: float
    n_scored: int
    n_vacuous: int

    @classmethod
    def of(cls, values: Sequence[float], n_vacuous: int) -> "CenterMassSummary":
        """Summary of the scored instances' center-mass values."""
        if not values:
            return cls(mean_m=float("nan"), n_scored=0, n_vacuous=n_vacuous)
        return cls(mean_m=float(np.mean(values)), n_scored=len(values), n_vacuous=n_vacuous)

