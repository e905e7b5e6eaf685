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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import EntitySet
from .losses import FOCUS_SUM_TOL
from .matrices import ShapeError, ValidationError, _index_pairs, _upper_cells, as_matrix, check_finite
from .supervision import NO_MATCH, entity_gt_matching

__all__ = [
    "CenterMassSummary",
    "top_k_pairs",
    "relation_recall",
    "word_importance",
]

RECALL_IOU = 0.5  # default best-match IoU threshold for recall


def top_k_pairs(focus_weights, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, weights): the k highest-weight off-diagonal entries, descending.

    focus_weights is one (n, n) matrix or a (B, n, n) stack; each matrix is
    ranked on its own. pairs is (..., k', 2) int64 (subject, object) and
    weights is (..., k') float64, with k' = min(k, number of candidates).

    The candidates are the cells i < j, read from each raveled matrix
    through `matrices._upper_cells`' flat indices, in row-major order.
    Ties break by (row, col) lexicographic order, so repeated runs
    produce identical results. (i, j) and (j, i) collapse to one unordered
    proposal keeping the higher-weighted orientation.
    """
    w = np.asarray(focus_weights, dtype=np.float64)
    if w.ndim not in (2, 3) or w.shape[-1] != w.shape[-2] or w.shape[-1] < 1:
        raise ShapeError(f"focus_weights must be (n, n) or (B, n, n), got {w.shape}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    check_finite(w, "focus_weights")
    stack = w.reshape((-1,) + w.shape[-2:])  # a matrix is the B = 1 stack
    n_batch = stack.shape[0]

    n = w.shape[-1]
    upper, _ = _upper_cells(n)
    # each cell (i < j) weighs as its stronger orientation; which one that
    # is is worked out below, only for the candidates that survive. An index,
    # not `take`, which copies a read-only index array on every call
    weights = np.maximum(stack, stack.swapaxes(1, 2)).reshape(n_batch, -1)[:, upper]
    size = weights.shape[1]
    k_out = min(k, size)
    if k < size:
        # every candidate tied with its matrix's k-th largest weight survives
        # the cut, so the (row, col) tie-break below sees all of them
        kth = np.partition(weights, size - k, axis=1)[:, size - k]
        batch, cand = np.nonzero(weights >= kth[:, None])
    else:
        batch, cand = np.indices(weights.shape).reshape(2, -1)
    (rows, cols), flat = divmod(upper[cand], n), weights[batch, cand]
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


def _bucket_recall(pair_matches: np.ndarray, relations: Sequence[np.ndarray], g: int, ks) -> list:
    """[{k: recall of the first k pairs} per instance] of a bucket of B instances.

    Unchecked: pair_matches is the (B, k', 2) gt index in [0, g) that each end
    of each instance's ranked pairs best-matches, -1 for none; relations, each
    instance's non-empty (m, 2) gt index pairs in any orientation. A (B, g, g)
    table holds each instance's unique unordered relations (self-pairs count,
    never covered); each counts once, at the first pair whose ends it joins.
    """
    a, b = pair_matches[:, : max(ks)].transpose(2, 0, 1)
    size, cut = a.shape
    table = np.zeros((size, g, g), dtype=bool)
    row = np.repeat(np.arange(size), [len(r) for r in relations])
    i, j = np.concatenate(relations).T
    table[row, i, j] = table[row, j, i] = True
    # each unordered relation fills two cells, a self-pair one
    unique = (np.count_nonzero(table, axis=(1, 2)) + np.count_nonzero(table.diagonal(0, 1, 2), 1)) // 2
    row, pos = np.nonzero((a != NO_MATCH) & (b != NO_MATCH) & (a != b))
    lo, hi = np.minimum(a[row, pos], b[row, pos]), np.maximum(a[row, pos], b[row, pos])
    hit = table[row, lo, hi]
    row, pos, lo, hi = row[hit], pos[hit], lo[hit], hi[hit]
    _, first = np.unique((row * g + lo) * g + hi, return_index=True)
    firsts = np.bincount(row[first] * (cut + 1) + pos[first] + 1, minlength=size * (cut + 1))
    covered_at = firsts.reshape(size, cut + 1).cumsum(axis=1)  # [:, p]: covered by the first p pairs
    covered = covered_at[:, [min(k, cut) for k in ks]].tolist()
    return [{k: c / u for k, c in zip(ks, counts)} for counts, u in zip(covered, unique.tolist())]


def relation_recall(
    pairs,
    entities: EntitySet,
    gt_boxes,
    gt_relations: Sequence[tuple[int, int]],
    k: int,
    iou_threshold: float = RECALL_IOU,
) -> float:
    """Fraction of unique gt relations covered by the first k proposals.

    pairs is a (k', 2) array of entity indices in ranked order, such as
    top_k_pairs gives; another shape, or an entry that is not two distinct
    integers in [0, n) (the reader's rule, `_index_pairs`), raises
    ValidationError. A proposal covers a relation when its two entities
    best-match the relation's two gt objects (unordered, IoU > threshold via
    best-match assignment against the (g, 4) gt_boxes, whose rows the
    relations index). gt_relations are pairs or an (m, 2) integer array, each
    two distinct integers in [0, g), or ValidationError; reversed and
    repeated relations count once. Empty gt_relations gives vacuous recall
    1.0; report layers flag that case.

    Only the ends of the first k pairs are matched, as one flat (2k', 4) box
    array, so gt_boxes must be (g, 4). The score is `_bucket_recall`'s for
    B = 1. trainer.evaluate does not call this: it calls `_bucket_recall`
    once per chunk of equal-size instances (`trainer._buckets`), after one
    entity_gt_matching call on the chunk's pair ends when they are fewer
    than n, else on all n boxes.
    """
    p = np.asarray(pairs)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ShapeError(f"pairs must be a (k, 2) array, got shape {p.shape}")
    p = _index_pairs(p, entities.n, "pairs")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if isinstance(gt_relations, (list, tuple, np.ndarray)) and not len(gt_relations):
        return 1.0  # vacuous before matching, so box-less entities are fine here
    boxes = entities.boxes  # None goes on to entity_gt_matching, which refuses it
    ends = None if boxes is None else boxes[p[:k]].reshape(-1, 4)
    matches = entity_gt_matching(ends, gt_boxes, iou_threshold)  # gt_boxes is (g, 4) from here
    relations = _index_pairs(gt_relations, len(gt_boxes), "gt_relations")
    return _bucket_recall(matches.reshape(1, -1, 2), [relations], len(gt_boxes), (k,))[0][k]


def word_importance(focus_weights) -> np.ndarray:
    """Per-entity importance: the column mass it receives, beta_i = sum_j w[j, i].

    Input must be matrix-normalized (entries sum to 1), so the factors sum to 1.
    """
    w = as_matrix(focus_weights, "focus_weights")
    if w.shape[0] != w.shape[1]:
        raise ValidationError(f"focus_weights must be square, got {w.shape}")
    total = float(w.sum())
    if abs(total - 1.0) > FOCUS_SUM_TOL:
        raise ValidationError(f"focus_weights must sum to 1 within {FOCUS_SUM_TOL}, got {total!r}")
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

