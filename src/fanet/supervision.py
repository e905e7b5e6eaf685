"""Ground-truth relation target construction for vision- and language-style entities.

Vision targets mark entity pairs whose boxes overlap two *different*
ground-truth objects (IoU above a threshold), optionally requiring the two
objects to carry different category labels. Language targets mark word pairs
by lexical-category rules, the strictest being membership of the unordered
category pair in a small semantic pair table.

Ground-truth objects are a (g, 4) float64 box array plus, where a mode needs
it, a (g,) category array; entity_gt_matching checks the boxes, and also
matches a (B, n, 4) stack of entity boxes in one call.

Every emitted target is a bool (n, n) mask, the form `losses.validate_target`
returns, symmetric with a zero diagonal.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .attention import EntitySet
from .matrices import ValidationError, _check_boxes

__all__ = [
    "LexicalPairTable",
    "VISION_MODES",
    "LANGUAGE_MODES",
    "iou",
    "entity_gt_matching",
    "build_vision_target",
    "build_language_target",
]

VISION_MODES = ("different_category", "different_instance")
LANGUAGE_MODES = ("semantic", "different_category", "same_category", "different_word")

NO_MATCH = -1
_NO_BOXES = "entities have no boxes; cannot match against gt objects"


class LexicalPairTable:
    """Unordered lexical-category pairs considered semantically valid.

    Only explicitly enumerated pairs count; nothing is implied. A pair of a
    category with itself (e.g. noun-noun) is written as the same name twice.
    """

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        self._pairs: set[frozenset[str]] = set()
        for a, b in pairs:
            self.add(a, b)

    def add(self, a: str, b: str) -> None:
        if not a or not b:
            raise ValidationError("lexical category names must be non-empty")
        self._pairs.add(frozenset((a, b)))

    def contains(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._pairs

    @property
    def categories(self) -> set[str]:
        return {c for pair in self._pairs for c in pair}

    def tolist(self) -> list[list[str]]:
        """Sorted canonical listing, each pair as [min, max]: the JSON form,
        named after `ndarray.tolist`, which a spec's writer calls on both."""
        return sorted([min(p), max(p)] for p in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    @classmethod
    def default(cls) -> "LexicalPairTable":
        """Grammar pairs encouraged by default: noun-noun, verb-noun,
        noun-adjective, adverb-verb, adverb-adjective."""
        return cls(
            [
                ("noun", "noun"),
                ("verb", "noun"),
                ("noun", "adjective"),
                ("adverb", "verb"),
                ("adverb", "adjective"),
            ]
        )


def _iou_matrix(boxes: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """(..., n, g) IoU of every box against every gt box; both (..., 4), well-ordered.

    Works on the trailing axes, so (B, n, 4) boxes against (B, g, 4) or
    (g, 4) gt boxes give one (B, n, g) stack. Same operation order as a
    scalar IoU: intersection from min/max corners, 0 when either side is
    <= 0, otherwise inter / (area_a + area_b - inter). The areas are
    computed once per box, and the pairwise arithmetic runs in place in three
    (..., n, g) buffers.
    """
    area_a = (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1])
    area_b = (gt_boxes[..., 2] - gt_boxes[..., 0]) * (gt_boxes[..., 3] - gt_boxes[..., 1])
    a = boxes[..., :, None, :]
    b = gt_boxes[..., None, :, :]
    out = np.maximum(a[..., 0], b[..., 0])
    iw = np.minimum(a[..., 2], b[..., 2])
    iw -= out
    np.maximum(a[..., 1], b[..., 1], out=out)
    ih = np.minimum(a[..., 3], b[..., 3])
    ih -= out
    overlap = iw > 0.0
    overlap &= ih > 0.0
    inter = np.multiply(iw, ih, out=iw)
    union = np.add(area_a[..., :, None], area_b[..., None, :], out=ih)
    union -= inter
    out.fill(0.0)
    return np.divide(inter, union, out=out, where=overlap)


def iou(a, b) -> float:
    """Intersection over union of two well-ordered boxes; 0 when disjoint."""
    boxes = np.array([a, b], dtype=np.float64)
    if boxes.shape != (2, 4):
        raise ValidationError(f"boxes must be (x1, y1, x2, y2), got {a} and {b}")
    _check_boxes(boxes)
    return float(_iou_matrix(boxes[:1], boxes[1:])[0, 0])


def _stack_boxes(entity_sets: Sequence[EntitySet]) -> np.ndarray:
    """(B, n, 4) boxes of equal-size entity sets; each set must have boxes."""
    boxes = [e.boxes for e in entity_sets]
    if any(b is None for b in boxes):
        raise ValidationError(_NO_BOXES)
    return np.stack(boxes)


def entity_gt_matching(boxes, gt_boxes, iou_threshold: float) -> np.ndarray:
    """Best-match gt index per entity box, or -1 when no IoU exceeds the threshold.

    boxes is one entity set's (n, 4) boxes (`EntitySet.boxes`) or a (B, n, 4)
    stack of them; gt_boxes is a (g, 4) array-like of (x1, y1, x2, y2) rows
    or, for a stack, a (B, g, 4) array with one gt set per entity set. Both
    are checked like EntitySet boxes, once per call; an empty sequence means
    no objects. Returns (n,) or (B, n) int64. Each entity matches at most
    one object: the one with maximal IoU, strictly above the threshold, ties
    broken by lowest gt index. A row depends on its own box alone, so
    evaluation matches, per chunk of equal-n instances, the (B, 2k', 4) ends
    of the top-K pairs (all n boxes when no fewer) against the chunk's
    (B, n, 4) boxes.
    """
    if boxes is None:
        raise ValidationError(_NO_BOXES)
    ents = np.asarray(boxes, dtype=np.float64)
    if ents.ndim not in (2, 3) or ents.shape[-1] != 4:
        raise ValidationError(f"boxes must be (n, 4) or (B, n, 4), got shape {ents.shape}")
    gt = np.asarray(gt_boxes, dtype=np.float64)
    if gt.shape == (0,):
        gt = gt.reshape(0, 4)
    per_set = gt.ndim == ents.ndim == 3 and gt.shape[0] == ents.shape[0]
    if gt.shape[-1:] != (4,) or not (gt.ndim == 2 or per_set):
        want = "(g, 4)" if ents.ndim == 2 else f"(g, 4) or ({ents.shape[0]}, g, 4)"
        raise ValidationError(f"gt_boxes must be {want}, got shape {gt.shape}")
    _check_boxes(ents)
    _check_boxes(gt)
    if not gt.shape[-2]:
        return np.full(ents.shape[:-1], NO_MATCH, dtype=np.int64)
    ious = _iou_matrix(ents, gt)
    best = np.argmax(ious, axis=-1)  # first maximum: lowest gt index wins ties
    hit = np.take_along_axis(ious, best[..., None], -1)[..., 0] > iou_threshold
    return np.where(hit, best, NO_MATCH).astype(np.int64)


def build_vision_target(
    entities: EntitySet,
    gt_boxes,
    gt_categories=None,
    mode: str = "different_category",
    iou_threshold: float = 0.5,
) -> np.ndarray:
    """Bool (n, n) target mask for vision-style supervision.

    t[m, n] is True iff m and n best-match two *different* gt objects and, in
    different_category mode, those objects carry different labels in the
    (g,) gt_categories, which that mode requires. Symmetric, zero diagonal.
    """
    if mode not in VISION_MODES:
        raise ValidationError(f"mode must be one of {VISION_MODES}, got {mode!r}")
    matches = entity_gt_matching(entities.boxes, gt_boxes, iou_threshold)
    if gt_categories is None and mode == "different_category":
        raise ValidationError("different_category mode requires gt_categories")
    if gt_categories is not None and len(gt_categories) != len(gt_boxes):
        raise ValidationError(
            f"gt_categories length {len(gt_categories)} does not match "
            f"{len(gt_boxes)} gt boxes"
        )
    matched = np.flatnonzero(matches != NO_MATCH)
    obj = matches[matched]
    related = obj[:, None] != obj[None, :]
    if mode == "different_category":
        cat = np.asarray(gt_categories)[obj]
        related &= cat[:, None] != cat[None, :]
    t = np.zeros((entities.n, entities.n), dtype=bool)
    t[np.ix_(matched, matched)] = related
    return t


def build_language_target(
    tags: Sequence[str],
    table: LexicalPairTable,
    mode: str = "semantic",
    tokens: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Bool (n, n) target mask for language-style supervision. Symmetric, zero diagonal.

    Modes: semantic (unordered tag pair present in the table),
    different_category / same_category (tag comparison), different_word
    (token identity; requires tokens). The rule is applied once per pair of
    distinct keys (tags, or tokens for different_word) and spread over the
    entity pairs by index. The keys are numbered in order of first appearance;
    the target does not depend on their order.
    """
    if mode not in LANGUAGE_MODES:
        raise ValidationError(f"mode must be one of {LANGUAGE_MODES}, got {mode!r}")
    n = len(tags)
    if mode == "semantic":
        known = table.categories
        if not known.issuperset(tags):
            bad = next(tag for tag in tags if tag not in known)
            raise ValidationError(f"unknown lexical category id {bad!r}")
    if mode == "different_word":
        if tokens is None:
            raise ValidationError("different_word mode requires token identities")
        if len(tokens) != n:
            raise ValidationError(
                f"tokens length {len(tokens)} does not match tags length {n}"
            )
    keys = tokens if mode == "different_word" else tags
    number = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    key_of = np.fromiter(map(number.__getitem__, keys), np.intp, n)
    u = len(number)
    if mode == "semantic":
        rule = np.array([[table.contains(a, b) for b in number] for a in number], dtype=bool)
        rule = rule.reshape(u, u)  # (0,) -> (0, 0) for an empty sequence
    elif mode == "same_category":
        rule = np.eye(u, dtype=bool)
    else:  # different_category, different_word
        rule = ~np.eye(u, dtype=bool)
    t = rule.take(key_of, 0).take(key_of, 1)  # two takes beat one 2-D gather
    np.fill_diagonal(t, False)
    return t
