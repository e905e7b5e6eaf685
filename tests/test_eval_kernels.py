"""The evaluation kernels against their previous array formulas, bit for bit.

`top_k_pairs` now cuts at the k-th largest weight before it works out which
orientation of a cell is the stronger one, `_iou_matrix` computes each box's
area once and works in place, `entity_gt_matching` reads the best IoU with
`take_along_axis`, `_softmax` exponentiates in place, and `_bucket_recall`
scores a bucket of instances at once from the matches of their top-K pair
ends, through a table of each instance's relations, instead of walking each
instance's pairs against a set. Each must give the same bits as the formula
it replaced; those formulas are kept here as the references.
"""

import numpy as np
import pytest

from fanet.matrices import _softmax
from fanet.metrics import _bucket_recall, top_k_pairs
from fanet.supervision import NO_MATCH, _iou_matrix, entity_gt_matching


def prior_top_k_pairs(focus_weights, k):
    """top_k_pairs before the cut-first rewrite: orient every candidate, then cut."""
    w = np.asarray(focus_weights, dtype=np.float64)
    stack = w.reshape((-1,) + w.shape[-2:])
    n_batch = stack.shape[0]
    iu, ju = np.triu_indices(w.shape[-1], 1)  # not the code under test's cell order
    weights = stack[:, iu, ju]
    flipped = stack[:, ju, iu]
    flip = flipped > weights
    rows = np.where(flip, ju, iu)
    cols = np.where(flip, iu, ju)
    weights = np.maximum(weights, flipped)
    size = weights.shape[1]
    k_out = min(k, size)
    batch = np.repeat(np.arange(n_batch), size)
    rows, cols, flat = rows.ravel(), cols.ravel(), weights.ravel()
    if k < size:
        kth = np.partition(weights, size - k, axis=1)[:, size - k]
        keep = (weights >= kth[:, None]).ravel()
        batch, rows, cols, flat = batch[keep], rows[keep], cols[keep], flat[keep]
    order = np.lexsort((cols, rows, -flat, batch))
    starts = np.searchsorted(batch[order], np.arange(n_batch))
    take = order[(starts[:, None] + np.arange(k_out)).ravel()]
    lead = w.shape[:-2]
    pairs = np.stack((rows[take], cols[take]), axis=-1).reshape(lead + (k_out, 2))
    return pairs, flat[take].reshape(lead + (k_out,))


def prior_iou_matrix(boxes, gt_boxes):
    """_iou_matrix before the rewrite: areas per pair, fresh temporaries."""
    a = boxes[..., :, None, :]
    b = gt_boxes[..., None, :, :]
    ax1, ay1, ax2, ay2 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx1, by1, bx2, by2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


def prior_matching(boxes, gt_boxes, threshold):
    ious = prior_iou_matrix(boxes, gt_boxes)
    best = np.argmax(ious, axis=-1)
    hit = ious.max(axis=-1) > threshold
    return np.where(hit, best, NO_MATCH).astype(np.int64)


def prior_recall_at_ks(pairs, matches, gt_relations, ks):
    """One instance's recall as a set walk over its (k, 2) entity pairs,
    looked up in the matches of all n entities."""
    unique_gt = {(a, b) if a < b else (b, a) for a, b in gt_relations}
    if not unique_gt:
        return {k: 1.0 for k in ks}
    m = matches.tolist()
    covered_at = [0]
    covered = set()
    for subject, obj in pairs[: max(ks)].tolist():
        a = m[subject]
        b = m[obj]
        if a != NO_MATCH and b != NO_MATCH and a != b:
            key = (a, b) if a < b else (b, a)
            if key in unique_gt:
                covered.add(key)
        covered_at.append(len(covered))
    return {k: covered_at[min(k, len(covered_at) - 1)] / len(unique_gt) for k in ks}


def prior_softmax(w, axis):
    e = np.exp(w - np.maximum.reduce(w, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --- top-K ------------------------------------------------------------------------


def stacks(rng, n, batch):
    """One random (softmaxed) and one integer-valued, tie-heavy stack."""
    logits = rng.normal(size=(batch, n, n))
    yield _softmax(logits, (-2, -1))
    yield rng.integers(0, 3, size=(batch, n, n)).astype(float)


@pytest.mark.parametrize("stacked", [False, True])  # a single matrix or a (B, n, n) stack
@pytest.mark.parametrize("seed", range(12))
def test_top_k_matches_prior_formula(seed, stacked):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 5, 8, 17, 40]))
    batch = int(rng.integers(1, 4))
    size = n * (n - 1) // 2
    for w in stacks(rng, n, batch):
        x = w if stacked else w[0]
        for k in sorted({1, 5, 10, 100, max(size - 1, 1), size, size + 5}):
            got = top_k_pairs(x, k)
            want = prior_top_k_pairs(x, k)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("stacked", [False, True])
def test_top_k_one_entity_has_no_candidates(stacked):
    w = np.ones((3, 1, 1)) if stacked else np.ones((1, 1))
    got = top_k_pairs(w, 5)
    want = prior_top_k_pairs(w, 5)
    assert got[0].shape == w.shape[:-2] + (0, 2)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


def test_top_k_orientation_ties_and_signed_zeros():
    """Cells whose two orientations are equal (including 0.0 against -0.0)
    keep (i, j); the cut falls inside a tie group of every orientation."""
    rng = np.random.default_rng(7)
    w = rng.choice([-0.0, 0.0, 1.0], size=(3, 9, 9))
    w[:, 2, 5] = w[:, 5, 2] = 1.0
    for k in (1, 3, 10, 35, 36, 80):
        got = top_k_pairs(w, k)
        want = prior_top_k_pairs(w, k)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


def test_top_k_300_entities():
    """The scene-large size, at the cutoffs its evaluation asks for."""
    rng = np.random.default_rng(300)
    w = _softmax(rng.normal(size=(2, 300, 300)), (-2, -1))
    for k in (1, 10, 100, 5000):
        got = top_k_pairs(w, k)
        want = prior_top_k_pairs(w, k)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


# --- IoU and matching --------------------------------------------------------------

EDGE_BOXES = np.array([
    [0.0, 0.0, 2.0, 2.0],
    [2.0, 0.0, 4.0, 2.0],    # touches the first on an edge: iw == 0
    [2.0, 2.0, 3.0, 3.0],    # touches the first at a corner
    [10.0, 10.0, 11.0, 12.0],  # disjoint from everything else
    [0.5, 0.5, 1.5, 1.5],    # nested in the first
    [0.0, 0.0, 2.0, 2.0],    # identical to the first
    [1.0, -1.0, 3.0, 1.0],   # partial overlap with the first two
    [2.0, 5.0, 4.0, 6.0],    # in line with the first's edge, above it: iw == 0, ih < 0
])


def random_boxes(rng, shape, grid):
    """Well-ordered boxes: on a coarse grid, so that exact overlaps and ties
    occur, or at float coordinates, so that every operation rounds."""
    if grid:
        corner = rng.integers(0, 6, size=shape + (2,)).astype(float)
        size = rng.integers(1, 4, size=shape + (2,)).astype(float)
    else:
        corner = rng.uniform(0.0, 6.0, size=shape + (2,))
        size = rng.uniform(0.1, 4.0, size=shape + (2,))
    return np.concatenate([corner, corner + size], axis=-1)


def test_iou_edge_cases_match_prior_formula():
    got = _iou_matrix(EDGE_BOXES, EDGE_BOXES)
    assert_same_bits(got, prior_iou_matrix(EDGE_BOXES, EDGE_BOXES))
    assert got[0, 1] == got[0, 2] == got[0, 3] == 0.0  # touching and disjoint
    assert got[0, 4] == 0.25 and got[0, 5] == 1.0      # nested and identical
    for threshold in (0.0, 0.25, 0.5, 1.0):
        assert np.array_equal(
            entity_gt_matching(EDGE_BOXES, EDGE_BOXES, threshold),
            prior_matching(EDGE_BOXES, EDGE_BOXES, threshold),
        )


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "float"])
@pytest.mark.parametrize("seed", range(10))
def test_iou_and_matching_match_prior_formula(seed, grid):
    rng = np.random.default_rng(seed)
    batch, n, g = (int(x) for x in rng.integers(1, 9, size=3))
    boxes = random_boxes(rng, (batch, n), grid)
    shared = random_boxes(rng, (g,), grid)         # one (g, 4) gt set for every entity set
    per_set = random_boxes(rng, (batch, g), grid)  # a (B, g, 4) gt set per entity set
    for ents, gt in ((boxes[0], shared), (boxes, shared), (boxes, per_set)):
        assert_same_bits(_iou_matrix(ents, gt), prior_iou_matrix(ents, gt))
        for threshold in (0.0, 0.2, 0.5):
            got = entity_gt_matching(ents, gt, threshold)
            want = prior_matching(ents, gt, threshold)
            assert_same_bits(got, want)


# --- matching the pair ends, and recall ---------------------------------------------


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "float"])
@pytest.mark.parametrize("seed", range(10))
def test_matching_the_pair_ends_equals_matching_all(seed, grid):
    """The IoU works per (entity, gt) cell and the argmax and the threshold per
    row, so matching a gather of the pair ends gives the rows that matching
    all n entities gives at those ends, ties to the lowest gt index included."""
    rng = np.random.default_rng(100 + seed)
    batch, n = int(rng.integers(1, 5)), int(rng.integers(2, 30))
    boxes = random_boxes(rng, (batch, n), grid)
    boxes[:, -1] = boxes[:, 0]  # a duplicate: both ends match the first
    size = n * (n - 1) // 2
    for gt in (boxes, random_boxes(rng, (batch, int(rng.integers(1, 9))), grid)):
        for k in sorted({1, 3, 10, size}):
            pairs, _ = top_k_pairs(rng.random((batch, n, n)), k)
            ends = pairs.reshape(batch, -1)
            rows = np.arange(batch)[:, None]
            for threshold in (0.0, 0.5):
                want = entity_gt_matching(boxes, gt, threshold)[rows, ends]
                assert_same_bits(entity_gt_matching(boxes[rows, ends], gt, threshold), want)
                flat = entity_gt_matching(boxes[0][pairs[0]].reshape(-1, 4), gt[0], threshold)
                assert_same_bits(flat, want[0])


@pytest.mark.parametrize("seed", range(20))
def test_recall_matches_prior_formula(seed):
    """A bucket of B instances: unmatched and repeated objects, so that one
    relation is covered by several pairs in either orientation; self-pairs,
    reversed and repeated relations; K above the pair count and repeated K."""
    rng = np.random.default_rng(200 + seed)
    n, g, batch = int(rng.integers(2, 12)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
    matches = rng.integers(NO_MATCH, g, size=(batch, n))
    size = n * (n - 1) // 2
    pairs, _ = top_k_pairs(rng.random((batch, n, n)), int(rng.integers(1, size + 1)))
    relations = [rng.integers(0, g, size=(int(rng.integers(1, 8)), 2)) for _ in range(batch)]
    pair_matches = matches[np.arange(batch)[:, None, None], pairs]
    for ks in ((1,), (1, 5, 10), (size + 3, 2, 2), (pairs.shape[1],)):
        got = _bucket_recall(pair_matches, relations, g, ks)
        assert len(got) == batch
        for b in range(batch):
            want = prior_recall_at_ks(pairs[b], matches[b], relations[b].tolist(), ks)
            assert list(got[b].items()) == list(want.items())
            assert all(type(r) is float for r in got[b].values())


def test_recall_counts_each_relation_once_at_its_first_cover():
    """Hand-checked: relation (0, 1) is covered by pairs 0 and 2 in opposite
    orientations, (1, 2) by pair 3; the second instance's relations differ,
    so a table row read for the wrong instance shows."""
    pair_matches = np.array([
        [[0, 1], [2, 2], [1, 0], [2, 1], [NO_MATCH, 2]],
        [[0, 1], [1, 2], [2, 0], [0, 1], [1, 0]],
    ])
    relations = [np.array([[1, 0], [1, 2], [0, 1], [2, 2]]), np.array([[0, 2]])]
    got = _bucket_recall(pair_matches, relations, 3, (1, 2, 3, 4, 9))
    # three unique relations, the self-pair among them: 1/3 until pair 3 adds (1, 2)
    assert got[0] == {1: 1 / 3, 2: 1 / 3, 3: 1 / 3, 4: 2 / 3, 9: 2 / 3}
    assert got[1] == {1: 0.0, 2: 0.0, 3: 1.0, 4: 1.0, 9: 1.0}


# --- softmax -----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_softmax_matches_prior_formula_and_keeps_its_input(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(scale=30.0, size=(7, 7))
    stack = rng.normal(scale=30.0, size=(3, 6, 6))
    for w, axes in ((matrix, (None, 0, 1, -1)), (stack, (-1, -2, (-2, -1)))):
        before = w.copy()
        for axis in axes:
            assert_same_bits(_softmax(w, axis), prior_softmax(w, axis))
        assert_same_bits(w, before)
