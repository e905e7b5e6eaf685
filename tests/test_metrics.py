"""Proposal extraction and recall scoring against brute-force re-implementations."""

import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from fanet.attention import EntitySet, forward, init_params
from fanet.cli import _METRICS_COLUMNS, _write_csv
from fanet.matrices import ValidationError, softmax_matrix
from fanet.metrics import (
    CenterMassSummary,
    _bucket_recall,
    relation_recall,
    top_k_pairs,
    word_importance,
)
from fanet.supervision import entity_gt_matching
from fanet.synthgen import default_world_spec, generate_dataset


def random_focus(seed, n):
    rng = np.random.default_rng(seed)
    return softmax_matrix(rng.normal(size=(n, n)))


# --- pure-Python references, independent of the array kernels ------------------


def ref_iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area = lambda r: (r[2] - r[0]) * (r[3] - r[1])  # noqa: E731
    return inter / (area(a) + area(b) - inter)


def ref_matching(boxes, gt_boxes, threshold):
    """Best strictly-above-threshold gt index per box; first maximum wins."""
    matches = []
    for box in boxes:
        best, best_iou = -1, threshold
        for g, gb in enumerate(gt_boxes):
            v = ref_iou(box, gb)
            if v > best_iou:
                best, best_iou = g, v
        matches.append(best)
    return matches


def ref_top_k(w, k):
    """(row, col, weight) triples sorted by (-weight, row, col)."""
    w = np.asarray(w).tolist()
    cands = [
        (j, i) if w[j][i] > w[i][j] else (i, j)
        for i, j in itertools.combinations(range(len(w)), 2)
    ]
    cands.sort(key=lambda ij: (-w[ij[0]][ij[1]], ij[0], ij[1]))
    return [(i, j, w[i][j]) for i, j in cands[:k]]


def triples(result):
    """top_k_pairs' (pairs, weights) as (row, col, weight) triples."""
    pairs, weights = result
    return [(a, b, w) for (a, b), w in zip(pairs.tolist(), weights.tolist())]


class TestTopKPairs:
    def test_descending_and_distinct(self):
        w = random_focus(1, 6)
        pairs, weights = top_k_pairs(w, 8)
        assert len(pairs) == 8
        weights = weights.tolist()
        assert weights == sorted(weights, reverse=True)
        assert len({frozenset(p) for p in pairs.tolist()}) == 8

    def test_unordered_keeps_stronger_orientation(self):
        w = np.full((3, 3), 0.01)
        w[0, 1], w[1, 0] = 0.3, 0.5
        w[0, 2], w[2, 0] = 0.1, 0.05
        w = w / w.sum()
        pairs, _ = top_k_pairs(w, 2)
        assert tuple(pairs[0]) == (1, 0)
        assert tuple(pairs[1]) == (0, 2)

    def test_tie_break_is_lexicographic(self):
        """Equal weights everywhere: order falls back to (row, col)."""
        n = 4
        w = np.full((n, n), 1.0 / (n * n))
        pairs, _ = top_k_pairs(w, 6)
        got = [(a, b) for a, b in pairs.tolist()]
        assert got == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_repeated_calls_identical(self):
        w = random_focus(3, 7)
        a = top_k_pairs(w, 10)
        b = top_k_pairs(w, 10)
        assert triples(a) == triples(b)

    def test_k_exceeding_pairs_returns_all(self):
        w = random_focus(4, 3)
        pairs, weights = top_k_pairs(w, 99)
        assert len(pairs) == len(weights) == 3

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            top_k_pairs(random_focus(5, 3), 0)

    @pytest.mark.parametrize("stacked", [False, True])  # the matrix alone or as a stack of one
    @pytest.mark.parametrize("seed", range(8))
    def test_quantised_ties_match_reference_sort(self, seed, stacked):
        """Integer weights make large tie groups; cut below, at and across each."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        w = rng.integers(0, 3, size=(n, n)).astype(float)
        full = ref_top_k(w, n * n)
        weights = [t[2] for t in full]
        boundaries = [i for i in range(1, len(weights)) if weights[i] != weights[i - 1]]
        ks = {1, len(full), len(full) + 5}
        for b in boundaries:
            ks |= {b - 1, b, b + 1}
        for k in sorted(k for k in ks if k >= 1):
            if stacked:
                pairs, weights = top_k_pairs(w[None], k)
                got = triples((pairs[0], weights[0]))
            else:
                got = triples(top_k_pairs(w, k))
            assert got == full[:k], f"k={k}"

    def test_returns_typed_arrays(self):
        pairs, weights = top_k_pairs(random_focus(6, 5), 4)
        assert pairs.shape == (4, 2) and pairs.dtype == np.int64
        assert weights.shape == (4,) and weights.dtype == np.float64
        stacked, stacked_w = top_k_pairs(np.stack([random_focus(s, 5) for s in range(3)]), 4)
        assert stacked.shape == (3, 4, 2) and stacked.dtype == np.int64
        assert stacked_w.shape == (3, 4) and stacked_w.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 3)),
                                     np.zeros((1, 1, 2, 2)), np.zeros((0, 0))])
    def test_rejects_bad_shape(self, bad):
        with pytest.raises(ValidationError):
            top_k_pairs(bad, 1)

    def test_rejects_non_finite(self):
        w = np.stack([random_focus(7, 3)] * 2)
        w[1, 0, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            top_k_pairs(w, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_stack_matches_each_matrix(self, seed):
        """A (B, n, n) stack ranks each matrix exactly as a call on it alone."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        batch = int(rng.integers(1, 6))
        w = rng.integers(0, 3, size=(batch, n, n)).astype(float)
        size = n * (n - 1) // 2
        for k in sorted({1, 2, size // 2 or 1, size - 1 or 1, size, size + 5}):
            pairs, weights = top_k_pairs(w, k)
            assert pairs.shape == (batch, min(k, size), 2)
            for b in range(batch):
                alone = top_k_pairs(w[b], k)
                assert triples((pairs[b], weights[b])) == triples(alone), f"k={k}, b={b}"
                assert triples(alone) == ref_top_k(w[b], k), f"k={k}, b={b}"


def brute_force_recall(w, boxes, gt_boxes, gt_relations, k, iou_threshold=0.5):
    """Independent recall: enumerate unordered pairs, sort by max orientation."""
    n = w.shape[0]
    scored = []
    for i, j in itertools.combinations(range(n), 2):
        scored.append((max(w[i, j], w[j, i]), i, j))
    scored.sort(key=lambda t: -t[0])

    matches = ref_matching(boxes.tolist(), np.asarray(gt_boxes).tolist(), iou_threshold)
    wanted = {frozenset(r) for r in gt_relations}
    if not wanted:
        return 1.0
    hit = set()
    for _, i, j in scored[:k]:
        a, b = matches[i], matches[j]
        if a >= 0 and b >= 0 and a != b and frozenset((a, b)) in wanted:
            hit.add(frozenset((a, b)))
    return len(hit) / len(wanted)


class TestRelationRecall:
    def make_scene(self, seed, n):
        """Entities sit exactly on their own gt boxes; relations drawn at random."""
        rng = np.random.default_rng(seed)
        boxes = np.array([[3.0 * i, 0.0, 3.0 * i + 1.0, 1.0] for i in range(n)])
        gt_boxes = boxes.copy()
        for _ in boxes:  # draws of the former gt categories keep each seed's scene
            rng.integers(0, 3)
        all_pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(all_pairs)
        gt_relations = all_pairs[: rng.integers(1, len(all_pairs) + 1)]
        w = softmax_matrix(rng.normal(size=(n, n)))
        return w, boxes, gt_boxes, gt_relations

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        w, boxes, gt_boxes, gt_relations = self.make_scene(seed * 7 + 1, n)
        ents = EntitySet(features=np.zeros((n, 2)), boxes=boxes)
        for k in (1, 3, 5, 10):
            pairs, _ = top_k_pairs(w, k)
            got = relation_recall(pairs, ents, gt_boxes, gt_relations, k)
            want = brute_force_recall(w, boxes, gt_boxes, gt_relations, k)
            assert got == want, f"k={k}: {got} vs {want}"

    def test_vacuous_recall_is_one(self):
        w, boxes, gt_boxes, _ = self.make_scene(3, 4)
        ents = EntitySet(features=np.zeros((4, 2)), boxes=boxes)
        assert relation_recall(top_k_pairs(w, 3)[0], ents, gt_boxes, [], 3) == 1.0

    def test_perfect_proposals(self):
        """Proposals aligned with every gt relation give recall exactly 1."""
        _, boxes, gt_boxes, _ = self.make_scene(4, 5)
        ents = EntitySet(features=np.zeros((5, 2)), boxes=boxes)
        gt_relations = [(0, 1), (2, 3)]
        proposals = np.array([[0, 1], [3, 2]])
        assert relation_recall(proposals, ents, gt_boxes, gt_relations, 2) == 1.0
        assert relation_recall(proposals, ents, gt_boxes, gt_relations, 1) == 0.5

    def test_duplicate_gt_counted_once(self):
        _, boxes, gt_boxes, _ = self.make_scene(5, 4)
        ents = EntitySet(features=np.zeros((4, 2)), boxes=boxes)
        gt_relations = [
            (0, 1),
            (1, 0),  # same unordered relation
            (2, 3),
        ]
        proposals = np.array([[0, 1]])
        got = relation_recall(proposals, ents, gt_boxes, gt_relations, 1)
        assert got == 0.5  # one of two unique relations

    def test_unmatched_entities_do_not_cover(self):
        gt_boxes = [(0, 0, 1, 1), (5, 5, 6, 6)]
        # second entity far from any gt box
        ents = EntitySet(
            features=np.zeros((2, 2)),
            boxes=np.array([[0, 0, 1, 1], [90, 90, 91, 91]], dtype=float),
        )
        proposals = np.array([[0, 1]])
        got = relation_recall(proposals, ents, gt_boxes, [(0, 1)], 1)
        assert got == 0.0


    def test_one_pass_equals_per_k_calls(self):
        w, boxes, gt_boxes, gt_relations = self.make_scene(11, 6)
        ents = EntitySet(features=np.zeros((6, 2)), boxes=boxes)
        pairs, _ = top_k_pairs(w, 10)
        matches = entity_gt_matching(ents.boxes, gt_boxes, 0.5)
        ks = (10, 1, 3, 99)
        got = _bucket_recall(matches[pairs][None], [np.array(gt_relations)], 6, ks)[0]
        assert list(got) == list(ks)
        for k in ks:
            assert got[k] == relation_recall(pairs, ents, gt_boxes, gt_relations, k)

    def test_rejects_bad_k(self):
        w, boxes, gt_boxes, gt_relations = self.make_scene(12, 4)
        ents = EntitySet(features=np.zeros((4, 2)), boxes=boxes)
        with pytest.raises(ValidationError):
            relation_recall(top_k_pairs(w, 3)[0], ents, gt_boxes, gt_relations, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param([(0, 1), (2, 2)], id="self-pair"),
            pytest.param(np.array([0, 1]), id="1-d"),
            pytest.param(np.zeros((2, 3), dtype=np.int64), id="three-columns"),
            pytest.param(np.zeros((0,), dtype=np.int64), id="empty-1-d"),
            pytest.param(np.array([[0.0, 1.0]]), id="float"),
            pytest.param(np.array([[False, True]]), id="bool"),
            pytest.param(np.array([["0", "1"]]), id="string"),
            pytest.param(np.array([[0, 4]]), id="index-n"),
            pytest.param(np.array([[-1, 2]]), id="negative"),
        ],
    )
    def test_rejects_bad_pairs(self, bad):
        w, boxes, gt_boxes, gt_relations = self.make_scene(13, 4)
        ents = EntitySet(features=np.zeros((4, 2)), boxes=boxes)
        with pytest.raises(ValidationError):
            relation_recall(bad, ents, gt_boxes, gt_relations, 1)
        with pytest.raises(ValidationError):  # checked before the vacuous shortcut
            relation_recall(bad, ents, gt_boxes, [], 1)

    @pytest.mark.parametrize(
        "relations",
        [[(0, 4)], [(-1, 2)], [(1, 1)], [(0, 1), (2, 3.0)], [(0, 1, 2)]],
        ids=["index-g", "negative", "self", "float", "triple"],
    )
    def test_rejects_relations_outside_the_gt_objects(self, relations):
        """gt_relations index the g gt boxes by the reader's rule: two distinct
        integers in [0, g). They once counted in the denominator unchecked."""
        w, boxes, gt_boxes, _ = self.make_scene(16, 4)
        ents = EntitySet(features=np.zeros((4, 2)), boxes=boxes)
        pairs = top_k_pairs(w, 6)[0]
        for k in (1, 6):
            with pytest.raises(ValidationError, match=r"^gt_relations: bad index pair .* in \[0, 4\)$"):
                relation_recall(pairs, ents, gt_boxes, relations, k)

    def test_box_less_entities_with_relations_are_refused(self):
        """Only the pair ends are matched, but entities without boxes still
        raise ValidationError, not an indexing error."""
        w, _, gt_boxes, gt_relations = self.make_scene(14, 5)
        ents = EntitySet(features=np.zeros((5, 2)))
        pairs = top_k_pairs(w, 3)[0]
        for k in (1, 3, 10):
            with pytest.raises(ValidationError, match="no boxes"):
                relation_recall(pairs, ents, gt_boxes, gt_relations, k)
        assert relation_recall(pairs, ents, gt_boxes, [], 3) == 1.0  # vacuous before matching

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_rejects_a_gt_box_stack(self, k):
        """gt_boxes is one (g, 4) set: a stack with one set per pair or per
        pair end is refused rather than matched set by set."""
        w, boxes, gt_boxes, gt_relations = self.make_scene(15, 4)
        ents = EntitySet(features=np.zeros((4, 2)), boxes=boxes)
        pairs = top_k_pairs(w, 3)[0]
        used = min(k, len(pairs))
        for lead in (used, 2 * used):
            stack = np.broadcast_to(gt_boxes, (lead,) + gt_boxes.shape)
            with pytest.raises(ValidationError, match="gt_boxes must be"):
                relation_recall(pairs, ents, stack, gt_relations, k)

    @pytest.mark.parametrize("seed", range(5))
    def test_plain_tuples_score_like_relations(self, seed):
        w, boxes, gt_boxes, gt_relations = self.make_scene(20 + seed, 7)
        ents = EntitySet(features=np.zeros((7, 2)), boxes=boxes)
        matches = entity_gt_matching(ents.boxes, gt_boxes, 0.5)
        matches[seed % 7] = -1  # one unmatched entity
        pairs, _ = top_k_pairs(w, 21)
        # reversed orientation and a duplicate: both collapse to one relation
        plain = [(b, a) for a, b in gt_relations] + [gt_relations[0]]
        ks = (1, 3, 10, 21)
        want = _bucket_recall(matches[pairs][None], [np.array(gt_relations)], 7, ks)[0]
        assert _bucket_recall(matches[pairs][None], [np.array(plain)], 7, ks)[0] == want
        for k in ks:  # the checked entry takes tuples, lists and arrays alike
            want_k = relation_recall(pairs, ents, gt_boxes, gt_relations, k)
            for given in (plain, [list(p) for p in plain], np.array(plain)):
                assert relation_recall(pairs, ents, gt_boxes, given, k) == want_k


def test_300_entity_scene_matches_reference():
    """A paper-sized synthgen scene: top-K, matching and recall@{1,5,10}."""
    spec = dataclasses.replace(default_world_spec(), entities_min=300, entities_max=300)
    _, (inst,) = generate_dataset(spec, 1, 1, seed=5)
    assert inst.n == 300 and inst.gt_relations
    params = init_params(d=inst.entities.d, d_k=4, seed=0)
    focus = forward(inst.entities.features, params).focus_weights
    result = top_k_pairs(focus, 10)
    assert triples(result) == ref_top_k(focus, 10)
    pairs = result[0]

    ents, gt_relations = inst.entities, inst.gt_relations
    gt_boxes = ents.boxes  # each entity doubles as its own gt object
    want_matches = ref_matching(ents.boxes.tolist(), gt_boxes.tolist(), 0.5)
    matches = entity_gt_matching(ents.boxes, gt_boxes, 0.5)
    assert matches.tolist() == want_matches
    recall = _bucket_recall(matches[pairs][None], [inst.relations], 300, (1, 5, 10))[0]
    for k in (1, 5, 10):
        want = brute_force_recall(focus, ents.boxes, gt_boxes, gt_relations, k)
        assert recall[k] == want, k
        assert relation_recall(pairs, ents, gt_boxes, gt_relations, k) == want


class TestWordImportance:
    def test_column_sums(self):
        w = random_focus(6, 5)
        beta = word_importance(w)
        np.testing.assert_allclose(beta, w.sum(axis=0), atol=1e-15)

    def test_sums_to_one(self):
        for seed in range(5):
            beta = word_importance(random_focus(seed, 6))
            assert beta.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(beta >= 0)

    def test_requires_normalization(self):
        with pytest.raises(ValidationError):
            word_importance(np.full((3, 3), 1.0))

    def test_attention_pipeline_importance(self):
        """End to end: focus weights from a forward pass normalize correctly."""
        rng = np.random.default_rng(7)
        ents = EntitySet(features=rng.normal(size=(6, 4)))
        state = forward(ents.features, init_params(d=4, d_k=3, seed=0))
        beta = word_importance(state.focus_weights)
        assert beta.shape == (6,)
        assert beta.sum() == pytest.approx(1.0, abs=1e-10)


class TestCenterMassSummary:
    def test_mean_excludes_vacuous(self):
        """Vacuous instances are counted, not averaged in."""
        summary = CenterMassSummary.of([0.25, 0.5], n_vacuous=1)
        assert (summary.n_scored, summary.n_vacuous) == (2, 1)
        assert summary.mean_m == 0.375

    def test_all_vacuous(self):
        summary = CenterMassSummary.of([], n_vacuous=3)
        assert (summary.n_scored, summary.n_vacuous) == (0, 3)
        assert math.isnan(summary.mean_m)


class TestMetricsCsv:
    """The layout of `fanet eval`'s metrics.csv, which the CLI writes."""

    def test_format(self, tmp_path):
        p = tmp_path / "metrics.csv"
        _write_csv(p, _METRICS_COLUMNS, [(0, 5, 0.5, 0.125), (1, 10, 1.0, 1.0 / 3.0)])
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance_id", "k", "recall", "center_mass"]
        assert rows[1] == ["0", "5", "0.5", "0.125"]
        # 17 significant digits round-trip exactly
        assert float(rows[2][3]) == 1.0 / 3.0

    def test_empty_rows(self, tmp_path):
        p = tmp_path / "metrics.csv"
        _write_csv(p, _METRICS_COLUMNS, [])
        assert p.read_text().strip() == "instance_id,k,recall,center_mass"
