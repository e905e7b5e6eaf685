"""Target builders: box matching, vision/language modes, pair-table parsing."""

import itertools

import numpy as np
import pytest

from fanet.attention import EntitySet
from fanet.matrices import ValidationError
from fanet.supervision import (
    LANGUAGE_MODES,
    NO_MATCH,
    VISION_MODES,
    LexicalPairTable,
    build_language_target,
    build_vision_target,
    entity_gt_matching,
    iou,
)


def entity_set(boxes, d=2):
    boxes = np.asarray(boxes, dtype=np.float64)
    rng = np.random.default_rng(0)
    return EntitySet(features=rng.normal(size=(len(boxes), d)), boxes=boxes)


class TestIou:
    def test_unit_overlap_oracle(self):
        """2x2 boxes offset by (1, 1): intersection 1, union 4 + 4 - 1 = 7."""
        assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1.0 / 7.0, abs=1e-15)

    def test_identical(self):
        assert iou((0, 0, 3, 2), (0, 0, 3, 2)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_edge_touching_is_zero(self):
        assert iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_containment(self):
        assert iou((0, 0, 4, 4), (1, 1, 2, 2)) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_symmetry(self):
        a, b = (0.5, 0.5, 2.5, 4.0), (1.0, 0.0, 3.0, 3.0)
        assert iou(a, b) == iou(b, a)

    def test_rejects_inverted_box(self):
        with pytest.raises(ValidationError):
            iou((2, 0, 1, 1), (0, 0, 1, 1))

    def test_rejects_non_finite_box(self):
        with pytest.raises(ValidationError):
            iou((0, 0, float("nan"), 1), (0, 0, 1, 1))
        with pytest.raises(ValidationError):
            iou((0, 0, 1, 1), (float("-inf"), 0, 1, 1))


class TestGroundTruthObject:
    """Ground-truth objects are a (g, 4) box array, checked by entity_gt_matching."""

    ENTS = entity_set([(0, 0, 1, 1)])

    def test_validates_box(self):
        with pytest.raises(ValidationError):
            entity_gt_matching(self.ENTS.boxes, [(1, 1, 1, 2)], 0.5)
        with pytest.raises(ValidationError, match="x1 < x2"):
            entity_gt_matching(self.ENTS.boxes, [(0, 0, 1, 1), (2, 0, 1, 1)], 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_box(self, bad):
        with pytest.raises(ValidationError):
            entity_gt_matching(self.ENTS.boxes, [(0, 0, bad, 1)], 0.5)
        with pytest.raises(ValidationError):
            entity_gt_matching(self.ENTS.boxes, np.array([(-bad, 0, 1, 1)]), 0.5)

    @pytest.mark.parametrize(
        "bad", [(0, 0, 1, 1), [(0, 0, 1)], np.zeros((0, 3)), np.ones((1, 4, 1))]
    )
    def test_rejects_wrong_shape(self, bad):
        with pytest.raises(ValidationError, match=r"\(g, 4\)"):
            entity_gt_matching(self.ENTS.boxes, bad, 0.5)

    def test_categories_must_match_boxes(self):
        gt = [(0, 0, 1, 1), (2, 0, 3, 1)]
        with pytest.raises(ValidationError, match="gt_categories length 3"):
            build_vision_target(self.ENTS, gt, [0, 1, 2], mode="different_instance")
        with pytest.raises(ValidationError, match="requires gt_categories"):
            build_vision_target(self.ENTS, gt, mode="different_category")


class TestMatching:
    def test_best_overlap_wins(self):
        gt = [(0, 0, 2, 2), (0.5, 0.5, 2.5, 2.5)]
        # entity box hugs gt[1] more closely
        ents = entity_set([(0.6, 0.6, 2.4, 2.4)])
        assert entity_gt_matching(ents.boxes, gt, 0.5).tolist() == [1]

    def test_threshold_is_strict(self):
        """IoU exactly at the threshold does not match."""
        gt = [(0, 0, 2, 2)]
        ents = entity_set([(1, 1, 3, 3)])  # IoU = 1/7
        assert entity_gt_matching(ents.boxes, gt, 1.0 / 7.0).tolist() == [NO_MATCH]
        assert entity_gt_matching(ents.boxes, gt, 1.0 / 7.0 - 1e-9).tolist() == [0]

    def test_tie_takes_lowest_index(self):
        box = (0, 0, 1, 1)
        gt = [box, box]
        ents = entity_set([box])
        assert entity_gt_matching(ents.boxes, gt, 0.5).tolist() == [0]

    def test_equal_iou_distinct_boxes_takes_lowest_index(self):
        """Two different gt boxes, each at IoU exactly 1/2: index order decides."""
        left, right = (0, 0, 2, 1), (1, 0, 3, 1)
        ents = entity_set([(1, 0, 2, 1)])
        assert iou(ents.boxes[0], left) == iou(ents.boxes[0], right) == 0.5
        assert entity_gt_matching(ents.boxes, [left, right], 0.4).tolist() == [0]
        assert entity_gt_matching(ents.boxes, [right, left], 0.4).tolist() == [0]
        assert entity_gt_matching(ents.boxes, [right, left], 0.5).tolist() == [NO_MATCH]

    def test_empty_gt_matches_nothing(self):
        for empty in ([], (), np.zeros((0, 4))):
            matches = entity_gt_matching(entity_set([(0, 0, 1, 1), (2, 2, 3, 3)]).boxes, empty, 0.5)
            assert matches.dtype == np.int64
            assert matches.tolist() == [NO_MATCH, NO_MATCH]

    def test_threshold_monotonicity(self):
        """Raising the threshold can only lose matches, never gain or swap."""
        rng = np.random.default_rng(31)
        gt = np.array([(0, 0, 2, 2), (3, 3, 5, 5)], dtype=float)
        boxes = []
        for _ in range(12):
            x, y = rng.uniform(0, 4, size=2)
            w, h = rng.uniform(0.5, 2, size=2)
            boxes.append((x, y, x + w, y + h))
        ents = entity_set(boxes)
        prev = entity_gt_matching(ents.boxes, gt, 0.1)
        for thr in (0.3, 0.5, 0.7, 0.9):
            cur = entity_gt_matching(ents.boxes, gt, thr)
            for a, b in zip(prev, cur):
                assert b == a or b == NO_MATCH
            prev = cur

    def test_requires_boxes(self):
        ents = EntitySet(features=np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="no boxes"):
            entity_gt_matching(ents.boxes, [], 0.5)


class TestVisionTarget:
    GT = np.array([(0, 0, 1, 1), (2, 0, 3, 1), (4, 0, 5, 1)], dtype=float)
    CATS = np.array([0, 1, 1])

    def entities(self):
        # entity i sits exactly on gt i; entity 3 matches nothing
        return entity_set([(0, 0, 1, 1), (2, 0, 3, 1), (4, 0, 5, 1), (9, 9, 10, 10)])

    def test_different_instance(self):
        t = build_vision_target(self.entities(), self.GT, mode="different_instance")
        expect = np.zeros((4, 4))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            expect[i, j] = expect[j, i] = 1.0
        np.testing.assert_array_equal(t, expect)

    def test_different_category_excludes_same_label(self):
        t = build_vision_target(self.entities(), self.GT, self.CATS, mode="different_category")
        assert t[1, 2] == 0.0  # both category 1
        assert t[0, 1] == 1.0 and t[0, 2] == 1.0

    def test_mode_nesting(self):
        """Category-constrained positives are a subset of instance positives."""
        ents = self.entities()
        cat = build_vision_target(ents, self.GT, self.CATS, mode="different_category")
        inst = build_vision_target(ents, self.GT, self.CATS, mode="different_instance")
        assert np.all(inst[cat == 1.0] == 1.0)

    def test_symmetric_zero_diagonal(self):
        t = build_vision_target(self.entities(), self.GT, self.CATS)
        np.testing.assert_array_equal(t, t.T)
        np.testing.assert_array_equal(np.diag(t), 0.0)

    def test_shared_object_is_not_a_relation(self):
        """Two entities on the same gt object must not pair with each other."""
        ents = entity_set([(0, 0, 1, 1), (0.01, 0, 1.01, 1)])
        t = build_vision_target(ents, [(0, 0, 1, 1)], mode="different_instance")
        np.testing.assert_array_equal(t, 0.0)

    def test_unmatched_entity_row_is_zero(self):
        t = build_vision_target(self.entities(), self.GT, self.CATS)
        np.testing.assert_array_equal(t[3], 0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            build_vision_target(self.entities(), self.GT, self.CATS, mode="anything_goes")


class TestLanguageTarget:
    TAGS = ("noun", "verb", "adjective", "noun")
    TOKENS = ("engine", "rattles", "cold", "engine")

    def test_semantic_uses_table(self):
        table = LexicalPairTable([("noun", "verb"), ("adjective", "adjective")])
        t = build_language_target(self.TAGS, table, mode="semantic")
        assert t[0, 1] == 1.0 and t[1, 3] == 1.0
        assert t[0, 3] == 0.0  # noun-noun not in this table
        assert t[0, 2] == 0.0

    def test_semantic_rejects_unknown_tag(self):
        table = LexicalPairTable([("noun", "verb")])
        with pytest.raises(ValidationError):
            build_language_target(("noun", "pronoun"), table, mode="semantic")

    def test_category_modes_partition_pairs(self):
        table = LexicalPairTable.default()
        same = build_language_target(self.TAGS, table, mode="same_category")
        diff = build_language_target(self.TAGS, table, mode="different_category")
        off_diag = 1.0 - np.eye(4)
        np.testing.assert_array_equal(same + diff, off_diag)
        assert same[0, 3] == 1.0  # the two nouns

    def test_different_word(self):
        table = LexicalPairTable.default()
        t = build_language_target(
            self.TAGS, table, mode="different_word", tokens=self.TOKENS
        )
        assert t[0, 3] == 0.0  # "engine" twice
        assert t[0, 1] == 1.0

    def test_different_word_requires_tokens(self):
        with pytest.raises(ValidationError):
            build_language_target(self.TAGS, LexicalPairTable.default(), mode="different_word")

    def test_token_length_checked(self):
        with pytest.raises(ValidationError):
            build_language_target(
                self.TAGS, LexicalPairTable.default(), mode="different_word",
                tokens=("a", "b"),
            )

    # code-point order: "Z" < "a" < "z" < "Ä" < "ä" < "é"; a case-folded order differs
    ODD_TAGS = ("ä", "Z", "a", "é", "Ä", "z", "a", "Z", "ä")
    ODD_TABLE = (("Z", "a"), ("ä", "Ä"), ("é", "é"), ("z", "ä"))

    @pytest.mark.parametrize(
        "tags",
        [ODD_TAGS, ("a",), ()],
        ids=["mixed_case_non_ascii", "single", "empty"],
    )
    @pytest.mark.parametrize("mode", LANGUAGE_MODES)
    def test_matches_unique_reference(self, tags, mode):
        table = LexicalPairTable(self.ODD_TABLE)
        tokens = tuple(reversed(tags))
        got = build_language_target(tags, table, mode=mode, tokens=tokens)
        want = ref_language_target_unique(tags, table, mode, tokens)
        assert got.dtype == bool and got.shape == (len(tags),) * 2
        np.testing.assert_array_equal(got, want)

    def test_names_the_first_unknown_tag_in_sequence_order(self):
        table = LexicalPairTable([("noun", "verb")])
        with pytest.raises(ValidationError, match="^unknown lexical category id 'zeta'$"):
            build_language_target(("noun", "zeta", "alpha"), table, mode="semantic")


class TestLexicalPairTable:
    def test_contains_is_unordered(self):
        table = LexicalPairTable([("verb", "noun")])
        assert table.contains("noun", "verb")
        assert table.contains("verb", "noun")
        assert not table.contains("noun", "noun")

    def test_self_pair(self):
        table = LexicalPairTable([("noun", "noun")])
        assert table.contains("noun", "noun")
        assert len(table) == 1

    def test_default_grammar_pairs(self):
        table = LexicalPairTable.default()
        assert table.contains("noun", "noun")
        assert table.contains("adverb", "verb")
        assert not table.contains("adverb", "noun")
        assert len(table) == 5

    def test_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            LexicalPairTable([("", "noun")])


# --- the double-loop builders, kept as pure-Python references -------------------


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
        best, best_iou = NO_MATCH, threshold
        for g, gb in enumerate(gt_boxes):
            v = ref_iou(box, gb)
            if v > best_iou:
                best, best_iou = g, v
        matches.append(best)
    return matches


def ref_vision_target(boxes, gt_boxes, gt_categories, mode, threshold):
    matches = ref_matching(boxes, gt_boxes, threshold)
    n = len(boxes)
    t = np.zeros((n, n))
    for m in range(n):
        a = matches[m]
        if a == NO_MATCH:
            continue
        for k in range(m + 1, n):
            b = matches[k]
            if b == NO_MATCH or b == a:
                continue
            if mode == "different_category" and gt_categories[a] == gt_categories[b]:
                continue
            t[m, k] = t[k, m] = 1.0
    return t


def ref_language_target(tags, table, mode, tokens=None):
    n = len(tags)
    t = np.zeros((n, n))
    for m in range(n):
        for k in range(m + 1, n):
            if mode == "semantic":
                hit = table.contains(tags[m], tags[k])
            elif mode == "different_category":
                hit = tags[m] != tags[k]
            elif mode == "same_category":
                hit = tags[m] == tags[k]
            else:
                hit = tokens[m] != tokens[k]
            if hit:
                t[m, k] = t[k, m] = 1.0
    return t


def ref_language_target_unique(tags, table, mode, tokens=None):
    """The rule applied over np.unique's sorted keys, spread back by the inverse."""
    keys = tokens if mode == "different_word" else tags
    keys, key_of = np.unique(np.asarray(keys, dtype=str), return_inverse=True)
    u = len(keys)
    if mode == "semantic":
        rule = np.array([[table.contains(a, b) for b in keys] for a in keys], dtype=bool)
        rule = rule.reshape(u, u)
    elif mode == "same_category":
        rule = np.eye(u, dtype=bool)
    else:
        rule = ~np.eye(u, dtype=bool)
    t = rule[key_of[:, None], key_of[None, :]].astype(np.float64)
    np.fill_diagonal(t, 0.0)
    return t


# thresholds at and around 1/7, the IoU of two 2x2 boxes offset by (1, 1)
THRESHOLDS = (0.0, 1 / 7 - 1e-12, 1 / 7, 1 / 7 + 1e-12, 1 / 3, 0.5, 0.99)


def grid_boxes(rng, count):
    """Integer boxes on a small grid: duplicates and equal IoUs are common."""
    xy = rng.integers(0, 4, size=(count, 2))
    wh = rng.integers(1, 3, size=(count, 2))
    return np.hstack([xy, xy + wh]).astype(float)


class TestAgainstReferenceBuilders:
    @pytest.mark.parametrize("seed", range(40))
    def test_vision_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 if seed % 8 == 0 else int(rng.integers(2, 9))
        g = int(rng.integers(0, 8))
        boxes, gt = grid_boxes(rng, n), grid_boxes(rng, g)
        cats = rng.integers(0, 3, size=g)
        ents = entity_set(boxes)
        for thr, mode in itertools.product(THRESHOLDS, VISION_MODES):
            want_matches = ref_matching(boxes.tolist(), gt.tolist(), thr)
            assert entity_gt_matching(ents.boxes, gt, thr).tolist() == want_matches
            got = build_vision_target(ents, gt, cats, mode=mode, iou_threshold=thr)
            want = ref_vision_target(boxes.tolist(), gt.tolist(), cats.tolist(), mode, thr)
            assert got.dtype == bool and got.shape == (n, n)
            np.testing.assert_array_equal(got, want, err_msg=f"thr={thr}, mode={mode}")

    def test_vision_tied_and_empty_ground_truth(self):
        ents = entity_set([(0, 0, 2, 2), (1, 1, 3, 3), (0, 0, 2, 2)])
        same = np.array([(0, 0, 2, 2)] * 3, dtype=float)  # three identical objects
        for gt, cats in ((same, [0, 1, 0]), (np.zeros((0, 4)), [])):
            for thr, mode in itertools.product(THRESHOLDS, VISION_MODES):
                got = build_vision_target(ents, gt, cats, mode=mode, iou_threshold=thr)
                want = ref_vision_target(ents.boxes.tolist(), gt.tolist(), cats, mode, thr)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(24))
    def test_stacked_matching_matches_reference(self, seed):
        """A (B, n, 4) stack against per-set (B, g, 4) or shared (g, 4) gt boxes."""
        rng = np.random.default_rng(100 + seed)
        B = 1 if seed % 4 == 0 else int(rng.integers(2, 7))
        n = 1 if seed % 6 == 1 else int(rng.integers(2, 9))
        g = 0 if seed % 5 == 2 else int(rng.integers(1, 8))
        boxes = np.stack([grid_boxes(rng, n) for _ in range(B)])
        per_set = np.stack([grid_boxes(rng, g) for _ in range(B)]).reshape(B, g, 4)
        dup = min(n, g // 2)
        per_set[0, :dup] = boxes[0, :dup]  # exact duplicates: IoU 1
        shared = grid_boxes(rng, g)
        # per-set gt, evaluation's case (each set is its own gt), one shared gt
        for gt in (per_set, boxes, shared):
            gts = gt if gt.ndim == 3 else [gt] * B
            for thr in THRESHOLDS:
                got = entity_gt_matching(boxes, gt, thr)
                assert got.dtype == np.int64 and got.shape == (B, n)
                want = [ref_matching(b.tolist(), x.tolist(), thr) for b, x in zip(boxes, gts)]
                assert got.tolist() == want, f"gt {gt.shape}, thr={thr}"
                singles = [entity_gt_matching(b, x, thr) for b, x in zip(boxes, gts)]
                assert np.array_equal(got, np.stack(singles))

    @pytest.mark.parametrize(
        "boxes_shape,gt_shape",
        [((3, 2, 4), (2, 1, 4)), ((2, 4), (1, 1, 4)), ((3, 2, 4), (3, 1, 1, 4)),
         ((3, 2, 4), (3, 1, 3))],
    )
    def test_stack_rejects_mismatched_gt(self, boxes_shape, gt_shape):
        boxes = np.broadcast_to([0.0, 0.0, 1.0, 1.0], boxes_shape)
        gt = np.broadcast_to([0.0, 0.0, 1.0, 1.0][: gt_shape[-1]], gt_shape)
        with pytest.raises(ValidationError, match=r"gt_boxes must be \(g, 4\)"):
            entity_gt_matching(boxes, gt, 0.5)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 3, 4)])
    def test_rejects_bad_entity_box_shape(self, shape):
        with pytest.raises(ValidationError, match=r"boxes must be \(n, 4\) or \(B, n, 4\)"):
            entity_gt_matching(np.ones(shape), [(0, 0, 1, 1)], 0.5)

    def test_checks_stacked_boxes(self):
        good = np.stack([grid_boxes(np.random.default_rng(s), 3) for s in range(2)])
        bad = good.copy()
        bad[1, 2, 2] = bad[1, 2, 0]  # x1 == x2 in the last box of the stack
        with pytest.raises(ValidationError, match="x1 < x2"):
            entity_gt_matching(bad, [(0, 0, 1, 1)], 0.5)
        with pytest.raises(ValidationError, match="x1 < x2"):
            entity_gt_matching(good, bad, 0.5)

    @pytest.mark.parametrize("seed", range(40))
    def test_language_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        vocab = ["noun", "verb", "adjective", "adverb", "det"]
        every_pair = itertools.combinations_with_replacement(vocab, 2)
        pairs = [p for p in every_pair if rng.random() < 0.4]
        table = LexicalPairTable(pairs or [("noun", "verb")])
        known = sorted(table.categories)
        n = int(rng.integers(0, 3)) if seed % 8 == 0 else int(rng.integers(3, 30))
        tags = tuple(known[i] for i in rng.integers(0, len(known), size=n))
        tokens = tuple(f"w{i}" for i in rng.integers(0, 6, size=n))
        for mode in LANGUAGE_MODES:
            got = build_language_target(tags, table, mode=mode, tokens=tokens)
            want = ref_language_target(tags, table, mode, tokens)
            assert got.dtype == bool and got.shape == (n, n)
            np.testing.assert_array_equal(got, want, err_msg=mode)
