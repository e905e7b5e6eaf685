"""Target builders: box matching, vision/language modes, pair-table parsing."""

import numpy as np
import pytest

from fanet.attention import EntitySet
from fanet.matrices import ValidationError
from fanet.supervision import (
    NO_MATCH,
    GroundTruthObject,
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
    def test_validates_box(self):
        with pytest.raises(ValidationError):
            GroundTruthObject(box=(1, 1, 1, 2), category=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_box(self, bad):
        with pytest.raises(ValidationError):
            GroundTruthObject(box=(0, 0, bad, 1), category=0)
        with pytest.raises(ValidationError):
            GroundTruthObject(box=(-bad, 0, 1, 1), category=0)

    def test_roundtrip_fields(self):
        obj = GroundTruthObject(box=(0, 0, 1, 1), category=3)
        assert obj.category == 3


class TestMatching:
    def test_best_overlap_wins(self):
        gt = [
            GroundTruthObject(box=(0, 0, 2, 2), category=0),
            GroundTruthObject(box=(0.5, 0.5, 2.5, 2.5), category=1),
        ]
        # entity box hugs gt[1] more closely
        ents = entity_set([(0.6, 0.6, 2.4, 2.4)])
        assert entity_gt_matching(ents, gt, 0.5).tolist() == [1]

    def test_threshold_is_strict(self):
        """IoU exactly at the threshold does not match."""
        gt = [GroundTruthObject(box=(0, 0, 2, 2), category=0)]
        ents = entity_set([(1, 1, 3, 3)])  # IoU = 1/7
        assert entity_gt_matching(ents, gt, 1.0 / 7.0).tolist() == [NO_MATCH]
        assert entity_gt_matching(ents, gt, 1.0 / 7.0 - 1e-9).tolist() == [0]

    def test_tie_takes_lowest_index(self):
        box = (0, 0, 1, 1)
        gt = [
            GroundTruthObject(box=box, category=0),
            GroundTruthObject(box=box, category=1),
        ]
        ents = entity_set([box])
        assert entity_gt_matching(ents, gt, 0.5).tolist() == [0]

    def test_equal_iou_distinct_boxes_takes_lowest_index(self):
        """Two different gt boxes, each at IoU exactly 1/2: index order decides."""
        left = GroundTruthObject(box=(0, 0, 2, 1), category=0)
        right = GroundTruthObject(box=(1, 0, 3, 1), category=1)
        ents = entity_set([(1, 0, 2, 1)])
        assert iou(ents.boxes[0], left.box) == iou(ents.boxes[0], right.box) == 0.5
        assert entity_gt_matching(ents, [left, right], 0.4).tolist() == [0]
        assert entity_gt_matching(ents, [right, left], 0.4).tolist() == [0]
        assert entity_gt_matching(ents, [right, left], 0.5).tolist() == [NO_MATCH]

    def test_empty_gt_matches_nothing(self):
        matches = entity_gt_matching(entity_set([(0, 0, 1, 1), (2, 2, 3, 3)]), [], 0.5)
        assert matches.dtype == np.int64
        assert matches.tolist() == [NO_MATCH, NO_MATCH]

    def test_threshold_monotonicity(self):
        """Raising the threshold can only lose matches, never gain or swap."""
        rng = np.random.default_rng(31)
        gt = [
            GroundTruthObject(box=(0, 0, 2, 2), category=0),
            GroundTruthObject(box=(3, 3, 5, 5), category=1),
        ]
        boxes = []
        for _ in range(12):
            x, y = rng.uniform(0, 4, size=2)
            w, h = rng.uniform(0.5, 2, size=2)
            boxes.append((x, y, x + w, y + h))
        ents = entity_set(boxes)
        prev = entity_gt_matching(ents, gt, 0.1)
        for thr in (0.3, 0.5, 0.7, 0.9):
            cur = entity_gt_matching(ents, gt, thr)
            for a, b in zip(prev, cur):
                assert b == a or b == NO_MATCH
            prev = cur

    def test_requires_boxes(self):
        ents = EntitySet(features=np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            entity_gt_matching(ents, [], 0.5)


class TestVisionTarget:
    GT = [
        GroundTruthObject(box=(0, 0, 1, 1), category=0),
        GroundTruthObject(box=(2, 0, 3, 1), category=1),
        GroundTruthObject(box=(4, 0, 5, 1), category=1),
    ]

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
        t = build_vision_target(self.entities(), self.GT, mode="different_category")
        assert t[1, 2] == 0.0  # both category 1
        assert t[0, 1] == 1.0 and t[0, 2] == 1.0

    def test_mode_nesting(self):
        """Category-constrained positives are a subset of instance positives."""
        ents = self.entities()
        cat = build_vision_target(ents, self.GT, mode="different_category")
        inst = build_vision_target(ents, self.GT, mode="different_instance")
        assert np.all(inst[cat == 1.0] == 1.0)

    def test_symmetric_zero_diagonal(self):
        t = build_vision_target(self.entities(), self.GT)
        np.testing.assert_array_equal(t, t.T)
        np.testing.assert_array_equal(np.diag(t), 0.0)

    def test_shared_object_is_not_a_relation(self):
        """Two entities on the same gt object must not pair with each other."""
        ents = entity_set([(0, 0, 1, 1), (0.01, 0, 1.01, 1)])
        gt = [GroundTruthObject(box=(0, 0, 1, 1), category=0)]
        t = build_vision_target(ents, gt, mode="different_instance")
        np.testing.assert_array_equal(t, 0.0)

    def test_unmatched_entity_row_is_zero(self):
        t = build_vision_target(self.entities(), self.GT)
        np.testing.assert_array_equal(t[3], 0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            build_vision_target(self.entities(), self.GT, mode="anything_goes")


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

    def test_file_roundtrip(self, tmp_path):
        table = LexicalPairTable.default()
        p = tmp_path / "pairs.txt"
        table.to_file(p)
        again = LexicalPairTable.from_file(p)
        assert again.pairs() == table.pairs()

    def test_parse_comments_and_blanks(self, tmp_path):
        p = tmp_path / "pairs.txt"
        p.write_text("# header\n\nnoun verb  # inline\n   \nadverb adjective\n")
        table = LexicalPairTable.from_file(p)
        assert table.contains("verb", "noun")
        assert table.contains("adverb", "adjective")
        assert len(table) == 2

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "pairs.txt"
        p.write_text("noun verb\nnoun verb adjective\n")
        with pytest.raises(ValidationError, match="2"):
            LexicalPairTable.from_file(p)

    def test_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            LexicalPairTable([("", "noun")])
