"""
Building supervision targets from ground truth
==============================================

Vision path: entities carry boxes, each is matched to its best-overlapping
annotated object (IoU strictly above a threshold), and pairs of entities
matched to different objects become positive cells in the target matrix.
Language path: tagged tokens, with positives read from a lexical pair table.

Run with: python3 demos/supervision_targets.py
"""

import numpy as np

from fanet import (
    EntitySet,
    LexicalPairTable,
    build_language_target,
    build_vision_target,
    entity_gt_matching,
    iou,
)

np.set_printoptions(precision=2, suppress=True)

# Four detections, three annotated objects. Detection 3 overlaps nothing.
boxes = np.array(
    [
        [0.0, 0.0, 2.0, 2.0],    # sits right on gt object 0
        [0.2, 0.1, 2.2, 2.1],    # also near gt 0, slightly offset
        [4.0, 4.0, 6.0, 6.0],    # on gt 1
        [9.0, 9.0, 10.0, 10.0],  # matches nothing
    ]
)
entities = EntitySet(features=np.eye(4), boxes=boxes)
# Ground truth is a (g, 4) box array plus a (g,) category array.
gt_boxes = np.array(
    [
        [0.0, 0.0, 2.0, 2.0],
        [4.1, 4.0, 6.1, 6.0],
        [0.0, 4.0, 1.0, 5.0],
    ]
)
gt_categories = np.array([1, 2, 1])

print("1. IoU of every detection against every annotation")
for i in range(4):
    row = [iou(boxes[i], g) for g in gt_boxes]
    print(f"  det {i}:", "  ".join(f"{v:.3f}" for v in row))
print()

print("2. Best-match assignment at threshold 0.5 (-1 = unmatched)")
print("  matches:", entity_gt_matching(entities.boxes, gt_boxes, iou_threshold=0.5), "\n")

print("3. Vision targets in both modes")
print("different_instance (any two distinct objects):")
print(build_vision_target(entities, gt_boxes, mode="different_instance").astype(int))
print("different_category (objects must also disagree on category):")
print(
    build_vision_target(
        entities, gt_boxes, gt_categories, mode="different_category"
    ).astype(int)
)
print("Detections 0 and 1 share object 0, so their pair never lights up.\n")

print("4. Language targets from a lexical pair table")
table = LexicalPairTable()
table.add("noun", "verb")
table.add("adjective", "noun")
tags = ("noun", "verb", "adjective", "noun", "verb")
tokens = ("cat", "runs", "quick", "cat", "runs")
print("tags:  ", tags)
print("semantic (pair of tags present in the table):")
print(build_language_target(tags, table, mode="semantic").astype(int))
print("different_word (token identity, table ignored):")
print(
    build_language_target(
        tags, table, mode="different_word", tokens=tokens
    ).astype(int)
)
print("Positions 0 and 3 are both the token 'cat', so they stay zero.")
