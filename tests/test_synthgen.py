"""Synthetic benchmark worlds: determinism, label rules, serialization."""

import base64
import dataclasses
import importlib.util
import itertools
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fanet import matrices
from fanet.attention import EntitySet
from fanet.losses import validate_target
from fanet.matrices import NonFiniteError, ValidationError, _upper_cells
from fanet.metrics import top_k_pairs
from fanet.seeding import _rekeyed, instance_seed, stream_rng
from fanet.supervision import (
    LexicalPairTable,
    build_language_target,
    build_vision_target,
    entity_gt_matching,
    iou,
)
from fanet.synthgen import (
    MAX_ITEMS,
    DocumentSpec,
    Instance,
    WorldSpec,
    default_document_spec,
    default_world_spec,
    generate_dataset,
    generate_document_instance,
    generate_instance,
    label_distribution,
    load_spec,
    read_jsonl,
    write_jsonl,
)
from fanet.synthgen import _affinity_table, _affinity_target, _grid_boxes, _instance_to_dict, _upper_pairs


def tiny_world(**overrides):
    kw = dict(
        prototypes=3.0 * np.eye(6),
        affine_pairs=((0, 1), (2, 3)),
        signature_pairs=((0, 1),),
        noise_sigma=0.1,
        entities_min=4,
        entities_max=6,
    )
    kw.update(overrides)
    return WorldSpec(**kw)


class TestWorldSpec:
    def test_properties(self):
        spec = tiny_world()
        assert spec.n_categories == 6
        assert spec.embed_dim == 6
        assert spec.n_labels == 2
        assert spec.fillers == (2, 3, 4, 5)

    def test_scene_label_rule(self):
        spec = default_world_spec()
        assert spec.label_of([0, 1, 6, 7]) == 1
        assert spec.label_of([2, 3, 6]) == 2
        assert spec.label_of([4, 5, 6, 7]) == 0  # (4,5) is not a signature
        # both signatures present: the lowest one wins
        assert spec.label_of([2, 3, 0, 1]) == 1

    def test_rejects_self_pair(self):
        with pytest.raises(ValidationError):
            tiny_world(affine_pairs=((0, 0),))

    def test_rejects_out_of_range_pair(self):
        with pytest.raises(ValidationError):
            tiny_world(affine_pairs=((0, 6),))

    @pytest.mark.parametrize("pair", [[0, 1.5], ["0", "1"], [True, 2], [0, 1, 2]])
    def test_from_dict_rejects_non_integer_pair(self, pair):
        d = tiny_world().to_dict()
        d["affine_pairs"] = [[2, 3], pair]
        with pytest.raises(ValidationError, match="affine_pairs: bad index pair"):
            WorldSpec.from_dict(d)

    def test_rejects_signature_outside_affine(self):
        with pytest.raises(ValidationError):
            tiny_world(signature_pairs=((2, 4),))

    def test_rejects_shared_signature_category(self):
        with pytest.raises(ValidationError):
            tiny_world(
                affine_pairs=((0, 1), (1, 2)), signature_pairs=((0, 1), (1, 2))
            )

    def test_requires_filler_pool(self):
        with pytest.raises(ValidationError):
            WorldSpec(
                prototypes=np.eye(2),
                affine_pairs=((0, 1),),
                signature_pairs=((0, 1),),
                entities_min=2,
                entities_max=2,
            )

    def test_dict_roundtrip(self):
        # both worlds, with every optional field away from its default
        document = dataclasses.replace(
            default_document_spec(), noise_sigma=0.3, tokens_min=3, tokens_max=5
        )
        for spec in (tiny_world(), document):
            d = spec.to_dict()
            assert list(d) == ["kind"] + [
                "pair_table" if f.name == "table" else f.name for f in dataclasses.fields(spec)
            ]
            for f in dataclasses.fields(spec):
                if f.default is not dataclasses.MISSING:
                    assert d[f.name] != f.default, f.name
            again = type(spec).from_dict(json.loads(json.dumps(d)))
            assert again.to_dict() == d
            assert type(again.noise_sigma) is float

    def test_from_dict_rejects_unknown_field(self):
        d = tiny_world().to_dict()
        d["entity_count"] = 5
        with pytest.raises(ValidationError, match="entity_count"):
            WorldSpec.from_dict(d)


class TestGenerateInstance:
    def test_deterministic(self):
        spec = tiny_world()
        a = generate_instance(spec, seed=123)
        b = generate_instance(spec, seed=123)
        np.testing.assert_array_equal(a.entities.features, b.entities.features)
        np.testing.assert_array_equal(a.target, b.target)
        assert a.label == b.label
        assert a.gt_relations == b.gt_relations

    def test_seeds_differ(self):
        spec = tiny_world()
        a = generate_instance(spec, seed=1)
        b = generate_instance(spec, seed=2)
        assert not np.array_equal(a.entities.features, b.entities.features)

    @pytest.mark.parametrize("seed", range(8))
    def test_target_matches_category_affinity(self, seed):
        """Rebuild the target from categories; the stored one must agree."""
        spec = default_world_spec()
        inst = generate_instance(spec, seed)
        cats = inst.entities.categories
        affine = {frozenset(p) for p in spec.affine_pairs}
        n = inst.n
        expect = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            if frozenset((int(cats[i]), int(cats[j]))) in affine:
                expect[i, j] = expect[j, i] = 1.0
        np.testing.assert_array_equal(inst.target, expect)

    @pytest.mark.parametrize("seed", range(8))
    def test_label_matches_scene_rule(self, seed):
        spec = default_world_spec()
        inst = generate_instance(spec, seed)
        assert inst.label == spec.label_of(inst.entities.categories)

    def test_boxes_are_disjoint(self):
        inst = generate_instance(default_world_spec(), seed=5)
        boxes = inst.entities.boxes
        for i, j in itertools.combinations(range(inst.n), 2):
            assert iou(boxes[i], boxes[j]) == 0.0

    def test_gt_relations_mirror_target(self):
        inst = generate_instance(default_world_spec(), seed=6)
        from_target = {
            (i, j)
            for i, j in itertools.combinations(range(inst.n), 2)
            if inst.target[i, j] == 1.0
        }
        assert set(inst.gt_relations) == from_target

    def test_entity_count_in_range(self):
        spec = tiny_world()
        for seed in range(20):
            n = generate_instance(spec, seed).n
            assert spec.entities_min <= n <= spec.entities_max


class TestDocumentInstances:
    def test_deterministic(self):
        spec = default_document_spec()
        a = generate_document_instance(spec, seed=11)
        b = generate_document_instance(spec, seed=11)
        np.testing.assert_array_equal(a.entities.features, b.entities.features)
        assert a.tokens == b.tokens and a.tags == b.tags

    def test_target_from_tag_table(self):
        spec = default_document_spec()
        inst = generate_document_instance(spec, seed=12)
        for i, j in itertools.combinations(range(inst.n), 2):
            expected = 1.0 if spec.table.contains(inst.tags[i], inst.tags[j]) else 0.0
            assert inst.target[i, j] == expected

    def test_no_boxes(self):
        inst = generate_document_instance(default_document_spec(), seed=13)
        assert inst.entities.boxes is None
        with pytest.raises(ValidationError, match="no boxes"):
            entity_gt_matching(inst.entities.boxes, inst.entities.boxes, 0.5)


class TestGenerateDataset:
    def test_sizes_and_determinism(self):
        spec = tiny_world()
        tr1, te1 = generate_dataset(spec, 5, 3, seed=0)
        tr2, te2 = generate_dataset(spec, 5, 3, seed=0)
        assert len(tr1) == 5 and len(te1) == 3
        for a, b in zip(tr1 + te1, tr2 + te2):
            np.testing.assert_array_equal(a.entities.features, b.entities.features)

    def test_split_streams_disjoint(self):
        """Same index in train vs test must come from different draws."""
        tr, te = generate_dataset(tiny_world(), 4, 4, seed=0)
        for a, b in zip(tr, te):
            assert not np.array_equal(a.entities.features, b.entities.features)

    def test_master_seeds_disjoint(self):
        tr0, _ = generate_dataset(tiny_world(), 3, 1, seed=0)
        tr1, _ = generate_dataset(tiny_world(), 3, 1, seed=1)
        for a, b in zip(tr0, tr1):
            assert not np.array_equal(a.entities.features, b.entities.features)

    def test_rejects_empty_split(self):
        with pytest.raises(ValidationError):
            generate_dataset(tiny_world(), 0, 1, seed=0)

    def test_document_dispatch(self):
        tr, te = generate_dataset(default_document_spec(), 2, 2, seed=0)
        assert tr[0].tokens is not None

    def test_label_distribution(self):
        tr, _ = generate_dataset(tiny_world(), 40, 1, seed=0)
        dist = label_distribution(tr)
        assert sum(dist.values()) == 40
        assert set(dist) <= {0, 1}


class TestSeeding:
    def test_instance_seed_injective_at_small_scale(self):
        seen = set()
        for master in range(3):
            for split in (0, 1):
                for i in range(50):
                    seen.add(instance_seed(master, split, i))
        assert len(seen) == 3 * 2 * 50

    def test_stream_separation(self):
        a = stream_rng(1, 7).standard_normal(4)
        b = stream_rng(2, 7).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_stream_rng_reproducible(self):
        a = stream_rng(3, 99).standard_normal(4)
        b = stream_rng(3, 99).standard_normal(4)
        np.testing.assert_array_equal(a, b)


def _draws(rng) -> list:
    """Mixed draws that read whole words, 32-bit halves and buffered words."""
    return [
        rng.integers(0, 2**32, dtype=np.uint32, size=3).tolist(),
        rng.standard_normal(5).tolist(),
        rng.integers(0, 7, size=4).tolist(),
        rng.random(2).tolist(),
        rng.permutation(6).tolist(),
        rng.bit_generator.random_raw(3).tolist(),
    ]


def assert_relation_array(r) -> None:
    """Instance.relations' form: a read-only (m, 2) int64 array."""
    assert type(r) is np.ndarray and r.dtype == np.int64
    assert r.ndim == 2 and r.shape[1] == 2 and not r.flags.writeable


def _same_instance(a, b) -> None:
    """a and b hold the same arrays (dtype, shape, bytes, writability) and fields."""
    for name in ("features", "categories", "boxes"):
        x, y = getattr(a.entities, name), getattr(b.entities, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert (x.dtype, x.shape, x.flags.writeable, x.flags.c_contiguous) == (
                y.dtype, y.shape, y.flags.writeable, y.flags.c_contiguous
            ), name
            assert x.tobytes() == y.tobytes(), name
    assert (a.target.dtype, a.target.shape, a.target.flags.writeable) == (
        b.target.dtype, b.target.shape, b.target.flags.writeable
    )
    assert a.target.tobytes() == b.target.tobytes()
    assert type(a.label) is type(b.label) is int and a.label == b.label
    assert a.gt_relations == b.gt_relations
    assert [tuple(map(type, p)) for p in a.gt_relations] == [(int, int)] * len(a.gt_relations)
    assert type(a.gt_relations) is type(b.gt_relations) is tuple
    assert_relation_array(a.relations)
    assert_relation_array(b.relations)
    assert a.relations.tobytes() == b.relations.tobytes()
    assert (a.tokens, a.tags) == (b.tokens, b.tags)
    assert type(a.labeled) is type(b.labeled) is bool and a.labeled == b.labeled


SHARED_STREAM_WORLDS = {
    "vision": default_world_spec,
    "vision300": lambda: load_spec({**default_world_spec().to_dict(),
                                    "entities_min": 300, "entities_max": 300}),
    "document": default_document_spec,
}


class TestSharedStream:
    """generate_dataset draws every instance from one re-keyed Generator."""

    @pytest.mark.parametrize("leftover", [0, 1, 2, 5])
    def test_rekeyed_matches_fresh_draw_for_draw(self, leftover):
        # 32-bit draws leave half a word buffered after an odd count; the
        # re-key must drop it, along with the buffered 64-bit words
        values = [0, 1, 7, 2**32 + 3, 2**63, 2**64 - 1, 7]
        for value, rng in zip(values, _rekeyed(1, values)):
            assert _draws(rng) == _draws(stream_rng(1, value))
            rng.integers(0, 2**32, dtype=np.uint32, size=leftover)
            rng.standard_normal(leftover)

    def test_rekeyed_keeps_the_stream_tag(self):
        for tag in (1, 4):
            (rng,) = _rekeyed(tag, [9])
            assert _draws(rng) == _draws(stream_rng(tag, 9))

    def test_rekeyed_checks_like_stream_rng(self):
        with pytest.raises(ValueError, match="seed value must be >= 0"):
            list(_rekeyed(1, [3, -1]))
        with pytest.raises(ValueError, match="stream_tag must be >= 1"):
            list(_rekeyed(0, [3]))

    @pytest.mark.parametrize("call", [
        lambda: stream_rng(0, 3),
        lambda: stream_rng(1, -1),
        lambda: list(_rekeyed(1, [-1])),
        lambda: instance_seed(0, -1, 0),
    ])
    def test_seed_checks_raise_validation_error(self, call):
        with pytest.raises(ValidationError):
            call()

    @pytest.mark.parametrize("world", sorted(SHARED_STREAM_WORLDS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_dataset_matches_generate_instance(self, world, seed):
        spec = SHARED_STREAM_WORLDS[world]()
        one = generate_document_instance if world == "document" else generate_instance
        sizes = (2, 2) if world == "vision300" else (12, 7)
        for split, instances in enumerate(generate_dataset(spec, *sizes, seed)):
            assert len(instances) == sizes[split]
            for i, inst in enumerate(instances):
                _same_instance(inst, one(spec, instance_seed(seed, split, i)))

    @pytest.mark.parametrize("world", sorted(SHARED_STREAM_WORLDS))
    def test_generated_instances_pass_the_constructor_checks(self, world):
        """Generated instances skip the EntitySet and Instance checks; built
        through the checked constructors, they come out the same."""
        train, test = generate_dataset(SHARED_STREAM_WORLDS[world](), 6, 3, seed=2)
        for inst in train + test:
            ent = inst.entities
            checked = Instance(
                entities=EntitySet(features=ent.features, categories=ent.categories,
                                   boxes=ent.boxes),
                target=inst.target, label=inst.label, relations=inst.relations,
                tokens=inst.tokens, tags=inst.tags,
            )
            _same_instance(inst, checked)
            np.testing.assert_array_equal(inst.target, inst.target.T)

    def test_instances_own_their_boxes(self):
        train, test = generate_dataset(default_world_spec(), 30, 10, seed=1)
        instances = train + test
        before = [inst.entities.boxes.copy() for inst in instances]
        instances[3].entities.boxes[:] = -1.0
        for k, (inst, boxes) in enumerate(zip(instances, before)):
            if k != 3:
                np.testing.assert_array_equal(inst.entities.boxes, boxes)

    @pytest.mark.parametrize("make,field", [(default_world_spec, "signature_pairs"),
                                             (default_document_spec, "keyword_pairs")])
    def test_label_rule_is_still_checked(self, make, field):
        # label 2 draws pair 2, whose categories the rule reads as label 1;
        # only a spec changed after its checks can do this
        spec = make()
        object.__setattr__(spec, field, (getattr(spec, field)[0],) * 2)
        with pytest.raises(ValidationError, match="spec breaks the label rule"):
            generate_dataset(spec, 30, 1, seed=0)

    @pytest.mark.parametrize("make", [default_world_spec, default_document_spec])
    def test_overflowing_noise_is_still_checked(self, make):
        spec = load_spec({**make().to_dict(), "noise_sigma": 1e308})
        with pytest.raises(NonFiniteError, match="features contains non-finite entries"):
            generate_dataset(spec, 5, 1, seed=0)

    @pytest.mark.parametrize("make", [default_world_spec, default_document_spec])
    @pytest.mark.parametrize("sigma", [float("inf"), float("nan"), -0.5])
    def test_spec_rejects_bad_noise_sigma(self, make, sigma):
        with pytest.raises(ValidationError, match="noise_sigma must be finite and >= 0"):
            load_spec({**make().to_dict(), "noise_sigma": sigma})


class TestJsonl:
    def test_vision_roundtrip_is_exact(self, tmp_path):
        tr, _ = generate_dataset(default_world_spec(), 6, 1, seed=3)
        p = tmp_path / "train.jsonl"
        write_jsonl(p, tr)
        back = read_jsonl(p)
        assert len(back) == 6
        for a, b in zip(tr, back):
            np.testing.assert_array_equal(a.entities.features, b.entities.features)
            np.testing.assert_array_equal(a.entities.boxes, b.entities.boxes)
            np.testing.assert_array_equal(a.entities.categories, b.entities.categories)
            np.testing.assert_array_equal(a.target, b.target)
            assert a.label == b.label
            assert a.gt_relations == b.gt_relations

    def test_document_roundtrip(self, tmp_path):
        tr, _ = generate_dataset(default_document_spec(), 4, 1, seed=3)
        p = tmp_path / "train.jsonl"
        write_jsonl(p, tr)
        back = read_jsonl(p)
        for a, b in zip(tr, back):
            np.testing.assert_array_equal(a.entities.features, b.entities.features)
            assert a.tokens == b.tokens and a.tags == b.tags

    def test_write_read_write_is_stable(self, tmp_path):
        tr, _ = generate_dataset(tiny_world(), 3, 1, seed=1)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(p1, tr)
        write_jsonl(p2, read_jsonl(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_error_names_path_and_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"n_entities": 2}\nnot json\n')
        with pytest.raises(ValidationError, match="bad.jsonl"):
            read_jsonl(p)

    def test_error_on_garbage_second_line(self, tmp_path):
        tr, _ = generate_dataset(tiny_world(), 1, 1, seed=1)
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, tr)
        with open(p, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(ValidationError, match="2"):
            read_jsonl(p)


def assert_same_instances(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.entities.features, b.entities.features)
        assert a.entities.features.dtype == b.entities.features.dtype == np.float64
        for field in ("boxes", "categories"):
            x, y = getattr(a.entities, field), getattr(b.entities, field)
            assert (x is None and y is None) or (np.array_equal(x, y) and x.dtype == y.dtype)
        assert np.array_equal(a.target, b.target) and a.target.dtype == b.target.dtype
        assert a.label == b.label and a.labeled == b.labeled
        assert a.gt_relations == b.gt_relations
        assert [tuple(map(type, r)) for r in a.gt_relations] == [
            (int, int) for _ in b.gt_relations
        ]
        assert all(type(r) is tuple for r in a.gt_relations + b.gt_relations)
        assert_relation_array(a.relations)
        assert a.tokens == b.tokens and a.tags == b.tags


class TestFormatV2:
    def test_lines_are_self_describing(self, tmp_path):
        tr, _ = generate_dataset(tiny_world(), 2, 1, seed=1)
        p = tmp_path / "a.jsonl"
        write_jsonl(p, tr)
        for line in p.read_text().splitlines():
            d = json.loads(line)
            assert (d["format"], d["version"]) == ("fanet-instance", 2)
            assert d["entities"]["features"]["dtype"] == "<f8"
            assert d["target"]["dtype"] == "u1"
            assert "gt_relations" not in d  # equal to the target's upper pairs

    def test_packed_target_bit_order(self, tmp_path):
        # n = 4: pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3); label (0,2) and (2,3)
        target = np.zeros((4, 4))
        target[0, 2] = target[2, 0] = target[2, 3] = target[3, 2] = 1.0
        inst = Instance(entities=EntitySet(features=np.eye(4)), target=target, label=0)
        p = tmp_path / "a.jsonl"
        write_jsonl(p, [inst])
        d = json.loads(p.read_text())
        assert d["target"]["shape"] == [1]
        assert base64.b64decode(d["target"]["data"]) == bytes([0b01000100])
        assert d["gt_relations"] == []  # () differs from the target's upper pairs
        assert_same_instances(read_jsonl(p), [inst])

    # The writer omits gt_relations only when they list the target's upper
    # pairs, i < j in row-major order, each once; a reversed pair counts as equal.
    # The target labels (0, 1) and (2, 3), or no pair where unlabeled.
    @pytest.mark.parametrize(
        "relations, labeled, written",
        [
            ((), True, []),
            (((1, 0),), True, [[0, 1]]),
            (((0, 1), (2, 3)), True, None),
            (((2, 3), (0, 1)), True, [[2, 3], [0, 1]]),
            (((0, 3),), True, [[0, 3]]),
            (((1, 0), (3, 2)), True, None),
            (((0, 1), (0, 1)), True, [[0, 1], [0, 1]]),
            (((0, 1), (1, 2)), True, [[0, 1], [1, 2]]),
            ((), False, None),
        ],
        ids=["none", "reversed", "all", "unordered", "unlabeled", "all_reversed",
             "duplicate", "same_count", "unlabeled_target"],
    )
    def test_explicit_relations_round_trip(self, tmp_path, relations, labeled, written):
        """Relations read back as written, or as the target's upper pairs where omitted."""
        target = np.zeros((4, 4))
        if labeled:
            target[0, 1] = target[1, 0] = target[2, 3] = target[3, 2] = 1.0
        entities = EntitySet(features=np.eye(4))
        inst = Instance(entities=entities, target=target, label=1, relations=relations)
        p = tmp_path / "a.jsonl"
        write_jsonl(p, [inst])
        d = json.loads(p.read_text())
        assert d.get("gt_relations") == written
        assert ("gt_relations" in d) == (written is not None)
        read = _upper_pairs(inst.target) if written is None else tuple(map(tuple, written))
        want = Instance(entities=entities, target=target, label=1, relations=read)
        assert_same_instances(read_jsonl(p), [want])

    @pytest.mark.parametrize("n", [*range(1, 10), 17])  # n(n-1)/2 takes every residue mod 8
    def test_every_padding_width_round_trips(self, tmp_path, n):
        rng = np.random.default_rng(n)
        upper = np.triu(rng.integers(0, 2, size=(n, n)), 1).astype(np.float64)
        inst = Instance(
            entities=EntitySet(features=rng.standard_normal((n, 3))),
            target=upper + upper.T,
            label=0,
        )
        p = tmp_path / "a.jsonl"
        write_jsonl(p, [inst])
        d = json.loads(p.read_text())
        assert d["target"]["shape"] == [(n * (n - 1) // 2 + 7) // 8]
        (back,) = read_jsonl(p)
        assert_same_instances([back], [inst])
        assert back.target.flags.c_contiguous and back.entities.features.flags.writeable


# --- grouped read ---------------------------------------------------------------
#
# read_jsonl checks every line in one pass, then unpacks the targets of the
# lines of each entity count together and builds every Instance in
# file order, its target a view into those stacks.


def _mixed_instances():
    """Scenes of 4, 5 and 6 entities with and without boxes, documents, and
    scenes whose gt_relations differ from the target (written explicitly)."""
    scenes, _ = generate_dataset(tiny_world(), 12, 1, seed=7)
    assert {inst.n for inst in scenes} == {4, 5, 6}
    boxless = [
        Instance(
            entities=EntitySet(features=inst.entities.features, categories=inst.entities.categories),
            target=inst.target,
            label=inst.label,
            relations=inst.relations,
        )
        for inst in scenes[:4]
    ]
    explicit = [
        Instance(
            entities=inst.entities,
            target=inst.target,
            label=inst.label,
            relations=((0, inst.n - 1),),
        )
        for inst in scenes[4:7]
    ]
    docs, _ = generate_dataset(default_document_spec(), 4, 1, seed=7)
    return [x for group in itertools.zip_longest(scenes, boxless, explicit, docs) for x in group if x]


def _array_bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes(), a.flags.writeable)


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("features", "boxes", "categories"):
            x, y = getattr(a.entities, field), getattr(b.entities, field)
            assert _array_bits(x) == _array_bits(y), field
        assert _array_bits(a.target) == _array_bits(b.target)
        assert (a.label, a.labeled, a.tokens, a.tags) == (b.label, b.labeled, b.tokens, b.tags)
        assert type(a.gt_relations) is tuple and a.gt_relations == b.gt_relations
        assert all(
            type(r) is tuple and tuple(map(type, r)) == (int, int)
            for r in a.gt_relations
        )
        assert_relation_array(a.relations)


def _same_shape_lines(tmp_path, count=6):
    """`count` lines of 6-entity scenes: one group of targets."""
    tr, _ = generate_dataset(tiny_world(entities_min=6, entities_max=6), count, 1, seed=3)
    p = tmp_path / "bad.jsonl"
    write_jsonl(p, tr)
    return tr, [json.loads(line) for line in p.read_text().splitlines()]


def _write_lines(path, lines):
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))


def _set_entry(field, index, value):
    """A fault: flat entry `index` of the line's encoded entities[field] becomes `value`."""

    def mutate(d):
        entry = d["entities"][field]
        values = np.frombuffer(base64.b64decode(entry["data"]), "<f8").copy()
        values[index] = value
        entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")

    return mutate


BOX_ORDER = "boxes must satisfy x1 < x2 and y1 < y2"

# a line fault that only the EntitySet and Instance checks find, and its message
CONSTRUCTOR_FAULTS = {
    "nan_feature": (_set_entry("features", 3, np.nan), "features contains non-finite entries"),
    "inf_feature": (_set_entry("features", 7, -np.inf), "features contains non-finite entries"),
    "inf_box": (_set_entry("boxes", 6, np.inf), "boxes contain non-finite coordinates"),
    "x1_not_below_x2": (_set_entry("boxes", 4, 99.0), BOX_ORDER),  # box 1's x1
    "y1_not_below_y2": (_set_entry("boxes", 3, 0.0), BOX_ORDER),  # box 0's y2 = its y1
    "boxes_shape": (
        lambda d: d["entities"]["boxes"].update(shape=[2 * d["entities"]["boxes"]["shape"][0], 2]),
        "boxes must be ({n}, 4), got (",
    ),
    "short_categories": (
        lambda d: d["entities"]["categories"].pop(),
        "categories length ({short},) does not match n={n}",
    ),
    "label_negative": (lambda d: d.update(label=-1), "label must be >= 0, got -1"),
}


def _fault(name, n=6):
    """(mutate, message) of CONSTRUCTOR_FAULTS[name] on a line with n entities."""
    mutate, message = CONSTRUCTOR_FAULTS[name]
    return mutate, message.format(n=n, short=n - 1)


class TestGroupedRead:
    def test_mixed_file_reads_bit_identically(self, tmp_path):
        instances = _mixed_instances()
        lines = [json.dumps(_instance_to_dict(inst)) for inst in instances]
        assert any('"gt_relations"' in line and '"version"' in line for line in lines)
        assert any('"gt_relations"' not in line for line in lines)
        p = tmp_path / "mixed.jsonl"
        p.write_text("\n".join(line + ("\n  " if k % 4 == 0 else "") for k, line in enumerate(lines)) + "\n\n")
        assert_bit_identical(read_jsonl(p), instances)

    @pytest.mark.parametrize("fault", sorted(CONSTRUCTOR_FAULTS))
    @pytest.mark.parametrize("swapped", [False, True], ids=["base64_later", "base64_first"])
    def test_first_bad_line_is_named(self, tmp_path, fault, swapped):
        """A constructor fault on line 2 and bad base64 on line 5, either way round."""
        _, lines = _same_shape_lines(tmp_path)
        mutate, constructor_message = _fault(fault)
        base64_message = "target: data is not base64"
        at_constructor, at_base64 = (4, 1) if swapped else (1, 4)
        mutate(lines[at_constructor])
        lines[at_base64]["target"]["data"] = "????"
        p = tmp_path / "bad.jsonl"
        _write_lines(p, lines)
        message = base64_message if swapped else constructor_message
        with pytest.raises(ValidationError, match=re.escape(f"bad.jsonl:2: {message}")):
            read_jsonl(p)

    @pytest.mark.parametrize("fault", sorted(CONSTRUCTOR_FAULTS))
    def test_constructor_fault_alone_in_a_group(self, tmp_path, fault):
        _, lines = _same_shape_lines(tmp_path)
        mutate, message = _fault(fault)
        mutate(lines[3])
        p = tmp_path / "bad.jsonl"
        _write_lines(p, lines)
        with pytest.raises(ValidationError, match=re.escape(f"bad.jsonl:4: {message}")):
            read_jsonl(p)

    @pytest.mark.parametrize("fault", sorted(CONSTRUCTOR_FAULTS))
    @pytest.mark.parametrize("at", [0, 2, 5], ids=["first", "middle", "last"])
    def test_constructor_fault_anywhere_in_a_group(self, tmp_path, fault, at):
        _, lines = _same_shape_lines(tmp_path)
        mutate, message = _fault(fault)
        mutate(lines[at])
        p = tmp_path / "bad.jsonl"
        _write_lines(p, lines)
        with pytest.raises(ValidationError, match=re.escape(f"bad.jsonl:{at + 1}: {message}")):
            read_jsonl(p)

    @pytest.mark.parametrize("fault", sorted(CONSTRUCTOR_FAULTS))
    @pytest.mark.parametrize(
        "faulty", [(1,), (4,), (1, 4), (3, 4)], ids=["5_only", "6_only", "5_first", "6_first"]
    )
    def test_constructor_fault_in_a_two_group_file(self, tmp_path, fault, faulty):
        """Six lines alternate between a 6- and a 5-entity group; the first
        faulty line of the file is named, whichever group it is in."""
        six, _ = generate_dataset(tiny_world(entities_min=6, entities_max=6), 3, 1, seed=3)
        five, _ = generate_dataset(tiny_world(entities_min=5, entities_max=5), 3, 1, seed=3)
        p = tmp_path / "bad.jsonl"
        write_jsonl(p, [x for pair in zip(six, five) for x in pair])
        lines = [json.loads(line) for line in p.read_text().splitlines()]
        first = min(faulty)
        mutate, message = _fault(fault, n=5 if first % 2 else 6)
        for k in faulty:
            mutate(lines[k])
        _write_lines(p, lines)
        with pytest.raises(ValidationError, match=re.escape(f"bad.jsonl:{first + 1}: {message}")):
            read_jsonl(p)

    def test_boxed_and_boxless_lines_share_a_group(self, tmp_path):
        want, lines = _same_shape_lines(tmp_path)
        for k in (1, 4):
            lines[k]["entities"]["boxes"] = None
            ent = want[k].entities
            want[k] = Instance(
                entities=EntitySet(features=ent.features, categories=ent.categories),
                target=want[k].target,
                label=want[k].label,
                relations=want[k].relations,
            )
        p = tmp_path / "bad.jsonl"
        _write_lines(p, lines)
        got = read_jsonl(p)
        assert [inst.entities.boxes is None for inst in got] == [False, True, False, False, True, False]
        assert_bit_identical(got, want)

    def test_all_zero_target_in_a_group_is_unlabeled(self, tmp_path):
        want, lines = _same_shape_lines(tmp_path)
        assert all(inst.labeled for inst in want[:3])
        entry = lines[2]["target"]
        entry["data"] = base64.b64encode(bytes(len(base64.b64decode(entry["data"])))).decode("ascii")
        p = tmp_path / "bad.jsonl"
        _write_lines(p, lines)
        got = read_jsonl(p)
        assert [inst.labeled for inst in got] == [True, True, False, *(i.labeled for i in want[3:])]
        assert not got[2].target.any() and got[2].gt_relations == ()

    def test_padding_bit_names_its_own_line(self, tmp_path):
        _, lines = _same_shape_lines(tmp_path)
        entry = lines[2]["target"]  # 6 entities: 15 pairs, the last byte's lowest bit is padding
        raw = bytearray(base64.b64decode(entry["data"]))
        raw[-1] |= 1
        entry["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        p = tmp_path / "bad.jsonl"
        _write_lines(p, lines)
        with pytest.raises(ValidationError, match=re.escape("bad.jsonl:3: target: padding bits")):
            read_jsonl(p)

    def test_feature_dims_and_boxes_may_differ_at_one_entity_count(self, tmp_path):
        """Lines with n entities are stacked by feature dim and boxes' shape too;
        a fault in one stack names its line."""
        six, _ = generate_dataset(tiny_world(entities_min=6, entities_max=6), 4, 1, seed=3)
        wide, _ = generate_dataset(
            tiny_world(entities_min=6, entities_max=6, prototypes=3.0 * np.eye(6, 9)), 3, 1, seed=4)
        want = [six[0], wide[0], six[1], wide[1], six[2], wide[2], six[3]]
        p = tmp_path / "dims.jsonl"
        write_jsonl(p, want)
        assert_bit_identical(read_jsonl(p), want)
        lines = [json.loads(line) for line in p.read_text().splitlines()]
        lines[3]["entities"]["boxes"] = None
        _set_entry("features", 3, np.nan)(lines[5])
        _write_lines(p, lines)
        with pytest.raises(ValidationError, match=re.escape("dims.jsonl:6: features contains non-finite")):
            read_jsonl(p)

    def test_instances_of_a_group_do_not_share_cells(self, tmp_path):
        want, _ = _same_shape_lines(tmp_path)
        got = read_jsonl(tmp_path / "bad.jsonl")
        got[0].entities.features[:] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            got[0].target[0, 1] = True
        got[0].entities.boxes[0, 0] = -5.0
        assert not np.array_equal(got[0].entities.features, want[0].entities.features)
        assert_bit_identical(got[1:], want[1:])


def _one_line_file(tmp_path, relations):
    """A one-instance 6-entity dataset file whose gt_relations are `relations`."""
    tr, _ = generate_dataset(tiny_world(entities_min=6, entities_max=6), 1, 1, seed=2)
    d = _instance_to_dict(tr[0])
    d["gt_relations"] = relations
    p = tmp_path / "one.jsonl"
    p.write_text(json.dumps(d) + "\n")
    return p


class TestPairValidation:
    @pytest.mark.parametrize(
        "entry",
        [[0], [0, 1.7], ["0", "1"], [False, True], [0, 1, 5]],
        ids=["short", "float", "string", "bool", "long"],
    )
    def test_malformed_gt_relation_entry(self, tmp_path, entry):
        p = _one_line_file(tmp_path, [[0, 1], entry])
        named = r"one\.jsonl:1: gt_relations: bad index pair " + re.escape(repr(entry))
        with pytest.raises(ValidationError, match=named):
            read_jsonl(p)

    @pytest.mark.parametrize("pair", [[0, 999], [-1, 3], [2, 2], [0, 2**70]])
    def test_gt_relation_outside_scene(self, tmp_path, pair):
        p = _one_line_file(tmp_path, [[0, 1], pair])
        named = r"one\.jsonl:1: gt_relations: bad index pair " + re.escape(repr(pair))
        with pytest.raises(ValidationError, match=named):
            read_jsonl(p)

    @pytest.mark.parametrize("value", [None, {"0": 1}, [0, 1]])
    def test_gt_relations_must_be_a_pair_list(self, tmp_path, value):
        with pytest.raises(ValidationError, match="gt_relations: bad index pair"):
            read_jsonl(_one_line_file(tmp_path, value))

    def test_out_of_range_gt_relation_names_pair(self, tmp_path):
        p = _one_line_file(tmp_path, [[0, 1], [5, 6]])
        named = r"gt_relations: bad index pair \[5, 6\], need two distinct integers in \[0, 6\)"
        with pytest.raises(ValidationError, match=named):
            read_jsonl(p)

    def test_valid_pairs_in_any_orientation(self, tmp_path):
        p = _one_line_file(tmp_path, [[5, 0], [1, 2], [2, 1]])
        (inst,) = read_jsonl(p)
        assert inst.gt_relations == ((5, 0), (1, 2), (2, 1))
        assert all(
            type(r) is tuple and tuple(map(type, r)) == (int, int) for r in inst.gt_relations
        )

    def test_empty_pair_lists(self, tmp_path):
        (inst,) = read_jsonl(_one_line_file(tmp_path, []))
        assert inst.labeled and inst.gt_relations == ()


# --- references: the pure-Python loops the array code replaced -----------------


def ref_affinity_target(categories, affine_pairs):
    affine = {frozenset(p) for p in affine_pairs}
    n = len(categories)
    t = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if frozenset((int(categories[i]), int(categories[j]))) in affine:
                t[i, j] = t[j, i] = 1.0
    return t


def ref_upper_pairs(t):
    n = t.shape[0]
    return [[i, j] for i in range(n) for j in range(i + 1, n) if t[i, j] == 1.0]


def ref_grid_boxes(n):
    cols = int(np.ceil(np.sqrt(n)))
    boxes = np.empty((n, 4))
    for i in range(n):
        r, c = divmod(i, cols)
        boxes[i] = (float(c), float(r), float(c + 1), float(r + 1))
    return boxes


class TestArrayKernelsMatchLoops:
    @pytest.mark.parametrize("n", [2, 7, 300])
    @pytest.mark.parametrize("seed", range(4))
    def test_affinity_target(self, n, seed):
        # categories 5..8 sit in no affine pair
        affine = ((0, 1), (2, 3), (1, 4), (3, 0))
        cats = np.random.default_rng(seed).integers(0, 9, size=n)
        got = _affinity_target(cats, _affinity_table(affine, 9))
        np.testing.assert_array_equal(got, ref_affinity_target(cats, affine))

    @pytest.mark.parametrize("cats", [[5, 6], [0, 1], [1, 0], [0, 0]])
    def test_affinity_target_two_entities(self, cats):
        affine = ((0, 1),)
        got = _affinity_target(np.array(cats), _affinity_table(affine, 7))
        np.testing.assert_array_equal(got, ref_affinity_target(cats, affine))

    @pytest.mark.parametrize("n", [2, 7, 300])
    @pytest.mark.parametrize("seed", range(4))
    def test_upper_pairs(self, n, seed):
        t = np.random.default_rng(seed).random((n, n)) < 0.5  # asymmetric
        got = _upper_pairs(t)
        assert_relation_array(got)
        assert got.tolist() == ref_upper_pairs(t)

    def test_upper_pairs_none(self):
        got = _upper_pairs(np.zeros((4, 4), dtype=bool))
        assert_relation_array(got)
        assert got.shape == (0, 2)

    @pytest.mark.parametrize("n", [1, 2, 7, 9, 300])
    def test_grid_boxes(self, n):
        got = _grid_boxes(n)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, ref_grid_boxes(n))

    def test_300_entity_roundtrip_is_exact(self, tmp_path):
        spec = default_world_spec().to_dict()
        spec["entities_min"] = spec["entities_max"] = 300
        (inst,), _ = generate_dataset(load_spec(spec), 1, 1, seed=4)
        assert len(inst.gt_relations) > 1000
        assert [list(r) for r in inst.gt_relations] == ref_upper_pairs(inst.target)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(p1, [inst])
        (back,) = read_jsonl(p1)
        np.testing.assert_array_equal(back.target, inst.target)
        np.testing.assert_array_equal(back.entities.features, inst.entities.features)
        np.testing.assert_array_equal(back.entities.boxes, inst.entities.boxes)
        np.testing.assert_array_equal(back.entities.categories, inst.entities.categories)
        assert back.gt_relations == inst.gt_relations and back.label == inst.label
        write_jsonl(p2, [back])
        assert p1.read_bytes() == p2.read_bytes()


def ref_unpack(line: dict):
    """A dataset line's target and relations, one matrix and one cell at a
    time: the packed bits fill the cells i < j row-major and mirror them, and
    omitted relations are the target's upper pairs. The target is in
    Instance.target's form, a read-only bool mask."""
    n = line["entities"]["features"]["shape"][0]
    bits = np.unpackbits(np.frombuffer(base64.b64decode(line["target"]["data"]), np.uint8))
    t = np.zeros((n, n), dtype=bool)
    cells = ((i, j) for i in range(n) for j in range(i + 1, n))
    for (i, j), bit in zip(cells, bits):
        t[i, j] = t[j, i] = bit
    t.flags.writeable = False
    return t, line.get("gt_relations", ref_upper_pairs(t))


def assert_read_matches_loop(path):
    instances = read_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(instances) == len(lines)
    for inst, line in zip(instances, lines):
        t, relations = ref_unpack(line)
        assert _array_bits(inst.target) == _array_bits(t)
        assert_relation_array(inst.relations)
        assert inst.relations.tolist() == relations
        assert inst.labeled == bool(t.any())


def assert_upper_entry(n, cells):
    """`_upper_cells(n)`'s entry: read-only (upper, position), where upper lists
    the flat indices of the cells i < j row-major and position inverts it,
    symmetric, with m on the diagonal."""
    upper, position = cells
    assert all(not a.flags.writeable for a in cells)
    want = np.flatnonzero(~np.tri(n, dtype=bool))
    assert upper.dtype == want.dtype and np.array_equal(upper, want)
    m = n * (n - 1) // 2
    assert position.shape == (n, n) and position.dtype == np.int32
    assert np.array_equal(position.ravel()[upper], np.arange(m))
    assert np.array_equal(position, position.T)
    assert np.array_equal(position.diagonal(), np.full(n, m))


class TestUpperCells:
    """`matrices._upper_cells` owns the order of the cells i < j that packed
    targets, top-K candidates and relation pairs share; reading gathers every
    group's targets through its position map."""

    @pytest.mark.parametrize("n", [1, 2, 7, 56, 300])
    def test_owner(self, n):
        cells = _upper_cells(n)
        assert_upper_entry(n, cells)
        assert all(a is b for a, b in zip(_upper_cells(n), cells))  # cached

    def test_cache_holds_at_most_its_cell_bound(self, monkeypatch):
        """Least recently used sizes go once the cached cells pass the bound;
        the latest size stays, even when it alone passes it."""
        monkeypatch.setattr(matrices, "_upper_cache", {})
        bound = matrices._UPPER_CELLS_BOUND
        held = {}
        for n in (300, 56, 400, 300, 200, 600, 8, 64):
            upper = _upper_cells(n)[0]
            cached = {m: cells[0].size for m, cells in matrices._upper_cache.items()}
            held[n] = list(cached)
            assert list(cached)[-1] == n and _upper_cells(n)[0] is upper
            assert sum(cached.values()) <= bound or list(cached) == [n]
            for m, cells in matrices._upper_cache.items():
                assert_upper_entry(m, cells)
        assert held[200] == [300, 200]  # 56 and 400 were used least recently
        assert held[600] == [600] and held[64] == [8, 64]  # 600 alone passes the bound

    def test_documents_of_more_sizes_than_the_cache_holds(self, tmp_path, monkeypatch):
        spec = default_document_spec().to_dict()
        spec["tokens_min"], spec["tokens_max"] = 2, 45
        tr, te = generate_dataset(load_spec(spec), 160, 1, seed=5)
        bound = 500
        sizes = {inst.n for inst in tr}
        assert sum(n * (n - 1) // 2 for n in sizes) > bound
        monkeypatch.setattr(matrices, "_UPPER_CELLS_BOUND", bound)
        monkeypatch.setattr(matrices, "_upper_cache", {})
        p = tmp_path / "docs.jsonl"
        write_jsonl(p, tr + te)
        assert_read_matches_loop(p)
        cached = [cells[0].size for cells in matrices._upper_cache.values()]
        assert sum(cached) <= bound or len(cached) == 1

    @pytest.mark.parametrize("omit", ["none", "half"])
    def test_scenes_that_list_their_relations(self, tmp_path, omit):
        """Every line of a group explicit (the groups that once took a
        per-matrix loop), or explicit and omitted lines mixed in one group."""
        scenes, _ = generate_dataset(tiny_world(entities_min=6, entities_max=6), 10, 1, seed=9)
        explicit = [
            dataclasses.replace(inst, relations=((inst.n - 1, k % 5),))
            if omit == "none" or k % 2 else inst
            for k, inst in enumerate(scenes)
        ]
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, explicit)
        written = [json.loads(line) for line in p.read_text().splitlines()]
        assert sum("gt_relations" in line for line in written) == (10 if omit == "none" else 5)
        assert_read_matches_loop(p)

    def test_cache_holds_every_workload_s_sizes(self, monkeypatch):
        """A read cycling through more sizes than the cache holds misses on
        every lookup: the bound covers the cells of every entity count any
        benchmark workload's datasets span."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
        bundled = {"vision": default_world_spec().to_dict(), "document": default_document_spec().to_dict()}
        spans = {}
        for w in module.WORKLOADS.values():
            world = {**bundled[w.kind], **w.spec_overrides}
            count = "entities" if w.kind == "vision" else "tokens"
            sizes = range(world[f"{count}_min"], world[f"{count}_max"] + 1)
            spans[w.name] = sum(n * (n - 1) // 2 for n in sizes)
        assert matrices._UPPER_CELLS_BOUND >= max(spans.values())


class TestGatheredRead:
    """The reader unpacks one bit past each line's m cells and gathers its
    target through `_upper_cells`' position map, that bit on the diagonal:
    at every n the targets and relations are the generator's, bit for bit."""

    def test_single_entity_lines(self, tmp_path):
        """n = 1 packs no cell (m = 0): numpy leaves the padded bit of an
        empty unpack uninitialized, so the reader zeroes it."""
        rng = np.random.default_rng(0)
        want = [Instance(EntitySet(rng.normal(size=(1, 3))), np.zeros((1, 1)), k % 2) for k in range(5)]
        p = tmp_path / "single.jsonl"
        write_jsonl(p, want)
        assert_bit_identical(read_jsonl(p), want)
        assert_read_matches_loop(p)

    @pytest.mark.parametrize("n", [2, 7, 16])  # m = 1 and 21 pad their last byte; m = 120 fills it
    def test_scenes_of_each_padding(self, tmp_path, n):
        want, _ = generate_dataset(tiny_world(entities_min=n, entities_max=n), 12, 1, seed=4)
        assert any(inst.labeled for inst in want) and not all(inst.labeled for inst in want)
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, want)
        assert_bit_identical(read_jsonl(p), want)
        assert_read_matches_loop(p)

    def test_four_scenes_of_300_entities(self, tmp_path):
        """The group of scene-large's test split: 4 lines of 300 entities."""
        spec = default_world_spec().to_dict()
        spec["entities_min"] = spec["entities_max"] = 300
        _, want = generate_dataset(load_spec(spec), 1, 4, seed=0)
        p = tmp_path / "test.jsonl"
        write_jsonl(p, want)
        assert_bit_identical(read_jsonl(p), want)
        assert_read_matches_loop(p)


def _traced_peak(call) -> int:
    """Bytes above the start that `call()` holds at its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestGatherMemory:
    """At n = 300 the gather form holds no more at its peak than the scatter
    form before it did on the same calls: 883 KiB to build the cache entry,
    1,099 KiB to read one scene, and for top_k_pairs the (n² + m) float64 of
    the stronger orientations and their gathered cells, plus 3.7 KiB of
    bookkeeping (4 KiB allowed). A copied or widened n x n or m-long index
    array on top would add 0.35-0.7 MB."""

    n = 300

    def test_cache_entry_build(self, monkeypatch):
        monkeypatch.setattr(matrices, "_upper_cache", {})
        assert _traced_peak(lambda: _upper_cells(self.n)) <= 883 * 1024

    def test_one_scene_read(self, tmp_path):
        spec = default_world_spec().to_dict()
        spec["entities_min"] = spec["entities_max"] = self.n
        _, scenes = generate_dataset(load_spec(spec), 1, 4, seed=3)
        p = tmp_path / "one.jsonl"
        write_jsonl(p, scenes[:1])
        read_jsonl(p)  # the cache entry is built outside the measurement
        assert _traced_peak(lambda: read_jsonl(p)) <= 1099 * 1024

    def test_top_k_pairs(self):
        n, m = self.n, self.n * (self.n - 1) // 2
        w = np.random.default_rng(0).random((n, n))
        top_k_pairs(w, 100)
        assert _traced_peak(lambda: top_k_pairs(w, 100)) <= (n * n + m) * 8 + 4096


class TestMaskMemory:
    """Targets stay one-byte bool masks from the file to the loss. Under
    tracemalloc (x86-64, numpy 2.4), reading 16 scenes of 300 entities, whose
    masks take 1.44 MB, held 3.39 MB and peaked at 6.37 MB; with float64
    targets (11.5 MB) the same read held 13.47 MB and peaked at 16.46 MB.
    Checking a bool stack allocated ~6 KB, against a float64 copy of it before."""

    def test_read_of_16_scenes_of_300_entities(self, tmp_path):
        spec = default_world_spec().to_dict()
        spec["entities_min"] = spec["entities_max"] = 300
        scenes, _ = generate_dataset(load_spec(spec), 16, 1, seed=0)
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, scenes)  # builds the n = 300 cache entry outside the measurement
        del scenes
        tracemalloc.start()
        try:
            got = read_jsonl(p)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 5_000_000, held
        assert peak <= 9_000_000, peak
        assert len(got) == 16 and all(inst.target.dtype == bool for inst in got)

    def test_validate_target_copies_no_bool_stack(self):
        stack = np.zeros((16, 300, 300), dtype=bool)
        stack[:, 0, 1] = stack[:, 1, 0] = True
        peak = _traced_peak(lambda: validate_target(stack))
        assert peak < stack.size * 8, peak  # under one float64 copy of the stack
        assert peak < stack.nbytes // 100, peak


def _mask_form(t):
    """What a target is: its dtype, shape, writability, contiguity and bytes."""
    return t.dtype, t.shape, t.flags.writeable, t.flags.c_contiguous, t.tobytes()


def _no_group_checks(*args):
    raise ValidationError("every line goes through the checked constructors")


class TestTargetForm:
    """Every producer of a target gives one form, a read-only C-contiguous
    bool (n, n) mask, and the same bits for the same target: both generators,
    the grouped read and its per-line checked fallback, the Instance
    constructor given float, int or bool targets, and both target builders."""

    @pytest.mark.parametrize("kind", ["vision", "document"])
    def test_generated_read_and_rebuilt(self, tmp_path, monkeypatch, kind):
        spec = default_world_spec() if kind == "vision" else default_document_spec()
        draw = generate_instance if kind == "vision" else generate_document_instance
        train, test = generate_dataset(spec, 12, 1, seed=5)
        assert _mask_form(draw(spec, instance_seed(5, 1, 0)).target) == _mask_form(test[0].target)
        p = tmp_path / "data.jsonl"
        write_jsonl(p, train)
        grouped = read_jsonl(p)
        monkeypatch.setattr("fanet.synthgen._check_group", _no_group_checks)
        checked = read_jsonl(p)
        for inst, a, b in zip(train, grouped, checked, strict=True):
            want = _mask_form(inst.target)
            assert want[:4] == (np.dtype(bool), (inst.n, inst.n), False, True)
            assert _mask_form(a.target) == _mask_form(b.target) == want
            for dtype in (np.float64, np.int64, bool):
                rebuilt = Instance(inst.entities, inst.target.astype(dtype), inst.label,
                                   inst.relations, inst.tokens, inst.tags)
                assert _mask_form(rebuilt.target) == want, dtype
            if kind == "document":
                assert build_language_target(inst.tags, spec.table).tobytes() == want[-1]

    def test_builders(self):
        boxes = _grid_boxes(4)
        vision = build_vision_target(EntitySet(np.zeros((4, 2)), boxes=boxes), boxes[[0, 1, 3]], [0, 1, 1])
        language = build_language_target(("noun", "verb", "noun", "adverb"), LexicalPairTable.default())
        for t in (vision, language):
            assert t.dtype == bool and t.shape == (4, 4) and t.any()
            forms = {
                _mask_form(Instance(EntitySet(np.zeros((4, 2))), t.astype(dtype), 0).target)
                for dtype in (np.float64, np.int64, bool)
            }
            assert len(forms) == 1 and forms.pop()[-1] == t.tobytes()


REQUIRED_KEYS = {
    "vision": ("prototypes", "affine_pairs", "signature_pairs"),
    "document": ("tokens", "tags", "embeddings", "pair_table", "keyword_pairs"),
}
BOTH_WORLDS = {"vision": default_world_spec, "document": default_document_spec}


class TestSpecSerialization:
    def test_load_spec_dispatch(self):
        # only the required keys: every optional field takes its dataclass default
        for kind, cls, defaults in (
            ("vision", WorldSpec, dict(noise_sigma=0.25, entities_min=6, entities_max=8)),
            ("document", DocumentSpec, dict(noise_sigma=0.1, tokens_min=6, tokens_max=9)),
        ):
            full = BOTH_WORLDS[kind]().to_dict()
            spec = load_spec({"kind": kind, **{k: full[k] for k in REQUIRED_KEYS[kind]}})
            assert type(spec) is cls
            assert {k: getattr(spec, k) for k in defaults} == defaults
            assert spec.to_dict() == {**full, **defaults}

    @pytest.mark.parametrize(
        "kind,key", [(kind, key) for kind, keys in REQUIRED_KEYS.items() for key in keys]
    )
    def test_from_dict_rejects_missing_field(self, kind, key):
        d = BOTH_WORLDS[kind]().to_dict()
        del d[key]
        cls = WorldSpec if kind == "vision" else DocumentSpec
        with pytest.raises(ValidationError, match=f"^{key}: missing required field$"):
            cls.from_dict(d)

    @pytest.mark.parametrize("kind", ["vision", "document"])
    @pytest.mark.parametrize("which", ["max", "both"])
    def test_item_count_bound(self, kind, which):
        count = "entities" if kind == "vision" else "tokens"
        d = BOTH_WORLDS[kind]().to_dict()
        for value in (MAX_ITEMS, MAX_ITEMS + 1, 10**30):
            d[f"{count}_max"] = value
            if which == "both":
                d[f"{count}_min"] = value
            if value == MAX_ITEMS:
                assert load_spec(d).n_labels == 3  # loads; not generated
                continue
            named = f"^{count}_max: expected at most {MAX_ITEMS}, got {value}$"
            with pytest.raises(ValidationError, match=named):
                load_spec(d)

    @pytest.mark.parametrize(
        "spec,key,value,want",
        [(default_world_spec, "entities_min", 6.7, "an integer"),
         (default_world_spec, "entities_max", True, "an integer"),
         (default_world_spec, "entities_min", "6", "an integer"),
         (default_world_spec, "noise_sigma", True, "a real number"),
         (default_world_spec, "noise_sigma", "0.25", "a real number"),
         (default_world_spec, "noise_sigma", None, "a real number"),
         (default_document_spec, "tokens_min", 6.0, "an integer"),
         (default_document_spec, "tokens_max", False, "an integer"),
         (default_document_spec, "noise_sigma", True, "a real number"),
         (default_document_spec, "noise_sigma", [0.1], "a real number")],
    )
    def test_rejects_mistyped_number(self, spec, key, value, want):
        d = spec().to_dict()
        d[key] = value
        with pytest.raises(ValidationError, match=rf"^{key}: expected {want}, got "):
            load_spec(d)

    @pytest.mark.parametrize(
        "spec,key,value,message",
        [(default_world_spec, "prototypes", [[1.0, 0.0], [True, 1.0]], "expected a real number, got True"),
         (default_document_spec, "embeddings", [[0.5, False]], "expected a real number, got False"),
         (default_world_spec, "prototypes", [[10**400]], "not a numeric matrix (int too large"),
         (default_document_spec, "pair_table", [["noun", "verb"], "ab"], "expected tag pairs, got 'ab'"),
         (default_document_spec, "pair_table", [{"noun": "verb"}], "expected tag pairs, got {'noun'"),
         (default_document_spec, "pair_table", [["noun", 2]], "expected tag pairs, got ['noun', 2]"),
         (default_document_spec, "pair_table", {"noun": "verb"}, "expected a list of tag pairs")],
        ids=["bool_prototype", "bool_embedding", "huge_prototype", "string_pair", "dict_pair",
             "int_tag", "pairs_not_a_list"],
    )
    def test_rejects_mistyped_entry(self, spec, key, value, message):
        d = spec().to_dict()
        d[key] = value
        with pytest.raises(ValidationError, match=re.escape(f"{key}: {message}")):
            load_spec(d)

    @pytest.mark.parametrize("key", ["tokens", "tags"])
    @pytest.mark.parametrize(
        "change,got",
        [(lambda v: list(range(len(v))), "entry 0"), (lambda v: v[:-1] + [1.5], "entry 1.5"),
         (lambda v: v[:-1] + [None], "entry None"), (lambda v: "".join(v), "'"),
         (lambda v: 7, "7")],
        ids=["ints", "float", "null", "string", "number"],
    )
    def test_document_spec_rejects_non_string_tokens_and_tags(self, key, change, got):
        d = default_document_spec().to_dict()
        d[key] = change(d[key])
        named = re.escape(f"{key}: expected a list of strings, got {got}")
        with pytest.raises(ValidationError, match=named):
            load_spec(d)

    def test_load_spec_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="got 'audio'"):
            load_spec({"kind": "audio"})
        # each spec class rejects the other's kind; a dict without one is "vision"
        vision, document = default_world_spec().to_dict(), default_document_spec().to_dict()
        with pytest.raises(ValidationError, match="^kind: expected 'vision', got 'document'$"):
            WorldSpec.from_dict(document)
        with pytest.raises(ValidationError, match="^kind: expected 'document', got 'vision'$"):
            DocumentSpec.from_dict(vision)
        del vision["kind"]
        assert type(WorldSpec.from_dict(vision)) is WorldSpec
        with pytest.raises(ValidationError, match="^kind: expected 'document', got 'vision'$"):
            DocumentSpec.from_dict(vision)

    def test_document_spec_roundtrip_generates_identically(self):
        spec = default_document_spec()
        again = load_spec(json.loads(json.dumps(spec.to_dict())))
        a = generate_document_instance(spec, seed=5)
        b = generate_document_instance(again, seed=5)
        np.testing.assert_array_equal(a.entities.features, b.entities.features)


BAD_TARGETS = [
    ([[0.0, 0.5], [0.5, 0.0]], "exactly 0 or 1"),
    ([[0.0, 2.0], [2.0, 0.0]], "exactly 0 or 1"),
    ([[0.0, -1.0], [-1.0, 0.0]], "exactly 0 or 1"),
    ([[1.0, 0.0], [0.0, 0.0]], "diagonal must be zero"),
    ([[0.0, 1.0], [1.0, 1.0]], "diagonal must be zero"),
    ([[0.0, float("nan")], [0.0, 0.0]], "non-finite"),
]


class TestInstanceValidation:
    def test_target_shape_checked(self):
        from fanet.attention import EntitySet

        ents = EntitySet(features=np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            Instance(entities=ents, target=np.zeros((2, 2)), label=0)

    @pytest.mark.parametrize("target,message", BAD_TARGETS)
    def test_target_checked_once_at_entry(self, target, message):
        from fanet.attention import EntitySet

        ents = EntitySet(features=np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=message):
            Instance(entities=ents, target=target, label=0)

    @pytest.mark.parametrize("target,message", BAD_TARGETS)
    @pytest.mark.parametrize("at", [0, 2])
    def test_a_stack_is_rejected_as_its_bad_matrix(self, target, message, at):
        """validate_target on a (B, n, n) stack rejects what it rejects per matrix."""
        with pytest.raises(ValidationError, match=message) as alone:
            validate_target(target)
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = stack[1, 1, 0] = 1.0
        stack[at] = target
        with pytest.raises(ValidationError) as stacked:
            validate_target(stack)
        assert str(stacked.value) == str(alone.value)

    def test_stack_shapes(self):
        stack = np.zeros((2, 3, 3))
        stack[1, 0, 2] = stack[1, 2, 0] = 1.0
        stack[0, 1, 1] = -0.0
        mask = validate_target(stack)
        assert mask.dtype == bool and mask.tolist() == (stack == 1.0).tolist()
        checked = validate_target(mask)  # a mask is checked in place, not copied
        assert np.shares_memory(checked, mask) and not checked.flags.writeable
        with pytest.raises(ValidationError, match="must be square"):
            validate_target(np.zeros((2, 3, 4)))
        with pytest.raises(ValidationError, match="at least one row"):
            validate_target(np.zeros((0, 3, 3)))

    def test_negative_zero_is_an_unlabeled_zero(self):
        from fanet.attention import EntitySet

        t = np.zeros((2, 2))
        t[0, 1] = -0.0
        inst = Instance(entities=EntitySet(features=np.zeros((2, 2))), target=t, label=0)
        assert not inst.labeled

    def test_labeled_records_any_pair(self):
        from fanet.attention import EntitySet

        ents = EntitySet(features=np.zeros((3, 2)))
        assert not Instance(entities=ents, target=np.zeros((3, 3)), label=0).labeled
        t = np.zeros((3, 3))
        t[0, 2] = t[2, 0] = 1.0
        assert Instance(entities=ents, target=t, label=0).labeled

    def test_label_checked(self):
        from fanet.attention import EntitySet

        ents = EntitySet(features=np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            Instance(entities=ents, target=np.zeros((2, 2)), label=-1)

    @pytest.mark.parametrize(
        "relations",
        [((0, 999),), ((-1, 3),), ((2, 2),), ((0, 1), (1, 4)), ((0, 1.0),), ((True, 1),), ((0, 1, 2),)],
        ids=["beyond", "negative", "self", "index-n", "float", "bool", "triple"],
    )
    def test_relations_checked_at_entry(self, relations):
        """Relations follow the reader's rule: two distinct ints in [0, n).
        Positional, as Instance has always been built."""
        with pytest.raises(ValidationError, match=r"^relations: bad index pair .* in \[0, 4\)$"):
            Instance(EntitySet(features=np.zeros((4, 2))), np.zeros((4, 4)), 0, relations)


class TestRelationsView:
    """Instance.relations is a read-only (m, 2) int64 array. gt_relations
    rebuilds from it, on each read, a tuple of (int, int) tuples in its order."""

    @staticmethod
    def assert_view(inst, want):
        assert_relation_array(inst.relations)
        assert type(inst.gt_relations) is tuple and inst.gt_relations == want
        assert all(type(p) is tuple and tuple(map(type, p)) == (int, int) for p in inst.gt_relations)

    def test_generated_and_read(self, tmp_path):
        scenes, _ = generate_dataset(tiny_world(), 8, 1, seed=4)
        docs, _ = generate_dataset(default_document_spec(), 2, 1, seed=4)
        explicit = dataclasses.replace(scenes[0], relations=((3, 1), (0, 2), (3, 1)))
        p = tmp_path / "a.jsonl"
        write_jsonl(p, scenes + docs + [explicit])
        for inst in scenes + docs + read_jsonl(p)[:-1]:
            want = () if inst.tokens else tuple(map(tuple, ref_upper_pairs(inst.target)))
            self.assert_view(inst, want)
        self.assert_view(read_jsonl(p)[-1], ((1, 3), (0, 2), (1, 3)))  # written sorted per pair
        self.assert_view(explicit, ((3, 1), (0, 2), (3, 1)))

    @pytest.mark.parametrize("form", [tuple, list, np.array])
    def test_hand_built(self, form):
        given = ((2, 0), (1, 3), (2, 0))
        raw = form([form(p) for p in given]) if form is not np.array else np.array(given)
        inst = Instance(EntitySet(features=np.eye(4)), np.zeros((4, 4)), 0, raw)
        self.assert_view(inst, given)
        if form is np.array:
            assert raw.flags.writeable and not np.shares_memory(raw, inst.relations)
        self.assert_view(Instance(EntitySet(features=np.eye(4)), np.zeros((4, 4)), 0), ())

    def test_array_and_view_are_read_only(self):
        inst = generate_instance(tiny_world(), 3)
        with pytest.raises(ValueError, match="read-only"):
            inst.relations[0, 0] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.relations = np.zeros((0, 2), dtype=np.int64)
        with pytest.raises(AttributeError):
            inst.gt_relations = ()
