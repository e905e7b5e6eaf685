"""Metamorphic checks: reordering what should not matter changes no result.

Self-attention is permutation-equivariant, so renumbering the entities of
every instance, together with everything that refers to them, leaves each
instance's recall and center-mass unchanged. `fanet eval` scores each
instance on its own, so reversing a dataset file permutes the rows of its
metrics.csv and leaves the summary numbers unchanged. Both checks go
through the dataset files, so the writer, the reader, the orientation of
the target, top-K and the matching are all on the path.

The worlds add Gaussian noise to the features, so no two candidate pairs
tie exactly, and recall, a count, must match exactly. Float sums run in
another order after a reordering. RTOL was set from the largest relative
difference measured over seeds 100-119, which these tests do not use:
6.0e-16 for an instance's center-mass and 7.6e-16 for a summary mean.
RTOL leaves about 13 times that.

Every parameter is shared by all entities, so an instance's gradient does
not depend on the order of its entities either. GRAD_RTOL bounds the largest
entry of the difference over the largest entry of the gradient. Over seeds
100-119 (10 instances each, every strategy and head mode) that ratio was at
most 2.2e-15; GRAD_RTOL leaves about 14 times that.
"""

import csv
import dataclasses
import json

import numpy as np
import pytest

from fanet.attention import EntitySet
from fanet.cli import EXIT_OK, main
from fanet.synthgen import Instance, default_world_spec, generate_dataset, read_jsonl, write_jsonl
from fanet.trainer import (
    HEAD_MODES,
    STRATEGIES,
    TrainConfig,
    _accumulate_instance,
    evaluate,
    init_model,
    save_checkpoint,
)

RTOL = 1e-14
GRAD_RTOL = 3e-14

# world -> (spec, test instances, recall cutoffs). An untrained model ranks the
# 300-entity scenes' gt relations low, so their recall moves only at large K.
WORLDS = {
    "n6_8": (default_world_spec, 100, (1, 5, 10)),
    "n300": (lambda: dataclasses.replace(default_world_spec(), entities_min=300, entities_max=300),
             2, (100, 20000, 25000, 30000, 40000)),
}


def permuted(inst: Instance, perm: np.ndarray) -> Instance:
    """inst with its entity perm[p] as entity p, and every entity index renumbered.

    The relations are listed as the target's upper pairs in row-major order,
    as generated ones are, so both files take the same path through the
    writer and the reader.
    """
    new_index = np.argsort(perm)
    e = inst.entities
    relations = sorted(tuple(sorted((int(new_index[a]), int(new_index[b]))))
                       for a, b in inst.gt_relations)
    return Instance(
        entities=EntitySet(features=e.features[perm], categories=e.categories[perm],
                           boxes=e.boxes[perm]),
        target=inst.target[np.ix_(perm, perm)],
        label=inst.label,
        relations=tuple(relations),
    )


def model(spec, test, ks, seed):
    config = TrainConfig(seed=seed, eval_ks=ks)
    return init_model(test[0].entities.d, spec.n_labels, config), config


def entity_order_results(tmp_path, world, seed):
    """evaluate's results on a world's test split and on its entity-permuted copy,
    each written and read back."""
    make_spec, n_test, ks = WORLDS[world]
    spec = make_spec()
    _, test = generate_dataset(spec, 1, n_test, seed)
    rng = np.random.default_rng(seed)
    write_jsonl(tmp_path / "given.jsonl", test)
    write_jsonl(tmp_path / "permuted.jsonl", [permuted(i, rng.permutation(i.n)) for i in test])
    assert (tmp_path / "given.jsonl").read_bytes() != (tmp_path / "permuted.jsonl").read_bytes()
    params, config = model(spec, test, ks, seed)
    return [evaluate(read_jsonl(tmp_path / name), params, config)
            for name in ("given.jsonl", "permuted.jsonl")]


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_entity_order(tmp_path, world):
    given, moved = entity_order_results(tmp_path, world, seed=0)
    ks = WORLDS[world][2]
    assert any(0 < scores[k] < 1 for scores in given.recalls for k in ks)  # recall is not trivial
    assert moved.recalls == given.recalls
    assert moved.n_recall_vacuous == given.n_recall_vacuous
    assert moved.accuracy == given.accuracy
    # NaN, for an instance whose target labels nothing, on both sides
    np.testing.assert_allclose(moved.masses, given.masses, rtol=RTOL, atol=0)
    assert moved.center_mass.n_scored == given.center_mass.n_scored > 0
    assert moved.center_mass.mean_m == pytest.approx(given.center_mass.mean_m, rel=RTOL, abs=0)


def _rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def instance_order_outputs(tmp_path, seed):
    """(summary.json, metrics.csv rows) of `fanet eval` on a test file and on
    the file with its lines reversed."""
    spec = default_world_spec()
    _, test = generate_dataset(spec, 1, 100, seed)
    params, config = model(spec, test, (1, 5, 10), seed)
    save_checkpoint(tmp_path / "checkpoint.json", params, config)
    write_jsonl(tmp_path / "given.jsonl", test)
    lines = (tmp_path / "given.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "reversed.jsonl").write_text("".join(reversed(lines)))
    outputs = []
    for name in ("given", "reversed"):
        out = tmp_path / name
        argv = ["eval", "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--data", str(tmp_path / f"{name}.jsonl"), "--out", str(out)]
        assert main(argv) == EXIT_OK
        outputs.append((json.loads((out / "summary.json").read_text()), _rows(out / "metrics.csv")))
    return outputs


def test_instance_order(tmp_path):
    (given, given_rows), (moved, moved_rows) = instance_order_outputs(tmp_path, seed=0)
    for key in ("n_instances", "accuracy", "n_recall_vacuous", "ks", "config"):
        assert moved[key] == given[key], key
    for key in ("n_scored", "n_vacuous"):
        assert moved["center_mass"][key] == given["center_mass"][key], key
    assert moved["center_mass"]["mean"] == pytest.approx(given["center_mass"]["mean"], rel=RTOL, abs=0)
    assert moved["recall"].keys() == given["recall"].keys()
    for name, value in given["recall"].items():
        assert moved["recall"][name] == pytest.approx(value, rel=RTOL, abs=0), name

    # reversed instance i is given instance n - 1 - i; each instance's rows stay in k order
    n = given["n_instances"]
    header, *rows = moved_rows
    renumbered = sorted(([str(n - 1 - int(row[0])), *row[1:]] for row in rows),
                        key=lambda row: int(row[0]))
    assert [header, *renumbered] == given_rows
    assert len(given_rows) == 1 + n * len(given["ks"])


@pytest.mark.parametrize("head_mode", HEAD_MODES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_gradient_under_entity_order(strategy, head_mode):
    spec = default_world_spec()
    train_set, _ = generate_dataset(spec, 10, 1, 0)
    rng = np.random.default_rng(0)
    config = TrainConfig(seed=0, strategy=strategy, head_mode=head_mode)
    params = init_model(train_set[0].entities.d, spec.n_labels, config)
    assert sum(inst.labeled for inst in train_set) >= 5  # the relation term is on the path
    for inst in train_set:
        grads = []
        for x in (inst, permuted(inst, rng.permutation(inst.n))):
            flat = np.zeros_like(params.flat)
            _accumulate_instance(x, params, config, params.views(flat), 1.0, 1.0)
            grads.append(params.views(flat))
        given, moved = grads
        for name, g in given.items():
            assert np.abs(g).max() > 0, name
            assert np.abs(moved[name] - g).max() <= GRAD_RTOL * np.abs(g).max(), name
