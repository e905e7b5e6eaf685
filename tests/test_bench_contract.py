"""The traced benchmark's probes (`benchmarks/worker.py`'s PROBES) on real calls.

The probes read the arguments and results of `losses.relation_loss` and
`trainer.evaluate` by position and attribute, so a change to either that
would break a traced benchmark run fails here first. A toy-sized traced run
of each workload runs every other check of the worker. The worker is loaded
read-only, with `benchmarks/` on `sys.path` only while it loads; its tracer
wraps the package as in a traced run, and every wrapped name is restored
afterwards.
"""

import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import fanet
from fanet import losses, synthgen, trainer
from fanet.losses import FocusLossConfig
from fanet.matrices import softmax_matrix

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(BENCHMARKS))
    imported = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", BENCHMARKS / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
        for name in set(sys.modules) - imported:  # its `tracer` and `workloads`
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCHMARKS:
                del sys.modules[name]
    return module


@pytest.fixture
def tracer(worker):
    """A tracer installed with the worker's probes, uninstalled afterwards."""
    modules = [fanet, *(importlib.import_module(f"fanet.{m.name}")
                        for m in pkgutil.iter_modules(fanet.__path__))]
    saved = [(module, dict(vars(module))) for module in modules]
    t = worker.Tracer()
    worker.install(t, fanet, worker.PROBES)
    yield t
    for module, names in saved:
        for name, value in names.items():
            setattr(module, name, value)


@pytest.fixture(scope="module")
def world():
    spec = synthgen.default_world_spec()
    return synthgen.generate_dataset(spec, 12, 8, seed=5)


def test_probes_name_traced_functions(worker, tracer):
    assert set(worker.PROBES) <= set(tracer.stats)


@pytest.mark.parametrize("strategy", ["mat_focal", "row"])
def test_supervised_relation_loss_is_counted(tracer, world, strategy):
    train_set, test_set = world
    config = trainer.TrainConfig(epochs=1, strategy=strategy, seed=0)
    trainer.train(train_set, test_set, config)
    labeled = sum(inst.labeled for inst in train_set)
    assert tracer.stats["losses.relation_loss"].calls == labeled
    assert tracer.counters["supervised"] == labeled
    assert tracer.counters.get("eps_clamped", 0.0) == 0.0


def test_underflowed_mass_is_counted_below_eps(tracer):
    logits = np.zeros((7, 7))
    logits[0, 2] = 800.0
    target = np.zeros((7, 7))
    target[0, 1] = target[1, 0] = 1.0
    # the trainer's call: softmax, target and config by position
    loss, m, _ = losses.relation_loss(softmax_matrix(logits), target, FocusLossConfig(), logits)
    assert m == 0.0 and np.isfinite(loss)
    assert tracer.counters["supervised"] == tracer.counters["eps_clamped"] == 1.0


def test_evaluate_on_read_instances(tracer, world, tmp_path):
    train_set, test_set = world
    path = tmp_path / "test.jsonl"
    synthgen.write_jsonl(path, test_set)
    instances = synthgen.read_jsonl(path)
    config = trainer.TrainConfig(seed=0)
    spec = synthgen.default_world_spec()
    params = trainer.init_model(spec.embed_dim, spec.n_labels, config)
    trainer.evaluate(instances, params, config)
    assert tracer.stats["trainer.evaluate"].calls == 1
    want = sum(1 for inst in test_set if len(inst.gt_relations))
    assert tracer.counters["gt_instances"] == want > 0


# each workload at toy size: one set-up, one epoch, one quality run where the
# workload has them, and one `fanet eval` per operation
TOY_SIZES = {
    "scene-small": dict(n_train=20, n_test=10, epochs=1, quality_epochs=1, quality_runs=1, eval_reps=1),
    "scene-large": dict(n_train=1, n_test=2, checkpoint_epochs=1),
    "doc-medium": dict(n_train=12, n_test=6, epochs=1, quality_epochs=1, quality_runs=1, eval_reps=1),
}


@pytest.mark.parametrize("name", sorted(TOY_SIZES))
def test_toy_traced_run_passes_every_check(worker, tracer, tmp_path, name):
    """A traced benchmark run of each workload, shrunk: its coverage rules,
    the self-time sum, byte-identity and finiteness checks all pass."""
    workload = dataclasses.replace(worker.WORKLOADS[name], setup_reps=1, **TOY_SIZES[name])
    result = worker.Run(workload, 3, 0.0, tmp_path, tracer).execute()
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0 and result["operations"] == worker.MIN_OPS
