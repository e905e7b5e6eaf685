"""The benchmark's workloads: what each generates, trains and evaluates, and why.

Every workload drives the `fanet` command in-process through `fanet.cli.main`.
`--seed` draws the datasets; the training seed is part of each recipe and
fixed at 0, so that runs on different datasets start from the same model.
This module imports neither numpy nor fanet, so the launcher can read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                   # bundled world: "vision" or "document"
    n_train: int
    n_test: int
    spec_overrides: dict = field(default_factory=dict)  # empty: bundled spec
    recipe: tuple = ()          # `fanet train` flags besides --epochs and --seed
    epochs: int = 0             # epochs per timed `fanet train`; 0 means eval-only
    quality_epochs: int = 0     # epochs of the runs that give center_mass_test
    quality_runs: int = 0       # datasets those runs train on; their mean is reported
    eval_reps: int = 1          # `fanet eval` runs per operation
    eval_per_instance: bool = False  # evaluate each test instance as its own file
    checkpoint_epochs: int = 0  # set-up training run that makes the eval checkpoint
    setup_reps: int = 3         # set-ups per run; setup_s is their median
    exercised: tuple = ()       # end-to-end metrics the operations measure
    coverage: tuple = ()        # (per-layer metric, "active" | "idle") in traced runs

    def train_flags(self, epochs: int = 0) -> tuple:
        return (*self.recipe, "--epochs", str(epochs or self.epochs), "--seed", str(TRAIN_SEED))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scene-small",
            why=(
                "the paper's default recipe on the README-sized vision world; time "
                "goes to per-call Python overhead, and evaluation is half of each epoch"
            ),
            kind="vision",
            n_train=200,
            n_test=100,
            epochs=3,
            quality_epochs=20,
            quality_runs=4,
            eval_reps=5,
            exercised=("setup_s", "train_epoch_s", "eval_inst_per_s", "center_mass_test", "peak_rss_mb"),
            coverage=(
                ("attention.backward.calls", "active"),
                ("losses.validate_target.calls", "active"),
                ("supervision.entity_gt_matching.calls", "active"),
                ("metrics.top_k_pairs.calls", "active"),
                ("trainer.evaluate.calls", "active"),
                ("synthgen.read_jsonl.calls", "active"),
            ),
        ),
        Workload(
            name="scene-large",
            why=(
                "300 entities per scene, like hundreds of box proposals; only eval is "
                "timed, and its time goes to top-K extraction and IoU matching"
            ),
            kind="vision",
            n_train=1,
            n_test=4,
            spec_overrides={"entities_min": 300, "entities_max": 300},
            eval_per_instance=True,
            checkpoint_epochs=2,
            setup_reps=12,
            exercised=("setup_s", "eval_inst_per_s", "center_mass_test", "peak_rss_mb"),
            coverage=(
                ("supervision.calls", "active"),
                ("supervision.entity_gt_matching.calls", "active"),
                ("metrics.top_k_pairs.calls", "active"),
                ("attention.backward.calls", "idle"),
                ("losses.relation_loss.calls", "idle"),
            ),
        ),
        Workload(
            name="doc-medium",
            why=(
                "56-token documents with the language recipe; time goes to attention "
                "and losses, and eval skips top-K and matching (the bypass workload)"
            ),
            kind="document",
            n_train=200,
            n_test=100,
            spec_overrides={"tokens_min": 48, "tokens_max": 64},
            recipe=("--optimizer", "adam", "--lr", "1e-3", "--lambda", "0.1", "--batch-size", "2"),
            epochs=2,
            quality_epochs=10,
            quality_runs=1,
            eval_reps=5,
            exercised=("setup_s", "train_epoch_s", "eval_inst_per_s", "center_mass_test", "peak_rss_mb"),
            coverage=(
                ("attention.forward.calls", "active"),
                ("attention.backward.calls", "active"),
                ("losses.relation_loss.calls", "active"),
                ("supervision.calls", "idle"),
                ("metrics.top_k_pairs.calls", "idle"),
                ("metrics.relation_recall.calls", "idle"),
            ),
        ),
    )
}
