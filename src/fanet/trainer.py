"""Joint training of a scene classifier and relation-supervised attention.

The model is deliberately small and fully explicit: one attention block over
the entity features, a mean-pooled head (residual combine or concatenation),
and a linear classifier. The loss is

    task cross-entropy + lambda * relation loss,

where the relation term concentrates the attention focus weights onto the
supervision target. Backpropagation is hand-derived end to end; there is no
autodiff anywhere, which keeps the gradients checkable against central finite
differences.

Supervision strategies (each supervised one is a `losses.relation_loss` call):

  * ``row``       per-reference softmax; the loss averages the per-row center
                  mass loss over rows that have at least one labeled partner;
  * ``mat``       matrix-wise softmax, plain cross entropy (focal exponent
                  forced to 0 when the variant is focal);
  * ``mat_focal`` matrix-wise softmax with the configured focal exponent;
  * ``unsup``     no relation term at all (relation weight treated as 0).

Defaults follow the vision-style recipe: SGD with momentum 0.9, learning rate
5e-4 cut by 10x after 5/8 of the epochs, batch size 1, lambda 0.01. A
language-style run typically overrides optimizer="adam", lr=1e-3, lam=0.1.

Within a mini-batch, task gradients average over the whole batch while
relation gradients average over the instances that actually carry labeled
relations, so sparse supervision is not diluted by unlabeled instances.

Everything here is a pure function of (datasets, config): parameter init,
shuffling, and reported metrics reproduce bit-for-bit for equal seeds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import attention
from .attention import AttentionState
from .losses import FocusLossConfig, relation_loss
from .matrices import (
    NonFiniteError,
    ShapeError,
    ValidationError,
    _check_keys,
    _decode_array,
    _encode_array,
    _from_json,
    _json_dict,
    _json_number,
    _load_json,
    _softmax,
    _write_json,
    check_finite,
)
from .metrics import RECALL_IOU, CenterMassSummary, _bucket_recall, top_k_pairs
from .seeding import STREAM_PARAMS_CLASSIFIER, STREAM_SHUFFLE, stream_rng
from .supervision import _NO_BOXES, _stack_boxes, entity_gt_matching
from .synthgen import Instance

__all__ = [
    "STRATEGIES",
    "OPTIMIZERS",
    "HEAD_MODES",
    "TrainConfig",
    "ModelParams",
    "TaskForward",
    "EpochStats",
    "TrainReport",
    "EvalResult",
    "DivergenceError",
    "init_model",
    "forward_task",
    "task_loss",
    "combined_loss",
    "evaluate",
    "train",
    "grad_check",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
]

STRATEGIES = ("row", "mat", "mat_focal", "unsup")
OPTIMIZERS = ("sgd_momentum", "adam")
HEAD_MODES = ("residual", "concat")

# single step decay at the 5/8 mark, e.g. 8 epochs -> cut entering epoch 6
LR_DECAY_FACTOR = 0.1
LR_DECAY_POINT = 5 / 8


class DivergenceError(RuntimeError):
    """Raised by `train` when the attention logits or a loss stop being finite."""


def _check_ks(ks, name: str) -> tuple:
    """Recall cutoffs, a list or tuple of ints >= 1 (not floats or bools), as a
    non-empty tuple; also eval_ks's reader from JSON."""
    if not isinstance(ks, (list, tuple)):
        raise ValidationError(f"{name}: expected a list of integers, got {ks!r}")
    checked = tuple(_json_number(k, name, integer=True) for k in ks)
    if not checked or any(k < 1 for k in checked):
        raise ValidationError(f"{name} must be positive ints, got {ks!r}")
    return checked


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; validated on construction.

    `lam` is the relation-loss weight (serialized as "lambda"). `focal_r`
    applies to the focal variant; the `mat` strategy forces it to 0 there.
    `eval_ks` are the recall@K cutoffs reported each epoch.
    """

    lam: float = 0.01
    focal_r: int = 2
    loss_variant: str = "focal"
    strategy: str = "mat_focal"
    optimizer: str = "sgd_momentum"
    lr: float = 5e-4
    momentum: float = 0.9
    epochs: int = 60
    batch_size: int = 1
    seed: int = 0
    head_mode: str = "residual"
    d_k: int = 4
    freeze_attention: bool = False
    eval_ks: tuple = (1, 5, 10)

    # class attributes, not fields (`_from_json`): lam's JSON key, eval_ks's
    # reader, and two keys that older files hold at the one value they had
    json_keys = {"lam": "lambda"}
    json_readers = {"tuple": _check_ks}
    json_retired = {"agg_axis": "row", "eps": 1e-12}

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(f"lam must be finite and >= 0, got {self.lam}")
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(
                f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}"
            )
        if self.head_mode not in HEAD_MODES:
            raise ValidationError(
                f"head_mode must be one of {HEAD_MODES}, got {self.head_mode!r}"
            )
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValidationError(f"lr must be finite and >= 0, got {self.lr}")
        if not (0 <= self.momentum < 1):
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.d_k < 1:
            raise ValidationError(f"d_k must be >= 1, got {self.d_k}")
        # delegates focal_r / loss_variant validation
        focus = FocusLossConfig(r=self.focal_r, variant=self.loss_variant)
        if self.strategy == "mat" and self.loss_variant == "focal":
            focus = FocusLossConfig(r=0, variant="focal")
        object.__setattr__(self, "_focus", focus)  # built once, read on every step
        object.__setattr__(self, "eval_ks", _check_ks(self.eval_ks, "eval_ks"))

    @property
    def lam_effective(self) -> float:
        """The relation weight actually applied; unsup always means 0."""
        return 0.0 if self.strategy == "unsup" else self.lam

    def focus_config(self) -> FocusLossConfig:
        """Loss config for the relation term; `mat` pins the focal exponent."""
        return self._focus

    to_dict = _json_dict
    from_dict = classmethod(_from_json)


PARAM_NAMES = ("w_k", "w_q", "classifier_w", "classifier_b")


@dataclass
class ModelParams:
    """All trainable arrays. Mutable on purpose: the optimizer updates in place.

    The four arrays are reshaped views into one contiguous float64 buffer,
    `flat`, laid out in PARAM_NAMES order; the optimizer updates `flat` with
    whole-buffer ufuncs, and `views` lays any buffer of the same size (the
    gradients, the optimizer state) out under the same names. Checked once
    here (shapes, finiteness); `attention.forward` reads w_k and w_q straight
    from this object, so the updated arrays are the ones it sees.
    """

    w_k: np.ndarray           # (d_k, d)
    w_q: np.ndarray           # (d_k, d)
    classifier_w: np.ndarray  # (num_classes, head_dim)
    classifier_b: np.ndarray  # (num_classes,)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, ndim in zip(PARAM_NAMES, (2, 2, 2, 1)):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.ndim != ndim:
                raise ShapeError(f"{name} must have {ndim} dimensions, got shape {a.shape}")
            check_finite(a, name)
            setattr(self, name, a)
        if self.w_k.shape != self.w_q.shape:
            raise ShapeError(
                f"w_k and w_q must match, got {self.w_k.shape} vs {self.w_q.shape}"
            )
        if self.classifier_b.shape != (self.classifier_w.shape[0],):
            raise ShapeError(
                f"classifier bias {self.classifier_b.shape} does not match "
                f"weights {self.classifier_w.shape}"
            )
        self.flat = np.concatenate([a.ravel() for a in self.arrays().values()])
        for name, view in self.views(self.flat).items():
            setattr(self, name, view)

    def views(self, buffer: np.ndarray) -> dict:
        """name -> the reshaped view of `buffer` (flat's size) that holds that array."""
        out = {}
        start = 0
        for name in PARAM_NAMES:
            shape = getattr(self, name).shape
            stop = start + math.prod(shape)
            out[name] = buffer[start:stop].reshape(shape)
            start = stop
        return out

    @property
    def d(self) -> int:
        return self.w_k.shape[1]

    @property
    def d_k(self) -> int:
        return self.w_k.shape[0]

    @property
    def num_classes(self) -> int:
        return self.classifier_w.shape[0]

    @property
    def head_dim(self) -> int:
        return self.classifier_w.shape[1]

    def arrays(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "ModelParams":
        return ModelParams(**self.arrays())

    def __reduce__(self):
        # pickle and the copy module rebuild the shared buffer through __init__
        return ModelParams, tuple(self.arrays().values())


def head_dim_for(d: int, head_mode: str) -> int:
    return d if head_mode == "residual" else 2 * d


def _check_head_dim(params: ModelParams, d: int, head_mode: str) -> None:
    """The classifier must take the pooled width the head gives over d-dim features."""
    expected = head_dim_for(d, head_mode)
    if params.head_dim != expected:
        raise ShapeError(
            f"classifier expects pooled dim {params.head_dim}, but "
            f"{head_mode} head over {d}-dim features gives {expected}"
        )


def init_model(d: int, num_classes: int, config: TrainConfig) -> ModelParams:
    """Seeded init: attention and classifier draw from separate streams."""
    if num_classes < 1:
        raise ValidationError(f"num_classes must be >= 1, got {num_classes}")
    att = attention.init_params(d, config.d_k, config.seed)
    hd = head_dim_for(d, config.head_mode)
    rng = stream_rng(STREAM_PARAMS_CLASSIFIER, config.seed)
    bound = 1.0 / np.sqrt(hd)
    return ModelParams(
        w_k=att.w_k,
        w_q=att.w_q,
        classifier_w=rng.uniform(-bound, bound, size=(num_classes, hd)),
        classifier_b=np.zeros(num_classes),
    )


@dataclass(frozen=True)
class TaskForward:
    """Everything the backward pass and the metrics need from one forward.

    For a (B, n, d) stack every array gains a leading B axis.
    """

    state: AttentionState
    context: np.ndarray       # (n, d) aggregated features
    pooled: np.ndarray        # (head_dim,)
    class_logits: np.ndarray  # (num_classes,)


def forward_task(
    features: np.ndarray, params: ModelParams, config: TrainConfig
) -> TaskForward:
    """Attention, pooled head and class logits for an instance's (n, d)
    features, or for a (B, n, d) stack of instances with the same n."""
    _check_head_dim(params, features.shape[-1], config.head_mode)
    state = attention.forward(features, params)
    context = attention.aggregate(state, features)
    pooled, class_logits = _head(features, context, params, config.head_mode)
    return TaskForward(
        state=state, context=context, pooled=pooled, class_logits=class_logits
    )


def _head(features, context, params: ModelParams, head_mode: str):
    """(pooled, class_logits): the mean-pooled head over features and context."""
    n = features.shape[-2]
    if head_mode == "residual":
        pooled = np.add.reduce(features + context, axis=-2) / n
    else:
        pooled = np.concatenate(
            [np.add.reduce(features, axis=-2) / n, np.add.reduce(context, axis=-2) / n], axis=-1
        )
    # one gemv per instance: a (B, h) @ (h, C) gemm can round differently
    class_logits = (params.classifier_w @ pooled[..., None])[..., 0] + params.classifier_b
    return pooled, class_logits


def task_loss(class_logits: np.ndarray, label: int) -> float:
    """Softmax cross entropy, computed through a stabilized log-sum-exp."""
    return _task_loss_grad(np.asarray(class_logits, dtype=np.float64), label)[0]


def _task_loss_grad(z: np.ndarray, label: int):
    """(task_loss, d_loss/d_logits) for float64 logits: the one cross-entropy formula."""
    if not (0 <= label < z.shape[0]):
        raise ValidationError(f"label {label} out of range for {z.shape[0]} classes")
    zmax = float(np.maximum.reduce(z))
    e = np.exp(z - zmax)
    total = np.add.reduce(e)
    value = zmax + math.log(total) - float(z[label])
    grad = e / total
    grad[label] -= 1.0
    return value, grad


def combined_loss(task: float, relation: float, lam: float) -> float:
    return task + lam * relation


# --- gradients for one instance ----------------------------------------------


def _relation(state: AttentionState, target: np.ndarray, config: TrainConfig):
    """relation_loss over the rows of agg_weights for `row`, else over focus_weights."""
    if config.strategy == "row":
        return relation_loss(state.agg_weights, target, config.focus_config(), state.logits, -1)
    return relation_loss(state.focus_weights, target, config.focus_config(), state.logits)


def _accumulate_instance(
    instance: Instance,
    params: ModelParams,
    config: TrainConfig,
    grads: dict,
    weight_task: float,
    weight_rel: float,
):
    """Add this instance's gradient contribution to `grads` (name -> array).

    One attention forward and, unless attention is frozen, one backward.
    weight_task scales the classification path, weight_rel the relation path
    (already including lambda and the batch normalization). Returns
    (task_loss, relation_loss) for reporting.
    """
    f = instance.entities.features
    n = instance.n
    state = attention.forward(f, params)
    context = state.agg_weights @ f
    pooled, class_logits = _head(f, context, params, config.head_mode)
    t_loss, dz = _task_loss_grad(class_logits, instance.label)

    grads["classifier_w"] += weight_task * np.outer(dz, pooled)
    grads["classifier_b"] += weight_task * dz

    r_loss = 0.0
    if weight_rel != 0.0:
        r_loss, _, d_rel = _relation(state, instance.target, config)
    if config.freeze_attention:
        return t_loss, r_loss

    dpooled = params.classifier_w.T @ dz  # (head_dim,)
    # pooled ends in mean(C) (residual: is mean(F + C)), so each row of C gets
    # the last d entries of dpooled / n, and each row of d_agg = d_C @ F.T is u
    u = f @ (dpooled[-f.shape[1]:] / n)
    d_logits = attention._row_softmax_vjp(state.agg_weights, u)
    d_logits *= weight_task
    if weight_rel != 0.0:
        d_rel *= weight_rel  # d_rel is relation_loss's own fresh array
        d_logits += d_rel

    d_w_k, d_w_q = attention.backward(state, d_logits, instance.entities, params)
    grads["w_k"] += d_w_k
    grads["w_q"] += d_w_q
    return t_loss, r_loss


# --- optimizers ----------------------------------------------------------------
#
# Each step updates the parameters' flat buffer from a flat gradient of the same
# layout with a few whole-buffer ufunc calls; the update is elementwise, so every
# element rounds as it would array by array.


class _SgdMomentum:
    def __init__(self, params: ModelParams, momentum: float):
        self.momentum = momentum
        self.velocity = np.zeros_like(params.flat)

    def step(self, params: ModelParams, grad: np.ndarray, lr: float) -> None:
        v = self.velocity
        v *= self.momentum
        v += grad
        params.flat -= lr * v


class _Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: ModelParams, momentum: float):
        del momentum  # adam keeps its own fixed betas
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0

    def step(self, params: ModelParams, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        m, v = self.m, self.v
        m *= self.BETA1
        m += (1.0 - self.BETA1) * grad
        v *= self.BETA2
        v += (1.0 - self.BETA2) * grad * grad
        params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)


def _make_optimizer(config: TrainConfig, params: ModelParams):
    cls = _SgdMomentum if config.optimizer == "sgd_momentum" else _Adam
    return cls(params, config.momentum)


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """LR for a 0-based epoch index; one 10x cut at floor(5/8 * epochs)."""
    decay_at = int(config.epochs * LR_DECAY_POINT)
    return config.lr * (LR_DECAY_FACTOR if epoch >= decay_at else 1.0)


# --- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    """Dataset means, plus each instance's center-mass (NaN when its target
    labels no pair) and {k: recall} dict (1.0 at every k without gt
    relations; those instances share one dict), in instance order."""

    accuracy: float
    center_mass: CenterMassSummary
    recall: dict                 # k -> mean recall over instances
    n_instances: int
    n_recall_vacuous: int
    masses: tuple = ()
    recalls: tuple = ()


# The most cells a stack of n x n arrays may hold (2^14: 128 KB per float64
# array). A bucket's forward, top-K, matching and recall each hold a few
# (B, n, n) arrays, so a whole bucket's working set grows with B * n^2.
# `evaluate` of B default-world scenes of n entities (2-core x86-64 VM, one
# BLAS thread, median of 5; tracemalloc peak):
#   n = 8,   B = 100: one chunk from 2^13 cells up, 2.3 ms, 0.57 MB; 2^12
#                     cuts it in two, 2.8 ms;
#   n = 64,  B = 100: whole 25.2 ms, 19.0 MB; 2^14 (chunks of 4) 19.8 ms,
#                     0.96 MB; 2^16 (16) 16.1 ms, 3.6 MB;
#   n = 300, B = 16:  whole 72 ms, 64 MB; one scene a chunk 40 ms, 4.5 MB;
#   n = 400, B = 16:  whole 111 ms, 114 MB; one scene a chunk 69 ms, 7.9 MB.
# 2^14 keeps every bucket of the vision worlds whole (n <= 8 gives chunks of
# 256 and more), cuts doc-medium's 48-64-token buckets into chunks of 4-7,
# and evaluates any n >= 128 one instance at a time.
STACK_CELLS = 2**14


def _buckets(instances: Sequence[Instance]) -> list:
    """Instance indices grouped by entity count n, in first-seen order, and
    cut into consecutive chunks of at most max(1, STACK_CELLS // n^2).

    Instances of one bucket stack into a (B, n, d) array with no padding, and
    their n x n arrays into (B, n, n) stacks of at most STACK_CELLS cells
    unless one matrix alone holds more.
    """
    groups = {}
    for i, inst in enumerate(instances):
        groups.setdefault(inst.n, []).append(i)
    chunks = []
    for n, idx in groups.items():
        size = max(1, STACK_CELLS // (n * n))
        chunks += (idx[start : start + size] for start in range(0, len(idx), size))
    return chunks


def _stack(instances: Sequence[Instance], idx: Sequence[int]) -> np.ndarray:
    return np.stack([instances[i].entities.features for i in idx])


def _stack_targets(instances: Sequence[Instance], idx: Sequence[int]) -> np.ndarray:
    return np.stack([instances[i].target for i in idx])


def _masses(focus: np.ndarray, targets: np.ndarray) -> list:
    """Each center-mass of a (B, n, n) focus stack on its bool target stack:
    bit for bit each matrix's own np.add.reduce(w * t, axis=None)."""
    return np.add.reduce(focus * targets, axis=(-2, -1)).tolist()


def evaluate(
    instances: Sequence[Instance],
    params: ModelParams,
    config: TrainConfig,
    ks: Optional[Sequence[int]] = None,
) -> EvalResult:
    """Accuracy, center-mass summary and recall@K means over a dataset.

    Runs one forward per bucket of equal entity count (`_buckets`: at most
    STACK_CELLS cells of n x n arrays, so memory stays bounded however many
    instances share an n), and one top-K, one IoU matching (of the top-K
    pairs' ends, if fewer than n) and one recall pass (`_bucket_recall`) over
    the bucket's instances that have gt relations; the results are summed in
    instance order, so they do not depend on the bucketing. An empty dataset
    gives NaN accuracy and means, and zero counts.
    """
    ks = config.eval_ks if ks is None else _check_ks(ks, "ks")
    n = len(instances)
    correct = 0
    masses = [float("nan")] * n
    per_k = [None] * n  # None: no gt relations, vacuous recall
    max_k = max(ks)
    for idx in _buckets(instances):
        fwd = forward_task(_stack(instances, idx), params, config)
        focus = fwd.state.focus_weights
        predicted = np.argmax(fwd.class_logits, axis=-1).tolist()
        del fwd  # frees the logits, row softmax, projections and context before top-K
        bucket_masses = _masses(focus, _stack_targets(instances, idx))
        for i, label, m in zip(idx, predicted, bucket_masses):
            inst = instances[i]
            correct += label == inst.label
            if inst.labeled:
                masses[i] = m
        with_gt = [j for j, i in enumerate(idx) if len(instances[i].relations)]
        if not with_gt:
            continue
        boxes = _stack_boxes([instances[idx[j]].entities for j in with_gt])
        pairs, _ = top_k_pairs(focus if len(with_gt) == len(idx) else focus[with_gt], max_k)
        ends = pairs.reshape(len(with_gt), -1)  # (B, 2k') entity indices
        rows = np.arange(len(with_gt))[:, None]
        # each entity is its own gt object (exact boxes); match only the pair ends if fewer
        if ends.shape[1] < boxes.shape[1]:
            matches = entity_gt_matching(boxes[rows, ends], boxes, RECALL_IOU)
        else:
            matches = entity_gt_matching(boxes, boxes, RECALL_IOU)[rows, ends]
        relations = [instances[idx[j]].relations for j in with_gt]
        bucket = _bucket_recall(matches.reshape(pairs.shape), relations, boxes.shape[1], ks)
        for j, scores in zip(with_gt, bucket):
            per_k[idx[j]] = scores
    vacuous = {k: 1.0 for k in ks}
    recalls = tuple(vacuous if scores is None else scores for scores in per_k)
    recall_sums = {k: 0.0 for k in ks}  # one sum per distinct K, however often it repeats
    for scores in recalls:
        for k in recall_sums:
            recall_sums[k] += scores[k]
    scored = [m for m, inst in zip(masses, instances) if inst.labeled]
    over = n or math.nan  # a mean over no instances is NaN
    return EvalResult(
        accuracy=correct / over,
        center_mass=CenterMassSummary.of(scored, n - len(scored)),
        recall={k: recall_sums[k] / over for k in ks},
        n_instances=n,
        n_recall_vacuous=per_k.count(None),
        masses=tuple(masses),
        recalls=recalls,
    )


# --- training loop ---------------------------------------------------------------


@dataclass(frozen=True)
class EpochStats:
    epoch: int                # 1-based
    lr: float
    task_loss: float
    relation_loss: float
    combined_loss: float
    center_mass: float        # train split
    center_mass_test: float
    accuracy: float           # test split
    recall: dict              # k -> test recall


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch metrics plus the effective config that produced them."""

    config: TrainConfig
    num_classes: int
    feature_dim: int
    epochs: tuple  # of EpochStats


def _check_matchable(instances, source: str) -> None:
    """Refuse the first instance of `source`, by its 0-based index, whose gt
    relations recall would have to match against boxes it does not have."""
    for i, inst in enumerate(instances):
        if inst.entities.boxes is None and len(inst.relations):
            raise ValidationError(f"{source} instance {i}: {_NO_BOXES}")


def _check_dataset(train_set, test_set):
    if not train_set:
        raise ValidationError("training set is empty")
    dims = {inst.entities.d for inst in itertools.chain(train_set, test_set)}
    if len(dims) != 1:
        raise ValidationError(f"mixed feature dims in dataset: {sorted(dims)}")
    _check_matchable(test_set, "test split")
    labels = [inst.label for inst in itertools.chain(train_set, test_set)]
    return dims.pop(), max(labels) + 1


def train(
    train_set: Sequence[Instance],
    test_set: Sequence[Instance],
    config: TrainConfig,
) -> tuple[ModelParams, TrainReport]:
    """Full training run; returns the final parameters and the epoch log."""
    d, num_classes = _check_dataset(train_set, test_set)
    params = init_model(d, num_classes, config)
    optimizer = _make_optimizer(config, params)
    shuffle_rng = stream_rng(STREAM_SHUFFLE, config.seed)
    lam_eff = config.lam_effective
    stats = []
    try:
        _train_epochs(train_set, test_set, config, params, optimizer, shuffle_rng, lam_eff, stats)
    except NonFiniteError as exc:  # non-finite logits, or a non-finite loss
        raise DivergenceError(
            f"numerical overflow with {len(stats)} epochs completed: {exc}; "
            "reduce the learning rate"
        ) from exc
    report = TrainReport(
        config=config, num_classes=num_classes, feature_dim=d, epochs=tuple(stats)
    )
    return params, report


def _train_epochs(train_set, test_set, config, params, optimizer, shuffle_rng, lam_eff, stats):
    n = len(train_set)
    grad = np.zeros_like(params.flat)
    grads = params.views(grad)
    # train-split center-mass: the labeled instances, stacked a bucket at a
    # time, with their targets stacked once for the run
    labeled = [inst for inst in train_set if inst.labeled]
    mass_buckets = [(idx, _stack_targets(labeled, idx)) for idx in _buckets(labeled)]
    for epoch in range(config.epochs):
        lr = learning_rate(config, epoch)
        order = shuffle_rng.permutation(n)
        task_sum = 0.0
        rel_sum = 0.0
        rel_count = 0
        for start in range(0, n, config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            grad.fill(0.0)
            supervised = sum(b.labeled for b in batch) if lam_eff != 0.0 else 0
            for inst in batch:
                w_rel = lam_eff / supervised if supervised and inst.labeled else 0.0
                t_loss, r_loss = _accumulate_instance(
                    inst, params, config, grads, 1.0 / len(batch), w_rel
                )
                task_sum += t_loss
                if w_rel != 0.0:
                    rel_sum += r_loss
                    rel_count += 1
                if not math.isfinite(t_loss) or not math.isfinite(r_loss):
                    raise NonFiniteError(
                        f"non-finite loss at epoch {epoch + 1} (task={t_loss!r}, relation={r_loss!r})"
                    )
            optimizer.step(params, grad, lr)
        task_mean = task_sum / n
        rel_mean = rel_sum / rel_count if rel_count else 0.0
        train_masses = [0.0] * len(labeled)
        for idx, targets in mass_buckets:
            # center-mass reads only the matrix softmax of the logits
            logits, _, _ = attention._logits(_stack(labeled, idx), params)
            for i, m in zip(idx, _masses(_softmax(logits, (-2, -1)), targets)):
                train_masses[i] = m
        train_eval = CenterMassSummary.of(train_masses, n - len(train_masses))
        test_eval = evaluate(test_set, params, config)
        stats.append(
            EpochStats(
                epoch=epoch + 1,
                lr=lr,
                task_loss=task_mean,
                relation_loss=rel_mean,
                combined_loss=combined_loss(task_mean, rel_mean, lam_eff),
                center_mass=train_eval.mean_m,
                center_mass_test=test_eval.center_mass.mean_m,
                accuracy=test_eval.accuracy,
                recall=dict(test_eval.recall),
            )
        )


# --- finite-difference gradient checking ---------------------------------------


def _combined_loss_at(instance: Instance, params: ModelParams, config: TrainConfig):
    fwd = forward_task(instance.entities.features, params, config)
    t_loss = task_loss(fwd.class_logits, instance.label)
    lam_eff = config.lam_effective
    if lam_eff == 0.0:
        return t_loss
    r_loss = _relation(fwd.state, instance.target, config)[0]
    return combined_loss(t_loss, r_loss, lam_eff)


# Each loss value is a sum of rounded terms, so hi and lo each carry an error
# of a few ulps of their size, and fd = (hi - lo) / (2 step) one of a few
# eps * max(|hi|, |lo|) / step, however right the analytic gradient is: over
# 60 seeds of `fanet gradcheck`, every case and every coordinate, the gap
# never passed 4.65 of these units. grad_check forgives this many of them.
_FD_ROUNDOFF = 8 * np.finfo(np.float64).eps


def grad_check(
    params: ModelParams,
    instance: Instance,
    config: TrainConfig,
    step: float = 1e-6,
) -> tuple[float, float]:
    """(error, raw gap): the largest relative gaps between analytic and
    central-FD gradients.

    Checks the combined loss on a single instance over every trainable
    coordinate (attention projections are skipped when frozen, matching what
    the optimizer would update). A coordinate's raw gap is |analytic - fd|
    over a guarded denominator max(|analytic|, |fd|, 1e-8); its error is the
    same less fd's own rounding bound, 8 eps max(|L+|, |L-|) / step (at
    least 0), in the numerator.
    """
    if not (1e-7 <= step <= 1e-3):
        raise ValidationError(f"step must be in [1e-7, 1e-3], got {step}")
    lam_eff = config.lam_effective
    grads = params.views(np.zeros_like(params.flat))
    _accumulate_instance(
        instance,
        params,
        config,
        grads,
        1.0,
        lam_eff if instance.labeled else 0.0,
    )
    names = ["classifier_w", "classifier_b"]
    if not config.freeze_attention:
        names = ["w_k", "w_q"] + names
    worst = worst_raw = 0.0
    probe = params.copy()
    arrays = probe.arrays()
    for name in names:
        a = arrays[name]
        analytic = grads[name]
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = a[idx]
            a[idx] = orig + step
            hi = _combined_loss_at(instance, probe, config)
            a[idx] = orig - step
            lo = _combined_loss_at(instance, probe, config)
            a[idx] = orig
            fd = (hi - lo) / (2.0 * step)
            gap = abs(analytic[idx] - fd)
            scale = max(abs(analytic[idx]), abs(fd), 1e-8)
            excess = max(gap - _FD_ROUNDOFF * max(abs(hi), abs(lo)) / step, 0.0)
            worst = max(worst, excess / scale)
            worst_raw = max(worst_raw, gap / scale)
    return worst, worst_raw


# --- checkpoints ------------------------------------------------------------------
#
# JSON with the parameters as base64 little-endian float64 payloads
# (`matrices._encode_array`).

CHECKPOINT_FORMAT = "focused-attention-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ModelParams, config: TrainConfig) -> None:
    _write_json(path, {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "num_classes": params.num_classes,
        "feature_dim": params.d,
        "head_dim": params.head_dim,
        "params": {name: _encode_array(a) for name, a in params.arrays().items()},
    })


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    return _load_json(path, _checkpoint_from_doc)


# the keys save_checkpoint writes; a file may leave out the sizes
_CHECKPOINT_KEYS = ("format", "version", "config", "params", "num_classes", "feature_dim", "head_dim")


def _checkpoint_from_doc(doc: dict) -> tuple[ModelParams, TrainConfig]:
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValidationError(f"format {doc.get('format')!r}, expected {CHECKPOINT_FORMAT!r}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValidationError(f"version {doc.get('version')!r}, expected {CHECKPOINT_VERSION}")
    _check_keys(doc, _CHECKPOINT_KEYS, ("params", "config"))
    for name in ("params", "config"):
        if not isinstance(doc[name], dict):
            raise ValidationError(f"{name}: expected an object, got {type(doc[name]).__name__}")
    _check_keys(doc["params"], PARAM_NAMES, PARAM_NAMES, "params.")
    arrays = {name: _decode_array(doc["params"][name], f"params.{name}") for name in PARAM_NAMES}
    config = TrainConfig.from_dict(doc["config"], "config.")
    params = ModelParams(**arrays)
    for name, size, array, shape in (
        ("num_classes", params.num_classes, "classifier", params.classifier_w.shape),
        ("feature_dim", params.d, "w_k", params.w_k.shape),
        ("head_dim", params.head_dim, "classifier", params.classifier_w.shape),
    ):
        given = _json_number(doc.get(name, size), name, True)
        if given != size:
            raise ValidationError(f"{name} field {given} does not match {array} shape {shape}")
    _check_head_dim(params, params.d, config.head_mode)
    return params, config
