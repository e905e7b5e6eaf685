"""fanet: attention over entity sets, supervised to focus on related pairs.

The core idea: compute scaled dot-product attention over a set of entities
(detected objects, words), normalize the logits two ways -- per reference row
for feature aggregation, and across the whole matrix as one probability
distribution over ordered pairs -- and push that distribution onto known
related pairs with a focal cross-entropy "center-mass" loss. All gradients
are closed-form; everything is reproducible bit-for-bit from seeds.

Layout:

  matrices     float64 matrix guards and stabilized softmax kernels
  attention    entity sets, the attention block, exact backward pass
  losses       center-mass, focal/l2/smooth-l1 variants, logit gradients
  supervision  IoU matching and target builders for boxes and tagged tokens
  metrics      top-K pair extraction, relationship recall, word importance
  synthgen     synthetic relational worlds with known labels and relations
  trainer      end-to-end training, evaluation, gradient checking, checkpoints
  cli          the `fanet` command, and the layout of every file it writes
"""

from .attention import (
    AttentionParams,
    AttentionState,
    EntitySet,
    aggregate,
    backward,
    forward,
    init_params,
)
from .losses import (
    FocusLossConfig,
    center_mass,
    focal_loss,
    l2_loss,
    relation_loss,
    smooth_l1_loss,
)
from .matrices import (
    NonFiniteError,
    ShapeError,
    ValidationError,
    softmax_matrix,
)
from .metrics import (
    CenterMassSummary,
    relation_recall,
    top_k_pairs,
    word_importance,
)
from .supervision import (
    LexicalPairTable,
    build_language_target,
    build_vision_target,
    entity_gt_matching,
    iou,
)
from .synthgen import (
    DocumentSpec,
    Instance,
    WorldSpec,
    default_document_spec,
    default_world_spec,
    generate_dataset,
    generate_document_instance,
    generate_instance,
    read_jsonl,
    write_jsonl,
)
from .trainer import (
    DivergenceError,
    EvalResult,
    ModelParams,
    TrainConfig,
    TrainReport,
    evaluate,
    forward_task,
    grad_check,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrices
    "ValidationError",
    "ShapeError",
    "NonFiniteError",
    "softmax_matrix",
    # attention
    "EntitySet",
    "AttentionParams",
    "AttentionState",
    "init_params",
    "forward",
    "aggregate",
    "backward",
    # losses
    "FocusLossConfig",
    "center_mass",
    "focal_loss",
    "l2_loss",
    "smooth_l1_loss",
    "relation_loss",
    # supervision
    "LexicalPairTable",
    "iou",
    "entity_gt_matching",
    "build_vision_target",
    "build_language_target",
    # metrics
    "CenterMassSummary",
    "top_k_pairs",
    "relation_recall",
    "word_importance",
    # synthgen
    "WorldSpec",
    "DocumentSpec",
    "Instance",
    "generate_instance",
    "generate_document_instance",
    "generate_dataset",
    "default_world_spec",
    "default_document_spec",
    "read_jsonl",
    "write_jsonl",
    # trainer
    "TrainConfig",
    "ModelParams",
    "TrainReport",
    "EvalResult",
    "DivergenceError",
    "init_model",
    "forward_task",
    "train",
    "evaluate",
    "grad_check",
    "save_checkpoint",
    "load_checkpoint",
]
