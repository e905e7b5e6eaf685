"""The training step's kernels against their previous array formulas.

`relation_loss` builds its logit gradient in one fresh array, and its row
path replaces a per-row Python loop; `_accumulate_instance` scales the
relation gradient in place before adding it. IEEE multiplication is
commutative, so each must give the same bits as the formula it replaced,
where M is at least `FocusLossConfig.eps` (below it the loss is taken in log
space). The step's row-softmax VJP, `_row_softmax_vjp`, is the rank-one
closed form of the VJP on materialized rows: it sums in another order, so it
and the step's attention gradients must stay within 1e-14 of the prior
formula, relative to each array's largest entry. Those formulas are kept
here as the references. None of the kernels may write into an input.
"""

import dataclasses

import numpy as np
import pytest

from fanet import attention
from fanet.attention import _row_softmax_vjp
from fanet.losses import FocusLossConfig, loss_grad, loss_value, relation_loss
from fanet.matrices import _softmax
from fanet.synthgen import Instance
from fanet.trainer import (
    TrainConfig,
    _accumulate_instance,
    _head,
    _task_loss_grad,
    init_model,
)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_near(got, want, rel=1e-14):
    """Every entry within `rel` times want's largest entry (so zeros stay zero)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)


def prior_relation_loss(focus_weights, target, config):
    m = float(np.add.reduce(focus_weights * target, axis=None))
    if m == 0.0 and not target.any():
        return 0.0, 0.0, np.zeros_like(focus_weights)
    grad = loss_grad(m, config) * (focus_weights * (target - m))
    return loss_value(m, config), m, grad


def prior_row_relation(a, t, cfg):
    """The row strategy's loss and logit gradient as a per-row loop, averaged
    over rows with any positive; `a` is the row softmax of the logits."""
    rows = np.flatnonzero(t.any(axis=1))
    grad = np.zeros_like(a)
    if rows.size == 0:
        return 0.0, grad
    total = 0.0
    for i in rows:
        m_i = float(np.sum(a[i] * t[i]))
        total += loss_value(m_i, cfg)
        grad[i] = loss_grad(m_i, cfg) * a[i] * (t[i] - m_i) / rows.size
    return total / rows.size, grad


def prior_softmax_vjp(softmax_out, grad_out, axis):
    inner = np.add.reduce(grad_out * softmax_out, axis=axis, keepdims=True)
    return softmax_out * (grad_out - inner)


def prior_accumulate(instance, params, config, grads, weight_task, weight_rel):
    """_accumulate_instance before the in-place rewrite, on the prior kernels."""
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
        if config.strategy == "row":
            r_loss, d_rel = prior_row_relation(state.agg_weights, instance.target,
                                               config.focus_config())
        else:
            r_loss, _, d_rel = prior_relation_loss(
                state.focus_weights, instance.target, config.focus_config()
            )
    if config.freeze_attention:
        return t_loss, r_loss
    dpooled = params.classifier_w.T @ dz
    d_context = (dpooled[-f.shape[1]:] / n)[None, :].repeat(n, axis=0)
    d_agg = d_context @ f.T
    d_logits = prior_softmax_vjp(state.agg_weights, d_agg, -1)
    d_logits *= weight_task
    if weight_rel != 0.0:
        d_logits += weight_rel * d_rel
    d_w_k, d_w_q = attention.backward(state, d_logits, instance.entities, params)
    grads["w_k"] += d_w_k
    grads["w_q"] += d_w_q
    return t_loss, r_loss


def random_target(rng, shape, density):
    t = (rng.random(shape) < density).astype(float)
    idx = np.arange(shape[-1])
    t[..., idx, idx] = 0.0
    return t


def focus_cases(rng, n):
    """(logits, target) pairs: random logits, tie-heavy integer-valued ones,
    and an empty target."""
    yield rng.normal(scale=3.0, size=(n, n)), random_target(rng, (n, n), 0.3)
    yield rng.integers(0, 3, size=(n, n)).astype(float), random_target(rng, (n, n), 0.5)
    yield rng.normal(size=(n, n)), np.zeros((n, n))


CONFIGS = [
    FocusLossConfig(r=r) for r in (0, 1, 2, 4)
] + [FocusLossConfig(variant="l2"), FocusLossConfig(variant="smooth_l1")]


# --- relation loss -----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_relation_loss_matches_prior_formula_and_keeps_its_inputs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 7, 16]))
    for logits, target in focus_cases(rng, n):
        focus = _softmax(logits, (-2, -1))
        before = focus.copy(), target.copy(), logits.copy()
        for cfg in CONFIGS:
            loss, m, grad = relation_loss(focus, target, cfg, logits)
            want_loss, want_m, want_grad = prior_relation_loss(focus, target, cfg)
            assert (loss, m) == (want_loss, want_m)
            assert_same_bits(grad, want_grad)
            assert grad is not focus and grad is not target
        for got, want in zip((focus, target, logits), before):
            assert_same_bits(got, want)


@pytest.mark.parametrize("seed", range(6))
def test_row_relation_matches_prior_loop_and_keeps_its_inputs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 7, 16, 56]))
    for logits, target in focus_cases(rng, n):
        agg = _softmax(logits, -1)
        before = agg.copy(), target.copy(), logits.copy()
        for cfg in CONFIGS:
            loss, m, grad = relation_loss(agg, target, cfg, logits, -1)
            want_loss, want_grad = prior_row_relation(agg, target, cfg)
            assert loss == want_loss
            assert_same_bits(grad, want_grad)
            rows = target.any(axis=-1)
            assert m == (float(np.mean(np.sum(agg * target, axis=-1)[rows])) if rows.any() else 0.0)
        for got, want in zip((agg, target, logits), before):
            assert_same_bits(got, want)


def test_relation_loss_300_entities():
    rng = np.random.default_rng(300)
    logits = rng.normal(size=(300, 300))
    focus, agg = _softmax(logits, (-2, -1)), _softmax(logits, -1)
    target = random_target(rng, (300, 300), 0.01)
    for cfg in (FocusLossConfig(), FocusLossConfig(variant="smooth_l1")):
        _, _, grad = relation_loss(focus, target, cfg, logits)
        assert_same_bits(grad, prior_relation_loss(focus, target, cfg)[2])
        loss, _, grad = relation_loss(agg, target, cfg, logits, -1)
        assert (loss, grad.tobytes()) == tuple(
            f(x) for f, x in zip((float, np.ndarray.tobytes), prior_row_relation(agg, target, cfg)))


# --- row softmax VJP --------------------------------------------------------------


def vjp_cases(rng, shape):
    """(row softmax, the one upstream row u of each matrix) pairs: random, and
    tie-heavy integer-valued."""
    yield _softmax(rng.normal(scale=3.0, size=shape), -1), rng.normal(size=shape[:-1])
    ties = _softmax(rng.integers(0, 2, size=shape).astype(float), -1)
    yield ties, rng.integers(-2, 3, size=shape[:-1]).astype(float)


def prior_rows(a, u):
    """The upstream gradient the prior step materialized: every row is u."""
    return np.broadcast_to(u[..., None, :], a.shape).copy()


@pytest.mark.parametrize("ndim", [2, 3], ids=["matrix", "stack"])
@pytest.mark.parametrize("seed", range(6))
def test_softmax_vjp_matches_prior_formula_and_keeps_its_inputs(seed, ndim):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 5, 9]))
    shape = (n, n) if ndim == 2 else (int(rng.integers(1, 4)), n, n)
    for a, u in vjp_cases(rng, shape):
        before = a.copy(), u.copy()
        got = _row_softmax_vjp(a, u)
        assert_near(got, prior_softmax_vjp(a, prior_rows(a, u), -1))
        assert_same_bits(a, before[0])
        assert_same_bits(u, before[1])


def test_row_softmax_vjp_300_entities():
    rng = np.random.default_rng(301)
    for a, u in vjp_cases(rng, (300, 300)):
        assert_near(_row_softmax_vjp(a, u), prior_softmax_vjp(a, prior_rows(a, u), -1))


# --- one training step -------------------------------------------------------------


def step_instance(rng, n, d, density, ties=False):
    """Random features, or with ties=True integer-valued, tie-heavy ones."""
    features = rng.integers(-1, 2, size=(n, d)).astype(float) if ties else rng.normal(size=(n, d))
    target = random_target(rng, (n, n), density)
    return Instance(entities=attention.EntitySet(features=features), target=target,
                    label=int(rng.integers(0, 3)))


@pytest.mark.parametrize("strategy", ["mat_focal", "mat", "row", "unsup"])
@pytest.mark.parametrize("seed", range(4))
def test_accumulate_instance_matches_prior_formula(seed, strategy):
    rng = np.random.default_rng(seed)
    d = 5
    cfg = TrainConfig(d_k=3, strategy=strategy, loss_variant="focal", seed=seed)
    params = init_model(d, 3, cfg)
    cases = ((int(rng.integers(2, 9)), 0.3, False), (6, 0.0, False), (7, 0.3, True),
             (40, 0.05, False))
    for n, density, ties in cases:
        inst = step_instance(rng, n, d, density, ties)
        features, target, flat = (inst.entities.features.copy(), inst.target.copy(),
                                  params.flat.copy())
        for frozen in (False, True):
            c = dataclasses.replace(cfg, freeze_attention=frozen)
            for weight_task, weight_rel in ((1.0, 0.0), (0.5, 0.01), (1.0 / 3, 0.7)):
                if c.strategy == "unsup":
                    weight_rel = 0.0  # train and grad_check give unsup no relation weight
                got, want = np.zeros_like(params.flat), np.zeros_like(params.flat)
                got_losses = _accumulate_instance(inst, params, c, params.views(got),
                                                  weight_task, weight_rel)
                want_losses = prior_accumulate(inst, params, c, params.views(want),
                                               weight_task, weight_rel)
                assert got_losses == want_losses
                for name, array in params.views(got).items():
                    assert_near(array, params.views(want)[name])
        assert_same_bits(inst.entities.features, features)
        assert_same_bits(inst.target, target)
        assert_same_bits(params.flat, flat)


def test_accumulate_instance_300_entities():
    rng = np.random.default_rng(302)
    cfg = TrainConfig(d_k=4)
    params = init_model(8, 3, cfg)
    inst = step_instance(rng, 300, 8, 0.01)
    got, want = np.zeros_like(params.flat), np.zeros_like(params.flat)
    _accumulate_instance(inst, params, cfg, params.views(got), 1.0, 0.01)
    prior_accumulate(inst, params, cfg, params.views(want), 1.0, 0.01)
    for name, array in params.views(got).items():
        assert_near(array, params.views(want)[name])
