"""Training loop: gradient checks, strategy semantics, determinism, checkpoints."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from fanet import cli, trainer
from fanet.attention import EntitySet
from fanet.matrices import NonFiniteError, ShapeError, ValidationError
from fanet.metrics import RECALL_IOU, CenterMassSummary, top_k_pairs
from fanet.supervision import NO_MATCH, entity_gt_matching
from fanet.synthgen import Instance, WorldSpec, default_world_spec, generate_dataset
from fanet.trainer import (
    DivergenceError,
    EvalResult,
    ModelParams,
    TrainConfig,
    _buckets,
    evaluate,
    forward_task,
    grad_check,
    head_dim_for,
    init_model,
    learning_rate,
    load_checkpoint,
    save_checkpoint,
    task_loss,
    train,
)

VARIANTS = ("focal", "l2", "smooth_l1")
STRATEGIES = ("row", "mat", "mat_focal", "unsup")


def tiny_dataset(n_train=12, n_test=6, seed=0):
    spec = WorldSpec(
        prototypes=3.0 * np.eye(6),
        affine_pairs=((0, 1), (2, 3)),
        signature_pairs=((0, 1),),
        noise_sigma=0.1,
        entities_min=4,
        entities_max=5,
    )
    return generate_dataset(spec, n_train, n_test, seed=seed)


def check_instance(seed, n=4, d=3, num_classes=3):
    """Small random instance with at least one labeled relation."""
    rng = np.random.default_rng(seed)
    t = np.zeros((n, n))
    t[0, 1] = t[1, 0] = 1.0
    if n > 3:
        t[2, 3] = t[3, 2] = 1.0
    return Instance(
        entities=EntitySet(features=rng.normal(size=(n, d))),
        target=t,
        label=int(rng.integers(0, num_classes)),
    )


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.strategy == "mat_focal"
        assert cfg.optimizer == "sgd_momentum"
        assert cfg.lr == 5e-4 and cfg.momentum == 0.9
        assert cfg.lam == 0.01

    def test_dict_roundtrip_uses_lambda_key(self):
        cfg = TrainConfig(lam=0.5, epochs=3)
        d = cfg.to_dict()
        assert d["lambda"] == 0.5
        assert "lam" not in d
        assert TrainConfig.from_dict(d) == cfg

    def test_from_dict_reads_lambda_only_under_its_json_key(self):
        # a "lam" key once beat a --lambda flag, since the flag was merged as "lambda"
        with pytest.raises(ValidationError, match="^lam: unknown field$"):
            TrainConfig.from_dict({"lam": 0.5})

    def test_from_dict_rejects_unknown_field(self):
        d = TrainConfig().to_dict()
        d["learning_rate"] = 0.1
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig.from_dict(d)

    @pytest.mark.parametrize(
        "key,value",
        [("epochs", 2.5), ("seed", 1.5), ("batch_size", True), ("epochs", True),
         ("lr", "0.1"), ("lambda", False), ("momentum", None), ("d_k", "4"),
         ("focal_r", 2.0)],
    )
    def test_from_dict_rejects_mistyped_number(self, key, value):
        d = TrainConfig().to_dict()
        d[key] = value
        integer = key in ("epochs", "seed", "batch_size", "d_k", "focal_r")
        want = "an integer" if integer else "a real number"
        with pytest.raises(ValidationError, match=rf"^{key}: expected {want}, got "):
            TrainConfig.from_dict(d)

    @pytest.mark.parametrize(
        "key,value,want",
        [("eval_ks", 5, "a list of integers"), ("eval_ks", "1,5", "a list of integers"),
         ("eval_ks", [1.7, True], "an integer"), ("eval_ks", ["5"], "an integer"),
         ("eval_ks", [5, True], "an integer"), ("freeze_attention", "no", "true or false"),
         ("freeze_attention", 0, "true or false"), ("freeze_attention", None, "true or false")],
    )
    def test_from_dict_rejects_mistyped_list_or_bool(self, key, value, want):
        d = TrainConfig().to_dict()
        d[key] = value
        with pytest.raises(ValidationError, match=rf"^{key}: expected {want}, got "):
            TrainConfig.from_dict(d)

    def test_invalid_axis(self):
        """Rows are the one aggregation axis: a retired key that reads only "row"."""
        assert TrainConfig.from_dict({"agg_axis": "row"}) == TrainConfig()
        for axis in ("col", "diag", None, ["row"]):
            with pytest.raises(ValidationError,
                               match='^agg_axis: retired field, only "row" is accepted$'):
                TrainConfig.from_dict({"agg_axis": axis})
        with pytest.raises(TypeError, match="agg_axis"):
            TrainConfig(agg_axis="row")

    def test_retired_keys_are_read_but_never_written(self):
        d = TrainConfig(lam=0.5, eval_ks=(2,)).to_dict()
        assert "agg_axis" not in d and "eps" not in d
        assert len(d) == len(dataclasses.fields(TrainConfig)) == 14
        held = TrainConfig.from_dict({**d, "agg_axis": "row", "eps": 1e-12})
        assert held == TrainConfig.from_dict(d) and held.to_dict() == d
        for eps in (1e-10, "1e-12", True, 0, None):
            with pytest.raises(ValidationError,
                               match="^config.eps: retired field, only 1e-12 is accepted$"):
                TrainConfig.from_dict({"eps": eps}, "config.")

    def test_from_dict_takes_ints_for_real_fields(self):
        d = TrainConfig().to_dict()
        d.update({"lambda": 0, "lr": 1, "momentum": 0})
        cfg = TrainConfig.from_dict(d)
        assert (cfg.lam, cfg.lr, cfg.momentum) == (0, 1, 0)
        # a real field holds a float, so the int and the float write the same JSON
        assert {type(v) for v in (cfg.lam, cfg.lr, cfg.momentum)} == {float}
        d.update({"lambda": 0.0, "lr": 1.0, "momentum": 0.0})
        assert json.dumps(cfg.to_dict()) == json.dumps(TrainConfig.from_dict(d).to_dict())

    @pytest.mark.parametrize("ks", [(1.9, 2), (1, True), (np.float64(5.0),)])
    def test_rejects_non_integer_k(self, ks):
        with pytest.raises(ValidationError, match=r"^eval_ks: expected an integer, got "):
            TrainConfig(eval_ks=ks)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValidationError):
            TrainConfig(lam=-0.1)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValidationError):
            TrainConfig(strategy="rows")

    def test_unsup_has_zero_effective_weight(self):
        cfg = TrainConfig(strategy="unsup", lam=0.7)
        assert cfg.lam_effective == 0.0
        assert TrainConfig(strategy="mat_focal", lam=0.7).lam_effective == 0.7

    def test_mat_strategy_drops_focal_exponent(self):
        assert TrainConfig(strategy="mat", focal_r=2).focus_config().r == 0
        assert TrainConfig(strategy="mat_focal", focal_r=2).focus_config().r == 2
        # non-focal variants keep their shape under either strategy
        cfg = TrainConfig(strategy="mat", loss_variant="l2")
        assert cfg.focus_config().variant == "l2"


class TestModelInit:
    def test_head_dims(self):
        assert head_dim_for(6, "residual") == 6
        assert head_dim_for(6, "concat") == 12

    def test_shapes(self):
        p = init_model(6, 3, TrainConfig(d_k=4))
        assert p.w_k.shape == (4, 6)
        assert p.classifier_w.shape == (3, 6)
        assert p.classifier_b.shape == (3,)
        pc = init_model(6, 3, TrainConfig(d_k=4, head_mode="concat"))
        assert pc.classifier_w.shape == (3, 12)

    def test_rejects_zero_classes(self):
        with pytest.raises(ValidationError, match=r"^num_classes must be >= 1, got 0$"):
            init_model(3, 0, TrainConfig(d_k=2))

    def test_deterministic_and_seed_sensitive(self):
        a = init_model(5, 2, TrainConfig(seed=1))
        b = init_model(5, 2, TrainConfig(seed=1))
        c = init_model(5, 2, TrainConfig(seed=2))
        np.testing.assert_array_equal(a.classifier_w, b.classifier_w)
        np.testing.assert_array_equal(a.w_k, b.w_k)
        assert not np.array_equal(a.classifier_w, c.classifier_w)

    def test_attention_and_classifier_streams_differ(self):
        """Same seed must not hand both components the same draws."""
        p = init_model(4, 4, TrainConfig(d_k=4, seed=0))
        assert not np.array_equal(p.w_k, p.classifier_w)

    def test_copy_is_deep(self):
        p = init_model(4, 2, TrainConfig())
        q = p.copy()
        q.w_k[0, 0] += 1.0
        assert p.w_k[0, 0] != q.w_k[0, 0]


class TestForwardTask:
    def zero_params(self, n_classes, d, d_k, head_mode="residual"):
        return ModelParams(
            w_k=np.zeros((d_k, d)),
            w_q=np.zeros((d_k, d)),
            classifier_w=np.zeros((n_classes, head_dim_for(d, head_mode))),
            classifier_b=np.zeros(n_classes),
        )

    def test_zero_attention_doubles_mean_feature(self):
        """Uniform attention makes the context the mean, so the residual
        pooled vector is exactly twice the mean feature."""
        inst = check_instance(0)
        params = self.zero_params(3, d=3, d_k=2)
        fwd = forward_task(inst.entities.features, params, TrainConfig(d_k=2))
        mean_f = inst.entities.features.mean(axis=0)
        np.testing.assert_allclose(fwd.pooled, 2.0 * mean_f, atol=1e-12)

    def test_concat_pooling(self):
        inst = check_instance(1)
        params = self.zero_params(3, d=3, d_k=2, head_mode="concat")
        fwd = forward_task(inst.entities.features, params, TrainConfig(d_k=2, head_mode="concat"))
        mean_f = inst.entities.features.mean(axis=0)
        np.testing.assert_allclose(fwd.pooled[:3], mean_f, atol=1e-12)
        np.testing.assert_allclose(fwd.pooled[3:], mean_f, atol=1e-12)

    def test_pooled_is_permutation_invariant(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(5, 3))
        perm = np.array([4, 2, 0, 3, 1])
        cfg = TrainConfig(d_k=2)
        params = init_model(3, 2, cfg)
        a = forward_task(EntitySet(features=f).features, params, cfg)
        b = forward_task(EntitySet(features=f[perm]).features, params, cfg)
        np.testing.assert_allclose(a.pooled, b.pooled, atol=1e-12)
        np.testing.assert_allclose(a.class_logits, b.class_logits, atol=1e-12)

    @pytest.mark.parametrize("head_mode", ["residual", "concat"])
    def test_stack_equals_single_forwards(self, head_mode):
        """A (B, n, d) stack gives each instance's head bit for bit."""
        cfg = TrainConfig(d_k=2, head_mode=head_mode)
        params = init_model(3, 4, cfg)
        feats = [check_instance(seed, n=6).entities.features for seed in range(5)]
        stacked = forward_task(np.stack(feats), params, cfg)
        assert stacked.class_logits.shape == (5, 4)
        for b, f in enumerate(feats):
            single = forward_task(f, params, cfg)
            for name in ("context", "pooled", "class_logits"):
                assert np.array_equal(getattr(stacked, name)[b], getattr(single, name)), name
            assert np.array_equal(stacked.state.focus_weights[b], single.state.focus_weights)

    def test_zero_classifier_gives_uniform_probabilities(self):
        inst = check_instance(3)
        params = self.zero_params(4, d=3, d_k=2)
        fwd = forward_task(inst.entities.features, params, TrainConfig(d_k=2))
        z = fwd.class_logits
        p = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(p, 0.25, atol=1e-12)

    def test_dim_mismatch_names_both_shapes(self):
        inst = check_instance(4, d=3)
        params = self.zero_params(3, d=3, d_k=2)
        with pytest.raises(ShapeError, match="3"):
            forward_task(inst.entities.features, params, TrainConfig(d_k=2, head_mode="concat"))

    def test_task_loss_matches_log_softmax(self):
        z = np.array([1.0, -2.0, 0.5])
        p = np.exp(z) / np.exp(z).sum()
        for label in range(3):
            assert task_loss(z, label) == pytest.approx(-math.log(p[label]), abs=1e-12)

    def test_task_loss_stable_at_extremes(self):
        assert math.isfinite(task_loss(np.array([1e4, -1e4]), 0))
        assert task_loss(np.array([1e4, -1e4]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_task_loss_label_range(self):
        with pytest.raises(ValidationError):
            task_loss(np.array([0.0, 1.0]), 2)


class TestGradCheck:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_strategy_grid(self, variant, strategy):
        cfg = TrainConfig(
            loss_variant=variant, strategy=strategy, lam=0.7, d_k=2
        )
        for seed in range(3):
            inst = check_instance(seed)
            params = init_model(3, 3, cfg)
            err, _ = grad_check(params, inst, cfg)
            assert err < 1e-5, f"seed {seed}: {err:.2e}"

    @pytest.mark.parametrize("head_mode", ["residual", "concat"])
    def test_head_modes(self, head_mode):
        cfg = TrainConfig(head_mode=head_mode, lam=0.5, d_k=2)
        for seed in range(3):
            inst = check_instance(100 + seed)
            params = init_model(3, 3, cfg)
            assert grad_check(params, inst, cfg)[0] < 1e-5

    def test_frozen_attention_skips_projections(self):
        cfg = TrainConfig(freeze_attention=True, lam=0.5, d_k=2)
        inst = check_instance(8)
        assert grad_check(init_model(3, 3, cfg), inst, cfg)[0] < 1e-5

    def test_step_bounds(self):
        cfg = TrainConfig(d_k=2)
        inst = check_instance(9)
        params = init_model(3, 3, cfg)
        with pytest.raises(ValidationError):
            grad_check(params, inst, cfg, step=1e-8)
        with pytest.raises(ValidationError):
            grad_check(params, inst, cfg, step=1e-2)


def reference_sgd_step(arrays, velocity, grads, lr, momentum):
    """The per-name SGD loop the flat step replaced, kept as the oracle."""
    for name, a in arrays.items():
        v = velocity[name]
        v *= momentum
        v += grads[name]
        a -= lr * v


def reference_adam_step(arrays, m_state, v_state, grads, lr, t):
    """The per-name Adam loop the flat step replaced; `t` is the 1-based step."""
    b1, b2, eps = trainer._Adam.BETA1, trainer._Adam.BETA2, trainer._Adam.EPS
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, a in arrays.items():
        g = grads[name]
        m = m_state[name]
        v = v_state[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        a -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


class TestFlatParameters:
    """ModelParams keeps its arrays as views into one buffer; optimizers step it whole."""

    def params(self, seed=0):
        cfg = TrainConfig(d_k=3, seed=seed, head_mode="concat")
        return init_model(5, 4, cfg)

    def test_views_share_one_buffer(self):
        p = self.params()
        sizes = [p.arrays()[name].size for name in trainer.PARAM_NAMES]
        assert p.flat.shape == (sum(sizes),) and p.flat.flags.c_contiguous
        start = 0
        for name, size in zip(trainer.PARAM_NAMES, sizes):
            a = getattr(p, name)
            assert a.flags.c_contiguous and np.shares_memory(a, p.flat)
            assert np.array_equal(a.ravel(), p.flat[start : start + size]), name
            start += size
        p.flat[:] = np.arange(p.flat.size)
        assert p.classifier_b[-1] == p.flat.size - 1
        p.w_q[0, 0] = -7.0
        assert p.flat[p.w_k.size] == -7.0

    def test_gradient_views_share_their_buffer(self):
        p = self.params()
        buf = np.zeros_like(p.flat)
        grads = p.views(buf)
        for name in trainer.PARAM_NAMES:
            assert grads[name].shape == getattr(p, name).shape
            grads[name] += 1.0
        assert np.array_equal(buf, np.ones_like(buf))

    def test_copy_is_independent(self):
        p = self.params()
        q = p.copy()
        assert not np.shares_memory(p.flat, q.flat)
        assert np.array_equal(p.flat, q.flat)
        before = p.flat.copy()
        q.flat += 1.0
        q.w_k[0, 0] = 99.0
        assert np.array_equal(p.flat, before)
        p.classifier_b[0] = -3.0
        assert q.classifier_b[0] != -3.0

    def test_pickle_and_deepcopy_keep_one_buffer(self):
        import copy
        import pickle

        p = self.params()
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert np.array_equal(q.flat, p.flat)
            q.flat[0] += 1.0
            assert q.w_k[0, 0] == p.w_k[0, 0] + 1.0

    @pytest.mark.parametrize("optimizer", ["sgd_momentum", "adam"])
    def test_flat_step_equals_per_name_loop(self, optimizer):
        """Bit for bit, over several steps with seeded random gradients and lrs."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            p = self.params(seed)
            ref = {name: a.copy() for name, a in p.arrays().items()}
            state = [{name: np.zeros_like(a) for name, a in ref.items()} for _ in range(2)]
            cfg = TrainConfig(optimizer=optimizer, momentum=0.9)
            opt = trainer._make_optimizer(cfg, p)
            grad = np.zeros_like(p.flat)
            grads = p.views(grad)
            for t in range(1, 7):
                grad[:] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=grad.shape)
                lr = float(rng.choice([5e-4, 1e-3, 5e-5, 0.3]))
                ref_grads = {name: g.copy() for name, g in grads.items()}
                opt.step(p, grad, lr)
                if optimizer == "adam":
                    reference_adam_step(ref, state[0], state[1], ref_grads, lr, t)
                else:
                    reference_sgd_step(ref, state[0], ref_grads, lr, cfg.momentum)
                for name in trainer.PARAM_NAMES:
                    assert np.array_equal(getattr(p, name), ref[name]), (seed, t, name)

    def test_grad_check_writes_through_views(self):
        """grad_check perturbs the copy's named arrays; the forward must see it."""
        train_set, _ = tiny_dataset()
        inst = next(i for i in train_set if i.labeled)
        cfg = TrainConfig(d_k=2, lam=0.5)
        params = init_model(inst.entities.d, 3, cfg)
        before = params.flat.copy()
        assert grad_check(params, inst, cfg)[0] < 1e-5
        assert np.array_equal(params.flat, before)
        probe = params.copy()
        probe.arrays()["w_k"][0, 0] += 0.5
        assert probe.flat[0] == params.flat[0] + 0.5
        f = inst.entities.features
        assert not np.array_equal(
            forward_task(f, probe, cfg).state.logits, forward_task(f, params, cfg).state.logits
        )


class TestLearningRateSchedule:
    def test_single_cut_at_five_eighths(self):
        cfg = TrainConfig(epochs=8, lr=1e-3)
        lrs = [learning_rate(cfg, e) for e in range(8)]
        assert lrs[:5] == [1e-3] * 5
        np.testing.assert_allclose(lrs[5:], 1e-4, rtol=1e-12)

    def test_sixty_epoch_default(self):
        cfg = TrainConfig(epochs=60, lr=5e-4)
        assert learning_rate(cfg, 36) == 5e-4
        assert learning_rate(cfg, 37) == pytest.approx(5e-5, rel=1e-12)


class TestTraining:
    def test_loss_decreases(self):
        """Final combined loss must come in under the first epoch's."""
        tr, te = tiny_dataset()
        _, report = train(tr, te, TrainConfig(epochs=6, batch_size=2, d_k=2))
        assert report.epochs[-1].combined_loss < report.epochs[0].combined_loss

    def test_center_mass_rises_under_supervision(self):
        tr, te = tiny_dataset()
        _, report = train(
            tr, te, TrainConfig(epochs=8, batch_size=1, d_k=2, lam=0.05)
        )
        assert report.epochs[-1].center_mass > report.epochs[0].center_mass

    def test_deterministic(self):
        tr, te = tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=2, d_k=2)
        p1, r1 = train(tr, te, cfg)
        p2, r2 = train(tr, te, cfg)
        for a, b in zip(p1.arrays().values(), p2.arrays().values()):
            np.testing.assert_array_equal(a, b)
        # equal NaNs and signed zeros, field by field
        np.testing.assert_equal(dataclasses.asdict(r1), dataclasses.asdict(r2))

    def test_lambda_zero_identical_to_unsup(self):
        """lam=0 must follow the exact unsup trajectory, bit for bit."""
        tr, te = tiny_dataset()
        base = dict(epochs=4, batch_size=2, d_k=2, seed=3)
        p_zero, r_zero = train(tr, te, TrainConfig(lam=0.0, **base))
        p_unsup, r_unsup = train(tr, te, TrainConfig(strategy="unsup", **base))
        for a, b in zip(p_zero.arrays().values(), p_unsup.arrays().values()):
            np.testing.assert_array_equal(a, b)
        za = [dataclasses.asdict(e) for e in r_zero.epochs]
        zb = [dataclasses.asdict(e) for e in r_unsup.epochs]
        np.testing.assert_equal(za, zb)

    def test_unsup_reports_zero_relation_loss(self):
        tr, te = tiny_dataset()
        _, report = train(
            tr, te, TrainConfig(strategy="unsup", epochs=2, batch_size=2, d_k=2)
        )
        assert all(e.relation_loss == 0.0 for e in report.epochs)

    def test_zero_lr_keeps_parameters(self):
        tr, te = tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=2, d_k=2, lr=0.0)
        params, _ = train(tr, te, cfg)
        fresh = init_model(6, 2, cfg)
        for a, b in zip(params.arrays().values(), fresh.arrays().values()):
            np.testing.assert_array_equal(a, b)

    def test_frozen_attention(self):
        tr, te = tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=2, d_k=2, freeze_attention=True)
        params, report = train(tr, te, cfg)
        fresh = init_model(6, 2, cfg)
        np.testing.assert_array_equal(params.w_k, fresh.w_k)
        np.testing.assert_array_equal(params.w_q, fresh.w_q)
        assert not np.array_equal(params.classifier_w, fresh.classifier_w)
        # the relation loss is still reported; with the attention fixed it is
        # the same every epoch, up to the order of the shuffled sum
        first = report.epochs[0].relation_loss
        assert first > 0.0
        for e in report.epochs:
            assert e.relation_loss == pytest.approx(first, rel=1e-12)

    def test_adam_also_trains(self):
        tr, te = tiny_dataset()
        cfg = TrainConfig(optimizer="adam", lr=5e-3, epochs=6, batch_size=2, d_k=2)
        _, report = train(tr, te, cfg)
        assert report.epochs[-1].combined_loss < report.epochs[0].combined_loss

    def test_divergence_raises(self):
        tr, te = tiny_dataset()
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError):
                train(tr, te, TrainConfig(lr=1e200, epochs=5, batch_size=1, d_k=2))

    def test_non_finite_logits_raise_divergence(self):
        """Logits that overflow raise NonFiniteError in forward, DivergenceError in train."""
        tr, te = tiny_dataset()
        huge = check_instance(0, n=4, d=6)
        huge = Instance(
            entities=EntitySet(features=1e200 * np.ones((4, 6))),
            target=huge.target,
            label=0,
        )
        cfg = TrainConfig(epochs=1, d_k=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="logits"):
                forward_task(huge.entities.features, init_model(6, 2, cfg), cfg)
            with pytest.raises(DivergenceError, match="0 epochs completed") as info:
                train([huge] + list(tr), te, cfg)
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_non_finite_loss_raises_divergence(self, monkeypatch):
        """A non-finite loss reaches the same wrapper as non-finite logits."""
        tr, te = tiny_dataset()
        accumulate, calls = trainer._accumulate_instance, []

        def nan_on_the_fifteenth(*args):
            calls.append(None)
            t_loss, r_loss = accumulate(*args)
            return (math.nan if len(calls) == 15 else t_loss), r_loss

        monkeypatch.setattr(trainer, "_accumulate_instance", nan_on_the_fifteenth)
        cfg = TrainConfig(epochs=2, batch_size=2, d_k=2)
        with pytest.raises(DivergenceError, match=r"with 1 epochs completed: non-finite loss at epoch 2 "
                           r"\(task=nan, relation=.*\); reduce the learning rate") as info:
            train(tr, te, cfg)
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_other_validation_errors_are_not_divergence(self):
        """Only non-finite numbers mean divergence; other input errors pass through."""
        tr, te = tiny_dataset()
        bad = Instance(
            entities=EntitySet(features=te[0].entities.features),
            target=te[0].target,
            label=te[0].label,
            relations=((0, 1),),
        )
        with pytest.raises(ValidationError, match="no boxes") as info:
            train(tr, [bad], TrainConfig(epochs=1, d_k=2))
        assert not isinstance(info.value, NonFiniteError)

    def test_empty_train_set_rejected(self):
        _, te = tiny_dataset()
        with pytest.raises(ValidationError):
            train([], te, TrainConfig())

    def test_mixed_dims_rejected(self):
        tr, te = tiny_dataset()
        bad = check_instance(0, n=4, d=9)
        with pytest.raises(ValidationError):
            train(tr + [bad], te, TrainConfig(d_k=2))

    def test_report_csv_round_trips(self, tmp_path):
        tr, te = tiny_dataset()
        _, report = train(tr, te, TrainConfig(epochs=2, batch_size=2, d_k=2))
        cli._write_report(tmp_path, report)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        header, *rows = (line.split(",") for line in lines[1:])
        assert header[0] == "epoch"
        assert "recall@5" in header
        assert len(rows) == 2
        # 17 significant digits reproduce the float exactly
        combined_col = header.index("combined_loss")
        assert float(rows[0][combined_col]) == report.epochs[0].combined_loss

    def test_report_json_serializable(self, tmp_path):
        tr, te = tiny_dataset()
        _, report = train(tr, te, TrainConfig(epochs=2, batch_size=3, d_k=2))
        cli._write_report(tmp_path, report)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "lambda" in doc["config"]
        assert [e["combined_loss"] for e in doc["epochs"]] == [e.combined_loss for e in report.epochs]


class TestEvaluate:
    def test_separable_data_reaches_high_accuracy(self):
        tr, te = tiny_dataset(40, 20)
        cfg = TrainConfig(epochs=20, batch_size=2, d_k=2)
        params, _ = train(tr, te, cfg)
        result = evaluate(te, params, cfg)
        assert result.accuracy >= 0.9

    def test_custom_ks(self):
        tr, te = tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=2, d_k=2)
        params, _ = train(tr, te, cfg)
        result = evaluate(te, params, cfg, ks=(2, 4))
        assert set(result.recall) == {2, 4}

    def test_repeated_k_is_summed_once(self):
        """A cutoff given twice reports the mean recall it reports given once."""
        tr, te = tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=2, d_k=2)
        params, _ = train(tr, te, cfg)
        once = evaluate(te, params, cfg, ks=(5,))
        assert once.recall[5] > 0  # so that counting it twice shows
        assert evaluate(te, params, cfg, ks=(5, 5)).recall == once.recall

    def test_rows_align_with_instances(self):
        tr, te = tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=2, d_k=2)
        params, _ = train(tr, te, cfg)
        result = evaluate(te, params, cfg, ks=(1, 5))
        assert len(result.masses) == len(result.recalls) == len(te)
        assert all(set(scores) == {1, 5} for scores in result.recalls)
        for k in (1, 5):  # each mean adds the per-instance values in instance order
            total = 0.0
            for scores in result.recalls:
                total += scores[k]
            assert result.recall[k] == total / len(te)

    def test_vacuous_instances_skip_center_mass(self):
        """An empty target scores no center-mass: NaN in `masses`, not in the mean."""
        cfg = TrainConfig(d_k=2)
        params = init_model(3, 3, cfg)
        labeled = check_instance(0)
        vacuous = Instance(entities=labeled.entities, target=np.zeros((4, 4)), label=0)
        result = evaluate([labeled, vacuous], params, cfg, ks=(1,))
        assert (result.center_mass.n_scored, result.center_mass.n_vacuous) == (1, 1)
        only = evaluate([labeled], params, cfg, ks=(1,))
        assert result.center_mass.mean_m == only.center_mass.mean_m
        assert math.isnan(result.masses[1]) and not math.isnan(result.masses[0])

    def test_empty_dataset(self):
        cfg = TrainConfig(d_k=2)
        params = init_model(6, 2, cfg)
        result = evaluate([], params, cfg)
        assert result.n_instances == 0
        assert math.isnan(result.accuracy)

    def test_empty_dataset_every_field(self):
        """No instances: NaN accuracy and means, zero counts, no per-instance values."""
        cfg = TrainConfig(d_k=2)
        params = init_model(6, 2, cfg)
        for ks, want_ks in ((None, cfg.eval_ks), ((3, 1, 3), (3, 1, 3))):
            result = evaluate([], params, cfg, ks)
            assert math.isnan(result.accuracy)
            assert math.isnan(result.center_mass.mean_m)
            assert (result.center_mass.n_scored, result.center_mass.n_vacuous) == (0, 0)
            assert list(result.recall) == list(dict.fromkeys(want_ks))
            assert all(math.isnan(v) for v in result.recall.values())
            assert (result.n_instances, result.n_recall_vacuous) == (0, 0)
            assert (result.masses, result.recalls) == ((), ())


def set_recall_at_ks(pair_matches, gt_relations, ks):
    """{k: recall@k} of one instance by a walk over its ranked pairs' matched
    ends, with Python sets of unordered relations (evaluate's former kernel)."""
    unique_gt = {(a, b) if a < b else (b, a) for a, b in gt_relations}
    covered_at = [0]  # covered_at[p]: relations covered by the first p pairs
    covered = set()
    for a, b in pair_matches[: max(ks)].tolist():
        if a != NO_MATCH and b != NO_MATCH and a != b:
            key = (a, b) if a < b else (b, a)
            if key in unique_gt:
                covered.add(key)
        covered_at.append(len(covered))
    return {k: covered_at[min(k, len(covered_at) - 1)] / len(unique_gt) for k in ks}


def reference_evaluate(instances, params, config, ks):
    """evaluate as a plain per-instance loop: one forward and one top-K each,
    one IoU matching of all n entities, read at the pairs' ends, and a set
    walk for recall."""
    correct = 0
    scored = []
    recall_sums = {k: 0.0 for k in ks}
    n_vacuous = 0
    masses, recalls = [], []
    for inst in instances:
        fwd = forward_task(inst.entities.features, params, config)
        if int(np.argmax(fwd.class_logits)) == inst.label:
            correct += 1
        m = float("nan")
        if inst.labeled:
            m = float(np.sum(fwd.state.focus_weights * inst.target))
            scored.append(m)
        if inst.gt_relations:
            pairs, _ = top_k_pairs(fwd.state.focus_weights, max(ks))
            matches = entity_gt_matching(inst.entities.boxes, inst.entities.boxes, RECALL_IOU)
            per_k = set_recall_at_ks(matches[pairs], inst.gt_relations, ks)
        else:
            n_vacuous += 1
            per_k = {k: 1.0 for k in ks}
        for k in recall_sums:  # once per distinct K, however often it repeats
            recall_sums[k] += per_k[k]
        masses.append(m)
        recalls.append(per_k)
    n = len(instances)
    return EvalResult(
        accuracy=correct / n,
        center_mass=CenterMassSummary.of(scored, n - len(scored)),
        recall={k: recall_sums[k] / n for k in ks},
        n_instances=n,
        n_recall_vacuous=n_vacuous,
        masses=tuple(masses),
        recalls=tuple(recalls),
    )


def mixed_n_instances():
    """Entity counts 2-8 interleaved, a singleton bucket, vacuous and unlabeled instances."""
    spec = WorldSpec(
        prototypes=3.0 * np.eye(6),
        affine_pairs=((0, 1), (2, 3), (4, 5)),
        signature_pairs=((0, 1),),
        noise_sigma=0.3,
        entities_min=2,
        entities_max=8,
    )
    instances, _ = generate_dataset(spec, 40, 1, seed=3)
    big = dataclasses.replace(spec, entities_min=11, entities_max=11)
    (lone,), _ = generate_dataset(big, 1, 1, seed=4)
    out = list(instances[:20]) + [lone] + list(instances[20:])
    for i in (1, 7, 30):  # labeled target, but no gt relations: vacuous recall
        out[i] = Instance(entities=out[i].entities, target=out[i].target, label=out[i].label)
    for i in (2, 9, 33):  # gt relations scored, but nothing labeled for center-mass
        inst = out[i]
        out[i] = Instance(entities=inst.entities, target=np.zeros_like(inst.target),
                          label=inst.label, relations=inst.relations)
    return out


class TestBucketedEvaluate:
    def test_mixed_data_covers_the_cases(self):
        instances = mixed_n_instances()
        sizes = [len(b) for b in _buckets(instances)]
        assert 1 in sizes and max(sizes) > 1
        assert any(not i.gt_relations and i.labeled for i in instances)
        assert any(i.gt_relations and not i.labeled for i in instances)

    @pytest.mark.parametrize("ks", [(1, 5, 10), (2, 4)])
    @pytest.mark.parametrize("head_mode", ["residual", "concat"])
    def test_equals_per_instance_loop(self, head_mode, ks):
        instances = mixed_n_instances()
        cfg = TrainConfig(d_k=3, head_mode=head_mode, seed=1)
        params = init_model(6, 3, cfg)
        got = evaluate(instances, params, cfg, ks=ks)
        want = reference_evaluate(instances, params, cfg, ks)
        assert repr(got) == repr(want)  # NaN masses compare by repr, in instance order
        assert got.n_recall_vacuous >= 3 and got.center_mass.n_vacuous >= 3

    def test_each_instance_matches_against_its_own_boxes(self):
        """Boxes that differ within a bucket: shuffled rows, some duplicated."""
        rng = np.random.default_rng(7)
        instances = []
        for inst in mixed_n_instances():
            boxes = inst.entities.boxes[rng.permutation(inst.n)]
            if rng.random() < 0.5:
                boxes[-1] = boxes[0]  # the last entity matches the first one's object
            ents = EntitySet(features=inst.entities.features, boxes=boxes)
            instances.append(Instance(entities=ents, target=inst.target, label=inst.label,
                                      relations=inst.relations))
        cfg = TrainConfig(d_k=3, seed=2)
        params = init_model(6, 3, cfg)
        got = evaluate(instances, params, cfg, ks=(1, 3, 10))
        assert repr(got) == repr(reference_evaluate(instances, params, cfg, (1, 3, 10)))

    def test_buckets_group_by_n_in_first_seen_order(self):
        sizes = [5, 3, 5, 7, 3, 5]
        instances = [check_instance(i, n=n) for i, n in enumerate(sizes)]
        assert _buckets(instances) == [[0, 2, 5], [1, 4], [3]]
        assert _buckets([]) == []

    def test_one_forward_per_bucket(self, monkeypatch):
        calls = {"forward": 0, "top_k_pairs": 0, "matching": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(trainer.attention, "forward",
                            counting("forward", trainer.attention.forward))
        monkeypatch.setattr(trainer, "top_k_pairs", counting("top_k_pairs", top_k_pairs))
        monkeypatch.setattr(trainer, "entity_gt_matching",
                            counting("matching", entity_gt_matching))
        instances = mixed_n_instances()
        cfg = TrainConfig(d_k=3)
        params = init_model(6, 3, cfg)
        evaluate(instances, params, cfg)
        n_buckets = len(_buckets(instances))
        assert calls == {"forward": n_buckets, "top_k_pairs": n_buckets, "matching": n_buckets}

        # drop every relation of the first bucket: it still runs its forward,
        # but ranks and matches nothing
        first = set(_buckets(instances)[0])
        mixed = [
            Instance(entities=inst.entities, target=inst.target, label=inst.label)
            if i in first else inst
            for i, inst in enumerate(instances)
        ]
        calls.update(forward=0, top_k_pairs=0, matching=0)
        evaluate(mixed, params, cfg)
        assert calls == {"forward": n_buckets, "top_k_pairs": n_buckets - 1,
                         "matching": n_buckets - 1}

        calls.update(forward=0, top_k_pairs=0, matching=0)
        no_gt = [inst for inst in instances if not inst.gt_relations]
        evaluate(no_gt, params, cfg)  # nothing to rank: top-K and matching stay idle
        assert calls == {"forward": len(_buckets(no_gt)), "top_k_pairs": 0, "matching": 0}

        calls.update(forward=0, top_k_pairs=0, matching=0)
        tr, te = instances[:30], instances[30:]
        train(tr, te, dataclasses.replace(cfg, epochs=1))
        # one forward per training step and one per test bucket; the train-split
        # center-mass takes only the logits and the matrix softmax
        assert calls["forward"] == len(tr) + len(_buckets(te))

    @pytest.mark.parametrize("strategy", ["mat_focal", "row"])
    def test_train_center_mass_is_the_forward_focus_mass(self, monkeypatch, strategy):
        """Each epoch's train-split center-mass is, bit for bit, the mass of
        `attention.forward`'s focus weights at that epoch's parameters."""
        instances = mixed_n_instances()
        tr, te = instances[:30], instances[30:]
        assert any(not inst.labeled for inst in tr) and len(_buckets(tr)) > 1
        epoch_params = []
        real_evaluate = trainer.evaluate

        def recording(instances, params, config, ks=None):  # runs right after the pass
            epoch_params.append(params.copy())
            return real_evaluate(instances, params, config, ks)

        monkeypatch.setattr(trainer, "evaluate", recording)
        cfg = TrainConfig(d_k=3, epochs=3, lr=0.05, lam=0.5, strategy=strategy, seed=5)
        _, report = train(tr, te, cfg)
        labeled = [inst for inst in tr if inst.labeled]
        for stats, params in zip(report.epochs, epoch_params, strict=True):
            masses = [
                float(np.add.reduce(trainer.attention.forward(inst.entities.features, params)
                                    .focus_weights * inst.target, axis=None))
                for inst in labeled
            ]
            want = CenterMassSummary.of(masses, len(tr) - len(labeled)).mean_m
            assert stats.center_mass.hex() == want.hex()

    def test_box_less_instance_in_a_bucket_raises_only_with_relations(self):
        instances = mixed_n_instances()
        bucket = next(b for b in _buckets(instances)
                      if sum(bool(instances[i].gt_relations) for i in b) > 2)
        i = [i for i in bucket if instances[i].gt_relations][1]
        inst = instances[i]
        boxless = EntitySet(features=inst.entities.features)
        cfg = TrainConfig(d_k=3)
        params = init_model(6, 3, cfg)

        with_gt = list(instances)
        with_gt[i] = Instance(entities=boxless, target=inst.target, label=inst.label,
                              relations=inst.relations)
        with pytest.raises(ValidationError, match="entities have no boxes"):
            evaluate(with_gt, params, cfg)

        without_gt = list(instances)
        without_gt[i] = Instance(entities=boxless, target=inst.target, label=inst.label)
        got = evaluate(without_gt, params, cfg)
        assert got.n_recall_vacuous == evaluate(instances, params, cfg).n_recall_vacuous + 1

    @pytest.mark.parametrize("ks", [(0, 5), (), (-1,)])
    def test_rejects_bad_ks(self, ks):
        cfg = TrainConfig(d_k=2)
        params = init_model(3, 3, cfg)
        with pytest.raises(ValidationError, match="ks must be positive ints"):
            evaluate([check_instance(0)], params, cfg, ks=ks)


WHOLE = 2**62  # a cell budget no bucket reaches: every bucket runs whole


class TestCellBudget:
    """Every stack of n x n arrays holds at most trainer.STACK_CELLS cells,
    or one matrix when n^2 alone passes them; the chunks give the
    whole-bucket results bit for bit."""

    @staticmethod
    def chunk_cases(instances, budget):
        """(a group is not a multiple of its chunk size, a size's n^2 passes the budget)"""
        groups = {}
        for inst in instances:
            groups[inst.n] = groups.get(inst.n, 0) + 1
        uneven = any(b % max(1, budget // (n * n)) for n, b in groups.items())
        return uneven, max(groups) ** 2 > budget

    def test_buckets_chunk_in_first_seen_order(self, monkeypatch):
        sizes = [5, 3, 5, 7, 3, 5, 5, 5]
        instances = [check_instance(i, n=n) for i, n in enumerate(sizes)]
        assert _buckets(instances) == [[0, 2, 5, 6, 7], [1, 4], [3]]
        monkeypatch.setattr(trainer, "STACK_CELLS", 50)  # chunks of 2 at n = 5, 5 at 3, 1 at 7
        assert _buckets(instances) == [[0, 2], [5, 6], [7], [1, 4], [3]]
        monkeypatch.setattr(trainer, "STACK_CELLS", 48)  # 7 x 7 alone passes it
        assert _buckets(instances) == [[0], [2], [5], [6], [7], [1, 4], [3]]

    def test_default_budget(self):
        assert trainer.STACK_CELLS == 2**14
        docs = [check_instance(i, n=n) for i, n in enumerate([48, 64] * 8)]
        assert [len(b) for b in _buckets(docs)] == [7, 1, 4, 4]
        scenes = [check_instance(i, n=8) for i in range(256)]
        assert [len(b) for b in _buckets(scenes)] == [256]

    @pytest.mark.parametrize("budget", [100, 40, 1])
    def test_chunked_evaluate_equals_whole_buckets(self, monkeypatch, budget):
        instances = mixed_n_instances()
        assert self.chunk_cases(instances, budget) == (budget > 1, True)
        cfg = TrainConfig(d_k=3, seed=1)
        params = init_model(6, 3, cfg)
        monkeypatch.setattr(trainer, "STACK_CELLS", WHOLE)
        whole = evaluate(instances, params, cfg, ks=(1, 5, 10))
        n_whole = len(_buckets(instances))
        monkeypatch.setattr(trainer, "STACK_CELLS", budget)
        assert len(_buckets(instances)) > n_whole
        got = evaluate(instances, params, cfg, ks=(1, 5, 10))
        assert repr(got) == repr(whole)  # NaN masses compare by repr, in instance order
        assert got.n_recall_vacuous >= 3 and got.center_mass.n_vacuous >= 3

    @pytest.mark.parametrize("budget", [100, 1])
    def test_chunked_training_equals_whole_buckets(self, monkeypatch, budget):
        """The train-split center-mass pass and each epoch's evaluate."""
        instances = mixed_n_instances()
        tr, te = instances[:30], instances[30:]
        assert self.chunk_cases([inst for inst in tr if inst.labeled], budget) == (budget > 1, True)
        cfg = TrainConfig(d_k=3, epochs=3, lr=0.05, lam=0.5, seed=5)
        monkeypatch.setattr(trainer, "STACK_CELLS", WHOLE)
        _, whole = train(tr, te, cfg)
        monkeypatch.setattr(trainer, "STACK_CELLS", budget)
        _, got = train(tr, te, cfg)
        assert repr(got) == repr(whole)
        assert [e.center_mass.hex() for e in got.epochs] == [e.center_mass.hex() for e in whole.epochs]

    def test_evaluate_memory_is_bounded_at_proposal_scale(self):
        """16 scenes of 300 entities: a whole bucket's stacks peaked at ~64 MB
        under tracemalloc; one scene at a time holds a few 0.72 MB n x n
        arrays, ~3.0 MB in all."""
        spec = dataclasses.replace(default_world_spec(), entities_min=300, entities_max=300)
        scenes, _ = generate_dataset(spec, 16, 1, seed=3)
        assert all(inst.labeled and len(inst.relations) for inst in scenes)
        cfg = TrainConfig(seed=0)
        params = init_model(scenes[0].entities.d, 8, cfg)
        tracemalloc.start()
        try:
            evaluate(scenes, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak

    def test_one_scene_evaluate_keeps_only_the_focus_weights(self):
        """Past its forward a chunk keeps only its focus weights and predicted
        classes, so a one-scene evaluate at n = 300 peaks in the forward's own
        three n x n arrays: 3.15 arrays under tracemalloc (x86-64, numpy 2.4),
        against 5.6 when top-K ran beside the whole forward and a copy of its
        focus weights."""
        n = 300
        spec = dataclasses.replace(default_world_spec(), entities_min=n, entities_max=n)
        scenes, _ = generate_dataset(spec, 1, 1, seed=3)
        cfg = TrainConfig(seed=0)
        params = init_model(scenes[0].entities.d, 8, cfg)
        evaluate(scenes, params, cfg)  # the n = 300 cell caches are built outside the measurement
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluate(scenes, params, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8, peak / (n * n * 8)


SIZES = (2, 3, 4, 6, 10, 11, 12, 20, 21, 25)  # around 2k' = n for K = 1, 5 and 10


def proposal_instances(sizes, seed, per_size=3):
    """per_size scenes of each entity count, interleaved across counts. Each
    scene's boxes are shuffled, some rows copied from another entity (the copy
    best-matches the lower-indexed object, so the matching is not the
    identity) and one shifted part-way onto another box (IoU 0.6)."""
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        spec = WorldSpec(prototypes=3.0 * np.eye(6), affine_pairs=((0, 1), (2, 3), (4, 5)),
                         signature_pairs=((0, 1),), noise_sigma=0.3,
                         entities_min=n, entities_max=n)
        scenes, _ = generate_dataset(spec, per_size, 1, seed=seed + n)
        for inst in scenes:
            boxes = inst.entities.boxes[rng.permutation(n)]
            for src, dst in rng.integers(0, n, size=(max(1, n // 4), 2)):
                boxes[dst] = boxes[src]
            src, dst = rng.integers(0, n, size=2)
            boxes[dst] = boxes[src] + (0.25, 0.0, 0.25, 0.0)
            ents = EntitySet(features=inst.entities.features, boxes=boxes)
            out.append(Instance(entities=ents, target=inst.target, label=inst.label,
                                relations=inst.relations))
    return [out[i] for i in rng.permutation(len(out))]


class TestPairEndMatching:
    """evaluate IoU-matches only the 2k' ends of each scene's top-k' pairs when
    those are fewer than the n entities, and all n otherwise; either way its
    result equals the per-instance loop, which matches all n, bit for bit."""

    @pytest.mark.parametrize("ks", [(1,), (5,), (10,), (1, 5, 10), (300,)])
    def test_equals_per_instance_loop(self, ks):
        instances = proposal_instances(SIZES, seed=11)
        assert any(not np.array_equal(
            entity_gt_matching(i.entities.boxes, i.entities.boxes, RECALL_IOU),
            np.arange(i.n)) for i in instances)
        cfg = TrainConfig(d_k=3, seed=5)
        params = init_model(6, 3, cfg)
        got = evaluate(instances, params, cfg, ks=ks)
        assert repr(got) == repr(reference_evaluate(instances, params, cfg, ks))
        # not vacuous: some scene whose pair ends were gathered covers a relation
        k = max(ks)
        gathered = [r for i, r in zip(instances, got.recalls) if 2 * k < i.n and i.gt_relations]
        assert k == 300 or any(r[k] > 0 for r in gathered)

    def test_300_entity_scenes_at_default_ks(self):
        """A bucket of two box-proposal-sized scenes, each related on a random
        half of its pairs, so that the top 10 pairs cover some relations."""
        rng = np.random.default_rng(4)
        rows, cols = np.triu_indices(300, 1)
        instances = []
        for inst in proposal_instances((300,), seed=8, per_size=2):
            keep = rng.random(rows.size) < 0.5
            relations = tuple(zip(rows[keep].tolist(), cols[keep].tolist()))
            instances.append(dataclasses.replace(inst, relations=relations))
        cfg = TrainConfig(d_k=4, seed=3)
        params = init_model(6, 3, cfg)
        got = evaluate(instances, params, cfg)
        assert repr(got) == repr(reference_evaluate(instances, params, cfg, cfg.eval_ks))
        assert any(0 < r[k] < 1 for r in got.recalls for k in cfg.eval_ks)

    @pytest.mark.parametrize("k", [1, 5, 10, 300])
    def test_matches_the_pair_ends_only_when_fewer(self, monkeypatch, k):
        calls = []

        def recording(boxes, gt_boxes, iou_threshold):
            calls.append((boxes, gt_boxes))
            return entity_gt_matching(boxes, gt_boxes, iou_threshold)

        monkeypatch.setattr(trainer, "entity_gt_matching", recording)
        instances = proposal_instances(SIZES, seed=11)
        cfg = TrainConfig(d_k=3, seed=5)
        evaluate(instances, init_model(6, 3, cfg), cfg, ks=(k,))
        sizes = [instances[idx[0]].n for idx in _buckets(instances)
                 if any(instances[i].gt_relations for i in idx)]
        assert len(calls) == len(sizes) == len(SIZES)
        branches = set()
        for (ents, gt), n in zip(calls, sizes):
            ends = 2 * min(k, n * (n - 1) // 2)
            assert gt.shape[1:] == (n, 4)
            if ends < n:
                assert ents.shape == (gt.shape[0], ends, 4)
                assert not np.shares_memory(ents, gt)
            else:
                assert ents is gt
            branches.add((ends > n) - (ends < n))
        assert 0 in branches  # n = 2 has one pair: 2k' = n at every K
        assert (-1 in branches) == (k < 300)


class TestBucketRecall:
    """evaluate scores each bucket's recall in one array pass
    (`metrics._bucket_recall`); it equals the per-instance set walk of
    reference_evaluate bit for bit."""

    def test_reversed_and_repeated_relations(self):
        """Relations listed in either orientation and more than once, in
        buckets of several scenes whose duplicated boxes let two top-K pairs
        cover one relation; K above some scenes' pair counts, and repeated."""
        rng = np.random.default_rng(21)
        instances = []
        for inst in proposal_instances(SIZES, seed=12):
            relations = inst.relations[:, ::-1] if rng.random() < 0.5 else inst.relations
            if len(relations):
                relations = np.concatenate([relations, inst.relations[rng.integers(0, len(relations), 3)]])
            instances.append(dataclasses.replace(inst, relations=relations))
        assert any(len(i.gt_relations) > len(set(map(frozenset, i.gt_relations))) for i in instances)
        ks = (5, 1, 5, 60)
        cfg = TrainConfig(d_k=3, seed=6)
        params = init_model(6, 3, cfg)
        got = evaluate(instances, params, cfg, ks=ks)
        assert repr(got) == repr(reference_evaluate(instances, params, cfg, ks))
        assert list(got.recall) == [5, 1, 60]

    def test_300_entity_scenes_at_40000(self):
        """Two 300-entity scenes, each related on a random fifth of its pairs,
        ranked to K = 40,000 of their 44,850 pairs."""
        rng = np.random.default_rng(5)
        rows, cols = np.triu_indices(300, 1)
        instances = []
        for inst in proposal_instances((300,), seed=9, per_size=2):
            keep = rng.random(rows.size) < 0.2
            instances.append(dataclasses.replace(inst, relations=np.stack((rows[keep], cols[keep]), 1)))
        ks = (10, 40_000)
        cfg = TrainConfig(d_k=4, seed=3)
        params = init_model(6, 3, cfg)
        got = evaluate(instances, params, cfg, ks=ks)
        assert repr(got) == repr(reference_evaluate(instances, params, cfg, ks))
        assert all(0 < r[40_000] < 1 for r in got.recalls)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        tr, te = tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=2, d_k=2)
        params, _ = train(tr, te, cfg)
        p = tmp_path / "ckpt.json"
        save_checkpoint(p, params, cfg)
        loaded_params, loaded_cfg = load_checkpoint(p)
        assert loaded_cfg == cfg
        assert loaded_params.num_classes == 2
        for a, b in zip(params.arrays().values(), loaded_params.arrays().values()):
            np.testing.assert_array_equal(a, b)

    def test_save_is_byte_stable(self, tmp_path):
        cfg = TrainConfig(d_k=2)
        params = init_model(4, 3, cfg)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, params, cfg)
        save_checkpoint(p2, params, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_format_tag(self, tmp_path):
        p = tmp_path / "ckpt.json"
        p.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ValidationError):
            load_checkpoint(p)

    def test_rejects_wrong_version(self, tmp_path):
        cfg = TrainConfig(d_k=2)
        params = init_model(4, 3, cfg)
        p = tmp_path / "ckpt.json"
        save_checkpoint(p, params, cfg)
        blob = json.loads(p.read_text())
        blob["version"] = 99
        p.write_text(json.dumps(blob))
        with pytest.raises(ValidationError, match="version"):
            load_checkpoint(p)

    @pytest.mark.parametrize("name", ["w_k", "w_q", "classifier_w", "classifier_b"])
    def test_model_params_reject_non_finite(self, name):
        arrays = init_model(4, 3, TrainConfig(d_k=2)).arrays()
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = np.nan
        with pytest.raises(NonFiniteError, match=f"{name} contains non-finite entries"):
            ModelParams(**arrays)

    def test_rejects_non_finite_array(self, tmp_path):
        cfg = TrainConfig(d_k=2)
        params = init_model(4, 3, cfg)
        params.w_q[1, 2] = np.inf  # bypasses the constructor, as a corrupt file would
        p = tmp_path / "ckpt.json"
        save_checkpoint(p, params, cfg)
        with pytest.raises(NonFiniteError, match="w_q contains non-finite entries"):
            load_checkpoint(p)

    def test_rejects_inconsistent_class_count(self, tmp_path):
        cfg = TrainConfig(d_k=2)
        params = init_model(4, 3, cfg)
        p = tmp_path / "ckpt.json"
        save_checkpoint(p, params, cfg)
        blob = json.loads(p.read_text())
        blob["num_classes"] = 5
        p.write_text(json.dumps(blob))
        with pytest.raises(ValidationError, match="num_classes"):
            load_checkpoint(p)

    def test_size_fields_may_be_absent(self, tmp_path):
        cfg = TrainConfig(d_k=2)
        params = init_model(4, 3, cfg)
        p = tmp_path / "ckpt.json"
        save_checkpoint(p, params, cfg)
        blob = json.loads(p.read_text())
        for name in ("num_classes", "feature_dim", "head_dim"):
            del blob[name]
        p.write_text(json.dumps(blob))
        loaded, _ = load_checkpoint(p)
        assert (loaded.num_classes, loaded.d, loaded.head_dim) == (3, 4, 4)


class TestAblation:
    def test_empty_grid_expands_to_nothing(self):
        assert cli._ablation_cells(TrainConfig(), {}) == []

    def test_product_order_and_ids(self):
        cells = cli._ablation_cells(
            TrainConfig(d_k=2), {"strategy": ["unsup", "mat"], "lambda": [0.0, 0.5]}
        )
        ids = [c[0] for c in cells]
        assert ids == [
            'strategy="unsup",lambda=0.0',
            'strategy="unsup",lambda=0.5',
            'strategy="mat",lambda=0.0',
            'strategy="mat",lambda=0.5',
        ]
        assert cells[1][1].strategy == "unsup" and cells[1][1].lam == 0.5

    def test_rejects_non_list_values(self):
        with pytest.raises(ValidationError):
            cli._ablation_cells(TrainConfig(), {"epochs": 3})

    def test_rejects_unknown_field(self):
        with pytest.raises(ValidationError):
            cli._ablation_cells(TrainConfig(), {"learning_rate": [0.1]})
