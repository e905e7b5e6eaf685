"""Pairwise attention forward/backward against loop oracles and finite differences."""

import warnings

import numpy as np
import pytest

from fanet import attention
from fanet.attention import (
    AttentionParams,
    EntitySet,
    aggregate,
    backward,
    forward,
    _row_softmax_vjp,
    _softmaxes,
    init_params,
)
from fanet.matrices import NonFiniteError, ShapeError, ValidationError, _softmax, softmax_matrix
from fanet.synthgen import Instance
from fanet.trainer import TrainConfig, _accumulate_instance, _head, _task_loss_grad, init_model

FD_STEP = 1e-5
FD_RTOL = 1e-6


def random_problem(seed, n=5, d=4, d_k=3):
    rng = np.random.default_rng(seed)
    entities = EntitySet(features=rng.normal(size=(n, d)))
    params = AttentionParams(
        w_k=rng.normal(size=(d_k, d)), w_q=rng.normal(size=(d_k, d))
    )
    return entities, params


class TestEntitySetBoxes:
    @pytest.mark.parametrize(
        "bad",
        [
            [2, 0, 1, 1],  # x1 > x2
            [0, 1, 1, 1],  # y1 == y2
            [0, 0, float("nan"), 1],
            [0, 0, float("inf"), 1],
            [float("-inf"), 0, 1, 1],
        ],
    )
    def test_rejects_bad_box(self, bad):
        with pytest.raises(ValidationError):
            EntitySet(features=np.zeros((2, 3)), boxes=[[0, 0, 1, 1], bad])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            EntitySet(features=np.zeros((2, 3)), boxes=[[0, 0, 1, 1]])

    def test_stores_float64(self):
        ents = EntitySet(features=np.zeros((1, 3)), boxes=[[0, 0, 1, 2]])
        assert ents.boxes.dtype == np.float64 and ents.boxes.shape == (1, 4)


def logits(entities, params):
    return forward(entities.features, params).logits


class TestLogits:
    def test_matches_elementwise_oracle(self):
        """W[m, n] is the scaled dot product of projected key m and query n."""
        entities, params = random_problem(0)
        w = logits(entities, params)
        scale = np.sqrt(params.d_k)
        for m in range(entities.n):
            for n in range(entities.n):
                key = params.w_k @ entities.features[m]
                query = params.w_q @ entities.features[n]
                assert w[m, n] == pytest.approx(key @ query / scale, rel=1e-12)

    def test_quadratic_feature_scaling(self):
        """Scaling every feature by c scales every logit by c^2.

        Both projections are linear in the features, and the logit is their
        product, so the map is exactly quadratic in a global feature scale.
        """
        entities, params = random_problem(1)
        base = logits(entities, params)
        for c in (0.5, 2.0, -3.0):
            scaled = EntitySet(features=c * entities.features)
            np.testing.assert_allclose(
                logits(scaled, params), c * c * base, rtol=1e-12, atol=1e-12
            )

    def test_permutation_equivariance(self):
        entities, params = random_problem(2, n=6)
        base = logits(entities, params)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = EntitySet(features=entities.features[perm])
        np.testing.assert_allclose(
            logits(permuted, params),
            base[np.ix_(perm, perm)],
            rtol=1e-12,
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        entities, _ = random_problem(3, d=4)
        _, params = random_problem(3, d=5)
        with pytest.raises(ShapeError):
            logits(entities, params)


class TestForward:
    def test_normalizations(self):
        entities, params = random_problem(4)
        state = forward(entities.features, params)
        keys = entities.features @ params.w_k.T
        queries = entities.features @ params.w_q.T
        np.testing.assert_allclose(state.logits, keys @ queries.T / np.sqrt(params.d_k))
        np.testing.assert_allclose(state.agg_weights.sum(axis=1), 1.0, atol=1e-12)
        assert state.focus_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_logits_raise(self):
        """Parameters that overflow the logits are caught at the logits check."""
        entities, _ = random_problem(6)
        params = AttentionParams(w_k=np.full((3, 4), 1e200), w_q=np.full((3, 4), 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="logits contains non-finite"):
                forward(entities.features, params)

    def test_caches_projections(self):
        entities, params = random_problem(7)
        state = forward(entities.features, params)
        np.testing.assert_allclose(state.proj_keys, entities.features @ params.w_k.T)
        np.testing.assert_allclose(
            state.proj_queries, entities.features @ params.w_q.T
        )


def far_row_logits(seed, below):
    """Random 6 x 6 logits whose row 2 lies `below` under the rest."""
    w = np.random.default_rng(seed).normal(size=(6, 6))
    w[2] -= below
    return w


class TestOneExp:
    """Both softmaxes come from one exp(W - max W) per matrix."""

    @pytest.mark.parametrize("seed", range(3))
    def test_focus_is_the_matrix_softmax_bit_for_bit(self, seed):
        w = np.random.default_rng(seed).normal(scale=3.0, size=(9, 9))
        focus, agg = _softmaxes(w)
        assert np.array_equal(focus, _softmax(w, (-2, -1)))
        np.testing.assert_allclose(agg, _softmax(w, -1), rtol=0, atol=1e-15)

    def test_row_800_below_takes_its_own_max(self):
        w = far_row_logits(20, 800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            focus, agg = _softmaxes(w)
        assert np.array_equal(agg[2], _softmax(w, -1)[2])
        np.testing.assert_allclose(agg, _softmax(w, -1), rtol=0, atol=1e-15)
        assert np.array_equal(focus, _softmax(w, (-2, -1)))

    def test_row_600_below_shares_the_matrix_max(self):
        w = far_row_logits(21, 600.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, agg = _softmaxes(w)
        assert np.abs(agg[2] - _softmax(w, -1)[2]).max() <= 1e-16

    def test_stack_with_a_far_row_equals_single_matrices(self):
        mats = [far_row_logits(22, 0.0), far_row_logits(23, 800.0), far_row_logits(24, 600.0)]
        focus, agg = _softmaxes(np.stack(mats))
        for b, w in enumerate(mats):
            single_focus, single_agg = _softmaxes(w)
            assert np.array_equal(focus[b], single_focus)
            assert np.array_equal(agg[b], single_agg)


class TestStackedForward:
    """A (B, n, d) stack is B single forwards, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 300])
    def test_stack_equals_single_forwards(self, n):
        rng = np.random.default_rng(n)
        d, d_k = 5, 3
        batch = 2 if n == 300 else 6
        feats = [EntitySet(features=rng.normal(size=(n, d))).features for _ in range(batch)]
        params = AttentionParams(w_k=rng.normal(size=(d_k, d)), w_q=rng.normal(size=(d_k, d)))
        stack = np.stack(feats)
        stacked = forward(stack, params)
        assert stacked.focus_weights.shape == (batch, n, n)
        context = aggregate(stacked, stack)
        for b, f in enumerate(feats):
            single = forward(f, params)
            for name in ("logits", "agg_weights", "focus_weights", "proj_keys", "proj_queries"):
                assert np.array_equal(getattr(stacked, name)[b], getattr(single, name)), name
            assert np.array_equal(context[b], aggregate(single, f))
            assert np.array_equal(single.focus_weights, softmax_matrix(single.logits))

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 4, 4)])
    def test_rejects_other_ranks(self, shape):
        _, params = random_problem(17, d=4)
        with pytest.raises(ShapeError):
            forward(np.zeros(shape), params)


class TestAggregate:
    def test_weighted_sum(self):
        entities, params = random_problem(8)
        state = forward(entities.features, params)
        out = aggregate(state, entities.features)
        np.testing.assert_allclose(out, state.agg_weights @ entities.features)

    def test_identical_entities_give_mean(self):
        """Uniform attention over identical rows reproduces each row."""
        f = np.tile([[1.0, -2.0, 0.5]], (4, 1))
        entities = EntitySet(features=f)
        params = init_params(d=3, d_k=2, seed=0)
        out = aggregate(forward(entities.features, params), f)
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_row_count_mismatch(self):
        entities, params = random_problem(9)
        state = forward(entities.features, params)
        with pytest.raises(ShapeError):
            aggregate(state, entities.features[:-1])


class TestInitParams:
    def test_deterministic(self):
        a = init_params(d=6, d_k=3, seed=42)
        b = init_params(d=6, d_k=3, seed=42)
        np.testing.assert_array_equal(a.w_k, b.w_k)
        np.testing.assert_array_equal(a.w_q, b.w_q)

    def test_seeds_differ(self):
        a = init_params(d=6, d_k=3, seed=0)
        b = init_params(d=6, d_k=3, seed=1)
        assert not np.array_equal(a.w_k, b.w_k)

    def test_bound_and_shape(self):
        p = init_params(d=16, d_k=4, seed=3)
        assert p.w_k.shape == (4, 16) and p.w_q.shape == (4, 16)
        bound = 1.0 / np.sqrt(16)
        assert np.all(np.abs(p.w_k) <= bound)
        assert np.all(np.abs(p.w_q) <= bound)

    def test_rejects_degenerate_dims(self):
        for d, d_k in ((0, 2), (3, 0)):
            with pytest.raises(ValidationError, match="d and d_k must be >= 1"):
                init_params(d=d, d_k=d_k, seed=0)


def test_params_keep_their_own_copies():
    """A NaN written through the caller's array after construction cannot
    get past the finiteness check, as with EntitySet."""
    w = np.ones((2, 3))
    p = AttentionParams(w, w.copy())
    w[0, 0] = np.nan
    assert np.isfinite(p.w_k).all() and not np.shares_memory(p.w_k, w)
    assert p.w_k.dtype == np.float64 and p.w_k.flags.c_contiguous


def fd_gradient(loss_fn, array, step=FD_STEP):
    """Central finite differences of a scalar function, entry by entry."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + step
        up = loss_fn()
        array[idx] = orig - step
        down = loss_fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def assert_close_rel(analytic, fd, rtol=FD_RTOL):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-10)
    worst = np.max(np.abs(analytic - fd) / denom)
    assert worst < rtol, f"worst relative error {worst:.3e}"


class TestBackward:
    @pytest.mark.parametrize("seed", range(20))
    def test_finite_differences(self, seed):
        """Analytic grads of sum(C * W) track central differences per seed."""
        rng = np.random.default_rng(1000 + seed)
        n, d, d_k = 5, 4, 3
        features = rng.normal(size=(n, d))
        w_k = rng.normal(size=(d_k, d))
        w_q = rng.normal(size=(d_k, d))
        cotangent = rng.normal(size=(n, n))

        def loss():
            ent = EntitySet(features=features)
            par = AttentionParams(w_k=w_k, w_q=w_q)
            return float(np.sum(cotangent * logits(ent, par)))

        entities = EntitySet(features=features.copy())
        params = AttentionParams(w_k=w_k.copy(), w_q=w_q.copy())
        state = forward(entities.features, params)
        d_w_k, d_w_q = backward(state, cotangent, entities, params)

        assert_close_rel(d_w_k, fd_gradient(loss, w_k))
        assert_close_rel(d_w_q, fd_gradient(loss, w_q))

    def test_zero_cotangent(self):
        entities, params = random_problem(11)
        state = forward(entities.features, params)
        grads = backward(state, np.zeros((entities.n, entities.n)), entities, params)
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_cotangent_shape_checked(self):
        entities, params = random_problem(12)
        state = forward(entities.features, params)
        with pytest.raises(ShapeError):
            backward(state, np.zeros((2, 2)), entities, params)


def row_jacobian_vjp(softmax_out, grad_out):
    """Oracle: per-row multiply by the explicit softmax Jacobian."""
    out = np.zeros_like(grad_out)
    for i, a in enumerate(softmax_out):
        jac = np.diag(a) - np.outer(a, a)
        out[i] = grad_out[i] @ jac
    return out


def step_d_logits(monkeypatch, inst, head_mode):
    """The logit gradient `_accumulate_instance` hands to `attention.backward`
    for the task path alone, and the step's attention state."""
    seen = {}

    def capture(state, d_logits, entities, params):
        seen.update(state=state, d_logits=d_logits.copy())
        return np.zeros_like(params.w_k), np.zeros_like(params.w_q)

    monkeypatch.setattr(attention, "backward", capture)
    cfg = TrainConfig(d_k=3, head_mode=head_mode)
    params = init_model(inst.entities.d, 3, cfg)
    _accumulate_instance(inst, params, cfg, params.views(np.zeros_like(params.flat)), 1.0, 0.0)
    return seen["d_logits"], seen["state"], params


def step_instance(seed, n, d=4):
    rng = np.random.default_rng(seed)
    return Instance(entities=EntitySet(features=rng.normal(size=(n, d))),
                    target=np.zeros((n, n)), label=int(rng.integers(0, 3)))


class TestSoftmaxVjps:
    def test_rows_vs_explicit_jacobian(self):
        rng = np.random.default_rng(13)
        a = _softmax(rng.normal(size=(6, 5)), 1)
        u = rng.normal(size=5)
        np.testing.assert_allclose(
            _row_softmax_vjp(a, u), row_jacobian_vjp(a, np.tile(u, (6, 1))), rtol=1e-12, atol=1e-12
        )

    def test_vjp_of_uniform_gradient_is_zero(self):
        """A constant upstream gradient is in the softmax null space."""
        a = _softmax(np.random.default_rng(16).normal(size=(4, 4)), -1)
        np.testing.assert_allclose(_row_softmax_vjp(a, np.full(4, 3.7)), 0.0, atol=1e-15)

    @pytest.mark.parametrize("head_mode", ["residual", "concat"])
    def test_step_vjp_vs_explicit_jacobian(self, monkeypatch, head_mode):
        """The step's closed form against the Jacobian of each materialized row
        of d_agg = d_context @ F.T, d_context holding n copies of the pooled
        gradient's context part over n."""
        inst = step_instance(17, 7)
        got, state, params = step_d_logits(monkeypatch, inst, head_mode)
        f = inst.entities.features
        _, class_logits = _head(f, state.agg_weights @ f, params, head_mode)
        _, dz = _task_loss_grad(class_logits, inst.label)
        d_context = np.tile((params.classifier_w.T @ dz)[-f.shape[1]:] / inst.n, (inst.n, 1))
        want = row_jacobian_vjp(state.agg_weights, d_context @ f.T)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("head_mode", ["residual", "concat"])
    def test_step_vjp_is_zero_for_one_entity(self, monkeypatch, head_mode):
        got, _, _ = step_d_logits(monkeypatch, step_instance(18, 1), head_mode)
        assert got.shape == (1, 1) and got[0, 0] == 0.0
