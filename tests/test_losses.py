"""Center-mass loss family: frozen high-precision values and gradient checks.

Oracle constants were computed with mpmath at 50 decimal digits and frozen
here to 17 significant digits. The underflow tests compute theirs with
mpmath as they run.
"""

import math
import re

import numpy as np
import pytest

from fanet.losses import (
    FocusLossConfig,
    center_mass,
    focal_loss,
    l2_loss,
    loss_grad,
    loss_value,
    relation_loss,
    smooth_l1_loss,
)
from fanet.matrices import ShapeError, ValidationError, _softmax, softmax_matrix

# -(1 - m)^r * log(m)
FOCAL_ORACLE = {
    (0.25, 0): 1.3862943611198906,
    (0.25, 1): 1.039720770839918,
    (0.25, 2): 0.77979057812993847,
    (0.25, 3): 0.58484293359745385,
    (0.25, 4): 0.43863220019809039,
    (0.5, 2): 0.17328679513998633,
    (0.9, 2): 0.001053605156578263,
    (0.01, 2): 4.5135272992869283,
    (0.75, 3): 0.004495032382059077,
}

# r (1-m)^{r-1} log(m) - (1-m)^r / m
FOCAL_GRAD_ORACLE = {
    (0.25, 0): -4.0,
    (0.25, 2): -4.3294415416798359,
    (0.5, 2): -1.1931471805599453,
    (0.9, 2): -0.032183214242676371,
    (0.5, 1): -1.6931471805599453,
    (0.2, 3): -5.6501207918734727,
}


def symmetric_target(n, pairs):
    t = np.zeros((n, n))
    for i, j in pairs:
        t[i, j] = t[j, i] = 1.0
    return t


def center_mass_grad(w, t, cfg=FocusLossConfig()):
    """(dM/dW, M) from relation_loss, whose gradient is L'(M) * dM/dW."""
    _, m, grad = relation_loss(softmax_matrix(w), t, cfg, w)
    return grad / loss_grad(m, cfg), m


def relation_value(w, t, cfg):
    """(loss, M) of relation_loss at the logits w."""
    loss, m, _ = relation_loss(softmax_matrix(w), t, cfg, w)
    return loss, m


def relation_grad(w, t, cfg):
    return relation_loss(softmax_matrix(w), t, cfg, w)[2]


class TestCenterMass:
    def test_uniform_focus_counts_positives(self):
        """With uniform focus weights, M is exactly |T| / n^2."""
        n = 4
        focus = np.full((n, n), 1.0 / (n * n))
        t = symmetric_target(n, [(0, 1), (2, 3), (1, 3)])
        assert center_mass(focus, t) == pytest.approx(6.0 / 16.0, abs=1e-15)

    def test_all_mass_on_target(self):
        t = symmetric_target(3, [(0, 1)])
        focus = t / t.sum()
        assert center_mass(focus, t) == pytest.approx(1.0, abs=1e-15)

    def test_requires_normalized_focus(self):
        t = symmetric_target(3, [(0, 1)])
        with pytest.raises(ValidationError):
            center_mass(np.full((3, 3), 0.2), t)

    def test_rejects_nonbinary_target(self):
        focus = np.full((2, 2), 0.25)
        with pytest.raises(ValidationError):
            center_mass(focus, [[0.0, 0.5], [0.5, 0.0]])

    def test_rejects_diagonal_positives(self):
        focus = np.full((2, 2), 0.25)
        with pytest.raises(ValidationError):
            center_mass(focus, [[1.0, 0.0], [0.0, 0.0]])


class TestLossValues:
    @pytest.mark.parametrize("key", sorted(FOCAL_ORACLE))
    def test_focal_oracle(self, key):
        m, r = key
        cfg = FocusLossConfig(r=r)
        assert focal_loss(m, cfg) == pytest.approx(FOCAL_ORACLE[key], abs=1e-15)

    def test_focal_zero_at_one(self):
        assert focal_loss(1.0, FocusLossConfig(r=2)) == 0.0
        assert focal_loss(1.0, FocusLossConfig(r=0)) == 0.0

    def test_focal_infinite_at_zero(self):
        assert focal_loss(0.0, FocusLossConfig(r=2)) == math.inf

    def test_r0_is_plain_negative_log(self):
        cfg = FocusLossConfig(r=0)
        assert focal_loss(0.5, cfg) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_l2(self):
        assert l2_loss(0.25) == pytest.approx(0.5625, abs=0)
        assert l2_loss(1.0) == 0.0

    def test_smooth_l1_branches(self):
        assert smooth_l1_loss(0.25) == pytest.approx(0.5, abs=1e-15)  # x = 0.75
        assert smooth_l1_loss(0.6) == pytest.approx(0.16, abs=1e-15)  # x = 0.4
        assert smooth_l1_loss(0.9) == pytest.approx(0.01, abs=1e-15)

    def test_smooth_l1_continuous_at_half(self):
        below = smooth_l1_loss(0.5 + 1e-9)
        above = smooth_l1_loss(0.5 - 1e-9)
        assert below == pytest.approx(above, abs=1e-8)
        assert smooth_l1_loss(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_dispatch(self):
        assert loss_value(0.25, FocusLossConfig(variant="l2")) == l2_loss(0.25)
        assert loss_value(0.25, FocusLossConfig(variant="smooth_l1")) == smooth_l1_loss(
            0.25
        )
        assert loss_value(0.25, FocusLossConfig(variant="focal", r=2)) == focal_loss(
            0.25, FocusLossConfig(r=2)
        )


class TestLossGrad:
    @pytest.mark.parametrize("key", sorted(FOCAL_GRAD_ORACLE))
    def test_focal_grad_oracle(self, key):
        m, r = key
        assert loss_grad(m, FocusLossConfig(r=r)) == pytest.approx(
            FOCAL_GRAD_ORACLE[key], abs=1e-13
        )

    @pytest.mark.parametrize("variant", ["focal", "l2", "smooth_l1"])
    @pytest.mark.parametrize("m", [0.1, 0.3, 0.7, 0.9])
    def test_matches_finite_differences(self, variant, m):
        cfg = FocusLossConfig(variant=variant, r=2)
        h = 1e-7
        fd = (loss_value(m + h, cfg) - loss_value(m - h, cfg)) / (2 * h)
        assert loss_grad(m, cfg) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_r0_reciprocal(self):
        assert loss_grad(0.5, FocusLossConfig(r=0)) == -2.0


class TestConfigValidation:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValidationError):
            FocusLossConfig(variant="huber")

    def test_rejects_out_of_range_r(self):
        with pytest.raises(ValidationError):
            FocusLossConfig(r=5)
        with pytest.raises(ValidationError):
            FocusLossConfig(r=-1)


class TestCenterMassGradient:
    def test_closed_form_vs_finite_differences(self):
        """dM/dW on a 6x6 problem tracks central differences entry by entry."""
        rng = np.random.default_rng(21)
        w = rng.normal(size=(6, 6))
        t = symmetric_target(6, [(0, 1), (2, 5), (3, 4)])
        analytic, m = center_mass_grad(w, t)
        assert 0.0 < m < 1.0

        h = 1e-6
        fd = np.zeros_like(w)
        for i in range(6):
            for j in range(6):
                w[i, j] += h
                up = float(np.sum(softmax_matrix(w) * t))
                w[i, j] -= 2 * h
                down = float(np.sum(softmax_matrix(w) * t))
                w[i, j] += h
                fd[i, j] = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-7, atol=1e-9)

    def test_gradient_sums_to_zero(self):
        """sum(s * (T - M)) = M - M; the shift direction is loss-neutral."""
        rng = np.random.default_rng(22)
        for _ in range(5):
            w = rng.normal(size=(7, 7)) * 3
            t = symmetric_target(7, [(0, 3), (1, 2), (4, 6)])
            grad, _ = center_mass_grad(w, t)
            assert abs(grad.sum()) < 1e-12

    def test_zero_on_saturated_target(self):
        """All-ones off-diagonal target makes M = 1 - diag mass, grad ~ s * (T - M)."""
        w = np.zeros((3, 3))
        t = symmetric_target(3, [(0, 1), (0, 2), (1, 2)])
        grad, m = center_mass_grad(w, t)
        assert m == pytest.approx(6.0 / 9.0, abs=1e-15)
        # uniform s: grad = (T - M) / 9
        np.testing.assert_allclose(grad, (t - m) / 9.0, atol=1e-15)


class TestRelationLoss:
    def test_empty_target_is_exactly_zero(self):
        w = np.random.default_rng(23).normal(size=(4, 4))
        loss, m, grad = relation_loss(softmax_matrix(w), np.zeros((4, 4)), FocusLossConfig(), w)
        assert loss == 0.0 and m == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_underflowed_mass_is_not_an_empty_target(self):
        """M == 0 from underflow still scores its loss, -log M = 800 - log 2, not 0."""
        w = np.zeros((4, 4))
        w[0, 2] = 800.0
        t = symmetric_target(4, [(0, 1)])
        loss, m, _ = relation_loss(softmax_matrix(w), t, FocusLossConfig(), w)
        assert m == 0.0
        assert loss == pytest.approx(800.0 - math.log(2.0), rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            w = np.zeros((3, 3))
            relation_loss(softmax_matrix(w), np.zeros((4, 4)), FocusLossConfig(), w)

    @pytest.mark.parametrize("axis", [None, -1], ids=["matrix", "row"])
    @pytest.mark.parametrize("shape", [(3, 4, 4), (3, 4), (4,)], ids=["stack", "oblong", "vector"])
    def test_takes_one_square_matrix(self, axis, shape):
        """A stack is not scored as one distribution (axis=None) nor indexed
        past its rows (axis=-1): anything but one (n, n) matrix is refused."""
        w = np.zeros(shape)
        t = np.zeros(shape, dtype=bool)
        t[..., 1] = True
        message = f"focus_weights must be one (n, n) matrix, got shape {shape}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            relation_loss(_softmax(w, -1), t, FocusLossConfig(), w, axis)

    @pytest.mark.parametrize("axis", [0, 1, (-2, -1)])
    def test_rejects_other_axes(self, axis):
        w = np.zeros((3, 3))
        with pytest.raises(ValidationError, match="axis must be None"):
            relation_loss(softmax_matrix(w), symmetric_target(3, [(0, 1)]), FocusLossConfig(), w, axis)

    def test_loss_composes_value_and_mass(self):
        rng = np.random.default_rng(24)
        w = rng.normal(size=(5, 5))
        t = symmetric_target(5, [(0, 1), (2, 3)])
        cfg = FocusLossConfig(r=2)
        loss, m = relation_value(w, t, cfg)
        assert m == pytest.approx(float(np.sum(softmax_matrix(w) * t)), abs=1e-15)
        assert loss == pytest.approx(focal_loss(m, cfg), abs=1e-15)

    @pytest.mark.parametrize("variant,r", [("focal", 2), ("focal", 0), ("l2", 2), ("smooth_l1", 2)])
    def test_backward_vs_finite_differences(self, variant, r):
        rng = np.random.default_rng(25)
        w = rng.normal(size=(5, 5))
        t = symmetric_target(5, [(0, 2), (1, 4)])
        cfg = FocusLossConfig(variant=variant, r=r)
        analytic = relation_grad(w, t, cfg)

        h = 1e-6
        fd = np.zeros_like(w)
        for i in range(5):
            for j in range(5):
                w[i, j] += h
                up, _ = relation_value(w, t, cfg)
                w[i, j] -= 2 * h
                down, _ = relation_value(w, t, cfg)
                w[i, j] += h
                fd[i, j] = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)

    def test_descent_direction(self):
        """One explicit gradient step on the logits must increase M."""
        rng = np.random.default_rng(26)
        w = rng.normal(size=(4, 4))
        t = symmetric_target(4, [(1, 3)])
        cfg = FocusLossConfig(r=2)
        grad = relation_grad(w, t, cfg)
        _, m0 = relation_value(w, t, cfg)
        _, m1 = relation_value(w - 0.1 * grad, t, cfg)
        assert m1 > m0


# ROADMAP item 3's example: a 7x7 instance labeling one pair (two cells), with
# +0, +50 or +800 added to one unlabeled logit in a labeled row
UNDERFLOW_PAIR, UNDERFLOW_CELL = (0, 1), (0, 2)


def underflow_logits(bump):
    w = np.random.default_rng(7).normal(scale=0.5, size=(7, 7))
    w[UNDERFLOW_CELL] += bump
    return w


def exact_masses(w, t, axis):
    """M of each softmax group (the matrix, or each row with a labeled cell),
    in 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    groups = [(w.ravel(), t.ravel())] if axis is None else [
        (w[i], t[i]) for i in range(t.shape[0]) if t[i].any()]
    with mp.workdps(50):
        return [sum(mp.exp(x) for x, y in zip(wg, tg) if y) / sum(mp.exp(x) for x in wg)
                for wg, tg in groups]


def exact_loss(w, t, r, axis):
    """-(1 - M)^r log M in 50-digit arithmetic, averaged over the groups."""
    mp = pytest.importorskip("mpmath")
    masses = exact_masses(w, t, axis)
    with mp.workdps(50):
        return float(sum(-((1 - m) ** r) * mp.log(m) for m in masses) / len(masses))


def loss_at(w, t, cfg, axis):
    return relation_loss(_softmax(w, axis), t, cfg, w, axis)


@pytest.mark.parametrize("axis", [None, -1], ids=["matrix", "row"])
@pytest.mark.parametrize("r", [0, 2])
class TestUnderflow:
    """The focal loss stays exact and its gradient useful as M underflows."""

    target = symmetric_target(7, [UNDERFLOW_PAIR])

    @pytest.mark.parametrize("bump", [0.0, 50.0, 800.0])
    def test_loss_matches_high_precision(self, r, axis, bump):
        w = underflow_logits(bump)
        loss, _, _ = loss_at(w, self.target, FocusLossConfig(r=r), axis)
        assert loss == pytest.approx(exact_loss(w, self.target, r, axis), rel=1e-12)

    def test_gradient_matches_finite_differences_at_50(self, r, axis):
        w = underflow_logits(50.0)
        cfg = FocusLossConfig(r=r)
        _, m, analytic = loss_at(w, self.target, cfg, axis)
        assert axis is not None or m < FocusLossConfig.eps
        h = 1e-6
        fd = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            w[idx] += h
            up = loss_at(w, self.target, cfg, axis)[0]
            w[idx] -= 2 * h
            down = loss_at(w, self.target, cfg, axis)[0]
            w[idx] += h
            fd[idx] = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6)

    def test_gradient_survives_at_800(self, r, axis):
        w = underflow_logits(800.0)
        _, m, grad = loss_at(w, self.target, FocusLossConfig(r=r), axis)
        assert axis is not None or m == 0.0
        assert grad[UNDERFLOW_PAIR] < -0.1 and grad[UNDERFLOW_CELL] > 0.1
        assert abs(grad.sum()) < 1e-12

    @pytest.mark.parametrize("bump", [0.0, 50.0, 800.0])
    def test_descent_step_raises_mass(self, r, axis, bump):
        w = underflow_logits(bump)
        grad = loss_at(w, self.target, FocusLossConfig(r=r), axis)[2]
        before = exact_masses(w, self.target, axis)
        after = exact_masses(w - 0.5 * grad, self.target, axis)
        assert all(b < a for b, a in zip(before, after))
