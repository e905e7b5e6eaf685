"""Acceptance gate: ten checks that pin the math, the training dynamics on the
bundled benchmark, and the reproducibility contract of the command surface.

Criteria 5-7 share the nine training runs provided by the module fixture
(three strategies x three seeds), which runs them on two worker processes.
"""

import dataclasses
import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fanet.attention import EntitySet
from fanet.cli import EXIT_OK, main
from fanet.losses import FocusLossConfig, center_mass, focal_loss, loss_grad, relation_loss
from fanet.matrices import softmax_matrix
from fanet.metrics import relation_recall, top_k_pairs
from fanet.synthgen import Instance, WorldSpec, default_world_spec, generate_dataset
from fanet.trainer import TrainConfig, grad_check, init_model, train


def symmetric_target(n, pairs):
    t = np.zeros((n, n))
    for i, j in pairs:
        t[i, j] = t[j, i] = 1.0
    return t


def check_instance(seed, n=4, d=3, num_classes=3):
    rng = np.random.default_rng(seed)
    t = np.zeros((n, n))
    t[0, 1] = t[1, 0] = 1.0
    t[2, 3] = t[3, 2] = 1.0
    return Instance(
        entities=EntitySet(features=rng.normal(size=(n, d))),
        target=t,
        label=int(rng.integers(0, num_classes)),
    )


@pytest.fixture(scope="module")
def bundled():
    return generate_dataset(default_world_spec(), 200, 100, seed=0)


RUN_STRATEGIES = {"sup": {}, "unsup": {"strategy": "unsup"}, "r0": {"focal_r": 0}}


def timed_train(job):
    """One fixture run, in a pool worker: (its TrainReport, the seconds it took)."""
    tr, te, seed, kwargs = job
    t0 = time.monotonic()
    _, report = train(tr, te, TrainConfig(seed=seed, **kwargs))
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def runs(bundled):
    """sup / unsup / r0 on seeds 0-2: {(name, seed): (TrainReport, seconds)}.

    The runs are independent and fully seeded, so two workers share them;
    each run is timed in its own worker. Workers are spawned, not forked,
    because this process may hold BLAS threads.
    """
    tr, te = bundled
    keys = [(name, seed) for name in RUN_STRATEGIES for seed in (0, 1, 2)]
    jobs = [(tr, te, seed, RUN_STRATEGIES[name]) for name, seed in keys]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        return dict(zip(keys, pool.map(timed_train, jobs)))


class TestClosedFormGradientIdentity:
    def test_matches_finite_differences_and_sums_to_zero(self):
        started = time.monotonic()
        rng = np.random.default_rng(2024)
        step = 1e-6
        for trial in range(20):
            w = rng.normal(size=(8, 8))
            pairs = set()
            while len(pairs) < 4:
                i, j = rng.integers(0, 8, size=2)
                if i != j:
                    pairs.add((min(i, j), max(i, j)))
            t = symmetric_target(8, pairs)
            cfg = FocusLossConfig()
            _, m, grad = relation_loss(softmax_matrix(w), t, cfg, w)
            analytic = grad / loss_grad(m, cfg)  # dL/dW = L'(M) * dM/dW

            assert abs(analytic.sum()) < 1e-12, f"trial {trial}: sum {analytic.sum():.2e}"

            fd = np.zeros_like(w)
            for a in range(8):
                for b in range(8):
                    w[a, b] += step
                    up = float(np.sum(softmax_matrix(w) * t))
                    w[a, b] -= 2 * step
                    down = float(np.sum(softmax_matrix(w) * t))
                    w[a, b] += step
                    fd[a, b] = (up - down) / (2 * step)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic), np.abs(fd))
            assert rel.max() < 1e-6, f"trial {trial}: worst rel err {rel.max():.2e}"
        assert time.monotonic() - started < 5.0


class TestFocalReferenceValues:
    def test_against_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        quarter = mp.mpf(1) / 4
        oracle_r0 = float(-mp.log(quarter))
        oracle_r2 = float(-((1 - quarter) ** 2) * mp.log(quarter))
        assert abs(focal_loss(0.25, FocusLossConfig(r=0)) - oracle_r0) < 1e-9
        assert abs(focal_loss(0.25, FocusLossConfig(r=2)) - oracle_r2) < 1e-9

    def test_exact_zero_at_full_mass(self):
        for r in (0, 1, 2, 3, 4):
            assert focal_loss(1.0, FocusLossConfig(r=r)) == 0.0


class TestUniformFocusCenterMass:
    @pytest.mark.parametrize(
        "n,pairs",
        [
            (4, [(0, 1)]),
            (6, [(0, 1), (2, 3), (4, 5)]),
            (8, [(0, 7), (1, 6), (2, 5), (3, 4), (0, 1)]),
        ],
    )
    def test_count_over_n_squared(self, n, pairs):
        t = symmetric_target(n, pairs)
        focus = softmax_matrix(np.zeros((n, n)))
        expected = t.sum() / (n * n)
        assert abs(center_mass(focus, t) - expected) < 1e-12


class TestEndToEndGradCheck:
    def test_twelve_combinations_ten_seeds(self):
        started = time.monotonic()
        worst = 0.0
        for variant in ("focal", "l2", "smooth_l1"):
            for strategy in ("row", "mat", "mat_focal", "unsup"):
                cfg = TrainConfig(
                    loss_variant=variant, strategy=strategy, lam=0.1, d_k=2
                )
                for seed in range(10):
                    inst = check_instance(seed, n=4, d=3, num_classes=3)
                    params = init_model(3, 3, cfg)
                    err, _ = grad_check(params, inst, cfg)
                    worst = max(worst, err)
                    assert err < 1e-5, (
                        f"{variant}/{strategy} seed {seed}: {err:.3e}"
                    )
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


class TestCenterMassSeparation:
    def test_supervised_vs_unsupervised_ratio(self, runs):
        sup, sup_secs = runs[("sup", 0)]
        unsup, unsup_secs = runs[("unsup", 0)]
        final_sup = sup.epochs[-1]
        final_unsup = unsup.epochs[-1]
        assert final_sup.center_mass >= 5.0 * final_unsup.center_mass, (
            f"train: {final_sup.center_mass:.4f} vs {final_unsup.center_mass:.4f}"
        )
        assert final_sup.center_mass_test >= 3.0 * final_unsup.center_mass_test, (
            f"test: {final_sup.center_mass_test:.4f} vs "
            f"{final_unsup.center_mass_test:.4f}"
        )
        assert sup_secs + unsup_secs < 120.0


class TestRecallImprovement:
    @pytest.mark.parametrize("k", [5, 10])
    def test_ten_point_gap(self, runs, k):
        sup = np.mean([runs[("sup", s)][0].epochs[-1].recall[k] for s in (0, 1, 2)])
        unsup = np.mean(
            [runs[("unsup", s)][0].epochs[-1].recall[k] for s in (0, 1, 2)]
        )
        assert sup - unsup >= 0.10, f"recall@{k}: {sup:.3f} vs {unsup:.3f}"


class TestFocalExponentOrdering:
    def test_r2_at_least_r0(self, runs):
        r2 = np.mean([runs[("sup", s)][0].epochs[-1].recall[5] for s in (0, 1, 2)])
        r0 = np.mean([runs[("r0", s)][0].epochs[-1].recall[5] for s in (0, 1, 2)])
        assert r2 >= r0, f"recall@5: r=2 {r2:.3f} < r=0 {r0:.3f}"


def oracle_iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area = lambda r: (r[2] - r[0]) * (r[3] - r[1])  # noqa: E731
    return inter / (area(a) + area(b) - inter)


def oracle_recall(focus, boxes, gt_boxes, gt_relations, k, threshold=0.5):
    """Fully independent matcher: exhaustive best-IoU assignment, unordered pairs."""
    n = focus.shape[0]
    match = []
    for i in range(n):
        best, best_iou = -1, threshold
        for g, gb in enumerate(gt_boxes):
            v = oracle_iou(boxes[i], gb)
            if v > best_iou:
                best, best_iou = g, v
        match.append(best)
    wanted = {frozenset(r) for r in gt_relations}
    if not wanted:
        return 1.0
    ranked = sorted(
        ((max(focus[i, j], focus[j, i]), i, j)
         for i, j in itertools.combinations(range(n), 2)),
        key=lambda t: -t[0],
    )
    hit = set()
    for _, i, j in ranked[:k]:
        a, b = match[i], match[j]
        if a >= 0 and b >= 0 and a != b and frozenset((a, b)) in wanted:
            hit.add(frozenset((a, b)))
    return len(hit) / len(wanted)


class TestRecallAgainstBruteForce:
    def test_exact_equality_on_100_instances(self):
        spec = WorldSpec(
            prototypes=2.0 * np.eye(6),
            affine_pairs=((0, 1), (2, 3)),
            signature_pairs=((0, 1),),
            noise_sigma=0.2,
            entities_min=4,
            entities_max=6,
        )
        rng = np.random.default_rng(88)
        instances, _ = generate_dataset(spec, 100, 1, seed=4)
        for idx, inst in enumerate(instances):
            focus = softmax_matrix(rng.normal(size=(inst.n, inst.n)))
            boxes = inst.entities.boxes
            gt_boxes = boxes  # each entity doubles as its own gt object
            for k in (1, 3, 5, 10):
                got = relation_recall(
                    top_k_pairs(focus, k)[0], inst.entities, gt_boxes,
                    inst.gt_relations, k,
                )
                want = oracle_recall(focus, boxes, gt_boxes, inst.gt_relations, k)
                assert got == want, f"instance {idx}, k={k}: {got} != {want}"


class TestArtifactDeterminism:
    ARGS = ["--epochs", "4", "--batch-size", "2", "--d-k", "2", "--seed", "0"]

    def test_cmd_gen_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["gen", "--out", str(out), "--n-train", "20",
                         "--n-test", "10", "--seed", "0"])
            assert code == EXIT_OK
        for name in ("train.jsonl", "test.jsonl", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_cmd_train_byte_identical_csv(self, tmp_path):
        data = tmp_path / "data"
        main(["gen", "--out", str(data), "--n-train", "20", "--n-test", "10",
              "--seed", "0"])
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for out in (r1, r2):
            code = main(["train", "--data", str(data), "--out", str(out)] + self.ARGS)
            assert code == EXIT_OK
        assert (r1 / "report.csv").read_bytes() == (r2 / "report.csv").read_bytes()
        assert (r1 / "checkpoint.json").read_bytes() == (r2 / "checkpoint.json").read_bytes()


class TestLambdaZeroEquivalence:
    def test_reports_identical(self):
        """lam=0 and unsup differ only in the config echo (strategy name):
        every epoch statistic and the final parameters must agree exactly."""
        spec = default_world_spec()
        tr, te = generate_dataset(spec, 60, 30, seed=1)
        base = dict(epochs=8, batch_size=2, d_k=4, seed=1)
        p_zero, r_zero = train(tr, te, TrainConfig(lam=0.0, **base))
        p_unsup, r_unsup = train(tr, te, TrainConfig(strategy="unsup", **base))
        # equal NaNs and signed zeros, field by field
        np.testing.assert_equal([dataclasses.asdict(e) for e in r_zero.epochs],
                                [dataclasses.asdict(e) for e in r_unsup.epochs])
        for a, b in zip(p_zero.arrays().values(), p_unsup.arrays().values()):
            np.testing.assert_array_equal(a, b)
        assert r_zero.num_classes == r_unsup.num_classes
        assert r_zero.feature_dim == r_unsup.feature_dim
