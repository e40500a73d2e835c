"""Evaluation metrics, the quality classifier, and report assembly."""

import dataclasses

import numpy as np
import pytest

from shapegan import autodiff as ad
from shapegan.autodiff import backward, no_grad, variable
from shapegan.errors import ConfigurationError, UsageError
from shapegan.evaluation import (
    EvalReport,
    PairScores,
    SmallClassifier,
    build_report,
    cross_entropy,
    mask_quality_score,
    predict_masks,
    render_grid,
    score_pair,
    set_dice,
    train_quality_classifier,
    translate_batch,
    write_report,
)
from shapegan.trainer import build_adam, build_nets


@pytest.fixture(scope="module")
def nets(tiny_dataset):
    from shapegan.config import TrainConfig

    return build_nets(TrainConfig(), tiny_dataset.channels, seed=2)


@pytest.fixture(scope="module")
def clf(tiny_dataset):
    return train_quality_classifier(tiny_dataset, seed=0, steps=10, batch_size=8)[0]


def dice_oracle(a, b):
    # independent counting, one pixel at a time
    inter = on_a = on_b = 0
    for x, y in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        pa, pb = x > 0.5, y > 0.5
        on_a += pa
        on_b += pb
        inter += pa and pb
    if on_a + on_b == 0:
        return 1.0
    return 2.0 * inter / (on_a + on_b)


class TestSetDice:
    def test_matches_counting_oracle(self, rng):
        for _ in range(50):
            a = rng.random((1, 6, 6)) > 0.6
            b = rng.random((1, 6, 6)) > 0.6
            assert set_dice(a, b) == dice_oracle(a, b)

    def test_known_value(self):
        a = np.array([1.0, 1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 1.0, 0.0])
        assert set_dice(a, b) == 0.5

    def test_both_empty_scores_one(self):
        assert set_dice(np.zeros((1, 4, 4)), np.zeros((1, 4, 4))) == 1.0

    def test_one_empty_scores_zero(self):
        assert set_dice(np.ones((1, 4, 4)), np.zeros((1, 4, 4))) == 0.0

    def test_identical_scores_one(self, rng):
        m = rng.random((1, 5, 5)) > 0.5
        assert set_dice(m, m) == 1.0 if m.any() else True

    def test_soft_inputs_binarized_at_half(self):
        assert set_dice(np.array([0.49]), np.array([0.51])) == 0.0
        assert set_dice(np.array([0.51]), np.array([0.9])) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(UsageError, match="mask shapes differ"):
            set_dice(np.zeros((1, 4, 4)), np.zeros((1, 5, 5)))


class TestTranslateBatch:
    def test_output_shape_and_range(self, nets, tiny_dataset):
        src = tiny_dataset.images[tiny_dataset.eval_indices(0)]
        tgt = tiny_dataset.images[tiny_dataset.eval_indices(1)]
        out = translate_batch(nets, src, tgt, 1.0)
        assert out.shape == src.shape
        assert out.min() > 0.0 and out.max() < 1.0  # sigmoid output

    def test_alpha_zero_is_the_reconstruction(self, nets, tiny_dataset):
        src = tiny_dataset.images[tiny_dataset.eval_indices(0)]
        tgt = tiny_dataset.images[tiny_dataset.eval_indices(1)]
        out = translate_batch(nets, src, tgt, 0.0)
        with no_grad():
            recon = nets.decoder(nets.encoder(ad.as_tensor(src))).data
        assert np.allclose(out, recon, atol=1e-12)

    def test_masks_are_binary(self, nets, tiny_dataset):
        pred = predict_masks(nets, tiny_dataset.images[:3])
        assert pred.shape == (3, 1, 32, 32)
        assert set(np.unique(pred)) <= {0.0, 1.0}


GRID_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


class TestRenderGrid:
    def test_geometry_and_border_columns(self, nets, tiny_dataset):
        src = tiny_dataset.images[tiny_dataset.eval_indices(0)]
        tgt = tiny_dataset.images[tiny_dataset.eval_indices(1)]
        n, c, s, _ = src.shape
        grid = render_grid(nets, src, tgt, GRID_ALPHAS)
        cols = len(GRID_ALPHAS) + 2
        assert grid.shape == (c, n * s, cols * s)
        for row in range(n):
            block = grid[:, row * s : (row + 1) * s, :]
            assert np.array_equal(block[:, :, :s], src[row])
            assert np.array_equal(block[:, :, (cols - 1) * s :], tgt[row])

    def test_first_panel_is_the_reconstruction(self, nets, tiny_dataset):
        src = tiny_dataset.images[tiny_dataset.eval_indices(0)[:1]]
        tgt = tiny_dataset.images[tiny_dataset.eval_indices(1)[:1]]
        s = src.shape[-1]
        grid = render_grid(nets, src, tgt, GRID_ALPHAS)
        panel = grid[:, :s, s : 2 * s]
        with no_grad():
            recon = nets.decoder(nets.encoder(ad.as_tensor(src))).data[0]
        assert np.allclose(panel, np.clip(recon, 0.0, 1.0), atol=1e-12)

    def test_custom_alphas_change_width(self, nets, tiny_dataset):
        src = tiny_dataset.images[:2]
        tgt = tiny_dataset.images[2:4]
        s = src.shape[-1]
        grid = render_grid(nets, src, tgt, alphas=(0.5,))
        assert grid.shape[-1] == 3 * s

    def test_rejects_mismatched_batches(self, nets, tiny_dataset):
        src = tiny_dataset.images[:2]
        with pytest.raises(UsageError, match="equal"):
            render_grid(nets, src, src[:1], GRID_ALPHAS)
        with pytest.raises(UsageError):
            render_grid(nets, src[0], src[0], GRID_ALPHAS)  # missing batch axis


class TestShapeScores:
    def test_score_range_and_determinism(self, nets, clf, tiny_dataset):
        a = score_pair(nets, clf, tiny_dataset, 0, 1)
        b = score_pair(nets, clf, tiny_dataset, 0, 1)
        assert a == b
        assert 0.0 <= a.dice_mean <= 1.0 and a.dice_std >= 0.0

    def test_score_pair_matches_its_definition(self, nets, clf, tiny_dataset):
        # one translation per pair: set-Dice of the mask net on the raw
        # translation, the classifier on the translation clipped to [0, 1]
        from shapegan.evaluation import _paired_eval_batches

        src, tgt, gt = _paired_eval_batches(tiny_dataset, 1, 0)
        translated = translate_batch(nets, src, tgt, 0.5)
        pred = predict_masks(nets, translated)
        dice = [set_dice(pred[i], gt[i]) for i in range(len(gt))]
        probs = clf.probabilities(np.clip(translated, 0.0, 1.0))
        target = tiny_dataset.domain_ids.index(0)
        assert score_pair(nets, clf, tiny_dataset, 1, 0, 0.5) == PairScores(
            1, 0, float(np.mean(np.argmax(probs, axis=1) == target)),
            float(np.mean(probs[:, target])),
            float(np.mean(dice)), float(np.std(dice)),
        )

    def test_targets_are_shape_deranged(self, tiny_dataset):
        # pairing target i+1 with source i; a same-shape pairing would let
        # outline-copying models score perfectly
        from shapegan.evaluation import _paired_eval_batches

        src, tgt, gt = _paired_eval_batches(tiny_dataset, 0, 1)
        tgt_idx = tiny_dataset.eval_indices(1)
        expected = tiny_dataset.images[np.roll(tgt_idx, -1)]
        assert np.array_equal(tgt, expected)
        assert np.array_equal(gt, tiny_dataset.masks[tiny_dataset.eval_indices(0)])
        # and the deranged pairs really have different silhouettes
        rolled_masks = tiny_dataset.masks[np.roll(tgt_idx, -1)]
        for i in range(len(gt)):
            assert not np.array_equal(gt[i], rolled_masks[i])

    def test_alpha_parameter_matters(self, nets, clf, tiny_dataset):
        near = score_pair(nets, clf, tiny_dataset, 0, 1, alpha=0.25)
        far = score_pair(nets, clf, tiny_dataset, 0, 1, alpha=1.0)
        assert near != far  # untrained nets still move with alpha

    def test_requires_eval_split(self, nets, clf, tmp_path):
        from shapegan.synth import build_dataset, load_dataset

        build_dataset(tmp_path, domains=2, n_per_domain=4, size=32, seed=0,
                      paired_eval_fraction=0.0)
        ds = load_dataset(tmp_path)
        with pytest.raises(UsageError, match="no paired eval split"):
            score_pair(nets, clf, ds, 0, 1)
        with pytest.raises(UsageError, match="no eval split"):
            mask_quality_score(nets, ds)

    def test_mask_quality_in_range(self, nets, tiny_dataset):
        q = mask_quality_score(nets, tiny_dataset)
        assert 0.0 <= q <= 1.0


class TestSmallClassifier:
    def test_logit_shape(self, tiny_dataset):
        clf = SmallClassifier.build(3, 32, 2, seed=0)
        logits = clf(ad.as_tensor(tiny_dataset.images[:5]))
        assert logits.shape == (5, 2)

    def test_probabilities_normalize(self, tiny_dataset):
        clf = SmallClassifier.build(3, 32, 4, seed=0)
        probs = clf.probabilities(tiny_dataset.images[:5])
        assert probs.shape == (5, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0

    def test_predict_is_argmax(self, tiny_dataset):
        clf = SmallClassifier.build(3, 32, 3, seed=1)
        probs = clf.probabilities(tiny_dataset.images[:4])
        assert np.array_equal(clf.predict(tiny_dataset.images[:4]),
                              probs.argmax(axis=1))

    def test_build_validation(self):
        with pytest.raises(ConfigurationError, match="divisible by 8"):
            SmallClassifier.build(3, 20, 2)
        with pytest.raises(ConfigurationError):
            SmallClassifier.build(3, 32, 1)

    def test_rejects_wrong_channel_count(self, tiny_dataset):
        clf = SmallClassifier.build(1, 32, 2)
        with pytest.raises(ConfigurationError, match="expects"):
            clf(ad.as_tensor(tiny_dataset.images[:2]))


class TestCrossEntropy:
    def test_matches_log_softmax_oracle(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        z = logits - logits.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), labels].mean()
        got = cross_entropy(ad.as_tensor(logits), labels)
        assert got.item() == pytest.approx(expected, abs=1e-12)

    def test_uniform_logits_give_log_k(self):
        loss = cross_entropy(ad.as_tensor(np.zeros((3, 5))), np.zeros(3, dtype=int))
        assert loss.item() == pytest.approx(np.log(5.0), abs=1e-12)

    def test_gradient_is_softmax_minus_onehot(self, rng):
        data = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        logits = variable(data)
        (grad,) = backward(cross_entropy(logits, labels), [logits])
        z = data - data.max(axis=1, keepdims=True)
        soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.zeros((5, 3))
        onehot[np.arange(5), labels] = 1.0
        assert np.allclose(grad.data, (soft - onehot) / 5.0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        logits = ad.as_tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(loss.item())

    def test_label_count_must_match(self):
        with pytest.raises(UsageError, match="need 2 labels"):
            cross_entropy(ad.as_tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))


class TestQualityClassifier:
    def test_separates_the_tiny_domains(self, tiny_dataset):
        # plain vs hue_shift differ in mean color, so even a short run
        # should classify held-out images correctly
        clf, acc = train_quality_classifier(tiny_dataset, seed=0, steps=60,
                                            batch_size=8)
        assert acc > 0.8

    def test_training_is_deterministic(self, tiny_dataset):
        a, acc_a = train_quality_classifier(tiny_dataset, seed=0, steps=10,
                                            batch_size=8)
        b, acc_b = train_quality_classifier(tiny_dataset, seed=0, steps=10,
                                            batch_size=8)
        assert acc_a == acc_b
        for key in a.params.names():
            assert np.array_equal(a.params[key].data, b.params[key].data)

    @pytest.fixture
    def steps_taken(self, monkeypatch):
        """Records each optimiser step the classifier takes."""
        from shapegan import evaluation

        calls = []
        step = evaluation.adam_step

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(evaluation, "adam_step", counted)
        return calls

    @staticmethod
    def param_bytes(clf):
        return [clf.params[key].data.tobytes() for key in clf.params.names()]

    def test_early_stop_equals_the_run_capped_there(self, tiny_dataset,
                                                    steps_taken):
        clf, acc = train_quality_classifier(tiny_dataset, seed=0)
        stopped_at = len(steps_taken)
        assert stopped_at < 400
        assert stopped_at % 25 == 0
        capped, capped_acc = train_quality_classifier(tiny_dataset, seed=0,
                                                      steps=stopped_at)
        assert len(steps_taken) == 2 * stopped_at
        assert self.param_bytes(capped) == self.param_bytes(clf)
        assert np.float64(capped_acc).tobytes() == np.float64(acc).tobytes()

    def test_short_runs_take_every_step(self, tiny_dataset, steps_taken):
        train_quality_classifier(tiny_dataset, seed=0, steps=10, batch_size=8)
        assert len(steps_taken) == 10

    def test_eval_split_never_reaches_training(self, tiny_dataset, steps_taken):
        clf, _ = train_quality_classifier(tiny_dataset, seed=0)
        stopped_at = len(steps_taken)
        images = tiny_dataset.images.copy()
        eval_idx = tiny_dataset.eval_indices()
        noise = np.random.Generator(np.random.PCG64(7))
        images[eval_idx] = noise.random(images[eval_idx].shape)
        noisy = dataclasses.replace(tiny_dataset, images=images)
        noisy_clf, _ = train_quality_classifier(noisy, seed=0)
        assert len(steps_taken) == 2 * stopped_at
        assert self.param_bytes(noisy_clf) == self.param_bytes(clf)

    def test_score_pair_classifier_outputs(self, nets, clf, tiny_dataset):
        scores = score_pair(nets, clf, tiny_dataset, 0, 1)
        assert 0.0 <= scores.translated_rate <= 1.0
        assert 0.0 <= scores.mean_target_prob <= 1.0


class TestReport:
    def make_rows(self, dice=0.8):
        return [
            PairScores(0, 1, 0.9, 0.85, dice, 0.05),
            PairScores(1, 0, 0.8, 0.75, dice, 0.04),
        ]

    def test_three_rows_per_pair(self):
        report = EvalReport(1.0, 0.95, self.make_rows(),
                            ablation=self.make_rows(dice=0.6))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == (
            "source,target,row,rate_or_acc,target_prob,dice_mean,dice_std,dice_delta"
        )
        assert len(lines) == 1 + 3 * 2
        labels = [line.split(",")[2] for line in lines[1:]]
        assert labels == ["real held-out", "translated no-shape",
                          "translated full"] * 2

    def test_delta_column_is_full_minus_ablation(self):
        report = EvalReport(1.0, 0.95, self.make_rows(dice=0.8),
                            ablation=self.make_rows(dice=0.6))
        full_rows = [l for l in report.to_csv().splitlines()
                     if ",translated full," in l]
        for line in full_rows:
            assert float(line.split(",")[-1]) == pytest.approx(0.2, abs=1e-12)

    def test_missing_ablation_uses_placeholders(self):
        report = EvalReport(1.0, 0.95, self.make_rows())
        lines = [l for l in report.to_csv().splitlines()
                 if ",translated no-shape," in l]
        for line in lines:
            assert line.endswith(",-,-,-,-,-")
        full = [l for l in report.to_csv().splitlines()
                if ",translated full," in l]
        assert all(l.endswith(",-") for l in full)  # no delta either

    def test_text_table_alignment(self):
        report = EvalReport(1.0, 0.95, self.make_rows())
        text = report.to_text()
        lines = text.strip().splitlines()
        assert lines[0].split()[:2] == ["pair", "row"]
        assert len(lines) == 1 + 3 * 2

    def test_values_must_be_fractions(self):
        with pytest.raises(UsageError, match="outside"):
            EvalReport(1.5, 0.9, self.make_rows())
        with pytest.raises(UsageError):
            EvalReport(0.9, 0.9, [PairScores(0, 1, 0.5, 0.5, -0.1, 0.0)])

    def test_build_and_write(self, nets, tiny_dataset, tmp_path):
        clf, acc = train_quality_classifier(tiny_dataset, seed=0, steps=10,
                                            batch_size=8)
        report = build_report(nets, tiny_dataset, clf, acc)
        assert len(report.full) == 2  # both ordered pairs
        assert report.ablation is None
        csv_path, txt_path = write_report(report, tmp_path / "out" / "report.csv")
        assert csv_path.read_text() == report.to_csv()
        assert txt_path.read_text() == report.to_text()
        assert txt_path.name == "report.txt"

    def test_report_is_bitwise_reproducible(self, nets, tiny_dataset):
        clf, acc = train_quality_classifier(tiny_dataset, seed=0, steps=10,
                                            batch_size=8)
        a = build_report(nets, tiny_dataset, clf, acc)
        b = build_report(nets, tiny_dataset, clf, acc)
        assert a.to_csv() == b.to_csv()

    def test_one_translation_per_pair_and_model(self, nets, clf, tiny_dataset,
                                                 monkeypatch):
        from shapegan import evaluation
        from shapegan.config import TrainConfig

        calls = []
        translate = evaluation.translate_batch

        def counted(*args):
            calls.append(args)
            return translate(*args)

        monkeypatch.setattr(evaluation, "translate_batch", counted)
        other = build_nets(TrainConfig(), tiny_dataset.channels, seed=9)
        build_report(nets, tiny_dataset, clf, 1.0, ablation_nets=other)
        assert len(calls) == 4  # 2 ordered pairs x (full, ablation)

    def test_ablation_rows_included(self, nets, tiny_dataset):
        from shapegan.config import TrainConfig

        clf, acc = train_quality_classifier(tiny_dataset, seed=0, steps=10,
                                            batch_size=8)
        other = build_nets(TrainConfig(), tiny_dataset.channels, seed=9)
        report = build_report(nets, tiny_dataset, clf, acc, ablation_nets=other)
        assert report.ablation is not None and len(report.ablation) == 2
        # the no-shape row carries real scores; only its delta cell is blank
        cells = report.to_csv().splitlines()[2].split(",")
        assert cells[2] == "translated no-shape"
        assert "-" not in cells[3:7] and cells[7] == "-"
