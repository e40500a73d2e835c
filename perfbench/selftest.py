"""Show that each correctness check of the benchmark can fail.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Every test first shows that a check passes on good output, then feeds it a
damaged input (a perturbed parameter, a checkpoint with one byte flipped, a
resume from the wrong checkpoint, a flipped mask pixel, a classifier that
did not learn, ...) and requires the check to reject it. It trains on a small dataset and takes about
twenty seconds.
"""

from __future__ import annotations

import shutil
import sys
from functools import lru_cache

import run  # first: it caps BLAS threads before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import shapegan.checkpoint as checkpoint  # noqa: E402
import shapegan.evaluation as evaluation  # noqa: E402
import shapegan.objectives as objectives  # noqa: E402
import shapegan.synth as synth  # noqa: E402
import shapegan.trainer as trainer  # noqa: E402
from shapegan.autodiff import as_tensor, no_grad  # noqa: E402
from shapegan.config import TrainConfig  # noqa: E402

WORK = run.OUT / "selftest"
CONFIG = TrainConfig(batch_size=4, unet_pretrain_iters=1, max_iterations=4,
                     checkpoint_every=1, seed=3)


@lru_cache(maxsize=None)
def dataset():
    shutil.rmtree(WORK, ignore_errors=True)
    root = WORK / "data"
    synth.build_dataset(root, domains=2, n_per_domain=12, size=32, seed=3)
    return synth.load_dataset(root)


@lru_cache(maxsize=None)
def full_run():
    return trainer.run_training(dataset(), CONFIG, out_dir=WORK / "full")


def full_file(name: str):
    """A checkpoint of the uninterrupted run."""
    full_run()
    return WORK / "full" / name


def resume(path, name: str):
    blob = checkpoint.load_checkpoint(path)
    return trainer.run_training(dataset(), CONFIG, out_dir=WORK / name, resume=blob)


def program_mse(nets, images) -> float:
    with no_grad():
        x = as_tensor(images)
        return objectives.loss_reconstruction(x, nets.decoder(nets.encoder(x))).item()


def test_perturbed_parameter_is_rejected():
    final = full_file("final.sgck")
    state, _ = trainer.load_state(final)
    images = dataset().images[:8]
    params, _, _ = checks.read_checkpoint(final)
    assert checks.check_reconstruction(program_mse(state.nets, images), images, params) == []
    assert checks.check_checkpoint_matches_state(final, state) == []
    state.nets.decoder.params["conv_out.w"].data[0, 0, 1, 1] += 1e-3
    assert checks.check_reconstruction(program_mse(state.nets, images), images, params)
    assert checks.check_checkpoint_matches_state(final, state)


def test_flipped_checkpoint_byte_is_rejected():
    good = full_file("ckpt_000002.sgck")
    assert checks.check_same_training(full_run(), resume(good, "good"), "resume", 2) == []
    buf = bytearray(good.read_bytes())
    # lowest byte of the first value of the first tensor's data
    name_len = int.from_bytes(buf[12:16], "little")
    rank = int.from_bytes(buf[16 + name_len : 20 + name_len], "little")
    buf[20 + name_len + 8 * rank] ^= 0x01
    bad = WORK / "flipped.sgck"
    bad.write_bytes(bytes(buf))
    assert checks.check_same_training(full_run(), resume(bad, "flipped"), "resume", 2)


def test_resume_from_wrong_checkpoint_is_rejected():
    early = full_file("ckpt_000001.sgck")
    assert checks.check_same_training(full_run(), resume(early, "early"), "resume", 2)


def test_checkpoint_of_wrong_size_is_rejected():
    path = full_file("final.sgck")
    shapes = checks.expected_tensor_shapes(full_run().state)
    assert checks.check_checkpoint_size(path, shapes) == []
    longer = WORK / "longer.sgck"
    longer.write_bytes(path.read_bytes() + b"\0")
    assert checks.check_checkpoint_size(longer, shapes)
    wrong_shapes = dict(shapes, **{"critic/fc2.b": (2,)})
    assert checks.check_checkpoint_size(path, wrong_shapes)


def test_flipped_mask_pixel_is_rejected():
    ds = dataset()
    assert checks.check_dataset(ds.images, ds.masks, synth.BACKGROUND) == []
    for value in (0.0, 1.0):
        masks = ds.masks.copy()
        k, _, y, x = np.argwhere(masks == 1.0 - value)[0]
        masks[k, 0, y, x] = value
        assert checks.check_dataset(ds.images, masks, synth.BACKGROUND)


def test_report_with_a_flipped_mask_pixel_is_rejected():
    ds = dataset()
    nets = full_run().state.nets
    clf, acc = evaluation.train_quality_classifier(ds, seed=3, steps=40)
    csv_text = evaluation.build_report(nets, ds, clf, acc).to_csv()
    models = {"translated full": nets}

    def report_check(predict_masks):
        return checks.check_report(
            csv_text, ds, clf, models, evaluation.translate_batch, predict_masks
        )

    assert report_check(evaluation.predict_masks) == []

    def flipped(nets, images):
        masks = evaluation.predict_masks(nets, images)
        masks[0, 0, 16, 16] = 1.0 - masks[0, 0, 16, 16]
        return masks

    assert report_check(flipped)


class OneClass:
    """A classifier that did not learn: it names the first domain for every
    image."""

    def predict(self, images):
        return np.zeros(len(images), dtype=int)

    def probabilities(self, images):
        probs = np.zeros((len(images), 2))
        probs[:, 0] = 1.0
        return probs


def test_report_from_a_classifier_that_did_not_learn_is_rejected():
    ds = dataset()
    nets = full_run().state.nets
    clf = OneClass()
    is_eval = np.array([s == "eval" for s in ds.splits])
    acc = float(np.mean(ds.domains[is_eval] == ds.domain_ids[0]))
    csv_text = evaluation.build_report(nets, ds, clf, acc).to_csv()
    # the stated accuracy is the true one; only the floor rejects it
    assert checks.check_report(
        csv_text, ds, clf, {"translated full": nets},
        evaluation.translate_batch, evaluation.predict_masks,
    ) == [f"report: classifier held-out accuracy {acc} < 0.9"]


def test_update_outside_the_declared_networks_is_rejected():
    state, _ = trainer.load_state(full_file("final.sgck"))
    config = TrainConfig(batch_size=4, seed=3)
    from workloads import check_update_scoping

    assert check_update_scoping(state, config, dataset()) == []
    nets = state.nets
    before = {net: checks.param_digest(nets, net) for net in checks.NET_NAMES}
    nets.unet.params["out.b"].data += 1.0
    trainer.critic_step(
        dataset().images[:4], dataset().images[-4:], nets, config, state.adam,
        np.random.Generator(np.random.PCG64(0)),
    )
    after = {net: checks.param_digest(nets, net) for net in checks.NET_NAMES}
    assert checks.check_scoping("critic_step", before, after, {"critic"})


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    try:
        for name, fn in tests:
            try:
                fn()
            except AssertionError:
                failed += 1
                print(f"FAIL {name}")
            else:
                print(f"ok   {name}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests) - failed} of {len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
