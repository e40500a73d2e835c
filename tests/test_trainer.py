"""Training loop: update scoping, schedule, determinism, checkpoint resume."""

import dataclasses

import numpy as np
import pytest

from shapegan import trainer
from shapegan.checkpoint import load_checkpoint, save_checkpoint
from shapegan.config import TrainConfig
from shapegan.errors import ConfigurationError, DataError, NumericError, TrainingAborted
from shapegan.trainer import (
    NET_NAMES,
    build_adam,
    build_nets,
    critic_step,
    format_trace_row,
    generator_step,
    load_state,
    reconstruction_step,
    run_training,
    state_to_blob,
    trace_to_text,
    unet_step,
)


def snap_all(nets):
    return {name: {k: t.data.copy() for k, t in ps.items()}
            for name, ps in nets.param_sets().items()}


def changed_nets(before, after):
    out = set()
    for net in before:
        for key in before[net]:
            if not np.array_equal(before[net][key], after[net][key]):
                out.add(net)
                break
    return out


def fresh(config, dataset):
    nets = build_nets(config, dataset.channels, config.seed)
    return nets, build_adam(config, nets)


@pytest.fixture
def batches(tiny_dataset):
    x = tiny_dataset.images[tiny_dataset.train_indices(0)[:4]]
    y = tiny_dataset.images[tiny_dataset.train_indices(1)[:4]]
    masks = tiny_dataset.masks[tiny_dataset.train_indices(0)[:4]]
    return x, y, masks


class TestBuildNets:
    def test_seed_determinism(self, micro_config):
        a = build_nets(micro_config, 3, 0)
        b = build_nets(micro_config, 3, 0)
        for name in NET_NAMES:
            assert snap_all(a)[name].keys() == snap_all(b)[name].keys()
        assert changed_nets(snap_all(a), snap_all(b)) == set()

    def test_nets_get_distinct_streams(self, micro_config):
        nets = build_nets(micro_config, 3, 0)
        other = build_nets(micro_config, 3, 1)
        assert changed_nets(snap_all(nets), snap_all(other)) == set(NET_NAMES)


class TestUpdateScoping:
    """Each step must touch exactly its declared networks, bitwise."""

    def test_critic_step_updates_critic_only(self, micro_config, batches, tiny_dataset):
        nets, adam = fresh(micro_config, tiny_dataset)
        x, y, _ = batches
        before = snap_all(nets)
        rng = np.random.default_rng(0)
        value = critic_step(x, y, nets, micro_config, adam, rng)
        assert changed_nets(before, snap_all(nets)) == {"critic"}
        assert np.isfinite(value)
        assert adam["critic"].step == 1
        assert all(adam[n].step == 0 for n in NET_NAMES if n != "critic")

    def test_reconstruction_updates_autoencoder(self, micro_config, batches, tiny_dataset):
        nets, adam = fresh(micro_config, tiny_dataset)
        before = snap_all(nets)
        mse = reconstruction_step(batches[0], nets, micro_config, adam)
        assert changed_nets(before, snap_all(nets)) == {"encoder", "decoder"}
        assert 0.0 < mse < 1.0

    def test_reconstruction_can_freeze_encoder(self, micro_config, batches, tiny_dataset):
        cfg = dataclasses.replace(micro_config, recon_updates_encoder=False)
        nets, adam = fresh(cfg, tiny_dataset)
        before = snap_all(nets)
        reconstruction_step(batches[0], nets, cfg, adam)
        assert changed_nets(before, snap_all(nets)) == {"decoder"}
        assert adam["encoder"].step == 0

    def test_generator_step_updates_mapping_nets(self, micro_config, batches, tiny_dataset):
        nets, adam = fresh(micro_config, tiny_dataset)
        x, y, masks = batches
        before = snap_all(nets)
        rng = np.random.default_rng(0)
        adv, shape = generator_step(x, y, nets, micro_config, adam, rng,
                                    masks_x=masks)
        assert changed_nets(before, snap_all(nets)) == {
            "encoder", "interpolator", "decoder"
        }
        assert np.isfinite(adv)
        assert 0.0 <= shape <= 1.0

    def test_generator_step_computes_no_frozen_gradients(
        self, micro_config, batches, tiny_dataset, monkeypatch
    ):
        # the critic and the mask net are in the loss but not updated, so
        # backward builds no gradient for their weights
        import shapegan.autodiff as ad
        import shapegan.autodiff.conv as conv
        import shapegan.autodiff.ops as ops

        kernel_shapes, matmul_shapes = [], []

        def spy(fn, shapes):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                shapes.append(out.shape)
                return out
            return wrapped

        monkeypatch.setattr(conv, "conv_kernel_grad",
                            spy(conv.conv_kernel_grad, kernel_shapes))
        for owner in (ops, ad):
            monkeypatch.setattr(owner, "matmul", spy(ops.matmul, matmul_shapes))
        nets, adam = fresh(micro_config, tiny_dataset)
        x, y, masks = batches
        generator_step(x, y, nets, micro_config, adam, np.random.default_rng(0),
                       masks_x=masks)
        critic_weights = {t.shape for t in nets.critic.params.tensors() if t.ndim == 2}
        assert (4096, 512) in critic_weights
        assert matmul_shapes and not critic_weights & set(matmul_shapes)
        # mask-net kernels no generator network shares; and one kernel
        # gradient per conv of the encoder (run on x and y), interpolator
        # and decoder
        assert not {(16, 3, 3, 3), (32, 16, 3, 3), (1, 16, 1, 1)} & set(kernel_shapes)
        assert len(kernel_shapes) == 2 * 2 + 2 + 3

    def test_generator_step_without_shape_term(self, micro_config, batches, tiny_dataset):
        cfg = dataclasses.replace(micro_config, lambda_shape=0.0)
        nets, adam = fresh(cfg, tiny_dataset)
        x, y, _ = batches
        adv, shape = generator_step(x, y, nets, cfg, adam,
                                    np.random.default_rng(0))
        assert shape == 0.0

    def test_ground_truth_reference_needs_masks(self, micro_config, batches, tiny_dataset):
        cfg = dataclasses.replace(micro_config, shape_reference="ground_truth")
        nets, adam = fresh(cfg, tiny_dataset)
        x, y, _ = batches
        with pytest.raises(ConfigurationError, match="needs source masks"):
            generator_step(x, y, nets, cfg, adam, np.random.default_rng(0))

    def test_unet_step_updates_unet_only(self, micro_config, batches, tiny_dataset):
        nets, adam = fresh(micro_config, tiny_dataset)
        x, _, masks = batches
        before = snap_all(nets)
        value = unet_step(x, masks, nets, micro_config, adam)
        assert changed_nets(before, snap_all(nets)) == {"unet"}
        assert 0.0 <= value <= 1.0


class TestSchedule:
    def test_observer_sees_the_declared_schedule(self, tiny_dataset, micro_config):
        events = []
        run_training(tiny_dataset, micro_config,
                     observer=lambda kind, it: events.append((kind, it)))
        counts = {}
        for kind, _ in events:
            counts[kind] = counts.get(kind, 0) + 1
        n_it = micro_config.max_iterations
        assert counts == {
            "unet_pretrain_step": micro_config.unet_pretrain_iters,
            "critic_step": n_it * micro_config.n_critic,
            "reconstruction_step": n_it * micro_config.n_critic,
            "generator_step": n_it,
            "unet_step": n_it,
            "iteration_end": n_it,
        }

    def test_critic_updates_interleave_with_reconstruction(
        self, tiny_dataset, micro_config
    ):
        events = []
        run_training(tiny_dataset, micro_config,
                     observer=lambda kind, it: events.append((kind, it)))
        per_it = [k for k, it in events if it == 1]
        expected = ["critic_step", "reconstruction_step"] * micro_config.n_critic
        expected += ["generator_step", "unet_step", "iteration_end"]
        assert per_it == expected

    def test_result_carries_trace_and_state(self, tiny_dataset, micro_config):
        result = run_training(tiny_dataset, micro_config)
        assert [row[0] for row in result.trace_rows] == [1, 2, 3]
        assert result.state.iteration == 3
        assert result.checkpoint_path is None  # no out_dir
        for row in result.trace_rows:
            assert all(np.isfinite(v) for v in row[1:])

    def test_adam_step_counters_match_schedule(self, tiny_dataset, micro_config):
        result = run_training(tiny_dataset, micro_config)
        adam = result.state.adam
        n_it = micro_config.max_iterations
        assert adam["critic"].step == n_it * micro_config.n_critic
        assert adam["decoder"].step == n_it * (micro_config.n_critic + 1)
        assert adam["encoder"].step == n_it * (micro_config.n_critic + 1)
        assert adam["interpolator"].step == n_it
        assert adam["unet"].step == micro_config.unet_pretrain_iters + n_it


class TestDeterminism:
    def test_trace_is_bitwise_reproducible(self, tiny_dataset, micro_config):
        a = run_training(tiny_dataset, micro_config)
        b = run_training(tiny_dataset, micro_config)
        assert a.trace_rows == b.trace_rows
        assert trace_to_text(a.trace_rows) == trace_to_text(b.trace_rows)
        assert changed_nets(snap_all(a.state.nets), snap_all(b.state.nets)) == set()

    def test_seed_changes_the_run(self, tiny_dataset, micro_config):
        a = run_training(tiny_dataset, micro_config)
        b = run_training(tiny_dataset,
                         dataclasses.replace(micro_config, seed=12))
        assert a.trace_rows != b.trace_rows


class TestCheckpointing:
    def test_output_files(self, tiny_dataset, micro_config, tmp_path):
        result = run_training(tiny_dataset, micro_config, out_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "ckpt_000002.sgck", "config_resolved.txt", "final.sgck", "trace.csv",
        ]
        assert result.checkpoint_path == tmp_path / "final.sgck"
        assert (tmp_path / "config_resolved.txt").read_text() == micro_config.to_text()
        assert (tmp_path / "trace.csv").read_text() == trace_to_text(result.trace_rows)

    def test_state_round_trip(self, tiny_dataset, micro_config, tmp_path):
        result = run_training(tiny_dataset, micro_config)
        path = save_checkpoint(tmp_path / "s.sgck",
                               state_to_blob(result.state, micro_config))
        state, config = load_state(path)
        assert config == micro_config
        assert state.iteration == result.state.iteration
        assert changed_nets(
            snap_all(result.state.nets), snap_all(state.nets)
        ) == set()
        for name in NET_NAMES:
            a, b = result.state.adam[name], state.adam[name]
            assert a.step == b.step
            for key in a.m:
                assert np.array_equal(a.m[key], b.m[key])
                assert np.array_equal(a.v[key], b.v[key])
        assert state.rng.bit_generator.state == result.state.rng.bit_generator.state

    def test_resume_replays_the_uninterrupted_run(
        self, tiny_dataset, micro_config, tmp_path
    ):
        """Interrupting at iteration 2 and resuming must match the straight
        4-iteration run bitwise: same trace tail, same final parameters."""
        cfg = dataclasses.replace(micro_config, max_iterations=4)
        full = run_training(tiny_dataset, cfg, out_dir=tmp_path / "full")

        from shapegan.checkpoint import load_checkpoint

        blob = load_checkpoint(tmp_path / "full" / "ckpt_000002.sgck")
        resumed = run_training(tiny_dataset, cfg, resume=blob)
        assert resumed.trace_rows == full.trace_rows[2:]
        assert resumed.state.iteration == 4
        assert changed_nets(
            snap_all(full.state.nets), snap_all(resumed.state.nets)
        ) == set()
        assert (
            resumed.state.rng.bit_generator.state
            == full.state.rng.bit_generator.state
        )

    def test_resume_into_the_same_directory_keeps_the_trace(
        self, tiny_dataset, micro_config, tmp_path
    ):
        cfg = dataclasses.replace(micro_config, max_iterations=4)
        run_training(tiny_dataset, cfg, out_dir=tmp_path)
        trace = (tmp_path / "trace.csv").read_text()
        from shapegan.checkpoint import load_checkpoint

        blob = load_checkpoint(tmp_path / "ckpt_000002.sgck")
        run_training(tiny_dataset, cfg, out_dir=tmp_path, resume=blob)
        # rows 1-2 kept, rows 3-4 written once more by the resumed run
        assert (tmp_path / "trace.csv").read_text() == trace
        assert len(trace.splitlines()) == 4

    def test_killed_run_keeps_its_trace(self, tiny_dataset, micro_config, tmp_path):
        run_training(tiny_dataset, micro_config, out_dir=tmp_path / "full")
        full = (tmp_path / "full" / "trace.csv").read_text().splitlines(keepends=True)

        class Killed(Exception):
            pass

        def kill_at_iteration_3(kind, it):
            if kind == "critic_step" and it == 3:
                raise Killed

        with pytest.raises(Killed):
            run_training(tiny_dataset, micro_config, out_dir=tmp_path / "killed",
                         observer=kill_at_iteration_3)
        assert (tmp_path / "killed" / "trace.csv").read_text() == "".join(full[:2])

    def test_resume_skips_pretraining(self, tiny_dataset, micro_config, tmp_path):
        run_training(tiny_dataset, micro_config, out_dir=tmp_path)
        from shapegan.checkpoint import load_checkpoint

        events = []
        run_training(
            tiny_dataset,
            micro_config,
            resume=load_checkpoint(tmp_path / "ckpt_000002.sgck"),
            observer=lambda kind, it: events.append(kind),
        )
        assert "unet_pretrain_step" not in events

    def test_checkpoint_lacking_networks_is_rejected(self):
        from shapegan.checkpoint import CheckpointBlob
        from shapegan.trainer import blob_to_state

        with pytest.raises(DataError, match="lacks encoder"):
            blob_to_state(CheckpointBlob({}, "", {}))


class TestValidation:
    def test_needs_two_domains(self, micro_config, tmp_path):
        from shapegan.synth import build_dataset, load_dataset

        build_dataset(tmp_path, domains=1, n_per_domain=6, size=32, seed=0)
        with pytest.raises(ConfigurationError, match="two domains"):
            run_training(load_dataset(tmp_path), micro_config)

    def test_needs_enough_samples_per_domain(self, tiny_dataset, micro_config):
        cfg = dataclasses.replace(micro_config, batch_size=16)
        with pytest.raises(ConfigurationError, match="fewer training samples"):
            run_training(tiny_dataset, cfg)

    def test_image_size_must_match(self, tiny_dataset, micro_config):
        cfg = dataclasses.replace(micro_config, image_size=16)
        with pytest.raises(ConfigurationError, match="32x32"):
            run_training(tiny_dataset, cfg)


class TestAbort:
    def test_numeric_error_saves_last_good_state(
        self, tiny_dataset, micro_config, tmp_path, monkeypatch
    ):
        # poison one critic weight so the first critic step goes non-finite;
        # in-place mutation skips tensor construction checks on purpose
        real = trainer.build_nets

        def poisoned(config, in_channels, seed):
            nets = real(config, in_channels, seed)
            nets.critic.params["fc0.w"].data[0, 0] = np.nan
            return nets

        monkeypatch.setattr(trainer, "build_nets", poisoned)
        cfg = dataclasses.replace(micro_config, unet_pretrain_iters=1)
        with pytest.raises(TrainingAborted) as excinfo:
            run_training(tiny_dataset, cfg, out_dir=tmp_path)
        exc = excinfo.value
        assert exc.iteration == 1
        assert exc.checkpoint_path == tmp_path / "last_good.sgck"
        # the poisoned weight is part of the saved state, which loading rejects
        with pytest.raises(DataError, match="non-finite"):
            load_state(exc.checkpoint_path)
        from shapegan.checkpoint import load_checkpoint
        from shapegan.trainer import blob_to_state

        blob = load_checkpoint(exc.checkpoint_path)
        blob.tensors["critic/fc0.w"][0, 0] = 0.0
        state, config = blob_to_state(blob)
        assert state.iteration == 0  # pre-loop state, pretraining included
        assert config == cfg
        assert (tmp_path / "trace.csv").read_text() == ""

    def test_abort_without_out_dir_has_no_checkpoint(
        self, tiny_dataset, micro_config, monkeypatch
    ):
        real = trainer.build_nets

        def poisoned(config, in_channels, seed):
            nets = real(config, in_channels, seed)
            nets.critic.params["fc0.w"].data[0, 0] = np.nan
            return nets

        monkeypatch.setattr(trainer, "build_nets", poisoned)
        cfg = dataclasses.replace(micro_config, unet_pretrain_iters=0)
        with pytest.raises(TrainingAborted) as excinfo:
            run_training(tiny_dataset, cfg)
        assert excinfo.value.checkpoint_path is None

    def test_abort_during_pretraining_writes_no_state(
        self, tiny_dataset, micro_config, tmp_path, monkeypatch
    ):
        # a state labelled iteration 0 would let --resume skip pretraining
        real = trainer.unet_step
        calls = []

        def fails_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise NumericError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "unet_step", fails_second)
        cfg = dataclasses.replace(micro_config, unet_pretrain_iters=3)
        with pytest.raises(TrainingAborted) as excinfo:
            run_training(tiny_dataset, cfg, out_dir=tmp_path)
        assert excinfo.value.iteration == 0
        assert excinfo.value.checkpoint_path is None
        assert not (tmp_path / "last_good.sgck").exists()
        assert (tmp_path / "trace.csv").read_text() == ""


class TestEarlyStop:
    def test_plateau_breaks_the_loop(self, tiny_dataset, micro_config, monkeypatch):
        # shrink the window and accept any delta so the break fires as soon
        # as two windows exist; the real thresholds are schedule constants
        monkeypatch.setattr(trainer, "_EARLY_STOP_WINDOW", 2)
        monkeypatch.setattr(trainer, "_EARLY_STOP_DELTA", float("inf"))
        cfg = dataclasses.replace(micro_config, max_iterations=50,
                                  early_stop=True)
        result = run_training(tiny_dataset, cfg)
        assert len(result.trace_rows) == 4

    def test_disabled_by_default(self, tiny_dataset, micro_config, monkeypatch):
        monkeypatch.setattr(trainer, "_EARLY_STOP_WINDOW", 1)
        monkeypatch.setattr(trainer, "_EARLY_STOP_DELTA", float("inf"))
        result = run_training(tiny_dataset, micro_config)
        assert len(result.trace_rows) == micro_config.max_iterations

    def test_resume_keeps_the_window(
        self, tiny_dataset, micro_config, monkeypatch, tmp_path
    ):
        # with a window of 1 the loop stops once two iterations exist; a
        # resume from the first checkpoint must stop where the straight run did
        monkeypatch.setattr(trainer, "_EARLY_STOP_WINDOW", 1)
        monkeypatch.setattr(trainer, "_EARLY_STOP_DELTA", float("inf"))
        cfg = dataclasses.replace(micro_config, max_iterations=50,
                                  checkpoint_every=1, early_stop=True)
        straight = run_training(tiny_dataset, cfg, out_dir=tmp_path / "a")
        assert straight.state.iteration == 2
        blob = load_checkpoint(tmp_path / "a" / "ckpt_000001.sgck")
        resumed = run_training(tiny_dataset, cfg, out_dir=tmp_path / "b",
                               resume=blob)
        assert resumed.state.iteration == 2
        assert resumed.trace_rows == straight.trace_rows[1:]
        assert resumed.state.recon_history == straight.state.recon_history

    @staticmethod
    def _state(config, dataset):
        nets, adam = fresh(config, dataset)
        rng = np.random.Generator(np.random.PCG64(0))
        return trainer.TrainerState(nets, adam, rng, 2, [0.5, 0.25])

    @pytest.mark.parametrize("window", [None, np.array([[0.1]]),
                                        np.array([0.1, np.nan])])
    def test_malformed_window_is_rejected(self, tiny_dataset, micro_config,
                                          window):
        cfg = dataclasses.replace(micro_config, early_stop=True)
        blob = state_to_blob(self._state(cfg, tiny_dataset), cfg)
        if window is None:
            del blob.tensors["early_stop/recon"]
        else:
            blob.tensors["early_stop/recon"] = window
        with pytest.raises(DataError):
            trainer.blob_to_state(blob)

    def test_window_is_stored_only_when_enabled(self, tiny_dataset, micro_config):
        state = self._state(micro_config, tiny_dataset)
        blob = state_to_blob(state, micro_config)
        assert "early_stop/recon" not in blob.tensors
        assert trainer.blob_to_state(blob)[0].recon_history == []
        cfg = dataclasses.replace(micro_config, early_stop=True)
        loaded, _ = trainer.blob_to_state(state_to_blob(state, cfg))
        assert loaded.recon_history == [0.5, 0.25]


class TestTraceFormat:
    def test_row_floats_round_trip_through_repr(self):
        row = (7, 1.0 / 3.0, 2e-17, -0.125, 0.1 + 0.2, 5.0)
        text = format_trace_row(row)
        parts = text.split(",")
        assert int(parts[0]) == 7
        for raw, value in zip(parts[1:], row[1:]):
            assert float(raw) == value

    def test_trace_text_shape(self):
        rows = [(1, 0.1, 0.2, 0.3, 0.4, 0.5), (2, 0.6, 0.7, 0.8, 0.9, 1.0)]
        text = trace_to_text(rows)
        assert text.count("\n") == 2 and text.endswith("\n")
        assert trace_to_text([]) == ""


class TestOverfit:
    def test_autoencoder_fits_two_images(self, tiny_dataset):
        """Sanity check that gradients point the right way: repeated
        reconstruction steps on a fixed pair drive the error toward zero."""
        cfg = TrainConfig(batch_size=2, lr_encoder=1e-3, lr_decoder=1e-3,
                          adam_beta1=0.9, adam_beta2=0.999, seed=3)
        nets, adam = fresh(cfg, tiny_dataset)
        batch = tiny_dataset.images[tiny_dataset.train_indices(0)[:2]]
        first = reconstruction_step(batch, nets, cfg, adam)
        last = first
        for _ in range(299):
            last = reconstruction_step(batch, nets, cfg, adam)
            if last < 0.02:
                break
        assert last < 0.02, f"mse only reached {last} from {first}"

