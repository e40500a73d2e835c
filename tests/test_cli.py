"""End-to-end command-line tests, each in its own subprocess."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from shapegan import cli, netpbm


def run_cli(*argv, env=None):
    cmd = [sys.executable, "-m", "shapegan", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=600)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus an untrained and a briefly trained checkpoint,
    shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    r = run_cli("gen-data", "--out", str(data), "--n-per-domain", "6",
                "--seed", "4")
    assert r.returncode == 0, r.stderr

    init_dir = root / "init"
    r = run_cli(
        "train", "--data", str(data), "--out", str(init_dir),
        "--set", "max_iterations=0", "--set", "unet_pretrain_iters=0",
        "--set", "batch_size=2",
    )
    assert r.returncode == 0, r.stderr

    trained_dir = root / "trained"
    r = run_cli(
        "train", "--data", str(data), "--out", str(trained_dir),
        "--set", "max_iterations=2", "--set", "unet_pretrain_iters=1",
        "--set", "batch_size=2", "--set", "n_critic=1",
        "--set", "checkpoint_every=1",
    )
    assert r.returncode == 0, r.stderr
    return {
        "data": data,
        "init_ckpt": init_dir / "final.sgck",
        "trained": trained_dir,
        "trained_ckpt": trained_dir / "final.sgck",
    }


class TestGenData:
    def test_defaults_give_128_rows(self, tmp_path):
        r = run_cli("gen-data", "--out", str(tmp_path / "d"))
        assert r.returncode == 0
        lines = (tmp_path / "d" / "manifest.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 128
        splits = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert splits.count("train") == 96 and splits.count("eval") == 32

    def test_rerun_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            r = run_cli("gen-data", "--out", str(out), "--n-per-domain", "4",
                        "--seed", "7")
            assert r.returncode == 0
        assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
        for rel in sorted(p.relative_to(a) for p in a.rglob("*.ppm")):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_size_below_minimum_exits_2(self, tmp_path):
        r = run_cli("gen-data", "--out", str(tmp_path / "d"), "--size", "8")
        assert r.returncode == 2
        assert ">= 16" in r.stderr

    def test_unknown_flag_exits_2(self, tmp_path):
        r = run_cli("gen-data", "--out", str(tmp_path / "d"), "--shape", "star")
        assert r.returncode == 2


class TestTrain:
    def test_writes_checkpoints_trace_and_config(self, workspace):
        out = workspace["trained"]
        names = {p.name for p in out.iterdir()}
        assert {"final.sgck", "trace.csv", "config_resolved.txt",
                "ckpt_000001.sgck", "ckpt_000002.sgck"} <= names
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 2
        assert trace[0].startswith("1,") and trace[1].startswith("2,")
        resolved = (out / "config_resolved.txt").read_text()
        assert "max_iterations = 2" in resolved
        assert "n_critic = 1" in resolved

    def test_unknown_config_key_exits_2_naming_it(self, workspace, tmp_path):
        r = run_cli("train", "--data", str(workspace["data"]),
                    "--out", str(tmp_path), "--set", "learning_rate=0.1")
        assert r.returncode == 2
        assert "learning_rate" in r.stderr

    def test_malformed_override_exits_2(self, workspace, tmp_path):
        r = run_cli("train", "--data", str(workspace["data"]),
                    "--out", str(tmp_path), "--set", "batch_size")
        assert r.returncode == 2
        assert "KEY=VALUE" in r.stderr

    def test_non_finite_config_value_exits_2_without_output(self, workspace,
                                                            tmp_path):
        out = tmp_path / "run"
        r = run_cli("train", "--data", str(workspace["data"]),
                    "--out", str(out), "--set", "lambda_shape=nan")
        assert r.returncode == 2
        assert "lambda_shape must be finite" in r.stderr
        assert not out.exists()

    def test_resume_conflicts_with_config_flags(self, workspace, tmp_path):
        r = run_cli("train", "--data", str(workspace["data"]),
                    "--out", str(tmp_path),
                    "--resume", str(workspace["trained_ckpt"]),
                    "--set", "seed=9")
        assert r.returncode == 2
        assert "--resume" in r.stderr or "checkpoint's own config" in r.stderr

    def test_resume_continues_to_max_iterations(self, workspace, tmp_path):
        r = run_cli("train", "--data", str(workspace["data"]),
                    "--out", str(tmp_path),
                    "--resume", str(workspace["trained"] / "ckpt_000001.sgck"))
        assert r.returncode == 0, r.stderr
        trace = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1 and trace[0].startswith("2,")
        # the resumed tail must equal the uninterrupted run's second row
        full_trace = (workspace["trained"] / "trace.csv").read_text()
        assert trace[0] == full_trace.strip().splitlines()[1]

    @pytest.mark.parametrize("damage", [
        "missing adam step", "missing adam moment", "parameter shape",
        "parameter name", "nan parameter", "rng state", "rng json",
        "tensor name utf-8", "config block",
    ])
    def test_malformed_checkpoint_exits_3(self, workspace, tmp_path, damage):
        from shapegan.checkpoint import load_checkpoint, save_checkpoint

        blob = load_checkpoint(workspace["trained"] / "ckpt_000001.sgck")
        t = blob.tensors
        if damage == "missing adam step":
            del t["adam/critic/step"]
        elif damage == "missing adam moment":
            del t["adam/unet/out.w.v"]
        elif damage == "parameter shape":
            t["critic/fc0.b"] = np.zeros(3)
        elif damage == "parameter name":
            t["decoder/conv9.w"] = t.pop("decoder/conv0.w")
        elif damage == "nan parameter":
            t["encoder/conv0.b"][0] = np.nan
        elif damage == "rng state":
            blob.rng_state = {"bit_generator": "PCG64"}
        elif damage == "config block":
            blob.config_text = "not a config\n"
        bad = save_checkpoint(tmp_path / "bad.sgck", blob)
        raw = bad.read_bytes()
        if damage == "rng json":
            bad.write_bytes(raw[:-1] + b"!")  # in place of the closing brace
        elif damage == "tensor name utf-8":
            bad.write_bytes(raw[:16] + b"\xff" + raw[17:])  # first name byte
        r = run_cli("train", "--data", str(workspace["data"]),
                    "--out", str(tmp_path / "out"), "--resume", str(bad))
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr

    def test_missing_dataset_exits_3(self, workspace, tmp_path):
        r = run_cli("train", "--data", str(tmp_path / "nowhere"),
                    "--out", str(tmp_path / "out"))
        assert r.returncode == 3
        assert "manifest.csv" in r.stderr

    def test_mixed_image_sizes_exit_3(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        second = (data / "manifest.csv").read_text().splitlines()[2].split(",")[0]
        netpbm.write_image(data / second, np.zeros((3, 16, 16)))
        r = run_cli("train", "--data", str(data), "--out", str(tmp_path / "out"))
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr
        assert "every image and mask must be 32x32" in r.stderr

    @pytest.mark.parametrize("damage", [
        "non-utf-8 byte", "nul in path", "seed beyond int64", "field over csv limit",
        "pgm in image column", "ppm in mask column",
    ])
    def test_damaged_manifest_exits_3(self, workspace, tmp_path, damage):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        manifest = data / "manifest.csv"
        lines = manifest.read_bytes().split(b"\n")
        img, mask, dom, seed, split = lines[2].split(b",")
        if damage == "non-utf-8 byte":
            split = b"tr\xffin"
        elif damage == "nul in path":
            img = img.replace(b"/", b"/\0")
        elif damage == "seed beyond int64":
            seed = b"%d" % 2**63
        elif damage == "field over csv limit":
            split = b"x" * 131073
        elif damage == "pgm in image column":
            img = mask
        elif damage == "ppm in mask column":
            mask = img
        lines[2] = b",".join((img, mask, dom, seed, split))
        manifest.write_bytes(b"\n".join(lines))
        r = run_cli("train", "--data", str(data), "--out", str(tmp_path / "out"))
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr
        assert "manifest.csv:3: " in r.stderr

    def test_config_not_utf8_exits_2(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# r\xe9glage\nbatch_size = 2\n")
        r = run_cli("train", "--data", str(workspace["data"]),
                    "--out", str(tmp_path / "out"), "--config", str(cfg))
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert "cannot read config" in r.stderr

    def test_config_file_with_override(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iterations = 0\nunet_pretrain_iters = 0\n"
                       "batch_size = 2\n")
        out = tmp_path / "out"
        r = run_cli("train", "--data", str(workspace["data"]),
                    "--out", str(out), "--config", str(cfg),
                    "--set", "seed=3")
        assert r.returncode == 0, r.stderr
        resolved = (out / "config_resolved.txt").read_text()
        assert "seed = 3" in resolved and "batch_size = 2" in resolved


class TestInterpolate:
    def test_default_alphas_give_six_panels(self, workspace, tmp_path):
        out = tmp_path / "grid.ppm"
        r = run_cli("interpolate", "--ckpt", str(workspace["trained_ckpt"]),
                    "--source", str(workspace["data"] / "images" / "train_d0_0000.ppm"),
                    "--target", str(workspace["data"] / "images" / "train_d1_0000.ppm"),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert "six" in r.stdout or "6-panel" in r.stdout
        grid = netpbm.read_image(out)
        assert grid.shape == (3, 32, 6 * 32)

    def test_alpha_zero_gives_three_panels(self, workspace, tmp_path):
        out = tmp_path / "grid.ppm"
        r = run_cli("interpolate", "--ckpt", str(workspace["trained_ckpt"]),
                    "--source", str(workspace["data"] / "images" / "train_d0_0000.ppm"),
                    "--target", str(workspace["data"] / "images" / "train_d1_0000.ppm"),
                    "--alphas", "0", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert netpbm.read_image(out).shape == (3, 32, 3 * 32)

    def test_malformed_alpha_list_exits_2(self, workspace, tmp_path):
        r = run_cli("interpolate", "--ckpt", str(workspace["trained_ckpt"]),
                    "--source", str(workspace["data"] / "images" / "train_d0_0000.ppm"),
                    "--target", str(workspace["data"] / "images" / "train_d1_0000.ppm"),
                    "--alphas", "0.5,fast", "--out", str(tmp_path / "g.ppm"))
        assert r.returncode == 2
        assert "alpha" in r.stderr

    def test_nan_alpha_exits_2(self, workspace, tmp_path):
        out = tmp_path / "g.ppm"
        r = run_cli("interpolate", "--ckpt", str(workspace["trained_ckpt"]),
                    "--source", str(workspace["data"] / "images" / "train_d0_0000.ppm"),
                    "--target", str(workspace["data"] / "images" / "train_d1_0000.ppm"),
                    "--alphas", "0.5,nan", "--out", str(out))
        assert r.returncode == 2
        assert "alpha must lie in [0, 1]" in r.stderr
        assert not out.exists()

    def test_borders_are_the_input_images(self, workspace, tmp_path):
        src_path = workspace["data"] / "images" / "train_d0_0001.ppm"
        tgt_path = workspace["data"] / "images" / "train_d1_0001.ppm"
        out = tmp_path / "grid.ppm"
        r = run_cli("interpolate", "--ckpt", str(workspace["init_ckpt"]),
                    "--source", str(src_path), "--target", str(tgt_path),
                    "--alphas", "1", "--out", str(out))
        assert r.returncode == 0, r.stderr
        grid = netpbm.read_image(out)
        src = netpbm.read_image(src_path)
        tgt = netpbm.read_image(tgt_path)
        assert np.array_equal(grid[:, :, :32], src)
        assert np.array_equal(grid[:, :, -32:], tgt)

    def test_corrupt_checkpoint_exits_3(self, workspace, tmp_path):
        bad = tmp_path / "bad.sgck"
        bad.write_bytes(b"not a checkpoint")
        r = run_cli("interpolate", "--ckpt", str(bad),
                    "--source", str(workspace["data"] / "images" / "train_d0_0000.ppm"),
                    "--target", str(workspace["data"] / "images" / "train_d1_0000.ppm"),
                    "--out", str(tmp_path / "g.ppm"))
        assert r.returncode == 3
        assert "magic" in r.stderr


class TestEval:
    def test_untrained_checkpoint_still_reports(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        r = run_cli("eval", "--ckpt", str(workspace["init_ckpt"]),
                    "--data", str(workspace["data"]), "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("source,target,row,")
        assert len(lines) == 1 + 3 * 2
        assert (tmp_path / "report.txt").exists()
        assert "real held-out" in r.stdout

    def test_nan_alpha_exits_2(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        r = run_cli("eval", "--ckpt", str(workspace["init_ckpt"]),
                    "--data", str(workspace["data"]), "--out", str(out),
                    "--alpha", "nan")
        assert r.returncode == 2
        assert "alpha must lie in [0, 1]" in r.stderr
        assert not out.exists()

    def test_report_requires_ablation_flag(self, workspace, tmp_path):
        r = run_cli("report", "--ckpt", str(workspace["trained_ckpt"]),
                    "--data", str(workspace["data"]),
                    "--out", str(tmp_path / "report.csv"))
        assert r.returncode == 2
        assert "--ablation" in r.stderr

    def test_report_with_ablation(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        r = run_cli("report", "--ckpt", str(workspace["trained_ckpt"]),
                    "--ablation", str(workspace["init_ckpt"]),
                    "--data", str(workspace["data"]), "--out", str(out))
        assert r.returncode == 0, r.stderr
        no_shape = [l for l in out.read_text().splitlines()
                    if ",translated no-shape," in l]
        assert no_shape and all(not l.endswith(",-,-,-,-,-") for l in no_shape)

    def test_missing_eval_split_exits_2_before_training(self, workspace,
                                                         tmp_path, monkeypatch,
                                                         capsys):
        # in-process, with the classifier's optimiser stubbed to fail
        import shapegan.evaluation

        def must_not_run(*args, **kwargs):
            raise AssertionError("the classifier trained before the check")

        monkeypatch.setattr(shapegan.evaluation, "adam_step", must_not_run)
        # main() sets the BLAS thread variables; keep them scoped to the test
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, os.environ.get(var, "1"))
        data = tmp_path / "no-eval"
        assert cli.main(["gen-data", "--out", str(data), "--n-per-domain", "6",
                         "--paired-frac", "0"]) == 0
        out = tmp_path / "report.csv"
        argv = ["eval", "--ckpt", str(workspace["init_ckpt"]),
                "--data", str(data), "--out", str(out)]
        assert cli.main(argv) == 2
        assert "no eval split" in capsys.readouterr().err
        assert not out.exists()


    def test_dataset_not_fitting_checkpoint_exits_2_before_training(
            self, workspace, tmp_path, monkeypatch, capsys):
        # in-process, with the classifier stubbed to fail
        import shapegan.evaluation

        def must_not_run(*args, **kwargs):
            raise AssertionError("the classifier trained before the check")

        monkeypatch.setattr(shapegan.evaluation, "train_quality_classifier",
                            must_not_run)
        # main() sets the BLAS thread variables; keep them scoped to the test
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, os.environ.get(var, "1"))
        data = tmp_path / "small"
        assert cli.main(["gen-data", "--out", str(data), "--n-per-domain", "6",
                         "--size", "16"]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "t16"),
                         "--set", "image_size=16", "--set", "max_iterations=0",
                         "--set", "unet_pretrain_iters=0", "--set", "batch_size=2"]) == 0
        fits, wrong = tmp_path / "t16" / "final.sgck", workspace["init_ckpt"]
        out = tmp_path / "report.csv"
        # the full model does not fit; then only the ablation does not
        for argv in (["eval", "--ckpt", str(wrong)],
                     ["report", "--ckpt", str(fits), "--ablation", str(wrong)]):
            capsys.readouterr()
            assert cli.main([*argv, "--data", str(data), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"checkpoint {wrong} takes 3-channel 32x32 images" in err
            assert f"dataset {data} holds 3-channel 16x16" in err
        assert not out.exists()


class TestAlphaCheckedFirst:
    """A bad alpha exits 2 before any checkpoint, image or dataset is read and
    before the classifier trains; run in-process with those stubbed to fail."""

    @pytest.fixture(autouse=True)
    def nothing_loads(self, monkeypatch):
        import shapegan.evaluation
        import shapegan.netpbm
        import shapegan.synth
        import shapegan.trainer

        def must_not_run(*args, **kwargs):
            raise AssertionError("called before the alpha was checked")

        monkeypatch.setattr(shapegan.trainer, "load_state", must_not_run)
        monkeypatch.setattr(shapegan.evaluation, "train_quality_classifier", must_not_run)
        monkeypatch.setattr(shapegan.synth, "load_dataset", must_not_run)
        monkeypatch.setattr(shapegan.netpbm, "read_image", must_not_run)
        # main() sets the BLAS thread variables; keep them scoped to the test
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, os.environ.get(var, "1"))

    @pytest.mark.parametrize("argv", [
        ["eval", "--alpha", "nan"],
        ["eval", "--alpha", "2"],
        ["report", "--ablation", "none.sgck", "--alpha", "-0.5"],
    ])
    def test_eval_alpha(self, argv, tmp_path, capsys):
        argv = [*argv, "--ckpt", "none.sgck", "--data", "none",
                "--out", str(tmp_path / "report.csv")]
        assert cli.main(argv) == 2
        assert "alpha must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["0.5,nan", "0.5,1.5"])
    def test_interpolate_alphas(self, alphas, tmp_path, capsys):
        argv = ["interpolate", "--ckpt", "none.sgck", "--source", "a.ppm",
                "--target", "b.ppm", "--alphas", alphas,
                "--out", str(tmp_path / "g.ppm")]
        assert cli.main(argv) == 2
        assert "alpha must lie in [0, 1]" in capsys.readouterr().err


class TestGradCheckCommand:
    def test_quick_level_passes(self):
        r = run_cli("grad-check")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "all 44 checks passed" in r.stdout
        # one line per check, each naming the op it covered
        assert sum(1 for l in r.stdout.splitlines() if l.startswith("ok")) == 44


class TestEnvironment:
    def test_bad_thread_cap_exits_2(self, tmp_path):
        import os

        env = dict(os.environ, SHAPEGAN_THREADS="many")
        r = run_cli("gen-data", "--out", str(tmp_path / "d"), env=env)
        assert r.returncode == 2
        assert "SHAPEGAN_THREADS" in r.stderr

    def test_missing_subcommand_exits_2(self):
        r = run_cli()
        assert r.returncode == 2
