"""Command-line interface.

Heavy imports happen inside main() so SHAPEGAN_THREADS can cap BLAS
threading before numpy first loads; by default everything runs
single-threaded for bitwise reproducibility.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O or data error,
4 numeric abort, 5 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_cap() -> None:
    """Propagate SHAPEGAN_THREADS (default 1) to the BLAS knobs.

    Must run before numpy is imported; already-set variables are respected.
    """
    raw = os.environ.get("SHAPEGAN_THREADS", "1")
    try:
        n = int(raw)
        if n < 1:
            raise ValueError
    except ValueError:
        print(
            f"shapegan: SHAPEGAN_THREADS must be a positive integer, got {raw!r}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE) from None
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapegan",
        description="attribute transfer with shape-preserving interpolation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--domains", type=int, default=2)
    g.add_argument("--n-per-domain", type=int, default=64)
    g.add_argument("--size", type=int, default=32)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--paired-frac", type=float, default=0.25)

    t = sub.add_parser("train", help="train on a generated dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )

    i = sub.add_parser("interpolate", help="write an interpolation grid")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--source", required=True)
    i.add_argument("--target", required=True)
    i.add_argument("--alphas", default="0.25,0.5,0.75,1")
    i.add_argument("--out", required=True)

    # report is eval with the ablation checkpoint required
    for name, help_text, needs_ablation in (
        ("eval", "score a checkpoint on a dataset", False),
        ("report", "full-vs-ablation comparison table", True),
    ):
        e = sub.add_parser(name, help=help_text)
        e.add_argument("--ckpt", required=True)
        e.add_argument("--data", required=True)
        e.add_argument("--out", required=True, help="report CSV path")
        e.add_argument("--ablation", required=needs_ablation, default=None,
                       help="no-shape checkpoint to compare against")
        e.add_argument("--seed", type=int, default=0)
        e.add_argument("--alpha", type=float, default=1.0)

    sub.add_parser("grad-check", help="finite-difference gradient checks")
    return parser


def _parse_alphas(text: str):
    from .errors import UsageError
    from .networks import check_alpha

    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise UsageError(f"empty alpha list: {text!r}")
    try:
        alphas = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"malformed alpha list: {text!r}") from None
    check_alpha(alphas)
    return alphas


def _cmd_gen_data(args) -> int:
    from .synth import build_dataset

    build_dataset(
        args.out,
        domains=args.domains,
        n_per_domain=args.n_per_domain,
        size=args.size,
        seed=args.seed,
        paired_eval_fraction=args.paired_frac,
    )
    print(f"wrote dataset to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .config import TrainConfig, load_config, parse_config_text
    from .errors import UsageError
    from .synth import load_dataset
    from .trainer import run_training
    from .checkpoint import load_checkpoint

    resume_blob = None
    if args.resume is not None:
        if args.config is not None or args.overrides:
            raise UsageError(
                "--resume continues with the checkpoint's own config;"
                " drop --config/--set"
            )
        resume_blob = load_checkpoint(args.resume)
        config = TrainConfig()  # replaced by the checkpoint's config
    else:
        if args.config is not None:
            config = load_config(args.config)
        else:
            config = TrainConfig()
        if args.overrides:
            merged = dict(parse_config_text(config.to_text()))
            for item in args.overrides:
                if "=" not in item:
                    raise UsageError(f"--set needs KEY=VALUE, got {item!r}")
                key, _, value = item.partition("=")
                merged[key.strip()] = value.strip()
            config = TrainConfig.from_mapping(merged)

    dataset = load_dataset(args.data)
    result = run_training(dataset, config, out_dir=args.out, resume=resume_blob)
    print(
        f"trained to iteration {result.state.iteration};"
        f" checkpoint at {result.checkpoint_path}"
    )
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    import numpy as np

    from .errors import UsageError
    from .evaluation import render_grid
    from .netpbm import read_image, write_image
    from .trainer import load_state

    alphas = _parse_alphas(args.alphas)
    state, _ = load_state(args.ckpt)
    source = read_image(args.source)
    target = read_image(args.target)
    if source.shape != target.shape:
        raise UsageError(
            f"source and target differ in shape: {source.shape} vs {target.shape}"
        )
    grid = render_grid(
        state.nets, source[np.newaxis], target[np.newaxis], alphas
    )
    write_image(args.out, grid)
    print(f"wrote {1 + len(alphas) + 1}-panel grid to {args.out}")
    return EXIT_OK


def _nets_fitting(ckpt, dataset, data_dir):
    """The networks of checkpoint ``ckpt``, checked to take the dataset's images."""
    from .errors import ConfigurationError
    from .trainer import load_state

    nets = load_state(ckpt)[0].nets
    takes = (nets.encoder.in_channels, nets.encoder.image_size)
    if takes != (dataset.channels, dataset.size):
        raise ConfigurationError(
            f"checkpoint {ckpt} takes {takes[0]}-channel {takes[1]}x{takes[1]}"
            f" images, but dataset {data_dir} holds {dataset.channels}-channel"
            f" {dataset.size}x{dataset.size} ones"
        )
    return nets


def _cmd_eval(args) -> int:
    from .evaluation import build_report, train_quality_classifier, write_report
    from .networks import check_alpha
    from .synth import load_dataset

    check_alpha(args.alpha)
    dataset = load_dataset(args.data)
    nets = _nets_fitting(args.ckpt, dataset, args.data)
    ablation_nets = None
    if args.ablation is not None:
        ablation_nets = _nets_fitting(args.ablation, dataset, args.data)
    classifier, accuracy = train_quality_classifier(dataset, seed=args.seed)
    report = build_report(
        nets, dataset, classifier, accuracy, ablation_nets, alpha=args.alpha
    )
    csv_path, txt_path = write_report(report, args.out)
    sys.stdout.write(report.to_text())
    print(f"report written to {csv_path} and {txt_path}")
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    from . import gradcheck

    results = gradcheck.run()
    failures = [r for r in results if not r.passed]
    for r in results:
        print(r)
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed")
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)

    from .errors import (
        ConfigurationError,
        DataError,
        NumericError,
        TrainingAborted,
        UsageError,
    )

    try:
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "interpolate":
            return _cmd_interpolate(args)
        if args.command in ("eval", "report"):
            return _cmd_eval(args)
        if args.command == "grad-check":
            return _cmd_grad_check(args)
        parser.error(f"unknown command {args.command!r}")
    except (UsageError, ConfigurationError) as exc:
        print(f"shapegan: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingAborted as exc:
        print(f"shapegan: training aborted: {exc}", file=sys.stderr)
        if exc.checkpoint_path is not None:
            print(f"shapegan: last good state in {exc.checkpoint_path}", file=sys.stderr)
        return EXIT_NUMERIC
    except NumericError as exc:
        print(f"shapegan: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"shapegan: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"shapegan: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
