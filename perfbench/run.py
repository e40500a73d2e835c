"""Run one shapegan benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-b16 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced round, together
with the tracing overhead against an untraced round of the same process.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time


def process_age_s() -> float:
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5); fields[0] is field 3
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


# one BLAS thread, fixed before numpy first loads
os.environ["SHAPEGAN_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import shapegan from it."""
    src = ROOT / "src"
    if not (src / "shapegan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shapegan sources under {src}")
    sys.path.insert(0, str(src))
    import shapegan

    if Path(shapegan.__file__).resolve().parent != (src / "shapegan").resolve():
        raise SystemExit(f"perfbench: imported shapegan from {shapegan.__file__}")


def end_to_end(w, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "iter_s": (statistics.median(w.iter_s), "s"),
        "train_s": (statistics.median(w.train_s), "s"),
        "report_s": (statistics.median(w.report_s), "s"),
        "checkpoint_mb": (w.checkpoint_bytes / 1e6, "MB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


TRAINING_STEPS = ("critic_step", "reconstruction_step", "generator_step", "unet_step")


def per_layer(tracer, overhead: float) -> dict:
    """Per-layer metrics over every traced phase. ``.ms`` is the mean
    duration of one call, ``.calls`` and ``.gflop`` are totals."""
    spans = tracer.summary()
    in_steps = tracer.summary(within={f"trainer.{s}" for s in TRAINING_STEPS})
    in_report = tracer.summary(within={"evaluation.build_report"})

    def calls(name, table=spans):
        return table[name]["calls"] if name in table else 0

    def total(name, key, table=spans):
        return table[name][key] if name in table else 0.0

    def mean_ms(name, key="total_s"):
        return 1000.0 * total(name, key) / max(calls(name), 1)

    m = {}
    for step in TRAINING_STEPS + ("state_to_blob", "blob_to_state"):
        m[f"trainer.{step}.ms"] = (mean_ms(f"trainer.{step}"), "ms")
    iterations = max(calls("trainer.generator_step"), 1)
    m["trainer.loop_self.ms"] = (
        1000.0 * total("trainer.run_training", "self_s") / iterations, "ms"
    )
    for net in ("encoder", "decoder", "interpolator", "critic", "unet"):
        m[f"networks.{net}.ms"] = (mean_ms(f"networks.{net}"), "ms")
        m[f"networks.{net}.calls"] = (calls(f"networks.{net}"), "count")
    for fn in ("gradient_penalty", "loss_shape"):
        m[f"objectives.{fn}.ms"] = (mean_ms(f"objectives.{fn}"), "ms")
    for op in ("conv2d", "conv_transpose2d", "conv_kernel_grad"):
        name = f"autodiff.{op}"
        m[f"{name}.ms"] = (mean_ms(name), "ms")
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.gflop"] = (total(name, "work") / 1e9, "GFLOP")
    m["autodiff.matmul.ms"] = (mean_ms("autodiff.matmul"), "ms")
    m["autodiff.adam_step.ms"] = (mean_ms("autodiff.adam_step"), "ms")
    # per training step: the critic step runs two backward passes
    steps = max(sum(calls(f"trainer.{s}") for s in TRAINING_STEPS), 1)
    m["autodiff.backward.self_ms"] = (
        1000.0 * total("autodiff.backward", "self_s", in_steps) / steps, "ms"
    )
    m["autodiff.tape_nodes"] = (total("autodiff.backward", "work", in_steps) / steps, "count")
    for fn in ("save_checkpoint", "load_checkpoint"):
        m[f"checkpoint.{fn}.ms"] = (mean_ms(f"checkpoint.{fn}"), "ms")
    m["checkpoint.bytes"] = (
        total("checkpoint.save_checkpoint", "work")
        + total("checkpoint.load_checkpoint", "work"),
        "B",
    )
    for fn in ("train_quality_classifier", "build_report", "translate_batch",
               "predict_masks"):
        m[f"evaluation.{fn}.ms"] = (mean_ms(f"evaluation.{fn}"), "ms")
    m["evaluation.translate_batch.calls"] = (calls("evaluation.translate_batch"), "count")
    m["evaluation.translations_per_pair"] = (
        calls("evaluation.translate_batch", in_report)
        / max(total("evaluation.build_report", "work"), 1.0),
        "count",
    )
    for fn in ("build_dataset", "load_dataset"):
        m[f"synth.{fn}.ms"] = (mean_ms(f"synth.{fn}"), "ms")
    m["trace.overhead_pct"] = (100.0 * overhead, "%")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import tracing
    import workloads

    # a terminated run still removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {sorted(workloads.WORKLOADS)}")
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = tracing.Tracer()
    try:
        if args.trace:
            tracer.install()
        w.setup()
        setup_s = process_age_s()
        tracer.uninstall()

        if args.trace:
            # a traced round between two untraced ones of the same process
            plain_s, signatures = [], []
            for traced in (False, True, False):
                if traced:
                    tracer.install()
                t0 = perf_counter()
                signatures.append(w.round())
                seconds = perf_counter() - t0
                if traced:
                    traced_s = seconds
                    w.finish()
                    tracer.uninstall()
                else:
                    plain_s.append(seconds)
            if len(set(signatures)) != 1:
                w.failures.append("traced round differs from the untraced rounds")
        else:
            signatures = []
            t_begin = perf_counter()
            while not signatures or perf_counter() - t_begin < args.seconds:
                signatures.append(w.round())
            w.finish()
            if len(set(signatures)) != 1:
                w.failures.append("rounds of the same inputs differ")
        w.check()
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(tracer, traced_s / statistics.mean(plain_s) - 1.0)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(w, setup_s)
    for msg in w.failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}", file=sys.stderr)
    result = {
        "correct": not w.failures,
        "attempted": w.attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
