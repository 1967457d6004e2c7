"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_short --seed 0 --seconds 15 --trace 0

Run from the repository root. The lines before the last describe the run:
``meta`` (machine and versions), ``outputs`` (loss and token digests,
every CER), ``samples`` (how many values each timing metric summarises)
and one ``problem`` line per failed output check. The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A traced run also writes its spans under
``.perfbench/``. See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # One BLAS thread: the matrices are small, so a second thread buys
    # little, and a step that waits on both cores slows down whenever the
    # host takes one of them away.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import vsrkit  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from vsrkit.model import ALL_ACTIVATIONS  # noqa: E402


# ----------------------------------------------------------------------
# run metadata


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))  # already loaded: same library
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                threads = fn()
                break
    return f"{info.get('name')} {info.get('version')}", threads


def run_metadata(args):
    blas, blas_threads = _blas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
    }


# ----------------------------------------------------------------------
# metrics


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _timing(samples, name, values, q):
    """Percentile ``q`` of ``values``; records how many samples lie beyond
    it so a reader can see the percentile is backed by at least ten."""
    v = _pct(values, q)
    samples[name] = {"n": len(values),
                     "beyond": int(np.sum(np.asarray(values) > v))}
    return v


def train_metrics(run, samples):
    # The p90 step interval is printed under ``samples`` but is not a
    # bounded metric: bursts of slowness on the machine the bounds were
    # set on lifted it by up to half while the p50 moved a tenth, and in
    # one ten-seed set its spread reached 0.237 and its median rose 19%.
    p90 = _timing(samples, "train_step_ms_p90", run.step_ms, 90)
    samples["train_step_ms_p90"]["value"] = p90
    return {
        "train_frames_per_s": (run.frames / run.wall_s, "frames/s"),
        "train_step_ms_p50": (_timing(samples, "train_step_ms_p50",
                                      run.step_ms, 50), "ms"),
    }


def infer_metrics(run, samples):
    out = {}

    # Only the p90 of greedy and attention requests are bounded metrics.
    # The p50 latencies and every beam-search latency are reported under
    # ``samples``: on the machine the bounds were set on, their spreads
    # over ten seeds reached 0.27-0.30, above the largest bound allowed
    # (see README).
    for label in ("greedy", "attention"):
        name = f"infer_ms_p90.{label}"
        out[name] = (_timing(samples, name,
                             wl.request_latencies(run, label), 90), "ms")
    table = {}
    for label, _ in wl.DECODERS:
        for act in [None] + [a.name for a in ALL_ACTIVATIONS]:
            values = wl.request_latencies(run, label, act)
            key = label if act is None else f"{label}.{act}"
            table[key] = {"p50": _pct(values, 50), "p90": _pct(values, 90),
                          "n": len(values)}
    samples["latency_ms"] = table
    cers = wl.corpus_cer(run)
    for label, act, tag in (("greedy", "f", "f"), ("greedy", "f+p+v", "fpv"),
                            ("attention", "f+p+v", "fpv"),
                            ("beam", "f+p+v", "fpv")):
        out[f"cer.{label}.{tag}"] = (cers.get((label, act), float("nan")),
                                     "ratio")
    return out


def layer_metrics(tracer, untraced_wall, traced_wall):
    """Per-layer self times and counts, per training step or per request."""
    self_s, calls = tracer.self_seconds()
    counts = tracer.counts
    requests = {label: calls[f"request.{label}"] for label, _ in wl.DECODERS}
    if calls["training.step"]:
        units, unit = calls["training.step"], "training.step"
        residual = self_s["training.step"]
        decoder_units = units
    else:
        units, unit = sum(requests.values()), "request."
        residual = sum(self_s[f"request.{label}"] for label in requests)
        decoder_units = requests["attention"]

    def per(name, n=units):
        return self_s[name] * 1e3 / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "autodiff.backward_ms": (per("autodiff.backward"), "ms"),
        "autodiff.tape_nodes": (ratio(counts["tape_nodes"], units), "count"),
        "losses.ctc_ms": (per("losses.ctc"), "ms"),
        "losses.ctc_calls": (ratio(calls["losses.ctc"], units), "count"),
        "losses.align_ms": (per("losses.align"), "ms"),
        "losses.attention_ce_ms": (per("losses.attention_ce"), "ms"),
        "training.step_self_ms": (per("training.step"), "ms"),
        "model.forward_train_self_ms": (per("model.forward_train"), "ms"),
        "model.forward_infer_self_ms": (per("model.forward_infer"), "ms"),
        "model.trunk_ms": (per("model.trunk"), "ms"),
        "model.branch_ms": (per("model.branch"), "ms"),
        "model.fuse_ms": (per("model.fuse"), "ms"),
        "model.char_encoder_ms": (per("model.char_encoder"), "ms"),
        "model.decoder_ms": (per("model.decoder"), "ms"),
        "model.decoder_calls": (ratio(calls["model.decoder"], decoder_units),
                                "count"),
        "model.pad_ratio": (ratio(counts["padded_frames"],
                                  counts["useful_frames"]), "ratio"),
        "decoding.greedy_ms": (per("decoding.greedy", requests["greedy"]), "ms"),
        "decoding.beam_ms": (per("decoding.beam", requests["beam"]), "ms"),
        "decoding.attention_self_ms": (per("decoding.attention",
                                           requests["attention"]), "ms"),
        "decoding.tokens_out": (ratio(counts["attention_tokens"],
                                      requests["attention"]), "count"),
        "metrics.cer_ms": (per("metrics.cer"), "ms"),
        "trace.units": (units, "count"),
        "trace.unit_ms": (tracer.unit_seconds(unit) * 1e3 / units, "ms"),
        "trace.residual_ms": (residual * 1e3 / units, "ms"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_pct": (100 * (traced_wall / untraced_wall - 1), "%"),
    }
    return m


# ----------------------------------------------------------------------
# workloads


# train workload -> (job at (seed, size), its held-out requests, the CERs
# its model gives at seed TASK_SEED)
TRAIN_WORKLOADS = {
    "train_short": (wl.train_short_job, wl.heldout_requests, wl.SEED0_CER),
    "train_long": (lambda seed, size: wl.train_long_job(size),
                   wl.long_heldout_requests, wl.LONG_SEED0_CER),
}


def _train_workload(args, spans_dir):
    make_job, make_requests, seed0_cer = TRAIN_WORKLOADS[args.workload]
    setups = []
    for _ in range(wl.SETUP_REPEATS[args.size]):
        t0 = time.perf_counter()
        job = make_job(args.seed, args.size)
        requests = make_requests(args.seed, args.size)
        setups.append(time.perf_counter() - t0)
    run = wl.run_training(job, args.seconds)
    samples = {"setup_s": {"n": len(setups)}, "recipes": run.recipes}
    problems = wl.check_training(job, run)
    outputs = wl.training_outputs(run)
    attempted, failed = run.attempted, run.failed
    served = None
    if run.model is not None:
        # the model just trained serves one pass over held-out requests
        served = wl.run_inference(run.model, requests, 0.0,
                                  groups=len(requests))
        problems += wl.check_inference(
            served, args.size, seed0_cer if args.seed == wl.TASK_SEED
            else None)
        outputs.update(wl.inference_outputs(served))
        attempted += served.attempted
        failed += served.failed
    if args.trace:
        with Tracer() as tracer:
            traced = wl.run_training(job, args.seconds, tracer,
                                     recipes=run.recipes)
        problems += wl.check_training(job, traced)
        if traced.digests != run.digests:
            problems.append("tracing changed the logged losses")
        attempted += traced.attempted
        failed += traced.failed
        metrics = layer_metrics(tracer, run.wall_s, traced.wall_s)
        _dump(tracer, spans_dir, args)
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   **train_metrics(run, samples)}
        if served is not None:
            metrics.update(infer_metrics(served, samples))
    return problems, outputs, samples, attempted, failed, metrics


def _infer_workload(args, spans_dir):
    samples = {"setup_s": {"n": 1}}
    t0 = time.perf_counter()
    job = wl.train_short_job(wl.TASK_SEED, args.size)
    served = wl.run_training(job, 0.0, recipes=1)
    requests = wl.heldout_requests(args.seed, args.size)
    setup_s = time.perf_counter() - t0
    problems = wl.check_training(job, served)
    if served.model is None:
        return problems, {}, samples, served.attempted, served.failed, {}

    # a traced run compares one pass with and without the wrappers
    one_pass = len(requests) if args.trace else None
    run = wl.run_inference(served.model, requests, args.seconds,
                           groups=one_pass)
    problems += wl.check_inference(
        run, args.size, wl.SEED0_CER if args.seed == wl.TASK_SEED else None)
    samples["passes"] = run.passes
    outputs = {"served_model": wl.training_outputs(served),
               **wl.inference_outputs(run)}
    attempted, failed = run.attempted, run.failed
    if args.trace:
        with Tracer() as tracer:
            traced = wl.run_inference(served.model, requests, args.seconds,
                                      tracer, groups=one_pass)
        problems += traced.problems
        if traced.tokens != run.tokens:
            problems.append("tracing changed the decoded tokens")
        attempted += traced.attempted
        failed += traced.failed
        metrics = layer_metrics(tracer, run.wall_s, traced.wall_s)
        _dump(tracer, spans_dir, args)
    else:
        # the set-up trains the served model; its step times are reported
        # too, as measured there
        metrics = {"setup_s": (setup_s, "s"),
                   **train_metrics(served, samples),
                   **infer_metrics(run, samples)}
    return problems, outputs, samples, attempted, failed, metrics


def _dump(tracer, spans_dir, args):
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=wl.SIZES, default="full",
                    help="tiny: a few steps and requests, for smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None, spans_dir=ROOT / ".perfbench"):
    args = parse_args(argv)
    print("meta " + json.dumps(run_metadata(args)), flush=True)
    runner = _infer_workload if args.workload == "infer_sweep" \
        else _train_workload
    problems, outputs, samples, attempted, failed, metrics = \
        runner(args, spans_dir)
    print("outputs " + json.dumps(outputs))
    print("samples " + json.dumps(samples))
    for p in problems:
        print("problem " + p)
    correct = not problems and failed == 0 and bool(metrics) and \
        all(np.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v) if np.isfinite(v) else None,
                        "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    src = ROOT / "src"
    if not Path(vsrkit.__file__).resolve().is_relative_to(src):
        sys.exit(f"vsrkit must be imported from {src}, "
                 f"got {vsrkit.__file__}")
    sys.exit(main())
