"""Tests of the benchmark harness itself, on tiny sizes of each workload."""
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, tracing
from perfbench import workloads as wl
from vsrkit.benchmark import (
    benchmark_synth_config,
    benchmark_train_config,
    make_benchmark_data,
)
from vsrkit.model import ALL_ACTIVATIONS, Model
from vsrkit.synth import phoneme_codebook

SPEC = json.loads((Path(__file__).resolve().parents[1] /
                   "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _run(capsys, tmp_path, workload, trace=0, seed=0, seconds=0):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv, spans_dir=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1]
              for line in lines[:-1]}
    return tagged, json.loads(lines[-1])


def _originals():
    out = {}
    for module, attr, _, _ in tracing.FUNCTIONS:
        out[(module, attr)] = getattr(importlib.import_module(module), attr)
    for attr, _, _ in tracing.METHODS:
        out[("Model", attr)] = getattr(Model, attr)
    return out


def test_benchmark_spec_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)
    assert "setup_s" in END_TO_END and not END_TO_END & PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_smoke_run(capsys, tmp_path, workload):
    tagged, result = _run(capsys, tmp_path, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, tagged.get("problem")
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    for name, m in result["metrics"].items():
        assert m["value"] > 0
        assert m["unit"] == UNITS[name]
    meta = json.loads(tagged["meta"])
    assert meta["seed"] == 0 and meta["nproc"] >= 1
    for key in ("git_sha", "python", "numpy", "scipy", "blas",
                "blas_threads"):
        assert key in meta


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_prints_identical_outputs(capsys, tmp_path, workload):
    # a longer run may repeat the work; the outputs must not say how often
    first, _ = _run(capsys, tmp_path, workload)
    second, _ = _run(capsys, tmp_path, workload, seconds=2)
    assert first["outputs"] == second["outputs"]


def test_outputs_do_not_depend_on_repeats():
    job = wl.train_short_job(0, "tiny")
    once = wl.run_training(job, 0.0, recipes=1)
    twice = wl.run_training(job, 0.0, recipes=2)
    assert wl.training_outputs(once) == wl.training_outputs(twice)
    requests = wl.heldout_requests(0, "tiny")
    one_pass = wl.run_inference(once.model, requests, 0.0,
                                groups=len(requests))
    more = wl.run_inference(once.model, requests, 0.0,
                            groups=len(requests) + 3)
    assert more.passes > one_pass.passes == 1
    assert wl.inference_outputs(one_pass) == wl.inference_outputs(more)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_reports_every_layer_and_restores(capsys, tmp_path,
                                                      workload):
    before = _originals()
    tagged, result = _run(capsys, tmp_path, workload, trace=1)
    assert result["correct"] is True, tagged.get("problem")
    assert set(result["metrics"]) == PER_LAYER
    for name, m in result["metrics"].items():
        assert m["unit"] == UNITS[name]
    assert _originals() == before
    spans = (tmp_path / f"spans-{workload}-seed0.jsonl").read_text()
    assert spans.count("\n") > 0


def test_tracer_restores_originals_when_the_body_raises():
    before = _originals()
    with pytest.raises(KeyError):
        with tracing.Tracer():
            assert _originals() != before
            raise KeyError("boom")
    assert _originals() == before


def _layer_and_unit_seconds(tracer, unit_prefix):
    self_s, _ = tracer.self_seconds()
    layers = sum(v for k, v in self_s.items() if not k.startswith(unit_prefix))
    units = tracer.unit_seconds(unit_prefix)
    return self_s, layers, units


def test_layer_self_times_fit_within_step_wall_time():
    job = wl.train_short_job(0, "tiny")
    with tracing.Tracer() as tracer:
        wl.run_training(job, 0.0, tracer)
    self_s, layers, units = _layer_and_unit_seconds(tracer, "training.step")
    assert min(self_s.values()) >= 0.0
    assert 0.0 < layers <= units
    assert layers + self_s["training.step"] == pytest.approx(units)


def test_layer_self_times_fit_within_request_wall_time():
    job = wl.train_short_job(0, "tiny")
    model = wl.run_training(job, 0.0, recipes=1).model
    requests = wl.heldout_requests(0, "tiny")
    with tracing.Tracer() as tracer:
        out = wl.run_inference(model, requests, 0.0, tracer, groups=2)
    # two utterances to all 12 pairs, then again to greedy and attention
    assert out.attempted == 2 * 12 + 2 * 4 * 2 and out.failed == 0
    self_s, layers, units = _layer_and_unit_seconds(tracer, "request.")
    assert min(self_s.values()) >= 0.0
    assert 0.0 < layers <= units


def _same_corpus(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def test_non_default_seed_changes_the_inputs():
    make = wl.train_short_job
    assert _same_corpus(make(0, "tiny").corpus, make(0, "tiny").corpus)
    assert not _same_corpus(make(0, "tiny").corpus, make(7, "tiny").corpus)
    for make in (wl.heldout_requests, wl.long_heldout_requests):
        assert _same_corpus(make(0), make(0))
        assert not _same_corpus(make(0), make(7))


def _residual_std(corpus, book):
    return np.std(np.concatenate([u.features - book[u.frame_phonemes]
                                  for u in corpus]))


def test_noise_redraw_matches_the_generator_feature_model():
    cfg = benchmark_synth_config(wl.TASK_SEED)
    inv, _ = wl._task_data()
    book = phoneme_codebook(cfg, inv)
    generated, _, _ = wl._corpus(wl.TASK_SEED)
    redrawn, _, _ = wl._corpus(7)
    # the generator's features are codebook rows plus noise of noise_std;
    # the re-drawn ones keep the rows and the noise level
    for corpus in (generated, redrawn):
        assert _residual_std(corpus, book) == pytest.approx(cfg.noise_std,
                                                            rel=0.02)
    for a, b in zip(generated, redrawn):
        assert a.labels == b.labels and a.features.shape == b.features.shape


def test_seed_zero_is_the_benchmark_recipe():
    train_corpus, test_corpus, _, _ = make_benchmark_data(wl.TASK_SEED)
    job = wl.train_short_job(wl.TASK_SEED)
    assert _same_corpus(job.corpus, train_corpus)
    assert job.train_cfg == benchmark_train_config(wl.TASK_SEED, "full")
    assert _same_corpus(wl.heldout_requests(0), test_corpus)


def test_train_long_job_has_long_sentences_and_enough_samples():
    job = wl.train_long_job()
    requests = wl.long_heldout_requests(0)
    for corpus in (job.corpus, requests):
        lengths = [len(u.labels.chars) for u in corpus]
        assert min(lengths) >= 5 and max(lengths) <= 8
    assert job.train_cfg.epochs_phase1 == 0
    # each p90, of the step intervals and of the request latencies of one
    # decoder, needs more than ten samples beyond it
    assert 0.1 * (job.steps - 1) > 10
    assert 0.1 * len(ALL_ACTIVATIONS) * len(requests) > 10


def test_edit_distance_reference():
    assert wl._edit_distance([1, 2, 3], [1, 3]) == 1
    assert wl._edit_distance([1, 2], [3, 4, 5]) == 3
    assert wl._edit_distance([4], [4]) == 0
