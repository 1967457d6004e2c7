"""The benchmark workloads.

Every workload builds its inputs from the workload seed with the recipe in
``vsrkit.benchmark`` and drives vsrkit through its public API only:
``training.train(..., log_fn=)``, ``Model.forward_infer`` and
``metrics.cer``. One process and one caller run a closed loop: the next
step or request starts when the previous one has returned.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from vsrkit import metrics, training
from vsrkit.benchmark import (
    benchmark_model_config,
    benchmark_synth_config,
    benchmark_train_config,
    make_benchmark_data,
)
from vsrkit.model import ALL_ACTIVATIONS, BLANK_ID, CHAR_OFFSET
from vsrkit.synth import filter_by_length, generate_corpus, phoneme_codebook

WORKLOADS = ("train_short", "train_long", "infer_sweep")
SIZES = ("full", "tiny")

# Every vsrkit error class derives from one of these. A step or request
# that raises one counts as failed instead of ending the run.
VSRKIT_ERRORS = (ValueError, RuntimeError)

# (metric label, forward_infer decode mode)
DECODERS = (("greedy", "ctc_greedy"), ("attention", "attention"),
            ("beam", "ctc_beam"))
BEAM_WIDTH = 8

# Decoders whose requests are all sent a second time, after the first pass
# (see run_inference). Their latency metrics are bounded; beam search,
# which takes most of a pass, is sent once.
RESENT_DECODERS = ("greedy", "attention")

# Set-up is short on the train workloads (10-15 ms to build the corpus and
# the requests), and on the machine the bounds were set on its speed
# drifts by a third from one second to the next. It is repeated for about
# five seconds and the median reported, so that neither one slow repeat nor
# one slow second reads as a regression: over ten seeds the median of 30
# repeats had a spread of 0.46, of 300 repeats 0.29, of 1,000 repeats
# 0.16-0.22. More repeats would not fit the time budget of all runs.
SETUP_REPEATS = {"full": 400, "tiny": 3}

# Every workload uses the sentences and frame durations that the benchmark
# recipe draws at TASK_SEED, with its lexicon and phoneme codebook. The
# workload seed re-draws the feature noise, the initial weights, the data
# order and the training masks (on train_long, only the feature noise of
# its requests); seed TASK_SEED is the recipe itself. The
# sentences stay fixed because their lengths set the cost of a step or a
# request: drawn per seed, the train corpus's frame count has a quartile
# spread over seeds 1-10 of 0.198 of its median (0.082 with a fixed
# lexicon).
TASK_SEED = 0
NOISE_STREAM = 505

# infer_sweep serves the model that the full recipe trains at TASK_SEED.
# Its requests are the recipe's held-out corpus (drawn at utterance seed
# HELDOUT_SEED), so CER differences between workload seeds come from the
# feature noise alone and not from a different model or other sentences.
HELDOUT_SEED = TASK_SEED + 90_000
HELDOUT_UTTERANCES = 48

# Corpus CER of the served model on the seed-0 requests, rounded to four
# places. A full-size infer_sweep run at seed 0 must reproduce them.
SEED0_CER = {
    ("greedy", "f"): 0.525,
    ("greedy", "f+p+v"): 0.5083,
    ("attention", "f+p+v"): 0.525,
    ("beam", "f+p+v"): 0.3083,
}

# Corpus CER of the model train_long trains at TASK_SEED on its held-out
# requests at TASK_SEED, rounded to four places.
LONG_SEED0_CER = {
    ("greedy", "f"): 0.4879,
    ("greedy", "f+p+v"): 0.5652,
    ("attention", "f+p+v"): 0.7198,
    ("beam", "f+p+v"): 0.2029,
}

# train_long: phase-2 settings on 5-8 character sentences. 96 utterances
# for 9 epochs give 108 steps, so the step-time p90 has more than ten
# samples beyond it. Phase 2 runs at the recipe's phase-1 peak rate: at
# its fine-tuning rate a model trained from scratch for 108 steps decodes
# nothing (greedy CER 1.0), and the rate does not change what a step
# computes. The trained model then serves 32 held-out sentences of the
# same lengths, 128 requests per decoder, so each latency p90 has more
# than ten samples beyond it. The training inputs are those of TASK_SEED
# at every workload seed, which draws only the requests' feature noise:
# the seed changes nothing a training step computes, and a model trained
# per seed gave beam-search CERs (about 0.2, from some 40 errors) with a
# spread over five seeds of 0.21-0.29, above the largest bound allowed.
LONG_SENTENCE_LEN = (5, 8)
LONG_UTTERANCES = 96
LONG_EPOCHS = 9
LONG_HELDOUT_UTTERANCES = 32


@dataclass
class TrainJob:
    """One training recipe and the work it implies."""

    corpus: list
    inv: object
    train_cfg: object
    model_cfg: object
    steps: int = 0
    frames: int = 0  # unpadded input frames fed through the model

    def __post_init__(self):
        cfg = self.train_cfg
        phases = ((filter_by_length(self.corpus, cfg.phase1_max_frames),
                   cfg.epochs_phase1),
                  (self.corpus, cfg.epochs_phase2))
        for data, epochs in phases:
            if data and epochs:
                self.steps += math.ceil(len(data) / cfg.batch_size) * epochs
                self.frames += sum(u.num_frames() for u in data) * epochs
        too_long = [u.id for u in self.corpus
                    if u.num_frames() > self.model_cfg.max_frames]
        if too_long:
            raise ValueError(f"utterances exceed max_frames: {too_long}")


def _tiny(corpus, cfg, n_utts):
    """A few steps of the same recipe, for smoke tests."""
    return corpus[:n_utts], replace(
        cfg, epochs_phase1=min(cfg.epochs_phase1, 1), epochs_phase2=1)


@functools.cache
def _task_data():
    """The recipe's inventory and lexicon at TASK_SEED, built once."""
    _, _, inv, lexicon = make_benchmark_data(TASK_SEED)
    return inv, lexicon


def redraw_noise(corpus, cfg, inv, noise_seed):
    """``corpus`` with its feature noise re-drawn at ``noise_seed``.

    ``generate_corpus`` makes each frame's features as the codebook row of
    its phoneme plus ``cfg.noise_std`` times standard normal noise; this
    keeps the codebook rows, and so the sentences and durations, and draws
    the noise again.
    """
    book = phoneme_codebook(cfg, inv)
    rng = np.random.default_rng([noise_seed, NOISE_STREAM, cfg.seed])
    return [replace(u, features=book[u.frame_phonemes] + cfg.noise_std
                    * rng.normal(size=u.features.shape))
            for u in corpus]


def _corpus(noise_seed, **synth):
    """The task's corpus for ``synth`` overrides, with the feature noise
    drawn at ``noise_seed``; at TASK_SEED, the corpus as generated."""
    inv, lexicon = _task_data()
    cfg = replace(benchmark_synth_config(TASK_SEED), **synth)
    corpus = generate_corpus(cfg, inv, lexicon)
    if noise_seed != TASK_SEED:
        corpus = redraw_noise(corpus, cfg, inv, noise_seed)
    return corpus, inv, lexicon


def train_short_job(seed, size="full"):
    """The ``full`` variant of the benchmark recipe; at seed 0 exactly
    the recipe's own corpus and training run."""
    corpus, inv, lexicon = _corpus(seed)
    cfg = benchmark_train_config(seed, "full")
    if size == "tiny":
        corpus, cfg = _tiny(corpus, cfg, 24)
    return TrainJob(corpus, inv, cfg, benchmark_model_config(len(lexicon)))


def train_long_job(size="full"):
    """Phase-2 training only, on sentences of 5-8 characters, the same at
    every workload seed (see LONG_SENTENCE_LEN)."""
    n = 16 if size == "tiny" else LONG_UTTERANCES
    corpus, inv, lexicon = _corpus(TASK_SEED, num_utterances=n,
                                   sentence_len=LONG_SENTENCE_LEN)
    recipe = benchmark_train_config(TASK_SEED, "full")
    cfg = replace(recipe, epochs_phase1=0, epochs_phase2=LONG_EPOCHS,
                  lr_phase2=recipe.lr_phase1)
    if size == "tiny":
        corpus, cfg = _tiny(corpus, cfg, n)
    return TrainJob(corpus, inv, cfg, benchmark_model_config(len(lexicon)))


def heldout_requests(seed, size="full"):
    """The recipe's held-out utterances, feature noise drawn at ``seed``."""
    n = 4 if size == "tiny" else HELDOUT_UTTERANCES
    return _corpus(seed, seed=HELDOUT_SEED, num_utterances=n)[0]


def long_heldout_requests(seed, size="full"):
    """Held-out sentences of 5-8 characters, feature noise drawn at
    ``seed``, for the model ``train_long`` trains."""
    n = 4 if size == "tiny" else LONG_HELDOUT_UTTERANCES
    return _corpus(seed, seed=HELDOUT_SEED, num_utterances=n,
                   sentence_len=LONG_SENTENCE_LEN)[0]


# ----------------------------------------------------------------------
# training


@dataclass
class TrainRun:
    """What one or more runs of a training recipe produced."""

    step_ms: list = field(default_factory=list)
    wall_s: float = 0.0
    frames: int = 0
    attempted: int = 0
    failed: int = 0
    recipes: int = 0
    records: list = field(default_factory=list)  # of the first recipe
    digests: list = field(default_factory=list)  # one per recipe
    model: object = None
    errors: list = field(default_factory=list)


def loss_digest(records):
    """Digest of every logged loss component of every step."""
    blob = json.dumps(records, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_recipe(job, out: TrainRun, tracer=None):
    """Train ``job`` once, appending its step intervals to ``out``.

    The step interval is the time between consecutive ``log_fn`` calls;
    the first step also builds the model, so it has no interval. With a
    tracer, one ``training.step`` span covers each step.
    """
    stamps, records = [], []

    def log_fn(record):
        stamps.append(time.perf_counter())
        records.append(record)
        if tracer is not None:
            tracer.end()
            tracer.begin("training.step")

    if tracer is not None:
        tracer.begin("training.step")
    t0 = time.perf_counter()
    try:
        state = training.train(job.train_cfg, job.corpus, job.inv,
                               job.model_cfg, log_fn=log_fn)
    except VSRKIT_ERRORS as exc:
        out.failed += 1
        out.attempted += 1
        out.errors.append(f"step {len(records)}: {type(exc).__name__}: {exc}")
        state = None
    wall = time.perf_counter() - t0
    if tracer is not None and state is None:
        tracer.end()  # the step that failed
    elif tracer is not None:
        tracer.discard_open()  # opened after the last step
    out.step_ms.extend(np.diff(stamps) * 1e3)
    out.wall_s += wall
    out.attempted += len(records)
    out.recipes += 1
    out.digests.append(loss_digest(records))
    if out.recipes == 1:
        out.records = records
        out.model = state.model if state is not None else None
    if state is not None:
        out.frames += job.frames
    return wall


def run_training(job, seconds, tracer=None, recipes=None):
    """Run whole recipes: at least one, then more while the next one is
    expected to end within ``seconds``; or exactly ``recipes`` of them."""
    out = TrainRun()
    elapsed = 0.0
    while True:
        last = run_recipe(job, out, tracer)
        elapsed += last
        if out.failed:
            break
        if recipes is not None:
            if out.recipes >= recipes:
                break
        elif elapsed + last > seconds:
            break
    return out


def check_training(job, run: TrainRun):
    """Output checks for a training run; returns a list of problems."""
    problems = list(run.errors)
    if run.failed:
        return problems
    if len(run.records) != job.steps:
        problems.append(f"logged {len(run.records)} steps, recipe has {job.steps}")
    for rec in run.records:
        bad = [k for k, v in rec.items() if not np.isfinite(v)]
        if bad:
            problems.append(f"non-finite {bad} at step {rec['step']}")
            break
    if len(set(run.digests)) != 1:
        problems.append(f"repeated recipes disagree: {run.digests}")
    per_epoch = max(1, math.ceil(len(job.corpus) / job.train_cfg.batch_size))
    first = np.mean([r["total"] for r in run.records[:per_epoch]])
    last = np.mean([r["total"] for r in run.records[-per_epoch:]])
    if len(run.records) > per_epoch and not last < first:
        problems.append(f"loss did not fall: first epoch {first}, last {last}")
    return problems


def training_outputs(run: TrainRun):
    if not run.records:
        return {}
    return {"final_loss": run.records[-1]["total"],
            "final_components": run.records[-1],
            "loss_digest": run.digests[0]}


# ----------------------------------------------------------------------
# inference


@dataclass
class InferRun:
    """Per-request latencies and the first pass's decoded tokens."""

    latency_ms: dict = field(default_factory=dict)  # key -> [ms per send]
    tokens: dict = field(default_factory=dict)  # (decoder, act, utt) -> tokens
    edits: dict = field(default_factory=dict)  # (decoder, act) -> [errs, N]
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    groups: int = 0  # utterances sent, each to all 12 pairs
    passes: float = 0.0
    problems: list = field(default_factory=list)


def _edit_distance(ref, hyp):
    """Levenshtein distance, independent of ``metrics.cer``."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


def _request(model, utt, act, decode, char_vocab, out: InferRun, key, tracer):
    """One request: decode one utterance, then score it."""
    ref = [c + CHAR_OFFSET for c in utt.labels.chars]
    if tracer is not None:
        tracer.begin(f"request.{key[0]}")
    t0 = time.perf_counter()
    try:
        hyp = model.forward_infer(utt.features, act, decode=decode,
                                  beam_width=BEAM_WIDTH)
        rep = metrics.cer(ref, hyp.tokens)
    except VSRKIT_ERRORS as exc:
        out.failed += 1
        out.problems.append(f"{key}: {type(exc).__name__}: {exc}")
        return
    finally:
        ms = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.end()
        out.attempted += 1
    out.latency_ms.setdefault(key, []).append(ms)

    tokens = tuple(int(t) for t in hyp.tokens)
    if key in out.tokens:
        if out.tokens[key] != tokens:
            out.problems.append(f"{key}: repeated request decoded {tokens}, "
                                f"first {out.tokens[key]}")
    else:  # first pass: score it
        out.tokens[key] = tokens
        # CTC decoding removes blanks; attention decoding takes the argmax
        # over the whole vocabulary, so a weak model may emit the blank id
        if any(not 0 <= t < char_vocab for t in tokens):
            out.problems.append(f"{key}: token out of range in {tokens}")
        if decode != "attention" and BLANK_ID in tokens:
            out.problems.append(f"{key}: CTC decoding emitted a blank in "
                                f"{tokens}")
        errs = rep.substitutions + rep.deletions + rep.insertions
        if errs != _edit_distance(ref, tokens) or rep.ref_len != len(ref):
            out.problems.append(f"{key}: cer counts {rep} disagree with "
                                f"edit distance")
        tot = out.edits.setdefault(key[:2], [0, 0])
        tot[0] += errs
        tot[1] += rep.ref_len


def run_inference(model, requests, seconds, tracer=None, groups=None):
    """Send every request utterance for each activation x decoder.

    Runs whole passes over the requests, then keeps going one utterance
    at a time until ``seconds`` have passed; or sends exactly ``groups``
    utterance groups. Every utterance's 12 requests go out back to back,
    so every activation x decoder pair sees the same utterances. Then
    every request of a RESENT_DECODERS decoder that was sent goes out once
    more, so that a burst of slowness on the machine reaches few requests
    on both sends (see ``request_latencies``).
    """
    out = InferRun()
    char_vocab = model.cfg.char_vocab
    n = len(requests)
    t0 = time.perf_counter()
    g = 0
    while True:
        if groups is not None:
            if g >= groups:
                break
        elif g >= n and time.perf_counter() - t0 >= seconds:
            break
        idx = g % n
        utt = requests[idx]
        for act in ALL_ACTIVATIONS:
            for label, decode in DECODERS:
                _request(model, utt, act, decode, char_vocab, out,
                         (label, act.name, idx), tracer)
        g += 1
    for idx in range(min(g, n)):
        for act in ALL_ACTIVATIONS:
            for label, decode in DECODERS:
                if label in RESENT_DECODERS:
                    _request(model, requests[idx], act, decode, char_vocab,
                             out, (label, act.name, idx), tracer)
    out.wall_s = time.perf_counter() - t0
    out.groups = g
    out.passes = g / n
    return out


def request_latencies(run: InferRun, label, act=None):
    """The latency of each request of decoder ``label`` (and activation
    ``act``): the fastest of its sends."""
    return [min(ms) for (d, a, _), ms in sorted(run.latency_ms.items())
            if d == label and act in (None, a)]


def corpus_cer(run: InferRun):
    return {k: errs / n for k, (errs, n) in run.edits.items()}


def check_inference(run: InferRun, size, expected_cer=None):
    """Output checks for an inference run; ``expected_cer`` maps
    (decoder, activation) to the corpus CER a full-size run must give,
    rounded to four places."""
    problems = list(run.problems)
    cers = corpus_cer(run)
    expected = len(ALL_ACTIVATIONS) * len(DECODERS)
    if len(cers) != expected:
        problems.append(f"scored {len(cers)} activation x decoder pairs, "
                        f"expected {expected}")
    if size == "full":
        best = cers.get(("beam", "f+p+v"), math.inf)
        if not best < 1.0:
            problems.append(f"beam f+p+v CER {best} is no better than "
                            f"empty output")
        for key, want in (expected_cer or {}).items():
            got = cers.get(key)
            if got is None or round(got, 4) != want:
                problems.append(f"CER {key} = {got}, want {want}")
    return problems


def inference_outputs(run: InferRun):
    blob = json.dumps(sorted((list(k), v) for k, v in run.tokens.items()))
    return {"cer": {f"{d}.{a}": c for (d, a), c in sorted(corpus_cer(run).items())},
            "token_digest": hashlib.sha256(blob.encode()).hexdigest()[:16]}
