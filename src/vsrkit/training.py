"""Deterministic training loop: two-phase length curriculum, decoupled
weight-decay adaptive-moment optimizer, cosine schedule with warmup, the
branch ablation switch (``lambda1 = 0`` drops the alignment loss), and
``evaluate``, the one writer of the eval report. A training state is the
weights, both moments of every parameter, the rng and the step count;
the step count alone places a resumed state in the caller's schedule.
AdamW updates the moments and the weights in place, so anyone holding a
parameter or moment array sees it change."""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .autodiff import backward, grad_of
from .linguistics import LinguisticInventory
from .losses import (
    LossConfig,
    align_loss,
    attention_ce_loss,
    ctc_loss,
    total_loss,
)
from .metrics import cer
from .model import CHAR_OFFSET, EOS_ID, SOS_ID, Model, ModelConfig, \
    check_arrays, json_section
from .synth import filter_by_length, time_mask

__all__ = [
    "TrainConfig",
    "TrainState",
    "TrainingError",
    "lr_schedule",
    "train",
    "evaluate",
]

_TRAIN_STREAM = 55_001

# AdamW moments, decoupled weight decay and the global gradient clip; the
# phase-2 time mask's chance per utterance and its widest span in frames
_BETA1 = 0.9
_BETA2 = 0.98
_WEIGHT_DECAY = 0.01
_CLIP_NORM = 5.0
_TIME_MASK_PROB = 0.3
_TIME_MASK_MAX_WIDTH = 3


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs_phase1: int = 4
    epochs_phase2: int = 4
    phase1_max_frames: int = 24
    batch_size: int = 8
    lr_phase1: float = 1e-3
    lr_phase2: float = 1e-4
    warmup_steps: int = 8
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    disable_branches: bool = False

    def __post_init__(self):
        if self.batch_size < 1 or self.phase1_max_frames < 1:
            raise ValueError("batch size and phase-1 threshold must be positive")
        if self.lr_phase1 <= 0 or self.lr_phase2 <= 0:
            raise ValueError("learning rates must be positive")
        for name in ("epochs_phase1", "epochs_phase2", "warmup_steps", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, "
                                 f"got {getattr(self, name)}")


def lr_schedule(step, total_steps, peak, warmup):
    """Linear 0 -> peak over ``warmup`` steps, then cosine peak -> 0 at
    ``total_steps``."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    warmup = min(warmup, total_steps)
    if step <= warmup:
        return peak * step / warmup if warmup > 0 else peak
    if step >= total_steps:
        return 0.0
    frac = (step - warmup) / (total_steps - warmup)
    return peak * 0.5 * (1.0 + np.cos(np.pi * frac))


@dataclass
class TrainState:
    """Weights, AdamW moments (one per parameter), rng and step; the
    schedule is the caller's ``TrainConfig`` and ``step`` its position."""

    model: Model
    opt_m: dict
    opt_v: dict
    rng: np.random.Generator
    step: int = 0

    @classmethod
    def new(cls, cfg: TrainConfig, model_cfg: ModelConfig):
        model = Model(model_cfg, seed=cfg.seed,
                      with_branches=not cfg.disable_branches)
        rng = np.random.default_rng([cfg.seed, _TRAIN_STREAM])
        m, v = ({k: np.zeros_like(p.data) for k, p in model.params.items()}
                for _ in range(2))
        return cls(model=model, opt_m=m, opt_v=v, rng=rng)

    def save(self, path):
        """Write the model checkpoint (see ``Model.save``) plus this state's
        own sections: ``__train__`` (JSON of the step and the rng state)
        and the ``m::<name>`` and ``v::<name>`` moment arrays.
        ``Model.load`` reads the same file as a model."""
        train_meta = {"step": self.step,
                      "rng_state": self.rng.bit_generator.state}
        self.model.save(path, __train__=np.array(json.dumps(train_meta)),
                        **{f"m::{k}": v for k, v in self.opt_m.items()},
                        **{f"v::{k}": v for k, v in self.opt_v.items()})

    @classmethod
    def load(cls, path):
        """Model from ``Model.load``; step, rng and each parameter's two
        moments from the ``__train__``, ``m::`` and ``v::`` sections."""
        model = Model.load(path)
        with np.load(path, allow_pickle=False) as z:
            if "__train__" not in z.files:
                raise TrainingError(
                    f"{path} holds a model but no training state")
            meta = json_section(z, path, "__train__", ("step", "rng_state"),
                                TrainingError)
            moments = {k: z[k] for k in z.files if k.startswith(("m::", "v::"))}
        check_arrays(path, "moment", moments,
                     {f"{kind}::{k}": p.data for kind in "mv"
                      for k, p in model.params.items()}, TrainingError)
        step = meta["step"]
        if type(step) is not int or step < 0:  # a bool is not a step
            raise TrainingError(f"{path}: section __train__ key 'step' is "
                                f"not a non-negative int: {step!r}")
        rng = np.random.default_rng(0)
        try:
            rng.bit_generator.state = meta["rng_state"]
        except (ValueError, TypeError, KeyError, OverflowError) as e:
            raise TrainingError(f"{path}: section __train__ key 'rng_state' "
                                f"is not a PCG64 state ({e!r})") from None
        m, v = ({k: moments[f"{kind}::{k}"] for k in model.params}
                for kind in "mv")
        return cls(model=model, opt_m=m, opt_v=v, rng=rng, step=step)


def _char_tokens(utt):
    return [c + CHAR_OFFSET for c in utt.labels.chars]


def _pad_batch(utts, augment_rng=None):
    feats = []
    for u in utts:
        f = u.features
        if augment_rng is not None and _TIME_MASK_MAX_WIDTH < f.shape[0]:
            f = time_mask(f, augment_rng, _TIME_MASK_PROB, _TIME_MASK_MAX_WIDTH)
        feats.append(f)
    lengths = [f.shape[0] for f in feats]
    T = max(lengths)
    C = feats[0].shape[1]
    batch = np.zeros((len(feats), T, C))
    for i, f in enumerate(feats):
        batch[i, :lengths[i]] = f
    return batch, lengths


def _decoder_batch(utts, max_decode_len):
    tok = [_char_tokens(u) for u in utts]
    if any(len(t) > max_decode_len for t in tok):
        raise TrainingError("an utterance exceeds max_decode_len characters")
    L = max(len(t) for t in tok) + 1
    dec_in = np.full((len(tok), L), EOS_ID, dtype=np.int64)
    target = np.full((len(tok), L), EOS_ID, dtype=np.int64)
    for i, t in enumerate(tok):
        dec_in[i, 0] = SOS_ID
        dec_in[i, 1:len(t) + 1] = t
        target[i, :len(t)] = t
    return dec_in, target


def _batch_losses(cfg: TrainConfig, state: TrainState, utts, inv,
                  augment_rng=None):
    """One batch's loss components as ``total_loss`` returns them; an
    ``augment_rng`` time-masks the features, None leaves them intact."""
    model = state.model
    feats, lengths = _pad_batch(utts, augment_rng)
    dec_in, target = _decoder_batch(utts, model.cfg.max_decode_len)
    out = model.forward_train(feats, lengths, dec_in, state.rng)

    heads = {"char": out.char_ctc_logits}
    targets = {"char": [_char_tokens(u) for u in utts]}
    align = None
    if model.with_branches:
        heads.update(phoneme=out.phoneme_logits, viseme=out.viseme_logits)
        targets.update(phoneme=[u.labels.phonemes for u in utts],
                       viseme=[u.labels.visemes for u in utts])
        if cfg.loss.lambda1 > 0:
            vis_cls = out.viseme_logits.data.argmax(axis=-1)
            pho_cls = out.phoneme_logits.data.argmax(axis=-1)
            align = align_loss(out.V, out.P, vis_cls, pho_cls, inv,
                               cfg.loss, lengths=lengths)
    ctc = ctc_loss(heads, targets, lengths)
    char_attn = attention_ce_loss(out.char_attn_logits, target,
                                  [len(u.labels.chars) + 1 for u in utts])

    return total_loss(ctc["char"], char_attn, cfg.loss,
                      phoneme_ctc=ctc.get("phoneme"),
                      viseme_ctc=ctc.get("viseme"), align=align)


def _adamw_step(state: TrainState, lr):
    """Clip the gradient to ``_CLIP_NORM`` and take one AdamW step in place
    on the moments and the weights; returns the global gradient norm and
    the clip scale applied to it."""
    grads = {name: grad_of(p) for name, p in state.model.params.items()}
    norm = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    scale = _CLIP_NORM / norm if norm > _CLIP_NORM else 1.0

    # (m / bc1) / (sqrt(v / bc2) + 1e-8), bias corrections folded in
    t = state.step + 1
    root_bc2 = np.sqrt(1.0 - _BETA2 ** t)
    step = lr * root_bc2 / (1.0 - _BETA1 ** t)
    eps = 1e-8 * root_bc2
    for name, p in state.model.params.items():
        g = grads[name] if scale == 1.0 else grads[name] * scale
        m, v = state.opt_m[name], state.opt_v[name]
        buf = np.multiply(g, 1.0 - _BETA1)  # the one scratch array
        m *= _BETA1
        m += buf
        np.multiply(g, 1.0 - _BETA2, out=buf)
        buf *= g
        v *= _BETA2
        v += buf
        np.sqrt(v, out=buf)
        buf += eps
        np.divide(m, buf, out=buf)
        buf *= step
        if p.data.ndim >= 2:  # decoupled decay on weight matrices only
            p.data *= 1.0 - lr * _WEIGHT_DECAY
        p.data -= buf
        p.grad = None
    return float(norm), float(scale)


def train(cfg: TrainConfig, corpus, inv: LinguisticInventory,
          model_cfg: ModelConfig, checkpoint_dir=None, resume=None,
          log_fn=None):
    """Run the two-phase curriculum and return the final TrainState.

    Phase 1 sees only utterances of at most ``phase1_max_frames`` frames;
    phase 2 sees the full corpus with time-mask augmentation. The schedule
    is one list of epochs, phase 1's then phase 2's; a state resumed from
    ``resume`` skips the leading epochs whose steps add up to its step
    count. Every step stops on a non-finite loss component, then hands
    ``log_fn`` a record of all loss components, the global gradient norm
    and the clip scale applied to it.
    """
    if not corpus:
        raise TrainingError("corpus is empty")
    if resume is not None:
        # parameters, moments, rng and step come from the checkpoint;
        # the schedule being continued is the caller's
        state = TrainState.load(resume)
        saved = not state.model.with_branches
        if saved != cfg.disable_branches:
            raise TrainingError(
                f"{resume} was trained with disable_branches={saved}; cannot "
                f"resume it with disable_branches={cfg.disable_branches}")
    else:
        state = TrainState.new(cfg, model_cfg)
    vocab = state.model.cfg.phoneme_vocab
    if state.model.with_branches and vocab != inv.num_phonemes:
        raise TrainingError(
            f"model config phoneme_vocab = {vocab}, but the inventory has "
            f"{inv.num_phonemes} phonemes")

    phases = (
        (filter_by_length(corpus, cfg.phase1_max_frames), cfg.lr_phase1,
         cfg.epochs_phase1, False),
        (list(corpus), cfg.lr_phase2, cfg.epochs_phase2, True),
    )
    # (phase, epoch in phase, data, peak lr, epochs in phase, augment)
    schedule = [(phase, epoch, *p)
                for phase, p in enumerate(phases, 1) if p[0]
                for epoch in range(p[2])]
    steps_per_epoch = [(len(e[2]) + cfg.batch_size - 1) // cfg.batch_size
                       for e in schedule]
    ends = [0, *accumulate(steps_per_epoch)]
    if state.step not in ends:
        raise TrainingError(
            f"{resume}: step {state.step} does not end an epoch of this "
            f"schedule")
    start = ends.index(state.step)

    for (phase, epoch, data, peak, epochs, augment), per_epoch in zip(
            schedule[start:], steps_per_epoch[start:]):
        order = state.rng.permutation(len(data))
        for lo in range(0, len(data), cfg.batch_size):
            utts = [data[i] for i in order[lo:lo + cfg.batch_size]]
            lr = lr_schedule(epoch * per_epoch + lo // cfg.batch_size,
                             per_epoch * epochs, peak, cfg.warmup_steps)
            losses = _batch_losses(cfg, state, utts, inv,
                                   augment_rng=state.rng if augment else None)
            values = {k: float(t.data) for k, t in losses.items()}
            for name, v in values.items():
                if not np.isfinite(v):
                    raise TrainingError(f"non-finite loss component "
                                        f"{name!r} at step {state.step}")
            backward(losses["total"])
            grad_norm, clip_scale = _adamw_step(state, lr)
            if log_fn:
                log_fn({
                    "step": state.step,
                    "phase": phase,
                    "lr": lr,
                    **values,
                    "grad_norm": grad_norm,
                    "clip_scale": clip_scale,
                })
            state.step += 1
        if checkpoint_dir:
            ckdir = Path(checkpoint_dir)
            ckdir.mkdir(parents=True, exist_ok=True)
            state.save(ckdir / f"epoch_p{phase}e{epoch + 1}.npz")
    return state


def evaluate(model: Model, corpus, activations, lexicon, decode, beam_width,
             out):
    """Decode ``corpus`` under each ``ActivationConfig`` and write the eval
    report into the directory ``out``: ``report.jsonl`` holds a record per
    utterance and activation, then a summary of each activation's summed
    edit counts, corpus and median CER and active parameters;
    ``timings.json`` holds each activation's wall-clock seconds. Returns
    the summaries and those seconds."""
    if not corpus:
        raise TrainingError("corpus is empty")
    records, summaries, seconds = [], [], {}
    for act in activations:
        t0 = time.perf_counter()
        reports = []
        for u in corpus:
            hyp = model.forward_infer(u.features, act, decode=decode,
                                      beam_width=beam_width)
            ref_ids = _char_tokens(u)
            reports.append(cer(ref_ids, hyp.tokens))
            records.append({"kind": "utterance", "id": u.id,
                            "activation": act.name,
                            "reference": _readable(ref_ids, lexicon),
                            "hypothesis": _readable(hyp.tokens, lexicon),
                            **asdict(reports[-1])})
            if hyp.branch_frames:
                records[-1]["branch_frames"] = hyp.branch_frames
        seconds[act.name] = time.perf_counter() - t0
        counts = {k: sum(getattr(r, k) for r in reports) for k in
                  ("substitutions", "deletions", "insertions", "ref_len")}
        errors = sum(r.substitutions + r.deletions + r.insertions for r in reports)
        summaries.append({
            "activation": act.name,
            "utterances": len(corpus),
            **counts,
            "corpus_cer": errors / counts["ref_len"],
            "median_cer": float(np.median([r.cer for r in reports])),
            "active_params": model.count_active_params(act),
        })
    with open(Path(out) / "report.jsonl", "w", encoding="utf-8") as fh:
        for rec in [*records, {"kind": "summary", "configs": summaries}]:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    (Path(out) / "timings.json").write_text(json.dumps(seconds, indent=2),
                                            encoding="utf-8")
    return summaries, seconds


def _readable(token_ids, lexicon):
    out = []
    for t in token_ids:
        if CHAR_OFFSET <= t < CHAR_OFFSET + len(lexicon):
            out.append(lexicon.entries[t - CHAR_OFFSET].character)
        else:
            out.append(f"<{t}>")
    return out
