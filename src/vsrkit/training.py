"""Deterministic training loop: two-phase length curriculum, decoupled
weight-decay adaptive-moment optimizer, cosine schedule with warmup,
ablation switches, and per-activation evaluation with timing. A training
state is the weights, the optimizer moments, the rng and the step count;
the step count alone places a resumed state in the caller's schedule."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
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
from .metrics import cer, report_record
from .model import CHAR_OFFSET, EOS_ID, SOS_ID, Model, ModelConfig
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
    disable_align: bool = False
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
    """Weights, step count, AdamW moments and rng; the schedule is the
    caller's ``TrainConfig``, and ``step`` is the position in it."""

    model: Model
    step: int = 0
    opt_m: dict = field(default_factory=dict)
    opt_v: dict = field(default_factory=dict)
    rng: np.random.Generator = None

    @classmethod
    def new(cls, cfg: TrainConfig, model_cfg: ModelConfig):
        model = Model(model_cfg, seed=cfg.seed,
                      with_branches=not cfg.disable_branches)
        rng = np.random.default_rng([cfg.seed, _TRAIN_STREAM])
        return cls(model=model, rng=rng)

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
        """Model from ``Model.load``; step, rng and moments from the
        ``__train__``, ``m::`` and ``v::`` sections."""
        model = Model.load(path)
        with np.load(path, allow_pickle=False) as z:
            if "__train__" not in z.files:
                raise TrainingError(
                    f"{path} holds a model but no training state")
            meta = json.loads(str(z["__train__"]))
            m = {k[3:]: z[k] for k in z.files if k.startswith("m::")}
            v = {k[3:]: z[k] for k in z.files if k.startswith("v::")}
        rng = np.random.default_rng(0)
        rng.bit_generator.state = meta["rng_state"]
        return cls(model=model, step=meta["step"], opt_m=m, opt_v=v, rng=rng)


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

    char_ctc = ctc_loss(out.char_ctc_logits,
                        [_char_tokens(u) for u in utts], lengths)
    char_attn = attention_ce_loss(out.char_attn_logits, target,
                                  [len(u.labels.chars) + 1 for u in utts])

    phoneme_ctc = viseme_ctc = align = None
    if model.with_branches:
        phoneme_ctc = ctc_loss(out.phoneme_logits,
                               [u.labels.phonemes for u in utts], lengths)
        viseme_ctc = ctc_loss(out.viseme_logits,
                              [u.labels.visemes for u in utts], lengths)
        if not cfg.disable_align:
            vis_cls = out.viseme_logits.data.argmax(axis=-1)
            pho_cls = out.phoneme_logits.data.argmax(axis=-1)
            align = align_loss(out.V, out.P, vis_cls, pho_cls, inv,
                               cfg.loss, lengths=lengths)

    return total_loss(char_ctc, char_attn, cfg.loss,
                      phoneme_ctc=phoneme_ctc, viseme_ctc=viseme_ctc,
                      align=align)


def _adamw_step(state: TrainState, lr):
    """Clip the gradient to ``_CLIP_NORM`` and take one AdamW step;
    returns the global gradient norm and the clip scale applied to it."""
    grads = {}
    sq = 0.0
    for name, p in state.model.params.items():
        g = grads[name] = grad_of(p)
        sq += float((g * g).sum())
    norm = np.sqrt(sq)
    scale = _CLIP_NORM / norm if norm > _CLIP_NORM else 1.0

    t = state.step + 1
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for name, p in state.model.params.items():
        g = grads[name] * scale
        m = state.opt_m.get(name)
        v = state.opt_v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = _BETA1 * m + (1.0 - _BETA1) * g
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        state.opt_m[name] = m
        state.opt_v[name] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
        if p.data.ndim >= 2:  # decoupled decay on weight matrices only
            update = update + _WEIGHT_DECAY * p.data
        p.data = p.data - lr * update
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


def evaluate(model: Model, corpus, activations, lexicon, decode, beam_width):
    """Per-activation decoding of a corpus.

    ``activations`` are ``ActivationConfig`` objects. Returns one result
    per activation config: utterance records, a summary (corpus and median
    CER, active parameter count), and the wall-clock seconds the pass took.
    """
    results = []
    for act in activations:
        t0 = time.perf_counter()
        records = []
        cers = []
        S = D = I = N = 0
        for u in corpus:
            hyp = model.forward_infer(u.features, act, decode=decode,
                                      beam_width=beam_width)
            ref_ids = _char_tokens(u)
            rep = cer(ref_ids, hyp.tokens)
            cers.append(rep.cer)
            S += rep.substitutions
            D += rep.deletions
            I += rep.insertions
            N += rep.ref_len
            records.append(report_record(
                u.id, act.name,
                _readable(ref_ids, lexicon),
                _readable(hyp.tokens, lexicon),
                rep,
                branch_frames=hyp.branch_frames or None,
            ))
        wall = time.perf_counter() - t0
        summary = {
            "activation": act.name,
            "utterances": len(corpus),
            "substitutions": S,
            "deletions": D,
            "insertions": I,
            "ref_len": N,
            "corpus_cer": (S + D + I) / N if N else 0.0,
            "median_cer": float(np.median(cers)) if cers else 0.0,
            "active_params": model.count_active_params(act),
        }
        results.append({"records": records, "summary": summary,
                        "wall_clock_s": wall})
    return results


def _readable(token_ids, lexicon):
    out = []
    for t in token_ids:
        if CHAR_OFFSET <= t < CHAR_OFFSET + len(lexicon):
            out.append(lexicon.entries[t - CHAR_OFFSET].character)
        else:
            out.append(f"<{t}>")
    return out
