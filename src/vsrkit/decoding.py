"""Sequence decoders: CTC greedy collapse, CTC prefix beam search, and
autoregressive greedy decoding for the attention head."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linguistics import BLANK

__all__ = [
    "Hypothesis",
    "log_probs",
    "ctc_greedy_decode",
    "ctc_beam_decode",
    "attention_greedy_decode",
]


@dataclass
class Hypothesis:
    """A decoded token sequence with its log-probability score."""

    tokens: tuple
    score: float
    branch_frames: dict = field(default_factory=dict)


def log_probs(logits):
    """Log-softmax over the last axis, as plain numpy."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def ctc_greedy_decode(logits):
    """Framewise argmax, merge repeats, drop blanks."""
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError("logits must be T x K with K >= 2")
    best = logits.argmax(axis=1)
    out = []
    prev = -1
    for c in best:
        if c != prev and c != BLANK:
            out.append(int(c))
        prev = c
    return out


def ctc_beam_decode(logits, beam_width):
    """Prefix beam search over blank/non-blank probabilities.

    Returns hypotheses sorted by score descending; equal scores are ordered
    by token sequence ascending. ``beam_width=math.inf`` disables pruning,
    in which case the scores are the exact label-sequence marginals.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    lp = log_probs(logits)
    T, K = lp.shape

    NEG = -math.inf
    beams = {(): (0.0, NEG)}  # prefix -> (log p ending blank, ending non-blank)
    for t in range(T):
        row = lp[t]
        new = {}

        def bump(prefix, pb=NEG, pnb=NEG):
            if pb == NEG and pnb == NEG:
                return
            old_pb, old_pnb = new.get(prefix, (NEG, NEG))
            new[prefix] = (np.logaddexp(old_pb, pb), np.logaddexp(old_pnb, pnb))

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            bump(prefix, pb=total + row[BLANK])
            if prefix:
                bump(prefix, pnb=pnb + row[prefix[-1]])
            for k in range(1, K):
                ext = prefix + (k,)
                if prefix and k == prefix[-1]:
                    bump(ext, pnb=pb + row[k])
                else:
                    bump(ext, pnb=total + row[k])
        if len(new) > beam_width:
            ranked = sorted(
                new.items(),
                key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]),
            )
            new = dict(ranked[: int(beam_width)])
        beams = new

    hyps = [
        Hypothesis(tokens=prefix, score=float(np.logaddexp(pb, pnb)))
        for prefix, (pb, pnb) in beams.items()
        if np.logaddexp(pb, pnb) > NEG
    ]
    hyps.sort(key=lambda h: (-h.score, h.tokens))
    return hyps


def attention_greedy_decode(step_fn, max_len, eos_id):
    """Argmax autoregressive decode.

    ``step_fn(prefix)`` returns the next-token logits given the tokens
    emitted so far (the start symbol is the callee's concern); it may keep
    state, as each prefix extends the last by one token. Decoding stops at
    ``eos_id`` or after ``max_len`` tokens."""
    tokens = []
    for _ in range(max_len):
        logits = np.asarray(step_fn(tuple(tokens)))
        nxt = int(logits.argmax())
        if nxt == eos_id:
            break
        tokens.append(nxt)
    return tokens
