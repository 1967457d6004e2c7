"""Sequence decoders: CTC greedy collapse, CTC prefix beam search (Hannun et
al. 2014, arXiv:1408.2873), and autoregressive greedy decoding for the
attention head. The CTC decoders are array code run once per frame; the beam
search's scores are bit-identical to summing its terms one at a time."""
from __future__ import annotations

import numpy as np

from .linguistics import BLANK

__all__ = [
    "log_probs",
    "ctc_greedy_decode",
    "ctc_beam_decode",
    "attention_greedy_decode",
]


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
    return best[(best != BLANK) & (np.diff(best, prepend=-1) != 0)].tolist()


def ctc_beam_decode(logits, beam_width):
    """Prefix beam search over blank/non-blank probabilities.

    Returns ``(tokens, score)`` pairs, a tuple and a float each, sorted by
    score descending; equal scores are ordered by token sequence ascending.
    ``beam_width=math.inf`` disables pruning, in which case the scores are
    the exact label-sequence marginals.

    Per frame, the n held prefixes' next entries form (n, K) arrays: the
    blank's column stays, column k grows by label k. A growth that is a
    held prefix merges into its stay, so no entry sums more than two terms,
    and a two-term ``np.logaddexp`` is symmetric: prefix order changes no bit.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    lp = log_probs(logits)
    _, K = lp.shape
    prefixes = [()]
    pb, pnb, total = np.zeros(1), np.full(1, -np.inf), np.zeros(1)
    for row in lp:
        last = np.array([p[-1] if p else BLANK for p in prefixes])
        # growing by k takes pb where k repeats the last label, else total
        new_pnb = np.where(np.arange(K) == last[:, None], pb[:, None],
                           total[:, None]) + row
        new_pnb[:, BLANK] = pnb + row[last]  # -inf for the empty prefix
        new_pb = np.full(new_pnb.shape, -np.inf)
        new_pb[:, BLANK] = total + row[BLANK]
        held = {p: i for i, p in enumerate(prefixes)}
        for j, p in enumerate(prefixes):
            if p and p[:-1] in held:
                i, k = held[p[:-1]], p[-1]
                new_pnb[j, BLANK] = np.logaddexp(new_pnb[j, BLANK], new_pnb[i, k])
                new_pnb[i, k] = -np.inf
        score = np.logaddexp(new_pb, new_pnb).ravel()
        keep = np.flatnonzero(score > -np.inf)

        def tokens(c):
            i, k = divmod(int(c), K)
            return prefixes[i] if k == BLANK else prefixes[i] + (k,)

        if len(keep) > beam_width:  # sort only what reaches the cut score
            cut = len(keep) - int(beam_width)
            keep = keep[score[keep] >= np.partition(score[keep], cut)[cut]]
            keep = sorted(keep, key=lambda c: (-score[c], tokens(c)))
            keep = keep[: int(beam_width)]
        prefixes = [tokens(c) for c in keep]
        pb, pnb, total = (a.ravel()[keep] for a in (new_pb, new_pnb, score))
    return sorted(zip(prefixes, total.tolist()), key=lambda h: (-h[1], h[0]))


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
