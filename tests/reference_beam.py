"""Reference CTC prefix beam search: a dict of prefixes, updated one term
at a time. ``vsrkit.decoding.ctc_beam_decode`` must return exactly its
``(tokens, score)`` pairs; ``test_decoding.py`` checks that."""
import math

import numpy as np

from vsrkit.decoding import log_probs
from vsrkit.linguistics import BLANK


def ctc_beam_decode(logits, beam_width):
    """``(tokens, score)`` pairs sorted by score descending, then by tokens
    ascending."""
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

    hyps = [(prefix, float(np.logaddexp(pb, pnb)))
            for prefix, (pb, pnb) in beams.items()
            if np.logaddexp(pb, pnb) > NEG]
    hyps.sort(key=lambda h: (-h[1], h[0]))
    return hyps
