"""Reference training batch: ``time_mask`` copies and masks each utterance,
``_pad_batch`` pads the copies, ``_decoder_batch`` builds the decoder inputs
and targets, as they were before one pass did all three.
``vsrkit.training._batch`` must return the same arrays and leave the rng in
the same state; ``test_training.py`` checks that."""
import numpy as np

from vsrkit.model import CHAR_OFFSET, EOS_ID, SOS_ID
from vsrkit.training import TrainingError

_TIME_MASK_PROB = 0.3
_TIME_MASK_MAX_WIDTH = 3


def _char_tokens(utt):
    return [c + CHAR_OFFSET for c in utt.labels.chars]


def time_mask(features, rng, prob, max_width):
    """With probability ``prob`` zero one contiguous span of at most
    ``max_width`` frames; returns a copy either way."""
    features = np.array(features, copy=True)
    T = features.shape[0]
    if max_width >= T:
        raise ValueError(f"max_width {max_width} must be < sequence length {T}")
    if prob > 0 and rng.random() < prob:
        width = int(rng.integers(1, max_width + 1))
        start = int(rng.integers(0, T - width + 1))
        features[start:start + width] = 0.0
    return features


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
