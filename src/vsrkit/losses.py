"""Training objectives: CTC, attention cross-entropy, their hybrid
combination, the semantic-guided local contrastive alignment loss, and the
total multitask loss.

All losses return scalar autodiff Tensors so gradients reach the model
through one reverse pass. CTC (per head), the attention cross-entropy and
the alignment loss each take one form, a padded batch with its required
lengths (one utterance is a batch of one), and are one taped node per
batch, a ``Tensor`` built from its value, its inputs and its gradient
function: the value and its masks are computed in numpy for the whole
batch at once, and the gradient has a closed form (for CTC, from the
forward-backward recursion) rather than coming from taping every
intermediate. Each computes in float64 whatever its inputs' dtype, and
hands back each gradient in its input's dtype. Padded frames and rows get
exactly zero gradient. One ``ctc_loss`` call takes dicts of heads by name
and runs one recursion over the utterances of them all. ``total_loss``
combines the losses into the objective and returns every present
component by name, in the order a training record logs them, so objective
and component names are written once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .decoding import log_probs
from .linguistics import BLANK, LinguisticInventory

__all__ = [
    "LossConfig",
    "CtcError",
    "CtcNoValidPathError",
    "ctc_loss",
    "attention_ce_loss",
    "align_loss",
    "total_loss",
]

NEG_INF = -np.inf

# an utterance with no active row adds 0 to the alignment loss, not 0 / 0
_ALIGN_EPSILON = 1e-8


class CtcError(ValueError):
    pass


class CtcNoValidPathError(CtcError):
    """Target cannot be emitted in the given number of frames."""


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters of the combined objective.

    These are the paper's objective: the hybrid weight alpha, the
    temperature tau, the loss weights lambda1 and lambda2, and the window
    w. Their defaults are project choices (exposed in config files);
    window_w = 5 matches the average viseme duration the synthetic
    durations are built around.
    """

    alpha: float = 0.7
    tau: float = 0.1
    lambda1: float = 1.0
    lambda2: float = 0.3
    window_w: int = 5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, "
                             f"got {self.tau}")
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {value}")
        if self.window_w < 1 or self.window_w % 2 == 0:
            raise ValueError(f"window_w must be odd and >= 1, got {self.window_w}")


def _extended_labels(target):
    ext = np.full(2 * len(target) + 1, BLANK, dtype=np.int64)
    ext[1::2] = target
    return ext


def _min_frames(target):
    repeats = sum(1 for a, b in zip(target[:-1], target[1:]) if a == b)
    return len(target) + repeats


def ctc_loss(logits, targets, lengths):
    """Batch mean of -log p(target | logits), summed over all alignments,
    for each CTC head of one padded batch.

    ``logits`` maps each head name to a B x T x K Tensor with the blank
    class at index 0, ``targets`` maps the same names to B blank-free token
    sequences, and ``lengths`` holds the B frame counts that every head
    shares; frames at or past T_b are padding. Returns a dict of one loss
    Tensor per head, in the order of ``logits``.

    The alpha and beta recursions run once over every head's utterances
    and the blank-interleaved label positions, padded to the longest; beta
    starts at each utterance's own last frame. The gradient comes from the
    occupancy posteriors and is exactly zero on padded frames.
    ``CtcNoValidPathError`` names the head and the first infeasible batch
    element.
    """
    if not (isinstance(logits, dict) and isinstance(targets, dict)):
        raise CtcError("logits and targets must be dicts by head name: a "
                       "B x T x K Tensor and B target sequences per head")
    names = list(logits)
    heads = [as_tensor(logits[n]) for n in names]
    xs = [lg.data for lg in heads]
    targets = [targets[n] for n in names]
    B, T = xs[0].shape[:2] if xs[0].ndim == 3 else (0, 0)
    if any(x.ndim != 3 or x.shape[:2] != (B, T) for x in xs):
        raise CtcError(f"each head must be B x T x K, with B and T shared "
                       f"by every head; got shapes {[x.shape for x in xs]}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if any(len(t) != B for t in targets) or lengths.shape != (B,):
        raise CtcError(f"need one target and one length per batch element, "
                       f"got {[len(t) for t in targets]} and "
                       f"{lengths.size} for B = {B}")
    if (lengths < 1).any() or (lengths > T).any():
        raise CtcError(f"lengths must lie in [1, {T}], got {lengths.tolist()}")

    exts = []  # row h·B + b holds head h's batch element b
    for row, target in enumerate(t for head in targets for t in head):
        h, b = divmod(row, B)
        target = np.asarray(target, dtype=np.int64)
        at = f"head {names[h]!r}, batch element {b}:"
        if target.ndim != 1:
            raise CtcError(f"{at} target must be a 1-D token sequence")
        if target.size and (target.min() < 1 or target.max() >= xs[h].shape[2]):
            if (target == BLANK).any():
                raise CtcError(f"{at} target must not contain the blank index")
            raise CtcError(f"{at} target token out of range")
        if _min_frames(target.tolist()) > lengths[b]:
            raise CtcNoValidPathError(f"{at} target of length {target.size} "
                                      f"cannot fit in {lengths[b]} frames")
        exts.append(_extended_labels(target))

    R = len(exts)
    S_len = np.array([len(e) for e in exts])
    S = int(S_len.max())
    ext = np.full((R, S), BLANK)  # padding never feeds a path
    for row, e in enumerate(exts):
        ext[row, :len(e)] = e
    bi = np.arange(R)
    ends = np.tile(lengths, len(xs)) - 1

    lps = [log_probs(x) for x in xs]  # B x T x K_h each
    lp_ext = np.concatenate([np.take_along_axis(  # R x T x S
        lp, ext[h * B:(h + 1) * B, None], axis=2) for h, lp in enumerate(lps)])

    # a path may also reach s from s-2 when s holds a label that differs
    # from the one at s-2
    skip_in = np.zeros(ext.shape, dtype=bool)
    skip_in[:, 2:] = (ext[:, 2:] != BLANK) & (ext[:, 2:] != ext[:, :-2])
    skip_out = np.zeros(ext.shape, dtype=bool)
    skip_out[:, :-2] = skip_in[:, 2:]

    # alpha, and beta with its frames and positions reversed, run as one
    # log-space recursion over 2R rows: x[r, i + 1, 2 + s] sums the paths
    # from s, s - 1 and (where skip allows) s - 2 at frame i, and row r
    # starts afresh at frame first[r]. Frame 0 and columns 0, 1 stay -inf;
    # positions past S_b only ever receive from lower ones.
    pos = np.arange(S)
    last_two = (pos >= S_len[:, None] - 2) & (pos < S_len[:, None])
    start = np.concatenate([np.where(pos < 2, lp_ext[:, 0], NEG_INF), np.where(
        last_two, lp_ext[bi, ends], NEG_INF)[:, ::-1]])
    first = np.concatenate([np.zeros_like(ends), T - 1 - ends])
    lp2 = np.concatenate([lp_ext, lp_ext[:, ::-1, ::-1]])
    skip = np.zeros((2 * R, 3, S))  # added to the window s - 2, s - 1, s
    skip[:, 0] = np.where(np.concatenate([skip_in, skip_out[:, ::-1]]), 0.0,
                          NEG_INF)
    x = np.full((2 * R, T + 1, S + 2), NEG_INF)
    window = np.lib.stride_tricks.sliding_window_view(x, S, axis=2)
    with np.errstate(divide="ignore"):
        for i in range(T):
            w = window[:, i] + skip
            # the largest term, or -1e300 where all are -inf: no -inf - -inf
            top = np.maximum(w.max(axis=1), -1e300)
            w -= top[:, None]
            np.exp(w, out=w)
            rec = lp2[:, i] + (np.log(w[:, 2] + w[:, 1] + w[:, 0]) + top)
            x[:, i + 1, 2:] = np.where((first == i)[:, None], start, rec)
    la, lb = x[:R, 1:, 2:], x[R:, :0:-1, :1:-1]

    log_p = np.logaddexp.reduce(
        np.where(last_two, la[bi, ends], NEG_INF), axis=-1)
    bad = np.flatnonzero(~np.isfinite(log_p))
    if bad.size:
        raise CtcNoValidPathError(f"head {names[bad[0] // B]!r}, batch "
                                  f"element {bad[0] % B}: no alignment has "
                                  f"nonzero probability")

    # each head's occupancy posterior of each position, summed onto its label
    frame_valid = np.arange(T)[None, :, None] < lengths[:, None, None]
    losses = []
    for h, (lg, lp) in enumerate(zip(heads, lps)):
        rows = slice(h * B, (h + 1) * B)
        Sh = int(S_len[rows].max())
        post = np.exp(la[rows, :, :Sh] + lb[rows, :, :Sh]
                      - lp_ext[rows, :, :Sh] - log_p[rows, None, None])
        occ = post @ (ext[rows, :Sh, None] ==
                      np.arange(lp.shape[2])).astype(np.float64)
        # d(-log p_b) / d logits
        grad = np.where(frame_valid, np.exp(lp) - occ, 0.0)
        losses.append(Tensor(
            np.float64(-log_p[rows].mean()), (lg,),
            lambda g, grad=grad, dt=lg.data.dtype:
                (((g * (1.0 / B)) * grad).astype(dt, copy=False),),
            op="ctc_loss"))
    return dict(zip(names, losses))


def attention_ce_loss(logits, targets, lengths) -> Tensor:
    """Batch mean of the per-utterance mean cross-entropy of teacher-forced
    decoder logits against their targets.

    ``logits`` is a B x L x K Tensor, ``targets`` a B x L array of class
    indices and ``lengths`` the B target lengths; rows at or past L_b are
    padding, their targets are ignored and their gradient is exactly zero.
    A ``ValueError`` names the first batch element with a length outside
    [1, L] or a target outside [0, K).
    """
    logits = as_tensor(logits)
    x = logits.data
    if x.ndim != 3:
        raise ValueError(
            f"decoder logits must be B x L x K, got shape {x.shape}")
    B, L, K = x.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (B, L):
        raise ValueError(f"targets of shape {targets.shape} do not match "
                         f"the logits rows {(B, L)}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,):
        raise ValueError(f"need one length per batch element, got "
                         f"{lengths.size} for B = {B}")
    valid = np.arange(L) < lengths[:, None]
    bad_length = (lengths < 1) | (lengths > L)
    bad_target = (valid & ((targets < 0) | (targets >= K))).any(axis=1)
    bad = np.flatnonzero(bad_length | bad_target)
    if bad.size:
        b = bad[0]
        if bad_length[b]:
            raise ValueError(f"batch element {b}: length {lengths[b]} "
                             f"outside [1, {L}]")
        raise ValueError(f"batch element {b}: target outside [0, {K})")

    targets = np.where(valid, targets, 0)
    lp = log_probs(x)  # B x L x K
    picked = np.take_along_axis(lp, targets[..., None], axis=-1)[..., 0]
    weight = valid * (1.0 / (B * lengths))[:, None]  # d loss / d row loss
    grad = (np.exp(lp) - (targets[..., None] == np.arange(K))) \
        * weight[..., None]
    return Tensor(np.float64(-(picked * weight).sum()), (logits,),
                  lambda g: ((g * grad).astype(x.dtype, copy=False),),
                  op="attention_ce_loss")


def _unit_rows(x):
    """Rows of ``x`` scaled to unit norm, with norms below 1e-12 clamped to
    1e-12, plus the map from a gradient on the unit rows to one on ``x``."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    denom = np.maximum(norm, 1e-12)
    unit = x / denom
    clamped = norm <= 1e-12

    def grad(g):
        dot = (g * unit).sum(axis=-1, keepdims=True)
        return (g - np.where(clamped, 0.0, unit * dot)) / denom

    return unit, grad


def align_loss(V, P, viseme_classes, phoneme_classes,
               inv: LinguisticInventory, cfg: LossConfig, lengths) -> Tensor:
    """Semantic-guided local contrastive loss between viseme features V and
    phoneme features P (both B x T x C), with ``lengths`` the B frame counts
    (0 is an empty utterance that adds 0 to the mean).

    Per batch element, over its frames i, j < T_b, the window mask is
    W_ij = 1 when |i - j| <= floor(w / 2), and the semantic mapping matrix
    is M_ij = 1 when frame j's phoneme class maps onto frame i's viseme
    class and that viseme is not blank. The positive distribution p_i is
    row i of M * W normalized, and the loss is the KL divergence from p_i
    to the local similarity distribution q_i = softmax(cos(V_i, P_j) / tau)
    over the window, averaged over rows that have positives and then over
    the batch. Every frame's classes (B x T, padded frames too) must be in
    range. Gradients reach V and P only; the classes are hard labels. The
    gradient is closed-form: (q - p) on the rows with positives, scaled by
    1 / (tau * B * (n_active + 1e-8)), taken through the cosine similarity;
    the 1e-8 keeps an utterance with no active row at 0. Padded frames get
    exactly zero gradient.
    """
    V, P = as_tensor(V), as_tensor(P)
    if V.data.shape != P.data.shape or V.data.ndim != 3 or \
            V.data.shape[1] < 1:
        raise ValueError(
            f"V and P must share a B x T x C shape with T >= 1, got "
            f"{V.data.shape} and {P.data.shape}"
        )
    B, T, _ = V.data.shape
    vis = np.asarray(viseme_classes, dtype=np.int64)
    pho = np.asarray(phoneme_classes, dtype=np.int64)
    if vis.shape != (B, T) or pho.shape != (B, T):
        raise ValueError("class arrays must be B x T")
    for kind, classes, n in (("viseme", vis, inv.num_visemes),
                             ("phoneme", pho, inv.num_phonemes)):
        bad = classes[(classes < 0) | (classes >= n)]
        if bad.size:
            raise ValueError(f"{kind} class {bad[0]} outside [0, {n})")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,):
        raise ValueError("lengths must have one entry per batch element")
    bad = np.flatnonzero((lengths < 0) | (lengths > T))
    if bad.size:
        raise ValueError(f"batch element {bad[0]}: length "
                         f"{lengths[bad[0]]} outside [0, {T}]")

    # every utterance's window W and positive distribution, zero past T_b
    idx = np.arange(T)
    frames = idx < lengths[:, None]
    window = (np.abs(idx[:, None] - idx) <= cfg.window_w // 2) \
        & frames[:, :, None] & frames[:, None, :]
    mapped = np.asarray(inv.phoneme_to_viseme)[pho]  # viseme of each P frame
    p = ((vis[:, :, None] == mapped[:, None, :]) & (vis != BLANK)[:, :, None]
         & window).astype(np.float64)
    row_sum = p.sum(axis=-1)
    active = row_sum > 0
    p /= np.where(active, row_sum, 1.0)[..., None]
    n_active = active.sum(axis=-1)

    v_hat, v_grad = _unit_rows(V.data.astype(np.float64, copy=False))
    p_hat, p_grad = _unit_rows(P.data.astype(np.float64, copy=False))
    scaled = (v_hat @ p_hat.swapaxes(-1, -2)) * (1.0 / cfg.tau)
    log_q = log_probs(np.where(window, scaled, -1e30))

    # KL(p || q) summed over rows; rows without positives have p = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    kl = (plogp - p * log_q).sum(axis=(1, 2))
    per_utt = kl * (1.0 / (n_active + _ALIGN_EPSILON))

    def grad_fn(g):
        scale = g / (cfg.tau * B * (n_active + _ALIGN_EPSILON))
        gz = (np.exp(log_q) * active[..., None] - p) * scale[:, None, None]
        return (v_grad(gz @ p_hat).astype(V.data.dtype, copy=False),
                p_grad(gz.swapaxes(-1, -2) @ v_hat).astype(P.data.dtype,
                                                           copy=False))

    return Tensor(np.float64(per_utt.sum() * (1.0 / B)), (V, P), grad_fn,
                  op="align_loss")


def total_loss(char_ctc, char_attn, cfg: LossConfig,
               phoneme_ctc=None, viseme_ctc=None, align=None) -> dict:
    """Combine components into the full multitask objective.

    total = hybrid(char) + lambda1 * align + lambda2 * (phoneme + viseme),
    with absent components contributing nothing. Returns the present
    components as Tensors, keyed and ordered as a training record logs
    them: char_ctc, char_attn, char_hybrid, phoneme_ctc, viseme_ctc,
    align, total.
    """
    if (phoneme_ctc is None) != (viseme_ctc is None):
        raise ValueError("phoneme and viseme losses must come together")
    hybrid = ad.add(ad.mul(char_attn, cfg.alpha),
                    ad.mul(char_ctc, 1.0 - cfg.alpha))
    total = hybrid
    if align is not None:
        total = ad.add(total, ad.mul(align, cfg.lambda1))
    if phoneme_ctc is not None:
        total = ad.add(total, ad.mul(ad.add(phoneme_ctc, viseme_ctc), cfg.lambda2))
    parts = {"char_ctc": char_ctc, "char_attn": char_attn,
             "char_hybrid": hybrid, "phoneme_ctc": phoneme_ctc,
             "viseme_ctc": viseme_ctc, "align": align, "total": total}
    return {name: t for name, t in parts.items() if t is not None}
