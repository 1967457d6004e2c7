"""Self-contained oracle suites: exhaustive CTC path enumeration, a dense
re-implementation of the alignment loss, a reference edit-distance, and
finite-difference gradient checks, entry by entry for each loss and along
one random direction per parameter group for the whole model. Each gradient
check reads ``autodiff.gradient_error``: the largest error scaled to the
larger gradient's largest entry.

Everything here is deliberately independent of the taped implementations it
checks: plain loops, no shared helpers beyond the inventory data. A
single-utterance check passes the losses a batch of one.
"""
from __future__ import annotations

import functools
import itertools
import math
import time

import numpy as np

from . import autodiff as ad
from .autodiff import (
    Tensor,
    central_difference,
    finite_difference_check,
    gradient_error,
)
from .linguistics import default_inventory
from .losses import (
    CtcNoValidPathError,
    LossConfig,
    align_loss,
    attention_ce_loss,
    ctc_loss,
    total_loss,
)
from .metrics import cer
from .model import CHAR_OFFSET, EOS_ID, SOS_ID, Model, ModelConfig

__all__ = [
    "ctc_path_enumeration",
    "align_loss_dense",
    "edit_distance_reference",
    "ctc_suite",
    "align_suite",
    "cer_suite",
    "gradient_suite",
    "run_all",
]

_CER_FIXTURE_REF = "国务院督察组将督促整改"
_CER_FIXTURE_HYPS = {
    "f": ("国务院督查组将陆续展开", 0.4545),
    "f+p": ("国务院督查组将突出整改", 0.2727),
    "f+v": ("国务院督查组将图书整改", 0.2727),
    "f+p+v": ("国务院督查组将督促整改", 0.0909),
}

# the CTC grid's largest T, K and L; the oracles' agreement; the finite-
# difference tolerances of the losses and the model; each suite's seed
_CTC_MAX_T = 6
_CTC_MAX_K = 4
_CTC_MAX_L = 3
_ORACLE_TOL = 1e-10
_LOSS_GRAD_TOL = 1e-8
_MODEL_GRAD_TOL = 1e-5
_CTC_SEED = 1234
_ALIGN_SEED = 4321
_CER_SEED = 99
_GRADIENT_SEED = 777


@functools.cache
def _collapse_groups(T, K):
    """All K^T framewise paths grouped by their collapsed label sequence."""
    groups = {}
    for path in itertools.product(range(K), repeat=T):
        out = []
        prev = -1
        for c in path:
            if c != prev and c != 0:
                out.append(c)
            prev = c
        groups.setdefault(tuple(out), []).append(path)
    return {lab: np.asarray(paths, dtype=np.int64)
            for lab, paths in groups.items()}


def ctc_path_enumeration(logits, target):
    """Total probability of ``target`` by brute-force path enumeration."""
    logits = np.asarray(logits, dtype=np.float64)
    T, K = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    lp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    paths = _collapse_groups(T, K).get(tuple(int(t) for t in target))
    if paths is None:
        return 0.0
    scores = lp[np.arange(T)[None, :], paths].sum(axis=1)
    return float(np.exp(scores).sum())


def align_loss_dense(V, P, viseme_classes, phoneme_classes, phoneme_to_viseme,
                     cfg: LossConfig, lengths):
    """Plain-loop evaluation of the alignment loss definition."""
    V = np.asarray(V, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    B = V.shape[0]
    r = cfg.window_w // 2
    total = 0.0
    for b in range(B):
        Tb = int(lengths[b])
        kl_sum = 0.0
        n_active = 0
        for i in range(Tb):
            vi = V[b, i] / max(np.linalg.norm(V[b, i]), 1e-12)
            window = [j for j in range(Tb) if abs(i - j) <= r]
            positives = [
                j for j in window
                if viseme_classes[b][i] != 0
                and phoneme_to_viseme[phoneme_classes[b][j]] == viseme_classes[b][i]
            ]
            if not positives:
                continue
            n_active += 1
            sims = {}
            for j in window:
                pj = P[b, j] / max(np.linalg.norm(P[b, j]), 1e-12)
                sims[j] = float(vi @ pj)
            z = sum(math.exp(sims[j] / cfg.tau) for j in window)
            p_val = 1.0 / len(positives)
            kl = 0.0
            for j in positives:
                q = math.exp(sims[j] / cfg.tau) / z
                kl += p_val * math.log(p_val / q)
            kl_sum += kl
        total += kl_sum / (n_active + 1e-8)
    return total / B


def edit_distance_reference(a, b):
    """Rolling-row Levenshtein distance (cost only)."""
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _ctc(x, target):
    """CTC loss of the one T x K utterance ``x``, as a batch of one."""
    return ctc_loss({"ctc": x[None]}, {"ctc": [target]}, [len(x.data)])["ctc"]


# ----------------------------------------------------------------------
# suites


def ctc_suite(draws=20):
    """exp(-ctc_loss) must match exhaustive path enumeration."""
    rng = np.random.default_rng(_CTC_SEED)
    checked = 0
    worst = 0.0
    t0 = time.perf_counter()
    for T in range(1, _CTC_MAX_T + 1):
        for K in range(2, _CTC_MAX_K + 1):
            for L in range(1, _CTC_MAX_L + 1):
                if L > T:
                    continue
                for _ in range(draws):
                    target = rng.integers(1, K, size=L)
                    logits = rng.normal(size=(T, K))
                    brute = ctc_path_enumeration(logits, target)
                    try:
                        loss = float(_ctc(Tensor(logits), target).data)
                    except CtcNoValidPathError:
                        if brute == 0.0:
                            continue
                        return _result("ctc_oracle", False, checked=checked,
                                       detail="loss raised on a feasible target")
                    worst = max(worst, abs(math.exp(-loss) - brute))
                    checked += 1
    passed = worst < _ORACLE_TOL
    return _result("ctc_oracle", passed, checked=checked, max_abs_err=worst,
                   seconds=round(time.perf_counter() - t0, 3))


def align_suite(instances=200):
    """Taped alignment loss must match the dense re-implementation."""
    rng = np.random.default_rng(_ALIGN_SEED)
    inv = default_inventory()
    p2v = list(inv.phoneme_to_viseme)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(instances):
        B = int(rng.integers(1, 4))
        T = int(rng.integers(2, 9))
        C = int(rng.integers(2, 9))
        w = int(rng.choice([1, 3, 5]))
        cfg = LossConfig(window_w=w, tau=float(rng.uniform(0.05, 1.0)))
        V = rng.normal(size=(B, T, C))
        P = rng.normal(size=(B, T, C))
        vis = rng.integers(0, inv.num_visemes, size=(B, T))
        pho = rng.integers(0, inv.num_phonemes, size=(B, T))
        lengths = rng.integers(1, T + 1, size=B).tolist()
        got = float(align_loss(Tensor(V), Tensor(P), vis, pho, inv, cfg,
                               lengths=lengths).data)
        want = align_loss_dense(V, P, vis, pho, p2v, cfg, lengths=lengths)
        worst = max(worst, abs(got - want))
    passed = worst < _ORACLE_TOL
    return _result("align_oracle", passed, instances=instances,
                   max_abs_err=worst,
                   seconds=round(time.perf_counter() - t0, 3))


def cer_suite(pairs=1000):
    """CER counts must reproduce the reference distance exactly, and the
    known transcription quartet must score its printed error rates."""
    rng = np.random.default_rng(_CER_SEED)
    t0 = time.perf_counter()
    for _ in range(pairs):
        n = int(rng.integers(1, 13))
        h = int(rng.integers(0, 13))
        a = rng.integers(0, 6, size=n).tolist()
        b = rng.integers(0, 6, size=h).tolist()
        rep = cer(a, b)
        if rep.substitutions + rep.deletions + rep.insertions != \
                edit_distance_reference(a, b):
            return _result("cer_oracle", False,
                           detail=f"count mismatch on {a} vs {b}")
    for name, (hyp, expected) in _CER_FIXTURE_HYPS.items():
        got = round(cer(_CER_FIXTURE_REF, hyp).cer, 4)
        if got != expected:
            return _result("cer_oracle", False,
                           detail=f"fixture {name}: {got} != {expected}")
    return _result("cer_oracle", True, pairs=pairs,
                   fixtures=len(_CER_FIXTURE_HYPS),
                   seconds=round(time.perf_counter() - t0, 3))


def _tiny_model(rng):
    cfg = ModelConfig(char_vocab=9, phoneme_vocab=7, input_dim=4,
                      model_dim=8, trunk_layers=1, char_encoder_layers=1,
                      attention_heads=2, p_drop=0.0, max_decode_len=6,
                      max_frames=16, head_hidden_mult=2)
    return Model(cfg, seed=int(rng.integers(1 << 30)))


def gradient_suite(instances, model_instances):
    """Analytic gradients against central finite differences: each loss on
    ``instances`` random inputs, probed along every unit direction, and the
    whole training loss on ``model_instances`` tiny models, probed along one
    random direction per parameter group (the name before the "/"). Each
    check reports its worst ``gradient_error``, the error scaled to the
    larger gradient (for the model, the larger directional derivative)."""
    rng = np.random.default_rng(_GRADIENT_SEED)
    # the ragged-length instances draw from their own stream, so the
    # other instances stay the same
    ragged = np.random.default_rng(_GRADIENT_SEED + 1)
    inv = default_inventory()
    t0 = time.perf_counter()
    results = {}

    worst = 0.0
    for _ in range(instances):
        T = int(rng.integers(2, 6))
        K = int(rng.integers(2, 5))
        L = int(rng.integers(1, min(T, 3) + 1))
        target = rng.integers(1, K, size=L)
        x = rng.normal(size=(T, K))
        try:
            worst = max(worst, finite_difference_check(
                lambda t: _ctc(t, target), Tensor(x)))
        except CtcNoValidPathError:
            continue
    results["ctc"] = worst

    worst = 0.0
    for _ in range(instances):
        L = int(rng.integers(1, 6))
        K = int(rng.integers(2, 7))
        target = rng.integers(0, K, size=L)
        x = rng.normal(size=(1, L, K))
        worst = max(worst, finite_difference_check(
            lambda t: attention_ce_loss(t, [target], [L]), Tensor(x)))
    target = ragged.integers(0, 4, size=(2, 5))
    worst = max(worst, finite_difference_check(
        lambda t: attention_ce_loss(t, target, [5, 2]),
        Tensor(ragged.normal(size=(2, 5, 4)))))
    results["attention_ce"] = worst

    worst = 0.0
    for _ in range(instances):
        B = int(rng.integers(1, 3))
        T = int(rng.integers(2, 7))
        C = int(rng.integers(2, 9))
        cfg = LossConfig(window_w=int(rng.choice([1, 3, 5])))
        vis = rng.integers(0, inv.num_visemes, size=(B, T))
        pho = rng.integers(0, inv.num_phonemes, size=(B, T))
        other = rng.normal(size=(B, T, C))
        x = rng.normal(size=(B, T, C))
        side, lens = int(rng.integers(2)), [T] * B
        for fn in (
            lambda t: align_loss(t, Tensor(other), vis, pho, inv, cfg, lens),
            lambda t: align_loss(Tensor(other), t, vis, pho, inv, cfg, lens),
        )[side:side + 1]:
            worst = max(worst, finite_difference_check(fn, Tensor(x)))
    cfg = LossConfig(window_w=3)
    pho = ragged.integers(0, inv.num_phonemes, size=(2, 6))
    vis = np.asarray(inv.phoneme_to_viseme)[pho]  # each frame matches itself
    vis[:, 1] = 0  # a row with no positive
    other = ragged.normal(size=(2, 6, 4))
    for fn in (
        lambda t: align_loss(t, Tensor(other), vis, pho, inv, cfg, [6, 3]),
        lambda t: align_loss(Tensor(other), t, vis, pho, inv, cfg, [6, 3]),
    ):
        worst = max(worst, finite_difference_check(
            fn, Tensor(ragged.normal(size=(2, 6, 4)))))
    results["align"] = worst

    worst = 0.0
    for _ in range(model_instances):
        model = _tiny_model(rng)
        B, T = 2, int(rng.integers(4, 9))
        feats = rng.normal(size=(B, T, model.cfg.input_dim))
        lengths = [T, int(rng.integers(2, T + 1))]
        chars = [rng.integers(CHAR_OFFSET, model.cfg.char_vocab, size=2)
                 for _ in range(B)]
        dec_in = np.asarray([[SOS_ID, c[0], c[1]] for c in chars])
        target = [np.asarray([c[0], c[1], EOS_ID]) for c in chars]
        cfg = LossConfig(window_w=3)
        ctc_targets = {"char": chars[:1], "phoneme": [[1, 2]],
                       "viseme": [[1, 2]]}

        # class predictions are hard labels with no gradient path, so they
        # are frozen here; probing through a live argmax would only measure
        # its discontinuity
        probe = model.forward_train(feats, lengths, dec_in,
                                    np.random.default_rng(0))
        vis_cls = probe.viseme_logits.data.argmax(-1)
        pho_cls = probe.phoneme_logits.data.argmax(-1)

        def model_loss():
            out = model.forward_train(feats, lengths, dec_in,
                                      np.random.default_rng(0))
            ctc = ctc_loss({"char": out.char_ctc_logits[:1],
                            "phoneme": out.phoneme_logits[:1],
                            "viseme": out.viseme_logits[:1]},
                           ctc_targets, lengths[:1])
            char_attn = attention_ce_loss(out.char_attn_logits[:1],
                                          target[:1], [len(target[0])])
            al = align_loss(out.V, out.P, vis_cls, pho_cls,
                            inv, cfg, lengths=lengths)
            return total_loss(ctc["char"], char_attn, cfg,
                              phoneme_ctc=ctc["phoneme"],
                              viseme_ctc=ctc["viseme"], align=al)["total"]

        ad.backward(model_loss())
        for group in dict.fromkeys(k.split("/")[0] for k in model.params):
            params = [p for k, p in model.params.items()
                      if k.startswith(group + "/")]
            us = [rng.normal(size=p.data.shape) for p in params]
            a = sum(map(np.vdot, map(ad.grad_of, params), us))  # <g, u>
            n = central_difference(model_loss, [p.data for p in params], us)
            worst = max(worst, gradient_error(a, n))
    results["end_to_end"] = worst

    loss_worst = max(v for k, v in results.items() if k != "end_to_end")
    passed = loss_worst < _LOSS_GRAD_TOL and \
        results["end_to_end"] < _MODEL_GRAD_TOL
    return _result("gradient_checks", passed,
                   **{k: float(v) for k, v in results.items()},
                   seconds=round(time.perf_counter() - t0, 3))


def _result(name, passed, **details):
    return {"suite": name, "passed": bool(passed), **details}


def run_all(fast=False):
    """Every oracle suite; ``fast`` shrinks instance counts for smoke use."""
    n = 10 if fast else 50
    return [
        ctc_suite(draws=5 if fast else 20),
        align_suite(instances=40 if fast else 200),
        cer_suite(pairs=200 if fast else 1000),
        gradient_suite(instances=n, model_instances=3 if fast else 50),
    ]
