import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsrkit import autodiff as ad
from vsrkit import verify
from vsrkit.autodiff import Tensor, backward, finite_difference_check, grad_of
from vsrkit.linguistics import default_inventory
from vsrkit.losses import (
    CtcError,
    CtcNoValidPathError,
    LossConfig,
    align_loss,
    attention_ce_loss,
    ctc_loss,
    total_loss,
)
from vsrkit.losses import _min_frames
from vsrkit.verify import align_loss_dense, ctc_path_enumeration

INV = default_inventory()


def _head(x, targets, lengths):
    """One CTC head's loss over a padded batch."""
    return ctc_loss({"h": x}, {"h": targets}, lengths)["h"]


def _ctc1(x, target):
    """CTC loss of one T x K utterance, as a batch of one."""
    return _head(x[None], [target], [len(x.data)])


def _ce1(x, target):
    """Attention cross-entropy of one L x K utterance, as a batch of one."""
    return attention_ce_loss(x[None], [target], [len(x.data)])


# ----------------------------------------------------------------------
# ctc


def test_ctc_single_frame_uniform():
    loss = _ctc1(Tensor(np.zeros((1, 3))), [2])
    assert float(loss.data) == pytest.approx(math.log(3), abs=1e-12)


def test_ctc_two_frames_three_paths():
    # paths (a,a), (blank,a), (a,blank) out of 4 -> p = 3/4
    loss = _ctc1(Tensor(np.zeros((2, 2))), [1])
    assert float(loss.data) == pytest.approx(-math.log(0.75), abs=1e-12)


def test_ctc_infeasible_target_raises_distinct_error():
    with pytest.raises(CtcNoValidPathError):
        _ctc1(Tensor(np.zeros((1, 3))), [1, 2])
    with pytest.raises(CtcNoValidPathError):
        _ctc1(Tensor(np.zeros((2, 3))), [1, 1])  # repeat needs a blank


def test_ctc_rejects_blank_in_target():
    with pytest.raises(CtcError, match="blank"):
        _ctc1(Tensor(np.zeros((3, 3))), [1, 0])


def test_ctc_rejects_out_of_range_token():
    with pytest.raises(CtcError, match="out of range"):
        _ctc1(Tensor(np.zeros((3, 3))), [5])


def test_ctc_empty_target_is_all_blank_path():
    logits = np.log(np.array([[0.7, 0.3], [0.6, 0.4]]))
    loss = _ctc1(Tensor(logits), [])
    assert float(loss.data) == pytest.approx(-math.log(0.7 * 0.6), abs=1e-12)


def test_ctc_exhaustive_grid_matches_enumeration():
    rng = np.random.default_rng(42)
    for T in range(1, 7):
        for K in range(2, 5):
            for L in range(1, 4):
                if L > T:
                    continue
                for _ in range(5):
                    target = rng.integers(1, K, size=L)
                    logits = rng.normal(size=(T, K))
                    brute = ctc_path_enumeration(logits, target)
                    try:
                        loss = float(_ctc1(Tensor(logits), target).data)
                    except CtcNoValidPathError:
                        assert brute == 0.0
                        continue
                    assert math.exp(-loss) == pytest.approx(brute, abs=1e-10)


def test_ctc_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        T = int(rng.integers(2, 6))
        K = int(rng.integers(2, 5))
        L = int(rng.integers(1, min(T, 3) + 1))
        target = rng.integers(1, K, size=L)
        x = rng.normal(size=(T, K))
        try:
            worst = max(worst, finite_difference_check(
                lambda t: _ctc1(t, target), Tensor(x)))
        except CtcNoValidPathError:
            continue
    assert worst < 1e-8


def test_ctc_fault_injection_hook_breaks_the_oracle(short_extended_labels):
    logits = np.random.default_rng(3).normal(size=(4, 3))
    bad = float(_ctc1(Tensor(logits), [1, 2]).data)
    assert abs(math.exp(-bad) - ctc_path_enumeration(logits, [1, 2])) > 1e-6


@st.composite
def ctc_batches(draw, max_batch=4, max_label=4):
    """Padded logits, targets and frame lengths with mixed T_b and L_b.

    Small vocabularies make repeated labels common; ``slack`` = 0 puts an
    utterance at exactly its minimum frame count.
    """
    B = draw(st.integers(1, max_batch))
    K = draw(st.integers(2, 5))
    targets, lengths = [], []
    for _ in range(B):
        target = draw(st.lists(st.integers(1, K - 1), max_size=max_label))
        slack = draw(st.integers(0, 3))
        targets.append(target)
        lengths.append(max(1, _min_frames(target)) + slack)
    T = max(lengths) + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    logits = scale * np.random.default_rng(seed).normal(size=(B, T, K))
    return logits, targets, lengths


_REPEAT_EMPTY_TIGHT = (
    np.random.default_rng(0).normal(size=(3, 5, 3)),
    [[1, 1, 2], [], [2]],
    [4, 5, 1],
)


def _mean(parts):
    """Mean of per-utterance scalar losses as taped nodes."""
    total = parts[0]
    for p in parts[1:]:
        total = ad.add(total, p)
    return ad.mul(total, 1.0 / len(parts))


def _assert_close(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ctc_batches())
@example(_REPEAT_EMPTY_TIGHT)
def test_batched_ctc_is_the_mean_of_single_utterance_calls(batch):
    logits, targets, lengths = batch
    B = len(targets)
    batched, single = Tensor(logits.copy()), Tensor(logits.copy())
    loss = _head(batched, targets, lengths)
    backward(loss)
    mean = _mean([_head(single[b:b + 1, :lengths[b]], targets[b:b + 1],
                        lengths[b:b + 1]) for b in range(B)])
    backward(mean)
    assert abs(float(loss.data) - float(mean.data)) <= \
        1e-12 * max(1.0, abs(float(mean.data)))
    assert np.abs(grad_of(batched) - grad_of(single)).max() <= 1e-12


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ctc_batches())
@example(_REPEAT_EMPTY_TIGHT)
def test_batched_ctc_gives_padded_frames_zero_gradient(batch):
    logits, targets, lengths = batch
    leaf = Tensor(logits)
    backward(_head(leaf, targets, lengths))
    g = grad_of(leaf)
    for b, Tb in enumerate(lengths):
        assert not g[b, Tb:].any()
        assert np.allclose(g[b, :Tb].sum(axis=-1), 0.0, atol=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ctc_batches(), st.data())
def test_batched_ctc_names_the_infeasible_batch_element(batch, data):
    logits, targets, lengths = batch
    bad = data.draw(st.integers(0, len(targets) - 1))
    targets = [list(t) for t in targets]
    targets[bad] = [1] * (logits.shape[1] + 1)  # never fits in T frames
    with pytest.raises(CtcNoValidPathError, match=f"batch element {bad}:"):
        _head(Tensor(logits), targets, lengths)


def test_batched_ctc_rejects_mismatched_batch_arguments():
    logits = np.zeros((2, 3, 3))
    with pytest.raises(CtcError, match="one target and one length"):
        _head(Tensor(logits), [[1]], [3, 3])
    with pytest.raises(CtcError, match="lengths"):
        _head(Tensor(logits), [[1], [2]], [3, 4])


@st.composite
def ctc_heads(draw, max_batch=4, max_label=4):
    """Two or three heads over one padded batch, keyed by name: each has
    its own vocabulary and targets, and all share the frames and lengths."""
    B = draw(st.integers(1, max_batch))
    Ks = draw(st.lists(st.integers(2, 6), min_size=2, max_size=3))
    targets = {f"h{h}": [draw(st.lists(st.integers(1, K - 1),
                                       max_size=max_label))
                         for _ in range(B)] for h, K in enumerate(Ks)}
    lengths = [max(1, *(_min_frames(t[b]) for t in targets.values()))
               + draw(st.integers(0, 3)) for b in range(B)]
    T = max(lengths) + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    logits = {f"h{h}": scale * rng.normal(size=(B, T, K))
              for h, K in enumerate(Ks)}
    return logits, targets, lengths


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ctc_heads())
def test_multi_head_ctc_equals_one_call_per_head_bit_for_bit(batch):
    logits, targets, lengths = batch
    joint = {name: Tensor(x.copy()) for name, x in logits.items()}
    losses = ctc_loss(joint, targets, lengths)
    assert list(losses) == list(logits)
    for name, x in logits.items():
        alone = Tensor(x.copy())
        loss = _head(alone, targets[name], lengths)
        backward(loss)
        backward(losses[name])
        assert float(losses[name].data) == float(loss.data)
        assert np.array_equal(grad_of(joint[name]), grad_of(alone))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ctc_heads(), st.data())
def test_multi_head_ctc_names_the_infeasible_head(batch, data):
    logits, targets, lengths = batch
    name = data.draw(st.sampled_from(sorted(logits)))
    bad = data.draw(st.integers(0, len(lengths) - 1))
    targets[name][bad] = [1] * (max(lengths) + 3)  # never fits
    with pytest.raises(CtcNoValidPathError,
                       match=f"head '{name}', batch element {bad}:"):
        ctc_loss({n: Tensor(x) for n, x in logits.items()}, targets, lengths)


def test_multi_head_ctc_names_a_head_without_an_alignment():
    logits = {"a": np.zeros((2, 3, 3)), "b": np.zeros((2, 3, 4))}
    logits["b"][1, :, 2] = -np.inf  # label 2 is never emitted
    with pytest.raises(CtcNoValidPathError,
                       match="head 'b', batch element 1: no alignment"):
        ctc_loss({n: Tensor(x) for n, x in logits.items()},
                 {"a": [[1], [2]], "b": [[3], [2]]}, [3, 3])


def test_multi_head_ctc_rejects_heads_of_other_frames():
    with pytest.raises(CtcError, match="shared by every head"):
        ctc_loss({"a": Tensor(np.zeros((2, 3, 3))),
                  "b": Tensor(np.zeros((2, 4, 3)))},
                 {"a": [[1], [2]], "b": [[1], [2]]}, [3, 3])


def test_ctc_rejects_a_bare_tensor_and_names_the_dict_form():
    with pytest.raises(CtcError, match="dicts by head name"):
        ctc_loss(Tensor(np.zeros((1, 3, 3))), [[1]], [3])


def test_losses_reject_a_single_utterance_and_name_the_batch_form():
    with pytest.raises(CtcError, match="B x T x K"):
        ctc_loss({"h": Tensor(np.zeros((3, 3)))}, {"h": [[1]]}, [3])
    with pytest.raises(ValueError, match="B x L x K"):
        attention_ce_loss(Tensor(np.zeros((2, 4))), [1, 3], [2])


@pytest.mark.parametrize("loss", [ctc_loss, attention_ce_loss, align_loss])
def test_loss_lengths_are_required(loss):
    lengths = inspect.signature(loss).parameters["lengths"]
    assert lengths.default is inspect.Parameter.empty


# ----------------------------------------------------------------------
# oracle suites


@pytest.mark.parametrize("suite", [
    lambda: verify.ctc_suite(draws=1),
    lambda: verify.gradient_suite(instances=3, model_instances=0),
])
def test_oracle_suites_surface_unexpected_ctc_errors(monkeypatch, suite):
    def broken(*args, **kwargs):
        raise IndexError("broken ctc_loss")

    monkeypatch.setattr(verify, "ctc_loss", broken)
    with pytest.raises(IndexError):
        suite()


# ----------------------------------------------------------------------
# attention cross-entropy


def test_attention_ce_uniform():
    loss = _ce1(Tensor(np.zeros((1, 4))), [2])
    assert float(loss.data) == pytest.approx(math.log(4), abs=1e-12)


def test_attention_ce_concentrated_limit():
    logits = np.zeros((2, 4))
    logits[0, 1] = logits[1, 3] = 60.0
    loss = _ce1(Tensor(logits), [1, 3])
    assert float(loss.data) < 1e-12


def test_attention_ce_matches_direct_computation():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(3, 5))
    target = [4, 0, 2]
    expected = 0.0
    for i, t in enumerate(target):
        row = logits[i]
        expected -= row[t] - math.log(np.exp(row - row.max()).sum()) - row.max()
    expected /= 3
    loss = _ce1(Tensor(logits), target)
    assert float(loss.data) == pytest.approx(expected, abs=1e-10)


def test_attention_ce_length_mismatch():
    with pytest.raises(ValueError):
        attention_ce_loss(Tensor(np.zeros((1, 2, 3))), [[1]], [2])


def test_attention_ce_gradient():
    rng = np.random.default_rng(12)
    for _ in range(20):
        L, K = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        target = rng.integers(0, K, size=L)
        err = finite_difference_check(
            lambda t: _ce1(t, target),
            Tensor(rng.normal(size=(L, K))))
        assert err < 1e-8


def test_batched_attention_ce_gradient_with_ragged_lengths():
    rng = np.random.default_rng(14)
    for _ in range(10):
        target = rng.integers(0, 5, size=(3, 4))
        err = finite_difference_check(
            lambda t: attention_ce_loss(t, target, [4, 1, 3]),
            Tensor(rng.normal(size=(3, 4, 5))))
        assert err < 1e-8


@pytest.mark.parametrize("target", [[0, -1], [0, 4], [7, 1]])
def test_attention_ce_rejects_out_of_range_targets(target):
    with pytest.raises(ValueError, match="batch element 0: target"):
        _ce1(Tensor(np.zeros((2, 4))), target)


def test_attention_ce_names_the_element_with_a_bad_target_or_length():
    logits = Tensor(np.zeros((2, 3, 4)))
    # a target past the utterance's length is padding and is not checked
    attention_ce_loss(logits, [[1, 2, 9], [0, 3, -1]], [2, 2])
    with pytest.raises(ValueError, match="batch element 1: target"):
        attention_ce_loss(logits, [[1, 2, 3], [0, 4, 3]], [3, 2])
    for lengths in ([3, 0], [3, 4]):
        with pytest.raises(ValueError, match="batch element 1: length"):
            attention_ce_loss(logits, np.zeros((2, 3), dtype=int), lengths)
    with pytest.raises(ValueError, match="one length per batch element"):
        attention_ce_loss(logits, np.zeros((2, 3), dtype=int), [3])


@st.composite
def attention_batches(draw, max_batch=4, max_len=5):
    """Padded decoder logits, targets and target lengths with mixed L_b."""
    B = draw(st.integers(1, max_batch))
    K = draw(st.integers(2, 6))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=B, max_size=B))
    L = max(lengths) + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    return (scale * rng.normal(size=(B, L, K)),
            rng.integers(0, K, size=(B, L)), lengths)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(attention_batches())
def test_batched_attention_ce_is_the_mean_of_single_utterance_calls(batch):
    logits, targets, lengths = batch
    batched, single = Tensor(logits.copy()), Tensor(logits.copy())
    loss = attention_ce_loss(batched, targets, lengths)
    backward(loss)
    mean = _mean([attention_ce_loss(single[b:b + 1, :n],
                                    targets[b:b + 1, :n], [n])
                  for b, n in enumerate(lengths)])
    backward(mean)
    _assert_close(loss.data, mean.data)
    _assert_close(grad_of(batched), grad_of(single))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(attention_batches())
def test_batched_attention_ce_gives_padded_rows_zero_gradient(batch):
    logits, targets, lengths = batch
    leaf = Tensor(logits)
    backward(attention_ce_loss(leaf, targets, lengths))
    g = grad_of(leaf)
    for b, n in enumerate(lengths):
        assert not g[b, n:].any()
        assert np.allclose(g[b, :n].sum(axis=-1), 0.0, atol=1e-12)


# ----------------------------------------------------------------------
# hybrid and total


def test_hybrid_endpoints_and_midpoint():
    for alpha, want in ((1.0, 2.0), (0.0, 4.0), (0.5, 3.0)):
        parts = total_loss(Tensor(4.0), Tensor(2.0), LossConfig(alpha=alpha))
        assert float(parts["char_hybrid"].data) == want
        assert parts["total"] is parts["char_hybrid"]
        assert list(parts) == ["char_ctc", "char_attn", "char_hybrid",
                               "total"]


def test_hybrid_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha"):
        LossConfig(alpha=1.5)


@pytest.mark.parametrize("tau", [0.0, -0.5, math.nan, math.inf])
def test_loss_config_rejects_non_positive_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        LossConfig(tau=tau)


@pytest.mark.parametrize("name", ["lambda1", "lambda2"])
@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
def test_loss_config_rejects_a_negative_or_non_finite_lambda(name, value):
    with pytest.raises(ValueError, match=name):
        LossConfig(**{name: value})


def test_total_loss_lambda_zero_reduces_to_hybrid():
    cfg = LossConfig(alpha=0.5, lambda1=0.0, lambda2=0.0)
    parts = total_loss(Tensor(4.0), Tensor(2.0), cfg,
                       phoneme_ctc=Tensor(9.0), viseme_ctc=Tensor(9.0),
                       align=Tensor(9.0))
    assert float(parts["total"].data) == float(parts["char_hybrid"].data) == 3.0
    assert list(parts) == ["char_ctc", "char_attn", "char_hybrid",
                           "phoneme_ctc", "viseme_ctc", "align", "total"]


def test_total_loss_arithmetic():
    cfg = LossConfig(alpha=1.0, lambda1=1.0, lambda2=0.0)
    parts = total_loss(Tensor(0.0), Tensor(1.0), cfg, align=Tensor(0.5))
    assert float(parts["total"].data) == pytest.approx(1.5, abs=0)


def test_total_loss_matches_hand_recombination():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cfg = LossConfig(alpha=float(rng.uniform(0, 1)),
                         lambda1=float(rng.uniform(0, 2)),
                         lambda2=float(rng.uniform(0, 2)))
        c, a, p, v, al = rng.uniform(0, 3, size=5)
        parts = total_loss(Tensor(c), Tensor(a), cfg, phoneme_ctc=Tensor(p),
                           viseme_ctc=Tensor(v), align=Tensor(al))
        hybrid = cfg.alpha * a + (1 - cfg.alpha) * c
        want = hybrid + cfg.lambda1 * al + cfg.lambda2 * (p + v)
        assert float(parts["total"].data) == pytest.approx(want, abs=1e-12)


def test_total_loss_affine_in_components():
    cfg = LossConfig(alpha=0.25, lambda1=0.5, lambda2=2.0)

    def total(c, a, p, v, al):
        return float(total_loss(Tensor(c), Tensor(a), cfg,
                                phoneme_ctc=Tensor(p), viseme_ctc=Tensor(v),
                                align=Tensor(al))["total"].data)

    base = total(0, 0, 0, 0, 0)
    assert base == 0.0
    # evaluating at unit vectors recovers the documented coefficients
    assert total(1, 0, 0, 0, 0) == pytest.approx(0.75)
    assert total(0, 1, 0, 0, 0) == pytest.approx(0.25)
    assert total(0, 0, 1, 0, 0) == pytest.approx(2.0)
    assert total(0, 0, 0, 1, 0) == pytest.approx(2.0)
    assert total(0, 0, 0, 0, 1) == pytest.approx(0.5)


def test_total_loss_requires_branch_pair():
    cfg = LossConfig()
    with pytest.raises(ValueError):
        total_loss(Tensor(1.0), Tensor(1.0), cfg, phoneme_ctc=Tensor(1.0))


# ----------------------------------------------------------------------
# alignment loss


def _random_instance(rng, B=2, T=6, C=8, w=3):
    cfg = LossConfig(window_w=w, tau=float(rng.uniform(0.05, 1.0)))
    V = rng.normal(size=(B, T, C))
    P = rng.normal(size=(B, T, C))
    vis = rng.integers(0, INV.num_visemes, size=(B, T))
    pho = rng.integers(0, INV.num_phonemes, size=(B, T))
    return cfg, V, P, vis, pho


def test_align_loss_zero_when_local_distribution_equals_positives():
    # one positive per row at the diagonal, features aligned so q puts all
    # its (low temperature) mass on the diagonal too
    T, C = 4, 4
    V = np.eye(T, C) * 5
    P = np.eye(T, C) * 5
    vis = np.full((1, T), 2)
    pho = np.full((1, T), 0)
    p_idx = INV.phonemes_of_viseme(2)[0]
    pho[:] = 0
    for i in range(T):
        pho[0, i] = p_idx if i % 2 == 0 else INV.phonemes_of_viseme(4)[0]
        vis[0, i] = 2 if i % 2 == 0 else 4
    cfg = LossConfig(window_w=1, tau=1.0)  # window 1: only the diagonal
    loss = float(align_loss(Tensor(V[None]), Tensor(P[None]), vis, pho,
                            INV, cfg, [T]).data)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_align_loss_no_active_rows_is_zero():
    rng = np.random.default_rng(2)
    cfg, V, P, _, pho = _random_instance(rng)
    vis = np.zeros((2, 6), dtype=int)  # all blank: no positives anywhere
    loss = float(align_loss(Tensor(V), Tensor(P), vis, pho, INV, cfg,
                            [6, 6]).data)
    assert loss == 0.0


def test_align_loss_matches_dense_oracle():
    rng = np.random.default_rng(123)
    p2v = list(INV.phoneme_to_viseme)
    for _ in range(30):
        B = int(rng.integers(1, 4))
        T = int(rng.integers(2, 9))
        C = int(rng.integers(2, 9))
        w = int(rng.choice([1, 3, 5]))
        cfg, V, P, vis, pho = _random_instance(rng, B, T, C, w)
        lengths = rng.integers(1, T + 1, size=B).tolist()
        got = float(align_loss(Tensor(V), Tensor(P), vis, pho, INV, cfg,
                               lengths=lengths).data)
        want = align_loss_dense(V, P, vis, pho, p2v, cfg, lengths=lengths)
        assert got == pytest.approx(want, abs=1e-10)


def test_align_loss_is_nonnegative():
    rng = np.random.default_rng(77)
    for _ in range(30):
        cfg, V, P, vis, pho = _random_instance(rng)
        loss = float(align_loss(Tensor(V), Tensor(P), vis, pho, INV, cfg,
                                [6, 6]).data)
        assert loss >= 0.0


def test_align_loss_row_scale_invariance():
    rng = np.random.default_rng(8)
    cfg, V, P, vis, pho = _random_instance(rng)
    base = float(align_loss(Tensor(V), Tensor(P), vis, pho, INV, cfg,
                            [6, 6]).data)
    V2 = V.copy()
    V2[0, 3] *= 7.3
    P2 = P.copy()
    P2[1, 2] *= 0.02
    scaled = float(align_loss(Tensor(V2), Tensor(P2), vis, pho, INV, cfg,
                              [6, 6]).data)
    assert abs(base - scaled) < 1e-10


def test_align_loss_permutation_invariant_with_full_window():
    rng = np.random.default_rng(9)
    B, T, C = 1, 5, 6
    cfg = LossConfig(window_w=2 * T - 1, tau=0.3)
    V = rng.normal(size=(B, T, C))
    P = rng.normal(size=(B, T, C))
    vis = rng.integers(0, INV.num_visemes, size=(B, T))
    pho = rng.integers(0, INV.num_phonemes, size=(B, T))
    base = float(align_loss(Tensor(V), Tensor(P), vis, pho, INV, cfg,
                            [T]).data)
    sigma = rng.permutation(T)
    perm = float(align_loss(Tensor(V[:, sigma]), Tensor(P[:, sigma]),
                            vis[:, sigma], pho[:, sigma], INV, cfg, [T]).data)
    assert base == pytest.approx(perm, abs=1e-10)


def test_align_loss_temperature_monotonicity_on_argmax_positive():
    # every row's unique in-window positive sits at the similarity argmax
    # (the diagonal), so sharpening the local distribution can only reduce
    # the divergence
    T, C = 6, 6
    V = np.eye(T, C)[None] * 3.0
    P = np.eye(T, C)[None] * 3.0
    cycle = [2, 4, 5]  # 3-cycle of viseme classes: within a +-1 window the
    vis = np.array([[cycle[i % 3] for i in range(T)]])  # only match is j = i
    pho = np.array([[INV.phonemes_of_viseme(cycle[i % 3])[0]
                     for i in range(T)]])
    losses = []
    for tau in (1.0, 0.5, 0.1):
        cfg = LossConfig(window_w=3, tau=tau)
        losses.append(float(align_loss(Tensor(V), Tensor(P), vis, pho,
                                       INV, cfg, [T]).data))
    assert losses[0] > losses[1] > losses[2]


def test_align_loss_gradient_reaches_both_feature_sets():
    rng = np.random.default_rng(10)
    cfg, V, P, _, _ = _random_instance(rng)
    # classes chosen so every row has at least one in-window positive
    vis = np.full((2, 6), 2)
    pho = np.full((2, 6), INV.phonemes_of_viseme(2)[0])
    tv, tp = Tensor(V), Tensor(P)
    loss = align_loss(tv, tp, vis, pho, INV, cfg, [6, 6])
    assert float(loss.data) > 0
    backward(loss)
    assert np.abs(grad_of(tv)).max() > 0
    assert np.abs(grad_of(tp)).max() > 0


def test_align_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(10):
        cfg, V, P, vis, pho = _random_instance(rng, B=1, T=5, C=4)
        err = finite_difference_check(
            lambda t: align_loss(t, Tensor(P), vis, pho, INV, cfg, [5]),
            Tensor(V))
        assert err < 1e-8


def test_align_loss_shape_validation():
    cfg = LossConfig()
    with pytest.raises(ValueError):
        align_loss(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 2, 4))),
                   np.ones((1, 2)), np.ones((1, 2)), INV, cfg, [2])


def test_align_window_needs_an_odd_width_and_a_frame():
    # LossConfig checks the width once; align_loss builds W from it
    for w in (0, 2, -1):
        with pytest.raises(ValueError, match=re.escape(
                f"window_w must be odd and >= 1, got {w}")):
            LossConfig(window_w=w)
    with pytest.raises(ValueError, match="T >= 1"):
        align_loss(Tensor(np.ones((1, 0, 3))), Tensor(np.ones((1, 0, 3))),
                   np.ones((1, 0)), np.ones((1, 0)), INV, LossConfig(), [0])


def test_align_loss_names_an_out_of_range_class():
    cfg, V, P, vis, pho = _random_instance(np.random.default_rng(4), T=4)
    with pytest.raises(ValueError, match="class arrays must be B x T"):
        align_loss(Tensor(V), Tensor(P), vis, pho[:, :3], INV, cfg, [4, 2])
    # frame 3 of element 1 is padding: every frame's classes are checked
    for kind, value in [("viseme", INV.num_visemes), ("viseme", -1),
                        ("phoneme", INV.num_phonemes), ("phoneme", -1)]:
        classes = {"viseme": vis.copy(), "phoneme": pho.copy()}
        classes[kind][1, 3] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} class {value} outside [0, ")):
            align_loss(Tensor(V), Tensor(P), classes["viseme"],
                       classes["phoneme"], INV, cfg, [4, 2])


@pytest.mark.parametrize("lengths", [[4, -2], [4, 6]])
def test_align_loss_names_the_element_with_a_bad_length(lengths):
    cfg, V, P, vis, pho = _random_instance(np.random.default_rng(3), T=4)
    with pytest.raises(ValueError, match=r"batch element 1: length .* \[0, 4\]"):
        align_loss(Tensor(V), Tensor(P), vis, pho, INV, cfg, lengths=lengths)


def _classes_with_positives(rng, B, T):
    """Viseme classes from {blank, 2, 4} and phonemes of visemes 2 and 4, so
    rows with and without in-window positives are both common."""
    vis = rng.choice([0, 2, 4], size=(B, T))
    pho = rng.choice([INV.phonemes_of_viseme(2)[0],
                      INV.phonemes_of_viseme(4)[0]], size=(B, T))
    return vis, pho


@st.composite
def align_batches(draw, max_batch=3, max_T=7):
    """Padded V and P, classes, frame lengths (0 allowed) and a config."""
    B = draw(st.integers(1, max_batch))
    lengths = draw(st.lists(st.integers(0, max_T), min_size=B, max_size=B))
    T = max(1, max(lengths) + draw(st.integers(0, 2)))
    C = draw(st.integers(1, 5))
    cfg = LossConfig(window_w=draw(st.sampled_from([1, 3, 5])),
                     tau=draw(st.sampled_from([0.05, 0.3, 1.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vis, pho = _classes_with_positives(rng, B, T)
    return (rng.normal(size=(B, T, C)), rng.normal(size=(B, T, C)), vis,
            pho, lengths, cfg)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(align_batches())
def test_batched_align_loss_is_the_mean_of_single_utterance_calls(batch):
    V, P, vis, pho, lengths, cfg = batch
    tv, tp = Tensor(V.copy()), Tensor(P.copy())
    loss = align_loss(tv, tp, vis, pho, INV, cfg, lengths=lengths)
    backward(loss)
    sv, sp = Tensor(V.copy()), Tensor(P.copy())
    mean = _mean([
        align_loss(sv[b:b + 1, :n], sp[b:b + 1, :n], vis[b:b + 1, :n],
                   pho[b:b + 1, :n], INV, cfg, [n]) if n else Tensor(0.0)
        for b, n in enumerate(lengths)])
    backward(mean)
    _assert_close(loss.data, mean.data)
    _assert_close(grad_of(tv), grad_of(sv))
    _assert_close(grad_of(tp), grad_of(sp))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(align_batches())
def test_batched_align_loss_gives_padded_frames_zero_gradient(batch):
    V, P, vis, pho, lengths, cfg = batch
    tv, tp = Tensor(V), Tensor(P)
    backward(align_loss(tv, tp, vis, pho, INV, cfg, lengths=lengths))
    for b, n in enumerate(lengths):
        assert not grad_of(tv)[b, n:].any()
        assert not grad_of(tp)[b, n:].any()


@pytest.mark.parametrize("side", ["V", "P"])
def test_align_loss_gradient_with_ragged_lengths_and_rows_without_positives(
        side):
    rng = np.random.default_rng(15)
    cfg = LossConfig(window_w=3, tau=0.3)
    for _ in range(10):
        vis, pho = _classes_with_positives(rng, 2, 6)
        vis[:, 1] = 0  # blank: this row has no positive
        other = rng.normal(size=(2, 6, 4))

        def f(t):
            pair = (t, Tensor(other)) if side == "V" else (Tensor(other), t)
            return align_loss(*pair, vis, pho, INV, cfg, lengths=[6, 4])

        assert finite_difference_check(f, Tensor(rng.normal(size=(2, 6, 4)))) \
            < 1e-8


def test_align_loss_guards_all_zero_feature_rows():
    rng = np.random.default_rng(16)
    cfg = LossConfig(window_w=3)
    vis = np.full((1, 4), 2)
    pho = np.full((1, 4), INV.phonemes_of_viseme(2)[0])
    V, P = rng.normal(size=(1, 4, 3)), rng.normal(size=(1, 4, 3))
    V[0, 1] = P[0, 2] = 0.0
    tv, tp = Tensor(V), Tensor(P)
    loss = align_loss(tv, tp, vis, pho, INV, cfg, [4])
    backward(loss)
    assert np.isfinite(float(loss.data))
    assert np.all(np.isfinite(grad_of(tv))) and np.all(np.isfinite(grad_of(tp)))

