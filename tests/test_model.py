import json
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vsrkit.model
from vsrkit import autodiff as ad
from vsrkit.autodiff import AutodiffError, Tensor, backward, grad_of
from vsrkit.decoding import attention_greedy_decode, ctc_beam_decode, \
    ctc_greedy_decode
from vsrkit.linguistics import NUM_VISEMES
from vsrkit.model import (
    ALL_ACTIVATIONS,
    DECODE_MODES,
    EOS_ID,
    SOS_ID,
    ActivationConfig,
    CheckpointError,
    ForwardOutputs,
    Hypothesis,
    Model,
    ModelConfig,
    droppath_sum,
)

from scalarize import weighted_sum

CFG = ModelConfig(char_vocab=12, phoneme_vocab=10, input_dim=5, model_dim=16,
                  trunk_layers=1, char_encoder_layers=1, attention_heads=2, p_drop=0.2, max_decode_len=6,
                  max_frames=24, head_hidden_mult=2)


@pytest.fixture()
def model():
    return Model(CFG, seed=3)


def batch(rng, B=2, T=7):
    feats = rng.normal(size=(B, T, CFG.input_dim))
    lengths = [T] * B
    dec_in = np.array([[1, 4, 5], [1, 6, 7]])
    return feats, lengths, dec_in


def test_activation_config_names():
    assert ActivationConfig(False, False).name == "f"
    assert ActivationConfig(True, False).name == "f+p"
    assert ActivationConfig(False, True).name == "f+v"
    assert ActivationConfig(True, True).name == "f+p+v"
    assert ActivationConfig.from_name("F+P+V") == ActivationConfig(True, True)
    with pytest.raises(ValueError):
        ActivationConfig.from_name("p+v")


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(char_vocab=10, p_drop=1.0)
    with pytest.raises(ValueError):
        ModelConfig(char_vocab=10, model_dim=10, attention_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(char_vocab=0)


def test_forward_shapes(model):
    rng = np.random.default_rng(0)
    feats, lengths, dec_in = batch(rng)
    out = model.forward_train(feats, lengths, dec_in, np.random.default_rng(1))
    B, T = feats.shape[:2]
    assert model.trunk_forward(feats).data.shape == (B, T, CFG.model_dim)
    assert out.P.data.shape == out.V.data.shape == (B, T, CFG.model_dim)
    assert out.phoneme_logits.data.shape == (B, T, CFG.phoneme_vocab)
    assert out.viseme_logits.data.shape == (B, T, NUM_VISEMES)
    assert out.char_ctc_logits.data.shape == (B, T, CFG.char_vocab)
    assert out.char_attn_logits.data.shape == (B, dec_in.shape[1],
                                               CFG.char_vocab)


def test_forward_is_deterministic(model):
    rng = np.random.default_rng(0)
    feats, lengths, dec_in = batch(rng)
    a = model.forward_train(feats, lengths, dec_in, np.random.default_rng(9))
    b = model.forward_train(feats, lengths, dec_in, np.random.default_rng(9))
    for name in ("phoneme_logits", "viseme_logits", "char_ctc_logits",
                 "char_attn_logits"):
        assert np.array_equal(getattr(a, name).data, getattr(b, name).data)
    F = model.trunk_forward(feats)
    assert np.array_equal(F.data, model.trunk_forward(feats).data)


def test_param_init_is_seed_deterministic():
    a = Model(CFG, seed=11)
    b = Model(CFG, seed=11)
    c = Model(CFG, seed=12)
    assert all(np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)
    assert any(not np.array_equal(a.params[k].data, c.params[k].data)
               for k in a.params)


# ----------------------------------------------------------------------
# fusion


def test_fuse_zero_masks_silences_branches(model):
    rng = np.random.default_rng(2)
    F = Tensor(rng.normal(size=(2, 4, CFG.model_dim)))
    P = Tensor(rng.normal(size=(2, 4, CFG.model_dim)))
    V = Tensor(rng.normal(size=(2, 4, CFG.model_dim)))
    zero = np.zeros((2, 1, 1))
    fused = model.fuse(F, P, V, (zero, zero))
    only_f = model.fuse(F, None, None)
    assert np.allclose(fused.data, only_f.data)


def test_fuse_no_drop_is_plain_sum(model):
    cfg0 = ModelConfig(**{**CFG.__dict__, "p_drop": 0.0})
    m = Model(cfg0, seed=0)
    rng = np.random.default_rng(3)
    F = Tensor(rng.normal(size=(1, 3, cfg0.model_dim)))
    P = Tensor(rng.normal(size=(1, 3, cfg0.model_dim)))
    V = Tensor(rng.normal(size=(1, 3, cfg0.model_dim)))
    ones = np.ones((1, 1, 1))
    fused = m.fuse(F, P, V, (ones, ones))
    want = ad.silu(Tensor(F.data + P.data + V.data))
    assert np.allclose(fused.data, want.data)


def test_droppath_sum_is_unbiased_monte_carlo():
    rng = np.random.default_rng(4)
    p_drop = 0.3
    F = Tensor(rng.normal(size=(1, 3, 4)))
    P = Tensor(rng.normal(size=(1, 3, 4)))
    V = Tensor(rng.normal(size=(1, 3, 4)))
    n = 10000
    keep = 1.0 - p_drop
    acc = np.zeros((1, 3, 4))
    for _ in range(n):
        mp = (rng.random((1, 1, 1)) < keep).astype(float)
        mv = (rng.random((1, 1, 1)) < keep).astype(float)
        acc += droppath_sum(F, P, V, mp, mv, p_drop).data
    mean = acc / n
    want = F.data + P.data + V.data
    # three standard errors of the Monte Carlo estimate per coordinate
    branch_sd = np.sqrt(p_drop / keep)
    se = branch_sd * np.sqrt(P.data ** 2 + V.data ** 2) / np.sqrt(n)
    assert np.all(np.abs(mean - want) <= 3 * se + 1e-9)


def test_drop_mask_sampling_rate(model):
    rng = np.random.default_rng(5)
    mp, mv = model.sample_drop_masks(rng, 4000)
    assert mp.shape == (4000, 1, 1)
    assert abs(mp.mean() - (1 - CFG.p_drop)) < 0.03
    assert abs(mv.mean() - (1 - CFG.p_drop)) < 0.03


# ----------------------------------------------------------------------
# gradients reach everything


def test_gradients_reach_branch_and_trunk(model):
    from vsrkit.losses import ctc_loss
    rng = np.random.default_rng(6)
    feats, lengths, dec_in = batch(rng)
    out = model.forward_train(feats, lengths, dec_in, np.random.default_rng(0))
    loss = ctc_loss({"phoneme": out.phoneme_logits[:1]},
                    {"phoneme": [[1, 2]]}, lengths[:1])["phoneme"]
    backward(loss)
    branch_w = model.params["phoneme/attn_wq"]
    trunk_w = model.params["trunk/in_proj_w"]
    head_w = model.params["heads/phoneme_w1"]
    assert np.abs(grad_of(branch_w)).max() > 0
    assert np.abs(grad_of(trunk_w)).max() > 0
    assert np.abs(grad_of(head_w)).max() > 0


def test_char_loss_reaches_trunk_through_fusion(model):
    from vsrkit.losses import ctc_loss
    rng = np.random.default_rng(7)
    feats, lengths, dec_in = batch(rng)
    out = model.forward_train(feats, lengths, dec_in, np.random.default_rng(0))
    backward(ctc_loss({"char": out.char_ctc_logits[:1]}, {"char": [[4, 5]]},
                      lengths[:1])["char"])
    assert np.abs(grad_of(model.params["trunk/in_proj_w"])).max() > 0


def test_decoder_causality(model):
    rng = np.random.default_rng(8)
    feats, lengths, _ = batch(rng)
    F = model.trunk_forward(Tensor(feats))
    fused = model.fuse(F, None, None)
    F_mem = model.char_forward(fused)
    a = np.array([[1, 4, 5, 6]])
    b = np.array([[1, 4, 5, 9]])  # change only the last position
    la = model.decoder_forward(F_mem, a).data
    lb = model.decoder_forward(F_mem, b).data
    assert np.array_equal(la[0, :3], lb[0, :3])
    assert not np.array_equal(la[0, 3], lb[0, 3])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9),
                          st.integers(1, CFG.max_decode_len + 1)),
                min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_padded_batch_matches_per_utterance_forwards(sizes, seed):
    # noise in the padding must not reach any valid frame or token
    model = Model(CFG, seed=3)
    rng = np.random.default_rng(seed)
    T, L = max(t for t, _ in sizes), max(n for _, n in sizes)
    feats = rng.normal(size=(len(sizes), T, CFG.input_dim))
    tokens = rng.integers(0, CFG.char_vocab, size=(len(sizes), L))
    valid = np.arange(T)[None, :] < np.array([t for t, _ in sizes])[:, None]
    F = model.trunk_forward(feats, valid)
    P, p_logits = model.branch_forward(F, "phoneme", valid)
    V, v_logits = model.branch_forward(F, "viseme", valid)
    unit = np.ones((len(sizes), 1, 1))
    fused = model.fuse(F, P, V, (unit, unit))
    mem = ad.unpack(model.char_forward(fused, valid), valid)
    attn = model.decoder_forward(mem, tokens, memory_valid=valid)
    for b, (t, n) in enumerate(sizes):
        F1 = model.trunk_forward(feats[b:b + 1, :t])
        P1, p1 = model.branch_forward(F1, "phoneme")
        V1, v1 = model.branch_forward(F1, "viseme")
        fused1 = model.fuse(F1, P1, V1, (unit[:1], unit[:1]))
        mem1 = model.char_forward(fused1)
        attn1 = model.decoder_forward(mem1, tokens[b:b + 1, :n])
        for batched, single in ((F, F1), (P, P1), (p_logits, p1), (V, V1),
                                (v_logits, v1), (fused, fused1), (mem, mem1)):
            assert np.abs(batched.data[b, :t] - single.data[0]).max() <= 1e-10
        assert np.abs(attn.data[b, :n] - attn1.data[0]).max() <= 1e-10


def test_padded_rows_of_block_outputs_are_zero(model):
    rng = np.random.default_rng(12)
    feats, _, dec_in = batch(rng, T=7)
    lengths = [4, 7]
    out = model.forward_train(feats, lengths, dec_in, np.random.default_rng(0))
    valid = np.arange(7)[None, :] < np.array(lengths)[:, None]
    blocks = {name: getattr(out, name) for name in (
        "P", "V", "phoneme_logits", "viseme_logits", "char_ctc_logits")}
    blocks["F"] = model.trunk_forward(feats, valid)
    for name, block in blocks.items():
        rows = block.data[0]
        assert not rows[4:].any() and rows[:4].any(), name


def test_unpadded_forward_records_no_layout_nodes(model):
    # no padding: no pack, no unpack and no mask multiply on the tape
    F = model.trunk_forward(Tensor(np.ones((1, 5, CFG.input_dim))))
    F_mem = model.char_forward(model.fuse(F, None, None))
    ops = {n.op for n in ad.trace(weighted_sum(F_mem)).nodes}
    assert "depthwise_conv" in ops and not ops & {"pack", "unpack", "mul"}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 12),
       st.lists(st.integers(0, CFG.char_vocab - 1),
                max_size=CFG.max_decode_len),
       st.lists(st.booleans(), min_size=CFG.max_decode_len,
                max_size=CFG.max_decode_len),
       st.integers(0, 2**32 - 1))
def test_incremental_decoder_steps_match_teacher_forcing(T, prefix, cuts,
                                                         seed):
    # each call feeds only the tokens after the cached positions (one, or a
    # run of them), against the cached keys and values of the earlier
    # tokens and of the memory; a 1-row GEMM may round differently
    model = Model(CFG, seed=seed % 97)
    F_mem = Tensor(np.random.default_rng(seed).normal(
        size=(1, T, CFG.model_dim)))
    tokens = [SOS_ID, *prefix]
    forced = model.decoder_forward(F_mem, [tokens]).data[0]
    bounds = [0, *(i for i in range(1, len(tokens)) if cuts[i - 1]),
              len(tokens)]
    cache = {}
    with ad.inference():
        for lo, hi in zip(bounds, bounds[1:]):
            step = model.decoder_forward(F_mem, [tokens[lo:hi]], cache=cache)
            assert step.data.shape == (1, hi - lo, CFG.char_vocab)
            assert np.abs(step.data[0] - forced[lo:hi]).max() <= 1e-12


def test_cached_attention_decode_matches_full_recompute(model):
    # the reference step reruns the decoder over the whole prefix
    lengths = []
    for seed in range(6):
        feats = np.random.default_rng(seed).normal(size=(4 + seed,
                                                         CFG.input_dim))
        for act in ALL_ACTIVATIONS:
            got = model.forward_infer(feats, act, "attention", 8).tokens
            F = model.trunk_forward(Tensor(feats[None]))
            P = model.branch_forward(F, "phoneme")[0] if act.use_phoneme \
                else None
            V = model.branch_forward(F, "viseme")[0] if act.use_viseme \
                else None
            F_mem = model.char_forward(model.fuse(F, P, V))
            want = attention_greedy_decode(
                lambda p: model.decoder_forward(
                    F_mem, [[SOS_ID, *p]]).data[0, -1],
                CFG.max_decode_len, EOS_ID)
            assert list(got) == want
            lengths.append(len(want))
    assert max(lengths) > 1


def test_decoder_cache_refuses_a_position_past_max_decode_len(model):
    F_mem = Tensor(np.random.default_rng(14).normal(size=(1, 5,
                                                          CFG.model_dim)))
    cache = {}
    with ad.inference():
        model.decoder_forward(F_mem, [[SOS_ID, 4]], cache=cache)
        with pytest.raises(ValueError, match="longer than max_decode_len"):
            model.decoder_forward(F_mem, [[4] * CFG.max_decode_len],
                                  cache=cache)
        model.decoder_forward(F_mem, [[4] * (CFG.max_decode_len - 1)],
                              cache=cache)


# ----------------------------------------------------------------------
# inference and activation


def test_infer_f_only_ignores_branch_parameters(model, monkeypatch):
    # the char CTC head that forward_infer decodes, captured at the decoder
    heads = []
    monkeypatch.setattr(vsrkit.model, "ctc_greedy_decode",
                        lambda ctc: heads.append(ctc) or [])
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(5, CFG.input_dim))
    model.forward_infer(feats, ActivationConfig(False, False), "ctc_greedy", 8)
    for k, p in model.params.items():
        if k.startswith(("phoneme/", "viseme/", "heads/phoneme",
                         "heads/viseme")):
            p.data = p.data + rng.normal(size=p.data.shape)
    model.forward_infer(feats, ActivationConfig(False, False), "ctc_greedy", 8)
    assert len(heads) == 2 and np.array_equal(heads[0], heads[1])


@pytest.mark.parametrize("decode", ["ctc_greedy", "ctc_beam"])
def test_ctc_infer_decodes_the_training_path_char_ctc_logits(decode,
                                                             monkeypatch):
    # with p_drop = 0, a branch-drop mask of 1 keeps a branch unscaled and
    # a mask of 0 adds exactly zero, so forward_train fuses like inference
    model = Model(replace(CFG, p_drop=0.0), seed=3)
    lengths = []
    for seed in range(6):
        feats = np.random.default_rng(seed).normal(size=(4 + seed,
                                                         CFG.input_dim))
        for act in ALL_ACTIVATIONS:
            got = model.forward_infer(feats, act, decode, 8)
            masks = tuple(np.full((1, 1, 1), float(on))
                          for on in (act.use_phoneme, act.use_viseme))
            monkeypatch.setattr(model, "sample_drop_masks",
                                lambda rng, B: masks)
            ctc = model.forward_train(feats[None], [len(feats)],
                                      np.array([[SOS_ID]]),
                                      None).char_ctc_logits.data[0]
            want = ctc_greedy_decode(ctc) if decode == "ctc_greedy" else \
                ctc_beam_decode(ctc, 8)[0][0]
            assert got.tokens == tuple(want)
            lengths.append(len(want))
    assert max(lengths) > 1
    assert [f.name for f in fields(Hypothesis)] == ["tokens", "branch_frames"]


def test_infer_full_matches_training_path_with_unit_masks(model):
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(1, 6, CFG.input_dim))
    F = model.trunk_forward(Tensor(feats))
    P, _ = model.branch_forward(F, "phoneme")
    V, _ = model.branch_forward(F, "viseme")
    ones = np.ones((1, 1, 1))
    # inference fusion: no masks, the plain sum
    infer_fused = model.fuse(F, P, V)
    train_like = model.fuse(F, P, V, (ones * (1 - CFG.p_drop), ones *
                                      (1 - CFG.p_drop)))
    assert np.allclose(infer_fused.data, train_like.data)


def test_infer_emits_branch_frames_per_activation(model):
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(5, CFG.input_dim))
    hyps = [model.forward_infer(feats, act, "ctc_greedy", 8)
            for act in ALL_ACTIVATIONS]
    assert len(hyps) == 4
    assert set(hyps[0].branch_frames) == set()
    assert set(hyps[1].branch_frames) == {"phoneme"}
    assert set(hyps[2].branch_frames) == {"viseme"}
    assert set(hyps[3].branch_frames) == {"phoneme", "viseme"}
    assert all(len(v) == 5 for h in hyps for v in h.branch_frames.values())


def test_infer_builds_no_graph_and_restores_recording(model, monkeypatch):
    seen = []
    char_forward = model.char_forward

    def spy(*args):
        seen.append(char_forward(*args))
        return seen[-1]

    monkeypatch.setattr(model, "char_forward", spy)
    feats = np.random.default_rng(15).normal(size=(5, CFG.input_dim))
    model.forward_infer(feats, ALL_ACTIVATIONS[3], "attention", 8)
    F_mem = seen[0]
    assert F_mem.parents == () and F_mem._grad_fn is None
    x = Tensor(np.ones(2))
    assert ad.add(x, x).parents == (x, x)


@pytest.mark.parametrize("decode", DECODE_MODES)
def test_infer_names_the_activation_of_non_finite_logits(model, decode):
    model.params["char_encoder/layer0_ffn1_w1"].data[0, 0] = np.nan
    feats = np.random.default_rng(16).normal(size=(5, CFG.input_dim))
    for act in ALL_ACTIVATIONS:
        with np.errstate(invalid="ignore"), pytest.raises(
                AutodiffError, match=re.escape(f"under {act.name!r}")):
            model.forward_infer(feats, act, decode, 8)
    x = Tensor(np.ones(2))
    assert ad.add(x, x).parents == (x, x)


def test_infer_refuses_an_unknown_decode_before_any_forward(model,
                                                           monkeypatch):
    def no_forward(*args, **kwargs):
        raise AssertionError("the forward ran")

    monkeypatch.setattr(model, "trunk_forward", no_forward)
    with pytest.raises(ValueError, match="unknown decode mode 'bogus'"):
        model.forward_infer(np.zeros((5, CFG.input_dim)), ALL_ACTIVATIONS[3],
                            "bogus", 8)


def test_attention_decoding_never_runs_the_char_ctc_head(model, monkeypatch):
    feats = np.random.default_rng(17).normal(size=(6, CFG.input_dim))
    want = [model.forward_infer(feats, act, "attention", 8).tokens
            for act in ALL_ACTIVATIONS]
    for name, p in model.params.items():
        if name.startswith("heads/char_ctc_"):
            p.data = np.full_like(p.data, np.nan)
    heads = []
    head = model._head
    monkeypatch.setattr(model, "_head",
                        lambda x, prefix: heads.append(prefix) or head(x, prefix))
    got = [model.forward_infer(feats, act, "attention", 8).tokens
           for act in ALL_ACTIVATIONS]
    assert got == want and "heads/char_ctc" not in heads
    for decode in ("ctc_greedy", "ctc_beam"):
        with np.errstate(invalid="ignore"), pytest.raises(
                AutodiffError, match="non-finite logits"):
            model.forward_infer(feats, ALL_ACTIVATIONS[3], decode, 8)


@pytest.mark.parametrize("shape", [(2, 5, CFG.input_dim),
                                   (5, CFG.input_dim + 1),
                                   (CFG.input_dim,),
                                   (0, CFG.input_dim)])
def test_infer_takes_exactly_one_utterance(model, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        model.forward_infer(np.zeros(shape), ActivationConfig(False, False),
                            "ctc_greedy", 8)


@pytest.mark.parametrize("lengths", [[0, 7], [7, 8], [-1, 7], [7]])
def test_forward_train_rejects_lengths_outside_the_frames(model, lengths):
    feats, _, dec_in = batch(np.random.default_rng(18))
    with pytest.raises(ValueError, match=re.escape(
            f"lengths must be 2 values in [1, 7], got {lengths}")):
        model.forward_train(feats, lengths, dec_in, np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(5, CFG.input_dim), (2, 7),
                                   (2, 7, CFG.input_dim + 1)])
def test_forward_train_names_a_bad_features_shape(model, shape):
    _, lengths, dec_in = batch(np.random.default_rng(19))
    with pytest.raises(ValueError, match=re.escape(
            f"features must be B x T x {CFG.input_dim}, got {shape}")):
        model.forward_train(np.zeros(shape), lengths, dec_in,
                            np.random.default_rng(0))


def test_branchless_model_rejects_branch_activation():
    m = Model(replace(CFG, with_branches=False), seed=0)
    feats = np.zeros((4, CFG.input_dim))
    m.forward_infer(feats, ActivationConfig(False, False), "ctc_greedy", 8)
    with pytest.raises(CheckpointError):
        m.forward_infer(feats, ActivationConfig(True, False), "ctc_greedy",
                        8)


# ----------------------------------------------------------------------
# parameter counting


def test_active_param_counts_are_monotone(model):
    f = model.count_active_params(ActivationConfig(False, False))
    fp = model.count_active_params(ActivationConfig(True, False))
    fv = model.count_active_params(ActivationConfig(False, True))
    fpv = model.count_active_params(ActivationConfig(True, True))
    assert f < fp < fpv
    assert f < fv < fpv


def test_active_param_counts_are_additive(model):
    f = model.count_active_params(ActivationConfig(False, False))
    fp = model.count_active_params(ActivationConfig(True, False))
    fv = model.count_active_params(ActivationConfig(False, True))
    fpv = model.count_active_params(ActivationConfig(True, True))

    def count(*prefixes):
        return sum(p.data.size for name, p in model.params.items()
                   if name.startswith(prefixes))

    phoneme_branch = count("phoneme/", "heads/phoneme")
    viseme_branch = count("viseme/", "heads/viseme")
    assert fp - f == phoneme_branch
    assert fv - f == viseme_branch
    assert fpv == f + phoneme_branch + viseme_branch


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, model):
    path = tmp_path / "model.npz"
    model.save(path)
    again = Model.load(path)
    assert again.cfg == model.cfg
    assert set(again.params) == set(model.params)
    assert all(np.array_equal(model.params[k].data, again.params[k].data)
               for k in model.params)


def test_checkpoint_version_check(tmp_path, model):
    path = tmp_path / "model.npz"
    for version in ("bogus v9", "vsrkit-checkpoint v1",
                    "vsrkit-checkpoint v2", "vsrkit-checkpoint v3",
                    "vsrkit-checkpoint v4", None):
        header = {} if version is None else {"__version__": np.array(version)}
        np.savez(path, __config__=np.array(model.cfg.to_json()), **header)
        with pytest.raises(CheckpointError, match=re.escape(f"{version!r} in {path}")):
            Model.load(path)


@pytest.mark.parametrize("edit, message", [
    ({"bogus": 1}, "unknown ModelConfig key 'bogus'"),
    ({"viseme_vocab": 16}, "unknown ModelConfig key 'viseme_vocab'"),
    ({"p_drop": None}, "missing ModelConfig key 'p_drop'"),
    ({"with_branches": "no"},
     "ModelConfig key 'with_branches' must be bool, got 'no'"),
    ({"with_branches": 1},
     "ModelConfig key 'with_branches' must be bool, got 1"),
    ({"model_dim": "8"}, "ModelConfig key 'model_dim' must be int, got '8'"),
    ({"model_dim": 8.0}, "ModelConfig key 'model_dim' must be int, got 8.0"),
    ({"max_frames": True},
     "ModelConfig key 'max_frames' must be int, got True"),
    ({"p_drop": False}, "ModelConfig key 'p_drop' must be float, got False"),
    ({"p_drop": "0.1"}, "ModelConfig key 'p_drop' must be float, got '0.1'"),
    ({"p_drop": 1.5}, "ModelConfig p_drop must be in [0, 1), got 1.5"),
    ({"attention_heads": 3},
     "ModelConfig model_dim must be divisible by attention_heads, got 16 "
     "and 3"),
], ids=["unknown", "removed", "missing", "bool-as-string", "bool-as-int",
        "count-as-string", "count-as-float", "count-as-bool", "float-as-bool",
        "float-as-string", "p_drop-out-of-range", "heads-not-dividing"])
def test_checkpoint_load_names_a_config_key_at_fault(tmp_path, model, edit,
                                                     message):
    values = {**json.loads(model.cfg.to_json()), **edit}
    values = {k: v for k, v in values.items() if v is not None}
    path = tmp_path / "model.npz"
    model.save(path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    np.savez(path, **{**arrays, "__config__": np.array(json.dumps(values))})
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: {message}")):
        Model.load(path)


@pytest.mark.parametrize("config, message", [
    (None, "{path} lacks section __config__"),
    ("{not json", "{path}: section __config__ is not JSON"),
    ("[1, 2]", "{path}: section __config__ is not a JSON object"),
], ids=["missing", "not-json", "not-an-object"])
def test_checkpoint_load_names_a_corrupt_config_section(tmp_path, model,
                                                        config, message):
    path = tmp_path / "model.npz"
    model.save(path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files if k != "__config__"}
    if config is not None:
        arrays["__config__"] = np.array(config)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError,
                       match=re.escape(message.format(path=path))):
        Model.load(path)


def _reshape_in_proj(params):
    params["trunk/in_proj_w"] = Tensor(np.zeros((CFG.input_dim, 8)))


def _drop_viseme_ffn(params):
    del params["viseme/ffn_w1"]


def _add_extra(params):
    params["trunk/extra_w"] = Tensor(np.zeros(3))


@pytest.mark.parametrize("edit, message", [
    (_reshape_in_proj,
     "parameter trunk/in_proj_w in {path} has shape (5, 8), expected (5, 16)"),
    (_drop_viseme_ffn, "{path} lacks parameter viseme/ffn_w1"),
    (_add_extra, "{path} holds unexpected parameter trunk/extra_w"),
], ids=["mis-shaped", "missing", "unexpected"])
def test_checkpoint_load_checks_parameter_names_and_shapes(tmp_path, model,
                                                           edit, message):
    edit(model.params)
    path = tmp_path / "model.npz"
    model.save(path)
    with pytest.raises(CheckpointError,
                       match=re.escape(message.format(path=path))):
        Model.load(path)


def test_checkpoint_roundtrip_keeps_every_config_field(tmp_path):
    changed = {"char_vocab": 9, "phoneme_vocab": 7, "input_dim": 3,
               "model_dim": 12, "trunk_layers": 1, "char_encoder_layers": 1,
               "attention_heads": 3, "p_drop": 0.3, "max_decode_len": 5,
               "max_frames": 20, "head_hidden_mult": 3, "with_branches": False,
               "dtype": "float32"}
    assert set(changed) == {f.name for f in fields(ModelConfig)}
    cfg = ModelConfig(**changed)
    assert all(getattr(cfg, f.name) != f.default for f in fields(ModelConfig)
               if f.default is not MISSING)
    path = tmp_path / "model.npz"
    Model(cfg, seed=2).save(path)
    assert Model.load(path).cfg == cfg


def test_a_float32_model_holds_its_float64_draws_rounded(tmp_path):
    wide = Model(CFG, seed=4)
    narrow = Model(replace(CFG, dtype="float32"), seed=4)
    assert list(narrow.params) == list(wide.params)
    for name, p in narrow.params.items():
        assert p.data.dtype == np.float32, name
        assert np.array_equal(p.data, wide.params[name].data.astype(
            np.float32)), name
    path = tmp_path / "model.npz"
    narrow.save(path)
    again = Model.load(path)
    assert again.cfg.dtype == "float32"
    assert all(np.array_equal(again.params[k].data, p.data)
               and again.params[k].data.dtype == np.float32
               for k, p in narrow.params.items())


def test_a_float32_model_computes_its_float64_twin_to_float32_precision(
        model):
    narrow = Model(replace(CFG, dtype="float32"), seed=3)
    feats, lengths, dec_in = batch(np.random.default_rng(12))
    lengths[1] -= 2
    wide, got = (m.forward_train(feats, lengths, dec_in,
                                 np.random.default_rng(0))
                 for m in (model, narrow))
    for f in fields(ForwardOutputs):
        a, b = getattr(got, f.name).data, getattr(wide, f.name).data
        assert a.dtype == np.float32, f.name
        np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-4,
                                   err_msg=f.name)
    for decode in DECODE_MODES:  # features of any dtype are cast
        hyp = narrow.forward_infer(feats[0].astype(np.float16),
                                   ALL_ACTIVATIONS[-1], decode, 4)
        assert all(0 <= t < CFG.char_vocab for t in hyp.tokens), decode


@pytest.mark.parametrize("name", ["float16", "Float32", "f4", ""])
def test_model_config_names_a_dtype_it_does_not_take(name):
    with pytest.raises(ValueError, match=re.escape(
            f"dtype must be one of float64, float32, got {name!r}")):
        replace(CFG, dtype=name)


def test_checkpoint_load_refuses_a_parameter_of_another_dtype(tmp_path):
    narrow = Model(replace(CFG, dtype="float32"), seed=1)
    narrow.params["trunk/in_proj_w"] = Tensor(
        narrow.params["trunk/in_proj_w"].data.astype(np.float64))
    path = tmp_path / "model.npz"
    narrow.save(path)
    with pytest.raises(CheckpointError, match=re.escape(
            f"parameter trunk/in_proj_w in {path} has dtype float64, "
            f"expected float32")):
        Model.load(path)


def test_a_save_that_fails_leaves_the_previous_file_whole(tmp_path, model,
                                                          monkeypatch):
    path = tmp_path / "model.npz"
    Model(CFG, seed=9).save(path)
    model.save(path)  # replaces the file, leaving nothing beside it
    assert list(tmp_path.iterdir()) == [path]
    assert all(np.array_equal(Model.load(path).params[k].data, p.data)
               for k, p in model.params.items())
    before = path.read_bytes()

    def torn(file, **arrays):  # writes part of an archive, then fails
        with open(file, "wb") as fh:
            fh.write(before[:100])
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", torn)
    with pytest.raises(OSError, match="No space left"):
        Model(CFG, seed=9).save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_config_decides_the_branches(tmp_path, model):
    path = tmp_path / "model.npz"
    model.save(path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    config = replace(model.cfg, with_branches=False).to_json()
    np.savez(path, **{**arrays, "__config__": np.array(config)})
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path} holds unexpected parameter phoneme/")):
        Model.load(path)


def test_branchless_checkpoint_keeps_branch_absence(tmp_path):
    m = Model(replace(CFG, with_branches=False), seed=1)
    path = tmp_path / "nb.npz"
    m.save(path)
    again = Model.load(path)
    assert not again.cfg.with_branches
    assert not any(k.startswith(("phoneme/", "viseme/", "heads/phoneme",
                                 "heads/viseme")) for k in again.params)
    with pytest.raises(CheckpointError):
        again.forward_infer(np.zeros((3, CFG.input_dim)),
                            ActivationConfig(True, True), "ctc_greedy", 8)
