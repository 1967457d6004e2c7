import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_batch
from vsrkit import training
from vsrkit.autodiff import Tensor, grad_of
from vsrkit.linguistics import LabelTriple, default_inventory
from vsrkit.losses import LossConfig
from vsrkit.model import CHAR_OFFSET, ActivationConfig, CheckpointError, \
    Model, ModelConfig
from vsrkit.synth import SynthConfig, Utterance, generate_corpus, \
    make_lexicon
from vsrkit.training import (
    TrainConfig,
    TrainState,
    TrainingError,
    evaluate,
    lr_schedule,
    train,
)

INV = default_inventory()


def logged(*args, **kwargs):
    """``train``'s records and final state."""
    records = []
    state = train(*args, log_fn=records.append, **kwargs)
    return records, state


def tiny_setup(seed=1, n=12, disable_align=False, with_branches=True,
               epochs=(1, 1)):
    lex = make_lexicon(INV, 16, seed=seed)
    scfg = SynthConfig(seed=seed, num_utterances=n, char_vocab_size=16,
                       sentence_len=(1, 2), feature_dim=8)
    corpus = generate_corpus(scfg, INV, lex)
    mcfg = ModelConfig(char_vocab=len(lex) + CHAR_OFFSET, input_dim=8,
                       model_dim=16, trunk_layers=1, char_encoder_layers=1,
                       attention_heads=2, max_decode_len=6,
                       max_frames=40, head_hidden_mult=2,
                       with_branches=with_branches)
    tcfg = TrainConfig(epochs_phase1=epochs[0], epochs_phase2=epochs[1],
                       phase1_max_frames=20, batch_size=4, seed=seed,
                       warmup_steps=2,
                       loss=LossConfig(lambda1=0.0) if disable_align
                       else LossConfig())
    return corpus, lex, mcfg, tcfg


# ----------------------------------------------------------------------
# schedule


@pytest.mark.parametrize("name", ["lr_phase1", "lr_phase2"])
@pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_train_config_rejects_a_non_positive_or_non_finite_lr(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


def test_lr_schedule_endpoints():
    assert lr_schedule(0, 100, 1e-3, 10) == 0.0
    assert lr_schedule(10, 100, 1e-3, 10) == 1e-3
    assert abs(lr_schedule(100, 100, 1e-3, 10)) < 1e-12


def test_lr_schedule_is_cosine_between():
    peak, total, warmup = 2.0, 50, 10
    mid = lr_schedule(30, total, peak, warmup)
    assert mid == pytest.approx(peak * 0.5 * (1 + np.cos(np.pi * 0.5)))
    values = [lr_schedule(s, total, peak, warmup) for s in range(10, 51)]
    assert all(a >= b for a, b in zip(values[:-1], values[1:]))


def test_lr_schedule_rejects_negative_step():
    with pytest.raises(ValueError):
        lr_schedule(-1, 10, 1.0, 2)


# ----------------------------------------------------------------------
# the batch


def utterance(i, features, n_chars):
    labels = LabelTriple(chars=tuple(range(i, i + n_chars)), phonemes=(),
                         visemes=())
    return Utterance(id=f"utt{i:05d}", features=features, labels=labels,
                     durations=())


@st.composite
def batches(draw):
    """1-8 utterances of 1-12 frames and 1-6 characters, all of one
    feature width of 1-4, with nonzero features."""
    width = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [utterance(i, rng.normal(size=(T, width)) + 10.0, n)
            for i, (T, n) in enumerate(draw(st.lists(
                st.tuples(st.integers(1, 12), st.integers(1, 6)),
                min_size=1, max_size=8)))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(utts=batches(), seed=st.integers(0, 2**32 - 1))
def test_batch_equals_the_reference_pad_mask_and_decoder_batch(utts, seed):
    seeded = (np.random.default_rng(seed), np.random.default_rng(seed))
    for want_rng, got_rng in ((None, None), seeded):
        want_feats, want_lengths = reference_batch._pad_batch(utts, want_rng)
        want = reference_batch._decoder_batch(utts, 6)
        feats, lengths, chars, *got = training._batch(utts, got_rng)
        assert feats.dtype == want_feats.dtype
        assert feats.shape == want_feats.shape
        assert feats.tobytes() == want_feats.tobytes()
        assert lengths == want_lengths
        assert chars == [reference_batch._char_tokens(u) for u in utts]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert seeded[1].bit_generator.state == seeded[0].bit_generator.state


def test_batch_without_an_rng_pads_each_utterance_unchanged():
    rng = np.random.default_rng(0)
    utts = [utterance(i, rng.normal(size=(T, 4)), 2)
            for i, T in enumerate((10, 4, 7))]
    feats, lengths, *_ = training._batch(utts)
    assert lengths == [10, 4, 7]
    for row, u, T in zip(feats, utts, lengths):
        assert np.array_equal(row[:T], u.features)
        assert not row[T:].any()


def test_a_masked_row_has_one_zeroed_span_of_one_to_three_frames():
    utts = [utterance(i, np.ones((10, 2)), 1) for i in range(40)]
    feats, *_ = training._batch(utts, np.random.default_rng(1))
    masked = 0
    for row in feats:
        zero = np.flatnonzero((row == 0).all(axis=1))
        if zero.size:
            masked += 1
            assert 1 <= zero.size <= training._TIME_MASK_MAX_WIDTH
            assert np.array_equal(np.diff(zero), np.ones(zero.size - 1))
        assert np.array_equal(row[(row != 0).any(axis=1)],
                              np.ones((10 - zero.size, 2)))
    assert 0 < masked < len(utts)


def test_an_utterance_of_at_most_three_frames_is_never_masked():
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    utts = [utterance(i, np.ones((T, 3)), 1) for i, T in enumerate((1, 2, 3))]
    feats, *_ = training._batch(utts, rng)
    assert rng.bit_generator.state == before
    for row, T in zip(feats, (1, 2, 3)):
        assert np.array_equal(row[:T], np.ones((T, 3)))


# ----------------------------------------------------------------------
# the loop


def test_training_logs_every_component_and_total():
    corpus, _, mcfg, tcfg = tiny_setup()
    records, state = logged(tcfg, corpus, INV, mcfg)
    assert len(records) == state.step
    for rec in records:
        for key in ("step", "phase", "lr", "char_ctc", "char_attn",
                    "char_hybrid", "phoneme_ctc", "viseme_ctc", "align",
                    "total"):
            assert key in rec


def test_logged_total_recombines_exactly():
    corpus, _, mcfg, tcfg = tiny_setup()
    lc = tcfg.loss
    for rec in logged(tcfg, corpus, INV, mcfg)[0]:
        want = rec["char_hybrid"] + lc.lambda1 * rec["align"] + \
            lc.lambda2 * (rec["phoneme_ctc"] + rec["viseme_ctc"])
        assert abs(rec["total"] - want) <= 1e-12


def test_non_finite_loss_component_stops_training_before_logging(
        monkeypatch):
    corpus, _, mcfg, tcfg = tiny_setup()
    monkeypatch.setattr(training, "attention_ce_loss",
                        lambda *args, **kw: Tensor(np.inf))
    records = []
    with pytest.raises(TrainingError, match=re.escape(
            "non-finite loss component 'char_attn' at step 0")):
        train(tcfg, corpus, INV, mcfg, log_fn=records.append)
    assert records == []


def test_a_char_vocab_short_of_the_corpus_tokens_stops_before_any_step():
    corpus, _, mcfg, tcfg = tiny_setup()
    top = max(max(u.labels.chars) for u in corpus) + CHAR_OFFSET
    records = []
    with pytest.raises(TrainingError, match=re.escape(
            f"model config char_vocab = {top}, but the corpus has character "
            f"token {top}")):
        train(tcfg, corpus, INV, replace(mcfg, char_vocab=top),
              log_fn=records.append)
    assert records == []


@pytest.mark.parametrize("name, unit, size", [
    ("max_frames", "frames", Utterance.num_frames),
    ("input_dim", "features per frame", lambda u: u.features.shape[1]),
    ("max_decode_len", "characters", lambda u: len(u.labels.chars)),
])
def test_an_utterance_past_a_model_bound_stops_before_any_step(name, unit,
                                                               size):
    corpus, _, mcfg, tcfg = tiny_setup()
    limit = max(map(size, corpus)) - 1
    over = {f"utterance {u.id} has {size(u)} {unit}" for u in corpus
            if size(u) > limit}
    records = []
    with pytest.raises(TrainingError) as err:
        train(tcfg, corpus, INV, replace(mcfg, **{name: limit}),
              log_fn=records.append)
    head = f"model config {name} = {limit}, but "
    assert str(err.value).startswith(head)
    assert str(err.value)[len(head):] in over
    assert records == []


@pytest.mark.parametrize("with_branches", [True, False])
def test_an_utterance_too_short_for_a_ctc_path_stops_before_any_step(
        with_branches):
    # every other frame of a two-frames-per-phoneme corpus: one frame per
    # phoneme, so a target with a label repeated next to itself needs more
    # frames than the utterance has
    _, _, mcfg, tcfg = tiny_setup(with_branches=with_branches)
    lex = make_lexicon(INV, 6, seed=1)  # each character one phoneme
    corpus = [replace(u, features=u.features[::2], durations=(1,) * len(
        u.durations)) for u in generate_corpus(SynthConfig(
            seed=1, num_utterances=40, char_vocab_size=6, sentence_len=(2, 4),
            frames_per_phoneme=(2, 2), feature_dim=8), INV, lex)]
    mcfg = replace(mcfg, char_vocab=len(lex) + CHAR_OFFSET)
    heads = ["char", "phoneme", "viseme"][:3 if with_branches else 1]

    def needs(u, head):  # one frame per label, one per adjacent repeat
        t = np.asarray(getattr(u.labels, f"{head}s"))
        return t.size + int((t[1:] == t[:-1]).sum())

    # phase 1 feeds every utterance (none is longer than its threshold)
    assert max(u.num_frames() for u in corpus) <= tcfg.phase1_max_frames
    short = [f"utterance {u.id} has {u.num_frames()} frames, but its {head} "
             f"CTC target needs {needs(u, head)}"
             for u in corpus for head in heads
             if needs(u, head) > u.num_frames()]
    assert short
    records = []
    with pytest.raises(TrainingError) as err:
        train(tcfg, corpus, INV, mcfg, log_fn=records.append)
    assert str(err.value) == short[0]
    assert records == []


def test_long_utterances_that_no_phase_feeds_do_not_stop_training():
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    mcfg = replace(mcfg, max_frames=tcfg.phase1_max_frames)
    assert max(u.num_frames() for u in corpus) > mcfg.max_frames
    records, state = logged(tcfg, corpus, INV, mcfg)
    assert len(records) == state.step > 0


def test_lambda_zero_total_equals_hybrid():
    corpus, _, mcfg, tcfg = tiny_setup()
    tcfg = TrainConfig(**{**tcfg.__dict__,
                          "loss": LossConfig(lambda1=0.0, lambda2=0.0)})
    rec = logged(tcfg, corpus, INV, mcfg)[0][0]
    assert rec["total"] == rec["char_hybrid"]


def test_disable_branches_removes_branch_losses_from_log():
    corpus, _, mcfg, tcfg = tiny_setup(with_branches=False)
    for rec in logged(tcfg, corpus, INV, mcfg)[0]:
        assert "phoneme_ctc" not in rec
        assert "viseme_ctc" not in rec
        assert "align" not in rec
        assert rec["total"] == rec["char_hybrid"]


def test_disable_align_removes_only_align():
    corpus, _, mcfg, tcfg = tiny_setup(disable_align=True)
    for rec in logged(tcfg, corpus, INV, mcfg)[0]:
        assert "align" not in rec
        assert "phoneme_ctc" in rec and "viseme_ctc" in rec


def test_training_is_deterministic():
    corpus, _, mcfg, tcfg = tiny_setup()
    assert logged(tcfg, corpus, INV, mcfg)[0] == \
        logged(tcfg, corpus, INV, mcfg)[0]


def test_phase_one_uses_only_short_utterances():
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    seen, state = logged(tcfg, corpus, INV, mcfg)
    short = [u for u in corpus if u.num_frames() <= tcfg.phase1_max_frames]
    expected_steps = (len(short) + tcfg.batch_size - 1) // tcfg.batch_size
    assert state.step == expected_steps
    assert all(rec["phase"] == 1 for rec in seen)


def test_empty_corpus_rejected():
    _, _, mcfg, tcfg = tiny_setup()
    with pytest.raises(TrainingError):
        train(tcfg, [], INV, mcfg)


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    # a finished one-epoch run is the first epoch of the (2, 1) schedule:
    # its step count alone places it there. That epoch's three steps are
    # warmup and peak, whose rates do not depend on the schedule's length.
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(2, 1))
    full, _ = logged(tcfg, corpus, INV, mcfg)
    short = TrainConfig(**{**tcfg.__dict__, "epochs_phase1": 1,
                           "epochs_phase2": 0})
    first, state = logged(short, corpus, INV, mcfg)
    ck = tmp_path / "ck.npz"
    state.save(ck)
    rest, _ = logged(tcfg, corpus, INV, mcfg, resume=ck)
    assert first + rest == full


def test_resume_from_every_epoch_checkpoint_reproduces_the_run(tmp_path):
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(2, 1))
    full, state = logged(tcfg, corpus, INV, mcfg, checkpoint_dir=tmp_path)
    names = ["epoch_p1e1", "epoch_p1e2", "epoch_p2e1"]
    assert sorted(p.stem for p in tmp_path.glob("*.npz")) == names
    for name in names:
        ck = tmp_path / f"{name}.npz"
        step = TrainState.load(ck).step
        rest, again = logged(tcfg, corpus, INV, mcfg, resume=ck)
        assert full[:step] + rest == full, name
        assert again.step == state.step
        assert all(np.array_equal(again.model.params[k].data, p.data)
                   for k, p in state.model.params.items())


def test_resume_at_a_step_inside_an_epoch_names_path_and_step(tmp_path):
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    state = train(tcfg, corpus, INV, mcfg)
    assert state.step > 1
    state.step -= 1
    ck = tmp_path / "ck.npz"
    state.save(ck)
    with pytest.raises(TrainingError, match=re.escape(
            f"{ck}: step {state.step} does not end an epoch")):
        train(tcfg, corpus, INV, mcfg, resume=ck)


@pytest.mark.parametrize("saved", [False, True])
def test_resume_rejects_a_different_branch_setting(tmp_path, saved):
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0), with_branches=saved)
    ck = tmp_path / "ck.npz"
    train(tcfg, corpus, INV, mcfg).save(ck)
    other = replace(mcfg, with_branches=not saved)
    with pytest.raises(TrainingError, match=re.escape(
            f"{ck} holds a model with with_branches = {saved}; cannot resume "
            f"it with with_branches = {not saved}")):
        train(tcfg, corpus, INV, other, resume=ck)


_CHANGED_MODEL_FIELDS = {
    "char_vocab": 30, "phoneme_vocab": 30, "input_dim": 9, "model_dim": 32,
    "trunk_layers": 2, "char_encoder_layers": 2, "attention_heads": 4,
    "p_drop": 0.2, "max_decode_len": 7, "max_frames": 41,
    "head_hidden_mult": 3, "with_branches": False}


@pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig)])
def test_resume_names_a_model_config_field_that_differs(tmp_path, name):
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    ck = tmp_path / "ck.npz"
    TrainState.new(tcfg, mcfg).save(ck)
    other = replace(mcfg, **{name: _CHANGED_MODEL_FIELDS[name]})
    assert getattr(other, name) != getattr(mcfg, name)
    with pytest.raises(TrainingError, match=re.escape(
            f"{ck} holds a model with {name} = {getattr(mcfg, name)!r}; "
            f"cannot resume it with {name} = {getattr(other, name)!r}")):
        train(tcfg, corpus, INV, other, resume=ck)


def test_state_roundtrip(tmp_path):
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    state = train(tcfg, corpus, INV, mcfg)
    path = tmp_path / "state.npz"
    state.save(path)
    again = TrainState.load(path)
    assert again.step == state.step
    assert all(np.array_equal(state.model.params[k].data,
                              again.model.params[k].data)
               for k in state.model.params)
    for moments, back in ((state.opt_m, again.opt_m),
                          (state.opt_v, again.opt_v)):
        assert list(back) == list(state.model.params)
        assert all(np.array_equal(moments[k], back[k]) for k in moments)
    assert again.rng.bit_generator.state == state.rng.bit_generator.state


def test_state_file_loads_as_a_model(tmp_path):
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    state = train(tcfg, corpus, INV, mcfg)
    path = tmp_path / "state.npz"
    state.save(path)
    model = Model.load(path)
    assert model.cfg == state.model.cfg
    assert set(model.params) == set(state.model.params)
    assert all(np.array_equal(state.model.params[k].data, model.params[k].data)
               for k in model.params)


def test_state_load_of_a_model_file_names_the_path(tmp_path):
    _, _, mcfg, _ = tiny_setup()
    path = tmp_path / "model.npz"
    Model(mcfg).save(path)
    with pytest.raises(TrainingError, match=re.escape(str(path))):
        TrainState.load(path)


@pytest.mark.parametrize("load", [Model.load, TrainState.load],
                         ids=["model", "state"])
@pytest.mark.parametrize("content", ["npy", "text", "truncated"])
def test_a_file_that_holds_no_checkpoint_is_a_checkpoint_error_naming_it(
        tmp_path, load, content):
    path = tmp_path / f"ck.{'npy' if content == 'npy' else 'npz'}"
    if content == "npy":
        np.save(path, np.zeros(3))
    elif content == "text":
        path.write_text("step = 3\n", encoding="utf-8")
    else:
        _, _, mcfg, tcfg = tiny_setup()
        TrainState.new(tcfg, mcfg).save(path)
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path} holds no checkpoint (.npz archive)")):
        load(path)


@pytest.mark.parametrize("train, message", [
    ("{not json", "{path}: section __train__ is not JSON"),
    ('{"rng_state": {}}', "{path}: section __train__ lacks key 'step'"),
    ('{"step": 3}', "{path}: section __train__ lacks key 'rng_state'"),
], ids=["not-json", "no-step", "no-rng-state"])
def test_state_load_names_a_corrupt_train_section(tmp_path, train, message):
    _, _, mcfg, tcfg = tiny_setup()
    path = tmp_path / "state.npz"
    TrainState.new(tcfg, mcfg).save(path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    np.savez(path, **{**arrays, "__train__": np.array(train)})
    with pytest.raises(TrainingError,
                       match=re.escape(message.format(path=path))):
        TrainState.load(path)


@pytest.mark.parametrize("key, value", [
    ("step", "x"), ("step", -3), ("step", 1.5), ("step", True),
    ("rng_state", {}), ("rng_state", "x"),
    ("rng_state", {"bit_generator": "PCG64"}),
], ids=["step-str", "step-negative", "step-float", "step-bool",
        "rng-empty", "rng-str", "rng-no-state"])
def test_state_load_checks_train_section_values(tmp_path, key, value):
    _, _, mcfg, tcfg = tiny_setup()
    path = tmp_path / "state.npz"
    TrainState.new(tcfg, mcfg).save(path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    train = {**json.loads(str(arrays["__train__"])), key: value}
    np.savez(path, **{**arrays, "__train__": np.array(json.dumps(train))})
    with pytest.raises(TrainingError, match=re.escape(
            f"{path}: section __train__ key {key!r}")):
        TrainState.load(path)


def test_a_new_state_has_zero_moments_for_every_parameter():
    _, _, mcfg, tcfg = tiny_setup()
    state = TrainState.new(tcfg, mcfg)
    for moments in (state.opt_m, state.opt_v):
        assert list(moments) == list(state.model.params)
        assert all(np.array_equal(m, np.zeros_like(state.model.params[k].data))
                   for k, m in moments.items())


def _cut_in_proj_m(arrays):
    arrays["m::trunk/in_proj_w"] = np.zeros((1, 8))


def _drop_trunk_v(arrays):
    for k in [k for k in arrays if k.startswith("v::trunk/")]:
        del arrays[k]


def _add_extra_m(arrays):
    arrays["m::trunk/extra_w"] = np.zeros(3)


@pytest.mark.parametrize("edit, message", [
    (_cut_in_proj_m, "moment m::trunk/in_proj_w in {path} has shape (1, 8), "
                     "expected (8, 16)"),
    (_drop_trunk_v, "{path} lacks moment v::trunk/in_proj_w"),
    (_add_extra_m, "{path} holds unexpected moment m::trunk/extra_w"),
], ids=["mis-shaped", "missing", "unexpected"])
def test_state_load_checks_moment_names_and_shapes(tmp_path, edit, message):
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    path = tmp_path / "state.npz"
    train(tcfg, corpus, INV, mcfg).save(path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    edit(arrays)
    np.savez(path, **arrays)
    with pytest.raises(TrainingError,
                       match=re.escape(message.format(path=path))):
        train(tcfg, corpus, INV, mcfg, resume=path)


# ----------------------------------------------------------------------
# evaluation


def _report(out):
    """``report.jsonl`` lines and ``timings.json`` under ``out``."""
    lines = (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
    return [json.loads(line) for line in lines], timings


_COUNTS = ("substitutions", "deletions", "insertions", "ref_len")


def test_evaluate_reports_one_summary_per_activation(tmp_path):
    corpus, lex, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    state = train(tcfg, corpus, INV, mcfg)
    acts = [ActivationConfig(False, False), ActivationConfig(True, True)]
    summaries, seconds = evaluate(state.model, corpus[:4], acts, lex,
                                  "ctc_greedy", 8, tmp_path)
    lines, timings = _report(tmp_path)
    # the summary is the last line, after every utterance record
    assert [r["kind"] for r in lines] == ["utterance"] * 8 + ["summary"]
    assert lines[-1] == {"kind": "summary", "configs": summaries}
    assert timings == seconds
    assert list(seconds) == [a.name for a in acts]
    assert all(s > 0 for s in seconds.values())
    for summary, act in zip(summaries, acts):
        records = [r for r in lines[:-1] if r["activation"] == act.name]
        assert [r["id"] for r in records] == [u.id for u in corpus[:4]]
        assert list(records[0])[:10] == [
            "kind", "id", "activation", "reference", "hypothesis", *_COUNTS,
            "cer"]
        assert list(summary) == ["activation", "utterances", *_COUNTS,
                                 "corpus_cer", "median_cer", "active_params"]
        assert summary["activation"] == act.name
        assert summary["utterances"] == 4
        for key in _COUNTS:
            assert summary[key] == sum(r[key] for r in records), key
        errors = summary["substitutions"] + summary["deletions"] + \
            summary["insertions"]
        assert summary["corpus_cer"] == errors / summary["ref_len"]
        assert summary["median_cer"] == np.median([r["cer"] for r in records])
        assert summary["active_params"] == \
            state.model.count_active_params(act)


def test_evaluate_rejects_an_empty_corpus(tmp_path):
    _, lex, mcfg, _ = tiny_setup()
    with pytest.raises(TrainingError, match="corpus is empty"):
        evaluate(Model(mcfg), [], [ActivationConfig(True, True)], lex,
                 "ctc_greedy", 8, tmp_path)
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize("name, unit, size", [
    ("max_frames", "frames", Utterance.num_frames),
    ("input_dim", "features per frame", lambda u: u.features.shape[1]),
])
def test_evaluate_names_an_utterance_the_model_cannot_take(tmp_path, name,
                                                           unit, size):
    corpus, lex, mcfg, _ = tiny_setup()
    limit = max(map(size, corpus)) - 1
    first = next(u for u in corpus if size(u) > limit)
    with pytest.raises(TrainingError, match=re.escape(
            f"model config {name} = {limit}, but utterance {first.id} "
            f"has {size(first)} {unit}")):
        evaluate(Model(replace(mcfg, **{name: limit})), corpus,
                 [ActivationConfig(True, True)], lex, "attention", 8,
                 tmp_path)
    assert not (tmp_path / "report.jsonl").exists()


def test_evaluate_records_include_branch_frames_when_active(tmp_path):
    corpus, lex, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    state = train(tcfg, corpus, INV, mcfg)
    evaluate(state.model, corpus[:2], [ActivationConfig(True, True),
                                       ActivationConfig(False, False)],
             lex, "ctc_greedy", 8, tmp_path)
    records = _report(tmp_path)[0][:-1]
    for rec in records[:2]:
        assert set(rec["branch_frames"]) == {"phoneme", "viseme"}
        assert list(rec)[-1] == "branch_frames"
    for rec in records[2:]:
        assert "branch_frames" not in rec


def test_evaluate_f_config_invariant_to_branch_weights(tmp_path):
    corpus, lex, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    state = train(tcfg, corpus, INV, mcfg)
    act = [ActivationConfig(False, False)]
    before, after = tmp_path / "before", tmp_path / "after"
    for out in (before, after):
        out.mkdir()
        evaluate(state.model, corpus[:4], act, lex, "ctc_greedy", 8, out)
        rng = np.random.default_rng(0)
        for k, p in state.model.params.items():
            if k.startswith(("phoneme/", "viseme/", "heads/phoneme",
                             "heads/viseme")):
                p.data = rng.normal(size=p.data.shape)
    assert (before / "report.jsonl").read_bytes() == \
        (after / "report.jsonl").read_bytes()


def test_logged_grad_norm_and_clip_scale(tmp_path, monkeypatch):
    corpus, _, mcfg, tcfg = tiny_setup(epochs=(1, 0))
    for clip_norm in (1e-3, 1e3):  # every step clipped, then none
        monkeypatch.setattr(training, "_CLIP_NORM", clip_norm)
        seen = []
        train(tcfg, corpus, INV, mcfg, log_fn=seen.append)
        for rec in seen:
            norm, scale = rec["grad_norm"], rec["clip_scale"]
            assert np.isfinite(norm) and np.isfinite(scale)
            assert (scale < 1.0) == (norm > clip_norm)
            assert scale == (clip_norm / norm if norm > clip_norm else 1.0)
        clipped = [r["clip_scale"] < 1.0 for r in seen]
        assert all(clipped) if clip_norm < 1.0 else not any(clipped)


def _adamw_reference(state, lr):
    """The AdamW step as it was before it ran in place and folded its bias
    corrections: fresh arrays for the moments and the weights."""
    grads = {}
    sq = 0.0
    for name, p in state.model.params.items():
        g = grads[name] = grad_of(p)
        sq += float((g * g).sum())
    norm = np.sqrt(sq)
    clip = training._CLIP_NORM
    scale = clip / norm if norm > clip else 1.0
    t = state.step + 1
    b1, b2 = training._BETA1, training._BETA2
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in state.model.params.items():
        g = grads[name] * scale
        m = state.opt_m[name] = b1 * state.opt_m[name] + (1.0 - b1) * g
        v = state.opt_v[name] = b2 * state.opt_v[name] + (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
        if p.data.ndim >= 2:
            update = update + training._WEIGHT_DECAY * p.data
        p.data = p.data - lr * update
        p.grad = None
    return float(norm), float(scale)


def test_in_place_adamw_matches_the_reference_step():
    _, _, mcfg, tcfg = tiny_setup()
    got, want = (TrainState.new(tcfg, mcfg) for _ in range(2))
    rng = np.random.default_rng(3)
    assert {p.data.ndim for p in got.model.params.values()} == {1, 2}
    scales = []
    for step, size in enumerate((10.0, 1e-3, 10.0, 1e-3, 1e-3, 10.0)):
        grads = {}
        for name, p in got.model.params.items():
            grads[name] = size * rng.normal(size=p.data.shape)
            grads[name].flags.writeable = False  # shared, read-only
        kept = {name: g.copy() for name, g in grads.items()}
        results = []
        for state, step_fn in ((got, training._adamw_step),
                               (want, _adamw_reference)):
            for name, p in state.model.params.items():
                p.grad = grads[name]
            results.append(step_fn(state, 1e-3 * (step + 1)))
            assert all(p.grad is None for p in state.model.params.values())
            state.step += 1
        np.testing.assert_allclose(*results, rtol=1e-12)  # norm and scale
        scales.append(results[0][1])
        for name, g in grads.items():
            assert np.array_equal(g, kept[name])
        for a, b in ((got.opt_m, want.opt_m), (got.opt_v, want.opt_v),
                     ({k: p.data for k, p in got.model.params.items()},
                      {k: p.data for k, p in want.model.params.items()})):
            for name in b:
                np.testing.assert_allclose(a[name], b[name], rtol=1e-12,
                                           atol=0, err_msg=name)
    assert min(scales) < 1.0 and max(scales) == 1.0  # clipped and not
