import configparser
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsrkit.cli import _CONFIG_SECTIONS, _EVAL_KEYS, _TYPES_BY_NAME, \
    _effective_ini, _section_values, _set_blas_threads, main
from vsrkit.linguistics import Lexicon, LexiconEntry, default_inventory, \
    load_inventory, save_inventory
from vsrkit.model import Model
from vsrkit.synth import SynthConfig, generate_corpus, make_lexicon, \
    read_manifest, write_manifest


CFG_TEXT = """
[synth]
seed = 3
num_utterances = 10
char_vocab_size = 14
sentence_len = 1,2
feature_dim = 8

[train]
epochs_phase1 = 1
epochs_phase2 = 1
phase1_max_frames = 20
batch_size = 4
warmup_steps = 2

[model]
model_dim = 16
attention_heads = 2
head_hidden_mult = 2
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(CFG_TEXT, encoding="utf-8")
    return str(p)


def run(*argv):
    return main(list(argv))


def test_gen_is_deterministic(tmp_path, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("--config", cfg_file, "--out", str(a), "--quiet", "gen") == 0
    assert run("--config", cfg_file, "--out", str(b), "--quiet", "gen") == 0
    assert (a / "index.tsv").read_bytes() == (b / "index.tsv").read_bytes()
    assert (a / "features.npy").read_bytes() == \
        (b / "features.npy").read_bytes()


def test_gen_creates_missing_output_dir(tmp_path, cfg_file):
    out = tmp_path / "deep" / "nested" / "dir"
    assert run("--config", cfg_file, "--out", str(out), "--quiet", "gen") == 0
    assert (out / "index.tsv").exists()


def test_invalid_config_key_is_named(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[synth]\nnum_utterancez = 5\n", encoding="utf-8")
    assert run("--config", str(p), "--out", str(tmp_path / "x"),
               "--quiet", "gen") == 1


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[wat]\nx = 1\n", encoding="utf-8")
    assert run("--config", str(p), "--out", str(tmp_path / "x"),
               "--quiet", "gen") == 1


def test_missing_config_file(tmp_path):
    assert run("--config", str(tmp_path / "none.ini"), "--quiet",
               "gen") == 1


@pytest.mark.parametrize("content", [
    None,
    b"[synth]\nseed = 1\nseed = 2\n",
    b"[synth]\nseed = 1\n[synth]\nseed = 2\n",
    b"seed = 1\n",
    b"[synth]\nseed = 1\xff\n",
], ids=["directory", "duplicate-key", "duplicate-section",
        "no-section-header", "not-utf-8"])
def test_a_config_file_that_cannot_be_read_is_a_usage_error_naming_it(
        tmp_path, capsys, content):
    cfg = tmp_path / "cfg.ini"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    out = tmp_path / "out"
    assert run("--config", str(cfg), "--out", str(out), "--quiet",
               "gen") == 1
    assert f"vsrkit: error: cannot read config file {cfg}: " in \
        capsys.readouterr().err
    assert not out.exists()


def test_train_smoke_and_determinism(tmp_path, cfg_file):
    data = tmp_path / "data"
    assert run("--config", cfg_file, "--out", str(data), "--quiet", "gen") == 0
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert run("--config", cfg_file, "--out", str(r1), "--quiet", "train",
               "--data", str(data)) == 0
    assert run("--config", cfg_file, "--out", str(r2), "--quiet", "train",
               "--data", str(data)) == 0
    assert (r1 / "metrics.jsonl").read_bytes() == \
        (r2 / "metrics.jsonl").read_bytes()
    assert (r1 / "final.npz").exists()
    assert (r1 / "effective_config.ini").exists()


def test_train_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the default 64-wide model multiplies matrices large enough for
    # OpenBLAS to split them over every core it is allowed
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[synth]\nnum_utterances = 16\nsentence_len = 3,4\n"
                   "[train]\nepochs_phase1 = 0\nepochs_phase2 = 2\n",
                   encoding="utf-8")
    data = tmp_path / "data"
    assert run("--config", str(cfg), "--out", str(data), "--quiet", "gen") == 0
    src = Path(__file__).resolve().parents[1] / "src"
    logs = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"run-{threads}"
        subprocess.run([sys.executable, "-m", "vsrkit", "--config", str(cfg),
                        "--out", str(out), "--quiet", "train",
                        "--data", str(data)], env=env, check=True)
        logs.append((out / "metrics.jsonl").read_bytes())
    assert logs[0] == logs[1]


def test_train_echo_names_the_blas_thread_count(tmp_path, cfg_file, capsys):
    data = tmp_path / "data"
    assert run("--config", cfg_file, "--out", str(data), "--quiet", "gen") == 0
    assert run("--config", cfg_file, "--out", str(tmp_path / "r"), "train",
               "--data", str(data)) == 0
    assert "with BLAS threads: 1;" in capsys.readouterr().out.splitlines()[-1]


def test_main_gives_an_in_process_caller_its_blas_thread_count_back(capsys):
    before = _set_blas_threads(2)
    try:
        two = _set_blas_threads(2)  # 2, or the library's cap
        assert run("g2p", "妈") == 0
        assert _set_blas_threads(2) == two
    finally:
        _set_blas_threads(before)


def test_train_disable_align_flag(tmp_path, cfg_file):
    # the flag is [loss] lambda1 = 0: same records, same effective config
    data = _manifest(tmp_path, cfg_file)
    zero = tmp_path / "zero.ini"
    zero.write_text(f"{CFG_TEXT}\n[loss]\nlambda1 = 0\n", encoding="utf-8")
    flag, conf = tmp_path / "flag", tmp_path / "conf"
    assert run("--config", cfg_file, "--out", str(flag), "--quiet", "train",
               "--data", str(data), "--disable-align") == 0
    assert run("--config", str(zero), "--out", str(conf), "--quiet", "train",
               "--data", str(data)) == 0
    first = json.loads((flag / "metrics.jsonl").read_text().splitlines()[0])
    assert "align" not in first
    assert "phoneme_ctc" in first
    for name in ("metrics.jsonl", "effective_config.ini"):
        assert (flag / name).read_bytes() == (conf / name).read_bytes(), name
    assert "lambda1 = 0.0" in (flag / "effective_config.ini").read_text()


def test_train_disable_branches_flag(tmp_path, cfg_file):
    # the flag is [model] with_branches = false: same records, same config
    data = _manifest(tmp_path, cfg_file)
    off = tmp_path / "off.ini"
    off.write_text(f"{CFG_TEXT}with_branches = false\n", encoding="utf-8")
    flag, conf = tmp_path / "flag", tmp_path / "conf"
    assert run("--config", cfg_file, "--out", str(flag), "--quiet", "train",
               "--data", str(data), "--disable-branches") == 0
    assert run("--config", str(off), "--out", str(conf), "--quiet", "train",
               "--data", str(data)) == 0
    first = json.loads((flag / "metrics.jsonl").read_text().splitlines()[0])
    assert "phoneme_ctc" not in first and "viseme_ctc" not in first
    for name in ("metrics.jsonl", "effective_config.ini"):
        assert (flag / name).read_bytes() == (conf / name).read_bytes(), name
    ini = configparser.ConfigParser()
    ini.read_string((flag / "effective_config.ini").read_text())
    assert ini["model"]["with_branches"] == "False"
    assert "with_branches" not in ini["train"]


def test_train_resume_with_a_changed_model_key_exits_two_naming_it(
        tmp_path, cfg_file, capsys):
    data = _manifest(tmp_path, cfg_file)
    short = tmp_path / "short.ini"
    short.write_text(CFG_TEXT.replace("epochs_phase2 = 1", "epochs_phase2 = 0"),
                     encoding="utf-8")
    first, rest = tmp_path / "first", tmp_path / "rest"
    assert run("--config", str(short), "--out", str(first), "--quiet",
               "train", "--data", str(data)) == 0
    wide = tmp_path / "wide.ini"
    wide.write_text(CFG_TEXT.replace("model_dim = 16", "model_dim = 32"),
                    encoding="utf-8")
    ck = first / "checkpoints" / "epoch_p1e1.npz"
    capsys.readouterr()
    assert run("--config", str(wide), "--out", str(rest), "--quiet", "train",
               "--data", str(data), "--resume", str(ck)) == 2
    assert f"{ck} holds a model with model_dim = 16; cannot resume it with " \
        f"model_dim = 32" in capsys.readouterr().err
    assert not (rest / "final.npz").exists()


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("probe", [
    "gen-with-a-lexicon-too-small", "train-resume-without-disable-branches",
    "train-fresh-with-a-wrong-phoneme-vocab", "eval-of-an-utterance-too-long"])
def test_a_refused_command_leaves_out_as_it_was(tmp_path, cfg_file, capsys,
                                                probe):
    data = _manifest(tmp_path, cfg_file)
    config = tmp_path / "refused.ini"
    if probe.startswith("gen"):
        out, command = data, ["gen"]
        config.write_text(CFG_TEXT.replace("char_vocab_size = 14",
                                           "char_vocab_size = 200")
                          + "[gen]\nlexicon = bundled\n", encoding="utf-8")
        message = "ValueError: lexicon has 127 characters, need 200"
    else:
        short = tmp_path / "short.ini"
        short.write_text(CFG_TEXT.replace("epochs_phase2 = 1",
                                          "epochs_phase2 = 0"),
                         encoding="utf-8")
        out = tmp_path / "run"
        assert run("--config", str(short), "--out", str(out), "--quiet",
                   "train", "--data", str(data), "--disable-branches") == 0
        ck = out / "final.npz"
    if probe == "train-resume-without-disable-branches":
        config, command = short, ["train", "--data", str(data), "--resume",
                                  str(ck)]
        message = "with with_branches = True"
    elif probe == "train-fresh-with-a-wrong-phoneme-vocab":
        command = ["train", "--data", str(data)]
        config.write_text(f"{CFG_TEXT}phoneme_vocab = 5\n", encoding="utf-8")
        message = "phoneme_vocab = 5, but the inventory has 38 phonemes"
    elif probe.startswith("eval"):
        out = tmp_path / "eval"
        assert run("--config", cfg_file, "--out", str(out), "--quiet", "eval",
                   "--checkpoint", str(ck), "--data", str(data)) == 0
        # a decoder the successful run did not use: its config would differ
        config.write_text(CFG_TEXT.replace("sentence_len = 1,2",
                                           "sentence_len = 6,8")
                          + "[eval]\ndecode = attention\n", encoding="utf-8")
        long = tmp_path / "long"
        assert run("--config", str(config), "--out", str(long), "--quiet",
                   "gen") == 0
        command = ["eval", "--checkpoint", str(ck), "--data", str(long)]
        message = "TrainingError: model config max_frames = "
    before = _files(out)
    assert "effective_config.ini" in {str(name) for name in before}
    capsys.readouterr()
    assert run("--config", str(config), "--out", str(out), "--quiet",
               *command) == 2
    assert message in capsys.readouterr().err
    assert _files(out) == before


def test_train_resume_flag(tmp_path, cfg_file):
    data = tmp_path / "data"
    run("--config", cfg_file, "--out", str(data), "--quiet", "gen")
    rd = tmp_path / "run"
    assert run("--config", cfg_file, "--out", str(rd), "--quiet", "train",
               "--data", str(data)) == 0
    ck = next((rd / "checkpoints").glob("*.npz"))
    rd2 = tmp_path / "run2"
    assert run("--config", cfg_file, "--out", str(rd2), "--quiet", "train",
               "--data", str(data), "--resume", str(ck)) == 0


def test_resumed_metrics_continue_the_uninterrupted_file(tmp_path, cfg_file):
    data = _manifest(tmp_path, cfg_file)
    short = tmp_path / "short.ini"
    short.write_text(CFG_TEXT.replace("epochs_phase2 = 1", "epochs_phase2 = 0"),
                     encoding="utf-8")
    full, first, rest = (tmp_path / name for name in ("full", "first", "rest"))
    assert run("--config", cfg_file, "--out", str(full), "--quiet", "train",
               "--data", str(data)) == 0
    assert run("--config", str(short), "--out", str(first), "--quiet",
               "train", "--data", str(data)) == 0
    ck = first / "checkpoints" / "epoch_p1e1.npz"
    assert run("--config", cfg_file, "--out", str(rest), "--quiet", "train",
               "--data", str(data), "--resume", str(ck)) == 0
    whole = (full / "metrics.jsonl").read_bytes()
    assert (first / "metrics.jsonl").read_bytes() + \
        (rest / "metrics.jsonl").read_bytes() == whole
    # without --resume the run starts the file afresh
    assert run("--config", cfg_file, "--out", str(rest), "--quiet", "train",
               "--data", str(data)) == 0
    assert (rest / "metrics.jsonl").read_bytes() == whole


def test_eval_reports_and_timings(tmp_path, cfg_file):
    data = tmp_path / "data"
    run("--config", cfg_file, "--out", str(data), "--quiet", "gen")
    rd = tmp_path / "run"
    run("--config", cfg_file, "--out", str(rd), "--quiet", "train",
        "--data", str(data))
    ed = tmp_path / "eval"
    assert run("--config", cfg_file, "--out", str(ed), "--quiet", "eval",
               "--checkpoint", str(rd / "final.npz"),
               "--data", str(data)) == 0
    lines = (ed / "report.jsonl").read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    utts = [r for r in records if r["kind"] == "utterance"]
    summary = [r for r in records if r["kind"] == "summary"]
    assert len(utts) == 4 * 10  # four activation configs x ten utterances
    assert len(summary) == 1
    assert len(summary[0]["configs"]) == 4
    timings = json.loads((ed / "timings.json").read_text())
    assert set(timings) == {"f", "f+p", "f+v", "f+p+v"}
    # branch frames ride along whenever a branch is active
    assert all("branch_frames" in r for r in utts
               if r["activation"] != "f")


def test_eval_single_activation(tmp_path, cfg_file):
    data = tmp_path / "data"
    run("--config", cfg_file, "--out", str(data), "--quiet", "gen")
    rd = tmp_path / "run"
    run("--config", cfg_file, "--out", str(rd), "--quiet", "train",
        "--data", str(data))
    ed = tmp_path / "eval"
    assert run("--config", cfg_file, "--out", str(ed), "--quiet", "eval",
               "--checkpoint", str(rd / "final.npz"), "--data", str(data),
               "--activate", "f") == 0
    records = [json.loads(ln)
               for ln in (ed / "report.jsonl").read_text().splitlines()]
    assert all(r.get("activation", "f") == "f" for r in records
               if r["kind"] == "utterance")


def _branchless_run(tmp_path, cfg_file):
    data = _manifest(tmp_path, cfg_file)
    rd = tmp_path / "run"
    assert run("--config", cfg_file, "--out", str(rd), "--quiet", "train",
               "--data", str(data), "--disable-branches") == 0
    return data, rd / "final.npz"


def test_eval_of_a_branchless_checkpoint_runs_f_by_default(tmp_path,
                                                           cfg_file):
    data, ck = _branchless_run(tmp_path, cfg_file)
    ed = tmp_path / "eval"
    assert run("--config", cfg_file, "--out", str(ed), "--quiet", "eval",
               "--checkpoint", str(ck), "--data", str(data)) == 0
    assert set(json.loads((ed / "timings.json").read_text())) == {"f"}
    assert "activations = f\n" in \
        (ed / "effective_config.ini").read_text(encoding="utf-8")


@pytest.mark.parametrize("how", ["flag", "config"])
def test_eval_names_a_branch_activation_the_checkpoint_lacks(
        tmp_path, cfg_file, capsys, monkeypatch, how):
    data, ck = _branchless_run(tmp_path, cfg_file)
    cfg = tmp_path / "eval.ini"
    if how == "flag":
        cfg.write_text(CFG_TEXT, encoding="utf-8")
        extra = ["--activate", "f", "--activate", "f+v"]
    else:
        cfg.write_text(f"{CFG_TEXT}\n[eval]\nactivations = f; f+v\n",
                       encoding="utf-8")
        extra = []

    def decode(*args, **kwargs):
        raise AssertionError("decoded before the activations were checked")

    monkeypatch.setattr(Model, "forward_infer", decode)
    ed = tmp_path / "eval"
    capsys.readouterr()
    assert run("--config", str(cfg), "--out", str(ed), "--quiet", "eval",
               "--checkpoint", str(ck), "--data", str(data), *extra) == 1
    assert f"activation 'f+v' requests a branch absent from the checkpoint " \
        f"{ck}" in capsys.readouterr().err
    assert not ed.exists()


def _edited_state(tmp_path, cfg_file, edit):
    """Manifest directory and final training state of a tiny run, the
    state's arrays rewritten in place by ``edit``."""
    data = tmp_path / "data"
    run("--config", cfg_file, "--out", str(data), "--quiet", "gen")
    rd = tmp_path / "run"
    run("--config", cfg_file, "--out", str(rd), "--quiet", "train",
        "--data", str(data))
    ck = rd / "final.npz"
    with np.load(ck) as z:
        arrays = {k: z[k] for k in z.files}
    edit(arrays)
    np.savez(ck, **arrays)
    return data, ck


def _add_unknown_train_key(arrays):
    meta = json.loads(str(arrays["__train__"]))
    meta["no_such_field"] = 1
    arrays["__train__"] = np.array(json.dumps(meta))


def test_eval_reads_only_the_model_of_a_training_state(tmp_path, cfg_file):
    data, ck = _edited_state(tmp_path, cfg_file, _add_unknown_train_key)
    assert run("--out", str(tmp_path / "eval"), "--quiet", "eval",
               "--checkpoint", str(ck), "--data", str(data),
               "--activate", "f") == 0


def test_eval_names_an_unsupported_version(tmp_path, cfg_file, capsys):
    data, ck = _edited_state(
        tmp_path, cfg_file,
        lambda arrays: arrays.update(__version__=np.array("bogus v9")))
    assert run("--out", str(tmp_path / "eval"), "--quiet", "eval",
               "--checkpoint", str(ck), "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "'bogus v9'" in err


def test_train_and_eval_name_an_empty_manifest(tmp_path, cfg_file, capsys):
    _, ck = _edited_state(tmp_path, cfg_file, lambda arrays: None)
    empty = tmp_path / "empty"
    write_manifest(empty, [], default_inventory(),
                   make_lexicon(default_inventory(), 14, seed=3))
    capsys.readouterr()
    for command in (["train"], ["eval", "--checkpoint", str(ck)]):
        assert run("--config", cfg_file, "--out", str(tmp_path / "out"),
                   "--quiet", *command, "--data", str(empty)) == 2
        assert f"ManifestError: no records in {empty / 'index.tsv'}" in \
            capsys.readouterr().err


@pytest.mark.parametrize("decode", ["ctc_greedy", "attention"])
def test_eval_names_an_utterance_longer_than_the_model_takes(
        tmp_path, cfg_file, capsys, decode):
    _, ck = _edited_state(tmp_path, cfg_file, lambda arrays: None)
    limit = Model.load(ck).cfg.max_frames
    long_cfg = tmp_path / "long.ini"
    long_cfg.write_text(CFG_TEXT.replace("sentence_len = 1,2",
                                         "sentence_len = 6,8")
                        + f"[eval]\ndecode = {decode}\n", encoding="utf-8")
    data = tmp_path / "long"
    run("--config", str(long_cfg), "--out", str(data), "--quiet", "gen")
    corpus, _, _ = read_manifest(data)
    first = next(u for u in corpus if u.num_frames() > limit)
    capsys.readouterr()
    ed = tmp_path / "eval"
    assert run("--config", str(long_cfg), "--out", str(ed), "--quiet",
               "eval", "--checkpoint", str(ck), "--data", str(data)) == 2
    assert (f"TrainingError: model config max_frames = {limit}, but "
            f"utterance {first.id} has {first.num_frames()} frames") in \
        capsys.readouterr().err
    assert not (ed / "report.jsonl").exists()


def test_eval_requires_arguments(cfg_file):
    assert run("--config", cfg_file, "--quiet", "eval") == 1


def test_g2p_known_sentence(capsys):
    assert run("g2p", "妈") == 0
    out = capsys.readouterr().out
    assert "chars:    妈" in out
    assert "m ɑ" in out
    assert "2 9" in out


def test_g2p_oov_nonzero_exit(capsys):
    assert run("g2p", "妈Q") == 2
    err = capsys.readouterr().err
    assert "position 1" in err


def test_g2p_stats_table(capsys, tmp_path):
    f = tmp_path / "text.txt"
    f.write_text("国务院督察组将督促整改\n", encoding="utf-8")
    assert run("g2p", "--file", str(f), "--stats") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Viseme\tFrequency\tIPA"
    assert len(out) == 17
    assert out[1].startswith("0\tN/A\t_")


def test_verify_fast_json(capsys):
    assert run("verify", "--fast", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert {s["suite"] for s in payload["suites"]} == \
        {"ctc_oracle", "align_oracle", "cer_oracle", "gradient_checks"}


def test_verify_fails_under_fault_injection(capsys, short_extended_labels):
    code = run("verify", "--fast", "--json")
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    suites = {s["suite"]: s["passed"] for s in payload["suites"]}
    assert suites["ctc_oracle"] is False


def test_usage_error_exit_code_is_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 1


def test_effective_config_reproduces_the_run(tmp_path, cfg_file):
    data = tmp_path / "data"
    run("--config", cfg_file, "--out", str(data), "--quiet", "gen")
    echoed = data / "effective_config.ini"
    assert echoed.exists()
    data2 = tmp_path / "data2"
    assert run("--config", str(echoed), "--out", str(data2), "--quiet",
               "gen") == 0
    assert (data / "index.tsv").read_bytes() == \
        (data2 / "index.tsv").read_bytes()
    assert (data / "features.npy").read_bytes() == \
        (data2 / "features.npy").read_bytes()

def test_unparsable_config_value_exits_one_naming_the_key(tmp_path, cfg_file,
                                                          capsys):
    data = tmp_path / "data"
    run("--config", cfg_file, "--out", str(data), "--quiet", "gen")
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\nbatch_size = abc\n", encoding="utf-8")
    assert run("--config", str(bad), "--out", str(tmp_path / "run"), "--quiet",
               "train", "--data", str(data)) == 1
    err = capsys.readouterr().err
    assert "[train] batch_size = 'abc'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value, shown", [
    ("decode", "bogus", "'bogus'"),
    ("activations", "f+x", "'f+x'"),
    ("activations", "f+p; F+P", "'f+p; F+P': activation 'f+p' repeats"),
    ("beam_width", "0", "0"),
    ("beam_width", "-4", "-4"),
], ids=["decode-bogus", "activations-f+x", "activations-repeated",
        "beam_width-0", "beam_width--4"])
def test_bad_eval_setting_exits_one_before_reading_anything(tmp_path, capsys,
                                                            key, value, shown):
    cfg = tmp_path / "eval.ini"
    cfg.write_text(f"[eval]\n{key} = {value}\n", encoding="utf-8")
    # neither input exists: the settings are checked before either is read
    out = tmp_path / "report"
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "eval",
               "--checkpoint", str(tmp_path / "none.npz"),
               "--data", str(tmp_path / "none")) == 1
    err = capsys.readouterr().err
    assert f"[eval] {key} = {shown}" in err
    assert not out.exists()


def test_eval_refuses_a_repeated_activate_flag(tmp_path, capsys):
    out = tmp_path / "report"
    assert run("--out", str(out), "--quiet", "eval", "--activate", "f",
               "--activate", "f", "--checkpoint", str(tmp_path / "none.npz"),
               "--data", str(tmp_path / "none")) == 1
    assert "--activate: activation 'f' repeats" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_a_removed_synth_key(tmp_path, capsys):
    # the time mask was never a [synth] setting; the homophone count is
    # fixed in the lexicon generator
    for section, key in (("synth", "time_mask_prob"),
                         ("gen", "homophone_pairs")):
        cfg = tmp_path / "gen.ini"
        cfg.write_text(f"[{section}]\n{key} = 3\n", encoding="utf-8")
        assert run("--config", str(cfg), "--out", str(tmp_path / "data"),
                   "--quiet", "gen") == 1
        assert f"[{section}] {key}" in capsys.readouterr().err


def _manifest(tmp_path, cfg_file):
    data = tmp_path / "data"
    assert run("--config", cfg_file, "--out", str(data), "--quiet", "gen") == 0
    return data


def test_train_rejects_a_removed_key(tmp_path, cfg_file, capsys):
    # fixed in the model and the optimizer, no longer settings
    data = _manifest(tmp_path, cfg_file)
    for section, key in (("model", "conv_kernel"), ("train", "beta2")):
        cfg = tmp_path / "train.ini"
        cfg.write_text(f"[{section}]\n{key} = 3\n", encoding="utf-8")
        assert run("--config", str(cfg), "--out", str(tmp_path / "run"),
                   "--quiet", "train", "--data", str(data)) == 1
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, setting", [
    ("model", "p_drop = 1.5"),
    ("loss", "tau = 0"),
    ("train", "batch_size = 0"),
])
def test_train_setting_that_fails_validation_exits_one(tmp_path, cfg_file,
                                                      capsys, section,
                                                      setting):
    data = _manifest(tmp_path, cfg_file)
    cfg = tmp_path / "train.ini"
    cfg.write_text(f"[{section}]\n{setting}\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "train",
               "--data", str(data)) == 1
    assert f"[{section}]" in capsys.readouterr().err
    assert not (out / "effective_config.ini").exists()


def test_a_percent_in_a_config_value_exits_one_naming_the_key(tmp_path,
                                                             capsys):
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[synth]\nnoise_std = 5%\n", encoding="utf-8")
    out = tmp_path / "data"
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "gen") == 1
    assert "[synth] noise_std = '5%'" in capsys.readouterr().err
    assert not out.exists()


def test_gen_setting_that_fails_validation_exits_one(tmp_path, capsys):
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[synth]\nnoise_std = -1\n", encoding="utf-8")
    out = tmp_path / "data"
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "gen") == 1
    assert "[synth]" in capsys.readouterr().err
    assert not (out / "effective_config.ini").exists()


@pytest.mark.parametrize("command, section, setting", [
    ("gen", "synth", "feature_dim = 0"),
    ("gen", "synth", "num_utterances = -1"),
    ("gen", "synth", "num_utterances = 0"),
    ("gen", "synth", "seed = -1"),
    ("gen", "synth", "codebook_seed = -3"),
    ("gen", "synth", "char_vocab_size = 2"),
    ("gen", "synth", "frames_per_phoneme = 1,3"),
    ("train", "train", "seed = -1"),
    ("train", "train", "epochs_phase1 = -1"),
    ("train", "train", "epochs_phase2 = -1"),
    ("train", "train", "warmup_steps = -2"),
    ("train", "train", "batch_size = 0"),
    ("train", "train", "phase1_max_frames = 0"),
    ("train", "model", "head_hidden_mult = 0"),
    ("train", "model", "head_hidden_mult = -1"),
    ("train", "model", "trunk_layers = 0"),
])
def test_out_of_range_setting_exits_one_naming_its_key(tmp_path, cfg_file,
                                                       capsys, command,
                                                       section, setting):
    data = _manifest(tmp_path, cfg_file) if command == "train" else None
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{setting}\n", encoding="utf-8")
    out = tmp_path / "out"
    extra = ["--data", str(data)] if data else []
    assert run("--config", str(cfg), "--out", str(out), "--quiet", command,
               *extra) == 1
    err = capsys.readouterr().err
    assert f"[{section}]" in err and setting.split(" = ")[0] in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("sentence_len", "3"),
                                        ("frames_per_phoneme", "2,3,4")])
def test_gen_range_setting_needs_exactly_two_values(tmp_path, capsys, key,
                                                   value):
    cfg = tmp_path / "gen.ini"
    cfg.write_text(f"[synth]\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "data"
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "gen") == 1
    err = capsys.readouterr().err
    assert "[synth]" in err and key in err
    assert not (out / "effective_config.ini").exists()


@pytest.mark.parametrize("vocab", [20, 60])
def test_train_names_a_phoneme_vocab_the_inventory_does_not_have(
        tmp_path, cfg_file, capsys, vocab):
    data = _manifest(tmp_path, cfg_file)
    cfg = tmp_path / "train.ini"
    cfg.write_text(f"{CFG_TEXT}phoneme_vocab = {vocab}\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "train",
               "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert f"phoneme_vocab = {vocab}" in err and "38 phonemes" in err
    assert not (out / "metrics.jsonl").exists()


def test_train_names_a_char_vocab_the_corpus_outgrows(tmp_path, cfg_file,
                                                     capsys):
    data = _manifest(tmp_path, cfg_file)
    cfg = tmp_path / "train.ini"
    cfg.write_text(f"{CFG_TEXT}char_vocab = 6\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "train",
               "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert "char_vocab = 6" in err and "character token" in err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("setting, unit", [("max_frames = 5", "frames"),
                                           ("max_decode_len = 1",
                                            "characters")])
def test_train_names_an_utterance_past_a_model_bound(tmp_path, cfg_file,
                                                    capsys, setting, unit):
    data = _manifest(tmp_path, cfg_file)
    cfg = tmp_path / "train.ini"
    cfg.write_text(f"{CFG_TEXT}{setting}\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "train",
               "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert re.search(rf"model config {setting}, but utterance utt\d+ has "
                     rf"\d+ {unit}", err), err
    assert not (out / "metrics.jsonl").exists()
    assert not (out / "checkpoints").exists()


def test_train_names_an_utterance_too_short_for_a_ctc_path(tmp_path, capsys):
    # every other frame of a two-frames-per-phoneme corpus: one frame per
    # phoneme, so a label repeated next to itself needs a blank frame
    # between the two that the utterance does not have
    inv = default_inventory()
    lex = make_lexicon(inv, 6, seed=0)
    corpus = [dataclasses.replace(u, features=u.features[::2], durations=(
        1,) * len(u.durations)) for u in generate_corpus(SynthConfig(
            num_utterances=40, char_vocab_size=6, sentence_len=(2, 4),
            frames_per_phoneme=(2, 2)), inv, lex)]
    data, out = tmp_path / "data", tmp_path / "run"
    write_manifest(data, corpus, inv, lex)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[train]\nepochs_phase1 = 1\nepochs_phase2 = 1\n"
                   "batch_size = 4\n", encoding="utf-8")
    assert run("--config", str(cfg), "--out", str(out), "--quiet", "train",
               "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert re.search(r"TrainingError: utterance utt\d+ has \d+ frames, but "
                     r"its (char|phoneme|viseme) CTC target needs \d+", err), err
    assert not out.exists() or not any(out.iterdir())


def test_train_takes_phoneme_vocab_from_the_manifest_inventory(tmp_path,
                                                              cfg_file):
    # one more phoneme than the bundled inventory, in viseme 15's row
    extra = tmp_path / "visemes.tsv"
    save_inventory(extra, default_inventory())
    rows = extra.read_text(encoding="utf-8")
    extra.write_text(rows.rstrip("\n") + ",uʷ\n", encoding="utf-8")
    inv = load_inventory(extra)
    new = inv.phoneme_index("uʷ")
    assert inv.num_phonemes == 39 and inv.phoneme_to_viseme[new] == 15
    lex = make_lexicon(inv, 14, seed=3)
    # every character of the lexicon ends in the new phoneme
    lex = Lexicon([LexiconEntry(e.character, (*e.phonemes, new))
                   for e in lex.entries])
    scfg = SynthConfig(seed=3, num_utterances=10, char_vocab_size=14,
                       sentence_len=(1, 2), feature_dim=8)
    data = tmp_path / "data"
    write_manifest(data, generate_corpus(scfg, inv, lex), inv, lex)
    out = tmp_path / "run"
    assert run("--config", cfg_file, "--out", str(out), "--quiet", "train",
               "--data", str(data)) == 0
    assert "phoneme_vocab = 39" in \
        (out / "effective_config.ini").read_text(encoding="utf-8")


_VALUES = {
    int: st.integers(-10**9, 10**9),
    float: st.floats(allow_nan=False, allow_infinity=False),
    bool: st.booleans(),
    tuple: st.tuples(st.integers(1, 99), st.integers(1, 99)),
}


@pytest.mark.parametrize("section", sorted(_CONFIG_SECTIONS))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_config_key_survives_the_effective_config(section, data):
    types = {f.name: _TYPES_BY_NAME.get(f.type)
             for f in dataclasses.fields(_CONFIG_SECTIONS[section])}
    values = data.draw(st.fixed_dictionaries(
        {key: _VALUES[t] for key, t in types.items() if t is not None}))
    cp = configparser.ConfigParser()
    cp.read_string(_effective_ini({section: values}))
    assert _section_values(cp, section, _CONFIG_SECTIONS[section]) == values


@st.composite
def _synth_settings(draw):
    sentence_lo = draw(st.integers(1, 3))
    frames_lo = draw(st.integers(2, 4))
    return {
        "seed": draw(st.integers(0, 10**6)),
        "num_utterances": draw(st.integers(1, 5)),
        "char_vocab_size": draw(st.integers(8, 24)),
        "sentence_len": f"{sentence_lo},{sentence_lo + draw(st.integers(0, 2))}",
        "frames_per_phoneme":
            f"{frames_lo},{frames_lo + draw(st.integers(0, 3))}",
        "feature_dim": draw(st.integers(1, 6)),
        "noise_std": draw(st.sampled_from([0.0, 0.25, 1.5])),
    }


@settings(max_examples=12, derandomize=True, deadline=None)
@given(synth=_synth_settings(),
       lexicon=st.sampled_from(["synthetic", "bundled"]))
def test_manifest_from_gen_is_rewritten_byte_for_byte(tmp_path_factory,
                                                       synth, lexicon):
    root = tmp_path_factory.mktemp("manifest")
    cfg = root / "gen.ini"
    cfg.write_text("[synth]\n" + "".join(f"{k} = {v}\n" for k, v in
                                         synth.items())
                   + f"[gen]\nlexicon = {lexicon}\n", encoding="utf-8")
    assert run("--config", str(cfg), "--out", str(root / "gen"), "--quiet",
               "gen") == 0
    corpus, inv, lex = read_manifest(root / "gen")
    write_manifest(root / "again", corpus, inv, lex)
    for name in ("index.tsv", "features.npy", "visemes.tsv", "lexicon.tsv"):
        assert (root / "again" / name).read_bytes() == \
            (root / "gen" / name).read_bytes(), name
    # the labels read back are the ones generated
    scfg = SynthConfig(**{k: tuple(map(int, v.split(","))) if isinstance(
        v, str) else v for k, v in synth.items()})
    assert corpus == generate_corpus(scfg, default_inventory(), lex)


_WORDS = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)

# values a key of each type rejects: a wrong type, a wrong arity for the
# two-integer ranges, and a non-finite float
_WRONG_VALUES = {
    int: _WORDS | st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: not x.is_integer()).map(repr),
    float: _WORDS | st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity"]),
    bool: _WORDS.filter(
        lambda w: w not in configparser.ConfigParser.BOOLEAN_STATES),
    tuple: st.lists(st.integers(1, 99), min_size=1, max_size=4).filter(
        lambda xs: len(xs) != 2).map(lambda xs: ",".join(map(str, xs)))
    | st.tuples(_WORDS, _WORDS).map(",".join),
}

_TYPED_KEYS = [
    (section, f.name, _TYPES_BY_NAME[f.type])
    for section, cls in sorted(_CONFIG_SECTIONS.items())
    for f in dataclasses.fields(cls) if f.type in _TYPES_BY_NAME
] + [("eval", key, t) for key, t in _EVAL_KEYS.items() if t is not str]

_COMMAND = {"synth": "gen", "eval": "eval"}  # the others are train's


@pytest.fixture(scope="module")
def module_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("wrong_values")
    cfg = root / "cfg.ini"
    cfg.write_text(CFG_TEXT, encoding="utf-8")
    assert run("--config", str(cfg), "--out", str(root / "data"), "--quiet",
               "gen") == 0
    return root / "data"


@pytest.mark.parametrize("section, key, py_type", _TYPED_KEYS,
                         ids=[f"{s}-{k}" for s, k, _ in _TYPED_KEYS])
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_wrong_value_for_any_key_exits_one_naming_it(module_manifest,
                                                       section, key, py_type,
                                                       data):
    value = data.draw(_WRONG_VALUES[py_type])
    command = _COMMAND.get(section, "train")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err):
        cfg, out = Path(tmp) / "wrong.ini", Path(tmp) / "out"
        cfg.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        inputs = {"gen": [],
                  "eval": ["--checkpoint", str(Path(tmp) / "none.npz"),
                           "--data", str(module_manifest)],
                  "train": ["--data", str(module_manifest)]}[command]
        code = run("--config", str(cfg), "--out", str(out), "--quiet",
                   command, *inputs)
        wrote = out.exists()
    assert code == 1, err.getvalue()
    assert f"[{section}]" in err.getvalue() and key in err.getvalue()
    assert not wrote
