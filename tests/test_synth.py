import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_synth
from vsrkit.linguistics import Lexicon, LexiconEntry, default_inventory, \
    labels_of
from vsrkit.synth import (
    ManifestError,
    SynthConfig,
    Utterance,
    _categorical,
    filter_by_length,
    generate_corpus,
    make_lexicon,
    phoneme_codebook,
    read_manifest,
    viseme_frequencies,
    write_manifest,
)

INV = default_inventory()


@pytest.fixture(scope="module")
def small_corpus():
    lex = make_lexicon(INV, 30, seed=2)
    cfg = SynthConfig(seed=2, num_utterances=24, char_vocab_size=30)
    return cfg, lex, generate_corpus(cfg, INV, lex)


def test_generation_is_deterministic(small_corpus):
    cfg, lex, corpus = small_corpus
    again = generate_corpus(cfg, INV, lex)
    assert len(again) == len(corpus) == cfg.num_utterances
    assert all(a == b for a, b in zip(corpus, again))


class _Replay(np.random.Generator):
    """A generator whose ``random`` hands out given uniforms in turn, so a
    draw can be fed uniforms that fall exactly on a step of its CDF."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = list(uniforms)

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out, self.uniforms = self.uniforms[:n], self.uniforms[n:]
        return out[0] if size is None else np.reshape(out, size)


@st.composite
def _weights_and_uniforms(draw):
    """Weights with zeros among them, normalized as ``make_lexicon`` does,
    so their running sum may end an ulp off 1, and uniforms that include 0
    and every step of that sum, before and after it is divided by its
    last entry."""
    weight = st.just(0.0) | st.floats(0.0, 10.0, allow_subnormal=False)
    w = np.array(draw(st.lists(weight, min_size=1, max_size=8).filter(any)))
    p = w / w.sum()
    running = np.cumsum(p)
    steps = st.sampled_from([0.0, *running[:-1], *(running / running[-1])[:-1]])
    uniforms = draw(st.lists(steps | st.floats(0.0, 1.0, exclude_max=True),
                             min_size=1, max_size=12))
    return p, uniforms


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_weights_and_uniforms())
def test_categorical_draws_as_generator_choice_draws(drawn):
    p, uniforms = drawn
    draw = _categorical(p)
    want, got = _Replay(uniforms), _Replay(uniforms)
    assert draw(got, len(uniforms)).tolist() == want.choice(
        len(p), size=len(uniforms), p=p).tolist()
    assert got.uniforms == want.uniforms == []
    for u in uniforms:
        assert int(draw(_Replay([u]))) == int(_Replay([u]).choice(len(p), p=p))


@st.composite
def _synth_configs(draw):
    """A lexicon size and a config drawing from a prefix of that lexicon;
    sizes down to 6, where ``make_lexicon`` runs out of quota."""
    size = draw(st.integers(6, 48))
    lo = draw(st.integers(1, 4))
    frames_lo = draw(st.integers(2, 4))
    return size, SynthConfig(
        seed=draw(st.integers(0, 2**16)),
        num_utterances=draw(st.integers(1, 20)),
        char_vocab_size=draw(st.integers(6, size)),
        sentence_len=(lo, lo + draw(st.integers(0, 4))),
        frames_per_phoneme=(frames_lo, frames_lo + draw(st.integers(0, 3))),
        feature_dim=draw(st.integers(1, 6)),
        noise_std=draw(st.sampled_from([0.0, 0.5])
                       | st.floats(0.0, 3.0, allow_subnormal=False)),
        codebook_seed=draw(st.none() | st.integers(0, 50)),
    )


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_synth_configs())
def test_synthesis_matches_the_reference_byte_for_byte(drawn):
    size, cfg = drawn
    lex = make_lexicon(INV, size, seed=cfg.seed)
    ref_lex = reference_synth.make_lexicon(INV, size, seed=cfg.seed)
    assert [(e.character, e.phonemes) for e in lex.entries] == \
        [(e.character, e.phonemes) for e in ref_lex.entries]
    got = generate_corpus(cfg, INV, lex)
    want = reference_synth.generate_corpus(cfg, INV, lex)
    assert len(got) == len(want) == cfg.num_utterances
    for u, r in zip(got, want):
        assert u.id == r.id
        assert u.features.dtype == r.features.dtype == np.float64
        assert u.features.flags.c_contiguous and r.features.flags.c_contiguous
        assert u.features.tobytes() == r.features.tobytes()
        assert u.labels == r.labels
        assert u.durations == r.durations


def test_label_consistency(small_corpus):
    _, lex, corpus = small_corpus
    p2v = np.asarray(INV.phoneme_to_viseme)
    for u in corpus:
        assert u.labels == labels_of(u.labels.chars, lex, INV)
        assert len(u.durations) == len(u.labels.phonemes)
        assert np.array_equal(p2v[u.frame_phonemes],
                              np.repeat(u.labels.visemes, u.durations))
        assert u.num_frames() == len(u.frame_phonemes)


def test_durations_within_range(small_corpus):
    cfg, _, corpus = small_corpus
    lo, hi = cfg.frames_per_phoneme
    for u in corpus:
        assert len(u.durations) == len(u.labels.phonemes)
        assert all(lo <= d <= hi for d in u.durations), u.durations
        assert sum(u.durations) == u.num_frames()


def test_noiseless_features_are_exact_codebook_rows():
    lex = make_lexicon(INV, 20, seed=4)
    cfg = SynthConfig(seed=4, num_utterances=10, char_vocab_size=20,
                      noise_std=0.0, frames_per_phoneme=(2, 2))
    corpus = generate_corpus(cfg, INV, lex)
    book = phoneme_codebook(cfg, INV)
    for u in corpus:
        assert np.array_equal(u.features, book[u.frame_phonemes])
        nearest = np.argmin(
            ((u.features[:, None, :] - book[None]) ** 2).sum(-1), axis=1)
        assert np.array_equal(nearest, u.frame_phonemes)


def test_viseme_frequencies_converge_to_inventory_prior():
    lex = make_lexicon(INV, 80, seed=6)
    cfg = SynthConfig(seed=6, num_utterances=1500, char_vocab_size=80,
                      sentence_len=(2, 5))
    corpus = generate_corpus(cfg, INV, lex)
    freq = viseme_frequencies([u.labels for u in corpus], INV)
    prior = np.asarray(INV.viseme_frequency)
    assert np.abs(freq - prior).max() < 0.01


def test_noise_increases_nearest_codebook_error():
    errors = []
    for std in (0.0, 0.5, 1.0):
        per_seed = []
        for seed in (31, 32, 33):
            lex = make_lexicon(INV, 30, seed=seed)
            cfg = SynthConfig(seed=seed, num_utterances=40,
                              char_vocab_size=30, noise_std=std)
            corpus = generate_corpus(cfg, INV, lex)
            book = phoneme_codebook(cfg, INV)
            wrong = total = 0
            for u in corpus:
                nearest = np.argmin(
                    ((u.features[:, None, :] - book[None]) ** 2).sum(-1),
                    axis=1)
                wrong += int((nearest != u.frame_phonemes).sum())
                total += u.num_frames()
            per_seed.append(wrong / total)
        errors.append(np.median(per_seed))
    assert errors[0] < errors[1] < errors[2]


def test_homophones_share_pronunciations():
    lex = make_lexicon(INV, 20, seed=1)
    pron = [e.phonemes for e in lex.entries]
    assert pron[17:20] == pron[0:3]
    assert len({e.character for e in lex.entries}) == 20


def test_curriculum_filter(small_corpus):
    _, _, corpus = small_corpus
    subset = filter_by_length(corpus, 25)
    assert all(u.num_frames() <= 25 for u in subset)
    assert len(subset) < len(corpus)


def test_manifest_roundtrip(tmp_path, small_corpus):
    _, lex, corpus = small_corpus
    write_manifest(tmp_path / "m", corpus, INV, lex)
    back, inv2, lex2 = read_manifest(tmp_path / "m")
    assert len(back) == len(corpus)
    assert all(a == b for a, b in zip(corpus, back))
    assert inv2.phonemes == INV.phonemes
    assert [e.character for e in lex2.entries] == \
        [e.character for e in lex.entries]


@pytest.mark.parametrize("seed, n, dim", [(0, 1, 1), (5, 7, 3), (11, 40, 16)])
def test_manifest_roundtrip_keeps_every_feature_bit(tmp_path, seed, n, dim):
    lex = make_lexicon(INV, 12, seed=seed)
    cfg = SynthConfig(seed=seed, num_utterances=n, char_vocab_size=12,
                      feature_dim=dim)
    corpus = generate_corpus(cfg, INV, lex)
    write_manifest(tmp_path / "m", corpus, INV, lex)
    back, _, _ = read_manifest(tmp_path / "m")
    assert back == corpus
    for a, b in zip(corpus, back):
        assert b.features.dtype == np.float64
        assert b.features.tobytes() == a.features.tobytes()
    # the records take the rows of features.npy in order, nothing more
    frames = np.load(tmp_path / "m" / "features.npy", allow_pickle=False)
    assert frames.tobytes() == b"".join(u.features.tobytes() for u in corpus)


def test_manifest_roundtrip_keeps_the_split_of_equal_phonemes(tmp_path):
    # /ɑ/ ends the first character and starts the second, so two adjacent
    # /ɑ/ make one run of 6 frames; the 2 + 4 split survives
    a, t = INV.phoneme_index("ɑ"), INV.phoneme_index("t")
    lex = Lexicon([LexiconEntry("\ue000", (a,)), LexiconEntry("\ue001", (a, t))])
    labels = labels_of((0, 1), lex, INV)
    assert labels.phonemes == (a, a, t)
    u = Utterance(id="utt00000", features=np.arange(27.0).reshape(9, 3),
                  labels=labels, durations=(2, 4, 3))
    write_manifest(tmp_path / "m", [u], INV, lex)
    back, _, _ = read_manifest(tmp_path / "m")
    assert back[0].durations == (2, 4, 3)
    assert back == [u]


def test_manifest_empty_corpus(tmp_path):
    write_manifest(tmp_path / "m", [], INV, make_lexicon(INV, 10, seed=0))
    with pytest.raises(ManifestError, match=re.escape(
            f"no records in {tmp_path / 'm' / 'index.tsv'}")):
        read_manifest(tmp_path / "m")


@pytest.mark.parametrize("missing", ["visemes.tsv", "lexicon.tsv"])
@pytest.mark.parametrize("size", [0, 2])
def test_manifest_names_a_missing_inventory_or_lexicon(tmp_path, small_corpus,
                                                       missing, size):
    _, lex, corpus = small_corpus
    write_manifest(tmp_path / "m", corpus[:size], INV, lex)
    (tmp_path / "m" / missing).unlink()
    with pytest.raises(ManifestError, match=re.escape(
            f"no {missing} under {tmp_path / 'm'}")):
        read_manifest(tmp_path / "m")


def test_manifest_names_a_missing_feature_blob(tmp_path, small_corpus):
    _, lex, corpus = small_corpus
    write_manifest(tmp_path / "m", corpus[:2], INV, lex)
    (tmp_path / "m" / "features.npy").unlink()
    with pytest.raises(ManifestError, match=re.escape(
            f"no features.npy under {tmp_path / 'm'}")):
        read_manifest(tmp_path / "m")


@pytest.mark.parametrize("corrupt, message", [
    (lambda p: p.write_bytes(b"not an array\n"), "magic string"),
    (lambda p: p.write_bytes(p.read_bytes()[:-5]), "Failed to read all data"),
    (lambda p: p.write_bytes(p.read_bytes()[:20]), "EOF"),
    (lambda p: p.write_bytes(b""), "EOF"),
    (lambda p: np.save(p, np.array([{"frames": 1}], dtype=object),
                       allow_pickle=True), "allow_pickle"),
    (lambda p: np.save(p, np.zeros((3, 4), dtype=np.float32)),
     "got float32 of shape (3, 4)"),
    (lambda p: np.save(p, np.zeros(12)), "got float64 of shape (12,)"),
    (lambda p: np.save(p, np.zeros((12, 0))), "got float64 of shape (12, 0)"),
], ids=["not-npy", "truncated-data", "truncated-header", "empty", "pickled",
        "float32", "one-dimensional", "no-features"])
def test_manifest_names_a_corrupt_feature_array(tmp_path, small_corpus,
                                                corrupt, message):
    _, lex, corpus = small_corpus
    write_manifest(tmp_path / "m", corpus[:2], INV, lex)
    blob = tmp_path / "m" / "features.npy"
    corrupt(blob)
    with pytest.raises(ManifestError, match=re.escape(f"{blob}: ")) as raised:
        read_manifest(tmp_path / "m")
    assert message in str(raised.value)


def test_manifest_rejects_bad_version(tmp_path, small_corpus):
    _, lex, corpus = small_corpus
    write_manifest(tmp_path / "m", corpus[:2], INV, lex)
    index = tmp_path / "m" / "index.tsv"
    lines = index.read_text(encoding="utf-8").splitlines()
    lines[0] = "#vsrkit-manifest v999"
    index.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ManifestError, match="version"):
        read_manifest(tmp_path / "m")


def test_manifest_refuses_a_v2_manifest_naming_its_header(tmp_path,
                                                          small_corpus):
    # v2 kept T, C and a byte offset per record and a raw features.bin
    _, lex, corpus = small_corpus
    u = corpus[0]
    T, C = u.features.shape
    m = tmp_path / "m"
    write_manifest(m, [u], INV, lex)
    (m / "features.npy").unlink()
    (m / "features.bin").write_bytes(u.features.astype("<f8").tobytes())
    (m / "index.tsv").write_text("\n".join([
        "#vsrkit-manifest v2",
        "\t".join([u.id, str(T), str(C), "0",
                   ",".join(map(str, u.labels.chars)),
                   ",".join(map(str, u.durations))]),
    ]) + "\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=re.escape(
            "unsupported manifest version header: '#vsrkit-manifest v2'")):
        read_manifest(m)


def _edit_record(manifest, row, column, edit):
    """Rewrite field ``column`` of index record ``row`` (1 is the first
    record) to ``edit(old_value)``."""
    index = manifest / "index.tsv"
    lines = index.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split("\t")
    fields[column] = edit(fields[column])
    lines[row] = "\t".join(fields)
    index.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_manifest_rejects_corrupted_length(tmp_path, small_corpus):
    # the records must take exactly the rows of features.npy
    _, lex, corpus = small_corpus
    m = tmp_path / "m"
    rows = sum(u.num_frames() for u in corpus[:2])
    write_manifest(m, corpus[:2], INV, lex)
    _edit_record(m, 1, 2, lambda old: ",".join(
        [*old.split(",")[:-1], str(int(old.split(",")[-1]) + 999)]))
    with pytest.raises(ManifestError, match=re.escape(
            f"{m / 'features.npy'} has {rows} rows, but the records of "
            f"{m / 'index.tsv'} take {rows + 999}")):
        read_manifest(m)

    write_manifest(m, corpus[:2], INV, lex)
    index = m / "index.tsv"
    index.write_text("\n".join(index.read_text(encoding="utf-8")
                               .splitlines()[:2]) + "\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=re.escape(
            f"has {rows} rows, but the records of {index} take "
            f"{corpus[0].num_frames()}")):
        read_manifest(m)


def test_manifest_rejects_a_negative_duration(tmp_path, small_corpus):
    _, lex, corpus = small_corpus
    # a negative and a zero count; every phoneme needs at least one frame
    for bad in (-1, 0):
        write_manifest(tmp_path / str(bad), corpus[:1], INV, lex)
        durations = list(corpus[0].durations)
        assert len(durations) > 1
        # same total, so only the bound check can catch it
        durations[0], durations[-1] = bad, durations[-1] + durations[0] - bad
        _edit_record(tmp_path / str(bad), 1, 2,
                     lambda _: ",".join(map(str, durations)))
        with pytest.raises(ManifestError,
                           match=f"inconsistent durations for record "
                                 f"{corpus[0].id}"):
            read_manifest(tmp_path / str(bad))


def test_manifest_names_the_record_of_a_non_finite_feature(tmp_path,
                                                           small_corpus):
    _, lex, corpus = small_corpus
    for bad in (np.nan, np.inf, -np.inf):
        m = tmp_path / str(bad)
        write_manifest(m, corpus[:2], INV, lex)
        frames = np.load(m / "features.npy", allow_pickle=False)
        frames[corpus[0].num_frames(), 1] = bad  # in the second record
        np.save(m / "features.npy", frames)
        with pytest.raises(ManifestError,
                           match=f"record {corpus[1].id}: non-finite"):
            read_manifest(m)


@pytest.mark.parametrize("value, message", [
    ("-1", "character id -1 outside [0, 30)"),
    ("30", "character id 30 outside [0, 30)"),
    ("", "no characters"),
], ids=["char-negative", "char-past-lexicon", "no-characters"])
def test_manifest_names_the_record_of_an_out_of_range_label_id(
        tmp_path, small_corpus, value, message):
    _, lex, corpus = small_corpus
    assert len(lex) == 30
    write_manifest(tmp_path / "m", corpus[:2], INV, lex)
    # the first character id, or the whole list when value is empty
    _edit_record(tmp_path / "m", 2, 1, lambda old: ",".join(
        [value, *old.split(",")[1:]] if value else []))
    with pytest.raises(ManifestError,
                       match=re.escape(f"record {corpus[1].id}: {message}")):
        read_manifest(tmp_path / "m")


@pytest.mark.parametrize("column, edit, message", [
    (1, lambda old: old + ",x", "malformed integers '{old},x'"),
    (2, lambda old: old.replace(",", ";"), "malformed integers '{new}'"),
    (2, lambda old: old + ",", "malformed integers '{old},'"),
    (2, lambda old: old.rpartition(",")[0], "inconsistent durations for "
                                            "record {uid}"),
    (2, lambda old: old + ",1", "inconsistent durations for record {uid}"),
], ids=["chars-not-integers", "durations-not-integers",
        "durations-empty-entry", "durations-one-short", "durations-one-over"])
def test_manifest_names_the_record_of_a_malformed_field(tmp_path, small_corpus,
                                                        column, edit, message):
    _, lex, corpus = small_corpus
    # the second record has two or more characters and phonemes
    pair = [corpus[0], next(u for u in corpus[1:] if len(u.labels.chars) > 1)]
    write_manifest(tmp_path / "m", pair, INV, lex)
    old = (tmp_path / "m" / "index.tsv").read_text(
        encoding="utf-8").splitlines()[2].split("\t")[column]
    _edit_record(tmp_path / "m", 2, column, edit)
    with pytest.raises(ManifestError, match=re.escape(message.format(
            old=old, new=edit(old), uid=pair[1].id))) as raised:
        read_manifest(tmp_path / "m")
    assert pair[1].id in str(raised.value)


def test_manifest_names_a_record_of_too_few_fields(tmp_path, small_corpus):
    _, lex, corpus = small_corpus
    write_manifest(tmp_path / "m", corpus[:2], INV, lex)
    index = tmp_path / "m" / "index.tsv"
    lines = index.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].rpartition("\t")[0]
    index.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=re.escape(
            f"malformed record in {index}: {lines[2]!r}")):
        read_manifest(tmp_path / "m")


def test_manifest_names_a_repeated_record_id(tmp_path, small_corpus):
    _, lex, corpus = small_corpus
    write_manifest(tmp_path / "m", corpus[:3], INV, lex)
    _edit_record(tmp_path / "m", 2, 0, lambda _: corpus[0].id)
    with pytest.raises(ManifestError, match=re.escape(
            f"record {corpus[0].id}: repeated id")):
        read_manifest(tmp_path / "m")


@pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
def test_synth_config_refuses_a_negative_or_non_finite_noise_std(value):
    with pytest.raises(ValueError, match="noise_std"):
        SynthConfig(noise_std=value)


def test_manifest_requires_lexicon_coverage():
    lex = make_lexicon(INV, 10, seed=0)
    cfg = SynthConfig(seed=0, num_utterances=2, char_vocab_size=20)
    with pytest.raises(ValueError, match="lexicon"):
        generate_corpus(cfg, INV, lex)


def test_codebook_seed_shares_features_across_corpora():
    lex = make_lexicon(INV, 20, seed=9)
    a = SynthConfig(seed=100, codebook_seed=9, num_utterances=2,
                    char_vocab_size=20, noise_std=0.0)
    b = SynthConfig(seed=200, codebook_seed=9, num_utterances=2,
                    char_vocab_size=20, noise_std=0.0)
    book = phoneme_codebook(a, INV)
    assert np.array_equal(book, phoneme_codebook(b, INV))
    for cfg in (a, b):
        for u in generate_corpus(cfg, INV, lex):
            assert np.array_equal(u.features, book[u.frame_phonemes])
    c = SynthConfig(seed=200, codebook_seed=10, num_utterances=2,
                    char_vocab_size=20)
    assert not np.array_equal(phoneme_codebook(a, INV),
                              phoneme_codebook(c, INV))


def test_only_synthesis_imports_scipy():
    script = (
        "import sys\n"
        "import vsrkit.cli, vsrkit.model, vsrkit.training\n"
        "print('scipy' in sys.modules)\n"
        "from vsrkit.linguistics import default_inventory\n"
        "from vsrkit.synth import SynthConfig, generate_corpus, make_lexicon\n"
        "inv = default_inventory()\n"
        "generate_corpus(SynthConfig(num_utterances=1), inv,\n"
        "                make_lexicon(inv, 48, seed=0))\n"
        "print('scipy' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]
