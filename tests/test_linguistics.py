import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vsrkit.linguistics import (
    LinguisticsError,
    default_inventory,
    default_lexicon,
    labels_of,
    load_inventory,
    load_lexicon,
    save_inventory,
    save_lexicon,
    text_to_labels,
)

# every viseme row of the bundled inventory: id -> (frequency %, symbols)
TABLE_ROWS = {
    0: (None, ["_"]),
    1: (0.01, ["ʔ"]),
    2: (3.08, ["p", "pʰ", "m"]),
    3: (1.34, ["f"]),
    4: (15.30, ["t", "tʰ", "n", "l"]),
    5: (12.91, ["k", "kʰ", "x", "ŋ"]),
    6: (7.34, ["tɕ", "tɕʰ", "ɕ"]),
    7: (8.00, ["tʂ", "tʂʰ", "ʂ", "ʐ"]),
    8: (2.32, ["ts", "tsʰ", "s"]),
    9: (8.81, ["ɑ"]),
    10: (11.43, ["e", "o", "ə", "ɚ"]),
    11: (15.56, ["ɪ", "ɹ̩", "ɻ̩"]),
    12: (7.81, ["ʊ"]),
    13: (0.69, ["y"]),
    14: (2.36, ["aʲ", "eʲ"]),
    15: (3.02, ["aʷ", "oʷ"]),
}


@pytest.fixture(scope="module")
def inv():
    return default_inventory()


@pytest.fixture(scope="module")
def lexicon(inv):
    return default_lexicon(inv)


def test_bundled_inventory_reproduces_every_row(inv):
    raw_total = sum(f for f, _ in TABLE_ROWS.values() if f) / 100.0
    for vid, (freq, symbols) in TABLE_ROWS.items():
        got = [inv.phonemes[i] for i in inv.phonemes_of_viseme(vid)]
        assert got == symbols, f"viseme {vid}"
        if freq is None:
            assert inv.viseme_frequency[vid] == 0.0
        else:
            # frequencies are renormalized after load; undo that to compare
            # against the printed column
            assert inv.viseme_frequency[vid] * raw_total == \
                pytest.approx(freq / 100.0, abs=1e-12)


def test_bundled_inventory_shape(inv):
    assert inv.num_visemes == 16
    assert inv.num_phonemes == 38  # 37 phonemes + blank
    assert inv.phonemes[0] == "_"
    assert inv.phoneme_to_viseme[0] == 0
    assert abs(sum(inv.viseme_frequency) - 1.0) < 1e-9
    assert all(1 <= v <= 15 for v in inv.phoneme_to_viseme[1:])


def test_specific_lookups(inv):
    assert inv.phoneme_to_viseme[inv.phoneme_index("f")] == 3
    assert inv.phoneme_to_viseme[inv.phoneme_index("y")] == 13


def test_load_errors(tmp_path):
    bad = tmp_path / "inv.tsv"

    bad.write_text("0\t0\t_\n1\tnot_a_number\tʔ\n", encoding="utf-8")
    with pytest.raises(LinguisticsError, match="malformed number"):
        load_inventory(bad)

    bad.write_text("0\t0\t_\n1\t0.5\tʔ\n1\t0.5\tp\n", encoding="utf-8")
    with pytest.raises(LinguisticsError, match="duplicate viseme"):
        load_inventory(bad)

    rows = ["0\t0\t_"] + [f"{v}\t{1 / 15}\tsym{v}" for v in range(1, 16)]
    rows[3] = "3\t" + str(1 / 15) + "\tsym2"  # duplicate phoneme symbol
    bad.write_text("\n".join(rows), encoding="utf-8")
    with pytest.raises(LinguisticsError, match="duplicate phoneme"):
        load_inventory(bad)

    rows = ["0\t0\t_"] + [f"{v}\t0.01\tsym{v}" for v in range(1, 16)]
    bad.write_text("\n".join(rows), encoding="utf-8")
    with pytest.raises(LinguisticsError, match="sum"):
        load_inventory(bad)

    bad.write_text("0\t0\t_\textra\n", encoding="utf-8")
    with pytest.raises(LinguisticsError, match="3 tab-separated"):
        load_inventory(bad)


def test_inventory_missing_rows(tmp_path):
    p = tmp_path / "short.tsv"
    p.write_text("0\t0\t_\n1\t1.0\tʔ\n", encoding="utf-8")
    with pytest.raises(LinguisticsError, match="missing viseme rows"):
        load_inventory(p)


def test_inventory_omitting_a_phoneme_breaks_the_lexicon(tmp_path, inv):
    # drop "m" from its viseme row, then load a lexicon that needs it
    src = [
        f"{vid}\t{0 if vid == 0 else freq / 100.0}\t"
        f"{','.join(s for s in symbols if s != 'm')}"
        for vid, (freq, symbols) in TABLE_ROWS.items()
    ]
    inv_path = tmp_path / "no_m.tsv"
    inv_path.write_text("\n".join(src), encoding="utf-8")
    no_m = load_inventory(inv_path)
    lex_path = tmp_path / "lex.tsv"
    lex_path.write_text("妈 m ɑ\n", encoding="utf-8")
    with pytest.raises(LinguisticsError, match="unmapped phoneme 'm'"):
        load_lexicon(lex_path, no_m)


def test_lexicon_rejects_blank_and_duplicates(tmp_path, inv):
    p = tmp_path / "lex.tsv"
    p.write_text("妈 m _\n", encoding="utf-8")
    with pytest.raises(LinguisticsError, match="blank"):
        load_lexicon(p, inv)
    p.write_text("妈 m ɑ\n妈 p ɑ\n", encoding="utf-8")
    with pytest.raises(LinguisticsError, match="duplicate"):
        load_lexicon(p, inv)
    p.write_text("word m ɑ\n", encoding="utf-8")
    with pytest.raises(LinguisticsError, match="single code point"):
        load_lexicon(p, inv)


def test_text_to_labels_empty(inv, lexicon):
    t = text_to_labels("", lexicon, inv)
    assert t.chars == () and t.phonemes == () and t.visemes == ()


def test_text_to_labels_single_char(inv, lexicon):
    t = text_to_labels("妈", lexicon, inv)
    assert [inv.phonemes[p] for p in t.phonemes] == ["m", "ɑ"]
    assert t.visemes == (2, 9)


def test_text_to_labels_reports_position(inv, lexicon):
    with pytest.raises(LinguisticsError, match="position 1"):
        text_to_labels("妈Z妈", lexicon, inv)


def test_labels_roundtrip_viseme_invariant(inv, lexicon):
    t = text_to_labels("国务院督察组将督促整改", lexicon, inv)
    assert t.visemes == tuple(inv.phoneme_to_viseme[p] for p in t.phonemes)


def test_labels_of_concatenates_pronunciations_as_python_ints(inv, lexicon):
    # a caller may pass numpy ids (generate_corpus passes Python ints);
    # the triple holds plain ints either way
    ids = np.array([lexicon.char_index("妈"), lexicon.char_index("国")])
    t = labels_of(ids, lexicon, inv)
    assert t == text_to_labels("妈国", lexicon, inv)
    assert t.phonemes == lexicon.entries[ids[0]].phonemes + \
        lexicon.entries[ids[1]].phonemes
    assert all(type(i) is int for i in (*t.chars, *t.phonemes, *t.visemes))


def test_save_and_reload_inventory(tmp_path, inv):
    p = tmp_path / "inv.tsv"
    save_inventory(p, inv)
    again = load_inventory(p)
    assert again.phonemes == inv.phonemes
    assert again.phoneme_to_viseme == inv.phoneme_to_viseme
    assert np.allclose(again.viseme_frequency, inv.viseme_frequency)


def test_save_and_reload_lexicon(tmp_path, inv, lexicon):
    p = tmp_path / "lex.tsv"
    save_lexicon(p, lexicon, inv)
    again = load_lexicon(p, inv)
    assert [e.character for e in again.entries] == \
        [e.character for e in lexicon.entries]
    assert [e.phonemes for e in again.entries] == \
        [e.phonemes for e in lexicon.entries]


def test_linguistics_runs_without_numpy():
    # vocabularies, lexicons and their files are plain Python; the arrays
    # built from them belong to the modules that compute
    script = (
        "import sys\n"
        "from vsrkit.linguistics import default_inventory, default_lexicon,\\\n"
        "    text_to_labels\n"
        "inv = default_inventory()\n"
        "lex = default_lexicon(inv)\n"
        "text_to_labels(lex.entries[0].character, lex, inv)\n"
        "print('numpy' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]
