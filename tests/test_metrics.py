import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cer
from vsrkit.metrics import cer
from vsrkit.verify import edit_distance_reference

REFERENCE = "国务院督察组将督促整改"
HYPOTHESES = {
    "f": ("国务院督查组将陆续展开", 0.4545, 5),
    "f+p": ("国务院督查组将突出整改", 0.2727, 3),
    "f+v": ("国务院督查组将图书整改", 0.2727, 3),
    "f+p+v": ("国务院督查组将督促整改", 0.0909, 1),
}


@pytest.mark.parametrize("name", sorted(HYPOTHESES))
def test_known_transcription_quartet(name):
    hyp, expected_cer, expected_subs = HYPOTHESES[name]
    rep = cer(REFERENCE, hyp)
    assert round(rep.cer, 4) == expected_cer
    assert rep.substitutions == expected_subs
    assert rep.deletions == rep.insertions == 0
    assert rep.ref_len == 11


def test_identical_sequences():
    rep = cer("abcd", "abcd")
    assert rep.cer == 0.0
    assert (rep.substitutions, rep.deletions, rep.insertions) == (0, 0, 0)


def test_empty_hypothesis_is_all_deletions():
    rep = cer("abcd", "")
    assert rep.cer == 1.0
    assert rep.deletions == 4


def test_empty_reference_is_an_error():
    with pytest.raises(ValueError):
        cer("", "abc")


def test_cer_can_exceed_one():
    rep = cer("a", "xyz")
    assert rep.cer > 1.0


def test_counts_match_reference_dp_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        h = int(rng.integers(0, 13))
        a = rng.integers(0, 6, size=n).tolist()
        b = rng.integers(0, 6, size=h).tolist()
        rep = cer(a, b)
        dist = edit_distance_reference(a, b)
        assert rep.substitutions + rep.deletions + rep.insertions == dist
        assert rep.cer == dist / n
        assert rep.substitutions + rep.deletions <= n


def test_swap_identity():
    # cer is not symmetric, but the edit count is: cer(a,b)*|a| = cer(b,a)*|b|
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = rng.integers(0, 4, size=int(rng.integers(1, 9))).tolist()
        b = rng.integers(0, 4, size=int(rng.integers(1, 9))).tolist()
        assert cer(a, b).cer * len(a) == pytest.approx(cer(b, a).cer * len(b))


def test_tie_break_prefers_substitution():
    rep = cer("ab", "cd")  # could be 2 subs or 2 ins + 2 dels
    assert rep.substitutions == 2
    assert rep.deletions == rep.insertions == 0


def test_counts_are_deterministic():
    reps = {cer("abcab", "bcaba") for _ in range(5)}
    assert len(reps) == 1


@st.composite
def _cer_pairs(draw):
    if draw(st.booleans()):
        alphabet = "abcd"[:draw(st.integers(1, 4))]
        return (draw(st.text(alphabet, min_size=1, max_size=12)),
                draw(st.text(alphabet, max_size=12)))
    symbols = st.integers(0, draw(st.integers(0, 3)))
    pair = (draw(st.lists(symbols, min_size=1, max_size=12)),
            draw(st.lists(symbols, max_size=12)))
    # numpy elements too: the counts stay Python ints either way
    return tuple(map(np.array, pair)) if draw(st.booleans()) else pair


@settings(derandomize=True, max_examples=800, deadline=None)
@given(_cer_pairs())
def test_counts_equal_the_reference_walk(pair):
    got = cer(*pair)
    want = reference_cer.cer(*pair)
    # every field, the rate included, compared with ==, and its type
    for name in ("substitutions", "deletions", "insertions", "ref_len", "cer"):
        assert getattr(got, name) == getattr(want, name)
        assert type(getattr(got, name)) is type(getattr(want, name))


@pytest.mark.parametrize("ref, hyp, counts", [
    # two substitutions, not a deletion and an insertion around a match
    ("ab", "ba", (2, 0, 0)),
    # a cell where a deletion and an insertion cost the same
    ([1, 0, 1], [0, 2, 1, 0], (0, 1, 2)),
])
def test_tie_break_cases(ref, hyp, counts):
    rep = cer(ref, hyp)
    assert (rep.substitutions, rep.deletions, rep.insertions) == counts
    assert rep == reference_cer.cer(ref, hyp)
