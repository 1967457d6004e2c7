import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_beam
from vsrkit.decoding import attention_greedy_decode, ctc_beam_decode, \
    ctc_greedy_decode
from vsrkit.verify import ctc_path_enumeration


def onehot_logits(classes, K, scale=10.0):
    return np.eye(K)[classes] * scale


def test_greedy_collapse_rule():
    assert ctc_greedy_decode(onehot_logits([0, 1, 1, 0, 2], 3)) == [1, 2]


def test_greedy_all_blank():
    assert ctc_greedy_decode(onehot_logits([0, 0, 0], 2)) == []


def test_greedy_blank_separates_repeats():
    assert ctc_greedy_decode(onehot_logits([1, 0, 1], 2)) == [1, 1]


def test_greedy_output_free_of_blanks_and_merged_runs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T, K = int(rng.integers(1, 12)), int(rng.integers(2, 6))
        toks = ctc_greedy_decode(rng.normal(size=(T, K)))
        assert 0 not in toks
        # collapsing explicit frames keeps one token per non-blank run
        frames = rng.integers(0, K, size=T)
        collapsed = ctc_greedy_decode(onehot_logits(frames, K))
        assert collapsed == [k for k, _ in itertools.groupby(frames) if k != 0]


def test_full_width_beam_matches_exhaustive_marginalization():
    rng = np.random.default_rng(5)
    for T in range(1, 5):
        for K in (2, 3):
            logits = rng.normal(size=(T, K))
            hyps = ctc_beam_decode(logits, beam_width=math.inf)
            # every label sequence of at most T labels; a path reaches
            # exactly those with a positive marginal
            marginal = {seq: ctc_path_enumeration(logits, seq)
                        for n in range(T + 1)
                        for seq in itertools.product(range(1, K), repeat=n)}
            reachable = {seq: p for seq, p in marginal.items() if p > 0}
            assert sorted(tokens for tokens, _ in hyps) == sorted(reachable)
            for tokens, score in hyps:
                assert math.exp(score) == pytest.approx(reachable[tokens],
                                                        abs=1e-12)
            best = max(reachable, key=lambda k: (reachable[k], k))
            assert hyps[0][0] == max(reachable, key=reachable.get) or \
                hyps[0][0] == best


@st.composite
def _beam_inputs(draw):
    """T x K logits, whole numbers in about half the draws so that scores
    tie, and a beam width: 1 to 12, or unbounded when T and K are small."""
    T, K = draw(st.integers(0, 14)), draw(st.integers(2, 9))
    elements = (st.integers(-2, 2).map(float) if draw(st.booleans())
                else st.floats(-6.0, 6.0))
    logits = draw(hnp.arrays(np.float64, (T, K), elements=elements))
    widths = st.integers(1, 12)
    if T <= 5 and K <= 4:
        widths = widths | st.just(math.inf)
    return logits, draw(widths)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_beam_inputs())
def test_beam_returns_the_reference_hypotheses_bit_for_bit(inputs):
    logits, width = inputs
    got = ctc_beam_decode(logits, width)
    # tokens, scores compared with ==, and order
    assert got == reference_beam.ctc_beam_decode(logits, width)
    assert all(type(tokens) is tuple and type(score) is float
               for tokens, score in got)


def test_beam_scores_non_increasing():
    rng = np.random.default_rng(9)
    hyps = ctc_beam_decode(rng.normal(size=(6, 4)), beam_width=4)
    scores = [score for _, score in hyps]
    assert scores == sorted(scores, reverse=True)


def test_beam_tie_break_by_token_order():
    # uniform logits make many label sequences equally likely
    hyps = ctc_beam_decode(np.zeros((2, 3)), beam_width=math.inf)
    for (a, a_score), (b, b_score) in zip(hyps[:-1], hyps[1:]):
        if a_score == pytest.approx(b_score, abs=1e-15):
            assert a < b


def test_beam_rejects_bad_width():
    with pytest.raises(ValueError):
        ctc_beam_decode(np.zeros((2, 2)), beam_width=0)


def test_attention_greedy_stops_at_eos():
    def step(prefix):
        return np.array([0.0, 0.0, 10.0])  # always end-of-sequence (id 2)

    assert attention_greedy_decode(step, max_len=5, eos_id=2) == []


def test_attention_greedy_respects_cap():
    def step(prefix):
        return np.array([10.0, 0.0, 0.0])

    assert attention_greedy_decode(step, max_len=5, eos_id=2) == [0] * 5


def test_attention_greedy_deterministic():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(6, 4))

    def step(prefix):
        return table[len(prefix)]

    a = attention_greedy_decode(step, max_len=6, eos_id=3)
    b = attention_greedy_decode(step, max_len=6, eos_id=3)
    assert a == b
