"""Reference corpus synthesis: ``make_lexicon``, ``_char_sampling_weights``
and ``generate_corpus`` as they were before their draws were rewritten, with
the ``labels_of`` they called. Every character draw is a ``Generator.choice``
with ``p=``. ``vsrkit.synth`` must return byte-identical lexicons and
corpora; ``test_synth.py`` checks that."""
import numpy as np
from scipy.optimize import nnls

from vsrkit.linguistics import LabelTriple, Lexicon, LexiconEntry, \
    LinguisticInventory
from vsrkit.synth import SynthConfig, Utterance, phoneme_codebook

_LEXICON_STREAM = 202
_CORPUS_STREAM = 303
_PRONUNCIATION_LENGTHS = (1, 3)
_HOMOPHONE_PAIRS = 3


def labels_of(chars, lexicon: Lexicon, inv: LinguisticInventory) -> LabelTriple:
    """The label triple of a sequence of lexicon character ids: each
    character's pronunciation in order, and each phoneme's viseme. Every
    ``LabelTriple`` is built here, so its phonemes and visemes always follow
    from its characters."""
    chars = tuple(int(c) for c in chars)
    phonemes = tuple(p for c in chars for p in lexicon.entries[c].phonemes)
    return LabelTriple(chars=chars, phonemes=phonemes, visemes=tuple(
        inv.phoneme_to_viseme[p] for p in phonemes))


def make_lexicon(inv: LinguisticInventory, num_chars: int, seed: int) -> Lexicon:
    """Build an artificial lexicon whose pooled phoneme composition matches
    the inventory's viseme priors by quota.

    Characters are synthetic single code points with one to three phonemes
    each. The last three characters alias the pronunciations of the first
    three, reproducing homophone ambiguity; aliased pronunciations count
    double in the quota so uniform character sampling still matches the
    prior.
    """
    if _HOMOPHONE_PAIRS * 2 > num_chars:
        raise ValueError("too many homophone pairs for the vocabulary size")
    rng = np.random.default_rng([seed, _LEXICON_STREAM])
    n_base = num_chars - _HOMOPHONE_PAIRS
    lo, hi = _PRONUNCIATION_LENGTHS
    lengths = rng.integers(lo, hi + 1, size=n_base)
    mult = np.ones(n_base, dtype=np.int64)
    mult[:_HOMOPHONE_PAIRS] = 2

    prior = np.asarray(inv.viseme_frequency)
    total_slots = int((lengths * mult).sum())
    quota = np.floor(prior * total_slots).astype(np.int64)
    remainder = prior * total_slots - quota
    short = total_slots - quota.sum()
    for v in np.argsort(-remainder)[:short]:
        quota[v] += 1

    remaining = quota.astype(np.float64)
    pronunciations = []
    for c in range(n_base):
        idxs = []
        for _ in range(int(lengths[c])):
            w = np.where(remaining >= mult[c], remaining, 0.0)
            if w.sum() == 0:
                w = remaining.copy()
            if w.sum() == 0:
                w = prior.copy()
            v = int(rng.choice(len(w), p=w / w.sum()))
            remaining[v] = max(0.0, remaining[v] - mult[c])
            choices = inv.phonemes_of_viseme(v)
            idxs.append(int(choices[rng.integers(len(choices))]))
        pronunciations.append(tuple(idxs))

    # synthetic characters from a private-use plane so they never collide
    # with real text
    chars = [chr(0xE000 + i) for i in range(num_chars)]
    entries = [
        LexiconEntry(chars[c], pronunciations[c]) for c in range(n_base)
    ]
    for h in range(_HOMOPHONE_PAIRS):
        entries.append(LexiconEntry(chars[n_base + h], pronunciations[h]))
    return Lexicon(entries)


def _char_sampling_weights(lexicon: Lexicon, inv: LinguisticInventory,
                           vocab_size: int) -> np.ndarray:
    """Character weights whose induced long-run viseme frequency matches the
    inventory prior as closely as the lexicon allows (nonnegative least
    squares on the composition deficit)."""
    prior = np.asarray(inv.viseme_frequency)
    counts = np.stack([
        np.bincount(labels_of([c], lexicon, inv).visemes,
                    minlength=inv.num_visemes) for c in range(vocab_size)],
        axis=1).astype(np.float64)
    lens = counts.sum(axis=0)
    deficit = counts - prior[:, None] * lens[None, :]
    system = np.vstack([deficit, np.ones((1, vocab_size))])
    rhs = np.zeros(inv.num_visemes + 1)
    rhs[-1] = 1.0
    w, _ = nnls(system, rhs)
    if w.sum() <= 0:
        return np.full(vocab_size, 1.0 / vocab_size)
    return w / w.sum()


def generate_corpus(cfg: SynthConfig, inv: LinguisticInventory,
                    lexicon: Lexicon) -> list:
    """Sample a deterministic corpus of utterances.

    Characters are drawn from the first ``char_vocab_size`` lexicon entries
    with weights that match the inventory's viseme prior. Each utterance
    also keeps its ground-truth durations.
    """
    if len(lexicon) < cfg.char_vocab_size:
        raise ValueError(
            f"lexicon has {len(lexicon)} characters, need {cfg.char_vocab_size}"
        )
    rng = np.random.default_rng([cfg.seed, _CORPUS_STREAM])
    book = phoneme_codebook(cfg, inv)
    weights = _char_sampling_weights(lexicon, inv, cfg.char_vocab_size)

    utterances = []
    for u in range(cfg.num_utterances):
        n_chars = int(rng.integers(cfg.sentence_len[0], cfg.sentence_len[1] + 1))
        chars = rng.choice(cfg.char_vocab_size, size=n_chars, p=weights)
        labels = labels_of(chars, lexicon, inv)
        durations = rng.integers(cfg.frames_per_phoneme[0],
                                 cfg.frames_per_phoneme[1] + 1,
                                 size=len(labels.phonemes))
        feats = book[np.repeat(labels.phonemes, durations)]
        if cfg.noise_std > 0:
            feats = feats + cfg.noise_std * rng.normal(size=feats.shape)
        utterances.append(Utterance(
            id=f"utt{u:05d}",
            features=np.ascontiguousarray(feats, dtype=np.float64),
            labels=labels,
            durations=tuple(durations.tolist()),
        ))
    return utterances
