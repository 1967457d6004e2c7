"""Synthetic corpus generation: characters -> phonemes -> visemes -> noisy
frame features, plus manifest persistence.

Frame features are a fixed random per-phoneme codebook row repeated for a
sampled duration with isotropic noise. The codebook is structured so that
viseme identity is a strong signal and within-viseme phoneme detail a weak
one, mirroring what a visual channel exposes. Each utterance keeps its
ground-truth alignment as frames per phoneme; it exists only because the
data is synthetic, and training never consumes it. A manifest stores only
what it cannot derive: per record the id, characters and durations, and
all frames in one features.npy; labels follow from the characters
(``labels_of``).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linguistics import (
    Lexicon,
    LexiconEntry,
    LabelTriple,
    LinguisticInventory,
    labels_of,
    load_inventory,
    load_lexicon,
    save_inventory,
    save_lexicon,
)

__all__ = [
    "SynthConfig",
    "Utterance",
    "ManifestError",
    "make_lexicon",
    "phoneme_codebook",
    "generate_corpus",
    "write_manifest",
    "read_manifest",
    "filter_by_length",
    "viseme_frequencies",
]

MANIFEST_VERSION = "vsrkit-manifest v3"

_CODEBOOK_STREAM = 101
_LEXICON_STREAM = 202
_CORPUS_STREAM = 303

# codebook weights of the shared viseme anchor and the per-phoneme detail;
# phonemes per synthetic character, and how many characters are homophones
_VISEME_SCALE = 1.0
_PHONEME_SCALE = 0.35
_PRONUNCIATION_LENGTHS = (1, 3)
_HOMOPHONE_PAIRS = 3


class ManifestError(RuntimeError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    num_utterances: int = 64
    char_vocab_size: int = 48
    sentence_len: tuple = (1, 4)
    frames_per_phoneme: tuple = (3, 7)
    feature_dim: int = 16
    noise_std: float = 0.5
    # a held-out corpus shares the codebook of its training corpus by
    # pinning this while varying `seed`
    codebook_seed: int = None

    def __post_init__(self):
        # from 2 frames per phoneme every CTC target fits its utterance: L
        # labels need at most 2L - 1 frames
        for name, least in (("sentence_len", 1), ("frames_per_phoneme", 2)):
            bounds = getattr(self, name)
            if not (isinstance(bounds, tuple) and len(bounds) == 2 and all(
                    isinstance(v, (int, np.integer)) for v in bounds)):
                raise ValueError(
                    f"{name} must be two integers lo,hi, got {bounds!r}")
            if bounds[0] < least or bounds[0] > bounds[1]:
                raise ValueError(f"{name} must be lo,hi with {least} <= lo "
                                 f"<= hi, got {bounds}")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(
                f"noise_std must be finite and >= 0, got {self.noise_std}")
        for name, least in (("num_utterances", 1), ("feature_dim", 1),
                            ("char_vocab_size", 2 * _HOMOPHONE_PAIRS),
                            ("seed", 0), ("codebook_seed", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass
class Utterance:
    """Features, labels and the ground-truth frame count of each phoneme."""

    id: str
    features: np.ndarray  # T x C
    labels: LabelTriple
    durations: tuple  # frames per phoneme, summing to T

    @property
    def frame_phonemes(self):
        """The phoneme of every frame (T)."""
        return np.repeat(self.labels.phonemes, self.durations)

    def num_frames(self):
        return self.features.shape[0]

    def __eq__(self, other):
        return (
            self.id == other.id
            and np.array_equal(self.features, other.features)
            and self.labels == other.labels
            and self.durations == other.durations
        )


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
    phonemes = [inv.phonemes_of_viseme(v) for v in range(len(prior))]
    pronunciations = []
    for c in range(n_base):
        idxs = []
        for _ in range(int(lengths[c])):
            w = np.where(remaining >= mult[c], remaining, 0.0)
            if not w.any():
                # a slot takes <= its mult, so remaining still sums to >= 1
                w = remaining
            v = int(_categorical(w / w.sum())(rng))
            remaining[v] = max(0.0, remaining[v] - mult[c])
            choices = phonemes[v]
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
    from scipy.optimize import nnls  # only synthesis pays for scipy

    prior = np.asarray(inv.viseme_frequency)
    p2v = inv.phoneme_to_viseme
    counts = np.zeros((inv.num_visemes, vocab_size))
    for c, entry in enumerate(lexicon.entries[:vocab_size]):
        for p in entry.phonemes:
            counts[p2v[p], c] += 1
    lens = counts.sum(axis=0)
    deficit = counts - prior[:, None] * lens[None, :]
    system = np.vstack([deficit, np.ones((1, vocab_size))])
    rhs = np.zeros(inv.num_visemes + 1)
    rhs[-1] = 1.0
    w, _ = nnls(system, rhs)
    # at w = 0 the NNLS gradient is -system.T @ rhs = -1, so w.sum() > 0
    return w / w.sum()


def _categorical(p):
    """A draw ``(rng, size=None)`` of indices with probabilities ``p``,
    made as ``Generator.choice(len(p), size, p=p)`` makes it: ``size``
    uniforms searched (side right) in the cumulative sum of ``p`` over its
    last entry. Building the draw once serves any number of calls."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return lambda rng, size=None: cdf.searchsorted(rng.random(size),
                                                   side="right")


def phoneme_codebook(cfg: SynthConfig, inv: LinguisticInventory) -> np.ndarray:
    """Fixed random per-phoneme embedding: a shared anchor per viseme class
    plus a smaller per-phoneme detail component."""
    base = cfg.codebook_seed if cfg.codebook_seed is not None else cfg.seed
    rng = np.random.default_rng([base, _CODEBOOK_STREAM])
    anchors = rng.normal(size=(inv.num_visemes, cfg.feature_dim))
    details = rng.normal(size=(inv.num_phonemes, cfg.feature_dim))
    p2v = np.asarray(inv.phoneme_to_viseme)
    return _VISEME_SCALE * anchors[p2v] + _PHONEME_SCALE * details


def generate_corpus(cfg: SynthConfig, inv: LinguisticInventory,
                    lexicon: Lexicon) -> list:
    """Sample a deterministic corpus of utterances.

    Characters are drawn from the first ``char_vocab_size`` lexicon entries
    with weights that match the inventory's viseme prior. Each utterance
    also keeps its ground-truth durations.

    Each sentence makes its draws in this order: its length (one
    ``integers``), its characters (one uniform each, drawn as
    ``Generator.choice(p=)`` draws them), its frames per phoneme (one
    ``integers`` of that many) and, when ``noise_std > 0``, a T x C
    ``normal``. A rewrite that keeps these keeps every corpus.
    """
    if len(lexicon) < cfg.char_vocab_size:
        raise ValueError(
            f"lexicon has {len(lexicon)} characters, need {cfg.char_vocab_size}"
        )
    rng = np.random.default_rng([cfg.seed, _CORPUS_STREAM])
    book = phoneme_codebook(cfg, inv)
    draw_chars = _categorical(
        _char_sampling_weights(lexicon, inv, cfg.char_vocab_size))
    len_lo, len_hi = cfg.sentence_len
    dur_lo, dur_hi = cfg.frames_per_phoneme

    utterances = []
    for u in range(cfg.num_utterances):
        n_chars = int(rng.integers(len_lo, len_hi + 1))
        labels = labels_of(draw_chars(rng, n_chars).tolist(), lexicon, inv)
        durations = rng.integers(dur_lo, dur_hi + 1, size=len(labels.phonemes))
        # a gathered copy of the codebook rows, so the noise adds in place
        feats = book.take(np.repeat(labels.phonemes, durations), axis=0)
        if cfg.noise_std > 0:
            feats += cfg.noise_std * rng.normal(size=feats.shape)
        utterances.append(Utterance(
            id=f"utt{u:05d}",
            features=feats,
            labels=labels,
            durations=tuple(durations.tolist()),
        ))
    return utterances


def filter_by_length(utterances, max_frames):
    """Curriculum subset: utterances no longer than ``max_frames``."""
    return [u for u in utterances if u.num_frames() <= max_frames]


def viseme_frequencies(labels, inv: LinguisticInventory) -> np.ndarray:
    """Empirical per-phoneme-token viseme distribution over an iterable of
    ``LabelTriple``s."""
    counts = np.zeros(inv.num_visemes)
    for triple in labels:
        for v in triple.visemes:
            counts[v] += 1
    total = counts.sum()
    return counts / total if total > 0 else counts


def write_manifest(path, utterances, inv, lexicon):
    """Persist a corpus: index.tsv, features.npy, and the inventory
    (visemes.tsv) and lexicon (lexicon.tsv) it is labelled with, so the
    directory is self-contained. Under the ``#vsrkit-manifest v3`` header,
    each index record holds id, character ids and frames per phoneme,
    tab-separated; features.npy stacks the records' frames in record order
    as one float64 array of sum(T) rows."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    lines = [f"#{MANIFEST_VERSION}"] + ["\t".join([
        u.id,
        ",".join(map(str, u.labels.chars)),
        ",".join(map(str, u.durations)),
    ]) for u in utterances]
    with open(path / "index.tsv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    frames = [u.features for u in utterances] or [np.empty((0, 0))]
    np.save(path / "features.npy", np.concatenate(frames, dtype="<f8"))
    save_inventory(path / "visemes.tsv", inv)
    save_lexicon(path / "lexicon.tsv", lexicon, inv)


def read_manifest(path):
    """Load a corpus written by ``write_manifest``; returns (utterances,
    inventory, lexicon), labels derived by ``labels_of`` through the
    manifest's own lexicon and inventory, and each utterance's T frames the
    next T rows of features.npy, T the sum of its durations. A
    ``ManifestError`` names the path of a missing file, a header other than
    v3, an index without records, and a features.npy that does not load,
    is not a float64 array of width >= 1 or has rows the records do not
    take exactly; and the record of a repeated id, a malformed field, no
    characters, a character outside the lexicon, durations not >= 1 and
    one per phoneme, or a non-finite feature value."""
    path = Path(path)
    index = path / "index.tsv"
    if not index.exists():
        raise ManifestError(f"no index.tsv under {path}")
    with open(index, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != f"#{MANIFEST_VERSION}":
        raise ManifestError(
            f"unsupported manifest version header: {lines[0] if lines else '<empty>'!r}"
        )

    for name in ("visemes.tsv", "lexicon.tsv", "features.npy"):
        if not (path / name).exists():
            raise ManifestError(f"no {name} under {path}")
    if len(lines) == 1:
        raise ManifestError(f"no records in {index}")
    inv = load_inventory(path / "visemes.tsv")
    lexicon = load_lexicon(path / "lexicon.tsv", inv)

    blob = path / "features.npy"
    try:
        with open(blob, "rb") as fh:
            frames = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, EOFError) as e:
        raise ManifestError(f"{blob}: {e}") from None
    if frames.dtype != "<f8" or frames.ndim != 2 or frames.shape[1] < 1:
        raise ManifestError(f"{blob}: want float64 rows of >= 1 features, "
                            f"got {frames.dtype} of shape {frames.shape}")
    utterances, ids, row = [], set(), 0
    for ln in lines[1:]:
        fields = ln.split("\t")
        if len(fields) != 3:
            raise ManifestError(f"malformed record in {index}: {ln!r}")
        uid = fields[0]
        if uid in ids:
            raise ManifestError(f"record {uid}: repeated id")
        ids.add(uid)
        chars = _parse_ints(uid, fields[1])
        if not chars:
            raise ManifestError(f"record {uid}: no characters")
        bad = [i for i in chars if not 0 <= i < len(lexicon)]
        if bad:
            raise ManifestError(f"record {uid}: character id {bad[0]} "
                                f"outside [0, {len(lexicon)})")
        labels = labels_of(chars, lexicon, inv)
        durations = _parse_ints(uid, fields[2])
        if len(durations) != len(labels.phonemes) or min(durations) < 1:
            raise ManifestError(f"inconsistent durations for record {uid}")
        features = frames[row:row + sum(durations)]
        row += sum(durations)
        if not np.isfinite(features).all():
            raise ManifestError(f"record {uid}: non-finite feature value")
        utterances.append(Utterance(uid, features, labels, durations))
    if row != len(frames):
        raise ManifestError(f"{blob} has {len(frames)} rows, but the "
                            f"records of {index} take {row}")
    return utterances, inv, lexicon


def _parse_ints(uid, s):
    """Record ``uid``'s comma-separated integers ``s``."""
    try:
        return tuple(int(x) for x in s.split(",")) if s else ()
    except ValueError:
        raise ManifestError(f"record {uid}: malformed integers {s!r}") from None
