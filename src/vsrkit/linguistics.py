"""Vocabularies, lexicon, grapheme->phoneme->viseme conversion and their
file formats.

The phoneme inventory is a 16-class viseme grouping of segmental IPA
symbols; class 0 is reserved for blank/silence in both vocabularies.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import chain

__all__ = [
    "LinguisticsError",
    "LinguisticInventory",
    "LexiconEntry",
    "Lexicon",
    "LabelTriple",
    "load_inventory",
    "default_inventory",
    "load_lexicon",
    "default_lexicon",
    "labels_of",
    "text_to_labels",
    "NUM_VISEMES",
    "BLANK",
]

NUM_VISEMES = 16  # ids 0..15, id 0 is blank/silence
BLANK = 0
BLANK_SYMBOL = "_"

# Printed frequency columns are rounded, so a bundled file may miss 1.0 by a
# few 1e-4. Anything beyond this is treated as a broken file.
_FREQ_SUM_TOL = 1e-3


class LinguisticsError(ValueError):
    pass


@dataclass(frozen=True)
class LinguisticInventory:
    """Phoneme symbols, viseme ids, the phoneme->viseme map and viseme priors.

    ``phonemes[0]`` is the blank symbol and maps to viseme 0; every other
    phoneme maps to exactly one viseme id in 1..15. ``viseme_frequency`` is
    normalized to sum to 1 over the non-blank ids.
    """

    phonemes: tuple[str, ...]
    phoneme_to_viseme: tuple[int, ...]
    viseme_frequency: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {sym: i for i, sym in enumerate(self.phonemes)}
        )

    @property
    def num_phonemes(self) -> int:
        return len(self.phonemes)

    @property
    def num_visemes(self) -> int:
        return NUM_VISEMES

    def phoneme_index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise LinguisticsError(f"unmapped phoneme {symbol!r}") from None

    def phonemes_of_viseme(self, viseme_id: int) -> list[int]:
        return [i for i, v in enumerate(self.phoneme_to_viseme) if v == viseme_id]


@dataclass(frozen=True)
class LexiconEntry:
    """One character bound to its single pronunciation (phoneme indices)."""

    character: str
    phonemes: tuple[int, ...]


class Lexicon:
    """Ordered character->pronunciation table; order defines char indices."""

    def __init__(self, entries: list[LexiconEntry]):
        self.entries = list(entries)
        self._index = {}
        for i, e in enumerate(self.entries):
            if e.character in self._index:
                raise LinguisticsError(f"duplicate lexicon character {e.character!r}")
            self._index[e.character] = i

    def __len__(self):
        return len(self.entries)

    def __contains__(self, character):
        return character in self._index

    def char_index(self, character: str) -> int:
        try:
            return self._index[character]
        except KeyError:
            raise LinguisticsError(
                f"character {character!r} not in lexicon"
            ) from None


@dataclass(frozen=True)
class LabelTriple:
    """Character, phoneme and viseme index sequences for one utterance."""

    chars: tuple[int, ...]
    phonemes: tuple[int, ...]
    visemes: tuple[int, ...]


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def load_inventory(path) -> LinguisticInventory:
    """Parse an inventory file: ``viseme_id<TAB>frequency<TAB>ph1,ph2,...``.

    All 16 viseme ids must appear exactly once; phoneme symbols must be
    globally unique; non-blank frequencies must sum to 1 (within printing
    tolerance, then renormalized exactly).
    """
    rows = {}
    for lineno, line in _read_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise LinguisticsError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        vid_s, freq_s, phs = (f.strip() for f in fields)
        try:
            vid = int(vid_s)
            freq = float(freq_s)
        except ValueError:
            raise LinguisticsError(f"{path}:{lineno}: malformed number") from None
        if vid < 0 or vid >= NUM_VISEMES:
            raise LinguisticsError(f"{path}:{lineno}: viseme id {vid} out of range")
        if vid in rows:
            raise LinguisticsError(f"{path}:{lineno}: duplicate viseme id {vid}")
        symbols = [s.strip() for s in phs.split(",")]
        if any(not s for s in symbols):
            raise LinguisticsError(f"{path}:{lineno}: empty phoneme symbol")
        rows[vid] = (freq, symbols)

    missing = [v for v in range(NUM_VISEMES) if v not in rows]
    if missing:
        raise LinguisticsError(f"{path}: missing viseme rows {missing}")

    freq0, syms0 = rows[BLANK]
    if freq0 != 0.0 or syms0 != [BLANK_SYMBOL]:
        raise LinguisticsError(
            f"{path}: viseme 0 must carry frequency 0 and only the blank symbol"
        )

    phonemes = [BLANK_SYMBOL]
    mapping = [BLANK]
    seen = {BLANK_SYMBOL}
    freqs = [0.0] * NUM_VISEMES
    for vid in range(1, NUM_VISEMES):
        freq, symbols = rows[vid]
        if freq < 0:
            raise LinguisticsError(f"{path}: negative frequency for viseme {vid}")
        freqs[vid] = freq
        for sym in symbols:
            if sym in seen:
                raise LinguisticsError(f"{path}: duplicate phoneme symbol {sym!r}")
            seen.add(sym)
            phonemes.append(sym)
            mapping.append(vid)

    total = sum(freqs)
    if abs(total - 1.0) > _FREQ_SUM_TOL:
        raise LinguisticsError(
            f"{path}: viseme frequencies sum to {total}, expected 1"
        )
    freqs = [f / total for f in freqs]

    return LinguisticInventory(
        phonemes=tuple(phonemes),
        phoneme_to_viseme=tuple(mapping),
        viseme_frequency=tuple(freqs),
    )


def _bundled(name: str):
    return resources.files("vsrkit.data").joinpath(name)


def default_inventory() -> LinguisticInventory:
    """The bundled 16-viseme inventory."""
    with resources.as_file(_bundled("visemes.tsv")) as p:
        return load_inventory(p)


def load_lexicon(path, inv: LinguisticInventory) -> Lexicon:
    """Parse a lexicon file: ``character ph1 ph2 ...`` (whitespace separated)."""
    entries = []
    seen = set()
    for lineno, line in _read_lines(path):
        fields = line.split()
        if len(fields) < 2:
            raise LinguisticsError(
                f"{path}:{lineno}: expected a character and at least one phoneme"
            )
        char = fields[0]
        if len(char) != 1:
            raise LinguisticsError(
                f"{path}:{lineno}: key {char!r} is not a single code point"
            )
        if char in seen:
            raise LinguisticsError(f"{path}:{lineno}: duplicate character {char!r}")
        seen.add(char)
        idxs = []
        for sym in fields[1:]:
            if sym == BLANK_SYMBOL:
                raise LinguisticsError(
                    f"{path}:{lineno}: blank symbol not allowed in a pronunciation"
                )
            try:
                idxs.append(inv.phoneme_index(sym))
            except LinguisticsError:
                raise LinguisticsError(
                    f"{path}:{lineno}: unmapped phoneme {sym!r}"
                ) from None
        entries.append(LexiconEntry(character=char, phonemes=tuple(idxs)))
    return Lexicon(entries)


def default_lexicon(inv: LinguisticInventory) -> Lexicon:
    """The bundled ~120-character lexicon, labelled with ``inv``."""
    with resources.as_file(_bundled("lexicon.tsv")) as p:
        return load_lexicon(p, inv)


def save_inventory(path, inv: LinguisticInventory) -> None:
    """Write an inventory in the loadable tab-separated format."""
    lines = []
    for vid in range(NUM_VISEMES):
        symbols = [inv.phonemes[i] for i in inv.phonemes_of_viseme(vid)]
        freq = inv.viseme_frequency[vid]
        freq_s = "0" if vid == BLANK else repr(freq)
        lines.append(f"{vid}\t{freq_s}\t{','.join(symbols)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_lexicon(path, lexicon: Lexicon, inv: LinguisticInventory) -> None:
    """Write a lexicon in the loadable whitespace-separated format."""
    lines = []
    for e in lexicon.entries:
        symbols = " ".join(inv.phonemes[p] for p in e.phonemes)
        lines.append(f"{e.character} {symbols}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def labels_of(chars, lexicon: Lexicon, inv: LinguisticInventory) -> LabelTriple:
    """The label triple of a sequence of lexicon character ids: each
    character's pronunciation in order, and each phoneme's viseme. Every
    ``LabelTriple`` is built here, so its phonemes and visemes always follow
    from its characters."""
    chars = tuple(map(int, chars))
    entries = lexicon.entries
    phonemes = tuple(chain.from_iterable(entries[c].phonemes for c in chars))
    return LabelTriple(chars=chars, phonemes=phonemes, visemes=tuple(
        map(inv.phoneme_to_viseme.__getitem__, phonemes)))


def text_to_labels(text: str, lexicon: Lexicon, inv: LinguisticInventory) -> LabelTriple:
    """Convert a character string into aligned char/phoneme/viseme sequences."""
    missing = [pos for pos, ch in enumerate(text) if ch not in lexicon]
    if missing:
        raise LinguisticsError(f"character {text[missing[0]]!r} at position "
                               f"{missing[0]} not in lexicon")
    return labels_of(map(lexicon.char_index, text), lexicon, inv)

