"""Character error rate with explicit substitution/deletion/insertion
counts. The eval report built from these counts is written by
``training.evaluate``."""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CerReport", "cer"]


@dataclass(frozen=True)
class CerReport:
    """Edit operation counts from reference to hypothesis and their rate."""

    substitutions: int
    deletions: int
    insertions: int
    ref_len: int
    cer: float


def cer(reference, hypothesis) -> CerReport:
    """Minimum-edit-distance error rate (S + D + I) / N with deterministic
    tie-breaking: substitution is preferred over a delete+insert pair, and
    deletion over insertion. The counts ride along in one row of the
    distance table: each cell carries those of the neighbour this policy
    takes from it, plus its own operation.

    The rate is not clamped, so hypotheses much longer than the reference
    can exceed 1. An empty reference is an error.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    n = len(ref)
    if n < 1:
        raise ValueError("reference must be nonempty")

    # cell j of row i: (distance, S, D, I) from ref[:i] to hyp[:j]
    row = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, 1):
        left = (i, 0, i, 0)
        new = [left]
        for c, diag, up in zip(hyp, row, row[1:]):
            cost = 1 if r != c else 0
            sub = diag[0] + cost
            if sub <= up[0] + 1 and sub <= left[0] + 1:
                left = (sub, diag[1] + cost, diag[2], diag[3])
            elif up[0] <= left[0]:
                left = (up[0] + 1, up[1], up[2] + 1, up[3])
            else:
                left = (left[0] + 1, left[1], left[2], left[3] + 1)
            new.append(left)
        row = new

    _, subs, dels, inss = row[-1]
    return CerReport(substitutions=subs, deletions=dels, insertions=inss,
                     ref_len=n, cer=(subs + dels + inss) / n)
