"""Reference character error rate: the full (n+1) x (h+1) edit-distance
table, then a backward walk from its last cell that splits the distance into
substitutions, deletions and insertions. ``vsrkit.metrics.cer`` must return
equal ``CerReport``s; ``test_metrics.py`` checks that."""
from vsrkit.metrics import CerReport


def cer(reference, hypothesis) -> CerReport:
    """Minimum-edit-distance error rate (S + D + I) / N with deterministic
    tie-breaking: substitution is preferred over a delete+insert pair, and
    deletion over insertion.

    The rate is not clamped, so hypotheses much longer than the reference
    can exceed 1. An empty reference is an error.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    n, h = len(ref), len(hyp)
    if n < 1:
        raise ValueError("reference must be nonempty")

    d = [[0] * (h + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        d[i][0] = i
    for j in range(1, h + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        ri = ref[i - 1]
        for j in range(1, h + 1):
            sub = d[i - 1][j - 1] + (ri != hyp[j - 1])
            dele = d[i - 1][j] + 1
            ins = d[i][j - 1] + 1
            d[i][j] = min(sub, dele, ins)

    subs = dels = inss = 0
    i, j = n, h
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            i, j = i - 1, j - 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            inss += 1
            j -= 1

    return CerReport(
        substitutions=subs,
        deletions=dels,
        insertions=inss,
        ref_len=n,
        cer=(subs + dels + inss) / n,
    )
