"""The per-order clipped n-gram counting that ``metrics._bleu_counts``
replaced, kept as the reference for differential tests.

It counts each order's n-grams of both sentences in a ``Counter`` of its own
and clips each hypothesis n-gram's count by the reference's.
"""

from collections import Counter

from igtpivot.errors import LengthMismatchError


def _ngrams(tokens, n):
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def bleu_counts(hypotheses, references, max_n):
    if len(hypotheses) != len(references):
        raise LengthMismatchError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    matched = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = [str(t) for t in hyp]
        ref = [str(t) for t in ref]
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            matched[n] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
            total[n] += max(len(hyp) - n + 1, 0)
    return matched, total, hyp_len, ref_len
