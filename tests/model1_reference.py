"""The string-keyed Model 1 trainer that ``train_model1`` replaced, kept as
the reference for differential tests.

It trains on ``(f, e)``-tuple-keyed dicts and follows every EM iteration
with a separate perplexity pass.  The library trains on interned ids and
takes the perplexity from the E-step denominators; both must give
bit-identical tables.
"""

import math
from collections import defaultdict

from igtpivot import NULL_TOKEN, EmptyCorpusError, TranslationTable


def _lowered(corpus, null_word):
    extra = [NULL_TOKEN] if null_word else []
    return [
        ([f.lower() for f in src], extra + [e.lower() for e in tgt])
        for src, tgt in corpus.pairs
    ]


def _perplexity(pairs, probs):
    log_total = 0.0
    n_tokens = 0
    for src, tgt in pairs:
        m = len(tgt)
        for f in src:
            mass = sum(probs.get((f, e), 0.0) for e in tgt)
            log_total += math.log(mass / m)
            n_tokens += 1
    return math.exp(-log_total / n_tokens)


def train_model1(corpus, iterations=5, null_word=False):
    if not corpus.pairs:
        raise EmptyCorpusError("cannot train on an empty corpus")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    pairs = _lowered(corpus, null_word)
    cooc = defaultdict(set)  # target word -> source words
    for src, tgt in pairs:
        for e in tgt:
            cooc[e].update(src)
    probs = {}
    for e in sorted(cooc):
        uniform = 1.0 / len(cooc[e])
        for f in sorted(cooc[e]):
            probs[(f, e)] = uniform

    history = [_perplexity(pairs, probs)]
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        for src, tgt in pairs:
            for f in src:
                denom = sum(probs.get((f, e), 0.0) for e in tgt)
                for e in tgt:
                    share = probs.get((f, e), 0.0) / denom
                    counts[(f, e)] += share
                    totals[e] += share
        probs = {(f, e): count / totals[e] for (f, e), count in counts.items()}
        history.append(_perplexity(pairs, probs))

    return TranslationTable(
        probs=probs,
        iterations_run=iterations,
        final_perplexity=history[-1],
        null_word=null_word,
        perplexity_history=tuple(history),
    )
