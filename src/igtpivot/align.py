"""Lemma-dictionary induction from parallel corpora.

Trains standard IBM Model 1 lexical translation probabilities by EM:
``probs[(f, e)]`` is t(f|e), the probability that target word ``e``
translates to source word ``f``, so for every target word the probabilities
over source words sum to one.  The source-to-target dictionary is extracted
by the usual reverse lookup: for each source word, the target word
maximizing t(f|e) among its co-occurring targets.

The E-step distributes each source token's unit of mass over its sentence's
target tokens in proportion to the current probabilities; the M-step
renormalizes the accumulated counts per target word.  Sentence pairs are
processed in a fixed order, so training is bit-reproducible.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import EmptyCorpusError, TableParseError
from .model import split_lines

log = logging.getLogger(__name__)

NULL_TOKEN = "<NULL>"


@dataclass(frozen=True)
class ParallelCorpus:
    """Aligned sentence pairs of whitespace tokens; no side may be empty."""

    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        for i, (src, tgt) in enumerate(self.pairs):
            if not src or not tgt:
                raise ValueError(f"pair {i} has an empty sentence")

    @classmethod
    def from_texts(cls, source_text: str, target_text: str) -> "ParallelCorpus":
        """Build from two parallel files (one sentence per line).  Lines that
        are blank on either side are dropped as a pair."""
        src_lines = split_lines(source_text)
        tgt_lines = split_lines(target_text)
        if len(src_lines) != len(tgt_lines):
            raise ValueError(
                f"parallel files differ in length: {len(src_lines)} vs {len(tgt_lines)}"
            )
        pairs = []
        for src, tgt in zip(src_lines, tgt_lines):
            if src.split() and tgt.split():
                pairs.append((tuple(src.split()), tuple(tgt.split())))
        return cls(pairs=tuple(pairs))


@dataclass(frozen=True)
class TranslationTable:
    """Trained lexical translation probabilities (lowercased tokens)."""

    probs: dict[tuple[str, str], float]
    source_vocab: frozenset[str]
    target_vocab: frozenset[str]
    iterations_run: int
    final_perplexity: float
    null_word: bool = False
    perplexity_history: tuple[float, ...] = ()

    def prob(self, source: str, target: str) -> float:
        return self.probs.get((source.lower(), target if target == NULL_TOKEN else target.lower()), 0.0)


@dataclass(frozen=True)
class LemmaDictionary:
    """Best-translation dictionary: source lemma to (target lemma, prob)."""

    entries: dict[str, tuple[str, float]]
    threshold: float = 0.0

    def lookup(self, lemma: str) -> "tuple[str, float] | None":
        return self.entries.get(lemma.lower())


def _lowered(corpus: ParallelCorpus, null_word: bool) -> list[tuple[list[str], list[str]]]:
    extra = [NULL_TOKEN] if null_word else []
    return [
        ([f.lower() for f in src], extra + [e.lower() for e in tgt])
        for src, tgt in corpus.pairs
    ]


def _perplexity(pairs: list[tuple[list[str], list[str]]], probs: dict) -> float:
    """exp of the mean negative log-likelihood per source token under the
    model: P(f | targets) = (1/m) * sum_e t(f|e).  Non-increasing across EM
    iterations."""
    log_total = 0.0
    n_tokens = 0
    for src, tgt in pairs:
        m = len(tgt)
        for f in src:
            mass = sum(probs.get((f, e), 0.0) for e in tgt)
            log_total += math.log(mass / m)
            n_tokens += 1
    return math.exp(-log_total / n_tokens)


def train_model1(
    corpus: ParallelCorpus,
    iterations: int = 5,
    null_word: bool = False,
) -> TranslationTable:
    """Run Model 1 EM for a fixed number of iterations.

    Initialization is uniform over co-occurring pairs.  When ``null_word`` is
    set, a synthetic NULL token is prepended to every target sentence so
    source words without a counterpart can align to it.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot train on an empty corpus")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    pairs = _lowered(corpus, null_word)
    cooc: dict[str, set[str]] = defaultdict(set)  # target word -> source words
    for src, tgt in pairs:
        for e in tgt:
            cooc[e].update(src)
    probs: dict[tuple[str, str], float] = {}
    for e in sorted(cooc):
        uniform = 1.0 / len(cooc[e])
        for f in sorted(cooc[e]):
            probs[(f, e)] = uniform

    history = [_perplexity(pairs, probs)]
    for iteration in range(iterations):
        counts: dict[tuple[str, str], float] = defaultdict(float)
        totals: dict[str, float] = defaultdict(float)
        for src, tgt in pairs:
            for f in src:
                denom = sum(probs.get((f, e), 0.0) for e in tgt)
                for e in tgt:
                    share = probs.get((f, e), 0.0) / denom
                    counts[(f, e)] += share
                    totals[e] += share
        probs = {(f, e): count / totals[e] for (f, e), count in counts.items()}
        history.append(_perplexity(pairs, probs))
        log.debug("model1 iteration %d perplexity %.6f", iteration + 1, history[-1])

    source_vocab = frozenset(f for src, _ in pairs for f in src)
    target_vocab = frozenset(e for e in cooc if e != NULL_TOKEN)
    return TranslationTable(
        probs=probs,
        source_vocab=source_vocab,
        target_vocab=target_vocab,
        iterations_run=iterations,
        final_perplexity=history[-1],
        null_word=null_word,
        perplexity_history=tuple(history),
    )


def extract_dictionary(table: TranslationTable, threshold: float = 0.0) -> LemmaDictionary:
    """For each source word f, the target e maximizing t(f|e), kept when its
    probability reaches the threshold.  Ties break lexicographically on the
    target word; the synthetic NULL token is never a dictionary entry."""
    best: dict[str, tuple[str, float]] = {}
    for (f, e), p in table.probs.items():
        if e == NULL_TOKEN:
            continue
        current = best.get(f)
        if current is None or p > current[1] or (p == current[1] and e < current[0]):
            best[f] = (e, p)
    entries = {
        f: (e, p) for f, (e, p) in sorted(best.items()) if p >= threshold
    }
    return LemmaDictionary(entries=entries, threshold=threshold)


def align_pair(
    source_tokens: "list[str] | tuple[str, ...]",
    target_tokens: "list[str] | tuple[str, ...]",
    table: TranslationTable,
) -> list[tuple[int, int]]:
    """Model 1 Viterbi alignment for one sentence pair.

    Each source token links to the target token maximizing its translation
    probability; ties break to the lowest target index.  A link to the
    synthetic NULL (when the table was trained with one) is reported with
    target index -1, and unseen source tokens fall back to NULL when enabled,
    otherwise to index 0.
    """
    links = []
    targets = [e.lower() for e in target_tokens]
    for i, raw in enumerate(source_tokens):
        f = raw.lower()
        best_j = None
        best_p = 0.0
        for j, e in enumerate(targets):
            p = table.probs.get((f, e), 0.0)
            if p > best_p:
                best_j, best_p = j, p
        null_p = table.probs.get((f, NULL_TOKEN), 0.0) if table.null_word else 0.0
        if best_j is None:
            links.append((i, -1 if table.null_word else 0))
        elif null_p > best_p:
            links.append((i, -1))
        else:
            links.append((i, best_j))
    return links


# --- file formats -------------------------------------------------------------


def dump_translation_table(table: TranslationTable) -> str:
    lines = [
        f"# iterations={table.iterations_run}",
        f"# null_word={'true' if table.null_word else 'false'}",
        f"# final_perplexity={table.final_perplexity!r}",
    ]
    for (f, e), p in sorted(table.probs.items()):
        lines.append(f"{f}\t{e}\t{p!r}")
    return "\n".join(lines) + "\n"


def load_translation_table(text: str) -> TranslationTable:
    probs: dict[tuple[str, str], float] = {}
    iterations = 0
    null_word = False
    perplexity = float("nan")
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            key, sep, value = body.partition("=")
            if sep:
                key = key.strip()
                value = value.strip()
                if key == "iterations":
                    iterations = int(value)
                elif key == "null_word":
                    null_word = value == "true"
                elif key == "final_perplexity":
                    perplexity = float(value)
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise TableParseError("expected source<TAB>target<TAB>prob", line=lineno)
        try:
            probs[(fields[0], fields[1])] = float(fields[2])
        except ValueError as exc:
            raise TableParseError(f"bad probability {fields[2]!r}", line=lineno) from exc
    if not probs:
        raise TableParseError("no probability rows found")
    return TranslationTable(
        probs=probs,
        source_vocab=frozenset(f for f, _ in probs),
        target_vocab=frozenset(e for _, e in probs if e != NULL_TOKEN),
        iterations_run=iterations,
        final_perplexity=perplexity,
        null_word=null_word,
    )


def dump_dictionary(dictionary: LemmaDictionary) -> str:
    lines = [
        f"{f}\t{e}\t{p!r}" for f, (e, p) in sorted(dictionary.entries.items())
    ]
    return "\n".join(lines) + "\n" if lines else ""


def load_dictionary(text: str, threshold: float = 0.0) -> LemmaDictionary:
    """Read a dictionary TSV (``source<TAB>target[<TAB>probability]``); a
    missing probability column defaults to 1.0.  Keys are lowercased.  Entries
    below ``threshold`` are dropped; an empty word or one containing
    whitespace cannot be a gloss morph and is rejected with its line number."""
    entries: dict[str, tuple[str, float]] = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # strip the fields, not the line: a leading tab is an empty source
        fields = [f.strip() for f in raw.rstrip().split("\t")]
        if len(fields) not in (2, 3):
            raise TableParseError(
                "expected source<TAB>target[<TAB>probability]", line=lineno
            )
        prob = 1.0
        if len(fields) == 3:
            try:
                prob = float(fields[2])
            except ValueError as exc:
                raise TableParseError(f"bad probability {fields[2]!r}", line=lineno) from exc
        for word in fields[:2]:
            if word.split() != [word]:  # empty, or contains whitespace
                raise TableParseError(
                    f"dictionary word {word!r} is empty or contains whitespace", line=lineno
                )
        if prob >= threshold:
            entries[fields[0].lower()] = (fields[1], prob)
    return LemmaDictionary(entries=dict(sorted(entries.items())), threshold=threshold)
