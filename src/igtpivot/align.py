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
from dataclasses import dataclass
from typing import Iterator

from .errors import EmptyCorpusError, TableParseError
from .model import is_word, split_lines

log = logging.getLogger(__name__)

NULL_TOKEN = "<NULL>"


def _lowered(source: str, target: str) -> tuple[str, str]:
    """The key of a (source, target) pair in ``TranslationTable.probs``:
    both words lowercased, the NULL token apart."""
    return source.lower(), target if target == NULL_TOKEN else target.lower()


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
        for src_words, tgt_words in zip(map(str.split, src_lines), map(str.split, tgt_lines)):
            if src_words and tgt_words:
                pairs.append((tuple(src_words), tuple(tgt_words)))
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
        return self.probs.get(_lowered(source, target), 0.0)


@dataclass(frozen=True)
class LemmaDictionary:
    """Best-translation dictionary: source lemma to (target lemma, prob)."""

    entries: dict[str, tuple[str, float]]
    threshold: float = 0.0

    def __post_init__(self) -> None:
        for key in self.entries:
            if key != key.lower():
                raise ValueError(
                    f"dictionary key {key!r} is not lowercase; lookup lowercases the lemma"
                )

    def lookup(self, lemma: str) -> "tuple[str, float] | None":
        return self.entries.get(lemma.lower())


def train_model1(
    corpus: ParallelCorpus,
    iterations: int = 5,
    null_word: bool = False,
) -> TranslationTable:
    """Run Model 1 EM for a fixed number of iterations.

    Initialization is uniform over co-occurring pairs.  When ``null_word`` is
    set, a synthetic NULL token is prepended to every target sentence so
    source words without a counterpart can align to it.

    Words are lowercased and interned to ids once; t(f|e) is one ``{e: p}``
    row per source id.  Perplexity (exp of the mean -log(sum_e t(f|e) / m)
    per source token, non-increasing) is summed from the E-step denominators,
    so only the final table needs a pass of its own.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot train on an empty corpus")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    source_ids: dict[str, int] = {}
    target_ids: dict[str, int] = {NULL_TOKEN: 0} if null_word else {}
    null = (0,) if null_word else ()
    pairs = [
        (tuple(source_ids.setdefault(f.lower(), len(source_ids)) for f in src),
         null + tuple(target_ids.setdefault(e.lower(), len(target_ids)) for e in tgt))
        for src, tgt in corpus.pairs
    ]
    cooc: list[set[int]] = [set() for _ in target_ids]  # target id -> source ids
    for src_ids, tgt_ids in pairs:
        for e in tgt_ids:
            cooc[e].update(src_ids)
    rows: list[dict[int, float]] = [{} for _ in source_ids]  # rows[f][e] = t(f|e)
    for e, sources in enumerate(cooc):
        uniform = 1.0 / len(sources)
        for f in sources:
            rows[f][e] = uniform

    n_tokens = sum(len(src_ids) for src_ids, _ in pairs)
    history: list[float] = []
    for iteration in range(iterations + 1):
        # the pass after the last M-step only measures the final table
        counts = [dict.fromkeys(row, 0.0) for row in rows] if iteration < iterations else None
        totals = [0.0] * len(target_ids)
        log_total = 0.0
        for src_ids, tgt_ids in pairs:
            for f in src_ids:
                row = rows[f]
                masses = [row[e] for e in tgt_ids]
                denom = sum(masses)
                log_total += math.log(denom / len(tgt_ids))
                if counts is not None:
                    count = counts[f]
                    for e, p in zip(tgt_ids, masses):
                        share = p / denom
                        count[e] += share
                        totals[e] += share
        history.append(math.exp(-log_total / n_tokens))
        if iteration:
            log.debug("model1 iteration %d perplexity %.6f", iteration, history[-1])
        if counts is not None:
            rows = [{e: c / totals[e] for e, c in count.items()} for count in counts]

    source_words, target_words = list(source_ids), list(target_ids)
    return TranslationTable(
        probs={
            (source_words[f], target_words[e]): p for f, row in enumerate(rows) for e, p in row.items()
        },
        source_vocab=frozenset(source_words),
        target_vocab=frozenset(target_words[len(null):]),
        iterations_run=iterations,
        final_perplexity=history[-1],
        null_word=null_word,
        perplexity_history=tuple(history),
    )


def extract_dictionary(table: TranslationTable, threshold: float = 0.0) -> LemmaDictionary:
    """For each source word f, the target e maximizing t(f|e), kept when its
    probability reaches the threshold.  Ties break lexicographically on the
    target word; the synthetic NULL token is never a dictionary entry.  Keys
    are lowercased, as lookup lowercases the lemma, so the source words of a
    hand-written table that differ only in case share one entry."""
    best: dict[str, tuple[str, float]] = {}
    for (f, e), p in table.probs.items():
        if e == NULL_TOKEN:
            continue
        f = f.lower()
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


def _read_rows(
    text: str, kind: str, usage: str, default_prob: "float | None" = None,
    header: "list[tuple[str, str, int]] | None" = None,
) -> "Iterator[tuple[int, str, str, float]]":
    """``(line, source, target, probability)`` per row of a ttable or
    dictionary.

    A line that starts with ``#`` and has no tab is a comment (a word has no
    whitespace, so a row always has a tab); ``# key=value`` comments are
    appended to ``header`` as ``(key, value, line)``.  Fields are split at
    tabs and stripped, words must pass :func:`is_word`, a probability is a
    number in [0, 1], and a two-field row takes ``default_prob`` unless it
    is None.
    """
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#" and "\t" not in line:
            key, sep, value = line.lstrip("#").partition("=")
            if sep and header is not None:
                header.append((key.strip(), value.strip(), lineno))
            continue
        row = raw.rstrip()
        fields = line.split()
        # a row that is its whitespace-split fields joined by single tabs has
        # non-empty fields without whitespace, so its words need no check
        checked = "\t".join(fields) == row
        if not checked:
            fields = [field.strip() for field in row.split("\t")]
        if len(fields) == 2 and default_prob is not None:
            prob = default_prob
        elif len(fields) == 3:
            try:
                prob = float(fields[2])
            except ValueError as exc:
                raise TableParseError(f"bad probability {fields[2]!r}", line=lineno) from exc
            if not 0.0 <= prob <= 1.0:  # also false for nan
                raise TableParseError(f"probability {fields[2]!r} is not in [0, 1]", line=lineno)
        else:
            raise TableParseError(usage, line=lineno)
        if not checked:
            for word in fields[:2]:
                if not is_word(word):
                    raise TableParseError(
                        f"{kind} word {word!r} is empty or contains whitespace", line=lineno
                    )
        yield lineno, fields[0], fields[1], prob


def dump_translation_table(table: TranslationTable) -> str:
    lines = [
        f"# iterations={table.iterations_run}",
        f"# null_word={'true' if table.null_word else 'false'}",
        f"# final_perplexity={table.final_perplexity!r}",
    ]
    probs = table.probs
    for key in sorted(probs):
        lines.append(f"{key[0]}\t{key[1]}\t{probs[key]!r}")
    return "\n".join(lines) + "\n"


_HEADER_PARSERS = {
    "iterations": int,
    "null_word": {"true": True, "false": False}.__getitem__,
    "final_perplexity": float,
}


def load_translation_table(text: str) -> TranslationTable:
    """Read a dumped ttable.  Words are lowercased as lookup lowercases them,
    the NULL token apart; a pair that repeats an earlier row's lowercased
    pair is rejected with both line numbers."""
    header: list[tuple[str, str, int]] = []
    usage = "expected source<TAB>target<TAB>prob"
    probs: dict[tuple[str, str], float] = {}
    for lineno, f, e, p in _read_rows(text, "table", usage, header=header):
        key = _lowered(f, e)
        if key in probs:
            rows = _read_rows(text, "table", usage)
            first = next(n for n, g, h, _ in rows if _lowered(g, h) == key)
            raise TableParseError(
                f"pair ({key[0]!r}, {key[1]!r}) already given on line {first}", line=lineno
            )
        probs[key] = p
    if not probs:
        raise TableParseError("no probability rows found")
    values = {"iterations": 0, "null_word": False, "final_perplexity": float("nan")}
    for key, value, lineno in header:
        if key in _HEADER_PARSERS:
            try:
                values[key] = _HEADER_PARSERS[key](value)
            except (KeyError, ValueError) as exc:
                raise TableParseError(f"bad {key} value {value!r}", line=lineno) from exc
    return TranslationTable(
        probs=probs,
        source_vocab=frozenset(f for f, _ in probs),
        target_vocab=frozenset(e for _, e in probs if e != NULL_TOKEN),
        iterations_run=values["iterations"],
        final_perplexity=values["final_perplexity"],
        null_word=values["null_word"],
    )


def dump_dictionary(dictionary: LemmaDictionary) -> str:
    lines = [
        f"{f}\t{e}\t{p!r}" for f, (e, p) in sorted(dictionary.entries.items())
    ]
    return "\n".join(lines) + "\n" if lines else ""


def load_dictionary(text: str, threshold: float = 0.0) -> LemmaDictionary:
    """Read a dictionary TSV (``source<TAB>target[<TAB>probability]``); a
    missing probability column defaults to 1.0.  Keys are lowercased.  Entries
    below ``threshold`` are dropped; a row breaking the rules of
    :func:`_read_rows`, or whose lowercased source an earlier row had, is
    rejected with its line number."""
    usage = "expected source<TAB>target[<TAB>probability]"
    entries: dict[str, tuple[str, float]] = {}
    for lineno, f, e, p in _read_rows(text, "dictionary", usage, default_prob=1.0):
        key = f.lower()
        if key in entries:
            rows = _read_rows(text, "dictionary", usage, default_prob=1.0)
            first = next(n for n, g, _, _ in rows if g.lower() == key)
            raise TableParseError(
                f"source {f!r} (lowercased) already given on line {first}", line=lineno
            )
        entries[key] = (e, p)
    kept = {f: hit for f, hit in sorted(entries.items()) if hit[1] >= threshold}
    return LemmaDictionary(entries=kept, threshold=threshold)
