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
processed in a fixed order, so training is bit-reproducible under one
CPython version.  Across versions it need not be: since 3.12, ``sum()`` of
floats uses compensated summation, and the E-step denominator is
``sum(masses)``, so a table trained under 3.11 and one trained under 3.12
or later can differ in the last digits of their probabilities.

The dictionary is one fold over ``((f, e), t(f|e))`` items, a trained
table's ``probs`` or a ttable's rows as they are read, that holds only each
source word's best target.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter, truediv
from typing import Callable, Iterable, Iterator

from .errors import (
    SKIPPED_PAIR,
    BadArgumentError,
    BadThresholdError,
    EmptyCorpusError,
    EmptyLineError,
    LengthMismatchError,
    ParseWarning,
    TableParseError,
)
from .model import is_word, split_lines


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
                raise EmptyLineError(f"pair {i} has an empty sentence")

    @classmethod
    def from_texts(cls, source_text: str, target_text: str) -> "ParallelCorpus":
        """Build from two parallel files (one sentence per line).  Lines that
        are blank on either side are dropped as a pair.  Equal words share
        one ``str``."""
        return cls(pairs=tuple(_sentence_pairs(source_text, target_text, lambda warning: None)))


def _sentence_pairs(
    source_text: str, target_text: str, warn: Callable[[ParseWarning], None]
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The pairs of :meth:`ParallelCorpus.from_texts`, one at a time; a line
    blank on one side only is passed to ``warn`` as a ``SKIPPED_PAIR``
    warning."""
    src_lines = split_lines(source_text)
    tgt_lines = split_lines(target_text)
    if len(src_lines) != len(tgt_lines):
        raise LengthMismatchError(
            f"parallel files differ in length: {len(src_lines)} vs {len(tgt_lines)}"
        )
    share = {}.setdefault  # the first str of each word
    for lineno, (src_words, tgt_words) in enumerate(
        zip(map(str.split, src_lines), map(str.split, tgt_lines)), start=1
    ):
        if src_words and tgt_words:
            yield (tuple(map(share, src_words, src_words)),
                   tuple(map(share, tgt_words, tgt_words)))
        elif src_words or tgt_words:
            blank, dropped = ("target", "source") if src_words else ("source", "target")
            warn(ParseWarning(
                SKIPPED_PAIR, f"blank {blank} line; its {dropped} line is dropped", line=lineno
            ))


@dataclass(frozen=True)
class TranslationTable:
    """Trained lexical translation probabilities (lowercased tokens)."""

    probs: dict[tuple[str, str], float]
    iterations_run: int
    final_perplexity: float
    null_word: bool = False
    perplexity_history: tuple[float, ...] = ()

    @cached_property
    def source_vocab(self) -> frozenset[str]:
        """The source words of ``probs``."""
        return frozenset(f for f, _ in self.probs)

    @cached_property
    def target_vocab(self) -> frozenset[str]:
        """The target words of ``probs``, the NULL token apart."""
        return frozenset(e for _, e in self.probs if e != NULL_TOKEN)

    def prob(self, source: str, target: str) -> float:
        return self.probs.get(_lowered(source, target), 0.0)


@dataclass(frozen=True)
class LemmaDictionary:
    """Best-translation dictionary: source lemma to (target lemma, prob)."""

    entries: dict[str, tuple[str, float]]

    def __post_init__(self) -> None:
        for key in self.entries:
            if key != key.lower():
                raise BadArgumentError(
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

    Words are lowercased, and target words interned to ids.  A link is a
    distinct co-occurring (source word, target id) pair, numbered once:
    t(f|e), the expected counts and each link's target id are flat lists
    indexed by link, and each sentence pair is one ``array`` of link ids,
    a row per source token of one link per target token (NULL included).
    The E-step adds every share in the order of the textbook loops (pairs,
    source tokens, target tokens), so each float operation is the
    reference's, in its order.  ``probs`` is built in (source word, target
    word) order, so it iterates in key order and its dump's sort runs over
    sorted keys.
    Perplexity (exp of the mean -log(sum_e t(f|e) / m) per source token,
    non-increasing) is summed from the E-step denominators, so only the
    final table needs a pass of its own.
    """
    if iterations < 1:
        raise BadArgumentError(f"iterations must be >= 1, got {iterations}")
    return _train_model1(corpus.pairs, iterations, null_word)


def _train_model1(
    pairs: Iterable[tuple[tuple[str, ...], tuple[str, ...]]], iterations: int, null_word: bool
) -> TranslationTable:
    """:func:`train_model1` on ``pairs``, read once, by the link build; the
    CLI passes them as :func:`_sentence_pairs` makes them, so no pair is
    held while EM runs."""
    # imported by their only user, so that the commands that only read a
    # dictionary do not pay for them
    import logging
    from array import array

    log = logging.getLogger(__name__)

    target_ids: dict[str, int] = {NULL_TOKEN: 0} if null_word else {}
    null = (0,) if null_word else ()
    # links are numbered as first met; row_links[f][e] is the link of (f, e)
    row_links: defaultdict[str, dict[int, int]] = defaultdict(dict)
    link_target: list[int] = []
    pair_links: list[array] = []  # each pair's links, a row of len(tgt_ids) per source token
    widths: list[int] = []
    n_tokens = 0
    for src, tgt in pairs:
        n_tokens += len(src)
        tgt_ids = null + tuple(target_ids.setdefault(e.lower(), len(target_ids)) for e in tgt)
        tgt_set = set(tgt_ids)
        links = array("I")
        for f in map(str.lower, src):
            row = row_links[f]
            for e in tgt_set.difference(row):
                row[e] = len(link_target)
                link_target.append(e)
            links.extend(map(row.__getitem__, tgt_ids))
        pair_links.append(links)
        widths.append(len(tgt_ids))
    if not widths:
        raise EmptyCorpusError("cannot train on an empty corpus")
    # the links in (source word, target word) order, in which probs is built
    target_words = list(target_ids)
    rank = [0] * len(target_words)
    for position, e in enumerate(sorted(range(len(target_words)), key=target_words.__getitem__)):
        rank[e] = position
    order = array("I")
    sources: list[str] = []  # the source word of each link in order
    for f in sorted(row_links):
        row = row_links[f]
        order.extend(map(row.__getitem__, sorted(row, key=rank.__getitem__)))
        sources += repeat(f, len(row))
    del row_links

    n_sources = [0] * len(target_ids)
    for e in link_target:
        n_sources[e] += 1
    t = list(map([1.0 / n for n in n_sources].__getitem__, link_target))  # t[link] = t(f|e)

    history: list[float] = []
    for iteration in range(iterations + 1):
        # the pass after the last M-step only measures the final table
        counts = [0.0] * len(t) if iteration < iterations else None
        totals = [0.0] * len(target_ids)
        log_total = 0.0
        for links, width in zip(pair_links, widths):
            masses = itemgetter(*links)(t)
            if len(links) == 1:  # an itemgetter of one index returns the item itself
                masses = (masses,)
            link_iter = iter(links)
            for start in range(0, len(masses), width):
                row = masses[start:start + width]
                denom = sum(row)
                log_total += math.log(denom / width)
                if counts is not None:
                    # row first: zip stops at its end before taking a link
                    for p, link in zip(row, link_iter):
                        share = p / denom
                        counts[link] += share
                        totals[link_target[link]] += share
        history.append(math.exp(-log_total / n_tokens))
        if iteration:
            log.debug("model1 iteration %d perplexity %.6f", iteration, history[-1])
        if counts is not None:
            t = list(map(truediv, counts, map(totals.__getitem__, link_target)))

    return TranslationTable(
        probs=dict(zip(
            zip(sources, map(target_words.__getitem__, map(link_target.__getitem__, order))),
            map(t.__getitem__, order),
        )),
        iterations_run=iterations,
        final_perplexity=history[-1],
        null_word=null_word,
        perplexity_history=tuple(history),
    )


def extract_dictionary(table: TranslationTable, threshold: float = 0.0) -> LemmaDictionary:
    """For each source word f, the target e maximizing t(f|e), kept when its
    probability reaches the threshold: :func:`_best_targets` of the table's
    probabilities.  Keys are lowercased, as lookup lowercases the lemma, so
    the source words of a hand-written table that differ only in case share
    one entry.  A nan threshold, which no probability reaches, raises
    :class:`~igtpivot.errors.BadThresholdError`."""
    return _kept(_best_targets(table.probs.items()), threshold)


def _best_targets(items: Iterable[tuple[tuple[str, str], float]]) -> dict[str, tuple[str, float]]:
    """For each lowercased source word f of ``((f, e), t(f|e))`` items, read
    once, the first target e of the highest probability, a tie going to the
    smaller target; the synthetic NULL token is never a target."""
    best: dict[str, tuple[str, float]] = {}
    for (f, e), p in items:
        if e == NULL_TOKEN:
            continue
        f = f.lower()
        current = best.get(f)
        if current is None or p > current[1] or (p == current[1] and e < current[0]):
            best[f] = (e, p)
    return best


def _kept(best: dict[str, tuple[str, float]], threshold: float) -> LemmaDictionary:
    """The dictionary of the entries of ``best`` that reach ``threshold``."""
    if math.isnan(threshold):
        raise BadThresholdError("threshold is nan, which no probability reaches")
    return LemmaDictionary({f: hit for f, hit in sorted(best.items()) if hit[1] >= threshold})


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
    lines: Iterable[str], kind: str, usage: str, default_prob: "float | None" = None,
    header: "list[tuple[str, str, int]] | None" = None,
) -> "Iterator[tuple[int, str, str, float]]":
    """``(line, source, target, probability)`` per row of a ttable or
    dictionary, read from its ``lines`` (as :func:`split_lines` gives them)
    one at a time.

    A line that starts with ``#`` and has no tab is a comment (a word has no
    whitespace, so a row always has a tab); ``# key=value`` comments are
    appended to ``header`` as ``(key, value, line)``.  Fields are split at
    tabs and stripped, words must pass :func:`is_word`, a probability is a
    number in [0, 1], and a two-field row takes ``default_prob`` unless it
    is None.
    """
    for lineno, raw in enumerate(lines, start=1):
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


_TABLE_USAGE = "expected source<TAB>target<TAB>prob"

_HEADER_PARSERS = {
    "iterations": int,
    "null_word": {"true": True, "false": False}.__getitem__,
    "final_perplexity": float,
}


def _table_rows(lines: Iterable[str], values: dict) -> Iterator[tuple[int, tuple[str, str], float]]:
    """``(line, (f, e), t(f|e))`` per row of the ttable of ``lines``.  Words
    are lowercased as lookup lowercases them, the NULL token apart.  After
    the last row, a table without rows or with a bad header value is
    rejected, and ``values`` is given the header values, unknown names
    ignored.  A repeated pair is for the caller to find, and
    :func:`_reject_repeat` to confirm."""
    header: list[tuple[str, str, int]] = []
    lineno = 0
    for lineno, f, e, p in _read_rows(lines, "table", _TABLE_USAGE, header=header):
        yield lineno, _lowered(f, e), p
    if not lineno:
        raise TableParseError("no probability rows found")
    values.update(iterations=0, null_word=False, final_perplexity=float("nan"))
    for name, value, line in header:  # the last value of a name counts
        if name in _HEADER_PARSERS:
            try:
                values[name] = _HEADER_PARSERS[name](value)
            except (KeyError, ValueError) as exc:
                raise TableParseError(f"bad {name} value {value!r}", line=line) from exc


def _reject_repeat(lines: Callable[[], Iterable[str]], key: tuple[str, str], lineno: int) -> None:
    """Reject row ``lineno``, of pair ``key``, if an earlier row of the
    ttable (read anew from ``lines()``) gave that pair, naming both lines."""
    rows = _read_rows(lines(), "table", _TABLE_USAGE)
    first = next(n for n, f, e, _ in rows if _lowered(f, e) == key)
    if first < lineno:
        raise TableParseError(
            f"pair ({key[0]!r}, {key[1]!r}) already given on line {first}", line=lineno
        )


def load_translation_table(text: str) -> TranslationTable:
    """Read a dumped ttable by the rules of :func:`_table_rows`; a pair that
    repeats an earlier row's is rejected with both line numbers."""
    values: dict = {}
    lines = split_lines(text).__iter__
    probs: dict[tuple[str, str], float] = {}
    for lineno, key, p in _table_rows(lines(), values):
        if key in probs:
            _reject_repeat(lines, key, lineno)
        probs[key] = p
    return TranslationTable(
        probs=probs,
        iterations_run=values["iterations"],
        final_perplexity=values["final_perplexity"],
        null_word=values["null_word"],
    )


def _table_dictionary(lines: Callable[[], Iterable[str]], threshold: float) -> LemmaDictionary:
    """``extract_dictionary(load_translation_table(text), threshold)`` for the
    ttable whose lines ``lines()`` gives: each row is folded in as
    :func:`_table_rows` reads it, so only each source word's best target and
    a hash of each pair are held; a hash met again is confirmed by
    :func:`_reject_repeat`."""
    seen: set[int] = set()

    def rows() -> Iterator[tuple[tuple[str, str], float]]:
        for lineno, key, p in _table_rows(lines(), {}):
            digest = hash(key)
            if digest in seen:  # a repeated pair, or two pairs of one hash
                _reject_repeat(lines, key, lineno)
            seen.add(digest)
            yield key, p

    return _kept(_best_targets(rows()), threshold)


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
    lines = split_lines(text)
    entries: dict[str, tuple[str, float]] = {}
    for lineno, f, e, p in _read_rows(lines, "dictionary", usage, default_prob=1.0):
        key = f.lower()
        if key in entries:
            rows = _read_rows(lines, "dictionary", usage, default_prob=1.0)
            first = next(n for n, g, _, _ in rows if g.lower() == key)
            raise TableParseError(
                f"source {f!r} (lowercased) already given on line {first}", line=lineno
            )
        entries[key] = (e, p)
    return _kept(entries, threshold)
