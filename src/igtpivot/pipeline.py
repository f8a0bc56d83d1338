"""The gloss-pivot translation pipeline and multilingual corpus preparation.

Stages: analyzer output -> gloss with source lemmas -> gloss with target
lemmas (dictionary substitution) -> target text (a pluggable translator).
The final stage is an interface: an external command speaking a
line-per-sentence protocol, a dependency-free label-stripping baseline, or
an identity echo for plumbing tests.
"""

from __future__ import annotations

import marshal
import os
import shlex
import signal
import subprocess
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Callable, Iterable, Iterator

from .align import LemmaDictionary
from .errors import (
    SKIPPED_RECORD,
    IgtError,
    ParseWarning,
    PipelineStageError,
    TranslatorCountMismatchError,
    TranslatorSpawnFailureError,
    TranslatorTimeoutError,
)
from .model import (
    GlossLine,
    GlossMorph,
    GlossToken,
    IgtRecord,
    Joiner,
    LemmaSide,
    MorphKind,
    has_delimiter,
    is_punct,
    split_lines,
)
from .normalize import NormalizationTable, _analyzer_to_gloss
from .parsing import parse_analyzer_line, tokenize_gloss

OOV_OPEN = "⟦"   # white square bracket used by KEEP_MARKED
OOV_CLOSE = "⟧"


class OovPolicy(Enum):
    """What to do with a source lemma absent from the dictionary."""

    KEEP = "keep"
    KEEP_MARKED = "mark"
    DROP = "drop"


class TranslatorKind(Enum):
    EXTERNAL = "external"
    BASELINE_DETOKENIZE = "baseline"
    IDENTITY = "identity"


@dataclass(frozen=True)
class TranslatorHandle:
    """A gloss-to-target translator behind the line protocol."""

    kind: TranslatorKind
    command: str | None = None
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.kind is TranslatorKind.EXTERNAL and not (self.command or "").strip():
            raise ValueError("EXTERNAL translator requires a non-empty command")


@dataclass(frozen=True)
class SentenceTrace:
    """Audit record of one sentence's intermediate forms."""

    analyzer: str
    gloss_src: str
    gloss_tgt: str
    target: str | None = None


@dataclass
class PipelineReport:
    """Per-stage counters plus retained per-sentence intermediates."""

    n_sentences: int = 0
    analyzer_tokens: int = 0
    gloss_src_tokens: int = 0
    gloss_tgt_tokens: int = 0
    oov_lemmas: int = 0
    unknown_labels: int = 0
    sentences: list[SentenceTrace] = field(default_factory=list)


def _substitute_token(
    token: GlossToken, dictionary: LemmaDictionary, policy: OovPolicy, missing: list[str]
) -> GlossToken:
    morphs: list[GlossMorph] = []
    kept = 0  # morphs passed through as they are
    for morph in token.morphs:
        if morph.kind is not MorphKind.LEMMA or is_punct(morph.text):
            morphs.append(morph)
            kept += 1
            continue
        hit = dictionary.lookup(morph.text)
        if hit is not None:
            target = hit[0]
            if morph.text[:1].isupper():
                target = target[:1].upper() + target[1:]
            morphs.append(
                GlossMorph(MorphKind.LEMMA, target, morph.joiner, opaque=has_delimiter(target))
            )
            continue
        missing.append(morph.text)
        if policy is OovPolicy.KEEP:
            morphs.append(morph)
            kept += 1
        elif policy is OovPolicy.KEEP_MARKED:
            marked = f"{OOV_OPEN}{morph.text}{OOV_CLOSE}"
            morphs.append(
                GlossMorph(MorphKind.LEMMA, marked, morph.joiner, opaque=morph.opaque)
            )
        else:  # DROP: keep the labels; keep the lemma only if nothing would remain
            continue
    if kept == len(token.morphs):
        return token  # nothing replaced, marked or dropped: the token is its own image
    if not morphs:
        return token  # bare OOV lemma under DROP: dropping it would empty the token
    if morphs[0].joiner is not Joiner.WORD_INITIAL:
        first = morphs[0]
        morphs[0] = GlossMorph(first.kind, first.text, Joiner.WORD_INITIAL, first.opaque)
    return GlossToken(tuple(morphs))


def _substitute(
    gloss: GlossLine, dictionary: LemmaDictionary, oov_policy: OovPolicy
) -> tuple[GlossLine, list[str]]:
    """The target-lemma gloss and the lemmas the dictionary lacked, from one
    lookup per non-punctuation lemma."""
    missing: list[str] = []
    # a list, not a generator: tuple(generator) starts at 10 slots and resizes,
    # which fills CPython's free lists of the other tuple sizes over a long run
    tokens = [_substitute_token(token, dictionary, oov_policy, missing) for token in gloss.tokens]
    return GlossLine(tokens=tuple(tokens), lemma_side=LemmaSide.TARGET), missing


def substitute_lemmas(
    gloss: GlossLine,
    dictionary: LemmaDictionary,
    oov_policy: OovPolicy = OovPolicy.KEEP,
) -> GlossLine:
    """Replace every lemma by its dictionary translation.

    Lookup is case-folded and title case is re-applied (``Kadin`` becomes
    ``Woman`` when the dictionary maps ``kadin`` to ``woman``).  Labels and
    punctuation are never touched and the token count is preserved.  Lemmas
    missing from the dictionary follow ``oov_policy``.
    """
    return _substitute(gloss, dictionary, oov_policy)[0]


def oov_lemmas(gloss: GlossLine, dictionary: LemmaDictionary) -> list[str]:
    """Non-punctuation lemmas with no dictionary entry."""
    return _substitute(gloss, dictionary, OovPolicy.KEEP)[1]


def prepare_multilingual(
    records: "Iterable[IgtRecord]",
    split_morphs: bool = False,
) -> tuple[list[tuple[str, str]], list[ParseWarning]]:
    """Build language-tagged training pairs for gloss-to-target translation.

    The source line is the record's language tag followed by the spaced
    rendering of its target-lemma gloss (``blu 3SG always praise 3SG .``);
    the target line is the free translation.  Records missing either field
    are skipped with a warning; input order is preserved.
    """
    warnings: list[ParseWarning] = []
    return list(_training_pairs(records, split_morphs, warnings.append)), warnings


def _training_pairs(
    records: "Iterable[IgtRecord]", split_morphs: bool, warn: Callable[[ParseWarning], None]
) -> Iterator[tuple[str, str]]:
    """:func:`prepare_multilingual`'s pairs one record at a time, each
    skipped record's warning passed to ``warn`` as it is met."""
    for record in records:
        if record.gloss_tgt is None or record.target_text is None:
            warn(
                ParseWarning(
                    SKIPPED_RECORD,
                    f"record {record.id or '<unnamed>'} lacks gloss_tgt or target_text",
                )
            )
            continue
        yield f"{record.lang.code} {record.gloss_tgt.render_spaced(split_morphs)}", record.target_text


def baseline_detokenize(
    line: str, label_registry: "frozenset[str] | set[str] | None" = None
) -> str:
    """Crude gloss-to-English baseline: strip all labels, turn underscores
    into spaces, capitalize the first character, keep punctuation tokens."""
    return _strip_labels(tokenize_gloss(line, label_registry=label_registry))


def _strip_labels(gloss: GlossLine) -> str:
    """:func:`baseline_detokenize` of a gloss that is already tokenized, so
    each morph keeps the kind the stage that made it gave it."""
    words: list[str] = []
    for token in gloss.tokens:
        if token.is_punctuation:
            words.append(token.render())
            continue
        lemmas = [m for m in token.morphs if m.kind is MorphKind.LEMMA]
        if lemmas:
            rendered = lemmas[0].text + "".join(m.joiner._value_ + m.text for m in lemmas[1:])
            words.append(rendered.replace("_", " "))
    sentence = " ".join(words)
    return sentence[:1].upper() + sentence[1:]


def _spool() -> IO[str]:
    r"""An anonymous temporary file of UTF-8 text that keeps ``\r`` as it is
    and splits lines at ``\n`` only."""
    return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")


def _run_external(payload: IO[str], n_lines: int, translator: TranslatorHandle) -> IO[str]:
    r"""Run the translator once with ``payload``, a spool of ``n_lines``
    ``\n``-ended lines, as its stdin.  Return its stdout, checked to hold as
    many lines, as a text file at offset 0 for the caller to close.

    stdin, stdout and stderr are anonymous temporary files, so the data never
    sits in memory.  The output is read as a text-mode pipe would be: ``\r``
    and ``\r\n`` end a line too.
    """
    payload.seek(0)
    stdout = tempfile.TemporaryFile("w+", encoding="utf-8")
    try:
        with tempfile.TemporaryFile("w+", encoding="utf-8") as stderr:
            try:
                argv = shlex.split(translator.command or "")
                proc = subprocess.Popen(
                    argv,
                    stdin=payload,
                    stdout=stdout,
                    stderr=stderr,
                    start_new_session=True,  # own process group, killed as one on timeout
                )
            except (OSError, ValueError) as exc:
                raise TranslatorSpawnFailureError(
                    f"could not spawn translator {translator.command!r}: {exc}"
                ) from exc
            try:
                proc.wait(timeout=translator.timeout)
            except subprocess.TimeoutExpired as exc:
                # the whole group: a child of the translator may still be running
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise TranslatorTimeoutError(
                    f"translator exceeded {translator.timeout} s"
                ) from exc
            if proc.returncode != 0:
                stderr.seek(0)
                raise TranslatorSpawnFailureError(
                    f"translator exited with status {proc.returncode}: "
                    f"{stderr.read().strip()[:200]}"
                )
        stdout.seek(0)
        n_outputs = sum(1 for _ in stdout)
        if n_outputs != n_lines:
            raise TranslatorCountMismatchError(
                f"translator returned {n_outputs} line(s) for {n_lines} input(s)"
            )
        stdout.seek(0)
        return stdout
    except BaseException:
        stdout.close()
        raise


def _chomp(line: str) -> str:
    return line[:-1] if line.endswith("\n") else line


def translate(lines: "list[str] | tuple[str, ...]", translator: TranslatorHandle) -> list[str]:
    """Translate rendered gloss lines, one output line per input line.

    The operation is atomic: on any failure no partial results are returned.
    """
    lines = list(lines)
    if translator.kind is TranslatorKind.IDENTITY:
        return lines
    if translator.kind is TranslatorKind.BASELINE_DETOKENIZE:
        return [baseline_detokenize(line) for line in lines]
    with _spool() as payload:
        for line in lines:
            payload.write(line + "\n")
        with _run_external(payload, len(lines), translator) as outputs:
            return [_chomp(line) for line in outputs]


def _stages(
    lines: Iterable[str],
    table: NormalizationTable,
    dictionary: LemmaDictionary,
    oov_policy: OovPolicy,
    report: PipelineReport,
) -> Iterator[tuple[str, GlossLine, GlossLine]]:
    """``(analyzer line, source gloss, target gloss)`` per non-blank line,
    whose counts are added to ``report`` before it is yielded."""
    for line in lines:
        if not line.strip():
            continue
        stage = "parse-analyzer"
        try:
            tokens = parse_analyzer_line(line)
            stage = "analyzer-to-gloss"
            gloss_src, unknown = _analyzer_to_gloss(tokens, table)
            stage = "substitute"
            gloss_tgt, missing = _substitute(gloss_src, dictionary, oov_policy)
        except (IgtError, ValueError) as exc:
            raise PipelineStageError(stage, exc) from exc

        report.n_sentences += 1
        report.analyzer_tokens += len(tokens)
        report.gloss_src_tokens += len(gloss_src.tokens)
        report.gloss_tgt_tokens += len(gloss_tgt.tokens)
        report.unknown_labels += len(unknown)
        report.oov_lemmas += len(missing)
        yield line, gloss_src, gloss_tgt


def _translate_externally(
    stages: Iterator[tuple[str, GlossLine, GlossLine]],
    translator: TranslatorHandle,
    split_morphs: bool,
) -> Iterator[SentenceTrace]:
    """One translator process for every sentence.  The rendered stages wait
    in a spool (marshalled, since a library caller's line may hold any
    character) until the translator has succeeded."""
    with tempfile.TemporaryFile() as rows, _spool() as payload:
        n_lines = 0
        for line, gloss_src, gloss_tgt in stages:
            marshal.dump((line, gloss_src.render(), gloss_tgt.render()), rows)
            payload.write(gloss_tgt.render_spaced(split_morphs) + "\n")
            n_lines += 1
        try:
            outputs = _run_external(payload, n_lines, translator)
        except IgtError as exc:
            raise PipelineStageError("translate", exc) from exc
        rows.seek(0)
        with outputs:
            for target in outputs:
                yield SentenceTrace(*marshal.load(rows), _chomp(target))


def iter_pipeline(
    lines: Iterable[str],
    table: NormalizationTable,
    dictionary: LemmaDictionary,
    translator: TranslatorHandle,
    oov_policy: OovPolicy = OovPolicy.KEEP,
    split_morphs: bool = False,
    report: "PipelineReport | None" = None,
) -> Iterator[SentenceTrace]:
    """Run the full sequence over analyzer lines (one sentence per line),
    yielding each sentence's :class:`SentenceTrace`, target included, and
    adding its counts to ``report``.

    Blank lines are skipped.  Stage errors propagate wrapped with the stage
    name.  The baseline and identity translators hold nothing past the
    current sentence.  An external translator runs once for all sentences,
    fed through anonymous temporary files, so nothing is yielded until it
    has succeeded.  ``report.sentences`` is left as it is.
    """
    if report is None:
        report = PipelineReport()
    stages = _stages(lines, table, dictionary, oov_policy, report)
    if translator.kind is TranslatorKind.EXTERNAL:
        yield from _translate_externally(stages, translator, split_morphs)
        return
    baseline = translator.kind is TranslatorKind.BASELINE_DETOKENIZE
    for line, gloss_src, gloss_tgt in stages:
        target = _strip_labels(gloss_tgt) if baseline else gloss_tgt.render_spaced(split_morphs)
        yield SentenceTrace(line, gloss_src.render(), gloss_tgt.render(), target)


def run_pipeline(
    analyzer_text: str,
    table: NormalizationTable,
    dictionary: LemmaDictionary,
    translator: TranslatorHandle,
    oov_policy: OovPolicy = OovPolicy.KEEP,
    split_morphs: bool = False,
) -> tuple[list[str], PipelineReport]:
    """:func:`iter_pipeline` over analyzer output (one sentence per line),
    with every intermediate line retained in the report, so the per-stage
    progression of each sentence can be audited or printed."""
    report = PipelineReport()
    report.sentences = list(
        iter_pipeline(
            split_lines(analyzer_text), table, dictionary, translator,
            oov_policy, split_morphs, report,
        )
    )
    return [trace.target for trace in report.sentences], report


def format_report_header(report: PipelineReport) -> str:
    """The report's key-value summary, one counter per line."""
    return (
        f"n_sentences={report.n_sentences}\n"
        f"analyzer_tokens={report.analyzer_tokens}\n"
        f"gloss_src_tokens={report.gloss_src_tokens}\n"
        f"gloss_tgt_tokens={report.gloss_tgt_tokens}\n"
        f"oov_lemmas={report.oov_lemmas}\n"
        f"unknown_labels={report.unknown_labels}\n"
    )


def format_report_sentence(index: int, trace: SentenceTrace) -> str:
    """The four-line block (three without a target) of sentence ``index``."""
    target = "" if trace.target is None else f"target:    {trace.target}\n"
    return (
        f"--- sentence {index}\n"
        f"analyzer:  {trace.analyzer}\n"
        f"gloss_src: {trace.gloss_src}\n"
        f"gloss_tgt: {trace.gloss_tgt}\n"
        f"{target}"
    )


def format_report(report: PipelineReport) -> str:
    """Key-value summary plus one four-line block per sentence."""
    return format_report_header(report) + "".join(
        format_report_sentence(i, trace) for i, trace in enumerate(report.sentences, start=1)
    )
