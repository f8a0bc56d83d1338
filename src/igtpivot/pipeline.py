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
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadTranslatorError,
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
    MorphKind,
    OovPolicy,
    _check_morph_text,
    _Memo,
    _spool,
    decode_lines,
    is_punct,
    join_tokens,
    split_lines,
)
from .normalize import NormalizationTable, _normalized, _Piece, _tail, default_label_registry
from .parsing import (
    _analyzer_words, _gloss_words, _segment_morph, _skipped, _tail_morphs, tokenize_gloss,
)

if TYPE_CHECKING:  # a dictionary is only passed in: parse-analyzer need not load align
    from .align import LemmaDictionary

OOV_OPEN = "⟦"   # white square bracket used by KEEP_MARKED
OOV_CLOSE = "⟧"
_OUTPUT = "translator output"  # how a BAD_ENCODING error names it


class TranslatorKind(Enum):
    EXTERNAL = "external"
    BASELINE_DETOKENIZE = "baseline"
    IDENTITY = "identity"


@dataclass(frozen=True)
class TranslatorHandle:
    """A gloss-to-target translator behind the line protocol."""

    kind: TranslatorKind
    command: str | None = None
    timeout: float | None = None  # seconds an external translator may run; 60 when None

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:  # nan too, which would wait forever
            raise BadTranslatorError(f"timeout must be positive seconds, got {self.timeout}")
        if self.kind is TranslatorKind.EXTERNAL:
            if not (self.command or "").strip():
                raise BadTranslatorError("EXTERNAL translator requires a non-empty command")
            object.__setattr__(self, "timeout", self.timeout or 60.0)  # frozen: set once here
        elif self.command is not None or self.timeout is not None:
            got = repr(self.command) if self.command is not None else f"timeout {self.timeout}"
            raise BadTranslatorError(f"the {self.kind.value} translator runs no command, got {got}")


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


def _substituted(morphs: "Iterable[GlossMorph]", target: "_Memo") -> list[GlossMorph]:
    """``morphs`` with each lemma made ``target[lemma].head``, or removed for ``None``."""
    substituted: list[GlossMorph] = []
    for morph in morphs:
        if morph.kind is MorphKind.LEMMA:
            head = target[morph.text].head
            if head is None:
                continue
            if head.text != morph.text:
                morph = GlossMorph(MorphKind.LEMMA, head.text, morph.joiner)
        substituted.append(morph)
    return substituted


def _substitute_token(token: GlossToken, target: "_Memo") -> GlossToken:
    """``token`` with its morphs :func:`_substituted`, the first one left
    made word-initial; ``token`` itself when nothing changed or every morph
    was dropped (a bare OOV lemma under DROP would leave no token)."""
    morphs = _substituted(token.morphs, target)
    if not morphs or tuple(morphs) == token.morphs:
        return token
    first = morphs[0]
    if first.joiner is not Joiner.WORD_INITIAL:
        morphs[0] = GlossMorph(first.kind, first.text, Joiner.WORD_INITIAL)
    return GlossToken(tuple(morphs))


def substitute_lemmas(
    gloss: GlossLine,
    dictionary: LemmaDictionary,
    oov_policy: OovPolicy = OovPolicy.KEEP,
) -> GlossLine:
    """Replace every lemma by its dictionary translation.

    Lookup is case-folded and title case is re-applied (``Kadin`` becomes
    ``Woman`` when the dictionary maps ``kadin`` to ``woman``).  Labels and
    punctuation are never touched and the token count is preserved.  Lemmas
    missing from the dictionary follow ``oov_policy``.  Each distinct lemma
    is looked up once per call.
    """
    target = _Memo(_target, dictionary, oov_policy)
    # a list, not a generator: tuple(generator) starts at 10 slots and resizes,
    # which fills CPython's free lists of the other tuple sizes over a long run
    return GlossLine(tokens=tuple([_substitute_token(token, target) for token in gloss.tokens]))


def oov_lemmas(gloss: GlossLine, dictionary: LemmaDictionary) -> list[str]:
    """Non-punctuation lemmas with no dictionary entry."""
    target = _Memo(_target, dictionary, OovPolicy.KEEP)
    lemmas = (m.text for token in gloss.tokens for m in token.morphs if m.kind is MorphKind.LEMMA)
    return [lemma for lemma in lemmas if target[lemma].missed]


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
            warn(_skipped(record.id))
            continue
        yield f"{record.lang.code} {record.gloss_tgt.render_spaced(split_morphs)}", record.target_text


def baseline_detokenize(line: str) -> str:
    """Crude gloss-to-English baseline: strip all labels, turn underscores
    into spaces, capitalize the first character, keep punctuation tokens.

    ``line`` is text, so each morph's kind is read from its spelling, as
    :func:`tokenize_gloss` reads it: an upper-case lemma such as ``ABD`` is
    stripped as a label.  ``igt pivot`` keeps the kind each stage gave a
    morph instead, so where this gives ``Come .`` for ``ABD.3.SG
    come-PST.3.SG.``, the pivot of ``ABD+Prop+A3sg gel+Past+A3sg.`` gives
    ``ABD come .``."""
    words: list[str] = []
    for token in tokenize_gloss(line).tokens:
        if token.is_punctuation:
            words.append(token.render())
            continue
        lemmas = [m for m in token.morphs if m.kind is MorphKind.LEMMA]
        if lemmas:
            rendered = lemmas[0].text + "".join(m.joiner._value_ + m.text for m in lemmas[1:])
            words.append(rendered.replace("_", " "))
    sentence = " ".join(words)
    return sentence[:1].upper() + sentence[1:]


def _run_external(payload: IO[str], n_lines: int, translator: TranslatorHandle) -> IO[bytes]:
    r"""Run the translator once with ``payload``, a spool of ``n_lines``
    ``\n``-ended lines, as its stdin.  Return its stdout, checked to hold as
    many lines, as a binary file at offset 0 for the caller to close.

    stdin, stdout and stderr are temporary files, so the data never sits in
    memory, and the output is read as every input is (``decode_lines``).
    """
    # imported by their only user, so that no other command pays for them
    import shlex
    import signal
    import subprocess

    payload.seek(0)
    stdout = tempfile.TemporaryFile()
    try:
        # binary: a message that is not UTF-8 is still reported, escaped
        with tempfile.TemporaryFile() as stderr:
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
                    f"{stderr.read().decode('utf-8', 'backslashreplace').strip()[:200]}"
                )
        stdout.seek(0)
        n_outputs = sum(1 for _ in decode_lines(stdout, _OUTPUT))
        if n_outputs != n_lines:
            raise TranslatorCountMismatchError(
                f"translator returned {n_outputs} line(s) for {n_lines} input(s)"
            )
        stdout.seek(0)
        return stdout
    except BaseException:
        stdout.close()
        raise


def translate(lines: "list[str] | tuple[str, ...]", translator: TranslatorHandle) -> list[str]:
    """Translate rendered gloss lines, one output line per input line.

    The operation is atomic: on any failure no partial results are returned.
    The lines are text, so the baseline reads each morph's kind from its
    spelling (:func:`baseline_detokenize`): ``translate(["ABD.3.SG
    come-PST.3.SG."], baseline)`` gives ``["Come ."]``, while ``igt pivot``
    gives ``ABD come .`` for the analyzer line that gloss came from.
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
            return list(decode_lines(outputs, _OUTPUT))


class _Target(NamedTuple):
    """What a source lemma becomes in the target gloss."""

    head: "_Piece | None"  # None for an OOV lemma that DROP removes
    missed: bool  # the dictionary lacks the lemma


def _piece(morphs: "Sequence[GlossMorph]") -> _Piece:
    text = "".join(morph.joiner._value_ + morph.text for morph in morphs)
    return _Piece(text, len(morphs) == 1 and is_punct(morphs[0].text))


def _source_lemma(table: NormalizationTable, surface: str) -> _Piece:
    lemma = table._lemma(surface)
    _check_morph_text(lemma)
    return _Piece(lemma, is_punct(lemma))


def _target(dictionary: LemmaDictionary, oov_policy: OovPolicy, lemma: str) -> _Target:
    """What ``lemma`` becomes: the dictionary's translation with title case
    re-applied, else the OOV form ``oov_policy`` gives.  Punctuation is
    never looked up."""
    if is_punct(lemma):
        return _Target(_Piece(lemma, True), False)
    hit = dictionary.lookup(lemma)
    if hit is not None:
        target = hit[0]
        if lemma[:1].isupper():
            target = target[:1].upper() + target[1:]
        _check_morph_text(target)
        return _Target(_Piece(target, is_punct(target)), False)
    if oov_policy is OovPolicy.KEEP:
        return _Target(_Piece(lemma, False), True)
    if oov_policy is OovPolicy.KEEP_MARKED:
        return _Target(_Piece(f"{OOV_OPEN}{lemma}{OOV_CLOSE}", False), True)
    return _Target(None, True)


def _word(head: "_Piece | None", tail: _Piece, first: str, rest: str = "") -> tuple[str, bool]:
    """A rendered word, as :func:`join_tokens` takes it, from its head's
    image (``None`` when dropped) and its tail's: the first morph left
    becomes word-initial, and a word whose every morph is dropped stays as
    it was, ``first + rest``.  It is punctuation when it is one punctuation
    morph."""
    text = tail.text
    if head is not None:
        return head.text + text, head.punct and not text
    if text:
        return text[1:], tail.punct
    return first + rest, False


def _piecewise(
    words: Callable[[str], Iterable[tuple[str, "str | None"]]],
    head: Callable[[str], "_Piece | None"],
    tail: Callable[[str], _Piece],
) -> Callable[[str], str]:
    """A map of lines, each split by ``words`` into ``(head, tail)`` texts,
    to the words that ``head`` and ``tail`` make of them, each distinct head
    and tail mapped once per run.  A word whose tail is ``None`` is
    punctuation, kept as it is."""
    head, tail = _Memo(head), _Memo(tail)
    return lambda line: join_tokens([
        (first, True) if rest is None else _word(head[first], tail[rest], first, rest)
        for first, rest in words(line)
    ])


def _stage_lines(
    stage: Callable[[Sequence[GlossMorph]], list[GlossMorph]], registry: frozenset[str]
) -> Callable[[str], str]:
    """A map of gloss lines, tokenized with ``registry``, through ``stage``:
    each distinct head's morph and tail's morphs pass through it once per
    run, and a head whose morphs all go is dropped."""

    def head(text: str) -> "_Piece | None":
        morphs = stage([_segment_morph("", text, registry)])
        return _piece(morphs) if morphs else None

    return _piecewise(_gloss_words, head, lambda tail: _piece(stage(_tail_morphs(tail, registry))))


def _glossed_lines(table: NormalizationTable) -> Callable[[str], str]:
    """``analyzer_to_gloss(parse_analyzer_line(line), table).render()`` as a
    map of lines."""
    return _piecewise(
        _analyzer_words, lambda surface: _source_lemma(table, surface), lambda run: _tail(table, run)
    )


def _normalized_lines(table: NormalizationTable) -> Callable[[str], str]:
    """``normalize_gloss_line(tokenize_gloss(line, label_registry=...),
    table).render()`` as a map of lines."""
    return _stage_lines(lambda morphs: _normalized(morphs, table), table.label_registry())


def _substituted_lines(dictionary: LemmaDictionary, oov_policy: OovPolicy) -> Callable[[str], str]:
    """``substitute_lemmas(tokenize_gloss(line), ...).render()`` as a map of
    lines, each distinct lemma looked up once."""
    target = _Memo(_target, dictionary, oov_policy)
    return _stage_lines(lambda morphs: _substituted(morphs, target), default_label_registry())


def _surface_word(
    table: NormalizationTable, target_of: _Memo, surface: str
) -> "tuple[str, bool, str | None, bool, bool, str]":
    """What :func:`_stages` makes of an analyzer surface: its restored
    lemma, whether that is punctuation, the lemma's target-gloss text
    (``None`` for an OOV lemma that DROP removes), whether that is
    punctuation, whether the dictionary lacks the lemma, and the baseline's
    text of the target (of the lemma when dropped), ``_`` made a space."""
    lemma = _source_lemma(table, surface)
    head, missed = target_of[lemma.text]
    if head is None:
        return lemma.text, lemma.punct, None, False, missed, lemma.text.replace("_", " ")
    return lemma.text, lemma.punct, head.text, head.punct, missed, head.text.replace("_", " ")


_Row = tuple[str, str, str, str]  # (analyzer line, source gloss, target gloss, target)


def _stages(
    lines: Iterable[str],
    table: NormalizationTable,
    dictionary: LemmaDictionary,
    oov_policy: OovPolicy,
    report: PipelineReport,
    baseline: bool,
    split_morphs: bool,
) -> Iterator[_Row]:
    """``(analyzer line, source gloss, target gloss, translator input)`` per
    non-blank line, whose counts are added to ``report`` before it is
    yielded.  The translator input is the baseline's target when
    ``baseline``, else the target gloss spaced (one word per morph when
    ``split_morphs``).

    The glosses are what :func:`analyzer_to_gloss`, :func:`substitute_lemmas`
    and :meth:`GlossLine.render` make, assembled as text in one pass over a
    line's words (joined by :func:`join_tokens`' rule) from three memos,
    so each word costs two lookups: one by analyzer surface, holding its
    restored lemma, that lemma's target (from the memo by lemma) and the
    baseline's text of it, and one by tag run, holding its label tail
    concatenated from the tags' rendered labels.  An error replays the
    stages through the last two.  No gloss morph, token or line is built.
    """
    target_of, tail_of = _Memo(_target, dictionary, oov_policy), _Memo(_tail, table)
    word_of = _Memo(_surface_word, table, target_of)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        source: list[str] = []
        target: list[str] = []
        shaped: list[str] = []
        source_after_word = target_after_word = False
        unknown = oov = 0
        try:
            words = _analyzer_words(line)
            for surface, run in words:
                lemma, lemma_punct, head, head_punct, missed, plain = word_of[surface]
                rest, rest_punct, rest_split, rest_unknown = tail_of[run]
                if rest_unknown:
                    unknown += len(rest_unknown)
                oov += missed
                punct = lemma_punct and not rest
                if punct and source_after_word:
                    source[-1] += lemma
                else:
                    source.append(lemma + rest)
                source_after_word = not punct
                # as _word: the first morph left is word-initial; a word with none left stays
                if head is not None:
                    text, punct = head + rest, head_punct and not rest
                elif rest:
                    text, punct = rest[1:], rest_punct
                else:
                    text, punct = lemma, False
                if punct and target_after_word:
                    target[-1] += text
                else:
                    target.append(text)
                target_after_word = not punct
                if baseline:  # baseline_detokenize: the lemma, or the word if it is punctuation
                    if head is not None or not rest:
                        shaped.append(plain)
                    elif punct:
                        shaped.append(text.replace("_", " "))
                elif split_morphs and rest:  # render_spaced(True): one word per morph
                    shaped.append(rest_split[1:] if head is None else f"{head} {rest_split}")
                else:
                    shaped.append(text)
        except IgtError:
            # the stages in turn find the fault to report: a faulty build was not memoized
            stage = "parse-analyzer"
            try:
                words = _analyzer_words(line)
                stage = "analyzer-to-gloss"
                glossed = [(_source_lemma(table, surface), tail_of[run]) for surface, run in words]
                stage = "substitute"
                for piece, _ in glossed:
                    target_of[piece.text]
            except IgtError as exc:
                raise PipelineStageError(stage, exc, line=lineno) from exc
            raise

        report.n_sentences += 1
        report.analyzer_tokens += len(words)
        report.gloss_src_tokens += len(words)
        report.gloss_tgt_tokens += len(words)
        report.unknown_labels += unknown
        report.oov_lemmas += oov
        sentence = " ".join(shaped)
        if baseline:
            sentence = sentence[:1].upper() + sentence[1:]
        yield line, " ".join(source), " ".join(target), sentence


def _translate_externally(stages: Iterator[_Row], translator: TranslatorHandle) -> Iterator[_Row]:
    """One translator process for every sentence.  The stages wait in a
    spool (marshalled, since a library caller's line may hold any character)
    until the translator has succeeded."""
    with tempfile.TemporaryFile() as rows, _spool() as payload:
        n_lines = 0
        for line, gloss_src, gloss_tgt, spaced in stages:
            marshal.dump((line, gloss_src, gloss_tgt), rows)
            payload.write(spaced + "\n")
            n_lines += 1
        try:
            outputs = _run_external(payload, n_lines, translator)
        except IgtError as exc:
            raise PipelineStageError("translate", exc) from exc
        rows.seek(0)
        with outputs:
            for target in decode_lines(outputs, _OUTPUT):
                yield (*marshal.load(rows), target)


def _rows(
    lines: Iterable[str],
    table: NormalizationTable,
    dictionary: LemmaDictionary,
    translator: TranslatorHandle,
    oov_policy: OovPolicy,
    split_morphs: bool,
    report: PipelineReport,
) -> Iterator[_Row]:
    """:func:`iter_pipeline`'s sentences as ``(analyzer line, source gloss,
    target gloss, target)`` rows, for the CLI to write as they come."""
    baseline = translator.kind is TranslatorKind.BASELINE_DETOKENIZE
    if split_morphs and baseline:
        raise BadTranslatorError("split_morphs is not used by the baseline translator")
    stages = _stages(lines, table, dictionary, oov_policy, report, baseline, split_morphs)
    if translator.kind is TranslatorKind.EXTERNAL:
        return _translate_externally(stages, translator)
    return stages  # the baseline's and identity's input is their target


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
    name and the 1-based position of the line in ``lines``, blank lines
    counted.  ``split_morphs`` shapes only the identity and external
    translators' input, one whitespace word per morph; the baseline strips
    labels from the gloss itself, so with it ``split_morphs`` raises
    :class:`BadTranslatorError` before any line is read.  The baseline and
    identity translators hold nothing past the current sentence.  An
    external translator runs once for all sentences, fed through anonymous
    temporary files, so nothing is yielded until it has succeeded.
    ``report.sentences`` is left as it is.

    Each sentence is built as text from bounded memos: each distinct analyzer
    surface's entry once per run, from the memo of its restored lemma and
    that lemma's target, and each distinct tag run's label tail once, from its
    tags' rendered labels.  No gloss morph, token or line is built.  The traces
    wrap the rows that ``igt pivot`` writes straight to its outputs.
    """
    if report is None:
        report = PipelineReport()
    for row in _rows(lines, table, dictionary, translator, oov_policy, split_morphs, report):
        yield SentenceTrace(*row)


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
    return _report_block(index, trace.analyzer, trace.gloss_src, trace.gloss_tgt, trace.target)


def _report_block(
    index: int, analyzer: str, gloss_src: str, gloss_tgt: str, target: "str | None"
) -> str:
    """:func:`format_report_sentence` of a sentence given by its fields."""
    target_line = "" if target is None else f"target:    {target}\n"
    return (
        f"--- sentence {index}\n"
        f"analyzer:  {analyzer}\n"
        f"gloss_src: {gloss_src}\n"
        f"gloss_tgt: {gloss_tgt}\n"
        f"{target_line}"
    )


def format_report(report: PipelineReport) -> str:
    """Key-value summary plus one four-line block per sentence."""
    return format_report_header(report) + "".join(
        format_report_sentence(i, trace) for i, trace in enumerate(report.sentences, start=1)
    )
