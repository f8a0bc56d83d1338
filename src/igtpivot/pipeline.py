"""The gloss-pivot translation pipeline and multilingual corpus preparation.

Stages: analyzer output -> gloss with source lemmas -> gloss with target
lemmas (dictionary substitution) -> target text (a pluggable translator).
The final stage is an interface: an external command speaking a
line-per-sentence protocol, a dependency-free label-stripping baseline, or
an identity echo for plumbing tests.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
from dataclasses import dataclass, field
from enum import Enum

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
from .normalize import NormalizationTable, analyzer_to_gloss, unknown_analyzer_tags
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
    for morph in token.morphs:
        if morph.kind is not MorphKind.LEMMA or is_punct(morph.text):
            morphs.append(morph)
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
        elif policy is OovPolicy.KEEP_MARKED:
            marked = f"{OOV_OPEN}{morph.text}{OOV_CLOSE}"
            morphs.append(
                GlossMorph(MorphKind.LEMMA, marked, morph.joiner, opaque=morph.opaque)
            )
        else:  # DROP: keep the labels; keep the lemma only if nothing would remain
            continue
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
    tokens = tuple(
        _substitute_token(token, dictionary, oov_policy, missing) for token in gloss.tokens
    )
    return GlossLine(tokens=tokens, lemma_side=LemmaSide.TARGET), missing


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
    records: "list[IgtRecord] | tuple[IgtRecord, ...]",
    split_morphs: bool = False,
) -> tuple[list[tuple[str, str]], list[ParseWarning]]:
    """Build language-tagged training pairs for gloss-to-target translation.

    The source line is the record's language tag followed by the spaced
    rendering of its target-lemma gloss (``blu 3SG always praise 3SG .``);
    the target line is the free translation.  Records missing either field
    are skipped with a warning; input order is preserved.
    """
    pairs: list[tuple[str, str]] = []
    warnings: list[ParseWarning] = []
    for record in records:
        if record.gloss_tgt is None or record.target_text is None:
            warnings.append(
                ParseWarning(
                    SKIPPED_RECORD,
                    f"record {record.id or '<unnamed>'} lacks gloss_tgt or target_text",
                )
            )
            continue
        source = f"{record.lang.code} {record.gloss_tgt.render_spaced(split_morphs)}"
        pairs.append((source, record.target_text))
    return pairs, warnings


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
            rendered = lemmas[0].text + "".join(m.joiner.value + m.text for m in lemmas[1:])
            words.append(rendered.replace("_", " "))
    sentence = " ".join(words)
    return sentence[:1].upper() + sentence[1:]


def _run_external(lines: list[str], translator: TranslatorHandle) -> list[str]:
    try:
        argv = shlex.split(translator.command or "")
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            start_new_session=True,  # own process group, killed as one on timeout
        )
    except (OSError, ValueError) as exc:
        raise TranslatorSpawnFailureError(
            f"could not spawn translator {translator.command!r}: {exc}"
        ) from exc
    payload = "".join(line + "\n" for line in lines)
    try:
        stdout, stderr = proc.communicate(payload, timeout=translator.timeout)
    except subprocess.TimeoutExpired as exc:
        # the whole group: a child of the translator may hold its pipes open
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()
        raise TranslatorTimeoutError(
            f"translator exceeded {translator.timeout} s"
        ) from exc
    if proc.returncode != 0:
        raise TranslatorSpawnFailureError(
            f"translator exited with status {proc.returncode}: {stderr.strip()[:200]}"
        )
    outputs = split_lines(stdout)
    if len(outputs) != len(lines):
        raise TranslatorCountMismatchError(
            f"translator returned {len(outputs)} line(s) for {len(lines)} input(s)"
        )
    return outputs


def translate(lines: "list[str] | tuple[str, ...]", translator: TranslatorHandle) -> list[str]:
    """Translate rendered gloss lines, one output line per input line.

    The operation is atomic: on any failure no partial results are returned.
    """
    lines = list(lines)
    if translator.kind is TranslatorKind.IDENTITY:
        return lines
    if translator.kind is TranslatorKind.BASELINE_DETOKENIZE:
        return [baseline_detokenize(line) for line in lines]
    return _run_external(lines, translator)


def run_pipeline(
    analyzer_text: str,
    table: NormalizationTable,
    dictionary: LemmaDictionary,
    translator: TranslatorHandle,
    oov_policy: OovPolicy = OovPolicy.KEEP,
    split_morphs: bool = False,
) -> tuple[list[str], PipelineReport]:
    """Run the full sequence over analyzer output (one sentence per line).

    Blank lines are skipped.  Stage errors propagate wrapped with the stage
    name.  The report retains every intermediate line, so the per-stage
    progression of each sentence can be audited or printed.
    """
    report = PipelineReport()
    baseline = translator.kind is TranslatorKind.BASELINE_DETOKENIZE
    rows: list[tuple[str, str, str]] = []
    # baseline translations, or the lines the translator will be given
    outputs: list[str] = []

    for line in split_lines(analyzer_text):
        if not line.strip():
            continue
        try:
            tokens = parse_analyzer_line(line)
        except IgtError as exc:
            raise PipelineStageError("parse-analyzer", exc) from exc
        try:
            gloss_src = analyzer_to_gloss(tokens, table)
        except IgtError as exc:
            raise PipelineStageError("analyzer-to-gloss", exc) from exc
        try:
            gloss_tgt, missing = _substitute(gloss_src, dictionary, oov_policy)
        except IgtError as exc:
            raise PipelineStageError("substitute", exc) from exc

        report.n_sentences += 1
        report.analyzer_tokens += len(tokens)
        report.gloss_src_tokens += len(gloss_src.tokens)
        report.gloss_tgt_tokens += len(gloss_tgt.tokens)
        report.unknown_labels += len(unknown_analyzer_tags(tokens, table))
        report.oov_lemmas += len(missing)
        rows.append((line, gloss_src.render(), gloss_tgt.render()))
        outputs.append(
            _strip_labels(gloss_tgt) if baseline else gloss_tgt.render_spaced(split_morphs)
        )

    targets = outputs
    if not baseline:
        try:
            targets = translate(outputs, translator)
        except IgtError as exc:
            raise PipelineStageError("translate", exc) from exc
    report.sentences = [SentenceTrace(*row, target) for row, target in zip(rows, targets)]
    return targets, report


def format_report(report: PipelineReport) -> str:
    """Key-value summary plus one four-line block per sentence."""
    lines = [
        f"n_sentences={report.n_sentences}",
        f"analyzer_tokens={report.analyzer_tokens}",
        f"gloss_src_tokens={report.gloss_src_tokens}",
        f"gloss_tgt_tokens={report.gloss_tgt_tokens}",
        f"oov_lemmas={report.oov_lemmas}",
        f"unknown_labels={report.unknown_labels}",
    ]
    for i, trace in enumerate(report.sentences, start=1):
        lines.append(f"--- sentence {i}")
        lines.append(f"analyzer:  {trace.analyzer}")
        lines.append(f"gloss_src: {trace.gloss_src}")
        lines.append(f"gloss_tgt: {trace.gloss_tgt}")
        if trace.target is not None:
            lines.append(f"target:    {trace.target}")
    return "\n".join(lines) + "\n"
