"""Exception types and non-fatal warning records shared across the toolkit.

Every exception carries a stable ``code`` string so the CLI can emit a
single-line machine-parsable diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass


class IgtError(Exception):
    """Base class for all operational errors.  ``line`` is the input line
    the error was met on (0 for none); a set line heads the message, as
    ``<where> N: message``."""

    code = "IGT_ERROR"
    where = "line"

    def __init__(self, *args: object, line: int = 0):
        super().__init__(*args)
        self.line = line

    def __str__(self) -> str:
        message = super().__str__()
        return f"{self.where} {self.line}: {message}" if self.line else message


class MalformedRecordError(IgtError):
    """A corpus line violates the interchange format or a record invariant."""

    code = "MALFORMED_RECORD"

    def __init__(self, message: str, *, offset: int = 0, field: str = ""):
        super().__init__(message)
        self.offset = offset
        self.field = field


class BadRatiosError(IgtError):
    code = "BAD_RATIOS"


class BadLanguageTagError(IgtError, ValueError):
    """A language tag that is not three lowercase letters.  Also a
    ``ValueError``, so callers catching that still work."""

    code = "BAD_LANGUAGE_TAG"


class BadArgumentError(IgtError, ValueError):
    """A library argument outside the values it may take: Model 1
    ``iterations`` below 1, a BLEU ``max_n`` outside 1..4, a dictionary key
    that is not lowercase, an annotation that lacks a field the metric it is
    scored by needs."""

    code = "BAD_ARGUMENT"


class BadFieldRoleError(IgtError, ValueError):
    code = "BAD_FIELD_ROLE"


class EmptyLineError(IgtError, ValueError):
    code = "EMPTY_LINE"


class BlockShapeError(IgtError):
    code = "BLOCK_SHAPE"


class TokenCountMismatchError(IgtError):
    code = "TOKEN_COUNT_MISMATCH"


class MalformedTokenError(IgtError, ValueError):
    code = "MALFORMED_TOKEN"


class TableParseError(IgtError, ValueError):
    code = "TABLE_PARSE_ERROR"


class BadThresholdError(IgtError, ValueError):
    """A dictionary threshold that is nan, which no probability reaches."""

    code = "BAD_THRESHOLD"


class AnnotationParseError(IgtError, ValueError):
    code = "ANNOTATION_PARSE_ERROR"
    where = "annotation line"


class LexiconParseError(IgtError, ValueError):
    code = "LEXICON_PARSE_ERROR"
    where = "lexicon line"


class BadEncodingError(IgtError, ValueError):
    """Input that is not UTF-8, reported as ``<source> line N: ...``: the
    source is a path, ``-`` for stdin or ``translator output``, and N the
    line of the first bad byte."""

    code = "BAD_ENCODING"

    def __init__(self, source: str, cause: UnicodeDecodeError, *, line: int):
        self.where = f"{source} line"
        bad = cause.object[cause.start]
        super().__init__(f"not UTF-8 (byte 0x{bad:02x}: {cause.reason})", line=line)
        self.source = source


class CycleDetectedError(IgtError):
    """A label normalization can yield that normalizes to ``image`` rather
    than to itself, so normalizing twice would not give what normalizing
    once does."""

    code = "CYCLE_DETECTED"

    def __init__(self, label: str, image: tuple[str, ...], *, line: int = 0):
        super().__init__(
            f"label {label!r} normalizes to {'.'.join(image)!r}, not to itself", line=line
        )
        self.label = label
        self.image = image


class EmptyCorpusError(IgtError):
    code = "EMPTY_CORPUS"


class LengthMismatchError(IgtError, ValueError):
    """Two sequences that must pair up differ in length.  Also a
    ``ValueError``, so callers catching that still work."""

    code = "LENGTH_MISMATCH"


class TranslatorError(IgtError):
    code = "TRANSLATOR_ERROR"


class BadTranslatorError(IgtError, ValueError):
    code = "BAD_TRANSLATOR"


class TranslatorTimeoutError(TranslatorError):
    code = "TRANSLATOR_TIMEOUT"


class TranslatorCountMismatchError(TranslatorError):
    code = "TRANSLATOR_COUNT_MISMATCH"


class TranslatorSpawnFailureError(TranslatorError):
    """Covers both failure to start the command and abnormal termination."""

    code = "TRANSLATOR_SPAWN_FAILURE"


class PipelineStageError(IgtError):
    """Wraps an error raised inside ``run_pipeline`` with the stage name and,
    as ``line``, the number of the input line it met (0 for a fault of the
    whole run).  The message ends ``(line N)``, as a :class:`ParseWarning`'s
    does."""

    code = "PIPELINE_STAGE_ERROR"

    def __init__(self, stage: str, cause: Exception, *, line: int = 0):
        super().__init__(f"stage {stage}: {cause}", line=line)
        self.stage = stage
        self.cause = cause

    def __str__(self) -> str:
        message = Exception.__str__(self)
        return f"{message} (line {self.line})" if self.line else message


@dataclass(frozen=True)
class ParseWarning:
    """A non-fatal condition collected during parsing, never raised."""

    code: str
    message: str
    line: int | None = None

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.code}: {self.message}{where}"


BLOCK_SHAPE = "BLOCK_SHAPE"
UNKNOWN_MARKER = "UNKNOWN_MARKER"
ORPHAN_LINE = "ORPHAN_LINE"
EMPTY_RECORD = "EMPTY_RECORD"
SKIPPED_RECORD = "SKIPPED_RECORD"
SKIPPED_PAIR = "SKIPPED_PAIR"
TOKEN_COUNT_MISMATCH = "TOKEN_COUNT_MISMATCH"
