"""Import parsers: the gloss tokenizer, ODIN-style multi-line blocks,
ToolBox backslash-coded records, and morphological-analyzer output lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    BLOCK_SHAPE,
    EMPTY_RECORD,
    TOKEN_COUNT_MISMATCH,
    UNKNOWN_MARKER,
    BlockShapeError,
    EmptyLineError,
    MalformedTokenError,
    ParseWarning,
    TokenCountMismatchError,
)
from .model import (
    DELIMITERS,
    PUNCT_CHARS,
    GlossLine,
    GlossMorph,
    GlossToken,
    IgtRecord,
    Joiner,
    LanguageTag,
    LemmaSide,
    MorphKind,
    as_language_tag,
    has_delimiter,
    is_punct,
    split_lines,
)

_JOINER_BY_CHAR = {"-": Joiner.HYPHEN, ".": Joiner.PERIOD, "=": Joiner.EQUALS}


@dataclass(frozen=True)
class AnalyzerToken:
    """One token of morphological-analyzer output: a root plus raw tags
    (``Kadi+A3sg+Pnon+Nom`` has surface ``Kadi`` and three tags)."""

    surface: str
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.surface:
            raise MalformedTokenError("analyzer token has empty surface")
        if self.is_punctuation and self.tags:
            raise MalformedTokenError(
                f"punctuation token {self.surface!r} must not carry tags"
            )

    @property
    def is_punctuation(self) -> bool:
        return is_punct(self.surface)

    def render(self) -> str:
        return "+".join((self.surface,) + self.tags)


@dataclass(frozen=True)
class RawIgtBlock:
    """A run of 2-4 consecutive non-blank lines from an ODIN-style file."""

    lines: tuple[str, ...]
    source_language_hint: str | None = None
    start_line: int = 0

    def __post_init__(self) -> None:
        if not 2 <= len(self.lines) <= 4:
            raise BlockShapeError(f"block must have 2-4 lines, got {len(self.lines)}")
        if any(not line.strip() for line in self.lines):
            raise BlockShapeError("block lines must be non-empty after trimming")


# --- gloss tokenizer ---------------------------------------------------------


def _split_segments(core: str) -> list[tuple[Joiner, str]]:
    """Split a word at ``-``/``.``/``=``.

    A delimiter that would create an empty segment (at the start or end of
    the word, or immediately before another delimiter) is kept as literal
    text of the adjacent segment, so rendering reproduces the input exactly.
    """
    segments: list[tuple[Joiner, str]] = []
    joiner = Joiner.WORD_INITIAL
    buf: list[str] = []
    for i, ch in enumerate(core):
        if ch in DELIMITERS:
            nxt = core[i + 1] if i + 1 < len(core) else None
            if buf and nxt is not None and nxt not in DELIMITERS:
                segments.append((joiner, "".join(buf)))
                buf = []
                joiner = _JOINER_BY_CHAR[ch]
            else:
                buf.append(ch)
        else:
            buf.append(ch)
    segments.append((joiner, "".join(buf)))
    return segments


_EDGE_RE = re.compile(r"^[^0-9A-Za-z]+|[^0-9A-Za-z]+$")


def _looks_like_label(text: str, registry: "frozenset[str] | set[str]") -> bool:
    if text in registry or text.upper() in registry:
        return True
    core = _EDGE_RE.sub("", text)
    if not core:
        return False
    if core in registry or core.upper() in registry:
        return True
    return all(ch.isdigit() or (ch.isalpha() and ch.isupper()) for ch in core)


def _word_to_tokens(
    word: str, registry: "frozenset[str] | set[str]"
) -> list[GlossToken]:
    if is_punct(word):
        morph = GlossMorph(MorphKind.LEMMA, word, Joiner.WORD_INITIAL, opaque=has_delimiter(word))
        return [GlossToken((morph,))]
    core = word.rstrip(PUNCT_CHARS)
    trailing = word[len(core) :]
    morphs = []
    for joiner, text in _split_segments(core):
        kind = MorphKind.LABEL if _looks_like_label(text, registry) else MorphKind.LEMMA
        morphs.append(GlossMorph(kind, text, joiner, opaque=has_delimiter(text)))
    tokens = [GlossToken(tuple(morphs))]
    if trailing:
        tokens.extend(_word_to_tokens(trailing, registry))
    return tokens


def _tokenize_optional(
    text: "str | None", side: LemmaSide, registry: "frozenset[str] | set[str] | None"
) -> "GlossLine | None":
    return None if text is None else tokenize_gloss(text, lemma_side=side, label_registry=registry)


def tokenize_gloss(
    line: str,
    *,
    lemma_side: LemmaSide = LemmaSide.TARGET,
    label_registry: "frozenset[str] | set[str] | None" = None,
) -> GlossLine:
    """Tokenize one gloss line.

    Each whitespace token becomes a gloss token; within a token, splits at
    ``-``, ``.`` and ``=`` produce morphs carrying the corresponding joiner.
    A segment is a label when it is entirely uppercase letters and digits or
    is a known label (canonical or variant); otherwise it is a lemma.
    Trailing sentence punctuation becomes its own token.
    """
    if not line.strip():
        raise EmptyLineError("cannot tokenize an empty gloss line")
    if label_registry is None:
        from .normalize import default_label_registry  # lazy import, avoids cycle

        label_registry = default_label_registry()
    tokens: list[GlossToken] = []
    for word in line.split():
        tokens.extend(_word_to_tokens(word, label_registry))
    return GlossLine(tokens=tuple(tokens), lemma_side=lemma_side)


# --- ODIN-style block files --------------------------------------------------


def parse_odin_blocks(text: str) -> tuple[list[RawIgtBlock], list[ParseWarning]]:
    """Split a file into maximal runs of non-blank lines.

    Runs of 2-4 lines become blocks; 1-line and 5+-line runs are reported as
    ``BLOCK_SHAPE`` warnings, so every non-blank input line is accounted for
    by exactly one block or one warning.
    """
    blocks: list[RawIgtBlock] = []
    warnings: list[ParseWarning] = []
    run: list[str] = []
    run_start = 0

    def flush() -> None:
        if not run:
            return
        if 2 <= len(run) <= 4:
            blocks.append(RawIgtBlock(lines=tuple(run), start_line=run_start))
        else:
            warnings.append(
                ParseWarning(
                    BLOCK_SHAPE,
                    f"run of {len(run)} line(s) starting at line {run_start} "
                    "is not a 2-4 line IGT block",
                    line=run_start,
                )
            )

    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if line:
            if not run:
                run_start = lineno
            run.append(line)
        else:
            flush()
            run = []
    flush()
    return blocks, warnings


def block_to_record(
    block: RawIgtBlock,
    lang: "LanguageTag | str",
    record_id: str = "",
    *,
    label_registry: "frozenset[str] | set[str] | None" = None,
) -> IgtRecord:
    """Map a 3-line block to (source, gloss_tgt, target) or a 4-line block to
    (source, gloss_src, gloss_tgt, target).

    Token counts are enforced between the two gloss lines only; the source
    line may tokenize differently (clitics, merged words).
    """
    tag = as_language_tag(lang)
    if len(block.lines) == 3:
        source, gloss_tgt_text, target = block.lines
        gloss_src_text = None
    elif len(block.lines) == 4:
        source, gloss_src_text, gloss_tgt_text, target = block.lines
    else:
        raise BlockShapeError(
            f"cannot map a {len(block.lines)}-line block to an IGT record"
        )
    return IgtRecord(
        id=record_id,
        lang=tag,
        source_text=source,
        gloss_src=_tokenize_optional(gloss_src_text, LemmaSide.SOURCE, label_registry),
        gloss_tgt=_tokenize_optional(gloss_tgt_text, LemmaSide.TARGET, label_registry),
        target_text=target,
        provenance=block.source_language_hint or "",
    )


# --- ToolBox backslash-coded files -------------------------------------------

DEFAULT_TOOLBOX_MAP = {
    "t": "source",
    "m": "ignore",
    "g": "gloss_tgt",
    "f": "target",
}

_TOOLBOX_ROLES = frozenset({"source", "gloss_src", "gloss_tgt", "target", "ignore"})

_MARKER_RE = re.compile(r"^\\(\S+)\s*(.*)$")


def _normalize_field_map(field_map: dict[str, str]) -> dict[str, str]:
    normalized = {}
    for marker, role in field_map.items():
        if role not in _TOOLBOX_ROLES:
            raise ValueError(f"unknown ToolBox field role {role!r} for marker {marker!r}")
        normalized[marker.lstrip("\\")] = role
    return normalized


def parse_toolbox(
    text: str,
    field_map: "dict[str, str] | None" = None,
    *,
    lang: "LanguageTag | str" = "und",
    id_prefix: str = "toolbox",
    label_registry: "frozenset[str] | set[str] | None" = None,
) -> tuple[list[IgtRecord], list[ParseWarning]]:
    """Parse a ToolBox file into records.

    Records are delimited by the recurrence of the first marker seen in the
    file.  Continuation lines (no leading backslash) are folded into the
    previous marker's content with a single space.  Markers missing from
    ``field_map`` yield ``UNKNOWN_MARKER`` warnings and are skipped; records
    whose mapped fields are all empty are skipped with ``EMPTY_RECORD``.
    """
    fmap = _normalize_field_map(dict(field_map) if field_map else DEFAULT_TOOLBOX_MAP)
    tag = as_language_tag(lang)
    warnings: list[ParseWarning] = []
    records: list[IgtRecord] = []

    chunks: list[list[tuple[str, str, int]]] = []  # (marker, content, lineno)
    delimiter: str | None = None
    current: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        if not raw.strip():
            continue
        match = _MARKER_RE.match(raw)
        if match is None:
            if current:
                marker, content, start = current[-1]
                current[-1] = (marker, f"{content} {raw.strip()}".strip(), start)
            continue
        marker, content = match.group(1), match.group(2).strip()
        if delimiter is None:
            delimiter = marker
        if marker == delimiter and current:
            chunks.append(current)
            current = []
        current.append((marker, content, lineno))
    if current:
        chunks.append(current)

    for index, chunk in enumerate(chunks):
        fields: dict[str, str] = {}
        start_line = chunk[0][2]
        for marker, content, lineno in chunk:
            role = fmap.get(marker)
            if role is None:
                warnings.append(
                    ParseWarning(UNKNOWN_MARKER, f"marker \\{marker} has no mapping", line=lineno)
                )
                continue
            if role == "ignore" or not content:
                continue
            fields[role] = f"{fields[role]} {content}".strip() if role in fields else content
        if not fields:
            warnings.append(
                ParseWarning(EMPTY_RECORD, "record has no mapped content", line=start_line)
            )
            continue
        try:
            records.append(
                IgtRecord(
                    id=f"{id_prefix}-{index + 1:04d}",
                    lang=tag,
                    source_text=fields.get("source"),
                    gloss_src=_tokenize_optional(
                        fields.get("gloss_src"), LemmaSide.SOURCE, label_registry
                    ),
                    gloss_tgt=_tokenize_optional(
                        fields.get("gloss_tgt"), LemmaSide.TARGET, label_registry
                    ),
                    target_text=fields.get("target"),
                )
            )
        except TokenCountMismatchError as exc:
            warnings.append(ParseWarning(TOKEN_COUNT_MISMATCH, str(exc), line=start_line))
    return records, warnings


# --- morphological analyzer output -------------------------------------------


def parse_analyzer_line(line: str) -> list[AnalyzerToken]:
    """Decompose one analyzer-output line into tokens.

    Tokens are whitespace-separated ``surface+Tag+Tag...`` groups; sentence
    punctuation attached to the end of a token is split off as its own token.
    """
    tokens: list[AnalyzerToken] = []
    for word in line.split():
        if is_punct(word):
            tokens.append(AnalyzerToken(word))
            continue
        core = word.rstrip(PUNCT_CHARS)
        trailing = word[len(core) :]
        parts = core.split("+")
        if not parts[0]:
            raise MalformedTokenError(f"analyzer token has empty surface: {word!r}")
        if any(not part for part in parts[1:]):
            raise MalformedTokenError(f"analyzer token has an empty tag: {word!r}")
        tokens.append(AnalyzerToken(parts[0], tuple(parts[1:])))
        if trailing:
            tokens.append(AnalyzerToken(trailing))
    return tokens
