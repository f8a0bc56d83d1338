"""Import parsers: the gloss tokenizer, ODIN-style multi-line blocks,
ToolBox backslash-coded records, and morphological-analyzer output lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, Iterator

from .errors import (
    BLOCK_SHAPE,
    EMPTY_RECORD,
    ORPHAN_LINE,
    SKIPPED_RECORD,
    TOKEN_COUNT_MISMATCH,
    UNKNOWN_MARKER,
    BadFieldRoleError,
    BlockShapeError,
    EmptyLineError,
    MalformedRecordError,
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
    MorphKind,
    _MEMO_SIZE,
    _Memo,
    _check_token_counts,
    _find_space,
    _parse_record,
    _read_corpus,
    _read_record,
    _record_line,
    as_language_tag,
    is_punct,
    is_word,
    join_tokens,
    split_lines,
)

_JOINER_BY_CHAR = {joiner._value_: joiner for joiner in Joiner}  # "" is WORD_INITIAL
_Warn = Callable[[ParseWarning], None]  # what a streaming parser passes each warning to


@dataclass(frozen=True, slots=True)
class AnalyzerToken:
    """One token of morphological-analyzer output: a root plus raw tags
    (``Kadi+A3sg+Pnon+Nom`` has surface ``Kadi`` and three tags)."""

    surface: str
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        surface = self.surface
        if not surface:
            raise MalformedTokenError("analyzer token has empty surface")
        if "+" in surface or _find_space(surface):
            raise MalformedTokenError(f"analyzer surface holds a '+' or whitespace: {surface!r}")
        if self.tags:
            if self.is_punctuation:
                raise MalformedTokenError(f"punctuation token {surface!r} must not carry tags")
        elif surface[-1] in PUNCT_CHARS and not self.is_punctuation:
            # its text would read back as the word and its punctuation
            raise MalformedTokenError(f"untagged analyzer surface ends in punctuation: {surface!r}")
        text = "".join(self.tags)  # the tags checked at once: one search, not one per tag
        if "" in self.tags or _find_space(text):
            raise MalformedTokenError(f"analyzer tag is empty or has whitespace: {self.tags!r}")
        if "+" in text:
            raise MalformedTokenError(f"analyzer tag holds a '+': {self.tags!r}")

    @property
    def is_punctuation(self) -> bool:
        return is_punct(self.surface)

    def render(self) -> str:
        return "+".join((self.surface,) + self.tags)


@dataclass(frozen=True, slots=True)
class RawIgtBlock:
    """A run of 3 or 4 consecutive non-blank lines from an ODIN-style file."""

    lines: tuple[str, ...]
    start_line: int = 0

    def __post_init__(self) -> None:
        if not 3 <= len(self.lines) <= 4:
            raise BlockShapeError(f"block must have 3-4 lines, got {len(self.lines)}")
        if any(not line.strip() for line in self.lines):
            raise BlockShapeError("block lines must be non-empty after trimming")


# --- gloss tokenizer ---------------------------------------------------------


_DELIM_CLASS = re.escape(DELIMITERS)
_SPLIT_RE = re.compile(f"(?!^)([{_DELIM_CLASS}])(?=[^{_DELIM_CLASS}])")


def _delimited_segments(core: str) -> list[tuple[str, str]]:
    """Split a word at ``-``/``.``/``=`` into ``(delimiter, text)`` pairs,
    the delimiter ``""`` for the first segment.

    A delimiter that would create an empty segment (at the start or end of
    the word, or immediately before another delimiter) is kept as literal
    text of the adjacent segment, so rendering reproduces the input exactly.
    """
    parts = _SPLIT_RE.split(core)  # text, delimiter, text, delimiter, ...
    return [("", parts[0]), *zip(parts[1::2], parts[2::2])]


def _gloss_words(line: str) -> Iterator[tuple[str, "str | None"]]:
    """Each token of a gloss line as ``(head, tail)``: a word's first
    segment and the rest (``.3.SG``, or ``""``), or ``(punctuation, None)``
    for the sentence punctuation that ends a word, a token of its own."""
    for word in line.split():
        core = word.rstrip(PUNCT_CHARS)
        if core:
            head = _SPLIT_RE.split(core, 1)[0]
            yield head, core[len(head) :]
        if len(core) < len(word):
            yield word[len(core) :], None


def _word_cores(line: str) -> Iterator[tuple[str, "str | None"]]:
    """:func:`_gloss_words` with each word's head and tail left joined, as
    ``(head + tail, "")``: for the commands that write the word whole."""
    for word in line.split():
        core = word.rstrip(PUNCT_CHARS)
        if core:
            yield core, ""
        if len(core) < len(word):
            yield word[len(core) :], None


def _gloss_word_list(
    line: str, reader: Callable[[str], Iterator[tuple[str, "str | None"]]] = _gloss_words
) -> list[tuple[str, "str | None"]]:
    """``reader`` of a gloss line (:func:`_gloss_words` or :func:`_word_cores`),
    which must have a token."""
    words = list(reader(line))
    if not words:
        raise EmptyLineError("cannot tokenize an empty gloss line")
    return words


def _joined(words: "list[tuple[str, str | None]]") -> str:
    """:meth:`GlossLine.render` of the gloss of ``words``: a word renders as
    its head and tail and is never punctuation; a ``(punct, None)`` token is."""
    return join_tokens(
        [(head, True) if tail is None else (head + tail, False) for head, tail in words]
    )


_EDGE_RE = re.compile(r"^[^0-9A-Za-z]+|[^0-9A-Za-z]+$")


def _looks_like_label(text: str, registry: frozenset[str]) -> bool:
    if text in registry or text.upper() in registry:
        return True
    core = _EDGE_RE.sub("", text)
    if not core:
        return False
    if core in registry or core.upper() in registry:
        return True
    return all(ch.isdigit() or (ch.isalpha() and ch.isupper()) for ch in core)


@lru_cache(maxsize=_MEMO_SIZE)
def _segment_morph(delimiter: str, text: str, registry: frozenset[str]) -> GlossMorph:
    # keyed on the delimiter character, not on the Joiner, whose hash is a
    # Python-level function
    kind = MorphKind.LABEL if _looks_like_label(text, registry) else MorphKind.LEMMA
    return GlossMorph(kind, text, _JOINER_BY_CHAR[delimiter])


@lru_cache(maxsize=_MEMO_SIZE)
def _tail_morphs(tail: str, registry: frozenset[str]) -> tuple[GlossMorph, ...]:
    if not tail:
        return ()
    (_, first), *rest = _delimited_segments(tail[1:])  # tail[0] is the first joiner
    return tuple(_segment_morph(d, text, registry) for d, text in [(tail[0], first), *rest])


def _split_tail(tail: str) -> str:
    """A word tail one morph per whitespace word, as :func:`_tail_morphs`
    splits it: ``.3 .SG`` for ``.3.SG``."""
    return tail[0] + _SPLIT_RE.sub(r" \1", tail[1:])


@lru_cache(maxsize=_MEMO_SIZE)
def _punct_token(text: str) -> GlossToken:
    return GlossToken((GlossMorph(MorphKind.LEMMA, text, Joiner.WORD_INITIAL),))


def tokenize_gloss(
    line: str,
    *,
    label_registry: "frozenset[str] | set[str] | None" = None,
) -> GlossLine:
    """Tokenize one gloss line.

    Each whitespace token becomes a gloss token; within a token, splits at
    ``-``, ``.`` and ``=`` produce morphs carrying the corresponding joiner.
    A segment is a label when it is entirely uppercase letters and digits or
    is a known label (canonical or variant); otherwise it is a lemma.
    Trailing sentence punctuation becomes its own token.

    The morphs of the result, and its punctuation tokens, may be objects
    shared with earlier results: each distinct segment, word tail and
    punctuation run is built once per registry and kept in a bounded LRU
    memo (16,384 entries each) keyed by the registry's contents.  They are
    immutable values; compare them with ``==``, not ``is``.
    """
    words = _gloss_word_list(line)
    if label_registry is None:
        from .normalize import default_label_registry  # lazy import, avoids cycle

        label_registry = default_label_registry()
    elif not isinstance(label_registry, frozenset):
        label_registry = frozenset(label_registry)  # a memo key must be hashable
    tokens = [
        _punct_token(head) if tail is None else GlossToken(
            (_segment_morph("", head, label_registry), *_tail_morphs(tail, label_registry))
        )
        for head, tail in words
    ]
    return GlossLine(tokens=tuple(tokens))


# --- ODIN-style block files --------------------------------------------------


def parse_odin_blocks(text: str) -> tuple[list[RawIgtBlock], list[ParseWarning]]:
    """Split a file into maximal runs of non-blank lines.

    Runs of 3-4 lines become blocks; 1-, 2- and 5+-line runs are reported as
    ``BLOCK_SHAPE`` warnings, so every non-blank input line is accounted for
    by exactly one block or one warning.  ``igt parse-odin`` reads the same
    blocks one run at a time, printing each warning as it is met.
    """
    warnings: list[ParseWarning] = []
    return list(_odin_blocks(split_lines(text), warnings.append)), warnings


def _odin_blocks(lines: Iterable[str], warn: _Warn) -> Iterator[RawIgtBlock]:
    """:func:`parse_odin_blocks`'s blocks one run at a time, each misshapen
    run's warning passed to ``warn`` as it is met."""
    run: list[str] = []
    for lineno, raw in enumerate(chain(lines, ("",)), start=1):  # "" ends the last run
        line = raw.strip()
        if line:
            run.append(line)
            continue
        start = lineno - len(run)
        if 3 <= len(run) <= 4:
            yield RawIgtBlock(lines=tuple(run), start_line=start)
        elif run:
            shape = f"run of {len(run)} line(s) starting at line {start} is not a 3-4 line IGT block"
            warn(ParseWarning(BLOCK_SHAPE, shape, line=start))
        run.clear()


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
    line may tokenize differently (clitics, merged words).  A block's error
    has its ``start_line``, when that is set, as ``line``.
    """
    return _parse_record(_block_line(block, as_language_tag(lang), record_id), label_registry)


def _block_line(block: RawIgtBlock, lang: LanguageTag, record_id: str) -> str:
    """:func:`block_to_record`'s corpus line, made from gloss words."""
    source, *texts, target = block.lines
    words = [_gloss_word_list(text, _word_cores) for text in texts]
    # a 3-line block's one gloss is checked against itself
    _check_token_counts(len(words[0]), len(words[-1]), line=block.start_line)
    gloss_src = _joined(words[0]) if len(words) == 2 else None
    return _record_line((record_id, lang.code, source, gloss_src, _joined(words[-1]), target, None))


def _corpus_lines(
    blocks: Iterable[RawIgtBlock], lang: LanguageTag, id_prefix: str
) -> Iterator[str]:
    """Each block's corpus line, the ``i``-th's id ``f"{id_prefix}-{i:04d}"``."""
    for index, block in enumerate(blocks, start=1):
        yield _block_line(block, lang, f"{id_prefix}-{index:04d}")


# --- ToolBox backslash-coded files -------------------------------------------

DEFAULT_TOOLBOX_MAP = {"t": "source", "m": "ignore", "g": "gloss_tgt", "f": "target"}

_TOOLBOX_ROLES = frozenset({"source", "gloss_src", "gloss_tgt", "target", "ignore"})

_MARKER_RE = re.compile(r"^\\(\S+)\s*(.*)$")


def _normalize_field_map(field_map: "dict[str, str] | None") -> dict[str, str]:
    """``field_map`` (the default map if empty) keyed by markers without
    their backslash; an unknown role, a marker no line can carry (empty,
    holding whitespace, or starting with ``_`` as a skipped header's does) or
    a marker given twice (``\\t`` and ``t``) raises :class:`BadFieldRoleError`."""
    normalized = {}
    for marker, role in (field_map or DEFAULT_TOOLBOX_MAP).items():
        if role not in _TOOLBOX_ROLES:
            raise BadFieldRoleError(f"unknown ToolBox field role {role!r} for marker {marker!r}")
        key = marker.lstrip("\\")
        if not key:
            raise BadFieldRoleError(f"empty ToolBox marker {marker!r} for role {role!r}")
        if key.startswith("_"):
            raise BadFieldRoleError(f"ToolBox marker {marker!r} starts a skipped header line")
        if not is_word(key):
            raise BadFieldRoleError(f"ToolBox marker {marker!r} holds whitespace")
        if key in normalized:
            raise BadFieldRoleError(f"ToolBox marker \\{key} is mapped twice")
        normalized[key] = role
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

    Lines whose marker starts with ``_`` (the ``\\_sh v3.0 400 Text`` header
    ToolBox writes) are file headers and are skipped.  Records are delimited
    by the recurrence of the first other marker seen in the file.
    Continuation lines (no leading backslash) are folded into the previous
    marker's content with a single space; one before the first marker yields
    an ``ORPHAN_LINE`` warning.  Markers missing from ``field_map`` yield
    ``UNKNOWN_MARKER`` warnings and are skipped; records whose mapped fields
    are all empty are skipped with ``EMPTY_RECORD``, and those whose glosses
    differ in token count with ``TOKEN_COUNT_MISMATCH``.  An unknown role, or
    a marker mapped twice, raises :class:`BadFieldRoleError`.  ``igt
    parse-toolbox`` reads the same records one at a time, printing each
    warning as it is met.
    """
    fmap = _normalize_field_map(field_map)
    tag = as_language_tag(lang)
    warnings: list[ParseWarning] = []
    lines = _toolbox_lines(split_lines(text), fmap, tag, id_prefix, warnings.append)
    return [_parse_record(line, label_registry) for line in lines], warnings


def _toolbox_chunks(lines: Iterable[str], warn: _Warn) -> Iterator[list[tuple[str, str, int]]]:
    """Each record's ``(marker, content, line)`` fields, continuation lines folded in."""
    delimiter: str | None = None
    current: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        match = _MARKER_RE.match(raw)
        if match is None:
            if current:
                marker, content, start = current[-1]
                current[-1] = (marker, f"{content} {raw.strip()}".strip(), start)
            else:
                warn(ParseWarning(ORPHAN_LINE, "line before the first marker", line=lineno))
            continue
        marker, content = match.group(1), match.group(2).strip()
        if marker.startswith("_"):  # a file header such as \_sh v3.0 400 Text
            continue
        if delimiter is None:
            delimiter = marker
        if marker == delimiter and current:
            yield current
            current = []
        current.append((marker, content, lineno))
    if current:
        yield current


def _toolbox_lines(
    lines: Iterable[str], fmap: dict[str, str], tag: LanguageTag, id_prefix: str, warn: _Warn
) -> Iterator[str]:
    """:func:`parse_toolbox`'s records one at a time as corpus lines, each warning
    passed to ``warn`` as it is met.  A skipped record still uses up its id number."""
    for index, chunk in enumerate(_toolbox_chunks(lines, warn), start=1):
        fields: dict[str, str] = {}
        start_line = chunk[0][2]
        for marker, content, lineno in chunk:
            role = fmap.get(marker)
            if role is None:
                warn(ParseWarning(UNKNOWN_MARKER, f"marker \\{marker} has no mapping", line=lineno))
                continue
            if role == "ignore" or not content:
                continue
            fields[role] = f"{fields[role]} {content}".strip() if role in fields else content
        if not fields:
            warn(ParseWarning(EMPTY_RECORD, "record has no mapped content", line=start_line))
            continue
        glosses = fields.get("gloss_src"), fields.get("gloss_tgt")
        src, tgt = [text and _gloss_word_list(text, _word_cores) for text in glosses]
        try:  # a lone gloss is checked against itself
            _check_token_counts(len(src or tgt or ()), len(tgt or src or ()))
        except TokenCountMismatchError as exc:
            warn(ParseWarning(TOKEN_COUNT_MISMATCH, str(exc), line=start_line))
            continue
        yield _record_line((
            f"{id_prefix}-{index:04d}", tag.code, fields.get("source"), src and _joined(src),
            tgt and _joined(tgt), fields.get("target"), None,
        ))


# --- morphological analyzer output -------------------------------------------


def parse_analyzer_line(line: str) -> list[AnalyzerToken]:
    """Decompose one analyzer-output line into tokens.

    Tokens are whitespace-separated ``surface+Tag+Tag...`` groups; sentence
    punctuation attached to the end of a token is split off as its own token.
    """
    return [
        AnalyzerToken(surface, tuple(run[1:].split("+")) if run else ())
        for surface, run in _analyzer_words(line)
    ]


def _analyzer_words(line: str) -> list[tuple[str, str]]:
    """:func:`parse_analyzer_line`'s tokens, checked, as ``(surface, tag
    run)`` strings: the run is the ``+Tag+Tag`` text after the surface, and
    ``""`` for a token without tags."""
    words: list[tuple[str, str]] = []
    for word in line.split():
        core = word.rstrip(PUNCT_CHARS)
        if not core:  # punctuation only
            words.append((word, ""))
            continue
        surface, plus, tags = core.partition("+")
        if not plus:
            words.append((core, ""))
        else:
            run = plus + tags
            if not surface:
                raise MalformedTokenError(f"analyzer token has empty surface: {word!r}")
            if run.endswith("+") or "++" in run:
                raise MalformedTokenError(f"analyzer token has an empty tag: {word!r}")
            if not surface.strip(PUNCT_CHARS):
                raise MalformedTokenError(f"punctuation token {surface!r} must not carry tags")
            words.append((surface, run))
        if len(core) < len(word):
            words.append((word[len(core) :], ""))
    return words


# --- corpus lines and multilingual training pairs ----------------------------


def _canonical_line(line: str) -> str:
    """``serialize_record(parse_record(line))``, made from gloss words."""
    values, lang, src, tgt = _read_record(line, partial(_gloss_word_list, reader=_word_cores), len)
    return _record_line((
        values["id"], lang.code, values.get("src"), src and _joined(src), tgt and _joined(tgt),
        values.get("tgt"), values.get("prov") or None,
    ))


def _skipped(record_id: str) -> ParseWarning:
    """The warning for a record that lacks a side of its training pair."""
    return ParseWarning(
        SKIPPED_RECORD, f"record {record_id or '<unnamed>'} lacks gloss_tgt or target_text"
    )


def _corpus_pairs(
    lines: Iterable[str], split_morphs: bool, warn: _Warn
) -> Iterator[tuple[str, str]]:
    r"""``_training_pairs(iter_corpus(lines), split_morphs, warn)`` made from
    gloss words, each distinct tail split once per run, and each warning
    given its record's line; but a target that its file would not read back
    as one line (it holds ``\n`` or ends in ``\r``) is a
    :class:`MalformedRecordError`."""
    split = _Memo(_split_tail)
    words_of = _gloss_word_list if split_morphs else partial(_gloss_word_list, reader=_word_cores)

    def pair(line: str) -> "tuple[str, str] | ParseWarning":
        values, lang, _, words = _read_record(line, words_of, len)
        target = values.get("tgt")
        if words is None or target is None:
            return _skipped(values["id"])
        if split_lines(target + "\n") != [target]:
            message = f"tgt {target!r} would not read back as one line of the target file"
            raise MalformedRecordError(message, field="tgt")
        gloss = " ".join(
            head if not tail else f"{head} {split[tail]}" if split_morphs else head + tail
            for head, tail in words
        )
        return f"{lang.code} {gloss}", target

    return _read_corpus(lines, pair, warn)
