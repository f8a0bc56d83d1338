"""Data model for interlinear glossed text (IGT) records.

An IGT example carries up to four content lines: the source-language text,
a gloss whose lemmas are source-language roots, a gloss whose lemmas are
target-language words, and the free target translation.  Gloss lines are
sequences of tokens; each token decomposes into morphs (one lemma plus
morpheme labels) joined by the delimiters that :class:`Joiner` lists.

Records serialize to a line-oriented interchange format (one record per
line, tab-separated ``key=value`` pairs) so corpora can be streamed.
"""

from __future__ import annotations

import io
import math
import random
import re
import tempfile
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import IO, Callable, Iterable, Iterator

from .errors import (
    BadEncodingError,
    BadLanguageTagError,
    BadRatiosError,
    IgtError,
    MalformedRecordError,
    MalformedTokenError,
    ParseWarning,
    TokenCountMismatchError,
)

PUNCT_CHARS = ".,!?;:"

_LANG_RE = re.compile(r"[a-z]{3}")
# ``\s`` matches exactly the characters for which ``str.isspace`` is true
_find_space = re.compile(r"\s").search


def is_punct(text: str) -> bool:
    """True when ``text`` consists of sentence punctuation only (and for ``""``)."""
    return not text.strip(PUNCT_CHARS)


def is_word(text: str) -> bool:
    """True when ``text`` is non-empty and has no whitespace, as a morph's
    text must be."""
    return bool(text) and not _find_space(text)


def decode_utf8(data: bytes, source: str, line: int = 1, *, bom: bool = False) -> str:
    """``data``, which starts at line ``line`` of ``source``, decoded as
    UTF-8, a leading byte-order mark dropped when ``bom``.  A byte that is
    not UTF-8 raises :class:`BadEncodingError` naming its line."""
    try:
        return data.decode("utf-8-sig" if bom else "utf-8")
    except UnicodeDecodeError as exc:
        # exc.start counts from after a dropped mark, in exc.object
        where = line + exc.object.count(b"\n", 0, exc.start)
        raise BadEncodingError(source, exc, line=where) from exc


def decode_lines(handle: IO[bytes], source: str) -> Iterator[str]:
    """``split_lines(decode_utf8(handle.read(), source, bom=True))``, one line
    at a time: whole lines are read and decoded a buffer at a time, so
    memory stays bounded.  Before a byte that is not UTF-8 raises, every
    line above its own is yielded."""
    line = 1
    while chunk := handle.readlines(io.DEFAULT_BUFFER_SIZE):
        bom = line == 1
        try:
            text = decode_utf8(b"".join(chunk), source, line, bom=bom)
        except BadEncodingError as exc:
            before = b"".join(chunk[: exc.line - line])
            yield from split_lines(decode_utf8(before, source, line, bom=bom))
            raise
        yield from split_lines(text)
        line += len(chunk)


def split_lines(text: str) -> list[str]:
    r"""Lines of ``text`` split at ``\n`` only, each without one trailing
    ``\r``: the one place a line ends.  Unlike :meth:`str.splitlines`,
    U+2028, U+0085, ``\v``, ``\f`` and a lone ``\r`` elsewhere stay inside
    their line, so a line is never counted as two."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def _spool() -> IO[str]:
    r"""An anonymous temporary file of UTF-8 text that keeps ``\r`` as it is
    and splits lines at ``\n`` only."""
    return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")


def join_tokens(tokens: "list[tuple[str, bool]]") -> str:
    """Rendered tokens, each given as ``(text, is punctuation)``, joined by
    spaces, except that a punctuation token attaches to a word right before
    it: :meth:`GlossLine.render`'s rule."""
    parts: list[str] = []
    after_word = False
    for text, punct in tokens:
        if punct and after_word:
            parts[-1] += text
        else:
            parts.append(text)
        after_word = not punct
    return " ".join(parts)


# Gloss corpora repeat a small set of segments (``3.SG``, ``NOM``), word
# tails (``.3.SG.NOM``) and analyzer tag runs many times over, so each
# distinct one is built and checked once and the frozen value shared.  The
# memos are bounded.
_MEMO_SIZE = 1 << 14


class _Memo(dict):
    """``build(*args, key)`` of each key looked up (``memo[key]``), built on
    its first lookup and kept; emptied when it holds :data:`_MEMO_SIZE`
    entries.  A build that raises stores nothing."""

    def __init__(self, build: Callable, *args) -> None:
        super().__init__()
        self.build = partial(build, *args)

    def __missing__(self, key):
        if len(self) >= _MEMO_SIZE:
            self.clear()
        value = self[key] = self.build(key)
        return value


class Joiner(Enum):
    """How a morph attaches to the one before it; the value is the literal
    delimiter character (empty for the first morph of a token)."""

    WORD_INITIAL = ""
    HYPHEN = "-"
    PERIOD = "."
    EQUALS = "="


DELIMITERS = "".join(joiner.value for joiner in Joiner)


class MorphKind(Enum):
    LEMMA = "lemma"
    LABEL = "label"


class OovPolicy(Enum):
    """What to do with a source lemma absent from the dictionary."""

    KEEP = "keep"
    KEEP_MARKED = "mark"
    DROP = "drop"


@dataclass(frozen=True, slots=True)
class LanguageTag:
    """Three-letter lowercase language identifier, e.g. ``blu`` or ``tur``."""

    code: str

    def __post_init__(self) -> None:
        if not _LANG_RE.fullmatch(self.code):
            raise BadLanguageTagError(
                f"language tag must be 3 lowercase letters, got {self.code!r}"
            )

    def __str__(self) -> str:
        return self.code


def as_language_tag(value: "LanguageTag | str") -> LanguageTag:
    return value if isinstance(value, LanguageTag) else LanguageTag(value)


def _check_morph_text(text: str) -> None:
    """Raise :class:`MalformedTokenError` unless ``text`` can be a morph's:
    non-empty and without whitespace.  What a gloss builds as text rather
    than as a :class:`GlossMorph` is checked by this, as the morph would be."""
    if not text:
        raise MalformedTokenError("morph text must be non-empty")
    if _find_space(text):
        raise MalformedTokenError(f"morph text contains whitespace: {text!r}")


@dataclass(frozen=True, slots=True)
class GlossMorph:
    """One segment of a gloss token."""

    kind: MorphKind
    text: str
    joiner: Joiner

    def __post_init__(self) -> None:
        _check_morph_text(self.text)

    @property
    def opaque(self) -> bool:
        """True when the text holds a delimiter literally (the trailing
        period of ``Progr.``, a punctuation-only token), text the tokenizer
        could not split cleanly; it renders verbatim."""
        return any(ch in self.text for ch in DELIMITERS)


@dataclass(frozen=True, slots=True)
class GlossToken:
    """A glossed word: an ordered, non-empty sequence of morphs."""

    morphs: tuple[GlossMorph, ...]

    def __post_init__(self) -> None:
        if not self.morphs:
            raise MalformedTokenError("token must have at least one morph")
        if self.morphs[0].joiner is not Joiner.WORD_INITIAL:
            raise MalformedTokenError("first morph of a token must be word-initial")
        for morph in self.morphs[1:]:
            if morph.joiner is Joiner.WORD_INITIAL:
                raise MalformedTokenError("only the first morph of a token may be word-initial")

    def render(self) -> str:
        # ``_value_`` skips the slow ``Enum.value`` descriptor
        return "".join(m.joiner._value_ + m.text for m in self.morphs)

    @property
    def is_punctuation(self) -> bool:
        return len(self.morphs) == 1 and is_punct(self.morphs[0].text)


@dataclass(frozen=True, slots=True)
class GlossLine:
    """An ordered sequence of gloss tokens.  Whether its lemmas are source
    roots or target words is told by the record field that holds it."""

    tokens: tuple[GlossToken, ...]

    def render(self) -> str:
        """Human-faithful rendering: a punctuation token attaches to the
        preceding word without a space (``do-AOR.3.SG.``), but not to a
        preceding punctuation token, so ``x !? .`` renders as ``x!? .``
        and tokenizes back to three tokens."""
        return join_tokens([(token.render(), token.is_punctuation) for token in self.tokens])

    def render_spaced(self, split_morphs: bool = False) -> str:
        """One whitespace word per token (per morph when ``split_morphs``),
        the rendering used for translation-model consumption."""
        words: list[str] = []
        for token in self.tokens:
            if split_morphs:
                words.extend(m.joiner._value_ + m.text for m in token.morphs)
            else:
                words.append(token.render())
        return " ".join(words)


@dataclass(frozen=True, slots=True)
class IgtRecord:
    """One interlinear example.

    At least one of the four content lines must be present; when both gloss
    lines are present they must have the same number of tokens (the defining
    one-to-one segment correspondence of IGT).
    """

    id: str
    lang: LanguageTag
    source_text: str | None = None
    gloss_src: GlossLine | None = None
    gloss_tgt: GlossLine | None = None
    target_text: str | None = None
    provenance: str = ""

    def __post_init__(self) -> None:
        _require_content(self.source_text, self.gloss_src, self.gloss_tgt, self.target_text)
        if self.gloss_src is not None and self.gloss_tgt is not None:
            _check_token_counts(len(self.gloss_src.tokens), len(self.gloss_tgt.tokens))


def _require_content(*lines: object) -> None:
    """Raise unless one of a record's four content lines is present (not ``None``)."""
    if lines.count(None) == len(lines):
        raise MalformedRecordError("record has none of the four content lines", field="record")


def _check_token_counts(n_src: int, n_tgt: int, line: int = 0) -> None:
    """Raise unless a record's two glosses have as many tokens."""
    if n_src != n_tgt:
        raise TokenCountMismatchError(
            f"gloss token counts differ: {n_src} source-lemma vs {n_tgt} target-lemma", line=line
        )


@dataclass(frozen=True, slots=True)
class CorpusSplit:
    """A disjoint train/validation/test partition of a record list."""

    train: tuple[IgtRecord, ...]
    validation: tuple[IgtRecord, ...]
    test: tuple[IgtRecord, ...]


# --- serialization ----------------------------------------------------------

_FIELD_ORDER = ("id", "lang", "src", "gloss_src", "gloss_tgt", "tgt", "prov")
_KNOWN_KEYS = frozenset(_FIELD_ORDER)


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


_UNESCAPES = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r"}
_escape_re = re.compile(r"\\.?", re.DOTALL)


def _unescape(value: str, *, fieldname: str) -> str:
    if "\\" not in value:
        return value

    def unescape(match: re.Match) -> str:
        escape = match.group()
        if escape in _UNESCAPES:
            return _UNESCAPES[escape]
        message = "dangling backslash escape" if escape == "\\" else f"unknown escape {escape}"
        raise MalformedRecordError(message, field=fieldname)

    return _escape_re.sub(unescape, value)


def _record_line(texts: "Iterable[str | None]") -> str:
    """The corpus line of a record's texts in :data:`_FIELD_ORDER`, each
    ``None`` when absent: :func:`serialize_record`'s field writer."""
    return "\t".join(
        f"{key}={_escape(text)}" for key, text in zip(_FIELD_ORDER, texts) if text is not None
    )


def serialize_record(record: IgtRecord) -> str:
    """Render one record as a single interchange line.

    Field order is fixed, so equal records produce byte-identical lines.
    """
    gloss_src, gloss_tgt = record.gloss_src, record.gloss_tgt
    return _record_line((
        record.id, record.lang.code, record.source_text, gloss_src and gloss_src.render(),
        gloss_tgt and gloss_tgt.render(), record.target_text, record.provenance or None,
    ))


def _read_record(line: str, tokenize: Callable, count: Callable) -> tuple:
    """:func:`parse_record`'s reading of ``line``: its fields' unescaped
    values by key, its language tag, and its two glosses as ``tokenize``
    makes them (``None`` when absent), checked as :class:`IgtRecord` checks
    them, with ``count`` of a gloss its token count."""
    if not line.strip():
        raise MalformedRecordError("blank line is not a record", field="record")
    values: dict[str, str] = {}
    char_pos = 0
    for chunk in line.rstrip("\n").split("\t"):
        key, sep, raw = chunk.partition("=")
        try:
            if not sep:
                raise MalformedRecordError(f"field without '=': {chunk!r}", field=key)
            if key not in _KNOWN_KEYS:
                raise MalformedRecordError(f"unknown field {key!r}", field=key)
            if key in values:
                raise MalformedRecordError(f"duplicate field {key!r}", field=key)
            values[key] = _unescape(raw, fieldname=key)
        except MalformedRecordError as exc:
            exc.offset = len(line[:char_pos].encode("utf-8"))  # counted only for a bad field
            raise
        char_pos += len(chunk) + 1
    for required in ("id", "lang"):
        if required not in values:
            raise MalformedRecordError(f"missing field {required!r}", field=required)
    try:
        lang = LanguageTag(values["lang"])
    except BadLanguageTagError as exc:
        raise MalformedRecordError(str(exc), field="lang") from exc
    glosses = []
    for key in ("gloss_src", "gloss_tgt"):
        try:
            glosses.append(tokenize(values[key]) if key in values else None)
        except IgtError as exc:
            raise MalformedRecordError(f"bad gloss in field {key!r}: {exc}", field=key) from exc
    gloss_src, gloss_tgt = glosses
    _require_content(values.get("src"), gloss_src, gloss_tgt, values.get("tgt"))
    if gloss_src is not None and gloss_tgt is not None:
        try:
            _check_token_counts(count(gloss_src), count(gloss_tgt))
        except TokenCountMismatchError as exc:
            raise MalformedRecordError(str(exc), field="gloss_tgt") from exc
    return values, lang, gloss_src, gloss_tgt


def parse_record(line: str) -> IgtRecord:
    """Inverse of :func:`serialize_record`.

    Raises :class:`MalformedRecordError` carrying the byte offset of the
    offending field and its name.
    """
    return _parse_record(line, None)


def _parse_record(line: str, label_registry: "frozenset[str] | set[str] | None") -> IgtRecord:
    """:func:`parse_record`, its glosses tokenized with ``label_registry``."""
    from .parsing import tokenize_gloss  # local import: parsing builds on model

    values, lang, gloss_src, gloss_tgt = _read_record(
        line, partial(tokenize_gloss, label_registry=label_registry), lambda g: len(g.tokens)
    )
    return IgtRecord(
        id=values["id"],
        lang=lang,
        source_text=values.get("src"),
        gloss_src=gloss_src,
        gloss_tgt=gloss_tgt,
        target_text=values.get("tgt"),
        provenance=values.get("prov", ""),
    )


def _read_corpus(
    lines: Iterable[str], read: Callable, warn: "Callable[[ParseWarning], None] | None" = None
) -> Iterator:
    """``read`` of each non-blank corpus line, one at a time; a
    :class:`MalformedRecordError` it raises is given the line's number, and
    so is a :class:`ParseWarning` it returns in place of a row, which is
    passed to ``warn``."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = read(line)
        except MalformedRecordError as exc:
            exc.line = exc.line or lineno
            raise
        if isinstance(row, ParseWarning):
            warn(ParseWarning(row.code, row.message, line=lineno))
        else:
            yield row


def iter_corpus(lines: Iterable[str]) -> Iterator[IgtRecord]:
    """Parse corpus lines one at a time; blank lines are ignored, and a
    malformed record's error names its line."""
    yield from _read_corpus(lines, parse_record)


def load_corpus(text: str) -> list[IgtRecord]:
    """Parse a corpus file body; blank lines are ignored."""
    return list(iter_corpus(split_lines(text)))


def dump_corpus(records: "list[IgtRecord] | tuple[IgtRecord, ...]") -> str:
    return "".join(serialize_record(r) + "\n" for r in records)


# --- corpus splitting -------------------------------------------------------


def split_corpus(
    records: "list[IgtRecord] | tuple[IgtRecord, ...]",
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> CorpusSplit:
    """Deterministic seeded shuffle followed by contiguous slicing.

    Sizes are floor(n*train) and floor(n*valid); the remainder goes to test.
    """
    if len(ratios) != 3:
        raise BadRatiosError(f"expected 3 ratios, got {len(ratios)}")
    if any(math.isnan(r) or r < 0 for r in ratios):
        raise BadRatiosError(f"ratios must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatiosError(f"ratios must sum to 1.0, got {sum(ratios)!r}")
    items = list(records)
    rng = random.Random(seed)
    rng.shuffle(items)
    n = len(items)
    n_train = math.floor(n * ratios[0])
    n_valid = math.floor(n * ratios[1])
    return CorpusSplit(
        train=tuple(items[:n_train]),
        validation=tuple(items[n_train : n_train + n_valid]),
        test=tuple(items[n_train + n_valid :]),
    )
