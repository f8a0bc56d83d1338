"""Data model for interlinear glossed text (IGT) records.

An IGT example carries up to four content lines: the source-language text,
a gloss whose lemmas are source-language roots, a gloss whose lemmas are
target-language words, and the free target translation.  Gloss lines are
sequences of tokens; each token decomposes into morphs (one lemma plus
morpheme labels) joined by ``-``, ``.`` or ``=``.

Records serialize to a line-oriented interchange format (one record per
line, tab-separated ``key=value`` pairs) so corpora can be streamed.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import (
    BadRatiosError,
    MalformedRecordError,
    TokenCountMismatchError,
)

DELIMITERS = "-.="
PUNCT_CHARS = ".,!?;:"

_LANG_RE = re.compile(r"^[a-z]{3}$")
# ``\s`` matches exactly the characters for which ``str.isspace`` is true
_find_space = re.compile(r"\s").search


def has_delimiter(text: str) -> bool:
    """True when ``text`` contains a morph delimiter (``-``, ``.`` or ``=``)."""
    # spelled out for speed; must list exactly the characters of DELIMITERS
    return "-" in text or "." in text or "=" in text


def is_punct(text: str) -> bool:
    """True when ``text`` consists of sentence punctuation only (and for ``""``)."""
    return not text.strip(PUNCT_CHARS)


def is_word(text: str) -> bool:
    """True when ``text`` is non-empty and has no whitespace, as a morph's
    text must be."""
    return bool(text) and not _find_space(text)


def split_lines(text: str) -> list[str]:
    r"""Lines of ``text`` split at ``\n`` only, each without one trailing
    ``\r``; unlike :meth:`str.splitlines`, U+2028, U+0085, ``\v`` and ``\f``
    stay inside their line, so a line is never counted as two."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


class Joiner(Enum):
    """How a morph attaches to the one before it; the value is the literal
    delimiter character (empty for the first morph of a token)."""

    WORD_INITIAL = ""
    HYPHEN = "-"
    PERIOD = "."
    EQUALS = "="


class MorphKind(Enum):
    LEMMA = "lemma"
    LABEL = "label"


class LemmaSide(Enum):
    SOURCE = "source"
    TARGET = "target"


@dataclass(frozen=True, slots=True)
class LanguageTag:
    """Three-letter lowercase language identifier, e.g. ``blu`` or ``tur``."""

    code: str

    def __post_init__(self) -> None:
        if not _LANG_RE.match(self.code):
            raise ValueError(f"language tag must be 3 lowercase letters, got {self.code!r}")

    def __str__(self) -> str:
        return self.code


def as_language_tag(value: "LanguageTag | str") -> LanguageTag:
    return value if isinstance(value, LanguageTag) else LanguageTag(value)


@dataclass(frozen=True, slots=True)
class GlossMorph:
    """One segment of a gloss token.

    ``opaque`` marks text the tokenizer could not split cleanly (it contains
    delimiter characters literally, e.g. the trailing period of ``Progr.`` or
    a punctuation-only token); such text renders verbatim so round-trips stay
    exact.
    """

    kind: MorphKind
    text: str
    joiner: Joiner
    opaque: bool = False

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("morph text must be non-empty")
        if _find_space(self.text):
            raise ValueError(f"morph text contains whitespace: {self.text!r}")
        if not self.opaque and has_delimiter(self.text):
            raise ValueError(
                f"morph text contains a delimiter and is not flagged opaque: {self.text!r}"
            )


@dataclass(frozen=True, slots=True)
class GlossToken:
    """A glossed word: an ordered, non-empty sequence of morphs."""

    morphs: tuple[GlossMorph, ...]

    def __post_init__(self) -> None:
        if not self.morphs:
            raise ValueError("token must have at least one morph")
        if self.morphs[0].joiner is not Joiner.WORD_INITIAL:
            raise ValueError("first morph of a token must be word-initial")
        for morph in self.morphs[1:]:
            if morph.joiner is Joiner.WORD_INITIAL:
                raise ValueError("only the first morph of a token may be word-initial")

    def render(self) -> str:
        # ``_value_`` skips the slow ``Enum.value`` descriptor
        return "".join(m.joiner._value_ + m.text for m in self.morphs)

    @property
    def is_punctuation(self) -> bool:
        return len(self.morphs) == 1 and is_punct(self.morphs[0].text)


@dataclass(frozen=True, slots=True)
class GlossLine:
    """An ordered sequence of gloss tokens, tagged with which language the
    lemmas belong to (source roots vs. target words)."""

    tokens: tuple[GlossToken, ...]
    lemma_side: LemmaSide

    def render(self) -> str:
        """Human-faithful rendering: punctuation tokens attach to the
        preceding word without a space (``do-AOR.3.SG.``)."""
        parts: list[str] = []
        for token in self.tokens:
            text = token.render()
            if token.is_punctuation and parts:
                parts[-1] += text
            else:
                parts.append(text)
        return " ".join(parts)

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
        if (
            self.source_text is None
            and self.gloss_src is None
            and self.gloss_tgt is None
            and self.target_text is None
        ):
            raise MalformedRecordError(
                "record has none of the four content lines", field="record"
            )
        if self.gloss_src is not None and self.gloss_src.lemma_side is not LemmaSide.SOURCE:
            raise ValueError("gloss_src must have lemma_side=SOURCE")
        if self.gloss_tgt is not None and self.gloss_tgt.lemma_side is not LemmaSide.TARGET:
            raise ValueError("gloss_tgt must have lemma_side=TARGET")
        if self.gloss_src is not None and self.gloss_tgt is not None:
            n_src = len(self.gloss_src.tokens)
            n_tgt = len(self.gloss_tgt.tokens)
            if n_src != n_tgt:
                raise TokenCountMismatchError(
                    f"gloss token counts differ: {n_src} source-lemma vs {n_tgt} target-lemma"
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
    return value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unescape(value: str, *, offset: int, fieldname: str) -> str:
    if "\\" not in value:
        return value
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\":
            if i + 1 >= len(value):
                raise MalformedRecordError(
                    "dangling backslash escape", offset=offset, field=fieldname
                )
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "t":
                out.append("\t")
            elif nxt == "n":
                out.append("\n")
            else:
                raise MalformedRecordError(
                    f"unknown escape \\{nxt}", offset=offset, field=fieldname
                )
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def serialize_record(record: IgtRecord) -> str:
    """Render one record as a single interchange line.

    Field order is fixed, so equal records produce byte-identical lines.
    """
    pairs = [("id", record.id), ("lang", record.lang.code)]
    if record.source_text is not None:
        pairs.append(("src", record.source_text))
    if record.gloss_src is not None:
        pairs.append(("gloss_src", record.gloss_src.render()))
    if record.gloss_tgt is not None:
        pairs.append(("gloss_tgt", record.gloss_tgt.render()))
    if record.target_text is not None:
        pairs.append(("tgt", record.target_text))
    if record.provenance:
        pairs.append(("prov", record.provenance))
    return "\t".join(f"{key}={_escape(value)}" for key, value in pairs)


def parse_record(line: str) -> IgtRecord:
    """Inverse of :func:`serialize_record`.

    Raises :class:`MalformedRecordError` carrying the byte offset of the
    offending field and its name.
    """
    from .parsing import tokenize_gloss  # local import: parsing builds on model

    if not line.strip():
        raise MalformedRecordError("blank line is not a record", field="record")
    values: dict[str, str] = {}
    char_pos = 0
    for chunk in line.rstrip("\n").split("\t"):
        offset = len(line[:char_pos].encode("utf-8"))
        key, sep, raw = chunk.partition("=")
        if not sep:
            raise MalformedRecordError(
                f"field without '=': {chunk!r}", offset=offset, field=key
            )
        if key not in _KNOWN_KEYS:
            raise MalformedRecordError(f"unknown field {key!r}", offset=offset, field=key)
        if key in values:
            raise MalformedRecordError(f"duplicate field {key!r}", offset=offset, field=key)
        values[key] = _unescape(raw, offset=offset, fieldname=key)
        char_pos += len(chunk) + 1
    for required in ("id", "lang"):
        if required not in values:
            raise MalformedRecordError(f"missing field {required!r}", field=required)
    try:
        lang = LanguageTag(values["lang"])
    except ValueError as exc:
        raise MalformedRecordError(str(exc), field="lang") from exc

    def _gloss(key: str, side: LemmaSide) -> GlossLine | None:
        if key not in values:
            return None
        try:
            return tokenize_gloss(values[key], lemma_side=side)
        except Exception as exc:  # noqa: BLE001 - surface as record error
            raise MalformedRecordError(
                f"bad gloss in field {key!r}: {exc}", field=key
            ) from exc

    try:
        return IgtRecord(
            id=values["id"],
            lang=lang,
            source_text=values.get("src"),
            gloss_src=_gloss("gloss_src", LemmaSide.SOURCE),
            gloss_tgt=_gloss("gloss_tgt", LemmaSide.TARGET),
            target_text=values.get("tgt"),
            provenance=values.get("prov", ""),
        )
    except TokenCountMismatchError as exc:
        raise MalformedRecordError(str(exc), field="gloss_tgt") from exc


def iter_corpus(lines: Iterable[str]) -> Iterator[IgtRecord]:
    """Parse corpus lines one at a time; blank lines are ignored, and a
    malformed record's error names its line."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse_record(line)
        except MalformedRecordError as exc:
            raise MalformedRecordError(
                f"line {lineno}: {exc}", offset=exc.offset, field=exc.field
            ) from exc
        yield record


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
