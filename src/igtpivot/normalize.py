"""Morpheme-label normalization.

Maps the label variants found in mixed-provenance glosses onto one canonical
set (``Past``, ``pst``, ``PAST`` all become ``PST``), expands person/number
composites (``3SG`` becomes ``3.SG``), and converts morphological-analyzer
tags into gloss labels (``Kadi+A3sg+Pnon+Nom`` becomes
``Kadin.3.SG.NPOSS.NOM``).

Unknown labels pass through unchanged so no information is destroyed;
:meth:`NormalizationTable.lookup_label` flags each one, and
:func:`unknown_analyzer_tags` lists the analyzer tags the table lacks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import CycleDetectedError, MalformedTokenError, TableParseError
from .model import (
    GlossLine,
    GlossMorph,
    GlossToken,
    Joiner,
    MorphKind,
    _MEMO_SIZE,
    _Memo,
    is_punct,
    is_word,
    split_lines,
)
from .tables import DEFAULT_TABLE_TEXT

if TYPE_CHECKING:  # only annotated: the tokenizer imports this module
    from .parsing import AnalyzerToken

_NUMBER_ALIASES = {"S": "SG", "SING": "SG", "SINGULAR": "SG", "P": "PL", "PLUR": "PL"}
_PERSONS = frozenset({"1", "2", "3"})
_NUMBERS = frozenset({"SG", "PL", "DU"})

_SECTIONS = ("variants", "composites", "analyzer", "registry", "restore")


@dataclass(frozen=True)
class NormalizationTable:
    """Immutable normalization rules.

    ``person_first`` controls the output order of person/number labels
    wherever one raw label or analyzer tag expands to several: ``3SG`` and
    ``A3sg`` become ``3.SG`` when true (the default) and ``SG.3`` when false.
    Both conventions occur in real gloss data.
    """

    variant_map: dict[str, tuple[str, ...]]
    composite_rules: tuple[re.Pattern, ...]
    registry: frozenset[str]
    analyzer_map: dict[str, tuple[str, ...]]
    verbal_tags: frozenset[str]
    restore_map: dict[str, str]
    person_first: bool = True

    @cached_property
    def _casefold_map(self) -> dict[str, tuple[str, ...]]:
        folded: dict[str, tuple[str, ...]] = {}
        for key, image in self.variant_map.items():
            folded.setdefault(key.casefold(), image)
        return folded

    def _first_joiner(self, tag: str) -> Joiner:
        """The joiner of analyzer ``tag``'s first label: a hyphen when the tag is verbal."""
        return Joiner.HYPHEN if tag in self.verbal_tags else Joiner.PERIOD

    def _lemma(self, surface: str) -> str:
        """The lemma of an analyzer ``surface``: its restored root, else itself."""
        return self.restore_map.get(surface, surface)

    @cached_property
    def _tag_labels(self) -> dict[str, tuple[str, ...]]:
        """Each analyzer tag's label morphs, built and checked once, rendered
        joiner first (``Past`` gives ``("-PST",)``): the text :func:`_tail`
        builds a tag run's labels from."""
        return {
            tag: tuple(
                m.joiner._value_ + m.text
                for m in _label_morphs(
                    _order_person_number(image, self.person_first), self._first_joiner(tag)
                )
            )
            for tag, image in self.analyzer_map.items()
        }

    @cached_property
    def _tag_runs(self) -> _Memo:
        """Each tag run's :func:`_run_morphs`, by its ``tags`` tuple: built
        once per table and shared by every token that carries the run."""
        return _Memo(_run_morphs, self)

    @cached_property
    def _label_registry(self) -> frozenset[str]:
        return self.registry | frozenset(self.variant_map)

    def label_registry(self) -> frozenset[str]:
        """All strings the tokenizer should classify as labels: canonical
        labels plus known variants."""
        return self._label_registry

    def lookup_label(self, raw: str) -> tuple[tuple[str, ...], bool]:
        """Resolve one raw label to its canonical sequence.

        Returns ``(labels, known)``; unknown labels come back unchanged with
        ``known=False``.
        """
        if not raw:
            raise MalformedTokenError("label must be non-empty")
        image = self.variant_map.get(raw)
        if image is None:
            image = self._casefold_map.get(raw.casefold())
        if image is not None:
            return _order_person_number(image, self.person_first), True
        for rule in self.composite_rules:
            match = rule.fullmatch(raw)
            if match is None:
                continue
            person, number = match.group("person", "number")
            if number is not None:
                number = number.upper()
                number = _NUMBER_ALIASES.get(number, number)
            # a capture that is no person or number label is no composite:
            # it could normalize again, to something else, on a second pass
            if person not in _PERSONS or number not in _NUMBERS:
                continue
            return _order_person_number((person, number), self.person_first), True
        if raw.upper() in self.registry:
            return (raw.upper(),), True
        return (raw,), False


def _order_person_number(labels: tuple[str, ...], person_first: bool) -> tuple[str, ...]:
    """``labels`` with each number label (SG/PL/DU) moved before the person
    label (1/2/3) right before it, unless ``person_first``."""
    if person_first or len(labels) < 2:
        return labels
    ordered = list(labels)
    i = 0
    while i < len(ordered) - 1:
        if ordered[i] in _PERSONS and ordered[i + 1] in _NUMBERS:
            ordered[i], ordered[i + 1] = ordered[i + 1], ordered[i]
            i += 1
        i += 1
    return tuple(ordered)


def loads_table(text: str, *, person_first: bool = True) -> NormalizationTable:
    """Parse a normalization table from its text form.  A label a lookup
    can yield (a registry label, or a person or number label when there are
    composites) that does not normalize to itself, as in a variant chain or
    cycle, raises :class:`CycleDetectedError` naming the line of the variant
    that lookup applies to the label, else the label's first registry line."""
    variant_map: dict[str, tuple[str, ...]] = {}
    variant_lines: dict[str, int] = {}
    composite_rules: list[re.Pattern] = []
    registry_lines: dict[str, int] = {}  # each registry label's first line
    analyzer_map: dict[str, tuple[str, ...]] = {}
    verbal_tags: set[str] = set()
    restore_map: dict[str, str] = {}
    pending: list[tuple[int, str, str]] = []  # (line, section, content)

    section = None
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise TableParseError(f"unknown section [{section}]", line=lineno)
            continue
        if section is None:
            raise TableParseError("content before any [section] header", line=lineno)
        pending.append((lineno, section, line))

    # registry first, so images can be validated in one pass
    for lineno, section, line in pending:
        if section == "registry":
            for label in line.split():
                registry_lines.setdefault(label, lineno)
    registry = registry_lines.keys()

    def image_of(spec: str, lineno: int) -> tuple[str, ...]:
        if spec == "-":
            return ()
        labels = tuple(part for part in spec.split(".") if part)
        if not labels:
            raise TableParseError(f"empty label sequence {spec!r}", line=lineno)
        for label in labels:
            if label not in registry:
                raise TableParseError(
                    f"label {label!r} is not in the registry", line=lineno
                )
        return labels

    for lineno, section, line in pending:
        if section == "registry":
            continue
        if section == "composites":
            try:
                rule = re.compile(line, re.IGNORECASE)
            except re.error as exc:
                raise TableParseError(f"bad composite regex: {exc}", line=lineno) from exc
            if "person" not in rule.groupindex or "number" not in rule.groupindex:
                raise TableParseError(
                    "composite regex needs named groups 'person' and 'number'",
                    line=lineno,
                )
            composite_rules.append(rule)
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise TableParseError("expected tab-separated fields", line=lineno)
        key = fields[0].strip()
        if section == "variants":
            if key in variant_map:
                raise TableParseError(f"duplicate variant {key!r}", line=lineno)
            image = image_of(fields[1].strip(), lineno)
            if not image:
                raise TableParseError(
                    f"variant {key!r} maps to no label ('-' is for [analyzer] tags)",
                    line=lineno,
                )
            variant_map[key] = image
            variant_lines[key] = lineno
        elif section == "analyzer":
            if key in analyzer_map:
                raise TableParseError(f"duplicate analyzer tag {key!r}", line=lineno)
            analyzer_map[key] = image_of(fields[1].strip(), lineno)
            flags = [f.strip() for f in fields[2:] if f.strip()]
            for flag in flags:
                if flag != "verbal":
                    raise TableParseError(f"unknown analyzer flag {flag!r}", line=lineno)
                verbal_tags.add(key)
        elif section == "restore":
            if key in restore_map:
                raise TableParseError(f"duplicate restore entry {key!r}", line=lineno)
            target = fields[1].strip()
            for word in (key, target):
                if not is_word(word):
                    raise TableParseError(
                        f"restore word {word!r} is empty or contains whitespace", line=lineno
                    )
            restore_map[key] = target

    table = NormalizationTable(
        variant_map=variant_map,
        composite_rules=tuple(composite_rules),
        registry=frozenset(registry),
        analyzer_map=analyzer_map,
        verbal_tags=frozenset(verbal_tags),
        restore_map=restore_map,
        person_first=person_first,
    )
    # a lookup yields registry labels, or person and number labels from a
    # composite, so normalizing twice gives what normalizing once does when
    # each of those maps to itself
    outputs = registry | (_PERSONS | _NUMBERS if composite_rules else set())
    for label in sorted(outputs):
        image = table.lookup_label(label)[0]
        if image != (label,):
            # the variant lookup_label took: the label's own, else the first
            # one of its casefold
            folded = (n for key, n in variant_lines.items() if key.casefold() == label.casefold())
            line = variant_lines.get(label) or next(folded, None) or registry_lines[label]
            raise CycleDetectedError(label, image, line=line)
    return table


@lru_cache(maxsize=None)
def default_table(person_first: bool = True) -> NormalizationTable:
    return loads_table(DEFAULT_TABLE_TEXT, person_first=person_first)


def default_label_registry() -> frozenset[str]:
    return default_table().label_registry()


def _label_morphs(
    labels: tuple[str, ...], first_joiner: Joiner
) -> list[GlossMorph]:
    morphs = []
    for i, label in enumerate(labels):
        joiner = first_joiner if i == 0 else Joiner.PERIOD
        morphs.append(GlossMorph(MorphKind.LABEL, label, joiner))
    return morphs


def normalize_gloss_line(line: GlossLine, table: NormalizationTable) -> GlossLine:
    """Replace every label morph by its canonical sequence.

    The first replacement label inherits the original joiner; any further
    labels attach with a period.  Lemma morphs are untouched, so the token
    count never changes and the operation is idempotent.
    """
    tokens = [GlossToken(tuple(_normalized(token.morphs, table))) for token in line.tokens]
    return GlossLine(tokens=tuple(tokens))


def _normalized(morphs: "Iterable[GlossMorph]", table: NormalizationTable) -> list[GlossMorph]:
    """``morphs`` with every label replaced by its canonical sequence."""
    normalized: list[GlossMorph] = []
    for morph in morphs:
        if morph.kind is MorphKind.LABEL:
            normalized.extend(_label_morphs(table.lookup_label(morph.text)[0], morph.joiner))
        else:
            normalized.append(morph)
    return normalized


class _Piece(NamedTuple):
    """A gloss word's head (its first morph, or that morph's image) or its
    tail (the other morphs: the label morphs of a tag run such as
    ``+A3sg+Nom``), rendered."""

    text: str  # "" for no morph; a tail's starts with its first joiner: ``.3.SG.NOM``
    punct: bool  # one punctuation morph
    split: str = ""  # one whitespace word per morph: ``.3 .SG .NOM``
    unknown: tuple[str, ...] = ()  # the tags of a tag run the table lacks


def _tail(table: NormalizationTable, run: str) -> _Piece:
    """The label tail of the tag run ``run`` (``+A3sg+Nom``), concatenated
    from each known tag's rendered labels; a tag the table lacks is a label
    of its own, its joiner and its text."""
    labels: list[str] = []
    unknown: list[str] = []
    tag_labels = table._tag_labels
    for tag in run.split("+")[1:]:
        rendered = tag_labels.get(tag)
        if rendered is None:
            unknown.append(tag)
            rendered = (table._first_joiner(tag).value + tag,)
        labels.extend(rendered)
    punct = len(labels) == 1 and is_punct(labels[0][1:])  # every label's joiner is one character
    return _Piece("".join(labels), punct, " ".join(labels), tuple(unknown))


def _run_morphs(
    table: NormalizationTable, tags: tuple[str, ...]
) -> tuple[tuple[str, ...], tuple[GlossMorph, ...]]:
    """The tags of the run ``tags`` that ``table`` lacks, and one label
    morph for each label of the run's :func:`_tail`."""
    tail = _tail(table, "+".join(("", *tags)))  # an AnalyzerToken's tag holds no "+"
    return tail.unknown, tuple(map(_label_morph, tail.split.split()))


@lru_cache(maxsize=_MEMO_SIZE)
def _label_morph(label: str) -> GlossMorph:
    """The label morph rendered as ``label``, its joiner first: a few labels
    make every tag run, so each is built once and shared."""
    return GlossMorph(MorphKind.LABEL, label[1:], Joiner(label[0]))


def analyzer_to_gloss(
    tokens: "list[AnalyzerToken] | tuple[AnalyzerToken, ...]",
    table: NormalizationTable,
) -> GlossLine:
    """Convert analyzer output into a gloss with source lemmas.

    Each token becomes one gloss token: the (possibly restored) root as the
    lemma, then the normalized labels of each tag joined by periods.  Tags
    marked verbal in the table (tense/aspect) attach their first label with
    a hyphen instead.  Unknown tags pass through as labels unchanged.  The
    label morphs are those of the labels ``igt parse-analyzer`` writes,
    built once per distinct tag run and table.
    """
    runs = table._tag_runs
    gloss_tokens = []
    for token in tokens:
        lemma = GlossMorph(MorphKind.LEMMA, table._lemma(token.surface), Joiner.WORD_INITIAL)
        gloss_tokens.append(GlossToken((lemma, *runs[token.tags][1])))
    return GlossLine(tokens=tuple(gloss_tokens))


def unknown_analyzer_tags(
    tokens: "list[AnalyzerToken] | tuple[AnalyzerToken, ...]",
    table: NormalizationTable,
) -> list[str]:
    runs = table._tag_runs
    return [tag for token in tokens for tag in runs[token.tags][0]]
