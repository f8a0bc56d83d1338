"""Morpheme-label normalization.

Maps the label variants found in mixed-provenance glosses onto one canonical
set (``Past``, ``pst``, ``PAST`` all become ``PST``), expands person/number
composites (``3SG`` becomes ``3.SG``), and converts morphological-analyzer
tags into gloss labels (``Kadi+A3sg+Pnon+Nom`` becomes
``Kadin.3.SG.NPOSS.NOM``).

Unknown labels pass through unchanged so no information is destroyed; they
can be counted via :func:`unknown_labels` / :func:`unknown_analyzer_tags`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .errors import CycleDetectedError, TableParseError
from .model import (
    GlossLine,
    GlossMorph,
    GlossToken,
    Joiner,
    LemmaSide,
    MorphKind,
    has_delimiter,
    split_lines,
)
from .parsing import AnalyzerToken
from .tables import DEFAULT_TABLE_TEXT

_NUMBER_ALIASES = {"S": "SG", "SING": "SG", "SINGULAR": "SG", "P": "PL", "PLUR": "PL"}

_SECTIONS = ("variants", "composites", "analyzer", "registry", "restore")


@dataclass(frozen=True)
class NormalizationTable:
    """Immutable normalization rules.

    ``person_first`` controls the output order of person/number composite
    expansion: ``3SG`` becomes ``3.SG`` when true (the default) and ``SG.3``
    when false.  Both conventions occur in real gloss data.
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
            raise ValueError("label must be non-empty")
        image = self.variant_map.get(raw)
        if image is not None:
            return image, True
        image = self._casefold_map.get(raw.casefold())
        if image is not None:
            return image, True
        for rule in self.composite_rules:
            match = rule.fullmatch(raw)
            if match is None:
                continue
            person = match.group("person")
            number = match.group("number").upper()
            number = _NUMBER_ALIASES.get(number, number)
            pair = (person, number) if self.person_first else (number, person)
            return pair, True
        if raw.upper() in self.registry:
            return (raw.upper(),), True
        return (raw,), False

    def with_person_first(self, person_first: bool) -> "NormalizationTable":
        return replace(self, person_first=person_first)


def _check_cycles(variant_map: dict[str, tuple[str, ...]]) -> None:
    for start in variant_map:
        seen = {start}
        current = start
        while True:
            image = variant_map.get(current)
            if image is None or len(image) != 1:
                break
            nxt = image[0]
            if nxt == current:
                break
            if nxt in seen:
                raise CycleDetectedError(nxt)
            seen.add(nxt)
            current = nxt


def loads_table(text: str, *, person_first: bool = True) -> NormalizationTable:
    """Parse a normalization table from its text form."""
    variant_map: dict[str, tuple[str, ...]] = {}
    composite_rules: list[re.Pattern] = []
    registry: set[str] = set()
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
            registry.update(line.split())

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
        if not key:
            raise TableParseError("empty key", line=lineno)
        if section == "variants":
            if key in variant_map:
                raise TableParseError(f"duplicate variant {key!r}", line=lineno)
            variant_map[key] = image_of(fields[1].strip(), lineno)
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
            restore_map[key] = fields[1].strip()

    _check_cycles(variant_map)
    return NormalizationTable(
        variant_map=variant_map,
        composite_rules=tuple(composite_rules),
        registry=frozenset(registry),
        analyzer_map=analyzer_map,
        verbal_tags=frozenset(verbal_tags),
        restore_map=restore_map,
        person_first=person_first,
    )


def load_table(path: str, *, person_first: bool = True) -> NormalizationTable:
    with open(path, encoding="utf-8") as handle:
        return loads_table(handle.read(), person_first=person_first)


@lru_cache(maxsize=None)
def default_table(person_first: bool = True) -> NormalizationTable:
    return loads_table(DEFAULT_TABLE_TEXT, person_first=person_first)


def default_label_registry() -> frozenset[str]:
    return default_table().label_registry()


def normalize_label(raw: str, table: NormalizationTable) -> list[str]:
    """Canonical label sequence for one raw label (unknown labels pass
    through unchanged as a single-element list)."""
    labels, _ = table.lookup_label(raw)
    return list(labels)


def _label_morphs(
    labels: tuple[str, ...], first_joiner: Joiner
) -> list[GlossMorph]:
    morphs = []
    for i, label in enumerate(labels):
        joiner = first_joiner if i == 0 else Joiner.PERIOD
        morphs.append(GlossMorph(MorphKind.LABEL, label, joiner, opaque=has_delimiter(label)))
    return morphs


def normalize_gloss_line(line: GlossLine, table: NormalizationTable) -> GlossLine:
    """Replace every label morph by its canonical sequence.

    The first replacement label inherits the original joiner; any further
    labels attach with a period.  Lemma morphs are untouched, so the token
    count never changes and the operation is idempotent.
    """
    new_tokens = []
    for token in line.tokens:
        morphs: list[GlossMorph] = []
        for morph in token.morphs:
            if morph.kind is MorphKind.LABEL:
                labels, _ = table.lookup_label(morph.text)
                morphs.extend(_label_morphs(labels, morph.joiner))
            else:
                morphs.append(morph)
        new_tokens.append(GlossToken(tuple(morphs)))
    return GlossLine(tokens=tuple(new_tokens), lemma_side=line.lemma_side)


def analyzer_to_gloss(
    tokens: "list[AnalyzerToken] | tuple[AnalyzerToken, ...]",
    table: NormalizationTable,
) -> GlossLine:
    """Convert analyzer output into a gloss with source lemmas.

    Each token becomes one gloss token: the (possibly restored) root as the
    lemma, then the normalized labels of each tag joined by periods.  Tags
    marked verbal in the table (tense/aspect) attach their first label with
    a hyphen instead.  Unknown tags pass through as labels unchanged.
    """
    gloss_tokens = []
    for token in tokens:
        lemma_text = table.restore_map.get(token.surface, token.surface)
        morphs = [
            GlossMorph(
                MorphKind.LEMMA, lemma_text, Joiner.WORD_INITIAL, opaque=has_delimiter(lemma_text)
            )
        ]
        for tag in token.tags:
            image = table.analyzer_map.get(tag)
            labels = (tag,) if image is None else image
            if not labels:
                continue
            first = Joiner.HYPHEN if tag in table.verbal_tags else Joiner.PERIOD
            morphs.extend(_label_morphs(labels, first))
        gloss_tokens.append(GlossToken(tuple(morphs)))
    return GlossLine(tokens=tuple(gloss_tokens), lemma_side=LemmaSide.SOURCE)


def unknown_labels(line: GlossLine, table: NormalizationTable) -> list[str]:
    """Label morphs the table cannot resolve (flagged, never dropped)."""
    found = []
    for token in line.tokens:
        for morph in token.morphs:
            if morph.kind is MorphKind.LABEL and not table.lookup_label(morph.text)[1]:
                found.append(morph.text)
    return found


def unknown_analyzer_tags(
    tokens: "list[AnalyzerToken] | tuple[AnalyzerToken, ...]",
    table: NormalizationTable,
) -> list[str]:
    return [tag for token in tokens for tag in token.tags if tag not in table.analyzer_map]
