"""The ODIN and ToolBox parsers as they were before they became single-pass
generators: each reads the whole text, builds every block or chunk first,
and collects its warnings in a list.  Kept as the reference the streaming
parsers are differential-tested against; built from public names only.  Also
keeps ``parse_analyzer_line`` as it was before it split each token into a
surface and a tag run string that ``iter_pipeline`` reads too.

``reference_block_to_record`` and ``reference_toolbox_records`` are
``block_to_record`` and the streaming ToolBox reader as they were while
each built its records itself, tokenizing each gloss line and constructing
an ``IgtRecord``, before both came to write corpus lines from gloss words:
the reference ``igt parse-odin`` and ``igt parse-toolbox`` are checked
against.  They use the private record-count check and ToolBox chunk reader,
which that change left as they were.

``reference_analyzer_words`` is ``_analyzer_words`` as it was before it
split a token at its first ``+`` with ``str.partition``: the splitter it is
checked against, string by string."""

import re

from igtpivot import (
    AnalyzerToken,
    IgtRecord,
    MalformedTokenError,
    ParseWarning,
    RawIgtBlock,
    TokenCountMismatchError,
    tokenize_gloss,
)
from igtpivot.errors import EMPTY_RECORD, TOKEN_COUNT_MISMATCH, UNKNOWN_MARKER
from igtpivot.model import PUNCT_CHARS, _check_token_counts, as_language_tag, is_punct, split_lines
from igtpivot.parsing import _toolbox_chunks

TOOLBOX_ROLES = frozenset({"source", "gloss_src", "gloss_tgt", "target", "ignore"})
DEFAULT_TOOLBOX_MAP = {"t": "source", "m": "ignore", "g": "gloss_tgt", "f": "target"}
_MARKER_RE = re.compile(r"^\\(\S+)\s*(.*)$")


def _tokenize_optional(text, registry):
    return None if text is None else tokenize_gloss(text, label_registry=registry)


def reference_parse_odin_blocks(text):
    blocks = []
    warnings = []
    run = []
    run_start = 0

    def flush():
        if not run:
            return
        if 3 <= len(run) <= 4:
            blocks.append(RawIgtBlock(lines=tuple(run), start_line=run_start))
        else:
            warnings.append(
                ParseWarning(
                    "BLOCK_SHAPE",
                    f"run of {len(run)} line(s) starting at line {run_start} "
                    "is not a 3-4 line IGT block",
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


def reference_parse_toolbox(
    text, field_map=None, *, lang="und", id_prefix="toolbox", label_registry=None
):
    fmap = {}
    for marker, role in (dict(field_map) if field_map else DEFAULT_TOOLBOX_MAP).items():
        if role not in TOOLBOX_ROLES:
            raise ValueError(f"unknown ToolBox field role {role!r} for marker {marker!r}")
        fmap[marker.lstrip("\\")] = role
    tag = as_language_tag(lang)
    warnings = []
    records = []

    chunks = []  # lists of (marker, content, lineno)
    delimiter = None
    current = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        if not raw.strip():
            continue
        match = _MARKER_RE.match(raw)
        if match is None:
            if current:
                marker, content, start = current[-1]
                current[-1] = (marker, f"{content} {raw.strip()}".strip(), start)
            else:
                warnings.append(
                    ParseWarning("ORPHAN_LINE", "line before the first marker", line=lineno)
                )
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
        fields = {}
        start_line = chunk[0][2]
        for marker, content, lineno in chunk:
            role = fmap.get(marker)
            if role is None:
                warnings.append(
                    ParseWarning("UNKNOWN_MARKER", f"marker \\{marker} has no mapping", line=lineno)
                )
                continue
            if role == "ignore" or not content:
                continue
            fields[role] = f"{fields[role]} {content}".strip() if role in fields else content
        if not fields:
            warnings.append(
                ParseWarning("EMPTY_RECORD", "record has no mapped content", line=start_line)
            )
            continue
        try:
            records.append(
                IgtRecord(
                    id=f"{id_prefix}-{index + 1:04d}",
                    lang=tag,
                    source_text=fields.get("source"),
                    gloss_src=_tokenize_optional(fields.get("gloss_src"), label_registry),
                    gloss_tgt=_tokenize_optional(fields.get("gloss_tgt"), label_registry),
                    target_text=fields.get("target"),
                )
            )
        except TokenCountMismatchError as exc:
            warnings.append(ParseWarning("TOKEN_COUNT_MISMATCH", str(exc), line=start_line))
    return records, warnings


def reference_parse_analyzer_line(line):
    tokens = []
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


def reference_block_to_record(block, lang, record_id="", *, label_registry=None):
    tag = as_language_tag(lang)
    source, *texts, target = block.lines
    glosses = [tokenize_gloss(text, label_registry=label_registry) for text in texts]
    # a 3-line block's one gloss is checked against itself
    _check_token_counts(len(glosses[0].tokens), len(glosses[-1].tokens), line=block.start_line)
    return IgtRecord(
        id=record_id,
        lang=tag,
        source_text=source,
        gloss_src=glosses[0] if len(glosses) == 2 else None,
        gloss_tgt=glosses[-1],
        target_text=target,
    )


def reference_toolbox_records(lines, fmap, tag, id_prefix, warn, label_registry=None):
    for index, chunk in enumerate(_toolbox_chunks(lines, warn), start=1):
        fields = {}
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
        gloss_src, gloss_tgt = [
            None if text is None else tokenize_gloss(text, label_registry=label_registry)
            for text in (fields.get("gloss_src"), fields.get("gloss_tgt"))
        ]
        try:
            record = IgtRecord(
                id=f"{id_prefix}-{index:04d}",
                lang=tag,
                source_text=fields.get("source"),
                gloss_src=gloss_src,
                gloss_tgt=gloss_tgt,
                target_text=fields.get("target"),
            )
        except TokenCountMismatchError as exc:
            warn(ParseWarning(TOKEN_COUNT_MISMATCH, str(exc), line=start_line))
            continue
        yield record


def reference_analyzer_words(line):
    words = []
    for word in line.split():
        core = word.rstrip(PUNCT_CHARS)
        if not core:  # punctuation only
            words.append((word, ""))
            continue
        plus = core.find("+")
        if plus < 0:
            words.append((core, ""))
        else:
            surface, run = core[:plus], core[plus:]
            if not surface:
                raise MalformedTokenError(f"analyzer token has empty surface: {word!r}")
            if run.endswith("+") or "++" in run:
                raise MalformedTokenError(f"analyzer token has an empty tag: {word!r}")
            if is_punct(surface):
                raise MalformedTokenError(f"punctuation token {surface!r} must not carry tags")
            words.append((surface, run))
        if len(core) < len(word):
            words.append((word[len(core) :], ""))
    return words
