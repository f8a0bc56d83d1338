"""The ttable and dictionary row reader before its fast path: every row is
split at tabs, stripped field by field, and both words are checked."""

from igtpivot import TableParseError
from igtpivot.model import is_word, split_lines


def reference_read_rows(text, kind, usage, default_prob=None, header=None):
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#" and "\t" not in line:
            key, sep, value = line.lstrip("#").partition("=")
            if sep and header is not None:
                header.append((key.strip(), value.strip(), lineno))
            continue
        fields = [field.strip() for field in raw.rstrip().split("\t")]
        if len(fields) == 2 and default_prob is not None:
            prob = default_prob
        elif len(fields) == 3:
            try:
                prob = float(fields[2])
            except ValueError as exc:
                raise TableParseError(f"bad probability {fields[2]!r}", line=lineno) from exc
            if not 0.0 <= prob <= 1.0:  # also false for nan
                raise TableParseError(f"probability {fields[2]!r} is not in [0, 1]", line=lineno)
        else:
            raise TableParseError(usage, line=lineno)
        for word in fields[:2]:
            if not is_word(word):
                raise TableParseError(
                    f"{kind} word {word!r} is empty or contains whitespace", line=lineno
                )
        yield lineno, fields[0], fields[1], prob
