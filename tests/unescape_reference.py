"""The character loop ``model._unescape`` was before it became one regex
substitution, kept as the reference for the differential test; it reads
the ``\\r`` escape too."""

from igtpivot.errors import MalformedRecordError


def reference_unescape(value: str, *, offset: int, fieldname: str) -> str:
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
            elif nxt == "r":
                out.append("\r")
            else:
                raise MalformedRecordError(
                    f"unknown escape \\{nxt}", offset=offset, field=fieldname
                )
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)
