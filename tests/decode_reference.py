"""The per-line decoder ``model.decode_lines`` was before it decoded whole
buffers of lines, kept as the reference for the differential test: each
line is decoded alone, the first with a leading byte-order mark dropped."""

from typing import Iterable, Iterator

from igtpivot.model import decode_utf8


def reference_decode_lines(lines: Iterable[bytes], source: str) -> Iterator[str]:
    for lineno, raw in enumerate(lines, start=1):
        text = decode_utf8(raw, source, lineno, bom=lineno == 1)
        if text:  # empty only for an input that is just a BOM, which has no line
            yield text.removesuffix("\n").removesuffix("\r")
