"""The ttable and dictionary row reader against its reference without the
fast path: the same rows, and the same error with the same message and line."""

from hypothesis import example, given
from hypothesis import strategies as st

from igtpivot import TableParseError
from igtpivot.align import _read_rows
from igtpivot.model import split_lines

from rows_reference import reference_read_rows

USAGE = "expected source<TAB>target<TAB>probability"


def outcome(reader, source, default_prob):
    header = []
    rows = []
    try:
        for row in reader(source, "table", USAGE, default_prob=default_prob, header=header):
            rows.append(row)
    except TableParseError as exc:
        return rows, header, (str(exc), exc.line)
    return rows, header, None


def assert_same(text):
    for default_prob in (None, 1.0):
        assert outcome(_read_rows, split_lines(text), default_prob) == outcome(
            reference_read_rows, text, default_prob
        ), (text, default_prob)


EDGE_LINES = [
    "a\tb\t0.5",
    "a\tb",
    "\ta\tb\t0.5",
    " a\tb\t0.5",
    "a b\tc\t0.5",
    "a\tb c\t0.5",
    "a\u2028b\tc\t0.5",
    "a\tb\u2028\t0.5",
    "a\vb\tc",
    "a\tb\t0.5\v",
    "a\t\tb\t0.5",
    "a \tb\t 0.5 ",
    "a\tb\t0.5\t",
    "a\tb\t0.5\tc",
    "# iterations=5",
    "#a\tb\t0.5",
    "#\tb\t0.5",
    "# comment",
    "a\tb\tnan",
    "a\tb\t1.5",
    "a\tb\tx",
    "a",
    "   ",
    "a\tb\t0.5\r",
]


def test_row_reader_equals_reference_on_each_edge_line():
    for line in EDGE_LINES:
        assert_same(line + "\n")
        assert_same("x\ty\t0.25\n" + line + "\nz\tw\t1\n")


_field = st.sampled_from(["a", "#b", "é", "x y", "", "0.5", "1", "1.5", "nan", "p\u2028q", "p\vq"])
_sep = st.sampled_from(["\t", "\t\t", " ", "\t ", " \t", "\u2028", "\v", "\u3000"])
_edge = st.sampled_from(["", " ", "\t", "\v", "\u2028", "\f"])


@st.composite
def _row(draw):
    fields = draw(st.lists(_field, min_size=1, max_size=4))
    body = fields[0]
    for field in fields[1:]:
        body += draw(_sep) + field
    return draw(_edge) + body + draw(_edge)


@given(st.lists(_row(), min_size=1, max_size=6).map("\n".join))
@example("a\tb\t0.5\n\ta\tb\n a\tb\t1\nx y\tz\t0.1\n# k=v\n")
def test_row_reader_equals_reference(text):
    assert_same(text)
