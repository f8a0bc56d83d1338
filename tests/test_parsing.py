"""Gloss tokenizer, ODIN block parser, ToolBox parser, analyzer-line parser."""

import contextlib
import io
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot import (
    AnalyzerToken,
    BadFieldRoleError,
    BlockShapeError,
    EmptyLineError,
    LanguageTag,
    MalformedTokenError,
    MorphKind,
    RawIgtBlock,
    TokenCountMismatchError,
    block_to_record,
    dump_corpus,
    parse_analyzer_line,
    parse_odin_blocks,
    parse_toolbox,
    tokenize_gloss,
)
from igtpivot import cli
from igtpivot.model import Joiner, is_punct, split_lines
from igtpivot.parsing import _JOINER_BY_CHAR, _analyzer_words, _delimited_segments, _odin_blocks

from gen_helpers import random_gloss_line
from golden_data import IGT_EXAMPLES
from parsing_reference import (
    reference_analyzer_words,
    reference_parse_analyzer_line,
    reference_parse_odin_blocks,
    reference_parse_toolbox,
)


def kinds(token):
    return [m.kind for m in token.morphs]


def texts(token):
    return [m.text for m in token.morphs]


# --- tokenizer ----------------------------------------------------------------


def test_tokenizer_splits_turkish_sequence_line():
    line = tokenize_gloss("Woman.NOM dance do-AOR.3.SG.")
    rendered = [t.render() for t in line.tokens]
    assert rendered == ["Woman.NOM", "dance", "do-AOR.3.SG", "."]
    woman, dance, do, period = line.tokens
    assert texts(woman) == ["Woman", "NOM"]
    assert kinds(woman) == [MorphKind.LEMMA, MorphKind.LABEL]
    assert texts(dance) == ["dance"]
    assert kinds(dance) == [MorphKind.LEMMA]
    assert texts(do) == ["do", "AOR", "3", "SG"]
    assert kinds(do) == [MorphKind.LEMMA] + [MorphKind.LABEL] * 3
    assert period.is_punctuation


def test_tokenizer_single_word():
    line = tokenize_gloss("hello")
    assert len(line.tokens) == 1
    assert kinds(line.tokens[0]) == [MorphKind.LEMMA]


def test_tokenizer_classifies_uppercase_word_initial_as_label():
    line = tokenize_gloss("3SG always praise 3SG.")
    first = line.tokens[0]
    assert kinds(first) == [MorphKind.LABEL]
    assert texts(first) == ["3SG"]


# hand-tokenized expectations: (token texts, morph texts per token)
HAND_TOKENIZED = {
    "I saw he.DAT the film.ACC like.": [
        ["I"], ["saw"], ["he", "DAT"], ["the"], ["film", "ACC"], ["like"], ["."],
    ],
    "3SG always praise 3SG.": [
        ["3SG"], ["always"], ["praise"], ["3SG"], ["."],
    ],
    "live(at)-3PL on/over-ADV IC.hill(y)-0.PLtree-NA.PL IC.it is-3PL timber.": [
        ["live(at)", "3PL"],
        ["on/over", "ADV"],
        ["IC", "hill(y)", "0", "PLtree", "NA", "PL"],
        ["IC", "it"],
        ["is", "3PL"],
        ["timber"],
        ["."],
    ],
}


@pytest.mark.parametrize("gloss", list(HAND_TOKENIZED))
def test_tokenizer_against_hand_tokenized_oracle(gloss):
    line = tokenize_gloss(gloss)
    assert [texts(t) for t in line.tokens] == HAND_TOKENIZED[gloss]


@pytest.mark.parametrize("gloss", [example[1] for example in IGT_EXAMPLES])
def test_tokenizer_round_trips_example_glosses(gloss):
    line = tokenize_gloss(gloss)
    rendered = line.render()
    assert rendered == " ".join(gloss.split())
    assert tokenize_gloss(rendered) == line


def test_tokenizer_round_trip_random_lines():
    rng = random.Random(5150)
    for _ in range(200):
        line = random_gloss_line(rng, rng.randint(1, 6))
        rendered = line.render()
        assert tokenize_gloss(rendered) == line


_JOINERS = {"-": Joiner.HYPHEN, ".": Joiner.PERIOD, "=": Joiner.EQUALS}


def _reference_split_segments(core):
    """The per-character splitter the regular expression replaced."""
    segments = []
    joiner = Joiner.WORD_INITIAL
    buf = []
    for i, ch in enumerate(core):
        if ch in "-.=":
            nxt = core[i + 1] if i + 1 < len(core) else None
            if buf and nxt is not None and nxt not in "-.=":
                segments.append((joiner, "".join(buf)))
                buf = []
                joiner = _JOINERS[ch]
            else:
                buf.append(ch)
        else:
            buf.append(ch)
    segments.append((joiner, "".join(buf)))
    return segments


def _split_segments(core):
    """The splitter's segments with each delimiter as its ``Joiner``."""
    return [(_JOINER_BY_CHAR[delimiter], text) for delimiter, text in _delimited_segments(core)]


def test_split_segments_equals_per_character_reference_exhaustively():
    for length in range(1, 8):
        for chars in itertools.product("a-.=", repeat=length):
            core = "".join(chars)
            assert _split_segments(core) == _reference_split_segments(core), core


_gloss_word = st.text(st.sampled_from("aZ9\u00e9X-.=,"), min_size=1, max_size=8)


@given(st.lists(_gloss_word, min_size=1, max_size=5))
def test_tokenizer_render_is_identity_with_edge_and_doubled_delimiters(words):
    # a punctuation-only word after the first renders attached to its neighbour
    words = [w for i, w in enumerate(words) if i == 0 or not is_punct(w)]
    line = " ".join(words)
    assert tokenize_gloss(line).render() == line
    for word in words:
        if not is_punct(word):
            core = word.rstrip(".,")
            assert _split_segments(core) == _reference_split_segments(core)


def test_tokenizer_keeps_unsplittable_delimiters_opaque():
    line = tokenize_gloss("admire-Progr.-Rep.Past.")
    token = line.tokens[0]
    assert texts(token) == ["admire", "Progr.", "Rep", "Past"]
    assert [m.opaque for m in token.morphs] == [False, True, False, False]
    assert line.render() == "admire-Progr.-Rep.Past."


def test_tokenizer_rejects_empty_line():
    with pytest.raises(EmptyLineError):
        tokenize_gloss("   ")


def test_tokenizer_respects_custom_registry():
    line = tokenize_gloss("walk-kap", label_registry=frozenset({"kap"}))
    assert kinds(line.tokens[0]) == [MorphKind.LEMMA, MorphKind.LABEL]
    line2 = tokenize_gloss("walk-kap", label_registry=frozenset())
    assert kinds(line2.tokens[0]) == [MorphKind.LEMMA, MorphKind.LEMMA]


# --- ODIN blocks ----------------------------------------------------------------


def test_blocks_split_on_blank_lines():
    text = "a b\nc d\ne f\n\ng h\ni j\nk l\nm n\n"
    blocks, warnings = parse_odin_blocks(text)
    assert len(blocks) == 2
    assert not warnings
    assert blocks[0].lines == ("a b", "c d", "e f")
    assert blocks[1].lines == ("g h", "i j", "k l", "m n")


def test_overlong_run_is_warned_with_line_number():
    text = "1\n2\n3\n4\n5\n\nok line\nsecond\nthird\n"
    blocks, warnings = parse_odin_blocks(text)
    assert len(blocks) == 1
    assert len(warnings) == 1
    assert warnings[0].code == "BLOCK_SHAPE"
    assert warnings[0].line == 1
    assert "5 line(s)" in warnings[0].message


def test_single_line_run_is_warned():
    blocks, warnings = parse_odin_blocks("lonely\n\na\nb\nc\n")
    assert len(blocks) == 1
    assert len(warnings) == 1


def test_every_line_lands_in_a_block_or_warning():
    text = "a\nb\n\nc\n\nd\ne\nf\ng\nh\ni\n\nj\nk\nl\n"
    blocks, warnings = parse_odin_blocks(text)
    lines_in_blocks = sum(len(b.lines) for b in blocks)
    # reconstruct warned run lengths from the messages
    warned = sum(int(w.message.split(" line(s)")[0].split()[-1]) for w in warnings)
    non_blank = sum(1 for line in text.splitlines() if line.strip())
    assert lines_in_blocks + warned == non_blank


def test_example_file_parses_into_three_blocks():
    text = "\n\n".join("\n".join(example[:3]) for example in IGT_EXAMPLES) + "\n"
    blocks, warnings = parse_odin_blocks(text)
    assert len(blocks) == 3
    assert not warnings
    # for the German and Hmong examples the gloss has exactly one token per
    # source word; the Arapaho field data is noisier (merged words), so its
    # counts genuinely differ
    for block in blocks[:2]:
        source_tokens = tokenize_gloss(block.lines[0])
        gloss_tokens = tokenize_gloss(block.lines[1])
        assert len(source_tokens.tokens) == len(gloss_tokens.tokens)


def test_block_shape_validation():
    with pytest.raises(BlockShapeError):
        RawIgtBlock(lines=("only",))
    with pytest.raises(BlockShapeError):
        RawIgtBlock(lines=("1", "2", "3", "4", "5"))
    with pytest.raises(BlockShapeError, match="^block lines must be non-empty after trimming$"):
        RawIgtBlock(lines=("src", " \t", "the target"))


def test_block_to_record_maps_three_lines():
    source, gloss, target, lang = IGT_EXAMPLES[1]
    block = RawIgtBlock(lines=(source, gloss, target))
    record = block_to_record(block, lang, record_id="hmong-1")
    assert record.lang == LanguageTag("blu")
    assert record.source_text == source
    assert record.gloss_src is None
    assert record.gloss_tgt is not None
    assert record.gloss_tgt.render() == gloss
    assert record.target_text == target


def test_block_to_record_maps_four_lines():
    block = RawIgtBlock(
        lines=("Kadin dans ediyor.", "Kadin.NOM dance ediyor-AOR.3.SG.",
               "Woman.NOM dance do-AOR.3.SG.", "The woman dances.")
    )
    record = block_to_record(block, "tur")
    assert record.gloss_src is not None


def test_block_to_record_rejects_gloss_count_mismatch():
    block = RawIgtBlock(
        lines=("src src src", "a b c d", "a b c d e", "the target")
    )
    with pytest.raises(TokenCountMismatchError):
        block_to_record(block, "und")


def test_block_to_record_rejects_two_line_block():
    # no 2-line block reaches block_to_record: the block itself refuses two lines
    with pytest.raises(BlockShapeError, match=r"^block must have 3-4 lines, got 2$"):
        RawIgtBlock(lines=("a", "b"))


def test_block_errors_name_the_blocks_start_line():
    text = "one\ntwo\nthree\n\nsrc\na b\na b c\nthe target\n\nx\ny\n"
    blocks, warnings = parse_odin_blocks(text)
    assert [block.start_line for block in blocks] == [1, 5]
    assert block_to_record(blocks[0], "und").gloss_tgt.render() == "two"
    with pytest.raises(TokenCountMismatchError, match=r"^line 5: gloss token counts differ"):
        block_to_record(blocks[1], "und")
    # the 2-line run is a warning that names its line, not a block
    assert [(w.code, w.line) for w in warnings] == [("BLOCK_SHAPE", 10)]
    # a hand-built block has no start line, and its error names none
    with pytest.raises(TokenCountMismatchError, match=r"^gloss token counts differ"):
        block_to_record(RawIgtBlock(lines=("src", "a b", "a b c", "the target")), "und")


def test_block_error_carries_the_start_line_as_data():
    block = RawIgtBlock(lines=("src", "a b", "a b c", "the target"), start_line=7)
    with pytest.raises(TokenCountMismatchError) as caught:
        block_to_record(block, "und")
    assert caught.value.line == block.start_line
    assert str(caught.value) == f"line 7: {caught.value.args[0]}"
    assert not caught.value.args[0].startswith("line")


# --- ToolBox ---------------------------------------------------------------------


TOOLBOX_TEXT = """\
\\t Nwg yeej qhuas nwg.
\\m nwg yeej qhuas nwg
\\g 3SG always praise 3SG.
\\f He always praises himself.

\\t Kadin dans ediyor.
\\g Woman.NOM dance
\\g do-AOR.3.SG.
\\f The woman dances.
"""


def test_toolbox_two_records_with_default_map():
    records, warnings = parse_toolbox(TOOLBOX_TEXT, lang="blu")
    assert len(records) == 2
    assert not warnings
    assert records[0].source_text == "Nwg yeej qhuas nwg."
    assert records[0].gloss_tgt.render() == "3SG always praise 3SG."
    assert records[0].target_text == "He always praises himself."
    # repeated \g markers concatenate
    assert records[1].gloss_tgt.render() == "Woman.NOM dance do-AOR.3.SG."


def test_toolbox_continuation_lines_fold():
    text = "\\t first part\n   continued here\n\\f the target\n"
    records, _ = parse_toolbox(text, lang="und")
    assert records[0].source_text == "first part continued here"


def test_toolbox_unknown_marker_warns():
    text = "\\t source\n\\zz mystery\n\\f target\n"
    records, warnings = parse_toolbox(text, lang="und")
    assert len(records) == 1
    assert any(w.code == "UNKNOWN_MARKER" for w in warnings)


def test_toolbox_empty_record_skipped_with_warning():
    text = "\\t\n\\g\n\\f\n\n\\t real\n\\f target\n"
    records, warnings = parse_toolbox(text, lang="und")
    assert len(records) == 1
    assert any(w.code == "EMPTY_RECORD" for w in warnings)


def test_toolbox_matches_block_semantics_on_arapaho_example():
    source, gloss, target, lang = IGT_EXAMPLES[2]
    toolbox = f"\\t {source}\n\\g {gloss}\n\\f {target}\n"
    records, warnings = parse_toolbox(toolbox, lang=lang, id_prefix="x")
    assert not warnings
    block_record = block_to_record(
        RawIgtBlock(lines=(source, gloss, target)), lang, record_id="x-0001"
    )
    assert records[0] == block_record


def test_toolbox_custom_map_and_gloss_src():
    text = "\\ref 001\n\\tx source text\n\\ga src.GLOSS ok\n\\ge tgt.GLOSS ok\n\\ft target\n"
    field_map = {
        "ref": "ignore",
        "tx": "source",
        "ga": "gloss_src",
        "ge": "gloss_tgt",
        "ft": "target",
    }
    records, warnings = parse_toolbox(text, field_map, lang="und")
    assert not warnings
    assert records[0].gloss_src is not None
    assert records[0].gloss_src.render() == "src.GLOSS ok"


def test_toolbox_orphan_lines_warn_with_line_number():
    text = "stray header\n\n  also stray\n\\t source\n\\f target\n"
    records, warnings = parse_toolbox(text, lang="und")
    assert len(records) == 1
    assert [(w.code, w.line) for w in warnings] == [("ORPHAN_LINE", 1), ("ORPHAN_LINE", 3)]
    assert str(warnings[0]) == "ORPHAN_LINE: line before the first marker (line 1)"


TOOLBOX_WITH_HEADER = (
    "\\_sh v3.0 400 Text\n\n\\t a b\n\\g x y\n\\f one\n\n\\t c d\n\\g z w\n\\f two\n"
)


def test_toolbox_header_is_skipped_and_is_not_the_delimiter():
    records, warnings = parse_toolbox(TOOLBOX_WITH_HEADER, lang="arp", id_prefix="arp")
    assert warnings == []
    assert [(r.id, r.source_text, r.target_text) for r in records] == [
        ("arp-0001", "a b", "one"), ("arp-0002", "c d", "two"),
    ]


def test_toolbox_rejects_a_marker_mapped_twice():
    with pytest.raises(BadFieldRoleError, match=r"^ToolBox marker \\t is mapped twice$"):
        parse_toolbox("\\t x\n", {"\\t": "source", "t": "target"}, lang="und")


@pytest.mark.parametrize("marker", ["", "\\"])
def test_toolbox_rejects_an_empty_marker(marker):
    # no line has an empty marker, so the mapping could only be ignored
    message = rf"^empty ToolBox marker {re.escape(repr(marker))} for role 'source'$"
    with pytest.raises(BadFieldRoleError, match=message):
        parse_toolbox("\\t x\n", {marker: "source"}, lang="und")


@pytest.mark.parametrize("marker, message", [
    ("_sh", r"^ToolBox marker '_sh' starts a skipped header line$"),
    ("\\_sh", r"^ToolBox marker '\\\\_sh' starts a skipped header line$"),
    ("t x", r"^ToolBox marker 't x' holds whitespace$"),
    ("t\tx", r"^ToolBox marker 't\\tx' holds whitespace$"),
])
def test_toolbox_rejects_a_marker_no_line_can_carry(marker, message):
    # a header line is skipped and a marker ends at whitespace, so the
    # mapping could only be ignored
    with pytest.raises(BadFieldRoleError, match=message) as caught:
        parse_toolbox("\\_sh v3.0\n\\t x\n", {marker: "source"}, lang="und")
    assert caught.value.code == "BAD_FIELD_ROLE"


def _is_marker_line(line):
    return line.startswith("\\") and len(line) > 1 and not line[1].isspace()


@given(
    st.lists(
        st.one_of(
            st.text("ab \\", max_size=5),
            st.sampled_from(["\\t x", "\\f y", "\\zz z", "\\t", "  \\f indented"]),
        ),
        max_size=12,
    )
)
def test_toolbox_accounts_for_every_nonblank_line(lines):
    _, warnings = parse_toolbox("".join(line + "\n" for line in lines), lang="und")
    orphans = [w.line for w in warnings if w.code == "ORPHAN_LINE"]
    markers = [n for n, line in enumerate(lines, start=1) if _is_marker_line(line)]
    first_marker = markers[0] if markers else len(lines) + 1
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            assert n not in orphans
        elif n < first_marker:
            assert n in orphans  # before any marker: named by a warning
        else:
            assert n not in orphans  # a marker line or a folded continuation
    assert len(orphans) == len(set(orphans))


def test_toolbox_rejects_unknown_role():
    message = r"^unknown ToolBox field role 'sideways' for marker 't'$"
    with pytest.raises(BadFieldRoleError, match=message) as caught:
        parse_toolbox("\\t x\n", {"t": "sideways"}, lang="und")
    assert caught.value.code == "BAD_FIELD_ROLE"
    assert isinstance(caught.value, ValueError)


# --- the streaming parsers against the whole-text ones they replaced -------------


_BLANK = st.sampled_from(["", " ", "\t ", "\u2028"])  # U+2028 is whitespace inside a line
_WORD = st.sampled_from(["kadin", "dans-NOM", "3.SG", "ev=DAT", "gel-PST", ".", "a", "b?"])
_INDENT = st.sampled_from(["", " ", "\t"])
_TEXT_LINE = st.tuples(_INDENT, st.lists(_WORD, min_size=1, max_size=4)).map(
    lambda parts: parts[0] + " ".join(parts[1])
)


@st.composite
def _file_text(draw, runs):
    """The lines of ``runs`` (lists of non-blank lines), each run after one or
    two blank or whitespace-only lines, ended by ``\\n`` or ``\\r\\n``; the
    last line end may be missing."""
    lines = draw(st.lists(_BLANK, max_size=2))
    for index, run in enumerate(runs):
        if index:
            lines += draw(st.lists(_BLANK, min_size=1, max_size=2))
        lines += run
    lines += draw(st.lists(_BLANK, max_size=2))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


_ODIN_TEXT = st.lists(st.lists(_TEXT_LINE, min_size=1, max_size=6), max_size=6).flatmap(_file_text)


@settings(max_examples=200, deadline=None)
@given(_ODIN_TEXT)
def test_odin_blocks_and_warnings_match_the_whole_text_parser(text):
    # blocks with their lines and start lines; warnings with code, message, line and order
    assert parse_odin_blocks(text) == reference_parse_odin_blocks(text)


def test_odin_blocks_read_no_further_than_the_run_they_yield():
    lines = split_lines("a\nb\nc\n\nlone\n\nd\ne\nf\ng\n")
    read, warnings = [], []

    def source():
        for line in lines:
            read.append(line)
            yield line

    blocks = _odin_blocks(source(), warnings.append)
    assert next(blocks).lines == ("a", "b", "c") and read == lines[:4] and warnings == []
    assert next(blocks).start_line == 7
    assert [w.line for w in warnings] == [5]  # met before the second block was yielded
    assert list(blocks) == [] and read == lines


# markers of the default map and of _TOOLBOX_MAP, an unknown one (\zz), an empty
# field, and glosses of two and three tokens, so that the two gloss sides of a
# record can differ in count
_TOOLBOX_FIELD = st.sampled_from([
    "\\t kadin dans ediyor.", "\\t", "\\m kadin-NOM dans", "\\m kadin-NOM dans et-PROG",
    "\\g woman-NOM dance", "\\g woman-NOM dance do-PROG", "\\g", "\\f The woman dances.",
    "\\zz mystery", "\\ref 001", "  folded continuation", "more-PL",
])
_TOOLBOX_MAP = {"t": "source", "m": "gloss_src", "\\g": "gloss_tgt", "f": "target", "ref": "ignore"}
_TOOLBOX_RECORD = st.tuples(
    st.sampled_from(["\\t Nwg yeej.", "\\ref 002"]), st.lists(_TOOLBOX_FIELD, max_size=5)
).map(lambda parts: [parts[0], *parts[1]])
# orphan lines come before the first record
_TOOLBOX_TEXT = st.tuples(
    st.lists(st.sampled_from(["stray header", "  also stray"]), max_size=2),
    st.lists(_TOOLBOX_RECORD, max_size=6),
).flatmap(lambda parts: _file_text([parts[0], *parts[1]] if parts[0] else parts[1]))


@settings(max_examples=200, deadline=None)
@given(_TOOLBOX_TEXT, st.sampled_from([None, _TOOLBOX_MAP]))
def test_toolbox_records_and_warnings_match_the_whole_text_parser(text, field_map):
    # records with their ids; ORPHAN_LINE, UNKNOWN_MARKER, EMPTY_RECORD and
    # TOKEN_COUNT_MISMATCH warnings with code, message, line and order
    found = parse_toolbox(text, field_map, lang="blu", id_prefix="tb")
    assert found == reference_parse_toolbox(text, field_map, lang="blu", id_prefix="tb")



def _run_cli(tmp_path_factory, command, text, *flags):
    """``igt COMMAND`` over ``text``: exit code, output file bytes, stderr."""
    directory = tmp_path_factory.mktemp(command)
    source, out = directory / "in.txt", directory / "out.igt"
    source.write_bytes(text.encode("utf-8"))
    out.write_bytes(b"old\n")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--in", str(source), "--lang", "tur", *flags, "--out", str(out)])
    return code, out.read_bytes(), stderr.getvalue()


def _warned(warnings):
    return "".join(f"igt: warning: {w}\n" for w in warnings)


@settings(max_examples=100, deadline=None)
@given(_ODIN_TEXT)
def test_parse_odin_writes_and_warns_as_the_whole_text_parser(tmp_path_factory, text):
    blocks, warnings = reference_parse_odin_blocks(text)
    records = []
    for index, block in enumerate(blocks, start=1):
        try:
            records.append(block_to_record(block, "tur", record_id=f"odin-{index:04d}"))
        except TokenCountMismatchError as exc:
            # the output is untouched, and only the runs before the bad block have warned
            before = [w for w in warnings if w.line < block.start_line]
            expected = (1, b"old\n", f"{_warned(before)}igt: TOKEN_COUNT_MISMATCH: {exc}\n")
            break
    else:
        expected = (0, dump_corpus(records).encode("utf-8"), _warned(warnings))
    assert _run_cli(tmp_path_factory, "parse-odin", text) == expected


@settings(max_examples=100, deadline=None)
@given(_TOOLBOX_TEXT)
def test_parse_toolbox_writes_and_warns_as_the_whole_text_parser(tmp_path_factory, text):
    records, warnings = reference_parse_toolbox(text, _TOOLBOX_MAP, lang="tur", id_prefix="tb")
    expected = (0, dump_corpus(records).encode("utf-8"), _warned(warnings))
    flags = ["--id-prefix", "tb", "--map", "t=source,m=gloss_src,\\g=gloss_tgt,f=target,ref=ignore"]
    assert _run_cli(tmp_path_factory, "parse-toolbox", text, *flags) == expected


# --- analyzer output ---------------------------------------------------------------


def test_analyzer_line_splits_tags_and_final_punctuation():
    tokens = parse_analyzer_line(
        "Kadi+A3sg+Pnon+Nom dans+A3sg+Pnon+Nom et+Prog1+A3sg."
    )
    assert len(tokens) == 4
    assert tokens[0] == AnalyzerToken("Kadi", ("A3sg", "Pnon", "Nom"))
    assert tokens[2] == AnalyzerToken("et", ("Prog1", "A3sg"))
    assert tokens[3] == AnalyzerToken(".")
    assert tokens[3].is_punctuation


def test_analyzer_token_without_tags():
    tokens = parse_analyzer_line("ne")
    assert tokens == [AnalyzerToken("ne", ())]


def test_analyzer_rejects_empty_surface():
    with pytest.raises(MalformedTokenError):
        parse_analyzer_line("+Nom")


def test_analyzer_rejects_empty_tag():
    with pytest.raises(MalformedTokenError):
        parse_analyzer_line("kadi++Nom")


def _parsed_or_error(parse, line):
    try:
        return parse(line)
    except MalformedTokenError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(st.text(st.sampled_from("aB+.!,  "), max_size=14))
def test_analyzer_line_equals_the_per_token_reference_on_any_line(line):
    # empty surfaces and tags, punctuation surfaces with tags, and trailing
    # punctuation runs, accepted or rejected with the same message
    assert _parsed_or_error(parse_analyzer_line, line) == _parsed_or_error(
        reference_parse_analyzer_line, line
    )


def test_analyzer_words_equal_the_find_and_slice_reference_on_every_short_line():
    # every string of length 0-6 over these six characters: empty surfaces
    # and tags, tagged punctuation, trailing punctuation, upper and lower case
    alphabet = "aA+., "
    for length in range(7):
        for chars in itertools.product(alphabet, repeat=length):
            line = "".join(chars)
            assert _parsed_or_error(_analyzer_words, line) == _parsed_or_error(
                reference_analyzer_words, line
            ), line


def test_analyzer_punctuation_token_must_not_carry_tags():
    with pytest.raises(MalformedTokenError):
        AnalyzerToken(".", ("Nom",))


@pytest.mark.parametrize(
    "surface, tags, message",
    [
        ("", (), "analyzer token has empty surface"),
        ("gel", ("", "a b", "Past+A3sg"), "analyzer tag is empty or has whitespace"),
        ("gel", ("Past", "a b"), "analyzer tag is empty or has whitespace"),
        ("gel", ("A3sg\u2028",), "analyzer tag is empty or has whitespace"),
        ("gel", ("Past+A3sg",), "analyzer tag holds a '+'"),
    ],
)
def test_a_hand_built_analyzer_token_that_its_text_would_not_give_back_is_rejected(
    surface, tags, message
):
    # parse_analyzer_line rejects the rendering of each: an empty tag, or a
    # tag split in two at whitespace or at a "+"
    with pytest.raises(MalformedTokenError) as info:
        AnalyzerToken(surface, tags)
    assert str(info.value) == (f"{message}: {tags!r}" if tags else message)


@pytest.mark.parametrize(
    "surface, tags, message",
    [
        ("a+b", ("Nom",), "analyzer surface holds a '+' or whitespace"),
        ("ge l", (), "analyzer surface holds a '+' or whitespace"),
        ("gel\u2028", ("Nom",), "analyzer surface holds a '+' or whitespace"),
        ("gel.", (), "untagged analyzer surface ends in punctuation"),
        ("B!?", (), "untagged analyzer surface ends in punctuation"),
    ],
)
def test_a_hand_built_analyzer_surface_that_its_text_would_not_give_back_is_rejected(
    surface, tags, message
):
    # its text would split at the "+" or the whitespace, or split off the
    # trailing punctuation as a token of its own
    with pytest.raises(MalformedTokenError) as info:
        AnalyzerToken(surface, tags)
    assert str(info.value) == f"{message}: {surface!r}"


@settings(max_examples=300)
@given(
    st.text(st.sampled_from("aB+.! "), max_size=5),
    st.lists(st.text(st.sampled_from("aB"), min_size=1, max_size=2), max_size=2),
)
def test_a_hand_built_analyzer_token_reads_back_from_its_text_or_is_rejected(surface, tags):
    # a tagged surface may end in punctuation: "B.+B" reads back as B. with
    # tag B; tags that are punctuation are not drawn
    try:
        token = AnalyzerToken(surface, tuple(tags))
    except MalformedTokenError:
        return
    assert parse_analyzer_line(token.render()) == [token]


def test_analyzer_segments_rejoin_to_input():
    line = "Ali+A3sg+Pnon+Nom hakkinda+A3sg+P3sg+Loc ne düünüyor+A3sg+Pnon+Nom?"
    tokens = parse_analyzer_line(line)
    rebuilt = []
    for token in tokens:
        if token.is_punctuation and rebuilt:
            rebuilt[-1] += token.surface
        else:
            rebuilt.append(token.render())
    assert " ".join(rebuilt) == line


def test_analyzer_empty_line_gives_no_tokens():
    assert parse_analyzer_line("") == []
    assert parse_analyzer_line("   ") == []
