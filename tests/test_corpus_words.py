"""``igt parse-odin``, ``igt parse-toolbox``, ``igt split`` and ``igt
prepare-multi`` write corpus lines and training pairs from gloss words,
building no gloss or record object.  They must do what the record path does
(``serialize_record`` of each record that ``block_to_record`` and the ToolBox
reader built while they tokenized each gloss and constructed the record
themselves, ``dump_corpus`` of the parts of ``split_corpus(load_corpus(...))``,
and ``_training_pairs(iter_corpus(...))``): the same stdout, files, stderr
and exit code, warnings and errors with their lines included.  The one
difference is that ``prepare-multi`` rejects a target that would not stay
one line of its file, where the record path wrote it and misaligned the two
files."""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot import (
    GlossMorph,
    GlossToken,
    IgtRecord,
    LanguageTag,
    MalformedRecordError,
    ParseWarning,
    dump_corpus,
    iter_corpus,
    load_corpus,
    serialize_record,
    split_corpus,
)
from igtpivot import parsing
from igtpivot.cli import main
from igtpivot.model import _escape, split_lines
from igtpivot.pipeline import _training_pairs

from parsing_reference import reference_block_to_record, reference_toolbox_records


def reference_corpus_lines(blocks, lang, id_prefix):
    for index, block in enumerate(blocks, start=1):
        record = reference_block_to_record(block, lang, record_id=f"{id_prefix}-{index:04d}")
        yield serialize_record(record)


def reference_toolbox_lines(lines, fmap, tag, id_prefix, warn):
    return map(serialize_record, reference_toolbox_records(lines, fmap, tag, id_prefix, warn))


def reference_pairs(lines, split_morphs, warn):
    """The record path's pairs, each target checked as prepare-multi checks it,
    and each warning given the line of its record."""
    at = [0]  # the number of the line iter_corpus has just read

    def numbered():
        for at[0], line in enumerate(lines, start=1):
            yield line

    def warn_at(warning):
        warn(ParseWarning(warning.code, warning.message, line=at[0]))

    for source, target in _training_pairs(iter_corpus(numbered()), split_morphs, warn_at):
        if split_lines(target + "\n") != [target]:
            error = MalformedRecordError(
                f"tgt {target!r} would not read back as one line of the target file", field="tgt"
            )
            error.line = at[0]
            raise error
        yield source, target


def run(command, text, *flags):
    """Exit code, stdout, stderr and the output files' bytes (``None`` for a
    file not written) of ``igt command`` on input ``text``."""
    with tempfile.TemporaryDirectory() as work:
        infile = os.path.join(work, "in.txt")
        with open(infile, "wb") as handle:
            handle.write(text.encode("utf-8"))
        if command in ("parse-odin", "parse-toolbox"):
            argv, outputs = [command, "--in", infile, "--lang", "tur"], []
        elif command == "split":
            outputs = [os.path.join(work, name) for name in ("train", "valid", "test")]
            argv = ["split", "--in", infile, "--train-out", outputs[0], "--valid-out", outputs[1],
                    "--test-out", outputs[2]]
        else:
            outputs = [os.path.join(work, name) for name in ("m.src", "m.tgt")]
            argv = ["prepare-multi", "--in", infile, "--src-out", outputs[0], "--tgt-out", outputs[1]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, *flags])
        files = []
        for path in outputs:
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    files.append(handle.read())
            else:
                files.append(None)
    return code, stdout.getvalue(), stderr.getvalue(), files


def run_reference(command, text, *flags):
    """:func:`run` with the record path in place of the gloss-word path."""
    if command == "parse-odin":
        patch = mock.patch.object(parsing, "_corpus_lines", reference_corpus_lines)
    elif command == "parse-toolbox":
        patch = mock.patch.object(parsing, "_toolbox_lines", reference_toolbox_lines)
    else:
        patch = mock.patch.object(parsing, "_corpus_pairs", reference_pairs)
    with patch:
        return run(command, text, *flags)


# --- generated inputs ------------------------------------------------------------------

# labels before a lemma, clitics, trailing punctuation runs, punctuation-only
# words, the placeholder, opaque and edge delimiters, backslashes, non-ASCII
_WORD = st.one_of(
    st.sampled_from([
        "ev", "Kadin", "3SG-see", "NOM.ev", "a=b", "do-AOR.3.SG", "x!?.", "ev-PL,", ",", "!?",
        ".", "...", "_", "a..b", "-a", "x-", "=", "a.", "..a", "a-.b", "3.SG", "Progr.-Rep.Past.",
        "back\\slash", "düü-PL", "ABD.3.SG", "live(at)-3PL", "a=b=c.", "-", ".3",
    ]),
    st.text(st.sampled_from("aZ3-.=,!?;:_\\é"), min_size=1, max_size=6),
)
# Unicode whitespace separates words; none of it ends a line
_SPACE = st.sampled_from([" ", "  ", "\t", " ", " ", "　", "\v", "\f", " ", "\x85"])
_gloss = st.lists(st.tuples(_SPACE, _WORD), min_size=1, max_size=7).map(
    lambda pairs: "".join(space + word for space, word in pairs)
)
# free text: tabs and backslashes to escape, and a lone carriage return
_text = st.text(st.sampled_from("ab é.\t\\\r= "), min_size=1, max_size=8)


def _same_count(gloss):
    """A gloss with the tokens of ``gloss`` and other lemmas."""
    return gloss.replace("a", "o").replace("e", "i")


@st.composite
def odin_text(draw):
    """Runs of 1-5 lines between blank ones: blocks of 3 and 4 lines,
    misshapen runs, and 4-line blocks whose glosses may differ in count."""
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.sampled_from([3, 4, 4, 1, 2, 5]))
        if size not in (3, 4):
            runs.append([draw(_text.filter(str.strip)) for _ in range(size)])
            continue
        gloss = draw(_gloss)
        lines = [draw(_text.filter(str.strip)), gloss, draw(_text.filter(str.strip))]
        if size == 4:
            other = draw(st.one_of(st.just(_same_count(gloss)), _gloss))
            lines.insert(1, other)
        runs.append([draw(st.sampled_from(["", " ", "\t"])) + line for line in lines])
    blanks = draw(st.lists(st.sampled_from(["", "  ", "\t"]), min_size=len(runs), max_size=len(runs)))
    return "".join("\n".join(run) + "\n" + blank + "\n" for run, blank in zip(runs, blanks))


# every way a corpus line can be malformed
FAULTS = {
    "no '='": "id=x\tlang=tur\tsrc",
    "unknown field": "id=x\tlang=tur\tbogus=1",
    "duplicate field": "id=x\tlang=tur\tsrc=a\tsrc=b",
    "missing id": "lang=tur\tsrc=a",
    "missing lang": "id=x\tsrc=a",
    "bad lang": "id=x\tlang=TUR\tsrc=a",
    "unknown escape": "id=x\tlang=tur\tsrc=a\\q",
    "dangling escape": "id=x\tlang=tur\ttgt=a\\",
    "empty gloss_src": "id=x\tlang=tur\tgloss_src= \\t ",
    "empty gloss_tgt": "id=x\tlang=tur\tgloss_tgt=　\ttgt=a",
    "no content": "id=x\tlang=tur\tprov=notes",
    "token counts": "id=x\tlang=tur\tgloss_src=a b\tgloss_tgt=a b c\ttgt=t",
    "tgt with a line break": "id=x\tlang=tur\tgloss_tgt=a\ttgt=one\\ntwo",
    "tgt ending in \\r": "id=x\tlang=tur\tgloss_tgt=a\ttgt=one\\r",
}


@st.composite
def corpus_line(draw):
    fields = [("id", draw(st.sampled_from(["", "x", "rec-1", "a\\tb"])))]
    fields.append(("lang", draw(st.sampled_from(["tur", "blu", "arp"]))))
    for key, values in (("src", _text), ("gloss_src", _gloss), ("gloss_tgt", _gloss),
                        ("tgt", _text), ("prov", _text)):
        if draw(st.booleans()):
            fields.append((key, _escape(draw(values))))
    keys = [key for key, _ in fields]
    if "gloss_src" in keys and "gloss_tgt" in keys and draw(st.booleans()):
        # the target gloss's tokens, other lemmas
        fields[keys.index("gloss_src")] = ("gloss_src", _same_count(dict(fields)["gloss_tgt"]))
    if not {"src", "gloss_src", "gloss_tgt", "tgt"} & set(keys):
        fields.append(("tgt", "t"))
    fields = draw(st.permutations(fields))
    return "\t".join(f"{key}={value}" for key, value in fields)


@st.composite
def corpus_text(draw):
    """Corpus lines, blank ones among them, and now and then one malformed line."""
    lines = draw(st.lists(st.one_of(corpus_line(), st.sampled_from(["", "  "])), min_size=1, max_size=6))
    if draw(st.integers(0, 2)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(sorted(FAULTS.values()))))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(odin_text())
def test_parse_odin_matches_the_record_path(text):
    assert run("parse-odin", text) == run_reference("parse-odin", text)


_TOOLBOX_MAP = "t=source,m=gloss_src,g=gloss_tgt,f=target"


@st.composite
def toolbox_text(draw):
    """ToolBox lines: records whose glosses may differ in count, and among
    them unknown markers, empty fields, continuation lines, headers and
    blank lines; lines before the first marker are orphans."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        gloss = draw(_gloss)
        other = draw(st.one_of(st.just(_same_count(gloss)), _gloss))
        fields = [("t", draw(_text)), ("m", other), ("g", gloss), ("f", draw(_text))]
        record = [f"\\{marker} {content}" for marker, content in draw(st.permutations(fields))]
        for _ in range(draw(st.integers(0, 3))):
            extra = draw(st.one_of(
                st.sampled_from(["", "\\zz mystery", "\\g", "\\_sh v3.0 400 Text", "\\m  "]),
                _gloss,  # a continuation line, or an orphan before the first marker
            ))
            record.insert(draw(st.integers(0, len(record))), extra)
        lines.extend(record)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(toolbox_text(), st.booleans())
def test_parse_toolbox_matches_the_record_path(text, mapped):
    flags = ["--map", _TOOLBOX_MAP] if mapped else []
    assert run("parse-toolbox", text, *flags) == run_reference("parse-toolbox", text, *flags)


_RATIOS = ["0.8,0.1,0.1", "0.5,0.25,0.25", "1,0,0", "0,0,1", "0.34,0.33,0.33"]


@settings(max_examples=300, deadline=None)
@given(corpus_text(), st.sampled_from(_RATIOS), st.integers(0, 20))
def test_split_writes_the_parts_of_split_corpus_of_load_corpus(text, ratios, seed):
    result = run("split", text, "--ratios", ratios, "--seed", str(seed))
    try:
        records = load_corpus(text)
    except MalformedRecordError as exc:
        assert result == (1, "", f"igt: MALFORMED_RECORD: {exc}\n", [None, None, None])
        return
    split = split_corpus(records, tuple(map(float, ratios.split(","))), seed=seed)
    parts = (split.train, split.validation, split.test)
    summary = f"igt: split {len(records)} records into {'/'.join(str(len(p)) for p in parts)}\n"
    assert result == (0, "", summary, [dump_corpus(part).encode("utf-8") for part in parts])


@settings(max_examples=300, deadline=None)
@given(corpus_text(), st.booleans())
def test_prepare_multi_matches_the_record_path(text, split_morphs):
    flags = ["--split-morphs"] if split_morphs else []
    assert run("prepare-multi", text, *flags) == run_reference("prepare-multi", text, *flags)


# --- each failure, with its line ---------------------------------------------------------

GOOD = "id=g\tlang=tur\tgloss_tgt=kadin-NOM gel-PST.3.SG.\ttgt=The woman came."


@pytest.mark.parametrize("split_morphs", [False, True])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_prepare_multi_names_each_malformed_record_with_its_line(fault, split_morphs):
    flags = ["--split-morphs"] if split_morphs else []
    text = f"{GOOD}\n\n{FAULTS[fault]}\n{GOOD}\n"
    result = run("prepare-multi", text, *flags)
    assert result == run_reference("prepare-multi", text, *flags)
    code, _, stderr, files = result
    assert code == 1 and files == [None, None]
    assert stderr.startswith("igt: MALFORMED_RECORD: line 3: ")


def test_prepare_multi_warns_about_a_skipped_record_as_the_record_path_does():
    text = f"{GOOD}\nid=\tlang=tur\ttgt=no gloss\nid=n\tlang=tur\tgloss_tgt=no target\n"
    result = run("prepare-multi", text)
    assert result == run_reference("prepare-multi", text)
    assert result[2] == (
        "igt: warning: SKIPPED_RECORD: record <unnamed> lacks gloss_tgt or target_text (line 2)\n"
        "igt: warning: SKIPPED_RECORD: record n lacks gloss_tgt or target_text (line 3)\n"
    )
    assert result[3] == [b"tur kadin-NOM gel-PST.3.SG .\n", b"The woman came.\n"]


def test_parse_odin_reports_shape_and_count_faults_as_the_record_path_does():
    text = "one\ntwo\n\ns\nev-PL x.\nhouse-PL x.\nt\n\ns\na b\na b c\nt\n"
    result = run("parse-odin", text)
    assert result == run_reference("parse-odin", text)
    assert result[:3] == (1, "", (
        "igt: warning: BLOCK_SHAPE: run of 2 line(s) starting at line 1 "
        "is not a 3-4 line IGT block (line 1)\n"
        "igt: TOKEN_COUNT_MISMATCH: line 9: gloss token counts differ: "
        "2 source-lemma vs 3 target-lemma\n"
    ))


def test_prepare_multi_split_morphs_splits_each_tail_once():
    text = "".join(
        f"id={i}\tlang=tur\tgloss_tgt=ev-PL.ACC kadin-PL.ACC _ a..b x- !\ttgt=t\n" for i in range(3)
    )
    calls = []

    def split_tail(tail):
        calls.append(tail)
        return split(tail)

    split = parsing._split_tail
    with mock.patch.object(parsing, "_split_tail", split_tail):
        code, _, _, files = run("prepare-multi", text, "--split-morphs")
    assert code == 0
    assert files[0] == b"tur ev -PL .ACC kadin -PL .ACC _ a. .b x- !\n" * 3
    assert sorted(calls) == ["-PL.ACC", ".b"]


# --- no gloss or record objects -------------------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("built a gloss or record object")


@pytest.mark.parametrize("flags", [[], ["--split-morphs"]])
def test_the_corpus_commands_build_no_gloss_or_record_object(flags):
    blocks = "Ich sah.\nI see-PST.1.SG.\nI.NOM see-PST.1.SG.\nI saw.\n\ns\na !? .\nt\n"
    expected_corpus = run("parse-odin", blocks)
    expected_pairs = run("prepare-multi", expected_corpus[1], *flags)
    with mock.patch.object(parsing, "tokenize_gloss", _refuse), \
            mock.patch.object(IgtRecord, "__post_init__", _refuse), \
            mock.patch.object(GlossToken, "__post_init__", _refuse), \
            mock.patch.object(GlossMorph, "__post_init__", _refuse):
        corpus = run("parse-odin", blocks)
        pairs = run("prepare-multi", corpus[1], *flags)
    assert corpus == expected_corpus and corpus[0] == 0
    assert pairs == expected_pairs and pairs[0] == 0
    assert pairs[3][0] == (
        b"tur I.NOM see-PST.1.SG .\ntur a !? .\n" if not flags
        else b"tur I .NOM see -PST .1 .SG .\ntur a !? .\n"
    )


def test_parse_toolbox_and_split_build_no_gloss_or_record_object():
    toolbox = (
        "\\t Ich sah.\n\\m I see-PST.1.SG.\n\\g I.NOM see-PST.1.SG.\n\\f I saw.\n"
        "\\t s\n\\g a !? .\n"
    )
    expected_corpus = run("parse-toolbox", toolbox, "--map", _TOOLBOX_MAP)
    lines = expected_corpus[1] + "id=p\tlang=tur\tsrc=x\tgloss_tgt=a  b.\tprov=\n"
    expected_parts = run("split", lines, "--ratios", "0.5,0.5,0")
    with mock.patch.object(parsing, "tokenize_gloss", _refuse), \
            mock.patch.object(IgtRecord, "__post_init__", _refuse), \
            mock.patch.object(GlossToken, "__post_init__", _refuse), \
            mock.patch.object(GlossMorph, "__post_init__", _refuse):
        corpus = run("parse-toolbox", toolbox, "--map", _TOOLBOX_MAP)
        parts = run("split", lines, "--ratios", "0.5,0.5,0")
    assert corpus == expected_corpus and corpus[0] == 0
    assert corpus[1] == (
        "id=toolbox-0001\tlang=tur\tsrc=Ich sah.\tgloss_src=I see-PST.1.SG."
        "\tgloss_tgt=I.NOM see-PST.1.SG.\ttgt=I saw.\n"
        "id=toolbox-0002\tlang=tur\tsrc=s\tgloss_tgt=a!? .\n"
    )
    assert parts == expected_parts and parts[0] == 0
    assert sorted(b"".join(parts[3]).splitlines()) == sorted(
        corpus[1].encode("utf-8").splitlines() + [b"id=p\tlang=tur\tsrc=x\tgloss_tgt=a b."]
    )


# --- the two files stay aligned --------------------------------------------------------------


@pytest.mark.parametrize("target", ["one\\ntwo", "one\\r"])
def test_prepare_multi_rejects_a_target_that_would_not_stay_one_line(tmp_path, capsys, target):
    corpus = tmp_path / "c.igt"
    corpus.write_text(
        f"id=a\tlang=tur\tgloss_tgt=x\ttgt={target}\nid=b\tlang=tur\tgloss_tgt=y\ttgt=fine\n",
        encoding="utf-8",
    )
    src, tgt = tmp_path / "multi.src", tmp_path / "multi.tgt"
    argv = ["prepare-multi", "--in", str(corpus), "--src-out", str(src), "--tgt-out", str(tgt)]
    assert main(argv) == 1
    value = target.replace("\\n", "\n").replace("\\r", "\r")
    assert capsys.readouterr().err == (
        f"igt: MALFORMED_RECORD: line 1: tgt {value!r} "
        "would not read back as one line of the target file\n"
    )
    assert not src.exists() and not tgt.exists()


def test_prepare_multi_names_the_tgt_field_of_a_target_that_would_not_stay_one_line():
    lines = ["", "id=a\tlang=tur\tgloss_tgt=x\ttgt=one\\ntwo"]
    with pytest.raises(MalformedRecordError) as caught:
        list(parsing._corpus_pairs(lines, False, print))
    assert (caught.value.line, caught.value.field) == (2, "tgt")


# --- \r in a corpus field -----------------------------------------------------------------------


def test_a_trailing_carriage_return_survives_a_corpus_round_trip():
    record = IgtRecord(id="x", lang=LanguageTag("tur"), source_text="abc\r")
    assert dump_corpus([record]) == "id=x\tlang=tur\tsrc=abc\\r\n"
    assert load_corpus(dump_corpus([record])) == [record]


_field = st.text(st.one_of(st.characters(exclude_categories=["Cs"]), st.sampled_from("\r\n\t\\r")))


@given(st.lists(st.tuples(_field, _field, st.none() | _field, _field), max_size=4))
def test_records_round_trip_through_a_corpus_file(rows):
    records = [
        IgtRecord(id=record_id, lang=LanguageTag("tur"), source_text=source,
                  target_text=target, provenance=provenance)
        for record_id, provenance, source, target in rows
    ]
    assert load_corpus(dump_corpus(records)) == records
