"""Streaming commands: line reading, bounded memory, all-or-nothing output,
and the generator forms of the pipeline and the corpus reader."""

import gc
import io
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot import (
    MalformedRecordError,
    PipelineStageError,
    TranslatorHandle,
    TranslatorKind,
    default_table,
    dump_corpus,
    iter_corpus,
    iter_pipeline,
    load_corpus,
    load_dictionary,
    run_pipeline,
)
from igtpivot import cli
from igtpivot.model import split_lines
from igtpivot.pipeline import PipelineReport, format_report

from gen_helpers import cv_words, random_analyzer_corpus, random_record
from golden_data import PIVOT_DICTIONARY_TSV, TURKISH_ANALYZER_FIXTURE

BASELINE = TranslatorHandle(TranslatorKind.BASELINE_DETOKENIZE)
IDENTITY = TranslatorHandle(TranslatorKind.IDENTITY)
CAT = TranslatorHandle(TranslatorKind.EXTERNAL, command="cat", timeout=30)


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# --- _iter_lines -------------------------------------------------------------------


_piece = st.one_of(
    st.sampled_from(["\n", "\r", "\r\n", "\u2028", "\x85", "\v", "\f", "\ufeff", " ", "\t"]),
    st.text(st.characters(exclude_categories=["Cs"]), max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(bom=st.booleans(), pieces=st.lists(_piece, max_size=12))
def test_iter_lines_reads_what_split_lines_of_read_gives(tmp_path_factory, bom, pieces):
    path = tmp_path_factory.getbasetemp() / "iter_lines.txt"
    write(path, ("\ufeff" if bom else "") + "".join(pieces))
    assert list(cli._iter_lines(str(path))) == split_lines(cli._read(str(path)))


@pytest.mark.parametrize("text", ["", "\ufeff", "\ufeff\n", "a", "a\r", "a\r\r\nb", "\n\n"])
def test_iter_lines_edge_files(tmp_path, text):
    path = write(tmp_path / "in.txt", text)
    assert list(cli._iter_lines(path)) == split_lines(cli._read(path))


def test_iter_lines_reads_stdin_as_read_does(monkeypatch):
    data = "\ufeffa\r\nb\u2028c\n\nd".encode("utf-8")

    def stdin():  # as the interpreter sets it up: lines split at \n only
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")

    monkeypatch.setattr(sys, "stdin", stdin())
    expected = split_lines(cli._read("-"))
    monkeypatch.setattr(sys, "stdin", stdin())
    assert list(cli._iter_lines("-")) == expected == ["a", "b\u2028c", "", "d"]


def test_iter_lines_missing_file_fails_with_its_code(tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = cli.main(["normalize", "--in", str(tmp_path / "nope.txt"), "--out", str(out)])
    assert code == 1
    assert "FILE_NOT_FOUND" in capsys.readouterr().err
    assert not out.exists()


# --- bounded memory --------------------------------------------------------------


def _traced_peak(argv) -> int:
    # collect first, so the peak does not depend on when the cyclic collector
    # last ran (argparse leaves cycles behind on every call)
    gc.collect()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pivot_peak_memory_does_not_grow_with_the_input(tmp_path):
    analyzer, dictionary = random_analyzer_corpus(random.Random(7), 500)
    dict_file = write(tmp_path / "dict.tsv", dictionary)

    def argv(times):
        source = write(tmp_path / f"analyzer{times}.txt", analyzer * times)
        return ["pivot", "--analyzer-out", source, "--dict", dict_file,
                "--report", str(tmp_path / "report.txt"), "--out", str(tmp_path / "out.txt")]

    assert cli.main(argv(1)) == 0  # warm: table and import-time caches
    once, tenfold = _traced_peak(argv(1)), _traced_peak(argv(10))
    assert tenfold <= 1.25 * once, (once, tenfold)
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert report.count("--- sentence ") == 10 * len([l for l in analyzer.split("\n") if l.strip()])


def test_prepare_multi_peak_memory_does_not_grow_with_the_input(tmp_path):
    rng = random.Random(3)
    # prepare-multi rejects a target that would not stay one line of its file
    records = [r for r in (random_record(rng, i) for i in range(1500))
               if r.gloss_tgt is not None and r.target_text is not None
               and "\n" not in r.target_text][:500]
    corpus = dump_corpus(records)

    def argv(times):
        source = write(tmp_path / f"corpus{times}.igt", corpus * times)
        return ["prepare-multi", "--in", source,
                "--src-out", str(tmp_path / "m.src"), "--tgt-out", str(tmp_path / "m.tgt")]

    assert cli.main(argv(1)) == 0
    once, tenfold = _traced_peak(argv(1)), _traced_peak(argv(10))
    assert tenfold <= 1.25 * once, (once, tenfold)


def _igt_blocks(rng, n):
    """``n`` four-line IGT examples (source, source gloss, target gloss,
    translation) over a vocabulary of 40 roots."""
    words = cv_words(rng, 80)
    roots, targets = words[:40], words[40:]
    blocks = []
    for _ in range(n):
        picks = [rng.randrange(40) for _ in range(rng.randint(3, 8))]
        labels = [rng.choice(["-PST.3.SG", ".NOM", ".3.PL.ACC", ""]) for _ in picks]
        blocks.append((
            " ".join(roots[i] + "ka" for i in picks) + ".",
            " ".join(roots[i] + label for i, label in zip(picks, labels)) + ".",
            " ".join(targets[i] + label for i, label in zip(picks, labels)) + ".",
            " ".join(targets[i] for i in picks).capitalize() + ".",
        ))
    return blocks


@pytest.mark.parametrize("command", ["parse-odin", "parse-toolbox"])
def test_parse_peak_memory_does_not_grow_with_the_input(tmp_path, command):
    blocks = _igt_blocks(random.Random(5), 300)
    if command == "parse-odin":
        text = "".join("\n".join(block) + "\n\n" for block in blocks)
        flags = []
    else:
        text = "".join("\\t {}\n\\m {}\n\\g {}\n\\f {}\n\n".format(*block) for block in blocks)
        flags = ["--map", "t=source,m=gloss_src,g=gloss_tgt,f=target"]
    out = tmp_path / "out.igt"

    def argv(times):
        source = write(tmp_path / f"in{times}.txt", text * times)
        return [command, "--in", source, "--lang", "tur", *flags, "--out", str(out)]

    assert cli.main(argv(1)) == 0  # warm: the tokenizer memo and import-time caches
    once = _traced_peak(argv(1))
    single = out.read_bytes()
    tenfold = _traced_peak(argv(10))
    assert tenfold <= 1.25 * once, (once, tenfold)
    assert out.read_bytes().count(b"\n") == 10 * single.count(b"\n") == 3000


# --- all-or-nothing output ----------------------------------------------------------


def _pivot_argv(tmp_path, analyzer, translator="baseline", out=None):
    return [
        "pivot", "--analyzer-out", write(tmp_path / "analyzer.txt", analyzer),
        "--dict", write(tmp_path / "dict.tsv", PIVOT_DICTIONARY_TSV),
        "--translator", translator,
        "--report", str(tmp_path / "report.txt"),
        "--out", out or str(tmp_path / "out.txt"),
    ]


DROPPER = f"cmd:{sys.executable} -c \"import sys; sys.stdin.read(); print('one line')\""


@pytest.mark.parametrize(
    "analyzer, translator, message",
    [
        (TURKISH_ANALYZER_FIXTURE + "a++B\n" + TURKISH_ANALYZER_FIXTURE, "baseline",
         "stage parse-analyzer"),
        (TURKISH_ANALYZER_FIXTURE, DROPPER, "stage translate"),
    ],
    ids=["malformed-analyzer-line", "translator-drops-a-line"],
)
def test_failed_pivot_leaves_existing_outputs_and_stdout_untouched(
    tmp_path, capsys, analyzer, translator, message
):
    (tmp_path / "out.txt").write_text("old out\n", encoding="utf-8")
    (tmp_path / "report.txt").write_text("old report\n", encoding="utf-8")
    assert cli.main(_pivot_argv(tmp_path, analyzer, translator)) == 1
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "old out\n"
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == "old report\n"
    # with the targets bound for stdout, none of them reach it
    assert cli.main(_pivot_argv(tmp_path, analyzer, translator, out="-")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == "old report\n"


def test_pivot_writes_the_report_its_library_form_gives(tmp_path, capsys):
    assert cli.main(_pivot_argv(tmp_path, TURKISH_ANALYZER_FIXTURE, out="-")) == 0
    targets, report = run_pipeline(
        TURKISH_ANALYZER_FIXTURE, default_table(), load_dictionary(PIVOT_DICTIONARY_TSV), BASELINE
    )
    assert capsys.readouterr().out == "".join(t + "\n" for t in targets)
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == format_report(report)


def test_failed_line_mapping_leaves_the_output_untouched(tmp_path, capsys):
    source = write(tmp_path / "in.txt", "gel+Past+A3sg.\n\na++B\n")
    out = tmp_path / "out.txt"
    out.write_text("old\n", encoding="utf-8")
    assert cli.main(["parse-analyzer", "--in", source, "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "old\n"
    assert cli.main(["parse-analyzer", "--in", source]) == 1
    assert capsys.readouterr().out == ""


def test_failed_parse_odin_leaves_the_output_untouched_and_warns_only_before_the_bad_block(
    tmp_path, capsys
):
    # a good block, a 2-line run, a block whose glosses differ in count, a 2-line run
    source = write(tmp_path / "blocks.txt", "s\ng\nt\n\none\ntwo\n\ns\na b\nc\nt\n\nx\ny\n")
    out = tmp_path / "out.igt"
    out.write_text("old\n", encoding="utf-8")
    for destination in (str(out), "-"):
        argv = ["parse-odin", "--in", source, "--lang", "tur", "--out", destination]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, out.read_text(encoding="utf-8")) == ("", "old\n")
        # the run after the bad block is never reached, so it does not warn
        assert captured.err == (
            "igt: warning: BLOCK_SHAPE: run of 2 line(s) starting at line 5 "
            "is not a 3-4 line IGT block (line 5)\n"
            "igt: TOKEN_COUNT_MISMATCH: line 8: "
            "gloss token counts differ: 2 source-lemma vs 1 target-lemma\n"
        )


def test_failed_parse_toolbox_leaves_the_output_untouched_and_warns_only_before_the_failure(
    tmp_path, capsys
):
    source = tmp_path / "in.tb"
    source.write_bytes(b"stray\n\\t s\n\\f t\n\n\\t s2\n\\zz x\n\\f t\xff\n")
    out = tmp_path / "out.igt"
    out.write_text("old\n", encoding="utf-8")
    assert cli.main(["parse-toolbox", "--in", str(source), "--lang", "tur", "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "old\n"
    # the second record's \zz marker is never reported: the bad byte ends the run first
    assert capsys.readouterr().err == (
        "igt: warning: ORPHAN_LINE: line before the first marker (line 1)\n"
        f"igt: BAD_ENCODING: {source} line 7: not UTF-8 (byte 0xff: invalid start byte)\n"
    )


def test_prepare_multi_names_the_malformed_line_and_writes_nothing(tmp_path, capsys):
    records = [random_record(random.Random(i), i) for i in range(3)]
    source = write(tmp_path / "c.igt", dump_corpus(records) + "\nid=x\tlang=BAD\n")
    src, tgt = tmp_path / "m.src", tmp_path / "m.tgt"
    src.write_text("old src\n", encoding="utf-8")
    tgt.write_text("old tgt\n", encoding="utf-8")
    code = cli.main(["prepare-multi", "--in", source, "--src-out", str(src), "--tgt-out", str(tgt)])
    assert code == 1
    assert "MALFORMED_RECORD: line 5:" in capsys.readouterr().err
    assert src.read_text(encoding="utf-8") == "old src\n"
    assert tgt.read_text(encoding="utf-8") == "old tgt\n"


# --- iter_pipeline and iter_corpus ------------------------------------------------------


def test_iter_pipeline_reads_no_further_than_the_sentence_it_yields():
    lines = split_lines(TURKISH_ANALYZER_FIXTURE * 3)
    read = []

    def source():
        for line in lines:
            read.append(line)
            yield line

    report = PipelineReport()
    traces = iter_pipeline(
        source(), default_table(), load_dictionary(PIVOT_DICTIONARY_TSV), BASELINE, report=report
    )
    first = next(traces)
    assert read == lines[:1]
    assert report.n_sentences == 1
    assert first.analyzer == lines[0]
    rest = list(traces)
    _, whole = run_pipeline(
        "\n".join(lines), default_table(), load_dictionary(PIVOT_DICTIONARY_TSV), BASELINE
    )
    assert [first, *rest] == whole.sentences
    assert report.sentences == []
    assert (report.n_sentences, report.oov_lemmas, report.unknown_labels) == (
        whole.n_sentences, whole.oov_lemmas, whole.unknown_labels
    )


def test_external_iter_pipeline_keeps_any_analyzer_line_through_its_spool():
    # a library caller's line may hold \r, \n or U+2028; the stages travel
    # beside the translator's input and must come back exactly
    lines = ["gel+Past+A3sg\rev+A3sg.", "ev+A3sg\ngel+Past.", "ev+A3sg\u2028gel+Past."]
    dictionary = load_dictionary(PIVOT_DICTIONARY_TSV)
    cat = list(iter_pipeline(lines, default_table(), dictionary, CAT))
    echo = list(iter_pipeline(lines, default_table(), dictionary, IDENTITY))
    assert cat == echo
    assert [trace.analyzer for trace in cat] == lines


def test_failing_external_translator_yields_nothing():
    dropper = TranslatorHandle(TranslatorKind.EXTERNAL, command=DROPPER[4:], timeout=30)
    traces = iter_pipeline(
        split_lines(TURKISH_ANALYZER_FIXTURE), default_table(),
        load_dictionary(PIVOT_DICTIONARY_TSV), dropper,
    )
    with pytest.raises(PipelineStageError, match="translate"):
        next(traces)


def test_iter_corpus_yields_records_before_reading_a_bad_line():
    records = [random_record(random.Random(i), i) for i in range(4)]
    lines = split_lines(dump_corpus(records)) + ["", "not a record"]
    parsed = iter_corpus(lines)
    assert [next(parsed) for _ in records] == records
    with pytest.raises(MalformedRecordError, match="^line 6: "):
        next(parsed)
    assert load_corpus(dump_corpus(records)) == records
