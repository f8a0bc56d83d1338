"""Command-line interface: goldens, exit codes, idempotency, stream defaults."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot import analyzer_to_gloss, default_table, loads_table, parse_analyzer_line
from igtpivot.cli import _translator_from_spec, build_parser, main
from igtpivot.tables import DEFAULT_TABLE_TEXT

from golden_data import (
    ANALYZER_GOLD,
    IGT_EXAMPLES,
    NORMALIZATION_GOLD_NUMBER_FIRST,
    PIVOT_DICTIONARY_TSV,
    SUBSTITUTION_GOLD,
    TOY_PARALLEL_SRC,
    TOY_PARALLEL_TGT,
    TURKISH_ANALYZER_FIXTURE,
)

ALL_COMMANDS = [
    "parse-odin", "parse-toolbox", "parse-analyzer", "normalize", "split",
    "align", "dict", "subst", "prepare-multi", "pivot", "eval", "dump-table",
]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read(path):
    return path.read_text(encoding="utf-8")


# --- help and usage ---------------------------------------------------------------


def test_top_level_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "COMMAND" in capsys.readouterr().out


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_subcommand_help_exits_zero_and_documents_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--help" in out


def test_every_option_of_every_subcommand_has_help_text():
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a.choices, dict)]
    assert sorted(commands) == sorted(ALL_COMMANDS)
    for command, parser in commands.items():
        for action in parser._actions:
            assert action.help, (command, action.option_strings)


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--bogus"])
    assert exc.value.code == 2


# --- normalize / parse-analyzer goldens ----------------------------------------------


def test_normalize_matches_golden_file(tmp_path, capsys):
    infile = write(
        tmp_path / "raw.txt",
        "".join(before + "\n" for before, _ in NORMALIZATION_GOLD_NUMBER_FIRST),
    )
    outfile = tmp_path / "norm.txt"
    code = main([
        "normalize", "--table", "default", "--number-first",
        "--in", infile, "--out", str(outfile),
    ])
    assert code == 0
    golden = "".join(after + "\n" for _, after in NORMALIZATION_GOLD_NUMBER_FIRST)
    assert read(outfile) == golden


def test_parse_analyzer_matches_golden_file(tmp_path):
    infile = write(
        tmp_path / "analyzed.txt",
        "".join(before + "\n" for before, _ in ANALYZER_GOLD),
    )
    outfile = tmp_path / "gloss.txt"
    assert main(["parse-analyzer", "--in", infile, "--out", str(outfile)]) == 0
    golden = "".join(after + "\n" for _, after in ANALYZER_GOLD)
    assert read(outfile) == golden


def test_normalize_is_idempotent_over_identical_inputs(tmp_path):
    infile = write(tmp_path / "in.txt", "Man.NOM woman-ACC see-PAST.3SG.\n")
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["normalize", "--in", infile, "--out", str(out1)]) == 0
    assert main(["normalize", "--in", infile, "--out", str(out2)]) == 0
    assert read(out1) == read(out2)


# --- align / dict / subst ----------------------------------------------------------------


def test_align_produces_expected_dictionary(tmp_path):
    src = write(tmp_path / "s.txt", TOY_PARALLEL_SRC)
    tgt = write(tmp_path / "t.txt", TOY_PARALLEL_TGT)
    out = tmp_path / "dict.tsv"
    ttable = tmp_path / "ttable.tsv"
    code = main([
        "align", "--src", src, "--tgt", tgt, "--iters", "5",
        "--out", str(out), "--ttable-out", str(ttable),
    ])
    assert code == 0
    lines = read(out).splitlines()
    entries = {l.split("\t")[0]: l.split("\t")[1] for l in lines}
    assert entries == {"das": "the", "haus": "house", "buch": "book", "ein": "a"}

    # the dict subcommand extracts the same thing from the dumped table
    out2 = tmp_path / "dict2.tsv"
    assert main(["dict", "--ttable", str(ttable), "--out", str(out2)]) == 0
    assert read(out2) == read(out)


def test_align_is_bit_stable(tmp_path):
    src = write(tmp_path / "s.txt", TOY_PARALLEL_SRC)
    tgt = write(tmp_path / "t.txt", TOY_PARALLEL_TGT)
    outs = []
    for name in ("d1.tsv", "d2.tsv"):
        out = tmp_path / name
        main(["align", "--src", src, "--tgt", tgt, "--out", str(out)])
        outs.append(read(out))
    assert outs[0] == outs[1]


def test_subst_applies_dictionary(tmp_path):
    dict_file = write(tmp_path / "dict.tsv", PIVOT_DICTIONARY_TSV)
    infile = write(
        tmp_path / "gloss.txt",
        "".join(before + "\n" for before, _ in SUBSTITUTION_GOLD),
    )
    out = tmp_path / "subst.txt"
    assert main(["subst", "--in", infile, "--dict", dict_file, "--out", str(out)]) == 0
    assert read(out) == "".join(after + "\n" for _, after in SUBSTITUTION_GOLD)


# --- corpus commands -----------------------------------------------------------------------


def odin_text():
    return "\n\n".join("\n".join(example[:3]) for example in IGT_EXAMPLES) + "\n"


def test_parse_odin_then_split_and_prepare(tmp_path, capsys):
    raw = write(tmp_path / "odin.txt", odin_text())
    corpus = tmp_path / "corpus.igt"
    assert main(["parse-odin", "--in", raw, "--lang", "und", "--out", str(corpus)]) == 0
    body = read(corpus)
    assert len(body.splitlines()) == 3
    assert "gloss_tgt=" in body

    train, valid, test = (tmp_path / n for n in ("train.igt", "valid.igt", "test.igt"))
    code = main([
        "split", "--in", str(corpus), "--train-out", str(train),
        "--valid-out", str(valid), "--test-out", str(test),
        "--ratios", "0.4,0.3,0.3", "--seed", "7",
    ])
    assert code == 0
    n_lines = sum(len(read(p).splitlines()) for p in (train, valid, test))
    assert n_lines == 3

    src_out, tgt_out = tmp_path / "multi.src", tmp_path / "multi.tgt"
    code = main([
        "prepare-multi", "--in", str(corpus),
        "--src-out", str(src_out), "--tgt-out", str(tgt_out),
    ])
    assert code == 0
    src_lines = read(src_out).splitlines()
    tgt_lines = read(tgt_out).splitlines()
    assert len(src_lines) == len(tgt_lines) == 3
    assert all(line.split()[0] == "und" for line in src_lines)


def test_parse_toolbox_cli(tmp_path):
    text = "\\t Nwg yeej qhuas nwg.\n\\g 3SG always praise 3SG.\n\\f He always praises himself.\n"
    raw = write(tmp_path / "tb.txt", text)
    out = tmp_path / "corpus.igt"
    code = main([
        "parse-toolbox", "--in", raw, "--lang", "blu",
        "--map", "t=source,g=gloss_tgt,f=target", "--out", str(out),
    ])
    assert code == 0
    assert "lang=blu" in read(out)


def test_parse_toolbox_skips_the_file_header(tmp_path, capsys):
    text = "\\_sh v3.0 400 Text\n\n\\t a b\n\\g x y\n\\f one\n\n\\t c d\n\\g z w\n\\f two\n"
    out = tmp_path / "corpus.igt"
    argv = ["parse-toolbox", "--in", write(tmp_path / "tb.txt", text), "--lang", "arp"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    ids = [line.split("\t")[0] for line in read(out).splitlines()]
    assert ids == ["id=toolbox-0001", "id=toolbox-0002"]


def test_parse_toolbox_rejects_a_marker_mapped_twice_before_reading_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    argv = ["parse-toolbox", "--in", missing, "--lang", "arp",
            "--map", "t=source,g=gloss_tgt,f=target,t=target"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "igt: CLI_ERROR: bad --map entry 't=target' (marker \\t is already mapped)\n"
    )


@pytest.mark.parametrize("field_map, message", [
    ("_sh=source,t=ignore,g=gloss_tgt,f=target",
     "ToolBox marker '_sh' starts a skipped header line"),
    ("t x=source,g=gloss_tgt,f=target,t=ignore",
     "ToolBox marker 't x' holds whitespace"),
])
def test_parse_toolbox_rejects_a_marker_no_line_can_carry(tmp_path, capsys, field_map, message):
    # a header line is skipped and a marker ends at whitespace: the mapping
    # used to be ignored, and every record written without its source
    text = "\\_sh v3.0\n\\t a b\n\\g x y\n\\f one\n"
    out = tmp_path / "corpus.igt"
    argv = ["parse-toolbox", "--in", write(tmp_path / "tb.txt", text), "--lang", "arp",
            "--map", field_map, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"igt: BAD_FIELD_ROLE: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("entry", ["=source", "\\=target"])
def test_parse_toolbox_rejects_an_empty_marker_before_reading_input(tmp_path, capsys, entry):
    # no ToolBox line has an empty marker, so the mapping could only be ignored
    argv = ["parse-toolbox", "--in", str(tmp_path / "nope.txt"), "--lang", "arp", "--map", entry]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"igt: CLI_ERROR: bad --map entry {entry!r} (empty marker)\n"


@pytest.mark.parametrize("command, text", [
    ("parse-odin", "ev-ler\nhouse-PL\nhouses\n"),
    ("parse-toolbox", "\\t ev-ler\n\\g house-PL\n\\f houses\n"),
])
def test_parse_commands_reject_an_id_prefix_that_is_not_utf8(tmp_path, capsys, command, text):
    # a command-line argument holding the byte 0xff reaches Python as the
    # lone surrogate U+DCFF, which no UTF-8 output can hold
    out = tmp_path / "corpus.igt"
    argv = [command, "--in", write(tmp_path / "in.txt", text), "--lang", "tur",
            "--id-prefix", "\udcff", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "igt: CLI_ERROR: --id-prefix '\\udcff' is not UTF-8 text\n"
    assert not out.exists()


# --- pivot and eval --------------------------------------------------------------------------


def test_pivot_end_to_end_with_report(tmp_path, capsys):
    analyzer = write(tmp_path / "analyzer.txt", TURKISH_ANALYZER_FIXTURE)
    dict_file = write(tmp_path / "dict.tsv", PIVOT_DICTIONARY_TSV)
    out = tmp_path / "out.txt"
    report = tmp_path / "report.txt"
    code = main([
        "pivot", "--analyzer-out", analyzer, "--table", "default",
        "--dict", dict_file, "--translator", "baseline",
        "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    assert read(out) == "Woman dance be .\nMan woman see .\n"
    report_text = read(report)
    assert "oov_lemmas=0" in report_text
    assert SUBSTITUTION_GOLD[1][0] in report_text
    err = capsys.readouterr().err
    assert "oov=0" in err


def test_pivot_with_external_command(tmp_path):
    analyzer = write(tmp_path / "analyzer.txt", TURKISH_ANALYZER_FIXTURE)
    dict_file = write(tmp_path / "dict.tsv", PIVOT_DICTIONARY_TSV)
    out = tmp_path / "out.txt"
    command = f"cmd:{sys.executable} -c \"import sys; sys.stdout.write(sys.stdin.read())\""
    code = main([
        "pivot", "--analyzer-out", analyzer, "--dict", dict_file,
        "--translator", command, "--out", str(out),
    ])
    assert code == 0
    assert read(out).splitlines()[0].startswith("Woman.3.SG.NPOSS.NOM")


def test_eval_cli_reports_seven_numbers(tmp_path, capsys):
    hyp = write(tmp_path / "h.txt", "the man saw the woman .\nthe woman dances .\n")
    ref = write(tmp_path / "r.txt", "the man saw the woman .\nthe woman dances .\n")
    ann = write(
        tmp_path / "a.tsv",
        "s1\tnouns=man,woman\tverbs=see\tsubj=3.SG\ttense=PST\n"
        "s2\tnouns=woman\tverbs=dance\tsubj=3.SG\ttense=PRS\n",
    )
    assert main(["eval", "--hyp", hyp, "--ref", ref, "--ann", ann]) == 0
    out = capsys.readouterr().out
    assert "Noun-match accuracy: 100.00" in out
    assert "4-gram BLEU: 100.00" in out
    assert "noun_match=100.00" in out


def test_eval_without_annotations(tmp_path, capsys):
    hyp = write(tmp_path / "h.txt", "a b\n")
    ref = write(tmp_path / "r.txt", "a b\n")
    assert main(["eval", "--hyp", hyp, "--ref", ref]) == 0
    assert "n/a" in capsys.readouterr().out


# --- table dumping and defaults ------------------------------------------------------------


def test_dump_table_round_trips(tmp_path):
    out = tmp_path / "table.txt"
    assert main(["dump-table", "--out", str(out)]) == 0
    assert loads_table(out.read_text(encoding="utf-8")) == default_table()


def test_stdout_default(capsys):
    assert main(["dump-table"]) == 0
    out = capsys.readouterr().out
    assert "[registry]" in out
    assert loads_table(out) == default_table()


def stdin_bytes(data: bytes) -> io.TextIOWrapper:
    """A stdin over ``data`` as the interpreter sets one up: lines split at
    ``\n`` only."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


def test_stdin_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b"Man.NOM see-PAST.3SG.\n"))
    assert main(["normalize"]) == 0
    assert capsys.readouterr().out == "Man.NOM see-PST.3.SG.\n"


# --- error handling ---------------------------------------------------------------------------


def test_missing_input_file_is_operational_error(tmp_path, capsys):
    code = main(["normalize", "--in", str(tmp_path / "nope.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("igt: FILE_NOT_FOUND:")
    assert "\n" not in err.strip()


def test_an_output_under_a_regular_file_is_an_io_error(tmp_path, capsys):
    out = os.path.join(write(tmp_path / "file", ""), "table.txt")
    assert main(["dump-table", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("igt: IO_ERROR: ") and err.count("\n") == 1


def test_bad_ratios_is_operational_error(tmp_path, capsys):
    corpus = write(tmp_path / "c.igt", "id=a\tlang=und\ttgt=x\n")
    code = main([
        "split", "--in", corpus, "--train-out", str(tmp_path / "a"),
        "--valid-out", str(tmp_path / "b"), "--test-out", str(tmp_path / "c"),
        "--ratios", "0.9,0.9,0.9",
    ])
    assert code == 1
    assert "BAD_RATIOS" in capsys.readouterr().err


def test_malformed_corpus_line_is_operational_error(tmp_path, capsys):
    corpus = write(tmp_path / "c.igt", "id=a\tlang=und\n")
    code = main([
        "split", "--in", corpus, "--train-out", str(tmp_path / "a"),
        "--valid-out", str(tmp_path / "b"), "--test-out", str(tmp_path / "c"),
    ])
    assert code == 1
    assert "MALFORMED_RECORD" in capsys.readouterr().err


def test_unknown_translator_is_operational_error(tmp_path, capsys):
    analyzer = write(tmp_path / "a.txt", "ne\n")
    dict_file = write(tmp_path / "d.tsv", "ne\twhat\n")
    code = main([
        "pivot", "--analyzer-out", analyzer, "--dict", dict_file,
        "--translator", "teleport",
    ])
    assert code == 1
    assert "CLI_ERROR" in capsys.readouterr().err


def test_parser_registers_all_commands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    choices = set(actions[0].choices)
    assert choices == set(ALL_COMMANDS)


# --- line-oriented readers -----------------------------------------------------------------


def test_line_mapping_commands_keep_blank_lines_and_accept_crlf(tmp_path):
    infile = write(tmp_path / "analyzed.txt", "gör+Past+A3sg\r\n\r\ndans+A3sg+Pnon+Nom\r\n")
    outfile = tmp_path / "gloss.txt"
    assert main(["parse-analyzer", "--in", infile, "--out", str(outfile)]) == 0
    assert read(outfile) == "gör-PST.3.SG\n\ndans.3.SG.NPOSS.NOM\n"
    normalized = tmp_path / "norm.txt"
    assert main(["normalize", "--in", str(outfile), "--out", str(normalized)]) == 0
    assert read(normalized) == read(outfile)
    dict_file = write(tmp_path / "dict.tsv", PIVOT_DICTIONARY_TSV)
    substituted = tmp_path / "subst.txt"
    assert main(["subst", "--in", str(outfile), "--dict", dict_file, "--out", str(substituted)]) == 0
    assert read(substituted) == "see-PST.3.SG\n\ndance.3.SG.NPOSS.NOM\n"


def test_eval_counts_a_line_separator_as_part_of_its_line(tmp_path, capsys):
    # U+2028 is whitespace inside a line, not a line break: one hypothesis
    hyp = write(tmp_path / "h.txt", "the man\u2028saw\n")
    ref = write(tmp_path / "r.txt", "the man saw\n")
    assert main(["eval", "--hyp", hyp, "--ref", ref]) == 0
    assert "n_sentences=1" in capsys.readouterr().out


def test_pivot_reports_multiword_dictionary_entry_with_its_line(tmp_path, capsys):
    analyzer = write(tmp_path / "analyzer.txt", TURKISH_ANALYZER_FIXTURE)
    dict_file = write(tmp_path / "dict.tsv", "dans\tdance\nkadin\told woman\n")
    code = main(["pivot", "--analyzer-out", analyzer, "--dict", dict_file])
    assert code == 1
    assert "igt: TABLE_PARSE_ERROR: line 2:" in capsys.readouterr().err


def test_dict_rejects_a_multiword_table_row_with_its_line(tmp_path, capsys):
    ttable = write(tmp_path / "t.tsv", "# iterations=1\nkadin\twoman\t0.5\nkadin\told woman\t0.5\n")
    assert main(["dict", "--ttable", ttable, "--out", str(tmp_path / "d.tsv")]) == 1
    assert capsys.readouterr().err == (
        "igt: TABLE_PARSE_ERROR: line 3: table word 'old woman' is empty or contains whitespace\n"
    )


@pytest.mark.parametrize("repeat", ["das\tthe\t0.25", "DAS\tThe\t0.25"])
def test_dict_rejects_a_repeated_pair_alike_from_a_file_and_from_stdin(
    repeat, tmp_path, monkeypatch, capsys
):
    text = f"# iterations=1\ndas\tthe\t0.5\nhaus\thouse\t1.0\n{repeat}\n"
    message = "igt: TABLE_PARSE_ERROR: line 4: pair ('das', 'the') already given on line 2\n"
    ttable = write(tmp_path / "t.tsv", text)
    assert main(["dict", "--ttable", ttable, "--out", str(tmp_path / "d.tsv")]) == 1
    assert capsys.readouterr().err == message
    monkeypatch.setattr(sys, "stdin", stdin_bytes(text.encode("utf-8")))
    assert main(["dict", "--ttable", "-", "--out", str(tmp_path / "d.tsv")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "d.tsv").exists()


def test_parse_analyzer_and_pivot_honour_number_first(tmp_path):
    analyzer = write(tmp_path / "analyzer.txt", "gel+Past+A3sg.\n")
    out = tmp_path / "out.txt"
    assert main(["parse-analyzer", "--in", analyzer, "--out", str(out)]) == 0
    assert read(out) == "gel-PST.3.SG.\n"
    assert main(["parse-analyzer", "--number-first", "--in", analyzer, "--out", str(out)]) == 0
    assert read(out) == "gel-PST.SG.3.\n"
    dict_file = write(tmp_path / "dict.tsv", "gel\tcome\n")
    report = tmp_path / "report.txt"
    argv = ["pivot", "--number-first", "--analyzer-out", analyzer, "--dict", dict_file]
    assert main([*argv, "--report", str(report), "--out", str(out)]) == 0
    assert "gloss_tgt: come-PST.SG.3." in read(report)


def test_restore_target_with_whitespace_fails_at_table_load(tmp_path, capsys):
    table = write(tmp_path / "table.txt", DEFAULT_TABLE_TEXT.replace("Kadi\tKadin", "Kadi\tKa din"))
    lineno = DEFAULT_TABLE_TEXT.split("\n").index("Kadi\tKadin") + 1
    analyzer = write(tmp_path / "analyzer.txt", TURKISH_ANALYZER_FIXTURE)
    dict_file = write(tmp_path / "dict.tsv", PIVOT_DICTIONARY_TSV)
    assert main(["pivot", "--table", table, "--analyzer-out", analyzer, "--dict", dict_file]) == 1
    assert capsys.readouterr().err == (
        f"igt: TABLE_PARSE_ERROR: line {lineno}: "
        "restore word 'Ka din' is empty or contains whitespace\n"
    )


def test_align_then_pivot_translates_a_word_starting_with_hash(tmp_path, capsys):
    src = write(tmp_path / "src.txt", "#tag gel\ngel\n")
    tgt = write(tmp_path / "tgt.txt", "hashtag come\ncome\n")
    dict_file = tmp_path / "dict.tsv"
    ttable = tmp_path / "ttable.tsv"
    argv = ["align", "--src", src, "--tgt", tgt, "--out", str(dict_file)]
    assert main([*argv, "--ttable-out", str(ttable)]) == 0
    assert "#tag\thashtag\t" in read(dict_file)
    strict = tmp_path / "strict.tsv"
    assert main(["dict", "--ttable", str(ttable), "--out", str(strict)]) == 0
    assert read(strict) == read(dict_file)
    analyzer = write(tmp_path / "analyzer.txt", "#tag+Noun+A3sg gel+Past+A3sg.\n")
    out = tmp_path / "out.txt"
    argv = ["pivot", "--analyzer-out", analyzer, "--dict", str(dict_file)]
    assert main([*argv, "--out", str(out)]) == 0
    assert read(out) == "Hashtag come .\n"
    assert "oov=0" in capsys.readouterr().err


def test_eval_reports_a_bad_annotation_row_with_code_and_line(tmp_path, capsys):
    hyp = write(tmp_path / "h.txt", "a b\nc d\n")
    ref = write(tmp_path / "r.txt", "a b\nc d\n")
    ann = write(tmp_path / "a.tsv", "s1\tnouns=a\ns2\tmystery=1\n")
    assert main(["eval", "--hyp", hyp, "--ref", ref, "--ann", ann]) == 1
    assert capsys.readouterr().err == (
        "igt: ANNOTATION_PARSE_ERROR: annotation line 2: unknown field 'mystery'\n"
    )


def test_eval_reports_a_bad_lexicon_row_with_code_and_line(tmp_path, capsys):
    hyp = write(tmp_path / "h.txt", "a b\n")
    ref = write(tmp_path / "r.txt", "a b\n")
    lexicon = write(tmp_path / "lex.tsv", "# irregulars\nfrob\n")
    assert main(["eval", "--hyp", hyp, "--ref", ref, "--lexicon", lexicon]) == 1
    assert capsys.readouterr().err == (
        "igt: LEXICON_PARSE_ERROR: lexicon line 2: expected lemma<TAB>past\n"
    )


def test_eval_lexicon_default_is_no_flag_and_a_user_lexicon_overrides_a_past_form(tmp_path):
    hyp = write(tmp_path / "h.txt", "he goed home .\n")
    ref = write(tmp_path / "r.txt", "he went home .\n")
    ann = write(tmp_path / "a.tsv", "s1\tverbs=go\tsubj=3.SG\ttense=PST\n")
    lexicon = write(tmp_path / "lex.tsv", "go\tgoed\n")
    argv = ["eval", "--hyp", hyp, "--ref", ref, "--ann", ann]
    outputs = {}
    for name, flag in [("none", []), ("default", ["--lexicon", "default"]),
                       ("user", ["--lexicon", lexicon])]:
        out = tmp_path / f"{name}.txt"
        assert main([*argv, *flag, "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    assert outputs["default"] == outputs["none"]
    # with the built-in lexicon "goed" is no past form of "go"; the user's row makes it one
    assert b" tense_match=0.00 " in outputs["none"]
    assert b" tense_match=100.00 " in outputs["user"]


def test_eval_reads_every_form_of_a_be_lexicon_row(tmp_path):
    hyp = write(tmp_path / "h.txt", "he iz here .\nhe wuz here .\n")
    ann = write(
        tmp_path / "a.tsv",
        "s1\tverbs=be\tsubj=3.SG\ttense=PRS\ns2\tverbs=be\tsubj=3.SG\ttense=PST\n",
    )
    lexicon = write(tmp_path / "lex.tsv", "be\twuz\tbeen\tiz\n")
    out = tmp_path / "eval.txt"
    argv = ["eval", "--hyp", hyp, "--ref", hyp, "--ann", ann, "--lexicon", lexicon]
    assert main([*argv, "--out", str(out)]) == 0
    summary = read(out).splitlines()[-1]
    for metric in ("verb_match", "subj_verb_agreement", "tense_match"):
        assert f" {metric}=100.00 " in summary


# --- python -m ------------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["igtpivot", "igtpivot.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            capture_output=True, encoding="utf-8", env=env, timeout=60,
        )

    result = run("dump-table")
    assert result.returncode == 0
    assert loads_table(result.stdout) == default_table()
    result = run("normalize", "--in", str(tmp_path / "nope.txt"))
    assert result.returncode == 1
    assert result.stderr.startswith("igt: FILE_NOT_FOUND:")


# --- one text boundary: every input is UTF-8, BOM dropped, \n-only lines ------------


def run_igt(*args, stdin=b"", **env_vars):
    """``python -m igtpivot`` in a subprocess, bytes in and bytes out."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "igtpivot", *args],
        input=stdin, capture_output=True, env=env, timeout=60,
    )


def test_main_writes_to_a_stdout_redirected_to_text():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["dump-table"]) == 0
    assert out.getvalue() == DEFAULT_TABLE_TEXT


def test_split_drops_a_bom_on_stdin(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdin", stdin_bytes("\ufeffid=a\tlang=tur\ttgt=x\n".encode("utf-8")))
    train, valid, test = (str(tmp_path / name) for name in ("train", "valid", "test"))
    argv = ["split", "--train-out", train, "--valid-out", valid, "--test-out", test,
            "--ratios", "1,0,0"]
    assert main(argv) == 0
    assert read(tmp_path / "train") == "id=a\tlang=tur\ttgt=x\n"


def test_subst_reads_stdin_as_utf8_whatever_the_stdio_encoding(tmp_path):
    dict_file = write(tmp_path / "d.tsv", "kadın\twoman\n")
    result = run_igt(
        "subst", "--dict", dict_file,
        stdin="kadın-NOM gör-PST\n".encode("utf-8"), PYTHONIOENCODING="latin-1",
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == "woman-NOM gör-PST\n".encode("utf-8")


def test_normalize_writes_stdout_as_utf8_whatever_the_stdio_encoding(tmp_path):
    gloss = write(tmp_path / "tr.txt", "kadın-Past.3SG\n")
    result = run_igt("normalize", "--in", gloss, PYTHONIOENCODING="latin-1")
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == "kadın-PST.3.SG\n".encode("utf-8")


def test_table_is_an_input_like_any_other(tmp_path, monkeypatch, capsys):
    gloss = write(tmp_path / "gloss.txt", "woman-Past.3SG\n")
    missing = str(tmp_path / "nope.txt")
    assert main(["normalize", "--table", missing, "--in", gloss]) == 1
    assert capsys.readouterr().err == f"igt: FILE_NOT_FOUND: input file does not exist: {missing}\n"
    monkeypatch.setattr(sys, "stdin", stdin_bytes(DEFAULT_TABLE_TEXT.encode("utf-8")))
    assert main(["normalize", "--table", "-", "--in", gloss]) == 0
    assert capsys.readouterr().out == "woman-PST.3.SG\n"


def test_normalize_reads_its_table_by_the_one_text_rule(tmp_path):
    # the BOM is dropped, and a lone \r stays inside its line, so the
    # [variants] header after it is part of a comment and ``B<TAB>A`` is read
    # as two registry labels: ``B`` is not rewritten to ``A``
    table = tmp_path / "table.txt"
    table.write_bytes("\ufeff[registry]\nA\n# note\r[variants]\nB\tA\n".encode("utf-8"))
    gloss = write(tmp_path / "gloss.txt", "x-B\n")
    out = tmp_path / "out.txt"
    assert main(["normalize", "--table", str(table), "--in", gloss, "--out", str(out)]) == 0
    assert read(out) == "x-B\n"


def test_dict_writes_a_hand_written_tables_targets_in_lowercase(tmp_path):
    ttable = write(tmp_path / "t.tsv", "Kadin\tWoman\t0.9\nkadin\tthe\t0.1\nEv\tHouse\t1.0\n")
    out = tmp_path / "d.tsv"
    assert main(["dict", "--ttable", ttable, "--out", str(out)]) == 0
    assert read(out) == "ev\thouse\t1.0\nkadin\twoman\t0.9\n"


# --- errors name their code and line ---------------------------------------------------


def test_normalize_and_pivot_read_a_bom_prefixed_table(tmp_path, capsys):
    dumped = tmp_path / "dumped.txt"
    assert main(["dump-table", "--out", str(dumped)]) == 0
    table = write(tmp_path / "table.txt", "\ufeff" + read(dumped))
    gloss = write(tmp_path / "gloss.txt", "woman-Past.3SG\n")
    out = tmp_path / "out.txt"
    assert main(["normalize", "--table", table, "--in", gloss, "--out", str(out)]) == 0
    assert read(out) == "woman-PST.3.SG\n"
    analyzer = write(tmp_path / "analyzer.txt", TURKISH_ANALYZER_FIXTURE)
    dict_file = write(tmp_path / "dict.tsv", PIVOT_DICTIONARY_TSV)
    assert main(["pivot", "--table", table, "--analyzer-out", analyzer, "--dict", dict_file,
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err.startswith("igt: pivoted ")


def test_align_reports_parallel_files_of_different_length(tmp_path, capsys):
    src = write(tmp_path / "src.txt", "a b\nc\n")
    tgt = write(tmp_path / "tgt.txt", "x y\n")
    assert main(["align", "--src", src, "--tgt", tgt]) == 1
    assert capsys.readouterr().err == (
        "igt: LENGTH_MISMATCH: parallel files differ in length: 2 vs 1\n"
    )


def test_align_warns_of_each_line_blank_on_one_side_only(tmp_path, capsys):
    src = write(tmp_path / "src.txt", "a b\nc d\ne\n\nf\n")
    tgt = write(tmp_path / "tgt.txt", "x y\n\nz\n\n\n")
    out = tmp_path / "dict.tsv"
    assert main(["align", "--src", src, "--tgt", tgt, "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    # line 4, blank on both sides, passes silently
    assert err[:2] == [
        "igt: warning: SKIPPED_PAIR: blank target line; its source line is dropped (line 2)",
        "igt: warning: SKIPPED_PAIR: blank target line; its source line is dropped (line 5)",
    ]
    assert err[2].startswith("igt: trained 5 iteration(s)") and len(err) == 3
    kept = tmp_path / "kept.tsv"
    write(tmp_path / "src1.txt", "a b\ne\n")
    write(tmp_path / "tgt1.txt", "x y\nz\n")
    argv = ["align", "--src", str(tmp_path / "src1.txt"), "--tgt", str(tmp_path / "tgt1.txt")]
    assert main([*argv, "--out", str(kept)]) == 0
    assert read(out) == read(kept)  # the warnings change no output
    capsys.readouterr()
    write(tmp_path / "src2.txt", "a b\n\n")
    write(tmp_path / "tgt2.txt", "x y\nw\n")
    argv = ["align", "--src", str(tmp_path / "src2.txt"), "--tgt", str(tmp_path / "tgt2.txt")]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines()[0] == (
        "igt: warning: SKIPPED_PAIR: blank source line; its target line is dropped (line 2)"
    )


def test_parse_odin_names_the_line_of_a_bad_block(tmp_path, capsys):
    blocks = write(tmp_path / "blocks.txt", "s\ng\nt\n\nsrc\nkadin-NOM gel\nwoman come now\nthe end\n")
    assert main(["parse-odin", "--in", blocks, "--lang", "tur"]) == 1
    assert capsys.readouterr().err == (
        "igt: TOKEN_COUNT_MISMATCH: line 5: "
        "gloss token counts differ: 2 source-lemma vs 3 target-lemma\n"
    )


def test_parse_odin_warns_about_a_two_line_run_and_writes_the_rest(tmp_path, capsys):
    blocks = write(tmp_path / "blocks.txt", "one\ntwo\n\ns\ng\nt\n")
    outfile = tmp_path / "corpus.igt"
    assert main(["parse-odin", "--in", blocks, "--lang", "tur", "--out", str(outfile)]) == 0
    assert capsys.readouterr().err == (
        "igt: warning: BLOCK_SHAPE: run of 2 line(s) starting at line 1 "
        "is not a 3-4 line IGT block (line 1)\n"
    )
    assert read(outfile) == "id=odin-0001\tlang=tur\tsrc=s\tgloss_tgt=g\ttgt=t\n"


def test_prepare_multi_reads_a_gloss_with_two_punctuation_tokens_in_a_row(tmp_path):
    blocks = write(tmp_path / "blocks.txt", "s\na !? .\nb c d\nt\n")
    corpus = tmp_path / "corpus.igt"
    assert main(["parse-odin", "--in", blocks, "--lang", "tur", "--out", str(corpus)]) == 0
    assert "gloss_src=a!? .\t" in read(corpus)
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    argv = ["prepare-multi", "--in", str(corpus), "--src-out", str(src), "--tgt-out", str(tgt)]
    assert main(argv) == 0
    assert read(src) == "tur b c d\n"
    assert read(tgt) == "t\n"


def test_pivot_names_the_line_of_a_bad_analyzer_line(tmp_path, capsys):
    analyzer = write(tmp_path / "analyzer.txt", "gel+Past\n\na++B\n")
    dict_file = write(tmp_path / "dict.tsv", "gel\tcome\n")
    assert main(["pivot", "--analyzer-out", analyzer, "--dict", dict_file]) == 1
    assert capsys.readouterr().err == (
        "igt: PIPELINE_STAGE_ERROR: stage parse-analyzer: "
        "analyzer token has an empty tag: 'a++B' (line 3)\n"
    )


def test_line_mapping_commands_name_the_line_of_a_bad_input_line(tmp_path, capsys):
    analyzer = write(tmp_path / "analyzer.txt", "gel+Past\n\na++B\n")
    outfile = tmp_path / "gloss.txt"
    assert main(["parse-analyzer", "--in", analyzer, "--out", str(outfile)]) == 1
    assert capsys.readouterr().err == (
        "igt: MALFORMED_TOKEN: line 3: analyzer token has an empty tag: 'a++B'\n"
    )
    assert not outfile.exists()


_ANALYZER_TAGS = sorted(default_table().analyzer_map) + ["Zorp", "Dim"]
_analyzer_cli_word = st.one_of(
    st.sampled_from([".", "!?", ","]),
    st.builds(
        lambda surface, tags, trailing: "+".join([surface, *tags]) + trailing,
        st.sampled_from(["Kadi", "kadi", "ev", "gel", "ABD", "a-b", "x_y", "new_york"]),
        st.lists(st.sampled_from(_ANALYZER_TAGS), max_size=4),
        st.sampled_from(["", "", ".", "!?", ","]),
    ),
)
_analyzer_cli_line = st.one_of(
    st.sampled_from(["", "  "]), st.lists(_analyzer_cli_word, min_size=1, max_size=6).map(" ".join)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_analyzer_cli_line, min_size=1, max_size=5), st.booleans(), st.booleans())
def test_parse_analyzer_writes_analyzer_to_gloss_of_each_line(lines, crlf, number_first):
    table = default_table(not number_first)
    expected = "".join(
        (analyzer_to_gloss(parse_analyzer_line(line), table).render() if line.strip() else "")
        + "\n"
        for line in lines
    )
    with tempfile.TemporaryDirectory() as work:
        infile = os.path.join(work, "analyzed.txt")
        with open(infile, "w", encoding="utf-8", newline="") as handle:
            handle.write("".join(line + ("\r\n" if crlf else "\n") for line in lines))
        outfile = os.path.join(work, "gloss.txt")
        argv = ["parse-analyzer", "--in", infile, "--out", outfile]
        assert main(argv + ["--number-first"] * number_first) == 0
        with open(outfile, encoding="utf-8", newline="") as handle:
            assert handle.read() == expected


@pytest.mark.parametrize(
    "word, message",
    [
        ("x+", "analyzer token has an empty tag: 'x+'"),
        ("+Nom", "analyzer token has empty surface: '+Nom'"),
        ("!+Nom", "punctuation token '!' must not carry tags"),
        ("a++b", "analyzer token has an empty tag: 'a++b'"),
    ],
)
def test_parse_analyzer_names_a_malformed_word(word, message, tmp_path, capsys):
    analyzer = write(tmp_path / "analyzer.txt", f"gel+Past\n\r\nev {word} gel\n")
    outfile = tmp_path / "gloss.txt"
    assert main(["parse-analyzer", "--in", analyzer, "--out", str(outfile)]) == 1
    assert capsys.readouterr().err == f"igt: MALFORMED_TOKEN: line 3: {message}\n"
    assert not outfile.exists()


# "tur\n": a "$" anchor would also match before the newline, which the
# corpus line would then hold escaped
@pytest.mark.parametrize(
    "command,lang", [("parse-odin", "TUR"), ("parse-odin", "tur\n"), ("parse-toolbox", "x")]
)
def test_parse_commands_reject_a_bad_language_tag_with_its_code(command, lang, tmp_path, capsys):
    infile = write(tmp_path / "in.txt", "s\ng\nt\n")
    assert main([command, "--in", infile, "--lang", lang]) == 1
    assert capsys.readouterr().err == (
        f"igt: BAD_LANGUAGE_TAG: language tag must be 3 lowercase letters, got {lang!r}\n"
    )


def test_pivot_rejects_split_morphs_with_the_baseline_before_reading_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    argv = ["pivot", "--analyzer-out", missing, "--dict", missing, "--split-morphs"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("igt: CLI_ERROR: --split-morphs ")


# --- input that is not UTF-8 ----------------------------------------------------------------


def _not_utf8(path, lines_before):
    path.write_bytes(b"ok-NOM\n" * lines_before + b"kad\xffn-NOM\n")
    return str(path)


def _input_argv(command, infile):
    if command == "normalize":  # read a line at a time
        return ["normalize", "--in", infile]
    return ["eval", "--hyp", infile, "--ref", infile]  # read whole


@pytest.mark.parametrize("command", ["normalize", "eval"])
@pytest.mark.parametrize("lines_before", [1, 2000])  # 2000 lines run past 8 KiB
def test_input_that_is_not_utf8_names_the_file_and_line(command, lines_before, tmp_path, capsys):
    infile = _not_utf8(tmp_path / "bad.txt", lines_before)
    assert main(_input_argv(command, infile)) == 1
    assert capsys.readouterr().err == (
        f"igt: BAD_ENCODING: {infile} line {lines_before + 1}: "
        "not UTF-8 (byte 0xff: invalid start byte)\n"
    )


@pytest.mark.parametrize("command", ["normalize", "eval"])
def test_stdin_that_is_not_utf8_is_named_dash(command, tmp_path, monkeypatch, capsys):
    data = Path(_not_utf8(tmp_path / "bad.txt", 1)).read_bytes()
    monkeypatch.setattr(sys, "stdin", stdin_bytes(data))
    assert main(_input_argv(command, "-")) == 1
    assert capsys.readouterr().err == (
        "igt: BAD_ENCODING: - line 2: not UTF-8 (byte 0xff: invalid start byte)\n"
    )


def test_pivot_reports_translator_output_that_is_not_utf8_at_the_translate_stage(
    tmp_path, capsys
):
    analyzer = write(tmp_path / "analyzer.txt", "gel+Past\n")
    dict_file = write(tmp_path / "dict.tsv", "gel\tcome\n")
    out = tmp_path / "out.txt"
    script = "import sys; sys.stdin.read(); sys.stdout.buffer.write(bytes([255, 10]))"
    command = f"cmd:{sys.executable} -c \"{script}\""
    argv = ["pivot", "--analyzer-out", analyzer, "--dict", dict_file,
            "--translator", command, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "igt: PIPELINE_STAGE_ERROR: stage translate: translator output line 1: "
        "not UTF-8 (byte 0xff: invalid start byte)\n"
    )
    assert not out.exists()


def test_pivot_drops_a_bom_that_leads_the_translator_output(tmp_path):
    analyzer = write(tmp_path / "analyzer.txt", "gel+Past\nev+A3sg\n")
    dict_file = write(tmp_path / "dict.tsv", "gel\tcome\n")
    out = tmp_path / "out.txt"
    data = list("\ufeffx\ny\n".encode("utf-8"))
    script = f"import sys; sys.stdin.read(); sys.stdout.buffer.write(bytes({data}))"
    argv = ["pivot", "--analyzer-out", analyzer, "--dict", dict_file,
            "--translator", f"cmd:{sys.executable} -c \"{script}\"", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == b"x\ny\n"


# --- flag values checked before any input is read --------------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (["parse-toolbox", "--in", "{missing}", "--lang", "tur", "--map", "t=src,g=gloss_tgt"],
         "bad --map entry 't=src' (role 'src' is not one of "
         "gloss_src, gloss_tgt, ignore, source, target)"),
        (["align", "--src", "{missing}", "--tgt", "{missing}", "--iters", "0"],
         "--iters must be at least 1, got 0"),
        (["pivot", "--analyzer-out", "{missing}", "--dict", "{missing}", "--translator", "cmd:"],
         "--translator cmd: needs a command"),
        (["pivot", "--analyzer-out", "{missing}", "--dict", "{missing}",
          "--translator", "cmd:cat", "--timeout", "0"],
         "--timeout must be a positive number of seconds, got 0.0"),
        (["pivot", "--analyzer-out", "{missing}", "--dict", "{missing}",
          "--translator", "cmd:cat", "--timeout", "-1"],
         "--timeout must be a positive number of seconds, got -1.0"),
        (["pivot", "--analyzer-out", "{missing}", "--dict", "{missing}", "--timeout", "-5"],
         "--timeout bounds a cmd: translator's run; the baseline translator does not use it"),
        (["pivot", "--analyzer-out", "{missing}", "--dict", "{missing}",
          "--translator", "identity", "--timeout", "5"],
         "--timeout bounds a cmd: translator's run; the identity translator does not use it"),
        (["align", "--src", "{missing}", "--tgt", "{missing}", "--threshold", "nan"],
         "--threshold must be a probability in [0, 1], got nan"),
        (["align", "--src", "{missing}", "--tgt", "{missing}", "--threshold", "1.5"],
         "--threshold must be a probability in [0, 1], got 1.5"),
        (["dict", "--ttable", "{missing}", "--threshold", "nan"],
         "--threshold must be a probability in [0, 1], got nan"),
        (["dict", "--ttable", "{missing}", "--threshold", "-0.1"],
         "--threshold must be a probability in [0, 1], got -0.1"),
    ],
    ids=[
        "map-role", "iters", "empty-command", "zero-timeout", "negative-timeout",
        "baseline-timeout", "identity-timeout", "align-nan-threshold", "align-threshold-above-1",
        "dict-nan-threshold", "dict-negative-threshold",
    ],
)
def test_bad_flag_values_are_cli_errors_before_any_input_is_read(argv, message, tmp_path, capsys):
    # every input is missing, so reading one would fail with FILE_NOT_FOUND instead
    missing = str(tmp_path / "nope.txt")
    assert main([arg.format(missing=missing) for arg in argv]) == 1
    assert capsys.readouterr().err == f"igt: CLI_ERROR: {message}\n"


def test_a_cmd_translator_times_out_after_60_seconds_unless_told_otherwise():
    assert _translator_from_spec("cmd:cat", None).timeout == 60.0
    assert _translator_from_spec("cmd:cat", 5.0).timeout == 5.0


# --- every stderr message is one line --------------------------------------------------------


@pytest.mark.parametrize("section, shown", [
    ("vari\rants", "vari\\rants"),
    ("vari\u2028ants", "vari\\u2028ants"),
    ("vari\x85ants", "vari\\x85ants"),
    ("vari\fants", "vari\\x0cants"),
])
def test_a_table_error_quoting_a_line_break_is_one_line(section, shown, tmp_path, capsys):
    table = write(tmp_path / "table.txt", f"[registry]\nNOM\n[{section}]\n")
    infile = write(tmp_path / "in.txt", "gel+Past\n")
    assert main(["parse-analyzer", "--table", table, "--in", infile]) == 1
    assert capsys.readouterr().err == (
        f"igt: TABLE_PARSE_ERROR: line 3: unknown section [{shown}]\n"
    )


@pytest.mark.parametrize("record_id, shown", [("a\\rb", "a\\rb"), ("a\u2028b", "a\\u2028b")])
def test_prepare_multi_warns_of_an_id_holding_a_line_break_on_one_line(
    record_id, shown, tmp_path, capsys
):
    corpus = write(tmp_path / "c.igt", f"id={record_id}\tlang=tur\tsrc=x\tgloss_src=x\n")
    argv = ["prepare-multi", "--in", corpus,
            "--src-out", str(tmp_path / "s.txt"), "--tgt-out", str(tmp_path / "t.txt")]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        f"igt: warning: SKIPPED_RECORD: record {shown} lacks gloss_tgt or target_text (line 1)\n"
    )


def test_split_names_an_escaped_carriage_return_on_one_line(tmp_path, capsys):
    corpus = write(tmp_path / "c.igt", "id=a\\\rb\tlang=tur\tsrc=x\n")
    argv = ["split", "--in", corpus, "--train-out", str(tmp_path / "1"),
            "--valid-out", str(tmp_path / "2"), "--test-out", str(tmp_path / "3")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "igt: MALFORMED_RECORD: line 1: unknown escape \\\\r\n"


def test_a_translator_two_line_stderr_is_one_line_of_ours(tmp_path, capsys):
    analyzer = write(tmp_path / "analyzer.txt", "gel+Past\n")
    dict_file = write(tmp_path / "dict.tsv", "gel\tcome\n")
    script = "import sys; sys.stdin.read(); sys.stderr.write('one\\ntwo\\n'); sys.exit(3)"
    argv = ["pivot", "--analyzer-out", analyzer, "--dict", dict_file,
            "--translator", f"cmd:{sys.executable} -c \"{script}\""]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "igt: PIPELINE_STAGE_ERROR: stage translate: translator exited with status 3: "
        "one\\ntwo\n"
    )


def test_a_translator_stderr_that_is_not_utf8_is_escaped_on_one_line(tmp_path, capsys):
    analyzer = write(tmp_path / "analyzer.txt", "gel+Past\n")
    dict_file = write(tmp_path / "dict.tsv", "gel\tcome\n")
    script = "import sys; sys.stdin.read(); sys.stderr.buffer.write(bytes([255])); sys.exit(1)"
    argv = ["pivot", "--analyzer-out", analyzer, "--dict", dict_file,
            "--translator", f"cmd:{sys.executable} -c \"{script}\""]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "igt: PIPELINE_STAGE_ERROR: stage translate: translator exited with status 1: "
        "\\xff\n"
    )


def test_a_missing_input_named_with_a_newline_is_one_line(tmp_path, capsys):
    missing = str(tmp_path / "no\nsuch")
    assert main(["normalize", "--in", missing]) == 1
    shown = missing.replace("\n", "\\n")
    assert capsys.readouterr().err == f"igt: FILE_NOT_FOUND: input file does not exist: {shown}\n"
