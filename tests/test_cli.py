"""Command-line interface: goldens, exit codes, idempotency, stream defaults."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from igtpivot import default_table, load_table, loads_table
from igtpivot.cli import build_parser, main
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
    assert load_table(str(out)) == default_table()


def test_stdout_default(capsys):
    assert main(["dump-table"]) == 0
    out = capsys.readouterr().out
    assert "[registry]" in out
    assert loads_table(out) == default_table()


def test_stdin_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Man.NOM see-PAST.3SG.\n"))
    assert main(["normalize"]) == 0
    assert capsys.readouterr().out == "Man.NOM see-PST.3.SG.\n"


# --- error handling ---------------------------------------------------------------------------


def test_missing_input_file_is_operational_error(tmp_path, capsys):
    code = main(["normalize", "--in", str(tmp_path / "nope.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("igt: FILE_NOT_FOUND:")
    assert "\n" not in err.strip()


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


# --- python -m ------------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["igtpivot", "igtpivot.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    result = run("dump-table")
    assert result.returncode == 0
    assert loads_table(result.stdout) == default_table()
    result = run("normalize", "--in", str(tmp_path / "nope.txt"))
    assert result.returncode == 1
    assert result.stderr.startswith("igt: FILE_NOT_FOUND:")


def test_dict_writes_a_hand_written_tables_targets_in_lowercase(tmp_path):
    ttable = write(tmp_path / "t.tsv", "Kadin\tWoman\t0.9\nkadin\tthe\t0.1\nEv\tHouse\t1.0\n")
    out = tmp_path / "d.tsv"
    assert main(["dict", "--ttable", ttable, "--out", str(out)]) == 0
    assert read(out) == "ev\thouse\t1.0\nkadin\twoman\t0.9\n"
