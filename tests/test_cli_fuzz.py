"""Every input boundary of the command line, fuzzed in-process.

Each subcommand runs through ``cli.main`` on mutated copies of small valid
inputs, with a few flag values varied.  Whatever it reads, a run exits 0,
or 1 with exactly one ``igt: CODE: message`` line besides its warnings; the
code is never ``VALUE_ERROR``; no stderr line holds a line break; and an
error about one input line names it.  ``cmd:`` translators are left out, so
no example starts a process.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot.cli import main

from golden_data import (
    IGT_EXAMPLES,
    PIVOT_DICTIONARY_TSV,
    SUBSTITUTION_GOLD,
    TOY_PARALLEL_SRC,
    TOY_PARALLEL_TGT,
    TURKISH_ANALYZER_FIXTURE,
)

ODIN = "\n\n".join("\n".join(example[:3]) for example in IGT_EXAMPLES) + "\n"
TOOLBOX = (
    "\\_sh v3.0 400 Text\n\n"
    "\\t Nwg yeej qhuas nwg.\n\\g 3SG always praise 3SG.\n\\f He always praises himself.\n\n"
    "\\t a b\n\\g x y\n\\f one\n"
)
TABLE = (
    "[registry]\n1 2 3 SG PL NOM ACC PST PROG NPOSS\n"
    "[variants]\nPast\tPST\nsg\tSG\n"
    "[composites]\n(?P<person>[123])(?P<number>sg|pl)\n"
    "[analyzer]\nA3sg\t3.SG\nA3pl\t3.PL\nNom\tNOM\nAcc\tACC\nPnon\tNPOSS\n"
    "Past\tPST\tverbal\nProg1\tPROG\tverbal\n"
    "[restore]\nKadi\tKadin\n"
)
GLOSSES = "".join(before + "\n" for before, _ in SUBSTITUTION_GOLD) + "Woman.NOM dance do-AOR.3SG.\n"
CORPUS = (
    "id=c-1\tlang=blu\tsrc=Nwg yeej qhuas nwg.\tgloss_src=nwg yeej qhuas-3SG nwg.\t"
    "gloss_tgt=3SG always praise-3SG 3SG.\ttgt=He always praises himself.\n"
    "id=c-2\tlang=deu\tsrc=das Haus\tgloss_tgt=the house.NOM\ttgt=the house\tprov=odin\\tp 3\n"
    "id=c-3\tlang=tur\tsrc=gel\\\\di\tgloss_src=gel-PST\n"
)
TTABLE = (
    "# iterations=2\n# null_word=false\n# final_perplexity=1.5\n"
    "buch\tbook\t0.75\nbuch\tthe\t0.25\ndas\tthe\t0.5\nhaus\thouse\t1.0\n"
)
DICTIONARY = PIVOT_DICTIONARY_TSV + "haus\thouse\t0.5\n"
HYPOTHESES = "the man saw the woman .\nthe woman dances .\nshe will talk\n"
REFERENCES = "the man saw the woman .\nthe woman dances .\nshe talks\n"
ANNOTATIONS = (
    "s1\tnouns=man,woman\tverbs=see\tsubj=3.SG\ttense=PST\n"
    "# a comment\n"
    "s2\tnouns=woman\tverbs=dance\tsubj=3.SG\ttense=PRS\n"
)
LEXICON = "see\tsaw\tseen\tsees\ntalk\ttalked\n"

# what a mutation puts into a file: the characters the readers split on,
# escape or trip over, and numbers no probability or count can be
INSERTS = [
    b"\t", b"\r", b"\n", b"\\", b"=", b"\x00", "\ufeff".encode(), "\u2028".encode(),
    b"nan", b"1e999", b"\xff",
]


@st.composite
def mutated(draw, text: str) -> bytes:
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("insert", "insert", "delete", "truncate")))
        if edit == "insert":
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 12)):]
        else:
            data = data[:at]
    return data


LANGS = st.sampled_from(["tur", "blu", "TUR", "tu", "abcd", "", "tür"])
ID_PREFIXES = st.sampled_from(["odin", "", "x=y", "a\\b", "a\tb", "a\nb", "\udcff"])
MAPS = st.sampled_from([
    [], ["--map", "t=source,g=gloss_tgt,f=target"], ["--map", "t=src"], ["--map", "=source"],
    ["--map", "t=source,t=target"], ["--map", "x"], ["--map", "g=ignore"],
])
RATIOS = st.sampled_from(["0.8,0.1,0.1", "1,0,0", "0.5,0.5", "nan,0,0", "1e999,0,0", "-1,1,1",
                          "a,b,c", "0,0,0"])
THRESHOLDS = st.sampled_from(["0", "0.5", "1", "nan", "1e999", "-0.1"])
ITERS = st.sampled_from(["1", "2", "0", "-1"])


def _flag(name: str) -> st.SearchStrategy:
    return st.booleans().map(lambda on: [name] if on else [])


# each command: a strategy for its argv, in which "{name}" is an input file
# written from the strategy for "name", and "@name" an output file
COMMANDS = {
    "parse-odin": (
        st.tuples(LANGS, ID_PREFIXES).map(lambda lp: [
            "parse-odin", "--in", "{odin}", "--lang", lp[0], "--id-prefix", lp[1], "--out", "@out",
        ]),
        {"odin": ODIN},
    ),
    "parse-toolbox": (
        st.tuples(LANGS, ID_PREFIXES, MAPS).map(lambda lpm: [
            "parse-toolbox", "--in", "{toolbox}", "--lang", lpm[0], "--id-prefix", lpm[1],
            *lpm[2], "--out", "@out",
        ]),
        {"toolbox": TOOLBOX},
    ),
    "parse-analyzer": (
        _flag("--number-first").map(lambda nf: [
            "parse-analyzer", "--in", "{analyzer}", "--table", "{table}", *nf, "--out", "@out",
        ]),
        {"analyzer": TURKISH_ANALYZER_FIXTURE, "table": TABLE},
    ),
    "normalize": (
        _flag("--number-first").map(lambda nf: [
            "normalize", "--in", "{glosses}", "--table", "{table}", *nf, "--out", "@out",
        ]),
        {"glosses": GLOSSES, "table": TABLE},
    ),
    "split": (
        st.tuples(RATIOS, st.integers(0, 3)).map(lambda rs: [
            "split", "--in", "{corpus}", f"--ratios={rs[0]}", "--seed", str(rs[1]),
            "--train-out", "@train", "--valid-out", "@valid", "--test-out", "@test",
        ]),
        {"corpus": CORPUS},
    ),
    "align": (
        st.tuples(ITERS, THRESHOLDS, _flag("--null")).map(lambda itn: [
            "align", "--src", "{src}", "--tgt", "{tgt}", "--iters", itn[0],
            "--threshold", itn[1], *itn[2], "--ttable-out", "@ttable", "--out", "@out",
        ]),
        {"src": TOY_PARALLEL_SRC, "tgt": TOY_PARALLEL_TGT},
    ),
    "dict": (
        THRESHOLDS.map(lambda t: [
            "dict", "--ttable", "{ttable}", "--threshold", t, "--out", "@out",
        ]),
        {"ttable": TTABLE},
    ),
    "subst": (
        st.sampled_from(["keep", "drop", "mark"]).map(lambda oov: [
            "subst", "--in", "{glosses}", "--dict", "{dictionary}", "--oov", oov, "--out", "@out",
        ]),
        {"glosses": GLOSSES, "dictionary": DICTIONARY},
    ),
    "prepare-multi": (
        _flag("--split-morphs").map(lambda sm: [
            "prepare-multi", "--in", "{corpus}", *sm, "--src-out", "@src", "--tgt-out", "@tgt",
        ]),
        {"corpus": CORPUS},
    ),
    "pivot": (
        st.tuples(st.sampled_from(["baseline", "identity"]), _flag("--split-morphs"),
                  _flag("--number-first")).map(lambda tsn: [
            "pivot", "--analyzer-out", "{analyzer}", "--table", "{table}",
            "--dict", "{dictionary}", "--translator", tsn[0], *tsn[1], *tsn[2],
            "--report", "@report", "--out", "@out",
        ]),
        {"analyzer": TURKISH_ANALYZER_FIXTURE, "table": TABLE, "dictionary": DICTIONARY},
    ),
    "eval": (
        _flag("--smooth").map(lambda smooth: [
            "eval", "--hyp", "{hyp}", "--ref", "{ref}", "--ann", "{ann}",
            "--lexicon", "{lexicon}", *smooth, "--out", "@out",
        ]),
        {"hyp": HYPOTHESES, "ref": REFERENCES, "ann": ANNOTATIONS, "lexicon": LEXICON},
    ),
    "dump-table": (st.just(["dump-table", "--out", "@out"]), {}),
}

# the errors that are about a flag or a whole input, not about one line of it
WHOLE_INPUT = re.compile(
    r"CLI_ERROR: |BAD_LANGUAGE_TAG: |BAD_RATIOS: |LENGTH_MISMATCH: |EMPTY_CORPUS: "
    r"|TABLE_PARSE_ERROR: no probability rows found$"
)
ERROR_LINE = re.compile(r"igt: ([A-Z_]+): (.+)")


def run(argv: "list[str]") -> "tuple[int, str]":
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_on_mutated_input_exits_by_the_one_error_path(command, workdir):
    argv_strategy, inputs = COMMANDS[command]
    files = st.fixed_dictionaries({name: mutated(text) for name, text in inputs.items()})

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(argv_strategy, files)
    def check(argv, contents):
        for name, data in contents.items():
            (workdir / name).write_bytes(data)
        code, err = run([
            str(workdir / arg[1:]) if arg.startswith("@")
            else arg.format(**{name: str(workdir / name) for name in contents})
            for arg in argv
        ])
        assert err == "" or err.endswith("\n")
        lines = err.split("\n")[:-1]
        for line in lines:
            assert line.splitlines() == [line], line
        if code == 0:
            return
        assert code == 1
        errors = [line for line in lines if not line.startswith("igt: warning: ")]
        assert len(errors) == 1, errors
        match = ERROR_LINE.fullmatch(errors[0])
        assert match, errors[0]
        assert match.group(1) != "VALUE_ERROR"
        if not WHOLE_INPUT.match(errors[0][len("igt: "):]):
            assert re.search(r"\bline \d+\b", match.group(2)), errors[0]

    check()
