"""``igt normalize`` and ``igt subst`` map each distinct word head and tail
once per run; they must write what the per-line path writes: tokenize the
line, normalize or substitute the ``GlossLine``, render it."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot import (
    LemmaDictionary,
    OovPolicy,
    default_table,
    loads_table,
    normalize_gloss_line,
    substitute_lemmas,
    tokenize_gloss,
)
from igtpivot.cli import main
from igtpivot.pipeline import _Memo, _normalized_lines, _substituted_lines
from igtpivot.tables import DEFAULT_TABLE_TEXT

# a registry that differs from the default one: new labels, two of them
# punctuation, and variants that make lemmas of the default table labels
CUSTOM_TABLE_TEXT = DEFAULT_TABLE_TEXT.replace("[registry]\n", "[registry]\nZZ ! ? KAP\n").replace(
    "[variants]\n", "[variants]\nzork\tZZ\nkap\tKAP\nbang\t!\nbangs\t!.?\n", 1
)
TABLES = {
    "default": (None, default_table()),
    "number-first": (["--number-first"], default_table(person_first=False)),
    "custom": ("custom", loads_table(CUSTOM_TABLE_TEXT)),
}
# title case (Kadin), targets that are punctuation (dot, bang) or equal to
# their source (same), an upper-case target (abd), "_" as a lemma, OOV lemmas
DICTIONARY_TSV = (
    "kadin\twoman\nev\thouse\nsame\tsame\ndot\t.\nbang\t!\nabd\tUSA\n_\tnil\nx_y\ty_x\n"
)
DICTIONARY = LemmaDictionary(
    {
        "kadin": ("woman", 1.0), "ev": ("house", 1.0), "same": ("same", 1.0),
        "dot": (".", 1.0), "bang": ("!", 1.0), "abd": ("USA", 1.0), "_": ("nil", 1.0),
        "x_y": ("y_x", 1.0),
    }
)

# "" as a segment makes opaque and edge delimiters: a..b, -a, x-
_segment = st.sampled_from([
    "kadin", "Kadin", "ev", "Ev", "dot", "same", "Same", "abd", "ABD", "bang", "bangs", "_",
    "x_y", "zork", "kap", "3SG", "3sg", "SG", "PST", "Past", "NOM", "é", "9", "",
])
_word = st.one_of(
    st.sampled_from([".", "!?", ",", "...", "?"]),  # punctuation only
    st.builds(
        lambda first, rest, punct: first + "".join(d + s for d, s in rest) + punct,
        _segment,
        st.lists(st.tuples(st.sampled_from("-.="), _segment), max_size=3),
        st.sampled_from(["", "", "", ".", "!?.", ",", "?"]),
    ).filter(bool),
)
_line = st.one_of(
    st.sampled_from(["", "  "]), st.lists(_word, min_size=1, max_size=6).map(" ".join)
)


def run_cli(argv, lines):
    """``igt`` with ``argv`` over ``lines`` as its ``--in`` file; its output."""
    with tempfile.TemporaryDirectory() as work:
        infile, outfile = os.path.join(work, "in.txt"), os.path.join(work, "out.txt")
        with open(infile, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("".join(line + "\n" for line in lines))
        if "custom" in argv:
            table = os.path.join(work, "table.tsv")
            with open(table, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(CUSTOM_TABLE_TEXT)
            argv = [table if arg == "custom" else arg for arg in argv]
        if "DICT" in argv:
            dictionary = os.path.join(work, "dict.tsv")
            with open(dictionary, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(DICTIONARY_TSV)
            argv = [dictionary if arg == "DICT" else arg for arg in argv]
        assert main([*argv, "--in", infile, "--out", outfile]) == 0
        with open(outfile, encoding="utf-8", newline="") as handle:
            return handle.read()


def normalized(line, table):
    registry = table.label_registry()
    return normalize_gloss_line(tokenize_gloss(line, label_registry=registry), table).render()


def substituted(line, policy):
    return substitute_lemmas(tokenize_gloss(line), DICTIONARY, policy).render()


def per_line(convert, lines):
    return "".join((convert(line) if line.strip() else "") + "\n" for line in lines)


@pytest.mark.parametrize("name", list(TABLES))
@settings(max_examples=60, deadline=None)
@given(lines=st.lists(_line, min_size=1, max_size=6))
def test_normalize_writes_what_the_per_line_path_writes(name, lines):
    option, table = TABLES[name]
    argv = ["normalize", *(["--table", option] if option == "custom" else option or [])]
    assert run_cli(argv, lines) == per_line(lambda line: normalized(line, table), lines)


@pytest.mark.parametrize("policy", list(OovPolicy))
@settings(max_examples=60, deadline=None)
@given(lines=st.lists(_line, min_size=1, max_size=6))
def test_subst_writes_what_the_per_line_path_writes(policy, lines):
    argv = ["subst", "--dict", "DICT", "--oov", policy.value]
    assert run_cli(argv, lines) == per_line(lambda line: substituted(line, policy), lines)


def mapped(lines):
    """Each line map's outputs over ``lines``, one map per table and policy,
    so later lines meet heads and tails an earlier line built."""
    converts = [_normalized_lines(table) for _, table in TABLES.values()]
    converts += [_substituted_lines(DICTIONARY, policy) for policy in OovPolicy]
    return [[convert(line) for line in lines] for convert in converts]


@settings(max_examples=150, deadline=None)
@given(st.lists(_line.filter(str.strip), min_size=1, max_size=12))
def test_line_maps_match_the_per_line_path_across_lines(lines):
    expected = [[normalized(line, table) for line in lines] for _, table in TABLES.values()]
    expected += [[substituted(line, policy) for line in lines] for policy in OovPolicy]
    assert mapped(lines) == expected


def test_line_maps_do_not_depend_on_the_memo_bound(monkeypatch):
    lines = ["Kadin-PST ev=ev 3SG-see x!?. ,", "a..b -a x- _ dot bang.3SG", "zork=zork Same-kap ."]
    expected = mapped(lines * 3)
    monkeypatch.setattr("igtpivot.model._MEMO_SIZE", 1)
    assert mapped(lines * 3) == expected


def test_a_memo_stores_nothing_for_a_build_that_raises():
    calls = []

    def build(key):
        calls.append(key)
        if len(calls) == 1:
            raise ValueError("first build fails")
        return key.upper()

    memo = _Memo(build)
    with pytest.raises(ValueError):
        memo["a"]
    assert "a" not in memo
    assert memo["a"] == memo["a"] == "A"
    assert calls == ["a", "a"]
