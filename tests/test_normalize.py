"""Label normalization: variant mapping, composites, analyzer conversion."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot import (
    CycleDetectedError,
    MalformedTokenError,
    MorphKind,
    TableParseError,
    analyzer_to_gloss,
    default_table,
    loads_table,
    normalize_gloss_line,
    parse_analyzer_line,
    tokenize_gloss,
    unknown_analyzer_tags,
)
from igtpivot import normalize
from igtpivot.cli import _load_norm_table
from igtpivot.parsing import AnalyzerToken
from igtpivot.tables import DEFAULT_TABLE_TEXT

from gen_helpers import random_gloss_line
from pipeline_reference import reference_analyzer_to_gloss
from golden_data import (
    ANALYZER_GOLD,
    NORMALIZATION_GOLD_NUMBER_FIRST,
    NORMALIZATION_GOLD_PERSON_FIRST,
)


def _normalize_text(text, table):
    gloss = tokenize_gloss(text, label_registry=table.label_registry())
    return normalize_gloss_line(gloss, table).render()


# --- table loading --------------------------------------------------------------


def test_default_table_variant_lookups():
    table = default_table()
    assert table.lookup_label("PRES")[0] == ("PRS",)
    assert table.lookup_label("Past")[0] == ("PST",)
    assert table.lookup_label("pst")[0] == ("PST",)
    assert table.lookup_label("NOMZ")[0] == ("NMLZ",)
    assert table.lookup_label("ADVL")[0] == ("ADV",)


def test_default_table_analyzer_lookups():
    table = default_table()
    assert table.analyzer_map["A1sg"] == ("1", "SG")
    assert table.analyzer_map["P1pl"] == ("1", "PL", "POSS")
    assert table.analyzer_map["Reflex"] == ("REFL",)
    assert table.analyzer_map["NarrPart"] == ("EVID", "PTCP")
    assert table.analyzer_map["AorPart"] == ("AOR", "PTCP")
    assert table.analyzer_map["PresPart"] == ("PRS", "PTCP")
    assert table.analyzer_map["Prop"] == ()
    assert "Past" in table.verbal_tags
    assert "Prog1" in table.verbal_tags
    assert "Nom" not in table.verbal_tags


def test_cycle_detection():
    text = "[registry]\nX Y\n[variants]\nX\tY\nY\tX\n"
    with pytest.raises(CycleDetectedError) as caught:
        loads_table(text)
    assert caught.value.line == 4


@pytest.mark.parametrize("text, message", [
    # the variant lookup applies: the label's own, else the first of its casefold
    ("[registry]\nA B\n[variants]\nb\tA\nB\tA\n", "line 5: label 'B' normalizes to 'A'"),
    ("[registry]\nA\nB\n[variants]\nx\tA\nb\tA\nB_\tA\n", "line 6: label 'B' normalizes to 'A'"),
    # no variant applies: the label's first registry line
    ("[registry]\n3SG\n3 SG\n3SG\n[composites]\n(?P<person>3)(?P<number>SG)\n",
     "line 2: label '3SG' normalizes to '3.SG'"),
    ("[registry]\nSG\n# sg\nPL sg\n", "line 4: label 'sg' normalizes to 'SG'"),
])
def test_a_cycle_names_the_line_that_makes_it(text, message):
    with pytest.raises(CycleDetectedError, match=f"^{message}, not to itself$"):
        loads_table(text)


def test_variant_chain_is_rejected_so_normalizing_is_idempotent():
    # X->A->B->C would normalize w-X to w-A, and w-A to w-B on a second pass
    text = "[registry]\nA B C\n[variants]\nX\tA\nA\tB\nB\tC\n"
    message = r"^line 5: label 'A' normalizes to 'B', not to itself$"
    with pytest.raises(CycleDetectedError, match=message) as caught:
        loads_table(text)
    assert (caught.value.label, caught.value.image) == ("A", ("B",))
    # a composite's number label counts too: 3SG gives 3.SG, and SG gives PL
    composite = "[composites]\n(?P<person>[123])(?P<number>SG|PL)\n"
    with pytest.raises(CycleDetectedError, match=r"^line 4: label 'SG' normalizes to 'PL'"):
        loads_table(f"[registry]\n3 PL\n[variants]\nSG\tPL\n{composite}")
    loads_table("[registry]\n3 PL\n[variants]\nSG\tPL\n")  # no composite yields SG


def test_an_empty_label_is_refused():
    with pytest.raises(MalformedTokenError, match="^label must be non-empty$"):
        default_table().lookup_label("")


def test_self_mapping_is_a_fixed_point_not_a_cycle():
    text = "[registry]\nX\n[variants]\nX\tX\n"
    table = loads_table(text)
    assert table.lookup_label("X")[0] == ("X",)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[nonsense]\n", "unknown section"),
        ("stray line\n", "before any"),
        ("[registry]\nA\n[variants]\nv\tB\n", "not in the registry"),
        ("[registry]\nA\n[variants]\nv\tA\nv\tA\n", "duplicate variant"),
        ("[composites]\n(?P<person>[123]\n", "bad composite regex"),
        ("[composites]\n(?P<p>[123])(?P<n>SG)\n", "named groups"),
        ("[registry]\nA\n[variants]\nnotab\n", "tab-separated"),
        ("[registry]\nA\n[analyzer]\nTag\tA\tweird\n", "unknown analyzer flag"),
        ("[registry]\nA\n[variants]\nZAP\t-\n", "line 4: variant 'ZAP' maps to no label"),
        # a stripped line starts with its key, so a leading tab leaves no second field
        ("[variants]\n\tPST\n", "line 2: expected tab-separated fields"),
        ("[registry]\nA\n[variants]\nv\t.\n", r"line 4: empty label sequence '\.'"),
        ("[registry]\nA\n[analyzer]\nT\tA\nT\t-\n", "line 5: duplicate analyzer tag 'T'"),
        ("[registry]\nA\n[restore]\nk\tK\nk\tL\n", "line 5: duplicate restore entry 'k'"),
    ],
)
def test_table_parse_errors(text, fragment):
    with pytest.raises(TableParseError, match=fragment):
        loads_table(text)


def test_table_parse_error_carries_line_number():
    try:
        loads_table("[registry]\nA\n[variants]\nbad line without tab\n")
    except TableParseError as exc:
        assert exc.line == 4
    else:
        pytest.fail("expected TableParseError")


def test_load_table_from_file(tmp_path):
    # only the CLI opens a table file: ``--table PATH`` reads it through
    # ``_load_norm_table``, which hands its text to ``loads_table``
    path = tmp_path / "table.txt"
    path.write_text(DEFAULT_TABLE_TEXT, encoding="utf-8")
    table = _load_norm_table(str(path), person_first=True)
    assert table == default_table()


def test_load_table_reads_a_file_as_loads_table_reads_its_text(tmp_path):
    # a lone \r stays inside its line, so the [variants] header after it is
    # part of a comment and ``B<TAB>A`` is read as two registry labels
    text = "[registry]\nA\n# note\r[variants]\nB\tA\n"
    path = tmp_path / "table.txt"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    table = _load_norm_table(str(path), person_first=True)
    assert table == loads_table(text)
    assert table.variant_map == {} and table.registry == {"A", "B"}


# --- label normalization -----------------------------------------------------------


def test_composite_expansion_person_first_and_number_first():
    person_first = default_table()
    number_first = default_table(False)
    assert person_first.lookup_label("3SG")[0] == ("3", "SG")
    assert number_first.lookup_label("3SG")[0] == ("SG", "3")
    assert person_first.lookup_label("1pl")[0] == ("1", "PL")
    assert person_first.lookup_label("3S")[0] == ("3", "SG")
    assert person_first.lookup_label("2sing")[0] == ("2", "SG")


def test_a_composite_capture_that_is_no_person_number_pair_is_no_composite():
    # "X" is a variant of PL: read as a number, "3X" would become 3.X on one
    # pass and 3.PL on the next
    table = loads_table(
        "[registry]\nPL\n[variants]\nX\tPL\n[composites]\n(?P<person>[123])(?P<number>X)\n"
    )
    assert table.lookup_label("3X") == (("3X",), False)
    once = normalize_gloss_line(tokenize_gloss("w-3X", label_registry=table.label_registry()), table)
    assert normalize_gloss_line(once, table) == once


def test_registry_labels_are_fixed_points():
    table = default_table()
    for label in ["PST", "NOM", "SG", "3", "PROG"]:
        assert table.lookup_label(label)[0] == (label,)


def test_lowercase_registry_hit_uppercases():
    table = default_table()
    assert table.lookup_label("sg")[0] == ("SG",)
    assert table.lookup_label("nom")[0] == ("NOM",)


def test_unknown_label_passes_through_flagged():
    table = default_table()
    labels, known = table.lookup_label("Xyzzy")
    assert labels == ("Xyzzy",)
    assert not known


# --- gloss-line normalization ---------------------------------------------------------


def test_normalization_gold_number_first():
    table = default_table(False)
    for before, after in NORMALIZATION_GOLD_NUMBER_FIRST:
        assert _normalize_text(before, table) == after


def test_normalization_gold_person_first():
    table = default_table()
    for before, after in NORMALIZATION_GOLD_PERSON_FIRST:
        assert _normalize_text(before, table) == after


def test_normalization_is_idempotent_on_gold():
    for person_first in (True, False):
        table = default_table(person_first)
        for before, _ in NORMALIZATION_GOLD_NUMBER_FIRST:
            once = _normalize_text(before, table)
            assert _normalize_text(once, table) == once


def test_normalization_idempotent_and_count_preserving_random():
    rng = random.Random(777)
    table = default_table()
    for _ in range(100):
        line = random_gloss_line(rng, rng.randint(1, 5))
        normalized = normalize_gloss_line(line, table)
        assert len(normalized.tokens) == len(line.tokens)
        assert normalize_gloss_line(normalized, table) == normalized


def test_normalization_only_touches_labels():
    table = default_table()
    line = tokenize_gloss("Ahmet self-3.sg-ACC very admire-Progr.-Rep.Past.")
    normalized = normalize_gloss_line(line, table)
    for before, after in zip(line.tokens, normalized.tokens):
        before_lemmas = [m.text for m in before.morphs if m.kind is MorphKind.LEMMA]
        after_lemmas = [m.text for m in after.morphs if m.kind is MorphKind.LEMMA]
        assert before_lemmas == after_lemmas


def test_normalized_labels_are_registry_or_flagged():
    rng = random.Random(1234)
    table = default_table()
    for _ in range(50):
        line = random_gloss_line(rng, rng.randint(1, 5))
        normalized = normalize_gloss_line(line, table)
        for token in normalized.tokens:
            for morph in token.morphs:
                if morph.kind is MorphKind.LABEL:
                    assert morph.text in table.registry or not table.lookup_label(morph.text)[1]


# --- analyzer conversion -----------------------------------------------------------


def test_analyzer_gold_lines():
    table = default_table()
    for before, after in ANALYZER_GOLD:
        gloss = analyzer_to_gloss(parse_analyzer_line(before), table)
        assert gloss.render() == after


def test_analyzer_root_restoration_is_exact_match_only():
    table = default_table()
    gloss = analyzer_to_gloss(parse_analyzer_line("Kadi+Nom kadi+Nom"), table)
    assert [t.render() for t in gloss.tokens] == ["Kadin.NOM", "kadi.NOM"]


def test_analyzer_bare_token_becomes_bare_lemma():
    table = default_table()
    gloss = analyzer_to_gloss(parse_analyzer_line("ne"), table)
    assert gloss.render() == "ne"
    assert gloss.tokens[0].morphs[0].kind is MorphKind.LEMMA


def test_analyzer_verbal_tags_attach_with_hyphen():
    table = default_table()
    gloss = analyzer_to_gloss(parse_analyzer_line("gör+Past+A3sg"), table)
    assert gloss.render() == "gör-PST.3.SG"


def test_analyzer_unknown_tag_passes_through_and_is_counted():
    table = default_table()
    tokens = parse_analyzer_line("word+Zorp+Nom")
    assert unknown_analyzer_tags(tokens, table) == ["Zorp"]
    gloss = analyzer_to_gloss(tokens, table)
    assert gloss.render() == "word.Zorp.NOM"


def test_analyzer_token_count_is_preserved():
    table = default_table()
    for before, _ in ANALYZER_GOLD:
        tokens = parse_analyzer_line(before)
        gloss = analyzer_to_gloss(tokens, table)
        assert len(gloss.tokens) == len(tokens)


# --- person/number order wherever one label or tag expands to several ---------------


def test_number_first_orders_analyzer_tags_and_variants():
    number_first = default_table(False)
    tokens = parse_analyzer_line("gel+Past+A3sg kitap+A3pl+P1sg+Acc.")
    gloss = analyzer_to_gloss(tokens, number_first).render()
    assert gloss == "gel-PST.SG.3 kitap.SG.3.SG.1.POSS.ACC."
    gloss = analyzer_to_gloss(tokens, default_table()).render()
    assert gloss == "gel-PST.3.SG kitap.3.SG.1.SG.POSS.ACC."
    table = loads_table("[registry]\n1 2 3 SG PL DU POSS\n[variants]\n3POSS\t3.DU.POSS\n")
    assert table.lookup_label("3POSS")[0] == ("3", "DU", "POSS")
    number_first = dataclasses.replace(table, person_first=False)
    assert number_first.lookup_label("3POSS")[0] == ("DU", "3", "POSS")


def test_number_first_moves_each_number_once():
    table = loads_table(
        "[registry]\n1 2 3 SG PL\n[analyzer]\nX\t1.SG.PL\nY\tSG.3\nZ\t2.PL.3.SG\n",
        person_first=False,
    )
    tokens = parse_analyzer_line("a+X b+Y c+Z")
    assert analyzer_to_gloss(tokens, table).render() == "a.SG.1.PL b.SG.3 c.PL.2.SG.3"


@pytest.mark.parametrize("row, word", [("Kadi\tKa din", "Ka din"), ("Ka di\tKadin", "Ka di")])
def test_restore_word_with_whitespace_is_rejected_with_line_number(row, word):
    with pytest.raises(TableParseError) as info:
        loads_table(f"[registry]\nA\n[restore]\nok\tfine\n{row}\n")
    assert info.value.line == 5
    assert str(info.value) == f"line 5: restore word {word!r} is empty or contains whitespace"


# --- each tag's label morphs built once per table -----------------------------------

# an empty image, a verbal tag, multi-label person/number images (one of them
# verbal) and a label holding a hyphen, which must stay opaque
_CUSTOM_TABLE_TEXT = (
    "[registry]\n1 2 3 SG PL DU POSS PST NEG-Q\n"
    "[analyzer]\nDrop\t-\nPast\tPST\tverbal\nA3sg\t3.SG\n"
    "Multi\t1.SG.2.PL.POSS\nVMulti\t3.DU.PST\tverbal\nNq\tNEG-Q\n"
    "[restore]\nKadi\tKadin\n"
)
# tables no table text gives: unknown tags marked verbal, and roots restored
# to punctuation and to title case
_TABLES = {
    "default, person first": default_table(True),
    "default, number first": default_table(False),
    "custom, person first": loads_table(_CUSTOM_TABLE_TEXT),
    "custom, number first": loads_table(_CUSTOM_TABLE_TEXT, person_first=False),
    "verbal unknown tags": dataclasses.replace(
        default_table(), verbal_tags=default_table().verbal_tags | {"Zorp", "a.b"}
    ),
    "restoring": dataclasses.replace(
        default_table(), restore_map={**default_table().restore_map, "ev": ".", "kadi": "Kadin"}
    ),
}
# unknown tags, some holding a delimiter, punctuation, "_" or a non-ASCII letter
_TAGS = sorted(
    set(default_table().analyzer_map) | set(loads_table(_CUSTOM_TABLE_TEXT).analyzer_map)
) + ["Zorp", "Dim", "past", "A3SG", "a.b", "-x", "!", "é_x"]
_analyzer_tokens = st.lists(
    st.builds(
        AnalyzerToken,
        st.sampled_from(["Kadi", "kadi", "ev", "gel", "et", "ABD", "a-b"]),
        st.lists(st.sampled_from(_TAGS), max_size=6).map(tuple),
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_TABLES)), _analyzer_tokens)
def test_analyzer_to_gloss_matches_the_per_occurrence_reference(name, tokens):
    table = _TABLES[name]
    gloss_and_unknown = (analyzer_to_gloss(tokens, table), unknown_analyzer_tags(tokens, table))
    assert gloss_and_unknown == reference_analyzer_to_gloss(tokens, table)


def test_number_first_table_made_after_the_person_first_one_has_its_own_morphs():
    tokens = parse_analyzer_line("gel+Past+A3sg")
    person_first = default_table()
    assert analyzer_to_gloss(tokens, person_first).render() == "gel-PST.3.SG"
    number_first = dataclasses.replace(person_first, person_first=False)
    assert analyzer_to_gloss(tokens, number_first).render() == "gel-PST.SG.3"
    assert analyzer_to_gloss(tokens, person_first).render() == "gel-PST.3.SG"


def test_each_tag_run_builds_its_label_morphs_once_per_table(monkeypatch):
    calls = []
    build = normalize._tail

    def counting(table, run):
        calls.append(run)
        return build(table, run)

    monkeypatch.setattr(normalize, "_tail", counting)
    table = loads_table(DEFAULT_TABLE_TEXT)
    tokens = parse_analyzer_line("gel+Past+A3sg kitap+A3pl+P1sg+Acc+Zorp ev+Loc.") * 50
    runs = ["", "+A3pl+P1sg+Acc+Zorp", "+Loc", "+Past+A3sg"]
    gloss, unknown = analyzer_to_gloss(tokens, table), unknown_analyzer_tags(tokens, table)
    assert unknown == ["Zorp"] * 50
    assert sorted(calls) == runs
    calls.clear()
    assert analyzer_to_gloss(tokens, table) == gloss
    assert unknown_analyzer_tags(tokens, table) == unknown
    assert calls == []
    # another table, even an equal one, builds its own
    assert analyzer_to_gloss(tokens, loads_table(DEFAULT_TABLE_TEXT)) == gloss
    assert sorted(calls) == runs


@pytest.mark.parametrize("convert", [analyzer_to_gloss, unknown_analyzer_tags])
def test_a_hand_built_tag_holding_a_plus_is_rejected_not_read_as_two(convert):
    with pytest.raises(MalformedTokenError, match=r"analyzer tag holds a '\+'"):
        convert([AnalyzerToken("gel", ("Past+A3sg",))], default_table())
