"""Record model, serialization round-trips, and corpus splitting."""

import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot import (
    BadLanguageTagError,
    BadRatiosError,
    GlossMorph,
    GlossToken,
    IgtError,
    IgtRecord,
    Joiner,
    LanguageTag,
    MalformedRecordError,
    MorphKind,
    TokenCountMismatchError,
    dump_corpus,
    iter_corpus,
    load_corpus,
    parse_record,
    serialize_record,
    split_corpus,
    tokenize_gloss,
)
from igtpivot.errors import LexiconParseError
from igtpivot.model import DELIMITERS, _unescape, split_lines

from gen_helpers import random_record
from golden_data import IGT_EXAMPLES
from unescape_reference import reference_unescape


# --- types ------------------------------------------------------------------


@pytest.mark.parametrize("code", ["blu", "cmn", "deu", "tur", "arp", "und"])
def test_language_tag_accepts_three_lowercase_letters(code):
    assert LanguageTag(code).code == code


@pytest.mark.parametrize("code", ["BLU", "bl", "blub", "b1u", "", "de-"])
def test_language_tag_rejects_bad_codes(code):
    with pytest.raises(ValueError):
        LanguageTag(code)


def test_a_language_tag_prints_as_its_code():
    assert str(LanguageTag("tur")) == "tur"


# "tur\n": a "$" anchor would also match before the newline
@pytest.mark.parametrize("code, escaped", [("TUR", "TUR"), ("tur\n", "tur\\n")])
def test_a_bad_language_tag_has_its_own_code_and_is_a_bad_record_field(code, escaped):
    with pytest.raises(BadLanguageTagError) as exc:
        LanguageTag(code)
    assert exc.value.code == "BAD_LANGUAGE_TAG" and isinstance(exc.value, ValueError)
    with pytest.raises(MalformedRecordError) as exc:
        parse_record(f"id=x\tlang={escaped}\ttgt=t")
    assert exc.value.field == "lang"


def test_morph_rejects_empty_whitespace_and_derives_opaque():
    with pytest.raises(ValueError):
        GlossMorph(MorphKind.LEMMA, "", Joiner.WORD_INITIAL)
    with pytest.raises(ValueError):
        GlossMorph(MorphKind.LEMMA, "a b", Joiner.WORD_INITIAL)
    # text holding a delimiter is accepted and opaque
    assert GlossMorph(MorphKind.LEMMA, "a.b", Joiner.WORD_INITIAL).opaque is True


def test_token_joiner_invariants():
    lemma = GlossMorph(MorphKind.LEMMA, "do", Joiner.WORD_INITIAL)
    label = GlossMorph(MorphKind.LABEL, "AOR", Joiner.HYPHEN)
    token = GlossToken((lemma, label))
    assert token.render() == "do-AOR"
    with pytest.raises(ValueError):
        GlossToken(())
    with pytest.raises(ValueError):
        GlossToken((label,))  # first morph must be word-initial
    with pytest.raises(ValueError):
        GlossToken((lemma, GlossMorph(MorphKind.LABEL, "X", Joiner.WORD_INITIAL)))


def test_record_requires_some_content():
    with pytest.raises(MalformedRecordError):
        IgtRecord(id="x", lang=LanguageTag("deu"))


def test_record_enforces_gloss_token_parity():
    three = tokenize_gloss("a b c")
    four = tokenize_gloss("a b c d")
    with pytest.raises(TokenCountMismatchError):
        IgtRecord(id="x", lang=LanguageTag("deu"), gloss_src=three, gloss_tgt=four)


# --- serialization ----------------------------------------------------------


def test_serialize_minimal_record():
    record = IgtRecord(id="r1", lang=LanguageTag("cmn"), target_text="I am thirsty")
    line = serialize_record(record)
    assert line == "id=r1\tlang=cmn\ttgt=I am thirsty"
    assert parse_record(line) == record


def test_german_example_round_trips_byte_identically():
    source, gloss, target, lang = IGT_EXAMPLES[0]
    record = IgtRecord(
        id="deu-1",
        lang=LanguageTag(lang),
        source_text=source,
        gloss_tgt=tokenize_gloss(gloss),
        target_text=target,
    )
    line = serialize_record(record)
    again = parse_record(line)
    assert again == record
    assert serialize_record(again) == line


def test_escaping_round_trips():
    record = IgtRecord(
        id="esc",
        lang=LanguageTag("und"),
        source_text="tab\there",
        target_text="new\nline and back\\slash",
        provenance="p\\t",
    )
    assert parse_record(serialize_record(record)) == record


def test_parse_rejects_record_without_content_fields():
    with pytest.raises(MalformedRecordError):
        parse_record("id=x\tlang=deu")


def test_parse_rejects_gloss_count_mismatch_with_named_invariant():
    base = IgtRecord(
        id="x",
        lang=LanguageTag("deu"),
        gloss_src=tokenize_gloss("a b c"),
        gloss_tgt=tokenize_gloss("a b c"),
    )
    line = serialize_record(base)
    broken = line.replace("gloss_tgt=a b c", "gloss_tgt=a b c d")
    with pytest.raises(MalformedRecordError, match="token counts differ"):
        parse_record(broken)


@pytest.mark.parametrize(
    "line",
    [
        "",
        "   ",
        "id=x\tlang=deu\tbogus=1\ttgt=t",
        "id=x\tlang=deu\ttgt=a\ttgt=b",
        "id=x\tlang=DEU\ttgt=t",
        "id=x\tlang=deu\ttgt=bad\\escape\\q",
        "noequalsign",
        "lang=deu\ttgt=t",
    ],
)
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(MalformedRecordError):
        parse_record(line)


def test_malformed_error_carries_offset_and_field():
    try:
        parse_record("id=x\tlang=deu\tbogus=1\ttgt=t")
    except MalformedRecordError as exc:
        assert exc.field == "bogus"
        assert exc.offset == len("id=x\tlang=deu\t".encode("utf-8"))
    else:
        pytest.fail("expected MalformedRecordError")


def test_every_igt_error_has_a_line_printed_before_its_message():
    assert (IgtError("x").line, str(IgtError("x"))) == (0, "x")
    error = MalformedRecordError("x", field="id")
    error.line = 4
    assert (str(error), error.args) == ("line 4: x", ("x",))
    assert str(LexiconParseError("x", line=2)) == "lexicon line 2: x"


def test_corpus_errors_carry_their_line_with_offset_and_field():
    bad = "id=x\tlang=deu\tbogus=1\ttgt=t"
    text = f"id=a\tlang=deu\ttgt=t\n\n{bad}\n"
    for read in (load_corpus, lambda text: list(iter_corpus(split_lines(text)))):
        with pytest.raises(MalformedRecordError) as caught:
            read(text)
        assert caught.value.line == 3  # the blank line is counted
        assert caught.value.field == "bogus"
        assert caught.value.offset == len("id=x\tlang=deu\t".encode("utf-8"))
        assert str(caught.value) == "line 3: unknown field 'bogus'"


def _unescape_outcome(unescape, value, fieldname):
    try:
        return unescape(value, fieldname=fieldname)
    except MalformedRecordError as exc:
        return ("error", str(exc), exc.offset, exc.field)


# escapes, good, unknown and dangling, among any other characters
_escaped = st.text(
    st.one_of(st.sampled_from("\\tnrq\n\t\r"), st.characters(exclude_categories=["Cs"])),
    max_size=16,
)


@settings(max_examples=500)
@given(_escaped, st.sampled_from(["src", "tgt"]))
def test_unescape_matches_the_character_loop(value, fieldname):
    assert _unescape_outcome(_unescape, value, fieldname) == _unescape_outcome(
        partial(reference_unescape, offset=0), value, fieldname
    )


def test_random_records_round_trip():
    rng = random.Random(20240811)
    for i in range(300):
        record = random_record(rng, i)
        line = serialize_record(record)
        again = parse_record(line)
        assert again == record, f"record {i} did not round-trip"
        assert serialize_record(again) == line


def test_corpus_dump_load_round_trip():
    rng = random.Random(7)
    records = [random_record(rng, i) for i in range(25)]
    text = dump_corpus(records)
    assert load_corpus(text) == records


# --- splitting ---------------------------------------------------------------


def _records(n):
    return [
        IgtRecord(id=f"r{i}", lang=LanguageTag("tur"), target_text=f"t{i}")
        for i in range(n)
    ]


def test_split_sizes_use_floor_rule():
    split = split_corpus(_records(1081), (0.8, 0.1, 0.1), seed=3)
    assert (len(split.train), len(split.validation), len(split.test)) == (864, 108, 109)


def test_split_is_deterministic_per_seed():
    records = _records(10)
    first = split_corpus(records, (0.8, 0.1, 0.1), seed=42)
    second = split_corpus(records, (0.8, 0.1, 0.1), seed=42)
    assert first == second
    other = split_corpus(records, (0.8, 0.1, 0.1), seed=43)
    assert other != first  # overwhelmingly likely for 10 records


def test_split_allows_zero_ratio_and_partitions_exactly():
    records = _records(10)
    split = split_corpus(records, (0.5, 0.5, 0.0), seed=1)
    assert len(split.test) == 0
    assert len(split.train) == 5 and len(split.validation) == 5
    everything = list(split.train) + list(split.validation) + list(split.test)
    assert Counter(r.id for r in everything) == Counter(r.id for r in records)


def test_split_partition_property_random_sizes():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(0, 60)
        records = _records(n)
        split = split_corpus(records, (0.8, 0.1, 0.1), seed=rng.randint(0, 10**6))
        parts = [split.train, split.validation, split.test]
        ids = [r.id for part in parts for r in part]
        assert sorted(ids) == sorted(r.id for r in records)
        assert len(set(ids)) == len(ids)


@pytest.mark.parametrize(
    "ratios",
    [(0.8, 0.1), (0.8, 0.1, 0.2), (-0.1, 0.6, 0.5), (float("nan"), 0.5, 0.5)],
)
def test_split_rejects_bad_ratios(ratios):
    with pytest.raises(BadRatiosError):
        split_corpus(_records(4), ratios, seed=0)


# --- line splitting ---------------------------------------------------------------

# every character str.splitlines treats as a line boundary
_LINE_BOUNDARIES = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_line_text = st.text(st.characters(exclude_characters=_LINE_BOUNDARIES))


@given(st.lists(st.tuples(_line_text, st.sampled_from(["\n", "\r\n"]))), _line_text)
def test_split_lines_equals_splitlines_on_newline_only_text(ended, last):
    text = "".join(line + end for line, end in ended) + last
    assert split_lines(text) == text.splitlines()


def test_split_lines_keeps_other_unicode_boundaries_inside_a_line():
    text = "a\u2028b\x85c\vd\fe\r\n\nf\n"
    assert split_lines(text) == ["a\u2028b\x85c\vd\fe", "", "f"]
    assert split_lines("") == []


def test_corpus_round_trip_keeps_line_separator_in_a_field():
    record = IgtRecord(
        id="ls-1",
        lang=LanguageTag("tur"),
        source_text="bir\u2028iki",
        target_text="one\u2028two\x85three",
    )
    assert load_corpus(dump_corpus([record, record])) == [record, record]


# --- fast paths keep the checks -----------------------------------------------------

_SPACES = "".join(chr(i) for i in range(0x110000) if chr(i).isspace())


@given(st.text(st.one_of(st.characters(), st.sampled_from(_SPACES)), min_size=1))
def test_morph_rejects_text_iff_a_character_is_whitespace(text):
    has_space = any(ch.isspace() for ch in text)
    try:
        GlossMorph(MorphKind.LEMMA, text, Joiner.WORD_INITIAL)
    except ValueError as exc:
        assert has_space and "whitespace" in str(exc)
    else:
        assert not has_space


# lone surrogates cannot be written to a UTF-8 file
_field_text = st.text(
    st.one_of(st.characters(exclude_categories=["Cs"]), st.sampled_from("\\\t\nnt="))
)


@given(_field_text, _field_text, st.none() | _field_text, st.none() | _field_text)
def test_record_round_trips_arbitrary_unicode_fields(record_id, provenance, source, target):
    record = IgtRecord(
        id=record_id,
        lang=LanguageTag("tur"),
        source_text=source,
        target_text="" if source is None and target is None else target,
        provenance=provenance,
    )
    assert parse_record(serialize_record(record)) == record


def test_opaque_matches_delimiters():
    assert DELIMITERS == "-.="
    for code in range(0x3000):
        ch = chr(code)
        if ch.isspace():  # a morph refuses whitespace
            continue
        morph = GlossMorph(MorphKind.LEMMA, f"a{ch}b", Joiner.WORD_INITIAL)
        assert morph.opaque == (ch in DELIMITERS), repr(ch)
