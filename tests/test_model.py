"""Record model, serialization round-trips, and corpus splitting."""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from igtpivot import (
    BadRatiosError,
    GlossMorph,
    GlossToken,
    IgtRecord,
    Joiner,
    LanguageTag,
    LemmaSide,
    MalformedRecordError,
    MorphKind,
    TokenCountMismatchError,
    dump_corpus,
    load_corpus,
    parse_record,
    serialize_record,
    split_corpus,
    tokenize_gloss,
)
from igtpivot.model import split_lines

from gen_helpers import random_record
from golden_data import IGT_EXAMPLES


# --- types ------------------------------------------------------------------


@pytest.mark.parametrize("code", ["blu", "cmn", "deu", "tur", "arp", "und"])
def test_language_tag_accepts_three_lowercase_letters(code):
    assert LanguageTag(code).code == code


@pytest.mark.parametrize("code", ["BLU", "bl", "blub", "b1u", "", "de-"])
def test_language_tag_rejects_bad_codes(code):
    with pytest.raises(ValueError):
        LanguageTag(code)


def test_morph_rejects_empty_whitespace_and_unflagged_delimiters():
    with pytest.raises(ValueError):
        GlossMorph(MorphKind.LEMMA, "", Joiner.WORD_INITIAL)
    with pytest.raises(ValueError):
        GlossMorph(MorphKind.LEMMA, "a b", Joiner.WORD_INITIAL)
    with pytest.raises(ValueError):
        GlossMorph(MorphKind.LEMMA, "a.b", Joiner.WORD_INITIAL)
    # flagged opaque, the same text is fine
    GlossMorph(MorphKind.LEMMA, "a.b", Joiner.WORD_INITIAL, opaque=True)


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
    three = tokenize_gloss("a b c", lemma_side=LemmaSide.SOURCE)
    four = tokenize_gloss("a b c d", lemma_side=LemmaSide.TARGET)
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
        gloss_src=tokenize_gloss("a b c", lemma_side=LemmaSide.SOURCE),
        gloss_tgt=tokenize_gloss("a b c", lemma_side=LemmaSide.TARGET),
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
