"""Word-aligner EM: oracle equivalence, invariants, dictionary extraction."""

import math
import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from igtpivot import (
    NULL_TOKEN,
    BadThresholdError,
    EmptyCorpusError,
    IgtError,
    LemmaDictionary,
    ParallelCorpus,
    TableParseError,
    align_pair,
    dump_dictionary,
    dump_translation_table,
    extract_dictionary,
    load_dictionary,
    load_translation_table,
    train_model1,
)
from igtpivot import align
from igtpivot.align import _table_dictionary
from igtpivot.cli import _iter_lines
from igtpivot.model import split_lines

import model1_oracle
import model1_reference
from gen_helpers import random_parallel_corpus

TOY_PAIRS = (
    (("das", "Haus"), ("the", "house")),
    (("das", "Buch"), ("the", "book")),
    (("ein", "Buch"), ("a", "book")),
)

TOY_LOWER = [
    (("das", "haus"), ("the", "house")),
    (("das", "buch"), ("the", "book")),
    (("ein", "buch"), ("a", "book")),
]


def toy_corpus():
    return ParallelCorpus(TOY_PAIRS)


# --- oracle equivalence ------------------------------------------------------------


@pytest.mark.parametrize("null_word", [False, True])
def test_em_matches_enumeration_oracle_each_iteration(null_word):
    oracle_history = model1_oracle.run(TOY_LOWER, 10, null_word=null_word)
    for k in range(1, 11):
        table = train_model1(toy_corpus(), iterations=k, null_word=null_word)
        expected = oracle_history[k - 1]
        keys = set(table.probs) | set(expected)
        for key in keys:
            assert table.probs.get(key, 0.0) == pytest.approx(
                expected.get(key, 0.0), abs=1e-9
            ), f"{key} differs at iteration {k}"


def test_em_matches_oracle_on_random_tiny_corpora():
    rng = random.Random(314)
    for _ in range(10):
        pairs = [
            (
                tuple(rng.choice("ab c d".split()) for _ in range(rng.randint(1, 3))),
                tuple(rng.choice("x y z".split()) for _ in range(rng.randint(1, 3))),
            )
            for _ in range(rng.randint(1, 4))
        ]
        oracle_t = model1_oracle.run(pairs, 3)[-1]
        table = train_model1(ParallelCorpus(tuple(pairs)), iterations=3)
        keys = set(table.probs) | set(oracle_t)
        for key in keys:
            assert table.probs.get(key, 0.0) == pytest.approx(
                oracle_t.get(key, 0.0), abs=1e-9
            )


def test_frozen_hand_values_after_one_iteration():
    # hand-computed E/M step on the toy corpus
    table = train_model1(toy_corpus(), iterations=1)
    assert table.probs[("das", "the")] == pytest.approx(1 / 2, abs=1e-12)
    assert table.probs[("haus", "the")] == pytest.approx(2 / 9, abs=1e-12)
    assert table.probs[("buch", "the")] == pytest.approx(5 / 18, abs=1e-12)
    assert table.probs[("das", "house")] == pytest.approx(1 / 2, abs=1e-12)
    assert table.probs[("haus", "house")] == pytest.approx(1 / 2, abs=1e-12)


def test_toy_argmax_is_the():
    table = train_model1(toy_corpus(), iterations=10)
    over_targets = {e: p for (f, e), p in table.probs.items() if f == "das"}
    assert max(over_targets, key=over_targets.get) == "the"
    assert table.probs[("das", "the")] > 0.99


def test_single_pair_forced_to_one():
    table = train_model1(ParallelCorpus(((("a",), ("b",)),)), iterations=1)
    assert table.probs[("a", "b")] == 1.0


# --- invariants ----------------------------------------------------------------------


def test_per_target_normalization_after_every_iteration():
    for k in range(1, 6):
        table = train_model1(toy_corpus(), iterations=k)
        sums = {}
        for (f, e), p in table.probs.items():
            sums[e] = sums.get(e, 0.0) + p
        for e, total in sums.items():
            assert total == pytest.approx(1.0, abs=1e-6)


def test_perplexity_non_increasing_random_corpora():
    rng = random.Random(2718)
    for _ in range(30):
        corpus = ParallelCorpus(tuple(random_parallel_corpus(rng)))
        table = train_model1(corpus, iterations=6, null_word=rng.random() < 0.5)
        history = table.perplexity_history
        assert len(history) == 7
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-9
        assert table.final_perplexity == history[-1]
        assert not math.isnan(table.final_perplexity)


def test_training_is_deterministic():
    first = train_model1(toy_corpus(), iterations=5)
    second = train_model1(toy_corpus(), iterations=5)
    assert first.probs == second.probs
    assert first.perplexity_history == second.perplexity_history


def test_identity_corpus_dictionary_maps_words_to_themselves():
    sentences = [
        ("a", "b"), ("b", "c"), ("a", "c"), ("a",), ("c", "d"), ("d",), ("b", "d"),
    ]
    corpus = ParallelCorpus(tuple((s, s) for s in sentences))
    few = train_model1(corpus, iterations=2)
    many = train_model1(corpus, iterations=25)
    dictionary = extract_dictionary(many)
    for word in "abcd":
        assert dictionary.entries[word][0] == word
        # self-translation probability grows with iterations
        assert many.probs[(word, word)] >= few.probs[(word, word)] - 1e-12
    assert many.probs[("a", "a")] > 0.9


def test_tokens_are_lowercased_for_training():
    table = train_model1(toy_corpus(), iterations=1)
    assert all(f == f.lower() for f, _ in table.probs)
    assert "das" in table.source_vocab and "haus" in table.source_vocab
    assert "the" in table.target_vocab


# --- dictionary extraction --------------------------------------------------------------


def test_extract_with_threshold_keeps_confident_entries():
    table = train_model1(toy_corpus(), iterations=10)
    dictionary = extract_dictionary(table, threshold=0.5)
    assert dictionary.entries["das"] == ("the", pytest.approx(table.probs[("das", "the")]))
    assert dictionary.entries["haus"][0] == "house"
    assert dictionary.entries["buch"][0] == "book"
    assert dictionary.entries["ein"][0] == "a"


def test_extract_impossible_threshold_gives_empty_dictionary():
    table = train_model1(toy_corpus(), iterations=3)
    assert extract_dictionary(table, threshold=1.01).entries == {}


def test_a_nan_threshold_is_rejected_not_an_empty_dictionary():
    table = train_model1(toy_corpus(), iterations=3)
    text = dump_translation_table(table)
    for extract in (
        lambda: extract_dictionary(table, float("nan")),
        lambda: load_dictionary("das\tthe\t0.5\n", float("nan")),
        lambda: _table_dictionary(split_lines(text).__iter__, float("nan")),
    ):
        with pytest.raises(BadThresholdError) as info:
            extract()
        assert isinstance(info.value, IgtError) and isinstance(info.value, ValueError)
        assert info.value.code == "BAD_THRESHOLD"
        assert str(info.value) == "threshold is nan, which no probability reaches"


def test_extract_zero_threshold_covers_every_source_word():
    rng = random.Random(11)
    for _ in range(10):
        corpus = ParallelCorpus(tuple(random_parallel_corpus(rng)))
        table = train_model1(corpus, iterations=3)
        dictionary = extract_dictionary(table, threshold=0.0)
        assert set(dictionary.entries) == set(table.source_vocab)
        for word, (target, prob) in dictionary.entries.items():
            assert prob >= 0.0
            assert target != NULL_TOKEN


def test_extract_breaks_ties_lexicographically():
    # one pair, one source word: both targets get probability 1 in their columns
    table = train_model1(ParallelCorpus(((("w",), ("zeta", "alpha")),)), iterations=2)
    assert table.probs[("w", "zeta")] == table.probs[("w", "alpha")] == 1.0
    assert extract_dictionary(table).entries["w"] == ("alpha", 1.0)


def test_null_word_absorbs_mass_and_is_never_extracted():
    corpus = ParallelCorpus(
        (
            (("x", "filler"), ("tx",)),
            (("y", "filler"), ("ty",)),
            (("z", "filler"), ("tz",)),
        )
    )
    table = train_model1(corpus, iterations=10, null_word=True)
    assert table.null_word
    assert any(e == NULL_TOKEN for _, e in table.probs)
    dictionary = extract_dictionary(table)
    assert all(t != NULL_TOKEN for t, _ in dictionary.entries.values())


# --- alignment -----------------------------------------------------------------------------


def test_align_toy_pair():
    table = train_model1(toy_corpus(), iterations=10)
    assert align_pair(["das", "Haus"], ["the", "house"], table) == [(0, 0), (1, 1)]


def test_align_identical_single_token_pair():
    table = train_model1(ParallelCorpus(((("a",), ("a",)),)), iterations=2)
    assert align_pair(["a"], ["a"], table) == [(0, 0)]


def test_align_unseen_token_fallbacks():
    with_null = train_model1(toy_corpus(), iterations=2, null_word=True)
    without_null = train_model1(toy_corpus(), iterations=2, null_word=False)
    assert align_pair(["unseen"], ["the", "house"], with_null) == [(0, -1)]
    assert align_pair(["unseen"], ["the", "house"], without_null) == [(0, 0)]


def test_align_tie_breaks_to_lowest_index():
    table = train_model1(ParallelCorpus(((("w",), ("p", "q")),)), iterations=1)
    assert table.probs[("w", "p")] == table.probs[("w", "q")]
    assert align_pair(["w"], ["p", "q"], table) == [(0, 0)]


# --- errors and file formats ------------------------------------------------------------------


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        train_model1(ParallelCorpus(()), iterations=1)


def test_bad_iterations_rejected():
    with pytest.raises(ValueError):
        train_model1(toy_corpus(), iterations=0)


def test_corpus_rejects_empty_sentences():
    with pytest.raises(ValueError):
        ParallelCorpus((((), ("x",)),))


def test_from_texts_builds_pairs_and_drops_blank_pairs():
    corpus = ParallelCorpus.from_texts("a b\n\nc\n", "x\n\ny z\n")
    assert corpus.pairs == ((("a", "b"), ("x",)), (("c",), ("y", "z")))
    with pytest.raises(ValueError):
        ParallelCorpus.from_texts("a\nb\n", "x\n")


_parallel_line = st.text(st.sampled_from("ab B\t \r"), max_size=8)


@given(st.lists(st.tuples(_parallel_line, _parallel_line), max_size=6))
def test_from_texts_equals_one_tuple_per_split_line(lines):
    source_text = "".join(src + "\n" for src, _ in lines)
    target_text = "".join(tgt + "\n" for _, tgt in lines)
    pairs = tuple(
        (tuple(src), tuple(tgt))
        for src, tgt in zip(map(str.split, split_lines(source_text)),
                            map(str.split, split_lines(target_text)))
        if src and tgt
    )
    assert ParallelCorpus.from_texts(source_text, target_text).pairs == pairs


def test_from_texts_shares_one_str_per_word():
    corpus = ParallelCorpus.from_texts("ev ev-ler ev\nkedi ev\n", "house ev\nev house\n")
    words = [word for pair in corpus.pairs for side in pair for word in side]
    first = {}
    for word in words:
        assert first.setdefault(word, word) is word
    assert len(first) == 4 and len(words) == 9


def test_translation_table_round_trips_through_text():
    table = train_model1(toy_corpus(), iterations=4, null_word=True)
    text = dump_translation_table(table)
    again = load_translation_table(text)
    assert again.probs == table.probs
    assert again.iterations_run == table.iterations_run
    assert again.null_word == table.null_word
    assert again.final_perplexity == pytest.approx(table.final_perplexity)


def test_dictionary_round_trips_through_text():
    table = train_model1(toy_corpus(), iterations=4)
    dictionary = extract_dictionary(table, threshold=0.1)
    again = load_dictionary(dump_dictionary(dictionary), threshold=0.1)
    assert again.entries == dictionary.entries


def test_dictionary_two_column_defaults_probability():
    dictionary = load_dictionary("kadin\twoman\nGör\tsee\n")
    assert dictionary.entries["kadin"] == ("woman", 1.0)
    assert dictionary.lookup("KADIN") == ("woman", 1.0)
    assert dictionary.lookup("gör") == ("see", 1.0)
    assert dictionary.lookup("absent") is None


@pytest.mark.parametrize("key", ["Kadin", "KADIN", "kadİn"])
def test_lemma_dictionary_rejects_a_key_lookup_could_never_find(key):
    with pytest.raises(ValueError, match=repr(key)):
        LemmaDictionary(entries={"ev": ("house", 1.0), key: ("woman", 1.0)})


def test_extract_dictionary_lowercases_the_sources_of_a_hand_written_table():
    table = load_translation_table("Kadin\twoman\t0.6\nkadin\tlady\t0.9\nEv\thouse\t1.0\n")
    dictionary = extract_dictionary(table)
    assert dictionary.entries == {"ev": ("house", 1.0), "kadin": ("lady", 0.9)}
    assert dictionary.lookup("Ev") == ("house", 1.0)
    assert load_dictionary(dump_dictionary(dictionary)).entries == dictionary.entries


@pytest.mark.parametrize(
    "rows, threshold, message",
    [
        ("a\tb\t0.5\nA\tc\t0.6\n", 0.0, "line 2: source 'A' (lowercased) already given on line 1"),
        ("# c\nx\ty\nkadin\twoman\nKadin\tlady\t0.2\n", 0.5,
         "line 4: source 'Kadin' (lowercased) already given on line 3"),
        ("ev\thouse\nev\thouse\n", 0.0, "line 2: source 'ev' (lowercased) already given on line 1"),
    ],
)
def test_dictionary_rejects_a_repeated_source_before_the_threshold(rows, threshold, message):
    with pytest.raises(TableParseError) as info:
        load_dictionary(rows, threshold=threshold)
    assert info.value.code == "TABLE_PARSE_ERROR"
    assert str(info.value) == message


def test_translation_table_rejects_a_repeated_pair():
    text = "# iterations=1\ndas\tthe\t0.5\ndas\ta\t0.5\nhaus\thouse\t1.0\ndas\tthe\t0.25\n"
    with pytest.raises(TableParseError) as info:
        load_translation_table(text)
    assert info.value.code == "TABLE_PARSE_ERROR"
    assert info.value.line == 5
    assert str(info.value) == "line 5: pair ('das', 'the') already given on line 2"
    # words are lowercased on load, so the same words in another case repeat the pair
    with pytest.raises(TableParseError, match="line 2: pair .'das', 'the'. already given on line 1"):
        load_translation_table("das\tthe\t0.5\nDas\tthe\t0.5\n")


@pytest.mark.parametrize(
    "row",
    ["kadin\told woman", "kadin\t\t0.5", "\twoman\t0.5", "ka din\twoman", "kadin\two\u2028man"],
)
def test_dictionary_rejects_words_that_cannot_be_morphs(row):
    with pytest.raises(TableParseError) as info:
        load_dictionary(f"dans\tdance\n{row}\n")
    assert info.value.line == 2
    assert info.value.code == "TABLE_PARSE_ERROR"


def test_dictionary_load_applies_threshold():
    text = "low\tx\t0.1\nedge\ty\t0.5\nhigh\tz\t0.9\nbare\tw\n"
    dictionary = load_dictionary(text, threshold=0.5)
    assert dictionary.entries == {"bare": ("w", 1.0), "edge": ("y", 0.5), "high": ("z", 0.9)}
    assert load_dictionary(text).entries["low"] == ("x", 0.1)


# --- interned-id trainer against the string-keyed reference ---------------------------


def _mixed_case(rng, pairs):
    def vary(sentence):
        return tuple(word.upper() if rng.random() < 0.3 else word for word in sentence)

    return tuple((vary(src), vary(tgt)) for src, tgt in pairs)


def assert_same_training(corpus, iterations, null_word):
    table = train_model1(corpus, iterations=iterations, null_word=null_word)
    expected = model1_reference.train_model1(corpus, iterations=iterations, null_word=null_word)
    assert table.probs == expected.probs
    assert table.perplexity_history == expected.perplexity_history
    assert table.final_perplexity == expected.final_perplexity
    assert table.source_vocab == expected.source_vocab
    assert table.target_vocab == expected.target_vocab
    assert table.source_vocab == {f.lower() for src, _ in corpus.pairs for f in src}
    assert table.target_vocab == {e.lower() for _, tgt in corpus.pairs for e in tgt}
    assert dump_translation_table(table) == dump_translation_table(expected)


@pytest.mark.parametrize("null_word", [False, True])
@pytest.mark.parametrize("iterations", range(1, 7))
def test_interned_trainer_is_bit_identical_to_reference(iterations, null_word):
    repeated = 0
    for seed in range(8):
        rng = random.Random(100 * iterations + seed)
        pairs = _mixed_case(rng, random_parallel_corpus(rng))
        repeated += sum(len(set(src)) < len(src) or len(set(tgt)) < len(tgt) for src, tgt in pairs)
        assert_same_training(ParallelCorpus(pairs), iterations, null_word)
    assert repeated  # the corpora repeat tokens within a sentence


_cased_source = st.sampled_from(["ka", "KA", "lu", "Lu", "mo", "pe"])  # four words lowercased
_cased_target = st.sampled_from(["x", "X", "y", "z", "Z"])  # three


@given(
    st.lists(
        st.tuples(
            st.lists(_cased_source, min_size=1, max_size=5).map(tuple),
            st.lists(_cased_target, min_size=1, max_size=5).map(tuple),
        ),
        min_size=1, max_size=6,
    ),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
@example([(("ka",), ("x",)), (("ka", "lu"), ("X",)), (("Lu",), ("y", "x"))], 3, False)
@settings(max_examples=150, deadline=None)
def test_trainer_is_bit_identical_to_reference_on_small_vocabularies(pairs, iterations, null_word):
    # words repeat within sentences on both sides; a one-word pair without
    # the NULL token is a pair of one link
    assert_same_training(ParallelCorpus(tuple(pairs)), iterations, null_word)


@pytest.mark.parametrize("null_word", [False, True])
def test_interned_trainer_matches_reference_on_repeats_across_case(null_word):
    corpus = ParallelCorpus((
        (("Das", "das", "Haus"), ("the", "THE", "house")),
        (("das", "Buch", "BUCH", "buch"), ("The", "book", "Book")),
        (("ein", "Buch"), ("a", "book", "a")),
    ))
    for iterations in range(1, 7):
        assert_same_training(corpus, iterations, null_word)


@pytest.mark.parametrize("null_word", [False, True])
def test_trained_tables_load_back_exactly(null_word):
    for seed in range(10):
        rng = random.Random(seed)
        corpus = ParallelCorpus(_mixed_case(rng, random_parallel_corpus(rng)))
        table = train_model1(corpus, iterations=5, null_word=null_word)
        again = load_translation_table(dump_translation_table(table))
        assert again.probs == table.probs
        assert again.final_perplexity == table.final_perplexity
        assert again.source_vocab == table.source_vocab
        assert again.target_vocab == table.target_vocab
        assert again.null_word == null_word


@pytest.mark.parametrize(
    "row, message",
    [
        ("e\tf\tnan", "'nan' is not in [0, 1]"),
        ("e\tf\t-0.5", "'-0.5' is not in [0, 1]"),
        ("e\tf\t1.7", "'1.7' is not in [0, 1]"),
        ("e\tf\tinf", "'inf' is not in [0, 1]"),
        ("kadin\told woman\t0.5", "table word 'old woman' is empty or contains whitespace"),
        ("kadin\t\t0.5", "table word '' is empty"),
        ("ka din\twoman\t0.5", "table word 'ka din'"),
        ("kadin\two\u2028man\t0.5", r"table word 'wo\u2028man'"),
    ],
)
def test_translation_table_rejects_bad_rows_with_line_number(row, message):
    with pytest.raises(TableParseError) as info:
        load_translation_table(f"# iterations=1\ndas\tthe\t0.5\n{row}\n")
    assert info.value.line == 3
    assert info.value.code == "TABLE_PARSE_ERROR"
    assert message in str(info.value)


def test_translation_table_accepts_the_closed_unit_interval():
    table = load_translation_table("a\tx\t0.0\nb\tx\t1.0\nc\tx\t-0.0\nd\tx\t1\n")
    assert sorted(table.probs.values()) == [0.0, 0.0, 1.0, 1.0]


# --- one row reader: comments, fields, words, probabilities -------------------------------


def _hash_tag_corpus():
    return ParallelCorpus.from_texts("#tag a\nb c\n", "x y\nd e\n")


def test_rows_whose_source_starts_with_hash_load_back():
    table = train_model1(_hash_tag_corpus())
    text = dump_translation_table(table)
    assert sum(line.startswith("#tag\t") for line in text.split("\n")) == 2
    again = load_translation_table(text)
    assert len(table.probs) == len(again.probs) == 8
    assert again.probs == table.probs
    dictionary = extract_dictionary(table)
    assert len(dictionary.entries) == 4
    assert load_dictionary(dump_dictionary(dictionary)).entries == dictionary.entries
    assert load_dictionary("#tag\tx\n").lookup("#TAG") == ("x", 1.0)


def test_a_hash_line_without_a_tab_is_a_comment_in_both_formats():
    text = "# iterations=2\n#free text\n  # indented\n#tag\tx\t0.5\n"
    table = load_translation_table(text)
    assert table.probs == {("#tag", "x"): 0.5}
    assert table.iterations_run == 2
    assert load_dictionary(text).entries == {"#tag": ("x", 0.5)}


def test_translation_table_fields_are_stripped():
    table = load_translation_table("das \t the\t0.5 \n")
    assert table.probs == {("das", "the"): 0.5}


@pytest.mark.parametrize("prob", ["nan", "-0.5", "inf", "7"])
def test_dictionary_rejects_a_probability_outside_the_unit_interval(prob):
    with pytest.raises(TableParseError) as info:
        load_dictionary(f"dans\tdance\t0.5\nkadin\twoman\t{prob}\n")
    assert info.value.line == 2
    assert info.value.code == "TABLE_PARSE_ERROR"
    assert str(info.value) == f"line 2: probability {prob!r} is not in [0, 1]"


@pytest.mark.parametrize(
    "header, message",
    [
        ("# iterations=five", "line 2: bad iterations value 'five'"),
        ("# final_perplexity=low", "line 2: bad final_perplexity value 'low'"),
        ("# null_word=True", "line 2: bad null_word value 'True'"),
    ],
)
def test_translation_table_rejects_a_bad_header_value_with_line_number(header, message):
    with pytest.raises(TableParseError) as info:
        load_translation_table(f"# null_word=false\n{header}\ndas\tthe\t0.5\n")
    assert info.value.line == 2
    assert info.value.code == "TABLE_PARSE_ERROR"
    assert str(info.value) == message


def test_a_bad_header_value_is_not_hidden_by_a_repeated_key():
    with pytest.raises(TableParseError) as info:
        load_translation_table("# iterations=x3\n# iterations=4\ndas\tthe\t0.5\n")
    assert info.value.line == 1
    table = load_translation_table("# iterations=3\n# iterations=4\ndas\tthe\t0.5\n")
    assert table.iterations_run == 4


def test_an_empty_table_is_rejected_without_a_line_number():
    with pytest.raises(TableParseError) as info:
        load_translation_table("# iterations=1\n")
    assert info.value.line == 0
    assert str(info.value) == "no probability rows found"


# words without whitespace, non-ASCII included, some starting with '#'
_word = st.builds(
    str.__add__,
    st.sampled_from(["", "#"]),
    st.text(
        st.characters(exclude_categories=["Cs"]).filter(lambda ch: not ch.isspace()),
        min_size=1,
        max_size=4,
    ),
)
_sentence = st.lists(_word, min_size=1, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_sentence, _sentence), min_size=1, max_size=6),
    st.integers(1, 3),
    st.booleans(),
)
def test_ttable_and_dictionary_dump_load_round_trip(pairs, iterations, null_word):
    table = train_model1(ParallelCorpus(tuple(pairs)), iterations=iterations, null_word=null_word)
    again = load_translation_table(dump_translation_table(table))
    assert again.probs == table.probs
    assert again.iterations_run == table.iterations_run
    assert again.null_word == table.null_word
    assert again.final_perplexity == table.final_perplexity
    dictionary = extract_dictionary(table)
    assert load_dictionary(dump_dictionary(dictionary)).entries == dictionary.entries


# --- ttable case: words are lowercased on load, as lookup lowercases them -------------


def test_loaded_table_answers_lookups_in_any_case():
    table = load_translation_table("Kadin\tWoman\t0.9\nkadin\tthe\t0.1\n")
    assert table.probs == {("kadin", "woman"): 0.9, ("kadin", "the"): 0.1}
    for source, target in [("Kadin", "woman"), ("kadin", "woman"), ("KADIN", "Woman")]:
        assert table.prob(source, target) == 0.9
    # the best link, not the index-0 fallback of an unseen word
    assert align_pair(["Kadin"], ["the", "Woman"], table) == [(0, 1)]
    assert table.source_vocab == frozenset({"kadin"})
    assert table.target_vocab == frozenset({"woman", "the"})


def test_loaded_table_keeps_the_null_token_as_it_is():
    table = load_translation_table("# null_word=true\nEv\t<NULL>\t0.7\nev\tHouse\t0.3\n")
    assert table.probs == {("ev", NULL_TOKEN): 0.7, ("ev", "house"): 0.3}
    assert table.prob("Ev", NULL_TOKEN) == 0.7
    assert align_pair(["EV"], ["house"], table) == [(0, -1)]


@pytest.mark.parametrize(
    "rows, message",
    [
        ("Kadin\twoman\t0.9\nkadin\tWoman\t0.1\n", "line 2: pair ('kadin', 'woman') already given on line 1"),
        ("# c\nx\ty\t1.0\nEV\tHOUSE\t0.5\nev\thouse\t0.5\n",
         "line 4: pair ('ev', 'house') already given on line 3"),
    ],
)
def test_translation_table_rejects_a_pair_repeated_in_another_case(rows, message):
    with pytest.raises(TableParseError) as info:
        load_translation_table(rows)
    assert info.value.code == "TABLE_PARSE_ERROR"
    assert str(info.value) == message


# --- trained tables in key order, and dict's fold over a table's rows ------------------


@pytest.mark.parametrize("null_word", [False, True])
def test_a_trained_table_iterates_in_key_order(null_word):
    for seed in range(6):
        rng = random.Random(seed)
        corpus = ParallelCorpus(_mixed_case(rng, random_parallel_corpus(rng)))
        table = train_model1(corpus, iterations=2, null_word=null_word)
        assert list(table.probs) == sorted(table.probs)


@pytest.mark.parametrize("null_word", [False, True])
def test_dicts_fold_reads_trained_tables(null_word):
    for seed in range(6):
        rng = random.Random(seed)
        corpus = ParallelCorpus(_mixed_case(rng, random_parallel_corpus(rng)))
        table = train_model1(corpus, iterations=3, null_word=null_word)
        lines = split_lines(dump_translation_table(table)).__iter__
        for threshold in (0.0, 0.1, 0.5, 1.01):
            assert _table_dictionary(lines, threshold) == extract_dictionary(table, threshold)


@pytest.mark.parametrize("text, message", [
    ("# iterations=five\nka\tx\t2\n", "line 2: probability '2' is not in [0, 1]"),
    ("# iterations=five\n", "no probability rows found"),
    ("# iterations=five\nka\tx\t0.5\n", "line 1: bad iterations value 'five'"),
])
def test_a_tables_rows_are_checked_before_its_row_count_and_then_its_header(text, message):
    for read in (load_translation_table, lambda text: _table_dictionary(split_lines(text).__iter__, 0.0)):
        with pytest.raises(TableParseError) as info:
            read(text)
        assert str(info.value) == message


def test_dicts_fold_passes_a_hash_shared_by_two_pairs(monkeypatch):
    # every pair hashes alike, so each row after the first is read again
    monkeypatch.setattr(align, "hash", lambda key: 0, raising=False)
    lines = split_lines("# iterations=1\nka\tx\t0.25\nka\ty\t0.5\nlu\tx\t1.0\n").__iter__
    assert _table_dictionary(lines, 0.0).entries == {"ka": ("y", 0.5), "lu": ("x", 1.0)}
    lines = split_lines("ka\tx\t0.25\nka\ty\t0.5\nKA\tY\t0.5\n").__iter__
    with pytest.raises(TableParseError) as info:
        _table_dictionary(lines, 0.0)
    assert str(info.value) == "line 3: pair ('ka', 'y') already given on line 2"


def _outcome(extract):
    """What ``extract()`` returns, or the type, code, message and line of the
    error it raises."""
    try:
        return extract()
    except IgtError as exc:
        return type(exc), exc.code, str(exc), exc.line


# a table as dumped, then at most two faults, each at a row index
_dump_row = st.tuples(
    st.sampled_from(["ka", "lu", "mo", "#x", "\u03c3"]),
    st.sampled_from(["x", "y", "z", NULL_TOKEN]),
    st.one_of(st.sampled_from(["0.5", "0.25", "1.0", "0", "-0.0"]), st.floats(0.0, 1.0).map(repr)),
)
_ROW_FAULTS = {
    "upper source": lambda row: [row[0].upper(), *row[1:]],
    "<null> target": lambda row: [row[0], "<null>", *row[2:]],
    "NULL inside a target": lambda row: [row[0], "x" + NULL_TOKEN, *row[2:]],
    "upper NULL source": lambda row: [NULL_TOKEN, *row[1:]],
    "nan": lambda row: [*row[:2], "nan"],
    "negative": lambda row: [*row[:2], "-0.1"],
    "overflow": lambda row: [*row[:2], "1e999"],
    "upper exponent": lambda row: [*row[:2], "1E-3"],
    "not a number": lambda row: [*row[:2], "x"],
    "two fields": lambda row: row[:2],
    "empty word": lambda row: ["", *row[1:]],
    "space in a word": lambda row: [row[0], "old woman", *row[2:]],
}
_LINE_FAULTS = {
    "repeated pair": lambda rows, i: rows.insert(i, rows[i]),
    "repeated pair in another case": lambda rows, i: rows.insert(i + 1, [rows[i][0].upper(), *rows[i][1:]]),
    "comment": lambda rows, i: rows.insert(i, ["# mid"]),
    "key=value comment": lambda rows, i: rows.insert(i, ["#c=1"]),
    "blank line": lambda rows, i: rows.insert(i, [""]),
    "spaces": lambda rows, i: rows.insert(i, ["  "]),
    "swapped rows": lambda rows, i: rows.insert(0, rows.pop(i)),
}
_dump_header = st.lists(
    st.sampled_from([
        "# iterations=5", "# null_word=true", "# null_word=false", "# final_perplexity=2.5",
        "# iterations=x5", "# null_word=True", "# final_perplexity=low", "# free text", "#",
        "# iterations = 3",
    ]),
    max_size=4,
)


@given(
    header=_dump_header,
    pairs=st.dictionaries(_dump_row.map(lambda row: row[:2]), _dump_row.map(lambda row: row[2]),
                          min_size=1, max_size=8),
    faults=st.lists(
        st.tuples(st.sampled_from(sorted([*_ROW_FAULTS, *_LINE_FAULTS])), st.integers(0, 7)),
        max_size=2,
    ),
    newline=st.sampled_from(["\n", "\n", "\n", "\r\n"]),
    final_newline=st.sampled_from([True, True, True, False]),
    threshold=st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.01, -1.0, float("nan")]),
)
@example(header=["# iterations=3"], pairs={("ka", "x"): "0.5", ("ka", "y"): "0.5"}, faults=[],
         newline="\n", final_newline=True, threshold=0.0)
@example(header=[], pairs={("ka", "x"): "0.5", ("lu", "y"): "0.5"}, faults=[("nan", 1)],
         newline="\n", final_newline=True, threshold=0.0)  # min() and max() skip this nan
@example(header=[], pairs={("ka", "x"): "0.5", ("ka", "y"): "0.5"}, faults=[("swapped rows", 1)],
         newline="\n", final_newline=True, threshold=0.0)  # a tie in falling target order
@example(header=[], pairs={("ka", "x"): "0.5", ("lu", "y"): "0.25", ("lu", "z"): "0.5"},
         faults=[("swapped rows", 2)], newline="\n", final_newline=True, threshold=0.0)  # lu split
@settings(max_examples=500, deadline=None)
def test_dicts_fold_equals_the_general_reader(
    header, pairs, faults, newline, final_newline, threshold, tmp_path_factory
):
    rows = [[*key, prob] for key, prob in sorted(pairs.items())]
    for fault, index in faults:
        index %= len(rows)
        if fault in _ROW_FAULTS:
            rows[index] = _ROW_FAULTS[fault](rows[index])
        else:
            _LINE_FAULTS[fault](rows, index)
    text = newline.join(header + ["\t".join(row) for row in rows])
    text += newline if final_newline else ""
    expected = _outcome(lambda: extract_dictionary(load_translation_table(text), threshold))
    event("dictionary" if isinstance(expected, LemmaDictionary) else expected[1])
    # read from a file as igt dict reads it: a line at a time, and again for a repeat
    path = tmp_path_factory.mktemp("ttable") / "ttable.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: _table_dictionary(lambda: _iter_lines(str(path)), threshold)) == expected
