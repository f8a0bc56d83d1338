"""Word-aligner EM: oracle equivalence, invariants, dictionary extraction."""

import math
import random

import pytest

from igtpivot import (
    NULL_TOKEN,
    EmptyCorpusError,
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

import model1_oracle
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


def test_lemma_dictionary_type_invariants():
    d = LemmaDictionary(entries={"a": ("b", 0.7)}, threshold=0.5)
    assert all(p >= d.threshold for _, p in d.entries.values())


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
    assert dictionary.threshold == 0.5
    assert load_dictionary(text).entries["low"] == ("x", 0.1)
