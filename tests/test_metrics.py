"""BLEU and the five low-resource metrics."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from igtpivot import (
    BadArgumentError,
    EvalAnnotation,
    EvalReport,
    LengthMismatchError,
    TranslatorHandle,
    TranslatorKind,
    bleu,
    default_lexicon,
    evaluate,
    load_lexicon,
    non_repetition,
    noun_match,
    parse_annotations,
    subj_verb_agreement,
    tense_match,
    translate,
    verb_match,
)
from igtpivot import metrics
from igtpivot.errors import AnnotationParseError, IgtError, LexiconParseError
from igtpivot.metrics import format_report, summary_line

import bleu_reference
from golden_data import QUALITATIVE_GOLD, TURKISH_SEQUENCE


LEX = default_lexicon()


def toks(text):
    return text.lower().replace(".", " .").split()


# --- BLEU ------------------------------------------------------------------------


def test_bleu_identical_corpora_scores_exactly_100():
    corpus = [["the", "cat", "sat"], ["a", "dog"]]
    assert bleu(corpus, corpus, max_n=4) == 100.0
    assert bleu(corpus, corpus, max_n=1) == 100.0


def test_bleu_clipping_worked_example():
    # clipped unigram precision 1/4, no brevity penalty (4 > 2)
    score = bleu([["the", "the", "the", "the"]], [["the", "cat"]], max_n=1)
    assert score == pytest.approx(25.0)


def test_bleu_two_sentence_hand_computation():
    hyps = [["the", "cat"], ["a", "dog"]]
    refs = [["the", "cat"], ["the", "dog"]]
    # unigrams: 2/2 and 1/2 -> 3/4; bigrams: 1/1 and 0/1 -> 1/2; lengths equal
    expected = 100.0 * math.sqrt((3 / 4) * (1 / 2))
    assert bleu(hyps, refs, max_n=2) == pytest.approx(expected)


def test_bleu_brevity_penalty_hand_computation():
    hyps = [["the", "cat"]]
    refs = [["the", "cat", "sat", "down"]]
    expected = 100.0 * math.exp(1 - 4 / 2) * 1.0  # p1 = 2/2, c=2 < r=4
    assert bleu(hyps, refs, max_n=1) == pytest.approx(expected)


def test_bleu_empty_hypothesis_line_contributes_nothing():
    score = bleu([[], ["the", "cat"]], [["a", "b"], ["the", "cat"]], max_n=1)
    assert 0.0 < score < 100.0


def test_bleu_zero_when_any_precision_empty():
    # no 2-gram overlap anywhere -> bleu2 is 0 without smoothing
    hyps = [["a", "x", "b"]]
    refs = [["a", "y", "b"]]
    assert bleu(hyps, refs, max_n=2) == 0.0
    assert bleu(hyps, refs, max_n=2, smooth=True) > 0.0


def test_bleu_rejects_length_mismatch():
    with pytest.raises(LengthMismatchError):
        bleu([["a"]], [])


def test_bleu1_at_least_bleu4_on_random_corpora():
    # holds whenever the hypothesis corpus carries 4-grams (no vacuous order)
    rng = random.Random(4242)
    vocab = ["a", "b", "c", "d", "e", "f"]
    for _ in range(200):
        n = rng.randint(1, 5)
        hyps = [[rng.choice(vocab) for _ in range(rng.randint(4, 8))]]
        hyps += [
            [rng.choice(vocab) for _ in range(rng.randint(0, 8))] for _ in range(n - 1)
        ]
        refs = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(n)
        ]
        assert bleu(hyps, refs, max_n=1) >= bleu(hyps, refs, max_n=4) - 1e-12


def test_bleu_vacuous_orders_are_skipped_so_short_identical_corpora_score_100():
    short = [["the", "cat"]]
    assert bleu(short, short, max_n=4) == 100.0


_sentence = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=7)


@given(st.lists(st.tuples(_sentence, _sentence), max_size=6), st.booleans())
def test_evaluate_scores_both_bleus_as_bleu_does(pairs, smooth):
    hyps = [hyp for hyp, _ in pairs]
    refs = [ref for _, ref in pairs]
    report = evaluate(hyps, refs, smooth=smooth)
    assert report.bleu4 == bleu(hyps, refs, max_n=4, smooth=smooth)
    assert report.bleu1 == bleu(hyps, refs, max_n=1, smooth=smooth)


@given(_sentence, st.integers(min_value=1, max_value=9))
def test_ngrams_match_one_slice_per_index(tokens, n):
    # n runs past the 7-token maximum, so some orders have no n-gram
    expected = [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    assert list(metrics._ngrams(tokens, n)) == expected


def test_evaluate_counts_each_sentences_ngrams_once(monkeypatch):
    calls = []
    count = metrics._ngrams

    def counting(tokens, n):
        calls.append((tuple(tokens), n))
        return count(tokens, n)

    monkeypatch.setattr(metrics, "_ngrams", counting)
    evaluate([["a", "b", "c"], ["d"]], [["a", "b"], ["d", "e"]])
    # orders 1-4 of each hypothesis and each reference, order 1 not again for BLEU-1
    sides = [("a", "b", "c"), ("d",), ("a", "b"), ("d", "e")]
    assert Counter(calls) == Counter((side, n) for side in sides for n in (1, 2, 3, 4))


# tokens that repeat within a sentence, and a number that str() makes equal
# to the token "1"
_counted_sentence = st.lists(st.sampled_from(["a", "b", "c", "1", 1]), max_size=9)


@given(
    st.lists(st.tuples(_counted_sentence, _counted_sentence), max_size=5),
    st.integers(min_value=1, max_value=6),
)
def test_bleu_counts_equal_the_per_order_clipped_counts(pairs, max_n):
    hyps = [hyp for hyp, _ in pairs]
    refs = [ref for _, ref in pairs]
    assert metrics._bleu_counts(hyps, refs, max_n) == bleu_reference.bleu_counts(hyps, refs, max_n)


# --- non-repetition -----------------------------------------------------------------


def test_non_repetition_forced_by_definition():
    assert non_repetition([["the", "book", "the", "book"]]) == pytest.approx(50.0)


def test_non_repetition_all_distinct():
    assert non_repetition([["a", "b", "c"]]) == pytest.approx(100.0)


def test_non_repetition_averages_over_sentences():
    value = non_repetition([["x", "x"], ["a", "b"]])
    assert value == pytest.approx(75.0)


def test_non_repetition_ignores_case_and_punctuation():
    base = non_repetition([["The", "book", "the", "BOOK"]])
    assert base == pytest.approx(50.0)
    with_punct = non_repetition([["the", "book", ".", "the", "book", "!", "?"]])
    assert with_punct == pytest.approx(50.0)


def test_non_repetition_empty_sentence_scores_100():
    assert non_repetition([[]]) == pytest.approx(100.0)
    assert non_repetition([[".", "!"]]) == pytest.approx(100.0)


# --- noun / verb matching --------------------------------------------------------------


def test_noun_match_examples():
    ann = EvalAnnotation(expected_nouns=frozenset({"man", "woman"}))
    assert noun_match(toks("the man saw the woman."), ann, LEX) == 1.0
    ann_ball = EvalAnnotation(expected_nouns=frozenset({"ball"}))
    assert noun_match(toks("the man's child is the ball."), ann_ball, LEX) == 1.0
    ann_film = EvalAnnotation(expected_nouns=frozenset({"film"}))
    assert noun_match(toks("he likes it"), ann_film, LEX) == 0.0


def test_noun_match_accepts_regular_plural():
    ann = EvalAnnotation(expected_nouns=frozenset({"tree"}))
    assert noun_match(toks("trees make the woods."), ann, LEX) == 1.0


def test_noun_match_fraction():
    ann = EvalAnnotation(expected_nouns=frozenset({"man", "film"}))
    assert noun_match(toks("the man saw it"), ann, LEX) == 0.5


def test_verb_match_examples():
    see = EvalAnnotation(expected_verbs=frozenset({"see"}))
    assert verb_match(toks("the man saw the woman."), see, LEX) == 1.0
    dance = EvalAnnotation(expected_verbs=frozenset({"dance"}))
    assert verb_match(toks("the woman dances."), dance, LEX) == 1.0
    praise = EvalAnnotation(expected_verbs=frozenset({"praise"}))
    assert verb_match(toks("he admires her"), praise, LEX) == 0.0


# --- agreement and tense ------------------------------------------------------------------


def agreement(hyp, verb="talk", person=3, number="SG"):
    ann = EvalAnnotation(
        expected_verbs=frozenset({verb}), subject_features=(person, number)
    )
    return subj_verb_agreement(toks(hyp), ann, LEX)


def test_agreement_rule_3sg():
    assert agreement("he talks a lot") == 1
    assert agreement("he talked a lot") == 1
    assert agreement("he talk a lot") == 0


def test_agreement_plural_requires_bare_form():
    assert agreement("they talk a lot", person=3, number="PL") == 1
    assert agreement("they talks a lot", person=3, number="PL") == 0


def test_agreement_with_be():
    assert agreement("he is here", verb="be") == 1
    assert agreement("he are here", verb="be") == 0
    assert agreement("they are here", verb="be", number="PL") == 1


def tense(hyp, tense_label, verb):
    ann = EvalAnnotation(
        expected_verbs=frozenset({verb}), expected_tense=tense_label
    )
    return tense_match(toks(hyp), ann, LEX)


def test_tense_match_examples():
    assert tense("the man saw the woman.", "PST", "see") == 1
    assert tense("the woman dances.", "PRS", "dance") == 1
    assert tense("the man sees the woman", "PST", "see") == 0


def test_tense_future_uses_will_plus_bare():
    assert tense("she will dance tonight", "FUT", "dance") == 1
    assert tense("she dances tonight", "FUT", "dance") == 0


def test_tense_auxiliary_patterns():
    assert tense("she is dancing", "PRS", "dance") == 1
    assert tense("she was dancing", "PST", "dance") == 1


# --- an annotation a metric cannot score ---------------------------------------------------

_FULL_ANNOTATION = {
    "expected_nouns": frozenset({"man"}),
    "expected_verbs": frozenset({"see"}),
    "subject_features": (3, "SG"),
    "expected_tense": "PST",
}
_SEEN = toks("the man saw the woman.")


def without(*fields):
    """An annotation holding every field but ``fields``."""
    return EvalAnnotation(**{k: v for k, v in _FULL_ANNOTATION.items() if k not in fields})


def refused(metric, annotation):
    """The message of the BadArgumentError ``metric`` raises for ``annotation``."""
    with pytest.raises(BadArgumentError) as info:
        metric(_SEEN, annotation, LEX)
    assert info.value.code == "BAD_ARGUMENT"
    return str(info.value)


def test_noun_match_refuses_an_annotation_without_nouns():
    assert noun_match(_SEEN, without(), LEX) == 1.0
    assert refused(noun_match, without("expected_nouns")) == (
        "noun_match needs an annotation with expected_nouns"
    )


def test_verb_match_refuses_an_annotation_without_verbs():
    assert verb_match(_SEEN, without(), LEX) == 1.0
    assert refused(verb_match, without("expected_verbs")) == (
        "verb_match needs an annotation with expected_verbs"
    )


def test_agreement_refuses_an_annotation_without_a_subject_or_verbs():
    assert subj_verb_agreement(_SEEN, without(), LEX) == 1
    message = "subj_verb_agreement needs an annotation with "
    assert refused(subj_verb_agreement, without("subject_features")) == message + "subject_features"
    assert refused(subj_verb_agreement, without("expected_verbs")) == message + "expected_verbs"


def test_tense_match_refuses_an_annotation_without_a_tense_or_verbs():
    assert tense_match(_SEEN, without(), LEX) == 1
    message = "tense_match needs an annotation with "
    assert refused(tense_match, without("expected_tense")) == message + "expected_tense"
    assert refused(tense_match, without("expected_verbs")) == message + "expected_verbs"


# --- aggregation ----------------------------------------------------------------------------


def quali_annotations():
    return [
        EvalAnnotation(
            expected_nouns=frozenset({"problem"}),
            expected_verbs=frozenset({"be"}),
            subject_features=(3, "SG"),
            expected_tense="PRS",
        ),
        EvalAnnotation(
            expected_nouns=frozenset({"book"}),
            expected_verbs=frozenset({"write"}),
            subject_features=(3, "SG"),
            expected_tense="PST",
        ),
        EvalAnnotation(
            expected_nouns=frozenset({"man", "child", "ball"}),
            expected_verbs=frozenset({"give"}),
            subject_features=(3, "SG"),
            expected_tense="PST",
        ),
    ]


def test_perfect_corpus_scores_100_everywhere_applicable():
    refs = [toks(s) for s in QUALITATIVE_GOLD]
    report = evaluate(refs, refs, quali_annotations())
    assert report.bleu4 == 100.0
    assert report.bleu1 == 100.0
    assert report.noun_match == pytest.approx(100.0)
    assert report.verb_match == pytest.approx(100.0)
    assert report.subj_verb_agreement == pytest.approx(100.0)
    assert report.tense_match == pytest.approx(100.0)
    # hand computation: sentence 3 repeats "the" (6 unique / 7), others clean
    expected_nonrep = (100.0 + 100.0 + 100.0 * 6 / 7) / 3
    assert report.non_repetition == pytest.approx(expected_nonrep)
    assert report.noun_eligible == report.verb_eligible == 3


def test_unannotated_sentences_are_excluded_not_zeroed():
    refs = [toks(s) for s in QUALITATIVE_GOLD]
    annotations = quali_annotations()[:1] + [None, None]
    report = evaluate(refs, refs, annotations)
    assert report.noun_eligible == 1
    assert report.noun_match == pytest.approx(100.0)


def test_no_annotations_leaves_accuracy_metrics_undefined():
    refs = [toks(s) for s in QUALITATIVE_GOLD]
    report = evaluate(refs, refs)
    assert report.noun_match is None
    assert report.tense_match is None
    assert report.bleu4 == 100.0
    assert "n/a" in format_report(report)


def test_baseline_output_scores_below_gold():
    handle = TranslatorHandle(TranslatorKind.BASELINE_DETOKENIZE)
    glosses = [gloss for gloss, _ in TURKISH_SEQUENCE]
    refs = [toks(ref) for _, ref in TURKISH_SEQUENCE]
    hyps = [toks(line) for line in translate(glosses, handle)]
    gold = evaluate(refs, refs)
    rough = evaluate(hyps, refs, smooth=True)
    assert rough.bleu4 < gold.bleu4 == 100.0


def test_adding_perfect_sentence_never_lowers_accuracy_metrics():
    rng = random.Random(88)
    nouns = ["man", "woman", "child", "ball", "film", "tree"]
    verbs = ["see", "dance", "give", "praise", "walk", "talk"]
    for _ in range(40):
        n = rng.randint(1, 5)
        refs, hyps, anns = [], [], []
        for _ in range(n):
            noun, verb = rng.choice(nouns), rng.choice(verbs)
            ref = ["the", noun, min(LEX.past_forms(verb)), "."]
            hyp = ref if rng.random() < 0.5 else ["the", "book", "is", "here", "."]
            refs.append(ref)
            hyps.append(hyp)
            anns.append(
                EvalAnnotation(
                    expected_nouns=frozenset({noun}),
                    expected_verbs=frozenset({verb}),
                    subject_features=(3, "SG"),
                    expected_tense="PST",
                )
            )
        before = evaluate(hyps, refs, anns)
        # append one perfect sentence with a consistent annotation
        noun, verb = rng.choice(nouns), rng.choice(verbs)
        perfect = ["the", noun, min(LEX.past_forms(verb)), "."]
        refs.append(perfect)
        hyps.append(perfect)
        anns.append(
            EvalAnnotation(
                expected_nouns=frozenset({noun}),
                expected_verbs=frozenset({verb}),
                subject_features=(3, "SG"),
                expected_tense="PST",
            )
        )
        after = evaluate(hyps, refs, anns)
        for attr in ("noun_match", "verb_match", "subj_verb_agreement", "tense_match"):
            old = getattr(before, attr)
            new = getattr(after, attr)
            if old is not None:
                assert new >= old - 1e-9
        assert after.bleu4 >= before.bleu4 - 1e-9
        assert after.bleu1 >= before.bleu1 - 1e-9


def test_all_metrics_bounded_on_random_data():
    rng = random.Random(17)
    vocab = ["the", "man", "saw", "woman", "talks", "will", "dance", "."]
    for _ in range(50):
        n = rng.randint(1, 4)
        hyps = [[rng.choice(vocab) for _ in range(rng.randint(0, 7))] for _ in range(n)]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 7))] for _ in range(n)]
        anns = [
            EvalAnnotation(
                expected_nouns=frozenset(rng.sample(["man", "woman", "film"], rng.randint(0, 2))),
                expected_verbs=frozenset(rng.sample(["see", "talk", "dance"], rng.randint(0, 2))),
                subject_features=(3, "SG") if rng.random() < 0.5 else None,
                expected_tense=rng.choice(["PST", "PRS", "FUT", None]),
            )
            for _ in range(n)
        ]
        report = evaluate(hyps, refs, anns)
        for attr in (
            "noun_match", "verb_match", "subj_verb_agreement",
            "tense_match", "non_repetition", "bleu4", "bleu1",
        ):
            value = getattr(report, attr)
            if value is not None:
                assert 0.0 <= value <= 100.0


def test_evaluate_rejects_mismatched_lengths():
    with pytest.raises(LengthMismatchError):
        evaluate([["a"]], [["a"], ["b"]])
    with pytest.raises(LengthMismatchError):
        evaluate([["a"]], [["a"]], [None, None])


# --- report rendering and annotation files ------------------------------------------------


def test_report_has_all_seven_numbers():
    refs = [toks(s) for s in QUALITATIVE_GOLD]
    report = evaluate(refs, refs, quali_annotations())
    text = format_report(report)
    for row in (
        "Noun-match accuracy",
        "Verb-match accuracy",
        "Subject-verb agreement accuracy",
        "Tense-match accuracy",
        "Non-repetition metric",
        "4-gram BLEU",
        "1-gram BLEU",
    ):
        assert row in text
    line = summary_line(report)
    assert "bleu4=100.00" in line and "noun_match=100.00" in line


def test_parse_annotations_round_trip():
    text = (
        "s1\tnouns=problem\tverbs=be\tsubj=3.SG\ttense=PRS\n"
        "s2\tnouns=book,pen\n"
        "# comment\n"
        "s3\n"
    )
    rows = parse_annotations(text)
    assert [row_id for row_id, _ in rows] == ["s1", "s2", "s3"]
    assert rows[0][1].subject_features == (3, "SG")
    assert rows[0][1].expected_tense == "PRS"
    assert rows[1][1].expected_nouns == frozenset({"book", "pen"})
    assert rows[2][1] == EvalAnnotation()


@pytest.mark.parametrize(
    "text",
    ["s1\tsubj=none", "s1\ttense=PLUPERFECT", "s1\tmystery=1", "s1\tnoequals"],
)
def test_parse_annotations_rejects_bad_rows(text):
    with pytest.raises(ValueError):
        parse_annotations(text)


def test_custom_lexicon_merges_over_defaults():
    lexicon = load_lexicon("frob\tfrobbed\tfrobben\tfrobs\n")
    assert lexicon.irregular_past["frob"] == "frobbed"
    assert lexicon.irregular_past["see"] == "saw"
    assert "frobben" in lexicon.past_forms("frob")
    assert lexicon.third_sg("frob") == "frobs"


@pytest.mark.parametrize(
    "text, message",
    [
        ("s1\tnouns=a\n\ns3\tsubj=none", "annotation line 3: bad subj 'none'"),
        ("s1\ttense=PLUPERFECT", "annotation line 1: bad tense 'PLUPERFECT'"),
        ("s1\tmystery=1", "annotation line 1: unknown field 'mystery'"),
        ("# c\ns1\tnoequals", "annotation line 2: field without '=': 'noequals'"),
        ("s1\tnouns=a\ns2\tnouns=a\tverbs=b\tNouns=b",
         "annotation line 2: duplicate field 'nouns'"),
    ],
)
def test_annotation_errors_carry_a_code_and_the_line(text, message):
    with pytest.raises(AnnotationParseError) as info:
        parse_annotations(text)
    assert isinstance(info.value, IgtError) and isinstance(info.value, ValueError)
    assert info.value.code == "ANNOTATION_PARSE_ERROR"
    assert str(info.value) == message
    assert info.value.line == int(message.split()[2].rstrip(":"))


def test_lexicon_errors_carry_a_code_and_the_line():
    with pytest.raises(LexiconParseError) as info:
        load_lexicon("go\twent\nfrob\n")
    assert isinstance(info.value, ValueError)
    assert info.value.code == "LEXICON_PARSE_ERROR"
    assert info.value.line == 2
    assert str(info.value) == "lexicon line 2: expected lemma<TAB>past"


@pytest.mark.parametrize(
    "text, message",
    [
        ("go\twent\ngo\twent\tgone\tgoes\tx\n",
         "lexicon line 2: expected lemma<TAB>past[<TAB>participle[<TAB>3sg]], got 5 fields"),
        ("go\twent\n \twalked\n", "lexicon line 2: empty lemma"),
        ("# c\nwalk\t \tx\n", "lexicon line 2: empty past form"),
        ("run\tra n\n", "lexicon line 1: form 'ra n' contains whitespace"),
        ("run\tran\trun\tru ns\n", "lexicon line 1: form 'ru ns' contains whitespace"),
        ("frob\tfrobbed\n\nFrob\tfrobt\n",
         "lexicon line 3: lemma 'Frob' (lowercased) already given on line 1"),
    ],
    ids=["five-fields", "empty-lemma", "empty-past", "spaced-past", "spaced-3sg", "repeated-lemma"],
)
def test_lexicon_rejects_a_bad_row_with_its_line(text, message):
    with pytest.raises(LexiconParseError) as info:
        load_lexicon(text)
    assert info.value.code == "LEXICON_PARSE_ERROR"
    assert info.value.line == int(message.split()[2].rstrip(":"))
    assert str(info.value) == message


def test_lexicon_empty_participle_or_3sg_field_means_none():
    lexicon = load_lexicon("frob\tfrobbed\t\tfrobz\nkwob\tkwobbed\t \t\n")
    assert lexicon.past_forms("frob") == {"frobbed"}
    assert lexicon.past_forms("kwob") == {"kwobbed"}
    assert (lexicon.third_sg("frob"), lexicon.third_sg("kwob")) == ("frobz", "kwobs")


def test_summary_line_lists_the_report_rows_in_order():
    report = EvalReport(
        noun_match=50.0, verb_match=None, subj_verb_agreement=100.0, tense_match=None,
        non_repetition=97.125, bleu4=12.3456, bleu1=0.0, n_sentences=3,
        noun_eligible=2, verb_eligible=0, agreement_eligible=1, tense_eligible=0,
    )
    assert summary_line(report) == (
        "noun_match=50.00 verb_match=n/a subj_verb_agreement=100.00 tense_match=n/a "
        "non_repetition=97.12 bleu4=12.35 bleu1=0.00 n_sentences=3"
    )
