"""The memoized gloss tokenizer against the unmemoized reference, and a
construction count that catches a lost memo without timing anything."""

import random

from hypothesis import given
from hypothesis import strategies as st

from igtpivot import GlossMorph, Joiner, tokenize_gloss
from igtpivot.parsing import _punct_token, _segment_morph, _tail_morphs

from gen_helpers import random_gloss_line
from tokenizer_reference import reference_tokenize_gloss


def clear_memos():
    _segment_morph.cache_clear()
    _tail_morphs.cache_clear()
    _punct_token.cache_clear()


# lower and upper case, digits, the three delimiters, sentence punctuation and
# the registry words below, so segments fall on both sides of the label rule
_word = st.lists(
    st.sampled_from(["a", "Z", "9", "é", "-", ".", "=", ",", "?", "kap", "nom", "Zorp", "3sg"]),
    min_size=1,
    max_size=6,
).map("".join)
_line = st.lists(_word, min_size=1, max_size=6).map(" ".join)
_registry = st.frozensets(st.sampled_from(["kap", "NOM", "Zorp", "3SG", "a", "9", ".", "Z"]))


@given(_line)
def test_memo_equals_reference_on_default_registry(line):
    assert tokenize_gloss(line) == reference_tokenize_gloss(line)


@given(_line, _registry)
def test_memo_equals_reference_on_custom_frozenset(line, registry):
    assert tokenize_gloss(line, label_registry=registry) == reference_tokenize_gloss(
        line, label_registry=registry
    )


@given(_line, _registry)
def test_memo_equals_reference_on_plain_set(line, registry):
    plain = set(registry)
    assert tokenize_gloss(line, label_registry=plain) == reference_tokenize_gloss(
        line, label_registry=plain
    )


@given(_line, st.lists(_registry, min_size=2, max_size=4))
def test_memo_follows_a_registry_that_changes_between_calls(line, states):
    registry = set()
    for state in states:
        registry.clear()
        registry.update(state)
        assert tokenize_gloss(line, label_registry=registry) == reference_tokenize_gloss(
            line, label_registry=registry
        )


@given(_line, _registry)
def test_memo_equals_reference_after_cache_clear(line, registry):
    tokenize_gloss(line, label_registry=registry)
    clear_memos()
    assert tokenize_gloss(line, label_registry=registry) == reference_tokenize_gloss(
        line, label_registry=registry
    )
    assert tokenize_gloss(line) == reference_tokenize_gloss(line)


def test_morphs_are_built_at_most_once_per_distinct_segment(monkeypatch):
    rng = random.Random(606)
    lines = [
        random_gloss_line(rng, rng.randint(1, 8)).render() for _ in range(400)
    ]
    expected = [reference_tokenize_gloss(line) for line in lines]
    segments = {
        (morph.joiner, morph.text)
        for gloss in expected
        for token in gloss.tokens
        for morph in token.morphs
    }
    occurrences = sum(len(token.morphs) for gloss in expected for token in gloss.tokens)
    assert occurrences > 5 * len(segments)  # a lost memo would show

    built = []
    check = GlossMorph.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    clear_memos()
    monkeypatch.setattr(GlossMorph, "__post_init__", counting)
    assert [tokenize_gloss(line) for line in lines] == expected
    assert len(built) <= len(segments)



def test_the_memos_never_hash_a_joiner(monkeypatch):
    # Enum.__hash__ is a Python-level function, costly once per segment
    hashed = []

    def counting(self):
        hashed.append(self)
        return hash(self._name_)

    rng = random.Random(607)
    lines = [random_gloss_line(rng, rng.randint(1, 8)).render() for _ in range(50)]
    clear_memos()
    monkeypatch.setattr(Joiner, "__hash__", counting)
    assert [tokenize_gloss(line) for line in lines] == [
        reference_tokenize_gloss(line) for line in lines
    ]
    assert hashed == []
