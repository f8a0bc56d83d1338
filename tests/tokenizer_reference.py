"""The gloss tokenizer before its word and segment memos: every word of
every line is split, classified and built anew."""

from igtpivot import GlossLine, GlossMorph, GlossToken, Joiner, MorphKind
from igtpivot.model import PUNCT_CHARS, is_punct
from igtpivot.normalize import default_label_registry
from igtpivot.parsing import _JOINER_BY_CHAR, _delimited_segments, _looks_like_label


def reference_word_to_tokens(word, registry):
    if is_punct(word):
        morph = GlossMorph(MorphKind.LEMMA, word, Joiner.WORD_INITIAL)
        return [GlossToken((morph,))]
    core = word.rstrip(PUNCT_CHARS)
    trailing = word[len(core) :]
    morphs = []
    for delimiter, text in _delimited_segments(core):
        kind = MorphKind.LABEL if _looks_like_label(text, registry) else MorphKind.LEMMA
        morphs.append(GlossMorph(kind, text, _JOINER_BY_CHAR[delimiter]))
    tokens = [GlossToken(tuple(morphs))]
    if trailing:
        tokens.extend(reference_word_to_tokens(trailing, registry))
    return tokens


def reference_tokenize_gloss(line, *, label_registry=None):
    if label_registry is None:
        label_registry = default_label_registry()
    tokens = []
    for word in line.split():
        tokens.extend(reference_word_to_tokens(word, label_registry))
    return GlossLine(tokens=tuple(tokens))
