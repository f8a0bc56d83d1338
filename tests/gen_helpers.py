"""Random generators for property-style tests.

Generated gloss content is restricted to tokenizer-stable material (lemmas
that do not look like labels, labels that do), so rendering and re-tokenizing
is an exact inverse by construction.
"""

import random

from igtpivot import (
    AnalyzerToken,
    GlossLine,
    GlossMorph,
    GlossToken,
    IgtRecord,
    Joiner,
    LanguageTag,
    LemmaSide,
    MorphKind,
    default_table,
)

LEMMA_POOL = [
    "house", "tree", "water", "child", "ball", "film", "woman", "man",
    "dance", "praise", "like", "timber", "walk", "drink", "nwg", "yeej",
    "qhuas", "be_thirsty", "on/over", "live(at)", "gör", "düünüyor",
]

LABEL_POOL = [
    "NOM", "ACC", "DAT", "GEN", "PST", "PRS", "FUT", "AOR", "PROG",
    "SG", "PL", "1", "2", "3", "REFL", "EVID", "NPOSS", "Q",
]

PUNCT_POOL = [".", "?", "!", "...", ",", ";"]

JOINERS = [Joiner.HYPHEN, Joiner.PERIOD, Joiner.EQUALS]

LANG_POOL = ["blu", "cmn", "deu", "tur", "arp", "und", "eng"]

TEXT_POOL = [
    "I am thirsty", "He always praises himself.", "Trees make the woods.",
    "The man saw the woman.", "text with\ttab", "line with\nnewline",
    "back\\slash", "Unicode: düünüyor Ahmet", "",
]


def random_token(rng: random.Random) -> GlossToken:
    shape = rng.random()
    if shape < 0.1:
        # label-only token, e.g. "3SG"
        morphs = [
            GlossMorph(MorphKind.LABEL, rng.choice(LABEL_POOL), Joiner.WORD_INITIAL)
        ]
    else:
        lemma = rng.choice(LEMMA_POOL)
        if rng.random() < 0.3:
            lemma = lemma[:1].upper() + lemma[1:]
        morphs = [GlossMorph(MorphKind.LEMMA, lemma, Joiner.WORD_INITIAL)]
    for _ in range(rng.randint(0, 3)):
        morphs.append(
            GlossMorph(MorphKind.LABEL, rng.choice(LABEL_POOL), rng.choice(JOINERS))
        )
    return GlossToken(tuple(morphs))


def random_gloss_line(rng: random.Random, side: LemmaSide, n_tokens: int) -> GlossLine:
    tokens = []
    for _ in range(n_tokens):
        tokens.append(random_token(rng))
        if rng.random() < 0.15:
            punct = rng.choice(PUNCT_POOL)
            tokens.append(
                GlossToken(
                    (
                        GlossMorph(
                            MorphKind.LEMMA,
                            punct,
                            Joiner.WORD_INITIAL,
                            opaque=any(ch in "-.=" for ch in punct),
                        ),
                    )
                )
            )
    return GlossLine(tokens=tuple(tokens), lemma_side=side)


def random_record(rng: random.Random, index: int) -> IgtRecord:
    has_src = rng.random() < 0.7
    has_gsrc = rng.random() < 0.5
    has_gtgt = rng.random() < 0.8
    has_tgt = rng.random() < 0.7
    if not (has_src or has_gsrc or has_gtgt or has_tgt):
        has_tgt = True
    n_tokens = rng.randint(1, 6)
    gloss_src = random_gloss_line(rng, LemmaSide.SOURCE, n_tokens) if has_gsrc else None
    if has_gtgt:
        if gloss_src is not None:
            # both sides present: token counts must match
            gloss_tgt = GlossLine(tokens=gloss_src.tokens, lemma_side=LemmaSide.TARGET)
        else:
            gloss_tgt = random_gloss_line(rng, LemmaSide.TARGET, n_tokens)
    else:
        gloss_tgt = None
    return IgtRecord(
        id=f"rec-{index:05d}",
        lang=LanguageTag(rng.choice(LANG_POOL)),
        source_text=rng.choice(TEXT_POOL) if has_src else None,
        gloss_src=gloss_src,
        gloss_tgt=gloss_tgt,
        target_text=rng.choice(TEXT_POOL) if has_tgt else None,
        provenance=rng.choice(["", "fieldnotes", "scraped\tdump"]),
    )


def random_parallel_corpus(rng: random.Random, max_pairs: int = 20, vocab: int = 10):
    src_vocab = [f"s{i}" for i in range(rng.randint(2, vocab))]
    tgt_vocab = [f"t{i}" for i in range(rng.randint(2, vocab))]
    pairs = []
    for _ in range(rng.randint(1, max_pairs)):
        src = tuple(rng.choice(src_vocab) for _ in range(rng.randint(1, 5)))
        tgt = tuple(rng.choice(tgt_vocab) for _ in range(rng.randint(1, 5)))
        pairs.append((src, tgt))
    return pairs


# --- analyzer output ---------------------------------------------------------------

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

NOMINAL_TAGS = (("A3sg", "A3pl", "A1sg", "A2pl"), ("Pnon", "P1sg", "P3pl"), ("Nom", "Acc", "Loc"))
VERBAL_TAGS = (("Past", "Prog1", "Aor", "Fut", "Narr"), ("A3sg", "A1sg", "A3pl"))
# upper case, so the gloss tokenizer reads them as labels, as the pipeline does
UNKNOWN_TAGS = ("DIM", "EMPH", "QUES", "HON")


def cv_words(rng: random.Random, k: int) -> list[str]:
    """``k`` distinct lowercase consonant-vowel words of two or three
    syllables that the gloss tokenizer reads as lemmas and the default table
    does not restore."""
    table = default_table()
    registry = table.label_registry()
    words: set[str] = set()
    while len(words) < k:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word.upper() not in registry and word not in registry and word not in table.restore_map:
            words.add(word)
    return sorted(words)


def random_analyzer_corpus(rng: random.Random, n_lines: int, vocab: int = 40) -> tuple[str, str]:
    """Analyzer output of ``n_lines`` sentences plus a dictionary TSV covering
    about four fifths of the roots; some tags are unknown to the table."""
    words = cv_words(rng, 2 * vocab)
    roots, targets = words[:vocab], words[vocab:]
    known = roots[: vocab * 4 // 5]
    dictionary = "".join(f"{root}\t{target}\n" for root, target in zip(known, targets))
    lines = []
    for _ in range(n_lines):
        words_out = []
        for _ in range(rng.randint(1, 8)):
            template = NOMINAL_TAGS if rng.random() < 0.6 else VERBAL_TAGS
            tags = [
                rng.choice(UNKNOWN_TAGS) if rng.random() < 0.05 else rng.choice(choices)
                for choices in template
            ]
            word = AnalyzerToken(rng.choice(roots), tuple(tags)).render()
            if rng.random() < 0.1:
                word += ","
            words_out.append(word)
        words_out[-1] += rng.choice([".", "?", ""])
        lines.append(" ".join(words_out))
        if rng.random() < 0.1:
            lines.append("")
    return "".join(line + "\n" for line in lines), dictionary
