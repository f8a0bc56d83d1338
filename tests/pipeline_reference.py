"""The pivot pipeline as it was composed before it became one pass over
``GlossLine``: every target gloss is rendered to text and the baseline
translator tokenizes it again, and OOV lemmas come from a second dictionary
lookup.  Kept as the reference the one-pass pipeline is differential-tested
against; it is built from the public stage functions only."""

from igtpivot import (
    MorphKind,
    PipelineReport,
    SentenceTrace,
    analyzer_to_gloss,
    parse_analyzer_line,
    substitute_lemmas,
    tokenize_gloss,
    unknown_analyzer_tags,
)

PUNCT_CHARS = ".,!?;:"


def reference_oov_lemmas(gloss, dictionary):
    return [
        morph.text
        for token in gloss.tokens
        for morph in token.morphs
        if morph.kind is MorphKind.LEMMA
        and not all(ch in PUNCT_CHARS for ch in morph.text)
        and dictionary.lookup(morph.text) is None
    ]


def reference_baseline_detokenize(line):
    gloss = tokenize_gloss(line)
    words = []
    for token in gloss.tokens:
        if token.is_punctuation:
            words.append(token.render())
            continue
        lemma_morphs = [m for m in token.morphs if m.kind is MorphKind.LEMMA]
        if not lemma_morphs:
            continue
        rendered = "".join(
            (m.joiner.value if i else "") + m.text for i, m in enumerate(lemma_morphs)
        )
        words.append(rendered.replace("_", " "))
    sentence = " ".join(words)
    return sentence[:1].upper() + sentence[1:]


def reference_run_pipeline(analyzer_text, table, dictionary, oov_policy):
    """``run_pipeline`` with the baseline translator, by render and re-tokenize."""
    report = PipelineReport()
    glosses_tgt = []
    for line in analyzer_text.split("\n"):
        if not line.strip():
            continue
        tokens = parse_analyzer_line(line)
        gloss_src = analyzer_to_gloss(tokens, table)
        gloss_tgt = substitute_lemmas(gloss_src, dictionary, oov_policy)
        report.n_sentences += 1
        report.analyzer_tokens += len(tokens)
        report.gloss_src_tokens += len(gloss_src.tokens)
        report.gloss_tgt_tokens += len(gloss_tgt.tokens)
        report.unknown_labels += len(unknown_analyzer_tags(tokens, table))
        report.oov_lemmas += len(reference_oov_lemmas(gloss_src, dictionary))
        glosses_tgt.append(gloss_tgt)
        report.sentences.append(
            SentenceTrace(analyzer=line, gloss_src=gloss_src.render(), gloss_tgt=gloss_tgt.render())
        )
    targets = [reference_baseline_detokenize(g.render_spaced(False)) for g in glosses_tgt]
    report.sentences = [
        SentenceTrace(t.analyzer, t.gloss_src, t.gloss_tgt, target)
        for t, target in zip(report.sentences, targets)
    ]
    return targets, report
