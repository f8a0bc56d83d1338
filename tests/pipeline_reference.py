"""The pivot pipeline as it was composed before it became one pass over
``GlossLine``: every target gloss is rendered to text and the baseline
translator tokenizes it again, and OOV lemmas come from a second dictionary
lookup.  Kept as the reference the one-pass pipeline is differential-tested
against; it is built from the public stage functions only.  Also keeps the
analyzer→gloss pass as it was before each tag's label morphs were built once
per table, and ``iter_pipeline`` as it was before it assembled each sentence
from pieces built once per distinct lemma and tag run: one ``GlossLine`` per
stage, rendered and label-stripped whole.  And lemma substitution as it was
before one function made each lemma's target: a lookup per lemma
occurrence, the OOV policy applied inside the token loop.  And ``_stages``
as it was before it built each line in one pass over its analyzer words:
each stage a list over the whole line, each word rendered by ``_word`` and
each gloss joined by ``join_tokens``.  And a tag run's label tail as it was
before it was built from the table's rendered labels: the run's label
morphs, as the per-occurrence analyzer→gloss pass builds them, rendered."""

from igtpivot import (
    AnalyzerToken,
    GlossLine,
    GlossMorph,
    GlossToken,
    Joiner,
    MorphKind,
    OovPolicy,
    PipelineReport,
    SentenceTrace,
    TranslatorKind,
    analyzer_to_gloss,
    parse_analyzer_line,
    substitute_lemmas,
    tokenize_gloss,
    unknown_analyzer_tags,
)
from igtpivot.errors import IgtError, PipelineStageError
from igtpivot.model import is_punct, join_tokens
from igtpivot.normalize import _label_morphs, _order_person_number
from igtpivot.parsing import _Memo
from igtpivot.pipeline import OOV_CLOSE, OOV_OPEN, _piece, _source_lemma, _tail, _target, _word

from parsing_reference import reference_analyzer_words

PUNCT_CHARS = ".,!?;:"


def reference_analyzer_to_gloss(tokens, table):
    """``analyzer_to_gloss`` and ``unknown_analyzer_tags`` of ``tokens``, every
    tag occurrence's label morphs built anew."""
    unknown = []
    gloss_tokens = []
    for token in tokens:
        lemma_text = table.restore_map.get(token.surface, token.surface)
        morphs = [GlossMorph(MorphKind.LEMMA, lemma_text, Joiner.WORD_INITIAL)]
        for tag in token.tags:
            image = table.analyzer_map.get(tag)
            if image is None:
                unknown.append(tag)
                image = (tag,)
            if not image:
                continue
            first = Joiner.HYPHEN if tag in table.verbal_tags else Joiner.PERIOD
            morphs.extend(_label_morphs(_order_person_number(image, table.person_first), first))
        gloss_tokens.append(GlossToken(tuple(morphs)))
    return GlossLine(tokens=tuple(gloss_tokens)), unknown


def reference_tail(table, run):
    """``_tail(table, run)`` from the label morphs that
    :func:`reference_analyzer_to_gloss` gives the run's tags."""
    token = AnalyzerToken("x", tuple(run.split("+")[1:]))
    gloss, unknown = reference_analyzer_to_gloss([token], table)
    morphs = gloss.tokens[0].morphs[1:]
    split = " ".join(morph.joiner.value + morph.text for morph in morphs)
    return _piece(morphs)._replace(split=split, unknown=tuple(unknown))


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


def reference_strip_labels(gloss):
    """The baseline translator on a gloss whose morphs keep the kind the
    stage that made them gave them: labels dropped, ``_`` made a space."""
    words = []
    for token in gloss.tokens:
        if token.is_punctuation:
            words.append(token.render())
            continue
        lemma_morphs = [m for m in token.morphs if m.kind is MorphKind.LEMMA]
        if lemma_morphs:
            rendered = "".join(
                (m.joiner.value if i else "") + m.text for i, m in enumerate(lemma_morphs)
            )
            words.append(rendered.replace("_", " "))
    sentence = " ".join(words)
    return sentence[:1].upper() + sentence[1:]


def reference_iter_pipeline(lines, table, dictionary, translator, oov_policy, split_morphs):
    """``iter_pipeline``'s traces and report, one ``GlossLine`` per stage; an
    external translator is taken to echo its input (``cat``)."""
    report = PipelineReport()
    traces = []
    for line in lines:
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
        if translator.kind is TranslatorKind.BASELINE_DETOKENIZE:
            target = reference_strip_labels(gloss_tgt)
        else:
            target = gloss_tgt.render_spaced(split_morphs)
        traces.append(SentenceTrace(line, gloss_src.render(), gloss_tgt.render(), target))
    return traces, report


def _reference_target_lemma(lemma, dictionary):
    hit = dictionary.lookup(lemma)
    if hit is None:
        return None
    target = hit[0]
    return target[:1].upper() + target[1:] if lemma[:1].isupper() else target


def reference_substitute_token(token, dictionary, policy, missing):
    """``_substitute_token`` with the OOV policy written in its loop."""
    morphs = []
    kept = 0
    for morph in token.morphs:
        if morph.kind is not MorphKind.LEMMA or is_punct(morph.text):
            morphs.append(morph)
            kept += 1
            continue
        target = _reference_target_lemma(morph.text, dictionary)
        if target is not None:
            morphs.append(GlossMorph(MorphKind.LEMMA, target, morph.joiner))
            continue
        missing.append(morph.text)
        if policy is OovPolicy.KEEP:
            morphs.append(morph)
            kept += 1
        elif policy is OovPolicy.KEEP_MARKED:
            marked = f"{OOV_OPEN}{morph.text}{OOV_CLOSE}"
            morphs.append(GlossMorph(MorphKind.LEMMA, marked, morph.joiner))
    if kept == len(token.morphs) or not morphs:
        return token
    if morphs[0].joiner is not Joiner.WORD_INITIAL:
        first = morphs[0]
        morphs[0] = GlossMorph(first.kind, first.text, Joiner.WORD_INITIAL)
    return GlossToken(tuple(morphs))


def reference_substitute(gloss, dictionary, policy):
    """``substitute_lemmas`` and ``oov_lemmas`` of ``gloss`` from one lookup
    per lemma occurrence: the target gloss and the lemmas the dictionary lacked."""
    missing = []
    tokens = [reference_substitute_token(t, dictionary, policy, missing) for t in gloss.tokens]
    return GlossLine(tokens=tuple(tokens)), missing


def reference_stages(lines, table, dictionary, oov_policy, report, baseline, split_morphs):
    """``_stages`` as a list of stages per line: parse, then every word's
    lemma and tail, then every lemma's target, then the glosses and the
    translator input from those lists."""
    lemma_of, tail_of = _Memo(_source_lemma, table), _Memo(_tail, table)
    target_of = _Memo(_target, dictionary, oov_policy)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        stage = "parse-analyzer"
        try:
            words = reference_analyzer_words(line)
            stage = "analyzer-to-gloss"
            glossed = [(lemma_of[surface], tail_of[run]) for surface, run in words]
            stage = "substitute"
            substituted = [target_of[lemma.text] for lemma, _ in glossed]
        except (IgtError, ValueError) as exc:
            raise PipelineStageError(stage, exc, line=lineno) from exc

        source = []
        target = []
        unknown = oov = 0
        for (lemma, tail), (head, missed) in zip(glossed, substituted):
            unknown += len(tail.unknown)
            oov += missed
            source.append(_word(lemma, tail, lemma.text))
            target.append(_word(head, tail, lemma.text))

        rows = zip(target, glossed, substituted)
        if baseline:
            sentence = " ".join(
                (text if head is None else head.text).replace("_", " ")
                for (text, punct), (_, tail), (head, _) in rows
                if head is not None or punct or not tail.text
            )
            shaped = sentence[:1].upper() + sentence[1:]
        elif split_morphs:
            shaped = " ".join(
                text if not tail.text
                else tail.split[1:] if head is None
                else f"{head.text} {tail.split}"
                for (text, _), (_, tail), (head, _) in rows
            )
        else:
            shaped = " ".join(text for text, _ in target)

        report.n_sentences += 1
        report.analyzer_tokens += len(words)
        report.gloss_src_tokens += len(words)
        report.gloss_tgt_tokens += len(words)
        report.unknown_labels += unknown
        report.oov_lemmas += oov
        yield line, join_tokens(source), join_tokens(target), shaped
