"""Lemma substitution, multilingual preparation, translators, full pipeline."""

import random
import sys
import time
from dataclasses import dataclass, field

import pytest

from igtpivot import (
    IgtRecord,
    LanguageTag,
    LemmaDictionary,
    LemmaSide,
    MorphKind,
    OovPolicy,
    PipelineStageError,
    TranslatorCountMismatchError,
    TranslatorHandle,
    TranslatorKind,
    TranslatorSpawnFailureError,
    TranslatorTimeoutError,
    baseline_detokenize,
    default_table,
    load_dictionary,
    oov_lemmas,
    parse_analyzer_line,
    prepare_multilingual,
    run_pipeline,
    substitute_lemmas,
    tokenize_gloss,
    translate,
)
from igtpivot.pipeline import format_report

from gen_helpers import random_analyzer_corpus, random_record
from golden_data import (
    PIVOT_DICTIONARY_TSV,
    SUBSTITUTION_GOLD,
    TURKISH_ANALYZER_FIXTURE,
)
from pipeline_reference import reference_run_pipeline


def pivot_dictionary():
    return load_dictionary(PIVOT_DICTIONARY_TSV)


def source_gloss(text):
    return tokenize_gloss(text, lemma_side=LemmaSide.SOURCE)


# --- substitution -----------------------------------------------------------------


def test_substitution_gold_lines():
    dictionary = pivot_dictionary()
    for before, after in SUBSTITUTION_GOLD:
        result = substitute_lemmas(source_gloss(before), dictionary)
        assert result.render() == after
        assert result.lemma_side is LemmaSide.TARGET


def test_substitution_with_empty_dictionary_keeps_everything():
    empty = LemmaDictionary(entries={})
    gloss = source_gloss("Kadin.NOM dance ediyor-AOR.3.SG.")
    result = substitute_lemmas(gloss, empty, OovPolicy.KEEP)
    assert result.render() == gloss.render()
    assert result.lemma_side is LemmaSide.TARGET
    assert result.tokens == gloss.tokens


def test_substitution_never_touches_labels():
    dictionary = load_dictionary("gör\tsee\npst\tWRONG\nsg\tWRONG\n")
    gloss = source_gloss("gör-PST.3.SG")
    result = substitute_lemmas(gloss, dictionary)
    assert result.render() == "see-PST.3.SG"
    for before, after in zip(gloss.tokens, result.tokens):
        assert [m.text for m in before.morphs if m.kind is MorphKind.LABEL] == [
            m.text for m in after.morphs if m.kind is MorphKind.LABEL
        ]


def test_substitution_reapplies_title_case():
    dictionary = load_dictionary("kadin\twoman\n")
    result = substitute_lemmas(source_gloss("Kadin.NOM kadin-ACC"), dictionary)
    assert result.render() == "Woman.NOM woman-ACC"


def test_substitution_oov_marked():
    dictionary = load_dictionary("dans\tdance\n")
    result = substitute_lemmas(
        source_gloss("Kadin.NOM dans-ACC"), dictionary, OovPolicy.KEEP_MARKED
    )
    assert result.render() == "⟦Kadin⟧.NOM dance-ACC"


def test_substitution_oov_drop_keeps_labels():
    dictionary = load_dictionary("dans\tdance\n")
    result = substitute_lemmas(
        source_gloss("Kadin.NOM.3 dans-ACC"), dictionary, OovPolicy.DROP
    )
    assert result.render() == "NOM.3 dance-ACC"
    assert len(result.tokens) == 2


def test_substitution_oov_drop_on_bare_lemma_keeps_it():
    result = substitute_lemmas(
        source_gloss("kadin dans"), LemmaDictionary(entries={}), OovPolicy.DROP
    )
    assert result.render() == "kadin dans"
    assert len(result.tokens) == 2


def test_substitution_preserves_token_count():
    rng = random.Random(31)
    dictionary = load_dictionary("house\tcasa\ntree\tarbol\nwoman\tmujer\n")
    for _ in range(50):
        record = random_record(rng, 0)
        gloss = record.gloss_src or record.gloss_tgt
        if gloss is None:
            continue
        gloss = tokenize_gloss(gloss.render(), lemma_side=LemmaSide.SOURCE)
        for policy in OovPolicy:
            result = substitute_lemmas(gloss, dictionary, policy)
            assert len(result.tokens) == len(gloss.tokens)


def test_oov_counting_skips_punctuation():
    dictionary = load_dictionary("kadin\twoman\n")
    gloss = source_gloss("Kadin.NOM dans-ACC .")
    assert oov_lemmas(gloss, dictionary) == ["dans"]


# --- multilingual preparation ----------------------------------------------------------


def hmong_record():
    return IgtRecord(
        id="blu-1",
        lang=LanguageTag("blu"),
        source_text="Nwg yeej qhuas nwg.",
        gloss_tgt=tokenize_gloss("3SG always praise 3SG."),
        target_text="He always praises himself.",
    )


def test_prepare_multilingual_tags_source_lines():
    pairs, warnings = prepare_multilingual([hmong_record()])
    assert not warnings
    assert pairs == [("blu 3SG always praise 3SG .", "He always praises himself.")]


def test_prepare_multilingual_skips_incomplete_records():
    incomplete = IgtRecord(
        id="x", lang=LanguageTag("tur"), source_text="Kadin dans ediyor."
    )
    pairs, warnings = prepare_multilingual([hmong_record(), incomplete])
    assert len(pairs) == 1
    assert len(warnings) == 1
    assert warnings[0].code == "SKIPPED_RECORD"
    assert "x" in warnings[0].message


def test_prepare_multilingual_property_over_random_records():
    rng = random.Random(60)
    records = [random_record(rng, i) for i in range(80)]
    pairs, warnings = prepare_multilingual(records)
    complete = [r for r in records if r.gloss_tgt is not None and r.target_text is not None]
    assert len(pairs) == len(complete)
    assert len(warnings) == len(records) - len(complete)
    for source, _ in pairs:
        first = source.split()[0]
        LanguageTag(first)  # must parse as a language tag


def test_prepare_multilingual_split_morphs_rendering():
    record = IgtRecord(
        id="t",
        lang=LanguageTag("tur"),
        gloss_tgt=tokenize_gloss("Woman.NOM dance do-AOR.3.SG."),
        target_text="The woman dances.",
    )
    pairs, _ = prepare_multilingual([record], split_morphs=True)
    assert pairs[0][0] == "tur Woman .NOM dance do -AOR .3 .SG ."


# --- translators -----------------------------------------------------------------------


def test_baseline_detokenize_strips_labels():
    assert baseline_detokenize("Woman.NOM dance do-AOR.3.SG .") == "Woman dance do ."


def test_baseline_detokenize_underscores_and_case():
    assert baseline_detokenize("1SG be_thirsty water") == "Be thirsty water"
    assert baseline_detokenize("water 1SG") == "Water"


def test_identity_translator_echoes():
    handle = TranslatorHandle(TranslatorKind.IDENTITY)
    lines = ["a b", "c"]
    assert translate(lines, handle) == lines


def test_external_translator_requires_command():
    with pytest.raises(ValueError):
        TranslatorHandle(TranslatorKind.EXTERNAL)


def _stub(code: str) -> str:
    return f"{sys.executable} -c \"{code}\""


REVERSER = _stub(
    "import sys; [print(' '.join(reversed(l.split()))) for l in sys.stdin]"
)


def test_external_translator_line_protocol_preserves_order_and_count():
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=REVERSER, timeout=30)
    lines = ["one two three", "a b", "x"]
    assert translate(lines, handle) == ["three two one", "b a", "x"]


def test_external_translator_count_mismatch_fails_atomically():
    dropper = _stub("import sys; lines=list(sys.stdin); print('only one line')")
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=dropper, timeout=30)
    with pytest.raises(TranslatorCountMismatchError):
        translate(["a", "b"], handle)


def test_external_translator_nonzero_exit_fails():
    failer = _stub("import sys; sys.stdin.read(); sys.exit(3)")
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=failer, timeout=30)
    with pytest.raises(TranslatorSpawnFailureError):
        translate(["a"], handle)


def test_external_translator_unspawnable_command_fails():
    handle = TranslatorHandle(
        TranslatorKind.EXTERNAL, command="/no/such/binary-xyz", timeout=30
    )
    with pytest.raises(TranslatorSpawnFailureError):
        translate(["a"], handle)


def test_external_translator_timeout():
    sleeper = _stub("import time,sys; time.sleep(30)")
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=sleeper, timeout=0.5)
    with pytest.raises(TranslatorTimeoutError):
        translate(["a"], handle)


# --- full pipeline -----------------------------------------------------------------------


def test_pipeline_reproduces_staged_fixture():
    handle = TranslatorHandle(TranslatorKind.BASELINE_DETOKENIZE)
    targets, report = run_pipeline(
        TURKISH_ANALYZER_FIXTURE, default_table(), pivot_dictionary(), handle
    )
    assert targets == ["Woman dance be .", "Man woman see ."]
    assert [t.gloss_src for t in report.sentences] == [g for g, _ in SUBSTITUTION_GOLD]
    assert [t.gloss_tgt for t in report.sentences] == [g for _, g in SUBSTITUTION_GOLD]
    assert report.oov_lemmas == 0
    assert report.unknown_labels == 0
    assert report.n_sentences == 2
    # token conservation through every stage
    assert report.analyzer_tokens == report.gloss_src_tokens == report.gloss_tgt_tokens


def test_pipeline_empty_input_zeroes_report():
    handle = TranslatorHandle(TranslatorKind.IDENTITY)
    targets, report = run_pipeline(
        "", default_table(), pivot_dictionary(), handle
    )
    assert targets == []
    assert report.n_sentences == 0
    assert report.analyzer_tokens == 0
    assert report.oov_lemmas == 0
    assert report.sentences == []


def test_pipeline_counts_marked_oov():
    handle = TranslatorHandle(TranslatorKind.IDENTITY)
    targets, report = run_pipeline(
        "bilinmeyen+Nom\n",
        default_table(),
        pivot_dictionary(),
        handle,
        oov_policy=OovPolicy.KEEP_MARKED,
    )
    assert report.oov_lemmas == 1
    assert "⟦bilinmeyen⟧" in report.sentences[0].gloss_tgt


def test_pipeline_wraps_stage_errors_with_stage_name():
    handle = TranslatorHandle(TranslatorKind.IDENTITY)
    with pytest.raises(PipelineStageError, match="parse-analyzer"):
        run_pipeline("+Nom\n", default_table(), pivot_dictionary(), handle)


def test_pipeline_external_translator_stage_error():
    handle = TranslatorHandle(
        TranslatorKind.EXTERNAL, command="/no/such/binary-xyz", timeout=5
    )
    with pytest.raises(PipelineStageError, match="translate"):
        run_pipeline(
            TURKISH_ANALYZER_FIXTURE, default_table(), pivot_dictionary(), handle
        )


def test_pipeline_report_renders_intermediates():
    from igtpivot.pipeline import format_report

    handle = TranslatorHandle(TranslatorKind.BASELINE_DETOKENIZE)
    _, report = run_pipeline(
        TURKISH_ANALYZER_FIXTURE, default_table(), pivot_dictionary(), handle
    )
    text = format_report(report)
    assert "oov_lemmas=0" in text
    assert SUBSTITUTION_GOLD[0][1] in text
    assert "Woman dance be ." in text


# --- one pass over GlossLine ------------------------------------------------------------

BASELINE = TranslatorHandle(TranslatorKind.BASELINE_DETOKENIZE)
SMALL_DICTIONARY_TSV = "ben\tI\ngel\tcome\nyil\t2\ngec\tpast\n"


@pytest.mark.parametrize(
    "analyzer, expected",
    [
        # a target lemma spelled like a label ("I") is still a lemma
        ("ben+A1sg+Pnon+Nom gel+Past+A1sg.", "I come ."),
        # an unknown tag is still a label, whatever its case
        ("gel+Dim+Past+A3sg.", "Come ."),
        # digits and label variants ("past") made by substitution are lemmas
        ("yil+A3sg gec+Past.", "2 past ."),
        # a kept upper-case OOV lemma is not taken for a label
        ("ABD+Prop+A3sg gel+Past+A3sg.", "ABD come ."),
    ],
)
def test_baseline_keeps_the_kind_each_stage_gave_a_morph(analyzer, expected):
    dictionary = load_dictionary(SMALL_DICTIONARY_TSV)
    targets, report = run_pipeline(analyzer, default_table(), dictionary, BASELINE)
    assert targets == [expected]
    assert report.sentences[0].target == expected


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("policy", list(OovPolicy))
def test_pipeline_matches_render_and_retokenize_reference(seed, policy):
    # roots and targets are lowercase consonant-vowel words, which the gloss
    # tokenizer reads as lemmas, and unknown tags are upper case, which it
    # reads as labels: there both compositions must agree byte for byte
    analyzer_text, dictionary_tsv = random_analyzer_corpus(random.Random(seed), 30)
    table, dictionary = default_table(), load_dictionary(dictionary_tsv)
    targets, report = run_pipeline(analyzer_text, table, dictionary, BASELINE, oov_policy=policy)
    ref_targets, ref_report = reference_run_pipeline(analyzer_text, table, dictionary, policy)
    assert targets == ref_targets
    assert format_report(report) == format_report(ref_report)
    assert report.oov_lemmas > 0 and report.unknown_labels > 0


@dataclass(frozen=True)
class CountingDictionary(LemmaDictionary):
    looked_up: list = field(default_factory=list)

    def lookup(self, lemma):
        self.looked_up.append(lemma)
        return super().lookup(lemma)


@pytest.mark.parametrize("kind", [TranslatorKind.BASELINE_DETOKENIZE, TranslatorKind.IDENTITY])
def test_pipeline_looks_up_each_lemma_once(kind):
    analyzer_text, dictionary_tsv = random_analyzer_corpus(random.Random(7), 25)
    analyzer_text += TURKISH_ANALYZER_FIXTURE
    dictionary = CountingDictionary(entries=load_dictionary(dictionary_tsv).entries)
    _, report = run_pipeline(
        analyzer_text, default_table(), dictionary, TranslatorHandle(kind)
    )
    lemmas = [
        token.surface
        for line in analyzer_text.split("\n")
        for token in parse_analyzer_line(line)
        if not token.is_punctuation
    ]
    assert len(dictionary.looked_up) == len(lemmas)
    missed = [lemma for lemma in dictionary.looked_up if lemma.lower() not in dictionary.entries]
    assert report.oov_lemmas == len(missed) > 0


def test_pipeline_baseline_never_tokenizes_a_gloss(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tokenize_gloss called")

    monkeypatch.setattr("igtpivot.pipeline.tokenize_gloss", refuse)
    monkeypatch.setattr("igtpivot.parsing.tokenize_gloss", refuse)
    targets, _ = run_pipeline(
        TURKISH_ANALYZER_FIXTURE, default_table(), pivot_dictionary(), BASELINE
    )
    assert targets == ["Woman dance be .", "Man woman see ."]


# --- external translator line protocol -----------------------------------------------------


def test_external_translator_keeps_line_separator_inside_a_line():
    marker = _stub(
        "import sys; [sys.stdout.buffer.write((l.rstrip('\\n') + '\\u2028!\\n')"
        ".encode('utf-8')) for l in sys.stdin]"
    )
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=marker, timeout=30)
    assert translate(["a", "b"], handle) == ["a\u2028!", "b\u2028!"]


def test_external_translator_dropped_line_is_not_hidden_by_line_separator():
    # two inputs, one output line that str.splitlines would count as two
    dropper = _stub(
        "import sys; sys.stdin.read(); sys.stdout.buffer.write('a\\u2028b\\n'.encode('utf-8'))"
    )
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=dropper, timeout=30)
    with pytest.raises(TranslatorCountMismatchError):
        translate(["a", "b"], handle)


def test_external_translator_timeout_kills_the_translators_children():
    # the shell's children hold the output pipe; killing only the shell would
    # leave the read waiting for the sleep to end
    handle = TranslatorHandle(
        TranslatorKind.EXTERNAL, command="sh -c 'sleep 20 | cat'", timeout=0.5
    )
    start = time.monotonic()
    with pytest.raises(TranslatorTimeoutError):
        translate(["a"], handle)
    assert time.monotonic() - start < 10
