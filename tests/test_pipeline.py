"""Lemma substitution, multilingual preparation, translators, full pipeline."""

import random
import sys
import time
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtpivot import (
    BadEncodingError,
    BadTranslatorError,
    GlossLine,
    GlossMorph,
    GlossToken,
    IgtRecord,
    Joiner,
    LanguageTag,
    LemmaDictionary,
    MalformedTokenError,
    MorphKind,
    OovPolicy,
    PipelineReport,
    PipelineStageError,
    TranslatorCountMismatchError,
    TranslatorHandle,
    TranslatorKind,
    TranslatorSpawnFailureError,
    TranslatorTimeoutError,
    analyzer_to_gloss,
    baseline_detokenize,
    default_table,
    iter_pipeline,
    load_dictionary,
    loads_table,
    normalize_gloss_line,
    oov_lemmas,
    parse_analyzer_line,
    prepare_multilingual,
    run_pipeline,
    substitute_lemmas,
    tokenize_gloss,
    translate,
    unknown_analyzer_tags,
)
from igtpivot.model import _check_morph_text, is_punct
from igtpivot.parsing import _gloss_words, _segment_morph, _tail_morphs
from igtpivot.pipeline import (
    _glossed_lines, _normalized_lines, _stages, _substituted_lines, _tail, _target, format_report,
)

from gen_helpers import random_analyzer_corpus, random_record
from golden_data import (
    PIVOT_DICTIONARY_TSV,
    SUBSTITUTION_GOLD,
    TURKISH_ANALYZER_FIXTURE,
)
from pipeline_reference import (
    _reference_target_lemma,
    reference_iter_pipeline,
    reference_run_pipeline,
    reference_stages,
    reference_substitute,
    reference_tail,
)


def pivot_dictionary():
    return load_dictionary(PIVOT_DICTIONARY_TSV)


def source_gloss(text):
    return tokenize_gloss(text)


# --- substitution -----------------------------------------------------------------


def test_substitution_gold_lines():
    dictionary = pivot_dictionary()
    for before, after in SUBSTITUTION_GOLD:
        result = substitute_lemmas(source_gloss(before), dictionary)
        assert result.render() == after


def test_substitution_with_empty_dictionary_keeps_everything():
    empty = LemmaDictionary(entries={})
    gloss = source_gloss("Kadin.NOM dance ediyor-AOR.3.SG.")
    result = substitute_lemmas(gloss, empty, OovPolicy.KEEP)
    assert result.render() == gloss.render()
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
        gloss = tokenize_gloss(gloss.render())
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
    with pytest.raises(BadTranslatorError, match="^EXTERNAL translator requires") as caught:
        TranslatorHandle(TranslatorKind.EXTERNAL)
    assert caught.value.code == "BAD_TRANSLATOR"
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("kind", [TranslatorKind.EXTERNAL, TranslatorKind.IDENTITY])
# nan compares false with everything, so an external translator used to run with no timeout
@pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
def test_translator_timeout_must_be_a_positive_number_of_seconds(kind, timeout):
    message = f"^timeout must be positive seconds, got {timeout}$"
    with pytest.raises(BadTranslatorError, match=message) as caught:
        TranslatorHandle(kind, command="cat", timeout=timeout)
    assert caught.value.code == "BAD_TRANSLATOR"


@pytest.mark.parametrize("kind", [TranslatorKind.IDENTITY, TranslatorKind.BASELINE_DETOKENIZE])
@pytest.mark.parametrize("timeout", [5, 60.0, 0.5])
def test_only_an_external_translator_takes_a_timeout(kind, timeout):
    # the other translators run no command, so a timeout could only be ignored
    message = f"^the {kind.value} translator runs no command, got timeout {timeout}$"
    with pytest.raises(BadTranslatorError, match=message) as caught:
        TranslatorHandle(kind, timeout=timeout)
    assert caught.value.code == "BAD_TRANSLATOR"
    assert TranslatorHandle(kind).timeout is None


@pytest.mark.parametrize("kind", [TranslatorKind.IDENTITY, TranslatorKind.BASELINE_DETOKENIZE])
@pytest.mark.parametrize("command", ["cat", ""])
def test_only_an_external_translator_takes_a_command(kind, command):
    message = f"^the {kind.value} translator runs no command, got {command!r}$"
    with pytest.raises(BadTranslatorError, match=message) as caught:
        TranslatorHandle(kind, command=command)
    assert caught.value.code == "BAD_TRANSLATOR"


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


def test_pipeline_stage_errors_name_their_line():
    handle = TranslatorHandle(TranslatorKind.IDENTITY)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline("gel+Past\n\n \na++B\n", default_table(), pivot_dictionary(), handle)
    assert info.value.line == 4
    assert str(info.value) == (
        "stage parse-analyzer: analyzer token has an empty tag: 'a++B' (line 4)"
    )


DICTIONARY = pivot_dictionary()


def _hand_built_table(**changes):
    return replace(default_table(), **changes)


@pytest.mark.parametrize(
    "table, dictionary, stage",
    [
        # a root restored to a multi-word text
        (_hand_built_table(restore_map={"Kadi": "Ka din"}), DICTIONARY, "analyzer-to-gloss"),
        # a tag whose label contains a space
        (_hand_built_table(analyzer_map={"Nom": ("NOM X",)}), DICTIONARY, "analyzer-to-gloss"),
        # a dictionary target with a space
        (default_table(), LemmaDictionary({"kadin": ("old woman", 1.0)}), "substitute"),
    ],
)
def test_pipeline_wraps_value_errors_of_hand_built_inputs_with_stage_name(table, dictionary, stage):
    handle = TranslatorHandle(TranslatorKind.IDENTITY)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(TURKISH_ANALYZER_FIXTURE, table, dictionary, handle)
    assert info.value.stage == stage
    assert isinstance(info.value.cause, ValueError)
    assert str(info.value).startswith(f"stage {stage}: morph text contains whitespace")


def test_pipeline_takes_unknown_tags_from_the_analyzer_to_gloss_pass(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("unknown_analyzer_tags called")

    monkeypatch.setattr("igtpivot.normalize.unknown_analyzer_tags", refuse)
    monkeypatch.setattr("igtpivot.pipeline.unknown_analyzer_tags", refuse, raising=False)
    targets, report = run_pipeline(
        "gör+Dim+Past+A3sg+Foo.\n", default_table(), pivot_dictionary(), BASELINE
    )
    assert targets == ["See ."]
    assert report.unknown_labels == 2


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


def test_translate_reads_each_kind_from_the_spelling():
    # igt pivot keeps the kind each stage gave a morph: ABD stays a lemma.
    # translate gets the target gloss as text, so the baseline reads ABD by
    # its spelling, as a label, and so does igt subst
    dictionary = load_dictionary(SMALL_DICTIONARY_TSV)
    analyzer = "ABD+Prop+A3sg gel+Past+A3sg."
    targets, report = run_pipeline(analyzer, default_table(), dictionary, BASELINE)
    assert (targets, report.sentences[0].gloss_tgt) == (["ABD come ."], "ABD.3.SG come-PST.3.SG.")
    assert translate(["ABD.3.SG come-PST.3.SG."], BASELINE) == ["Come ."]
    substitute = _substituted_lines(load_dictionary("abd\tUSA\n"), OovPolicy.KEEP)
    assert substitute("ABD.3.SG come-PST.3.SG.") == "ABD.3.SG come-PST.3.SG."


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
    restore = default_table().restore_map
    lemmas = [
        restore.get(token.surface, token.surface)
        for line in analyzer_text.split("\n")
        for token in parse_analyzer_line(line)
        if not token.is_punctuation
    ]
    # one lookup per distinct lemma, and every missed occurrence still counted
    assert len(dictionary.looked_up) == len(set(dictionary.looked_up))
    assert set(dictionary.looked_up) == set(lemmas)
    missed = [lemma for lemma in lemmas if lemma.lower() not in dictionary.entries]
    assert report.oov_lemmas == len(missed) > len(set(missed))


# --- pieces built once per distinct lemma and tag run -----------------------------------

# a verbal tag, a tag that maps to no label ("-"), one whose label is
# punctuation, restored roots (one title case, one to punctuation)
PIECES_TABLE = loads_table(
    "[registry]\n1 2 3 SG PL NOM ACC PST PROG !\n"
    "[analyzer]\nA3sg\t3.SG\nA3pl\t3.PL\nNom\tNOM\nAcc\tACC\nPast\tPST\tverbal\n"
    "Prog\tPROG\tverbal\nPnon\t-\nExcl\t!\n"
    "[restore]\nKadi\tKadin\nkadi\tkadin\nstop\t.\n"
)
# targets that are punctuation, capitalized, or hold "_"
PIECES_DICTIONARY = LemmaDictionary(
    {
        "kadin": ("woman", 1.0), "ev": ("house", 1.0), "new_york": ("new_york", 1.0),
        "abd": ("USA", 1.0), "dot": (".", 1.0), "nom": ("name", 1.0), "3sg": ("three", 1.0),
    }
)
# lemmas spelled like labels, with "_", title case, OOV, restored
_SURFACES = ["kadi", "Kadi", "ev", "Ev", "new_york", "x_y", "NOM", "3SG", "abd", "ABD",
             "dot", "zork", "Zork", "stop"]
# known tags and unknown ones in both cases
_TAGS = ["A3sg", "A3pl", "Nom", "Acc", "Past", "Prog", "Pnon", "Excl", "Zorp", "ZORP", "zorp"]
# known tags, verbal ones, ones with no label ("-"), punctuation labels
# (Excl's, and Bang's, which is verbal), and unknown ones: in both cases,
# punctuation, "_", a period and a non-ASCII letter
_TAIL_TAGS = _TAGS + [
    "A1sg", "P2pl", "Prog1", "Prop", "Noun", "Bang", "3SG", "!", ",", "é_x", "a.b",
]
# tables no table text gives: an unknown tag marked verbal, and roots
# restored to punctuation and to title case
VERBAL_ZORP_TABLE = replace(default_table(), verbal_tags=default_table().verbal_tags | {"Zorp"})
RESTORING_TABLE = replace(
    default_table(), restore_map={**default_table().restore_map, "stop": ".", "kadi": "Kadin"}
)
TAIL_TABLES = [
    PIECES_TABLE,
    replace(PIECES_TABLE, person_first=False),
    default_table(),
    default_table(person_first=False),
    loads_table("[registry]\n! 3 SG\n[analyzer]\nBang\t!\tverbal\nA3sg\t3.SG\n"),
    VERBAL_ZORP_TABLE,
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TAIL_TAGS), max_size=5))
def test_a_tail_from_rendered_labels_equals_the_morph_built_tail(tags):
    run = "".join("+" + tag for tag in tags)
    for table in TAIL_TABLES:
        assert _tail(table, run) == reference_tail(table, run)


_analyzer_word = st.one_of(
    st.sampled_from([".", "!?", ",", "?"]),
    st.builds(
        lambda surface, tags, trailing: "+".join([surface, *tags]) + trailing,
        st.sampled_from(_SURFACES),
        st.lists(st.sampled_from(_TAGS), max_size=4),
        st.sampled_from(["", "", ".", "!?", ","]),
    ),
)
_analyzer_lines = st.lists(
    st.one_of(st.just(""), st.lists(_analyzer_word, min_size=1, max_size=6).map(" ".join)),
    max_size=4,
)
IDENTITY = TranslatorHandle(TranslatorKind.IDENTITY)
TRANSLATIONS = [(BASELINE, False), (IDENTITY, False), (IDENTITY, True)]


@settings(max_examples=150, deadline=None)
@given(st.lists(_analyzer_word, min_size=1, max_size=6).map(" ".join))
def test_library_gloss_parse_analyzer_and_pivot_apply_one_word_rule(line):
    tokens = parse_analyzer_line(line)
    for table in (VERBAL_ZORP_TABLE, RESTORING_TABLE, PIECES_TABLE):
        gloss = analyzer_to_gloss(tokens, table).render()
        report = PipelineReport()
        stages = _stages([line], table, PIECES_DICTIONARY, OovPolicy.KEEP, report, False, False)
        [(_, source, _, _)] = stages
        assert _glossed_lines(table)(line) == source == gloss
        assert report.unknown_labels == len(unknown_analyzer_tags(tokens, table))


def test_hand_built_tables_mark_an_unknown_tag_verbal_and_restore_to_punctuation():
    assert _glossed_lines(VERBAL_ZORP_TABLE)("kadi+Zorp+ZORP+Past") == "kadi-Zorp.ZORP-PST"
    assert _glossed_lines(RESTORING_TABLE)("kadi+Zorp stop") == "Kadin.Zorp."


def _pivot(lines, table, dictionary, translator, policy, split_morphs):
    report = PipelineReport()
    traces = list(iter_pipeline(lines, table, dictionary, translator, policy, split_morphs, report))
    return traces, report


@settings(max_examples=150, deadline=None)
@given(_analyzer_lines)
def test_pipeline_pieces_equal_the_one_gloss_line_per_stage_reference(lines):
    for policy in OovPolicy:
        for translator, split_morphs in TRANSLATIONS:
            args = (lines, PIECES_TABLE, PIECES_DICTIONARY, translator, policy, split_morphs)
            assert _pivot(*args) == reference_iter_pipeline(*args)


PIECES_TEXT = (
    "Kadi+A3sg+Nom new_york+Excl x_y+Pnon !? . zork+Excl stop+Nom!?\n"
    "\n"
    "dot ABD+Zorp+Past. Zork+ZORP+A3pl , NOM+Acc+Prog 3SG stop zork+Pnon\n"
)


@pytest.mark.parametrize("policy", list(OovPolicy))
def test_pipeline_pieces_equal_the_reference_through_an_echoing_translator(policy):
    lines = PIECES_TEXT.split("\n")
    for split_morphs in (False, True):
        cat = TranslatorHandle(TranslatorKind.EXTERNAL, command="cat", timeout=30)
        args = (lines, PIECES_TABLE, PIECES_DICTIONARY, cat, policy, split_morphs)
        assert _pivot(*args) == reference_iter_pipeline(*args)


def _pivot_checks(lines, table, dictionary):
    """The texts ``igt pivot`` checks as a morph's over ``lines``: each
    distinct surface's restored lemma, each distinct lemma's dictionary
    target and each unknown tag of each distinct tag run."""
    tokens = [token for line in lines if line.strip() for token in parse_analyzer_line(line)]
    lemmas = [table.restore_map.get(surface, surface) for surface in {t.surface for t in tokens}]
    targets = [
        _reference_target_lemma(lemma, dictionary) for lemma in set(lemmas) if not is_punct(lemma)
    ]
    runs = {token.tags for token in tokens}
    unknown = [tag for tags in runs for tag in tags if tag not in table.analyzer_map]
    return sorted(lemmas + [target for target in targets if target is not None] + unknown)


def test_pipeline_builds_no_gloss_value_and_checks_each_distinct_piece_once(monkeypatch):
    lines = PIECES_TEXT.split("\n")
    cat = TranslatorHandle(TranslatorKind.EXTERNAL, command="cat", timeout=30)
    runs = [(BASELINE, False), (IDENTITY, False), (IDENTITY, True), (cat, False)]
    expected = [
        reference_iter_pipeline(lines, PIECES_TABLE, PIECES_DICTIONARY, translator, policy, split)
        for translator, split in runs
        for policy in OovPolicy
    ]
    PIECES_TABLE._tag_labels  # the table's rendered labels, built once per table

    def refuse(*args, **kwargs):
        raise AssertionError("a gloss morph, token or line was built")

    checked = []

    def counting(text):
        checked.append(text)
        _check_morph_text(text)

    monkeypatch.setattr(GlossLine, "__init__", refuse)
    monkeypatch.setattr(GlossToken, "__post_init__", refuse)
    monkeypatch.setattr(GlossMorph, "__post_init__", refuse)
    monkeypatch.setattr("igtpivot.pipeline._check_morph_text", counting)
    monkeypatch.setattr("igtpivot.normalize._check_morph_text", counting)
    once = _pivot_checks(lines, PIECES_TABLE, PIECES_DICTIONARY)
    traces = []
    for translator, split in runs:
        for policy in OovPolicy:
            checked.clear()
            traces.append(_pivot(lines, PIECES_TABLE, PIECES_DICTIONARY, translator, policy, split))
            assert sorted(checked) == once
            # a repeated line checks nothing more
            checked.clear()
            _pivot(lines * 3, PIECES_TABLE, PIECES_DICTIONARY, translator, policy, split)
            assert sorted(checked) == once
    assert traces == expected


@pytest.mark.parametrize("policy", list(OovPolicy))
def test_subst_builds_one_morph_per_distinct_replaced_lemma(monkeypatch, policy):
    glosses = ["Kadin-PST ev=ev 3SG-see x!?. , dot-Past.3sg", "zork=kadin-NOM ev-zork zork ."]
    registry = default_table().label_registry()
    expected = [
        substitute_lemmas(tokenize_gloss(gloss), PIECES_DICTIONARY, policy).render()
        for gloss in glosses
    ]
    _substituted_lines(PIECES_DICTIONARY, policy)(" ".join(glosses))  # the tokenizer's own memos
    # the lemma morphs of each distinct head and tail that take another text
    words = [(first, rest) for first, rest in _gloss_words(" ".join(glosses)) if rest is not None]
    heads = [(_segment_morph("", first, registry),) for first in {first for first, _ in words}]
    tails = [_tail_morphs(rest, registry) for rest in {rest for _, rest in words}]
    replaced = [
        head.text
        for morphs in heads + tails
        for morph in morphs
        if morph.kind is MorphKind.LEMMA
        for head in [_target(PIECES_DICTIONARY, policy, morph.text).head]
        if head is not None and head.text != morph.text
    ]
    built = []
    check = GlossMorph.__post_init__

    def counting(self):
        built.append(self.text)
        check(self)

    monkeypatch.setattr(GlossMorph, "__post_init__", counting)
    convert = _substituted_lines(PIECES_DICTIONARY, policy)
    assert [convert(g) for g in glosses * 3] == expected * 3
    assert sorted(built) == sorted(replaced) and built


def test_line_maps_build_no_gloss_line_or_token(monkeypatch):
    # heads and tails that substitution replaces, keeps, marks or drops
    glosses = ["Kadin-PST ev=ev 3SG-see x!?. , dot-Past.3sg", "zork=kadin-NOM ev-zork zork ."]
    analyzer = [line for line in PIECES_TEXT.split("\n") if line.strip()]
    registry = PIECES_TABLE.label_registry()
    expected = [
        [analyzer_to_gloss(parse_analyzer_line(line), PIECES_TABLE).render() for line in analyzer],
        [
            normalize_gloss_line(tokenize_gloss(line, label_registry=registry), PIECES_TABLE).render()
            for line in glosses
        ],
        *(
            [substitute_lemmas(tokenize_gloss(line), PIECES_DICTIONARY, policy).render()
             for line in glosses]
            for policy in OovPolicy
        ),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a gloss line or token was built")

    monkeypatch.setattr(GlossLine, "__init__", refuse)
    monkeypatch.setattr(GlossToken, "__post_init__", refuse)
    maps = [(_glossed_lines(PIECES_TABLE), analyzer), (_normalized_lines(PIECES_TABLE), glosses)]
    maps += [(_substituted_lines(PIECES_DICTIONARY, policy), glosses) for policy in OovPolicy]
    assert [[convert(line) for line in lines] for convert, lines in maps] == expected


def test_pipeline_outputs_do_not_depend_on_the_memo_bound(monkeypatch):
    analyzer_text, dictionary_tsv = random_analyzer_corpus(random.Random(11), 40)
    corpora = [
        (analyzer_text.split("\n"), default_table(), load_dictionary(dictionary_tsv)),
        (PIECES_TEXT.split("\n"), PIECES_TABLE, PIECES_DICTIONARY),
    ]
    runs = [
        (lines, table, dictionary, translator, policy, split_morphs)
        for lines, table, dictionary in corpora
        for policy in OovPolicy
        for translator, split_morphs in TRANSLATIONS
    ]
    expected = [_pivot(*args) for args in runs]
    monkeypatch.setattr("igtpivot.model._MEMO_SIZE", 1)
    assert [_pivot(*args) for args in runs] == expected


BAD_TARGET = LemmaDictionary({"kadin": ("old woman", 1.0), "ev": ("house", 1.0)})


@pytest.mark.parametrize("word", ["a++B", "+Nom", "a+B+,", ".+Nom", "!?+X."])
def test_pipeline_parse_error_after_a_bad_target_is_a_parse_error(word):
    # the whole line is parsed before any of it is converted or looked up
    with pytest.raises(MalformedTokenError) as parsed:
        parse_analyzer_line(word)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(f"ev\nKadi+Nom ev {word}\n", default_table(), BAD_TARGET, IDENTITY)
    assert (info.value.stage, info.value.line) == ("parse-analyzer", 2)
    assert str(info.value.cause) == str(parsed.value)


def test_pipeline_recurring_bad_target_fails_on_its_first_line():
    with pytest.raises(PipelineStageError) as alone:
        run_pipeline("Kadi+Nom\n", default_table(), BAD_TARGET, IDENTITY)
    with pytest.raises(PipelineStageError) as recurring:
        run_pipeline(
            "ev+Nom\n\nev Kadi+Acc Kadi\nKadi+Nom\n", default_table(), BAD_TARGET, IDENTITY
        )
    assert (recurring.value.stage, recurring.value.line) == ("substitute", 3)
    assert str(recurring.value.cause) == str(alone.value.cause)
    assert str(alone.value.cause) == "morph text contains whitespace: 'Old woman'"


# --- one pass over each line's words against the stage-by-stage reference ----------------

STAGE_RUNS = [
    (policy, baseline, split_morphs)
    for policy in OovPolicy
    for baseline, split_morphs in [(True, False), (False, False), (False, True)]
]


def _staged(stages, lines, table, dictionary, policy, baseline, split_morphs):
    """The rows ``stages`` yields over ``lines``, its report, and the
    ``PipelineStageError`` it raises after them (``None`` for none)."""
    report = PipelineReport()
    rows = []
    try:
        for row in stages(lines, table, dictionary, policy, report, baseline, split_morphs):
            rows.append(row)
    except PipelineStageError as exc:
        cause = exc.__cause__
        return rows, report, (str(exc), exc.code, exc.line, exc.stage, type(cause), str(cause))
    return rows, report, None


@settings(max_examples=150, deadline=None)
@given(_analyzer_lines)
def test_one_pass_stages_equal_the_stage_by_stage_reference(lines):
    # punctuation-only tokens, trailing punctuation on tagged tokens, "_"
    # lemmas, title case, OOV lemmas, unknown tags and blank lines
    for policy, baseline, split_morphs in STAGE_RUNS:
        args = (lines, PIECES_TABLE, PIECES_DICTIONARY, policy, baseline, split_morphs)
        rows, report, error = _staged(_stages, *args)
        assert error is None
        assert (rows, report) == _staged(reference_stages, *args)[:2]


# a restored root and a tag's label holding a space fail the gloss stage, a
# target holding one fails the substitute stage
FAULTY_TABLE = replace(
    PIECES_TABLE,
    restore_map={**PIECES_TABLE.restore_map, "bad": "b d"},
    analyzer_map={**PIECES_TABLE.analyzer_map, "Sp": ("NOM X",)},
)
FAULTY_DICTIONARY = LemmaDictionary(
    {"kadin": ("woman", 1.0), "ev": ("old house", 1.0), "dot": (".", 1.0), "zork": ("z k", 1.0)}
)
_faulty_word = st.one_of(
    _analyzer_word,
    st.sampled_from(["bad", "bad+Nom", "ev+Sp", "Ev", "zork+Past.", "a++B", "+Nom", ".+Nom"]),
)
_faulty_lines = st.lists(
    st.one_of(st.just(""), st.lists(_faulty_word, min_size=1, max_size=6).map(" ".join)),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(_faulty_lines)
def test_one_pass_stages_raise_the_stage_by_stage_error(lines):
    for policy, baseline, split_morphs in STAGE_RUNS:
        args = (lines, FAULTY_TABLE, FAULTY_DICTIONARY, policy, baseline, split_morphs)
        assert _staged(_stages, *args) == _staged(reference_stages, *args)


PRECEDENCE_TABLE = replace(default_table(), restore_map={"Kadi": "Ka din"})
PRECEDENCE_DICTIONARY = LemmaDictionary({"ev": ("old house", 1.0), "gel": ("come", 1.0)})


@pytest.mark.parametrize("line, stage, cause_type, cause", [
    # a substitute fault in word 1, a gloss fault in word 3
    ("ev+Nom gel+Past Kadi+Acc .", "analyzer-to-gloss", MalformedTokenError, "'Ka din'"),
    # a parse fault anywhere comes first
    ("ev+Nom gel Kadi+Acc a++B", "parse-analyzer", MalformedTokenError, "an empty tag: 'a++B'"),
    ("+Nom ev+Nom gel Kadi+Acc", "parse-analyzer", MalformedTokenError, "empty surface: '+Nom'"),
    ("ev gel .+Nom Kadi", "parse-analyzer", MalformedTokenError, "token '.' must not carry tags"),
    ("gel ev+Nom gel ev", "substitute", MalformedTokenError, "'old house'"),
])
def test_a_line_with_faults_in_several_stages_raises_the_first_stages_error(
    line, stage, cause_type, cause
):
    lines = ["gel+Past", "", line, "Kadi"]
    for policy, baseline, split_morphs in STAGE_RUNS:
        args = (lines, PRECEDENCE_TABLE, PRECEDENCE_DICTIONARY, policy, baseline, split_morphs)
        rows, report, error = _staged(_stages, *args)
        assert (rows, report, error) == _staged(reference_stages, *args)
        message, code, lineno, raised_stage, raised_cause_type, _ = error
        assert (code, lineno, raised_stage) == ("PIPELINE_STAGE_ERROR", 3, stage)
        assert raised_cause_type is cause_type
        assert message.startswith(f"stage {stage}: ") and message.endswith(f"{cause} (line 3)")
        assert report.n_sentences == len(rows) == 1


def test_pipeline_baseline_never_tokenizes_a_gloss(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tokenize_gloss called")

    monkeypatch.setattr("igtpivot.pipeline.tokenize_gloss", refuse)
    monkeypatch.setattr("igtpivot.parsing.tokenize_gloss", refuse)
    targets, _ = run_pipeline(
        TURKISH_ANALYZER_FIXTURE, default_table(), pivot_dictionary(), BASELINE
    )
    assert targets == ["Woman dance be .", "Man woman see ."]


def test_split_morphs_with_the_baseline_is_rejected_before_reading_a_line():
    def unread():
        raise AssertionError("an input line was read")
        yield  # a generator, so that reading it runs the body

    with pytest.raises(BadTranslatorError, match="^split_morphs is not used by the baseline"):
        next(iter_pipeline(unread(), default_table(), pivot_dictionary(), BASELINE,
                           split_morphs=True))
    with pytest.raises(BadTranslatorError):
        run_pipeline(TURKISH_ANALYZER_FIXTURE, default_table(), pivot_dictionary(), BASELINE,
                     split_morphs=True)


# --- external translator line protocol -----------------------------------------------------


def test_external_translator_keeps_line_separator_inside_a_line():
    marker = _stub(
        "import sys; [sys.stdout.buffer.write((l.rstrip('\\n') + '\\u2028!\\n')"
        ".encode('utf-8')) for l in sys.stdin]"
    )
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=marker, timeout=30)
    assert translate(["a", "b"], handle) == ["a\u2028!", "b\u2028!"]


def test_external_translator_keeps_a_lone_carriage_return_inside_a_line():
    # output is split at \n only, and the \r of a \r\n ending is dropped
    stub = _stub("import sys; sys.stdin.read(); sys.stdout.buffer.write(b'a\\rb\\r\\n')")
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=stub, timeout=30)
    assert translate(["x"], handle) == ["a\rb"]


def test_external_translator_dropped_line_is_not_hidden_by_line_separator():
    # two inputs, one output line that str.splitlines would count as two
    dropper = _stub(
        "import sys; sys.stdin.read(); sys.stdout.buffer.write('a\\u2028b\\n'.encode('utf-8'))"
    )
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command=dropper, timeout=30)
    with pytest.raises(TranslatorCountMismatchError):
        translate(["a", "b"], handle)


# any line the protocol can carry: no \n or \r, no surrogates, and plenty of
# the separators str.splitlines would break at
_protocol_line = st.text(
    st.one_of(
        st.sampled_from("\u2028\u2029\x85\v\f\x1c\x1d\x1e"),
        st.characters(exclude_categories=["Cs"], exclude_characters="\n\r"),
    ),
    max_size=12,
)


@settings(max_examples=20, deadline=None)
@given(st.lists(_protocol_line, max_size=5))
def test_external_echo_translator_returns_every_line_unchanged(lines):
    # one process per example
    handle = TranslatorHandle(TranslatorKind.EXTERNAL, command="cat", timeout=30)
    assert translate(lines, handle) == lines


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


def test_substitution_returns_a_token_it_does_not_change_as_it_is():
    gloss = tokenize_gloss("3SG zork-PST ev-LOC .")
    dictionary = load_dictionary("ev\thouse\n")
    kept = substitute_lemmas(gloss, dictionary, OovPolicy.KEEP)
    assert [a is b for a, b in zip(kept.tokens, gloss.tokens)] == [True, True, False, True]
    marked = substitute_lemmas(gloss, dictionary, OovPolicy.KEEP_MARKED)
    assert [a is b for a, b in zip(marked.tokens, gloss.tokens)] == [True, False, False, True]
    dropped = substitute_lemmas(gloss, dictionary, OovPolicy.DROP)
    assert [a is b for a, b in zip(dropped.tokens, gloss.tokens)] == [True, False, False, True]
    assert dropped.render() == "3SG PST house-LOC."


# lemmas with "_", punctuation, title case, a target equal to its source (same,
# new_york), a punctuation target (dot), an upper-case target (abd), OOV
SUBST_DICTIONARY = LemmaDictionary(
    {
        "kadin": ("woman", 1.0), "ev": ("house", 1.0), "new_york": ("new_york", 1.0),
        "same": ("same", 1.0), "dot": (".", 1.0), "abd": ("USA", 1.0), "_": ("nil", 1.0),
    }
)
_subst_morph = st.one_of(
    st.tuples(
        st.just(MorphKind.LEMMA),
        st.sampled_from(["kadin", "Kadin", "ev", "Ev", "new_york", "same", "Same", "dot",
                         "abd", "_", "x_y", "zork", "Zork", ".", "!?", ","]),
    ),
    st.tuples(st.just(MorphKind.LABEL), st.sampled_from(["3", "SG", "NOM", "PST", "."])),
)
_subst_token = st.builds(
    lambda first, rest: GlossToken(
        (GlossMorph(*first, Joiner.WORD_INITIAL),
         *(GlossMorph(kind, text, joiner) for (kind, text), joiner in rest))
    ),
    _subst_morph,
    st.lists(
        st.tuples(_subst_morph, st.sampled_from([Joiner.HYPHEN, Joiner.PERIOD, Joiner.EQUALS])),
        max_size=3,
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_subst_token, min_size=1, max_size=6))
def test_substitution_matches_the_per_occurrence_reference(tokens):
    # labels before a lemma, two lemmas joined by "=", punctuation lemmas
    gloss = GlossLine(tokens=tuple(tokens))
    for policy in OovPolicy:
        expected, missing = reference_substitute(gloss, SUBST_DICTIONARY, policy)
        assert substitute_lemmas(gloss, SUBST_DICTIONARY, policy) == expected
        assert oov_lemmas(gloss, SUBST_DICTIONARY) == missing


@pytest.mark.parametrize("policy", list(OovPolicy))
def test_substituter_looks_up_each_lemma_once_across_lines(policy):
    lines = ["kadin-PST ev zork .", "Kadin=ev-3SG zork-NOM", "ev same x_y !?"] * 20
    looked_up = ["Kadin", "ev", "kadin", "same", "x_y", "zork"]
    dictionary = CountingDictionary(entries=SUBST_DICTIONARY.entries)
    substitute = _substituted_lines(dictionary, policy)  # what igt subst maps each line by
    assert [substitute(line) for line in lines] == [
        reference_substitute(tokenize_gloss(line), SUBST_DICTIONARY, policy)[0].render()
        for line in lines
    ]
    assert sorted(dictionary.looked_up) == looked_up
    # substitute_lemmas looks up each distinct lemma once per call
    gloss = GlossLine(tokens=tuple(t for line in lines for t in tokenize_gloss(line).tokens))
    dictionary.looked_up.clear()
    assert substitute_lemmas(gloss, dictionary, policy) == reference_substitute(
        gloss, SUBST_DICTIONARY, policy
    )[0]
    assert sorted(dictionary.looked_up) == looked_up


def test_translate_names_the_line_of_translator_output_that_is_not_utf8():
    script = "import sys; sys.stdin.read(); sys.stdout.buffer.write(bytes([111, 107, 10, 255]))"
    handle = TranslatorHandle(
        TranslatorKind.EXTERNAL, command=f"{sys.executable} -c \"{script}\"", timeout=30
    )
    with pytest.raises(BadEncodingError) as caught:
        translate(["a", "b"], handle)
    assert isinstance(caught.value, ValueError)
    assert (caught.value.source, caught.value.line) == ("translator output", 2)


def test_translate_drops_a_bom_that_leads_the_translator_output():
    # b"\xef\xbb\xbfx\n\xef\xbb\xbfy\n": only the first line's mark is a BOM
    data = list("\ufeffx\n\ufeffy\n".encode("utf-8"))
    script = f"import sys; sys.stdin.read(); sys.stdout.buffer.write(bytes({data}))"
    handle = TranslatorHandle(
        TranslatorKind.EXTERNAL, command=f"{sys.executable} -c \"{script}\"", timeout=30
    )
    assert translate(["a", "b"], handle) == ["x", "\ufeffy"]
