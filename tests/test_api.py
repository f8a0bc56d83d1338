"""The public contract: the names ``igtpivot`` exports, the fields of each
exported dataclass, and the parameters of each exported function and public
method.  A change to any of them is an API change and must show up here as
an edited line."""

import dataclasses
import inspect
import types

import igtpivot

EXPORTS = [
    "AnalyzerToken",
    "BadArgumentError",
    "BadEncodingError",
    "BadFieldRoleError",
    "BadLanguageTagError",
    "BadRatiosError",
    "BadThresholdError",
    "BadTranslatorError",
    "BlockShapeError",
    "CorpusSplit",
    "CycleDetectedError",
    "DEFAULT_TOOLBOX_MAP",
    "EmptyCorpusError",
    "EmptyLineError",
    "EvalAnnotation",
    "EvalReport",
    "GlossLine",
    "GlossMorph",
    "GlossToken",
    "IgtError",
    "IgtRecord",
    "InflectionLexicon",
    "Joiner",
    "LanguageTag",
    "LemmaDictionary",
    "LengthMismatchError",
    "MalformedRecordError",
    "MalformedTokenError",
    "MorphKind",
    "NULL_TOKEN",
    "NormalizationTable",
    "OovPolicy",
    "ParallelCorpus",
    "ParseWarning",
    "PipelineReport",
    "PipelineStageError",
    "RawIgtBlock",
    "SentenceTrace",
    "TableParseError",
    "TokenCountMismatchError",
    "TranslationTable",
    "TranslatorCountMismatchError",
    "TranslatorHandle",
    "TranslatorKind",
    "TranslatorSpawnFailureError",
    "TranslatorTimeoutError",
    "align_pair",
    "analyzer_to_gloss",
    "baseline_detokenize",
    "bleu",
    "block_to_record",
    "default_label_registry",
    "default_lexicon",
    "default_table",
    "dump_corpus",
    "dump_dictionary",
    "dump_translation_table",
    "evaluate",
    "extract_dictionary",
    "iter_corpus",
    "iter_pipeline",
    "load_corpus",
    "load_dictionary",
    "load_lexicon",
    "load_translation_table",
    "loads_table",
    "non_repetition",
    "normalize_gloss_line",
    "noun_match",
    "oov_lemmas",
    "parse_analyzer_line",
    "parse_annotations",
    "parse_odin_blocks",
    "parse_record",
    "parse_toolbox",
    "prepare_multilingual",
    "run_pipeline",
    "serialize_record",
    "split_corpus",
    "subj_verb_agreement",
    "substitute_lemmas",
    "tense_match",
    "tokenize_gloss",
    "train_model1",
    "translate",
    "unknown_analyzer_tags",
    "verb_match",
]

DATACLASS_FIELDS = {
    "AnalyzerToken": ("surface", "tags"),
    "CorpusSplit": ("train", "validation", "test"),
    "EvalAnnotation": ("expected_nouns", "expected_verbs", "subject_features", "expected_tense"),
    "EvalReport": (
        "noun_match", "verb_match", "subj_verb_agreement", "tense_match", "non_repetition",
        "bleu4", "bleu1", "n_sentences", "noun_eligible", "verb_eligible",
        "agreement_eligible", "tense_eligible",
    ),
    "GlossLine": ("tokens",),
    "GlossMorph": ("kind", "text", "joiner"),
    "GlossToken": ("morphs",),
    "IgtRecord": (
        "id", "lang", "source_text", "gloss_src", "gloss_tgt", "target_text", "provenance",
    ),
    "InflectionLexicon": ("irregular_past", "irregular_3sg", "irregular_participle"),
    "LanguageTag": ("code",),
    "LemmaDictionary": ("entries",),
    "NormalizationTable": (
        "variant_map", "composite_rules", "registry", "analyzer_map", "verbal_tags",
        "restore_map", "person_first",
    ),
    "ParallelCorpus": ("pairs",),
    "ParseWarning": ("code", "message", "line"),
    "PipelineReport": (
        "n_sentences", "analyzer_tokens", "gloss_src_tokens", "gloss_tgt_tokens",
        "oov_lemmas", "unknown_labels", "sentences",
    ),
    "RawIgtBlock": ("lines", "start_line"),
    "SentenceTrace": ("analyzer", "gloss_src", "gloss_tgt", "target"),
    "TranslationTable": (
        "probs", "iterations_run", "final_perplexity", "null_word", "perplexity_history",
    ),
    "TranslatorHandle": ("kind", "command", "timeout"),
}


# each parameter as its name, or as (name, default) when it has a default
SIGNATURES = {
    "AnalyzerToken.render": ("self",),
    "GlossLine.render": ("self",),
    "GlossLine.render_spaced": ("self", ("split_morphs", False)),
    "GlossToken.render": ("self",),
    "InflectionLexicon.gerund": ("self", "lemma"),
    "InflectionLexicon.noun_forms": ("self", "lemma"),
    "InflectionLexicon.past_forms": ("self", "lemma"),
    "InflectionLexicon.present_forms": ("self", "lemma", "person", "number"),
    "InflectionLexicon.third_sg": ("self", "lemma"),
    "InflectionLexicon.verb_forms": ("self", "lemma"),
    "LemmaDictionary.lookup": ("self", "lemma"),
    "NormalizationTable.label_registry": ("self",),
    "NormalizationTable.lookup_label": ("self", "raw"),
    "ParallelCorpus.from_texts": ("source_text", "target_text"),
    "TranslationTable.prob": ("self", "source", "target"),
    "align_pair": ("source_tokens", "target_tokens", "table"),
    "analyzer_to_gloss": ("tokens", "table"),
    "baseline_detokenize": ("line",),
    "bleu": ("hypotheses", "references", ("max_n", 4), ("smooth", False)),
    "block_to_record": ("block", "lang", ("record_id", ""), ("label_registry", None)),
    "default_label_registry": (),
    "default_lexicon": (),
    "default_table": (("person_first", True),),
    "dump_corpus": ("records",),
    "dump_dictionary": ("dictionary",),
    "dump_translation_table": ("table",),
    "evaluate": (
        "hypotheses", "references", ("annotations", None), ("lexicon", None), ("smooth", False),
    ),
    "extract_dictionary": ("table", ("threshold", 0.0)),
    "iter_corpus": ("lines",),
    "iter_pipeline": (
        "lines", "table", "dictionary", "translator", ("oov_policy", igtpivot.OovPolicy.KEEP),
        ("split_morphs", False), ("report", None),
    ),
    "load_corpus": ("text",),
    "load_dictionary": ("text", ("threshold", 0.0)),
    "load_lexicon": ("text",),
    "load_translation_table": ("text",),
    "loads_table": ("text", ("person_first", True)),
    "non_repetition": ("hypotheses",),
    "normalize_gloss_line": ("line", "table"),
    "noun_match": ("hypothesis", "annotation", "lexicon"),
    "oov_lemmas": ("gloss", "dictionary"),
    "parse_analyzer_line": ("line",),
    "parse_annotations": ("text",),
    "parse_odin_blocks": ("text",),
    "parse_record": ("line",),
    "parse_toolbox": (
        "text", ("field_map", None), ("lang", "und"), ("id_prefix", "toolbox"),
        ("label_registry", None),
    ),
    "prepare_multilingual": ("records", ("split_morphs", False)),
    "run_pipeline": (
        "analyzer_text", "table", "dictionary", "translator",
        ("oov_policy", igtpivot.OovPolicy.KEEP), ("split_morphs", False),
    ),
    "serialize_record": ("record",),
    "split_corpus": ("records", ("ratios", (0.8, 0.1, 0.1)), ("seed", 0)),
    "subj_verb_agreement": ("hypothesis", "annotation", "lexicon"),
    "substitute_lemmas": ("gloss", "dictionary", ("oov_policy", igtpivot.OovPolicy.KEEP)),
    "tense_match": ("hypothesis", "annotation", "lexicon"),
    "tokenize_gloss": ("line", ("label_registry", None)),
    "train_model1": ("corpus", ("iterations", 5), ("null_word", False)),
    "translate": ("lines", "translator"),
    "unknown_analyzer_tags": ("tokens", "table"),
    "verb_match": ("hypothesis", "annotation", "lexicon"),
}

def test_exported_names():
    # an export is read from its submodule on first access, so it need not be
    # in vars(igtpivot) yet; submodules become package attributes as they are
    # imported, so they are not part of the contract
    assert sorted(igtpivot.__all__) == EXPORTS
    listed = sorted(
        name
        for name in dir(igtpivot)
        if not name.startswith("_") and not isinstance(getattr(igtpivot, name), types.ModuleType)
    )
    assert listed == EXPORTS
    star: dict = {}
    exec("from igtpivot import *", star)
    assert sorted(name for name in star if name != "__builtins__") == EXPORTS
    for name in EXPORTS:
        assert star[name] is getattr(igtpivot, name) is getattr(igtpivot, name)


def test_exported_dataclass_fields():
    found = {
        name: tuple(f.name for f in dataclasses.fields(value))
        for name in EXPORTS
        if isinstance(value := getattr(igtpivot, name), type) and dataclasses.is_dataclass(value)
    }
    assert found == DATACLASS_FIELDS


def _parameters(function):
    return tuple(
        p.name if p.default is p.empty else (p.name, p.default)
        for p in inspect.signature(function).parameters.values()
    )


def test_exported_signatures():
    found = {}
    for name in EXPORTS:
        value = getattr(igtpivot, name)
        if not isinstance(value, type):
            if callable(value):
                found[name] = _parameters(value)
            continue
        for attr, member in vars(value).items():
            if not attr.startswith("_") and isinstance(
                member, (types.FunctionType, classmethod, staticmethod)
            ):
                found[f"{name}.{attr}"] = _parameters(getattr(value, attr))
    assert found == SIGNATURES
