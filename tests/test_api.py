"""The public contract: the names ``igtpivot`` exports and the fields of each
exported dataclass.  A change to either is an API change and must show up
here as an edited line."""

import dataclasses
import types

import igtpivot

EXPORTS = [
    "AnalyzerToken",
    "BadLanguageTagError",
    "BadRatiosError",
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
    "normalize_label",
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
    "unknown_labels",
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
    "RawIgtBlock": ("lines", "source_language_hint", "start_line"),
    "SentenceTrace": ("analyzer", "gloss_src", "gloss_tgt", "target"),
    "TranslationTable": (
        "probs", "iterations_run", "final_perplexity", "null_word", "perplexity_history",
    ),
    "TranslatorHandle": ("kind", "command", "timeout"),
}


def test_exported_names():
    # submodules become package attributes as they are imported, so they are
    # not part of the contract
    exported = sorted(
        name
        for name, value in vars(igtpivot).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == EXPORTS


def test_exported_dataclass_fields():
    found = {
        name: tuple(f.name for f in dataclasses.fields(value))
        for name in EXPORTS
        if isinstance(value := getattr(igtpivot, name), type) and dataclasses.is_dataclass(value)
    }
    assert found == DATACLASS_FIELDS
