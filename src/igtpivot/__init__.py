"""igtpivot: interlinear-gloss pivot toolkit.

Parses interlinear glossed text (ODIN-style blocks, ToolBox files,
morphological-analyzer output), normalizes morpheme labels onto a canonical
set, induces lemma dictionaries from parallel corpora by EM word alignment,
substitutes target lemmas to build a gloss pivot for translation, prepares
language-tagged multilingual corpora, and scores translations with BLEU plus
five low-resource metrics.
"""

from importlib import import_module as _import_module

# each exported name, by the submodule that defines it; a submodule is
# imported the first time one of its names is read (PEP 562), so a command
# or a library caller pays only for the submodules it uses
_EXPORTS = {
    name: module
    for module, names in {
        "align": (
            "NULL_TOKEN", "LemmaDictionary", "ParallelCorpus", "TranslationTable", "align_pair",
            "dump_dictionary", "dump_translation_table", "extract_dictionary", "load_dictionary",
            "load_translation_table", "train_model1",
        ),
        "errors": (
            "BadArgumentError", "BadEncodingError", "BadFieldRoleError", "BadLanguageTagError",
            "BadRatiosError", "BadThresholdError", "BadTranslatorError", "BlockShapeError",
            "CycleDetectedError", "EmptyCorpusError", "EmptyLineError", "IgtError",
            "LengthMismatchError", "MalformedRecordError", "MalformedTokenError", "ParseWarning",
            "PipelineStageError", "TableParseError", "TokenCountMismatchError",
            "TranslatorCountMismatchError", "TranslatorSpawnFailureError", "TranslatorTimeoutError",
        ),
        "inflect": ("InflectionLexicon", "default_lexicon", "load_lexicon"),
        "metrics": (
            "EvalAnnotation", "EvalReport", "bleu", "evaluate", "non_repetition", "noun_match",
            "parse_annotations", "subj_verb_agreement", "tense_match", "verb_match",
        ),
        "model": (
            "CorpusSplit", "GlossLine", "GlossMorph", "GlossToken", "IgtRecord", "Joiner",
            "LanguageTag", "MorphKind", "OovPolicy", "dump_corpus", "iter_corpus", "load_corpus",
            "parse_record", "serialize_record", "split_corpus",
        ),
        "normalize": (
            "NormalizationTable", "analyzer_to_gloss", "default_label_registry", "default_table",
            "loads_table", "normalize_gloss_line", "unknown_analyzer_tags",
        ),
        "parsing": (
            "DEFAULT_TOOLBOX_MAP", "AnalyzerToken", "RawIgtBlock", "block_to_record",
            "parse_analyzer_line", "parse_odin_blocks", "parse_toolbox", "tokenize_gloss",
        ),
        "pipeline": (
            "PipelineReport", "SentenceTrace", "TranslatorHandle", "TranslatorKind",
            "baseline_detokenize", "iter_pipeline", "oov_lemmas", "prepare_multilingual",
            "run_pipeline", "substitute_lemmas", "translate",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"
