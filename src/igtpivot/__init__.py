"""igtpivot: interlinear-gloss pivot toolkit.

Parses interlinear glossed text (ODIN-style blocks, ToolBox files,
morphological-analyzer output), normalizes morpheme labels onto a canonical
set, induces lemma dictionaries from parallel corpora by EM word alignment,
substitutes target lemmas to build a gloss pivot for translation, prepares
language-tagged multilingual corpora, and scores translations with BLEU plus
five low-resource metrics.
"""

from .align import (
    NULL_TOKEN,
    LemmaDictionary,
    ParallelCorpus,
    TranslationTable,
    align_pair,
    dump_dictionary,
    dump_translation_table,
    extract_dictionary,
    load_dictionary,
    load_translation_table,
    train_model1,
)
from .errors import (
    BadEncodingError,
    BadFieldRoleError,
    BadLanguageTagError,
    BadRatiosError,
    BadTranslatorError,
    BlockShapeError,
    CycleDetectedError,
    EmptyCorpusError,
    EmptyLineError,
    IgtError,
    LengthMismatchError,
    MalformedRecordError,
    MalformedTokenError,
    ParseWarning,
    PipelineStageError,
    TableParseError,
    TokenCountMismatchError,
    TranslatorCountMismatchError,
    TranslatorSpawnFailureError,
    TranslatorTimeoutError,
)
from .inflect import InflectionLexicon, default_lexicon, load_lexicon
from .metrics import (
    EvalAnnotation,
    EvalReport,
    bleu,
    evaluate,
    non_repetition,
    noun_match,
    parse_annotations,
    subj_verb_agreement,
    tense_match,
    verb_match,
)
from .model import (
    CorpusSplit,
    GlossLine,
    GlossMorph,
    GlossToken,
    IgtRecord,
    Joiner,
    LanguageTag,
    MorphKind,
    dump_corpus,
    iter_corpus,
    load_corpus,
    parse_record,
    serialize_record,
    split_corpus,
)
from .normalize import (
    NormalizationTable,
    analyzer_to_gloss,
    default_label_registry,
    default_table,
    loads_table,
    normalize_gloss_line,
    unknown_analyzer_tags,
)
from .parsing import (
    DEFAULT_TOOLBOX_MAP,
    AnalyzerToken,
    RawIgtBlock,
    block_to_record,
    parse_analyzer_line,
    parse_odin_blocks,
    parse_toolbox,
    tokenize_gloss,
)
from .pipeline import (
    OovPolicy,
    PipelineReport,
    SentenceTrace,
    TranslatorHandle,
    TranslatorKind,
    baseline_detokenize,
    iter_pipeline,
    oov_lemmas,
    prepare_multilingual,
    run_pipeline,
    substitute_lemmas,
    translate,
)

__version__ = "0.1.0"
