"""Translation scoring: corpus BLEU plus five metrics designed for extremely
low-resource output, where BLEU alone stops being informative.

The five metrics check string-matched nouns and verbs, subject-verb
agreement, tense, and spurious repetition.  Each sentence is scored against
an explicit gold annotation (expected lemmas, subject features, expected
tense) plus a small English inflection lexicon; sentences lacking the
annotation a metric needs are excluded from that metric's average, and the
eligible counts are reported as coverage.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import LengthMismatchError
from .inflect import InflectionLexicon, default_lexicon
from .model import is_punct, split_lines

_TENSES = ("PST", "PRS", "FUT")

TokenList = "list[str] | tuple[str, ...]"


@dataclass(frozen=True)
class EvalAnnotation:
    """Gold targets for one test sentence; empty/absent fields simply make
    the sentence ineligible for the metrics that need them."""

    expected_nouns: frozenset[str] = frozenset()
    expected_verbs: frozenset[str] = frozenset()
    subject_features: "tuple[int, str] | None" = None  # (person, SG|PL)
    expected_tense: "str | None" = None

    def __post_init__(self) -> None:
        if self.subject_features is not None:
            person, number = self.subject_features
            if person not in (1, 2, 3) or number not in ("SG", "PL"):
                raise ValueError(f"bad subject features {self.subject_features!r}")
        if self.expected_tense is not None and self.expected_tense not in _TENSES:
            raise ValueError(f"bad tense {self.expected_tense!r}")


@dataclass(frozen=True)
class EvalReport:
    """Per-metric percentages over a test set; a metric with no eligible
    sentence is None and its coverage count is zero."""

    noun_match: "float | None"
    verb_match: "float | None"
    subj_verb_agreement: "float | None"
    tense_match: "float | None"
    non_repetition: float
    bleu4: float
    bleu1: float
    n_sentences: int
    noun_eligible: int = 0
    verb_eligible: int = 0
    agreement_eligible: int = 0
    tense_eligible: int = 0


def _content_tokens(tokens: TokenList) -> list[str]:
    return [t.lower() for t in tokens if not is_punct(t)]


# --- BLEU ---------------------------------------------------------------------


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    hypotheses: "list[TokenList]",
    references: "list[TokenList]",
    max_n: int = 4,
    smooth: bool = False,
) -> float:
    """Corpus-level BLEU in [0, 100]: geometric mean of clipped n-gram
    precisions times the brevity penalty, single reference per sentence.

    No smoothing by default, so a zero precision zeroes the score; with
    ``smooth`` the higher-order precisions get add-one smoothing for use on
    tiny test sets.  Orders for which the hypothesis corpus has no n-grams
    at all are vacuous and excluded from the mean, so identical corpora
    score exactly 100 whatever their sentence lengths.
    """
    if len(hypotheses) != len(references):
        raise LengthMismatchError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not 1 <= max_n <= 4:
        raise ValueError(f"max_n must be in 1..4, got {max_n}")
    matched = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = [str(t) for t in hyp]
        ref = [str(t) for t in ref]
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            matched[n] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
            total[n] += max(len(hyp) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(1, max_n + 1):
        m, t = matched[n], total[n]
        if t == 0:
            continue  # vacuous order: no hypothesis n-grams anywhere
        if smooth and n > 1:
            m, t = m + 1, t + 1
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
        orders += 1
    if orders == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / orders)


# --- the five low-resource metrics ---------------------------------------------


def non_repetition(hypotheses: "list[TokenList]") -> float:
    """Mean percentage of unique words per sentence (case-folded, punctuation
    excluded).  An empty sentence counts 100: no repetition is present."""
    if not hypotheses:
        return 100.0
    scores = []
    for hyp in hypotheses:
        content = _content_tokens(hyp)
        if not content:
            scores.append(100.0)
        else:
            scores.append(100.0 * len(set(content)) / len(content))
    return sum(scores) / len(scores)


def noun_match(
    hypothesis: TokenList, annotation: EvalAnnotation, lexicon: InflectionLexicon
) -> float:
    """Fraction of expected nouns present as lemma or regular plural."""
    present = set(_content_tokens(hypothesis))
    nouns = annotation.expected_nouns
    hits = sum(1 for noun in nouns if lexicon.noun_forms(noun) & present)
    return hits / len(nouns)


def verb_match(
    hypothesis: TokenList, annotation: EvalAnnotation, lexicon: InflectionLexicon
) -> float:
    """Fraction of expected verbs present in any lexicon-generated form."""
    present = set(_content_tokens(hypothesis))
    verbs = annotation.expected_verbs
    hits = sum(1 for verb in verbs if lexicon.verb_forms(verb) & present)
    return hits / len(verbs)


def subj_verb_agreement(
    hypothesis: TokenList, annotation: EvalAnnotation, lexicon: InflectionLexicon
) -> int:
    """1 iff some expected verb appears in a form consistent with the subject.

    Past forms agree with any subject (English past does not mark person);
    present tense requires the 3sg form for a 3.SG subject and the bare form
    otherwise, so bare ``talk`` under a 3.SG subject scores 0.
    """
    person, number = annotation.subject_features  # type: ignore[misc]
    present = set(_content_tokens(hypothesis))
    for verb in annotation.expected_verbs:
        acceptable = lexicon.past_forms(verb) | lexicon.present_forms(verb, person, number)
        if acceptable & present:
            return 1
    return 0


def tense_match(
    hypothesis: TokenList,
    annotation: EvalAnnotation,
    lexicon: InflectionLexicon,
    use_auxiliaries: bool = True,
) -> int:
    """1 iff some expected verb appears in a form of the expected tense.

    Auxiliary patterns (on by default): ``will`` + bare lemma counts as
    future; ``is/are/am`` or ``was/were`` + V-ing count as present or past
    progressive respectively.
    """
    tense = annotation.expected_tense
    tokens = _content_tokens(hypothesis)
    present = set(tokens)
    bigrams = set(zip(tokens, tokens[1:]))
    for verb in annotation.expected_verbs:
        verb = verb.lower()
        if tense == "PST":
            if lexicon.past_forms(verb) & present:
                return 1
            if use_auxiliaries:
                gerund = lexicon.gerund(verb)
                if any((aux, gerund) in bigrams for aux in ("was", "were")):
                    return 1
        elif tense == "PRS":
            forms = {verb, lexicon.third_sg(verb)}
            if verb == "be":
                forms |= {"is", "are", "am"}
            if forms & present:
                return 1
            if use_auxiliaries:
                gerund = lexicon.gerund(verb)
                if any((aux, gerund) in bigrams for aux in ("is", "are", "am")):
                    return 1
        elif tense == "FUT":
            if ("will", verb) in bigrams:
                return 1
    return 0


# --- aggregation ----------------------------------------------------------------


def evaluate(
    hypotheses: "list[TokenList]",
    references: "list[TokenList]",
    annotations: "list[EvalAnnotation | None] | None" = None,
    lexicon: "InflectionLexicon | None" = None,
    smooth: bool = False,
    use_auxiliaries: bool = True,
) -> EvalReport:
    """Score a test set with all seven numbers (five metrics plus 4-gram and
    1-gram BLEU).  Accuracy metrics are macro-averaged over the sentences
    eligible for them and scaled to percentages."""
    if len(hypotheses) != len(references):
        raise LengthMismatchError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if annotations is None:
        annotations = [None] * len(hypotheses)
    if len(annotations) != len(hypotheses):
        raise LengthMismatchError(
            f"{len(annotations)} annotations vs {len(hypotheses)} hypotheses"
        )
    lexicon = lexicon or default_lexicon()

    noun_scores: list[float] = []
    verb_scores: list[float] = []
    agreement_scores: list[int] = []
    tense_scores: list[int] = []
    for hyp, ann in zip(hypotheses, annotations):
        if ann is None:
            continue
        if ann.expected_nouns:
            noun_scores.append(noun_match(hyp, ann, lexicon))
        if ann.expected_verbs:
            verb_scores.append(verb_match(hyp, ann, lexicon))
        if ann.subject_features is not None and ann.expected_verbs:
            agreement_scores.append(subj_verb_agreement(hyp, ann, lexicon))
        if ann.expected_tense is not None and ann.expected_verbs:
            tense_scores.append(tense_match(hyp, ann, lexicon, use_auxiliaries))

    def _avg(scores: "list[float] | list[int]") -> "float | None":
        return 100.0 * sum(scores) / len(scores) if scores else None

    return EvalReport(
        noun_match=_avg(noun_scores),
        verb_match=_avg(verb_scores),
        subj_verb_agreement=_avg(agreement_scores),
        tense_match=_avg(tense_scores),
        non_repetition=non_repetition(hypotheses),
        bleu4=bleu(hypotheses, references, max_n=4, smooth=smooth),
        bleu1=bleu(hypotheses, references, max_n=1, smooth=smooth),
        n_sentences=len(hypotheses),
        noun_eligible=len(noun_scores),
        verb_eligible=len(verb_scores),
        agreement_eligible=len(agreement_scores),
        tense_eligible=len(tense_scores),
    )


_ROWS = (
    ("Noun-match accuracy", "noun_match", "noun_eligible"),
    ("Verb-match accuracy", "verb_match", "verb_eligible"),
    ("Subject-verb agreement accuracy", "subj_verb_agreement", "agreement_eligible"),
    ("Tense-match accuracy", "tense_match", "tense_eligible"),
    ("Non-repetition metric", "non_repetition", None),
    ("4-gram BLEU", "bleu4", None),
    ("1-gram BLEU", "bleu1", None),
)


def _fmt(value: "float | None") -> str:
    return "n/a" if value is None else f"{value:.2f}"


def format_report(report: EvalReport) -> str:
    lines = [f"Sentences: {report.n_sentences}"]
    for title, attr, coverage_attr in _ROWS:
        value = _fmt(getattr(report, attr))
        if coverage_attr is not None:
            value += f" (eligible: {getattr(report, coverage_attr)})"
        lines.append(f"{title}: {value}")
    return "\n".join(lines) + "\n"


def summary_line(report: EvalReport) -> str:
    """Single machine-readable line with all seven numbers."""
    parts = [
        f"noun_match={_fmt(report.noun_match)}",
        f"verb_match={_fmt(report.verb_match)}",
        f"subj_verb_agreement={_fmt(report.subj_verb_agreement)}",
        f"tense_match={_fmt(report.tense_match)}",
        f"non_repetition={_fmt(report.non_repetition)}",
        f"bleu4={_fmt(report.bleu4)}",
        f"bleu1={_fmt(report.bleu1)}",
        f"n_sentences={report.n_sentences}",
    ]
    return " ".join(parts)


def parse_annotations(text: str) -> list[tuple[str, EvalAnnotation]]:
    """Parse annotation TSV rows:
    ``id<TAB>nouns=a,b<TAB>verbs=c<TAB>subj=3.SG<TAB>tense=PST``
    (all fields after the id are optional).  Row order aligns with the test
    set's line order."""
    rows: list[tuple[str, EvalAnnotation]] = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        row_id = fields[0].strip()
        nouns: frozenset[str] = frozenset()
        verbs: frozenset[str] = frozenset()
        subject = None
        tense = None
        for chunk in fields[1:]:
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, value = chunk.partition("=")
            if not sep:
                raise ValueError(f"annotation line {lineno}: field without '=': {chunk!r}")
            key = key.strip().lower()
            value = value.strip()
            if key == "nouns":
                nouns = frozenset(v.strip().lower() for v in value.split(",") if v.strip())
            elif key == "verbs":
                verbs = frozenset(v.strip().lower() for v in value.split(",") if v.strip())
            elif key == "subj":
                person_str, _, number = value.partition(".")
                try:
                    subject = (int(person_str), number.strip().upper())
                except ValueError as exc:
                    raise ValueError(
                        f"annotation line {lineno}: bad subj {value!r}"
                    ) from exc
            elif key == "tense":
                tense = value.upper()
            else:
                raise ValueError(f"annotation line {lineno}: unknown field {key!r}")
        try:
            rows.append(
                (
                    row_id,
                    EvalAnnotation(
                        expected_nouns=nouns,
                        expected_verbs=verbs,
                        subject_features=subject,
                        expected_tense=tense,
                    ),
                )
            )
        except ValueError as exc:
            raise ValueError(f"annotation line {lineno}: {exc}") from exc
    return rows
