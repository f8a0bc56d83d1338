"""Output checks for the benchmark workloads.

Each check takes file contents as text and returns a list of problems; an
empty list means the output is correct.  The checks do not import igtpivot:
they compare against what the generator wrote down or recompute the
documented file formats and formulas independently.
"""

from __future__ import annotations

import math
from collections import defaultdict

NULL_TOKEN = "<NULL>"


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for lineno, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {lineno}: got {a[:80]!r}, want {b[:80]!r}"
    return f"{len(got_lines)} line(s), want {len(want_lines)}"


def _equal(name: str, got: str, want: str) -> list[str]:
    return [] if got == want else [f"{name} differs: {_first_difference(got, want)}"]


def pivot(expect: dict, output: str, report: str) -> list[str]:
    """The translation equals the generator's reference, and the report
    header counts equal the generator's counts."""
    problems = _equal("pivot output", output, expect["output"])
    header = dict(
        line.split("=", 1) for line in report.split("\n--- ", 1)[0].splitlines() if "=" in line
    )
    for key in ("n_sentences", "oov_lemmas", "unknown_labels"):
        if header.get(key) != str(expect[key]):
            problems.append(f"report {key}={header.get(key)}, want {expect[key]}")
    return problems


def parse_ttable(text: str) -> tuple[dict[str, str], list[tuple[str, str, float]]]:
    """Header ``# key=value`` pairs and ``(source, target, prob)`` rows."""
    header: dict[str, str] = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("#").strip().partition("=")
            header[key.strip()] = value.strip()
        elif line.strip():
            f, e, p = line.split("\t")
            rows.append((f, e, float(p)))
    return header, rows


def dictionary_text(rows: list[tuple[str, str, float]], threshold: float) -> str:
    """The dictionary file the documented extraction gives: for each source
    word the target with the highest probability, ties to the smaller
    target, kept at or above ``threshold``, sorted by source word."""
    best: dict[str, tuple[str, float]] = {}
    for f, e, p in rows:
        if e == NULL_TOKEN:
            continue
        current = best.get(f)
        if current is None or p > current[1] or (p == current[1] and e < current[0]):
            best[f] = (e, p)
    return "".join(
        f"{f}\t{e}\t{p!r}\n" for f, (e, p) in sorted(best.items()) if p >= threshold
    )


def _perplexity(pairs: list[tuple[list[str], list[str]]], probs: dict) -> float:
    """Model 1 perplexity: exp of the mean over source tokens of
    -log((1/m) * sum over the m target tokens of t(f|e))."""
    log_total = 0.0
    n_tokens = 0
    for src, tgt in pairs:
        for f in src:
            log_total += math.log(sum(probs.get((f, e), 0.0) for e in tgt) / len(tgt))
            n_tokens += 1
    return math.exp(-log_total / n_tokens)


def align(src: str, tgt: str, ttable: str, dictionary: str, iterations: int) -> list[str]:
    """Each target's probabilities sum to 1, perplexity does not rise from
    the uniform start, the reported perplexity is that of the dumped table,
    and the dictionary is the extraction from the table over source words."""
    header, rows = parse_ttable(ttable)
    pairs = [
        (s.lower().split(), t.lower().split())
        for s, t in zip(src.splitlines(), tgt.splitlines())
        if s.split() and t.split()
    ]
    src_vocab = {f for s, _ in pairs for f in s}
    tgt_vocab = {e for _, t in pairs for e in t}
    problems = []
    if header.get("iterations") != str(iterations):
        problems.append(f"ttable iterations={header.get('iterations')}, want {iterations}")
    sums: dict[str, float] = defaultdict(float)
    for f, e, p in rows:
        sums[e] += p
    bad_sums = [e for e, total in sums.items() if abs(total - 1.0) > 1e-9]
    if bad_sums:
        problems.append(f"{len(bad_sums)} target(s) whose probabilities do not sum to 1")
    strangers = {f for f, _, _ in rows} - src_vocab
    strangers |= {e for _, e, _ in rows} - tgt_vocab
    if strangers:
        problems.append(f"ttable words outside the corpus: {sorted(strangers)[:5]}")
    if problems:
        return problems
    cooc: dict[str, set[str]] = defaultdict(set)
    for s, t in pairs:
        for e in t:
            cooc[e].update(s)
    uniform = {(f, e): 1.0 / len(fs) for e, fs in cooc.items() for f in fs}
    initial = _perplexity(pairs, uniform)
    final = _perplexity(pairs, {(f, e): p for f, e, p in rows})
    reported = float(header.get("final_perplexity", "nan"))
    if not math.isclose(final, reported, rel_tol=1e-9):
        problems.append(f"reported perplexity {reported!r}, dumped table gives {final!r}")
    if final > initial * (1 + 1e-12):
        problems.append(f"perplexity rose from {initial!r} to {final!r}")
    # The table's words were checked against the corpus above, so equality
    # also keeps every dictionary key inside the source vocabulary.
    problems += _equal("dictionary", dictionary, dictionary_text(rows, 0.0))
    return problems


def perplexity_history(history: "tuple[float, ...]") -> list[str]:
    """Perplexity never rises from one EM iteration to the next."""
    rises = [i for i in range(1, len(history)) if history[i] > history[i - 1] * (1 + 1e-12)]
    return [f"perplexity rose at iteration(s) {rises}"] if rises else []


def corpus_records(expect: dict, corpus: str) -> list[str]:
    n = sum(1 for line in corpus.splitlines() if line.strip())
    return [] if n == expect["n_records"] else [f"{n} record(s), want {expect['n_records']}"]


def corpus_multi(expect: dict, src: str, tgt: str) -> list[str]:
    return _equal("multilingual source", src, expect["src"]) + _equal(
        "multilingual target", tgt, expect["tgt"]
    )


def corpus_dict(ttable: str, threshold: float, dictionary: str) -> list[str]:
    return _equal("dictionary", dictionary, dictionary_text(parse_ttable(ttable)[1], threshold))


def corpus_eval(expect: dict, report: str) -> list[str]:
    n = expect["n_records"]
    lines = report.splitlines()
    if lines[:1] == [f"Sentences: {n}"] and lines[-1:] and f"n_sentences={n}" in lines[-1].split():
        return []
    return [f"eval report does not give n_sentences={n}"]
