"""Traced compositions: each workload's CLI handlers rebuilt from igtpivot's
public functions, in the order the handlers call them, with every call
timed from outside.

Import this module only after ``src`` is on ``sys.path``.  Spans are kept in
memory as ``(name, start, end, parent)`` tuples, indexed by id, and written
out when the run ends.  A composition returns the same file texts the CLI
writes, so the CLI's output checks apply to it unchanged.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

from igtpivot import align, metrics, model, normalize, parsing, pipeline

import checks
import gen


class Tracer:
    """Records one span per call, with the enclosing span as its parent."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        self.spans.append((name, start, end, parent))
        return result

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, perf_counter(), parent)

    def totals(self, first: int) -> dict[str, float]:
        """Total seconds per span name over the spans from id ``first`` on."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans[first:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [i, name, start - origin, end - origin, parent, own]
            for i, ((name, start, end, parent), own) in enumerate(zip(self.spans, self.self_times()))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "self"], "spans": rows}, handle)


class NullTracer:
    """Calls through without recording: the untraced run of a composition."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name: str):
        return nullcontext()


# --- compositions -------------------------------------------------------------


def _pivot(t, files: dict[str, str]):
    """``igt pivot --translator baseline --report``: ``run_pipeline``'s body."""
    cache_clear = getattr(normalize.default_table, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()  # a CLI process starts with an empty table cache
    table = t.call("normalize.default_table", normalize.default_table)
    dictionary = t.call("align.load_dictionary", align.load_dictionary, files["dict.tsv"])
    translator = pipeline.TranslatorHandle(pipeline.TranslatorKind.BASELINE_DETOKENIZE)
    report = pipeline.PipelineReport()
    glosses_tgt = []
    morphs = lookups = 0
    for line in files["analyzed.txt"].splitlines():
        if not line.strip():
            continue
        tokens = t.call("parsing.parse_analyzer_line", parsing.parse_analyzer_line, line)
        gloss_src = t.call("normalize.analyzer_to_gloss", normalize.analyzer_to_gloss, tokens, table)
        gloss_tgt = t.call(
            "pipeline.substitute_lemmas", pipeline.substitute_lemmas, gloss_src, dictionary
        )
        unknown = t.call(
            "normalize.unknown_analyzer_tags", normalize.unknown_analyzer_tags, tokens, table
        )
        oov = t.call("pipeline.oov_lemmas", pipeline.oov_lemmas, gloss_src, dictionary)
        report.n_sentences += 1
        report.analyzer_tokens += len(tokens)
        report.gloss_src_tokens += len(gloss_src.tokens)
        report.gloss_tgt_tokens += len(gloss_tgt.tokens)
        report.unknown_labels += len(unknown)
        report.oov_lemmas += len(oov)
        for gloss in (gloss_src, gloss_tgt):
            morphs += sum(len(token.morphs) for token in gloss.tokens)
        lookups += sum(
            1
            for token in gloss_src.tokens
            for morph in token.morphs
            if morph.kind is model.MorphKind.LEMMA
            and not all(ch in model.PUNCT_CHARS for ch in morph.text)
        )
        glosses_tgt.append(gloss_tgt)
        report.sentences.append(
            pipeline.SentenceTrace(
                analyzer=line,
                gloss_src=t.call("model.GlossLine.render", gloss_src.render),
                gloss_tgt=t.call("model.GlossLine.render", gloss_tgt.render),
            )
        )
    translator_input = [
        t.call("model.GlossLine.render_spaced", gloss.render_spaced, False) for gloss in glosses_tgt
    ]
    targets = t.call("pipeline.translate", pipeline.translate, translator_input, translator)
    report.sentences = [
        pipeline.SentenceTrace(s.analyzer, s.gloss_src, s.gloss_tgt, target)
        for s, target in zip(report.sentences, targets)
    ]
    outputs = {
        "out.txt": "".join(target + "\n" for target in targets),
        "report.txt": t.call("pipeline.format_report", pipeline.format_report, report),
    }
    counts = {
        "parsing.analyzer_tokens": report.analyzer_tokens,
        "model.morphs": morphs,
        "normalize.unknown_tags": report.unknown_labels,
        "pipeline.dict_lookups": lookups,
        "pipeline.dict_hit_ratio": (lookups - report.oov_lemmas) / lookups,
    }
    return outputs, counts, {"table": table, "dictionary": dictionary, "translator": translator}


def _pivot_probe(t, files, state, outputs) -> list[str]:
    """The whole ``run_pipeline`` call on the same input, which must give
    the composition's output."""
    targets, report = t.call(
        "pipeline.run_pipeline",
        pipeline.run_pipeline,
        files["analyzed.txt"],
        state["table"],
        state["dictionary"],
        state["translator"],
    )
    if "".join(target + "\n" for target in targets) != outputs["out.txt"]:
        return ["traced composition output differs from run_pipeline's"]
    if pipeline.format_report(report) != outputs["report.txt"]:
        return ["traced composition report differs from run_pipeline's"]
    return []


def _corpus(t, files: dict[str, str]):
    """``igt parse-odin``, ``prepare-multi``, ``align --iters 5
    --ttable-out``, ``dict --threshold`` on that table and ``eval --ann``,
    one after the other."""
    blocks, _ = t.call("parsing.parse_odin_blocks", parsing.parse_odin_blocks, files["blocks.txt"])
    records = [
        t.call("parsing.block_to_record", parsing.block_to_record, block, gen.LANG, record_id=f"odin-{i:04d}")
        for i, block in enumerate(blocks, start=1)
    ]
    corpus_text = t.call("model.dump_corpus", model.dump_corpus, records)
    loaded = t.call("model.load_corpus", model.load_corpus, corpus_text)
    pairs, _ = t.call("pipeline.prepare_multilingual", pipeline.prepare_multilingual, loaded)

    parallel = t.call(
        "align.ParallelCorpus.from_texts",
        align.ParallelCorpus.from_texts,
        files["src.txt"],
        files["tgt.txt"],
    )
    table = t.call("align.train_model1", align.train_model1, parallel, iterations=gen.ITERATIONS)
    ttable = t.call("align.dump_translation_table", align.dump_translation_table, table)
    dictionary = t.call("align.extract_dictionary", align.extract_dictionary, table, threshold=0.0)
    dict_text = t.call("align.dump_dictionary", align.dump_dictionary, dictionary)

    loaded_table = t.call("align.load_translation_table", align.load_translation_table, ttable)
    strict = t.call(
        "align.extract_dictionary", align.extract_dictionary, loaded_table, threshold=gen.DICT_THRESHOLD
    )
    strict_text = t.call("align.dump_dictionary", align.dump_dictionary, strict)

    hyps = [line.split() for line in files["hyp.txt"].splitlines()]
    refs = [line.split() for line in files["ref.txt"].splitlines()]
    rows = t.call("metrics.parse_annotations", metrics.parse_annotations, files["ann.tsv"])
    annotations = [ann for _, ann in rows]
    annotations.extend([None] * (len(hyps) - len(annotations)))
    report = t.call("metrics.evaluate", metrics.evaluate, hyps, refs, annotations)
    outputs = {
        "corpus.igt": corpus_text,
        "multi.src": "".join(src + "\n" for src, _ in pairs),
        "multi.tgt": "".join(tgt + "\n" for _, tgt in pairs),
        "ttable.out.tsv": ttable,
        "dict.out.tsv": dict_text,
        "dict.strict.tsv": strict_text,
        "eval.txt": metrics.format_report(report) + metrics.summary_line(report) + "\n",
    }
    counts = {
        "parsing.gloss_tokens": sum(
            len(gloss.tokens) for r in records for gloss in (r.gloss_src, r.gloss_tgt) if gloss
        ),
        "align.link_updates": sum(len(src) * len(tgt) for src, tgt in parallel.pairs),
        "align.ttable_rows": len(table.probs),
        "align.dict_entries": len(dictionary.entries),
    }
    return outputs, counts, {"parallel": parallel, "table": table}


def _corpus_probe(t, files, state, outputs) -> list[str]:
    """One-iteration training, so that one iteration's cost can be derived
    from two public calls; and the perplexity history check."""
    t.call("align.train_model1.iters1", align.train_model1, state["parallel"], iterations=1)
    return checks.perplexity_history(state["table"].perplexity_history)


COMPOSITIONS = {"pivot": _pivot, "corpus": _corpus}
PROBES = {"pivot": _pivot_probe, "corpus": _corpus_probe}

# The spans that run_pipeline's own body consists of.
RUN_PIPELINE_PARTS = (
    "parsing.parse_analyzer_line",
    "normalize.analyzer_to_gloss",
    "pipeline.substitute_lemmas",
    "normalize.unknown_analyzer_tags",
    "pipeline.oov_lemmas",
    "model.GlossLine.render",
    "model.GlossLine.render_spaced",
    "pipeline.translate",
)


def _derive(workload: str, sample: dict[str, float]) -> None:
    """Add the metrics computed from others of the same round; they need
    the probe, so only the first round has them."""
    if workload == "pivot" and "pipeline.run_pipeline.s" in sample:
        parts = sum(sample.get(f"{name}.s", 0.0) for name in RUN_PIPELINE_PARTS)
        sample["pipeline.unattributed.s"] = sample["pipeline.run_pipeline.s"] - parts
    elif workload == "corpus" and "align.train_model1.iters1.s" in sample:
        iteration = sample["align.train_model1.s"] - sample["align.train_model1.iters1.s"]
        iteration /= gen.ITERATIONS - 1
        sample["align.model1_iter.s"] = iteration
        sample["align.link_updates_per_s"] = sample["align.link_updates"] / iteration


def measure(workload: str, files: dict[str, str], seconds: float, tracer: Tracer, judge):
    """Alternate traced and untraced passes of the workload's composition
    until the next round would take the passes past ``seconds`` (at least
    one round).  The probe runs once, after the first traced pass, outside
    that budget.

    ``judge(outputs, problems)`` checks each traced pass.  Returns the
    per-layer values (medians over the rounds), the tracing overhead (the
    traced against the untraced median wall time, minus one) and the number
    of rounds.
    """
    compose, probe = COMPOSITIONS[workload], PROBES[workload]
    samples, traced, untraced = [], [], []
    while True:
        first = len(tracer.spans)
        with tracer.span(f"{workload}.pass") as root:
            outputs, counts, state = compose(tracer, files)
        traced.append(tracer.spans[root][2] - tracer.spans[root][1])
        problems = []
        if len(traced) == 1:
            with tracer.span(f"{workload}.probe"):
                problems = probe(tracer, files, state, outputs)
        sample = {f"{name}.s": total for name, total in tracer.totals(first).items()}
        sample.update(counts)
        _derive(workload, sample)
        samples.append(sample)
        judge(outputs, problems)
        del outputs, state
        began = perf_counter()
        compose(NullTracer(), files)
        untraced.append(perf_counter() - began)
        spent = sum(traced) + sum(untraced)
        if spent + spent / len(traced) > seconds:
            break
    names = {name for sample in samples for name in sample}
    values = {name: statistics.median(s[name] for s in samples if name in s) for name in names}
    return values, statistics.median(traced) / statistics.median(untraced) - 1.0, len(traced)
