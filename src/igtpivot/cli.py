"""Command-line front end: one composable subcommand per pipeline stage.

Data flows through files (or stdin/stdout where a single stream suffices);
all diagnostics go to stderr.  Exit codes: 0 success, 1 operational error
(single machine-parsable line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from typing import IO, Callable, Iterator

from . import align as align_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import normalize as normalize_mod
from . import parsing as parsing_mod
from . import pipeline as pipeline_mod
from .errors import IgtError, ParseWarning
from .model import LemmaSide, split_lines
from .tables import DEFAULT_TABLE_TEXT


class _CliError(IgtError):
    code = "CLI_ERROR"


class _FileNotFound(IgtError):
    code = "FILE_NOT_FOUND"


def _read(path: "str | None") -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    if not os.path.exists(path):
        raise _FileNotFound(f"input file does not exist: {path}")
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    if text.startswith("﻿"):
        text = text[1:]
    return text


def _iter_lines(path: "str | None") -> Iterator[str]:
    r"""The lines of ``split_lines(_read(path))``, read one at a time: a
    file opened with ``newline="\n"`` splits at ``\n`` only, and the
    ``utf-8-sig`` codec drops a leading BOM."""
    if path is None or path == "-":
        source = nullcontext(sys.stdin)
    elif not os.path.exists(path):
        raise _FileNotFound(f"input file does not exist: {path}")
    else:
        source = open(path, encoding="utf-8-sig", newline="\n")
    with source as handle:
        for line in handle:
            if line.endswith("\n"):
                line = line[:-1]
            yield line[:-1] if line.endswith("\r") else line


@contextmanager
def _destination(path: "str | None") -> Iterator[IO[str]]:
    """stdout for ``None`` or ``-``, else ``path`` opened for writing, its
    directory made first."""
    if path is None or path == "-":
        yield sys.stdout
        return
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        yield handle


def _write(path: "str | None", text: str) -> None:
    with _destination(path) as handle:
        handle.write(text)


@contextmanager
def _spooled(path: "str | None", head: "Callable[[], str] | None" = None) -> Iterator[IO[str]]:
    """Collect output in an anonymous temporary file.  Only when the block
    succeeds is ``path`` opened, by :func:`_destination` as for
    :func:`_write`, and given ``head()`` and then the spool, copied in
    chunks no larger than io's own buffers; on failure ``path`` is never
    touched and nothing reaches stdout."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool:
        yield spool
        spool.seek(0)
        with _destination(path) as handle:
            if head is not None:
                handle.write(head())
            shutil.copyfileobj(spool, handle, io.DEFAULT_BUFFER_SIZE)


def _map_lines(args: argparse.Namespace, convert) -> int:
    """Write ``convert`` of each non-blank input line; blank lines stay blank."""
    with _spooled(args.outfile) as out:
        for line in _iter_lines(args.infile):
            out.write((convert(line) if line.strip() else "") + "\n")
    return 0


def _warn(warning: ParseWarning) -> None:
    print(f"igt: warning: {warning}", file=sys.stderr)


def _emit_warnings(warnings: "list[ParseWarning]") -> None:
    for warning in warnings:
        _warn(warning)


def _load_norm_table(spec: str, person_first: bool) -> normalize_mod.NormalizationTable:
    if spec == "default":
        return normalize_mod.default_table(person_first=person_first)
    return normalize_mod.load_table(spec, person_first=person_first)


def _translator_from_spec(spec: str, timeout: float) -> pipeline_mod.TranslatorHandle:
    if spec == "baseline":
        return pipeline_mod.TranslatorHandle(pipeline_mod.TranslatorKind.BASELINE_DETOKENIZE)
    if spec == "identity":
        return pipeline_mod.TranslatorHandle(pipeline_mod.TranslatorKind.IDENTITY)
    if spec.startswith("cmd:"):
        return pipeline_mod.TranslatorHandle(
            pipeline_mod.TranslatorKind.EXTERNAL, command=spec[4:], timeout=timeout
        )
    raise _CliError(f"unknown translator {spec!r} (use baseline, identity, or cmd:\"...\")")


_OOV_BY_NAME = {p.value: p for p in pipeline_mod.OovPolicy}


# --- subcommand handlers --------------------------------------------------------


def _cmd_parse_odin(args: argparse.Namespace) -> int:
    text = _read(args.infile)
    blocks, warnings = parsing_mod.parse_odin_blocks(text)
    _emit_warnings(warnings)
    records = []
    for i, block in enumerate(blocks, start=1):
        records.append(
            parsing_mod.block_to_record(block, args.lang, record_id=f"{args.id_prefix}-{i:04d}")
        )
    _write(args.outfile, model_mod.dump_corpus(records))
    return 0


def _cmd_parse_toolbox(args: argparse.Namespace) -> int:
    text = _read(args.infile)
    field_map = None
    if args.map:
        field_map = {}
        for entry in args.map.split(","):
            marker, sep, role = entry.partition("=")
            if not sep:
                raise _CliError(f"bad --map entry {entry!r} (expected marker=role)")
            field_map[marker.strip()] = role.strip()
    records, warnings = parsing_mod.parse_toolbox(
        text, field_map, lang=args.lang, id_prefix=args.id_prefix
    )
    _emit_warnings(warnings)
    _write(args.outfile, model_mod.dump_corpus(records))
    return 0


def _cmd_parse_analyzer(args: argparse.Namespace) -> int:
    table = _load_norm_table(args.table, not args.number_first)

    def convert(line: str) -> str:
        tokens = parsing_mod.parse_analyzer_line(line)
        return normalize_mod.analyzer_to_gloss(tokens, table).render()

    return _map_lines(args, convert)


def _cmd_normalize(args: argparse.Namespace) -> int:
    table = _load_norm_table(args.table, not args.number_first)
    registry = table.label_registry()

    def convert(line: str) -> str:
        gloss = parsing_mod.tokenize_gloss(line, label_registry=registry)
        return normalize_mod.normalize_gloss_line(gloss, table).render()

    return _map_lines(args, convert)


def _cmd_split(args: argparse.Namespace) -> int:
    try:
        parts = tuple(float(r) for r in args.ratios.split(","))
    except ValueError as exc:
        raise _CliError(f"bad --ratios {args.ratios!r}") from exc
    if len(parts) != 3:
        raise _CliError("--ratios needs exactly three comma-separated numbers")
    records = model_mod.load_corpus(_read(args.infile))
    split = model_mod.split_corpus(records, parts, seed=args.seed)
    _write(args.train_out, model_mod.dump_corpus(split.train))
    _write(args.valid_out, model_mod.dump_corpus(split.validation))
    _write(args.test_out, model_mod.dump_corpus(split.test))
    print(
        f"igt: split {len(records)} records into "
        f"{len(split.train)}/{len(split.validation)}/{len(split.test)}",
        file=sys.stderr,
    )
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    corpus = align_mod.ParallelCorpus.from_texts(_read(args.src), _read(args.tgt))
    table = align_mod.train_model1(corpus, iterations=args.iters, null_word=args.null)
    if args.ttable_out:
        _write(args.ttable_out, align_mod.dump_translation_table(table))
    dictionary = align_mod.extract_dictionary(table, threshold=args.threshold)
    _write(args.outfile, align_mod.dump_dictionary(dictionary))
    print(
        f"igt: trained {table.iterations_run} iteration(s), "
        f"final perplexity {table.final_perplexity:.4f}, "
        f"{len(dictionary.entries)} dictionary entries",
        file=sys.stderr,
    )
    return 0


def _cmd_dict(args: argparse.Namespace) -> int:
    table = align_mod.load_translation_table(_read(args.ttable))
    dictionary = align_mod.extract_dictionary(table, threshold=args.threshold)
    _write(args.outfile, align_mod.dump_dictionary(dictionary))
    return 0


def _cmd_subst(args: argparse.Namespace) -> int:
    dictionary = align_mod.load_dictionary(_read(args.dict))
    policy = _OOV_BY_NAME[args.oov]

    def convert(line: str) -> str:
        gloss = parsing_mod.tokenize_gloss(line, lemma_side=LemmaSide.SOURCE)
        return pipeline_mod.substitute_lemmas(gloss, dictionary, policy).render()

    return _map_lines(args, convert)


def _cmd_prepare_multi(args: argparse.Namespace) -> int:
    records = model_mod.iter_corpus(_iter_lines(args.infile))
    with _spooled(args.tgt_out) as tgt_out, _spooled(args.src_out) as src_out:
        for src, tgt in pipeline_mod._training_pairs(records, args.split_morphs, _warn):
            src_out.write(src + "\n")
            tgt_out.write(tgt + "\n")
    return 0


def _cmd_pivot(args: argparse.Namespace) -> int:
    table = _load_norm_table(args.table, not args.number_first)
    dictionary = align_mod.load_dictionary(_read(args.dict))
    translator = _translator_from_spec(args.translator, args.timeout)
    report = pipeline_mod.PipelineReport()
    traces = pipeline_mod.iter_pipeline(
        _iter_lines(args.analyzer_out),
        table,
        dictionary,
        translator,
        oov_policy=_OOV_BY_NAME[args.oov],
        split_morphs=args.split_morphs,
        report=report,
    )
    # the report's counters head it but are known only once every sentence is in
    spool_report = (
        _spooled(args.report, head=lambda: pipeline_mod.format_report_header(report))
        if args.report
        else nullcontext()
    )
    with spool_report as report_out, _spooled(args.outfile) as out:
        for index, trace in enumerate(traces, start=1):
            out.write(trace.target + "\n")
            if report_out is not None:
                report_out.write(pipeline_mod.format_report_sentence(index, trace))
    print(
        f"igt: pivoted {report.n_sentences} sentence(s), "
        f"oov={report.oov_lemmas} unknown_labels={report.unknown_labels}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    hyps = [line.split() for line in split_lines(_read(args.hyp))]
    refs = [line.split() for line in split_lines(_read(args.ref))]
    annotations = None
    if args.ann:
        rows = metrics_mod.parse_annotations(_read(args.ann))
        annotations = [ann for _, ann in rows]
        if len(annotations) < len(hyps):
            annotations.extend([None] * (len(hyps) - len(annotations)))
        elif len(annotations) > len(hyps):
            raise _CliError(
                f"annotation file has {len(annotations)} rows for {len(hyps)} hypotheses"
            )
    lexicon = None
    if args.lexicon:
        lexicon = metrics_mod.default_lexicon() if args.lexicon == "default" else None
        if lexicon is None:
            from .inflect import load_lexicon

            lexicon = load_lexicon(_read(args.lexicon))
    report = metrics_mod.evaluate(
        hyps, refs, annotations, lexicon=lexicon, smooth=args.smooth
    )
    _write(args.outfile, metrics_mod.format_report(report) + metrics_mod.summary_line(report) + "\n")
    return 0


def _cmd_dump_table(args: argparse.Namespace) -> int:
    _write(args.outfile, DEFAULT_TABLE_TEXT)
    return 0


# --- parser ----------------------------------------------------------------------


def _add_io(parser: argparse.ArgumentParser, infile: bool = True, outfile: bool = True) -> None:
    if infile:
        parser.add_argument("--in", dest="infile", default=None, help="input file (default: stdin)")
    if outfile:
        parser.add_argument("--out", dest="outfile", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igt",
        description="Interlinear-gloss pivot toolkit: parse, normalize, align, substitute, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("parse-odin", help="parse blank-line-separated IGT blocks into corpus lines")
    _add_io(p)
    p.add_argument("--lang", required=True, help="3-letter language tag for all records")
    p.add_argument("--id-prefix", default="odin", help="record id prefix")
    p.set_defaults(func=_cmd_parse_odin)

    p = sub.add_parser("parse-toolbox", help="parse a ToolBox backslash-coded file into corpus lines")
    _add_io(p)
    p.add_argument("--lang", required=True, help="3-letter language tag for all records")
    p.add_argument("--map", default=None, help="marker map, e.g. t=source,g=gloss_tgt,f=target")
    p.add_argument("--id-prefix", default="toolbox", help="record id prefix")
    p.set_defaults(func=_cmd_parse_toolbox)

    p = sub.add_parser("parse-analyzer", help="turn analyzer output into glosses with source lemmas")
    _add_io(p)
    p.add_argument("--table", default="default", help="normalization table path or 'default'")
    p.add_argument("--number-first", action="store_true", help="emit SG.3 instead of 3.SG")
    p.set_defaults(func=_cmd_parse_analyzer)

    p = sub.add_parser("normalize", help="normalize morpheme labels in gloss lines")
    _add_io(p)
    p.add_argument("--table", default="default", help="normalization table path or 'default'")
    p.add_argument("--number-first", action="store_true", help="emit SG.3 instead of 3.SG")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("split", help="split a corpus into train/validation/test")
    _add_io(p, outfile=False)
    p.add_argument("--train-out", required=True)
    p.add_argument("--valid-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,valid,test fractions")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("align", help="train the word aligner and write a lemma dictionary")
    p.add_argument("--src", required=True, help="source side, one sentence per line")
    p.add_argument("--tgt", required=True, help="target side, one sentence per line")
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--null", action="store_true", help="prepend a NULL token to target sentences")
    p.add_argument("--threshold", type=float, default=0.0, help="minimum entry probability")
    p.add_argument("--ttable-out", default=None, help="also dump the full probability table")
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("dict", help="extract a dictionary from a dumped probability table")
    p.add_argument("--ttable", required=True)
    p.add_argument("--threshold", type=float, default=0.0)
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_dict)

    p = sub.add_parser("subst", help="substitute target lemmas into gloss lines")
    _add_io(p)
    p.add_argument("--dict", required=True, help="dictionary TSV (source, target[, probability])")
    p.add_argument("--oov", choices=sorted(_OOV_BY_NAME), default="keep")
    p.set_defaults(func=_cmd_subst)

    p = sub.add_parser("prepare-multi", help="build language-tagged gloss/target training files")
    _add_io(p, outfile=False)
    p.add_argument("--src-out", required=True)
    p.add_argument("--tgt-out", required=True)
    p.add_argument("--split-morphs", action="store_true", help="one whitespace token per morph")
    p.set_defaults(func=_cmd_prepare_multi)

    p = sub.add_parser("pivot", help="run analyzer output through the full pivot pipeline")
    p.add_argument("--analyzer-out", required=True, help="analyzer output, one sentence per line")
    p.add_argument("--table", default="default", help="normalization table path or 'default'")
    p.add_argument("--dict", required=True, help="lemma dictionary TSV")
    p.add_argument("--translator", default="baseline", help="baseline | identity | cmd:\"...\"")
    p.add_argument("--timeout", type=float, default=60.0, help="external translator timeout (s)")
    p.add_argument("--split-morphs", action="store_true")
    p.add_argument("--oov", choices=sorted(_OOV_BY_NAME), default="keep")
    p.add_argument("--number-first", action="store_true")
    p.add_argument("--report", default=None, help="write the stage report here")
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_pivot)

    p = sub.add_parser("eval", help="score hypotheses against references and annotations")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--ann", default=None, help="annotation TSV (optional)")
    p.add_argument("--lexicon", default=None, help="inflection lexicon TSV or 'default'")
    p.add_argument("--smooth", action="store_true", help="add-one smoothing for tiny test sets")
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dump-table", help="write the embedded default normalization table")
    _add_io(p, infile=False)
    p.set_defaults(func=_cmd_dump_table)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IgtError as exc:
        print(f"igt: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"igt: IO_ERROR: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"igt: VALUE_ERROR: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
