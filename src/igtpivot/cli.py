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
from contextlib import AbstractContextManager, contextmanager, nullcontext
from functools import partial
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator

from . import model as model_mod
from .errors import IgtError, ParseWarning
from .model import OovPolicy, _spool, decode_lines, decode_utf8, split_lines

if TYPE_CHECKING:
    from .normalize import NormalizationTable
    from .pipeline import TranslatorHandle

# Each handler imports the modules it runs when it is called, so that a
# command starts without compiling and importing the others.


class _CliError(IgtError):
    code = "CLI_ERROR"


class _FileNotFound(IgtError):
    code = "FILE_NOT_FOUND"


def _reconfigured(stream: IO[str], **settings: str) -> IO[str]:
    """``stream`` given ``settings``; one that holds text rather than bytes
    (an ``io.StringIO`` put in place of stdout) is left as it is."""
    if isinstance(stream, io.TextIOWrapper):
        stream.reconfigure(**settings)
    return stream


def _open(path: "str | None") -> AbstractContextManager[IO[bytes]]:
    """The bytes of an input, stdin's for ``None`` or ``-``.  A context
    manager; stdin is left open."""
    if path is None or path == "-":
        return nullcontext(sys.stdin.buffer)
    if not os.path.exists(path):
        raise _FileNotFound(f"input file does not exist: {path}")
    return open(path, "rb")


def _read(path: "str | None") -> str:
    r"""Every input, read by one rule: UTF-8 with a leading BOM dropped, its
    lines then taken by :func:`split_lines` (split at ``\n`` only, a line's
    trailing ``\r`` dropped).  A byte that is not UTF-8 fails with
    ``BAD_ENCODING`` naming the input and its line."""
    with _open(path) as handle:
        return decode_utf8(handle.read(), path or "-", bom=True)


def _iter_lines(path: "str | None") -> Iterator[str]:
    """The lines of ``split_lines(_read(path))``, read one at a time."""
    with _open(path) as handle:
        yield from decode_lines(handle, path or "-")


@contextmanager
def _destination(path: "str | None") -> Iterator[IO[str]]:
    r"""stdout for ``None`` or ``-``, else ``path`` opened for writing, its
    directory made first; either way UTF-8 text with ``\n`` line ends."""
    if path is None or path == "-":
        yield _reconfigured(sys.stdout, encoding="utf-8", newline="\n")
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
    """Collect output in a :func:`~igtpivot.model._spool`.  Only when the
    block succeeds is ``path`` opened, by :func:`_destination` as for
    :func:`_write`, and given ``head()`` and then the spool, copied in
    chunks no larger than io's own buffers; on failure ``path`` is never
    touched and nothing reaches stdout."""
    with _spool() as spool:
        yield spool
        spool.seek(0)
        with _destination(path) as handle:
            if head is not None:
                handle.write(head())
            shutil.copyfileobj(spool, handle, io.DEFAULT_BUFFER_SIZE)


def _map_lines(args: argparse.Namespace, convert) -> int:
    """Write ``convert`` of each non-blank input line; blank lines stay blank
    and are counted in the line number a converter's error is given."""
    with _spooled(args.outfile) as out:
        for lineno, line in enumerate(_iter_lines(args.infile), start=1):
            text = ""
            if line.strip():
                try:
                    text = convert(line)
                except IgtError as exc:
                    exc.line = exc.line or lineno
                    raise
            out.write(text + "\n")
    return 0


# each character str.splitlines splits on, by its escape
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _say(message: str) -> None:
    """Print ``message`` to stderr as one line, a line break it quotes from
    the input written as its escape."""
    print(message.translate(_LINE_BREAKS), file=sys.stderr)


def _warn(warning: ParseWarning) -> None:
    _say(f"igt: warning: {warning}")


def _write_lines(path: "str | None", lines: Iterable[str]) -> None:
    """Each of ``lines``, as it comes, through :func:`_spooled`."""
    with _spooled(path) as out:
        for line in lines:
            out.write(line + "\n")


def _load_norm_table(spec: str, person_first: bool) -> NormalizationTable:
    from . import normalize as normalize_mod

    if spec == "default":
        return normalize_mod.default_table(person_first=person_first)
    return normalize_mod.loads_table(_read(spec), person_first=person_first)


def _translator_from_spec(spec: str, timeout: "float | None") -> TranslatorHandle:
    """The translator ``spec`` names; ``timeout``, which bounds a ``cmd:``
    translator's run (the handle's default, 60 s, when ``None``), is
    refused for the others."""
    from .pipeline import TranslatorHandle, TranslatorKind

    kinds = {"baseline": TranslatorKind.BASELINE_DETOKENIZE, "identity": TranslatorKind.IDENTITY}
    if spec in kinds:
        if timeout is not None:
            raise _CliError(
                f"--timeout bounds a cmd: translator's run; the {spec} translator does not use it"
            )
        return TranslatorHandle(kinds[spec])
    if spec.startswith("cmd:"):
        if not spec[4:].strip():
            raise _CliError("--translator cmd: needs a command")
        if timeout is not None and not timeout > 0:
            raise _CliError(f"--timeout must be a positive number of seconds, got {timeout}")
        return TranslatorHandle(TranslatorKind.EXTERNAL, command=spec[4:], timeout=timeout)
    raise _CliError(f"unknown translator {spec!r} (use baseline, identity, or cmd:\"...\")")


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # nan too, which no probability would reach
        raise _CliError(f"--threshold must be a probability in [0, 1], got {threshold}")


def _check_id_prefix(prefix: str) -> None:
    # every record id a parser writes starts with it, and a command-line byte
    # that is not UTF-8 reaches Python as a lone surrogate no output can hold
    try:
        prefix.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _CliError(f"--id-prefix {prefix!r} is not UTF-8 text") from exc


_OOV_BY_NAME = {p.value: p for p in OovPolicy}


# --- subcommand handlers --------------------------------------------------------


def _cmd_parse_odin(args: argparse.Namespace) -> int:
    from . import parsing as parsing_mod

    lang = model_mod.as_language_tag(args.lang)
    _check_id_prefix(args.id_prefix)
    blocks = parsing_mod._odin_blocks(_iter_lines(args.infile), _warn)
    _write_lines(args.outfile, parsing_mod._corpus_lines(blocks, lang, args.id_prefix))
    return 0


def _cmd_parse_toolbox(args: argparse.Namespace) -> int:
    from . import parsing as parsing_mod

    lang = model_mod.as_language_tag(args.lang)
    _check_id_prefix(args.id_prefix)
    field_map = {}  # empty: the default map
    for entry in args.map.split(",") if args.map else ():
        marker, sep, role = entry.partition("=")
        if not sep:
            raise _CliError(f"bad --map entry {entry!r} (expected marker=role)")
        marker, role = marker.strip().lstrip("\\"), role.strip()
        if not marker:
            raise _CliError(f"bad --map entry {entry!r} (empty marker)")
        if role not in parsing_mod._TOOLBOX_ROLES:
            roles = ", ".join(sorted(parsing_mod._TOOLBOX_ROLES))
            raise _CliError(f"bad --map entry {entry!r} (role {role!r} is not one of {roles})")
        if marker in field_map:
            raise _CliError(f"bad --map entry {entry!r} (marker \\{marker} is already mapped)")
        field_map[marker] = role
    fmap = parsing_mod._normalize_field_map(field_map)
    lines = _iter_lines(args.infile)
    _write_lines(args.outfile, parsing_mod._toolbox_lines(lines, fmap, lang, args.id_prefix, _warn))
    return 0


def _cmd_parse_analyzer(args: argparse.Namespace) -> int:
    from .pipeline import _glossed_lines

    table = _load_norm_table(args.table, not args.number_first)
    return _map_lines(args, _glossed_lines(table))


def _cmd_normalize(args: argparse.Namespace) -> int:
    from .pipeline import _normalized_lines

    table = _load_norm_table(args.table, not args.number_first)
    return _map_lines(args, _normalized_lines(table))


def _cmd_split(args: argparse.Namespace) -> int:
    try:
        parts = tuple(float(r) for r in args.ratios.split(","))
    except ValueError as exc:
        raise _CliError(f"bad --ratios {args.ratios!r}") from exc
    if len(parts) != 3:
        raise _CliError("--ratios needs exactly three comma-separated numbers")
    from .parsing import _canonical_line

    lines = list(model_mod._read_corpus(_iter_lines(args.infile), _canonical_line))
    split = model_mod.split_corpus(lines, parts, seed=args.seed)
    _write_lines(args.train_out, split.train)
    _write_lines(args.valid_out, split.validation)
    _write_lines(args.test_out, split.test)
    print(
        f"igt: split {len(lines)} records into "
        f"{len(split.train)}/{len(split.validation)}/{len(split.test)}",
        file=sys.stderr,
    )
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    if args.iters < 1:
        raise _CliError(f"--iters must be at least 1, got {args.iters}")
    _check_threshold(args.threshold)
    from . import align as align_mod

    pairs = align_mod._sentence_pairs(_read(args.src), _read(args.tgt), _warn)
    table = align_mod._train_model1(pairs, args.iters, args.null)
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
    _check_threshold(args.threshold)
    from . import align as align_mod

    if args.ttable == "-":  # stdin cannot be read again, so it is held
        lines = split_lines(_read(args.ttable)).__iter__
    else:
        lines = partial(_iter_lines, args.ttable)
    dictionary = align_mod._table_dictionary(lines, args.threshold)
    _write(args.outfile, align_mod.dump_dictionary(dictionary))
    return 0


def _cmd_subst(args: argparse.Namespace) -> int:
    from .align import load_dictionary
    from .pipeline import _substituted_lines

    dictionary = load_dictionary(_read(args.dict))
    return _map_lines(args, _substituted_lines(dictionary, _OOV_BY_NAME[args.oov]))


def _cmd_prepare_multi(args: argparse.Namespace) -> int:
    from .parsing import _corpus_pairs

    pairs = _corpus_pairs(_iter_lines(args.infile), args.split_morphs, _warn)
    with _spooled(args.tgt_out) as tgt_out, _spooled(args.src_out) as src_out:
        for src, tgt in pairs:
            src_out.write(src + "\n")
            tgt_out.write(tgt + "\n")
    return 0


def _cmd_pivot(args: argparse.Namespace) -> int:
    from . import pipeline as pipeline_mod
    from .align import load_dictionary

    translator = _translator_from_spec(args.translator, args.timeout)
    if args.split_morphs and translator.kind is pipeline_mod.TranslatorKind.BASELINE_DETOKENIZE:
        raise _CliError(
            "--split-morphs shapes the identity and cmd: translators' input; "
            "the baseline translator does not use it"
        )
    table = _load_norm_table(args.table, not args.number_first)
    dictionary = load_dictionary(_read(args.dict))
    report = pipeline_mod.PipelineReport()
    rows = pipeline_mod._rows(
        _iter_lines(args.analyzer_out), table, dictionary, translator,
        _OOV_BY_NAME[args.oov], args.split_morphs, report,
    )
    # the report's counters head it but are known only once every sentence is in
    spool_report = (
        _spooled(args.report, head=lambda: pipeline_mod.format_report_header(report))
        if args.report
        else nullcontext()
    )
    block = pipeline_mod._report_block
    with spool_report as report_out, _spooled(args.outfile) as out:
        for index, row in enumerate(rows, start=1):
            out.write(row[3] + "\n")
            if report_out is not None:
                report_out.write(block(index, *row))
    print(
        f"igt: pivoted {report.n_sentences} sentence(s), "
        f"oov={report.oov_lemmas} unknown_labels={report.unknown_labels}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import metrics as metrics_mod
    from .inflect import load_lexicon

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
    lexicon = None if args.lexicon in (None, "default") else load_lexicon(_read(args.lexicon))
    report = metrics_mod.evaluate(hyps, refs, annotations, lexicon=lexicon, smooth=args.smooth)
    _write(args.outfile, metrics_mod.format_report(report) + metrics_mod.summary_line(report) + "\n")
    return 0


def _cmd_dump_table(args: argparse.Namespace) -> int:
    from .tables import DEFAULT_TABLE_TEXT

    _write(args.outfile, DEFAULT_TABLE_TEXT)
    return 0


# --- parser ----------------------------------------------------------------------


# Options that several commands take, each defined here once.
_SHARED_OPTIONS: "dict[str, dict]" = {
    "--in": dict(dest="infile", default=None, help="input file (default: stdin)"),
    "--out": dict(dest="outfile", default=None, help="output file (default: stdout)"),
    "--table": dict(default="default", help="normalization table path or 'default'"),
    "--number-first": dict(action="store_true", help="emit SG.3 instead of 3.SG"),
    "--oov": dict(
        choices=sorted(_OOV_BY_NAME), default="keep", help="what to do with a lemma --dict lacks"
    ),
    "--split-morphs": dict(action="store_true", help="one whitespace token per morph"),
}


def _add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_SHARED_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igt",
        description="Interlinear-gloss pivot toolkit: parse, normalize, align, substitute, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("parse-odin", help="parse blank-line-separated IGT blocks into corpus lines")
    _add_shared(p, "--in", "--out")
    p.add_argument("--lang", required=True, help="3-letter language tag for all records")
    p.add_argument("--id-prefix", default="odin", help="record id prefix")
    p.set_defaults(func=_cmd_parse_odin)

    p = sub.add_parser("parse-toolbox", help="parse a ToolBox backslash-coded file into corpus lines")
    _add_shared(p, "--in", "--out")
    p.add_argument("--lang", required=True, help="3-letter language tag for all records")
    p.add_argument("--map", default=None, help="marker map, e.g. t=source,g=gloss_tgt,f=target")
    p.add_argument("--id-prefix", default="toolbox", help="record id prefix")
    p.set_defaults(func=_cmd_parse_toolbox)

    p = sub.add_parser("parse-analyzer", help="turn analyzer output into glosses with source lemmas")
    _add_shared(p, "--in", "--out", "--table", "--number-first")
    p.set_defaults(func=_cmd_parse_analyzer)

    p = sub.add_parser("normalize", help="normalize morpheme labels in gloss lines")
    _add_shared(p, "--in", "--out", "--table", "--number-first")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("split", help="split a corpus into train/validation/test")
    _add_shared(p, "--in")
    p.add_argument("--train-out", required=True, help="train part of the corpus")
    p.add_argument("--valid-out", required=True, help="validation part of the corpus")
    p.add_argument("--test-out", required=True, help="test part of the corpus")
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,valid,test fractions")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("align", help="train the word aligner and write a lemma dictionary")
    p.add_argument("--src", required=True, help="source side, one sentence per line")
    p.add_argument("--tgt", required=True, help="target side, one sentence per line")
    p.add_argument("--iters", type=int, default=5, help="EM iterations")
    p.add_argument("--null", action="store_true", help="prepend a NULL token to target sentences")
    p.add_argument("--threshold", type=float, default=0.0, help="minimum entry probability")
    p.add_argument("--ttable-out", default=None, help="also dump the full probability table")
    _add_shared(p, "--out")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("dict", help="extract a dictionary from a dumped probability table")
    p.add_argument("--ttable", required=True, help="probability table dumped by align --ttable-out")
    p.add_argument("--threshold", type=float, default=0.0, help="minimum entry probability")
    _add_shared(p, "--out")
    p.set_defaults(func=_cmd_dict)

    p = sub.add_parser("subst", help="substitute target lemmas into gloss lines")
    p.add_argument("--dict", required=True, help="dictionary TSV (source, target[, probability])")
    _add_shared(p, "--oov", "--in", "--out")
    p.set_defaults(func=_cmd_subst)

    p = sub.add_parser("prepare-multi", help="build language-tagged gloss/target training files")
    p.add_argument("--src-out", required=True, help="language-tagged gloss lines")
    p.add_argument("--tgt-out", required=True, help="target lines")
    _add_shared(p, "--split-morphs", "--in")
    p.set_defaults(func=_cmd_prepare_multi)

    p = sub.add_parser("pivot", help="run analyzer output through the full pivot pipeline")
    p.add_argument("--analyzer-out", required=True, help="analyzer output, one sentence per line")
    p.add_argument("--dict", required=True, help="lemma dictionary TSV")
    p.add_argument("--translator", default="baseline", help="baseline | identity | cmd:\"...\"")
    p.add_argument("--timeout", type=float, default=None, help="cmd: translator timeout (s, default 60)")
    p.add_argument("--report", default=None, help="write the stage report here")
    _add_shared(p, "--table", "--number-first", "--split-morphs", "--oov", "--out")
    p.set_defaults(func=_cmd_pivot)

    p = sub.add_parser("eval", help="score hypotheses against references and annotations")
    p.add_argument("--hyp", required=True, help="system output, one sentence per line")
    p.add_argument("--ref", required=True, help="references, one sentence per line")
    p.add_argument("--ann", default=None, help="annotation TSV (optional)")
    p.add_argument("--lexicon", default=None, help="inflection lexicon TSV or 'default'")
    p.add_argument("--smooth", action="store_true", help="add-one smoothing for tiny test sets")
    _add_shared(p, "--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dump-table", help="write the embedded default normalization table")
    _add_shared(p, "--out")
    p.set_defaults(func=_cmd_dump_table)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IgtError as exc:
        _say(f"igt: {exc.code}: {exc}")
        return 1
    except OSError as exc:
        _say(f"igt: IO_ERROR: {exc}")
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
