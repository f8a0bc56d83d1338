"""Memory check at the paper's corpus size for the streaming commands.

The paper pools 54,545 ODIN glosses and 70,918 Arapaho glosses.  This script
generates the seed-7 ``corpus`` inputs of ``perfbench/gen.py`` (3,000 IGT
records) and writes them once (x1) and 23 times over (x23, 69,000 records),
as ODIN blocks and as a ToolBox file headed by ToolBox's ``\\_sh`` line.  It
runs ``igt parse-odin``, ``igt parse-toolbox`` and ``igt prepare-multi`` on
each size as its own children, and ``igt split`` on the corpus lines that
``parse-odin`` wrote.  It also generates the seed-7 ``pivot``
inputs (5,000 analyzer lines) and runs ``igt pivot --translator baseline
--report``, ``igt parse-analyzer``, and ``igt subst`` and ``igt normalize``
(on what ``parse-analyzer`` wrote) on them once (x1) and 14 times over
(x14, 70,000 lines).  It fails unless each command's peak RSS at the larger size is
within 1.10x of its figure at x1.  It also checks that both parsers write
the same records, that ``prepare-multi``'s two files have as many lines,
that no corpus or stage command warns, that
``parse-analyzer`` writes the ``gloss_src:`` lines of ``pivot``'s report,
and that ``pivot`` writes nothing to stderr but its one-line summary, whose
counts grow 14-fold.  Two commands hold their whole input, so they cannot be
flat, and each fails if its cost per item, the growth of its peak over the
items added, is above a bound: ``split`` shuffles every record, and is
checked over the 66,000 records added from x1 to x23, and Model 1 training
revisits the corpus, so ``igt align --iters 5`` runs on the seed-7 sentence
pairs once (x1, 3,000 pairs) and 10 times over (x10, 30,000 pairs).
``split`` must also write every record once and say so on stderr.  ``igt
dict`` reads each of align's two ttables, which hold the same pairs, and a
one-row table cut from the first; it must write align's own dictionary, and
it fails if its peak grows more than a bound per table row over the one-row
run.

Linux reports, as a child's peak RSS, at least the high-water mark of the
process it was forked from.  So the script imports no igtpivot, runs the
generator as a child too, and copies the inputs a line at a time; it fails if
its own peak is not below every child's figure.

Usage: python tests/paper_scale.py [--work DIR]
(pytest does not collect it: the name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import filecmp
import itertools
import os
import re
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
TIMES = 23
PIVOT_TIMES = 14
BOUND = 1.10
ALIGN_TIMES = 10
# align's peak RSS growth per added sentence pair (4-16 tokens a side):
# 0.31, 0.21, 0.47 and 0.31 KB measured under CPython 3.10 to 3.13, so a
# bound that fails if EM holds the corpus again (0.51 to 0.69 KB)
ALIGN_BOUND_KB = 0.6
# dict's peak RSS growth per ttable row over a one-row table: 0.08 KB measured
# under each of CPython 3.10 to 3.13 on the seed-7 ttable (126,872 rows),
# where dict holds each source word's best target and a hash of each row's
# pair; the bound allows about twice that, and fails if dict holds every row
# again (0.36 KB)
DICT_BOUND_KB = 0.15
# split's peak RSS growth per added record, each a corpus line of about
# 0.37 KB that split holds as one str: 0.44, 0.44, 0.43 and 0.43 KB measured
# under CPython 3.10 to 3.13, and 3.1 KB while split parsed every line into an
# IgtRecord
SPLIT_BOUND_KB = 0.6
CHILD_TIMEOUT = 300.0  # seconds for one command
TOOLBOX_MARKERS = ("t", "m", "g", "f")  # source, source gloss, target gloss, translation
TOOLBOX_MAP = "t=source,m=gloss_src,g=gloss_tgt,f=target"
TOOLBOX_HEADER = "\\_sh v3.0 400 Text"  # the first line of a file ToolBox writes


def peak_mb(argv: list[str], stderr_path: str) -> tuple[float, str]:
    """Run ``argv`` to completion as a child; return its peak RSS in MB and
    what it wrote to stderr.  Fails if it exits nonzero."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(stderr_path, "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + CHILD_TIMEOUT
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise SystemExit(f"timed out after {CHILD_TIMEOUT} s: {argv}")
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read()
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{message}")
    return usage.ru_maxrss / 1024.0, message


def write_inputs(blocks_path: str, work: str, times: int) -> tuple[str, str]:
    """The ODIN blocks of ``blocks_path`` written ``times`` times over, and the
    same records as a ToolBox file under ToolBox's header line; return both
    paths."""
    odin = os.path.join(work, f"blocks.x{times}.txt")
    toolbox = os.path.join(work, f"records.x{times}.tb")
    with open(odin, "w", encoding="utf-8", newline="\n") as odin_out, open(
        toolbox, "w", encoding="utf-8", newline="\n"
    ) as toolbox_out:
        toolbox_out.write(f"{TOOLBOX_HEADER}\n\n")
        for _ in range(times):
            with open(blocks_path, encoding="utf-8", newline="\n") as source:
                field = 0
                for line in source:
                    odin_out.write(line)
                    if line.strip():
                        toolbox_out.write(f"\\{TOOLBOX_MARKERS[field]} {line}")
                        field += 1
                    else:
                        toolbox_out.write(line)
                        field = 0
            odin_out.write("\n")  # a blank line between copies keeps their blocks apart
            toolbox_out.write("\n")
    return odin, toolbox


def repeated(source: str, path: str, times: int) -> str:
    """Write the lines of ``source`` ``times`` times over to ``path``, a line
    at a time; return ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for _ in range(times):
            with open(source, encoding="utf-8", newline="\n") as lines:
                for line in lines:
                    out.write(line)
    return path


def count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def run_size(
    generated: str, work: str, times: int
) -> tuple[dict[str, float], tuple[int, float]]:
    """Each streaming command's peak RSS in MB on the inputs written ``times``
    times over, and the number of records and ``igt split``'s peak in MB."""
    odin, toolbox = write_inputs(os.path.join(generated, "blocks.txt"), work, times)
    corpus = os.path.join(work, f"corpus.x{times}.igt")
    from_toolbox = os.path.join(work, f"toolbox.x{times}.igt")
    igt = [sys.executable, "-m", "igtpivot"]
    runs = {
        "parse-odin": ["parse-odin", "--in", odin, "--out", corpus],
        "parse-toolbox": ["parse-toolbox", "--in", toolbox, "--map", TOOLBOX_MAP,
                          "--id-prefix", "odin", "--out", from_toolbox],
        "prepare-multi": ["prepare-multi", "--in", corpus,
                          "--src-out", os.path.join(work, f"multi.x{times}.src"),
                          "--tgt-out", os.path.join(work, f"multi.x{times}.tgt")],
    }
    stderr_path = os.path.join(work, "stderr.txt")
    peaks = {}
    for command, argv in runs.items():
        lang = ["--lang", "tur"] if command.startswith("parse-") else []
        peaks[command], message = peak_mb([*igt, *argv, *lang], stderr_path)
        if message:
            raise SystemExit(f"{command} warned at x{times}:\n{message}")
    if not filecmp.cmp(corpus, from_toolbox, shallow=False):
        raise SystemExit(f"parse-odin and parse-toolbox records differ at x{times}")
    n_records = count_lines(corpus)
    if n_records != times * count_lines(os.path.join(generated, "ref.txt")):
        raise SystemExit(f"x{times} wrote {n_records} records")
    n_src, n_tgt = (count_lines(os.path.join(work, f"multi.x{times}.{side}")) for side in ("src", "tgt"))
    if n_src != n_tgt:
        raise SystemExit(f"prepare-multi wrote {n_src} source and {n_tgt} target lines at x{times}")
    parts = [os.path.join(work, f"split.x{times}.{part}") for part in ("train", "valid", "test")]
    argv = [*igt, "split", "--in", corpus, "--train-out", parts[0], "--valid-out", parts[1],
            "--test-out", parts[2]]
    split_peak, message = peak_mb(argv, stderr_path)
    sizes = [count_lines(path) for path in parts]
    if sum(sizes) != n_records or message != (
        f"igt: split {n_records} records into {'/'.join(map(str, sizes))}\n"
    ):
        raise SystemExit(f"split wrote {sizes} lines of {n_records} records at x{times}:\n{message}")
    print(f"x{times}: {n_records} records")
    return peaks, (n_records, split_peak)


def run_pivot(generated: str, work: str, times: int) -> tuple[dict[str, float], tuple[int, int]]:
    """The peak RSS in MB of ``igt pivot``, ``igt parse-analyzer``, ``igt
    subst`` and ``igt normalize`` on the analyzer lines written ``times``
    times over, and the OOV and unknown-label counts of ``pivot``'s summary."""
    analyzed = repeated(os.path.join(generated, "analyzed.txt"),
                        os.path.join(work, f"analyzed.x{times}.txt"), times)
    n_lines = count_lines(analyzed)
    igt = [sys.executable, "-m", "igtpivot"]
    dictionary = os.path.join(generated, "dict.tsv")
    report = os.path.join(work, f"report.x{times}.txt")
    gloss = os.path.join(work, f"gloss.x{times}.txt")
    stderr_path = os.path.join(work, "stderr.txt")
    peaks = {}
    argv = [*igt, "pivot", "--analyzer-out", analyzed, "--dict", dictionary,
            "--translator", "baseline", "--report", report,
            "--out", os.path.join(work, f"pivot.x{times}.txt")]
    peaks["pivot"], message = peak_mb(argv, stderr_path)
    summary = re.fullmatch(
        rf"igt: pivoted {n_lines} sentence\(s\), oov=(\d+) unknown_labels=(\d+)\n", message
    )
    if summary is None:
        raise SystemExit(f"pivot at x{times} wrote to stderr:\n{message}")
    stages = {
        "parse-analyzer": ["parse-analyzer", "--in", analyzed, "--out", gloss],
        "subst": ["subst", "--in", gloss, "--dict", dictionary,
                  "--out", os.path.join(work, f"subst.x{times}.txt")],
        "normalize": ["normalize", "--in", gloss,
                      "--out", os.path.join(work, f"normalize.x{times}.txt")],
    }
    for command, stage_argv in stages.items():
        peaks[command], message = peak_mb([*igt, *stage_argv], stderr_path)
        if message:
            raise SystemExit(f"{command} warned at x{times}:\n{message}")
    check_source_glosses(gloss, report, times)
    print(f"x{times}: {n_lines} analyzer lines")
    return peaks, (int(summary.group(1)), int(summary.group(2)))


def run_align(generated: str, work: str, times: int) -> tuple[int, float]:
    """The number of sentence pairs of the seed's ``src.txt`` and ``tgt.txt``
    written ``times`` times over, and the peak RSS in MB of ``igt align
    --iters 5`` on them."""
    paths = [
        repeated(os.path.join(generated, f"{side}.txt"), os.path.join(work, f"pairs.x{times}.{side}"),
                 times)
        for side in ("src", "tgt")
    ]
    argv = [sys.executable, "-m", "igtpivot", "align", "--src", paths[0], "--tgt", paths[1],
            "--iters", "5", "--ttable-out", os.path.join(work, f"ttable.x{times}.tsv"),
            "--out", os.path.join(work, f"dict.x{times}.tsv")]
    peak, message = peak_mb(argv, os.path.join(work, "stderr.txt"))
    if not re.fullmatch(r"igt: trained 5 iteration\(s\), final perplexity \S+, "
                        r"\d+ dictionary entries\n", message):
        raise SystemExit(f"align at x{times} wrote to stderr:\n{message}")
    n_pairs = count_lines(paths[0])
    print(f"x{times}: {n_pairs} sentence pairs")
    return n_pairs, peak


def run_dict(work: str, name: str) -> tuple[int, float]:
    """The number of rows of the ttable ``ttable.{name}.tsv`` and the peak RSS
    in MB of ``igt dict`` on it; fails unless dict writes ``dict.{name}.tsv``,
    the dictionary align wrote with the table, and nothing to stderr."""
    ttable = os.path.join(work, f"ttable.{name}.tsv")
    out = os.path.join(work, f"dict-from-ttable.{name}.tsv")
    argv = [sys.executable, "-m", "igtpivot", "dict", "--ttable", ttable, "--out", out]
    peak, message = peak_mb(argv, os.path.join(work, "stderr.txt"))
    if message or not filecmp.cmp(out, os.path.join(work, f"dict.{name}.tsv"), shallow=False):
        raise SystemExit(f"dict on the {name} ttable did not write align's dictionary:\n{message}")
    with open(ttable, encoding="utf-8", newline="\n") as lines:
        n_rows = sum(1 for line in lines if not line.startswith("#"))
    return n_rows, peak


def cut_one_row(work: str, name: str) -> None:
    """Write the header and first row of ``ttable.{name}.tsv``, and the
    dictionary of that row, as the table and dictionary named ``one-row``."""
    with open(os.path.join(work, f"ttable.{name}.tsv"), encoding="utf-8", newline="\n") as table:
        lines = list(itertools.takewhile(lambda line: line.startswith("#"), table))
        row = next(table)
    with open(os.path.join(work, "ttable.one-row.tsv"), "w", encoding="utf-8", newline="\n") as out:
        out.writelines([*lines, row])
    with open(os.path.join(work, "dict.one-row.tsv"), "w", encoding="utf-8", newline="\n") as out:
        out.write(row)


def check_source_glosses(gloss: str, report: str, times: int) -> None:
    """Fail unless the lines of ``gloss`` are the ``gloss_src:`` lines of
    ``report``, in order; both files are read a line at a time."""
    prefix = "gloss_src: "
    with open(gloss, encoding="utf-8", newline="\n") as glosses, open(
        report, encoding="utf-8", newline="\n"
    ) as reported:
        sources = (line[len(prefix):] for line in reported if line.startswith(prefix))
        for n, (written, source) in enumerate(itertools.zip_longest(glosses, sources), start=1):
            if written != source:
                raise SystemExit(
                    f"parse-analyzer line {n} at x{times} is {written!r}, "
                    f"pivot's gloss_src is {source!r}"
                )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="directory for the files (default: a temporary one)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or scratch
        os.makedirs(work, exist_ok=True)
        generated = os.path.join(work, "gen")
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "gen.py"), "--workload", "corpus",
             "--seed", str(SEED), "--out", generated],
            check=True, stdout=subprocess.DEVNULL,
        )
        (once, split_once), (scaled, split_scaled) = (
            run_size(generated, work, 1), run_size(generated, work, TIMES)
        )
        pivot_generated = os.path.join(work, "gen-pivot")
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "gen.py"), "--workload", "pivot",
             "--seed", str(SEED), "--out", pivot_generated],
            check=True, stdout=subprocess.DEVNULL,
        )
        pivot_once, counts_once = run_pivot(pivot_generated, work, 1)
        pivot_scaled, counts_scaled = run_pivot(pivot_generated, work, PIVOT_TIMES)
        align_once, align_scaled = run_align(generated, work, 1), run_align(generated, work, ALIGN_TIMES)
        cut_one_row(work, "x1")
        dict_runs = {name: run_dict(work, name) for name in ("one-row", "x1", f"x{ALIGN_TIMES}")}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"this script peaked at {own:.1f} MB")
    failures = []
    if counts_scaled != tuple(PIVOT_TIMES * count for count in counts_once):
        failures.append(f"pivot's oov and unknown_labels went from {counts_once} at x1 "
                        f"to {counts_scaled} at x{PIVOT_TIMES}")
    runs = [(command, once[command], scaled[command], TIMES) for command in once]
    runs += [(command, pivot_once[command], pivot_scaled[command], PIVOT_TIMES)
             for command in pivot_once]
    for command, small, large, times in runs:
        ratio = large / small
        print(f"{command:14} x1 {small:6.1f} MB   x{times} {large:6.1f} MB   ratio {ratio:.3f}")
        if ratio > BOUND:
            failures.append(f"{command} grew {ratio:.3f}x from x1 to x{times} (bound {BOUND}x)")
        if min(small, large) <= own:
            failures.append(f"{command}'s figure may be this script's own peak, {own:.1f} MB")
    for command, item, first, (n_first, small), last, (n_last, large), bound in (
        ("split", "record", "x1", split_once, f"x{TIMES}", split_scaled, SPLIT_BOUND_KB),
        ("align", "pair", "x1", align_once, f"x{ALIGN_TIMES}", align_scaled, ALIGN_BOUND_KB),
        *(("dict", "row", "one-row table", dict_runs["one-row"], f"{name} table", dict_runs[name],
           DICT_BOUND_KB) for name in ("x1", f"x{ALIGN_TIMES}")),
    ):
        per_item_kb = (large - small) * 1024.0 / (n_last - n_first)
        print(f"{command:14} {first} {small:6.1f} MB   {last} {large:6.1f} MB   "
              f"{per_item_kb:.2f} KB per {item}")
        if per_item_kb > bound:
            failures.append(f"{command} grew {per_item_kb:.2f} KB per {item} from {first} to {last} "
                            f"(bound {bound} KB)")
        if small <= own:
            failures.append(f"{command}'s figure may be this script's own peak, {own:.1f} MB")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
