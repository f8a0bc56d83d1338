"""igtpivot benchmark: seeded synthetic workloads through the ``igt`` CLI.

    python3 perfbench/run.py --workload pivot --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                      # every workload, one table

With ``--trace 0`` the workload's CLI commands run as child processes, one
at a time (a closed loop with one client), until ``--seconds`` have passed;
the run reports items per second, the largest child's peak RSS and the
set-up time, and checks every output.  With ``--trace 1`` the CLI handlers
are rebuilt in this process from igtpivot's public functions and every call
is timed (see ``layers.py``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# After each full pass, one-item passes run for this share of its wall time
# (at least SETUP_MIN of them), so that set-up is sampled across the whole run.
SETUP_SHARE = 0.3
SETUP_MIN = 3
CHILD_TIMEOUT = 150.0
LAUNCH = "from igtpivot.cli import entry_point; entry_point()"

COMMANDS = {
    "pivot": ("pivot",),
    "corpus": ("parse-odin", "prepare-multi", "align", "dict", "eval"),
}
OUTPUTS = {
    "pivot": ("out.txt", "report.txt"),
    "parse-odin": ("corpus.igt",),
    "prepare-multi": ("multi.src", "multi.tgt"),
    "align": ("ttable.out.tsv", "dict.out.tsv"),
    "dict": ("dict.strict.tsv",),
    "eval": ("eval.txt",),
}
UNITS = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYERS = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))["metrics"]


def argv_of(command: str, d: str) -> list[str]:
    def p(name: str) -> str:
        return os.path.join(d, name)

    return {
        "pivot": ["pivot", "--analyzer-out", p("analyzed.txt"), "--dict", p("dict.tsv"),
                  "--translator", "baseline", "--report", p("report.txt"), "--out", p("out.txt")],
        "align": ["align", "--src", p("src.txt"), "--tgt", p("tgt.txt"),
                  "--iters", str(gen.ITERATIONS), "--ttable-out", p("ttable.out.tsv"),
                  "--out", p("dict.out.tsv")],
        "parse-odin": ["parse-odin", "--in", p("blocks.txt"), "--lang", gen.LANG,
                       "--out", p("corpus.igt")],
        "prepare-multi": ["prepare-multi", "--in", p("corpus.igt"), "--src-out", p("multi.src"),
                          "--tgt-out", p("multi.tgt")],
        "dict": ["dict", "--ttable", p("ttable.out.tsv"), "--threshold", repr(gen.DICT_THRESHOLD),
                 "--out", p("dict.strict.tsv")],
        "eval": ["eval", "--hyp", p("hyp.txt"), "--ref", p("ref.txt"), "--ann", p("ann.tsv"),
                 "--out", p("eval.txt")],
    }[command]


def check(command: str, inputs: dict, out: dict[str, str]) -> list[str]:
    """Problems with one command's outputs; ``out`` maps the file names
    written so far in the pass to their text."""
    files, expect = inputs["files"], inputs["expect"]
    if command == "pivot":
        return checks.pivot(expect, out["out.txt"], out["report.txt"])
    if command == "align":
        return checks.align(
            files["src.txt"], files["tgt.txt"], out["ttable.out.tsv"], out["dict.out.tsv"],
            gen.ITERATIONS,
        )
    if command == "parse-odin":
        return checks.corpus_records(expect, out["corpus.igt"])
    if command == "prepare-multi":
        return checks.corpus_multi(expect, out["multi.src"], out["multi.tgt"])
    if command == "dict":
        return checks.corpus_dict(out["ttable.out.tsv"], gen.DICT_THRESHOLD, out["dict.strict.tsv"])
    return checks.corpus_eval(expect, out["eval.txt"])


class Tally:
    """Attempted and failed operations, the problems seen, and the digests
    of outputs already checked (identical bytes need no second check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verified: set[tuple[str, str]] = set()
        self.digests: dict[str, str] = {}

    def judge(self, command: str, inputs: dict, out: dict[str, str], problems=()) -> bool:
        self.attempted += 1
        digest = hashlib.sha256()
        for name in sorted(out):  # a check may read earlier commands' outputs too
            self.digests[name] = hashlib.sha256(out[name].encode("utf-8")).hexdigest()
            digest.update(f"{name}={self.digests[name]};".encode())
        key = (command, digest.hexdigest())
        problems = list(problems)
        if not problems and key not in self.verified:
            try:
                problems = check(command, inputs, out)
            except Exception as exc:  # a malformed output is a failed operation
                problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += [f"{command}: {p}" for p in problems]
            return False
        self.verified.add(key)
        return True


# --- child processes ------------------------------------------------------------


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired


def run_cli(argv: list[str], workdir: str) -> tuple[float, float, int, str]:
    """Run one ``igt`` command to completion; return (wall s, peak RSS MB,
    exit code, stderr).  The child is killed if it outlives CHILD_TIMEOUT or
    if this process is interrupted while waiting."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(os.path.join(workdir, "stderr.txt"), "w+", encoding="utf-8") as err:
        previous = signal.signal(signal.SIGALRM, _expire)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Expired:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr


def run_pass(workload: str, inputs: dict, d: str, tally: Tally) -> list[tuple[str, float, float]]:
    """Run the workload's commands once, checking each; return
    (command, wall s, peak RSS MB) per command."""
    results, out = [], {}
    for command in COMMANDS[workload]:
        for name in OUTPUTS[command]:  # a stale file from an earlier pass must not pass
            if os.path.exists(os.path.join(d, name)):
                os.remove(os.path.join(d, name))
        wall, rss, code, stderr = run_cli(argv_of(command, d), d)
        problems = []
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
        else:
            for name in OUTPUTS[command]:
                try:
                    with open(os.path.join(d, name), encoding="utf-8", newline="") as handle:
                        out[name] = handle.read()
                except (OSError, UnicodeDecodeError) as exc:
                    problems.append(f"cannot read {name}: {exc!r}")
        tally.judge(command, inputs, out, problems)
        results.append((command, wall, rss))
    return results


def prepare(workload: str, seed: int, n: int, d: str) -> dict:
    inputs = gen.GENERATORS[workload](seed, n)
    gen.write(inputs, d)
    return inputs


# --- runs -----------------------------------------------------------------------


def fits(start: float, seconds: float, done: int) -> bool:
    """Whether one more pass, as long as the mean pass so far, ends within
    ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def timed_run(workload: str, seed: int, seconds: float, n: int, work: str) -> tuple[Tally, dict, list[str]]:
    """Untraced run: full passes until ``seconds`` have passed, each followed
    by one-item passes that time set-up.  Interleaving spreads the set-up
    samples over the same stretch of time as the throughput samples."""
    tally = Tally()
    one_dir, full_dir = os.path.join(work, "one"), os.path.join(work, "full")
    one, full = prepare(workload, seed, 1, one_dir), prepare(workload, seed, n, full_dir)
    run_pass(workload, one, one_dir, tally)  # warm-up: bytecode cache, file cache
    walls, rss, setup = [], [], []
    start = time.perf_counter()
    while True:
        results = run_pass(workload, full, full_dir, tally)
        walls.append(sum(wall for _, wall, _ in results))
        rss.append(max(peak for _, _, peak in results))
        spent = []
        while len(spent) < SETUP_MIN or sum(spent) < SETUP_SHARE * walls[-1]:
            spent.append(sum(wall for _, wall, _ in run_pass(workload, one, one_dir, tally)))
        setup += spent
        if not fits(start, seconds, len(walls)):
            break
    rates = [n / wall for wall in walls]
    metrics = {
        # Items over the summed wall time of all passes: the host's speed
        # drifts over tens of seconds, and this weighs every second alike.
        "items_per_s": n * len(walls) / sum(walls),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup),
    }
    lines = [
        f"{workload}: seed={seed} items={n} passes={len(rates)} setup_passes={len(setup)}",
        f"  items_per_s {metrics['items_per_s']:12.3f} 1/s  over {len(rates)} passes"
        f" (pass median {statistics.median(rates):.3f}, min {min(rates):.3f}, max {max(rates):.3f})",
        f"  peak_rss_mb {metrics['peak_rss_mb']:12.3f} MB   largest of"
        f" {len(rates) * len(COMMANDS[workload])} CLI children",
        f"  setup_s     {metrics['setup_s']:12.5f} s    median of {len(setup)} one-item passes"
        f" (min {min(setup):.5f}, max {max(setup):.5f})",
        f"  fail_frac   {tally.failed / tally.attempted:12.4f}      {tally.failed} of"
        f" {tally.attempted} CLI invocations",
        "  output_sha256 " + " ".join(f"{k}={v}" for k, v in sorted(tally.digests.items())),
    ]
    return tally, metrics, lines


def traced_run(workload: str, seed: int, seconds: float, size: str, work: str) -> tuple[Tally, dict, list[str]]:
    """Traced run: each workload's per-layer metrics are read on its own
    composition, at the same size as its untraced run.  The other
    workloads' compositions run first, one round each, so that every
    per-layer metric is measured; the named workload's composition then
    alternates traced and untraced passes for ``seconds`` (``all`` shares
    them out evenly)."""
    sys.path.insert(0, str(ROOT / "src"))
    import igtpivot
    import layers

    if Path(igtpivot.__file__).resolve().parent != ROOT / "src" / "igtpivot":
        raise SystemExit(f"run.py: imported igtpivot from {igtpivot.__file__}, not from {ROOT / 'src'}")
    tally = Tally()
    tracer = layers.Tracer()
    values: dict[str, float] = {}
    rounds: dict[str, int] = {}
    overhead = 0.0
    order = sorted(COMMANDS, key=lambda w: w == workload)  # the named workload last
    for name in order:
        d = os.path.join(work, name)
        inputs = prepare(name, seed, items(name, size), d)
        for command, wall, _ in run_pass(name, inputs, d, tally):
            values[f"cli.{command}.s"] = wall
        budget = 0.0  # one round
        if name == workload:
            budget = seconds
        elif workload == "all":
            budget = seconds / len(order)

        def judge(outputs, problems, name=name, inputs=inputs):
            for command in COMMANDS[name]:
                tally.judge(command, inputs, outputs, problems)

        layer_values, overhead, rounds[name] = layers.measure(name, inputs["files"], budget, tracer, judge)
        values.update(
            (key, value) for key, value in layer_values.items()
            if key in LAYERS and LAYERS[key]["workload"] == name
        )
    values["trace.overhead_frac"] = overhead  # of the composition traced last
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
    tracer.write(str(trace_path))
    lines = [
        f"{workload}: seed={seed} traced; "
        + ", ".join(f"{w} {items(w, size)} items x {rounds[w]} rounds" for w in order),
        f"  tracing overhead {overhead:+.4f} (traced against untraced median wall time, {order[-1]})",
        f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}",
    ]
    metrics = {}
    for name, spec in LAYERS.items():
        metrics[name] = values[name]
        lines.append(f"  {name:38s} {values[name]:16.6f} {spec['unit']:6s} ({spec['workload']})")
    return tally, metrics, lines


def items(workload: str, size: str) -> int:
    return gen.SIZES[workload] if size == "full" else gen.SMOKE


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[Tally, dict, list[str]]:
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch)
    try:
        if trace:
            return traced_run(workload, seed, seconds, size, work)
        return timed_run(workload, seed, seconds, items(workload, size), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="igtpivot benchmark")
    parser.add_argument("--workload", choices=[*COMMANDS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size: full, or the smoke size for quick checks")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # child is killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "igtpivot" / "cli.py").is_file():
        print(f"run.py: no igtpivot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A traced run covers every composition; an untraced "all" runs each workload.
    workloads = list(COMMANDS) if args.workload == "all" and not args.trace else [args.workload]
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        tally, values, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size)
        print("\n".join(lines), flush=True)
        for problem in tally.problems[:10]:
            print(f"run.py: {workload}: {problem}", file=sys.stderr)
        attempted += tally.attempted
        failed += tally.failed
        for name, value in values.items():
            unit = LAYERS[name]["unit"] if args.trace else UNITS[name]
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
