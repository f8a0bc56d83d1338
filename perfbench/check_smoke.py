"""Smoke tests of the benchmark itself, at smoke size:

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps these tests out of the repository's default test run.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


@pytest.mark.parametrize("workload", sorted(run.COMMANDS))
def test_workload_passes_its_checks(workload):
    code, result, stderr = _bench("--workload", workload, "--seed", "5")
    assert code == 0, stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1, stderr
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("workload", sorted(run.COMMANDS))
def test_traced_run_reports_every_per_layer_metric(workload):
    code, result, stderr = _bench("--workload", workload, "--seed", "5", "--trace", "1")
    assert code == 0, stderr
    assert result["correct"], stderr
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert (ROOT / ".perfbench_out" / f"trace-{workload}-seed5.json").is_file()


def _swap(text: str) -> str:
    lines = text.splitlines(keepends=True)
    i = next(i for i in range(len(lines) - 1) if lines[i] != lines[i + 1])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "".join(lines)


def _drop(text: str) -> str:
    lines = text.splitlines(keepends=True)
    del lines[len(lines) // 2]
    return "".join(lines)


CORRUPTIONS = [
    ("pivot", "pivot", "out.txt", _drop),
    ("pivot", "pivot", "out.txt", _swap),
    ("pivot", "pivot", "report.txt", lambda t: t.split("\n", 1)[1]),
    ("corpus", "parse-odin", "corpus.igt", _drop),
    ("corpus", "prepare-multi", "multi.src", _swap),
    ("corpus", "prepare-multi", "multi.tgt", _drop),
    ("corpus", "align", "ttable.out.tsv", _drop),
    ("corpus", "align", "dict.out.tsv", _drop),
    ("corpus", "align", "dict.out.tsv", _swap),
    ("corpus", "dict", "dict.strict.tsv", _drop),
    ("corpus", "dict", "dict.strict.tsv", _swap),
    ("corpus", "eval", "eval.txt", lambda t: t.split("\n", 1)[1]),
]


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Each workload's inputs and the CLI's outputs at smoke size."""
    out = {}
    for workload in run.COMMANDS:
        d = str(tmp_path_factory.mktemp(workload))
        inputs = run.prepare(workload, 3, gen.SMOKE, d)
        tally = run.Tally()
        run.run_pass(workload, inputs, d, tally)
        assert tally.failed == 0, tally.problems
        texts = {}
        for command in run.COMMANDS[workload]:
            for name in run.OUTPUTS[command]:
                texts[name] = Path(d, name).read_text(encoding="utf-8")
        out[workload] = (inputs, texts)
    return out


@pytest.mark.parametrize("workload,command,name,corrupt", CORRUPTIONS)
def test_corrupted_output_counts_as_failure(smoke_outputs, workload, command, name, corrupt):
    inputs, texts = smoke_outputs[workload]
    tally = run.Tally()
    assert tally.judge(command, inputs, texts)
    assert not tally.judge(command, inputs, dict(texts, **{name: corrupt(texts[name])}))
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("workload", sorted(run.COMMANDS))
def test_missing_output_counts_as_failure(tmp_path, monkeypatch, workload):
    d = str(tmp_path)
    inputs = run.prepare(workload, 3, gen.SMOKE, d)
    tally = run.Tally()
    run.run_pass(workload, inputs, d, tally)
    assert tally.failed == 0, tally.problems
    # Every command now exits 0 and writes nothing: the first pass's files
    # must not be checked in their place, and nothing may raise.
    monkeypatch.setattr(run, "run_cli", lambda argv, workdir: (0.0, 0.0, 0, ""))
    run.run_pass(workload, inputs, d, tally)
    commands = len(run.COMMANDS[workload])
    assert (tally.attempted, tally.failed) == (2 * commands, commands)
    assert all("cannot read" in p for p in tally.problems)


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_same_seed_same_inputs(workload):
    make = gen.GENERATORS[workload]
    assert make(7, gen.SMOKE) == make(7, gen.SMOKE)
    assert make(7, gen.SMOKE)["files"] != make(8, gen.SMOKE)["files"]


def test_generated_words_are_lemmas():
    sys.path.insert(0, str(ROOT / "src"))
    from igtpivot.normalize import default_label_registry, default_table

    registry = {label.upper() for label in default_label_registry()}
    restored = set(default_table().restore_map)
    for word in gen.words(random.Random(0), 20000):
        assert word.upper() not in registry and word not in restored


def test_dictionary_extraction_breaks_ties_to_the_smaller_target():
    rows = [("a", "y", 0.5), ("a", "x", 0.5), ("b", "z", 0.2), ("b", checks.NULL_TOKEN, 0.9)]
    assert checks.dictionary_text(rows, 0.0) == "a\tx\t0.5\nb\tz\t0.2\n"
    assert checks.dictionary_text(rows, 0.3) == "a\tx\t0.5\n"


def test_self_time_subtracts_child_spans():
    sys.path.insert(0, str(ROOT / "src"))
    import layers

    tracer = layers.Tracer()
    with tracer.span("root"):
        tracer.call("child", sum, range(10000))
        tracer.call("child", sum, range(10000))
    own = tracer.self_times()
    (_, start, end, parent), children = tracer.spans[0], tracer.spans[1:]
    assert parent == -1 and all(c[3] == 0 for c in children)
    assert own[0] == pytest.approx((end - start) - sum(c[2] - c[1] for c in children))


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.COMMANDS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: spec["unit"] for name, spec in run.LAYERS.items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    code, result, _ = _bench("--workload", "pivot", cwd=tmp_path)
    assert code != 0 and result is None
    assert sorted(os.listdir(tmp_path)) == sorted(["BENCHMARK.json", *BENCHMARK["paths"]])
