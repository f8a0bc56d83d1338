"""Start-up: the modules that a bare import and each ``igt`` command load.

Every ``igt`` run starts a fresh interpreter, and each module it imports is
paid for on every run.  ``import igtpivot`` resolves its exports on first
access, and each command handler imports only the modules it runs.  These
checks run each case in a fresh interpreter, since this one has long since
imported everything: a new top-level import fails here, and so does an
import inside a handler that no longer resolves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# stdlib modules that only one rare path needs: Model 1 training's DEBUG
# record, and a cmd: translator's process
WATCHED = ("logging", "subprocess")

_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    f" if m.partition('.')[0] == 'igtpivot' or m in {WATCHED!r})))\n"
)


def _loaded(code, *args, cwd=None):
    """The ``igtpivot`` and watched modules loaded once ``code`` has run in a
    fresh interpreter given ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code + _LOADED, *args],
        capture_output=True, encoding="utf-8", env=env, cwd=cwd, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def preloaded():
    """What an interpreter loads before running any code: a site hook may
    import a watched module, which no command is then to blame for."""
    return _loaded("")


def _package(*modules):
    return {"igtpivot", *(f"igtpivot.{m}" for m in modules)}


CLI = ("cli", "errors", "model")


def test_bare_import_loads_no_submodule(preloaded):
    assert _loaded("import igtpivot\n") - preloaded == {"igtpivot"}


def test_building_the_parser_loads_only_the_cli_errors_and_model(preloaded):
    code = "from igtpivot.cli import build_parser\nbuild_parser()\n"
    assert _loaded(code) - preloaded == _package(*CLI)


def test_importing_normalize_loads_no_parsing():
    # normalize names the analyzer token only in annotations; the tokenizer
    # imports normalize for the default labels, not the other way round
    assert "igtpivot.parsing" not in _loaded("import igtpivot.normalize\n")


INPUTS = {
    "igt.txt": "ev-ler\nhouse-PL\nhouses\n",
    "toolbox.txt": "\\t ev-ler\n\\g house-PL\n\\f houses\n",
    "corpus.txt": "id=odin-0001\tlang=tur\tsrc=ev-ler\tgloss_tgt=house-PL\ttgt=houses\n",
    "src.txt": "tur house-PL\n",
    "tgt.txt": "houses\n",
    "ttable.tsv": "# iterations=5\n# null_word=false\n# final_perplexity=2.0\n"
                  "house-pl\thouses\t0.5\ntur\thouses\t0.5\n",
    "analyzer.txt": "gel+Verb+Past\n",
    "gloss.txt": "gel-PST\n",
    "dict.tsv": "gel\tcome\n",
}

# the gloss stages tokenize glosses with the default labels; the corpus
# commands read and write gloss words, which need no labels
PIPELINE = ("pipeline", "parsing", "normalize", "tables")
WORDS = ("parsing",)

# each command: its arguments, the submodules it loads beyond CLI's, and
# the watched modules it loads; output goes to stdout unless a flag is required
COMMANDS = {
    "parse-odin": (["--in", "igt.txt", "--lang", "tur"], WORDS, set()),
    "parse-toolbox": (["--in", "toolbox.txt", "--lang", "tur"], WORDS, set()),
    "parse-analyzer": (["--in", "analyzer.txt"], PIPELINE, set()),
    "normalize": (["--in", "gloss.txt"], PIPELINE, set()),
    "split": (
        ["--in", "corpus.txt", "--train-out", "a", "--valid-out", "b", "--test-out", "c"],
        WORDS, set(),
    ),
    "align": (
        ["--src", "src.txt", "--tgt", "tgt.txt", "--ttable-out", "t.tsv"], ("align",), {"logging"},
    ),
    "dict": (["--ttable", "ttable.tsv"], ("align",), set()),
    "subst": (["--in", "gloss.txt", "--dict", "dict.tsv"], ("align", *PIPELINE), set()),
    "prepare-multi": (["--in", "corpus.txt", "--src-out", "s", "--tgt-out", "t"], WORDS, set()),
    "pivot": (
        ["--analyzer-out", "analyzer.txt", "--dict", "dict.tsv", "--translator", "baseline",
         "--report", "report.txt"],
        ("align", *PIPELINE), set(),
    ),
    "eval": (["--hyp", "tgt.txt", "--ref", "tgt.txt"], ("metrics", "inflect"), set()),
    "dump-table": ([], ("tables",), set()),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_the_modules_it_runs(command, preloaded, tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    args, modules, watched = COMMANDS[command]
    code = (
        "import sys\nfrom igtpivot.cli import main\n"
        "if main(sys.argv[1:]) != 0:\n    raise SystemExit('exit code not 0')\n"
    )
    loaded = _loaded(code, command, *args, cwd=tmp_path) - preloaded
    assert loaded == _package(*CLI, *modules) | watched
