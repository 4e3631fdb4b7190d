"""What a command pays before it reads its first line: the modules it
imports and the argument parser it builds.

No module of the package imports ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``); a command's arguments are
added only when that command is parsed; and the help texts and usage
errors stay what they were when both were built up front
(``golden_help.json`` holds every help text at 80 columns)."""

import argparse
import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rstkit
from rstkit import cli as cli_mod
from rstkit.cli import main

SRC = Path(rstkit.__file__).parents[1]
GOLDEN_HELP = json.loads((Path(__file__).parent / "golden_help.json").read_text("utf-8"))
COMMANDS = [name for name in GOLDEN_HELP if name != "rstkit"]


def test_no_module_imports_dataclasses():
    # crf needs numpy from site-packages, so it cannot run under -S below
    found = []
    for path in sorted((SRC / "rstkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "dataclasses"]
    assert found == []


def test_import_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys\n"
        "import rstkit.cli, rstkit.core, rstkit.treebank, rstkit.decoder\n"
        "import rstkit.metrics, rstkit.preprocess\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, timeout=60, env={"PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _parsers_built_by(argv, monkeypatch) -> dict[str, list[str]]:
    """Each subcommand's actions other than ``-h`` once ``main(argv)`` ran."""
    built, build = [], cli_mod.build_parser

    def recording_build_parser():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli_mod, "build_parser", recording_build_parser)
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    (parser,) = built
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            for name, sub in commands.choices.items()}


def test_version_builds_no_command_arguments(monkeypatch):
    actions = _parsers_built_by(["--version"], monkeypatch)
    assert list(actions) == COMMANDS
    assert actions == {name: [] for name in COMMANDS}


def test_a_command_builds_only_its_own_arguments(monkeypatch):
    actions = _parsers_built_by(["dump-remap-table"], monkeypatch)
    assert actions.pop("dump-remap-table") == ["output"]
    assert actions == {name: [] for name in COMMANDS if name != "dump-remap-table"}


@pytest.mark.parametrize("name", list(GOLDEN_HELP))
def test_help_text_is_unchanged(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(([] if name == "rstkit" else [name]) + ["--help"]) == 0
    assert capsys.readouterr().out == GOLDEN_HELP[name]


@pytest.mark.parametrize("argv, message", [
    (["convert", "in.rs3"], "rstkit convert: error: the following arguments are "
                            "required: -o/--output\n"),
    (["parse", "in.jsonl", "-o", "out.jsonl"], "rstkit parse: error: one of the "
     "arguments --oracle --baseline --scores is required\n"),
    (["parse", "in.jsonl", "-o", "out", "--oracle", "--baseline", "joint_NN"],
     "rstkit parse: error: argument --baseline: not allowed with argument --oracle\n"),
    (["stats"], "rstkit stats: error: the following arguments are required: input\n"),
    ([], "rstkit: error: the following arguments are required: command\n"),
])
def test_usage_errors_exit_1(argv, message, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: rstkit") and err.endswith(message)
