"""The README's examples run as shown, and its usage lines match the parser.

The Library block is executed.  Every shell session in a plain fenced block
(lines that start with ``$ ``) runs through ``cli.main`` in a scratch
directory that holds the quick start's ``fibered.json``: each command's
printed lines must be the lines the README shows under it, where a ``...``
line stands for any number of lines, and ``$ echo $?`` shows the exit code
of the command before it.
"""

import argparse
import io
import re
import shlex
import textwrap
from pathlib import Path

import pytest

from gmsurf.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
FENCE = re.compile(r"^( *)```(\w*)\n(.*?)^\1```", re.M | re.S)
BLOCKS = [(m.group(2), textwrap.dedent(m.group(3))) for m in FENCE.finditer(README)]
SESSIONS = [text for language, text in BLOCKS if not language and text.startswith("$ ")]
USAGE = re.compile(r"^`gmsurf (\w+) ([^`]*)`", re.M)
QUICK_START = re.search(r"Write a manifold file `(\S+)`:\s*```json\n(.*?)```", README, re.S)


def test_the_readme_shows_the_examples_this_test_runs():
    assert [text for language, text in BLOCKS if language == "python"]
    commands = [line for text in SESSIONS for line in text.splitlines() if line.startswith("$ ")]
    for example in ("gmsurf analyze fibered.json", "| gmsurf matrix --out", "gmsurf cover find"):
        assert any(example in command for command in commands), example
    assert QUICK_START is not None


def usage_actions(text: str) -> list[tuple[str, ...]]:
    """The `a|b` lists of lowercase words in a usage line that are not an
    option's value: the choices of its positional arguments, in order."""
    tokens = text.replace("[", " ").replace("]", " ").split()
    return [
        tuple(token.split("|"))
        for before, token in zip([""] + tokens, tokens)
        if re.fullmatch(r"[a-z]+(\|[a-z]+)+", token) and not before.startswith("--")
    ]


def test_each_usage_line_names_exactly_its_commands_options():
    """A line that opens with `gmsurf CMD ...` is CMD's usage line: one per
    subcommand, naming every option the parser gives CMD and no other, and
    listing as `a|b` exactly the choices of each positional argument."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    usage, actions = {}, {}
    for command, text in USAGE.findall(README):
        assert command not in usage, f"second usage line for {command}"
        usage[command] = set(re.findall(r"--[a-z][a-z-]*", text))
        actions[command] = usage_actions(text)
    options = {
        command: {o for action in parser._actions for o in action.option_strings} - {"-h", "--help"}
        for command, parser in commands.choices.items()
    }
    choices = {
        command: [tuple(a.choices) for a in parser._actions if not a.option_strings and a.choices]
        for command, parser in commands.choices.items()
    }
    assert usage == options
    assert actions == choices
    assert actions["cover"] == [("check", "find")]


def test_library_block_runs():
    (code,) = [text for language, text in BLOCKS if language == "python"]
    exec(compile(code, "README.md", "exec"), {})


def run(command: str, monkeypatch) -> int:
    """Run ``[echo 'TEXT' |] gmsurf ARGS`` through ``cli.main``."""
    stdin = ""
    if " | " in command:
        echo, command = command.split(" | ", 1)
        (stdin,) = shlex.split(echo.removeprefix("echo "))
    argv = shlex.split(command)
    assert argv[0] == "gmsurf", command
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin + "\n"))
    return main(argv[1:])


def shown(lines: list[str]) -> re.Pattern:
    """The pattern of the shown output lines, ``...`` matching any lines."""
    return re.compile("".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in lines))


@pytest.mark.parametrize("session", SESSIONS, ids=lambda text: text.splitlines()[0][2:40])
def test_shell_session_prints_what_the_readme_shows(session, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name, text = QUICK_START.groups()
    (tmp_path / name).write_text(text)
    steps: list[tuple[str, list[str]]] = []
    for line in session.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    code = None
    for command, expected in steps:
        if command == "echo $?":
            assert expected == [str(code)], command
            continue
        code = 0
        for part in command.split(" && "):
            code = run(part, monkeypatch)
            if code:
                break
        out = capsys.readouterr().out
        assert shown(expected).fullmatch(out), f"{command}\n--- shown ---\n" + "\n".join(expected) + f"\n--- printed ---\n{out}"
