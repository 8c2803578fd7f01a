"""README's examples stay in step with the code: every command-line example
parses, every flag it names is an option, and every library name it uses is
public."""

import argparse
import re
import shlex
from pathlib import Path

import mvclust
from mvclust.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

# lines that run other programs, whose flags are not mvclust's
OTHER_PROGRAMS = re.compile(r"^(pip|pytest|python3?) ")


def code_block(section: str) -> str:
    """The first fenced block under the `## <section>` heading."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.compile(r"```\w*\n(.*?)```", re.S).search(text, start)
    return match.group(1)


def test_command_line_examples_parse():
    block = code_block("Command line").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mvclust ")]
    assert {argv[0] for argv in commands} == {"cluster", "sweep", "synth"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_library_example_names_are_public():
    names = set(re.findall(r"\bmv\.(\w+)", code_block("Library")))
    assert "fit" in names
    assert sorted(names - set(mvclust.__all__)) == []


def test_flags_named_are_options():
    # prose and code blocks alike: a removed flag must leave README too
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = set(parser._option_string_actions)
    for sub in subparsers.choices.values():
        options |= set(sub._option_string_actions)
    lines = [line for line in README.read_text().splitlines() if not OTHER_PROGRAMS.match(line)]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", "\n".join(lines)))
    assert {"--out", "--seed"} <= named
    assert sorted(named - options) == []
