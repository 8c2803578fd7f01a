"""README's examples stay in step with the code: every command-line example
parses, and every library name it uses is public."""

import re
import shlex
from pathlib import Path

import mvclust
from mvclust.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


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
    assert "fit_with_restarts" in names
    assert sorted(names - set(mvclust.__all__)) == []
