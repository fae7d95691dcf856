"""The README's CLI examples stay valid: every ``rankfair`` command in the
first code block under ``## CLI`` parses with the CLI's own parser."""

import re
import shlex
from pathlib import Path

import pytest

from rankfair import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[str]:
    """The commands of the ``## CLI`` code block, each with its
    ``\\``-continued lines joined; blank and comment lines are dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.strip() and line[0] != "#"]


EXAMPLES = cli_examples()


def test_every_example_is_a_rankfair_command():
    assert len(EXAMPLES) >= 7
    assert all(command.startswith("rankfair ") for command in EXAMPLES)


@pytest.mark.parametrize("command", EXAMPLES)
def test_example_parses(command):
    argv = shlex.split(command)[1:]
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README example does not parse: {command}")
    assert args.command == argv[0]
