"""Every CLI subcommand renders its ``--help`` without raising.

argparse %-formats help strings, so a stray ``%`` in an option's help text
only fails when someone asks for ``--help``; this renders them all.
"""

import argparse

import pytest

from repro.cli import build_parser


def _subcommands(parser, prefix=()):
    """``(command words, parser)`` for every subcommand, nested included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                words = prefix + (name,)
                yield words, sub
                yield from _subcommands(sub, words)


_COMMANDS = {" ".join(words): sub for words, sub in _subcommands(build_parser())}


def test_every_top_level_command_is_covered():
    top_level = [name for name in _COMMANDS if " " not in name]
    assert len(top_level) >= 17
    assert {"run", "store", "serve", "lint", "obs", "bench",
            "figure3"} <= set(top_level)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_renders(command):
    text = _COMMANDS[command].format_help()
    assert text.startswith("usage: repro ")
    assert command.split()[-1] in text
