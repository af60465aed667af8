"""Every ``repro`` flag is exercised by a test.

A flag that no test passes is behaviour nobody checks: it can break, or
stop meaning anything, unseen.  This walks ``build_parser()`` through
every subcommand and fails on a ``--flag`` whose name appears in no file
under ``tests/``.  Give a new flag a test, or do not add it.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path
from typing import Iterator, Tuple

from repro.cli import build_parser

TESTS = Path(__file__).resolve().parent


def flags(parser: argparse.ArgumentParser, command: str = "repro") -> Iterator[Tuple[str, str]]:
    """``(command path, --flag)`` for every long option under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from flags(sub, f"{command} {name}")
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                yield command, option


def test_every_flag_is_named_by_a_test():
    text = "\n".join(path.read_text() for path in sorted(TESTS.rglob("*.py")))
    unnamed = sorted(
        f"{command} {flag}"
        for command, flag in set(flags(build_parser()))
        if not re.search(re.escape(flag) + r"(?![\w-])", text)
    )
    assert unnamed == []
