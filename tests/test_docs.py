"""Docs checks: commands parse, flags exist, links resolve.

The lightweight runner behind the `docs` CI job.  It extracts every
``repro …`` / ``python -m repro …`` line from fenced code blocks in
``docs/*.md`` and ``README.md`` and verifies it parses against the
real argument parser (`--help`-level verification: no scenario is
executed), it checks that every ``--flag`` the docs mention anywhere
(prose included) is a flag some ``repro`` subcommand actually accepts,
and it checks that every relative markdown link points at a file that
exists.  Documentation that drifts from the CLI fails CI.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

FENCE = re.compile(r"```.*?\n(.*?)```", re.DOTALL)
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG = re.compile(r"--[a-zA-Z][a-zA-Z0-9-]*")

#: long options mentioned in docs that belong to other tools we
#: document invoking (add here deliberately, never to paper over a
#: renamed repro flag)
FOREIGN_FLAGS: frozenset = frozenset()


def fenced_blocks(text: str):
    return [match.group(1) for match in FENCE.finditer(text)]


def repro_commands(path: Path):
    """Every ``repro``/``python -m repro`` command line in code blocks,
    with shell continuations joined and ``$`` prompts stripped."""
    commands = []
    for block in fenced_blocks(path.read_text(encoding="utf-8")):
        joined = block.replace("\\\n", " ")
        for line in joined.splitlines():
            line = line.strip()
            if line.startswith("$ "):
                line = line[2:]
            for prefix in ("python -m repro ", "repro "):
                if line.startswith(prefix):
                    commands.append(line[len(prefix):])
                    break
    return commands


def test_docs_exist():
    for name in ("architecture.md", "scenarios.md", "sharding.md",
                 "cli.md", "executors.md", "operations.md",
                 "results.md", "traffic.md", "kernel.md",
                 "admission.md", "optimizer.md"):
        assert (REPO / "docs" / name).is_file(), name
    assert DOC_FILES, "no documentation files found"


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_documented_commands_parse(path):
    """Every documented `repro` invocation must parse cleanly."""
    commands = repro_commands(path)
    if path.name in ("cli.md", "sharding.md", "executors.md",
                     "operations.md", "results.md", "traffic.md"):
        assert commands, f"{path.name} documents no repro commands"
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command, comments=True)
        try:
            parser.parse_args(argv)
        except SystemExit as exc:  # argparse reports errors via exit(2)
            pytest.fail(f"{path.name}: `repro {command}` does not "
                        f"parse (exit {exc.code})")


def parser_flags(parser=None) -> set:
    """Every long option any (sub)command accepts, walked recursively."""
    parser = parser or build_parser()
    flags = set()
    stack = [parser]
    while stack:
        current = stack.pop()
        for action in current._actions:
            flags.update(option for option in action.option_strings
                         if option.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return flags


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_documented_flags_exist(path):
    """Every `--flag` the docs mention — in prose or code — must be
    accepted by some repro subcommand.  A flag renamed or removed in
    the CLI fails here instead of lingering as stale documentation."""
    known = parser_flags() | FOREIGN_FLAGS
    text = path.read_text(encoding="utf-8")
    stale = sorted({flag for flag in FLAG.findall(text)
                    if flag not in known})
    assert not stale, (
        f"{path.name} references flag(s) no repro command accepts: "
        f"{', '.join(stale)}")


def parser_commands(parser=None) -> list:
    """Every command the parser offers: each top-level subcommand, and
    for a command family (``scenarios``, ``results`` …) each member."""
    parser = parser or build_parser()
    commands = []
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub_parser in action.choices.items():
            members = parser_commands(sub_parser)
            commands.extend([f"{name} {member}" for member in members]
                            or [name])
    return commands


def test_cli_reference_covers_every_subcommand():
    """docs/cli.md must document every command the parser offers —
    derived from ``build_parser()``, so a new command is checked the
    day it lands and a removed one stops being required."""
    text = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
    commands = parser_commands()
    assert "scenarios run" in commands and "traces synth" in commands
    for command in commands:
        assert f"repro {command}" in text, f"cli.md misses {command!r}"


def test_results_doc_version_claims_match_code():
    """Every version number docs/results.md claims must be the one the
    code exports, and the schema-history appendix must cover every
    artifact schema that ever existed.  A bumped constant without a
    matching doc edit fails here.  The same holds for the wall-clock
    gate's bound, whose one source is ``BENCHMARK.json``."""
    from repro.experiments.runner import ARTIFACT_SCHEMA
    from repro.results.warehouse import WAREHOUSE_SCHEMA
    from repro.scenarios.spec import SPEC_FORMAT_VERSION

    text = (REPO / "docs" / "results.md").read_text(encoding="utf-8")
    for name, current in (("artifact schema", ARTIFACT_SCHEMA),
                          ("spec format version", SPEC_FORMAT_VERSION),
                          ("warehouse schema", WAREHOUSE_SCHEMA)):
        claims = re.findall(
            rf"current {name} is \*\*(\d+)\*\*", text)
        assert claims, f"results.md never states the current {name}"
        assert all(int(claim) == current for claim in claims), (
            f"results.md claims the current {name} is "
            f"{claims}, code says {current}")
    contract = json.loads(
        (REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {round(metric["bound"] * 100)
              for metric in contract["end_to_end"]}
    assert len(bounds) == 1, (
        f"end-to-end bounds differ ({sorted(bounds)}); results.md "
        f"states one")
    assert f"the gate's bound is **{bounds.pop()}%**" in text, (
        "results.md's bound claim does not match BENCHMARK.json")
    for schema in range(1, ARTIFACT_SCHEMA + 1):
        assert f"### Schema {schema}" in text, (
            f"results.md appendix misses artifact schema {schema}")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    """Relative markdown links must point at files that exist."""
    text = path.read_text(encoding="utf-8")
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), \
            f"{path.name}: broken link -> {match.group(1)}"
