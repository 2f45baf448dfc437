"""The README's flag list and CSV schemas match what the command line does."""

from __future__ import annotations

import argparse
import functools
import importlib
import re
from pathlib import Path

import pytest

from m2mpool.cli import SCHEMAS, build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# every backticked dotted name of the package, with or without `m2mpool.`
CODE_NAMES = sorted(set(re.findall(
    r"`((?:m2mpool|analytic|cli|errors|lte|numerics|sim)(?:\.\w+)+)`", README)))

# one small run of each command, for the header it writes
COMMANDS = {
    "dimension": ["dimension"],
    "validate-clt": ["validate-clt", "--pe", "0.1", "--runs", "50"],
    "simulate": ["simulate", "--devices", "100", "--runs", "10"],
    "sweep": ["sweep", "--sweep", "devices:1000:1000:1"],
}


def parser_flags() -> set[str]:
    """Every long option of every subcommand, --help aside."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(COMMANDS)
    return {flag for sub in commands.choices.values() for action in sub._actions
            for flag in action.option_strings if flag.startswith("--") and flag != "--help"}


def test_flags_paragraph_names_exactly_the_parser_flags():
    start = README.index("\nFlags:")
    paragraph = README[start:README.index("\n\n", start)]
    assert set(re.findall(r"--[a-z][a-z0-9-]*", paragraph)) == parser_flags()


def test_csv_schemas_are_the_headers_written(tmp_path):
    schemas = dict(re.findall(r"^- `([a-z-]+)`: `([^`]+)`$", README, flags=re.MULTILINE))
    assert schemas == {command: schema.header for command, schema in SCHEMAS.items()}
    assert set(schemas) == set(COMMANDS)
    for command, args in COMMANDS.items():
        out = tmp_path / f"{command}.csv"
        assert main([*args, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == schemas[command], command


def test_schema_paragraph_names_where_the_schemas_live():
    start = README.index("\nCSV schemas")
    assert "`m2mpool.cli.SCHEMAS`" in README[start:README.index("\n\n", start)]


def test_the_readme_names_code():
    assert "m2mpool.sim.sample_demand" in CODE_NAMES and "numerics.q_inverse" in CODE_NAMES


@pytest.mark.parametrize("name", CODE_NAMES)
def test_each_code_name_resolves(name):
    module, *attributes = name.removeprefix("m2mpool.").split(".")
    functools.reduce(getattr, attributes, importlib.import_module(f"m2mpool.{module}"))
