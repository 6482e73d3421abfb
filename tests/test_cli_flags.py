"""Each command takes only the override flags its handler reads.

An override flag is any option of a subcommand's "configuration" group other
than ``--config``; it sets one ``HarnessConfig`` field, and the command's
``_cmd_*`` handler must read that field as ``config.<field>``.  README's
config key table names every field.
"""

import argparse
import ast
import dataclasses
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from spheredet import HarnessConfig
from spheredet.cli import build_parser

FIELD_OF_FLAG = {"tau_siou": "nms", "tau_dr": "nms"}  # other flags set the field they name
FIELDS = {f.name for f in dataclasses.fields(HarnessConfig)}
(SUBCOMMANDS,) = [
    action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
]
COMMANDS = SUBCOMMANDS.choices  # name -> subparser


def configuration_options(parser):
    (group,) = [g for g in parser._action_groups if g.title == "configuration"]
    return list(group._group_actions)


def config_fields_read(source):
    """Attribute names that ``source`` reads from a name ``config``."""
    tree = ast.parse(textwrap.dedent(source))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "config"
    }


def test_reader_finds_config_fields():
    source = "def f(a):\n    config = load(a)\n    return config.top_n + config.nms.tau_dr, a.k\n"
    assert config_fields_read(source) == {"top_n", "nms"}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_override_flag_is_read_by_its_command(name):
    parser = COMMANDS[name]
    read = config_fields_read(inspect.getsource(parser.get_default("handler")))
    for action in configuration_options(parser):
        if action.dest == "config":
            continue
        field = FIELD_OF_FLAG.get(action.dest, action.dest)
        assert field in FIELDS, action.option_strings
        assert field in read, f"{name} {action.option_strings[0]} sets unread field {field}"


@pytest.mark.parametrize(
    "name,options",
    [
        ("gradsim", []),
        ("froc", []),
        ("synth", ["--seed"]),
        ("assign", ["--k", "--n"]),
        ("detect", ["--top-n", "--tau-siou", "--tau-dr"]),
    ],
)
def test_configuration_options_per_command(name, options):
    flags = [action.option_strings[0] for action in configuration_options(COMMANDS[name])]
    assert flags == ["--config"] + options


def test_readme_key_table_names_every_config_field():
    # The dataclasses are the config schema; README's key table is the only
    # other list of keys, so it must name exactly their (dotted) fields.
    fields, config = [], HarnessConfig()
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            fields += [f"{f.name}.{sub.name}" for sub in dataclasses.fields(value)]
        else:
            fields.append(f.name)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | flag | read by |\n| --- | --- | --- |\n")[1].split("\n\n")[0]
    keys = [key for row in table.splitlines() for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(fields)
