"""README's reference names what the program takes and writes: the CLI
synopsis lists every flag of each command, the experiment config section
names every config key, the per-slot CSV table lists every `SlotResult`
field in column order, and the aggregate paragraph names every key of the
aggregate JSON."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from mmwassoc.cli import CONFIG_KEYS, build_parser
from mmwassoc.sim import SlotResult, aggregate

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_synopsis_lists_every_flag_of_each_command():
    block = README.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = {line.split()[1]: set(re.findall(r"--[\w-]+", line)) for line in block.splitlines()}
    commands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert synopsis == parsed


def test_readme_config_section_names_every_config_key():
    section = README.split("### Experiment config", 1)[1].split("\n### ", 1)[0]
    unnamed = [key for key in CONFIG_KEYS if f'"{key}"' not in section and f"`{key}`" not in section]
    assert not unnamed, f"README's experiment config section does not name {unnamed}"


def test_readme_names_every_slot_column_and_aggregate_key():
    table = README.split("Per-slot experiment CSV", 1)[1].split("\n\n")[1]
    first_cells = [row.split("|")[1] for row in table.splitlines()[2:]]
    columns = [name for cell in first_cells for name in re.findall(r"`(\w+)`", cell)]
    assert columns == [f.name for f in fields(SlotResult)]

    paragraph = README.split("The aggregate JSON", 1)[1].split("\n\n")[0]
    # one feasible slot where the oracle ran: every metric is set
    slot = SlotResult(slot=0, feasible=True, **{f.name: 0.5 for f in fields(SlotResult)[2:]})
    unnamed = [key for key in aggregate([slot]) if f"`{key}`" not in paragraph]
    assert not unnamed, f"README's aggregate paragraph does not name {unnamed}"
