"""README's output reference names what the program writes: the per-slot
CSV table lists every `SlotResult` field in column order, and the aggregate
paragraph names every key of the aggregate JSON."""

import re
from dataclasses import fields
from pathlib import Path

from mmwassoc.sim import SlotResult, aggregate

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
