"""README's Configuration table lists exactly the settings rows.

The table is what users read; ``repro.settings.KNOBS`` is what the
code does.  Every row must appear once, in table order, with the same
environment variable, the same default as ``--help`` prints it and
the row's doc as its meaning (markdown backticks aside).
"""

from __future__ import annotations

from pathlib import Path

from repro.settings import KNOBS

README = Path(__file__).resolve().parents[2] / "README.md"


def _configuration_rows() -> dict[str, list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `REPRO_"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            assert cells[0].strip("`") not in rows, cells[0]
            rows[cells[0].strip("`")] = cells
    return rows


def test_readme_lists_every_knob_once_in_table_order():
    rows = _configuration_rows()
    assert list(rows) == [knob.env for knob in KNOBS.values()]


def test_readme_defaults_and_meanings_match_the_table():
    rows = _configuration_rows()
    for knob in KNOBS.values():
        cells = rows[knob.env]
        assert len(cells) == 4, cells
        assert cells[2].replace("`", "") == knob.default_text, knob.name
        assert cells[3].replace("`", "") == knob.doc, knob.name
