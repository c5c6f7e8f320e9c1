"""Result tables produced by experiments.

A :class:`ResultTable` is the unit of output: one table per experiment
run, with paper-style rows, free-form notes (fitted exponents, threshold
estimates, theory overlays) and CSV export.  Benchmarks print
``table.render()``; ``repro report`` writes the rendered output next to
the paper's claims.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.util.tables import render_table, write_csv

__all__ = ["ResultTable"]


class ResultTable:
    """Rows + notes for one experiment run."""

    def __init__(
        self,
        experiment_id: str,
        title: str,
        columns: Sequence[str] | None = None,
    ) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.columns = list(columns) if columns is not None else None
        self.rows: list[dict] = []
        self.notes: list[str] = []

    def add_row(self, **cells: object) -> None:
        """Append one row (keyword arguments become columns)."""
        if self.columns is not None:
            unknown = set(cells) - set(self.columns)
            if unknown:
                raise ValueError(
                    f"row has columns {sorted(unknown)} outside the declared "
                    f"schema {self.columns}"
                )
        self.rows.append(dict(cells))

    def add_note(self, note: str) -> None:
        """Append a free-form note shown under the table."""
        self.notes.append(note)

    def column(self, name: str) -> list:
        """Return one column as a list (missing cells excluded)."""
        return [row[name] for row in self.rows if name in row]

    def filtered(self, **match: object) -> list[dict]:
        """Return rows whose cells equal all given key/values."""
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in match.items())
        ]

    def render(self) -> str:
        """Render title, table and notes as printable text."""
        header = f"[{self.experiment_id}] {self.title}"
        parts = [render_table(self.rows, columns=self.columns, title=header)]
        for note in self.notes:
            parts.append(f"  * {note}")
        return "\n".join(parts)

    def to_csv(self, directory: str | Path) -> Path:
        """Write rows as ``<directory>/<experiment_id>.csv``; return path."""
        path = Path(directory) / f"{self.experiment_id.lower()}.csv"
        return write_csv(path, self.rows, columns=self.columns)

    def __len__(self) -> int:
        return len(self.rows)
