"""Markdown report generation: what ``repro report`` writes.

Given experiment specs and their result tables, render the
paper-vs-measured record, one section per experiment with its claim,
reference and table::

    python -m repro report --scale small --out MY_RESULTS.md
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec

__all__ = ["render_experiment_section", "render_experiments_markdown"]


def render_experiment_section(
    spec: ExperimentSpec,
    table: ResultTable,
    conclusion: str | None = None,
) -> str:
    """Render one experiment as a markdown section."""
    lines = [
        f"## {spec.experiment_id} — {spec.title}",
        "",
        f"**Paper claim ({spec.reference}).** {spec.claim}",
        "",
        "**Measured.**",
        "",
        "```",
        table.render(),
        "```",
    ]
    if conclusion:
        lines += ["", f"**Verdict.** {conclusion}"]
    lines.append("")
    return "\n".join(lines)


def render_experiments_markdown(
    sections: Sequence[tuple[ExperimentSpec, ResultTable]],
    preamble: str = "",
    conclusions: Mapping[str, str] | None = None,
) -> str:
    """Render the full experiments report.

    ``conclusions`` maps experiment ids to verdict strings (what the
    numbers show relative to the paper's asymptotic claim).
    """
    conclusions = conclusions or {}
    parts = []
    if preamble:
        parts.append(preamble.rstrip() + "\n")
    for spec, table in sections:
        parts.append(
            render_experiment_section(
                spec, table, conclusions.get(spec.experiment_id)
            )
        )
    return "\n".join(parts)
