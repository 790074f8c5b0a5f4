"""Result tables and series for the experiments.

Every experiment's ``assemble`` phase builds its result tables and
``repro run`` prints them, so regenerated experiments come out as the
rows/series the paper's claims are stated in.  Formatting is plain
monospace text (no deps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ResultTable", "format_quantity"]


_SUFFIX_SCALES = (
    (1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K"),
    # the [1e-2, 1e3) band prints plain (0.5 -> "0.5", not "500m")
    (1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p"),
)


def format_quantity(value: Any, digits: int = 3) -> str:
    """Human formatting with engineering suffixes for floats.

    The suffix band is chosen *after* rounding to ``digits`` significant
    figures, so values that round across a decade boundary promote to
    the next suffix instead of falling through inconsistently: 999.9996
    prints ``1K`` (not ``1e+03``) and 9.9999e-13 prints ``1p`` (not
    ``1e-12``), while anything that stays below 1e-12 after rounding is
    plain scientific (``9e-13``).
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if not isinstance(value, float):
        return str(value)
    if value == 0:
        return "0"
    rounded = float(f"{value:.{digits}g}")
    magnitude = abs(rounded)
    if 1e-2 <= magnitude < 1e3:
        return f"{rounded:.{digits}g}"
    for cut, suffix in _SUFFIX_SCALES:
        if magnitude >= cut:
            return f"{rounded / cut:.{digits}g}{suffix}"
    return f"{rounded:.{digits}g}"


@dataclass
class ResultTable:
    """A titled table of experiment rows."""

    title: str
    columns: tuple[str, ...]
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics_sections: list[tuple[str, dict[str, Any]]] = field(
        default_factory=list
    )

    def add(self, *values: Any) -> None:
        """Append a row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(values)

    def note(self, text: str) -> None:
        """Attach a footnote."""
        self.notes.append(text)

    def add_metrics(self, snapshot: dict[str, Any], title: str = "metrics") -> None:
        """Append an observability metrics section to the table.

        ``snapshot`` is a :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
        dict (``name{labels}`` -> value); it is rendered after the rows
        and footnotes.
        """
        self.metrics_sections.append((title, dict(snapshot)))

    def _render_metrics(self) -> list[str]:
        lines: list[str] = []
        for title, snapshot in self.metrics_sections:
            lines.append(f"-- {title} --")
            if not snapshot:
                lines.append("  (empty)")
                continue
            width = max(len(k) for k in snapshot)
            for key in sorted(snapshot):
                lines.append(
                    f"  {key.ljust(width)}  {format_quantity(snapshot[key])}"
                )
        return lines

    def render(self) -> str:
        """The table as monospace text."""
        cells = [
            [format_quantity(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells), 1)
            if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            name.ljust(w) for name, w in zip(self.columns, widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"* {note}")
        lines.extend(self._render_metrics())
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table (``repro run`` calls this)."""
        print()
        print(self.render())
        print()
