"""Plain-text table rendering: the paper tables, degradation and cache views."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte volume (GB with two decimals, like Table I)."""
    return f"{num_bytes / 1e9:.2f}"


def format_fraction(fraction: float, decimals: int = 1) -> str:
    """A fraction as a percentage string (``0.123`` → ``"12.3"``)."""
    return f"{fraction * 100:.{decimals}f}"


class TextTable:
    """A simple fixed-width text table.

    Args:
        headers: Column headers.
        title: Optional table title rendered above the header row.
    """

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        if not headers:
            raise ValueError("a table needs at least one column")
        self._headers = [str(h) for h in headers]
        self._rows: List[List[str]] = []
        self._title = title

    def add_row(self, *cells: object) -> None:
        """Append a row (cells are str()-converted).

        Raises:
            ValueError: If the cell count does not match the header count.
        """
        if len(cells) != len(self._headers):
            raise ValueError(
                f"expected {len(self._headers)} cells, got {len(cells)}"
            )
        self._rows.append([str(c) for c in cells])

    def render(self) -> str:
        """The formatted table."""
        widths = [len(h) for h in self._headers]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

        lines: List[str] = []
        if self._title:
            lines.append(self._title)
        lines.append(fmt(self._headers))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt(row) for row in self._rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def render_degradation_table(report: Any) -> str:
    """A text view of a :class:`~repro.faults.report.DegradationReport`.

    One row per stage plus the ``TOTAL`` pseudo-stage; the four core
    counters come first, any ad-hoc counters a stage recorded (lost
    probes, timeouts, quarantined objects) follow alphabetically.
    """
    from repro.faults.report import CORE_COUNTERS

    doc = report.as_dict()
    extras = sorted(
        {name for tally in doc.values() for name in tally} - set(CORE_COUNTERS)
    )
    columns = ["stage", *CORE_COUNTERS, *extras]
    table = TextTable(columns, title="DEGRADATION REPORT")
    for stage, tally in doc.items():
        table.add_row(stage, *(tally.get(name, 0) for name in columns[1:]))
    return table.render()


def render_cache_table(summary: Dict[str, Any]) -> str:
    """A text view of an artifact-cache ``stats_summary()`` document.

    One row per stage plus a totals row, drawn from the store's lifetime
    ledger; the session counters and disk footprint follow underneath.
    """
    columns = ["stage", "hits", "misses", "puts", "MB read", "MB written"]
    table = TextTable(columns, title="ARTIFACT CACHE")
    lifetime = summary.get("lifetime", {})
    stages = lifetime.get("stages", {})
    for stage in sorted(stages):
        row = stages[stage]
        table.add_row(
            stage,
            row.get("hits", 0),
            row.get("misses", 0),
            row.get("puts", 0),
            f"{row.get('bytes_read', 0) / 1e6:.1f}",
            f"{row.get('bytes_written', 0) / 1e6:.1f}",
        )
    totals = lifetime.get("total", {})
    table.add_row(
        "TOTAL",
        totals.get("hits", 0),
        totals.get("misses", 0),
        totals.get("puts", 0),
        f"{totals.get('bytes_read', 0) / 1e6:.1f}",
        f"{totals.get('bytes_written', 0) / 1e6:.1f}",
    )
    disk = summary.get("disk", {})
    objects_line = (
        f"objects: {disk.get('objects', 0)} ({disk.get('total_bytes', 0) / 1e6:.1f} MB on disk)"
    )
    return "\n".join([table.render(), "", f"root:    {summary.get('root', '?')}", objects_line])
