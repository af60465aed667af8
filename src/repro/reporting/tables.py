"""Plain-text table rendering for the regenerated paper tables."""

from __future__ import annotations

from typing import List, Optional, Sequence


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
