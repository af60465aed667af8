"""Gnuplot-ready data export.

The paper's figures are classic gnuplot CDFs and time series; this module
writes the regenerated data in the same spirit: whitespace-separated
``.dat`` files with a commented header, one per curve, plus a minimal
``.gp`` driver script so

    gnuplot fig09.gp

renders a figure immediately.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Union

from repro.reporting.series import Cdf

PathLike = Union[str, Path]


def write_cdf_dat(cdf: Cdf, path: PathLike, label: str = "value", max_points: int = 400) -> Path:
    """Write one CDF as ``value  cumulative_fraction`` rows."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# CDF of {label} (n={len(cdf)})\n")
        handle.write(f"# {label}  cumulative_fraction\n")
        for value, fraction in cdf.points(max_points=max_points):
            handle.write(f"{value:.6g} {fraction:.6f}\n")
    return path


def write_gnuplot_script(
    dat_files: Mapping[str, PathLike],
    path: PathLike,
    title: str,
    x_label: str,
    y_label: str,
    logscale_x: bool = False,
) -> Path:
    """Write a minimal gnuplot driver plotting column 2 of each file.

    Args:
        dat_files: Mapping curve title → ``.dat`` path.
        path: Output ``.gp`` path.
        title: Plot title.
        x_label: X axis label.
        y_label: Y axis label.
        logscale_x: Use a logarithmic x axis (Figures 4 and 13).

    Raises:
        ValueError: With no curves.
    """
    if not dat_files:
        raise ValueError("no curves to plot")
    path = Path(path)
    lines: List[str] = [
        f'set title "{title}"',
        f'set xlabel "{x_label}"',
        f'set ylabel "{y_label}"',
        "set key bottom right",
        "set grid",
    ]
    if logscale_x:
        lines.append("set logscale x")
    plot_parts = [
        f'"{Path(dat).name}" using 1:2 with lines title "{curve}"'
        for curve, dat in dat_files.items()
    ]
    lines.append("plot " + ", \\\n     ".join(plot_parts))
    lines.append("pause -1")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def export_figure_cdfs(
    cdfs: Mapping[str, Cdf],
    out_dir: PathLike,
    figure_slug: str,
    x_label: str,
    logscale_x: bool = False,
) -> Path:
    """Export one CDF figure: a ``.dat`` per curve plus the ``.gp`` driver.

    Returns:
        Path of the driver script.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dat_files: Dict[str, Path] = {}
    for curve, cdf in cdfs.items():
        slug = curve.lower().replace(" ", "-").replace("/", "-")
        dat_files[curve] = write_cdf_dat(
            cdf, out_dir / f"{figure_slug}_{slug}.dat", label=x_label
        )
    return write_gnuplot_script(
        dat_files,
        out_dir / f"{figure_slug}.gp",
        title=figure_slug,
        x_label=x_label,
        y_label="CDF",
        logscale_x=logscale_x,
    )
