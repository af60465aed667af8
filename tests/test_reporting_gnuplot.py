"""Tests for the gnuplot data export."""

import pytest

from repro.reporting.gnuplot import (
    export_figure_cdfs,
    write_cdf_dat,
    write_gnuplot_script,
)
from repro.reporting.series import Cdf


class TestCdfDat:
    def test_rows_monotone(self, tmp_path):
        cdf = Cdf([5.0, 1.0, 3.0, 2.0, 4.0])
        path = write_cdf_dat(cdf, tmp_path / "c.dat", label="x")
        rows = [
            tuple(float(tok) for tok in line.split())
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        xs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_header_present(self, tmp_path):
        path = write_cdf_dat(Cdf([1.0]), tmp_path / "c.dat", label="bytes")
        assert path.read_text().startswith("# CDF of bytes")


class TestScript:
    def test_script_references_curves(self, tmp_path):
        dat = tmp_path / "x.dat"
        dat.write_text("0 0\n")
        path = write_gnuplot_script(
            {"curve-one": dat}, tmp_path / "fig.gp",
            title="T", x_label="X", y_label="Y", logscale_x=True,
        )
        text = path.read_text()
        assert "curve-one" in text
        assert "x.dat" in text
        assert "set logscale x" in text

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_gnuplot_script({}, tmp_path / "fig.gp", "T", "X", "Y")


class TestExport:
    def test_export_figure(self, tmp_path):
        cdfs = {"US-Campus": Cdf([1.0, 2.0]), "EU2": Cdf([3.0, 4.0])}
        script = export_figure_cdfs(cdfs, tmp_path, "fig99", x_label="ms")
        assert script.exists()
        dats = sorted(p.name for p in tmp_path.glob("fig99_*.dat"))
        assert dats == ["fig99_eu2.dat", "fig99_us-campus.dat"]
