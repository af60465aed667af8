"""Record-at-a-time executable spec of the Section VI analysis.

Every module here restates one runtime kernel as a plain loop over
:class:`~repro.trace.records.FlowRecord` objects — the methodology as
the paper words it, with no columns, sorting tricks or grouped
reductions.  The modules mirror the runtime layout (``oracle.preferred``
specifies :mod:`repro.core.preferred`, ``oracle.accumulators`` specifies
:mod:`repro.core.folds`, and so on).

Nothing under ``src/`` imports this package: it exists so the parity
tests (``tests/test_columnar_kernels.py`` and the hypothesis properties
in ``tests/test_properties.py``) can require the columnar kernels to
reproduce it *exactly* — same session lists, same dict order, same
floats — and so ``benchmarks/test_bench_analysis.py`` can time the
kernels against it.

``oracle.cbg`` does the same for CBG and its probes
(:mod:`repro.geoloc.cbg`, :mod:`repro.net.latency`): pair-by-pair
calibration, point-by-point region sampling and per-probe floors, which
``tests/test_geoloc_cbg_oracle.py`` requires the runtime to match bit for
bit and ``benchmarks/test_bench_cbg.py`` times.
"""
