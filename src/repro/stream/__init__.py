"""Windowed ingestion (`repro study --stream`, `repro sessions --stream`).

A week is read as a sequence of sealed tumbling windows
``[k*W, (k+1)*W)`` of flow ``t_start`` instead of one materialised
table.  One windowing rule serves both producers of windows: rows that
start before an instant are sealed into a stable ``(t_start, t_end)``
table (:func:`repro.trace.columnar.seal_rows`) and cut into windows
(:func:`repro.trace.columnar.split_windows`).  The producers differ only
in their clock:

* a simulated week is sealed by the one edge monitor that batch runs
  too: :func:`repro.sim.engine.sealed_windows` serves the requests in
  time order and has the monitor seal each window
  (:meth:`repro.trace.monitor.EdgeMonitor.seal`) once the request clock
  passes its end.  :mod:`repro.stream.study` folds those tables for
  ``repro study --stream``; the monitor's epoch snapshots fold them too.
* a flow log is sealed as it is read
  (:func:`repro.trace.logio.sealed_log_windows`), with the newest
  ``t_start`` less ``--lag-s`` as the clock, because a real file may be
  slightly out of order; a record further out of order is an error.
  ``repro sessions --stream`` feeds each window to one
  :class:`~repro.core.sessions.WindowedSessionBuilder` per gap, which
  carries only each (client, video) group's open session between
  windows.

Windows are a fold schedule, not a second analysis.  The study's folds
(:mod:`repro.core.folds`) are the ones batch analysis runs over a whole
dataset as one batch; here they fold window by window and are handed to
the one :class:`~repro.core.pipeline.StudyPipeline`, so every table is
the same code in both modes.  Memory stays bounded by servers x hours +
one window — never by the flow count — and ``repro study --stream``
renders byte-identical output (and ``--digests`` lines) to the batch
path at any window size.  See docs/architecture.md ("Streaming
ingestion") for the sealing rule and the equivalence argument.
"""
