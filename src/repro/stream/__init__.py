"""Windowed ingestion (`repro study --stream`, `repro sessions --stream`).

A week is read as a sequence of sealed tumbling windows
``[k*W, (k+1)*W)`` of flow ``t_start`` instead of one materialised
table.  There are two producers of windows:

* a simulated week is collected by the one edge monitor that batch runs
  too: :func:`repro.sim.engine.sealed_windows` serves the requests in
  time order and has the monitor seal each window
  (:meth:`repro.trace.monitor.EdgeMonitor.seal`) once the request clock
  passes its end.  :mod:`repro.stream.study` folds those tables for
  ``repro study --stream``; the monitor's epoch snapshots fold them too.
* a flow log is replayed as events
  (:func:`repro.stream.source.replay_flow_log` yields
  :class:`~repro.stream.events.FlowArrival` and
  :class:`~repro.stream.events.WatermarkAdvance`), because a real file
  may be out of order.  A :class:`~repro.stream.windows.TumblingWindower`
  seals the events into windows, and :func:`~repro.stream.windows.drive`
  hands each to the consumers and closes gap-T sessions as the sealed
  boundary moves (``repro sessions --stream``, with only each (client,
  video) group's last session carried between windows:
  :class:`~repro.stream.windows.WindowedSessionBuilder`).

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
