"""Event-driven streaming ingestion (`repro study --stream`).

Flow records arrive as a time-ordered event stream instead of a fully
materialised week: the simulator's live-emit mode
(:func:`repro.sim.engine.stream_requests`) or a flow-log replay
(:func:`repro.stream.source.replay_flow_log`) yields
:class:`~repro.stream.events.FlowArrival` and
:class:`~repro.stream.events.WatermarkAdvance` events; a
:class:`~repro.stream.windows.TumblingWindower` seals them into
per-window :class:`~repro.trace.columnar.FlowTable` batches, and
:func:`~repro.stream.windows.drive` hands each sealed window to the
consumers and closes gap-T sessions as the sealed boundary moves.

The stream is a fold schedule, not a second analysis.  The study's folds
(:mod:`repro.core.folds`) are the ones batch analysis runs over a whole
dataset as one batch; here they fold window by window and are handed to
the one :class:`~repro.core.pipeline.StudyPipeline`, so every table is
the same code in both modes.  ``repro sessions --stream`` splits
sessions by the one session index, with only each (client, video)
group's last session carried between windows
(:class:`~repro.stream.windows.WindowedSessionBuilder`).  Memory stays
bounded by servers x hours + one window — never by the flow count — and
``repro study --stream`` renders byte-identical output (and
``--digests`` lines) to the batch path at any window size.  See
docs/architecture.md ("Streaming ingestion") for the watermark
semantics and the equivalence argument.
"""
