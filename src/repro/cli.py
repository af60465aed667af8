"""Command-line interface.

Five subcommands cover the library's workflows::

    python -m repro simulate  --dataset EU1-ADSL --scale 0.02 --out flows.tsv
    python -m repro study     --scale 0.02 --landmarks 120
    python -m repro sessions  --flows flows.tsv --gaps 1,5,10,60,300
    python -m repro coldvideo --nodes 45 --samples 25
    python -m repro whatif    --dataset EU1-ADSL --variants old-policy,flash-crowd
    python -m repro grid      run --base EU1-FTTH --axis policy=preferred,geographic
    python -m repro monitor   --epochs 8 --epoch-s 86400
    python -m repro cache     stats

``simulate`` writes a Tstat-style flow log; ``sessions`` re-analyses any
such log (including ones you edit or generate elsewhere); the rest run the
paper's composite experiments end to end.  ``grid`` enumerates scenario
grids (axes × values over a named scenario) and runs them with per-point
cache reuse, and ``whatif`` and ``sweep`` run one-axis grids (over
variant names, over one field); ``monitor`` watches an evolving world
across epochs and raises change-point alarms; ``cache`` inspects and
manages the stage-artifact store that makes warm re-runs of the above
incremental.

Each command imports what it runs inside its ``cmd_*`` function, and the
parser reads its choices and defaults from :mod:`repro.defaults`, so
``repro cache stats`` or ``repro --help`` loads neither numpy nor the world
model, and a batch ``repro study`` loads none of the monitor, what-if or
grid code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence

from repro import obs
from repro.defaults import (
    DATASET_NAMES,
    DEFAULT_EPOCH_S,
    DEFAULT_EPOCHS,
    DEFAULT_THRESHOLD,
    MIN_SCALE,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="traffic scale relative to the paper (default 0.02)",
    )
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="deterministic fault-injection plan: a JSON object "
        "or a path to one (default: $REPRO_FAULTS; see "
        "docs/architecture.md). Faulted runs are exactly "
        "reproducible from (seed, plan)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="write this run's trace_<run>.jsonl into DIR "
        "(default: $REPRO_TRACE_DIR; inspect it with "
        "'repro trace'. Tracing never changes outputs; "
        "REPRO_TRACE=off disables it entirely)",
    )


class UsageError(ValueError):
    """A bad command-line or environment value: one stderr line, exit 2."""


def _check_scale(scale: Optional[float]) -> None:
    """Fail on a ``--scale`` that no week can be simulated and analysed at.

    Raises:
        UsageError: Unless it is finite and at least ``MIN_SCALE``, where
            every dataset expects a request a day.
    """
    if scale is not None and not MIN_SCALE <= scale < math.inf:
        raise UsageError(
            f"--scale must be a finite number >= {MIN_SCALE:.3g}, so every "
            f"dataset expects a request a day; got {scale:g}"
        )


def _landmark_count(args: argparse.Namespace) -> Optional[int]:
    """The CBG landmark budget ``--landmarks`` asks for (``None`` = all 215).

    Raises:
        UsageError: Below the four landmarks CBG needs.
    """
    if args.landmarks < 4:
        raise UsageError(f"--landmarks must be at least 4, got {args.landmarks}")
    return None if args.landmarks >= 215 else args.landmarks


def _check_policies(kinds: Sequence[str]) -> None:
    """Fail before anything simulates when a kind names no registered policy.

    Raises:
        UsageError: Naming the first unknown kind and the registered ones.
    """
    from repro.cdn.selection import UnknownPolicyError, registered_policy_kinds

    registered = registered_policy_kinds()
    for kind in kinds:
        if kind not in registered:
            raise UsageError(str(UnknownPolicyError(kind)))


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dissecting Video Server Selection "
        "Strategies in the YouTube CDN' (ICDCS 2011).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one dataset and write a flow log")
    p_sim.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    p_sim.add_argument("--out", required=True, help="output flow-log path (TSV)")
    p_sim.add_argument(
        "--policy", default="preferred",
        help="selection policy the simulated CDN runs (default preferred)",
    )
    p_sim.add_argument("--duration-days", type=float, default=7.0)
    _add_common(p_sim)

    p_study = sub.add_parser("study", help="run the full five-dataset study")
    p_study.add_argument(
        "--landmarks", type=int, default=120,
        help="CBG landmark budget (default 120; max 215)",
    )
    p_study.add_argument(
        "--policy", default="preferred",
        help="selection policy every simulated world runs "
        "(default preferred; batch and --stream alike)",
    )
    p_study.add_argument(
        "--full", action="store_true",
        help="print the full study report (every table and "
        "figure) instead of the summary",
    )
    p_study.add_argument(
        "--validate", action="store_true",
        help="also print the methodology-validation report "
        "(inference vs. simulator ground truth)",
    )
    p_study.add_argument(
        "--digests", action="store_true",
        help="append one 'digest <dataset> <sha256>' line per "
        "dataset (byte-identity checks across runs)",
    )
    p_study.add_argument(
        "--stream", action="store_true",
        help="windowed ingestion: fold each week window by "
        "window as the edge monitor seals it, with bounded "
        "memory instead of materialising it; output is byte-identical "
        "to the batch path at any --window-s (summary "
        "report only: not with --full or --validate)",
    )
    p_study.add_argument(
        "--window-s", type=float, default=3600.0,
        help="tumbling-window width for --stream, in seconds "
        "(default 3600; any positive value yields the "
        "same bytes)",
    )
    _add_common(p_study)

    p_eval = sub.add_parser(
        "eval",
        help="score the blind methodology against simulator ground truth",
    )
    p_eval.add_argument(
        "--policy", default="preferred", metavar="KIND[,KIND...]",
        help="comma-separated selection-policy kinds to evaluate "
        "(default preferred; an unknown kind exits 2 naming the registered ones)",
    )
    p_eval.add_argument(
        "--landmarks", type=int, default=60,
        help="CBG landmark budget (default 60; max 215)",
    )
    p_eval.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable output (one JSON document over all policies)",
    )
    p_eval.add_argument(
        "--digests", action="store_true",
        help="append one 'digest <policy> <dataset> <sha256>' line per "
        "dataset (byte-identity checks across runs)",
    )
    _add_common(p_eval)

    p_sessions = sub.add_parser("sessions", help="session analysis of a flow log")
    p_sessions.add_argument("--flows", required=True, help="flow-log path")
    p_sessions.add_argument(
        "--gaps", default="1,5,10,60,300", help="comma-separated gap values in seconds"
    )
    p_sessions.add_argument(
        "--stream", action="store_true",
        help="read the log as sealed tumbling windows and "
        "build sessions incrementally (byte-identical "
        "output, bounded memory)",
    )
    p_sessions.add_argument(
        "--window-s", type=float, default=3600.0,
        help="tumbling-window width for --stream (seconds)",
    )
    p_sessions.add_argument(
        "--lag-s", type=float, default=0.0,
        help="lag for --stream: tolerate records up to this "
        "many seconds out of order; a record further out "
        "of order is an error (default 0; sorted logs need none)",
    )

    p_cold = sub.add_parser("coldvideo", help="run the PlanetLab cold-video experiment")
    p_cold.add_argument("--nodes", type=int, default=45)
    p_cold.add_argument("--samples", type=int, default=25)
    _add_common(p_cold)

    p_whatif = sub.add_parser("whatif", help="compare what-if variants of a scenario")
    p_whatif.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    p_whatif.add_argument(
        "--variants", default="",
        help="comma-separated variant names (default: the full standard set)",
    )
    _add_common(p_whatif)

    p_figures = sub.add_parser(
        "figures", help="export gnuplot-ready .dat/.gp files for the CDF figures"
    )
    p_figures.add_argument("--out-dir", required=True, help="output directory")
    p_figures.add_argument("--landmarks", type=int, default=120)
    _add_common(p_figures)

    p_anon = sub.add_parser(
        "anonymize",
        help="prefix-preserving anonymisation of a flow log (for sharing)",
    )
    p_anon.add_argument("--flows", required=True, help="input flow-log path")
    p_anon.add_argument("--out", required=True, help="output flow-log path")
    p_anon.add_argument("--key", required=True,
                        help="secret key (keep it to map future traces consistently)")

    p_sweep = sub.add_parser(
        "sweep", help="dose-response sweep of one scenario parameter"
    )
    p_sweep.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    p_sweep.add_argument("--parameter", required=True, help="ScenarioSpec field to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated grid values")
    p_sweep.add_argument(
        "--metrics", default="preferred_share,miss_rate,overload_rate",
        help="comma-separated ScenarioMetrics attributes to print",
    )
    _add_common(p_sweep)

    p_grid = sub.add_parser(
        "grid", help="enumerate, run and diff scenario-spec grids"
    )
    grid_sub = p_grid.add_subparsers(dest="grid_command", required=True)

    def _add_grid_shape(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--base", default="EU1-FTTH",
            help="named scenario the grid perturbs (default EU1-FTTH)",
        )
        p.add_argument(
            "--axis", action="append", default=[], metavar="NAME=V1,V2",
            help="one grid axis: a ScenarioSpec field, 'policy', "
            "'variant', or 'dataset', with comma-separated values "
            "(repeatable; the product of all axes is the grid)",
        )
        p.add_argument(
            "--filter", action="append", default=[], metavar="A=X,B=Y",
            dest="filters",
            help="drop grid points matching every clause (repeatable)",
        )
        p.add_argument(
            "--grid", default=None, metavar="PATH",
            help="load the grid from a JSON file written by "
            "'grid plan --out' instead of --base/--axis/--filter",
        )

    p_grid_plan = grid_sub.add_parser(
        "plan", help="enumerate the grid and show per-point cache status"
    )
    _add_grid_shape(p_grid_plan)
    p_grid_plan.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the grid as a JSON document (diffable, "
        "re-runnable with --grid)",
    )
    p_grid_plan.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable plan",
    )
    _add_common(p_grid_plan)

    p_grid_run = grid_sub.add_parser(
        "run", help="simulate every grid point (warm points load from cache)"
    )
    _add_grid_shape(p_grid_run)
    p_grid_run.add_argument(
        "--metrics", default="preferred_share,miss_rate,overload_rate",
        help="comma-separated ScenarioMetrics attributes to print",
    )
    _add_common(p_grid_run)

    p_grid_diff = grid_sub.add_parser(
        "diff", help="point-level difference between two grid documents"
    )
    p_grid_diff.add_argument("grid_a", help="baseline grid JSON path")
    p_grid_diff.add_argument("grid_b", help="comparison grid JSON path")

    p_monitor = sub.add_parser(
        "monitor",
        help="longitudinal change monitoring: epoch snapshots, clustering, alarms",
    )
    p_monitor.add_argument(
        "--base", choices=DATASET_NAMES, default="EU1-ADSL",
        help="base scenario to monitor (default EU1-ADSL)",
    )
    p_monitor.add_argument(
        "--epochs", type=int, default=DEFAULT_EPOCHS,
        help=f"number of consecutive epochs (default {DEFAULT_EPOCHS})",
    )
    p_monitor.add_argument(
        "--epoch-s", type=float, default=DEFAULT_EPOCH_S,
        help="epoch length in seconds (default 86400 = one day)",
    )
    p_monitor.add_argument(
        "--plan", default=None, metavar="PATH",
        help="evolution-plan JSON file (the scheduled CDN changes; "
        "default: the built-in demo schedule)",
    )
    p_monitor.add_argument(
        "--static", action="store_true",
        help="monitor a never-changing world (zero ground-truth "
        "alarms; overrides --plan)",
    )
    p_monitor.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help=f"alarm threshold on the pattern dissimilarity "
        f"(default {DEFAULT_THRESHOLD})",
    )
    p_monitor.add_argument(
        "--policy", default="preferred",
        help="selection policy the base scenario runs (default preferred)",
    )
    p_monitor.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report (timeline, verdict, "
        "per-epoch cache/degradation counters)",
    )
    p_monitor.add_argument(
        "--digests", action="store_true",
        help="append one 'digest epochNN <sha256>' line per epoch "
        "(byte-identity checks across runs)",
    )
    _add_common(p_monitor)

    p_cache = sub.add_parser(
        "cache", help="inspect or manage the stage-artifact cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="hit/miss/byte counters and the on-disk census"
    )
    p_cache_stats.add_argument(
        "--json", action="store_true", dest="as_json", help="machine-readable output"
    )
    cache_sub.add_parser("clear", help="delete every cached artifact")
    p_cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used artifacts down to a size budget"
    )
    p_cache_gc.add_argument("--max-size", required=True,
                            help="size budget, e.g. 750K, 500M, 2G, or bytes")

    p_trace = sub.add_parser(
        "trace", help="inspect trace_<run>.jsonl files from traced runs"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tr_summary = trace_sub.add_parser(
        "summary", help="span tree with inclusive/exclusive times and counters"
    )
    p_tr_summary.add_argument("trace_file", help="trace_<run>.jsonl path")
    p_tr_summary.add_argument(
        "--depth", type=int, default=None, help="limit the tree depth (default: unlimited)"
    )
    p_tr_summary.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable span tree (same tree and depth limit "
        "as the table, plus the metrics snapshot)",
    )
    p_tr_slowest = trace_sub.add_parser(
        "slowest", help="top spans by exclusive time (where the run went)"
    )
    p_tr_slowest.add_argument("trace_file", help="trace_<run>.jsonl path")
    p_tr_slowest.add_argument("--top", type=int, default=10)
    p_tr_export = trace_sub.add_parser(
        "export", help="convert a trace to Chrome trace_event JSON (chrome://tracing, Perfetto)"
    )
    p_tr_export.add_argument("trace_file", help="trace_<run>.jsonl path")
    p_tr_export.add_argument("--out", required=True, help="output path")
    p_tr_diff = trace_sub.add_parser(
        "diff", help="per-span-name time deltas between two traces"
    )
    p_tr_diff.add_argument("trace_a", help="baseline trace_<run>.jsonl")
    p_tr_diff.add_argument("trace_b", help="comparison trace_<run>.jsonl")
    p_tr_diff.add_argument("--top", type=int, default=10)
    return parser


def cmd_simulate(args: argparse.Namespace, out) -> int:
    from repro.sim.driver import run_scenario
    from repro.trace.logio import write_flow_log

    _check_policies([args.policy])
    if not 0 < args.duration_days < math.inf:
        raise UsageError(
            f"--duration-days must be positive and finite, got {args.duration_days:g}"
        )
    try:
        # Fail before the week is simulated; append mode keeps an existing log.
        open(args.out, "a", encoding="ascii").close()
    except OSError as error:
        raise UsageError(f"cannot write flow log {args.out}: {error}") from None
    result = run_scenario(
        args.dataset,
        scale=args.scale,
        seed=args.seed,
        duration_s=args.duration_days * 86400.0,
        policy_kind=args.policy,
    )
    count = write_flow_log(result.dataset.records, args.out)
    print(
        f"wrote {count} flows ({result.dataset.total_bytes / 1e9:.2f} GB) to {args.out}",
        file=out,
    )
    return 0


def _render_study(args: argparse.Namespace):
    """Run the study and render its report.

    The batch path simulates each week whole; ``--stream`` folds each
    week window by window as it is simulated (see :mod:`repro.stream`).
    Both feed the one :class:`~repro.core.pipeline.StudyPipeline`, so
    the bytes are the same.

    Returns:
        ``(text, digests)`` — the full report text, and for a streamed
        study under ``--digests`` the content digest of each dataset,
        hashed window by window as the windows sealed (``None``
        otherwise: a batch study's weeks are hashed only if the digests
        are asked for).
    """
    import io

    from repro.core.pipeline import StudyPipeline
    from repro.core.report import render_study_summary

    buffer = io.StringIO()
    landmark_count = _landmark_count(args)
    digests = None
    if args.stream:
        from repro.stream.study import run_streaming_study

        pipeline, digests = run_streaming_study(
            args.scale, args.seed, args.window_s, policy_kind=args.policy,
            landmark_count=landmark_count, hashed=args.digests,
        )
    else:
        from repro.exec.executor import ExecutionError
        from repro.sim.driver import run_all

        try:
            results = run_all(scale=args.scale, seed=args.seed, policy_kind=args.policy)
        except ExecutionError as error:
            # The policy is checked where a week is simulated: a study
            # whose weeks are cached never loads the policy registry.
            if error.cause_type != "UnknownPolicyError":
                raise
            raise UsageError(error.cause_message) from None
        pipeline = StudyPipeline(results, landmark_count=landmark_count)
    if args.full:
        from repro.core.report import render_study_report

        print(render_study_report(pipeline), file=buffer)
    else:
        buffer.write(render_study_summary(pipeline))
    if args.validate:
        from repro.core.validation import render_validation, validate_study

        print("", file=buffer)
        print(render_validation(validate_study(pipeline, results)), file=buffer)
    return buffer.getvalue(), digests


def _study_digests(args: argparse.Namespace, store, streamed):
    """The study's week digests, through the ``cli/digests`` artifact.

    A digest depends on the simulated week only, so the key holds the
    weeks' inputs (scale, seed, policy) and no report option: every
    landmark budget and report flag of one world shares the entry.  On a
    miss a streamed study's own digests are kept, or after a cached report
    the weeks are streamed again and hashed as their windows seal, so the
    low-memory mode never materialises a week.  A batch study hashes its
    weeks, taken from the driver's in-process memo, or read back from the
    store (or simulated) after a cached report.
    """
    from repro.artifacts.keys import stage_key

    key = stage_key("cli/digests", {
        "scale": args.scale, "seed": args.seed, "policy": args.policy,
    })
    digests = None if store is None else store.get(key, None, stage="cli/digests")
    if digests is None:
        digests = streamed
        if digests is None and args.stream:
            from repro.stream.study import run_streaming_study

            _, digests = run_streaming_study(
                args.scale, args.seed, args.window_s, policy_kind=args.policy, hashed=True,
            )
        if digests is None:
            from repro.sim.driver import run_all

            results = run_all(scale=args.scale, seed=args.seed, policy_kind=args.policy)
            digests = {name: r.dataset.content_digest() for name, r in results.items()}
        if store is not None:
            store.put(key, digests, stage="cli/digests")
    return digests


def cmd_study(args: argparse.Namespace, out) -> int:
    from repro.artifacts.keys import stage_key
    from repro.artifacts.store import default_store

    if args.stream and not args.window_s > 0:
        raise UsageError(f"--window-s must be positive, got {args.window_s}")
    unsupported = [
        flag
        for flag, active in (("--full", args.full), ("--validate", args.validate))
        if args.stream and active
    ]
    if unsupported:
        # Fail fast and name the way out: the streamed path renders the
        # summary report only, so these flags need the batch path.
        batch = "repro study " + " ".join(unsupported)
        verb = "requires" if len(unsupported) == 1 else "require"
        raise UsageError(
            f"--stream renders the summary report only; "
            f"{', '.join(unsupported)} {verb} the batch path. "
            f"Drop --stream and run the batch equivalent: {batch}"
        )
    # The rendered report is itself a stage artifact: on a warm cache the
    # whole study is one read, which is what makes re-runs startup-bound.
    # Keyed by everything the text depends on; --stream/--window-s, an
    # execution strategy under the byte-parity contract, stay out (a
    # streamed or batch run fills and hits the same artifact).  The
    # digests are an artifact of their own.
    store = default_store()
    text = None
    key = None
    if store is not None:
        key = stage_key("cli/study", {
            "scale": args.scale,
            "seed": args.seed,
            "landmarks": args.landmarks,
            "policy": args.policy,
            "full": bool(args.full),
            "validate": bool(args.validate),
        })
        text = store.get(key, None, stage="cli/study")
    streamed = None
    if text is None:
        if args.stream:
            # A streamed study always simulates; a batch one checks the
            # policy only when a week is simulated (see _render_study).
            _check_policies([args.policy])
        text, streamed = _render_study(args)
        if store is not None:
            store.put(key, text, stage="cli/study")
    out.write(text)
    if args.digests:
        digests = _study_digests(args, store, streamed)
        for name in sorted(digests):
            print(f"digest {name} {digests[name]}", file=out)
    from repro.faults.plan import active_plan

    if active_plan() is not None:
        from repro.faults import report as degradation
        from repro.reporting.tables import render_degradation_table

        print("", file=out)
        print(render_degradation_table(degradation.collect()), file=out)
    return 0


def cmd_eval(args: argparse.Namespace, out) -> int:
    from repro.eval.attribution import evaluate_policy, render_attribution

    kinds = tuple(k.strip() for k in args.policy.split(",") if k.strip())
    if not kinds:
        raise UsageError("--policy names no policies")
    _check_policies(kinds)
    landmark_count = _landmark_count(args)
    evaluations = [
        evaluate_policy(kind, scale=args.scale, seed=args.seed, landmark_count=landmark_count)
        for kind in kinds
    ]
    if args.as_json:
        import json

        document = {ev.policy_kind: ev.as_dict() for ev in evaluations}
        print(json.dumps(document, sort_keys=True, indent=2), file=out)
    else:
        for index, evaluation in enumerate(evaluations):
            if index:
                print("", file=out)
            print(render_attribution(evaluation), file=out)
    if args.digests:
        for evaluation in evaluations:
            for name in sorted(evaluation.digests):
                print(
                    f"digest {evaluation.policy_kind} {name} "
                    f"{evaluation.digests[name]}",
                    file=out,
                )
    return 0


def _parse_gaps(text: str) -> List[float]:
    """The ``--gaps`` values: comma-separated positive seconds.

    Raises:
        UsageError: For a non-number or a non-positive gap.
    """
    try:
        gaps = [float(g) for g in text.split(",") if g.strip()]
    except ValueError:
        raise UsageError(f"--gaps must be comma-separated numbers: {text!r}") from None
    for gap in gaps:
        if not gap > 0:
            raise UsageError(f"--gaps must be positive, got {gap:g}")
    return gaps


def _read_log(path: str, window_s: Optional[float] = None, lag_s: float = 0.0):
    """A flow log's records, or with ``window_s`` its sealed windows.

    An unreadable or malformed log is a usage error, and so is a record
    more than ``lag_s`` out of order in a windowed read.
    """
    from repro.trace.logio import iter_flow_log, sealed_log_windows

    rows = iter_flow_log(path)
    if window_s is not None:
        rows = sealed_log_windows(rows, window_s, lag_s)
    try:
        yield from rows
    except (OSError, ValueError) as error:
        raise UsageError(f"cannot read flow log {path}: {error}") from None


def _print_sessions(out, flows: int, stats_by_gap) -> int:
    """The ``sessions`` report: the flow count, then one line per gap."""
    if flows == 0:
        print("flow log is empty", file=out)
        return 1
    print(f"{flows} flows", file=out)
    for gap, stats in stats_by_gap:
        histogram = stats.histogram()
        cells = " ".join(f"{k}:{histogram[k]:.3f}" for k in ("1", "2", "3", ">9"))
        print(f"T={gap:>6.1f}s sessions={stats.sessions:7d}  {cells}", file=out)
    return 0


def cmd_sessions(args: argparse.Namespace, out) -> int:
    """Figure 5's session counts of a flow log, for each ``--gaps`` value.

    The batch form indexes the whole log once and reads every gap's
    session sizes off that index; ``--stream`` reads the log once as
    sealed windows and feeds each to one builder per gap, in bounded
    memory.  Both print the same bytes for any log whose disorder stays
    within ``--lag-s``.
    """
    from repro.core.sessions import SessionStatsAccumulator, WindowedSessionBuilder
    from repro.trace.columnar import RECORD_FIELDS, FlowTable

    gaps = _parse_gaps(args.gaps)
    if not args.stream:
        table = FlowTable.from_rows(list(_read_log(args.flows)), RECORD_FIELDS)
        index = table.session_index()
        return _print_sessions(out, len(table), [
            (gap, SessionStatsAccumulator(index.session_sizes(gap))) for gap in gaps
        ])
    if not args.window_s > 0:
        raise UsageError(f"--window-s must be positive, got {args.window_s}")
    if not args.lag_s >= 0:
        raise UsageError(f"--lag-s must be non-negative, got {args.lag_s}")
    builders = [WindowedSessionBuilder(gap) for gap in gaps]
    flows = 0
    for window in _read_log(args.flows, args.window_s, args.lag_s):
        flows += len(window)
        for builder in builders:
            builder.observe(window)
    for builder in builders:
        builder.finish()
    return _print_sessions(out, flows, [
        (gap, builder.stats) for gap, builder in zip(gaps, builders)
    ])


def cmd_coldvideo(args: argparse.Namespace, out) -> int:
    from repro.active.testvideo import TestVideoExperiment
    from repro.sim.scenarios import PAPER_SCENARIOS, build_world

    if args.nodes < 1:
        raise UsageError(f"--nodes must be at least 1, got {args.nodes}")
    if args.samples < 2:
        # Each node's RTT1/RTT2 ratio needs a first and a later sample.
        raise UsageError(f"--samples must be at least 2, got {args.samples}")
    world = build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.002, seed=args.seed)
    experiment = TestVideoExperiment(world, num_nodes=args.nodes, seed=args.seed)
    report = experiment.run(num_samples=args.samples)
    cdf = report.ratio_cdf()
    exemplar = report.most_improved()
    print(f"test video {report.video_id} at {', '.join(report.origin_dcs)}", file=out)
    print(
        f"exemplar {exemplar.node.name}: "
        + " ".join(f"{r:.0f}" for r in exemplar.rtts_ms[:8])
        + " ms",
        file=out,
    )
    print(
        f"ratio>1.2: {1 - cdf.fraction_below(1.2):.1%}   "
        f"ratio>10: {1 - cdf.fraction_below(10.0):.1%}",
        file=out,
    )
    return 0


def cmd_whatif(args: argparse.Namespace, out) -> int:
    from repro.spec.grid import GridAxis, GridSpec
    from repro.spec.model import SpecError
    from repro.spec.runner import render_comparison, run_grid
    from repro.whatif.variants import standard_variants

    if args.variants.strip():
        names = [name.strip() for name in args.variants.split(",")]
    else:
        names = [variant.name for variant in standard_variants()]
    if "baseline" not in names:
        names.insert(0, "baseline")
    try:
        result = run_grid(
            GridSpec(base=args.dataset, axes=(GridAxis("variant", names),)),
            scale=args.scale, seed=args.seed,
        )
    except SpecError as error:
        raise UsageError(str(error)) from None
    print(render_comparison(result), file=out)
    return 0


def cmd_figures(args: argparse.Namespace, out) -> int:
    from repro.core.folds import SparseHoursError
    from repro.core.pipeline import StudyPipeline
    from repro.reporting.gnuplot import export_figure_cdfs
    from repro.sim.driver import run_all

    landmark_count = _landmark_count(args)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as error:
        raise UsageError(f"cannot create --out-dir {args.out_dir}: {error}") from None
    results = run_all(scale=args.scale, seed=args.seed)
    pipeline = StudyPipeline(results, landmark_count=landmark_count)
    names = pipeline.dataset_names

    figures = [
        ({name: pipeline.rtt_cdf(name) for name in names},
         "fig02_rtt", {"x_label": "RTT [ms]"}),
        (pipeline.fig3_cdfs,
         "fig03_confidence", {"x_label": "Radius [km]", "logscale_x": True}),
        ({name: pipeline.flow_size_cdf(name) for name in names},
         "fig04_flow_sizes", {"x_label": "Bytes", "logscale_x": True}),
    ]
    try:
        fig9 = {name: pipeline.fig9_cdf(name) for name in names}
    except SparseHoursError as error:
        raise UsageError(
            f"--scale {args.scale:g} is too small for Figure 9: {error} in some dataset"
        ) from None
    figures += [
        (fig9, "fig09_nonpreferred",
         {"x_label": "Fraction of Video Flows to Non-preferred DC"}),
        ({name: pipeline.fig13_cdf(name) for name in names},
         "fig13_per_video", {"x_label": "Number of Requests", "logscale_x": True}),
    ]
    # Every curve is computed before the first file is written.
    for cdfs, slug, options in figures:
        print(f"wrote {export_figure_cdfs(cdfs, args.out_dir, slug, **options)}", file=out)
    return 0


def cmd_anonymize(args: argparse.Namespace, out) -> int:
    from repro.trace.anonymize import PrefixPreservingAnonymizer
    from repro.trace.logio import write_flow_log

    records = list(_read_log(args.flows))
    anonymizer = PrefixPreservingAnonymizer(args.key.encode())
    try:
        count = write_flow_log(anonymizer.anonymize_records(records), args.out)
    except OSError as error:
        raise UsageError(f"cannot write flow log {args.out}: {error}") from None
    print(
        f"anonymised {count} flows -> {args.out} "
        "(prefix structure preserved; addresses keyed)",
        file=out,
    )
    return 0


def cmd_sweep(args: argparse.Namespace, out) -> int:
    from repro.spec.grid import GridAxis, GridSpec
    from repro.spec.model import SpecError
    from repro.spec.runner import run_grid

    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--values must be comma-separated numbers: {args.values!r}") from None
    if not values:
        raise UsageError(f"--values names no values: {args.values!r}")
    metrics = _parse_metrics(args.metrics)
    try:
        result = run_grid(
            GridSpec(base=args.dataset, axes=(GridAxis(args.parameter, values),)),
            scale=args.scale, seed=args.seed,
        )
    except (SpecError, KeyError) as error:
        raise UsageError(error.args[0]) from None
    _print_metric_rows(
        out, args.parameter, [f"{value:24.4f}" for value in values], result.rows, metrics
    )
    return 0


def _print_metric_rows(out, head: str, names: List[str], rows, metrics: List[str]) -> None:
    """The ``sweep`` and ``grid run`` table: a right-aligned first column
    of ``names`` under ``head``, then one ``18.4f`` cell per metric."""
    width = max(24, *map(len, names))
    print(f"{head:>{width}s}  " + "  ".join(f"{m:>18s}" for m in metrics), file=out)
    for name, row in zip(names, rows):
        cells = "  ".join(f"{getattr(row, m):18.4f}" for m in metrics)
        print(f"{name:>{width}s}  {cells}", file=out)


def _parse_metrics(text: str) -> List[str]:
    """The ``--metrics`` names, each a numeric ``ScenarioMetrics`` field.

    Raises:
        UsageError: For a name that is not one.
    """
    from dataclasses import fields

    from repro.whatif.metrics import ScenarioMetrics

    known = [f.name for f in fields(ScenarioMetrics)]
    metrics = [m.strip() for m in text.split(",") if m.strip()]
    unknown = [m for m in metrics if m not in known]
    if unknown:
        raise UsageError(
            f"unknown --metrics {', '.join(unknown)}; expected some of {', '.join(known)}"
        )
    return metrics


def _parse_axis_value(text: str):
    """A CLI axis value, typed: int, float, bool, or string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text.strip()


def _grid_from_args(args: argparse.Namespace):
    """The grid a ``repro grid`` subcommand addresses.

    Raises:
        ValueError: For malformed --axis/--filter clauses or a --grid
            file combined with inline shape flags.
    """
    from repro.spec.grid import GridAxis, GridSpec, load_grid

    if args.grid:
        if args.axis or args.filters:
            raise ValueError("--grid already defines the shape; drop --axis/--filter")
        return load_grid(args.grid)
    axes = []
    for clause in args.axis:
        name, _, values = clause.partition("=")
        if not name or not values:
            raise ValueError(f"bad --axis {clause!r}; expected NAME=V1,V2,...")
        axes.append(
            GridAxis(name, tuple(_parse_axis_value(v) for v in values.split(",")))
        )
    filters = []
    for clause in args.filters:
        pairs = []
        for part in clause.split(","):
            axis, _, value = part.partition("=")
            if not axis or not value:
                raise ValueError(f"bad --filter {clause!r}; expected A=X,B=Y")
            pairs.append((axis, _parse_axis_value(value)))
        filters.append(tuple(pairs))
    return GridSpec(base=args.base, axes=axes, filters=filters)


def cmd_grid(args: argparse.Namespace, out) -> int:
    from repro.spec.grid import diff_grids, load_grid
    from repro.spec.model import SpecError

    if args.grid_command == "diff":
        try:
            difference = diff_grids(load_grid(args.grid_a), load_grid(args.grid_b))
        except (SpecError, KeyError, OSError) as error:
            raise UsageError(f"cannot diff grids: {error}") from None
        for bucket in ("added", "removed"):
            for label in difference[bucket]:
                print(f"{bucket} {label}", file=out)
        print(f"common {len(difference['common'])} points", file=out)
        return 0

    try:
        grid = _grid_from_args(args)
    except (ValueError, OSError) as error:
        raise UsageError(f"bad grid: {error}") from None

    if args.grid_command == "plan":
        from repro.spec.runner import plan_grid

        try:
            plan = plan_grid(grid, scale=args.scale, seed=args.seed)
        except (SpecError, KeyError) as error:
            raise UsageError(f"cannot plan grid: {error}") from None
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(grid.to_json())
                    handle.write("\n")
            except OSError as error:
                raise UsageError(f"cannot write grid {args.out}: {error}") from None
            print(f"wrote {args.out}", file=sys.stderr)
        if args.as_json:
            import json

            print(json.dumps({"base": grid.base, "points": plan},
                             indent=2, sort_keys=True), file=out)
            return 0
        warm = sum(1 for point in plan if point["warm"])
        print(
            f"grid base={grid.base} points={len(plan)} "
            f"(warm {warm}, cold {len(plan) - warm})",
            file=out,
        )
        for point in plan:
            state = "warm" if point["warm"] else "cold"
            print(
                f"  {state} {point['label']} "
                f"[base={point['base']} policy={point['policy']}]",
                file=out,
            )
        return 0

    if args.grid_command == "run":
        from repro.spec.runner import run_grid

        metrics = _parse_metrics(args.metrics)
        try:
            result = run_grid(grid, scale=args.scale, seed=args.seed)
        except (SpecError, KeyError) as error:
            raise UsageError(f"cannot run grid: {error}") from None
        _print_metric_rows(
            out, "point", [point.label for point in result.points], result.rows, metrics
        )
        print(
            f"grid: {len(result.points)} points "
            f"({result.warm} warm, {result.cold} simulated)",
            file=out,
        )
        return 0

    raise AssertionError(f"unhandled grid command {args.grid_command!r}")


_SIZE_SUFFIXES = {"K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}


def parse_size(text: str) -> int:
    """Parse a human size string (``750K``, ``500M``, ``2G``, ``1048576``).

    Raises:
        ValueError: For malformed, negative or infinite sizes.
    """
    text = text.strip().upper()
    if not text:
        raise ValueError("empty size")
    multiplier = 1
    if text[-1] in _SIZE_SUFFIXES:
        multiplier = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    size = float(text) * multiplier
    if not 0 <= size < math.inf:
        raise ValueError("size must be a finite number >= 0")
    return int(size)


def cmd_cache(args: argparse.Namespace, out) -> int:
    # Management works on the configured directory even with REPRO_CACHE=off
    # (you should be able to clear a cache you have just disabled), hence a
    # direct ArtifactStore rather than default_store().
    from repro.artifacts.store import ArtifactStore

    store = ArtifactStore()
    if args.cache_command == "stats":
        summary = store.stats_summary()
        if args.as_json:
            import json

            print(json.dumps(summary, indent=2, sort_keys=True), file=out)
        else:
            from repro.reporting.tables import render_cache_table

            print(render_cache_table(summary), file=out)
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}", file=out)
        return 0
    if args.cache_command == "gc":
        try:
            budget = parse_size(args.max_size)
        except ValueError as error:
            raise UsageError(f"bad --max-size {args.max_size!r}: {error}") from None
        removed, freed = store.gc(budget)
        print(
            f"evicted {removed} artifacts ({freed / 1e6:.1f} MB) from {store.root}",
            file=out,
        )
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def cmd_monitor(args: argparse.Namespace, out) -> int:
    from repro.monitor.evolution import STATIC_PLAN, load_evolution, standard_evolution
    from repro.monitor.report import render_timeline
    from repro.monitor.run import run_monitor
    from repro.spec.model import SpecError

    _check_policies([args.policy])
    if args.static:
        plan = STATIC_PLAN
    elif args.plan:
        try:
            plan = load_evolution(args.plan)
        except (SpecError, OSError) as error:
            raise UsageError(f"bad --plan: {error}") from None
    else:
        plan = standard_evolution()
    try:
        report = run_monitor(
            args.base,
            plan=plan,
            epochs=args.epochs,
            epoch_s=args.epoch_s,
            scale=args.scale,
            seed=args.seed,
            threshold=args.threshold,
            base_policy=args.policy,
        )
    except (SpecError, ValueError) as error:
        raise UsageError(f"cannot monitor: {error}") from None
    if args.as_json:
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(render_timeline(report), file=out)
    if args.digests:
        for line in report.digest_lines():
            print(line, file=out)
    return 0


def cmd_trace(args: argparse.Namespace, out) -> int:
    from repro.obs import export

    for flag, value in (("--top", getattr(args, "top", None)),
                        ("--depth", getattr(args, "depth", None))):
        if value is not None and value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    try:
        if args.trace_command == "diff":
            doc_a = export.read_trace(args.trace_a)
            doc_b = export.read_trace(args.trace_b)
        else:
            doc = export.read_trace(args.trace_file)
    except (OSError, ValueError) as error:
        raise UsageError(f"cannot read trace: {error}") from None
    if args.trace_command == "summary":
        if args.as_json:
            import json

            print(
                json.dumps(
                    export.summary_dict(doc, max_depth=args.depth),
                    indent=2, sort_keys=True,
                ),
                file=out,
            )
        else:
            print(export.render_summary(doc, max_depth=args.depth), file=out)
        return 0
    if args.trace_command == "slowest":
        print(export.render_slowest(doc, top=args.top), file=out)
        return 0
    if args.trace_command == "export":
        path = export.write_chrome(doc, args.out)
        print(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)", file=out)
        return 0
    if args.trace_command == "diff":
        print(export.render_diff(doc_a, doc_b, top=args.top), file=out)
        return 0
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _install_fault_plan(spec: str) -> None:
    """Make ``--faults`` this run's fault plan.

    Installs the plan in this process, where forked pool workers inherit
    it.  The run context the caller starts next holds this run's
    degradation counters, so its report covers exactly this run.

    Raises:
        UsageError: For a plan that does not parse or cannot be read.
    """
    from repro.faults import plan as faults_plan

    try:
        plan = faults_plan.FaultPlan.from_spec(spec)
    except (ValueError, OSError) as error:
        raise UsageError(f"bad --faults plan: {error}") from None
    faults_plan.set_current_plan(plan)


_COMMANDS = {
    "simulate": cmd_simulate,
    "study": cmd_study,
    "eval": cmd_eval,
    "sessions": cmd_sessions,
    "coldvideo": cmd_coldvideo,
    "whatif": cmd_whatif,
    "figures": cmd_figures,
    "anonymize": cmd_anonymize,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
    "monitor": cmd_monitor,
    "cache": cmd_cache,
    "trace": cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point.

    Args:
        argv: Argument vector (defaults to ``sys.argv[1:]``).
        out: Output stream (defaults to stdout; tests pass a buffer).

    Returns:
        Process exit code.
    """
    args = build_parser().parse_args(argv)
    out = sys.stdout if out is None else out
    if not getattr(args, "faults", None):
        return _run(args, out)
    # --faults installs this run's plan (forked pool workers inherit it);
    # drop it on exit, or a later invocation in this process would run
    # under this one's plan.
    from repro.faults.plan import clear_current_plan

    try:
        return _run(args, out)
    finally:
        clear_current_plan()


def _run(args: argparse.Namespace, out) -> int:
    """Check one parsed command's inputs, then run it."""
    try:
        _check_scale(getattr(args, "scale", None))
        if getattr(args, "faults", None):
            _install_fault_plan(args.faults)
    except UsageError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    # One fresh run context per invocation: the tracer and metrics (with
    # the degradation counters) start empty, so sequential invocations in
    # one process (tests, notebooks) never bleed into each other.
    run = obs.new_run()
    with obs.span(f"cli/{args.command}"):
        try:
            code = _COMMANDS[args.command](args, out)
        except UsageError as error:
            print(f"repro {args.command}: {error}", file=sys.stderr)
            return 2
    trace_dir = (
        getattr(args, "trace", None)
        or os.environ.get(obs.ENV_TRACE_DIR, "").strip()
        or None
    )
    if trace_dir and obs.trace_enabled() and args.command != "trace":
        # stderr, not `out`: stdout must stay byte-identical whether or
        # not a trace is being written.
        from repro.obs.export import write_trace

        path = write_trace(run, trace_dir)
        print(f"trace: {path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
