"""Study reports: the summary, and every regenerated artifact in one document.

:func:`render_study_summary` is ``repro study``'s default output:
Tables I-III and each vantage point's preferred data center.
:func:`render_study_report` renders the complete output of a
:class:`~repro.core.pipeline.StudyPipeline` — Tables I-III and the data
behind Figures 2-16 — into a single plain-text report, section by paper
section.  The CLI's ``study`` command and the examples use them; the full
report is also handy as a regression artifact (diff two reports to see
what a change moved).
"""

from __future__ import annotations

import io
from typing import List

from repro.core.asmap import render_table2
from repro.core.geography import render_table3
from repro.core.nonpreferred import SessionPattern
from repro.core.pipeline import StudyPipeline
from repro.core.summary import render_table1
from repro.reporting.tables import TextTable, format_fraction


def _section(title: str) -> List[str]:
    bar = "=" * len(title)
    return ["", title, bar]


def render_study_summary(study: StudyPipeline) -> str:
    """Render the study summary: Tables I-III and the preferred-DC lines.

    This is ``repro study``'s default (non ``--full``) output in both
    ingestion modes; the equivalence contract (``tests/test_contract.py``)
    holds both to one golden, byte for byte.
    """
    buffer = io.StringIO()
    print(render_table1(study.summaries.values()), file=buffer)
    print("", file=buffer)
    print(render_table2(study.as_breakdowns.values()), file=buffer)
    print("", file=buffer)
    print(render_table3(study.table3_rows), file=buffer)
    print("", file=buffer)
    for name in study.dataset_names:
        report = study.preferred_reports[name]
        print(
            f"{name:12s} preferred={report.preferred_id:24s} "
            f"share={report.byte_share(report.preferred_id):6.1%} "
            f"non-preferred flows={study.nonpreferred_fraction(name):6.1%}",
            file=buffer,
        )
    return buffer.getvalue()


def render_study_report(pipeline: StudyPipeline, hot_dataset: str = "EU1-ADSL") -> str:
    """Render the full study report.

    Args:
        pipeline: A pipeline over the simulated (or collected) datasets.
        hot_dataset: The dataset used for the hot-spot deep dive
            (Figures 13-16); the paper uses EU1-ADSL.

    Returns:
        The report text.

    Raises:
        KeyError: If ``hot_dataset`` is not one of the pipeline's datasets.
    """
    # Only the full report runs the hot-spot analyses.
    from repro.core.hotspots import exactly_once_fraction, nonpreferred_requests_per_video

    if hot_dataset not in pipeline.dataset_names:
        raise KeyError(f"unknown dataset {hot_dataset!r}")
    lines: List[str] = ["YOUTUBE CDN SERVER-SELECTION STUDY — FULL REPORT"]

    lines += _section("Datasets (Table I)")
    lines.append(render_table1(pipeline.summaries.values()))

    lines += _section("AS location of servers (Table II)")
    lines.append(render_table2(pipeline.as_breakdowns.values()))

    lines += _section("Server geolocation (Table III, Figures 2-3)")
    lines.append(render_table3(pipeline.table3_rows))
    lines.append("")
    for name in pipeline.dataset_names:
        lines.append(pipeline.rtt_cdf(name).render(f"RTT ms — {name}"))
    lines.append("")
    for region, cdf in pipeline.fig3_cdfs.items():
        lines.append(cdf.render(f"CBG confidence km — {region}"))

    lines += _section("Flows and sessions (Figures 4-6)")
    table = TextTable(["Dataset", "flows", "control%", "1-flow sess%", ">=2-flow sess%"])
    for name in pipeline.dataset_names:
        histogram = pipeline.session_histogram(name)
        size_cdf = pipeline.flow_size_cdf(name)
        table.add_row(
            name,
            len(pipeline.dataset(name)),
            format_fraction(size_cdf.fraction_below(1000)),
            format_fraction(histogram["1"]),
            format_fraction(1.0 - histogram["1"]),
        )
    lines.append(table.render())

    lines += _section("Preferred data centers (Figures 7-9)")
    table = TextTable(
        [
            "Dataset", "preferred DC", "byte share%", "min RTT [ms]",
            "closest-5 share%", "non-preferred%",
        ]
    )
    for name in pipeline.dataset_names:
        report = pipeline.preferred_reports[name]
        table.add_row(
            name,
            report.preferred_id,
            format_fraction(report.byte_share(report.preferred_id)),
            f"{report.preferred.min_rtt_ms:.1f}",
            format_fraction(report.closest_k_share(5)),
            format_fraction(pipeline.nonpreferred_fraction(name)),
        )
    lines.append(table.render())

    lines += _section("DNS vs. application-layer redirection (Figure 10)")
    table = TextTable(
        [
            "Dataset", "1-flow pref%", "1-flow nonpref%",
            "2f P,P%", "2f P,N%", "2f N,P%", "2f N,N%", "DNS-caused%",
        ]
    )
    for name in pipeline.dataset_names:
        one = pipeline.one_flow_breakdown(name)
        two = pipeline.two_flow_breakdown(name)
        causes = pipeline.dns_vs_redirection(name)
        table.add_row(
            name,
            format_fraction(one.preferred_fraction),
            format_fraction(one.nonpreferred_fraction),
            format_fraction(two[SessionPattern.PREFERRED_PREFERRED]),
            format_fraction(two[SessionPattern.PREFERRED_NONPREFERRED]),
            format_fraction(two[SessionPattern.NONPREFERRED_PREFERRED]),
            format_fraction(two[SessionPattern.NONPREFERRED_NONPREFERRED]),
            format_fraction(causes["dns"]),
        )
    lines.append(table.render())
    lines.append("")
    for name in pipeline.dataset_names:
        multi = pipeline.multi_flow_breakdown(name)
        lines.append(
            f"{name:12s} >2-flow sessions: {multi.share_of_all_sessions:5.1%} of all "
            f"(first-preferred-then-mixed {multi.fraction(multi.first_preferred_rest_mixed):.0%}, "
            f"first-non-preferred {multi.fraction(multi.first_nonpreferred):.0%})"
        )

    lines += _section("DNS-level load balancing (Figure 11)")
    for name in pipeline.dataset_names:
        lb = pipeline.load_balance(name)
        try:
            quiet, busy = lb.night_day_split()
            lines.append(
                f"{name:12s} quiet-hours local {quiet:5.1%}   "
                f"busy-hours local {busy:5.1%}   "
                f"correlation {lb.correlation():+.2f}"
            )
        except ValueError:
            lines.append(f"{name:12s} (not enough hours to split)")

    lines += _section("Subnet divergence (Figure 12)")
    for name in pipeline.dataset_names:
        shares = pipeline.subnet_shares(name)
        cells = "  ".join(
            f"{s.subnet_name}:{s.nonpreferred_share:.0%}/{s.all_share:.0%}"
            for s in shares
        )
        lines.append(f"{name:12s} (nonpref share / all share)  {cells}")

    lines += _section(f"Hot spots and cold content (Figures 13-16, {hot_dataset})")
    counts = nonpreferred_requests_per_video(
        pipeline.focus_tables[hot_dataset],
        pipeline.preferred_reports[hot_dataset],
        pipeline.server_map,
    )
    lines.append(
        f"videos with non-preferred downloads: {len(counts)} "
        f"(exactly once: {exactly_once_fraction(counts):.1%}, "
        f"max: {max(counts.values())})"
    )
    for video in pipeline.hot_videos(hot_dataset):
        lines.append(
            f"  hot video {video.video_id}: peak hour {video.peak_hour()}, "
            f"{video.spike_concentration():.0%} of requests in one day, "
            f"{sum(video.nonpreferred_requests.ys):.0f} served non-preferred"
        )
    load = pipeline.server_load(hot_dataset)
    lines.append(f"preferred-DC server load: peak max/avg ratio {load.peak_ratio():.1f}")

    lines += _section("Peering ingress (capacity planning)")
    for name in pipeline.dataset_names:
        peering = pipeline.peering(name)
        top = peering.per_as[0]
        lines.append(
            f"{name:12s} top origin AS{top.asn} ({top.name}): "
            f"{top.total_bytes / 1e9:.1f} GB, p95 {top.p95_mbps():.1f} Mbps; "
            f"on-net share {peering.on_net_fraction:.0%}"
        )

    return "\n".join(lines)
