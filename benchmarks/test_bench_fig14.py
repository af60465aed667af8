"""Figure 14 — the top-4 hot videos' request time lines (EU1-ADSL)."""

from repro.core.hotspots import top_nonpreferred_videos


def test_bench_fig14(benchmark, results, pipe, save_artifact):
    name = "EU1-ADSL"
    table = pipe.focus_tables[name]
    report = pipe.preferred_reports[name]
    num_hours = results[name].dataset.num_hours

    def compute():
        return top_nonpreferred_videos(table, report, pipe.server_map, num_hours)

    videos = benchmark(compute)

    lines = []
    for video in videos:
        lines.append(
            f"{video.video_id}: peak_hour={video.peak_hour()} "
            f"24h-concentration={video.spike_concentration():.2f} "
            f"total={sum(video.all_requests.ys):.0f} "
            f"non-preferred={sum(video.nonpreferred_requests.ys):.0f}"
        )
        lines.append(video.all_requests.render())
    save_artifact("fig14_hot_videos", "\n".join(lines))

    assert len(videos) == 4
    # "played by default ... for exactly 24 hours": day-long spikes.
    spiky = [v for v in videos if v.spike_concentration() > 0.8]
    assert len(spiky) >= 3
    assert all(sum(v.nonpreferred_requests.ys) > 0 for v in videos)
