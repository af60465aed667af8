"""Figure 6 — number of flows per session for all datasets at T = 1 s."""

from repro.core.sessions import build_sessions, flows_per_session_histogram


def test_bench_fig06(benchmark, results, pipe, save_artifact):
    table = pipe.focus_tables["EU1-ADSL"]

    def compute():
        return flows_per_session_histogram(build_sessions(table, 1.0))

    benchmark(compute)

    lines = []
    for name in results:
        histogram = pipe.session_histogram(name)
        cells = " ".join(
            f"{label}:{histogram[label]:.3f}" for label in ("1", "2", "3", "4", ">9")
        )
        lines.append(f"{name:12s} {cells}")
        # Paper: 72.5-80.5 % single-flow sessions.
        assert 0.68 < histogram["1"] < 0.90, name
        # "use of application-layer redirection is not insignificant".
        assert histogram["1"] < 0.92, name
    save_artifact("fig06_flows_per_session", "\n".join(lines))
