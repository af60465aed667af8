"""repro — a reproduction of *Dissecting Video Server Selection Strategies
in the YouTube CDN* (Torres et al., IEEE ICDCS 2011).

The package has three layers:

* **World model** (:mod:`repro.geo`, :mod:`repro.net`, :mod:`repro.cdn`,
  :mod:`repro.workload`, :mod:`repro.sim`) — a generative simulator of the
  2010 YouTube CDN and of the five monitored edge networks, standing in for
  the paper's proprietary traces.
* **Measurement tools** (:mod:`repro.trace`, :mod:`repro.geoloc`,
  :mod:`repro.active`) — the Tstat-like flow collector, CBG delay-based
  geolocation, whois/AS mapping, ping campaigns and the PlanetLab-style
  active experiments.
* **Analysis pipeline** (:mod:`repro.core`, :mod:`repro.reporting`) — the
  paper's methodology: flow classification, video sessions, preferred data
  centers, and the cause analysis behind every table and figure.

Quick start::

    from repro.sim.driver import run_scenario
    from repro.core.flows import classify_flows
    from repro.core.sessions import build_sessions

    result = run_scenario("EU1-ADSL", scale=0.01)
    flows = classify_flows(result.dataset.table)
    sessions = build_sessions(result.dataset.table, gap_s=1.0)
"""

__version__ = "1.0.0"
