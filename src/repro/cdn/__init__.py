"""The simulated YouTube CDN.

Mechanism-for-mechanism model of the system the paper reverse-engineers:

* a video catalog with Zipf popularity and "video of the day" features
  (:mod:`repro.cdn.catalog`);
* data centers hosting content servers in /24s of the Google AS
  (:mod:`repro.cdn.datacenter`);
* content placement — popular titles everywhere, cold titles at a single
  origin until pulled through (:mod:`repro.cdn.store`);
* DNS-level server selection policies, including the preferred-data-center
  policy with load-aware spillover and per-resolver overrides, plus the old
  size-proportional policy as a baseline (:mod:`repro.cdn.selection`);
* application-layer redirection at the content servers
  (:mod:`repro.cdn.redirection`);
* the assembled system (:mod:`repro.cdn.cluster`).
"""
