"""Server geolocation toolkit (Section V of the paper).

Three geolocation methods, matching the paper's comparison:

* :mod:`repro.geoloc.cbg` — Constraint-Based Geolocation (Gueye et al.,
  ToN 2006), implemented from scratch: per-landmark bestline calibration,
  RTT-to-distance constraints, spherical region intersection, confidence
  radius.  The method the paper adopts.
* :mod:`repro.geoloc.geodb` — an IP-to-location database in the Maxmind
  mould; accurate for ISP space, pins the whole Google AS to Mountain View
  (the failure the paper documents).
* :mod:`repro.geoloc.rdns` — reverse-DNS names with airport codes on the
  legacy infrastructure, and none for the new one ("DNS reverse lookup is
  not allowed").

Plus the active-probing plumbing (:mod:`repro.geoloc.probing`) and the
server-to-data-center clustering step (:mod:`repro.geoloc.clustering`).
"""
