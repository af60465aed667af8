"""Geography substrate: coordinates, spherical math, world cities, landmarks.

This package provides the physical-world model that everything else builds
on.  Distances drive the latency model (:mod:`repro.net.latency`), city
locations anchor data centers (:mod:`repro.cdn.datacenter`), and the landmark
set feeds constraint-based geolocation (:mod:`repro.geoloc.cbg`).
"""
