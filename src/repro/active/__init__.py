"""Active PlanetLab-style experiments (Section VII-C).

The paper validates the cold-content hypothesis with controlled experiments:
upload a fresh test video, download it from 45 PlanetLab nodes around the
world every 30 minutes for 12 hours, and watch the serving data center move
from a far-away origin (first fetch) to the node's preferred data center
(every later fetch) — Figures 17 and 18.
"""
