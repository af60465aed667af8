"""A2 — geolocation-method ablation: CBG vs. database vs. reverse DNS.

Section V's motivation, quantified: the IP-to-location database pins every
Google-AS server to headquarters (thousands of km of error for European
servers), reverse DNS answers only for the legacy fleet, and CBG localises
everything to tens of km.
"""

import pytest

from repro.geo.coords import haversine_km
from repro.geoloc.geodb import build_reference_geodb
from repro.geoloc.rdns import build_reverse_dns
from repro.sim.scenarios import PAPER_SCENARIOS, build_world


@pytest.fixture(scope="module")
def truth(results):
    """Ground-truth positions of focus servers (for scoring only)."""
    worlds = [r.world for r in results.values()]

    def site_of(ip):
        for world in worlds:
            site = world.site_of_server_ip(ip)
            if site is not None:
                return site
        return None

    return site_of


def test_bench_ablation_geoloc(benchmark, results, pipe, truth, save_artifact):
    server_map = pipe.server_map
    sample_ips = [cluster.server_ips[0] for cluster in server_map.clusters]
    registry = next(iter(results.values())).world.registry
    geodb = build_reference_geodb(registry)

    def geodb_errors():
        errors = []
        for ip in sample_ips:
            claimed = geodb.lookup(ip)
            actual = truth(ip)
            if claimed is not None and actual is not None:
                errors.append(haversine_km(claimed.point, actual.point))
        return errors

    db_errors = benchmark(geodb_errors)

    cbg_errors = []
    for cluster in server_map.clusters:
        actual = truth(cluster.server_ips[0])
        if actual is not None:
            cbg_errors.append(haversine_km(cluster.estimate, actual.point))

    # The legacy fleet is the same in every world; the measured weeks do
    # not carry the simulator's directory, so build one world for it.
    world = build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.01, seed=7)
    legacy_dcs = [dc for dc in world.system.directory if dc.dc_id.startswith("legacy-")]
    rdns = build_reverse_dns(legacy_dcs)
    rdns_answers = sum(1 for ip in sample_ips if rdns.lookup(ip) is not None)

    def median(values):
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    lines = [
        f"CBG:      answers={len(cbg_errors)}/{len(sample_ips)} "
        f"median error={median(cbg_errors):.0f} km",
        f"geo DB:   answers={len(db_errors)}/{len(sample_ips)} "
        f"median error={median(db_errors):.0f} km",
        f"rDNS:     answers={rdns_answers}/{len(sample_ips)} (Google fleet has no PTR)",
    ]
    save_artifact("ablation_geolocation", "\n".join(lines))

    # CBG answers everywhere with small error.
    assert len(cbg_errors) == len(sample_ips)
    assert median(cbg_errors) < 150.0
    # The database is wrong by continental distances on average.
    assert median(db_errors) > 1000.0
    # Reverse DNS cannot see the new infrastructure (focus = Google AS).
    assert rdns_answers == 0
