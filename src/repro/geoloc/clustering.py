"""Server-to-data-center clustering (Section V, last step).

"Since several servers actually fall in a very similar area, we consider
all the YouTube servers found in all the datasets and aggregate them into
the same 'data center'.  In particular, servers are grouped into the same
data center if they are located in the same city according to CBG.  We note
that all servers with IP addresses in the same /24 subnet are always
aggregated to the same data center."

The implementation exploits the /24 observation for efficiency the way the
authors could have: geolocate one representative address per /24, then
agglomerate /24s whose estimates fall within city distance of each other
(geolocation error is comparable to metro size, so "same city" is a
distance threshold, not an exact string match).  Each cluster is labelled
with the nearest atlas city for reporting.  Everything here is *inference*
from measurements — ground-truth data center identities never enter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.geo.cities import City, WorldAtlas, default_atlas
from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.regions import Continent
from repro.geoloc.cbg import CbgResult
from repro.net.ip import slash24_of


@dataclass
class DataCenterCluster:
    """An inferred data center: servers CBG places in the same city.

    Attributes:
        cluster_id: Stable identifier, e.g. ``"cluster-amsterdam"``.
        city: The city the cluster snapped to.
        estimate: Mean CBG estimate over the member /24 representatives.
        confidence_radius_km: Mean CBG confidence radius of the members.
        server_ips: All member server addresses.
    """

    cluster_id: str
    city: City
    estimate: GeoPoint
    confidence_radius_km: float
    server_ips: List[int] = field(default_factory=list)

    @property
    def continent(self) -> Continent:
        """Continent of the inferred city (Table III bucketing)."""
        return self.city.continent

    def __len__(self) -> int:
        return len(self.server_ips)


@dataclass
class ServerMap:
    """The full inference result: address → cluster.

    Attributes:
        clusters: All inferred data centers.
        by_ip: Mapping from server address to its cluster.
        results_by_slash24: The raw CBG result per /24 representative.
    """

    clusters: List[DataCenterCluster]
    by_ip: Dict[int, DataCenterCluster]
    results_by_slash24: Dict[int, CbgResult]

    def continent_counts(self, server_ips: Iterable[int]) -> Dict[str, int]:
        """Table III row: server count per continent bucket."""
        counts = {"N. America": 0, "Europe": 0, "Others": 0}
        for ip in server_ips:
            cluster = self.by_ip.get(ip)
            if cluster is None:
                continue
            counts[cluster.continent.table3_bucket()] += 1
        return counts


#: Two /24 estimates closer than this are "in the same city".  /24s of one
#: physical data center measure nearly identical RTTs from every landmark,
#: so their estimates almost coincide — the threshold only needs to absorb
#: probe noise, and staying tight keeps neighbouring metro areas
#: (Amsterdam/Brussels, Zurich/Munich) apart even when CBG error is large.
DEFAULT_MERGE_KM = 80.0


def cluster_servers(
    server_ips: Sequence[int],
    geolocate: Callable[[int], CbgResult],
    atlas: Optional[WorldAtlas] = None,
    merge_km: float = DEFAULT_MERGE_KM,
) -> ServerMap:
    """Cluster server addresses into inferred data centers.

    Args:
        server_ips: All server addresses seen in the traces.
        geolocate: Measurement callback: geolocate one address with CBG.
            Called once per distinct /24.
        atlas: City vocabulary used to *label* clusters.
        merge_km: Same-city distance threshold between /24 estimates.

    Returns:
        The :class:`ServerMap`.

    Raises:
        ValueError: For a non-positive merge threshold.
    """
    if merge_km <= 0:
        raise ValueError("merge_km must be positive")
    if atlas is None:
        atlas = default_atlas()

    by_slash24: Dict[int, List[int]] = {}
    for ip in server_ips:
        by_slash24.setdefault(slash24_of(ip), []).append(ip)

    results: Dict[int, CbgResult] = {}
    # Agglomerate /24s around running centroids.
    groups: List[Dict] = []  # {"centroid": GeoPoint, "results": [...], "ips": [...]}
    for net24 in sorted(by_slash24):
        representative = by_slash24[net24][0]
        result = geolocate(representative)
        results[net24] = result
        best = None
        best_km = merge_km
        for group in groups:
            d = haversine_km(result.estimate, group["centroid"])
            if d < best_km:
                best, best_km = group, d
        if best is None:
            best = {"centroid": result.estimate, "results": [], "ips": []}
            groups.append(best)
        best["results"].append(result)
        best["ips"].extend(by_slash24[net24])
        lats = [r.estimate.lat for r in best["results"]]
        lons = [r.estimate.lon for r in best["results"]]
        best["centroid"] = GeoPoint(sum(lats) / len(lats), sum(lons) / len(lons))

    clusters: List[DataCenterCluster] = []
    by_ip: Dict[int, DataCenterCluster] = {}
    used_ids: Dict[str, int] = {}
    for group in sorted(groups, key=lambda g: (g["centroid"].lat, g["centroid"].lon)):
        city = atlas.nearest(group["centroid"])
        if city is None:
            continue
        member_results = group["results"]
        mean_conf = sum(r.confidence_radius_km for r in member_results) / len(member_results)
        slug = city.name.lower().replace(" ", "-").replace(".", "")
        count = used_ids.get(slug, 0)
        used_ids[slug] = count + 1
        cluster_id = f"cluster-{slug}" if count == 0 else f"cluster-{slug}-{count + 1}"
        cluster = DataCenterCluster(
            cluster_id=cluster_id,
            city=city,
            estimate=group["centroid"],
            confidence_radius_km=mean_conf,
            server_ips=sorted(group["ips"]),
        )
        clusters.append(cluster)
        for ip in cluster.server_ips:
            by_ip[ip] = cluster
    return ServerMap(clusters=clusters, by_ip=by_ip, results_by_slash24=results)
