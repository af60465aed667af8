"""Continent taxonomy and country-to-continent mapping.

Table III of the paper buckets geolocated servers by continent
(North America / Europe / Others); this module is the authority for that
bucketing.
"""

from __future__ import annotations

import enum


class Continent(enum.Enum):
    """Continents used by the paper's Table III and the landmark mix."""

    NORTH_AMERICA = "N. America"
    SOUTH_AMERICA = "S. America"
    EUROPE = "Europe"
    ASIA = "Asia"
    OCEANIA = "Oceania"
    AFRICA = "Africa"

    @property
    def label(self) -> str:
        """Human-readable label, matching the paper's table headers."""
        return self.value

    def table3_bucket(self) -> str:
        """The Table III column this continent falls into."""
        if self is Continent.NORTH_AMERICA:
            return "N. America"
        if self is Continent.EUROPE:
            return "Europe"
        return "Others"


_COUNTRY_CONTINENT = {
    # North America
    "US": Continent.NORTH_AMERICA,
    "CA": Continent.NORTH_AMERICA,
    "MX": Continent.NORTH_AMERICA,
    # South America
    "BR": Continent.SOUTH_AMERICA,
    "AR": Continent.SOUTH_AMERICA,
    "CL": Continent.SOUTH_AMERICA,
    "CO": Continent.SOUTH_AMERICA,
    # Europe
    "IT": Continent.EUROPE,
    "FR": Continent.EUROPE,
    "DE": Continent.EUROPE,
    "GB": Continent.EUROPE,
    "NL": Continent.EUROPE,
    "ES": Continent.EUROPE,
    "SE": Continent.EUROPE,
    "IE": Continent.EUROPE,
    "BE": Continent.EUROPE,
    "CH": Continent.EUROPE,
    "AT": Continent.EUROPE,
    "PL": Continent.EUROPE,
    "PT": Continent.EUROPE,
    "FI": Continent.EUROPE,
    "NO": Continent.EUROPE,
    "DK": Continent.EUROPE,
    "CZ": Continent.EUROPE,
    "HU": Continent.EUROPE,
    "GR": Continent.EUROPE,
    "RO": Continent.EUROPE,
    # Asia
    "JP": Continent.ASIA,
    "SG": Continent.ASIA,
    "HK": Continent.ASIA,
    "KR": Continent.ASIA,
    "TW": Continent.ASIA,
    "IN": Continent.ASIA,
    "CN": Continent.ASIA,
    "IL": Continent.ASIA,
    "TH": Continent.ASIA,
    # Oceania
    "AU": Continent.OCEANIA,
    "NZ": Continent.OCEANIA,
    # Africa
    "ZA": Continent.AFRICA,
    "EG": Continent.AFRICA,
    "KE": Continent.AFRICA,
    "NG": Continent.AFRICA,
}


def continent_of_country(country_code: str) -> Continent:
    """Map an ISO-3166 alpha-2 country code to its continent.

    Raises:
        KeyError: If the country code is not in the registry.
    """
    try:
        return _COUNTRY_CONTINENT[country_code.upper()]
    except KeyError:
        raise KeyError(f"unknown country code: {country_code!r}") from None
