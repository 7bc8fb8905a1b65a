"""Geospatial substrate: points, distances, named regions."""

from repro.geo.point import EARTH_RADIUS_KM, GeoPoint, haversine_km
from repro.geo.regions import CITIES, City, nearest_city

__all__ = [
    "CITIES",
    "City",
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "haversine_km",
    "nearest_city",
]
