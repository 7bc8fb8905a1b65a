"""Tests for geographic points and haversine distance."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.geo.point import GeoPoint, haversine_km

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, lat=latitudes, lon=longitudes)


class TestValidation:
    def test_latitude_bounds(self):
        with pytest.raises(ConfigError):
            GeoPoint(90.1, 0.0)
        with pytest.raises(ConfigError):
            GeoPoint(-90.1, 0.0)

    def test_longitude_bounds(self):
        with pytest.raises(ConfigError):
            GeoPoint(0.0, 180.5)
        with pytest.raises(ConfigError):
            GeoPoint(0.0, -181.0)

    def test_boundary_values_accepted(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)


class TestDistance:
    def test_zero_distance_to_self(self):
        point = GeoPoint(51.5, -0.12)
        assert point.distance_km(point) == 0.0

    def test_known_distance_london_paris(self):
        london = GeoPoint(51.5074, -0.1278)
        paris = GeoPoint(48.8566, 2.3522)
        assert haversine_km(london, paris) == pytest.approx(343.5, abs=3.0)

    def test_known_distance_equator_degree(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 1.0)
        assert haversine_km(a, b) == pytest.approx(111.19, abs=0.5)

    def test_antipodal_is_half_circumference(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert haversine_km(a, b) == pytest.approx(20015.0, abs=10.0)

    @given(points, points)
    def test_symmetric(self, a, b):
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))

    @given(points, points)
    def test_non_negative_and_bounded(self, a, b):
        distance = haversine_km(a, b)
        assert 0.0 <= distance <= 20_016.0

    @given(points, points, points)
    @example(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0), GeoPoint(1.192092896e-07, 180.0))
    def test_triangle_inequality(self, a, b, c):
        # Slack of 1 m, not 1 mm: near the antipode h -> 1 and
        # arcsin(sqrt(h)) is only good to ~1e-5 km (the pinned example
        # reads 20015.114442 against 20015.114430).
        assert haversine_km(a, c) <= (
            haversine_km(a, b) + haversine_km(b, c) + 1e-3
        )
