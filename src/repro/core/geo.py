"""Geodesic helpers shared by the η-neighbor sweep and the generators.

Everything is vectorized numpy on a spherical Earth of radius
``EARTH_RADIUS_M``; the neighbor sweep, the test oracle and the data
generators all use these same formulas.
"""
from __future__ import annotations

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


def haversine_np(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Great-circle distance in meters (numpy, broadcasts)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def meters_to_lat_degrees(meters: float) -> float:
    """Degrees of latitude spanning ``meters`` (latitude-independent).

    Also a lower bound on distance: two points whose latitudes differ
    by at least ``meters_to_lat_degrees(d)`` are at least ``d`` apart.
    """
    return meters / (EARTH_RADIUS_M * np.pi / 180.0)


def meters_to_lon_degrees(meters: float, at_latitude: float) -> float:
    """Degrees of longitude spanning ``meters`` along the parallel at
    ``at_latitude`` — how the generators lay sensors out east–west at a
    chosen spacing."""
    scale = np.cos(np.radians(at_latitude))
    scale = max(scale, 1e-6)  # degenerate near the poles; the span just grows
    return meters / (EARTH_RADIUS_M * np.pi / 180.0 * scale)
