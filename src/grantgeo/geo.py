"""Geodesy and clustering primitives.

Everything here is pure: coordinate parsing, great-circle
distance, spherical centroids, geodesic DBSCAN, and bounding-box tests.
All distance math uses a single Earth radius constant so tolerances are
consistent across the package.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0088
"""IUGG mean Earth radius in kilometres; sole radius used for distances."""

NOISE = -1
"""Cluster label assigned to points that belong to no cluster."""


def is_int(value) -> bool:
    """An int that is not a bool (a YAML ``true`` is a bool, which ``isinstance`` counts as an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


class UnparseableCoordinate(ValueError):
    """Raised when a text holds no coordinate, several, or an invalid one."""


class TooFewPoints(ValueError):
    """Raised when a centroid is requested for fewer than two points."""


class DegenerateMean(ValueError):
    """Raised when unit vectors cancel out (e.g. exact antipodes)."""


@dataclass(frozen=True)
class Coordinate:
    """Decimal-degree latitude/longitude pair.

    Latitude must lie in [-90, 90] and longitude in [-180, 180]; both
    must be finite. Enforced at construction.
    """

    lat: float
    lon: float

    def __post_init__(self):
        check_coordinate(self.lat, self.lon)


def check_coordinate(lat: float, lon: float) -> None:
    """ValueError unless both are finite, ``lat`` in [-90, 90] and ``lon`` in [-180, 180]."""
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"non-finite coordinate ({lat}, {lon})")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} outside [-180, 180]")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned lat/lon box, bounds inclusive."""

    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self):
        if self.min_lat > self.max_lat or self.min_lon > self.max_lon:
            raise ValueError("bounding box min exceeds max")

    def with_margin(self, margin_deg: float) -> "BoundingBox":
        """This box widened by ``margin_deg`` degrees on every side."""
        if margin_deg < 0:
            raise ValueError("margin_deg must be >= 0")
        m = margin_deg
        return BoundingBox(self.min_lat - m, self.max_lat + m, self.min_lon - m, self.max_lon + m)


VIRGINIA_BBOX = BoundingBox(36.54, 39.47, -83.68, -75.24)
"""Default Virginia extent used by geocode filtering and baselines."""


# Degrees-minutes-seconds, e.g. 37°00'07.2"N 77°07'58.8"W. Both straight
# and curly quote glyphs are accepted (OCR tolerance).
_DMS_RE = re.compile(
    r"(\d{1,2})\s*°\s*(\d{1,2})\s*['′’]\s*(\d{1,2}(?:\.\d+)?)\s*[\"″”]\s*([NS])"
    r"\s+(\d{1,3})\s*°\s*(\d{1,2})\s*['′’]\s*(\d{1,2}(?:\.\d+)?)\s*[\"″”]\s*([EW])"
)

# Decimal pair, e.g. 37.166303, -77.240091. The lookahead refuses a
# following digit or ".digit" but not a full stop ending the sentence.
_DECIMAL_RE = re.compile(
    r"(?<![\d.])([-+]?\d{1,3}(?:\.\d+)?)\s*,\s*([-+]?\d{1,3}(?:\.\d+)?)(?!\.?\d)"
)


def parse_coordinate_text(text: str) -> Coordinate:
    """Extract the single coordinate contained in ``text``.

    Accepts either a DMS pair with N/S and E/W suffixes or a decimal
    "lat, lon" pair. Surrounding prose is tolerated, but the text must
    contain exactly one coordinate.

    Raises UnparseableCoordinate when no coordinate is found, more than
    one is found, minutes/seconds are >= 60, or the result is out of
    range.
    """
    # _DMS_RE needs a "°" and _DECIMAL_RE a ",": a text without a form's literal cannot hold that form.
    dms = list(_DMS_RE.finditer(text)) if "°" in text else []
    decimal = list(_DECIMAL_RE.finditer(text)) if "," in text else []
    if len(dms) + len(decimal) == 0:
        raise UnparseableCoordinate(f"no coordinate found in {text!r}")
    if len(dms) + len(decimal) > 1:
        raise UnparseableCoordinate(f"multiple coordinates found in {text!r}")

    if dms:
        m = dms[0]
        lat = _dms_to_degrees(m.group(1), m.group(2), m.group(3))
        lon = _dms_to_degrees(m.group(5), m.group(6), m.group(7))
        if m.group(4) == "S":
            lat = -lat
        if m.group(8) == "W":
            lon = -lon
    else:
        m = decimal[0]
        lat, lon = float(m.group(1)), float(m.group(2))

    try:
        return Coordinate(lat, lon)
    except ValueError as exc:
        raise UnparseableCoordinate(str(exc)) from exc


def _dms_to_degrees(deg: str, minutes: str, seconds: str) -> float:
    d, m, s = float(deg), float(minutes), float(seconds)
    if m >= 60 or s >= 60:
        raise UnparseableCoordinate(f"minutes/seconds out of range: {m}' {s}\"")
    return d + m / 60.0 + s / 3600.0


def haversine_km(a: Coordinate, b: Coordinate) -> float:
    """Great-circle distance in kilometres between two coordinates."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    sin_dlat = math.sin((lat2 - lat1) / 2.0)
    sin_dlon = math.sin((lon2 - lon1) / 2.0)
    h = sin_dlat * sin_dlat + math.cos(lat1) * math.cos(lat2) * sin_dlon * sin_dlon
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def spherical_centroid(points: list[Coordinate]) -> Coordinate:
    """Mean of points computed on the unit sphere.

    Each point becomes a unit Cartesian vector; the component-wise mean
    is projected back to latitude/longitude. Requires at least two
    points (mirrors the centroid tool schema); raises DegenerateMean
    when the mean vector norm falls below 1e-12.
    """
    if len(points) < 2:
        raise TooFewPoints(f"need >= 2 points, got {len(points)}")
    x = y = z = 0.0
    for p in points:
        lat, lon = math.radians(p.lat), math.radians(p.lon)
        x += math.cos(lat) * math.cos(lon)
        y += math.cos(lat) * math.sin(lon)
        z += math.sin(lat)
    n = len(points)
    x, y, z = x / n, y / n, z / n
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        raise DegenerateMean("mean vector is (numerically) zero")
    lat = math.degrees(math.atan2(z, math.hypot(x, y)))
    lon = math.degrees(math.atan2(y, x))
    return Coordinate(lat, lon)


def geodesic_dbscan(points: list[Coordinate], eps_km: float, min_pts: int) -> tuple[int, ...]:
    """Each point's cluster label under DBSCAN with haversine_km as the metric.

    A core point has at least ``min_pts`` neighbours within ``eps_km``,
    counting itself. Points are scanned in index order and border points
    join the first qualifying cluster, so the assignment is
    deterministic for a given input order. Cluster indices are
    contiguous from 0; unclustered points get NOISE.
    """
    if eps_km <= 0:
        raise ValueError("eps_km must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = len(points)
    # haversine_km is symmetric bit for bit, so each unordered pair is
    # measured once; a point is always its own neighbour, as eps_km > 0.
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        neighbors[i].append(i)
        for j in range(i + 1, n):
            if haversine_km(points[i], points[j]) <= eps_km:
                neighbors[i].append(j)
                neighbors[j].append(i)
    labels: list[int | None] = [None] * n
    cluster = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        if len(neighbors[i]) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = deque(neighbors[i])
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point reached from a core
                continue
            if labels[j] is not None:
                continue
            labels[j] = cluster
            if len(neighbors[j]) >= min_pts:
                queue.extend(neighbors[j])
        cluster += 1
    return tuple(labels)  # type: ignore[arg-type]


def within_bbox(c: Coordinate, box: BoundingBox) -> bool:
    """True iff ``c`` lies inside the box (inclusive)."""
    return box.min_lat <= c.lat <= box.max_lat and box.min_lon <= c.lon <= box.max_lon
