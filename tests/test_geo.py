"""Geodesy core: parsing, distance, centroids, DBSCAN."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grantgeo import geo
from grantgeo.geo import (
    EARTH_RADIUS_KM,
    NOISE,
    BoundingBox,
    Coordinate,
    DegenerateMean,
    TooFewPoints,
    UnparseableCoordinate,
    VIRGINIA_BBOX,
    geodesic_dbscan,
    haversine_km,
    parse_coordinate_text,
    spherical_centroid,
    within_bbox,
)

# Anchor coordinates from the recorded tool trace, reused throughout.
TRACE_ANCHOR_A = Coordinate(37.1733, -77.2396666)
TRACE_ANCHOR_B = Coordinate(37.1593052, -77.2405153)
TRACE_CENTROID = Coordinate(37.16630260, -77.24009098)
TRACE_GEOCODE_1 = Coordinate(36.9058167, -77.2405153)
TRACE_GEOCODE_2 = Coordinate(37.10810973, -77.15139208)


def oracle_haversine(a: Coordinate, b: Coordinate) -> float:
    """Independent reference: atan2 form instead of the asin form."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlmb = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return EARTH_RADIUS_KM * 2 * math.atan2(math.sqrt(h), math.sqrt(1 - h))


def random_coordinate(rng: random.Random) -> Coordinate:
    return Coordinate(rng.uniform(-90, 90), rng.uniform(-180, 180))


class TestCoordinate:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            Coordinate(91.0, 0.0)
        with pytest.raises(ValueError):
            Coordinate(0.0, -180.5)
        with pytest.raises(ValueError):
            Coordinate(float("nan"), 0.0)

    def test_boundaries_allowed(self):
        Coordinate(90.0, 180.0)
        Coordinate(-90.0, -180.0)


class TestParseCoordinateText:
    def test_decimal_pair(self):
        c = parse_coordinate_text("37.166303, -77.240091")
        assert c == Coordinate(37.166303, -77.240091)

    def test_dms_zero(self):
        assert parse_coordinate_text("00°00'00.0\"N 000°00'00.0\"W") == Coordinate(0.0, 0.0)

    def test_dms_base60_conversion(self):
        # 37 + 7.2/3600 and -(77 + 7/60 + 58.8/3600), by hand
        c = parse_coordinate_text("37°00'07.2\"N 77°07'58.8\"W")
        assert c.lat == pytest.approx(37.002000, abs=1e-9)
        assert c.lon == pytest.approx(-77.133000, abs=1e-9)

    def test_south_and_east_signs(self):
        c = parse_coordinate_text("10°30'00.0\"S 020°00'00.0\"E")
        assert c == Coordinate(-10.5, 20.0)

    def test_surrounding_prose_tolerated(self):
        c = parse_coordinate_text("Final answer: 37.4316, -78.6569 (statewide)")
        assert c == Coordinate(37.4316, -78.6569)
        # a full stop ending the sentence is not part of the number
        assert parse_coordinate_text("It is 37.166303, -77.240091.") == Coordinate(37.166303, -77.240091)

    def test_curly_quotes_accepted(self):
        c = parse_coordinate_text("37°00’07.2”N 77°07’58.8”W")
        assert c.lat == pytest.approx(37.002, abs=1e-9)

    def test_no_coordinate(self):
        with pytest.raises(UnparseableCoordinate):
            parse_coordinate_text("somewhere in Virginia")

    def test_two_coordinates(self):
        with pytest.raises(UnparseableCoordinate):
            parse_coordinate_text("37.0, -77.0 or maybe 38.0, -78.0")
        with pytest.raises(UnparseableCoordinate):
            parse_coordinate_text("Either 37.1, -77.2 or 37.3, -77.4.")

    def test_minutes_out_of_range(self):
        with pytest.raises(UnparseableCoordinate):
            parse_coordinate_text("37°61'00.0\"N 77°00'00.0\"W")

    def test_seconds_out_of_range(self):
        with pytest.raises(UnparseableCoordinate):
            parse_coordinate_text("37°00'61.0\"N 77°00'00.0\"W")

    def test_out_of_range_decimal(self):
        with pytest.raises(UnparseableCoordinate):
            parse_coordinate_text("91.0, -77.0")


def _unguarded_parse(text: str) -> Coordinate:
    """``parse_coordinate_text`` scanning for both forms whatever literals the text holds."""
    found = [*geo._DMS_RE.finditer(text), *geo._DECIMAL_RE.finditer(text)]
    if len(found) != 1:
        raise UnparseableCoordinate(f"{len(found)} coordinates")
    m = found[0]
    if m.re is geo._DECIMAL_RE:
        return Coordinate(float(m.group(1)), float(m.group(2)))
    lat, lon = geo._dms_to_degrees(*m.group(1, 2, 3)), geo._dms_to_degrees(*m.group(5, 6, 7))
    return Coordinate(-lat if m.group(4) == "S" else lat, -lon if m.group(8) == "W" else lon)


# Pieces of replies that mix both forms, and the literals and digits either form could grow from.
_REPLY_PIECES = st.sampled_from([
    "37°00'07.2\"N 77°07'58.8\"W", "10°30’00.0”S 020°00'00.0″E", "37°61'00.0\"N 77°00'00.0\"W",
    "37.166303, -77.240091", "91.0, -77.0", "+1,2", "37.1,", "-77.2", "°", ",", "'", '"', "N", "W", "S", "E",
    " ", "\n", ".", "0", "7", "37", "-", "Final answer: ", "(statewide)",
])


class TestParseGuards:
    @given(st.lists(_REPLY_PIECES, max_size=8).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_guarded_parse_equals_the_unguarded_scan(self, text):
        try:
            expected = _unguarded_parse(text)
        except (UnparseableCoordinate, ValueError):
            with pytest.raises(UnparseableCoordinate):
                parse_coordinate_text(text)
        else:
            assert parse_coordinate_text(text) == expected


_SECONDS = st.integers(0, 60 * 10**5 - 1)  # in units of 10**-5 arc-seconds, so five decimals print exactly


def _axis(draw, max_degrees: int, width: int, hemispheres: str) -> tuple[str, float]:
    """One axis as the one-shot prompt asks for it, zero-padded, and the degrees it names."""
    d, m, s = draw(st.integers(0, max_degrees)), draw(st.integers(0, 59)), draw(_SECONDS)
    hemisphere = draw(st.sampled_from(hemispheres))
    seconds = f"{s // 10**5:02d}.{s % 10**5:05d}"
    degrees = d + m / 60 + float(seconds) / 3600
    return f"{d:0{width}d}°{m:02d}'{seconds}\"{hemisphere}", -degrees if hemisphere in "SW" else degrees


class TestOneShotReplyFormat:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_parses_every_reply_in_the_prompted_format(self, data):
        lat_text, lat = _axis(data.draw, 89, 2, "NS")
        lon_text, lon = _axis(data.draw, 179, 3, "EW")
        assert parse_coordinate_text(f"{lat_text} {lon_text}") == Coordinate(lat, lon)


class TestHaversine:
    def test_identity(self):
        p = Coordinate(36.9058167, -77.2405153)
        assert haversine_km(p, p) == 0.0

    def test_half_great_circle(self):
        assert haversine_km(Coordinate(0, 0), Coordinate(0, 180)) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, abs=1e-9
        )

    def test_trace_fixture_points(self):
        # frozen from the independent oracle before implementation
        assert haversine_km(TRACE_GEOCODE_1, TRACE_GEOCODE_2) == pytest.approx(23.845496, abs=1e-3)

    def test_symmetry_and_oracle_agreement(self):
        rng = random.Random(7)
        for _ in range(1000):
            a, b = random_coordinate(rng), random_coordinate(rng)
            d = haversine_km(a, b)
            assert d == haversine_km(b, a)
            assert d >= 0
            ref = oracle_haversine(a, b)
            assert d == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_triangle_inequality(self):
        rng = random.Random(99)
        for _ in range(300):
            a, b, c = (random_coordinate(rng) for _ in range(3))
            assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9


class TestSphericalCentroid:
    def test_trace_centroid(self):
        c = spherical_centroid([TRACE_ANCHOR_A, TRACE_ANCHOR_B])
        assert abs(c.lat - TRACE_CENTROID.lat) <= 1e-6
        assert abs(c.lon - TRACE_CENTROID.lon) <= 1e-6

    def test_identical_points(self):
        p = Coordinate(37.5, -77.5)
        c = spherical_centroid([p, p])
        assert c.lat == pytest.approx(p.lat, abs=1e-9)
        assert c.lon == pytest.approx(p.lon, abs=1e-9)

    def test_equatorial_symmetry(self):
        c = spherical_centroid([Coordinate(10, 50), Coordinate(-10, 50)])
        assert c.lat == pytest.approx(0.0, abs=1e-9)
        assert c.lon == pytest.approx(50.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            spherical_centroid([Coordinate(0, 0)])

    def test_degenerate_antipodes(self):
        with pytest.raises(DegenerateMean):
            spherical_centroid([Coordinate(0, 0), Coordinate(0, 180)])

    def test_n_copies(self):
        p = Coordinate(36.7, -78.9)
        for n in (2, 5, 9):
            c = spherical_centroid([p] * n)
            assert abs(c.lat - p.lat) <= 1e-9
            assert abs(c.lon - p.lon) <= 1e-9

    @given(
        st.lists(st.tuples(st.floats(-80, 80), st.floats(-170, 170)), min_size=2, max_size=8).filter(
            lambda raw: math.hypot(*_mean_unit_vector(raw)[:2]) >= 1e-4
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, raw):
        """Only a summation order changes, so the centroids agree to rounding. The draws keep the mean's
        horizontal part at least 1e-4 long: the sums' rounding (below 1e-15) then moves the latitude and the
        longitude by under 1e-9 degrees. A (near-)zero mean is test_degenerate_antipodes' case."""
        pts = [Coordinate(lat, lon) for lat, lon in raw]
        rng = random.Random(42)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        a = spherical_centroid(pts)
        b = spherical_centroid(shuffled)
        assert abs(a.lat - b.lat) <= 1e-9
        assert abs((a.lon - b.lon + 180.0) % 360.0 - 180.0) <= 1e-9  # 180 and -180 are one meridian


def _mean_unit_vector(raw):
    """The mean (x, y, z) of the (lat, lon) degree pairs as unit vectors."""
    vectors = [
        (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))
        for lat, lon in ((math.radians(lat), math.radians(lon)) for lat, lon in raw)
    ]
    return [sum(axis) / len(vectors) for axis in zip(*vectors)]


def brute_force_dbscan(points, eps_km, min_pts, distance=oracle_haversine):
    """Reference DBSCAN: cores by counting, components, min-index borders."""
    n = len(points)
    dist = [[distance(points[i], points[j]) for j in range(n)] for i in range(n)]
    cores = [i for i in range(n) if sum(1 for j in range(n) if dist[i][j] <= eps_km) >= min_pts]
    core_set = set(cores)
    comp: dict[int, int] = {}
    next_id = 0
    for i in cores:
        if i in comp:
            continue
        stack = [i]
        comp[i] = next_id
        while stack:
            u = stack.pop()
            for v in cores:
                if v not in comp and dist[u][v] <= eps_km:
                    comp[v] = next_id
                    stack.append(v)
        next_id += 1
    labels = []
    for i in range(n):
        if i in core_set:
            labels.append(comp[i])
            continue
        reachable = [comp[c] for c in cores if dist[i][c] <= eps_km]
        labels.append(min(reachable) if reachable else NOISE)
    return labels


class TestGeodesicDbscan:
    def test_coincident_points(self):
        pts = [Coordinate(37, -77)] * 5
        assert geodesic_dbscan(pts, 0.5, 3) == (0, 0, 0, 0, 0)

    def test_cluster_plus_noise(self):
        close = [Coordinate(37.0, -77.0), Coordinate(37.001, -77.0), Coordinate(37.0, -77.001)]
        far = [Coordinate(39.0, -75.5), Coordinate(36.6, -82.0)]
        pts = close + far
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert haversine_km(pts[i], pts[j]) <= 0.2
        for f in (3, 4):
            for i in range(3):
                assert haversine_km(pts[i], pts[f]) >= 100
        assert geodesic_dbscan(pts, 0.5, 3) == (0, 0, 0, NOISE, NOISE)

    def test_all_noise(self):
        pts = [Coordinate(37 + i, -77) for i in range(4)]
        assert geodesic_dbscan(pts, 0.5, 3) == (NOISE,) * 4

    def test_empty_input(self):
        assert geodesic_dbscan([], 0.5, 3) == ()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            geodesic_dbscan([], 0.0, 3)
        with pytest.raises(ValueError):
            geodesic_dbscan([], 0.5, 0)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(0, 12)
            pts = [
                Coordinate(37.0 + rng.uniform(-0.05, 0.05), -77.0 + rng.uniform(-0.05, 0.05))
                for _ in range(n)
            ]
            eps = rng.choice([0.5, 1.0, 3.0])
            min_pts = rng.randint(1, 4)
            got = list(geodesic_dbscan(pts, eps, min_pts))
            want = brute_force_dbscan(pts, eps, min_pts)
            assert got == want, (pts, eps, min_pts)

    def test_five_points_take_ten_distances(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geo, "haversine_km", lambda a, b: calls.append((a, b)) or haversine_km(a, b))
        pts = [Coordinate(37.0 + i * 0.001, -77.0) for i in range(5)]
        assert geodesic_dbscan(pts, 0.5, 3) == (0,) * 5
        assert len(calls) == 10

    @given(
        st.lists(st.tuples(st.floats(36.99, 37.01), st.floats(-77.01, -76.99)), max_size=12),
        st.sampled_from([0.3, 0.5, 1.0, 3.0]) | st.floats(0.01, 3.0),
        st.integers(1, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_pair_measured_once_gives_the_n_squared_labels(self, raw, eps, min_pts):
        # The reference measures both orders of every pair with the same metric.
        pts = [Coordinate(lat, lon) for lat, lon in raw]
        want = brute_force_dbscan(pts, eps, min_pts, distance=haversine_km)
        assert list(geodesic_dbscan(pts, eps, min_pts)) == want


class TestWithinBbox:
    def test_virginia_interior(self):
        assert within_bbox(Coordinate(37.54, -77.44), VIRGINIA_BBOX)

    def test_outside_both_axes(self):
        assert not within_bbox(Coordinate(40.71, -74.00), VIRGINIA_BBOX)

    def test_boundary_inclusive(self):
        assert within_bbox(Coordinate(VIRGINIA_BBOX.min_lat, -77.0), VIRGINIA_BBOX)

    def test_margin_expansion(self):
        box = BoundingBox(36.0, 37.0, -78.0, -77.0).with_margin(0.5)
        assert box == BoundingBox(35.5, 37.5, -78.5, -76.5)
        assert within_bbox(Coordinate(37.4, -77.5), box)
        assert not within_bbox(Coordinate(37.6, -77.5), box)

    @given(
        st.floats(-90, 90), st.floats(-180, 180),
        st.sampled_from([0.0, 0.1, 0.2, 0.5]) | st.floats(0, 5),
        st.sampled_from([VIRGINIA_BBOX, BoundingBox(36.0, 37.0, -78.0, -77.0)]),
    )
    @settings(max_examples=500, deadline=None)
    @example(36.34, -77.0, 0.2, VIRGINIA_BBOX)  # 36.54 - 0.2 rounds below 36.34
    @example(39.67, -75.04, 0.2, VIRGINIA_BBOX)
    def test_widened_box_compares_as_the_margin_did(self, lat, lon, margin, box):
        """with_margin widens each bound by the same subtraction or addition the comparison once made."""
        m = margin
        margin_test = box.min_lat - m <= lat <= box.max_lat + m and box.min_lon - m <= lon <= box.max_lon + m
        assert within_bbox(Coordinate(lat, lon), box.with_margin(margin)) == margin_test

    def test_negative_margin_refused(self):
        with pytest.raises(ValueError, match="margin_deg must be >= 0"):
            VIRGINIA_BBOX.with_margin(-0.1)

    def test_bad_box(self):
        with pytest.raises(ValueError):
            BoundingBox(37.0, 36.0, -78.0, -77.0)
