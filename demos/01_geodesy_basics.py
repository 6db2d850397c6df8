"""Geodesy primitives: parse, measure, average, cluster.

Every spatial value in the package is a plain Coordinate, and every
distance is a great-circle distance on the same fixed-radius sphere.
This walkthrough exercises each primitive on hand-sized inputs.
"""

from grantgeo import (
    Coordinate,
    EARTH_RADIUS_KM,
    VIRGINIA_BBOX,
    geodesic_dbscan,
    haversine_km,
    parse_coordinate_text,
    spherical_centroid,
    within_bbox,
)

print(f"Earth radius used everywhere: {EARTH_RADIUS_KM} km\n")

# Model replies arrive either as decimal pairs or as DMS strings.
for text in (
    "37.166303, -77.240091",
    '37°00\'07.2"N 77°07\'58.8"W',
    "Final answer: 36.757059, -77.836728",
):
    c = parse_coordinate_text(text)
    print(f"parsed {text!r}")
    print(f"    -> ({c.lat}, {c.lon})")

# Great-circle distances.
richmond = Coordinate(37.5407, -77.4360)
norfolk = Coordinate(36.8508, -76.2859)
print(f"\nRichmond -> Norfolk: {haversine_km(richmond, norfolk):.1f} km")

# Spherical centroid: average on the unit sphere, not in lat/lon space.
anchors = [Coordinate(37.1733, -77.2396666), Coordinate(37.1593052, -77.2405153)]
mid = spherical_centroid(anchors)
print(f"centroid of two swamp anchors: ({mid.lat:.8f}, {mid.lon:.8f})")

# Density clustering with a km radius: the ensemble vote runs on this.
answers = [
    Coordinate(37.2000, -77.3000),
    Coordinate(37.2002, -77.3001),
    Coordinate(37.2001, -77.2999),
    Coordinate(38.9000, -78.2000),  # stray answer
    Coordinate(36.7000, -76.4000),  # another stray
]
labels = geodesic_dbscan(answers, eps_km=0.5, min_pts=3)
print(f"\nDBSCAN labels over five answers (noise = -1): {labels}")

# Bounding-box membership backs the Virginia-only filters.
print(f"\nRichmond inside the Virginia box? {within_bbox(richmond, VIRGINIA_BBOX)}")
print(f"New York inside? {within_bbox(Coordinate(40.71, -74.00), VIRGINIA_BBOX)}")
