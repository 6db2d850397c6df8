"""The three deterministic baselines.

All three are total functions: every text gets a coordinate, falling
back through county centroid to the statewide center.
"""

from grantgeo import (
    Coordinate,
    CountyCentroidTable,
    HeuristicParams,
    VIRGINIA_CENTER,
    extract_county,
    expand_abbreviations,
    heuristic_geoparse,
    predict_county_centroid,
    predict_ner_pipeline,
)
from grantgeo.baselines import ResolvedToponym, default_entity_extractor, packaged_gazetteer

table = CountyCentroidTable.packaged()
print(f"packaged county table: {len(table)} entries\n")

# --- county-centroid floor -------------------------------------------------
for text in (
    "100 acs. in Henrico Co. on the north side of the river",
    "near the City of Norfolk",
    "on the Ridge Path to the Indian towne",  # no county named
):
    coordinate, flag = predict_county_centroid(text, table)
    print(f"county-centroid [{flag:9s}] ({coordinate.lat:.4f}, {coordinate.lon:.4f})  {text[:48]!r}")
    print(f"                extracted county: {extract_county(text)}")
print(f"statewide fallback constant: ({VIRGINIA_CENTER.lat}, {VIRGINIA_CENTER.lon})\n")

# --- heuristic geoparser with filters and a distance gate ------------------
text = "400 acs. on Deep Cr. in Henrico Co."
print(f"abbreviations expanded: {expand_abbreviations(text)!r}")

henrico = table.get("Henrico")
near_creek = Coordinate(henrico.lat + 0.08, henrico.lon + 0.02)


def toy_resolver(variant):
    # scores candidates only once abbreviations are expanded
    if "Creek" in variant:
        return [ResolvedToponym("Deep Creek", near_creek, confidence=0.9)]
    return []


params = HeuristicParams(confidence_threshold=0.5, bbox_margin_deg=0.1, distance_gate_km=25.0)
coordinate, flag = heuristic_geoparse(text, toy_resolver, table, params)
print(f"heuristic [{flag}] -> ({coordinate.lat:.4f}, {coordinate.lon:.4f})\n")

# --- entity pipeline with population-weighted ranking ----------------------
gazetteer = packaged_gazetteer()
for text in (
    "beg. at the mouth of Blackwater Swamp, adj. Capt. Wynne",
    "200 acs. in St. Paul's Parish",  # historic parish, modern far-west town
):
    coordinate, flag = predict_ner_pipeline(text, default_entity_extractor, gazetteer, table)
    print(f"entity-pipeline [{flag:6s}] ({coordinate.lat:.4f}, {coordinate.lon:.4f})  {text[:44]!r}")
print("(the parish lookup lands ~400 km west: gazetteers shift under old names)")
