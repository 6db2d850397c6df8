"""County-centroid, heuristic-geoparse, and entity-pipeline baselines."""

from __future__ import annotations

import random
import re
from collections.abc import MutableSequence, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grantgeo import baselines
from grantgeo.baselines import (
    CountyCentroidTable,
    Gazetteer,
    GazetteerEntry,
    HeuristicParams,
    ResolvedToponym,
    VIRGINIA_CENTER,
    default_entity_extractor,
    expand_abbreviations,
    extract_county,
    gazetteer_resolver,
    heuristic_geoparse,
    load_abbreviations,
    load_gazetteer,
    packaged_gazetteer,
    predict_county_centroid,
    predict_ner_pipeline,
    _display_county,
    _is_name_token,
    _normalize_county,
    _normalize_entity,
    _scan_back,
    _scan_forward,
)
from grantgeo.corpus import DuplicateId, MalformedRow, read_csv, write_csv
from grantgeo.geo import Coordinate, VIRGINIA_BBOX, haversine_km, within_bbox

TABLE = CountyCentroidTable.packaged()


class TestExtractCounty:
    def test_co_dot_form(self):
        assert extract_county("100 acs. in Henrico Co. on the north side of the river") == "Henrico"

    def test_city_of_form(self):
        assert extract_county("near the City of Norfolk, beg. at the bridge") == "Norfolk"

    def test_county_of_form(self):
        assert extract_county("in the County of Essex; on Dragon Swamp") == "Essex"

    def test_county_suffix_form(self):
        assert extract_county("bounded by Surry County line") == "Surry"

    def test_no_pattern(self):
        assert extract_county("on the Ridge Path") is None

    def test_uppercase_normalized(self):
        assert extract_county("HENRICO CO.") == "Henrico"
        assert extract_county("CITY OF NORFOLK") == "Norfolk"

    def test_multiword_names(self):
        assert extract_county("on the Nottoway River in Prince George Co.") == "Prince George"
        assert extract_county("in Isle of Wight County, by the mill") == "Isle of Wight"
        # ampersand canonicalizes to the table's "and" spelling
        assert extract_county("in King & Queen Co. beg. at the swamp") == "King and Queen"

    def test_first_match_wins(self):
        assert extract_county("in Surry Co. adj. Prince George Co.") == "Surry"

    def test_clause_boundary_respected(self):
        assert extract_county("by run of Holloway Swamp; Sussex Co.") == "Sussex"

    @pytest.mark.parametrize(
        "text, county",
        [
            ("200 acs. in Henrico Co. of Virginia", "Henrico"),
            ("in Henrico County of Virginia", "Henrico"),
            ("400 acs. in James City Co. of Virginia", "James City"),
            ("in the County of Henrico", "Henrico"),
            ("County of Henrico", "Henrico"),
            ("adj. John Smith, County of Henrico", "Henrico"),
            ("City of Williamsburg", "Williamsburg"),
            ("in the Co. of Henrico", None),
        ],
    )
    def test_form_followed_by_of(self, text, county):
        # a bare name just before the form makes it a suffix; else only County of / City of read forward
        assert extract_county(text) == county


class TestPredictCountyCentroid:
    def test_statewide_fallback(self):
        coordinate, flag = predict_county_centroid("on the Ridge Path to the Indian towne", TABLE)
        assert coordinate == VIRGINIA_CENTER
        assert flag == "statewide"

    def test_prince_george_from_packaged_table(self):
        coordinate, flag = predict_county_centroid("Prince George Co.", TABLE)
        assert coordinate == TABLE.get("Prince George")
        assert flag == "county"

    def test_case_insensitive_lookup(self):
        upper, _ = predict_county_centroid("HENRICO CO.", TABLE)
        mixed, _ = predict_county_centroid("Henrico Co.", TABLE)
        assert upper == mixed == TABLE.get("henrico")

    def test_ampersand_alias(self):
        assert TABLE.get("King & Queen") == TABLE.get("King and Queen")

    def test_unknown_county_falls_back(self):
        coordinate, flag = predict_county_centroid("in Atlantis Co.", TABLE)
        assert coordinate == VIRGINIA_CENTER
        assert flag == "statewide"

    def test_all_centroids_inside_box(self):
        # construction enforces it; double-check the packaged file
        assert len(TABLE) > 100

    def test_a_header_naming_a_column_twice_is_malformed_row(self, tmp_path):
        """Reading fields by position would otherwise read one of the two columns silently."""
        path = tmp_path / "counties.csv"
        path.write_text("county,lat,lon,lat\nHenrico,37.5,-77.3,38.9\n", encoding="utf-8")
        where = rf"^{re.escape(str(path))}:1: not a county,lat,lon header \(repeated column 'lat'\)$"
        with pytest.raises(MalformedRow, match=where):
            CountyCentroidTable.from_csv(path)

    def test_a_county_named_twice_is_duplicate_id(self, tmp_path):
        """Names are compared as ``get`` compares them, so the later row would silently win."""
        path = tmp_path / "counties.csv"
        path.write_text("county,lat,lon\nHenrico,37.5,-77.3\nSussex,36.92,-77.28\nhenrico,38.0,-77.0\n", encoding="utf-8")
        with pytest.raises(DuplicateId, match=rf"^{re.escape(str(path))}: duplicate county 'henrico'$"):
            CountyCentroidTable.from_csv(path)
        path.write_text("county,extra,lon,lat\nHenrico,x,-77.3,37.5\nKing & Queen,,-76.9,37.7\n", encoding="utf-8")
        table = CountyCentroidTable.from_csv(path)
        assert (table.get("henrico"), table.get("King and Queen")) == (Coordinate(37.5, -77.3), Coordinate(37.7, -76.9))
        assert len(table) == 2

    @given(st.text(st.sampled_from(" \t\n\u00a0\u2003&aAKqQ"), max_size=12) | st.text(max_size=12))
    @settings(max_examples=500, deadline=None)
    @example(" King  &  Queen ")
    @example("&\u2003&")
    def test_one_whitespace_pass_normalizes_county_names(self, name):
        """After collapsing and stripping whitespace, "&" -> "and" adds none, so a second pass changed nothing."""
        twice = re.sub(r"\s+", " ", re.sub(r"\s+", " ", name.strip()).replace("&", "and")).strip().lower()
        assert _normalize_county(name) == twice


class TestExpandAbbreviations:
    def test_creek(self):
        assert expand_abbreviations("Cr.") == "Creek"

    def test_swamp_with_semicolon(self):
        assert expand_abbreviations("run of Holloway Sw;") == "run of Holloway Swamp;"

    def test_no_hits_identity(self):
        text = "on the south side of the river"
        assert expand_abbreviations(text) == text

    def test_word_boundaries_respected(self):
        assert "Sweet" in expand_abbreviations("Sweet Hall")
        assert expand_abbreviations("Acs is a word") == "Acs is a word"

    def test_full_sample_text(self):
        out = expand_abbreviations(
            "WILLIAM WILLIAMS, 400 acs., on 8. side of the main Black Water Swamp; by run of Holloway Sw; 24 Apr. 1703"
        )
        assert "400 acres," in out
        assert "Holloway Swamp;" in out

    def test_custom_table(self):
        assert expand_abbreviations("Gt. Swamp", {"Gt.": "Great"}) == "Great Swamp"

    def test_expansion_does_not_hide_the_next_key(self):
        assert expand_abbreviations("Cr.Co.") == "CreekCounty"

    def test_custom_expansion_not_expanded_again(self):
        assert expand_abbreviations("Gt. Co.", {"Gt.": "Great Co.", "Co.": "County"}) == "Great Co. County"

    def test_empty_custom_table_returns_the_text(self):
        assert expand_abbreviations("Cr. in Henrico Co.", {}) == "Cr. in Henrico Co."

    @pytest.mark.parametrize("key", ["", "."])
    def test_empty_or_bare_period_key_is_a_value_error(self, key):
        with pytest.raises(ValueError, match="empty or a bare period"):
            expand_abbreviations("a b", {key: "x", "Co.": "County"})

    def test_backslash_in_expansion_inserted_verbatim(self):
        assert expand_abbreviations("Gt. Swamp", {"Gt.": r"G\1t\g<0>\\"}) == r"G\1t\g<0>\\ Swamp"

    def test_longest_key_first(self):
        table = {"Co": "C", "St.": "Saint", "Co.": "County", "St. John": "Saint John"}
        text = "St. John's Co. Co St"
        assert expand_abbreviations(text, table) == _reference_expand(text, table) == "Saint John's County County Saint"

    def test_key_starting_with_a_non_word_character(self):
        # the word boundary before "&" or "-" needs a word character before it
        table = {"&c.": "etc", "-y": "Y", "Col.": "Colonel"}
        assert expand_abbreviations("A&c. B &c.", table) == "Aetc B &c."
        for text in ["Co &c; Col.", "x-y.", "x-y;-y", "(-y", "&c.&c."]:
            assert expand_abbreviations(text, table) == _reference_expand(text, table)


class TestLoadAbbreviations:
    def test_packaged_table(self):
        table = load_abbreviations()
        assert table["Cr."] == "Creek" and table["Co."] == "County" and len(table) == 10

    @pytest.mark.parametrize(
        "text, where",
        [
            ("abbrev,expanded\nCr.,Creek\n", ":1: not a abbrev,expansion header (missing column 'expansion')"),
            ("expansion\nCreek\n", ":1: not a abbrev,expansion header (missing column 'abbrev')"),
            ("abbrev,expansion\nCr.,Creek\nGt.\n", ":3: expected 2 columns, got 1"),
            ("abbrev,expansion\nCr.,Creek\n,Empty\n", ":3: not a abbrev,expansion row (ValueError"),
            ("abbrev,expansion\n.,Period\n", ":2: not a abbrev,expansion row (ValueError"),
            ("abbrev,expansion\nCr.,Cr\udcffek\n", ": not UTF-8 text"),
            ("\n", ": empty file, header required"),
        ],
        ids=["no-expansion-column", "no-abbrev-column", "short-row", "empty", "bare-period", "not-utf8", "no-header"],
    )
    def test_bad_file_is_malformed_row(self, tmp_path, text, where):
        path = tmp_path / "abbreviations.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(MalformedRow) as excinfo:
            load_abbreviations(path)
        assert str(excinfo.value).startswith(f"{path}{where}")

    def test_an_abbreviation_listed_twice_is_duplicate_id(self, tmp_path):
        path = tmp_path / "abbreviations.csv"
        path.write_text("abbrev,expansion\nCr.,Creek\nCo.,County\nCr.,Crossing\n", encoding="utf-8")
        with pytest.raises(DuplicateId, match=rf"^{re.escape(str(path))}: duplicate abbrev 'Cr\.'$"):
            load_abbreviations(path)
        path.write_text("abbrev,expansion\nCr.,Creek\nCr,Crossing\n", encoding="utf-8")  # distinct keys
        assert load_abbreviations(path) == {"Cr.": "Creek", "Cr": "Crossing"}


def _resolver_returning(candidates):
    def resolve(text):
        return list(candidates)

    return resolve


class TestHeuristicGeoparse:
    def test_params_validation(self):
        for bad in (("0.5", 0.1, 25.0), (0.5, -1, 25.0), (0.5, 0.1, 0.0), (0.5, True, 25.0), (1.5, 0.1, 25.0)):
            with pytest.raises(ValueError):
                HeuristicParams(*bad)

    PARAMS = HeuristicParams(confidence_threshold=0.5, bbox_margin_deg=0.0, distance_gate_km=25.0)

    def test_in_state_candidate_within_gate(self):
        henrico = TABLE.get("Henrico")
        near = Coordinate(henrico.lat + 0.09, henrico.lon)  # ~10 km north
        resolver = _resolver_returning([ResolvedToponym("mill", near, 0.9)])
        coordinate, flag = heuristic_geoparse("by the mill in Henrico Co.", resolver, TABLE, self.PARAMS)
        assert coordinate == near
        assert flag == "entity"
        assert haversine_km(coordinate, henrico) <= 25.0

    def test_out_of_box_candidate_falls_back_to_county(self):
        far = Coordinate(40.8, -74.0)  # well outside Virginia
        resolver = _resolver_returning([ResolvedToponym("mill", far, 0.9)])
        coordinate, flag = heuristic_geoparse("by the mill in Henrico Co.", resolver, TABLE, self.PARAMS)
        assert coordinate == TABLE.get("Henrico")
        assert flag == "county"

    def test_empty_resolver_no_county_statewide(self):
        coordinate, flag = heuristic_geoparse("on the Ridge Path", _resolver_returning([]), TABLE, self.PARAMS)
        assert coordinate == VIRGINIA_CENTER
        assert flag == "statewide"

    def test_low_confidence_filtered(self):
        henrico = TABLE.get("Henrico")
        near = Coordinate(henrico.lat + 0.05, henrico.lon)
        resolver = _resolver_returning([ResolvedToponym("mill", near, 0.2)])
        coordinate, flag = heuristic_geoparse("in Henrico Co.", resolver, TABLE, self.PARAMS)
        assert flag == "county"

    def test_distance_gate_enforced(self):
        henrico = TABLE.get("Henrico")
        far_in_state = Coordinate(36.7, -82.0)  # inside box, far from Henrico
        resolver = _resolver_returning([ResolvedToponym("mill", far_in_state, 0.99)])
        coordinate, flag = heuristic_geoparse("in Henrico Co.", resolver, TABLE, self.PARAMS)
        assert flag == "county"
        assert coordinate == henrico

    def test_gate_skipped_without_county(self):
        spot = Coordinate(36.7, -82.0)
        resolver = _resolver_returning([ResolvedToponym("mill", spot, 0.99)])
        coordinate, flag = heuristic_geoparse("by the old mill", resolver, TABLE, self.PARAMS)
        assert coordinate == spot
        assert flag == "entity"

    def test_highest_score_wins(self):
        henrico = TABLE.get("Henrico")
        a = Coordinate(henrico.lat + 0.02, henrico.lon)
        b = Coordinate(henrico.lat - 0.02, henrico.lon)
        resolver = _resolver_returning(
            [ResolvedToponym("a", a, 0.7), ResolvedToponym("b", b, 0.95)]
        )
        coordinate, _ = heuristic_geoparse("in Henrico Co.", resolver, TABLE, self.PARAMS)
        assert coordinate == b

    def test_variants_tried_until_resolver_answers(self):
        henrico = TABLE.get("Henrico")
        near = Coordinate(henrico.lat + 0.02, henrico.lon)
        seen = []

        def resolver(text):
            seen.append(text)
            # only answers once abbreviations are expanded
            if "Creek" in text:
                return [ResolvedToponym("creek", near, 0.9)]
            return []

        coordinate, flag = heuristic_geoparse("on Deep Cr. in Henrico Co.", resolver, TABLE, self.PARAMS)
        assert flag == "entity"
        assert len(seen) >= 2

    def test_never_violates_filters(self):
        rng = random.Random(3)
        box = VIRGINIA_BBOX.with_margin(self.PARAMS.bbox_margin_deg)
        for _ in range(100):
            cands = [
                ResolvedToponym(
                    f"c{i}",
                    Coordinate(rng.uniform(33, 42), rng.uniform(-85, -70)),
                    rng.random(),
                )
                for i in range(rng.randint(0, 4))
            ]
            coordinate, flag = heuristic_geoparse(
                "by the mill in Henrico Co.", _resolver_returning(cands), TABLE, self.PARAMS
            )
            if flag == "entity":
                matching = [c for c in cands if c.coordinate == coordinate]
                assert matching
                assert all(c.confidence >= self.PARAMS.confidence_threshold for c in matching[:1])
                assert within_bbox(coordinate, box)
                assert haversine_km(coordinate, TABLE.get("Henrico")) <= self.PARAMS.distance_gate_km


class TestPredictNerPipeline:
    def test_county_fallback_when_no_entity_resolves(self):
        coordinate, flag = predict_ner_pipeline(
            "some text naming Henrico Co.", lambda text: [], Gazetteer(), TABLE
        )
        assert coordinate == TABLE.get("Henrico")
        assert flag == "county"

    def test_statewide_when_nothing_extractable(self):
        coordinate, flag = predict_ner_pipeline("nothing here", lambda text: [], Gazetteer(), TABLE)
        assert coordinate == VIRGINIA_CENTER
        assert flag == "statewide"

    def test_population_ranking(self):
        gaz = Gazetteer([
            GazetteerEntry("Cypress Swamp", Coordinate(36.9, -77.0), 100, "swamp"),
            GazetteerEntry("Cypress", Coordinate(37.3, -77.8), 10_000, "populated_place"),
        ])
        coordinate, flag = predict_ner_pipeline(
            "near Cypress Swamp", lambda text: ["Cypress Swamp"], gaz, TABLE
        )
        assert flag == "entity"
        assert coordinate == Coordinate(37.3, -77.8)

    def test_population_tie_breaks_by_name(self):
        gaz = Gazetteer([
            GazetteerEntry("Mill B", Coordinate(37.2, -77.2), 10, "mill"),
            GazetteerEntry("Mill A", Coordinate(37.1, -77.1), 10, "mill"),
        ])
        coordinate, _ = predict_ner_pipeline(
            "x", lambda text: ["Mill A", "Mill B"], gaz, TABLE
        )
        assert coordinate == Coordinate(37.1, -77.1)

    def test_out_of_state_gazetteer_rows_ignored(self):
        gaz = Gazetteer([GazetteerEntry("Boston", Coordinate(42.36, -71.06), 600_000, "city")])
        coordinate, flag = predict_ner_pipeline("near Boston", lambda text: ["Boston"], gaz, TABLE)
        assert flag == "statewide"

    @pytest.mark.parametrize(
        "text, name",
        [
            ("400 acs. at Poplar Forest. Beg. at a pine", "Poplar Forest"),
            ("200 acs. on the side of Amherst. Beg. at an oak", "Amherst"),
            ("200 acs. in St. Paul's Parish", "Saint Paul"),
        ],
    )
    def test_st_is_saint_only_at_a_word_start(self, text, name):
        rows = [
            GazetteerEntry("Poplar Forest", Coordinate(37.35, -79.26), 0, "plantation"),
            GazetteerEntry("Amherst", Coordinate(37.58, -79.05), 2000, "populated_place"),
            GazetteerEntry("Saint Paul", Coordinate(36.9051, -82.3124), 1000, "populated_place"),
        ]
        coordinate, flag = predict_ner_pipeline(text, default_entity_extractor, Gazetteer(rows), TABLE)
        assert (coordinate, flag) == (next(g.coordinate for g in rows if g.name == name), "entity")

    def test_st_normalizes_to_saint_only_at_a_word_start(self):
        assert [_normalize_entity(e) for e in ("Poplar Forest.", "West.", "1st. St. John's")] == [
            "poplar forest", "west", "1st saint john"
        ]

    def test_historic_parish_matches_modern_town(self):
        # regression fixture: a parish reference resolves to the modern
        # far-southwest town of the same name, and the pipeline must
        # faithfully report that (wrong) answer
        coordinate, flag = predict_ner_pipeline(
            "200 acs. in St. Paul's Parish, on the north side of the river",
            default_entity_extractor,
            packaged_gazetteer(),
            TABLE,
        )
        assert flag == "entity"
        assert coordinate == Coordinate(36.9051, -82.3124)
        central_va_truth = Coordinate(37.6, -77.4)
        assert haversine_km(coordinate, central_va_truth) > 350


def _reference_resolve(rows, text):
    """The unindexed scan: every row's name, not next to a word character, over the text."""
    lowered = text.lower()
    return [
        ResolvedToponym(g.name, g.coordinate, 1.0)
        for g in rows
        if re.search(rf"(?<!\w){re.escape(g.name.lower())}(?!\w)", lowered)
    ]


def _reference_entity_matches(rows, entity):
    """The unindexed scan: every in-box row's normalized name against the entity."""
    ent_norm = _normalize_entity(entity)
    if not ent_norm:
        return []
    matches = []
    for g in rows:
        if not within_bbox(g.coordinate, VIRGINIA_BBOX):
            continue
        g_norm = _normalize_entity(g.name)
        if g_norm == ent_norm or re.search(rf"\b{re.escape(g_norm)}\b", ent_norm):
            matches.append(g)
    return matches


def _reference_ner(text, entities, rows):
    candidates = [g for entity in entities for g in _reference_entity_matches(rows, entity)]
    if candidates:
        return sorted(candidates, key=lambda g: (-g.population, g.name))[0].coordinate, "entity"
    return predict_county_centroid(text, TABLE)


# Name pieces: case variants, "St."/"'s" forms, pieces that normalize to
# nothing, digits, underscore and a letter whose lower case is two characters.
_PIECES = ["Oak", "oak", "OAK", "Hill", "St.", "St", "John's", "'s", "Run", "Mill", "s", "1", "_", "İvy", "ß"]
_SEPARATORS = ["", " ", "  ", "-", ", ", ". ", "'", "(", ")", "&", "\t", "."]
_COORDINATES = [Coordinate(37.2, -77.4), Coordinate(38.9, -78.1), Coordinate(40.5, -74.0)]  # last: out of box


def _joined(fragments):
    return st.lists(st.tuples(st.sampled_from(_SEPARATORS), fragments), max_size=5).map(
        lambda parts: "".join(sep + frag for sep, frag in parts)
    )


_NAMES = _joined(st.sampled_from(_PIECES))
# Names whose first normalized token may differ from their first word: led by punctuation, or a
# first word followed by "'" or "'s", or "St."/"st." forms.
_ODD_NAMES = st.tuples(
    st.sampled_from(["", "", "(", "'", "-", "'s ", ". ", "_"]),
    st.sampled_from(["St", "st", "ST", "John", "O", "Oak", "s", "İvy", "1st", "saint"]),
    st.sampled_from([".", "'", "'s", "'s ", ". ", ".'s", "'st.", " "]),
    _NAMES,
).map("".join)


@st.composite
def _gazetteer_case(draw, names=_NAMES):
    """Rows drawing names from a small pool (so names repeat at other
    places), and texts mixing pool names with fresh ones."""
    pool = draw(st.lists(names, min_size=1, max_size=6))
    rows = draw(
        st.lists(
            st.builds(
                GazetteerEntry,
                name=st.sampled_from(pool),
                coordinate=st.sampled_from(_COORDINATES),
                population=st.sampled_from([0, 50, 900]),
                feature_class=st.just("place"),
            ),
            max_size=12,
        )
    )
    fragment = st.one_of(st.sampled_from(pool), names)
    texts = draw(st.lists(_joined(fragment), min_size=1, max_size=4))
    return rows, texts


class TestGazetteerIndex:
    def test_sample_names_cover_the_edge_cases(self):
        assert not within_bbox(_COORDINATES[-1], VIRGINIA_BBOX)
        assert _normalize_entity("'s") == "" and _normalize_entity("(-)") == ""
        assert _normalize_entity("St. John's") == "saint john"
        assert not re.match(r"\w", "(Oak")

    @given(_gazetteer_case())
    @settings(max_examples=250, deadline=None)
    def test_resolver_matches_reference_scan(self, case):
        rows, texts = case
        resolve = gazetteer_resolver(Gazetteer(rows))
        for text in texts:
            assert resolve(text) == _reference_resolve(rows, text)

    @given(_gazetteer_case())
    @settings(max_examples=250, deadline=None)
    def test_entity_lookup_matches_reference_scan(self, case):
        rows, texts = case
        gazetteer = Gazetteer(rows)
        for entity in texts:
            got = [id(g) for g in gazetteer.entity_matches(entity)]
            assert got == [id(g) for g in _reference_entity_matches(rows, entity)]
        text = " ".join(texts)
        assert predict_ner_pipeline(text, lambda _: texts, gazetteer, TABLE) == _reference_ner(text, texts, rows)
        entities = default_entity_extractor(text)
        assert predict_ner_pipeline(text, default_entity_extractor, gazetteer, TABLE) == _reference_ner(
            text, entities, rows
        )

    @given(_gazetteer_case(_ODD_NAMES | _NAMES))
    @settings(max_examples=300, deadline=None)
    @example(
        (
            [GazetteerEntry(name, _COORDINATES[0], 0, "place") for name in ("St. Paul", "Ab'st. X", "(Old) Mill", "'s")],
            ["Saint Paul", "abaint x", "the old mill"],
        )
    )
    def test_entity_lookup_of_odd_names_matches_reference_scan(self, case):
        """Candidates come from the rows filed under the entity's tokens and the odd rows;
        names whose normalized first token is not their first word must still be found."""
        rows, texts = case
        gazetteer = Gazetteer(rows)
        for entity in texts + [g.name for g in rows]:
            got = [id(g) for g in gazetteer.entity_matches(entity)]
            assert got == [id(g) for g in _reference_entity_matches(rows, entity)]

    def test_resolver_order_and_repeats(self):
        rows = [
            GazetteerEntry("Mill Run", Coordinate(37.2, -77.4), 0, "stream"),
            GazetteerEntry("(Old) Mill", Coordinate(37.3, -77.5), 0, "mill"),
            GazetteerEntry("Mill", Coordinate(38.9, -78.1), 5, "mill"),
            GazetteerEntry("Mill Run", Coordinate(38.0, -78.0), 0, "stream"),
        ]
        resolved = gazetteer_resolver(Gazetteer(rows))("by the (old) mill on Mill Run")
        assert [(r.name, r.coordinate) for r in resolved] == [(g.name, g.coordinate) for g in rows]

    @pytest.mark.parametrize(
        "name, found_in, not_found_in",
        [
            ("Mill Cr.", ["on Mill Cr. and Oak Hill", "Mill Cr.", "(mill cr.)"], ["on Mill Cr.x", "sawmill cr."]),
            ("(Old) Mill", ["by the (old) mill", "(Old) Mill, Richmond"], ["mill(old) mill", "(old) mills"]),
        ],
    )
    def test_names_beginning_or_ending_in_punctuation_are_whole_words(self, name, found_in, not_found_in):
        entry = GazetteerEntry(name, Coordinate(37.2, -77.4), 0, "place")
        gazetteer = Gazetteer([entry])
        for text in found_in:
            assert gazetteer.name_matches(text) == [entry], text
        for text in not_found_in:
            assert gazetteer.name_matches(text) == [], text

    @given(_gazetteer_case())
    @settings(max_examples=150, deadline=None)
    def test_resolver_matches_reference_on_both_sides_of_the_size_switch(self, case):
        """Few distinct first words for a long text look the first words up in
        the text; many for a short one look the text's words up in the index.
        The filler rows' first words occur in no text, so they never match."""
        rows, texts = case
        filler = [GazetteerEntry(f"qz{n} Run", Coordinate(37.2, -77.4), 0, "stream") for n in range(100)]
        long_text = ", ".join(texts) + " " * 60
        assert len({g.name for g in rows}) * 8 < len(long_text) and len(filler) * 8 > max(map(len, texts))
        for gazetteer_rows, text in [(rows, long_text)] + [(rows + filler, text) for text in texts]:
            assert gazetteer_resolver(Gazetteer(gazetteer_rows))(text) == _reference_resolve(gazetteer_rows, text)

    def test_padding_past_the_size_switch_keeps_every_h2_answer(self, monkeypatch):
        """The packaged gazetteer looks its first words up in each text; padded
        with names no text holds, it tokenizes each text instead, and every
        heuristic_geoparse answer and every resolved list stay the same."""
        rng = random.Random(7)
        packaged = packaged_gazetteer()
        names = [g.name for g in packaged] + ["Blackwater Sw.", "Nottoway Riv.", "Surry Co.", "County of Essex"]
        words = ["on", "the", "side", "of", "acs.", "beg.", "pine", "oak", "Mill", "Swamp", "Henrico", "Co.", "Cr."]
        texts = []
        for _ in range(80):
            share = rng.choice([0.0, 0.02, 0.1])  # of the words that are names
            picks = (rng.choice(names if rng.random() < share else words) for _ in range(rng.randint(40, 100)))
            texts.append(" ".join(picks))
        filler = [GazetteerEntry(f"qz{n} Swamp", Coordinate(37.2, -77.4), 0, "swamp") for n in range(1000)]
        padded = Gazetteer(list(packaged) + filler)
        assert len(packaged) * 8 < min(map(len, texts)) and len(filler) * 8 > max(map(len, texts))
        params = HeuristicParams(confidence_threshold=0.5, bbox_margin_deg=0.1, distance_gate_km=35.0)
        real, tokenized = baselines._WORD, []

        class CountingWord:
            match = real.match

            def findall(self, text):
                tokenized.append(text)
                return real.findall(text)

        monkeypatch.setattr(baselines, "_WORD", CountingWord())
        answers = []
        for gazetteer in (packaged, padded):
            resolve = gazetteer_resolver(gazetteer)
            answers.append([(heuristic_geoparse(t, resolve, TABLE, params), resolve(t)) for t in texts])
            assert bool(tokenized) == (gazetteer is padded)
        assert answers[0] == answers[1]
        assert {flag for (_, flag), _ in answers[0]} == {"entity", "county", "statewide"}

    def test_name_normalizing_to_empty_matches_every_entity(self):
        blank = GazetteerEntry("'s", Coordinate(37.2, -77.4), 0, "place")
        assert Gazetteer([blank]).entity_matches("Anything At All") == [blank]
        assert Gazetteer([blank]).entity_matches("...") == []

    def test_each_distinct_entity_is_looked_up_once(self, monkeypatch):
        gazetteer = packaged_gazetteer()
        normalized = []
        real = baselines._normalize_entity
        monkeypatch.setattr(baselines, "_normalize_entity", lambda name: normalized.append(name) or real(name))
        entities = ["St. Paul's Parish", "Richmond", "...", "St. Paul's Parish", "Richmond", "..."]
        got = [gazetteer.entity_matches(entity) for entity in entities]
        # each distinct entity once, then the in-box rows filed under its tokens that no lookup normalized yet
        assert normalized == [entities[0], "Saint Paul", entities[1], "Richmond", entities[2]]
        for first, again, entity in zip(got, got[3:], entities):
            assert first == again == _reference_entity_matches(gazetteer, entity) and first is not again
        assert got[0] and got[1] and not got[2]
        got[0].clear()  # the caller owns the list it was given
        assert gazetteer.entity_matches(entities[0]) == got[3]

    def test_a_lookup_normalizes_only_the_odd_rows_and_its_candidates(self, monkeypatch):
        """The odd rows, whose first normalized token may differ from their name's first word,
        are normalized at the first lookup; after that a lookup normalizes its entity and the
        in-box rows whose first word is one of the entity's tokens, each row once per gazetteer."""
        rng = random.Random(5)
        inside, outside = _COORDINATES[0], _COORDINATES[-1]
        names = [f"Qz{n} {rng.choice(['Run', 'Hill', 'Swamp'])}" for n in range(2000)]
        odd = ["St. Paul", "John's Mill", "(Old) Qz7", "'s", "O'Neil Run", "st.Qz9 Hill", "Qz3's Run"]
        for name in odd:
            names.insert(rng.randrange(len(names) + 1), name)
        rows = [GazetteerEntry(name, inside, 0, "place") for name in names]
        rows.append(GazetteerEntry("Qz7 Swamp", outside, 0, "place"))  # filed under "qz7", but outside the box
        gazetteer = Gazetteer(rows)
        normalized = []
        real = baselines._normalize_entity
        monkeypatch.setattr(baselines, "_normalize_entity", lambda name: normalized.append(name) or real(name))
        done = set(odd)
        entities = ["Qz7 Run at St. Paul's", "qz3 hill", "Qz7 Run at St. Paul's", "St. John's Mill", "O'Neil Qz3 Mill"]
        for k, entity in enumerate(entities):
            normalized.clear()
            assert gazetteer.entity_matches(entity) == _reference_entity_matches(rows, entity)
            tokens = set(real(entity).split())
            filed = {g.name for g in rows if g.coordinate == inside and re.match(r"\w*", g.name.lower())[0] in tokens}
            new = [entity, *(filed - done)] if entity not in entities[:k] else []
            assert sorted(normalized) == sorted(([] if k else odd) + new)
            done |= filed
        assert len(done) == len(odd) + 2  # "Qz7 ..." and "Qz3 ..."

    def test_loaded_gazetteer_is_a_read_only_sequence(self):
        gazetteer = packaged_gazetteer()
        assert isinstance(gazetteer, Sequence) and not isinstance(gazetteer, MutableSequence)
        assert gazetteer[:] == list(gazetteer) == [gazetteer[i] for i in range(len(gazetteer))]
        with pytest.raises(TypeError):
            gazetteer[0] = gazetteer[1]


_COLUMNS = ["name", "lat", "lon", "population", "feature_class"]
# A surrogate is not UTF-8, and csv reads a NUL only from Python 3.11.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)


def _write_gazetteer(path, columns, rows):
    """``rows`` of (name, lat, lon, population, feature_class) texts, written in ``columns`` order."""
    write_csv(path, columns, ([row[_COLUMNS.index(c)] for c in columns] for row in rows))


class TestLoadGazetteer:
    @given(
        st.permutations(_COLUMNS),
        st.lists(
            st.tuples(
                st.one_of(_NAMES, _TEXT).filter(_normalize_entity),
                st.floats(-90, 90).map(repr),
                st.floats(-180, 180).map(repr),
                st.one_of(st.just(""), st.integers(0, 10**9).map(str)),
                _TEXT,
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_load_as_written(self, tmp_path_factory, columns, rows):
        path = tmp_path_factory.mktemp("gaz") / "gazetteer.csv"
        _write_gazetteer(path, columns, rows)
        assert list(load_gazetteer(path)) == [
            GazetteerEntry(name, Coordinate(float(lat), float(lon)), int(pop or 0), fc)
            for name, lat, lon, pop, fc in rows
        ]

    @given(_gazetteer_case())
    @settings(max_examples=150, deadline=None)
    def test_lookups_match_reference_scans(self, tmp_path_factory, case):
        rows, texts = case
        path = tmp_path_factory.mktemp("gaz") / "gazetteer.csv"
        written = [
            (g.name, repr(g.coordinate.lat), repr(g.coordinate.lon), str(g.population), g.feature_class)
            for g in rows
            if _normalize_entity(g.name)
        ]
        _write_gazetteer(path, _COLUMNS, written)
        gazetteer = load_gazetteer(path)
        resolve = gazetteer_resolver(gazetteer)
        found = [(resolve(text), gazetteer.entity_matches(text)) for text in texts]  # entries built by lookups
        loaded = list(gazetteer)
        assert loaded == [g for g in rows if _normalize_entity(g.name)]
        assert all(gazetteer[i] is g for i, g in enumerate(loaded))
        for text, (resolved, matched) in zip(texts, found):
            assert resolved == _reference_resolve(loaded, text)
            assert [id(g) for g in matched] == [id(g) for g in _reference_entity_matches(loaded, text)]

    @pytest.mark.parametrize(
        "lat, lon",
        [("nan", "-77.1"), ("37.1", "inf"), ("90.5", "-77.1"), ("37.1", "-180.5"), ("abc", "-77.1")],
    )
    def test_bad_coordinate_is_malformed_row(self, tmp_path, lat, lon):
        path = tmp_path / "gazetteer.csv"
        _write_gazetteer(path, _COLUMNS, [("Oak Hill", "37.2", "-77.4", "", "place"), ("Mill", lat, lon, "", "mill")])
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:3: not a gazetteer row \(ValueError: "):
            load_gazetteer(path)

    @pytest.mark.parametrize("population", ["-500", "-1"])
    def test_negative_population_is_malformed_row(self, tmp_path, population):
        """It would rank the feature below every unpopulated one in H-3."""
        path = tmp_path / "gazetteer.csv"
        _write_gazetteer(path, _COLUMNS, [("Oak Hill", "37.2", "-77.4", "0", "place"), ("Mill", "37.1", "-77.1", population, "x")])
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:3: not a gazetteer row \(ValueError: population "):
            load_gazetteer(path)

    @pytest.mark.parametrize("name", ["", "'s", "...", "(-)", "'S"])
    def test_name_normalizing_to_empty_is_malformed_row(self, tmp_path, name):
        path = tmp_path / "gazetteer.csv"
        _write_gazetteer(path, _COLUMNS, [("Oak Hill", "37.2", "-77.4", "", "place"), (name, "37.1", "-77.1", "", "x")])
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:3: .* has no word to match"):
            load_gazetteer(path)
        assert not _normalize_entity(name)


@pytest.mark.parametrize(
    "load, text, line, width, got",
    [
        (load_gazetteer, f"{','.join(_COLUMNS)}\nOak Hill,37.2,-77.4,0,place\nShort Creek,37.1,-77.2\n", 3, 5, 3),
        (load_gazetteer, f"{','.join(_COLUMNS)}\nOak Hill,37.2,-77.4,0,place,extra\n", 2, 5, 6),
        (CountyCentroidTable.from_csv, "county,lat,lon\nSussex,36.92,-77.28\nHenrico,37.5\n", 3, 3, 2),
        (CountyCentroidTable.from_csv, "county,lat,lon\nHenrico,37.5,-77.3,oops\n", 2, 3, 4),
        (load_abbreviations, "abbrev,expansion\nCr.,Creek\nGt.\n", 3, 2, 1),
        (load_abbreviations, "abbrev,expansion\nCr.,Creek,extra\n", 2, 2, 3),
    ],
    ids=["gazetteer-short", "gazetteer-long", "counties-short", "counties-long", "abbreviations-short", "abbreviations-long"],
)
def test_row_wider_or_narrower_than_its_header_is_malformed_row(tmp_path, load, text, line, width, got):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:{line}: expected {width} columns, got {got}$"):
        load(path)


# Column names with no line break, so the header ends on the line it starts on.
_COLUMN = st.text(st.sampled_from("ab_ é,\""), max_size=3)


@st.composite
def _columns(draw, min_extra=0):
    """Needed columns, each once, and extra columns that may repeat among themselves."""
    needed = draw(st.lists(_COLUMN, min_size=1, max_size=4, unique=True))
    return needed, draw(st.lists(_COLUMN.filter(lambda c: c not in needed), min_size=min_extra, max_size=3))


class TestReadCsvColumns:
    """The baseline tables' header rule: each needed column exactly once, among any others."""

    @given(_columns(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_parse_gets_the_fields_a_dict_of_the_row_would_pick(self, tmp_path_factory, columns, data):
        needed, extra = columns
        header = data.draw(st.permutations(needed + extra))
        rows = data.draw(st.lists(st.lists(_TEXT, min_size=len(header), max_size=len(header)), max_size=4))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, rows)
        path.write_bytes(b"\n" * data.draw(st.integers(0, 2)) + path.read_bytes())
        picked = [tuple(dict(zip(header, row))[c] for c in needed) for row in rows]
        assert read_csv(path, "t", lambda *fields: fields, needed) == picked

    @given(_columns(min_extra=1), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_missing_or_repeated_column_is_malformed_row_at_the_header(self, tmp_path_factory, columns, repeated, data):
        needed, extra = columns
        column = data.draw(st.sampled_from(needed))
        header = data.draw(st.permutations([c for c in needed + extra if c != column] + [column] * (2 if repeated else 0)))
        rows = data.draw(st.lists(st.lists(_TEXT, min_size=len(header), max_size=len(header)), max_size=2))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, rows)
        blank = data.draw(st.integers(0, 2))
        path.write_bytes(b"\n" * blank + path.read_bytes())
        why = f"{'repeated' if repeated else 'missing'} column {column!r}"
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:{blank + 1}: not a t header \({re.escape(why)}\)$"):
            read_csv(path, "t", lambda *fields: fields, needed)

    @pytest.mark.parametrize(
        "header, why",
        [
            ("name,lat,lon,population,feature_class,lon", "repeated column 'lon'"),
            ("name,lat,population,feature_class", "missing column 'lon'"),
        ],
        ids=["repeated", "missing"],
    )
    def test_a_gazetteer_header_missing_or_repeating_a_column_is_malformed_row(self, tmp_path, header, why):
        path = tmp_path / "gazetteer.csv"
        row = ["Oak Hill", "37.2", "-77.4", "0", "place", "-70.0"][: header.count(",") + 1]
        path.write_text(f"\n{header}\n{','.join(row)}\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:2: not a gazetteer header \({why}\)$"):
            load_gazetteer(path)

    def test_a_gazetteer_may_repeat_names_and_carry_extra_columns(self, tmp_path):
        path = tmp_path / "gazetteer.csv"
        path.write_text("note,feature_class,name,lon,lat,population,note\nx,mill,Oak,-77.4,37.2,5,y\n,x,Oak,-78.1,38.9,,\n", encoding="utf-8")
        assert list(load_gazetteer(path)) == [
            GazetteerEntry("Oak", Coordinate(37.2, -77.4), 5, "mill"),
            GazetteerEntry("Oak", Coordinate(38.9, -78.1), 0, "x"),
        ]


_ABBREVIATIONS = load_abbreviations()


def _reference_expand(text, table=None):
    """The sequential expansion: one substitution over the whole text per key, longest key first."""
    table = table if table is not None else _ABBREVIATIONS
    for abbrev in sorted(table, key=len, reverse=True):
        stem = abbrev[:-1] if abbrev.endswith(".") else abbrev
        pattern = rf"\b{re.escape(stem)}\b\.?" if abbrev.endswith(".") else rf"\b{re.escape(stem)}\b"
        text = re.sub(pattern, table[abbrev].replace("\\", "\\\\"), text)
    return text


def _reference_extract_county(text):
    r"""extract_county with the preceding tokens found by ``\S+``: a form followed by "of" reads
    backwards when a name token with no trailing punctuation stands just before it."""

    def tokens_before(m):
        return [t.group(0) for t in re.finditer(r"\S+", text[: m.start()])][-6:]

    def bare_name_before(tokens):
        return bool(tokens) and _is_name_token(tokens[-1]) and tokens[-1][-1] not in ",;:.()\"'"

    matches = []
    for m in re.finditer(r"\b(?:county|city)\s+of\s+", text, re.IGNORECASE):
        before = tokens_before(m)
        name = _scan_back(before) if bare_name_before(before) else _scan_forward(text, m.end())
        if name:
            matches.append((m.start(), name))
    for m in re.finditer(r"\b(?:co\.|county)(?!\w)", text, re.IGNORECASE):
        before = tokens_before(m)
        if re.match(r"\s+of\b", text[m.end():], re.IGNORECASE) and not bare_name_before(before):
            continue
        name = _scan_back(before)
        if name:
            matches.append((m.start(), name))
    return _display_county(min(matches, key=lambda pair: pair[0])[1]) if matches else None


def _reference_entity_extractor(text):
    r"""default_entity_extractor with the word boundary before the capital checked by a leading ``\b``."""
    phrases = []
    for m in re.finditer(r"\b[A-Z][a-zA-Z'.]*(?:\s+(?:of\s+)?[A-Z][a-zA-Z'.]*)*", text):
        phrase = m.group(0).strip()
        if len(phrase) > 2 and phrase.lower() not in baselines._NAME_STOPWORDS:
            phrases.append(phrase)
    unique = []
    for p in phrases:
        if p not in unique:
            unique.append(p)
    return unique


def _reference_geoparse(text, resolver, table, params):
    """The eager geoparse: every text expanded, and its county looked for in both forms, before any lookup."""
    expanded = _reference_expand(text)
    county = _reference_extract_county(text) or _reference_extract_county(expanded)
    variants = [text, expanded]
    if county:
        variants.append(f"{expanded}, {county} County, Virginia")
    candidates = []
    for variant in variants:
        candidates = list(resolver(variant))
        if candidates:
            break
    box = VIRGINIA_BBOX.with_margin(params.bbox_margin_deg)
    survivors = [
        c for c in candidates if c.confidence >= params.confidence_threshold and within_bbox(c.coordinate, box)
    ]
    county_centroid = table.get(county) if county else None
    if survivors:
        survivors.sort(key=lambda c: -c.confidence)
        if county_centroid is None:
            return survivors[0].coordinate, "entity"
        gated = [c for c in survivors if haversine_km(c.coordinate, county_centroid) <= params.distance_gate_km]
        if gated:
            return gated[0].coordinate, "entity"
    if county_centroid is not None:
        return county_centroid, "county"
    return VIRGINIA_CENTER, "statewide"


# Deed words: the table's keys and stems in three cases, stems inside
# words, county forms and the packaged gazetteer's names, each with or
# without trailing clause punctuation, joined by whitespace only, since
# an expansion glued to the next key is where the two expansions differ.
_DEED_WORDS = sorted(
    {form for key in _ABBREVIATIONS for word in (key, key[:-1]) for form in (word, word.upper(), word.lower())}
    | {"Sweet", "Colonel", "Crew", "Mtn", "acsx", "Braddock", "County", "COUNTY", "co.", "City", "of", "OF"}
    | {"CİTY", "cıty", "Cİty", "cOUNTY", "CO.", "cO."}  # "İ" and "ı" fold to "i" under re.IGNORECASE
    | {"Henrico", "HENRICO", "King", "&", "and", "Queen", "Isle", "Wight", "Prince", "George", "Surry", "Essex"}
    | {"in", "the", "adj.", "S.", "Holloway", "Swamp", "Blackwater", "Nottoway", "River", "Saint", "Paul"}
    | {"Richmond", "Petersburg", "Norfolk", "Jamestown"}
)
_WHITESPACE = [" ", "\t", "\n", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", " \t "]
_DEED_TEXTS = st.lists(
    st.tuples(st.sampled_from(_DEED_WORDS), st.sampled_from(["", ";", ",", ".", ":"]), st.sampled_from(_WHITESPACE)),
    max_size=14,
).map(lambda parts: "".join(word + mark + space for word, mark, space in parts))


# Phrase pieces: capitals after word characters of other scripts, digits
# and underscore (no word boundary there), stopwords, "of" in two cases,
# periods and apostrophes inside and around words.
_PHRASE_PIECES = ["Henrico", "St.", "John's", "Mill", "Run", "The", "IN", "of", "OF", "A", "Ab", "x", "Co."]
_PHRASE_PIECES += ["éAb", "_Cd", "1Ef", "ÀBC", "İvy", "'s", "Dé"]
_PHRASE_TEXTS = _joined(st.sampled_from(_PHRASE_PIECES))

_PACKAGED_GAZETTEER = packaged_gazetteer()


class TestOnePassMatchesReference:
    def test_every_key_and_whitespace_is_drawn(self):
        assert set(_ABBREVIATIONS) <= set(_DEED_WORDS)
        assert all(re.fullmatch(r"\s+", space) and space.isspace() for space in _WHITESPACE)

    @given(_DEED_TEXTS)
    @settings(max_examples=400, deadline=None)
    def test_expansion(self, text):
        assert expand_abbreviations(text) == _reference_expand(text)

    @given(_DEED_TEXTS)
    @example("in the CİTY of Norfolk")
    @example("in the cıty OF Surry\t")
    @example("200 acs. in Henrico Co. of Virginia")
    @example("in Henrico County of Virginia")
    @example("400 acs. in James City Co. of Virginia")
    @example("adj. John Smith, County of Henrico")
    @example("in the Co. of Henrico")
    @settings(max_examples=400, deadline=None)
    def test_county(self, text):
        assert extract_county(text) == _reference_extract_county(text)

    @given(st.one_of(_DEED_TEXTS, _PHRASE_TEXTS))
    @settings(max_examples=400, deadline=None)
    def test_entity_extractor(self, text):
        assert default_entity_extractor(text) == _reference_entity_extractor(text)

    @given(_DEED_TEXTS, st.sampled_from([HeuristicParams(0.5, 0.2, 25.0), HeuristicParams(0.5, 0.0, 400.0)]))
    @settings(max_examples=400, deadline=None)
    def test_geoparse_and_its_resolver_calls(self, text, params):
        resolve = gazetteer_resolver(_PACKAGED_GAZETTEER)
        calls = {"new": [], "reference": []}

        def recording(side):
            return lambda variant: calls[side].append(variant) or resolve(variant)

        got = heuristic_geoparse(text, recording("new"), TABLE, params)
        assert got == _reference_geoparse(text, recording("reference"), TABLE, params)
        assert calls["new"] == calls["reference"]


class TestTotality:
    def test_fuzz_corpus_always_returns_coordinate(self):
        rng = random.Random(11)
        words = [
            "swamp", "creek", "river", "Henrico", "Co.", "adj.", "Wm.", "SMITH,", "400",
            "acs.,", "on", "S.", "side", "of", "the", "main", "branch;", "beg.", "at",
            "a", "corner", "pine", "Indian", "path", "Sw.", "Cr.", "1703", "p.", "519",
        ]
        resolver = gazetteer_resolver(packaged_gazetteer())
        params = HeuristicParams(0.5, 0.2, 25.0)
        for _ in range(200):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 40)))
            for coordinate, flag in (
                predict_county_centroid(text, TABLE),
                heuristic_geoparse(text, resolver, TABLE, params),
                predict_ner_pipeline(text, default_entity_extractor, packaged_gazetteer(), TABLE),
            ):
                assert coordinate is not None
                assert within_bbox(coordinate, VIRGINIA_BBOX.with_margin(0.2)) or coordinate == VIRGINIA_CENTER

    def test_no_county_texts_return_exact_statewide_center(self):
        texts = ["", "on the ridge path", "beg. at a white oak; to a pine; to the river"]
        for text in texts:
            coordinate, flag = predict_county_centroid(text, TABLE)
            assert (coordinate.lat, coordinate.lon) == (37.4316, -78.6569)
            assert flag == "statewide"
