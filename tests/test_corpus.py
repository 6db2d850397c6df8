"""Corpus loading, fingerprints, splits, and ablation transforms."""

from __future__ import annotations

import csv
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grantgeo.baselines import load_gazetteer
from grantgeo.corpus import (
    GROUND_TRUTH_HEADER,
    DuplicateId,
    EvalSet,
    GrantAbstract,
    MalformedRow,
    SampleTooLarge,
    SplitConfig,
    fingerprint,
    load_ground_truth,
    read_csv,
    read_jsonl,
    redact_patentee,
    sample_fixed,
    split_corpus,
    word_count,
    write_csv,
    write_ground_truth,
    write_jsonl,
)
from grantgeo.geo import Coordinate
from grantgeo.harness import ingest_external_predictions

GRANT_04_TEXT = (
    "WILLIAM WILLIAMS, 400 acs., on 8. side of the main Black Water Swamp; "
    "by run of Holloway Sw; 24 Apr. 1703, p. 519. Trans. of 8 pers: "
    "Note: 8 tights paid for to Wm, Byrd, Esqr., Auditor."
)
# sha256sum + wc -w run on the exact text above
GRANT_04_SHA256 = "aa363697c85f9d4498fd6e7a47edc04ae41f0a95eef34ee27e0024c6c9965818"
GRANT_04_WORDS = 37


def _write_csv(path, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GROUND_TRUTH_HEADER)
        writer.writerows(rows)


class TestFingerprint:
    def test_empty_string_vector(self):
        assert fingerprint("") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    def test_abc_vector(self):
        assert fingerprint("abc") == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

    def test_corpus_row_external_oracle(self):
        assert fingerprint(GRANT_04_TEXT) == GRANT_04_SHA256


class TestWordCount:
    def test_empty(self):
        assert word_count("") == 0

    def test_multiple_spaces(self):
        assert word_count("a b  c") == 3

    def test_grant_04_hand_count(self):
        assert word_count(GRANT_04_TEXT) == GRANT_04_WORDS


class TestLoadGroundTruth:
    def test_complete_rows(self, tmp_path):
        path = tmp_path / "gt.csv"
        rows = []
        for i in range(43):
            text = f"GRANTEE {i}, {100 + i} acs. in Henrico Co."
            rows.append([f"row_{i:03d}", text, word_count(text), fingerprint(text), "37.5", "-77.4"])
        _write_csv(path, rows)
        records = load_ground_truth(path)
        assert len(records) == 43
        assert all(r.ground_truth is not None for r in records)
        assert records[0].word_count == word_count(records[0].text)
        assert records[0].fingerprint == fingerprint(records[0].text)

    def test_header_only(self, tmp_path):
        path = tmp_path / "gt.csv"
        _write_csv(path, [])
        assert load_ground_truth(path) == []

    def test_out_of_range_latitude(self, tmp_path):
        path = tmp_path / "gt.csv"
        _write_csv(path, [["r1", "text", "", "", "91.0", "-77.0"]])
        with pytest.raises(MalformedRow):
            load_ground_truth(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "gt.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(GROUND_TRUTH_HEADER)
            writer.writerow(["r1", "text", "1", ""])
        with pytest.raises(MalformedRow):
            load_ground_truth(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("id,text\nr1,foo\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_ground_truth(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "gt.csv"
        _write_csv(path, [["r1", "a", "", "", "", ""], ["r1", "b", "", "", "", ""]])
        with pytest.raises(DuplicateId):
            load_ground_truth(path)

    def test_half_filled_truth(self, tmp_path):
        path = tmp_path / "gt.csv"
        _write_csv(path, [["r1", "a", "", "", "37.0", ""]])
        with pytest.raises(MalformedRow):
            load_ground_truth(path)

    def test_stated_metadata_validated(self, tmp_path):
        path = tmp_path / "gt.csv"
        _write_csv(path, [["r1", "two words", "5", "", "", ""]])
        with pytest.raises(MalformedRow):
            load_ground_truth(path)

    def test_rows_without_truth(self, tmp_path):
        path = tmp_path / "gt.csv"
        _write_csv(path, [["r1", "no truth here", "", "", "", ""]])
        records = load_ground_truth(path)
        assert records[0].ground_truth is None

    def test_round_trip_writer(self, tmp_path):
        rows = [
            GrantAbstract.from_text("r1", "first text", Coordinate(37.1, -77.2)),
            GrantAbstract.from_text("r2", 'quoted, "text" here', None),
        ]
        path = tmp_path / "gt.csv"
        write_ground_truth(path, rows)
        back = load_ground_truth(path)
        assert [r.row_id for r in back] == ["r1", "r2"]
        assert back[0].ground_truth == Coordinate(37.1, -77.2)
        assert back[1].text == 'quoted, "text" here'


def _corpus(n):
    return [GrantAbstract.from_text(f"row_{i:05d}", f"text {i}") for i in range(n)]


class TestReaders:
    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_bytes((",".join(GROUND_TRUTH_HEADER) + "\nr1,caf").encode() + b"\xff\n")
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            load_ground_truth(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("\n" + ",".join(GROUND_TRUTH_HEADER) + "\n\nr1,a,,,,\n\n\nr2,b,,,,\n\n", encoding="utf-8")
        assert [r.row_id for r in load_ground_truth(path)] == ["r1", "r2"]

    def test_row_named_by_the_line_it_ends_on(self, tmp_path):
        path = tmp_path / "gt.csv"
        _write_csv(path, [["r1", "two\nlines", "", "", "", ""], ["r2", "b", "", "", "91.0", "-77.0"]])
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:4: not a ground-truth row \(ValueError: latitude 91.0"):
            load_ground_truth(path)

    def test_field_over_the_csv_limit(self, tmp_path):
        path = tmp_path / "gt.csv"
        _write_csv(path, [["r1", "word " * 30_000, "", "", "", ""]])
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:2: not CSV"):
            load_ground_truth(path)

    def test_header_checked_only_when_given(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        assert read_csv(path, "t", lambda *fields: fields, ["a", "b"]) == [("1", "2")]
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:1: bad header \['a', 'b'\]$"):
            read_csv(path, "t", lambda *fields: fields, ["a", "c"], exact=True)
        path.write_text("\n\n", encoding="utf-8")
        for exact in (False, True):
            with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}: empty file, header required$"):
                read_csv(path, "t", lambda *fields: fields, ["a", "b"], exact=exact)

    @pytest.mark.parametrize("exact", [False, True], ids=["no-header", "header"])
    @pytest.mark.parametrize("text, line, got", [("a,b\n1,2\n1\n", 3, 1), ("a,b\n1,2,3\n", 2, 3)], ids=["short", "long"])
    def test_row_width_checked_against_the_header(self, tmp_path, exact, text, line, got):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:{line}: expected 2 columns, got {got}$"):
            read_csv(path, "t", lambda *fields: fields, ["a", "b"], exact=exact)

    def test_jsonl_lines_named(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"b": 2}\n')
        assert list(read_jsonl(path, "t", dict.keys)) == [{"a": 1}.keys(), {"b": 2}.keys()]
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:3: not a t record \(missing field 'a'\)$"):
            list(read_jsonl(path, "t", lambda doc: doc["a"]))
        path.write_bytes(b'{"a": 1}\n{"a": \xff}\n')
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}:2: not a t record \(UnicodeDecodeError"):
            list(read_jsonl(path, "t", lambda doc: doc["a"]))

    @pytest.mark.parametrize("kind", ["gazetteer", "ground truth", "external predictions"])
    def test_a_leading_bom_is_skipped(self, tmp_path, kind):
        grants = [GrantAbstract.from_text("r1", "100 acs. on Blackwater Swamp", Coordinate(37.1, -77.1))]
        write, load = {
            "gazetteer": (
                lambda path: write_csv(path, ["name", "lat", "lon", "population", "feature_class"],
                                       [["Blackwater Swamp", "37.1", "-77.1", "0", "swamp"]]),
                load_gazetteer,
            ),
            "ground truth": (lambda path: write_ground_truth(path, grants), load_ground_truth),
            "external predictions": (
                lambda path: write_csv(path, ["row_id", "lat", "lon"], [["r1", "37.2", "-77.2"]]),
                lambda path: [p.coordinate for p in ingest_external_predictions(path, "H-1", grants)],
            ),
        }[kind]
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write(plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert list(load(bom)) == list(load(plain)) != []

    @pytest.mark.parametrize("error", [MalformedRow("own message"), DuplicateId("own message")])
    def test_parse_errors_of_the_readers_own_types_pass_unchanged(self, tmp_path, error):
        def parse(field):
            raise error

        (tmp_path / "t.csv").write_text("a\n1\n", encoding="utf-8")
        (tmp_path / "t.jsonl").write_text("1\n", encoding="utf-8")
        for read, name in ((partial(read_csv, columns=["a"]), "t.csv"), (read_jsonl, "t.jsonl")):
            with pytest.raises(type(error)) as excinfo:
                list(read(tmp_path / name, "t", parse))
            assert excinfo.value is error


# Text UTF-8 can encode, without NUL (not CSV before Python 3.11); fields add the pieces quoting must carry.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))
_PIECES = st.sampled_from([",", '"', "\r\n", "\n", "\r", "é", "—", "", " "])
_FIELDS = st.lists(_PIECES | _TEXT, max_size=4).map("".join)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _FIELDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_FIELDS, inner, max_size=3),
    max_leaves=10,
)
_SIX_DECIMALS = st.builds(  # as the writer prints the truth
    Coordinate,
    st.integers(-90_000_000, 90_000_000).map(lambda n: n / 1e6),
    st.integers(-180_000_000, 180_000_000).map(lambda n: n / 1e6),
)
_GRANTS = st.lists(
    st.builds(GrantAbstract.from_text, _TEXT.filter(bool), _FIELDS, st.none() | _SIX_DECIMALS),
    max_size=5,
    unique_by=lambda g: g.row_id,
)


class TestWriters:
    """Each writer gives back, through its reader, exactly what it was handed."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_csv_round_trip(self, tmp_path_factory, data):
        header = data.draw(st.lists(_FIELDS, min_size=1, max_size=4, unique=True))
        rows = data.draw(st.lists(st.lists(_FIELDS, min_size=len(header), max_size=len(header)), max_size=5))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, rows)
        assert read_csv(path, "t", lambda *fields: list(fields), header, exact=True) == rows

    @given(st.lists(st.dictionaries(_FIELDS, _JSON, max_size=4), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_jsonl_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
        write_jsonl(path, records)
        assert list(read_jsonl(path, "t", lambda doc: doc)) == records

    @given(_GRANTS)
    @settings(max_examples=200, deadline=None)
    def test_ground_truth_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("gt") / "gt.csv"
        write_ground_truth(path, rows)
        assert load_ground_truth(path) == rows

    def test_lone_carriage_return_is_quoted(self, tmp_path):
        # csv before Python 3.13 quotes only the characters of its line terminator, and "\r" ends a row when read
        rows = [GrantAbstract.from_text("r1", "two\rlines", None), GrantAbstract.from_text("r2\r", "", None)]
        write_ground_truth(tmp_path / "gt.csv", rows)
        assert load_ground_truth(tmp_path / "gt.csv") == rows
        assert b'\nr1,"two\rlines",2,' in (tmp_path / "gt.csv").read_bytes()


class TestSplitCorpus:
    def test_config_types(self):
        for bad in ({"seed": "7"}, {"seed": 7.0}, {"seed": True}, {"dev_fraction": "0.2"}, {"dev_fraction": 1.0}):
            with pytest.raises(ValueError):
                SplitConfig(**bad)

    def test_floor_sizes_full_corpus(self):
        rows = _corpus(5471)
        dev, test = split_corpus(rows, SplitConfig(seed=42, dev_fraction=0.20))
        assert len(dev) == 1094
        assert len(test) == 4377

    def test_deterministic(self):
        rows = _corpus(200)
        a = split_corpus(rows, SplitConfig(seed=42))
        b = split_corpus(rows, SplitConfig(seed=42))
        assert a == b

    def test_partition_laws(self):
        rows = _corpus(137)
        dev, test = split_corpus(rows, SplitConfig(seed=7, dev_fraction=0.3))
        assert set(dev.members) & set(test.members) == set()
        assert set(dev.members) | set(test.members) == {r.row_id for r in rows}

    def test_seed_changes_membership(self):
        rows = _corpus(100)
        a, _ = split_corpus(rows, SplitConfig(seed=1))
        b, _ = split_corpus(rows, SplitConfig(seed=2))
        assert a.members != b.members

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_corpus([])


class TestSampleFixed:
    def test_whole_set(self):
        s = EvalSet("s", ("a", "b", "c"))
        assert sample_fixed(s, 3, 0).members == ("a", "b", "c")

    def test_empty_sample(self):
        s = EvalSet("s", ("a", "b"))
        assert sample_fixed(s, 0, 0).members == ()

    def test_too_large(self):
        with pytest.raises(SampleTooLarge):
            sample_fixed(EvalSet("s", ("a",)), 2, 0)

    def test_seeds_differ_and_replay(self):
        s = EvalSet("s", tuple(f"m{i:03d}" for i in range(100)))
        a = sample_fixed(s, 20, seed=1)
        b = sample_fixed(s, 20, seed=2)
        assert a.members != b.members
        assert sample_fixed(s, 20, seed=1).members == a.members
        assert all(m in s.members for m in a.members)


class TestRedactPatentee:
    def test_leading_caps_name(self):
        assert redact_patentee("WILLIAM WILLIAMS, 400 acs., on S. side") == "[NAME], 400 acs., on S. side"

    def test_empty(self):
        assert redact_patentee("") == ""

    def test_no_match_identity(self):
        text = "on the Ridge Path to the Indian towne"
        assert redact_patentee(text) == text

    def test_ampersand_and_initials(self):
        assert redact_patentee("WM. BYRD & JNO. SMITH, 100 acs.") == "[NAME], 100 acs."

    def test_mixed_case_not_matched(self):
        text = "William Williams, 400 acs."
        assert redact_patentee(text) == text

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        once = redact_patentee(text)
        assert redact_patentee(once) == once
