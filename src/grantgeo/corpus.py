"""Corpus ingestion, fingerprinting, splitting, and text ablations."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from .geo import Coordinate, is_int, is_real

GROUND_TRUTH_HEADER = ["row_id", "abstract_text", "word_count", "sha256", "truth_lat", "truth_lon"]
"""Bit-exact column header for ground-truth/results CSV files."""


class MalformedRow(ValueError):
    """Raised for rows with missing columns or bad coordinate values."""


class DuplicateId(ValueError):
    """Raised when a loaded file repeats a row_id."""


class SampleTooLarge(ValueError):
    """Raised when a sample larger than the source set is requested."""


# A missing JSON field is a KeyError, a JSON value of the wrong type a TypeError, a value that
# is not a number, a coordinate or JSON a ValueError, and not a decimal an ArithmeticError.
_ROW_ERRORS = (KeyError, TypeError, ValueError, ArithmeticError)


def read_csv(path: str | Path, kind: str, parse: Callable, columns: list[str], exact: bool = False) -> list:
    """``parse`` of each nonblank row of a UTF-8 CSV file, handed the row's fields under ``columns``
    in that order. The first nonblank row is the header, which every file needs: it must equal
    ``columns`` if ``exact``, else name each of them exactly once among any others. No header, one that
    does not, or a row wider or narrower than the header is MalformedRow naming the file and line. A
    leading byte order mark, as Excel writes, is skipped. A row error from ``parse`` is MalformedRow
    naming the file and the line the row ends on; its own MalformedRow or DuplicateId passes
    unchanged; bad UTF-8 names the file."""
    out = []
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = filter(None, reader)  # a blank line reads as []
            names = next(rows, None)
            if names is None:
                raise MalformedRow(f"{path}: empty file, header required")
            if exact and names != columns:
                raise MalformedRow(f"{path}:{reader.line_num}: bad header {names!r}")
            for column in columns:
                if names.count(column) != 1:
                    why = f"{'repeated' if column in names else 'missing'} column {column!r}"
                    raise MalformedRow(f"{path}:{reader.line_num}: not a {kind} header ({why})")
            at = [names.index(column) for column in columns]
            pick = itemgetter(*at) if len(at) > 1 else lambda row: (row[at[0]],)
            for row in rows:
                if len(row) != len(names):
                    raise MalformedRow(f"{path}:{reader.line_num}: expected {len(names)} columns, got {len(row)}")
                try:
                    out.append(parse(*pick(row)))
                except (MalformedRow, DuplicateId):
                    raise
                except _ROW_ERRORS as exc:
                    why = f"{type(exc).__name__}: {exc}"
                    raise MalformedRow(f"{path}:{reader.line_num}: not a {kind} row ({why})") from exc
    except UnicodeDecodeError as exc:  # decoded a block at a time, so no line is named
        raise MalformedRow(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:  # a field over csv's size limit, or a NUL byte before Python 3.11
        raise MalformedRow(f"{path}:{reader.line_num}: not CSV ({exc})") from exc
    return out


def read_jsonl(path: str | Path, kind: str, parse: Callable[[object], object]) -> Iterator:
    """``parse`` of each nonblank line of a JSONL file, yielded as the file is read, so only one
    line is held at a time; the file is opened at the first ``next``. A line that is not UTF-8
    JSON, or a row error from ``parse``, is MalformedRow naming the file and line, as in
    :func:`read_csv`."""
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    record = parse(json.loads(line.decode("utf-8")))
                except (MalformedRow, DuplicateId):
                    raise
                except _ROW_ERRORS as exc:  # bad UTF-8 and JSON are ValueErrors
                    why = f"missing field {exc}" if isinstance(exc, KeyError) else f"{type(exc).__name__}: {exc}"
                    raise MalformedRow(f"{path}:{lineno}: not a {kind} record ({why})") from exc
                yield record


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    r"""Write ``header`` and then each of ``rows`` as a UTF-8 CSV file with ``\n`` line ends
    and the csv module's quoting (RFC 4180), the form :func:`read_csv` reads."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        # Before Python 3.13, csv quotes a line break only if its line terminator holds one, so rows
        # are formed with "\r\n" ends, which quotes a lone "\r" too, and written with "\n".
        writer = csv.writer(SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")), lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_jsonl(path: str | Path, records: Iterable[object]) -> None:
    r"""Write each record as one line of JSON, UTF-8 with ``\n`` line ends, the form :func:`read_jsonl` reads."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)


def fingerprint(text: str) -> str:
    """Lowercase hex SHA-256 of the exact UTF-8 bytes of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def word_count(text: str) -> int:
    """Number of maximal nonempty whitespace-separated tokens."""
    return len(text.split())


@dataclass(frozen=True)
class GrantAbstract:
    """One corpus row: id, text, derived metadata, optional ground truth."""

    row_id: str
    text: str
    word_count: int
    fingerprint: str
    ground_truth: Coordinate | None = None

    @classmethod
    def from_text(cls, row_id: str, text: str, ground_truth: Coordinate | None = None) -> "GrantAbstract":
        return cls(row_id, text, word_count(text), fingerprint(text), ground_truth)

    def ground_truth_row(self) -> list:
        """This row's cells under GROUND_TRUTH_HEADER: the truth at six decimals, or empty without one."""
        truth = self.ground_truth
        lat, lon = (f"{truth.lat:.6f}", f"{truth.lon:.6f}") if truth else ("", "")
        return [self.row_id, self.text, self.word_count, self.fingerprint, lat, lon]


@dataclass(frozen=True)
class SplitConfig:
    seed: int = 42
    dev_fraction: float = 0.20

    def __post_init__(self):
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not (is_real(self.dev_fraction) and 0.0 < self.dev_fraction < 1.0):
            raise ValueError("dev_fraction must lie strictly between 0 and 1")


@dataclass(frozen=True)
class EvalSet:
    name: str
    members: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"evalset {self.name!r} has duplicate members")

    def __len__(self) -> int:
        return len(self.members)


def load_ground_truth(path: str | Path) -> list[GrantAbstract]:
    """Load a ground-truth CSV into GrantAbstract records.

    The file must carry the exact GROUND_TRUTH_HEADER. word_count and
    sha256 are recomputed from the text; nonempty stated values that
    disagree are rejected. Rows with both truth fields empty carry no
    ground truth; a half-filled pair is malformed.
    """
    seen: set[str] = set()

    def record(row_id, text, stated_count, sha256, lat, lon) -> GrantAbstract:
        if not row_id:
            raise ValueError("empty row_id")
        if row_id in seen:
            raise DuplicateId(f"{path}: duplicate row_id {row_id!r}")
        seen.add(row_id)
        if bool(lat) != bool(lon):
            raise ValueError("half-filled ground truth")
        rec = GrantAbstract.from_text(row_id, text, Coordinate(float(lat), float(lon)) if lat else None)
        if stated_count and int(stated_count) != rec.word_count:
            raise ValueError(f"stated word_count {stated_count} != {rec.word_count}")
        if sha256 and sha256.lower() != rec.fingerprint:
            raise ValueError("sha256 mismatch")
        return rec

    return read_csv(path, "ground-truth", record, GROUND_TRUTH_HEADER, exact=True)


def write_ground_truth(path: str | Path, rows: list[GrantAbstract]) -> None:
    """Write records in the ground-truth CSV schema (UTF-8, RFC 4180)."""
    write_csv(path, GROUND_TRUTH_HEADER, (r.ground_truth_row() for r in rows))


def split_corpus(rows: list[GrantAbstract], cfg: SplitConfig = SplitConfig()) -> tuple[EvalSet, EvalSet]:
    """Deterministic dev/test partition of the corpus.

    row_ids are sorted lexicographically, shuffled with
    ``random.Random(seed)`` (Fisher-Yates), and the first
    floor(n * dev_fraction) ids form the dev set. Membership depends
    only on the id set and the seed.
    """
    if not rows:
        raise ValueError("cannot split an empty corpus")
    ids = sorted(r.row_id for r in rows)
    rng = random.Random(cfg.seed)
    rng.shuffle(ids)
    n_dev = math.floor(len(ids) * cfg.dev_fraction)
    dev = EvalSet("dev", tuple(sorted(ids[:n_dev])))
    test = EvalSet("test", tuple(sorted(ids[n_dev:])))
    return dev, test


def sample_fixed(evalset: EvalSet, n: int, seed: int) -> EvalSet:
    """Seeded sample of ``n`` members without replacement, sorted by row_id."""
    if n > len(evalset.members):
        raise SampleTooLarge(f"n={n} exceeds |{evalset.name}|={len(evalset.members)}")
    rng = random.Random(seed)
    picked = rng.sample(sorted(evalset.members), n)
    return EvalSet(f"{evalset.name}-n{n}-s{seed}", tuple(sorted(picked)))


# Leading all-caps name segment before the first comma: uppercase words,
# initials, and ampersands. Abstracts open with the patentee in capitals.
_PATENTEE_RE = re.compile(r"^(\s*)((?:[A-Z][A-Z'.\-]*|&)(?:\s+(?:[A-Z][A-Z'.\-]*|&))*)\s*,")


def redact_patentee(text: str) -> str:
    """Mask the patentee's name with ``[NAME]``: the leading all-caps
    segment before the first comma is replaced. Idempotent."""
    m = _PATENTEE_RE.match(text)
    return f"{m.group(1)}[NAME],{text[m.end():]}" if m else text
