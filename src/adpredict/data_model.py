"""Domain types and delimited-text I/O for the advert-exposure panel.

A panel is five tab-separated tables: ``users``, ``products``, ``survey``,
``viewing`` and ``broadcasts``. Each file carries a header row, is UTF-8
encoded, and uses ISO-8601 local timestamps at minute resolution
(``YYYY-MM-DDTHH:MM``: zero-padded ASCII digits, years 0001-9999).
``write_catalog`` emits rows sorted by primary key, so writing the same
catalog twice produces byte-identical files and
``parse_catalog(write_catalog(c)) == c`` for every valid catalog.
"""

from __future__ import annotations

import gc
import hashlib
import io
import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

AGE_BRACKETS = (
    "18 to 25 years old",
    "26 to 35 years old",
    "36 to 45 years old",
    "46 to 55 years old",
    "56 or older",
)

SEXES = ("Male", "Female")

MARITAL_STATUSES = ("Single", "Married", "Divorced or Widowed")

PARENTAL_STATUSES = ("Parent", "Not a Parent")

INCOME_BRACKETS = (
    "Not disclosed",
    "No Income",
    "Under 1,000,000 yen",
    "From 1,000,000 yen to 2,000,000 yen",
    "From 2,000,000 yen to 3,000,000 yen",
    "From 3,000,000 yen to 4,000,000 yen",
    "From 4,000,000 yen to 5,000,000 yen",
    "From 5,000,000 yen to 6,000,000 yen",
    "From 6,000,000 yen to 7,000,000 yen",
    "From 7,000,000 yen to 10,000,000 yen",
    "From 10,000,000 yen to 15,000,000 yen",
    "From 15,000,000 yen to 20,000,000 yen",
    "Over 20,000,000 yen",
)

TABLE_FILENAMES = {
    "users": "users.tsv",
    "products": "products.tsv",
    "survey": "survey.tsv",
    "viewing": "viewing.tsv",
    "broadcasts": "broadcasts.tsv",
}

_HEADERS = {
    "users": ("user_id", "age_bracket", "sex", "marital_status",
              "parental_status", "income_bracket"),
    "products": ("product_id",),
    "survey": ("user_id", "product_id", "pi_jan", "pi_mar", "ap_jan", "ap_mar"),
    "viewing": ("user_id", "start", "duration_s", "channel"),
    "broadcasts": ("product_id", "start", "duration_s", "channel"),
}


# Characters a table file cannot carry inside a field: the tab separator and
# every line boundary of ``str.splitlines``.
_UNWRITABLE = re.compile("[\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# The part of an event start below the minutes, which the files do not carry.
_SUBMINUTE = attrgetter("start.second", "start.microsecond")


class CatalogError(ValueError):
    """A catalog violates one of its structural invariants."""


class ParseError(CatalogError):
    """A table file is malformed; carries the file and 1-based line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


@dataclass(frozen=True)
class DemographicProfile:
    user_id: str
    age_bracket: str
    sex: str
    marital_status: str
    parental_status: str
    income_bracket: str

    def __post_init__(self):
        for value, allowed, name in (
            (self.age_bracket, AGE_BRACKETS, "age_bracket"),
            (self.sex, SEXES, "sex"),
            (self.marital_status, MARITAL_STATUSES, "marital_status"),
            (self.parental_status, PARENTAL_STATUSES, "parental_status"),
            (self.income_bracket, INCOME_BRACKETS, "income_bracket"),
        ):
            if value not in allowed:
                raise CatalogError(f"invalid {name} for {self.user_id!r}: {value!r}")


class SurveyResponse(NamedTuple):
    """Wave-1 (January) and wave-2 (March) answers for one (user, product)."""

    user_id: str
    product_id: str
    pi_jan: bool
    pi_mar: bool
    ap_jan: bool
    ap_mar: bool


class ViewingRecord(NamedTuple):
    """One at-home viewing session; ``Catalog`` rejects a negative duration."""

    user_id: str
    start: datetime
    duration_s: int
    channel: str

    @property
    def end(self) -> datetime:
        return self.start + timedelta(seconds=self.duration_s)


class AdBroadcast(NamedTuple):
    """One airing of an advert; ``Catalog`` rejects a non-positive duration."""

    product_id: str
    start: datetime
    duration_s: int
    channel: str

    @property
    def end(self) -> datetime:
        return self.start + timedelta(seconds=self.duration_s)


@dataclass(frozen=True)
class Catalog:
    """Validated, canonically ordered panel. Immutable and safe to share."""

    users: tuple[DemographicProfile, ...]
    products: tuple[str, ...]
    responses: tuple[SurveyResponse, ...]
    viewing: tuple[ViewingRecord, ...]
    broadcasts: tuple[AdBroadcast, ...]

    @classmethod
    def build(cls, users, products, responses, viewing, broadcasts) -> "Catalog":
        """Sort all tables by primary key and enforce the catalog invariants."""
        users = tuple(sorted(users, key=lambda u: u.user_id))
        products = tuple(sorted(products))
        # Record fields 0, 1 and 3: (user_id, product_id) for responses,
        # (user_id, start, channel) and (product_id, start, channel) for events.
        responses = tuple(sorted(responses, key=itemgetter(0, 1)))
        viewing = tuple(sorted(viewing, key=itemgetter(0, 1, 3)))
        broadcasts = tuple(sorted(broadcasts, key=itemgetter(0, 1, 3)))
        catalog = cls(users, products, responses, viewing, broadcasts)
        catalog._validate()
        return catalog

    def _validate(self) -> None:
        user_ids = [u.user_id for u in self.users]
        if len(set(user_ids)) != len(user_ids):
            raise CatalogError("duplicate user_id in users table")
        if len(set(self.products)) != len(self.products):
            raise CatalogError("duplicate product_id in products table")
        known_users = set(user_ids)
        known_products = set(self.products)
        if "" in known_products:
            raise CatalogError("empty product_id in products table")
        channels = {*map(itemgetter(3), self.viewing), *map(itemgetter(3), self.broadcasts)}
        for name, values in (("user_id", user_ids), ("product_id", self.products),
                             ("channel", channels)):
            for value in values:
                if _UNWRITABLE.search(value):
                    raise CatalogError(f"{name} {value!r} contains a tab or line break")
        for table, records in (("viewing", self.viewing), ("broadcast", self.broadcasts)):
            if set(map(_SUBMINUTE, records)) - {(0, 0)}:
                r = next(r for r in records if _SUBMINUTE(r) != (0, 0))
                raise CatalogError(f"{table} start {r.start.isoformat()} for {r[0]!r} "
                                   f"is not a whole minute")

        seen_pairs = set()
        for r in self.responses:
            if r.user_id not in known_users:
                raise CatalogError(f"survey row references unknown user {r.user_id!r}")
            if r.product_id not in known_products:
                raise CatalogError(f"survey row references unknown product {r.product_id!r}")
            pair = (r.user_id, r.product_id)
            if pair in seen_pairs:
                raise CatalogError(f"duplicate survey row for {pair}")
            seen_pairs.add(pair)
        expected = len(self.users) * len(self.products)
        if len(self.responses) != expected:
            raise CatalogError(
                f"survey must cover every (user, product) pair exactly once: "
                f"expected {expected} rows, got {len(self.responses)}"
            )

        prev: ViewingRecord | None = None
        for v in self.viewing:
            if v.user_id not in known_users:
                raise CatalogError(f"viewing row references unknown user {v.user_id!r}")
            if v.duration_s < 0:
                raise CatalogError(f"negative viewing duration for {v.user_id!r}")
            if prev is not None and prev.user_id == v.user_id and prev.end > v.start:
                raise CatalogError(
                    f"overlapping viewing intervals for user {v.user_id!r} "
                    f"at {_format_timestamp(v.start)}"
                )
            prev = v

        for b in self.broadcasts:
            if b.product_id not in known_products:
                raise CatalogError(f"broadcast references unknown product {b.product_id!r}")
            if b.duration_s <= 0:
                raise CatalogError(f"non-positive broadcast duration for {b.product_id!r}")

    @property
    def user_ids(self) -> tuple[str, ...]:
        return tuple(u.user_id for u in self.users)

    @property
    def advert_matched_products(self) -> tuple[str, ...]:
        """Products that appear in at least one broadcast, sorted."""
        matched = {b.product_id for b in self.broadcasts}
        return tuple(p for p in self.products if p in matched)

    def fingerprint(self) -> str:
        """Content hash of the canonical serialization, independent of file layout.

        The tables are immutable, so the digest is computed once per instance
        and kept outside the dataclass fields (equality ignores it).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha256()
            for name, payload in sorted(serialize_tables(self).items()):
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
                digest.update(payload)
            cached = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def _format_bool(value: bool) -> str:
    return "yes" if value else "no"


def _format_timestamp(value: datetime) -> str:
    # isoformat zero-pads years below 1000, which strftime("%Y") does not.
    return value.isoformat(timespec="minutes")


# The 16 combinations of the four survey answers, e.g. ("yes", "no", "no", "yes").
_ANSWERS = {tuple(map(_format_bool, answers)): answers
            for answers in itertools.product((True, False), repeat=4)}
_SURVEY_BLOCK = 4096  # survey lines split at a time: bounds the yes/no strings alive

_STAMP_SHAPE = "0000-00-00T00:00"  # "0" marks an ASCII digit
_STAMP_CODES = np.array([ord(c) for c in _STAMP_SHAPE], dtype=np.uint32)
_STAMP_DIGITS = _STAMP_CODES == ord("0")
_YEAR_ONE = np.datetime64("0001-01-01T00:00", "m")

# A duration is ASCII digits with an optional minus: plain ``int`` would also
# take spaces, "+", "_" and non-ASCII digits. At most 18 digits keep every
# value inside int64, which the exposure join computes in.
_INTEGER = re.compile(r"-?[0-9]{1,18}")
_INTEGERS = re.compile(rf"{_INTEGER.pattern}(?:\n{_INTEGER.pattern})*")


def _read_lines(path: Path, table: str) -> list[str]:
    """The data lines of one table file, after its checked header row."""
    header = _HEADERS[table]
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(path, 0, "file not found") from None
    lines = text.splitlines()
    if not lines:
        raise ParseError(path, 1, "missing header row")
    if tuple(lines[0].split("\t")) != header:
        raise ParseError(path, 1, f"bad header, expected {chr(9).join(header)!r}")
    del lines[0]
    width = len(header)
    if "" in lines or set(map(str.count, lines, itertools.repeat("\t"))) - {width - 1}:
        for line_no, line in enumerate(lines, start=2):
            if line == "":
                raise ParseError(path, line_no, "blank line")
            if line.count("\t") != width - 1:
                raise ParseError(path, line_no,
                                 f"expected {width} fields, got {line.count(chr(9)) + 1}")
    return lines


def _in_range(text: str) -> bool:
    try:
        return np.datetime64(text, "m") >= _YEAR_ONE
    except ValueError:
        return False


def _parse_timestamps(path: Path, texts: list[str]) -> list[datetime]:
    """Parse a column of ``YYYY-MM-DDTHH:MM`` values, zero-padded ASCII digits
    and years 0001-9999; the first bad value raises ParseError with its line."""
    n, width = len(texts), len(_STAMP_SHAPE)
    column = np.array(texts, dtype=f"<U{width}")
    codes = column.view(np.uint32).reshape(n, width)
    digits = (codes >= ord("0")) & (codes <= ord("9"))
    valid = ((np.fromiter(map(len, texts), np.intp, n) == width)
             & np.where(_STAMP_DIGITS, digits, codes == _STAMP_CODES).all(axis=1))
    if valid.all():
        try:
            stamps = column.astype("datetime64[m]")
        except ValueError:  # a month, day, hour or minute out of range
            valid = np.fromiter(map(_in_range, texts), bool, n)
        else:
            valid = stamps >= _YEAR_ONE
    if not valid.all():
        i = int(np.argmin(valid))
        raise ParseError(path, i + 2, f"bad timestamp {texts[i]!r} (want YYYY-MM-DDTHH:MM)")
    return stamps.astype(object).tolist()


def _parse_events(path: Path, table: str, record, min_duration: int, defect: str) -> list:
    """Parse a viewing or broadcast table by column into ``record`` rows.

    A duration below ``min_duration`` raises ParseError naming ``defect``.
    """
    lines = _read_lines(path, table)
    # One split of the whole table: no per-row lists for the collector to walk.
    fields = "\t".join(lines).split("\t") if lines else []
    ids, starts, durations, channels = (fields[i::4] for i in range(4))
    starts = _parse_timestamps(path, starts)
    # Fields hold no newline (lines come from splitlines), so one match of
    # the joined column checks every value.
    if durations and not _INTEGERS.fullmatch("\n".join(durations)):
        i = next(i for i, text in enumerate(durations) if not _INTEGER.fullmatch(text))
        raise ParseError(path, i + 2, f"bad integer {durations[i]!r}")
    durations = list(map(int, durations))
    short = np.flatnonzero(np.array(durations) < min_duration)
    if short.size:
        i = int(short[0])
        raise ParseError(path, i + 2, f"{defect} for {ids[i]!r}")
    return list(map(record._make, zip(ids, starts, durations, channels)))


def _parse_survey(path: Path) -> list[SurveyResponse]:
    lines = _read_lines(path, "survey")
    users, products, flags = [], [], []
    for first in range(0, len(lines), _SURVEY_BLOCK):
        fields = "\t".join(lines[first:first + _SURVEY_BLOCK]).split("\t")
        users += fields[0::6]
        products += fields[1::6]
        flags += map(_ANSWERS.get, zip(*(fields[k::6] for k in range(2, 6))))
    pairs = list(zip(users, products))
    if len(set(pairs)) != len(pairs):
        first_seen: dict[tuple[str, str], int] = {}
        for line_no, pair in enumerate(pairs, start=2):
            if pair in first_seen:
                raise ParseError(
                    path, line_no,
                    f"duplicate survey row for {pair} (first seen on line {first_seen[pair]})",
                )
            first_seen[pair] = line_no
    if None in flags:
        i = flags.index(None)
        bad = next(f for f in lines[i].split("\t")[2:] if f not in ("yes", "no"))
        raise ParseError(path, i + 2, f"expected yes/no, got {bad!r}")
    return list(map(SurveyResponse._make, zip(users, products, *zip(*flags))))


@contextmanager
def _collector_paused():
    """Pause automatic cyclic garbage collection inside the decorated call.

    For calls that build many tracked objects without reference cycles:
    panel records here and in ``synthgen.generate_panel``, score records in
    ``runner.load_score_records``. Records are ``NamedTuple``s, which
    CPython keeps tracked, so building 110k of them starts hundreds of
    collections that each walk every live record. Reference counting frees
    objects without cycles on time without the collector. On exit the
    collector is enabled again only if it was enabled on entry.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def parse_catalog(data_dir: str | Path) -> Catalog:
    """Parse the five panel tables under ``data_dir`` into a validated Catalog.

    Each table is read whole and parsed by column, with automatic cyclic
    garbage collection paused. Raises ParseError with file and line number
    for malformed rows, and CatalogError for cross-table invariant
    violations (dangling foreign keys, duplicate survey pairs, overlapping
    viewing intervals).
    """
    data_dir = Path(data_dir)

    users_path = data_dir / TABLE_FILENAMES["users"]
    users = []
    for line_no, line in enumerate(_read_lines(users_path, "users"), start=2):
        try:
            users.append(DemographicProfile(*line.split("\t")))
        except CatalogError as exc:
            raise ParseError(users_path, line_no, str(exc)) from None

    products = _read_lines(data_dir / TABLE_FILENAMES["products"], "products")
    responses = _parse_survey(data_dir / TABLE_FILENAMES["survey"])
    viewing = _parse_events(data_dir / TABLE_FILENAMES["viewing"], "viewing",
                            ViewingRecord, 0, "negative viewing duration")
    broadcasts = _parse_events(data_dir / TABLE_FILENAMES["broadcasts"], "broadcasts",
                               AdBroadcast, 1, "non-positive broadcast duration")
    return Catalog.build(users, products, responses, viewing, broadcasts)


def serialize_tables(catalog: Catalog) -> dict[str, bytes]:
    """Render the five tables as canonical UTF-8 payloads keyed by table name."""
    out: dict[str, bytes] = {}

    buf = io.StringIO()
    buf.write("\t".join(_HEADERS["users"]) + "\n")
    for u in catalog.users:
        buf.write("\t".join((u.user_id, u.age_bracket, u.sex, u.marital_status,
                             u.parental_status, u.income_bracket)) + "\n")
    out["users"] = buf.getvalue().encode("utf-8")

    buf = io.StringIO()
    buf.write("product_id\n")
    for p in catalog.products:
        buf.write(p + "\n")
    out["products"] = buf.getvalue().encode("utf-8")

    buf = io.StringIO()
    buf.write("\t".join(_HEADERS["survey"]) + "\n")
    for r in catalog.responses:
        buf.write("\t".join((r.user_id, r.product_id,
                             _format_bool(r.pi_jan), _format_bool(r.pi_mar),
                             _format_bool(r.ap_jan), _format_bool(r.ap_mar))) + "\n")
    out["survey"] = buf.getvalue().encode("utf-8")

    buf = io.StringIO()
    buf.write("\t".join(_HEADERS["viewing"]) + "\n")
    for v in catalog.viewing:
        buf.write("\t".join((v.user_id, _format_timestamp(v.start),
                             str(v.duration_s), v.channel)) + "\n")
    out["viewing"] = buf.getvalue().encode("utf-8")

    buf = io.StringIO()
    buf.write("\t".join(_HEADERS["broadcasts"]) + "\n")
    for b in catalog.broadcasts:
        buf.write("\t".join((b.product_id, _format_timestamp(b.start),
                             str(b.duration_s), b.channel)) + "\n")
    out["broadcasts"] = buf.getvalue().encode("utf-8")

    return out


def write_catalog(catalog: Catalog, data_dir: str | Path) -> None:
    """Write the five canonical table files under ``data_dir``."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in serialize_tables(catalog).items():
        (data_dir / TABLE_FILENAMES[name]).write_bytes(payload)
