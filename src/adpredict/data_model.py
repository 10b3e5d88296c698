"""Domain types and delimited-text I/O for the advert-exposure panel.

A panel is five tab-separated tables: ``users``, ``products``, ``survey``,
``viewing`` and ``broadcasts``. Each file carries a header row, is UTF-8
encoded, and uses ISO-8601 local timestamps at minute resolution
(``YYYY-MM-DDTHH:MM``). ``write_catalog`` emits rows sorted by primary key,
so writing the same catalog twice produces byte-identical files and
``parse_catalog(write_catalog(c)) == c`` for every valid catalog.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

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

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M"

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


@dataclass(frozen=True)
class SurveyResponse:
    """Wave-1 (January) and wave-2 (March) answers for one (user, product)."""

    user_id: str
    product_id: str
    pi_jan: bool
    pi_mar: bool
    ap_jan: bool
    ap_mar: bool


@dataclass(frozen=True)
class ViewingRecord:
    user_id: str
    start: datetime
    duration_s: int
    channel: str

    def __post_init__(self):
        if self.duration_s < 0:
            raise CatalogError(f"negative viewing duration for {self.user_id!r}")

    @property
    def end(self) -> datetime:
        return self.start + timedelta(seconds=self.duration_s)


@dataclass(frozen=True)
class AdBroadcast:
    product_id: str
    start: datetime
    duration_s: int
    channel: str

    def __post_init__(self):
        if self.duration_s <= 0:
            raise CatalogError(f"non-positive broadcast duration for {self.product_id!r}")

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
        responses = tuple(sorted(responses, key=lambda r: (r.user_id, r.product_id)))
        viewing = tuple(sorted(viewing, key=lambda v: (v.user_id, v.start, v.channel)))
        broadcasts = tuple(sorted(broadcasts, key=lambda b: (b.product_id, b.start, b.channel)))
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
            if prev is not None and prev.user_id == v.user_id and prev.end > v.start:
                raise CatalogError(
                    f"overlapping viewing intervals for user {v.user_id!r} "
                    f"at {v.start.strftime(TIMESTAMP_FORMAT)}"
                )
            prev = v

        for b in self.broadcasts:
            if b.product_id not in known_products:
                raise CatalogError(f"broadcast references unknown product {b.product_id!r}")

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


def _parse_bool(text: str, path, line_no: int) -> bool:
    if text == "yes":
        return True
    if text == "no":
        return False
    raise ParseError(path, line_no, f"expected yes/no, got {text!r}")


def _parse_timestamp(text: str, path, line_no: int) -> datetime:
    try:
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError:
        raise ParseError(path, line_no, f"bad timestamp {text!r} (want YYYY-MM-DDTHH:MM)") from None


def _parse_int(text: str, path, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line_no, f"bad integer {text!r}") from None


def _iter_rows(path: Path, table: str):
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
    for line_no, line in enumerate(lines[1:], start=2):
        if line == "":
            raise ParseError(path, line_no, "blank line")
        fields = line.split("\t")
        if len(fields) != len(header):
            raise ParseError(path, line_no, f"expected {len(header)} fields, got {len(fields)}")
        yield line_no, fields


def parse_catalog(data_dir: str | Path) -> Catalog:
    """Parse the five panel tables under ``data_dir`` into a validated Catalog.

    Raises ParseError with file and line number for malformed rows, and
    CatalogError for cross-table invariant violations (dangling foreign keys,
    duplicate survey pairs, overlapping viewing intervals).
    """
    data_dir = Path(data_dir)

    users = []
    for line_no, f in _iter_rows(data_dir / TABLE_FILENAMES["users"], "users"):
        try:
            users.append(DemographicProfile(*f))
        except CatalogError as exc:
            raise ParseError(data_dir / TABLE_FILENAMES["users"], line_no, str(exc)) from None

    products = [f[0] for _, f in _iter_rows(data_dir / TABLE_FILENAMES["products"], "products")]

    survey_path = data_dir / TABLE_FILENAMES["survey"]
    responses = []
    seen_pairs: dict[tuple[str, str], int] = {}
    for line_no, f in _iter_rows(survey_path, "survey"):
        pair = (f[0], f[1])
        if pair in seen_pairs:
            raise ParseError(
                survey_path, line_no,
                f"duplicate survey row for {pair} (first seen on line {seen_pairs[pair]})",
            )
        seen_pairs[pair] = line_no
        responses.append(SurveyResponse(
            f[0], f[1],
            _parse_bool(f[2], survey_path, line_no),
            _parse_bool(f[3], survey_path, line_no),
            _parse_bool(f[4], survey_path, line_no),
            _parse_bool(f[5], survey_path, line_no),
        ))

    viewing_path = data_dir / TABLE_FILENAMES["viewing"]
    viewing = []
    for line_no, f in _iter_rows(viewing_path, "viewing"):
        try:
            viewing.append(ViewingRecord(
                f[0],
                _parse_timestamp(f[1], viewing_path, line_no),
                _parse_int(f[2], viewing_path, line_no),
                f[3],
            ))
        except CatalogError as exc:
            raise ParseError(viewing_path, line_no, str(exc)) from None

    broadcast_path = data_dir / TABLE_FILENAMES["broadcasts"]
    broadcasts = []
    for line_no, f in _iter_rows(broadcast_path, "broadcasts"):
        try:
            broadcasts.append(AdBroadcast(
                f[0],
                _parse_timestamp(f[1], broadcast_path, line_no),
                _parse_int(f[2], broadcast_path, line_no),
                f[3],
            ))
        except CatalogError as exc:
            raise ParseError(broadcast_path, line_no, str(exc)) from None

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
        buf.write("\t".join((v.user_id, v.start.strftime(TIMESTAMP_FORMAT),
                             str(v.duration_s), v.channel)) + "\n")
    out["viewing"] = buf.getvalue().encode("utf-8")

    buf = io.StringIO()
    buf.write("\t".join(_HEADERS["broadcasts"]) + "\n")
    for b in catalog.broadcasts:
        buf.write("\t".join((b.product_id, b.start.strftime(TIMESTAMP_FORMAT),
                             str(b.duration_s), b.channel)) + "\n")
    out["broadcasts"] = buf.getvalue().encode("utf-8")

    return out


def write_catalog(catalog: Catalog, data_dir: str | Path) -> None:
    """Write the five canonical table files under ``data_dir``."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in serialize_tables(catalog).items():
        (data_dir / TABLE_FILENAMES[name]).write_bytes(payload)
