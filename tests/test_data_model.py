import dataclasses
import gc
from datetime import datetime

import numpy as np
import pytest

from adpredict.data_model import (CatalogError, ParseError, TABLE_FILENAMES,
                                  parse_catalog, serialize_tables, write_catalog,
                                  AdBroadcast, Catalog, ViewingRecord)
from adpredict.synthgen import generate_panel
from conftest import random_catalog
from test_golden import GOLDEN_PANEL

# The tab separator and every line boundary of str.splitlines.
UNWRITABLE = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_advert_matched_is_broadcast_subset(tiny_catalog):
    assert tiny_catalog.advert_matched_products == ("p01",)


def test_round_trip_tiny(tiny_catalog, tmp_path):
    write_catalog(tiny_catalog, tmp_path)
    assert parse_catalog(tmp_path) == tiny_catalog


def test_round_trip_random_catalogs(tmp_path):
    rng = np.random.default_rng(1234)
    for i in range(25):
        catalog = random_catalog(rng, n_users=int(rng.integers(1, 6)),
                                 n_products=int(rng.integers(1, 5)))
        target = tmp_path / f"c{i}"
        write_catalog(catalog, target)
        assert parse_catalog(target) == catalog


def test_write_is_byte_stable(tiny_catalog, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_catalog(tiny_catalog, first)
    write_catalog(tiny_catalog, second)
    for name in TABLE_FILENAMES.values():
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_empty_catalog_writes_headers_only(tmp_path):
    catalog = Catalog.build([], [], [], [], [])
    write_catalog(catalog, tmp_path)
    for name, filename in TABLE_FILENAMES.items():
        lines = (tmp_path / filename).read_text().splitlines()
        assert len(lines) == 1, name
    assert parse_catalog(tmp_path) == catalog


def test_duplicate_survey_row_names_line(tiny_catalog, tmp_path):
    write_catalog(tiny_catalog, tmp_path)
    survey = tmp_path / TABLE_FILENAMES["survey"]
    lines = survey.read_text().splitlines()
    lines.append(lines[1])  # duplicate the first data row
    survey.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        parse_catalog(tmp_path)
    assert f":{len(lines)}:" in str(err.value)
    assert "duplicate" in str(err.value)


def test_malformed_row_is_positional(tiny_catalog, tmp_path):
    write_catalog(tiny_catalog, tmp_path)
    viewing = tmp_path / TABLE_FILENAMES["viewing"]
    lines = viewing.read_text().splitlines()
    lines[1] = lines[1].replace("2017", "late 2017")
    viewing.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        parse_catalog(tmp_path)
    assert ":2:" in str(err.value)


def test_dangling_foreign_key_rejected(tiny_catalog, tmp_path):
    write_catalog(tiny_catalog, tmp_path)
    broadcasts = tmp_path / TABLE_FILENAMES["broadcasts"]
    text = broadcasts.read_text().replace("p01", "p99")
    broadcasts.write_text(text)
    with pytest.raises(CatalogError, match="unknown product"):
        parse_catalog(tmp_path)


def test_overlapping_viewing_rejected(tiny_catalog):
    viewing = list(tiny_catalog.viewing) + [
        ViewingRecord("u001", datetime(2017, 1, 23, 20, 30), 600, "ch2"),
    ]
    with pytest.raises(CatalogError, match="overlapping viewing"):
        Catalog.build(tiny_catalog.users, tiny_catalog.products,
                      tiny_catalog.responses, viewing, tiny_catalog.broadcasts)


def test_touching_viewing_intervals_allowed(tiny_catalog):
    viewing = list(tiny_catalog.viewing) + [
        ViewingRecord("u001", datetime(2017, 1, 23, 21, 0), 600, "ch2"),
    ]
    catalog = Catalog.build(tiny_catalog.users, tiny_catalog.products,
                            tiny_catalog.responses, viewing, tiny_catalog.broadcasts)
    assert len(catalog.viewing) == 3


def test_incomplete_survey_rejected(tiny_catalog):
    with pytest.raises(CatalogError, match="survey must cover"):
        Catalog.build(tiny_catalog.users, tiny_catalog.products,
                      tiny_catalog.responses[:-1], tiny_catalog.viewing,
                      tiny_catalog.broadcasts)


def test_non_positive_broadcast_duration_rejected(tiny_catalog):
    broadcasts = [AdBroadcast("p01", datetime(2017, 1, 23, 20, 30), 0, "ch1")]
    with pytest.raises(CatalogError, match="non-positive broadcast duration"):
        Catalog.build(tiny_catalog.users, tiny_catalog.products,
                      tiny_catalog.responses, tiny_catalog.viewing, broadcasts)


def test_negative_viewing_duration_rejected(tiny_catalog):
    viewing = [ViewingRecord("u001", datetime(2017, 1, 23, 20, 0), -1, "ch1")]
    with pytest.raises(CatalogError, match="negative viewing duration"):
        Catalog.build(tiny_catalog.users, tiny_catalog.products,
                      tiny_catalog.responses, viewing, tiny_catalog.broadcasts)


def test_fingerprint_tracks_content(tiny_catalog):
    fp = tiny_catalog.fingerprint()
    assert fp == tiny_catalog.fingerprint()
    altered = Catalog.build(tiny_catalog.users, list(tiny_catalog.products) + ["p03"],
                            [r for r in tiny_catalog.responses]
                            + [type(tiny_catalog.responses[0])("u001", "p03", False,
                                                               False, False, False),
                               type(tiny_catalog.responses[0])("u002", "p03", False,
                                                               False, False, False)],
                            tiny_catalog.viewing, tiny_catalog.broadcasts)
    assert altered.fingerprint() != fp


def test_serialized_tables_have_sorted_rows(tiny_catalog):
    tables = serialize_tables(tiny_catalog)
    survey_lines = tables["survey"].decode().splitlines()[1:]
    keys = [tuple(line.split("\t")[:2]) for line in survey_lines]
    assert keys == sorted(keys)


def test_fingerprint_is_memoized_and_ignored_by_equality(tiny_catalog, tmp_path):
    write_catalog(tiny_catalog, tmp_path)
    first = parse_catalog(tmp_path)
    second = parse_catalog(tmp_path)
    fp = first.fingerprint()
    assert first.fingerprint() is fp  # served from the instance, not recomputed
    assert first == second  # the memo on one side does not break equality
    assert second.fingerprint() == fp == tiny_catalog.fingerprint()
    assert hash(first) == hash(second)


@pytest.mark.parametrize("start, stamp", [
    (datetime(1, 1, 1, 0, 0), "0001-01-01T00:00"),
    (datetime(999, 1, 2, 3, 4), "0999-01-02T03:04"),
    (datetime(9999, 12, 31, 23, 59), "9999-12-31T23:59"),
])
def test_round_trip_extreme_years(tiny_catalog, tmp_path, start, stamp):
    viewing = [ViewingRecord("u001", start, 0, "ch1")]
    broadcasts = [AdBroadcast("p01", start, 15, "ch1")]
    catalog = Catalog.build(tiny_catalog.users, tiny_catalog.products,
                            tiny_catalog.responses, viewing, broadcasts)
    write_catalog(catalog, tmp_path)
    assert f"\t{stamp}\t" in (tmp_path / TABLE_FILENAMES["viewing"]).read_text()
    assert parse_catalog(tmp_path) == catalog


def _corrupt_second_row(catalog, directory, table, column, value):
    """Write ``catalog`` and set one field of data row 2 (file line 3) of ``table``."""
    write_catalog(catalog, directory)
    path = directory / TABLE_FILENAMES[table]
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    fields[column] = value
    lines[2] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("stamp", [
    "2024-1-5T1:2",  # unpadded
    "2017-01-23 20:00",  # space separator
    "2017-01-23T20:00Z",  # trailing zone
    "２０１７-01-23T20:00",  # full-width digits
    "2017-02-29T10:00",  # no such day
    "2017-01-23T24:00",  # no such hour
    "0000-01-01T00:00",  # year 0
    "2017-01-23T20:0",  # 15 characters
    "2017-01-23T20:000",  # 17 characters
])
@pytest.mark.parametrize("table", ["viewing", "broadcasts"])
def test_malformed_timestamp_names_line(tiny_catalog, tmp_path, table, stamp):
    catalog = Catalog.build(
        tiny_catalog.users, tiny_catalog.products, tiny_catalog.responses,
        tiny_catalog.viewing,
        list(tiny_catalog.broadcasts) + [AdBroadcast("p01", datetime(2017, 1, 24), 15, "ch2")])
    _corrupt_second_row(catalog, tmp_path, table, 1, stamp)
    with pytest.raises(ParseError, match="bad timestamp") as err:
        parse_catalog(tmp_path)
    assert f"{TABLE_FILENAMES[table]}:3:" in str(err.value)


def test_negative_viewing_duration_in_file_names_line(tiny_catalog, tmp_path):
    _corrupt_second_row(tiny_catalog, tmp_path, "viewing", 2, "-1")
    with pytest.raises(ParseError, match="negative viewing duration") as err:
        parse_catalog(tmp_path)
    assert "viewing.tsv:3:" in str(err.value)


def test_zero_broadcast_duration_in_file_names_line(tiny_catalog, tmp_path):
    broadcasts = list(tiny_catalog.broadcasts) + [
        AdBroadcast("p01", datetime(2017, 1, 24), 15, "ch2")]
    catalog = Catalog.build(tiny_catalog.users, tiny_catalog.products,
                            tiny_catalog.responses, tiny_catalog.viewing, broadcasts)
    _corrupt_second_row(catalog, tmp_path, "broadcasts", 2, "0")
    with pytest.raises(ParseError, match="non-positive broadcast duration") as err:
        parse_catalog(tmp_path)
    assert "broadcasts.tsv:3:" in str(err.value)


@pytest.mark.parametrize("duration", [
    " １_２０ ",  # full-width digits, underscore and spaces
    "+5",  # explicit plus
    "1_0",  # digit separator
    " 12",  # leading space
    "12 ",  # trailing space
    "--5",  # doubled sign
    "",  # empty
    "1" + "0" * 18,  # 19 digits, beyond int64
])
@pytest.mark.parametrize("table", ["viewing", "broadcasts"])
def test_malformed_duration_names_line(tiny_catalog, tmp_path, table, duration):
    catalog = Catalog.build(
        tiny_catalog.users, tiny_catalog.products, tiny_catalog.responses,
        tiny_catalog.viewing,
        list(tiny_catalog.broadcasts) + [AdBroadcast("p01", datetime(2017, 1, 24), 15, "ch2")])
    _corrupt_second_row(catalog, tmp_path, table, 2, duration)
    with pytest.raises(ParseError, match="bad integer") as err:
        parse_catalog(tmp_path)
    assert f"{TABLE_FILENAMES[table]}:3:" in str(err.value)


def test_negative_duration_with_many_digits_names_defect(tiny_catalog, tmp_path):
    _corrupt_second_row(tiny_catalog, tmp_path, "viewing", 2, "-" + "9" * 18)
    with pytest.raises(ParseError, match="negative viewing duration") as err:
        parse_catalog(tmp_path)
    assert "viewing.tsv:3:" in str(err.value)


def _tables_renamed(catalog, field, old, new):
    """The five tables of ``catalog`` with every ``field`` equal to ``old`` set to ``new``."""
    def rename(record):
        if getattr(record, field, None) != old:
            return record
        if dataclasses.is_dataclass(record):
            return dataclasses.replace(record, **{field: new})
        return record._replace(**{field: new})

    products = [new if field == "product_id" and p == old else p for p in catalog.products]
    return ([rename(u) for u in catalog.users], products,
            [rename(r) for r in catalog.responses], [rename(v) for v in catalog.viewing],
            [rename(b) for b in catalog.broadcasts])


@pytest.mark.parametrize("char", UNWRITABLE)
@pytest.mark.parametrize("field, old", [("user_id", "u001"), ("product_id", "p01"),
                                        ("channel", "ch1")])
def test_identifier_that_cannot_round_trip_rejected(tiny_catalog, field, old, char):
    tables = _tables_renamed(tiny_catalog, field, old, f"x{char}y")
    with pytest.raises(CatalogError, match="contains a tab or line break"):
        Catalog.build(*tables)


def test_unwritable_characters_are_the_splitlines_boundaries():
    boundaries = {c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2}
    assert boundaries == set(UNWRITABLE) - {"\t"}


def test_empty_product_id_rejected(tiny_catalog):
    with pytest.raises(CatalogError, match="empty product_id"):
        Catalog.build(*_tables_renamed(tiny_catalog, "product_id", "p02", ""))


def test_unusual_identifiers_round_trip(tiny_catalog, tmp_path):
    tables = _tables_renamed(tiny_catalog, "user_id", "u001", "")
    catalog = Catalog.build(*tables)
    catalog = Catalog.build(*_tables_renamed(catalog, "user_id", "u002", "u 2\x1f"))
    catalog = Catalog.build(*_tables_renamed(catalog, "product_id", "p01", " é p "))
    catalog = Catalog.build(*_tables_renamed(catalog, "channel", "ch1", ""))
    write_catalog(catalog, tmp_path)
    assert parse_catalog(tmp_path) == catalog


# The files carry minutes only: a view at 20:00:30 would be written as 20:00,
# and its catalog would share the fingerprint of one with a view at 20:00.
@pytest.mark.parametrize("start", [datetime(2017, 1, 24, 20, 0, 30),
                                   datetime(2017, 1, 24, 20, 0, 0, 1)])
@pytest.mark.parametrize("table", ["viewing", "broadcasts"])
def test_sub_minute_start_rejected(tiny_catalog, table, start):
    events = {"viewing": list(tiny_catalog.viewing),
              "broadcasts": list(tiny_catalog.broadcasts)}
    events[table].append(events[table][0]._replace(start=start))
    with pytest.raises(CatalogError, match="is not a whole minute"):
        Catalog.build(tiny_catalog.users, tiny_catalog.products, tiny_catalog.responses,
                      events["viewing"], events["broadcasts"])


def test_parse_starts_no_collection(tmp_path, collections):
    write_catalog(generate_panel(GOLDEN_PANEL), tmp_path)
    body = getattr(parse_catalog, "__wrapped__", parse_catalog).__code__
    gc.collect()
    catalog = parse_catalog(tmp_path)
    # The backlog of the pause is collected once the body has returned.
    assert not [stack for stack in collections if body in stack]
    assert len(catalog.viewing) > 700  # more new records than the youngest threshold
    assert gc.isenabled()


def _dangling_panel(catalog, directory):
    write_catalog(catalog, directory)
    broadcasts = directory / TABLE_FILENAMES["broadcasts"]
    broadcasts.write_text(broadcasts.read_text().replace("p01", "p99"))


def test_collector_enabled_again_after_parse_and_errors(tiny_catalog, tmp_path):
    write_catalog(tiny_catalog, tmp_path / "good")
    parse_catalog(tmp_path / "good")
    assert gc.isenabled()
    with pytest.raises(ParseError, match="file not found"):
        parse_catalog(tmp_path / "missing")
    assert gc.isenabled()
    _dangling_panel(tiny_catalog, tmp_path / "dangling")
    with pytest.raises(CatalogError, match="unknown product"):
        parse_catalog(tmp_path / "dangling")
    assert gc.isenabled()


def test_collector_disabled_by_caller_stays_disabled(tiny_catalog, tmp_path):
    write_catalog(tiny_catalog, tmp_path / "good")
    _dangling_panel(tiny_catalog, tmp_path / "dangling")
    gc.disable()
    try:
        parse_catalog(tmp_path / "good")
        assert not gc.isenabled()
        with pytest.raises(CatalogError, match="unknown product"):
            parse_catalog(tmp_path / "dangling")
        assert not gc.isenabled()
    finally:
        gc.enable()
