import tracemalloc
from datetime import datetime, time, timedelta

import numpy as np
import pytest

from adpredict import exposure
from adpredict.data_model import AdBroadcast, ViewingRecord
from adpredict.exposure import ExposureMatrix, compute_exposure, write_exposure_table
from adpredict.features import (BaseKind, InputConfig, InputKind, ModelBase, Panel,
                                build_matrix)
from adpredict.synthgen import GenConfig, generate_panel
from adpredict.targets import Behavior


def brute_force_exposure(viewing, broadcasts) -> dict:
    """Per-second membership count; credited to the slot of the first
    overlapping second of each (viewing, broadcast) pair."""
    cells = {}
    for v in viewing:
        for b in broadcasts:
            if v.channel != b.channel:
                continue
            seconds = 0
            first = None
            moment = b.start
            b_end = b.start + timedelta(seconds=b.duration_s)
            while moment < b_end:
                if v.start <= moment < v.end:
                    seconds += 1
                    if first is None:
                        first = moment
                moment += timedelta(seconds=1)
            if seconds:
                slot = ("primetime" if time(19) <= first.time() < time(23)
                        else "non_primetime")
                key = (v.user_id, b.product_id, first.weekday(), slot)
                cells[key] = cells.get(key, 0) + seconds
    return cells


def test_weekday_and_slot_boundaries():
    # 2017-01-23 is a Monday; each weekday has its own user, watching all day.
    monday = datetime(2017, 1, 23)
    clocks = {time(18, 59): "non_primetime", time(19, 0): "primetime",
              time(22, 59): "primetime", time(22, 59, 59): "primetime",
              time(23, 0): "non_primetime"}
    viewing, broadcasts, expected = [], [], {}
    for day in range(7):
        date = monday.date() + timedelta(days=day)
        user = f"u{day}"
        viewing.append(ViewingRecord(user, datetime.combine(date, time()), 86400, "ch1"))
        for duration, (clock, slot) in enumerate(clocks.items(), start=10):
            broadcasts.append(AdBroadcast("p1", datetime.combine(date, clock),
                                          duration, "ch1"))
            key = (user, "p1", day, slot)
            expected[key] = expected.get(key, 0) + duration
    matrix = compute_exposure(viewing, broadcasts)
    assert matrix.cells == expected
    assert matrix.seconds.sum() == 7 * (10 + 11 + 12 + 13 + 14)


def test_overlap_across_midnight_credits_its_start():
    # Sunday 2017-01-29 23:59 into Monday: all 90 s go to Sunday, non-primetime.
    viewing = [ViewingRecord("u1", datetime(2017, 1, 29, 23, 0), 7200, "ch1")]
    broadcasts = [AdBroadcast("p1", datetime(2017, 1, 29, 23, 59), 90, "ch1")]
    matrix = compute_exposure(viewing, broadcasts)
    assert matrix.cells == {("u1", "p1", 6, "non_primetime"): 90}
    assert matrix.seconds[0, 0, 6, 1] == 90


def test_full_containment_monday_primetime():
    viewing = [ViewingRecord("u1", datetime(2017, 1, 23, 20, 0), 3600, "ch1")]
    broadcasts = [AdBroadcast("p1", datetime(2017, 1, 23, 20, 30), 15, "ch1")]
    matrix = compute_exposure(viewing, broadcasts)
    # 2017-01-23 is a Monday.
    assert matrix.cells == {("u1", "p1", 0, "primetime"): 15}
    assert matrix.seconds.sum() == 15


def test_attribution_follows_overlap_start():
    # Overlap starts 18:58, so all 240 s land in the non-primetime cell.
    viewing = [ViewingRecord("u1", datetime(2017, 1, 23, 18, 50), 1200, "ch1")]
    broadcasts = [AdBroadcast("p1", datetime(2017, 1, 23, 18, 58), 240, "ch1")]
    matrix = compute_exposure(viewing, broadcasts)
    assert matrix.cells == {("u1", "p1", 0, "non_primetime"): 240}


def test_channel_mismatch_gives_nothing():
    viewing = [ViewingRecord("u1", datetime(2017, 1, 23, 20, 0), 3600, "ch1")]
    broadcasts = [AdBroadcast("p1", datetime(2017, 1, 23, 20, 30), 15, "ch2")]
    assert compute_exposure(viewing, broadcasts).seconds.sum() == 0


def test_empty_inputs():
    assert compute_exposure([], []).cells == {}


def _random_schedule(rng, n_viewing=8, n_broadcasts=10):
    base = datetime(2017, 1, 23)
    viewing = []
    for i in range(n_viewing):
        viewing.append(ViewingRecord(
            user_id=f"u{rng.integers(3)}",
            start=base + timedelta(days=i, minutes=int(rng.integers(1080, 1300))),
            duration_s=int(rng.integers(0, 4000)),
            channel=f"ch{rng.integers(2)}"))
    broadcasts = []
    for _ in range(n_broadcasts):
        broadcasts.append(AdBroadcast(
            product_id=f"p{rng.integers(3)}",
            start=base + timedelta(days=int(rng.integers(0, n_viewing)),
                                   minutes=int(rng.integers(1080, 1320)),
                                   seconds=int(rng.integers(0, 60))),
            duration_s=int(rng.integers(10, 120)),
            channel=f"ch{rng.integers(2)}"))
    return viewing, broadcasts


def test_matches_per_second_oracle():
    rng = np.random.default_rng(99)
    for _ in range(12):
        viewing, broadcasts = _random_schedule(rng)
        fast = compute_exposure(viewing, broadcasts)
        slow = brute_force_exposure(viewing, broadcasts)
        assert fast.cells == slow


@pytest.mark.parametrize("block", [1, 2, 7, 4095, 4096, 4097])
def test_blocked_join_matches_per_second_oracle(monkeypatch, block):
    rng = np.random.default_rng(31)
    schedules = [_random_schedule(rng, n_broadcasts=30) for _ in range(8)]
    for viewing, broadcasts in schedules:
        # ch9 has views and no broadcasts; the 2016 view precedes every
        # broadcast of ch0, so it has no candidates.
        viewing += [ViewingRecord("u9", datetime(2017, 1, 23, 20, 0), 3600, "ch9"),
                    ViewingRecord("u0", datetime(2016, 1, 1, 3, 0), 600, "ch0")]
        broadcasts.append(AdBroadcast("p0", datetime(2017, 1, 23, 19, 0), 30, "ch0"))
    whole = [compute_exposure(v, b).seconds for v, b in schedules]
    monkeypatch.setattr(exposure, "_JOIN_BLOCK", block)
    for (viewing, broadcasts), expected in zip(schedules, whole):
        blocked = compute_exposure(viewing, broadcasts)
        assert blocked.cells == brute_force_exposure(viewing, broadcasts)
        assert np.array_equal(blocked.seconds, expected)


def test_join_memory_beyond_its_result():
    # 6,897 views and 6,264 broadcasts. Python lists of each field, whole
    # interval-end columns and 16,384-pair blocks peaked at 1.50 MiB beyond
    # the result; streamed fields, ends per channel and 4,096-pair blocks
    # peak at 0.99 MiB.
    catalog = generate_panel(GenConfig(n_users=200, n_products=6, n_advert_matched=6,
                                       seed=2024))
    viewing, broadcasts = list(catalog.viewing), list(catalog.broadcasts)
    tracemalloc.start()
    try:
        matrix = compute_exposure(viewing, broadcasts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - matrix.seconds.nbytes < 1.25 * 2**20


def test_additive_over_viewing_partition():
    rng = np.random.default_rng(7)
    viewing, broadcasts = _random_schedule(rng, n_viewing=12)
    whole = compute_exposure(viewing, broadcasts)
    summed = dict(compute_exposure(viewing[:5], broadcasts).cells)
    for cell, seconds in compute_exposure(viewing[5:], broadcasts).cells.items():
        summed[cell] = summed.get(cell, 0) + seconds
    assert whole.cells == summed


def test_total_bounded_by_broadcast_mass():
    rng = np.random.default_rng(21)
    viewing, broadcasts = _random_schedule(rng)
    users = {v.user_id for v in viewing}
    matrix = compute_exposure(viewing, broadcasts)
    bound = sum(b.duration_s for b in broadcasts) * len(users)
    assert matrix.seconds.sum() <= bound


def test_weekday_total_sums_slots(tiny_catalog):
    seconds = np.zeros((2, 1, 7, 2), dtype=np.int64)
    seconds[1, 0, 2] = [30, 12 + 5]
    panel = Panel.build(tiny_catalog, ExposureMatrix(("u001", "u002"), ("p01",), seconds))
    assert panel.E[1, 0, 2].tolist() == [30.0, 17.0]
    X = build_matrix(panel, ModelBase(BaseKind.PRODUCT_BASED, "p01"),
                     InputConfig(InputKind.VIEW_WEEKDAY), Behavior.ACTUAL_PURCHASE)
    assert X[1].tolist() == [0.0, 0.0, 47.0, 0.0, 0.0, 0.0, 0.0]


def test_audit_dump(tmp_path):
    seconds = np.zeros((1, 1, 7, 2), dtype=np.int64)
    seconds[0, 0, 0, 0] = 15
    path = tmp_path / "exposure.tsv"
    write_exposure_table(ExposureMatrix(("u1",), ("p1",), seconds), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user_id\tproduct_id\tweekday\tslot\tseconds"
    assert lines[1] == "u1\tp1\t0\tprimetime\t15"
