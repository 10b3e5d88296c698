from datetime import datetime, time, timedelta

import numpy as np

from adpredict.data_model import AdBroadcast, ViewingRecord
from adpredict.exposure import ExposureMatrix, compute_exposure, write_exposure_table
from adpredict.features import (BaseKind, InputConfig, InputKind, ModelBase, Panel,
                                build_matrix)
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
            while moment < b.end:
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
    fm = build_matrix(panel, ModelBase(BaseKind.PRODUCT_BASED, "p01"),
                      InputConfig(InputKind.VIEW_WEEKDAY), Behavior.ACTUAL_PURCHASE)
    assert fm.values[1].tolist() == [0.0, 0.0, 47.0, 0.0, 0.0, 0.0, 0.0]


def test_audit_dump(tmp_path):
    seconds = np.zeros((1, 1, 7, 2), dtype=np.int64)
    seconds[0, 0, 0, 0] = 15
    path = tmp_path / "exposure.tsv"
    write_exposure_table(ExposureMatrix(("u1",), ("p1",), seconds), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user_id\tproduct_id\tweekday\tslot\tseconds"
    assert lines[1] == "u1\tp1\t0\tprimetime\t15"
