from datetime import datetime, time, timedelta

import numpy as np
import pytest

from adpredict.data_model import AdBroadcast, ViewingRecord
from adpredict.exposure import (ExposureMatrix, TimeSlot, compute_exposure,
                                slot_of, write_exposure_table)
from adpredict.features import (BaseKind, InputConfig, InputKind, ModelBase, Panel,
                                build_matrix)
from adpredict.targets import Behavior


def brute_force_exposure(viewing, broadcasts) -> ExposureMatrix:
    """Per-second membership count; credited to the slot of the first
    overlapping second of each (viewing, broadcast) pair."""
    matrix = ExposureMatrix()
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
                matrix.add(v.user_id, b.product_id, first.weekday(),
                           slot_of(first), seconds)
    return matrix


def test_slot_boundaries():
    assert slot_of(time(19, 0, 0)) is TimeSlot.PRIMETIME
    assert slot_of(time(22, 59, 59)) is TimeSlot.PRIMETIME
    assert slot_of(time(23, 0, 0)) is TimeSlot.NON_PRIMETIME
    assert slot_of(time(3, 15, 0)) is TimeSlot.NON_PRIMETIME
    assert slot_of(datetime(2017, 1, 23, 20, 30)) is TimeSlot.PRIMETIME


def test_full_containment_monday_primetime():
    viewing = [ViewingRecord("u1", datetime(2017, 1, 23, 20, 0), 3600, "ch1")]
    broadcasts = [AdBroadcast("p1", datetime(2017, 1, 23, 20, 30), 15, "ch1")]
    matrix = compute_exposure(viewing, broadcasts)
    # 2017-01-23 is a Monday.
    assert matrix.cells == {("u1", "p1", 0, TimeSlot.PRIMETIME): 15}
    assert matrix.total_seconds() == 15


def test_attribution_follows_overlap_start():
    # Overlap starts 18:58, so all 240 s land in the non-primetime cell.
    viewing = [ViewingRecord("u1", datetime(2017, 1, 23, 18, 50), 1200, "ch1")]
    broadcasts = [AdBroadcast("p1", datetime(2017, 1, 23, 18, 58), 240, "ch1")]
    matrix = compute_exposure(viewing, broadcasts)
    assert matrix.cells == {("u1", "p1", 0, TimeSlot.NON_PRIMETIME): 240}


def test_channel_mismatch_gives_nothing():
    viewing = [ViewingRecord("u1", datetime(2017, 1, 23, 20, 0), 3600, "ch1")]
    broadcasts = [AdBroadcast("p1", datetime(2017, 1, 23, 20, 30), 15, "ch2")]
    assert compute_exposure(viewing, broadcasts).total_seconds() == 0


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
        assert fast.cells == slow.cells


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
    assert matrix.total_seconds() <= bound


def test_weekday_total_sums_slots(tiny_catalog):
    matrix = ExposureMatrix()
    matrix.add("u002", "p01", 2, TimeSlot.PRIMETIME, 30)
    matrix.add("u002", "p01", 2, TimeSlot.NON_PRIMETIME, 12)
    matrix.add("u002", "p01", 2, TimeSlot.NON_PRIMETIME, 5)
    panel = Panel.build(tiny_catalog, matrix)
    assert panel.E[1, 0, 2].tolist() == [30.0, 17.0]
    fm = build_matrix(panel, ModelBase(BaseKind.PRODUCT_BASED, "p01"),
                      InputConfig(InputKind.VIEW_WEEKDAY), Behavior.ACTUAL_PURCHASE)
    assert fm.values[1].tolist() == [0.0, 0.0, 47.0, 0.0, 0.0, 0.0, 0.0]


def test_audit_dump(tmp_path):
    matrix = ExposureMatrix()
    matrix.add("u1", "p1", 0, TimeSlot.PRIMETIME, 15)
    path = tmp_path / "exposure.tsv"
    write_exposure_table(matrix, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user_id\tproduct_id\tweekday\tslot\tseconds"
    assert lines[1] == "u1\tp1\t0\tprimetime\t15"


def test_negative_seconds_rejected():
    with pytest.raises(ValueError):
        ExposureMatrix().add("u", "p", 0, TimeSlot.PRIMETIME, -1)
