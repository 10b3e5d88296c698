"""Accumulated advert exposure per (user, product, weekday, time slot).

A viewing record and a broadcast match when they share a channel and their
intervals overlap. The overlap length in whole seconds is credited to the
weekday (Monday = 0) and time slot of the overlap start, so an advert that
straddles the 23:00 boundary lands in a single cell. The primetime slot is
the half-open window [19:00, 23:00).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta
from enum import Enum
from pathlib import Path

from .data_model import AdBroadcast, ViewingRecord


class TimeSlot(Enum):
    PRIMETIME = "primetime"
    NON_PRIMETIME = "non_primetime"


_PRIMETIME_START = time(19, 0)
_PRIMETIME_END = time(23, 0)

Cell = tuple[str, str, int, TimeSlot]


def slot_of(moment: datetime | time) -> TimeSlot:
    """Time slot of a clock time: primetime iff 19:00:00 <= t < 23:00:00."""
    clock = moment.time() if isinstance(moment, datetime) else moment
    if _PRIMETIME_START <= clock < _PRIMETIME_END:
        return TimeSlot.PRIMETIME
    return TimeSlot.NON_PRIMETIME


@dataclass
class ExposureMatrix:
    """Sparse map of accumulated seconds; an absent cell means zero."""

    cells: dict[Cell, int] = field(default_factory=dict)

    def add(self, user_id: str, product_id: str, weekday: int, slot: TimeSlot,
            seconds: int) -> None:
        if seconds < 0:
            raise ValueError("exposure seconds must be non-negative")
        if seconds == 0:
            return
        key = (user_id, product_id, weekday, slot)
        self.cells[key] = self.cells.get(key, 0) + seconds

    def total_seconds(self) -> int:
        return sum(self.cells.values())

    def rows(self):
        """Cells as (user, product, weekday, slot, seconds), sorted for audit dumps."""
        for key in sorted(self.cells, key=lambda c: (c[0], c[1], c[2], c[3].value)):
            yield (*key, self.cells[key])


def compute_exposure(viewing: list[ViewingRecord],
                     broadcasts: list[AdBroadcast]) -> ExposureMatrix:
    """Join viewing records with broadcasts into an ExposureMatrix.

    Pure function of its inputs; empty inputs yield an empty matrix. Per
    matched pair the credited seconds never exceed the broadcast duration.
    """
    matrix = ExposureMatrix()
    if not viewing or not broadcasts:
        return matrix

    by_channel: dict[str, list[AdBroadcast]] = {}
    for b in broadcasts:
        by_channel.setdefault(b.channel, []).append(b)
    channel_index: dict[str, tuple[list[datetime], list[AdBroadcast], int]] = {}
    for channel, items in by_channel.items():
        items.sort(key=lambda b: (b.start, b.product_id))
        starts = [b.start for b in items]
        max_duration = max(b.duration_s for b in items)
        channel_index[channel] = (starts, items, max_duration)

    for v in viewing:
        if v.duration_s == 0 or v.channel not in channel_index:
            continue
        starts, items, max_duration = channel_index[v.channel]
        v_end = v.end
        # Broadcasts starting before v.start - max_duration cannot reach into v.
        lo = bisect_left(starts, v.start - timedelta(seconds=max_duration))
        hi = bisect_right(starts, v_end)
        for b in items[lo:hi]:
            overlap_start = max(v.start, b.start)
            overlap_end = min(v_end, b.end)
            seconds = int((overlap_end - overlap_start).total_seconds())
            if seconds <= 0:
                continue
            matrix.add(v.user_id, b.product_id, overlap_start.weekday(),
                       slot_of(overlap_start), seconds)
    return matrix


def write_exposure_table(matrix: ExposureMatrix, path: str | Path) -> None:
    """Dump the matrix as a tab-separated audit table."""
    path = Path(path)
    lines = ["user_id\tproduct_id\tweekday\tslot\tseconds"]
    for user_id, product_id, weekday, slot, seconds in matrix.rows():
        lines.append(f"{user_id}\t{product_id}\t{weekday}\t{slot.value}\t{seconds}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
