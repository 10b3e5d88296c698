"""Accumulated advert exposure per (user, product, weekday, time slot).

A viewing record and a broadcast match when they share a channel and their
intervals overlap. The overlap length in whole seconds is credited to the
weekday (Monday = 0) and time slot of the overlap start, so an advert that
straddles 23:00 or midnight lands in a single cell. The primetime slot is
the half-open window [19:00, 23:00).

The join yields one dense int64 tensor ``seconds[user, product, weekday,
slot]`` whose slot axis follows ``SLOT_NAMES`` (primetime first). Times are
whole seconds since 0001-01-01 00:00, a Monday, so weekday and slot are
integer arithmetic; a sub-second part is ignored (panel files have minute
resolution).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import repeat
from pathlib import Path

import numpy as np

from .data_model import AdBroadcast, ViewingRecord

SLOT_NAMES = ("primetime", "non_primetime")

_DAY = 86400
_PRIMETIME_START, _PRIMETIME_END = 19 * 3600, 23 * 3600
_ORIGIN, _SECOND = datetime(1, 1, 1), timedelta(seconds=1)
_JOIN_BLOCK = 4096  # candidate pairs per join step: bounds its temporaries


@dataclass(frozen=True)
class ExposureMatrix:
    """Seconds per (user, product, weekday, slot) on sorted id axes: the
    users with viewing rows and the products with broadcasts."""

    user_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    seconds: np.ndarray

    @property
    def cells(self) -> dict[tuple[str, str, int, str], int]:
        """Non-zero cells as ``{(user, product, weekday, slot_name): seconds}``
        in audit order, which sorts "non_primetime" first: hence the flip."""
        flipped, names = self.seconds[..., ::-1], SLOT_NAMES[::-1]
        index = np.nonzero(flipped)
        return {(self.user_ids[u], self.product_ids[p], w, names[s]): n
                for u, p, w, s, n in zip(*(i.tolist() for i in index),
                                         flipped[index].tolist())}


def _codes(records, field: str, keys: tuple[str, ...]) -> np.ndarray:
    """Position in ``keys`` of each record's ``field``."""
    index = {key: i for i, key in enumerate(keys)}
    return np.fromiter(map(index.__getitem__, map(operator.attrgetter(field), records)),
                       np.intp, len(records))


def _durations(records) -> np.ndarray:
    """Each record's duration in seconds."""
    return np.fromiter(map(operator.attrgetter("duration_s"), records), np.int64,
                       len(records))


def _seconds(records) -> np.ndarray:
    """Whole seconds since 0001-01-01 00:00 of each record's start."""
    starts = map(operator.attrgetter("start"), records)
    return np.fromiter(map(operator.floordiv, map(operator.sub, starts, repeat(_ORIGIN)),
                           repeat(_SECOND)), np.int64, len(records))


def _join(seconds: np.ndarray, v_user, v_start, v_length, b_product, b_start, b_length) -> None:
    """Add the overlaps of one channel's views with its broadcasts, which are
    sorted by start, to ``seconds``, ``_JOIN_BLOCK`` candidate pairs at a time."""
    v_end, b_end = v_start + v_length, b_start + b_length
    # Broadcasts starting before v.start - max duration cannot reach into v;
    # the candidates of view i are broadcasts lo[i] .. lo[i]+counts[i]-1, and
    # they are candidate pairs begins[i] .. ends[i]-1 of the channel.
    lo = np.searchsorted(b_start, v_start - b_length.max())
    counts = np.searchsorted(b_start, v_end, side="right") - lo
    ends = np.cumsum(counts)
    begins = ends - counts
    cells = seconds.reshape(-1)  # a view: seconds is contiguous
    n_products = seconds.shape[1]
    for first in range(0, int(ends[-1]), _JOIN_BLOCK):
        last = min(first + _JOIN_BLOCK, int(ends[-1]))
        i, j = np.searchsorted(ends, (first, last - 1), side="right")
        views = np.arange(i, j + 1)  # the views that own pairs first .. last-1
        pair_v = np.repeat(views, np.minimum(ends[views], last)
                           - np.maximum(begins[views], first))
        pair_b = lo[pair_v] + np.arange(first, last) - begins[pair_v]
        start = np.maximum(v_start[pair_v], b_start[pair_b])
        overlap = np.minimum(v_end[pair_v], b_end[pair_b]) - start
        hit = np.flatnonzero(overlap > 0)
        day, clock = np.divmod(start[hit], _DAY)
        non_primetime = (clock < _PRIMETIME_START) | (clock >= _PRIMETIME_END)
        cell = ((v_user[pair_v[hit]] * n_products + b_product[pair_b[hit]]) * 7
                + day % 7) * len(SLOT_NAMES) + non_primetime
        np.add.at(cells, cell, overlap[hit])


def compute_exposure(viewing: list[ViewingRecord],
                     broadcasts: list[AdBroadcast]) -> ExposureMatrix:
    """Join viewing records with broadcasts into an ExposureMatrix.

    Pure function of its inputs; empty inputs yield an all-zero matrix. Per
    matched pair the credited seconds never exceed the broadcast duration.
    No field passes through a Python list, and interval ends exist for one
    channel at a time: that bounds what the join holds at once.
    """
    user_ids = tuple(sorted({v.user_id for v in viewing}))
    product_ids = tuple(sorted({b.product_id for b in broadcasts}))
    channels = tuple(sorted({v.channel for v in viewing} | {b.channel for b in broadcasts}))
    seconds = np.zeros((len(user_ids), len(product_ids), 7, len(SLOT_NAMES)),
                       dtype=np.int64)

    v_user = _codes(viewing, "user_id", user_ids)
    v_start = _seconds(viewing)
    v_length = _durations(viewing)
    v_channel = _codes(viewing, "channel", channels)
    b_product = _codes(broadcasts, "product_id", product_ids)
    b_start = _seconds(broadcasts)
    b_length = _durations(broadcasts)
    b_channel = _codes(broadcasts, "channel", channels)

    by_start = np.argsort(b_start, kind="stable")
    for c in range(len(channels)):
        v = np.flatnonzero(v_channel == c)
        b = by_start[b_channel[by_start] == c]
        if v.size and b.size:
            _join(seconds, v_user[v], v_start[v], v_length[v],
                  b_product[b], b_start[b], b_length[b])
    return ExposureMatrix(user_ids, product_ids, seconds)


def write_exposure_table(matrix: ExposureMatrix, path: str | Path) -> None:
    """Dump the non-zero cells as a tab-separated audit table."""
    path = Path(path)
    lines = ["user_id\tproduct_id\tweekday\tslot\tseconds"]
    for (user_id, product_id, weekday, slot), seconds in matrix.cells.items():
        lines.append(f"{user_id}\t{product_id}\t{weekday}\t{slot}\t{seconds}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
