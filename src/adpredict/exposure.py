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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import AdBroadcast, ViewingRecord

SLOT_NAMES = ("primetime", "non_primetime")

_DAY = 86400
_PRIMETIME_START, _PRIMETIME_END = 19 * 3600, 23 * 3600


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


def _intervals(records) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends in whole seconds since 0001-01-01 00:00."""
    starts = np.fromiter(((r.start.toordinal() - 1) * _DAY + r.start.hour * 3600
                          + r.start.minute * 60 + r.start.second for r in records),
                         dtype=np.int64, count=len(records))
    return starts, starts + np.array([r.duration_s for r in records], dtype=np.int64)


def compute_exposure(viewing: list[ViewingRecord],
                     broadcasts: list[AdBroadcast]) -> ExposureMatrix:
    """Join viewing records with broadcasts into an ExposureMatrix.

    Pure function of its inputs; empty inputs yield an all-zero matrix. Per
    matched pair the credited seconds never exceed the broadcast duration.
    """
    user_ids = tuple(sorted({v.user_id for v in viewing}))
    product_ids = tuple(sorted({b.product_id for b in broadcasts}))
    user_index = {u: i for i, u in enumerate(user_ids)}
    product_index = {p: j for j, p in enumerate(product_ids)}
    seconds = np.zeros((len(user_ids), len(product_ids), 7, len(SLOT_NAMES)),
                       dtype=np.int64)

    by_channel: dict[str, tuple[list, list]] = {}
    for v in viewing:
        by_channel.setdefault(v.channel, ([], []))[0].append(v)
    for b in broadcasts:
        by_channel.setdefault(b.channel, ([], []))[1].append(b)
    for views, items in by_channel.values():
        if not views or not items:
            continue
        items.sort(key=lambda b: b.start)
        v_start, v_end = _intervals(views)
        b_start, b_end = _intervals(items)
        # Broadcasts starting before v.start - max duration cannot reach into
        # v; the candidates of view i are broadcasts lo[i] .. lo[i]+counts[i]-1.
        lo = np.searchsorted(b_start, v_start - (b_end - b_start).max())
        counts = np.searchsorted(b_start, v_end, side="right") - lo
        pair_v = np.repeat(np.arange(len(views)), counts)
        pair_b = np.arange(counts.sum()) + np.repeat(lo + counts - np.cumsum(counts),
                                                     counts)
        start = np.maximum(v_start[pair_v], b_start[pair_b])
        overlap = np.minimum(v_end[pair_v], b_end[pair_b]) - start
        hit = overlap > 0
        start, clock = start[hit], start[hit] % _DAY
        non_primetime = (clock < _PRIMETIME_START) | (clock >= _PRIMETIME_END)
        users = np.array([user_index[v.user_id] for v in views])[pair_v[hit]]
        products = np.array([product_index[b.product_id] for b in items])[pair_b[hit]]
        np.add.at(seconds, (users, products, start // _DAY % 7,
                            non_primetime.astype(np.intp)), overlap[hit])
    return ExposureMatrix(user_ids, product_ids, seconds)


def write_exposure_table(matrix: ExposureMatrix, path: str | Path) -> None:
    """Dump the non-zero cells as a tab-separated audit table."""
    path = Path(path)
    lines = ["user_id\tproduct_id\tweekday\tslot\tseconds"]
    for (user_id, product_id, weekday, slot), seconds in matrix.cells.items():
        lines.append(f"{user_id}\t{product_id}\t{weekday}\t{slot}\t{seconds}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
