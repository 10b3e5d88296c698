"""Six-category behavior labels derived from two-wave survey answers.

Each (January, March) answer pair maps to exactly two of the categories
0-5: one of the four base patterns plus one of the two union categories.

    category 0: yes in January, no in March
    category 1: no in both waves
    category 2: no in January, yes in March
    category 3: yes in both waves
    category 4: yes in March (union of 2 and 3)
    category 5: no in March (union of 0 and 1)

Every category is treated as an independent binary one-vs-rest prediction
target, which is the only scheme consistent with the overlapping unions.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class Behavior(Enum):
    # Declaration order is the report order and the default matrix order.
    ACTUAL_PURCHASE = "actual_purchase"
    PURCHASE_INTENTION = "purchase_intention"


CATEGORIES = (0, 1, 2, 3, 4, 5)


def label_vector(jan: np.ndarray, mar: np.ndarray, category: int) -> np.ndarray:
    """Binary labels, one per (January, March) answer pair in input order.

    ``jan`` and ``mar`` are equal-length bool arrays.
    """
    if jan.size == 0:
        raise ValueError("responses must be nonempty")
    if category not in CATEGORIES:
        raise ValueError(f"category must be in 0..5, got {category}")
    member = (jan & ~mar, ~jan & ~mar, ~jan & mar, jan & mar, mar, ~mar)[category]
    return member.astype(np.int64)
