"""Update (message) batches.

A logged update is ``<v_dest, m>`` where the message ``m`` carries the
source vertex id and a numeric payload (paper §V-A).  Batches are
columnar NumPy arrays so sorting and grouping are vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

DEST_DTYPE = np.int32
SRC_DTYPE = np.int32
DATA_DTYPE = np.float64

#: Column layout shared by the multi-log buffers and the batches.
UPDATE_FIELDS = ("dest", "src", "data")
UPDATE_DTYPES = (DEST_DTYPE, SRC_DTYPE, DATA_DTYPE)

#: Integer key spans below this sort as ``uint16`` (NumPy's radix path).
_RADIX_SPAN = 1 << 16


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(keys, kind="stable")``, faster.

    Integer keys wider than 16 bits that span fewer than 2**16 values
    are shifted to zero and sorted as ``uint16``, for which NumPy's
    stable sort is a linear-time radix sort (narrower keys get it
    already).  A stable sort's permutation is unique, so the result is
    identical to the plain call, which every other key array takes.
    """
    if keys.shape[0] > 1 and keys.dtype.kind in "iu" and keys.dtype.itemsize > 2:
        lo = keys.min()
        if int(keys.max()) - int(lo) < _RADIX_SPAN:
            return np.argsort((keys - lo).astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


@dataclass
class UpdateBatch:
    """A columnar batch of updates."""

    dest: np.ndarray
    src: np.ndarray
    data: np.ndarray

    @classmethod
    def empty(cls) -> "UpdateBatch":
        return cls(
            np.empty(0, DEST_DTYPE), np.empty(0, SRC_DTYPE), np.empty(0, DATA_DTYPE)
        )

    @classmethod
    def of(cls, dest, src, data) -> "UpdateBatch":
        d = np.asarray(dest, DEST_DTYPE)
        s = np.asarray(src, SRC_DTYPE)
        x = np.asarray(data, DATA_DTYPE)
        if not (d.shape == s.shape == x.shape):
            raise ValueError("update columns must have equal length")
        return cls(d, s, x)

    @classmethod
    def concat(cls, batches: Iterable["UpdateBatch"]) -> "UpdateBatch":
        parts = [b for b in batches if b.n]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([b.dest for b in parts]),
            np.concatenate([b.src for b in parts]),
            np.concatenate([b.data for b in parts]),
        )

    @property
    def n(self) -> int:
        return int(self.dest.shape[0])

    def sort_by_dest(self) -> "UpdateBatch":
        """Stable sort by destination (the sort-and-group unit's sort)."""
        if self.n <= 1:
            return self
        order = stable_order(self.dest)
        return UpdateBatch(self.dest[order], self.src[order], self.data[order])

    def group(self) -> Tuple[np.ndarray, np.ndarray]:
        """Group a *dest-sorted* batch.

        Returns ``(unique_dests, offsets)`` with ``offsets`` of length
        ``len(unique_dests) + 1``; the updates of ``unique_dests[i]``
        occupy rows ``offsets[i]:offsets[i+1]``.
        """
        if self.n == 0:
            return np.empty(0, DEST_DTYPE), np.zeros(1, np.int64)
        d = self.dest
        starts = np.flatnonzero(d[1:] != d[:-1]) + 1
        offsets = np.concatenate([[0], starts, [self.n]]).astype(np.int64)
        return d[offsets[:-1]], offsets

    def is_sorted(self) -> bool:
        return self.n < 2 or bool(np.all(np.diff(self.dest) >= 0))
